"""Command line behaviour: output formats, exit codes, config plumbing."""
import json

import pytest

from filmcasimir.cli import main
from filmcasimir.lifshitz import delta_P
from filmcasimir.materials import material_table


def test_materials_listing(capsys, presets):
    assert main(["materials"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("name")
    names = [ln.split()[0] for ln in out[1:]]
    assert names == sorted(presets)
    cs = next(ln for ln in out if ln.startswith("Cs"))
    assert "5.620" in cs and "2.140" in cs and "6.4532" in cs


def test_point_row_round_trips(capsys, presets):
    code = main(["point", "--material", "Cs", "--model", "fwm",
                 "--D", "1.0", "--ell", "1.0", "--tol", "1e-6"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# columns: material,model,")
    fields = out[1].split(",")
    assert fields[0] == "Cs" and fields[1] == "FWM"
    d_film, ell, gamma, f_q, f_ref, delta = (float(v) for v in fields[2:])
    assert (d_film, ell, gamma) == (1.0, 1.0, 0.0)
    assert f_ref < f_q < 0.0
    assert delta == (f_ref - f_q) / f_ref
    assert delta == delta_P(presets["Cs"], "FWM", 1.0, 1.0, tol=1e-6)


def test_point_rejects_unknown_names(capsys):
    assert main(["point", "--material", "Xx", "--model", "FWM",
                 "--D", "1", "--ell", "1"]) == 2
    assert "unknown material" in capsys.readouterr().err
    assert main(["point", "--material", "Cs", "--model", "ABC",
                 "--D", "1", "--ell", "1"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_point_numerical_failure_exits_one(capsys, tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([
        {"name": "shallow", "rs_over_a0": 2.07, "work_function": 1e-3},
    ]))
    code = main(["point", "--material", "shallow", "--model", "FWM",
                 "--D", "0.35", "--ell", "1", "--materials-config", str(cfg)])
    assert code == 1
    assert "point failed" in capsys.readouterr().err


def test_point_invalid_inputs_exit_one(capsys):
    assert main(["point", "--material", "Cs", "--model", "FWM",
                 "--D", "-1", "--ell", "1"]) == 1
    assert "point failed" in capsys.readouterr().err


def test_figure_writes_datasets(capsys, tmp_path):
    code = main(["figure", "fig2", "--points", "3", "--materials", "Cs",
                 "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    csvs = sorted(tmp_path.glob("fig2_EF_ratio_Cs_*.csv"))
    assert len(csvs) == 2  # FWM and IWM
    assert {str(p) for p in csvs} <= set(out)
    assert (tmp_path / "fig2_manifest.txt").exists()
    assert out[-1].startswith("manifest: ")


def test_point_infinite_relaxation_exits_one(capsys):
    assert main(["point", "--material", "Cs", "--model", "FWM",
                 "--D", "1", "--ell", "1", "--gamma", "inf"]) == 1
    assert "relaxation" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["figure", "fig4", "--tol", "-1"],
    ["figure", "fig4", "--workers", "0"],  # no such option: sweeps run in one process
    ["figure", "fig2", "--points", "0"],
    ["figure", "fig2", "--materials", "Cs,Cs"],  # both would write the same files
])
def test_figure_bad_options_are_usage_errors(capsys, tmp_path, argv):
    try:
        code = main(argv + ["--outdir", str(tmp_path)])
    except SystemExit as exc:  # argparse rejects an unknown option itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") or "filmcasimir: error: unrecognized arguments" in err
    assert not list(tmp_path.iterdir())


def test_figure_outdir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FILMCASIMIR_OUTDIR", str(tmp_path))
    assert main(["figure", "fig2", "--points", "3", "--materials", "Cs"]) == 0
    capsys.readouterr()
    assert (tmp_path / "fig2_manifest.txt").exists()


def test_figure_rejects_unknown_names(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err
    assert main(["figure", "fig2", "--materials", "Al,Nope"]) == 2
    assert "unknown material" in capsys.readouterr().err


def test_figure_materials_config_extends_table(capsys, tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([
        {"name": "Na", "rs_over_a0": 3.93, "work_function": 2.75},
    ]))
    code = main(["figure", "fig2", "--points", "3", "--materials", "Na",
                 "--outdir", str(tmp_path), "--materials-config", str(cfg)])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "fig2_EF_ratio_Na_FWM.csv").exists()


def test_unreadable_config_exits_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["materials", "--materials-config", str(tmp_path / "absent.json")])
    assert exc.value.code == 2
    assert "materials config" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    ["Na"],
    [{"name": "Na", "rs_over_a0": 3.93, "work_function": 2.75,
      "relaxation_frequencies": 5e13}],
])
def test_malformed_config_exits_two(capsys, tmp_path, payload):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["materials", "--materials-config", str(cfg)])
    assert exc.value.code == 2
    assert "materials config" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("filmcasimir ")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_presets_match_library_table(presets):
    assert set(material_table()) == set(presets)
