"""Sweep planning, deterministic CSV output, failure capture."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import filmcasimir.sweep as sweep
from filmcasimir.estructure import ef_ratio, film_state
from filmcasimir.lifshitz import delta_D, quantized_slab
from filmcasimir.materials import Material, derive_bulk, material_table
from filmcasimir.sweep import FIGURES, SweepPlan, figure_default_materials, figure_plan, run


def small_ratio_plan(presets, outdir, **overrides):
    kw = dict(x_grid=(0.6, 1.1, 2.4), output_dir=str(outdir))
    kw.update(overrides)
    return SweepPlan("EF_ratio", (presets["Cs"],), ("FWM", "IWM"), **kw)


def read_body(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_plan_validation_fires_before_compute(presets):
    mats = (presets["Cs"],)
    with pytest.raises(ValueError):
        SweepPlan("entropy", mats, ("FWM",), x_grid=(1.0,)).validate()
    with pytest.raises(ValueError):
        SweepPlan("EF_ratio", (), ("FWM",), x_grid=(1.0,)).validate()
    with pytest.raises(ValueError):
        SweepPlan("EF_ratio", mats, ("XWM",), x_grid=(1.0,)).validate()
    with pytest.raises(ValueError):
        SweepPlan("EF_ratio", mats, ("FWM",), x_grid=()).validate()
    with pytest.raises(ValueError):
        SweepPlan("delta_P", mats, ("FWM",), D_grid=(2.0, 1.0), ell_grid=(1.0,)).validate()
    with pytest.raises(ValueError):
        SweepPlan("delta_D", mats, ("FWM",), D_grid=(1.0,), ell_grid=(1.0,),
                  gammas=()).validate()
    with pytest.raises(ValueError):
        SweepPlan("delta_D", mats, ("FWM",), D_grid=(1.0,), ell_grid=(1.0,),
                  gammas=(-1e13,)).validate()
    with pytest.raises(ValueError):
        small_ratio_plan(presets, ".", force_tol=0.0).validate()
    with pytest.raises(ValueError, match="one process"):
        small_ratio_plan(presets, ".", workers=2).validate()
    # plans whose groups would write one CSV file twice
    cs = presets["Cs"]
    damped = dict(D_grid=(1.0,), ell_grid=(1.0,))
    leaky = Material("Leaky", 5.62, 2.14, relaxation_frequencies=(0.0, 5e13))
    twice = Material("Twice", 5.62, 2.14, relaxation_frequencies=(5e13, 5e13))
    clashes = [
        (SweepPlan("delta_D", (cs,), ("FWM",), gammas=(1e14, 1.0000001e14), **damped),
         "Cs FWM gamma=100000000000000.0 and Cs FWM gamma=100000010000000.0 "
         "would both write delta_D_Cs_FWM_gamma1e+14.csv"),
        (replace(small_ratio_plan(presets, "."), models=("FWM", "FWM")),
         "Cs FWM and Cs FWM would both write EF_ratio_Cs_FWM.csv"),
        (replace(small_ratio_plan(presets, "."), materials=(cs, cs)), "EF_ratio_Cs_FWM.csv"),
        (SweepPlan("delta_P", (cs, cs), ("IWM",), **damped), "delta_P_Cs_IWM.csv"),
        (SweepPlan("delta_D", (leaky,), ("FWM",), gammas=None, **damped),
         "delta_D_Leaky_FWM_gamma0.csv"),
        (SweepPlan("delta_D", (twice,), ("FWM",), gammas=None, **damped),
         "delta_D_Twice_FWM_gamma5e+13.csv"),
    ]
    for plan, message in clashes:
        with pytest.raises(ValueError, match=re.escape(message)):
            plan.validate()
    # the same rates are no clash for delta_P, which writes one file per film
    SweepPlan("delta_P", (cs,), ("FWM",), gammas=(1e14, 1.0000001e14), **damped).validate()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_plan_validation_rejects_non_finite_rates_and_tolerance(presets, bad):
    plans = [
        SweepPlan("delta_D", (presets["Cs"],), ("FWM",), D_grid=(1.0,), ell_grid=(1.0,),
                  gammas=(0.0, bad)),
        small_ratio_plan(presets, ".", force_tol=bad),
    ]
    for plan in plans:
        with pytest.raises(ValueError):
            plan.validate()


@given(field=st.sampled_from(["D_grid", "ell_grid", "x_grid"]),
       xs=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=6, unique=True),
       where=st.integers(0, 5), bad=st.sampled_from([math.nan, math.inf]))
def test_grid_with_a_non_finite_entry_is_rejected(field, xs, where, bad):
    grid = sorted(xs)
    grid[where % len(grid)] = bad
    quantity = "EF_ratio" if field == "x_grid" else "delta_P"
    plan = SweepPlan(quantity, (material_table()["Cs"],), ("FWM",),
                     **{"D_grid": (1.0,), "ell_grid": (1.0,), "x_grid": (1.0,), field: tuple(grid)})
    with pytest.raises(ValueError, match=field):
        plan.validate()


def test_rerun_is_byte_identical(presets, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    rep_a = run(small_ratio_plan(presets, a))
    rep_b = run(small_ratio_plan(presets, b))
    assert [p.name for p in rep_a.files] == [p.name for p in rep_b.files]
    for pa, pb in zip(rep_a.files, rep_b.files):
        assert pa.read_bytes() == pb.read_bytes()
    assert not rep_a.failures


def test_ratio_rows_match_library(presets, tmp_path):
    rep = run(small_ratio_plan(presets, tmp_path))
    bulk = derive_bulk(presets["Cs"])
    path = [p for p in rep.files if "FWM" in p.name][0]
    body = read_body(path)
    assert body[0] == "D_nm,kFD_over_pi,EF_over_EFB,m0"
    for ln, x in zip(body[1:], (0.6, 1.1, 2.4)):
        d_s, x_s, r_s, m_s = ln.split(",")
        d = x * math.pi / bulk.kF_bulk
        assert float(d_s) == d and float(x_s) == x
        st = film_state(presets["Cs"], "FWM", d)
        assert float(r_s) == ef_ratio(st, bulk)
        assert int(m_s) == st.m0


def test_force_reduction_rows_match_library(presets, tmp_path, monkeypatch):
    real = sweep.force
    calls = {"quantized": 0, "reference": 0}

    def counting(slab, ell, **kw):
        # the bulk reference is the one table with a pole at dE = 0
        calls["quantized" if slab.de.all() else "reference"] += 1
        return real(slab, ell, **kw)

    monkeypatch.setattr(sweep, "force", counting)
    cs = presets["Cs"]
    plans = [  # (plan, force calls of the quantized films, of the shared references)
        (SweepPlan("delta_P", (cs,), ("FWM",), output_dir=str(tmp_path / "P"),
                   D_grid=(1.0,), ell_grid=(1.0, 5.0), force_tol=1e-6), 2, 2),
        (SweepPlan("delta_D", (cs,), ("FWM", "IWM"), output_dir=str(tmp_path / "D"),
                   D_grid=(1.0,), ell_grid=(1.0, 5.0), gammas=(0.0, 1e14), force_tol=1e-6), 8, 4),
    ]
    for plan, n_quantized, n_reference in plans:
        calls.update(quantized=0, reference=0)
        rep = run(plan)
        assert not rep.failures
        assert calls == {"quantized": n_quantized, "reference": n_reference}
        groups = [(model, gamma) for model in plan.models for gamma in plan.gammas]
        assert len(rep.files) == len(groups)
        for path, (model, gamma) in zip(rep.files, groups):
            body = read_body(path)
            assert body[0] == "D_nm,ell_nm,gamma_rad_s,F_reference_Pa,F_quantized_Pa,delta"
            assert len(body) == 3
            for ln, ell in zip(body[1:], (1.0, 5.0)):
                d_s, ell_s, g_s, fr, fq, delta = (float(v) for v in ln.split(","))
                assert (d_s, ell_s, g_s) == (1.0, ell, gamma)
                assert delta == (fr - fq) / fr
                assert delta == delta_D(cs, model, 1.0, ell, gamma, tol=1e-6)


def test_manifest_reports_film_optics(presets, tmp_path):
    plan = SweepPlan("delta_D", (presets["Cs"],), ("FWM", "IWM"), output_dir=str(tmp_path),
                     D_grid=(1.0,), ell_grid=(5.0,), gammas=(0.0, 1e14), force_tol=1e-5)
    rep = run(plan)
    lines = [ln for ln in rep.manifest.read_text().splitlines() if ln.startswith("optics=")]
    assert len(lines) == 2  # one per quantized film, whatever the number of rates
    for line, model in zip(lines, ("FWM", "IWM")):
        t = quantized_slab(presets["Cs"], model, 1.0, 1e14)
        assert line == (f"optics=Cs {model} D=1.0 pairs={t.de.size} "
                        f"sum_rule_completeness={t.sum_rule_completeness:.6g}")
    assert " pairs=3 " in lines[0]
    # the finite well keeps bound states only; the hard wall holds the whole sum rule
    assert float(lines[0].split("sum_rule_completeness=")[1]) < 0.99
    assert float(lines[1].split("sum_rule_completeness=")[1]) == pytest.approx(1.0, abs=1e-6)


def test_point_failures_recorded_and_sweep_continues(presets, tmp_path, monkeypatch):
    real = sweep.film_state

    def flaky(material, model, d_film):
        if d_film > 1.0:
            raise RuntimeError("injected")
        return real(material, model, d_film)

    monkeypatch.setattr(sweep, "film_state", flaky)
    rep = run(small_ratio_plan(presets, tmp_path))
    assert len(rep.failures) == 2  # two models x the one point past 1 nm
    assert all("injected" in f for f in rep.failures)
    for path in rep.files:
        assert len(read_body(path)) == 3  # header + the two surviving points
    text = rep.manifest.read_text()
    assert text.count("failure=") == 2
    assert "failures=2" in text

    # force rows: a film that cannot be built is one note; a failed reference force
    # is tried once and noted for each model that needed it
    real_force = sweep.force
    failed_references = []

    def no_iwm(material, model, d_film):
        if model == "IWM":
            raise RuntimeError("no film")
        return real(material, model, d_film)

    def no_far_reference(slab, ell, **kw):
        if ell > 1.0 and not slab.de.all():  # the bulk reference at the far gap
            failed_references.append(slab.gamma)
            raise RuntimeError("no reference")
        return real_force(slab, ell, **kw)

    monkeypatch.setattr(sweep, "film_state", no_iwm)
    monkeypatch.setattr(sweep, "force", no_far_reference)
    plan = SweepPlan("delta_D", (presets["Cs"],), ("FWM", "IWM", "PBM"),
                     output_dir=str(tmp_path / "force"), D_grid=(1.0,), ell_grid=(1.0, 5.0),
                     gammas=(0.0, 1e14), force_tol=1e-5)
    rep = run(plan)
    assert failed_references == [0.0, 1e14]
    assert sorted(rep.failures) == [
        "Cs FWM D=1.0 ell=5.0 gamma=0.0: no reference",
        "Cs FWM D=1.0 ell=5.0 gamma=100000000000000.0: no reference",
        "Cs IWM D=1.0: no film",
        "Cs PBM D=1.0 ell=5.0 gamma=0.0: no reference",
        "Cs PBM D=1.0 ell=5.0 gamma=100000000000000.0: no reference",
    ]
    assert [len(read_body(p)) - 1 for p in rep.files] == [1, 1, 0, 0, 1, 1]
    assert rep.manifest.read_text().count("optics=") == 2


def test_manifest_round_trip(presets, tmp_path):
    plan = small_ratio_plan(presets, tmp_path, tag="demo")
    rep = run(plan)
    assert rep.manifest.name == "demo_manifest.txt"
    kv = dict(ln.split("=", 1) for ln in rep.manifest.read_text().splitlines())
    assert kv["quantity"] == "EF_ratio"
    assert kv["materials"] == "Cs"
    assert kv["models"] == "FWM,IWM"
    assert tuple(float(v) for v in kv["x_grid"].split(",")) == plan.x_grid
    assert kv["failures"] == "0"
    assert int(kv["files"]) == len(rep.files)
    assert all("demo_EF_ratio_Cs" in p.name for p in rep.files)


def test_relaxation_grouping_and_preset_gammas(presets, tmp_path):
    plan = SweepPlan("delta_D", (presets["Cs"],), ("FWM",), output_dir=str(tmp_path),
                     D_grid=(1.0,), ell_grid=(1.0,), gammas=None, force_tol=1e-5)
    rep = run(plan)
    # gamma=0 plus the material's two preset rates
    assert len(rep.files) == 3
    names = sorted(p.name for p in rep.files)
    assert names[0] == "delta_D_Cs_FWM_gamma0.csv"
    assert any("gamma5e+13" in n for n in names)
    assert "gammas=presets" in rep.manifest.read_text()


def test_figure_plans_are_valid_and_scoped():
    for figure in FIGURES:
        plan = figure_plan(figure, n_points=4, output_dir="unused")
        assert plan.tag == figure
    assert figure_default_materials("fig8") == ("Ag",)
    assert figure_default_materials("fig9") == ("Ag",)
    assert figure_default_materials("fig4") == ("Al", "Ag", "Cs")
    assert figure_plan("fig2", n_points=4).quantity == "EF_ratio"
    assert figure_plan("fig3", n_points=4).models == ("FWM", "IWM", "PBM")
    assert figure_plan("fig6", n_points=4).gammas is None
    assert figure_plan("fig9", n_points=4).ell_grid == (5.0,)
    assert figure_plan("fig5", n_points=4, force_tol=1e-5).force_tol == 1e-5
    assert len(figure_plan("fig4", n_points=7).ell_grid) == 7
    with pytest.raises(ValueError):
        figure_plan("fig1")
    with pytest.raises(ValueError, match="n_points"):
        figure_plan("fig4", n_points=0)
