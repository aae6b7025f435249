"""scripts/compare_outputs.py reports byte equality and per-column differences."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

BODY = "# title\nD_nm,ell_nm,delta\n1.0,2.0,0.5\n1.0,4.0,0.25\n"


def write(d: Path, name: str, text: str) -> None:
    d.mkdir(parents=True, exist_ok=True)
    (d / name).write_text(text, encoding="utf-8")


def test_equal_and_differing_files(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        write(d, "same.csv", BODY)
    write(a, "moved.csv", BODY)
    write(b, "moved.csv", BODY.replace("0.25", "0.2500001"))
    write(a, "short.csv", BODY)
    write(b, "short.csv", BODY.rsplit("1.0,4.0", 1)[0])
    write(a, "only_a.csv", BODY)

    report = {name: (line, worst) for name, line, worst in compare_outputs.compare_dirs(a, b)}
    assert report["same.csv"] == ("byte-equal", 0.0)
    line, worst = report["moved.csv"]
    assert line.startswith("differs: max rel diff D_nm 0, ell_nm 0, delta 4e-07")
    assert abs(worst - 1e-7 / 0.2500001) < 1e-15
    assert report["short.csv"][0] == "differs: 2 against 1 rows"
    assert report["only_a.csv"][0] == f"only in {a}"

    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "1 of 4 files byte-equal" in capsys.readouterr().out


def test_exit_status(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "x.csv", BODY)
    write(b, "x.csv", BODY)
    assert compare_outputs.main([str(a), str(b)]) == 0
    write(b, "x.csv", BODY.replace("# title", "# another title"))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert compare_outputs.compare_csv(a / "x.csv", b / "x.csv")[1] == 0.0
    (tmp_path / "empty").mkdir()
    assert compare_outputs.main([str(tmp_path / "empty"), str(tmp_path / "empty")]) == 1
