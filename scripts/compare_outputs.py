"""Compare the CSV files of two output directories, such as two runs of the figure sweeps.

    python3 scripts/compare_outputs.py DIR_A DIR_B

For each CSV file (by path relative to its directory) one line says whether
the two files are byte-equal.  If they are not, it gives the largest
relative difference |a - b| / max(|a|, |b|) of each column over the rows,
or why the rows cannot be paired.  Comment lines (``#``) are not compared
row by row; a file that differs only there reads as differing with every
column at 0.  The exit status is 0 when there are CSV files and every one is
byte-equal, and 1 otherwise.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _rel_diff(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf  # text that differs
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def compare_csv(path_a: Path, path_b: Path) -> tuple[str, float]:
    """One line of report for a file present in both directories, and its worst difference."""
    if path_a.read_bytes() == path_b.read_bytes():
        return "byte-equal", 0.0
    head_a, rows_a = _table(path_a)
    head_b, rows_b = _table(path_b)
    if head_a != head_b:
        return "differs: headers differ", math.inf
    if len(rows_a) != len(rows_b) or any(len(r) != len(head_a) for r in rows_a + rows_b):
        return f"differs: {len(rows_a)} against {len(rows_b)} rows", math.inf
    worst = [max((_rel_diff(ra[c], rb[c]) for ra, rb in zip(rows_a, rows_b)), default=0.0)
             for c in range(len(head_a))]
    return ("differs: max rel diff " + ", ".join(f"{h} {w:.3g}" for h, w in zip(head_a, worst)),
            max(worst, default=0.0))


def compare_dirs(dir_a: Path, dir_b: Path) -> list[tuple[str, str, float]]:
    """(relative path, report, worst difference) for every CSV in either directory."""
    names = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in d.rglob("*.csv")})
    out = []
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            out.append((name, f"only in {dir_a if a.is_file() else dir_b}", math.inf))
        else:
            out.append((name, *compare_csv(a, b)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    report = compare_dirs(args.dir_a, args.dir_b)
    for name, line, _ in report:
        print(f"{name}: {line}")
    equal = sum(line == "byte-equal" for _, line, _ in report)
    worst = max((w for _, _, w in report), default=0.0)
    print(f"{equal} of {len(report)} files byte-equal; largest relative difference {worst:.3g}")
    return 0 if report and equal == len(report) else 1


if __name__ == "__main__":
    sys.exit(main())
