"""Self-test of the benchmark at tiny size; exits non-zero on the first problem.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json with ``--tiny`` in both modes and
checks that each run is correct and prints every metric with its declared
unit, that the traced counts repeat exactly, and that the benchmark refuses
to run in a copy holding only its own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common

TIMEOUT_S = 300
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd=common.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "11",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{what}: result keys {sorted(out)}")
    if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
        raise SystemExit(f"{what}: {out['failed']} of {out['attempted']} results failed")
    return out


def check_metrics(out: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        raise SystemExit(f"{what}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                         f"units {[(n, got[n], want[n]) for n in got if n in want and got[n] != want[n]]}")
    bad = [n for n, m in out["metrics"].items()
           if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
    if bad:
        raise SystemExit(f"{what}: non-numeric values for {bad}")


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        out = result(run(w, 0), f"{w} --trace 0")
        check_metrics(out, SPEC["end_to_end"], f"{w} --trace 0")
        first = result(run(w, 1), f"{w} --trace 1")
        check_metrics(first, SPEC["per_layer"], f"{w} --trace 1")
        again = result(run(w, 1), f"{w} --trace 1, again")
        counts = {n for n, m in first["metrics"].items() if m["unit"] in ("count", "lines")}
        moved = [n for n in sorted(counts)
                 if first["metrics"][n]["value"] != again["metrics"][n]["value"]]
        if moved:
            raise SystemExit(f"{w}: counts differ between identical traced runs: {moved}")
        print(f"ok {w}: {out['attempted']} results, {len(counts)} exact counts repeat")

    # a copy holding only the benchmark's own files must refuse to run
    bare = common.OUT_DIR / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(common.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    w = SPEC["workloads"][0]["name"]
    proc = run(w, 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        raise SystemExit("benchmark ran without the package source")
    print("ok: refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
