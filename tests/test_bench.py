"""The benchmark's self-test passes against this source tree.

It drives every workload of BENCHMARK.json at tiny size through the public
calls the benchmark makes, so a change that breaks one of them fails here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
