"""filmcasimir benchmark: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload points --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
a fresh interpreter, results per second, per-result latency quantiles and
peak memory.  With ``--trace 1`` it traces a fixed number of cycles, each
call paired with an untraced one, and reports the per-layer metrics.  Every output is
checked against the stored references; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import common
from tracer import ROOT_SPAN, Tracer

common.pin_threads()  # before numpy is imported

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
SETUP_CODE = "import filmcasimir; filmcasimir.material_table()"
CHILD_TIMEOUT_S = 60


def measure_setup(runs: int) -> float:
    """Median wall time from a fresh interpreter to the material table."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=common.child_env(),
                       cwd=common.ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Wall time of every call, by slot, and result counts of one pass."""

    def __init__(self):
        self.visits: dict[int, list[float]] = defaultdict(list)
        self.results: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0

    @property
    def wall(self) -> float:
        return sum(sum(v) for v in self.visits.values())

    def slot_times(self) -> dict[int, float]:
        """Each slot timed at its fastest visit, i.e. at the machine's undisturbed speed."""
        return {slot: min(v) for slot, v in self.visits.items()}


def run_calls(workload, calls, tally: Tally, tracer=None) -> None:
    for slot, item in calls:
        n = workload.results(item)
        span = tracer.open(ROOT_SPAN) if tracer else None
        t0 = time.perf_counter()
        try:
            out = workload.call(item)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, the run goes on
            out, error = None, exc
        else:
            error = None
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        tally.visits[slot].append(dt)
        tally.results[slot] = n
        tally.attempted += n
        failed = n if error is not None else workload.failures(item, out)
        if failed:
            print(f"# {failed} of {n} results failed: {workload.label(item)}"
                  + (f": {error!r}" if error is not None else ", off the reference"), file=sys.stderr)
        tally.failed += failed


def decile(values: list[float], q: int) -> float:
    """q-th decile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(workload, rng, seconds: float, setup_runs: int) -> tuple[dict, int, int]:
    setup_s = measure_setup(setup_runs)
    tally, start, cycles = Tally(), time.perf_counter(), 0
    # the workload's fixed number of whole cycles, so every commit does the
    # same work and every slot has as many visits; --seconds only cuts a run
    # short on a machine too slow to finish them
    for calls in workload.cycles(rng, workload.run_cycles):
        run_calls(workload, calls, tally)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    best = tally.slot_times()
    if workload.per_call_latency:
        # latency over every call, so a cost paid on only some calls stays visible
        samples = [(slot, t) for slot, v in tally.visits.items() for t in v]
    else:
        # a sweep row has no latency of its own: time per row of each slot's
        # fastest call, steady against the machine's drift as throughput is
        samples = list(best.items())
    per_result = [t / tally.results[slot] for slot, t in samples]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_pts_s": (sum(tally.results.values()) / sum(best.values()), "1/s"),
        "point_s.p50": (decile(per_result, 5), "s"),
        "point_s.p90": (decile(per_result, 9), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    beyond = sum(t > metrics["point_s.p90"][0] for t in per_result)
    print(f"# {workload.name}: {cycles} cycles of {len(best)} slots, {tally.attempted} results "
          f"in {tally.wall:.3f} s of calls, {elapsed:.3f} s in all; "
          f"{beyond} of {len(per_result)} latency samples beyond p90",
          file=sys.stderr)
    return metrics, tally.attempted, tally.failed


def traced(pkg, workload, rng) -> tuple[dict, int, int]:
    """Per-layer metrics from a fixed number of traced cycles.

    Each traced call is paired with a plain call of another variant of the
    same slot, taken from the next cycle; the two run back to back, in
    alternating order, so both see the same machine speed and no input
    repeats.  Counts come from the traced calls only.
    """
    tracer, plain, traced_ = Tracer(pkg), Tally(), Tally()
    cycles = workload.cycles(rng, 2 * workload.trace_cycles)
    for _ in range(workload.trace_cycles):
        calls, partners = next(cycles), dict(next(cycles))
        for k, (slot, item) in enumerate(calls):
            if k % 2:
                run_calls(workload, [(slot, partners[slot])], plain)
            tracer.install()
            try:
                run_calls(workload, [(slot, item)], traced_, tracer)
            finally:
                tracer.uninstall()
            if not k % 2:
                run_calls(workload, [(slot, partners[slot])], plain)
    attempted = plain.attempted + traced_.attempted
    failed = plain.failed + traced_.failed
    metrics = tracer.metrics()
    metrics.update({
        "src_lines": (common.src_lines(), "lines"),
        "trace.overhead_frac": (traced_.wall / plain.wall - 1.0, "ratio"),
        "trace.unattributed_frac": (1.0 - tracer.attributed_s() / traced_.wall, "ratio"),
        "fail_frac": (failed / attempted, "ratio"),
    })
    if tracer.absent:
        print(f"# absent layers: {', '.join(sorted(tracer.absent))}", file=sys.stderr)
    return metrics, attempted, failed


def environment(pkg) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "filmcasimir": pkg.__version__,
        "threads": {var: os.environ.get(var) for var in common.THREAD_VARS},
        "workers": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="filmcasimir benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap inputs and one set-up run, for the self-test")
    args = parser.parse_args(argv)

    pkg = common.import_package()
    workload = WORKLOADS[args.workload](pkg, tiny=args.tiny)
    rng = random.Random(args.seed)
    # the first call pays for lazily built quadrature nodes and library warm-up;
    # its input lies outside the pool, so it warms no later call's film
    workload.call(workload.warmup_item())
    if args.trace:
        metrics, attempted, failed = traced(pkg, workload, rng)
    else:
        metrics, attempted, failed = end_to_end(workload, rng, args.seconds,
                                                1 if args.tiny else SETUP_RUNS)

    print("# env " + json.dumps(environment(pkg), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
