"""The three benchmark workloads: seeded inputs, public calls, reference checks.

Every input comes from a pool stored with its reference output in
``reference/<workload>.json`` (written by ``make_reference.py``).  The pool
is laid out on a fixed design of cells, each holding several variants.  A
cycle of a workload visits every cell once; the seed picks which variant
fills each cell, without replacement, and the order of the calls.  So the
inputs change with the seed, no input repeats within a run, and the cost of
a cycle stays nearly the same, which keeps the timings steady across seeds.
A run makes a fixed number of cycles, so every commit does the same work.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

from common import OUT_DIR, REFERENCE_DIR

FORCE_TOL = 1e-7          # force tolerance of every benchmark call (the CLI default)
REF_FORCE_TOL = 1e-8      # tolerance the stored references were computed with
PRESSURE_RTOL = 10 * FORCE_TOL
DELTA_ATOL = 2 * PRESSURE_RTOL
STATIC_RTOL = 1e-9        # EF ratio and eps_zz(0) come from root solves and sums, not quadrature

MODELS = ("FWM", "IWM", "PBM")
MATERIALS = ("Al", "Ag", "Cs")

# Inputs are drawn within a narrow factor of fixed log-spaced centers: the
# converged quadrature order, and with it the cost of a slot, then rarely
# changes between variants, so a slot's fastest visit is a steady estimate.

# points: a Latin design over (material, model) x D stratum x ell stratum
POINT_STRATA = 6           # 9 pairs x 6 strata = 54 cells
POINT_D = (1.0, 5.0)       # nm, log scale
POINT_ELL = (1.0, 100.0)   # nm, log scale
POINT_JITTER = 1.05        # variants drawn log-uniformly within this factor of the center
POINT_VARIANTS = 3
POINT_CYCLES = 2           # 108 calls, so more than ten fall beyond p90

# gap-sweep: fig5/fig8-shaped delta_D plans; each cycle is one call whose
# films serve one gap from every stratum of a log grid over 1-100 nm
GAP_MATERIAL = "Ag"
GAP_D = 5.0
GAP_GAMMAS = (0.0, 1e14)
GAP_ELL = (1.0, 100.0)     # nm, log scale
GAP_STRATA = 12
GAP_JITTER = 1.05          # each gap drawn log-uniformly within a factor 1.05 of its center
GAP_VARIANTS = 3
GAP_CYCLES = 1             # one call of 72 rows takes about 30 s

# width-scan: fig2/fig3-shaped EF_ratio and eps_zz0 plans
WIDTH_X = (0.5, 40.0)      # kF*D/pi, log scale
WIDTH_STRATA = 8
WIDTH_JITTER = 1.03
# two eps_zz0 calls per EF_ratio call keep the median call inside one cost cluster
WIDTH_CALLS = {"EF_ratio": 1, "eps_zz0": 2}   # calls per material and cycle
WIDTH_CYCLES = 40         # 40 visits a slot, so its fastest visit is steady


def log_centers(lo: float, hi: float, n: int) -> list[float]:
    """Geometric midpoints of n equal log strata of [lo, hi]."""
    return [lo * (hi / lo) ** ((i + 0.5) / n) for i in range(n)]


def log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def point_cells() -> list[dict]:
    """The 54 cells of the points design.

    Each (material, model) pair meets every D stratum and every ell stratum
    once, and sees gamma=0 and both preset relaxation rates twice each.
    """
    cells = []
    combos = [(m, mod) for m in MATERIALS for mod in MODELS]
    for c, (material, model) in enumerate(combos):
        for i in range(POINT_STRATA):
            j = (i + c) % POINT_STRATA
            cells.append({"material": material, "model": model, "D_stratum": i,
                          "ell_stratum": j, "gamma_index": (i + j) % 3})
    return cells


def without_replacement(rng, pools, n: int) -> list[list]:
    """Column c holds the c-th draw from every pool; no pool repeats a draw."""
    return [list(col) for col in zip(*(rng.sample(pool, n) for pool in pools))]


def close(got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


_META = re.compile(r"material=(\S+) model=(\S+)")


def group_key(quantity: str, material: str, model: str, gamma) -> str:
    return f"{quantity} {material} {model} {gamma}"


def read_sweep_rows(quantity: str, files) -> dict[str, dict[float, list[float]]]:
    """CSV rows of a sweep as {group key: {abscissa: values}}.

    The abscissa is the gap for delta_D and x = kF*D/pi otherwise; gamma is
    part of the key for delta_D only.
    """
    groups: dict[str, dict[float, list[float]]] = {}
    for path in files:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        material, model = next(m.groups() for m in map(_META.search, lines) if m)
        for line in [l for l in lines if not l.startswith("#")][1:]:
            v = [float(s) for s in line.split(",")]
            if quantity == "delta_D":   # D, ell, gamma, F_ref, F_q, delta
                key, x, vals = group_key(quantity, material, model, v[2]), v[1], v[3:6]
            else:                       # D, x, value, value
                key, x, vals = group_key(quantity, material, model, None), v[1], v[2:4]
            groups.setdefault(key, {})[x] = vals
    return groups


def rows_match(quantity: str, got: list[float], want: list[float]) -> bool:
    if quantity == "delta_D":
        return (close(got[0], want[0], PRESSURE_RTOL) and close(got[1], want[1], PRESSURE_RTOL)
                and close(got[2], want[2], atol=DELTA_ATOL))
    if quantity == "EF_ratio":
        return close(got[0], want[0], STATIC_RTOL) and got[1] == want[1]
    return close(got[0], want[0], STATIC_RTOL) and close(got[1], want[1], STATIC_RTOL)


class Points:
    """Independent ``force_pair`` calls, as ``filmcasimir point`` makes them."""

    name = "points"
    run_cycles = POINT_CYCLES
    per_call_latency = True
    trace_cycles = 1

    def __init__(self, pkg, tiny: bool = False):
        self.force_pair = pkg.force_pair
        self.materials = pkg.material_table()
        self.cells = load_reference(self.name)["cells"]
        if tiny:  # thinnest films at the widest gaps
            self.cells = [c for c in self.cells
                          if c["D_stratum"] == 0 and c["ell_stratum"] >= 4][:2]

    def warmup_item(self) -> dict:
        return {"material": "Al", "model": "FWM", "D": 1.0, "ell": 10.0, "gamma": 0.0}

    def cycles(self, rng, n: int):
        """n lists of (slot, input); a slot is a cell of the design."""
        for items in without_replacement(rng, [c["variants"] for c in self.cells], n):
            calls = list(enumerate(items))
            rng.shuffle(calls)
            yield calls

    def call(self, p: dict):
        return self.force_pair(self.materials[p["material"]], p["model"], p["D"], p["ell"],
                               p["gamma"], tol=FORCE_TOL)

    def results(self, p: dict) -> int:
        return 1

    def label(self, p: dict) -> str:
        return f"force_pair {p['material']} {p['model']} D={p['D']} ell={p['ell']} gamma={p['gamma']:g}"

    def failures(self, p: dict, out) -> int:
        f_q, f_ref = out
        ok = close(f_q.pressure, p["F_q"], PRESSURE_RTOL) and close(f_ref.pressure, p["F_ref"],
                                                                     PRESSURE_RTOL)
        return 0 if ok else 1


class _Sweep:
    """``sweep.run`` calls whose CSV rows are checked against stored rows."""

    trace_cycles = 1
    per_call_latency = False

    def __init__(self, pkg):
        self.sweep = pkg.sweep
        self.materials = pkg.material_table()
        ref = load_reference(self.name)
        self.grid = ref["grid"]
        self.expected = {key: {row[0]: row[1:] for row in rows}
                         for key, rows in ref["rows"].items()}
        self.out_dir = str(OUT_DIR / self.name)

    def call(self, plan):
        return self.sweep.run(plan)  # looked up at call time, so the tracer sees it

    def keys(self, plan) -> list[tuple[str, float]]:
        m = plan.materials[0].name
        if plan.quantity == "delta_D":
            return [(group_key(plan.quantity, m, mod, g), ell) for mod in plan.models
                    for g in plan.gammas for ell in plan.ell_grid]
        return [(group_key(plan.quantity, m, mod, None), x)
                for mod in plan.models for x in plan.x_grid]

    def results(self, plan) -> int:
        return len(self.keys(plan))

    def label(self, plan) -> str:
        grid = plan.ell_grid if plan.quantity == "delta_D" else plan.x_grid
        return f"sweep.run {plan.quantity} {plan.materials[0].name} {list(grid)}"

    def failures(self, plan, report) -> int:
        got = read_sweep_rows(plan.quantity, report.files)
        return sum(1 for key, x in self.keys(plan)
                   if x not in got.get(key, {})
                   or not rows_match(plan.quantity, got[key][x], self.expected[key][x]))


class GapSweep(_Sweep):
    """One film per model serving a grid of gaps and two relaxation rates."""

    name = "gap-sweep"
    run_cycles = GAP_CYCLES

    def __init__(self, pkg, tiny: bool = False):
        super().__init__(pkg)
        if tiny:  # the widest gap only
            self.grid = self.grid[-1:]

    def plan(self, ells):
        return self.sweep.SweepPlan(
            "delta_D", (self.materials[GAP_MATERIAL],), MODELS, output_dir=self.out_dir,
            D_grid=(GAP_D,), ell_grid=tuple(sorted(ells)), gammas=GAP_GAMMAS,
            force_tol=FORCE_TOL, tag="gap", workers=1)

    def warmup_item(self):
        return self.plan([100.0])

    def cycles(self, rng, n: int):
        """n lists of (slot, plan); the one slot takes a gap from every stratum."""
        for ells in without_replacement(rng, self.grid, n):
            yield [(0, self.plan(ells))]


class WidthScan(_Sweep):
    """Distinct films used once each, at xi = 0: no force quadrature at all."""

    name = "width-scan"
    run_cycles = WIDTH_CYCLES
    trace_cycles = 10

    def __init__(self, pkg, tiny: bool = False):
        super().__init__(pkg)
        self.slots = [(m, q) for m in MATERIALS for q, n in WIDTH_CALLS.items() for _ in range(n)]
        if tiny:  # one material, the two thinnest strata
            self.slots = [("Al", "EF_ratio"), ("Al", "eps_zz0")]
            self.grid = {m: {q: strata[:2] for q, strata in by_q.items()}
                         for m, by_q in self.grid.items()}

    def plan(self, material: str, quantity: str, xs):
        return self.sweep.SweepPlan(
            quantity, (self.materials[material],), MODELS, output_dir=self.out_dir,
            x_grid=tuple(sorted(xs)), tag="width", workers=1)

    def warmup_item(self):
        return self.plan("Al", "eps_zz0", [WIDTH_X[0]])

    def cycles(self, rng, n: int):
        """n lists of (slot, plan); a slot is one (material, quantity) call of the cycle."""
        draws = {(m, q): iter(without_replacement(rng, strata, len(strata[0])))
                 for m, by_q in self.grid.items() for q, strata in by_q.items()}
        for _ in range(n):
            calls = [(slot, self.plan(m, q, next(draws[m, q])))
                     for slot, (m, q) in enumerate(self.slots)]
            rng.shuffle(calls)
            yield calls


WORKLOADS = {w.name: w for w in (Points, GapSweep, WidthScan)}
