"""Draw the benchmark's input pools and store their reference outputs.

    python3 bench/make_reference.py

Forces are computed at REF_FORCE_TOL, ten times tighter than the
benchmark's FORCE_TOL, with the legendre engine, or with the quadpack engine
where legendre cannot reach that tolerance.  One variant of every points
cell and one gap-sweep row from every gap stratum are cross-checked against
quadpack.  The pools are drawn from a fixed seed, so rerunning this script
at an unchanged commit rewrites identical files.  Rerun it only when the
physics is meant to change.
"""
from __future__ import annotations

import json
import random
import time

import common

common.pin_threads()

from workloads import (FORCE_TOL, GAP_D, GAP_ELL, GAP_GAMMAS, GAP_JITTER,  # noqa: E402
                       GAP_MATERIAL, GAP_STRATA, GAP_VARIANTS, MATERIALS, MODELS, POINT_D,
                       POINT_ELL, POINT_JITTER, POINT_STRATA, POINT_VARIANTS, REF_FORCE_TOL,
                       WIDTH_CALLS, WIDTH_CYCLES, WIDTH_JITTER, WIDTH_STRATA, WIDTH_X, close,
                       group_key, log_centers, log_uniform, point_cells, read_sweep_rows)

POOL_SEED = 905_1477
QUADPACK_TOL = 1e-8


def _sig(x: float) -> float:
    return float(f"{x:.5g}")


def _distinct(rng, lo: float, hi: float, n: int, taken: set) -> list[float]:
    """n log-uniform values in [lo, hi], rounded, none equal to another or to ``taken``."""
    out = []
    while len(out) < n:
        x = _sig(log_uniform(rng, lo, hi))
        if x not in taken:
            taken.add(x)
            out.append(x)
    return sorted(out)


def make_points(pkg, rng) -> dict:
    mats = pkg.material_table()
    d_centers = log_centers(*POINT_D, POINT_STRATA)
    l_centers = log_centers(*POINT_ELL, POINT_STRATA)
    cells = point_cells()
    for k, cell in enumerate(cells, 1):
        material = mats[cell["material"]]
        gamma = ((0.0,) + material.relaxation_frequencies)[cell["gamma_index"]]
        i, j = cell["D_stratum"], cell["ell_stratum"]
        d, ell = d_centers[i], l_centers[j]
        cell["variants"] = []
        for _ in range(POINT_VARIANTS):
            p = {"material": material.name, "model": cell["model"],
                 "D": _sig(log_uniform(rng, d / POINT_JITTER, d * POINT_JITTER)),
                 "ell": _sig(log_uniform(rng, ell / POINT_JITTER, ell * POINT_JITTER)),
                 "gamma": gamma}
            try:
                engine = "legendre"
                f_q, f_ref = pkg.force_pair(material, p["model"], p["D"], p["ell"], gamma,
                                            tol=REF_FORCE_TOL)
            except pkg.ForceConvergenceError:
                # legendre tops out at order 1024 for a few small gaps
                engine = "quadpack"
                f_q, f_ref = pkg.force_pair(material, p["model"], p["D"], p["ell"], gamma,
                                            tol=REF_FORCE_TOL, engine=engine)
            p.update(F_q=f_q.pressure, F_ref=f_ref.pressure, ref_engine=engine)
            cell["variants"].append(p)
        print(f"points cell {k}/{len(cells)}", flush=True)

    # one variant of every cell: every (material, model) pair at every D and gap stratum
    crosscheck = []
    for k, cell in enumerate(cells):
        p = cell["variants"][k % POINT_VARIANTS]
        if p["ref_engine"] == "legendre":  # a quadpack reference needs no second look
            crosscheck.append(_crosscheck(pkg, p))
    return {"ref_force_tol": REF_FORCE_TOL, "cells": cells,
            "quadpack_tol": QUADPACK_TOL, "crosscheck": crosscheck}


def _crosscheck(pkg, p: dict) -> dict:
    """The reference pressures of p recomputed with the quadpack engine, or exit."""
    f_q, f_ref = pkg.force_pair(pkg.material_table()[p["material"]], p["model"], p["D"],
                                p["ell"], p["gamma"], tol=QUADPACK_TOL, engine="quadpack")
    for got, want in ((f_q.pressure, p["F_q"]), (f_ref.pressure, p["F_ref"])):
        if not close(got, want, 10 * QUADPACK_TOL):
            raise SystemExit(f"quadpack disagrees with the reference at {p}: {got} vs {want}")
    print(f"crosscheck {p['material']} {p['model']} D={p['D']} ell={p['ell']}: ok", flush=True)
    return {**p, "quadpack_F_q": f_q.pressure, "quadpack_F_ref": f_ref.pressure}


def _sweep_rows(pkg, plan) -> dict[str, list[list[float]]]:
    report = pkg.sweep.run(plan)
    if report.failures:
        raise SystemExit(f"reference sweep failed: {report.failures}")
    return {key: [[x, *vals] for x, vals in sorted(rows.items())]
            for key, rows in read_sweep_rows(plan.quantity, report.files).items()}


def _gap_cost(pkg, ell: float) -> list[int]:
    """Force evaluations of every row of one gap at the benchmark's tolerance."""
    material = pkg.material_table()[GAP_MATERIAL]
    return [f.evaluations for model in MODELS for gamma in GAP_GAMMAS
            for f in pkg.force_pair(material, model, GAP_D, ell, gamma, tol=FORCE_TOL)]


def make_gap(pkg, rng) -> dict:
    taken: set = set()
    grid = []
    for c in log_centers(*GAP_ELL, GAP_STRATA):
        # a gap whose quadrature converges at another order than the center's
        # changes the call's cost by several percent; redraw it, so that the
        # seed changes the gaps but not the work
        want, variants = _gap_cost(pkg, c), []
        while len(variants) < GAP_VARIANTS:
            ell = _distinct(rng, c / GAP_JITTER, c * GAP_JITTER, 1, taken)[0]
            if _gap_cost(pkg, ell) == want:
                variants.append(ell)
        grid.append(sorted(variants))
        print(f"gap stratum {len(grid)}/{GAP_STRATA}", flush=True)
    plan = pkg.sweep.SweepPlan(
        "delta_D", (pkg.material_table()[GAP_MATERIAL],), MODELS,
        output_dir=str(common.OUT_DIR / "reference"), D_grid=(GAP_D,),
        ell_grid=tuple(sorted(x for v in grid for x in v)), gammas=GAP_GAMMAS,
        force_tol=REF_FORCE_TOL, tag="ref")
    rows = _sweep_rows(pkg, plan)
    # one row from every gap stratum, models and relaxation rates taken in turn
    crosscheck = []
    for s, variants in enumerate(grid):
        model, gamma = MODELS[s % len(MODELS)], GAP_GAMMAS[s // len(MODELS) % len(GAP_GAMMAS)]
        ell = variants[s % GAP_VARIANTS]
        row = dict((r[0], r[1:]) for r in rows[group_key("delta_D", GAP_MATERIAL, model, gamma)])
        f_ref, f_q = row[ell][:2]
        p = {"material": GAP_MATERIAL, "model": model, "D": GAP_D, "ell": ell, "gamma": gamma,
             "F_q": f_q, "F_ref": f_ref}
        crosscheck.append(_crosscheck(pkg, p))
    return {"ref_force_tol": REF_FORCE_TOL, "grid": grid, "rows": rows,
            "quadpack_tol": QUADPACK_TOL, "crosscheck": crosscheck}


def make_width(pkg, rng) -> dict:
    centers = log_centers(*WIDTH_X, WIDTH_STRATA)
    mats = pkg.material_table()
    grid, rows = {}, {}
    for name in MATERIALS:
        taken: set = set()
        grid[name] = {}
        for quantity, calls in WIDTH_CALLS.items():
            strata = [_distinct(rng, c / WIDTH_JITTER, c * WIDTH_JITTER, calls * WIDTH_CYCLES,
                                taken) for c in centers]
            grid[name][quantity] = strata
            plan = pkg.sweep.SweepPlan(quantity, (mats[name],), MODELS, tag="ref",
                                       x_grid=tuple(sorted(x for v in strata for x in v)),
                                       output_dir=str(common.OUT_DIR / "reference"))
            rows.update(_sweep_rows(pkg, plan))
    return {"grid": grid, "rows": rows}


def _dumps(data: dict) -> str:
    """JSON with one list element per line, so a changed reference diffs by row."""
    def value(v):
        if isinstance(v, list):
            return "[\n" + ",\n".join("  " + json.dumps(x) for x in v) + "\n ]"
        if isinstance(v, dict) and all(isinstance(x, list) for x in v.values()):
            return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(x)}"
                                        for k, x in v.items()) + "\n }"
        return json.dumps(v)
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {value(v)}" for k, v in data.items()) + "\n}\n"


MAKERS = {"points": make_points, "gap-sweep": make_gap, "width-scan": make_width}


def main() -> None:
    pkg = common.import_package()
    common.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(MAKERS):
        # one generator per workload, so a change to one pool's design
        # leaves the draws of the others as they were
        rng = random.Random(f"{POOL_SEED}-{name}")
        t0 = time.perf_counter()
        data = {"workload": name, "benchmark_force_tol": FORCE_TOL, **MAKERS[name](pkg, rng)}
        path = common.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_dumps(data))
        print(f"{path.name}: {time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main()
