"""Spans and exact counts around the package's layers, from outside the package.

Each wrapper replaces a public function where its caller looks it up (a
module global or a class attribute), so the package itself is unchanged.
Spans stay in memory; a span's self time is its duration minus the
durations of its direct children.  A name a later version no longer has is
reported as an absent layer, with zero calls, instead of failing the run.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from pathlib import Path

# (module or class, attribute, layer): every place a layer is looked up
TARGETS = (
    ("sweep", "run", "sweep.run"),
    ("sweep", "film_state", "estructure.film_state"),
    ("lifshitz", "film_state", "estructure.film_state"),
    ("estructure", "solve_spectrum", "qwell.solve_spectrum"),
    ("qwell.WellSpectrum", "extended", "qwell.extended"),
    ("sweep", "build_tensor", "dielectric.build_tensor"),
    ("lifshitz", "build_tensor", "dielectric.build_tensor"),
    ("sweep", "eps_zz", "dielectric.eps_zz"),
    ("lifshitz", "eps_zz", "dielectric.eps_zz"),
    ("sweep", "force", "lifshitz.force"),
    ("lifshitz", "force", "lifshitz.force"),
)

LAYER_COUNTS = {
    "qwell.solve_spectrum": (),
    "qwell.extended": (),
    "estructure.film_state": ("repeat_calls",),
    "dielectric.build_tensor": ("pairs", "repeat_calls"),
    "dielectric.eps_zz": ("points", "pair_evals"),
    "lifshitz.force": ("evaluations", "repeat_calls", "failures"),
    "sweep.run": ("rows",),
}

ROOT_SPAN = "bench.call"


def _resolve(pkg, dotted: str):
    obj = pkg
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _csv_rows(path) -> int:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return max(0, sum(1 for line in lines if not line.startswith("#")) - 1)  # minus the header


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []   # [layer, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.absent: set[str] = set()
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self.useful_evals = 0
        self.rel_err_est_max = 0.0
        orders = getattr(getattr(pkg, "lifshitz", None), "_ORDERS", ())
        # legendre evaluations are the sum of n^2 over the orders tried
        self._final_order = {sum(m * m for m in orders[:k + 1]): n for k, n in enumerate(orders)}
        self._after = {
            "sweep.run": self._after_run,
            "estructure.film_state": self._after_film_state,
            "qwell.solve_spectrum": self._after_solve,
            "qwell.extended": self._after_extended,
            "dielectric.build_tensor": self._after_build,
            "dielectric.eps_zz": self._after_eps_zz,
            "lifshitz.force": self._after_force,
        }

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for owner_name, attr, layer in TARGETS:
            try:
                owner = _resolve(self.pkg, owner_name)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.add(layer)
                continue
            setattr(owner, attr, self._wrap(layer, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, fn):
        after = self._after[layer]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.close(idx)
                self.counts[f"{layer}.failures"] += 1
                raise
            self.close(idx)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(bound.arguments, out)
            return out

        return wrapper

    # -- spans -------------------------------------------------------------
    def open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += end - start - inner
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    # -- exact counts, taken after each call and outside its span ---------
    def _repeat(self, layer: str, key) -> None:
        if key in self._seen[layer]:
            self.counts[f"{layer}.repeat_calls"] += 1
        self._seen[layer].add(key)

    def _after_run(self, a, report) -> None:
        self.counts["sweep.run.rows"] += sum(_csv_rows(p) for p in report.files)

    def _after_film_state(self, a, state) -> None:
        self._repeat("estructure.film_state", tuple(a.values()))

    def _after_solve(self, a, spectrum) -> None:
        self.counts["qwell.levels"] += spectrum.n_levels

    def _after_extended(self, a, spectrum) -> None:
        if spectrum is not a["self"]:
            self.counts["qwell.levels"] += spectrum.n_levels

    def _after_build(self, a, tensor) -> None:
        self.counts["dielectric.build_tensor.pairs"] += tensor.de.size
        # the pairs do not depend on gamma, so a rebuild for another gamma is a repeat
        self._repeat("dielectric.build_tensor", (tensor.de.size, tensor.osc_weight, tensor.hw_p2,
                                                 tensor.d_norm, a.get("omega_P_mode")))

    def _after_eps_zz(self, a, out) -> None:
        points = getattr(out, "size", 1)
        self.counts["dielectric.eps_zz.points"] += points
        self.counts["dielectric.eps_zz.pair_evals"] += points * a["tensor"].de.size

    def _after_force(self, a, result) -> None:
        self.counts["lifshitz.force.evaluations"] += result.evaluations
        order = getattr(result, "order", None) or self._final_order.get(result.evaluations, 0)
        self.useful_evals += order * order
        if result.pressure:
            self.rel_err_est_max = max(self.rel_err_est_max,
                                       result.abs_error_estimate / abs(result.pressure))
        # equal inputs give bit-identical results, so the result identifies the slab
        self._repeat("lifshitz.force", (a["ell"], a["tol"], a["engine"], result.pressure,
                                        result.evaluations))

    # -- report ------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); absent layers read 0."""
        self_s, calls = self.self_times(), self.calls()
        out: dict[str, tuple[float, str]] = {}
        for layer, names in LAYER_COUNTS.items():
            out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
            out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
            for name in names:
                out[f"{layer}.{name}"] = (self.counts.get(f"{layer}.{name}", 0), "count")
        out["qwell.levels"] = (self.counts.get("qwell.levels", 0), "count")
        evals = self.counts.get("lifshitz.force.evaluations", 0)
        out["lifshitz.force.useful_eval_ratio"] = (self.useful_evals / evals if evals else 0.0,
                                                   "ratio")
        out["lifshitz.force.rel_err_est_max"] = (self.rel_err_est_max, "ratio")
        return out

    def attributed_s(self) -> float:
        """Self time of the package layers, excluding the benchmark's own root spans."""
        return sum(t for layer, t in self.self_times().items() if layer != ROOT_SPAN)
