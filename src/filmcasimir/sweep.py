"""Deterministic parameter sweeps producing the figure datasets as CSV.

A SweepPlan fixes one quantity and the grids; ``run`` writes one CSV per
(material, model, gamma) combination plus a plain-text manifest.  Rows are
computed in a fixed order, so re-running an identical plan reproduces the
CSV bodies byte for byte.  Point failures are recorded in the manifest and
the sweep continues.  For the force quantities the manifest also carries one
``optics=`` line per film (material, model, D): its pair count and the share
of the oscillator sum rule its pole table holds.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dielectric import build_tensor, eps_zz
from .estructure import ef_ratio, film_state
from .lifshitz import force, reference_slab
from .materials import Material, derive_bulk

QUANTITIES = ("EF_ratio", "eps_zz0", "delta_P", "delta_D")
MODELS = ("FWM", "IWM", "PBM")


@dataclass(frozen=True)
class SweepPlan:
    """One quantity swept over materials, confinement models and grids.

    For EF_ratio and eps_zz0 the abscissa is the dimensionless x = kF*D/pi
    (x_grid); the force quantities walk the product D_grid x ell_grid.
    gammas=None lets each material bring its own preset relaxation rates
    (plus gamma=0); an explicitly empty tuple is rejected for delta_D.
    """

    quantity: str
    materials: tuple[Material, ...]
    models: tuple[str, ...]
    output_dir: str = "."
    D_grid: tuple[float, ...] = ()
    ell_grid: tuple[float, ...] = ()
    x_grid: tuple[float, ...] = ()
    gammas: tuple[float, ...] | None = (0.0,)
    force_tol: float = 1e-7
    tag: str = ""
    # sweeps run in one process; the field goes once the benchmark stops passing workers=1
    workers: int = 1

    def validate(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}, expected one of {QUANTITIES}")
        if not self.materials:
            raise ValueError("plan needs at least one material")
        for model in self.models or ():
            if model not in MODELS:
                raise ValueError(f"unknown confinement model {model!r}, expected one of {MODELS}")
        if not self.models:
            raise ValueError("plan needs at least one confinement model")
        if self.quantity in ("EF_ratio", "eps_zz0"):
            _check_grid("x_grid", self.x_grid)
        else:
            _check_grid("D_grid", self.D_grid)
            _check_grid("ell_grid", self.ell_grid)
        if self.quantity == "delta_D":
            if self.gammas is not None and len(self.gammas) == 0:
                raise ValueError("delta_D needs a non-empty gamma set (or None for presets)")
        if self.gammas is not None and not all(0.0 <= g < math.inf for g in self.gammas):
            raise ValueError("relaxation frequencies must be finite and >= 0")
        if not 0.0 < self.force_tol < math.inf:
            raise ValueError("force_tol must be positive and finite")
        if self.workers != 1:
            raise ValueError(f"sweeps run in one process, got workers={self.workers}")
        written: dict[str, str] = {}  # file name -> the group that writes it
        for m, model in itertools.product(self.materials, self.models):
            for g in _resolved_gammas(self, m):
                key, group = _group_key(self, m, model, g), f"{m.name} {model}"
                group += f" gamma={g!r}" if self.quantity == "delta_D" else ""
                if key in written:
                    raise ValueError(f"{written[key]} and {group} would both write {key}.csv")
                written[key] = group


def _check_grid(name: str, grid: tuple[float, ...]) -> None:
    if not grid:
        raise ValueError(f"{name} must not be empty for this quantity")
    arr = np.asarray(grid, dtype=float)
    if not (np.all((0.0 < arr) & (arr < math.inf)) and np.all(np.diff(arr) > 0.0)):
        raise ValueError(f"{name} must be positive, finite and strictly increasing")


@dataclass(frozen=True)
class RunReport:
    files: tuple[Path, ...]
    failures: tuple[str, ...]
    wall_time_s: float
    manifest: Path


def _resolved_gammas(plan: SweepPlan, material: Material) -> tuple[float, ...]:
    if plan.quantity != "delta_D":
        return (0.0,)
    if plan.gammas is not None:
        return plan.gammas
    return (0.0,) + material.relaxation_frequencies


def _group_key(plan: SweepPlan, material: Material, model: str, gamma: float) -> str:
    parts = [plan.tag, plan.quantity] if plan.tag else [plan.quantity]
    parts += [material.name, model]
    if plan.quantity == "delta_D":
        parts.append(f"gamma{gamma:.6g}")
    return "_".join(parts)


def _film_rows(plan: SweepPlan, material: Material, model: str, failures: list[str]):
    """EF_ratio or eps_zz0 rows of one model, one film per x."""
    rows: list[tuple] = []
    bulk = derive_bulk(material)
    for x in plan.x_grid:
        d_film = x * math.pi / bulk.kF_bulk
        try:
            state = film_state(material, model, d_film)
            if plan.quantity == "EF_ratio":
                rows.append((d_film, x, ef_ratio(state, bulk), state.m0))
            else:
                e0 = eps_zz(build_tensor(state), 0.0)
                rows.append((d_film, x, e0, e0 / d_film**2))
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            failures.append(f"{material.name} {model} D={d_film!r}: {exc}")
    return rows


def _reduction_rows(plan: SweepPlan, material: Material, failures: list[str],
                    optics: list[str]) -> dict[tuple[str, float], list[tuple]]:
    """delta rows of one material by (model, gamma), D outer and ell inner.

    Each film is built once and reaches every gamma by ``with_gamma``; each
    reference force is computed once per (D, gamma, ell) for all models.
    """
    gammas = _resolved_gammas(plan, material)
    rows = {(model, gamma): [] for model in plan.models for gamma in gammas}
    for d_film in plan.D_grid:
        refs: dict[tuple[float, float], object] = {}  # a ForceResult or the exception
        for gamma, ell in itertools.product(gammas, plan.ell_grid):
            try:
                slab_ref = reference_slab(material, d_film, gamma)
                refs[gamma, ell] = force(slab_ref, ell, tol=plan.force_tol)
            except Exception as exc:  # noqa: BLE001 - noted once per model below
                refs[gamma, ell] = exc
        for model in plan.models:
            film = f"{material.name} {model} D={d_film!r}"
            try:
                tensor = build_tensor(film_state(material, model, d_film))
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{film}: {exc}")
                continue
            optics.append(f"{film} pairs={tensor.de.size} "
                          f"sum_rule_completeness={tensor.sum_rule_completeness:.6g}")
            for gamma, ell in itertools.product(gammas, plan.ell_grid):
                try:
                    f_q = force(tensor.with_gamma(gamma), ell, tol=plan.force_tol)
                    f_ref = refs[gamma, ell]
                    if isinstance(f_ref, Exception):
                        raise f_ref
                    rows[model, gamma].append((d_film, ell, gamma, f_ref.pressure, f_q.pressure,
                                               (f_ref.pressure - f_q.pressure) / f_ref.pressure))
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{film} ell={ell!r} gamma={gamma!r}: {exc}")
    return rows


_DELTA_HEADER = "D_nm,ell_nm,gamma_rad_s,F_reference_Pa,F_quantized_Pa,delta"
_HEADERS = {
    "EF_ratio": ("D_nm,kFD_over_pi,EF_over_EFB,m0",
                 "Fermi level over its bulk value, from the well bottom"),
    "eps_zz0": ("D_nm,kFD_over_pi,eps_zz0,eps_zz0_over_D2",
                "static out-of-plane permittivity"),
    "delta_P": (_DELTA_HEADER, "relative force reduction, dissipationless response"),
    "delta_D": (_DELTA_HEADER, "relative force reduction with Drude relaxation"),
}


def _write_group_csv(path: Path, plan: SweepPlan, material: Material, model: str,
                     gamma: float, rows) -> None:
    header, title = _HEADERS[plan.quantity]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {title}\n")
        fh.write(f"# filmcasimir {__version__}; material={material.name} model={model}")
        if plan.quantity == "delta_D":
            fh.write(f" gamma={float(gamma)!r} rad/s")
        fh.write("\n")
        fh.write(f"# force_tol={plan.force_tol!r}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def run(plan: SweepPlan) -> RunReport:
    """Execute the plan in this process; returns the written files and recorded failures."""
    plan.validate()
    t0 = time.perf_counter()
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    files: list[Path] = []
    failures: list[str] = []
    optics: list[str] = []
    for material in plan.materials:
        groups = ({(model, 0.0): _film_rows(plan, material, model, failures)
                   for model in plan.models} if plan.quantity in ("EF_ratio", "eps_zz0")
                  else _reduction_rows(plan, material, failures, optics))
        for (model, gamma), rows in groups.items():
            path = out / f"{_group_key(plan, material, model, gamma)}.csv"
            _write_group_csv(path, plan, material, model, gamma, rows)
            files.append(path)

    wall = time.perf_counter() - t0
    manifest = out / f"{plan.tag or plan.quantity}_manifest.txt"
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"library_version={__version__}\n")
        fh.write(f"quantity={plan.quantity}\n")
        fh.write(f"materials={','.join(m.name for m in plan.materials)}\n")
        fh.write(f"models={','.join(plan.models)}\n")
        fh.write(f"D_grid={','.join(repr(float(v)) for v in plan.D_grid)}\n")
        fh.write(f"ell_grid={','.join(repr(float(v)) for v in plan.ell_grid)}\n")
        fh.write(f"x_grid={','.join(repr(float(v)) for v in plan.x_grid)}\n")
        gam = "presets" if plan.gammas is None else ",".join(repr(float(v)) for v in plan.gammas)
        fh.write(f"gammas={gam}\n")
        fh.write(f"force_tol={plan.force_tol!r}\n")
        fh.write(f"files={len(files)}\n")
        fh.write(f"failures={len(failures)}\n")
        fh.write(f"wall_time_s={wall:.3f}\n")
        for note in optics:
            fh.write(f"optics={note}\n")
        for note in failures:
            fh.write(f"failure={note}\n")

    return RunReport(files=tuple(files), failures=tuple(failures), wall_time_s=wall,
                     manifest=manifest)


def _logspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(lo, hi, n))


FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")

# the relaxation figures 8 and 9 are published for silver only
_FIGURE_MATERIALS = {"fig8": ("Ag",), "fig9": ("Ag",)}


def figure_default_materials(figure: str) -> tuple[str, ...]:
    return _FIGURE_MATERIALS.get(figure, ("Al", "Ag", "Cs"))


def figure_plan(figure: str, materials: tuple[Material, ...] | None = None,
                output_dir: str = ".", n_points: int | None = None,
                **overrides) -> SweepPlan:
    """Preset plan for one of the published-figure datasets (fig2..fig9)."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}, expected one of {FIGURES}")
    if n_points is not None and n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if materials is None:
        from .materials import PRESETS

        materials = tuple(PRESETS[name] for name in figure_default_materials(figure))
    pts = lambda default: n_points or default

    if figure == "fig2":
        plan = SweepPlan("EF_ratio", materials, ("FWM", "IWM"),
                         x_grid=_logspace(0.5, 12.0, pts(80)))
    elif figure == "fig3":
        plan = SweepPlan("eps_zz0", materials, ("FWM", "IWM", "PBM"),
                         x_grid=_logspace(0.5, 40.0, pts(56)))
    elif figure in ("fig4", "fig5"):
        d_film = 1.0 if figure == "fig4" else 5.0
        plan = SweepPlan("delta_P", materials, ("FWM", "IWM", "PBM"),
                         D_grid=(d_film,), ell_grid=_logspace(1.0, 100.0, pts(60)))
    elif figure in ("fig6", "fig7"):
        d_film = 1.0 if figure == "fig6" else 5.0
        plan = SweepPlan("delta_D", materials, ("FWM",), gammas=None,
                         D_grid=(d_film,), ell_grid=_logspace(1.0, 100.0, pts(60)))
    elif figure == "fig8":
        plan = SweepPlan("delta_D", materials, ("FWM", "IWM", "PBM"), gammas=(1e14,),
                         D_grid=(5.0,), ell_grid=_logspace(1.0, 100.0, pts(60)))
    else:  # fig9
        plan = SweepPlan("delta_D", materials, ("FWM",), gammas=None,
                         D_grid=_logspace(1.0, 50.0, pts(40)), ell_grid=(5.0,))
    plan = replace(plan, output_dir=output_dir, tag=figure, **overrides)
    plan.validate()
    return plan
