"""Command line front end: figure sweeps, single points, material tables.

Exit codes: 0 success, 1 numerical failure (inputs echoed to stderr),
2 usage errors such as unknown material, model or figure names, or the
quadpack engine asked for without scipy installed.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .estructure import CapacityError
from .dielectric import TensorBuildError
from .lifshitz import ForceConvergenceError, force_pair
from .materials import derive_bulk, material_table, well_depth
from .sweep import FIGURES, MODELS, figure_default_materials, figure_plan, run

_OUTDIR_ENV = "FILMCASIMIR_OUTDIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filmcasimir",
        description="Casimir pressure between size-quantized free-electron films",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="run a preset figure sweep and write CSV datasets")
    fig.add_argument("figure", metavar="FIG", help=f"one of {', '.join(FIGURES)}")
    fig.add_argument("--outdir", default=None,
                     help=f"output directory (default: ${_OUTDIR_ENV} or '.')")
    fig.add_argument("--materials", default=None,
                     help="comma separated material names overriding the preset set")
    fig.add_argument("--points", type=int, default=None, help="override the grid size")
    fig.add_argument("--tol", type=float, default=1e-7, help="relative force tolerance")
    fig.add_argument("--materials-config", default=None,
                     help="JSON file with extra material definitions")

    pt = sub.add_parser("point", help="one (material, model, D, ell) evaluation as a CSV row")
    pt.add_argument("--material", required=True)
    pt.add_argument("--model", required=True, help=f"one of {', '.join(MODELS)}")
    pt.add_argument("--D", type=float, required=True, help="film thickness, nm")
    pt.add_argument("--ell", type=float, required=True, help="vacuum gap, nm")
    pt.add_argument("--gamma", type=float, default=0.0, help="relaxation frequency, rad/s")
    pt.add_argument("--tol", type=float, default=1e-7)
    pt.add_argument("--engine", choices=("legendre", "quadpack"), default="legendre")
    pt.add_argument("--materials-config", default=None)

    mat = sub.add_parser("materials", help="list the known materials and derived bulk data")
    mat.add_argument("--materials-config", default=None)
    return parser


def _load_table(args):
    try:
        return material_table(args.materials_config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read materials config: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_materials(args) -> int:
    table = _load_table(args)
    print(f"{'name':<8}{'rs/a0':>8}{'W_eV':>8}{'kF_nm^-1':>10}{'EF_eV':>8}"
          f"{'OmegaP_rad_s':>14}{'V0_eV':>8}  gammas_rad_s")
    for name in sorted(table):
        m = table[name]
        bulk = derive_bulk(m)
        gammas = ",".join(f"{g:.3g}" for g in m.relaxation_frequencies) or "-"
        print(f"{name:<8}{m.rs_over_a0:>8.3f}{m.work_function:>8.3f}{bulk.kF_bulk:>10.4f}"
              f"{bulk.EF_bulk:>8.4f}{bulk.Omega_P:>14.5g}"
              f"{well_depth(m, bulk.EF_bulk):>8.4f}  {gammas}")
    return 0


def _cmd_point(args) -> int:
    table = _load_table(args)
    if args.material not in table:
        print(f"error: unknown material {args.material!r}; known: {', '.join(sorted(table))}",
              file=sys.stderr)
        return 2
    if args.model.upper() not in MODELS:
        print(f"error: unknown model {args.model!r}; known: {', '.join(MODELS)}", file=sys.stderr)
        return 2
    material = table[args.material]
    try:
        f_q, f_ref = force_pair(material, args.model.upper(), args.D, args.ell,
                                gamma=args.gamma, tol=args.tol, engine=args.engine)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ForceConvergenceError, CapacityError, TensorBuildError, ValueError) as exc:
        print(f"error: point failed for material={args.material} model={args.model} "
              f"D={args.D} ell={args.ell} gamma={args.gamma}: {exc}", file=sys.stderr)
        return 1
    delta = (f_ref.pressure - f_q.pressure) / f_ref.pressure
    print("# columns: material,model,D_nm,ell_nm,gamma_rad_s,"
          "F_quantized_Pa,F_reference_Pa,delta")
    print(f"{material.name},{args.model.upper()},{args.D!r},{args.ell!r},{args.gamma!r},"
          f"{f_q.pressure!r},{f_ref.pressure!r},{delta!r}")
    return 0


def _cmd_figure(args) -> int:
    table = _load_table(args)
    if args.figure not in FIGURES:
        print(f"error: unknown figure {args.figure!r}; known: {', '.join(FIGURES)}",
              file=sys.stderr)
        return 2
    names = (args.materials.split(",") if args.materials
             else figure_default_materials(args.figure))
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"error: unknown material(s) {', '.join(unknown)}; known: "
              f"{', '.join(sorted(table))}", file=sys.stderr)
        return 2
    outdir = args.outdir or os.environ.get(_OUTDIR_ENV, ".")
    try:
        plan = figure_plan(args.figure, tuple(table[n] for n in names), output_dir=outdir,
                           n_points=args.points, force_tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run(plan)
    for path in report.files:
        print(path)
    print(f"manifest: {report.manifest} ({report.wall_time_s:.1f} s)")
    if report.failures:
        for note in report.failures:
            print(f"failure: {note}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "materials":
        return _cmd_materials(args)
    if args.command == "point":
        return _cmd_point(args)
    return _cmd_figure(args)


if __name__ == "__main__":
    sys.exit(main())
