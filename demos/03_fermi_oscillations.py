"""Trace the size oscillations of the Fermi level in a thin film.

Each time the film grows wide enough to bind one more subband the Fermi
level dips, producing a sawtooth in EF(D)/EF_bulk with period pi/kF. The
script sweeps the scaled width x = kF*D/pi with the library's EF_ratio
sweep, which writes one CSV per model, reads the rows back and plots the
curves when matplotlib is importable.
"""
import argparse
from pathlib import Path

import numpy as np

from filmcasimir.materials import material_table
from filmcasimir.sweep import SweepPlan, run

MODELS = ("FWM", "IWM")


def read_rows(path):
    """CSV rows (D, kF*D/pi, EF/EF_bulk, m0) as written by the sweep."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [(float(d), float(x), float(r), int(m0))
            for d, x, r, m0 in (ln.split(",") for ln in lines[1:])]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--material", default="Cs")
    ap.add_argument("--outdir", default="demo_out", type=Path)
    ap.add_argument("--points", default=220, type=int)
    args = ap.parse_args()

    mat = material_table()[args.material]
    x_grid = tuple(float(x) for x in np.linspace(0.6, 8.0, args.points))
    report = run(SweepPlan("EF_ratio", (mat,), MODELS, output_dir=str(args.outdir),
                           x_grid=x_grid, tag="fermi"))
    if report.failures:
        raise SystemExit("\n".join(report.failures))
    curves = {}
    for model, out in zip(MODELS, report.files):
        rows = curves[model] = read_rows(out)
        peak = max(r[2] for r in rows)
        print(f"{model}: peak EF/EF_bulk = {peak:.4f}, "
              f"{rows[-1][3]} subbands at x = {x_grid[-1]:.1f}  -> {out}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the figure")
        return
    fig, ax = plt.subplots(figsize=(5.2, 3.4))
    for model, rows in curves.items():
        ax.plot([r[1] for r in rows], [r[2] for r in rows], label=model)
    ax.axhline(1.0, color="k", lw=0.6)
    ax.set_xlabel(r"$k_F D/\pi$")
    ax.set_ylabel(r"$E_F/E_F^{\mathrm{bulk}}$")
    ax.set_title(f"{args.material} film")
    ax.legend()
    fig.tight_layout()
    png = args.outdir / f"fermi_ratio_{args.material}.png"
    fig.savefig(png, dpi=150)
    print(f"figure -> {png}")


if __name__ == "__main__":
    main()
