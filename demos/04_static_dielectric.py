"""Static out-of-plane response versus film width, all three models.

eps_zz(0) grows like D^2 once the film is a few Fermi wavelengths wide, so
the scaled quantity (eps_zz(0) - 1)/D^2 is the thing to watch: it rises
toward a plateau whose height the hard-wall models share, with the finite
well a little above them (spill-out softens the confinement). Subband
openings leave small cusps on the way up.
"""
import argparse
from pathlib import Path

import numpy as np

from filmcasimir.constants import E2_GAUSS, HBAR2_OVER_2ME as MU
from filmcasimir.dielectric import build_tensor, eps_zz, hard_wall_eps_zz0
from filmcasimir.estructure import film_state
from filmcasimir.materials import derive_bulk, material_table

MODELS = ("FWM", "IWM", "PBM")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--material", default="Al")
    ap.add_argument("--outdir", default="demo_out", type=Path)
    ap.add_argument("--points", default=48, type=int)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    mat = material_table()[args.material]
    bulk = derive_bulk(mat)
    x_grid = np.linspace(0.6, 24.0, args.points)

    scaled = {m: [] for m in MODELS}
    for x in x_grid:
        d = float(x) * np.pi / bulk.kF_bulk
        for model in MODELS:
            st = film_state(mat, model, d)
            # the hard walls have a closed form; the finite well needs its pole table
            e0 = eps_zz(build_tensor(st), 0.0) if model == "FWM" else hard_wall_eps_zz0(st)
            scaled[model].append((e0 - 1.0) / d**2)

    out = args.outdir / f"static_eps_{args.material}.csv"
    with open(out, "w") as fh:
        fh.write(f"# (eps_zz(0) - 1)/D^2 for a {args.material} film, D in nm\n")
        fh.write("kFD_over_pi," + ",".join(MODELS) + "\n")
        for i, x in enumerate(x_grid):
            fh.write(f"{float(x)!r}," + ",".join(f"{scaled[m][i]!r}" for m in MODELS) + "\n")

    # wide-film plateau of the hard-wall response: 16 e^2 kF (pi^4/96)/(pi^5 mu)
    plateau = 16.0 * E2_GAUSS * (np.pi**4 / 96.0) / (np.pi**5 * MU) * bulk.kF_bulk
    print(f"{args.material}: plateau estimate {plateau:.4f} nm^-2")
    for model in MODELS:
        v = scaled[model][-1]
        print(f"  {model}: {v:.4f} at x = {x_grid[-1]:.0f}  ({v / plateau:.3f} of plateau)")
    print(f"table -> {out}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(5.2, 3.4))
    for model in MODELS:
        ax.plot(x_grid, scaled[model], label=model)
    ax.axhline(plateau, color="k", lw=0.6, ls="--")
    ax.set_xlabel(r"$k_F D/\pi$")
    ax.set_ylabel(r"$(\epsilon_{zz}(0)-1)/D^2$ [nm$^{-2}$]")
    ax.set_title(f"{args.material} film")
    ax.legend()
    fig.tight_layout()
    png = args.outdir / f"static_eps_{args.material}.png"
    fig.savefig(png, dpi=150)
    print(f"figure -> {png}")


if __name__ == "__main__":
    main()
