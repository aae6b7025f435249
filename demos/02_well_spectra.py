"""Compare the bound-state ladders of the three confinement models.

For a thin Cs film the finite well holds only a handful of levels below the
vacuum edge, the infinite well pushes everything up, and the enlarged box
lands in between because its wider effective width compensates the hard
walls. Energies are printed from the well bottom.
"""
import argparse

from filmcasimir.estructure import film_state
from filmcasimir.materials import material_table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--material", default="Cs")
    ap.add_argument("--thickness", type=float, default=2.0, help="film width in nm")
    args = ap.parse_args()

    mat = material_table()[args.material]
    states = {model: film_state(mat, model, args.thickness) for model in ("FWM", "IWM", "PBM")}

    n_show = max(st.m0 for st in states.values()) + 2
    print(f"{args.material} film, D = {args.thickness} nm "
          f"(PBM box width {states['PBM'].spectrum.box_width:.4f} nm)\n")
    print(f"{'n':>3}" + "".join(f"{m:>12}" for m in states))
    for n in range(n_show):
        row = f"{n + 1:>3}"
        for st in states.values():
            e = st.spectrum.well_bottom_energies
            row += f"{e[n]:>12.4f}" if n < len(e) else f"{'-':>12}"
        print(row)

    print(f"\n{'':>3}" + "".join(f"{m:>12}" for m in states))
    print("EF " + "".join(f"{st.ef_well_bottom:>12.4f}" for st in states.values()))
    print("m0 " + "".join(f"{st.m0:>12d}" for st in states.values()))


if __name__ == "__main__":
    main()
