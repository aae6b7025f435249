"""Film electronic structure: subband filling, Fermi level, density profiles.

A film state is its spectrum, its Fermi level E_F and its number m0 of
filled subbands; E_F and the level energies E_n are measured from the well
bottom.  Each subband n contributes an areal electron density
w_n = (E_F - E_n) / (2 pi mu), mu = hbar^2/2m; filling is fixed by charge
neutrality against the ion slab, integral n dz = n0 * D.  Both the Fermi
level of a given spectrum (fermi_level) and the enlarged box width at the
bulk Fermi level (pbm_box_width) are closed forms on each branch of m0
filled subbands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR2_OVER_2ME as MU
from .materials import BulkReference, derive_bulk, well_depth
from .qwell import FiniteWell, InfiniteWell, ParticleInBox, WellSpectrum, solve_spectrum

TWO_PI_MU = 2.0 * math.pi * MU  # eV nm^2
_BOX_BRANCHES = 64  # filled-level counts tried by pbm_box_width above floor(D kF/pi)


class CapacityError(RuntimeError):
    """The bound spectrum cannot hold the required electron number."""


@dataclass(frozen=True)
class FilmElectronicState:
    """Occupied spectrum of one film: its Fermi level and m0 filled subbands.

    Everything else is derived: the subband weights, their sum n0*D and the
    mean density sum(w)/spectrum.box_width.
    """

    spectrum: WellSpectrum
    ef_well_bottom: float     # eV, Fermi level measured from the well bottom
    m0: int                   # number of occupied subbands

    @property
    def subband_weights(self) -> np.ndarray:
        """Areal densities w_n of the occupied subbands (nm^-2)."""
        e = self.spectrum.well_bottom_energies[: self.m0]
        return (self.ef_well_bottom - e) / TWO_PI_MU


def fermi_level(spectrum: WellSpectrum, n0: float) -> FilmElectronicState:
    """Fill the spectrum with n0*D electrons per unit area (aufbau).

    For each candidate count m the neutrality condition has the closed form
    EF_m = (2 pi mu n0 D + sum_{n<=m} E_n) / m; the first m whose EF_m does not
    reach level m+1 is m0.  A hard-wall ladder of width L with m0 filled levels
    has 2 pi mu n0 D > a (m0^3 - S2(m0)), a = mu pi^2/L^2, which is
    4 X^3 > 4 m0^3 - 3 m0^2 - m0 with X = kF (D L^2)^(1/3)/pi, so m0 < X + 1:
    the ladder is extended once, to ceil(X) + 2 levels.
    """
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"ion density must be positive and finite, got {n0}")
    target = n0 * spectrum.D  # nm^-2
    kf = (3.0 * math.pi**2 * n0) ** (1.0 / 3.0)
    x = kf * (spectrum.D * spectrum.box_width**2) ** (1.0 / 3.0) / math.pi
    spectrum = spectrum.extended(math.ceil(x) + 2)

    e = spectrum.well_bottom_energies
    ef = (TWO_PI_MU * target + np.cumsum(e)) / np.arange(1, e.size + 1)
    stops = np.flatnonzero(ef[:-1] <= e[1:])  # EF_m does not reach level m+1
    m0 = int(stops[0]) + 1 if stops.size else e.size  # else: the finite well's levels ran out
    ef_m0 = float(ef[m0 - 1])

    if isinstance(spectrum.model, FiniteWell) and m0 == spectrum.n_levels and ef_m0 > spectrum.model.v0:
        raise CapacityError(
            f"bound spectrum of the {spectrum.D} nm finite well (V0={spectrum.model.v0} eV, "
            f"{spectrum.n_levels} levels) cannot hold {target} electrons/nm^2: "
            f"EF={ef_m0:.6g} eV from the well bottom exceeds the well depth"
        )
    return FilmElectronicState(spectrum=spectrum, ef_well_bottom=ef_m0, m0=m0)


def pbm_box_width(bulk: BulkReference, D: float) -> FilmElectronicState:
    """Enlarged-box state: find d >= D so that filling the d-wide hard-wall
    box up to the bulk Fermi level reproduces n0*D electrons per unit area.

    With N levels below EF, neutrality reads N EF - mu pi^2 S2(N)/d^2 =
    2 pi mu n0 D, S2(N) = N(N+1)(2N+1)/6, so each branch N has a closed-form
    root d_N.  At any d the occupation is the largest of these branch
    functions (a level above EF would add a negative term, a level below it a
    positive one), so its root is the smallest d_N: the first N >=
    floor(D kF/pi) whose d_N lies below the next threshold (N+1) pi/kF.
    d = D when the D-wide box already holds enough electrons.
    """
    if not 0.0 < D < math.inf:
        raise ValueError(f"film thickness must be positive and finite, got {D}")
    target = bulk.n0 * D
    ef = bulk.EF_bulk
    kf = math.sqrt(ef / MU)

    # a free-electron bulk stops at the first or second branch tried
    n_lo = max(int(math.floor(D * kf / math.pi)), 1)
    for n in range(n_lo, n_lo + _BOX_BRANCHES):
        excess = n * ef - TWO_PI_MU * target
        if excess > 0.0:
            d = math.pi * math.sqrt(MU * (n * (n + 1) * (2 * n + 1) // 6) / excess)
            if d < (n + 1) * math.pi / kf:
                break
    else:
        raise CapacityError(f"no box width d >= D found within {_BOX_BRANCHES} levels "
                            f"of the D={D} nm box")
    d = max(d, D)

    m0 = int(math.floor(d * kf / math.pi))
    spectrum = solve_spectrum(ParticleInBox(d), D, n_levels=max(2 * m0, 16))
    state = FilmElectronicState(spectrum, ef, m0)
    residual = float(np.sum(state.subband_weights)) - target
    if abs(residual) > 1e-9 * target:
        raise CapacityError(f"box width solve left a neutrality residual of {residual:g} nm^-2")
    return state


def film_state(material, model_name: str, D: float) -> FilmElectronicState:
    """Assemble the electronic state of a film from a material and model name."""
    bulk = derive_bulk(material)
    name = model_name.upper()
    if name == "FWM":
        spec = solve_spectrum(FiniteWell(well_depth(material, bulk.EF_bulk)), D)
        return fermi_level(spec, bulk.n0)
    if name == "IWM":
        return fermi_level(solve_spectrum(InfiniteWell(), D), bulk.n0)
    if name == "PBM":
        return pbm_box_width(bulk, D)
    raise ValueError(f"unknown confinement model {model_name!r} (expected FWM, IWM or PBM)")


def electron_density(state: FilmElectronicState, z) -> np.ndarray:
    """Electron density n(z) in nm^-3 over the occupied subbands."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for n, w in enumerate(state.subband_weights, start=1):
        out += w * state.spectrum.envelope(n, z) ** 2
    return out


def ef_ratio(state: FilmElectronicState, bulk: BulkReference) -> float:
    """Fermi level over its bulk value, both from the well bottom."""
    return state.ef_well_bottom / bulk.EF_bulk

