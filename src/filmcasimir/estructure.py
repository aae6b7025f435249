"""Film electronic structure: subband filling, Fermi level, density profiles.

Each subband n contributes an areal electron density
w_n = (E_F - E_n) / (2 pi mu), mu = hbar^2/2m, with E measured from the
well bottom; filling is fixed by charge neutrality against the ion slab,
integral n dz = n0 * D.  Both the Fermi level of a given spectrum
(fermi_level) and the enlarged box width at the bulk Fermi level
(pbm_box_width) are closed forms on each branch of m0 filled subbands.
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
    """Occupied spectrum of one film: Fermi level and subband weights."""

    spectrum: WellSpectrum
    EF: float                 # eV, same energy origin as spectrum.energies
    m0: int                   # number of occupied subbands
    areal_density: float      # nm^-2, equals n0 * D by construction
    n_avg: float              # nm^-3, mean density over the normalization width
    d_box: float | None = None  # nm, enlarged box width (ParticleInBox only)

    @property
    def ef_well_bottom(self) -> float:
        """Fermi level measured from the well bottom (eV)."""
        if isinstance(self.spectrum.model, FiniteWell):
            return self.EF + self.spectrum.model.v0
        return self.EF

    @property
    def subband_weights(self) -> np.ndarray:
        """Areal densities w_n of the occupied subbands (nm^-2)."""
        e = self.spectrum.well_bottom_energies[: self.m0]
        return (self.ef_well_bottom - e) / TWO_PI_MU

    @property
    def ion_density(self) -> float:
        """Ion slab density n0 (nm^-3) implied by neutrality."""
        return self.areal_density / self.spectrum.D


def fermi_level(spectrum: WellSpectrum, n0: float) -> FilmElectronicState:
    """Fill the spectrum with n0*D electrons per unit area (aufbau).

    For each candidate count m0 the neutrality condition has the closed form
    EF = (2 pi mu n0 D + sum_n E_n) / m0; the first m0 whose EF does not
    reach the next level is accepted.
    """
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"ion density must be positive and finite, got {n0}")
    target = n0 * spectrum.D  # nm^-2

    m0 = 0
    acc = 0.0
    while True:
        # make sure the level after the candidate exists, where the ladder allows
        while spectrum.n_levels < m0 + 2:
            ext = spectrum.extended(max(2 * spectrum.n_levels, m0 + 2))
            if ext.n_levels == spectrum.n_levels:
                break
            spectrum = ext
        e = spectrum.well_bottom_energies
        m0 += 1
        acc += e[m0 - 1]
        ef = (TWO_PI_MU * target + acc) / m0
        if m0 < spectrum.n_levels and ef <= e[m0]:
            break
        if m0 >= spectrum.n_levels:
            break  # finite well: bound spectrum exhausted

    if isinstance(spectrum.model, FiniteWell) and m0 == spectrum.n_levels and ef > spectrum.model.v0:
        raise CapacityError(
            f"bound spectrum of the {spectrum.D} nm finite well (V0={spectrum.model.v0} eV, "
            f"{spectrum.n_levels} levels) cannot hold {target} electrons/nm^2: "
            f"EF={ef:.6g} eV from the well bottom exceeds the well depth"
        )

    weights = (ef - spectrum.well_bottom_energies[:m0]) / TWO_PI_MU
    areal = float(np.sum(weights))
    ef_stored = ef - spectrum.model.v0 if isinstance(spectrum.model, FiniteWell) else ef
    return FilmElectronicState(
        spectrum=spectrum,
        EF=ef_stored,
        m0=m0,
        areal_density=areal,
        n_avg=areal / spectrum.box_width,
        d_box=spectrum.model.d if isinstance(spectrum.model, ParticleInBox) else None,
    )


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
    weights = (ef - spectrum.well_bottom_energies[:m0]) / TWO_PI_MU
    areal = float(np.sum(weights))
    if abs(areal - target) > 1e-9 * target:
        raise CapacityError(f"box width solve left a neutrality residual of {areal - target:g} nm^-2")
    return FilmElectronicState(
        spectrum=spectrum,
        EF=ef,
        m0=m0,
        areal_density=areal,
        n_avg=areal / d,
        d_box=d,
    )


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

