"""Uniaxial dielectric tensor of a quantized film, on the imaginary axis.

In-plane motion is free, so eps_xx = eps_yy keeps the plasma form
1 + omega_P^2/(xi(xi+gamma)).  Along the confinement axis the response is
a sum over intersubband transitions.  Combining each transition's partial
fractions with the plasma term cancels the 1/xi^2 pieces exactly (the
oscillator-strength sum rule within the retained spectrum), leaving

    eps_zz(i xi) = 1 + sum_pairs  c_p / (dE_p^2 + hbar^2 xi (xi + gamma))

with strictly positive coefficients c_p, so eps_zz is finite at xi = 0 and
monotone decreasing.  Relaxation enters through the number-conserving
substitution omega^2 -> omega(omega + i gamma), i.e. xi^2 -> xi(xi+gamma).

The bulk plasma/Drude reference 1 + Omega_P^2/(xi(xi+gamma)) is the same
pole sum with a single pole at dE = 0 and weight (hbar Omega_P)^2
(``isotropic_slab``), so one DielectricTensor record and one pair of
functions, eps_xx and eps_zz, serve both the quantized film and its
continuum reference.  The record also carries the film thickness D, so it
is all the Lifshitz force needs of a film.  eps_zz is always the exact pole
sum: the force quadrature needs it only at one frequency node per row of
its rule.

The unbounded hard-wall ladders (IWM, PBM) are cut once a partner block adds
at most _TABLE_TOL of the static sum.  Their oscillator weight is the full
sum-rule value (hbar omega_P)^2: the hard-wall basis is complete, so no
partner past the table has to be summed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import E2_GAUSS, HBAR2_OVER_2ME as MU, HBAR_EVS
from .estructure import FilmElectronicState
from .materials import BulkReference
from .qwell import FiniteWell, WellSpectrum

# 8 pi e^2 (hbar^2/m)^2 = 32 pi e^2 mu^2; eV^3 after I^2 W / d
_PREF = 32.0 * math.pi * E2_GAUSS * MU * MU

_LEVEL_CAP = 400_000
_TABLE_TOL = 1e-13  # share of the static sum below which a partner block is dropped
_CHUNK = 1 << 16  # max elements of one (xi, pair) block: 512 kB, cache-sized


class TensorBuildError(RuntimeError):
    """The intersubband sum did not converge within the level cap."""


@dataclass(frozen=True)
class DielectricTensor:
    """Pole table, plasma weight and thickness of one film at one relaxation rate.

    Plain data: it pickles, ``eps_xx``/``eps_zz`` evaluate it and
    ``lifshitz.force`` takes it as the film.
    """

    gamma: float              # rad/s
    hw_p2: float              # (hbar omega_P)^2, eV^2
    d_norm: float             # normalization width, nm
    de: np.ndarray            # transition energies E_m - E_n >= 0, eV
    coef: np.ndarray          # pole weights c_p, eV^2
    osc_weight: float         # hbar^2 * oscillator plasma weight, eV^2
    D: float                  # film (ion slab) thickness, nm

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"relaxation frequency must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.D < math.inf:
            raise ValueError(f"film thickness must be positive and finite, got {self.D}")
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def omega_P(self) -> float:
        """In-plane plasma frequency, rad/s."""
        return math.sqrt(self.hw_p2) / HBAR_EVS

    @property
    def sum_rule_completeness(self) -> float:
        """Oscillator weight over the full-sum-rule value (hbar omega_P)^2.

        Equals 1 for a complete partner basis; below 1 when the finite well
        keeps bound states only (continuum transitions are not modeled).
        """
        return self.osc_weight / self.hw_p2

    def with_gamma(self, gamma: float) -> "DielectricTensor":
        return replace(self, gamma=gamma)


def _pair_block(spectrum: WellSpectrum, weights: np.ndarray, j_lo: int, j_hi: int,
                d_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition energies and strengths for partners j in [j_lo, j_hi].

    Pairs are ordered (i < j) with i occupied, i-major and ascending in j;
    W = w_i - w_j > 0 since the weights decrease with energy.
    """
    e = spectrum.well_bottom_energies
    m0 = weights.size
    rows = np.arange(1, m0 + 1)[:, None]
    cols = np.arange(j_lo, j_hi + 1)
    ri, ci = np.nonzero((cols > rows) & ((rows % 2 == 1) != (cols % 2 == 1)))
    i, j = ri + 1, ci + j_lo
    i_nm = spectrum.momentum_row(i, j)
    de = e[j - 1] - e[i - 1]
    w_j = np.where(j <= m0, weights[np.minimum(j, m0) - 1], 0.0)
    return de, _PREF * i_nm**2 * (weights[i - 1] - w_j) / d_norm


def build_tensor(state: FilmElectronicState) -> DielectricTensor:
    """Assemble the undamped dielectric tensor of a film state.

    The in-plane plasma frequency follows the mean electron density n_avg
    of the normalization slab as Omega_P*sqrt(n_avg/n0).

    A finite well pairs its occupied levels with every bound level.  A hard
    wall's ladder is unbounded: partners are added in doubling blocks until
    a block adds at most ``_TABLE_TOL`` of the static sum sum_p c_p/dE_p^2;
    that block is left out of the table.  The full oscillator weight of a
    hard wall is (hbar omega_P)^2 by the Thomas-Reiche-Kuhn sum rule, so
    ``osc_weight`` needs no sum over the ladder.
    """
    spectrum = state.spectrum
    d_norm = state.d_box if state.d_box is not None else spectrum.D
    n0 = state.ion_density
    hw_omega2 = 8.0 * math.pi * E2_GAUSS * MU * n0      # (hbar Omega_P)^2
    hw_p2 = hw_omega2 * (state.n_avg / n0)

    weights = state.subband_weights
    if isinstance(spectrum.model, FiniteWell):
        de, num = _pair_block(spectrum, weights, 2, spectrum.n_levels, d_norm)
        osc_weight = float(np.sum(num / de)) if de.size else 0.0
    else:
        j_hi = max(4 * state.m0, 64)
        spectrum = spectrum.extended(j_hi)
        de, num = _pair_block(spectrum, weights, 2, j_hi, d_norm)
        static = float(np.sum(num / de**3))
        keep_de, keep_num = [de], [num]
        while True:
            j_lo, j_hi = j_hi + 1, 2 * j_hi
            if j_hi > _LEVEL_CAP:
                raise TensorBuildError(
                    f"intersubband sum not converged below {_LEVEL_CAP} levels "
                    f"(D={spectrum.D} nm, {state.m0} occupied subbands)")
            spectrum = spectrum.extended(j_hi)
            de_b, num_b = _pair_block(spectrum, weights, j_lo, j_hi, d_norm)
            static_b = float(np.sum(num_b / de_b**3))
            if static_b <= _TABLE_TOL * static:
                break
            keep_de.append(de_b)
            keep_num.append(num_b)
            static += static_b
        de = np.concatenate(keep_de)
        num = np.concatenate(keep_num)
        # TRK sum rule of the complete hard-wall basis: sum_{j != i} I_ij^2/(E_j - E_i)
        # = 1/(4 mu) for every i, so the weight is _PREF N_areal/(4 mu d_norm) = hw_p2
        osc_weight = hw_p2

    with np.errstate(invalid="ignore"):
        coef = num / de if de.size else num
    de.setflags(write=False)
    coef.setflags(write=False)
    return DielectricTensor(gamma=0.0, hw_p2=hw_p2, d_norm=d_norm, de=de, coef=coef,
                            osc_weight=osc_weight, D=state.spectrum.D)


def isotropic_slab(bulk: BulkReference, gamma: float, D: float) -> DielectricTensor:
    """Reference film of thickness D with the bulk plasma/Drude response.

    1 + Omega_P^2/(xi(xi+gamma)) in both directions is the pole sum with one
    pole at dE = 0 and weight (hbar Omega_P)^2.
    """
    hw2 = (HBAR_EVS * bulk.Omega_P) ** 2
    de, coef = np.zeros(1), np.full(1, hw2)
    de.setflags(write=False)
    coef.setflags(write=False)
    return DielectricTensor(gamma=gamma, hw_p2=hw2, d_norm=D, de=de, coef=coef,
                            osc_weight=hw2, D=D)


def _s_ev2(xi, gamma: float) -> np.ndarray:
    """hbar^2 xi (xi + gamma) in eV^2."""
    hx = HBAR_EVS * np.asarray(xi, dtype=float)
    return hx * (hx + HBAR_EVS * gamma)


def eps_xx(tensor: DielectricTensor, xi):
    """In-plane permittivity at finite imaginary frequency xi > 0 (rad/s)."""
    xi_arr = np.asarray(xi, dtype=float)
    if not (xi_arr.min(initial=math.inf) > 0.0 and xi_arr.max(initial=0.0) < math.inf):
        raise ValueError("eps_xx requires finite xi > 0 (it diverges at xi = 0)")
    out = 1.0 + tensor.hw_p2 / _s_ev2(xi_arr, tensor.gamma)
    return out if np.ndim(xi) else float(out)


def _pole_sum(tensor: DielectricTensor, s: np.ndarray) -> np.ndarray:
    """Exact eps_zz - 1 = sum_p c_p/(dE_p^2 + s) at each s (1-D, eV^2).

    Every (s, pole) block is formed and reduced in one buffer allocated per
    call, so a large table costs no fresh multi-MB temporaries per block.
    """
    de2 = tensor.de**2
    out = np.zeros_like(s)
    if de2.size:
        step = max(1, _CHUNK // de2.size)
        buf = np.empty((min(step, s.size), de2.size))
        for a in range(0, s.size, step):
            block = s[a:a + step]
            b = buf[:block.size]
            np.add.outer(block, de2, out=b)
            np.divide(tensor.coef, b, out=b)
            b.sum(axis=1, out=out[a:a + step])
    return out


def eps_zz(tensor: DielectricTensor, xi):
    """Out-of-plane permittivity at finite imaginary frequency xi >= 0 (rad/s).

    Finite at xi = 0 unless the table holds a dE = 0 pole (the bulk
    reference), which raises ValueError there.
    """
    xi_flat = np.asarray(xi, dtype=float).ravel()
    if not (xi_flat.min(initial=math.inf) >= 0.0 and xi_flat.max(initial=0.0) < math.inf):
        raise ValueError("eps_zz requires finite xi >= 0")
    s = _s_ev2(xi_flat, tensor.gamma)
    if not s.all() and not tensor.de.all():
        raise ValueError("eps_zz diverges at xi = 0 for a table with a dE = 0 pole")
    out = 1.0 + _pole_sum(tensor, s)
    if np.ndim(xi) == 0:
        return float(out[0])
    return out.reshape(np.shape(xi))
