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

The unbounded hard-wall ladders (IWM, PBM) are cut at a level certified to drop
at most _TABLE_TOL of the static sum; their oscillator weight is the full
sum-rule value (hbar omega_P)^2, as the hard-wall basis is complete.  Their
static eps_zz(0) is a closed form (``hard_wall_eps_zz0``) that needs no table.
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
_TABLE_TOL = 1e-13  # share of the static sum the hard-wall cut may drop
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

        Below 1 for the finite well, whose table keeps bound-to-bound
        transitions only (continuum transitions are not modeled).  A hard
        wall (IWM, PBM) reads 1 by the Thomas-Reiche-Kuhn sum rule of its
        complete basis, while its cut table sums to 1 - (1.6 to 4.8)e-6 of
        (hbar omega_P)^2 for Al, Ag and Cs at D = 1 to 20 nm.
        """
        return self.osc_weight / self.hw_p2

    def with_gamma(self, gamma: float) -> "DielectricTensor":
        return replace(self, gamma=gamma)


def _pair_block(spectrum: WellSpectrum, weights: np.ndarray,
                d_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition energies and strengths of each occupied level i with every level j > i.

    Pairs are ordered (i < j) with i occupied, i-major and ascending in j;
    W = w_i - w_j > 0 since the weights decrease with energy.
    """
    e = spectrum.well_bottom_energies
    m0 = weights.size
    rows = np.arange(1, m0 + 1)[:, None]
    cols = np.arange(1, spectrum.n_levels + 1)
    ri, ci = np.nonzero((cols > rows) & ((rows % 2 == 1) != (cols % 2 == 1)))
    i, j = ri + 1, ci + 1
    i_nm = spectrum.momentum_row(i, j)
    de = e[j - 1] - e[i - 1]
    w_j = np.where(j <= m0, weights[np.minimum(j, m0) - 1], 0.0)
    return de, _PREF * i_nm**2 * (weights[i - 1] - w_j) / d_norm


def _static_partner_sum(weights: np.ndarray) -> float:
    """sum_i w_i i^2 S(i): the static sum of ``hard_wall_eps_zz0`` in units of 16 _PREF/(L a)^3."""
    i = np.arange(1, weights.size + 1, dtype=float)
    s = math.pi**2 * (15.0 - math.pi**2 * i * i) / (3072.0 * i**6)
    return float(np.sum(weights * i * i * s))


def _hard_wall_cut(state: FilmElectronicState) -> int:
    """Last partner level J of a hard-wall table, losing at most _TABLE_TOL of the static sum.

    In the units of ``_static_partner_sum`` a pair i < j adds (w_i - w_j) i^2 j^2/(j^2-i^2)^5,
    and for j > J >= j0 > m0 that is at most w_i i^2 j^-8 (1 - (i/j0)^2)^-5.  Every other j
    past J sums to at most (J+1)^-8 + (J+1)^-7/14, so the dropped tail is at most
    T/(J+1)^7 with T = sum_i w_i i^2 (1 - (i/j0)^2)^-5 (1/(j0+1) + 1/14).
    """
    w, i = state.subband_weights, np.arange(1, state.m0 + 1, dtype=float)
    j0 = max(4 * state.m0, 64)
    t = float(np.sum(w * i * i * (1.0 - (i / j0) ** 2) ** -5)) * (1.0 / (j0 + 1) + 1.0 / 14.0)
    allowed = _TABLE_TOL * _static_partner_sum(w)
    if t > allowed * (_LEVEL_CAP + 1) ** 7:
        raise TensorBuildError(f"intersubband sum not converged below {_LEVEL_CAP} levels "
                               f"(D={state.spectrum.D} nm, {state.m0} occupied subbands)")
    return max(j0, math.ceil((t / allowed) ** (1.0 / 7.0)) - 1)


def build_tensor(state: FilmElectronicState) -> DielectricTensor:
    """Assemble the undamped dielectric tensor of a film state.

    The in-plane plasma weight (hbar omega_P)^2 = 8 pi e^2 mu sum(w)/L follows
    the mean electron density sum(w)/L of the box of width L.

    Each occupied level pairs with every level of the spectrum above it; a
    hard-wall ladder is first extended to the level ``_hard_wall_cut`` gives.
    The full oscillator weight of a hard wall is (hbar omega_P)^2 by the
    Thomas-Reiche-Kuhn sum rule, so ``osc_weight`` needs no sum over the ladder.
    """
    spectrum, weights = state.spectrum, state.subband_weights
    if not isinstance(spectrum.model, FiniteWell):
        spectrum = spectrum.extended(_hard_wall_cut(state))
    hw_p2 = 8.0 * math.pi * E2_GAUSS * MU * float(np.sum(weights)) / spectrum.box_width

    de, num = _pair_block(spectrum, weights, spectrum.box_width)
    if isinstance(spectrum.model, FiniteWell):
        osc_weight = float(np.sum(num / de)) if de.size else 0.0
    else:
        # TRK sum rule of the complete hard-wall basis: sum_{j != i} I_ij^2/(E_j - E_i)
        # = 1/(4 mu) for every i, so the weight is _PREF N_areal/(4 mu L) = hw_p2
        osc_weight = hw_p2

    with np.errstate(invalid="ignore"):
        coef = num / de if de.size else num
    de.setflags(write=False)
    coef.setflags(write=False)
    return DielectricTensor(gamma=0.0, hw_p2=hw_p2, d_norm=spectrum.box_width, de=de,
                            coef=coef, osc_weight=osc_weight, D=state.spectrum.D)


def hard_wall_eps_zz0(state: FilmElectronicState) -> float:
    """Static eps_zz(0) of a hard-wall (IWM, PBM) film in closed form, with no pole table.

    With I_ij = 4ij/(L(i^2-j^2)) and dE_ij = a(j^2-i^2), a = mu (pi/L)^2, a pair i < j
    (i + j odd) adds 16 _PREF/(L a)^3 (w_i - w_j) i^2 j^2/(j^2-i^2)^5 to the static sum.
    That kernel is antisymmetric, so the pair sum is sum_i w_i i^2 S(i), and the cot/tan
    residue sum gives S(i) = sum_{j+i odd} j^2/(j^2-i^2)^5 = pi^2 (15 - pi^2 i^2)/(3072 i^6).
    """
    if isinstance(state.spectrum.model, FiniteWell):
        raise ValueError("the static closed form holds for hard-wall (IWM, PBM) films only")
    la = MU * math.pi**2 / state.spectrum.box_width  # L a, L the box width
    return 1.0 + 16.0 * _PREF / la**3 * _static_partner_sum(state.subband_weights)


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
