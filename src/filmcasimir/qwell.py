"""One-electron bound states of a thin film, for three confinement models.

FiniteWell: square well of depth V0 over the ion slab [-D/2, D/2], with
exponential spill-out tails.  InfiniteWell: hard walls at +-D/2.
ParticleInBox: hard walls at +-d/2 with d >= D, the enlarged box used to
mimic spill-out while keeping hard-wall states.

Wavevectors are nm^-1, energies eV measured from the well bottom.
Envelopes are normalized to integral |phi|^2 dz = 1 along the
confinement axis z.

The hard-wall ladders are closed forms.  The finite well's bound levels are
solved together, by one vectorized Newton iteration in theta = asin(k/k0)
(_solve_finite_well); the tail decay constants kappa = k0 cos(theta) are
taken from the same quantization condition, which keeps their digits for a
level just below the rim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .constants import HBAR2_OVER_2ME as MU  # eV nm^2

_NEWTON_CAP = 64  # Newton steps for the finite-well levels; reached only on a fault


@dataclass(frozen=True)
class FiniteWell:
    """Square well of depth v0 (eV) below the vacuum level."""

    v0: float

    def __post_init__(self):
        if not 0.0 < self.v0 < math.inf:
            raise ValueError(f"well depth must be positive and finite, got {self.v0}")


@dataclass(frozen=True)
class InfiniteWell:
    """Hard walls at the ion slab edges."""


@dataclass(frozen=True)
class ParticleInBox:
    """Hard walls at +-d/2, with a box width d (nm) at least the slab width."""

    d: float

    def __post_init__(self):
        if not 0.0 < self.d < math.inf:
            raise ValueError(f"box width must be positive and finite, got {self.d}")


ConfinementModel = Union[FiniteWell, InfiniteWell, ParticleInBox]


@dataclass(frozen=True)
class WellSpectrum:
    """Ordered bound levels k_zn, n = 1..N, of one confinement model.

    The level energies E_n = mu k_zn^2 are measured from the well bottom.
    """

    model: ConfinementModel
    D: float                 # film (ion slab) thickness, nm
    k_z: np.ndarray          # nm^-1, strictly increasing

    @property
    def n_levels(self) -> int:
        return self.k_z.size

    @property
    def well_bottom_energies(self) -> np.ndarray:
        """Level energies measured from the well bottom (eV)."""
        return MU * self.k_z**2

    @property
    def box_width(self) -> float:
        """Width of the hard-wall box; for the finite well, the ion slab width."""
        if isinstance(self.model, ParticleInBox):
            return self.model.d
        return self.D

    @cached_property
    def _fw_kappa(self) -> np.ndarray:
        # decay constants of the exponential tails, nm^-1: k0 cos(theta) with
        # theta = (n pi - k D)/2 from the quantization condition, since
        # sqrt(k0^2 - k^2) loses digits for a level just below the rim
        k0 = math.sqrt(self.model.v0 / MU)
        n = np.arange(1, self.n_levels + 1)
        return np.maximum(k0 * np.cos(0.5 * (n * math.pi - self.k_z * self.D)), 0.0)

    @cached_property
    def _fw_amp(self) -> np.ndarray:
        # interior amplitude A_n; norm integral is D/2 + 1/kappa for both parities
        return 1.0 / np.sqrt(0.5 * self.D + 1.0 / self._fw_kappa)

    def _check_level(self, n: int):
        if not 1 <= n <= self.n_levels:
            raise IndexError(f"level {n} outside 1..{self.n_levels}")

    def extended(self, n_levels: int) -> "WellSpectrum":
        """Same model and thickness with at least ``n_levels`` levels.

        For the finite well the bound spectrum is exhausted; the spectrum is
        returned unchanged once all bound levels are present.
        """
        if isinstance(self.model, FiniteWell) or n_levels <= self.n_levels:
            return self
        return solve_spectrum(self.model, self.D, n_levels=n_levels)

    def envelope(self, n: int, z) -> np.ndarray:
        """Evaluate phi_n(z); z in nm, scalar or array."""
        self._check_level(n)
        z = np.asarray(z, dtype=float)
        if isinstance(self.model, FiniteWell):
            return self._fw_envelope(n, z)
        L = self.box_width
        inside = np.abs(z) <= 0.5 * L
        phase = n * math.pi * (z + 0.5 * L) / L
        return np.where(inside, math.sqrt(2.0 / L) * np.sin(phase), 0.0)

    def _fw_envelope(self, n: int, z: np.ndarray) -> np.ndarray:
        k = self.k_z[n - 1]
        kap = self._fw_kappa[n - 1]
        amp = self._fw_amp[n - 1]
        half = 0.5 * self.D
        tail = np.exp(-kap * np.maximum(np.abs(z) - half, 0.0))
        if n % 2 == 1:  # even envelope
            edge = amp * math.cos(k * half)
            return np.where(np.abs(z) <= half, amp * np.cos(k * z), edge * tail)
        edge = amp * math.sin(k * half)
        return np.where(np.abs(z) <= half, amp * np.sin(k * z), np.sign(z) * edge * tail)

    def momentum_integral(self, n: int, m: int) -> float:
        """Overlap integral I_nm = int phi_n dphi_m/dz dz, in nm^-1.

        The physical matrix element is <n|p_z|m> = -i hbar I_nm; I is
        antisymmetric in (n, m) and vanishes for equal parity.
        """
        self._check_level(n)
        self._check_level(m)
        return float(self.momentum_row(n, np.asarray([m]))[0])

    def momentum_row(self, n: int | np.ndarray, ms: np.ndarray) -> np.ndarray:
        """Vectorized I_nm; ``n`` is one level or an array broadcast against ``ms``."""
        ms = np.asarray(ms, dtype=int)
        if ms.size and (ms.min() < 1 or ms.max() > self.n_levels):
            raise IndexError("partner index outside the spectrum")
        if not isinstance(self.model, FiniteWell):
            L = self.box_width
            with np.errstate(divide="ignore", invalid="ignore"):
                out = 4.0 * n * ms / (L * (n * n - ms * ms))
            return np.where((n + ms) % 2 == 1, out, 0.0)
        return self._fw_momentum_row(n, ms)

    def _fw_momentum_row(self, n: int | np.ndarray, ms: np.ndarray) -> np.ndarray:
        k, kap, amp = self.k_z, self._fw_kappa, self._fw_amp
        half = 0.5 * self.D
        kn, kapn, an = k[n - 1], kap[n - 1], amp[n - 1]
        km, kapm, am = k[ms - 1], kap[ms - 1], amp[ms - 1]
        diff, summ = kn - km, kn + km
        with np.errstate(divide="ignore", invalid="ignore"):
            s_diff = np.where(ms == n, half, np.sin(diff * half) / diff)
        s_sum = np.sin(summ * half) / summ
        # n odd: phi_n cos-like, phi_m sin-like; interior integrand ~ cos*cos
        odd = n % 2 == 1
        interior = np.where(odd, an * am * km * (s_diff + s_sum),
                            -an * am * km * (s_diff - s_sum))
        bn = an * np.where(odd, np.cos(kn * half), np.sin(kn * half))
        bm = am * np.where(odd, np.sin(km * half), np.cos(km * half))
        tails = -2.0 * kapm * bn * bm / (kapn + kapm)
        return np.where((n + ms) % 2 == 1, interior + tails, 0.0)


def _solve_finite_well(v0: float, D: float) -> np.ndarray:
    """All bound wavevectors k = k0 sin(theta) of the finite well, at once.

    The quantization condition k + (2/D) asin(k/k0) = n pi/D becomes
    f(theta) = k0 sin(theta) + 2 theta/D - n pi/D = 0.  f is increasing and
    concave on [0, pi/2], so Newton's method started at theta = 0 rises
    monotonically to every root; it stops once each residual is at the
    rounding level of n pi/D, after one more step.
    """
    k0 = math.sqrt(v0 / MU)
    n_bound = int(math.floor(k0 * D / math.pi)) + 1
    target = np.arange(1, n_bound + 1) * (math.pi / D)
    tol = 16.0 * np.finfo(float).eps * target
    theta = np.zeros(n_bound)
    for _ in range(_NEWTON_CAP):
        resid = target - k0 * np.sin(theta) - (2.0 / D) * theta
        theta += resid / (k0 * np.cos(theta) + 2.0 / D)
        if (np.abs(resid) <= tol).all():
            return k0 * np.sin(theta)
    raise RuntimeError(f"finite-well levels not converged in {_NEWTON_CAP} Newton steps "
                       f"(V0={v0} eV, D={D} nm)")


def solve_spectrum(model: ConfinementModel, D: float, n_levels: int = 64) -> WellSpectrum:
    """Solve the bound spectrum of ``model`` for a film of thickness D.

    For the finite well all bound levels are returned and ``n_levels`` is
    ignored; the hard-wall models have an unbounded ladder and return the
    first ``n_levels`` levels (use ``WellSpectrum.extended`` for more).
    """
    if not 0.0 < D < math.inf:
        raise ValueError(f"film thickness must be positive and finite, got {D}")
    if isinstance(model, FiniteWell):
        k = _solve_finite_well(model.v0, D)
    elif isinstance(model, (InfiniteWell, ParticleInBox)):
        if isinstance(model, ParticleInBox) and model.d < D:
            raise ValueError(f"box width d={model.d} nm smaller than the film D={D} nm")
        if n_levels < 1:
            raise ValueError("need at least one level")
        L = model.d if isinstance(model, ParticleInBox) else D
        k = np.arange(1, n_levels + 1) * math.pi / L
    else:
        raise TypeError(f"unknown confinement model {model!r}")
    k.setflags(write=False)
    return WellSpectrum(model=model, D=D, k_z=k)


def trk_sum(spectrum: WellSpectrum, n: int) -> float:
    """Oscillator strength sum over the stored levels.

    f_nm = 2 |<n|p_z|m>|^2 / (m_e (E_m - E_n)); the sum tends to 1 when the
    stored set of partner levels is complete.  Tracked as a convergence
    diagnostic for truncated spectra.
    """
    spectrum._check_level(n)
    ms = np.arange(1, spectrum.n_levels + 1)
    ms = ms[ms != n]
    i_nm = spectrum.momentum_row(n, ms)
    e = spectrum.well_bottom_energies
    de = e[ms - 1] - e[n - 1]
    return float(np.sum(4.0 * MU * i_nm**2 / de))
