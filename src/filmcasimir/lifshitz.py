"""Casimir pressure between two identical films across a vacuum gap.

The pressure is the double integral over transverse wavevector k and
imaginary frequency xi of the two polarization terms Q^2/(1 - Q^2),
with Q the finite-thickness slab reflection factor times exp(-gamma l).
All reflection quantities are real on the imaginary axis.

Two independent integration engines are provided.  "legendre" writes the
integral with k dk = g0 dg0, g0 = sqrt(k^2 + zeta^2), as

    int_0^inf dzeta int_zeta^inf dg0 g0^2 r(g0, zeta),     zeta = xi/c,

and applies a tensor Gauss-Legendre rule of increasing order to zeta outside
and h = g0 - zeta inside, with h = s_h u and zeta = s_z u^2 for u = t/(1-t),
t in (0, 1).  The gap decay exp(-2 g0 l) sets the scale s_h = 1.5/l; s_z is
the smaller of that and omega_P/c, where the response changes.  zeta goes
as u^2 because with relaxation the TE term grows like sqrt(zeta) near 0,
which is smooth in u.  The tensor depends on frequency only, so each order
evaluates eps_xx and eps_zz once per zeta node, with the exact pole sum.
"quadpack" nests adaptive quadratures over the rectangular transforms
xi = xi0 t/(1-t), k = k0 u/(1-u).  They cross-check each other in tests, and
both, like ``q_factors``, go through one reflection core that takes
(k^2, zeta, eps_xx, eps_zz).

A film enters as its DielectricTensor, plain data that carries the film
thickness D with the response.  The quantized film carries the intersubband
pole table; the bulk reference (``isotropic_slab``) carries the plasma/Drude
response as the tensor's single pole at zero transition energy, so both go
through the same eps_xx and eps_zz.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .constants import C_NM_S, HBAR_JS
from .dielectric import DielectricTensor, build_tensor, eps_xx, eps_zz, isotropic_slab
from .estructure import film_state
from .materials import Material, derive_bulk

# maps the nm^-4 double integral to Pa
_PREF_PA = HBAR_JS * C_NM_S * 1e27 / (2.0 * math.pi**2)

_ORDERS = (32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
# the integrand is evaluated in row blocks of at most this many points, so its
# temporaries stay small and in cache instead of n*n arrays that are mapped
# and page-faulted afresh at every order
_BLOCK = 16384
_QUAD_LIMIT = 200  # subintervals of each adaptive quadpack rule


@dataclass(frozen=True)
class ForceResult:
    pressure: float            # Pa, negative = attractive
    abs_error_estimate: float  # Pa
    evaluations: int           # integrand points


class ForceConvergenceError(RuntimeError):
    """Quadrature did not reach the requested tolerance; carries the partial result."""

    def __init__(self, message: str, partial: ForceResult):
        super().__init__(message)
        self.partial = partial


def _ln_q(a, b, g_slab, g0, D, ell):
    """log of |Q| for one polarization, with its sign.

    rho = (a - b)/(a + b); the slab factor rho(1 - e)/(1 - rho^2 e) with
    e = exp(-2 g_slab D) stays in (-1, 1), and 1 - |slab factor| is computed
    cancellation-free as (1 - |rho|)(1 + |rho| e)/(1 - rho^2 e).  Rounding
    can lift that above 1 where |rho| ~ 1e-16 (far out in zeta); it is capped
    at 1, so Q = 0 there instead of NaN.
    """
    denom = a + b
    rho = (a - b) / denom
    abs_rho = np.abs(rho)
    e2d = np.exp(-2.0 * g_slab * D)
    one_minus_slab = (2.0 * np.minimum(a, b) / denom) * (1.0 + abs_rho * e2d) / (1.0 - rho * rho * e2d)
    with np.errstate(divide="ignore"):
        ln_q = np.log1p(-np.minimum(one_minus_slab, 1.0)) - g0 * ell
    return ln_q, np.sign(rho)


def _ln_q_both(k2, zeta, exx, ezz, D: float, ell: float):
    """(ln|Q_TM|, sign_TM, ln|Q_TE|, sign_TE) on the imaginary axis.

    k2 = k^2 in nm^-2 and zeta = xi/c in nm^-1, with exx and ezz the tensor
    at xi; all square-root arguments are positive because eps_xx > 1 and
    eps_zz >= 1 there.
    """
    zz = zeta * zeta
    # same expression as g_te/g_tm so eps = 1 cancels exactly in rho
    g0 = np.sqrt(k2 + zz)
    g_te = np.sqrt(k2 + zz * exx)
    g_tm = np.sqrt((k2 / ezz + zz) * exx)
    ln_tm, sign_tm = _ln_q(g_tm, g0 * exx, g_tm, g0, D, ell)
    ln_te, sign_te = _ln_q(g_te, g0, g_te, g0, D, ell)
    return ln_tm, sign_tm, ln_te, sign_te


def q_factors(tensor: DielectricTensor, k: float, xi: float, ell: float) -> tuple[float, float]:
    """Signed reflection factors (Q_TM, Q_TE) entering the pressure integrand."""
    if not (0.0 <= k < math.inf and 0.0 < xi < math.inf and 0.0 < ell < math.inf):
        raise ValueError(f"need finite k >= 0, xi > 0 and ell > 0, got {k}, {xi}, {ell}")
    ln_tm, s_tm, ln_te, s_te = _ln_q_both(k * k, xi / C_NM_S, eps_xx(tensor, xi),
                                          eps_zz(tensor, xi), tensor.D, ell)
    return float(s_tm * np.exp(ln_tm)), float(s_te * np.exp(ln_te))


def _r_sum(k2, zeta, exx, ezz, D: float, ell: float):
    """Q_TM^2/(1-Q_TM^2) + Q_TE^2/(1-Q_TE^2), stable near |Q| -> 1 and 0."""
    ln_tm, _, ln_te, _ = _ln_q_both(k2, zeta, exx, ezz, D, ell)
    out = 0.0
    for ln in (ln_tm, ln_te):
        two_ln = 2.0 * ln
        out = out + np.exp(two_ln) / (-np.expm1(two_ln))
    return out


def _force_legendre(tensor: DielectricTensor, ell: float, tol: float) -> ForceResult:
    h_scale = 1.5 / ell  # inner nodes straddle the exp(-2 g0 ell) support
    z_scale = min(h_scale, tensor.omega_P / C_NM_S) if tensor.omega_P > 0.0 else h_scale
    prev = None
    evaluations = 0
    pressure = math.nan
    err = math.inf
    for n in _ORDERS:
        t, wt = _unit_nodes(n)
        u = t / (1.0 - t)
        w = wt / (1.0 - t) ** 2
        zeta, h, w_z = z_scale * u * u, h_scale * u, 2.0 * u * w  # dzeta = 2u du
        xi = zeta * C_NM_S
        exx, ezz = eps_xx(tensor, xi), eps_zz(tensor, xi)
        integ = np.empty((n, n))
        rows = max(1, _BLOCK // n)
        for a in range(0, n, rows):
            z = zeta[a:a + rows, None]
            k2 = h * (h + 2.0 * z)  # g0^2 - zeta^2 without cancellation
            r = _r_sum(k2, z, exx[a:a + rows, None], ezz[a:a + rows, None], tensor.D, ell)
            integ[a:a + rows] = (k2 + z * z) * r
        val = z_scale * h_scale * (w_z @ integ @ w)
        evaluations += n * n
        pressure = float(-_PREF_PA * val)
        if prev is not None:
            err = abs(pressure - prev)
            if err <= tol * abs(pressure) or err == 0.0:
                return ForceResult(pressure, err, evaluations)
        prev = pressure
    raise ForceConvergenceError(
        f"pressure not converged to {tol:g} at order {_ORDERS[-1]} (ell={ell} nm)",
        ForceResult(pressure, err, evaluations),
    )


def _force_quadpack(tensor: DielectricTensor, ell: float, tol: float) -> ForceResult:
    from scipy.integrate import IntegrationWarning, quad
    zeta0 = max(tensor.omega_P / C_NM_S, 1.0 / ell)
    k0 = 1.0 / ell
    inner_rel = max(tol / 10.0, 1e-13)
    counter = [0]

    @cache  # the inner rule's nodes t repeat for every outer k
    def eps_at(t):
        xi = zeta0 * t / (1.0 - t) * C_NM_S
        return eps_xx(tensor, xi), eps_zz(tensor, xi)

    def outer(u):
        k = k0 * u / (1.0 - u)

        def inner(t):
            counter[0] += 1
            zeta = zeta0 * t / (1.0 - t)
            g0 = math.hypot(k, zeta)
            r = _r_sum(k * k, zeta, *eps_at(t), tensor.D, ell)
            return float(r) * g0 * zeta0 / (1.0 - t) ** 2

        val, _ = quad(inner, 0.0, 1.0, epsabs=0.0, epsrel=inner_rel, limit=_QUAD_LIMIT)
        return k * val * k0 / (1.0 - u) ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, abserr = quad(outer, 0.0, 1.0, epsabs=0.0, epsrel=0.8 * tol, limit=_QUAD_LIMIT)
    pressure = -_PREF_PA * val
    err = _PREF_PA * abserr + inner_rel * abs(pressure)
    if err > tol * abs(pressure) and pressure != 0.0:
        raise ForceConvergenceError(
            f"adaptive rule reports error {err:g} Pa above {tol:g} relative (ell={ell} nm)",
            ForceResult(pressure, err, counter[0]),
        )
    return ForceResult(pressure, err, counter[0])


@cache
def _unit_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to the open interval (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def force(tensor: DielectricTensor, ell: float, tol: float = 1e-6,
          engine: str = "legendre") -> ForceResult:
    """Casimir pressure (Pa, negative = attractive) between two copies of a film.

    Parameters
    ----------
    tensor : DielectricTensor
        The film: its response and its thickness ``tensor.D``.
    ell : float
        Vacuum gap between the facing surfaces, nm.
    tol : float
        Relative tolerance; on success abs_error_estimate <= tol*|pressure|.
    engine : str
        "legendre" (default) or "quadpack"; see the module docstring.

    Raises ForceConvergenceError (carrying the partial result) when the
    requested tolerance cannot be certified.
    """
    if not 0.0 < ell < math.inf:
        raise ValueError(f"gap must be positive and finite, got {ell}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if engine == "legendre":
        return _force_legendre(tensor, ell, tol)
    if engine == "quadpack":
        return _force_quadpack(tensor, ell, tol)
    raise ValueError(f"unknown engine {engine!r} (expected 'legendre' or 'quadpack')")


def ideal_mirror_pressure(ell: float) -> float:
    """Perfect-mirror limit -pi^2 hbar c / (240 ell^4), in Pa (ell in nm)."""
    return -math.pi**2 / 240.0 * HBAR_JS * C_NM_S * 1e27 / ell**4


def quantized_slab(material: Material, model: str, D: float,
                   gamma: float = 0.0) -> DielectricTensor:
    """Size-quantized dielectric tensor of a film at relaxation rate gamma."""
    return build_tensor(film_state(material, model, D)).with_gamma(gamma)


def reference_slab(material: Material, D: float, gamma: float = 0.0) -> DielectricTensor:
    """The same slab with the bulk isotropic response."""
    return isotropic_slab(derive_bulk(material), gamma, D)


def force_pair(material: Material, model: str, D: float, ell: float, gamma: float = 0.0,
               tol: float = 1e-7, engine: str = "legendre") -> tuple[ForceResult, ForceResult]:
    """(quantized, bulk-reference) pressures at identical quadrature settings."""
    f_q = force(quantized_slab(material, model, D, gamma), ell, tol=tol, engine=engine)
    f_ref = force(reference_slab(material, D, gamma), ell, tol=tol, engine=engine)
    return f_q, f_ref


def delta_D(material: Material, model: str, D: float, ell: float, gamma: float,
            tol: float = 1e-7, engine: str = "legendre") -> float:
    """Relative force reduction (F_ref - F_quantized)/F_ref with relaxation gamma."""
    f_q, f_ref = force_pair(material, model, D, ell, gamma, tol=tol, engine=engine)
    return (f_ref.pressure - f_q.pressure) / f_ref.pressure


def delta_P(material: Material, model: str, D: float, ell: float,
            tol: float = 1e-7, engine: str = "legendre") -> float:
    """Force reduction for the dissipationless plasma-type response."""
    return delta_D(material, model, D, ell, 0.0, tol=tol, engine=engine)
