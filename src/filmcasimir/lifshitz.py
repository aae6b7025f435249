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
which is smooth in u.  The orders run 24, 32, 48, ... 1024 and the rule stops
when two successive orders agree to tol; their difference is the error
estimate.  On the 3,240 distinct force calls of fig4-fig9 no pressure at tol
1e-6, 1e-7 or 1e-8 lies beyond tol of a 1e-10 recheck, but the estimate is
not a bound: at 1e-7 the error against a 1e-12 reference exceeds it on 70
calls, by up to 107 times (Ag PBM D=5 l=16.6: 1.3e-9 against 1.2e-11, both
relative), always far below tol.  At tol 1e-10 orders 24 and 32 can agree
falsely (35 of the calls lay beyond tol of that reference, by up to 14
times), so below tol 1e-8 the ladder starts at 32: 22 calls then lie beyond
tol at 1e-10, by up to 1.6 times.  The tensor depends on frequency only, so
each order evaluates eps_xx and eps_zz once per zeta node, with the exact
pole sum; ``forces`` shares those nodes among all gaps of one film whose s_z
is omega_P/c.
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

_ORDERS = (24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
# below this tolerance orders 24 and 32 can agree falsely, so the ladder starts at 32
_TIGHT_TOL = 1e-8
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
    order: int | None          # last legendre order tried; None for quadpack


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


def _check_inputs(ells, tol: float) -> None:
    for ell in ells:
        if not 0.0 < ell < math.inf:
            raise ValueError(f"gap must be positive and finite, got {ell}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _integrand(tensor: DielectricTensor, zeta, exx, ezz, h, ell) -> np.ndarray:
    """g0^2 r on each gap's (zeta, h) grid; h is (g, 1, n_h) and ell (g, 1, 1)."""
    integ = np.empty((ell.shape[0], zeta.size, h.shape[-1]))
    rows = max(1, _BLOCK // (integ.shape[0] * integ.shape[2]))
    for a in range(0, zeta.size, rows):
        z = zeta[a:a + rows, None]
        k2 = h * (h + 2.0 * z)  # g0^2 - zeta^2 without cancellation
        r = _r_sum(k2, z, exx[a:a + rows, None], ezz[a:a + rows, None], tensor.D, ell)
        integ[:, a:a + rows] = (k2 + z * z) * r
    return integ


def forces(tensor: DielectricTensor, ells, tol: float = 1e-6
           ) -> list[ForceResult | ForceConvergenceError]:
    """Legendre pressures of one film at every gap of ``ells``, in the order given.

    Each entry is the ForceResult of ``force(tensor, ell, tol)``, bit for bit,
    or the ForceConvergenceError it would raise, so a gap that fails leaves the
    others intact.  At each order the gaps still open are grouped by their
    zeta scale; a group evaluates eps_xx and eps_zz once and fills the
    integrand of up to _BLOCK // n^2 gaps in one pass, which keeps each gap's
    row blocks those of a pass of its own.
    """
    ells = [float(ell) for ell in ells]
    _check_inputs(ells, tol)
    h_scales = [1.5 / ell for ell in ells]  # inner nodes straddle the exp(-2 g0 ell) support
    zeta_p = tensor.omega_P / C_NM_S if tensor.omega_P > 0.0 else math.inf
    z_scales = [min(s_h, zeta_p) for s_h in h_scales]
    out: list = [None] * len(ells)   # converged results
    last: list = [None] * len(ells)  # each gap's result at the last order it ran
    evaluations = 0
    for n in [m for m in _ORDERS if tol >= _TIGHT_TOL or m >= 32]:
        open_gaps = [j for j, res in enumerate(out) if res is None]
        if not open_gaps:
            break
        evaluations += n * n
        t, wt = _unit_nodes(n)
        u = t / (1.0 - t)
        w = wt / (1.0 - t) ** 2
        w_z = 2.0 * u * w  # dzeta = 2u du
        cap = max(1, _BLOCK // (n * n))
        for z_scale in dict.fromkeys(z_scales[j] for j in open_gaps):
            group = [j for j in open_gaps if z_scales[j] == z_scale]
            zeta = z_scale * u * u
            xi = zeta * C_NM_S
            exx, ezz = eps_xx(tensor, xi), eps_zz(tensor, xi)
            for b in range(0, len(group), cap):
                batch = group[b:b + cap]
                h = np.array([h_scales[j] for j in batch])[:, None, None] * u
                gaps = np.array([ells[j] for j in batch])[:, None, None]
                for j, integ in zip(batch, _integrand(tensor, zeta, exx, ezz, h, gaps)):
                    prev = last[j]
                    pressure = float(-_PREF_PA * (z_scale * h_scales[j] * (w_z @ integ @ w)))
                    err = math.inf if prev is None else abs(pressure - prev.pressure)
                    last[j] = ForceResult(pressure, err, evaluations, n)
                    if prev is not None and (err <= tol * abs(pressure) or err == 0.0):
                        out[j] = last[j]
    return [res if res is not None else ForceConvergenceError(
                f"pressure not converged to {tol:g} at order {_ORDERS[-1]} (ell={ell} nm)",
                partial)
            for res, partial, ell in zip(out, last, ells)]


def _force_quadpack(tensor: DielectricTensor, ell: float, tol: float) -> ForceResult:
    try:
        from scipy.integrate import IntegrationWarning, quad
    except ImportError as exc:
        raise ImportError("the quadpack engine needs scipy: "
                          "pip install filmcasimir[quadpack]") from exc
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
            ForceResult(pressure, err, counter[0], None),
        )
    return ForceResult(pressure, err, counter[0], None)


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
    _check_inputs((ell,), tol)
    if engine == "legendre":
        result = forces(tensor, (ell,), tol)[0]
        if isinstance(result, ForceConvergenceError):
            raise result
        return result
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
