"""Bound states of the three confinement models.

Root oracle: the textbook even/odd quantization conditions in product form
(h_even = k sin(kD/2) - kappa cos(kD/2), h_odd = k cos(kD/2) + kappa
sin(kD/2)), scanned on a dense grid and bisected.  This is an independent
derivation; the library solves the single arcsin form instead.

Level oracles for the edge cases: a 50-digit mpmath solve of the same
condition in theta = asin(k/k0), which also gives kappa = k0 cos(theta)
without cancellation, and bisection of the arcsin form on each level's own
bracket [(n-1) pi/D, min(n pi/D, k0)].

Momentum oracle: the commutator identity <n|d/dz|m> = (E_m - E_n)/(2 mu)
<n|z|m>, with the dipole integral done by adaptive quadrature.  No
derivatives of the envelope are ever taken numerically.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import bisect

from filmcasimir import qwell
from filmcasimir.constants import HBAR2_OVER_2ME as MU
from filmcasimir.materials import derive_bulk, well_depth
from filmcasimir.qwell import (
    FiniteWell,
    InfiniteWell,
    ParticleInBox,
    solve_spectrum,
    trk_sum,
)


def scan_roots(v0: float, D: float, n_grid: int = 1_000_000) -> np.ndarray:
    """All bound k of the finite well from the even/odd product forms."""
    k0 = math.sqrt(v0 / MU)

    def h_even(k):
        return k * np.sin(k * D / 2) - np.sqrt(k0**2 - k**2) * np.cos(k * D / 2)

    def h_odd(k):
        return k * np.cos(k * D / 2) + np.sqrt(k0**2 - k**2) * np.sin(k * D / 2)

    ks = np.linspace(k0 * 1e-9, k0 * (1.0 - 1e-12), n_grid)
    roots = []
    for h in (h_even, h_odd):
        vals = h(ks)
        sign_flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in sign_flip:
            roots.append(bisect(h, ks[i], ks[i + 1], xtol=1e-15, rtol=8.9e-16))
    return np.sort(np.asarray(roots))


def mp_level(v0: float, D: float, n: int) -> tuple[float, float]:
    """(k_n, kappa_n) from a 50-digit solve of k0 sin(t) + 2t/D = n pi/D."""
    with mpmath.workdps(50):
        k0 = mpmath.sqrt(mpmath.mpf(v0) / mpmath.mpf(MU))
        d = mpmath.mpf(D)
        t = mpmath.findroot(lambda t: k0 * mpmath.sin(t) + 2 * t / d - n * mpmath.pi / d,
                            (mpmath.mpf(0), mpmath.pi / 2), solver="anderson")
        return float(k0 * mpmath.sin(t)), float(k0 * mpmath.cos(t))


def bisect_levels(v0: float, D: float, n_bound: int) -> np.ndarray:
    """Levels 1..n_bound by bisection of k - n pi/D + (2/D) asin(k/k0)."""
    k0 = math.sqrt(v0 / MU)
    n = np.arange(1, n_bound + 1)
    lo, hi = (n - 1) * math.pi / D, np.minimum(n * math.pi / D, k0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        low = mid - n * math.pi / D + (2.0 / D) * np.arcsin(mid / k0) < 0.0
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
    return 0.5 * (lo + hi)


def dipole_momentum(spectrum, n: int, m: int) -> float:
    """<n|d/dz|m> via the dipole matrix element, adaptive quadrature."""
    D = spectrum.box_width
    if isinstance(spectrum.model, FiniteWell):
        kap = min(spectrum._fw_kappa[n - 1], spectrum._fw_kappa[m - 1])
        lim = D / 2 + 45.0 / kap
        pts = [-D / 2, D / 2]
    else:
        lim = D / 2
        pts = []

    def integrand(z):
        return spectrum.envelope(n, z) * z * spectrum.envelope(m, z)

    val, err = quad(integrand, -lim, lim, points=pts, limit=200,
                    epsabs=1e-13, epsrel=1e-12)
    e = spectrum.well_bottom_energies
    return (e[m - 1] - e[n - 1]) / (2.0 * MU) * val


# ---------------------------------------------------------------- roots


def test_fw_roots_match_grid_scan_cesium(presets):
    b = derive_bulk(presets["Cs"])
    v0 = well_depth(presets["Cs"], b.EF_bulk)
    sp = solve_spectrum(FiniteWell(v0), 2.0)
    oracle = scan_roots(v0, 2.0)
    assert sp.n_levels == oracle.size
    k0 = math.sqrt(v0 / MU)
    assert np.max(np.abs(sp.k_z - oracle)) < 1e-12 * k0


def test_fw_root_count_formula():
    # N = floor(k0 D / pi) + 1 bound states always
    rng = np.random.default_rng(7)
    for _ in range(40):
        v0 = float(rng.uniform(0.5, 30.0))
        D = float(rng.uniform(0.3, 12.0))
        sp = solve_spectrum(FiniteWell(v0), D)
        k0 = math.sqrt(v0 / MU)
        assert sp.n_levels == int(k0 * D / math.pi) + 1


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("offset", [1e-12, -1e-12])
def test_fw_levels_at_the_binding_threshold(N, offset):
    # k0 D/pi = N + 1e-12 binds level N+1 barely; N - 1e-12 has just lost it
    v0 = 4.0
    k0 = math.sqrt(v0 / MU)
    D = (N + offset) * math.pi / k0
    sp = solve_spectrum(FiniteWell(v0), D)
    assert sp.n_levels == (N + 1 if offset > 0 else N)
    for n in range(1, sp.n_levels + 1):
        k, kap = mp_level(v0, D, n)
        assert abs(sp.k_z[n - 1] - k) < 1e-12 * k0
        assert abs(sp._fw_kappa[n - 1] - kap) < 1e-14 * k0
    assert np.all(sp._fw_kappa > 0.0) and np.all(np.isfinite(sp._fw_amp))
    ms = np.arange(1, sp.n_levels + 1)
    assert np.all(np.isfinite(sp.momentum_row(1, ms)))


@pytest.mark.parametrize("v0,D", [(0.5, 0.3), (4.0, 0.25), (40.0, 0.05)])
def test_fw_one_level_well(v0, D):
    assert math.sqrt(v0 / MU) * D < math.pi
    sp = solve_spectrum(FiniteWell(v0), D)
    assert sp.n_levels == 1
    k, kap = mp_level(v0, D, 1)
    assert sp.k_z[0] == pytest.approx(k, rel=1e-14)
    assert sp._fw_kappa[0] == pytest.approx(kap, rel=1e-12)


def test_fw_deep_well_with_hundreds_of_levels():
    v0, D = 1e6, 0.3
    k0 = math.sqrt(v0 / MU)
    sp = solve_spectrum(FiniteWell(v0), D)
    assert sp.n_levels == int(k0 * D / math.pi) + 1 > 400
    want = bisect_levels(v0, D, sp.n_levels)
    assert np.max(np.abs(sp.k_z - want)) < 1e-12 * k0
    assert np.all(np.diff(sp.k_z) > 0.0) and sp.k_z[-1] < k0


def test_fw_kappa_just_below_the_rim(presets):
    # level 2 sits 2e-3 nm^-1 below the rim of a 9.9 nm^-1 well; sqrt(k0^2 - k^2)
    # was 1e-9 off here
    b = derive_bulk(presets["Cs"])
    v0, D = well_depth(presets["Cs"], b.EF_bulk), 0.3176949
    sp = solve_spectrum(FiniteWell(v0), D)
    k, kap = mp_level(v0, D, 2)
    assert sp.n_levels == 2 and kap < 3e-3
    assert sp.k_z[1] == pytest.approx(k, rel=1e-15)
    assert sp._fw_kappa[1] == pytest.approx(kap, rel=1e-11)


def test_fw_newton_cap_is_loud(monkeypatch):
    monkeypatch.setattr(qwell, "_NEWTON_CAP", 2)
    with pytest.raises(RuntimeError, match="not converged"):
        solve_spectrum(FiniteWell(9.754), 2.0)


def test_fw_energies_bound_and_ordered():
    sp = solve_spectrum(FiniteWell(6.0), 3.0)
    e = sp.well_bottom_energies
    assert np.all(e > 0.0)
    assert np.all(e < 6.0)
    assert np.all(np.diff(e) > 0.0)
    assert np.all(np.diff(sp.k_z) > 0.0)


def test_fw_deep_well_approaches_hard_wall():
    D = 2.0
    sp = solve_spectrum(FiniteWell(1e6), D)
    want = np.arange(1, 9) * math.pi / D
    assert np.allclose(sp.k_z[:8], want, rtol=2e-3)
    # and the lowest matrix element approaches the hard-wall value
    i12 = abs(sp.momentum_integral(1, 2))
    assert i12 == pytest.approx(8.0 / (3.0 * D), rel=5e-3)


def test_iwm_is_the_v0_limit_of_fwm():
    D = 1.7
    hard = solve_spectrum(InfiniteWell(), D, n_levels=4)
    soft = solve_spectrum(FiniteWell(2e7), D)
    assert np.allclose(soft.k_z[:4], hard.k_z, rtol=1e-3)


# ------------------------------------------------------- wavefunctions


@pytest.mark.parametrize("model,D", [
    (FiniteWell(3.727), 1.0),
    (FiniteWell(15.975), 1.3),
    (InfiniteWell(), 2.0),
    (ParticleInBox(2.6), 2.0),
])
def test_envelope_orthonormality(model, D):
    sp = solve_spectrum(model, D, n_levels=6)
    nmax = min(sp.n_levels, 6)
    lim = sp.box_width / 2
    if isinstance(model, FiniteWell):
        lim += 45.0 / sp._fw_kappa[nmax - 1]
    z = np.linspace(-lim, lim, 400_001)
    fs = [sp.envelope(n, z) for n in range(1, nmax + 1)]
    for i in range(nmax):
        for j in range(i, nmax):
            got = np.trapezoid(fs[i] * fs[j], z)
            want = 1.0 if i == j else 0.0
            assert abs(got - want) < 1e-8


def test_envelope_satisfies_schroedinger_equation():
    v0, D = 9.754, 1.1
    sp = solve_spectrum(FiniteWell(v0), D)
    h = 1e-3
    for n in range(1, sp.n_levels + 1):
        # probe interior and tail, away from the potential steps
        for z0 in (0.11, D / 4, D / 2 - 0.05, D / 2 + 0.05, D / 2 + 0.4):
            z = z0 + h * np.arange(-2, 3)
            f = sp.envelope(n, z)
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            v = -v0 if z0 < D / 2 else 0.0
            resid = -MU * d2 + (v - (sp.well_bottom_energies[n - 1] - v0)) * f[2]
            assert abs(resid) < 1e-6


def test_envelope_parity_and_decay():
    sp = solve_spectrum(FiniteWell(5.0), 2.5)
    z = np.linspace(0.1, 4.0, 50)
    for n in range(1, sp.n_levels + 1):
        sign = 1.0 if n % 2 == 1 else -1.0
        assert np.allclose(sp.envelope(n, -z), sign * sp.envelope(n, z),
                           rtol=0, atol=1e-13)
    # exponential tail, no nodes outside the well
    tail = sp.envelope(1, np.linspace(1.3, 5.0, 200))
    assert np.all(tail > 0.0)
    assert np.all(np.diff(tail) < 0.0)


def test_hard_wall_envelope_vanishes_outside():
    sp = solve_spectrum(InfiniteWell(), 2.0, n_levels=3)
    z = np.array([-1.001, -5.0, 1.001, 7.0])
    for n in (1, 2, 3):
        assert np.all(sp.envelope(n, z) == 0.0)
    edge = sp.envelope(1, np.array([-1.0, 1.0]))
    assert np.allclose(edge, 0.0, atol=1e-12)


def test_spill_out_grows_with_level():
    """Higher levels sit closer to threshold and leak more charge."""
    sp = solve_spectrum(FiniteWell(3.727), 2.0)
    D = sp.D
    fractions = []
    for n in range(1, sp.n_levels + 1):
        kap = sp._fw_kappa[n - 1]
        z = np.linspace(D / 2, D / 2 + 50.0 / kap, 200_001)
        out = 2.0 * np.trapezoid(sp.envelope(n, z) ** 2, z)
        fractions.append(out)
    assert np.all(np.diff(fractions) > 0.0)
    assert fractions[0] > 0.0
    assert fractions[-1] < 0.5


# ----------------------------------------------------- matrix elements


def test_momentum_elements_against_dipole_oracle():
    cases = [
        (FiniteWell(3.727), 1.0),
        (FiniteWell(15.975), 1.076),
        (FiniteWell(9.754), 2.4),
        (ParticleInBox(3.1), 2.0),
        (InfiniteWell(), 1.5),
    ]
    for model, D in cases:
        sp = solve_spectrum(model, D, n_levels=7)
        nmax = min(sp.n_levels, 7)
        for n in range(1, nmax + 1):
            for m in range(n + 1, nmax + 1):
                got = sp.momentum_integral(n, m)
                if (n + m) % 2 == 0:
                    assert got == 0.0
                    continue
                want = dipole_momentum(sp, n, m)
                assert got == pytest.approx(want, rel=2e-9, abs=1e-10)


def test_momentum_antisymmetry_and_parity_selection():
    sp = solve_spectrum(FiniteWell(9.754), 2.0)
    for n in range(1, sp.n_levels + 1):
        assert sp.momentum_integral(n, n) == 0.0
        for m in range(1, sp.n_levels + 1):
            a = sp.momentum_integral(n, m)
            b = sp.momentum_integral(m, n)
            assert a == pytest.approx(-b, rel=0, abs=1e-14)


def test_hard_wall_momentum_closed_form():
    D = 2.0
    sp = solve_spectrum(InfiniteWell(), D, n_levels=8)
    assert sp.momentum_integral(1, 2) == pytest.approx(-8.0 / (3.0 * D), rel=1e-14)
    for n, m in [(1, 4), (2, 3), (3, 6)]:
        want = 4.0 * n * m / (D * (n * n - m * m))
        assert sp.momentum_integral(n, m) == pytest.approx(want, rel=1e-14)


def test_momentum_row_matches_scalar_calls():
    sp = solve_spectrum(FiniteWell(9.754), 2.0)
    ms = np.arange(1, sp.n_levels + 1)
    row = sp.momentum_row(2, ms)
    for j, m in enumerate(ms):
        assert row[j] == sp.momentum_integral(2, int(m))


@pytest.mark.parametrize("model,D", [(FiniteWell(9.754), 2.0), (FiniteWell(3.727), 1.0),
                                     (InfiniteWell(), 1.5), (ParticleInBox(3.1), 2.0)])
def test_momentum_row_broadcasts_an_array_of_levels(model, D):
    sp = solve_spectrum(model, D, n_levels=12)
    ns, ms = np.meshgrid(np.arange(1, sp.n_levels + 1), np.arange(1, sp.n_levels + 1),
                         indexing="ij")
    grid = sp.momentum_row(ns, ms)
    for n in range(1, sp.n_levels + 1):
        assert np.array_equal(grid[n - 1], sp.momentum_row(n, ms[n - 1]))
    flat = sp.momentum_row(ns.ravel(), ms.ravel())
    assert np.array_equal(flat, grid.ravel())


# ------------------------------------------------------------ sum rule


def test_trk_sum_hard_wall():
    sp = solve_spectrum(InfiniteWell(), 2.0, n_levels=4000)
    f12 = 4.0 * MU * sp.momentum_integral(1, 2) ** 2 / (
        sp.well_bottom_energies[1] - sp.well_bottom_energies[0])
    assert f12 == pytest.approx(256.0 / (27.0 * math.pi**2), rel=1e-13)
    assert trk_sum(sp, 1) == pytest.approx(1.0, abs=1e-6)
    assert trk_sum(sp, 3) == pytest.approx(1.0, abs=1e-6)


def test_trk_deficit_shrinks_with_well_depth():
    # bound states only: deeper wells capture more of the sum rule
    d5 = 1.0 - trk_sum(solve_spectrum(FiniteWell(5.0), 2.0), 1)
    d50 = 1.0 - trk_sum(solve_spectrum(FiniteWell(50.0), 2.0), 1)
    assert 0.0 < d50 < d5 < 0.2


# ------------------------------------------------------------ plumbing


def test_solve_spectrum_validation():
    with pytest.raises(ValueError):
        solve_spectrum(FiniteWell(-1.0), 2.0)
    with pytest.raises(ValueError):
        solve_spectrum(InfiniteWell(), -2.0)
    with pytest.raises(ValueError):
        solve_spectrum(ParticleInBox(1.0), 2.0)  # box narrower than the film


@pytest.mark.parametrize("model", [FiniteWell(3.0), InfiniteWell(), ParticleInBox(1e9)])
@pytest.mark.parametrize("D", [math.nan, math.inf])
def test_non_finite_thickness_rejected(model, D):
    with pytest.raises(ValueError, match="thickness"):
        solve_spectrum(model, D)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_model_parameters_rejected(bad):
    with pytest.raises(ValueError, match="well depth"):
        FiniteWell(bad)
    with pytest.raises(ValueError, match="box width"):
        ParticleInBox(bad)


def test_pbm_uses_box_width():
    sp = solve_spectrum(ParticleInBox(2.5), 2.0, n_levels=3)
    assert sp.box_width == 2.5
    assert sp.k_z[0] == pytest.approx(math.pi / 2.5, rel=1e-14)


def test_extended_adds_levels():
    sp = solve_spectrum(InfiniteWell(), 2.0, n_levels=4)
    big = sp.extended(16)
    assert big.n_levels == 16
    assert np.array_equal(big.k_z[:4], sp.k_z)
    fw = solve_spectrum(FiniteWell(3.0), 2.0)
    assert fw.extended(10_000) is fw  # bound set is already complete
