"""Dielectric tensor: merged pair table vs raw double sums, sum rule, limits.

Main oracle: rebuild eps_zz from scratch as the textbook double sum over
occupied subbands i and ALL partners j != i (both directions), using
position matrix elements and dimensionless oscillator strengths
f_ij = dE_ij |z_ij|^2 / mu.  The library's one-directional (i < j) table
with weights w_i - w_j must agree identically on the same transition set.
"""
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from filmcasimir.constants import E2_GAUSS, HBAR2_OVER_2ME as MU, HBAR_EVS
from filmcasimir import dielectric
from filmcasimir.dielectric import (
    _PREF, DielectricTensor, TensorBuildError, _pair_block, _pole_sum, build_tensor, eps_xx,
    eps_zz, hard_wall_eps_zz0,
)
from filmcasimir.estructure import film_state
from filmcasimir.lifshitz import force, quantized_slab, reference_slab
from filmcasimir.materials import derive_bulk
from filmcasimir.qwell import WellSpectrum

XI_PROBE = (0.0, 1e14, 1e15, 1e16, 3e16, 2e17)  # rad/s


def raw_hard_wall_eps(state, d_box: float, j_max: int, gamma: float, xi) -> float:
    """Unmerged double sum for a hard-wall ladder of width d_box."""
    s = (HBAR_EVS * xi) * (HBAR_EVS * (xi + gamma))
    e = MU * (np.arange(1, j_max + 1) * math.pi / d_box) ** 2
    acc = 0.0
    for i, w in enumerate(state.subband_weights, start=1):
        js = np.arange(1, j_max + 1)
        js = js[(js + i) % 2 == 1]
        de = e[js - 1] - e[i - 1]
        z2 = 64.0 * d_box**2 * (i * js) ** 2 / (math.pi**4 * (i * i - js * js) ** 4)
        acc += w * np.sum(de * z2 / (de**2 + s))
    return 1.0 + 8.0 * math.pi * E2_GAUSS * acc / d_box


@pytest.mark.parametrize("gamma", [0.0, 5e14])
def test_hard_wall_table_matches_raw_double_sum(presets, gamma):
    st = film_state(presets["Cs"], "IWM", 2.0)
    t = build_tensor(st).with_gamma(gamma)
    for xi in XI_PROBE:
        # the raw sum converges like j^-8; growth past 4096 partners is the
        # fp accumulation floor, so compare with a matching absolute term
        coarse = raw_hard_wall_eps(st, 2.0, 2048, gamma, xi)
        fine = raw_hard_wall_eps(st, 2.0, 4096, gamma, xi)
        assert (coarse - 1.0) == pytest.approx(fine - 1.0, rel=1e-9, abs=1e-9)
        got = eps_zz(t, xi)
        assert (got - 1.0) == pytest.approx(fine - 1.0, rel=1e-9, abs=1e-9)


def test_enlarged_box_table_matches_raw_double_sum(presets):
    st = film_state(presets["Al"], "PBM", 1.0)
    t = build_tensor(st)
    assert t.d_norm == st.spectrum.box_width
    for xi in XI_PROBE:
        want = raw_hard_wall_eps(st, st.spectrum.box_width, 4096, 0.0, xi)
        assert (eps_zz(t, xi) - 1.0) == pytest.approx(want - 1.0, rel=1e-9, abs=1e-9)


def test_finite_well_table_matches_quadrature_double_sum(presets):
    # position elements by direct quadrature, oscillator strengths from them
    st = film_state(presets["Cs"], "FWM", 2.0)
    sp = st.spectrum
    lim = 1.0 + 45.0 / math.sqrt((sp.model.v0 - sp.well_bottom_energies[-1]) / MU)

    def z_elem(i, j):
        f = lambda z: float(sp.envelope(i, z) * z * sp.envelope(j, z))
        val, err = quad(f, -lim, lim, points=[-1.0, 1.0], limit=200,
                        epsabs=1e-13, epsrel=1e-12)
        return val

    e = sp.well_bottom_energies
    t = build_tensor(st)
    for xi in (0.0, 1e15, 3e16):
        s = (HBAR_EVS * xi) ** 2
        acc = 0.0
        for i, w in enumerate(st.subband_weights, start=1):
            for j in range(1, sp.n_levels + 1):
                if (i + j) % 2 == 0:
                    continue
                de = e[j - 1] - e[i - 1]
                acc += w * de * z_elem(i, j) ** 2 / (de**2 + s)
        want = 1.0 + 8.0 * math.pi * E2_GAUSS * acc / 2.0
        assert (eps_zz(t, xi) - 1.0) == pytest.approx(want - 1.0, rel=1e-8)


def test_static_response_approaches_closed_form(presets):
    # hard-wall continuum limit: (eps_zz(0)-1)/D^2 -> 16 e^2 kF (pi^4/96)/(pi^5 mu),
    # and the ratio to it is a universal function of kF*D/pi alone
    coef = 16.0 * E2_GAUSS * (math.pi**4 / 96.0) / (math.pi**5 * MU)
    rels = {}
    for name in ("Al", "Ag", "Cs"):
        b = derive_bulk(presets[name])
        for x in (10.0, 40.0):
            D = x * math.pi / b.kF_bulk
            t = build_tensor(film_state(presets[name], "IWM", D))
            rels[name, x] = (eps_zz(t, 0.0) - 1.0) / D**2 / (coef * b.kF_bulk) - 1.0
    for name in ("Al", "Ag", "Cs"):
        assert -0.15 < rels[name, 10.0] < -0.05
        assert -0.035 < rels[name, 40.0] < -0.02
        assert abs(rels[name, 40.0]) < abs(rels[name, 10.0])
    for x in (10.0, 40.0):
        assert rels["Al", x] == pytest.approx(rels["Cs", x], abs=1e-9)
        assert rels["Ag", x] == pytest.approx(rels["Cs", x], abs=1e-9)


@pytest.mark.parametrize("i", [1, 2, 3, 6, 11])
def test_hard_wall_partner_sum_closed_form(i):
    # S(i) = sum_{j+i odd} j^2/(j^2-i^2)^5; each term is one correctly rounded
    # int/int division, and the terms past j = 20,000 add below 1e-28
    terms = [j * j / (j * j - i * i) ** 5 for j in range(1, 20_001) if (i + j) % 2 == 1]
    closed = math.pi**2 * (15.0 - math.pi**2 * i * i) / (3072.0 * i**6)
    assert closed == pytest.approx(math.fsum(terms), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("model", ["IWM", "PBM"])
@pytest.mark.parametrize("name", ["Al", "Ag", "Cs"])
def test_hard_wall_static_closed_form_matches_the_table(presets, name, model):
    # the table drops partner blocks below _TABLE_TOL = 1e-13 of the static sum
    b = derive_bulk(presets[name])
    for x in np.geomspace(0.5, 160.0, 12):
        st = film_state(presets[name], model, float(x) * math.pi / b.kF_bulk)
        want = eps_zz(build_tensor(st), 0.0)
        assert hard_wall_eps_zz0(st) == pytest.approx(want, rel=2e-13, abs=0.0)


def test_hard_wall_static_closed_form_rejects_a_finite_well(presets):
    with pytest.raises(ValueError, match="hard-wall"):
        hard_wall_eps_zz0(film_state(presets["Al"], "FWM", 2.0))


def drude_closed_form(bulk, gamma, xi):
    """1 + (hbar Omega_P)^2 / (hbar xi (hbar xi + hbar gamma))."""
    hx = HBAR_EVS * xi
    return 1.0 + (HBAR_EVS * bulk.Omega_P) ** 2 / (hx * (hx + HBAR_EVS * gamma))


def test_in_plane_component_is_plasma_form(presets):
    xi = np.geomspace(1e13, 1e18, 7)
    for model in ("FWM", "IWM"):
        b = derive_bulk(presets["Ag"])
        t = build_tensor(film_state(presets["Ag"], model, 1.5)).with_gamma(1e14)
        assert np.allclose(eps_xx(t, xi), drude_closed_form(b, 1e14, xi), rtol=1e-12)
        assert t.omega_P == pytest.approx(b.Omega_P, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 5e13, 1e15])
def test_reference_is_the_zero_energy_drude_pole(presets, gamma):
    # the bulk reference is the pole table with one pole at dE = 0, weight (hbar Omega_P)^2
    xi = np.geomspace(1e12, 1e19, 15)
    for name in ("Al", "Ag", "Cs"):
        want = drude_closed_form(derive_bulk(presets[name]), gamma, xi)
        t = reference_slab(presets[name], 2.0, gamma)
        assert np.array_equal(eps_xx(t, xi), want)
        assert np.array_equal(eps_zz(t, xi), want)
        assert eps_zz(t, float(xi[3])) == want[3]
        assert t.sum_rule_completeness == 1.0


def test_optics_records_pickle_and_give_the_same_force(presets):
    for slab in (quantized_slab(presets["Cs"], "IWM", 1.0, 1e14),
                 reference_slab(presets["Cs"], 1.0, 1e14)):
        back = pickle.loads(pickle.dumps(slab))
        assert back.D == slab.D and back.gamma == slab.gamma and back.d_norm == slab.d_norm
        assert np.array_equal(back.de, slab.de)
        assert np.array_equal(back.coef, slab.coef)
        assert force(back, 3.0, tol=1e-6) == force(slab, 3.0, tol=1e-6)


@pytest.mark.parametrize("model", ["FWM", "IWM", "PBM"])
def test_thickness_travels_with_the_tensor(presets, model):
    for D in (1.0, 2.7, 5.0):
        t = quantized_slab(presets["Al"], model, D, 1e14)
        assert t.D == D
        if model == "PBM":  # the box is wider than the ion slab
            assert t.d_norm > D
        assert t.with_gamma(0.0).D == D
        assert pickle.loads(pickle.dumps(t)).D == D
    assert reference_slab(presets["Al"], 2.7).D == 2.7


@pytest.mark.parametrize("D", [0.0, -1.0, math.nan, math.inf])
def test_tensor_rejects_a_bad_thickness(presets, D):
    t = reference_slab(presets["Al"], 1.0)
    with pytest.raises(ValueError, match="thickness"):
        DielectricTensor(gamma=0.0, hw_p2=t.hw_p2, d_norm=1.0, de=t.de, coef=t.coef,
                         osc_weight=t.osc_weight, D=D)
    with pytest.raises(ValueError, match="thickness"):
        replace(t, D=D)


# xi = 0, then 1e6..1e24 rad/s: the static limit, the flat region far below
# the smallest transition, every pole, and the 1/s tail past the last one
XI_ORACLE = np.concatenate([[0.0], np.geomspace(1e6, 1e24, 73)])


def fsum_eps_zz(tensor, xi: float) -> float:
    """1 + sum_p c_p/(dE_p^2 + s), each term added exactly (math.fsum)."""
    s = (HBAR_EVS * xi) * (HBAR_EVS * (xi + tensor.gamma))
    return 1.0 + math.fsum(tensor.coef / (tensor.de**2 + s))


@pytest.mark.parametrize("model", ["FWM", "IWM", "PBM"])
@pytest.mark.parametrize("name", ["Al", "Ag", "Cs"])
def test_compiled_eps_zz_matches_the_exact_pole_sum(presets, name, model):
    """The pole table a slab compiles once per film gives the exact sum at every xi."""
    for D in (1.0, 5.0, 20.0):
        state = film_state(presets[name], model, D)
        for gamma in (0.0, presets[name].relaxation_frequencies[0]):
            t = quantized_slab(presets[name], model, D, gamma)
            exact = build_tensor(state).with_gamma(gamma)
            assert np.array_equal(t.de, exact.de) and np.array_equal(t.coef, exact.coef)
            got = eps_zz(t, XI_ORACLE)
            want = np.array([fsum_eps_zz(exact, xi) for xi in XI_ORACLE])
            assert np.abs(got / want - 1.0).max() <= 1e-12
            assert np.all(got >= 1.0)
            # non-increasing to rounding, and decreasing wherever the sum visibly drops
            assert np.all(np.diff(got) <= 1e-14 * got[1:])
            drops = -np.diff(want) > 1e-12 * want[1:]
            assert np.all(np.diff(got)[drops] < 0.0)


@pytest.fixture(scope="module")
def cs_iwm_table(presets):
    """Compiled pole table of one Cs IWM film."""
    return quantized_slab(presets["Cs"], "IWM", 5.0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(6.0, 25.0).map(lambda e: 10.0**e)),
       st.one_of(st.just(0.0), st.floats(0.0, 1e16)))
def test_compiled_eps_zz_holds_at_any_frequency_and_relaxation(cs_iwm_table, xi, gamma):
    fast = cs_iwm_table.with_gamma(gamma)
    assert fast.de is cs_iwm_table.de and fast.coef is cs_iwm_table.coef  # the table is gamma-free
    got = eps_zz(fast, xi)
    assert got >= 1.0
    assert abs(got / fsum_eps_zz(fast, xi) - 1.0) <= 1e-12


@pytest.mark.parametrize("rows", [1, 3])
def test_pole_sum_blocks_agree_bit_for_bit(cs_iwm_table, monkeypatch, rows):
    # 10 frequencies in blocks of `rows`: every block full (1) or the last one partial (3)
    t = cs_iwm_table.with_gamma(1e14)
    xi = np.concatenate([[0.0], np.geomspace(1e12, 1e19, 9)])
    s = (HBAR_EVS * xi) * (HBAR_EVS * (xi + t.gamma))
    whole = _pole_sum(t, s)
    assert dielectric._CHUNK >= s.size * t.de.size  # one block by default
    monkeypatch.setattr(dielectric, "_CHUNK", rows * t.de.size)
    blocked = _pole_sum(t, s)
    assert np.array_equal(blocked, whole)
    want = np.array([math.fsum(t.coef / (t.de**2 + x)) for x in s])
    assert np.abs(blocked / want - 1.0).max() <= 1e-12


def test_depleted_box_plasma_frequency(presets):
    b = derive_bulk(presets["Ag"])
    st = film_state(presets["Ag"], "PBM", 1.5)
    t = build_tensor(st)
    ratio = np.sum(st.subband_weights) / st.spectrum.box_width / b.n0
    assert ratio < 1.0
    assert t.omega_P == pytest.approx(b.Omega_P * math.sqrt(ratio), rel=1e-12)
    assert t.omega_P < b.Omega_P


def test_sum_rule_completeness(presets):
    for name in ("Al", "Cs"):
        for model in ("IWM", "PBM"):
            c = build_tensor(film_state(presets[name], model, 2.0)).sum_rule_completeness
            assert abs(c - 1.0) < 1e-12  # the partners past the table are summed in closed form
        c = build_tensor(film_state(presets[name], "FWM", 2.0)).sum_rule_completeness
        assert 0.9 < c < 0.99999  # bound-bound only, continuum weight missing


@pytest.mark.parametrize("model", ["IWM", "PBM"])
@pytest.mark.parametrize("x", [0.6, 7.3, 40.4])
def test_hard_wall_oscillator_weight_is_the_sum_rule_value(presets, model, x):
    # the table's sum of c_p plus every partner past the table up to J falls
    # short of (hbar omega_P)^2 by the partners above J, which are at most
    # sum_i w_i 16 i^2/(mu pi^2) (1 - i^2/J^2)^-3 (1/J^4 + 1/(6 J^3)) each
    J = 100_000
    b = derive_bulk(presets["Cs"])
    st = film_state(presets["Cs"], model, x * math.pi / b.kF_bulk)
    t = build_tensor(st)
    m0, w, i = st.m0, st.subband_weights, np.arange(1, st.m0 + 1)
    assert t.osc_weight == t.hw_p2 and 1 <= m0 <= 45

    def pairs_up_to(j):
        return int(sum(max(0, (j - k + 1) // 2) for k in range(1, m0 + 1)))

    j_table = 2  # the table's last partner: the table holds every pair up to it
    while pairs_up_to(j_table) < t.de.size:
        j_table += 1
    assert pairs_up_to(j_table) == t.de.size
    sp = st.spectrum.extended(J)
    e = sp.well_bottom_energies
    past = []
    for k in i:
        js = np.arange(j_table + 1 + (j_table + k) % 2, J + 1, 2)
        past.append(w[k - 1] * sp.momentum_row(int(k), js) ** 2 / (e[js - 1] - e[k - 1]))
    total = math.fsum(t.coef) + _PREF / t.d_norm * math.fsum(np.concatenate(past))
    tail = 16.0 * i**2 / (MU * math.pi**2) * (1.0 - i**2 / J**2) ** -3 * (1.0 / J**4 + 1.0 / (6.0 * J**3))
    bound = _PREF / t.d_norm * float(w @ tail)
    slack = 1e-14 * t.hw_p2
    assert -slack <= t.hw_p2 - total <= bound + slack


def test_out_of_plane_monotone_with_clean_limits(presets):
    t = build_tensor(film_state(presets["Cs"], "IWM", 2.0))
    xi = np.concatenate([[0.0], np.geomspace(1e12, 1e19, 30)])
    vals = eps_zz(t, xi)
    assert vals[0] > 1.0
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 1.0 + 1e-3
    # all oscillator weight is recovered at high frequency
    s = (HBAR_EVS * 1e20) ** 2
    assert 0.999 < (eps_zz(t, 1e20) - 1.0) * s / t.osc_weight < 1.0 + 1e-7


def test_relaxation_damps_at_finite_frequency_only(presets):
    st = film_state(presets["Al"], "FWM", 1.0)
    live = build_tensor(st)
    damped = live.with_gamma(1e15)
    assert eps_zz(damped, 0.0) == eps_zz(live, 0.0)  # S(0) = 0 for any gamma
    for xi in (1e13, 1e15, 1e17):
        assert eps_zz(damped, xi) < eps_zz(live, xi)
        assert eps_xx(damped, xi) < eps_xx(live, xi)


def test_isotropy_restored_for_thick_films(presets):
    b = derive_bulk(presets["Cs"])
    xi = 0.3 * b.Omega_P
    gaps = []
    for x in (5.0, 20.0, 50.0):
        D = x * math.pi / b.kF_bulk
        t = build_tensor(film_state(presets["Cs"], "IWM", D))
        gaps.append(abs(eps_zz(t, xi) / eps_xx(t, xi) - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.025


def test_scalar_and_array_evaluation_agree(presets):
    t = build_tensor(film_state(presets["Cs"], "IWM", 2.0)).with_gamma(1e14)
    xi = np.geomspace(1e13, 1e17, 5)
    arr = eps_zz(t, xi)
    for i, x in enumerate(xi):
        assert eps_zz(t, float(x)) == arr[i]
    grid = eps_zz(t, xi.reshape(1, 5))
    assert grid.shape == (1, 5)
    assert np.array_equal(grid[0], arr)


def test_argument_validation(presets):
    t = build_tensor(film_state(presets["Cs"], "IWM", 2.0))
    with pytest.raises(ValueError):
        eps_xx(t, 0.0)
    with pytest.raises(ValueError):
        eps_zz(t, -1.0)
    # non-finite frequencies would give nan, or 1.0 at inf; both are rejected
    for bad in (math.nan, math.inf, -math.inf):
        for eps in (eps_xx, eps_zz):
            with pytest.raises(ValueError, match="finite"):
                eps(t, bad)
            with pytest.raises(ValueError, match="finite"):
                eps(t, np.array([1e15, bad]))
    # the bulk reference's dE = 0 pole diverges at xi = 0, as eps_xx does
    drude = reference_slab(presets["Cs"], 1.0)
    with pytest.raises(ValueError, match="xi = 0"):
        eps_zz(drude, 0.0)
    with pytest.raises(ValueError, match="xi = 0"):
        eps_zz(drude, np.array([1e15, 0.0]))
    with pytest.raises(ValueError):
        t.with_gamma(-1.0)
    with pytest.raises(ValueError):
        reference_slab(presets["Cs"], 1.0, gamma=-1.0)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_non_finite_relaxation_rejected(presets, gamma):
    st = film_state(presets["Al"], "FWM", 1.0)
    with pytest.raises(ValueError, match="relaxation"):
        build_tensor(st).with_gamma(gamma)
    with pytest.raises(ValueError, match="relaxation"):
        reference_slab(presets["Al"], 1.0, gamma)


def test_partner_cap_failure_is_loud(presets, monkeypatch):
    st = film_state(presets["Cs"], "IWM", 0.5)
    monkeypatch.setattr(dielectric, "_TABLE_TOL", 0.0)
    with pytest.raises(TensorBuildError):
        build_tensor(st)


def test_partner_cap_overrun_raises_before_the_ladder_grows(presets, monkeypatch):
    st = film_state(presets["Cs"], "IWM", 0.5)
    cut = dielectric._hard_wall_cut(st)

    def refuse(self, n_levels):
        raise AssertionError(f"ladder extended to {n_levels} levels")

    monkeypatch.setattr(WellSpectrum, "extended", refuse)
    monkeypatch.setattr(dielectric, "_LEVEL_CAP", cut)  # a cut at the cap itself is allowed
    with pytest.raises(AssertionError, match=f"extended to {cut} "):
        build_tensor(st)
    monkeypatch.setattr(dielectric, "_LEVEL_CAP", cut - 1)
    with pytest.raises(TensorBuildError, match="not converged"):
        build_tensor(st)


def hard_wall_static_terms(w, js):
    """Static terms w_i i^2 j^2/(j^2-i^2)^5 of each occupied i with its partners in js."""
    i = np.arange(1, w.size + 1, dtype=float)[:, None]
    j = js.astype(float)[None, :]
    terms = w[:, None] * i * i * j * j / (j * j - i * i) ** 5
    return terms[(i + j) % 2 == 1]


@pytest.mark.parametrize("model", ["IWM", "PBM"])
@pytest.mark.parametrize("name", ["Al", "Ag", "Cs"])
def test_hard_wall_cut_drops_at_most_the_table_tolerance(presets, name, model):
    # in units of 16 _PREF/(L a)^3: the terms from J+1 to 16 J added by math.fsum, and every
    # term past K = 16 J bounded by w_i i^2 j^-8 (1 - (i/K)^2)^-5, every other j from K+1
    b = derive_bulk(presets[name])
    for x in np.geomspace(0.5, 160.0, 12):
        st = film_state(presets[name], model, float(x) * math.pi / b.kF_bulk)
        cut, w, m0 = dielectric._hard_wall_cut(st), st.subband_weights, st.m0
        i = np.arange(1, m0 + 1)
        assert cut >= max(4 * m0, 64)
        pairs = sum(len(range(k + 1, cut + 1, 2)) for k in i)
        assert build_tensor(st).de.size == pairs  # the table stops at the cut
        K = 16 * cut
        near = math.fsum(hard_wall_static_terms(w, np.arange(cut + 1, K + 1)))
        far = float(w @ (i * i * (1.0 - (i / K) ** 2) ** -5))
        far *= (K + 1.0) ** -8 + (K + 1.0) ** -7 / 14.0
        s = math.pi**2 * (15.0 - math.pi**2 * i * i) / (3072.0 * i**6)
        static = math.fsum(w * i * i * s)
        assert near + far <= dielectric._TABLE_TOL * static


def pair_block_by_rows(spectrum, weights, d_norm):
    """Reference pair block: one occupied level i at a time, partners ascending."""
    e = spectrum.well_bottom_energies
    m0 = weights.size
    de_parts, num_parts = [np.empty(0)], [np.empty(0)]
    for i in range(1, m0 + 1):
        js = np.arange(i + 1, spectrum.n_levels + 1)
        js = js[(i + js) % 2 == 1]
        i_nm = spectrum.momentum_row(i, js)
        w_j = np.where(js <= m0, weights[np.minimum(js, m0) - 1], 0.0)
        de_parts.append(e[js - 1] - e[i - 1])
        num_parts.append(_PREF * i_nm**2 * (weights[i - 1] - w_j) / d_norm)
    return np.concatenate(de_parts), np.concatenate(num_parts)


@pytest.mark.parametrize("name,model,D", [("Cs", "FWM", 2.0), ("Al", "FWM", 5.0),
                                          ("Al", "IWM", 3.0), ("Ag", "PBM", 2.0)])
def test_pair_block_matches_the_row_by_row_reference(presets, name, model, D):
    state = film_state(presets[name], model, D)
    weights, d_norm = state.subband_weights, state.spectrum.box_width
    spectra = [state.spectrum]
    if model != "FWM":  # the ladder as filled, at the cut's floor j0 and well past it
        j0 = max(4 * state.m0, 64)
        spectra += [state.spectrum.extended(j0), state.spectrum.extended(8 * j0)]
    for sp in spectra:
        de, num = _pair_block(sp, weights, d_norm)
        want_de, want_num = pair_block_by_rows(sp, weights, d_norm)
        assert np.array_equal(de, want_de) and np.array_equal(num, want_num)
        assert de.size and num.min() > 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(("Al", "Ag", "Cs")), model=st.sampled_from(("FWM", "IWM", "PBM")),
       log_d=st.floats(math.log10(0.5), 1.0),
       xis=st.lists(st.one_of(st.just(0.0), st.floats(10.0, 19.0).map(lambda e: 10.0**e)),
                    min_size=2, max_size=8),
       gammas=st.lists(st.one_of(st.just(0.0), st.floats(1e12, 1e16)), min_size=2, max_size=4))
def test_eps_zz_never_rises_in_frequency_or_relaxation(presets, name, model, log_d, xis, gammas):
    t = quantized_slab(presets[name], model, 10.0**log_d)
    xi = np.sort(np.array(xis))
    by_gamma = np.array([eps_zz(t.with_gamma(g), xi) for g in sorted(gammas)])
    assert np.all(by_gamma >= 1.0)
    assert np.all(np.diff(by_gamma, axis=1) <= 0.0)  # in xi
    assert np.all(np.diff(by_gamma, axis=0) <= 0.0)  # in gamma
