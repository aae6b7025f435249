"""Pressure integral and reflection factors.

Reflection oracle: solve the slab boundary-value problem directly as a
4x4 linear system in (r, A, B, t) with scaled exponentials, matching the
field and its (1/eps-weighted) derivative at both faces.  No reflection
formula is reused, so the cancellation-free product form in the library
is checked end to end, signs included via Q^2.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from filmcasimir.constants import C_NM_S, HBAR_JS
from filmcasimir.dielectric import DielectricTensor, eps_xx, eps_zz
from filmcasimir import lifshitz
from filmcasimir.lifshitz import (
    ForceConvergenceError,
    _ln_q,
    delta_D,
    delta_P,
    force,
    force_pair,
    ideal_mirror_pressure,
    isotropic_slab,
    q_factors,
    quantized_slab,
    reference_slab,
)
from filmcasimir.materials import BulkReference, derive_bulk
from filmcasimir.sweep import _resolved_gammas, figure_plan


def bvp_q2(slab: DielectricTensor, k: float, xi: float, ell: float) -> tuple[float, float]:
    """(Q_TM^2, Q_TE^2) from a direct solve of the matching conditions."""
    zeta = xi / C_NM_S
    g0 = math.hypot(k, zeta)
    exx = eps_xx(slab, xi)
    ezz = eps_zz(slab, xi)
    out = []
    for gs, w in (
        (math.sqrt((k * k / ezz + zeta * zeta) * exx), 1.0 / exx),  # TM: match psi'/eps
        (math.sqrt(k * k + zeta * zeta * exx), 1.0),                # TE: match psi'
    ):
        e = math.exp(-gs * slab.D)
        # front psi = exp(-g0 z) + r exp(+g0 z); slab A exp(-gs z) + B exp(gs (z-D));
        # back t exp(-g0 (z-D))
        m = np.array([
            [-1.0, 1.0, e, 0.0],
            [g0, w * gs, -w * gs * e, 0.0],
            [0.0, e, 1.0, -1.0],
            [0.0, -w * gs * e, w * gs, g0],
        ])
        rhs = np.array([1.0, g0, 0.0, 0.0])
        r = np.linalg.solve(m, rhs)[0]
        out.append(r * r * math.exp(-2.0 * g0 * ell))
    return out[0], out[1]


def test_reflection_factors_match_boundary_value_solve(presets):
    slabs = [
        quantized_slab(presets["Cs"], "FWM", 2.0, gamma=1e14),
        isotropic_slab(derive_bulk(presets["Al"]), 0.0, 1.5),
    ]
    rng = np.random.default_rng(31)
    for slab in slabs:
        for _ in range(40):
            k = float(rng.uniform(0.001, 1.0))
            xi = float(10.0 ** rng.uniform(13.0, 17.5))
            ell = float(rng.uniform(0.5, 30.0))
            q_tm, q_te = q_factors(slab, k, xi, ell)
            b_tm, b_te = bvp_q2(slab, k, xi, ell)
            assert q_tm**2 == pytest.approx(b_tm, rel=1e-10, abs=1e-300)
            assert q_te**2 == pytest.approx(b_te, rel=1e-10, abs=1e-300)


def test_thick_slab_reaches_fresnel_half_space(presets):
    b = derive_bulk(presets["Al"])
    thick = isotropic_slab(b, 0.0, 500.0)
    k, xi, ell = 0.05, 1.5e16, 10.0
    zeta = xi / C_NM_S
    eps = eps_xx(thick, xi)
    g0 = math.hypot(k, zeta)
    g_te = math.sqrt(k * k + zeta * zeta * eps)
    g_tm = math.sqrt((k * k / eps + zeta * zeta) * eps)
    att = math.exp(-g0 * ell)
    q_tm, q_te = q_factors(thick, k, xi, ell)
    assert q_tm == pytest.approx((g_tm - g0 * eps) / (g_tm + g0 * eps) * att, rel=1e-12)
    assert q_te == pytest.approx((g_te - g0) / (g_te + g0) * att, rel=1e-12)


def test_reflection_factors_stay_inside_unit_disk(presets):
    slab = quantized_slab(presets["Ag"], "PBM", 1.0)
    rng = np.random.default_rng(77)
    for _ in range(300):
        k = float(rng.uniform(0.0, 2.0))
        xi = float(10.0 ** rng.uniform(12.0, 18.0))
        ell = float(rng.uniform(0.3, 100.0))
        q_tm, q_te = q_factors(slab, k, xi, ell)
        assert abs(q_tm) < 1.0 and abs(q_te) < 1.0
        assert math.isfinite(q_tm) and math.isfinite(q_te)


def test_nearly_transparent_slab_gives_zero_not_nan():
    # |rho| ~ 1e-16, as far out in zeta: (1 - |rho|)(1 + |rho| e)/(1 - rho^2 e)
    # rounds to 1 + 2^-52 here, and log1p of its negative would be NaN
    a, b, g = 1.3791845972190993, 1.3791845972191008, 0.0003943753418929382
    for x, y in ((a, b), (b, a)):
        ln_q, _ = _ln_q(np.array([x]), np.array([y]), g, 1.0, 1.0, 1.0)
        assert ln_q[0] == -math.inf


def test_transparent_film_feels_no_force():
    # no plasma weight and no poles: eps_xx = eps_zz = 1
    vacuum = DielectricTensor(gamma=0.0, hw_p2=0.0, d_norm=1.0, de=np.empty(0),
                              coef=np.empty(0), osc_weight=0.0, D=1.0)
    res = force(vacuum, 5.0)
    assert res.pressure == 0.0


def test_ideal_mirror_limit_with_correction():
    # omega_P ell / c = 5000, thick slab: leading finite-conductivity
    # correction is 1 - 16 c/(3 omega_P ell)
    ell = 100.0
    omega_p = 5000.0 * C_NM_S / ell
    bulk = BulkReference(n0=1.0, kF_bulk=1.0, EF_bulk=1.0, Omega_P=omega_p)
    res = force(isotropic_slab(bulk, 0.0, 10.0 * ell), ell, tol=1e-8)
    ratio = res.pressure / ideal_mirror_pressure(ell)
    assert ratio == pytest.approx(1.0 - 16.0 / (3.0 * 5000.0), abs=2e-4)
    assert res.pressure < 0.0


def test_engines_agree(presets):
    slab = quantized_slab(presets["Cs"], "FWM", 2.0)
    ref = reference_slab(presets["Cs"], 2.0)
    for s in (slab, ref):
        a = force(s, 5.0, tol=1e-9, engine="legendre")
        b = force(s, 5.0, tol=1e-8, engine="quadpack")
        assert a.pressure == pytest.approx(b.pressure, rel=1e-7)
        assert a.evaluations > 0 and b.evaluations > 0


# a two-order stopping rule can agree falsely at low order: the first four are
# preset-grid points where it once did, by up to 91 times tol; the heavy films
# carry thousands of poles, and Al FWM D=1 a dozen
@pytest.mark.parametrize("name,model,D,ell,gamma", [
    ("Cs", "IWM", 5.0, 16.6088, 0.0),
    ("Cs", "FWM", 5.0, 49.535, 0.0),
    ("Al", "IWM", 2.1798, 12.961, 1e15),
    ("Cs", "FWM", 1.0, 85.5467, 0.0),
    ("Al", "IWM", 20.0, 1.0, 0.0),
    ("Cs", "PBM", 20.0, 1.0, 0.0),
    ("Ag", "FWM", 5.0, 1.2, 1e14),
    ("Al", "FWM", 1.0, 1.0, 0.0),
])
def test_legendre_matches_the_quadpack_oracle(presets, name, model, D, ell, gamma):
    slab = quantized_slab(presets[name], model, D, gamma)
    got = force(slab, ell, tol=1e-7)
    want = force(slab, ell, tol=1e-9, engine="quadpack")
    miss = abs(got.pressure - want.pressure)
    assert miss <= 1e-7 * abs(want.pressure)
    assert miss <= got.abs_error_estimate + want.abs_error_estimate


# damped thin films where g_TE ~ sqrt(zeta) near 0 made a rule linear in zeta
# stall: the first never certified 1e-10 by order 1024, the next two took
# 2.18 M and 545 k evaluations; an undamped IWM film for contrast
@pytest.mark.parametrize("name,model,D,ell,gamma", [
    ("Cs", "FWM", 1.0, 49.535, 1e14),
    ("Al", "FWM", 1.0, 4.4, 1e15),
    ("Ag", "FWM", 5.0, 1.2, 1e14),
    ("Cs", "IWM", 5.0, 16.6088, 0.0),
])
def test_damped_thin_films_certify_1e_10(presets, name, model, D, ell, gamma):
    slab = quantized_slab(presets[name], model, D, gamma)
    got = force(slab, ell, tol=1e-10)
    assert got.evaluations <= 20_000
    if name == "Cs" and model == "FWM":  # three poles: the quadpack oracle is affordable
        want = force(slab, ell, tol=1e-9, engine="quadpack")
        miss = abs(got.pressure - want.pressure)
        assert miss <= 1e-9 * abs(want.pressure)
        assert miss <= got.abs_error_estimate + want.abs_error_estimate


def _non_retarded_pressure(t: DielectricTensor, ell: float) -> float:
    """Lifshitz pressure with c -> infinity: TM only, g0 = k, one k-quadrature per xi."""
    D = t.D

    def over_k(xi):
        exx, ezz = eps_xx(t, xi), eps_zz(t, xi)
        root = math.sqrt(exx * ezz)
        rho = (1.0 - root) / (1.0 + root)
        q_slab = math.sqrt(exx / ezz)

        def integrand(u):
            k = u / (ell * (1.0 - u))
            e = math.exp(-2.0 * k * D * q_slab)
            r = rho * (1.0 - e) / (1.0 - rho * rho * e)
            q2 = r * r * math.exp(-2.0 * k * ell)
            return k * k * q2 / (1.0 - q2) / (ell * (1.0 - u) ** 2)

        return quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    w = t.omega_P
    val = quad(lambda v: over_k(w * v / (1.0 - v)) * w / (1.0 - v) ** 2,
               0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return -HBAR_JS * 1e27 / (2.0 * math.pi**2) * val


@pytest.mark.parametrize("kind", ["ref", "FWM"])
def test_non_retarded_limit(presets, kind):
    # omega_P ell/c -> 0 at fixed ell: retardation enters only as zeta^2 = (xi/c)^2
    # against k^2 ~ 1/ell^2, with the response varying on xi <~ omega_P, so the
    # relative gap to the c -> infinity pressure is of order x^2, x = omega_P ell/c
    ell = 10.0
    t = (reference_slab(presets["Cs"], 1.0, 1e14) if kind == "ref"
         else quantized_slab(presets["Cs"], "FWM", 1.0, 1e14))
    gaps = []
    for x in (1e-2, 1e-3):
        f2 = (x * C_NM_S / ell / t.omega_P) ** 2  # scales omega_P^2 and every pole weight
        slab = replace(t, hw_p2=t.hw_p2 * f2, coef=t.coef * f2, osc_weight=t.osc_weight * f2)
        assert slab.omega_P * ell / C_NM_S == pytest.approx(x, rel=1e-12)
        p = force(slab, ell, tol=1e-10).pressure
        p_nr = _non_retarded_pressure(slab, ell)
        gaps.append(abs(p - p_nr) / abs(p_nr))
        assert gaps[-1] <= x * x, (x, p, p_nr)
    assert gaps[1] < gaps[0]


def _preset_grid_sample(size: int, seed: int):
    """(slab kind, material, model, D, ell, gamma) drawn from the fig4-fig9 force calls."""
    cells = []
    for fig in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        plan = figure_plan(fig)
        for mat in plan.materials:
            for model in plan.models:
                for gamma in _resolved_gammas(plan, mat):
                    for D in plan.D_grid:
                        for ell in plan.ell_grid:
                            cells.append(("q", mat, model, D, ell, gamma))
                            cells.append(("ref", mat, model, D, ell, gamma))
    rng = np.random.default_rng(seed)
    return [cells[i] for i in sorted(rng.choice(len(cells), size, replace=False))]


def test_preset_grid_forces_hold_their_tolerance(presets):
    for kind, mat, model, D, ell, gamma in _preset_grid_sample(30, 6):
        slab = quantized_slab(mat, model, D, gamma) if kind == "q" else reference_slab(mat, D, gamma)
        shipped = force(slab, ell, tol=1e-7)
        recheck = force(slab, ell, tol=1e-10)
        assert recheck.abs_error_estimate <= 1e-10 * abs(recheck.pressure)
        assert abs(shipped.pressure - recheck.pressure) <= 1e-7 * abs(recheck.pressure), (
            kind, mat.name, model, D, ell, gamma)


def test_error_estimate_is_honest(presets):
    slab = quantized_slab(presets["Cs"], "IWM", 1.0)
    loose = force(slab, 2.0, tol=1e-4)
    tight = force(slab, 2.0, tol=1e-10)
    assert loose.abs_error_estimate <= 1e-4 * abs(loose.pressure)
    assert abs(loose.pressure - tight.pressure) <= loose.abs_error_estimate


def test_pressure_attractive_and_decaying_with_gap(presets):
    slab = quantized_slab(presets["Al"], "FWM", 1.0)
    vals = [force(slab, ell, tol=1e-7).pressure for ell in (2.0, 5.0, 10.0)]
    assert all(v < 0.0 for v in vals)
    assert abs(vals[0]) > abs(vals[1]) > abs(vals[2])


def test_thicker_film_pulls_harder(presets):
    b = derive_bulk(presets["Al"])
    vals = [force(isotropic_slab(b, 0.0, D), 5.0, tol=1e-7).pressure for D in (1.0, 5.0, 50.0)]
    assert abs(vals[0]) < abs(vals[1]) < abs(vals[2])


def test_quantization_always_reduces_the_force(presets):
    f_q, f_ref = force_pair(presets["Cs"], "FWM", 1.0, 1.0, tol=1e-6)
    assert f_ref.pressure < f_q.pressure < 0.0
    d = (f_ref.pressure - f_q.pressure) / f_ref.pressure
    assert 0.0 < d < 1.0


def test_zero_relaxation_reduction_paths_are_identical(presets):
    kw = dict(tol=1e-6, engine="legendre")
    assert delta_P(presets["Cs"], "FWM", 1.0, 1.0, **kw) == delta_D(
        presets["Cs"], "FWM", 1.0, 1.0, 0.0, **kw)


def test_convergence_failure_carries_partial_result(presets, monkeypatch):
    slab = quantized_slab(presets["Cs"], "IWM", 1.0)
    with monkeypatch.context() as mp:
        mp.setattr(lifshitz, "_ORDERS", (32,))
        with pytest.raises(ForceConvergenceError, match="order 32") as exc:
            force(slab, 2.0, tol=1e-13)
    partial = exc.value.partial
    assert math.isfinite(partial.pressure) and partial.pressure < 0.0
    ref = force(slab, 2.0, tol=1e-9)
    assert partial.pressure == pytest.approx(ref.pressure, rel=5e-3)


def test_argument_validation(presets):
    slab = quantized_slab(presets["Cs"], "IWM", 1.0)
    with pytest.raises(ValueError):
        force(slab, -1.0)
    with pytest.raises(ValueError):
        force(slab, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        force(slab, 1.0, engine="simpson")
    with pytest.raises(ValueError):
        isotropic_slab(derive_bulk(presets["Cs"]), 0.0, 0.0)
    with pytest.raises(ValueError):
        isotropic_slab(derive_bulk(presets["Cs"]), math.inf, 1.0)
    with pytest.raises(ValueError):
        q_factors(slab, -0.1, 1e15, 1.0)
    with pytest.raises(ValueError):
        q_factors(slab, 0.1, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_force_inputs_rejected_up_front(presets, bad):
    # a NaN gap or tolerance used to run every order before failing to converge
    slab = reference_slab(presets["Cs"], 1.0)
    with pytest.raises(ValueError, match="gap"):
        force(slab, bad)
    with pytest.raises(ValueError, match="tolerance"):
        force(slab, 5.0, tol=bad)
    with pytest.raises(ValueError, match="thickness"):
        isotropic_slab(derive_bulk(presets["Cs"]), 0.0, bad)
    for k, xi, ell in ((bad, 1e15, 1.0), (0.1, bad, 1.0), (0.1, 1e15, bad)):
        with pytest.raises(ValueError, match="finite"):
            q_factors(slab, k, xi, ell)
