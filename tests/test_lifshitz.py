"""Pressure integral and reflection factors.

Reflection oracle: solve the slab boundary-value problem directly as a
4x4 linear system in (r, A, B, t) with scaled exponentials, matching the
field and its (1/eps-weighted) derivative at both faces.  No reflection
formula is reused, so the cancellation-free product form in the library
is checked end to end, signs included via Q^2.
"""
import math

import numpy as np
import pytest

from filmcasimir.constants import C_NM_S
from filmcasimir.dielectric import DielectricTensor, eps_xx, eps_zz
from filmcasimir.lifshitz import (
    ForceConvergenceError,
    SlabOptics,
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


def bvp_q2(slab: SlabOptics, k: float, xi: float, ell: float) -> tuple[float, float]:
    """(Q_TM^2, Q_TE^2) from a direct solve of the matching conditions."""
    zeta = xi / C_NM_S
    g0 = math.hypot(k, zeta)
    exx = eps_xx(slab.tensor, xi)
    ezz = eps_zz(slab.tensor, xi)
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
    eps = eps_xx(thick.tensor, xi)
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


def test_transparent_film_feels_no_force():
    # no plasma weight and no poles: eps_xx = eps_zz = 1
    vacuum = DielectricTensor(gamma=0.0, hw_p2=0.0, d_norm=1.0, de=np.empty(0),
                              coef=np.empty(0), osc_weight=0.0)
    res = force(SlabOptics(vacuum, D=1.0), 5.0)
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


def test_convergence_failure_carries_partial_result(presets):
    slab = quantized_slab(presets["Cs"], "IWM", 1.0)
    with pytest.raises(ForceConvergenceError) as exc:
        force(slab, 2.0, tol=1e-13, max_order=24)
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
