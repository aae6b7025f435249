"""Bulk free-electron reference values and the eV/nm unit system.

The oracle for the unit system is an independent recomputation in SI with
scipy.constants: every derived quantity (density, Fermi wavevector, Fermi
energy, plasma frequency) must agree with the SI route to near machine
precision, and the named presets must land on the standard free-electron
table values.
"""
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import scipy.constants as sc

from filmcasimir.materials import (
    BulkReference,
    Material,
    derive_bulk,
    load_materials,
    material_table,
    well_depth,
)


def _si_bulk(rs_over_a0: float):
    """SI-unit re-derivation of the bulk reference, scipy.constants only."""
    rs = rs_over_a0 * sc.physical_constants["Bohr radius"][0]  # m
    n0 = 3.0 / (4.0 * math.pi * rs**3)                         # m^-3
    kf = (9.0 * math.pi / 4.0) ** (1.0 / 3.0) / rs             # m^-1
    ef = sc.hbar**2 * kf**2 / (2.0 * sc.m_e) / sc.e            # eV
    wp = math.sqrt(n0 * sc.e**2 / (sc.epsilon_0 * sc.m_e))     # rad/s
    return n0, kf, ef, wp


@pytest.mark.parametrize("rs", [1.0, 2.07, 3.02, 4.0, 5.62, 6.5])
def test_derive_bulk_matches_si_recomputation(rs):
    b = derive_bulk(Material(name="m", rs_over_a0=rs, work_function=3.0))
    n0_si, kf_si, ef_si, wp_si = _si_bulk(rs)
    assert b.n0 * 1e27 == pytest.approx(n0_si, rel=1e-10)
    assert b.kF_bulk * 1e9 == pytest.approx(kf_si, rel=1e-10)
    assert b.EF_bulk == pytest.approx(ef_si, rel=1e-10)
    assert b.Omega_P == pytest.approx(wp_si, rel=1e-10)


def test_aluminum_free_electron_anchors(presets):
    # standard table values: kF = 1.75 A^-1, EF = 11.7 eV, hbar*Omega_P = 15.8 eV
    b = derive_bulk(presets["Al"])
    assert b.kF_bulk / 10.0 == pytest.approx(1.75, abs=0.005)
    assert b.EF_bulk == pytest.approx(11.7, abs=0.05)
    assert b.Omega_P * 6.582119569e-16 == pytest.approx(15.8, abs=0.05)


def test_cesium_free_electron_anchors(presets):
    b = derive_bulk(presets["Cs"])
    assert b.EF_bulk == pytest.approx(1.59, abs=0.005)
    assert b.Omega_P == pytest.approx(5.37e15, rel=2e-3)


def test_silver_well_depth(presets):
    # V0 = W + EF: 4.26 + 5.49 for Ag, 2.14 + 1.59 for Cs
    ag = derive_bulk(presets["Ag"])
    assert well_depth(presets["Ag"], ag.EF_bulk) == pytest.approx(9.75, abs=0.01)
    cs = derive_bulk(presets["Cs"])
    assert well_depth(presets["Cs"], cs.EF_bulk) == pytest.approx(3.73, abs=0.005)


def test_density_scales_with_inverse_cube():
    a = derive_bulk(Material(name="a", rs_over_a0=2.0, work_function=1.0))
    b = derive_bulk(Material(name="b", rs_over_a0=4.0, work_function=1.0))
    assert b.n0 == pytest.approx(a.n0 / 8.0, rel=1e-14)
    assert b.kF_bulk == pytest.approx(a.kF_bulk / 2.0, rel=1e-14)


def test_si_round_trip():
    b = derive_bulk(Material(name="x", rs_over_a0=3.3, work_function=2.5))
    si = b.to_si()
    again = BulkReference.from_si(si.n0, si.kF_bulk, si.EF_bulk, si.Omega_P)
    assert again.n0 == pytest.approx(b.n0, rel=1e-12)
    assert again.kF_bulk == pytest.approx(b.kF_bulk, rel=1e-12)
    assert again.EF_bulk == pytest.approx(b.EF_bulk, rel=1e-12)
    assert again.Omega_P == pytest.approx(b.Omega_P, rel=1e-12)


def test_material_validation():
    with pytest.raises(ValueError):
        Material(name="bad", rs_over_a0=-1.0, work_function=3.0)
    with pytest.raises(ValueError):
        Material(name="bad", rs_over_a0=2.0, work_function=0.0)
    with pytest.raises(ValueError):
        Material(name="bad", rs_over_a0=2.0, work_function=3.0,
                 relaxation_frequencies=(-1e14,))
    with pytest.raises(ValueError):
        Material(name="", rs_over_a0=2.0, work_function=3.0)


@given(x=st.floats())
@example(x=math.nan)
@example(x=math.inf)
def test_material_accepts_exactly_finite_positive_inputs(x):
    # NaN and inf used to construct silently and fail deep inside a solve
    positive = math.isfinite(x) and x > 0.0
    for field in ("rs_over_a0", "work_function"):
        kw = dict(name="m", rs_over_a0=2.0, work_function=3.0)
        kw[field] = x
        if positive:
            Material(**kw)
        else:
            with pytest.raises(ValueError, match=field):
                Material(**kw)
    gammas = (1e14, x)
    if math.isfinite(x) and x >= 0.0:
        Material("m", 2.0, 3.0, gammas)
    else:
        with pytest.raises(ValueError, match="relaxation"):
            Material("m", 2.0, 3.0, gammas)


def test_presets_complete(presets):
    assert set(presets) == {"Al", "Ag", "Cs"}
    for m in presets.values():
        assert len(m.relaxation_frequencies) == 2
        lo, hi = m.relaxation_frequencies
        assert 0.0 < lo < hi


def test_load_materials_config(tmp_path):
    cfg = tmp_path / "mats.json"
    cfg.write_text(json.dumps([
        {"name": "Na", "rs_over_a0": 3.93, "work_function": 2.75,
         "relaxation_frequencies": [5e13, 1e14]},
    ]))
    table = load_materials(cfg)
    assert set(table) == {"Na"}
    assert derive_bulk(table["Na"]).EF_bulk == pytest.approx(3.24, abs=0.01)
    # table helper overlays the config on the presets
    merged = material_table(cfg)
    assert set(merged) == {"Al", "Ag", "Cs", "Na"}
    assert merged["Na"].work_function == 2.75


def test_load_materials_rejects_bad_payload(tmp_path):
    cfg = tmp_path / "mats.json"
    for payload in (
        {"name": "not-a-list"},
        ["Na"],  # an entry that is not an object
        [{"name": "Na", "rs_over_a0": 3.93, "work_function": 2.75,
          "relaxation_frequencies": 5e13}],  # rates not given as a list
        [{"name": "Na", "rs_over_a0": None, "work_function": 2.75}],
        [{"name": "Na", "rs_over_a0": 3.93, "work_function": 2.75,
          "relaxation_frequencies": [None]}],
    ):
        cfg.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_materials(cfg)
