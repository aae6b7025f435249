"""Film electronic structure: aufbau Fermi level, occupations, neutrality.

EF oracle: the areal density N(EF) = sum_n max(EF - e_n, 0)/(2 pi mu) is
monotone in EF, so the neutrality condition can be solved by bisection,
independently of the library's subband-counting loop.  The enlarged box
width is checked the same way: the areal density of a d-wide box filled to
the bulk Fermi level is continuous and increasing in d.
"""
import math

import numpy as np
import pytest
from scipy.optimize import bisect

from filmcasimir.constants import HBAR2_OVER_2ME as MU
from filmcasimir.estructure import (
    CapacityError,
    electron_density,
    ef_ratio,
    fermi_level,
    film_state,
    pbm_box_width,
)
from filmcasimir.materials import BulkReference, Material, derive_bulk
from filmcasimir.qwell import InfiniteWell, solve_spectrum

TWO_PI_MU = 2.0 * math.pi * MU


def bisect_fermi_level(spectrum, target_areal: float) -> float:
    """Solve sum_n max(EF - e_n, 0) = 2 pi mu * N_areal for EF by bisection."""
    sp = spectrum
    while True:
        e = sp.well_bottom_energies
        lo, hi = e[0], e[0] + TWO_PI_MU * target_areal + 1.0
        if e[-1] >= hi or sp.extended(2 * sp.n_levels).n_levels == sp.n_levels:
            break
        sp = sp.extended(2 * sp.n_levels)

    def excess(ef):
        return np.sum(np.maximum(ef - e, 0.0)) - TWO_PI_MU * target_areal

    return bisect(excess, lo, hi, xtol=1e-14, rtol=8.9e-16)


def box_occupation(d: float, bulk) -> float:
    """Areal density (nm^-2) of a d-wide hard-wall box filled to the bulk EF."""
    kf = math.sqrt(bulk.EF_bulk / MU)
    n = np.arange(1, int(d * kf / math.pi) + 1)
    return float(np.sum(bulk.EF_bulk - MU * (n * math.pi / d) ** 2)) / TWO_PI_MU


def bisect_box_width(bulk, D: float) -> float:
    """Smallest d >= D whose box holds n0*D electrons, bisected to adjacent floats."""
    target = bulk.n0 * D
    if box_occupation(D, bulk) >= target:
        return D
    lo, hi = D, 2.0 * D
    while box_occupation(hi, bulk) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if box_occupation(mid, bulk) < target:
            lo = mid
        else:
            hi = mid


def test_single_subband_closed_form():
    # with one occupied level, EF = e1 + 2 pi mu n0 D exactly
    mat = Material("thin", 5.62, 2.14)
    b = derive_bulk(mat)
    st = film_state(mat, "IWM", 0.2)
    assert st.m0 == 1
    e1 = MU * (math.pi / 0.2) ** 2
    want = e1 + TWO_PI_MU * b.n0 * 0.2
    assert st.EF == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("model", ["FWM", "IWM"])
def test_fermi_level_matches_bisection_oracle(presets, model):
    rng = np.random.default_rng(11)
    for _ in range(30):
        name = ("Al", "Ag", "Cs")[rng.integers(3)]
        D = float(rng.uniform(0.4, 9.0))
        mat = presets[name]
        b = derive_bulk(mat)
        st = film_state(mat, model, D)
        want = bisect_fermi_level(st.spectrum, b.n0 * D)
        assert st.ef_well_bottom == pytest.approx(want, rel=1e-11)


def test_neutrality_by_resummation(presets):
    rng = np.random.default_rng(23)
    for _ in range(60):
        name = ("Al", "Ag", "Cs")[rng.integers(3)]
        model = ("FWM", "IWM", "PBM")[rng.integers(3)]
        D = float(rng.uniform(0.3, 10.0))
        mat = presets[name]
        b = derive_bulk(mat)
        st = film_state(mat, model, D)
        e = st.spectrum.well_bottom_energies[: st.m0]
        areal = float(np.sum(st.ef_well_bottom - e)) / TWO_PI_MU
        assert abs(areal / (b.n0 * D) - 1.0) < 1e-10
        assert np.all(st.subband_weights > 0.0)


def test_occupied_count_nondecreasing_with_size(presets):
    for model in ("FWM", "IWM"):
        last = 0
        for D in np.linspace(0.3, 8.0, 120):
            st = film_state(presets["Ag"], model, float(D))
            assert st.m0 >= last
            last = st.m0
        assert last > 10


def test_fermi_ratio_above_one_and_decaying(presets):
    b = derive_bulk(presets["Cs"])
    xs = np.linspace(0.6, 10.0, 40)
    # the hard wall repels density and relaxes toward bulk much more slowly
    for model, tail in (("FWM", 1.03), ("IWM", 1.08)):
        ratios = []
        for x in xs:
            D = float(x * math.pi / b.kF_bulk)
            ratios.append(ef_ratio(film_state(presets["Cs"], model, D), b))
        ratios = np.array(ratios)
        assert np.all(ratios >= 1.0 - 1e-12)
        assert ratios[-1] < tail
        assert ratios[:8].max() > ratios[-8:].max()


def test_iwm_ratio_is_universal_in_scaled_size(presets):
    # the hard-wall EF/EF_B depends on kF*D/pi only, not on the material
    x = 3.7
    vals = []
    for name in ("Al", "Ag", "Cs"):
        b = derive_bulk(presets[name])
        D = float(x * math.pi / b.kF_bulk)
        vals.append(ef_ratio(film_state(presets[name], "IWM", D), b))
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)


def test_iwm_fermi_level_exceeds_fwm(presets):
    for name in ("Al", "Ag", "Cs"):
        for D in (0.5, 1.0, 2.3, 5.0):
            hard = film_state(presets[name], "IWM", D)
            soft = film_state(presets[name], "FWM", D)
            assert hard.ef_well_bottom > soft.ef_well_bottom


# ----------------------------------------------------------------- PBM


def test_pbm_box_width_and_pinned_fermi_level(presets):
    rng = np.random.default_rng(5)
    for _ in range(25):
        name = ("Al", "Ag", "Cs")[rng.integers(3)]
        D = float(rng.uniform(0.4, 9.0))
        b = derive_bulk(presets[name])
        st = film_state(presets[name], "PBM", D)
        assert st.d_box > D
        assert st.ef_well_bottom == pytest.approx(b.EF_bulk, rel=1e-12)
        assert st.n_avg < b.n0
        # independent re-summation of the neutrality condition at d
        e = MU * (np.arange(1, st.m0 + 1) * math.pi / st.d_box) ** 2
        areal = float(np.sum(b.EF_bulk - e)) / TWO_PI_MU
        assert abs(areal - b.n0 * D) < 1e-10 * b.n0 * D


def test_pbm_box_width_matches_bisection_oracle():
    rng = np.random.default_rng(31)
    for _ in range(150):
        b = derive_bulk(Material("r", float(rng.uniform(1.8, 6.0)), 3.0))
        D = float(np.exp(rng.uniform(math.log(0.2), math.log(60.0))))
        st = pbm_box_width(b, D)
        assert st.d_box == pytest.approx(bisect_box_width(b, D), rel=1e-13)
        assert st.m0 == int(st.d_box * b.kF_bulk / math.pi)


@pytest.mark.parametrize("N", [2, 5, 30])
def test_pbm_box_width_where_the_filled_count_changes(presets, N):
    # at D_c the box width is exactly N pi/kF: level N sits at EF, empty
    b = derive_bulk(presets["Ag"])
    ef = b.EF_bulk
    D_c = math.fsum(ef * (1.0 - (n / N) ** 2) for n in range(1, N)) / (TWO_PI_MU * b.n0)
    for D, m0 in ((D_c * (1 - 1e-9), N - 1), (D_c, None), (D_c * (1 + 1e-9), N)):
        st = pbm_box_width(b, D)
        assert st.d_box == pytest.approx(bisect_box_width(b, D), rel=1e-13)
        assert st.d_box == pytest.approx(N * math.pi / b.kF_bulk, rel=1e-8)
        assert st.m0 in ((N - 1, N) if m0 is None else (m0,))


def test_pbm_box_width_keeps_a_box_that_already_holds_the_charge(presets):
    # a bulk density the D-wide box holds exactly: d = D; below it the
    # D-wide box is overfilled and the neutrality check is loud
    b = derive_bulk(presets["Al"])
    D = 1.3
    exact = BulkReference(box_occupation(D, b) / D, b.kF_bulk, b.EF_bulk, b.Omega_P)
    st = pbm_box_width(exact, D)
    assert st.d_box == pytest.approx(D, rel=1e-13)
    assert st.m0 == int(D * b.kF_bulk / math.pi)
    thin = BulkReference(0.9 * exact.n0, b.kF_bulk, b.EF_bulk, b.Omega_P)
    assert bisect_box_width(thin, D) == D
    with pytest.raises(CapacityError, match="neutrality"):
        pbm_box_width(thin, D)


def test_pbm_box_width_approaches_film_width(presets):
    b = derive_bulk(presets["Al"])
    widths = [pbm_box_width(b, D).d_box / D for D in (1.0, 5.0, 20.0, 80.0)]
    assert np.all(np.diff(widths) < 0.0)
    assert widths[-1] < 1.01
    assert widths[0] > 1.05


# ------------------------------------------------------------- density


def test_density_profile_neutral_symmetric_positive(presets):
    b = derive_bulk(presets["Cs"])
    for model, lim in (("FWM", 30.0), ("IWM", 1.0), ("PBM", 1.5)):
        st = film_state(presets["Cs"], model, 2.0)
        z = np.linspace(-lim, lim, 600_001)
        n = electron_density(st, z)
        assert np.all(n >= 0.0)
        assert np.trapezoid(n, z) == pytest.approx(b.n0 * 2.0, rel=1e-8)
        assert np.allclose(n, electron_density(st, -z), rtol=0, atol=1e-13)


def test_density_zero_outside_hard_wall(presets):
    st = film_state(presets["Ag"], "IWM", 2.0)
    z = np.array([-1.7, -1.0001, 1.0001, 2.9])
    assert np.all(electron_density(st, z) == 0.0)
    # PBM spill-out region carries charge, but only out to d/2
    st = film_state(presets["Ag"], "PBM", 2.0)
    inside = electron_density(st, np.array([1.01]))
    outside = electron_density(st, np.array([st.d_box / 2 + 1e-9]))
    assert inside[0] > 0.0
    assert outside[0] == 0.0


def test_fwm_natural_spill_out(presets):
    b = derive_bulk(presets["Cs"])
    st = film_state(presets["Cs"], "FWM", 2.0)
    z = np.linspace(1.0, 40.0, 400_001)
    outside = 2.0 * np.trapezoid(electron_density(st, z), z)
    assert outside > 0.0
    assert outside / (b.n0 * 2.0) < 0.25


# ------------------------------------------------------------ failures


def test_capacity_error_is_loud():
    # nearly zero work function: the well cannot hold the bulk charge at small D
    shallow = Material("shallow", 2.07, 1e-3)
    with pytest.raises(CapacityError):
        film_state(shallow, "FWM", 0.35)
    # an enlarged box that would need ~1000x the film's filled levels
    b = derive_bulk(Material("dense", 3.0, 3.0))
    dense = BulkReference(1e3 * b.n0, b.kF_bulk, b.EF_bulk, b.Omega_P)
    with pytest.raises(CapacityError, match="no box width"):
        pbm_box_width(dense, 2.0)


def test_unknown_model_rejected(presets):
    with pytest.raises(ValueError):
        film_state(presets["Al"], "XYZ", 1.0)


@pytest.mark.parametrize("model", ["FWM", "IWM", "PBM"])
@pytest.mark.parametrize("D", [math.nan, math.inf])
def test_non_finite_thickness_rejected(presets, model, D):
    # D=inf used to fill an infinitely wide ladder forever
    with pytest.raises(ValueError, match="thickness"):
        film_state(presets["Al"], model, D)
    with pytest.raises(ValueError, match="thickness"):
        pbm_box_width(derive_bulk(presets["Al"]), D)


def test_fermi_level_validation(presets):
    sp = solve_spectrum(InfiniteWell(), 2.0, n_levels=4)
    for n0 in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="ion density"):
            fermi_level(sp, n0)

