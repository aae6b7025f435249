"""Casimir pressure between nanometric free-electron films whose dielectric
response is built from size-quantized one-electron states."""

__version__ = "0.1.0"

from .dielectric import (
    DielectricTensor,
    build_tensor,
    eps_xx,
    eps_zz,
    hard_wall_eps_zz0,
)
from .estructure import (
    CapacityError,
    FilmElectronicState,
    electron_density,
    fermi_level,
    film_state,
    pbm_box_width,
)
from .lifshitz import (
    ForceConvergenceError,
    ForceResult,
    delta_D,
    delta_P,
    force,
    force_pair,
    forces,
    ideal_mirror_pressure,
    isotropic_slab,
    q_factors,
    quantized_slab,
    reference_slab,
)
from .materials import (
    PRESETS,
    BulkReference,
    Material,
    derive_bulk,
    load_materials,
    material_table,
    well_depth,
)
from .qwell import (
    ConfinementModel,
    FiniteWell,
    InfiniteWell,
    ParticleInBox,
    WellSpectrum,
    solve_spectrum,
    trk_sum,
)
from .sweep import FIGURES, RunReport, SweepPlan, figure_plan, run

__all__ = [
    "__version__",
    "BulkReference", "Material", "PRESETS", "derive_bulk", "load_materials",
    "material_table", "well_depth",
    "ConfinementModel", "FiniteWell", "InfiniteWell", "ParticleInBox",
    "WellSpectrum", "solve_spectrum", "trk_sum",
    "CapacityError", "FilmElectronicState", "electron_density", "fermi_level",
    "film_state", "pbm_box_width",
    "DielectricTensor", "build_tensor", "eps_xx", "eps_zz", "hard_wall_eps_zz0",
    "ForceConvergenceError", "ForceResult", "delta_D", "delta_P",
    "force", "force_pair", "forces", "ideal_mirror_pressure", "isotropic_slab", "q_factors",
    "quantized_slab", "reference_slab",
    "FIGURES", "RunReport", "SweepPlan", "figure_plan", "run",
]
