"""Casimir pressure between nanometric free-electron films whose dielectric
response is built from size-quantized one-electron states.

The public names and the submodules load on first use (PEP 562): ``import
filmcasimir`` runs no submodule, and the material table needs neither numpy
nor the compute layers.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "materials": ("BulkReference", "Material", "PRESETS", "derive_bulk", "load_materials",
                  "material_table", "well_depth"),
    "qwell": ("ConfinementModel", "FiniteWell", "InfiniteWell", "ParticleInBox",
              "WellSpectrum", "solve_spectrum", "trk_sum"),
    "estructure": ("CapacityError", "FilmElectronicState", "electron_density", "fermi_level",
                   "film_state", "pbm_box_width"),
    "dielectric": ("DielectricTensor", "build_tensor", "eps_xx", "eps_zz", "hard_wall_eps_zz0",
                   "isotropic_slab"),
    "lifshitz": ("ForceConvergenceError", "ForceResult", "delta_D", "delta_P",
                 "force", "force_pair", "forces", "ideal_mirror_pressure", "q_factors",
                 "quantized_slab", "reference_slab"),
    "sweep": ("FIGURES", "RunReport", "SweepPlan", "figure_plan", "run"),
}
_SUBMODULES = ("cli", "constants", *_EXPORTS)
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
