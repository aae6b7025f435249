"""Free-electron materials and the bulk reference quantities derived from r_s.

A material is fully specified by its density parameter r_s/a0, its work
function W (eV) and an optional list of Drude relaxation frequencies
(rad/s).  All bulk quantities follow from r_s alone.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .constants import BOHR_NM, E2_GAUSS, EV_J, HBAR2_OVER_2ME, HBAR_EVS


@dataclass(frozen=True)
class Material:
    """A free-electron metal."""

    name: str
    rs_over_a0: float
    work_function: float                             # eV
    relaxation_frequencies: tuple[float, ...] = ()   # rad/s

    def __post_init__(self):
        # the name becomes part of CSV file names and of the space-separated CSV header
        if not (isinstance(self.name, str) and re.fullmatch(r"[A-Za-z0-9._-]+", self.name)):
            raise ValueError("material name must be letters, digits, '.', '_' or '-', "
                             f"got {self.name!r}")
        if not 0.0 < self.rs_over_a0 < math.inf:
            raise ValueError(f"rs_over_a0 must be positive and finite, got {self.rs_over_a0}")
        if not 0.0 < self.work_function < math.inf:
            raise ValueError(f"work_function must be positive and finite, got {self.work_function}")
        gammas = tuple(float(g) for g in self.relaxation_frequencies)
        if not all(0.0 <= g < math.inf for g in gammas):
            raise ValueError(f"relaxation frequencies must be finite and >= 0, got {gammas}")
        object.__setattr__(self, "relaxation_frequencies", gammas)


@dataclass(frozen=True)
class BulkReference:
    """Bulk electron gas quantities: density, Fermi scale, plasma frequency.

    Fields are in the library units (nm^-3, nm^-1, eV, rad/s); ``to_si``
    converts all four to SI (m^-3, m^-1, J, rad/s) and ``from_si`` back.
    """

    n0: float        # electron density, nm^-3
    kF_bulk: float   # Fermi wavevector, nm^-1
    EF_bulk: float   # Fermi energy, eV
    Omega_P: float   # bulk plasma frequency, rad/s

    def to_si(self) -> "BulkReference":
        return BulkReference(
            n0=self.n0 * 1e27,
            kF_bulk=self.kF_bulk * 1e9,
            EF_bulk=self.EF_bulk * EV_J,
            Omega_P=self.Omega_P,
        )

    @classmethod
    def from_si(cls, n0: float, kF_bulk: float, EF_bulk: float, Omega_P: float) -> "BulkReference":
        return cls(
            n0=n0 * 1e-27,
            kF_bulk=kF_bulk * 1e-9,
            EF_bulk=EF_bulk / EV_J,
            Omega_P=Omega_P,
        )


def derive_bulk(material: Material) -> BulkReference:
    """Derive the bulk reference quantities of a material from r_s.

    n0 = 3/(4 pi r_s^3), k_F = (9 pi/4)^(1/3)/r_s, E_F = hbar^2 k_F^2/2m,
    Omega_P = sqrt(4 pi e^2 n0 / m).
    """
    rs = material.rs_over_a0 * BOHR_NM                      # nm
    n0 = 3.0 / (4.0 * math.pi * rs**3)                      # nm^-3
    kF = (9.0 * math.pi / 4.0) ** (1.0 / 3.0) / rs          # nm^-1
    ef = HBAR2_OVER_2ME * kF * kF                           # eV
    # (hbar Omega_P)^2 = 4 pi e^2 n0 hbar^2 / m = 8 pi e^2 (hbar^2/2m) n0
    hw2 = 8.0 * math.pi * E2_GAUSS * HBAR2_OVER_2ME * n0    # eV^2
    omega_p = math.sqrt(hw2) / HBAR_EVS                     # rad/s
    return BulkReference(n0=n0, kF_bulk=kF, EF_bulk=ef, Omega_P=omega_p)


def well_depth(material: Material, ef_bulk: float) -> float:
    """Confining well depth V0 = W + E_F measured from the vacuum level (eV)."""
    if ef_bulk <= 0.0:
        raise ValueError(f"bulk Fermi energy must be positive, got {ef_bulk}")
    return material.work_function + ef_bulk


# Density parameters and work functions from the usual free-electron tables.
# Relaxation rates are the values used for the dissipative force curves.
PRESETS: dict[str, Material] = {
    "Al": Material("Al", 2.07, 4.28, (1e14, 1e15)),
    "Ag": Material("Ag", 3.02, 4.26, (5e13, 1e14)),
    "Cs": Material("Cs", 5.62, 2.14, (5e13, 1e14)),
}


def load_materials(path: str | Path) -> dict[str, Material]:
    """Read extra material definitions from a JSON file.

    The file holds a list of objects with keys ``name``, ``rs_over_a0``,
    ``work_function`` and optionally ``relaxation_frequencies``.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON list of material objects")
    table = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: expected a material object, got {entry!r}")
        gammas = entry.get("relaxation_frequencies", [])
        if not isinstance(gammas, list):
            raise ValueError(f"{path}: relaxation_frequencies must be a list, got {gammas!r}")
        try:
            mat = Material(
                name=entry["name"],
                rs_over_a0=float(entry["rs_over_a0"]),
                work_function=float(entry["work_function"]),
                relaxation_frequencies=tuple(gammas),
            )
        except TypeError as exc:  # a null or nested value where a number belongs
            raise ValueError(f"{path}: bad value in {entry!r}: {exc}") from exc
        table[mat.name] = mat
    return table


def material_table(config_path: str | Path | None = None) -> dict[str, Material]:
    """Preset materials, optionally extended/overridden by a config file."""
    table = dict(PRESETS)
    if config_path is not None:
        table.update(load_materials(config_path))
    return table
