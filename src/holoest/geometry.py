"""Uniform planar array geometry in the yz-plane.

Also owns the separation layout: every matrix of the array whose entries
depend only on the element pair's offset is assembled by ``separation_fill``
from a grid of values at signed offsets, or by ``even_separation_matrix``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DEFAULT_DIPOLE_LENGTH",
    "DEFAULT_DIPOLE_RADIUS",
    "check_positive_finite",
    "is_integer",
    "check_positive_integer",
    "UpaGeometry",
    "element_positions",
    "separation_fill",
    "unsigned_offsets",
    "even_separation_matrix",
]

# half-wave thin dipole, in wavelengths
DEFAULT_DIPOLE_LENGTH = 0.5
DEFAULT_DIPOLE_RADIUS = 1.0 / 500.0


def check_positive_finite(value, name: str = "number"):
    """Return ``value``; raises ValueError unless it is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"expected a positive finite {name}, got {value!r}")
    return value


def is_integer(value) -> bool:
    """The one integer rule: Python and numpy integers, booleans excluded."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_positive_integer(value, name: str = "number"):
    """Return ``value``; raises ValueError unless it is an integer > 0."""
    if not is_integer(value):
        raise ValueError(f"expected an integer {name}, got {value!r}")
    return check_positive_finite(value, name)


@dataclass(frozen=True)
class UpaGeometry:
    """Regular grid of z-directed thin dipoles in the yz-plane.

    Spacings and dipole dimensions are in wavelengths; the operating
    frequency belongs to the coupling configuration.  Element 0 sits at the
    origin and indexing runs along z first, then y.
    """

    m_y: int
    m_z: int
    d_y: float
    d_z: float
    dipole_length: float = DEFAULT_DIPOLE_LENGTH
    dipole_radius: float = DEFAULT_DIPOLE_RADIUS

    def __post_init__(self) -> None:
        check_positive_integer(self.m_y, "m_y")
        check_positive_integer(self.m_z, "m_z")
        for item in fields(self)[2:]:  # the spacings and dipole dimensions
            check_positive_finite(getattr(self, item.name), item.name)
        if self.dipole_radius >= self.dipole_length / 10.0:
            raise ValueError(
                f"thin dipoles need geometry.dipole_radius = {self.dipole_radius!r} "
                f"below geometry.dipole_length / 10 = {self.dipole_length / 10.0!r}"
            )
        if self.m_y > 1 and self.d_y < 2.0 * self.dipole_radius:
            raise ValueError(
                f"geometry.d_y = {self.d_y!r} is below the wire diameter "
                f"2 * geometry.dipole_radius = {2.0 * self.dipole_radius!r}: "
                "neighbouring wires would intersect"
            )
        # the self impedance takes Ci at this argument, as coupling computes it
        ka2l = 2.0 * math.pi * 2.0 * self.dipole_radius**2 / self.dipole_length
        if ka2l < sys.float_info.min:
            raise ValueError(
                f"geometry.dipole_radius = {self.dipole_radius!r} is too small for "
                f"geometry.dipole_length = {self.dipole_length!r}: 4 pi dipole_radius^2 "
                f"/ dipole_length = {ka2l!r} is not a normal double"
            )

    @property
    def size(self) -> int:
        return self.m_y * self.m_z


def _grid_indices(geometry: UpaGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(y-index, z-index) arrays of all elements, in element order."""
    m = np.arange(geometry.size)
    return m // geometry.m_z, m % geometry.m_z


def element_positions(geometry: UpaGeometry) -> np.ndarray:
    """All element positions, shape (M, 3), wavelength units."""
    ry, rz = _grid_indices(geometry)
    pos = np.zeros((geometry.size, 3))
    pos[:, 1] = ry * geometry.d_y
    pos[:, 2] = rz * geometry.d_z
    return pos


def separation_fill(geometry: UpaGeometry, grid: np.ndarray) -> np.ndarray:
    """Expand a (2My-1, 2Mz-1) signed-separation grid to the full M x M matrix.

    ``grid[a + My - 1, b + Mz - 1]`` is the entry of every pair (n, j) whose
    y-index and z-index differences, n's minus j's, are a and b.
    """
    ry, rz = _grid_indices(geometry)
    idy = ry[:, None] - ry[None, :] + geometry.m_y - 1
    idz = rz[:, None] - rz[None, :] + geometry.m_z - 1
    return grid[idy, idz]


def unsigned_offsets(geometry: UpaGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(My, Mz) arrays of unsigned offsets in wavelengths: a d_y and b d_z at [a, b]."""
    a, b = np.indices((geometry.m_y, geometry.m_z))
    return a * geometry.d_y, b * geometry.d_z


def even_separation_matrix(geometry: UpaGeometry, evaluate) -> np.ndarray:
    """Full matrix of entries that depend on |dy|, |dz| only.

    Calls ``evaluate(dy, dz)`` once, with the arrays of ``unsigned_offsets``,
    and mirrors the returned (My, Mz) grid onto every pair whose y-index and
    z-index differences are +-a and +-b.
    """
    unsigned = evaluate(*unsigned_offsets(geometry))
    iy = np.abs(np.arange(1 - geometry.m_y, geometry.m_y))
    iz = np.abs(np.arange(1 - geometry.m_z, geometry.m_z))
    return separation_fill(geometry, unsigned[np.ix_(iy, iz)])

