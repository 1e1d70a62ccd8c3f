"""Uniform planar array geometry in the yz-plane and plane-wave response.

Also owns the separation layout: every matrix of the array whose entries
depend only on the element pair's offset is assembled from a grid of
per-offset values by ``separation_fill`` or ``even_separation_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "DEFAULT_FREQUENCY",
    "UpaGeometry",
    "Direction",
    "element_position",
    "element_positions",
    "separation_fill",
    "even_separation_matrix",
    "wave_vector",
    "array_response",
]

SPEED_OF_LIGHT = 299792458.0
DEFAULT_FREQUENCY = 3.0e9


@dataclass(frozen=True)
class UpaGeometry:
    """Regular grid of z-directed thin dipoles in the yz-plane.

    Spacings and dipole dimensions are in wavelengths; ``wavelength`` (meters)
    enters only where an absolute scale is needed (wave vectors in rad/m).
    Element 0 sits at the origin and indexing runs along z first, then y.
    """

    m_y: int
    m_z: int
    d_y: float
    d_z: float
    wavelength: float = SPEED_OF_LIGHT / DEFAULT_FREQUENCY
    dipole_length: float = 0.5
    dipole_radius: float = 1.0 / 500.0

    def __post_init__(self) -> None:
        if self.m_y < 1 or self.m_z < 1:
            raise ValueError("element counts must be positive")
        for name in ("d_y", "d_z", "wavelength", "dipole_length", "dipole_radius"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.dipole_radius >= self.dipole_length / 10.0:
            raise ValueError("thin-dipole regime requires radius < length/10")

    @property
    def size(self) -> int:
        return self.m_y * self.m_z

    def row_column(self, m: int) -> tuple[int, int]:
        """(y-index, z-index) of element m, 0-based."""
        if not 0 <= m < self.size:
            raise IndexError(f"element index {m} outside 0..{self.size - 1}")
        return m // self.m_z, m % self.m_z


@dataclass(frozen=True)
class Direction:
    """Azimuth/elevation pair, both strictly inside the open front half-space."""

    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        half = np.pi / 2
        if not (-half < self.azimuth < half):
            raise ValueError("azimuth must lie in (-pi/2, pi/2)")
        if not (-half < self.elevation < half):
            raise ValueError("elevation must lie in (-pi/2, pi/2)")


def element_position(geometry: UpaGeometry, m: int) -> np.ndarray:
    """Position of element m as (x, y, z) in wavelength units."""
    ry, rz = geometry.row_column(m)
    return np.array([0.0, ry * geometry.d_y, rz * geometry.d_z])


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


def even_separation_matrix(geometry: UpaGeometry, entry) -> np.ndarray:
    """Full matrix of entries that depend on |dy|, |dz| only.

    Calls ``entry(dy, dz)`` once per unsigned offset (wavelength units) and
    mirrors the values onto the signed-separation grid.
    """
    unsigned = np.array(
        [
            [entry(a * geometry.d_y, b * geometry.d_z) for b in range(geometry.m_z)]
            for a in range(geometry.m_y)
        ]
    )
    iy = np.abs(np.arange(1 - geometry.m_y, geometry.m_y))
    iz = np.abs(np.arange(1 - geometry.m_z, geometry.m_z))
    return separation_fill(geometry, unsigned[np.ix_(iy, iz)])


def wave_vector(direction: Direction, wavelength: float) -> np.ndarray:
    """Plane-wave vector in rad/m; Euclidean norm is 2 pi / wavelength."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    az, el = direction.azimuth, direction.elevation
    return (2.0 * np.pi / wavelength) * np.array(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
    )


def array_response(geometry: UpaGeometry, direction: Direction) -> np.ndarray:
    """Unit-modulus response vector for a plane wave from the given direction.

    Entry m is exp(j k^T r_m); element 0 is at the origin so its entry is 1.
    """
    az, el = direction.azimuth, direction.elevation
    unit = np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    phase = 2.0 * np.pi * element_positions(geometry) @ unit
    return np.exp(1j * phase)
