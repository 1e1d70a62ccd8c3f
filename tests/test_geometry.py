"""Array geometry, the separation layout, wave vectors, and the plane-wave response."""

import math

import numpy as np
import pytest

from holoest.correlation import iso_entry, iso_matrix
from holoest.coupling import (
    impedance_matrix,
    mutual_impedance_collinear,
    mutual_impedance_echelon,
    mutual_impedance_side_by_side,
    self_impedance,
)
from holoest.geometry import (
    Direction,
    UpaGeometry,
    array_response,
    element_position,
    element_positions,
    even_separation_matrix,
    wave_vector,
)


def test_first_element_at_origin():
    geom = UpaGeometry(m_y=3, m_z=5, d_y=0.3, d_z=0.4)
    assert np.array_equal(element_position(geom, 0), np.zeros(3))


def test_row_by_row_indexing():
    geom = UpaGeometry(m_y=10, m_z=10, d_y=0.2, d_z=0.2)
    assert np.allclose(element_position(geom, 10), [0.0, 0.2, 0.0])
    # r_y = floor(23/10) = 2, r_z = 23 mod 10 = 3
    assert np.allclose(element_position(geom, 23), [0.0, 0.4, 0.6])


def test_positions_injective():
    geom = UpaGeometry(m_y=4, m_z=3, d_y=0.2, d_z=0.2)
    pos = element_positions(geom)
    assert len({tuple(p) for p in pos.round(12)}) == geom.size


def test_index_out_of_range():
    geom = UpaGeometry(m_y=2, m_z=2, d_y=0.5, d_z=0.5)
    with pytest.raises(IndexError):
        element_position(geom, 4)
    with pytest.raises(IndexError):
        element_position(geom, -1)


def test_geometry_validation():
    with pytest.raises(ValueError):
        UpaGeometry(m_y=0, m_z=2, d_y=0.5, d_z=0.5)
    with pytest.raises(ValueError):
        UpaGeometry(m_y=2, m_z=2, d_y=-0.5, d_z=0.5)
    with pytest.raises(ValueError):
        UpaGeometry(m_y=2, m_z=2, d_y=0.5, d_z=0.5, dipole_radius=0.1)


def test_direction_validation():
    Direction(azimuth=0.5, elevation=-0.5)
    with pytest.raises(ValueError):
        Direction(azimuth=math.pi / 2, elevation=0.0)
    with pytest.raises(ValueError):
        Direction(azimuth=0.0, elevation=-math.pi / 2)


def test_wave_vector_broadside():
    k = wave_vector(Direction(0.0, 0.0), wavelength=1.0)
    assert np.allclose(k, [2 * math.pi, 0.0, 0.0])


def test_wave_vector_zenith_limit():
    lam = 0.5
    k = wave_vector(Direction(0.0, math.pi / 2 - 1e-9), wavelength=lam)
    assert abs(k[0]) < 1e-6
    assert k[2] == pytest.approx(2 * math.pi / lam, rel=1e-9)


def test_wave_vector_norm():
    k = wave_vector(Direction(math.pi / 4, math.pi / 6), wavelength=0.1)
    assert np.linalg.norm(k) == pytest.approx(20 * math.pi, abs=1e-12)


def test_array_response_broadside_all_ones():
    geom = UpaGeometry(m_y=3, m_z=4, d_y=0.2, d_z=0.2)
    a = array_response(geom, Direction(0.0, 0.0))
    assert np.allclose(a, np.ones(geom.size))


def test_array_response_unit_modulus():
    geom = UpaGeometry(m_y=4, m_z=4, d_y=0.2, d_z=0.2)
    a = array_response(geom, Direction(0.7, -0.4))
    assert np.allclose(np.abs(a), 1.0)
    assert np.allclose(a * np.conj(a), np.ones(geom.size))


def test_array_response_near_zenith_phases(geom_2x2):
    # z-indices run fastest: elements 0..3 sit at rz = (0, 1, 0, 1), so a wave
    # from near-zenith phases them as (0, pi/2, 0, pi/2) at quarter spacing.
    a = array_response(geom_2x2, Direction(0.0, math.pi / 2 - 1e-9))
    phases = np.angle(a)
    assert phases == pytest.approx([0.0, math.pi / 2, 0.0, math.pi / 2], abs=1e-6)


def test_array_response_entry_is_first_element_normalized():
    geom = UpaGeometry(m_y=5, m_z=2, d_y=0.31, d_z=0.17)
    a = array_response(geom, Direction(0.3, 0.2))
    assert a[0] == pytest.approx(1.0)


def _pair_impedance(geom, dy, dz):
    length, radius = geom.dipole_length, geom.dipole_radius
    if dy == 0.0 and dz == 0.0:
        return self_impedance(length, radius)
    if dz == 0.0:
        return mutual_impedance_side_by_side(dy, length)
    if dy == 0.0:
        return mutual_impedance_collinear(dz, length, radius)
    return mutual_impedance_echelon(dy, dz, length)


@pytest.mark.filterwarnings("ignore::holoest.coupling.GeometryOverlapWarning")
@pytest.mark.parametrize(
    "build, pair",
    [
        (lambda g: even_separation_matrix(g, complex), lambda g, dy, dz: complex(dy, dz)),
        (impedance_matrix, _pair_impedance),
        (lambda g: iso_matrix(g).entries, lambda g, dy, dz: iso_entry(dy, dz)),
    ],
    ids=["layout", "impedance", "iso"],
)
def test_entries_follow_element_separation(build, pair):
    # non-square, with d_y != d_z, so a swapped axis or transposed layout shows
    geom = UpaGeometry(m_y=3, m_z=5, d_y=0.3, d_z=0.45)
    matrix = build(geom)
    pos = element_positions(geom)
    expected = {}
    for n in range(geom.size):
        for j in range(geom.size):
            _, dy, dz = np.abs(pos[n] - pos[j]).round(12)
            if (dy, dz) not in expected:
                expected[dy, dz] = pair(geom, dy, dz)
            assert matrix[n, j] == pytest.approx(expected[dy, dz], abs=1e-9)
