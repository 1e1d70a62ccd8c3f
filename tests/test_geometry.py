"""Array geometry and the separation layout."""

import numpy as np
import pytest

from holoest import correlation
from holoest.correlation import iso_entry, iso_matrix
from holoest.coupling import (
    impedance_matrix,
    mutual_impedance_collinear,
    mutual_impedance_echelon,
    mutual_impedance_side_by_side,
    self_impedance,
)
from holoest.geometry import (
    UpaGeometry,
    element_positions,
    even_separation_matrix,
)


def test_first_element_at_origin():
    geom = UpaGeometry(m_y=3, m_z=5, d_y=0.3, d_z=0.4)
    assert np.array_equal(element_positions(geom)[0], np.zeros(3))


def test_row_by_row_indexing():
    geom = UpaGeometry(m_y=10, m_z=10, d_y=0.2, d_z=0.2)
    pos = element_positions(geom)
    assert np.allclose(pos[10], [0.0, 0.2, 0.0])
    # r_y = floor(23/10) = 2, r_z = 23 mod 10 = 3
    assert np.allclose(pos[23], [0.0, 0.4, 0.6])


def test_positions_injective():
    geom = UpaGeometry(m_y=4, m_z=3, d_y=0.2, d_z=0.2)
    pos = element_positions(geom)
    assert len({tuple(p) for p in pos.round(12)}) == geom.size


@pytest.mark.parametrize(
    "m_y, m_z", [(2.5, 2), (True, 2), (2, 2.0)], ids=["fraction", "bool", "float"]
)
def test_array_sizes_must_be_integers(m_y, m_z):
    # each was built and then failed in run_sweep with an untyped TypeError
    with pytest.raises(ValueError, match="expected an integer m_"):
        UpaGeometry(m_y, m_z, 0.2, 0.2)


def test_geometry_validation():
    with pytest.raises(ValueError):
        UpaGeometry(m_y=0, m_z=2, d_y=0.5, d_z=0.5)
    with pytest.raises(ValueError):
        UpaGeometry(m_y=2, m_z=2, d_y=-0.5, d_z=0.5)
    with pytest.raises(ValueError):
        UpaGeometry(m_y=2, m_z=2, d_y=0.5, d_z=0.5, dipole_radius=0.1)
    # wires closer than their diameter intersect; one column has no neighbours
    with pytest.raises(ValueError, match="geometry.d_y"):
        UpaGeometry(m_y=2, m_z=2, d_y=0.0039, d_z=0.5, dipole_radius=0.002)
    UpaGeometry(m_y=2, m_z=2, d_y=0.004, d_z=0.5, dipole_radius=0.002)
    UpaGeometry(m_y=1, m_z=2, d_y=1e-300, d_z=0.5)
    with pytest.raises(ValueError, match="geometry.dipole_radius"):
        UpaGeometry(m_y=2, m_z=2, d_y=0.5, d_z=0.5, dipole_radius=1e-160)


@pytest.mark.parametrize(
    "fields, keys",
    [
        ({"dipole_radius": 0.06}, ("geometry.dipole_radius", "geometry.dipole_length")),
        ({"d_y": 0.0039}, ("geometry.d_y", "geometry.dipole_radius")),
        ({"dipole_radius": 1e-160}, ("geometry.dipole_radius", "geometry.dipole_length")),
    ],
)
def test_cross_key_rules_name_both_keys(fields, keys):
    with pytest.raises(ValueError) as err:
        UpaGeometry(**{"m_y": 2, "m_z": 2, "d_y": 0.5, "d_z": 0.5, **fields})
    assert all(key in str(err.value) for key in keys)


def _pair_impedance(geom, dy, dz):
    length, radius = geom.dipole_length, geom.dipole_radius
    if dy == 0.0 and dz == 0.0:
        return self_impedance(length, radius)
    if dz == 0.0:
        return mutual_impedance_side_by_side(dy, length)
    if dy == 0.0:
        return mutual_impedance_collinear(dz, length, radius)
    return mutual_impedance_echelon(dy, dz, length)


def _iso_entries_before_clamp(geom, monkeypatch):
    built = []
    monkeypatch.setattr(correlation, "psd_clamp", lambda entries, **_: built.append(entries))
    iso_matrix(geom)
    return built[0]


@pytest.mark.filterwarnings("ignore::holoest.coupling.GeometryOverlapWarning")
@pytest.mark.parametrize(
    "build, pair",
    [
        (
            lambda g, _: even_separation_matrix(g, lambda dy, dz: dy + 1j * dz),
            lambda g, dy, dz: complex(dy, dz),
        ),
        (lambda g, _: impedance_matrix(g), _pair_impedance),
        (_iso_entries_before_clamp, lambda g, dy, dz: iso_entry(dy, dz)),
    ],
    ids=["layout", "impedance", "iso"],
)
def test_entries_follow_element_separation(build, pair, monkeypatch):
    # non-square, with d_y != d_z, so a swapped axis or transposed layout
    # shows; the grid evaluators must reproduce the scalar calls exactly
    geom = UpaGeometry(m_y=3, m_z=5, d_y=0.3, d_z=0.45)
    matrix = build(geom, monkeypatch)
    pos = element_positions(geom)
    expected = {}
    for n in range(geom.size):
        for j in range(geom.size):
            _, dy, dz = np.abs(pos[n] - pos[j])
            a, b = round(dy / geom.d_y), round(dz / geom.d_z)
            if (a, b) not in expected:
                expected[a, b] = pair(geom, a * geom.d_y, b * geom.d_z)
            assert matrix[n, j] == expected[a, b]
