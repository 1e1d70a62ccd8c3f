"""Structural invariants of the correlation matrices over random geometries.

Each property holds exactly in exact arithmetic; its bound is derived from
roundoff (eps, the array size M and the matrix's scale), not fitted to the
values measured.  The profile is fixed (derandomized, bounded example count),
so these tests are as deterministic as the rest of the suite.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from holoest.correlation import cluster_matrix, iso_matrix
from holoest.experiments import default_cluster_scenario
from holoest.geometry import UpaGeometry, element_positions

EPS = np.finfo(float).eps

# An example takes about 0.1 s once the Gauss-Legendre rules are cached, up to
# 0.9 s when its orders are new: 6 per property add about 1.3 s to Tier-1 on
# 2 vCPUs.  A 60-example scan at this profile's strategies left every residual
# under 0.13 of its bound.
PROFILE = settings(
    derandomize=True,
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# spacings log-uniform on 0.05 to 14 wavelengths
spacings = st.floats(math.log(0.05), math.log(14.0)).map(math.exp)


@st.composite
def geometries(draw) -> UpaGeometry:
    """1 to 8 elements per side inside the correlation routes' 100-wavelength
    range, with the y-spacing at least the wire diameter."""
    m_y, m_z = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    d_y, d_z = draw(spacings), draw(spacings)
    assume(math.hypot((m_y - 1) * d_y, (m_z - 1) * d_z) <= 100.0)
    geometry = UpaGeometry(m_y=m_y, m_z=m_z, d_y=d_y, d_z=d_z)
    assume(d_y >= 2.0 * geometry.dipole_radius)
    return geometry


def reversal(geometry: UpaGeometry, flip_y: bool, flip_z: bool) -> np.ndarray:
    """Element index permutation reversing the y and/or z grid index."""
    pos = element_positions(geometry)
    ry = np.rint(pos[:, 1] / geometry.d_y).astype(int).tolist()
    rz = np.rint(pos[:, 2] / geometry.d_z).astype(int).tolist()
    index = {key: n for n, key in enumerate(zip(ry, rz))}
    return np.array(
        [
            index[geometry.m_y - 1 - y if flip_y else y, geometry.m_z - 1 - z if flip_z else z]
            for y, z in zip(ry, rz)
        ]
    )


def roundoff_bound(r) -> float:
    """Entry bound on how far a rebuilt covariance strays from a structure its
    unclamped entries have exactly.

    The entries are U diag(lam) U^H from a backward-stable eigh: the pair is
    exact for a matrix within c M eps lam_1 (2-norm) of the input, and each
    rebuilt entry sums M products, adding at most M eps lam_1 more.  Zeroing
    the eigenvalues below the clamp removes a spectral subspace the symmetry
    maps onto itself, so it adds nothing.  With c = 8 for the eigensolver and
    both sides of the comparison carrying the error, 2 (8 + 1) M eps lam_1
    bounds the residual.
    """
    return 2.0 * (8.0 + 1.0) * r.size * EPS * r.eig.values[0]


@PROFILE
@given(geometries())
def test_iso_matrix_passes_the_gate_and_commutes_with_axis_reversals(geometry):
    # the entries depend on |dy| and |dz| only, so P R P = R for P_y and P_z
    r = iso_matrix(geometry)
    for flips in ((True, False), (False, True)):
        p = reversal(geometry, *flips)
        residual = np.abs(r.entries[np.ix_(p, p)] - r.entries).max()
        assert residual <= roundoff_bound(r)


@PROFILE
@given(geometries(), st.integers(0, 2**32 - 1))
def test_cluster_matrix_passes_the_gate_and_is_centro_hermitian(geometry, seed):
    # the offset -dr mirrors +dr by conjugation, so J R J = conj R under the
    # full index reversal J
    r = cluster_matrix(geometry, default_cluster_scenario(seed))
    assert r.meta["quad_error_estimate"] <= 1e-8
    p = reversal(geometry, True, True)
    residual = np.abs(r.entries[np.ix_(p, p)] - r.entries.conj()).max()
    assert residual <= roundoff_bound(r)
