"""Structural invariants of the correlation matrices over random geometries.

Each property holds exactly in exact arithmetic; its bound is derived from
roundoff (eps, the array size M and the matrix's scale), not fitted to the
values measured.  The profile is fixed (derandomized, bounded example count),
so these tests are as deterministic as the rest of the suite.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from holoest import correlation
from holoest.correlation import (
    _BESSEL_FLOOR,
    _BESSEL_SLACK,
    SERIES_RADIUS,
    _gl_order,
    _iso_bessel,
    cluster_matrix,
    iso_entry,
    iso_matrix,
)
from holoest.estimation import ESTIMATOR_KINDS, MMSE_TRUE, mse_eigen_expansion
from holoest.experiments import SweepConfig, build_channel, default_cluster_scenario, pilot_snr
from holoest.geometry import UpaGeometry, element_positions, unsigned_offsets
from holoest.linalg import _CLAMP_TOL
from holoest.special import DIPOLE_DIRECTIVITY

EPS = np.finfo(float).eps

# 6 examples per property.  The module takes about 3.1 s alone on 2 vCPUs;
# 1.5 s of it is the first property, which builds most of the Gauss-Legendre
# rules the others reuse (a call builds two, which take 0.4 s together at 100
# wavelengths), and the three properties after the gate ones take 0.9 s.
# Unseeded scans left every residual under 0.13 of its bound (60 examples per
# gate property), the per-offset agreement under 0.003 (60) and the trace
# under 0.04 (300); no estimator fell below the true prior's MSE (300).
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


# isotropic, or the default 20-cluster scenario at a drawn seed
scenarios = st.one_of(
    st.just("isotropic"), st.integers(0, 2**32 - 1).map(default_cluster_scenario)
)

# 2 to 6 pilot SNRs on [-20, 40] dB, ascending, on a 0.1 dB grid: adjacent
# points are at least 0.1 dB apart, so each MSE falls between them by far more
# than its roundoff
snr_grids = st.lists(st.integers(-200, 400), min_size=2, max_size=6, unique=True).map(
    lambda tenths: tuple(t / 10.0 for t in sorted(tenths))
)


def grid_index(geometry: UpaGeometry) -> dict[tuple[int, int], int]:
    """Element index of each (y, z) grid position."""
    pos = element_positions(geometry)
    ry = np.rint(pos[:, 1] / geometry.d_y).astype(int).tolist()
    rz = np.rint(pos[:, 2] / geometry.d_z).astype(int).tolist()
    return {key: n for n, key in enumerate(zip(ry, rz))}


def reversal(geometry: UpaGeometry, flip_y: bool, flip_z: bool) -> np.ndarray:
    """Element index permutation reversing the y and/or z grid index."""
    index = grid_index(geometry)
    return np.array(
        [
            index[geometry.m_y - 1 - y if flip_y else y, geometry.m_z - 1 - z if flip_z else z]
            for y, z in index
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


def _bessel_rule_rounding(order: int, separation: float) -> float:
    """Bound on the roundoff of one Bessel-rule value at ``order`` nodes.

    The value is P sum_i w_i f_i with P = (D/2)(pi/2), weights summing to 2
    and |f_i| = |cos^4 J0(x) cos(y)| <= 1.  The arguments x, y <= 2 pi r take
    3 roundings each, so they are off by up to 3 eps 2 pi r, and J0 and cos
    have slopes at most 1: 12 pi r eps for both.  J0 itself (within 16 eps),
    cos, cos^4, the products and the weights add at most 32 eps more per
    node.  The dot of ``order`` terms adds order eps sum |w_i f_i|.
    """
    return 2.0 * (0.5 * DIPOLE_DIRECTIVITY * math.pi / 2.0) * EPS * (
        order + 12.0 * math.pi * separation + 32.0
    )


@PROFILE
@given(geometries())
def test_iso_matrix_entries_agree_with_per_offset_calls(geometry):
    # iso_matrix takes every entry from one iso_entry call, whose Bessel rule
    # is sized at the array's largest separation; a call for one offset is
    # sized at that offset's own.  Each value is Q_2m, the doubled pass of
    # order m, and |Q_2m - I| <= |Q_m - Q_2m| (the premise of the gate), so
    # the two differ by at most the doubled-order differences at both orders
    # plus the roundoff of the six values that enter: Q_m and Q_2m at each
    # order, each appearing once in a difference and once as a result.  The
    # larger order bounds all six.  Series entries are the same per-offset
    # arithmetic in both, so they agree exactly.
    built = []
    with mock.patch.object(correlation, "psd_clamp", lambda entries, **_: built.append(entries)):
        iso_matrix(geometry)
    entries = built[0]
    index = grid_index(geometry)
    dy, dz = unsigned_offsets(geometry)
    largest = float(np.hypot(dy, dz).max())
    call = int(_gl_order(2.0 * math.pi * largest, math.pi, _BESSEL_FLOOR, _BESSEL_SLACK))
    for a in range(geometry.m_y):
        for b in range(geometry.m_z):
            y, z = float(dy[a, b]), float(dz[a, b])
            single = iso_entry(y, z)
            value = entries[index[a, b], index[0, 0]]
            separation = math.hypot(y, z)
            if separation <= SERIES_RADIUS:
                assert value == single
                continue
            own = int(_gl_order(2.0 * math.pi * separation, math.pi, _BESSEL_FLOOR, _BESSEL_SLACK))
            doubled = sum(
                abs(float(_iso_bessel(y, z, m)) - float(_iso_bessel(y, z, 2 * m)))
                for m in (own, call)
            )
            bound = doubled + 6.0 * _bessel_rule_rounding(2 * call, separation)
            assert abs(value - single) <= bound


@PROFILE
@pytest.mark.filterwarnings("ignore::holoest.coupling.GeometryOverlapWarning")
@given(geometries())
def test_coupling_normalization_preserves_the_isotropic_trace(geometry):
    # C^1/2 is scaled so that tr(C^1/2 R_iso C^1/2) = tr R_iso; the coupled
    # isotropic matrix is R_hat_aware on every scenario.  Its trace is the
    # sum of the squared singular values of F = C^1/2 R_iso^1/2, which loses
    # (i) the eigenvalues the clamp zeroes, each under _CLAMP_TOL lam_1, and
    # (ii) roundoff.  Of the roundoff, the normalization's sum of the entries
    # of C^1/2 * (C^1/2 R_iso) is the one that can cancel: it errs by at most
    # 2 M eps tr(|C^1/2| |R| |C^1/2|) <= 2 M^2 eps |C^1/2|_2^2 tr R (with
    # |R_jk| <= sqrt(R_jj R_kk) and |||A|||_2 <= sqrt(M) |A|_2), against a
    # value of at least sigma_min(C^1/2)^2 tr R: 2 M^2 eps kappa^2 relative,
    # kappa the condition number of C^1/2.  The product F (2 M^1.5 eps kappa),
    # the SVD (2 * 8 M^1.5 eps) and the square-root rebuild and both traces
    # (M eps each, sums of nonnegative terms) stay under 22 M^2 eps more.
    channel = build_channel(SweepConfig(geometry, mc_trials=0))
    aware, r_iso = channel.r_hat_aware, channel.r_iso
    m = geometry.size
    kappa = np.linalg.cond(channel.model.coupling_sqrt)
    clamped = np.count_nonzero(aware.eig.values == 0.0) * _CLAMP_TOL * aware.eig.values[0]
    bound = (2.0 * kappa**2 + 22.0) * m * m * EPS * r_iso.trace() + clamped
    assert abs(aware.trace() - r_iso.trace()) <= bound


def _expansion_rounding(m: int, r_mc, mse: np.ndarray) -> np.ndarray:
    """Bound on the roundoff of ``mse_eigen_expansion`` against R_mc.

    b_i = u_i^H R u_i is a sum of M products: it errs by at most
    M eps |u_i|^T |R| |u_i|, and over all i by M eps sum_jk |R_jk| <= M^2 eps
    tr R (|R_jk| <= sqrt(R_jj R_kk); the weights s_i^2 are at most 1).  Each
    term b s^2 + g^2 takes at most 8 roundings and the sum of M terms M more,
    relative to the MSE.
    """
    return m * m * EPS * r_mc.trace() + (m + 8.0) * EPS * mse


@PROFILE
@pytest.mark.filterwarnings("ignore::holoest.coupling.GeometryOverlapWarning")
@given(geometries(), scenarios, snr_grids)
def test_analytic_mse_is_least_for_the_true_prior_and_falls_with_snr(geometry, scenario, snr_db):
    channel = build_channel(SweepConfig(geometry, scenario, snr_grid_db=snr_db, mc_trials=0))
    m, r_mc = geometry.size, channel.r_mc
    rhos = np.array([pilot_snr(x) for x in snr_db])
    mse = {kind: mse_eigen_expansion(channel.prior(kind), r_mc, rhos) for kind in ESTIMATOR_KINDS}
    rounding = {kind: _expansion_rounding(m, r_mc, value) for kind, value in mse.items()}
    # The true prior's filter is the linear MMSE one, so every other filter's
    # MSE is at least its own.  Computed, each route is the exact MSE of the
    # filter from eigenpairs of a prior within 8 M eps lam_1 of the stored
    # one, up to its roundoff; that perturbation raises the true filter's MSE
    # by at most M 4 rho (rho lam_1 + 1) (8 M eps lam_1)^2 (second order in it).
    lam_1 = r_mc.eig.values[0]
    excess = m * 4.0 * rhos * (rhos * lam_1 + 1.0) * (8.0 * m * EPS * lam_1) ** 2
    for kind in ESTIMATOR_KINDS:
        slack = rounding[kind] + rounding[MMSE_TRUE] + excess
        assert np.all(mse[kind] >= mse[MMSE_TRUE] - slack), kind
    # The matched filter's MSE, sum lam / (rho lam + 1), and LS's, M / rho,
    # fall strictly.  A mismatched prior's need not: its slope at rho = 0 is
    # tr(R_hat^2) - 2 tr(R_hat R), positive on strongly coupled arrays.  Each
    # step is at least 0.1 dB; a fall larger than both values' roundoff is a
    # strict fall of the exact MSE.
    for kind in ESTIMATOR_KINDS:
        if channel.prior(kind) in (r_mc, None):
            fall = mse[kind][:-1] - mse[kind][1:]
            assert np.all(fall > rounding[kind][:-1] + rounding[kind][1:]), kind
