"""Eigen-machinery contracts: ordering, determinism, square roots, subspaces."""

import warnings

import numpy as np
import pytest

from holoest.coupling import GeometryOverlapWarning, effective_correlation
from holoest.experiments import (
    CouplingConfig,
    SweepConfig,
    build_channel,
    default_cluster_scenario,
)
from holoest.geometry import UpaGeometry
from holoest.linalg import (
    CovarianceMatrix,
    _require_hermitian,
    hermitian_eig,
    orthonormal_column_basis,
    principal_subspace,
    psd_clamp,
    psd_sqrt,
    subspace_contained,
)


def random_hermitian(n: int, seed: int, psd: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if psd:
        return a @ a.conj().T
    return 0.5 * (a + a.conj().T)


def test_identity_eigenvalues():
    eig = hermitian_eig(np.eye(4))
    assert np.allclose(eig.values, 1.0)


def test_sorted_nonincreasing():
    eig = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.values, [3.0, 2.0, 1.0])


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_reconstruction(seed):
    a = random_hermitian(12, seed)
    eig = hermitian_eig(a)
    rebuilt = (eig.basis * eig.values) @ eig.basis.conj().T
    scale = max(abs(eig.values[0]), 1.0)
    assert np.abs(rebuilt - a).max() < 1e-10 * scale
    assert np.abs(eig.basis.conj().T @ eig.basis - np.eye(12)).max() < 1e-10


def test_eigenvectors_as_eigh_returns_them_and_determinism(r_iso_10x10):
    # the clamped R_iso has a large zeroed null space: one degenerate group
    # whose in-group basis must still repeat call for call
    for a in (random_hermitian(9, 3), r_iso_10x10.entries):
        eig1 = hermitian_eig(a)
        eig2 = hermitian_eig(a.copy())
        assert np.array_equal(eig1.basis, eig2.basis)
        assert np.array_equal(eig1.values, eig2.values)
        # no phase convention: the columns are eigh's, in reverse order
        assert np.array_equal(eig1.basis, np.linalg.eigh(a)[1][:, ::-1])


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_identity_and_diag():
    assert np.allclose(psd_sqrt(psd_clamp(np.eye(3))), np.eye(3))
    root = psd_sqrt(psd_clamp(np.diag([4.0, 9.0])))
    assert np.allclose(root, np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back(r_iso_10x10):
    root = psd_sqrt(r_iso_10x10)
    top = r_iso_10x10.eig.values[0]
    assert np.abs(root @ root - r_iso_10x10.entries).max() < 1e-8 * top


def test_psd_sqrt_commutes_with_eig():
    a = random_hermitian(8, 11, psd=True)
    eig = hermitian_eig(a)
    direct = psd_sqrt(psd_clamp(a))
    spectral = (eig.basis * np.sqrt(eig.values)) @ eig.basis.conj().T
    assert np.abs(direct - spectral).max() < 1e-10 * eig.values[0]


def test_psd_clamp_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError, match="min eigenvalue -5.000e-01"):
        psd_clamp(np.diag([1.0, -0.5]))


def test_from_spectrum_clamp_boundary():
    # -_CLAMP_TOL * lambda_1 = -1e-10 separates roundoff (zeroed) from indefinite
    basis = np.eye(2)
    clamped = CovarianceMatrix.from_spectrum(basis, np.array([1.0, -0.9e-10]))
    assert np.array_equal(clamped.eig.values, [1.0, 0.0])
    assert np.array_equal(clamped.entries, np.diag([1.0, 0.0]))
    with pytest.raises(np.linalg.LinAlgError, match="min eigenvalue -1.100e-10"):
        CovarianceMatrix.from_spectrum(basis, np.array([1.0, -1.1e-10]))


def _full_impedance_cluster_4x4():
    config = SweepConfig(
        UpaGeometry(m_y=4, m_z=4, d_y=0.2, d_z=0.2),
        default_cluster_scenario(3),
        mc_trials=0,
        coupling=CouplingConfig(use_full_impedance=True),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometryOverlapWarning)
        return build_channel(config)


@pytest.mark.parametrize("channel", ["channel_iso_10x10", "channel_clu_10x10", "full_4x4"])
def test_covariances_exactly_hermitian_and_real_with_basis(channel, request):
    # why from_spectrum needs neither a Hermitian recheck nor a `real` flag
    if channel == "full_4x4":
        channel = _full_impedance_cluster_4x4()
        assert not np.isrealobj(channel.r_mc.eig.basis)
    else:
        channel = request.getfixturevalue(channel)
    for c in (channel.r_iso, channel.r_base, channel.r_mc, channel.r_hat_aware):
        assert np.array_equal(c.entries, c.entries.conj().T)
        assert np.isrealobj(c.entries) == np.isrealobj(c.eig.basis)


def test_principal_subspace_full_and_rank_one():
    assert principal_subspace(psd_clamp(np.eye(5))).shape == (5, 5)
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    basis = principal_subspace(psd_clamp(np.outer(v, v)))
    assert basis.shape == (3, 1)
    assert abs(abs(np.vdot(basis[:, 0], v)) - 1.0) < 1e-12


def test_principal_subspace_zero_matrix():
    basis = principal_subspace(psd_clamp(np.zeros((4, 4))))
    assert basis.shape == (4, 0)


def test_subspace_contained_reflexive():
    basis = hermitian_eig(random_hermitian(6, 5, psd=True)).basis[:, :3]
    assert subspace_contained(basis, basis) < 1e-13


def test_subspace_contained_orthogonal():
    e1 = np.eye(3)[:, :1]
    e2 = np.eye(3)[:, 1:2]
    assert subspace_contained(e1, e2) == pytest.approx(1.0)


def test_subspace_contained_monotone_under_truncation():
    basis = hermitian_eig(random_hermitian(8, 9, psd=True)).basis
    assert subspace_contained(basis[:, :2], basis[:, :5]) < 1e-10


def test_subspace_rejects_non_orthonormal():
    bad = np.ones((4, 2))
    with pytest.raises(ValueError):
        subspace_contained(bad, np.eye(4))


def test_orthonormal_column_basis_spans_factor():
    rng = np.random.default_rng(2)
    factor = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 4))
    basis = orthonormal_column_basis(factor)
    assert basis.shape == (6, 3)
    leak = factor - basis @ (basis.conj().T @ factor)
    assert np.abs(leak).max() < 1e-10


@pytest.mark.parametrize(
    "build",
    [
        lambda model, r: effective_correlation(model, r).entries,
        lambda model, r: orthonormal_column_basis(model.coupling_sqrt @ psd_sqrt(r)),
    ],
    ids=["effective_correlation", "orthonormal_column_basis"],
)
def test_svd_falls_back_to_gesvd(build, model_4x4, r_iso_4x4, monkeypatch):
    expected = build(model_4x4, r_iso_4x4)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    retried = build(model_4x4, r_iso_4x4)
    scale = np.abs(expected).max()
    assert np.abs(retried - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize(
    "check", [psd_clamp, _require_hermitian], ids=["psd_clamp", "_require_hermitian"]
)
def test_every_hermitian_check_rejects_small_asymmetry(check):
    a = random_hermitian(4, 3, psd=True)
    a = a / np.abs(a).max()
    a[0, 1] += 1e-11
    with pytest.raises(ValueError):
        check(a)
    check(0.5 * (a + a.conj().T))  # the Hermitian part passes
