"""Pilot-based channel estimation: filters and MSE analysis.

The estimator family shares one linear structure, estimate = W y, with W
either the scaled identity (least squares) or the Bayesian filter
sqrt(rho) Rhat (rho Rhat + I)^-1 built from a prior covariance Rhat.  The
analytic MSE the sweep reports is a sum over the prior's modes
(``mse_eigen_expansion``: one projection per prior, every SNR from it, LS as
M / rho); the dense error-covariance trace of a built filter
(``analytic_mse``) is kept as its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_positive_finite
from .linalg import CovarianceMatrix, relative_rank, spectral_rebuild, subspace_contained

__all__ = [
    "MMSE_TRUE",
    "MMSE_COUPLING_AWARE_ISO",
    "MMSE_ISO",
    "LS",
    "ESTIMATOR_KINDS",
    "EstimatorSpec",
    "mmse_filter",
    "ls_filter",
    "error_covariance",
    "analytic_mse",
    "mse_eigen_expansion",
    "verify_column_space",
]

MMSE_TRUE = "mmse_true"
MMSE_COUPLING_AWARE_ISO = "mmse_coupling_aware_iso"
MMSE_ISO = "mmse_iso"
LS = "ls"
ESTIMATOR_KINDS = (MMSE_TRUE, MMSE_COUPLING_AWARE_ISO, MMSE_ISO, LS)


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """A filter matrix W and the pilot SNR it assumes.

    ``mmse_filter`` also stores the prior's eigenbasis and the per-mode gains,
    nonincreasing, from which ``verify_column_space`` reads W's column space.
    A spec without them (LS, or one built by hand) has no column space to
    check.
    """

    filter: np.ndarray
    rho: float
    basis: np.ndarray | None = None
    gains: np.ndarray | None = None


def complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly symmetric unit-variance complex Gaussian draws."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def mmse_filter(r_hat: CovarianceMatrix, rho: float) -> EstimatorSpec:
    """Bayesian filter W = sqrt(rho) Rhat (rho Rhat + I)^-1 for a prior Rhat.

    Computed spectrally in Rhat's eigenbasis, which keeps rank-deficient
    priors exact: zero modes map to zero filter gain.
    """
    check_positive_finite(rho, "pilot SNR")
    eig = r_hat.eig
    gains = np.sqrt(rho) * eig.values / (rho * eig.values + 1.0)
    w = spectral_rebuild(eig.basis, gains)
    return EstimatorSpec(filter=w, rho=rho, basis=eig.basis, gains=gains)


def ls_filter(rho: float, m: int) -> EstimatorSpec:
    """Least-squares filter W = I / sqrt(rho)."""
    check_positive_finite(rho, "pilot SNR")
    return EstimatorSpec(filter=np.eye(m) / np.sqrt(rho), rho=rho)


def error_covariance(spec: EstimatorSpec, r_mc: CovarianceMatrix) -> np.ndarray:
    """Covariance of h - W y for a channel with covariance r_mc.

    Uses R_y = rho R + I and the cross-covariance sqrt(rho) R; the trace is
    the analytic MSE.
    """
    w = spec.filter
    r = r_mc.entries
    if w.shape[0] != r.shape[0]:
        raise ValueError("dimension mismatch between filter and covariance")
    rho = spec.rho
    r_y = rho * r + np.eye(r.shape[0])
    r_hy = np.sqrt(rho) * r
    err = w @ r_y @ w.conj().T - r_hy @ w.conj().T - w @ r_hy.conj().T + r
    return 0.5 * (err + err.conj().T)


def analytic_mse(spec: EstimatorSpec, r_mc: CovarianceMatrix) -> float:
    """Trace of the error covariance."""
    return float(np.trace(error_covariance(spec, r_mc)).real)


def mse_eigen_expansion(
    prior: CovarianceMatrix | None, r_mc: CovarianceMatrix, rhos
) -> np.ndarray:
    """MSE of the filter built from ``prior`` at each pilot SNR: the sweeps' route.

    With the prior's eigenpairs (u_i, lam_i), b_i = u_i^H R_mc u_i (one M x M
    product) and s_i = 1 / (rho lam_i + 1), the filter gain is g_i = sqrt(rho)
    lam_i s_i and MSE = sum_i b_i s_i^2 + g_i^2 (the paper's Prop. 3), O(M) per
    SNR.  ``prior=None`` is least squares, M / rho.
    """
    rhos = np.asarray(rhos, dtype=float)
    for rho in rhos.tolist():
        check_positive_finite(rho, "pilot SNR")
    # M / rho or rho lam_i may overflow to inf (so s_i = g_i = 0); callers check
    with np.errstate(over="ignore"):
        if prior is None:
            return r_mc.size / rhos
        eig = prior.eig
        b = np.sum(eig.basis.conj() * (r_mc.entries @ eig.basis), axis=0).real
        s = 1.0 / (rhos[:, None] * eig.values + 1.0)
        g = np.sqrt(rhos)[:, None] * eig.values * s
        return np.sum(b * s * s + g * g, axis=1)


def verify_column_space(spec: EstimatorSpec, basis: np.ndarray) -> float:
    """How far the filter's column space leaks out of span(basis), for an orthonormal
    ``basis`` (``subspace_contained`` rejects any other) of the expected space.

    W's column space is the stored eigenbasis cut at ``relative_rank`` of the
    stored gains; a spec without them raises ValueError.  Also pushes a batch
    of random observations through the filter and checks the estimates land in
    the same space.  Returns the worst residual; the caller judges it.
    """
    basis = np.asarray(basis)
    if basis.shape[0] != spec.filter.shape[0]:
        raise ValueError("basis row count must match the filter")
    if spec.basis is None or spec.gains is None:
        raise ValueError("the filter has no stored spectrum to read its column space from")
    # copied contiguous: subspace_contained's products on the strided slice
    # sum in another order and move residuals at roundoff
    basis_w = np.ascontiguousarray(spec.basis[:, : relative_rank(spec.gains)])
    residual = subspace_contained(basis_w, basis)
    rng = np.random.default_rng(0)
    batch = spec.filter @ complex_normal(rng, 16 * spec.filter.shape[0]).reshape(
        spec.filter.shape[0], 16
    )
    norm = np.linalg.norm(batch)
    if norm > 0:
        leak = batch - basis @ (basis.conj().T @ batch)
        residual = max(residual, float(np.linalg.norm(leak) / norm))
    return residual
