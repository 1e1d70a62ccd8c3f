"""Pilot-based channel estimation: filters and MSE analysis.

The estimator family shares one linear structure, estimate = W y, with W
either the scaled identity (least squares) or the Bayesian filter
sqrt(rho) Rhat (rho Rhat + I)^-1 built from a prior covariance Rhat.  The
analytic MSE comes from the error-covariance trace; an equivalent
eigen-expansion over the bases of W and the channel covariance is provided
as a second route and is validated against the trace form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CovarianceMatrix
from .linalg import (
    DEFAULT_RANK_TOL,
    hermitian_eig,
    orthonormal_column_basis,
    principal_subspace,
    subspace_contained,
)

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
    "mse_mismatched_beta",
    "verify_column_space",
]

MMSE_TRUE = "mmse_true"
MMSE_COUPLING_AWARE_ISO = "mmse_coupling_aware_iso"
MMSE_ISO = "mmse_iso"
LS = "ls"
ESTIMATOR_KINDS = (MMSE_TRUE, MMSE_COUPLING_AWARE_ISO, MMSE_ISO, LS)


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """Estimator kind, its filter matrix W, and the pilot SNR it assumes.

    Filters built spectrally also carry their eigenbasis and per-mode gains,
    which keeps column-space analysis exact instead of re-factorizing W.
    """

    kind: str
    filter: np.ndarray
    rho: float
    basis: np.ndarray | None = None
    gains: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.rho <= 0:
            raise ValueError("pilot SNR must be positive")


def complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly symmetric unit-variance complex Gaussian draws."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def mmse_filter(r_hat: CovarianceMatrix, rho: float, kind: str = MMSE_TRUE) -> EstimatorSpec:
    """Bayesian filter W = sqrt(rho) Rhat (rho Rhat + I)^-1 for a prior Rhat.

    Computed spectrally in Rhat's eigenbasis, which keeps rank-deficient
    priors exact: zero modes map to zero filter gain.
    """
    if rho <= 0:
        raise ValueError("pilot SNR must be positive")
    if kind == LS:
        raise ValueError("use ls_filter for the least-squares estimator")
    eig = r_hat.eig
    gains = np.sqrt(rho) * eig.values / (rho * eig.values + 1.0)
    w = (eig.basis * gains) @ eig.basis.conj().T
    w = 0.5 * (w + w.conj().T)
    return EstimatorSpec(kind=kind, filter=w, rho=rho, basis=eig.basis, gains=gains)


def ls_filter(rho: float, m: int) -> EstimatorSpec:
    """Least-squares filter W = I / sqrt(rho)."""
    if rho <= 0:
        raise ValueError("pilot SNR must be positive")
    return EstimatorSpec(kind=LS, filter=np.eye(m) / np.sqrt(rho), rho=rho)


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


def mse_eigen_expansion(spec: EstimatorSpec, r_mc: CovarianceMatrix) -> float:
    """MSE via the eigen-expansion over the filter and channel bases.

    Requires a Hermitian filter (true for the whole estimator family); the
    trace of error_covariance is the oracle this must agree with.
    """
    rho = spec.rho
    w_eig = hermitian_eig(spec.filter)
    h_eig = r_mc.eig
    overlap = np.abs(w_eig.basis.conj().T @ h_eig.basis) ** 2
    lam_w = w_eig.values
    lam_h = h_eig.values
    beta = np.outer(lam_w**2, rho * lam_h + 1.0) - 2.0 * np.sqrt(rho) * np.outer(
        lam_w, lam_h
    )
    return float(np.sum(beta * overlap) + np.sum(lam_h))


def mse_mismatched_beta(lambda_h: float, lambda_w_source: float, rho: float) -> float:
    """Per-mode MSE weight when the filter is built from a mismatched prior.

    ``lambda_w_source`` is the prior-covariance eigenvalue (not the filter
    gain); the expression equals the general expansion weight after mapping
    the prior eigenvalue through the Bayesian filter.
    """
    if rho <= 0:
        raise ValueError("pilot SNR must be positive")
    inv_rho = 1.0 / rho
    lam = lambda_w_source
    return (lambda_h + inv_rho) / (lam + inv_rho) ** 2 * lam**2 - 2.0 * lambda_h * lam / (
        lam + inv_rho
    )


def verify_column_space(
    spec: EstimatorSpec,
    expected_factor: np.ndarray,
    tol: float,
    rng: np.random.Generator | None = None,
) -> tuple[bool, float]:
    """Check the filter's column space sits inside that of a factor matrix.

    Also pushes a batch of random observations through the filter and checks
    the estimates land in the same space.  Returns (ok, worst residual).
    """
    expected_factor = np.asarray(expected_factor)
    if expected_factor.shape[0] != spec.filter.shape[0]:
        raise ValueError("expected_factor row count must match the filter")
    if spec.basis is not None and spec.gains is not None and spec.gains.size:
        magnitudes = np.abs(spec.gains)
        keep = magnitudes > DEFAULT_RANK_TOL * magnitudes.max()
        basis_w = spec.basis[:, keep]
    else:
        basis_w = principal_subspace(spec.filter, DEFAULT_RANK_TOL)
    basis_f = orthonormal_column_basis(expected_factor)
    _, residual = subspace_contained(basis_w, basis_f, tol)
    rng = rng or np.random.default_rng(0)
    batch = spec.filter @ complex_normal(rng, 16 * spec.filter.shape[0]).reshape(
        spec.filter.shape[0], 16
    )
    norm = np.linalg.norm(batch)
    if norm > 0:
        leak = batch - basis_f @ (basis_f.conj().T @ batch)
        residual = max(residual, float(np.linalg.norm(leak) / norm))
    return residual < tol, residual
