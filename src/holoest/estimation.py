"""Pilot-based channel estimation: filters and MSE analysis.

Every estimator is one linear filter, estimate = W y, in one form
(``EstimatorSpec``): an orthonormal M x k basis U and per-mode gains g, so
that W = U diag(g) U^H.  The Bayesian filter sqrt(rho) Rhat (rho Rhat + I)^-1
keeps the prior's modes of nonzero eigenvalue lam_i, with g_i = sqrt(rho)
lam_i / (rho lam_i + 1); least squares is U = I with g = 1 / sqrt(rho).  The
analytic MSE the sweep reports takes one form for every filter
(``mse_eigen_expansion``: one projection of R_mc's thin factor onto U per
estimator, then O(k) per SNR); the dense error-covariance trace of a built
filter (``analytic_mse``) is kept as its independent oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

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

_EPS = float(np.finfo(float).eps)
# An analytic MSE counts only above this multiple of the roundoff floor of its
# residual term: that roundoff then moves it by under 0.1 % (0.005 dB).
_FLOOR_MULTIPLE = 1e3


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """A filter W = U diag(g) U^H and the pilot SNR rho it assumes.

    ``basis`` U is orthonormal M x k and the ``gains`` g are nonincreasing.
    ``shrinkage`` s_i = 1 - sqrt(rho) g_i is the share of the channel's
    component on mode i that the estimate misses, computed directly (as
    1 / (rho lam_i + 1) for a prior eigenvalue lam_i), not from g.  A filter
    that shrinks none of M modes, least squares, is I / sqrt(rho) whatever U
    is: that is the one identity case, and none of its products reads U.
    """

    basis: np.ndarray
    gains: np.ndarray
    shrinkage: np.ndarray
    rho: float

    @cached_property
    def _identity(self) -> bool:
        return self.shrinkage.size == self.basis.shape[0] and not self.shrinkage.any()

    @cached_property
    def filter(self) -> np.ndarray:
        """The dense M x M matrix W, built on first use."""
        if self._identity:
            return np.eye(self.basis.shape[0]) / np.sqrt(self.rho)
        return spectral_rebuild(self.basis, self.gains)

    def apply(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The estimates W y of the columns of ``y``, written to ``out``; for
        I / sqrt(rho), y times 1 / sqrt(rho)."""
        if self._identity:
            return np.multiply(y, 1.0 / np.sqrt(self.rho), out=out)
        return np.matmul(self.filter, y, out=out)

    @property
    def noise_power(self) -> float:
        """sum_i g_i^2 = ||W||_F^2, the pilot noise power in the estimate; M / rho
        exactly for I / sqrt(rho)."""
        if self._identity:
            return self.basis.shape[0] / self.rho
        return float(self.gains @ self.gains)

    def project(
        self, vectors: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, float, float]:
        """For the factor F = V diag(weights)^(1/2) of orthonormal M x r columns V
        and B = U^H F: each mode's ||B_i||^2, the power ||F - U B||_F^2 outside
        span U, and that residual's roundoff floor.  The weights enter after
        the products, so no square root is rounded."""
        if self._identity:
            # U = I: B = F, and no power lies outside span U
            return np.abs(vectors) ** 2 @ weights, 0.0, 0.0
        m, k = self.basis.shape
        coeffs = self.basis.conj().T @ vectors
        outside = vectors - self.basis @ coeffs
        outside_sq = np.sum(np.abs(outside) ** 2, axis=0)
        residual = float(outside_sq @ weights)
        # The floor bounds |residual - sum_j w_j ||D_j||^2|, D = (I - U U^H) V
        # the exact value.  A complex inner product of length n errs by at
        # most (n + 2) eps |x|^T |y| (eps = 2u covers complex products'
        # sqrt(2)), so
        #   B^ = U^H V + E1,         |E1| <= (M + 2) eps |U|^H |V|
        #   C^ = U B^ + E2,          |E2| <= (k + 2) eps |U| |B^|
        #   D^ = (V - C^) (1 + d),   |d| <= eps entrywise,
        # with ||U E1 e_j|| = ||E1 e_j||, || |U| ||_2 <= ||U||_F = sqrt(k) and
        # ||D_j|| <= ||v_j|| = 1; eigh's U is orthonormal only to about M eps,
        # which moves D_j itself by up to M eps.  To first order each column
        # then has ||D^_j - D_j|| <= delta = (sqrt(k) (M + k + 4) + M + 1) eps,
        # so | ||D^_j||^2 - ||D_j||^2 | <= delta (2 ||D_j|| + delta)
        # <= delta (2 ||D^_j|| + 3 delta); the column sums of squares and the
        # weighted sum add (M + r) eps times the residual.
        delta = (math.sqrt(k) * (m + k + 4) + m + 1) * _EPS
        floor = delta * float((2.0 * np.sqrt(outside_sq) + 3.0 * delta) @ weights)
        floor += (m + weights.size) * _EPS * residual
        return np.abs(coeffs) ** 2 @ weights, residual, floor


def complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly symmetric unit-variance complex Gaussian draws."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def mmse_filter(r_hat: CovarianceMatrix, rho: float) -> EstimatorSpec:
    """Bayesian filter W = sqrt(rho) Rhat (rho Rhat + I)^-1 for a prior Rhat.

    Spectral in Rhat's eigenbasis: U keeps the modes of nonzero clamped
    eigenvalue lam_i (every other mode has zero gain), with
    g_i = sqrt(rho) lam_i / (rho lam_i + 1) and s_i = 1 / (rho lam_i + 1).
    """
    check_positive_finite(rho, "pilot SNR")
    eig = r_hat.eig
    kept = int(np.count_nonzero(eig.values))  # clamped: the rest are exact zeros
    values = eig.values[:kept]
    denom = rho * values + 1.0
    return EstimatorSpec(
        basis=eig.basis[:, :kept],
        gains=np.sqrt(rho) * values / denom,
        shrinkage=1.0 / denom,
        rho=rho,
    )


def ls_filter(rho: float, m: int) -> EstimatorSpec:
    """Least-squares filter W = I / sqrt(rho): U = I, g = 1 / sqrt(rho), s = 0."""
    check_positive_finite(rho, "pilot SNR")
    return EstimatorSpec(
        basis=np.eye(m), gains=np.full(m, 1.0 / np.sqrt(rho)), shrinkage=np.zeros(m), rho=rho
    )


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
    filter_at: Callable[[float], EstimatorSpec], r_mc: CovarianceMatrix, rhos
) -> np.ndarray:
    """MSE of one estimator's filter at each pilot SNR: the sweeps' route.

    ``filter_at(rho)`` is the filter at pilot SNR rho, on one basis U at every
    SNR (as ``mmse_filter`` of one prior and ``ls_filter`` give it).  With
    F = U_mc Lam_mc^(1/2) the thin factor of R_mc, read from its clamped
    spectrum, and B = U^H F:

        MSE(rho) = sum_i ||B_i||^2 s_i^2 + sum_i g_i^2 + ||F - U B||_F^2,

    the paper's Prop. 3 on U's modes plus the channel power outside span U,
    which no gain reaches.  The projection is taken once, with the first
    filter; each SNR then costs O(k).  Least squares gives M / rho exactly.
    Every term is nonnegative.  A point whose MSE is not above
    ``_FLOOR_MULTIPLE`` times the last term's roundoff floor, which could
    then move it by 0.1 % or more, is NaN.
    """
    eig = r_mc.eig
    kept = int(np.count_nonzero(eig.values))
    mse = []
    # M / rho or rho lam_i may overflow to inf (so s_i = g_i = 0); callers check
    with np.errstate(over="ignore"):
        for j, rho in enumerate(rhos):
            spec = filter_at(rho)
            if j == 0:
                if spec.basis.shape[0] != r_mc.size:
                    raise ValueError("dimension mismatch between filter and covariance")
                mode_power, residual, floor = spec.project(
                    eig.basis[:, :kept], eig.values[:kept]
                )
            shrink = spec.shrinkage
            value = float(mode_power @ (shrink * shrink)) + spec.noise_power + residual
            mse.append(value if value > _FLOOR_MULTIPLE * floor else math.nan)
    return np.array(mse)


def verify_column_space(spec: EstimatorSpec, basis: np.ndarray) -> float:
    """How far the filter's column space leaks out of span(basis), for an orthonormal
    ``basis`` (``subspace_contained`` rejects any other) of the expected space.

    W's column space is U cut at ``relative_rank`` of the gains: for least
    squares, the whole space.  Also pushes a batch of random observations
    through the filter and checks the estimates land in the same space.
    Returns the worst residual; the caller judges it.
    """
    basis = np.asarray(basis)
    if basis.shape[0] != spec.basis.shape[0]:
        raise ValueError("basis row count must match the filter")
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
