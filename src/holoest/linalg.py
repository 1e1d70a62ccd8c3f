"""Dense Hermitian eigen-machinery and the PSD covariance type.

Thin wrappers over numpy.linalg with the ordering and rank conventions the
rest of the package relies on: eigenvalues nonincreasing and a single relative
tolerance for every numerical-rank decision.  Eigen- and singular vectors keep
the phases LAPACK gives them: no filter, MSE, square root, rank or projector
depends on them.  A ``CovarianceMatrix`` is always entries rebuilt from a
clamped spectrum, and ``CovarianceMatrix.from_spectrum`` is the only place that
clamps or rejects an indefinite spectrum; square roots and principal subspaces
are read from that spectrum.  The subspace checks return residuals and leave
the verdict to their callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "CovarianceMatrix",
    "Eigendecomposition",
    "hermitian_eig",
    "spectral_rebuild",
    "psd_clamp",
    "psd_sqrt",
    "relative_rank",
    "principal_subspace",
    "subspace_contained",
    "thin_svd",
    "orthonormal_column_basis",
]

DEFAULT_RANK_TOL = 1e-8
# Eigenvalues below this times the largest are roundoff, clamped to zero.
_CLAMP_TOL = 1e-10
# The one Hermitian-input tolerance of the package, relative to the largest
# entry (or 1, if larger).
_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class Eigendecomposition:
    """Orthonormal basis (columns) and nonincreasing real eigenvalues."""

    basis: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Hermitian PSD matrix and the clamped spectrum its entries were rebuilt from.

    Built only by ``from_spectrum``.  Identity equality: channels key their
    estimators by prior object.
    """

    entries: np.ndarray
    eig: Eigendecomposition
    meta: dict

    @classmethod
    def from_spectrum(cls, basis, values, meta=None):
        """Rebuild from an orthonormal basis and nonincreasing eigenvalues.

        The one PSD rule of the package: values below _CLAMP_TOL * lambda_1 are
        roundoff and become 0; a smallest value below -_CLAMP_TOL * lambda_1
        raises.  The entries are real exactly when the basis is.
        """
        values = values.copy()
        top = max(values[0], 0.0) if values.size else 0.0
        if values.size and values[-1] < -_CLAMP_TOL * max(top, 1e-300):
            raise np.linalg.LinAlgError(
                f"matrix is not PSD: min eigenvalue {values[-1]:.3e} "
                f"below clamp tolerance"
            )
        values[values < _CLAMP_TOL * top] = 0.0
        eig = Eigendecomposition(basis=basis, values=values)
        return cls(spectral_rebuild(basis, values), eig, dict(meta or {}))

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def numerical_rank(self) -> int:
        return relative_rank(self.eig.values)


def _require_hermitian(a: np.ndarray) -> np.ndarray:
    """Hermitian part of ``a``; raises when ``a`` is not Hermitian within tolerance."""
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if a.size and float(np.abs(a - a.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (a + a.conj().T)


def hermitian_eig(a) -> Eigendecomposition:
    """Eigendecomposition of a square Hermitian array, values nonincreasing.

    Each eigenvector, and inside a group of (numerically) equal eigenvalues
    the basis, is whichever one ``eigh`` returns: repeated calls on the same
    input give the same columns, and nothing downstream (filters, MSE, square
    roots, ranks, projectors) depends on the choice.
    """
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    values, basis = np.linalg.eigh(_require_hermitian(arr))
    values = values[::-1].copy()
    basis = basis[:, ::-1].copy()
    return Eigendecomposition(basis=basis, values=values)


def spectral_rebuild(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian matrix basis diag(values) basis^H, symmetrized."""
    rebuilt = (basis * values) @ basis.conj().T
    return 0.5 * (rebuilt + rebuilt.conj().T)


def psd_clamp(a, meta: dict | None = None) -> CovarianceMatrix:
    """The covariance of a square array that is Hermitian within the tolerance
    of ``_require_hermitian`` and PSD within the rule of ``from_spectrum``."""
    eig = hermitian_eig(a)
    return CovarianceMatrix.from_spectrum(eig.basis, eig.values, meta)


def psd_sqrt(a: CovarianceMatrix) -> np.ndarray:
    """Unique PSD square root, rebuilt from the covariance's clamped spectrum."""
    return spectral_rebuild(a.eig.basis, np.sqrt(a.eig.values))


def relative_rank(values: np.ndarray) -> int:
    """How many of the nonincreasing ``values`` exceed DEFAULT_RANK_TOL times the
    first (0 unless it is positive): the rank rule of eigen- and singular values."""
    if values.size == 0 or values[0] <= 0:
        return 0
    return int(np.count_nonzero(values > DEFAULT_RANK_TOL * values[0]))


def principal_subspace(a: CovarianceMatrix) -> np.ndarray:
    """Orthonormal basis (M x r) for the eigenvectors above the rank cutoff.

    r is ``a.numerical_rank()``.  A zero matrix yields an empty (M x 0) basis.
    """
    return a.eig.basis[:, : a.numerical_rank()]


def _require_orthonormal(basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis)
    if basis.ndim != 2:
        raise ValueError("basis must be a 2-D array of column vectors")
    if basis.shape[1]:
        gram = basis.conj().T @ basis
        if float(np.abs(gram - np.eye(basis.shape[1])).max()) > 1e-8:
            raise ValueError("basis columns are not orthonormal")
    return basis


def subspace_contained(b_small: np.ndarray, b_big: np.ndarray) -> float:
    """How far span(b_small) leaks out of span(b_big): the spectral norm of
    (I - P_big) b_small, 0 when it lies inside; the caller judges it.
    """
    b_small = _require_orthonormal(b_small)
    b_big = _require_orthonormal(b_big)
    if b_small.shape[1] == 0:
        return 0.0
    leak = b_small - b_big @ (b_big.conj().T @ b_small)
    return float(np.linalg.norm(leak, 2))


def thin_svd(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors, as LAPACK returns them, and singular values.

    LAPACK gesdd, retried with the slower but sturdier gesvd when it fails.
    """
    try:
        u, s, _ = np.linalg.svd(factor, full_matrices=False)
    except np.linalg.LinAlgError:
        from scipy.linalg import svd

        u, s, _ = svd(factor, full_matrices=False, lapack_driver="gesvd")
    return u, s


def orthonormal_column_basis(factor: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column space of an arbitrary M x N factor."""
    u, s = thin_svd(np.atleast_2d(np.asarray(factor)))
    return u[:, : relative_rank(s)]
