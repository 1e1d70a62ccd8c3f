"""Dense Hermitian eigen-machinery shared across the package.

Thin wrappers over numpy.linalg with the ordering, phase and rank conventions
the rest of the package relies on: eigenvalues nonincreasing, each eigenvector
phase-normalized so its largest-magnitude entry is real positive, and a single
relative tolerance for every numerical-rank decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "Eigendecomposition",
    "hermitian_eig",
    "psd_sqrt",
    "principal_subspace",
    "subspace_contained",
    "orthonormal_column_basis",
]

DEFAULT_RANK_TOL = 1e-8
# The one Hermitian-input tolerance of the package, relative to the largest
# entry (or 1, if larger).
_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class Eigendecomposition:
    """Orthonormal basis (columns) and nonincreasing real eigenvalues."""

    basis: np.ndarray
    values: np.ndarray


def _as_square(a) -> np.ndarray:
    entries = getattr(a, "entries", a)
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


def _require_hermitian(a: np.ndarray) -> np.ndarray:
    """Hermitian part of ``a``; raises when ``a`` is not Hermitian within tolerance."""
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if a.size and float(np.abs(a - a.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (a + a.conj().T)


def _normalize_phases(basis: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of every column real positive."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def hermitian_eig(a) -> Eigendecomposition:
    """Eigendecomposition of a Hermitian matrix, deterministically ordered.

    Values are nonincreasing; eigenvectors are phase-normalized and, within
    groups of (numerically) equal eigenvalues, sorted lexicographically so the
    output is stable across repeated runs.
    """
    arr = _require_hermitian(_as_square(a))
    values, basis = np.linalg.eigh(arr)
    values = values[::-1].copy()
    basis = _normalize_phases(basis[:, ::-1])
    # Lexicographic tie-break inside degenerate groups.
    scale = max(1.0, abs(values[0])) if values.size else 1.0
    j = 0
    while j < values.size:
        k = j
        while k + 1 < values.size and abs(values[k + 1] - values[j]) <= 1e-12 * scale:
            k += 1
        if k > j:
            keys = [
                tuple(np.round(np.concatenate([basis[:, c].real, basis[:, c].imag]), 10))
                for c in range(j, k + 1)
            ]
            order = sorted(range(k - j + 1), key=lambda i: keys[i])
            basis[:, j : k + 1] = basis[:, [j + i for i in order]]
        j = k + 1
    return Eigendecomposition(basis=basis, values=values)


def psd_sqrt(a, *, clamp_tol: float = 1e-10) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Eigenvalues in [-clamp_tol * lambda_1, 0) are treated as roundoff and
    clamped to zero; anything more negative raises.
    """
    eig = a.eig if hasattr(a, "eig") else hermitian_eig(a)
    values = eig.values.copy()
    top = max(values[0], 0.0) if values.size else 0.0
    if values.size and values[-1] < -clamp_tol * max(top, 1e-300):
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {values[-1]:.3e} "
            f"below clamp tolerance"
        )
    values[values < 0] = 0.0
    root = (eig.basis * np.sqrt(values)) @ eig.basis.conj().T
    return 0.5 * (root + root.conj().T)


def principal_subspace(a, rel_rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (M x r) for the eigenvectors above the rank cutoff.

    r is the numerical rank: eigenvalues exceeding rel_rank_tol times the
    largest.  A zero matrix yields an empty (M x 0) basis.
    """
    eig = a.eig if hasattr(a, "eig") else hermitian_eig(a)
    if eig.values.size == 0 or eig.values[0] <= 0:
        return np.zeros((eig.basis.shape[0], 0), dtype=eig.basis.dtype)
    keep = eig.values > rel_rank_tol * eig.values[0]
    return eig.basis[:, keep]


def _require_orthonormal(basis: np.ndarray) -> np.ndarray:
    basis = np.asarray(basis)
    if basis.ndim != 2:
        raise ValueError("basis must be a 2-D array of column vectors")
    if basis.shape[1]:
        gram = basis.conj().T @ basis
        if float(np.abs(gram - np.eye(basis.shape[1])).max()) > 1e-8:
            raise ValueError("basis columns are not orthonormal")
    return basis


def subspace_contained(
    b_small: np.ndarray, b_big: np.ndarray, tol: float
) -> tuple[bool, float]:
    """Whether span(b_small) lies inside span(b_big), plus the residual.

    The residual is the spectral norm of (I - P_big) b_small.
    """
    b_small = _require_orthonormal(b_small)
    b_big = _require_orthonormal(b_big)
    if b_small.shape[1] == 0:
        return True, 0.0
    leak = b_small - b_big @ (b_big.conj().T @ b_small)
    residual = float(np.linalg.norm(leak, 2))
    return residual < tol, residual


def orthonormal_column_basis(
    factor: np.ndarray, rel_rank_tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """Orthonormal basis for the column space of an arbitrary M x N factor."""
    factor = np.atleast_2d(np.asarray(factor))
    u, s, _ = np.linalg.svd(factor, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return np.zeros((factor.shape[0], 0), dtype=complex)
    return _normalize_phases(u[:, s > rel_rank_tol * s[0]])
