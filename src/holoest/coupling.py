"""Mutual impedance of thin z-directed dipoles and the array coupling model.

Closed-form induced-EMF impedances (referred to the current maxima) for the
three pair configurations that occur on a planar grid: side-by-side (same
height), collinear (same vertical axis), and parallel-in-echelon (offset in
both).  The collinear closed form diverges logarithmically when the element
ranges overlap end-to-end; that regime is regularized by falling back to the
echelon form evaluated at a lateral offset of one wire radius, which is the
same device the induced-EMF self impedance uses.  Every closed form takes
scalars or arrays of offsets, and its Si/Ci offsets hypot(d, x) +- x without
cancellation (``_offset_pair``), so they keep their digits however small d is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import DEFAULT_DIPOLE_LENGTH, DEFAULT_DIPOLE_RADIUS
from .geometry import UpaGeometry, check_positive_finite, even_separation_matrix
from .linalg import CovarianceMatrix, hermitian_eig, psd_sqrt, relative_rank, thin_svd
from .special import EULER_GAMMA, cos_integral, sin_integral

__all__ = [
    "ETA0",
    "MU0",
    "DEFAULT_FREQUENCY",
    "DEFAULT_CONDUCTIVITY",
    "GeometryOverlapWarning",
    "CouplingModel",
    "self_impedance",
    "mutual_impedance_side_by_side",
    "mutual_impedance_collinear",
    "mutual_impedance_echelon",
    "impedance_matrix",
    "dissipation_resistance",
    "coupling_model",
    "effective_correlation",
]

ETA0 = 376.730313668  # free-space wave impedance, ohms
MU0 = 4.0e-7 * math.pi
DEFAULT_FREQUENCY = 3.0e9  # Hz
DEFAULT_CONDUCTIVITY = 5.8e7  # copper, S/m

_TWO_PI = 2.0 * math.pi


class GeometryOverlapWarning(UserWarning):
    """Vertically adjacent dipoles overlap; closed forms are extrapolated."""


def _check_thin(length, radius) -> None:
    if np.any(length <= 0) or np.any(radius <= 0):
        raise ValueError("dipole dimensions must be positive")
    if np.any(radius >= length / 10.0):
        raise ValueError("thin-dipole regime requires radius < length/10")


def self_impedance(dipole_length, dipole_radius):
    """Induced-EMF self impedance of a thin dipole (lengths in wavelengths)."""
    _check_thin(dipole_length, dipole_radius)
    kl = _TWO_PI * dipole_length
    ka2l = _TWO_PI * 2.0 * dipole_radius**2 / dipole_length
    ci_kl, ci_2kl, ci_ka2l = cos_integral(np.stack((kl, 2.0 * kl, ka2l)))
    si_kl, si_2kl = sin_integral(np.stack((kl, 2.0 * kl)))
    resistance = (
        ETA0
        / (2.0 * math.pi)
        * (
            EULER_GAMMA
            + np.log(kl)
            - ci_kl
            + 0.5 * np.sin(kl) * (si_2kl - 2.0 * si_kl)
            + 0.5 * np.cos(kl) * (EULER_GAMMA + np.log(kl / 2.0) + ci_2kl - 2.0 * ci_kl)
        )
    )
    reactance = (
        ETA0
        / (4.0 * math.pi)
        * (
            2.0 * si_kl
            + np.cos(kl) * (2.0 * si_kl - si_2kl)
            - np.sin(kl) * (2.0 * ci_kl - ci_2kl - ci_ka2l)
        )
    )
    return resistance + 1j * reactance


def _offset_pair(d, x):
    """(hypot(d, x) + x, hypot(d, x) - x) for d > 0 without cancellation: the two
    multiply to d^2, so the smaller is d^2 over the larger, a sum."""
    larger = np.hypot(d, x) + np.abs(x)
    smaller = d * (d / larger)
    return np.where(x >= 0, larger, smaller), np.where(x >= 0, smaller, larger)


def mutual_impedance_side_by_side(d, length: float = DEFAULT_DIPOLE_LENGTH):
    """Mutual impedance of parallel dipoles at the same height, spacing d."""
    if np.any(d <= 0):
        raise ValueError("side-by-side spacing must be positive")
    u = _TWO_PI * np.stack((d, *_offset_pair(d, length)))
    ci0, ci1, ci2 = cos_integral(u)
    si0, si1, si2 = sin_integral(u)
    scale = ETA0 / (4.0 * math.pi)
    resistance = scale * (2.0 * ci0 - ci1 - ci2)
    reactance = -scale * (2.0 * si0 - si1 - si2)
    return resistance + 1j * reactance


def mutual_impedance_echelon(d, h, length: float = DEFAULT_DIPOLE_LENGTH):
    """Mutual impedance for lateral offset d > 0 and vertical offset h."""
    if np.any(d <= 0):
        raise ValueError("echelon lateral offset must be positive")
    h = np.abs(h)
    k = _TWO_PI
    beta = k * h
    w = k * np.stack(
        (*_offset_pair(d, h), *_offset_pair(d, h - length), *_offset_pair(d, h + length))
    )
    ci1, ci1p, ci2, ci2p, ci3, ci3p = cos_integral(w)
    si1, si1p, si2, si2p, si3, si3p = sin_integral(w)
    scale = ETA0 / (8.0 * math.pi)
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    resistance = -scale * cos_b * (
        -2.0 * ci1 - 2.0 * ci1p + ci2 + ci2p + ci3 + ci3p
    ) + scale * sin_b * (2.0 * si1 - 2.0 * si1p - si2 + si2p - si3 + si3p)
    reactance = -scale * cos_b * (
        2.0 * si1 + 2.0 * si1p - si2 - si2p - si3 - si3p
    ) + scale * sin_b * (2.0 * ci1 - 2.0 * ci1p - ci2 + ci2p - ci3 + ci3p)
    return resistance + 1j * reactance


def mutual_impedance_collinear(
    h, length: float = DEFAULT_DIPOLE_LENGTH, radius: float = DEFAULT_DIPOLE_RADIUS
):
    """Mutual impedance of dipoles on a common axis, center offset h > 0.

    For h <= length (overlapping element ranges) the collinear closed form
    has no real logarithm; the value is then the echelon form at a lateral
    offset of one wire radius.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValueError("collinear offset must be positive")
    overlap = h <= length + 10.0 * radius
    z = np.empty(h.shape, dtype=complex)
    z[overlap] = mutual_impedance_echelon(radius, h[overlap], length)
    h = h[~overlap]
    k = _TWO_PI
    beta = k * h
    v = 2.0 * k * np.stack((h, h - length, h + length))
    ci0, cim, cip = cos_integral(v)
    si0, sim, sip = sin_integral(v)
    log_term = np.log((h * h - length * length) / (h * h))
    scale = ETA0 / (8.0 * math.pi)
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    resistance = -scale * cos_b * (
        -2.0 * ci0 + cim + cip - log_term
    ) + scale * sin_b * (2.0 * si0 - sim - sip)
    reactance = -scale * cos_b * (
        2.0 * si0 - sim - sip
    ) + scale * sin_b * (2.0 * ci0 - cim - cip - log_term)
    z[~overlap] = resistance + 1j * reactance
    return z[()]


def impedance_matrix(geometry: UpaGeometry) -> np.ndarray:
    """Pairwise mutual impedance matrix of the array, symmetric by construction.

    Each closed form is called once, on its slice of the unsigned offset
    grid: [0, 0] self impedance, [1:, 0] side-by-side (horizontal offsets),
    [0, 1:] collinear (vertical offsets) and [1:, 1:] echelon.
    """
    length = geometry.dipole_length
    radius = geometry.dipole_radius
    if geometry.m_z > 1 and geometry.d_z < length:
        warnings.warn(
            "vertical spacing is below the dipole length: stacked elements "
            "overlap and the impedance closed forms are extrapolated",
            GeometryOverlapWarning,
            stacklevel=2,
        )

    def grid_impedance(dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
        z = np.empty(dy.shape, dtype=complex)
        z[0, 0] = self_impedance(length, radius)
        z[1:, 0] = mutual_impedance_side_by_side(dy[1:, 0], length)
        z[0, 1:] = mutual_impedance_collinear(dz[0, 1:], length, radius)
        z[1:, 1:] = mutual_impedance_echelon(dy[1:, 1:], dz[1:, 1:], length)
        return z

    return even_separation_matrix(geometry, grid_impedance)


def dissipation_resistance(
    geometry: UpaGeometry, frequency: float, conductivity: float
) -> float:
    """Ohmic loss resistance of one dipole, referred to the current maximum.

    Half the uniform-current high-frequency resistance, accounting for the
    sinusoidal current profile.  Only the length/radius ratio enters, so the
    value scales with sqrt(frequency) at fixed electrical dimensions.
    """
    check_positive_finite(frequency, "frequency")
    check_positive_finite(conductivity, "conductivity")
    surface_resistance = math.sqrt(math.pi * frequency * MU0 / conductivity)
    return (
        geometry.dipole_length
        / (4.0 * math.pi * geometry.dipole_radius)
        * surface_resistance
    )


@dataclass(eq=False)
class CouplingModel:
    """Impedance matrix, loss resistance, and the coupling square root C^(1/2).

    C is (Re Z + R_d I)^-1 by default, so C^(1/2) is real symmetric positive
    definite; with ``use_full_impedance`` C is the full complex-symmetric
    (Z + R_d I)^-1 and C^(1/2) its principal square root, for sensitivity
    studies.  Either way C^(1/2) is rescaled so that the coupled isotropic
    channel keeps its uncoupled power: the coupling is dimensionless and
    mismatch penalties between estimators reflect structure rather than an
    arbitrary ohm scale.  C itself is never formed.
    """

    impedance: np.ndarray
    r_dissipation: float
    coupling_sqrt: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.impedance.shape[0]


def coupling_model(
    geometry: UpaGeometry,
    r_iso: CovarianceMatrix,
    frequency: float = DEFAULT_FREQUENCY,
    conductivity: float = DEFAULT_CONDUCTIVITY,
    use_full_impedance: bool = False,
) -> CouplingModel:
    """Build the coupling model for the array at the given operating point.

    ``r_iso`` (the array's isotropic correlation) fixes the power-preserving
    normalization.  The default path is one eigendecomposition of
    Re Z + R_d I and two M x M products: C^(1/2) itself and C^(1/2) R_iso.
    """
    z = impedance_matrix(geometry)
    r_d = dissipation_resistance(geometry, frequency, conductivity)
    if use_full_impedance:
        from scipy.linalg import sqrtm

        root = np.asarray(sqrtm(np.linalg.inv(z + r_d * np.eye(geometry.size))))
    else:
        resist = z.real + r_d * np.eye(geometry.size)
        eig = hermitian_eig(resist)
        if eig.values[-1] <= 0:
            raise np.linalg.LinAlgError(
                "resistance matrix plus dissipation is not positive definite "
                f"(min eigenvalue {eig.values[-1]:.3e})"
            )
        root = (eig.basis * np.sqrt(1.0 / eig.values)) @ eig.basis.T
    # tr(C^(1/2) R C^(1/2)^H) = sum of (C^(1/2) R) * conj(C^(1/2)), entrywise
    coupled_power = float(np.vdot(root, root @ r_iso.entries).real)
    scale = r_iso.trace() / coupled_power
    root = math.sqrt(scale) * root
    if not use_full_impedance:
        root = 0.5 * (root + root.T)
    meta = {"normalization_scale_per_ohm": scale}
    return CouplingModel(impedance=z, r_dissipation=r_d, coupling_sqrt=root, meta=meta)


def effective_correlation(model: CouplingModel, r: CovarianceMatrix) -> CovarianceMatrix:
    """Correlation of the coupled channel: C^(1/2) R C^(1/2).

    Assembled as F F^H from the factor F = C^(1/2) R^(1/2) via its singular
    value decomposition (``linalg.thin_svd``: LAPACK gesdd, retried with
    gesvd when gesdd does not converge).  This is the same matrix as the
    triple product but keeps the weak eigenvectors consistent with the
    factor's column space, which the subspace analysis compares against.
    ``meta["factor_rank"]`` is ``relative_rank`` of the singular values: the
    columns ``eig.basis[:, :factor_rank]`` are ``orthonormal_column_basis(F)``.
    """
    root = model.coupling_sqrt
    if root.shape[0] != r.size:
        raise ValueError(
            f"dimension mismatch: coupling is {root.shape[0]}, correlation is {r.size}"
        )
    basis, singulars = thin_svd(root @ psd_sqrt(r))
    meta = {"factor_rank": relative_rank(singulars)}
    return CovarianceMatrix.from_spectrum(basis, singulars**2, meta)
