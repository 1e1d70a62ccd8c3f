"""Mutual impedance of thin z-directed dipoles and the array coupling model.

Closed-form induced-EMF impedances (referred to the current maxima) for the
three pair configurations that occur on a planar grid: side-by-side (same
height), collinear (same vertical axis), and parallel-in-echelon (offset in
both).  The collinear closed form diverges logarithmically when the element
ranges overlap end-to-end; that regime is regularized by falling back to the
echelon form evaluated at a lateral offset of one wire radius, which is the
same device the induced-EMF self impedance uses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .correlation import CovarianceMatrix
from .geometry import UpaGeometry, even_separation_matrix
from .linalg import Eigendecomposition, _normalize_phases, hermitian_eig, psd_sqrt
from .special import EULER_GAMMA, cos_integral, sin_integral

__all__ = [
    "ETA0",
    "MU0",
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
DEFAULT_CONDUCTIVITY = 5.8e7  # copper, S/m

_TWO_PI = 2.0 * math.pi


class GeometryOverlapWarning(UserWarning):
    """Vertically adjacent dipoles overlap; closed forms are extrapolated."""


def _check_thin(length: float, radius: float) -> None:
    if length <= 0 or radius <= 0:
        raise ValueError("dipole dimensions must be positive")
    if radius >= length / 10.0:
        raise ValueError("thin-dipole regime requires radius < length/10")


def self_impedance(dipole_length: float, dipole_radius: float) -> complex:
    """Induced-EMF self impedance of a thin dipole (lengths in wavelengths)."""
    _check_thin(dipole_length, dipole_radius)
    kl = _TWO_PI * dipole_length
    ka2l = _TWO_PI * 2.0 * dipole_radius**2 / dipole_length
    resistance = (
        ETA0
        / (2.0 * math.pi)
        * (
            EULER_GAMMA
            + math.log(kl)
            - cos_integral(kl)
            + 0.5 * math.sin(kl) * (sin_integral(2.0 * kl) - 2.0 * sin_integral(kl))
            + 0.5
            * math.cos(kl)
            * (
                EULER_GAMMA
                + math.log(kl / 2.0)
                + cos_integral(2.0 * kl)
                - 2.0 * cos_integral(kl)
            )
        )
    )
    reactance = (
        ETA0
        / (4.0 * math.pi)
        * (
            2.0 * sin_integral(kl)
            + math.cos(kl) * (2.0 * sin_integral(kl) - sin_integral(2.0 * kl))
            - math.sin(kl)
            * (
                2.0 * cos_integral(kl)
                - cos_integral(2.0 * kl)
                - cos_integral(ka2l)
            )
        )
    )
    return complex(resistance, reactance)


def mutual_impedance_side_by_side(d: float, length: float = 0.5) -> complex:
    """Mutual impedance of parallel dipoles at the same height, spacing d."""
    if d <= 0:
        raise ValueError("side-by-side spacing must be positive")
    u0 = _TWO_PI * d
    diag = math.hypot(d, length)
    u1 = _TWO_PI * (diag + length)
    u2 = _TWO_PI * (diag - length)
    scale = ETA0 / (4.0 * math.pi)
    resistance = scale * (
        2.0 * cos_integral(u0) - cos_integral(u1) - cos_integral(u2)
    )
    reactance = -scale * (
        2.0 * sin_integral(u0) - sin_integral(u1) - sin_integral(u2)
    )
    return complex(resistance, reactance)


def mutual_impedance_echelon(d: float, h: float, length: float = 0.5) -> complex:
    """Mutual impedance for lateral offset d > 0 and vertical offset h."""
    if d <= 0:
        raise ValueError("echelon lateral offset must be positive")
    h = abs(h)
    k = _TWO_PI
    beta = k * h
    r0 = math.hypot(d, h)
    rm = math.hypot(d, h - length)
    rp = math.hypot(d, h + length)
    w1 = k * (r0 + h)
    w1p = k * (r0 - h)
    w2 = k * (rm + (h - length))
    w2p = k * (rm - (h - length))
    w3 = k * (rp + (h + length))
    w3p = k * (rp - (h + length))
    ci = cos_integral
    si = sin_integral
    scale = ETA0 / (8.0 * math.pi)
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    resistance = -scale * cos_b * (
        -2.0 * ci(w1) - 2.0 * ci(w1p) + ci(w2) + ci(w2p) + ci(w3) + ci(w3p)
    ) + scale * sin_b * (
        2.0 * si(w1) - 2.0 * si(w1p) - si(w2) + si(w2p) - si(w3) + si(w3p)
    )
    reactance = -scale * cos_b * (
        2.0 * si(w1) + 2.0 * si(w1p) - si(w2) - si(w2p) - si(w3) - si(w3p)
    ) + scale * sin_b * (
        2.0 * ci(w1) - 2.0 * ci(w1p) - ci(w2) + ci(w2p) - ci(w3) + ci(w3p)
    )
    return complex(resistance, reactance)


def mutual_impedance_collinear(
    h: float, length: float = 0.5, radius: float = 1.0 / 500.0
) -> complex:
    """Mutual impedance of dipoles on a common axis, center offset h > 0.

    For h <= length (overlapping element ranges) the collinear closed form
    has no real logarithm; the value is then the echelon form at a lateral
    offset of one wire radius.
    """
    if h <= 0:
        raise ValueError("collinear offset must be positive")
    if h <= length + 10.0 * radius:
        return mutual_impedance_echelon(radius, h, length)
    k = _TWO_PI
    beta = k * h
    v0 = 2.0 * k * h
    vm = 2.0 * k * (h - length)
    vp = 2.0 * k * (h + length)
    log_term = math.log((h * h - length * length) / (h * h))
    ci = cos_integral
    si = sin_integral
    scale = ETA0 / (8.0 * math.pi)
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    resistance = -scale * cos_b * (
        -2.0 * ci(v0) + ci(vm) + ci(vp) - log_term
    ) + scale * sin_b * (2.0 * si(v0) - si(vm) - si(vp))
    reactance = -scale * cos_b * (
        2.0 * si(v0) - si(vm) - si(vp)
    ) + scale * sin_b * (2.0 * ci(v0) - ci(vm) - ci(vp) - log_term)
    return complex(resistance, reactance)


def impedance_matrix(geometry: UpaGeometry) -> np.ndarray:
    """Pairwise mutual impedance matrix of the array, symmetric by construction.

    Dispatch by element offset: same position -> self impedance, pure
    horizontal -> side-by-side, pure vertical -> collinear, otherwise echelon.
    Each unsigned offset is evaluated once.
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

    def pair_impedance(dy: float, dz: float) -> complex:
        if dy == 0.0 and dz == 0.0:
            return self_impedance(length, radius)
        if dz == 0.0:
            return mutual_impedance_side_by_side(dy, length)
        if dy == 0.0:
            return mutual_impedance_collinear(dz, length, radius)
        return mutual_impedance_echelon(dy, dz, length)

    return even_separation_matrix(geometry, pair_impedance)


def dissipation_resistance(
    geometry: UpaGeometry, frequency: float, conductivity: float
) -> float:
    """Ohmic loss resistance of one dipole, referred to the current maximum.

    Half the uniform-current high-frequency resistance, accounting for the
    sinusoidal current profile.  Only the length/radius ratio enters, so the
    value scales with sqrt(frequency) at fixed electrical dimensions.
    """
    if frequency <= 0 or conductivity <= 0:
        raise ValueError("frequency and conductivity must be positive")
    surface_resistance = math.sqrt(math.pi * frequency * MU0 / conductivity)
    return (
        geometry.dipole_length
        / (4.0 * math.pi * geometry.dipole_radius)
        * surface_resistance
    )


@dataclass(eq=False)
class CouplingModel:
    """Impedance matrix, loss resistance, and the derived coupling matrix.

    ``coupling`` is (Re Z + R_d I)^-1 by default (symmetric positive
    definite); with ``use_full_impedance`` the full complex-symmetric
    (Z + R_d I)^-1 and its principal square root are used instead, for
    sensitivity studies.  Either way the matrix is rescaled by the scalar
    that makes the coupled isotropic channel keep its uncoupled power, so
    the coupling is dimensionless and mismatch penalties between estimators
    reflect structure rather than an arbitrary ohm scale.
    """

    impedance: np.ndarray
    r_dissipation: float
    coupling: np.ndarray
    coupling_sqrt: np.ndarray
    use_full_impedance: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.impedance.shape[0]


def coupling_model(
    geometry: UpaGeometry,
    r_iso: CovarianceMatrix,
    frequency: float = 3.0e9,
    conductivity: float = DEFAULT_CONDUCTIVITY,
    use_full_impedance: bool = False,
) -> CouplingModel:
    """Build the coupling model for the array at the given operating point.

    ``r_iso`` (the array's isotropic correlation) fixes the power-preserving
    normalization.
    """
    z = impedance_matrix(geometry)
    r_d = dissipation_resistance(geometry, frequency, conductivity)
    if use_full_impedance:
        from scipy.linalg import sqrtm

        total = z + r_d * np.eye(geometry.size)
        coupling = np.linalg.inv(total)
        root = np.asarray(sqrtm(coupling))
    else:
        resist = z.real + r_d * np.eye(geometry.size)
        eig = hermitian_eig(resist)
        if eig.values[-1] <= 0:
            raise np.linalg.LinAlgError(
                "resistance matrix plus dissipation is not positive definite "
                f"(min eigenvalue {eig.values[-1]:.3e})"
            )
        inv_vals = 1.0 / eig.values
        coupling = (eig.basis * inv_vals) @ eig.basis.T
        root = (eig.basis * np.sqrt(inv_vals)) @ eig.basis.T
    coupled_power = float(np.trace(root @ r_iso.entries @ root.conj().T).real)
    scale = r_iso.trace() / coupled_power
    coupling = scale * coupling
    root = math.sqrt(scale) * root
    if not use_full_impedance:
        coupling = 0.5 * (coupling + coupling.T)
        root = 0.5 * (root + root.T)
    meta = {
        "frequency_hz": frequency,
        "conductivity_s_per_m": conductivity,
        "normalization_scale_per_ohm": scale,
        "r_dissipation_ohm": r_d,
    }
    return CouplingModel(
        impedance=z,
        r_dissipation=r_d,
        coupling=coupling,
        coupling_sqrt=root,
        use_full_impedance=use_full_impedance,
        meta=meta,
    )


def effective_correlation(model: CouplingModel, r: CovarianceMatrix) -> CovarianceMatrix:
    """Correlation of the coupled channel: C^(1/2) R C^(1/2).

    Assembled as F F^H from the factor F = C^(1/2) R^(1/2) via its singular
    value decomposition (LAPACK gesdd, retried with gesvd when gesdd does not
    converge).  This is the same matrix as the triple product but
    keeps the weak eigenvectors consistent with the factor's column space,
    which the subspace analysis compares against.
    """
    root = model.coupling_sqrt
    if root.shape[0] != r.size:
        raise ValueError(
            f"dimension mismatch: coupling is {root.shape[0]}, correlation is {r.size}"
        )
    factor = root @ psd_sqrt(r)
    try:
        basis, singulars, _ = np.linalg.svd(factor)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge where the slower QR-iteration driver does not
        from scipy.linalg import svd

        basis, singulars, _ = svd(factor, lapack_driver="gesvd")
    basis = _normalize_phases(basis)
    values = singulars**2
    values[values < 1e-10 * (values[0] if values.size else 0.0)] = 0.0
    entries = (basis * values) @ basis.conj().T
    entries = 0.5 * (entries + entries.conj().T)
    if np.isrealobj(root) and np.isrealobj(r.entries):
        entries = entries.real
    meta = {
        "source_kind": r.kind,
        "trace_ratio": float(np.trace(entries).real) / max(r.trace(), 1e-300),
    }
    out = CovarianceMatrix(entries, kind="effective", meta=meta)
    out._eig = Eigendecomposition(basis=basis, values=values)
    return out
