"""Spatial correlation matrices for the planar dipole array.

Three construction routes:

* a closed-form power series for the isotropic half-space scenario, valid for
  small inter-element separations (with automatic fallback to quadrature
  beyond its radius),
* a generic adaptive 2-D quadrature of the scattering integral, used as the
  independent oracle for everything else,
* a clustered non-isotropic model integrated per cluster on panel-refined
  Gauss-Legendre grids tuned to each cluster's angular support.

Angular convention throughout: a scattering function is ``f(azimuth,
elevation)`` on the front half-space (-pi/2, pi/2) x (-pi/2, pi/2), and the
correlation entry for an element-pair offset ``delta_r`` (wavelength units) is
the integral of ``f * exp(j k^T delta_r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate

from .geometry import UpaGeometry, even_separation_matrix, separation_fill
from .linalg import (
    DEFAULT_RANK_TOL,
    Eigendecomposition,
    _require_hermitian,
    hermitian_eig,
)
from .special import DIPOLE_DIRECTIVITY, alpha_coefficient

__all__ = [
    "COVARIANCE_KINDS",
    "SERIES_RADIUS",
    "CovarianceMatrix",
    "QuadratureError",
    "QuadratureOptions",
    "AngularCluster",
    "ClusterScenario",
    "isotropic_scattering",
    "iso_entry",
    "iso_matrix",
    "quadrature_entry",
    "cluster_scattering",
    "total_scattering",
    "cluster_matrix",
    "psd_clamp",
]

COVARIANCE_KINDS = ("isotropic", "cluster", "effective", "custom")

# Separation (wavelengths) beyond which the isotropic series is abandoned for
# quadrature: past ~1.5 the alternating layers grow into the 1e7 range before
# decaying and start eating the double-precision budget.
SERIES_RADIUS = 1.5
_SERIES_MAX_K = 60

_HALF_PI = math.pi / 2.0
_DEFAULT_RECT = ((-_HALF_PI, _HALF_PI), (-_HALF_PI, _HALF_PI))

# exp(-41.45) ~ 1e-18: angular regions where a cluster shape falls below this
# contribute nothing at double precision and are excluded from its panels.
_TAIL_LOG = 41.45
_GL_ORDER_BASE = 16
_GL_ORDER_REFINED = 32
# cluster_matrix raises when its base and doubled-order passes differ by more
_CLUSTER_ERROR_LIMIT = 1e-8


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach its error target."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(eq=False)
class CovarianceMatrix:
    """Hermitian PSD matrix with a lazily cached eigendecomposition."""

    entries: np.ndarray
    kind: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in COVARIANCE_KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("covariance entries must form a square matrix")
        self.entries = _require_hermitian(arr)
        self._eig: Eigendecomposition | None = None

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def eig(self) -> Eigendecomposition:
        if self._eig is None:
            self._eig = hermitian_eig(self.entries)
        return self._eig

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def numerical_rank(self, rel_tol: float = DEFAULT_RANK_TOL) -> int:
        values = self.eig.values
        if values.size == 0 or values[0] <= 0:
            return 0
        return int(np.count_nonzero(values > rel_tol * values[0]))


def psd_clamp(
    a, rel_tol: float = 1e-10, kind: str = "custom", meta: dict | None = None
) -> CovarianceMatrix:
    """Zero out eigenvalues below rel_tol * lambda_1 and rewrap as PSD.

    Accepts an ndarray or CovarianceMatrix; input must be square and
    Hermitian within the tolerance of ``linalg._require_hermitian``.
    """
    entries = np.asarray(getattr(a, "entries", a))
    eig = hermitian_eig(entries)
    values = eig.values.copy()
    top = max(values[0], 0.0) if values.size else 0.0
    values[values < rel_tol * top] = 0.0
    rebuilt = (eig.basis * values) @ eig.basis.conj().T
    rebuilt = 0.5 * (rebuilt + rebuilt.conj().T)
    if np.isrealobj(entries):
        rebuilt = rebuilt.real
    out = CovarianceMatrix(rebuilt, kind=kind, meta=dict(meta or {}))
    out._eig = Eigendecomposition(basis=eig.basis, values=values)
    return out


# ---------------------------------------------------------------------------
# Isotropic half-space with dipole directivity
# ---------------------------------------------------------------------------


def isotropic_scattering(azimuth, elevation):
    """Scattering density for isotropic half-space propagation over dipoles."""
    return DIPOLE_DIRECTIVITY / (2.0 * math.pi) * np.cos(elevation) ** 4


def _iso_series(dy_norm: float, dz_norm: float, tol: float) -> float:
    dy2 = dy_norm * dy_norm
    dz2 = dz_norm * dz_norm
    total = 0.0
    for k in range(_SERIES_MAX_K + 1):
        layer = 0.0
        for l in range(k + 1):
            layer += alpha_coefficient(k, l) * dz2 ** (k - l) * dy2**l
        total += layer
        if abs(layer) < tol:
            break
    return total


def _iso_entry_impl(dy_norm: float, dz_norm: float, tol: float) -> tuple[float, bool]:
    if math.hypot(dy_norm, dz_norm) <= SERIES_RADIUS:
        return _iso_series(abs(dy_norm), abs(dz_norm), tol), False
    value = quadrature_entry(isotropic_scattering, (0.0, dy_norm, dz_norm))
    return float(value.real), True


def iso_entry(dy_norm: float, dz_norm: float, tol: float = 1e-12) -> float:
    """Isotropic correlation for a (dy, dz) element offset in wavelengths.

    Uses the closed-form series, truncated at the first outer layer whose
    contribution drops below ``tol``; separations beyond SERIES_RADIUS fall
    through to the quadrature oracle.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _iso_entry_impl(dy_norm, dz_norm, tol)[0]


def iso_matrix(geometry: UpaGeometry, tol: float = 1e-12) -> CovarianceMatrix:
    """Isotropic spatial correlation matrix of the array (real symmetric)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    fallbacks = 0

    def entry(dy: float, dz: float) -> float:
        nonlocal fallbacks
        value, used_quad = _iso_entry_impl(dy, dz, tol)
        fallbacks += used_quad
        return value

    entries = even_separation_matrix(geometry, entry)
    meta = {"series_tol": tol, "quadrature_fallback_pairs": fallbacks}
    return psd_clamp(entries, kind="isotropic", meta=meta)


# ---------------------------------------------------------------------------
# Generic quadrature oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureOptions:
    """Controls for the adaptive scattering-integral quadrature."""

    abs_tol: float = 1e-9
    rect: tuple[tuple[float, float], tuple[float, float]] = _DEFAULT_RECT
    limit: int = 150
    azimuth_points: tuple[float, ...] | None = None
    elevation_points: tuple[float, ...] | None = None


def _clip_points(points, lo: float, hi: float):
    if points is None:
        return None
    inside = [p for p in points if lo < p < hi]
    return inside or None


def quadrature_entry(f, delta_r, opts: QuadratureOptions | None = None) -> complex:
    """Correlation entry for offset ``delta_r`` by adaptive 2-D quadrature.

    ``f(azimuth, elevation)`` must be nonnegative on the integration
    rectangle.  Raises QuadratureError when the error estimate exceeds ten
    times the absolute target.
    """
    opts = opts or QuadratureOptions()
    dx, dy, dz = (float(c) for c in np.asarray(delta_r, dtype=float))
    (az_lo, az_hi), (el_lo, el_hi) = opts.rect

    def phase(az, el):
        return (
            2.0
            * math.pi
            * (
                dx * math.cos(el) * math.cos(az)
                + dy * math.cos(el) * math.sin(az)
                + dz * math.sin(el)
            )
        )

    quad_opts = []
    for tol, points, lo, hi in (
        (opts.abs_tol / 4.0, opts.elevation_points, el_lo, el_hi),
        (opts.abs_tol / 2.0, opts.azimuth_points, az_lo, az_hi),
    ):
        level = {"epsabs": tol, "epsrel": 1e-10, "limit": opts.limit}
        clipped = _clip_points(points, lo, hi)
        if clipped is not None:
            level["points"] = clipped
        quad_opts.append(level)

    def run(part):
        def integrand(el, az):
            x = phase(az, el)
            return f(az, el) * (math.cos(x) if part == "re" else math.sin(x))

        return integrate.nquad(
            integrand, [(el_lo, el_hi), (az_lo, az_hi)], opts=quad_opts
        )

    value_re, err_re = run("re")
    value_im, err_im = run("im")
    estimate = err_re + err_im
    if estimate > 10.0 * opts.abs_tol:
        raise QuadratureError(
            f"quadrature error estimate {estimate:.3e} exceeds 10x target "
            f"{opts.abs_tol:.3e}",
            estimate=estimate,
        )
    return complex(value_re, value_im)


# ---------------------------------------------------------------------------
# Clustered non-isotropic scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngularCluster:
    """One angular cluster: power share, nominal direction, angular spreads."""

    power: float
    azimuth: float
    elevation: float
    sigma_phi: float
    sigma_theta: float

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError("cluster power must be nonnegative")
        if self.sigma_phi <= 0 or self.sigma_theta <= 0:
            raise ValueError("angular spreads must be positive")
        if not (-_HALF_PI < self.azimuth < _HALF_PI):
            raise ValueError("cluster azimuth must lie in (-pi/2, pi/2)")
        if not (-_HALF_PI < self.elevation < _HALF_PI):
            raise ValueError("cluster elevation must lie in (-pi/2, pi/2)")

    @property
    def kappa_phi(self) -> float:
        return 1.0 / (4.0 * self.sigma_phi**2)

    @property
    def kappa_theta(self) -> float:
        return 1.0 / (4.0 * self.sigma_theta**2)


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _axis_windows(peak: float, kappa: float, lo: float, hi: float):
    """Sub-intervals of [lo, hi] where exp(kappa (cos 2(u-peak) - 1)) matters.

    The factor is pi-periodic in (u - peak), so images of the peak one period
    away can poke into the domain when the peak sits near an edge.
    """
    if 2.0 * kappa <= _TAIL_LOG:
        return [(lo, hi, peak)]
    half = 0.5 * math.acos(1.0 - _TAIL_LOG / kappa)
    windows = []
    for center in (peak - math.pi, peak, peak + math.pi):
        a, b = max(lo, center - half), min(hi, center + half)
        if a < b:
            windows.append((a, b, center))
    return windows


def _axis_rule(
    peak: float, kappa: float, sigma: float, order: int, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights refined around the peak."""
    gx, gw = _leggauss(order)
    nodes, weights = [], []
    for a, b, center in _axis_windows(peak, kappa, lo, hi):
        edges = {a, b}
        for mult in (0, 1, 2, 4, 8, 16, 32, 64, 128):
            for x in (center - mult * sigma, center + mult * sigma):
                if a < x < b:
                    edges.add(x)
        edge_list = sorted(edges)
        for p, q in zip(edge_list[:-1], edge_list[1:]):
            mid, span = 0.5 * (p + q), 0.5 * (q - p)
            nodes.append(mid + span * gx)
            weights.append(span * gw)
    return np.concatenate(nodes), np.concatenate(weights)


def _cluster_axis_data(cluster: AngularCluster, order: int):
    """Weighted nodes for both axes of one cluster, in actual angles."""
    u, wu = _axis_rule(
        cluster.azimuth, cluster.kappa_phi, cluster.sigma_phi, order, -_HALF_PI, _HALF_PI
    )
    v, wv = _axis_rule(
        cluster.elevation,
        cluster.kappa_theta,
        cluster.sigma_theta,
        order,
        -_HALF_PI,
        _HALF_PI,
    )
    shape_u = np.exp(cluster.kappa_phi * (np.cos(2.0 * (u - cluster.azimuth)) - 1.0))
    shape_v = np.cos(v) ** 4 * np.exp(
        cluster.kappa_theta * (np.cos(2.0 * (v - cluster.elevation)) - 1.0)
    )
    return u, wu * shape_u, v, wv * shape_v


def _cluster_shape_integral(cluster: AngularCluster, order: int) -> float:
    """Integral of the cluster's unit-peak shape over the front half-space."""
    _, wu, _, wv = _cluster_axis_data(cluster, order)
    return float(np.sum(wu) * np.sum(wv))


@dataclass(frozen=True)
class ClusterScenario:
    """A set of angular clusters with a shared power normalization.

    ``log_normalization`` is the log of the global constant that makes the
    summed scattering function integrate to one over the front half-space.
    It is kept in log form because the constant itself underflows a double
    once the angular spreads drop below roughly 1.3 degrees.
    """

    clusters: tuple[AngularCluster, ...]
    log_normalization: float

    @classmethod
    def create(cls, clusters) -> "ClusterScenario":
        """Normalize powers to unit sum and fix the global normalization."""
        clusters = tuple(clusters)
        if not clusters:
            raise ValueError("scenario needs at least one cluster")
        total_power = sum(c.power for c in clusters)
        if total_power <= 0:
            raise ValueError("total cluster power must be positive")
        clusters = tuple(
            AngularCluster(
                power=c.power / total_power,
                azimuth=c.azimuth,
                elevation=c.elevation,
                sigma_phi=c.sigma_phi,
                sigma_theta=c.sigma_theta,
            )
            for c in clusters
        )
        terms = np.array(
            [
                math.log(c.power)
                + c.kappa_phi
                + c.kappa_theta
                + math.log(_cluster_shape_integral(c, _GL_ORDER_REFINED))
                if c.power > 0
                else -np.inf
                for c in clusters
            ]
        )
        peak = terms.max()
        log_norm = -(peak + math.log(np.sum(np.exp(terms - peak))))
        return cls(clusters=clusters, log_normalization=log_norm)

    @property
    def normalization(self) -> float:
        return math.exp(self.log_normalization)

    def cluster_scale(self, n: int) -> float:
        """Scale A * P_n * exp(kappa_phi + kappa_theta) of cluster n."""
        c = self.clusters[n]
        if c.power == 0:
            return 0.0
        return math.exp(
            self.log_normalization + math.log(c.power) + c.kappa_phi + c.kappa_theta
        )

    def to_dict(self) -> dict:
        return {
            "normalization_log": self.log_normalization,
            "clusters": [
                {
                    "power": c.power,
                    "azimuth": c.azimuth,
                    "elevation": c.elevation,
                    "sigma_phi": c.sigma_phi,
                    "sigma_theta": c.sigma_theta,
                }
                for c in self.clusters
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterScenario":
        clusters = [
            AngularCluster(
                power=float(c["power"]),
                azimuth=float(c["azimuth"]),
                elevation=float(c["elevation"]),
                sigma_phi=float(c["sigma_phi"]),
                sigma_theta=float(c["sigma_theta"]),
            )
            for c in data["clusters"]
        ]
        return cls.create(clusters)


def cluster_scattering(
    scenario: ClusterScenario, n: int, delta: float, eps: float
):
    """Scattering density of cluster n at angular deviations (delta, eps).

    Evaluates A * P_n * cos^4(theta_n + eps) * exp(cos(2 delta) / 4 sigma_phi^2)
    * exp(cos(2 eps) / 4 sigma_theta^2) with the exponentials anchored at their
    peak so nothing overflows for narrow spreads.
    """
    c = scenario.clusters[n]
    delta = np.asarray(delta, dtype=float)
    eps = np.asarray(eps, dtype=float)
    value = (
        scenario.cluster_scale(n)
        * np.exp(
            c.kappa_phi * (np.cos(2.0 * delta) - 1.0)
            + c.kappa_theta * (np.cos(2.0 * eps) - 1.0)
        )
        * np.cos(c.elevation + eps) ** 4
    )
    if value.ndim == 0:
        return float(value)
    return value


def total_scattering(scenario: ClusterScenario, azimuth, elevation):
    """Summed scattering density at actual angles (azimuth, elevation)."""
    out = None
    for n, c in enumerate(scenario.clusters):
        term = cluster_scattering(scenario, n, azimuth - c.azimuth, elevation - c.elevation)
        out = term if out is None else out + term
    return out


def _cluster_separation_values(
    scenario: ClusterScenario,
    n: int,
    dy: np.ndarray,
    dz: np.ndarray,
    order: int,
) -> np.ndarray:
    """Integrals of cluster n against exp(j k . dr) for all separations."""
    c = scenario.clusters[n]
    scale = scenario.cluster_scale(n)
    if scale == 0.0:
        return np.zeros(dy.shape, dtype=complex)
    u, wu, v, wv = _cluster_axis_data(c, order)
    ky = (np.sin(u)[:, None] * np.cos(v)[None, :]).ravel()
    kz = np.broadcast_to(np.sin(v)[None, :], (u.size, v.size)).ravel()
    w = (wu[:, None] * wv[None, :]).ravel()
    values = np.zeros(dy.shape, dtype=complex)
    flat_dy = dy.ravel()
    flat_dz = dz.ravel()
    chunk = max(1, int(2e6) // max(1, flat_dy.size))
    for start in range(0, w.size, chunk):
        sl = slice(start, start + chunk)
        phase = 2.0 * math.pi * (
            flat_dy[:, None] * ky[None, sl] + flat_dz[:, None] * kz[None, sl]
        )
        values += (np.exp(1j * phase) @ w[sl]).reshape(dy.shape)
    return scale * values


def cluster_matrix(geometry: UpaGeometry, scenario: ClusterScenario) -> CovarianceMatrix:
    """Non-isotropic spatial correlation: per-cluster integrals, summed.

    Each cluster is integrated on its own panel-refined Gauss-Legendre grid;
    a doubled-order pass provides the error estimate.  Entries depend only on
    element separations, so the integrals run once per unique offset.
    """
    ny, nz = geometry.m_y, geometry.m_z
    steps_y, steps_z = np.meshgrid(
        np.arange(-ny + 1, ny), np.arange(-nz + 1, nz), indexing="ij"
    )
    # conj(value(-dy, -dz)) = value(dy, dz) exactly, so integrate half the grid
    half = (steps_y > 0) | ((steps_y == 0) & (steps_z >= 0))
    a, b = steps_y[half], steps_z[half]
    dy_half = a * geometry.d_y
    dz_half = b * geometry.d_z

    vals_base = sum(
        _cluster_separation_values(scenario, n, dy_half, dz_half, _GL_ORDER_BASE)
        for n in range(len(scenario.clusters))
    )
    vals_refined = sum(
        _cluster_separation_values(scenario, n, dy_half, dz_half, _GL_ORDER_REFINED)
        for n in range(len(scenario.clusters))
    )
    err = float(np.abs(vals_base - vals_refined).max())
    if err > _CLUSTER_ERROR_LIMIT:
        raise QuadratureError(
            f"cluster quadrature error estimate {err:.3e} exceeds "
            f"{_CLUSTER_ERROR_LIMIT:.3e}",
            estimate=err,
        )
    grid = np.zeros((2 * ny - 1, 2 * nz - 1), dtype=complex)
    grid[a + ny - 1, b + nz - 1] = vals_refined
    # the mirror goes second, so the (0, 0) cell holds conj(value)
    grid[-a + ny - 1, -b + nz - 1] = np.conj(vals_refined)
    entries = separation_fill(geometry, grid)
    meta = {
        "quad_error_estimate": err,
        "clusters": len(scenario.clusters),
        "log_normalization": scenario.log_normalization,
    }
    return psd_clamp(entries, kind="cluster", meta=meta)
