"""Spatial correlation matrices for the planar dipole array.

Three construction routes:

* for the isotropic half-space scenario, a closed-form power series at small
  inter-element separations and, beyond its radius, a 1-D Gauss-Legendre
  rule on the elevation integral left after the azimuth integral is done in
  closed form as a Bessel function,
* a generic adaptive 2-D quadrature of the scattering integral (tensor
  Gauss-Kronrod 21 cubature in numpy, refined as ``scipy.integrate.cubature``
  refines it), used as the independent oracle for everything else,
* a clustered non-isotropic model integrated per cluster on panel-refined
  Gauss-Legendre grids tuned to each cluster's angular support, with the 2-D
  sum factorized: the azimuth sum, a function of a y-step times cos v, is
  interpolated from exact samples at Chebyshev points, then one matmul covers
  the z-steps.

Both Gauss-Legendre routes take their orders from one rule (``_gl_order``):
the phase the integrand turns through across a panel, at the largest
separation, plus a floor and a slack per route.  Each route checks its order
with a doubled-order pass and accepts separations up to 100 wavelengths.
Every route's error estimates, the oracle's included, pass one gate
(``_gate``): the worst must be at most the route's bound, and a NaN fails.

Angular convention throughout: a scattering function is ``f(azimuth,
elevation)`` on the front half-space (-pi/2, pi/2) x (-pi/2, pi/2), and the
correlation entry for an element-pair offset ``delta_r`` (wavelength units) is
the integral of ``f * exp(j k^T delta_r)``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .geometry import (
    UpaGeometry,
    check_positive_finite,
    even_separation_matrix,
    separation_fill,
    unsigned_offsets,
)
from .linalg import CovarianceMatrix, psd_clamp
from .special import DIPOLE_DIRECTIVITY, alpha_coefficient, bessel_j0

__all__ = [
    "SERIES_RADIUS",
    "QuadratureError",
    "QuadratureOptions",
    "AngularCluster",
    "ClusterScenario",
    "isotropic_scattering",
    "iso_entry",
    "iso_matrix",
    "quadrature_entry",
    "cluster_scattering",
    "cluster_matrix",
]

# Separation (wavelengths) beyond which the isotropic series is abandoned for
# the Bessel rule: past ~1.5 the alternating layers grow into the 1e7 range
# before decaying and start eating the double-precision budget.
SERIES_RADIUS = 1.5
_SERIES_MAX_K = 60
# The series stops at the first outer layer below this.  On 16x16 arrays at
# 0.05 to 0.5 wavelength spacing its entries lie within 4e-14 of the series run
# to 1e-15 (1e-6 would leave 7e-8), far under the 1e-6 that validate's
# series_vs_quadrature line allows.
_SERIES_TOL = 1e-12

_HALF_PI = math.pi / 2.0

# exp(-41.45) ~ 1e-18: angular regions where a cluster shape falls below this
# contribute nothing at double precision and are excluded from its panels.
_TAIL_LOG = 41.45
# the gate's bound on the difference of a Gauss-Legendre pass and its
# doubled-order pass, for the Bessel rule and the cluster panels
_QUADRATURE_ERROR_LIMIT = 1e-8


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach its error target."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


# ---------------------------------------------------------------------------
# Isotropic half-space with dipole directivity
# ---------------------------------------------------------------------------


def isotropic_scattering(azimuth, elevation):
    """Scattering density for isotropic half-space propagation over dipoles."""
    return DIPOLE_DIRECTIVITY / (2.0 * math.pi) * np.cos(elevation) ** 4


# Separation (wavelengths) up to which the Gauss-Legendre orders and the
# oracle's default budget are checked; all raise beyond it rather than run
# unchecked for minutes (or ask for an order past any memory).
_MAX_SEPARATION = 100.0

# Floor and slack of _gl_order, per route.  The Bessel rule's elevation
# integrand is cos^4 times J0 and a cosine phase: this floor and slack keep its
# doubled-order difference at roundoff (under 4e-15) for r from SERIES_RADIUS
# to _MAX_SEPARATION.
_BESSEL_FLOOR = 96
_BESSEL_SLACK = 64
# A cluster panel ends at a multiple of the spread from the peak or at the
# shape's tail, so the shape is smooth across it: at 16 nodes the zero-offset
# doubled-order difference is under 5e-10 (relative) for spreads of 0.05 to 60
# degrees anywhere in the half-space, and at roundoff for 2-degree spreads.
_PANEL_FLOOR = 16
# Nodes beyond the phase's half-turn count, which carry the shape riding on the
# phase.  10 is the least slack whose undoubled pass stays within 1e-10 (a
# hundredth of the gate) of a slack-24 pass on arrays from 1x1 to 32x32 with
# separations up to 99 wavelengths, for the default scenarios and single
# clusters of 0.05 to 60 degrees at the centre and near the edges; 8 leaves
# 2.7e-9 and 0 leaves 7.6e-4 (a 20-degree cluster near a corner).
_PANEL_SLACK = 10


def _gl_order(frequency, width, floor: int, slack: int):
    """Gauss-Legendre order for an integrand whose phase turns at most
    ``frequency`` radians per radian, on a panel ``width`` radians wide.

    The phase spans frequency * width / pi half-turns across the panel; the
    order is that count rounded up plus ``slack``, and at least ``floor``.  The
    phase of exp(j k . dr), with k = 2 pi (direction), turns at most 2 pi |dr|
    radians per radian of azimuth or elevation.  ``frequency`` and ``width``
    may be arrays.
    """
    return np.maximum(floor, np.ceil(frequency * (width / math.pi)).astype(int) + slack)


# Every rule is of an order _gl_order gives inside the gate on a panel at most
# pi wide, or of its double, so no order passes the routes' largest doubled
# order at _MAX_SEPARATION.  The 1025 orders that can occur hold about 9.6 MB
# at worst; an iso_entry call asks for two and a cluster matrix a few dozen.
_MAX_ORDER = 2 * max(
    int(_gl_order(2.0 * math.pi * _MAX_SEPARATION, math.pi, floor, slack))
    for floor, slack in ((_BESSEL_FLOOR, _BESSEL_SLACK), (_PANEL_FLOOR, _PANEL_SLACK))
)


def _scaled_legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_n P_n(x) and K_(n-1) P_(n-1)(x), K_j = 4^j (j!)^2 / (2j)!, for n >= 1.

    K_j P_j is 2^j times the monic Legendre polynomial, so Bonnet's recurrence
    takes the form Q_(j+1) = 2x Q_j - 4j^2 / (4j^2 - 1) Q_(j-1): three array
    operations a step, on values of the size of sqrt(pi j) P_j.
    """
    two_x = 2.0 * x
    before, last = np.ones(x.shape), two_x.copy()
    product = np.empty(x.shape)
    for j in range(1, n):
        np.multiply(two_x, last, out=product)
        before *= 4 * j * j / (4 * j * j - 1)
        np.subtract(product, before, out=before)
        before, last = last, before
    return last, before


@lru_cache(maxsize=_MAX_ORDER)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of ``order`` points on [-1, 1].

    Newton's iteration on the three-term recurrence (Hale & Townsend, SIAM J.
    Sci. Comput. 35, 2013), run on the nonnegative nodes at once from
    Tricomi's asymptotic ones and mirrored; for odd orders the middle node is
    0 exactly.  Near a root Newton's next step is about step^2 x / (1 - x^2),
    so the iteration stops once that is under 2^-54 |x| (half an ulp or less)
    at every node, and one more pass gives P_n' at the nodes returned, for the
    weights 2 / ((1 - x)(1 + x) P_n'(x)^2).  The nodes are then within an ulp
    or two of the roots.  Since d log w / dx = -2x / (1 - x^2) at a root, an
    edge weight errs by about 2 ulp(x) / (1 - x^2) relative, which rounding its
    node to a double causes: 1.1e-12 at order 192 and 2e-11 at 1386, the
    largest order a route asks for, where numpy's companion eigenvalue rule errs
    by 4.2e-11 and 1.2e-8 (against 40-digit values).
    """
    n = order
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    tricomi = 1.0 - (n - 1) / (8 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384 * n**4)
    x = tricomi * np.cos(theta)  # descending
    if n % 2:
        x[-1] = 0.0
    scale_ratio = 2 * n / (2 * n - 1)  # K_n / K_(n-1)
    converged = False
    for _ in range(8):
        q, q_before = _scaled_legendre(n, x)
        one_minus, one_plus = 1.0 - x, 1.0 + x
        if converged:
            break
        # P_n / P_n', with P_n' = n (P_(n-1) - x P_n) / ((1 - x)(1 + x))
        step = one_minus * one_plus * q / (n * (scale_ratio * q_before - x * q))
        x -= step
        converged = bool(np.all(step * step <= 2.0**-54 * one_minus * one_plus))
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {n} did not converge")
    scale_before = 4 ** (n - 1) / math.comb(2 * n - 2, n - 1)  # K_(n-1), correctly rounded
    derivative = n * (q_before - x * q / scale_ratio) / (scale_before * one_minus * one_plus)
    weights = 2.0 / (one_minus * one_plus * derivative**2)
    mirror = slice(n % 2, None)
    return (
        np.concatenate((0.0 - x, x[::-1][mirror])),  # +0.0 in the middle
        np.concatenate((weights, weights[::-1][mirror])),
    )


def _gate(label: str, estimates, offsets: np.ndarray, bound: float) -> float:
    """The accuracy gate of every quadrature route: the largest of ``estimates``
    (one per row of ``offsets``).  Raises QuadratureError naming its offset
    unless it is at most ``bound``, so a NaN estimate (argmax takes it) fails."""
    estimates = np.ravel(estimates)
    if not estimates.size:
        return 0.0
    i = int(np.argmax(estimates))
    worst = float(estimates[i])
    if not worst <= bound:
        raise QuadratureError(
            f"{label} error estimate {worst:.3e} at offset "
            f"{tuple(offsets[i].tolist())} exceeds {bound:.3e}",
            estimate=worst,
        )
    return worst


def _check_separation(label: str, offsets: np.ndarray) -> None:
    """Raise QuadratureError naming the first offset (row) beyond _MAX_SEPARATION."""
    separation = np.hypot.reduce(offsets, axis=1)
    beyond = ~(separation <= _MAX_SEPARATION)  # NaN included
    if beyond.any():
        i = int(np.argmax(beyond))
        raise QuadratureError(
            f"{label} offset {tuple(offsets[i].tolist())} lies {separation[i]:.8g} "
            f"wavelengths apart, beyond the checked range of {_MAX_SEPARATION:g}",
            estimate=math.inf,
        )


def _powers(values: np.ndarray) -> np.ndarray:
    """Row j holds values**j by libm pow, once per distinct value (numpy's can differ)."""
    distinct = sorted(set(values.tolist()))
    table = [[v**j for v in distinct] for j in range(_SERIES_MAX_K + 1)]
    return np.array(table)[:, np.searchsorted(distinct, values)]


def _iso_series(dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Series at 1-D offset arrays, each cut after its first layer below _SERIES_TOL."""
    z_pow, y_pow = _powers(dz * dz), _powers(dy * dy)
    total = np.zeros(dy.shape)
    active = np.ones(dy.shape, dtype=bool)
    for k in range(_SERIES_MAX_K + 1):
        alpha = np.array([alpha_coefficient(k, l) for l in range(k + 1)])
        terms = alpha[:, None] * z_pow[k::-1, active] * y_pow[: k + 1, active]
        layer = np.add.accumulate(terms)[-1]  # summed over l in order
        total[active] += layer
        active[active] = ~(np.abs(layer) < _SERIES_TOL)
        if not active.any():
            break
    return total


def _iso_bessel(dy, dz, order: int) -> np.ndarray:
    """Isotropic entries by Gauss-Legendre in elevation after the azimuth step.

    The azimuth integral of cos(x sin(phi)) over (-pi/2, pi/2) is pi J0(x)
    (DLMF 10.9.1), so the entry is (D/2) times the elevation integral of
    cos^4(theta) J0(2 pi dy cos(theta)) cos(2 pi dz sin(theta)).
    """
    nodes, weights = _leggauss(int(order))
    theta = _HALF_PI * nodes
    cos_theta = np.cos(theta)
    # cos(theta) is symmetric in the nodes, so J0 is evaluated on the first
    # half (and the middle node) and mirrored; then in place, to hold two
    # (offsets x nodes) arrays at a time
    half = bessel_j0(np.multiply.outer(2.0 * math.pi * dy, cos_theta[: (order + 1) // 2]))
    integrand = np.concatenate((half, half[..., order // 2 - 1 :: -1]), axis=-1)
    integrand *= cos_theta**4
    phase = np.multiply.outer(2.0 * math.pi * dz, np.sin(theta))
    integrand *= np.cos(phase, out=phase)
    # one dot per offset: a matrix-vector product sums in another order,
    # which moves entries by ~3e-17 and, through the clamp, sweeps by ~3e-13
    dots = [weights @ row for row in integrand.reshape(-1, weights.size)]
    return 0.5 * DIPOLE_DIRECTIVITY * _HALF_PI * np.reshape(dots, np.shape(dy))


def iso_entry(dy_norm, dz_norm):
    """Isotropic correlation for (dy, dz) element offsets in wavelengths.

    Scalars give a float, arrays an array.  Within SERIES_RADIUS this is the
    closed-form series, truncated at the first outer layer whose contribution
    drops below 1e-12.  Beyond it the azimuth integral is done in closed form
    (a Bessel J0) and the elevation integral by one Gauss-Legendre rule per
    call, of the order ``_gl_order`` gives at the call's largest separation,
    as cluster panels are sized at the array's; a doubled-order pass raises
    QuadratureError if the two differ by more than 1e-8.  So a far entry
    depends at roundoff on the largest offset of its call; ``iso_matrix``
    makes one call per geometry.  Separations beyond 100 wavelengths raise
    QuadratureError before any rule is built.  No offsets give an empty array.
    """
    dy, dz = np.broadcast_arrays(np.abs(dy_norm), np.abs(dz_norm))
    offsets = np.column_stack((dy.ravel(), dz.ravel()))
    _check_separation("isotropic", offsets)
    separation = np.hypot(dy, dz)
    values = np.empty(separation.shape)
    far = separation > SERIES_RADIUS
    values[~far] = _iso_series(dy[~far], dz[~far])
    err = np.zeros(separation.shape)
    if far.any():
        # one panel: the elevation integral spans pi radians, so width / pi is 1
        largest = 2.0 * math.pi * separation[far].max()
        order = int(_gl_order(largest, math.pi, _BESSEL_FLOOR, _BESSEL_SLACK))
        base = _iso_bessel(dy[far], dz[far], order)
        values[far] = _iso_bessel(dy[far], dz[far], 2 * order)
        err[far] = np.abs(base - values[far])
    _gate("isotropic Bessel-rule", err, offsets, _QUADRATURE_ERROR_LIMIT)
    return values if values.ndim else float(values)


def iso_matrix(geometry: UpaGeometry) -> CovarianceMatrix:
    """Isotropic spatial correlation matrix: ``iso_entry`` on the offset grid."""
    entries = even_separation_matrix(geometry, iso_entry)
    fallbacks = np.count_nonzero(np.hypot(*unsigned_offsets(geometry)) > SERIES_RADIUS)
    return psd_clamp(entries, meta={"quadrature_fallback_pairs": int(fallbacks)})


# ---------------------------------------------------------------------------
# Generic quadrature oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureOptions:
    """Controls for the adaptive scattering-integral quadrature.

    ``abs_tol`` is the absolute error target of each cos and sin part, with a
    relative target of ``_CUBATURE_RTOL`` (1e-10) beside it.  ``limit`` is the
    subdivision budget of the adaptive cubature over each breakpoint-bounded
    sub-rectangle (each subdivision quarters the worst region); the default
    lets an isotropic offset converge out to the Bessel rule's 100-wavelength
    range (offset (0, 70, 70), 99 wavelengths long, takes 4260).
    ``azimuth_points`` and ``elevation_points`` are breakpoints: the domain is
    split at them into sub-rectangles whose integrals are summed.
    """

    abs_tol: float = 1e-9
    limit: int = 10_000
    azimuth_points: tuple[float, ...] | None = None
    elevation_points: tuple[float, ...] | None = None


def _axis_edges(points) -> list[float]:
    inside = sorted({p for p in points or () if -_HALF_PI < p < _HALF_PI})
    return [-_HALF_PI, *inside, _HALF_PI]


# the cubature's relative error target per output, beside QuadratureOptions.abs_tol
_CUBATURE_RTOL = 1e-10

# QUADPACK's dqk21 (Piessens et al., 1983): the Kronrod-21 abscissae on [0, 1]
# in decreasing order, and their weights.  Every second abscissa, from the
# second on, is a node of the embedded Gauss-10 rule.
_DQK21_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_DQK21_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)


@lru_cache(maxsize=1)
def _gk21_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod 21 on [-1, 1]: ascending nodes, and the Kronrod weights
    over the Gauss-10 weights (zero at the Kronrod-only nodes)."""
    half_nodes, half_weights = np.array(_DQK21_XGK), np.array(_DQK21_WGK)
    nodes = np.concatenate((-half_nodes[:-1], half_nodes[::-1]))
    kronrod = np.concatenate((half_weights[:-1], half_weights[::-1]))
    gauss = np.zeros(nodes.size)
    gauss[1::2] = _leggauss(10)[1]
    return nodes, np.stack((kronrod, gauss))


def _gk21_cubature(integrand, lo, hi, atol: float, limit: int):
    """Adaptive tensor Gauss-Kronrod 21 cubature over the rectangle [lo, hi].

    ``integrand`` maps ``(n, 2)`` nodes to ``(n, m)`` values.  A region's
    estimate is its 21 x 21 Kronrod sum and its error |Kronrod - Gauss-10|,
    per output.  While some output's summed error exceeds atol +
    _CUBATURE_RTOL |sum|, the region with the largest error is quartered at its
    midpoint, its four children evaluated in one integrand call; ``limit``
    subdivisions stop it.  Returns the summed estimates and errors.
    """
    nodes, (kronrod, gauss) = _gk21_rule()
    unit = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    tensor = np.outer(kronrod, kronrod).ravel()
    weights = np.stack((tensor, tensor - np.outer(gauss, gauss).ravel()))

    def apply(lo, hi):  # (r, 2) corners -> (r, m) estimates and errors
        points = (unit + 1.0) * (0.5 * (hi - lo))[:, None] + lo[:, None]
        values = integrand(points.reshape(-1, 2)).reshape(len(lo), len(unit), -1)
        sums = (weights @ values) * (np.prod(hi - lo, axis=1) / 4.0)[:, None, None]
        return sums[:, 0], np.abs(sums[:, 1])

    lo, hi = np.array([lo], dtype=float), np.array([hi], dtype=float)
    est, err = apply(lo, hi)
    total, total_err = est[0].copy(), err[0].copy()
    # max-heap on each region's largest error; the count breaks ties
    heap = [(-err[0].max(), 0, lo[0], hi[0], est[0], err[0])]
    subdivisions = 0
    while np.any(total_err > atol + _CUBATURE_RTOL * np.abs(total)):
        _, _, a, b, region_est, region_err = heapq.heappop(heap)
        total -= region_est
        total_err -= region_err
        mid = 0.5 * (a + b)
        lo = np.array([a, [a[0], mid[1]], [mid[0], a[1]], mid])
        hi = np.array([mid, [mid[0], b[1]], [b[0], mid[1]], b])
        est, err = apply(lo, hi)
        for i in range(4):
            total += est[i]
            total_err += err[i]
            tiebreak = 4 * subdivisions + i + 1
            heapq.heappush(heap, (-err[i].max(), tiebreak, lo[i], hi[i], est[i], err[i]))
        subdivisions += 1
        if subdivisions >= limit:
            break
    return total, total_err


def quadrature_entry(
    f, delta_r, opts: QuadratureOptions | None = None
) -> complex | np.ndarray:
    """Correlation entries for offsets ``delta_r`` by adaptive 2-D cubature.

    ``f(azimuth, elevation)`` must be nonnegative on the front half-space,
    (-pi/2, pi/2) on both axes, and take node arrays.  A ``(3,)`` offset gives
    a complex scalar; an ``(n, 3)`` stack gives a complex array from one
    cubature (tensor Gauss-Kronrod 21) per breakpoint sub-rectangle whose
    outputs are the cos and sin parts of every offset, so the refinement is
    shared and runs until the worst offset meets its target.  Raises
    QuadratureError when an offset's error estimate (cos part plus sin part)
    exceeds ten times ``abs_tol``, and before integrating when an offset lies
    beyond the 100 wavelengths the default budget is checked on.
    """
    opts = opts or QuadratureOptions()
    offsets = np.asarray(delta_r, dtype=float)
    stack = np.atleast_2d(offsets)
    if stack.ndim != 2 or stack.shape[1] != 3 or not len(stack):
        raise ValueError(
            f"offsets must have shape (3,) or (n, 3) with n > 0, got {offsets.shape}"
        )
    _check_separation("quadrature", stack)
    wave = 2.0 * math.pi * stack

    def integrand(nodes):
        az, el = nodes[:, 0], nodes[:, 1]
        cos_el = np.cos(el)
        unit = np.column_stack((cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)))
        phase = unit @ wave.T  # (nodes, offsets)
        density = np.asarray(f(az, el), dtype=float)[..., None]
        return np.concatenate((density * np.cos(phase), density * np.sin(phase)), axis=1)

    az_edges = _axis_edges(opts.azimuth_points)
    el_edges = _axis_edges(opts.elevation_points)
    # the error targets of the sub-rectangles add up to abs_tol per part
    atol = opts.abs_tol / ((len(az_edges) - 1) * (len(el_edges) - 1))
    value = np.zeros(2 * len(wave))
    error = np.zeros(2 * len(wave))
    for az_lo, az_hi in zip(az_edges[:-1], az_edges[1:]):
        for el_lo, el_hi in zip(el_edges[:-1], el_edges[1:]):
            est, err = _gk21_cubature(
                integrand, (az_lo, el_lo), (az_hi, el_hi), atol, opts.limit
            )
            value += est
            error += err
    re, im = np.split(value, 2)
    err_re, err_im = np.split(error, 2)
    _gate("quadrature", err_re + err_im, stack, 10.0 * opts.abs_tol)
    entries = re + 1j * im
    return complex(entries[0]) if offsets.ndim == 1 else entries


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
        if not 0.0 <= self.power < math.inf:
            raise ValueError(
                f"cluster power must be finite and nonnegative, got {self.power!r}"
            )
        for name in ("sigma_phi", "sigma_theta"):
            sigma = check_positive_finite(getattr(self, name), name)
            # kappa = 1/(4 sigma^2) enters every exponent and the normalization
            if not (sigma**2 > 0.0 and math.isfinite(1.0 / (4.0 * sigma**2))):
                raise ValueError(
                    f"{name} = {sigma!r} is too small: 1/(4 {name}^2) is not finite"
                )
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
    peak: float, kappa: float, sigma: float, separation: float, refinement: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on (-pi/2, pi/2), refined around
    the peak.

    Each panel's order is ``_gl_order`` for offsets up to ``separation``
    wavelengths long across that panel's width, times ``refinement`` (1 for
    the base pass, 2 for the doubled one).
    """
    nodes, weights = [], []
    for a, b, center in _axis_windows(peak, kappa, -_HALF_PI, _HALF_PI):
        edges = {a, b}
        for mult in (0, 1, 2, 4, 8, 16, 32, 64, 128):
            for x in (center - mult * sigma, center + mult * sigma):
                if a < x < b:
                    edges.add(x)
        edge_list = sorted(edges)
        widths = np.diff(edge_list)
        orders = refinement * _gl_order(
            2.0 * math.pi * separation, widths, _PANEL_FLOOR, _PANEL_SLACK
        )
        for p, q, order in zip(edge_list[:-1], edge_list[1:], orders.tolist()):
            gx, gw = _leggauss(order)
            mid, span = 0.5 * (p + q), 0.5 * (q - p)
            nodes.append(mid + span * gx)
            weights.append(span * gw)
    return np.concatenate(nodes), np.concatenate(weights)


def _cluster_axis_data(cluster: AngularCluster, separation: float, refinement: int):
    """Weighted nodes for both axes of one cluster, in actual angles, for
    offsets up to ``separation`` wavelengths long (see ``_axis_rule``)."""
    u, wu = _axis_rule(
        cluster.azimuth, cluster.kappa_phi, cluster.sigma_phi, separation, refinement
    )
    v, wv = _axis_rule(
        cluster.elevation, cluster.kappa_theta, cluster.sigma_theta, separation, refinement
    )
    shape_u = np.exp(cluster.kappa_phi * (np.cos(2.0 * (u - cluster.azimuth)) - 1.0))
    shape_v = np.cos(v) ** 4 * np.exp(
        cluster.kappa_theta * (np.cos(2.0 * (v - cluster.elevation)) - 1.0)
    )
    return u, wu * shape_u, v, wv * shape_v


def _cluster_shape_integral(cluster: AngularCluster) -> float:
    """Integral of the cluster's unit-peak shape over the front half-space:
    the zero offset, on the doubled rule."""
    _, wu, _, wv = _cluster_axis_data(cluster, 0.0, 2)
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
        if not 0 < total_power < math.inf:
            raise ValueError(
                f"total cluster power must be positive and finite, got {total_power!r}"
            )
        clusters = tuple(replace(c, power=c.power / total_power) for c in clusters)
        terms = np.array(
            [
                math.log(c.power)
                + c.kappa_phi
                + c.kappa_theta
                + math.log(_cluster_shape_integral(c))
                if c.power > 0
                else -np.inf
                for c in clusters
            ]
        )
        peak = terms.max()
        log_norm = -(peak + math.log(np.sum(np.exp(terms - peak))))
        return cls(clusters=clusters, log_normalization=log_norm)

    def cluster_scale(self, n: int) -> float:
        """Scale A * P_n * exp(kappa_phi + kappa_theta) of cluster n."""
        c = self.clusters[n]
        if c.power == 0:
            return 0.0
        return math.exp(
            self.log_normalization + math.log(c.power) + c.kappa_phi + c.kappa_theta
        )

    def to_dict(self) -> dict:
        return {"clusters": [asdict(c) for c in self.clusters]}

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterScenario":
        clusters = [
            AngularCluster(**{f.name: float(c[f.name]) for f in fields(AngularCluster)})
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


# The azimuth sum's Chebyshev interpolant is held within this of the sum,
# relative to the sum of its weights: the unit roundoff.
_CHEBYSHEV_TOL = 2.0**-53


def _chebyshev_tail(tau: float, degree: int) -> float:
    """Bound, relative to sum |w|, on how far the degree-``degree`` Chebyshev
    interpolant of sum w exp(j omega t), |omega| <= tau, strays from it on
    [-1, 1]; valid for degree + 2 >= tau.

    exp(j omega t) = J_0(omega) + 2 sum_k j^k J_k(omega) T_k(t) (Jacobi-Anger)
    and |J_k(omega)| <= (tau/2)^k / k! (DLMF 10.14.4), so the sum's k-th
    Chebyshev coefficient is at most 2 (tau/2)^k / k! sum |w|.  The interpolant
    at the K + 1 Chebyshev points errs by at most twice the coefficients it
    drops (Trefethen, ATAP, ch. 4): 4 sum_{k>K} (tau/2)^k / k!.  Once K + 2 >=
    tau each term of that tail is at most half the one before, so the tail is
    at most twice its first term.
    """
    if tau == 0.0:
        return 0.0
    return 8.0 * math.exp((degree + 1) * math.log(0.5 * tau) - math.lgamma(degree + 2))


def _chebyshev_degree(tau: float) -> int:
    """Least degree K >= 1 whose ``_chebyshev_tail`` is at most _CHEBYSHEV_TOL."""
    degree = 1
    while degree + 2 < tau or _chebyshev_tail(tau, degree) > _CHEBYSHEV_TOL:
        degree += 1
    return degree


def _azimuth_interpolant(alpha: np.ndarray, weights: np.ndarray, length: float):
    """F(x) = sum_u w_u exp(j alpha_u x) on [0, length], from K + 1 exact samples.

    The phases are demodulated around their centre c, F(x) = exp(j c x) G(x),
    so G's frequencies lie within s, half the spread of alpha.  On [0, length]
    mapped to [-1, 1], G is a sum of exp(j omega t) with |omega| <= tau =
    s length / 2, and is sampled at the Chebyshev points of the degree
    ``_chebyshev_degree`` gives at tau.  The returned function evaluates G by
    the barycentric formula for those points (weights (-1)^k, halved at both
    ends; Berrut & Trefethen, SIAM Review 46, 2004) and re-modulates.  At a
    node, where the formula divides by zero, it returns the node's sample.
    A call on n points holds n x (K + 1) values.
    """
    lo, hi = alpha.min(), alpha.max()
    centre = 0.5 * (hi + lo)
    half = 0.5 * length
    degree = _chebyshev_degree(0.5 * (hi - lo) * half)
    nodes = half + half * np.cos(np.arange(degree + 1) * (math.pi / degree))
    samples = weights @ np.exp(1j * np.multiply.outer(alpha - centre, nodes))
    bary = np.ones(degree + 1)
    bary[1::2] = -1.0
    bary[[0, -1]] *= 0.5
    # numerators and denominator in one real product
    columns = np.column_stack((samples.real, samples.imag, np.ones(degree + 1)))

    def evaluate(x: np.ndarray) -> np.ndarray:
        terms = np.subtract.outer(x, nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            re, im, den = (np.divide(bary, terms, out=terms) @ columns).T
            value = (re + 1j * im) / den
        on_node = ~np.isfinite(value)
        if on_node.any():
            nearest = np.abs(np.subtract.outer(x[on_node], nodes)).argmin(axis=1)
            value[on_node] = samples[nearest]
        return value * np.exp(1j * centre * x)

    return evaluate


def _cluster_offset_table(
    scenario: ClusterScenario, n: int, geometry: UpaGeometry, refinement: int
) -> np.ndarray:
    """Integrals of cluster n against exp(j k . dr) on the step grid.

    Entry [a, b + Mz - 1] is the integral for the offset (a d_y, b d_z), for
    y-steps a = 0..My-1 and every signed z-step b.  The phase factorizes as
    exp(j alpha_u a cos v) exp(j 2 pi b d_z sin v) with alpha_u = 2 pi d_y
    sin u, so the azimuth sum F(x) = sum_u w_u exp(j alpha_u x) is needed at
    x = a cos v only: it is interpolated from a few exact samples
    (``_azimuth_interpolant``) and evaluated one y-step at a time, and a
    single matmul against the elevation phases covers every z-step.  The
    phases are computed for b >= 0 and mirrored to b < 0 by conjugation.
    """
    ny, nz = geometry.m_y, geometry.m_z
    scale = scenario.cluster_scale(n)
    if scale == 0.0:
        return np.zeros((ny, 2 * nz - 1), dtype=complex)
    separation = math.hypot((ny - 1) * geometry.d_y, (nz - 1) * geometry.d_z)
    u, wu, v, wv = _cluster_axis_data(scenario.clusters[n], separation, refinement)
    cos_v = np.cos(v)
    azimuth_sum = _azimuth_interpolant(
        2.0 * math.pi * geometry.d_y * np.sin(u), wu, (ny - 1) * cos_v.max()
    )
    azimuth_sums = np.array([azimuth_sum(a * cos_v) for a in range(ny)])
    # the phases of z-steps b >= 0; those of -b are their conjugates, bit for bit
    half_phase = np.exp(
        2j * math.pi * geometry.d_z * np.sin(v)[:, None] * np.arange(nz)[None, :]
    )
    elevation_phase = np.concatenate((half_phase[:, :0:-1].conj(), half_phase), axis=1)
    return scale * ((azimuth_sums * wv) @ elevation_phase)


def cluster_matrix(geometry: UpaGeometry, scenario: ClusterScenario) -> CovarianceMatrix:
    """Non-isotropic spatial correlation: per-cluster integrals, summed.

    Each cluster is integrated on its own panel-refined Gauss-Legendre grid,
    sum-factorized over the two axes (``_cluster_offset_table``): the cost is
    one azimuth table per cluster, not one product-grid sum per offset.
    Each panel's order grows with the array's largest separation and the
    panel's width, as the Bessel rule's order grows with the separation.
    The tables cover the y-steps a >= 0; the offsets with a < 0 are mirrored
    by conjugation.  A doubled-order pass provides the error estimate, and
    QuadratureError is raised when it exceeds 1e-8, naming the worst offset.
    Separations beyond 100 wavelengths, where the orders are unchecked, raise
    QuadratureError before any rule is built.
    """
    dy, dz = unsigned_offsets(geometry)
    _check_separation("cluster", np.column_stack((dy.ravel(), dz.ravel())))

    def offset_table(refinement: int) -> np.ndarray:
        return sum(
            _cluster_offset_table(scenario, n, geometry, refinement)
            for n in range(len(scenario.clusters))
        )

    base = offset_table(1)
    table = offset_table(2)
    a, b = (steps.ravel() for steps in np.indices(table.shape))
    offsets = np.column_stack((a * geometry.d_y, (b + 1 - geometry.m_z) * geometry.d_z))
    err = _gate("cluster quadrature", np.abs(base - table), offsets, _QUADRATURE_ERROR_LIMIT)
    # conj(value(-dy, -dz)) = value(dy, dz) exactly
    grid = np.concatenate((table[:0:-1, ::-1].conj(), table))
    entries = separation_fill(geometry, grid)
    return psd_clamp(entries, meta={"quad_error_estimate": err})
