"""Sine/cosine integrals, the Bessel function J0 and log-domain series coefficients.

The impedance closed forms take Si/Ci at arguments from ~1e-5 to ~1.3e3
inside the 100-wavelength separation gate, and the isotropic Bessel rule
takes J0 at arguments up to 2 pi times 100.  All three are computed here with
numpy alone, so importing the package never loads scipy; the tests hold Si,
Ci and J0 within 2e-15 of ``scipy.special``.  Each takes scalars or arrays and
rejects any argument outside its real domain.  Each method truncates where a
bound stated beside it falls under _TOL: series term counts are fixed for the
range a method covers, and continued-fraction depths are set per argument, so
a value never depends on the other arguments of a call.
The isotropic-correlation series needs its coefficients evaluated far past
the point where the factorials involved overflow a double.  All are pure
functions.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "DIPOLE_DIRECTIVITY",
    "sin_integral",
    "cos_integral",
    "bessel_j0",
    "log_alpha_magnitude",
    "alpha_coefficient",
]

EULER_GAMMA = 0.5772156649015328606

# Peak directivity of a thin half-wave dipole in the cos^3 pattern model.
DIPOLE_DIRECTIVITY = 1.67

# Truncation target of every series, fraction and expansion below: a twentieth
# of an ulp at 1, so truncation never shows beside the roundoff.
_TOL = 1e-17

_HALF_PI = 0.5 * math.pi


def _alternating_prefix(coefficients: list[float], z_max: float) -> list[float]:
    """The terms to keep of an alternating series sum_n c_n z^n used up to z_max.

    Each series here alternates with terms that decrease from n = 1 on over
    the range it is used on, so its tail is below the first dropped term.
    That term is largest at z_max, and is kept under _TOL there.  The count is
    fixed per range, so a value never depends on the other arguments of a call.
    """
    return coefficients[
        : next(n for n, c in enumerate(coefficients) if n > 1 and abs(c) * z_max**n < _TOL)
    ]


def _horner(coefficients: list[float], z: np.ndarray) -> np.ndarray:
    """sum_n c_n z^n, by Horner's rule."""
    total = np.full(z.shape, coefficients[-1])
    for c in coefficients[-2::-1]:
        total *= z
        total += c
    return total


def _split(x: np.ndarray, near_max: float, near, far) -> np.ndarray:
    """near(x) where x <= near_max, far(x) elsewhere; each runs on a nonempty part only."""
    near_mask = x <= near_max
    near_count = np.count_nonzero(near_mask)
    if near_count == x.size:
        return near(x) if near_count else np.empty(x.shape)
    if near_count == 0:
        return far(x)
    out = np.empty(x.shape)
    out[near_mask] = near(x[near_mask])
    out[~near_mask] = far(x[~near_mask])
    return out


# ---------------------------------------------------------------------------
# Si and Ci
# ---------------------------------------------------------------------------

# Up to this argument the Maclaurin series, whose terms are then at most 4 in
# size, so its roundoff stays near 1e-15; beyond it the continued fraction.
_SICI_SERIES_MAX = 4.0

# Si(x) / x = sum_n c_n x^(2n) and Ci(x) - gamma - ln x = sum_n d_n x^(2n)
# (DLMF 6.6.5, 6.6.6), from d_1 on; at x = 4 Si keeps 15 terms and Ci 14.
# The Si bound is relative to Si(x) / x, at least Si(4) / 4 = 0.44 here.
_SI_SERIES = _alternating_prefix(
    [(-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(30)],
    _SICI_SERIES_MAX**2,
)
_CI_SERIES = _alternating_prefix(
    [0.0] + [(-1) ** n / (2 * n * math.factorial(2 * n)) for n in range(1, 30)],
    _SICI_SERIES_MAX**2,
)[1:]


def _si_series(x: np.ndarray) -> np.ndarray:
    return x * _horner(_SI_SERIES, x * x)


def _ci_series(x: np.ndarray) -> np.ndarray:
    z = x * x
    return EULER_GAMMA + np.log(x) + z * _horner(_CI_SERIES, z)


def _e1_imaginary(x: np.ndarray) -> np.ndarray:
    """E1(ix) for x > 0 by the continued fraction of DLMF 6.9.3 (Jacobi form).

    e^(ix) E1(ix) = 1/(ix + 1 - 1/(ix + 3 - 4/(ix + 5 - 9/(...)))), evaluated
    from a depth N down; that approximant is the (N+1)-point Gauss-Laguerre
    rule for int e^(-t) / (ix + t) dt.  Its relative error falls like
    exp(-2 sqrt(2 N x)) at small x and like ((N+1)!)^2 / x^(2N+2) at large x.
    N = ceil(200 / x) + 6 keeps it under _TOL: against the exact remainder
    for x from 4 to 1e8, the depth needed exceeds 200 / x by at most 6, at
    x = 4, where N = 56.  Each argument runs its own N levels: sorted by x,
    the arguments still running at level n are a prefix.  Then
    Ci(x) = -Re E1(ix) and Si(x) = pi/2 + Im E1(ix) (DLMF 6.5.5).
    """
    flat = x.ravel()
    order = np.argsort(flat)
    z = 1j * flat[order]
    depth = np.ceil(200.0 / flat[order]).astype(int) + 6  # nonincreasing
    running = np.searchsorted(-depth, -np.arange(depth[0] + 1), side="right")
    u = z + (2 * depth + 1)
    for n in range(depth[0], 0, -1):
        head = slice(0, running[n])
        np.subtract(z[head] + (2 * n - 1), (n * n) / u[head], out=u[head])
    e1 = np.empty(flat.shape, dtype=complex)
    e1[order] = np.exp(-z) / u
    return e1.reshape(x.shape)


def sin_integral(x):
    """Si(x) = integral of sin(t)/t from 0 to x, elementwise.  Odd in x."""
    if not np.all(np.isfinite(x)):
        raise ValueError("sin_integral requires finite x")
    x = np.asarray(x, dtype=float)
    si = _split(
        np.abs(x),
        _SICI_SERIES_MAX,
        _si_series,
        lambda far: _HALF_PI + _e1_imaginary(far).imag,
    )
    return np.copysign(si, x)[()]


def cos_integral(x):
    """Ci(x) = -integral of cos(t)/t from x to infinity, elementwise; finite x > 0."""
    if not np.all((x > 0) & np.isfinite(x)):
        raise ValueError("cos_integral requires finite x > 0")
    x = np.asarray(x, dtype=float)
    return _split(x, _SICI_SERIES_MAX, _ci_series, lambda far: -_e1_imaginary(far).real)[()]


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

# Power series up to _J0_SERIES_MAX, where its terms (x^2/4)^k / k!^2 are at
# most 1 in size; Miller's backward recurrence up to _J0_MILLER_MAX; Hankel's
# expansion beyond, where its terms fall under _TOL before they start to grow.
_J0_SERIES_MAX = 2.0
_J0_MILLER_MAX = 20.0

# J0(x) = sum_k (-1)^k (x^2 / 4)^k / k!^2 (DLMF 10.2.2): 12 terms at x = 2.
_J0_SERIES = _alternating_prefix(
    [(-1) ** k / math.factorial(k) ** 2 for k in range(30)], _J0_SERIES_MAX**2 / 4.0
)


def _miller_start(x_max: float) -> int:
    """First even N with (x_max / 2)^N / N! under _TOL."""
    n = 2
    while n * math.log(0.5 * x_max) - math.lgamma(n + 1) >= math.log(_TOL):
        n += 2
    return n


# 54 at x = 20
_MILLER_START = _miller_start(_J0_MILLER_MAX)


def _hankel_series(x_min: float) -> tuple[list[float], list[float]]:
    """Coefficients in 1/x^2 of P and of x Q, to the first term under _TOL at x_min.

    a_k(0) = (-1)^k (1^2 3^2 ... (2k-1)^2) / (k! 8^k) (DLMF 10.17.1); P takes
    (-1)^k a_2k and Q takes (-1)^k a_(2k+1).
    """
    a = [1.0]
    while abs(a[-1]) * (1.0 / x_min) ** (len(a) - 1) >= _TOL:
        k = len(a)
        a.append(-a[-1] * (2 * k - 1) ** 2 / (8 * k))
    kept = a[:-1]
    return (
        [(-1) ** k * c for k, c in enumerate(kept[0::2])],
        [(-1) ** k * c for k, c in enumerate(kept[1::2])],
    )


# 14 and 13 terms at x = 20, where the 28th, the first dropped, is 7e-18
_HANKEL_P, _HANKEL_Q = _hankel_series(_J0_MILLER_MAX)


def _j0_series(x: np.ndarray) -> np.ndarray:
    return _horner(_J0_SERIES, 0.25 * x * x)


def _j0_miller(x: np.ndarray) -> np.ndarray:
    """J0 by Miller's backward recurrence, normalized by 1 = J0 + 2 sum J_2k.

    J_(n-1) = (2n / x) J_n - J_(n+1) is run down from zero above an even
    start N.  What the start drops is of the order of J_N(x), and
    |J_N(x)| <= (x/2)^N / N! (DLMF 10.14.4), so N is the first even order
    where that bound is under _TOL at _J0_MILLER_MAX.  From f_N = 1 the
    recurrence grows by at most 1 / J_N(x) < 1e75, far inside double range.
    """
    two_over_x = 2.0 / x
    above = np.zeros(x.shape)
    f = np.ones(x.shape)
    even_sum = np.ones(x.shape)  # f_N = 1, the first even order
    below = np.empty(x.shape)
    for n in range(_MILLER_START, 0, -1):
        # below = f_(n-1) from f = f_n and above = f_(n+1)
        np.multiply(f, two_over_x, out=below)
        below *= n
        below -= above
        above, f, below = f, below, above
        if n % 2 == 1 and n > 1:
            even_sum += f
    return f / (f + 2.0 * even_sum)


def _j0_hankel(x: np.ndarray) -> np.ndarray:
    """J0 by Hankel's expansion (DLMF 10.17.3), for x > _J0_MILLER_MAX.

    J0(x) = sqrt(2 / (pi x)) (P cos w - Q sin w), w = x - pi/4.  For real x
    the remainder after any term is below the first dropped term
    (DLMF 10.17(iii)), which is under _TOL from _J0_MILLER_MAX on.  cos w and
    sin w are taken as (cos x +- sin x) / sqrt 2, from cos x and sin x, since
    x - pi/4 would round by up to half an ulp of x.
    """
    inv = 1.0 / x
    inv_sq = inv * inv
    p = _horner(_HANKEL_P, inv_sq)
    q = _horner(_HANKEL_Q, inv_sq)
    q *= inv
    return ((p + q) * np.cos(x) + (p - q) * np.sin(x)) / np.sqrt(math.pi * x)


def bessel_j0(x):
    """Bessel function of the first kind J0(x), elementwise; finite x.  Even in x."""
    if not np.all(np.isfinite(x)):
        raise ValueError("bessel_j0 requires finite x")
    x = np.abs(np.asarray(x, dtype=float))
    return _split(
        x,
        _J0_MILLER_MAX,
        lambda near: _split(near, _J0_SERIES_MAX, _j0_series, _j0_miller),
        _j0_hankel,
    )[()]


# ---------------------------------------------------------------------------
# Isotropic-series coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lgamma(n: int) -> float:
    """math.lgamma at an integer: the series coefficients take a few hundred
    values of it many times over."""
    return math.lgamma(n)


_LOG_2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_LOG_DENSITY = math.log(DIPOLE_DIRECTIVITY / (2.0 * math.pi))


def _log_binomial(n: int, r: int) -> float:
    return _lgamma(n + 1) - _lgamma(r + 1) - _lgamma(n - r + 1)


@lru_cache(maxsize=None)
def log_alpha_magnitude(k: int, l: int) -> tuple[int, float]:
    """Sign and natural log magnitude of the isotropic-series coefficient.

    The coefficient of (dz_norm)^(2(k-l)) (dy_norm)^(2l) in the closed-form
    expansion of the isotropic correlation entry.  Assembled entirely from
    log-gamma terms so that the factorials never overflow: the plain (2k)!
    already exceeds double range near k = 85 while the series cap is higher
    than the radius of practical convergence.

    Returns (sign, log|alpha|) with sign = (-1)^k.
    """
    if k < 0 or l < 0 or l > k:
        raise ValueError("require 0 <= l <= k")
    lg = _lgamma
    # (2l+3)!! = (2l+3)! / (2^(l+1) (l+1)!)
    log_dfact = lg(2 * l + 4) - (l + 1) * _LOG_2 - lg(l + 2)
    # (2k+4)(2k+2)...(2k-2l+2) = 2^(l+2) (k+2)! / (k-l)!
    log_even_prod = (l + 2) * _LOG_2 + lg(k + 3) - lg(k - l + 1)
    log_mag = (
        -lg(2 * k + 1)
        + _log_binomial(2 * k, 2 * l)
        + _log_binomial(2 * l, l)
        + _log_binomial(2 * (k - l), k - l)
        + (2 * k + 2) * _LOG_PI
        + _LOG_DENSITY
        + log_dfact
        - log_even_prod
    )
    return (-1 if k % 2 else 1), log_mag


def alpha_coefficient(k: int, l: int) -> float:
    """Signed value of the series coefficient; underflows to 0 for huge k."""
    sign, log_mag = log_alpha_magnitude(k, l)
    return sign * math.exp(log_mag)
