"""Sine/cosine integrals and log-domain series coefficients.

The impedance closed forms consume Si/Ci at arguments up to a few hundred;
``sin_integral`` and ``cos_integral`` are wrappers over ``scipy.special.sici``
that take scalars or arrays and reject any argument outside the real domain.
The isotropic-correlation series needs its coefficients evaluated far past
the point where the factorials involved overflow a double.  All are pure
functions.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import sici

__all__ = [
    "EULER_GAMMA",
    "DIPOLE_DIRECTIVITY",
    "sin_integral",
    "cos_integral",
    "log_alpha_magnitude",
    "alpha_coefficient",
]

EULER_GAMMA = 0.5772156649015328606

# Peak directivity of a thin half-wave dipole in the cos^3 pattern model.
DIPOLE_DIRECTIVITY = 1.67


def sin_integral(x):
    """Si(x) = integral of sin(t)/t from 0 to x, elementwise.  Odd in x."""
    if not np.all(np.isfinite(x)):
        raise ValueError("sin_integral requires finite x")
    return sici(x)[0]


def cos_integral(x):
    """Ci(x) = -integral of cos(t)/t from x to infinity, elementwise; finite x > 0."""
    if not np.all((x > 0) & np.isfinite(x)):
        raise ValueError("cos_integral requires finite x > 0")
    return sici(x)[1]


def _log_binomial(n: int, r: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


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
    lg = math.lgamma
    # (2l+3)!! = (2l+3)! / (2^(l+1) (l+1)!)
    log_dfact = lg(2 * l + 4) - (l + 1) * math.log(2.0) - lg(l + 2)
    # (2k+4)(2k+2)...(2k-2l+2) = 2^(l+2) (k+2)! / (k-l)!
    log_even_prod = (l + 2) * math.log(2.0) + lg(k + 3) - lg(k - l + 1)
    log_mag = (
        -lg(2 * k + 1)
        + _log_binomial(2 * k, 2 * l)
        + _log_binomial(2 * l, l)
        + _log_binomial(2 * (k - l), k - l)
        + (2 * k + 2) * math.log(math.pi)
        + math.log(DIPOLE_DIRECTIVITY / (2.0 * math.pi))
        + log_dfact
        - log_even_prod
    )
    return (-1 if k % 2 else 1), log_mag


def alpha_coefficient(k: int, l: int) -> float:
    """Signed value of the series coefficient; underflows to 0 for huge k."""
    sign, log_mag = log_alpha_magnitude(k, l)
    return sign * math.exp(log_mag)
