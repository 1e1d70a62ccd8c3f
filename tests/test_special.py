"""Sine/cosine integrals and the series coefficients against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from holoest.special import (
    DIPOLE_DIRECTIVITY,
    EULER_GAMMA,
    alpha_coefficient,
    cos_integral,
    log_alpha_magnitude,
    sin_integral,
)


def si_series_oracle(x: float, terms: int = 50) -> float:
    """Maclaurin oracle: sum of (-1)^n x^(2n+1) / ((2n+1)(2n+1)!)."""
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / ((2 * n + 1) * math.factorial(2 * n + 1))
    return total


def ci_series_oracle(x: float, terms: int = 50) -> float:
    """Euler-Mascheroni + ln x + alternating even series."""
    total = EULER_GAMMA + math.log(x)
    for n in range(1, terms):
        total += (-1) ** n * x ** (2 * n) / (2 * n * math.factorial(2 * n))
    return total


def test_si_at_zero():
    assert sin_integral(0.0) == 0.0


def test_si_at_one_matches_series_oracle():
    assert sin_integral(1.0) == pytest.approx(si_series_oracle(1.0), abs=1e-12)
    assert sin_integral(1.0) == pytest.approx(0.9460830704, abs=1e-9)


def test_si_large_argument_asymptote():
    assert sin_integral(1e6) == pytest.approx(math.pi / 2, abs=1e-5)


def test_ci_at_one_matches_series_oracle():
    assert cos_integral(1.0) == pytest.approx(ci_series_oracle(1.0), abs=1e-12)
    assert cos_integral(1.0) == pytest.approx(0.3374039229, abs=1e-9)


def test_ci_small_argument_limit():
    x = 1e-6
    assert cos_integral(x) == pytest.approx(EULER_GAMMA + math.log(x), abs=1e-10)


def test_ci_large_argument_decays():
    assert abs(cos_integral(1e6)) < 1e-5


def test_ci_domain_errors():
    # scipy's sici returns 0.0 at +inf, so the wrapper must reject it itself
    for x in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            cos_integral(x)
        with pytest.raises(ValueError):
            cos_integral(np.array([1.0, x, 2.0]))


def test_si_rejects_non_finite():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            sin_integral(x)
        with pytest.raises(ValueError):
            sin_integral(np.array([1.0, x, 2.0]))


@given(st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False))
def test_si_is_odd(x):
    assert sin_integral(-x) == pytest.approx(-sin_integral(x), abs=1e-13)


@pytest.mark.parametrize("x", np.geomspace(0.1, 100.0, 25).tolist())
def test_derivative_identities(x):
    h = 1e-5
    dsi = (sin_integral(x + h) - sin_integral(x - h)) / (2 * h)
    dci = (cos_integral(x + h) - cos_integral(x - h)) / (2 * h)
    assert dsi == pytest.approx(math.sin(x) / x, abs=1e-6)
    assert dci == pytest.approx(math.cos(x) / x, abs=1e-6)


def _integral(f, a: float, b: float, **weight) -> float:
    return quad(f, a, b, epsabs=1e-13, epsrel=0.0, limit=200, **weight)[0]


def si_quadrature_oracle(x: float) -> float:
    """Si(x) = int_0^x sin t / t dt; beyond t = 1 as 1/t against a sine weight."""
    head = _integral(lambda t: np.sinc(t / np.pi), 0.0, min(x, 1.0))
    if x <= 1.0:
        return head
    return head + _integral(lambda t: 1.0 / t, 1.0, x, weight="sin", wvar=1.0)


def ci_quadrature_oracle(x: float) -> float:
    """Ci(x) = gamma + ln x + int_0^x (cos t - 1) / t dt.

    cos t - 1 is taken as -2 sin^2(t/2) to avoid cancellation.  For x > 1
    the ln x cancels against int_1^x dt / t, leaving
    gamma + int_0^1 (cos t - 1) / t dt + int_1^x cos t / t dt.
    """
    head = _integral(lambda t: -2.0 * math.sin(0.5 * t) ** 2 / t, 0.0, min(x, 1.0))
    if x <= 1.0:
        return np.euler_gamma + math.log(x) + head
    return np.euler_gamma + head + _integral(lambda t: 1.0 / t, 1.0, x, weight="cos", wvar=1.0)


@pytest.mark.parametrize("x", np.geomspace(0.01, 1000.0, 40).tolist())
def test_against_scipy(x):
    """The sici wrappers against scipy.integrate.quad of the defining integrals."""
    assert sin_integral(x) == pytest.approx(si_quadrature_oracle(x), abs=1e-12)
    assert cos_integral(x) == pytest.approx(ci_quadrature_oracle(x), abs=1e-12)


def alpha_exact_oracle(k: int, l: int) -> float:
    """Exact-rational evaluation of the series coefficient for small k."""
    double_fact = 1
    for factor in range(2 * l + 3, 0, -2):
        double_fact *= factor
    even_prod = 1
    factor = 2 * k + 4
    while factor >= 2 * k - 2 * l + 2:
        even_prod *= factor
        factor -= 2
    rational = Fraction(
        math.comb(2 * k, 2 * l)
        * math.comb(2 * l, l)
        * math.comb(2 * (k - l), k - l)
        * double_fact,
        math.factorial(2 * k) * even_prod,
    )
    return (
        (-1) ** k
        * float(rational)
        * math.pi ** (2 * k + 2)
        * DIPOLE_DIRECTIVITY
        / (2 * math.pi)
    )


def test_alpha_zero_zero():
    sign, log_mag = log_alpha_magnitude(0, 0)
    assert sign == 1
    assert math.exp(log_mag) == pytest.approx(DIPOLE_DIRECTIVITY * 3 * math.pi / 16, rel=1e-13)


def test_alpha_sign_alternates_with_k():
    assert log_alpha_magnitude(1, 0)[0] == -1
    assert log_alpha_magnitude(2, 1)[0] == 1
    assert log_alpha_magnitude(3, 3)[0] == -1


@pytest.mark.parametrize("k", range(9))
def test_alpha_round_trips_exact_rational(k):
    for l in range(k + 1):
        want = alpha_exact_oracle(k, l)
        assert alpha_coefficient(k, l) == pytest.approx(want, rel=1e-12)


def test_alpha_domain_error():
    with pytest.raises(ValueError):
        log_alpha_magnitude(2, 3)


def test_alpha_stays_finite_at_large_k():
    sign, log_mag = log_alpha_magnitude(60, 30)
    assert sign == 1
    assert math.isfinite(log_mag)
