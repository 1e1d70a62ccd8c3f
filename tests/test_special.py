"""Sine/cosine integrals, J0 and the series coefficients against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import j0, sici

from holoest.correlation import _SERIES_MAX_K as SERIES_MAX_K
from holoest.special import (
    DIPOLE_DIRECTIVITY,
    EULER_GAMMA,
    alpha_coefficient,
    bessel_j0,
    cos_integral,
    log_alpha_magnitude,
    sin_integral,
)

# Largest Si/Ci argument of the impedance closed forms inside the 100-wavelength
# separation gate: the collinear 2k(h + L) with h = 100 and L = 0.5.
_CLOSED_FORM_MAX = 4.0 * math.pi * 100.5
# Largest J0 argument of the isotropic Bessel rule, 2 pi dy cos(theta), there.
_BESSEL_RULE_MAX = 2.0 * math.pi * 100.0


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
    # Ci(+inf) = 0 only as a limit, and Ci is complex for x < 0; all are rejected
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
    """Si and Ci against scipy.integrate.quad of the defining integrals."""
    assert sin_integral(x) == pytest.approx(si_quadrature_oracle(x), abs=1e-12)
    assert cos_integral(x) == pytest.approx(ci_quadrature_oracle(x), abs=1e-12)


def test_sici_matches_scipy_on_a_dense_grid():
    # from the smallest argument the closed forms take (~1.4e-5) to the largest
    x = np.concatenate(
        (np.geomspace(1e-5, 4.0, 100_001), np.linspace(4.0, _CLOSED_FORM_MAX, 400_001))
    )
    si, ci = sici(x)
    assert np.abs(sin_integral(x) - si).max() <= 2e-15
    assert np.abs(sin_integral(-x) + si).max() <= 2e-15
    assert np.abs(cos_integral(x) - ci).max() <= 2e-15


def test_j0_matches_scipy_on_a_dense_grid():
    # scipy reduces the Hankel phase as x - pi/4, which rounds by up to half an
    # ulp of x: ~1.8e-15 in J0 near 2 pi 100, so most of this bound is scipy's
    x = np.linspace(0.0, _BESSEL_RULE_MAX, 600_001)
    assert np.abs(bessel_j0(x) - j0(x)).max() <= 2e-15
    assert np.array_equal(bessel_j0(-x), bessel_j0(x))


@pytest.mark.parametrize(
    "x",
    [0.0, 1e-3, 1.0, 2.0, 2.5, 7.0, 19.9, 20.1, 33.3]
    + np.linspace(40.0, _BESSEL_RULE_MAX, 12).tolist(),
)
def test_j0_against_quadrature(x):
    """J0(x) = (1/pi) int_0^pi cos(x sin t) dt (DLMF 10.9.1) by scipy.integrate.quad."""
    want = _integral(lambda t: math.cos(x * math.sin(t)), 0.0, math.pi) / math.pi
    assert bessel_j0(x) == pytest.approx(want, abs=1e-13)


def test_j0_domain_errors():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            bessel_j0(x)
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, x, 2.0]))


@pytest.mark.parametrize("f", [sin_integral, cos_integral, bessel_j0])
def test_value_does_not_depend_on_the_rest_of_the_call(f):
    # term counts are fixed per method and continued-fraction depths per
    # argument, so a grid evaluation reproduces the scalar calls exactly
    x = np.geomspace(1e-4, 1e4, 97)
    values = f(x)
    assert np.array_equal(values, [f(v) for v in x])
    assert np.array_equal(values[40:60], f(x[40:60]))
    assert f(x.reshape(1, 97, 1)).shape == (1, 97, 1)
    assert np.ndim(f(x[0])) == 0


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


def alpha_lgamma_reference(k: int, l: int) -> float:
    """The series coefficient assembled from direct math.lgamma calls, in the
    order the library sums them."""
    lg = math.lgamma

    def log_binomial(n: int, r: int) -> float:
        return lg(n + 1) - lg(r + 1) - lg(n - r + 1)

    log_dfact = lg(2 * l + 4) - (l + 1) * math.log(2.0) - lg(l + 2)
    log_even_prod = (l + 2) * math.log(2.0) + lg(k + 3) - lg(k - l + 1)
    log_mag = (
        -lg(2 * k + 1)
        + log_binomial(2 * k, 2 * l)
        + log_binomial(2 * l, l)
        + log_binomial(2 * (k - l), k - l)
        + (2 * k + 2) * math.log(math.pi)
        + math.log(DIPOLE_DIRECTIVITY / (2.0 * math.pi))
        + log_dfact
        - log_even_prod
    )
    return (-1 if k % 2 else 1) * math.exp(log_mag)


def test_alpha_is_the_direct_lgamma_assembly_bitwise():
    # the cached log-gamma table changes no float and no order of summation
    for k in range(SERIES_MAX_K + 1):
        for l in range(k + 1):
            assert alpha_coefficient(k, l) == alpha_lgamma_reference(k, l), (k, l)


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
