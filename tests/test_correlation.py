"""Correlation construction: series vs quadrature oracle, clusters, clamping."""

import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import integrate, special

from holoest import correlation
from holoest.correlation import (
    SERIES_RADIUS,
    AngularCluster,
    ClusterScenario,
    QuadratureError,
    QuadratureOptions,
    cluster_matrix,
    cluster_scattering,
    iso_entry,
    iso_matrix,
    isotropic_scattering,
    psd_clamp,
    quadrature_entry,
)
from holoest.experiments import default_cluster_scenario
from holoest.geometry import (
    UpaGeometry,
    element_positions,
    unsigned_offsets,
)
from holoest.linalg import principal_subspace, subspace_contained

ZERO_SEP = 1.67 * 3 * math.pi / 16
EPS = np.finfo(float).eps


class TestIsoEntry:
    def test_zero_separation_single_term(self):
        assert iso_entry(0.0, 0.0) == pytest.approx(ZERO_SEP, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        series = iso_entry(0.2, 0.0)
        oracle = quadrature_entry(isotropic_scattering, (0.0, 0.2, 0.0))
        assert series == pytest.approx(oracle.real, abs=1e-8)

    @pytest.mark.parametrize("dy,dz", [(0.3, 0.1), (0.0, 0.45), (0.8, 0.6)])
    def test_even_in_both_separations(self, dy, dz):
        base = iso_entry(dy, dz)
        assert iso_entry(-dy, dz) == base
        assert iso_entry(dy, -dz) == base

    def test_beyond_radius_falls_through_to_quadrature(self):
        value = iso_entry(1.8, 1.8)
        oracle = quadrature_entry(isotropic_scattering, (0.0, 1.8, 1.8))
        assert value == pytest.approx(oracle.real, abs=1e-8)


class TestBesselRule:
    """The 1-D Bessel rule that computes isotropic entries beyond SERIES_RADIUS."""

    def test_every_beyond_radius_offset_matches_quadrature(self):
        geom = UpaGeometry(m_y=4, m_z=4, d_y=0.6, d_z=0.6)
        r = iso_matrix(geom)
        pos = element_positions(geom)
        signs = ((1, 1), (-1, 1), (1, -1), (-1, -1))
        checked = 0
        for a in range(geom.m_y):
            for b in range(geom.m_z):
                if math.hypot(a * geom.d_y, b * geom.d_z) <= SERIES_RADIUS:
                    continue
                sy, sz = signs[checked % len(signs)]
                delta = np.array([0.0, sy * a * geom.d_y, sz * b * geom.d_z])
                n, j = next(
                    (n, j)
                    for n in range(geom.size)
                    for j in range(geom.size)
                    if np.allclose(pos[n] - pos[j], delta)
                )
                oracle = quadrature_entry(isotropic_scattering, delta).real
                assert r.entries[n, j] == pytest.approx(oracle, abs=1e-8)
                assert iso_entry(delta[1], delta[2]) == pytest.approx(oracle, abs=1e-8)
                checked += 1
        assert checked == r.meta["quadrature_fallback_pairs"] == 8

    @pytest.mark.parametrize(
        "dy,dz", [(1.5, 0.0), (0.0, 1.5), (1.06, 1.06), (1.2, 0.89), (0.4, 1.44)]
    )
    def test_agrees_with_series_just_inside_radius(self, dy, dz):
        separation = math.hypot(dy, dz)
        assert separation <= SERIES_RADIUS
        order = correlation._gl_order(
            2.0 * math.pi * separation,
            math.pi,
            correlation._BESSEL_FLOOR,
            correlation._BESSEL_SLACK,
        )
        rule = correlation._iso_bessel(dy, dz, int(order))
        assert rule == pytest.approx(iso_entry(dy, dz), abs=1e-10)

    def test_order_grows_with_separation(self):
        # r ~ 19.8 wavelengths: a fixed order that suffices near the series
        # radius is off by ~1e-3 here
        oracle = quadrature_entry(isotropic_scattering, (0.0, 14.0, 14.0)).real
        assert iso_entry(14.0, 14.0) == pytest.approx(oracle, abs=1e-8)

    def test_doubled_order_gate_raises(self, monkeypatch):
        rule = correlation._gl_order
        monkeypatch.setattr(correlation, "_gl_order", lambda *args: np.minimum(rule(*args), 8))
        geom = UpaGeometry(m_y=4, m_z=4, d_y=0.6, d_z=0.6)
        with pytest.raises(QuadratureError) as err:
            iso_matrix(geom)
        assert err.value.estimate > 1e-8
        # the message names the offset of the worst entry, one on the lattice
        match = re.fullmatch(
            r"isotropic Bessel-rule error estimate (\S+) at offset \((\S+), (\S+)\) "
            r"exceeds 1\.000e-08",
            str(err.value),
        )
        assert match and float(match[1]) == pytest.approx(err.value.estimate, rel=1e-3)
        dy, dz = unsigned_offsets(geom)
        assert (float(match[2]), float(match[3])) in set(zip(dy.ravel(), dz.ravel()))

    def test_nan_estimate_fails_the_gate(self, monkeypatch):
        # |NaN - NaN| is NaN, which must not pass as a small error estimate
        monkeypatch.setattr(
            correlation, "_iso_bessel", lambda dy, dz, order: np.full(np.shape(dy), np.nan)
        )
        with pytest.raises(
            QuadratureError,
            match=r"^isotropic Bessel-rule error estimate nan at offset \(3\.0, 0\.0\) ",
        ) as err:
            iso_entry([0.2, 3.0], 0.0)
        assert math.isnan(err.value.estimate)

    def test_a_call_builds_one_rule_and_its_double(self):
        # offsets on 2-20 wavelengths would each take one of 95 orders (and
        # its double); one rule sized at the largest, and its double, serve
        # them all, and a second call finds both cached
        dy = np.linspace(2.0, 20.0, 200)
        correlation._leggauss.cache_clear()
        first = iso_entry(dy, 0.0)
        assert correlation._leggauss.cache_info().misses == 2
        second = iso_entry(dy, 0.0)
        assert correlation._leggauss.cache_info().misses == 2
        assert np.array_equal(first, second)

    def test_no_offsets_give_an_empty_array(self):
        assert iso_entry([], []).shape == (0,)


LEGENDRE_ORDERS = [*range(1, 41), 96, 192, 616, correlation._MAX_ORDER]

# Edge weights (nearest -1, then the next) to 40 digits, from Newton's
# iteration at 50 digits (80 give the same), with n the order and k = 1, 2:
#   python -c "import mpmath as mp; mp.mp.dps = 50; n, k = 192, 1
#   def p(x):  # P_n(x), P_n'(x) by the three-term recurrence
#       a, b = mp.mpf(1), x
#       for j in range(1, n): a, b = b, ((2 * j + 1) * x * b - j * a) / (j + 1)
#       return b, n * (a - x * b) / (1 - x * x)
#   x = mp.cos(mp.pi * (4 * k - 1) / (4 * n + 2))
#   for _ in range(20): x -= p(x)[0] / p(x)[1]
#   print(mp.nstr(2 / ((1 - x * x) * p(x)[1] ** 2), 40))"
EDGE_WEIGHTS = {
    96: (
        "0.0007967920655520124294381434969435687599311",
        "0.001853960788946921732335925350893910588208",
    ),
    192: (
        "0.000200251014747126730371231245025590926071",
        "0.0004660944855912469603944432543932118921639",
    ),
    1386: (
        "0.000003860188226892685275286185010542665732517",
        "0.000008985764174554995860593469076108673368641",
    ),
}


class TestLegendreRule:
    """``_leggauss``, Newton's iteration on the three-term recurrence."""

    @pytest.mark.parametrize("order", LEGENDRE_ORDERS)
    def test_nodes_match_numpy(self, order):
        # numpy's rule, from the companion eigenvalues and one Newton step, is
        # accurate to about an ulp of 1
        nodes, _ = correlation._leggauss(order)
        reference, _ = np.polynomial.legendre.leggauss(order)
        assert np.abs(nodes - reference).max() <= 2 * EPS

    @pytest.mark.parametrize("order", LEGENDRE_ORDERS)
    def test_symmetric_positive_and_sums_to_two(self, order):
        nodes, weights = correlation._leggauss(order)
        assert nodes.shape == weights.shape == (order,)
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        if order % 2:
            middle = nodes[order // 2]
            assert middle == 0.0 and not np.signbit(middle)
        # n additions of weights that each carry the recurrence's n roundings
        assert abs(np.sum(weights) - 2.0) <= 2 * order * EPS * 2.0

    @pytest.mark.parametrize("order", LEGENDRE_ORDERS)
    def test_exact_on_polynomials_below_twice_the_order(self, order):
        # relative to sum |w x^k|: the sum rounds n times, the weights carry
        # the recurrence's n roundings, and x^k with k < 2n turns a node's
        # last-place error into up to 2n of the power's
        nodes, weights = correlation._leggauss(order)
        for k in range(2 * order):
            terms = weights * nodes**k
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            bound = 4 * order * EPS * np.sum(np.abs(terms))
            assert abs(np.sum(terms) - exact) <= bound, k

    @pytest.mark.parametrize("order", sorted(EDGE_WEIGHTS))
    def test_edge_weights_match_40_digit_values(self, order):
        # w = 2 / ((1 - x^2) P_n'(x)^2) has d log w / dx = -2x / (1 - x^2) at
        # a root, so a node within 2 ulps moves its weight by 4 |x| ulp(x) /
        # ((1 - x)(1 + x)) relative; the recurrence adds n roundings
        nodes, weights = correlation._leggauss(order)
        for i, text in enumerate(EDGE_WEIGHTS[order]):
            x = abs(nodes[i])
            bound = 4 * x * np.spacing(x) / ((1 - x) * (1 + x)) + order * EPS
            assert abs(weights[i] / float(text) - 1.0) <= bound, i


class TestQuadratureEntry:
    def test_zero_offset_gives_total_power(self):
        value = quadrature_entry(isotropic_scattering, (0.0, 0.0, 0.0))
        assert value.real == pytest.approx(ZERO_SEP, abs=1e-9)
        assert abs(value.imag) < 1e-12

    def test_imaginary_part_vanishes_for_symmetric_density(self):
        for delta in [(0.0, 0.4, 0.0), (0.0, 0.2, 0.6), (0.0, 1.0, 1.0)]:
            value = quadrature_entry(isotropic_scattering, delta)
            assert abs(value.imag) < 1e-10

    def test_flat_density_total_power(self):
        value = quadrature_entry(lambda az, el: 1.0 / math.pi**2, (0.0, 0.0, 0.0))
        assert value.real == pytest.approx(1.0, abs=1e-9)

    def test_stacked_call_matches_one_at_a_time(self):
        # the stack shares one adaptive refinement, so agreement is to the
        # error target, not bitwise
        offsets = [(0.0, 0.0, 0.0), (0.0, 0.4, 0.0), (0.0, 0.2, 0.6), (0.3, 1.0, 1.2)]
        stacked = quadrature_entry(isotropic_scattering, offsets)
        assert isinstance(stacked, np.ndarray)
        assert stacked.shape == (4,) and stacked.dtype == complex
        for delta, value in zip(offsets, stacked):
            single = quadrature_entry(isotropic_scattering, delta)
            assert type(single) is complex
            assert abs(value - single) < QuadratureOptions().abs_tol
        one_row = quadrature_entry(isotropic_scattering, np.zeros((1, 3)))
        assert one_row.shape == (1,)

    def test_rejects_offsets_of_wrong_shape(self):
        for delta in [(0.0, 0.2), np.zeros((2, 2)), np.zeros((1, 1, 3))]:
            with pytest.raises(ValueError):
                quadrature_entry(isotropic_scattering, delta)

    def test_rejects_an_empty_stack_naming_its_shape(self):
        with pytest.raises(ValueError, match=r"got \(0, 3\)"):
            quadrature_entry(isotropic_scattering, np.empty((0, 3)))

    def test_breakpoints_leave_smooth_integral_unchanged(self):
        offsets = [(0.0, 0.0, 0.0), (0.0, 0.7, 0.3)]
        plain = quadrature_entry(isotropic_scattering, offsets)
        split = quadrature_entry(
            isotropic_scattering,
            offsets,
            QuadratureOptions(azimuth_points=(0.3, -1.0, 2.0), elevation_points=(0.1,)),
        )
        assert np.abs(split - plain).max() < 1e-9

    def test_nan_density_raises(self):
        def broken(az, el):
            return np.where(az > 0.5, np.nan, 1.0)

        with pytest.raises(QuadratureError):
            quadrature_entry(broken, [(0.0, 0.0, 0.0), (0.0, 0.3, 0.0)])

    def test_non_convergent_raises(self):
        def hostile(az, el):
            return 1.0 + np.cos(5e5 * az) * np.cos(5e5 * el)

        with pytest.raises(QuadratureError) as err:
            quadrature_entry(hostile, (0.0, 0.0, 0.0), QuadratureOptions(limit=10))
        assert err.value.estimate > 1e-8
        # the bound is ten times abs_tol, and the message names the offset
        match = re.fullmatch(
            r"quadrature error estimate (\S+) at offset \(0\.0, 0\.0, 0\.0\) "
            r"exceeds 1\.000e-08",
            str(err.value),
        )
        assert match and float(match[1]) == pytest.approx(err.value.estimate, rel=1e-3)


def scipy_cubature_entries(f, offsets, opts, az_edges, el_edges):
    """``quadrature_entry`` by scipy.integrate.cubature (tensor GK21), the
    reference its numpy cubature follows; returns entries and subdivisions."""
    wave = 2.0 * math.pi * np.atleast_2d(offsets)

    def integrand(nodes):
        az, el = nodes[:, 0], nodes[:, 1]
        unit = np.column_stack(
            (np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el))
        )
        phase = unit @ wave.T
        density = np.asarray(f(az, el), dtype=float)[..., None]
        return np.concatenate((density * np.cos(phase), density * np.sin(phase)), axis=1)

    atol = opts.abs_tol / ((len(az_edges) - 1) * (len(el_edges) - 1))
    value, subdivisions = 0.0, 0
    for az_lo, az_hi in zip(az_edges[:-1], az_edges[1:]):
        for el_lo, el_hi in zip(el_edges[:-1], el_edges[1:]):
            result = integrate.cubature(
                integrand,
                [az_lo, el_lo],
                [az_hi, el_hi],
                rule="gk21",
                atol=atol,
                rtol=1e-10,
                max_subdivisions=opts.limit,
            )
            value = value + result.estimate
            subdivisions += result.subdivisions
    re, im = np.split(value, 2)
    return re + 1j * im, subdivisions


def oracle_case(name: str):
    """Density, offsets, options and breakpoint edges of a named oracle case."""
    full = (-math.pi / 2, math.pi / 2)
    if name == "validate_offsets":  # validate's series_vs_quadrature stack
        dy, dz = unsigned_offsets(UpaGeometry(m_y=10, m_z=10, d_y=0.2, d_z=0.2))
        inside = np.hypot(dy, dz) <= SERIES_RADIUS
        offsets = np.stack((np.zeros(inside.sum()), dy[inside], dz[inside]), axis=-1)
        return isotropic_scattering, offsets, QuadratureOptions(), full, full
    if name == "offset_0_14_14":
        offsets = np.array([(0.0, 14.0, 14.0)])
        return isotropic_scattering, offsets, QuadratureOptions(), full, full
    # test_entries_match_quadrature_oracle's offsets, as one stack
    cluster = narrow_cluster()
    offsets = []
    for geom, pairs in (
        (UpaGeometry(m_y=2, m_z=2, d_y=0.25, d_z=0.25), ((0, 1), (0, 3), (2, 1))),
        (
            UpaGeometry(m_y=2, m_z=3, d_y=0.25, d_z=0.4),
            ((0, 1), (0, 3), (2, 1), (5, 0), (1, 5)),
        ),
    ):
        pos = element_positions(geom)
        offsets += [pos[n] - pos[j] for n, j in pairs]
    opts = QuadratureOptions(
        abs_tol=1e-10,
        azimuth_points=(cluster.azimuth,),
        elevation_points=(cluster.elevation,),
    )
    density = partial(_total_scattering, ClusterScenario.create([cluster]))
    az_edges = (full[0], cluster.azimuth, full[1])
    el_edges = (full[0], cluster.elevation, full[1])
    return density, np.array(offsets), opts, az_edges, el_edges


class TestGaussKronrodCubature:
    def test_rule_is_exact_on_polynomials(self):
        # Kronrod-21 is exact to degree 31 and its Gauss-10 subset to degree 19
        nodes, (kronrod, gauss) = correlation._gk21_rule()
        assert np.count_nonzero(gauss) == 10
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(kronrod @ nodes**k - exact) < 1e-15
            if k <= 19:
                assert abs(gauss @ nodes**k - exact) < 1e-15

    @pytest.mark.parametrize(
        "name", ["validate_offsets", "offset_0_14_14", "narrow_cluster_breakpoints"]
    )
    def test_matches_scipy_cubature(self, name):
        f, offsets, opts, az_edges, el_edges = oracle_case(name)
        calls = []

        def counted(az, el):
            calls.append(az.size)
            return f(az, el)

        entries = quadrature_entry(counted, offsets, opts)
        reference, subdivisions = scipy_cubature_entries(
            f, offsets, opts, az_edges, el_edges
        )
        assert np.abs(entries - reference).max() < 1e-14
        # the same refinement: one integrand call per breakpoint sub-rectangle,
        # then one per subdivision (its four children)
        rectangles = (len(az_edges) - 1) * (len(el_edges) - 1)
        assert len(calls) - rectangles == subdivisions


class TestIsoMatrix:
    def test_single_element(self):
        geom = UpaGeometry(m_y=1, m_z=1, d_y=0.2, d_z=0.2)
        r = iso_matrix(geom)
        assert r.entries.shape == (1, 1)
        assert r.entries[0, 0] == pytest.approx(ZERO_SEP, abs=1e-12)

    def test_real_symmetric_psd(self, r_iso_4x4):
        assert np.isrealobj(r_iso_4x4.entries)
        assert np.allclose(r_iso_4x4.entries, r_iso_4x4.entries.T)
        assert r_iso_4x4.eig.values[-1] >= 0

    def test_block_toeplitz_structure(self, geom_4x4, r_iso_4x4):
        m = np.arange(geom_4x4.size)
        ry, rz = m // geom_4x4.m_z, m % geom_4x4.m_z
        seen = {}
        for n in range(geom_4x4.size):
            for j in range(geom_4x4.size):
                key = (abs(ry[n] - ry[j]), abs(rz[n] - rz[j]))
                if key in seen:
                    assert r_iso_4x4.entries[n, j] == pytest.approx(seen[key], abs=1e-14)
                else:
                    seen[key] = r_iso_4x4.entries[n, j]

    def test_series_matches_quadrature_everywhere(self, geom_4x4, r_iso_4x4):
        pos = element_positions(geom_4x4)
        worst = 0.0
        for n in range(geom_4x4.size):
            dr = pos[n] - pos[0]
            oracle = quadrature_entry(isotropic_scattering, dr).real
            worst = max(worst, abs(r_iso_4x4.entries[n, 0] - oracle))
        assert worst < 1e-6

    def test_dense_array_is_rank_deficient(self, r_iso_10x10):
        assert r_iso_10x10.numerical_rank() < r_iso_10x10.size

    def test_default_array_fallback_count(self, r_iso_10x10):
        # 48 of the 100 unsigned offsets of the 10x10 default lie beyond
        # SERIES_RADIUS; perfbench's correlation.iso_fallback_pairs reads this
        assert r_iso_10x10.meta["quadrature_fallback_pairs"] == 48


class TestPsdClamp:
    def test_identity_unchanged(self):
        out = psd_clamp(np.eye(3))
        assert np.allclose(out.entries, np.eye(3))

    def test_tiny_negative_clamped(self):
        out = psd_clamp(np.diag([1.0, -1e-14]))
        assert np.allclose(out.entries, np.diag([1.0, 0.0]))
        assert out.eig.values[-1] == 0.0

    def test_perturbed_psd_recovers(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        base = a @ a.T
        noisy = base + 1e-13 * rng.standard_normal((6, 6))
        out = psd_clamp(0.5 * (noisy + noisy.T))
        assert out.eig.values[-1] >= 0
        assert np.abs(out.entries - base).max() < 1e-10 * out.eig.values[0]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_clamp(np.array([[0.0, 1.0], [0.5, 0.0]]))



def _total_scattering(scenario: ClusterScenario, azimuth, elevation):
    """Summed scattering density of every cluster at actual angles."""
    return sum(
        cluster_scattering(scenario, n, azimuth - c.azimuth, elevation - c.elevation)
        for n, c in enumerate(scenario.clusters)
    )


def recurrence_table(
    scenario: ClusterScenario, n: int, geometry: UpaGeometry, refinement: int
) -> np.ndarray:
    """``_cluster_offset_table`` with the azimuth sum by its power recurrence:
    on the full u x v node grid, exp(j 2 pi d_y sin u cos v) is raised to each
    y-step by repeated multiplication, with no interpolation."""
    ny, nz = geometry.m_y, geometry.m_z
    scale = scenario.cluster_scale(n)
    if scale == 0.0:
        return np.zeros((ny, 2 * nz - 1), dtype=complex)
    separation = math.hypot((ny - 1) * geometry.d_y, (nz - 1) * geometry.d_z)
    u, wu, v, wv = correlation._cluster_axis_data(scenario.clusters[n], separation, refinement)
    step = np.exp(2j * math.pi * geometry.d_y * np.sin(u)[:, None] * np.cos(v)[None, :])
    power = np.ones_like(step)
    azimuth_sums = np.empty((ny, v.size), dtype=complex)
    for a in range(ny):
        azimuth_sums[a] = wu @ power
        power *= step
    steps_z = np.arange(1 - nz, nz)
    elevation_phase = np.exp(
        2j * math.pi * geometry.d_z * np.sin(v)[:, None] * steps_z[None, :]
    )
    return scale * ((azimuth_sums * wv) @ elevation_phase)


def interpolation_rounding(terms: int, degree: int, phase: float) -> float:
    """Bound, relative to sum |w|, on the roundoff of one interpolated azimuth
    sum of ``terms`` nodes at ``degree``, whose phases alpha x are at most
    ``phase`` in size.

    alpha, its centre, the demodulated beta and the sample points x_k take up
    to 11 roundings relative to phase between them (the points' own through
    the slope |G'| <= s sum |w|), exp 2 and the sum of ``terms`` products
    ``terms``: each sample errs by (11 phase + 2 + terms) eps sum |w|.  The
    interpolant passes that on times the Lebesgue constant, at most
    (2/pi) log(K + 1) + 1 for Chebyshev points (Trefethen, ATAP, ch. 15),
    and the barycentric formula itself adds at most (6K + 6) eps times the
    Lebesgue constant and sum |w| (Higham, IMA J. Numer. Anal. 24, 2004).
    The target a cos v (2 roundings, through slopes s and c), the
    re-modulating phase c x (7), its exp (2) and the product (3) add
    11 phase + 5.
    """
    lebesgue = 2.0 / math.pi * math.log(degree + 1) + 1.0
    samples = 11.0 * phase + 2.0 + terms
    return EPS * (lebesgue * (samples + 6.0 * degree + 6.0) + 11.0 * phase + 5.0)


def table_tolerance(
    scenario: ClusterScenario, n: int, geometry: UpaGeometry, refinement: int
) -> float:
    """Bound on how far ``_cluster_offset_table`` strays from
    ``recurrence_table`` at any entry.

    Both tables are scale * sum_v w_v S[a, v] exp(j 2 pi b d_z sin v), on the
    same nodes and elevation phases, with S[a, v] = F(a cos v) and F(x) =
    sum_u w_u exp(j alpha_u x), alpha_u = 2 pi d_y sin u; the weights are
    positive, so |F| <= sum w_u, and every phase alpha x is at most P =
    2 pi d_y (My - 1).  The interpolated S is within _CHEBYSHEV_TOL plus
    ``interpolation_rounding`` of F, relative to sum w_u.  The recurrence's
    step phase takes 6 roundings relative to it, its exp 2 and each of the a
    products 3, and the sum over u n_u: (6 P + 5 (My - 1) + n_u) eps.  The
    elevation sums of n_v terms and the scale add (n_v + 2) eps on each side.
    All of it is relative to Z = scale sum w_u sum w_v.
    """
    ny = geometry.m_y
    separation = math.hypot((ny - 1) * geometry.d_y, (geometry.m_z - 1) * geometry.d_z)
    u, wu, v, wv = correlation._cluster_axis_data(scenario.clusters[n], separation, refinement)
    alpha = 2.0 * math.pi * geometry.d_y * np.sin(u)
    tau = 0.25 * (alpha.max() - alpha.min()) * (ny - 1) * np.cos(v).max()
    degree = correlation._chebyshev_degree(tau)
    phase = 2.0 * math.pi * geometry.d_y * (ny - 1)
    interpolated = correlation._CHEBYSHEV_TOL + interpolation_rounding(u.size, degree, phase)
    recurrence = EPS * (6.0 * phase + 5.0 * (ny - 1) + u.size)
    elevation = 2.0 * EPS * (v.size + 2.0)
    z = scenario.cluster_scale(n) * np.sum(wu) * np.sum(wv)
    return z * (interpolated + recurrence + elevation)


def narrow_cluster(sigma_deg: float = 2.0, power: float = 1.0) -> AngularCluster:
    return AngularCluster(
        power=power,
        azimuth=0.3,
        elevation=-0.2,
        sigma_phi=math.radians(sigma_deg),
        sigma_theta=math.radians(sigma_deg),
    )


class TestClusterScenario:
    def test_powers_normalized(self):
        scenario = ClusterScenario.create(
            [narrow_cluster(power=3.0), narrow_cluster(power=1.0)]
        )
        assert sum(c.power for c in scenario.clusters) == pytest.approx(1.0, abs=1e-12)

    def test_serialization_roundtrip(self):
        scenario = ClusterScenario.create([narrow_cluster(), narrow_cluster(power=0.5)])
        # from_dict recomputes the normalization from the clusters, so a stale
        # normalization_log, which older scenario files carry, is ignored
        assert list(scenario.to_dict()) == ["clusters"]
        stale = {**scenario.to_dict(), "normalization_log": 123.0}
        for data in (scenario.to_dict(), stale):
            clone = ClusterScenario.from_dict(data)
            assert clone.log_normalization == pytest.approx(
                scenario.log_normalization, rel=1e-12
            )
            assert clone.clusters == scenario.clusters

    def test_rejects_empty_or_zero_power(self):
        with pytest.raises(ValueError):
            ClusterScenario.create([])
        with pytest.raises(ValueError):
            ClusterScenario.create([narrow_cluster(power=0.0)])

    def test_normalization_integral_is_one(self):
        scenario = ClusterScenario.create([narrow_cluster()])
        c = scenario.clusters[0]

        def density(el, az):
            return cluster_scattering(scenario, 0, az - c.azimuth, el - c.elevation)

        window = 12 * c.sigma_phi
        total, err = integrate.dblquad(
            density,
            c.azimuth - window,
            c.azimuth + window,
            c.elevation - window,
            c.elevation + window,
            epsabs=1e-9,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestClusterScattering:
    def test_even_in_azimuth_deviation(self):
        scenario = ClusterScenario.create([narrow_cluster()])
        assert cluster_scattering(scenario, 0, 0.01, 0.005) == pytest.approx(
            cluster_scattering(scenario, 0, -0.01, 0.005), rel=1e-12
        )

    def test_vanishes_at_grazing_elevation(self):
        scenario = ClusterScenario.create([narrow_cluster()])
        eps = math.pi / 2 - scenario.clusters[0].elevation
        assert cluster_scattering(scenario, 0, 0.0, eps) == pytest.approx(0.0, abs=1e-30)

    def test_nonnegative_on_grid(self):
        scenario = ClusterScenario.create([narrow_cluster(), narrow_cluster(0.7, 0.4)])
        deltas = np.linspace(-1.5, 1.5, 11)
        for n in range(2):
            values = cluster_scattering(scenario, n, deltas, deltas[::-1])
            assert np.all(values >= 0)


class TestClusterMatrix:
    def test_point_source_limit_is_rank_one(self, geom_4x4):
        cluster = narrow_cluster(sigma_deg=0.05)
        scenario = ClusterScenario.create([cluster])
        r = cluster_matrix(geom_4x4, scenario)
        az, el = cluster.azimuth, cluster.elevation
        unit = np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
        a = np.exp(2j * np.pi * element_positions(geom_4x4) @ unit)
        top = r.eig.basis[:, 0]
        a_unit = a / np.linalg.norm(a)
        residual = np.linalg.norm(a_unit - top * np.vdot(top, a_unit))
        assert residual < 1e-3
        assert r.eig.values[1] / r.eig.values[0] < 1e-4

    def test_diagonal_entries_equal(self, geom_4x4):
        scenario = ClusterScenario.create([narrow_cluster(), narrow_cluster(3.0, 0.2)])
        r = cluster_matrix(geom_4x4, scenario)
        diag = np.diag(r.entries).real
        assert np.allclose(diag, diag[0], atol=1e-10)

    def test_trace_equals_size_times_total_power(self, geom_4x4):
        scenario = ClusterScenario.create([narrow_cluster(), narrow_cluster(2.5, 0.6)])
        r = cluster_matrix(geom_4x4, scenario)
        assert r.trace() == pytest.approx(geom_4x4.size, rel=1e-4)

    def test_entries_match_quadrature_oracle(self, geom_2x2):
        anisotropic_2x3 = UpaGeometry(m_y=2, m_z=3, d_y=0.25, d_z=0.4)
        # a 20-degree spread over offsets up to 12.7 wavelengths, where fixed
        # orders 16 and 32 missed the doubled-order gate (3.6e-6)
        wide_10x10 = UpaGeometry(m_y=10, m_z=10, d_y=1.0, d_z=1.0)
        for geom, cluster, pairs in (
            (geom_2x2, narrow_cluster(), ((0, 1), (0, 3), (2, 1))),
            (anisotropic_2x3, narrow_cluster(), ((0, 1), (0, 3), (2, 1), (5, 0), (1, 5))),
            (wide_10x10, narrow_cluster(20.0), ((0, 99), (55, 0), (9, 90), (0, 7))),
        ):
            scenario = ClusterScenario.create([cluster])
            opts = QuadratureOptions(
                abs_tol=1e-10,
                azimuth_points=(cluster.azimuth,),
                elevation_points=(cluster.elevation,),
            )

            def density(az, el):
                return _total_scattering(scenario, az, el)

            r = cluster_matrix(geom, scenario)
            pos = element_positions(geom)
            for n, j in pairs:
                oracle = quadrature_entry(density, pos[n] - pos[j], opts)
                assert r.entries[n, j] == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize(
        "geometry, clusters",
        [
            (
                UpaGeometry(m_y=3, m_z=5, d_y=0.3, d_z=0.45),
                (narrow_cluster(), narrow_cluster(3.0, 0.6)),
            ),
            (
                UpaGeometry(m_y=3, m_z=3, d_y=0.2, d_z=0.2),
                (
                    AngularCluster(
                        power=1.0,
                        azimuth=1.5,
                        elevation=-0.2,
                        sigma_phi=math.radians(2.0),
                        sigma_theta=math.radians(2.0),
                    ),
                ),
            ),
        ],
        ids=["3x5_two_clusters", "azimuth_image_window"],
    )
    def test_entries_match_product_grid(self, monkeypatch, geometry, clusters):
        # Oracle: the direct sum over the full (u, v) node grid of each cluster
        # at the refined order, at every pair's offset, against the entries
        # cluster_matrix hands to the clamp.
        scenario = ClusterScenario.create(clusters)
        captured = []
        original_clamp = correlation.psd_clamp

        def capture(entries, **kwargs):
            captured.append(entries.copy())
            return original_clamp(entries, **kwargs)

        monkeypatch.setattr(correlation, "psd_clamp", capture)
        cluster_matrix(geometry, scenario)
        (entries,) = captured

        pos = element_positions(geometry)
        offsets, pair_offset = np.unique(
            (pos[:, None, :] - pos[None, :, :]).reshape(-1, 3), axis=0, return_inverse=True
        )
        values = np.zeros(len(offsets), dtype=complex)
        separation = np.hypot(*np.abs(offsets[:, 1:]).T).max()
        for n, cluster in enumerate(scenario.clusters):
            u, wu, v, wv = correlation._cluster_axis_data(cluster, separation, 2)
            ky = np.outer(np.sin(u), np.cos(v))
            kz = np.broadcast_to(np.sin(v), ky.shape)
            weights = np.outer(wu, wv)
            for i, (_, dy, dz) in enumerate(offsets):
                phase = 2.0 * math.pi * (dy * ky + dz * kz)
                values[i] += scenario.cluster_scale(n) * np.sum(weights * np.exp(1j * phase))
        oracle = values[pair_offset.ravel()].reshape(entries.shape)
        scale = np.abs(oracle).max()
        assert np.abs(entries - oracle).max() <= 1e-13 * scale

    def test_azimuth_near_edge_has_image_window(self):
        # the image of a peak at 1.5 rad one period away reaches into the
        # domain, so the product-grid comparison above covers that branch
        kappa = 1.0 / (4.0 * math.radians(2.0) ** 2)
        windows = correlation._axis_windows(1.5, kappa, -math.pi / 2, math.pi / 2)
        assert [center for _, _, center in windows] == [1.5 - math.pi, 1.5]

    def test_doubled_order_gate_raises(self, monkeypatch, geom_4x4):
        scenario = default_cluster_scenario(1)
        rule = correlation._gl_order
        monkeypatch.setattr(correlation, "_gl_order", lambda *args: np.minimum(rule(*args), 4))
        with pytest.raises(QuadratureError) as err:
            cluster_matrix(geom_4x4, scenario)
        assert err.value.estimate > 1e-8
        # the message names the offset of the worst entry, one on the lattice
        match = re.fullmatch(
            r"cluster quadrature error estimate (\S+) at offset \((\S+), (\S+)\) "
            r"exceeds 1\.000e-08",
            str(err.value),
        )
        assert match and float(match[1]) == pytest.approx(err.value.estimate, rel=1e-3)
        offset = (float(match[2]), float(match[3]))
        assert offset in {
            (a * geom_4x4.d_y, b * geom_4x4.d_z)
            for a in range(geom_4x4.m_y)
            for b in range(1 - geom_4x4.m_z, geom_4x4.m_z)
        }

    def test_nan_in_doubled_pass_fails_the_gate(self, monkeypatch, geom_4x4):
        # without the gate a NaN table reaches the eigensolver, which fails
        # later and names no offset
        table = correlation._cluster_offset_table

        def broken(scenario, n, geometry, refinement):
            values = table(scenario, n, geometry, refinement)
            if refinement == 2:
                values[1, 0] = np.nan
            return values

        monkeypatch.setattr(correlation, "_cluster_offset_table", broken)
        offset = (geom_4x4.d_y, (1 - geom_4x4.m_z) * geom_4x4.d_z)
        with pytest.raises(
            QuadratureError,
            match=rf"^cluster quadrature error estimate nan at offset {re.escape(str(offset))} ",
        ):
            cluster_matrix(geom_4x4, default_cluster_scenario(1))

    @pytest.mark.parametrize(
        "geometry, scenario",
        [
            # largest separations 84.9 to 87.7 wavelengths with the seed-1
            # scenario, and a 20-degree spread at 12.7: each missed the gate
            # (1.8e-8 to 3.6e-6) when every panel had order 16 and 32; the
            # corner cluster is where the panel slack leaves the least margin
            (UpaGeometry(m_y=2, m_z=2, d_y=60.0, d_z=60.0), default_cluster_scenario(1)),
            (UpaGeometry(m_y=4, m_z=4, d_y=20.0, d_z=20.0), default_cluster_scenario(1)),
            (UpaGeometry(m_y=16, m_z=16, d_y=4.0, d_z=4.0), default_cluster_scenario(1)),
            (UpaGeometry(m_y=32, m_z=32, d_y=2.0, d_z=2.0), default_cluster_scenario(1)),
            (
                UpaGeometry(m_y=10, m_z=10, d_y=1.0, d_z=1.0),
                ClusterScenario.create([narrow_cluster(20.0)]),
            ),
            (
                UpaGeometry(m_y=10, m_z=10, d_y=0.5, d_z=0.5),
                ClusterScenario.create(
                    [replace(narrow_cluster(20.0), azimuth=-1.5, elevation=-1.45)]
                ),
            ),
        ],
        ids=["2x2_60", "4x4_20", "16x16_4", "32x32_2", "10x10_1_20deg", "corner_20deg"],
    )
    def test_orders_grow_with_separation(self, geometry, scenario):
        # within a hundredth of the 1e-8 gate, the margin the slack is set for
        r = cluster_matrix(geometry, scenario)
        assert r.meta["quad_error_estimate"] <= 1e-10

    def test_cluster_rank_below_iso_rank(self, r_clu_10x10, r_iso_10x10):
        assert r_clu_10x10.numerical_rank() < r_iso_10x10.numerical_rank()

    def test_energy_contained_in_iso_column_space(self, r_clu_10x10, r_iso_10x10):
        # Energy-weighted containment: the cluster channel's power outside the
        # isotropic numerical support is negligible even though the weakest
        # retained cluster eigenvectors individually leak (see the strict
        # acceptance check, which documents that leakage).
        basis = principal_subspace(r_iso_10x10)
        outside = r_clu_10x10.entries - basis @ (basis.conj().T @ r_clu_10x10.entries)
        leak = float(np.trace(outside @ outside.conj().T).real)
        assert leak / r_clu_10x10.trace() ** 2 < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "exact-arithmetic containment does not survive finite precision: "
            "the weakest retained cluster modes need isotropic modes below "
            "the eigenvalue clamp, leaving a ~1e-2 basis residual"
        ),
    )
    def test_strict_subspace_containment(self, r_clu_10x10, r_iso_10x10):
        residual = subspace_contained(
            principal_subspace(r_clu_10x10), principal_subspace(r_iso_10x10)
        )
        assert residual < 1e-6


EDGE_CLUSTER = AngularCluster(
    power=1.0,
    azimuth=1.5,
    elevation=-0.2,
    sigma_phi=math.radians(2.0),
    sigma_theta=math.radians(2.0),
)


def _square(m: int, spacing: float) -> UpaGeometry:
    return UpaGeometry(m_y=m, m_z=m, d_y=spacing, d_z=spacing)


def full_phase_table(
    scenario: ClusterScenario, n: int, geometry: UpaGeometry, refinement: int
) -> np.ndarray:
    """``_cluster_offset_table`` with the elevation phase exponentiated at
    every signed z-step instead of mirrored from the steps b >= 0."""
    ny, nz = geometry.m_y, geometry.m_z
    separation = math.hypot((ny - 1) * geometry.d_y, (nz - 1) * geometry.d_z)
    u, wu, v, wv = correlation._cluster_axis_data(scenario.clusters[n], separation, refinement)
    cos_v = np.cos(v)
    azimuth_sum = correlation._azimuth_interpolant(
        2.0 * math.pi * geometry.d_y * np.sin(u), wu, (ny - 1) * cos_v.max()
    )
    azimuth_sums = np.array([azimuth_sum(a * cos_v) for a in range(ny)])
    steps_z = np.arange(1 - nz, nz)
    elevation_phase = np.exp(
        2j * math.pi * geometry.d_z * np.sin(v)[:, None] * steps_z[None, :]
    )
    return scenario.cluster_scale(n) * ((azimuth_sums * wv) @ elevation_phase)


class TestAzimuthInterpolant:
    @pytest.mark.parametrize(
        "geometry, scenario",
        [
            (_square(10, 0.2), default_cluster_scenario(1)),
            (_square(10, 0.2), default_cluster_scenario(5)),
            (_square(20, 0.2), default_cluster_scenario(1)),
            (_square(20, 0.2), default_cluster_scenario(5)),
            (_square(32, 0.2), default_cluster_scenario(1)),
            (_square(32, 2.0), default_cluster_scenario(1)),
            (UpaGeometry(m_y=1, m_z=8, d_y=0.2, d_z=0.2), default_cluster_scenario(1)),
            (UpaGeometry(m_y=8, m_z=1, d_y=0.2, d_z=0.2), default_cluster_scenario(1)),
            (
                UpaGeometry(m_y=6, m_z=4, d_y=0.3, d_z=0.3),
                ClusterScenario.create([EDGE_CLUSTER]),
            ),
            (_square(10, 0.5), ClusterScenario.create([narrow_cluster(0.05)])),
            (_square(10, 0.5), ClusterScenario.create([narrow_cluster(60.0)])),
            (UpaGeometry(m_y=7, m_z=3, d_y=14.0, d_z=0.2), default_cluster_scenario(1)),
        ],
        ids=[
            "10x10_seed1",
            "10x10_seed5",
            "20x20_seed1",
            "20x20_seed5",
            "32x32_0.2",
            "32x32_2",
            "1x8",
            "8x1",
            "edge_azimuth_image_window",
            "spread_0.05deg",
            "spread_60deg",
            "d_y_14",
        ],
    )
    def test_tables_match_the_power_recurrence(self, geometry, scenario):
        for refinement in (1, 2):
            for n in range(len(scenario.clusters)):
                table = correlation._cluster_offset_table(scenario, n, geometry, refinement)
                reference = recurrence_table(scenario, n, geometry, refinement)
                bound = table_tolerance(scenario, n, geometry, refinement)
                assert np.abs(table - reference).max() <= bound, (refinement, n)

    @pytest.mark.parametrize(
        "geometry",
        [
            _square(10, 0.2),
            _square(32, 2.0),
            UpaGeometry(m_y=8, m_z=1, d_y=0.2, d_z=0.2),
            _square(7, 0.05),
            UpaGeometry(m_y=2, m_z=50, d_y=0.2, d_z=14.0),
        ],
        ids=["10x10_0.2", "32x32_2", "m_z_1", "7x7_0.05", "2x50_d_z_14"],
    )
    def test_mirrored_elevation_phases_are_the_full_exponential(self, geometry):
        # exp(-j t) is conj(exp(j t)) bit for bit, out to phases of 2 pi 686
        scenario = default_cluster_scenario(1)
        for refinement in (1, 2):
            for n in range(len(scenario.clusters)):
                table = correlation._cluster_offset_table(scenario, n, geometry, refinement)
                reference = full_phase_table(scenario, n, geometry, refinement)
                assert table.tobytes() == reference.tobytes(), (refinement, n)

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.6, 10.0, 100.0, 314.0])
    def test_degree_is_the_least_that_bounds_the_bessel_tail(self, tau):
        degree = correlation._chebyshev_degree(tau)
        tail = correlation._chebyshev_tail(tau, degree)
        assert degree + 2 >= tau and tail <= correlation._CHEBYSHEV_TOL
        assert (
            degree == 1
            or degree + 1 < tau
            or correlation._chebyshev_tail(tau, degree - 1) > correlation._CHEBYSHEV_TOL
        )
        # the tail the bound stands for: twice the dropped coefficients of
        # exp(j tau t), 2 |J_k(tau)| each
        dropped = np.arange(degree + 1, degree + 400)
        assert 4.0 * np.sum(np.abs(special.jv(dropped, tau))) <= tail

    @pytest.mark.parametrize(
        "geometry, cluster",
        [
            (_square(10, 0.2), narrow_cluster()),
            (_square(32, 2.0), narrow_cluster(60.0)),
            (UpaGeometry(m_y=6, m_z=4, d_y=0.3, d_z=0.3), EDGE_CLUSTER),
        ],
        ids=["10x10_2deg", "32x32_2_60deg", "edge_azimuth_image_window"],
    )
    def test_interpolant_matches_the_sum_at_random_points(self, geometry, cluster):
        # at the degree the order rule picks, within _CHEBYSHEV_TOL plus the
        # roundoff of the interpolant and of the direct sum: alpha x takes 5
        # roundings, exp 2 and the sum of n_u products n_u
        separation = math.hypot(
            (geometry.m_y - 1) * geometry.d_y, (geometry.m_z - 1) * geometry.d_z
        )
        u, wu, v, _ = correlation._cluster_axis_data(cluster, separation, 2)
        alpha = 2.0 * math.pi * geometry.d_y * np.sin(u)
        length = (geometry.m_y - 1) * np.cos(v).max()
        evaluate = correlation._azimuth_interpolant(alpha, wu, length)
        # both ends are sample points
        x = np.concatenate(([0.0, length], np.random.default_rng(7).uniform(0, length, 200)))
        exact = np.exp(1j * np.multiply.outer(x, alpha)) @ wu
        tau = 0.25 * (alpha.max() - alpha.min()) * length
        degree = correlation._chebyshev_degree(tau)
        phase = 2.0 * math.pi * geometry.d_y * (geometry.m_y - 1)
        rounding = interpolation_rounding(u.size, degree, phase)
        direct = EPS * (5.0 * phase + 2.0 + u.size)
        bound = np.sum(wu) * (correlation._CHEBYSHEV_TOL + rounding + direct)
        assert np.abs(evaluate(x) - exact).max() <= bound
