"""Correlation construction: series vs quadrature oracle, clusters, clamping."""

import math

import numpy as np
import pytest
from scipy import integrate

from holoest.correlation import (
    AngularCluster,
    ClusterScenario,
    CovarianceMatrix,
    QuadratureError,
    QuadratureOptions,
    cluster_matrix,
    cluster_scattering,
    iso_entry,
    iso_matrix,
    isotropic_scattering,
    psd_clamp,
    quadrature_entry,
    total_scattering,
)
from holoest.geometry import Direction, UpaGeometry, array_response, element_positions
from holoest.linalg import principal_subspace, subspace_contained

ZERO_SEP = 1.67 * 3 * math.pi / 16


class TestIsoEntry:
    def test_zero_separation_single_term(self):
        assert iso_entry(0.0, 0.0, tol=1e-12) == pytest.approx(ZERO_SEP, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        series = iso_entry(0.2, 0.0, tol=1e-12)
        oracle = quadrature_entry(isotropic_scattering, (0.0, 0.2, 0.0))
        assert series == pytest.approx(oracle.real, abs=1e-8)

    @pytest.mark.parametrize("dy,dz", [(0.3, 0.1), (0.0, 0.45), (0.8, 0.6)])
    def test_even_in_both_separations(self, dy, dz):
        base = iso_entry(dy, dz)
        assert iso_entry(-dy, dz) == base
        assert iso_entry(dy, -dz) == base

    def test_beyond_radius_falls_through_to_quadrature(self):
        value = iso_entry(1.8, 1.8, tol=1e-12)
        oracle = quadrature_entry(isotropic_scattering, (0.0, 1.8, 1.8))
        assert value == pytest.approx(oracle.real, abs=1e-8)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            iso_entry(0.1, 0.1, tol=0.0)


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

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_non_convergent_raises(self):
        def hostile(az, el):
            return 1.0 + math.cos(5e5 * az) * math.cos(5e5 * el)

        with pytest.raises(QuadratureError) as err:
            quadrature_entry(hostile, (0.0, 0.0, 0.0), QuadratureOptions(limit=10))
        assert err.value.estimate > 0


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
        assert r_iso_4x4.kind == "isotropic"

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


class TestPsdClamp:
    def test_identity_unchanged(self):
        out = psd_clamp(np.eye(3), rel_tol=1e-10)
        assert np.allclose(out.entries, np.eye(3))

    def test_tiny_negative_clamped(self):
        out = psd_clamp(np.diag([1.0, -1e-14]), rel_tol=1e-10)
        assert np.allclose(out.entries, np.diag([1.0, 0.0]))
        assert out.eig.values[-1] == 0.0

    def test_perturbed_psd_recovers(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        base = a @ a.T
        noisy = base + 1e-13 * rng.standard_normal((6, 6))
        out = psd_clamp(0.5 * (noisy + noisy.T), rel_tol=1e-10)
        assert out.eig.values[-1] >= 0
        assert np.abs(out.entries - base).max() < 1e-10 * out.eig.values[0]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_clamp(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_covariance_requires_known_kind(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(2), kind="banana")


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
        clone = ClusterScenario.from_dict(scenario.to_dict())
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
        a = array_response(geom_4x4, Direction(cluster.azimuth, cluster.elevation))
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
        assert r.kind == "cluster"

    def test_entries_match_quadrature_oracle(self, geom_2x2):
        cluster = narrow_cluster()
        scenario = ClusterScenario.create([cluster])
        opts = QuadratureOptions(
            abs_tol=1e-10,
            azimuth_points=(cluster.azimuth,),
            elevation_points=(cluster.elevation,),
        )

        def density(az, el):
            return total_scattering(scenario, az, el)

        anisotropic_2x3 = UpaGeometry(m_y=2, m_z=3, d_y=0.25, d_z=0.4)
        for geom, pairs in (
            (geom_2x2, ((0, 1), (0, 3), (2, 1))),
            (anisotropic_2x3, ((0, 1), (0, 3), (2, 1), (5, 0), (1, 5))),
        ):
            r = cluster_matrix(geom, scenario)
            pos = element_positions(geom)
            for n, j in pairs:
                oracle = quadrature_entry(density, pos[n] - pos[j], opts)
                assert r.entries[n, j] == pytest.approx(oracle, abs=1e-8)

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
        ok, _ = subspace_contained(
            principal_subspace(r_clu_10x10), principal_subspace(r_iso_10x10), 1e-6
        )
        assert ok
