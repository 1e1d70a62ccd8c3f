"""Impedance closed forms against the induced-EMF integral, coupling model."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from holoest.coupling import (
    ETA0,
    MU0,
    GeometryOverlapWarning,
    coupling_model,
    dissipation_resistance,
    effective_correlation,
    impedance_matrix,
    mutual_impedance_collinear,
    mutual_impedance_echelon,
    mutual_impedance_side_by_side,
    self_impedance,
)
from holoest.correlation import iso_matrix, psd_clamp
from holoest.coupling import CouplingModel
from holoest.geometry import UpaGeometry

K = 2.0 * math.pi


def emf_mutual_impedance(d: float, h: float, length: float) -> complex:
    """Numeric induced-EMF oracle: near field of one sinusoidal-current dipole
    integrated against the other's current.  Lengths in wavelengths, unit
    current maxima, dipoles parallel to z with lateral offset d and vertical
    offset h."""
    half = length / 2.0

    def field_terms(z: float) -> complex:
        r1 = math.hypot(d, z - half)
        r2 = math.hypot(d, z + half)
        r0 = math.hypot(d, z)
        return (
            np.exp(-1j * K * r1) / r1
            + np.exp(-1j * K * r2) / r2
            - 2.0 * math.cos(K * half) * np.exp(-1j * K * r0) / r0
        )

    def integrand(t: float, part: str) -> float:
        value = field_terms(h + t) * math.sin(K * (half - abs(t)))
        return value.real if part == "re" else value.imag

    kwargs = dict(points=[0.0], limit=400, epsabs=1e-12, epsrel=1e-12)
    re, _ = quad(integrand, -half, half, args=("re",), **kwargs)
    im, _ = quad(integrand, -half, half, args=("im",), **kwargs)
    return 1j * ETA0 / (4.0 * math.pi) * complex(re, im)


class TestSelfImpedance:
    def test_half_wave_reference_value(self):
        z = self_impedance(0.5, 0.002)
        assert z.real == pytest.approx(73.08, abs=0.5)
        assert z.imag == pytest.approx(42.21, abs=0.5)

    def test_real_part_positive_and_radius_insensitive(self):
        values = [self_impedance(0.5, a).real for a in (1e-3, 2e-3, 5e-3)]
        assert all(v > 0 for v in values)
        assert max(values) - min(values) < 0.1

    def test_rejects_thick_dipole(self):
        with pytest.raises(ValueError):
            self_impedance(0.5, 0.06)


class TestSideBySide:
    def test_half_wavelength_spacing_reference(self):
        z = mutual_impedance_side_by_side(0.5)
        assert z.real == pytest.approx(-12.5, abs=0.5)
        assert z.imag == pytest.approx(-29.9, abs=0.5)

    @pytest.mark.parametrize("d", [0.2, 0.5, 1.3, 2.5])
    def test_matches_emf_oracle(self, d):
        closed = mutual_impedance_side_by_side(d)
        oracle = emf_mutual_impedance(d, 0.0, 0.5)
        assert abs(closed - oracle) < 1e-6

    def test_decays_with_distance(self):
        assert abs(mutual_impedance_side_by_side(20.0)) < 1.0

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            mutual_impedance_side_by_side(0.0)


class TestCollinear:
    @pytest.mark.parametrize("h", [0.6, 1.0, 1.7, 3.0])
    def test_matches_emf_oracle_when_separated(self, h):
        closed = mutual_impedance_collinear(h)
        oracle = emf_mutual_impedance(0.0, h, 0.5)
        assert abs(closed - oracle) < 1e-6

    def test_overlapping_regularized_by_wire_radius(self):
        radius = 0.002
        closed = mutual_impedance_collinear(0.2, 0.5, radius)
        oracle = emf_mutual_impedance(radius, 0.2, 0.5)
        assert np.isfinite(closed.real) and np.isfinite(closed.imag)
        assert abs(closed - oracle) < 1e-6

    def test_weaker_than_side_by_side_at_same_distance(self):
        assert abs(mutual_impedance_collinear(1.0)) < abs(
            mutual_impedance_side_by_side(1.0)
        )

    def test_decoupling_limit(self):
        assert abs(mutual_impedance_collinear(50.0)) < 0.05

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            mutual_impedance_collinear(0.0)


class TestEchelon:
    def test_reduces_to_side_by_side(self):
        z_e = mutual_impedance_echelon(0.5, 1e-4)
        z_s = mutual_impedance_side_by_side(0.5)
        assert abs(z_e - z_s) < 0.1

    def test_even_in_vertical_offset(self):
        assert mutual_impedance_echelon(0.4, 0.3) == mutual_impedance_echelon(0.4, -0.3)

    @pytest.mark.parametrize("d,h", [(0.2, 0.2), (0.5, 0.3), (1.0, 0.7), (0.3, 1.2)])
    def test_matches_emf_oracle(self, d, h):
        closed = mutual_impedance_echelon(d, h)
        oracle = emf_mutual_impedance(d, h, 0.5)
        assert abs(closed - oracle) < 1e-6

    def test_rejects_nonpositive_lateral_offset(self):
        with pytest.raises(ValueError):
            mutual_impedance_echelon(0.0, 0.5)


class TestImpedanceMatrix:
    def test_pair_off_diagonal(self):
        geom = UpaGeometry(m_y=2, m_z=1, d_y=0.5, d_z=0.5)
        z = impedance_matrix(geom)
        assert z[0, 1] == pytest.approx(mutual_impedance_side_by_side(0.5))
        assert z[0, 0] == pytest.approx(self_impedance(0.5, geom.dipole_radius))

    def test_exactly_symmetric(self, geom_4x4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GeometryOverlapWarning)
            z = impedance_matrix(geom_4x4)
        assert np.array_equal(z, z.T)

    def test_overlap_warning_for_dense_vertical_spacing(self, geom_4x4):
        with pytest.warns(GeometryOverlapWarning):
            impedance_matrix(geom_4x4)

    def test_coupling_decays_along_row(self, geom_10x10, model_10x10):
        z = model_10x10.impedance
        # nearest horizontal neighbor (0.2 wavelengths) vs the far corner (2.5)
        near = abs(z[0, geom_10x10.m_z])
        far = abs(z[0, geom_10x10.size - 1])
        assert far < near


class TestDissipationResistance:
    def geometry(self):
        return UpaGeometry(m_y=2, m_z=2, d_y=0.5, d_z=0.6)

    def test_golden_value_and_skin_depth_oracle(self):
        geom = self.geometry()
        r_d = dissipation_resistance(geom, 3.0e9, 5.8e7)
        # Independent route: surface resistance from the skin depth,
        # R_s = 1/(sigma*delta), spread over the circumference, halved for the
        # sinusoidal current profile.
        sigma = 5.8e7
        delta = 1.0 / math.sqrt(math.pi * 3.0e9 * MU0 * sigma)
        r_s = 1.0 / (sigma * delta)
        oracle = 0.5 * geom.dipole_length / (2 * math.pi * geom.dipole_radius) * r_s
        assert r_d == pytest.approx(oracle, rel=1e-12)
        assert r_d == pytest.approx(0.2843, abs=2e-4)

    def test_sqrt_frequency_scaling(self):
        geom = self.geometry()
        assert dissipation_resistance(geom, 4.0e9, 5.8e7) == pytest.approx(
            2.0 * dissipation_resistance(geom, 1.0e9, 5.8e7), rel=1e-12
        )

    def test_perfect_conductor_limit(self):
        geom = self.geometry()
        assert dissipation_resistance(geom, 3.0e9, 1e30) < 1e-10

    def test_rejects_nonpositive_inputs(self):
        geom = self.geometry()
        with pytest.raises(ValueError):
            dissipation_resistance(geom, 0.0, 5.8e7)
        with pytest.raises(ValueError):
            dissipation_resistance(geom, 3e9, -1.0)


class TestCouplingModel:
    def test_single_antenna_normalizes_to_identity(self):
        geom = UpaGeometry(m_y=1, m_z=1, d_y=0.5, d_z=0.5)
        model = coupling_model(geom, r_iso=iso_matrix(geom))
        assert model.coupling.shape == (1, 1)
        assert model.coupling[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_widely_spaced_pair_decouples(self):
        geom = UpaGeometry(m_y=2, m_z=1, d_y=50.0, d_z=0.5)
        model = coupling_model(geom, r_iso=iso_matrix(geom))
        off = abs(model.coupling[0, 1])
        diag = abs(model.coupling[0, 0])
        assert off / diag < 1e-3
        assert model.coupling[0, 0] == pytest.approx(1.0, rel=1e-3)

    def test_dense_array_strictly_coupled_and_spd(self, model_10x10):
        c = model_10x10.coupling
        off = np.abs(c - np.diag(np.diag(c))).max()
        assert off > 1e-4 * np.abs(np.diag(c)).max()
        assert np.linalg.eigvalsh(c).min() > 0

    def test_sqrt_squares_to_coupling(self, model_10x10):
        c = model_10x10.coupling
        root = model_10x10.coupling_sqrt
        assert np.abs(root @ root - c).max() < 1e-10 * np.abs(c).max()

    def test_full_impedance_variant(self, geom_4x4, r_iso_4x4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GeometryOverlapWarning)
            model = coupling_model(geom_4x4, use_full_impedance=True, r_iso=r_iso_4x4)
        c = model.coupling
        root = model.coupling_sqrt
        assert np.abs(root @ root - c).max() < 1e-10 * np.abs(c).max()
        coupled = effective_correlation(model, r_iso_4x4)
        assert coupled.eig.values[-1] >= 0
        assert coupled.trace() == pytest.approx(r_iso_4x4.trace(), rel=1e-10)


class TestEffectiveCorrelation:
    def _identity_model(self, m: int) -> CouplingModel:
        return CouplingModel(
            impedance=np.zeros((m, m), dtype=complex),
            r_dissipation=1.0,
            coupling=np.eye(m),
            coupling_sqrt=np.eye(m),
        )

    def test_identity_coupling_returns_correlation(self, r_iso_4x4):
        out = effective_correlation(self._identity_model(r_iso_4x4.size), r_iso_4x4)
        assert np.abs(out.entries - r_iso_4x4.entries).max() < 1e-10
        assert out.kind == "effective"

    def test_identity_correlation_returns_coupling(self, model_4x4):
        eye = psd_clamp(np.eye(model_4x4.size))
        out = effective_correlation(model_4x4, eye)
        assert np.abs(out.entries - model_4x4.coupling).max() < 1e-8 * np.abs(
            model_4x4.coupling
        ).max()

    def test_power_preserved_for_isotropic_channel(self, model_4x4, r_iso_4x4):
        out = effective_correlation(model_4x4, r_iso_4x4)
        assert out.trace() == pytest.approx(r_iso_4x4.trace(), rel=1e-10)

    def test_rank_never_increases(self, model_10x10, r_clu_10x10):
        # Exact rank (strictly positive eigenvalues) cannot grow under the
        # congruence; the rank at the default relative tolerance can, because
        # the coupling compresses the eigenvalue dynamic range.
        out = effective_correlation(model_10x10, r_clu_10x10)
        assert out.numerical_rank(0.0) <= r_clu_10x10.numerical_rank(0.0)
        assert out.eig.values[-1] >= 0

    def test_dimension_mismatch(self, model_4x4):
        small = psd_clamp(np.eye(3))
        with pytest.raises(ValueError):
            effective_correlation(model_4x4, small)

    def test_svd_falls_back_to_gesvd(self, model_4x4, r_iso_4x4, monkeypatch):
        expected = effective_correlation(model_4x4, r_iso_4x4)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        retried = effective_correlation(model_4x4, r_iso_4x4)
        scale = np.abs(expected.entries).max()
        assert np.abs(retried.entries - expected.entries).max() <= 1e-12 * scale
