"""Estimator family: filters, error covariance, eigen-expansion, subspaces."""

import math

import numpy as np
import pytest

from holoest import estimation as est
from holoest.correlation import CovarianceMatrix, psd_clamp
from holoest.coupling import effective_correlation
from holoest.linalg import psd_sqrt


def random_covariance(m: int, seed: int, rank: int | None = None) -> CovarianceMatrix:
    rng = np.random.default_rng(seed)
    r = rank or m
    factor = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    return psd_clamp(factor @ factor.conj().T)


class TestFilters:
    def test_mmse_zero_prior_gives_zero_filter(self):
        spec = est.mmse_filter(psd_clamp(np.zeros((3, 3))), rho=1.0)
        assert np.allclose(spec.filter, 0.0)

    def test_mmse_identity_prior_scalar_formula(self):
        spec = est.mmse_filter(psd_clamp(np.eye(4)), rho=1.0)
        assert np.allclose(spec.filter, 0.5 * np.eye(4))

    def test_mmse_rank_deficient_prior(self):
        spec = est.mmse_filter(psd_clamp(np.diag([2.0, 0.0])), rho=4.0)
        assert np.allclose(spec.filter, np.diag([4.0 / 9.0, 0.0]))

    def test_mmse_gains_bounded_by_inverse_sqrt_snr(self):
        r_hat = random_covariance(8, 7)
        rho = 3.7
        spec = est.mmse_filter(r_hat, rho)
        gains = np.linalg.eigvalsh(spec.filter)
        assert gains.min() >= -1e-12
        assert gains.max() < 1.0 / math.sqrt(rho)

    def test_ls_filter_is_scaled_identity(self):
        assert np.array_equal(est.ls_filter(1.0, 3).filter, np.eye(3))
        assert np.allclose(est.ls_filter(100.0, 4).filter, 0.1 * np.eye(4))

    def test_ls_estimate_recovers_scaled_observation(self):
        spec = est.ls_filter(4.0, 3)
        y = np.array([2.0, 4.0, 6.0], dtype=complex)
        assert np.allclose(spec.filter @ y, y / 2.0)

    def test_rejects_bad_snr(self):
        with pytest.raises(ValueError):
            est.ls_filter(0.0, 3)
        with pytest.raises(ValueError):
            est.mmse_filter(psd_clamp(np.eye(2)), rho=-1.0)


class TestEstimate:
    def test_zero_filter_zero_estimate(self):
        spec = est.EstimatorSpec(est.MMSE_TRUE, np.zeros((3, 3)), rho=1.0)
        assert np.allclose(spec.filter @ np.ones(3, dtype=complex), 0.0)

    def test_estimate_lies_in_prior_column_space(self):
        r_hat = random_covariance(8, 8, rank=3)
        spec = est.mmse_filter(r_hat, rho=2.0)
        rng = np.random.default_rng(9)
        guess = spec.filter @ est.complex_normal(rng, 8)
        basis = r_hat.eig.basis[:, r_hat.eig.values > 1e-8 * r_hat.eig.values[0]]
        leak = guess - basis @ (basis.conj().T @ guess)
        assert np.linalg.norm(leak) < 1e-8 * np.linalg.norm(guess)

    def test_high_snr_noiseless_recovery(self, model_10x10, r_iso_10x10):
        r_mc = effective_correlation(model_10x10, r_iso_10x10)
        rho = 1e12
        root = psd_sqrt(r_mc)
        h = root @ est.complex_normal(np.random.default_rng(10), root.shape[1])
        spec = est.mmse_filter(r_mc, rho)
        guess = spec.filter @ (math.sqrt(rho) * h)
        assert np.linalg.norm(guess - h) / np.linalg.norm(h) < 1e-4


class TestErrorCovariance:
    def test_zero_filter_returns_channel_covariance(self):
        r_mc = random_covariance(5, 11)
        spec = est.EstimatorSpec(est.MMSE_TRUE, np.zeros((5, 5)), rho=1.0)
        assert np.allclose(est.error_covariance(spec, r_mc), r_mc.entries)

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0])
    def test_ls_trace_closed_form(self, snr_db):
        r_mc = random_covariance(7, 12)
        rho = 10.0 ** (snr_db / 10.0)
        mse = est.analytic_mse(est.ls_filter(rho, 7), r_mc)
        assert mse == pytest.approx(7.0 / rho, rel=1e-12)

    def test_matched_mmse_trace_closed_form(self):
        r_mc = random_covariance(6, 13)
        rho = 3.0
        mse = est.analytic_mse(est.mmse_filter(r_mc, rho), r_mc)
        lam = r_mc.eig.values
        assert mse == pytest.approx(float(np.sum(lam / (rho * lam + 1.0))), rel=1e-10)

    def test_result_hermitian_psd(self):
        r_mc = random_covariance(6, 14)
        spec = est.mmse_filter(random_covariance(6, 15), rho=2.0)
        err = est.error_covariance(spec, r_mc)
        assert np.abs(err - err.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(err).min() > -1e-10


class TestEigenExpansion:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_trace_oracle_all_kinds(self, seed):
        m = 6
        r_mc = random_covariance(m, 100 + seed, rank=4)
        r_hat = random_covariance(m, 200 + seed, rank=5)
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            rho = 10.0 ** (snr_db / 10.0)
            specs = [
                est.mmse_filter(r_mc, rho, est.MMSE_TRUE),
                est.mmse_filter(r_hat, rho, est.MMSE_COUPLING_AWARE_ISO),
                est.mmse_filter(r_hat, rho, est.MMSE_ISO),
                est.ls_filter(rho, m),
            ]
            for spec in specs:
                trace_form = est.analytic_mse(spec, r_mc)
                assert est.mse_eigen_expansion(spec, r_mc) == pytest.approx(
                    trace_form, rel=1e-8
                )

    def test_zero_filter_gives_channel_power(self):
        r_mc = random_covariance(5, 21)
        spec = est.EstimatorSpec(est.MMSE_TRUE, np.zeros((5, 5)), rho=1.0)
        assert est.mse_eigen_expansion(spec, r_mc) == pytest.approx(
            r_mc.trace(), rel=1e-10
        )

    def test_ls_reduces_to_m_over_rho(self):
        # beta collapses the double sum: each channel mode contributes exactly
        # 1/rho when the filter gain is 1/sqrt(rho) on every mode.
        r_mc = random_covariance(3, 22)
        rho = 2.5
        assert est.mse_eigen_expansion(est.ls_filter(rho, 3), r_mc) == pytest.approx(
            3.0 / rho, rel=1e-10
        )

    def test_rejects_non_hermitian_filter(self):
        r_mc = random_covariance(3, 23)
        spec = est.EstimatorSpec(
            est.MMSE_TRUE, np.array([[0.0, 1.0], [0.0, 0.0]]), rho=1.0
        )
        with pytest.raises(ValueError):
            est.mse_eigen_expansion(spec, random_covariance(2, 24))
        del r_mc


class TestMismatchedBeta:
    def test_matched_mode_gives_mmse_weight(self):
        # lambda_h = lambda_w = 1, rho = 1: per-mode MSE is 0.5
        beta = est.mse_mismatched_beta(1.0, 1.0, 1.0)
        assert beta + 1.0 == pytest.approx(0.5, rel=1e-12)

    def test_ignored_mode_contributes_nothing(self):
        assert est.mse_mismatched_beta(0.7, 0.0, 2.0) == 0.0

    def test_direct_formula_value(self):
        assert est.mse_mismatched_beta(0.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_consistent_with_general_expansion(self, seed):
        rng = np.random.default_rng(300 + seed)
        rho = float(rng.uniform(0.1, 50.0))
        lam_h = rng.uniform(0.0, 3.0, 4)
        lam_w = rng.uniform(0.0, 3.0, 4)
        for lh in lam_h:
            for lw in lam_w:
                gain = math.sqrt(rho) * lw / (rho * lw + 1.0)
                general = (rho * lh + 1.0) * gain**2 - 2.0 * math.sqrt(rho) * lh * gain
                assert est.mse_mismatched_beta(lh, lw, rho) == pytest.approx(
                    general, rel=1e-8, abs=1e-12
                )

    def test_high_snr_mismatch_penalty_vanishes(self):
        # shared eigenbasis, perturbed eigenvalues, support preserved
        r_mc = random_covariance(8, 31, rank=5)
        eig = r_mc.eig
        rng = np.random.default_rng(32)
        perturbed = eig.values * rng.uniform(0.5, 2.0, 8)
        r_hat = psd_clamp((eig.basis * perturbed) @ eig.basis.conj().T)
        rho = 1e6
        mse = est.analytic_mse(est.mmse_filter(r_hat, rho), r_mc)
        assert mse < 1e-4 * r_mc.trace()


class TestColumnSpaceVerification:
    def test_contained_in_own_factor(self):
        r_hat = random_covariance(8, 41, rank=4)
        spec = est.mmse_filter(r_hat, rho=3.0)
        root = psd_sqrt(r_hat)
        ok, residual = est.verify_column_space(spec, root, tol=1e-8)
        assert ok
        assert residual < 1e-8

    def test_detects_disjoint_spaces(self):
        spec = est.mmse_filter(psd_clamp(np.diag([1.0, 0.0, 0.0])), rho=1.0)
        factor = np.eye(3)[:, 1:]
        ok, residual = est.verify_column_space(spec, factor, tol=1e-6)
        assert not ok
        assert residual > 0.9

    def test_row_count_mismatch(self):
        spec = est.ls_filter(1.0, 3)
        with pytest.raises(ValueError):
            est.verify_column_space(spec, np.eye(4), tol=1e-6)


class TestOptimality:
    def test_true_mmse_beats_everything(self):
        r_mc = random_covariance(8, 51, rank=5)
        r_hat = random_covariance(8, 52, rank=6)
        strict = False
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            rho = 10.0 ** (snr_db / 10.0)
            best = est.analytic_mse(est.mmse_filter(r_mc, rho), r_mc)
            for other in (
                est.mmse_filter(r_hat, rho, est.MMSE_ISO),
                est.ls_filter(rho, 8),
            ):
                mse = est.analytic_mse(other, r_mc)
                assert best <= mse * (1 + 1e-12)
                strict = strict or mse > best * 1.001
        assert strict


class TestMonteCarloConsistency:
    def test_empirical_mse_tracks_analytic(self):
        m, trials = 8, 10_000
        r_mc = random_covariance(m, 61, rank=5)
        root = psd_sqrt(r_mc)
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            rho = 10.0 ** (snr_db / 10.0)
            specs = {
                "true": est.mmse_filter(r_mc, rho),
                "ls": est.ls_filter(rho, m),
            }
            sq = {name: [] for name in specs}
            rng = np.random.default_rng(62)
            for _ in range(trials):
                h = root @ est.complex_normal(rng, m)
                y = math.sqrt(rho) * h + est.complex_normal(rng, m)
                for name, spec in specs.items():
                    err = h - spec.filter @ y
                    sq[name].append(float(np.vdot(err, err).real))
            for name, spec in specs.items():
                values = np.asarray(sq[name])
                mean = values.mean()
                stderr = values.std(ddof=1) / math.sqrt(trials)
                analytic = est.analytic_mse(spec, r_mc)
                assert abs(mean - analytic) < 5.0 * stderr
