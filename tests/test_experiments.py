"""Scenario generation and the sweep harness."""

import json
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from holoest import estimation as est
from holoest import experiments
from holoest.correlation import cluster_matrix, iso_matrix
from holoest.coupling import GeometryOverlapWarning, effective_correlation
from holoest.experiments import (
    CouplingConfig,
    SweepConfig,
    build_channel,
    default_cluster_scenario,
    gap_report,
    run_sweep,
)
from holoest.geometry import UpaGeometry
from holoest.linalg import psd_sqrt

pytestmark = pytest.mark.filterwarnings("ignore::holoest.coupling.GeometryOverlapWarning")


class TestDefaultClusterScenario:
    def test_powers_sum_to_one(self):
        scenario = default_cluster_scenario(7)
        assert sum(c.power for c in scenario.clusters) == pytest.approx(1.0, abs=1e-12)
        assert len(scenario.clusters) == 20

    def test_elevations_below_horizon(self):
        scenario = default_cluster_scenario(7)
        for c in scenario.clusters:
            assert -math.pi / 4 < c.elevation < 0.0
            assert abs(c.azimuth) < math.pi / 3
            assert c.sigma_phi == pytest.approx(math.radians(2.0))

    def test_deterministic_serialization(self):
        a = json.dumps(default_cluster_scenario(99).to_dict(), sort_keys=True)
        b = json.dumps(default_cluster_scenario(99).to_dict(), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = default_cluster_scenario(1).to_dict()
        b = default_cluster_scenario(2).to_dict()
        assert a != b


class TestSweepConfigValidation:
    def test_rejects_unsorted_grid(self, geom_4x4):
        with pytest.raises(ValueError):
            SweepConfig(geometry=geom_4x4, snr_grid_db=(0.0, -10.0))

    def test_rejects_repeated_snr_point(self, geom_4x4):
        # a repeat wrote its rows twice, from two Monte Carlo streams, and
        # SweepResult.row found only the first
        with pytest.raises(ValueError, match="strictly ascend"):
            SweepConfig(geometry=geom_4x4, snr_grid_db=(0.0, 4.0, 4.0))

    def test_rejects_small_mc(self, geom_4x4):
        with pytest.raises(ValueError):
            SweepConfig(geometry=geom_4x4, mc_trials=10)

    @pytest.mark.parametrize("trials", [1000.0, 100.5, True, "1000"])
    def test_rejects_non_integer_mc_trials(self, geom_2x2, trials):
        # a float count used to fail later, inside numpy's normal draws
        with pytest.raises(ValueError, match="mc_trials"):
            SweepConfig(geometry=geom_2x2, mc_trials=trials)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_rejects_base_seed_outside_rule(self, geom_2x2, seed):
        # these used to fail inside SeedSequence, or never with mc_trials = 0
        with pytest.raises(ValueError, match="integer >= 0"):
            SweepConfig(geometry=geom_2x2, mc_trials=0, base_seed=seed)

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: CouplingConfig(use_full_impedance="false"),
            lambda g: CouplingConfig(use_full_impedance=1),
        ],
    )
    def test_rejects_non_bool_switch(self, geom_2x2, build):
        # the truthy string "false" used to take the full-impedance path
        with pytest.raises(ValueError, match="expected a boolean"):
            build(geom_2x2)

    def test_numpy_integers_match_python_ints(self, geom_2x2):
        def rows(trials, seed):
            config = SweepConfig(
                geometry=geom_2x2, snr_grid_db=(0.0,), mc_trials=trials, base_seed=seed
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GeometryOverlapWarning)
                return run_sweep(config).rows

        assert rows(np.int64(200), np.int64(5)) == rows(200, 5)

    def test_rejects_unknown_estimator(self, geom_4x4):
        with pytest.raises(ValueError):
            SweepConfig(geometry=geom_4x4, estimators=("zf",))

    def test_rejects_repeated_estimator(self, geom_4x4):
        # a repeat would write its rows twice, and SweepResult.row finds one
        with pytest.raises(ValueError, match="repeat"):
            SweepConfig(geometry=geom_4x4, estimators=(est.LS, est.MMSE_ISO, est.LS))

    def test_rejects_unknown_scenario_string(self, geom_4x4):
        with pytest.raises(ValueError):
            SweepConfig(geometry=geom_4x4, scenario="urban")

    @pytest.mark.parametrize("scenario", [None, 5, b"cluster", ["x"]])
    def test_rejects_scenario_of_other_type(self, geom_4x4, scenario):
        # these used to sweep the isotropic channel
        with pytest.raises(ValueError, match="scenario"):
            SweepConfig(geometry=geom_4x4, scenario=scenario)

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: UpaGeometry(2, 2, d_y=math.nan, d_z=0.2),
            lambda g: UpaGeometry(2, 2, d_y=0.2, d_z=math.inf),
            lambda g: UpaGeometry(2, 2, d_y=0.2, d_z=0.2, dipole_length=math.inf),
            lambda g: UpaGeometry(2, 2, d_y=0.2, d_z=0.2, dipole_radius=math.nan),
            lambda g: CouplingConfig(frequency=-1.0),
            lambda g: CouplingConfig(frequency=0.0),
            lambda g: CouplingConfig(frequency=math.nan),
            lambda g: CouplingConfig(conductivity=0.0),
            lambda g: CouplingConfig(conductivity=math.inf),
            lambda g: SweepConfig(geometry=g, snr_grid_db=(math.nan,)),
            lambda g: SweepConfig(geometry=g, snr_grid_db=(0.0, math.inf)),
            lambda g: SweepConfig(geometry=g, snr_grid_db=(0.0, 1e300)),
            lambda g: SweepConfig(geometry=g, snr_grid_db=(-1e300, 0.0)),
        ],
    )
    def test_rejects_value_outside_domain(self, geom_4x4, build):
        with pytest.raises(ValueError):
            build(geom_4x4)


@pytest.fixture(scope="module")
def analytic_sweep(geom_4x4):
    config = SweepConfig(geometry=geom_4x4, mc_trials=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometryOverlapWarning)
        return config, run_sweep(config)


class TestRunSweepAnalytic:
    def test_row_count_and_no_mc_fields(self, analytic_sweep):
        config, result = analytic_sweep
        assert len(result.rows) == len(config.estimators) * len(config.snr_grid_db)
        assert all(row.mc_mse is None and row.mc_stderr is None for row in result.rows)

    def test_ls_rows_follow_closed_form(self, analytic_sweep, geom_4x4):
        _, result = analytic_sweep
        for snr_db in result.snr_grid_db():
            rho = 10.0 ** (snr_db / 10.0)
            assert result.row(est.LS, snr_db).analytic_mse == pytest.approx(
                geom_4x4.size / rho, rel=1e-12
            )

    def test_true_mmse_nonincreasing_and_dominant(self, analytic_sweep):
        _, result = analytic_sweep
        grid = result.snr_grid_db()
        best = [result.row(est.MMSE_TRUE, s).analytic_mse for s in grid]
        assert all(b2 <= b1 * (1 + 1e-12) for b1, b2 in zip(best, best[1:]))
        for kind in result.estimators():
            for s, reference in zip(grid, best):
                assert reference <= result.row(kind, s).analytic_mse * (1 + 1e-12)

    def test_builds_no_filter(self, analytic_sweep, monkeypatch):
        config, result = analytic_sweep
        channel = build_channel(config)

        def not_built(spec):
            raise AssertionError("an analytic-only sweep formed a dense filter")

        monkeypatch.setattr(est.EstimatorSpec, "filter", property(not_built))
        assert run_sweep(config, channel).rows == result.rows

    def test_one_projection_per_distinct_prior(self, analytic_sweep, monkeypatch):
        # isotropic: the coupling-aware prior is r_mc itself, so mmse_true and
        # mmse_coupling_aware_iso share one projection; LS's is the identity's
        config, result = analytic_sweep
        channel = build_channel(config)
        assert channel.r_hat_aware is channel.r_mc
        expansion = est.mse_eigen_expansion
        filters = []

        def logged(filter_at, r_mc, rhos):
            filters.append(filter_at)
            return expansion(filter_at, r_mc, rhos)

        monkeypatch.setattr(est, "mse_eigen_expansion", logged)
        assert run_sweep(config, channel).rows == result.rows
        projected = [f for f in filters if f is not channel.estimator(est.LS)]
        assert len(projected) == len({id(f) for f in projected}) == 2


@pytest.fixture(scope="module")
def mc_result(geom_4x4):
    config = SweepConfig(
        geometry=geom_4x4,
        snr_grid_db=(-10.0, 0.0, 10.0, 20.0),
        mc_trials=4000,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometryOverlapWarning)
        return run_sweep(config)


class TestRunSweepMonteCarlo:
    def test_mc_within_five_standard_errors(self, mc_result):
        for row in mc_result.rows:
            assert row.mc_mse is not None
            assert abs(row.mc_mse - row.analytic_mse) <= 5.0 * row.mc_stderr

    def test_reproducible_bitwise(self, geom_4x4, mc_result):
        config = SweepConfig(
            geometry=geom_4x4,
            snr_grid_db=(-10.0, 0.0, 10.0, 20.0),
            mc_trials=4000,
        )
        again = run_sweep(config)
        assert again.rows == mc_result.rows

    def test_seed_changes_mc_values(self, geom_4x4, mc_result):
        config = SweepConfig(
            geometry=geom_4x4,
            snr_grid_db=(-10.0, 0.0, 10.0, 20.0),
            mc_trials=4000,
            base_seed=1,
        )
        other = run_sweep(config)
        assert any(
            a.mc_mse != b.mc_mse for a, b in zip(other.rows, mc_result.rows)
        )
        assert all(
            a.analytic_mse == b.analytic_mse
            for a, b in zip(other.rows, mc_result.rows)
        )


class TestSharedPriors:
    def test_isotropic_aware_mc_columns_equal_true(self, mc_result):
        # isotropic: the coupling-aware prior is r_mc, so one filter serves both
        for snr_db in mc_result.snr_grid_db():
            true = mc_result.row(est.MMSE_TRUE, snr_db)
            aware = mc_result.row(est.MMSE_COUPLING_AWARE_ISO, snr_db)
            assert (aware.mc_mse, aware.mc_stderr) == (true.mc_mse, true.mc_stderr)

    @pytest.mark.parametrize("scenario, filters", [("isotropic", 3), ("cluster", 4)])
    def test_one_filter_per_distinct_prior(self, geom_2x2, monkeypatch, scenario, filters):
        if scenario == "cluster":
            scenario = default_cluster_scenario(3)
        config = SweepConfig(
            geometry=geom_2x2, scenario=scenario, snr_grid_db=(0.0, 10.0), mc_trials=200
        )
        original = experiments._mc_cell
        passed = []

        def logged(cell_filters, *args):
            passed.append(len(cell_filters))
            return original(cell_filters, *args)

        monkeypatch.setattr(experiments, "_mc_cell", logged)
        run_sweep(config)
        assert len(config.estimators) == 4
        assert passed == [filters, filters]

    def test_row_order_follows_estimators(self, geom_4x4, mc_result):
        # sweep.estimators = ls,mmse_coupling_aware_iso,mmse_true: the aware
        # prior is grouped with mmse_true's, yet the rows keep this order
        kinds = (est.LS, est.MMSE_COUPLING_AWARE_ISO, est.MMSE_TRUE)
        config = SweepConfig(
            geometry=geom_4x4,
            snr_grid_db=(-10.0, 0.0, 10.0, 20.0),
            estimators=kinds,
            mc_trials=4000,
        )
        result = run_sweep(config)
        grid = mc_result.snr_grid_db()
        assert result.rows == [mc_result.row(kind, s) for kind in kinds for s in grid]


class TestMonteCarloDeviation:
    def test_deviation_in_standard_errors(self):
        row = experiments.SweepRow("ls", 0.0, 2.0, 0.0, mc_mse=2.5, mc_stderr=0.25)
        assert row.mc_deviation_se == 2.0
        assert experiments.SweepRow("ls", 0.0, 2.0, 0.0).mc_deviation_se is None


class TestMonteCarloSpread:
    def test_stderr_matches_error_covariance(self, geom_4x4, mc_result):
        # A trial's error e is CN(0, E), E the dense error covariance, so its
        # squared norm X is a sum of unit exponentials weighted by mu = eig E,
        # with cumulants kappa_n = (n - 1)! sum mu^n: Var X = kappa_2 =
        # ||E||_F^2.  mc_stderr is sqrt(s^2 / T), s^2 the sample variance of T
        # trials, with Var s^2 = kappa_4 / T + 2 kappa_2^2 / (T - 1).  So
        # mc_stderr / sqrt(kappa_2 / T) = sqrt(s^2 / kappa_2) has, to first
        # order, the standard deviation sqrt(Var s^2) / (2 kappa_2); the gate
        # is 3 of it.
        channel = build_channel(SweepConfig(geometry=geom_4x4, mc_trials=0))
        trials = 4000
        for row in mc_result.rows:
            rho = 10.0 ** (row.snr_db / 10.0)
            spec = channel.estimator(row.estimator)(rho)
            mu = np.linalg.eigvalsh(est.error_covariance(spec, channel.r_mc))
            kappa_2, kappa_4 = np.sum(mu**2), 6.0 * np.sum(mu**4)
            ratio = row.mc_stderr / math.sqrt(kappa_2 / trials)
            var_s2 = kappa_4 / trials + 2.0 * kappa_2**2 / (trials - 1)
            sd = math.sqrt(var_s2) / (2.0 * kappa_2)
            assert abs(ratio - 1.0) <= 3.0 * sd, (row.estimator, row.snr_db, ratio, sd)


def _mc_cell_reference(filters, r_mc_sqrt, rho, snr_index, trials, base_seed):
    """The column-at-a-time loop: two complex_normal calls per trial."""
    m = r_mc_sqrt.shape[0]
    sums = {kind: 0.0 for kind in filters}
    sq_sums = {kind: 0.0 for kind in filters}
    for start in range(0, trials, experiments._MC_BLOCK):
        count = min(experiments._MC_BLOCK, trials - start)
        iid = np.empty((m, count), dtype=complex)
        noise = np.empty((m, count), dtype=complex)
        for j in range(count):
            rng = experiments._trial_rng(base_seed, snr_index, start + j)
            iid[:, j] = est.complex_normal(rng, m)
            noise[:, j] = est.complex_normal(rng, m)
        h = r_mc_sqrt @ iid
        y = math.sqrt(rho) * h + noise
        for kind, w in filters.items():
            sq = np.sum(np.abs(h - w @ y) ** 2, axis=0)
            sums[kind] += float(np.sum(sq))
            sq_sums[kind] += float(np.sum(sq * sq))
    out = {}
    for kind in filters:
        mean = sums[kind] / trials
        var = max(sq_sums[kind] / trials - mean * mean, 0.0) * trials / (trials - 1)
        out[kind] = (mean, math.sqrt(var / trials))
    return out


class TestMonteCarloCell:
    # 4000 trials cross block boundaries and end in a partial block
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2)], ids=["M1", "M6"])
    def test_bitwise_equal_to_per_column_reference(self, shape):
        config = SweepConfig(
            geometry=UpaGeometry(*shape, d_y=0.2, d_z=0.2), mc_trials=0
        )
        channel = build_channel(config)
        rho = 10.0 ** 0.5
        # keyed by filter function, as run_sweep passes them: the LS filter
        # takes the scalar path, the reference its dense W
        specs = {f: f(rho) for f in channel.estimators(est.ESTIMATOR_KINDS)}
        assert channel.estimator(est.LS) in specs
        dense = {f: spec.filter for f, spec in specs.items()}
        rest = (psd_sqrt(channel.r_mc), rho, 2, 4000, 7)
        assert 4000 % experiments._MC_BLOCK != 0
        assert experiments._mc_cell(specs, *rest) == _mc_cell_reference(dense, *rest)

    def test_peak_memory_is_one_block(self):
        config = SweepConfig(geometry=UpaGeometry(10, 10, d_y=0.2, d_z=0.2), mc_trials=0)
        channel = build_channel(config)
        rho = 10.0
        filters = {f: f(rho) for f in channel.estimators(est.ESTIMATOR_KINDS)}
        r_mc_sqrt = psd_sqrt(channel.r_mc)
        m, block = r_mc_sqrt.shape[0], experiments._MC_BLOCK
        complex_size, real_size = 16, 8
        # live for the whole cell: the block x 4M draws, whose storage also
        # holds h and the squared errors, and two complex M x block buffers
        buffers = (4 * real_size + 2 * complex_size) * m * block
        # transient, at most all at once: the two per-column sums of a block,
        # the complex copy matmul makes of a real M x M operand, and each
        # trial's key words (under 150 bytes of arrays) and their Python ints
        transient = 2 * real_size * block + complex_size * m * m + 512 * block
        # a first call imports numpy.random's modules and forms each dense W,
        # which is not a block's cost
        experiments._mc_cell(filters, r_mc_sqrt, rho, 0, 100, 7)
        tracemalloc.start()
        try:
            experiments._mc_cell(filters, r_mc_sqrt, rho, 0, 3000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffers + transient


class TestTrialKeys:
    """The block keys against ``_trial_rng``, the per-trial oracle.

    PCG64 seeding is numpy's own on both sides, from the words that
    ``_trial_words`` replays.  A numpy whose ``SeedSequence`` differs fails
    the words test here instead of moving the Monte Carlo draws.
    """

    # 1 to 5 entropy words; under 4 they are zero-padded to the pool size
    BASE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 1, experiments.DEFAULT_BASE_SEED]
    # edges of the first and fourth 512-trial blocks, last single-word trial index
    TRIALS = [0, 511, 512, 2047, 2048, 2**32 - 1]

    @pytest.mark.parametrize("snr_index", [0, 17, 2**32])
    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    def test_words_match_seed_sequence(self, base_seed, snr_index):
        words = experiments._trial_words(base_seed, snr_index, np.array(self.TRIALS))
        for row, trial in zip(words, self.TRIALS):
            oracle = np.random.SeedSequence(
                entropy=base_seed, spawn_key=(snr_index, trial)
            ).generate_state(4, np.uint64)
            assert row.tolist() == oracle.tolist()

    @pytest.mark.parametrize("snr_index", [0, 17])
    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    def test_draws_match_trial_rng(self, base_seed, snr_index):
        m = 100
        for first, count in [(0, 1), (510, 4), (2046, 4), (2**32 - 3, 3)]:
            # the last range ends at the last single-word trial index
            rngs = experiments._trial_rngs(base_seed, snr_index, first, count)
            for trial, rng in zip(range(first, first + count), rngs, strict=True):
                oracle = experiments._trial_rng(base_seed, snr_index, trial)
                assert rng.bit_generator.state == oracle.bit_generator.state
                draws = rng.standard_normal(4 * m)
                assert draws.tobytes() == oracle.standard_normal(4 * m).tobytes()

    def test_held_generator_keeps_its_stream(self):
        # the next trial's generator is taken before the first one draws
        rngs = experiments._trial_rngs(20240605, 3, 510, 3)
        first, _ = next(rngs), next(rngs)
        oracle = experiments._trial_rng(20240605, 3, 510)
        assert first.standard_normal(400).tobytes() == oracle.standard_normal(400).tobytes()

    def test_index_past_one_word_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            next(experiments._trial_rngs(1, 0, 2**32 - 1, 2))


class TestBuildChannel:
    def test_prebuilt_channel_gives_equal_rows(self, geom_4x4):
        config = SweepConfig(geometry=geom_4x4, snr_grid_db=(-10.0, 10.0), mc_trials=200)
        assert run_sweep(config, build_channel(config)).rows == run_sweep(config).rows

    def test_numpy_integer_sizes_give_equal_rows(self):
        def rows(m_y, m_z):
            geometry = UpaGeometry(m_y, m_z, d_y=0.2, d_z=0.2)
            return run_sweep(
                SweepConfig(geometry=geometry, snr_grid_db=(0.0, 10.0), mc_trials=200)
            ).rows

        assert rows(np.int64(2), np.int64(3)) == rows(2, 3)

    def test_priors_per_estimator(self, geom_4x4):
        channel = build_channel(SweepConfig(geometry=geom_4x4, mc_trials=0))
        assert channel.r_base is channel.r_iso
        assert channel.r_hat_aware is channel.r_mc
        rho = 2.0
        for kind, prior in (
            (est.MMSE_TRUE, channel.r_mc),
            (est.MMSE_COUPLING_AWARE_ISO, channel.r_hat_aware),
            (est.MMSE_ISO, channel.r_iso),
        ):
            spec = channel.estimator(kind)(rho)
            assert np.array_equal(spec.filter, est.mmse_filter(prior, rho).filter)
        spec = channel.estimator(est.LS)(rho)
        assert np.array_equal(spec.filter, est.ls_filter(rho, geom_4x4.size).filter)
        aware = channel.estimator(est.MMSE_COUPLING_AWARE_ISO)
        assert channel.estimator(est.MMSE_TRUE) is aware
        assert len(channel.estimators(est.ESTIMATOR_KINDS)) == 3

    def test_cluster_aware_prior_is_coupled_isotropic(self, geom_2x2):
        scenario = default_cluster_scenario(3)
        config = SweepConfig(geometry=geom_2x2, scenario=scenario, mc_trials=0)
        channel = build_channel(config)
        assert channel.r_hat_aware is not channel.r_mc
        aware = effective_correlation(channel.model, iso_matrix(geom_2x2))
        true = effective_correlation(channel.model, cluster_matrix(geom_2x2, scenario))
        assert np.array_equal(channel.r_hat_aware.entries, aware.entries)
        assert np.array_equal(channel.r_mc.entries, true.entries)
        assert not np.allclose(aware.entries, true.entries)

    @pytest.mark.parametrize("scenario", ["isotropic", "cluster"])
    def test_rows_match_trace_oracle(self, geom_4x4, geom_2x2, monkeypatch, scenario):
        if scenario == "isotropic":
            config = SweepConfig(geometry=geom_4x4, mc_trials=0)
        else:
            config = SweepConfig(
                geometry=geom_2x2, scenario=default_cluster_scenario(3), mc_trials=0
            )
        channel = build_channel(config)
        oracle = est.analytic_mse

        def not_in_sweep(*args):
            raise AssertionError("run_sweep called the trace-form oracle")

        monkeypatch.setattr(est, "analytic_mse", not_in_sweep)
        result = run_sweep(config, channel)
        monkeypatch.undo()
        for row in result.rows:
            rho = 10.0 ** (row.snr_db / 10.0)
            expected = oracle(channel.estimator(row.estimator)(rho), channel.r_mc)
            assert row.analytic_mse == pytest.approx(expected, rel=1e-12)

    def test_channel_from_other_config_rejected(self, geom_4x4, geom_4x4_quarter):
        channel = build_channel(SweepConfig(geometry=geom_4x4_quarter, mc_trials=0))
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(geometry=geom_4x4, mc_trials=0), channel)


class TestGapReport:
    def test_reference_gap_is_zero(self, analytic_sweep):
        _, result = analytic_sweep
        gaps = gap_report(result, est.MMSE_TRUE)
        assert np.allclose(gaps[est.MMSE_TRUE], 0.0)

    def test_all_gaps_nonnegative_vs_optimum(self, analytic_sweep):
        _, result = analytic_sweep
        gaps = gap_report(result, est.MMSE_TRUE)
        for kind, values in gaps.items():
            assert np.all(values >= -1e-9)

    def test_missing_reference_raises(self, analytic_sweep):
        _, result = analytic_sweep
        with pytest.raises(KeyError):
            gap_report(result, "nonexistent")


class TestClusterSweep:
    def test_small_cluster_sweep_orderings(self, geom_4x4):
        scenario = default_cluster_scenario(11)
        config = SweepConfig(
            geometry=geom_4x4,
            scenario=scenario,
            snr_grid_db=(0.0, 10.0, 20.0),
            mc_trials=0,
            coupling=CouplingConfig(),
        )
        result = run_sweep(config)
        gaps = gap_report(result, est.MMSE_TRUE)
        assert np.all(gaps[est.MMSE_ISO] >= -1e-9)
        # coupling-aware prior can never beat the true one
        assert np.all(gaps[est.MMSE_COUPLING_AWARE_ISO] >= -1e-9)


_EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def high_snr_channels(channel_iso_10x10, geom_10x10):
    """The default 10x10 isotropic channel and the 10x10 cluster channel of seed 1."""
    config = SweepConfig(geom_10x10, default_cluster_scenario(1), mc_trials=0)
    return {"isotropic": channel_iso_10x10, "cluster_seed1": build_channel(config)}


def _complement_power(prior, r_mc) -> tuple[float, float]:
    """||(I - P) F||_F^2 for P the projector onto the prior's kept modes and
    F = V Lam^(1/2) R_mc's thin factor, read through the prior's complementary
    eigenvectors W: sum_j lam_j ||W^H v_j||^2, and a bound on its roundoff.

    The entries of W^H v_j, sums of M products, err by at most (M + 2) eps
    (|W|^H |v_j|)_i, at most (M + 2) eps sqrt(n) over the n = M - k columns of
    W; eigh's [U W] is orthonormal only to about M eps, which moves
    W^H v_j itself by up to M eps.  With delta = ((M + 2) sqrt(n) + M) eps,
    each ||W^H v_j||^2 errs by at most delta (2 ||(W^H v_j)^|| + 3 delta), and
    the sums of squares add (M + r) eps of the total.
    """
    m = r_mc.size
    kept = int(np.count_nonzero(prior.eig.values))
    lam = r_mc.eig.values[: int(np.count_nonzero(r_mc.eig.values))]
    vectors = r_mc.eig.basis[:, : lam.size]
    outside = np.sum(np.abs(prior.eig.basis[:, kept:].conj().T @ vectors) ** 2, axis=0)
    power = float(outside @ lam)
    delta = ((m + 2) * math.sqrt(m - kept) + m) * _EPS
    rounding = delta * float((2.0 * np.sqrt(outside) + 3.0 * delta) @ lam)
    return power, rounding + (m + lam.size) * _EPS * power


class TestHighSnrAsymptote:
    """MSE(rho) = ||(I - P) F||_F^2 + k / rho + O(rho^-2) for the MMSE filter of a
    prior with k kept modes lam_1 >= ... >= lam_k > 0, once rho lam_k >> 1.

    With b_i = ||B_i||^2 and s_i = 1 / (rho lam_i + 1), the route's terms are
    sum_i b_i s_i^2, sum_i g_i^2 = sum_i (1 - s_i)^2 / rho and the residual,
    so MSE - residual - k / rho = sum_i b_i s_i^2 - sum_i (2 s_i - s_i^2) / rho,
    at most sum_i (b_i / lam_i^2 + 2 / lam_i) / rho^2 in size (s_i <= 1 /
    (rho lam_i)): the remainder bound.  The tolerance adds the residual's
    roundoff floor, (k + 8) eps of the MSE for the per-SNR sums, the first
    term's roundoff (each b_i errs by at most 2 (M + 2) eps sqrt(k) tr R_mc
    to first order, times s_i^2) and the roundoff of the independently
    computed residual.
    """

    SNR_STEPS = (1e4, 1e6, 1e8)  # rho lam_k at the three points

    @staticmethod
    def _priors(channel):
        return {id(p): p for p in (channel.r_mc, channel.r_hat_aware, channel.r_iso)}.values()

    @pytest.mark.parametrize("name", ["isotropic", "cluster_seed1"])
    def test_mmse_tends_to_residual_plus_rank_over_rho(self, high_snr_channels, name):
        channel = high_snr_channels[name]
        r_mc = channel.r_mc
        m, trace = r_mc.size, r_mc.trace()
        lam_mc = r_mc.eig.values[: int(np.count_nonzero(r_mc.eig.values))]
        vectors = r_mc.eig.basis[:, : lam_mc.size]
        for prior in self._priors(channel):
            kept = int(np.count_nonzero(prior.eig.values))
            lam = prior.eig.values[:kept]
            b = np.abs(prior.eig.basis[:, :kept].conj().T @ vectors) ** 2 @ lam_mc
            residual, residual_rounding = _complement_power(prior, r_mc)
            rhos = [step / lam[-1] for step in self.SNR_STEPS]
            filter_at = partial(est.mmse_filter, prior)
            mse = est.mse_eigen_expansion(filter_at, r_mc, rhos)
            for rho, value in zip(rhos, mse.tolist()):
                floor = filter_at(rho).project(vectors, lam_mc)[2]
                remainder = float(np.sum(b / lam**2 + 2.0 / lam)) / rho**2
                first_term = 2.0 * (m + 2) * _EPS * math.sqrt(kept) * trace
                first_term /= (rho * lam[-1]) ** 2
                tol = (
                    remainder
                    + floor
                    + (kept + 8.0) * _EPS * value
                    + first_term
                    + residual_rounding
                )
                expected = residual + kept / rho
                assert abs(value - expected) <= tol, (name, kept, rho, value, expected, tol)
                assert tol < 1e-3 * value

    @pytest.mark.parametrize("name", ["isotropic", "cluster_seed1"])
    def test_ls_gap_tends_to_rank_ratio(self, high_snr_channels, name):
        # LS is M / rho exactly; the matched prior leaves no residual, so its
        # MSE is k / rho (1 + eta), |eta| <= tol / (k / rho) with tol the bound
        # of the test above, and the gap is 10 log10(M / k) - 10 log10(1 + eta)
        channel = high_snr_channels[name]
        r_mc = channel.r_mc
        m, trace = r_mc.size, r_mc.trace()
        lam = r_mc.eig.values[: int(np.count_nonzero(r_mc.eig.values))]
        vectors = r_mc.eig.basis[:, : lam.size]
        rhos = [step / lam[-1] for step in self.SNR_STEPS]
        ls = est.mse_eigen_expansion(channel.estimator(est.LS), r_mc, rhos)
        true = est.mse_eigen_expansion(channel.estimator(est.MMSE_TRUE), r_mc, rhos)
        assert ls.tolist() == [m / rho for rho in rhos]
        for rho, value in zip(rhos, true.tolist()):
            floor = channel.estimator(est.MMSE_TRUE)(rho).project(vectors, lam)[2]
            tol = (
                3.0 * float(np.sum(1.0 / lam)) / rho**2
                + floor
                + (lam.size + 8.0) * _EPS * value
                + 2.0 * (m + 2) * _EPS * math.sqrt(lam.size) * trace / (rho * lam[-1]) ** 2
            )
            eta = tol / (lam.size / rho)
            gap = 10.0 * math.log10(m / rho / value)
            limit = 10.0 * math.log10(m / lam.size)
            assert abs(gap - limit) <= -10.0 * math.log10(1.0 - eta), (name, rho, gap, limit)

    @pytest.mark.parametrize("name", ["isotropic", "cluster_seed1"])
    def test_matched_prior_closed_form_at_120_to_200_db(self, high_snr_channels, name):
        # sum lam / (rho lam + 1) against the route: b_i = lam_i (1 + 2 (M + 2)
        # eps) to first order for the matched prior, whose kept modes are R_mc's
        # own, so the first term errs by 2 (M + 2) eps of the MSE; the sums
        # and the closed form's own (k + 3) eps add (2 k + 16) eps more
        channel = high_snr_channels[name]
        r_mc = channel.r_mc
        m = r_mc.size
        lam = r_mc.eig.values[: int(np.count_nonzero(r_mc.eig.values))]
        vectors = r_mc.eig.basis[:, : lam.size]
        filter_at = channel.estimator(est.MMSE_TRUE)
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in (120.0, 160.0, 200.0)]
        mse = est.mse_eigen_expansion(filter_at, r_mc, rhos)
        for rho, value in zip(rhos, mse.tolist()):
            closed = float(np.sum(lam / (rho * lam + 1.0)))
            floor = filter_at(rho).project(vectors, lam)[2]
            tol = floor + (2.0 * (m + 2) + 2.0 * lam.size + 16.0) * _EPS * closed
            assert abs(value - closed) <= tol, (name, rho, value, closed, tol)

    @pytest.mark.parametrize("name", ["isotropic", "cluster_seed1"])
    def test_no_analytic_mse_is_negative(self, high_snr_channels, name):
        # across the pilot-SNR domain: every term is nonnegative, and a point
        # not above its roundoff floor is NaN, never a rounded value
        channel = high_snr_channels[name]
        rhos = [experiments.pilot_snr(snr_db) for snr_db in range(-3200, 3081, 40)]
        with np.errstate(over="ignore"):
            for filter_at in channel.estimators(est.ESTIMATOR_KINDS):
                mse = est.mse_eigen_expansion(filter_at, channel.r_mc, rhos)
                assert not np.any(mse <= 0.0)
