"""Scenario generation and the sweep harness."""

import json
import math
import tracemalloc
import warnings

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

        def not_built(*args, **kwargs):
            raise AssertionError("an analytic-only sweep built a filter")

        monkeypatch.setattr(est, "mmse_filter", not_built)
        monkeypatch.setattr(est, "ls_filter", not_built)
        assert run_sweep(config, channel).rows == result.rows

    def test_one_projection_per_distinct_prior(self, analytic_sweep, monkeypatch):
        # isotropic: the coupling-aware prior is r_mc itself, so mmse_true and
        # mmse_coupling_aware_iso share one projection; LS has no prior
        config, result = analytic_sweep
        channel = build_channel(config)
        assert channel.r_hat_aware is channel.r_mc
        expansion = est.mse_eigen_expansion
        priors = []

        def logged(prior, r_mc, rhos):
            priors.append(prior)
            return expansion(prior, r_mc, rhos)

        monkeypatch.setattr(est, "mse_eigen_expansion", logged)
        assert run_sweep(config, channel).rows == result.rows
        projected = [p for p in priors if p is not None]
        assert len(projected) == len({id(p) for p in projected}) == 2


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
        # keyed by prior, as run_sweep passes them: the LS filter under None
        # takes the scalar path
        priors = channel.priors(est.ESTIMATOR_KINDS)
        assert None in priors
        filters = {prior: channel.estimator(prior, rho).filter for prior in priors}
        args = (filters, psd_sqrt(channel.r_mc), rho, 2, 4000, 7)
        assert 4000 % experiments._MC_BLOCK != 0
        assert experiments._mc_cell(*args) == _mc_cell_reference(*args)

    def test_peak_memory_is_one_block(self):
        config = SweepConfig(geometry=UpaGeometry(10, 10, d_y=0.2, d_z=0.2), mc_trials=0)
        channel = build_channel(config)
        rho = 10.0
        priors = channel.priors(est.ESTIMATOR_KINDS)
        filters = {prior: channel.estimator(prior, rho).filter for prior in priors}
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
        # a first call imports numpy.random's modules, which is not a block's cost
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
        assert channel.prior(est.MMSE_TRUE) is channel.r_mc
        assert channel.prior(est.MMSE_COUPLING_AWARE_ISO) is channel.r_hat_aware
        assert channel.prior(est.MMSE_ISO) is channel.r_iso
        assert channel.prior(est.LS) is None

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
            prior = channel.prior(row.estimator)
            expected = oracle(channel.estimator(prior, rho), channel.r_mc)
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
