"""Scenario assembly and SNR sweeps comparing the estimator family.

``build_channel`` is the one assembly path of the channel model: the base
spatial correlation (isotropic closed form or clustered quadrature), the
coupling model, and the coupled correlations every estimator prior comes from.
A sweep evaluates every requested estimator at every SNR point on that model,
analytically and optionally by Monte Carlo (the one step that builds filters),
once per distinct prior.  Trials draw from per-trial streams keyed by (base
seed, SNR index, trial index), so results do not depend on order or batching.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import estimation as est
from .correlation import AngularCluster, ClusterScenario, cluster_matrix, iso_matrix
from .coupling import DEFAULT_CONDUCTIVITY, DEFAULT_FREQUENCY
from .coupling import CouplingModel, coupling_model, effective_correlation
from .geometry import UpaGeometry, check_positive_finite, is_integer
from .linalg import CovarianceMatrix, psd_sqrt

__all__ = [
    "DEFAULT_SNR_GRID_DB",
    "DEFAULT_BASE_SEED",
    "CouplingConfig",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "pilot_snr",
    "check_snr_grid",
    "check_mc_trials",
    "check_seed",
    "check_bool",
    "check_estimators",
    "Channel",
    "default_cluster_scenario",
    "build_channel",
    "run_sweep",
    "gap_report",
]

DEFAULT_SNR_GRID_DB = tuple(range(-10, 25, 2))
DEFAULT_BASE_SEED = 20240605

_BS_HEIGHT_M = 25.0
_USER_HEIGHT_M = 1.5
_MIN_SCATTER_DIST_M = 35.0
_MAX_SCATTER_DIST_M = 300.0
_DEFAULT_CLUSTER_COUNT = 20
_DEFAULT_SIGMA_DEG = 2.0

_MC_BLOCK = 512
_MAX_TRIALS = 1 << 32  # trial indices are single uint32 words

# numpy's SeedSequence hash and mix constants (NEP 19, after O'Neill's
# seed_seq_fe), as ``_trial_words`` replays them
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class CouplingConfig:
    frequency: float = DEFAULT_FREQUENCY
    conductivity: float = DEFAULT_CONDUCTIVITY
    use_full_impedance: bool = False

    def __post_init__(self) -> None:
        check_positive_finite(self.frequency, "frequency")
        check_positive_finite(self.conductivity, "conductivity")
        check_bool(self.use_full_impedance)


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; identical configs give identical results."""

    geometry: UpaGeometry
    scenario: str | ClusterScenario = "isotropic"
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    estimators: tuple[str, ...] = est.ESTIMATOR_KINDS
    mc_trials: int = 10_000
    base_seed: int = DEFAULT_BASE_SEED
    coupling: CouplingConfig = field(default_factory=CouplingConfig)

    def __post_init__(self) -> None:
        isotropic = isinstance(self.scenario, str) and self.scenario == "isotropic"
        if not (isotropic or isinstance(self.scenario, ClusterScenario)):
            raise ValueError("scenario must be 'isotropic' or a ClusterScenario")
        check_snr_grid(self.snr_grid_db)
        check_mc_trials(self.mc_trials)
        check_seed(self.base_seed)
        check_estimators(self.estimators)


def pilot_snr(snr_db: float) -> float:
    """Linear pilot SNR rho = 10^(snr_db / 10).

    Raises ValueError unless rho is a finite positive double, which holds for
    roughly -3236 < snr_db < 3082.5.
    """
    try:
        rho = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        rho = math.inf
    return check_positive_finite(rho, f"pilot SNR at {snr_db!r} dB")


def check_snr_grid(grid_db: tuple[float, ...]) -> tuple[float, ...]:
    """Return ``grid_db``; raises ValueError unless it is nonempty, in ``pilot_snr``'s
    domain and strictly ascending (a repeat wrote its rows twice, from two streams)."""
    if len(grid_db) == 0:
        raise ValueError("SNR grid is empty")
    for snr_db in grid_db:
        pilot_snr(snr_db)
    for low, high in zip(grid_db, grid_db[1:]):
        if not low < high:
            raise ValueError(f"SNR grid must strictly ascend: {high!r} dB after {low!r} dB")
    return grid_db


def check_mc_trials(trials: int) -> int:
    """Return ``trials``; raises ValueError unless it is an integer, 0 (no Monte
    Carlo) or in [100, 2**32]: each trial's stream key takes its index as one
    uint32 word."""
    if not is_integer(trials):
        raise ValueError(f"mc_trials must be an integer, got {trials!r}")
    if not (trials == 0 or 100 <= trials <= _MAX_TRIALS):
        raise ValueError(f"expected 0 (no Monte Carlo) or 100 to 2**32 trials, got {trials!r}")
    return trials


def check_seed(seed: int) -> int:
    """Return ``seed``; raises ValueError unless it is an integer >= 0."""
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"expected an integer >= 0, got {seed!r}")
    return seed


def check_bool(value: bool) -> bool:
    """Return ``value``; raises ValueError unless it is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def check_estimators(kinds: tuple[str, ...]) -> tuple[str, ...]:
    """Return ``kinds``; raises ValueError unless it lists known kinds, each once."""
    for kind in kinds:
        if kind not in est.ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator {kind!r}")
    if not kinds:
        raise ValueError("estimator list is empty")
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"estimator list repeats a kind: {', '.join(kinds)}")
    return kinds


@dataclass(frozen=True, eq=False)
class Channel:
    """The coupled channel model of one configuration and the estimator priors.

    ``r_mc = C^(1/2) R_base C^(1/2)`` is the true channel correlation;
    ``r_hat_aware`` is the coupling-aware isotropic prior ``C^(1/2) R_iso
    C^(1/2)``, which is ``r_mc`` itself when the scenario is isotropic.
    ``source`` records the configuration fields the model was built from.
    """

    r_iso: CovarianceMatrix
    r_base: CovarianceMatrix
    model: CouplingModel
    r_mc: CovarianceMatrix
    r_hat_aware: CovarianceMatrix
    source: tuple

    def prior(self, kind: str) -> CovarianceMatrix | None:
        """Prior covariance the estimator kind filters with; None for LS."""
        return {
            est.MMSE_TRUE: self.r_mc,
            est.MMSE_COUPLING_AWARE_ISO: self.r_hat_aware,
            est.MMSE_ISO: self.r_iso,
        }.get(kind)

    def priors(self, kinds) -> dict[CovarianceMatrix | None, list[str]]:
        """Each distinct prior of ``kinds``, in first-use order, with the kinds
        that filter with it; None is LS.  Isotropic: the aware prior is r_mc."""
        groups: dict[CovarianceMatrix | None, list[str]] = {}
        for kind in kinds:
            groups.setdefault(self.prior(kind), []).append(kind)
        return groups

    def estimator(self, prior: CovarianceMatrix | None, rho: float) -> est.EstimatorSpec:
        """Filter built from ``prior`` at pilot SNR rho; None is LS."""
        if prior is None:
            return est.ls_filter(rho, self.r_mc.size)
        return est.mmse_filter(prior, rho)


def _channel_source(config: SweepConfig) -> tuple:
    return (config.geometry, config.scenario, config.coupling)


def build_channel(config: SweepConfig) -> Channel:
    """Assemble R_iso, R_base, the coupling model and the coupled correlations."""
    geometry = config.geometry
    r_iso = iso_matrix(geometry)
    if isinstance(config.scenario, ClusterScenario):
        r_base = cluster_matrix(geometry, config.scenario)
    else:
        r_base = r_iso
    # CouplingConfig's fields are coupling_model's keyword arguments
    model = coupling_model(geometry, r_iso, **asdict(config.coupling))
    r_mc = effective_correlation(model, r_base)
    r_hat_aware = r_mc if r_base is r_iso else effective_correlation(model, r_iso)
    return Channel(
        r_iso=r_iso,
        r_base=r_base,
        model=model,
        r_mc=r_mc,
        r_hat_aware=r_hat_aware,
        source=_channel_source(config),
    )


@dataclass(frozen=True)
class SweepRow:
    estimator: str
    snr_db: float
    analytic_mse: float
    analytic_nmse_db: float
    mc_mse: float | None = None
    mc_stderr: float | None = None

    @property
    def mc_deviation_se(self) -> float | None:
        """|mc_mse - analytic_mse| in Monte Carlo standard errors; None without MC."""
        if self.mc_mse is None:
            return None
        return abs(self.mc_mse - self.analytic_mse) / max(self.mc_stderr, 1e-300)


@dataclass
class SweepResult:
    """Sweep rows, fixed once built (``row`` indexes them on first use)."""

    rows: list[SweepRow]

    @cached_property
    def _by_key(self) -> dict[tuple[str, float], SweepRow]:
        return {(r.estimator, r.snr_db): r for r in self.rows}

    def row(self, estimator: str, snr_db: float) -> SweepRow:
        try:
            return self._by_key[estimator, snr_db]
        except KeyError:
            raise KeyError(f"no row for ({estimator}, {snr_db} dB)") from None

    def estimators(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r.estimator for r in self.rows))

    def snr_grid_db(self) -> tuple[float, ...]:
        return tuple(dict.fromkeys(r.snr_db for r in self.rows))


def default_cluster_scenario(seed: int) -> ClusterScenario:
    """Deterministic 20-cluster urban-style scenario.

    Powers are exponential draws normalized to unit sum; azimuths are uniform
    in (-60, 60) degrees; elevations point below the horizon toward scatterers
    at log-uniform horizontal distances from an elevated base station.
    """
    rng = np.random.default_rng(seed)
    powers = rng.exponential(1.0, _DEFAULT_CLUSTER_COUNT)
    azimuths = rng.uniform(-np.pi / 3.0, np.pi / 3.0, _DEFAULT_CLUSTER_COUNT)
    distances = np.exp(
        rng.uniform(
            math.log(_MIN_SCATTER_DIST_M),
            math.log(_MAX_SCATTER_DIST_M),
            _DEFAULT_CLUSTER_COUNT,
        )
    )
    elevations = -np.arctan((_BS_HEIGHT_M - _USER_HEIGHT_M) / distances)
    sigma = math.radians(_DEFAULT_SIGMA_DEG)
    clusters = [
        AngularCluster(
            power=float(p),
            azimuth=float(az),
            elevation=float(el),
            sigma_phi=sigma,
            sigma_theta=sigma,
        )
        for p, az, el in zip(powers, azimuths, elevations)
    ]
    return ClusterScenario.create(clusters)


def _trial_rng(base_seed: int, snr_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(snr_index, trial))
    )


def _uint32_word_count(n: int) -> int:
    return max(1, -(-int(n).bit_length() // 32))


def _trial_words(base_seed: int, snr_index: int, trials: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each trial's ``SeedSequence``, as rows.

    Trial indices must be below 2**32, so each adds one word to the entropy.
    ``SeedSequence`` folds its entropy words into a 4-word pool in order, so
    the pool of the key without the trial word is the state before it: only
    the last fold and ``generate_state``'s hash are replayed, in ``uint32``
    arithmetic over the whole array of trials.
    """
    prefix = np.random.SeedSequence(entropy=base_seed, spawn_key=(snr_index,))
    # hash calls before the trial word: 4 to fill the pool, 12 to mix it, and
    # 4 per entropy word past the (zero-padded) pool size
    entropy_words = max(4, _uint32_word_count(base_seed)) + _uint32_word_count(snr_index)
    calls = 16 + 4 * (entropy_words - 4)
    hash_const = _HASH_INIT_A * pow(_HASH_MULT_A, calls, 1 << 32) & _MASK32
    trials = np.asarray(trials, dtype=np.uint32)
    pool = []
    for word in prefix.pool.tolist():
        value = trials ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        mixed = np.uint32(_MIX_MULT_L * word & _MASK32) - np.uint32(_MIX_MULT_R) * value
        mixed ^= mixed >> np.uint32(16)
        pool.append(mixed)
    hash_const = _HASH_INIT_B
    state = np.empty((trials.size, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        state[:, i] = value
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _TrialKey:
    """A trial's ``_trial_words`` row as the ``ISeedSequence`` PCG64 seeds from.
    PCG64 reads the memory of ``generate_state(4, np.uint64)``, so the row must
    be a C-contiguous ``uint64`` array of 4 words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _trial_rngs(
    base_seed: int, snr_index: int, start: int, count: int
) -> Iterator[np.random.Generator]:
    """The generators of ``_trial_rng`` for trials start .. start+count-1.

    Each is numpy's PCG64 seeded from the trial's ``_trial_words`` row, the
    state its ``SeedSequence`` would generate, so its draws equal
    ``_trial_rng``'s bit for bit.  Trial indices must be below 2**32, as
    ``check_mc_trials`` ensures.
    """
    if start + count > _MAX_TRIALS:
        raise ValueError(f"trial index {start + count - 1} is not below 2**32")
    # registered here, not at import: importing holoest does not load numpy.random
    np.random.bit_generator.ISeedSequence.register(_TrialKey)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for words in _trial_words(base_seed, snr_index, np.arange(start, start + count)):
        yield generator(pcg64(_TrialKey(words)))


def _mc_cell(
    filters: dict[CovarianceMatrix | None, np.ndarray],
    r_mc_sqrt: np.ndarray,
    rho: float,
    snr_index: int,
    trials: int,
    base_seed: int,
) -> dict[CovarianceMatrix | None, tuple[float, float]]:
    """Empirical squared-error mean and standard error per filter, keyed by prior.

    Trial t draws its 4M standard normals from the stream of ``_trial_rng(
    base_seed, snr_index, t)`` in one call, in the order iid real, iid
    imaginary, noise real, noise imaginary: the stream two
    ``complex_normal(rng, M)`` calls consume.  Trials run ``_MC_BLOCK`` at a
    time: the block's keys are computed at once by ``_trial_words``, each
    seeds its trial's PCG64 in ``_trial_rngs`` (``_trial_rng`` is their
    oracle), its draws go into one block buffer, and its products and
    squared-error sums run on M x block arrays reused across blocks and
    filters.  Once a block's draws are staged into ``work`` and ``noise``,
    the draw buffer's storage holds h in its first half and the squared
    errors in its second, so a block lives in the draws and two complex
    M x block buffers.  The least-squares filter (key None) is d I, so its
    estimate is y times d, which equals the product with d I bit for bit.
    """
    m = r_mc_sqrt.shape[0]
    sums = dict.fromkeys(filters, 0.0)
    sq_sums = dict.fromkeys(filters, 0.0)
    sqrt_rho = math.sqrt(rho)
    width = min(_MC_BLOCK, trials)
    flat_draws = np.empty(4 * m * width)
    draws = flat_draws.reshape(width, 4 * m)
    # flat buffers, so a short last block is still a C-contiguous (m, count)
    # array and every product and reduction sees the same layout
    flat = [np.empty(m * width, dtype=complex) for _ in range(2)]
    for start in range(0, trials, _MC_BLOCK):
        count = min(_MC_BLOCK, trials - start)
        work, noise = (buf[: m * count].reshape(m, count) for buf in flat)
        h = flat_draws[: 2 * m * count].view(complex).reshape(m, count)
        sq_err = flat_draws[2 * m * width : (2 * width + count) * m].reshape(m, count)
        for j, rng in enumerate(_trial_rngs(base_seed, snr_index, start, count)):
            rng.standard_normal(out=draws[j])
        block = draws[:count].T
        work.real[:] = block[:m]
        work.imag[:] = block[m : 2 * m]
        noise.real[:] = block[2 * m : 3 * m]
        noise.imag[:] = block[3 * m :]
        # (re + 1j*im) / sqrt(2) bit for bit; ``work`` holds the iid draws,
        # then sqrt(rho) h, then each estimator's error
        work /= np.sqrt(2.0)
        noise /= np.sqrt(2.0)
        np.matmul(r_mc_sqrt, work, out=h)
        np.multiply(h, sqrt_rho, out=work)
        y = np.add(noise, work, out=noise)  # IEEE addition commutes
        for prior, w in filters.items():
            if prior is None:
                estimate = np.multiply(y, w[0, 0], out=work)
            else:
                estimate = np.matmul(w, y, out=work)
            err = np.subtract(h, estimate, out=work)
            np.abs(err, out=sq_err)
            np.square(sq_err, out=sq_err)
            sq = np.sum(sq_err, axis=0)
            sums[prior] += float(np.sum(sq))
            sq_sums[prior] += float(np.sum(sq * sq))
    out = {}
    for prior in filters:
        mean = sums[prior] / trials
        var = max(sq_sums[prior] / trials - mean * mean, 0.0) * trials / max(trials - 1, 1)
        out[prior] = (mean, math.sqrt(var / trials))
    return out


def run_sweep(config: SweepConfig, channel: Channel | None = None) -> SweepResult:
    """Run the analytic (and optionally Monte Carlo) MSE sweep.

    One ``mse_eigen_expansion`` call per distinct prior gives the analytic
    rows of every estimator that filters with it, and one filter per prior
    and SNR, the only filters built, their Monte Carlo columns.  An analytic
    MSE without a finite NMSE raises ValueError.  ``channel`` reuses a model
    from ``build_channel``; it must have been built from the same geometry,
    scenario and coupling.
    """
    if channel is None:
        channel = build_channel(config)
    elif channel.source != _channel_source(config):
        raise ValueError("channel was built from a different configuration")
    r_mc = channel.r_mc
    trace_mc = r_mc.trace()
    rhos = [pilot_snr(snr_db) for snr_db in config.snr_grid_db]

    priors = channel.priors(config.estimators)
    analytic = {prior: est.mse_eigen_expansion(prior, r_mc, rhos).tolist() for prior in priors}
    for prior, kinds in priors.items():
        for snr_db, mse in zip(config.snr_grid_db, analytic[prior]):
            check_positive_finite(
                mse / trace_mc, f"MSE / tr(R_mc) of {kinds[0]} at sweep.snr_db = {snr_db!r} dB"
            )

    # per SNR point, each prior's Monte Carlo mean and standard error
    cells = [dict.fromkeys(priors, (None, None))] * len(rhos)
    if config.mc_trials > 0:
        r_mc_sqrt = psd_sqrt(r_mc)
        for snr_index, rho in enumerate(rhos):
            filters = {prior: channel.estimator(prior, rho).filter for prior in priors}
            cells[snr_index] = _mc_cell(
                filters, r_mc_sqrt, rho, snr_index, config.mc_trials, config.base_seed
            )

    rows: list[SweepRow] = []
    for kind in config.estimators:
        prior = channel.prior(kind)
        for snr_db, mse, cell in zip(config.snr_grid_db, analytic[prior], cells):
            mc_mse, mc_stderr = cell[prior]
            rows.append(
                SweepRow(
                    estimator=kind,
                    snr_db=float(snr_db),
                    analytic_mse=mse,
                    analytic_nmse_db=10.0 * math.log10(mse / trace_mc),
                    mc_mse=mc_mse,
                    mc_stderr=mc_stderr,
                )
            )
    return SweepResult(rows=rows)


def gap_report(result: SweepResult, reference: str) -> dict[str, np.ndarray]:
    """Per-estimator dB gaps relative to a reference estimator's analytic MSE.

    Raises KeyError when the reference is absent from the result.
    """
    estimators = result.estimators()
    if reference not in estimators:
        raise KeyError(f"reference estimator {reference!r} not present in result")
    grid = result.snr_grid_db()
    ref = np.array([result.row(reference, s).analytic_mse for s in grid])
    gaps = {}
    for kind in estimators:
        mse = np.array([result.row(kind, s).analytic_mse for s in grid])
        gaps[kind] = 10.0 * np.log10(mse / ref)
    return gaps
