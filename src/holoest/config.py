"""Line-oriented configuration files: ``section.key = value``.

Plain text with ``#`` comments; unknown sections or keys, numbers that are
not finite, SNR points whose pilot SNR is not a finite positive double,
start:step:stop grids of more than 10000 points, repeated estimators and a
series tolerance outside (0, 1e-6] are rejected with the offending line
number so scenario files stay diffable and typo-proof.  All physical
quantities carry their units in REFERENCE_CONFIG.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import estimation as est
from .correlation import ClusterScenario, check_series_tol
from .experiments import CouplingConfig, SweepConfig, pilot_snr
from .geometry import UpaGeometry

__all__ = ["ConfigError", "CliConfig", "REFERENCE_CONFIG", "parse_config", "load_config"]

_MAX_GRID_POINTS = 10_000  # start:step:stop cap, as REFERENCE_CONFIG states
REFERENCE_CONFIG = """\
# Array layout (spacings and dipole dimensions in wavelengths)
geometry.m_y = 10
geometry.m_z = 10
geometry.d_y = 0.2
geometry.d_z = 0.2
geometry.dipole_length = 0.5
geometry.dipole_radius = 0.002

# Coupling operating point
coupling.frequency = 3.0e9        # Hz
coupling.conductivity = 5.8e7     # S/m (copper)
coupling.use_full_impedance = false

# Propagation scenario: kind = isotropic | cluster.
# Cluster mode needs either a scenario JSON file or a generator seed.
scenario.kind = isotropic
scenario.file =
scenario.seed =
scenario.series_tol = 1e-12       # truncation of the isotropic series, at most 1e-6

# SNR sweep (start:step:stop inclusive, at most 10000 points, or a list, in dB)
sweep.snr_db = -10:2:24
sweep.mc_trials = 10000           # 0 disables Monte Carlo
sweep.estimators = mmse_true,mmse_coupling_aware_iso,mmse_iso,ls
sweep.base_seed = 20240605
sweep.validation_mode = false

# Output formatting
output.precision = 17             # significant digits in CSV floats
"""


class ConfigError(ValueError):
    """Malformed configuration input; message carries the line number."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _int_at_least(low: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


def _parse_snr_grid(raw: str) -> tuple[float, ...]:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:step:stop")
        start, step, stop = (_parse_float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        pilot_snr(start)
        pilot_snr(stop)  # before the points between them are generated
        span = (stop - start) / step + 1e-9  # counted before any point is built
        if not span < _MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {_MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        if count < 1:
            raise ValueError("empty SNR grid")
        grid = tuple(start + i * step for i in range(count))
    else:
        grid = tuple(_parse_float(p) for p in raw.split(",") if p.strip())
    for snr_db in grid:
        pilot_snr(snr_db)
    return grid


def _parse_estimators(raw: str) -> tuple[str, ...]:
    kinds = tuple(p.strip() for p in raw.split(",") if p.strip())
    for kind in kinds:
        if kind not in est.ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator {kind!r}")
    if not kinds:
        raise ValueError("estimator list is empty")
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"estimator list repeats a kind: {raw.strip()!r}")
    return kinds


# section -> key -> (parser, default)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "geometry": {
        "m_y": (int, 10),
        "m_z": (int, 10),
        "d_y": (_parse_float, 0.2),
        "d_z": (_parse_float, 0.2),
        "dipole_length": (_parse_float, 0.5),
        "dipole_radius": (_parse_float, 0.002),
    },
    "coupling": {
        "frequency": (_parse_float, 3.0e9),
        "conductivity": (_parse_float, 5.8e7),
        "use_full_impedance": (_parse_bool, False),
    },
    "scenario": {
        "kind": (str, "isotropic"),
        "file": (str, ""),
        "seed": (_int_at_least(0), None),
        "series_tol": (lambda raw: check_series_tol(_parse_float(raw)), 1e-12),
    },
    "sweep": {
        "snr_db": (_parse_snr_grid, tuple(range(-10, 25, 2))),
        "mc_trials": (int, 10_000),
        "estimators": (_parse_estimators, est.ESTIMATOR_KINDS),
        "base_seed": (_int_at_least(0), 20240605),
        "validation_mode": (_parse_bool, False),
    },
    "output": {
        "precision": (_int_at_least(1), 17),
    },
}


@dataclass
class CliConfig:
    """Typed view of a parsed configuration file plus override helpers."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)
    source: str = "<defaults>"

    def get(self, section: str, key: str):
        if key in self.values.get(section, {}):
            return self.values[section][key]
        return _SCHEMA[section][key][1]

    def geometry(self) -> UpaGeometry:
        return UpaGeometry(
            m_y=self.get("geometry", "m_y"),
            m_z=self.get("geometry", "m_z"),
            d_y=self.get("geometry", "d_y"),
            d_z=self.get("geometry", "d_z"),
            dipole_length=self.get("geometry", "dipole_length"),
            dipole_radius=self.get("geometry", "dipole_radius"),
        )

    def coupling(self) -> CouplingConfig:
        return CouplingConfig(
            frequency=self.get("coupling", "frequency"),
            conductivity=self.get("coupling", "conductivity"),
            use_full_impedance=self.get("coupling", "use_full_impedance"),
        )

    def scenario_kind(self) -> str:
        kind = self.get("scenario", "kind")
        if kind not in ("isotropic", "cluster"):
            raise ConfigError(f"scenario.kind must be isotropic or cluster, got {kind!r}")
        return kind

    def cluster_scenario(self, seed_override: int | None = None) -> ClusterScenario:
        """Load or generate the cluster scenario; raises when neither is possible."""
        from .experiments import default_cluster_scenario

        path = self.get("scenario", "file")
        if path:
            with open(path, "r", encoding="utf-8") as handle:
                try:
                    return ClusterScenario.from_dict(json.load(handle))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"{path}: malformed cluster scenario ({type(exc).__name__}: {exc})"
                    ) from exc
        seed = seed_override if seed_override is not None else self.get("scenario", "seed")
        if seed is None:
            raise ConfigError(
                "cluster scenario requires scenario.file or scenario.seed (or --seed)"
            )
        return default_cluster_scenario(int(seed))

    def sweep_config(self, seed_override: int | None = None) -> SweepConfig:
        kind = self.scenario_kind()
        scenario = (
            "isotropic" if kind == "isotropic" else self.cluster_scenario(seed_override)
        )
        base_seed = (
            seed_override if seed_override is not None else self.get("sweep", "base_seed")
        )
        return SweepConfig(
            geometry=self.geometry(),
            scenario=scenario,
            snr_grid_db=tuple(self.get("sweep", "snr_db")),
            estimators=tuple(self.get("sweep", "estimators")),
            mc_trials=self.get("sweep", "mc_trials"),
            base_seed=int(base_seed),
            coupling=self.coupling(),
            series_tol=self.get("scenario", "series_tol"),
            validation_mode=self.get("sweep", "validation_mode"),
        )

    def float_format(self) -> str:
        return f"%.{self.get('output', 'precision')}g"


def parse_config(text: str, source: str = "<string>") -> CliConfig:
    values: dict[str, dict[str, object]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value'")
        name, _, raw_value = line.partition("=")
        name = name.strip()
        raw_value = raw_value.strip()
        if "." not in name:
            raise ConfigError(f"{source}:{lineno}: key {name!r} lacks a section prefix")
        section, _, key = name.partition(".")
        if section not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown section {section!r}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {name!r}")
        if raw_value == "":
            continue  # explicit blank keeps the default
        parser = _SCHEMA[section][key][0]
        try:
            value = parser(raw_value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {name}: {exc}") from exc
        values.setdefault(section, {})[key] = value
    return CliConfig(values=values, source=source)


def load_config(path: str | Path | None) -> CliConfig:
    """Parse a config file; None gives the built-in defaults."""
    if path is None:
        return CliConfig()
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))
