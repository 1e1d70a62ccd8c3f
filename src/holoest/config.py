"""Line-oriented configuration files: ``section.key = value``.

Plain text with ``#`` comments.  REFERENCE_CONFIG, with every physical
quantity's unit, is the one list of defaults: a key a file leaves out or sets
blank takes its value there.  Each key's parser applies the rule of the type
that owns the value, so an unknown key or a value outside its rule is rejected
with its line number and ``section.key``, and scenario files stay diffable and
typo-proof.  Rules relating two keys stay with their owners and name both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

from .correlation import ClusterScenario
from .experiments import CouplingConfig, SweepConfig, default_cluster_scenario, pilot_snr
from .experiments import check_bool, check_estimators, check_mc_trials, check_seed
from .experiments import check_snr_grid
from .geometry import UpaGeometry, check_positive_finite, check_positive_integer

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

# SNR sweep (start:step:stop inclusive, at most 10000 points, or a list, in dB)
sweep.snr_db = -10:2:24
sweep.mc_trials = 10000           # 0 disables Monte Carlo
sweep.estimators = mmse_true,mmse_coupling_aware_iso,mmse_iso,ls
sweep.base_seed = 20240605

# Output formatting
output.precision = 17             # significant digits in CSV floats
"""


class ConfigError(ValueError):
    """Malformed configuration input; message carries the line number."""


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    return check_bool(_BOOL_WORDS.get(raw.lower(), raw))


def _parse_seed(raw: str) -> int | None:
    """An integer >= 0; blank, as REFERENCE_CONFIG leaves scenario.seed, is no seed."""
    return check_seed(int(raw)) if raw else None


def _parse_kind(raw: str) -> str:
    if raw not in ("isotropic", "cluster"):
        raise ValueError(f"expected isotropic or cluster, got {raw!r}")
    return raw


def _split(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _checked(parse, rule):
    """Parser that reads a raw value with ``parse`` and applies its owner's ``rule``."""
    return lambda raw: rule(parse(raw))


def _parse_snr_grid(raw: str) -> tuple[float, ...]:
    if ":" not in raw:
        return check_snr_grid(tuple(float(p) for p in _split(raw)))
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:step:stop")
    start, step, stop = (float(p) for p in parts)
    check_positive_finite(step, "grid step")
    if stop < start:
        raise ValueError(f"grid stop {stop!r} is below its start {start!r}")
    pilot_snr(start)
    pilot_snr(stop)  # before the points between them are generated
    span = (stop - start) / step + 1e-9  # counted before any point is built
    if not span < _MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {_MAX_GRID_POINTS} points")
    return check_snr_grid(tuple(start + i * step for i in range(math.floor(span) + 1)))


# section -> key -> parser; the defaults are REFERENCE_CONFIG's values
_SCHEMA: dict[str, dict[str, object]] = {
    "geometry": {
        "m_y": _checked(int, check_positive_integer),
        "m_z": _checked(int, check_positive_integer),
        "d_y": _checked(float, check_positive_finite),
        "d_z": _checked(float, check_positive_finite),
        "dipole_length": _checked(float, check_positive_finite),
        "dipole_radius": _checked(float, check_positive_finite),
    },
    "coupling": {
        "frequency": _checked(float, check_positive_finite),
        "conductivity": _checked(float, check_positive_finite),
        "use_full_impedance": _parse_bool,
    },
    "scenario": {
        "kind": _parse_kind,
        "file": str,
        "seed": _parse_seed,
    },
    "sweep": {
        "snr_db": _parse_snr_grid,
        "mc_trials": _checked(int, check_mc_trials),
        "estimators": _checked(_split, check_estimators),
        "base_seed": _parse_seed,
    },
    "output": {
        "precision": _checked(int, check_positive_integer),
    },
}


@dataclass
class CliConfig:
    """Typed view of a parsed configuration file plus override helpers."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def get(self, section: str, key: str):
        for values in (self.values, _reference().values):
            if key in values.get(section, {}):
                return values[section][key]
        return _SCHEMA[section][key]("")  # left blank in REFERENCE_CONFIG

    def section(self, name: str) -> dict[str, object]:
        """Every key of a section; the keys are the owning type's field names."""
        return {key: self.get(name, key) for key in _SCHEMA[name]}

    def geometry(self) -> UpaGeometry:
        return UpaGeometry(**self.section("geometry"))

    def coupling(self) -> CouplingConfig:
        return CouplingConfig(**self.section("coupling"))

    def cluster_scenario(self, seed_override: int | None = None) -> ClusterScenario:
        """Load or generate the cluster scenario; raises when neither is possible."""
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
        return default_cluster_scenario(seed)

    def sweep_config(self, seed_override: int | None = None) -> SweepConfig:
        kind = self.get("scenario", "kind")
        scenario = (
            "isotropic" if kind == "isotropic" else self.cluster_scenario(seed_override)
        )
        base_seed = (
            seed_override if seed_override is not None else self.get("sweep", "base_seed")
        )
        return SweepConfig(
            geometry=self.geometry(),
            scenario=scenario,
            snr_grid_db=self.get("sweep", "snr_db"),
            estimators=self.get("sweep", "estimators"),
            mc_trials=self.get("sweep", "mc_trials"),
            base_seed=base_seed,
            coupling=self.coupling(),
        )

    def float_format(self) -> str:
        return f"%.{self.get('output', 'precision')}g"


@cache
def _reference() -> CliConfig:
    """REFERENCE_CONFIG, parsed on first use."""
    return parse_config(REFERENCE_CONFIG, "REFERENCE_CONFIG")


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
        try:
            value = _SCHEMA[section][key](raw_value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {name}: {exc}") from exc
        values.setdefault(section, {})[key] = value
    return CliConfig(values=values)


def load_config(path: str | Path | None) -> CliConfig:
    """Parse a config file; None gives the built-in defaults."""
    if path is None:
        return CliConfig()
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))
