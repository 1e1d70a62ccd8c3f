"""CLI behavior: config parsing, CSV/SVG emission, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import holoest
from holoest import cli, config, correlation, coupling, linalg
from holoest.cli import main
from holoest.config import REFERENCE_CONFIG, CliConfig, ConfigError, load_config, parse_config
from holoest.experiments import CouplingConfig, SweepConfig, gap_report, run_sweep
from holoest.geometry import UpaGeometry

pytestmark = pytest.mark.filterwarnings("ignore::holoest.coupling.GeometryOverlapWarning")

SMALL = """
geometry.m_y = 2
geometry.m_z = 2
geometry.d_y = 0.2
geometry.d_z = 0.2
sweep.snr_db = -10:10:20
sweep.mc_trials = 1000
"""

SINGLE = """
geometry.m_y = 1
geometry.m_z = 1
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL, encoding="utf-8")
    return str(path)


@pytest.fixture
def single_cfg(tmp_path):
    path = tmp_path / "single.cfg"
    path.write_text(SINGLE, encoding="utf-8")
    return str(path)


def reject(tmp_path, capsys, text, flags=()):
    """Run ``sweep`` on a config of ``text``: it must exit 1 with one stderr
    line and write nothing.  Returns the config path and that line."""
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main([*flags, "--config", str(path), "--quiet", "sweep", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out_dir.exists()
    return path, lines[0]


# (key, value) rows, each one value outside its key's rule
_REJECTED = [
    *((key, v) for key in ("geometry.m_y", "geometry.m_z") for v in ("0", "-1", "2.5")),
    *(
        (f"geometry.{key}", v)
        for key in ("d_y", "d_z", "dipole_length", "dipole_radius")
        for v in ("0", "-1")
    ),
    *((f"coupling.{key}", v) for key in ("frequency", "conductivity") for v in ("0", "-1")),
    ("sweep.mc_trials", "-1"),
    ("sweep.mc_trials", "50"),
    ("sweep.mc_trials", "4294967297"),  # past 2**32, trial keys need two words
    ("sweep.snr_db", "4, -4"),
    ("sweep.snr_db", "4, 4"),  # used to write every row twice
    ("sweep.snr_db", "4:2:-4"),
    ("sweep.snr_db", "10:5e-324:-10"),  # used to overflow counting its points
    ("scenario.kind", "banana"),
    ("sweep.base_seed", "1.5"),
    ("scenario.seed", "7.0"),
    ("coupling.use_full_impedance", "maybe"),
]

# every key whose value is a number (or, for sweep.snr_db, a list of them)
_NUMERIC_KEYS = (
    *(
        f"geometry.{key}"
        for key in ("m_y", "m_z", "d_y", "d_z", "dipole_length", "dipole_radius")
    ),
    "coupling.frequency",
    "coupling.conductivity",
    "scenario.seed",
    "sweep.snr_db",
    "sweep.mc_trials",
    "sweep.base_seed",
    "output.precision",
)


def count_calls(monkeypatch, func):
    """Wrap ``func`` wherever a holoest module binds it; return the call log."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "holoest":
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


class TestConfigParsing:
    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("geometry.m_y = 4\ngeometry.bogus = 1\n", source="test.cfg")
        assert "test.cfg:2" in str(err.value)
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize(
        "key", ["scenario.quad_tol", "scenario.series_tol", "sweep.validation_mode"]
    )
    def test_removed_quad_tol_key_rejected(self, tmp_path, capsys, key):
        with pytest.raises(ConfigError) as err:
            parse_config(f"scenario.kind = isotropic\n{key} = 1e-9\n", source="t.cfg")
        assert str(err.value) == f"t.cfg:2: unknown key {key!r}"
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = 1e-9\n", encoding="utf-8")
        assert main(["--config", str(path), "--quiet", "validate"]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: unknown key {key!r}\n"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("nosuch.key = 1\n")
        assert ":1" in str(err.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("geometry.m_y = soon\n")
        assert ":1" in str(err.value)
        # a grid past the 10000-point cap is counted, never built
        with pytest.raises(ConfigError) as err:
            parse_config("geometry.m_y = 2\nsweep.snr_db = 0:1e-12:1\n")
        assert ":2" in str(err.value) and "sweep.snr_db" in str(err.value)

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# hello\n\ngeometry.m_y = 3  # trailing\n")
        assert config.get("geometry", "m_y") == 3

    def test_blank_value_keeps_default(self):
        config = parse_config("scenario.file =\n")
        assert config.get("scenario", "file") == ""

    def test_snr_grid_forms(self):
        config = parse_config("sweep.snr_db = -4:2:4\n")
        assert config.get("sweep", "snr_db") == (-4.0, -2.0, 0.0, 2.0, 4.0)
        config = parse_config("sweep.snr_db = 1, 3, 7\n")
        assert config.get("sweep", "snr_db") == (1.0, 3.0, 7.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key, template",
        [
            ("geometry.d_y", "{}"),
            ("geometry.d_z", "{}"),
            ("geometry.dipole_length", "{}"),
            ("geometry.dipole_radius", "{}"),
            ("coupling.frequency", "{}"),
            ("coupling.conductivity", "{}"),
            ("sweep.snr_db", "-4, {}, 8"),
            ("sweep.snr_db", "{}:2:4"),
            ("sweep.snr_db", "-4:{}:4"),
            ("sweep.snr_db", "-4:2:{}"),
        ],
        ids=lambda p: p.replace("{}", "x").replace(", ", ","),
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, template, bad):
        text = f"geometry.m_y = 2\n{key} = {template.format(bad)}\n"
        path, line = reject(tmp_path, capsys, text)
        assert line.startswith(f"error: {path}:2: bad value for {key}: ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("output.precision", "0"),
            ("output.precision", "-1"),
            ("sweep.base_seed", "-1"),
            ("scenario.seed", "-1"),
            ("--seed", "-1"),
        ],
    )
    def test_out_of_range_integer_rejected(self, tmp_path, capsys, key, value):
        if key == "--seed":
            _, line = reject(tmp_path, capsys, "geometry.m_y = 2\n", ["--seed", value])
            assert line.startswith("error: --seed: ")
            return
        path, line = reject(tmp_path, capsys, f"geometry.m_y = 2\n{key} = {value}\n")
        assert line.startswith(f"error: {path}:2: bad value for {key}: ")

    @pytest.mark.parametrize("bad", ["1e300", "-1e300"])
    @pytest.mark.parametrize("template", ["{}", "-4, {}, 8"])
    def test_snr_point_outside_pilot_snr_domain_rejected(
        self, tmp_path, capsys, template, bad
    ):
        # 10^(snr/10) overflows to inf at 1e300 dB and underflows to 0 at -1e300
        text = f"geometry.m_y = 2\nsweep.snr_db = {template.format(bad)}\n"
        path, line = reject(tmp_path, capsys, text)
        assert line.startswith(f"error: {path}:2: bad value for sweep.snr_db: ")

    @pytest.mark.parametrize("snr_db", ["3000", "-3080"])
    def test_snr_point_without_finite_nmse_is_error(self, tmp_path, capsys, snr_db):
        # inside the pilot-SNR domain: at -3080 dB LS's M / rho overflows; at
        # 3000 dB mmse_true's MSE, about 1e-299, is far below the roundoff
        # floor of its residual term
        path = tmp_path / "extreme.cfg"
        path.write_text(
            f"geometry.m_y = 2\nsweep.mc_trials = 0\nsweep.snr_db = {snr_db}\n"
        )
        out_dir = tmp_path / "out"
        code = main(["--config", str(path), "--quiet", "sweep", "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "sweep.snr_db" in lines[0] and snr_db in lines[0]
        assert not (out_dir / "sweep.csv").exists()

    def test_repeated_estimator_rejected(self, tmp_path, capsys):
        # ls,ls used to write every ls row twice
        text = "geometry.m_y = 2\nsweep.estimators = ls, mmse_iso, ls\n"
        path, line = reject(tmp_path, capsys, text)
        assert line.startswith(f"error: {path}:2: bad value for sweep.estimators: ")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sweep.base_seed", "-1", "expected an integer >= 0, got -1"),
            ("scenario.seed", "-3", "expected an integer >= 0, got -3"),
            ("coupling.use_full_impedance", "maybe", "expected a boolean, got 'maybe'"),
            (
                "sweep.mc_trials",
                "50",
                "expected 0 (no Monte Carlo) or 100 to 2**32 trials, got 50",
            ),
        ],
    )
    def test_shared_rule_message(self, tmp_path, capsys, key, value, message):
        # the owning type's rule, applied by the parser, prints the parser's message
        path, line = reject(tmp_path, capsys, f"geometry.m_y = 2\n{key} = {value}\n")
        assert line == f"error: {path}:2: bad value for {key}: {message}"

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0", "expected a positive finite number, got 0"),
            ("2.5", "invalid literal for int() with base 10: '2.5'"),
        ],
    )
    @pytest.mark.parametrize("key", ["geometry.m_y", "geometry.m_z"])
    def test_array_size_message(self, tmp_path, capsys, key, value, message):
        # the sizes take geometry's integer rule; the parser's messages are kept
        path, line = reject(tmp_path, capsys, f"geometry.m_y = 2\n{key} = {value}\n")
        assert line == f"error: {path}:2: bad value for {key}: {message}"

    @pytest.mark.parametrize("key, value", _REJECTED)
    def test_rejected_value_names_line_and_key(self, tmp_path, capsys, key, value):
        path, line = reject(tmp_path, capsys, f"geometry.m_y = 2\n{key} = {value}\n")
        assert line.startswith(f"error: {path}:2: bad value for {key}: ")

    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.geometry().m_y == 10
        assert config.get("scenario", "kind") == "isotropic"

    def test_reference_config_is_the_only_list_of_defaults(self):
        parsed = parse_config(REFERENCE_CONFIG)
        defaults = CliConfig()
        for section, parsers in config._SCHEMA.items():
            assert all(callable(parse) for parse in parsers.values())
            for key in parsers:
                assert parsed.get(section, key) == defaults.get(section, key), key
        # blank in REFERENCE_CONFIG: no scenario file and no seed
        assert (defaults.get("scenario", "file"), defaults.get("scenario", "seed")) == ("", None)
        geometry = UpaGeometry(m_y=10, m_z=10, d_y=0.2, d_z=0.2)
        assert parsed.geometry() == geometry
        assert parsed.coupling() == CouplingConfig()
        assert parsed.sweep_config() == SweepConfig(geometry=geometry)


class TestCorrelationCommand:
    def test_single_element_csv(self, single_cfg, tmp_path):
        out = tmp_path / "corr.csv"
        code = main(["--config", single_cfg, "--quiet", "correlation", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,m,re,im"
        assert len(lines) == 2
        n, m, re, im = lines[1].split(",")
        assert (n, m, im) == ("0", "0", "0")
        assert float(re) == pytest.approx(1.67 * 3 * math.pi / 16, abs=1e-12)

    def test_matrix_lines_equal_per_entry_formatting(self, tmp_path):
        entries = np.array(
            [[1.5 - 0.0j, -0.0 + 2.0j], [complex(1 / 3, -1e-300), complex(-7e22, 0.1)]]
        )
        for matrix, fmt in [(entries, "%.17g"), (entries, "%.4g"), (entries.real, "%.17g")]:
            lines = ["n,m,re,im"]
            for n in range(2):
                for j in range(2):
                    value = complex(matrix[n, j])
                    lines.append(f"{n},{j},{fmt % value.real},{fmt % value.imag}")
            out = tmp_path / "m.csv"
            cli._write_matrix_csv(out, matrix, fmt)
            assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_deterministic_output(self, small_cfg, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", small_cfg, "--quiet", "correlation", "--out", str(out1)]) == 0
        assert main(["--config", small_cfg, "--quiet", "correlation", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_quadrature_mode_matches_series(self, single_cfg, tmp_path):
        out_series = tmp_path / "s.csv"
        out_quad = tmp_path / "q.csv"
        main(["--config", single_cfg, "--quiet", "correlation", "--out", str(out_series)])
        main(
            [
                "--config",
                single_cfg,
                "--quiet",
                "correlation",
                "--mode",
                "quadrature",
                "--out",
                str(out_quad),
            ]
        )
        series = float(out_series.read_text().splitlines()[1].split(",")[2])
        quad = float(out_quad.read_text().splitlines()[1].split(",")[2])
        assert series == pytest.approx(quad, abs=1e-8)

    def test_cluster_mode_without_scenario_is_usage_error(self, small_cfg, tmp_path, capsys):
        code = main(
            [
                "--config",
                small_cfg,
                "--quiet",
                "correlation",
                "--mode",
                "cluster",
                "--out",
                str(tmp_path / "c.csv"),
            ]
        )
        assert code == 1
        assert "scenario" in capsys.readouterr().err

    def test_cluster_mode_with_seed_override(self, small_cfg, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            [
                "--config",
                small_cfg,
                "--quiet",
                "--seed",
                "5",
                "correlation",
                "--mode",
                "cluster",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 4

    def test_quadrature_mode_matches_iso_on_3x3(self, tmp_path):
        path = tmp_path / "3x3.cfg"
        path.write_text("geometry.m_y = 3\ngeometry.m_z = 3\n", encoding="utf-8")
        values = {}
        for mode in ("iso", "quadrature"):
            out = tmp_path / f"{mode}.csv"
            argv = ["--config", str(path), "--quiet", "correlation", "--mode", mode]
            assert main([*argv, "--out", str(out)]) == 0
            rows = out.read_text().strip().splitlines()[1:]
            values[mode] = [complex(*map(float, r.split(",")[2:])) for r in rows]
        assert len(values["iso"]) == len(values["quadrature"]) == 81
        for iso, quad in zip(values["iso"], values["quadrature"]):
            assert quad == pytest.approx(iso, abs=1e-8)

    @staticmethod
    def _far_correlation(tmp_path, capsys, mode, d_y):
        """Run `correlation --mode <mode>` at geometry.d_y = d_y: its one stderr line."""
        path = tmp_path / "far.cfg"
        path.write_text(f"geometry.d_y = {d_y}\nscenario.seed = 1\n", encoding="utf-8")
        out = tmp_path / "far.csv"
        argv = ["--config", str(path), "--quiet", "correlation", "--mode", mode]
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: ")
        return lines[0]

    @pytest.mark.parametrize(
        "mode, offset",
        [
            ("quadrature", "(0.0, 100.0, 0.2)"),
            ("iso", "(100.0, 0.2)"),
            ("cluster", "(100.0, 0.2)"),
        ],
    )
    def test_separation_beyond_checked_range_exits_3(self, tmp_path, capsys, mode, offset):
        # offsets reach 180 wavelengths; the quadrature oracle used to refine
        # for about 4 minutes before giving up
        line = self._far_correlation(tmp_path, capsys, mode, "20")
        assert offset in line and "checked range of 100" in line

    def test_cluster_separation_of_1e300_exits_3(self, tmp_path, capsys):
        # cluster panel orders grow with the separation: this one would ask
        # for a Gauss-Legendre rule of over 1e300 nodes
        line = self._far_correlation(tmp_path, capsys, "cluster", "1e300")
        assert "cluster offset (1e+300, 0.0)" in line and "checked range of 100" in line


_CLUSTER = {"power": 1.0, "azimuth": 0.1, "elevation": -0.2, "sigma_phi": 0.05}
# values a cluster field must reject when the file is read, naming the field:
# past the reader they fail far from their cause (a NaN spread as a
# non-converging eigensolver, a 1e-200 spread as a division by zero in kappa)
_BAD_FIELDS = [
    *(
        (key, value)
        for key in ("sigma_phi", "sigma_theta")
        for value in (math.nan, math.inf, -math.inf, 0.0, 1e-200)
    ),
    ("power", math.nan),
    ("power", math.inf),
]


class TestScenarioFile:
    @pytest.mark.parametrize(
        "content, detail",
        [
            ({"clusters": [_CLUSTER]}, "sigma_theta"),  # a cluster lacks a field
            ([dict(_CLUSTER, sigma_theta=0.05)], "TypeError"),  # top level is a list
            *(
                ({"clusters": [{**_CLUSTER, "sigma_theta": 0.05, key: value}]}, key)
                for key, value in _BAD_FIELDS
            ),
            # finite powers whose sum overflows
            ({"clusters": [dict(_CLUSTER, sigma_theta=0.05, power=1e308)] * 2}, "power"),
        ],
        ids=[
            "missing_key",
            "top_level_list",
            *(f"{key}={value!r}" for key, value in _BAD_FIELDS),
            "power_sum_overflows",
        ],
    )
    def test_malformed_file_is_config_error(self, tmp_path, capsys, content, detail):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(content), encoding="utf-8")
        path = tmp_path / "cluster.cfg"
        path.write_text(
            SMALL + f"scenario.kind = cluster\nscenario.file = {scenario}\n",
            encoding="utf-8",
        )
        out = tmp_path / "c.csv"
        code = main(
            [
                "--config",
                str(path),
                "--quiet",
                "correlation",
                "--mode",
                "cluster",
                "--out",
                str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(scenario) in lines[0] and detail in lines[0]
        assert not out.exists()


class TestSweepCommand:
    def test_csv_schema_and_ls_rows(self, small_cfg, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["--config", small_cfg, "--quiet", "sweep", "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "estimator,snr_db,analytic_mse,analytic_nmse_db,mc_mse,mc_stderr"
        assert len(lines) == 1 + 4 * 4  # four estimators, four SNR points
        ls_rows = [line for line in lines if line.startswith("ls,")]
        for row in ls_rows:
            fields = row.split(",")
            rho = 10.0 ** (float(fields[1]) / 10.0)
            assert float(fields[2]) == pytest.approx(4.0 / rho, rel=1e-12)
            assert fields[4] != ""  # Monte Carlo columns populated

    def test_snr_labels_parse_back_to_grid_points(self, tmp_path):
        # points closer than six significant digits used to print as one label
        path = tmp_path / "fine.cfg"
        path.write_text(
            "geometry.m_y = 2\ngeometry.m_z = 1\nsweep.mc_trials = 0\n"
            "sweep.snr_db = 10:0.00001:10.00003\nsweep.estimators = ls\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--quiet", "sweep", "--out", str(out_dir)]) == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()[1:]
        grid = load_config(str(path)).get("sweep", "snr_db")
        assert len(grid) == 4
        assert [float(line.split(",")[1]) for line in lines] == list(grid)

    @pytest.mark.parametrize("value", ["-1", "0", "1e-300", "1e300"])
    @pytest.mark.parametrize("key", _NUMERIC_KEYS)
    def test_extreme_numeric_value_exits_cleanly(self, tmp_path, capsys, key, value):
        # a value is rejected with its key, fails numerically, or sweeps to
        # finite MSEs; never a traceback
        section, name = key.split(".")
        assert name in config._SCHEMA[section]  # an unknown key would pass unread
        path = tmp_path / "extreme.cfg"
        path.write_text(
            f"geometry.m_y = 2\ngeometry.m_z = 2\nsweep.mc_trials = 0\n{key} = {value}\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code = main(["--config", str(path), "--quiet", "sweep", "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code in (0, 1, 3)
        assert "Traceback" not in err
        if code == 0:
            lines = (out_dir / "sweep.csv").read_text().strip().splitlines()[1:]
            for line in lines:
                fields = line.split(",")
                assert math.isfinite(float(fields[2])) and math.isfinite(float(fields[3]))
            return
        lines = [line for line in err.splitlines() if not line.startswith("warning:")]
        assert len(lines) == 1
        if code == 1:
            assert key in lines[0]

    def test_plot_emits_valid_svg(self, small_cfg, tmp_path):
        out_dir = tmp_path / "plotted"
        code = main(
            ["--config", small_cfg, "--quiet", "sweep", "--out", str(out_dir), "--plot"]
        )
        assert code == 0
        svg = out_dir / "sweep.svg"
        tree = ET.parse(svg)
        polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 4
        text = svg.read_text()
        for kind in ("mmse_true", "mmse_coupling_aware_iso", "mmse_iso", "ls"):
            assert kind in text

    def test_plot_and_gap_report_scan_rows_a_fixed_number_of_times(self, geom_2x2):
        # a row lookup used to scan every row, once per (estimator, SNR) cell,
        # so a 10 000-point plot took seconds
        class CountedRows(list):
            scans = 0

            def __iter__(self):
                self.scans += 1
                return super().__iter__()

        config = SweepConfig(geom_2x2, snr_grid_db=tuple(range(-10, 40)), mc_trials=0)
        result = run_sweep(config)
        result.rows = CountedRows(result.rows)
        cli.render_sweep_svg(result)
        gap_report(result, "mmse_true")
        assert result.rows.scans <= 5

    @pytest.mark.parametrize("d_y", ["1e300", "200"])
    def test_separation_beyond_bessel_range_exits_3(self, tmp_path, capsys, d_y):
        # both lie past the 100 wavelengths the Bessel rule's order is checked
        # on; 1e300 used to end in an OverflowError traceback from building
        # the Legendre rule
        path = tmp_path / "far.cfg"
        path.write_text(
            f"geometry.m_y = 2\ngeometry.d_y = {d_y}\nsweep.mc_trials = 0\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code = main(["--config", str(path), "--quiet", "sweep", "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: ")
        assert f"({float(d_y)}, 0.0)" in lines[0]
        assert not out_dir.exists()

    def test_indefinite_correlation_exits_3(self, small_cfg, tmp_path, capsys, monkeypatch):
        # negated off-diagonal entries make R_iso = 2I - R, far from PSD
        original = correlation.iso_entry

        def indefinite(dy, dz):
            values = np.asarray(original(dy, dz))
            return np.where((dy == 0) & (dz == 0), values, -values)

        monkeypatch.setattr(correlation, "iso_entry", indefinite)
        out_dir = tmp_path / "out"
        code = main(["--config", small_cfg, "--quiet", "sweep", "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error: matrix is not PSD: min eigenvalue ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("geometry.d_y", "1e-300"),
            ("geometry.d_y", "1e-10"),
            ("geometry.dipole_radius", "1e-300"),
        ],
    )
    def test_degenerate_wire_geometry_exits_1(self, tmp_path, capsys, key, value):
        # d_y below the wire diameter makes neighbouring wires intersect, and a
        # radius whose 4 pi a^2 / L is not a normal double gives Ci a zero or
        # subnormal argument; each is a configuration error naming its key
        path = tmp_path / "wire.cfg"
        path.write_text(f"geometry.m_y = 2\n{key} = {value}\nsweep.mc_trials = 0\n")
        out_dir = tmp_path / "out"
        code = main(["--config", str(path), "--quiet", "sweep", "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]
        assert not out_dir.exists()

    @pytest.mark.parametrize("m_z, d_y", [(10, "1e-10"), (40, "1e-7")])
    def test_tiny_wire_geometry_exits_0(self, tmp_path, capsys, m_z, d_y):
        # a 1e-12 radius admits d_y down to its diameter: the closed forms'
        # offsets hypot(d_y, L) - L are then far below the rounding error of
        # L, and taken by subtraction they rounded to a zero Ci argument
        path = tmp_path / "tiny.cfg"
        path.write_text(
            f"geometry.m_y = 2\ngeometry.m_z = {m_z}\ngeometry.dipole_radius = 1e-12\n"
            f"geometry.d_y = {d_y}\nsweep.mc_trials = 0\n"
        )
        out_dir = tmp_path / "out"
        code = main(["--config", str(path), "--quiet", "sweep", "--out", str(out_dir)])
        assert code == 0, capsys.readouterr().err
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(row.split(",")[2])) for row in rows)

    def test_sweeps_validate_and_quadrature_never_load_scipy(self, tmp_path):
        # importing scipy.special or scipy.integrate costs ~0.3 s, about half
        # the start-up of a short run; only sqrtm under use_full_impedance and
        # the gesvd retry of thin_svd load scipy, so neither the import, nor
        # analytic sweeps, subspace, validate or the quadrature oracle may
        analytic = SMALL.replace("mc_trials = 1000", "mc_trials = 0")
        configs = {
            "isotropic": analytic,
            "cluster": analytic + "scenario.kind = cluster\nscenario.seed = 1\n",
        }
        runs = []
        for name, text in configs.items():
            path = tmp_path / f"{name}.cfg"
            path.write_text(text, encoding="utf-8")
            sweep = ["sweep", "--out", str(tmp_path / name)]
            runs += [(f"{name} sweep", ["--config", str(path), "--quiet", *sweep])]
            runs += [(f"{name} subspace", ["--config", str(path), "--quiet", "subspace"])]
        path = tmp_path / "3x3.cfg"
        path.write_text("geometry.m_y = 3\ngeometry.m_z = 3\n", encoding="utf-8")
        quadrature = ["correlation", "--mode", "quadrature", "--out", str(tmp_path / "q")]
        runs += [("validate", ["--quiet", "validate"])]
        runs += [("3x3 quadrature", ["--config", str(path), "--quiet", *quadrature])]
        script = (
            "import sys\n"
            "def report(label, code):\n"
            "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "    print('loaded:', label, code, loaded)\n"
            "import holoest\n"
            "report('import', 0)\n"
            "from holoest.cli import main\n"
            f"for label, argv in {runs!r}:\n"
            "    report(label, main(argv))\n"
        )
        src = str(Path(holoest.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
            check=True,
        )
        reports = [line for line in done.stdout.splitlines() if line.startswith("loaded:")]
        assert reports == [
            f"loaded: {label} 0 []"
            for label in ("import", *(label for label, _ in runs))
        ]


class TestValidateCommand:
    def test_small_config_passes(self, small_cfg, capsys):
        code = main(["--config", small_cfg, "--quiet", "validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        # the output contract: one line per check, in this order, nothing else
        assert [line.split()[1] for line in out.splitlines()] == [
            "series_vs_quadrature",
            "zero_separation_value",
            "prop2_subspaces",
            "prop3_eigen_expansion",
            "monte_carlo_consistency",
        ]

    def test_channel_built_once(self, small_cfg, monkeypatch):
        iso_calls = count_calls(monkeypatch, correlation.iso_matrix)
        coupled_calls = count_calls(monkeypatch, coupling.effective_correlation)
        assert main(["--config", small_cfg, "--quiet", "validate"]) == 0
        assert len(iso_calls) == 1
        assert len(coupled_calls) == 1

    def test_filters_not_decomposed_again(self, small_cfg, monkeypatch):
        # R_iso's clamp and the coupling model's Re Z + R_d I; every filter
        # carries its own spectrum, so none is decomposed again
        eig_calls = count_calls(monkeypatch, linalg.hermitian_eig)
        assert main(["--config", small_cfg, "--quiet", "validate"]) == 0
        assert len(eig_calls) == 2

    def test_corrupted_series_tolerance_fails(self, small_cfg, capsys, monkeypatch):
        # validate must FAIL series_vs_quadrature when the series entries it
        # compares with the oracle are wrong
        def corrupted(dy, dz):
            return correlation.iso_entry(dy, dz) + 1e-3

        monkeypatch.setattr(cli, "iso_entry", corrupted)
        code = main(["--config", small_cfg, "--quiet", "validate"])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL  series_vs_quadrature" in out

    def test_biased_monte_carlo_fails(self, small_cfg, capsys, biased_mc_cell):
        # validate owns the Monte Carlo verdict: means 100 standard errors off
        # the analytic MSE fail its 3-SE bound, as a verdict and not a traceback
        code = main(["--config", small_cfg, "--quiet", "validate"])
        captured = capsys.readouterr()
        assert code == 4
        assert "FAIL  monte_carlo_consistency" in captured.out
        assert captured.out.splitlines()[-1] == "1 check(s) failed: monte_carlo_consistency"
        assert "Traceback" not in captured.out + captured.err


class TestSubspaceCommand:
    def test_reports_ranks_and_residuals(self, small_cfg, capsys):
        code = main(["--config", small_cfg, "--quiet", "subspace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank_r_iso" in out
        assert "scenario1_in_scenario2" in out

    @pytest.mark.parametrize("channel", ["channel_iso_10x10", "channel_clu_10x10"])
    def test_prop2_residuals_factor_only_r_iso_sqrt(self, channel, request, monkeypatch):
        # the coupled spaces are read from effective_correlation's factor SVDs
        channel = request.getfixturevalue(channel)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cli._prop2_residuals(channel)
        assert len(calls) == 1


class TestTopLevel:
    def test_print_config(self, capsys):
        assert main(["--print-config"]) == 0
        out = capsys.readouterr().out
        assert "geometry.m_y" in out
        assert "S/m" in out  # units documented

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["--frobnicate"]) == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "absent.cfg"), "validate"])
        assert code == 2

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("geometry.unknown = 1\n", encoding="utf-8")
        assert main(["--config", str(path), "validate"]) == 1

    def test_warning_prints_one_line(self, small_cfg, capsys):
        # d_z 0.2 is below the 0.5 dipole length; re-enable the warning the
        # module-level filter ignores
        with warnings.catch_warnings():
            warnings.simplefilter("always", coupling.GeometryOverlapWarning)
            assert main(["--config", small_cfg, "--quiet", "subspace"]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: vertical spacing is below the dipole length: stacked elements "
            "overlap and the impedance closed forms are extrapolated"
        ]
