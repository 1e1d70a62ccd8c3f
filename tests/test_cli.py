"""CLI behavior: config parsing, CSV/SVG emission, exit codes."""

import math
import sys
import xml.etree.ElementTree as ET

import pytest

from holoest import correlation, coupling
from holoest.cli import main
from holoest.config import ConfigError, load_config, parse_config

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

    def test_removed_quad_tol_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(
                "scenario.series_tol = 1e-12\nscenario.quad_tol = 1e-9\n", source="t.cfg"
            )
        assert "t.cfg:2" in str(err.value)
        assert "quad_tol" in str(err.value)
        path = tmp_path / "old.cfg"
        path.write_text("scenario.quad_tol = 1e-9\n", encoding="utf-8")
        assert main(["--config", str(path), "--quiet", "validate"]) == 1

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("nosuch.key = 1\n")
        assert ":1" in str(err.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("geometry.m_y = soon\n")
        assert ":1" in str(err.value)

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

    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.geometry().m_y == 10
        assert config.scenario_kind() == "isotropic"


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

    def test_validation_mode_failure_exits_4(self, tmp_path, biased_mc_cell, capsys):
        path = tmp_path / "strict.cfg"
        path.write_text(SMALL + "sweep.validation_mode = true\n", encoding="utf-8")
        code = main(["--config", str(path), "--quiet", "sweep", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "5 SE" in err

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

    def test_corrupted_series_tolerance_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text(SMALL + "scenario.series_tol = 1e3\n", encoding="utf-8")
        code = main(["--config", str(path), "--quiet", "validate"])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL  series_vs_quadrature" in out


class TestSubspaceCommand:
    def test_reports_ranks_and_residuals(self, small_cfg, capsys):
        code = main(["--config", small_cfg, "--quiet", "subspace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank_r_iso" in out
        assert "scenario1_in_scenario2" in out


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
