"""The benchmark's traced run completes on a small array and sees the sweep's MSE route."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_LAUNCH = _ROOT / "perfbench" / "launch.py"  # read, not edited

_CONFIG = """
geometry.m_y = 2
geometry.m_z = 2
geometry.d_y = 0.2
geometry.d_z = 0.2
sweep.snr_db = -10:10:20
sweep.mc_trials = 1000
"""


@pytest.mark.parametrize("command", [["validate"], ["sweep", "--out", "sweep_out"]])
def test_traced_command_reports_eigen_expansion(tmp_path, command):
    config = tmp_path / "small.cfg"
    config.write_text(_CONFIG, encoding="utf-8")
    record_path = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(_LAUNCH), "trace", str(record_path)]
        + ["--config", str(config), "--quiet", *command],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert record["functions"]["estimation.mse_eigen_expansion"]["calls"] > 0
