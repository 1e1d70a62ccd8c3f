"""tools/outputs.py: run two tiny invocations, then compare the runs."""

import importlib.util
import shutil
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
_2X2 = "geometry.m_y = 2\ngeometry.m_z = 2\nsweep.mc_trials = 0\n"


def _load_tool():
    spec = importlib.util.spec_from_file_location("outputs_tool", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_a_perturbed_column_an_exit_code_and_a_verdict(
    tmp_path, monkeypatch, capsys
):
    tool = _load_tool()
    monkeypatch.setattr(
        tool,
        "INVOCATIONS",
        {
            "sweep_2x2": (_2X2, ["sweep", "--out", "out"]),
            "validate_2x2": (_2X2, ["validate"]),
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert tool.main(["run", str(a)]) == 0
    assert "sweep_2x2: exit 0" in capsys.readouterr().out
    assert (a / "validate_2x2" / "exit").read_text() == "0\n"
    shutil.copytree(a, b)
    assert tool.compare(a, b) == ["11 of 11 files byte-identical"]

    sweep = b / "sweep_2x2" / "out" / "sweep.csv"
    lines = sweep.read_text().splitlines()
    fields = lines[3].split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-6))
    lines[3] = ",".join(fields)
    sweep.write_text("\n".join(lines) + "\n")
    (b / "validate_2x2" / "exit").write_text("4\n")
    stdout = b / "validate_2x2" / "stdout"
    stdout.write_text(stdout.read_text().replace("PASS  monte_carlo", "FAIL  monte_carlo"))

    assert tool.main(["compare", str(a), str(b)]) == 0
    report = capsys.readouterr().out.splitlines()
    assert "sweep_2x2/out/sweep.csv: differs" in report
    column = [line for line in report if line.startswith("  column ")]
    assert len(column) == 1 and column[0].startswith("  column analytic_mse: worst abs ")
    assert "rel 1.000e-06 (worst at line 4)" in column[0]
    assert "  exit code 0 -> 4" in report
    assert any(
        line.startswith("  line ") and line.endswith("monte_carlo_consistency PASS -> FAIL")
        for line in report
    )
    assert report[-1] == "8 of 11 files byte-identical"
