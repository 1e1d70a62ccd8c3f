"""Run a fixed list of holoest CLI invocations, and compare two such runs.

    python3 tools/outputs.py run DIR
        Run every invocation of INVOCATIONS with the holoest of the checkout
        this script sits in (its ``src``), at OPENBLAS_NUM_THREADS=1, each in
        its own directory DIR/NAME: its config file ``run.cfg`` (if any),
        ``args``, ``exit``, ``stdout``, ``stderr`` and the files it writes.
        Paths are relative to that directory, so they print the same in every
        run.  Prints each invocation's exit code and wall time.

    python3 tools/outputs.py compare A B
        Report, per invocation and file, byte identity or how far the two
        runs differ: per CSV column the worst absolute and relative
        difference, for other text the numeric tokens compared line by line,
        and any change of exit code or of a PASS/FAIL verdict.  It reports
        and gates nothing: it exits 0 whatever differs.

To compare two commits, run ``run`` from a checkout of each (the script can be
copied into a checkout that predates it) and ``compare`` the two directories.
Outputs differ at roundoff across BLAS thread counts, hence the fixed count,
and no golden outputs are kept.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_CLUSTER = "scenario.kind = cluster\n"
_ANALYTIC = "sweep.mc_trials = 0\n"


def _square(n: int, spacing: float | None = None) -> str:
    lines = f"geometry.m_y = {n}\ngeometry.m_z = {n}\n"
    if spacing is not None:
        lines += f"geometry.d_y = {spacing}\ngeometry.d_z = {spacing}\n"
    return lines


# name -> (config file text, holoest arguments); outputs go to "out" or "out.csv"
INVOCATIONS: dict[str, tuple[str, list[str]]] = {
    "sweep_mc2000": (
        "sweep.snr_db = -10:10:20\nsweep.mc_trials = 2000\n", ["sweep", "--out", "out"]
    ),
    "sweep_cluster_seed1": (_CLUSTER + _ANALYTIC, ["--seed", "1", "sweep", "--out", "out"]),
    "sweep_cluster_mc": (
        _CLUSTER + "sweep.snr_db = -10:10:20\nsweep.mc_trials = 1000\n",
        ["--seed", "1", "sweep", "--out", "out"],
    ),
    "validate": ("", ["validate"]),
    **{f"validate_seed{s}": ("", ["--seed", str(s), "validate"]) for s in (0, 1, 3, 7, 8)},
    "validate_cluster_seed1": (_CLUSTER, ["--seed", "1", "validate"]),
    "subspace": ("", ["subspace"]),
    "subspace_cluster_seed1": (_CLUSTER + _ANALYTIC, ["--seed", "1", "subspace"]),
    "correlation_iso": ("", ["correlation", "--mode", "iso", "--out", "out.csv"]),
    "correlation_cluster_seed1": (
        "", ["--seed", "1", "correlation", "--mode", "cluster", "--out", "out.csv"]
    ),
    "correlation_quadrature_3x3": (
        _square(3), ["correlation", "--mode", "quadrature", "--out", "out.csv"]
    ),
    **{
        f"sweep_{n}x{n}": (_square(n) + _ANALYTIC, ["sweep", "--out", "out"])
        for n in (8, 16, 20)
    },
    "sweep_32x32_2wl": (_square(32, 2.0) + _ANALYTIC, ["sweep", "--out", "out"]),
    "print_config": ("", ["--print-config"]),
}

# seconds per invocation, far above any listed run; one that hangs is recorded
# with the exit code "timeout"
_TIMEOUT_S = 900.0
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")
_VERDICT = re.compile(r"^(PASS|FAIL)\s+(\S+)")


def run(out_dir: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, (config, args) in INVOCATIONS.items():
        work = out_dir / name
        work.mkdir(parents=True)
        if config:
            (work / "run.cfg").write_text(config, encoding="utf-8")
            args = ["--config", "run.cfg", *args]
        (work / "args").write_text(" ".join(args) + "\n", encoding="utf-8")
        argv = [sys.executable, "-c", "from holoest.cli import entrypoint; entrypoint()"]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                argv + args, cwd=work, env=env, capture_output=True, timeout=_TIMEOUT_S
            )
            code, stdout, stderr = str(done.returncode), done.stdout, done.stderr
        except subprocess.TimeoutExpired as exc:
            code, stdout, stderr = "timeout", exc.stdout or b"", exc.stderr or b""
        seconds = time.perf_counter() - start
        (work / "exit").write_text(code + "\n", encoding="utf-8")
        (work / "stdout").write_bytes(stdout)
        (work / "stderr").write_bytes(stderr)
        print(f"{name}: exit {code} in {seconds:.2f} s", flush=True)


def _files(directory: Path) -> set[str]:
    return {p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file()}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


class _Worst:
    """Largest absolute and relative difference of paired numbers, and where."""

    def __init__(self) -> None:
        self.abs = self.rel = 0.0
        self.where = ""
        self.text = 0  # non-numeric or non-finite cells that differ

    def add(self, a: str, b: str, where: str) -> None:
        if a == b:
            return
        x, y = _number(a), _number(b)
        if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            self.text += 1
            self.where = self.where or where
            return
        diff, scale = abs(x - y), max(abs(x), abs(y))
        rel = diff / scale if scale else 0.0
        if not self.where or rel > self.rel:
            self.where = where
        self.abs, self.rel = max(self.abs, diff), max(self.rel, rel)

    def describe(self) -> str:
        parts = [f"worst abs {self.abs:.3e}, rel {self.rel:.3e}"]
        if self.text:
            parts.append(f"{self.text} non-numeric change(s)")
        return "; ".join(parts) + f" (worst at {self.where})"


def _compare_csv(a: Path, b: Path) -> list[str]:
    with a.open(newline="", encoding="utf-8") as fa, b.open(newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return ["header differs"]
    lines = [] if len(rows_a) == len(rows_b) else [f"rows {len(rows_a)} -> {len(rows_b)}"]
    header = rows_a[0]
    worst = {column: _Worst() for column in header}
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        for column, x, y in zip(header, ra, rb):
            worst[column].add(x, y, f"line {i}")
    for column, w in worst.items():
        if w.where:
            lines.append(f"column {column}: {w.describe()}")
    return lines


def _compare_text(a: Path, b: Path) -> list[str]:
    lines_a = a.read_text(encoding="utf-8", errors="replace").splitlines()
    lines_b = b.read_text(encoding="utf-8", errors="replace").splitlines()
    report = [] if len(lines_a) == len(lines_b) else [f"lines {len(lines_a)} -> {len(lines_b)}"]
    worst = _Worst()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la == lb:
            continue
        va, vb = _VERDICT.match(la), _VERDICT.match(lb)
        if va and vb and va.groups() != vb.groups():
            report.append(f"line {i}: {va[2]} {va[1]} -> {vb[1]}")
            continue
        tokens_a, tokens_b = _NUMBER.findall(la), _NUMBER.findall(lb)
        if _NUMBER.sub("#", la) != _NUMBER.sub("#", lb) or len(tokens_a) != len(tokens_b):
            report.append(f"line {i}: text differs")
            continue
        for x, y in zip(tokens_a, tokens_b):
            worst.add(x, y, f"line {i}")
    if worst.where:
        report.append(f"numbers: {worst.describe()}")
    return report


def compare(a: Path, b: Path) -> list[str]:
    """Report lines on how run directory ``b`` differs from ``a``."""
    report = []
    identical = total = 0
    for name in sorted(_files(a) | _files(b)):
        total += 1
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            report.append(f"{name}: only in {a if fa.is_file() else b}")
            continue
        if fa.read_bytes() == fb.read_bytes():
            identical += 1
            continue
        if Path(name).name == "exit":
            detail = [f"exit code {fa.read_text().strip()} -> {fb.read_text().strip()}"]
        elif name.endswith(".csv"):
            detail = _compare_csv(fa, fb)
        else:
            detail = _compare_text(fa, fb)
        report.append(f"{name}: differs")
        report.extend(f"  {line}" for line in detail)
    report.append(f"{identical} of {total} files byte-identical")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run every invocation into a new directory")
    p_run.add_argument("dir", type=Path)
    p_cmp = sub.add_parser("compare", help="report how two run directories differ")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        run(args.dir)
    else:
        print("\n".join(compare(args.a, args.b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
