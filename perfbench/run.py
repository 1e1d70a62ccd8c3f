"""holoest benchmark: CLI workloads timed end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--blas-threads K]

Run from the root of a source checkout.  Every operation is one ``holoest``
CLI process, started after the previous one exits (a closed loop with one
client).  The workload seed is passed to the CLI as ``--seed``; it draws the
Monte Carlo streams and the cluster scenario.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and reports per-layer metrics and the tracing overhead.
``--blas-threads K`` sets OPENBLAS_NUM_THREADS for the CLI processes (the
single-threaded reference uses 1); by default the thread count is left alone.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
SETUP_PROBES = 4  # half before the passes, half after

ESTIMATORS = ("mmse_true", "mmse_coupling_aware_iso", "mmse_iso", "ls")
SNR_POINTS = 18  # default grid -10:2:24 dB
VALIDATE_CHECKS = (
    "series_vs_quadrature",
    "zero_separation_value",
    "prop2_subspaces",
    "prop3_eigen_expansion",
    "monte_carlo_consistency",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload pass."""

    label: str
    command: str  # "sweep" or "validate"
    size: int  # the array is size x size
    overrides: tuple[tuple[str, str], ...] = ()
    mc_cells: int = 0  # Monte Carlo trials x SNR points it draws
    known_failure: tuple[int, str] | None = None  # (exit code, stderr text)


def _ladder_op(n: int) -> Op:
    overrides = (("geometry.m_y", str(n)), ("geometry.m_z", str(n)), ("sweep.mc_trials", "0"))
    # numpy.linalg.svd in effective_correlation does not converge at 16x16
    known = (3, "SVD did not converge") if n == 16 else None
    return Op(f"{n}x{n}", "sweep", n, overrides, known_failure=known)


WORKLOADS = {
    "sweep_cluster": (
        Op("10x10", "sweep", 10, (("scenario.kind", "cluster"), ("sweep.mc_trials", "0"))),
    ),
    # validate draws max(min(mc_trials, 20000), 1000) trials at 4 SNR points
    "validate": (Op("10x10", "validate", 10, mc_cells=10_000 * 4),),
    "array_ladder": tuple(_ladder_op(n) for n in (8, 16, 20)),
}


@dataclass
class OpResult:
    op: Op
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    bytes_written: int
    problems: list[str]  # failed output checks and unexpected exits
    known_failure: bool = False

    @property
    def failed(self) -> bool:
        return self.known_failure or bool(self.problems)


@dataclass
class PassResult:
    ops: list[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.ops)


class Runner:
    """Spawns the CLI processes of one benchmark run inside the checkout."""

    def __init__(self, workload: str, seed: int, blas_threads: int | None):
        self.workload = workload
        self.ops = WORKLOADS[workload]
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.trace_dir = WORK / "trace" / f"{workload}-seed{seed}"
        env = dict(os.environ)
        env.pop("HOLOEST_THREADS", None)
        # cache bytecode as an installed package would, whatever the caller's setting
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.env = env
        self.configs: dict[Op, str] = {}

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(self.ops):
            if op.overrides:
                path = self.work / f"op{i}.cfg"
                path.write_text("".join(f"{k} = {v}\n" for k, v in op.overrides))
                self.configs[op] = str(path)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def _spawn(self, argv, stdout_path, stderr_path):
        """Run to completion; returns (exit code, wall s, cpu s, max RSS MB)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0

    def probe_setup(self, with_env: bool):
        """Seconds from spawning a fresh interpreter until set-up is done."""
        op = self.ops[-1]
        argv = [sys.executable, str(HERE / "launch.py"), "probe",
                self.configs.get(op, "-"), str(self.seed), op.command]
        if with_env:
            argv.append("--env")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(self.deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        lines = proc.stdout.splitlines()
        setup = float(lines[0]) - start
        return setup, (json.loads(lines[1]) if with_env else None)

    def run_op(self, i: int, op: Op, trace_path: Path | None) -> OpResult:
        out_dir = self.work / f"out{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["--seed", str(self.seed)]
        if op in self.configs:
            args += ["--config", self.configs[op]]
        args.append(op.command)
        if op.command == "sweep":
            args += ["--out", str(out_dir)]
        if trace_path is None:
            argv = [sys.executable, "-c", "from holoest.cli import entrypoint; entrypoint()", *args]
        else:
            argv = [sys.executable, str(HERE / "launch.py"), "trace", str(trace_path), *args]
        stdout_path, stderr_path = self.work / f"op{i}.out", self.work / f"op{i}.err"
        rc, wall, cpu, rss = self._spawn(argv, stdout_path, stderr_path)
        stdout = stdout_path.read_text(errors="replace")
        stderr = stderr_path.read_text(errors="replace")
        written = stdout_path.stat().st_size + sum(
            p.stat().st_size for p in out_dir.glob("*") if p.is_file()
        )
        result = OpResult(op, rc, wall, cpu, rss, stdout, stderr, written, [])
        if rc != 0:
            known = op.known_failure
            if known and rc == known[0] and known[1] in stderr:
                result.known_failure = True
            else:
                result.problems.append(f"exit {rc}: {_last_line(stderr)}")
        elif op.command == "sweep":
            result.problems += check_sweep(out_dir / "sweep.csv", op)
        else:
            result.problems += check_validate(stdout)
        return result

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult()
        if traced:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(self.ops):
            trace_path = self.trace_dir / f"{op.label}.json" if traced else None
            result.ops.append(self.run_op(i, op, trace_path))
        return result


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else ""


def check_sweep(path: Path, op: Op) -> list[str]:
    """Seed-independent checks of a sweep CSV; returns the failures."""
    if not path.is_file():
        return [f"{path.name} missing"]
    m = op.size * op.size
    mse: dict[float, dict[str, float]] = {}
    problems = []
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(ESTIMATORS) * SNR_POINTS:
        problems.append(f"{len(rows)} rows, expected {len(ESTIMATORS) * SNR_POINTS}")
    for row in rows:
        snr = float(row["snr_db"])
        analytic = float(row["analytic_mse"])
        if not (math.isfinite(analytic) and analytic > 0):
            problems.append(f"{row['estimator']} at {snr} dB: analytic MSE {analytic}")
            continue
        mse.setdefault(snr, {})[row["estimator"]] = analytic
        if row["estimator"] == "ls":
            expected = m / 10.0 ** (snr / 10.0)
            if abs(analytic - expected) > 1e-12 * expected:
                problems.append(f"ls at {snr} dB: {analytic!r} != M/rho = {expected!r}")
    for snr, by_kind in mse.items():
        best = by_kind.get("mmse_true")
        if best is None or set(by_kind) != set(ESTIMATORS):
            problems.append(f"{snr} dB: estimators {sorted(by_kind)}")
            continue
        for kind, value in by_kind.items():
            if best > value * (1.0 + 1e-9):
                problems.append(f"{snr} dB: mmse_true {best!r} above {kind} {value!r}")
    return problems


def check_validate(stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    problems = [f"not PASS: {line}" for line in lines if not line.startswith("PASS ")]
    names = [line.split()[1] for line in lines if line.startswith("PASS ")]
    if sorted(names) != sorted(VALIDATE_CHECKS):
        problems.append(f"checks reported: {names}")
    return problems


def source_version() -> str:
    """Commit when the checkout is a git repository, plus a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    version = f"src-sha256:{digest.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            version = f"{proc.stdout.strip()} {version}"
    return version


def report_op(workload: str, tag: str, res: OpResult) -> None:
    status = "ok"
    if res.known_failure:
        status = f"known-failure exit={res.returncode} message={_last_line(res.stderr)!r}"
    elif res.problems:
        status = "FAILED " + "; ".join(res.problems[:5])
    print(f"op {workload} {res.op.label} {tag} exit={res.returncode} wall_s={res.wall_s:.3f} "
          f"cpu_s={res.cpu_s:.3f} rss_mb={res.rss_mb:.1f} {status}")


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"metric {name} = {value:.6g} {unit}")


def _baseline(layers: dict, workload: str) -> list[tuple[str, str, str]]:
    """ROADMAP item-1 baseline stages beside the traced measurement."""
    value = {name: v for name, (v, _) in layers.items()}
    rows = []
    if workload != "array_ladder":  # the 10x10 workloads
        calls = max(value["correlation.iso_matrix_calls"], 1)
        rows.append(("iso_matrix", "1.9 s, 48 of 100 fall back to nquad",
                     f"{value['correlation.iso_matrix_s'] / calls:.3f} s per call, "
                     f"{value['correlation.iso_fallback_pairs']:.0f} fallbacks"))
        rows.append(("impedance_matrix", "0.04 s", f"{value['coupling.impedance_matrix_s']:.3f} s"))
        rows.append(("coupling_model / effective_correlation / filters", "< 0.05 s",
                     f"{value['coupling.coupling_model_s'] - value['coupling.impedance_matrix_s']:.3f}"
                     f" / {value['coupling.effective_correlation_s']:.3f}"
                     f" / {value['estimation.mmse_filter_s']:.3f} s"))
    if workload == "sweep_cluster":
        rows.append(("cluster_matrix", "23 s", f"{value['correlation.cluster_matrix_s']:.2f} s"))
    if value["experiments.mc_trials"]:
        per_10k = value["experiments.self_s"] / (value["experiments.mc_trials"] / 10_000)
        rows.append(("MC", "~0.9 s per 10k trials per SNR", f"{per_10k:.3f} s per 10k trials"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None)
    args = parser.parse_args(argv)
    if not (SRC / "holoest" / "cli.py").is_file():
        print(f"error: no holoest sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    with Runner(args.workload, args.seed, args.blas_threads) as runner:
        setup, env = runner.probe_setup(with_env=True)
        setups = [setup]
        if not args.trace:
            setups += [runner.probe_setup(with_env=False)[0]
                       for _ in range(SETUP_PROBES // 2 - 1)]
        env["commit"] = source_version()
        print("env " + json.dumps(env, sort_keys=True))

        passes: list[PassResult] = []
        start = time.monotonic()
        if args.trace:
            passes.append(runner.run_pass(traced=False))
            passes.append(runner.run_pass(traced=True))
        else:
            while True:
                passes.append(runner.run_pass(traced=False))
                elapsed = time.monotonic() - start
                if elapsed + passes[-1].wall_s > args.seconds:
                    break
                if time.monotonic() + 1.5 * passes[-1].wall_s > runner.deadline:
                    break
            # probes on both sides of the passes see more than one phase of the host
            setups += [runner.probe_setup(with_env=False)[0]
                       for _ in range(SETUP_PROBES - len(setups))]
        for n, p in enumerate(passes):
            tag = "traced" if args.trace and n == 1 else f"pass{n + 1}"
            for res in p.ops:
                report_op(args.workload, tag, res)

        ops = [res for p in passes for res in p.ops]
        attempted = len(ops)
        failed = sum(res.failed for res in ops)
        correct = not any(res.problems for res in ops)
        mc_cells = sum(op.mc_cells for op in runner.ops)

        metrics: dict[str, tuple[float, str]] = {}
        if not args.trace:
            metrics["wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["cpu_s"] = (statistics.median(p.cpu_s for p in passes), "s")
            metrics["peak_rss_mb"] = (statistics.median(p.peak_rss_mb for p in passes), "MB")
            for name, (value, unit) in metrics.items():
                print_metric(name, value, unit)
            if mc_cells:
                print_metric("mc_trials_per_s", mc_cells / metrics["wall_s"][0], "1/s")
            print_metric("fail_ratio", failed / attempted, "1")
            print(f"passes {len(passes)}; setup probes {len(setups)}: "
                  + ", ".join(f"{s:.4f}" for s in setups))
            result_metrics = metrics
        else:
            sys.path.insert(0, str(HERE))
            from tracer import summarize

            untraced, traced = passes
            records = []
            for res in traced.ops:
                path = runner.trace_dir / f"{res.op.label}.json"
                with open(path, encoding="utf-8") as handle:
                    records.append(json.load(handle))
            layers = summarize(records)
            layers["cli.bytes_written"] = (sum(r.bytes_written for r in traced.ops), "B")
            overhead = traced.wall_s - untraced.wall_s
            layers["trace.overhead_s"] = (overhead, "s")
            for name, (value, unit) in layers.items():
                print_metric(name, value, unit)
            print(f"tracing overhead: traced wall {traced.wall_s:.3f} s - untraced "
                  f"{untraced.wall_s:.3f} s = {overhead:.3f} s "
                  f"({100.0 * overhead / untraced.wall_s:.1f}%)")
            for stage, claimed, measured in _baseline(layers, args.workload):
                print(f"baseline {stage}: claimed {claimed}; measured {measured}")
            print(f"spans written to {runner.trace_dir.relative_to(ROOT)}")
            declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            result_metrics = {m["name"]: layers[m["name"]] for m in declared}

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
