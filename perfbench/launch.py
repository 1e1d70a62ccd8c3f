"""Child-process entry points of the benchmark (run with ``src`` on PYTHONPATH).

    python3 perfbench/launch.py probe CONFIG SEED COMMAND [--env]
        Set up as the CLI does before its first layer call: import holoest,
        load the config ("-" for the defaults) and, for ``sweep``, build the
        sweep config (which draws the cluster scenario).  Prints the
        CLOCK_MONOTONIC reading when set-up is done, then with ``--env`` one
        JSON line describing the numeric environment.

    python3 perfbench/launch.py trace OUT.json HOLOEST-ARGS...
        Run ``holoest HOLOEST-ARGS`` with the tracer installed and write its
        per-function summary and spans to OUT.json; exits with the CLI's code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def probe(config_path: str, seed: int, command: str, env: bool) -> None:
    from holoest.cli import load_config

    config = load_config(None if config_path == "-" else config_path)
    if command == "sweep":
        config.sweep_config(seed)
    print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    if env:
        print(json.dumps(environment()))


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return func()
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "HOLOEST_THREADS": os.environ.get("HOLOEST_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def trace(out_path: str, argv: list[str]) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from holoest import cli

    sys.argv = ["holoest", *argv]
    try:
        code = tracer.spanned("cli.main", cli.main, None)(argv)
    finally:
        record = tracer.summary()
        record.update(tracer.span_records())
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        probe(rest[0], int(rest[1]), rest[2], "--env" in rest[3:])
        return 0
    if mode == "trace":
        return trace(rest[0], rest[1:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
