"""Span tracing of holoest's public functions, installed from outside the package.

A ``Tracer`` replaces each traced function under every name a holoest module
binds it to, so callers that resolve ``holoest.experiments.iso_matrix`` or
``holoest.cli.quadrature_entry`` at call time reach the wrapper.  Each wrapped
call records a span (name, start, end, parent, raised); a few very hot leaf
functions only count calls.  Hooks keep cheap references to results; the
health values that cost real work (condition numbers) are computed in
``summary()`` after the traced command has finished.

``summarize(records)`` folds the summaries of one workload pass (one per CLI
process) into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
from time import perf_counter

# (module, function) pairs whose calls record a span; the module is the layer.
SPANNED = (
    ("special", "sin_integral"),
    ("special", "cos_integral"),
    ("special", "alpha_coefficient"),
    ("correlation", "iso_entry"),
    ("correlation", "iso_matrix"),
    ("correlation", "quadrature_entry"),
    ("correlation", "cluster_matrix"),
    ("correlation", "psd_clamp"),
    ("coupling", "impedance_matrix"),
    ("coupling", "self_impedance"),
    ("coupling", "mutual_impedance_side_by_side"),
    ("coupling", "mutual_impedance_collinear"),
    ("coupling", "mutual_impedance_echelon"),
    ("coupling", "coupling_model"),
    ("coupling", "effective_correlation"),
    ("linalg", "hermitian_eig"),
    ("linalg", "psd_sqrt"),
    ("linalg", "subspace_contained"),
    ("linalg", "orthonormal_column_basis"),
    ("linalg", "principal_subspace"),
    ("estimation", "mmse_filter"),
    ("estimation", "ls_filter"),
    ("estimation", "analytic_mse"),
    ("estimation", "mse_eigen_expansion"),
    ("estimation", "verify_column_space"),
    ("experiments", "run_sweep"),
    ("experiments", "default_cluster_scenario"),
    ("config", "load_config"),
)

# Called millions of times with two positional arguments (quadrature integrand,
# per-trial draws): count only.
COUNTED = {
    ("correlation", "isotropic_scattering"),
    ("estimation", "complex_normal"),
}

_PAIR_FUNCTIONS = (
    "self_impedance",
    "mutual_impedance_side_by_side",
    "mutual_impedance_collinear",
    "mutual_impedance_echelon",
)
_SUBSPACE_FUNCTIONS = ("subspace_contained", "orthonormal_column_basis", "principal_subspace")


class Tracer:
    """Spans and counters of one process; install once, then run the command."""

    def __init__(self):
        self.names: list[str] = []
        # (name index, start, end, parent index, raised); a slot is filled when the call ends
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, itertools.count] = {}
        self.iso_keys: dict[tuple, int] = {}  # (geometry, tol) -> fallback pairs
        self.clamp_zeroed = 0
        self.cluster_quad_err = 0.0
        self.pairs_visited = 0
        self.resist = []  # (Re Z, R_d) of each coupling model built
        self.norm_scales: list[float] = []
        self.mc_trials = 0
        self.mc_max_dev_se = 0.0
        self.analytic_flop = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions wherever a loaded holoest module binds them."""
        import holoest.cli  # noqa: F401  (loads every holoest module)
        from holoest import config

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "holoest"]
        for mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"holoest.{mod_name}"], fn_name)
            hook = getattr(self, f"_hook_{fn_name}", None)
            self._rebind(modules, original, self.spanned(f"{mod_name}.{fn_name}", original, hook))
        for mod_name, fn_name in COUNTED:
            original = getattr(sys.modules[f"holoest.{mod_name}"], fn_name)
            self._rebind(modules, original, self.counted(f"{mod_name}.{fn_name}", original))
        original = config.CliConfig.sweep_config
        config.CliConfig.sweep_config = self.spanned("config.sweep_config", original, None)

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def spanned(self, name: str, func, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, raised)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, func):
        """Call counter for a two-argument hot function, kept as cheap as possible."""
        counter = itertools.count()
        self.counters[name] = counter
        tick = counter.__next__

        @functools.wraps(func)
        def wrapper(a, b):
            tick()
            return func(a, b)

        return wrapper

    # -- health and work hooks (cheap; heavy work waits for summary) --------

    def _hook_iso_matrix(self, args, kwargs, result):
        key = (args[0], kwargs.get("tol", args[1] if len(args) > 1 else None))
        self.iso_keys[key] = int(result.meta.get("quadrature_fallback_pairs", 0))

    def _hook_psd_clamp(self, args, kwargs, result):
        self.clamp_zeroed += int((result.eig.values == 0.0).sum())

    def _hook_cluster_matrix(self, args, kwargs, result):
        self.cluster_quad_err = max(self.cluster_quad_err, result.meta["quad_error_estimate"])

    def _hook_impedance_matrix(self, args, kwargs, result):
        m = result.shape[0]
        self.pairs_visited += m * (m + 1) // 2

    def _hook_coupling_model(self, args, kwargs, result):
        self.resist.append((result.impedance.real, result.r_dissipation))
        self.norm_scales.append(result.meta["normalization_scale_per_ohm"])

    def _hook_analytic_mse(self, args, kwargs, result):
        spec, r_mc = args[0], args[1]
        m = spec.filter.shape[0]
        complex_data = spec.filter.dtype.kind == "c" or r_mc.entries.dtype.kind == "c"
        # error_covariance does four M x M matrix products
        self.analytic_flop += 4 * (8 if complex_data else 2) * m**3

    def _hook_run_sweep(self, args, kwargs, result):
        config = args[0]
        if config.mc_trials <= 0:
            return
        self.mc_trials += config.mc_trials * len(config.snr_grid_db)
        for row in result.rows:
            dev = abs(row.mc_mse - row.analytic_mse) / max(row.mc_stderr, 1e-300)
            self.mc_max_dev_se = max(self.mc_max_dev_se, dev)

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function totals and health values of this process, JSON-ready.

        Call once, after every traced call has returned.
        """
        import numpy as np

        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        errors = [0] * len(self.names)
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name_id, start, end, parent, raised) in enumerate(self.spans):
            calls[name_id] += 1
            total[name_id] += end - start
            self_time[name_id] += end - start - child_time[idx]
            errors[name_id] += raised
        functions = {
            name: {"calls": calls[i], "total_s": total[i], "self_s": self_time[i], "errors": errors[i]}
            for i, name in enumerate(self.names)
        }
        cond = [
            float(np.linalg.cond(re_z + r_d * np.eye(re_z.shape[0]))) for re_z, r_d in self.resist
        ]
        return {
            "functions": functions,
            "counts": {name: next(c) for name, c in self.counters.items()},
            "iso_builds": len(self.iso_keys),
            "iso_fallback_pairs": sum(self.iso_keys.values()),
            "clamp_zeroed": self.clamp_zeroed,
            "cluster_quad_err": self.cluster_quad_err,
            "pairs_visited": self.pairs_visited,
            "resist_cond": max(cond, default=0.0),
            "norm_scale": max(self.norm_scales, default=0.0),
            "mc_trials": self.mc_trials,
            "mc_max_dev_se": self.mc_max_dev_se,
            "analytic_flop": self.analytic_flop,
        }

    def span_records(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def _fn(records, name, field):
    return sum(r["functions"].get(name, {}).get(field, 0) for r in records)


def _layer_self(records, layer):
    return sum(
        f["self_s"]
        for r in records
        for name, f in r["functions"].items()
        if name.split(".")[0] == layer
    )


def summarize(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass from its per-process summaries."""
    iso_calls = _fn(records, "correlation.iso_matrix", "calls")
    pairs_visited = sum(r["pairs_visited"] for r in records)
    pair_evals = sum(_fn(records, f"coupling.{f}", "calls") for f in _PAIR_FUNCTIONS)
    return {
        "special.si_ci_calls": (
            _fn(records, "special.sin_integral", "calls")
            + _fn(records, "special.cos_integral", "calls"),
            "count",
        ),
        "special.self_s": (_layer_self(records, "special"), "s"),
        "correlation.self_s": (_layer_self(records, "correlation"), "s"),
        "correlation.iso_matrix_calls": (iso_calls, "count"),
        "correlation.iso_matrix_unique_ratio": (
            sum(r["iso_builds"] for r in records) / iso_calls if iso_calls else 0.0,
            "1",
        ),
        "correlation.iso_matrix_s": (_fn(records, "correlation.iso_matrix", "total_s"), "s"),
        "correlation.iso_fallback_pairs": (sum(r["iso_fallback_pairs"] for r in records), "count"),
        "correlation.quadrature_entry_calls": (
            _fn(records, "correlation.quadrature_entry", "calls"),
            "count",
        ),
        "correlation.quadrature_entry_s": (
            _fn(records, "correlation.quadrature_entry", "total_s"),
            "s",
        ),
        "correlation.scatter_evals": (
            sum(r["counts"].get("correlation.isotropic_scattering", 0) for r in records),
            "count",
        ),
        "correlation.cluster_matrix_calls": (
            _fn(records, "correlation.cluster_matrix", "calls"),
            "count",
        ),
        "correlation.cluster_matrix_s": (
            _fn(records, "correlation.cluster_matrix", "total_s"),
            "s",
        ),
        "correlation.cluster_quad_err": (max(r["cluster_quad_err"] for r in records), "1"),
        "correlation.psd_clamp_s": (_fn(records, "correlation.psd_clamp", "total_s"), "s"),
        "correlation.clamp_zeroed": (sum(r["clamp_zeroed"] for r in records), "count"),
        "coupling.self_s": (_layer_self(records, "coupling"), "s"),
        "coupling.impedance_matrix_s": (_fn(records, "coupling.impedance_matrix", "total_s"), "s"),
        "coupling.pair_evals": (pair_evals, "count"),
        "coupling.pair_unique_ratio": (
            pair_evals / pairs_visited if pairs_visited else 0.0,
            "1",
        ),
        "coupling.coupling_model_s": (_fn(records, "coupling.coupling_model", "total_s"), "s"),
        "coupling.effective_correlation_s": (
            _fn(records, "coupling.effective_correlation", "total_s"),
            "s",
        ),
        "coupling.effective_correlation_errors": (
            _fn(records, "coupling.effective_correlation", "errors"),
            "count",
        ),
        "coupling.resist_cond": (max(r["resist_cond"] for r in records), "1"),
        "coupling.norm_scale": (max(r["norm_scale"] for r in records), "1/ohm"),
        "linalg.self_s": (_layer_self(records, "linalg"), "s"),
        "linalg.hermitian_eig_calls": (_fn(records, "linalg.hermitian_eig", "calls"), "count"),
        "linalg.hermitian_eig_s": (_fn(records, "linalg.hermitian_eig", "total_s"), "s"),
        "linalg.psd_sqrt_s": (_fn(records, "linalg.psd_sqrt", "total_s"), "s"),
        "linalg.subspace_s": (
            sum(_fn(records, f"linalg.{f}", "total_s") for f in _SUBSPACE_FUNCTIONS),
            "s",
        ),
        "estimation.self_s": (_layer_self(records, "estimation"), "s"),
        "estimation.mmse_filter_calls": (_fn(records, "estimation.mmse_filter", "calls"), "count"),
        "estimation.mmse_filter_s": (_fn(records, "estimation.mmse_filter", "total_s"), "s"),
        "estimation.analytic_mse_calls": (
            _fn(records, "estimation.analytic_mse", "calls"),
            "count",
        ),
        "estimation.analytic_mse_s": (_fn(records, "estimation.analytic_mse", "total_s"), "s"),
        "estimation.analytic_gflop": (sum(r["analytic_flop"] for r in records) / 1e9, "GFLOP"),
        "estimation.complex_normal_calls": (
            sum(r["counts"].get("estimation.complex_normal", 0) for r in records),
            "count",
        ),
        "estimation.verify_column_space_s": (
            _fn(records, "estimation.verify_column_space", "total_s"),
            "s",
        ),
        "experiments.run_sweep_calls": (_fn(records, "experiments.run_sweep", "calls"), "count"),
        "experiments.self_s": (_fn(records, "experiments.run_sweep", "self_s"), "s"),
        "experiments.mc_trials": (sum(r["mc_trials"] for r in records), "count"),
        "experiments.mc_max_dev_se": (max(r["mc_max_dev_se"] for r in records), "1"),
        "experiments.default_cluster_scenario_s": (
            _fn(records, "experiments.default_cluster_scenario", "total_s"),
            "s",
        ),
        "cli.self_s": (_fn(records, "cli.main", "self_s"), "s"),
        "config.load_s": (_fn(records, "config.load_config", "total_s"), "s"),
    }
