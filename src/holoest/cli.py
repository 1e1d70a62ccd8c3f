"""Command-line driver: correlation matrices, MSE sweeps, validation, subspaces.

Exit codes: 0 success, 1 usage/configuration error, 2 I/O failure,
3 numerical failure, 4 a failed ``validate`` check.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimation as est
from .config import REFERENCE_CONFIG, CliConfig, ConfigError, load_config
from .correlation import (
    SERIES_RADIUS,
    QuadratureError,
    cluster_matrix,
    iso_entry,
    iso_matrix,
    isotropic_scattering,
    quadrature_entry,
)
from .experiments import build_channel, check_seed, pilot_snr, run_sweep
from .geometry import even_separation_matrix, unsigned_offsets
from .linalg import orthonormal_column_basis, psd_sqrt, subspace_contained
from .special import DIPOLE_DIRECTIVITY

__all__ = ["main", "entrypoint"]

_ZERO_SEPARATION_VALUE = DIPOLE_DIRECTIVITY * 3.0 * math.pi / 16.0
# SNR points (dB) of validate's eigen-expansion and Monte Carlo checks
_VALIDATE_SNR_DB = (-10.0, 0.0, 10.0, 20.0)

_SVG_COLORS = {
    est.MMSE_TRUE: "#1f77b4",
    est.MMSE_COUPLING_AWARE_ISO: "#2ca02c",
    est.MMSE_ISO: "#d62728",
    est.LS: "#7f7f7f",
}


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_matrix_csv(path: Path, entries: np.ndarray, fmt: str) -> None:
    line = f"%d,%d,{fmt},{fmt}"
    lines = ["n,m,re,im"]
    for n, (re, im) in enumerate(zip(entries.real.tolist(), entries.imag.tolist())):
        lines.extend(line % (n, j, a, b) for j, (a, b) in enumerate(zip(re, im)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sweep_csv(path: Path, result, fmt: str) -> None:
    lines = ["estimator,snr_db,analytic_mse,analytic_nmse_db,mc_mse,mc_stderr"]
    for row in result.rows:
        mc_mse = "" if row.mc_mse is None else fmt % row.mc_mse
        mc_stderr = "" if row.mc_stderr is None else fmt % row.mc_stderr
        lines.append(
            ",".join(
                [
                    row.estimator,
                    fmt % row.snr_db,
                    fmt % row.analytic_mse,
                    fmt % row.analytic_nmse_db,
                    mc_mse,
                    mc_stderr,
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def render_sweep_svg(result) -> str:
    """Self-contained SVG line chart: MSE in dB against pilot SNR."""
    width, height = 760, 480
    margin = 60
    grid = list(result.snr_grid_db())
    kinds = list(result.estimators())
    series = {
        kind: [10.0 * math.log10(result.row(kind, s).analytic_mse) for s in grid]
        for kind in kinds
    }
    y_all = [v for vals in series.values() for v in vals]
    y_lo = math.floor(min(y_all) / 5.0) * 5.0
    y_hi = math.ceil(max(y_all) / 5.0) * 5.0
    x_lo, x_hi = min(grid), max(grid)

    def sx(x: float) -> float:
        return margin + (x - x_lo) / max(x_hi - x_lo, 1e-12) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / max(y_hi - y_lo, 1e-12) * (
            height - 2 * margin
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes and ticks
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>'
    )
    x_tick = x_lo
    while x_tick <= x_hi + 1e-9:
        px = sx(x_tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{height - margin}" x2="{px:.1f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{x_tick:g}</text>'
        )
        x_tick += 5.0
    y_tick = y_lo
    while y_tick <= y_hi + 1e-9:
        py = sy(y_tick)
        parts.append(
            f'<line x1="{margin - 5}" y1="{py:.1f}" x2="{margin}" y2="{py:.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">{y_tick:g}</text>'
        )
        y_tick += 5.0
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">pilot SNR (dB)</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">MSE (dB)</text>'
    )
    for idx, kind in enumerate(kinds):
        color = _SVG_COLORS.get(kind, "#000000")
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(grid, series[kind])
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{points}"/>'
        )
        ly = margin + 16 * idx
        parts.append(
            f'<line x1="{width - margin - 130}" y1="{ly}" '
            f'x2="{width - margin - 105}" y2="{ly}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{width - margin - 100}" y="{ly + 4}" font-size="11">{kind}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _iso_oracle(dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Isotropic entries on an offset grid from one stacked oracle call."""
    offsets = np.stack((np.zeros_like(dy), dy, dz), axis=-1).reshape(-1, 3)
    return quadrature_entry(isotropic_scattering, offsets).real.reshape(dy.shape)


def cmd_correlation(args, config: CliConfig) -> int:
    geometry = config.geometry()
    fmt = config.float_format()
    if args.mode == "iso":
        entries = iso_matrix(geometry).entries
    elif args.mode == "quadrature":
        entries = even_separation_matrix(geometry, _iso_oracle)
    else:
        scenario = config.cluster_scenario(args.seed)
        entries = cluster_matrix(geometry, scenario).entries
    out = Path(args.out)
    _write_matrix_csv(out, np.atleast_2d(entries), fmt)
    _info(args, f"wrote {entries.shape[0]}x{entries.shape[0]} matrix to {out}")
    return 0


def cmd_sweep(args, config: CliConfig) -> int:
    sweep_config = config.sweep_config(args.seed)
    result = run_sweep(sweep_config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = config.float_format()
    csv_path = out_dir / "sweep.csv"
    _write_sweep_csv(csv_path, result, fmt)
    _info(args, f"wrote {csv_path}")
    if args.plot:
        svg_path = out_dir / "sweep.svg"
        svg_path.write_text(render_sweep_svg(result), encoding="utf-8")
        _info(args, f"wrote {svg_path}")
    return 0


def _prop2_residuals(channel):
    """Column-space residuals for the three prior choices and the nesting.

    span(C^(1/2) R^(1/2)) is read from ``effective_correlation``'s factor SVD,
    so only R_iso^(1/2) is factored here; a shared prior is checked once."""

    def factor_basis(r_eff):
        return r_eff.eig.basis[:, : r_eff.meta["factor_rank"]]

    bases = {
        est.MMSE_TRUE: factor_basis(channel.r_mc),
        est.MMSE_COUPLING_AWARE_ISO: factor_basis(channel.r_hat_aware),
        est.MMSE_ISO: orthonormal_column_basis(psd_sqrt(channel.r_iso)),
    }
    rho = 10.0  # 10 dB; the spaces do not depend on the SNR
    residuals = {}
    for filter_at, kinds in channel.estimators(bases).items():
        residuals[filter_at] = est.verify_column_space(filter_at(rho), bases[kinds[0]])
    checks = {
        f"scenario{scenario}_vs_factor": residuals[channel.estimator(kind)]
        for scenario, kind in enumerate(bases, start=1)
    }
    basis_1, basis_2 = bases[est.MMSE_TRUE], bases[est.MMSE_COUPLING_AWARE_ISO]
    checks["scenario1_in_scenario2"] = subspace_contained(basis_1, basis_2)
    ranks = {
        "rank_r_iso": channel.r_iso.numerical_rank(),
        "rank_r_base": channel.r_base.numerical_rank(),
        "rank_r_mc": channel.r_mc.numerical_rank(),
        "rank_factor_true": basis_1.shape[1],
        "rank_factor_aware": basis_2.shape[1],
    }
    return checks, ranks


def cmd_subspace(args, config: CliConfig) -> int:
    checks, ranks = _prop2_residuals(build_channel(config.sweep_config(args.seed)))
    print("numerical ranks (relative tolerance 1e-8):")
    for name, value in ranks.items():
        print(f"  {name:20s} {value}")
    print("containment residuals:")
    for name, value in checks.items():
        print(f"  {name:24s} {value:.3e}")
    return 0


def _validate_checks(sweep_config, channel):
    geometry = sweep_config.geometry
    checks = []

    # closed-form series against the quadrature oracle at every unique
    # separation the series covers, zero included, in one stacked cubature;
    # beyond SERIES_RADIUS iso_entry uses the Bessel rule, which the tests
    # compare with the oracle
    dy, dz = unsigned_offsets(geometry)
    inside = np.hypot(dy, dz) <= SERIES_RADIUS
    oracle = _iso_oracle(dy[inside], dz[inside])
    series = iso_entry(dy[inside], dz[inside])
    worst = float(np.abs(series - oracle).max())
    checks.append(("series_vs_quadrature", worst < 1e-6, f"max diff {worst:.3e}"))

    # offset (0, 0) is the stack's first
    zero_err = max(
        abs(series[0] - _ZERO_SEPARATION_VALUE), abs(oracle[0] - _ZERO_SEPARATION_VALUE)
    )
    checks.append(("zero_separation_value", zero_err < 1e-9, f"max err {zero_err:.3e}"))

    prop2, _ = _prop2_residuals(channel)
    same_source = max(
        prop2["scenario1_vs_factor"],
        prop2["scenario2_vs_factor"],
        prop2["scenario3_vs_factor"],
    )
    nesting = prop2["scenario1_in_scenario2"]
    checks.append(
        (
            "prop2_subspaces",
            same_source < 1e-8 and nesting < 1e-8,
            f"scenario residuals max {same_source:.3e}, nesting {nesting:.3e}",
        )
    )

    # the sweep reports the sum over each filter's modes; this guards that
    # route against the dense error-covariance trace of each built filter
    rhos = [pilot_snr(snr_db) for snr_db in _VALIDATE_SNR_DB]
    worst_rel = 0.0
    for filter_at in channel.estimators(est.ESTIMATOR_KINDS):
        expansion = est.mse_eigen_expansion(filter_at, channel.r_mc, rhos)
        for rho, value in zip(rhos, expansion.tolist()):
            trace_form = est.analytic_mse(filter_at(rho), channel.r_mc)
            worst_rel = max(worst_rel, abs(value - trace_form) / abs(trace_form))
    checks.append(
        ("prop3_eigen_expansion", worst_rel < 1e-8, f"max rel diff {worst_rel:.3e}")
    )

    trials = max(min(sweep_config.mc_trials, 20_000), 1000)
    mc_config = replace(sweep_config, snr_grid_db=_VALIDATE_SNR_DB, mc_trials=trials)
    result = run_sweep(mc_config, channel)
    worst_sigma = max(row.mc_deviation_se for row in result.rows)
    checks.append(
        (
            "monte_carlo_consistency",
            worst_sigma < 3.0,
            f"worst deviation {worst_sigma:.2f} standard errors ({trials} trials)",
        )
    )
    return checks


def cmd_validate(args, config: CliConfig) -> int:
    sweep_config = config.sweep_config(args.seed)
    checks = _validate_checks(sweep_config, build_channel(sweep_config))
    failures = [name for name, ok, _ in checks if not ok]
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:{width}s}  {detail}")
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoest",
        description="Dense dipole-array channel estimation toolkit",
    )
    parser.add_argument("--config", help="path to a section.key = value config file")
    parser.add_argument("--seed", type=int, help="override scenario/sweep seeds")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the annotated reference configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_corr = sub.add_parser("correlation", help="emit a correlation matrix as CSV")
    p_corr.add_argument(
        "--mode", choices=("iso", "cluster", "quadrature"), default="iso"
    )
    p_corr.add_argument("--out", required=True, help="output CSV path")
    p_corr.set_defaults(func=cmd_correlation)

    p_sweep = sub.add_parser("sweep", help="run the MSE-vs-SNR sweep")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--plot", action="store_true", help="also emit an SVG chart")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the numerical validation suite")
    p_val.set_defaults(func=cmd_validate)

    p_sub = sub.add_parser("subspace", help="report ranks and containment residuals")
    p_sub.set_defaults(func=cmd_subspace)
    return parser


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.print_config:
        print(REFERENCE_CONFIG, end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.seed is not None:
            try:
                check_seed(args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        config = load_config(args.config)
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning  # one line each, like the errors below
            return args.func(args, config)
    except (QuadratureError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
