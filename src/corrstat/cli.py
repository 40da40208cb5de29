"""Command-line front door: one subcommand per workflow, JSON/CSV reports.

Every report embeds the toolkit version, the timestamp, the seeds, and
the full experiment config (thread count excluded, it never affects
results), so a run can be reproduced from its own output.  Timestamps
default to the literal string "unset" unless --timestamp or the
CORRSTAT_TIMESTAMP variable supplies one; wall-clock values would break
byte-level reproducibility.

Exit codes: 0 success, 2 flag validation failure (message names the
flag), 1 runtime failure inside a computation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, corrdist, dataio, portfolio, spectral, stationarity, synthgen
from .errors import CorrstatError, InvalidParameter
from .parallel import THREADS_ENV, resolve_threads

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

TIMESTAMP_ENV = "CORRSTAT_TIMESTAMP"
TIMESTAMP_UNSET = "unset"

_F = "%.17g"


class UsageError(Exception):
    """Flag validation failure; the message must name the flag."""


def _timestamp(args) -> str:
    if args.timestamp is not None:
        return args.timestamp
    return os.environ.get(TIMESTAMP_ENV, TIMESTAMP_UNSET)


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _report(command: str, args, config: dict, payload: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "generated_at": _timestamp(args),
        "config": config,
        **payload,
    }


def _emit_json(report: dict, out_path):
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _echo_config(report)


def _emit_csv(header, rows, out_path, echo: dict | None = None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_F % v if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if echo is not None:
            _echo_config(echo)


def _echo_config(report: dict):
    slim = {k: report[k] for k in ("command", "version", "generated_at", "config")}
    print(json.dumps(slim, sort_keys=True, default=_json_default))


def _parse_int_list(text: str, flag: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must list at least one value")
    return values


def _parse_float_list(text: str, flag: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} must list at least one value")
    return values


def _parse_mc(text: str, flag: str):
    """'gaussian' or 'student-t:NU' -> (family, nu)."""
    if text is None:
        return None, None
    head, _, tail = text.partition(":")
    if head == synthgen.FAMILY_GAUSSIAN and not tail:
        return head, None
    if head == synthgen.FAMILY_STUDENT_T:
        try:
            nu = float(tail)
        except ValueError:
            raise UsageError(f"{flag}: student-t needs a numeric nu, got {text!r}") from None
        if nu <= 2:
            raise UsageError(f"{flag}: nu must exceed 2 for finite correlations, got {nu}")
        return head, nu
    raise UsageError(f"{flag} must be 'gaussian' or 'student-t:NU', got {text!r}")


def _load_returns(path: str, input_kind: str, returns_kind: str, flag: str = "--input"):
    try:
        if input_kind == "returns":
            return dataio.load_price_panel(path, format="returns")
        prices = dataio.load_price_panel(path, format="prices")
        return dataio.to_returns(prices, kind=returns_kind)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot read {path}: {exc}") from None


def _parse_corr_spec(text: str, flag: str, input_kind: str, returns_kind: str):
    """'from:PATH' | 'identity:N' | 'equicorr:N:RHO' | 'onefactor:N:SEED'."""
    head, _, tail = text.partition(":")
    try:
        if head == "from" and tail:
            panel = _load_returns(tail, input_kind, returns_kind, flag=flag)
            return synthgen.sample_estimate_as_truth(panel)
        if head == "identity":
            return synthgen.identity_correlation(int(tail))
        if head == "equicorr":
            n, rho = tail.split(":")
            return synthgen.equicorr_correlation(int(n), float(rho))
        if head == "onefactor":
            n, seed = tail.split(":")
            return synthgen.one_factor_correlation(int(n), int(seed))
    except UsageError:
        raise
    except (ValueError, CorrstatError) as exc:
        raise UsageError(f"{flag}: invalid correlation spec {text!r}: {exc}") from None
    raise UsageError(
        f"{flag} must be from:PATH, identity:N, equicorr:N:RHO or onefactor:N:SEED, "
        f"got {text!r}"
    )


def _require(condition: bool, message: str):
    if not condition:
        raise UsageError(message)


def _threads(flag_value) -> int:
    """--threads, else CORRSTAT_THREADS, else 1; a bad value names its source."""
    source, text = "--threads", flag_value
    if text is None:
        source, text = THREADS_ENV, os.environ.get(THREADS_ENV, "1")
    try:
        return resolve_threads(text)
    except InvalidParameter:
        raise UsageError(f"{source} must be an integer >= 1, got {text!r}") from None


def _scan_cells_json(report: stationarity.ScanReport):
    cells = []
    for cell in report.cells:
        cells.append({
            cell.dim_name: cell.dim_value,
            cell.threshold_name: cell.threshold_value,
            "fraction": cell.fraction,
            "denominator": cell.denominator,
            "control_fractions": dict(sorted(cell.controls.items())),
        })
    return cells


def _dataset_name(path: str) -> str:
    return os.path.basename(path)


# ---------------------------------------------------------------- density

def cmd_density(args) -> int:
    _require(args.T >= corrdist.MIN_T,
             f"--T must be at least {corrdist.MIN_T} (minimum observations for the "
             f"sampling density), got {args.T}")
    _require(abs(args.rho_bar) < 1.0,
             f"--rho-bar must lie strictly inside (-1, 1), got {args.rho_bar}")
    _require(args.grid >= 2, f"--grid must be at least 2, got {args.grid}")
    params = corrdist.CorrParams(args.rho_bar, args.T)
    grid = np.linspace(-1.0, 1.0, args.grid)
    dens = corrdist.rho_density(grid, params)
    gauss = corrdist.gaussian_approx_density(grid, params)
    config = {"rho_bar": args.rho_bar, "T": args.T, "grid": args.grid,
              "format": args.format, "out": args.out}
    if args.format == "json":
        report = _report("density", args, config, {
            "columns": ["rho", "density", "gaussian_approx"],
            "rows": [[float(r), float(d), float(g)] for r, d, g in zip(grid, dens, gauss)],
        })
        _emit_json(report, args.out)
    else:
        echo = _report("density", args, config, {})
        _emit_csv(["rho", "density", "gaussian_approx"],
                  [(float(r), float(d), float(g)) for r, d, g in zip(grid, dens, gauss)],
                  args.out, echo=echo)
    return EXIT_OK


# ---------------------------------------------------------------- global-scan

def cmd_global_scan(args) -> int:
    windows = _parse_int_list(args.window, "--window")
    for w in windows:
        _require(w >= corrdist.MIN_T,
                 f"--window entries must be at least {corrdist.MIN_T}, got {w}")
    alphas = _parse_float_list(args.alpha, "--alpha")
    for a in alphas:
        _require(0.0 < a < 1.0, f"--alpha entries must lie in (0, 1), got {a}")
    mc_family, mc_nu = _parse_mc(args.mc, "--mc")
    _require(args.max_pairs is None or args.max_pairs >= 1,
             f"--max-pairs must be at least 1, got {args.max_pairs}")
    panel = _load_returns(args.input, args.input_kind, args.returns_kind)
    pairs = stationarity.all_pairs(panel.n_series)
    if args.max_pairs is not None:
        pairs = pairs[:args.max_pairs]
    scan = stationarity.global_scan(
        panel, windows, alphas, pairs=pairs,
        reshuffle_seed=args.reshuffle_seed,
        mc_family=mc_family, mc_nu=mc_nu, mc_seed=args.mc_seed,
        threads=args.threads, dataset=_dataset_name(args.input),
    )
    config = {
        "input": args.input, "input_kind": args.input_kind,
        "returns_kind": args.returns_kind, "window": windows, "alpha": alphas,
        "max_pairs": args.max_pairs, "reshuffle_seed": args.reshuffle_seed,
        "mc": args.mc, "mc_seed": args.mc_seed, "out": args.out,
    }
    report = _report("global-scan", args, config, {
        "dataset": scan.dataset,
        "params": scan.params,
        "cells": _scan_cells_json(scan),
        "skipped": scan.skipped,
    })
    _emit_json(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- local-scan

def cmd_local_scan(args) -> int:
    _require(args.t1 >= corrdist.MIN_T,
             f"--t1 must be at least {corrdist.MIN_T}, got {args.t1}")
    taus = _parse_int_list(args.tau, "--tau")
    for tau in taus:
        _require(tau >= 1, f"--tau entries must be at least 1, got {tau}")
    n_values = _parse_int_list(args.n, "--n")
    for n in n_values:
        _require(n >= 1, f"--n entries must be at least 1, got {n}")
    _require(args.sigma_convention in (stationarity.SIGMA_WINDOW, stationarity.SIGMA_PAPER),
             f"--sigma-convention must be 'window' or 'paper', got {args.sigma_convention!r}")
    mc_family, mc_nu = _parse_mc(args.mc, "--mc")
    _require(args.max_pairs is None or args.max_pairs >= 1,
             f"--max-pairs must be at least 1, got {args.max_pairs}")
    panel = _load_returns(args.input, args.input_kind, args.returns_kind)
    pairs = stationarity.all_pairs(panel.n_series)
    if args.max_pairs is not None:
        pairs = pairs[:args.max_pairs]
    configs = [stationarity.LocalTestConfig(args.t1, tau, tuple(n_values)) for tau in taus]
    scan = stationarity.local_scan(
        panel, configs, n_values=n_values, pairs=pairs,
        sigma_convention=args.sigma_convention,
        mc_family=mc_family, mc_nu=mc_nu, mc_seed=args.mc_seed,
        dataset=_dataset_name(args.input),
    )
    config = {
        "input": args.input, "input_kind": args.input_kind,
        "returns_kind": args.returns_kind, "t1": args.t1, "tau": taus,
        "n": n_values, "sigma_convention": args.sigma_convention,
        "max_pairs": args.max_pairs, "mc": args.mc, "mc_seed": args.mc_seed,
        "out": args.out,
    }
    report = _report("local-scan", args, config, {
        "dataset": scan.dataset,
        "params": scan.params,
        "cells": _scan_cells_json(scan),
        "skipped": scan.skipped,
    })
    _emit_json(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    _require(args.family in (synthgen.FAMILY_GAUSSIAN, synthgen.FAMILY_STUDENT_T),
             f"--family must be 'gaussian' or 'student-t', got {args.family!r}")
    if args.family == synthgen.FAMILY_STUDENT_T:
        _require(args.nu is not None, "--nu is required for --family student-t")
        _require(args.nu > 2, f"--nu must exceed 2, got {args.nu}")
    _require(args.T >= 1, f"--T must be at least 1, got {args.T}")
    _require(args.replica >= 0, f"--replica must be >= 0, got {args.replica}")
    truth = _parse_corr_spec(args.corr, "--corr", args.input_kind, args.returns_kind)
    spec = synthgen.GeneratorSpec(
        family=args.family, n_series=truth.n_series, n_steps=args.T,
        seed=args.seed, correlation=truth,
        nu=args.nu if args.family == synthgen.FAMILY_STUDENT_T else None,
    )
    panel = synthgen.sample_panel(spec, replica=args.replica)
    dataio.save_panel_csv(panel, args.out)
    config = {
        "family": args.family, "nu": args.nu, "corr": args.corr, "T": args.T,
        "seed": args.seed, "replica": args.replica, "out": args.out,
    }
    _echo_config(_report("simulate", args, config, {}))
    return EXIT_OK


# ---------------------------------------------------------------- qscan

def cmd_qscan(args) -> int:
    _require(args.t1 >= 2, f"--t1 must be at least 2, got {args.t1}")
    _require(args.t2 >= 2, f"--t2 must be at least 2, got {args.t2}")
    _require(args.replicas >= 30, f"--replicas must be at least 30, got {args.replicas}")
    _require(args.band_sigmas > 0, f"--band-sigmas must be positive, got {args.band_sigmas}")
    _require(args.truth in ("estimated", "identity"),
             f"--truth must be 'estimated' or 'identity', got {args.truth!r}")
    panel = _load_returns(args.input, args.input_kind, args.returns_kind)
    if args.n_stocks is not None:
        _require(1 <= args.n_stocks <= panel.n_series,
                 f"--n-stocks must lie in [1, {panel.n_series}], got {args.n_stocks}")
        panel = portfolio.select_stocks(panel, args.n_stocks, args.select_seed)
    _require(args.t1 > panel.n_series,
             f"--t1 must exceed the number of stocks ({panel.n_series}), "
             f"minimum-variance weights need T > N")
    volatilities = None
    if args.volatilities is not None:
        volatilities = _load_volatilities(args.volatilities, panel.tickers)
    if args.truth == "identity":
        truth = synthgen.identity_correlation(panel.n_series)
    else:
        truth = synthgen.sample_estimate_as_truth(panel)
    qs = portfolio.q_series(panel, args.t1, args.t2,
                            chained=not args.independent_windows)
    band = portfolio.mc_band(panel.n_series, args.t1, args.t2, args.replicas,
                             truth, args.mc_seed, volatilities=volatilities)
    flags = portfolio.flag_band_violations(qs, band, n_sigma=args.band_sigmas)
    band_json = {"mean": band.mean, "sd": band.sd, "k": args.band_sigmas}
    samples = []
    for exp, violation in zip(qs, flags):
        entry = {
            "sample": exp.sample,
            "t1_range": list(exp.t1_range),
            "t2_range": list(exp.t2_range),
            "sigma_E": exp.sigma_e,
            "sigma_R": exp.sigma_r,
            "q": exp.q,
            "band": band_json,
            "violation": violation,
        }
        samples.append(entry)
    config = {
        "input": args.input, "input_kind": args.input_kind,
        "returns_kind": args.returns_kind, "n_stocks": args.n_stocks,
        "select_seed": args.select_seed, "t1": args.t1, "t2": args.t2,
        "replicas": args.replicas, "mc_seed": args.mc_seed,
        "band_sigmas": args.band_sigmas, "truth": args.truth,
        "independent_windows": args.independent_windows,
        "volatilities": args.volatilities, "out": args.out,
    }
    report = _report("qscan", args, config, {
        "dataset": _dataset_name(args.input),
        "tickers": list(panel.tickers),
        "band": band_json,
        "samples": samples,
    })
    _emit_json(report, args.out)
    return EXIT_OK


def _load_volatilities(path: str, tickers) -> np.ndarray:
    """Two-column ticker,volatility CSV covering every panel ticker."""
    table = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.lower().startswith("ticker"):
                    continue
                name, _, value = line.partition(",")
                table[name.strip()] = float(value)
    except OSError as exc:
        raise UsageError(f"--volatilities: cannot read {path}: {exc}") from None
    except ValueError:
        raise UsageError(f"--volatilities: malformed line in {path}") from None
    missing = [t for t in tickers if t not in table]
    if missing:
        raise UsageError(f"--volatilities: no entry for ticker {missing[0]!r}")
    vols = np.array([table[t] for t in tickers], dtype=np.float64)
    if np.any(vols <= 0):
        raise UsageError("--volatilities: volatilities must be positive")
    return vols


# ---------------------------------------------------------------- spectral

def cmd_spectral(args) -> int:
    _require(args.window >= corrdist.MIN_T,
             f"--window must be at least {corrdist.MIN_T}, got {args.window}")
    _require(args.sectors >= 1, f"--sectors must be at least 1, got {args.sectors}")
    thresholds = tuple(_parse_float_list(args.thresholds, "--thresholds"))
    _require(len(thresholds) == 3,
             f"--thresholds needs exactly 3 values (market,sector,ipr), got {len(thresholds)}")
    _require(thresholds[0] >= 0, "--thresholds: market threshold must be >= 0")
    _require(thresholds[1] <= 0 and thresholds[2] <= 0,
             "--thresholds: sector and ipr thresholds must be <= 0")
    panel = _load_returns(args.input, args.input_kind, args.returns_kind)
    _require(panel.n_series > args.sectors + 1,
             f"--sectors: need more than sectors + 1 = {args.sectors + 1} series, "
             f"panel has {panel.n_series}")
    plan = dataio.window_slices(panel.n_steps, args.window)
    snapshots = []
    for lo, hi in plan.windows:
        corr = corrdist.corr_matrix(panel, window=(lo, hi))
        snapshots.append(spectral.spectral_snapshot(corr, sectors=args.sectors))
    deltas = []
    for first, second in zip(snapshots, snapshots[1:]):
        delta = spectral.spectral_delta(first, second)
        deltas.append({
            "from": list(first.window),
            "to": list(second.window),
            "d_market": delta.d_market,
            "d_sector": delta.d_sector,
            "d_ipr": delta.d_ipr,
            "flag": spectral.co_occurrence_flag(delta, thresholds),
        })
    config = {
        "input": args.input, "input_kind": args.input_kind,
        "returns_kind": args.returns_kind, "window": args.window,
        "sectors": args.sectors, "thresholds": list(thresholds), "out": args.out,
    }
    report = _report("spectral", args, config, {
        "dataset": _dataset_name(args.input),
        "snapshots": [{
            "window": list(s.window),
            "lambda_market": s.lambda_market,
            "lambda_sector": s.lambda_sector,
            "ipr_market": s.ipr_market,
            "ipr_unstable": s.ipr_unstable,
        } for s in snapshots],
        "deltas": deltas,
    })
    _emit_json(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- reproduce

def _recipe_fig1(args) -> int:
    args.rho_bar, args.T, args.grid, args.format = 0.2, 50, 2001, "csv"
    return cmd_density(args)


def _recipe_table1(args) -> int:
    """Stationary heavy-tailed panel: the global test's MC control rows."""
    truth = synthgen.one_factor_correlation(50, seed=7)
    spec = synthgen.GeneratorSpec(
        family=synthgen.FAMILY_STUDENT_T, n_series=50, n_steps=1750,
        seed=42, correlation=truth, nu=3.0,
    )
    panel = synthgen.sample_panel(spec)
    pairs = stationarity.all_pairs(50)[:100]
    scan = stationarity.global_scan(
        panel, (25, 50, 100), (0.01, 0.05, 0.10), pairs=pairs,
        threads=args.threads, dataset="synthetic-student-t-nu3",
    )
    cells = _scan_cells_json(scan)
    comparison = [{
        "T_w": cell["T_w"],
        "fraction": cell["fraction"],
        "stationary_target": [0.0, 0.03],
        "within_target": cell["fraction"] <= 0.03,
    } for cell in cells if cell["alpha"] == 0.05]
    config = {"recipe": "table1", "truth_seed": 7, "panel_seed": 42,
              "n_series": 50, "n_steps": 1750, "nu": 3.0, "n_pairs": 100,
              "out": args.out}
    report = _report("reproduce", args, config, {
        "dataset": scan.dataset,
        "params": scan.params,
        "cells": cells,
        "skipped": scan.skipped,
        "comparison": comparison,
    })
    _emit_json(report, args.out)
    return EXIT_OK


def _recipe_table2(args) -> int:
    """Stationary Gaussian panel: the local test's MC control rows."""
    truth = synthgen.one_factor_correlation(20, seed=11)
    spec = synthgen.GeneratorSpec(
        family=synthgen.FAMILY_GAUSSIAN, n_series=20, n_steps=1758,
        seed=42, correlation=truth,
    )
    panel = synthgen.sample_panel(spec)
    configs = [
        stationarity.LocalTestConfig(200, 50, stationarity.DEFAULT_N_VALUES),
        stationarity.LocalTestConfig(200, 100, stationarity.DEFAULT_N_VALUES),
        stationarity.LocalTestConfig(250, 250, stationarity.DEFAULT_N_VALUES),
    ]
    scan = stationarity.local_scan(panel, configs, dataset="synthetic-gaussian")
    cells = _scan_cells_json(scan)
    estimates = {c.tau: (panel.n_steps - c.t1) // c.tau + 1 for c in configs}
    comparison = [{
        "tau": cell["tau"],
        "n": cell["n"],
        "fraction": cell["fraction"],
        "estimates_per_pair": estimates[cell["tau"]],
        "stationary_target_at_n5": 0.002,
        "within_target": cell["fraction"] <= 0.002 if cell["n"] == 5 else None,
    } for cell in cells]
    config = {"recipe": "table2", "truth_seed": 11, "panel_seed": 42,
              "n_series": 20, "n_steps": 1758, "out": args.out}
    report = _report("reproduce", args, config, {
        "dataset": scan.dataset,
        "params": scan.params,
        "cells": cells,
        "skipped": scan.skipped,
        "comparison": comparison,
    })
    _emit_json(report, args.out)
    return EXIT_OK


def _recipe_fig3_bands(args) -> int:
    """Non-optimality bands under identity vs estimated truth."""
    truth = synthgen.one_factor_correlation(80, seed=3)
    spec = synthgen.GeneratorSpec(
        family=synthgen.FAMILY_GAUSSIAN, n_series=80, n_steps=1758,
        seed=42, correlation=truth,
    )
    panel = synthgen.sample_panel(spec)
    qs = portfolio.q_series(panel, 150, 150)
    estimated = synthgen.sample_estimate_as_truth(panel)
    band_est = portfolio.mc_band(80, 150, 150, 100, estimated, seed=42)
    band_id = portfolio.mc_band(80, 150, 150, 100,
                                synthgen.identity_correlation(80), seed=42)
    flags = portfolio.flag_band_violations(qs, band_est)
    pooled_sd = float(np.sqrt(0.5 * (band_est.sd ** 2 + band_id.sd ** 2)))
    config = {"recipe": "fig3-bands", "truth_seed": 3, "panel_seed": 42,
              "n_series": 80, "n_steps": 1758, "t1": 150, "t2": 150,
              "replicas": 100, "mc_seed": 42, "out": args.out}
    report = _report("reproduce", args, config, {
        "dataset": "synthetic-gaussian",
        "band_estimated_truth": {"mean": band_est.mean, "sd": band_est.sd, "k": 5.0},
        "band_identity_truth": {"mean": band_id.mean, "sd": band_id.sd, "k": 5.0},
        "band_center_gap": abs(band_est.mean - band_id.mean),
        "pooled_sd": pooled_sd,
        "bands_consistent": abs(band_est.mean - band_id.mean) < 2.0 * pooled_sd,
        "samples": [{
            "sample": exp.sample,
            "t1_range": list(exp.t1_range),
            "t2_range": list(exp.t2_range),
            "sigma_E": exp.sigma_e,
            "sigma_R": exp.sigma_r,
            "q": exp.q,
            "violation": bool(flag),
        } for exp, flag in zip(qs, flags)],
    })
    _emit_json(report, args.out)
    return EXIT_OK


_RECIPES = {
    "fig1": _recipe_fig1,
    "table1": _recipe_table1,
    "table2": _recipe_table2,
    "fig3-bands": _recipe_fig3_bands,
}


def cmd_reproduce(args) -> int:
    return _RECIPES[args.recipe](args)


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """argparse that reports a bad command line in one line, without the usage block."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrstat",
        description="Correlation stationarity tests and portfolio q-ratio diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"corrstat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", default=None,
                        help="worker threads for global-scan and reproduce table1 "
                             "(default: CORRSTAT_THREADS or 1)")
    common.add_argument("--timestamp", default=None,
                        help="timestamp string for reports (default: "
                             "CORRSTAT_TIMESTAMP or 'unset')")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    panel_in = argparse.ArgumentParser(add_help=False)
    panel_in.add_argument("--input", required=True, help="CSV panel path")
    panel_in.add_argument("--input-kind", choices=("prices", "returns"),
                          default="prices",
                          help="whether the input rows are prices or returns")
    panel_in.add_argument("--returns-kind", choices=("log", "simple"), default="log",
                          help="return definition when the input holds prices")

    p = sub.add_parser("density", parents=[common],
                       help="exact sampling density of the Pearson estimator")
    p.add_argument("--rho-bar", type=float, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("global-scan", parents=[common, panel_in],
                       help="windowed KS test of correlation stationarity, all pairs")
    p.add_argument("--window", default="25,50,100", help="comma-separated window lengths")
    p.add_argument("--alpha", default="0.01,0.05,0.10", help="comma-separated levels")
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--reshuffle-seed", type=int, default=None,
                   help="run a synchronous-reshuffle control with this seed")
    p.add_argument("--mc", default=None,
                   help="stationary MC control family: gaussian or student-t:NU")
    p.add_argument("--mc-seed", type=int, default=0)
    p.set_defaults(handler=cmd_global_scan)

    p = sub.add_parser("local-scan", parents=[common, panel_in],
                       help="expanding-window increment test of correlation stationarity")
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--tau", default="50", help="comma-separated step sizes")
    p.add_argument("--n", default="1,2,3,4,5", help="comma-separated sigma multiples")
    p.add_argument("--sigma-convention", choices=("window", "paper"), default="window")
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--mc", default=None,
                   help="stationary MC control family: gaussian or student-t:NU")
    p.add_argument("--mc-seed", type=int, default=0)
    p.set_defaults(handler=cmd_local_scan)

    p = sub.add_parser("simulate", parents=[common],
                       help="draw a stationary synthetic return panel")
    p.add_argument("--family", required=True, help="gaussian or student-t")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--corr", required=True,
                   help="from:PATH | identity:N | equicorr:N:RHO | onefactor:N:SEED")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--replica", type=int, default=0)
    p.add_argument("--input-kind", choices=("prices", "returns"), default="prices",
                   help="how to read the from:PATH panel")
    p.add_argument("--returns-kind", choices=("log", "simple"), default="log")
    p.set_defaults(handler=cmd_simulate)
    p.set_defaults(out_required="simulate")

    p = sub.add_parser("qscan", parents=[common, panel_in],
                       help="realized/in-sample risk ratio with MC non-optimality band")
    p.add_argument("--n-stocks", type=int, default=None)
    p.add_argument("--select-seed", type=int, default=1)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--mc-seed", type=int, default=42)
    p.add_argument("--band-sigmas", type=float, default=portfolio.DEFAULT_BAND_SIGMAS)
    p.add_argument("--truth", choices=("estimated", "identity"), default="estimated",
                   help="correlation truth for the MC band")
    p.add_argument("--independent-windows", action="store_true",
                   help="disable window chaining")
    p.add_argument("--volatilities", default=None,
                   help="ticker,volatility CSV for the MC truth (default: unit)")
    p.set_defaults(handler=cmd_qscan)

    p = sub.add_parser("spectral", parents=[common, panel_in],
                       help="per-window eigenvalue/IPR snapshots and deltas")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--sectors", type=int, default=spectral.DEFAULT_SECTOR_COUNT)
    p.add_argument("--thresholds", default="0,0,0",
                   help="market,sector,ipr co-occurrence thresholds")
    p.set_defaults(handler=cmd_spectral)

    p = sub.add_parser("reproduce", parents=[common],
                       help="rerun a documented pipeline on synthetic fixtures")
    p.add_argument("recipe", choices=sorted(_RECIPES))
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if getattr(args, "out_required", None) and args.out is None:
        print(f"error: --out is required for {args.out_required}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.threads = _threads(args.threads)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorrstatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
