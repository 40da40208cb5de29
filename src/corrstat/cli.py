"""Command-line front door: one subcommand per workflow, JSON/CSV reports.

Every report embeds the toolkit version, the timestamp and the config:
every parsed flag but --threads (validated, it changes no work) and
--timestamp, plus a reproduce recipe's parameter dict, so a run can be
reproduced from its own output.  The timestamp is --timestamp, by
default the literal string "unset": no shell variable sets it, and
wall-clock values would break byte-level reproducibility.

Each flag's own rules are checked where argparse parses it, by its type:
a real flag reads the (ok, bound) rule the library checks it with, and
counts and sizes stop at 2**53, or at a lower library bound (density's
--T at dataio.MAX_T).  Handlers check only what needs another
flag or the panel.

Exit codes: 0 success, 2 flag validation failure (message names the
flag), 1 runtime failure, running out of memory included.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, corrdist, dataio, portfolio, spectral, stationarity, synthgen
from .errors import CorrstatError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

TIMESTAMP_UNSET = "unset"

_F = "%.17g"
_NOT_ECHOED = ("subcommand", "handler", "threads", "timestamp")


class UsageError(Exception):
    """Flag validation failure; the message must name the flag."""


def _report(command: str, args, payload: dict) -> dict:
    """The report of one run; its config is every parsed flag but --threads and --timestamp."""
    return {
        "command": command,
        "version": __version__,
        "generated_at": args.timestamp,
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED},
        **payload,
    }


def _emit(text: str, out, report: dict):
    """Write text to stdout, or to the out file and echo the report's config."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    _echo_config(report)


def _emit_json(report: dict, out) -> int:
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", out, report)
    return EXIT_OK


def _echo_config(report: dict):
    slim = {k: report[k] for k in ("command", "version", "generated_at", "config")}
    print(json.dumps(slim, sort_keys=True))


# The largest integer a float64 holds exactly: every count or size flag is
# used as a float or as an array size, so none may exceed it.
_INT_CAP = dataio.MAX_CELLS


def _bounded(cast, ok, bound: str, many: bool = False):
    """argparse type: the text cast by int or float, accepted when ok(value).

    With many, the text is a comma-separated list of at least one value,
    blanks skipped, and ok sees the whole list.  Text the cast refuses
    reads "invalid int (or float) value", a value ok refuses "must be <bound>".
    """
    def parse(text: str):
        value = [cast(tok) for tok in text.split(",") if tok.strip()] if many else cast(text)
        if (value or not many) and ok(value):
            return value
        raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")

    parse.__name__ = cast.__name__
    return parse


def _count(low: int, many: bool = False, high: int = _INT_CAP):
    """Integers in [low, high], high 2**53 by default; with many, a comma-separated list."""
    top = "2**53" if high == _INT_CAP else high
    if many:
        return _bounded(int, lambda vs: all(low <= v <= high for v in vs),
                        f"comma-separated integers in [{low}, {top}]", many=True)
    return _bounded(int, lambda v: low <= v <= high, f"an integer in [{low}, {top}]")


# Seeds and replica indices label substreams, so any size is fine.
_LABEL = _bounded(int, lambda v: v >= 0, "a non-negative integer")


def _split_family(text: str):
    """(family, nu) of 'gaussian' or 'student-t:NU', nu None without a ':'."""
    family, colon, nu = text.partition(":")
    return family, float(nu) if colon else None


def _family(text: str) -> str:
    """argparse type of --family and --mc: text _split_family splits into a
    (family, nu) that synthgen.checked_family accepts; kept as text."""
    try:
        synthgen.checked_family(*_split_family(text))
        return text
    except (ValueError, CorrstatError):
        raise argparse.ArgumentTypeError(f"must be 'gaussian' or 'student-t:NU' with a finite "
                                         f"NU >= {synthgen.MIN_NU:g}, got {text!r}") from None


def _load_returns(path: str, kind: str, flag: str = "--input"):
    try:
        return dataio.load_price_panel(path, kind)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot read {path}: {exc}") from None


def _parse_corr_spec(text: str, flag: str, input_kind: str):
    """'from:PATH' | 'identity:N' | 'equicorr:N:RHO' | 'onefactor:N:SEED'.

    A from:PATH panel that cannot be read is a usage error; one that reads
    but holds bad data fails at runtime, as --input does elsewhere.
    """
    head, _, tail = text.partition(":")
    if head == "from" and tail:
        panel = _load_returns(tail, input_kind, flag=flag)
        return synthgen.sample_estimate_as_truth(panel)
    try:
        if head == "identity":
            return synthgen.identity_correlation(int(tail))
        if head == "equicorr":
            n, rho = tail.split(":")
            return synthgen.equicorr_correlation(int(n), float(rho))
        if head == "onefactor":
            n, seed = tail.split(":")
            return synthgen.one_factor_correlation(int(n), int(seed))
    except (ValueError, CorrstatError) as exc:
        raise UsageError(f"{flag}: invalid correlation spec {text!r}: {exc}") from None
    raise UsageError(
        f"{flag} must be from:PATH, identity:N, equicorr:N:RHO or onefactor:N:SEED, "
        f"got {text!r}"
    )


def _require(condition: bool, message: str):
    if not condition:
        raise UsageError(message)


def _fraction(value: float):
    """A scan fraction for JSON: NaN, a cell with no tested pair, becomes null."""
    return None if math.isnan(value) else value


def _scan_json(scan: stationarity.ScanReport) -> dict:
    return {
        "dataset": scan.dataset,
        "params": scan.params,
        "cells": [{
            cell.dim_name: cell.dim_value,
            cell.threshold_name: cell.threshold_value,
            "fraction": _fraction(cell.fraction),
            "denominator": cell.denominator,
            "control_fractions": {k: _fraction(v) for k, v in sorted(cell.controls.items())},
        } for cell in scan.cells],
        "skipped": scan.skipped,
    }


def _scan_input(args):
    """--input's panel, and the pairs, MC control and dataset keywords of both scans."""
    mc_family, mc_nu = _split_family(args.mc) if args.mc else (None, None)
    panel = _load_returns(args.input, args.input_kind)
    return panel, {
        "pairs": stationarity.all_pairs(panel.n_series)[:args.max_pairs],
        "mc_family": mc_family, "mc_nu": mc_nu,
        "mc_seed": args.mc_seed, "dataset": os.path.basename(args.input),
    }


def _q_samples_json(qs, flags, **extra) -> list:
    return [{
        "sample": exp.sample,
        "t1_range": list(exp.t1_range),
        "t2_range": list(exp.t2_range),
        "sigma_E": exp.sigma_e,
        "sigma_R": exp.sigma_r,
        "q": exp.q,
        "violation": bool(flag),
        **extra,
    } for exp, flag in zip(qs, flags)]


# ---------------------------------------------------------------- density

def cmd_density(args) -> int:
    params = corrdist.CorrParams(args.rho_bar, args.T)
    grid = np.linspace(-1.0, 1.0, args.grid)
    dens = corrdist.rho_density(grid, params)
    gauss = corrdist.gaussian_approx_density(grid, params)
    columns = ["rho", "density", "gaussian_approx"]
    rows = [[float(r), float(d), float(g)] for r, d, g in zip(grid, dens, gauss)]
    if args.format == "json":
        return _emit_json(_report("density", args, {"columns": columns, "rows": rows}),
                          args.out)
    lines = [",".join(columns)] + [",".join(_F % v for v in row) for row in rows]
    _emit("\n".join(lines) + "\n", args.out, _report("density", args, {}))
    return EXIT_OK


# ---------------------------------------------------------------- global-scan

def cmd_global_scan(args) -> int:
    panel, scan_kw = _scan_input(args)
    scan = stationarity.global_scan(panel, args.window, args.alpha,
                                    reshuffle_seed=args.reshuffle_seed,
                                    threads=args.threads, **scan_kw)
    return _emit_json(_report("global-scan", args, _scan_json(scan)), args.out)


# ---------------------------------------------------------------- local-scan

def cmd_local_scan(args) -> int:
    panel, scan_kw = _scan_input(args)
    configs = [stationarity.LocalTestConfig(args.t1, tau, tuple(args.n)) for tau in args.tau]
    scan = stationarity.local_scan(panel, configs,
                                   sigma_convention=args.sigma_convention, **scan_kw)
    return _emit_json(_report("local-scan", args, _scan_json(scan)), args.out)


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    _require(args.out is not None, "--out is required for simulate")
    truth = _parse_corr_spec(args.corr, "--corr", args.input_kind)
    _require(truth.n_series * args.T <= _INT_CAP,
             f"--T: a panel of {truth.n_series} series x {args.T} steps exceeds 2**53 cells")
    family, nu = _split_family(args.family)
    panel = synthgen.sample_panel(truth, args.T, args.seed, family, nu, replica=args.replica)
    dataio.save_panel_csv(panel, args.out)
    _echo_config(_report("simulate", args, {}))
    return EXIT_OK


# ---------------------------------------------------------------- qscan

def cmd_qscan(args) -> int:
    panel = _load_returns(args.input, args.input_kind)
    if args.n_stocks is not None:
        _require(args.n_stocks <= panel.n_series,
                 f"--n-stocks must lie in [1, {panel.n_series}], got {args.n_stocks}")
        panel = portfolio.select_stocks(panel, args.n_stocks, args.select_seed)
    margin = portfolio.BAND_T1_MARGIN
    _require(args.t1 > panel.n_series + margin,
             f"--t1 must exceed the number of stocks + {margin} ({panel.n_series + margin}): "
             f"the band's q has a finite sd only for T1 > N + {margin}")
    qs = portfolio.q_series(panel, args.t1, args.t2,
                            chained=not args.independent_windows)
    band = portfolio.mc_band(panel.n_series, args.t1, args.t2, args.replicas,
                             synthgen.sample_estimate_as_truth(panel), args.mc_seed)
    flags = portfolio.flag_band_violations(qs, band, n_sigma=args.band_sigmas)
    band_json = {"mean": band.mean, "sd": band.sd, "k": args.band_sigmas}
    return _emit_json(_report("qscan", args, {
        "dataset": os.path.basename(args.input),
        "tickers": list(panel.tickers),
        "band": band_json,
        "samples": _q_samples_json(qs, flags, band=band_json),
    }), args.out)


# ---------------------------------------------------------------- spectral

def cmd_spectral(args) -> int:
    panel = _load_returns(args.input, args.input_kind)
    _require(panel.n_series > args.sectors + 1,
             f"--sectors: need more than sectors + 1 = {args.sectors + 1} series, "
             f"panel has {panel.n_series}")
    snapshots = []
    for window in dataio.window_slices(panel.n_steps, args.window):
        corr = corrdist.corr_matrix(panel, window=window)
        snapshots.append(spectral.spectral_snapshot(corr, sectors=args.sectors))
    deltas = []
    for first, second in zip(snapshots, snapshots[1:]):
        delta = spectral.spectral_delta(first, second)
        deltas.append({
            "from": list(first.window),
            "to": list(second.window),
            **delta._asdict(),
            "flag": spectral.co_occurrence_flag(delta, args.thresholds),
        })
    return _emit_json(_report("spectral", args, {
        "dataset": os.path.basename(args.input),
        "snapshots": [s._asdict() for s in snapshots],
        "deltas": deltas,
    }), args.out)


# ---------------------------------------------------------------- reproduce

def _fixture(args, family: str, nu=None):
    """The recipes' stationary panel: a one-factor truth at the recipe's sizes and seeds."""
    truth = synthgen.one_factor_correlation(args.n_series, seed=args.truth_seed)
    return synthgen.sample_panel(truth, args.n_steps, args.panel_seed, family, nu)


def _recipe_table1(args) -> int:
    """Stationary heavy-tailed panel: the global test's MC control rows."""
    panel = _fixture(args, synthgen.FAMILY_STUDENT_T, nu=args.nu)
    scan = stationarity.global_scan(
        panel, (25, 50, 100), (0.01, 0.05, 0.10),
        pairs=stationarity.all_pairs(args.n_series)[:args.n_pairs],
        threads=args.threads, dataset=f"synthetic-student-t-nu{args.nu:g}",
    )
    target = [0.0, 0.03]
    payload = _scan_json(scan)
    payload["comparison"] = [{
        "T_w": cell["T_w"],
        "fraction": cell["fraction"],
        "stationary_target": target,
        "within_target": cell["fraction"] <= target[1],
    } for cell in payload["cells"] if cell["alpha"] == 0.05]
    return _emit_json(_report("reproduce", args, payload), args.out)


def _recipe_table2(args) -> int:
    """Stationary Gaussian panel: the local test's MC control rows."""
    panel = _fixture(args, synthgen.FAMILY_GAUSSIAN)
    configs = [stationarity.LocalTestConfig(t1, tau)
               for t1, tau in ((200, 50), (200, 100), (250, 250))]
    scan = stationarity.local_scan(panel, configs, dataset="synthetic-gaussian")
    estimates = {c.tau: (panel.n_steps - c.t1) // c.tau + 1 for c in configs}
    target = 0.002
    payload = _scan_json(scan)
    payload["comparison"] = [{
        "tau": cell["tau"],
        "n": cell["n"],
        "fraction": cell["fraction"],
        "estimates_per_pair": estimates[cell["tau"]],
        "stationary_target_at_n5": target,
        "within_target": cell["fraction"] <= target if cell["n"] == 5 else None,
    } for cell in payload["cells"]]
    return _emit_json(_report("reproduce", args, payload), args.out)


def _recipe_fig3_bands(args) -> int:
    """Non-optimality bands under identity vs estimated truth."""
    panel = _fixture(args, synthgen.FAMILY_GAUSSIAN)
    qs = portfolio.q_series(panel, args.t1, args.t2)
    band_est, band_id = (
        portfolio.mc_band(args.n_series, args.t1, args.t2, args.replicas, truth,
                          seed=args.mc_seed)
        for truth in (synthgen.sample_estimate_as_truth(panel),
                      synthgen.identity_correlation(args.n_series))
    )
    flags = portfolio.flag_band_violations(qs, band_est)
    k = portfolio.DEFAULT_BAND_SIGMAS
    pooled_sd = float(np.sqrt(0.5 * (band_est.sd ** 2 + band_id.sd ** 2)))
    return _emit_json(_report("reproduce", args, {
        "dataset": "synthetic-gaussian",
        "band_estimated_truth": {"mean": band_est.mean, "sd": band_est.sd, "k": k},
        "band_identity_truth": {"mean": band_id.mean, "sd": band_id.sd, "k": k},
        "band_center_gap": abs(band_est.mean - band_id.mean),
        "pooled_sd": pooled_sd,
        "bands_consistent": abs(band_est.mean - band_id.mean) < 2.0 * pooled_sd,
        "samples": _q_samples_json(qs, flags),
    }), args.out)


# Each recipe's one parameter dict: it drives the recipe and is echoed in its config.
_RECIPES = {
    "fig1": (cmd_density, {"rho_bar": 0.2, "T": 50, "grid": 2001, "format": "csv"}),
    "table1": (_recipe_table1, {"n_series": 50, "n_steps": 1750, "truth_seed": 7,
                                "panel_seed": 42, "nu": 3.0, "n_pairs": 100}),
    "table2": (_recipe_table2, {"n_series": 20, "n_steps": 1758, "truth_seed": 11,
                                "panel_seed": 42}),
    "fig3-bands": (_recipe_fig3_bands, {"n_series": 80, "n_steps": 1758, "truth_seed": 3,
                                        "panel_seed": 42, "t1": 150, "t2": 150,
                                        "replicas": 100, "mc_seed": 42}),
}


def cmd_reproduce(args) -> int:
    recipe, params = _RECIPES[args.recipe]
    vars(args).update(params)
    return recipe(args)


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """argparse whose errors raise UsageError: main reports them in one line, no usage block."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrstat",
        description="Correlation stationarity tests and portfolio q-ratio diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"corrstat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_count(1), default=1,
                        help="thread count, validated and otherwise unused (default: 1)")
    common.add_argument("--timestamp", default=TIMESTAMP_UNSET,
                        help="timestamp string for reports (default: %(default)r; "
                             "no shell variable sets it)")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    kinds = argparse.ArgumentParser(add_help=False)
    kinds.add_argument("--input-kind", choices=dataio.RETURN_KINDS, default="log",
                       help="log or simple changes of price cells, or return cells as they are")

    panel_in = argparse.ArgumentParser(add_help=False, parents=[kinds])
    panel_in.add_argument("--input", required=True, help="CSV panel path")

    scan_in = argparse.ArgumentParser(add_help=False)
    scan_in.add_argument("--max-pairs", type=_count(1), default=None)
    scan_in.add_argument("--mc", type=_family, default=None,
                         help="stationary MC control family: gaussian or student-t:NU")
    scan_in.add_argument("--mc-seed", type=_LABEL, default=0)

    p = sub.add_parser("density", parents=[common],
                       help="exact sampling density of the Pearson estimator")
    p.add_argument("--rho-bar", required=True, type=_bounded(float, *corrdist.RHO_BAR_RULE))
    p.add_argument("--T", type=_count(dataio.MIN_T, high=dataio.MAX_T), required=True)
    p.add_argument("--grid", type=_count(2), default=2001)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("global-scan", parents=[common, panel_in, scan_in],
                       help="windowed KS test of correlation stationarity, all pairs")
    p.add_argument("--window", type=_count(corrdist.MIN_T, many=True), default="25,50,100",
                   help="comma-separated window lengths")
    p.add_argument("--alpha", default="0.01,0.05,0.10", help="comma-separated levels",
                   type=_bounded(float, lambda a: all(map(stationarity.ALPHA_RULE[0], a)),
                                 "comma-separated numbers in (0, 1)", many=True))
    p.add_argument("--reshuffle-seed", type=_LABEL, default=None,
                   help="run a synchronous-reshuffle control with this seed")
    p.set_defaults(handler=cmd_global_scan)

    p = sub.add_parser("local-scan", parents=[common, panel_in, scan_in],
                       help="expanding-window increment test of correlation stationarity")
    p.add_argument("--t1", type=_count(corrdist.MIN_T), required=True)
    p.add_argument("--tau", type=_count(1, many=True), default="50",
                   help="comma-separated step sizes")
    p.add_argument("--n", type=_count(1, many=True), default="1,2,3,4,5",
                   help="comma-separated sigma multiples")
    p.add_argument("--sigma-convention", choices=("window", "paper"), default="window")
    p.set_defaults(handler=cmd_local_scan)

    p = sub.add_parser("simulate", parents=[common, kinds],
                       help="draw a stationary synthetic return panel")
    p.add_argument("--family", type=_family, required=True, help="gaussian or student-t:NU")
    p.add_argument("--corr", required=True,
                   help="from:PATH | identity:N | equicorr:N:RHO | onefactor:N:SEED")
    p.add_argument("--T", type=_count(1), required=True)
    p.add_argument("--seed", type=_LABEL, default=42)
    p.add_argument("--replica", type=_LABEL, default=0)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("qscan", parents=[common, panel_in],
                       help="realized/in-sample risk ratio with MC non-optimality band")
    p.add_argument("--n-stocks", type=_count(1), default=None)
    p.add_argument("--select-seed", type=_LABEL, default=1)
    p.add_argument("--t1", type=_count(2), required=True,
                   help=f"estimation window length, above N + {portfolio.BAND_T1_MARGIN}: "
                        f"only there does the band's q have a finite sd")
    p.add_argument("--t2", type=_count(2), required=True)
    p.add_argument("--replicas", type=_count(portfolio.MIN_REPLICAS), default=100)
    p.add_argument("--mc-seed", type=_LABEL, default=42)
    p.add_argument("--band-sigmas", default=portfolio.DEFAULT_BAND_SIGMAS,
                   type=_bounded(float, *portfolio.BAND_SIGMAS_RULE))
    p.add_argument("--independent-windows", action="store_true",
                   help="disable window chaining")
    p.set_defaults(handler=cmd_qscan)

    p = sub.add_parser("spectral", parents=[common, panel_in],
                       help="per-window eigenvalue/IPR snapshots and deltas")
    p.add_argument("--window", type=_count(corrdist.MIN_T), required=True)
    p.add_argument("--sectors", type=_count(1), default=spectral.DEFAULT_SECTOR_COUNT)
    p.add_argument("--thresholds", default="0,0,0",
                   help="market,sector,ipr co-occurrence thresholds",
                   type=_bounded(float, lambda t: len(t) == 3 and all(
                       ok(theta) for (_, ok, _), theta in zip(spectral.THRESHOLD_RULES, t)),
                       "market,sector,ipr with market >= 0 and sector, ipr <= 0", many=True))
    p.set_defaults(handler=cmd_spectral)

    p = sub.add_parser("reproduce", parents=[common],
                       help="rerun a documented pipeline on synthetic fixtures")
    p.add_argument("recipe", choices=sorted(_RECIPES))
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
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
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
