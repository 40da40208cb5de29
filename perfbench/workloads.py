"""Workload definitions: seeded input panels, corrstat command lines and output checks.

Inputs are one-factor panels generated here with numpy, not with
corrstat's own generator, so a change to corrstat cannot change what the
benchmark feeds it.  Each workload puts most of its work in a different
corrstat module:

* global-heavy-tail: global KS scan with both control columns; the exact
  CDF tables in ``corrdist`` dominate and the thread pool helps.
* local-wide: expanding-window scan over 19,900 pairs; scalar loops in
  ``stationarity`` dominate and the thread pool hurts (GIL contention).
* qband-spectral: q ratio with 1000 Monte Carlo replicas, then the
  windowed spectrum; ``portfolio`` and ``synthgen`` dominate.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REL_TOL = 1e-9
LOADINGS = (0.3, 0.9)


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "student-t" (nu = 3) or "gaussian"
    n_series: int
    n_steps: int
    invocations: tuple  # one argv tail per corrstat process; "{input}" is the panel path

    def argvs(self, panel_path: str, threads: int):
        """The op's corrstat command lines, each with an explicit --threads."""
        return [
            [a.replace("{input}", panel_path) for a in inv] + ["--threads", str(threads)]
            for inv in self.invocations
        ]


_RETURNS = ("--input", "{input}", "--input-kind", "returns")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "global-heavy-tail", "student-t", 50, 1750,
            (("global-scan", *_RETURNS, "--window", "25,50,100",
              "--reshuffle-seed", "7", "--mc", "gaussian", "--max-pairs", "10"),),
        ),
        Workload(
            "local-wide", "gaussian", 200, 1758,
            (("local-scan", *_RETURNS, "--t1", "200", "--tau", "50,100",
              "--n", "1,2,3,4,5"),),
        ),
        Workload(
            "qband-spectral", "gaussian", 100, 1750,
            (("qscan", *_RETURNS, "--t1", "150", "--t2", "150", "--replicas", "1000"),
             ("spectral", *_RETURNS, "--window", "150", "--sectors", "3")),
        ),
    )
}


# ---------------------------------------------------------------- inputs

def one_factor_returns(workload: Workload, seed: int) -> np.ndarray:
    """N x T returns: r = beta f + sqrt(1 - beta^2) e, beta ~ U(0.3, 0.9).

    The Student-t family scales each day's cross-section by
    sqrt(nu / chi2_nu) with nu = 3, a multivariate t with the same
    correlation.  Same (workload, seed), same panel.
    """
    entropy = (int(seed), zlib.crc32(workload.name.encode("utf-8")))
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    n, t = workload.n_series, workload.n_steps
    beta = rng.uniform(*LOADINGS, size=n)
    factor = rng.standard_normal(t)
    noise = rng.standard_normal((n, t))
    returns = beta[:, None] * factor[None, :] + np.sqrt(1.0 - beta * beta)[:, None] * noise
    if workload.family == "student-t":
        nu = 3.0
        returns *= np.sqrt(nu / rng.chisquare(nu, size=t))[None, :]
    return 0.01 * returns


def write_panel(returns: np.ndarray, path: Path) -> int:
    """Ticker-per-column returns CSV at full precision; returns its size in bytes."""
    n = returns.shape[0]
    header = ",".join(f"S{i:03d}" for i in range(n))
    np.savetxt(path, returns.T, fmt="%.17g", delimiter=",", header=header, comments="")
    return path.stat().st_size


# ---------------------------------------------------------------- checks

def _chained_samples(t_total: int, t1: int, t2: int) -> int:
    k = max(1, -(-t1 // t2))
    return max(0, t_total // t2 - k)


def _check_scan(report, expect_cells, denominator_of, errors):
    if report.get("skipped") != []:
        errors.append(f"skipped is not empty: {str(report.get('skipped'))[:200]}")
    cells = report["cells"]
    if len(cells) != expect_cells:
        errors.append(f"{len(cells)} cells, expected {expect_cells}")
    for cell in cells:
        want = denominator_of(cell)
        if cell["denominator"] != want:
            errors.append(f"denominator {cell['denominator']} != {want} in {cell}")
        for value in [cell["fraction"], *cell["control_fractions"].values()]:
            if not (isinstance(value, float) and 0.0 <= value <= 1.0):
                errors.append(f"fraction {value!r} outside [0, 1]")


def check_structure(workload: Workload, index: int, report: dict) -> list[str]:
    """Seed-independent checks of one invocation's parsed report."""
    errors = []
    command = workload.invocations[index][0]
    if report.get("command") != command:
        return [f"report command {report.get('command')!r} != {command!r}"]
    n, t = workload.n_series, workload.n_steps
    if command == "global-scan":
        n_pairs = min(10, n * (n - 1) // 2)
        if report["params"]["n_pairs"] != n_pairs:
            errors.append(f"n_pairs {report['params']['n_pairs']} != {n_pairs}")
        _check_scan(report, 9, lambda cell: n_pairs, errors)
        for cell in report["cells"]:
            if sorted(cell["control_fractions"]) != ["mc", "reshuffle"]:
                errors.append(f"control columns {sorted(cell['control_fractions'])}")
    elif command == "local-scan":
        n_pairs = n * (n - 1) // 2
        if report["params"]["n_pairs"] != n_pairs:
            errors.append(f"n_pairs {report['params']['n_pairs']} != {n_pairs}")
        steps = {tau: len(range(200, t + 1, tau)) - 1 for tau in (50, 100)}
        _check_scan(report, 10, lambda cell: n_pairs * steps.get(cell["tau"], -1), errors)
    elif command == "qscan":
        band = report["band"]
        if not (math.isfinite(band["mean"]) and band["sd"] > 0.0):
            errors.append(f"band {band}")
        samples = report["samples"]
        want = _chained_samples(t, 150, 150)
        if len(samples) != want:
            errors.append(f"{len(samples)} q samples, expected {want}")
        limit = band["mean"] + band["k"] * band["sd"]
        for s in samples:
            if not (math.isfinite(s["q"]) and s["q"] > 0.0):
                errors.append(f"q {s['q']!r} not a positive number")
            elif s["violation"] != (s["q"] > limit):
                errors.append(f"violation flag disagrees with q for sample {s['sample']}")
    elif command == "spectral":
        snaps = report["snapshots"]
        if len(snaps) != t // 150 or len(report["deltas"]) != len(snaps) - 1:
            errors.append(f"{len(snaps)} snapshots, {len(report['deltas'])} deltas")
        for s in snaps:
            if not (1.0 <= s["lambda_market"] <= n and 1.0 / n <= s["ipr_market"] <= 1.0):
                errors.append(f"snapshot out of range: {s}")
    return errors


def summary(report: dict) -> dict:
    """The report's numbers: 'exact' ones must match a reference exactly,
    'close' ones to REL_TOL relative."""
    command = report["command"]
    if command in ("global-scan", "local-scan"):
        exact = [
            [c.get("T_w", c.get("tau")), c.get("alpha", c.get("n")), c["fraction"],
             c["denominator"], c["control_fractions"]]
            for c in report["cells"]
        ]
        return {"exact": exact, "close": []}
    if command == "qscan":
        band = report["band"]
        return {
            "exact": [s["violation"] for s in report["samples"]],
            "close": [band["mean"], band["sd"]]
            + [v for s in report["samples"] for v in (s["q"], s["sigma_E"], s["sigma_R"])],
        }
    return {
        "exact": [s["ipr_unstable"] for s in report["snapshots"]]
        + [d["flag"] for d in report["deltas"]],
        "close": [v for s in report["snapshots"]
                  for v in (s["lambda_market"], s["lambda_sector"], s["ipr_market"])]
        + [v for d in report["deltas"] for v in (d["d_market"], d["d_sector"], d["d_ipr"])],
    }


def compare_to_reference(got: dict, ref: dict) -> list[str]:
    errors = []
    if got["exact"] != ref["exact"]:
        errors.append("exact fields differ from the reference")
    if len(got["close"]) != len(ref["close"]):
        errors.append("float field count differs from the reference")
    else:
        for i, (a, b) in enumerate(zip(got["close"], ref["close"])):
            if not abs(a - b) <= REL_TOL * max(abs(a), abs(b)):
                errors.append(f"float field {i}: {a!r} vs reference {b!r}")
                break
    return errors


def check_report(workload: Workload, index: int, text: bytes, reference=None) -> list[str]:
    """Errors in one invocation's report: parse, structure, then the reference."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"unparsable report: {exc}"]
    try:
        errors = check_structure(workload, index, report)
        if reference is not None and not errors:
            errors = compare_to_reference(summary(report), reference)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        errors = [f"malformed report: {type(exc).__name__}: {exc}"]
    return errors
