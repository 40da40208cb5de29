"""Two stationarity tests for pairwise correlation dynamics.

The global test splits the sample into disjoint windows, measures one
coefficient per window, and KS-compares the empirical sample against the
exact stationary law (corrdist) at a plug-in rho_bar taken from the
union of the windows.  The local test tracks expanding-window estimates
rho_1, rho_2, ... and flags consecutive steps whose change exceeds n
standard errors of the earlier estimate.

Both scans are parallel maps over pairs; the plug-in makes the global
test conservative (rejection rates on stationary controls land well
below nominal alpha), which the scans quantify with reshuffle and
Monte Carlo control columns instead of correcting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import synthgen
from .corrdist import CorrParams, pearson, rho_cdf
from .dataio import ReturnPanel, synchronous_reshuffle, window_slices
from .errors import (
    CorrstatError,
    InsufficientData,
    InsufficientSamples,
    InvalidParameter,
    ZeroVariance,
)
from .parallel import parallel_map

# Plug-in estimates this close to +-1 are degenerate (identical rows up
# to noise); clamp inside the density domain and let KS reject them.
_PLUGIN_CLAMP = 1.0 - 1e-9

_SERIES_TOL = 1e-12
_MAX_SERIES_TERMS = 100_000

DEFAULT_ALPHAS = (0.01, 0.05, 0.10)
DEFAULT_N_VALUES = (1, 2, 3, 4, 5)

SIGMA_WINDOW = "window"
SIGMA_PAPER = "paper"


@dataclass(frozen=True)
class GlobalTestResult:
    pair: tuple[int, int]
    window_len: int
    samples: tuple[float, ...]
    rho_bar_hat: float
    d_stat: float
    p_value: float
    reject_at: tuple[tuple[float, bool], ...]

    @property
    def n_windows(self) -> int:
        return len(self.samples)

    def rejects(self, alpha: float) -> bool:
        for a, flag in self.reject_at:
            if a == alpha:
                return flag
        raise InvalidParameter(f"alpha {alpha!r} was not part of the test")


@dataclass(frozen=True)
class LocalTestConfig:
    """Expanding-window geometry: first window t1, increments of tau."""

    t1: int
    tau: int
    n_values: tuple[int, ...] = DEFAULT_N_VALUES

    def __post_init__(self):
        if self.t1 < 10:
            raise InvalidParameter(f"t1 must be >= 10, got {self.t1}")
        if self.tau < 1:
            raise InvalidParameter(f"tau must be >= 1, got {self.tau}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise InvalidParameter("n_values must be integers >= 1")


class LocalTestOutcome(NamedTuple):
    violations: int
    flags: tuple[bool, ...]


@dataclass
class ScanCell:
    dim_name: str
    dim_value: float
    threshold_name: str
    threshold_value: float
    fraction: float
    denominator: int
    controls: dict = field(default_factory=dict)


@dataclass
class ScanReport:
    dataset: str
    kind: str
    params: dict
    cells: list
    skipped: list = field(default_factory=list)


def ks_statistic(samples, cdf: Callable) -> float:
    """Two-sided KS distance between sorted samples and a model CDF."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    k = s.size
    if k < 5:
        raise InsufficientSamples(f"KS test needs >= 5 samples, got {k}")
    try:
        f = np.asarray(cdf(s), dtype=np.float64)
        if f.shape != s.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.asarray([float(cdf(v)) for v in s])
    steps = np.arange(1, k + 1, dtype=np.float64)
    d_plus = float((steps / k - f).max())
    d_minus = float((f - (steps - 1.0) / k).max())
    return max(d_plus, d_minus, 0.0)


def ks_pvalue(d_stat: float, k: int) -> float:
    """Kolmogorov series at the finite-sample argument d*.

    d* = D (sqrt(K) + 0.12 + 0.11/sqrt(K)), p = 2 sum_j (-1)^(j-1)
    exp(-2 j^2 d*^2), truncated once terms drop below 1e-12; the
    alternating partial sums make the truncation error one term wide.
    """
    if not (0.0 <= d_stat <= 1.0):
        raise InvalidParameter(f"D must lie in [0, 1], got {d_stat!r}")
    if k < 5:
        raise InsufficientSamples(f"KS p-value needs K >= 5, got {k}")
    if d_stat == 0.0:
        return 1.0
    root = math.sqrt(k)
    dstar = d_stat * (root + 0.12 + 0.11 / root)
    total = 0.0
    sign = 1.0
    for j in range(1, _MAX_SERIES_TERMS + 1):
        term = math.exp(-2.0 * j * j * dstar * dstar)
        total += sign * term
        if term < _SERIES_TOL:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _pair_rows(panel: ReturnPanel, pair):
    i, j = pair
    n = panel.n_series
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise InvalidParameter(f"pair {pair!r} invalid for N={n}")
    return panel.returns[i], panel.returns[j]


def global_test(panel: ReturnPanel, pair, window_len: int,
                alphas=DEFAULT_ALPHAS) -> GlobalTestResult:
    """KS test of the window estimates against the stationary law."""
    x, y = _pair_rows(panel, pair)
    plan = window_slices(panel.n_steps, window_len)
    if plan.n_windows < 5:
        raise InsufficientSamples(
            f"global test needs >= 5 windows, got {plan.n_windows}"
        )
    union = plan.n_windows * window_len
    samples = _window_estimates(x[:union], y[:union], plan.n_windows)
    rho_bar_hat = pearson(x[:union], y[:union])
    clamped = min(max(rho_bar_hat, -_PLUGIN_CLAMP), _PLUGIN_CLAMP)
    params = CorrParams(clamped, window_len)
    d_stat = ks_statistic(samples, lambda s: rho_cdf(s, params))
    p_value = ks_pvalue(d_stat, len(samples))
    return GlobalTestResult(
        pair=(int(pair[0]), int(pair[1])),
        window_len=window_len,
        samples=samples,
        rho_bar_hat=rho_bar_hat,
        d_stat=d_stat,
        p_value=p_value,
        reject_at=tuple((float(a), p_value < a) for a in alphas),
    )


def _window_estimates(x, y, n_windows):
    """pearson() on each of n_windows equal slices, standardized as blocks.

    Same numbers and the same ZeroVariance("x" / "y") as the per-window
    calls: row reductions and per-row dots match the 1-d ones bit for bit.
    """
    xs = x.reshape(n_windows, -1)
    ys = y.reshape(n_windows, -1)
    mx, sx, bad_x = _row_moments(xs)
    my, sy, bad_y = _row_moments(ys)
    bad = np.flatnonzero(bad_x | bad_y)
    if bad.size:
        raise ZeroVariance("x" if bad_x[bad[0]] else "y")
    zx = (xs - mx) / sx
    zy = (ys - my) / sy
    t = xs.shape[1]
    return tuple(min(1.0, max(-1.0, float(a @ b) / t)) for a, b in zip(zx, zy))


def _row_moments(block):
    mean = block.mean(axis=1, keepdims=True)
    sd = block.std(axis=1, keepdims=True)
    return mean, sd, (sd <= 1e-12 * np.maximum(1.0, np.abs(mean)))[:, 0]


def all_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _control_panels(panel, reshuffle_seed, mc_family, mc_nu, mc_seed):
    controls = {}
    if reshuffle_seed is not None:
        controls["reshuffle"] = synchronous_reshuffle(panel, reshuffle_seed)
    if mc_family is not None:
        truth = synthgen.sample_estimate_as_truth(panel)
        spec = synthgen.GeneratorSpec(
            family=mc_family,
            n_series=panel.n_series,
            n_steps=panel.n_steps,
            seed=mc_seed,
            correlation=truth,
            nu=mc_nu,
        )
        controls["mc"] = synthgen.sample_panel(spec)
    return controls


def _global_fractions(panel, pairs, window_lens, alphas, threads):
    """p-values per (window, pair); returns cell fractions and skip list."""
    fractions = {}
    skipped = []
    for window_len in window_lens:
        def one_pair(pair, _w=window_len):
            try:
                return global_test(panel, pair, _w, alphas)
            except CorrstatError as exc:
                return (pair, exc)

        results = parallel_map(one_pair, pairs, threads)
        good = [r for r in results if isinstance(r, GlobalTestResult)]
        for pair, exc in (r for r in results if not isinstance(r, GlobalTestResult)):
            skipped.append({
                "pair": list(pair),
                "window_len": window_len,
                "error": type(exc).__name__,
                "detail": str(exc),
            })
        for alpha in alphas:
            rejecting = sum(1 for r in good if r.rejects(alpha))
            fractions[(window_len, alpha)] = (
                rejecting / len(good) if good else math.nan,
                len(good),
            )
    return fractions, skipped


def global_scan(panel: ReturnPanel, window_lens, alphas=DEFAULT_ALPHAS,
                pairs=None, reshuffle_seed=None, mc_family=None, mc_nu=None,
                mc_seed=0, threads=1, dataset="panel") -> ScanReport:
    """Fraction of pairs rejecting stationarity per (window, alpha).

    Optional controls rerun the identical scan on a synchronously
    reshuffled copy and on a synthetic stationary panel whose truth is
    the full-sample correlation estimate.
    """
    if pairs is None:
        pairs = all_pairs(panel.n_series)
    pairs = sorted((min(p), max(p)) for p in pairs)
    base, skipped = _global_fractions(panel, pairs, window_lens, alphas, threads)
    control_fracs = {}
    for name, cpanel in _control_panels(
        panel, reshuffle_seed, mc_family, mc_nu, mc_seed
    ).items():
        control_fracs[name], control_skips = _global_fractions(
            cpanel, pairs, window_lens, alphas, threads
        )
        for entry in control_skips:
            skipped.append(dict(entry, control=name))
    cells = []
    for window_len in window_lens:
        for alpha in alphas:
            fraction, denom = base[(window_len, alpha)]
            controls = {
                name: fracs[(window_len, alpha)][0]
                for name, fracs in control_fracs.items()
            }
            cells.append(ScanCell(
                dim_name="T_w",
                dim_value=window_len,
                threshold_name="alpha",
                threshold_value=alpha,
                fraction=fraction,
                denominator=denom,
                controls=controls,
            ))
    params = {
        "window_lens": list(window_lens),
        "alphas": [float(a) for a in alphas],
        "n_pairs": len(pairs),
        "reshuffle_seed": reshuffle_seed,
        "mc_family": mc_family,
        "mc_nu": mc_nu,
        "mc_seed": mc_seed if mc_family is not None else None,
    }
    return ScanReport(dataset=dataset, kind="global", params=params,
                      cells=cells, skipped=skipped)


def cumulative_corr(panel: ReturnPanel, pair, t1: int, tau: int):
    """Expanding-prefix estimates [(length, rho), ...] on global rows.

    Rows are standardized over the full sample, so each estimate is
    (1/L) sum x_t y_t over its prefix; values can leave [-1, 1] slightly
    because the prefix is not re-standardized, by construction.
    """
    if t1 < 10:
        raise InvalidParameter(f"t1 must be >= 10, got {t1}")
    if tau < 1:
        raise InvalidParameter(f"tau must be >= 1, got {tau}")
    if panel.n_steps < t1 + tau:
        raise InsufficientData(
            f"need at least t1 + tau = {t1 + tau} steps, got {panel.n_steps}"
        )
    x, y = _pair_rows(panel, pair)
    i, j = pair
    x = _global_row(x, panel.tickers[i])
    y = _global_row(y, panel.tickers[j])
    products = np.cumsum(x * y)
    lengths = range(t1, panel.n_steps + 1, tau)
    return [(length, float(products[length - 1] / length)) for length in lengths]


def _global_row(row, ticker):
    mean = row.mean()
    sd = row.std()
    if sd <= 1e-12 * max(1.0, abs(mean)):
        raise ZeroVariance(ticker)
    return (row - mean) / sd


def local_test(estimates, n: int, sigma_convention: str = SIGMA_WINDOW,
               tau: int | None = None) -> LocalTestOutcome:
    """Flag steps where |rho_(k+1) - rho_k| exceeds n sigma_k.

    sigma_k belongs to the earlier estimate: 1/sqrt(L_k) under the
    "window" convention (L_k = actual window length), 1/sqrt(k tau)
    under the "paper" convention (k = 1-based estimate ordinal).
    """
    estimates = list(estimates)
    if len(estimates) < 2:
        raise InsufficientData("local test needs >= 2 estimates")
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    if sigma_convention not in (SIGMA_WINDOW, SIGMA_PAPER):
        raise InvalidParameter(f"unknown sigma convention {sigma_convention!r}")
    if sigma_convention == SIGMA_PAPER and tau is None:
        raise InvalidParameter("paper sigma convention needs tau")
    flags = []
    for k in range(len(estimates) - 1):
        length, rho = estimates[k]
        _, rho_next = estimates[k + 1]
        if sigma_convention == SIGMA_WINDOW:
            sigma = 1.0 / math.sqrt(length)
        else:
            sigma = 1.0 / math.sqrt((k + 1) * tau)
        flags.append(abs(rho_next - rho) > n * sigma)
    return LocalTestOutcome(int(sum(flags)), tuple(flags))


def local_scan(panel: ReturnPanel, configs, n_values=None, pairs=None,
               sigma_convention: str = SIGMA_WINDOW, mc_family=None,
               mc_nu=None, mc_seed=0, threads=1,
               dataset="panel") -> ScanReport:
    """Pooled violating fraction over all (pair, step), per (tau, n)."""
    if pairs is None:
        pairs = all_pairs(panel.n_series)
    pairs = sorted((min(p), max(p)) for p in pairs)
    panels = {"": panel}
    panels.update(_control_panels(panel, None, mc_family, mc_nu, mc_seed))
    counts = {}
    skipped = []
    for config in configs:
        ns = tuple(n_values) if n_values is not None else config.n_values
        for name, scan_panel in panels.items():
            def one_pair(pair, _c=config, _p=scan_panel):
                try:
                    return cumulative_corr(_p, pair, _c.t1, _c.tau)
                except CorrstatError as exc:
                    return (pair, exc)

            results = parallel_map(one_pair, pairs, threads)
            for pair, result in zip(pairs, results):
                if not isinstance(result, list):
                    skipped.append({
                        "pair": list(pair),
                        "tau": config.tau,
                        "control": name or None,
                        "error": type(result[1]).__name__,
                        "detail": str(result[1]),
                    })
                    continue
                for n in ns:
                    outcome = local_test(result, n, sigma_convention, config.tau)
                    hits, steps = counts.get((name, config, n), (0, 0))
                    counts[(name, config, n)] = (
                        hits + outcome.violations,
                        steps + len(outcome.flags),
                    )
    cells = []
    for config in configs:
        ns = tuple(n_values) if n_values is not None else config.n_values
        for n in ns:
            hits, steps = counts.get(("", config, n), (0, 0))
            controls = {}
            for name in panels:
                if not name:
                    continue
                chits, csteps = counts.get((name, config, n), (0, 0))
                controls[name] = chits / csteps if csteps else math.nan
            cells.append(ScanCell(
                dim_name="tau",
                dim_value=config.tau,
                threshold_name="n",
                threshold_value=n,
                fraction=hits / steps if steps else math.nan,
                denominator=steps,
                controls=controls,
            ))
    params = {
        "configs": [
            {"t1": c.t1, "tau": c.tau} for c in configs
        ],
        "n_values": sorted({
            int(n)
            for c in configs
            for n in (tuple(n_values) if n_values is not None else c.n_values)
        }),
        "sigma_convention": sigma_convention,
        "n_pairs": len(pairs),
        "mc_family": mc_family,
        "mc_nu": mc_nu,
        "mc_seed": mc_seed if mc_family is not None else None,
    }
    return ScanReport(dataset=dataset, kind="local", params=params,
                      cells=cells, skipped=skipped)
