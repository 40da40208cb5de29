"""Two stationarity tests for pairwise correlation dynamics.

The global test splits the sample into disjoint windows, measures one
coefficient per window, and KS-compares the empirical sample against the
exact stationary law (corrdist) at a plug-in rho_bar taken from the
union of the windows.  The local test tracks expanding-window estimates
rho_1, rho_2, ... and flags consecutive steps whose change exceeds n
standard errors of the earlier estimate.

The global scan is a parallel map over pairs.  The local scan is one
array computation per panel: the rows are standardized once, and the
pairs that share a first index share one cumulative sum.  The plug-in
makes the global test conservative (rejection rates on stationary
controls land well below nominal alpha), which the scans quantify with
reshuffle and Monte Carlo control columns instead of correcting.
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
from .parallel import parallel_map, resolve_threads

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
    zx, bad_x = _standardized_rows(x.reshape(n_windows, -1))
    zy, bad_y = _standardized_rows(y.reshape(n_windows, -1))
    bad = np.flatnonzero(bad_x | bad_y)
    if bad.size:
        raise ZeroVariance("x" if bad_x[bad[0]] else "y")
    t = zx.shape[1]
    return tuple(min(1.0, max(-1.0, float(a @ b) / t)) for a, b in zip(zx, zy))


def _standardized_rows(block):
    """Rows at zero mean and unit population sd, and the zero-variance mask.

    A row whose sd is at most 1e-12 max(1, |mean|) is flagged in the mask
    and only centred.  Each row's numbers are bit-identical to the same
    reductions on that row alone.
    """
    mean = block.mean(axis=1, keepdims=True)
    sd = block.std(axis=1, keepdims=True)
    bad = (sd <= 1e-12 * np.maximum(1.0, np.abs(mean)))[:, 0]
    return (block - mean) / np.where(bad[:, None], 1.0, sd), bad


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
    short = _short_panel(panel, t1, tau)
    if short is not None:
        raise short
    z, bad = _standardized_rows(np.stack(_pair_rows(panel, pair)))
    if bad.any():
        raise ZeroVariance(panel.tickers[pair[0] if bad[0] else pair[1]])
    lengths = np.arange(t1, panel.n_steps + 1, tau)
    (estimates,) = _expanding_estimates(z[0], z[1:], [lengths])
    return list(zip(lengths.tolist(), estimates[0].tolist()))


def _short_panel(panel, t1, tau):
    """The InsufficientData a panel too short for two estimates raises, else None."""
    if panel.n_steps < t1 + tau:
        return InsufficientData(
            f"need at least t1 + tau = {t1 + tau} steps, got {panel.n_steps}"
        )
    return None


def _expanding_estimates(zx, zys, lengths_list):
    """Estimates of row zx against each row of zys, one block per lengths.

    Block k is (len(zys), len(lengths_list[k])): the prefix means of
    zx * zy at those lengths, all read from one cumulative sum.
    """
    products = np.cumsum(zx * zys, axis=1)
    return [products[:, lengths - 1] / lengths for lengths in lengths_list]


def _step_flags(estimates, lengths, ns, sigma_convention, tau):
    """local_test's flags for every n in ns: shape (len(ns), *jumps.shape).

    estimates[..., k] is the estimate on the first lengths[k] steps, and
    jumps are the differences along that last axis.
    """
    ns = np.asarray(ns)
    if (ns < 1).any():
        raise InvalidParameter(f"n must be >= 1, got {ns[ns < 1][0]}")
    if sigma_convention == SIGMA_WINDOW:
        sigma = 1.0 / np.sqrt(np.asarray(lengths[:-1], dtype=np.float64))
    elif sigma_convention == SIGMA_PAPER:
        if tau is None:
            raise InvalidParameter("paper sigma convention needs tau")
        sigma = 1.0 / np.sqrt(np.arange(1, len(lengths)) * tau)
    else:
        raise InvalidParameter(f"unknown sigma convention {sigma_convention!r}")
    jumps = np.abs(np.diff(estimates, axis=-1))
    bounds = ns.reshape(ns.shape + (1,) * jumps.ndim) * sigma
    return jumps > bounds


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
    lengths, rhos = zip(*estimates)
    (flags,) = _step_flags(np.asarray(rhos, dtype=np.float64), lengths, [n],
                           sigma_convention, tau)
    return LocalTestOutcome(int(flags.sum()), tuple(flags.tolist()))


def _pair_error(panel, pair, bad):
    """The error cumulative_corr raises for pair when the panel is long enough."""
    try:
        _pair_rows(panel, pair)
    except InvalidParameter as exc:
        return exc
    for k in pair:
        if bad[k]:
            return ZeroVariance(panel.tickers[k])
    return None


def _local_counts(panel, pairs, plans, sigma_convention):
    """(violations, steps) per (config, n) over pairs, and each pair's error.

    plans holds (config, n values) tuples.  The rows are standardized
    once, and the pairs sharing a first index take one cumulative sum
    that every config reads.
    """
    z, bad = _standardized_rows(panel.returns)
    errors = {pair: _pair_error(panel, pair, bad) for pair in pairs}
    plans = [(c, ns) for c, ns in plans if _short_panel(panel, c.t1, c.tau) is None]
    lengths_list = [np.arange(c.t1, panel.n_steps + 1, c.tau) for c, _ in plans]
    groups = {}
    for i, j in pairs:
        if errors[(i, j)] is None:
            groups.setdefault(i, []).append(j)
    counts = {}
    for i, js in groups.items():
        blocks = _expanding_estimates(z[i], z[js], lengths_list)
        for (config, ns), lengths, block in zip(plans, lengths_list, blocks):
            flags = _step_flags(block, lengths, ns, sigma_convention, config.tau)
            for n, hits in zip(ns, flags.sum(axis=(1, 2)).tolist()):
                old_hits, old_steps = counts.get((config, n), (0, 0))
                counts[(config, n)] = (old_hits + hits, old_steps + flags[0].size)
    return counts, errors


def local_scan(panel: ReturnPanel, configs, n_values=None, pairs=None,
               sigma_convention: str = SIGMA_WINDOW, mc_family=None,
               mc_nu=None, mc_seed=0, threads=1,
               dataset="panel") -> ScanReport:
    """Pooled violating fraction over all (pair, step), per (tau, n).

    Each panel is scanned as one array computation, so ``threads`` is
    only validated: the work and the report are the same at any count.
    """
    resolve_threads(threads)
    if pairs is None:
        pairs = all_pairs(panel.n_series)
    pairs = sorted((min(p), max(p)) for p in pairs)
    plans = [(c, tuple(n_values) if n_values is not None else c.n_values)
             for c in configs]
    panels = {"": panel}
    panels.update(_control_panels(panel, None, mc_family, mc_nu, mc_seed))
    counts = {}
    errors = {}
    for name, scan_panel in panels.items():
        counts[name], errors[name] = _local_counts(
            scan_panel, pairs, plans, sigma_convention
        )
    skipped = []
    for config in configs:
        for name, scan_panel in panels.items():
            short = _short_panel(scan_panel, config.t1, config.tau)
            for pair in pairs:
                exc = short if short is not None else errors[name][pair]
                if exc is not None:
                    skipped.append({
                        "pair": list(pair),
                        "tau": config.tau,
                        "control": name or None,
                        "error": type(exc).__name__,
                        "detail": str(exc),
                    })
    cells = []
    for config, ns in plans:
        for n in ns:
            hits, steps = counts[""].get((config, n), (0, 0))
            controls = {}
            for name in panels:
                if not name:
                    continue
                chits, csteps = counts[name].get((config, n), (0, 0))
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
        "n_values": sorted({int(n) for _, ns in plans for n in ns}),
        "sigma_convention": sigma_convention,
        "n_pairs": len(pairs),
        "mc_family": mc_family,
        "mc_nu": mc_nu,
        "mc_seed": mc_seed if mc_family is not None else None,
    }
    return ScanReport(dataset=dataset, kind="local", params=params,
                      cells=cells, skipped=skipped)
