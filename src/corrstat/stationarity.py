"""Two stationarity tests for pairwise correlation dynamics.

The global test splits the sample into disjoint windows, measures one
coefficient per window, and KS-compares the empirical sample against the
exact stationary law (corrdist) at a plug-in rho_bar: the same estimator
on one window spanning the union of the windows.  The p-value is
scipy.special's Kolmogorov tail at Stephens' finite-sample argument,
imported where it is evaluated.  The local test tracks expanding-window
estimates rho_1, rho_2, ... and flags consecutive steps whose change
exceeds n standard errors of the earlier estimate.

Both scans batch their pairs: the rows are standardized once, and
_pair_sums gives every pair's sums of z_i z_j over blocks of columns
(the global test's K windows and their union; the local test's first t1
steps and each later block of tau) from chunked Gram products.  A chunk's
Gram product, sums and flags each stay within a fixed budget
(_CHUNK_CELLS) unless one first-index row alone needs more, as at
tau = 1, so past the standardized rows a scan's working set does not
grow with the number of pairs.  A pair the batch cannot take is skipped
with the error its per-pair reference, global_test or cumulative_corr,
raises.
The plug-in makes the global test conservative (rejection
rates on stationary controls land well below nominal alpha), which the
scans quantify with reshuffle and Monte Carlo control columns instead
of correcting.  Each scan checks its own grid arguments, then hands one
driver, _scan, its counter of (hits, total) per (dimension, threshold)
cell; _scan runs it on the panel and on each control and builds the
report, whose skip entries read {pair, window_len | tau, control, error,
detail} (control None on the scanned panel), listed panel by panel.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import synthgen
from .corrdist import CorrParams, rho_cdf
from .dataio import (MIN_T, ReturnPanel, centered_rows, gated_rows, standardized_rows,
                     synchronous_reshuffle, window_slices)
from .errors import (
    CorrstatError,
    InsufficientData,
    InsufficientSamples,
    InvalidParameter,
    checked_array,
    checked_int,
    checked_items,
    checked_real,
    checked_type,
)
from .parallel import parallel_map, resolve_threads

# Plug-in estimates this close to +-1 are degenerate (identical rows up
# to noise); clamp inside the density domain and let KS reject them.
_PLUGIN_CLAMP = 1.0 - 1e-9

DEFAULT_ALPHAS = (0.01, 0.05, 0.10)
ALPHA_RULE = (lambda a: 0.0 < a < 1.0, "a number in (0, 1)")
DEFAULT_N_VALUES = (1, 2, 3, 4, 5)
MIN_WINDOWS = 5  # fewest window estimates a KS test takes

SIGMA_WINDOW = "window"
SIGMA_PAPER = "paper"


class GlobalTestResult(NamedTuple):
    samples: tuple[float, ...]
    rho_bar_hat: float
    d_stat: float
    p_value: float


@dataclass(frozen=True)
class LocalTestConfig:
    """Expanding-window geometry: first window t1, increments of tau."""

    t1: int
    tau: int
    n_values: tuple[int, ...] = DEFAULT_N_VALUES

    def __post_init__(self):
        checked_int("t1", self.t1, MIN_T)
        checked_int("tau", self.tau, 1)
        object.__setattr__(self, "n_values", checked_items("n_values", self.n_values))
        if not self.n_values:
            raise InvalidParameter("n_values must not be empty")
        for n in self.n_values:
            checked_int("n", n, 1)


class LocalTestOutcome(NamedTuple):
    violations: int
    flags: tuple[bool, ...]


class ScanCell(NamedTuple):
    dim_name: str
    dim_value: float
    threshold_name: str
    threshold_value: float
    fraction: float
    denominator: int
    controls: dict


class ScanReport(NamedTuple):
    dataset: str
    params: dict
    cells: list
    skipped: list


def ks_statistic(samples, cdf: Callable) -> float:
    """Two-sided KS distance between sorted samples and a model CDF."""
    s = np.sort(checked_array("samples", samples, 1))
    k = s.size
    if k < MIN_WINDOWS:
        raise InsufficientSamples(f"KS test needs >= {MIN_WINDOWS} samples, got {k}")
    f = checked_array("cdf values", checked_type("cdf", cdf, Callable)(s))
    if f.shape != s.shape:
        raise InvalidParameter(f"cdf returned shape {f.shape} for {k} samples")
    steps = np.arange(1.0, k + 1.0)
    d_plus = float((steps / k - f).max())
    d_minus = float((f - (steps - 1.0) / k).max())
    return max(d_plus, d_minus, 0.0)


def ks_pvalue(d_stat: float, k: int) -> float:
    """Kolmogorov tail probability at the finite-sample argument d*.

    d* = D (sqrt(K) + 0.12 + 0.11/sqrt(K)) (Stephens 1970), and
    p = scipy.special.kolmogorov(d*) = 2 sum_j (-1)^(j-1) exp(-2 j^2 d*^2).
    """
    from scipy.special import kolmogorov

    checked_real("D", d_stat, lambda d: 0.0 <= d <= 1.0, "a number in [0, 1]")
    if checked_int("K", k, 0) < MIN_WINDOWS:
        raise InsufficientSamples(f"KS p-value needs K >= {MIN_WINDOWS}, got {k}")
    root = math.sqrt(k)
    return float(kolmogorov(d_stat * (root + 0.12 + 0.11 / root)))


def _checked_pair(pair):
    """pair's two items when they are numbers; InvalidParameter otherwise."""
    items = checked_items("a pair", pair, 2, "two numbers")
    if not all(isinstance(i, Real) for i in items):
        raise InvalidParameter(f"a pair must be two numbers, got {pair!r}")
    return items


def _pair_rows(panel: ReturnPanel, pair):
    """The pair's two row indices: distinct integers in [0, N), else InvalidParameter."""
    i, j = _checked_pair(pair)
    n = panel.n_series
    if not (isinstance(i, Integral) and isinstance(j, Integral)
            and 0 <= i < n and 0 <= j < n and i != j):
        raise InvalidParameter(f"pair {pair!r} invalid for N={n}")
    return int(i), int(j)


def global_test(panel: ReturnPanel, pair, window_len: int) -> GlobalTestResult:
    """KS test of the window estimates against the stationary law."""
    i, j = _pair_rows(checked_type("panel", panel, ReturnPanel), pair)
    n_windows = len(window_slices(panel.n_steps, window_len))
    if n_windows < MIN_WINDOWS:
        raise InsufficientSamples(f"global test needs >= {MIN_WINDOWS} windows, got {n_windows}")
    x, y = panel.returns[i, :n_windows * window_len], panel.returns[j, :n_windows * window_len]
    names = (panel.tickers[i], panel.tickers[j])
    samples = _window_estimates(x, y, n_windows, names)
    (rho_bar_hat,) = _window_estimates(x, y, 1, names)
    return GlobalTestResult(samples, rho_bar_hat, *_ks_test(samples, rho_bar_hat, window_len))


def _ks_test(samples, rho_bar_hat, window_len):
    """(D, p) of the window estimates against the law at the clamped plug-in."""
    clamped = min(max(rho_bar_hat, -_PLUGIN_CLAMP), _PLUGIN_CLAMP)
    params = CorrParams(clamped, window_len)
    d_stat = ks_statistic(samples, lambda s: rho_cdf(s, params))
    return d_stat, ks_pvalue(d_stat, len(samples))


def _window_estimates(x, y, n_windows, names):
    """Pearson coefficient, clamped into [-1, 1], on each of n_windows equal slices.

    Each slice is standardized on its own, as one row of a block.  The
    first zero-variance window goes to gated_rows, which raises with its
    ticker (x's name before y's) and column range.
    """
    zx, bad_x = standardized_rows(x.reshape(n_windows, -1))
    zy, bad_y = standardized_rows(y.reshape(n_windows, -1))
    t = zx.shape[1]
    if (bad_x | bad_y).any():
        k = int(np.argmax(bad_x | bad_y))
        gated_rows(np.stack([x, y]), names, (k * t, (k + 1) * t))
    return tuple(min(1.0, max(-1.0, float(a @ b) / t)) for a, b in zip(zx, zy))


def all_pairs(n: int) -> np.ndarray:
    checked_int("n", n, 0)
    return np.stack(np.triu_indices(n, 1), axis=1)


def _sorted_pairs(pairs, n_series):
    """pairs (default: all) as sorted (P, 2) rows (low, high): an integer array's as
    integers, any other's as objects; InvalidParameter if a pair is not two numbers."""
    pairs = all_pairs(n_series) if pairs is None else pairs
    if not (isinstance(pairs, np.ndarray) and pairs.dtype.kind == "i" and pairs.shape[1:] == (2,)):
        pairs = [_checked_pair(pair) for pair in checked_items("pairs", pairs)]
        pairs = np.array([(min(p), max(p)) for p in pairs], dtype=object).reshape(-1, 2)
    ij = np.sort(pairs, axis=1)
    return ij[np.lexsort((ij[:, 1], ij[:, 0]))]  # stable: the order of sorted((min, max))


def _control_panels(panel, reshuffle_seed=None, mc_family=None, mc_nu=None, mc_seed=0):
    """The scanned panel under "", then the control panels by name.

    The MC copy carries zero-variance rows over unchanged, so its scan
    skips the same pairs as the panel's.
    """
    controls = {"": panel}
    if reshuffle_seed is not None:
        controls["reshuffle"] = synchronous_reshuffle(panel, reshuffle_seed)
    if mc_family is not None:
        keep = np.flatnonzero(~centered_rows(panel.returns)[2])
        returns = panel.returns.copy()
        if keep.size:
            truth = synthgen.sample_estimate_as_truth(panel.select(keep))
            returns[keep] = synthgen.sample_panel(truth, panel.n_steps, mc_seed,
                                                  mc_family, mc_nu).returns
        controls["mc"] = ReturnPanel(panel.tickers, panel.times, returns)
    return controls


def _global_counts(panel, pairs, window_lens, alphas):
    """(rejections, tested pairs) per (window, alpha), and the skip list.

    Per window length, the pairs' rows are standardized as K windows and their
    union, and each _pair_sums chunk is KS-tested before the next is formed.
    """
    n = panel.n_series
    rows = np.unique(_split_pairs(pairs, n, np.zeros(n, dtype=bool))[0])  # the pairs' rows
    counts, skipped = {}, []
    for window_len in window_lens:
        k, blocks = panel.n_steps // window_len, None  # frees the last window's blocks
        bad = np.ones(n, dtype=bool)  # too few windows: global_test refuses every pair
        if k >= MIN_WINDOWS:
            x = panel.returns[rows, :k * window_len]
            windows, flat = standardized_rows(x.reshape(-1, window_len))
            union, flat_union = standardized_rows(x)
            bad[rows] = flat.reshape(-1, k).any(axis=1) | flat_union
            blocks = (windows.reshape(rows.size, k, window_len), union[:, None])
            del x, windows, union  # the row copy goes before any KS test
        good, others = _split_pairs(pairs, n, bad)
        skipped += _skips(global_test, panel, others, window_len, window_len=window_len)
        if not good.size:
            continue
        hits = [0] * len(alphas)
        for sums in _pair_sums(np.searchsorted(rows, good), *blocks):
            sums /= [window_len] * k + [k * window_len]
            np.clip(sums, -1.0, 1.0, out=sums)
            p_values = parallel_map(lambda e: _ks_test(e[:-1], float(e[-1]), window_len)[1], sums)
            hits = [h + sum(p < alpha for p in p_values) for h, alpha in zip(hits, alphas)]
        for alpha, n_hits in zip(alphas, hits):
            counts[(window_len, alpha)] = (n_hits, len(good))
    return counts, skipped


def _cells(dim_name, threshold_name, grid, counts):
    """One ScanCell per (key, dim_value, threshold) of grid.

    counts[panel][(key, threshold)] is (hits, total) on that panel, absent
    when nothing was counted; panel "" is the scanned one and every other
    panel is a control column.
    """
    cells = []
    for key, dim_value, threshold in grid:
        fractions = {}
        for name, panel_counts in counts.items():
            hits, total = panel_counts.get((key, threshold), (0, 0))
            fractions[name] = (hits / total if total else math.nan, total)
        fraction, denominator = fractions.pop("")
        cells.append(ScanCell(dim_name, dim_value, threshold_name, threshold, fraction,
                              denominator, {name: f for name, (f, _) in fractions.items()}))
    return cells


def _scan(names, panel, pairs, counter, grid, params, controls, dataset) -> ScanReport:
    """One scan's report: counter(p, pairs) gives panel p's counts and skips, on panel
    and then on each control that _control_panels(panel, **controls) builds.
    names are the cells' dimension and threshold names.

    Each skip entry is tagged with its control, None on the scanned panel.
    The params are params, n_pairs and controls, mc_seed None without MC.
    """
    if controls["mc_family"] is not None or controls["mc_nu"] is not None:
        synthgen.checked_family(controls["mc_family"], controls["mc_nu"], prefix="mc_")
    pairs = _sorted_pairs(pairs, checked_type("panel", panel, ReturnPanel).n_series)
    counts, skipped = {}, []
    for name, scanned in _control_panels(panel, **controls).items():
        counts[name], skips = counter(scanned, pairs)
        skipped += [dict(entry, control=name or None) for entry in skips]
    if controls["mc_family"] is None:
        controls = dict(controls, mc_seed=None)
    return ScanReport(dataset=dataset, params={**params, "n_pairs": len(pairs), **controls},
                      cells=_cells(*names, grid, counts), skipped=skipped)


def global_scan(panel: ReturnPanel, window_lens, alphas=DEFAULT_ALPHAS,
                pairs=None, reshuffle_seed=None, mc_family=None, mc_nu=None,
                mc_seed=0, threads=1, dataset="panel") -> ScanReport:
    """Fraction of pairs rejecting stationarity per (window, alpha).

    Optional controls rerun the identical scan on a synchronously
    reshuffled copy and on a synthetic stationary panel whose truth is
    the full-sample correlation estimate.  threads is validated and
    changes nothing: the pairs run in order on the calling thread.  A
    window length below MIN_T or an alpha that is not a number in (0, 1)
    raises InvalidParameter before any pair is tested, as do a window length
    that is not an integer, a bad threads, mc keywords that
    synthgen.checked_family refuses, a pair that is not two numbers and a
    container argument that is not iterable; a window longer than the panel
    skips every pair, and a pair of non-integer or out-of-range indices is
    skipped.  pairs is taken as local_scan takes it.
    """
    window_lens = checked_items("window_lens", window_lens)
    alphas = checked_items("alphas", alphas)
    for window_len in window_lens:
        checked_int("window_len", window_len, MIN_T)
    for alpha in alphas:
        checked_real("alpha", alpha, *ALPHA_RULE)
    resolve_threads(threads)
    return _scan(("T_w", "alpha"), panel, pairs,
                 lambda p, ps: _global_counts(p, ps, window_lens, alphas),
                 [(w, w, alpha) for w in window_lens for alpha in alphas],
                 {"window_lens": list(window_lens), "alphas": [float(a) for a in alphas]},
                 dict(reshuffle_seed=reshuffle_seed, mc_family=mc_family, mc_nu=mc_nu,
                      mc_seed=mc_seed), dataset)


def cumulative_corr(panel: ReturnPanel, pair, t1: int, tau: int):
    """Expanding-prefix estimates [(length, rho), ...] on global rows.

    Rows are standardized over the full sample, so each estimate is
    (1/L) sum x_t y_t over its prefix; values can leave [-1, 1] slightly
    because the prefix is not re-standardized, by construction.
    """
    LocalTestConfig(t1, tau)  # the scans' checks of t1 and tau
    if checked_type("panel", panel, ReturnPanel).n_steps < t1 + tau:
        raise InsufficientData(f"need at least t1 + tau = {t1 + tau} steps, got {panel.n_steps}")
    i, j = _pair_rows(panel, pair)
    centered, sd = gated_rows(panel.returns[[i, j]], [panel.tickers[i], panel.tickers[j]])
    z = centered / sd
    lengths = np.arange(t1, panel.n_steps + 1, tau)
    estimates = np.cumsum(z[0] * z[1])[lengths - 1] / lengths
    return list(zip(lengths.tolist(), estimates.tolist()))


def _step_flags(estimates, lengths, ns, sigma_convention, tau):
    """local_test's flags for every n in ns: shape (len(ns), *jumps.shape).

    estimates[..., k] is the estimate on the first lengths[k] steps, and
    jumps are the differences along that last axis.
    """
    ns = np.asarray(ns)
    if sigma_convention == SIGMA_WINDOW:
        sigma = 1.0 / np.sqrt(lengths[:-1])
    elif sigma_convention == SIGMA_PAPER:
        sigma = 1.0 / np.sqrt(np.arange(1, len(lengths)) * tau)
    else:
        raise InvalidParameter(f"unknown sigma convention {sigma_convention!r}")
    jumps = np.diff(estimates, axis=-1)
    np.abs(jumps, out=jumps)
    bounds = ns.reshape(ns.shape + (1,) * jumps.ndim) * sigma
    return jumps > bounds


def local_test(estimates, n: int, sigma_convention: str = SIGMA_WINDOW,
               tau: int | None = None) -> LocalTestOutcome:
    """Flag steps where |rho_(k+1) - rho_k| exceeds n sigma_k; estimates are (K, 2) (L_k, rho_k).

    sigma_k belongs to the earlier estimate: 1/sqrt(L_k) under the
    "window" convention (L_k = actual window length), 1/sqrt(k tau)
    under the "paper" convention (k = 1-based estimate ordinal).  A length
    below 1 raises InvalidParameter; a rho outside [-1, 1] is taken, as
    cumulative_corr's prefix estimates may leave it.
    """
    checked_int("n", n, 1)
    if sigma_convention == SIGMA_PAPER:
        checked_int("tau", tau, 1)
    est = checked_array("estimates", estimates, 2)
    if est.shape[1] != 2:
        raise InvalidParameter(f"estimates must be (length, rho) pairs, got shape {est.shape}")
    if (est[:, 0] < 1.0).any():
        k = int(np.argmax(est[:, 0] < 1.0))
        raise InvalidParameter(f"estimates row {k} has length {float(est[k, 0])!r}, below 1")
    if len(est) < 2:
        raise InsufficientData("local test needs >= 2 estimates")
    (flags,) = _step_flags(est[:, 1], est[:, 0], [n], sigma_convention, tau)
    return LocalTestOutcome(int(flags.sum()), tuple(flags.tolist()))


def _split_pairs(pairs, n_series, bad):
    """The pairs the batch takes, as an int64 (P, 2) array, and the others as tuples in order.

    A pair is left out when an index is not an integer, is out of range or
    repeats, or when bad flags one of its rows.
    """
    failed = ((pairs < 0) | (pairs >= n_series)).any(axis=1) | (pairs[:, 0] == pairs[:, 1])
    if pairs.dtype == object:  # _pair_rows refuses non-integers
        failed |= np.array([not (isinstance(i, Integral) and isinstance(j, Integral))
                            for i, j in pairs], dtype=bool)
    ij = np.where(failed[:, None], 0, pairs).astype(np.int64)
    failed |= bad[ij].any(axis=1)
    return ij[~failed], [tuple(pair) for pair in pairs[failed].tolist()]


def _skips(reference, panel, pairs, *args, **where):
    """Skip entries, in pairs' order, of the errors reference(panel, pair, *args) raises."""
    skips = []
    for pair in pairs:
        try:
            reference(panel, pair, *args)
        except CorrstatError as exc:
            skips.append({"pair": list(pair), **where, "control": None,
                          "error": type(exc).__name__, "detail": str(exc)})
    return skips


# Gram cells (blocks x first-index rows x N) per chunk: keeps a chunk's
# Gram product, its pairs' sums and their flags about 0.5 MB (64 Ki
# float64 cells each) unless a single first-index row needs more.
_CHUNK_CELLS = 1 << 16


def _pair_sums(pairs, *blocks):
    """Per chunk of pairs, in order, its pairs' sums z_i . z_j over every block, as the
    rows of one (pairs, blocks) array that every chunk reuses, so each chunk's rows
    must be used up before the next is asked for.

    pairs indexes the rows of blocks, sorted by first index; each block
    array is (N, B, W), B blocks of W columns.  Chunks of the distinct
    first-index rows take one batched product with a strided view of all
    N rows, and each pair's cell of every block is written into the array.
    """
    firsts, at_i = np.unique(pairs[:, 0], return_inverse=True)  # at_i sorted, as pairs are
    width = sum(b.shape[1] for b in blocks)
    rows = max(1, _CHUNK_CELLS // (blocks[0].shape[0] * width))
    starts = np.arange(0, firsts.size + rows, rows)  # each chunk's first row, then the end
    bounds = np.searchsorted(at_i, starts)
    sums = np.empty((np.diff(bounds).max(initial=0), width))
    for r0, lo, hi in zip(starts.tolist(), bounds.tolist(), bounds[1:].tolist()):
        ai, aj, col = at_i[lo:hi] - r0, pairs[lo:hi, 1], 0
        for b in blocks:
            left = b[firsts[r0:r0 + rows]].transpose(1, 0, 2)  # (B, rows, W)
            right = b.transpose(1, 2, 0)  # (B, W, N), a view
            # one-column blocks: the products are plain products; skip a BLAS call per block
            gram = left * right if b.shape[2] == 1 else np.matmul(left, right)
            sums[:hi - lo, col:col + b.shape[1]] = gram.transpose(1, 2, 0)[ai, aj]
            col += b.shape[1]
        yield sums[:hi - lo]


def _local_counts(panel, pairs, configs, sigma_convention):
    """(violations, steps) per (config, n) over pairs, and the skip list.

    The rows are standardized once.  Per config, _pair_sums gives each
    pair's sum over the first t1 columns and over each later block of tau
    columns, and a cumulative sum over the blocks gives its prefix sums at
    the lengths.  On a panel too short for a config, every pair is skipped.
    """
    z, bad = standardized_rows(panel.returns)
    counts, skipped = {}, []
    for config in configs:
        t1, tau = config.t1, config.tau
        lengths = np.arange(t1, panel.n_steps + 1, tau)
        good, others = _split_pairs(pairs, panel.n_series, bad | (lengths.size < 2))
        skipped += _skips(cumulative_corr, panel, others, t1, tau, tau=tau)
        if not good.size:
            continue
        # (N, blocks, tau): the columns each step after t1 adds
        tail = z[:, t1:lengths[-1]].reshape(panel.n_series, -1, tau)
        hits = np.zeros(len(config.n_values), dtype=np.int64)
        steps = 0
        for sums in _pair_sums(good, z[:, None, :t1], tail):
            estimates = np.cumsum(sums, axis=1, out=sums)
            estimates /= lengths
            flags = _step_flags(estimates, lengths, config.n_values,
                                sigma_convention, tau)
            hits += flags.sum(axis=(1, 2))
            steps += flags[0].size
        for n, n_hits in zip(config.n_values, hits.tolist()):
            counts[(config, n)] = (n_hits, steps)
    return counts, skipped


def local_scan(panel: ReturnPanel, configs, pairs=None,
               sigma_convention: str = SIGMA_WINDOW, mc_family=None,
               mc_nu=None, mc_seed=0, dataset="panel") -> ScanReport:
    """Pooled violating fraction over all (pair, step), per (tau, n).

    Each config carries its own n values.  Each panel (and its optional
    MC control) is scanned as one array computation.  pairs (default:
    all) is an integer (P, 2) array or any collection of pairs; a config
    that is not a LocalTestConfig, mc keywords that synthgen.checked_family
    refuses or a pair that is not two numbers raises InvalidParameter
    before any pair is tested, and a pair of non-integer or out-of-range
    indices is skipped.
    """
    if sigma_convention not in (SIGMA_WINDOW, SIGMA_PAPER):
        raise InvalidParameter(f"unknown sigma convention {sigma_convention!r}")
    configs = checked_items("configs", configs)
    for config in configs:
        if not isinstance(config, LocalTestConfig):
            raise InvalidParameter(f"configs must hold LocalTestConfigs, got {config!r}")
    return _scan(("tau", "n"), panel, pairs,
                 lambda p, ps: _local_counts(p, ps, configs, sigma_convention),
                 [(c, c.tau, n) for c in configs for n in c.n_values],
                 {"configs": [{"t1": c.t1, "tau": c.tau} for c in configs],
                  "n_values": sorted({int(n) for c in configs for n in c.n_values}),
                  "sigma_convention": sigma_convention},
                 dict(mc_family=mc_family, mc_nu=mc_nu, mc_seed=mc_seed), dataset)
