"""Two stationarity tests for pairwise correlation dynamics.

The global test splits the sample into disjoint windows, measures one
coefficient per window, and KS-compares the empirical sample against the
exact stationary law (corrdist) at a plug-in rho_bar: the same estimator
on one window spanning the union of the windows.  The p-value is
scipy.special's Kolmogorov tail at Stephens' finite-sample argument,
imported where it is evaluated.  The local test tracks expanding-window
estimates rho_1, rho_2, ... and flags consecutive steps whose change
exceeds n standard errors of the earlier estimate.

The global scan runs the test pair by pair.  The local scan is one
array computation per panel: the rows are standardized once, one
batched Gram product of the first-index rows with the second-index rows
gives every pair's sum of z_i z_j over each block of tau steps, and a
cumulative sum over the blocks gives the prefix sums at the expanding
lengths.  The plug-in makes the global test conservative (rejection
rates on stationary controls land well below nominal alpha), which the
scans quantify with reshuffle and Monte Carlo control columns instead
of correcting.  Both scans count (hits, total) per (dimension,
threshold) cell on the panel and on each control, and build their report
cells from those counts the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from . import synthgen
from .corrdist import CorrParams, rho_cdf
from .dataio import (MIN_T, ReturnPanel, gated_rows, standardized_rows,
                     synchronous_reshuffle, window_slices)
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

DEFAULT_ALPHAS = (0.01, 0.05, 0.10)
DEFAULT_N_VALUES = (1, 2, 3, 4, 5)

SIGMA_WINDOW = "window"
SIGMA_PAPER = "paper"


@dataclass(frozen=True)
class GlobalTestResult:
    samples: tuple[float, ...]
    rho_bar_hat: float
    d_stat: float
    p_value: float

    @property
    def n_windows(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class LocalTestConfig:
    """Expanding-window geometry: first window t1, increments of tau."""

    t1: int
    tau: int
    n_values: tuple[int, ...] = DEFAULT_N_VALUES

    def __post_init__(self):
        if not (isinstance(self.t1, Integral) and self.t1 >= MIN_T):
            raise InvalidParameter(f"t1 must be an integer >= {MIN_T}, got {self.t1!r}")
        if not (isinstance(self.tau, Integral) and self.tau >= 1):
            raise InvalidParameter(f"tau must be an integer >= 1, got {self.tau!r}")
        if not self.n_values or not all(isinstance(n, Integral) and n >= 1
                                        for n in self.n_values):
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
    f = np.asarray(cdf(s), dtype=np.float64)
    if f.shape != s.shape:
        raise InvalidParameter(f"cdf returned shape {f.shape} for {k} samples")
    steps = np.arange(1, k + 1, dtype=np.float64)
    d_plus = float((steps / k - f).max())
    d_minus = float((f - (steps - 1.0) / k).max())
    return max(d_plus, d_minus, 0.0)


def ks_pvalue(d_stat: float, k: int) -> float:
    """Kolmogorov tail probability at the finite-sample argument d*.

    d* = D (sqrt(K) + 0.12 + 0.11/sqrt(K)) (Stephens 1970), and
    p = scipy.special.kolmogorov(d*) = 2 sum_j (-1)^(j-1) exp(-2 j^2 d*^2).
    """
    from scipy.special import kolmogorov

    if not (0.0 <= d_stat <= 1.0):
        raise InvalidParameter(f"D must lie in [0, 1], got {d_stat!r}")
    if k < 5:
        raise InsufficientSamples(f"KS p-value needs K >= 5, got {k}")
    root = math.sqrt(k)
    return float(kolmogorov(d_stat * (root + 0.12 + 0.11 / root)))


def _pair_rows(panel: ReturnPanel, pair):
    i, j = pair
    n = panel.n_series
    if not (isinstance(i, Integral) and isinstance(j, Integral)
            and 0 <= i < n and 0 <= j < n and i != j):
        raise InvalidParameter(f"pair {pair!r} invalid for N={n}")
    return panel.returns[i], panel.returns[j]


def global_test(panel: ReturnPanel, pair, window_len: int) -> GlobalTestResult:
    """KS test of the window estimates against the stationary law."""
    x, y = _pair_rows(panel, pair)
    n_windows = len(window_slices(panel.n_steps, window_len))
    if n_windows < 5:
        raise InsufficientSamples(f"global test needs >= 5 windows, got {n_windows}")
    x, y = x[:n_windows * window_len], y[:n_windows * window_len]
    names = (panel.tickers[pair[0]], panel.tickers[pair[1]])
    samples = _window_estimates(x, y, n_windows, names)
    (rho_bar_hat,) = _window_estimates(x, y, 1, names)
    clamped = min(max(rho_bar_hat, -_PLUGIN_CLAMP), _PLUGIN_CLAMP)
    params = CorrParams(clamped, window_len)
    d_stat = ks_statistic(samples, lambda s: rho_cdf(s, params))
    p_value = ks_pvalue(d_stat, len(samples))
    return GlobalTestResult(
        samples=samples,
        rho_bar_hat=rho_bar_hat,
        d_stat=d_stat,
        p_value=p_value,
    )


def _window_estimates(x, y, n_windows, names):
    """Pearson coefficient, clamped into [-1, 1], on each of n_windows equal slices.

    Each slice is standardized on its own, as one row of a block.  The
    first zero-variance window raises ZeroVariance with its ticker (x's
    name before y's) and column range.
    """
    zx, bad_x = standardized_rows(x.reshape(n_windows, -1))
    zy, bad_y = standardized_rows(y.reshape(n_windows, -1))
    t = zx.shape[1]
    bad = np.flatnonzero(bad_x | bad_y)
    if bad.size:
        k = int(bad[0])
        raise ZeroVariance(names[0] if bad_x[k] else names[1], window=(k * t, (k + 1) * t))
    return tuple(min(1.0, max(-1.0, float(a @ b) / t)) for a, b in zip(zx, zy))


def all_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _control_panels(panel, reshuffle_seed, mc_family, mc_nu, mc_seed):
    """Control panels by name.

    The MC copy carries zero-variance rows over unchanged, so its scan
    skips the same pairs as the panel's.
    """
    controls = {}
    if reshuffle_seed is not None:
        controls["reshuffle"] = synchronous_reshuffle(panel, reshuffle_seed)
    if mc_family is not None:
        _, bad = standardized_rows(panel.returns)
        keep = np.flatnonzero(~bad)
        returns = panel.returns.copy()
        if keep.size:
            spec = synthgen.GeneratorSpec(
                family=mc_family,
                n_series=keep.size,
                n_steps=panel.n_steps,
                seed=mc_seed,
                correlation=synthgen.sample_estimate_as_truth(panel.select(keep)),
                nu=mc_nu,
            )
            returns[keep] = synthgen.sample_panel(spec).returns
        controls["mc"] = ReturnPanel(panel.tickers, panel.times, returns)
    return controls


def _global_counts(panel, pairs, window_lens, alphas, threads):
    """(rejections, tested pairs) per (window, alpha), and the skip list."""
    counts = {}
    skipped = []
    for window_len in window_lens:
        def one_pair(pair, _w=window_len):
            try:
                return global_test(panel, pair, _w)
            except CorrstatError as exc:
                return exc

        p_values = []
        for pair, result in zip(pairs, parallel_map(one_pair, pairs, threads)):
            if isinstance(result, CorrstatError):
                skipped.append({
                    "pair": list(pair),
                    "window_len": window_len,
                    "error": type(result).__name__,
                    "detail": str(result),
                })
            else:
                p_values.append(result.p_value)
        for alpha in alphas:
            counts[(window_len, alpha)] = (sum(p < alpha for p in p_values), len(p_values))
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
        cells.append(ScanCell(
            dim_name=dim_name,
            dim_value=dim_value,
            threshold_name=threshold_name,
            threshold_value=threshold,
            fraction=fraction,
            denominator=denominator,
            controls={name: f for name, (f, _) in fractions.items()},
        ))
    return cells


def global_scan(panel: ReturnPanel, window_lens, alphas=DEFAULT_ALPHAS,
                pairs=None, reshuffle_seed=None, mc_family=None, mc_nu=None,
                mc_seed=0, threads=1, dataset="panel") -> ScanReport:
    """Fraction of pairs rejecting stationarity per (window, alpha).

    Optional controls rerun the identical scan on a synchronously
    reshuffled copy and on a synthetic stationary panel whose truth is
    the full-sample correlation estimate.  threads is validated and
    changes nothing: the pairs run in order on the calling thread.  A
    window length below MIN_T or an alpha outside (0, 1) raises
    InvalidParameter before any pair is tested, as does a window length
    that is not an integer; a window longer than the panel skips every
    pair, and a pair of non-integer or out-of-range indices is skipped.
    """
    short = [w for w in window_lens if not (isinstance(w, Integral) and w >= MIN_T)]
    if short:
        raise InvalidParameter(f"window lengths must be integers >= {MIN_T}, got {short[0]!r}")
    outside = [a for a in alphas if not 0.0 < a < 1.0]
    if outside:
        raise InvalidParameter(f"alphas must lie in (0, 1), got {outside[0]!r}")
    if pairs is None:
        pairs = all_pairs(panel.n_series)
    pairs = sorted((min(p), max(p)) for p in pairs)
    panels = {"": panel}
    panels.update(_control_panels(panel, reshuffle_seed, mc_family, mc_nu, mc_seed))
    counts = {}
    skipped = []
    for name, scan_panel in panels.items():
        counts[name], skips = _global_counts(scan_panel, pairs, window_lens, alphas, threads)
        skipped.extend(dict(entry, control=name) if name else entry for entry in skips)
    grid = [(w, w, alpha) for w in window_lens for alpha in alphas]
    cells = _cells("T_w", "alpha", grid, counts)
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
    LocalTestConfig(t1, tau)  # the scans' checks of t1 and tau
    short = _short_panel(panel, t1, tau)
    if short is not None:
        raise short
    centered, sd = gated_rows(np.stack(_pair_rows(panel, pair)),
                              [panel.tickers[k] for k in pair])
    z = centered / sd
    lengths = np.arange(t1, panel.n_steps + 1, tau)
    estimates = np.cumsum(z[0] * z[1])[lengths - 1] / lengths
    return list(zip(lengths.tolist(), estimates.tolist()))


def _short_panel(panel, t1, tau):
    """The InsufficientData a panel too short for two estimates raises, else None."""
    if panel.n_steps < t1 + tau:
        return InsufficientData(
            f"need at least t1 + tau = {t1 + tau} steps, got {panel.n_steps}"
        )
    return None


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


# Block-Gram cells (lengths x rows x seconds) per chunk of first-index
# rows: keeps a chunk's block products, estimates and flags a few MB
# unless a single row needs more.
_CHUNK_CELLS = 1 << 18


def _local_counts(panel, pairs, configs, sigma_convention):
    """(violations, steps) per (config, n) over pairs, and the failing (pair, error)s.

    The rows are standardized once, and only the failing pairs build an
    error; they are listed in pairs' order, duplicates included.  Per
    config, chunks of the distinct first-index rows take one Gram product
    with the distinct second-index rows over the first t1 columns and one
    batched product over each later block of tau columns;
    each pair reads its (first, second) cell of every block, and a
    cumulative sum over the blocks gives its prefix sums at the lengths.
    """
    z, bad = standardized_rows(panel.returns)
    ij = np.asarray(pairs).reshape(-1, 2)  # object dtype if an index overflows int64
    invalid = ((ij < 0) | (ij >= panel.n_series)).any(axis=1) | (ij[:, 0] == ij[:, 1])
    if ij.dtype.kind not in "iu":  # some index is not an int64: _pair_rows refuses non-integers
        invalid |= np.array([not (isinstance(i, Integral) and isinstance(j, Integral))
                             for i, j in pairs], dtype=bool)
    ij = np.where(invalid[:, None], 0, ij).astype(np.int64)
    failed = invalid | bad[ij].any(axis=1)
    failures = [(pairs[p], _pair_error(panel, pairs[p], bad))
                for p in np.flatnonzero(failed).tolist()]
    good = ij[~failed]
    counts = {}
    if not good.size:
        return counts, failures
    firsts, at_i = np.unique(good[:, 0], return_inverse=True)  # at_i sorted, as pairs are
    seconds, at_j = np.unique(good[:, 1], return_inverse=True)
    zj = z[seconds]
    for config in configs:
        if _short_panel(panel, config.t1, config.tau) is not None:
            continue
        t1, tau = config.t1, config.tau
        lengths = np.arange(t1, panel.n_steps + 1, tau)
        blocks = lengths.size - 1
        # (blocks, tau, seconds): the columns each step after t1 adds
        tail_j = zj[:, t1:lengths[-1]].reshape(-1, blocks, tau).transpose(1, 2, 0)
        rows = max(1, _CHUNK_CELLS // (seconds.size * lengths.size))
        hits = np.zeros(len(config.n_values), dtype=np.int64)
        steps = 0
        for r0 in range(0, firsts.size, rows):
            lo, hi = np.searchsorted(at_i, (r0, r0 + rows))
            ai, aj = at_i[lo:hi] - r0, at_j[lo:hi]
            zi = z[firsts[r0:r0 + rows]]
            tail_i = zi[:, t1:lengths[-1]].reshape(-1, blocks, tau).transpose(1, 0, 2)
            sums = np.empty((ai.size, lengths.size))
            sums[:, 0] = (zi[:, :t1] @ zj[:, :t1].T)[ai, aj]
            # tau == 1: the block products are plain products; skip a BLAS call per block
            grams = tail_i * tail_j if tau == 1 else np.matmul(tail_i, tail_j)
            sums[:, 1:] = grams.transpose(1, 2, 0)[ai, aj]
            estimates = np.cumsum(sums, axis=1, out=sums)
            estimates /= lengths
            flags = _step_flags(estimates, lengths, config.n_values,
                                sigma_convention, tau)
            hits += flags.sum(axis=(1, 2))
            steps += flags[0].size
        for n, n_hits in zip(config.n_values, hits.tolist()):
            counts[(config, n)] = (n_hits, steps)
    return counts, failures


def local_scan(panel: ReturnPanel, configs, pairs=None,
               sigma_convention: str = SIGMA_WINDOW, mc_family=None,
               mc_nu=None, mc_seed=0, dataset="panel") -> ScanReport:
    """Pooled violating fraction over all (pair, step), per (tau, n).

    Each config carries its own n values.  Each panel (and its optional
    MC control) is scanned as one array computation.  A pair of
    non-integer or out-of-range indices is skipped.
    """
    if sigma_convention not in (SIGMA_WINDOW, SIGMA_PAPER):
        raise InvalidParameter(f"unknown sigma convention {sigma_convention!r}")
    if pairs is None:
        pairs = all_pairs(panel.n_series)
    pairs = sorted((min(p), max(p)) for p in pairs)
    panels = {"": panel}
    panels.update(_control_panels(panel, None, mc_family, mc_nu, mc_seed))
    counts = {}
    failures = {}
    for name, scan_panel in panels.items():
        counts[name], failures[name] = _local_counts(
            scan_panel, pairs, configs, sigma_convention
        )
    skipped = []
    for config in configs:
        for name, scan_panel in panels.items():
            short = _short_panel(scan_panel, config.t1, config.tau)
            skips = failures[name] if short is None else [(pair, short) for pair in pairs]
            skipped.extend({
                "pair": list(pair),
                "tau": config.tau,
                "control": name or None,
                "error": type(exc).__name__,
                "detail": str(exc),
            } for pair, exc in skips)
    grid = [(c, c.tau, n) for c in configs for n in c.n_values]
    cells = _cells("tau", "n", grid, counts)
    params = {
        "configs": [
            {"t1": c.t1, "tau": c.tau} for c in configs
        ],
        "n_values": sorted({int(n) for c in configs for n in c.n_values}),
        "sigma_convention": sigma_convention,
        "n_pairs": len(pairs),
        "mc_family": mc_family,
        "mc_nu": mc_nu,
        "mc_seed": mc_seed if mc_family is not None else None,
    }
    return ScanReport(dataset=dataset, kind="local", params=params,
                      cells=cells, skipped=skipped)
