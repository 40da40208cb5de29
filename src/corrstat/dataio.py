"""Panel ingestion, return computation, standardization, windowing, reshuffle control.

Conventions used throughout the toolkit:

* panels are stored as N x T float64 arrays (one row per ticker, one column
  per time step), the transpose of the CSV layout (one row per day);
* standard deviations use the population convention (divide by T, not T-1),
  matching the 1/T normalization of the Pearson estimator;
* price changes default to log-returns, simple returns are available by flag.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainError,
    DuplicateTicker,
    InsufficientData,
    InvalidParameter,
    ParseError,
    ZeroVariance,
)
from .rngutil import rng_for

SCOPE_RAW = "raw"
SCOPE_GLOBAL = "global"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PricePanel:
    """N tickers, T+1 price observations each; prices expected positive."""

    tickers: tuple[str, ...]
    times: tuple[str, ...]
    prices: np.ndarray  # N x (T+1)

    def __post_init__(self):
        object.__setattr__(self, "prices", _freeze(self.prices))
        n, t1 = self.prices.shape
        if len(self.tickers) != n or len(self.times) != t1:
            raise InvalidParameter("panel labels do not match matrix shape")

    @property
    def n_series(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class ReturnPanel:
    """N tickers, T price changes each.

    ``scope`` records how the panel was standardized: "raw" (not at all),
    "global" (each full row), or "per-window:<T_w>" (each row within each
    window of a length-T_w partition).
    """

    tickers: tuple[str, ...]
    times: tuple[str, ...]
    returns: np.ndarray  # N x T
    standardized: bool = False
    scope: str = SCOPE_RAW

    def __post_init__(self):
        object.__setattr__(self, "returns", _freeze(self.returns))
        n, t = self.returns.shape
        if len(self.tickers) != n or len(self.times) != t:
            raise InvalidParameter("panel labels do not match matrix shape")
        if not np.isfinite(self.returns).all():
            i, col = np.argwhere(~np.isfinite(self.returns))[0]
            raise DomainError(f"non-finite return {self.returns[i, col]} for "
                              f"{self.tickers[i]!r} at column {col}")

    @property
    def n_series(self) -> int:
        return self.returns.shape[0]

    @property
    def n_steps(self) -> int:
        return self.returns.shape[1]

    def select(self, indices) -> "ReturnPanel":
        """Sub-panel with the given ticker indices, order preserved."""
        idx = list(indices)
        return replace(
            self,
            tickers=tuple(self.tickers[i] for i in idx),
            returns=self.returns[idx, :],
        )


@dataclass(frozen=True)
class WindowPlan:
    """K contiguous, disjoint, equal-length index ranges; remainder discarded."""

    t_total: int
    window_len: int
    windows: tuple[tuple[int, int], ...]  # half-open [lo, hi) column ranges

    @property
    def n_windows(self) -> int:
        return len(self.windows)


def _raise_first_bad_row(path, rows, width, lead):
    """ParseError for the first data row, in file order, that is short, long or non-numeric."""
    for irow, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {irow} has {len(row)} cells, expected {width}",
                row=irow,
            )
        for col, cell in enumerate(row[lead:], start=lead + 1):
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell at row {irow}, col {col}: {cell!r}",
                    row=irow,
                    col=col,
                ) from None


def load_price_panel(path, format="prices"):
    """Read a CSV panel (header of tickers, optional leading date column).

    ``format="prices"`` returns a PricePanel, ``format="returns"`` a raw
    ReturnPanel. Rows are days in the file, transposed into N x T storage.
    """
    if format not in ("prices", "returns"):
        raise InvalidParameter(f"format must be 'prices' or 'returns', got {format!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]  # ignore blank lines
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    has_dates = bool(header) and header[0].lower() == "date"
    tickers = header[1:] if has_dates else header
    if not tickers:
        raise ParseError(f"{path}: header contains no tickers")
    seen = set()
    for tick in tickers:
        if tick in seen:
            raise DuplicateTicker(tick)
        seen.add(tick)

    width = len(header)
    lead = 1 if has_dates else 0
    body = [row[lead:] for row in rows[1:]]
    if not body:
        raise ParseError(f"{path}: no data rows")
    try:
        days = np.asarray(body, dtype=np.float64)  # T x N, file order; cells parse as float()
        if days.shape[1] != width - lead:
            raise ValueError
    except ValueError:
        _raise_first_bad_row(path, rows, width, lead)
        raise
    times = [row[0].strip() if has_dates else str(t) for t, row in enumerate(rows[1:], start=1)]
    nonfinite = np.argwhere(~np.isfinite(days))
    if nonfinite.size:
        t, jcol = nonfinite[0].tolist()
        irow, col = t + 2, jcol + (2 if has_dates else 1)
        cell = rows[t + 1][col - 1]
        raise ParseError(
            f"{path}: non-finite cell at row {irow}, col {col}: {cell!r}",
            row=irow,
            col=col,
        )
    matrix = days.T  # N x T
    if format == "prices":
        return PricePanel(tuple(tickers), tuple(times), matrix)
    return ReturnPanel(tuple(tickers), tuple(times), matrix)


def save_panel_csv(panel, path):
    """Write a panel back to CSV (days as rows, date column first)."""
    matrix = panel.prices if isinstance(panel, PricePanel) else panel.returns
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *panel.tickers])
        for t, label in enumerate(panel.times):
            writer.writerow([label] + [f"{v:.17g}" for v in matrix[:, t]])


def to_returns(panel: PricePanel, kind: str = "log") -> ReturnPanel:
    """Price changes per ticker; T = (input length - 1)."""
    if kind not in ("log", "simple"):
        raise InvalidParameter(f"kind must be 'log' or 'simple', got {kind!r}")
    prices = panel.prices
    if prices.shape[1] < 2:
        raise InsufficientData("need at least 2 price rows to form returns")
    if kind == "log":
        if np.any(prices <= 0):
            raise DomainError("log-returns require strictly positive prices")
        rets = np.diff(np.log(prices), axis=1)
    else:
        if np.any(prices[:, :-1] == 0):
            raise DomainError("simple returns undefined at a zero price")
        with np.errstate(over="ignore"):  # ReturnPanel rejects the inf
            rets = prices[:, 1:] / prices[:, :-1] - 1.0
    return ReturnPanel(panel.tickers, panel.times[1:], rets)


def centered_rows(block: np.ndarray):
    """Rows minus their means, their population sds, and the zero-variance mask.

    The toolkit's one zero-variance rule: sd at most 1e-12 max(1, |mean|).
    Each row's numbers are bit-identical to the same reductions on it alone.
    """
    mean = block.mean(axis=1, keepdims=True)
    centered = block - mean
    sd = np.sqrt((centered * centered).mean(axis=1, keepdims=True))
    return centered, sd, (sd <= 1e-12 * np.maximum(1.0, np.abs(mean)))[:, 0]


def standardized_rows(block: np.ndarray):
    """Rows at zero mean and unit population sd (flagged rows only centred), and the mask."""
    centered, sd, bad = centered_rows(block)
    return centered / np.where(bad[:, None], 1.0, sd), bad


def standardize(panel: ReturnPanel, scope: str = "global", window_len: int | None = None) -> ReturnPanel:
    """Zero-mean/unit-sd rows, globally or within each length-window_len window.

    Per-window scope standardizes the K full windows; a trailing remainder
    shorter than window_len is left untouched (every windowed computation
    downstream discards it).
    """
    if scope == "global":
        spans = [(None, (0, panel.n_steps))]
        new_scope = SCOPE_GLOBAL
    elif scope == "per-window":
        if window_len is None:
            raise InvalidParameter("per-window standardization needs window_len")
        spans = enumerate(window_slices(panel.n_steps, window_len).windows)
        new_scope = f"per-window:{window_len}"
    else:
        raise InvalidParameter(f"scope must be 'global' or 'per-window', got {scope!r}")
    out = panel.returns.copy()
    for window, (lo, hi) in spans:
        z, bad = standardized_rows(panel.returns[:, lo:hi])
        if bad.any():
            raise ZeroVariance(panel.tickers[np.argmax(bad)], window=window)
        out[:, lo:hi] = z
    return replace(panel, returns=out, standardized=True, scope=new_scope)


def synchronous_reshuffle(panel: ReturnPanel, seed: int) -> ReturnPanel:
    """One seed-determined time permutation applied identically to every row.

    Kills the correlation dynamics while leaving the full-sample
    cross-correlation structure intact.
    """
    perm = rng_for(seed, "reshuffle").permutation(panel.n_steps)
    return replace(
        panel,
        returns=panel.returns[:, perm],
        times=tuple(panel.times[p] for p in perm),
    )


def window_slices(t_total: int, window_len: int) -> WindowPlan:
    """K = floor(t_total / window_len) contiguous disjoint ranges from index 0."""
    if window_len < 10:
        raise InvalidParameter(
            f"window_len must be >= 10 (sampling-distribution domain), got {window_len}"
        )
    if window_len > t_total:
        raise InsufficientData(
            f"window_len {window_len} exceeds available length {t_total}"
        )
    k = t_total // window_len
    windows = tuple((i * window_len, (i + 1) * window_len) for i in range(k))
    return WindowPlan(t_total, window_len, windows)
