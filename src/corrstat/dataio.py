"""Panel and volatility-file reading, returns, standardization, windowing, reshuffle control.

Conventions used throughout the toolkit:

* panels are stored as N x T float64 arrays (one row per ticker, one column
  per time step), the transpose of the CSV layout (one row per day);
* standard deviations use the population convention (divide by T, not T-1),
  matching the 1/T normalization of the Pearson estimator;
* a CSV panel loads straight to returns: its cells are prices whose log
  (default) or simple changes become the returns, or returns already.
"""
from __future__ import annotations

import csv
from contextlib import closing
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import (
    DomainError,
    DuplicateTicker,
    InsufficientData,
    InvalidParameter,
    ParseError,
    ZeroVariance,
    checked_array,
    checked_int,
    checked_symmetric,
)
from .rngutil import rng_for

# Fewest observations a correlation window may hold: the sampling law's domain.
MIN_T = 10


def freeze(obj, **rules):
    """Store each array field name=rule (an ndim for checked_array, or checked_symmetric) of a
    frozen dataclass as its rule's read-only copy, and return the copies."""
    for name, rule in rules.items():
        value = getattr(obj, name)
        a = rule(name, value) if callable(rule) else checked_array(name, value, rule)
        a.setflags(write=False)
        object.__setattr__(obj, name, a)
    return tuple(getattr(obj, name) for name in rules)


@dataclass(frozen=True)
class ReturnPanel:
    """N tickers, T price changes each."""

    tickers: tuple[str, ...]
    times: tuple[str, ...]
    returns: np.ndarray  # N x T

    def __post_init__(self):
        try:
            freeze(self, returns=2)
        except DomainError:  # name the ticker and column; labels that do not fit raise below
            with np.errstate(over="ignore"):
                returns = np.asarray(self.returns, np.float64)  # as the rule saw it
            i, col = np.argwhere(~np.isfinite(returns))[0]
            if returns.shape == (len(self.tickers), len(self.times)):
                raise DomainError(f"non-finite return {returns[i, col]} for "
                                  f"{self.tickers[i]!r} at column {col}") from None
        if np.shape(self.returns) != (len(self.tickers), len(self.times)):
            raise InvalidParameter("panel labels do not match matrix shape")
        if len(self.times) < 1:
            raise InvalidParameter("a panel needs at least one step")

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
class CovarianceMatrix:
    """Population covariance over one column range; window None = abstract.

    A correlation matrix is the covariance of the window's standardized
    rows, so corrdist.corr_matrix returns this type too.  The entries pass
    errors.checked_symmetric: square, finite and symmetric by construction.
    """

    tickers: tuple[str, ...]
    entries: np.ndarray
    window: tuple[int, int] | None = None

    def __post_init__(self):
        (entries,) = freeze(self, entries=checked_symmetric)
        if len(entries) != len(self.tickers):
            raise InvalidParameter("entries must be N x N matching tickers")

    @property
    def n_series(self) -> int:
        return self.entries.shape[0]

    @property
    def window_len(self) -> int | None:
        return None if self.window is None else self.window[1] - self.window[0]


# load_price_panel's kinds: log or simple price changes, or the cells as returns
RETURN_KINDS = ("log", "simple", "returns")


def load_price_panel(path, kind="log"):
    """Read a CSV panel (header of tickers, optional leading date column) as a ReturnPanel.

    ``kind="returns"`` keeps the cells as they are.  With ``"log"`` or
    ``"simple"`` the cells are prices, and their changes become the returns,
    the first time label dropped.  Rows are days in the file, transposed into
    N x T storage.  Dateless rows are labelled by their row number less one.
    Row numbers in errors count non-blank records, the header being row 1.

    The body streams line by line through np.loadtxt.  A file that parser
    might read otherwise, or that it refuses, is read again record by
    record with float(), which names the first fault.
    """
    if kind not in RETURN_KINDS:
        raise InvalidParameter(f"kind must be 'log', 'simple' or 'returns', got {kind!r}")
    try:
        tickers, times, cells = _numpy_panel(path)
    except (ValueError, csv.Error):
        tickers, times, cells = _exact_panel(path)
    if kind != "returns":
        cells, times = _price_changes(cells, kind), times[1:]
    return ReturnPanel(tuple(tickers), tuple(times), cells)


def _records(path):
    """(row number, cells) of each non-blank record of a UTF-8 CSV file; the first is row 1.

    A leading BOM is dropped.  Text that is not UTF-8 and a cell over
    csv's field limit raise ParseError.
    """
    irow = 0  # records read; a reader error is in the next one
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel prepends a BOM
            for irow, cells in enumerate(filter(None, csv.reader(fh)), start=1):  # blank lines are not rows
                yield irow, cells
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise ParseError(f"{path}: row {irow + 1}: {err}") from None


def load_volatilities(path) -> dict:
    """{ticker: volatility} of a two-column ticker,volatility CSV, as float() reads each value.

    The first record is a header when it is one line of two cells whose
    value cell is not a number.  Any other record that is not a ticker and
    a number, and a repeated ticker, raise ParseError naming its row, as
    do the faults _records names.
    """
    table = {}
    with closing(_records(path)) as records:
        for irow, cells in records:
            try:
                name, value = cells
                vol = float(value)
            except ValueError:
                if irow == 1 and len(cells) == 2 and not any("\n" in c or "\r" in c for c in cells):
                    continue
                raise ParseError(f"{path}: row {irow}: malformed line") from None
            name = name.strip()
            if name in table:
                raise ParseError(f"{path}: row {irow}: duplicate ticker {name!r}")
            table[name] = vol
    return table


def _header(path, header):
    """The tickers of a header record, and whether it leads with a date column."""
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in header]
    has_dates = header[0].lower() == "date"
    tickers = header[1:] if has_dates else header
    if not tickers:
        raise ParseError(f"{path}: header contains no tickers")
    seen = set()
    for tick in tickers:
        if tick in seen:
            raise DuplicateTicker(f"duplicate ticker {tick!r}")
        seen.add(tick)
    return tickers, has_dates


def _exact_panel(path):
    """Tickers, time labels and N x T cells, each record checked and parsed with float()."""
    times, days = [], []
    nonfinite = None  # the first non-finite cell's error, raised after every other check
    with closing(_records(path)) as records:
        tickers, has_dates = _header(path, next(records, (0, None))[1])
        width, lead = len(tickers) + has_dates, int(has_dates)
        for irow, row in records:
            if len(row) != width:
                raise ParseError(f"{path}: row {irow} has {len(row)} cells, expected {width}")
            cells = row[lead:]
            try:  # cells parse as float()
                day = np.fromiter(map(float, cells), np.float64, len(tickers))
            except ValueError:
                for col, cell in enumerate(cells, start=lead + 1):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(
                            f"{path}: non-numeric cell at row {irow}, col {col}: {cell!r}"
                        ) from None
            if nonfinite is None and not np.isfinite(day).all():
                col = lead + 1 + int(np.argmin(np.isfinite(day)))
                nonfinite = ParseError(
                    f"{path}: non-finite cell at row {irow}, col {col}: {row[col - 1]!r}")
            days.append(day)
            times.append(row[0].strip() if has_dates else str(irow - 1))
    if not days:
        raise ParseError(f"{path}: no data rows")
    if nonfinite is not None:
        raise nonfinite
    return tickers, times, np.stack(days, axis=1)


# A csv quote, and the separators \x1c-\x1f, which np.loadtxt strips from a
# number as whitespace where float() refuses the cell.
_EXACT_ONLY = ('"', "\x1c", "\x1d", "\x1e", "\x1f")
_BLANK = ("", "\n", "\r\n", "\r")


def _numpy_panel(path):
    """_exact_panel's result for a clean file, the body parsed by np.loadtxt.

    Raises ValueError (or csv.Error) where the file may not be clean:
    np.loadtxt refuses a cell or a row, a cell is not finite, or
    _clean_lines finds a line it must not pass on.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        tickers, has_dates = _header(path, next(filter(None, csv.reader(fh)), None))
        times = []
        body = np.loadtxt(_clean_lines(fh, len(tickers), has_dates, times),
                          delimiter=",", comments=None, ndmin=2)
    if not np.isfinite(body).all():
        raise ValueError("a non-finite cell")
    return tickers, times, np.ascontiguousarray(body.T)


def _clean_lines(fh, n_tickers, has_dates, times):
    """fh's non-blank lines less their date field, each appending its label to times.

    Raises ValueError at a line that is not one record of n_tickers plain
    cells (a quote, another cell count, a line over csv's field limit or a
    character in _EXACT_ONLY), and at the end when there was none.
    """
    limit, irow = csv.field_size_limit(), 1
    for line in fh:
        if line in _BLANK:  # csv reads no record here
            continue
        irow += 1
        if (line.count(",") != n_tickers - 1 + has_dates or len(line) > limit
                or any(c in line for c in _EXACT_ONLY)):
            raise ValueError(f"row {irow} is not plain")
        if has_dates:
            date, _, line = line.partition(",")
            if line in _BLANK:  # one empty cell, which np.loadtxt would skip as a blank line
                raise ValueError(f"row {irow} is not plain")
            times.append(date.strip())
        else:
            times.append(str(irow - 1))
        yield line
    if irow == 1:
        raise ValueError("no data rows")


def _price_changes(prices: np.ndarray, kind: str) -> np.ndarray:
    """Log or simple returns of N x (T+1) prices: N x T."""
    if prices.shape[1] < 2:
        raise InsufficientData("need at least 2 price rows to form returns")
    if kind == "log":
        if np.any(prices <= 0):
            raise DomainError("log-returns require strictly positive prices")
        return np.diff(np.log(prices), axis=1)
    if np.any(prices[:, :-1] == 0):
        raise DomainError("simple returns undefined at a zero price")
    with np.errstate(over="ignore"):  # ReturnPanel rejects the inf
        return prices[:, 1:] / prices[:, :-1] - 1.0


def save_panel_csv(panel: ReturnPanel, path):
    """Write a panel back to CSV (days as rows, date column first)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *panel.tickers])
        for t, label in enumerate(panel.times):
            writer.writerow([label] + [f"{v:.17g}" for v in panel.returns[:, t]])


def centered_rows(block: np.ndarray):
    """Rows minus their means, their population sds, and the zero-variance mask.

    The toolkit's one zero-variance rule: sd at most 1e-12 max(1, |mean|).
    Each row's numbers are bit-identical to the same reductions on it alone.
    A row whose sum or squares overflow gets its mean or sd at a power-of-two
    scale, so a row times 2**k keeps its standardized values exactly.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = block.mean(axis=1, keepdims=True)
        huge = ~(np.abs(mean[:, 0]) < np.inf)  # an inf sum, or +inf and -inf partial sums
        if huge.any():  # the same mean of the rows scaled by 2**-exp, which is exact
            exp = np.frexp(np.abs(block[huge]).max(axis=1, keepdims=True))[1]
            mean[huge] = np.ldexp(np.ldexp(block[huge], -exp).mean(axis=1, keepdims=True), exp)
        centered = block - mean
        sd = np.sqrt((centered * centered).mean(axis=1, keepdims=True))
    big = np.isinf(sd[:, 0])
    if big.any():  # the same reductions on the rows scaled by 2**-exp, which is exact
        exp = np.frexp(np.abs(centered[big]).max(axis=1, keepdims=True))[1]
        scaled = np.ldexp(centered[big], -exp)
        sd[big] = np.ldexp(np.sqrt((scaled * scaled).mean(axis=1, keepdims=True)), exp)
    return centered, sd, (sd <= 1e-12 * np.maximum(1.0, np.abs(mean)))[:, 0]


# Cells per row block that standardized_rows takes at a time: its temporaries
# stay about 0.5 MB past the output unless a single row needs more.
_ROW_CELLS = 1 << 16


def standardized_rows(block: np.ndarray):
    """Rows at zero mean and unit population sd (flagged rows only centred), and the mask.

    The rows go through centered_rows a block of about _ROW_CELLS cells at a
    time, straight into one output array, so each row's numbers are those of
    the row alone and the working set does not grow with the block.
    """
    z, bad = np.empty(block.shape), np.empty(block.shape[0], dtype=bool)
    step = max(1, _ROW_CELLS // max(1, block.shape[1]))
    for lo in range(0, block.shape[0], step):
        rows = slice(lo, lo + step)
        centered, sd, bad[rows] = centered_rows(block[rows])
        np.divide(centered, np.where(bad[rows, None], 1.0, sd), out=z[rows])
    return z, bad


def checked_window(n_steps: int, window, min_len: int) -> tuple[int, int]:
    """window as two ints (default: all n_steps columns), inside the panel and min_len long."""
    try:
        lo, hi = (0, n_steps) if window is None else window
    except (TypeError, ValueError):  # not iterable, or not two long
        raise InvalidParameter(f"window must be two integers (lo, hi), got {window!r}") from None
    if not (isinstance(lo, Integral) and isinstance(hi, Integral)):
        raise InvalidParameter(f"window bounds must be integers, got {(lo, hi)!r}")
    lo, hi = int(lo), int(hi)
    if not (0 <= lo < hi <= n_steps):
        raise InvalidParameter(f"window {(lo, hi)} outside panel range")
    if hi - lo < min_len:
        raise InsufficientData(f"window length {hi - lo} below minimum {min_len}")
    return lo, hi


def gated_rows(rows: np.ndarray, tickers, window=None):
    """The window's rows (all columns by default) minus their means, and their sds.

    The toolkit's zero-variance gate: the first flat row raises
    ZeroVariance with its ticker, and with the window when one was given.
    """
    centered, sd, bad = centered_rows(rows if window is None else rows[:, window[0]:window[1]])
    if bad.any():
        loc = "" if window is None else f" in window {window}"
        raise ZeroVariance(f"zero variance for {tickers[np.argmax(bad)]!r}{loc}")
    return centered, sd


def standardize(panel: ReturnPanel) -> ReturnPanel:
    """Each row at zero mean and unit population sd over the full sample."""
    centered, sd = gated_rows(panel.returns, panel.tickers)
    return replace(panel, returns=centered / sd)


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


def window_slices(t_total: int, window_len: int) -> tuple[tuple[int, int], ...]:
    """K = floor(t_total / window_len) consecutive [lo, hi) ranges from 0; the rest is dropped."""
    checked_int("t_total", t_total, 0)
    if checked_int("window_len", window_len, MIN_T) > t_total:
        raise InsufficientData(
            f"window_len {window_len} exceeds available length {t_total}"
        )
    k = t_total // window_len
    return tuple((i * window_len, (i + 1) * window_len) for i in range(k))
