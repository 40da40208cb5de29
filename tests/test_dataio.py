import csv
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import corrdist, dataio, portfolio, spectral, stationarity
from corrstat.errors import (
    CorrstatError,
    DomainError,
    DuplicateTicker,
    InsufficientData,
    InvalidParameter,
    ParseError,
    ZeroVariance,
    checked_array,
)
from corrstat.portfolio import CovarianceMatrix

from conftest import gaussian_panel, make_panel, traced_peak


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_price_panel_with_dates(tmp_path):
    path = write(tmp_path / "p.csv",
                 "date,AAA,BBB,CCC\n"
                 "2020-01-01,1.0,2.0,3.0\n"
                 "2020-01-02,1.1,2.1,3.1\n"
                 "2020-01-03,1.2,2.2,3.2\n"
                 "2020-01-04,1.3,2.3,3.3\n"
                 "2020-01-05,1.4,2.4,3.4\n")
    panel = dataio.load_price_panel(path, kind="returns")
    assert panel.n_series == 3
    assert panel.returns.shape == (3, 5)
    assert panel.tickers == ("AAA", "BBB", "CCC")
    assert panel.times[0] == "2020-01-01"
    assert panel.returns[1, 2] == 2.2


def test_load_price_panel_without_dates(tmp_path):
    path = write(tmp_path / "p.csv", "AAA,BBB\n1,2\n3,4\n")
    panel = dataio.load_price_panel(path, kind="returns")
    assert panel.returns.shape == (2, 2)
    assert panel.times == ("1", "2")


@pytest.mark.parametrize("text", [
    "date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.5,2.5\n",
    "AAA,BBB\n1.0,2.0\n1.5,2.5\n",
])
def test_load_price_panel_accepts_a_utf8_bom(tmp_path, text):
    plain = dataio.load_price_panel(write(tmp_path / "plain.csv", text), kind="returns")
    marked = dataio.load_price_panel(write(tmp_path / "bom.csv", "\ufeff" + text),
                                     kind="returns")
    assert marked.tickers == plain.tickers == ("AAA", "BBB")
    assert marked.times == plain.times
    assert np.array_equal(marked.returns, plain.returns)


def test_load_returns_format(tmp_path):
    path = write(tmp_path / "r.csv", "AAA,BBB\n0.1,-0.2\n0.0,0.3\n")
    panel = dataio.load_price_panel(path, kind="returns")
    assert isinstance(panel, dataio.ReturnPanel)
    assert panel.returns.shape == (2, 2)


def test_parse_error_cites_position(tmp_path):
    path = write(tmp_path / "bad.csv", "date,AAA\n2020-01-01,1.0\n2020-01-02,oops\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path)
    assert str(err.value) == f"{path}: non-numeric cell at row 3, col 2: 'oops'"


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_non_finite_cell_cites_position(tmp_path, cell):
    path = write(tmp_path / "bad.csv",
                 f"date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.1,{cell}\n")
    for kind in ("log", "simple", "returns"):
        with pytest.raises(ParseError) as err:
            dataio.load_price_panel(path, kind=kind)
        assert str(err.value) == f"{path}: non-finite cell at row 3, col 3: {cell!r}"
    path = write(tmp_path / "nodates.csv", f"AAA,BBB\n{cell},2.0\n1.0,nan\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path, kind="returns")
    # the first in file order
    assert str(err.value) == f"{path}: non-finite cell at row 2, col 1: {cell!r}"


def test_cells_parse_as_float(tmp_path):
    cells = [" 1.5 ", "1_000", "+.5e-3"]
    path = write(tmp_path / "p.csv", "A,B,C\n" + ",".join(cells) + "\n0,0,0\n")
    panel = dataio.load_price_panel(path, kind="returns")
    assert panel.returns[:, 0].tolist() == [float(c) for c in cells]
    path = write(tmp_path / "inf.csv", "A,B\n1,-iNF\n2,3\n")
    with pytest.raises(ParseError, match="non-finite cell at row 2, col 2: '-iNF'"):
        dataio.load_price_panel(path, kind="returns")


def test_first_bad_row_in_file_order(tmp_path):
    for name, text, message in (
            ("a", "A,B\n1,2\n1,x\n3\n", "non-numeric cell at row 3, col 2: 'x'"),
            ("b", "A,B\n1,2\n3\n1,x\n", "row 3 has 1 cells, expected 2"),
            # a non-finite cell is reported only when no row is short, long or non-numeric
            ("c", "A,B\n1,nan\n1,2\n1,x\n", "non-numeric cell at row 4, col 2: 'x'"),
            ("d", "A,B\n1,inf\n1,2\n3,4\n5\n", "row 5 has 1 cells, expected 2"),
            # blank lines are not rows
            ("e", "A,B\n\n1,2\n\n\n1,x\n", "non-numeric cell at row 3, col 2: 'x'")):
        path = write(tmp_path / f"{name}.csv", text)
        with pytest.raises(ParseError) as err:
            dataio.load_price_panel(path)
        assert str(err.value) == f"{path}: {message}", name


def test_parse_error_ragged_row(tmp_path):
    path = write(tmp_path / "bad.csv", "AAA,BBB\n1.0\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path)
    assert str(err.value) == f"{path}: row 2 has 1 cells, expected 2"


def test_duplicate_ticker(tmp_path):
    path = write(tmp_path / "dup.csv", "AAA,AAA\n1,2\n")
    with pytest.raises(DuplicateTicker):
        dataio.load_price_panel(path)


@pytest.mark.parametrize("header, col", [(",A,B", 1), ("date,A,,B", 3), ("A, ,B", 2),
                                         ("A,B,\t", 3)])
def test_both_readers_refuse_an_empty_ticker_cell(tmp_path, header, col):
    path = write(tmp_path / "p.csv", header + "\n" + ",".join(["1"] * (header.count(",") + 1))
                 + "\n")
    for reader in (dataio._numpy_panel, dataio._exact_panel):
        with pytest.raises(ParseError) as info:
            reader(path)
        assert str(info.value) == f"{path}: empty ticker cell at row 1, col {col}"


@pytest.mark.parametrize("header, ticker, col", [("A,A", "A", 2), ("date,A,B,A", "A", 4),
                                                 ("A, B,B ", "B", 3), ('"A",A', "A", 2)])
def test_both_readers_name_a_repeated_ticker(tmp_path, header, ticker, col):
    # tickers are compared once stripped and unquoted; col counts a date column
    path = write(tmp_path / "p.csv", header + "\n" + ",".join(["1"] * (header.count(",") + 1))
                 + "\n")
    for reader in (dataio._numpy_panel, dataio._exact_panel):
        with pytest.raises(DuplicateTicker) as info:
            reader(path)
        assert str(info.value) == f"{path}: duplicate ticker {ticker!r} at row 1, col {col}"


@pytest.mark.parametrize("first, has_dates", [("date", True), ("Date", True), (" DATE\t", True),
                                              ("dated", False), ("DATEX", False),
                                              ("date_", False)])
def test_only_a_first_cell_named_date_leads_a_date_column(tmp_path, first, has_dates):
    # a ticker may start with "date"
    path = write(tmp_path / "p.csv", f"{first},A\n1,2\n3,4\n")
    for reader in (dataio._numpy_panel, dataio._exact_panel):
        tickers, times, cells = reader(path)
        if has_dates:
            assert (tickers, times, cells.tolist()) == (["A"], ["1", "3"], [[2.0, 4.0]])
        else:
            assert (tickers, times) == ([first, "A"], ["1", "2"])
            assert cells.tolist() == [[1.0, 3.0], [2.0, 4.0]]


PLAIN_PANEL = "date,A,B\nd1,1.0,2.0\nd2,1.5,2.5\n"


@pytest.mark.parametrize("text", [
    '"date","A","B"\nd1,1.0,2.0\nd2,1.5,2.5\n',  # a quoted header
    'date,A,B\n"d1",1.0,2.0\nd2,1.5,2.5\n',  # a quoted date
    'date,A,B\nd1,"1.0",2.0\nd2,1.5,2.5\n',  # a quoted cell below the header
    '"date","A","B"\n"d1","1.0","2.0"\n"d2","1.5","2.5"\n',  # every cell quoted
    '\ufeff"date",A,"B"\r\n\r\nd1,1.0,"2.0"\r\n"d2",1.5,2.5\r\n',  # BOM, CRLF, a blank line
])
def test_a_panel_is_read_as_csv_records(tmp_path, text):
    plain = dataio.load_price_panel(write(tmp_path / "plain.csv", PLAIN_PANEL), kind="returns")
    quoted = dataio.load_price_panel(write(tmp_path / "quoted.csv", text), kind="returns")
    assert quoted.tickers == plain.tickers == ("A", "B")
    assert quoted.times == plain.times == ("d1", "d2")
    assert quoted.returns.tobytes() == plain.returns.tobytes()


def test_a_quoted_ticker_may_hold_a_comma(tmp_path):
    path = write(tmp_path / "p.csv", 'date,"A,1",B\nd1,1,2\nd2,3,4\n')
    for reader in (dataio._numpy_panel, dataio._exact_panel):
        tickers, times, cells = reader(path)
        assert (tickers, times, cells.tolist()) == (["A,1", "B"], ["d1", "d2"],
                                                    [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("text, col", [("date,A,B\nd1,1,2\ndate,A,B\nd2,3,4\n", 2),
                                       ("A,B\n1,2\nA,B\n3,4\n", 1)])
def test_a_header_below_the_first_line_is_a_data_row(tmp_path, text, col):
    # as two CSV exports pasted one below the other
    path = write(tmp_path / "p.csv", text)
    for load in (dataio.load_price_panel, dataio._exact_panel):
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: non-numeric cell at row 3, col {col}: 'A'"


@pytest.mark.parametrize("where", ["header", "date", "cell"])
def test_a_panel_that_is_not_utf8_is_a_parse_error(tmp_path, where):
    # as Excel's plain CSV export writes it on Windows
    rows = [["date", "A", "B"], ["d1", "1", "2"], ["d2", "3", "4"]]
    row, col = {"header": (0, 1), "date": (2, 0), "cell": (1, 2)}[where]
    rows[row][col] += "\u00e9"
    data = "".join(",".join(r) + "\n" for r in rows).encode("cp1252")
    with pytest.raises(UnicodeDecodeError) as decode:
        data.decode("utf-8")
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    for load in (dataio.load_price_panel, dataio._exact_panel):
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: not UTF-8 text ({decode.value.reason})"


@pytest.mark.parametrize("row", [1, 2, 3])
def test_a_cell_over_the_csv_field_limit_names_its_row(tmp_path, row):
    limit = csv.field_size_limit()
    rows = [["date", "A", "B"], ["d1", "1", "2"], ["d2", "3", "4"]]
    rows[row - 1][-1] = "1" + "0" * limit
    # blank lines are not rows
    path = write(tmp_path / "p.csv", "\n".join(",".join(r) + "\n" for r in rows))
    for load in (dataio.load_price_panel, dataio._exact_panel):
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: row {row}: field larger than field limit ({limit})"


def test_empty_and_headeronly_files(tmp_path):
    with pytest.raises(ParseError):
        dataio.load_price_panel(write(tmp_path / "e.csv", ""))
    with pytest.raises(ParseError):
        dataio.load_price_panel(write(tmp_path / "h.csv", "AAA,BBB\n"))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    panel = make_panel(rng.normal(size=(3, 7)))
    path = tmp_path / "panel.csv"
    dataio.save_panel_csv(panel, str(path))
    back = dataio.load_price_panel(str(path), kind="returns")
    assert back.tickers == panel.tickers
    assert np.array_equal(back.returns, panel.returns)  # %.17g is lossless
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, -0.0, 1 / 3]
    panel = make_panel([extremes, extremes[::-1]])
    dataio.save_panel_csv(panel, str(path))
    back = dataio.load_price_panel(str(path), kind="returns")
    assert back.returns.tobytes() == panel.returns.tobytes()  # -0.0 keeps its sign


def test_a_file_descriptor_is_not_a_path():
    read_end, write_end = os.pipe()
    panel = make_panel(np.eye(2, 3))
    with open(read_end, "rb") as reader:
        with open(write_end, "wb"), pytest.raises(InvalidParameter) as info:
            dataio.save_panel_csv(panel, write_end)  # would write to the pipe and close it
        with pytest.raises(InvalidParameter) as again:  # the pipe has no writer left: no wait
            dataio.load_price_panel(read_end)
        assert reader.read() == b""  # nothing was written, and the read end is still open
    assert str(info.value) == str(again.value) == "path must be of type str or PathLike, got int"


@pytest.mark.parametrize("window, message", [
    ((0, 1.5), "window bounds must be integers, got (0, 1.5)"),
    ((3,), "window must be two integers (lo, hi), got (3,)"),
    ((5, 5), "window (5, 5) outside panel range"),
    ((-1, 5), "window (-1, 5) outside panel range"),
])
def test_a_covariance_window_is_two_integers_lo_below_hi(window, message):
    with pytest.raises(InvalidParameter) as info:
        CovarianceMatrix(("A", "B"), np.eye(2), window)
    assert str(info.value) == message
    cov = CovarianceMatrix(("A", "B"), np.eye(2), np.array([3, 10]))
    assert cov.window == (3, 10) and type(cov.window[0]) is int and cov.window_len == 7


def test_standardized_rows_across_row_blocks(monkeypatch):
    # three rows per row block, and a constant row on each side of the first boundary
    monkeypatch.setattr(dataio, "_ROW_CELLS", 3 * 40)
    block = np.random.default_rng(8).normal(size=(8, 40)) * np.arange(1.0, 9.0)[:, None]
    block[2:4] = 4.2
    z, bad = dataio.standardized_rows(block)
    assert bad.tolist() == [False, False, True, True, False, False, False, False]
    for row, z_row, flat_row in zip(block, z, bad):
        centered, sd, flat = dataio.centered_rows(row[None])
        assert flat_row == flat[0]
        assert z_row.tobytes() == (centered[0] / (1.0 if flat[0] else sd[0, 0])).tobytes()


def test_load_peak_memory_per_cell(tmp_path):
    # The loader keeps parsed floats, not every cell's text.
    n_series, n_steps = 50, 2000
    path = str(tmp_path / "wide.csv")
    dataio.save_panel_csv(make_panel(np.random.default_rng(2).normal(size=(n_series, n_steps))),
                          path)
    peak = traced_peak(lambda: dataio.load_price_panel(path, kind="returns"))
    assert peak / (n_series * n_steps) <= 64


def _outcome(path, kind="returns"):
    """The loaded panel's labels and cell bytes, or the error's type, message and position."""
    try:
        panel = dataio.load_price_panel(path, kind=kind)
    except CorrstatError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return panel.tickers, panel.times, panel.returns.tobytes()


def _takes_numpy_path(path):
    try:
        dataio._numpy_panel(path)
    except (ValueError, csv.Error):
        return False
    return True


# (text, whether np.loadtxt reads the body): every case must load, or fail,
# exactly as the record-by-record reader does.
LOADER_GOLDEN = {
    "bom": ("\ufeffdate,A,B\nd1,1,2\nd2,3,4\n", True),
    "blank lines": ("\nA,B\n\n1,2\n\r\n\r3,4\n\n", True),
    "crlf": ("date,A,B\r\nd1,1,2\r\nd2,3,4\r\n", True),
    "cr": ("A,B\r1,2\r3,4", True),
    "padded cells": ("date,A,B\n d1 , 1.5 ,\t2\x0b\n\x0cd2,+.5e-3,-0\n", True),
    "one price row": ("date,A\nd1,2\n", True),
    "whitespace-only line": ("A,B\n1,2\n  \n3,4\n", False),
    "whitespace-only line, one column": ("A\n1\n \t\n3\n", False),
    "quoted cells": ('A,B\n"1",2\n3,"4"\n', False),
    "quoted date": ('date,A\n"2020-01-01",1\nd2,2\n', False),
    "quoted comma": ('date,A\n"d,1",1\nd2,2\n', False),
    "short row with dates": ("date,A,B\nd1,1,2\nd2,3\n", False),
    "long row with dates": ("date,A,B\nd1,1,2,5\nd2,3,4\n", False),
    "short row": ("A,B\n1,2\n3\n", False),
    "long row": ("A,B\n1,2\n3,4,5\n", False),
    "empty cell after the date": ("date,A\nd1,1\nd2,\n", False),
    "empty cell": ("A,B\n1,\n", False),
    "nan": ("A,B\n1,nan\n2,3\n", False),
    "inf with dates": ("date,A,B\nd1,1,2\nd2,-inf,3\n", False),
    "overflow": ("A\n1e400\n", False),
    "underscore": ("A,B\n1_0,2\n3,4\n", False),
    "full-width digit": ("A,B\n\uff11,2\n3,4\n", False),
    "arabic-indic digits": ("A\n\u0661\u0662\n", False),
    "information separator": ("A,B\n1\x1c,2\n3,4\n", False),
    "non-numeric": ("date,A\nd1,1\nd2,x\n", False),
    "no data rows": ("A,B\n\n\n", False),
}


@pytest.mark.parametrize("name", sorted(LOADER_GOLDEN))
def test_numpy_path_matches_the_exact_reader(name, tmp_path, monkeypatch):
    text, numpy_path = LOADER_GOLDEN[name]
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _takes_numpy_path(path) == numpy_path
    got = {kind: _outcome(path, kind) for kind in ("returns", "log")}

    def refuse(path):
        raise ValueError("the exact reader only")

    monkeypatch.setattr(dataio, "_numpy_panel", refuse)
    assert got == {kind: _outcome(path, kind) for kind in ("returns", "log")}


@pytest.mark.parametrize("dates", [True, False])
def test_a_clean_panel_takes_the_numpy_path(tmp_path, monkeypatch, dates):
    def refuse(path):
        raise AssertionError("the exact reader ran")

    monkeypatch.setattr(dataio, "_exact_panel", refuse)
    panel = make_panel(np.random.default_rng(7).normal(size=(50, 300)))
    path = tmp_path / "p.csv"
    if dates:
        dataio.save_panel_csv(panel, path)
    else:
        np.savetxt(path, panel.returns.T, fmt="%.17g", delimiter=",",
                   header=",".join(panel.tickers), comments="")
    back = dataio.load_price_panel(path, kind="returns")
    times = panel.times if dates else tuple(str(row) for row in range(1, 301))  # row less one
    assert back.tickers == panel.tickers and back.times == times
    assert back.returns.tobytes() == panel.returns.tobytes()


CELL_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from("0123456789.eE+-_ \t\x0b\x0c\x1c\x1d\x1e\x1f\x00xnaifNIF,\""
                                     "\xa0\u2028\u3000\uff11\u0661"), max_size=12),
    st.builds("{}{!r}{}".format, st.sampled_from(["", " ", "+", "0", "\x1f", "_"]),
              st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["", " ", "\t", "0", "\x1c", "_", "e1"])),
    st.text(st.characters(exclude_characters="\r\n"), max_size=6),
)


@given(CELL_TEXT)
def test_a_cell_the_numpy_path_reads_is_float_of_its_text(cell):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(f"A\n{cell}\n".encode("utf-8", "surrogatepass"))
        try:
            _, times, cells = dataio._numpy_panel(path)
        except (ValueError, csv.Error):
            return
    assert times == ["1"] and cells.shape == (1, 1)
    assert cells.tobytes() == np.float64(float(cell)).tobytes()


def test_log_returns(tmp_path):
    path = write(tmp_path / "p.csv", "date,A\n0,1.0\n1,2.0\n2,4.0\n")
    rets = dataio.load_price_panel(path)
    assert np.allclose(rets.returns, np.log(2.0))
    assert rets.times == ("1", "2")


def test_simple_returns(tmp_path):
    path = write(tmp_path / "p.csv", "date,A\n0,1.0\n1,2.0\n2,1.0\n")
    rets = dataio.load_price_panel(path, kind="simple")
    assert np.allclose(rets.returns, [[1.0, -0.5]])


def test_one_price_row_forms_no_returns(tmp_path):
    path = write(tmp_path / "p.csv", "date,A\n0,1.0\n")
    for kind in ("log", "simple"):
        with pytest.raises(InsufficientData, match="need at least 2 price rows"):
            dataio.load_price_panel(path, kind=kind)
    assert dataio.load_price_panel(path, kind="returns").times == ("0",)


def test_log_returns_reject_nonpositive(tmp_path):
    path = write(tmp_path / "p.csv", "date,A\n0,1.0\n1,0.0\n")
    with pytest.raises(DomainError):
        dataio.load_price_panel(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_return_panel_rejects_non_finite(bad):
    returns = np.zeros((4, 300))
    returns[2, 17] = bad
    with pytest.raises(DomainError) as err:
        make_panel(returns)
    assert str(err.value) == f"non-finite return {bad!r} for 'S2' at column 17"
    # labels that do not fit are named first, so no ticker is looked up out of range
    with pytest.raises(InvalidParameter, match="^panel labels do not match matrix shape$"):
        make_panel(returns, tickers=("S0", "S1"))


@pytest.mark.skipif(np.finfo(np.longdouble).max == np.finfo(np.float64).max,
                    reason="longdouble is float64 on this platform")
def test_a_longdouble_beyond_float64_is_refused_without_a_warning():
    beyond = np.array([[1.0, np.longdouble("1e400")]])
    with pytest.raises(DomainError, match=r"^x has non-finite entry inf at \(0, 1\)$"):
        checked_array("x", beyond)
    with pytest.raises(DomainError, match=r"^non-finite return inf for 'A' at column 1$"):
        dataio.ReturnPanel(("A",), ("0", "1"), beyond)


def test_simple_return_overflow_rejected(tmp_path):
    path = write(tmp_path / "p.csv", "date,A,B\n0,1.0,1.0\n1,2.0,1e-300\n2,3.0,1e300\n")
    with pytest.raises(DomainError, match="non-finite return inf for 'B' at column 1"):
        dataio.load_price_panel(path, kind="simple")


def test_returns_kind_validated(tmp_path):
    path = write(tmp_path / "p.csv", "date,A\n0,1.0\n1,2.0\n")
    with pytest.raises(InvalidParameter):
        dataio.load_price_panel(path, kind="arith")


def test_standardize_population_convention():
    panel = make_panel([[1.0, 2.0, 3.0, 4.0]])
    std = dataio.standardize(panel)
    assert abs(std.returns.mean()) < 1e-15
    assert abs((std.returns ** 2).mean() - 1.0) < 1e-12  # divide by T, not T-1


@pytest.mark.parametrize("power", [600, 1000])
def test_a_row_times_a_power_of_two_is_standardized_exactly(power):
    # the row's squares overflow from |x| ~ 1.3e154; its sd is still exact
    panel = gaussian_panel(4, 300, seed=5)
    returns = panel.returns.copy()
    returns[1] *= 2.0 ** power
    scaled = make_panel(returns, panel.tickers)
    assert np.array_equal(dataio.standardize(scaled).returns, dataio.standardize(panel).returns)
    assert (stationarity.global_scan(scaled, (25, 50), reshuffle_seed=1, mc_family="gaussian")
            == stationarity.global_scan(panel, (25, 50), reshuffle_seed=1, mc_family="gaussian"))
    configs = [stationarity.LocalTestConfig(30, 10)]
    assert stationarity.local_scan(scaled, configs) == stationarity.local_scan(panel, configs)
    assert (spectral.spectral_snapshot(corrdist.corr_matrix(scaled, (100, 200)), 1)
            == spectral.spectral_snapshot(corrdist.corr_matrix(panel, (100, 200)), 1))


@pytest.mark.filterwarnings("error")
def test_a_row_whose_sum_overflows_is_centred_exactly():
    # the row's mean overflows in the sum; at a power-of-two scale it does not
    returns = np.abs(np.random.default_rng(3).normal(0.0, 0.01, size=(3, 300)))
    returns[1] *= 1e308
    assert not dataio.centered_rows(returns)[2].any()
    shrunk = returns.copy()
    shrunk[1] *= 2.0 ** -1000
    big, small = make_panel(returns), make_panel(shrunk)
    assert np.array_equal(dataio.standardize(big).returns, dataio.standardize(small).returns)
    assert (stationarity.global_scan(big, (25, 50), reshuffle_seed=1)
            == stationarity.global_scan(small, (25, 50), reshuffle_seed=1))


def test_standardize_zero_variance():
    panel = make_panel([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], tickers=("FLAT", "OK"))
    with pytest.raises(ZeroVariance) as err:
        dataio.standardize(panel)
    assert "FLAT" in str(err.value)


@pytest.mark.parametrize("window, message", [
    ((5,), "window must be two integers (lo, hi), got (5,)"),
    (5, "window must be two integers (lo, hi), got 5"),
    ((0, 50, 9), "window must be two integers (lo, hi), got (0, 50, 9)"),
    ("ab", "window bounds must be integers, got ('a', 'b')"),
])
@pytest.mark.parametrize("entry", [corrdist.corr_matrix, portfolio.covariance_matrix])
def test_a_window_is_exactly_two_integers(entry, window, message):
    panel = make_panel(np.random.default_rng(0).normal(size=(3, 100)))
    with pytest.raises(InvalidParameter) as info:
        entry(panel, window)
    assert str(info.value) == message


def test_window_slices_counts():
    windows = dataio.window_slices(1758, 25)
    assert len(windows) == 70
    assert windows[0] == (0, 25)
    assert windows[-1] == (1725, 1750)  # trailing 8 days discarded
    assert len(dataio.window_slices(1758, 50)) == 35
    assert len(dataio.window_slices(1758, 100)) == 17


def test_window_slices_errors():
    with pytest.raises(InvalidParameter):
        dataio.window_slices(100, 9)  # below the minimum window length
    with pytest.raises(InsufficientData):
        dataio.window_slices(30, 50)
    for window_len in (25.5, 25.0):
        with pytest.raises(InvalidParameter, match="integer"):
            dataio.window_slices(300, window_len)
    assert dataio.window_slices(300, np.int64(100)) == ((0, 100), (100, 200), (200, 300))


def test_reshuffle_is_synchronous_and_seeded():
    rng = np.random.default_rng(3)
    panel = make_panel(rng.normal(size=(3, 40)))
    shuffled = dataio.synchronous_reshuffle(panel, seed=9)
    again = dataio.synchronous_reshuffle(panel, seed=9)
    other = dataio.synchronous_reshuffle(panel, seed=10)
    assert np.array_equal(shuffled.returns, again.returns)
    assert not np.array_equal(shuffled.returns, other.returns)
    # one permutation applied to every row: column multisets survive intact
    order = np.argsort(shuffled.returns[0])
    base = np.argsort(panel.returns[0])
    assert np.array_equal(shuffled.returns[:, order], panel.returns[:, base])


def test_select_preserves_order():
    panel = make_panel(np.arange(12.0).reshape(3, 4), tickers=("A", "B", "C"))
    sub = panel.select([2, 0])
    assert sub.tickers == ("C", "A")
    assert np.array_equal(sub.returns, panel.returns[[2, 0]])


def test_panels_are_immutable(small_panel):
    with pytest.raises(ValueError):
        small_panel.returns[0, 0] = 99.0


def test_freezing_leaves_the_callers_array_writeable():
    a = np.zeros((2, 3))
    panel = dataio.ReturnPanel(("A", "B"), ("0", "1", "2"), a)
    c = np.eye(2)
    cov = CovarianceMatrix(("A", "B"), c)
    for mine, field in ((a, panel.returns), (c, cov.entries)):
        assert mine.flags.writeable
        assert not field.flags.writeable
        assert not np.shares_memory(mine, field)  # frozen as a copy
        with pytest.raises(ValueError):
            field[0, 0] = 1.0
        mine[0, 0] = 7.0
        assert field[0, 0] != 7.0


@given(st.integers(10, 60), st.integers(10, 25))
def test_window_slices_partition(t_total, window_len):
    if window_len > t_total:
        with pytest.raises(InsufficientData):
            dataio.window_slices(t_total, window_len)
        return
    windows = dataio.window_slices(t_total, window_len)
    assert len(windows) == t_total // window_len
    for k, (lo, hi) in enumerate(windows):
        assert hi - lo == window_len
        assert lo == k * window_len


@given(st.integers(0, 2 ** 31 - 1))
def test_reshuffle_preserves_values(seed):
    rng = np.random.default_rng(17)
    panel = make_panel(rng.normal(size=(2, 15)))
    shuffled = dataio.synchronous_reshuffle(panel, seed=seed)
    assert sorted(shuffled.returns[0]) == sorted(panel.returns[0])
    assert sorted(shuffled.times) == sorted(panel.times)

