import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import dataio
from corrstat.errors import (
    DomainError,
    DuplicateTicker,
    InsufficientData,
    InvalidParameter,
    ParseError,
    ZeroVariance,
)

from conftest import make_panel


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
    panel = dataio.load_price_panel(path)
    assert panel.n_series == 3
    assert panel.prices.shape == (3, 5)
    assert panel.tickers == ("AAA", "BBB", "CCC")
    assert panel.times[0] == "2020-01-01"
    assert panel.prices[1, 2] == 2.2


def test_load_price_panel_without_dates(tmp_path):
    path = write(tmp_path / "p.csv", "AAA,BBB\n1,2\n3,4\n")
    panel = dataio.load_price_panel(path)
    assert panel.prices.shape == (2, 2)
    assert panel.times == ("1", "2")


def test_load_returns_format(tmp_path):
    path = write(tmp_path / "r.csv", "AAA,BBB\n0.1,-0.2\n0.0,0.3\n")
    panel = dataio.load_price_panel(path, format="returns")
    assert isinstance(panel, dataio.ReturnPanel)
    assert panel.returns.shape == (2, 2)


def test_parse_error_cites_position(tmp_path):
    path = write(tmp_path / "bad.csv", "date,AAA\n2020-01-01,1.0\n2020-01-02,oops\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path)
    assert err.value.row == 3
    assert err.value.col == 2
    assert "oops" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_non_finite_cell_cites_position(tmp_path, cell):
    path = write(tmp_path / "bad.csv",
                 f"date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.1,{cell}\n")
    for fmt in ("prices", "returns"):
        with pytest.raises(ParseError) as err:
            dataio.load_price_panel(path, format=fmt)
        assert (err.value.row, err.value.col) == (3, 3)
        assert "non-finite" in str(err.value) and repr(cell) in str(err.value)
    path = write(tmp_path / "nodates.csv", f"AAA,BBB\n{cell},2.0\n1.0,nan\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path, format="returns")
    assert (err.value.row, err.value.col) == (2, 1)  # the first in file order


def test_cells_parse_as_float(tmp_path):
    cells = [" 1.5 ", "1_000", "+.5e-3"]
    path = write(tmp_path / "p.csv", "A,B,C\n" + ",".join(cells) + "\n0,0,0\n")
    panel = dataio.load_price_panel(path, format="returns")
    assert panel.returns[:, 0].tolist() == [float(c) for c in cells]
    path = write(tmp_path / "inf.csv", "A,B\n1,-iNF\n2,3\n")
    with pytest.raises(ParseError, match="non-finite cell at row 2, col 2: '-iNF'"):
        dataio.load_price_panel(path, format="returns")


def test_first_bad_row_in_file_order(tmp_path):
    path = write(tmp_path / "a.csv", "A,B\n1,2\n1,x\n3\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path)
    assert (err.value.row, err.value.col) == (3, 2)
    path = write(tmp_path / "b.csv", "A,B\n1,2\n3\n1,x\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path)
    assert (err.value.row, err.value.col) == (3, None)


def test_parse_error_ragged_row(tmp_path):
    path = write(tmp_path / "bad.csv", "AAA,BBB\n1.0\n")
    with pytest.raises(ParseError) as err:
        dataio.load_price_panel(path)
    assert err.value.row == 2


def test_duplicate_ticker(tmp_path):
    path = write(tmp_path / "dup.csv", "AAA,AAA\n1,2\n")
    with pytest.raises(DuplicateTicker):
        dataio.load_price_panel(path)


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
    back = dataio.load_price_panel(str(path), format="returns")
    assert back.tickers == panel.tickers
    assert np.array_equal(back.returns, panel.returns)  # %.17g is lossless


def test_log_returns():
    prices = dataio.PricePanel(("A",), ("0", "1", "2"), np.array([[1.0, 2.0, 4.0]]))
    rets = dataio.to_returns(prices)
    assert np.allclose(rets.returns, np.log(2.0))
    assert rets.times == ("1", "2")


def test_simple_returns():
    prices = dataio.PricePanel(("A",), ("0", "1", "2"), np.array([[1.0, 2.0, 1.0]]))
    rets = dataio.to_returns(prices, kind="simple")
    assert np.allclose(rets.returns, [[1.0, -0.5]])


def test_log_returns_reject_nonpositive():
    prices = dataio.PricePanel(("A",), ("0", "1"), np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError):
        dataio.to_returns(prices)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_return_panel_rejects_non_finite(bad):
    returns = np.zeros((4, 300))
    returns[2, 17] = bad
    with pytest.raises(DomainError) as err:
        make_panel(returns)
    assert str(err.value) == f"non-finite return {bad!r} for 'S2' at column 17"


def test_simple_return_overflow_rejected():
    prices = dataio.PricePanel(("A", "B"), ("0", "1", "2"),
                               np.array([[1.0, 2.0, 3.0], [1.0, 1e-300, 1e300]]))
    with pytest.raises(DomainError, match="non-finite return inf for 'B' at column 1"):
        dataio.to_returns(prices, kind="simple")


def test_returns_kind_validated():
    prices = dataio.PricePanel(("A",), ("0", "1"), np.array([[1.0, 2.0]]))
    with pytest.raises(InvalidParameter):
        dataio.to_returns(prices, kind="arith")


def test_standardize_population_convention():
    panel = make_panel([[1.0, 2.0, 3.0, 4.0]])
    std = dataio.standardize(panel)
    assert abs(std.returns.mean()) < 1e-15
    assert abs((std.returns ** 2).mean() - 1.0) < 1e-12  # divide by T, not T-1
    assert std.standardized and std.scope == "global"


def test_standardize_per_window_leaves_remainder():
    rng = np.random.default_rng(2)
    panel = make_panel(rng.normal(size=(2, 25)))
    std = dataio.standardize(panel, scope="per-window", window_len=10)
    for lo in (0, 10):
        block = std.returns[:, lo:lo + 10]
        assert np.abs(block.mean(axis=1)).max() < 1e-14
        assert np.abs(block.std(axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(std.returns[:, 20:], panel.returns[:, 20:])
    assert std.scope == "per-window:10"


def test_standardize_zero_variance():
    panel = make_panel([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], tickers=("FLAT", "OK"))
    with pytest.raises(ZeroVariance) as err:
        dataio.standardize(panel)
    assert "FLAT" in str(err.value)


def test_window_slices_counts():
    plan = dataio.window_slices(1758, 25)
    assert plan.n_windows == 70
    assert plan.windows[0] == (0, 25)
    assert plan.windows[-1] == (1725, 1750)  # trailing 8 days discarded
    assert dataio.window_slices(1758, 50).n_windows == 35
    assert dataio.window_slices(1758, 100).n_windows == 17


def test_window_slices_errors():
    with pytest.raises(InvalidParameter):
        dataio.window_slices(100, 9)  # below the minimum window length
    with pytest.raises(InsufficientData):
        dataio.window_slices(30, 50)


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


@given(st.integers(10, 60), st.integers(10, 25))
def test_window_slices_partition(t_total, window_len):
    if window_len > t_total:
        with pytest.raises(InsufficientData):
            dataio.window_slices(t_total, window_len)
        return
    plan = dataio.window_slices(t_total, window_len)
    assert plan.n_windows == t_total // window_len
    for k, (lo, hi) in enumerate(plan.windows):
        assert hi - lo == window_len
        assert lo == k * window_len


@given(st.integers(0, 2 ** 31 - 1))
def test_reshuffle_preserves_values(seed):
    rng = np.random.default_rng(17)
    panel = make_panel(rng.normal(size=(2, 15)))
    shuffled = dataio.synchronous_reshuffle(panel, seed=seed)
    assert sorted(shuffled.returns[0]) == sorted(panel.returns[0])
    assert sorted(shuffled.times) == sorted(panel.times)
