"""One collection rule for every argument that holds items, and one rule for labels.

errors.checked_items returns a collection's items as a tuple; a value that
is not iterable or, given a count, does not hold exactly that many items
raises InvalidParameter naming the argument, and an endless iterator is
refused after count + 1 items.  The panel, covariance and weight types
store their tickers (and a panel its time labels) as tuples of str, each
ticker once, so a panel the library builds is one its loader reads back.
"""
import itertools
import math

import numpy as np
import pytest

from conftest import gaussian_panel, make_panel
from corrstat import dataio, portfolio, stationarity
from corrstat.errors import DuplicateTicker, InvalidParameter, checked_items

PANEL = make_panel(np.random.default_rng(3).normal(size=(3, 40)), tickers=("A", "B", "C"))


def test_the_collection_rule():
    assert checked_items("x", [1, 2]) == (1, 2)
    assert checked_items("x", (i for i in range(3)), 3, "three") == (0, 1, 2)
    assert checked_items("x", "ab", 2, "two letters") == ("a", "b")  # a string's characters
    assert checked_items("x", {}) == ()


@pytest.mark.parametrize("value, count, message", [
    ((1, 2, 3), 2, "x must be two items, got (1, 2, 3)"),
    ([1], 2, "x must be two items, got [1]"),
    (5, 2, "x must be two items, got 5"),
    (None, None, "x must be a collection, got None"),
    (np.array(1.0), None, "x must be a collection, got array(1.)"),
])
def test_the_collection_rule_names_what_it_refuses(value, count, message):
    with pytest.raises(InvalidParameter) as info:
        checked_items("x", value, *(() if count is None else (count, "two items")))
    assert str(info.value) == message


def test_the_collection_rule_reads_at_most_one_item_past_its_count():
    endless = itertools.count()
    with pytest.raises(InvalidParameter, match=r"^x must be two items, got count\(3\)$"):
        checked_items("x", endless, 2, "two items")
    assert next(endless) == 3  # three items read, no more


def test_a_pair_given_as_an_iterator_is_read():
    panel = gaussian_panel(3, 200, seed=4)
    assert (stationarity.global_test(panel, iter((0, 2)), 20)
            == stationarity.global_test(panel, (0, 2), 20))
    assert (stationarity.cumulative_corr(panel, iter([2, 1]), 20, 10)
            == stationarity.cumulative_corr(panel, (2, 1), 20, 10))


def test_labels_are_stored_as_tuples_of_str():
    panel = dataio.ReturnPanel(["A", "B"], iter(["d0", "d1", "d2"]), np.eye(2, 3))
    assert (panel.tickers, panel.times) == (("A", "B"), ("d0", "d1", "d2"))
    cov = dataio.CovarianceMatrix(["A", "B"], np.eye(2))
    weights = portfolio.WeightVector(iter(["A", "B"]), [0.5, 0.5])
    assert cov.tickers == weights.tickers == ("A", "B")
    for call, message in [
        (lambda: dataio.ReturnPanel(None, ("0",), np.zeros((1, 1))),
         "tickers must be a collection, got None"),
        (lambda: dataio.ReturnPanel(("A",), 3, np.zeros((1, 1))),
         "times must be a collection, got 3"),
        (lambda: dataio.CovarianceMatrix(("A", b"B"), np.eye(2)),
         "ticker b'B' must be of type str, got bytes"),
        (lambda: portfolio.WeightVector(("A", None), [0.5, 0.5]),
         "ticker None must be of type str, got NoneType"),
    ]:
        with pytest.raises(InvalidParameter) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("build", [
    lambda: dataio.ReturnPanel(("A", "B", "A"), ("0",), np.zeros((3, 1))),
    lambda: dataio.CovarianceMatrix(("A", "B", "A"), np.eye(3)),
    lambda: portfolio.WeightVector(("A", "B", "A"), [0.25, 0.25, 0.5]),
    lambda: PANEL.select([0, 0, 1]),
], ids=["panel", "covariance", "weights", "select"])
def test_a_repeated_ticker_is_named(build):
    with pytest.raises(DuplicateTicker, match=r"^duplicate ticker 'A'$"):
        build()


@pytest.mark.parametrize("indices, message", [
    ([3], "index must lie in [0, 3), got 3"),
    ([0, -1], "index must be a non-negative integer, got -1"),
    ([1.0], "index must be a non-negative integer, got 1.0"),
    (["0"], "index must be a non-negative integer, got '0'"),
    (1, "indices must be a collection, got 1"),
])
def test_select_takes_only_indices_in_range(indices, message):
    with pytest.raises(InvalidParameter) as info:
        PANEL.select(indices)
    assert str(info.value) == message


def test_a_selected_panel_reads_back_from_csv(tmp_path):
    sub = PANEL.select(np.array([2, 0]))
    assert sub.tickers == ("C", "A")
    assert np.array_equal(sub.returns, PANEL.returns[[2, 0]])
    assert PANEL.select((True, False)).tickers == ("B", "A")  # booleans are the integers 1 and 0
    dataio.save_panel_csv(sub, tmp_path / "sub.csv")
    back = dataio.load_price_panel(tmp_path / "sub.csv", kind="returns")
    assert (back.tickers, back.times) == (sub.tickers, sub.times)
    assert np.array_equal(back.returns, sub.returns)


def test_flag_band_violations_takes_any_collection_of_experiments():
    samples = portfolio.q_series(gaussian_panel(5, 100, seed=23), 10, 10)
    band = portfolio.MCBand(1.0, 0.01)
    assert (portfolio.flag_band_violations(iter(samples), band)
            == portfolio.flag_band_violations(samples, band)
            == [s.q > 1.05 for s in samples])
    with pytest.raises(InvalidParameter, match=r"^experiments must be a collection, got None$"):
        portfolio.flag_band_violations(None, band)
    nan = samples[0]._replace(q=math.nan)
    with pytest.raises(InvalidParameter) as info:
        portfolio.flag_band_violations([*samples, nan], band)
    assert str(info.value) == f"q of sample {nan.sample} must be a finite number, got nan"
