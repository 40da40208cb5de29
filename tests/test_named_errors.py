"""Named errors that no other test reaches, each checked by type and message."""
import numpy as np
import pytest

from corrstat import dataio, portfolio, spectral, stationarity
from corrstat.errors import DomainError, InsufficientData, InvalidParameter

from conftest import make_panel

SQUARE = dataio.CovarianceMatrix(("A", "B"), np.eye(2))


def _zero_price_panel(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("A,B\n1.0,2.0\n0.0,2.5\n1.5,3.0\n", encoding="utf-8")
    return dataio.load_price_panel(path, "simple")


# (the call, given pytest's tmp_path; the error type; its message)
NAMED = [
    (lambda _: stationarity.LocalTestConfig(100, 40, ()),
     InvalidParameter, "n_values must not be empty"),
    (lambda _: stationarity.local_test([(10, 0.1)], 1),
     InsufficientData, "local test needs >= 2 estimates"),
    (lambda _: stationarity.local_test([(10, 0.1), (20, 0.2), (30, 0.3)], 1, "bogus"),
     InvalidParameter, "unknown sigma convention 'bogus'"),
    (lambda _: dataio.CovarianceMatrix(("A",), np.eye(2)),
     InvalidParameter, "entries must be N x N matching tickers"),
    (lambda _: portfolio.WeightVector(("A", "B"), [1.0]),
     InvalidParameter, "weights must be one per ticker"),
    (lambda _: portfolio.portfolio_variance(
        SQUARE, portfolio.WeightVector(("A", "B", "C"), [0.25, 0.25, 0.5])),
     InvalidParameter, "weights and covariance dimensions differ"),
    (lambda _: spectral.EigenSystem([1.0, 2.0], np.eye(3)),
     InvalidParameter, "eigenvector matrix must be N x N"),
    (lambda _: spectral.pca_decompose(
        make_panel(np.random.default_rng(0).standard_normal((5, 20))),
        spectral.EigenSystem([1.0, 2.0], np.eye(2))),
     InvalidParameter, "panel and eigensystem dimensions differ"),
    (_zero_price_panel, DomainError, "simple returns undefined at a zero price"),
]


@pytest.mark.parametrize("call, error, message", NAMED, ids=[m for _, _, m in NAMED])
def test_each_error_is_named(call, error, message, tmp_path):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error and str(info.value) == message
