"""Named errors that no other test reaches, each checked by type and message."""
import numpy as np
import pytest

from corrstat import corrdist, dataio, portfolio, spectral, stationarity, synthgen
from corrstat.errors import DomainError, InsufficientData, InvalidParameter

from conftest import gaussian_panel, make_panel

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


PANEL = gaussian_panel(5, 100, seed=22)
SNAPSHOT = spectral.spectral_snapshot(corrdist.corr_matrix(PANEL))
EIG = spectral.eig_sym(np.eye(5))
BAND = portfolio.MCBand(1.0, 0.1)
SAMPLE = portfolio.QExperiment(3, (0, 10), (10, 20), 1.0, 9.0, "9")

# (the call, given pytest's tmp_path; its message); each argument of a toolkit
# type, and each path, is refused by errors.checked_type before any of its
# attributes is read or any file opened, and each item of a collection (a
# sample, a q, an index, a label, a window bound) by its own rule
WRONG_TYPE = {
    "q_series-panel": (lambda _: portfolio.q_series(PANEL.returns, 10, 10),
                       "panel must be of type ReturnPanel, got ndarray"),
    "q_series-chained": (lambda _: portfolio.q_series(PANEL, 10, 10, chained="independent"),
                         "chained must be of type bool, got str"),
    "covariance_matrix": (lambda _: portfolio.covariance_matrix(PANEL.returns),
                          "panel must be of type ReturnPanel, got ndarray"),
    "select_stocks": (lambda _: portfolio.select_stocks(PANEL.returns, 2, 1),
                      "panel must be of type ReturnPanel, got ndarray"),
    "min_variance_weights": (lambda _: portfolio.min_variance_weights(np.eye(3)),
                             "cov must be of type CovarianceMatrix, got ndarray"),
    "mc_band": (lambda _: portfolio.mc_band(5, 10, 10, 30, np.eye(5), 1),
                "truth must be of type TrueCorrelation, got ndarray"),
    "global_scan": (lambda _: stationarity.global_scan(PANEL.returns, [20]),
                    "panel must be of type ReturnPanel, got ndarray"),
    "local_scan": (lambda _: stationarity.local_scan(None, [stationarity.LocalTestConfig(20, 10)]),
                   "panel must be of type ReturnPanel, got NoneType"),
    "global_scan-dataset": (lambda _: stationarity.global_scan(PANEL, [20], dataset=True),
                            "dataset must be of type str, got bool"),
    "local_scan-dataset": (
        lambda _: stationarity.local_scan(PANEL, [stationarity.LocalTestConfig(20, 10)],
                                          dataset=None),
        "dataset must be of type str, got NoneType"),
    "global_test": (lambda _: stationarity.global_test(PANEL.returns, (0, 1), 20),
                    "panel must be of type ReturnPanel, got ndarray"),
    "cumulative_corr": (lambda _: stationarity.cumulative_corr((PANEL,), (0, 1), 20, 10),
                        "panel must be of type ReturnPanel, got tuple"),
    "ks_statistic": (lambda _: stationarity.ks_statistic(np.linspace(0, 1, 8), (0.5,)),
                     "cdf must be of type Callable, got tuple"),
    "corr_matrix": (lambda _: corrdist.corr_matrix(PANEL.returns),
                    "panel must be of type ReturnPanel, got ndarray"),
    "rho_logdensity": (lambda _: corrdist.rho_logdensity(0.1, (0.2, 30)),
                       "params must be of type CorrParams, got tuple"),
    "rho_density": (lambda _: corrdist.rho_density(0.1, None),
                    "params must be of type CorrParams, got NoneType"),
    "rho_cdf": (lambda _: corrdist.rho_cdf(0.1, (0.2, 30)),
                "params must be of type CorrParams, got tuple"),
    "rho_moments": (lambda _: corrdist.rho_moments((0.2, 30)),
                    "params must be of type CorrParams, got tuple"),
    "gaussian_approx_density": (lambda _: corrdist.gaussian_approx_density(0.1, None),
                                "params must be of type CorrParams, got NoneType"),
    "spectral_delta": (lambda _: spectral.spectral_delta(SNAPSHOT, (1.0, 2.0)),
                       "second must be of type SpectralSnapshot, got tuple"),
    "co_occurrence_flag": (lambda _: spectral.co_occurrence_flag((0.1, -0.1, -0.1)),
                           "delta must be of type SpectralDelta, got tuple"),
    "pca_decompose": (lambda _: spectral.pca_decompose(PANEL.returns, EIG),
                      "panel must be of type ReturnPanel, got ndarray"),
    "market_mode_residual": (lambda _: spectral.market_mode_residual(np.eye(3)),
                             "eig must be of type EigenSystem, got ndarray"),
    "sample_estimate_as_truth": (lambda _: synthgen.sample_estimate_as_truth(None),
                                 "panel must be of type ReturnPanel, got NoneType"),
    "sample_panel": (lambda _: synthgen.sample_panel(np.eye(3), 10, 1, synthgen.FAMILY_GAUSSIAN),
                     "truth must be of type TrueCorrelation, got ndarray"),
    "synchronous_reshuffle": (lambda _: dataio.synchronous_reshuffle(PANEL.returns, 1),
                              "panel must be of type ReturnPanel, got ndarray"),
    "standardize": (lambda _: dataio.standardize((PANEL,)),
                    "panel must be of type ReturnPanel, got tuple"),
    "save_panel_csv": (lambda tmp: dataio.save_panel_csv(PANEL.returns, tmp / "p.csv"),
                       "panel must be of type ReturnPanel, got ndarray"),
    "save_panel_csv-path": (lambda _: dataio.save_panel_csv(PANEL, None),
                            "path must be of type str or PathLike, got NoneType"),
    "load_price_panel-path": (lambda _: dataio.load_price_panel(None),
                              "path must be of type str or PathLike, got NoneType"),
    "flag_band_violations-experiments": (lambda _: portfolio.flag_band_violations([1], BAND),
                                         "experiment must be of type QExperiment, got int"),
    "flag_band_violations-q": (lambda _: portfolio.flag_band_violations([SAMPLE], BAND),
                               "q of sample 3 must be a finite number, got '9'"),
    "select-indices": (lambda _: PANEL.select([0.5]),
                       "index must be a non-negative integer, got 0.5"),
    "ReturnPanel-tickers": (lambda _: dataio.ReturnPanel((0, 1), ("0", "1"), np.eye(2)),
                            "ticker 0 must be of type str, got int"),
    "ReturnPanel-times": (lambda _: dataio.ReturnPanel(("A", "B"), (0, 1), np.eye(2)),
                          "time label 0 must be of type str, got int"),
    "CovarianceMatrix-window": (lambda _: dataio.CovarianceMatrix(("A", "B"), np.eye(2), "ab"),
                                "window bounds must be integers, got ('a', 'b')"),
}


@pytest.mark.parametrize("call, message", WRONG_TYPE.values(), ids=WRONG_TYPE)
def test_entry_points_name_a_value_of_the_wrong_type(call, message, tmp_path):
    with pytest.raises(InvalidParameter) as info:
        call(tmp_path)
    assert str(info.value) == message
    assert not any(tmp_path.iterdir())  # refused before any file is opened
