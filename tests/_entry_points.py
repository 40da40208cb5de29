"""The registry of the library's public entry points and the kinds of their arguments.

Each row names a public function, constructor or method, gives one valid
call as keywords, and lists each argument a rule checks: its kind, with
its bound, and the stem its refusal starts with.  An argument held in a
collection (a window length in window_lens, a threshold in thresholds)
has a row of its own, whose put places a value in the collection.
test_entry_points.py generates odd values from each kind and holds every
call to one contract; its completeness test fails on a public name that
has no row here and no reason in EXEMPT.
"""
import math
import os
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from conftest import CORPUS, gaussian_panel
from corrstat import (corrdist, dataio, parallel, portfolio, rngutil, spectral, stationarity,
                      synthgen)
from corrstat.dataio import MAX_CELLS, MAX_SQUARE, MAX_T, MIN_T


class Count(NamedTuple):
    """An integer in [low, high]."""
    stem: str
    low: int
    high: float = math.inf


class Real(NamedTuple):
    """A real within bound, the text of its module's *_RULE; outside is a real it refuses."""
    stem: str
    bound: str
    outside: float


class Array(NamedTuple):
    """An array of reals with ndim dimensions (any, when None)."""
    stem: str
    ndim: int | None = None


class Symmetric(NamedTuple):
    """A finite symmetric matrix, at least 1 x 1."""
    stem: str


class Items(NamedTuple):
    """A collection, of exactly count items when count is given."""
    stem: str
    count: int | None = None
    bound: str = "a collection"


class Typed(NamedTuple):
    """One of the toolkit's own types, a path, a label, a flag or a callable."""
    stem: str
    types: tuple


class Choice(NamedTuple):
    """One of a few names."""
    stem: str


class Arg(NamedTuple):
    param: str  # the keyword the call takes
    kind: tuple
    valid: object = None  # the value the odd ones stand for; the row's valid keyword when None
    put: Callable = None  # the keyword's value made from a value; the value itself when None
    none: bool = False  # None is a valid value, not an odd one
    also: tuple = ()  # further stems a refusal may start with: an item's, or a pair of arguments'


class Entry(NamedTuple):
    name: str  # module.function, as the completeness test reads it
    call: Callable
    valid: dict
    args: tuple


GAUSSIAN, STUDENT_T = synthgen.FAMILY_GAUSSIAN, synthgen.FAMILY_STUDENT_T
PANEL = gaussian_panel(4, 300, seed=4)
QPANEL = gaussian_panel(3, 100, seed=4)
TRUTH = synthgen.identity_correlation(3)
CORR = corrdist.corr_matrix(gaussian_panel(6, 100, seed=1)).entries
SQUARE = [[2.0, 1.0], [1.0, 2.0]]
PARAMS = corrdist.CorrParams(0.3, 50)
COV = dataio.CovarianceMatrix(("A", "B"), SQUARE)
WEIGHTS = portfolio.WeightVector(("A", "B"), [0.5, 0.5])
BAND = portfolio.MCBand(1.0, 0.1)
SNAPSHOT = spectral.spectral_snapshot(CORR)
EIG = spectral.eig_sym(np.eye(4))
ESTIMATES = [(10, 0.0), (20, 0.5), (30, 0.55)]


def _uniform_cdf(s):
    return (s + 1.0) / 2.0


def panel(param="panel"):
    return Arg(param, Typed(param, (dataio.ReturnPanel,)))


def seed(param="seed"):
    return Arg(param, Count("seed", 0))


WINDOW = Arg("window", Items("window", 2, "two integers (lo, hi)"), none=True)
PARAMS_ARG = Arg("params", Typed("params", (corrdist.CorrParams,)))
PAIR = Arg("pair", Items("a pair", 2, "two numbers"), also=("pair",))
PAIRS = Arg("pairs", Items("pairs"), none=True, also=("a pair",))
DATASET = Arg("dataset", Typed("dataset", (str,)))
MC = (Arg("mc_family", Choice("unknown mc_family"), none=True),
      Arg("mc_nu", Choice("mc_nu"), none=True), seed("mc_seed"))
# the co-occurrence thresholds, each in its place in the triple
THRESHOLDS = [Arg("thresholds", Real(f"{name} threshold", bound,
                                     next(v for v in (-0.1, 0.1) if not ok(v))),
                  0.0, lambda v, k=k: tuple(v if i == k else 0.0 for i in range(3)))
              for k, (name, ok, bound) in enumerate(spectral.THRESHOLD_RULES)]


def _draws(name, call, first, valid_first, n_steps_high):
    """draw_variates' or sample_panel's rows: a Gaussian one, and a Student-t one for nu."""
    gaussian = {first.param: valid_first, "n_steps": 50, "seed": 0, "family": GAUSSIAN,
                "nu": None, "replica": 0}
    n_steps = Arg("n_steps", Count("n_steps", 1, n_steps_high))
    return [Entry(name, call, gaussian,
                  (first, n_steps, seed(), Arg("replica", Count("substream index", 0)),
                   Arg("family", Choice("unknown family")), Arg("nu", Choice("nu"), none=True))),
            Entry(name, call, dict(gaussian, family=STUDENT_T, nu=4.0),
                  (n_steps, Arg("nu", Real("nu", synthgen.NU_RULE[1], 2.5))))]


ENTRY_POINTS = [
    Entry("corrdist.CorrParams", corrdist.CorrParams, dict(rho_bar=0.25, n_obs=50),
          (Arg("rho_bar", Real("rho_bar", corrdist.RHO_BAR_RULE[1], 1.0)),
           Arg("n_obs", Count("n_obs", MIN_T, MAX_T)))),
    Entry("corrdist.corr_matrix", corrdist.corr_matrix, dict(panel=PANEL, window=(0, 100)),
          (panel(), WINDOW)),
    *[Entry(f"corrdist.{f.__name__}", f, dict(rho=[[0.5, -0.25], [0.0, 1.0]], params=PARAMS),
            (Arg("rho", Array("rho")), PARAMS_ARG))
      for f in (corrdist.rho_logdensity, corrdist.rho_density, corrdist.rho_cdf,
                corrdist.gaussian_approx_density)],
    Entry("corrdist.rho_moments", corrdist.rho_moments, dict(params=PARAMS), (PARAMS_ARG,)),
    Entry("dataio.ReturnPanel", dataio.ReturnPanel,
          dict(tickers=("A", "B"), times=("0", "1", "2"),
               returns=[[1.0, 2.0, 4.0], [3.0, 1.0, 2.0]]),
          (Arg("tickers", Items("tickers"), also=("ticker", "panel labels")),
           Arg("times", Items("times"), also=("time label", "panel labels")),
           Arg("returns", Array("returns", 2), also=("panel labels",)))),
    Entry("dataio.ReturnPanel.select", PANEL.select, dict(indices=[0, 2]),
          (Arg("indices", Items("indices"), also=("index",)),
           Arg("indices", Count("index", 0), 2, lambda v: [v]))),
    Entry("dataio.CovarianceMatrix", dataio.CovarianceMatrix,
          dict(tickers=("A", "B"), entries=SQUARE, window=(0, 50)),
          (Arg("tickers", Items("tickers"), also=("ticker", "entries")),
           Arg("entries", Symmetric("entries")), WINDOW)),
    Entry("dataio.load_price_panel", dataio.load_price_panel,
          dict(path=CORPUS / "simulate_gaussian.csv", kind="returns"),
          (Arg("path", Typed("path", (str, os.PathLike))), Arg("kind", Choice("kind")))),
    Entry("dataio.save_panel_csv", dataio.save_panel_csv, dict(panel=QPANEL, path=os.devnull),
          (panel(), Arg("path", Typed("path", (str, os.PathLike))))),
    Entry("dataio.standardize", dataio.standardize, dict(panel=PANEL), (panel(),)),
    Entry("dataio.synchronous_reshuffle", dataio.synchronous_reshuffle, dict(panel=PANEL, seed=1),
          (panel(), seed())),
    Entry("dataio.window_slices", dataio.window_slices, dict(t_total=300, window_len=25),
          (Arg("t_total", Count("t_total", 0, MAX_T), also=("window_len",)),
           Arg("window_len", Count("window_len", MIN_T)))),
    Entry("parallel.resolve_threads", parallel.resolve_threads, dict(threads=2),
          (Arg("threads", Count("threads", 1)),)),
    Entry("parallel.parallel_map", parallel.parallel_map, dict(fn=repr, items=[1, 2], threads=1),
          (Arg("fn", Typed("fn", (Callable,))), Arg("items", Items("items")),
           Arg("threads", Count("threads", 1)))),
    Entry("portfolio.WeightVector", portfolio.WeightVector, dict(tickers=("A", "B"), w=[2.0, -1.0]),
          (Arg("tickers", Items("tickers"), also=("ticker", "weights")),
           Arg("w", Array("w", 1), also=("weights",)))),
    Entry("portfolio.covariance_matrix", portfolio.covariance_matrix,
          dict(panel=PANEL, window=(0, 100)), (panel(), WINDOW)),
    Entry("portfolio.min_variance_weights", portfolio.min_variance_weights, dict(cov=COV),
          (Arg("cov", Typed("cov", (dataio.CovarianceMatrix,))),)),
    Entry("portfolio.portfolio_variance", portfolio.portfolio_variance,
          dict(cov=COV, weights=WEIGHTS),
          (Arg("cov", Typed("cov", (dataio.CovarianceMatrix,))),
           Arg("weights", Typed("weights", (portfolio.WeightVector,))))),
    Entry("portfolio.select_stocks", portfolio.select_stocks,
          dict(panel=PANEL, n_stocks=2, select_seed=1),
          (panel(), Arg("n_stocks", Count("n_stocks", 1)), seed("select_seed"))),
    Entry("portfolio.q_series", portfolio.q_series, dict(panel=QPANEL, t1=20, t2=20, chained=True),
          (panel(), Arg("t1", Count("t1", 2), also=("minimum-variance problem",)),
           Arg("t2", Count("t2", 2)),
           Arg("chained", Typed("chained", (bool,))))),
    Entry("portfolio.q_series", portfolio.q_series, dict(panel=QPANEL, t1=25, t2=10, chained=False),
          (Arg("t1", Count("t1", 2), also=("minimum-variance problem",)),
           Arg("t2", Count("t2", 2)))),
    Entry("portfolio.mc_band", portfolio.mc_band,
          dict(n_series=3, t1=20, t2=20, replicas=30, truth=TRUTH, seed=0),
          (Arg("n_series", Count("n_series", 1), also=("truth dimension",)),
           Arg("t1", Count("t1", 2, MAX_T), also=("Monte Carlo band",)),
           Arg("t2", Count("t2", 2, MAX_T)),
           Arg("replicas", Count("replicas", portfolio.MIN_REPLICAS, MAX_CELLS)),
           Arg("truth", Typed("truth", (synthgen.TrueCorrelation,))), seed())),
    Entry("portfolio.flag_band_violations", portfolio.flag_band_violations,
          dict(experiments=portfolio.q_series(QPANEL, 20, 20), band=BAND, n_sigma=2.0),
          (Arg("experiments", Items("experiments"), also=("experiment",)),
           Arg("band", Typed("band", (portfolio.MCBand,))),
           Arg("n_sigma", Real("n_sigma", portfolio.BAND_SIGMAS_RULE[1], 0.0)))),
    Entry("rngutil.rng_for", lambda seed, label, index: rngutil.rng_for(seed, label, index),
          dict(seed=1, label="x", index=2),
          (seed(), Arg("label", Typed("label", (str,))),
           Arg("index", Count("substream index", 0)))),
    Entry("spectral.EigenSystem", spectral.EigenSystem,
          dict(eigenvalues=[1.0, 2.0], eigenvectors=[[1.0, 0.0], [0.0, 1.0]]),
          (Arg("eigenvalues", Array("eigenvalues", 1),
               also=("eigenvector matrix", "an eigensystem")),
           Arg("eigenvectors", Array("eigenvectors", 2), also=("eigenvector matrix",)))),
    Entry("spectral.eig_sym", spectral.eig_sym, dict(matrix=SQUARE),
          (Arg("matrix", Symmetric("matrix")),)),
    Entry("spectral.ipr", spectral.ipr, dict(vector=[0.6, 0.8]),
          (Arg("vector", Array("vector", 1)),)),
    Entry("spectral.spectral_snapshot", spectral.spectral_snapshot, dict(corr=CORR, sectors=2),
          (Arg("corr", Symmetric("matrix"), also=("need more than", "trace")),
           Arg("sectors", Count("sectors", 1), also=("need more than",)))),
    Entry("spectral.spectral_delta", spectral.spectral_delta,
          dict(first=SNAPSHOT, second=SNAPSHOT._replace(lambda_market=4.0)),
          (Arg("first", Typed("first", (spectral.SpectralSnapshot,))),
           Arg("second", Typed("second", (spectral.SpectralSnapshot,))))),
    Entry("spectral.co_occurrence_flag", spectral.co_occurrence_flag,
          dict(delta=spectral.SpectralDelta(0.5, -0.2, -0.2), thresholds=(0.0, 0.0, 0.0)),
          (Arg("delta", Typed("delta", (spectral.SpectralDelta,))),
           Arg("thresholds", Items("thresholds", 3, "three numbers (market, sector, ipr)"),
               also=tuple(arg.kind.stem for arg in THRESHOLDS)),
           *THRESHOLDS)),
    Entry("spectral.pca_decompose", spectral.pca_decompose, dict(panel=PANEL, eig=EIG),
          (panel(), Arg("eig", Typed("eig", (spectral.EigenSystem,))))),
    Entry("spectral.market_mode_residual", spectral.market_mode_residual, dict(eig=EIG),
          (Arg("eig", Typed("eig", (spectral.EigenSystem,))),)),
    Entry("stationarity.LocalTestConfig", stationarity.LocalTestConfig,
          dict(t1=50, tau=5, n_values=(1, 2)),
          (Arg("t1", Count("t1", MIN_T, MAX_T)), Arg("tau", Count("tau", 1, MAX_T)),
           Arg("n_values", Items("n_values"), also=("n",)),
           Arg("n_values", Count("n", 1, MAX_CELLS), 2, lambda v: (1, v)))),
    Entry("stationarity.ks_statistic", stationarity.ks_statistic,
          dict(samples=[0.5, -0.25, 0.0, 0.75, 0.125], cdf=_uniform_cdf),
          (Arg("samples", Array("samples", 1), also=("KS test",)),
           Arg("cdf", Typed("cdf", (Callable,)), also=("cdf values",)))),
    Entry("stationarity.ks_pvalue", stationarity.ks_pvalue, dict(d_stat=0.25, k=10),
          (Arg("d_stat", Real("D", "a number in [0, 1]", -0.1)),
           Arg("k", Count("K", 0, MAX_CELLS), also=("KS p-value",)))),
    Entry("stationarity.global_test", stationarity.global_test,
          dict(panel=PANEL, pair=(0, 2), window_len=25),
          (panel(), PAIR, Arg("window_len", Count("window_len", MIN_T), also=("global test",)))),
    Entry("stationarity.all_pairs", stationarity.all_pairs, dict(n=4),
          (Arg("n", Count("n", 0, MAX_SQUARE)),)),
    Entry("stationarity.global_scan", stationarity.global_scan,
          dict(panel=PANEL, window_lens=(25,), alphas=(0.05,), pairs=[(0, 1), (1, 2)],
               reshuffle_seed=1, mc_family=None, mc_nu=None, mc_seed=0, threads=1,
               dataset="panel"),
          (panel(), Arg("window_lens", Items("window_lens"), also=("window_len",)),
           Arg("window_lens", Count("window_len", MIN_T), 30, lambda v: (25, v)),
           Arg("alphas", Items("alphas"), also=("alpha",)),
           Arg("alphas", Real("alpha", stationarity.ALPHA_RULE[1], 1.5), 0.25, lambda v: (0.05, v)),
           PAIRS, Arg("reshuffle_seed", Count("seed", 0), none=True), *MC,
           Arg("threads", Count("threads", 1)), DATASET)),
    Entry("stationarity.global_scan", stationarity.global_scan,
          dict(panel=PANEL, window_lens=(25,), mc_family=STUDENT_T, mc_nu=4.0),
          (Arg("mc_nu", Real("mc_nu", synthgen.NU_RULE[1], math.inf)),)),
    Entry("stationarity.cumulative_corr", stationarity.cumulative_corr,
          dict(panel=PANEL, pair=(0, 2), t1=20, tau=10),
          (panel(), PAIR, Arg("t1", Count("t1", MIN_T, MAX_T), also=("need at least",)),
           Arg("tau", Count("tau", 1, MAX_T), also=("need at least",)))),
    Entry("stationarity.local_test", stationarity.local_test,
          dict(estimates=ESTIMATES, n=1, sigma_convention="window", tau=None),
          (Arg("estimates", Array("estimates", 2), also=("local test",)),
           Arg("n", Count("n", 1, MAX_CELLS)),
           Arg("sigma_convention", Choice("unknown sigma convention")),
           Arg("tau", Count("tau", 1, MAX_T), 10, none=True))),
    Entry("stationarity.local_test", stationarity.local_test,
          dict(estimates=ESTIMATES, n=1, sigma_convention="paper", tau=10),
          (Arg("tau", Count("tau", 1, MAX_T)),)),
    Entry("stationarity.local_scan", stationarity.local_scan,
          dict(panel=PANEL, configs=[stationarity.LocalTestConfig(50, 25)], pairs=[(0, 1), (1, 3)],
               sigma_convention="window", mc_family=None, mc_nu=None, mc_seed=0,
               dataset="panel"),
          (panel(), Arg("configs", Items("configs")), PAIRS,
           Arg("sigma_convention", Choice("unknown sigma convention")), *MC, DATASET)),
    Entry("synthgen.TrueCorrelation", synthgen.TrueCorrelation, dict(entries=np.eye(3)),
          (Arg("entries", Symmetric("entries"),
               also=("correlation entries", "true correlation")),)),
    Entry("synthgen.cholesky", synthgen.cholesky, dict(matrix=SQUARE),
          (Arg("matrix", Symmetric("matrix")),)),
    Entry("synthgen.synthetic_tickers", synthgen.synthetic_tickers, dict(n=12),
          (Arg("n", Count("N", 1, MAX_CELLS)),)),
    *_draws("synthgen.draw_variates", synthgen.draw_variates,
            Arg("n_series", Count("n_series", 1, MAX_CELLS)), 2, MAX_CELLS // 2),
    *_draws("synthgen.sample_panel", synthgen.sample_panel,
            Arg("truth", Typed("truth", (synthgen.TrueCorrelation,))), TRUTH, MAX_CELLS // 3),
    Entry("synthgen.sample_estimate_as_truth", synthgen.sample_estimate_as_truth,
          dict(panel=PANEL), (panel(),)),
    Entry("synthgen.identity_correlation", synthgen.identity_correlation, dict(n=3),
          (Arg("n", Count("N", 1, MAX_SQUARE)),)),
    Entry("synthgen.equicorr_correlation", synthgen.equicorr_correlation, dict(n=3, rho=0.25),
          (Arg("n", Count("N", 2, MAX_SQUARE)),
           Arg("rho", Real("rho", "a number in (-1/2, 1)", -0.5)))),
    Entry("synthgen.one_factor_correlation", synthgen.one_factor_correlation, dict(n=3, seed=0),
          (Arg("n", Count("N", 1, MAX_SQUARE)), seed())),
]


# Public names with no row, each with its reason.
EXEMPT = {
    **{f"errors.{name}": "an error class" for name in (
        "CorrstatError", "ParseError", "DuplicateTicker", "DomainError", "ZeroVariance",
        "InsufficientData", "InsufficientSamples", "NumericsError", "NotPositiveDefinite",
        "NotSymmetric", "NotNormalized", "IllPosed", "InvalidParameter")},
    **{name: "a NamedTuple record, built by the library" for name in (
        "corrdist.CorrMoments", "portfolio.QExperiment", "portfolio.MCBand",
        "spectral.SpectralSnapshot", "spectral.SpectralDelta", "spectral.PCAComponents",
        "spectral.MarketResidual", "stationarity.GlobalTestResult",
        "stationarity.LocalTestOutcome", "stationarity.ScanCell", "stationarity.ScanReport")},
    **{name: "a rule, tested directly and run by every row above" for name in (
        "errors.checked_type", "errors.checked_iter", "errors.checked_items", "errors.is_integer",
        "errors.is_real", "errors.checked_int", "errors.checked_real", "errors.checked_array",
        "errors.checked_symmetric", "dataio.checked_labels", "dataio.checked_window",
        "dataio.freeze", "synthgen.checked_family")},
    **{f"dataio.{name}": "a row kernel, given only arrays a rule has checked" for name in (
        "centered_rows", "standardized_rows", "gated_rows")},
    **{f"cli.{name}": "the command line, tested through it" for name in (
        "UsageError", "cmd_density", "cmd_global_scan", "cmd_local_scan", "cmd_simulate",
        "cmd_qscan", "cmd_spectral", "cmd_reproduce", "build_parser", "main")},
}
