"""Minimum-variance portfolio machinery and the q-ratio experiment.

Weights minimize w' C w under sum(w) = 1 (shorts allowed), solved from
C x = 1 and normalized, never through an explicit inverse.  Symmetry
and finiteness come with C, a CovarianceMatrix; the solve first tries a
one-Cholesky certificate that it is positive definite and well
conditioned, and only where that fails runs the exact Cholesky and
eigvalsh gates, which raise the named errors.  The q ratio
sigma_R / sigma_E compares realized risk (previous window's weights held
over the next window) against the in-sample optimum; Monte Carlo bands
of q under a stationary truth mark the non-optimality region, and
samples above mean + k sd of that band signal effects beyond weight
staleness.

A band replica X = D L Z (volatilities D, truth factor L, normals Z) has
C_E = D L S L' D with S the covariance of Z, so mc_band solves against S
in whitened coordinates and never forms X, C_E or the weights; its gates
judge S, not C_E.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import synthgen
from .dataio import (CovarianceMatrix, ReturnPanel, centered_rows, checked_window, freeze,
                     gated_rows)
from .errors import (IllPosed, InsufficientData, InvalidParameter, NumericsError, checked_array,
                     checked_int, checked_real)
from .rngutil import rng_for

_CONDITION_LIMIT = 1e12
_CERTIFICATE_SHIFT = 1e-11  # of trace(C); see _certified
DEFAULT_BAND_SIGMAS = 5.0
BAND_SIGMAS_RULE = (lambda k: 0.0 < k < math.inf, "a finite positive number")
MIN_REPLICAS = 30


@dataclass(frozen=True)
class WeightVector:
    """Holdings fractions under the budget constraint sum(w) = 1."""

    tickers: tuple[str, ...]
    w: np.ndarray

    def __post_init__(self):
        (w,) = freeze(self, w=1)
        if w.size != len(self.tickers):
            raise InvalidParameter("weights must be one per ticker")
        budget = float(w.sum())
        if not abs(budget - 1.0) <= 1e-12 * max(1.0, float(np.abs(w).sum())) < math.inf:
            raise InvalidParameter(f"weights sum to {budget!r}, not 1")


@dataclass
class QExperiment:
    """One chained sample: weights from window 1 held over window 2."""

    sample: int
    t1_range: tuple[int, int]
    t2_range: tuple[int, int]
    sigma_e: float
    sigma_r: float
    q: float


class MCBand(NamedTuple):
    mean: float
    sd: float


def covariance_matrix(panel: ReturnPanel, window: tuple[int, int] | None = None) -> CovarianceMatrix:
    """Population covariance of the rows over a column range."""
    window = checked_window(panel.n_steps, window, 2)
    return _covariance(panel.returns, panel.tickers, window)


def _covariance(returns, tickers, window) -> CovarianceMatrix:
    centered, _ = gated_rows(returns, tickers, window)
    with np.errstate(over="ignore"):  # CovarianceMatrix refuses an inf entry
        c = (centered @ centered.T) / centered.shape[1]
    return CovarianceMatrix(tickers, c, window)


def min_variance_weights(cov: CovarianceMatrix) -> WeightVector:
    """Budget-constrained minimum-variance weights.

    Solves C x = 1 and normalizes, which is the closed form
    w_i = sum_j inv(C)_ij / sum_jk inv(C)_jk without forming the inverse.

    CovarianceMatrix makes C symmetric, finite and at least 1 x 1; T <= N
    raises IllPosed, and _gated_solve gates C.
    """
    n = cov.n_series
    t_len = cov.window_len
    if t_len is not None and t_len <= n:
        raise IllPosed(f"minimum-variance problem needs more observations than assets, "
                       f"got N={n}, T={t_len}")
    x = _gated_solve(cov.entries, np.ones(n))
    return WeightVector(cov.tickers, x / x.sum())


def _gated_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with C x = b for a symmetric C that passes the gates, by one LU solve.

    Gates, in order: the shifted-Cholesky certificate (_certified), and only
    where it fails the exact gates, which raise NotPositiveDefinite or
    NumericsError naming the 2-norm condition number.
    """
    if not _certified(c):
        synthgen.cholesky(c)  # the positive-definiteness gate
        # C is SPD here, so its 2-norm condition number is lambda_max / lambda_min;
        # a rounded lambda_min <= 0 means C is numerically singular.
        eig = np.linalg.eigvalsh(c)
        cond = float(eig[-1] / eig[0]) if eig[0] > 0.0 else math.inf
        if cond > _CONDITION_LIMIT:
            raise NumericsError(
                f"covariance condition number {cond:.3e} exceeds {_CONDITION_LIMIT:.0e}")
    return np.linalg.solve(c, b)


def _certified(c: np.ndarray) -> bool:
    """Sufficient test, by one Cholesky, that a symmetric C passes both exact gates.

    lambda_max <= trace(C), so if C - s I with s = 1e-11 trace(C) factors,
    C is positive definite with lambda_min above s less an O(N eps ||C||)
    rounding term, and cond(C) < ~1.1e11 < _CONDITION_LIMIT.  False proves
    nothing; the exact gates decide.
    """
    trace = float(np.trace(c))
    if not 0.0 < trace < math.inf:
        return False
    try:
        np.linalg.cholesky(c - _CERTIFICATE_SHIFT * trace * np.eye(c.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def portfolio_variance(cov: CovarianceMatrix, weights: WeightVector) -> float:
    """w' C w, clamped against negative roundoff."""
    if not (isinstance(cov, CovarianceMatrix) and isinstance(weights, WeightVector)):
        raise InvalidParameter("portfolio_variance takes a CovarianceMatrix and a WeightVector")
    if weights.w.size != cov.n_series:
        raise InvalidParameter("weights and covariance dimensions differ")
    return max(0.0, float(weights.w @ cov.entries @ weights.w))


def select_stocks(panel: ReturnPanel, n_stocks: int, select_seed: int) -> ReturnPanel:
    """Seeded random subset of n_stocks rows, original order kept."""
    n = panel.n_series
    if checked_int("n_stocks", n_stocks, 1) > n:
        raise InvalidParameter(f"n_stocks must lie in [1, {n}], got {n_stocks}")
    idx = rng_for(select_seed, "stock-subset").choice(n, size=n_stocks, replace=False)
    return panel.select(sorted(int(i) for i in idx))


def _chained_ranges(t_total: int, t1: int, t2: int):
    """Realized blocks [k t2, (k+1) t2); estimation is the t1 days before.

    The realized grid depends only on t2, so experiments with different
    estimation lengths stay sample-aligned; with t1 = t2 this is exactly
    the chained protocol (window 2 of sample n is window 1 of n+1).
    """
    first = max(1, -(-t1 // t2))  # ceil(t1 / t2)
    ranges = []
    k = first
    while (k + 1) * t2 <= t_total:
        ranges.append(((k * t2 - t1, k * t2), (k * t2, (k + 1) * t2)))
        k += 1
    return ranges


def _independent_ranges(t_total: int, t1: int, t2: int):
    span = t1 + t2
    return [
        ((m * span, m * span + t1), (m * span + t1, (m + 1) * span))
        for m in range(t_total // span)
    ]


def q_series(panel: ReturnPanel, t1: int, t2: int, chained: bool = True) -> list[QExperiment]:
    """q = sigma_R / sigma_E over successive estimation/realized windows."""
    checked_int("t1", t1, 2)
    checked_int("t2", t2, 2)
    ranges = (_chained_ranges if chained else _independent_ranges)(
        panel.n_steps, t1, t2
    )
    if not ranges:
        raise InsufficientData(
            f"panel of {panel.n_steps} steps has no full (t1={t1}, t2={t2}) sample"
        )
    out = []
    for sample, (est_range, real_range) in enumerate(ranges, start=1):
        sigma_e, sigma_r = _sample_risks(panel.returns, panel.tickers,
                                         est_range, real_range)
        out.append(QExperiment(
            sample=sample,
            t1_range=est_range,
            t2_range=real_range,
            sigma_e=sigma_e,
            sigma_r=sigma_r,
            q=sigma_r / sigma_e,
        ))
    return out


def _sample_risks(returns, tickers, est_range, real_range):
    """sigma_E and sigma_R of weights fitted on est_range.

    sigma_R is the population sd of the held portfolio's P&L over
    real_range, which equals sqrt(w' C_R w) without forming C_R.
    """
    cov_est = _covariance(returns, tickers, est_range)
    weights = min_variance_weights(cov_est)
    sigma_e = math.sqrt(portfolio_variance(cov_est, weights))
    pnl = weights.w @ gated_rows(returns, tickers, real_range)[0]
    return sigma_e, math.sqrt(float(pnl @ pnl) / pnl.size)


def mc_band(n_series: int, t1: int, t2: int, replicas: int,
            truth: synthgen.TrueCorrelation, seed: int,
            volatilities=None) -> MCBand:
    """MC mean and sd of q on stationary Gaussian panels from the truth.

    Replica k is X = D L Z, the panel L Z of synthgen.sample_panel(truth,
    t1 + t2, seed, "gaussian", replica=k) times the volatilities D, and
    contributes q = sigma_R / sigma_E of weights fitted on its first t1
    steps and held over the next t2, as in q_series.  With S the population
    covariance of Z's first t1 columns, u = L^-1 D^-1 1 (solved once) and
    y = S^-1 u: 1' C_E^-1 1 = u'y and the held P&L is y'Z_R / u'y, so
    q^2 = mean((y'Z_R)^2) / u'y over the centred realized block Z_R.  q is
    free of u's scale, so u solves against min(D) / D, which cannot overflow.

    t1 <= n_series raises IllPosed before any replica is drawn.  The gates
    of min_variance_weights judge S: a flat estimation row of X makes S
    singular (NotPositiveDefinite or NumericsError, not ZeroVariance); a
    flat realized row leaves q defined; and the truth and volatilities
    enter no per-replica solve, so they fail no condition gate.
    """
    checked_int("n_series", n_series, 1)
    checked_int("t1", t1, 2)
    checked_int("t2", t2, 2)
    checked_int("replicas", replicas, MIN_REPLICAS)
    if t1 <= n_series:
        raise IllPosed(f"minimum-variance problem needs more observations than assets, "
                       f"got N={n_series}, T={t1}")
    if truth.n_series != n_series:
        raise InvalidParameter("truth dimension does not match n_series")
    scale = (np.ones(n_series) if volatilities is None
             else checked_array("volatilities", volatilities, 1))
    if not (scale.shape == (n_series,) and np.all(scale > 0)):
        raise InvalidParameter("volatilities must be N positive reals")
    u = np.linalg.solve(synthgen.cholesky(truth.entries), scale.min() / scale)
    qs = np.empty(replicas)
    for replica in range(replicas):
        z, _ = synthgen.draw_variates(n_series, t1 + t2, seed, synthgen.FAMILY_GAUSSIAN,
                                      replica=replica)
        est = centered_rows(z[:, :t1])[0]
        y = _gated_solve((est @ est.T) / t1, u)
        budget = float(u @ y)  # 1' C_E^-1 1 = 1 / sigma_E^2, up to u's scale
        if not 0.0 < budget < math.inf:
            raise NumericsError(f"replica {replica}: whitened budget u'S^-1 u is {budget!r}, "
                                f"not a finite positive number")
        pnl = y @ z[:, t1:]
        pnl -= pnl.mean()
        qs[replica] = math.sqrt(float(pnl @ pnl) / (t2 * budget))
    return MCBand(float(qs.mean()), float(qs.std(ddof=1)))


def flag_band_violations(experiments, band: MCBand,
                         n_sigma: float = DEFAULT_BAND_SIGMAS) -> list[bool]:
    """True where q exceeds band mean + n_sigma * band sd."""
    limit = band.mean + checked_real("n_sigma", n_sigma, *BAND_SIGMAS_RULE) * band.sd
    return [exp.q > limit for exp in experiments]
