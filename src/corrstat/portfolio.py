"""Minimum-variance portfolio machinery and the q-ratio experiment.

Weights minimize w' C w under sum(w) = 1 (shorts allowed): w = C^-1 1 /
1'C^-1 1, solved from C x = 1, never through an explicit inverse.
_gated_solve gates C first: a one-Cholesky certificate that it is
positive definite and well conditioned, and only where that fails the
exact Cholesky and eigvalsh gates, which raise the named errors.

The q ratio sigma_R / sigma_E compares the realized risk of weights
fitted on an estimation window and held over the next, realized window
with their in-sample risk.  The samples (q_series) and the Monte Carlo
band of q under a stationary truth (mc_band) compute it through one
function, _held_q, which solves against the Gram matrix of the centred
estimation rows and returns the budget u'S^-1 u with q.  q_series takes
u = 1, so the budget is 1'C_E^-1 1 = 1 / sigma_E^2; mc_band takes the
whitened u of its truth and volatilities.  Samples above the band's
mean + k sd signal effects beyond weight staleness.

covariance_matrix, min_variance_weights and portfolio_variance form the
same quantities as frozen value types, one step at a time.  Nothing in
the q ratio calls them: they are the reference the tests check _held_q
against.
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
    """One sample: weights fitted on the t1_range columns, held over the t2_range columns."""

    sample: int
    t1_range: tuple[int, int]
    t2_range: tuple[int, int]
    sigma_e: float
    sigma_r: float
    q: float


class MCBand(NamedTuple):
    mean: float
    sd: float


def _checked_type(what, value, cls):
    """value when it is a cls, else InvalidParameter naming what and cls."""
    if isinstance(value, cls):
        return value
    raise InvalidParameter(f"{what} must be of type {cls.__name__}, got {type(value).__name__}")


def covariance_matrix(panel: ReturnPanel, window: tuple[int, int] | None = None) -> CovarianceMatrix:
    """Population covariance of the rows over a column range."""
    window = checked_window(_checked_type("panel", panel, ReturnPanel).n_steps, window, 2)
    centered, _ = gated_rows(panel.returns, panel.tickers, window)
    with np.errstate(over="ignore"):  # CovarianceMatrix refuses an inf entry
        c = (centered @ centered.T) / centered.shape[1]
    return CovarianceMatrix(panel.tickers, c, window)


def min_variance_weights(cov: CovarianceMatrix) -> WeightVector:
    """Budget-constrained minimum-variance weights.

    Solves C x = 1 and normalizes, which is the closed form
    w_i = sum_j inv(C)_ij / sum_jk inv(C)_jk without forming the inverse.

    CovarianceMatrix makes C symmetric, finite and at least 1 x 1; T <= N
    raises IllPosed, and _gated_solve gates C.
    """
    _check_posed(_checked_type("cov", cov, CovarianceMatrix).n_series, cov.window_len)
    x = _gated_solve(cov.entries, np.ones(cov.n_series))
    return WeightVector(cov.tickers, x / x.sum())


def _check_posed(n: int, t_len: int | None):
    """IllPosed unless T > N: with T <= N observations the sample covariance is singular."""
    if t_len is not None and t_len <= n:
        raise IllPosed(f"minimum-variance problem needs more observations than assets, "
                       f"got N={n}, T={t_len}")


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
    n = _checked_type("panel", panel, ReturnPanel).n_series
    if checked_int("n_stocks", n_stocks, 1) > n:
        raise InvalidParameter(f"n_stocks must lie in [1, {n}], got {n_stocks}")
    idx = rng_for(select_seed, "stock-subset").choice(n, size=n_stocks, replace=False)
    return panel.select(sorted(int(i) for i in idx))


def _ranges(t_total: int, t1: int, t2: int, chained: bool):
    """(estimation, realized) column ranges: realized blocks [s, s + t2) at
    s = first, first + step, ... while they fit, each after its t1 estimation days.

    Chained, first = ceil(t1 / t2) t2 and step = t2: the realized grid depends
    only on t2, so experiments with different estimation lengths stay
    sample-aligned, and with t1 = t2 window 2 of sample n is window 1 of n+1.
    Independent, first = t1 and step = t1 + t2: no two samples share a day.
    """
    first, step = (-(-t1 // t2) * t2, t2) if chained else (t1, t1 + t2)
    return [((s - t1, s), (s, s + t2)) for s in range(first, t_total - t2 + 1, step)]


def q_series(panel: ReturnPanel, t1: int, t2: int, chained: bool = True) -> list[QExperiment]:
    """q = sigma_R / sigma_E over successive estimation/realized windows (see _ranges).

    Each sample is one _held_q call on the gated windows with u = 1: its
    budget b = 1'C_E^-1 1 gives sigma_E = 1 / sqrt(b), the in-sample risk of
    the minimum-variance weights, and sigma_R = q sigma_E, the population sd
    of their P&L over the realized window.  t1 <= N raises IllPosed before
    any window is read; a flat row in either window raises ZeroVariance
    naming the ticker and window; the estimation covariance then meets the
    gates of _gated_solve.
    """
    _checked_type("panel", panel, ReturnPanel)
    checked_int("t1", t1, 2)
    checked_int("t2", t2, 2)
    _checked_type("chained", chained, bool)
    _check_posed(panel.n_series, t1)
    ranges = _ranges(panel.n_steps, t1, t2, chained)
    if not ranges:
        raise InsufficientData(
            f"panel of {panel.n_steps} steps has no full (t1={t1}, t2={t2}) sample"
        )
    ones = np.ones(panel.n_series)
    out = []
    for sample, (est_range, real_range) in enumerate(ranges, start=1):
        budget, q = _held_q(gated_rows(panel.returns, panel.tickers, est_range)[0],
                            gated_rows(panel.returns, panel.tickers, real_range)[0],
                            ones, f"sample {sample}")
        sigma_e = 1.0 / math.sqrt(budget)  # budget = 1' C_E^-1 1
        out.append(QExperiment(sample, est_range, real_range, sigma_e, q * sigma_e, q))
    return out


def _held_q(est: np.ndarray, realized: np.ndarray, u: np.ndarray, where: str):
    """(u'S^-1 u, q) of weights fitted on the centred rows est and held over realized.

    With S = est est' / T1 and y = S^-1 u, the weights are y / u'y, the held
    P&L is y'R / u'y over realized's columns R, and q = sd(y'R) / sqrt(u'y)
    with sd from centered_rows.  A budget u'y that is not finite and positive,
    or a q that is not finite, raises NumericsError naming where.
    """
    with np.errstate(over="ignore"):  # _gated_solve refuses an inf entry
        y = _gated_solve((est @ est.T) / est.shape[1], u)
    budget = float(u @ y)
    if not 0.0 < budget < math.inf:
        raise NumericsError(f"{where}: whitened budget u'S^-1 u is {budget!r}, "
                            f"not a finite positive number")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(centered_rows((y @ realized)[None])[1][0, 0])
        q = sd / math.sqrt(budget)
    if not q < math.inf:
        raise NumericsError(f"{where}: held P&L sd is {sd!r}, q is {q!r}, not finite")
    return budget, q


def mc_band(n_series: int, t1: int, t2: int, replicas: int,
            truth: synthgen.TrueCorrelation, seed: int,
            volatilities=None) -> MCBand:
    """MC mean and sd of q on stationary Gaussian panels from the truth.

    Replica k is X = D L Z, the panel L Z of synthgen.sample_panel(truth,
    t1 + t2, seed, "gaussian", replica=k) times the volatilities D, and
    contributes the q that q_series would measure on it, through the same
    _held_q call in whitened coordinates.  With S the population covariance
    of Z's first t1 columns and u = L^-1 D^-1 1 (solved once), 1'C_E^-1 1 =
    u'S^-1 u and the held P&L is y'Z_R / u'y with y = S^-1 u, so _held_q on
    Z's two blocks gives X's q without forming X, C_E or the weights.  q is
    free of u's scale, so u solves against min(D) / D, which cannot overflow.

    t1 <= n_series raises IllPosed before any replica is drawn.  The gates
    judge S, not C_E, so they differ from q_series': a flat estimation row
    of X makes S singular (NotPositiveDefinite or NumericsError, not
    ZeroVariance); a flat realized row is not gated and leaves q defined;
    and the truth and volatilities enter no per-replica solve, so they fail
    no condition gate.
    """
    checked_int("n_series", n_series, 1)
    checked_int("t1", t1, 2)
    checked_int("t2", t2, 2)
    checked_int("replicas", replicas, MIN_REPLICAS)
    _check_posed(n_series, t1)
    if _checked_type("truth", truth, synthgen.TrueCorrelation).n_series != n_series:
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
        qs[replica] = _held_q(centered_rows(z[:, :t1])[0], z[:, t1:], u, f"replica {replica}")[1]
    return MCBand(float(qs.mean()), float(qs.std(ddof=1)))


def flag_band_violations(experiments, band: MCBand,
                         n_sigma: float = DEFAULT_BAND_SIGMAS) -> list[bool]:
    """True where q exceeds band mean + n_sigma * band sd.

    The band is refused, before any comparison, unless it is an MCBand with a
    finite mean and a finite sd >= 0, so a NaN band cannot read as no violation.
    """
    _checked_type("band", band, MCBand)
    checked_real("band mean", band.mean, math.isfinite, "a finite number")
    checked_real("band sd", band.sd, lambda sd: 0.0 <= sd < math.inf, "a finite number >= 0")
    limit = band.mean + checked_real("n_sigma", n_sigma, *BAND_SIGMAS_RULE) * band.sd
    return [exp.q > limit for exp in experiments]
