"""Pearson estimation and the exact sampling law of the measured coefficient.

For T joint observations of a bivariate Gaussian with true correlation
rho_bar, the measured coefficient rho is distributed as

    P(rho) = (T-2)/pi * (1-rho^2)^((T-4)/2) * (1-rho_bar^2)^((T-1)/2)
             * integral_0^inf dr (cosh r - rho*rho_bar)^-(T-1)

with mean and variance expanding to

    E[rho]   = rho_bar - rho_bar (1-rho_bar^2) / (2T) + ...
    Var[rho] = (1-rho_bar^2)^2 / T * (1 + 11 rho_bar^2 / (2T)) + ...

and a Gaussian approximation N(m_P, sigma_P), m_P = rho_bar,
sigma_P = (1-rho_bar^2)/sqrt(T).  The r-integral has Hotelling's
closed form (Hotelling 1953, J. R. Stat. Soc. B 15:193), with a = rho*rho_bar,

    integral_0^inf dr (cosh r - a)^-(T-1)
        = sqrt(pi/2) Gamma(T-1) / Gamma(T-1/2) * (1-a)^-(T-3/2)
          * 2F1(1/2, 1/2; T-1/2; (1+a)/2),

evaluated with scipy.special.hyp2f1.  Everything here is evaluated in
log-space so large T cannot underflow.

scipy is imported lazily, inside the functions that evaluate the law
(hyp2f1, the PCHIP table and its brentq inverse), so a process that
only builds correlation matrices never loads it.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .dataio import standardized_rows
from .errors import (
    InsufficientData,
    InvalidParameter,
    NotPositiveDefinite,
    NotSymmetric,
    NumericsError,
    ZeroVariance,
)

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

RHO_BAR_LIMIT = 1.0 - 1e-12
MIN_T = 10


@dataclass(frozen=True)
class CorrParams:
    """True correlation and sample length behind a measured coefficient."""

    rho_bar: float
    n_obs: int

    def __post_init__(self):
        if not (abs(self.rho_bar) <= RHO_BAR_LIMIT):
            raise InvalidParameter(
                f"rho_bar must satisfy |rho_bar| <= {RHO_BAR_LIMIT!r}, got {self.rho_bar!r}"
            )
        if int(self.n_obs) != self.n_obs or self.n_obs < MIN_T:
            raise InvalidParameter(f"n_obs must be an integer >= {MIN_T}, got {self.n_obs!r}")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson matrix over one column range of a panel."""

    tickers: tuple[str, ...]
    entries: np.ndarray
    window: tuple[int, int]
    scope: str = "raw"

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        n = len(self.tickers)
        if entries.shape != (n, n):
            raise InvalidParameter("entries must be N x N matching tickers")

    @property
    def n_series(self) -> int:
        return self.entries.shape[0]

    def validate(self):
        """Check symmetry, unit diagonal, entry range and the PSD bound."""
        c = self.entries
        n = c.shape[0]
        if np.abs(c - c.T).max() > 1e-14:
            raise NotSymmetric("correlation matrix is not symmetric")
        if np.abs(np.diag(c) - 1.0).max() > 1e-12:
            raise InvalidParameter("correlation matrix diagonal deviates from 1")
        if np.abs(c).max() > 1.0:
            raise InvalidParameter("correlation entries outside [-1, 1]")
        smallest = float(np.linalg.eigvalsh(c)[0])
        if smallest < -1e-10 * n:
            raise NotPositiveDefinite(
                f"correlation matrix has eigenvalue {smallest:.3e}", pivot=None
            )
        return self


class CorrMoments(NamedTuple):
    mean: float
    variance: float
    m_p: float
    sigma_p: float


def pearson(x, y, assume_standardized: bool = False) -> float:
    """Pearson coefficient (1/T) sum x_t y_t on standardized series.

    Standardizes internally (population sd) unless told both inputs
    already are; the result is clamped into [-1, 1] against roundoff.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidParameter("pearson needs two 1-d series of equal length")
    t = x.size
    if t < 2:
        raise InsufficientData("pearson needs at least 2 observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameter("pearson needs finite series")
    if not assume_standardized:
        (x, y), bad = standardized_rows(np.stack([x, y]))
        if bad.any():
            raise ZeroVariance("x" if bad[0] else "y")
    r = float(x @ y) / t
    return min(1.0, max(-1.0, r))


def corr_matrix(panel, window: tuple[int, int] | None = None) -> CorrelationMatrix:
    """Pairwise Pearson matrix on a column range (default: full sample).

    Rows are standardized over the range itself, so the result is the
    same whether the panel came in raw or standardized on another scope.
    """
    lo, hi = (0, panel.n_steps) if window is None else (int(window[0]), int(window[1]))
    if not (0 <= lo < hi <= panel.n_steps):
        raise InvalidParameter(f"window {(lo, hi)} outside panel range")
    if hi - lo < MIN_T:
        raise InsufficientData(f"window length {hi - lo} below minimum {MIN_T}")
    z, bad = standardized_rows(panel.returns[:, lo:hi])
    if bad.any():
        raise ZeroVariance(panel.tickers[np.argmax(bad)], window=(lo, hi))
    c = (z @ z.T) / (hi - lo)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    np.clip(c, -1.0, 1.0, out=c)
    return CorrelationMatrix(panel.tickers, c, (lo, hi), panel.scope)


# ---------------------------------------------------------------------------
# density

_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(order):
    if order not in _gl_cache:
        _gl_cache[order] = np.polynomial.legendre.leggauss(order)
    return _gl_cache[order]


def _log_cosh_power_integral(a, t):
    """log of integral_0^inf (cosh r - a)^-(t-1) dr by Hotelling's form."""
    from scipy.special import hyp2f1

    const = 0.5 * math.log(0.5 * math.pi) + math.lgamma(t - 1.0) - math.lgamma(t - 0.5)
    return (
        const
        - (t - 1.5) * np.log1p(-a)
        + np.log(hyp2f1(0.5, 0.5, t - 0.5, 0.5 * (1.0 + a)))
    )


def rho_logdensity(rho, params: CorrParams):
    """log rho_density; -inf at the endpoints rho = +-1 (where T > 4)."""
    rho_arr = np.asarray(rho, dtype=np.float64)
    flat = np.atleast_1d(rho_arr).ravel().astype(np.float64)
    if flat.size and float(np.abs(flat).max()) > 1.0:
        raise InvalidParameter("rho must lie in [-1, 1]")
    t = float(params.n_obs)
    rb = params.rho_bar
    out = np.full(flat.shape, -np.inf)
    interior = np.abs(flat) < 1.0
    ri = flat[interior]
    if ri.size:
        const = (
            math.log(t - 2.0)
            - math.log(math.pi)
            + 0.5 * (t - 1.0) * (math.log1p(-rb) + math.log1p(rb))
        )
        out[interior] = (
            const
            + 0.5 * (t - 4.0) * (np.log1p(-ri) + np.log1p(ri))
            + _log_cosh_power_integral(ri * rb, t)
        )
    if rho_arr.ndim == 0:
        return float(out[0])
    return out.reshape(rho_arr.shape)


def rho_density(rho, params: CorrParams):
    """Exact sampling density of the measured coefficient at rho."""
    out = rho_logdensity(rho, params)
    return math.exp(out) if np.ndim(out) == 0 else np.exp(out)


def rho_moments(params: CorrParams) -> CorrMoments:
    """Truncated-series mean/variance plus the Gaussian (m_P, sigma_P)."""
    rb = params.rho_bar
    t = float(params.n_obs)
    one = 1.0 - rb * rb
    mean = rb - rb * one / (2.0 * t)
    variance = one * one / t * (1.0 + 11.0 * rb * rb / (2.0 * t))
    return CorrMoments(mean, variance, rb, one / math.sqrt(t))


def gaussian_approx_density(rho, params: CorrParams):
    """N(m_P, sigma_P) density; support is all reals by construction."""
    m = rho_moments(params)
    rho_arr = np.asarray(rho, dtype=np.float64)
    z = (rho_arr - m.m_p) / m.sigma_p
    out = np.exp(-0.5 * z * z) / (m.sigma_p * math.sqrt(2.0 * math.pi))
    return float(out) if rho_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# CDF with a per-(rho_bar, T) cached table

_CDF_KEY_DECIMALS = 4
_MASS_TOL = 5e-6
_ENDPOINT_KEY_RHO_BAR = 1.0 - 1e-6

_cdf_lock = threading.Lock()
_cdf_tables: dict[tuple[float, int], tuple[np.ndarray, np.ndarray, PchipInterpolator]] = {}


def _cdf_key(params: CorrParams):
    return (round(params.rho_bar, _CDF_KEY_DECIMALS), params.n_obs)


def _cdf_grid(rb, t):
    """Union of a uniform grid and a Fisher-transform-shaped refinement.

    The uniform part caps the node spacing at 1e-3; the refinement places
    nodes where the mass actually sits (the z = atanh(rho) image of the
    law is close to Gaussian with scale 1/sqrt(T-3), for any rho_bar), so
    the per-interval quadrature stays accurate even for rho_bar near +-1.
    """
    coarse = np.linspace(-1.0, 1.0, 2001)
    z0 = math.atanh(rb)
    s = 1.0 / math.sqrt(t - 3.0)
    dense = np.tanh(np.linspace(z0 - 8.0 * s, z0 + 8.0 * s, 801))
    grid = np.unique(np.concatenate([coarse, dense]))
    return grid[(grid >= -1.0) & (grid <= 1.0)]


def _build_cdf_table(key):
    from scipy.interpolate import PchipInterpolator

    rb, t = key
    # A rounded key can land on +-1.0 when the plug-in estimate was
    # clamped near an endpoint; pull it back inside the open interval.
    # Out there the table only needs to put its mass hard against the
    # endpoint, which any rho_bar in the key's rounding bucket achieves.
    # Stop well short of RHO_BAR_LIMIT: a law ~1e-12 wide spans too few
    # doubles for the node grid, and its table misses the mass gate at
    # some T (12, 25 and 1000 among them).
    rb = min(max(rb, -_ENDPOINT_KEY_RHO_BAR), _ENDPOINT_KEY_RHO_BAR)
    params = CorrParams(rb, t)
    grid = _cdf_grid(rb, t)
    x, w = _gauss_legendre(7)
    half = 0.5 * (grid[1:] - grid[:-1])
    mid = 0.5 * (grid[1:] + grid[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    dens = np.exp(rho_logdensity(nodes.ravel(), params)).reshape(nodes.shape)
    masses = (dens @ w) * half
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    total = float(cdf[-1])
    if abs(total - 1.0) > _MASS_TOL:
        raise NumericsError(
            f"density mass {total!r} deviates from 1 beyond {_MASS_TOL:g}",
            error_estimate=abs(total - 1.0),
        )
    cdf /= total  # exact endpoints; the gate above bounds the distortion
    # Intervals with zero mass give pchip 0/0 slope ratios; it resolves
    # them to flat (derivative 0) segments, so silence the division noise.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        interp = PchipInterpolator(grid, cdf)
    return grid, cdf, interp


def _cdf_table(params: CorrParams):
    """Cached table, built at the key's rounded rho_bar.

    Rounding rho_bar to 1e-4 before building makes the table a pure
    function of its key, so results cannot depend on which caller builds
    it first; the rounding error is an accepted part of the CDF budget.
    """
    key = _cdf_key(params)
    with _cdf_lock:
        table = _cdf_tables.get(key)
    if table is None:
        table = _build_cdf_table(key)
        with _cdf_lock:
            table = _cdf_tables.setdefault(key, table)
    return table


def clear_cdf_cache():
    with _cdf_lock:
        _cdf_tables.clear()


def rho_cdf(rho, params: CorrParams):
    """P(measured coefficient <= rho) from the cached table."""
    _, _, interp = _cdf_table(params)
    rho_arr = np.asarray(rho, dtype=np.float64)
    if rho_arr.size and float(np.abs(rho_arr).max()) > 1.0:
        raise InvalidParameter("rho must lie in [-1, 1]")
    out = np.clip(interp(rho_arr), 0.0, 1.0)
    # The table ends are exactly 0 and 1; PCHIP can round its last knot to 1 - 2^-53.
    out = np.where(rho_arr == 1.0, 1.0, np.where(rho_arr == -1.0, 0.0, out))
    return float(out) if rho_arr.ndim == 0 else out


def rho_quantile(p, params: CorrParams) -> float:
    """Smallest rho with rho_cdf(rho) >= p (inverse of the cached table)."""
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter(f"quantile level must lie in [0, 1], got {p!r}")
    grid, cdf, interp = _cdf_table(params)
    if p <= cdf[0]:
        return -1.0
    if p >= cdf[-1]:
        return 1.0
    i = int(np.searchsorted(cdf, p))
    lo, hi = grid[i - 1], grid[i]
    if cdf[i] == cdf[i - 1]:
        return float(hi)
    from scipy.optimize import brentq

    return float(brentq(lambda r: float(interp(r)) - p, lo, hi, xtol=1e-12))
