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

The CDF is integrated at the points asked for, in Fisher's z = atanh(rho)
(Fisher 1921), where the law is close to N(atanh(rho_bar), 1/(T-3)) for
any rho_bar; there is no table and no state.

scipy.special is the only scipy module used, and it is imported inside
the function that evaluates the law, so a process that only builds
correlation matrices never loads scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _checked_rho(rho):
    """rho as a float array; NaN and |rho| > 1 are rejected."""
    rho_arr = np.asarray(rho, dtype=np.float64)
    if not np.all(np.abs(rho_arr) <= 1.0):
        raise InvalidParameter("rho must lie in [-1, 1]")
    return rho_arr


def _log_law(log_1m_rho2, a, log_1m_a, params: CorrParams):
    """Hotelling's log P(rho) from log(1-rho^2), a = rho*rho_bar and log(1-a)."""
    from scipy.special import hyp2f1

    t = float(params.n_obs)
    rb = params.rho_bar
    const = (
        math.log(t - 2.0)
        - math.log(math.pi)
        + 0.5 * (t - 1.0) * (math.log1p(-rb) + math.log1p(rb))
    )
    integral_const = (
        0.5 * math.log(0.5 * math.pi) + math.lgamma(t - 1.0) - math.lgamma(t - 0.5)
    )
    return (
        const
        + 0.5 * (t - 4.0) * log_1m_rho2
        + (
            integral_const
            - (t - 1.5) * log_1m_a
            + np.log(hyp2f1(0.5, 0.5, t - 0.5, 0.5 * (1.0 + a)))
        )
    )


def rho_logdensity(rho, params: CorrParams):
    """log rho_density; -inf at the endpoints rho = +-1 (where T > 4)."""
    rho_arr = _checked_rho(rho)
    flat = np.atleast_1d(rho_arr).ravel()
    out = np.full(flat.shape, -np.inf)
    interior = np.abs(flat) < 1.0
    ri = flat[interior]
    if ri.size:
        a = ri * params.rho_bar
        out[interior] = _log_law(np.log1p(-ri) + np.log1p(ri), a, np.log1p(-a), params)
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
# CDF at the samples, by quadrature in Fisher-z space

_MASS_TOL = 5e-6
_PANELS = 64
_Z_HALF_WIDTH = 10.0  # in units of the Fisher-z scale 1/sqrt(T-3)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(7)


def _z_logdensity(z, params: CorrParams):
    """log density of z = atanh(rho): the law at tanh z times sech^2 z.

    log(1-rho^2) is -2 log cosh z, and 1 - rho*rho_bar is the sum of
    non-negative terms (1-|rho_bar|) + |rho_bar| (1 - tanh(sign(rho_bar) z)),
    so neither loses digits where rho rounds to +-1.
    """
    rb = params.rho_bar
    u = np.exp(-2.0 * np.abs(z))
    log_1m_rho2 = -2.0 * (np.abs(z) + np.log1p(u) - math.log(2.0))
    one_minus_tanh = np.where(rb * z >= 0.0, 2.0 * u, 2.0) / (1.0 + u)
    one_minus_a = (1.0 - abs(rb)) + abs(rb) * one_minus_tanh
    return _log_law(log_1m_rho2, 1.0 - one_minus_a, np.log(one_minus_a), params) + log_1m_rho2


def _panel_masses(lo, half, params: CorrParams):
    """7-node Gauss-Legendre mass of the z density on each [lo, lo + 2 half]."""
    nodes = (lo + half)[:, None] + half[:, None] * _GL_X
    return half * (np.exp(_z_logdensity(nodes, params)) @ _GL_W)


def rho_cdf(rho, params: CorrParams):
    """P(measured coefficient <= rho), integrated up to each rho in z-space.

    _PANELS equal panels cover atanh(rho_bar) +- _Z_HALF_WIDTH/sqrt(T-3);
    F(rho) is the mass of the whole panels below atanh(rho) plus one
    partial panel up to it, over the total mass.  Below the range F is 0,
    above it 1, so rho = -1 and rho = 1 are exact.
    """
    rho_arr = _checked_rho(rho)
    flat = np.atleast_1d(rho_arr).ravel()
    z0 = math.atanh(params.rho_bar)
    reach = _Z_HALF_WIDTH / math.sqrt(params.n_obs - 3.0)
    edges = np.linspace(z0 - reach, z0 + reach, _PANELS + 1)
    masses = _panel_masses(edges[:-1], 0.5 * np.diff(edges), params)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = float(cum[-1])
    if abs(total - 1.0) > _MASS_TOL:
        raise NumericsError(
            f"density mass {total!r} deviates from 1 beyond {_MASS_TOL:g}",
            error_estimate=abs(total - 1.0),
        )
    with np.errstate(divide="ignore"):
        z = np.arctanh(flat)
    out = (z >= edges[-1]).astype(np.float64)
    inside = (z >= edges[0]) & (z < edges[-1])
    if inside.any():
        zi = z[inside]
        k = np.searchsorted(edges, zi, side="right") - 1
        lo = edges[k]
        out[inside] = (cum[k] + _panel_masses(lo, 0.5 * (zi - lo), params)) / total
    return float(out[0]) if rho_arr.ndim == 0 else out.reshape(rho_arr.shape)


def rho_quantile(p, params: CorrParams) -> float:
    """Smallest rho with rho_cdf(rho) >= p, by bisection to 1e-12."""
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter(f"quantile level must lie in [0, 1], got {p!r}")
    if p in (0.0, 1.0):
        return 2.0 * p - 1.0
    lo, hi = -1.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if rho_cdf(mid, params) >= p:
            hi = mid
        else:
            lo = mid
    return hi
