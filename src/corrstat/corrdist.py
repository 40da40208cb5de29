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

Both take rho of any shape and return its shape.  The log density is -inf
at rho = +-1 (T > 4).  The CDF clips atanh(rho) to its panel range: a
sample clipped from below has a zero-width partial panel, so F = 0
exactly, and np.where sets F = 1 at or above the top edge.

scipy.special is the only scipy module the package uses.  hyp2f1 is
imported inside the function that evaluates the law, as the global
test's ks_pvalue imports kolmogorov, so a process that only builds
correlation matrices never loads scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataio import MAX_T, MIN_T, CovarianceMatrix, ReturnPanel, checked_window, gated_rows
from .errors import (InvalidParameter, NumericsError, checked_array, checked_int, checked_real,
                     checked_type)

RHO_BAR_LIMIT = 1.0 - 1e-12
RHO_BAR_RULE = (lambda r: abs(r) <= RHO_BAR_LIMIT,
                f"a number in [-{RHO_BAR_LIMIT!r}, {RHO_BAR_LIMIT!r}]")


@dataclass(frozen=True)
class CorrParams:
    """True correlation and sample length behind a measured coefficient."""

    rho_bar: float
    n_obs: int

    def __post_init__(self):
        object.__setattr__(self, "rho_bar", checked_real("rho_bar", self.rho_bar, *RHO_BAR_RULE))
        object.__setattr__(self, "n_obs", checked_int("n_obs", self.n_obs, MIN_T, MAX_T))


class CorrMoments(NamedTuple):
    mean: float
    variance: float
    m_p: float
    sigma_p: float


def corr_matrix(panel, window: tuple[int, int] | None = None) -> CovarianceMatrix:
    """Pairwise Pearson matrix on a column range (default: full sample).

    A correlation matrix is the covariance of the rows standardized over
    the range itself, so the result is a CovarianceMatrix.
    """
    lo, hi = checked_window(checked_type("panel", panel, ReturnPanel).n_steps, window, MIN_T)
    centered, sd = gated_rows(panel.returns, panel.tickers, (lo, hi))
    z = centered / sd
    c = (z @ z.T) / (hi - lo)
    np.fill_diagonal(c, 1.0)
    np.clip(c, -1.0, 1.0, out=c)
    return CovarianceMatrix(panel.tickers, c, (lo, hi))


# ---------------------------------------------------------------------------
# density


def _checked_rho(rho):
    """rho as a float array of its own shape; a finite |rho| > 1 is rejected."""
    rho = checked_array("rho", rho)
    if not np.all(np.abs(rho) <= 1.0):
        raise InvalidParameter("rho must lie in [-1, 1]")
    return rho


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
    """log rho_density, of rho's shape; -inf at rho = +-1, as T - 4 > 0."""
    rho = _checked_rho(rho)
    a = rho * checked_type("params", params, CorrParams).rho_bar
    with np.errstate(divide="ignore"):
        return _log_law(np.log1p(-rho) + np.log1p(rho), a, np.log1p(-a), params)[()]


def rho_density(rho, params: CorrParams):
    """Exact sampling density of the measured coefficient at rho."""
    return np.exp(rho_logdensity(rho, params))


def rho_moments(params: CorrParams) -> CorrMoments:
    """Truncated-series mean/variance plus the Gaussian (m_P, sigma_P)."""
    rb = checked_type("params", params, CorrParams).rho_bar
    t = float(params.n_obs)
    one = 1.0 - rb * rb
    mean = rb - rb * one / (2.0 * t)
    variance = one * one / t * (1.0 + 11.0 * rb * rb / (2.0 * t))
    return CorrMoments(mean, variance, rb, one / math.sqrt(t))


def gaussian_approx_density(rho, params: CorrParams):
    """N(m_P, sigma_P) density at any finite real rho; NaN and +-inf raise DomainError."""
    m = rho_moments(params)
    z = (checked_array("rho", rho) - m.m_p) / m.sigma_p
    return np.exp(-0.5 * z * z) / (m.sigma_p * math.sqrt(2.0 * math.pi))


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
    nodes = (lo + half)[..., None] + half[..., None] * _GL_X
    return half * (np.exp(_z_logdensity(nodes, params)) @ _GL_W)


def rho_cdf(rho, params: CorrParams):
    """P(measured coefficient <= rho), integrated up to each rho in z-space.

    _PANELS equal panels cover atanh(rho_bar) +- _Z_HALF_WIDTH/sqrt(T-3);
    F(rho) is the mass of the whole panels below atanh(rho) plus one
    partial panel up to it, over the total mass.  atanh(rho) is clipped to the
    range: below it the partial panel has zero width (F = 0), at its top np.where sets F = 1.
    """
    rho = _checked_rho(rho)
    z0 = math.atanh(checked_type("params", params, CorrParams).rho_bar)
    reach = _Z_HALF_WIDTH / math.sqrt(params.n_obs - 3.0)
    edges = np.linspace(z0 - reach, z0 + reach, _PANELS + 1)
    masses = _panel_masses(edges[:-1], 0.5 * np.diff(edges), params)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = float(cum[-1])
    if abs(total - 1.0) > _MASS_TOL:
        raise NumericsError(f"density mass {total!r} deviates from 1 beyond {_MASS_TOL:g}")
    with np.errstate(divide="ignore"):
        z = np.clip(np.arctanh(rho), edges[0], edges[-1])
    k = np.searchsorted(edges, z, side="right").clip(1, _PANELS) - 1
    lo = edges[k]
    partial = (cum[k] + _panel_masses(lo, 0.5 * (z - lo), params)) / total
    return np.where(z < edges[-1], partial, 1.0)[()]
