"""Spectral diagnostics of correlation matrices.

The largest eigenvalue tracks the market mode, the next few carry
sector structure, and the inverse participation ratio of the market
eigenvector measures how evenly stocks load on it.  Window-to-window
relative changes in these three quantities, taken together, separate
market-wide shocks from sector reshuffling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataio import ReturnPanel, freeze
from .errors import (
    InvalidParameter,
    NotNormalized,
    NumericsError,
    checked_array,
    checked_int,
    checked_real,
    checked_symmetric,
)

_ORTHO_TOL = 1e-10
_RECON_TOL = 1e-8
_GAP_SCALE = 1e-8
_COMPONENT_FLOOR = 1e-12
DEFAULT_SECTOR_COUNT = 3
# (name, ok, bound) of the market, sector and IPR co-occurrence thresholds
THRESHOLD_RULES = (("market", lambda t: t >= 0, "a number >= 0"),
                   ("sector", lambda t: t <= 0, "a number <= 0"),
                   ("ipr", lambda t: t <= 0, "a number <= 0"))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues ascending; eigenvectors[:, k] belongs to eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam, vec = freeze(self, eigenvalues=1, eigenvectors=2)
        n = lam.size
        if vec.shape != (n, n):
            raise InvalidParameter("eigenvector matrix must be N x N")
        if n < 1:
            raise InvalidParameter("an eigensystem needs at least one eigenvalue")
        if not np.all(np.diff(lam) >= 0):
            raise InvalidParameter("eigenvalues must be ascending")
        gram_gap = float(np.abs(vec.T @ vec - np.eye(n)).max())
        if not gram_gap <= _ORTHO_TOL:
            raise NumericsError(f"eigenvectors not orthonormal, gram gap {gram_gap:.3e}")

    @property
    def n_series(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class SpectralSnapshot:
    """Market eigenvalue, sector sum, and market-mode IPR for one window."""

    window: tuple[int, int] | None
    lambda_market: float
    lambda_sector: float
    ipr_market: float
    ipr_unstable: bool


@dataclass(frozen=True)
class SpectralDelta:
    """Relative changes (x2 - x1) / x1; d_ipr is None when unstable."""

    d_market: float
    d_sector: float
    d_ipr: float | None


class PCAComponents(NamedTuple):
    indices: tuple[int, ...]
    series: np.ndarray  # one row per retained component


class MarketResidual(NamedTuple):
    total: float
    per_stock: np.ndarray


def eig_sym(matrix) -> EigenSystem:
    """Full eigensystem of a symmetric matrix, ascending order.

    Each eigenvector is flipped so its largest-magnitude component is
    positive, removing the sign ambiguity across platforms.
    """
    c = checked_symmetric("matrix", getattr(matrix, "entries", matrix))
    lam, vec = np.linalg.eigh(c)
    flip = vec[np.argmax(np.abs(vec), axis=0), np.arange(lam.size)] < 0
    vec[:, flip] = -vec[:, flip]
    recon_gap = float(np.abs((vec * lam) @ vec.T - c).max())
    if recon_gap > _RECON_TOL * max(1.0, float(np.abs(c).max())):
        raise NumericsError(f"eigendecomposition reconstruction gap {recon_gap:.3e}")
    return EigenSystem(lam, vec)


def ipr(vector) -> float:
    """Inverse participation ratio sum_i v_i^4 of a unit vector."""
    v = checked_array("vector", vector, 1)
    norm_gap = abs(float(v @ v) - 1.0)
    if norm_gap > _ORTHO_TOL:
        raise NotNormalized(f"vector norm off by {norm_gap:.3e}")
    return float(np.sum(v ** 4))


def spectral_snapshot(corr, sectors: int = DEFAULT_SECTOR_COUNT) -> SpectralSnapshot:
    """Market / sector / IPR summary of one correlation matrix.

    The market eigenvalue is the largest; the sector sum covers the next
    ``sectors`` eigenvalues.  When the top of the spectrum is degenerate
    (gap below 1e-8 N) the market eigenvector is arbitrary within its
    eigenspace, so the IPR is flagged unstable.
    """
    eig = eig_sym(corr)
    n = eig.n_series
    if n <= checked_int("sectors", sectors, 1) + 1:
        raise InvalidParameter(
            f"need more than sectors + 1 = {sectors + 1} series, got {n}"
        )
    trace_gap = abs(float(eig.eigenvalues.sum()) - n)
    if trace_gap > 1e-10 * n:
        raise NumericsError(
            f"trace deviates from N by {trace_gap:.3e}; not a correlation matrix")
    lam = eig.eigenvalues
    gap = float(lam[-1] - lam[-2])
    return SpectralSnapshot(
        window=getattr(corr, "window", None),
        lambda_market=float(lam[-1]),
        lambda_sector=float(lam[-1 - sectors:-1].sum()),
        ipr_market=ipr(eig.eigenvectors[:, -1]),
        ipr_unstable=gap < _GAP_SCALE * n,
    )


def _relative(before: float, after: float) -> float:
    if before == 0.0:
        raise InvalidParameter("relative change undefined from a zero value")
    return (after - before) / before


def spectral_delta(first: SpectralSnapshot, second: SpectralSnapshot) -> SpectralDelta:
    """Window-to-window relative changes; IPR delta suppressed if unstable."""
    d_ipr = None
    if not (first.ipr_unstable or second.ipr_unstable):
        d_ipr = _relative(first.ipr_market, second.ipr_market)
    return SpectralDelta(
        d_market=_relative(first.lambda_market, second.lambda_market),
        d_sector=_relative(first.lambda_sector, second.lambda_sector),
        d_ipr=d_ipr,
    )


def co_occurrence_flag(delta: SpectralDelta,
                       thresholds: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> bool:
    """Market up while sector and IPR move down, beyond the thresholds.

    A suppressed IPR delta can never certify co-occurrence, so it yields
    False.
    """
    try:
        theta_m, theta_s, theta_i = (
            checked_real(f"{name} threshold", theta, ok, bound)
            for (name, ok, bound), theta in zip(THRESHOLD_RULES, thresholds, strict=True))
    except (TypeError, ValueError):  # not iterable, or not three long
        raise InvalidParameter(
            f"thresholds must be three numbers (market, sector, ipr), got {thresholds!r}"
        ) from None
    if delta.d_ipr is None:
        return False
    return (delta.d_market > theta_m
            and delta.d_sector < theta_s
            and delta.d_ipr < theta_i)


def pca_decompose(panel: ReturnPanel, eig: EigenSystem) -> PCAComponents:
    """Eigenmode time series e_l(t) = (1/sqrt(lambda_l)) sum_i v_l^i r_i(t).

    The panel must be the standardized sample the eigensystem was computed
    from; then the retained components are mutually uncorrelated with unit
    variance.  Components at numerically zero eigenvalues carry no
    variance and are dropped.
    """
    if panel.n_series != eig.n_series:
        raise InvalidParameter("panel and eigensystem dimensions differ")
    lam = eig.eigenvalues
    retained = np.flatnonzero(lam > _COMPONENT_FLOOR)
    series = (eig.eigenvectors[:, retained].T @ panel.returns) / np.sqrt(lam[retained])[:, None]
    return PCAComponents(tuple(retained.tolist()), series)


def market_mode_residual(eig: EigenSystem) -> MarketResidual:
    """Variance fraction the market mode leaves unexplained.

    Total is 1 - lambda_N / N; per stock it is 1 - lambda_N (v_N^i)^2,
    the unexplained share of that stock's unit variance.
    """
    lam_market = float(eig.eigenvalues[-1])
    v_market = eig.eigenvectors[:, -1]
    n = eig.n_series
    per_stock = 1.0 - lam_market * v_market ** 2
    return MarketResidual(1.0 - lam_market / n, per_stock)
