"""Seeded stationary panel generators with a prescribed correlation matrix.

Gaussian panels come from a Cholesky factor of the target; Student-t
panels from the Gaussian scale mixture

    x_t = z_t * sqrt(nu / s_t),   z_t ~ N(0, C),  s_t ~ chi^2_nu,

one scale draw per time step, which keeps the linear correlation matrix
exactly C for nu > 2 while giving each margin a density tail ~ |x|^-(nu+1);
the generator takes nu >= MIN_NU.
All draws run on counter-based substreams (see rngutil), so replicas are
independent and reproducible regardless of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrdist import corr_matrix
from .dataio import ReturnPanel, freeze
from .errors import (InvalidParameter, NotPositiveDefinite, checked_int, checked_real,
                     checked_symmetric, checked_type)
from .rngutil import rng_for

_MIN_EIGENVALUE = 1e-10
_REPAIR_FLOOR = 1e-8
_LOADING_RANGE = (0.3, 0.9)  # one-factor loadings; below 1, so C is positive definite

FAMILY_GAUSSIAN = "gaussian"
FAMILY_STUDENT_T = "student-t"
MIN_NU = 3.0  # the chi^2 scale mixture is sampled only from here up
NU_RULE = (lambda nu: MIN_NU <= nu < math.inf, f"a finite number >= {MIN_NU:g}")


def checked_family(family, nu, prefix: str = ""):
    """InvalidParameter unless family is a generator family and nu is, for
    student-t, a nu NU_RULE accepts, and None otherwise; prefix names both."""
    if family == FAMILY_STUDENT_T:
        checked_real("nu", nu, *NU_RULE)
    elif nu is not None:
        raise InvalidParameter(f"{prefix}nu must be None unless {prefix}family is "
                               f"{FAMILY_STUDENT_T!r}, got {nu!r}")
    elif family != FAMILY_GAUSSIAN:
        raise InvalidParameter(f"unknown {prefix}family {family!r}")


@dataclass(frozen=True)
class TrueCorrelation:
    """Population correlation matrix a generator treats as exact truth."""

    entries: np.ndarray
    repaired: bool = False

    def __post_init__(self):
        (entries,) = freeze(self, entries=checked_symmetric)
        if np.abs(np.diag(entries) - 1.0).max() > 1e-10:
            raise InvalidParameter("correlation entries need a unit diagonal")
        smallest = float(np.linalg.eigvalsh(entries)[0])
        if smallest <= _MIN_EIGENVALUE:
            raise NotPositiveDefinite(
                f"true correlation must be positive definite, "
                f"smallest eigenvalue {smallest:.3e}"
            )

    @property
    def n_series(self) -> int:
        return self.entries.shape[0]


def cholesky(matrix) -> np.ndarray:
    """Lower-triangular L with L @ L.T equal to the matrix (checked_symmetric first,
    as np.linalg.cholesky reads only the lower triangle)."""
    mat = checked_symmetric("matrix", matrix)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None


def synthetic_tickers(n: int) -> tuple[str, ...]:
    """Ticker names S0, S1, ... (zero-padded) of an N-row synthetic panel."""
    checked_int("N", n, 1)
    width = len(str(n - 1))
    return tuple(f"S{i:0{width}d}" for i in range(n))


def draw_variates(n_series: int, n_steps: int, seed: int, family: str,
                  nu: float | None = None, replica: int = 0):
    """(z, scale) on substream (seed, "<family>-panel", replica): z is n_series x n_steps
    standard normals, scale the Student-t step factors sqrt(nu / s_t), one chi^2_nu draw
    s_t per step, or None for a Gaussian.

    sample_panel's columns are (lower @ z) * scale; mc_band works on z itself, so
    their replica k is one stream.
    """
    rng = rng_for(seed, f"{family}-panel", replica)
    z = rng.standard_normal((n_series, n_steps))
    if family == FAMILY_STUDENT_T:
        return z, np.sqrt(nu / rng.chisquare(nu, size=n_steps))
    return z, None


def sample_panel(truth: TrueCorrelation, n_steps: int, seed: int, family: str,
                 nu: float | None = None, replica: int = 0) -> ReturnPanel:
    """Panel of n_steps i.i.d. family columns with correlation truth, one
    series per row of truth, deterministic per (seed, replica)."""
    checked_family(family, nu)
    checked_int("n_steps", n_steps, 1)
    checked_type("truth", truth, TrueCorrelation)
    z, scale = draw_variates(truth.n_series, n_steps, seed, family, nu, replica)
    returns = cholesky(truth.entries) @ z
    if scale is not None:
        returns *= scale[None, :]
    times = tuple(str(k) for k in range(n_steps))
    return ReturnPanel(synthetic_tickers(truth.n_series), times, returns)


def sample_estimate_as_truth(panel) -> TrueCorrelation:
    """Full-sample correlation estimate promoted to truth.

    A rank-deficient or indefinite estimate (N > T) is repaired
    by clipping eigenvalues at 1e-8 and renormalizing the diagonal; the
    repair is recorded on the result.
    """
    estimate = corr_matrix(panel).entries
    try:
        return TrueCorrelation(estimate)
    except NotPositiveDefinite:
        pass
    eigvals, eigvecs = np.linalg.eigh(estimate)
    clipped = (eigvecs * np.maximum(eigvals, _REPAIR_FLOOR)) @ eigvecs.T
    d = np.sqrt(np.diag(clipped))
    repaired = clipped / np.outer(d, d)
    np.fill_diagonal(repaired, 1.0)
    return TrueCorrelation(repaired, repaired=True)


# --- correlation model builders used by fixtures and the command line ---


def identity_correlation(n: int) -> TrueCorrelation:
    checked_int("N", n, 1)
    return TrueCorrelation(np.eye(n))


def equicorr_correlation(n: int, rho: float) -> TrueCorrelation:
    """All off-diagonals equal to rho; PD for rho in (-1/(N-1), 1)."""
    checked_int("N", n, 2)
    checked_real("rho", rho, lambda r: -1.0 / (n - 1) < r < 1.0, f"a number in (-1/{n - 1}, 1)")
    c = np.full((n, n), float(rho))
    np.fill_diagonal(c, 1.0)
    return TrueCorrelation(c)


def one_factor_correlation(n: int, seed: int) -> TrueCorrelation:
    """C = beta beta^T + diag(1 - beta^2) with seeded uniform loadings."""
    checked_int("N", n, 1)
    beta = rng_for(seed, "one-factor-loadings").uniform(*_LOADING_RANGE, size=n)
    c = np.outer(beta, beta)
    np.fill_diagonal(c, 1.0)
    return TrueCorrelation(c)
