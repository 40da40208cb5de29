import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import corrdist, portfolio
from corrstat.corrdist import CorrParams
from corrstat.errors import InvalidParameter

from _oracles import (
    cdf_quad,
    covariance_loops,
    density_quad,
    numeric_moments,
)
from conftest import make_panel


def test_corr_params_validation():
    CorrParams(0.0, 10)
    CorrParams(-0.999, 1758)
    with pytest.raises(InvalidParameter):
        CorrParams(1.0, 50)
    with pytest.raises(InvalidParameter):
        CorrParams(0.2, 9)
    with pytest.raises(InvalidParameter):
        CorrParams(0.2, 50.5)


def test_corr_matrix_matches_loops():
    rng = np.random.default_rng(2)
    panel = make_panel(rng.normal(size=(4, 40)))
    corr = corrdist.corr_matrix(panel)
    cov = covariance_loops(panel.returns)
    d = np.sqrt(np.diag(cov))
    ref = cov / np.outer(d, d)
    assert np.abs(corr.entries - ref).max() < 1e-12
    assert np.array_equal(np.diag(corr.entries), np.ones(4))


def test_corr_matrix_windowed():
    rng = np.random.default_rng(3)
    panel = make_panel(rng.normal(size=(3, 60)))
    corr = corrdist.corr_matrix(panel, window=(20, 50))
    ref = covariance_loops(panel.returns[:, 20:50])
    d = np.sqrt(np.diag(ref))
    assert np.abs(corr.entries - ref / np.outer(d, d)).max() < 1e-12
    assert corr.window == (20, 50)


@pytest.mark.parametrize("window", [(0.5, 30.7), (0, 30.0), (np.float64(5), 30)])
def test_windowed_matrices_refuse_non_integer_bounds(window):
    panel = make_panel(np.random.default_rng(3).normal(size=(4, 300)))
    for build in (corrdist.corr_matrix, portfolio.covariance_matrix):
        with pytest.raises(InvalidParameter, match="integers"):
            build(panel, window)
        assert build(panel, (np.int64(0), np.int32(30))).window == (0, 30)


def test_density_matches_adaptive_quadrature():
    for rb, t in ((0.0, 25), (0.3, 50), (-0.6, 150), (0.9, 25), (0.5, 10),
                  (-0.99, 25), (0.999, 50), (0.3, 1000), (-0.95, 1000)):
        params = CorrParams(rb, t)
        for rho in (-0.7, -0.2, 0.0, 0.4, 0.85, 0.995):
            mine = float(corrdist.rho_density(rho, params))
            ref = density_quad(rho, rb, t)
            assert abs(mine - ref) <= 1e-10 * max(ref, 1.0), (rb, t, rho)


def test_density_mirror_symmetry():
    params = CorrParams(0.45, 60)
    mirror = CorrParams(-0.45, 60)
    grid = np.linspace(-0.95, 0.95, 39)
    assert np.abs(
        corrdist.rho_density(grid, params) - corrdist.rho_density(-grid, mirror)
    ).max() < 1e-12


def test_density_vanishes_at_endpoints():
    params = CorrParams(0.2, 50)
    assert corrdist.rho_density(np.array([-1.0, 1.0]), params).tolist() == [0.0, 0.0]


def test_density_normalization():
    for rb, t in ((0.0, 25), (0.6, 50), (-0.9, 150)):
        params = CorrParams(rb, t)
        total, _, _ = numeric_moments(lambda x: corrdist.rho_density(x, params))
        assert abs(total - 1.0) < 1e-9


def test_density_mass_holds_up_to_max_t():
    # at T = 1e8 the law is 1e-4 wide: integrate it in Fisher z, +-12 sd around atanh(rho_bar)
    x, w = np.polynomial.legendre.leggauss(200)
    for rb in (0.0, 0.3, -0.7, 0.95):
        params = CorrParams(rb, corrdist.MAX_T)
        reach = 12.0 / np.sqrt(corrdist.MAX_T - 3.0)
        z = np.arctanh(rb) + reach * x
        total = reach * float(w @ (corrdist.rho_density(np.tanh(z), params) / np.cosh(z) ** 2))
        assert abs(total - 1.0) < 1e-6, (rb, total)
    message = f"^n_obs must be an integer <= {corrdist.MAX_T}, got {corrdist.MAX_T + 1}$"
    with pytest.raises(InvalidParameter, match=message):
        CorrParams(0.3, corrdist.MAX_T + 1)


def test_numeric_moments_frozen():
    # frozen from a 30-digit mpmath quadrature, cross-checked by a
    # 4M-replica Monte Carlo of the estimator on bivariate Gaussians
    params = CorrParams(0.6, 25)
    _, mean, var = numeric_moments(lambda x: corrdist.rho_density(x, params))
    assert abs(mean - 0.5918250877940372) < 1e-9
    assert abs(var - 0.01848238798084012) < 1e-9
    # at rho_bar = 0 the exact variance is 1/(T-1)
    params0 = CorrParams(0.0, 25)
    _, mean0, var0 = numeric_moments(lambda x: corrdist.rho_density(x, params0))
    assert abs(mean0) < 1e-12
    assert abs(var0 - 1.0 / 24.0) < 1e-12


def test_rho_moments_formulas():
    m = corrdist.rho_moments(CorrParams(0.6, 25))
    assert m.mean == 0.6 - 0.6 * (1 - 0.36) / 50.0
    assert m.variance == (1 - 0.36) ** 2 / 25.0 * (1 + 11 * 0.36 / 50.0)
    assert m.m_p == 0.6
    assert m.sigma_p == (1 - 0.36) / 5.0


def test_gaussian_approx_is_normal_pdf():
    params = CorrParams(0.2, 50)
    m = corrdist.rho_moments(params)
    rho = np.array([-0.3, 0.0, 0.2, 0.55])
    ref = np.exp(-0.5 * ((rho - m.m_p) / m.sigma_p) ** 2) / (
        m.sigma_p * np.sqrt(2 * np.pi)
    )
    assert np.abs(corrdist.gaussian_approx_density(rho, params) - ref).max() < 1e-12


def test_cdf_basics():
    params = CorrParams(0.0, 40)
    assert corrdist.rho_cdf(-1.0, params) == 0.0
    assert corrdist.rho_cdf(1.0, params) == 1.0
    assert abs(corrdist.rho_cdf(0.0, params) - 0.5) < 1e-9
    grid = np.linspace(-1, 1, 101)
    values = corrdist.rho_cdf(grid, params)
    assert np.all(np.diff(values) >= 0)


@pytest.mark.parametrize("rho_bar", [0.0, 0.3, -0.7, 0.95, 1.0 - 1e-6])
@pytest.mark.parametrize("t", [10, 25, 50, 100, 1000])
def test_cdf_mirror_symmetry(rho_bar, t):
    # F(rho; rho_bar) = 1 - F(-rho; -rho_bar), on draws around the law's centre and
    # uniform over [-1, 1]; the worst gap seen over this grid is about 2e-13
    rng = np.random.default_rng(t)
    spread = 3.0 / np.sqrt(t - 3.0)
    rho = np.concatenate([np.tanh(np.arctanh(rho_bar) + spread * rng.normal(size=2000)),
                          rng.uniform(-1.0, 1.0, 2000), [-1.0, 0.0, 1.0]])
    left = corrdist.rho_cdf(rho, CorrParams(rho_bar, t))
    right = corrdist.rho_cdf(-rho, CorrParams(-rho_bar, t))
    assert np.abs(left - (1.0 - right)).max() <= 1e-12


def test_cdf_frozen_value():
    # spec-shaped sanity (within 0.01 of the Gaussian 0.975) plus the
    # frozen exact value of this implementation's CDF machinery
    params = CorrParams(0.2, 50)
    m = corrdist.rho_moments(params)
    value = corrdist.rho_cdf(m.m_p + 1.96 * m.sigma_p, params)
    assert abs(value - 0.975) < 0.01
    assert abs(value - 0.9800415621662433) < 1e-6


@pytest.mark.parametrize("rho_bar, t, rho", [
    (-0.633, 100, -0.6335),  # at the mode, where F is steepest
    (0.98, 10, 0.9), (0.98, 10, 0.99), (-0.98, 10, -0.5), (-0.98, 10, -0.995),
    (0.0, 10, 0.3), (0.5, 25, 0.2), (-0.3, 150, -0.25), (0.98, 1000, 0.981),
    (0.123456789, 1000, 0.1), (0.123456789, 1000, 0.15),  # rho_bar off the 1e-4 grid
])
def test_cdf_matches_adaptive_quadrature(rho_bar, t, rho):
    mine = corrdist.rho_cdf(rho, CorrParams(rho_bar, t))
    assert abs(mine - cdf_quad(rho, rho_bar, t)) <= 1e-10


def test_extreme_plugin_rho_bar():
    # a plug-in clamped at 1 - 1e-9 puts its mass hard against rho = 1
    for t in (150, 25):
        params = CorrParams(1.0 - 1e-9, t)
        assert corrdist.rho_cdf(0.9, params) < 1e-6
        assert corrdist.rho_cdf(1.0, params) == 1.0
        grid = np.linspace(0.99, 1.0, 41)
        values = corrdist.rho_cdf(grid, params)
        assert np.all(np.diff(values) >= 0)


def test_cdf_endpoints_exact_at_every_t():
    # rho = +-1 lie outside every z range, so their CDF is exactly 0 and 1
    keys = (corrdist.RHO_BAR_LIMIT, -corrdist.RHO_BAR_LIMIT, 0.9999)
    for t in range(10, 200):
        for rho_bar in keys:
            params = CorrParams(rho_bar, t)
            assert corrdist.rho_cdf(1.0, params) == 1.0, (t, rho_bar)
            assert corrdist.rho_cdf(-1.0, params) == 0.0, (t, rho_bar)
            ends = corrdist.rho_cdf(np.array([-1.0, 1.0]), params)
            assert ends.tolist() == [0.0, 1.0], (t, rho_bar)


def test_cdf_concurrent_calls_deterministic():
    params = CorrParams(0.31415, 60)
    grid = np.linspace(-0.9, 0.9, 7)
    results = [None] * 8

    def worker(k):
        results[k] = corrdist.rho_cdf(grid, params).tolist()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    serial = corrdist.rho_cdf(grid, params).tolist()
    assert all(r == serial for r in results)


def test_moments_tighten_with_t():
    # the sampling distribution narrows as the window grows
    for rb in (0.0, 0.3, 0.6):
        var_50 = numeric_moments(
            lambda x: corrdist.rho_density(x, CorrParams(rb, 50)))[2]
        var_150 = numeric_moments(
            lambda x: corrdist.rho_density(x, CorrParams(rb, 150)))[2]
        assert var_150 < var_50


@given(
    st.floats(-0.95, 0.95),
    st.integers(10, 200),
    st.floats(-0.999, 0.999),
)
def test_density_nonnegative(rho_bar, t, rho):
    value = float(corrdist.rho_density(rho, CorrParams(rho_bar, t)))
    assert value >= 0.0
    assert np.isfinite(value)
