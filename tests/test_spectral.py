import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import corrdist, dataio, spectral, synthgen
from corrstat.errors import (
    InvalidParameter,
    NotNormalized,
    NotSymmetric,
    NumericsError,
)
from corrstat.spectral import EigenSystem, SpectralSnapshot

from _oracles import jacobi_eig
from conftest import gaussian_panel, make_panel


def random_corr(seed, n, t=200):
    return synthgen.sample_estimate_as_truth(gaussian_panel(n, t, seed=seed))


def test_eig_two_by_two():
    eig = spectral.eig_sym(np.array([[1.0, 0.3], [0.3, 1.0]]))
    assert np.abs(eig.eigenvalues - [0.7, 1.3]).max() < 1e-14
    s = 1.0 / np.sqrt(2.0)
    assert np.abs(eig.eigenvectors[:, 0] - [s, -s]).max() < 1e-14
    assert np.abs(eig.eigenvectors[:, 1] - [s, s]).max() < 1e-14


def test_eig_equicorr_closed_form():
    n, rho = 12, 0.35
    eig = spectral.eig_sym(synthgen.equicorr_correlation(n, rho))
    lam = eig.eigenvalues
    assert abs(lam[-1] - (1 + (n - 1) * rho)) < 1e-10
    assert np.abs(lam[:-1] - (1 - rho)).max() < 1e-10


def test_eig_matches_jacobi_oracle():
    for seed, n in ((1, 4), (2, 6), (3, 8)):
        corr = random_corr(seed, n)
        eig = spectral.eig_sym(corr)
        ref_lam, _ = jacobi_eig(corr.entries)
        assert np.abs(eig.eigenvalues - ref_lam).max() < 1e-10
        recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        assert np.abs(recon - corr.entries).max() < 1e-10
        v = eig.eigenvectors[:, -1]
        assert abs(eig.eigenvalues.sum() - n) < 1e-10  # unit-trace input
        assert abs(float(v @ v) - 1.0) < 1e-12


@pytest.mark.parametrize("n, seed", [(2, 0), (6, 1), (40, 2)])
def test_eig_sym_flips_each_vector_to_a_positive_largest_component(n, seed):
    c = corrdist.corr_matrix(gaussian_panel(n, 120, seed=seed)).entries
    eig = spectral.eig_sym(c)
    _, vec = np.linalg.eigh(0.5 * (c + c.T))
    for k in range(n):  # the column-by-column convention, compared bit for bit
        lead = np.argmax(np.abs(vec[:, k]))
        expected = -vec[:, k] if vec[lead, k] < 0 else vec[:, k]
        assert expected[lead] > 0
        assert np.array_equal(eig.eigenvectors[:, k], expected)


def test_eig_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        spectral.eig_sym(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_eig_symmetry_bound_scales_with_the_entries():
    # 1e-12 max(1, max |entry|) is 1e-8 for this 1e4-scale matrix
    c = 1e4 * np.array([[2.0, 0.5], [0.5, 1.0]])
    c[1, 0] += 1e-9
    assert np.array_equal(spectral.eig_sym(c).eigenvalues,
                          np.linalg.eigh(0.5 * (c + c.T))[0])
    c[1, 0] += 1e-7  # the message names the bound applied, 1e-12 max |entry| = 2e-8
    with pytest.raises(NotSymmetric, match=r"^asymmetry 1\.0[0-9]{2}e-07 exceeds 2\.000e-08$"):
        spectral.eig_sym(c)


def test_eigensystem_validation():
    with pytest.raises(InvalidParameter):
        EigenSystem(np.array([2.0, 1.0]), np.eye(2))
    with pytest.raises(NumericsError):
        EigenSystem(np.array([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_ipr_values():
    n = 16
    assert abs(spectral.ipr(np.full(n, 1.0 / np.sqrt(n))) - 1.0 / n) < 1e-14
    basis = np.zeros(n)
    basis[3] = 1.0
    assert spectral.ipr(basis) == 1.0
    with pytest.raises(NotNormalized):
        spectral.ipr(np.array([1.0, 1.0]))


def test_ipr_bounds_random_unit_vectors():
    rng = np.random.default_rng(5)
    n = 25
    for _ in range(200):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        value = spectral.ipr(v)
        assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12


def test_snapshot_equicorr():
    corr = synthgen.equicorr_correlation(10, 0.5)
    snap = spectral.spectral_snapshot(corr)
    assert abs(snap.lambda_market - 5.5) < 1e-10
    assert abs(snap.lambda_sector - 1.5) < 1e-10
    assert abs(snap.ipr_market - 0.1) < 1e-10
    assert snap.ipr_unstable is False
    assert snap.window is None


def test_snapshot_identity_degenerate():
    snap = spectral.spectral_snapshot(synthgen.identity_correlation(10))
    assert abs(snap.lambda_market - 1.0) < 1e-12
    assert abs(snap.lambda_sector - 3.0) < 1e-12
    assert snap.ipr_unstable is True


def test_snapshot_window_passthrough():
    panel = gaussian_panel(6, 120, seed=7)
    corr = corrdist.corr_matrix(panel, (10, 60))
    snap = spectral.spectral_snapshot(corr)
    assert snap.window == (10, 60)


@given(st.integers(0, 2 ** 32 - 1))
def test_snapshot_ignores_ticker_order_and_row_scale(seed):
    panel = gaussian_panel(8, 300, seed=5)
    rng = np.random.default_rng(seed)
    scale, shift = np.exp(rng.normal(size=(8, 1))), rng.normal(size=(8, 1))
    base = spectral.spectral_snapshot(corrdist.corr_matrix(panel, (0, 100)), sectors=2)
    for moved in (panel.select(rng.permutation(8)),
                  make_panel(scale * panel.returns + shift)):
        snap = spectral.spectral_snapshot(corrdist.corr_matrix(moved, (0, 100)), sectors=2)
        assert (snap.window, snap.ipr_unstable) == (base.window, base.ipr_unstable)
        for name in ("lambda_market", "lambda_sector", "ipr_market"):
            ref = getattr(base, name)
            assert abs(getattr(snap, name) - ref) <= 1e-12 * abs(ref), name


def test_snapshot_guards():
    with pytest.raises(InvalidParameter):
        spectral.spectral_snapshot(synthgen.identity_correlation(4), sectors=3)
    with pytest.raises(InvalidParameter):
        spectral.spectral_snapshot(synthgen.identity_correlation(10), sectors=0)
    with pytest.raises(NumericsError):
        spectral.spectral_snapshot(2.0 * np.eye(10))  # trace 2N: a covariance


def test_delta_arithmetic():
    before = SpectralSnapshot(None, 19.47, 7.93, 0.0477, False)
    after = SpectralSnapshot(None, 30.15, 5.99, 0.0365, False)
    delta = spectral.spectral_delta(before, after)
    assert abs(delta.d_market - (30.15 / 19.47 - 1.0)) < 1e-12
    assert abs(delta.d_sector - (5.99 / 7.93 - 1.0)) < 1e-12
    assert abs(delta.d_ipr - (0.0365 / 0.0477 - 1.0)) < 1e-12
    assert delta.d_market > 0.54
    assert delta.d_sector < -0.24
    assert delta.d_ipr < -0.23
    assert spectral.co_occurrence_flag(delta) is True
    assert spectral.co_occurrence_flag(delta, (0.6, 0.0, 0.0)) is False
    assert spectral.co_occurrence_flag(delta, (0.0, -0.3, 0.0)) is False


def test_delta_suppressed_ipr():
    before = SpectralSnapshot(None, 2.0, 1.0, 0.3, True)
    after = SpectralSnapshot(None, 3.0, 0.5, 0.2, False)
    delta = spectral.spectral_delta(before, after)
    assert delta.d_ipr is None
    assert delta.d_market == 0.5
    assert spectral.co_occurrence_flag(delta) is False


def test_delta_zero_base():
    before = SpectralSnapshot(None, 0.0, 1.0, 0.3, False)
    after = SpectralSnapshot(None, 1.0, 1.0, 0.3, False)
    with pytest.raises(InvalidParameter):
        spectral.spectral_delta(before, after)


def test_co_occurrence_threshold_validation():
    delta = spectral.SpectralDelta(0.5, -0.2, -0.2)
    with pytest.raises(InvalidParameter):
        spectral.co_occurrence_flag(delta, (-0.1, 0.0, 0.0))
    with pytest.raises(InvalidParameter):
        spectral.co_occurrence_flag(delta, (0.0, 0.1, 0.0))
    with pytest.raises(InvalidParameter):
        spectral.co_occurrence_flag(delta, (0.0, 0.0, 0.1))


@pytest.mark.parametrize("thresholds", [(0, 0), (0, 0, 0, 0), 0.0, None])
def test_thresholds_that_are_not_three_numbers_are_named(thresholds):
    delta = spectral.SpectralDelta(0.5, -0.2, -0.2)
    with pytest.raises(InvalidParameter, match="^thresholds must be three numbers "):
        spectral.co_occurrence_flag(delta, thresholds)


def test_pca_guarantees():
    panel = dataio.standardize(gaussian_panel(5, 300, seed=9))
    eig = spectral.eig_sym(corrdist.corr_matrix(panel))
    comps = spectral.pca_decompose(panel, eig)
    assert comps.indices == (0, 1, 2, 3, 4)
    e = comps.series
    for row, k in zip(e, comps.indices):  # the one-component formula
        direct = (eig.eigenvectors[:, k] @ panel.returns) / np.sqrt(eig.eigenvalues[k])
        assert np.abs(row - direct).max() < 1e-12
    cov = (e @ e.T) / e.shape[1] - np.outer(e.mean(axis=1), e.mean(axis=1))
    assert np.abs(cov - np.eye(5)).max() < 1e-8
    recon = (eig.eigenvectors * np.sqrt(eig.eigenvalues)) @ e
    assert np.abs(recon - panel.returns).max() < 1e-8


def test_pca_degenerate_component():
    x = np.linspace(-1.0, 1.0, 50)
    panel = dataio.standardize(make_panel(np.vstack([x, 2.0 * x])))
    eig = spectral.eig_sym(corrdist.corr_matrix(panel))
    comps = spectral.pca_decompose(panel, eig)
    assert comps.indices == (1,)  # the zero mode is dropped


def test_market_residual_closed_forms():
    eig = spectral.eig_sym(synthgen.identity_correlation(10))
    res = spectral.market_mode_residual(eig)
    assert abs(res.total - 0.9) < 1e-12
    eig = spectral.eig_sym(synthgen.equicorr_correlation(10, 0.5))
    res = spectral.market_mode_residual(eig)
    assert abs(res.total - 0.45) < 1e-10
    assert np.abs(res.per_stock - 0.45).max() < 1e-10


def test_market_residual_matches_direct_subtraction():
    panel = dataio.standardize(gaussian_panel(6, 400, seed=11))
    eig = spectral.eig_sym(corrdist.corr_matrix(panel))
    res = spectral.market_mode_residual(eig)
    comps = spectral.pca_decompose(panel, eig)
    assert comps.indices[-1] == 5
    market_row = comps.series[-1]
    lam = eig.eigenvalues[-1]
    v = eig.eigenvectors[:, -1]
    for i in range(6):
        direct = float(np.var(panel.returns[i] - np.sqrt(lam) * v[i] * market_row))
        assert abs(direct - res.per_stock[i]) < 1e-8
    assert abs(res.total - float(np.mean(res.per_stock))) < 1e-12


@given(st.integers(0, 10 ** 6))
def test_eigenvalues_sum_to_trace(seed):
    corr = random_corr(seed % 1000, 5, t=60)
    eig = spectral.eig_sym(corr)
    assert abs(float(eig.eigenvalues.sum()) - 5.0) < 1e-10
    assert eig.eigenvalues[0] > -1e-12


@given(st.integers(2, 30))
def test_equicorr_ipr_is_uniform(n):
    corr = synthgen.equicorr_correlation(max(n, 5), 0.4)
    m = corr.n_series
    snap = spectral.spectral_snapshot(corr)
    assert abs(snap.ipr_market - 1.0 / m) < 1e-9
