import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import portfolio, synthgen
from corrstat.errors import (
    DomainError,
    IllPosed,
    InsufficientData,
    InvalidParameter,
    NotPositiveDefinite,
    NotSymmetric,
    NumericsError,
    ZeroVariance,
    checked_symmetric,
)
from corrstat.portfolio import CovarianceMatrix, MCBand, WeightVector

from _oracles import brute_min_variance, covariance_loops, q_band_mean, q_band_second_moment
from conftest import gaussian_panel, make_panel


def abstract_cov(entries):
    entries = np.asarray(entries, dtype=np.float64)
    tickers = tuple(f"A{i}" for i in range(entries.shape[0]))
    return CovarianceMatrix(tickers, entries)


def random_cov(rng, n):
    a = rng.normal(size=(n, n + 2))
    return abstract_cov(a @ a.T / (n + 2) + 0.1 * np.eye(n))


def test_covariance_matches_loops():
    rng = np.random.default_rng(1)
    panel = make_panel(rng.normal(size=(4, 30)))
    cov = portfolio.covariance_matrix(panel)
    assert np.abs(cov.entries - covariance_loops(panel.returns)).max() < 1e-12
    assert cov.window == (0, 30)
    windowed = portfolio.covariance_matrix(panel, (5, 25))
    ref = covariance_loops(panel.returns[:, 5:25])
    assert np.abs(windowed.entries - ref).max() < 1e-12
    assert windowed.window_len == 20


def test_covariance_guards():
    rng = np.random.default_rng(2)
    returns = rng.normal(size=(3, 40))
    returns[1, :] = 7.0
    with pytest.raises(ZeroVariance) as err:
        portfolio.covariance_matrix(make_panel(returns, tickers=["AA", "BB", "CC"]))
    assert "BB" in str(err.value)
    clean = make_panel(rng.normal(size=(3, 40)))
    with pytest.raises(InsufficientData):
        portfolio.covariance_matrix(clean, (0, 1))
    with pytest.raises(InvalidParameter):
        portfolio.covariance_matrix(clean, (10, 50))


def test_identity_gives_uniform_weights():
    cov = abstract_cov(np.eye(5))
    weights = portfolio.min_variance_weights(cov)
    assert np.array_equal(weights.w, np.full(5, 0.2))
    assert abs(portfolio.portfolio_variance(cov, weights) - 0.2) < 1e-15


def test_two_asset_closed_form():
    cov = abstract_cov(np.diag([1.0, 4.0]))
    weights = portfolio.min_variance_weights(cov)
    assert np.abs(weights.w - [0.8, 0.2]).max() < 1e-12


def test_variance_closed_form():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        cov = random_cov(rng, n)
        weights = portfolio.min_variance_weights(cov)
        var = portfolio.portfolio_variance(cov, weights)
        assert abs(var - 1.0 / np.linalg.inv(cov.entries).sum()) < 1e-10


def test_weights_match_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        cov = random_cov(rng, n)
        mine = portfolio.min_variance_weights(cov)
        ref = brute_min_variance(cov.entries)
        assert np.abs(mine.w - ref).max() < 1e-6
        my_var = portfolio.portfolio_variance(cov, mine)
        feasible = portfolio.WeightVector(cov.tickers, ref / ref.sum())
        assert my_var <= portfolio.portfolio_variance(cov, feasible) + 1e-10


def test_weights_scale_invariant():
    rng = np.random.default_rng(5)
    cov = random_cov(rng, 4)
    scaled = abstract_cov(3.7 * cov.entries)
    a = portfolio.min_variance_weights(cov)
    b = portfolio.min_variance_weights(scaled)
    assert np.abs(a.w - b.w).max() < 1e-12


def test_ill_posed_window():
    panel = gaussian_panel(8, 60, seed=6)
    cov = portfolio.covariance_matrix(panel, (0, 8))
    with pytest.raises(IllPosed):
        portfolio.min_variance_weights(cov)
    # abstract covariances carry no window, so the gate does not fire
    portfolio.min_variance_weights(abstract_cov(cov.entries + 0.5 * np.eye(8)))


def test_singular_covariance_rejected():
    with pytest.raises(NotPositiveDefinite):
        portfolio.min_variance_weights(abstract_cov(np.ones((3, 3))))


def test_condition_limit_and_ridge():
    cov = abstract_cov(np.diag([1.0, 1e-13]))
    with pytest.raises(NumericsError) as err:
        portfolio.min_variance_weights(cov)
    assert "ridge" not in str(err.value)  # names no option a caller could pass


def test_condition_gate_is_the_two_norm_condition():
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(6, 6)))
    c = (q * np.logspace(0, -13, 6)) @ q.T
    c = 0.5 * (c + c.T)
    with pytest.raises(NumericsError) as info:
        portfolio.min_variance_weights(abstract_cov(c))
    # the message prints the condition number to 4 digits
    printed = re.fullmatch(r"covariance condition number (\S+) exceeds 1e\+12", str(info.value))
    cond = float(printed[1])
    assert abs(cond / np.linalg.cond(c) - 1.0) < 1e-2
    c = (q * np.logspace(0, -11, 6)) @ q.T
    portfolio.min_variance_weights(abstract_cov(0.5 * (c + c.T)))


def test_rank_deficient_covariance_never_gives_weights():
    # Cholesky passes on some of these by rounding, with lambda_min <= 0
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.normal(size=(6, 5))
        c = a @ a.T
        with pytest.raises((NotPositiveDefinite, NumericsError)):
            portfolio.min_variance_weights(abstract_cov(0.5 * (c + c.T)))


def exact_gate_weights(c):
    """The gates without the certificate, on the symmetric part every CovarianceMatrix
    stores: Cholesky, eigvalsh condition, LU solve."""
    c = checked_symmetric("matrix", c)
    synthgen.cholesky(c)
    eig = np.linalg.eigvalsh(c)
    cond = float(eig[-1] / eig[0]) if eig[0] > 0.0 else math.inf
    if cond > 1e12:
        raise NumericsError(f"covariance condition number {cond:.3e} exceeds 1e+12")
    x = np.linalg.solve(c, np.ones(c.shape[0]))
    return x / x.sum()


def gate_outcome(solve, c):
    try:
        return solve(c).tobytes()
    except (NotPositiveDefinite, NumericsError) as exc:
        return type(exc), str(exc)


def test_certificate_agrees_with_the_exact_gates():
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(200):
        n = int(rng.integers(2, 121))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = 10.0 ** rng.uniform(-rng.uniform(0, 15), 0, size=n) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.2:
            lam[: int(rng.integers(1, 3))] *= -1.0
        c = (q * lam) @ q.T
        cases.append(0.5 * (c + c.T))
    asymmetric = np.eye(5)
    asymmetric[0, 3] = 1e-6  # refused by both, before any gate
    with pytest.raises(NotSymmetric):
        abstract_cov(asymmetric)
    with pytest.raises(NotSymmetric):
        exact_gate_weights(asymmetric)
    barely = np.eye(5)
    barely[3, 0] = 1e-14  # asymmetric within the tolerance: factored, then solved
    q, _ = np.linalg.qr(rng.normal(size=(100, 100)))
    lam = np.ones(100)
    lam[0] = 5e-11  # lambda_min < 1e-11 trace(C), yet cond(C) = 2e10 < 1e12
    uncertified = (q * lam) @ q.T
    uncertified = 0.5 * (uncertified + uncertified.T)
    assert not portfolio._certified(uncertified)
    cases += [barely, -np.eye(4), uncertified]
    certified = 0
    for c in cases:
        mine = gate_outcome(lambda m: portfolio.min_variance_weights(abstract_cov(m)).w, c)
        assert mine == gate_outcome(exact_gate_weights, c)
        certified += portfolio._certified(c)
    assert isinstance(gate_outcome(exact_gate_weights, uncertified), bytes)
    assert 50 < certified < len(cases) - 50  # both paths are exercised


def test_no_eigendecomposition_on_the_hot_path(monkeypatch):
    # Truths check their spectrum when built, so build them first.
    cov = portfolio.covariance_matrix(gaussian_panel(100, 150, seed=17))
    truth = synthgen.one_factor_correlation(20, seed=18)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on the minimum-variance hot path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    portfolio.min_variance_weights(cov)
    portfolio.mc_band(20, 60, 60, 30, truth, seed=19)


def test_weight_vector_budget():
    with pytest.raises(InvalidParameter):
        WeightVector(("A", "B"), np.array([0.6, 0.6]))
    # a non-finite weight is named before anything is summed, so no RuntimeWarning
    for w, bad in (([np.nan, np.nan], "nan at (0,)"), ([np.nan, 1.0], "nan at (0,)"),
                   ([np.inf, 1.0], "inf at (0,)"), ([np.inf, -np.inf], "inf at (0,)"),
                   ([0.5, -np.inf], "-inf at (1,)")):
        with pytest.raises(DomainError) as info:
            WeightVector(("A", "B"), w)
        assert str(info.value) == f"w has non-finite entry {bad}"
    vec = WeightVector(("A", "B"), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        vec.w[0] = 2.0


def test_pnl_variance_identity():
    rng = np.random.default_rng(7)
    panel = make_panel(rng.normal(size=(4, 120)))
    cov = portfolio.covariance_matrix(panel, (0, 60))
    weights = portfolio.min_variance_weights(cov)
    pnl = weights.w @ panel.returns[:, :60]
    assert pnl.shape == (60,)
    assert abs(float(np.var(pnl)) - portfolio.portfolio_variance(cov, weights)) < 1e-12


def test_select_stocks():
    panel = gaussian_panel(10, 50, seed=8)
    sub = portfolio.select_stocks(panel, 4, select_seed=3)
    again = portfolio.select_stocks(panel, 4, select_seed=3)
    assert sub.tickers == again.tickers
    assert len(sub.tickers) == 4
    assert set(sub.tickers) <= set(panel.tickers)
    assert sub.tickers == tuple(sorted(sub.tickers, key=panel.tickers.index))
    other = portfolio.select_stocks(panel, 4, select_seed=4)
    assert other.tickers != sub.tickers
    assert portfolio.select_stocks(panel, 10, select_seed=0).tickers == panel.tickers
    with pytest.raises(InvalidParameter):
        portfolio.select_stocks(panel, 11, select_seed=0)


def test_select_stocks_checks_the_seed_at_every_size():
    panel = gaussian_panel(10, 50, seed=8)
    for n_stocks in (9, 10):  # all 10 are drawn too, not returned as given
        with pytest.raises(InvalidParameter, match=r"^seed must be a non-negative integer, got -1$"):
            portfolio.select_stocks(panel, n_stocks, select_seed=-1)


def test_chained_sample_geometry():
    panel = gaussian_panel(5, 1758, seed=9)
    exps = portfolio.q_series(panel, 150, 150)
    assert len(exps) == 10
    assert [e.sample for e in exps] == list(range(1, 11))
    assert exps[0].t1_range == (0, 150)
    assert exps[0].t2_range == (150, 300)
    for prev, nxt in zip(exps, exps[1:]):
        assert nxt.t1_range == prev.t2_range  # the chain property at t1 = t2
    assert exps[-1].t2_range == (1500, 1650)


@pytest.mark.parametrize("t_total, t1, t2, chained, expected", [
    # realized blocks from ceil(170 / 60) * 60 = 180 in steps of 60, while they fit
    (1000, 170, 60, True, [((s - 170, s), (s, s + 60)) for s in
                           (180, 240, 300, 360, 420, 480, 540, 600, 660, 720, 780, 840, 900)]),
    (1000, 170, 60, False, [((0, 170), (170, 230)), ((230, 400), (400, 460)),
                            ((460, 630), (630, 690)), ((690, 860), (860, 920))]),
    (300, 150, 150, True, [((0, 150), (150, 300))]),
    (299, 150, 150, True, []),
    (299, 150, 149, False, [((0, 150), (150, 299))]),
    (298, 150, 149, False, []),
], ids=["chained-t1-not-a-multiple", "independent", "chained-exact-fit", "chained-none",
        "independent-exact-fit", "independent-none"])
def test_window_geometry(t_total, t1, t2, chained, expected):
    assert portfolio._ranges(t_total, t1, t2, chained) == expected


def test_q_series_reports_the_window_geometry():
    panel = gaussian_panel(5, 1000, seed=10)
    for chained in (True, False):
        exps = portfolio.q_series(panel, 170, 60, chained=chained)
        assert [(e.t1_range, e.t2_range) for e in exps] == portfolio._ranges(1000, 170, 60, chained)


def test_chained_grid_depends_only_on_t2():
    panel = gaussian_panel(5, 1758, seed=10)
    short = portfolio.q_series(panel, 100, 150)
    long = portfolio.q_series(panel, 200, 150)
    assert short[0].t1_range == (50, 150)
    assert long[0].t1_range == (100, 300)
    assert long[0].t2_range == (300, 450)
    realized_short = {e.t2_range for e in short}
    realized_long = {e.t2_range for e in long}
    assert realized_long <= realized_short


def test_q_is_one_on_identical_windows():
    panel = gaussian_panel(4, 200, seed=11)
    cov = portfolio.covariance_matrix(panel, (0, 100))
    weights = portfolio.min_variance_weights(cov)
    sigma = math.sqrt(portfolio.portfolio_variance(cov, weights))
    assert sigma / sigma == 1.0


def test_realized_risk_dominates_realized_optimum():
    panel = gaussian_panel(5, 800, seed=12)
    for exp in portfolio.q_series(panel, 100, 100):
        cov_real = portfolio.covariance_matrix(panel, exp.t2_range)
        best = portfolio.min_variance_weights(cov_real)
        floor = math.sqrt(portfolio.portfolio_variance(cov_real, best))
        assert exp.sigma_r >= floor - 1e-12


@pytest.mark.parametrize("chained", [True, False], ids=["chained", "independent"])
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3, np.logspace(-2, 2, 6)[:, None]],
                         ids=["unit", "times-1e-3", "times-1e3", "rows-1e-2-to-1e2"])
def test_sigma_r_equals_the_realized_covariance_form(chained, scale):
    # reference: the public optimizer, one frozen value type at a time
    panel = make_panel(gaussian_panel(6, 600, seed=15).returns * scale)
    exps = portfolio.q_series(panel, 100, 100, chained=chained)
    assert len(exps) == (5 if chained else 3)
    for exp in exps:
        cov_est = portfolio.covariance_matrix(panel, exp.t1_range)
        weights = portfolio.min_variance_weights(cov_est)
        sigma_e = math.sqrt(portfolio.portfolio_variance(cov_est, weights))
        cov_real = portfolio.covariance_matrix(panel, exp.t2_range)
        sigma_r = math.sqrt(portfolio.portfolio_variance(cov_real, weights))
        assert exp.sigma_e == pytest.approx(sigma_e, rel=1e-12, abs=0)
        assert exp.sigma_r == pytest.approx(sigma_r, rel=1e-12, abs=0)
        assert exp.q == pytest.approx(sigma_r / sigma_e, rel=1e-12, abs=0)


def test_q_series_names_a_ticker_constant_in_a_realized_window():
    rng = np.random.default_rng(16)
    returns = rng.normal(size=(3, 300))
    returns[1, 200:] = 0.5  # realized window of sample 2, no estimation window
    panel = make_panel(returns, tickers=["AA", "BB", "CC"])
    with pytest.raises(ZeroVariance, match=r"^zero variance for 'BB' in window \(200, 300\)$"):
        portfolio.q_series(panel, 100, 100)


def test_q_series_guards():
    panel = gaussian_panel(3, 100, seed=14)
    with pytest.raises(InsufficientData):
        portfolio.q_series(panel, 60, 60)
    with pytest.raises(InvalidParameter):
        portfolio.q_series(panel, 1, 50)


def test_q_series_refuses_t1_up_to_n_before_reading_a_window():
    returns = np.random.default_rng(24).normal(size=(3, 300))
    returns[1] = 0.5  # flat in every window, so reading one raises ZeroVariance
    with pytest.raises(IllPosed, match=r", got N=3, T=3$"):
        portfolio.q_series(make_panel(returns), 3, 100)


def test_q_series_names_a_sample_whose_budget_is_not_positive(monkeypatch):
    monkeypatch.setattr(portfolio, "_gated_solve", lambda s, u: -u)
    with pytest.raises(NumericsError, match=r"^sample 1: whitened budget u'S\^-1 u is -3\.0, "
                                            r"not a finite positive number$"):
        portfolio.q_series(gaussian_panel(3, 100, seed=14), 20, 20)


def split_scale_panel(scale):
    """A 3 x 200 returns panel whose columns 100-199 are multiplied by scale."""
    returns = 0.01 * np.random.default_rng(0).standard_normal((3, 200))
    returns[:, 100:] *= scale
    return make_panel(returns)


@pytest.mark.filterwarnings("error")
def test_q_series_takes_a_held_pnl_whose_squares_overflow():
    # the held P&L is near 1e162: its sd is a float64, the sum of its squares is not
    (big,) = portfolio.q_series(split_scale_panel(1e160), 100, 100)
    (plain,) = portfolio.q_series(split_scale_panel(1.0), 100, 100)
    assert big.sigma_e == plain.sigma_e
    assert big.q == pytest.approx(1e160 * plain.q, rel=1e-12)
    assert big.sigma_r == pytest.approx(1e160 * plain.sigma_r, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_q_series_names_a_sample_whose_held_pnl_sd_is_not_finite():
    with pytest.raises(NumericsError, match=r"^sample 1: held P&L sd is nan, q is nan, "
                                            r"not finite$"):
        portfolio.q_series(split_scale_panel(1e306), 100, 100)


def test_mc_band_same_seed_repeats():
    truth = synthgen.one_factor_correlation(5, seed=2)
    one = portfolio.mc_band(5, 30, 30, 30, truth, seed=3)
    again = portfolio.mc_band(5, 30, 30, 30, truth, seed=3)
    assert one == again
    assert one.mean > 0 and one.sd > 0


@pytest.mark.parametrize("truth", [
    pytest.param(synthgen.one_factor_correlation(4, seed=5), id="one-factor-N4"),
    pytest.param(synthgen.sample_estimate_as_truth(gaussian_panel(20, 60, seed=21)),
                 id="dense-estimate-N20"),
])
def test_mc_band_matches_per_replica_panels(truth):
    # reference: each replica as a sampled panel through q_series; mc_band
    # computes the same q in whitened coordinates, which rounds differently
    n, t1, t2 = truth.n_series, 5 * truth.n_series, 30
    qs = []
    for replica in range(30):
        panel = synthgen.sample_panel(truth, t1 + t2, 6, synthgen.FAMILY_GAUSSIAN,
                                      replica=replica)
        (sample,) = portfolio.q_series(panel, t1, t2, chained=False)
        qs.append(sample.q)
    qs = np.asarray(qs)
    band = portfolio.mc_band(n, t1, t2, 30, truth, seed=6)
    assert band.mean == pytest.approx(float(qs.mean()), rel=1e-12, abs=0)
    assert band.sd == pytest.approx(float(qs.std(ddof=1)), rel=1e-12, abs=0)


@pytest.mark.parametrize("n,t1,t2", [(20, 150, 150), (50, 150, 150), (50, 500, 100)])
def test_mc_band_mean_matches_the_analytic_oracle(n, t1, t2):
    # Tolerance: 4 MC standard errors, sd / sqrt(R), plus a finite-sample
    # bias allowance oracle * (1/T2 + 1/(T1 - N)), which is O(1/T1) at fixed
    # N/T1 and T2/T1.  Independent 6000-replica simulations put the bias at
    # -0.0039, +0.0003 and -0.0076 for these three cases, under half of it.
    replicas = 400
    band = portfolio.mc_band(n, t1, t2, replicas, synthgen.identity_correlation(n), seed=0)
    oracle = q_band_mean(n, t1)
    tolerance = 4.0 * band.sd / math.sqrt(replicas) + oracle * (1.0 / t2 + 1.0 / (t1 - n))
    assert abs(band.mean - oracle) <= tolerance, (band, oracle, tolerance)


@pytest.mark.parametrize("n, t1, t2", [(20, 60, 30), (10, 40, 40)])
@pytest.mark.parametrize("truth", [
    synthgen.identity_correlation,
    lambda n: synthgen.one_factor_correlation(n, 3),
    lambda n: synthgen.equicorr_correlation(n, 0.95),
], ids=["identity", "one-factor", "equicorr-0.95"])
def test_mc_band_second_moment_is_the_same_exact_one_for_every_truth(truth, n, t1, t2):
    # E[q^2] = mean^2 + population variance; 5 standard errors of that
    # estimate under a normal approximation, with the seed fixed beforehand
    replicas = 2000
    band = portfolio.mc_band(n, t1, t2, replicas, truth(n), seed=0)
    moment = band.mean ** 2 + band.sd ** 2 * (replicas - 1) / replicas
    se = math.sqrt(4.0 * band.mean ** 2 * band.sd ** 2 / replicas
                   + 2.0 * band.sd ** 4 / (replicas - 1))
    oracle = q_band_second_moment(n, t1, t2)
    assert abs(moment - oracle) <= 5.0 * se, (band, moment, oracle, se)


def test_mc_band_guards():
    truth = synthgen.identity_correlation(3)
    with pytest.raises(InvalidParameter):
        portfolio.mc_band(3, 30, 30, 29, truth, seed=0)
    with pytest.raises(InvalidParameter):
        portfolio.mc_band(3, 1, 30, 30, truth, seed=0)
    with pytest.raises(IllPosed):
        portfolio.mc_band(3, 3, 30, 30, truth, seed=0)
    with pytest.raises(InvalidParameter):
        portfolio.mc_band(4, 30, 30, 30, truth, seed=0)


# q^2 = (T1/T2) a (1 + b/c) / d with d ~ chi2(T1 - N): E[q] is finite only for
# T1 > N + 1 and E[q^2] only for T1 > N + 2, so the band's sd needs the latter
@pytest.mark.parametrize("n, t1", [(3, 3), (3, 2), (40, 30), (3, 4), (3, 5), (40, 41), (40, 42)])
def test_mc_band_refuses_t1_up_to_n_before_drawing(monkeypatch, n, t1):
    def refuse(*args, **kwargs):
        raise AssertionError("a replica was drawn")

    monkeypatch.setattr(synthgen, "draw_variates", refuse)
    with pytest.raises(IllPosed, match=rf"^Monte Carlo band needs T1 > N \+ 2, where q has a "
                                       rf"finite sd, got N={n}, T={t1}$"):
        portfolio.mc_band(n, t1, 30, 30, synthgen.identity_correlation(n), seed=0)
    with pytest.raises(AssertionError, match="a replica was drawn"):  # the patch is reached
        portfolio.mc_band(n, n + 3, 30, 30, synthgen.identity_correlation(n), seed=0)


def test_mc_band_builds_no_frozen_matrix_or_weights(monkeypatch):
    truth = synthgen.one_factor_correlation(6, seed=4)

    def refuse(*args, **kwargs):
        raise AssertionError("a frozen value type was built per replica")

    monkeypatch.setattr(portfolio, "CovarianceMatrix", refuse)
    monkeypatch.setattr(portfolio, "WeightVector", refuse)
    band = portfolio.mc_band(6, 30, 30, 30, truth, seed=2)
    assert band.mean > 0 and band.sd > 0


def _flattened(monkeypatch, columns):
    """Make every replica's first normal row constant over the given columns."""
    draw = synthgen.draw_variates

    def flat(*args, **kwargs):
        z, scale = draw(*args, **kwargs)
        z[0, columns] = 0.5
        return z, scale

    monkeypatch.setattr(synthgen, "draw_variates", flat)


def test_mc_band_gates_the_whitened_estimation_covariance(monkeypatch):
    # under the identity truth X = Z, so a flat estimation row of X makes S singular
    _flattened(monkeypatch, slice(0, 30))
    with pytest.raises((NotPositiveDefinite, NumericsError)):
        portfolio.mc_band(3, 30, 30, 30, synthgen.identity_correlation(3), seed=0)


def test_mc_band_takes_a_flat_realized_row(monkeypatch):
    _flattened(monkeypatch, slice(30, 60))
    band = portfolio.mc_band(3, 30, 30, 30, synthgen.identity_correlation(3), seed=0)
    assert band.mean > 0 and band.sd > 0


def test_mc_band_names_a_replica_whose_budget_is_not_positive(monkeypatch):
    monkeypatch.setattr(portfolio, "_gated_solve", lambda s, u: -u)
    with pytest.raises(NumericsError, match=r"^replica 0: whitened budget u'S\^-1 u is -3\.0, "
                                            r"not a finite positive number$"):
        portfolio.mc_band(3, 30, 30, 30, synthgen.identity_correlation(3), seed=0)


def test_flag_band_violations():
    exps = [portfolio.QExperiment(1, (0, 2), (2, 4), 1.0, 1.0, 1.0),
            portfolio.QExperiment(2, (2, 4), (4, 6), 1.0, 2.0, 2.0)]
    flags = portfolio.flag_band_violations(exps, MCBand(1.0, 0.1), n_sigma=5.0)
    assert flags == [False, True]
    assert portfolio.flag_band_violations(exps, MCBand(1.0, 0.0)) == [False, True]  # sd 0 is a band
    for k in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameter):
            portfolio.flag_band_violations(exps, MCBand(1.0, 0.1), n_sigma=k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("band, message", [
    (MCBand(1.0, math.nan), "band sd must be a finite number >= 0, got nan"),
    (MCBand(1.0, math.inf), "band sd must be a finite number >= 0, got inf"),
    (MCBand(1.0, -5.0), "band sd must be a finite number >= 0, got -5.0"),
    (MCBand(math.inf, 0.1), "band mean must be a finite number, got inf"),
    (MCBand(math.nan, 0.1), "band mean must be a finite number, got nan"),
    ((1.0, 0.1), "band must be of type MCBand, got tuple"),
], ids=["sd-nan", "sd-inf", "sd-negative", "mean-inf", "mean-nan", "plain-tuple"])
def test_flag_band_violations_refuses_a_band_that_is_not_finite(band, message):
    exps = portfolio.q_series(gaussian_panel(5, 100, seed=23), 10, 10)
    assert len(exps) == 9
    with pytest.raises(InvalidParameter) as info:
        portfolio.flag_band_violations(exps, band)
    assert str(info.value) == message


@given(st.floats(0.1, 10.0))
def test_q_invariant_under_return_scaling(c):
    panel = gaussian_panel(4, 160, seed=15)
    scaled = make_panel(panel.returns * c, tickers=list(panel.tickers))
    base = portfolio.q_series(panel, 40, 40)
    other = portfolio.q_series(scaled, 40, 40)
    assert len(base) == len(other)
    for a, b in zip(base, other):
        assert abs(a.q - b.q) <= 1e-12 * abs(a.q)


@given(st.permutations(range(8)))
def test_weights_permute_with_the_tickers(perm):
    panel = gaussian_panel(8, 300, seed=5)
    base = portfolio.min_variance_weights(portfolio.covariance_matrix(panel, (0, 100)))
    moved = portfolio.min_variance_weights(
        portfolio.covariance_matrix(panel.select(perm), (0, 100)))
    assert moved.tickers == tuple(panel.tickers[k] for k in perm)
    assert np.abs(moved.w - base.w[list(perm)]).max() <= 1e-12 * np.abs(base.w).max()


@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_min_variance_beats_random_feasible(seed, n):
    rng = np.random.default_rng(seed)
    cov = random_cov(rng, n)
    best = portfolio.min_variance_weights(cov)
    target = portfolio.portfolio_variance(cov, best)
    for _ in range(5):
        w = rng.normal(size=n)
        w = w / w.sum() if abs(w.sum()) > 0.1 else np.full(n, 1.0 / n)
        feasible = portfolio.WeightVector(cov.tickers, w)
        assert target <= portfolio.portfolio_variance(cov, feasible) + 1e-10
