import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import corrdist, stationarity, synthgen
from corrstat.errors import CorrstatError, InsufficientSamples, InvalidParameter
from corrstat.stationarity import LocalTestConfig

from _oracles import ks_pvalue_scipy, ks_statistic_scipy
from conftest import gaussian_panel, make_panel


def test_ks_statistic_hand_case():
    samples = [0.1, 0.3, 0.5, 0.7, 0.9]
    d = stationarity.ks_statistic(samples, lambda x: np.asarray(x))
    assert abs(d - 0.1) < 1e-15


def test_ks_statistic_mass_point():
    # every sample sits where the model puts all its mass: the empirical
    # step at the first order statistic is a full unit above F just left
    # of it, so D = 1 under the two-sided convention
    d = stationarity.ks_statistic([1.0] * 8, lambda x: np.ones_like(np.asarray(x)))
    assert d == 1.0


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(4)
    from scipy.stats import norm
    for _ in range(10):
        samples = rng.normal(size=rng.integers(5, 40))
        mine = stationarity.ks_statistic(samples, norm.cdf)
        ref = ks_statistic_scipy(samples, norm.cdf)
        assert abs(mine - ref) < 1e-12


def test_ks_statistic_needs_five():
    with pytest.raises(InsufficientSamples):
        stationarity.ks_statistic([0.1, 0.2, 0.3, 0.4], lambda x: np.asarray(x))


def test_ks_pvalue_frozen():
    # frozen against scipy.special.kolmogorov at the Stephens-corrected
    # argument d* = D (sqrt(K) + 0.12 + 0.11/sqrt(K))
    p = stationarity.ks_pvalue(0.1624, 70)
    assert abs(p - 0.0442610) < 1e-5
    assert abs(p - 0.05) < 0.01


def test_ks_pvalue_matches_scipy_grid():
    for d in (0.02, 0.08, 0.15, 0.3, 0.6, 0.95):
        for k in (5, 17, 35, 70, 500):
            mine = stationarity.ks_pvalue(d, k)
            ref = ks_pvalue_scipy(d, k)
            assert abs(mine - ref) < 1e-6, (d, k)


def test_ks_pvalue_limits():
    assert stationarity.ks_pvalue(0.0, 10) == 1.0
    assert stationarity.ks_pvalue(1.0, 70) < 1e-12
    with pytest.raises(InvalidParameter):
        stationarity.ks_pvalue(1.2, 10)
    with pytest.raises(InsufficientSamples):
        stationarity.ks_pvalue(0.5, 4)


def test_global_test_stationary_pair():
    panel = gaussian_panel(2, 1750, seed=21,
                           truth=synthgen.equicorr_correlation(2, 0.4))
    result = stationarity.global_test(panel, (0, 1), 50)
    assert result.n_windows == 35
    assert abs(result.rho_bar_hat - 0.4) < 0.1
    assert result.p_value > 0.001
    assert result.rejects(0.01) == (result.p_value < 0.01)
    assert dict(result.reject_at)[0.05] == (result.p_value < 0.05)


def test_global_test_detects_switch():
    rng = np.random.default_rng(8)
    t = 1000
    z = rng.normal(size=(2, t))
    x = z[0]
    rho = np.where(np.arange(t) < t // 2, 0.0, 0.8)
    y = rho * x + np.sqrt(1 - rho ** 2) * z[1]
    panel = make_panel(np.vstack([x, y]))
    result = stationarity.global_test(panel, (0, 1), 50)
    assert result.p_value < 1e-4
    assert all(flag for _, flag in result.reject_at)


def test_global_test_degenerate_pair():
    rng = np.random.default_rng(9)
    x = rng.normal(size=500)
    panel = make_panel(np.vstack([x, x]))
    result = stationarity.global_test(panel, (0, 1), 50)
    assert result.d_stat == 1.0
    assert result.rejects(0.01)


def test_global_test_near_identical_pair_short_window():
    # the plug-in rounds onto the endpoint key 1.0; its T_w = 25 table
    # must build, so the pair is KS-rejected rather than skipped
    rng = np.random.default_rng(10)
    x = rng.normal(size=500)
    y = x + 1e-6 * rng.normal(size=500)
    panel = make_panel(np.vstack([x, y]))
    result = stationarity.global_test(panel, (0, 1), 25)
    assert result.rho_bar_hat > 0.99995
    assert result.rejects(0.01)


def test_global_test_needs_five_windows():
    panel = gaussian_panel(2, 400, seed=3)
    with pytest.raises(InsufficientSamples):
        stationarity.global_test(panel, (0, 1), 100)


def test_cumulative_corr_lengths():
    for t_total, t1, tau, count in ((1758, 200, 50, 32), (1758, 200, 100, 16),
                                    (1758, 250, 250, 7)):
        panel = gaussian_panel(2, t_total, seed=5)
        estimates = stationarity.cumulative_corr(panel, (0, 1), t1, tau)
        assert len(estimates) == count
        lengths = [length for length, _ in estimates]
        assert lengths[0] == t1
        assert lengths[-1] == t1 + (count - 1) * tau


def test_cumulative_corr_values():
    rng = np.random.default_rng(6)
    panel = make_panel(rng.normal(size=(2, 40)))
    estimates = stationarity.cumulative_corr(panel, (0, 1), 10, 10)
    x, y = panel.returns
    xs = (x - x.mean()) / x.std()
    ys = (y - y.mean()) / y.std()
    for length, rho in estimates:
        assert abs(rho - float(xs[:length] @ ys[:length]) / length) < 1e-12


def test_local_test_hand_case():
    estimates = [(10, 0.0), (20, 0.5), (30, 0.55)]
    out1 = stationarity.local_test(estimates, 1)
    # first step: sigma = 1/sqrt(10) = 0.316, jump 0.5 -> violation
    # second step: sigma = 1/sqrt(20) = 0.224, jump 0.05 -> quiet
    assert out1.flags == (True, False)
    assert out1.violations == 1
    out2 = stationarity.local_test(estimates, 2)
    assert out2.flags == (False, False)


def test_local_test_sigma_conventions_differ():
    # t1 = 40, tau = 10: the first increment is judged against
    # 1/sqrt(40) under the window convention, 1/sqrt(10) under the
    # ordinal one, so a 0.2 jump splits them
    estimates = [(40, 0.0), (50, 0.2)]
    window = stationarity.local_test(estimates, 1)
    paper = stationarity.local_test(estimates, 1,
                                    sigma_convention=stationarity.SIGMA_PAPER,
                                    tau=10)
    assert window.flags == (True,)
    assert paper.flags == (False,)


def test_local_test_paper_convention_needs_tau():
    with pytest.raises(InvalidParameter):
        stationarity.local_test([(10, 0.0), (20, 0.1)], 1,
                                sigma_convention=stationarity.SIGMA_PAPER)


def test_local_test_monotone_in_n():
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.normal(scale=0.2, size=30))
    estimates = [(10 * (k + 1), float(np.tanh(w))) for k, w in enumerate(walk)]
    counts = [stationarity.local_test(estimates, n).violations for n in (1, 3, 5)]
    assert counts[0] >= counts[1] >= counts[2]


def test_global_scan_cells_and_controls():
    panel = gaussian_panel(4, 300, seed=11)
    report = stationarity.global_scan(
        panel, (25, 50), (0.05, 0.10), reshuffle_seed=7,
        mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=13, dataset="unit")
    assert report.kind == "global"
    assert len(report.cells) == 4
    for cell in report.cells:
        assert cell.dim_name == "T_w"
        assert cell.threshold_name == "alpha"
        assert cell.denominator == 6
        assert 0.0 <= cell.fraction <= 1.0
        assert set(cell.controls) == {"reshuffle", "mc"}
    assert report.params["n_pairs"] == 6
    assert report.skipped == []


def test_global_scan_skips_degenerate_rows():
    rng = np.random.default_rng(12)
    returns = rng.normal(size=(3, 200))
    returns[2, :] = 4.2  # constant row: ZeroVariance inside every window
    panel = make_panel(returns)
    report = stationarity.global_scan(panel, (25,), (0.05,))
    assert len(report.skipped) == 2
    assert {tuple(s["pair"]) for s in report.skipped} == {(0, 2), (1, 2)}
    assert all(s["error"] == "ZeroVariance" for s in report.skipped)
    cell = report.cells[0]
    assert cell.denominator == 1  # only the clean pair remains


def test_global_scan_thread_determinism():
    panel = gaussian_panel(4, 400, seed=14)
    kwargs = dict(window_lens=(25, 50), alphas=(0.05,), reshuffle_seed=3,
                  mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=5)
    one = stationarity.global_scan(panel, threads=1, **kwargs)
    four = stationarity.global_scan(panel, threads=4, **kwargs)
    assert one == four


def test_local_scan_cells():
    panel = gaussian_panel(3, 420, seed=15)
    config = LocalTestConfig(100, 40, (1, 3))
    report = stationarity.local_scan(
        panel, [config], mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=2,
        dataset="unit")
    assert report.kind == "local"
    assert len(report.cells) == 2
    steps_per_pair = (420 - 100) // 40  # estimates minus one
    for cell in report.cells:
        assert cell.dim_name == "tau"
        assert cell.dim_value == 40
        assert cell.denominator == 3 * steps_per_pair
        assert set(cell.controls) == {"mc"}


def test_local_scan_thread_determinism():
    panel = gaussian_panel(3, 420, seed=16)
    config = LocalTestConfig(100, 40, (1, 2))
    one = stationarity.local_scan(panel, [config], threads=1)
    four = stationarity.local_scan(panel, [config], threads=4)
    assert one == four


def _per_row_cumulative_corr(panel, pair, t1, tau):
    """Expanding-prefix estimates from each row standardized on its own."""
    x, y = ((r - r.mean()) / r.std() for r in panel.returns[list(pair)])
    products = np.cumsum(x * y)
    return [(length, float(products[length - 1] / length))
            for length in range(t1, panel.n_steps + 1, tau)]


def _scalar_flags(estimates, n, sigma_convention, tau):
    flags = []
    for k in range(len(estimates) - 1):
        (length, rho), (_, rho_next) = estimates[k], estimates[k + 1]
        if sigma_convention == stationarity.SIGMA_WINDOW:
            sigma = 1.0 / math.sqrt(length)
        else:
            sigma = 1.0 / math.sqrt((k + 1) * tau)
        flags.append(abs(rho_next - rho) > n * sigma)
    return tuple(flags)


def _per_pair_local_scan(panels, pairs, configs, n_values, sigma_convention):
    """(violations, steps) per (control, tau, n) and the skip list, pair by pair."""
    counts, skipped = {}, []
    for config in configs:
        for name, panel in panels.items():
            for pair in sorted((min(p), max(p)) for p in pairs):
                try:
                    estimates = stationarity.cumulative_corr(
                        panel, pair, config.t1, config.tau)
                except CorrstatError as exc:
                    skipped.append({"pair": list(pair), "tau": config.tau,
                                    "control": name or None,
                                    "error": type(exc).__name__, "detail": str(exc)})
                    continue
                assert estimates == _per_row_cumulative_corr(
                    panel, pair, config.t1, config.tau)
                for n in n_values:
                    outcome = stationarity.local_test(
                        estimates, n, sigma_convention, config.tau)
                    assert outcome.flags == _scalar_flags(
                        estimates, n, sigma_convention, config.tau)
                    hits, steps = counts.get((name, config.tau, n), (0, 0))
                    counts[(name, config.tau, n)] = (hits + outcome.violations,
                                                     steps + len(outcome.flags))
    return counts, skipped


@pytest.mark.parametrize("sigma_convention",
                         [stationarity.SIGMA_WINDOW, stationarity.SIGMA_PAPER])
@pytest.mark.parametrize("control", ["constant-row", "mc"])
def test_local_scan_matches_per_pair_reference(sigma_convention, control):
    rng = np.random.default_rng(21)
    returns = rng.standard_t(3, size=(6, 400))
    returns[1, 200:] = returns[0, 200:]  # a correlation jump mid-sample
    if control == "constant-row":
        returns[2, :] = 4.2
        mc_family, mc_seed = None, 0
    else:
        mc_family, mc_seed = synthgen.FAMILY_GAUSSIAN, 8
    panel = make_panel(returns)
    pairs = [(1, 0), (0, 2), (2, 5), (4, 1), (1, 9), (3, 3), (3, 5), (0, 5), (5, 3)]
    configs = [LocalTestConfig(10, 5), LocalTestConfig(40, 30)]
    n_values = (1, 2)
    report = stationarity.local_scan(
        panel, configs, n_values=n_values, pairs=pairs,
        sigma_convention=sigma_convention, mc_family=mc_family, mc_seed=mc_seed)
    panels = {"": panel}
    if mc_family is not None:
        panels["mc"] = stationarity._control_panels(
            panel, None, mc_family, None, mc_seed)["mc"]
    counts, skipped = _per_pair_local_scan(
        panels, pairs, configs, n_values, sigma_convention)
    assert report.skipped == skipped
    assert {s["error"] for s in skipped} == (
        {"ZeroVariance", "InvalidParameter"} if control == "constant-row"
        else {"InvalidParameter"})
    expected = []
    for config in configs:
        for n in n_values:
            hits, steps = counts[("", config.tau, n)]
            controls = {}
            if "mc" in panels:
                chits, csteps = counts[("mc", config.tau, n)]
                controls["mc"] = chits / csteps
            expected.append(stationarity.ScanCell(
                "tau", config.tau, "n", n, hits / steps, steps, controls))
    assert report.cells == expected
    assert any(cell.fraction > 0 for cell in report.cells)


def test_local_scan_short_panel_and_thread_check():
    panel = gaussian_panel(4, 120, seed=22)
    configs = [LocalTestConfig(100, 20), LocalTestConfig(100, 21)]
    report = stationarity.local_scan(panel, configs, pairs=[(0, 1), (2, 7)])
    assert report.cells[0].denominator == 1  # one usable pair, one step
    short = [s for s in report.skipped if s["tau"] == 21]
    assert [s["pair"] for s in short] == [[0, 1], [2, 7]]
    assert {s["error"] for s in short} == {"InsufficientData"}
    assert short[0]["detail"] == "need at least t1 + tau = 121 steps, got 120"
    assert [s["error"] for s in report.skipped if s["tau"] == 20] == ["InvalidParameter"]
    assert all(math.isnan(cell.fraction) for cell in report.cells[5:])
    with pytest.raises(InvalidParameter):
        stationarity.local_scan(panel, configs, threads=0)


def test_all_pairs():
    assert stationarity.all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(stationarity.all_pairs(412)) == 84666
    assert len(stationarity.all_pairs(137)) == 9316


@given(st.lists(st.floats(0.01, 0.99), min_size=5, max_size=30))
def test_ks_statistic_bounds(samples):
    d = stationarity.ks_statistic(samples, lambda x: np.asarray(x))
    assert 0.0 <= d <= 1.0


@given(st.floats(0.0, 1.0), st.integers(5, 1000))
def test_ks_pvalue_bounds(d, k):
    p = stationarity.ks_pvalue(d, k)
    assert 0.0 <= p <= 1.0


@given(st.integers(0, 10 ** 6))
def test_ks_pvalue_monotone_in_d(seed):
    rng = np.random.default_rng(seed)
    d1, d2 = sorted(rng.uniform(0.01, 0.99, size=2))
    k = int(rng.integers(5, 200))
    assert stationarity.ks_pvalue(d2, k) <= stationarity.ks_pvalue(d1, k) + 1e-12
