import importlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrstat import stationarity, synthgen
from corrstat.errors import (
    CorrstatError,
    DomainError,
    InsufficientSamples,
    InvalidParameter,
    ZeroVariance,
)
from corrstat.stationarity import LocalTestConfig

from _oracles import ks_pvalue_series, ks_statistic_scipy, pearson_loops
from conftest import gaussian_panel, make_panel, traced_peak


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


def test_ks_statistic_rejects_misshapen_cdf():
    samples = [0.1, 0.3, 0.5, 0.7, 0.9]
    with pytest.raises(InvalidParameter):
        stationarity.ks_statistic(samples, lambda x: np.asarray(x)[:-1])
    with pytest.raises(InvalidParameter):
        stationarity.ks_statistic(samples, lambda x: 0.5)


def test_ks_statistic_names_a_nan_sample_or_cdf_value():
    # the NaN is named where it lies, not left to ks_pvalue as a bad "D"
    samples = [0.1, 0.3, 0.5, 0.7, 0.9]
    with pytest.raises(DomainError, match=r"^cdf values has non-finite entry nan at \(3,\)$"):
        stationarity.ks_statistic(samples, lambda x: np.where(x == 0.7, np.nan, x))
    with pytest.raises(DomainError, match=r"^samples has non-finite entry nan at \(2,\)$"):
        stationarity.ks_statistic([0.1, 0.3, np.nan, 0.7, 0.9], lambda x: np.asarray(x))


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
            ref = ks_pvalue_series(d, k)
            assert abs(mine - ref) < 1e-12, (d, k)


def test_ks_pvalue_limits():
    assert stationarity.ks_pvalue(0.0, 10) == 1.0
    assert stationarity.ks_pvalue(1.0, 70) < 1e-12
    with pytest.raises(InvalidParameter):
        stationarity.ks_pvalue(1.2, 10)
    with pytest.raises(InsufficientSamples):
        stationarity.ks_pvalue(0.5, 4)
    with pytest.raises(InvalidParameter, match="integer"):
        stationarity.ks_pvalue(0.1, 5.5)
    assert stationarity.ks_pvalue(0.1, np.int64(70)) == stationarity.ks_pvalue(0.1, 70)


def test_global_test_stationary_pair():
    panel = gaussian_panel(2, 1750, seed=21,
                           truth=synthgen.equicorr_correlation(2, 0.4))
    result = stationarity.global_test(panel, (0, 1), 50)
    assert len(result.samples) == 35
    assert abs(result.rho_bar_hat - 0.4) < 0.1
    assert result.p_value > 0.001
    assert not result.p_value < 0.10  # kept at every default alpha


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
    assert all(result.p_value < alpha for alpha in stationarity.DEFAULT_ALPHAS)


def test_global_test_degenerate_pair():
    rng = np.random.default_rng(9)
    x = rng.normal(size=500)
    panel = make_panel(np.vstack([x, x]))
    result = stationarity.global_test(panel, (0, 1), 50)
    assert result.d_stat == 1.0
    assert result.p_value < 0.01


def test_global_test_near_identical_pair_short_window():
    # the plug-in rounds onto the endpoint key 1.0; its T_w = 25 table
    # must build, so the pair is KS-rejected rather than skipped
    rng = np.random.default_rng(10)
    x = rng.normal(size=500)
    y = x + 1e-6 * rng.normal(size=500)
    panel = make_panel(np.vstack([x, y]))
    result = stationarity.global_test(panel, (0, 1), 25)
    assert result.rho_bar_hat > 0.99995
    assert result.p_value < 0.01


def test_global_test_matches_loops_on_each_window_and_the_union():
    rng = np.random.default_rng(33)
    returns = rng.standard_t(4, size=(2, 263))
    returns[1] += 0.6 * returns[0]
    panel = make_panel(returns, tickers=("AAA", "BBB"))
    result = stationarity.global_test(panel, (0, 1), 50)
    x, y = returns
    assert len(result.samples) == 5
    for k, sample in enumerate(result.samples):
        lo, hi = 50 * k, 50 * (k + 1)
        assert abs(sample - pearson_loops(x[lo:hi], y[lo:hi])) < 1e-12, k
    # the plug-in is taken over the windows' union; the last 13 steps are dropped
    assert abs(result.rho_bar_hat - pearson_loops(x[:250], y[:250])) < 1e-12
    returns = returns.copy()
    returns[1, 100:150] = 0.25  # BBB flat in the third window only
    panel = make_panel(returns, tickers=("AAA", "BBB"))
    with pytest.raises(ZeroVariance, match=r"^zero variance for 'BBB' in window \(100, 150\)$"):
        stationarity.global_test(panel, (0, 1), 50)
    for sign in (1.0, -1.0):  # a perfect pair: every estimate at +-1, never past it
        result = stationarity.global_test(make_panel([x, sign * 3.0 * x + 2.0]), (0, 1), 50)
        for rho in (*result.samples, result.rho_bar_hat):
            assert -1.0 <= rho <= 1.0 and abs(rho - sign) < 1e-14


def test_global_scan_rejects_a_negative_mc_seed():
    panel = gaussian_panel(3, 300, seed=4)
    with pytest.raises(InvalidParameter, match="non-negative"):
        stationarity.global_scan(panel, (25,), mc_family=synthgen.FAMILY_GAUSSIAN,
                                 mc_seed=-1)


STUDENT_T_ONLY = "mc_nu must be None unless mc_family is 'student-t', got "


@pytest.mark.parametrize("scan", ["global", "local"])
@pytest.mark.parametrize("mc_family, mc_nu, message", [
    ("bogus", None, "unknown mc_family 'bogus'"),
    (synthgen.FAMILY_GAUSSIAN, math.nan, STUDENT_T_ONLY + "nan"),
    (synthgen.FAMILY_GAUSSIAN, "4", STUDENT_T_ONLY + "'4'"),
    (None, 4.0, STUDENT_T_ONLY + "4.0"),
    (synthgen.FAMILY_STUDENT_T, None, "nu must be a finite number >= 3, got None"),
])
def test_the_mc_keywords_are_checked_before_any_work(scan, mc_family, mc_nu, message):
    # every row is flat, so the MC control builds no generator that could check them
    panel = make_panel(np.ones((3, 300)))
    with pytest.raises(InvalidParameter) as info:
        if scan == "global":
            stationarity.global_scan(panel, (25,), mc_family=mc_family, mc_nu=mc_nu)
        else:
            stationarity.local_scan(panel, [LocalTestConfig(50, 50)], mc_family=mc_family,
                                    mc_nu=mc_nu)
    assert str(info.value) == message


@pytest.mark.parametrize("window_lens, alphas", [
    ((5,), (0.05,)), ((25, 9), (0.05,)), ((25,), (1.5,)), ((25,), (math.nan,)),
    ((25,), (0.0,)), ((25,), (0.05, 1.0)), ((25,), (-0.1,)), ((25.5,), (0.05,)),
    ((25.0,), (0.05,)),
])
def test_global_scan_rejects_bad_windows_and_alphas_before_any_pair(
        window_lens, alphas, monkeypatch):
    def refuse(*args):
        raise AssertionError("a pair was tested")

    monkeypatch.setattr(stationarity, "global_test", refuse)
    monkeypatch.setattr(stationarity, "_pair_sums", refuse)
    with pytest.raises(InvalidParameter):
        stationarity.global_scan(gaussian_panel(3, 300, seed=4), window_lens, alphas,
                                 reshuffle_seed=1)


@pytest.mark.parametrize("threads", [0, "x", None])
def test_global_scan_checks_threads_when_every_pair_is_skipped(threads):
    with pytest.raises(InvalidParameter, match="threads"):
        stationarity.global_scan(gaussian_panel(3, 60, seed=4), (100,), threads=threads)


@pytest.mark.parametrize("window_len", [25.5, 25.0])
def test_global_test_rejects_a_non_integer_window_length(window_len):
    with pytest.raises(InvalidParameter, match="integer"):
        stationarity.global_test(gaussian_panel(2, 300, seed=4), (0, 1), window_len)


def test_global_scan_skips_windows_longer_than_the_panel():
    report = stationarity.global_scan(gaussian_panel(3, 60, seed=4), (100,))
    assert [s["error"] for s in report.skipped] == ["InsufficientData"] * 3
    assert all(cell.denominator == 0 for cell in report.cells)


@pytest.mark.parametrize("n_steps, flat", [(60, False), (300, True)])
def test_local_scan_rejects_an_unknown_sigma_convention(n_steps, flat):
    returns = gaussian_panel(3, n_steps, seed=4).returns
    panel = make_panel(np.ones_like(returns) if flat else returns)
    with pytest.raises(InvalidParameter, match="bogus"):
        stationarity.local_scan(panel, [LocalTestConfig(50, 50)], sigma_convention="bogus")


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


@pytest.mark.parametrize("n", [1.5, 1.0, 0, -1])
def test_local_test_rejects_an_n_that_is_not_an_integer_above_zero(n):
    with pytest.raises(InvalidParameter, match="n must be an integer"):
        stationarity.local_test([(10, 0.0), (20, 0.5), (30, 0.55)], n)


@pytest.mark.parametrize("tau", [0, -1, 2.5, 10.0, None, "10"])
def test_local_test_under_the_paper_convention_rejects_a_bad_tau(tau):
    estimates = [(10, 0.0), (20, 0.5), (30, 0.55)]
    with pytest.raises(InvalidParameter, match="tau must be an integer >= 1"):
        stationarity.local_test(estimates, 1, stationarity.SIGMA_PAPER, tau)
    # sigma_1 = 1/sqrt(10) ~ 0.32: the first step violates, the second does not
    assert stationarity.local_test(estimates, 1, stationarity.SIGMA_PAPER, 10) == (
        1, (True, False))


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


def test_global_test_names_the_first_degenerate_window():
    rng = np.random.default_rng(31)
    returns = rng.normal(size=(3, 100))
    returns[1, 40:50] = 2.5  # window 4 of 10
    returns[2, 20:40] = -1.0  # windows 2 and 3
    panel = make_panel(returns, tickers=("AAA", "BBB", "CCC"))
    for pair, name, window in (((0, 1), "BBB", (40, 50)), ((1, 0), "BBB", (40, 50)),
                               ((1, 2), "CCC", (20, 30)), ((2, 1), "CCC", (20, 30))):
        with pytest.raises(ZeroVariance) as info:
            stationarity.global_test(panel, pair, 10)
        assert str(info.value) == f"zero variance for {name!r} in window {window}", pair
    returns = returns.copy()
    returns[2, 20:40] = rng.normal(size=20)
    returns[2, 40:50] = 7.0  # both rows degenerate in window 4 only: x's name
    panel = make_panel(returns, tickers=("AAA", "BBB", "CCC"))
    with pytest.raises(ZeroVariance, match=r"^zero variance for 'BBB' in window \(40, 50\)$"):
        stationarity.global_test(panel, (1, 2), 10)
    with pytest.raises(ZeroVariance, match=r"^zero variance for 'CCC' in window \(40, 50\)$"):
        stationarity.global_test(panel, (2, 1), 10)


@pytest.mark.parametrize("scan", ["global", "local"])
def test_mc_control_skips_constant_ticker(scan):
    rng = np.random.default_rng(23)
    returns = rng.normal(size=(4, 300))
    returns[2, :] = 4.2
    panel = make_panel(returns)
    control = stationarity._control_panels(panel, None, synthgen.FAMILY_GAUSSIAN, None, 5)
    assert np.array_equal(control["mc"].returns[2], returns[2])
    if scan == "global":
        report = stationarity.global_scan(panel, (25,), (0.05,),
                                          mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=5)
    else:
        report = stationarity.local_scan(panel, [LocalTestConfig(100, 50)],
                                         mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=5)
    base = [s for s in report.skipped if s["control"] is None]
    mc = [s for s in report.skipped if s["control"] == "mc"]
    assert [s["pair"] for s in base] == [[0, 2], [1, 2], [2, 3]]
    assert {s["error"] for s in base} == {"ZeroVariance"}
    assert [dict(s, control=None) for s in mc] == [dict(s, control=None) for s in base]
    for cell in report.cells:
        assert cell.denominator > 0
        assert 0.0 <= cell.controls["mc"] <= 1.0


def test_both_scans_list_one_skip_schema_panel_by_panel():
    returns = np.random.default_rng(28).normal(size=(4, 300))
    returns[2, :] = 4.2
    panel = make_panel(returns)
    for scan, grid, where, values in (
            (stationarity.global_scan, (25, 50), "window_len", (25, 50)),
            (stationarity.local_scan, [LocalTestConfig(100, 50), LocalTestConfig(100, 100)],
             "tau", (50, 100))):
        report = scan(panel, grid, mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=5)
        keys = [list(entry) for entry in report.skipped]
        assert keys == [["pair", where, "control", "error", "detail"]] * 12
        # the scanned panel's skips, grid entry by grid entry, then the MC control's
        assert [(s["control"], s[where], s["pair"]) for s in report.skipped] == [
            (control, value, pair) for control in (None, "mc") for value in values
            for pair in ([0, 2], [1, 2], [2, 3])]


def _per_pair_global_scan(panels, pairs, window_lens, alphas):
    """(rejections, tested pairs) per (control, window, alpha) and the skip list."""
    counts, skipped = {}, []
    for name, panel in panels.items():
        for window_len in window_lens:
            p_values = []
            for pair in sorted((min(p), max(p)) for p in pairs):
                try:
                    p_values.append(stationarity.global_test(panel, pair, window_len).p_value)
                except CorrstatError as exc:
                    skipped.append({"pair": list(pair), "window_len": window_len,
                                    "control": name or None,
                                    "error": type(exc).__name__, "detail": str(exc)})
            for alpha in alphas:
                counts[(name, window_len, alpha)] = (
                    sum(1 for p in p_values if p < alpha), len(p_values))
    return counts, skipped


def _cell_fields(cell):
    """A cell's fields with NaN fractions as None, so cells compare by value."""
    def value(x):
        return None if isinstance(x, float) and math.isnan(x) else x
    return (cell.dim_name, cell.dim_value, cell.threshold_name, cell.threshold_value,
            value(cell.fraction), cell.denominator,
            {name: value(f) for name, f in cell.controls.items()})


@pytest.mark.parametrize("control", ["mixed", "all-pairs", "all-pairs-chunked"])
def test_global_scan_matches_per_pair_reference(control, monkeypatch):
    all_pairs = control.startswith("all-pairs")
    if control == "all-pairs-chunked":  # one first-index row per Gram chunk
        monkeypatch.setattr(stationarity, "_CHUNK_CELLS", 1)
    rng = np.random.default_rng(25)
    returns = rng.standard_t(3, size=(13 if all_pairs else 6, 300))
    returns[1, 150:] = returns[0, 150:]  # a correlation jump mid-sample
    returns[2, :] = 4.2  # constant row
    returns[4, 50:75] = -1.5  # flat in window (50, 75) at T_w = 25 only
    panel = make_panel(returns)
    if all_pairs:
        pairs = stationarity.all_pairs(13)
    else:
        pairs = [(1, 0), (0, 2), (3, 4), (4, 0), (1, 5), (3, 5), (3, 5), (2, 9), (0, 5)]
    window_lens, alphas = (25, 50, 70), (0.01, 0.05, 0.5)  # 70: four windows, too few
    report = stationarity.global_scan(
        panel, window_lens, alphas, pairs=None if all_pairs else pairs, reshuffle_seed=4,
        mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=6, threads=2)
    panels = {"": panel}
    panels.update(stationarity._control_panels(
        panel, 4, synthgen.FAMILY_GAUSSIAN, None, 6))
    assert list(panels) == ["", "reshuffle", "mc"]
    counts, skipped = _per_pair_global_scan(panels, pairs, window_lens, alphas)
    assert report.skipped == skipped
    flat = [s for s in skipped if s["window_len"] == 25 and s["pair"] == [3, 4]]
    assert [s["control"] for s in flat] == [None]
    assert flat[0]["detail"] == "zero variance for 'S4' in window (50, 75)"
    expected = []
    for window_len in window_lens:
        for alpha in alphas:
            fractions = {}
            for name in panels:
                hits, total = counts[(name, window_len, alpha)]
                fractions[name] = (hits / total if total else math.nan, total)
            fraction, denominator = fractions.pop("")
            expected.append(stationarity.ScanCell(
                "T_w", window_len, "alpha", alpha, fraction, denominator,
                {name: f for name, (f, _) in fractions.items()}))
    assert [_cell_fields(c) for c in report.cells] == [_cell_fields(c) for c in expected]
    assert any(cell.fraction > 0 for cell in report.cells[:6])
    assert report.params["n_pairs"] == len(pairs)
    if all_pairs:  # of 78 pairs, 12 use the constant row and 11 more the flat window at T_w = 25
        assert [c.denominator for c in report.cells] == [55] * 3 + [66] * 3 + [0] * 3
    else:
        assert {(s["control"], s["error"]) for s in skipped} == {
            (control, error) for control in (None, "reshuffle", "mc")
            for error in ("ZeroVariance", "InvalidParameter", "InsufficientSamples")}
        assert [c.denominator for c in report.cells] == [5] * 3 + [7] * 3 + [0] * 3


@pytest.mark.parametrize("chunk_cells", [None, 1])
def test_global_scan_ks_tests_match_global_test_to_rounding(chunk_cells, monkeypatch):
    # the batch sums each window's products in another order: equal to rounding, not bits
    if chunk_cells is not None:
        monkeypatch.setattr(stationarity, "_CHUNK_CELLS", chunk_cells)
    ks_test, calls = stationarity._ks_test, []

    def recording(samples, rho_bar_hat, window_len):
        d_and_p = ks_test(samples, rho_bar_hat, window_len)
        # samples is a view of the chunk's reused sums: copy it before the next chunk
        calls.append((samples.copy(), rho_bar_hat, window_len, d_and_p))
        return d_and_p

    monkeypatch.setattr(stationarity, "_ks_test", recording)
    panel = make_panel(np.random.default_rng(26).standard_t(3, size=(7, 300)))
    pairs = stationarity.all_pairs(7)
    stationarity.global_scan(panel, (25, 50))
    monkeypatch.setattr(stationarity, "_ks_test", ks_test)  # global_test calls it too
    assert [c[2] for c in calls] == [25] * len(pairs) + [50] * len(pairs)
    for pair, (samples, rho_bar_hat, window_len, (d_stat, p_value)) in zip(
            [*pairs, *pairs], calls):
        ref = stationarity.global_test(panel, pair, window_len)
        assert samples.shape == (300 // window_len,)
        assert np.abs(samples - ref.samples).max() <= 1e-12
        assert abs(rho_bar_hat - ref.rho_bar_hat) <= 1e-12
        assert abs(d_stat - ref.d_stat) <= 1e-12 and abs(p_value - ref.p_value) <= 1e-12


def test_global_scan_peak_memory_per_cell():
    # the pairs' standardized rows plus fixed-size chunks, not an estimate per pair.
    # The scan's first KS test imports scipy.special, and tracemalloc would count
    # that import alone as about 8.7 MB, so it is imported first.
    importlib.import_module("scipy.special")
    panel = gaussian_panel(200, 1758, seed=9)
    peak = traced_peak(lambda: stationarity.global_scan(panel, (25,)))
    assert peak <= 4.5 * panel.returns.nbytes


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
    assert len(report.cells) == 2
    steps_per_pair = (420 - 100) // 40  # estimates minus one
    for cell in report.cells:
        assert cell.dim_name == "tau"
        assert cell.dim_value == 40
        assert cell.denominator == 3 * steps_per_pair
        assert set(cell.controls) == {"mc"}


def test_local_scan_duplicate_entries_keep_the_single_denominator():
    panel = gaussian_panel(3, 420, seed=17)
    single = stationarity.local_scan(panel, [LocalTestConfig(100, 40, (1,))])
    (expected,) = [(c.fraction, c.denominator) for c in single.cells]
    for configs in ([LocalTestConfig(100, 40, (1,))] * 2, [LocalTestConfig(100, 40, (1, 1))],
                    [LocalTestConfig(100, 40, (1, 1))] * 2):
        report = stationarity.local_scan(panel, configs)
        assert len(report.cells) == sum(len(c.n_values) for c in configs)
        assert {(c.fraction, c.denominator) for c in report.cells} == {expected}


def test_local_scan_same_seed_repeats():
    panel = gaussian_panel(3, 420, seed=16)
    config = LocalTestConfig(100, 40, (1, 2))
    kwargs = dict(mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=4)
    first = stationarity.local_scan(panel, [config], **kwargs)
    again = stationarity.local_scan(panel, [config], **kwargs)
    assert first == again


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
    for name, panel in panels.items():
        for config in configs:
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


def test_local_scan_peak_memory_per_cell():
    # the standardized panel plus fixed-size chunks, not copies of the panel
    panel = gaussian_panel(200, 1758, seed=9)
    configs = [LocalTestConfig(200, tau, (1, 2, 3, 4, 5)) for tau in (50, 100)]
    peak = traced_peak(lambda: stationarity.local_scan(panel, configs))
    assert peak <= 3 * panel.returns.nbytes


@pytest.mark.parametrize("sigma_convention",
                         [stationarity.SIGMA_WINDOW, stationarity.SIGMA_PAPER])
@pytest.mark.parametrize("control", ["constant-row", "mc", "all-pairs", "all-pairs-chunked"])
def test_local_scan_matches_per_pair_reference(sigma_convention, control, monkeypatch):
    all_pairs = control.startswith("all-pairs")
    if control == "all-pairs-chunked":  # one first-index row per Gram chunk
        monkeypatch.setattr(stationarity, "_CHUNK_CELLS", 1)
    rng = np.random.default_rng(21)
    returns = rng.standard_t(3, size=(13 if all_pairs else 6, 400))
    returns[1, 200:] = returns[0, 200:]  # a correlation jump mid-sample
    if control == "mc":
        mc_family, mc_seed = synthgen.FAMILY_GAUSSIAN, 8
    else:
        returns[2, :] = 4.2
        mc_family, mc_seed = None, 0
    panel = make_panel(returns)
    if all_pairs:
        pairs = stationarity.all_pairs(13)
    else:
        pairs = [(1, 0), (0, 2), (2, 5), (4, 1), (1, 9), (3, 3), (3, 5), (0, 5), (5, 3)]
    n_values = (1, 2)
    configs = [LocalTestConfig(10, 1 if all_pairs else 5, n_values),
               LocalTestConfig(40, 30, n_values)]
    report = stationarity.local_scan(
        panel, configs, pairs=None if all_pairs else pairs,
        sigma_convention=sigma_convention, mc_family=mc_family, mc_seed=mc_seed)
    panels = {"": panel}
    if mc_family is not None:
        panels["mc"] = stationarity._control_panels(
            panel, None, mc_family, None, mc_seed)["mc"]
    counts, skipped = _per_pair_local_scan(
        panels, pairs, configs, n_values, sigma_convention)
    assert report.skipped == skipped
    assert {s["error"] for s in skipped} == {
        "constant-row": {"ZeroVariance", "InvalidParameter"},
        "mc": {"InvalidParameter"},
    }.get(control, {"ZeroVariance"})
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


def test_local_scan_every_pair_skipped():
    rng = np.random.default_rng(24)
    returns = rng.normal(size=(4, 200))
    returns[[0, 2], :] = 3.0
    panel = make_panel(returns)
    pairs = [(0, 1), (2, 1), (3, 0), (2, 3), (1, 4), (0, 2 ** 70)]
    configs = [LocalTestConfig(20, 10, (1, 2))]
    report = stationarity.local_scan(panel, configs, pairs=pairs,
                                     mc_family=synthgen.FAMILY_GAUSSIAN)
    panels = {"": panel, "mc": stationarity._control_panels(
        panel, None, synthgen.FAMILY_GAUSSIAN, None, 0)["mc"]}
    counts, skipped = _per_pair_local_scan(
        panels, pairs, configs, (1, 2), stationarity.SIGMA_WINDOW)
    assert counts == {}
    assert report.skipped == skipped
    assert len(skipped) == 2 * len(pairs)
    assert [cell.denominator for cell in report.cells] == [0, 0]
    for cell in report.cells:
        assert math.isnan(cell.fraction) and math.isnan(cell.controls["mc"])


@pytest.mark.parametrize("t1, tau, n_values", [
    (50.5, 50, (1,)), (50, 50.5, (1,)), (50, 50, (1, 1.5)), (50.0, 50, (1,)),
])
def test_local_scan_rejects_non_integer_geometry_before_any_pair(t1, tau, n_values,
                                                                 monkeypatch):
    def refuse(*args):
        raise AssertionError("a pair was tested")

    monkeypatch.setattr(stationarity, "_local_counts", refuse)
    with pytest.raises(InvalidParameter, match="integer"):
        stationarity.local_scan(gaussian_panel(4, 300, seed=4),
                                [LocalTestConfig(t1, tau, n_values)])


@pytest.mark.parametrize("bad", [(0, 1.5), (1.0, 2), (2 ** 70, 0.5)])
def test_scans_skip_a_non_integer_pair(bad):
    panel = gaussian_panel(4, 300, seed=4)
    pair = (min(bad), max(bad))
    for scan, grid in ((stationarity.global_scan, (25,)),
                       (stationarity.local_scan, [LocalTestConfig(50, 50)])):
        alone = scan(panel, grid, pairs=[(0, 1)])
        report = scan(panel, grid, pairs=[(0, 1), bad])
        assert report.cells == alone.cells
        assert [(s["pair"], s["error"], s["detail"]) for s in report.skipped] == [
            (list(pair), "InvalidParameter", f"pair {pair!r} invalid for N=4")]


@pytest.mark.parametrize("bad", [(0, 1, 2), (3,), ("a", 1), (None, 1), 5, "01", ()])
def test_scans_refuse_a_pair_that_is_not_two_numbers_before_any_pair(bad, monkeypatch):
    def refuse(*args):
        raise AssertionError("a pair was tested")

    for name in ("global_test", "cumulative_corr", "_pair_sums"):
        monkeypatch.setattr(stationarity, name, refuse)
    panel = gaussian_panel(4, 300, seed=4)
    for scan, grid in ((stationarity.global_scan, (25,)),
                       (stationarity.local_scan, [LocalTestConfig(50, 50)])):
        with pytest.raises(InvalidParameter) as info:
            scan(panel, grid, pairs=[(0, 1), bad])
        assert str(info.value) == f"a pair must be two numbers, got {bad!r}"


def _pair_scan_panel():
    returns = np.random.default_rng(27).standard_t(3, size=(5, 120))
    returns[3, :] = 2.5  # every pair with row 3 is skipped
    return make_panel(returns)


PAIR_SCAN_PANEL = _pair_scan_panel()
INDEX = st.integers(-1, 6)  # N = 5: out-of-range on both sides


@settings(max_examples=25)
@given(st.lists(st.tuples(INDEX, INDEX), max_size=12),
       st.lists(st.tuples(INDEX, st.sampled_from([1.5, 2.0, 2 ** 70])), max_size=2))
def test_pair_containers_give_identical_reports(pairs, odd):
    # repr shows a numpy scalar where a Python int belongs, and NaN equal to itself
    for scan, grid in ((stationarity.global_scan, (20,)),
                       (stationarity.local_scan, [LocalTestConfig(20, 20, (1, 2))])):
        forms = [np.array(pairs, dtype=np.int64).reshape(-1, 2), pairs,
                 [list(p) for p in pairs]]
        reports = [scan(PAIR_SCAN_PANEL, grid, pairs=form) for form in forms]
        assert len({repr(report) for report in reports}) == 1
        skipped = [tuple(s["pair"]) for s in reports[0].skipped]
        assert skipped == sorted(skipped)  # in the order of sorted((min, max))
        if odd:  # a float or an index past int64 takes the per-pair path in any container
            forms = [pairs + odd, [list(p) for p in pairs + odd]]
            assert len({repr(scan(PAIR_SCAN_PANEL, grid, pairs=form)) for form in forms}) == 1


def test_skipped_array_pairs_are_python_ints():
    pairs = np.array([[4, 0], [3, 1], [0, 9], [2, 2], [1, 0]], dtype=np.int32)
    for scan, grid in ((stationarity.global_scan, (20,)),
                       (stationarity.local_scan, [LocalTestConfig(20, 20)])):
        report = scan(PAIR_SCAN_PANEL, grid, pairs=pairs)
        assert report.params["n_pairs"] == 5
        assert [s["pair"] for s in report.skipped] == [[0, 9], [1, 3], [2, 2]]
        assert all(type(i) is int for s in report.skipped for i in s["pair"])
        assert report.skipped[0]["detail"] == "pair (0, 9) invalid for N=5"


@pytest.mark.parametrize("what, call", [
    ("n_values", lambda: LocalTestConfig(50, 5, n_values=3)),
    ("window_lens", lambda: stationarity.global_scan(PAIR_SCAN_PANEL, 25)),
    ("alphas", lambda: stationarity.global_scan(PAIR_SCAN_PANEL, (25,), 0.05)),
    ("configs", lambda: stationarity.local_scan(PAIR_SCAN_PANEL, None)),
    ("pairs", lambda: stationarity.local_scan(PAIR_SCAN_PANEL, [LocalTestConfig(50, 5)],
                                              pairs=7)),
])
def test_a_container_argument_that_is_not_iterable_is_named(what, call):
    with pytest.raises(InvalidParameter, match=f"^{what} must be a collection, got "):
        call()


@pytest.mark.parametrize("entry", [None, (50, 5), "config"])
def test_a_config_that_is_not_a_local_test_config_is_named(entry, monkeypatch):
    monkeypatch.setattr(stationarity, "_local_counts", None)  # no pair may be tested
    message = f"configs must hold LocalTestConfigs, got {entry!r}"
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        stationarity.local_scan(PAIR_SCAN_PANEL, [LocalTestConfig(50, 5), entry])


def test_n_values_given_as_a_list_are_stored_as_a_tuple():
    config = LocalTestConfig(20, 20, [1, 2])
    assert config == LocalTestConfig(20, 20, (1, 2)) and config.n_values == (1, 2)
    assert stationarity.local_scan(PAIR_SCAN_PANEL, [config]).cells[0].denominator > 0


def test_local_scan_short_panel():
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


def test_all_pairs():
    pairs = stationarity.all_pairs(3)
    assert pairs.dtype == np.int64
    assert np.array_equal(pairs, [(0, 1), (0, 2), (1, 2)])
    assert stationarity.all_pairs(412).shape == (84666, 2)
    assert stationarity.all_pairs(137).shape == (9316, 2)
    assert stationarity.all_pairs(0).shape == (0, 2)


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


_REGIME_CONFIGS = (LocalTestConfig(t1=50, tau=5), LocalTestConfig(t1=50, tau=25))


def _both_scans(panel):
    """Cells and skip lists of the global scan (windows 25, 50) and the local scan."""
    g = stationarity.global_scan(panel, (25, 50))
    loc = stationarity.local_scan(panel, _REGIME_CONFIGS)
    return g.cells + loc.cells, g.skipped + loc.skipped


@pytest.fixture(scope="module")
def regime_scans():
    """An 8 x 400 Student-t panel whose correlation changes halfway, S5 constant, and its scans."""
    before = synthgen.sample_panel(synthgen.one_factor_correlation(8, seed=3), 400, 3,
                                   synthgen.FAMILY_STUDENT_T, nu=5.0)
    after = synthgen.sample_panel(synthgen.equicorr_correlation(8, -0.1), 400, 4,
                                  synthgen.FAMILY_STUDENT_T, nu=5.0)
    returns = np.concatenate([before.returns[:, :200], after.returns[:, 200:]], axis=1)
    returns[5] = 0.25
    panel = make_panel(returns)
    return panel, _both_scans(panel)


@settings(max_examples=10)
@given(perm=st.permutations(range(8)))
def test_scans_ignore_ticker_order(regime_scans, perm):
    panel, (cells, skipped) = regime_scans
    moved_cells, moved_skipped = _both_scans(panel.select(perm))
    assert moved_cells == cells

    def in_original_indices(entry):
        pair = sorted(perm[k] for k in entry["pair"])
        return json.dumps(dict(entry, pair=pair), sort_keys=True)

    assert (sorted(map(in_original_indices, moved_skipped))
            == sorted(json.dumps(entry, sort_keys=True) for entry in skipped))


@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_scans_ignore_row_scale(regime_scans, seed):
    panel, scans = regime_scans
    rng = np.random.default_rng(seed)
    scale, shift = np.exp(rng.normal(size=(8, 1))), rng.normal(size=(8, 1))
    assert _both_scans(make_panel(scale * panel.returns + shift)) == scans


@pytest.mark.parametrize("row", range(8))
def test_scans_ignore_a_negated_row(regime_scans, row):
    """|jumps| keep their size and the law is symmetric: P(rho; rb) = P(-rho; -rb)."""
    panel, scans = regime_scans
    returns = panel.returns.copy()
    returns[row] *= -1.0
    assert _both_scans(make_panel(returns)) == scans
