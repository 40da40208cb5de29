"""Every caller of the zero-variance rule flags the same rows.

A row counts as zero-variance when its population sd is at most
1e-12 max(1, |mean|).  The panels here hold noise rows, constant rows
and rows whose sd sits at half, at exactly, or at twice that floor, in
every window.
"""
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrstat import cli, corrdist, dataio, portfolio, stationarity
from corrstat.errors import ZeroVariance
from corrstat.stationarity import LocalTestConfig

from conftest import make_panel

T = 60
WINDOW = 10
# (mean, sd): rows mean +- sd have exactly this mean and sd, and
# 1e-12 |mean| == sd in floating point
AT_FLOOR = {931.3225746154785: 2.0 ** -30, -29.103830456733704: 2.0 ** -35}

ROW_KINDS = st.tuples(
    st.sampled_from(["noise", "constant", "below", "at", "above"]),
    st.sampled_from([0.0, 0.5, -3.0, 250.0, -1.0e4, *AT_FLOOR]),
)


def _row(kind, mean, rng):
    if kind == "noise":
        return mean + rng.normal(size=T)
    if kind == "at":
        mean = mean if mean in AT_FLOOR else min(AT_FLOOR)
        scale = AT_FLOOR[mean]
    else:
        floor = 1e-12 * max(1.0, abs(mean))
        scale = {"constant": 0.0, "below": 0.5 * floor, "above": 2.0 * floor}[kind]
    return mean + scale * np.resize([1.0, -1.0], T)  # same sd in every window


def _reference_rows(returns):
    """Each row standardized on its own with 1-d reductions."""
    return np.stack([(r - r.mean()) / r.std() for r in returns])


def _raised_ticker(fn):
    """The ticker a ZeroVariance from fn names, with the whole panel's window if any."""
    try:
        fn()
    except ZeroVariance as exc:
        return re.fullmatch(rf"zero variance for '(.+)'(?: in window \(0, {T}\))?", str(exc))[1]
    return None


@given(rows=st.lists(ROW_KINDS, min_size=2, max_size=5), seed=st.integers(0, 2**16))
def test_every_caller_flags_the_same_rows(rows, seed):
    rng = np.random.default_rng(seed)
    panel = make_panel([_row(kind, mean, rng) for kind, mean in rows])
    n, tickers = panel.n_series, panel.tickers
    flagged = [r.std() <= 1e-12 * max(1.0, abs(r.mean())) for r in panel.returns]
    assert flagged == [kind in ("constant", "below", "at") for kind, _ in rows]

    for i in range(n):
        one = panel.select([i])
        expect = tickers[i] if flagged[i] else None
        assert _raised_ticker(lambda: corrdist.corr_matrix(one)) == expect
        assert _raised_ticker(lambda: dataio.standardize(one)) == expect
        assert _raised_ticker(lambda: portfolio.covariance_matrix(one)) == expect

    first = next((tickers[i] for i in range(n) if flagged[i]), None)
    assert _raised_ticker(lambda: corrdist.corr_matrix(panel)) == first
    assert _raised_ticker(lambda: dataio.standardize(panel)) == first
    assert _raised_ticker(lambda: portfolio.covariance_matrix(panel)) == first

    keep = [i for i in range(n) if not flagged[i]]
    if keep:
        sub = panel.select(keep)
        z = _reference_rows(sub.returns)
        assert np.array_equal(dataio.standardize(sub).returns, z)
        c = (z @ z.T) / T
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, 1.0)
        assert np.array_equal(corrdist.corr_matrix(sub).entries, np.clip(c, -1.0, 1.0))
        centered = np.stack([r - r.mean() for r in sub.returns])
        cov = (centered @ centered.T) / T
        assert np.array_equal(portfolio.covariance_matrix(sub).entries,
                              0.5 * (cov + cov.T))

    pairs = stationarity.all_pairs(n)
    skipped_pairs = [[i, j] for i, j in pairs if flagged[i] or flagged[j]]
    # both scans name the pair's first zero-variance ticker; the global
    # scan adds the first degenerate window, which is window 0 here
    names = [tickers[i] if flagged[i] else tickers[j] for i, j in skipped_pairs]
    global_report = stationarity.global_scan(panel, (WINDOW,), (0.05,))
    assert [s["pair"] for s in global_report.skipped] == skipped_pairs
    assert [s["detail"] for s in global_report.skipped] == [
        str(ZeroVariance(name, window=(0, WINDOW))) for name in names]
    local_report = stationarity.local_scan(panel, [LocalTestConfig(WINDOW, WINDOW)])
    assert [s["pair"] for s in local_report.skipped] == skipped_pairs
    assert [s["detail"] for s in local_report.skipped] == [
        str(ZeroVariance(name)) for name in names]
    assert global_report.cells[0].denominator == len(pairs) - len(skipped_pairs)



def test_a_ticker_flat_in_one_window_fails_that_window_only(tmp_path, capsys):
    returns = np.random.default_rng(7).normal(size=(4, 120))
    returns[1, 40:80] = 0.25
    panel = make_panel(returns, ("A", "B", "C", "D"))
    for build in (corrdist.corr_matrix, portfolio.covariance_matrix):
        whole = build(panel)
        assert isinstance(whole, portfolio.CovarianceMatrix) and whole.window == (0, 120)
        with pytest.raises(ZeroVariance, match=r"^zero variance for 'B' in window \(40, 80\)$"):
            build(panel, (40, 80))
    path = tmp_path / "panel.csv"
    dataio.save_panel_csv(panel, path)
    rc = cli.main(["spectral", "--input", str(path), "--input-kind", "returns",
                   "--window", "40", "--sectors", "1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ZeroVariance: zero variance for 'B' in window (40, 80)"]
