"""One integer rule for every count, size, index and seed the library takes.

Each entry point below refuses a float (even one with an integral
value), a string, None and a value under its bound with InvalidParameter
naming the argument; none of them truncates, hashes or passes such a
value on to numpy.  Numpy integers are integers: they give exactly the
results of the equal Python ints.
"""
import hashlib

import numpy as np
import pytest

from conftest import gaussian_panel
from corrstat import (corrdist, dataio, parallel, portfolio, rngutil, spectral, stationarity,
                      synthgen)
from corrstat.dataio import MIN_T
from corrstat.errors import InvalidParameter
from corrstat.stationarity import SIGMA_PAPER, LocalTestConfig

PANEL = gaussian_panel(4, 300, seed=4)
QPANEL = gaussian_panel(3, 100, seed=4)
TRUTH = synthgen.identity_correlation(3)
CORR = corrdist.corr_matrix(gaussian_panel(6, 100, seed=1))
ESTIMATES = [(10, 0.0), (20, 0.5), (30, 0.55)]


# (argument name the message starts with, least valid value, the entry
# point called with the value in that argument's place)
ENTRY_POINTS = [
    ("t1", MIN_T, lambda v: LocalTestConfig(v, 5)),
    ("tau", 1, lambda v: LocalTestConfig(50, v)),
    ("n", 1, lambda v: LocalTestConfig(50, 5, (1, v))),
    ("window_len", MIN_T, lambda v: stationarity.global_scan(PANEL, (25, v))),
    ("n", 1, lambda v: stationarity.local_test(ESTIMATES, v)),
    ("tau", 1, lambda v: stationarity.local_test(ESTIMATES, 1, SIGMA_PAPER, v)),
    ("K", 0, lambda v: stationarity.ks_pvalue(0.1, v)),
    ("n", 0, stationarity.all_pairs),
    ("window_len", MIN_T, lambda v: dataio.window_slices(300, v)),
    ("t_total", 0, lambda v: dataio.window_slices(v, 25)),
    ("n_obs", MIN_T, lambda v: corrdist.CorrParams(0.3, v)),
    ("threads", 1, parallel.resolve_threads),
    ("threads", 1, lambda v: stationarity.global_scan(PANEL, (25,), threads=v)),
    ("seed", 0, lambda v: rngutil.rng_for(v, "x")),
    ("seed", 0, lambda v: stationarity.local_scan(PANEL, [LocalTestConfig(50, 25)],
                                                  mc_family=synthgen.FAMILY_GAUSSIAN,
                                                  mc_seed=v)),
    ("substream index", 0, lambda v: rngutil.rng_for(1, "x", v)),
    ("substream index", 0,
     lambda v: synthgen.sample_panel(TRUTH, 50, 0, synthgen.FAMILY_GAUSSIAN, replica=v)),
    ("t1", 2, lambda v: portfolio.q_series(QPANEL, v, 20)),
    ("t2", 2, lambda v: portfolio.q_series(QPANEL, 20, v)),
    ("n_series", 1, lambda v: portfolio.mc_band(v, 20, 20, 30, TRUTH, 0)),
    ("t1", 2, lambda v: portfolio.mc_band(3, v, 20, 30, TRUTH, 0)),
    ("t2", 2, lambda v: portfolio.mc_band(3, 20, v, 30, TRUTH, 0)),
    ("replicas", portfolio.MIN_REPLICAS, lambda v: portfolio.mc_band(3, 20, 20, v, TRUTH, 0)),
    ("n_stocks", 1, lambda v: portfolio.select_stocks(PANEL, v, 0)),
    ("sectors", 1, lambda v: spectral.spectral_snapshot(CORR, v)),
    ("N", 1, synthgen.identity_correlation),
    ("N", 2, lambda v: synthgen.equicorr_correlation(v, 0.3)),
    ("N", 1, lambda v: synthgen.one_factor_correlation(v, 0)),
    ("n_steps", 1, lambda v: synthgen.sample_panel(TRUTH, v, 0, synthgen.FAMILY_GAUSSIAN)),
    ("n_steps", 1, lambda v: synthgen.sample_panel(TRUTH, v, 0, synthgen.FAMILY_STUDENT_T, 4.0)),
    ("seed", 0, lambda v: synthgen.sample_panel(TRUTH, 50, v, synthgen.FAMILY_GAUSSIAN)),
    ("N", 1, synthgen.synthetic_tickers),
]


CASES = [(name, low, call, value) for name, low, call in ENTRY_POINTS
         for value in (2.5, np.float64(50.0), "3", None, low - 1)]


@pytest.mark.parametrize("name, low, call, value", CASES,
                         ids=[f"{k}-{case[0]}-{case[3]!r}" for k, case in enumerate(CASES)])
def test_every_integer_argument_refuses_what_is_not_an_integer_at_its_bound(
        name, low, call, value):
    with pytest.raises(InvalidParameter) as info:
        call(value)
    bound = "a non-negative integer" if low == 0 else f"an integer >= {low}"
    assert str(info.value) == f"{name} must be {bound}, got {value!r}"


def test_numpy_integers_give_the_python_int_results():
    i64, i32 = np.int64, np.int32
    assert (rngutil.rng_for(i64(3), "x", i32(2)).random(4).tolist()
            == rngutil.rng_for(3, "x", 2).random(4).tolist())
    assert portfolio.q_series(QPANEL, i64(20), i32(20)) == portfolio.q_series(QPANEL, 20, 20)
    assert (portfolio.mc_band(i64(3), i32(20), i64(20), i32(30), TRUTH, i64(7))
            == portfolio.mc_band(3, 20, 20, 30, TRUTH, 7))
    assert (portfolio.select_stocks(PANEL, i64(2), i32(1)).tickers
            == portfolio.select_stocks(PANEL, 2, 1).tickers)
    assert spectral.spectral_snapshot(CORR, i64(2)) == spectral.spectral_snapshot(CORR, 2)
    for build, args in ((synthgen.identity_correlation, ()),
                        (synthgen.equicorr_correlation, (0.3,)),
                        (synthgen.one_factor_correlation, (5,))):
        assert np.array_equal(build(i32(3), *args).entries, build(3, *args).entries)
    numpy_ints = synthgen.sample_panel(TRUTH, i32(50), i64(2), synthgen.FAMILY_GAUSSIAN,
                                       replica=i32(1))
    ints = synthgen.sample_panel(TRUTH, 50, 2, synthgen.FAMILY_GAUSSIAN, replica=1)
    assert numpy_ints.times == ints.times
    assert np.array_equal(numpy_ints.returns, ints.returns)
    assert np.array_equal(stationarity.all_pairs(i64(4)), stationarity.all_pairs(4))
    assert stationarity.ks_pvalue(0.1, i32(70)) == stationarity.ks_pvalue(0.1, 70)
    assert (corrdist.rho_cdf(0.2, corrdist.CorrParams(0.3, i64(50)))
            == corrdist.rho_cdf(0.2, corrdist.CorrParams(0.3, 50)))
    assert dataio.window_slices(i64(300), i32(100)) == dataio.window_slices(300, 100)
    assert synthgen.synthetic_tickers(i32(12)) == synthgen.synthetic_tickers(12)
    assert parallel.resolve_threads(i64(2)) == 2
    assert (stationarity.global_scan(PANEL, (i64(25),), reshuffle_seed=i32(1),
                                     threads=i64(2)).cells
            == stationarity.global_scan(PANEL, (25,), reshuffle_seed=1).cells)
    assert (stationarity.local_scan(PANEL, [LocalTestConfig(i64(50), i32(25), (i64(1), 2))],
                                    mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=i32(3)).cells
            == stationarity.local_scan(PANEL, [LocalTestConfig(50, 25, (1, 2))],
                                       mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=3).cells)
    assert (stationarity.local_test(ESTIMATES, i64(1), SIGMA_PAPER, i32(10))
            == stationarity.local_test(ESTIMATES, 1, SIGMA_PAPER, 10))


@pytest.mark.parametrize("seed, stream", [(1.9, ("x",)), (1, ("x", 1.5)),
                                          (np.float64(2.0), ("x",)), (1, ("x", None)),
                                          (1, ("x", 2.0))])
def test_rng_for_refuses_a_float_seed_or_index_instead_of_aliasing_it(seed, stream):
    with pytest.raises(InvalidParameter):
        rngutil.rng_for(seed, *stream)


def test_a_float_reshuffle_seed_is_refused_not_run_as_its_floor():
    with pytest.raises(InvalidParameter, match="seed must be a non-negative integer, got 2.7"):
        stationarity.global_scan(PANEL, (25,), reshuffle_seed=2.7)


def test_the_label_is_hashed_and_each_index_kept_as_the_integer_it_is():
    # one (seed, sha256(label)[:8], *indices) entropy tuple per substream, so a
    # string index such as replica="3" is refused above rather than hashed
    label = int.from_bytes(hashlib.sha256(b"gaussian-panel").digest()[:8], "big")
    philox = np.random.Philox(np.random.SeedSequence((42, label, 3)))
    assert (rngutil.rng_for(42, "gaussian-panel", 3).random(4).tolist()
            == np.random.Generator(philox).random(4).tolist())
