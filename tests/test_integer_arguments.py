"""One integer rule for every count, size, index and seed the library takes.

Each entry point below refuses a float (even one with an integral
value), a string, None, a bool (True and np.True_ alike) and a value
under its bound with InvalidParameter naming the argument; none of them
truncates, hashes or passes such a value on to numpy.  Numpy integers,
signed and unsigned, are integers: they give exactly the results of the
equal Python ints, and no numpy number reaches a result.  A count that
sizes work has a ceiling, and a count past it is refused before any
work; those huge counts are tried only in a child process that caps its
own address space.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import gaussian_panel, outcome
from corrstat import (corrdist, dataio, parallel, portfolio, rngutil, spectral, stationarity,
                      synthgen)
from corrstat.dataio import MAX_CELLS, MAX_SQUARE, MAX_T, MIN_T
from corrstat.errors import InvalidParameter
from corrstat.stationarity import SIGMA_PAPER, LocalTestConfig

PANEL = gaussian_panel(4, 300, seed=4)
QPANEL = gaussian_panel(3, 100, seed=4)
TRUTH = synthgen.identity_correlation(3)
CORR = corrdist.corr_matrix(gaussian_panel(6, 100, seed=1))
ESTIMATES = [(10, 0.0), (20, 0.5), (30, 0.55)]
GAUSSIAN, STUDENT_T, NONE = synthgen.FAMILY_GAUSSIAN, synthgen.FAMILY_STUDENT_T, math.inf


# (argument name the message starts with, least valid value, ceiling (NONE
# where the count sizes no work), the entry point called with the value in
# that argument's place)
ENTRY_POINTS = [
    ("t1", MIN_T, MAX_T, lambda v: LocalTestConfig(v, 5)),
    ("tau", 1, MAX_T, lambda v: LocalTestConfig(50, v)),
    ("n", 1, MAX_CELLS, lambda v: LocalTestConfig(50, 5, (1, v))),
    ("window_len", MIN_T, NONE, lambda v: stationarity.global_scan(PANEL, (25, v))),
    ("n", 1, MAX_CELLS, lambda v: stationarity.local_test(ESTIMATES, v)),
    ("tau", 1, MAX_T, lambda v: stationarity.local_test(ESTIMATES, 1, SIGMA_PAPER, v)),
    ("K", 0, MAX_CELLS, lambda v: stationarity.ks_pvalue(0.1, v)),
    ("n", 0, MAX_SQUARE, stationarity.all_pairs),
    ("window_len", MIN_T, NONE, lambda v: dataio.window_slices(300, v)),
    ("t_total", 0, MAX_T, lambda v: dataio.window_slices(v, 25)),
    ("n_obs", MIN_T, MAX_T, lambda v: corrdist.CorrParams(0.3, v)),
    ("threads", 1, NONE, parallel.resolve_threads),
    ("threads", 1, NONE, lambda v: stationarity.global_scan(PANEL, (25,), threads=v)),
    ("seed", 0, NONE, lambda v: rngutil.rng_for(v, "x")),
    ("seed", 0, NONE, lambda v: stationarity.local_scan(PANEL, [LocalTestConfig(50, 25)],
                                                        mc_family=GAUSSIAN, mc_seed=v)),
    ("substream index", 0, NONE, lambda v: rngutil.rng_for(1, "x", v)),
    ("substream index", 0, NONE,
     lambda v: synthgen.sample_panel(TRUTH, 50, 0, GAUSSIAN, replica=v)),
    ("t1", 2, NONE, lambda v: portfolio.q_series(QPANEL, v, 20)),
    ("t2", 2, NONE, lambda v: portfolio.q_series(QPANEL, 20, v)),
    ("n_series", 1, NONE, lambda v: portfolio.mc_band(v, 20, 20, 30, TRUTH, 0)),
    ("t1", 2, MAX_T, lambda v: portfolio.mc_band(3, v, 20, 30, TRUTH, 0)),
    ("t2", 2, MAX_T, lambda v: portfolio.mc_band(3, 20, v, 30, TRUTH, 0)),
    ("replicas", portfolio.MIN_REPLICAS, MAX_CELLS,
     lambda v: portfolio.mc_band(3, 20, 20, v, TRUTH, 0)),
    ("n_stocks", 1, NONE, lambda v: portfolio.select_stocks(PANEL, v, 0)),
    ("sectors", 1, NONE, lambda v: spectral.spectral_snapshot(CORR, v)),
    ("N", 1, MAX_SQUARE, synthgen.identity_correlation),
    ("N", 2, MAX_SQUARE, lambda v: synthgen.equicorr_correlation(v, 0.3)),
    ("N", 1, MAX_SQUARE, lambda v: synthgen.one_factor_correlation(v, 0)),
    ("n_steps", 1, MAX_CELLS // 3, lambda v: synthgen.sample_panel(TRUTH, v, 0, GAUSSIAN)),
    ("n_steps", 1, MAX_CELLS // 3,
     lambda v: synthgen.sample_panel(TRUTH, v, 0, STUDENT_T, 4.0)),
    ("seed", 0, NONE, lambda v: synthgen.sample_panel(TRUTH, 50, v, GAUSSIAN)),
    ("N", 1, MAX_CELLS, synthgen.synthetic_tickers),
]


CASES = [(name, low, call, value) for name, low, _, call in ENTRY_POINTS
         for value in (2.5, np.float64(50.0), "3", None, low - 1)]
CASES += [(name, low, call, value) for name, low, _, call in ENTRY_POINTS
          for value in (True, np.True_)]


@pytest.mark.parametrize("name, low, call, value", CASES,
                         ids=[f"{k}-{case[0]}-{case[3]!r}" for k, case in enumerate(CASES)])
def test_every_integer_argument_refuses_what_is_not_an_integer_at_its_bound(
        name, low, call, value):
    with pytest.raises(InvalidParameter) as info:
        call(value)
    bound = "a non-negative integer" if low == 0 else f"an integer >= {low}"
    assert str(info.value) == f"{name} must be {bound}, got {value!r}"


@pytest.mark.parametrize("name, low, call", [(name, low, call) for name, low, _, call
                                             in ENTRY_POINTS],
                         ids=[f"{k}-{row[0]}" for k, row in enumerate(ENTRY_POINTS)])
def test_every_integer_argument_takes_its_least_value_as_a_numpy_unsigned_integer(
        name, low, call):
    assert outcome(call, np.uint64(low)) == outcome(call, low)


# Run in a child process: it caps its own address space first, so a count
# that escaped its ceiling ends in a MemoryError here, not in the machine's
# memory running out.
HUGE_COUNTS = """
import math, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path[:0] = sys.argv[1:]
import test_integer_arguments as table
from corrstat.errors import CorrstatError
for k, (name, _, high, call) in enumerate(table.ENTRY_POINTS):
    for value in (2 ** 63, 10 ** 30):
        try:
            call(value)
        except CorrstatError as exc:
            ceiling = f"{name} must be an integer <= {high}, got {value}"
            assert high == math.inf or str(exc) == ceiling, (k, exc)
        else:
            assert high == math.inf, (k, name, "no ceiling")
"""


def test_a_count_past_its_ceiling_is_refused_before_any_work():
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-W", "error", "-c", HUGE_COUNTS,
                           str(here.parent / "src"), str(here)],
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _python_ints(ranges):
    return all(type(bound) is int for pair in ranges for bound in pair)


def test_numpy_integers_give_the_python_int_results():
    i64, i32, u64, u32 = np.int64, np.int32, np.uint64, np.uint32
    assert (rngutil.rng_for(i64(3), "x", i32(2)).random(4).tolist()
            == rngutil.rng_for(3, "x", 2).random(4).tolist())
    for t1, t2, chained in ((i64(20), i32(20), True), (u64(20), u32(20), True),
                            (u32(25), u64(10), False)):
        samples = portfolio.q_series(QPANEL, t1, t2, chained)
        assert samples == portfolio.q_series(QPANEL, int(t1), int(t2), chained)
        assert _python_ints(e.t1_range for e in samples)
        assert _python_ints(e.t2_range for e in samples)
    for wide, narrow in ((i64, i32), (u64, u32)):
        assert (portfolio.mc_band(wide(3), narrow(20), wide(20), narrow(30), TRUTH, wide(7))
                == portfolio.mc_band(3, 20, 20, 30, TRUTH, 7))
        assert dataio.window_slices(wide(300), narrow(100)) == dataio.window_slices(300, 100)
        assert _python_ints(dataio.window_slices(narrow(300), wide(100)))
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


def test_a_bool_is_no_index_a_pair_is_skipped_and_a_window_refused():
    report = stationarity.global_scan(PANEL, (25,), pairs=[(True, 2), (0, 1)])
    assert [(s["pair"], s["detail"]) for s in report.skipped] == [
        ([True, 2], "pair (True, 2) invalid for N=4")]
    assert report.cells[0].denominator == 1
    report = stationarity.local_scan(PANEL, [LocalTestConfig(50, 25)], pairs=[(0, np.True_)])
    assert [s["detail"] for s in report.skipped] == ["pair (0, True) invalid for N=4"]
    for window in ((True, 50), (0, np.True_)):
        with pytest.raises(InvalidParameter, match=r"^window bounds must be integers"):
            portfolio.covariance_matrix(PANEL, window)


def test_scan_params_and_skips_hold_python_numbers():
    report = stationarity.global_scan(PANEL, (np.int64(25), np.uint32(30)), (np.float32(0.5),),
                                      pairs=[(np.uint64(1), 2), (np.int64(0), 9)],
                                      reshuffle_seed=np.uint64(1), mc_family=STUDENT_T,
                                      mc_nu=np.int64(4), mc_seed=np.int32(2))
    json.dumps(report.params)
    json.dumps(report.skipped)
    assert report == stationarity.global_scan(PANEL, (25, 30), (0.5,), pairs=[(1, 2), (0, 9)],
                                              reshuffle_seed=1, mc_family=STUDENT_T, mc_nu=4.0,
                                              mc_seed=2)
    assert type(report.params["mc_nu"]) is float
    report = stationarity.local_scan(PANEL, [LocalTestConfig(np.uint64(50), np.int32(25),
                                                             (np.uint8(2),))],
                                     mc_family=GAUSSIAN, mc_seed=np.uint64(3))
    assert json.loads(json.dumps(report.params)) == report.params
