"""One real-number rule for every level, threshold and shape parameter.

Each entry point below refuses a numeric string, None, a complex number,
NaN, a bool (True and np.True_ alike), a real beyond float64 and a value
outside its bound with InvalidParameter naming the argument and its
bound; none of them ends in a TypeError or an OverflowError or reads NaN
as a pass.  Numpy floats, long doubles and integers are reals: they give
exactly the results of the equal Python floats.
"""
import math

import numpy as np
import pytest

from conftest import gaussian_panel, outcome
from corrstat import corrdist, portfolio, spectral, stationarity, synthgen
from corrstat.errors import InvalidParameter, checked_real

PANEL = gaussian_panel(4, 300, seed=4)
TRUTH = synthgen.identity_correlation(3)
BAND = portfolio.MCBand(1.0, 0.1)
DELTA = spectral.SpectralDelta(0.5, -0.2, -0.2)
STUDENT_T = synthgen.FAMILY_STUDENT_T


def _student_t(nu):
    return synthgen.sample_panel(TRUTH, 50, 0, STUDENT_T, nu)


# (argument name the message starts with, its bound, a value outside the
# bound, a valid value that a float64 and a long double both hold exactly,
# the entry point called with the value in that argument's place)
ENTRY_POINTS = [
    ("rho_bar", corrdist.RHO_BAR_RULE[1], 1.0, 0.0, lambda v: corrdist.CorrParams(v, 50)),
    ("alpha", "a number in (0, 1)", 1.5, 0.25,
     lambda v: stationarity.global_scan(PANEL, (25,), (0.05, v))),
    ("nu", synthgen.NU_RULE[1], 2.5, 4.0, _student_t),
    ("nu", synthgen.NU_RULE[1], math.inf, 4.0,
     lambda v: stationarity.global_scan(PANEL, (25,), mc_family=STUDENT_T, mc_nu=v)),
    ("n_sigma", "a finite positive number", 0.0, 1.0,
     lambda v: portfolio.flag_band_violations([], BAND, v)),
    ("market threshold", "a number >= 0", -0.1, 0.0,
     lambda v: spectral.co_occurrence_flag(DELTA, (v, 0.0, 0.0))),
    ("sector threshold", "a number <= 0", 0.1, 0.0,
     lambda v: spectral.co_occurrence_flag(DELTA, (0.0, v, 0.0))),
    ("ipr threshold", "a number <= 0", 0.1, 0.0,
     lambda v: spectral.co_occurrence_flag(DELTA, (0.0, 0.0, v))),
    ("rho", "a number in (-1/2, 1)", -0.5, 0.25, lambda v: synthgen.equicorr_correlation(3, v)),
    ("D", "a number in [0, 1]", -0.1, 0.25, lambda v: stationarity.ks_pvalue(v, 10)),
]

CASES = [(name, bound, call, value) for name, bound, outside, _, call in ENTRY_POINTS
         for value in ("0.5", None, 0.5j, math.nan, outside)]
CASES += [(name, bound, call, value) for name, bound, _, _, call in ENTRY_POINTS
          for value in (True, np.True_, 10 ** 400, np.longdouble("1e400"))]


@pytest.mark.parametrize("name, bound, call, value", CASES,
                         ids=[f"{k}-{case[0]}-{case[3]!r:.24}" for k, case in enumerate(CASES)])
def test_every_real_argument_refuses_what_is_not_a_number_within_its_bound(
        name, bound, call, value):
    with pytest.raises(InvalidParameter) as info:
        call(value)
    assert str(info.value) == f"{name} must be {bound}, got {value!r}"


@pytest.mark.parametrize("name, valid, call", [(name, valid, call) for name, _, _, valid, call
                                               in ENTRY_POINTS],
                         ids=[f"{k}-{row[0]}" for k, row in enumerate(ENTRY_POINTS)])
def test_every_real_argument_takes_a_long_double_and_a_numpy_integer_as_the_float(
        name, valid, call):
    assert outcome(call, np.longdouble(valid)) == outcome(call, valid)
    if valid == int(valid):
        assert outcome(call, np.uint64(valid)) == outcome(call, valid)


def test_the_rule_returns_the_value_and_refuses_nan_under_any_comparison():
    assert checked_real("x", np.float32(0.25), lambda v: v > 0, "positive") == 0.25
    assert type(checked_real("x", np.float32(0.25), lambda v: v > 0, "positive")) is float
    for ok in (lambda v: v > 0, lambda v: v <= 0, lambda v: abs(v) < math.inf):
        with pytest.raises(InvalidParameter, match="^x must be b, got nan$"):
            checked_real("x", math.nan, ok, "b")


def test_numpy_floats_give_the_python_float_results():
    f64 = np.float64
    assert (corrdist.rho_cdf(0.2, corrdist.CorrParams(f64(0.3), 50))
            == corrdist.rho_cdf(0.2, corrdist.CorrParams(0.3, 50)))
    assert (stationarity.global_scan(PANEL, (25,), (f64(0.05), np.float32(0.5))).cells
            == stationarity.global_scan(PANEL, (25,), (0.05, 0.5)).cells)
    assert np.array_equal(_student_t(f64(4.0)).returns, _student_t(4.0).returns)
    assert np.array_equal(synthgen.equicorr_correlation(3, f64(0.2)).entries,
                          synthgen.equicorr_correlation(3, 0.2).entries)
    assert stationarity.ks_pvalue(f64(0.3), 10) == stationarity.ks_pvalue(0.3, 10)
    assert spectral.co_occurrence_flag(DELTA, (f64(0.1), f64(-0.1), 0)) is True
    exp = portfolio.QExperiment(0, (0, 2), (2, 4), 1.0, 1.3, 1.3)
    assert (portfolio.flag_band_violations([exp], BAND, f64(2.0))
            == portfolio.flag_band_violations([exp], BAND, 2.0) == [True])
