"""One array rule for every array the library takes.

Each entry point below refuses numeric strings, None, a ragged
sequence, complex numbers and an array of the wrong number of
dimensions with InvalidParameter naming the argument and giving the
value's type, dtype and shape, never its repr; none of them reads a
string as a number or ends in a ValueError or TypeError.  Boolean,
integer and float32 arrays are real: they give exactly the results of
the same values as float64.
"""
import pickle

import numpy as np
import pytest

from corrstat import corrdist, dataio, portfolio, spectral, stationarity, synthgen
from corrstat.errors import InvalidParameter, checked_array

PARAMS = corrdist.CorrParams(0.3, 50)
TRUTH = synthgen.identity_correlation(3)
SQUARE = [[2.0, 1.0], [1.0, 2.0]]
RHOS = [[0.5, -0.25], [0.0, 1.0]]


def _uniform_cdf(s):
    return (s + 1.0) / 2.0


# (argument name the message starts with, its number of dimensions (None:
# any), a value it takes, the entry point called with a value in its place)
ENTRY_POINTS = [
    ("returns", 2, [[1.0, 2.0, 4.0], [3.0, 1.0, 2.0]],
     lambda v: dataio.ReturnPanel(("A", "B"), ("0", "1", "2"), v)),
    ("entries", 2, SQUARE, lambda v: dataio.CovarianceMatrix(("A", "B"), v)),
    ("entries", 2, [[1.0, 0.0], [0.0, 1.0]], lambda v: synthgen.TrueCorrelation(v)),
    ("w", 1, [2.0, -1.0], lambda v: portfolio.WeightVector(("A", "B"), v)),
    ("eigenvalues", 1, [1.0, 2.0], lambda v: spectral.EigenSystem(v, np.eye(2))),
    ("eigenvectors", 2, [[1.0, 0.0], [0.0, 1.0]],
     lambda v: spectral.EigenSystem([1.0, 2.0], v)),
    ("rho", None, RHOS, lambda v: corrdist.rho_logdensity(v, PARAMS)),
    ("rho", None, RHOS, lambda v: corrdist.rho_density(v, PARAMS)),
    ("rho", None, RHOS, lambda v: corrdist.rho_cdf(v, PARAMS)),
    ("rho", None, RHOS, lambda v: corrdist.gaussian_approx_density(v, PARAMS)),
    ("matrix", 2, SQUARE, synthgen.cholesky),
    ("matrix", 2, SQUARE, spectral.eig_sym),
    ("vector", 1, [0.0, 1.0], spectral.ipr),
    ("volatilities", 1, [1.0, 2.0, 4.0],
     lambda v: portfolio.mc_band(3, 10, 10, 30, TRUTH, 0, volatilities=v)),
    ("samples", 1, [0.5, -0.25, 0.0, 0.75, 0.125],
     lambda v: stationarity.ks_statistic(v, _uniform_cdf)),
    ("estimates", 2, [[10.0, 0.0], [20.0, 0.5], [30.0, 0.5]],
     lambda v: stationarity.local_test(v, 1)),
]


def _refused(good, ndim):
    """(value, how the message describes it) for each value the rule refuses."""
    strings = np.asarray(good).astype(str).tolist()  # "0.5", "1.0", ...
    yield strings, f"list of dtype {np.asarray(strings).dtype} and shape {np.shape(good)}"
    yield None, "NoneType of dtype object and shape ()"
    yield [[1.0], [1.0, 2.0]], "a ragged list"
    yield np.asarray(good) + 0j, f"ndarray of dtype complex128 and shape {np.shape(good)}"
    if ndim is not None:
        yield [good], f"list of dtype float64 and shape {(1, *np.shape(good))}"


CASES = [(name, ndim, call, value, got) for name, ndim, good, call in ENTRY_POINTS
         for value, got in _refused(good, ndim)
         if not (name == "volatilities" and value is None)]  # mc_band's default


@pytest.mark.parametrize("name, ndim, call, value, got", CASES,
                         ids=[f"{k}-{case[0]}-{case[4]}" for k, case in enumerate(CASES)])
def test_every_array_argument_refuses_what_is_not_an_array_of_reals(name, ndim, call, value, got):
    with pytest.raises(InvalidParameter) as info:
        call(value)
    dims = "an array" if ndim is None else f"a {ndim}-d array"
    assert str(info.value) == f"{name} must be {dims} of real numbers, got {got}"


@pytest.mark.parametrize("dtype", [np.bool_, np.int32, np.int64, np.float32])
@pytest.mark.parametrize("name, ndim, good, call", ENTRY_POINTS,
                         ids=[f"{k}-{e[0]}" for k, e in enumerate(ENTRY_POINTS)])
def test_real_arrays_give_the_float64_results_bit_for_bit(name, ndim, good, call, dtype):
    value = np.asarray(good).astype(dtype)
    expected = _outcome(call, value.astype(np.float64))
    assert _outcome(call, value) == expected
    assert _outcome(call, value.tolist()) == expected


def _outcome(call, value):
    """The pickled result of call(value), or the type and message of its error."""
    try:
        return pickle.dumps(call(value))
    except Exception as exc:  # a cast may make the value invalid, a singular matrix say
        return type(exc), str(exc)


# Calls that read strings as numbers or ended in a ValueError or TypeError
# before the rule, with the message each now raises.
NAMED = [
    (lambda: corrdist.rho_density("0.5", PARAMS),
     "rho must be an array of real numbers, got str of dtype <U3 and shape ()"),
    (lambda: corrdist.rho_cdf("0.1", PARAMS),
     "rho must be an array of real numbers, got str of dtype <U3 and shape ()"),
    (lambda: corrdist.rho_density("abc", PARAMS),
     "rho must be an array of real numbers, got str of dtype <U3 and shape ()"),
    (lambda: corrdist.gaussian_approx_density("x", PARAMS),
     "rho must be an array of real numbers, got str of dtype <U1 and shape ()"),
    (lambda: spectral.eig_sym([["1", "0"], ["0", "1"]]),
     "matrix must be a 2-d array of real numbers, got list of dtype <U1 and shape (2, 2)"),
    (lambda: spectral.eig_sym("abc"),
     "matrix must be a 2-d array of real numbers, got str of dtype <U3 and shape ()"),
    (lambda: spectral.ipr(["0.6", "0.8"]),
     "vector must be a 1-d array of real numbers, got list of dtype <U3 and shape (2,)"),
    (lambda: spectral.ipr([[0.6, 0.8]]),
     "vector must be a 1-d array of real numbers, got list of dtype float64 and shape (1, 2)"),
    (lambda: synthgen.cholesky([["1"]]),
     "matrix must be a 2-d array of real numbers, got list of dtype <U1 and shape (1, 1)"),
    (lambda: portfolio.WeightVector(("A", "B"), ["0.5", "0.5"]),
     "w must be a 1-d array of real numbers, got list of dtype <U3 and shape (2,)"),
    (lambda: stationarity.ks_statistic(["0.1", "0.2", "0.3", "0.4", "0.5"], _uniform_cdf),
     "samples must be a 1-d array of real numbers, got list of dtype <U3 and shape (5,)"),
    (lambda: dataio.ReturnPanel(("A",), ("0",), [["x"]]),
     "returns must be a 2-d array of real numbers, got list of dtype <U1 and shape (1, 1)"),
    (lambda: dataio.ReturnPanel(("A",), ("0",), [1.0]),
     "returns must be a 2-d array of real numbers, got list of dtype float64 and shape (1,)"),
    (lambda: stationarity.local_test([1, 2, 3], 1),
     "estimates must be a 2-d array of real numbers, got list of dtype int64 and shape (3,)"),
    (lambda: stationarity.local_test([(10, 0.0, 1.0), (20, 0.5, 1.0)], 1),
     "estimates must be (length, rho) pairs, got shape (2, 3)"),
    (lambda: stationarity.ks_statistic([0.1, 0.2, 0.3, 0.4, 0.5], lambda s: s.astype(str)),
     "cdf values must be an array of real numbers, got ndarray of dtype <U32 and shape (5,)"),
    # empty arrays, which ended in numpy's errors and warnings
    (lambda: spectral.eig_sym(np.zeros((0, 0))), "matrix must be at least 1 x 1"),
    (lambda: spectral.spectral_snapshot(np.zeros((0, 0))), "matrix must be at least 1 x 1"),
    (lambda: synthgen.cholesky(np.zeros((0, 0))), "cholesky needs a matrix of at least 1 x 1"),
    (lambda: portfolio.min_variance_weights(dataio.CovarianceMatrix((), np.zeros((0, 0)))),
     "minimum-variance weights need at least one series"),
    (lambda: spectral.EigenSystem(np.zeros(0), np.zeros((0, 0))),
     "an eigensystem needs at least one eigenvalue"),
    (lambda: dataio.ReturnPanel(("A", "B"), (), np.zeros((2, 0))),
     "a panel needs at least one step"),
]


@pytest.mark.parametrize("call, message", NAMED, ids=[m for _, m in NAMED])
def test_strings_and_misshapen_arrays_are_named(call, message):
    with pytest.raises(InvalidParameter) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("cov_or_weights", [0, 1])
@pytest.mark.parametrize("value", ["0.5", None, [[1.0], [1.0, 2.0]], np.array([0.5j, 0.5]),
                                   np.array([[0.5, 0.5]]), np.array([0.5, 0.5])])
def test_portfolio_variance_takes_only_its_typed_arguments(cov_or_weights, value):
    cov = dataio.CovarianceMatrix(("A", "B"), SQUARE)
    weights = portfolio.WeightVector(("A", "B"), [0.5, 0.5])
    args = [cov, weights]
    args[cov_or_weights] = value
    with pytest.raises(InvalidParameter) as info:
        portfolio.portfolio_variance(*args)
    assert str(info.value) == "portfolio_variance takes a CovarianceMatrix and a WeightVector"
    assert portfolio.portfolio_variance(cov, weights) == 1.5


def test_the_rule_returns_a_new_c_order_float64_array():
    given = np.arange(6, dtype=np.int16).reshape(2, 3).T  # Fortran order
    got = checked_array("x", given, 2)
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, given)
    floats = np.ones(3)
    assert not np.shares_memory(checked_array("x", floats), floats)
    assert checked_array("x", 0.5).shape == ()


def test_the_message_never_holds_the_values():
    with pytest.raises(InvalidParameter) as info:
        checked_array("x", [str(k) for k in range(10_000)], 1)
    assert str(info.value) == ("x must be a 1-d array of real numbers, "
                               "got list of dtype <U4 and shape (10000,)")


def test_a_number_rho_gives_a_numpy_float_and_an_array_its_shape():
    for f in (corrdist.rho_logdensity, corrdist.rho_density, corrdist.rho_cdf,
              corrdist.gaussian_approx_density):
        scalar = f(0.2, PARAMS)
        assert type(scalar) is np.float64 and isinstance(scalar, float)
        assert scalar == f([0.2], PARAMS)[0] == f(np.float64(0.2), PARAMS)
        assert f(np.full((2, 3, 1), 0.2), PARAMS).shape == (2, 3, 1)
