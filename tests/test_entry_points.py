"""One argument contract for every public entry point, generated from tests/_entry_points.py.

For each argument of each registry row, the odd values come from the
argument's kind: True and np.True_, numpy integers signed and unsigned,
integral floats, NaN, +-inf, long doubles, numeric strings, None,
complex numbers, ragged, nested and empty collections, an endless
iterator (where the collection has a count, so the read is bounded) and
object().  Each call returns the result that the equal Python value
gives, or raises a CorrstatError whose message starts with the
argument's stem, and is exactly the rule's where the kind fixes it; it
never raises another exception and never emits a warning.  Counts past
a ceiling run in one child process that caps its own address space.
The rules' own tests and the checks that name a value in their own terms
follow the generated ones.
"""
import hashlib
import importlib
import inspect
import itertools
import json
import math
import os
import pickle
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import corrstat
from _entry_points import (BAND, COV, ENTRY_POINTS, EXEMPT, PANEL, PARAMS, SQUARE, WEIGHTS, Array,
                           Choice, Count, Items, Real, Symmetric, Typed)
from conftest import gaussian_panel, make_panel, outcome
from corrstat import corrdist, dataio, errors, portfolio, rngutil, spectral, stationarity
from corrstat.errors import (DomainError, DuplicateTicker, InsufficientData, InvalidParameter,
                             NotSymmetric, checked_array, checked_items, checked_iter,
                             checked_real, checked_symmetric)
from corrstat.stationarity import LocalTestConfig
from corrstat.synthgen import TrueCorrelation

# (id, a function that makes the value afresh) of the values every kind is tried with
COMMON = [("True", lambda: True), ("np.True_", lambda: np.True_), ("None", lambda: None),
          ("'3'", lambda: "3"), ("0.5j", lambda: 0.5j), ("nan", lambda: math.nan),
          ("inf", lambda: math.inf), ("-inf", lambda: -math.inf), ("object()", object),
          ("[]", list), ("ragged", lambda: [[1.0], [1.0, 2.0]]), ("endless", itertools.count)]
NOT_ITERABLE = {"True", "np.True_", "None", "0.5j", "nan", "inf", "-inf", "object()"}


# An expectation is (how, f): "refused", f(value) the (error, message) the call must raise;
# "same", f(value) the Python value whose outcome the call must give; "either", a result or
# f(value)'s refusal; "error", any refusal; "stem", a result or any refusal.
def _refusal(message, error=InvalidParameter):
    return "refused", lambda x: (error.__name__, message(x))


def _count(kind, valid):
    bound = "a non-negative integer" if kind.low == 0 else f"an integer >= {kind.low}"
    refused = _refusal(lambda x: f"{kind.stem} must be {bound}, got {x!r}")
    yield from ((label, make, refused) for label, make in COMMON)
    for label, make in [("low-1", lambda: kind.low - 1), ("2.5", lambda: 2.5),
                        ("float", lambda: float(valid)), ("np.float64", lambda: np.float64(valid)),
                        ("np.longdouble", lambda: np.longdouble(valid)),
                        ("nested", lambda: [valid])]:
        yield label, make, refused
    for label, cast, equal in [("np.int64", np.int64, valid), ("np.uint32", np.uint32, valid),
                               ("np.int32-low", np.int32, kind.low),
                               ("np.uint64-low", np.uint64, kind.low)]:
        yield label, lambda cast=cast, equal=equal: cast(equal), ("same", lambda x, e=equal: e)


def _real(kind, valid):
    message = lambda x: f"{kind.stem} must be {kind.bound}, got {x!r}"
    for label, make in COMMON + [("outside", lambda: kind.outside), ("10**400", lambda: 10 ** 400),
                                 ("np.longdouble(1e400)", lambda: np.longdouble("1e400")),
                                 ("nested", lambda: [valid])]:
        yield label, make, ("either", _refusal(message)[1]) if "inf" in label else _refusal(message)
    sames = [("np.longdouble", np.longdouble), ("np.float32", np.float32)]
    if valid == int(valid):
        sames += [("np.int64", lambda v: np.int64(int(v))),
                  ("np.uint64", lambda v: np.uint64(int(v)))]
    for label, cast in sames:
        yield label, lambda cast=cast: cast(valid), ("same", lambda x: valid)


def _array_expectation(stem, ndim, x):
    """The array rule's verdict on x: its float64 array's outcome, or the refusal naming it."""
    head = f"{stem} must be {'an array' if ndim is None else f'a {ndim}-d array'} of real numbers"
    try:
        arr = np.asarray(x)
    except ValueError:
        return _refusal(lambda x: f"{head}, got a ragged {type(x).__name__}")
    if arr.dtype.kind in "biuf" and ndim in (None, arr.ndim):
        return "same", lambda x: np.asarray(x).astype(np.float64)
    return _refusal(lambda x: f"{head}, got {type(x).__name__} of dtype {arr.dtype} "
                              f"and shape {arr.shape}")


def _arrays(stem, ndim, valid):
    for label, make in COMMON + [("strings", lambda: np.asarray(valid).astype(str).tolist()),
                                 ("complex", lambda: np.asarray(valid) + 0j),
                                 ("nested", lambda: [valid])]:
        yield label, make, _array_expectation(stem, ndim, make())


def _symmetric(kind, valid):
    yield from _arrays(kind.stem, 2, valid)
    for label, shape in [("empty", (0, 0)), ("lopsided", (2, 3))]:
        yield label, lambda shape=shape: np.full(shape, 0.5), _refusal(
            lambda x: f"{kind.stem} must be square and at least 1 x 1, got shape {x.shape}")
    asymmetric = np.array(valid, dtype=np.float64)
    asymmetric[0, 1] += 0.2
    gap, bound = abs(asymmetric[0, 1] - asymmetric[1, 0]), 1e-12 * max(1.0, abs(asymmetric).max())
    yield "asymmetric", asymmetric.copy, _refusal(
        lambda x: f"{kind.stem} asymmetry {gap:.3e} exceeds {bound:.3e}", NotSymmetric)


def _items(kind, valid):
    refused = _refusal(lambda x: f"{kind.stem} must be {kind.bound}, got {x!r}")
    sizes = {"'3'": 1, "[]": 0, "ragged": 2, "nested": 1, "endless": math.inf}
    for label, make in COMMON + [("nested", lambda: [valid])]:
        if label in NOT_ITERABLE or kind.count not in (None, sizes[label]):
            yield label, make, refused
        elif kind.count is not None or label != "endless":  # an uncounted read is whole
            yield label, make, ("stem", None)
    yield "iter", lambda: iter(valid), ("same", lambda x: valid)


def _typed(kind, valid):
    names = " or ".join(t.__name__ for t in kind.types)
    refused = _refusal(lambda x: f"{kind.stem} must be of type {names}, got {type(x).__name__}")
    yield from ((label, make, refused) for label, make in COMMON
                if not isinstance(make(), kind.types))


def _choice(kind, valid):
    yield from ((label, make, ("error", None))
                for label, make in COMMON + [("'bogus'", lambda: "bogus")])


KINDS = {Count: _count, Real: _real, Array: lambda kind, valid: _arrays(*kind, valid),
         Symmetric: _symmetric, Items: _items, Typed: _typed, Choice: _choice}


def _cases():
    for row, entry in enumerate(ENTRY_POINTS):
        for arg in entry.args:
            valid = entry.valid[arg.param] if arg.valid is None else arg.valid
            for label, make, expect in KINDS[type(arg.kind)](arg.kind, valid):
                if not (arg.none and label == "None"):
                    yield pytest.param(row, arg, make, expect,
                                       id=f"{row}-{entry.name}-{arg.param}-{label}")


def _caller(entry, arg):
    return lambda v: entry.call(**{**entry.valid, arg.param: v if arg.put is None else arg.put(v)})


def _run(call, value):
    """conftest.outcome of call(value), with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return outcome(call, value)


@pytest.mark.parametrize("row, arg, make, expect", _cases())
def test_every_argument_keeps_the_contract(row, arg, make, expect):
    call, value = _caller(ENTRY_POINTS[row], arg), make()
    got = _run(call, value)
    refused = isinstance(got, tuple)
    if refused:
        stems = tuple(f"{stem} " for stem in (arg.kind.stem, *arg.also))
        assert got[1].startswith(stems), got
    how, f = expect
    if how in ("refused", "either"):
        assert got == f(value) or (how == "either" and not refused)
    elif how == "same":
        assert got == _run(call, f(value))
    else:
        assert refused or how == "stem", got


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e.name)
def test_every_row_is_a_valid_call_of_its_keywords(entry):
    params = inspect.signature(entry.call).parameters
    assert {arg.param for arg in entry.args} <= entry.valid.keys() <= params.keys()
    assert not isinstance(_run(lambda kw: entry.call(**kw), entry.valid), tuple)


def _public_names():
    for info in pkgutil.iter_modules(corrstat.__path__):
        module = importlib.import_module(f"corrstat.{info.name}")
        yield from (f"{info.name}.{name}" for name, value in vars(module).items()
                    if not name.startswith("_") and callable(value)
                    and getattr(value, "__module__", None) == module.__name__)


def test_every_public_name_has_a_row_or_a_reason():
    names, rows = set(_public_names()), {entry.name for entry in ENTRY_POINTS}
    assert sorted(names - rows - EXEMPT.keys()) == []
    assert sorted((rows | EXEMPT.keys()) - names) == ["dataio.ReturnPanel.select"]  # none stale


# Run in a child process: it caps its own address space first, so a count
# that escaped its ceiling ends in a MemoryError here, not in the machine's
# memory running out.
HUGE_COUNTS = """
import math, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path[:0] = sys.argv[1:]
from _entry_points import ENTRY_POINTS, Count
from corrstat.errors import CorrstatError
for entry in ENTRY_POINTS:
    for arg in (a for a in entry.args if type(a.kind) is Count):
        for value in (2 ** 63, 10 ** 30):
            try:
                entry.call(**{**entry.valid,
                              arg.param: value if arg.put is None else arg.put(value)})
            except CorrstatError as exc:
                ceiling = f"{arg.kind.stem} must be an integer <= {arg.kind.high}, got {value}"
                assert arg.kind.high == math.inf or str(exc) == ceiling, (entry.name, exc)
            else:
                assert arg.kind.high == math.inf, (entry.name, arg.param, "no ceiling")
"""


def test_a_count_past_its_ceiling_is_refused_before_any_work():
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-W", "error", "-c", HUGE_COUNTS,
                           str(here.parent / "src"), str(here)],
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


# --- the written checks: a value named in its own terms, and the rules themselves

ARRAYS = [(entry, arg) for entry in ENTRY_POINTS for arg in entry.args
          if type(arg.kind) in (Array, Symmetric)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry, arg", ARRAYS, ids=[f"{e.name}-{a.param}" for e, a in ARRAYS])
def test_every_array_argument_names_its_first_non_finite_entry(entry, arg, bad):
    value = np.array(entry.valid[arg.param], dtype=np.float64)
    if type(arg.kind) is Symmetric:  # an off-diagonal pair
        at = (0, 1)
        value[at] = value[1, 0] = bad
    else:  # the last entry
        at = tuple(int(k) for k in np.unravel_index(value.size - 1, value.shape))
        value[at] = bad
    got = _run(_caller(entry, arg), value.tolist())
    if arg.param == "returns":  # a panel names the ticker and the column
        assert got == ("DomainError", f"non-finite return {bad} for 'B' at column {at[1]}")
    else:
        assert got == ("DomainError", f"{arg.kind.stem} has non-finite entry {bad} at {at}")


def _pickled(call, value):
    """The pickled result of call(value), or the type and message of its error."""
    try:
        return pickle.dumps(call(value))
    except Exception as exc:  # a cast may make the value invalid, a singular matrix say
        return type(exc), str(exc)


@pytest.mark.parametrize("dtype", [np.bool_, np.int32, np.int64, np.float32])
@pytest.mark.parametrize("entry, arg", ARRAYS, ids=[f"{e.name}-{a.param}" for e, a in ARRAYS])
def test_real_arrays_give_the_float64_results_bit_for_bit(entry, arg, dtype):
    call, value = _caller(entry, arg), np.asarray(entry.valid[arg.param]).astype(dtype)
    expected = _pickled(call, value.astype(np.float64))
    assert _pickled(call, value) == expected
    assert _pickled(call, value.tolist()) == expected


def _zero_price_panel(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("A,B\n1.0,2.0\n0.0,2.5\n1.5,3.0\n", encoding="utf-8")
    return dataio.load_price_panel(path, "simple")


# (the call, given pytest's tmp_path; the error type; its message): calls whose value is
# named in its own terms, which no kind generates
NAMED = [
    (lambda _: stationarity.local_test([(10, 0.1), (20, 0.9), (30, np.nan), (40, 0.95)], 1),
     DomainError, "estimates has non-finite entry nan at (2, 1)"),
    (lambda _: spectral.ipr([np.nan, 1.0, 0.0]), DomainError,
     "vector has non-finite entry nan at (0,)"),
    (lambda _: corrdist.gaussian_approx_density([0.1, np.nan], PARAMS), DomainError,
     "rho has non-finite entry nan at (1,)"),
    (lambda _: corrdist.gaussian_approx_density(np.inf, PARAMS), DomainError,
     "rho has non-finite entry inf at ()"),
    (lambda _: corrdist.rho_density(np.nan, PARAMS), DomainError,
     "rho has non-finite entry nan at ()"),
    (lambda _: portfolio.WeightVector(("A", "B"), [np.inf, -np.inf]), DomainError,
     "w has non-finite entry inf at (0,)"),
    (lambda _: stationarity.local_test([(10, 0.0, 1.0), (20, 0.5, 1.0)], 1), InvalidParameter,
     "estimates must be (length, rho) pairs, got shape (2, 3)"),
    (lambda _: stationarity.ks_statistic([0.1, 0.2, 0.3, 0.4, 0.5], lambda s: s.astype(str)),
     InvalidParameter,
     "cdf values must be an array of real numbers, got ndarray of dtype <U32 and shape (5,)"),
    (lambda _: spectral.EigenSystem(np.zeros(0), np.zeros((0, 0))), InvalidParameter,
     "an eigensystem needs at least one eigenvalue"),
    (lambda _: dataio.ReturnPanel(("A", "B"), (), np.zeros((2, 0))), InvalidParameter,
     "a panel needs at least one step"),
    (lambda _: LocalTestConfig(100, 40, ()), InvalidParameter, "n_values must not be empty"),
    (lambda _: stationarity.local_test([(10, 0.1)], 1), InsufficientData,
     "local test needs >= 2 estimates"),
    (lambda _: stationarity.local_test([(10, 0.1), (20, 0.2), (30, 0.3)], 1, "bogus"),
     InvalidParameter, "unknown sigma convention 'bogus'"),
    (lambda _: dataio.CovarianceMatrix(("A",), np.eye(2)), InvalidParameter,
     "entries must be N x N matching tickers"),
    (lambda _: portfolio.WeightVector(("A", "B"), [1.0]), InvalidParameter,
     "weights must be one per ticker"),
    (lambda _: portfolio.portfolio_variance(
        COV, portfolio.WeightVector(("A", "B", "C"), [0.25, 0.25, 0.5])),
     InvalidParameter, "weights and covariance dimensions differ"),
    (lambda _: spectral.EigenSystem([1.0, 2.0], np.eye(3)), InvalidParameter,
     "eigenvector matrix must be N x N"),
    (lambda _: spectral.pca_decompose(
        make_panel(np.random.default_rng(0).standard_normal((5, 20))),
        spectral.EigenSystem([1.0, 2.0], np.eye(2))),
     InvalidParameter, "panel and eigensystem dimensions differ"),
    (_zero_price_panel, DomainError, "simple returns undefined at a zero price"),
    (lambda _: portfolio.flag_band_violations([1], BAND), InvalidParameter,
     "experiment must be of type QExperiment, got int"),
    (lambda _: portfolio.flag_band_violations(
        [portfolio.QExperiment(3, (0, 10), (10, 20), 1.0, 9.0, "9")], BAND),
     InvalidParameter, "q of sample 3 must be a finite number, got '9'"),
    (lambda _: dataio.ReturnPanel((0, 1), ("0", "1"), np.eye(2)), InvalidParameter,
     "ticker 0 must be of type str, got int"),
    (lambda _: dataio.ReturnPanel(("A", "B"), (0, 1), np.eye(2)), InvalidParameter,
     "time label 0 must be of type str, got int"),
    (lambda _: dataio.CovarianceMatrix(("A", b"B"), np.eye(2)), InvalidParameter,
     "ticker b'B' must be of type str, got bytes"),
    (lambda _: portfolio.WeightVector(("A", None), [0.5, 0.5]), InvalidParameter,
     "ticker None must be of type str, got NoneType"),
    (lambda _: dataio.CovarianceMatrix(("A", "B"), np.eye(2), "ab"), InvalidParameter,
     "window bounds must be integers, got ('a', 'b')"),
    (lambda _: PANEL.select([4]), InvalidParameter, "index must lie in [0, 4), got 4"),
    (lambda tmp: dataio.save_panel_csv(PANEL.returns, tmp / "p.csv"), InvalidParameter,
     "panel must be of type ReturnPanel, got ndarray"),
    (lambda tmp: dataio.save_panel_csv(PANEL, 1), InvalidParameter,
     "path must be of type str or PathLike, got int"),
]


@pytest.mark.parametrize("call, error, message", NAMED, ids=[m for _, _, m in NAMED])
def test_each_value_is_named_in_its_own_terms(call, error, message, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(tmp_path)
    assert type(info.value) is error and str(info.value) == message
    assert [p.name for p in tmp_path.iterdir()] in ([], ["zero.csv"])  # only an input


def test_the_label_is_hashed_and_each_index_kept_as_the_integer_it_is():
    # one (seed, sha256(label)[:8], *indices) entropy tuple per substream, so a
    # string index such as replica="3" is refused rather than hashed
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
                                      reshuffle_seed=np.uint64(1), mc_family="student-t",
                                      mc_nu=np.int64(4), mc_seed=np.int32(2))
    json.dumps(report.params)
    json.dumps(report.skipped)
    assert report == stationarity.global_scan(PANEL, (25, 30), (0.5,), pairs=[(1, 2), (0, 9)],
                                              reshuffle_seed=1, mc_family="student-t", mc_nu=4.0,
                                              mc_seed=2)
    assert type(report.params["mc_nu"]) is float
    report = stationarity.local_scan(PANEL, [LocalTestConfig(np.uint64(50), np.int32(25),
                                                             (np.uint8(2),))],
                                     mc_family="gaussian", mc_seed=np.uint64(3))
    assert json.loads(json.dumps(report.params)) == report.params


def test_the_real_rule_returns_the_float_and_refuses_nan_under_any_comparison():
    assert type(checked_real("x", np.float32(0.25), lambda v: v > 0, "positive")) is float
    assert checked_real("x", np.float32(0.25), lambda v: v > 0, "positive") == 0.25
    for ok in (lambda v: v > 0, lambda v: v <= 0, lambda v: abs(v) < math.inf):
        with pytest.raises(InvalidParameter, match="^x must be b, got nan$"):
            checked_real("x", math.nan, ok, "b")


def test_the_array_rule_returns_a_new_c_order_float64_array_and_never_the_values():
    given = np.arange(6, dtype=np.int16).reshape(2, 3).T  # Fortran order
    got = checked_array("x", given, 2)
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, given)
    floats = np.ones(3)
    assert not np.shares_memory(checked_array("x", floats), floats)
    assert checked_array("x", 0.5).shape == ()
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
    assert portfolio.portfolio_variance(COV, WEIGHTS) == 1.5


def test_the_symmetric_rule_checks_finiteness_then_shape_then_symmetry():
    lopsided = np.full((2, 3), 0.5)
    with pytest.raises(InvalidParameter, match=r"^m must be square and at least 1 x 1, "
                                               r"got shape \(2, 3\)$"):
        checked_symmetric("m", lopsided)
    lopsided[1, 2] = np.nan  # checked_array names the entry before the shape is read
    with pytest.raises(DomainError, match=r"^m has non-finite entry nan at \(1, 2\)$"):
        checked_symmetric("m", lopsided)
    asymmetric_inf = np.array([[1.0, np.inf], [0.0, 1.0]])  # the entry is named, not the gap
    with pytest.raises(DomainError, match=r"^m has non-finite entry inf at \(0, 1\)$"):
        checked_symmetric("m", asymmetric_inf)
    got = checked_symmetric("m", SQUARE)
    assert got.dtype == np.float64 and np.array_equal(got, SQUARE)


def test_the_symmetric_rule_returns_the_exact_symmetric_part():
    symmetric = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.2], [0.0, 0.2, 1.0]])
    assert np.array_equal(checked_symmetric("m", symmetric), symmetric)
    barely = symmetric.copy()
    barely[2, 1] += 1e-14  # asymmetric within the bound
    got = checked_symmetric("m", barely)
    assert np.array_equal(got, got.T) and np.array_equal(got, 0.5 * (barely + barely.T))
    top = np.finfo(np.float64).max  # the halves are summed, so the part cannot overflow
    huge = np.array([[top, top], [np.nextafter(top, 0.0), top]])
    got = checked_symmetric("m", huge)
    assert got[0, 1] == got[1, 0] == 0.5 * top + 0.5 * np.nextafter(top, 0.0)


@pytest.mark.filterwarnings("error")
def test_the_asymmetry_of_opposite_huge_entries_is_measured_without_overflow():
    # m - m.T would overflow; the halved gap does not, and the gap beyond
    # float64's range reads as inf in the message
    with pytest.raises(NotSymmetric, match=r"^m asymmetry inf exceeds 1\.000e\+296$"):
        checked_symmetric("m", [[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(NotSymmetric, match=r"^m asymmetry 1\.600e\+308 exceeds 1\.000e\+296$"):
        checked_symmetric("m", [[0.0, 1e308], [-6e307, 0.0]])


def _covariance(entries):
    return dataio.CovarianceMatrix(("A", "B", "C"), entries)


@pytest.mark.parametrize("build", [TrueCorrelation, _covariance],
                         ids=["TrueCorrelation", "CovarianceMatrix"])
def test_a_stored_matrix_is_exactly_symmetric_copied_and_checked_once(monkeypatch, build):
    barely = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2 + 1e-14, 1.0]])
    entries = build(barely).entries
    assert np.array_equal(entries, entries.T)
    calls, rule = [], errors.checked_array

    def counted(*args):
        calls.append(args[0])
        return rule(*args)

    # freeze reads dataio's name and checked_symmetric reads errors'
    monkeypatch.setattr(dataio, "checked_array", counted)
    monkeypatch.setattr(errors, "checked_array", counted)
    frozen = build(np.eye(3))
    assert calls == ["entries"]
    assert not frozen.entries.flags.writeable


def test_the_collection_rule():
    assert checked_items("x", [1, 2]) == (1, 2)
    assert checked_items("x", (i for i in range(3)), 3, "three") == (0, 1, 2)
    assert checked_items("x", "ab", 2, "two letters") == ("a", "b")  # a string's characters
    assert checked_items("x", {}) == ()
    endless = itertools.count()
    assert checked_iter("x", endless) is endless  # read lazily, nothing taken
    for value, count, message in [((1, 2, 3), 2, "x must be two items, got (1, 2, 3)"),
                                  ([1], 2, "x must be two items, got [1]"),
                                  (5, 2, "x must be two items, got 5"),
                                  (None, None, "x must be a collection, got None"),
                                  (np.array(1.0), None, "x must be a collection, got array(1.)")]:
        with pytest.raises(InvalidParameter) as info:
            checked_items("x", value, *(() if count is None else (count, "two items")))
        assert str(info.value) == message
    with pytest.raises(InvalidParameter, match=r"^x must be a collection, got None$"):
        checked_iter("x", None)


def test_the_collection_rule_reads_at_most_one_item_past_its_count():
    endless = itertools.count()
    with pytest.raises(InvalidParameter, match=r"^x must be two items, got count\(3\)$"):
        checked_items("x", endless, 2, "two items")
    assert next(endless) == 3  # three items read, no more


@pytest.mark.parametrize("build", [
    lambda: dataio.ReturnPanel(("A", "B", "A"), ("0",), np.zeros((3, 1))),
    lambda: dataio.CovarianceMatrix(("A", "B", "A"), np.eye(3)),
    lambda: portfolio.WeightVector(("A", "B", "A"), [0.25, 0.25, 0.5]),
    lambda: make_panel(np.eye(3, 4), tickers=("A", "B", "C")).select([0, 0, 1]),
], ids=["panel", "covariance", "weights", "select"])
def test_a_repeated_ticker_is_named(build):
    with pytest.raises(DuplicateTicker, match=r"^duplicate ticker 'A'$"):
        build()


def test_a_selected_panel_reads_back_from_csv(tmp_path):
    source = make_panel(np.random.default_rng(3).normal(size=(3, 40)), tickers=("A", "B", "C"))
    sub = source.select(np.array([2, 0]))
    assert sub.tickers == ("C", "A")
    assert np.array_equal(sub.returns, source.returns[[2, 0]])
    dataio.save_panel_csv(sub, tmp_path / "sub.csv")
    back = dataio.load_price_panel(tmp_path / "sub.csv", kind="returns")
    assert (back.tickers, back.times) == (sub.tickers, sub.times)
    assert np.array_equal(back.returns, sub.returns)


def test_flag_band_violations_refuses_a_nan_q():
    samples = portfolio.q_series(gaussian_panel(5, 100, seed=23), 10, 10)
    band = portfolio.MCBand(1.0, 0.01)
    assert portfolio.flag_band_violations(samples, band) == [s.q > 1.05 for s in samples]
    nan = samples[0]._replace(q=math.nan)
    with pytest.raises(InvalidParameter) as info:
        portfolio.flag_band_violations([*samples, nan], band)
    assert str(info.value) == f"q of sample {nan.sample} must be a finite number, got nan"
