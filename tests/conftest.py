import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, settings

from corrstat import dataio, synthgen

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_addoption(parser):
    parser.addoption("--regen-reports", action="store_true",
                     help="rewrite tests/data/reports/ from this tree instead of comparing")


def make_panel(returns, tickers=None):
    returns = np.asarray(returns, dtype=np.float64)
    n, t = returns.shape
    if tickers is None:
        tickers = tuple(f"S{i}" for i in range(n))
    return dataio.ReturnPanel(tuple(tickers), tuple(str(k) for k in range(t)), returns)


def gaussian_panel(n_series, n_steps, seed, truth=None, replica=0):
    if truth is None:
        truth = synthgen.one_factor_correlation(n_series, seed=seed)
    return synthgen.sample_panel(truth, n_steps, seed, synthgen.FAMILY_GAUSSIAN, replica=replica)


def traced_peak(fn):
    """The most bytes tracemalloc saw allocated at once while fn() ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_panel():
    rng = np.random.default_rng(123)
    return make_panel(rng.normal(size=(4, 60)))


def assert_matches(got, ref, where="report"):
    """Floats agree to 1e-9 relative; every other value and every key exactly."""
    if isinstance(ref, float) and isinstance(got, float):
        assert abs(got - ref) <= 1e-9 * max(abs(got), abs(ref)), (where, got, ref)
    elif isinstance(ref, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(ref), where
        for key in ref:
            assert_matches(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list) and isinstance(got, list):
        assert len(got) == len(ref), where
        for k, (a, b) in enumerate(zip(got, ref)):
            assert_matches(a, b, f"{where}[{k}]")
    else:
        assert type(got) is type(ref) and got == ref, (where, got, ref)


def strict_json(text):
    """text parsed as JSON; a NaN, Infinity or -Infinity token raises ValueError."""
    def refuse(token):
        raise ValueError(f"{token} is not a JSON value")
    return json.loads(text, parse_constant=refuse)


CORPUS = Path(__file__).resolve().parent / "data" / "reports"
# the session's (file name, report_changes lines) of each corpus file --regen-reports changed
REGENERATED = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[REGENERATED] = []


def _versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def compare_report(got, name, request):
    """got, a report's bytes, against the corpus file name, or written there by --regen-reports.

    Under the numpy and scipy versions the corpus records the bytes must
    be equal, and a mismatch lists report_changes; under others the
    numbers are compared to 1e-9 relative, with a warning that says so.
    --regen-reports keeps the same list for each file it changes and
    prints it at the end of the session.
    """
    expected = CORPUS / name
    versions = CORPUS / "VERSIONS.json"
    if request.config.getoption("--regen-reports"):
        old = expected.read_bytes() if expected.exists() else None
        if old != got:
            request.config.stash[REGENERATED].append(
                (name, ["new file"] if old is None else report_changes(name, old, got)))
        CORPUS.mkdir(parents=True, exist_ok=True)
        expected.write_bytes(got)
        versions.write_text(json.dumps(_versions(), indent=2) + "\n", encoding="utf-8")
        return
    recorded = json.loads(versions.read_text(encoding="utf-8"))
    if recorded == _versions():
        old = expected.read_bytes()
        if got != old:
            raise AssertionError("\n  ".join([f"{name} differs from the corpus:",
                                               *report_changes(name, old, got)]))
    else:
        warnings.warn(f"report corpus recorded under {recorded}, running {_versions()}: "
                      f"{name} compared to 1e-9 relative, not byte for byte")
        parse = _parser(name)
        assert_matches(parse(got), parse(expected.read_bytes()))


def pytest_terminal_summary(terminalreporter, config):
    for name, lines in config.stash[REGENERATED]:
        terminalreporter.write_line("\n  ".join([f"--regen-reports changed {name}:", *lines]))


def report_changes(name, old, new):
    """One line per value that differs between two versions of corpus file name.

    Both are parsed as the 1e-9 comparison parses them, and each line gives
    a value's path, its old and new value and, for a number, its relative
    shift.
    """
    parse = _parser(name)
    try:
        lines = list(_changes(parse(old), parse(new), "report"))
    except ValueError as exc:  # UnicodeDecodeError included
        return [f"report: cannot compare value by value ({exc})"]
    return lines or ["report: same values, different bytes"]


def _changes(old, new, where):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key in old and key in new:
                yield from _changes(old[key], new[key], f"{where}.{key}")
            else:
                before, after = (repr(d[key]) if key in d else "(absent)" for d in (old, new))
                yield f"{where}.{key}: {before} -> {after}"
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _changes(a, b, f"{where}[{k}]")
    elif isinstance(old, list) and isinstance(new, list):
        yield f"{where}: {len(old)} items -> {len(new)} items"
    elif type(old) is not type(new) or old != new:
        shift = ""
        if type(old) in (int, float) and type(new) in (int, float) and old:
            shift = f" ({(new - old) / abs(old):+.3e} relative)"
        yield f"{where}: {old!r} -> {new!r}{shift}"


def _parser(name):
    return {".json": json.loads, ".csv": _csv_numbers}.get(Path(name).suffix, _text_tokens)


def _csv_numbers(data):
    """A CSV report as its header and rows of floats."""
    header, *rows = data.decode("utf-8").splitlines()
    return [header, *([float(v) for v in row.split(",")] for row in rows)]


def _text_tokens(data):
    """A printed report as its whitespace-separated words, each number as a float."""
    def word(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [word(w) for w in data.decode("utf-8").split()]
