"""scipy is loaded only where the exact Pearson law is evaluated.

The local scan, the q ratio with its Monte Carlo band, the spectrum and
the simulator never evaluate the law, so their processes must start and
finish without any scipy module; corrdist imports scipy lazily inside the
function that needs it.  Where the law is evaluated, scipy.special is the
only scipy module loaded.  Nothing starts a thread pool either: the
scans run their pairs on the calling thread.  The AST checks at the end
keep every import of the package, the scripts and the tests in use,
every public name read by the program, every ZeroVariance built at
the one zero-variance gate, every IllPosed built by one helper, every
gated solve run by the optimizer or the q ratio's one kernel, every
NotSymmetric built and every matrix symmetrized by
errors.checked_symmetric, every ScanReport built by the scans' one
driver, every integer argument
checked by errors.checked_int or the three checks that name a whole
window or pair, every real argument checked by errors.checked_real or
the pair check, every array cast to float64 by errors.checked_array,
every input file read in dataio, every TypeError caught only by
errors' rules, every error class free of fields,
so that each survives pickling with its type and message, and every
dataclass a value type whose __post_init__ enforces a rule.
"""
import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

from corrstat import errors

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = """
import sys
{body}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
"""

RUN_CLI = """
import os, tempfile
from corrstat import cli

def run(argv):
    rc = cli.main(argv)
    assert rc == 0, (argv, rc)

with tempfile.TemporaryDirectory() as tmp:
    panel = os.path.join(tmp, "panel.csv")
    run(["simulate", "--family", "gaussian", "--corr", "equicorr:4:0.3",
         "--T", "120", "--seed", "3", "--out", panel])
    base = ["--input", panel, "--input-kind", "returns"]
    for argv in (["local-scan", "--t1", "30", "--tau", "10", "--mc", "student-t:5"],
                 ["qscan", "--t1", "20", "--t2", "20", "--replicas", "30"],
                 ["spectral", "--window", "20", "--sectors", "1"]):
        run(argv + base + ["--out", os.path.join(tmp, argv[0] + ".json")])
"""


def _run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_scipy():
    _run_python(NO_SCIPY.format(body="import corrstat.cli"))


def test_law_free_subcommands_load_no_scipy():
    _run_python(NO_SCIPY.format(body=RUN_CLI))


def test_law_free_subcommands_load_no_thread_pool():
    # global-scan is left out: scipy.special imports concurrent.futures itself
    _run_python(RUN_CLI + """
import sys
assert "concurrent.futures" not in sys.modules
""")


def test_density_loads_scipy():
    # guards the two tests above against a probe that can never see scipy
    _run_python("""
import sys
from corrstat import cli
assert cli.main(["density", "--rho-bar", "0.2", "--T", "50", "--grid", "11"]) == 0
assert "scipy.special" in sys.modules
""")


def test_global_scan_loads_only_scipy_special():
    # the KS test integrates the law at its samples: no table, no root finder
    _run_python("""
import os, sys, tempfile
from corrstat import cli
with tempfile.TemporaryDirectory() as tmp:
    panel = os.path.join(tmp, "panel.csv")
    assert cli.main(["simulate", "--family", "gaussian", "--corr", "equicorr:3:0.3",
                     "--T", "250", "--seed", "3", "--out", panel]) == 0
    assert cli.main(["global-scan", "--input", panel, "--input-kind", "returns",
                     "--window", "25,50", "--out", os.path.join(tmp, "g.json")]) == 0
assert "scipy.special" in sys.modules
for name in ("scipy.interpolate", "scipy.optimize"):
    assert name not in sys.modules, name
""")


def _import_time_imports(body):
    """Import statements that run when the module body runs.

    Function bodies run later; an `if TYPE_CHECKING:` branch never runs.
    """
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            yield from _import_time_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _import_time_imports(getattr(node, field, []))


def test_no_module_imports_scipy_at_import_time():
    offenders = []
    for path in sorted((SRC / "corrstat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _import_time_imports(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""]
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def _imported_names(tree):
    """(name, line) of every binding an import statement makes, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    root = SRC.parent
    unused = []
    for folder in (SRC / "corrstat", root / "scripts", root / "tests"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.relative_to(root)}:{line} {name}"
                       for name, line in _imported_names(tree) if name not in used]
    assert not unused, unused


# Public names whose only readers are tests: the per-pair references the
# scan tests compare the batched scans against, the estimators the
# acceptance criteria call, and the one-step-at-a-time optimizer the q
# ratio's shared kernel (portfolio._held_q) is checked against.
TEST_ONLY_READERS = {
    "cumulative_corr", "local_test",
    "standardize", "covariance_matrix", "pca_decompose", "market_mode_residual",
    "min_variance_weights", "portfolio_variance",
}


def _referenced_names(node):
    """Every name a node reads, bare or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_name_has_a_reader_outside_the_tests():
    scripts = SRC.parent / "scripts"
    paths = sorted((SRC / "corrstat").glob("*.py")) + sorted(scripts.glob("*.py"))
    defined = []  # (module file, name) of each public module-level function and class
    readers = {}  # name -> files whose statements outside that name's own definition read it
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if path.parent.name == "corrstat" and not own.startswith("_"):
                    defined.append((path.name, own))
            for name in set(_referenced_names(node)) - {own}:
                readers.setdefault(name, set()).add(path.name)
    unread = [f"{module}:{name}" for module, name in defined
              if name not in TEST_ONLY_READERS and not readers.get(name)]
    assert not unread, unread


# Where a ZeroVariance is built: the one gate every windowed matrix,
# whole-sample standardization and per-pair window estimate goes through,
# so every flat row is named in one message format.
ZERO_VARIANCE_BUILDERS = {
    ("dataio.py", "gated_rows"),
}


def _builders_of(name):
    """(module file, top-level definition) of each call to name, bare or as an attribute."""
    builders = set()
    for path in sorted((SRC / "corrstat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and name in (getattr(sub.func, "id", None),
                                     getattr(sub.func, "attr", None))):
                    builders.add((path.name, getattr(node, "name", None)))
    return builders


def test_zero_variance_is_built_only_at_the_gate():
    assert _builders_of("ZeroVariance") == ZERO_VARIANCE_BUILDERS


# Where a NotSymmetric is built: the one symmetric-matrix rule, so every
# asymmetric matrix raises one error type with one bound, wherever it arrives.
NOT_SYMMETRIC_BUILDERS = {
    ("errors.py", "checked_symmetric"),
}


def test_not_symmetric_is_built_only_by_the_symmetric_rule():
    assert _builders_of("NotSymmetric") == NOT_SYMMETRIC_BUILDERS


# Where the gated solve runs: the public optimizer and the q ratio's one
# kernel, which both the samples and the Monte Carlo band call, so q has
# one formula and one set of gates.
def test_the_gated_solve_has_only_the_optimizer_and_the_q_kernel_as_callers():
    assert _builders_of("_gated_solve") == {("portfolio.py", "min_variance_weights"),
                                            ("portfolio.py", "_held_q")}


# Where an IllPosed is built: one helper, so the optimizer, the samples and
# the band refuse T <= N in one message.
def test_ill_posed_is_built_only_by_its_helper():
    assert _builders_of("IllPosed") == {("portfolio.py", "_check_posed")}


def _unscaled(node):
    """node less a constant factor: 0.5 * m and m * 0.5 are m."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        if isinstance(node.left, ast.Constant):
            return node.right
        if isinstance(node.right, ast.Constant):
            return node.left
    return node


def _pairs_with_transpose(node):
    """Whether node is m + m.T or m - m.T (in either order, either side scaled)."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    sides = (_unscaled(node.left), _unscaled(node.right))
    return any(isinstance(t, ast.Attribute) and t.attr == "T"
               and ast.unparse(t.value) == ast.unparse(m)
               for m, t in (sides, sides[::-1]))


# Where a matrix meets its own transpose: the symmetric rule, which
# measures the asymmetry and forms the symmetric part, so every stored
# matrix is exactly symmetric and no caller symmetrizes by hand.
def test_matrices_are_symmetrized_only_by_the_symmetric_rule():
    sites = set()
    for path in sorted((SRC / "corrstat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if any(_pairs_with_transpose(sub) for sub in ast.walk(node)):
                sites.add((path.name, getattr(node, "name", None)))
    assert sites == {("errors.py", "checked_symmetric")}


# Where finiteness is tested: the one array rule, and the readers that name a
# non-finite value in their own terms (a file's row and column, a ticker and
# column), so no hand-written copy of the rule returns.
ISFINITE_CALLERS = {
    ("errors.py", "checked_array"),
    ("dataio.py", "_exact_panel"),
    ("dataio.py", "_numpy_panel"),
    ("dataio.py", "ReturnPanel"),
}


def test_finiteness_is_tested_only_by_the_array_rule_and_the_readers():
    assert _builders_of("isfinite") == ISFINITE_CALLERS


# Where panel variates are drawn: the one function that owns the substream
# label, the normals and the Student-t scale, so a synthetic panel's replica k
# and the MC band's replica k are one stream.
def test_panel_variates_are_drawn_only_by_the_draw_function():
    draws = _builders_of("standard_normal") | _builders_of("chisquare")
    assert draws == {("synthgen.py", "draw_variates")}


# Both scans' reports come from their one driver, so the two report the
# same params, controls and skip entries the same way.
def test_scan_reports_are_built_only_by_the_scan_driver():
    assert _builders_of("ScanReport") == {("stationarity.py", "_scan")}


# An error is its type and one message line: no error class stores a
# field on self, so nothing can come to read one.
def test_error_classes_set_no_attributes():
    tree = ast.parse((SRC / "corrstat" / "errors.py").read_text(encoding="utf-8"))
    setters = [f"{cls.name}:{node.lineno}"
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in ast.walk(cls)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
               and getattr(node.value, "id", None) == "self"]
    assert not setters, setters


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_survives_pickling_with_its_type_and_message():
    for cls in (errors.CorrstatError, *_subclasses(errors.CorrstatError)):
        again = pickle.loads(pickle.dumps(cls("m")))
        assert (type(again), str(again)) == (cls, "m")


# Where an integer type is tested: the one rule for every count, size,
# index and seed, and the three checks that name a whole window or pair
# in their messages.  Any other function naming Integral (or np.integer)
# is a hand-rolled integer check that should call checked_int.
INTEGER_CHECKS = {
    ("errors.py", "checked_int"),
    ("dataio.py", "checked_window"),
    ("stationarity.py", "_pair_rows"),
    ("stationarity.py", "_split_pairs"),
}


def _definitions_naming(abc, numpy_type):
    """(module file, name) of each top-level function or class that names the
    numbers ABC abc, bare or as an attribute, or np.<numpy_type>."""
    checks = set()
    for path in sorted((SRC / "corrstat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and any(
                    abc in (getattr(sub, "id", None), getattr(sub, "attr", None))
                    or getattr(sub, "attr", None) == numpy_type
                    for sub in ast.walk(node)):
                checks.add((path.name, node.name))
    return checks


def test_integers_are_checked_only_by_the_integer_rule():
    assert _definitions_naming("Integral", "integer") == INTEGER_CHECKS


# Where a real type is tested: the one rule for every level, threshold
# and shape parameter, and the pair check, which names a whole pair in
# its message.  Any other function naming Real (or np.floating) is a
# hand-rolled real check that should call checked_real.
REAL_CHECKS = {
    ("errors.py", "checked_real"),
    ("stationarity.py", "_checked_pair"),
}


def test_reals_are_checked_only_by_the_real_rule():
    assert _definitions_naming("Real", "floating") == REAL_CHECKS


# Where an array is cast to float64: the one rule for every array the
# library takes.  Any other function that casts with dtype=np.float64 (or
# float) or .astype(np.float64) is a hand-written array check that should
# call checked_array.
ARRAY_CASTS = {
    ("errors.py", "checked_array"),
}
_FLOAT64 = {"np.float64", "numpy.float64", "float", "'float64'", "'f8'"}


def _casts_to_float64(call):
    """Whether a call names float64 as its dtype keyword or as .astype's dtype."""
    dtypes = [k.value for k in call.keywords if k.arg == "dtype"]
    if getattr(call.func, "attr", None) == "astype":
        dtypes += call.args[:1]
    return any(ast.unparse(d) in _FLOAT64 for d in dtypes)


def test_arrays_are_cast_only_by_the_array_rule():
    casts = set()
    for path in sorted((SRC / "corrstat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if any(isinstance(sub, ast.Call) and _casts_to_float64(sub) for sub in ast.walk(node)):
                casts.add((path.name, getattr(node, "name", None)))
    assert casts == ARRAY_CASTS


# Where input text is read: dataio's record reader and its np.loadtxt
# path.  Any other function that opens a file for reading or hands one to
# a text parser is a second hand-written input parser.
INPUT_READERS = {
    ("dataio.py", "_records"),
    ("dataio.py", "_numpy_panel"),
}
_READ_CALLS = {"open", "read_text", "read_bytes", "loadtxt", "genfromtxt", "reader"}


def _writes(call):
    """Whether an open() call names a write, append or create mode."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax") for m in modes)


def test_input_text_is_read_only_in_dataio():
    readers = set()
    paths = sorted((SRC / "corrstat").glob("*.py")) + sorted((SRC.parent / "scripts").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and {getattr(sub.func, "id", None), getattr(sub.func, "attr", None)}
                        & _READ_CALLS and not _writes(sub)):
                    readers.add((path.name, getattr(node, "name", None)))
    assert readers == INPUT_READERS


# Where a TypeError is caught: the collection rule, which names a value that
# is not iterable.  Any other except clause naming TypeError is a hand-written
# unpack check that should call errors.checked_items.
def test_type_errors_are_caught_only_by_the_collection_rule():
    catchers = set()
    for path in sorted((SRC / "corrstat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.ExceptHandler) and sub.type is not None
                        and "TypeError" in set(_referenced_names(sub.type))):
                    catchers.add((path.name, getattr(node, "name", None)))
    assert catchers == {("errors.py", "checked_items")}


def _is_dataclass_decorator(node):
    """Whether a decorator is dataclass or dataclass(...), bare or as an attribute."""
    target = node.func if isinstance(node, ast.Call) else node
    return "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None))


# A dataclass is a value type whose __post_init__ enforces a rule; a record
# with no rule to enforce is a NamedTuple, so each job has one record type.
def test_every_dataclass_enforces_a_rule_in_post_init():
    has_rule = {}  # "module:class" of each dataclass -> whether it defines __post_init__
    for path in sorted((SRC / "corrstat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass_decorator, node.decorator_list))):
                has_rule[f"{path.name}:{node.name}"] = any(
                    isinstance(sub, ast.FunctionDef) and sub.name == "__post_init__"
                    for sub in node.body)
    assert has_rule  # guards the probe: the value types are dataclasses
    assert all(has_rule.values()), [name for name, rule in has_rule.items() if not rule]
