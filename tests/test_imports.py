"""scipy is loaded only where the exact Pearson law is evaluated.

The local scan, the q ratio with its Monte Carlo band, the spectrum and
the simulator never evaluate the law, so their processes must start and
finish without any scipy module; corrdist imports scipy lazily inside the
function that needs it.  Where the law is evaluated, scipy.special is the
only scipy module loaded.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

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
