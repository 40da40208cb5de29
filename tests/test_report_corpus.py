"""Reports compared byte for byte with a committed corpus.

Each case writes a small panel with plain numpy from a fixed seed, runs
one subcommand on it through the CLI and compares stdout, or the --out
file where one is named, with the bytes in tests/data/reports/.  Floats
are written as %.17g, so another numpy or scipy build may move last
bits: when the versions recorded with the corpus differ from the running
ones, the reports are compared to 1e-9 relative instead, with a warning
that says so.  `pytest --regen-reports` rewrites the corpus and the
versions from the running tree.  The reproduce recipes (test_cli.py) and
the scripts (test_scripts.py) compare their stdout with the same corpus
through conftest.compare_report.
"""
from pathlib import Path

import numpy as np
import pytest

from corrstat import cli

from conftest import CORPUS, compare_report, strict_json

SCANS = {
    "local-scan": ["--t1", "40", "--tau", "20,60", "--n", "1,2,3", "--mc", "gaussian",
                   "--max-pairs", "12"],
    "global-scan": ["--window", "20,40", "--reshuffle-seed", "3", "--mc", "gaussian"],
}
PANELS = ("dated", "dateless", "constant-row")
# --input-kind per corpus file suffix: the "prices" panels are read as log returns
KINDS = {"prices": "log", "returns": "returns"}
SEEDS = {"dated": 11, "dateless": 12, "constant-row": 13, "window-flat": 14}

# Every other subcommand, once each: (file name, panel read or None, argv).
REPORTS = [
    ("qscan_volatilities.json", "dated",
     ["qscan", "--input", "dated.csv", "--t1", "40", "--t2", "40", "--replicas", "30",
      "--volatilities", "vols.csv", "--independent-windows", "--truth", "identity"]),
    ("spectral.json", "dated", ["spectral", "--input", "dated.csv", "--window", "40"]),
    ("density.csv", None, ["density", "--rho-bar", "0.3", "--T", "30", "--grid", "41"]),
    ("density.json", None, ["density", "--rho-bar", "-0.6", "--T", "12", "--grid", "41",
                            "--format", "json"]),
    ("local-scan_tau-1.json", "dateless",
     ["local-scan", "--input", "dateless.csv", "--input-kind", "returns", "--t1", "40",
      "--tau", "1", "--n", "1,2,3"]),
    # all pairs; T_w = 70 leaves 4 windows, and S4 is flat in the window [100, 120) only
    ("global-scan_window-flat.json", "window-flat",
     ["global-scan", "--input", "window-flat.csv", "--window", "20,40,70"]),
    ("reproduce_fig1.csv", None, ["reproduce", "fig1"]),
    # simulate's report is the --out panel; N = 20 keeps the bytes off the BLAS thread count
    ("simulate_gaussian.csv", None,
     ["simulate", "--family", "gaussian", "--corr", "onefactor:20:5", "--T", "40",
      "--out", "panel.csv"]),
    ("simulate_student-t.csv", None,
     ["simulate", "--family", "student-t:4", "--corr", "equicorr:20:0.3", "--T", "40",
      "--replica", "2", "--out", "panel.csv"]),
]


def _write_panel(name):
    """A 6-series, 321-day price panel as name.csv in the working directory."""
    rng = np.random.default_rng(SEEDS[name])
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((321, 6)), axis=0))
    if name == "constant-row":
        prices[:, 2] = 42.0  # every pair with S2 is skipped
    if name == "window-flat":
        prices[98:124, 4] = prices[98, 4]  # log returns 98..122 of S4 are zero
    header = ",".join(f"S{i}" for i in range(6))
    if name == "dated":
        days = np.datetime64("2001-01-01") + np.arange(321)
        body = [f"{day},{','.join(f'{p:.17g}' for p in row)}" for day, row in zip(days, prices)]
        text = "\n".join(["date," + header, *body]) + "\n"
    else:
        text = "\n".join([header, *(",".join(f"{p:.17g}" for p in row) for row in prices)]) + "\n"
    Path(f"{name}.csv").write_text(text, encoding="utf-8")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("panel", PANELS)
@pytest.mark.parametrize("scan", sorted(SCANS))
def test_scan_report_bytes(scan, panel, kind, tmp_path, monkeypatch, capsys, request):
    monkeypatch.chdir(tmp_path)  # the report echoes the relative --input path
    _write_panel(panel)
    assert cli.main([scan, "--input", f"{panel}.csv", "--input-kind", KINDS[kind],
                     *SCANS[scan]]) == 0
    got = capsys.readouterr().out.encode("utf-8")
    compare_report(got, f"{scan}_{panel}_{kind}.json", request)


@pytest.mark.parametrize("name, panel, argv", REPORTS, ids=[r[0] for r in REPORTS])
def test_report_bytes(name, panel, argv, tmp_path, monkeypatch, capsys, request):
    monkeypatch.chdir(tmp_path)
    if panel is not None:
        _write_panel(panel)
    vols = "".join(f"S{i},{0.5 + 0.25 * i}\n" for i in range(6))
    Path("vols.csv").write_text("ticker,vol\n" + vols, encoding="utf-8")  # qscan's --volatilities
    assert cli.main(argv) == 0
    got = capsys.readouterr().out.encode("utf-8")
    if "--out" in argv:
        got = Path(argv[argv.index("--out") + 1]).read_bytes()
    compare_report(got, name, request)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda path: path.name)
def test_every_json_report_is_strict_json(path):
    strict_json(path.read_text(encoding="utf-8"))
