import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrstat import (__version__, cli, corrdist, dataio, portfolio, spectral, stationarity,
                      synthgen)
from corrstat.errors import InvalidParameter

from conftest import compare_report, gaussian_panel, make_panel, strict_json


def run(argv):
    return cli.main(argv)


def simulate_panel(tmp_path, n=5, t=150, name="panel.csv", seed=4):
    path = tmp_path / name
    rc = run(["simulate", "--family", "gaussian", "--corr", f"equicorr:{n}:0.3",
              "--T", str(t), "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


def run_captured(argv):
    """(exit code, stderr) of one run, argparse's own exits included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = run(argv)
        except SystemExit as exc:  # argparse's own errors exit this way
            rc = exc.code
    return rc, err.getvalue()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_strict_json(path):
    """The report at path, refusing NaN and Infinity as strict JSON parsers do."""
    return strict_json(Path(path).read_text())


def test_density_csv_file(tmp_path, capsys):
    out = tmp_path / "density.csv"
    rc = run(["density", "--rho-bar", "0.2", "--T", "50", "--grid", "51",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,density,gaussian_approx"
    assert len(lines) == 52
    assert lines[1].startswith("-1,")
    echo = json.loads(capsys.readouterr().out.strip())
    assert echo["command"] == "density"
    assert echo["config"]["T"] == 50
    assert "threads" not in echo["config"]


def test_density_csv_stdout_is_pure(capsys):
    rc = run(["density", "--rho-bar", "0.0", "--T", "25", "--grid", "11",
              "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,density,gaussian_approx"
    assert len(lines) == 12
    assert not any(line.startswith("{") for line in lines)


def test_density_json_stdout(capsys):
    rc = run(["density", "--rho-bar", "0.3", "--T", "80", "--grid", "21",
              "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "density"
    assert report["version"] == __version__
    assert report["generated_at"] == "unset"
    assert report["columns"] == ["rho", "density", "gaussian_approx"]
    assert len(report["rows"]) == 21


def test_density_usage_errors(capsys):
    assert run(["density", "--rho-bar", "0.2", "--T", "3"]) == 2
    assert "--T" in capsys.readouterr().err
    assert run(["density", "--rho-bar", "1.5", "--T", "50"]) == 2
    assert "--rho-bar" in capsys.readouterr().err
    assert run(["density", "--rho-bar", "0.2", "--T", "50", "--grid", "1"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_no_subcommand(capsys):
    assert run([]) == 2


def test_unknown_recipe(capsys):
    assert run(["reproduce", "nope"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: argument recipe: invalid choice: 'nope'"), line


@pytest.mark.parametrize("argv, message", [
    (["local-scan", "--input", "x.csv", "--t1", "abc"],
     "error: argument --t1: invalid int value: 'abc'"),
    (["density", "--rho-bar", "0.2", "--T", "x"],
     "error: argument --T: invalid int value: 'x'"),
    (["density", "--rho-bar", "0.2", "--T", "50", "--grid", "1.5"],
     "error: argument --grid: invalid int value: '1.5'"),
    (["local-scan", "--input", "x.csv", "--t1", "30", "--input-kind", "bonds"],
     "error: argument --input-kind: invalid choice: 'bonds'"),
    (["local-scan", "--input", "x.csv", "--t1", "30", "--sigma-convention", "bogus"],
     "error: argument --sigma-convention: invalid choice: 'bogus'"),
    (["qscan", "--input", "x.csv", "--t1", "30", "--t2", "30", "--truth", "bogus"],
     "error: argument --truth: invalid choice: 'bogus'"),
    # a ':' always carries a nu, so 'gaussian:' is not 'gaussian'
    (["global-scan", "--input", "x.csv", "--mc", "gaussian:"],
     "error: argument --mc: must be 'gaussian' or 'student-t:NU' with a finite NU >= 3, "
     "got 'gaussian:'"),
    # every seed flag: a negative seed is a usage error, not a numpy traceback
    (["global-scan", "--input", "x.csv", "--mc", "gaussian", "--mc-seed", "-1"],
     "error: argument --mc-seed: must be a non-negative integer, got '-1'"),
    (["global-scan", "--input", "x.csv", "--reshuffle-seed", "-1"],
     "error: argument --reshuffle-seed: must be a non-negative integer, got '-1'"),
    (["local-scan", "--input", "x.csv", "--t1", "30", "--mc", "gaussian", "--mc-seed", "-1"],
     "error: argument --mc-seed: must be a non-negative integer, got '-1'"),
    (["simulate", "--family", "gaussian", "--corr", "identity:3", "--T", "50",
      "--seed", "-1", "--out", "x.csv"],
     "error: argument --seed: must be a non-negative integer, got '-1'"),
    (["qscan", "--input", "x.csv", "--t1", "30", "--t2", "30", "--mc-seed", "-1"],
     "error: argument --mc-seed: must be a non-negative integer, got '-1'"),
    (["qscan", "--input", "x.csv", "--t1", "30", "--t2", "30", "--n-stocks", "5",
      "--select-seed", "-1"],
     "error: argument --select-seed: must be a non-negative integer, got '-1'"),
])
def test_bad_flag_value_is_one_line(argv, message, capsys):
    assert run(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines


def test_missing_input(tmp_path, capsys):
    rc = run(["global-scan", "--input", str(tmp_path / "absent.csv")])
    assert rc == 2
    assert "--input" in capsys.readouterr().err


def test_simulate_requires_out(capsys):
    rc = run(["simulate", "--family", "gaussian", "--corr", "identity:3",
              "--T", "50"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_simulate_scan_roundtrip(tmp_path, capsys):
    panel = simulate_panel(tmp_path)
    capsys.readouterr()
    out = tmp_path / "gs.json"
    rc = run(["global-scan", "--input", str(panel), "--input-kind", "returns",
              "--window", "25", "--alpha", "0.05", "--reshuffle-seed", "3",
              "--mc", "gaussian", "--mc-seed", "5", "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["command"] == "global-scan"
    assert report["dataset"] == "panel.csv"
    cell = report["cells"][0]
    assert cell["T_w"] == 25
    assert cell["alpha"] == 0.05
    assert cell["denominator"] == 10
    assert set(cell["control_fractions"]) == {"reshuffle", "mc"}
    assert 0.0 <= cell["fraction"] <= 1.0

    rc = run(["local-scan", "--input", str(panel), "--input-kind", "returns",
              "--t1", "50", "--tau", "25", "--n", "1,2",
              "--out", str(tmp_path / "ls.json")])
    assert rc == 0
    report = read_json(tmp_path / "ls.json")
    assert report["command"] == "local-scan"
    assert {c["n"] for c in report["cells"]} == {1, 2}
    assert all(isinstance(c["n"], int) for c in report["cells"])
    assert all(c["tau"] == 25 for c in report["cells"])


def test_input_not_mutated(tmp_path, capsys):
    panel = simulate_panel(tmp_path)
    before = hashlib.sha256(panel.read_bytes()).hexdigest()
    rc = run(["global-scan", "--input", str(panel), "--input-kind", "returns",
              "--window", "25", "--out", str(tmp_path / "g.json")])
    assert rc == 0
    assert hashlib.sha256(panel.read_bytes()).hexdigest() == before


def test_reports_identical_across_threads(tmp_path, capsys):
    panel = simulate_panel(tmp_path)
    out = tmp_path / "scan.json"
    base = ["global-scan", "--input", str(panel), "--input-kind", "returns",
            "--window", "25,50", "--alpha", "0.05", "--reshuffle-seed", "1",
            "--mc", "gaussian", "--out", str(out)]
    blobs = []
    for threads in ("1", "4", "16"):
        assert run(base + ["--threads", threads]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    qout = tmp_path / "q.json"
    qbase = ["qscan", "--input", str(panel), "--input-kind", "returns",
             "--t1", "20", "--t2", "20", "--replicas", "30", "--out", str(qout)]
    qblobs = []
    for threads in ("1", "4"):
        assert run(qbase + ["--threads", threads]) == 0
        qblobs.append(qout.read_bytes())
    assert qblobs[0] == qblobs[1]


def test_timestamp_pinning(tmp_path, capsys, monkeypatch):
    out = tmp_path / "d.json"
    rc = run(["density", "--rho-bar", "0.1", "--T", "30", "--grid", "5",
              "--format", "json", "--timestamp", "2026-01-01T00:00:00Z",
              "--out", str(out)])
    assert rc == 0
    assert read_json(out)["generated_at"] == "2026-01-01T00:00:00Z"

    monkeypatch.setenv(cli.TIMESTAMP_ENV, "2026-02-02T00:00:00Z")
    rc = run(["density", "--rho-bar", "0.1", "--T", "30", "--grid", "5",
              "--format", "json", "--out", str(out)])
    assert rc == 0
    assert read_json(out)["generated_at"] == "2026-02-02T00:00:00Z"

    rc = run(["density", "--rho-bar", "0.1", "--T", "30", "--grid", "5",
              "--format", "json", "--timestamp", "flag-wins", "--out", str(out)])
    assert rc == 0
    assert read_json(out)["generated_at"] == "flag-wins"


@pytest.mark.filterwarnings("error")
def test_qscan_on_a_panel_whose_covariance_overflows_is_one_error_line(tmp_path):
    # one series near 1e298: its sd is exact, its variance is not a float64
    returns = np.random.default_rng(0).normal(size=(3, 300)) * 0.01
    returns[1] *= 1e300
    path = tmp_path / "big.csv"
    dataio.save_panel_csv(make_panel(returns, ("A", "B", "C")), path)
    rc, err = run_captured(["qscan", "--input", str(path), "--input-kind", "returns",
                            "--t1", "20", "--t2", "20", "--replicas", "30",
                            "--out", str(tmp_path / "q.json")])
    assert (rc, err) == (1, "error: DomainError: matrix has non-finite entry inf at (1, 1)\n")


@pytest.mark.filterwarnings("error")
def test_qscan_report_on_a_held_pnl_whose_squares_overflow_is_strict_json(tmp_path):
    # realized returns near 1e158: the held P&L's sd is a float64, its squares are not
    returns = 0.01 * np.random.default_rng(0).standard_normal((3, 200))
    returns[:, 100:] *= 1e160
    path = tmp_path / "split.csv"
    dataio.save_panel_csv(make_panel(returns, ("A", "B", "C")), path)
    out = tmp_path / "q.json"
    assert run(["qscan", "--input", str(path), "--input-kind", "returns", "--t1", "100",
                "--t2", "100", "--replicas", "30", "--out", str(out)]) == 0
    (sample,) = read_strict_json(out)["samples"]
    assert 1e158 < sample["q"] < 1e161


def test_qscan_schema(tmp_path, capsys):
    panel = simulate_panel(tmp_path)
    out = tmp_path / "q.json"
    rc = run(["qscan", "--input", str(panel), "--input-kind", "returns",
              "--t1", "20", "--t2", "20", "--replicas", "30",
              "--band-sigmas", "4.0", "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["command"] == "qscan"
    assert report["version"] == __version__
    assert report["band"]["k"] == 4.0
    assert report["band"]["sd"] > 0
    assert len(report["samples"]) == 6
    for k, sample in enumerate(report["samples"], start=1):
        assert sample["sample"] == k
        assert sample["t2_range"] == [20 * k, 20 * (k + 1)]
        assert sample["sigma_E"] > 0
        assert sample["q"] == pytest.approx(sample["sigma_R"] / sample["sigma_E"])
        assert sample["band"] == report["band"]
        assert isinstance(sample["violation"], bool)
    assert report["config"]["truth"] == "estimated"


def test_qscan_identity_truth(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=4, t=100)
    out = tmp_path / "qi.json"
    rc = run(["qscan", "--input", str(panel), "--input-kind", "returns",
              "--t1", "20", "--t2", "20", "--replicas", "30",
              "--truth", "identity", "--out", str(out)])
    assert rc == 0
    assert read_json(out)["config"]["truth"] == "identity"


def test_qscan_volatilities(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=4, t=100)
    vols = tmp_path / "vols.csv"
    vols.write_text("ticker,vol\nS0,1.0\nS1,2.0\nS2,1.5\nS3,0.5\n")
    rc = run(["qscan", "--input", str(panel), "--input-kind", "returns",
              "--t1", "20", "--t2", "20", "--replicas", "30",
              "--volatilities", str(vols), "--out", str(tmp_path / "q.json")])
    assert rc == 0
    capsys.readouterr()
    for last in ("", "S3,nan\n", "S3,inf\n"):  # a missing ticker, then non-finite ones
        vols.write_text("ticker,vol\nS0,1.0\nS1,2.0\nS2,1.5\n" + last)
        rc = run(["qscan", "--input", str(panel), "--input-kind", "returns",
                  "--t1", "20", "--t2", "20", "--replicas", "30",
                  "--volatilities", str(vols), "--out", str(tmp_path / "q.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--volatilities" in err[0], err


VOLS = "S0,1.0\nS1,2.0\nS2,1.5\nS3,0.5\n"


def _qscan_band(tmp_path, vols_text, tickers=("S0", "S1", "S2", "S3"), encoding="utf-8"):
    """(exit code, stderr, band) of a qscan run reading vols_text as --volatilities."""
    panel = make_panel(gaussian_panel(len(tickers), 100, seed=4).returns, tickers)
    path = tmp_path / "panel.csv"
    dataio.save_panel_csv(panel, path)
    vols = tmp_path / "vols.csv"
    vols.write_text(vols_text, encoding=encoding)
    out = tmp_path / "q.json"
    out.unlink(missing_ok=True)
    rc, err = run_captured(["qscan", "--input", str(path), "--input-kind", "returns",
                            "--t1", "20", "--t2", "20", "--replicas", "30",
                            "--volatilities", str(vols), "--out", str(out)])
    return rc, err, read_json(out)["band"] if rc == 0 else None


@pytest.mark.parametrize("bom", ["", "\ufeff"])
@pytest.mark.parametrize("header", ["", "ticker,vol\n", "Symbol,Volatility\n"])
def test_volatilities_header_and_bom(tmp_path, bom, header):
    _, _, plain = _qscan_band(tmp_path, VOLS)
    rc, err, band = _qscan_band(tmp_path, bom + header + VOLS)
    assert rc == 0, err
    assert band == plain


@pytest.mark.parametrize("header", ["", "ticker,vol\n"])
def test_volatilities_ticker_may_start_with_ticker(tmp_path, header):
    _, _, plain = _qscan_band(tmp_path, VOLS)
    rc, err, band = _qscan_band(tmp_path, header + VOLS.replace("S0", "TICKERA"),
                                tickers=("TICKERA", "S1", "S2", "S3"))
    assert rc == 0, err
    assert band == plain


@pytest.mark.parametrize("text", [
    '"S0",1.0\n"S1",2.0\n"S2",1.5\n"S3",0.5\n',  # quoted tickers
    'S0,"1.0"\nS1,2.0\nS2,1.5\nS3,0.5\n',  # a quoted value on the first line is not a header
    '"ticker","vol"\n' + VOLS,  # a quoted header
])
def test_volatilities_are_read_as_csv_records(tmp_path, text):
    _, _, plain = _qscan_band(tmp_path, VOLS)
    rc, err, band = _qscan_band(tmp_path, text)
    assert rc == 0, err
    assert band == plain


def test_volatilities_header_only_on_the_first_line(tmp_path):
    rc, err, _ = _qscan_band(tmp_path, "S0,1.0\nticker,vol\nS1,2.0\nS2,1.5\nS3,0.5\n")
    assert rc == 2
    vols = tmp_path / "vols.csv"
    assert err.splitlines() == [f"error: --volatilities: {vols}: row 2: malformed line"]


def test_volatilities_that_are_not_utf8_are_a_usage_error(tmp_path):
    text = "ticker,volatilit\u00e9\n" + VOLS
    rc, err, _ = _qscan_band(tmp_path, text, encoding="cp1252")
    assert rc == 2
    with pytest.raises(UnicodeDecodeError) as info:
        text.encode("cp1252").decode("utf-8")
    vols = tmp_path / "vols.csv"
    assert err.splitlines() == [
        f"error: --volatilities: {vols}: not UTF-8 text ({info.value.reason})"]


def test_volatilities_repeated_ticker_is_a_usage_error(tmp_path):
    rc, err, _ = _qscan_band(tmp_path, VOLS + "S1,3.0\n")
    assert rc == 2
    vols = tmp_path / "vols.csv"
    assert err.splitlines() == [f"error: --volatilities: {vols}: row 5: duplicate ticker 'S1'"]


@pytest.mark.parametrize("spec", ["identity:0", "onefactor:0:1", "identity:-1", "onefactor:-2:1"])
def test_empty_or_negative_corr_size_is_a_flag_error(tmp_path, spec):
    rc, err = run_captured(["simulate", "--family", "gaussian", "--corr", spec, "--T", "50",
                            "--seed", "1", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    (line,) = err.splitlines()
    assert line.startswith(f"error: --corr: invalid correlation spec {spec!r}: "), line
    assert line.endswith(f"N must be an integer >= 1, got {spec.split(':')[1]}"), line
    for numpy_text in ("zero-size", "negative dimensions", "array"):
        assert numpy_text not in line


def test_qscan_usage_errors(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=5, t=100)
    base = ["qscan", "--input", str(panel), "--input-kind", "returns"]
    assert run(base + ["--t1", "4", "--t2", "20"]) == 2
    assert "--t1" in capsys.readouterr().err
    assert run(base + ["--t1", "20", "--t2", "20", "--replicas", "10"]) == 2
    assert "--replicas" in capsys.readouterr().err
    assert run(base + ["--t1", "20", "--t2", "20", "--n-stocks", "9"]) == 2
    assert "--n-stocks" in capsys.readouterr().err
    for k in ("0", "inf", "-inf", "nan"):
        assert run(base + ["--t1", "20", "--t2", "20", f"--band-sigmas={k}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--band-sigmas" in err[0], err


# (argv, with PANEL for a returns panel and DIR for a directory; exit code;
# the start of its one stderr line)
CLI_ERRORS = [
    (["simulate", "--family", "gaussian", "--corr", "bogus:3", "--T", "40", "--out", "x.csv"],
     2, "error: --corr must be from:PATH, identity:N, equicorr:N:RHO or onefactor:N:SEED, "
        "got 'bogus:3'"),
    (["qscan", "--input", "PANEL", "--input-kind", "returns", "--t1", "20", "--t2", "20",
      "--volatilities", "MISSING"],
     2, "error: --volatilities: cannot read MISSING"),
    (["spectral", "--input", "PANEL", "--input-kind", "returns", "--window", "40",
      "--out", "DIR"],
     1, "error: "),
]


@pytest.mark.parametrize("argv, code, start", CLI_ERRORS, ids=[a[0] for a, _, _ in CLI_ERRORS])
def test_cli_errors_are_one_line(argv, code, start, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    panel = simulate_panel(tmp_path, n=5, t=100)
    (tmp_path / "DIR").mkdir()
    argv = [{"PANEL": str(panel), "DIR": str(tmp_path / "DIR")}.get(a, a) for a in argv]
    rc, err = run_captured(argv)
    assert rc == code
    assert len(err.splitlines()) == 1 and err.startswith(start), err


def test_qscan_n_stocks_reports_the_tickers_it_selects(tmp_path):
    panel = simulate_panel(tmp_path, n=5, t=100)
    out = tmp_path / "q.json"
    assert run(["qscan", "--input", str(panel), "--input-kind", "returns", "--t1", "20",
                "--t2", "20", "--replicas", "30", "--n-stocks", "3", "--out", str(out)]) == 0
    picked = portfolio.select_stocks(dataio.load_price_panel(panel, "returns"), 3, 1)
    report = read_json(out)
    assert report["tickers"] == list(picked.tickers) and len(picked.tickers) == 3
    assert report["config"]["n_stocks"] == 3


@pytest.fixture(scope="module")
def qscan_panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("qscan") / "panel.csv"
    dataio.save_panel_csv(gaussian_panel(4, 200, seed=16), path)
    return path


@settings(max_examples=25)
@given(t1=st.integers(-2, 120), t2=st.integers(-2, 120),
       replicas=st.one_of(st.integers(-5, 29), st.integers(30, 60)),
       k=st.one_of(st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]),
                   st.floats(0.5, 10.0), st.floats()))
def test_qscan_exits_0_1_or_2_with_one_error_line(qscan_panel, t1, t2, replicas, k):
    argv = ["qscan", "--input", str(qscan_panel), "--input-kind", "returns",
            "--t1", str(t1), "--t2", str(t2), "--replicas", str(replicas),
            f"--band-sigmas={k!r}", "--out", str(qscan_panel.with_suffix(".json"))]
    rc, err = run_captured(argv)
    assert rc in (0, 1, 2)
    if rc != 0:
        assert len(err.splitlines()) == 1, err


_MALFORMED = ("well-formed", "ragged-short", "ragged-long", "empty", "dates-only",
              "one-ticker", "duplicate-tickers", "non-numeric", "constant-ticker",
              "not-utf8", "oversized-cell")


def _panel_bytes(malformation, n_series, n_steps, row, seed):
    """A CSV price panel with at most one defect; row picks the defective row."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.01, size=(n_steps, n_series))
    prices = 100.0 * np.exp(np.cumsum(steps, axis=0))
    header = ["date", *(f"T{k}" for k in range(n_series))]
    rows = [[f"d{t}", *(f"{v:.17g}" for v in day)] for t, day in enumerate(prices)]
    row %= n_steps
    if malformation == "empty":
        return b""
    if malformation == "ragged-short":
        rows[row].pop()
    elif malformation == "ragged-long":
        rows[row].append("1.0")
    elif malformation == "dates-only":
        header, rows = header[:1], [r[:1] for r in rows]
    elif malformation == "one-ticker":
        header, rows = header[1:2], [r[1:2] for r in rows]
    elif malformation == "duplicate-tickers":
        header[-1] = header[1]
    elif malformation == "non-numeric":
        rows[row][-1] = "n/a"
    elif malformation == "constant-ticker":
        for r in rows:
            r[1] = "4.2"
    elif malformation == "not-utf8":  # as Excel's plain CSV export writes it on Windows
        rows[row][0] += "\u00e9"
    elif malformation == "oversized-cell":
        rows[row][-1] = "1" + "0" * csv.field_size_limit()
    text = "".join(",".join(r) + "\n" for r in [header, *rows])
    return text.encode("cp1252" if malformation == "not-utf8" else "utf-8")


_SUBCOMMANDS = {
    "global-scan": ["--window", "10,20", "--max-pairs", "3", "--reshuffle-seed", "1",
                    "--mc", "gaussian"],
    "local-scan": ["--t1", "20", "--tau", "5,30", "--mc", "student-t:5"],
    "qscan": ["--t1", "15", "--t2", "15", "--replicas", "30"],
    "spectral": ["--window", "15", "--sectors", "1"],
    "simulate": ["--family", "gaussian", "--corr", "from:{input}", "--T", "40"],
    "density": ["--rho-bar", "{rho}", "--T", "{n_steps}", "--grid", "11"],
    "reproduce": ["{recipe}"],
}


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@settings(max_examples=80)
@given(command=st.sampled_from(sorted(_SUBCOMMANDS)),
       malformation=st.sampled_from(_MALFORMED),
       n_series=st.integers(2, 4), n_steps=st.integers(3, 130), row=st.integers(0, 200),
       seed=st.integers(0, 3), input_kind=st.sampled_from(dataio.RETURN_KINDS),
       rho=st.one_of(st.floats(-0.99, 0.99), st.sampled_from([1.0, math.nan, math.inf])),
       recipe=st.sampled_from(["fig1", "table2", "no-such-recipe"]))
def test_every_subcommand_exits_0_1_or_2_with_one_error_line(
        malformed_dir, command, malformation, n_series, n_steps, row, seed, input_kind,
        rho, recipe):
    panel = malformed_dir / "panel.csv"
    panel.write_bytes(_panel_bytes(malformation, n_series, n_steps, row, seed))
    fields = {"input": panel, "n_steps": n_steps, "rho": repr(rho), "recipe": recipe}
    argv = [command, *(a.format(**fields) for a in _SUBCOMMANDS[command]),
            "--out", str(malformed_dir / "out.json")]
    if command not in ("density", "reproduce"):
        argv += ["--input-kind", input_kind]
    if command not in ("density", "reproduce", "simulate"):
        argv += ["--input", str(panel)]
    rc, err = run_captured(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert sum("error:" in line for line in err.splitlines()) <= (rc != 0), err
    assert "Traceback" not in err
    out = malformed_dir / "out.json"
    if rc == 0 and out.read_text().startswith("{"):
        read_strict_json(out)


def test_spectral_schema(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=6, t=120)
    out = tmp_path / "s.json"
    rc = run(["spectral", "--input", str(panel), "--input-kind", "returns",
              "--window", "30", "--sectors", "2", "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    snaps = report["snapshots"]
    assert len(snaps) == 4
    assert snaps[0]["window"] == [0, 30]
    for snap in snaps:
        assert snap["lambda_market"] >= snap["lambda_sector"] / 2.0
        assert 1.0 / 6 - 1e-9 <= snap["ipr_market"] <= 1.0
    deltas = report["deltas"]
    assert len(deltas) == 3
    for prev, delta in zip(snaps, deltas):
        assert delta["from"] == prev["window"]
        assert isinstance(delta["flag"], bool)
    # windows line up with a qscan on the same grid for joining
    qrc = run(["qscan", "--input", str(panel), "--input-kind", "returns",
               "--t1", "30", "--t2", "30", "--replicas", "30",
               "--out", str(tmp_path / "q.json")])
    assert qrc == 0
    qreport = read_json(tmp_path / "q.json")
    snap_windows = {tuple(s["window"]) for s in snaps}
    for sample in qreport["samples"]:
        assert tuple(sample["t2_range"]) in snap_windows


def test_spectral_runtime_error(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=6, t=60)
    rc = run(["spectral", "--input", str(panel), "--input-kind", "returns",
              "--window", "100"])
    assert rc == 1
    assert "InsufficientData" in capsys.readouterr().err


def test_non_finite_cell_is_a_one_line_error(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=4, t=100)
    lines = panel.read_text().splitlines()
    cells = lines[40].split(",")
    cells[2] = "nan"
    lines[40] = ",".join(cells)
    panel.write_text("\n".join(lines) + "\n")
    base = ["--input", str(panel), "--input-kind", "returns"]
    for argv in (["local-scan", "--t1", "30", "--tau", "10"],
                 ["qscan", "--t1", "20", "--t2", "20", "--replicas", "30"],
                 ["spectral", "--window", "20", "--sectors", "1"]):
        assert run(argv + base) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error: ParseError: ") and "row 41, col 3" in err


def test_bad_thread_count_is_a_usage_error(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=4, t=100)
    base = ["--input", str(panel), "--input-kind", "returns"]
    commands = (["local-scan", "--t1", "30", "--tau", "10"],
                ["qscan", "--t1", "20", "--t2", "20", "--replicas", "30"],
                ["spectral", "--window", "20", "--sectors", "1"],
                ["density", "--rho-bar", "0.2", "--T", "50", "--grid", "11"])
    for bad, why in (("0", "must be an integer in [1, 2**53], got '0'"),
                     ("-3", "must be an integer in [1, 2**53], got '-3'"),
                     ("two", "invalid int value: 'two'"), ("1.5", "invalid int value: '1.5'")):
        for argv in commands:
            assert run(argv + base * (argv[0] != "density") + ["--threads", bad]) == 2
            err = capsys.readouterr().err
            assert err == f"error: argument --threads: {why}\n", argv


def test_mc_parse_errors(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=4, t=100)
    rc = run(["global-scan", "--input", str(panel), "--input-kind", "returns",
              "--mc", "student-t:2"])
    assert rc == 2
    assert "--mc" in capsys.readouterr().err
    rc = run(["local-scan", "--input", str(panel), "--input-kind", "returns",
              "--t1", "30", "--n", "0,1"])
    assert rc == 2
    assert "--n" in capsys.readouterr().err
    for command in (["global-scan"], ["local-scan", "--t1", "30"]):
        for nu in ("inf", "nan", "-inf"):
            rc = run([*command, "--input", str(panel), "--input-kind", "returns",
                      "--mc", f"student-t:{nu}"])
            assert rc == 2
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: argument --mc: must be 'gaussian' or 'student-t:NU' with a "
                           f"finite NU >= 3, got 'student-t:{nu}'"], err


def test_simulate_echoes_the_flags_that_read_its_panel(tmp_path, capsys):
    rng = np.random.default_rng(3)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=(4, 121)), axis=1))
    source = tmp_path / "prices.csv"
    dataio.save_panel_csv(dataio.ReturnPanel(  # the cells are prices
        ("A", "B", "C", "D"), tuple(str(t) for t in range(121)), prices), source)
    configs, panels = {}, {}
    for kind in ("log", "simple"):
        out = tmp_path / f"{kind}.csv"
        rc = run(["simulate", "--family", "gaussian", "--corr", f"from:{source}",
                  "--T", "50", "--input-kind", kind, "--out", str(out)])
        assert rc == 0
        configs[kind] = json.loads(capsys.readouterr().out)["config"]
        panels[kind] = out.read_text()
    assert panels["log"] != panels["simple"]
    for kind, config in configs.items():
        assert config["input_kind"] == kind
        assert config["family"] == "gaussian" and "nu" not in config


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@pytest.mark.parametrize("old", [["--returns-kind", "simple"], ["--nu", "5"]])
def test_no_subcommand_takes_the_old_flag_pairs(command, old):
    argv = [command, *(a.format(input="x.csv", n_steps=50, rho="0.3", recipe="fig1")
                       for a in _SUBCOMMANDS[command])]
    if command not in ("density", "reproduce", "simulate"):
        argv += ["--input", "x.csv"]
    rc, err = run_captured([*argv, *old, "--out", "x.json"])
    assert rc == 2
    assert err.splitlines() == [f"error: unrecognized arguments: {' '.join(old)}"], err


def test_input_kind_choices_are_the_loader_kinds():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    kinds = {command: action.choices for command, parser in sub.choices.items()
             for action in parser._actions if "--input-kind" in action.option_strings}
    assert set(kinds) == {"global-scan", "local-scan", "simulate", "qscan", "spectral"}
    assert all(choices is dataio.RETURN_KINDS for choices in kinds.values())


@pytest.mark.parametrize("nu", ["inf", "nan"])
def test_simulate_rejects_non_finite_nu(tmp_path, capsys, nu):
    out = tmp_path / "panel.csv"
    rc = run(["simulate", "--family", f"student-t:{nu}", "--corr", "identity:3",
              "--T", "50", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: argument --family: must be 'gaussian' or 'student-t:NU' with a finite "
        f"NU >= 3, got 'student-t:{nu}'"]
    assert not out.exists()


@pytest.mark.parametrize("n", [1025, 2])
def test_simulate_rejects_more_than_2_53_cells(tmp_path, capsys, monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("the panel was drawn")

    monkeypatch.setattr(cli.synthgen, "sample_panel", refuse)
    out = tmp_path / "panel.csv"
    rc = run(["simulate", "--family", "gaussian", "--corr", f"identity:{n}",
              "--T", str(2 ** 53), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --T: a panel of {n} series x {2 ** 53} steps exceeds 2**53 cells"]
    assert not out.exists()


def test_reproduce_fig1(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    rc = run(["reproduce", "fig1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,density,gaussian_approx"
    assert len(lines) == 2002
    echo = json.loads(capsys.readouterr().out.strip())
    assert echo["config"]["rho_bar"] == 0.2
    assert echo["config"]["T"] == 50


@pytest.mark.parametrize("recipe", ["table1", "table2", "fig3-bands"])
def test_reproduce_recipe_golden(recipe, capsys, request):
    assert run(["reproduce", recipe]) == 0
    compare_report(capsys.readouterr().out.encode("utf-8"), f"reproduce_{recipe}.json", request)


def _option_dests(command):
    """The dest of every option and positional of one subcommand's parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def test_config_echoes_every_parsed_flag(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=4, t=120)
    capsys.readouterr()
    base = ["--input", str(panel), "--input-kind", "returns"]
    runs = [
        ["density", "--rho-bar", "0.2", "--T", "50", "--grid", "11"],
        ["global-scan", *base, "--window", "20,30", "--alpha", "0.05"],
        ["local-scan", *base, "--t1", "30", "--tau", "10,20", "--n", "1,3"],
        ["simulate", "--family", "gaussian", "--corr", "identity:3", "--T", "40"],
        ["qscan", *base, "--t1", "20", "--t2", "20", "--replicas", "30"],
        ["spectral", *base, "--window", "20", "--sectors", "1",
         "--thresholds", "0.1,-0.1,0"],
        *(["reproduce", recipe] for recipe in sorted(cli._RECIPES)),
    ]
    as_parsed = {"global-scan": {"window": [20, 30], "alpha": [0.05]},
                 "local-scan": {"tau": [10, 20], "n": [1, 3]},
                 "spectral": {"thresholds": [0.1, -0.1, 0.0]}}
    for argv in runs:
        out = tmp_path / f"{argv[0]}.out"
        assert run([*argv, "--out", str(out), "--threads", "2", "--timestamp", "t"]) == 0
        echo = json.loads(capsys.readouterr().out)
        expected = _option_dests(argv[0]) - {"threads", "timestamp"}
        if argv[0] == "reproduce":
            expected |= set(cli._RECIPES[argv[1]][1])
        assert set(echo["config"]) == expected, argv
        assert echo["generated_at"] == "t"
        for flag, value in as_parsed.get(argv[0], {}).items():
            assert echo["config"][flag] == value, (argv, flag)


@pytest.mark.parametrize("malformation",
                         ["duplicate-tickers", "ragged-short", "not-utf8", "oversized-cell"])
def test_simulate_reads_its_corr_panel_like_the_panel_commands(tmp_path, malformation):
    panel = tmp_path / "bad.csv"
    panel.write_bytes(_panel_bytes(malformation, 3, 60, 10, 0))
    out = str(tmp_path / "out")
    simulate = run_captured(["simulate", "--family", "gaussian", "--corr", f"from:{panel}",
                             "--T", "40", "--out", out])
    spectral = run_captured(["spectral", "--input", str(panel), "--window", "20",
                             "--sectors", "1", "--out", out])
    assert simulate == spectral
    rc, err = simulate
    assert rc == 1 and err.count("\n") == 1, err
    assert err.startswith(("error: DuplicateTicker: ", "error: ParseError: ")), err


def test_unreadable_corr_panel_is_a_usage_error(tmp_path):
    rc, err = run_captured(["simulate", "--family", "gaussian", "--corr",
                            f"from:{tmp_path / 'absent.csv'}", "--T", "40",
                            "--out", str(tmp_path / "out")])
    assert rc == 2 and err.startswith("error: --corr: cannot read "), err


def test_scan_cell_without_a_tested_pair_reports_null(tmp_path):
    panel = simulate_panel(tmp_path, n=3, t=60)
    base = ["--input", str(panel), "--input-kind", "returns", "--mc", "gaussian"]
    out = tmp_path / "scan.json"
    # three windows of 20 are fewer than the KS test's 5; 60 steps end before t1 + tau
    for argv in (["global-scan", "--window", "20"],
                 ["local-scan", "--t1", "40", "--tau", "30"]):
        assert run([*argv, *base, "--out", str(out)]) == 0
        cells = read_strict_json(out)["cells"]
        assert cells
        for cell in cells:
            assert cell["fraction"] is None and cell["denominator"] == 0
            assert cell["control_fractions"] == {"mc": None}


@pytest.mark.parametrize("argv, flag", [
    (["density", "--rho-bar", "0.9999999999999", "--T", "50"], "--rho-bar"),
    (["simulate", "--family", "student-t:2.5", "--corr", "identity:3", "--T", "50"],
     "--family"),
    (["global-scan", "--mc", "student-t:2.5"], "--mc"),
    (["density", "--rho-bar", "0.3", "--T", str(corrdist.MAX_T + 1)], "--T"),
])
def test_library_bounds_are_flag_errors(tmp_path, argv, flag):
    panel = simulate_panel(tmp_path, n=3, t=60)
    if argv[0] == "global-scan":
        argv = [*argv, "--input", str(panel), "--input-kind", "returns"]
    rc, err = run_captured([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2 and err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1, err


_BIG = "1" + "0" * 400  # too large for a float64 or an array dimension


@pytest.mark.parametrize("argv, flag", [
    (["density", "--rho-bar", "0.3", "--T", _BIG], "--T"),
    (["density", "--rho-bar", "0.3", "--T", "50", "--grid", _BIG], "--grid"),
    (["local-scan", "--input", "x.csv", "--t1", "30", "--n", _BIG], "--n"),
    (["simulate", "--family", "gaussian", "--corr", "identity:3", "--T", _BIG,
      "--out", "x.csv"], "--T"),
    (["qscan", "--input", "x.csv", "--t1", "30", "--t2", "30", "--replicas", _BIG],
     "--replicas"),
])
def test_huge_counts_are_flag_errors(argv, flag):
    rc, err = run_captured(argv)
    assert rc == 2
    (line,) = err.splitlines()
    assert line.startswith(f"error: argument {flag}: must be "), line
    # density's --T stops at the law's MAX_T, every other count at 2**53
    top = corrdist.MAX_T if (argv[0], flag) == ("density", "--T") else "2**53"
    assert f", {top}], got '{_BIG}'" in line, line


def test_running_out_of_memory_is_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 64.0 PiB for an array")

    monkeypatch.setattr(cli, "cmd_density", exhausted)
    assert run(["density", "--rho-bar", "0.3", "--T", "50"]) == 1
    assert capsys.readouterr().err == (
        "error: MemoryError: Unable to allocate 64.0 PiB for an array\n")


# Substream labels: any non-negative integer is a valid seed or replica index.
_LABELS = {"--seed", "--mc-seed", "--reshuffle-seed", "--select-seed", "--replica"}


def _typed_options():
    """(subcommand, flag, type) of every option whose value argparse converts."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.type)
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is not None]


def test_every_typed_option_is_bounded_where_it_is_parsed(capsys):
    options = _typed_options()
    assert {flag for _, flag, _ in options} >= {"--threads", "--T", "--window", "--mc"}
    for command, flag, convert in options:
        if flag in _LABELS:
            assert convert(_BIG) == int(_BIG), flag
            bad_values = ("nan", "-1")
        else:
            bad_values = (_BIG, "nan")
        for value in bad_values:
            assert run([command, flag, value]) == 2, (command, flag, value)
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: argument {flag}: "), (command, flag, line)


_REAL_TEXTS = ["nan", "inf", "-inf", "1e400", "0", "-0.0", "1", "-1", "0.5", "1.5", "2.999999",
               "3", "1e-300", "0.999999999999", "-0.999999999999", "1.0000000000001"]
_TINY = make_panel(np.random.default_rng(1).standard_normal((2, 30)))
_BAND = portfolio.MCBand(1.0, 0.1)
_DELTA = spectral.SpectralDelta(0.5, -0.2, -0.2)


def _student_t(nu):
    return synthgen.sample_panel(synthgen.identity_correlation(1), 1, 0,
                                 synthgen.FAMILY_STUDENT_T, nu)


# Each real-valued flag: (its text for one value, the library entry point
# taking that value) for every position a value can take in the flag.
_REAL_FLAGS = {
    "--rho-bar": [("{}", lambda v: corrdist.CorrParams(v, 50))],
    "--alpha": [("{}", lambda v: stationarity.global_scan(_TINY, (10,), (v,)))],
    "--family": [("student-t:{}", _student_t)],
    "--mc": [("student-t:{}", _student_t)],
    "--band-sigmas": [("{}", lambda v: portfolio.flag_band_violations([], _BAND, v))],
    "--thresholds": [("{},0,0", lambda v: spectral.co_occurrence_flag(_DELTA, (v, 0, 0))),
                     ("0,{},0", lambda v: spectral.co_occurrence_flag(_DELTA, (0, v, 0))),
                     ("0,0,{}", lambda v: spectral.co_occurrence_flag(_DELTA, (0, 0, v)))],
}


def _accepts(call, value):
    try:
        call(value)
    except (argparse.ArgumentTypeError, ValueError, InvalidParameter):
        return False
    return True


def test_every_real_flag_accepts_exactly_what_its_library_rule_accepts():
    options = [(flag, convert) for _, flag, convert in _typed_options()
               if convert.__name__ == "float" or convert is cli._family]
    assert {flag for flag, _ in options} == set(_REAL_FLAGS)
    for flag, convert in options:
        for template, call in _REAL_FLAGS[flag]:
            verdicts = {text: _accepts(call, float(text)) for text in _REAL_TEXTS}
            assert set(verdicts.values()) == {True, False}, (flag, template)
            for text, accepted in verdicts.items():
                assert _accepts(convert, template.format(text)) == accepted, (flag, template, text)
