import hashlib
import json

import pytest

from corrstat import __version__, cli


def run(argv):
    return cli.main(argv)


def simulate_panel(tmp_path, n=5, t=150, name="panel.csv", seed=4):
    path = tmp_path / name
    rc = run(["simulate", "--family", "gaussian", "--corr", f"equicorr:{n}:0.3",
              "--T", str(t), "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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


def test_unknown_recipe():
    with pytest.raises(SystemExit) as err:
        run(["reproduce", "nope"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["local-scan", "--input", "x.csv", "--t1", "abc"],
     "error: argument --t1: invalid int value: 'abc'"),
    (["density", "--rho-bar", "0.2", "--T", "x"],
     "error: argument --T: invalid int value: 'x'"),
    (["density", "--rho-bar", "0.2", "--T", "50", "--grid", "1.5"],
     "error: argument --grid: invalid int value: '1.5'"),
    (["local-scan", "--input", "x.csv", "--t1", "30", "--input-kind", "bonds"],
     "error: argument --input-kind: invalid choice: 'bonds'"),
])
def test_bad_flag_value_is_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
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
    vols.write_text("ticker,vol\nS0,1.0\nS1,2.0\nS2,1.5\n")
    rc = run(["qscan", "--input", str(panel), "--input-kind", "returns",
              "--t1", "20", "--t2", "20", "--replicas", "30",
              "--volatilities", str(vols), "--out", str(tmp_path / "q.json")])
    assert rc == 2
    assert "--volatilities" in capsys.readouterr().err


def test_qscan_usage_errors(tmp_path, capsys):
    panel = simulate_panel(tmp_path, n=5, t=100)
    base = ["qscan", "--input", str(panel), "--input-kind", "returns"]
    assert run(base + ["--t1", "4", "--t2", "20"]) == 2
    assert "--t1" in capsys.readouterr().err
    assert run(base + ["--t1", "20", "--t2", "20", "--replicas", "10"]) == 2
    assert "--replicas" in capsys.readouterr().err
    assert run(base + ["--t1", "20", "--t2", "20", "--n-stocks", "9"]) == 2
    assert "--n-stocks" in capsys.readouterr().err


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


def test_bad_thread_count_is_a_usage_error(tmp_path, capsys, monkeypatch):
    panel = simulate_panel(tmp_path, n=4, t=100)
    base = ["--input", str(panel), "--input-kind", "returns"]
    commands = (["local-scan", "--t1", "30", "--tau", "10"],
                ["qscan", "--t1", "20", "--t2", "20", "--replicas", "30"],
                ["spectral", "--window", "20", "--sectors", "1"],
                ["density", "--rho-bar", "0.2", "--T", "50", "--grid", "11"])
    for bad in ("0", "-3", "two", "1.5"):
        for argv in commands:
            assert run(argv + base * (argv[0] != "density") + ["--threads", bad]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --threads must be an integer >= 1, got {bad!r}\n", argv
        monkeypatch.setenv(cli.THREADS_ENV, bad)
        for argv in commands:
            assert run(argv + base * (argv[0] != "density")) == 2
            err = capsys.readouterr().err
            assert err == f"error: CORRSTAT_THREADS must be an integer >= 1, got {bad!r}\n"
        # the flag wins over the variable
        assert run(commands[0] + base + ["--threads", "2"]) == 0
        capsys.readouterr()
        monkeypatch.delenv(cli.THREADS_ENV)


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
