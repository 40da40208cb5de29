"""Tests of the benchmark itself: self time, failed-op accounting, tracer restore.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GLOBAL = workloads.WORKLOADS["global-heavy-tail"]


# ---------------------------------------------------------------- self time

def test_self_time_on_a_known_tree():
    # a [0, 10] on thread 1 has children b [1, 4] and c [5, 6] on thread 1,
    # b has child d [2, 3]; e [0, 9] is a's child on thread 2 (a pool item).
    spans = [
        (1, "a", 0.0, 10.0, None, 1, 0),
        (2, "b", 1.0, 4.0, 1, 1, 0),
        (3, "d", 2.0, 3.0, 2, 1, 0),
        (4, "c", 5.0, 6.0, 1, 1, 0),
        (5, "e", 0.0, 9.0, 1, 2, 0),
        (6, "c", 1.0, 2.5, 5, 2, 0),
    ]
    got = tracing.self_times(spans)
    assert got["a"] == (1, 10.0 - 3.0 - 1.0)
    assert got["b"] == (1, 3.0 - 1.0)
    assert got["d"] == (1, 1.0)
    assert got["c"] == (2, 1.0 + 1.5)
    assert got["e"] == (1, 9.0 - 1.5)


def test_tracer_spans_nest_per_thread_and_items_cross_threads():
    tracer = tracing.Tracer()
    done = threading.Event()

    def leaf():
        return 1

    def worker(parent):
        tracer.call("item", lambda: tracer.call("leaf", leaf, (), {}), (), {}, parent=parent)
        done.set()

    def root():
        t = threading.Thread(target=worker, args=(tracer.current(),))
        t.start()
        tracer.call("leaf", leaf, (), {})
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.call("root", root, (), {})
    assert done.is_set()
    spans = {s[1] + str(s[5] == threading.get_ident()): s for s in tracer.spans}
    root_span, item = spans["rootTrue"], spans["itemFalse"]
    main_leaf, item_leaf = spans["leafTrue"], spans["leafFalse"]
    assert item[4] == root_span[0] and main_leaf[4] == root_span[0]
    assert item_leaf[4] == item[0]
    got = tracing.self_times(tracer.spans)
    dur = lambda s: s[3] - s[2]  # noqa: E731
    assert got["root"][1] == pytest.approx(dur(root_span) - dur(main_leaf), abs=1e-12)
    assert got["item"][1] == pytest.approx(dur(item) - dur(item_leaf), abs=1e-12)


# ---------------------------------------------------------------- failed ops

def _global_report(fraction=0.25):
    cells = [
        {"T_w": w, "alpha": a, "fraction": fraction, "denominator": 10,
         "control_fractions": {"mc": 0.0, "reshuffle": 0.5}}
        for w in (25, 50, 100) for a in (0.01, 0.05, 0.1)
    ]
    return {"command": "global-scan", "params": {"n_pairs": 10}, "cells": cells, "skipped": []}


def test_perturbed_fraction_fails_the_reference_check():
    ref = workloads.summary(_global_report())
    good = json.dumps(_global_report()).encode()
    assert workloads.check_report(GLOBAL, 0, good, ref) == []
    perturbed = _global_report()
    perturbed["cells"][4]["fraction"] = 0.3
    assert workloads.check_report(GLOBAL, 0, json.dumps(perturbed).encode(), ref)


def test_structure_check_rejects_skips_and_short_denominators():
    report = _global_report()
    report["skipped"] = [{"pair": [0, 1], "error": "NumericsError"}]
    assert workloads.check_report(GLOBAL, 0, json.dumps(report).encode())
    report = _global_report()
    report["cells"][0]["denominator"] = 9
    assert workloads.check_report(GLOBAL, 0, json.dumps(report).encode())
    assert workloads.check_report(GLOBAL, 0, b"{not json")


_FAKE_CLI = """
import os, sys
if os.environ["FAKE_MODE"] == "exit":
    print("error: InvalidParameter: broken", file=sys.stderr)
    sys.exit(1)
sys.stdout.write(open(os.environ["FAKE_REPORT"]).read())
"""


@pytest.fixture
def fake_bench(tmp_path):
    """A Bench on a checkout whose corrstat CLI prints a canned report or fails."""
    package = tmp_path / "src" / "corrstat"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(_FAKE_CLI)
    bench = run.Bench(tmp_path, GLOBAL, workloads.DEFAULT_SEED, 1.0)
    bench.work = tmp_path / "work"
    bench.work.mkdir()
    bench.panel = "panel.csv"
    bench.reference = [workloads.summary(_global_report())]
    return bench


def _run_fake(bench, mode, report):
    path = bench.work / "canned.json"
    path.write_text(json.dumps(report))
    bench.env.update(FAKE_MODE=mode, FAKE_REPORT=str(path))
    return bench.run_op(2)


def test_ops_fail_on_perturbed_report_and_nonzero_exit(fake_bench):
    assert _run_fake(fake_bench, "report", _global_report()).ok
    perturbed = _global_report()
    perturbed["cells"][0]["control_fractions"]["mc"] = 0.1
    op = _run_fake(fake_bench, "report", perturbed)
    assert not op.ok and "reference" in op.errors[0]
    op = _run_fake(fake_bench, "exit", _global_report())
    assert not op.ok and "exited with 1" in op.errors[0] and "broken" in op.errors[0]


def test_timed_run_counts_failed_ops(fake_bench):
    fake_bench.env.update(FAKE_MODE="exit", FAKE_REPORT="unused")
    fake_bench.time_import = lambda: 0.1
    ops, metrics, _, _ = fake_bench.timed_run()
    assert len(ops) >= 2 and all(not op.ok for op in ops)
    assert set(metrics) == set(run.END_TO_END)


# ---------------------------------------------------------------- tracing

def _bindings():
    import corrstat
    import pkgutil
    import importlib

    mods = [importlib.import_module(f"corrstat.{m.name}")
            for m in pkgutil.iter_modules(corrstat.__path__)]
    return corrstat, {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    corrstat, before = _bindings()
    from corrstat import corrdist, stationarity

    original = corrdist.rho_cdf
    tracer = tracing.Tracer()
    tracer.install(corrstat)
    try:
        assert corrdist.rho_cdf is not original
        assert stationarity.rho_cdf is corrdist.rho_cdf
        assert stationarity.parallel_map is not before[("corrstat.parallel", "parallel_map")]
    finally:
        tracer.restore()
    _, after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_scan_records_calls_through_importing_modules():
    corrstat, _ = _bindings()
    from corrstat import dataio, stationarity

    rng = np.random.default_rng(3)
    returns = rng.standard_normal((3, 300))
    panel = dataio.ReturnPanel(("A", "B", "C"), tuple(map(str, range(300))), returns)
    tracer = tracing.Tracer()
    tracer.install(corrstat)
    try:
        stationarity.global_scan(panel, [50], pairs=None, threads=2)
    finally:
        tracer.restore()
    selfs = tracing.self_times(tracer.spans)
    assert selfs["corrdist.rho_cdf"][0] == 3  # one per pair, seen via stationarity
    assert selfs[tracing.ITEM][0] == 3
    stats = tracing.parallel_stats(tracer.spans, tracer.map_threads,
                                   [cpu for _, cpu in tracer.item_cpu])
    assert stats["items"] == 3 and 0.0 < stats["efficiency"] <= 1.0
    assert len({key for _, key in tracer.cdf_keys}) <= 3


# ---------------------------------------------------------------- contract

def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_seed():
    a = workloads.one_factor_returns(GLOBAL, 5)
    assert np.array_equal(a, workloads.one_factor_returns(GLOBAL, 5))
    assert not np.array_equal(a, workloads.one_factor_returns(GLOBAL, 6))
    assert a.shape == (GLOBAL.n_series, GLOBAL.n_steps)
