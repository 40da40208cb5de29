"""corrstat benchmark: one closed-loop client running corrstat CLI ops.

Run from the root of a corrstat checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op runs every corrstat invocation of its workload in a fresh process
(``python -m corrstat.cli`` on the checkout's ``src``), as a user runs it,
so every op pays interpreter start-up, imports and a cold CDF-table cache.
The next op starts only after the previous one ends.

--trace 0 prints the end-to-end metrics: median op wall time, CPU time
(user + sys from wait4) and peak RSS, and the median time of a fresh
``import corrstat.cli``.  --trace 1 prints per-layer metrics from a
separate run: spans recorded in-process around corrstat's public
functions (tracing.py), the rusage of one untimed op, and the tracing
overhead.  Every op's reports are checked (workloads.py); a threads=1 op
must give reports byte-identical to the threads=2 ones.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it records inputs and environment.
``--write-reference`` records the reference numbers for --seed instead.
"""
from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every
# child: on a 2-core machine, unpinned OpenBLAS threading made qscan wall
# time vary twofold.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CORRSTAT_TIMESTAMP": "perfbench",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)
os.environ.pop("CORRSTAT_THREADS", None)  # every op passes --threads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
THREADS = 2
SETUP_SAMPLES = 4  # before the ops; one more follows each op
RUN_DEADLINE_S = 170.0  # every run must exit within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: "<module>.<function>.calls" / ".self_s" come from spans.
_CALLS_AND_SELF = (
    "corrdist.rho_logdensity", "corrdist.rho_cdf", "corrdist.pearson",
    "stationarity.local_test", "stationarity.cumulative_corr",
    "dataio.load_price_panel", "portfolio.covariance_matrix",
    "portfolio.min_variance_weights", "synthgen.cholesky",
    "synthgen.sample_gaussian_panel", "spectral.eig_sym", "corrdist.corr_matrix",
)
_SELF_ONLY = (
    "stationarity.global_test", "stationarity.ks_statistic", "stationarity.ks_pvalue",
    "dataio.synchronous_reshuffle", "portfolio.q_series", "portfolio.mc_band",
    "synthgen.sample_estimate_as_truth", "spectral.spectral_snapshot",
)
PER_LAYER = {
    **{f"{f}.calls": "count" for f in _CALLS_AND_SELF},
    **{f"{f}.self_s": "s" for f in _CALLS_AND_SELF + _SELF_ONLY},
    "corrdist.cdf_keys_distinct": "count",
    "corrdist.cdf_reuse_ratio": "ratio",
    "process.minor_faults": "count",
    "process.sys_s": "s",
    "parallel.parallel_map.calls": "count",
    "parallel.items": "count",
    "parallel.item_busy_s": "s",
    "parallel.map_wall_s": "s",
    "parallel.efficiency": "ratio",
    "cli.main.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One workload op: every invocation's wall, rusage, report and errors."""

    threads: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    sys_s: float = 0.0
    peak_rss_mb: float = 0.0
    minor_faults: int = 0
    reports: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class Bench:
    def __init__(self, root: Path, workload: workloads.Workload, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = HERE / "_work" / workload.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reference = None
        ref_path = HERE / "refs" / f"{workload.name}.json"
        if ref_path.is_file():
            ref = json.loads(ref_path.read_text())
            if ref["seed"] == seed:
                self.reference = ref["summaries"]
        self.panel = None
        self.inputs = {}

    # ------------------------------------------------------------ inputs

    def write_inputs(self):
        returns = workloads.one_factor_returns(self.workload, self.seed)
        path = self.work / "panel.csv"
        size = workloads.write_panel(returns, path)
        self.panel = str(path.relative_to(self.root))
        self.inputs = {
            "family": self.workload.family,
            "n_series": self.workload.n_series,
            "n_steps": self.workload.n_steps,
            "csv_bytes": size,
        }

    # ------------------------------------------------------------ processes

    def spawn(self, argv, stdout_path):
        """Run argv to completion; (exit code, wall seconds, rusage, stderr tail)."""
        err_path = self.work / "stderr.txt"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        return proc.returncode, wall, usage, " ".join(tail)

    def run_op(self, threads: int) -> Op:
        op = Op(threads)
        for index, argv in enumerate(self.workload.argvs(self.panel, threads)):
            out_path = self.work / f"report-{index}.json"
            code, wall, usage, tail = self.spawn(
                [sys.executable, "-m", "corrstat.cli", *argv], out_path
            )
            op.wall_s += wall
            op.cpu_s += usage.ru_utime + usage.ru_stime
            op.sys_s += usage.ru_stime
            op.peak_rss_mb = max(op.peak_rss_mb, usage.ru_maxrss / 1024.0)
            op.minor_faults += usage.ru_minflt
            if code != 0:
                op.errors.append(f"{argv[0]} exited with {code}: {tail}")
                break
            self.check(op, index, out_path.read_bytes())
        return op

    def check(self, op: Op, index: int, text: bytes):
        op.reports.append(text)
        ref = self.reference[index] if self.reference else None
        op.errors += workloads.check_report(self.workload, index, text, ref)

    def time_import(self) -> float:
        code, wall, _, tail = self.spawn(
            [sys.executable, "-c", "import corrstat.cli"], self.work / "import.out"
        )
        if code != 0:
            raise SystemExit(f"perfbench: import corrstat.cli failed: {tail}")
        return wall

    def closed_loop(self, run_one):
        """Run ops back to back for about --seconds: the next op starts only
        when the median op so far still fits (at least one op)."""
        ops, walls = [], []
        start = time.monotonic()
        while not ops or (
            time.monotonic() - start + statistics.median(walls) <= self.seconds
            and time.monotonic() + max(walls) < self.deadline
        ):
            t0 = time.monotonic()
            ops.append(run_one())
            walls.append(time.monotonic() - t0)
        return ops

    @staticmethod
    def check_identical(ops, base: Op, what: str):
        for op in ops:
            if op.ok and base.ok and op.reports != base.reports:
                op.errors.append(f"reports differ from the first threads={base.threads} op ({what})")

    # ------------------------------------------------------------ runs

    def timed_run(self):
        # Import timings are spread over the run so that its median sees the
        # same machine conditions as the ops.
        setup = [self.time_import() for _ in range(SETUP_SAMPLES)]
        single = self.run_op(1)

        def op_then_import():
            op = self.run_op(THREADS)
            setup.append(self.time_import())
            return op

        ops = self.closed_loop(op_then_import)
        self.check_identical(ops[1:], ops[0], "repeat")
        self.check_identical([single], ops[0], "threads 1 vs 2")
        metrics = {
            "wall_s": statistics.median(op.wall_s for op in ops),
            "cpu_s": statistics.median(op.cpu_s for op in ops),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
            "setup_s": statistics.median(setup),
        }
        info = {"op_wall_s": [op.wall_s for op in ops], "setup_s": setup,
                "threads1_wall_s": single.wall_s}
        return [single, *ops], metrics, END_TO_END, info

    def in_process_op(self, cli, corrdist) -> Op:
        """The op through cli.main in this process, after clearing the CDF cache."""
        op = Op(THREADS)
        clear = getattr(corrdist, "clear_cdf_cache", None)
        if clear is not None:
            clear()
        start = time.perf_counter()
        for index, argv in enumerate(self.workload.argvs(self.panel, THREADS)):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                op.errors.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
                break
            if code != 0:
                op.errors.append(f"{argv[0]} returned {code}")
                break
            self.check(op, index, buf.getvalue().encode("utf-8"))
        op.wall_s = time.perf_counter() - start
        return op

    def traced_run(self):
        untimed = self.run_op(THREADS)
        single = self.run_op(1)
        self.check_identical([single], untimed, "threads 1 vs 2")
        sys.path.insert(0, str(self.root / "src"))
        import corrstat
        from corrstat import cli, corrdist

        tracer = tracing.Tracer()
        # The first op in a process grows its heap and fills lazy caches;
        # keep that out of the plain/traced comparison.
        warm = self.in_process_op(cli, corrdist)
        plain, traced = [], []

        def traced_op():
            tracer.install(corrstat)
            try:
                return self.in_process_op(cli, corrdist)
            finally:
                tracer.restore()
                tracer.op += 1

        def pair():
            # Alternate the order so that neither side always runs second.
            if len(plain) % 2:
                traced.append(traced_op())
                plain.append(self.in_process_op(cli, corrdist))
            else:
                plain.append(self.in_process_op(cli, corrdist))
                traced.append(traced_op())

        self.closed_loop(pair)
        self.check_identical([warm, *plain, *traced], untimed, "in-process vs subprocess")
        metrics, info = layer_metrics(tracer, untimed, plain, traced)
        self.write_spans(tracer)
        return [untimed, single, warm, *plain, *traced], metrics, PER_LAYER, info

    def write_spans(self, tracer):
        names = sorted({s[1] for s in tracer.spans})
        threads = sorted({s[5] for s in tracer.spans})
        t0 = min((s[2] for s in tracer.spans), default=0.0)
        index, tindex = {n: i for i, n in enumerate(names)}, {t: i for i, t in enumerate(threads)}
        rows = [
            [sid, index[name], round((start - t0) * 1e6), round((end - t0) * 1e6),
             parent, tindex[thread], op]
            for sid, name, start, end, parent, thread, op in tracer.spans
        ]
        doc = {"columns": ["id", "name", "start_us", "end_us", "parent", "thread", "op"],
               "names": names, "spans": rows}
        with open(self.work / "spans.json", "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer, untimed: Op, plain, traced):
    """Per-layer values, medians over the traced ops; counts repeat exactly."""
    per_op = []
    for k in range(len(traced)):
        spans = [s for s in tracer.spans if s[6] == k]
        selfs = tracing.self_times(spans)
        par = tracing.parallel_stats(
            spans, tracer.map_threads, [cpu for op, cpu in tracer.item_cpu if op == k]
        )
        keys = [key for op, key in tracer.cdf_keys if op == k]
        values = {}
        for name in _CALLS_AND_SELF:
            values[f"{name}.calls"] = selfs.get(name, (0, 0.0))[0]
        for name in _CALLS_AND_SELF + _SELF_ONLY:
            values[f"{name}.self_s"] = selfs.get(name, (0, 0.0))[1]
        values["corrdist.cdf_keys_distinct"] = len(set(keys))
        values["corrdist.cdf_reuse_ratio"] = 1.0 - len(set(keys)) / len(keys) if keys else 0.0
        values["parallel.parallel_map.calls"] = selfs.get(tracing.MAP, (0, 0.0))[0]
        values.update({f"parallel.{k2}": v for k2, v in par.items()})
        values["cli.main.wall_s"] = sum(s[3] - s[2] for s in spans if s[1] == "cli.main")
        per_op.append((values, selfs))
    metrics = {name: statistics.median(v[name] for v, _ in per_op) for name in per_op[0][0]}
    metrics["process.minor_faults"] = untimed.minor_faults
    metrics["process.sys_s"] = untimed.sys_s
    metrics["trace.overhead_s"] = (
        statistics.median(op.wall_s for op in traced) - statistics.median(op.wall_s for op in plain)
    )
    selfs = per_op[-1][1]
    # The pool's own self time is the caller waiting for its items, not work.
    ranked = sorted(((n, v) for n, v in selfs.items() if not n.startswith("parallel.")),
                    key=lambda kv: -kv[1][1])
    modules = {}
    for name, (_, secs) in ranked:
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + secs
    modules = sorted(modules.items(), key=lambda kv: -kv[1])
    info = {
        "dominant_layer": ranked[0][0] if ranked else None,
        "dominant_module": modules[0][0] if modules else None,
        "self_s_top": {name: round(secs, 4) for name, (_, secs) in ranked[:6]},
        "self_s_by_module": {m: round(secs, 4) for m, secs in modules},
        "cli_main_wall_s": per_op[-1][0]["cli.main.wall_s"],
        "op_wall_s": {"untraced": [op.wall_s for op in plain], "traced": [op.wall_s for op in traced]},
        "spans": len(tracer.spans),
    }
    return metrics, info


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "pinned_env": PINNED_ENV,
        "threads": THREADS,
    }


def write_reference(bench: Bench):
    op = bench.run_op(THREADS)
    if not op.ok:
        raise SystemExit(f"perfbench: reference op failed: {op.errors}")
    summaries = [workloads.summary(json.loads(text)) for text in op.reports]
    path = HERE / "refs" / f"{bench.workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": bench.seed, "summaries": summaries}, indent=1) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference numbers for --seed and exit")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "corrstat" / "cli.py").is_file():
        print(f"perfbench: no corrstat sources under {root / 'src'}; "
              "run from the root of a corrstat checkout", file=sys.stderr)
        return 2
    bench = Bench(root, workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    bench.time_import()  # compiles the bytecode once, like an install would
    bench.write_inputs()
    if args.write_reference:
        write_reference(bench)
        return 0
    ops, metrics, units, info = (bench.traced_run if args.trace else bench.timed_run)()
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": bench.inputs, "environment": environment(), **info,
        "errors": [e for op in ops for e in op.errors][:10],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
