"""In-process span tracing of corrstat's public functions, from outside.

A Tracer wraps every public function of every corrstat module at every
module namespace that binds it (modules import names directly, so
``stationarity.rho_cdf`` is patched as well as ``corrdist.rho_cdf``), and
records one span per call: (id, name, start, end, parent, thread, op).
The ``fn`` handed to ``parallel_map`` is wrapped too, so each item gets a
``parallel.item`` span whose parent is the map's span on the calling
thread, and the item's thread CPU time is kept: a pool item waiting for
the GIL takes wall time but no CPU time.  Spans stay in memory;
``restore`` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import defaultdict

ITEM = "parallel.item"
MAP = "parallel.parallel_map"
CDF = "corrdist.rho_cdf"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, op)
        self.op = 0
        self.map_threads = {}  # parallel_map span id -> resolved thread count
        self.cdf_keys = []  # (op, key) per rho_cdf call
        self.item_cpu = []  # (op, thread CPU seconds) per parallel_map item
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []  # (namespace, attribute, original)
        self._cdf_key = None
        self._resolve_threads = None
        self._invalid = None

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), self.op))

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------ patching

    def _wrap(self, name, fn):
        if name == MAP:
            @functools.wraps(fn)
            def traced_map(map_fn, items, threads=1):
                def body(map_fn, items, threads):
                    sid = self.current()
                    try:
                        self.map_threads[sid] = self._resolve_threads(threads)
                    except self._invalid:  # parallel_map raises it below
                        pass

                    def item(x):
                        cpu = time.thread_time()
                        try:
                            return self.call(ITEM, map_fn, (x,), {}, parent=sid)
                        finally:
                            self.item_cpu.append((self.op, time.thread_time() - cpu))

                    return fn(item, items, threads)

                return self.call(name, body, (map_fn, items, threads), {})
            return traced_map

        if name == CDF:
            @functools.wraps(fn)
            def traced_cdf(*args, **kwargs):
                params = kwargs["params"] if "params" in kwargs else args[1]
                self.cdf_keys.append((self.op, self._cdf_key(params)))
                return self.call(name, fn, args, kwargs)
            return traced_cdf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self, package):
        """Wrap the package's public functions wherever a module binds them."""
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        corrdist = importlib.import_module(f"{package.__name__}.corrdist")
        parallel = importlib.import_module(f"{package.__name__}.parallel")
        errors = importlib.import_module(f"{package.__name__}.errors")
        # The table key corrdist caches CDF tables under; exact params if it has none.
        self._cdf_key = getattr(corrdist, "_cdf_key", lambda p: (p.rho_bar, p.n_obs))
        self._resolve_threads = parallel.resolve_threads
        self._invalid = errors.CorrstatError
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(package.__name__ + "."):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------- analysis

def self_times(spans):
    """name -> (calls, total self seconds).

    Self time is a span's duration minus the durations of its direct
    children that ran on the same thread; children on other threads (pool
    items) overlap their parent instead of being nested in it.
    """
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for sid, _, start, end, parent, thread, _ in spans:
        p = by_id.get(parent)
        if p is not None and p[5] == thread:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0])
    for sid, name, start, end, _, _, _ in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - child[sid]
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


def parallel_stats(spans, map_threads, item_cpu):
    """Items, item CPU time, map wall time and CPU / (threads x map wall)."""
    items = [s for s in spans if s[1] == ITEM]
    maps = [s for s in spans if s[1] == MAP]
    busy = sum(item_cpu)
    wall = sum(s[3] - s[2] for s in maps)
    capacity = sum(map_threads.get(s[0], 1) * (s[3] - s[2]) for s in maps)
    return {
        "items": len(items),
        "item_busy_s": busy,
        "map_wall_s": wall,
        "efficiency": busy / capacity if capacity > 0 else 0.0,
    }
