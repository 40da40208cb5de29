"""Order-preserving thread map.

Determinism never depends on scheduling: every randomized task derives
its own substream (rngutil) and results are collected in input order,
so any worker count produces identical output.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidParameter


def resolve_threads(threads) -> int:
    """threads as an int >= 1."""
    try:
        threads = int(threads)
    except (TypeError, ValueError):
        raise InvalidParameter(f"threads must be an integer, got {threads!r}") from None
    if threads < 1:
        raise InvalidParameter(f"threads must be >= 1, got {threads}")
    return threads


def parallel_map(fn, items, threads=1):
    """[fn(x) for x in items], fanned out over threads, order preserved."""
    items = list(items)
    threads = resolve_threads(threads)
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
