"""The map over a scan's pairs, run in order on the calling thread.

`threads` is validated and otherwise changes nothing: a thread pool made
the pair loop slower under the GIL, so every item runs in input order on
the caller's thread.  The map stays a named function so a tracer can wrap
it and its items.
"""
from __future__ import annotations

from .errors import checked_int


def resolve_threads(threads) -> int:
    """threads as an int >= 1."""
    return checked_int("threads", threads, 1)


def parallel_map(fn, items, threads=1):
    """[fn(x) for x in items] once threads is validated."""
    resolve_threads(threads)
    return [fn(item) for item in items]
