"""The map over a scan's pairs, run in order on the calling thread.

`threads` is validated and otherwise changes nothing: a thread pool made
the pair loop slower under the GIL, so every item runs in input order on
the caller's thread.  The map stays a named function so a tracer can wrap
it and its items.
"""
from __future__ import annotations

from collections.abc import Callable

from .errors import checked_int, checked_iter, checked_type


def resolve_threads(threads) -> int:
    """threads as an int >= 1."""
    return checked_int("threads", threads, 1)


def parallel_map(fn, items, threads=1):
    """[fn(x) for x in items] once threads, the callable fn and the collection items are
    validated; items are read one at a time, so only fn's results are held."""
    resolve_threads(threads)
    fn = checked_type("fn", fn, Callable)
    return [fn(item) for item in checked_iter("items", items)]
