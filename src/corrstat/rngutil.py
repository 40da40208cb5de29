"""Seed-substream derivation shared by every randomized component.

Philox is counter-based, so per-(seed, label, index) substreams are
independent and reproducible regardless of execution order or thread count.
String labels are hashed into stable integers so call sites read clearly;
a seed or any other label must be a non-negative integer (checked_int).
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import checked_int


def _label_to_int(label) -> int:
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    return int(checked_int("substream index", label, 0))


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Generator on an independent substream keyed by (seed, *stream); seed >= 0."""
    entropy = (int(checked_int("seed", seed, 0)),) + tuple(map(_label_to_int, stream))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
