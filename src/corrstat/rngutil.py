"""Seed-substream derivation shared by every randomized component.

Philox is counter-based, so per-(seed, label, index) substreams are
independent and reproducible regardless of execution order or thread count.
Each substream is named by one string label, hashed into a stable
integer so call sites read clearly, and numbered by its integer indices;
a seed or an index must be a non-negative integer (checked_int), so a
string replica is refused rather than hashed into another stream.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import checked_int


def rng_for(seed: int, label: str, *indices) -> np.random.Generator:
    """Generator on an independent substream keyed by (seed, label, *indices).

    The label is hashed; seed and each index must be integers >= 0.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    entropy = ((int(checked_int("seed", seed, 0)), int.from_bytes(digest[:8], "big"))
               + tuple(int(checked_int("substream index", i, 0)) for i in indices))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
