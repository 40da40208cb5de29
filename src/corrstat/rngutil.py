"""Seed-substream derivation shared by every randomized component.

Philox is counter-based, so per-(seed, label, index) substreams are
independent and reproducible regardless of execution order or thread count.
String labels are hashed into stable integers so call sites read clearly.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParameter


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise InvalidParameter(f"substream index must be a non-negative integer, got {label}")
        return int(label)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Generator on an independent substream keyed by (seed, *stream); seed >= 0."""
    seed = int(seed)
    if seed < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed}")
    entropy = (seed,) + tuple(_label_to_int(s) for s in stream)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
