"""Counter-based random streams.

Every stochastic component of the library draws from a stream keyed by
(master seed, stream label, counter indices).  Streams with different keys
are statistically independent and each one is fully reproducible, so the
order in which components consume randomness (or whether they run at all,
e.g. optional tracing) cannot perturb anything else.
"""
from __future__ import annotations

import zlib

import numpy as np

from .objectives import _check_int

__all__ = ["substream"]


def substream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Return the generator for the stream keyed by (seed, label, *indices).

    The same key always yields a generator producing the identical output
    sequence.  The label is hashed with CRC-32 so keys are stable across
    processes and platforms (unlike the builtin ``hash``).  The seed and
    indices are non-negative integers; a float or bool raises ValueError
    rather than being truncated to another key.
    """
    seed = _check_int("seed", seed, 0)
    key = [zlib.crc32(label.encode("utf-8"))]
    for i in indices:
        key.append(_check_int("stream index", i, 0))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)
