"""Deterministic substream RNG helpers.

Every stochastic component in the library draws from a generator produced
here. Streams are identified by a tuple of nonnegative integers so that
results are independent of worker count and execution order.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

__all__ = ["substream", "categorical", "categorical_rows"]


def substream(*key: int) -> np.random.Generator:
    """Return a PCG64 generator for the given integer key tuple.

    Identical keys always yield identical streams.
    """
    if any(k < 0 for k in key):
        raise ValueError(f"stream key must be nonnegative, got {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def categorical(p, rng: np.random.Generator) -> int:
    """Draw an index from the probabilities `p` with one uniform, exactly
    as `rng.choice(len(p), p=p)` draws it, in Python floats (its argument
    checks cost more than a scripted policy's evaluation)."""
    cdf = list(accumulate(p))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


def categorical_rows(p: np.ndarray, rngs) -> np.ndarray:
    """`categorical` of each row of the (B, K) probabilities `p`, row b
    with one uniform from `rngs[b]`: the count of the row's CDF entries
    (cumsum, then divided by its last entry) that are <= the uniform. Row
    b picks what `categorical(p[b].tolist(), rngs[b])` picks, and leaves
    `rngs[b]` where it leaves it."""
    u = np.array([r.random() for r in rngs])[:, None]
    cdf = np.add.accumulate(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.add.reduce(cdf <= u, axis=1)
