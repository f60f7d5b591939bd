"""Deterministic substream RNG helpers.

Every stochastic component in the library draws from a generator produced
here. Streams are identified by a tuple of nonnegative integers so that
results are independent of worker count and execution order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "categorical_rows"]


def substream(*key: int) -> np.random.Generator:
    """Return a PCG64 generator for the given integer key tuple.

    Identical keys always yield identical streams.
    """
    if any(k < 0 for k in key):
        raise ValueError(f"stream key must be nonnegative, got {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def categorical_rows(p: np.ndarray, rngs) -> np.ndarray:
    """Draw an index from each row of the (B, K) probabilities `p`, row b
    with one uniform from `rngs[b]`: the count of the row's CDF entries
    (cumsum, then divided by its last entry) that are <= the uniform, as
    `rngs[b].choice(K, p=p[b])` picks it."""
    u = np.array([r.random() for r in rngs])[:, None]
    cdf = np.add.accumulate(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.add.reduce(cdf <= u, axis=1)
