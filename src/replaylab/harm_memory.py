"""Persistent environment-side harm memory.

Two region-indexed fields: a decaying harm trace G and a persistent scar H.
Delayed harm is attributed uniformly over the causal sensitive nodes; scars
grow where the trace exceeds a threshold and decay at rate delta (delta = 1
is the irreversible variant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FieldParams", "HarmFields", "attribute_harm", "update_scar"]


@dataclass(frozen=True)
class FieldParams:
    lam: float = 0.1        # trace decay rate, in (0,1)
    alpha: float = 0.5      # injection gain
    eta: float = 0.05       # scar growth rate
    tau: float = 0.3        # scar threshold on the trace
    delta: float = 1.0      # scar retention, 1.0 = irreversible
    delay: int = 50         # harm delay D in steps

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lam must lie in (0, 1)")
        if self.alpha <= 0 or self.eta <= 0 or self.tau <= 0:
            raise ValueError("alpha, eta, tau must be positive")
        if not (0.95 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0.95, 1]")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")


@dataclass
class HarmFields:
    """Trace G and scar H over regions: [N], or [B, N] for B copies."""

    G: np.ndarray
    H: np.ndarray
    params: FieldParams

    @classmethod
    def zeros(cls, regions, params: FieldParams | None = None) -> "HarmFields":
        """Zero fields over `regions` regions, or of shape (B, N)."""
        params = params or FieldParams()
        return cls(G=np.zeros(regions), H=np.zeros(regions), params=params)

    def top_scars(self):
        """The 10 largest H values along the regions axis (per copy for B
        copies): their regions, by stable argsort of -H, the values, and
        how many are positive. The values descend, so the scars come first."""
        top = np.argsort(-self.H, axis=-1, kind="stable")[..., :10]
        values = np.take_along_axis(self.H, top, axis=-1)
        return top, values, (values > 0).sum(axis=-1)

    def summary(self) -> dict:
        top, values, count = self.top_scars()
        scars = zip(top[:count].tolist(), values[:count].tolist())
        return {
            "g_sum": float(self.G.sum()),
            "h_sum": float(self.H.sum()),
            "top_scar_regions": [[r, v] for r, v in scars],
        }


def attribute_harm(fields: HarmFields, harm, causal_regions) -> HarmFields:
    """Decay the trace and inject attributed harm.

    G'_r = (1 - lam) G_r + alpha * harm * w(r) with w uniform on the causal
    set; an empty causal set gives pure decay. For the fields of B copies
    (G of shape (B, N)) `harm` holds one value per copy and
    `causal_regions` flat indices b*N + r. Returns a new HarmFields.
    """
    harm = np.asarray(harm, dtype=float).ravel().tolist()
    if not all(0.0 <= h <= 1.0 for h in harm):
        raise ValueError("harm must lie in [0, 1]")
    p = fields.params
    causal = np.asarray(causal_regions, dtype=int)
    g = (1.0 - p.lam) * fields.G
    if causal.size or any(harm):
        copy = causal // fields.G.shape[-1]
        per_copy = np.bincount(copy, minlength=len(harm)).tolist()
        if any(h > 0 and not c for h, c in zip(harm, per_copy)):
            # the delayed-harm formula makes this combination impossible
            raise ValueError("positive harm requires a nonempty causal set")
        weight = [p.alpha * h / max(c, 1) for h, c in zip(harm, per_copy)]
        g.ravel()[causal] += np.array(weight)[copy]
    return HarmFields(G=g, H=fields.H.copy(), params=p)


def update_scar(fields: HarmFields) -> HarmFields:
    """H'_r = delta * H_r + eta * max(0, G_r - tau). Returns a new HarmFields."""
    p = fields.params
    h = p.delta * fields.H + p.eta * np.maximum(0.0, fields.G - p.tau)
    return HarmFields(G=fields.G.copy(), H=h, params=p)
