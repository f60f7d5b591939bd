"""Bounded, mass-preserving transition reweighting.

Destination conductance is a clipped exponential of the harm-trace and scar
fields; categorical kernels are reweighted exactly, per-edge Bernoulli
diffusion is gated multiplicatively. Partial-deployment modes (top-k, local)
restrict where the reweighting applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "DeformationSpec",
    "conductance",
    "reweight_categorical",
    "gate_edge_prob",
    "apply_mode",
]

_MODES = ("full", "topk", "local", "off")


@dataclass(frozen=True)
class DeformationSpec:
    """Conductance weights and deployment mode.

    mode is one of "full", "topk", "local", "off". For "topk" the k most
    probable nominal destinations are gated (ties broken by destination
    index); for "local" only destinations whose region is in local_regions.
    """

    w_G: float = 1.0
    w_H: float = 2.0
    psi_min: float = 0.01
    mode: str = "full"
    k: int = 1
    local_regions: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown deformation mode {self.mode!r}")
        if not (0.0 < self.psi_min <= 1.0):
            raise ValueError("psi_min must lie in (0, 1]")
        if self.w_G < 0 or self.w_H < 0:
            raise ValueError("conductance weights must be nonnegative")
        if self.k < 1:
            raise ValueError("topk k must be >= 1")
        if self.mode == "local" and not self.local_regions:
            raise ValueError("local mode requires a nonempty region subset")

    def with_mode(self, mode: str, **kw) -> "DeformationSpec":
        return replace(self, mode=mode, **kw)


def conductance(regions, fields, spec: DeformationSpec) -> np.ndarray:
    """Conductance psi = clip(exp(-w_G*G_r - w_H*H_r), psi_min, 1).

    `regions` may be a scalar index or an array of region indices; the
    result has matching shape. Mode "off" returns ones.
    """
    regions = np.asarray(regions)
    if spec.mode == "off":
        return np.ones(regions.shape, dtype=float)
    expo = -spec.w_G * fields.G[regions] - spec.w_H * fields.H[regions]
    return np.clip(np.exp(expo), spec.psi_min, 1.0)


def reweight_categorical(nominal: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Exact mass-preserving reweighting P(y) = nominal(y)*psi(y) / Z."""
    nominal = np.asarray(nominal, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if nominal.shape != psi.shape:
        raise ValueError("nominal and psi must have matching shapes")
    if abs(nominal.sum() - 1.0) > 1e-12:
        raise ValueError("nominal distribution must sum to 1")
    # .any() rather than np.any(): this runs for every injection row, where
    # np.any's argument handling costs more than the check itself
    if (nominal < 0).any():
        raise ValueError("nominal distribution must be nonnegative")
    if (psi <= 0).any() or (psi > 1).any():
        raise ValueError("psi entries must lie in (0, 1]")
    w = nominal * psi
    return w / w.sum()


def gate_edge_prob(p_uv, psi_v):
    """Factorized per-edge gate: p' = p_uv * psi_v (never exceeds nominal)."""
    return np.asarray(p_uv, dtype=float) * np.asarray(psi_v, dtype=float)


def apply_mode(nominal: np.ndarray, psi: np.ndarray, spec: DeformationSpec,
               regions=None) -> np.ndarray:
    """Reweight a categorical under the spec's deployment mode.

    Full reweights everything; topk gates only the k most probable nominal
    destinations; local gates only destinations whose region lies in
    spec.local_regions (requires `regions`); off returns the nominal.
    """
    nominal = np.asarray(nominal, dtype=float)
    if spec.mode == "off":
        if abs(nominal.sum() - 1.0) > 1e-12:
            raise ValueError("nominal distribution must sum to 1")
        return nominal.copy()
    psi = np.asarray(psi, dtype=float)
    if spec.mode == "topk":
        k = min(spec.k, nominal.size)
        # stable sort on (-prob, index) so ties break by ascending index
        order = np.lexsort((np.arange(nominal.size), -nominal))
        keep = order[:k]
        eff = np.ones_like(psi)
        eff[keep] = psi[keep]
        psi = eff
    elif spec.mode == "local":
        if regions is None:
            raise ValueError("local mode requires destination regions")
        regions = np.asarray(regions)
        in_local = np.isin(regions, list(spec.local_regions))
        psi = np.where(in_local, psi, 1.0)
    return reweight_categorical(nominal, psi)
