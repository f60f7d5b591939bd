"""Bounded, mass-preserving transition reweighting.

Destination conductance is a clipped exponential of the harm-trace and scar
fields; categorical kernels are reweighted exactly, per-edge Bernoulli
diffusion is gated multiplicatively. Partial-deployment modes (top-k, local)
restrict where the reweighting applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

__all__ = [
    "DeformationSpec",
    "conductance",
    "reweight_categorical",
    "reweight_rows",
    "gate_edge_prob",
    "gated_entries",
    "apply_mode",
    "check_nominal",
    "segment_sums",
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

    `regions` index the fields' entries flat, whatever their shape: region
    r of [N] fields is entry r, and region r of copy b of (B, N) fields
    is entry b*N + r. It may be a scalar or an array; the result has its
    shape. Mode "off" returns ones.
    """
    regions = np.asarray(regions)
    if spec.mode == "off":
        return np.ones(regions.shape, dtype=float)
    # ravel, not np.take, which costs about 1 us more per call on 2-D fields
    expo = (-spec.w_G * fields.G.ravel()[regions]
            - spec.w_H * fields.H.ravel()[regions])
    # np.clip's result, without its argument handling
    return np.minimum(np.maximum(np.exp(expo), spec.psi_min), 1.0)


def segment_sums(values: np.ndarray, counts) -> np.ndarray:
    """Sums of the consecutive segments of `values` with these lengths,
    each summed as np.sum sums it (np.add.reduceat adds in sequence and
    can differ from np.sum in the last bits)."""
    if len(counts) == 1:
        return np.array([np.add.reduce(values[:counts[0]])], dtype=float)
    ends = list(accumulate(counts.tolist()))
    return np.array([np.add.reduce(values[lo:hi])
                     for lo, hi in zip([0] + ends, ends)], dtype=float)


def check_nominal(nominal: np.ndarray) -> None:
    """Raise ValueError unless `nominal` is a distribution: nonnegative
    and summing to 1 within 1e-12."""
    if abs(nominal.sum() - 1.0) > 1e-12:
        raise ValueError("nominal distribution must sum to 1")
    if (nominal < 0).any():
        raise ValueError("nominal distribution must be nonnegative")


def reweight_rows(nominal: np.ndarray, psi: np.ndarray, sizes: np.ndarray,
                  own: np.ndarray | None = None) -> np.ndarray:
    """`reweight_categorical` of R rows at once: P(y) = nominal(y)*psi(y) / Z.

    Row j of the [R, W] arrays holds its sizes[j] entries first, then zero
    nominal mass; `own` masks those entries, or is None if every row
    fills the width. Z is summed over a row's own entries only, as np.sum
    sums them, so each row equals the one-row reweighting of its entries
    bit for bit whatever the padding. Every psi entry must lie in (0, 1];
    the nominal rows are not checked (see `check_nominal`).
    """
    if np.count_nonzero((psi <= 0) | (psi > 1)):
        raise ValueError("psi entries must lie in (0, 1]")
    w = nominal * psi
    return w / segment_sums(w.ravel() if own is None else w[own],
                            sizes)[:, None]


def reweight_categorical(nominal: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Exact mass-preserving reweighting P(y) = nominal(y)*psi(y) / Z:
    `apply_mode` in mode full."""
    return apply_mode(nominal, psi, DeformationSpec(mode="full"))


def gate_edge_prob(p_uv, psi_v):
    """Factorized per-edge gate: p' = p_uv * psi_v (never exceeds nominal)."""
    return np.asarray(p_uv, dtype=float) * np.asarray(psi_v, dtype=float)


def gated_entries(nominal: np.ndarray, spec: DeformationSpec,
                  regions=None, sizes=None) -> np.ndarray:
    """Mask of the entries of categoricals that the spec's mode gates: all
    under full, none under off, each categorical's k most probable nominal
    entries under topk (ties broken by ascending index), and under local
    those whose region (from `regions`) lies in spec.local_regions.
    `nominal` holds one categorical, or several laid end to end with
    `sizes[j]` entries in the j-th."""
    if spec.mode == "topk":
        sizes = np.array([nominal.size] if sizes is None else sizes)
        row = np.repeat(np.arange(sizes.size), sizes)
        # sort on (row, -prob, index) so ties break by ascending index; an
        # entry's rank is its place past its row's start
        order = np.lexsort((np.arange(nominal.size), -nominal, row))
        rank = np.arange(nominal.size) - (np.cumsum(sizes) - sizes)[row]
        mask = np.zeros(nominal.shape, dtype=bool)
        mask[order[rank < spec.k]] = True
        return mask
    if spec.mode == "local":
        if regions is None:
            raise ValueError("local mode requires destination regions")
        return np.isin(np.asarray(regions), list(spec.local_regions))
    return np.full(nominal.shape, spec.mode == "full")


def apply_mode(nominal: np.ndarray, psi: np.ndarray, spec: DeformationSpec,
               regions=None) -> np.ndarray:
    """Reweight a categorical under the spec's deployment mode.

    Full reweights everything; topk gates only the k most probable nominal
    destinations; local gates only destinations whose region lies in
    spec.local_regions (requires `regions`); off returns the nominal. In
    every mode the nominal must be a distribution (`check_nominal`).
    """
    nominal = np.asarray(nominal, dtype=float)
    check_nominal(nominal)
    if spec.mode == "off":
        return nominal.copy()
    psi = np.asarray(psi, dtype=float)
    if psi.shape != nominal.shape:
        raise ValueError("nominal and psi must have matching shapes")
    if spec.mode != "full":
        psi = np.where(gated_entries(nominal, spec, regions), psi, 1.0)
    row = reweight_rows(nominal.reshape(1, -1), psi.reshape(1, -1),
                        np.array([nominal.size]))
    return row.reshape(nominal.shape)
