"""Random diffusion graphs with sensitive subgraphs and one-step dynamics.

Graphs are directed, out-degree in {3,4,5}, with per-edge activation
probabilities drawn from Beta(2,5) and rescaled to hit a branching target.
A connected sensitive subgraph marks harm-relevant nodes. The environment
step injects stimulus seeds according to the chosen action, diffuses one
round of cascade activation (optionally gated by destination conductance),
and emits reward plus delayed harm computed from the causal active set.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .deformation import (DeformationSpec, check_nominal, conductance,
                          gate_edge_prob, gated_entries, reweight_rows,
                          segment_sums)
from .harm_memory import HarmFields
from .rng import substream

__all__ = [
    "Action",
    "DiffusionGraph",
    "EnvParams",
    "EnvState",
    "EnvBatch",
    "StepResult",
    "BatchStep",
    "generate_graph",
    "check_graph_args",
    "select_sensitive_subgraph",
    "stimulus_seed_set",
    "initial_state",
    "observe",
    "observe_batch",
    "env_step",
    "env_steps",
    "nominal_rollouts",
    "frontier_mask",
    "stimulus_rows",
    "edge_gate_mask",
]

HARM_PER_SENSITIVE_NODE = 0.1
N_STIMULI = 20
_OFF = DeformationSpec(mode="off")


class Action(IntEnum):
    AGGRESSIVE = 0
    MODERATE = 1
    CONSERVATIVE = 2


DEFAULT_ACTION_COSTS = (0.002, 0.001, 0.0)


@dataclass(frozen=True)
class EnvParams:
    """Dynamics knobs that are not part of the graph itself."""

    k_seed: int = 3
    seed_pool: str = "all"          # "all" | "sensitive" | "core"
    refire: bool = True             # retry every frontier edge each step
    reward: str = "linear"          # "linear" | "log" reach growth
    action_costs: tuple = DEFAULT_ACTION_COSTS

    def __post_init__(self):
        if self.seed_pool not in ("all", "sensitive", "core"):
            raise ValueError("seed_pool must be 'all', 'sensitive', or 'core'")
        if self.reward not in ("log", "linear"):
            raise ValueError("reward must be 'log' or 'linear'")
        if self.k_seed < 1:
            raise ValueError("k_seed must be >= 1")
        if len(self.action_costs) != len(Action):
            raise ValueError(f"action_costs must have {len(Action)} entries")


@dataclass
class DiffusionGraph:
    """A diffusion graph; region r of the harm fields is node r."""

    node_count: int
    edge_src: np.ndarray            # int64 [E], sorted by (src, dst)
    edge_dst: np.ndarray
    edge_p: np.ndarray              # float64, in (0,1)
    sensitive: np.ndarray           # bool [N]
    seed: int
    branching_target: float
    locality: float = 0.0
    out_ptr: np.ndarray = None      # CSR offsets per source node
    _memo: dict = field(default_factory=dict, repr=False)  # see `_memo`

    def __post_init__(self):
        if self.out_ptr is None:
            counts = np.bincount(self.edge_src, minlength=self.node_count)
            self.out_ptr = np.concatenate(([0], np.cumsum(counts)))

    @property
    def sensitive_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.sensitive)

    def out_edges_of(self, u: int):
        lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
        return self.edge_dst[lo:hi], self.edge_p[lo:hi]

    def neighbours(self, nodes) -> np.ndarray:
        """The nodes adjacent in the undirected sense to `nodes` (one node
        or several), sorted, without repeats."""
        def rows():
            # the undirected adjacency as CSR rows laid end to end: each
            # edge once per direction, sorted by (owner, neighbour)
            n = self.node_count
            ends = np.sort(np.concatenate([self.edge_src * n + self.edge_dst,
                                           self.edge_dst * n + self.edge_src]))
            ends = ends[np.diff(ends, prepend=-1) > 0]  # drop repeats
            return ends // n, ends % n
        owner, nbr = _memo(self, ("undirected",), rows)
        given = np.zeros(self.node_count, dtype=bool)
        given[nodes] = True
        reached = np.zeros_like(given)
        reached[nbr[given[owner]]] = True
        return np.flatnonzero(reached)

    def hop_distance_from(self, sources) -> np.ndarray:
        """Undirected BFS hop distances from a source set (-1 unreachable),
        a level at a time: the unreached neighbours of the last level."""
        key = tuple(sorted(int(s) for s in sources))

        def bfs():
            dist = np.full(self.node_count, -1, dtype=int)
            front, level = np.array(key, dtype=np.int64), 0
            while front.size:
                dist[front] = level
                level += 1
                front = self.neighbours(front)
                front = front[dist[front] < 0]
            return dist
        return _memo(self, ("hop", key), bfs)

    def to_json(self) -> str:
        obj = {
            "nodes": int(self.node_count),
            "edges": [
                {"u": int(u), "v": int(v), "p": float(p)}
                for u, v, p in zip(self.edge_src, self.edge_dst, self.edge_p)
            ],
            "sensitive": [int(s) for s in self.sensitive_nodes],
            "seed": int(self.seed),
            "branching_target": float(self.branching_target),
            "locality": float(self.locality),
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "DiffusionGraph":
        """Parse `to_json` output; raise ValueError if it is malformed."""
        obj = json.loads(text)
        try:
            n, seed, edges = obj["nodes"], obj["seed"], obj["edges"]
            src = np.array([e["u"] for e in edges], dtype=np.int64)
            dst = np.array([e["v"] for e in edges], dtype=np.int64)
            p = np.array([e["p"] for e in edges], dtype=float)
            sens = np.array(obj["sensitive"], dtype=np.int64)
            target = float(obj["branching_target"])
            locality = float(obj.get("locality", 0.0))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph field missing or mistyped: {exc!r}") from None
        ends = np.concatenate([src, dst, sens])
        if not (isinstance(n, int) and n >= 1 and isinstance(seed, int) and seed >= 0):
            raise ValueError("graph nodes must be an integer >= 1 and seed >= 0")
        if sens.size == 0 or ends.min() < 0 or ends.max() >= n:
            raise ValueError("sensitive indices must be nonempty and, like edge "
                             f"ends, lie in 0..{n - 1}")
        if np.any(np.diff(src * n + dst) <= 0):
            raise ValueError("edges must be sorted by (src, dst) without repeats")
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ValueError("edge probabilities p must lie in (0, 1)")
        return cls(node_count=n, edge_src=src, edge_dst=dst, edge_p=p,
                   sensitive=np.isin(np.arange(n), sens), seed=seed,
                   branching_target=target, locality=locality)


def _memo(graph: DiffusionGraph, key: tuple, build):
    """The graph's memo entry `key`, made by `build()` on first use. Every
    array in an entry is marked read-only, so that no caller can change
    the graph's law by writing into what it is handed."""
    entry = graph._memo.get(key)
    if entry is None:
        entry = build()
        for a in entry if isinstance(entry, tuple) else (entry,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        graph._memo[key] = entry
    return entry


def select_sensitive_subgraph(graph: DiffusionGraph, fraction: float, seed: int,
                              style: str = "grow") -> np.ndarray:
    """Pick a connected (undirected sense) sensitive node set of round(fraction*|V|).

    style "grow" uses randomized BFS growth; style "arc" picks a contiguous
    index block, which on high-locality ring graphs forms a bottleneck the
    cascade must cross.
    """
    if not (0.15 <= fraction <= 0.25):
        raise ValueError("sensitive fraction must lie in [0.15, 0.25]")
    size = int(round(fraction * graph.node_count))
    rng = substream(seed, 2)
    start = int(rng.integers(graph.node_count))
    if style == "arc":
        return np.sort(np.arange(start, start + size) % graph.node_count)
    if style != "grow":
        raise ValueError("sensitive style must be 'grow' or 'arc'")
    # add one uniformly drawn neighbour of the set at a time
    chosen = np.zeros(graph.node_count, dtype=bool)
    reached = chosen.copy()
    chosen[start] = True
    reached[graph.neighbours(start)] = True
    for _ in range(size - 1):
        cand = np.flatnonzero(reached & ~chosen)
        if not cand.size:
            warnings.warn(
                "connected growth exhausted; sensitive set smaller than requested",
                RuntimeWarning,
            )
            break
        v = cand[int(rng.integers(cand.size))]
        chosen[v] = True
        reached[graph.neighbours(v)] = True
    return np.flatnonzero(chosen)


def check_graph_args(node_count: int, branching_target: float, *,
                     sens_fraction: float, locality: float, local_span: int,
                     sens_style: str) -> None:
    """Raise ValueError for arguments `generate_graph` rejects up front."""
    if node_count < 10:
        raise ValueError("node_count must be >= 10")
    if branching_target <= 0:
        raise ValueError("branching_target must be positive")
    if not (0.0 <= locality <= 1.0):
        raise ValueError("locality must lie in [0, 1]")
    if local_span < 1:
        raise ValueError("local_span must be >= 1")
    if not (0.15 <= sens_fraction <= 0.25):
        raise ValueError("sensitive fraction must lie in [0.15, 0.25]")
    if sens_style not in ("grow", "arc"):
        raise ValueError("sensitive style must be 'grow' or 'arc'")


def generate_graph(node_count: int, branching_target: float, seed: int, *,
                   sens_fraction: float = 0.2, locality: float = 0.0,
                   local_span: int = 3, sens_style: str = "grow") -> DiffusionGraph:
    """Generate a random diffusion graph.

    Out-degrees are Uniform{3,4,5}; raw edge probabilities are Beta(2,5)
    samples, then scaled by a common factor so that realized
    mean(p) * mean(out_degree) equals the branching target. With
    locality > 0 that fraction of edge targets is drawn from a ring window
    of +-local_span positions, the rest uniformly at random.
    """
    check_graph_args(node_count, branching_target, sens_fraction=sens_fraction,
                     locality=locality, local_span=local_span,
                     sens_style=sens_style)
    rng = substream(seed, 0)
    degrees = rng.integers(3, 6, size=node_count)
    src_list, dst_list = [], []
    offsets = np.array([o for o in range(-local_span, local_span + 1) if o != 0])
    for u in range(node_count):
        targets: set[int] = set()
        while len(targets) < degrees[u]:
            if locality > 0 and rng.random() < locality:
                v = (u + int(offsets[rng.integers(offsets.size)])) % node_count
            else:
                v = int(rng.integers(node_count))
            if v != u:
                targets.add(v)
        for v in sorted(targets):
            src_list.append(u)
            dst_list.append(v)
    src = np.array(src_list, dtype=np.int64)
    dst = np.array(dst_list, dtype=np.int64)

    prng = substream(seed, 1)
    p_raw = prng.beta(2.0, 5.0, size=src.size)
    factor = branching_target / (p_raw.mean() * degrees.mean())
    p = p_raw * factor
    if np.all(p >= 1.0):
        raise ValueError("branching_target pushes every edge probability to >= 1")
    p = np.clip(p, 1e-12, 1.0 - 1e-12)

    graph = DiffusionGraph(
        node_count=node_count, edge_src=src, edge_dst=dst, edge_p=p,
        sensitive=np.zeros(node_count, dtype=bool), seed=seed,
        branching_target=branching_target, locality=locality,
    )
    sens_nodes = select_sensitive_subgraph(graph, sens_fraction, seed,
                                           style=sens_style)
    graph.sensitive = np.zeros(node_count, dtype=bool)
    graph.sensitive[sens_nodes] = True
    return graph


def stimulus_seed_set(z: int, graph: DiffusionGraph, k_seed: int = 3,
                      pool: str = "all") -> np.ndarray:
    """Deterministic seed node set for stimulus identity z on this graph."""
    if not (1 <= z <= N_STIMULI):
        raise ValueError(f"stimulus identity must lie in 1..{N_STIMULI}")

    def build():
        rng = substream(graph.seed, 3, z)
        if pool == "sensitive":
            candidates = graph.sensitive_nodes
        elif pool == "core":
            # sensitive nodes all of whose neighbors are also sensitive
            sens = graph.sensitive_nodes
            candidates = sens[~np.isin(sens, graph.neighbours(
                np.flatnonzero(~graph.sensitive)))]
            if candidates.size == 0:
                candidates = graph.sensitive_nodes
        else:
            candidates = np.arange(graph.node_count)
        k = min(k_seed, candidates.size)
        return np.sort(rng.choice(candidates, size=k, replace=False))
    return _memo(graph, ("seeds", z, k_seed, pool), build)


# ---------------------------------------------------------------------------
# environment state and stepping
#
# B copies of the environment on one graph step together as one flat state:
# copy b's node v is entry b*N + v, and its edge e is entry b*E + e of the
# flat edge arrays (`_copies`). `env_steps` is the transition of B copies;
# `env_step` is its one-copy call.


@dataclass
class EnvState:
    active: np.ndarray              # bool [N]
    newly: np.ndarray               # bool [N], activated on the previous step
    time: int
    phase_time: int
    stimulus: int
    stimulus_on: bool
    delay_buffer: deque             # active-node index arrays, maxlen D+1

    def copy(self) -> "EnvState":
        return EnvState(
            active=self.active.copy(), newly=self.newly.copy(),
            time=self.time, phase_time=self.phase_time,
            stimulus=self.stimulus, stimulus_on=self.stimulus_on,
            delay_buffer=deque(self.delay_buffer, maxlen=self.delay_buffer.maxlen),
        )


@dataclass
class EnvBatch:
    """The states of B copies in lockstep: one clock and one stimulus
    switch, and a stimulus identity per copy."""

    active: np.ndarray              # bool [B, N]
    newly: np.ndarray               # bool [B, N]
    time: int
    phase_time: int
    stimuli: tuple                  # stimulus identity z of each copy
    stimulus_on: bool
    delay_buffer: deque             # flat active-node index arrays, maxlen D+1

    @classmethod
    def initial(cls, graph: DiffusionGraph, stimuli, delay: int,
                stimulus_on: bool = True) -> "EnvBatch":
        shape = (len(stimuli), graph.node_count)
        return cls(active=np.zeros(shape, dtype=bool),
                   newly=np.zeros(shape, dtype=bool), time=0, phase_time=0,
                   stimuli=tuple(stimuli), stimulus_on=stimulus_on,
                   delay_buffer=deque([np.empty(0, dtype=np.int64)],
                                      maxlen=delay + 1))

    @classmethod
    def of(cls, state: EnvState) -> "EnvBatch":
        """One copy holding `state`, whose arrays and buffer it shares."""
        return cls(active=state.active[None], newly=state.newly[None],
                   time=state.time, phase_time=state.phase_time,
                   stimuli=(state.stimulus,), stimulus_on=state.stimulus_on,
                   delay_buffer=state.delay_buffer)

    def episode(self, b: int) -> EnvState:
        """Copy b as an EnvState; its active and newly arrays are views,
        and a single copy shares the delay buffer."""
        buf = self.delay_buffer
        if len(self.active) > 1:
            n = self.active.shape[1]
            buf = deque((a[np.searchsorted(a, b * n):np.searchsorted(a, b * n + n)]
                         - b * n for a in buf), maxlen=buf.maxlen)
        return EnvState(active=self.active[b], newly=self.newly[b],
                        time=self.time, phase_time=self.phase_time,
                        stimulus=self.stimuli[b], stimulus_on=self.stimulus_on,
                        delay_buffer=buf)

    def reset(self, *, stimulus_on: bool,
              truncate_buffer: bool = False) -> "EnvBatch":
        """Reset the observable part of the state (x*): empty active sets,
        phase clock zero. Environment-side memory (the delay buffer)
        persists unless truncated."""
        new = replace(self, active=np.zeros_like(self.active),
                      newly=np.zeros_like(self.newly), phase_time=0,
                      stimulus_on=stimulus_on)
        if truncate_buffer:
            new.delay_buffer = deque([np.empty(0, dtype=np.int64)],
                                     maxlen=self.delay_buffer.maxlen)
            new.time = 0
        return new


def initial_state(graph: DiffusionGraph, z: int, delay: int,
                  stimulus_on: bool = True) -> EnvState:
    return EnvBatch.initial(graph, (z,), delay, stimulus_on).episode(0)


def _copies(graph: DiffusionGraph, b: int):
    """Flat (src, dst, p) edge arrays of b copies of the graph: edge e of
    copy c is entry c*E + e, from node c*N + edge_src[e]."""
    def build():
        offset = np.arange(b)[:, None] * graph.node_count
        return ((graph.edge_src + offset).ravel(),
                (graph.edge_dst + offset).ravel(), np.tile(graph.edge_p, b))
    return _memo(graph, ("copies", b), build)


def stimulus_rows(graph: DiffusionGraph, stimuli, params: EnvParams):
    """For B copies with these stimuli: the undirected hop distances [B, N]
    from each copy's seed set (-1 unreachable), and the seed sets as flat
    node indices b*N + s [B, k]. Cached per stimuli, as every step reads
    them twice (observation and injection)."""
    def build():
        seeds = [stimulus_seed_set(z, graph, params.k_seed, params.seed_pool)
                 for z in stimuli]
        offset = np.arange(len(seeds))[:, None] * graph.node_count
        return (np.stack([graph.hop_distance_from(s) for s in seeds]),
                np.stack(seeds) + offset)
    return _memo(graph, ("stimulus_rows", tuple(stimuli), params.k_seed,
                         params.seed_pool), build)


def observe(state: EnvState, graph: DiffusionGraph, t_phase: int,
            params: "EnvParams | None" = None) -> np.ndarray:
    """Feature vector (normalized reach, hop centroid, hop spread, phase time)."""
    return observe_batch(EnvBatch.of(state), graph, t_phase, params)[0]


def observe_batch(batch: EnvBatch, graph: DiffusionGraph, t_phase: int,
                  params: "EnvParams | None" = None) -> np.ndarray:
    """`observe` of B copies, one row per copy.

    The hop centroid and spread are the mean and standard deviation of the
    hop distances of the copy's active nodes that its seeds reach; each row
    equals what np.mean and np.std give on that copy's distances.
    """
    params = params or EnvParams()
    dist, _ = stimulus_rows(graph, batch.stimuli, params)
    seen = batch.active & (dist >= 0)
    count = seen.sum(axis=1)
    per = np.maximum(count, 1)
    centroid = np.where(seen, dist, 0).sum(axis=1) / per
    dev = dist[seen] - centroid.repeat(count)
    obs = np.empty((len(count), 4))
    obs[:, 0] = batch.active.sum(axis=1) / graph.node_count
    obs[:, 1] = centroid
    obs[:, 2] = np.sqrt(segment_sums(dev * dev, count) / per)
    obs[:, 3] = batch.phase_time / max(t_phase, 1)
    return obs


def edge_gate_mask(graph: DiffusionGraph, spec: DeformationSpec) -> np.ndarray:
    """Boolean per-edge mask of edges subject to conductance gating: the
    mode's `gated_entries` of each source's out-edge probabilities."""
    return _memo(graph, ("gate", spec.mode, spec.k, spec.local_regions),
                 lambda: gated_entries(graph.edge_p, spec, graph.edge_dst,
                                       np.diff(graph.out_ptr)))


@dataclass
class StepResult:
    state: EnvState
    reward: float
    harm: float
    causal: np.ndarray              # A_{t-D} ∩ V_sens (region indices)
    odds: tuple                     # (p, q, p0, q0) for sensitive entry this step


@dataclass
class BatchStep:
    """The StepResult of B copies."""

    batch: EnvBatch
    reward: np.ndarray              # float [B], or a list
    harm: np.ndarray                # float [B], or a list
    causal: np.ndarray              # flat indices b*N + r of A_{t-D} ∩ V_sens
    odds: np.ndarray                # (p, q, p0, q0) per copy: [B, 4], or a list


def _frontier_edges(src: np.ndarray, dst: np.ndarray, active: np.ndarray,
                    src_mask: np.ndarray) -> np.ndarray:
    # the step path calls the array methods, not np.flatnonzero or
    # np.zeros_like, whose wrappers cost more than the work on small graphs
    return (src_mask[src] & ~active[dst]).nonzero()[0]


def frontier_mask(batch: EnvBatch, graph: DiffusionGraph,
                  refire: bool) -> np.ndarray:
    """(B, N) mask of the inactive regions a frontier edge points into; the
    frontier's sources are the active nodes under refire, else the nodes
    that activated on the previous step."""
    src, dst, _ = _copies(graph, len(batch.active))
    active = batch.active.ravel()
    mask = np.zeros(active.shape, dtype=bool)
    mask[dst[_frontier_edges(src, dst, active,
                             active if refire else batch.newly.ravel())]] = True
    return mask.reshape(batch.active.shape)


def _advance(active, newly, injected, src, dst, p_at, refire, draw):
    """One transition on a flat node array: activate the injected nodes,
    then fire each frontier edge once, with probability `p_at(idx)` against
    the uniforms `draw(idx)` for the frontier's edges idx. Without `refire`
    the frontier's sources are the previous step's `newly`, so a node's
    out-edges are tried once, on the step after it activates. Returns the
    new active and newly arrays, the frontier's edges and their
    probabilities."""
    new = np.zeros(active.shape, dtype=bool)
    new[injected] = True
    new &= ~active
    active = active | new
    idx = _frontier_edges(src, dst, active, active if refire else newly)
    p = p_at(idx)
    fired = dst[idx[draw(idx) < p]]
    active[fired] = True
    new[fired] = True
    return active, new, idx, p


class _InjectionTable(NamedTuple):
    """The fixed part of a stimulus's injection law: one row per draw,
    padded to the widest row. `own` is None when no row is padded, and
    `gated` when every entry is gated."""

    nodes: np.ndarray               # int64 [R, W], padded with 0
    nominal: np.ndarray             # float [R, W], padded with 0
    gated: np.ndarray | None        # bool [R, W]: entries the mode gates
    sizes: np.ndarray               # int64 [R]: entries per row
    own: np.ndarray | None          # bool [R, W]: the rows' own entries
    off_cdf: np.ndarray             # float [R, W]: the law under mode off


def _injection_table(graph: DiffusionGraph, seeds: np.ndarray,
                     deform: DeformationSpec, action: Action) -> _InjectionTable:
    """The injection rows of a seed set: Conservative picks one seed
    (nominally uniform), Aggressive one out-neighbour per seed with
    out-edges (nominally by edge_p). Built and checked once per (seeds,
    action, deployment mode) and cached on the graph."""
    def build():
        if action == Action.CONSERVATIVE:
            rows = [(seeds, np.full(seeds.size, 1.0 / seeds.size))]
        else:
            rows = [(d, pe / pe.sum())
                    for d, pe in map(graph.out_edges_of, seeds) if d.size]
        sizes = np.array([d.size for d, _ in rows], dtype=np.int64)
        shape = (len(rows), sizes.max(initial=0))
        nodes = np.zeros(shape, dtype=np.int64)
        nominal, off_cdf = np.zeros(shape), np.full(shape, 2.0)
        for j, (d, p) in enumerate(rows):
            check_nominal(p)
            c = np.cumsum(p)
            nodes[j, :d.size], nominal[j, :d.size] = d, p
            off_cdf[j, :d.size] = c / c[-1]
        own = np.arange(shape[1]) < sizes[:, None]
        gated = np.zeros(shape, dtype=bool)
        gated[own] = gated_entries(nominal[own], deform, nodes[own], sizes)
        return _InjectionTable(nodes=nodes, nominal=nominal,
                               gated=None if gated.all() else gated,
                               sizes=sizes, own=None if own.all() else own,
                               off_cdf=off_cdf)
    return _memo(graph, ("injection", tuple(seeds.tolist()), int(action),
                         deform.mode, deform.k, deform.local_regions), build)


def _stimulus_law(graph: DiffusionGraph, seeds: np.ndarray, psi_at,
                  deform: DeformationSpec, action: Action):
    """(nodes, cdf) rows of a step's injection draws: the rows of
    `_injection_table`, reweighted in one pass by the conductance at their
    gated entries, with their CDFs as `rng.choice` computes them (cumsum,
    then divided by the last entry) and padded with 2.0. `psi_at(nodes)`
    gives the conductance at an array of nodes; it is called once, at the
    table's nodes, and only when the law is reweighted. Every row equals
    its `apply_mode` result taken alone, bit for bit: a padded entry adds
    0.0 to its row's cumsum, so the last column holds each row's total."""
    table = _injection_table(graph, seeds, deform, action)
    if deform.mode == "off" or not table.nodes.size:
        return table.nodes, table.off_cdf
    psi = psi_at(table.nodes)
    if table.gated is not None:
        psi = np.where(table.gated, psi, 1.0)
    c = np.add.accumulate(reweight_rows(table.nominal, psi, table.sizes,
                                        table.own), axis=1)
    cdf = c / c[:, -1:]
    if table.own is not None:
        cdf = np.where(table.own, cdf, 2.0)
    return table.nodes, cdf


def _pick(law, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF picks, one per row of `law` along the last axis of u."""
    nodes, cdf = law
    return nodes[np.arange(len(nodes)), (cdf <= u[..., None]).sum(axis=-1)]


def env_step(state: EnvState, action: Action, graph: DiffusionGraph,
             fields: HarmFields, deform: DeformationSpec,
             rng: np.random.Generator,
             params: EnvParams | None = None) -> StepResult:
    """One environment step of one copy: `env_steps` at B=1, with the
    copy's fields, [N] or (1, N).

    The RNG draw count depends only on (observable state, action, graph,
    stimulus), which makes paired-stream replay exact.
    """
    step = env_steps(EnvBatch.of(state), [action], graph, fields, deform,
                     [rng], params)
    return StepResult(state=step.batch.episode(0), reward=float(step.reward[0]),
                      harm=float(step.harm[0]), causal=step.causal,
                      odds=tuple(step.odds[0].tolist()))


def env_steps(batch: EnvBatch, actions, graph: DiffusionGraph,
              fields: HarmFields, deform: DeformationSpec, rngs,
              params: EnvParams | None = None) -> BatchStep:
    """One environment step of B copies: injection, diffusion, reward,
    delayed harm.

    `fields` holds (B, N) fields, or [N] for one copy, read at flat entry
    b*N + r for copy b's region r (see `conductance`). Copy b takes
    `actions[b]` and draws from `rngs[b]` alone: its injection uniforms,
    then one uniform per frontier edge of its own, as a one-copy step
    draws them. So each copy's result equals its one-copy step bit for bit.
    """
    params = params or EnvParams()
    fp = fields.params
    b_count, n = batch.active.shape
    e = graph.edge_src.size
    src, dst, p_nominal = _copies(graph, b_count)

    # delayed harm from the causal active sets A_{t-D}
    causal, harm = np.empty(0, dtype=np.int64), np.zeros(b_count)
    if batch.time >= fp.delay and len(batch.delay_buffer) == fp.delay + 1:
        past = batch.delay_buffer[0]
        causal = past[graph.sensitive[past % n]]
        harm = np.minimum(HARM_PER_SENSITIVE_NODE
                          * np.bincount(causal // n, minlength=b_count), 1.0)

    # seed injection: every seed unless Conservative, plus any drawn picks
    injected = [np.empty(0, dtype=np.int64)]
    if batch.stimulus_on:
        _, seeds = stimulus_rows(graph, batch.stimuli, params)
        for b, action in enumerate(actions):
            if action != Action.CONSERVATIVE:
                injected.append(seeds[b])
            if action != Action.MODERATE:
                law = _stimulus_law(
                    graph, seeds[b] - b * n,
                    lambda nodes: conductance(nodes + b * n, fields, deform),
                    deform, Action(action))
                injected.append(_pick(law, rngs[b].random(len(law[0]))) + b * n)

    # cascade diffusion over frontier edges, gated by destination conductance
    gmask = edge_gate_mask(graph, deform)

    def p_at(idx):
        p = p_nominal[idx]
        if idx.size and gmask.any():
            p = np.where(gmask[idx % e], gate_edge_prob(
                p, conductance(dst[idx], fields, deform)), p)
        return p

    def draw(idx):
        if b_count == 1:
            return rngs[0].random(idx.size)
        counts = np.bincount(idx // e, minlength=b_count).tolist()
        parts = [r.random(c) for r, c in zip(rngs, counts) if c]
        return np.concatenate(parts) if parts else np.empty(0)

    active, newly, idx, p_eff = _advance(
        batch.active.ravel(), batch.newly.ravel(), np.concatenate(injected),
        src, dst, p_at, params.refire, draw)

    # analytic sensitive-entry odds at each copy's realized (state, action);
    # survival products kept exact so tiny q values do not cancel to 0
    to_sens = graph.sensitive[dst[idx] % n]
    sens = idx[to_sens]
    odds = np.empty((b_count, 4))
    odds[:] = (0.0, 1.0, 0.0, 1.0)
    if sens.size:
        copy = sens // e
        first = np.empty(sens.size, dtype=bool)
        first[0] = True
        np.not_equal(copy[1:], copy[:-1], out=first[1:])
        start = first.nonzero()[0]
        q_g = np.multiply.reduceat(1.0 - p_eff[to_sens], start)
        q_0 = np.multiply.reduceat(1.0 - p_nominal[sens], start)
        rows = copy[start]
        odds[rows, 0], odds[rows, 1] = 1.0 - q_g, q_g
        odds[rows, 2], odds[rows, 3] = 1.0 - q_0, q_0

    prev_count = batch.active.sum(axis=1)
    active = active.reshape(b_count, n)
    new_count = active.sum(axis=1)
    if params.reward == "log":
        reward = (np.log1p(new_count) - np.log1p(prev_count)) / np.log1p(n)
    else:
        reward = (new_count - prev_count) / n
    reward -= [params.action_costs[a] for a in actions]

    buf = deque(batch.delay_buffer, maxlen=batch.delay_buffer.maxlen)
    buf.append(active.ravel().nonzero()[0])
    new_batch = EnvBatch(active=active, newly=newly.reshape(b_count, n),
                         time=batch.time + 1, phase_time=batch.phase_time + 1,
                         stimuli=batch.stimuli, stimulus_on=batch.stimulus_on,
                         delay_buffer=buf)
    return BatchStep(batch=new_batch, reward=reward, harm=harm, causal=causal,
                     odds=odds)


def nominal_rollouts(state: EnvState, actions, graph: DiffusionGraph,
                     horizon: int, rng: np.random.Generator,
                     params: EnvParams | None = None) -> np.ndarray:
    """Cumulative sensitive mass of `horizon`-step rollouts from `state`
    under the nominal kernel, one rollout per entry of `actions`.

    Each rollout holds its action fixed and follows `env_step`'s law with
    deformation "off" (the fields do not matter then). Rollout b runs on
    copy b of the graph (node b*N + v), so all advance through `_advance`
    as one flat state, edge draws in rollout-major order. The injection
    draws of all steps are one (horizon, k) block drawn up front: the
    Conservative rollouts' picks, then each Aggressive rollout's, seed by
    seed.
    """
    params = params or EnvParams()
    actions = np.asarray(actions, dtype=np.int64)
    b, n = actions.size, graph.node_count
    offset = np.arange(b) * n
    src, dst, p = _copies(graph, b)
    active, newly = np.tile(state.active, b), np.tile(state.newly, b)
    fixed = cons = agg = np.empty(0, dtype=np.int64)  # node offsets
    rows = 0
    if state.stimulus_on:
        seeds = stimulus_seed_set(state.stimulus, graph, params.k_seed,
                                  params.seed_pool)
        fixed = (offset[actions != Action.CONSERVATIVE, None] + seeds).ravel()
        cons_law, agg_law = ((t.nodes, t.off_cdf) for t in (
            _injection_table(graph, seeds, _OFF, Action.CONSERVATIVE),
            _injection_table(graph, seeds, _OFF, Action.AGGRESSIVE)))
        cons = offset[actions == Action.CONSERVATIVE]
        agg = offset[actions == Action.AGGRESSIVE]
        rows = len(agg_law[0])
    draws = rng.random((horizon, cons.size + agg.size * rows))
    mass = np.zeros(b, dtype=np.int64)
    for t in range(horizon):
        u = draws[t]
        injected = [fixed]
        if cons.size:
            injected.append(cons + _pick(cons_law, u[:cons.size, None])[:, 0])
        if agg.size:
            ua = u[cons.size:].reshape(agg.size, rows)
            injected.append((agg[:, None] + _pick(agg_law, ua)).ravel())
        active, newly, _, _ = _advance(active, newly,
                                       np.concatenate(injected), src, dst,
                                       p.__getitem__, params.refire,
                                       lambda idx: rng.random(idx.size))
        mass += (active.reshape(b, n) & graph.sensitive).sum(axis=1)
    return mass
