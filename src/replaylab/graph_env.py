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
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .deformation import DeformationSpec, apply_mode, conductance, gate_edge_prob
from .harm_memory import HarmFields
from .rng import substream

__all__ = [
    "Action",
    "DiffusionGraph",
    "EnvParams",
    "EnvState",
    "StepResult",
    "generate_graph",
    "check_graph_args",
    "select_sensitive_subgraph",
    "stimulus_seed_set",
    "initial_state",
    "observe",
    "env_step",
    "nominal_rollouts",
    "frontier_regions",
    "edge_gate_mask",
]

HARM_PER_SENSITIVE_NODE = 0.1
N_STIMULI = 20


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
    _und_adj: list = field(default=None, repr=False)
    _hop_cache: dict = field(default_factory=dict, repr=False)
    _seed_cache: dict = field(default_factory=dict, repr=False)
    _gate_mask_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.out_ptr is None:
            counts = np.bincount(self.edge_src, minlength=self.node_count)
            self.out_ptr = np.concatenate(([0], np.cumsum(counts)))
        if self._und_adj is None:
            adj = [[] for _ in range(self.node_count)]
            for u, v in zip(self.edge_src, self.edge_dst):
                adj[int(u)].append(int(v))
                adj[int(v)].append(int(u))
            self._und_adj = [sorted(set(a)) for a in adj]

    @property
    def sensitive_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.sensitive)

    def out_edges_of(self, u: int):
        lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
        return self.edge_dst[lo:hi], self.edge_p[lo:hi]

    def hop_distance_from(self, sources) -> np.ndarray:
        """Undirected BFS hop distances from a source set (-1 unreachable)."""
        key = tuple(sorted(int(s) for s in sources))
        if key not in self._hop_cache:
            dist = np.full(self.node_count, -1, dtype=int)
            q = deque()
            for s in key:
                dist[s] = 0
                q.append(s)
            while q:
                u = q.popleft()
                for v in self._und_adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        q.append(v)
            self._hop_cache[key] = dist
        return self._hop_cache[key]

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


def _grow_connected_set(adj, size: int, rng: np.random.Generator) -> np.ndarray:
    """Grow a connected node set of the requested size by randomized BFS."""
    n = len(adj)
    start = int(rng.integers(n))
    chosen = {start}
    frontier = set(adj[start]) - chosen
    while len(chosen) < size:
        if not frontier:
            warnings.warn(
                "connected growth exhausted; sensitive set smaller than requested",
                RuntimeWarning,
            )
            break
        cand = sorted(frontier)
        v = cand[int(rng.integers(len(cand)))]
        chosen.add(v)
        frontier |= set(adj[v])
        frontier -= chosen
    return np.array(sorted(chosen), dtype=np.int64)


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
    if style == "arc":
        start = int(substream(seed, 2).integers(graph.node_count))
        return np.sort(np.arange(start, start + size) % graph.node_count)
    if style != "grow":
        raise ValueError("sensitive style must be 'grow' or 'arc'")
    return _grow_connected_set(graph._und_adj, size, substream(seed, 2))


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
    key = (z, k_seed, pool)
    if key not in graph._seed_cache:
        rng = substream(graph.seed, 3, z)
        if pool == "sensitive":
            candidates = graph.sensitive_nodes
        elif pool == "core":
            # sensitive nodes all of whose neighbors are also sensitive
            candidates = np.array(
                [s for s in graph.sensitive_nodes
                 if all(graph.sensitive[v] for v in graph._und_adj[int(s)])],
                dtype=np.int64)
            if candidates.size == 0:
                candidates = graph.sensitive_nodes
        else:
            candidates = np.arange(graph.node_count)
        k = min(k_seed, candidates.size)
        picked = rng.choice(candidates, size=k, replace=False)
        graph._seed_cache[key] = np.sort(picked)
    return graph._seed_cache[key]


# ---------------------------------------------------------------------------
# environment state and stepping


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


def initial_state(graph: DiffusionGraph, z: int, delay: int,
                  stimulus_on: bool = True) -> EnvState:
    n = graph.node_count
    buf = deque(maxlen=delay + 1)
    buf.append(np.empty(0, dtype=np.int64))
    return EnvState(
        active=np.zeros(n, dtype=bool), newly=np.zeros(n, dtype=bool),
        time=0, phase_time=0, stimulus=z, stimulus_on=stimulus_on,
        delay_buffer=buf,
    )


def phase_reset(state: EnvState, graph: DiffusionGraph, *, stimulus_on: bool,
                truncate_buffer: bool = False) -> EnvState:
    """Reset the observable part of the state (x*): empty active set, phase
    clock zero. Environment-side memory (delay buffer) persists unless
    truncated."""
    n = graph.node_count
    new = state.copy()
    new.active = np.zeros(n, dtype=bool)
    new.newly = np.zeros(n, dtype=bool)
    new.phase_time = 0
    new.stimulus_on = stimulus_on
    if truncate_buffer:
        new.delay_buffer = deque(maxlen=state.delay_buffer.maxlen)
        new.delay_buffer.append(np.empty(0, dtype=np.int64))
        new.time = 0
    return new


def observe(state: EnvState, graph: DiffusionGraph, t_phase: int,
            params: "EnvParams | None" = None) -> np.ndarray:
    """Feature vector (normalized reach, hop centroid, hop spread, phase time)."""
    params = params or EnvParams()
    seeds = stimulus_seed_set(state.stimulus, graph, params.k_seed,
                              params.seed_pool)
    dist = graph.hop_distance_from(seeds)
    act = np.flatnonzero(state.active)
    reach = act.size / graph.node_count
    if act.size:
        d = dist[act]
        d = d[d >= 0]
    else:
        d = np.empty(0)
    centroid = float(d.mean()) if d.size else 0.0
    spread = float(d.std()) if d.size else 0.0
    return np.array([reach, centroid, spread, state.phase_time / max(t_phase, 1)])


def edge_gate_mask(graph: DiffusionGraph, spec: DeformationSpec) -> np.ndarray:
    """Boolean per-edge mask of edges subject to conductance gating."""
    key = (spec.mode, spec.k, spec.local_regions)
    if key not in graph._gate_mask_cache:
        e = graph.edge_src.size
        if spec.mode == "off":
            mask = np.zeros(e, dtype=bool)
        elif spec.mode == "full":
            mask = np.ones(e, dtype=bool)
        elif spec.mode == "local":
            mask = np.isin(graph.edge_dst, list(spec.local_regions))
        else:  # topk: each source's k most probable out-edges, ties by dst index
            mask = np.zeros(e, dtype=bool)
            for u in range(graph.node_count):
                lo, hi = graph.out_ptr[u], graph.out_ptr[u + 1]
                if hi <= lo:
                    continue
                pe = graph.edge_p[lo:hi]
                order = np.lexsort((np.arange(pe.size), -pe))
                mask[lo + order[: spec.k]] = True
        graph._gate_mask_cache[key] = mask
    return graph._gate_mask_cache[key]


@dataclass
class StepResult:
    state: EnvState
    reward: float
    harm: float
    causal: np.ndarray              # A_{t-D} ∩ V_sens (region indices)
    odds: tuple                     # (p, q, p0, q0) for sensitive entry this step


def _frontier_edges(src: np.ndarray, dst: np.ndarray, active: np.ndarray,
                    src_mask: np.ndarray) -> np.ndarray:
    return np.flatnonzero(src_mask[src] & ~active[dst])


def frontier_regions(state: EnvState, graph: DiffusionGraph,
                     refire: bool) -> np.ndarray:
    """Inactive regions a frontier edge points into; the frontier's sources
    are the active nodes under refire, else the nodes that activated on the
    previous step."""
    idx = _frontier_edges(graph.edge_src, graph.edge_dst, state.active,
                          state.active if refire else state.newly)
    return np.unique(graph.edge_dst[idx])


def _advance(active, newly, injected, src, dst, p, refire, rng):
    """One transition on a flat node array: activate the injected nodes,
    then fire each frontier edge e once with probability p[e]. Without
    `refire` the frontier's sources are the previous step's `newly`, so a
    node's out-edges are tried once, on the step after it activates.
    Returns the new active and newly arrays and the frontier's edges."""
    new = np.zeros_like(active)
    new[injected] = True
    new &= ~active
    active = active | new
    idx = _frontier_edges(src, dst, active, active if refire else newly)
    fired = dst[idx[rng.random(idx.size) < p[idx]]]
    active[fired] = True
    new[fired] = True
    return active, new, idx


def _stimulus_law(graph: DiffusionGraph, seeds: np.ndarray, psi: np.ndarray,
                  deform: DeformationSpec, action: Action):
    """(nodes, cdf) rows of a step's injection draws: Conservative picks one
    seed (nominally uniform), Aggressive one out-neighbour per seed with
    out-edges (nominally by edge_p). Rows go through `apply_mode`, get
    their CDF as `rng.choice` computes it, and are padded with 2.0."""
    if action == Action.CONSERVATIVE:
        rows = [(seeds, np.full(seeds.size, 1.0 / seeds.size))]
    else:
        rows = [(d, pe / pe.sum()) for d, pe in map(graph.out_edges_of, seeds)
                if d.size]
    nodes = np.zeros((len(rows), max((d.size for d, _ in rows), default=0)),
                     dtype=np.int64)
    cdf = np.full(nodes.shape, 2.0)
    for j, (d, nominal) in enumerate(rows):
        c = np.cumsum(apply_mode(nominal, psi[d], deform, regions=d))
        nodes[j, :d.size] = d
        cdf[j, :d.size] = c / c[-1]
    return nodes, cdf


def _pick(law, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF picks, one per row of `law` along the last axis of u."""
    nodes, cdf = law
    return nodes[np.arange(len(nodes)), (cdf <= u[..., None]).sum(axis=-1)]


def env_step(state: EnvState, action: Action, graph: DiffusionGraph,
             fields: HarmFields, deform: DeformationSpec,
             rng: np.random.Generator,
             params: EnvParams | None = None) -> StepResult:
    """One environment step: injection, diffusion, reward, delayed harm.

    The RNG draw count depends only on (observable state, action, graph,
    stimulus), which makes paired-stream replay exact.
    """
    params = params or EnvParams()
    fp = fields.params
    n = graph.node_count

    # delayed harm from the causal active set A_{t-D}
    if state.time >= fp.delay and len(state.delay_buffer) == fp.delay + 1:
        past = state.delay_buffer[0]
        causal = past[graph.sensitive[past]]
        harm = min(HARM_PER_SENSITIVE_NODE * causal.size, 1.0)
    else:
        causal = np.empty(0, dtype=np.int64)
        harm = 0.0

    psi_nodes = conductance(np.arange(n), fields, deform)

    # seed injection: every seed unless Conservative, plus any drawn picks
    injected = np.empty(0, dtype=np.int64)
    if state.stimulus_on:
        seeds = stimulus_seed_set(state.stimulus, graph, params.k_seed,
                                  params.seed_pool)
        if action != Action.CONSERVATIVE:
            injected = seeds
        if action != Action.MODERATE:
            law = _stimulus_law(graph, seeds, psi_nodes, deform, action)
            injected = np.concatenate(
                [injected, _pick(law, rng.random(len(law[0])))])

    # cascade diffusion over frontier edges, gated by destination conductance
    p_eff = graph.edge_p
    gmask = edge_gate_mask(graph, deform)
    if gmask.any():
        p_eff = np.where(gmask, gate_edge_prob(p_eff, psi_nodes[graph.edge_dst]),
                         p_eff)
    active, newly, idx = _advance(state.active, state.newly, injected,
                                  graph.edge_src, graph.edge_dst, p_eff,
                                  params.refire, rng)

    # analytic sensitive-entry odds at this realized (state, action)
    sens = idx[graph.sensitive[graph.edge_dst[idx]]]
    if sens.size:
        # survival products kept exact so tiny q values do not cancel to 0
        q_g = float(np.prod(1.0 - p_eff[sens]))
        q_0 = float(np.prod(1.0 - graph.edge_p[sens]))
        odds = (1.0 - q_g, q_g, 1.0 - q_0, q_0)
    else:
        odds = (0.0, 1.0, 0.0, 1.0)

    prev_count = int(state.active.sum())
    new_count = int(active.sum())
    if params.reward == "log":
        reward = (np.log1p(new_count) - np.log1p(prev_count)) / np.log1p(n)
    else:
        reward = (new_count - prev_count) / n
    reward -= params.action_costs[int(action)]

    buf = deque(state.delay_buffer, maxlen=state.delay_buffer.maxlen)
    buf.append(np.flatnonzero(active).astype(np.int64))
    new_state = EnvState(
        active=active, newly=newly, time=state.time + 1,
        phase_time=state.phase_time + 1, stimulus=state.stimulus,
        stimulus_on=state.stimulus_on, delay_buffer=buf,
    )
    return StepResult(state=new_state, reward=float(reward), harm=float(harm),
                      causal=causal, odds=odds)


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
    src = (graph.edge_src + offset[:, None]).ravel()
    dst = (graph.edge_dst + offset[:, None]).ravel()
    p = np.tile(graph.edge_p, b)
    active, newly = np.tile(state.active, b), np.tile(state.newly, b)
    fixed = cons = agg = np.empty(0, dtype=np.int64)  # node offsets
    rows = 0
    if state.stimulus_on:
        seeds = stimulus_seed_set(state.stimulus, graph, params.k_seed,
                                  params.seed_pool)
        fixed = (offset[actions != Action.CONSERVATIVE, None] + seeds).ravel()
        off, ones = DeformationSpec(mode="off"), np.ones(n)
        cons_law = _stimulus_law(graph, seeds, ones, off, Action.CONSERVATIVE)
        agg_law = _stimulus_law(graph, seeds, ones, off, Action.AGGRESSIVE)
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
        active, newly, _ = _advance(active, newly, np.concatenate(injected),
                                    src, dst, p, params.refire, rng)
        mass += (active.reshape(b, n) & graph.sensitive).sum(axis=1)
    return mass
