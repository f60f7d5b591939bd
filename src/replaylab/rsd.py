"""The three-phase Exposure -> Decay -> Replay episode runner.

Phase resets restore the observable state (empty active set, phase clock
zero) and the agent memory, never the environment-side fields or the delay
buffer. Paired-RNG mode reuses the exposure random stream for the replay
phase so that the stationary-kernel no-go prediction becomes a bit-exact
trajectory equality.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

from .deformation import DeformationSpec
from .errors import ProtocolError
from .graph_env import (N_STIMULI, Action, DiffusionGraph, EnvBatch,
                        EnvParams, env_step, env_steps, frontier_mask,
                        observe_batch, stimulus_rows)
from .harm_memory import HarmFields, attribute_harm, update_scar
from .policies import Policy, act, field_features_batch
from .rng import substream

__all__ = ["RsdConfig", "PhaseSeries", "RsdEpisodeRecord", "step_phase",
           "run_rsd_episode", "run_rsd_episodes", "scar_evolution"]

RECORD_SCHEMA = 1

_EXP_STREAM, _DECAY_STREAM, _REP_STREAM = 10, 11, 12


@dataclass(frozen=True)
class RsdConfig:
    t_exp: int = 500
    t_decay: int = 200
    t_rep: int = 500
    z: int = 1
    rng_mode: str = "independent"          # "independent" | "paired"
    replay_deformation: str = "inherit"    # "inherit" | "off"
    field_reset: str = "persist"           # "persist" | "reset" (ablation)
    truncate_buffer: bool = False
    gamma: float = 0.99                    # discount used by ReplayRet

    def __post_init__(self):
        if min(self.t_exp, self.t_decay, self.t_rep) < 1:
            raise ValueError("all RSD horizons must be >= 1")
        if self.rng_mode not in ("independent", "paired"):
            raise ValueError("rng_mode must be 'independent' or 'paired'")
        if self.replay_deformation not in ("inherit", "off"):
            raise ValueError("replay_deformation must be 'inherit' or 'off'")
        if self.field_reset not in ("persist", "reset"):
            raise ValueError("field_reset must be 'persist' or 'reset'")
        if not (1 <= self.z <= N_STIMULI):
            raise ValueError(f"stimulus z must lie in 1..{N_STIMULI}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True)
                              .encode()).hexdigest()[:16]


# a phase's schema-1 keys, in the order a record file lists them; all but
# the last two are a column each
_SCHEMA_KEYS = ("reach", "sens", "rewards", "actions", "action_dists", "odds",
                "radius", "g_sum", "h_sum", "scar_top", "traj_hash")
_COLUMN_KEYS = _SCHEMA_KEYS[:-2]
_FLOAT_KEYS = ("rewards", "action_dists", "odds", "g_sum", "h_sum")
_TOP = 10           # scars a step keeps, as `HarmFields.top_scars` does


@dataclass
class PhaseSeries:
    """One phase of one copy as numpy columns, one row per step: int64
    `reach`, `sens`, `actions` and running containment `radius`; float64
    `rewards` and total trace and scar mass `g_sum` and `h_sum`; float64
    (T, 3) `action_dists` and (T, 4) `odds` (p, q, p0, q0); and each step's
    top-10 scars, (T, 10) int64 `scar_regions` and float64 `scar_h`, of
    which the first `scar_count` are the positive ones.

    `to_dict` and `to_json` give the schema-1 form: per-step lists, with
    `scar_top` as each step's positive [region, H] pairs.
    """

    reach: np.ndarray
    sens: np.ndarray
    rewards: np.ndarray
    actions: np.ndarray
    action_dists: np.ndarray
    odds: np.ndarray
    radius: np.ndarray
    g_sum: np.ndarray
    h_sum: np.ndarray
    scar_regions: np.ndarray
    scar_h: np.ndarray
    scar_count: np.ndarray
    traj_hash: str

    def scar_pairs(self, step: int) -> list:
        """Step `step`'s positive scars as [region, H] pairs."""
        k = int(self.scar_count[step])
        return [list(pair) for pair in zip(self.scar_regions[step, :k].tolist(),
                                           self.scar_h[step, :k].tolist())]

    def to_dict(self) -> dict:
        return {**{k: getattr(self, k).tolist() for k in _COLUMN_KEYS},
                "scar_top": [self.scar_pairs(t) for t in range(len(self.reach))],
                "traj_hash": self.traj_hash}

    def to_json(self) -> str:
        """`json.dumps(self.to_dict())`, written from the columns."""
        keep = np.arange(self.scar_regions.shape[1]) < self.scar_count[:, None]
        columns = [getattr(self, k) for k in _COLUMN_KEYS]
        *texts, regions, hs = _json_texts(
            columns + [self.scar_regions[keep], self.scar_h[keep]])
        texts = [_json_list(t, c.shape) for t, c in zip(texts, columns)]
        pairs = regions + hs            # interleaved: region, H, region, ...
        pairs[::2], pairs[1::2] = regions, hs
        texts += [_json_rows(pairs, self.scar_count.tolist(), "[{}, {}]"),
                  json.dumps(self.traj_hash)]
        return "{" + ", ".join(f'"{k}": {text}' for k, text
                               in zip(_SCHEMA_KEYS, texts)) + "}"

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseSeries":
        """Check a schema-1 phase's lists, then build its columns; raise
        ValueError if they are malformed."""
        lists = {k: d[k] for k in _SCHEMA_KEYS}
        per_step = [v for k, v in lists.items() if k != "traj_hash"]
        if not lists["reach"] or {len(v) for v in per_step} != {len(lists["reach"])}:
            raise ValueError("a phase's per-step series must be nonempty and equally long")
        for name, (what, ok) in _SERIES_TYPES.items():
            if not ok(lists[name]):
                raise ValueError(f"a phase's {name} series must hold {what}")
        scars = lists["scar_top"]
        count = np.array(list(map(len, scars)), dtype=np.int64)
        keep = np.arange(_TOP) < count[:, None]
        regions = np.zeros((len(scars), _TOP), dtype=np.int64)
        hs = np.zeros((len(scars), _TOP))
        pairs = list(chain.from_iterable(scars))
        if pairs:
            regions[keep], hs[keep] = zip(*pairs)
        return cls(**{k: np.array(lists[k], dtype=np.float64
                                  if k in _FLOAT_KEYS else np.int64)
                      for k in _COLUMN_KEYS},
                   scar_regions=regions, scar_h=hs, scar_count=count,
                   traj_hash=lists["traj_hash"])


def _json_texts(arrays: list) -> list:
    """`json.dumps`'s text of every entry of each integer or float64 array,
    one list per array, in row-major order. Each distinct value is formatted
    once, by `int.__repr__` or `float.__repr__` as `json.dumps` formats it:
    floats are told apart by bit pattern, so -0.0 keeps its sign, and the
    non-finite ones read NaN, Infinity and -Infinity."""
    out = [None] * len(arrays)
    for floats in (True, False):
        group = [i for i, a in enumerate(arrays)
                 if (a.dtype.kind == "f") == floats]
        if not group:
            continue
        values = np.concatenate([arrays[i].ravel() for i in group],
                                dtype=np.float64 if floats else np.int64)
        if floats:
            keys, where = np.unique(values.view(np.uint64), return_inverse=True)
            keys = keys.view(np.float64)
            texts = list(map(float.__repr__, keys.tolist()))
            for i in np.flatnonzero(~np.isfinite(keys)).tolist():
                texts[i] = json.dumps(float(keys[i]))
        else:
            keys, where = np.unique(values, return_inverse=True)
            texts = list(map(int.__repr__, keys.tolist()))
        flat = np.array(texts, dtype=object)[where].tolist()
        start = 0
        for i in group:
            end = start + arrays[i].size
            out[i], start = flat[start:end], end
    return out


def _json_rows(texts: list, lengths: list, item: str = "{}") -> str:
    """The JSON list whose row i holds the next `lengths[i]` items, each
    `item` filled in from the next of `texts`."""
    rows = {k: "[" + ", ".join([item] * k) + "]" for k in set(lengths)}
    return "[" + ", ".join([rows[k] for k in lengths]).format(*texts) + "]"


def _json_list(texts: list, shape: tuple) -> str:
    """The JSON list of a (T,) or (T, k) array from its entries' texts."""
    if len(shape) == 1:
        return "[" + ", ".join(texts) + "]"
    return _json_rows(texts, [shape[1]] * shape[0])


def _ints(v) -> bool:
    # exact types, in int64: a bool or a float is not an integer here
    return set(map(type, v)) <= {int} and (
        not v or -2 ** 63 <= min(v) and max(v) < 2 ** 63)


def _reals(v) -> bool:
    # exact types, each converting to a finite float
    if not set(map(type, v)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, v))
    except OverflowError:       # an int too large for a float
        return False


def _real_rows(n: int):
    def ok(rows) -> bool:
        try:
            sized = set(map(len, rows)) <= {n}
        except TypeError:
            # a row without a length: check row by row, as the rows before
            # it decide whether the record is rejected or mistyped
            return all(len(r) == n and _reals(r) for r in rows)
        return sized and _reals(list(chain.from_iterable(rows)))
    return ok


def _scar_rows(rows) -> bool:
    # per step the (region, H) pairs `HarmFields.top_scars` keeps: at most
    # ten, each an int64 region >= 0 and a finite float H > 0
    try:
        pairs = list(chain.from_iterable(rows))
        if max(map(len, rows), default=0) > 10 or set(map(len, pairs)) - {2}:
            return False
    except TypeError:           # a step or a pair without a length
        return False
    regions, hs = (list(v) for v in zip(*pairs)) if pairs else ([], [])
    return (_ints(regions) and min(regions, default=0) >= 0
            and set(map(type, hs)) <= {float} and _reals(hs)
            and min(hs, default=1.0) > 0)


_SERIES_TYPES = {
    "reach": ("64-bit integers", _ints), "sens": ("64-bit integers", _ints),
    "actions": ("64-bit integers", _ints), "radius": ("64-bit integers", _ints),
    "rewards": ("finite numbers", _reals),
    "g_sum": ("finite numbers", _reals), "h_sum": ("finite numbers", _reals),
    "odds": ("4-lists of finite numbers", _real_rows(4)),
    "action_dists": ("3-lists of finite numbers", _real_rows(3)),
    "scar_top": ("lists of at most ten [region >= 0, H > 0] pairs",
                 _scar_rows),
}


@dataclass
class RsdEpisodeRecord:
    config: dict
    graph_seed: int
    episode_seed: int
    phases: dict                    # phase name -> PhaseSeries
    field_snapshots: dict           # boundary name -> fields summary
    policy_hash: str
    counterfactual: bool

    def to_dict(self) -> dict:
        return {"schema": RECORD_SCHEMA, **vars(self),
                "phases": {k: v.to_dict() for k, v in self.phases.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "RsdEpisodeRecord":
        """Parse `to_dict` output; raise ValueError if it is malformed. A
        record without a schema version is read as version 1."""
        try:
            schema = d.get("schema", RECORD_SCHEMA)
            rec = cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)})
            rec.phases = {k: PhaseSeries.from_dict(v)
                          for k, v in rec.phases.items()}
            gamma = rec.config.get("gamma")
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"record field missing or mistyped: {exc!r}") from None
        if type(schema) is not int or schema != RECORD_SCHEMA:
            raise ValueError(f"record schema {schema!r} is not supported "
                             f"(this version reads {RECORD_SCHEMA})")
        if set(rec.phases) != {"exposure", "decay", "replay"}:
            raise ValueError("record phases must be exposure, decay and replay")
        if not (_reals([gamma]) and 0.0 < gamma <= 1.0):
            raise ValueError(f"record config.gamma must be a number in (0, 1], "
                             f"not {gamma!r}")
        return rec

    def to_json(self) -> str:
        """The record as one line of a record file, without its newline:
        `json.dumps(self.to_dict())` byte for byte, with each phase written
        from its columns."""
        fields = {"schema": RECORD_SCHEMA, **vars(self)}
        texts = {k: json.dumps(v, check_circular=False)
                 for k, v in fields.items() if k != "phases"}
        texts["phases"] = "{" + ", ".join(
            f"{json.dumps(k)}: {s.to_json()}" for k, s in self.phases.items()) + "}"
        return "{" + ", ".join(f"{json.dumps(k)}: {texts[k]}" for k in fields) + "}"

    @classmethod
    def from_json(cls, line: str) -> "RsdEpisodeRecord":
        """Parse a record file line; raise ValueError if it is malformed."""
        return cls.from_dict(json.loads(line))


def scar_evolution(record: "RsdEpisodeRecord") -> list[dict]:
    """Flatten per-step field snapshots into JSONL-ready rows.

    Rows carry a global step index across exposure/decay/replay, the total
    trace and scar mass, and the ten highest-scar regions at that step.
    """
    rows = []
    for phase in ("exposure", "decay", "replay"):
        d = record.phases[phase].to_dict()
        rows += [{"step": len(rows) + i, "phase": phase, "g_sum": g,
                  "h_sum": h, "top_scar_regions": top}
                 for i, (g, h, top) in enumerate(zip(d["g_sum"], d["h_sum"],
                                                     d["scar_top"]))]
    return rows


# `step_phase`'s columns: the active sets, then per copy the reward, harm,
# action, (3,) distribution, features, (p, q, p0, q0) odds, radius, field
# sums, and the top scars' regions, H values and count of positive ones
_COLUMNS = ("active", "rewards", "harm", "actions", "action_dists",
            "features", "odds", "radius", "g_sum", "h_sum", "top", "top_h",
            "positive")


def step_phase(batch: EnvBatch, policies, graph: DiffusionGraph,
               fields: HarmFields, deform: DeformationSpec, rngs, steps: int,
               env_params: EnvParams):
    """Step B copies for `steps` steps: the one step path of the RSD phases
    and of training, which runs each episode as one copy.

    `fields` holds the (B, N) fields; copy b has its own policy and
    generator, and the policies share one kind, feature mode and window.
    Each step binds each copy's state to a policy that asks for it (the
    shield), lets all policies act in one array pass (`policies.act`) on
    observations built only if they read them (a scripted policy does
    not), steps all copies together and updates the fields. Returns the
    last batch and fields and the `_COLUMNS`, stacked (T, B, ...);
    `features` is None for scripted policies and `radius` is the running
    containment radius. Only the active sets are (T, B, N), and the field
    reductions are taken as the loop goes: the columns grow as T*B*N bytes.
    """
    # hop distances from the stimulus seeds, 0 where unreachable
    hops = np.maximum(stimulus_rows(graph, batch.stimuli, env_params)[0], 0)
    head = policies[0]
    hist = []
    for _ in range(steps):
        for b, policy in enumerate(policies):
            bind = getattr(policy, "bind_env_state", None)
            if bind is not None:
                bind(batch.episode(b), HarmFields(G=fields.G[b], H=fields.H[b],
                                                  params=fields.params), deform)
        obs = summary = None
        if head.kind != "scripted":
            obs = observe_batch(batch, graph, steps, env_params)
            if head.feature_mode == "augmented":
                summary = field_features_batch(
                    fields, deform, frontier_mask(batch, graph, env_params.refire))
        actions, dists, feats = act(policies, obs, summary, rngs)
        if len(policies) == 1:
            step = env_step(batch.episode(0), Action(actions[0]), graph,
                            fields, deform, rngs[0], env_params)
        else:
            step = env_steps(batch, actions, graph, fields, deform, rngs,
                             env_params)
        fields = update_scar(attribute_harm(fields, step.harm, step.causal))
        batch = step.batch
        radius = np.maximum.reduce(np.where(batch.newly, hops, 0), axis=1)
        hist.append((batch.active, step.reward, step.harm, actions, dists,
                     feats, step.odds, radius, np.add.reduce(fields.G, axis=1),
                     np.add.reduce(fields.H, axis=1), *fields.top_scars()))
    # np.array stacks equal shapes as np.stack does, at a third of the cost
    cols = {k: None if v[0] is None else np.array(v)
            for k, v in zip(_COLUMNS, zip(*hist))}
    cols["actions"] = cols["actions"].astype(np.uint8)
    cols["radius"] = np.maximum.accumulate(cols["radius"], axis=0)
    return batch, fields, cols


def _phase_series(cols: dict, graph: DiffusionGraph) -> list:
    """One PhaseSeries per copy from `step_phase`'s columns: copy b's slices
    of them, which leave the (T, B, N) active sets behind."""
    active, actions = cols["active"], cols["actions"]
    per_step = {"reach": active.sum(axis=2),
                "sens": (active & graph.sensitive).sum(axis=2),
                "actions": actions.astype(np.int64),
                "scar_regions": cols["top"], "scar_h": cols["top_h"],
                "scar_count": cols["positive"],
                **{k: cols[k] for k in ("rewards", "action_dists", "odds",
                                        "radius", "g_sum", "h_sum")}}
    series = []
    for b in range(active.shape[1]):
        # the hash of each step's active set bytes, then its action byte
        rows = np.concatenate([active[:, b].view(np.uint8),
                               actions[:, b, None]], axis=1)
        series.append(PhaseSeries(
            **{k: v[:, b] for k, v in per_step.items()},
            traj_hash=hashlib.sha256(rows.tobytes()).hexdigest()))
    return series


def run_rsd_episodes(config: RsdConfig, stimuli, policies,
                     graph: DiffusionGraph, fields: HarmFields,
                     deform: DeformationSpec, episode_seeds,
                     env_params: EnvParams | None = None) -> list:
    """Run B Exposure -> Decay -> Replay episodes with frozen policies as B
    copies stepped together; episode b runs `config` with stimulus
    z = stimuli[b], policies[b] and episode_seeds[b], and every episode
    starts from `fields`, one copy's fields of shape [N] or (1, N).

    Each episode draws from its own generators in the order a lone episode
    does, so record b equals `run_rsd_episode(replace(config, z=stimuli[b]),
    policies[b], ...)` bit for bit.
    """
    if not len(stimuli) == len(policies) == len(episode_seeds) >= 1:
        raise ValueError("need one stimulus, policy and seed per episode")
    if not all(p.frozen for p in policies):
        raise ProtocolError("RSD requires a frozen policy")
    n = graph.node_count
    if fields.G.shape not in ((n,), (1, n)) or fields.H.shape != fields.G.shape:
        raise ValueError(f"start fields must have shape ({n},) or (1, {n}), "
                         f"got G {fields.G.shape} and H {fields.H.shape}")
    env_params = env_params or EnvParams()
    hashes = [p.weight_hash() for p in policies]
    start = fields.summary()
    fields = HarmFields(G=np.tile(fields.G, (len(stimuli), 1)),
                        H=np.tile(fields.H, (len(stimuli), 1)),
                        params=fields.params)
    phases = [{} for _ in stimuli]

    def phase(name, batch, fields, deform, stream, steps):
        rngs = [substream(seed, stream) for seed in episode_seeds]
        batch, fields, cols = step_phase(batch, policies, graph, fields,
                                         deform, rngs, steps, env_params)
        for ph, s in zip(phases, _phase_series(cols, graph)):
            ph[name] = s
        return batch, fields

    # Exposure: reset observable state and agent memory, stimulus on
    for p in policies:
        p.reset_memory()
    batch = EnvBatch.initial(graph, stimuli, fields.params.delay)
    batch, fields = phase("exposure", batch, fields, deform, _EXP_STREAM,
                          config.t_exp)

    # Decay: stimulus off, nothing reset
    batch = replace(batch, stimulus_on=False)
    batch, fields = phase("decay", batch, fields, deform, _DECAY_STREAM,
                          config.t_decay)

    # Replay: observable + agent memory reset, same stimulus, fields persist
    for p in policies:
        p.reset_memory()
    batch = batch.reset(stimulus_on=True,
                        truncate_buffer=config.truncate_buffer)
    if config.field_reset == "reset":
        fields = HarmFields.zeros(fields.G.shape, fields.params)
    rep_deform = deform.with_mode("off") if config.replay_deformation == "off" \
        else deform
    stream = _EXP_STREAM if config.rng_mode == "paired" else _REP_STREAM
    phase("replay", batch, fields, rep_deform, stream, config.t_rep)

    if [p.weight_hash() for p in policies] != hashes:
        raise ProtocolError("policy weights changed during RSD evaluation")

    # a phase's closing field summary is its series' last entry
    snapshots = [{"start": start, **{f"after_{name}": {
        "g_sum": float(s.g_sum[-1]), "h_sum": float(s.h_sum[-1]),
        "top_scar_regions": s.scar_pairs(-1)}
        for name, s in ph.items()}} for ph in phases]
    configs = [replace(config, z=z) for z in stimuli]
    return [RsdEpisodeRecord(
        config={**asdict(c), "config_hash": c.hash(),
                "env_params": asdict(env_params)},
        graph_seed=graph.seed, episode_seed=seed, phases=ph,
        field_snapshots=snaps, policy_hash=h,
        counterfactual=(config.replay_deformation == "off"))
        for c, seed, ph, snaps, h in zip(configs, episode_seeds, phases,
                                         snapshots, hashes)]


def run_rsd_episode(config: RsdConfig, policy: Policy, graph: DiffusionGraph,
                    fields: HarmFields, deform: DeformationSpec,
                    episode_seed: int,
                    env_params: EnvParams | None = None) -> RsdEpisodeRecord:
    """Run one Exposure -> Decay -> Replay episode with a frozen policy:
    `run_rsd_episodes` with one copy."""
    return run_rsd_episodes(config, [config.z], [policy], graph, fields,
                            deform, [episode_seed], env_params)[0]
