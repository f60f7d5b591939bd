"""The three-phase Exposure -> Decay -> Replay episode runner.

Phase resets restore the observable state (empty active set, phase clock
zero) and the agent memory, never the environment-side fields or the delay
buffer. Paired-RNG mode reuses the exposure random stream for the replay
phase so that the stationary-kernel no-go prediction becomes a bit-exact
trajectory equality.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .deformation import DeformationSpec
from .errors import ProtocolError
from .graph_env import (N_STIMULI, Action, DiffusionGraph, EnvParams,
                        env_step, frontier_regions, initial_state, observe,
                        phase_reset, stimulus_seed_set)
from .harm_memory import HarmFields, attribute_harm, update_scar
from .policies import Policy, field_features
from .rng import substream

__all__ = ["RsdConfig", "PhaseSeries", "RsdEpisodeRecord", "agent_step",
           "run_rsd_episode", "scar_evolution"]

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


@dataclass
class PhaseSeries:
    reach: list = field(default_factory=list)
    sens: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    action_dists: list = field(default_factory=list)
    odds: list = field(default_factory=list)      # (p, q, p0, q0) per step
    radius: list = field(default_factory=list)    # running containment radius
    g_sum: list = field(default_factory=list)     # total trace mass per step
    h_sum: list = field(default_factory=list)     # total scar mass per step
    scar_top: list = field(default_factory=list)  # top-10 [region, H] per step
    traj_hash: str = ""

    def to_dict(self) -> dict:
        return {
            "reach": self.reach, "sens": self.sens, "rewards": self.rewards,
            "actions": self.actions, "action_dists": self.action_dists,
            "odds": self.odds, "radius": self.radius,
            "g_sum": self.g_sum, "h_sum": self.h_sum,
            "scar_top": self.scar_top,
            "traj_hash": self.traj_hash,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseSeries":
        series = cls(reach=d["reach"], sens=d["sens"], rewards=d["rewards"],
                     actions=d["actions"], action_dists=d["action_dists"],
                     odds=[tuple(o) for o in d["odds"]], radius=d["radius"],
                     g_sum=d["g_sum"], h_sum=d["h_sum"],
                     scar_top=d["scar_top"],
                     traj_hash=d["traj_hash"])
        per_step = [v for k, v in vars(series).items() if k != "traj_hash"]
        if not series.reach or {len(v) for v in per_step} != {len(series.reach)}:
            raise ValueError("a phase's per-step series must be nonempty and equally long")
        for name, (what, ok) in _SERIES_TYPES.items():
            if not all(map(ok, getattr(series, name))):
                raise ValueError(f"a phase's {name} series must hold {what}")
        return series


def _is_int(v) -> bool:
    return type(v) is int


def _is_real(v) -> bool:
    return type(v) is int or type(v) is float and math.isfinite(v)


def _reals(n: int):
    return lambda v: len(v) == n and all(map(_is_real, v))


_SERIES_TYPES = {
    "reach": ("integers", _is_int), "sens": ("integers", _is_int),
    "actions": ("integers", _is_int), "radius": ("integers", _is_int),
    "rewards": ("finite numbers", _is_real),
    "g_sum": ("finite numbers", _is_real), "h_sum": ("finite numbers", _is_real),
    "odds": ("4-tuples of finite numbers", _reals(4)),
    "action_dists": ("3-lists of finite numbers", _reals(3)),
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
        return {
            "config": self.config,
            "graph_seed": self.graph_seed,
            "episode_seed": self.episode_seed,
            "phases": {k: v.to_dict() for k, v in self.phases.items()},
            "field_snapshots": self.field_snapshots,
            "policy_hash": self.policy_hash,
            "counterfactual": self.counterfactual,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RsdEpisodeRecord":
        """Parse `to_dict` output; raise ValueError if it is malformed."""
        try:
            rec = cls(
                config=d["config"], graph_seed=d["graph_seed"],
                episode_seed=d["episode_seed"],
                phases={k: PhaseSeries.from_dict(v)
                        for k, v in d["phases"].items()},
                field_snapshots=d["field_snapshots"],
                policy_hash=d["policy_hash"], counterfactual=d["counterfactual"],
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"record field missing or mistyped: {exc!r}") from None
        if set(rec.phases) != {"exposure", "decay", "replay"}:
            raise ValueError("record phases must be exposure, decay and replay")
        return rec


def scar_evolution(record: "RsdEpisodeRecord") -> list[dict]:
    """Flatten per-step field snapshots into JSONL-ready rows.

    Rows carry a global step index across exposure/decay/replay, the total
    trace and scar mass, and the ten highest-scar regions at that step.
    """
    rows = []
    step = 0
    for phase in ("exposure", "decay", "replay"):
        series = record.phases[phase]
        for i in range(len(series.g_sum)):
            rows.append({
                "step": step, "phase": phase,
                "g_sum": series.g_sum[i], "h_sum": series.h_sum[i],
                "top_scar_regions": series.scar_top[i],
            })
            step += 1
    return rows


def agent_step(state, policy: Policy, graph: DiffusionGraph,
               fields: HarmFields, deform: DeformationSpec,
               rng: np.random.Generator, t_phase: int, env_params: EnvParams):
    """One agent-environment step, shared by the RSD phases and training.

    Binds the state to a policy that asks for it (the shield), observes,
    evaluates the policy once (features, then distribution), draws the
    action as `rng.choice` would, pushes the observation into the policy's
    memory, steps the environment and updates the harm fields. Returns the
    StepResult, the new fields, the action, its distribution and features.
    """
    bind = getattr(policy, "bind_env_state", None)
    if bind is not None:
        bind(state, fields, deform)
    obs = observe(state, graph, t_phase, env_params)
    fs = None
    if policy.feature_mode == "augmented":
        fs = field_features(fields, deform,
                            frontier_regions(state, graph, env_params.refire))
    feats = policy.features(obs, fs)
    dist = policy.action_distribution(feats)
    # rng.choice(len(dist), p=dist)'s draw in Python floats, as its argument
    # checks cost more than a scripted policy's whole evaluation
    cdf = list(accumulate(dist.tolist()))
    action = bisect_right([c / cdf[-1] for c in cdf], rng.random())
    policy.remember(obs)
    res = env_step(state, Action(action), graph, fields, deform, rng,
                   env_params)
    fields = update_scar(attribute_harm(fields, res.harm, res.causal))
    return res, fields, action, dist, feats


def _run_phase(state, policy: Policy, graph: DiffusionGraph,
               fields: HarmFields, deform: DeformationSpec,
               rng: np.random.Generator, steps: int,
               env_params: EnvParams, hop_dist: np.ndarray):
    series = PhaseSeries()
    hasher = hashlib.sha256()
    radius = 0
    for _ in range(steps):
        res, fields, action, dist, _ = agent_step(
            state, policy, graph, fields, deform, rng, steps, env_params)
        state = res.state
        new_hops = hop_dist[state.newly]
        new_hops = new_hops[new_hops >= 0]
        if new_hops.size:
            radius = max(radius, int(new_hops.max()))
        act_idx = np.flatnonzero(state.active)
        series.reach.append(int(act_idx.size))
        series.sens.append(int(graph.sensitive[act_idx].sum()))
        series.rewards.append(res.reward)
        series.actions.append(int(action))
        series.action_dists.append([float(x) for x in dist])
        series.odds.append(tuple(float(x) for x in res.odds))
        series.radius.append(radius)
        snap = fields.summary()
        series.g_sum.append(snap["g_sum"])
        series.h_sum.append(snap["h_sum"])
        series.scar_top.append(snap["top_scar_regions"])
        hasher.update(state.active.tobytes())
        hasher.update(bytes([action]))
    series.traj_hash = hasher.hexdigest()
    return state, fields, series


def run_rsd_episode(config: RsdConfig, policy: Policy, graph: DiffusionGraph,
                    fields: HarmFields, deform: DeformationSpec,
                    episode_seed: int,
                    env_params: EnvParams | None = None) -> RsdEpisodeRecord:
    """Run one Exposure -> Decay -> Replay episode with a frozen policy."""
    if not policy.frozen:
        raise ProtocolError("RSD requires a frozen policy")
    env_params = env_params or EnvParams()
    hash_before = policy.weight_hash()
    fields = fields.copy()
    seeds = stimulus_seed_set(config.z, graph, env_params.k_seed,
                              env_params.seed_pool)
    hop_dist = graph.hop_distance_from(seeds)
    snapshots = {"start": fields.summary()}
    phases: dict[str, PhaseSeries] = {}

    # Exposure: reset observable state and agent memory, stimulus on
    policy.reset_memory()
    state = initial_state(graph, config.z, fields.params.delay, stimulus_on=True)
    rng = substream(episode_seed, _EXP_STREAM)
    state, fields, phases["exposure"] = _run_phase(
        state, policy, graph, fields, deform, rng, config.t_exp,
        env_params, hop_dist)
    snapshots["after_exposure"] = fields.summary()

    # Decay: stimulus off, nothing reset
    state.stimulus_on = False
    rng = substream(episode_seed, _DECAY_STREAM)
    state, fields, phases["decay"] = _run_phase(
        state, policy, graph, fields, deform, rng, config.t_decay,
        env_params, hop_dist)
    snapshots["after_decay"] = fields.summary()

    # Replay: observable + agent memory reset, same stimulus, fields persist
    policy.reset_memory()
    state = phase_reset(state, graph, stimulus_on=True,
                        truncate_buffer=config.truncate_buffer)
    if config.field_reset == "reset":
        fields = HarmFields.zeros(fields.G.size, fields.params)
    rep_deform = deform.with_mode("off") if config.replay_deformation == "off" \
        else deform
    stream = _EXP_STREAM if config.rng_mode == "paired" else _REP_STREAM
    rng = substream(episode_seed, stream)
    state, fields, phases["replay"] = _run_phase(
        state, policy, graph, fields, rep_deform, rng, config.t_rep,
        env_params, hop_dist)
    snapshots["after_replay"] = fields.summary()

    if policy.weight_hash() != hash_before:
        raise ProtocolError("policy weights changed during RSD evaluation")

    cfg = asdict(config)
    cfg["config_hash"] = config.hash()
    cfg["env_params"] = {
        "k_seed": env_params.k_seed, "seed_pool": env_params.seed_pool,
        "refire": env_params.refire, "reward": env_params.reward,
        "action_costs": list(env_params.action_costs),
    }
    return RsdEpisodeRecord(
        config=cfg, graph_seed=graph.seed, episode_seed=episode_seed,
        phases=phases, field_snapshots=snapshots,
        policy_hash=hash_before,
        counterfactual=(config.replay_deformation == "off"),
    )
