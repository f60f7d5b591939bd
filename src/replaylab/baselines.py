"""Method wiring: the baseline configurations, the Monte-Carlo shield, and
the suite runner that trains, freezes, evaluates and reports every method.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .config import (KNOWN_METHODS, MethodConfig, RunConfig, ShieldParams,
                     method_config)
from .errors import ConfigError, ProtocolError
from .graph_env import (Action, DiffusionGraph, EnvBatch, EnvParams,
                        nominal_rollouts)
from .harm_memory import HarmFields
from .metrics import discounted_return, episode_metrics, welch_ttest
from .policies import N_ACTIONS, Policy
from .rng import substream
from .rsd import RsdEpisodeRecord, agent_step, run_rsd_episodes
from .training import (Batch, TrainerState, check_finite, dual_update,
                       ss_penalty_update, train_epoch)

__all__ = [
    "MethodConfig", "method_config", "ShieldParams", "ShieldedPolicy",
    "shield_filter", "tune_shield_um", "run_episode_batch",
    "run_method_episodes", "run_method_suite", "MethodOutcome",
    "read_records", "write_report",
]


# ---------------------------------------------------------------------------
# Shield: Monte-Carlo reachability action filter


def shield_filter(state, graph: DiffusionGraph, theta: float, n_mc: int,
                  horizon: int, rng: np.random.Generator,
                  env_params: EnvParams, field_params=None):
    """Estimate expected cumulative sensitive mass per action under the
    nominal kernel and return (allowed actions, transitions simulated).

    Rollouts hold the candidate action fixed; the `n_mc` rollouts of each
    of the three actions advance together in one `nominal_rollouts` call.
    Under the nominal kernel the fields are zero and play no part, so
    `field_params` is unread; it stays only for callers that pass it. If
    every action exceeds the threshold, Conservative is allowed as the
    fail-safe.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    mass = nominal_rollouts(state, np.repeat(np.arange(3), n_mc), graph,
                            horizon, rng, env_params)
    means = mass.reshape(3, n_mc).mean(axis=1)
    allowed = [a for a in range(3) if means[a] <= theta]
    return allowed or [int(Action.CONSERVATIVE)], n_mc * horizon * 3


class ShieldedPolicy(Policy):
    """A policy whose actions pass the Monte-Carlo action filter.

    It takes over `base`'s state (weights, window memory, frozen flag), so
    features and memory are the base policy's own. `rsd.agent_step` binds
    the current environment state before each evaluation; the filter's
    allowed actions are then the policy's action mask.
    """

    def __init__(self, base: Policy, graph: DiffusionGraph,
                 params: ShieldParams, env_params: EnvParams, mc_seed: int):
        vars(self).update(vars(base))
        self.graph = graph
        self.params = params
        self.env_params = env_params
        self.mc_rng = substream(mc_seed, 14)
        self._mask = None

    def bind_env_state(self, state, fields, deform):
        # one filter evaluation per environment step, reused by every
        # distribution query until the next bind
        allowed, _ = shield_filter(
            state, self.graph, self.params.theta, self.params.n_mc,
            self.params.horizon, self.mc_rng, self.env_params)
        self._mask = np.zeros(N_ACTIONS)
        self._mask[allowed] = 1.0

    def action_mask(self):
        if self._mask is None:
            raise ProtocolError("shield evaluated without a bound env state")
        return self._mask


def tune_shield_um(evaluate, target_replay_ret: float, tolerance: float = 0.05,
                   bracket=(0.0, 1e6), max_iter: int = 12):
    """Bisection on the shield threshold to match a target replay return.

    `evaluate(theta)` must return the mean ReplayRet on held-out episodes.
    Returns (theta, achieved, diagnostic) where diagnostic is "" on success
    or a boundary flag when the target is unattainable within the bracket.
    """
    lo, hi = bracket
    ret_hi = evaluate(hi)
    if ret_hi <= target_replay_ret - tolerance:
        return hi, ret_hi, "target above unshielded return: boundary theta"
    ret_lo = evaluate(lo)
    if ret_lo >= target_replay_ret + tolerance:
        return lo, ret_lo, "target below fully-shielded return: boundary theta"
    best = (hi, ret_hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        ret_mid = evaluate(mid)
        if abs(ret_mid - target_replay_ret) < abs(best[1] - target_replay_ret):
            best = (mid, ret_mid)
        if abs(ret_mid - target_replay_ret) <= tolerance:
            return mid, ret_mid, ""
        if ret_mid < target_replay_ret:
            lo = mid
        else:
            hi = mid
    theta, achieved = best
    diag = "" if abs(achieved - target_replay_ret) <= tolerance else \
        "tolerance not met after max iterations"
    return theta, achieved, diag


# ---------------------------------------------------------------------------
# Training


def train_policy(mcfg: MethodConfig, graph: DiffusionGraph, cfg: RunConfig) -> Policy:
    """Desk-scale PPO training for one method on one graph."""
    tr_cfg = cfg.section("training")
    env_params = cfg.env_params
    deform = cfg.deform(mcfg.deform_mode, graph)
    policy = Policy(kind=mcfg.policy_kind, feature_mode=mcfg.feature_mode,
                    window=mcfg.window, seed=tr_cfg["seed"])
    trainer = TrainerState(policy=policy, lr=tr_cfg["lr"],
                           gamma=tr_cfg["gamma"], clip=tr_cfg["clip"],
                           gae_lambda=tr_cfg["gae_lambda"],
                           lr_dual=tr_cfg["lr_dual"])
    ep_len = tr_cfg["episode_len"]
    total_steps = tr_cfg["steps"]
    stimuli = cfg.section("rsd")["stimuli"]
    rng = substream(cfg["master_seed"], 20, graph.seed, tr_cfg["seed"])
    ss_penalty = 0.0
    steps_done = 0
    ep_index = 0
    while steps_done < total_steps:
        feats, acts, rews, gsums, hincs, logps, starts = [], [], [], [], [], [], []
        # one batch = a handful of episodes; the last holds only those needed
        for _ in range(min(max(1, 2048 // ep_len),
                           math.ceil((total_steps - steps_done) / ep_len))):
            z = stimuli[ep_index % len(stimuli)]
            ep_index += 1
            fields = HarmFields.zeros((1, graph.node_count), cfg.field_params)
            batch = EnvBatch.initial(graph, (z,), cfg.field_params.delay)
            policy.reset_memory()
            first = True
            trace = 0.0
            for _ in range(ep_len):
                step, new_fields, [a], [dist], [f] = agent_step(
                    batch, [policy], graph, fields, deform, [rng], ep_len,
                    env_params)
                scar_inc = float(new_fields.H[0].sum() - fields.H[0].sum())
                fields = new_fields
                batch = step.batch
                reward, harm = float(step.reward[0]), float(step.harm[0])
                if mcfg.cost_wiring == "instant":
                    ss_penalty = ss_penalty_update(ss_penalty, harm,
                                                   trainer.lr_dual)
                    reward -= ss_penalty * harm
                elif mcfg.cost_wiring == "delayed_trace":
                    trace = 0.98 * trace + harm
                    reward -= 0.01 * trace
                feats.append(f)
                acts.append(a)
                rews.append(reward)
                gsums.append(float(fields.G[0].sum()))
                hincs.append(scar_inc)
                logps.append(float(np.log(max(dist[a], 1e-300))))
                starts.append(first)
                first = False
                steps_done += 1
        batch = Batch(features=np.array(feats), actions=np.array(acts),
                      rewards=np.array(rews), g_sums=np.array(gsums),
                      h_increments=np.array(hincs),
                      old_logp=np.array(logps),
                      starts=np.array(starts, dtype=bool))
        for _ in range(tr_cfg["epochs_per_batch"]):
            trainer = train_epoch(trainer, batch)
        check_finite(trainer, f"training {mcfg.method} on graph seed "
                              f"{graph.seed} diverged by step {steps_done}")
        if mcfg.cost_wiring == "rapo":
            trainer = dual_update(trainer, batch)
    return policy


# ---------------------------------------------------------------------------
# Suite runner


@dataclass
class MethodOutcome:
    method: str
    metrics: list = field(default_factory=list)        # per-episode dicts
    checkpoint_json: str = ""
    transitions_per_step: int = 0
    # shield_um threshold tuning: theta, achieved, target, diagnostic and
    # the (theta, achieved) of every held-out evaluation; never written
    # to report.csv or manifest.json
    metrics_diag: dict = field(default_factory=dict)


def _episode_seed(master: int, graph_seed: int, ep_index: int) -> int:
    return ((master * 1000003 + graph_seed) * 1000003 + ep_index) % (2 ** 62)


def _checkpoint(mcfg: MethodConfig, graph: DiffusionGraph, cfg: RunConfig,
                checkpoints: dict) -> str:
    """The checkpoint JSON a method evaluates, made on first use: trained
    when training is enabled, else the scripted fallback."""
    key = mcfg.shares_checkpoint_with or mcfg.method
    if key not in checkpoints:
        if cfg.section("training")["enabled"]:
            pol = train_policy(method_config(key), graph, cfg)
        else:
            pol = Policy(kind="scripted", feature_mode=mcfg.feature_mode,
                         scripted_action=cfg.scripted_action)
        checkpoints[key] = pol.to_json(training_config_hash=cfg.hash())
    return checkpoints[key]


def run_episode_batch(cfg: RunConfig, mcfg: MethodConfig,
                      checkpoint_json: str, graph: DiffusionGraph, stimuli,
                      episode_seeds) -> list:
    """The records of a method's episodes on a graph, stepped together.

    Episode b runs stimulus stimuli[b] from seed episode_seeds[b] with its
    own frozen copy of the checkpoint, shielded if the method has a shield.
    """
    policies = []
    for seed in episode_seeds:
        policy = Policy.from_json(checkpoint_json).freeze()
        if mcfg.shield is not None:
            policy = ShieldedPolicy(policy, graph, mcfg.shield,
                                    cfg.env_params, seed)
        policies.append(policy)
    config = replace(cfg.rsd_config,
                     replay_deformation=mcfg.replay_deformation)
    fields = HarmFields.zeros(graph.node_count, cfg.field_params)
    return run_rsd_episodes(config, stimuli, policies, graph, fields,
                            cfg.deform(mcfg.deform_mode, graph),
                            episode_seeds, cfg.env_params)


def run_method_episodes(cfg: RunConfig, mcfg: MethodConfig,
                        checkpoint_json: str, graph: DiffusionGraph) -> list:
    """All episodes of one method on one graph, in episode order: one
    batch of them, or with `workers` > 1 one contiguous chunk per worker."""
    stimuli = cfg.section("rsd")["stimuli"]
    chunks = [c.tolist() for c in np.array_split(np.arange(cfg["episodes"]),
                                                 cfg["workers"]) if c.size]
    zs = [[stimuli[ep % len(stimuli)] for ep in chunk] for chunk in chunks]
    seeds = [[_episode_seed(cfg["master_seed"], graph.seed, ep) for ep in chunk]
             for chunk in chunks]
    n = len(chunks)
    args = ([cfg] * n, [mcfg] * n, [checkpoint_json] * n, [graph] * n, zs, seeds)
    if n == 1:
        return run_episode_batch(*(a[0] for a in args))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n) as ex:
        return [rec for recs in ex.map(run_episode_batch, *args) for rec in recs]


def _report_methods(cfg: RunConfig) -> list:
    """The report's rows in config order; GE, the ReplayRet reference,
    always runs."""
    methods = list(cfg["methods"])
    return methods if "ge" in methods else ["ge"] + methods


def _outcome(cfg: RunConfig, method: str) -> MethodOutcome:
    shield = method_config(method, shield=cfg.shield_params).shield
    return MethodOutcome(method=method, transitions_per_step=(
        0 if shield is None else shield.transitions_per_step))


def _score_batch(cfg: RunConfig, method: str, records,
                 ge_reference: dict) -> list:
    """The per-episode metric dicts of one (method, graph) batch of records,
    in episode index order whatever order the records come in.

    A GE batch first sets its graph's entry of `ge_reference`: the mean
    replay-phase discounted return that ReplayRet on that graph divides by.
    """
    seed = records[0].graph_seed
    first = _episode_seed(cfg["master_seed"], seed, 0)
    records = sorted(records, key=lambda r: (r.episode_seed - first) % 2 ** 62)
    if method == "ge":
        ge_reference[seed] = float(np.mean([
            discounted_return(r.phases["replay"].rewards, cfg.rsd_config.gamma)
            for r in records]))
    return [{**episode_metrics(r, ge_reference=ge_reference.get(seed)),
             "graph_seed": seed} for r in records]


def run_method_suite(cfg: RunConfig, out_dir: str) -> dict:
    """Train (where enabled), freeze, run RSD and report for every method.

    Each (method, graph) batch of records is written, then scored, and
    only its scores are kept. Returns a manifest dict; writes JSONL
    records, checkpoints, and the Table-1-shaped CSV under `out_dir`.
    """
    graphs = [cfg.graph(seed) for seed in cfg.section("graph")["seeds"]]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(cfg.snapshot())

    checkpoints: dict[str, str] = {}
    outcomes: dict[str, MethodOutcome] = {}
    ge_reference: dict[int, float] = {}
    for method in sorted(set(_report_methods(cfg)), key=KNOWN_METHODS.index):
        mcfg = method_config(method, shield=cfg.shield_params)
        outcome = outcomes[method] = _outcome(cfg, method)
        if method == "shield_um":
            target = float(np.mean([m["replay_ret"]
                                    for m in outcomes["rapo"].metrics]))
            theta = _tune_um_threshold(cfg, mcfg, checkpoints, graphs[0],
                                       ge_reference, target, outcome)
            mcfg = replace(mcfg, shield=replace(mcfg.shield, theta=theta))
        for graph in graphs:
            outcome.checkpoint_json = _checkpoint(mcfg, graph, cfg, checkpoints)
            records = run_method_episodes(cfg, mcfg, outcome.checkpoint_json,
                                          graph)
            _write_records(out_dir, cfg["run_id"], method, graph.seed, records)
            outcome.metrics += _score_batch(cfg, method, records, ge_reference)
            del records     # free before the next batch runs

    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_report(fh, cfg, outcomes)
    manifest = {
        "run_id": cfg["run_id"],
        "config_hash": cfg.hash(),
        "graph_seeds": [g.seed for g in graphs],
        "episodes_per_graph": cfg["episodes"],
        "methods": {m: "ok" for m in _report_methods(cfg)},
        "outputs": {"report": csv_path,
                    "records_root": os.path.join(out_dir, cfg["run_id"])},
        "checkpoint_hashes": {
            m: hashlib.sha256(o.checkpoint_json.encode()).hexdigest()
            for m, o in outcomes.items()},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    manifest["outcomes"] = outcomes
    return manifest


def _tune_um_threshold(cfg: RunConfig, mcfg: MethodConfig, checkpoints: dict,
                       graph: DiffusionGraph, ge_reference: dict,
                       target: float, outcome: MethodOutcome) -> float:
    """Tune the shield threshold on held-out episodes to match RAPO's
    replay return."""
    held_cfg = cfg.derive({"episodes": max(2, cfg["episodes"] // 2),
                           "master_seed": cfg["master_seed"] + 7919})
    ckpt = _checkpoint(mcfg, graph, cfg, checkpoints)

    steps = []

    def evaluate(theta):
        tuned = replace(mcfg, shield=replace(mcfg.shield, theta=theta))
        achieved = float(np.mean([m["replay_ret"] for m in _score_batch(
            held_cfg, mcfg.method,
            run_method_episodes(held_cfg, tuned, ckpt, graph), ge_reference)]))
        steps.append((theta, achieved))
        return achieved

    theta, achieved, diag = tune_shield_um(
        evaluate, target, cfg.section("shield")["um_tolerance"])
    outcome.metrics_diag = {"theta": theta, "achieved": achieved,
                            "target": target, "diagnostic": diag,
                            "steps": steps}
    return theta


def read_records(cfg: RunConfig, run_dir: str) -> dict:
    """Score the records a run of `cfg` wrote under `run_dir` as the run
    did, batch by batch: the outcome of each method that has records. A
    record file that cannot be read or parsed, or lies in another graph's
    directory, is a ConfigError naming it."""
    root = os.path.join(run_dir, cfg["run_id"])
    if not os.path.isdir(root):
        raise ConfigError(f"no records under {root}")
    outcomes = {}
    ge_reference: dict[int, float] = {}
    methods = sorted(set(_report_methods(cfg)), key=KNOWN_METHODS.index)
    for method, seed in product(methods, cfg.section("graph")["seeds"]):
        records = []
        for path in glob.glob(os.path.join(root, method, str(seed), "*.jsonl")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    recs = [RsdEpisodeRecord.from_json(line) for line in fh]
            except (OSError, ValueError) as exc:
                raise ConfigError(f"malformed record file {path}: {exc}") from None
            if any(r.graph_seed != seed or not isinstance(r.episode_seed, int)
                   for r in recs):
                raise ConfigError(f"malformed record file {path}: its graph "
                                  "or episode seed does not fit the run")
            records += recs
        if records:
            outcomes.setdefault(method, _outcome(cfg, method)).metrics += \
                _score_batch(cfg, method, records, ge_reference)
    return outcomes


def write_report(fh, cfg: RunConfig, outcomes: dict) -> None:
    """Write the Table-1-shaped CSV of scored outcomes to `fh`: per method
    in config order, one row per graph seed (if there are several) and
    one over all its episodes."""
    pmst_rags = None
    if "pm_st" in outcomes:
        pmst_rags = [m["rag"] for m in outcomes["pm_st"].metrics]
    rows = []
    for method in _report_methods(cfg):
        if method not in outcomes:
            continue
        o = outcomes[method]
        groups = {}
        for m in o.metrics:
            groups.setdefault(m["graph_seed"], []).append(m)
        if len(groups) > 1:
            for gseed in sorted(groups):
                rows.append(_report_row(method, gseed, groups[gseed], "", o))
        p_val = ""
        if pmst_rags is not None and method != "pm_st" and o.metrics:
            p_val = str(welch_ttest([m["rag"] for m in o.metrics], pmst_rags)[1])
        rows.append(_report_row(method, "all", o.metrics, p_val, o))
    writer = csv.writer(fh)
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(rows)


REPORT_COLUMNS = [
    "method", "graph_seed", "episodes", "rag_mean", "rag_std",
    "auc_r_mean", "auc_r_std", "sm_r_mean", "sm_r_std", "replay_ret_mean",
    "asd_mean", "odds_ratio_mean", "rc_exp_mean", "rc_rep_mean",
    "welch_p_vs_pmst", "shield_transitions_per_step",
]


def _report_row(method, gseed, metrics, p_val, outcome):
    def col(key, reducer):
        vals = [m[key] for m in metrics
                if key in m and not (isinstance(m[key], float)
                                     and math.isnan(m[key]))]
        return str(float(reducer(vals))) if vals else ""

    return [
        method, str(gseed), str(len(metrics)),
        col("rag", np.mean), col("rag", np.std),
        col("auc_r", np.mean), col("auc_r", np.std),
        col("sm_r", np.mean), col("sm_r", np.std),
        col("replay_ret", np.mean), col("asd", np.mean),
        col("odds_ratio_mean", np.mean),
        col("rc_exp", np.mean), col("rc_rep", np.mean),
        p_val,
        str(outcome.transitions_per_step),
    ]


def _write_records(out_dir, run_id, method, graph_seed, records) -> None:
    d = os.path.join(out_dir, run_id, method, str(graph_seed))
    os.makedirs(d, exist_ok=True)
    for rec in records:
        p = os.path.join(d, f"{rec.episode_seed}.jsonl")
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(rec.to_json() + "\n")
