"""Three-phase episode protocol: resets, pairing, persistence."""

import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from replaylab.baselines import ShieldedPolicy
from replaylab.config import ShieldParams
from replaylab.deformation import DeformationSpec
from replaylab.errors import ProtocolError
from replaylab.graph_env import EnvParams, frontier_mask, generate_graph
from replaylab.harm_memory import FieldParams, HarmFields
from replaylab.policies import Policy
from replaylab import policies as policy_module, rsd
from replaylab.rsd import (PhaseSeries, RsdConfig, RsdEpisodeRecord,
                           run_rsd_episode, run_rsd_episodes, scar_evolution)

GRAPH = generate_graph(50, 1.5, seed=1)
ARC_GRAPH = generate_graph(50, 3.0, seed=1, locality=1.0, sens_style="arc",
                           sens_fraction=0.24)
ARC_ENV = EnvParams(k_seed=6, seed_pool="core", refire=False, reward="log")
FULL = DeformationSpec(psi_min=0.001)
OFF = DeformationSpec(mode="off")


def _policy(kind="softmax", **kw):
    return Policy(kind=kind, **kw).freeze()


def _frontier_regions(state, graph, refire):
    """Reference frontier of one copy: the sorted inactive regions that an
    edge points into from an active node (refire) or a newly active one."""
    fire = state.active if refire else state.newly
    hit = fire[graph.edge_src] & ~state.active[graph.edge_dst]
    return np.unique(graph.edge_dst[hit])


def _fields(graph, **kw):
    return HarmFields.zeros(graph.node_count, FieldParams(**kw))


def _run(config, graph=GRAPH, policy=None, deform=OFF, env=None, seed=7,
         **fkw):
    return run_rsd_episode(config, policy or _policy(), graph,
                           _fields(graph, **fkw), deform, seed,
                           env or EnvParams())


def test_paired_streams_bit_identical_without_deformation():
    cfg = RsdConfig(t_exp=40, t_decay=10, t_rep=40, rng_mode="paired")
    rec = _run(cfg)
    assert rec.phases["replay"].traj_hash == rec.phases["exposure"].traj_hash
    assert rec.phases["replay"].reach == rec.phases["exposure"].reach


def test_paired_with_field_reset_matches_under_deformation():
    cfg = RsdConfig(t_exp=60, t_decay=10, t_rep=60, rng_mode="paired",
                    field_reset="reset")
    rec = _run(cfg, graph=ARC_GRAPH, deform=FULL, env=ARC_ENV,
               delay=10, alpha=2.0, eta=0.3)
    assert rec.phases["replay"].traj_hash == rec.phases["exposure"].traj_hash
    # with fields persisting, the scarred kernel diverges
    cfg_p = RsdConfig(t_exp=60, t_decay=10, t_rep=60, rng_mode="paired")
    rec_p = _run(cfg_p, graph=ARC_GRAPH, deform=FULL, env=ARC_ENV,
                 delay=10, alpha=2.0, eta=0.3)
    assert rec_p.phases["replay"].traj_hash != rec_p.phases["exposure"].traj_hash


def test_unfrozen_policy_rejected():
    cfg = RsdConfig(t_exp=5, t_decay=5, t_rep=5)
    with pytest.raises(ProtocolError):
        run_rsd_episode(cfg, Policy(kind="softmax"), GRAPH, _fields(GRAPH),
                        OFF, 0)


def test_start_fields_are_one_copy():
    # one copy's fields start an episode as [N] or as (1, N); any other
    # shape is refused, naming it
    cfg = RsdConfig(t_exp=8, t_decay=3, t_rep=8)
    start = _fields(ARC_GRAPH, delay=3)
    start.G[:] = np.random.default_rng(60).uniform(0, 1, 50)
    recs = [run_rsd_episode(cfg, _policy(feature_mode="augmented"),
                            ARC_GRAPH, f, FULL, 7, ARC_ENV).to_json()
            for f in (start, HarmFields(G=start.G[None], H=start.H[None],
                                        params=start.params))]
    assert recs[0] == recs[1]
    wide = HarmFields.zeros((2, 50), start.params)
    with pytest.raises(ValueError, match=r"\(2, 50\)"):
        run_rsd_episode(cfg, _policy(), ARC_GRAPH, wide, FULL, 7, ARC_ENV)
    with pytest.raises(ValueError, match=r"\(49,\)"):
        run_rsd_episode(cfg, _policy(), ARC_GRAPH,
                        HarmFields.zeros(49, start.params), FULL, 7, ARC_ENV)


def test_observable_reset_between_phases():
    cfg = RsdConfig(t_exp=30, t_decay=10, t_rep=30)
    rec = _run(cfg)
    # decay continues from exposure's active set; replay restarts from zero
    assert rec.phases["decay"].reach[0] >= rec.phases["exposure"].reach[-1]
    assert rec.phases["replay"].reach[0] <= rec.phases["exposure"].reach[0] + 10


def test_fields_persist_across_replay_but_reset_ablation_zeroes_them():
    cfg = RsdConfig(t_exp=60, t_decay=10, t_rep=60)
    rec = _run(cfg, graph=ARC_GRAPH, deform=FULL, env=ARC_ENV,
               delay=10, alpha=2.0, eta=0.3)
    assert rec.field_snapshots["after_decay"]["h_sum"] > 0
    assert rec.phases["replay"].h_sum[0] >= \
        rec.field_snapshots["after_decay"]["h_sum"] - 1e-12
    cfg_r = RsdConfig(t_exp=60, t_decay=10, t_rep=60, field_reset="reset")
    rec_r = _run(cfg_r, graph=ARC_GRAPH, deform=FULL, env=ARC_ENV,
                 delay=10, alpha=2.0, eta=0.3)
    assert rec_r.phases["replay"].g_sum[0] <= 2.0 + 1e-12  # fresh fields


def test_truncated_buffer_blocks_replay_attribution():
    # with the delay buffer truncated and t_rep < delay, no harm can be
    # attributed during replay, so the trace only decays
    cfg = RsdConfig(t_exp=60, t_decay=10, t_rep=20, truncate_buffer=True)
    rec = _run(cfg, graph=ARC_GRAPH, deform=FULL, env=ARC_ENV,
               delay=30, alpha=2.0, eta=0.3)
    g = rec.phases["replay"].g_sum
    assert all(b <= a + 1e-12 for a, b in zip(g, g[1:]))


def test_counterfactual_replay_reaches_at_least_as_far():
    inh, off = [], []
    for seed in range(15):
        kw = dict(graph=ARC_GRAPH, deform=FULL, env=ARC_ENV, seed=seed,
                  delay=10, alpha=2.0, eta=0.3)
        a = _run(RsdConfig(t_exp=60, t_decay=10, t_rep=60), **kw)
        b = _run(RsdConfig(t_exp=60, t_decay=10, t_rep=60,
                           replay_deformation="off"), **kw)
        inh.append(sum(a.phases["replay"].reach))
        off.append(sum(b.phases["replay"].reach))
        assert b.counterfactual and not a.counterfactual
    assert np.mean(off) >= np.mean(inh)


def test_record_round_trip():
    cfg = RsdConfig(t_exp=10, t_decay=5, t_rep=10)
    rec = _run(cfg)
    d = rec.to_dict()
    again = RsdEpisodeRecord.from_dict(d)
    assert again.to_dict() == d


def test_scar_evolution_rows():
    cfg = RsdConfig(t_exp=10, t_decay=5, t_rep=10)
    rec = _run(cfg, graph=ARC_GRAPH, deform=FULL, env=ARC_ENV,
               delay=5, alpha=2.0, eta=0.3)
    rows = scar_evolution(rec)
    assert len(rows) == 25
    assert [r["step"] for r in rows] == list(range(25))
    assert all(len(r["top_scar_regions"]) <= 10 for r in rows)
    assert rows[-1]["h_sum"] == rec.field_snapshots["after_replay"]["h_sum"]


def test_policy_weights_unchanged_and_hash_recorded():
    pol = _policy()
    h = pol.weight_hash()
    rec = _run(RsdConfig(t_exp=10, t_decay=5, t_rep=10), policy=pol)
    assert rec.policy_hash == h == pol.weight_hash()


def test_policy_evaluated_once_per_step(monkeypatch):
    # one batch pass per step: features, distributions and memory once
    # each, and none of the one-row methods
    calls = Counter()

    def count(owner, name):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)

    for name in ("features", "action_distribution", "sample_action",
                 "remember"):
        count(Policy, name)
    for name in ("batch_features", "batch_distributions"):
        count(policy_module, name)
    _run(RsdConfig(t_exp=10, t_decay=5, t_rep=10),
         policy=_policy(kind="window", window=3))
    assert calls == {"batch_features": 25, "batch_distributions": 25,
                     "remember": 25}


@pytest.mark.parametrize("kind", ["scripted", "softmax"])
def test_observations_built_only_when_read(monkeypatch, kind):
    # a scripted batch (here of augmented policies, as rapo's scripted
    # fallback is) reads no observation: its steps build neither the
    # observations nor the field summaries
    calls = Counter()
    for name in ("observe_batch", "field_features_batch"):
        def counted(*args, _fn=getattr(rsd, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(rsd, name, counted)
    policies = [_policy(kind=kind, feature_mode="augmented",
                        **({"scripted_action": 1} if kind == "scripted"
                           else {})) for _ in range(3)]
    run_rsd_episodes(RsdConfig(t_exp=10, t_decay=5, t_rep=10), [1, 5, 12],
                     policies, ARC_GRAPH, _fields(ARC_GRAPH), FULL, [7, 8, 9],
                     ARC_ENV)
    steps = 25 if kind == "softmax" else 0
    assert calls["observe_batch"] == calls["field_features_batch"] == steps


def test_config_validation():
    with pytest.raises(ValueError):
        RsdConfig(t_exp=0)
    with pytest.raises(ValueError):
        RsdConfig(rng_mode="sideways")
    with pytest.raises(ValueError):
        RsdConfig(replay_deformation="sometimes")
    with pytest.raises(ValueError):
        RsdConfig(field_reset="maybe")


# Phase trajectory hashes of one episode of an augmented softmax policy under
# full deformation, bare and shielded, and bare under top-k and local
# deformation (which gate only some destinations of the injection
# categoricals and diffusion edges); a change meant to preserve behaviour
# must leave them unchanged. All three actions occur in the exposure and
# replay phases of each.
PINNED_ENV = EnvParams(refire=False)
PINNED_DEFORM = {
    "bare": FULL, "shielded": FULL,
    "topk": FULL.with_mode("topk", k=1),
    "local": FULL.with_mode("local", local_regions=frozenset(
        int(s) for s in GRAPH.sensitive_nodes[::3])),
}
PINNED_HASHES = {
    "bare": ["f14d19b5119322ee3a9f677e8307092fe58ffc2ecf3965d87b50c88be7431ffa",
             "00c3268298ab192e64239ba0fadde07c76b03b930828474b75079b3efdb59ae7",
             "e72a93be675cb47d91a40fab9c9021a045f41b1991e7912db1e269c9b9540946"],
    "shielded": ["901558f9d78145fc4df106a2b1c0b67a19a527e222fdb6b8f14a8d8ffa070d66",
                 "f1040130efe528722c0da20dd7ecfd8e5d39a8d6f7f7edfdc20903ab283c00b4",
                 "314b5d668c2e0f612cc82e9e8c9be5a2ba7bcbfc0a88c132947a144e76c6890a"],
    "topk": ["f14d19b5119322ee3a9f677e8307092fe58ffc2ecf3965d87b50c88be7431ffa",
             "00c3268298ab192e64239ba0fadde07c76b03b930828474b75079b3efdb59ae7",
             "65cab474da6b71f099a71b6629004c8d81e1903fe668408129cd9ae48d4f1116"],
    "local": ["f14d19b5119322ee3a9f677e8307092fe58ffc2ecf3965d87b50c88be7431ffa",
              "00c3268298ab192e64239ba0fadde07c76b03b930828474b75079b3efdb59ae7",
              "6069fede78fe854febda2dddaf22ab48ba386a18a83c3184ee02fe17232c34ba"],
}


@pytest.mark.parametrize("wrap", ["bare", "shielded", "topk", "local"])
def test_augmented_episode_traj_hashes_pinned(wrap):
    w = 0.1 * np.random.default_rng(5).standard_normal((3, 10))
    policy = _policy(feature_mode="augmented", weights=w)
    if wrap == "shielded":
        policy = ShieldedPolicy(policy, GRAPH,
                                ShieldParams(theta=30.0, n_mc=2, horizon=5),
                                PINNED_ENV, 7)
    rec = _run(RsdConfig(t_exp=60, t_decay=10, t_rep=60), policy=policy,
               deform=PINNED_DEFORM[wrap], env=PINNED_ENV, delay=10)
    assert [rec.phases[p].traj_hash for p in ("exposure", "decay", "replay")] \
        == PINNED_HASHES[wrap]


# sha256 of one whole record (json.dumps(rec.to_dict(), sort_keys=True),
# without the record's schema version) on GRAPH: rewards, odds, action
# distributions, field sums and scar_top are pinned to the bit, not only the
# active sets and actions. A change meant to preserve behaviour must leave
# them unchanged.
PINNED_RECORDS = {
    "paired": "e51daba1cd59355d5053e03b565e28cd4221afa82176fe7e61f5d9c62cf5ffd4",
    "shielded": "43460adeb8ba715ea7b7d13058543e8ad26cae024fc81f76bd5b50671df90e3c",
    "window": "943a56d14f7ff31fd50e1d360ca771dcfcacfae41f8d86fb9ecda682011d2e02",
}


def _pinned_record_episode(case):
    w = 0.1 * np.random.default_rng(5).standard_normal((3, 10))
    augmented = _policy(feature_mode="augmented", weights=w)
    if case == "paired":
        return _run(RsdConfig(t_exp=60, t_decay=10, t_rep=60,
                              rng_mode="paired"),
                    policy=augmented, deform=FULL, env=PINNED_ENV, delay=10)
    if case == "shielded":
        policy = ShieldedPolicy(augmented, GRAPH,
                                ShieldParams(theta=30.0, n_mc=2, horizon=5),
                                PINNED_ENV, 7)
        return _run(RsdConfig(t_exp=60, t_decay=10, t_rep=60), policy=policy,
                    deform=FULL, env=PINNED_ENV, delay=10)
    window = _policy(kind="window", window=3,
                     weights=0.1 * np.random.default_rng(6).standard_normal((3, 13)))
    return _run(RsdConfig(t_exp=60, t_decay=10, t_rep=60,
                          replay_deformation="off", field_reset="reset",
                          truncate_buffer=True),
                policy=window, deform=FULL, env=PINNED_ENV, delay=10)


@pytest.mark.parametrize("case", sorted(PINNED_RECORDS))
def test_episode_record_pinned(case):
    d = _pinned_record_episode(case).to_dict()
    d.pop("schema", None)
    text = json.dumps(d, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_RECORDS[case]


# sha256 of json.dumps(rec.to_dict()) for the two records of one batch of
# augmented-policy episodes on ARC_GRAPH (stimuli 1 and 5): the bytes of a
# record file line, key order and schema included. A change meant to
# preserve behaviour must leave them unchanged.
PINNED_BATCH_RECORDS = [
    "5c64f0931b4e2a30b0a442e4cd4f64ad4d692f42d776d27bebba9d7d7b0d84e0",
    "9781614a2a8337872a3c55d7d3ab59045213fc3bdf6adab4d26326131c6ff1ed",
]


def test_batched_record_bytes_pinned():
    w = 0.1 * np.random.default_rng(5).standard_normal((3, 10))
    records = run_rsd_episodes(
        RsdConfig(t_exp=30, t_decay=10, t_rep=30, gamma=0.9), [1, 5],
        [_policy(feature_mode="augmented", weights=w) for _ in range(2)],
        ARC_GRAPH, _fields(ARC_GRAPH, delay=10, alpha=2.0, eta=0.3), FULL,
        [7, 8], ARC_ENV)
    assert records[0].field_snapshots["after_replay"]["top_scar_regions"]
    assert [hashlib.sha256(json.dumps(r.to_dict()).encode()).hexdigest()
            for r in records] == PINNED_BATCH_RECORDS


def _batch_policies(kind, seeds):
    """Fresh frozen policies, one per episode seed."""
    w = 0.1 * np.random.default_rng(5).standard_normal((3, 10))
    if kind == "scripted":
        return [_policy(kind="scripted", scripted_action=a)
                for a in (0, 1, 2, 0)[:len(seeds)]]
    if kind in ("window", "shielded-window"):
        ww = 0.1 * np.random.default_rng(6).standard_normal((3, 13))
        policies = [_policy(kind="window", window=3, weights=ww) for _ in seeds]
    else:
        policies = [_policy(feature_mode="augmented", weights=w) for _ in seeds]
    if kind.startswith("shielded"):
        # at theta 55 the window policy's own choice decides most steps
        theta = 55.0 if kind == "shielded-window" else 30.0
        policies = [ShieldedPolicy(p, ARC_GRAPH,
                                   ShieldParams(theta=theta, n_mc=2, horizon=5),
                                   ARC_ENV, seed)
                    for p, seed in zip(policies, seeds)]
    return policies


@pytest.mark.parametrize("kind,switch", [
    ("scripted", {}), ("augmented", {}), ("window", {}), ("shielded", {}),
    ("augmented", {"rng_mode": "paired"}),
    ("augmented", {"replay_deformation": "off"}),
    ("augmented", {"field_reset": "reset"}),
    ("window", {"truncate_buffer": True}),
    ("shielded-window", {}),
], ids=["scripted", "augmented", "window", "shielded", "paired",
        "replay-off", "field-reset", "truncate-buffer", "shielded-window"])
def test_batched_episodes_equal_one_at_a_time(kind, switch):
    # four episodes with mixed stimuli stepped as one batch give the
    # records that four lone episodes give
    seeds, stimuli = [7, 8, 9, 10], [1, 5, 5, 12]
    config = RsdConfig(t_exp=40, t_decay=10, t_rep=40, **switch)
    fields = _fields(ARC_GRAPH, delay=10, alpha=2.0, eta=0.3)
    batched = run_rsd_episodes(config, stimuli, _batch_policies(kind, seeds),
                               ARC_GRAPH, fields, FULL, seeds, ARC_ENV)
    lone = _batch_policies(kind, seeds)
    if kind == "shielded-window":
        # a stale history in the lone windows, which the exposure reset
        # of the shielded policy must clear
        for p in lone:
            p.remember(np.ones(4))
    alone = [run_rsd_episode(replace(config, z=z), p, ARC_GRAPH, fields, FULL,
                             s, ARC_ENV)
             for z, p, s in zip(stimuli, lone, seeds)]
    assert [r.to_dict() for r in batched] == [r.to_dict() for r in alone]
    assert len({r.phases["replay"].traj_hash for r in batched}) > 1
    if kind == "shielded-window":
        # the shielded policy remembered the replay's last observations
        assert all(p.features(np.zeros(4))[4:-1].any() for p in lone)


def test_observe_and_field_features_batched_rows_equal_one_copy():
    # along a four-copy walk with mixed stimuli and actions, every row of
    # the batched observation and field features equals its one-copy value
    from replaylab.graph_env import (EnvBatch, env_steps, observe,
                                     observe_batch)
    from replaylab.policies import field_features, field_features_batch
    rng = np.random.default_rng(11)
    stimuli = (1, 5, 5, 12)
    batch = EnvBatch.initial(ARC_GRAPH, stimuli, 10)
    rngs = [np.random.default_rng(s) for s in range(4)]
    for t in range(30):
        fields = HarmFields(G=rng.uniform(0, 2, (4, 50)),
                            H=rng.uniform(0, 1, (4, 50)),
                            params=FieldParams(delay=10))
        obs = observe_batch(batch, ARC_GRAPH, 30, ARC_ENV)
        feats = field_features_batch(fields, FULL, frontier_mask(
            batch, ARC_GRAPH, ARC_ENV.refire))
        for b in range(4):
            state = batch.episode(b)
            one = HarmFields(G=fields.G[b], H=fields.H[b], params=fields.params)
            assert np.array_equal(obs[b], observe(state, ARC_GRAPH, 30, ARC_ENV))
            assert np.array_equal(feats[b], field_features(
                one, FULL, _frontier_regions(state, ARC_GRAPH, ARC_ENV.refire)))
        batch = env_steps(batch, rng.integers(3, size=4).tolist(), ARC_GRAPH,
                          fields, FULL, rngs, ARC_ENV).batch
    assert batch.active.sum(axis=1).min() > 0


def test_record_schema_version():
    # records carry schema 1; one written without it reads as 1, and any
    # other value is rejected
    d = _run(RsdConfig(t_exp=5, t_decay=5, t_rep=5)).to_dict()
    assert d["schema"] == 1
    legacy = json.loads(json.dumps({k: v for k, v in d.items()
                                    if k != "schema"}))
    again = RsdEpisodeRecord.from_dict(legacy).to_dict()
    assert json.dumps(again) == json.dumps(d)
    for bad in (2, "1", True, None):
        with pytest.raises(ValueError, match="schema"):
            RsdEpisodeRecord.from_dict({**d, "schema": bad})


def _elementwise_series_types():
    # the record type rules as per-element predicates, one call per number
    def is_int(v):
        return type(v) is int and -2 ** 63 <= v < 2 ** 63

    def is_real(v):
        try:
            return type(v) in (int, float) and math.isfinite(float(v))
        except OverflowError:
            return False

    def rows(n):
        return lambda v: len(v) == n and all(map(is_real, v))

    def scar_row(v):
        try:
            return len(v) <= 10 and all(
                len(p) == 2 and is_int(p[0]) and p[0] >= 0
                and type(p[1]) is float and is_real(p[1]) and p[1] > 0
                for p in v)
        except (TypeError, KeyError):
            return False

    def each(ok):
        return lambda series: all(map(ok, series))

    preds = {"odds": rows(4), "action_dists": rows(3), "scar_top": scar_row}
    return {name: (what, each({"64-bit integers": is_int,
                               "finite numbers": is_real}.get(what) or
                              preds[name]))
            for name, (what, _) in rsd._SERIES_TYPES.items()}


_ODD_VALUES = [0, -3, 2 ** 63, 10 ** 400, -(10 ** 400), 1.5, -0.0, 1e308,
               float("nan"), float("inf"), -float("inf"), True, False, "1",
               None, [1], {}, np.float64(0.5), np.int64(2)]


def _series(steps=6):
    d = {"reach": [3] * steps, "sens": [1] * steps, "actions": [0] * steps,
         "radius": [2] * steps, "rewards": [0.25] * steps,
         "g_sum": [1] * steps, "h_sum": [0.5] * steps,
         "odds": [[0.1, 0.9, 0, 1.0]] * steps,
         "action_dists": [[0.2, 0.3, 0.5]] * steps,
         "scar_top": [[]] * steps, "traj_hash": "x"}
    return json.loads(json.dumps(d))


def _fuzzed_series(rng, steps=6):
    d = _series(steps)
    for _ in range(int(rng.integers(0, 4))):
        name = list(rsd._SERIES_TYPES)[int(rng.integers(9))]
        odd = _ODD_VALUES[int(rng.integers(len(_ODD_VALUES)))]
        i = int(rng.integers(steps))
        row = d[name][i]
        if type(row) is list and row and rng.random() < 0.7:
            if rng.random() < 0.2:
                row.pop()
            else:
                row[int(rng.integers(len(row)))] = odd
        elif name in ("odds", "action_dists") and rng.random() < 0.5:
            d[name][i] = [None, "ab", {"a": 1, "b": 2, "c": 3}, 7][
                int(rng.integers(4))]
        else:
            d[name][i] = odd
    return d


def _outcome(d):
    try:
        PhaseSeries.from_dict(d)
        return "accepted"
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def test_series_type_checks_match_elementwise_predicates(monkeypatch):
    # fuzzed phase series are accepted or rejected, with the same error,
    # exactly as the one-call-per-number predicates decide
    rng = np.random.default_rng(11)
    cases = [_fuzzed_series(rng) for _ in range(3000)]
    cases += [{**_fuzzed_series(rng), "rewards": v} for v in (
        [10 ** 400, float("nan")] * 3, [float("nan"), 10 ** 400] * 3,
        [10 ** 400, 1.0] * 3, [1, 2.5, -(10 ** 400)] * 2)]
    cases += [{**_series(), "reach": v} for v in (
        [2 ** 63 - 1, -2 ** 63] * 3, [1, 2 ** 63] * 3, [-2 ** 63 - 1, 1] * 3)]
    cases += [{**_series(), "scar_top": [v] * 6} for v in (
        [[0, 0.5]] * 10, [[0, 0.5]] * 11, [[3, 1.5], (7, 0.25)], ["x"],
        [[0, 1]], [[-1, 0.5]], [[0, 0.0]], [[0, float("inf")]],
        [[2 ** 63, 0.5]], [[0, 0.5, 1]], [[True, 0.5]], [3], None, "ab",
        [{"a": 1, "b": 0.5}], [[1.0, 0.5]])]
    fast = [_outcome(d) for d in cases]
    monkeypatch.setattr(rsd, "_SERIES_TYPES", _elementwise_series_types())
    assert [_outcome(d) for d in cases] == fast
    assert 500 < fast.count("accepted") < 2500
    assert len(set(fast)) > 10
