"""Method registry, shield behavior, and the suite runner."""

import dataclasses
import json
import os

import numpy as np
import pytest

from replaylab.baselines import (ShieldParams, _checkpoint, method_config,
                                 run_method_episodes, run_method_suite,
                                 shield_filter, tune_shield_um)
from replaylab.config import KNOWN_METHODS, desk_preset, load_config
from replaylab.deformation import DeformationSpec
from replaylab.errors import ConfigError
from replaylab.graph_env import (Action, EnvParams, env_step, generate_graph,
                                 initial_state, nominal_rollouts)
from replaylab.harm_memory import FieldParams, HarmFields
from replaylab.rng import substream


def test_registry_covers_all_method_ids():
    for m in KNOWN_METHODS:
        assert method_config(m).method == m
    assert len(KNOWN_METHODS) == 11


def test_unknown_method_error_names_the_id():
    with pytest.raises(ConfigError, match="no_such_method"):
        method_config("no_such_method")


def test_desk_counterfactual_replays_ge_and_splits_from_rapo_at_replay():
    # on desk, rapo_off_rep's records equal ge's in every phase series and
    # field snapshot; rapo equals rapo_off_rep through exposure and decay
    # and first differs from it at replay step 1
    cfg = load_config(desk_preset(graph={"seeds": [1]}, episodes=2))
    graph = cfg.graph(1)
    runs = {}
    for method in ("ge", "rapo", "rapo_off_rep"):
        mcfg = method_config(method)
        runs[method] = run_method_episodes(
            cfg, mcfg, _checkpoint(mcfg, graph, cfg, {}), graph)
    def lists(rec, phases=("exposure", "decay", "replay")):
        return [rec.phases[p].to_dict() for p in phases]

    for ge, rapo, off in zip(runs["ge"], runs["rapo"], runs["rapo_off_rep"]):
        assert lists(off) == lists(ge)
        assert off.field_snapshots == ge.field_snapshots
        assert lists(rapo, ("exposure", "decay")) \
            == lists(off, ("exposure", "decay"))
        steps = [list(zip(*(v for k, v in d.items() if k != "traj_hash")))
                 for d in (r.phases["replay"].to_dict() for r in (rapo, off))]
        assert [a == b for a, b in zip(*steps)].index(False) == 1


def test_structural_identity_of_matched_pair():
    rapo = method_config("rapo")
    pm = method_config("pm_st")
    diff = {
        f.name
        for f in dataclasses.fields(rapo)
        if getattr(rapo, f.name) != getattr(pm, f.name)
    }
    # the matched pair differs only in where the deformation is applied
    assert diff == {"method", "deform_mode"}
    assert pm.deform_mode == "off"


def test_off_at_replay_variant_shares_training():
    off = method_config("rapo_off_rep")
    assert off.shares_checkpoint_with == "rapo"
    assert off.replay_deformation == "off"
    base = method_config("rapo")
    diff = {
        f.name
        for f in dataclasses.fields(base)
        if getattr(base, f.name) != getattr(off, f.name)
    }
    assert diff == {"method", "replay_deformation", "shares_checkpoint_with"}


GRAPH = generate_graph(50, 1.5, seed=2)


def _state():
    st = initial_state(GRAPH, 1, 10)
    st.active[:3] = True
    st.newly[:3] = True
    return st


def test_shield_permissive_and_failsafe_thresholds():
    allowed, sims = shield_filter(_state(), GRAPH, theta=1e9, n_mc=2,
                                  horizon=5, rng=substream(0, 60),
                                  env_params=EnvParams(),
                                  field_params=FieldParams())
    assert allowed == [0, 1, 2]
    assert sims == 2 * 5 * 3
    allowed, _ = shield_filter(_state(), GRAPH, theta=-1.0, n_mc=2,
                               horizon=5, rng=substream(0, 60),
                               env_params=EnvParams(),
                               field_params=FieldParams())
    assert allowed == [int(Action.CONSERVATIVE)]


def test_shield_transition_accounting():
    assert ShieldParams(n_mc=20, horizon=100).transitions_per_step == 6000
    assert ShieldParams(n_mc=2, horizon=5).transitions_per_step == 30


def test_shield_allowed_sets_nested_in_threshold():
    thresholds = [0.0, 5.0, 20.0, 100.0, 1e9]
    prev = set()
    for theta in thresholds:
        allowed, _ = shield_filter(_state(), GRAPH, theta=theta, n_mc=3,
                                   horizon=8, rng=substream(0, 61),
                                   env_params=EnvParams(),
                                   field_params=FieldParams())
        cur = set(allowed)
        if prev and prev != {int(Action.CONSERVATIVE)}:
            assert prev <= cur
        prev = cur
    assert prev == {0, 1, 2}


def _env_step_mass(state, action, graph, horizon, rng, params, n):
    """Reference estimator: `n` scalar `env_step` rollouts under the
    nominal kernel, each returning its cumulative sensitive mass."""
    off = DeformationSpec(mode="off")
    zero = HarmFields.zeros(graph.node_count, FieldParams())
    mass = np.zeros(n)
    for k in range(n):
        sim = state
        for _ in range(horizon):
            sim = env_step(sim, Action(action), graph, zero, off, rng,
                           params).state
            mass[k] += graph.sensitive[sim.active].sum()
    return mass


def _rollout_case(refire, stimulus_on):
    if refire:
        graph, params = generate_graph(50, 0.8, seed=2), EnvParams()
    else:
        cfg = load_config(desk_preset())
        graph, params = cfg.graph(1), cfg.env_params
    state = initial_state(graph, 3, 10, stimulus_on=stimulus_on)
    if not stimulus_on:
        lit = graph.sensitive_nodes[:3]
        state.active[lit] = state.newly[lit] = True
    return state, graph, params


@pytest.mark.parametrize("refire,stimulus_on,horizon,n", [
    (False, True, 10, 200), (False, False, 10, 200),
    (True, True, 10, 200), (True, False, 10, 200),
    # one step from an empty desk state isolates injection, where an
    # aggressive step adds one out-neighbour per seed drawn in proportion
    # to edge_p (a uniform draw shifts the aggressive mean by about 7 SE)
    (False, True, 1, 2000),
], ids=["fire-once-stimulus-on", "fire-once-stimulus-off",
        "refire-stimulus-on", "refire-stimulus-off", "fire-once-one-step"])
def test_batched_rollouts_match_env_step_rollouts(refire, stimulus_on,
                                                  horizon, n):
    # per action, the batched and the scalar mean sensitive mass agree
    # within 5 standard errors of their difference (exactly, where both
    # are deterministic)
    state, graph, params = _rollout_case(refire, stimulus_on)
    batched = nominal_rollouts(state, np.repeat(np.arange(3), n), graph,
                               horizon, substream(0, 62), params).reshape(3, n)
    for a in range(3):
        ref = _env_step_mass(state, a, graph, horizon, substream(0, 63, a),
                             params, n)
        se = np.sqrt(batched[a].var(ddof=1) / n + ref.var(ddof=1) / n)
        assert abs(batched[a].mean() - ref.mean()) <= 5 * se, (a, se)


@pytest.mark.parametrize("stimulus_on", [True, False],
                         ids=["stimulus-on", "stimulus-off"])
@pytest.mark.parametrize("refire", [False, True], ids=["fire-once", "refire"])
def test_one_rollout_step_equals_env_step(refire, stimulus_on):
    # a single one-step rollout draws from its stream exactly as env_step
    # does under mode off, so both reach the same sensitive count; checked
    # for every action at each state of a 30-step walk
    graph = generate_graph(50, 0.8, seed=2)
    params = EnvParams(k_seed=6, refire=refire)
    off = DeformationSpec(mode="off")
    zero = HarmFields.zeros(graph.node_count, FieldParams())
    state = initial_state(graph, 3, 10)
    walk = substream(0, 65)
    for s in range(30):
        probe = state.copy()
        probe.stimulus_on = stimulus_on
        for a in range(3):
            step = env_step(probe, Action(a), graph, zero, off,
                            substream(s, 66, a), params)
            mass = nominal_rollouts(probe, [a], graph, 1,
                                    substream(s, 66, a), params)
            assert mass.tolist() == [graph.sensitive[step.state.active].sum()]
        state = env_step(state, Action(int(walk.integers(3))), graph, zero,
                         off, walk, params).state


def test_shield_filter_at_paper_defaults():
    allowed, sims = shield_filter(_state(), GRAPH, theta=10.0, n_mc=20,
                                  horizon=100, rng=substream(0, 64),
                                  env_params=EnvParams(),
                                  field_params=FieldParams())
    assert sims == 6000
    assert allowed and set(allowed) <= {0, 1, 2}


def test_tune_shield_um_converges_on_monotone_response():
    calls = []

    def evaluate(theta):
        calls.append(theta)
        return min(1.0, theta / 100.0)

    theta, achieved, diag = tune_shield_um(evaluate, 0.5, tolerance=0.05,
                                           bracket=(0.0, 1000.0))
    assert diag == ""
    assert abs(achieved - 0.5) <= 0.05
    assert len(calls) <= 2 + 12


def test_tune_shield_um_boundary_diagnostics():
    theta, achieved, diag = tune_shield_um(lambda t: 0.3, 0.9, tolerance=0.05)
    assert "boundary" in diag and theta == 1e6
    theta, achieved, diag = tune_shield_um(lambda t: 0.9, 0.3, tolerance=0.05)
    assert "boundary" in diag and theta == 0.0


@pytest.mark.parametrize("steps,expected", [(1, 20), (250, 260)])
def test_train_policy_runs_only_the_episodes_it_needs(monkeypatch, steps,
                                                      expected):
    # batches hold 2048 // 20 = 102 episodes; the last is cut to the
    # ceil(remaining / episode_len) episodes the step budget needs
    from replaylab import baselines, rsd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return env_step(*args, **kwargs)

    # training steps through the shared step, which calls rsd.env_step
    monkeypatch.setattr(rsd, "env_step", counted)
    cfg = load_config(desk_preset(training={"enabled": True, "steps": steps,
                                            "episode_len": 20}))
    baselines.train_policy(method_config("rapo"), cfg.graph(1), cfg)
    assert len(calls) == expected


@pytest.mark.parametrize("steps", [1, 250])
def test_train_policy_runs_each_episode_as_one_phase_loop_call(monkeypatch,
                                                               steps):
    # each training episode is one call of the RSD phase loop: one copy
    # for episode_len steps, ceil(steps / episode_len) calls in all
    from replaylab import baselines, rsd
    calls = []

    def counted(batch, policies, graph, fields, deform, rngs, n, env_params):
        calls.append((len(policies), batch.active.shape[0], n))
        return rsd.step_phase(batch, policies, graph, fields, deform, rngs,
                              n, env_params)

    monkeypatch.setattr(baselines, "step_phase", counted)
    cfg = load_config(desk_preset(training={"enabled": True, "steps": steps,
                                            "episode_len": 20}))
    baselines.train_policy(method_config("rapo"), cfg.graph(1), cfg)
    assert calls == [(1, 1, 20)] * -(-steps // 20)


@pytest.mark.parametrize("method", ["rapo", "pm_window", "ss", "ge", "dr"])
def test_train_policy_weights_pinned(method):
    # 400 steps on desk graph 1 (20 episodes of 20 steps); a change meant to
    # preserve behaviour must leave the trained weights unchanged, bit for
    # bit. The methods cover every cost wiring (rapo, none, instant,
    # delayed_trace) and both feature modes, with and without a window
    from replaylab.baselines import train_policy
    path = os.path.join(os.path.dirname(__file__), "pinned_train_weights.json")
    with open(path, encoding="utf-8") as fh:
        pinned = json.load(fh)[method]
    cfg = load_config(desk_preset(training={"enabled": True, "steps": 400,
                                            "episode_len": 20}))
    policy = train_policy(method_config(method), cfg.graph(1), cfg)
    assert policy.weights.tolist() == pinned


def test_train_policy_stops_when_weights_diverge(monkeypatch, tmp_path,
                                                 capsys):
    # with a value step of 1e300 the value weights overflow in the first
    # batch; training ends with a ProtocolError naming the method, graph
    # seed and step (the CLI exits 3) instead of drawing from a NaN
    # distribution
    import functools

    from replaylab import baselines
    from replaylab.cli import main
    from replaylab.errors import ProtocolError
    from replaylab.training import TrainerState
    monkeypatch.setattr(baselines, "TrainerState",
                        functools.partial(TrainerState, vf_lr=1e300))
    over = {"training": {"enabled": True, "steps": 40, "episode_len": 20}}
    cfg = load_config(desk_preset(**over))
    with np.errstate(all="ignore"):
        with pytest.raises(ProtocolError,
                           match="rapo on graph seed 1 diverged by step 40"):
            baselines.train_policy(method_config("rapo"), cfg.graph(1), cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(desk_preset(**over)))
        rc = main(["train", "--config", str(path), "--method", "rapo",
                   "--out", str(tmp_path / "ckpt.json")])
    assert rc == 3
    assert "diverged by step 40" in capsys.readouterr().err


def _tiny_cfg(tmp_path, **over):
    base = {
        "graph": {"nodes": 50, "branching": 3.0, "seeds": [1]},
        "rsd": {"t_exp": 15, "t_decay": 5, "t_rep": 15},
        "fields": {"delay": 5},
        "episodes": 3,
        "methods": ["ge", "rapo", "rapo_off_rep"],
    }
    base.update(over)
    return load_config(base)


def test_suite_shared_checkpoint_hash_equality(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    man = run_method_suite(cfg, str(tmp_path / "run"))
    hashes = man["checkpoint_hashes"]
    assert hashes["rapo"] == hashes["rapo_off_rep"]
    assert os.path.exists(tmp_path / "run" / "report.csv")
    assert os.path.exists(tmp_path / "run" / "manifest.json")


def test_suite_ge_reference_normalizes_to_one(tmp_path):
    cfg = _tiny_cfg(tmp_path, methods=["ge"])
    man = run_method_suite(cfg, str(tmp_path / "run"))
    rets = [m["replay_ret"] for m in man["outcomes"]["ge"].metrics]
    assert np.mean(rets) == pytest.approx(1.0, abs=1e-9)


def test_suite_record_layout_and_manifest(tmp_path):
    cfg = _tiny_cfg(tmp_path, methods=["ge"])
    out = str(tmp_path / "run")
    man = run_method_suite(cfg, out)
    root = man["outputs"]["records_root"]
    files = sorted(os.listdir(os.path.join(root, "ge", "1")))
    assert len(files) == 3 and all(f.endswith(".jsonl") for f in files)
    with open(os.path.join(root, "ge", "1", files[0])) as fh:
        rec = json.loads(fh.readline())
    assert set(rec["phases"]) == {"exposure", "decay", "replay"}
    with open(os.path.join(out, "manifest.json")) as fh:
        saved = json.load(fh)
    assert saved["config_hash"] == cfg.hash()
    assert saved["graph_seeds"] == [1]


def test_shrunk_desk_report_hash_pinned(tmp_path, monkeypatch):
    # the desk suite at 2 graphs x 2 episodes of 20/5/20 steps; a change
    # meant to preserve behaviour must leave this report byte-identical
    import hashlib
    from replaylab.config import desk_preset
    monkeypatch.delenv("REPLAYLAB_SEED", raising=False)
    cfg = load_config(desk_preset(graph={"seeds": [1, 2]}, episodes=2,
                                  rsd={"t_exp": 20, "t_decay": 5, "t_rep": 20}))
    assert cfg["methods"] == ["ge", "pm_st", "rapo", "rapo_off_rep"]
    run_method_suite(cfg, str(tmp_path / "run"))
    digest = hashlib.sha256((tmp_path / "run" / "report.csv").read_bytes())
    assert digest.hexdigest() == ("b6d3478a8bfe6296c0ac599711f39003"
                                  "e030ad2f648d274b4cd18c748830ec2b")


def test_shield_um_tuning_trace_kept_out_of_report(tmp_path):
    cfg = load_config({
        "graph": {"nodes": 20, "seeds": [1]},
        "rsd": {"t_exp": 4, "t_decay": 2, "t_rep": 4},
        "fields": {"delay": 1}, "shield": {"n_mc": 2, "horizon": 3},
        "episodes": 2, "methods": ["ge", "rapo", "shield_um"]})
    out = tmp_path / "run"
    man = run_method_suite(cfg, str(out))
    diag = man["outcomes"]["shield_um"].metrics_diag
    assert diag["steps"] and (diag["theta"], diag["achieved"]) in diag["steps"]
    assert {t for t, _ in diag["steps"][:2]} <= {0.0, 1e6}
    for name in ("report.csv", "manifest.json"):
        text = (out / name).read_text()
        assert "diagnostic" not in text and "achieved" not in text


def test_suite_record_lines_round_trip_and_score_alike(tmp_path, monkeypatch):
    # every record line a shrunk desk suite writes reads back to a record
    # that writes the same line, and scores as the record it was written
    # from, metric by metric
    from replaylab import baselines
    from replaylab.metrics import episode_metrics
    from replaylab.rsd import RsdEpisodeRecord
    written = []

    def keep(out_dir, run_id, method, graph_seed, records):
        written.extend((method, r) for r in records)
        write(out_dir, run_id, method, graph_seed, records)

    write = baselines._write_records
    monkeypatch.setattr(baselines, "_write_records", keep)
    cfg = load_config(desk_preset(graph={"seeds": [1]}, episodes=2,
                                  rsd={"t_exp": 20, "t_decay": 5, "t_rep": 20}))
    run_method_suite(cfg, str(tmp_path / "run"))
    assert len(written) == 8
    assert any(r.phases["replay"].scar_count.any() for _, r in written)
    for method, rec in written:
        path = tmp_path / "run" / "run" / method / "1" / f"{rec.episode_seed}.jsonl"
        line = path.read_text(encoding="utf-8")
        assert line.endswith("\n") and line.count("\n") == 1
        back = RsdEpisodeRecord.from_json(line[:-1])
        assert back.to_json() == line[:-1] == rec.to_json()
        ours, theirs = episode_metrics(rec, 2.0), episode_metrics(back, 2.0)
        assert list(ours) == list(theirs)
        for key, value in ours.items():
            assert type(theirs[key]) is type(value)
            assert np.array([theirs[key]]).tobytes() == np.array([value]).tobytes()
