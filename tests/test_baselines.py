"""Method registry, shield behavior, and the suite runner."""

import dataclasses
import json
import os

import numpy as np
import pytest

from replaylab.baselines import (ShieldParams, method_config,
                                 run_method_suite, shield_filter,
                                 tune_shield_um)
from replaylab.config import KNOWN_METHODS, load_config
from replaylab.errors import ConfigError
from replaylab.graph_env import Action, EnvParams, generate_graph, initial_state
from replaylab.harm_memory import FieldParams
from replaylab.rng import substream


def test_registry_covers_all_method_ids():
    for m in KNOWN_METHODS:
        assert method_config(m).method == m
    assert len(KNOWN_METHODS) == 11


def test_unknown_method_error_names_the_id():
    with pytest.raises(ConfigError, match="no_such_method"):
        method_config("no_such_method")


def test_structural_identity_of_matched_pair():
    rapo = method_config("rapo")
    pm = method_config("pm_st")
    diff = {
        f.name
        for f in dataclasses.fields(rapo)
        if getattr(rapo, f.name) != getattr(pm, f.name)
    }
    # the matched pair differs only in where the deformation is applied
    assert diff == {"method", "train_deform_mode", "eval_deform_mode"}
    assert pm.train_deform_mode == pm.eval_deform_mode == "off"


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
