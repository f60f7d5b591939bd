"""Command-line interface: subcommands, exit codes, reproducibility."""

import csv
import hashlib
import json
import os
import random

import pytest

from replaylab import baselines
from replaylab.baselines import method_config
from replaylab.cli import main
from replaylab.config import desk_preset, load_config
from replaylab.graph_env import DiffusionGraph, generate_graph
from replaylab.policies import Policy

TINY = {
    "graph": {"nodes": 50, "branching": 3.0, "seeds": [1]},
    "rsd": {"t_exp": 15, "t_decay": 5, "t_rep": 15},
    "fields": {"delay": 5},
    "episodes": 3,
    "methods": ["ge", "rapo"],
}


def _write_cfg(tmp_path, name="cfg.json", **over):
    cfg = json.loads(json.dumps(TINY))
    for k, v in over.items():
        if k in cfg and isinstance(cfg[k], dict):
            cfg[k] = {**cfg[k], **v}
        else:
            cfg[k] = v
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_gen_graph_round_trip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["gen-graph", "--config", '{"graph": {"nodes": 50, "branching": 1.1}}',
            "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text() == generate_graph(50, 1.1, seed=4).to_json()
    g = DiffusionGraph.from_json(out1.read_text())
    assert g.node_count == 50 and g.seed == 4
    assert "sensitive" in capsys.readouterr().out


def test_gen_graph_missing_out_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-graph", "--config", "{}", "--seed", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().endswith(
        "the following arguments are required: --out")


def test_rsd_eval_runs_one_episode(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    gpath = tmp_path / "g.json"
    main(["gen-graph", "--config", cfg, "--seed", "1", "--out", str(gpath)])
    ckpt = tmp_path / "p.json"
    ckpt.write_text(Policy(kind="scripted", feature_mode="augmented",
                           scripted_action=1).to_json())
    out = tmp_path / "rec.jsonl"
    args = ["rsd-eval", "--graph", str(gpath), "--checkpoint", str(ckpt),
            "--config", cfg, "--z", "2", "--episode-seed", "9",
            "--out", str(out)]
    assert main(args) == 0
    rec = json.loads(out.read_text())
    assert set(rec["phases"]) == {"exposure", "decay", "replay"}
    assert "rag=" in capsys.readouterr().out
    assert main(args + ["--method", "telepathy"]) == 2
    assert "telepathy" in capsys.readouterr().err


@pytest.mark.parametrize("policy,method", [
    (Policy(kind="scripted", scripted_action=1), "rapo"),
    (Policy(kind="softmax", feature_mode="augmented"), "ge"),
    (Policy(kind="softmax"), "pm_window"),
    (Policy(kind="window", window=50), "ge"),
    (Policy(kind="window", window=10), "pm_window"),
], ids=["obs-under-rapo", "augmented-under-ge", "softmax-under-window",
        "window-under-ge", "window-10-under-50"])
def test_rsd_eval_rejects_checkpoint_of_another_method(tmp_path, capsys,
                                                       policy, method):
    # a checkpoint that the suite could not have run under --method
    gpath, ckpt = tmp_path / "g.json", tmp_path / "p.json"
    gpath.write_text(_graph_json())
    ckpt.write_text(policy.to_json())
    rc = main(["rsd-eval", "--graph", str(gpath), "--checkpoint", str(ckpt),
               "--method", method, "--out", str(tmp_path / "rec.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2 and str(ckpt) in err
    assert repr(method) in err and repr(policy.feature_mode) in err
    assert not (tmp_path / "rec.jsonl").exists()


@pytest.mark.parametrize("rng_mode", ["independent", "paired"])
def test_gen_graph_and_rsd_eval_reproduce_run_records(tmp_path, monkeypatch,
                                                      rng_mode):
    # each record file of a desk run, rebuilt by the single-episode path
    # from the run's own config, byte for byte
    monkeypatch.delenv("REPLAYLAB_SEED", raising=False)
    methods = ["ge", "rapo", "rapo_off_rep"]
    cfg_path = tmp_path / "desk.json"
    cfg_path.write_text(json.dumps(desk_preset(
        graph={"seeds": [2]}, episodes=2, methods=methods,
        fields={"delay": 5}, rsd={"t_exp": 20, "t_decay": 5, "t_rep": 20,
                                  "rng_mode": rng_mode})))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 0
    gpath = tmp_path / "g.json"
    assert main(["gen-graph", "--config", str(cfg_path), "--seed", "2",
                 "--out", str(gpath)]) == 0
    cfg = load_config(str(cfg_path))
    for method in methods:
        ckpt = tmp_path / f"{method}.json"
        ckpt.write_text(Policy(
            kind="scripted", feature_mode=method_config(method).feature_mode,
            scripted_action=cfg.scripted_action).to_json())
        paths = sorted((out_dir / "run" / method / "2").iterdir())
        assert len(paths) == 2
        for path in paths:
            rec = json.loads(path.read_text())
            assert rec["config"]["rng_mode"] == rng_mode
            out = tmp_path / "rec.jsonl"
            assert main(["rsd-eval", "--graph", str(gpath),
                         "--checkpoint", str(ckpt), "--config", str(cfg_path),
                         "--method", method, "--z", str(rec["config"]["z"]),
                         "--episode-seed", str(rec["episode_seed"]),
                         "--out", str(out)]) == 0
            assert out.read_bytes() == path.read_bytes()


def test_run_produces_csv_schema_and_manifest(tmp_path):
    from replaylab.baselines import REPORT_COLUMNS
    cfg = _write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_COLUMNS
    # single graph seed: exactly one aggregate row per method
    methods = [r[0] for r in rows[1:]]
    assert methods == ["ge", "rapo"]
    assert all(r[1] == "all" for r in rows[1:])
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "config.json").exists()


def test_rerun_and_worker_count_byte_identical(tmp_path):
    cfg1 = _write_cfg(tmp_path, name="c1.json")
    cfg2 = _write_cfg(tmp_path, name="c2.json", workers=2)
    outs = []
    for name, cfg in (("r1", cfg1), ("r2", cfg1), ("rw", cfg2)):
        d = tmp_path / name
        assert main(["run", "--config", cfg, "--out-dir", str(d)]) == 0
        outs.append((d / "report.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_uneven_worker_chunks_byte_identical(tmp_path):
    # 5 episodes run as one batch, as chunks of 3 and 2, and as chunks of
    # 2, 2 and 1; every split gives the same report
    outs = []
    for workers in (1, 2, 3):
        cfg = _write_cfg(tmp_path, name=f"w{workers}.json", episodes=5,
                         workers=workers)
        d = tmp_path / f"w{workers}"
        assert main(["run", "--config", cfg, "--out-dir", str(d)]) == 0
        outs.append((d / "report.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_report_recompute_matches_run_output(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", "--config", cfg, "--out-dir", str(out_dir)])
    re_csv = tmp_path / "re.csv"
    assert main(["report", "--run-dir", str(out_dir),
                 "--out", str(re_csv)]) == 0
    assert re_csv.read_bytes() == (out_dir / "report.csv").read_bytes()


def test_sweep_csv_schema(tmp_path):
    cfg = _write_cfg(tmp_path, methods=["ge", "rapo"], episodes=2)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", cfg, "--out", str(out),
               "--w-h", "1.0", "2.0", "--eta", "0.05"])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["w_h", "eta", "rag", "auc_r", "sm_r", "replay_ret"]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0]


def test_unknown_method_exits_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, methods=["ge", "telepathy"])
    assert main(["run", "--config", cfg, "--out-dir",
                 str(tmp_path / "x")]) == 2
    assert "telepathy" in capsys.readouterr().err


def test_invalid_json_config_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p),
                 "--out-dir", str(tmp_path / "x")]) == 2


def test_unknown_config_field_exits_two(tmp_path):
    cfg = _write_cfg(tmp_path, warp_drive=True)
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "x")]) == 2


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    monkeypatch.setenv("REPLAYLAB_SEED", "123")
    main(["run", "--config", cfg, "--out-dir", str(a)])
    monkeypatch.setenv("REPLAYLAB_SEED", "456")
    main(["run", "--config", cfg, "--out-dir", str(b)])
    assert (a / "report.csv").read_bytes() != (b / "report.csv").read_bytes()
    monkeypatch.setenv("REPLAYLAB_SEED", "not-a-number")
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "c")]) == 2


def test_shield_um_without_rapo_exits_two(tmp_path, capsys):
    # shield_um tunes to rapo's replay return: without rapo the config is
    # rejected at load, before any episode runs
    cfg = _write_cfg(tmp_path, methods=["ge", "shield_um"],
                     shield={"n_mc": 1, "horizon": 2})
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "x")]) == 2
    assert "shield_um" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.jsonl"))


def test_verify_exits_zero(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["no_go"]["stationary_holds"] is True


def test_report_matches_run_with_multi_digit_graph_seeds(tmp_path):
    # record files sort as strings ("10" before "2"); the report must still
    # take records in configured graph-seed and episode order
    cfg = _write_cfg(tmp_path, graph={"seeds": [2, 10]})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    re_csv = tmp_path / "re.csv"
    assert main(["report", "--run-dir", str(out_dir),
                 "--out", str(re_csv)]) == 0
    assert re_csv.read_bytes() == (out_dir / "report.csv").read_bytes()


def test_report_matches_run_in_any_record_file_order(tmp_path, monkeypatch):
    # the report scores each (method, graph) batch in episode order and
    # takes the GE reference's mean in that order, whatever order the
    # record files are listed in
    cfg = _write_cfg(tmp_path, graph={"seeds": [1, 2]}, episodes=5)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    listed = baselines.glob.glob
    shuffle = random.Random(0).sample
    for order in (lambda ps: ps[::-1], lambda ps: shuffle(ps, len(ps))):
        monkeypatch.setattr(baselines.glob, "glob",
                            lambda pattern: order(sorted(listed(pattern))))
        re_csv = tmp_path / "re.csv"
        assert main(["report", "--run-dir", str(out_dir),
                     "--out", str(re_csv)]) == 0
        assert re_csv.read_bytes() == (out_dir / "report.csv").read_bytes()


def test_train_checkpoint_matches_run_checkpoint(tmp_path, monkeypatch):
    monkeypatch.delenv("REPLAYLAB_SEED", raising=False)
    cfg = tmp_path / "desk.json"
    cfg.write_text(json.dumps(desk_preset(
        graph={"seeds": [1]}, episodes=1, methods=["rapo"],
        rsd={"t_exp": 5, "t_decay": 2, "t_rep": 5},
        training={"enabled": True, "steps": 1, "episode_len": 1024})))
    ckpt = tmp_path / "rapo.json"
    assert main(["train", "--config", str(cfg), "--method", "rapo",
                 "--out", str(ckpt)]) == 0
    assert main(["run", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert digest == manifest["checkpoint_hashes"]["rapo"]


def _graph_json(**change):
    obj = json.loads(generate_graph(50, 1.5, seed=1).to_json())
    for key, fn in change.items():
        obj[key] = fn(obj[key])
    return json.dumps(obj)


def _ckpt_json(**change):
    obj = json.loads(Policy(kind="softmax").to_json())
    obj.update(change)
    return json.dumps(obj)


@pytest.mark.parametrize("graph_text,ckpt_text", [
    (_graph_json(edges=lambda es: es[::-1]), _ckpt_json()),
    (_graph_json(edges=lambda es: [{**es[0], "p": 1.7}] + es[1:]),
     _ckpt_json()),
    (_graph_json(sensitive=lambda s: s + [999]), _ckpt_json()),
    (_graph_json(nodes=lambda n: None), _ckpt_json()),
    ("{not json", _ckpt_json()),
    (_graph_json(), _ckpt_json(weights=[[0.0, 0.0]] * 3)),
    (_graph_json(), _ckpt_json(kind="oracle")),
    (_graph_json(), _ckpt_json(feature_mode="psychic")),
    (_graph_json(), _ckpt_json(kind="scripted", scripted_action=5)),
    (_graph_json(), '{"kind": "softmax"}'),
], ids=["reversed-edges", "p-above-1", "sensitive-out-of-range",
        "nodes-null", "graph-not-json", "weights-3x2", "unknown-kind",
        "unknown-feature-mode", "scripted-action-5", "ckpt-missing-fields"])
def test_malformed_graph_or_checkpoint_exits_two(tmp_path, capsys,
                                                 graph_text, ckpt_text):
    gpath, cpath = tmp_path / "g.json", tmp_path / "p.json"
    gpath.write_text(graph_text)
    cpath.write_text(ckpt_text)
    rc = main(["rsd-eval", "--graph", str(gpath), "--checkpoint", str(cpath),
               "--out", str(tmp_path / "rec.jsonl")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0].startswith("configuration error:")
    bad = gpath if graph_text != _graph_json() else cpath
    assert str(bad) in err[0]


def _mangle_replay(line, key, fn):
    rec = json.loads(line)
    series = rec["phases"]["replay"]
    series[key] = [fn(v) for v in series[key]]
    return json.dumps(rec)


def _mangle_config(line, **changes):
    # set each config key to its value, or drop it for None
    rec = json.loads(line)
    config = {**rec["config"], **changes}
    rec["config"] = {k: v for k, v in config.items() if v is not None}
    return json.dumps(rec)


@pytest.mark.parametrize("mangle", [
    lambda line: line[: len(line) // 2],
    lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                             if k != "phases"}),
    lambda line: json.dumps([json.loads(line)]),
    lambda line: json.dumps({**json.loads(line), "graph_seed": 77}),
    lambda line: line.replace('"reach": [', '"reach": [0, ', 1),
    lambda line: _mangle_replay(line, "reach", str),
    lambda line: _mangle_replay(line, "rewards", lambda v: float("nan")),
    lambda line: _mangle_replay(line, "odds", lambda o: o[:3]),
    lambda line: _mangle_replay(line, "action_dists",
                                lambda d: [str(x) for x in d]),
    lambda line: _mangle_replay(line, "action_dists", lambda d: d[:2]),
    lambda line: json.dumps({**json.loads(line), "schema": 2}),
    lambda line: _mangle_replay(line, "rewards", lambda v: 10 ** 400),
    lambda line: _mangle_replay(line, "reach", lambda v: 10 ** 400),
    lambda line: _mangle_replay(line, "scar_top", lambda s: ["x"]),
    lambda line: _mangle_config(line, gamma="x"),
    lambda line: _mangle_config(line, gamma=None),
], ids=["truncated", "no-phases", "not-an-object", "foreign-graph-seed",
        "uneven-series", "string-reach", "nan-rewards", "odds-3-tuples",
        "string-action-dists", "action-dists-2-entries", "schema-2",
        "rewards-beyond-float", "reach-beyond-int64", "scar-top-string",
        "gamma-string", "gamma-missing"])
def test_malformed_record_exits_two(tmp_path, capsys, mangle):
    cfg = _write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    victim = sorted((out_dir / "run" / "rapo" / "1").iterdir())[0]
    victim.write_text(mangle(victim.read_text().strip()) + "\n")
    rc = main(["report", "--run-dir", str(out_dir), "--out",
               str(tmp_path / "re.csv")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0].startswith("configuration error:") and str(victim) in err[0]
