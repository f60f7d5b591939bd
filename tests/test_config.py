"""Config loading: the typed builders and rejection of bad values."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from replaylab.cli import main
from replaylab.config import _DEFAULTS, KNOWN_METHODS, desk_preset, load_config
from replaylab.errors import ConfigError


def test_local_deformation_gates_sensitive_nodes_and_neighbours():
    cfg = load_config(desk_preset())
    g = cfg.graph(1)
    sens = set(g.sensitive_nodes.tolist())
    hood = set(sens)
    for u, v in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        if u in sens or v in sens:
            hood |= {u, v}
    spec = cfg.deform("local", g)
    assert spec.mode == "local" and set(spec.local_regions) == hood
    assert hood > sens
    assert cfg.deform("topk", g).k == cfg.section("deformation")["topk_k"]


def test_derive_revalidates_and_keeps_master_seed():
    cfg = load_config({"master_seed": 5})
    cell = cfg.derive({"deformation": {"w_h": 4.0}, "methods": ["rapo"]})
    assert cell["master_seed"] == 5 and cell.base_deform.w_H == 4.0
    with pytest.raises(ConfigError, match="deformation"):
        cfg.derive({"deformation": {"w_h": -1.0}})


@pytest.mark.parametrize("section,key,value", [
    ("fields", "lam", 1.5),
    ("env", "seed_pool", "nope"),
    ("deformation", "psi_min", 0),
    ("rsd", "rng_mode", "weird"),
    ("graph", "sens_style", "zig"),
    ("training", "scripted_fallback", "zig"),
    ("training", "steps", -5),
    ("training", "steps", 0),
    ("training", "epochs_per_batch", 0),
    ("training", "lr", -0.1),
    ("training", "lr", 0.0),
    ("training", "lr_dual", -1.0),
    ("training", "clip", -1.0),
    ("training", "clip", 1.0),
    ("training", "gae_lambda", 2.0),
    ("training", "gae_lambda", -0.5),
    ("shield", "um_tolerance", -1.0),
    ("shield", "um_tolerance", 0.0),
    ("shield", "theta", -1.0),
    ("graph", "nodes", 50.5),
    (None, "run_id", "../esc"),
    (None, "run_id", ""),
    (None, "run_id", "."),
    (None, "run_id", ".."),
    (None, "run_id", "a/b"),
])
def test_bad_config_value_exits_two(tmp_path, capsys, section, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value} if section is None
                               else {section: {key: value}}))
    assert main(["run", "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert key in err[0] or section in err[0]
    assert not (tmp_path / "esc").exists()


def test_negative_shield_theta_is_rejected():
    # no rollout's mean sensitive mass is below a negative threshold, so
    # every shielded step would silently fall back to the fail-safe
    with pytest.raises(ConfigError, match="shield: theta must be >= 0"):
        load_config({"shield": {"theta": -1.0}})
    assert load_config({"shield": {"theta": 0.0}}).shield_params.theta == 0.0


def test_repeated_graph_seed_is_rejected(tmp_path, capsys):
    # a repeated seed would count each of its episodes twice in the report
    with pytest.raises(ConfigError, match="graph.seeds repeats seed 3"):
        load_config({"graph": {"seeds": [3, 1, 3]}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": {"seeds": [1, 1]}}))
    assert main(["run", "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: graph.seeds repeats seed 1"]
    assert not list(tmp_path.rglob("*.jsonl"))


def test_negative_sweep_gate_weight_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "s.csv"), "--w-h", "-1", "--eta", "0.3"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: deformation")


def test_seed_override_applied_once_to_sweep_cells(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "graph": {"nodes": 20}, "rsd": {"t_exp": 2, "t_decay": 2, "t_rep": 2},
        "episodes": 1, "methods": ["ge"], "master_seed": 3}))
    monkeypatch.setenv("REPLAYLAB_SEED", "11")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv"),
                 "--w-h", "1.0", "--eta", "0.3", "--method", "ge"]) == 0
    cell = json.loads((tmp_path / "sweep_wh1.0_eta0.3" / "config.json").read_text())
    assert cell["master_seed"] == 11
    # a library load reads no environment
    assert load_config(str(path))["master_seed"] == 3


# A 1-episode run of 2-step phases; shields and the shield_um bisection
# stay cheap at n_mc 1, horizon 2. Workers stay at 1 and training off: a
# training batch is at least 2048 steps, far past the fuzz time budget.
_FUZZ_BASE = {
    "graph": {"nodes": 20, "seeds": [1]},
    "rsd": {"t_exp": 2, "t_decay": 2, "t_rep": 2},
    "fields": {"delay": 1},
    "shield": {"n_mc": 1, "horizon": 2},
    "episodes": 1,
}
_FUZZ_FIXED = {("workers",), ("training", "enabled")}


def _leaf_paths(tree, prefix=()):
    for key, val in tree.items():
        if isinstance(val, dict):
            yield from _leaf_paths(val, prefix + (key,))
        elif prefix + (key,) not in _FUZZ_FIXED:
            yield prefix + (key,), val


_WORDS = st.sampled_from([
    "", "zig", "all", "core", "sensitive", "log", "linear", "paired",
    "independent", "moderate", "aggressive", "conservative", "arc", "grow"])
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30),
    st.floats(-3.0, 3.0, allow_nan=False), _WORDS,
    st.sampled_from([float("nan"), float("inf"), 1e300]),
    st.lists(st.integers(-2, 25), max_size=3),
    st.dictionaries(st.sampled_from(["a", "nodes"]), st.integers(0, 3),
                    max_size=2),
)


def _like(default):
    """Values of the default's type, in and around its valid range."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-3, 30)
    if isinstance(default, float):
        return st.floats(-3.0, 3.0, allow_nan=False) | st.just(default)
    if isinstance(default, str):
        return _WORDS
    entry = default[0]
    if isinstance(entry, str):
        return st.lists(st.sampled_from(KNOWN_METHODS + ("zig",)), max_size=3)
    return st.lists(_like(entry), max_size=4)


# mostly values of the right type, so that many runs get past the loader
_FIELD_VALUES = st.sampled_from(sorted(_leaf_paths(_DEFAULTS))).flatmap(
    lambda pv: st.tuples(st.just(pv[0]), st.one_of(*[_like(pv[1])] * 3, _ANY)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.one_of(*[_FIELD_VALUES] * 9, st.tuples(st.just(("bogus",)), _ANY)))
def test_fuzzed_config_runs_or_exits_cleanly(tmp_path, capsys, field):
    """One field replaced by an arbitrary JSON value: the run finishes
    (exit 0) or stops with a one-line message. Exit 2 is a configuration
    error; exit 3, a protocol violation, is the documented outcome when
    the GE reference return is not positive. No exception escapes
    `main`."""
    path, value = field
    cfg = json.loads(json.dumps(_FUZZ_BASE))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfg_path = tmp_path / "fuzz.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    rc = main(["run", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    if rc == 0:
        assert err == []
    else:
        assert (rc, len(err)) in ((2, 1), (3, 1)), (rc, err)
        assert err[0].startswith("configuration error:" if rc == 2 else
                                 "protocol violation:")
        assert rc == 2 or "GE reference" in err[0]
