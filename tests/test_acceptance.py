"""Acceptance gate: one test per headline claim, one printed verdict each.

The desk-scale suite (50-node graphs, 5 graph seeds x 10 episodes) is run
once per session and shared by the criteria that read from it.
"""

import csv
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from replaylab.baselines import method_config, run_method_suite
from replaylab.cli import main as cli_main
from replaylab.config import desk_preset, load_config
from replaylab.deformation import DeformationSpec, conductance, gate_edge_prob, \
    reweight_rows
from replaylab.graph_env import generate_graph
from replaylab.harm_memory import FieldParams, HarmFields, attribute_harm, \
    update_scar
from replaylab.policies import Policy
from replaylab.rng import substream
from replaylab.rsd import RsdConfig, run_rsd_episodes
from replaylab.verification import (check_compounding, check_no_go,
                                    check_odds_contraction, check_safe_mass)

OFF = DeformationSpec(mode="off")
# sha256 of the full desk preset's report.csv, as perfbench's desk golden
DESK_REPORT_SHA256 = \
    "a71af73f73e184f0dbd2f050903041ecc1900d286f82f9250b34e1deac689d76"


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    cfg = load_config(desk_preset())
    out = tmp_path_factory.mktemp("desk")
    return run_method_suite(cfg, str(out)), cfg, out


def _means(outcome, key):
    vals = [m[key] for m in outcome.metrics
            if key in m and not (isinstance(m[key], float) and np.isnan(m[key]))]
    return float(np.mean(vals))


def _episodes(cfg, make_policy, graph, seeds):
    """One batched call: every episode starts from zero fields and has its
    own frozen policy."""
    return run_rsd_episodes(cfg, [cfg.z] * len(seeds),
                            [make_policy() for _ in seeds], graph,
                            HarmFields.zeros(50, FieldParams(delay=10)), OFF,
                            seeds)


def test_criterion_01_paired_replay_bit_identical():
    no_go = check_no_go(OFF, seed=0)
    graph_ok = 0
    cfg = RsdConfig(t_exp=30, t_decay=10, t_rep=30, rng_mode="paired")
    for gseed in (1, 2, 3, 4):
        graph = generate_graph(50, 1.1, seed=gseed)
        for rec in _episodes(cfg, lambda: Policy(kind="softmax", seed=1).freeze(),
                             graph, [1000 + ep for ep in range(50)]):
            graph_ok += (rec.phases["replay"].traj_hash
                         == rec.phases["exposure"].traj_hash)
    ok = no_go["paired_identical"] and graph_ok == 200
    _verdict(1, ok, f"no-go check paired identical="
                    f"{no_go['paired_identical']}, "
                    f"graph episodes identical={graph_ok}/200")


def test_criterion_02_stationary_methods_indistinguishable():
    policies = {
        "ge": lambda: Policy(kind="scripted", scripted_action=1).freeze(),
        "pm_st": lambda: Policy(kind="softmax", seed=2).freeze(),
        "window": lambda: Policy(kind="window", window=50, seed=3).freeze(),
    }
    cfg = RsdConfig(t_exp=40, t_decay=10, t_rep=40, rng_mode="independent")
    graphs = [generate_graph(50, 3.0, seed=s) for s in (1, 2, 3, 4)]
    results = {}
    ok = True
    for name, make_policy in policies.items():
        exp_pk, rep_pk, rags = [], [], []
        for graph in graphs:
            for rec in _episodes(cfg, make_policy, graph,
                                 [5000 + ep for ep in range(50)]):
                e = max(rec.phases["exposure"].reach)
                r = max(rec.phases["replay"].reach)
                exp_pk.append(e)
                rep_pk.append(r)
                rags.append(r / (e + 1e-8))
        p = float(stats.ks_2samp(exp_pk, rep_pk).pvalue)
        rag = float(np.mean(rags))
        results[name] = (p, rag)
        ok = ok and p > 0.01 and 0.9 <= rag <= 1.1
    detail = ", ".join(f"{k}: ks_p={v[0]:.3f} rag={v[1]:.3f}"
                       for k, v in results.items())
    _verdict(2, ok, detail)


def test_criterion_03_theory_bounds_hold():
    odds = check_odds_contraction(trials=10_000, seed=0, slack=1e-12)
    safe = check_safe_mass(trials=10_000, seed=0, slack=1e-12)
    comp = check_compounding(trials=2_000, max_k=5, seed=0, slack=1e-12)
    ok = (odds["holds"] and odds["equality_gap"] <= 1e-12
          and safe["holds"] and comp["holds"])
    _verdict(3, ok, f"odds worst_excess={odds['worst_excess']:.2e}, "
                    f"two-dest gap={odds['equality_gap']:.1e}, "
                    f"safe worst_margin={safe['worst_margin']:.2e}, "
                    f"compounding worst={comp['worst_excess']:.2e}")


def test_criterion_04_desk_suppression_separation(desk):
    man, _, out = desk
    report = (out / "report.csv").read_bytes()
    assert hashlib.sha256(report).hexdigest() == DESK_REPORT_SHA256
    o = man["outcomes"]
    vals = {m: {k: _means(o[m], k) for k in ("rag", "auc_r", "sm_r")}
            for m in ("ge", "pm_st", "rapo", "rapo_off_rep")}
    rag = {m: v["rag"] for m, v in vals.items()}
    ok = (rag["rapo"] < 0.6
          and 0.85 <= rag["pm_st"] <= 1.15
          and rag["rapo_off_rep"] > 0.75
          and rag["rapo_off_rep"] - rag["rapo"] >= 0.2
          and 0.85 <= rag["ge"] <= 1.2)
    for key in ("auc_r", "sm_r"):
        for other in ("ge", "pm_st", "rapo_off_rep"):
            ok = ok and vals["rapo"][key] < vals[other][key]
    _verdict(4, ok, "RAG " + ", ".join(f"{m}={rag[m]:.3f}" for m in rag))


def test_criterion_05_counterfactual_shares_checkpoint(desk):
    man, _, _ = desk
    h = man["checkpoint_hashes"]
    base = method_config("rapo")
    off = method_config("rapo_off_rep")
    diff = {f.name for f in dataclasses.fields(base)
            if getattr(base, f.name) != getattr(off, f.name)}
    ok = (h["rapo"] == h["rapo_off_rep"]
          and diff == {"method", "replay_deformation", "shares_checkpoint_with"})
    _verdict(5, ok, f"checkpoint hashes equal={h['rapo'] == h['rapo_off_rep']}, "
                    f"config diff={sorted(diff)}")


def test_criterion_06_odds_ratio_mechanism(desk):
    man, _, _ = desk
    o = man["outcomes"]
    odds = {m: _means(o[m], "odds_ratio_mean")
            for m in ("ge", "pm_st", "rapo")}
    pairs = []
    for m in ("ge", "pm_st", "rapo", "rapo_off_rep"):
        for met in o[m].metrics:
            if not np.isnan(met["odds_ratio_mean"]):
                pairs.append((met["odds_ratio_mean"], met["rag"]))
    rho = float(stats.spearmanr([p[0] for p in pairs],
                                [p[1] for p in pairs]).statistic)
    ok = (odds["rapo"] < 0.7
          and 0.9 <= odds["pm_st"] <= 1.1
          and 0.9 <= odds["ge"] <= 1.1
          and len(pairs) >= 20 and rho > 0.5)
    _verdict(6, ok, f"odds rapo={odds['rapo']:.3f}, pm_st={odds['pm_st']:.3f}, "
                    f"ge={odds['ge']:.3f}, spearman={rho:.3f} (n={len(pairs)})")


def test_criterion_07_partial_scar_retention(tmp_path):
    cfg = load_config(desk_preset(fields={"alpha": 2.0, "eta": 0.3,
                                          "delay": 25, "delta": 0.99},
                                  methods=["rapo"]))
    man = run_method_suite(cfg, str(tmp_path / "d99"))
    rag = _means(man["outcomes"]["rapo"], "rag")
    _verdict(7, rag < 0.7, f"delta=0.99 rapo RAG={rag:.3f}")


def test_criterion_08_replay_return_and_gate_sweep(desk, tmp_path):
    man, _, _ = desk
    ret = _means(man["outcomes"]["rapo"], "replay_ret")
    cfg_path = tmp_path / "sweep_cfg.json"
    cfg_path.write_text(json.dumps(desk_preset(
        graph={"seeds": [1, 2, 3]},
        fields={"alpha": 0.5, "delay": 25},
        methods=["rapo"], episodes=5)))
    out = tmp_path / "sweep.csv"
    rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                   "--w-h", "0.5", "1.0", "2.0", "4.0", "--eta", "0.3"])
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    rags = [float(r["rag"]) for r in rows]
    nonincreasing = sum(b <= a + 1e-9 for a, b in zip(rags, rags[1:]))
    ok = rc == 0 and ret >= 0.6 and nonincreasing >= 3
    _verdict(8, ok, f"rapo ReplayRet={ret:.3f}, sweep RAG="
                    f"{[round(r, 3) for r in rags]}, "
                    f"non-increasing pairs={nonincreasing}/3")


def test_criterion_09_reweighting_exactness():
    # 1e5 categoricals of 2-5 entries, drawn one at a time in stream order
    # and reweighted in blocks of rows, zero-padded to 5 entries; each row
    # is reweighted as reweight_categorical reweights it alone, and its
    # padding adds 0.0 to its sum
    rng = substream(0, 70)
    worst = 0.0
    block, width = 10_000, 5
    for _ in range(100_000 // block):
        nominal, psi = np.zeros((block, width)), np.ones((block, width))
        sizes = np.empty(block, dtype=np.int64)
        for j in range(block):
            m = sizes[j] = int(rng.integers(2, 6))
            row = rng.dirichlet(np.ones(m))
            nominal[j, :m] = row / row.sum()
            psi[j, :m] = rng.uniform(0.01, 1.0, size=m)
        # each row is a distribution, as reweight_categorical checks
        assert np.all(np.abs(nominal.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(nominal >= 0)
        out = reweight_rows(nominal, psi, sizes,
                            np.arange(width) < sizes[:, None])
        worst = max(worst, float(np.abs(out.sum(axis=1) - 1.0).max()))
        if worst > 1e-12:
            break
    # conductance respects the clip bounds; gated never exceeds nominal
    spec = DeformationSpec(psi_min=0.01)
    fields = HarmFields(G=rng.uniform(0, 5, 1000), H=rng.uniform(0, 5, 1000),
                        params=FieldParams())
    psi = conductance(np.arange(1000), fields, spec)
    in_range = bool(np.all(psi >= 0.01) and np.all(psi <= 1.0))
    p = rng.uniform(0, 1, 1000)
    gated_ok = bool(np.all(gate_edge_prob(p, psi) <= p))
    ok = worst <= 1e-12 and in_range and gated_ok
    _verdict(9, ok, f"1e5 categoricals worst |sum-1|={worst:.2e}, "
                    f"psi in [psi_min,1]={in_range}, gated<=nominal={gated_ok}")


def test_criterion_10_field_dynamics_exact():
    params = FieldParams(lam=0.1, alpha=0.5, delta=1.0)
    fields = HarmFields(G=np.full(64, 1.0), H=np.zeros(64), params=params)
    decay_ok = True
    for t in range(1, 101):
        fields = attribute_harm(fields, 0.0, np.empty(0, dtype=int))
        decay_ok = decay_ok and bool(
            np.all(np.abs(fields.G - 0.9 ** t) <= 1e-12))
    rng = substream(0, 71)
    h_fields = HarmFields.zeros(10_000, params)
    scar_ok = True
    for _ in range(50):
        h_fields = HarmFields(G=rng.uniform(0, 1, 10_000), H=h_fields.H,
                              params=params)
        out = update_scar(h_fields)
        scar_ok = scar_ok and bool(np.all(out.H >= h_fields.H))
        h_fields = out
    mass_ok = True
    fields = HarmFields(G=rng.uniform(0, 2, 32), H=np.zeros(32), params=params)
    for _ in range(200):
        harm = float(rng.uniform(0, 1))
        causal = rng.choice(32, size=int(rng.integers(1, 8)), replace=False)
        out = attribute_harm(fields, harm, causal)
        injected = out.G.sum() - (1 - params.lam) * fields.G.sum()
        mass_ok = mass_ok and abs(injected - params.alpha * harm) <= 1e-12
        fields = out
    ok = decay_ok and scar_ok and mass_ok
    _verdict(10, ok, f"decay exact={decay_ok}, scar monotone(1e4 regions x50)"
                     f"={scar_ok}, attribution mass exact={mass_ok}")


def test_criterion_11_reproducibility_and_shield_accounting(tmp_path):
    tiny = {
        "graph": {"nodes": 50, "branching": 3.0, "seeds": [1]},
        "rsd": {"t_exp": 15, "t_decay": 5, "t_rep": 15},
        "fields": {"delay": 5},
        "episodes": 3,
        "methods": ["ge", "rapo"],
    }
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny))
    reports = []
    for name, workers in (("r1", 1), ("r2", 1), ("rw", 2)):
        tiny["workers"] = workers
        cfg_path.write_text(json.dumps(tiny))
        d = tmp_path / name
        cli_main(["run", "--config", str(cfg_path), "--out-dir", str(d)])
        reports.append((d / "report.csv").read_bytes())
    repro = reports[0] == reports[1] == reports[2]

    shield_cfg = dict(tiny, workers=1, methods=["ge", "shield"],
                      shield={"theta": 10.0, "n_mc": 2, "horizon": 5,
                              "um_tolerance": 0.05})
    man = run_method_suite(load_config(shield_cfg), str(tmp_path / "sh"))
    tps = man["outcomes"]["shield"].transitions_per_step
    with open(tmp_path / "sh" / "report.csv") as fh:
        row = [r for r in csv.DictReader(fh) if r["method"] == "shield"][0]
    shield_ok = tps == 30 and row["shield_transitions_per_step"] == "30"

    um_cfg = dict(shield_cfg, methods=["ge", "rapo", "shield_um"])
    man_um = run_method_suite(load_config(um_cfg), str(tmp_path / "um"))
    diag = man_um["outcomes"]["shield_um"].metrics_diag
    um_ok = (abs(diag["achieved"] - diag["target"]) <= 0.05
             or diag["diagnostic"] != "")
    ok = repro and shield_ok and um_ok
    _verdict(11, ok, f"reports byte-identical={repro}, shield "
                     f"transitions/step={tps}, shield_um "
                     f"diag={diag['diagnostic'] or 'within tolerance'}")
