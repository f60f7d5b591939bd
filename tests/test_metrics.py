"""Metric computations on fabricated and serialized records."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from replaylab.errors import ProtocolError
from replaylab.metrics import (EPS, action_shift_distance, containment_radius,
                               discounted_return, episode_metrics,
                               odds_ratio_series, replay_ratios,
                               replay_return, welch_ttest)
from replaylab.rsd import PhaseSeries, RsdEpisodeRecord


def _series(reach=(), sens=(), rewards=(), dists=(), odds=(), radius=()):
    n = max(map(len, (reach, sens, rewards, dists, odds, radius)), default=0)

    def col(v, default, dtype=np.int64):
        return np.array(list(v) or [default] * n, dtype=dtype).reshape(
            (n,) + np.shape(default))

    return PhaseSeries(
        reach=col(reach, 0), sens=col(sens, 0),
        rewards=col(rewards, 0.0, float), actions=col((), 1),
        action_dists=col(dists, [0.0, 1.0, 0.0], float),
        odds=col(odds, [0.0, 1.0, 0.0, 1.0], float), radius=col(radius, 0),
        g_sum=col((), 0.0, float), h_sum=col((), 0.0, float),
        scar_regions=np.zeros((n, 10), dtype=np.int64),
        scar_h=np.zeros((n, 10)), scar_count=col((), 0), traj_hash="x",
    )


def _record(exposure, replay, gamma=0.99):
    return RsdEpisodeRecord(
        config={"gamma": gamma}, graph_seed=1, episode_seed=2,
        phases={"exposure": exposure, "decay": _series(reach=[0]),
                "replay": replay},
        field_snapshots={}, policy_hash="h", counterfactual=False,
    )


def test_replay_ratios_identity_and_suppressed():
    rec = _record(_series(reach=[2, 10], sens=[1, 4]),
                  _series(reach=[2, 10], sens=[1, 4]))
    rag, auc, sm = replay_ratios(rec)
    assert rag == pytest.approx(1.0, abs=1e-8)
    assert auc == pytest.approx(1.0, abs=1e-8)
    assert sm == pytest.approx(1.0, abs=1e-8)
    rec = _record(_series(reach=[5, 10], sens=[2, 2]),
                  _series(reach=[3, 3], sens=[0, 0]))
    rag, auc, sm = replay_ratios(rec)
    assert rag == pytest.approx(3.0 / (10.0 + EPS))
    assert auc == pytest.approx(6.0 / (15.0 + EPS))
    assert sm == 0.0


def test_discounted_return_and_normalization():
    assert discounted_return([1.0, 1.0], 0.99) == pytest.approx(1.99, abs=1e-12)
    rec = _record(_series(reach=[1]), _series(rewards=[1.0, 1.0]))
    assert replay_return(rec, 3.0) == pytest.approx(1.99 / 3.0, abs=1e-12)
    with pytest.raises(ProtocolError):
        replay_return(rec, None)
    with pytest.raises(ProtocolError):
        replay_return(rec, 0.0)
    with pytest.raises(ProtocolError):
        replay_return(rec, -1.0)


def test_action_shift_distance():
    rec = _record(_series(dists=[[0.5, 0.5, 0.0]]),
                  _series(dists=[[0.5, 0.25, 0.25]]))
    assert action_shift_distance(rec) == pytest.approx(0.25, abs=1e-12)
    # identical distributions give zero
    rec = _record(_series(dists=[[0.1, 0.6, 0.3]] * 3),
                  _series(dists=[[0.1, 0.6, 0.3]] * 3))
    assert action_shift_distance(rec) == 0.0


def _asd_per_step(record):
    """The per-step loop that `action_shift_distance` replaced."""
    exp = record.phases["exposure"].action_dists
    rep = record.phases["replay"].action_dists
    n = min(len(exp), len(rep))
    tv = 0.0
    for i in range(n):
        tv += 0.5 * np.abs(np.asarray(exp[i]) - np.asarray(rep[i])).sum()
    return tv / n if n else 0.0


def test_action_shift_distance_matches_per_step_loop():
    # bit for bit on fuzzed records, unequal phase lengths and n = 0 included;
    # the distributions are float64 (T, 3) columns, as a PhaseSeries holds
    rng = np.random.default_rng(11)
    for n_exp, n_rep in [(0, 0), (0, 4), (5, 0), (1, 1), (7, 3), (2, 9)] + [
            tuple(rng.integers(1, 400, size=2)) for _ in range(40)]:
        rec = _record(_series(reach=[1]), _series(reach=[1]))
        rec.phases["exposure"].action_dists = rng.dirichlet(
            np.ones(3), size=n_exp)
        rec.phases["replay"].action_dists = rng.dirichlet(
            np.ones(3), size=n_rep)
        assert action_shift_distance(rec) == _asd_per_step(rec)


def test_odds_ratio_series_and_skips():
    odds = [
        (0.5, 0.5, 0.5, 0.5),     # ratio 1
        (0.2, 0.8, 0.4, 0.6),     # ratio (0.25)/(2/3)
        (0.0, 1.0, 0.0, 1.0),     # p0 = 0: skipped
        (0.9, 0.1, 0.5, 0.0),     # q0 = 0: skipped
    ]
    rec = _record(_series(reach=[1]), _series(odds=odds))
    ratios, skipped = odds_ratio_series(rec)
    assert skipped == 2
    assert ratios[0] == pytest.approx(1.0, abs=1e-12)
    assert ratios[1] == pytest.approx((0.2 / 0.8) / (0.4 / 0.6), abs=1e-12)


def test_odds_identity_when_deformation_off():
    odds = [(0.3, 0.7, 0.3, 0.7)] * 5
    rec = _record(_series(reach=[1]), _series(odds=odds))
    ratios, skipped = odds_ratio_series(rec)
    assert skipped == 0
    assert all(r == pytest.approx(1.0, abs=1e-12) for r in ratios)


def test_containment_radius():
    rec = _record(_series(radius=[0, 1, 1, 2]), _series(radius=[0, 0]))
    assert containment_radius(rec, "exposure") == 2
    assert containment_radius(rec, "replay") == 0
    empty = _record(_series(), _series())
    assert containment_radius(empty, "replay") == 0


def test_episode_metrics_keys_and_reference():
    rec = _record(_series(reach=[4], sens=[1], rewards=[0.5]),
                  _series(reach=[2], sens=[1], rewards=[0.5]))
    m = episode_metrics(rec)
    for key in ("rag", "auc_r", "sm_r", "asd", "odds_ratio_mean",
                "odds_steps_skipped", "rc_exp", "rc_rep", "replay_return_raw"):
        assert key in m
    assert "replay_ret" not in m
    m = episode_metrics(rec, ge_reference=0.5)
    assert m["replay_ret"] == pytest.approx(1.0, abs=1e-12)


def test_metrics_recompute_bit_exact_after_serialization():
    from replaylab.deformation import DeformationSpec
    from replaylab.graph_env import generate_graph
    from replaylab.harm_memory import FieldParams, HarmFields
    from replaylab.policies import Policy
    from replaylab.rsd import RsdConfig, run_rsd_episode

    graph = generate_graph(50, 1.5, seed=3)
    rec = run_rsd_episode(
        RsdConfig(t_exp=20, t_decay=5, t_rep=20),
        Policy(kind="softmax").freeze(), graph,
        HarmFields.zeros(50, FieldParams()), DeformationSpec(), 11)
    text = json.dumps(rec.to_dict())
    again = RsdEpisodeRecord.from_dict(json.loads(text))
    assert episode_metrics(again, 1.0) == episode_metrics(rec, 1.0)


def test_welch_ttest_directions():
    t, p = welch_ttest([1.0, 1.1, 0.9, 1.0], [0.1, 0.2, 0.15, 0.1])
    assert t > 0 and p < 0.01
    _, p_same = welch_ttest([1.0, 1.1, 0.9], [1.0, 1.05, 0.95])
    assert p_same > 0.05


def _ttest_samples():
    # seeded pairs of samples: n = 1, constant and equal samples, ties, and
    # normal draws of assorted sizes and spreads
    rng = np.random.default_rng(22)
    cases = [([1.0], [2.0, 3.0]), ([5.0], [5.0]), ([1.0, 1.0], [2.0, 2.0]),
             ([0.25] * 4, [0.25] * 7), ([0.3] * 7, [0.1, 0.5]), ([2.0], [2.0] * 3)]
    for i in range(400):
        a, b = (rng.normal(rng.normal(), rng.uniform(0.01, 3), n)
                for n in rng.integers(1, 40, size=2))
        if i % 4 == 1:
            a = np.full(a.size, a[0])
        elif i % 4 == 2:
            a = rng.integers(0, 3, a.size).astype(float)
        cases.append((a.tolist(), b.tolist()))
    return cases


def test_welch_ttest_equals_scipy_stats_bit_for_bit():
    import warnings
    from scipy import stats
    for a, b in _ttest_samples():
        with warnings.catch_warnings():
            # scipy warns on n = 1 and on near-constant samples
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = stats.ttest_ind(np.array(a), np.array(b), equal_var=False)
        got = welch_ttest(a, b)
        assert np.array(got).tobytes() == np.array(
            [ref.statistic, ref.pvalue]).tobytes(), (a, b)
        assert all(type(v) is float for v in got)


def test_run_and_report_leave_scipy_stats_unloaded(tmp_path):
    # `replaylab run` and `replaylab report` write Welch p-values against
    # pm_st without importing scipy.stats
    import csv
    import replaylab
    src = os.path.dirname(os.path.dirname(replaylab.__file__))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"nodes": 50, "seeds": [1]}, "episodes": 3,
        "rsd": {"t_exp": 10, "t_decay": 5, "t_rep": 10},
        "methods": ["ge", "rapo", "pm_st"]}))
    out, report = str(tmp_path / "out"), str(tmp_path / "re.csv")
    code = ("import sys; from replaylab.cli import main; "
            f"assert main(['run', '--config', {str(cfg)!r}, "
            f"'--out-dir', {out!r}]) == 0; "
            f"assert main(['report', '--run-dir', {out!r}, "
            f"'--out', {report!r}]) == 0; "
            "sys.exit('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    with open(report, newline="") as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}
    assert rows["rapo"]["welch_p_vs_pmst"] and rows["ge"]["welch_p_vs_pmst"]


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; only the no-go check
    # loads it, and the Welch test loads scipy.special, when they run.
    # Importing the package and loading a config (every entry point's
    # set-up) loads no scipy module
    import replaylab
    src = os.path.dirname(os.path.dirname(replaylab.__file__))
    code = ("import sys, replaylab; "
            "from replaylab.config import desk_preset, load_config; "
            "load_config(desk_preset()); "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
