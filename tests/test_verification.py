"""Executable theory checks and their negative controls."""

from dataclasses import replace

import numpy as np
import pytest

from replaylab import deformation, verification
from replaylab.errors import ProtocolError
from replaylab.rng import categorical, substream
from replaylab.verification import (ToyMdp, check_compounding,
                                    check_compounding_chain, check_no_go,
                                    check_odds_contraction,
                                    check_odds_extension, check_safe_mass,
                                    clipping_relaxation_demo, make_toy_mdp,
                                    make_toy_policy, run_all_checks)


def test_run_all_checks_passes():
    out = run_all_checks(seed=0)
    assert out["no_go"]["stationary_holds"]
    assert not out["no_go_negative_control"]["paired_identical"]
    assert out["odds_contraction"]["holds"]
    assert out["odds_extension"]["holds"]
    assert out["safe_mass"]["holds"]
    assert out["compounding"]["holds"]
    assert out["compounding_chain"]["holds"]
    assert out["compounding_chain"]["naive_bound_violated"]
    assert out["clipping_relaxation"]["bound_exceeded_under_clipping"]


def test_no_go_negative_control_breaks_pairing():
    shifted = make_toy_mdp(8, seed=1, xi_shift=0.3)
    res = check_no_go(shifted, trials=50, seed=1)
    assert not res["paired_identical"]


def test_no_go_requires_frozen_policy():
    from replaylab.policies import Policy
    with pytest.raises(ProtocolError):
        check_no_go(make_toy_mdp(8, 0), Policy(kind="softmax"), trials=2)


def test_no_go_rejects_longer_replay():
    with pytest.raises(ValueError):
        check_no_go(make_toy_mdp(8, 0), t_exp=10, t_rep=20)


def test_toy_kernel_validation():
    bad = np.array([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        ToyMdp(kernel=bad, harmful=np.array([False, True]))
    with pytest.raises(ValueError):
        ToyMdp(kernel=np.eye(2), harmful=np.array([False]))
    with pytest.raises(ValueError):
        ToyMdp(kernel=np.array([[1.5, -0.5], [0.5, 0.5]]),
               harmful=np.array([False, True]))
    with pytest.raises(ValueError):
        ToyMdp(kernel=np.eye(100), harmful=np.zeros(100, dtype=bool))


def test_odds_contraction_pinned_values():
    out = check_odds_contraction(trials=500, seed=2)
    assert out["holds"]
    assert out["equality_gap"] <= 1e-12
    assert out["zero_gap"] <= 1e-12
    assert out["worst_excess"] <= 1e-12


def test_safe_mass_pinned_value():
    out = check_safe_mass(trials=500, seed=3)
    assert out["holds"]
    assert out["pinned_gap"] <= 1e-12
    assert out["equality_gap"] <= 1e-12
    assert out["worst_margin"] >= -1e-12


def test_compounding_bounds():
    assert check_compounding(trials=300, seed=4)["holds"]
    chain = check_compounding_chain(seed=4)
    assert chain["holds"]
    # the naive per-step factor alone is not a valid bound
    assert chain["naive_bound_violated"]


def test_clipping_voids_the_guarantee():
    out = clipping_relaxation_demo()
    assert out["clipped_odds"] > out["unclipped_bound"]


def test_toy_policy_action_dependence():
    # different frozen policies induce different visit distributions on an
    # action-dependent kernel
    mdp = make_toy_mdp(8, seed=5)
    a = check_no_go(mdp, make_toy_policy(1), trials=60, seed=5)
    b = check_no_go(mdp, make_toy_policy(2), trials=60, seed=5)
    assert a["stationary_holds"] and b["stationary_holds"]


def test_odds_check_runs_the_shipped_conductance(monkeypatch):
    # a conductance that ignores the scar H must fail the contraction
    # check, so the check exercises the library's law, not a private copy
    def scarless(regions, fields, spec):
        return deformation.conductance(regions, fields, replace(spec, w_H=0.0))
    monkeypatch.setattr(verification, "conductance", scarless)
    assert check_odds_contraction(trials=200, seed=0)["holds"] is False


def test_clipped_conductance_is_refused():
    # psi below the floor would test the clipped law, not the stated bound
    with pytest.raises(ProtocolError, match="psi_min"):
        check_odds_contraction(trials=50, w_h=1000)


def test_toy_rollout_draws_as_sample_action():
    mdp, policy = make_toy_mdp(8, seed=6), make_toy_policy(6)
    states, actions, _ = mdp.rollout(policy, 30, 0, substream(6, 31, 0))
    s, rng = 0, substream(6, 31, 0)
    policy.reset_memory()
    for t in range(30):
        a = policy.sample_action(mdp.observation(s, t, 30), None, rng)
        s = categorical(mdp.row(s, a, 0).tolist(), rng)
        assert (states[t], actions[t]) == (s, a)
