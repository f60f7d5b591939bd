"""Executable theory checks and their negative controls."""

from dataclasses import replace

import pytest

from replaylab import deformation, graph_env, rsd, verification
from replaylab.deformation import DeformationSpec
from replaylab.errors import ProtocolError
from replaylab.verification import (check_compounding,
                                    check_compounding_chain, check_no_go,
                                    check_odds_contraction,
                                    check_odds_extension, check_safe_mass,
                                    clipping_relaxation_demo,
                                    make_toy_policy, run_all_checks)

OFF, FULL = DeformationSpec(mode="off"), DeformationSpec(mode="full")


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
    # RAPO's kernel reads the scar that exposure left behind
    res = check_no_go(FULL, trials=10, seed=1)
    assert not res["paired_identical"]


def test_no_go_requires_frozen_policy():
    from replaylab.policies import Policy
    with pytest.raises(ProtocolError):
        check_no_go(OFF, Policy(kind="softmax"), trials=2)


def test_no_go_needs_two_trials():
    with pytest.raises(ValueError, match="trials >= 2"):
        check_no_go(OFF, trials=1)


def test_no_go_runs_the_shipped_kernel(monkeypatch):
    # a stationary arm whose step reads the persistent fields must fail
    # the check, so the check steps the library's runner, not a private
    # model
    def scarred(batch, actions, graph, fields, deform, rngs, params):
        return graph_env.env_steps(batch, actions, graph, fields,
                                   deform.with_mode("full"), rngs, params)
    monkeypatch.setattr(rsd, "env_steps", scarred)
    with pytest.raises(ProtocolError, match="divergent paired"):
        check_no_go(OFF, trials=10, seed=0)


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
    # the check holds for any frozen policy, whatever actions it favours
    a = check_no_go(OFF, make_toy_policy(1), trials=20, seed=5)
    b = check_no_go(OFF, make_toy_policy(2), trials=20, seed=5)
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


@pytest.mark.parametrize("check", [check_odds_contraction,
                                   check_odds_extension])
def test_odds_checks_hold_over_seeds(check):
    # the slack is relative: with bounds up to about 3e4, an absolute
    # slack of 1e-12 is below one ulp, and rounding alone failed seeds
    # 14 and 28 of the contraction check
    for seed in range(30):
        out = check(seed=seed)
        assert out["holds"], (seed, out)
        assert out["worst_excess"] <= 1e-12
