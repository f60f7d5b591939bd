"""Policies, freezing contract, and trainer math."""

from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from replaylab.errors import ProtocolError
from replaylab.policies import N_ACTIONS, OBS_DIM, Policy, act, softmax
from replaylab.rng import substream
from replaylab.training import (Batch, TrainerState, check_finite,
                                dual_update, gae_advantages,
                                ss_penalty_update, surrogate_loss_and_grad,
                                train_epoch)

OBS = np.array([0.2, 1.0, 0.5, 0.1])


def categorical(p, rng):
    """Reference draw: an index from the probabilities `p` with one
    uniform, in Python floats, as `rng.choice(len(p), p=p)` draws it."""
    cdf = list(accumulate(p))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


def test_zero_weights_give_uniform_distribution():
    pol = Policy(kind="softmax")
    pol.set_weights(np.zeros_like(pol.weights))
    dist = pol.action_distribution(pol.features(OBS))
    assert np.allclose(dist, 1.0 / 3.0, atol=1e-15)


def test_softmax_closed_form():
    assert np.allclose(softmax(np.array([1.0, 0.0, 0.0])),
                       [0.5761168847658291, 0.21194155761708544,
                        0.21194155761708544], atol=1e-12)
    # realize those logits through the bias column
    pol = Policy(kind="softmax")
    w = np.zeros_like(pol.weights)
    w[0, -1] = 1.0
    pol.set_weights(w)
    assert np.allclose(pol.action_distribution(pol.features(OBS)),
                       softmax(np.array([1.0, 0.0, 0.0])), atol=1e-12)


def test_scripted_one_hot_and_uniform_draw_count():
    pol = Policy(kind="scripted", scripted_action=1)
    dist = pol.action_distribution(pol.features(OBS))
    assert dist.tolist() == [0.0, 1.0, 0.0]
    rng_a = substream(0, 50)
    rng_b = substream(0, 50)
    assert pol.sample_action(OBS, None, rng_a) == 1
    rng_b.random()  # scripted policies consume exactly one draw
    assert rng_a.random() == rng_b.random()


def test_categorical_draws_as_rng_choice():
    # same index as rng.choice(len(p), p=p), and the stream left where
    # rng.choice leaves it, for action-sized and 8-entry rows
    dists = substream(0, 55)
    ours, theirs = substream(0, 56), substream(0, 56)
    for i in range(3000):
        p = dists.dirichlet(np.ones(3 if i % 2 else 8))
        if i % 5 == 0:
            p[int(dists.integers(len(p)))] = 0.0
            p /= p.sum()
        assert categorical(p.tolist(), ours) == theirs.choice(len(p), p=p)
    assert ours.random() == theirs.random()


def test_sampling_frequencies_match_distribution():
    pol = Policy(kind="softmax", seed=3)
    dist = pol.action_distribution(pol.features(OBS))
    rng = substream(0, 51)
    n = 5000
    counts = np.bincount([pol.sample_action(OBS, None, rng) for _ in range(n)],
                         minlength=N_ACTIONS)
    for a in range(N_ACTIONS):
        se = (dist[a] * (1 - dist[a]) / n) ** 0.5
        assert abs(counts[a] / n - dist[a]) <= 3 * max(se, 1e-3)


class _Masked(Policy):
    """`base` with a fixed action mask, as a shield has one after a bind."""

    def __init__(self, base, mask):
        vars(self).update(vars(base))
        self.mask = np.array(mask, dtype=float)

    def action_mask(self):
        return self.mask


def _batch_case(case):
    """(policies, augmented) for one batch of `test_act_equals_one_row`."""
    if case == "scripted-1":
        return [Policy(kind="scripted", scripted_action=2)], False
    if case == "scripted-mixed":
        return [Policy(kind="scripted", feature_mode="augmented",
                       scripted_action=a) for a in (0, 1, 2, 2, 0)], False
    if case == "softmax-1":
        return [Policy(kind="softmax", feature_mode="augmented", seed=3)], True
    if case == "softmax-per-copy":
        # weights large enough that the draws spread over the actions
        return [Policy(kind="softmax", feature_mode="augmented",
                       weights=substream(1, s).normal(size=(3, 10)))
                for s in range(6)], True
    if case == "window":
        return [Policy(kind="window", window=3,
                       weights=substream(2, s).normal(size=(3, 13)))
                for s in range(4)], False
    # logits 800 apart put all of a row's mass on one action (the others
    # underflow to 0), so a mask without that action leaves no mass
    policies = []
    for b, (top, mask) in enumerate([(0, (0, 1, 1)), (1, (1, 0, 1)),
                                     (2, (1, 1, 1)), (0, (1, 0, 0)),
                                     (1, (0, 0, 1)), (2, (0, 1, 0))]):
        w = substream(3, b).normal(size=(3, 5))
        w[top, -1] += 800.0
        policies.append(_Masked(Policy(kind="softmax", weights=w), mask))
    policies.append(Policy(kind="softmax", weights=substream(3, 9).normal(
        size=(3, 5))))
    return policies, False


def _reference_dist(policy, x, mask):
    # the one-row reference: softmax(W @ x), then the shield's mask
    if policy.kind == "scripted":
        dist = np.zeros(N_ACTIONS)
        dist[policy.scripted_action] = 1.0
    else:
        logits = policy.weights @ x
        e = np.exp(logits - logits.max())
        dist = e / e.sum()
    if mask is not None:
        gated = dist * mask
        if gated.sum() <= 0:
            gated = mask
        dist = gated / gated.sum()
    return dist


@pytest.mark.parametrize("case", ["scripted-1", "scripted-mixed", "softmax-1",
                                  "softmax-per-copy", "window", "shielded"])
def test_act_equals_one_row(case):
    # over several steps, the batch pass gives every copy the features,
    # distribution and action of its one-row evaluation, bit for bit, and
    # leaves its generator where `categorical` leaves it
    policies, augmented = _batch_case(case)
    b_count = len(policies)
    rngs = [substream(4, b) for b in range(b_count)]
    ref_rngs = [substream(4, b) for b in range(b_count)]
    past = [[] for _ in policies]
    inputs = substream(5, b_count)
    zero_mass = 0
    for _ in range(6):
        obs = inputs.uniform(size=(b_count, OBS_DIM))
        summary = inputs.uniform(0, 20, size=(b_count, 5)) if augmented \
            else None
        actions, dists, x = act(policies, obs, summary, rngs)
        for b, p in enumerate(policies):
            window = p.window - 1
            row = np.concatenate(
                [obs[b], *past[b][::-1][:window],
                 *[np.zeros(OBS_DIM)] * (window - len(past[b])),
                 *([summary[b]] if augmented else []), [1.0]])
            mask = p.action_mask()
            want = _reference_dist(p, row, mask)
            if p.kind == "scripted":
                assert x is None
            else:
                assert x[b].tobytes() == row.tobytes()
            assert dists[b].tobytes() == want.tobytes()
            assert actions[b] == categorical(want.tolist(), ref_rngs[b])
            assert rngs[b].bit_generator.state == \
                ref_rngs[b].bit_generator.state
            past[b].append(obs[b])
            if mask is not None:
                zero_mass += not (_reference_dist(p, row, None) * mask).any()
    if case == "shielded":
        assert zero_mass >= 6 * 4
    if case in ("scripted-mixed", "softmax-per-copy"):
        assert len(set(actions)) > 1


def test_act_needs_one_structure():
    rng = [substream(6), substream(7)]
    obs = np.zeros((2, OBS_DIM))
    for other in (Policy(kind="scripted", scripted_action=0),
                  Policy(kind="softmax", feature_mode="augmented"),
                  Policy(kind="window", window=2)):
        with pytest.raises(ValueError, match="one \\(kind, feature_mode"):
            act([Policy(kind="softmax"), other], obs, None, rng)


def test_frozen_weight_mutation_rejected():
    pol = Policy(kind="softmax").freeze()
    with pytest.raises(ProtocolError):
        pol.set_weights(np.zeros_like(pol.weights))


def test_weight_hash_stable_across_round_trip():
    pol = Policy(kind="softmax", seed=7)
    text = pol.to_json(training_config_hash="abc")
    again = Policy.from_json(text)
    assert again.weight_hash() == pol.weight_hash()
    assert again.to_json(training_config_hash="abc") == text


def test_window_memory_reset_restores_fresh_behavior():
    pol = Policy(kind="window", window=4, seed=2)
    fresh = Policy(kind="window", window=4, weights=pol.weights.copy())
    rng = substream(0, 52)
    for _ in range(6):
        pol.sample_action(substream(0, 53).uniform(size=OBS_DIM), None, rng)
    pol.reset_memory()
    assert np.array_equal(pol.features(OBS), fresh.features(OBS))
    assert np.allclose(pol.action_distribution(pol.features(OBS)),
                       fresh.action_distribution(fresh.features(OBS)),
                       atol=1e-15)


def test_window_features_most_recent_first_zero_padded():
    pol = Policy(kind="window", window=3, seed=0)
    o1 = np.array([1.0, 0, 0, 0])
    o2 = np.array([2.0, 0, 0, 0])
    rng = substream(0, 54)
    pol.sample_action(o1, None, rng)
    pol.sample_action(o2, None, rng)
    f = pol.features(OBS)
    assert np.array_equal(f[:OBS_DIM], OBS)
    assert np.array_equal(f[OBS_DIM:2 * OBS_DIM], o2)
    assert np.array_equal(f[2 * OBS_DIM:3 * OBS_DIM], o1)
    assert f[-1] == 1.0  # bias


def test_surrogate_gradient_finite_difference():
    rng = substream(0, 55)
    t, fdim = 40, 5
    w = rng.normal(size=(N_ACTIONS, fdim))
    feats = rng.normal(size=(t, fdim))
    actions = rng.integers(0, N_ACTIONS, size=t)
    adv = rng.normal(size=t)
    old_logp = np.log(np.array(
        [softmax(w @ f)[a] for f, a in zip(feats, actions)])) \
        + rng.normal(scale=0.05, size=t)
    _, grad = surrogate_loss_and_grad(w, feats, actions, adv, old_logp, 0.2)
    eps = 1e-6
    for idx in [(0, 0), (1, 3), (2, 4)]:
        wp, wm = w.copy(), w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        lp, _ = surrogate_loss_and_grad(wp, feats, actions, adv, old_logp, 0.2)
        lm, _ = surrogate_loss_and_grad(wm, feats, actions, adv, old_logp, 0.2)
        num = (lp - lm) / (2 * eps)
        assert abs(num - grad[idx]) <= 1e-4 * max(1.0, abs(num))


def test_zero_reward_batch_leaves_weights_unchanged():
    pol = Policy(kind="softmax", seed=4)
    before = pol.weights.copy()
    trainer = TrainerState(policy=pol)
    t = 16
    feats = np.array([pol.features(OBS) for _ in range(t)])
    p0 = pol.action_distribution(feats[0])[0]
    batch = Batch(features=feats, actions=np.zeros(t, dtype=int),
                  rewards=np.zeros(t), g_sums=np.zeros(t),
                  h_increments=np.zeros(t),
                  old_logp=np.log(np.full(t, p0)),
                  starts=np.zeros(t, dtype=bool))
    train_epoch(trainer, batch)
    assert np.max(np.abs(pol.weights - before)) < 1e-10


def test_train_epoch_contracts():
    pol = Policy(kind="softmax").freeze()
    trainer = TrainerState(policy=pol)
    batch = Batch(features=np.ones((2, pol.feature_dim)),
                  actions=np.zeros(2, dtype=int), rewards=np.ones(2),
                  g_sums=np.zeros(2), h_increments=np.zeros(2),
                  old_logp=np.zeros(2), starts=np.zeros(2, dtype=bool))
    with pytest.raises(ProtocolError):
        train_epoch(trainer, batch)
    trainer2 = TrainerState(policy=Policy(kind="softmax"))
    empty = Batch(features=np.empty((0, 1)), actions=np.empty(0, dtype=int),
                  rewards=np.empty(0), g_sums=np.empty(0),
                  h_increments=np.empty(0), old_logp=np.empty(0),
                  starts=np.empty(0, dtype=bool))
    with pytest.raises(ValueError):
        train_epoch(trainer2, empty)


def test_gae_bootstraps_zero_at_episode_starts():
    rewards = np.array([1.0, 0.0, 1.0, 0.0])
    values = np.zeros(4)
    starts = np.array([True, False, True, False])
    adv, rets = gae_advantages(rewards, values, starts, gamma=0.5, lam=1.0)
    # episodes are [1, 0] and [1, 0]: returns (1 + 0.5*0, 0) each
    assert np.allclose(rets, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_dual_update_and_projection():
    pol = Policy(kind="softmax")
    trainer = TrainerState(policy=pol, lam_G=0.1, lr_dual=0.01)
    t = 4
    batch = Batch(features=np.ones((t, pol.feature_dim)),
                  actions=np.zeros(t, dtype=int), rewards=np.zeros(t),
                  g_sums=np.full(t, 2.0), h_increments=np.zeros(t),
                  old_logp=np.zeros(t), starts=np.zeros(t, dtype=bool))
    dual_update(trainer, batch)
    assert trainer.lam_G == pytest.approx(0.12, abs=1e-15)
    trainer.budget_G = 100.0
    dual_update(trainer, batch)
    assert trainer.lam_G == 0.0  # projected back to the nonnegative orthant


def test_ss_penalty_transient_decay():
    p = ss_penalty_update(0.0, 1.0, lr_dual=0.5)
    assert p == pytest.approx(0.5)
    for t in range(1, 20):
        p = ss_penalty_update(p, 0.0, lr_dual=0.5)
        assert p == pytest.approx(0.5 * 0.95 ** t, abs=1e-12)
    assert ss_penalty_update(0.001, 0.0, lr_dual=0.5, p_min=0.01) == 0.01


def test_policy_constructor_validation():
    with pytest.raises(ValueError):
        Policy(kind="mystery")
    with pytest.raises(ValueError):
        Policy(kind="softmax", feature_mode="bogus")
    with pytest.raises(ValueError):
        Policy(kind="scripted")
    with pytest.raises(ValueError):
        Policy(kind="softmax", feature_mode="augmented").features(OBS)


def test_check_finite_catches_a_diverged_value_step():
    # a value step of 1e300 overflows the value weights within two epochs
    # of one small batch
    pol = Policy(kind="softmax", seed=4)
    trainer = TrainerState(policy=pol, vf_lr=1e300)
    t = 8
    batch = Batch(features=np.full((t, pol.feature_dim), 3.0),
                  actions=np.zeros(t, dtype=int), rewards=np.ones(t),
                  g_sums=np.zeros(t), h_increments=np.zeros(t),
                  old_logp=np.zeros(t), starts=np.zeros(t, dtype=bool))
    check_finite(trainer, "before")
    with np.errstate(all="ignore"):
        for _ in range(2):
            train_epoch(trainer, batch)
    with pytest.raises(ProtocolError, match="diverged here"):
        check_finite(trainer, "diverged here")
