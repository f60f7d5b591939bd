"""Policies, freezing contract, and trainer math."""

import numpy as np
import pytest

from replaylab.errors import ProtocolError
from replaylab.policies import N_ACTIONS, OBS_DIM, Policy, softmax
from replaylab.rng import categorical, substream
from replaylab.training import (Batch, TrainerState, check_finite,
                                dual_update, gae_advantages,
                                ss_penalty_update, surrogate_loss_and_grad,
                                train_epoch)

OBS = np.array([0.2, 1.0, 0.5, 0.1])


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
