"""Desk-scale constrained policy-gradient trainer.

PPO-style clipped surrogate on a softmax-linear policy with a linear value
baseline, GAE advantages, and projected dual ascent on the harm-trace and
scar-increment costs. The per-step scalar signal is
r_t - lam_G * sum(G_t) - lam_H * scar_increment_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .policies import Policy, softmax

__all__ = ["TrainerState", "Batch", "train_epoch", "dual_update",
           "gae_advantages", "surrogate_loss_and_grad", "ss_penalty_update",
           "check_finite"]


@dataclass
class Batch:
    """Flat trajectory batch; `starts` marks episode boundaries."""

    features: np.ndarray        # (T, F)
    actions: np.ndarray         # (T,) int
    rewards: np.ndarray         # (T,) raw task rewards
    g_sums: np.ndarray          # (T,) sum_r G_t^r
    h_increments: np.ndarray    # (T,) costed scar increment
    old_logp: np.ndarray        # (T,) log-prob of actions at collection time
    starts: np.ndarray          # (T,) bool, True at episode starts

    def __len__(self):
        return self.actions.size


@dataclass
class TrainerState:
    policy: Policy
    value_w: np.ndarray = None
    lam_G: float = 0.0
    lam_H: float = 0.0
    lr: float = 3e-4
    vf_lr: float = 1e-2
    lr_dual: float = 1e-2
    gamma: float = 0.99
    clip: float = 0.2
    gae_lambda: float = 0.95
    budget_G: float = 0.0
    budget_H: float = 0.0

    def __post_init__(self):
        if self.value_w is None:
            self.value_w = np.zeros(self.policy.feature_dim)


def penalized_rewards(trainer: TrainerState, batch: Batch) -> np.ndarray:
    return (batch.rewards - trainer.lam_G * batch.g_sums
            - trainer.lam_H * batch.h_increments)


def gae_advantages(rewards: np.ndarray, values: np.ndarray, starts: np.ndarray,
                   gamma: float, lam: float):
    """GAE(lambda) advantages and value targets; episodes end at the next
    start marker (bootstrap value 0 at boundaries)."""
    t_total = rewards.size
    adv = np.zeros(t_total)
    last = 0.0
    for t in range(t_total - 1, -1, -1):
        terminal = (t == t_total - 1) or starts[t + 1]
        next_v = 0.0 if terminal else values[t + 1]
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta if terminal else delta + gamma * lam * last
        adv[t] = last
    returns = adv + values
    return adv, returns


def surrogate_loss_and_grad(weights: np.ndarray, feats: np.ndarray,
                            actions: np.ndarray, adv: np.ndarray,
                            old_logp: np.ndarray, clip: float):
    """Clipped-surrogate objective (to maximize) and its weight gradient."""
    probs = softmax(feats @ weights.T)              # (T, A)
    t_idx = np.arange(actions.size)
    logp = np.log(probs[t_idx, actions])
    ratio = np.exp(logp - old_logp)
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    obj_terms = np.minimum(ratio * adv, clipped * adv)
    loss = obj_terms.mean()
    # gradient flows only through unclipped terms
    active = np.where(adv >= 0, ratio <= 1.0 + clip, ratio >= 1.0 - clip)
    coef = np.where(active, ratio * adv, 0.0) / actions.size
    onehot = np.zeros_like(probs)
    onehot[t_idx, actions] = 1.0
    grad = ((onehot - probs) * coef[:, None]).T @ feats   # (A, F)
    return loss, grad


def train_epoch(trainer: TrainerState, batch: Batch) -> TrainerState:
    """One clipped-surrogate gradient step plus a value-baseline update."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    if trainer.policy.frozen:
        raise ProtocolError("cannot train a frozen policy")
    rewards = penalized_rewards(trainer, batch)
    values = batch.features @ trainer.value_w
    adv, returns = gae_advantages(rewards, values, batch.starts,
                                  trainer.gamma, trainer.gae_lambda)
    std = adv.std()
    if std > 1e-8:
        adv = (adv - adv.mean()) / std
    _, grad = surrogate_loss_and_grad(trainer.policy.weights, batch.features,
                                      batch.actions, adv, batch.old_logp,
                                      trainer.clip)
    trainer.policy.set_weights(trainer.policy.weights + trainer.lr * grad)
    # value regression step on the same batch
    err = batch.features @ trainer.value_w - returns
    vgrad = batch.features.T @ err / len(batch)
    trainer.value_w = trainer.value_w - trainer.vf_lr * vgrad
    return trainer


def check_finite(trainer: TrainerState, where: str) -> None:
    """Raise ProtocolError, naming `where`, unless the policy and value
    weights are all finite (a diverged policy has no distribution to draw
    from)."""
    if not (np.isfinite(trainer.policy.weights).all()
            and np.isfinite(trainer.value_w).all()):
        raise ProtocolError(f"{where}: policy or value weights are not finite")


def dual_update(trainer: TrainerState, batch: Batch) -> TrainerState:
    """Projected gradient ascent on the dual variables."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    trainer.lam_G = max(0.0, trainer.lam_G + trainer.lr_dual *
                        (batch.g_sums.mean() - trainer.budget_G))
    trainer.lam_H = max(0.0, trainer.lam_H + trainer.lr_dual *
                        (batch.h_increments.mean() - trainer.budget_H))
    return trainer


def ss_penalty_update(penalty: float, harm: float, lr_dual: float,
                      beta: float = 0.95, p_min: float = 0.0) -> float:
    """Decaying scalar penalty used by the static-penalty baseline.

    p' = max(p_min, beta * p + lr_dual * harm): the penalty rises with
    observed harm and decays geometrically toward p_min without it, so its
    effect on behavior is transient once harm stops.
    """
    return max(p_min, beta * penalty + lr_dual * harm)
