"""Policy representations with a frozen-evaluation contract.

Three kinds: a scripted constant-action policy, a softmax-linear policy over
observation features (optionally augmented with harm-field summaries), and a
window-history policy over the stacked last W observations. Memory (the
observation window) is distinct from weights: frozen policies still update
memory, and reset_memory restores the exact initial state.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque

import numpy as np

from .deformation import DeformationSpec, conductance, segment_sums
from .errors import ProtocolError
from .harm_memory import HarmFields
from .rng import categorical_rows

__all__ = ["Policy", "N_ACTIONS", "OBS_DIM", "FIELD_FEATURE_DIM",
           "field_features", "field_features_batch", "softmax", "act",
           "batch_features", "batch_distributions"]

N_ACTIONS = 3
OBS_DIM = 4
FIELD_FEATURE_DIM = 5


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis: of a logit vector, or of each row."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def field_features(fields: HarmFields, deform: DeformationSpec,
                   frontier_regions: np.ndarray) -> np.ndarray:
    """Summaries of the harm fields fed to augmented policies:
    (sum G, sum H, max G, max H, mean conductance over frontier regions)."""
    frontier = np.zeros((1, fields.G.size), dtype=bool)
    frontier[0, frontier_regions] = True
    return field_features_batch(fields, deform, frontier)[0]


def field_features_batch(fields: HarmFields, deform: DeformationSpec,
                         frontier: np.ndarray) -> np.ndarray:
    """`field_features` of B copies, one row per copy: (B, N) fields (or
    [N] for one copy) and a (B, N) mask of each copy's frontier regions.
    Each row equals the one-copy result bit for bit; a copy without
    frontier has mean conductance 1."""
    count = frontier.sum(axis=1)
    g, h = fields.G.reshape(frontier.shape), fields.H.reshape(frontier.shape)
    out = np.empty((len(count), FIELD_FEATURE_DIM))
    np.add.reduce(g, axis=1, out=out[:, 0])
    np.add.reduce(h, axis=1, out=out[:, 1])
    np.maximum.reduce(g, axis=1, out=out[:, 2])
    np.maximum.reduce(h, axis=1, out=out[:, 3])
    out[:, 4] = 1.0
    if count.any():
        regions = frontier.ravel().nonzero()[0]
        psi = segment_sums(conductance(regions, fields, deform), count)
        np.divide(psi, count, out=out[:, 4], where=count > 0)
    return out


def batch_features(policies, obs: np.ndarray,
                   field_summary: np.ndarray | None = None) -> np.ndarray:
    """`Policy.features` of B policies of one structure (see `act`), one
    row per policy: the (B, 4) observations, each window's past
    observations (most recent first, zero-padded), the (B, 5) field
    summaries for augmented policies, and the bias."""
    head = policies[0]
    x = np.zeros((len(policies), head.feature_dim))
    x[:, :OBS_DIM] = obs
    if head.window > 1:
        for row, p in zip(x, policies):
            for i, past in enumerate(reversed(p._memory), start=1):
                row[i * OBS_DIM:(i + 1) * OBS_DIM] = past
    if head.feature_mode == "augmented":
        if field_summary is None:
            raise ValueError("augmented policy requires field_summary")
        x[:, head.window * OBS_DIM:-1] = field_summary
    x[:, -1] = 1.0
    return x


def batch_distributions(policies, features: np.ndarray | None) -> np.ndarray:
    """`Policy.action_distribution` of B policies of one structure (see
    `act`), one (B, 3) row per policy. A scripted row is one-hot and reads
    no features (`features` may be None); a softmax or window row is the
    softmax of its own weights times its row of the (B, F) features. A
    policy with an action mask (the shield) keeps the masked part of its
    row, renormalised, or the uniform row over the mask when that part has
    no mass. Each row equals the one-policy evaluation bit for bit: the
    stacked product computes each row as `W @ x` does (`X @ W.T` does
    not)."""
    b_count = len(policies)
    if policies[0].kind == "scripted":
        dists = np.zeros((b_count, N_ACTIONS))
        dists[np.arange(b_count), [p.scripted_action for p in policies]] = 1.0
    else:
        w = np.array([p.weights for p in policies])
        dists = softmax(np.matmul(w, features[:, :, None])[..., 0])
    masked = [(b, m) for b, p in enumerate(policies)
              if (m := p.action_mask()) is not None]
    if masked:
        rows, masks = zip(*masked)
        rows, masks = list(rows), np.array(masks)
        gated = dists[rows] * masks
        empty = np.add.reduce(gated, axis=1) <= 0
        gated[empty] = masks[empty]
        dists[rows] = gated / np.add.reduce(gated, axis=1, keepdims=True)
    return dists


def _one_row(obs, field_summary):
    # one policy's inputs as the one-row batch of `act`
    return (np.asarray(obs, dtype=float)[None],
            None if field_summary is None else np.asarray(field_summary)[None])


def act(policies, obs: np.ndarray | None,
        field_summary: np.ndarray | None, rngs):
    """One step of B policies as one array pass: their features (None for
    scripted policies, which read no observation, so `obs` may then be
    None), their (B, 3) action distributions, and one draw per policy from
    its own generator (`rng.categorical_rows`). Then each window policy
    remembers its observation. The policies must share one kind, feature
    mode and window (weights and scripted actions may differ); ValueError
    otherwise. Returns the actions (a list), the distributions and the
    features."""
    head = policies[0]
    structure = (head.kind, head.feature_mode, head.window)
    if any((p.kind, p.feature_mode, p.window) != structure
           for p in policies[1:]):
        raise ValueError("a policy batch needs one (kind, feature_mode, "
                         "window) for all its policies")
    x = None if head.kind == "scripted" else \
        batch_features(policies, obs, field_summary)
    dists = batch_distributions(policies, x)
    actions = categorical_rows(dists, rngs).tolist()
    if head.window > 1:
        for p, o in zip(policies, obs):
            p.remember(o)
    return actions, dists, x


class Policy:
    """Action-distribution object with resettable internal memory."""

    def __init__(self, kind: str, feature_mode: str = "obs", window: int = 1,
                 weights: np.ndarray | None = None,
                 scripted_action: int | None = None, seed: int = 0):
        if kind not in ("scripted", "softmax", "window"):
            raise ValueError(f"unknown policy kind {kind!r}")
        if feature_mode not in ("obs", "augmented"):
            raise ValueError(f"unknown feature mode {feature_mode!r}")
        if kind == "scripted" and not (isinstance(scripted_action, int)
                                       and 0 <= scripted_action < N_ACTIONS):
            raise ValueError(f"scripted policy needs an action in 0..{N_ACTIONS - 1}")
        if kind == "window" and not (isinstance(window, int) and window >= 1):
            raise ValueError("window must be an integer >= 1")
        self.kind = kind
        self.feature_mode = feature_mode
        self.window = window if kind == "window" else 1
        self.scripted_action = scripted_action
        self.frozen = False
        if kind == "scripted":
            self.weights = None
        elif weights is not None:
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (N_ACTIONS, self.feature_dim):
                raise ValueError(f"weights must have shape ({N_ACTIONS}, "
                                 f"{self.feature_dim}), not {self.weights.shape}")
        else:
            rng = np.random.Generator(np.random.PCG64(seed))
            self.weights = 0.01 * rng.standard_normal((N_ACTIONS, self.feature_dim))
        self._memory: deque = deque(maxlen=max(self.window - 1, 0))

    # -- features ----------------------------------------------------------

    @property
    def obs_feature_dim(self) -> int:
        d = OBS_DIM * self.window
        if self.feature_mode == "augmented":
            d += FIELD_FEATURE_DIM
        return d

    @property
    def feature_dim(self) -> int:
        return self.obs_feature_dim + 1  # bias

    def features(self, obs: np.ndarray,
                 field_summary: np.ndarray | None = None) -> np.ndarray:
        """Assemble the linear feature vector for the current step."""
        return batch_features([self], *_one_row(obs, field_summary))[0]

    # -- evaluation --------------------------------------------------------

    def action_distribution(self, features: np.ndarray) -> np.ndarray:
        """Distribution over actions at a vector built by `Policy.features`."""
        return batch_distributions([self], np.asarray(features)[None])[0]

    def action_mask(self) -> np.ndarray | None:
        """The actions allowed at the bound state as a 0/1 row over the
        actions, or None when every action is allowed."""
        return None

    def sample_action(self, obs: np.ndarray, field_summary: np.ndarray | None,
                      rng: np.random.Generator) -> int:
        """Draw an action (one uniform, whatever the kind) and remember obs."""
        actions, _, _ = act([self], *_one_row(obs, field_summary), [rng])
        return actions[0]

    def remember(self, obs: np.ndarray) -> None:
        """Push obs into the history window (memory is not weights, so a
        frozen policy still remembers)."""
        if self.window > 1:
            self._memory.append(np.asarray(obs, dtype=float).copy())

    def reset_memory(self) -> None:
        self._memory.clear()

    # -- freezing / identity -----------------------------------------------

    def freeze(self) -> "Policy":
        self.frozen = True
        return self

    def set_weights(self, weights: np.ndarray) -> None:
        if self.frozen:
            raise ProtocolError("cannot mutate a frozen policy's weights")
        self.weights = np.asarray(weights, dtype=float)

    def weight_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(self.feature_mode.encode())
        h.update(str(self.window).encode())
        if self.weights is not None:
            h.update(np.ascontiguousarray(self.weights).tobytes())
        if self.scripted_action is not None:
            h.update(bytes([self.scripted_action]))
        return h.hexdigest()

    # -- checkpoints ---------------------------------------------------------

    def to_json(self, training_config_hash: str = "") -> str:
        obj = {
            "kind": self.kind,
            "feature_mode": self.feature_mode,
            "window": self.window,
            "scripted_action": self.scripted_action,
            "weights": None if self.weights is None else self.weights.tolist(),
            "training_config_hash": training_config_hash,
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Policy":
        """Parse a checkpoint; raise ValueError if it is malformed."""
        obj = json.loads(text)
        try:
            w = obj["weights"]
            if w is None and obj["kind"] != "scripted":
                raise ValueError(f"a {obj['kind']} checkpoint needs weights")
            return cls(kind=obj["kind"], feature_mode=obj["feature_mode"],
                       window=obj["window"],
                       weights=None if w is None else np.array(w, dtype=float),
                       scripted_action=obj["scripted_action"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint field missing or mistyped: {exc}") from None
