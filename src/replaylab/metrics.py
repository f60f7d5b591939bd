"""Replay and mechanism metrics computed from episode records.

All functions are pure in (record, references); recomputing from persisted
JSONL reproduces the same report bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ProtocolError
from .rsd import RsdEpisodeRecord

__all__ = [
    "EPS", "replay_ratios", "replay_return", "discounted_return",
    "action_shift_distance", "odds_ratio_series", "containment_radius",
    "episode_metrics", "welch_ttest",
]

EPS = 1e-8


def replay_ratios(record: RsdEpisodeRecord):
    """(RAG, AUC-R, SM-R): replay/exposure ratios of peak reach, total
    reach mass, and total sensitive mass."""
    exp = record.phases["exposure"]
    rep = record.phases["replay"]
    rag = max(rep.reach) / (max(exp.reach) + EPS)
    auc_r = sum(rep.reach) / (sum(exp.reach) + EPS)
    sm_r = sum(rep.sens) / (sum(exp.sens) + EPS)
    return rag, auc_r, sm_r


def discounted_return(rewards, gamma: float) -> float:
    acc = 0.0
    for r in reversed(rewards):
        acc = r + gamma * acc
    return acc


def replay_return(record: RsdEpisodeRecord, ge_reference: float) -> float:
    """Replay-phase discounted return normalized by the GE reference."""
    if ge_reference is None or ge_reference <= 0:
        raise ProtocolError("replay_return requires a positive GE reference")
    gamma = record.config["gamma"]
    return discounted_return(record.phases["replay"].rewards, gamma) / ge_reference


def action_shift_distance(record: RsdEpisodeRecord) -> float:
    """Mean total-variation distance between the exposure- and replay-time
    action distributions, paired by phase-local step index."""
    exp = record.phases["exposure"].action_dists
    rep = record.phases["replay"].action_dists
    n = min(len(exp), len(rep))
    if n == 0:
        return 0.0
    tv = 0.5 * np.abs(np.array(exp[:n], dtype=float)
                      - np.array(rep[:n], dtype=float)).sum(axis=1)
    # summed in step order (np.sum's pairwise order moves the last bits)
    return float(np.add.accumulate(tv)[-1]) / n


def odds_ratio_series(record: RsdEpisodeRecord, phase: str = "replay"):
    """Stepwise (p/q)/(p0/q0); steps with p0 = 0 are skipped and counted."""
    p, q, p0, q0 = np.array(record.phases[phase].odds,
                            dtype=float).reshape(-1, 4).T
    keep = (p0 > 0.0) & (q0 > 0.0) & (q > 0.0)
    ratios = (p[keep] / q[keep]) / (p0[keep] / q0[keep])
    return ratios.tolist(), int(keep.size - keep.sum())


def containment_radius(record: RsdEpisodeRecord, phase: str) -> int:
    """Maximum hop distance from the stimulus seeds reached in the phase."""
    radius = record.phases[phase].radius
    return max(radius) if radius else 0


def episode_metrics(record: RsdEpisodeRecord, ge_reference: float | None = None) -> dict:
    rag, auc_r, sm_r = replay_ratios(record)
    ratios, skipped = odds_ratio_series(record)
    out = {
        "rag": rag, "auc_r": auc_r, "sm_r": sm_r,
        "asd": action_shift_distance(record),
        "odds_ratio_mean": float(np.mean(ratios)) if ratios else float("nan"),
        "odds_steps_skipped": skipped,
        "rc_exp": containment_radius(record, "exposure"),
        "rc_rep": containment_radius(record, "replay"),
        "replay_return_raw": discounted_return(
            record.phases["replay"].rewards, record.config["gamma"]),
    }
    if ge_reference is not None:
        out["replay_ret"] = replay_return(record, ge_reference)
    return out


def welch_ttest(sample_a, sample_b):
    """Two-sample Welch's t-test (unequal variance). Returns (t, p)."""
    from scipy import stats  # deferred: it takes about a second to import
    res = stats.ttest_ind(np.asarray(sample_a, dtype=float),
                          np.asarray(sample_b, dtype=float), equal_var=False)
    return float(res.statistic), float(res.pvalue)
