"""Executable checks of the theoretical claims on small explicit models.

Three claims, each with a positive check and a mandatory negative control:

* No-go: with a stationary kernel, resetting the observable state and the
  agent cannot change replay behavior. Paired random streams turn this into
  bit-exact trajectory equality; independent streams into distributional
  indistinguishability. The negative control is a kernel that reads a
  persistent internal variable.
* Odds contraction: exponential destination conductance multiplies the
  harmful-versus-safe odds by at most exp(-w_H * (h_star - h_0)); with
  non-uniform traces the factor relaxes to
  exp(-w_H * (h_star - h_0)) * exp(w_G * dG) where dG is the largest safe
  trace minus the smallest harmful trace.
* Safe-mass lower bound: the deformed safe mass never drops below
  delta*a / (delta*a + (1-delta)*b) with a = exp(-w_H*h_0),
  b = exp(-w_H*h_star), delta a lower bound on the nominal safe mass.

Multi-step compounding is checked two ways: through the per-step odds
product on random destination draws, and exactly from kernel products on a
k-step chain where reaching the harmful sink requires k consecutive harmful
entries. A companion demonstration shows why the naive factor exp(-g*k)
alone and the clipped conductance both fall outside the guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .policies import Policy
from .rng import categorical, substream

__all__ = [
    "ToyMdp", "make_toy_mdp", "check_no_go", "check_odds_contraction",
    "check_odds_extension", "check_safe_mass", "check_compounding",
    "check_compounding_chain", "clipping_relaxation_demo", "run_all_checks",
]

_MAX_STATES = 64
_N_ACTIONS = 3


@dataclass
class ToyMdp:
    """Tiny explicit-kernel MDP with a harmful state set.

    `kernel` is (actions, states, states) or (states, states) for an
    action-independent chain. `xi` is a persistent environment-side counter
    incremented on every harmful-state visit. With xi_shift = 0 the kernel
    never reads it (stationary); with xi_shift > 0 the kernel moves that
    much probability mass toward state 0 once xi is positive, which breaks
    stationarity and serves as the negative control.
    """

    kernel: np.ndarray
    harmful: np.ndarray                # bool (S,)
    xi_shift: float = 0.0

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim == 2:
            k = np.repeat(k[None, :, :], _N_ACTIONS, axis=0)
        if k.ndim != 3 or k.shape[0] != _N_ACTIONS or k.shape[1] != k.shape[2]:
            raise ValueError("kernel must be (A, S, S) or (S, S)")
        s = k.shape[1]
        if s > _MAX_STATES:
            raise ValueError(f"toy chain limited to {_MAX_STATES} states")
        if np.any(k < 0):
            raise ValueError("kernel entries must be nonnegative")
        if np.max(np.abs(k.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("kernel rows must sum to 1 within 1e-12")
        self.kernel = k
        self.harmful = np.asarray(self.harmful, dtype=bool)
        if self.harmful.shape != (s,):
            raise ValueError("harmful mask must have one entry per state")

    @property
    def n_states(self) -> int:
        return self.kernel.shape[1]

    def row(self, state: int, action: int, xi: int) -> np.ndarray:
        base = self.kernel[action, state]
        if self.xi_shift > 0 and xi > 0:
            shifted = (1.0 - self.xi_shift) * base
            shifted[0] += self.xi_shift
            return shifted
        return base

    def observation(self, state: int, t: int, steps: int) -> np.ndarray:
        denom = max(self.n_states - 1, 1)
        return np.array([state / denom, float(self.harmful[state]),
                         0.0, t / steps])

    def rollout(self, policy: Policy, steps: int, xi: int,
                rng: np.random.Generator):
        """Trajectory from state 0; returns (states, actions, final xi)."""
        s = 0
        states = np.empty(steps, dtype=np.int64)
        actions = np.empty(steps, dtype=np.int64)
        for t in range(steps):
            obs = self.observation(s, t, steps)
            a = policy.sample_action(obs, None, rng)
            s = categorical(self.row(s, a, xi).tolist(), rng)
            if self.harmful[s]:
                xi += 1
            states[t] = s
            actions[t] = a
        return states, actions, xi


def make_toy_mdp(n_states: int = 8, seed: int = 0,
                 xi_shift: float = 0.0) -> ToyMdp:
    """Random dense action-dependent chain; top quarter of states harmful."""
    rng = substream(seed, 30)
    kernel = rng.dirichlet(np.ones(n_states), size=(_N_ACTIONS, n_states))
    # exact row normalization so the 1e-12 contract holds
    kernel = kernel / kernel.sum(axis=2, keepdims=True)
    harmful = np.zeros(n_states, dtype=bool)
    harmful[-max(1, n_states // 4):] = True
    return ToyMdp(kernel=kernel, harmful=harmful, xi_shift=xi_shift)


def make_toy_policy(seed: int = 0) -> Policy:
    """A frozen Markov softmax policy over the toy observation."""
    rng = substream(seed, 36)
    pol = Policy(kind="softmax", feature_mode="obs", seed=seed)
    pol.set_weights(rng.normal(size=pol.weights.shape))
    return pol.freeze()


def check_no_go(mdp: ToyMdp, policy: Policy | None = None, *,
                t_exp: int = 40, t_rep: int = 40, trials: int = 200,
                seed: int = 0, alpha: float = 0.01) -> dict:
    """Compare exposure and replay trajectories of a fresh-reset agent.

    Paired streams: replay reuses the exposure stream; stationarity predicts
    bit-identical state and action trajectories. Independent streams: a KS
    test on the harmful-visit counts must not reject at level alpha. Returns
    a dict with `paired_identical`, `ks_pvalue`, and `stationary_holds`.
    """
    if t_rep > t_exp:
        raise ValueError("paired comparison needs t_rep <= t_exp")
    policy = policy or make_toy_policy(seed)
    if not policy.frozen:
        raise ProtocolError("no-go check requires a frozen policy")
    paired_identical = True
    exp_stats, rep_stats = [], []
    for i in range(trials):
        # exposure builds up xi; the replay reset clears the state, not xi
        policy.reset_memory()
        exp_s, exp_a, xi = mdp.rollout(policy, t_exp, 0, substream(seed, 31, i))
        policy.reset_memory()
        rep_s, rep_a, _ = mdp.rollout(policy, t_rep, xi, substream(seed, 31, i))
        if not (np.array_equal(rep_s, exp_s[:t_rep])
                and np.array_equal(rep_a, exp_a[:t_rep])):
            paired_identical = False
        exp_stats.append(int(mdp.harmful[exp_s[:t_rep]].sum()))
        policy.reset_memory()
        rep_s_i, _, _ = mdp.rollout(policy, t_rep, xi, substream(seed, 32, i))
        rep_stats.append(int(mdp.harmful[rep_s_i].sum()))
    from scipy import stats  # deferred: it takes about a second to import
    ks = stats.ks_2samp(exp_stats, rep_stats)
    result = {
        "paired_identical": paired_identical,
        "ks_pvalue": float(ks.pvalue),
        "stationary_holds": paired_identical and float(ks.pvalue) > alpha,
        "alpha": alpha,
    }
    if mdp.xi_shift == 0 and not paired_identical:
        raise ProtocolError(
            "stationary kernel produced divergent paired trajectories; "
            "the no-go hypothesis is violated by the implementation")
    return result


def _deformed_masses(p0: np.ndarray, h_levels: np.ndarray,
                     harmful: np.ndarray, w_h: float,
                     g_levels: np.ndarray | float = 0.0, w_g: float = 1.0):
    """Exact reweighting with unclipped exponential conductance."""
    psi = np.exp(-w_g * np.asarray(g_levels, dtype=float) - w_h * h_levels)
    w = p0 * psi
    total = w.sum()
    # sum the two masses separately: q = 1 - p cancels catastrophically
    # when the harmful mass dominates
    p = float(w[harmful].sum() / total)
    q = float(w[~harmful].sum() / total)
    return p, q


def _random_instance(rng, two_level: bool):
    """Destinations, nominal masses, and harm levels for one trial."""
    m = int(rng.integers(3, 21))
    n_harm = int(rng.integers(1, m))
    harmful = np.zeros(m, dtype=bool)
    harmful[rng.choice(m, size=n_harm, replace=False)] = True
    p0 = rng.dirichlet(np.ones(m))
    p0 = p0 / p0.sum()
    h0 = float(rng.uniform(0.0, 1.0))
    h_star = h0 + float(rng.uniform(0.1, 3.0))
    if two_level:
        levels = np.where(harmful, h_star, h0)
    else:
        levels = np.where(harmful,
                          h_star + rng.uniform(0.0, 1.0, size=m),
                          rng.uniform(0.0, h0, size=m))
    return p0, levels, harmful, h0, h_star


def check_odds_contraction(trials: int = 10_000, w_h: float = 2.0,
                           seed: int = 0, slack: float = 1e-12) -> dict:
    """Randomized check of the odds-contraction factor exp(-w_h*(h*-h0)).

    Each trial draws 3..20 destinations and a nonempty proper harmful
    subset. Half the trials place the levels exactly at h0 and h_star
    (equality regime); half spread safe levels below h0 and harmful levels
    above h_star. A shared uniform trace offset must cancel in the
    normalization. Also checks the pinned two-destination closed form and
    the zero-gap degenerate case.
    """
    rng = substream(seed, 33)
    worst = -np.inf
    for i in range(trials):
        p0, levels, harmful, h0, h_star = _random_instance(rng, i % 2 == 0)
        g = float(rng.uniform(0.0, 2.0))
        p, q = _deformed_masses(p0, levels, harmful, w_h, g)
        p_nom = float(p0[harmful].sum())
        q_nom = float(p0[~harmful].sum())
        bound = np.exp(-w_h * (h_star - h0)) * p_nom / q_nom
        worst = max(worst, p / q - bound)
        if p / q > bound + slack:
            return {"holds": False, "worst_excess": float(worst),
                    "trials": trials}
    # two equal-mass destinations at levels 0 and 1 with w_h = 2:
    # the deformed odds equal exp(-2) exactly
    p, q = _deformed_masses(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                            np.array([True, False]), 2.0)
    eq_gap = abs(p / q - np.exp(-2.0))
    pinned_gap = abs(p / q - 0.1353352832366127)
    # zero gap (h_star = h0): the factor is 1 and the odds are unchanged
    p0 = np.array([0.3, 0.7])
    pz, qz = _deformed_masses(p0, np.array([0.6, 0.6]),
                              np.array([True, False]), w_h, 1.3)
    zero_gap = abs(pz / qz - 0.3 / 0.7)
    holds = bool(eq_gap <= 1e-12 and pinned_gap <= 1e-12
                 and zero_gap <= 1e-12)
    return {"holds": holds, "worst_excess": float(worst),
            "equality_gap": float(eq_gap), "zero_gap": float(zero_gap),
            "trials": trials}


def check_odds_extension(trials: int = 10_000, w_h: float = 2.0,
                         w_g: float = 1.0, seed: int = 0,
                         slack: float = 1e-12) -> dict:
    """Non-uniform traces relax the contraction factor by exp(w_g * dG).

    With per-destination traces, dG = max safe trace - min harmful trace
    bounds how much the trace term can favor harmful destinations:
    odds' <= odds * exp(-w_h*(h_star-h0)) * exp(w_g * dG).
    """
    rng = substream(seed, 37)
    worst = -np.inf
    for i in range(trials):
        p0, levels, harmful, h0, h_star = _random_instance(rng, i % 2 == 0)
        g_levels = rng.uniform(0.0, 3.0, size=p0.size)
        p, q = _deformed_masses(p0, levels, harmful, w_h, g_levels, w_g)
        p_nom = float(p0[harmful].sum())
        q_nom = float(p0[~harmful].sum())
        d_g = float(g_levels[~harmful].max() - g_levels[harmful].min())
        bound = (np.exp(-w_h * (h_star - h0)) * np.exp(w_g * d_g)
                 * p_nom / q_nom)
        worst = max(worst, p / q - bound)
        if p / q > bound + slack:
            return {"holds": False, "worst_excess": float(worst),
                    "trials": trials}
    return {"holds": True, "worst_excess": float(worst), "trials": trials}


def check_safe_mass(trials: int = 10_000, w_h: float = 2.0, seed: int = 0,
                    slack: float = 1e-12) -> dict:
    """Randomized check of the safe-mass floor.

    With delta <= nominal safe mass, safe levels <= h0 and harmful levels
    >= h_star, the deformed safe mass q satisfies
    q >= delta*a / (delta*a + (1-delta)*b), a = exp(-w_h*h0),
    b = exp(-w_h*h_star). The floor is increasing in delta, attained with
    equality in the exact two-level case at delta = nominal safe mass, and
    tends to 1 as the gap grows. Pinned value: delta=0.5, h0=0, h_star=1,
    w_h=2 gives 1/(1+e^-2) = 0.8807970779778823.
    """
    rng = substream(seed, 34)
    worst = np.inf
    for i in range(trials):
        p0, levels, harmful, h0, h_star = _random_instance(rng, i % 2 == 0)
        _, q = _deformed_masses(p0, levels, harmful, w_h,
                                float(rng.uniform(0.0, 2.0)))
        q_nom = float(p0[~harmful].sum())
        delta = float(rng.uniform(0.0, 1.0)) * q_nom   # any lower bound works
        a = np.exp(-w_h * h0)
        b = np.exp(-w_h * h_star)
        for d in (delta, q_nom):                       # loose and tight floors
            floor = d * a / (d * a + (1.0 - d) * b)
            worst = min(worst, q - floor)
            if q < floor - slack:
                return {"holds": False, "worst_margin": float(worst),
                        "trials": trials}
    # pinned closed form
    a, b = 1.0, np.exp(-2.0)
    pinned = 0.5 * a / (0.5 * a + 0.5 * b)
    pinned_gap = abs(pinned - 0.8807970779778823)
    # equality in the exact two-level case at delta = nominal safe mass
    p_eq, q_eq = _deformed_masses(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                                  np.array([True, False]), 2.0)
    equality_gap = abs(q_eq - pinned)
    # limit behavior: widening the gap by +5 strictly raises the floor to 1
    delta, h0 = 0.4, 0.2
    a = np.exp(-w_h * h0)
    floors = [delta * a / (delta * a + (1 - delta) * np.exp(-w_h * hs))
              for hs in (1.0, 6.0, 11.0)]
    monotone_to_one = bool(all(x < y for x, y in zip(floors, floors[1:]))
                           and floors[-1] > 1.0 - 1e-8)
    holds = bool(monotone_to_one and pinned_gap <= 1e-12
                 and equality_gap <= 1e-12)
    return {"holds": holds, "worst_margin": float(worst),
            "pinned_gap": float(pinned_gap),
            "equality_gap": float(equality_gap), "trials": trials}


def check_compounding(trials: int = 2_000, max_k: int = 5, w_h: float = 2.0,
                      seed: int = 0, slack: float = 1e-12) -> dict:
    """Multi-step chains: deformed entry probability per step is at most
    min(1, exp(-g_i) * p0_i / q0_i), so the product bounds the k-step
    harmful-entry probability."""
    rng = substream(seed, 35)
    worst = -np.inf
    for _ in range(trials):
        k = int(rng.integers(1, max_k + 1))
        prod_def = 1.0
        prod_bound = 1.0
        for _ in range(k):
            p0, levels, harmful, h0, h_star = _random_instance(rng, False)
            p, q = _deformed_masses(p0, levels, harmful, w_h)
            p_nom = float(p0[harmful].sum())
            q_nom = float(p0[~harmful].sum())
            g = w_h * (h_star - h0)
            prod_def *= p
            # p <= p/q <= exp(-g)*p0/q0, and p <= 1 trivially
            prod_bound *= min(1.0, np.exp(-g) * p_nom / q_nom)
        worst = max(worst, prod_def - prod_bound)
        if prod_def > prod_bound + slack:
            return {"holds": False, "worst_excess": float(worst),
                    "trials": trials}
    return {"holds": True, "worst_excess": float(worst), "trials": trials}


def check_compounding_chain(max_k: int = 5, w_h: float = 2.0, seed: int = 0,
                            slack: float = 1e-12) -> dict:
    """Exact kernel-product check on chains needing k consecutive entries.

    From stage i the walker either enters the next harmful stage (nominal
    mass p0_i, level h_star) or falls into a safe absorber (level h0).
    Reaching the sink requires k consecutive harmful entries, so the reach
    probabilities are plain products over stages, computed exactly. The
    guarantee is reach_def <= prod_i exp(-g) * p0_i / q0_i. The naive factor
    exp(-g*k) * reach_nom, which ignores the renormalization term, is shown
    to fail on the same chains.
    """
    rng = substream(seed, 38)
    worst = -np.inf
    naive_violated = False
    for k in range(1, max_k + 1):
        for _ in range(200):
            p0s = rng.uniform(0.05, 0.95, size=k)
            h0 = float(rng.uniform(0.0, 1.0))
            h_star = h0 + float(rng.uniform(0.1, 3.0))
            g = w_h * (h_star - h0)
            reach_nom, reach_def, bound = 1.0, 1.0, 1.0
            for p0 in p0s:
                q0 = 1.0 - p0
                p_def, _ = _deformed_masses(
                    np.array([p0, q0]), np.array([h_star, h0]),
                    np.array([True, False]), w_h)
                reach_nom *= p0
                reach_def *= p_def
                bound *= np.exp(-g) * p0 / q0
            worst = max(worst, reach_def - bound)
            if reach_def > bound + slack:
                return {"holds": False, "worst_excess": float(worst)}
            if reach_def > np.exp(-g * k) * reach_nom + slack:
                naive_violated = True
    return {"holds": True, "worst_excess": float(worst),
            "naive_bound_violated": bool(naive_violated)}


def clipping_relaxation_demo(w_h: float = 2.0, psi_min: float = 0.01) -> dict:
    """Show that conductance clipping voids the contraction guarantee.

    With a deep enough scar the unclipped conductance would be far below
    psi_min; the clip floors it back up, so the realized odds exceed the
    unclipped bound. This is reported, not asserted: the guarantee is
    stated for the unclipped exponential form.
    """
    p0 = np.array([0.5, 0.5])
    harmful = np.array([True, False])
    h0, h_star = 0.0, 10.0                 # exp(-20) << psi_min
    psi = np.maximum(np.exp(-w_h * np.array([h_star, h0])), psi_min)
    w = p0 * psi
    w = w / w.sum()
    p = float(w[harmful].sum())
    clipped_ratio = p / (1.0 - p)
    unclipped_bound = float(np.exp(-w_h * (h_star - h0)) * 1.0)
    return {
        "clipped_odds": clipped_ratio,
        "unclipped_bound": unclipped_bound,
        "bound_exceeded_under_clipping": bool(clipped_ratio > unclipped_bound),
    }


def run_all_checks(seed: int = 0) -> dict:
    """Positive checks plus negative controls; raises on any failure."""
    out = {}
    policy = make_toy_policy(seed)
    out["no_go"] = check_no_go(make_toy_mdp(8, seed), policy, seed=seed)
    if not out["no_go"]["stationary_holds"]:
        raise ProtocolError("no-go check failed on a stationary kernel")

    # negative control: a kernel reading the persistent counter must break
    # the paired bit-equality
    control = check_no_go(make_toy_mdp(8, seed, xi_shift=0.2), policy,
                          seed=seed)
    out["no_go_negative_control"] = control
    if control["paired_identical"]:
        raise ProtocolError(
            "negative control failed: a history-dependent kernel still "
            "produced identical paired trajectories")

    out["odds_contraction"] = check_odds_contraction(seed=seed)
    if not out["odds_contraction"]["holds"]:
        raise ProtocolError("odds-contraction bound violated")
    out["odds_extension"] = check_odds_extension(seed=seed)
    if not out["odds_extension"]["holds"]:
        raise ProtocolError("non-uniform-trace odds bound violated")
    out["safe_mass"] = check_safe_mass(seed=seed)
    if not out["safe_mass"]["holds"]:
        raise ProtocolError("safe-mass floor violated")
    out["compounding"] = check_compounding(seed=seed)
    if not out["compounding"]["holds"]:
        raise ProtocolError("compounding odds-product bound violated")
    out["compounding_chain"] = check_compounding_chain(seed=seed)
    if not out["compounding_chain"]["holds"]:
        raise ProtocolError("chain kernel-product bound violated")
    if not out["compounding_chain"]["naive_bound_violated"]:
        raise ProtocolError(
            "expected the naive exp(-g*k) factor to fail somewhere; "
            "the demonstration found no counterexample")
    out["clipping_relaxation"] = clipping_relaxation_demo()
    return out
