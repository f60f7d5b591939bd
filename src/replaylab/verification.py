"""Executable checks of the theoretical claims on the library's own code.

Three claims, each with a positive check and a mandatory negative control:

* No-go: with a stationary kernel, resetting the observable state and the
  agent cannot change replay behavior. Checked on the shipped Exposure ->
  Decay -> Replay runner (`rsd.run_rsd_episodes`) with deformation off.
  Paired random streams turn this into bit-exact trajectory equality;
  independent streams into distributional indistinguishability. The
  negative control is RAPO's full deformation, a kernel that reads the
  persistent scar.
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

import copy

import numpy as np

from .deformation import DeformationSpec, conductance, reweight_rows
from .errors import ProtocolError
from .graph_env import N_STIMULI, generate_graph
from .harm_memory import FieldParams, HarmFields
from .policies import Policy
from .rng import substream
from .rsd import RsdConfig, run_rsd_episodes

__all__ = [
    "check_no_go", "check_odds_contraction", "check_odds_extension",
    "check_safe_mass", "check_compounding", "check_compounding_chain",
    "clipping_relaxation_demo", "run_all_checks",
]

_WIDTH = 20                          # most destinations a random instance has
_UNCLIPPED = np.finfo(float).tiny    # psi floor below every psi checked
_BLOCK = 500                         # trials drawn at once; bounds memory


def make_toy_policy(seed: int = 0) -> Policy:
    """A frozen Markov softmax policy over the observation, N(0, 1) weights."""
    rng = substream(seed, 36)
    pol = Policy(kind="softmax", feature_mode="obs", seed=seed)
    pol.set_weights(rng.normal(size=pol.weights.shape))
    return pol.freeze()


def check_no_go(deform: DeformationSpec, policy: Policy | None = None, *,
                steps: int = 40, trials: int = 50, seed: int = 0,
                alpha: float = 0.01) -> dict:
    """Compare exposure and replay of a fresh-reset agent on the shipped
    Exposure -> Decay -> Replay runner.

    `trials` episodes on `generate_graph(50, 1.1, seed)` from zero fields,
    stimuli cycling through 1..20, each with its own frozen copy of
    `policy`, run as one `run_rsd_episodes` batch per stream mode under
    `deform`. Exposure and replay last `steps` each, since the observation
    carries the phase clock. Paired streams: replay reuses the exposure
    stream; a stationary kernel predicts every replay `traj_hash` equal to
    its exposure's. Independent streams: a KS test on each episode's
    sensitive mass (the sum of its `sens` series) in exposure vs replay
    must not reject at level alpha. Returns a dict with `paired_identical`,
    `ks_pvalue`, and `stationary_holds`.
    """
    if trials < 2:   # a KS test on one episode per side tests nothing
        raise ValueError("the no-go check needs trials >= 2")
    policy = policy or make_toy_policy(seed)
    if not policy.frozen:
        raise ProtocolError("no-go check requires a frozen policy")
    graph = generate_graph(50, 1.1, seed)
    fields = HarmFields.zeros(graph.node_count, FieldParams(delay=10))
    stimuli = [1 + i % N_STIMULI for i in range(trials)]
    episode_seeds = range(trials * seed, trials * (seed + 1))

    def episodes(rng_mode):
        cfg = RsdConfig(t_exp=steps, t_decay=10, t_rep=steps,
                        rng_mode=rng_mode)
        return run_rsd_episodes(cfg, stimuli,
                                [copy.deepcopy(policy) for _ in stimuli],
                                graph, fields, deform, episode_seeds)

    paired_identical = all(
        rec.phases["replay"].traj_hash == rec.phases["exposure"].traj_hash
        for rec in episodes("paired"))
    exp_stats, rep_stats = zip(*[
        (int(rec.phases["exposure"].sens.sum()),
         int(rec.phases["replay"].sens.sum()))
        for rec in episodes("independent")])
    from scipy import stats  # deferred: it takes about a second to import
    ks = stats.ks_2samp(exp_stats, rep_stats)
    result = {
        "paired_identical": paired_identical,
        "ks_pvalue": float(ks.pvalue),
        "stationary_holds": paired_identical and float(ks.pvalue) > alpha,
        "alpha": alpha,
    }
    if deform.mode == "off" and not paired_identical:
        raise ProtocolError(
            "stationary kernel produced divergent paired trajectories; "
            "the no-go hypothesis is violated by the implementation")
    return result


def _split(mass, harmful):
    """Harmful and safe mass of each row, summed separately: q = 1 - p
    cancels catastrophically when the harmful mass dominates."""
    return (np.where(harmful, mass, 0.0).sum(axis=1),
            np.where(harmful, 0.0, mass).sum(axis=1))


def _masses(p0, harmful, h, w_h, g=0.0, w_g=1.0, own=None, psi_min=None):
    """Deformed harmful and safe masses of each [R, W] row's `own` entries
    (default all; the rest get levels 0, so psi 1): `conductance` on the
    levels' fields, then one `reweight_rows`. Without `psi_min` the
    floor lies below every psi checked and reaching it raises: the bounds
    are stated for unclipped psi, which a clipped row no longer tests."""
    own = np.ones(np.shape(h), dtype=bool) if own is None else own
    spec = DeformationSpec(w_G=w_g, w_H=w_h, psi_min=psi_min or _UNCLIPPED)
    fields = HarmFields(G=np.where(own, g, 0.0), H=np.where(own, h, 0.0),
                        params=FieldParams())
    psi = conductance(np.arange(own.size).reshape(own.shape), fields, spec)
    if psi_min is None and np.any(psi[own] == _UNCLIPPED):
        raise ProtocolError("psi reached psi_min: bounds need unclipped psi")
    return _split(reweight_rows(p0, psi, own.sum(axis=1), own), harmful)


def _instances(rng, n: int, alternate: bool):
    """n random instances padded to [n, 20]: 3..20 destinations, a nonempty
    proper harmful subset, Dirichlet(1) nominal masses; safe levels below h0
    and harmful above h_star, or exactly there (equality regime) on even
    rows with `alternate`. Returns p0, levels, harmful, own, h0, h_star."""
    own = np.arange(_WIDTH) < rng.integers(3, _WIDTH + 1, size=n)[:, None]
    n_harm = rng.integers(1, own.sum(axis=1))
    # a uniform subset of n_harm own entries: the lowest-ranked random keys
    keys = np.where(own, rng.random(own.shape), 2.0)
    harmful = np.argsort(np.argsort(keys, axis=1), axis=1) < n_harm[:, None]
    p0 = np.where(own, rng.standard_exponential(own.shape), 0.0)
    p0 /= p0.sum(axis=1, keepdims=True)
    h0 = rng.uniform(0.0, 1.0, size=n)
    h_star = h0 + rng.uniform(0.1, 3.0, size=n)
    spread = np.where(harmful, h_star[:, None] + rng.uniform(size=own.shape),
                      rng.uniform(size=own.shape) * h0[:, None])
    exact = np.where(harmful, h_star[:, None], h0[:, None])
    even = np.arange(n)[:, None] % 2 == 0
    levels = np.where(even & alternate, exact, spread)
    return p0, levels, harmful, own, h0, h_star


def _blockwise(trials: int, block) -> np.ndarray:
    """block(n) over consecutive blocks of at most _BLOCK trials, joined."""
    return np.concatenate([block(min(_BLOCK, trials - lo))
                           for lo in range(0, trials, _BLOCK)], axis=-1)


def _per_chain(stage: np.ndarray, values) -> np.ndarray:
    """Per-row products of `values` laid out at `stage`'s True entries."""
    out = np.ones(stage.shape)
    out[stage] = values
    return out.prod(axis=1)


def _two_destinations(w_h: float, g: float = 0.0, p0=(0.5, 0.5),
                      levels=(1.0, 0.0), psi_min=None):
    """Deformed (harmful, safe) masses of destinations [harmful, safe]."""
    p, q = _masses(np.array([p0]), np.array([[True, False]]),
                   np.array([levels]), w_h, g, psi_min=psi_min)
    return float(p[0]), float(q[0])


def check_odds_contraction(trials: int = 10_000, w_h: float = 2.0,
                           seed: int = 0, slack: float = 1e-12) -> dict:
    """Randomized check of the odds-contraction factor exp(-w_h*(h*-h0)).

    Each trial draws 3..20 destinations and a nonempty proper harmful
    subset. Half the trials place the levels exactly at h0 and h_star
    (equality regime); half spread safe levels below h0 and harmful levels
    above h_star. A shared uniform trace offset must cancel in the
    normalization. The slack and `worst_excess` are relative to the bound,
    which reaches about 3e4, where one ulp exceeds any fixed absolute
    slack. Also checks the pinned two-destination closed form and the
    zero-gap degenerate case.
    """
    rng = substream(seed, 33)
    def odds(n):
        p0, levels, harmful, own, h0, h_star = _instances(rng, n, True)
        g = rng.uniform(0.0, 2.0, size=(n, 1))
        p, q = _masses(p0, harmful, levels, w_h, g, own=own)
        p_nom, q_nom = _split(p0, harmful)
        return np.stack([p / q, np.exp(-w_h * (h_star - h0)) * p_nom / q_nom])
    ratio, bound = _blockwise(trials, odds)
    worst = float((ratio / bound - 1.0).max())
    if np.any(ratio > bound * (1.0 + slack)):
        return {"holds": False, "worst_excess": worst, "trials": trials}
    # two equal-mass destinations at levels 0 and 1 with w_h = 2:
    # the deformed odds equal exp(-2) exactly
    p, q = _two_destinations(2.0)
    eq_gap = abs(p / q - np.exp(-2.0))
    pinned_gap = abs(p / q - 0.1353352832366127)
    # zero gap (h_star = h0): the factor is 1 and the odds are unchanged
    pz, qz = _two_destinations(w_h, 1.3, (0.3, 0.7), (0.6, 0.6))
    zero_gap = abs(pz / qz - 0.3 / 0.7)
    holds = bool(max(eq_gap, pinned_gap, zero_gap) <= 1e-12)
    return {"holds": holds, "worst_excess": worst,
            "equality_gap": float(eq_gap), "zero_gap": float(zero_gap),
            "trials": trials}


def check_odds_extension(trials: int = 10_000, w_h: float = 2.0,
                         w_g: float = 1.0, seed: int = 0,
                         slack: float = 1e-12) -> dict:
    """Non-uniform traces relax the contraction factor by exp(w_g * dG).

    With per-destination traces, dG = max safe trace - min harmful trace
    bounds how much the trace term can favor harmful destinations:
    odds' <= odds * exp(-w_h*(h_star-h0)) * exp(w_g * dG), within a slack
    relative to the bound, as in `check_odds_contraction`.
    """
    rng = substream(seed, 37)
    def odds(n):
        p0, levels, harmful, own, h0, h_star = _instances(rng, n, True)
        g = rng.uniform(0.0, 3.0, size=own.shape)
        p, q = _masses(p0, harmful, levels, w_h, g, w_g, own)
        p_nom, q_nom = _split(p0, harmful)
        d_g = (np.where(own & ~harmful, g, -np.inf).max(axis=1)
               - np.where(harmful, g, np.inf).min(axis=1))
        return np.stack([p / q, np.exp(-w_h * (h_star - h0))
                         * np.exp(w_g * d_g) * p_nom / q_nom])
    ratio, bound = _blockwise(trials, odds)
    return {"holds": not np.any(ratio > bound * (1.0 + slack)),
            "worst_excess": float((ratio / bound - 1.0).max()),
            "trials": trials}


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
    def floors(n):
        p0, levels, harmful, own, h0, h_star = _instances(rng, n, True)
        _, q = _masses(p0, harmful, levels, w_h,
                       rng.uniform(0.0, 2.0, size=(n, 1)), own=own)
        _, q_nom = _split(p0, harmful)
        delta = rng.uniform(0.0, 1.0, size=n) * q_nom  # any lower bound works
        a, b = np.exp(-w_h * h0), np.exp(-w_h * h_star)
        return np.stack([q] + [d * a / (d * a + (1.0 - d) * b)
                               for d in (delta, q_nom)])  # loose, tight
    q, *floor = _blockwise(trials, floors)
    worst = float(min((q - f).min() for f in floor))
    if any(np.any(q < f - slack) for f in floor):
        return {"holds": False, "worst_margin": worst, "trials": trials}
    # pinned closed form
    a, b = 1.0, np.exp(-2.0)
    pinned = 0.5 * a / (0.5 * a + 0.5 * b)
    pinned_gap = abs(pinned - 0.8807970779778823)
    # equality in the exact two-level case at delta = nominal safe mass
    _, q_eq = _two_destinations(2.0)
    equality_gap = abs(q_eq - pinned)
    # limit behavior: widening the gap by +5 strictly raises the floor to 1
    delta, h0 = 0.4, 0.2
    a = np.exp(-w_h * h0)
    floors = [delta * a / (delta * a + (1 - delta) * np.exp(-w_h * hs))
              for hs in (1.0, 6.0, 11.0)]
    monotone_to_one = bool(all(x < y for x, y in zip(floors, floors[1:]))
                           and floors[-1] > 1.0 - 1e-8)
    holds = monotone_to_one and bool(max(pinned_gap, equality_gap) <= 1e-12)
    return {"holds": holds, "worst_margin": worst,
            "pinned_gap": float(pinned_gap),
            "equality_gap": float(equality_gap), "trials": trials}


def check_compounding(trials: int = 2_000, max_k: int = 5, w_h: float = 2.0,
                      seed: int = 0, slack: float = 1e-12) -> dict:
    """Multi-step chains: deformed entry probability per step is at most
    min(1, exp(-g_i) * p0_i / q0_i), so the product bounds the k-step
    harmful-entry probability."""
    rng = substream(seed, 35)
    def products(n):
        stage = np.arange(max_k) < rng.integers(1, max_k + 1, size=n)[:, None]
        p0, h, harmful, own, h0, h_star = _instances(rng, stage.sum(), False)
        p, _ = _masses(p0, harmful, h, w_h, own=own)
        p_nom, q_nom = _split(p0, harmful)
        # p <= p/q <= exp(-g)*p0/q0, and p <= 1 trivially
        bound = np.minimum(1.0, np.exp(-w_h * (h_star - h0)) * p_nom / q_nom)
        return np.stack([_per_chain(stage, p), _per_chain(stage, bound)])
    reach, bound = _blockwise(trials, products)
    return {"holds": not np.any(reach > bound + slack),
            "worst_excess": float((reach - bound).max()), "trials": trials}


def check_compounding_chain(max_k: int = 5, w_h: float = 2.0, seed: int = 0,
                            slack: float = 1e-12) -> dict:
    """Exact kernel-product check on chains needing k consecutive entries.

    From stage i the walker either enters the next harmful stage (nominal
    mass p0_i, level h_star) or falls into a safe absorber (level h0).
    Reaching the sink requires k consecutive harmful entries, so the reach
    probabilities are plain products over stages, computed exactly. The
    guarantee is reach_def <= prod_i exp(-g) * p0_i / q0_i. The naive factor
    exp(-g*k) * reach_nom, which ignores the renormalization term, is shown
    to fail on the same chains. Each length 1..max_k gets 200 chains.
    """
    rng = substream(seed, 38)
    k = np.repeat(np.arange(1, max_k + 1), 200)
    stage = np.arange(max_k) < k[:, None]
    h0 = rng.uniform(0.0, 1.0, size=k.size)
    h_star = h0 + rng.uniform(0.1, 3.0, size=k.size)
    g = w_h * (h_star - h0)
    p0 = rng.uniform(0.05, 0.95, size=stage.shape)[stage]
    chain = np.nonzero(stage)[0]                        # each stage's chain
    p_def, _ = _masses(np.stack([p0, 1.0 - p0], axis=1),
                       np.array([[True, False]]),
                       np.stack([h_star[chain], h0[chain]], axis=1), w_h)
    reach_nom = _per_chain(stage, p0)
    reach_def = _per_chain(stage, p_def)
    bound = _per_chain(stage, np.exp(-g[chain]) * p0 / (1.0 - p0))
    worst = float((reach_def - bound).max())
    if np.any(reach_def > bound + slack):
        return {"holds": False, "worst_excess": worst}
    naive_violated = np.any(reach_def > np.exp(-g * k) * reach_nom + slack)
    return {"holds": True, "worst_excess": worst,
            "naive_bound_violated": bool(naive_violated)}


def clipping_relaxation_demo(w_h: float = 2.0, psi_min: float = 0.01) -> dict:
    """Show that conductance clipping voids the contraction guarantee.

    With a deep enough scar the unclipped conductance would be far below
    psi_min; the clip floors it back up, so the realized odds exceed the
    unclipped bound. This is reported, not asserted: the guarantee is
    stated for the unclipped exponential form.
    """
    h0, h_star = 0.0, 10.0                 # exp(-20) << psi_min
    p, q = _two_destinations(w_h, levels=(h_star, h0), psi_min=psi_min)
    clipped_odds, bound = p / q, float(np.exp(-w_h * (h_star - h0)))
    return {"clipped_odds": clipped_odds, "unclipped_bound": bound,
            "bound_exceeded_under_clipping": bool(clipped_odds > bound)}


def run_all_checks(seed: int = 0) -> dict:
    """Positive checks plus negative controls; raises on any failure."""
    out = {}
    policy = make_toy_policy(seed)
    out["no_go"] = check_no_go(DeformationSpec(mode="off"), policy, seed=seed)
    if not out["no_go"]["stationary_holds"]:
        raise ProtocolError("no-go check failed on a stationary kernel")

    # negative control: RAPO's own kernel, which reads the persistent scar,
    # must break the paired bit-equality
    control = check_no_go(DeformationSpec(mode="full"), policy, seed=seed)
    out["no_go_negative_control"] = control
    if control["paired_identical"]:
        raise ProtocolError(
            "negative control failed: a history-dependent kernel still "
            "produced identical paired trajectories")

    for check, what in ((check_odds_contraction, "odds-contraction bound"),
                        (check_odds_extension, "non-uniform-trace odds bound"),
                        (check_safe_mass, "safe-mass floor"),
                        (check_compounding, "compounding odds-product bound"),
                        (check_compounding_chain,
                         "chain kernel-product bound")):
        key = check.__name__.removeprefix("check_")
        out[key] = check(seed=seed)
        if not out[key]["holds"]:
            raise ProtocolError(f"{what} violated")
    if not out["compounding_chain"]["naive_bound_violated"]:
        raise ProtocolError(
            "expected the naive exp(-g*k) factor to fail somewhere; "
            "the demonstration found no counterexample")
    out["clipping_relaxation"] = clipping_relaxation_demo()
    return out
