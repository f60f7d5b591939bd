"""Harm-trace and scar field dynamics."""

import numpy as np
import pytest

from replaylab.harm_memory import (FieldParams, HarmFields, attribute_harm,
                                   update_scar)
from replaylab.rng import substream


def test_pure_decay_matches_closed_form():
    params = FieldParams(lam=0.1)
    fields = HarmFields(G=np.full(5, 2.0), H=np.zeros(5), params=params)
    for t in range(1, 101):
        fields = attribute_harm(fields, 0.0, np.empty(0, dtype=int))
        assert np.all(np.abs(fields.G - 2.0 * 0.9 ** t) <= 1e-12)


def test_decay_plus_injection_single_region():
    params = FieldParams(lam=0.1, alpha=0.5)
    fields = HarmFields(G=np.array([0.5, 0.0]), H=np.zeros(2), params=params)
    out = attribute_harm(fields, 1.0, [0])
    assert out.G[0] == pytest.approx(0.45 + 0.5, abs=1e-12)
    assert out.G[1] == 0.0


def test_uniform_attribution_split():
    params = FieldParams(lam=0.1, alpha=1.0)
    fields = HarmFields.zeros(8, params)
    out = attribute_harm(fields, 1.0, [0, 1, 2, 3])
    assert np.all(np.abs(out.G[:4] - 0.25) <= 1e-12)
    assert np.all(out.G[4:] == 0.0)


def test_attribution_mass_conservation():
    params = FieldParams(lam=0.2, alpha=0.7)
    rng = substream(0, 40)
    fields = HarmFields(G=rng.uniform(0, 2, 16), H=np.zeros(16), params=params)
    for _ in range(50):
        harm = float(rng.uniform(0, 1))
        k = int(rng.integers(1, 6))
        causal = rng.choice(16, size=k, replace=False)
        out = attribute_harm(fields, harm, causal)
        injected = out.G.sum() - (1 - params.lam) * fields.G.sum()
        assert abs(injected - params.alpha * harm) <= 1e-12
        fields = out


def _attribution_per_copy(fields, harm, causal):
    """Reference: the one-copy formula on each copy of (B, N) fields, in
    Python floats: decay, then alpha * harm / |causal set| on the copy's
    causal regions."""
    p, n = fields.params, fields.G.shape[1]
    g = (1.0 - p.lam) * fields.G
    for b, h in enumerate(harm):
        own = [int(c) - b * n for c in causal if c // n == b]
        if own:
            g[b, own] += p.alpha * h / len(own)
    return g


def test_batched_attribution_equals_per_copy_formula():
    # copies with and without causal nodes, zero and positive harm; every
    # copy's G equals its one-copy formula bit for bit
    rng = substream(0, 43)
    params = FieldParams(lam=0.15, alpha=0.8)
    for _ in range(200):
        b_count, n = int(rng.integers(1, 6)), int(rng.integers(1, 20))
        fields = HarmFields(G=rng.uniform(0, 2, (b_count, n)),
                            H=rng.uniform(0, 1, (b_count, n)), params=params)
        harm, causal = np.zeros(b_count), []
        for b in range(b_count):
            k = int(rng.integers(0, n + 1))
            causal += (b * n + rng.choice(n, size=k, replace=False)).tolist()
            if k and rng.random() < 0.7:
                harm[b] = min(0.1 * k, 1.0)
        out = attribute_harm(fields, harm, np.sort(causal).astype(int))
        assert out.G.tobytes() == \
            _attribution_per_copy(fields, harm, causal).tobytes()
        assert out.H.tobytes() == fields.H.tobytes()


def test_scar_threshold_and_growth():
    params = FieldParams(eta=0.05, tau=0.3)
    below = HarmFields(G=np.array([0.29]), H=np.zeros(1), params=params)
    assert update_scar(below).H[0] == 0.0
    above = HarmFields(G=np.array([0.4]), H=np.zeros(1), params=params)
    assert update_scar(above).H[0] == pytest.approx(0.05 * 0.1, abs=1e-15)


def test_scar_retention_rate():
    params = FieldParams(delta=0.99)
    fields = HarmFields(G=np.zeros(1), H=np.array([1.0]), params=params)
    assert update_scar(fields).H[0] == pytest.approx(0.99, abs=1e-15)


def test_scar_irreversible_at_delta_one():
    params = FieldParams(delta=1.0)
    rng = substream(0, 41)
    fields = HarmFields.zeros(32, params)
    for _ in range(200):
        fields = HarmFields(G=rng.uniform(0, 1, 32), H=fields.H, params=params)
        out = update_scar(fields)
        assert np.all(out.H >= fields.H - 1e-15)
        fields = out


def test_trace_bounded_by_alpha_over_lam():
    params = FieldParams(lam=0.1, alpha=0.5)
    bound = params.alpha / params.lam
    rng = substream(0, 42)
    fields = HarmFields.zeros(4, params)
    for _ in range(2000):
        fields = attribute_harm(fields, float(rng.uniform(0, 1)), [int(rng.integers(4))])
        assert np.all(fields.G <= bound + 1e-9)


def test_nonnegativity():
    params = FieldParams()
    rng = substream(0, 43)
    fields = HarmFields.zeros(8, params)
    for _ in range(100):
        fields = attribute_harm(fields, float(rng.uniform(0, 1)),
                                rng.choice(8, size=2, replace=False))
        fields = update_scar(fields)
        assert np.all(fields.G >= 0) and np.all(fields.H >= 0)


def test_summary_top_regions():
    fields = HarmFields(G=np.zeros(5), H=np.array([0.0, 3.0, 1.0, 0.0, 2.0]),
                        params=FieldParams())
    top = fields.summary()["top_scar_regions"]
    assert top == [[1, 3.0], [4, 2.0], [2, 1.0]]


def test_parameter_validation():
    with pytest.raises(ValueError):
        FieldParams(lam=0.0)
    with pytest.raises(ValueError):
        FieldParams(lam=1.0)
    with pytest.raises(ValueError):
        FieldParams(alpha=0.0)
    with pytest.raises(ValueError):
        FieldParams(delta=0.5)
    with pytest.raises(ValueError):
        FieldParams(delta=0.9)
    with pytest.raises(ValueError):
        FieldParams(delta=1.01)
    with pytest.raises(ValueError):
        FieldParams(delay=-1)


def test_attribution_validation():
    fields = HarmFields.zeros(4, FieldParams())
    with pytest.raises(ValueError):
        attribute_harm(fields, 1.5, [0])
    with pytest.raises(ValueError):
        attribute_harm(fields, -0.1, [0])
    with pytest.raises(ValueError):
        attribute_harm(fields, 0.4, np.empty(0, dtype=int))
    with pytest.raises(ValueError, match=r"harm must lie in \[0, 1\]"):
        attribute_harm(fields, np.nan, [0])
    # copy 1 of two has positive harm but no causal node
    two = HarmFields.zeros((2, 4), FieldParams())
    with pytest.raises(ValueError, match="nonempty causal set"):
        attribute_harm(two, [0.3, 0.4], [1, 2])
