"""Conductance, categorical reweighting, and deployment modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replaylab.deformation import (DeformationSpec, apply_mode, conductance,
                                   gate_edge_prob, reweight_categorical,
                                   reweight_rows)
from replaylab.harm_memory import FieldParams, HarmFields


def _fields(g, h):
    return HarmFields(G=np.asarray(g, dtype=float),
                      H=np.asarray(h, dtype=float), params=FieldParams())


def test_conductance_closed_form():
    spec = DeformationSpec(w_G=1.0, w_H=2.0, psi_min=0.01)
    fields = _fields([0.0], [1.0])
    psi = conductance([0], fields, spec)
    assert psi[0] == pytest.approx(0.1353352832366127, abs=1e-15)


def test_conductance_clipping_and_off():
    spec = DeformationSpec(w_H=2.0, psi_min=0.01)
    fields = _fields([0.0, 0.0], [10.0, 0.0])
    psi = conductance([0, 1], fields, spec)
    assert psi[0] == 0.01            # exp(-20) floored
    assert psi[1] == 1.0
    off = conductance([0, 1], fields, spec.with_mode("off"))
    assert np.all(off == 1.0)


def test_reweight_closed_form():
    out = reweight_categorical(np.array([0.5, 0.5]),
                               np.array([1.0, np.exp(-1.0)]))
    expect = 1.0 / (1.0 + np.exp(-1.0))
    assert out[0] == pytest.approx(expect, abs=1e-12)
    assert out[1] == pytest.approx(1.0 - expect, abs=1e-12)
    assert out[0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_gate_edge_prob_example():
    assert gate_edge_prob(0.4, 0.25) == pytest.approx(0.1, abs=1e-15)
    assert np.all(gate_edge_prob(np.array([0.4, 0.9]), np.array([1.0, 0.5]))
                  <= np.array([0.4, 0.9]))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_reweight_mass_preserving_property(m, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    nominal = rng.dirichlet(np.ones(m))
    nominal = nominal / nominal.sum()
    psi = rng.uniform(0.01, 1.0, size=m)
    out = reweight_categorical(nominal, psi)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out >= 0)


def test_reweight_rows_equal_the_one_row_formula():
    # each padded row, and the one-row reweighting, give w / w.sum() over
    # the row's own entries bit for bit, also past 8-wide sums
    rng = np.random.default_rng(5)
    for width in range(1, 14):
        sizes = rng.integers(1, width + 1, size=6)
        sizes[0] = width
        own = np.arange(width) < sizes[:, None]
        nominal, psi = np.zeros((6, width)), np.ones((6, width))
        for j, size in enumerate(sizes):
            nominal[j, :size] = rng.dirichlet(np.ones(size))
            psi[j, :size] = rng.uniform(0.01, 1.0, size)
        out = reweight_rows(nominal, psi, sizes, own)
        assert np.all(out[~own] == 0.0)
        for j, size in enumerate(sizes):
            w = nominal[j, :size] * psi[j, :size]
            assert np.array_equal(out[j, :size], w / w.sum())
            if abs(nominal[j, :size].sum() - 1.0) <= 1e-12:
                assert np.array_equal(reweight_categorical(
                    nominal[j, :size], psi[j, :size]), w / w.sum())


def test_mode_degeneracies():
    rng = np.random.Generator(np.random.PCG64(3))
    nominal = rng.dirichlet(np.ones(6))
    nominal = nominal / nominal.sum()
    psi = rng.uniform(0.2, 1.0, size=6)
    regions = np.arange(6)
    full = apply_mode(nominal, psi, DeformationSpec(mode="full"))
    topk_all = apply_mode(nominal, psi, DeformationSpec(mode="topk", k=6))
    local_all = apply_mode(nominal, psi,
                           DeformationSpec(mode="local",
                                           local_regions=frozenset(range(6))),
                           regions=regions)
    off = apply_mode(nominal, psi, DeformationSpec(mode="off"))
    assert np.allclose(topk_all, full, atol=1e-15)
    assert np.allclose(local_all, full, atol=1e-15)
    assert np.array_equal(off, nominal)


def test_topk_tie_break_by_index():
    nominal = np.array([0.25, 0.25, 0.25, 0.25])
    psi = np.array([0.5, 0.5, 0.5, 0.5])
    out = apply_mode(nominal, psi, DeformationSpec(mode="topk", k=2))
    # indices 0 and 1 gated, 2 and 3 untouched, then renormalized
    w = np.array([0.125, 0.125, 0.25, 0.25])
    assert np.allclose(out, w / w.sum(), atol=1e-15)


def test_local_mode_gates_only_member_regions():
    nominal = np.array([0.5, 0.5])
    psi = np.array([0.5, 0.5])
    spec = DeformationSpec(mode="local", local_regions=frozenset({7}))
    out = apply_mode(nominal, psi, spec, regions=np.array([7, 9]))
    w = np.array([0.25, 0.5])
    assert np.allclose(out, w / w.sum(), atol=1e-15)


def test_validation_errors():
    with pytest.raises(ValueError):
        DeformationSpec(mode="bogus")
    with pytest.raises(ValueError):
        DeformationSpec(psi_min=0.0)
    with pytest.raises(ValueError):
        DeformationSpec(psi_min=1.5)
    with pytest.raises(ValueError):
        DeformationSpec(w_H=-1.0)
    with pytest.raises(ValueError):
        DeformationSpec(mode="topk", k=0)
    with pytest.raises(ValueError):
        DeformationSpec(mode="local")
    with pytest.raises(ValueError):
        reweight_categorical(np.array([0.5, 0.6]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        reweight_categorical(np.array([0.5, 0.5]), np.array([1.0, 1.5]))
    with pytest.raises(ValueError):
        reweight_categorical(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        reweight_categorical(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        apply_mode(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                   DeformationSpec(mode="local", local_regions=frozenset({1})))
