"""Graph generation, stimulus sets, and one-step dynamics."""

import json
import warnings
from collections import deque

import numpy as np
import pytest

from replaylab.config import desk_preset, load_config
from replaylab.deformation import (DeformationSpec, apply_mode, conductance,
                                   gated_entries)
from replaylab.graph_env import (Action, DiffusionGraph, EnvBatch, EnvParams,
                                 _stimulus_law, edge_gate_mask, env_step,
                                 env_steps, generate_graph, initial_state,
                                 nominal_rollouts, select_sensitive_subgraph,
                                 stimulus_seed_set)
from replaylab.harm_memory import FieldParams, HarmFields
from replaylab.rng import substream

OFF = DeformationSpec(mode="off")


def _fields(graph, **kw):
    return HarmFields.zeros(graph.node_count, FieldParams(**kw))


def test_edge_probability_distribution_mean():
    # raw per-edge probabilities are Beta(2,5): mean 2/7
    samples = substream(0, 1).beta(2.0, 5.0, size=100_000)
    assert abs(samples.mean() - 2.0 / 7.0) < 0.01


def test_realized_branching_matches_target():
    g = generate_graph(50, 1.1, seed=3)
    counts = np.bincount(g.edge_src, minlength=50)
    assert abs(g.edge_p.mean() * counts.mean() - 1.1) < 1e-9


def test_out_degrees_in_three_to_five():
    g = generate_graph(80, 1.1, seed=7)
    counts = np.bincount(g.edge_src, minlength=80)
    assert set(counts.tolist()) <= {3, 4, 5}
    assert not np.any(g.edge_src == g.edge_dst)  # no self-loops


def test_generation_deterministic_and_seed_sensitive():
    a = generate_graph(50, 1.1, seed=5).to_json()
    b = generate_graph(50, 1.1, seed=5).to_json()
    c = generate_graph(50, 1.1, seed=6).to_json()
    assert a == b
    assert a != c


def test_json_round_trip_byte_identical():
    g = generate_graph(50, 1.1, seed=9)
    text = g.to_json()
    assert DiffusionGraph.from_json(text).to_json() == text


def test_sensitive_set_size_and_connectivity():
    g = generate_graph(50, 1.1, seed=11, sens_fraction=0.2)
    sens = g.sensitive_nodes
    assert sens.size == 10
    # connected in the undirected sense
    seen = {int(sens[0])}
    stack = [int(sens[0])]
    sens_set = set(int(s) for s in sens)
    while stack:
        u = stack.pop()
        for v in g.neighbours(u).tolist():
            if v in sens_set and v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == sens_set


def test_sensitive_fraction_bounds():
    g = generate_graph(50, 1.1, seed=1)
    from replaylab.graph_env import select_sensitive_subgraph
    with pytest.raises(ValueError):
        select_sensitive_subgraph(g, 0.05, seed=1)
    with pytest.raises(ValueError):
        select_sensitive_subgraph(g, 0.5, seed=1)


def test_arc_sensitive_style_contiguous():
    g = generate_graph(50, 3.0, seed=4, locality=1.0, sens_style="arc",
                       sens_fraction=0.24)
    sens = sorted(int(s) for s in g.sensitive_nodes)
    assert len(sens) == 12
    # contiguous modulo n: the complement of the arc is also contiguous
    gaps = [(b - a) % 50 for a, b in zip(sens, sens[1:] + sens[:1])]
    assert sorted(gaps)[-1] == 50 - len(sens) + 1
    assert all(gap == 1 for gap in sorted(gaps)[:-1])


def test_hop_distance_bfs_oracle():
    # handcrafted path 0 -> 1 -> 2 -> 3 plus a chord 0 -> 2, padded to 10 nodes
    n = 10
    src = np.array([0, 0, 1, 2] + list(range(4, n)), dtype=np.int64)
    dst = np.array([1, 2, 2, 3] + [0] * (n - 4), dtype=np.int64)
    order = np.lexsort((dst, src))
    g = DiffusionGraph(node_count=n, edge_src=src[order], edge_dst=dst[order],
                       edge_p=np.full(src.size, 0.5),
                       sensitive=np.zeros(n, dtype=bool), seed=0,
                       branching_target=1.0)
    dist = g.hop_distance_from([0])
    assert dist[0] == 0 and dist[1] == 1 and dist[2] == 1 and dist[3] == 2


def _reference_adjacency(g):
    # the sorted, deduplicated undirected neighbour lists, built edge by edge
    adj = [[] for _ in range(g.node_count)]
    for u, v in zip(g.edge_src, g.edge_dst):
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    return [sorted(set(a)) for a in adj]


def _reference_hops(adj, sources):
    # queue BFS over the reference lists
    dist = np.full(len(adj), -1, dtype=int)
    q = deque()
    for s in sorted(set(int(s) for s in sources)):
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _isolated_node_graph():
    # a directed path 0 -> ... -> 9 with chords and a repeated undirected
    # pair (3 -> 4, 4 -> 3); node 10 has no edges at all
    edges = [(u, u + 1) for u in range(9)] + [(0, 5), (4, 3), (8, 2)]
    return DiffusionGraph.from_json(json.dumps({
        "nodes": 11, "sensitive": [2, 3], "seed": 0, "branching_target": 1.0,
        "edges": [{"u": u, "v": v, "p": 0.5} for u, v in sorted(edges)]}))


@pytest.mark.parametrize("n,seed,locality,style", [
    (50, 0, 0.0, "grow"), (50, 1, 0.7, "grow"), (50, 2, 1.0, "arc"),
    (250, 3, 0.7, "grow"), (250, 4, 0.0, "arc"), (1000, 5, 0.7, "grow")])
def test_neighbours_and_hops_match_reference(n, seed, locality, style):
    g = generate_graph(n, 1.2, seed, locality=locality, sens_style=style)
    adj = _reference_adjacency(g)
    assert [g.neighbours(u).tolist() for u in range(n)] == adj
    sens = g.sensitive_nodes
    assert g.neighbours(sens).tolist() == sorted(set().union(
        *(adj[s] for s in sens)))
    for sources in ([stimulus_seed_set(z, g) for z in (1, 2, 3)]
                    + [g.sensitive_nodes, [n - 1], [0, 0, n // 2]]):
        assert np.array_equal(g.hop_distance_from(sources),
                              _reference_hops(adj, sources))


def test_hops_leave_an_isolated_node_unreached():
    g = _isolated_node_graph()
    adj = _reference_adjacency(g)
    assert [g.neighbours(u).tolist() for u in range(11)] == adj
    assert g.neighbours(3).tolist() == [2, 4] and g.neighbours(10).size == 0
    for sources in ([0], [9], [2, 7], [10], []):
        dist = g.hop_distance_from(sources)
        assert np.array_equal(dist, _reference_hops(adj, sources))
    assert g.hop_distance_from([0])[10] == -1
    assert g.hop_distance_from([10]).tolist() == [-1] * 10 + [0]


def _ring_and_pairs_graph():
    # a 16-node ring plus two separate pairs 16-17 and 18-19
    edges = [(u, (u + 1) % 16) for u in range(16)] + [(16, 17), (19, 18)]
    return DiffusionGraph.from_json(json.dumps({
        "nodes": 20, "sensitive": [0], "seed": 0, "branching_target": 1.0,
        "edges": [{"u": u, "v": v, "p": 0.5} for u, v in sorted(edges)]}))


def test_grow_sensitive_sets_are_pinned():
    # the randomized growth consumes the RNG exactly as before: these node
    # sets were recorded from the list-based implementation
    g = generate_graph(50, 1.1, 3)
    assert g.sensitive_nodes.tolist() == [0, 1, 7, 10, 15, 29, 35, 38, 41, 42]
    assert select_sensitive_subgraph(g, 0.15, 4).tolist() == [
        1, 5, 12, 14, 32, 33, 34, 35]
    g = generate_graph(250, 1.1, 7, locality=0.7)
    assert select_sensitive_subgraph(g, 0.15, 8).tolist() == [
        0, 3, 8, 10, 11, 12, 13, 15, 16, 37, 53, 61, 88, 92, 106, 109, 110,
        113, 114, 117, 118, 119, 121, 123, 125, 145, 150, 208, 209, 223, 226,
        235, 237, 238, 239, 240, 241, 248]
    ring = _ring_and_pairs_graph()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, nodes in ((5, [0, 1, 14, 15]), (8, [0, 1, 2, 15])):
            assert select_sensitive_subgraph(ring, 0.2, seed).tolist() == nodes
    # growth from inside a pair runs out of neighbours at two nodes
    for seed, pair in ((0, [18, 19]), (3, [16, 17])):
        with pytest.warns(RuntimeWarning, match="connected growth exhausted"):
            assert select_sensitive_subgraph(ring, 0.2, seed).tolist() == pair


def test_stimulus_sets_deterministic_and_distinct():
    differs = 0
    for seed in range(10):
        g = generate_graph(50, 1.1, seed=seed)
        s5a = stimulus_seed_set(5, g)
        s5b = stimulus_seed_set(5, g)
        assert np.array_equal(s5a, s5b)
        assert s5a.size == 3
        if not np.array_equal(s5a, stimulus_seed_set(6, g)):
            differs += 1
    assert differs >= 9  # collisions between stimuli are rare


def test_stimulus_identity_range():
    g = generate_graph(50, 1.1, seed=0)
    with pytest.raises(ValueError):
        stimulus_seed_set(0, g)
    with pytest.raises(ValueError):
        stimulus_seed_set(21, g)


def test_core_seed_pool_interior_of_sensitive_set():
    g = generate_graph(50, 3.0, seed=1, locality=1.0, sens_style="arc",
                       sens_fraction=0.24)
    seeds = stimulus_seed_set(1, g, k_seed=6, pool="core")
    for s in seeds:
        assert g.sensitive[s]
        assert all(g.sensitive[v] for v in g.neighbours(int(s)))


def _stepped_state(graph, delay, past_nodes):
    """State at time >= delay whose oldest delay-buffer entry is past_nodes."""
    st = initial_state(graph, 1, delay)
    st.time = delay + 1
    st.delay_buffer.clear()
    for _ in range(delay):
        st.delay_buffer.append(np.asarray(past_nodes, dtype=np.int64))
    st.delay_buffer.appendleft(np.asarray(past_nodes, dtype=np.int64))
    return st


def test_delayed_harm_values():
    g = generate_graph(50, 1.1, seed=2)
    sens = g.sensitive_nodes
    st = _stepped_state(g, delay=3, past_nodes=sens[:4])
    res = env_step(st, Action.CONSERVATIVE, g, _fields(g, delay=3), OFF,
                   substream(0, 0))
    assert res.harm == pytest.approx(0.4)
    assert np.array_equal(np.sort(res.causal), np.sort(sens[:4]))

    st = _stepped_state(g, delay=3, past_nodes=sens[:10])
    res = env_step(st, Action.CONSERVATIVE, g, _fields(g, delay=3), OFF,
                   substream(0, 0))
    assert res.harm == 1.0


def test_no_harm_before_delay_elapses():
    g = generate_graph(50, 3.0, seed=2)
    fields = _fields(g, delay=10)
    st = initial_state(g, 1, 10)
    rng = substream(0, 5)
    for _ in range(10):
        res = env_step(st, Action.MODERATE, g, fields, OFF, rng)
        assert res.harm == 0.0 and res.causal.size == 0
        st = res.state


def test_activation_monotone_and_empty_step_reward_zero():
    g = generate_graph(50, 1.5, seed=6)
    fields = _fields(g)
    st = initial_state(g, 1, 50)
    rng = substream(0, 6)
    prev = 0
    for _ in range(30):
        res = env_step(st, Action.MODERATE, g, fields, OFF, rng)
        st = res.state
        cur = int(st.active.sum())
        assert cur >= prev
        prev = cur
    # empty active set, Conservative, no stimulus: nothing happens
    st = initial_state(g, 1, 50, stimulus_on=False)
    res = env_step(st, Action.CONSERVATIVE, g, fields, OFF, substream(0, 7))
    assert int(res.state.active.sum()) == 0
    assert res.reward == 0.0


def test_deformation_off_ignores_fields():
    g = generate_graph(50, 1.5, seed=8)
    params = FieldParams()
    dirty = HarmFields(G=substream(0, 8).uniform(0, 3, 50),
                       H=substream(0, 9).uniform(0, 3, 50), params=params)
    clean = HarmFields.zeros(50, params)
    for fields in (dirty, clean):
        st = initial_state(g, 2, params.delay)
        rng = substream(0, 10)
        trace = []
        for _ in range(20):
            res = env_step(st, Action.MODERATE, g, fields, OFF, rng)
            st = res.state
            trace.append(st.active.tobytes())
        if fields is dirty:
            dirty_trace = trace
    assert trace == dirty_trace


def test_harmful_entry_prob_examples():
    n = 10
    # node 0 active; edges 0->1 (sensitive) p=0.3, 0->2 (sensitive) p=0.5
    src = np.array([0, 0] + list(range(2, n)), dtype=np.int64)
    dst = np.array([1, 2] + [0] * (n - 2), dtype=np.int64)
    p = np.array([0.3, 0.5] + [0.5] * (n - 2))
    order = np.lexsort((dst, src))
    sens = np.zeros(n, dtype=bool)
    sens[[1, 2]] = True
    g = DiffusionGraph(node_count=n, edge_src=src[order], edge_dst=dst[order],
                       edge_p=p[order], sensitive=sens, seed=0,
                       branching_target=1.0)
    st = initial_state(g, 1, 5, stimulus_on=False)
    st.active[0] = True
    st.newly[0] = True

    def entry_odds():
        # (p, q) for >= 1 sensitive entry; with nothing injected and the
        # kernel undeformed, the step's frontier is node 0's out-edges
        odds = env_step(st, Action.MODERATE, g, _fields(g, delay=5), OFF,
                        substream(0, 14)).odds
        return odds[0, :2]

    p_hit, q = entry_odds()
    assert p_hit == pytest.approx(1 - 0.7 * 0.5, abs=1e-12)
    assert q == pytest.approx(0.35, abs=1e-12)
    # single-edge case
    g.sensitive = np.zeros(n, dtype=bool)
    g.sensitive[1] = True
    p_hit, q = entry_odds()
    assert p_hit == pytest.approx(0.3, abs=1e-12)


def test_harmful_entry_prob_monte_carlo():
    g = generate_graph(50, 1.5, seed=12)
    fields = _fields(g)
    st = initial_state(g, 1, 50)
    res = env_step(st, Action.MODERATE, g, fields, OFF, substream(0, 11))
    st = res.state
    # analytic entry probability at this state under Moderate (no new seeds
    # are injected because all seeds are already active)
    trials = 4000
    hits = 0
    for i in range(trials):
        r = env_step(st, Action.MODERATE, g, fields, OFF, substream(1, 12, i))
        before = int(g.sensitive[st.active].sum())
        after = int(g.sensitive[r.state.active].sum())
        hits += after > before
    p_hat = hits / trials
    p_analytic = res_entry = env_step(
        st, Action.MODERATE, g, fields, OFF, substream(9, 9)).odds[0, 2]
    se = (p_analytic * (1 - p_analytic) / trials) ** 0.5
    assert abs(p_hat - p_analytic) <= 3 * max(se, 1e-3)


@pytest.mark.parametrize("mode", ["full", "off"])
def test_env_step_returns_its_one_copy_batch_step(mode):
    # env_step's result is env_steps' step of its one-copy batch as is,
    # and its state is a view of that batch's copy 0; the state stepped
    # from has harm due and scarred fields that the full mode reads
    g = _DESK.graph(1)
    deform, params = _DESK.deform(mode, g), _DESK.env_params
    fields = HarmFields(G=substream(0, 20).uniform(0, 2, 50),
                        H=substream(0, 21).uniform(0, 2, 50),
                        params=_DESK.field_params)
    st = initial_state(g, 3, _DESK.field_params.delay)
    walk = substream(0, 22)
    for t in range(30):
        st = env_step(st, Action(t % 3), g, fields, deform, walk, params).state
    harms = []
    for action in Action:
        rng, twin = substream(1, int(action)), substream(1, int(action))
        step = env_step(st, action, g, fields, deform, rng, params)
        ref = env_steps(EnvBatch.of(st.copy()), [action], g, fields, deform,
                        [twin], params)
        for key in ("reward", "harm", "causal", "odds"):
            got, want = getattr(step, key), getattr(ref, key)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for key in ("active", "newly"):
            assert np.array_equal(getattr(step.batch, key),
                                  getattr(ref.batch, key))
        assert [a.tolist() for a in step.batch.delay_buffer] == [
            a.tolist() for a in ref.batch.delay_buffer]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert np.shares_memory(step.state.active, step.batch.active[0])
        assert step.state.delay_buffer is step.batch.delay_buffer
        harms.append(float(step.harm[0]))
    assert max(harms) > 0.0


def test_reward_modes():
    g = generate_graph(50, 3.0, seed=13)
    st = initial_state(g, 1, 50)
    lin = env_step(st, Action.MODERATE, g, _fields(g), OFF, substream(0, 13),
                   EnvParams(reward="linear"))
    log = env_step(st, Action.MODERATE, g, _fields(g), OFF, substream(0, 13),
                   EnvParams(reward="log"))
    new = int(lin.state.active.sum())
    assert lin.reward == pytest.approx(new / 50 - 0.001, abs=1e-12)
    assert log.reward == pytest.approx(
        (np.log1p(new) - np.log1p(0)) / np.log1p(50) - 0.001, abs=1e-12)


def _row_by_row_law(graph, seeds, psi, deform, action):
    # the injection law one row at a time: apply_mode, cumsum, c / c[-1]
    if action == Action.CONSERVATIVE:
        rows = [(seeds, np.full(seeds.size, 1.0 / seeds.size))]
    else:
        rows = [(d, pe / pe.sum()) for d, pe in map(graph.out_edges_of, seeds)
                if d.size]
    nodes = np.zeros((len(rows), max((d.size for d, _ in rows), default=0)),
                     dtype=np.int64)
    cdf = np.full(nodes.shape, 2.0)
    for j, (d, nominal) in enumerate(rows):
        c = np.cumsum(apply_mode(nominal, psi[d], deform, regions=d))
        nodes[j, :d.size] = d
        cdf[j, :d.size] = c / c[-1]
    return nodes, cdf


def _wide_graph():
    # node 0 has 12 out-edges and node 4 has 9, so padded rows reach past
    # numpy's 8-wide pairwise-sum blocks; p has ties for top-k; the
    # sensitive nodes 16-18 have no out-edges
    out = {0: dict(zip(range(1, 13), [0.3, 0.5, 0.5, 0.2, 0.5, 0.1, 0.4,
                                      0.4, 0.05, 0.3, 0.2, 0.6])),
           1: dict(zip(range(2, 7), [0.2, 0.2, 0.7, 0.1, 0.3])),
           2: {0: 0.5, 19: 0.5}, 3: {4: 0.9},
           4: dict(zip(range(5, 14), [0.15, 0.35, 0.15, 0.8, 0.25, 0.35,
                                      0.6, 0.15, 0.45]))}
    for u in [*range(5, 16), 19]:
        out[u] = {(u + 1) % 20: 0.3, (u + 3) % 20: 0.6}
    edges = [{"u": u, "v": v, "p": p} for u in sorted(out)
             for v, p in sorted(out[u].items())]
    return DiffusionGraph.from_json(json.dumps({
        "nodes": 20, "edges": edges, "sensitive": [16, 17, 18], "seed": 0,
        "branching_target": 1.0}))


_DESK = load_config(desk_preset())
_LAW_SPECS = [DeformationSpec(mode="full"), DeformationSpec(mode="off"),
              DeformationSpec(mode="topk", k=1), DeformationSpec(mode="topk", k=2),
              DeformationSpec(mode="local",
                              local_regions=frozenset(range(1, 40, 3)))]


@pytest.mark.parametrize("spec", _LAW_SPECS,
                         ids=["full", "off", "topk1", "topk2", "local"])
@pytest.mark.parametrize("action", [Action.AGGRESSIVE, Action.CONSERVATIVE],
                         ids=["aggressive", "conservative"])
def test_stimulus_law_equals_row_by_row(spec, action):
    desk = _DESK.graph(1)
    wide = _wide_graph()
    assert np.diff(wide.out_ptr).max() >= 9
    cases = [(desk, stimulus_seed_set(z, desk, _DESK.env_params.k_seed,
                                      _DESK.env_params.seed_pool))
             for z in range(1, 21)]
    cases += [(wide, np.array(s, dtype=np.int64)) for s in
              ([0, 1, 2, 3], [1, 4], [0], [3, 16], [2, 17], [16, 17, 18])]
    rng = np.random.default_rng(8)
    for graph, seeds in cases:
        for draw in range(5):
            psi = rng.uniform(0.01, 1.0, graph.node_count)
            psi[rng.random(graph.node_count) < 0.2] = 1.0
            psi[rng.random(graph.node_count) < 0.1] = 0.01
            nodes, cdf = _stimulus_law(graph, seeds, psi.__getitem__, spec,
                                       action)
            want_nodes, want_cdf = _row_by_row_law(graph, seeds, psi, spec,
                                                   action)
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(cdf, want_cdf)
    # the Aggressive law of seeds without out-edges is empty
    empty = _stimulus_law(wide, np.array([16, 17, 18]),
                          np.ones(20).__getitem__, spec, Action.AGGRESSIVE)
    assert empty[0].shape == empty[1].shape == (0, 0)


@pytest.mark.parametrize("spec", _LAW_SPECS,
                         ids=["full", "off", "topk1", "topk2", "local"])
def test_stimulus_law_reads_psi_at_table_nodes_only(spec):
    # env_steps computes the conductance only at the injection table's
    # nodes; on desk graph 1's seed sets the law equals the one built from
    # the conductance of every node, bit for bit
    desk = _DESK.graph(1)
    n = desk.node_count
    rng = np.random.default_rng(9)
    for z in range(1, 21):
        seeds = stimulus_seed_set(z, desk, _DESK.env_params.k_seed,
                                  _DESK.env_params.seed_pool)
        for draw in range(3):
            # scars on some regions, some at the psi_min floor, some none
            fields = HarmFields(
                G=rng.uniform(0, 3, n) * (rng.random(n) < 0.5),
                H=rng.uniform(0, 3, n) * (rng.random(n) < 0.3),
                params=_DESK.field_params)
            every = conductance(np.arange(n), fields, spec)

            def at_nodes(nodes):
                return conductance(nodes, fields, spec)

            for action in (Action.AGGRESSIVE, Action.CONSERVATIVE):
                want = _stimulus_law(desk, seeds, every.__getitem__, spec,
                                     action)
                got = _stimulus_law(desk, seeds, at_nodes, spec, action)
                assert [a.tobytes() for a in got] == \
                    [a.tobytes() for a in want]


def test_stimulus_law_checks_psi_on_every_call():
    g = _wide_graph()
    seeds = np.array([0, 1])
    psi = np.ones(20)
    psi_at = psi.__getitem__
    _stimulus_law(g, seeds, psi_at, DeformationSpec(), Action.AGGRESSIVE)
    psi[3] = 1.5
    with pytest.raises(ValueError, match=r"psi entries must lie in \(0, 1\]"):
        _stimulus_law(g, seeds, psi_at, DeformationSpec(), Action.AGGRESSIVE)
    # an entry the mode does not gate is not checked, as in apply_mode
    topk = DeformationSpec(mode="topk", k=1)
    _stimulus_law(g, seeds, psi_at, topk, Action.AGGRESSIVE)


@pytest.mark.parametrize("action,uniforms", [(Action.AGGRESSIVE, 0),
                                             (Action.CONSERVATIVE, 1)])
def test_seeds_without_out_edges_draw_only_their_picks(action, uniforms):
    # seeds 16-18 have no out-edges: Aggressive injects them and draws
    # nothing; Conservative draws its one pick
    g = _wide_graph()
    params = EnvParams(k_seed=3, seed_pool="sensitive")
    assert stimulus_seed_set(1, g, 3, "sensitive").tolist() == [16, 17, 18]
    fields = HarmFields(G=np.full(20, 0.5), H=np.full(20, 0.2),
                        params=FieldParams())
    for deform in (OFF, DeformationSpec(mode="full")):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        res = env_step(initial_state(g, 1, 50), action, g, fields, deform,
                       rng, params)
        ref.random(uniforms)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert set(np.flatnonzero(res.state.active)) <= {16, 17, 18}


def _reference_edge_gates(graph, spec):
    # the per-source rule: each source's k most probable out-edges, ties by
    # ascending dst; local by destination region
    e = graph.edge_src.size
    if spec.mode in ("off", "full"):
        return np.full(e, spec.mode == "full")
    if spec.mode == "local":
        return np.isin(graph.edge_dst, list(spec.local_regions))
    mask = np.zeros(e, dtype=bool)
    for u in range(graph.node_count):
        lo, hi = graph.out_ptr[u], graph.out_ptr[u + 1]
        pe = graph.edge_p[lo:hi]
        mask[lo + np.lexsort((np.arange(pe.size), -pe))[:spec.k]] = True
    return mask


def test_segment_gating_equals_per_row_rule():
    # _wide_graph has tied p and out-degrees 0-12, and k runs past 12
    wide = _wide_graph()
    assert sorted(set(np.diff(wide.out_ptr).tolist())) == [0, 1, 2, 5, 9, 12]
    graphs = [wide, _DESK.graph(1), generate_graph(250, 1.2, 3, locality=0.7)]
    specs = [s for s in _LAW_SPECS if s.mode != "topk"] + [
        DeformationSpec(mode="topk", k=k) for k in (1, 2, 3, 5, 12, 13)]
    for g in graphs:
        sizes = np.diff(g.out_ptr)
        for spec in specs:
            want = _reference_edge_gates(g, spec)
            assert np.array_equal(edge_gate_mask(g, spec), want)
            rows = [gated_entries(g.edge_p[lo:hi], spec, g.edge_dst[lo:hi])
                    for lo, hi in zip(g.out_ptr[:-1], g.out_ptr[1:])]
            assert np.array_equal(np.concatenate(rows), want)
            assert np.array_equal(gated_entries(g.edge_p, spec, g.edge_dst,
                                                sizes), want)


def test_graph_caches_hand_out_read_only_arrays():
    # after one step of each action under each mode, one step of two copies
    # and one shield rollout, every array in every memo entry is read-only
    g = generate_graph(50, 1.1, seed=1)
    fields = _fields(g)
    for deform in (*_LAW_SPECS, _DESK.deform("local", g)):
        for action in Action:
            env_step(initial_state(g, 1, 50), action, g, fields, deform,
                     substream(0, 1))
    env_steps(EnvBatch.initial(g, (1, 2), 50), list(Action)[:2], g,
              HarmFields.zeros((2, 50), fields.params), _LAW_SPECS[0],
              [substream(0, 2), substream(0, 3)])
    nominal_rollouts(initial_state(g, 3, 50), list(Action), g, 2,
                     substream(0, 4))
    assert {key[0] for key in g._memo} >= {
        "undirected", "hop", "seeds", "stimulus_rows", "copies", "gate",
        "injection"}
    arrays = [a for entry in g._memo.values()
              for a in (entry if isinstance(entry, tuple) else (entry,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) > len(g._memo)
    for a in arrays:
        before = a.copy()
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1] + 1
        assert np.array_equal(a, before)
    seeds = stimulus_seed_set(1, g)
    assert stimulus_seed_set(1, g) is seeds
