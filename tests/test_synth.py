import heapq
import random
import re
import tempfile
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgprel import cli, ingest, synth
from bgprel.dataset import LabelTable, RelLabel
from bgprel.ingest import PathStore, ingest_file, pack_pairs
from bgprel.synth import (
    GroundTruth,
    RouteGraph,
    SynthConfig,
    _peering_core,
    export,
    generate,
    observed_edges,
    p2c_is_acyclic,
    policy_violations,
    simulate_paths,
)
from bgprel.topology import AsGraph, AsType, build_graph, canonical_edge, infer_clique
from reference import is_valley_free

SMALL = SynthConfig(
    n_tier1=4,
    n_mid=30,
    n_stub=60,
    n_ixp=5,
    n_orgs=8,
    n_vps=10,
    paths_per_vp=40,
    seed=3,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_tier1=0)
    with pytest.raises(ValueError):
        SynthConfig(n_mid=-1)
    with pytest.raises(ValueError):
        SynthConfig(n_vps=10**9)


def test_total_nodes():
    assert SMALL.total_nodes == 4 + 30 + 60 + 5


def test_generate_deterministic():
    t1 = generate(SMALL)
    t2 = generate(SMALL)
    assert list(t1.links.items()) == list(t2.links.items())
    assert t1.org == t2.org
    assert t1.types == t2.types


def test_tier1_full_mesh():
    truth = generate(SMALL)
    tier1 = [a for a, t in truth.tier.items() if t == "tier1"]
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            label = truth.links[canonical_edge(a, b)][2]
            assert label is RelLabel.P2P


def test_every_node_in_graph():
    truth = generate(SMALL)
    assert len(truth.tier) == SMALL.total_nodes
    assert truth.route_graph.nodes.tolist() == sorted(truth.tier)


def test_route_graph_is_cached_until_add():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2P)
    assert truth.route_graph is truth.route_graph
    assert truth.route_graph.nodes.tolist() == [1, 2]
    truth.add(2, 3, RelLabel.P2C)
    assert truth.route_graph.nodes.tolist() == [1, 2, 3]


def test_synth_run_builds_the_planted_graph_once(tmp_path, monkeypatch):
    calls = []
    from_edges = AsGraph.from_edges.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_edges(cls, *args, **kwargs)

    monkeypatch.setattr(AsGraph, "from_edges", classmethod(counting))
    assert cli.run(["synth", "--n-mid", "30", "--n-stub", "60", "--n-vps", "5",
                    "--paths-per-vp", "40", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_sibling_edges_stay_inside_orgs():
    truth = generate(SMALL)
    for a, b, label in truth.links.values():
        if label is RelLabel.S2S:
            assert truth.org[a] == truth.org[b]


def test_same_org_same_type():
    truth = generate(SMALL)
    by_org = {}
    for a, org_id in truth.org.items():
        by_org.setdefault(org_id, set()).add(truth.types[a])
    for members_types in by_org.values():
        assert len(members_types) == 1


def test_x2x_edges_touch_exactly_one_ixp():
    truth = generate(SMALL)
    for a, b, label in truth.links.values():
        touches = (a in truth.ixps) + (b in truth.ixps)
        if label is RelLabel.X2X:
            assert touches == 1
        else:
            assert touches == 0


def _p2c_edges(truth):
    """Each planted p2c edge as (provider, customer)."""
    return [(a, b) for a, b, label in truth.links.values() if label is RelLabel.P2C]


def _p2c_truth(pairs):
    truth = GroundTruth()
    for p, c in pairs:
        truth.add(p, c, RelLabel.P2C)
    return truth


# provider -> customer chains deeper than 20 levels, a cycle with a long
# acyclic hierarchy above it and customers below it, and a cycle closed
# by the bottom of a deep chain
_CHAIN = [(a, a + 1) for a in range(1, 31)]
_DEEP_P2C = [
    _CHAIN,
    _CHAIN + [(a, a + 7) for a in range(1, 24, 3)],
    _CHAIN + [(31, 100), (100, 101), (101, 102), (102, 100), (102, 103), (103, 104)],
    _CHAIN + [(31, 1)],
]


def test_p2c_acyclic_matches_networkx():
    truths = [
        generate(SynthConfig(
            n_tier1=3, n_mid=20, n_stub=30, n_ixp=2, n_orgs=5,
            n_vps=5, paths_per_vp=10, seed=seed,
        ))
        for seed in range(6)
    ] + [_p2c_truth(pairs) for pairs in _DEEP_P2C]
    for truth in truths:
        dg = nx.DiGraph(_p2c_edges(truth))
        assert p2c_is_acyclic(truth.route_graph) == nx.is_directed_acyclic_graph(dg)


def test_p2c_acyclic_flags_a_cycle():
    assert not p2c_is_acyclic(_p2c_truth([(1, 2), (2, 3), (3, 1)]).route_graph)


def test_ground_truth_rejects_duplicate_edge():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2P)
    with pytest.raises(ValueError):
        truth.add(2, 1, RelLabel.P2C)


def test_oriented_puts_provider_first():
    truth = GroundTruth()
    truth.add(5, 2, RelLabel.P2C)
    truth.add(4, 1, RelLabel.P2P)
    assert truth.links == {(2, 5): (5, 2, RelLabel.P2C), (1, 4): (1, 4, RelLabel.P2P)}
    assert truth.route_graph.links.rows() == [(1, 4, RelLabel.P2P, "", ""),
                                              (5, 2, RelLabel.P2C, "", "")]


def test_simulation_deterministic():
    truth = generate(SMALL)
    p1, s1 = simulate_paths(truth, SMALL)
    p2, s2 = simulate_paths(truth, SMALL)
    assert [p.hops for p in p1] == [p.hops for p in p2]
    assert s1.vantage_points == s2.vantage_points
    assert s1.emitted == s2.emitted


def test_paths_start_at_vp_and_have_no_repeats():
    truth = generate(SMALL)
    paths, stats = simulate_paths(truth, SMALL)
    assert stats.emitted == len(paths)
    vps = set(stats.vantage_points)
    for p in paths:
        assert p.hops[0] in vps
        assert len(set(p.hops)) == len(p.hops)


def test_all_paths_valley_free():
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    assert paths
    for p in paths:
        assert is_valley_free(p.hops, truth)


def test_paths_never_shorter_than_unconstrained_shortest():
    # policy routing can only lengthen a route, never beat plain BFS
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    g = nx.Graph(truth.links.keys())
    for p in list(paths)[:200]:
        floor = nx.shortest_path_length(g, p.hops[0], p.hops[-1])
        assert len(p.hops) - 1 >= floor


def test_valley_free_checker_rejects_a_valley():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2C)
    truth.add(3, 2, RelLabel.P2C)
    # 1 -> 2 -> 3 descends into a customer then climbs back out
    assert not is_valley_free((1, 2, 3), truth)
    assert is_valley_free((3, 2), truth)
    assert is_valley_free((2, 1), truth)


def test_valley_free_checker_rejects_two_peer_hops():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2P)
    truth.add(2, 3, RelLabel.P2P)
    assert not is_valley_free((1, 2, 3), truth)


def test_valley_free_checker_rejects_unplanted_edge():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2P)
    assert not is_valley_free((1, 7), truth)


def test_sibling_hops_are_transparent():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.S2S)
    truth.add(2, 3, RelLabel.P2C)
    truth.add(3, 4, RelLabel.S2S)
    assert is_valley_free((1, 2, 3, 4), truth)


def test_export_files_roundtrip(tmp_path):
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, n_sources=3, perturbation=0.0, seed=1)

    parsed, report = ingest_file(files["paths"])
    assert report.malformed == 0
    assert [p.hops for p in parsed] == [p.hops for p in paths]

    stored = LabelTable.read_csv(files["truth"])
    links = truth.route_graph.links
    assert len(stored) == len(truth.links)
    for column in ("a", "b", "label"):
        assert np.array_equal(getattr(stored, column), getattr(links, column))
    assert [row[:3] for row in links.rows()] == [truth.links[k] for k in sorted(truth.links)]


@pytest.mark.parametrize("n_sources,perturbation,message", [
    (0, 0.0, "need at least one label source, got 0"),
    (3, 1.5, "perturbation must lie in [0, 1], got 1.5"),
    (3, -0.5, "perturbation must lie in [0, 1], got -0.5"),
    (3, float("nan"), "perturbation must lie in [0, 1], got nan"),
])
def test_export_refuses_bad_settings_before_writing(tmp_path, n_sources,
                                                    perturbation, message):
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    out = tmp_path / "bundle"
    with pytest.raises(ValueError, match=re.escape(message)):
        export(truth, paths, out, n_sources=n_sources, perturbation=perturbation)
    assert not out.exists()


def test_export_zero_perturbation_sources_identical(tmp_path):
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, n_sources=3, perturbation=0.0, seed=9)
    texts = {files[f"labels_{s}"].read_text() for s in (1, 2, 3)}
    assert len(texts) == 1


def test_export_sources_cover_observed_edges(tmp_path):
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, perturbation=0.0, seed=0)
    rows = set()
    for line in files["labels_1"].read_text().splitlines():
        a, b, _ = line.split("|")
        rows.add(canonical_edge(int(a), int(b)))
    edges = observed_edges(paths)
    assert rows == set(map(tuple, edges.tolist()))
    assert edges.tolist() == sorted(map(list, rows))


def test_export_perturbation_changes_sources(tmp_path):
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, n_sources=2, perturbation=0.3, seed=4)
    clean = export(truth, paths, tmp_path / "clean", n_sources=1,
                   perturbation=0.0, seed=4)
    base = clean["labels_1"].read_text()
    assert files["labels_1"].read_text() != base
    assert files["labels_1"].read_text() != files["labels_2"].read_text()


def test_orgs_file_covers_every_node(tmp_path):
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path)
    lines = files["orgs"].read_text().splitlines()[1:]
    asns = {int(line.split(",")[0]) for line in lines}
    assert asns == set(truth.tier)
    orgs = [line.split(",")[1] for line in lines]
    solos = [o for o in orgs if o.startswith("solo-")]
    assert len(set(solos)) == len(solos)


def test_observed_clique_recovers_tier1():
    cfg = SynthConfig(
        n_tier1=5, n_mid=60, n_stub=120, n_ixp=8, n_orgs=15,
        n_vps=20, paths_per_vp=80, seed=11,
    )
    truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    observed = build_graph(paths)
    clique = infer_clique(observed)
    tier1 = {a for a, t in truth.tier.items() if t == "tier1"}
    assert clique == tier1


def test_unreachable_counted_not_emitted():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2P)
    # node 3 is isolated, so one of the two sampled destinations fails
    truth.tier = {1: "mid", 2: "mid", 3: "mid"}
    cfg = SynthConfig(
        n_tier1=1, n_mid=1, n_stub=1, n_ixp=0, n_orgs=0,
        n_vps=1, paths_per_vp=2, seed=0,
    )
    paths, stats = simulate_paths(truth, cfg)
    assert len(stats.vantage_points) == 1
    assert set(stats.vantage_points) <= set(truth.tier)
    assert stats.unreachable >= 1
    assert stats.emitted == len(paths)
    assert stats.emitted + stats.unreachable == cfg.paths_per_vp


# -- array route simulation against the per-vantage-point heap search -------

_UP, _DOWN = 0, 1


def _reference_step(truth, m, w, phase):
    """Next walk phase for hop m -> w, or None when the step is barred."""
    provider, _, label = truth.links[canonical_edge(m, w)]
    if label is RelLabel.S2S:
        return phase
    if label in (RelLabel.P2P, RelLabel.X2X):
        return _DOWN if phase == _UP else None
    if provider == w:  # climbing into a provider
        return _UP if phase == _UP else None
    return _DOWN  # descending into a customer


def _reference_routes(vp, adjacency, truth):
    """Cheapest policy-conforming path from one vantage point to every
    reachable node: a heap search over (node, phase) states that pops in
    (hops, lexicographic hop sequence) order.  Returns the route table
    and the path of every state, in pop order."""
    heap = [(0, (), vp, _UP)]
    seen_state = set()
    best = {}
    popped = []
    while heap:
        dist, tail, node, phase = heapq.heappop(heap)
        if (node, phase) in seen_state:
            continue
        seen_state.add((node, phase))
        popped.append(tail)
        if node not in best:
            best[node] = tail
        for w in adjacency[node]:
            if w == vp or w in tail:
                continue
            nxt = _reference_step(truth, node, w, phase)
            if nxt is None or (w, nxt) in seen_state:
                continue
            heapq.heappush(heap, (dist + 1, tail + (w,), w, nxt))
    return best, popped


def _adjacency(truth):
    adjacency = {a: [] for a in sorted(truth.tier)}
    for a, b in truth.links:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return {a: sorted(ws) for a, ws in adjacency.items()}


def _reference_simulate(truth, config):
    """The route simulation written per path: (hop tuples, unreachable)."""
    rng = random.Random(config.seed + 1_000_003)
    nodes = sorted(truth.tier)
    adjacency = _adjacency(truth)
    mids = sorted(a for a in nodes if truth.tier.get(a) == "mid")
    vp_pool = _peering_core(mids) or nodes
    vps = rng.sample(vp_pool, min(config.n_vps, len(vp_pool)))
    paths, unreachable = [], 0
    for vp in vps:
        table, _ = _reference_routes(vp, adjacency, truth)
        others = [a for a in nodes if a != vp]
        for dest in rng.sample(others, min(config.paths_per_vp, len(others))):
            if dest in table:
                paths.append((vp,) + table[dest])
            else:
                unreachable += 1
    return paths, unreachable


def _array_routes(truth, vp):
    """The array search's route table as {ASN: hops after the VP}, and
    the path of every state, layer by layer in rank order."""
    graph = truth.route_graph
    table = graph.routes(int(np.searchsorted(graph.nodes, vp)))
    best = {
        int(graph.nodes[i]): tuple(
            graph.nodes[table.paths[table.layer[i]][table.row[i]]].tolist())
        for i in np.flatnonzero(table.layer >= 0).tolist()
    }
    popped = [tuple(row) for layer in table.paths
              for row in graph.nodes[layer].tolist()]
    return best, popped


def _assert_same_route_tables(truth):
    adjacency = _adjacency(truth)
    for vp in sorted(truth.tier):
        assert _array_routes(truth, vp) == _reference_routes(vp, adjacency, truth), vp


@st.composite
def small_configs(draw):
    sizes = dict(
        n_tier1=draw(st.integers(1, 4)),
        n_mid=draw(st.integers(0, 25)),
        n_stub=draw(st.integers(0, 30)),
        n_ixp=draw(st.integers(0, 4)),
    )
    return SynthConfig(
        **sizes,
        n_orgs=draw(st.integers(0, 8)),
        n_vps=draw(st.integers(1, min(4, sum(sizes.values())))),
        paths_per_vp=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**20)),
    )


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_route_tables_match_heap_search(cfg):
    # every node as the vantage point, tie-breaking included
    truth = generate(cfg)
    _assert_same_route_tables(truth)


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_simulation_matches_per_path_reference(cfg):
    truth = generate(cfg)
    paths, stats = simulate_paths(truth, cfg)
    want, unreachable = _reference_simulate(truth, cfg)
    assert [p.hops for p in paths] == want
    assert (stats.emitted, stats.unreachable) == (len(want), unreachable)


def _hand_built():
    """Sibling chains and a step back into a node already on the path.

    From AS1, the walk climbs 1 -> 2 -> 4, peers across to 5 and could
    step down into 2 again (2 buys transit from 4 and from 5): a state
    (2, down) whose path already holds 2, which the loop rule bars.
    Siblings 6 = 7 = 8 hang below 5, and siblings 3 = 9 below 1.
    """
    truth = GroundTruth()
    truth.add(2, 1, RelLabel.P2C)
    truth.add(4, 2, RelLabel.P2C)
    truth.add(5, 2, RelLabel.P2C)
    truth.add(4, 5, RelLabel.P2P)
    truth.add(5, 6, RelLabel.P2C)
    truth.add(6, 7, RelLabel.S2S)
    truth.add(7, 8, RelLabel.S2S)
    truth.add(8, 10, RelLabel.P2C)
    truth.add(1, 3, RelLabel.P2C)
    truth.add(3, 9, RelLabel.S2S)
    truth.add(9, 11, RelLabel.P2C)
    truth.add(2, 12, RelLabel.P2C)
    truth.tier = {a: "mid" for a in range(1, 14)}  # 13 stays isolated
    return truth


def test_hand_built_route_tables():
    truth = _hand_built()
    _assert_same_route_tables(truth)
    routes, popped = _array_routes(truth, 1)
    assert 13 not in routes
    # up, up, then down through the sibling chain; down then sideways
    assert routes[10] == (2, 5, 6, 7, 8, 10)
    assert routes[11] == (3, 9, 11)
    # the walk climbs to 4 and crosses to 5, yet no state's path steps
    # back into 2 or any other node it already holds
    assert (2, 4) in popped and (2, 4, 5) in popped
    for hops in popped:
        assert len(set(hops)) == len(hops) and 1 not in hops


# -- the array policy check against is_valley_free ---------------------------


def _reference_violations(truth, paths):
    return np.array([not is_valley_free(p.hops, truth) for p in paths], dtype=bool)


def test_policy_check_passes_emitted_paths():
    truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    assert not policy_violations(truth.route_graph, paths).any()


@pytest.mark.parametrize("batch", [2, 1 << 16])
def test_policy_check_on_hand_made_paths(monkeypatch, batch):
    monkeypatch.setattr(ingest, "_PATH_BATCH", batch)
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2C)
    truth.add(3, 2, RelLabel.P2C)
    truth.add(3, 4, RelLabel.P2P)
    truth.add(4, 5, RelLabel.P2P)
    truth.add(5, 6, RelLabel.S2S)
    truth.add(6, 7, RelLabel.P2C)
    paths = PathStore.from_hops([
        (1, 2, 3),  # a valley: down into 2, then up to 3
        (3, 4, 5),  # two peer hops
        (1, 7),  # an unplanted edge
        (2, 3, 4, 5),  # up, then two peer hops
        (2, 3, 4),  # up and across
        (4, 5, 6, 7),  # across, sibling, down
        (7, 6, 5),  # up then sibling
        (9,),  # one hop is no step
        (2, 1),  # up
    ])
    want = [True, True, True, True, False, False, False, False, False]
    assert policy_violations(truth.route_graph, paths).tolist() == want
    assert _reference_violations(truth, paths).tolist() == want


def _mutate(hops, rng, nodes):
    kind = rng.randrange(4)
    hops = list(hops)
    if kind == 0 and len(hops) > 2:
        i = rng.randrange(1, len(hops) - 1)
        hops[i], hops[i + 1] = hops[i + 1], hops[i]
    elif kind == 1 and len(hops) > 2:
        del hops[rng.randrange(1, len(hops))]
    elif kind == 2:
        hops.append(rng.choice(nodes))
    else:
        hops = hops[::-1]
    return hops


@settings(max_examples=25, deadline=None)
@given(small_configs(), st.integers(0, 2**20))
def test_policy_check_matches_reference_on_mutated_paths(cfg, seed):
    truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    rng = random.Random(seed)
    nodes = sorted(truth.tier) + [max(truth.tier) + 1]
    mutated = PathStore.from_hops(
        _mutate(p.hops, rng, nodes) if rng.random() < 0.7 else p.hops
        for p in paths
    )
    assert policy_violations(truth.route_graph, mutated).tolist() == (
        _reference_violations(truth, mutated).tolist())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=14))
def test_p2c_acyclic_matches_networkx_on_random_digraphs(pairs):
    truth = GroundTruth()
    for p, c in pairs:
        if p != c and canonical_edge(p, c) not in truth.links:
            truth.add(p, c, RelLabel.P2C)
    assert p2c_is_acyclic(truth.route_graph) == nx.is_directed_acyclic_graph(
        nx.DiGraph(_p2c_edges(truth)))


# -- the route graph is the planted AsGraph plus step kinds ------------------


def _want_kind(truth, m, w):
    provider, _, label = truth.links[canonical_edge(m, w)]
    if label is RelLabel.S2S:
        return synth._SIBLING
    if label in (RelLabel.P2P, RelLabel.X2X):
        return synth._PEER
    return synth._CLIMB if provider == w else synth._DESCEND


@settings(max_examples=30, deadline=None)
@given(small_configs())
def test_route_graph_is_the_planted_adjacency(cfg):
    truth = generate(cfg)
    graph = AsGraph.from_edges(truth.links, nodes=truth.tier)
    routes = truth.route_graph
    adjacency = graph.adjacency()
    assert np.array_equal(routes.nodes, graph.nodes)
    assert np.array_equal(routes.indptr, adjacency.indptr)
    assert np.array_equal(routes.indices, adjacency.indices)
    rows = np.repeat(np.arange(len(routes.nodes)), np.diff(routes.indptr))
    m, w = routes.nodes[rows], routes.nodes[routes.indices]
    assert np.array_equal(routes.keys, pack_pairs(m, w))
    assert routes.kind.tolist() == [
        _want_kind(truth, a, b) for a, b in zip(m.tolist(), w.tolist())]
    kind, planted = routes.step_kinds(m, w)
    assert planted.all() and np.array_equal(kind, routes.kind)


_ROUTE_GRAPH_ARRAYS = ("nodes", "indptr", "indices", "keys", "kind")


def test_route_graph_reads_any_label_table(tmp_path):
    # a hand-built table, rows shuffled: p2c links provider first, a
    # sibling and an exchange link, and a provider cycle 6 -> 7 -> 8 -> 6
    rows = [(1, 2, RelLabel.P2C), (3, 2, RelLabel.P2C), (2, 4, RelLabel.P2C),
            (4, 5, RelLabel.P2C), (1, 3, RelLabel.P2P), (9, 4, RelLabel.S2S),
            (10, 5, RelLabel.X2X), (6, 7, RelLabel.P2C), (7, 8, RelLabel.P2C),
            (8, 6, RelLabel.P2C)]
    random.Random(4).shuffle(rows)
    nodes = range(1, 12)
    paths = PathStore.from_hops([
        (1, 2, 3),  # a valley
        (2, 1, 3),  # up, across
        (9, 4, 2, 1),  # sibling, up, up
        (2, 4, 5, 10),  # down, down, then across
        (6, 7, 8),  # down the cycle
        (1, 99),  # no such link
    ])
    acyclic = [r for r in rows if not {r[0], r[1]} <= {6, 7, 8}]
    for kept, cycle in ((rows, True), (acyclic, False)):
        truth = GroundTruth(tier=dict.fromkeys(nodes, "mid"))
        for a, b, label in kept:
            truth.add(a, b, label)
        graph = RouteGraph(LabelTable.from_rows((*r, "", "") for r in kept), nodes)
        for name in _ROUTE_GRAPH_ARRAYS:
            assert np.array_equal(getattr(graph, name), getattr(truth.route_graph, name))
        # without the cycle's links, 6 -> 7 -> 8 is no path
        assert policy_violations(graph, paths).tolist() == [True, False, False, True,
                                                           not cycle, True]
        assert policy_violations(truth.route_graph, paths).tolist() == (
            policy_violations(graph, paths).tolist())
        assert p2c_is_acyclic(graph) is p2c_is_acyclic(truth.route_graph) is not cycle

    # the default synth's truth.csv, read back
    truth = generate(SynthConfig())
    paths, _ = simulate_paths(truth, SynthConfig())
    files = export(truth, paths, tmp_path)
    graph = RouteGraph(LabelTable.read_csv(files["truth"]), truth.tier)
    for name in _ROUTE_GRAPH_ARRAYS:
        assert np.array_equal(getattr(graph, name), getattr(truth.route_graph, name))


def test_step_kinds_of_unplanted_hops():
    truth = GroundTruth()
    truth.add(2, 1, RelLabel.P2C)
    kind, planted = truth.route_graph.step_kinds(np.array([1, 2, 1, 3]),
                                                 np.array([2, 1, 3, 1]))
    assert planted.tolist() == [True, True, False, False]
    assert kind.tolist() == [synth._CLIMB, synth._DESCEND, synth._SIBLING, synth._SIBLING]
    kind, planted = GroundTruth().route_graph.step_kinds(np.array([1]), np.array([2]))
    assert not planted.any() and kind.tolist() == [synth._SIBLING]
    # with nothing planted, every path with a step breaks the policy
    paths = PathStore.from_hops([(1, 2), (5,)])
    assert policy_violations(GroundTruth().route_graph, paths).tolist() == [True, False]


# -- export rows against the per-edge reference ------------------------------


def _source_row(truth, edge):
    """The call a relationship-inference tool would emit for one edge:
    the per-edge reference for the export's base rows."""
    provider, _, label = truth.links[canonical_edge(*edge)]
    lo, hi = edge
    if label is RelLabel.P2C:
        return (provider, hi if provider == lo else lo, -1)
    if label is RelLabel.S2S:
        return (lo, hi, -1)
    return (lo, hi, 0)


def _reference_label_lines(truth, paths, source, perturbation, seed):
    rng = random.Random(seed * 7_919 + source)
    lines = []
    for a, b, code in (_source_row(truth, e) for e in observed_edges(paths).tolist()):
        if perturbation > 0.0 and rng.random() < perturbation:
            if code == 0:
                a, b = (a, b) if rng.random() < 0.5 else (b, a)
                code = -1
            else:
                a, b = min(a, b), max(a, b)
                code = 0
        lines.append(f"{a}|{b}|{code}")
    return lines


@settings(max_examples=25, deadline=None)
@given(small_configs(), st.sampled_from([0.0, 0.3]), st.integers(0, 50))
def test_export_rows_match_per_edge_reference(cfg, perturbation, seed):
    truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    with tempfile.TemporaryDirectory() as out:
        files = export(truth, paths, out, n_sources=2, perturbation=perturbation,
                       seed=seed)
        for source in (1, 2):
            got = Path(files[f"labels_{source}"]).read_text().splitlines()
            assert got == _reference_label_lines(truth, paths, source, perturbation, seed)


def test_export_refuses_an_unplanted_observed_edge(tmp_path):
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2P)
    truth.add(2, 3, RelLabel.P2C)
    truth.tier = {a: "mid" for a in range(1, 5)}
    paths = PathStore.from_hops([(1, 2, 3), (4, 3)])
    with pytest.raises(KeyError, match=r"no planted edge \(3, 4\)"):
        export(truth, paths, tmp_path)
    with pytest.raises(KeyError):
        _source_row(truth, (3, 4))


# -- generate draws providers by position, as from the built pools -----------


def _reference_generate(config):
    """``generate`` with every provider pool built as a list, the
    comprehension the position-based draws must reproduce."""
    rng = random.Random(config.seed)
    truth = GroundTruth()
    next_asn = 1

    def take(n: int, tier: str) -> list[int]:
        nonlocal next_asn
        out = list(range(next_asn, next_asn + n))
        next_asn += n
        for a in out:
            truth.tier[a] = tier
        return out

    tier1 = take(config.n_tier1, "tier1")
    mids = take(config.n_mid, "mid")
    stubs = take(config.n_stub, "stub")
    ixps = take(config.n_ixp, "ixp")
    truth.ixps = set(ixps)

    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            truth.add(a, b, RelLabel.P2P)

    # sibling groups drawn from the mid tier; the head member carries the
    # group's upstream connectivity so sibling links actually see transit
    head_of: dict[int, int] = {}
    group_pure: dict[str, bool] = {}
    pool = list(mids)
    rng.shuffle(pool)
    taken = 0
    for gi in range(config.n_orgs):
        size = rng.choice(synth._ORG_GROUP_SIZES)
        if taken + size > len(pool):
            break
        members = sorted(pool[taken : taken + size])
        taken += size
        org_id = f"org{gi:04d}"
        group_pure[org_id] = rng.random() < synth._PURE_SIBLING_SHARE
        head = members[0]
        for m in members:
            truth.org[m] = org_id
        for m in members[1:]:
            head_of[m] = head
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                truth.add(a, b, RelLabel.S2S)

    def provider_pool(i: int, me: int) -> list[int]:
        mine = truth.org.get(me)
        return [
            p
            for p in tier1 + mids[:i]
            if mine is None or truth.org.get(p) != mine
        ]

    # deal tier-1 transit contracts from a reshuffled deck so customer
    # counts stay balanced across the mesh
    deck: list[int] = []

    def next_tier1() -> int:
        if not deck:
            deck.extend(tier1)
            rng.shuffle(deck)
        return deck.pop()

    for i, m in enumerate(mids):
        if m in head_of:
            # upstream flows through the sibling head; mixed groups keep
            # one ordinary provider of their own
            if not group_pure[truth.org[m]]:
                pool_i = provider_pool(i, m)
                if pool_i:
                    p = rng.choice(pool_i)
                    truth.add(p, m, RelLabel.P2C)
            continue
        # one tier-1 contract each, plus up to two regional upstreams,
        # so the planted mesh stays the transit core
        t = next_tier1()
        truth.add(t, m, RelLabel.P2C)
        pool_i = [p for p in provider_pool(i, m) if p != t]
        k = min(rng.randint(0, 2), len(pool_i))
        for p in rng.sample(pool_i, k):
            truth.add(p, m, RelLabel.P2C)

    stub_pool = mids if mids else tier1
    for s in stubs:
        k = 1
        while k < 3 and rng.random() < synth._STUB_EXTRA_PROVIDER_SHARE:
            k += 1
        providers = rng.sample(stub_pool, min(k, len(stub_pool)))
        if mids and rng.random() < synth._STUB_TIER1_SHARE:
            t = rng.choice(tier1)
            if t not in providers:
                providers.append(t)
        for p in providers:
            truth.add(p, s, RelLabel.P2C)

    # open peering happens between networks that run their own transit;
    # a subsidiary whose only upstream is its sibling head does not
    peer_pool = [
        m for m in mids
        if m not in head_of or not group_pure[truth.org[m]]
    ]
    n_peer = int(synth._PEER_EDGE_FACTOR * len(mids))
    for _ in range(n_peer):
        if len(peer_pool) < 2:
            break
        a, b = rng.sample(peer_pool, 2)
        key = canonical_edge(a, b)
        if key in truth.links:
            continue
        if truth.org.get(a) is not None and truth.org.get(a) == truth.org.get(b):
            continue
        truth.add(a, b, RelLabel.P2P)

    member_pool = mids + stubs
    core = _peering_core(mids)
    for x in ixps:
        if not member_pool:
            break
        k = min(rng.randint(*synth._IXP_MEMBER_RANGE), len(member_pool))
        n_core = min(int(round(k * synth._IXP_CORE_SHARE)), len(core))
        members = set(rng.sample(core, n_core))
        while len(members) < k:
            members.add(rng.choice(member_pool))
        for m in sorted(members):
            truth.add(m, x, RelLabel.X2X)

    # same organization, same registered business type
    org_types: dict[str, AsType] = {}
    for a in tier1:
        truth.types[a] = AsType.TRANSIT_ACCESS
    for m in mids:
        org_id = truth.org.get(m)
        if org_id is not None:
            if org_id not in org_types:
                org_types[org_id] = (
                    AsType.CONTENT if rng.random() < 0.5 else AsType.TRANSIT_ACCESS
                )
            truth.types[m] = org_types[org_id]
        else:
            truth.types[m] = (
                AsType.TRANSIT_ACCESS if rng.random() < 0.8 else AsType.CONTENT
            )
    for s in stubs:
        roll = rng.random()
        truth.types[s] = (
            AsType.ENTERPRISE
            if roll < 0.5
            else AsType.CONTENT
            if roll < 0.8
            else AsType.UNKNOWN
        )
    for x in ixps:
        truth.types[x] = AsType.UNKNOWN

    return truth


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_generate_matches_list_pool_reference(cfg):
    truth = generate(cfg)
    want = _reference_generate(cfg)
    assert list(truth.links.items()) == list(want.links.items())
    assert (truth.org, truth.types, truth.tier) == (want.org, want.types, want.tier)


@pytest.mark.parametrize("cfg", [
    SynthConfig(),
    SynthConfig(n_tier1=3, n_mid=400, n_stub=50, n_orgs=150, seed=2),
])
def test_generate_matches_list_pool_reference_at_scale(cfg):
    # many sibling groups, so most pools skip org members as well as t
    truth = generate(cfg)
    want = _reference_generate(cfg)
    assert list(truth.links.items()) == list(want.links.items())
