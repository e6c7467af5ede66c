import dataclasses
import itertools
import json
import random
import re
from unittest import mock

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bgprel import ingest, topology
from bgprel.gcn import Checkpoint, init_model, load_checkpoint, save_checkpoint
from bgprel.ingest import AsPath, MAX_ASN, PathStore, ingest_lines, unpack_pairs
from bgprel.topology import (
    FEATURE_COLUMNS,
    HIERARCHY_COLUMNS,
    SCALAR_COLUMNS,
    AsGraph,
    AsType,
    Csr,
    GraphSummary,
    UnknownNodeError,
    assemble_features,
    build_graph,
    canonical_edge,
    clique_distances,
    cnr_edge_weights,
    infer_clique,
    load_type_map,
    step_edges,
    write_features_csv,
)
from reference import edge_pairs


def paths_of(*hop_lists):
    return [AsPath(tuple(h)) for h in hop_lists]


def graph_of(paths):
    return build_graph(PathStore.from_hops(paths))


def random_paths(rng, n_nodes=30, n_paths=25, max_len=6):
    """Loop-free random paths over a small ASN universe."""
    out = []
    for _ in range(n_paths):
        length = rng.randint(2, max_len)
        nodes = rng.sample(range(1, n_nodes + 1), min(length, n_nodes))
        out.append(AsPath(tuple(nodes)))
    return out


def raw_features(g):
    """Raw scalar feature columns of every ASN, as the model's input
    sees them (the clique only moves dist_to_clique)."""
    fm = assemble_features(g, {int(g.nodes[0])})
    return {a: dict(zip(SCALAR_COLUMNS, row))
            for a, row in zip(fm.nodes.tolist(), fm.raw.tolist())}


def vp_columns(g, a):
    s = raw_features(g)[a]
    return (s["dist_to_vp_mean"], s["dist_to_vp_min"], s["dist_to_vp_max"],
            s["assign_vp"])


def adjacent(g, a, b):
    """Whether ASNs a and b share an edge, read from a's CSR row."""
    i, j = g.positions([a, b])
    return j in g.indices[g.indptr[i]:g.indptr[i + 1]]


def as_scipy(m):
    """A node-by-node ``Csr`` as a scipy csr_matrix over its arrays, to
    read entries through."""
    n = len(m.indptr) - 1
    return sp.csr_matrix(tuple(m), shape=(n, n))


def weight(g, a, b):
    i, j = g.positions([a, b])
    return as_scipy(cnr_edge_weights(g))[i, j]


def nx_graph(paths):
    g = nx.Graph()
    for p in paths:
        g.add_nodes_from(p.hops)
        g.add_edges_from(zip(p.hops, p.hops[1:]))
    return g


class TestBuildGraph:
    def test_edges_from_consecutive_pairs(self):
        g = graph_of(paths_of([1, 2, 3], [2, 4]))
        assert g.nodes.tolist() == [1, 2, 3, 4]
        assert edge_pairs(g) == [(1, 2), (2, 3), (2, 4)]
        assert adjacent(g, 2, 1) and not adjacent(g, 1, 3)

    def test_arrays_are_read_only(self):
        g = graph_of(paths_of([1, 2, 3]))
        for array in (g.nodes, g.edge_rows, g.indptr, g.transit):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_empty_input(self):
        g = graph_of([])
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_edge_multiset_independent_of_path_order(self):
        rng = random.Random(5)
        paths = random_paths(rng)
        g1 = graph_of(paths)
        g2 = graph_of(list(reversed(paths)))
        assert edge_pairs(g1) == edge_pairs(g2)
        assert raw_features(g1) == raw_features(g2)

    def test_vp_observers_recorded(self):
        g = graph_of(paths_of([1, 2, 3], [9, 2, 3]))
        raw = raw_features(g)
        assert raw[3]["assign_vp"] == 2
        assert raw[1]["assign_vp"] == 1
        assert raw[9]["assign_vp"] == 1

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            AsGraph.from_edges([(5, 5)])
        with pytest.raises(ValueError):
            graph_of([(1, 5, 5)])

    def test_unknown_node_queries_raise(self):
        g = graph_of(paths_of([1, 2]))
        with pytest.raises(UnknownNodeError):
            g.degrees()[g.positions(99)]
        with pytest.raises(UnknownNodeError):
            g.transit[g.positions(99)]


def _recode(name, edit):
    """A checkpoint meta edit: decode field ``name`` of its graph, edit
    the array and encode it again."""
    def apply(meta):
        graph = meta["graph"]
        graph[name] = ingest.encode_array(edit(ingest.decode_array(
            graph, "checkpoint.json", name, ("int64",))))
    return apply


class TestSavedGraph:
    """The graph a checkpoint carries in ``meta.graph``."""

    REPORT = ingest.IngestReport(parsed=9, compressed=2, rejected_loop=1, malformed=1)

    def saved(self, tmp_path):
        g = graph_of(random_paths(random.Random(3)))
        f = tmp_path / "checkpoint.json"
        model = init_model(3, 4, 2, (1, 1), np.random.default_rng(0))
        save_checkpoint(f, Checkpoint(model, "binary", 0, 1, None, (g, self.REPORT)))
        return g, f

    @staticmethod
    def load(f):
        return load_checkpoint(f).observed

    def test_round_trip(self, tmp_path):
        g, f = self.saved(tmp_path)
        loaded, report = self.load(f)
        assert report == self.REPORT
        for name in ("nodes", "edge_rows", "indptr", "indices", "edge_of", "transit"):
            got, want = getattr(loaded, name), getattr(g, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for got, want in zip(loaded.vp, g.vp):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert raw_features(loaded) == raw_features(g)
        with pytest.raises(ValueError):
            loaded.transit[0] = 1

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: meta.update(graph=[]), "field 'meta.graph' is not an object"),
        (lambda meta: meta["graph"].pop("nodes"), "missing field 'meta.graph.nodes'"),
        (_recode("nodes", lambda a: a[::-1]), "field 'meta.graph.nodes' is not increasing ASNs"),
        (_recode("nodes", lambda a: a - a[0]), "field 'meta.graph.nodes' is not increasing ASNs"),
        (_recode("nodes", lambda a: a.astype(np.float64)),
         "field 'meta.graph.nodes.dtype' is not 'int64'"),
        (_recode("transit", lambda a: a[:-1]), "field 'meta.graph.transit.shape' is not ["),
        (_recode("vp", lambda a: a[:4]), "field 'meta.graph.vp.shape' is not [5, "),
        (_recode("edge_rows", lambda a: a[:, :1]), "field 'meta.graph.edge_rows.shape' is not ["),
        (_recode("edge_rows", lambda a: a - 1),
         "field 'meta.graph.edge_rows' is not node rows in [0, "),
        (_recode("edge_rows", lambda a: a[:, ::-1]),
         "field 'meta.graph.edge_rows' is not distinct"),
        (_recode("edge_rows", lambda a: a[::-1]), "field 'meta.graph.edge_rows' is not distinct"),
        (lambda meta: meta["graph"]["ingest"].pop("parsed"),
         "field 'meta.graph.ingest' is not the counts"),
        (lambda meta: meta["graph"]["ingest"].update(parsed=-1),
         "field 'meta.graph.ingest' is not the counts"),
    ], ids=["not-object", "missing", "nodes-order", "nodes-range", "nodes-dtype", "transit",
            "vp", "edge-width", "edge-range", "edge-orientation", "edge-order",
            "ingest-missing", "ingest-negative"])
    def test_malformed_field_is_refused(self, tmp_path, edit, message):
        _, f = self.saved(tmp_path)
        doc = json.loads(f.read_text())
        edit(doc["meta"])
        f.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(str(f)) + ".*" + re.escape(message)):
            self.load(f)


def _loop_free(hops):
    return list(dict.fromkeys(hops))


_hop = st.one_of(st.integers(1, 12), st.sampled_from([2**31 - 1, 2**31, MAX_ASN]))
_stores = st.lists(st.lists(_hop, min_size=1, max_size=6).map(_loop_free), max_size=12)


class TestStepEdges:
    @settings(max_examples=200, deadline=None)
    @given(paths=_stores, batch=st.sampled_from([1, 2, 3, 1 << 16]))
    def test_matches_brute_force_across_batches(self, paths, batch):
        want = sorted({tuple(sorted(step)) for hops in paths
                       for step in zip(hops, hops[1:])})
        with mock.patch.object(ingest, "_PATH_BATCH", batch):
            keys = step_edges(PathStore.from_hops(paths))
        assert keys.dtype == np.uint64
        assert unpack_pairs(keys).reshape(-1, 2).tolist() == [list(e) for e in want]

    @pytest.mark.parametrize("batch", [1, 2, 1 << 16])
    def test_self_edge_in_any_batch_rejected(self, batch):
        paths = PathStore.from_hops([(1, 2), (3, 4), (6, 7, 7)])
        with mock.patch.object(ingest, "_PATH_BATCH", batch):
            with pytest.raises(ValueError, match="self-edge in a path"):
                step_edges(paths)

    def test_build_graph_edges_are_the_step_edges(self):
        paths = PathStore.from_hops(p.hops for p in random_paths(random.Random(3)))
        g = build_graph(paths)
        assert edge_pairs(g) == [tuple(e) for e in unpack_pairs(step_edges(paths)).tolist()]


def _slice(store, lo, hi):
    """Paths lo..hi of a store, as a store of their own."""
    o = store.offsets
    return PathStore(store.hops[o[lo]:o[hi]], o[lo:hi + 1] - o[lo])


def _graph_arrays(g):
    return {"nodes": g.nodes, "edges": g.edge_rows, "indptr": g.indptr,
            "indices": g.indices, "edge_of": g.edge_of, "transit": g.transit,
            **{f"vp.{k}": v for k, v in g.vp._asdict().items()}}


class TestGraphSummary:
    @settings(max_examples=300, deadline=None)
    @given(paths=_stores, data=st.data())
    def test_merged_parts_give_the_whole_graph(self, paths, data):
        store = PathStore.from_hops(paths)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(store)), max_size=6)))
        bounds = [0, *cuts, len(store)]
        parts = [GraphSummary.of(_slice(store, lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        # the reader merges as it goes: an earlier merge is a part of a later one
        k = data.draw(st.integers(1, len(parts)))
        merged = GraphSummary.merge([GraphSummary.merge(parts[:k]), *parts[k:]])
        folded = GraphSummary.fold(_slice(store, lo, hi) for lo, hi in zip(bounds, bounds[1:]))
        whole = GraphSummary.of(store)
        for got in (merged, folded):
            # every VP keeps the column where it first arrives
            assert got.vps.tolist() == _arrival_order(parts)
            assert np.array_equal(_sorted_bits(got), _sorted_bits(whole))
            for f in dataclasses.fields(GraphSummary):
                want, value = getattr(whole, f.name), getattr(got, f.name)
                assert value.dtype == want.dtype, f.name
                if f.name not in ("vps", "seen"):
                    assert np.array_equal(value, want), f.name
        got, want = _graph_arrays(build_graph(merged)), _graph_arrays(build_graph(store))
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert np.array_equal(got[name], want[name]), name

    def test_merging_empty_summaries_is_empty(self):
        empty = GraphSummary.of(PathStore.from_hops([]))
        g = build_graph(GraphSummary.merge([empty, empty]))
        assert g.num_nodes == 0 and g.num_edges == 0
        assert GraphSummary.merge([empty]).nbytes == 0

    def test_file_summary_builds_the_stores_graph(self, tmp_path):
        paths = [p.hops for p in random_paths(random.Random(5), n_paths=200)]
        src = tmp_path / "paths.txt"
        src.write_text("".join("|".join(map(str, h)) + "\n" for h in paths))
        summary, report = ingest.ingest_file(src, None, GraphSummary)
        store, again = ingest.ingest_file(src)
        assert report == again and report.accepted == len(paths)
        got, want = _graph_arrays(build_graph(summary)), _graph_arrays(build_graph(store))
        assert all(np.array_equal(got[k], want[k]) for k in want)


def _arrival_order(parts):
    """The VPs of ``parts`` in the order they first appear."""
    order = []
    for part in parts:
        order += [vp for vp in part.vps.tolist() if vp not in order]
    return order


def _sorted_bits(summary):
    """A summary's (node, VP) bits as a 0/1 matrix, its columns in sorted
    VP order; the padding bits of each row must be zero."""
    bits = np.unpackbits(summary.seen, axis=1)
    assert summary.seen.shape == (len(summary.nodes), -(-len(summary.vps) // 8))
    assert not bits[:, len(summary.vps):].any()
    return bits[:, np.argsort(summary.vps)]


def _vp_paths(layout, n_vps=75, per_vp=4, seed=9):
    """Paths from ``n_vps`` VPs over ASNs 1..40.  "grouped": each VP's
    paths together, the VPs in a shuffled order, so a later part brings
    VPs the earlier ones lack; "cyclic": every run of ``n_vps`` paths has
    every VP.  Two extra paths put ASN 500 under the VPs of columns 7 and
    8, whose bits sit in different bytes."""
    rng = random.Random(seed)
    vps = [1000 + k for k in range(n_vps)]
    order = rng.sample(vps, n_vps)
    if layout == "grouped":
        starts = [vp for vp in order for _ in range(per_vp)]
    else:
        starts = [vp for _ in range(per_vp) for vp in order]
    paths = [(vp, *rng.sample(range(1, 41), rng.randint(1, 5))) for vp in starts]
    return [(vps[7], 500), *paths, (vps[8], 500)]


def _brute_bits(paths):
    """The (node, VP) sightings of ``paths`` as a dense 0/1 matrix over
    the sorted ASNs and the sorted VPs."""
    nodes = sorted({h for p in paths for h in p})
    vps = sorted({p[0] for p in paths})
    dense = np.zeros((len(nodes), len(vps)), dtype=np.uint8)
    for p in paths:
        for h in p:
            dense[nodes.index(h), vps.index(p[0])] = 1
    return nodes, vps, dense


class TestVantagePointBits:
    @pytest.mark.parametrize("layout", ["grouped", "cyclic"])
    # two samples of paths and VP orders, so merges move different columns
    @pytest.mark.parametrize("seed", [3, 1 << 12])
    def test_bits_and_observers_match_brute_force(self, layout, seed):
        paths = _vp_paths(layout, seed=seed)
        store = PathStore.from_hops(paths)
        nodes, vps, dense = _brute_bits(paths)
        bounds = [0, 1, 40, 41, 150, 299, len(store)]
        stores = [_slice(store, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        parts = [GraphSummary.of(s) for s in stores]
        summaries = [GraphSummary.of(store), GraphSummary.fold(stores),
                     GraphSummary.merge(parts), GraphSummary.merge(parts[::-1]),
                     GraphSummary.merge([GraphSummary.merge(parts[3:]), *parts[:3]])]
        assert summaries[0].vps.tolist() == vps
        for summary in summaries:
            assert summary.nodes.tolist() == nodes and sorted(summary.vps.tolist()) == vps
            assert np.array_equal(_sorted_bits(summary), dense)
            observers = build_graph(summary).vp.observers
            assert observers.tolist() == dense.sum(axis=1).tolist()
        assert observers[nodes.index(500)] == 2

    def test_merge_keeps_the_first_parts_columns_leading(self):
        paths = _vp_paths("grouped")
        nodes, vps, dense = _brute_bits(paths)
        store = PathStore.from_hops(paths)
        head, tail = (GraphSummary.of(_slice(store, lo, hi))
                      for lo, hi in ((0, 150), (150, len(store))))
        merged = GraphSummary.merge([head, tail])
        k = len(head.vps)
        assert 0 < k < len(merged.vps)
        assert merged.vps[:k].tolist() == head.vps.tolist()
        assert merged.vps[k:].tolist() == [v for v in tail.vps.tolist() if v not in head.vps]
        bits = np.unpackbits(merged.seen, axis=1)[:, :len(vps)]
        assert np.array_equal(bits, dense[:, [vps.index(v) for v in merged.vps.tolist()]])

    def test_a_part_without_paths_adds_nothing(self):
        paths = _vp_paths("grouped", n_vps=9)
        empty = GraphSummary.of(PathStore.from_hops([]))
        whole = GraphSummary.of(PathStore.from_hops(paths))
        for merged in (GraphSummary.merge([empty, whole]), GraphSummary.merge([whole, empty])):
            for f in dataclasses.fields(GraphSummary):
                assert np.array_equal(getattr(merged, f.name), getattr(whole, f.name)), f.name


class TestPositions:
    def test_rows_follow_sorted_asns(self):
        g = graph_of(paths_of([30, 10, 20], [40, 10]))
        assert g.nodes.tolist() == [10, 20, 30, 40]
        got = g.positions(np.array([[40, 10], [20, 30]]))
        assert got.tolist() == [[3, 0], [1, 2]]
        assert int(g.positions(30)) == 2
        assert g.positions([]).shape == (0,)

    def test_unknown_asn_named(self):
        g = graph_of(paths_of([1, 2, 3]))
        with pytest.raises(UnknownNodeError, match="AS7 "):
            g.positions([[1, 2], [7, 9]])
        with pytest.raises(UnknownNodeError, match="AS99 "):
            g.positions([1, 99])
        with pytest.raises(UnknownNodeError):
            AsGraph.from_edges([]).positions([1])

    def test_edge_positions_match_edges(self):
        rng = random.Random(7)
        g = graph_of(random_paths(rng))
        edges = edge_pairs(g)
        assert edges == sorted({canonical_edge(a, b) for a, b in edges})
        assert np.array_equal(g.positions(np.array(edges)), g.edge_rows)

    def test_edge_matrix_has_adjacency_structure(self):
        g = graph_of(paths_of([1, 2, 3], [2, 4]))  # edges (1,2) (2,3) (2,4)
        m = g.edge_matrix([0.0, 0.5, 0.25])
        adj = g.adjacency()
        assert len(m.data) == len(adj.data) == 6  # the zero weight stays stored
        assert np.array_equal(m.indices, adj.indices)
        assert np.array_equal(m.indptr, adj.indptr)
        dense = as_scipy(m).toarray()
        assert np.array_equal(dense, dense.T)
        assert dense[1, 2] == 0.5 and dense[3, 1] == 0.25


class TestTransitDegree:
    def test_four_hop_path(self):
        # middle hops each transit two neighbors, endpoints none
        g = graph_of(paths_of([1, 2, 3, 4]))
        assert g.transit[g.positions(1)] == 0
        assert g.transit[g.positions(2)] == 2
        assert g.transit[g.positions(3)] == 2
        assert g.transit[g.positions(4)] == 0

    def test_stub_stays_zero(self):
        g = graph_of(paths_of([1, 2, 5], [3, 2, 5], [4, 2, 5]))
        assert g.transit[g.positions(5)] == 0
        assert g.transit[g.positions(2)] == 4  # {1,3,4,5}

    def test_transit_never_exceeds_degree(self):
        rng = random.Random(11)
        for trial in range(20):
            g = graph_of(random_paths(rng))
            assert (g.transit <= g.degrees()).all()

    def test_matches_triplet_enumeration(self):
        rng = random.Random(23)
        paths = random_paths(rng, n_nodes=20, n_paths=40)
        g = graph_of(paths)
        expected = {a: set() for a in g.nodes.tolist()}
        for p in paths:
            for x, m, y in zip(p.hops, p.hops[1:], p.hops[2:]):
                expected[m].update((x, y))
        for a in g.nodes.tolist():
            assert g.transit[g.positions(a)] == len(expected[a])


class TestClique:
    def test_complete_graph_all_join(self):
        # every 3-permutation as a path: K4 with equal transit degrees
        paths = paths_of(*itertools.permutations([1, 2, 3, 4], 3))
        g = graph_of(paths)
        assert len(set(g.transit[g.positions([1, 2, 3, 4])].tolist())) == 1
        assert infer_clique(g) == {1, 2, 3, 4}

    def test_star_keeps_center_only(self):
        g = graph_of(paths_of([1, 9, 2], [2, 9, 3], [3, 9, 4], [4, 9, 1]))
        assert infer_clique(g) == {9}

    def test_members_pairwise_adjacent(self):
        rng = random.Random(3)
        for trial in range(10):
            g = graph_of(random_paths(rng, n_nodes=15, n_paths=30))
            clique = infer_clique(g, k_candidates=8)
            assert clique
            for a, b in itertools.combinations(clique, 2):
                assert adjacent(g, a, b)

    def test_candidate_budget_respected(self):
        paths = paths_of(*itertools.permutations([1, 2, 3, 4, 5], 3))
        g = graph_of(paths)
        assert infer_clique(g, k_candidates=2) <= {1, 2, 3, 4, 5}
        assert len(infer_clique(g, k_candidates=2)) == 2

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            infer_clique(AsGraph.from_edges([]))


class TestDistToClique:
    def test_self_membership_is_zero(self):
        g = graph_of(paths_of([1, 2, 3]))
        means, _ = clique_distances(g, {2})
        assert means[g.positions(2)] == 0.0

    def test_mean_over_members(self):
        g = graph_of(paths_of([1, 2, 3, 4]))
        # node 1: dist 1 to AS2, dist 2 to AS3
        means, _ = clique_distances(g, {2, 3})
        assert means[g.positions(1)] == pytest.approx(1.5)

    def test_unreachable_uses_longest_distance_plus_one(self):
        g = graph_of(paths_of([1, 2, 3], [7, 8]))
        # the longest finite member distance is 1 (AS2 to AS1 or AS3, AS7
        # to AS8), so a missing path counts 2 hops; the graph's diameter,
        # 2, plays no part
        means, unreachable = clique_distances(g, {2, 7})
        assert means.tolist() == [(1 + 2) / 2, (0 + 2) / 2, (1 + 2) / 2,
                                  (2 + 0) / 2, (2 + 1) / 2]
        # 1, 2 and 3 cannot reach AS7; 7 and 8 cannot reach AS2
        assert unreachable == 5

    def test_matches_networkx(self):
        rng = random.Random(37)
        # plus a second component, so some pairs have no path
        paths = random_paths(rng, n_nodes=16, n_paths=14) + paths_of([101, 102, 103])
        g = graph_of(paths)
        clique = infer_clique(g, k_candidates=4)
        nxg = nx_graph(paths)
        from_member = {m: nx.single_source_shortest_path_length(nxg, m) for m in clique}
        fill = 1 + max(max(d.values()) for d in from_member.values())
        assert any(len(d) < g.num_nodes for d in from_member.values())
        means, _ = clique_distances(g, clique)
        for a, got in zip(g.nodes.tolist(), means):
            total = sum(from_member[m].get(a, fill) for m in clique)
            assert got == pytest.approx(total / len(clique), abs=1e-12)


def set_cnr(edges):
    """The common-neighbour ratio of every edge in ``edges`` order, by
    set algebra over one Python set per node: the reference for
    ``cnr_edge_weights``."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ratios = []
    for a, b in edges:
        shared = len(adj[a] & adj[b])
        union = len(adj[a]) + len(adj[b]) - 2 - shared
        ratios.append(shared / union if union else 0.0)
    return np.array(ratios)


@st.composite
def cnr_graphs(draw):
    """A random edge list plus a leaf, a twin AS50 (joined to some node
    v and to all of v's neighbours, so edge (v, 50) shares every
    neighbour) and a lone edge whose endpoints both have degree 1;
    returns the sorted edges and v."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=30))
    edges = {canonical_edge(a, b) for a, b in pairs if a != b}
    nodes = sorted({a for e in edges for a in e})
    v = None
    if nodes:
        edges.add((draw(st.sampled_from(nodes)), 60))
        v = draw(st.sampled_from(nodes))
        edges |= {(v, 50)} | {(w, 50) for e in edges if v in e for w in e if w != v}
    edges.add((70, 71))
    return sorted(edges), v


class TestCommonNeighborRatio:
    def test_triangle(self):
        g = graph_of(paths_of([1, 2, 3], [2, 3, 1]))  # triangle: edges 12,23,31
        assert weight(g, 1, 2) == pytest.approx(1.0)

    def test_chain_has_no_overlap(self):
        g = graph_of(paths_of([1, 2, 3]))
        assert weight(g, 1, 2) == 0.0

    def test_isolated_pair_defined_as_zero(self):
        w = cnr_edge_weights(graph_of(paths_of([4, 5])))
        # stored as an explicit zero, so the propagation floor still applies
        assert len(w.data) == 2 and np.all(w.data == 0.0)

    def test_symmetry_and_range(self):
        rng = random.Random(41)
        g = graph_of(random_paths(rng))
        w = as_scipy(cnr_edge_weights(g))
        assert np.array_equal(w.toarray(), w.T.toarray())
        assert w.data.min() >= 0.0 and w.data.max() <= 1.0

    def test_non_edge_rejected(self):
        """A non-edge has no stored weight: the matrix has the graph's
        own structure."""
        g = graph_of(paths_of([1, 2, 3]))
        w = cnr_edge_weights(g)
        assert len(w.data) == 2 * g.num_edges
        i, j = g.positions([1, 3])
        assert j not in w.indices[w.indptr[i]:w.indptr[i + 1]]

    def test_matches_set_algebra(self):
        rng = random.Random(43)
        paths = random_paths(rng, n_nodes=14, n_paths=30)
        g = graph_of(paths)
        adj = {}
        for p in paths:
            for a, b in zip(p.hops, p.hops[1:]):
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
        w = as_scipy(cnr_edge_weights(g))
        for (a, b), (i, j) in zip(edge_pairs(g), g.edge_rows.tolist()):
            na = adj[a] - {a, b}
            nb = adj[b] - {a, b}
            want = len(na & nb) / len(na | nb) if (na | nb) else 0.0
            assert w[i, j] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(cnr_graphs(), st.sampled_from([1, 3, 1 << 16]))
    def test_matches_set_formula(self, drawn, lookups):
        edges, v = drawn
        g = AsGraph.from_edges(edges)
        want = g.edge_matrix(set_cnr(edge_pairs(g)))
        # edges taken a few neighbour lookups at a time give the same bits
        with mock.patch.object(topology, "_CNR_LOOKUPS", lookups):
            got = cnr_edge_weights(g)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        got = as_scipy(got)
        i, j = g.positions([70, 71])
        assert got[i, j] == 0.0
        if v is not None and g.degrees()[g.positions(v)] > 1:
            i, j = g.positions([v, 50])
            assert got[i, j] == 1.0


def random_csr(rng, n_rows, n_cols, dtype):
    """Rows of sorted distinct columns: a few empty, the first of 90
    entries, with negative values and zeros among the stored ones, and
    row 1 a single -1.0 in column 0."""
    lengths = rng.integers(0, 8, size=n_rows)
    lengths[[0, 1]] = [90, 1]
    lengths[rng.choice(np.arange(2, n_rows), size=3, replace=False)] = 0
    indices = [np.sort(rng.choice(n_cols, size=k, replace=False)) for k in lengths]
    indices[1] = np.array([0])
    data = rng.normal(size=lengths.sum()).astype(dtype)
    data[rng.random(len(data)) < 0.1] = 0.0
    data[lengths[0]] = -1.0
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return Csr.of(data, np.concatenate(indices), indptr)


class TestCsr:
    """``Csr``'s numpy operations against scipy's on the same arrays."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_product_is_scipys_bit_for_bit(self, dtype, seed):
        rng = np.random.default_rng(seed)
        m = random_csr(rng, 60, 120, dtype)
        x = rng.normal(size=(120, 7)).astype(dtype)
        x[0] = 0.0  # row 1's only term is -1.0 * 0.0, summed from +0.0
        x[rng.random(120) < 0.1] = -0.0
        view = sp.csr_matrix(tuple(m), shape=(60, 120))
        for rhs in (x, x[:, 3]):
            got, want = m @ rhs, view @ rhs
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert not np.signbit((m @ x)[1]).any()

    def test_float32_matrix_times_float64_features_is_float64(self):
        rng = np.random.default_rng(9)
        m = random_csr(rng, 20, 100, np.float32)
        x = rng.normal(size=(100, 3))
        got = m @ x
        assert got.dtype == np.float64
        assert got.tobytes() == (sp.csr_matrix(tuple(m), shape=(20, 100)) @ x).tobytes()

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_product_with_an_operand_without_rows_is_scipys(self, n_rows):
        """A matrix that stores no entry, over no column, times a (0, k)
        operand or a (0,) vector: all zeros, one row per matrix row."""
        m = Csr.of(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(n_rows + 1, dtype=np.int64))
        view = sp.csr_matrix(tuple(m), shape=(n_rows, 0))
        for rhs in (np.zeros((0, 4)), np.zeros(0)):
            got, want = m @ rhs, view @ rhs
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_astype_shares_the_index_arrays(self):
        m = random_csr(np.random.default_rng(3), 10, 100, np.float64)
        assert m.astype(np.float64, copy=False) is m
        cast = m.astype(np.float32)
        assert cast.data.dtype == np.float32 and cast.indices is m.indices
        assert np.array_equal(cast.data, m.data.astype(np.float32))


class TestVpStats:
    """The VP feature columns: mean/min/max hop distance from the VPs that
    saw a node, and how many distinct VPs did."""

    def test_distances_by_hop_position(self):
        g = graph_of(paths_of([1, 2, 3]))
        assert vp_columns(g, 3) == (2.0, 2, 2, 1)

    def test_vp_observes_itself_at_zero(self):
        g = graph_of(paths_of([1, 2], [1, 3]))
        assert vp_columns(g, 1) == (0.0, 0, 0, 1)

    def test_multiple_vantage_points(self):
        g = graph_of(paths_of([1, 2, 3], [9, 3]))
        mean, low, high, observers = vp_columns(g, 3)
        assert observers == 2
        assert mean == pytest.approx(1.5)
        assert (low, high) == (1, 2)

    def test_unobserved_node_flagged(self):
        g = AsGraph.from_edges([(1, 2)])
        assert vp_columns(g, 1) == (0.0, 0, 0, 0)
        fm = assemble_features(g, {1})
        assert fm.diagnostics["unobserved_nodes"] == 2

    def test_matches_path_rescan(self):
        rng = random.Random(53)
        paths = random_paths(rng, n_nodes=12, n_paths=25)
        g = graph_of(paths)
        for a in g.nodes.tolist():
            dists = [i for p in paths for i, h in enumerate(p.hops) if h == a]
            vps = {p.vp for p in paths if a in p.hops}
            mean, low, high, observers = vp_columns(g, a)
            assert mean == pytest.approx(sum(dists) / len(dists), abs=1e-12)
            assert (low, high, observers) == (min(dists), max(dists), len(vps))


class TestHierarchy:
    def tier(self, g, clique, a):
        fm = assemble_features(g, clique)
        hot = fm.values[g.positions(a), len(SCALAR_COLUMNS):][:len(HIERARCHY_COLUMNS)]
        return HIERARCHY_COLUMNS[int(np.flatnonzero(hot)[0])]

    def test_three_way_partition(self):
        g = graph_of(paths_of([1, 2, 3]))
        clique = {2}
        assert self.tier(g, clique, 2) == "hierarchy_nucleus"
        assert self.tier(g, clique, 1) == "hierarchy_shell"  # transits nothing
        g2 = graph_of(paths_of([1, 2, 3, 4]))
        assert self.tier(g2, {2}, 3) == "hierarchy_middle"


class TestFeatureMatrix:
    def build(self):
        rng = random.Random(61)
        paths = random_paths(rng, n_nodes=20, n_paths=30)
        g = graph_of(paths)
        clique = infer_clique(g, k_candidates=5)
        return g, clique, assemble_features(g, clique)

    def test_shape_and_order(self):
        g, _, fm = self.build()
        assert fm.values.shape == (g.num_nodes, 14)
        assert fm.columns == FEATURE_COLUMNS
        assert fm.nodes.tolist() == g.nodes.tolist() == sorted(fm.nodes.tolist())
        assert g.positions(fm.nodes).tolist() == list(range(g.num_nodes))

    def test_entries_in_unit_interval(self):
        _, _, fm = self.build()
        assert fm.values.min() >= 0.0
        assert fm.values.max() <= 1.0

    def test_scalar_columns_hit_bounds(self):
        _, _, fm = self.build()
        for c in range(7):
            col = fm.values[:, c]
            raw = fm.raw[:, c]
            if raw.max() > raw.min():
                assert col.min() == 0.0 and col.max() == 1.0
            else:
                assert np.all(col == 0.0)

    def test_constant_column_maps_to_zero(self):
        g = graph_of(paths_of([1, 2], [2, 1]))
        fm = assemble_features(g, {1})
        # both nodes have degree 1: constant scalar column collapses to 0
        assert np.all(fm.values[:, 0] == 0.0)

    def test_one_hot_groups_sum_to_one(self):
        _, _, fm = self.build()
        assert np.all(fm.values[:, 7:10].sum(axis=1) == 1.0)
        assert np.all(fm.values[:, 10:14].sum(axis=1) == 1.0)

    def test_type_defaults_to_unknown(self):
        g = graph_of(paths_of([1, 2, 3]))
        # AS8 is not in the graph and is ignored
        fm = assemble_features(g, {2}, type_map={8: AsType.ENTERPRISE,
                                                 1: AsType.CONTENT})
        unknown_col = fm.columns.index("type_unknown")
        content_col = fm.columns.index("type_content")
        assert fm.values[g.positions(1), content_col] == 1.0
        assert fm.values[g.positions(2), unknown_col] == 1.0
        assert fm.values[g.positions(3), unknown_col] == 1.0
        assert fm.values[:, fm.columns.index("type_enterprise")].sum() == 0.0

    def test_nucleus_marks_clique(self):
        g, clique, fm = self.build()
        col = fm.columns.index("hierarchy_nucleus")
        for a, row in zip(fm.nodes.tolist(), fm.values):
            assert row[col] == (1.0 if a in clique else 0.0)

    def test_csv_roundtrip_header(self, tmp_path):
        _, _, fm = self.build()
        out = tmp_path / "features.csv"
        write_features_csv(fm, out)
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["asn"] + FEATURE_COLUMNS
        assert len(out.read_text().splitlines()) == len(fm.nodes) + 1


class TestTypeMapFile:
    def test_load_with_header(self, tmp_path):
        f = tmp_path / "types.csv"
        f.write_text("asn,type\n10,content\n20,transit_access\n")
        m = load_type_map(f)
        assert m == {10: AsType.CONTENT, 20: AsType.TRANSIT_ACCESS}

    def test_headerless_file(self, tmp_path):
        f = tmp_path / "types.csv"
        f.write_text("10,content\n")
        assert load_type_map(f) == {10: AsType.CONTENT}

    @pytest.mark.parametrize("header", ["ASN,type", " Asn ,kind"])
    def test_header_is_recognised_by_its_text(self, tmp_path, header):
        f = tmp_path / "types.csv"
        f.write_text(f"{header}\n10,content\n")
        assert load_type_map(f) == {10: AsType.CONTENT}

    @pytest.mark.parametrize("first", ["+7,content", "type,asn", "AS7,content"])
    def test_first_line_that_is_no_header_is_data(self, tmp_path, first):
        f = tmp_path / "types.csv"
        f.write_text(f"{first}\n10,content\n")
        with pytest.raises(ValueError, match="line 1: ASN out of range or malformed"):
            load_type_map(f)

    @pytest.mark.parametrize("asn", ["0", "4294967296", "99999999999999999999"])
    def test_out_of_range_asn_rejected(self, tmp_path, asn):
        f = tmp_path / "types.csv"
        f.write_text(f"asn,type\n10,content\n{asn},content\n")
        with pytest.raises(ValueError, match="line 3: ASN out of range"):
            load_type_map(f)

    def test_unknown_label_rejected(self, tmp_path):
        f = tmp_path / "types.csv"
        f.write_text("10,router\n")
        with pytest.raises(ValueError, match="unknown type"):
            load_type_map(f)


class TestDistances:
    def components(self, rng):
        """A random graph of several components, as an edge list."""
        edges = []
        base = 1
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(1, 12)
            nodes = list(range(base, base + size))
            for a, b in zip(nodes, nodes[1:]):
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
            for _ in range(rng.randint(0, size)):
                a, b = rng.sample(nodes, 2) if size > 1 else (base, base)
                if a != b:
                    edges.append((a, b))
            base += size
        return edges, list(range(1, base))

    def test_bfs_matches_networkx(self):
        rng = random.Random(73)
        edges, nodes = self.components(rng)
        g = AsGraph.from_edges(edges, nodes=nodes)
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(nodes)
        for a in nodes:
            # a one-member clique: its distance row is a BFS from that member
            dist, _ = clique_distances(g, {a})
            want = nx.single_source_shortest_path_length(nxg, a)
            got = {b: d for b, d in zip(g.nodes.tolist(), dist.tolist()) if b in want}
            assert got == want

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 6))
    def test_clique_distances_match_networkx(self, rng, k):
        """Several components and several members: an unreachable
        (node, member) pair reads inf, then counts one hop more than
        the longest finite distance; the means are exact."""
        edges, nodes = self.components(rng)
        g = AsGraph.from_edges(edges, nodes=nodes)
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(nodes)
        clique = sorted(rng.sample(nodes, min(k, len(nodes))))
        lengths = [nx.single_source_shortest_path_length(nxg, m) for m in clique]
        dist = np.array([[d.get(a, np.inf) for a in g.nodes.tolist()] for d in lengths])
        missing = np.isinf(dist)
        dist[missing] = dist[~missing].max() + 1
        means, unreachable = clique_distances(g, set(clique))
        assert unreachable == missing.sum()
        assert means.tolist() == (dist.sum(axis=0) / len(clique)).tolist()
