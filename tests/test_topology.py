import itertools
import random

import networkx as nx
import numpy as np
import pytest

from bgprel.ingest import AsPath, PathStore, ingest_lines
from bgprel.topology import (
    FEATURE_COLUMNS,
    AsGraph,
    AsType,
    Hierarchy,
    NonEdgeError,
    UnknownNodeError,
    assemble_features,
    build_graph,
    canonical_edge,
    clique_distances,
    cnr_edge_weights,
    common_neighbor_ratio,
    hierarchy_class,
    infer_clique,
    load_type_map,
    vp_stats,
    write_features_csv,
)


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


def nx_graph(paths):
    g = nx.Graph()
    for p in paths:
        g.add_nodes_from(p.hops)
        g.add_edges_from(zip(p.hops, p.hops[1:]))
    return g


class TestBuildGraph:
    def test_edges_from_consecutive_pairs(self):
        g = graph_of(paths_of([1, 2, 3], [2, 4]))
        assert g.nodes == {1, 2, 3, 4}
        assert g.edges() == [(1, 2), (2, 3), (2, 4)]
        assert g.has_edge(2, 1) and not g.has_edge(1, 3)

    def test_empty_input(self):
        g = graph_of([])
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_edge_multiset_independent_of_path_order(self):
        rng = random.Random(5)
        paths = random_paths(rng)
        g1 = graph_of(paths)
        g2 = graph_of(list(reversed(paths)))
        assert g1.edges() == g2.edges()
        for a in g1.sorted_nodes():
            assert g1.transit_degree(a) == g2.transit_degree(a)
            assert vp_stats(g1, a) == vp_stats(g2, a)

    def test_vp_observers_recorded(self):
        g = graph_of(paths_of([1, 2, 3], [9, 2, 3]))
        assert vp_stats(g, 3).assign_vp == 2
        assert vp_stats(g, 1).assign_vp == 1
        assert vp_stats(g, 9).assign_vp == 1

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            AsGraph.from_edges([(5, 5)])
        with pytest.raises(ValueError):
            graph_of([(1, 5, 5)])

    def test_unknown_node_queries_raise(self):
        g = graph_of(paths_of([1, 2]))
        with pytest.raises(UnknownNodeError):
            g.degree(99)
        with pytest.raises(UnknownNodeError):
            g.transit_degree(99)


class TestTransitDegree:
    def test_four_hop_path(self):
        # middle hops each transit two neighbors, endpoints none
        g = graph_of(paths_of([1, 2, 3, 4]))
        assert g.transit_degree(1) == 0
        assert g.transit_degree(2) == 2
        assert g.transit_degree(3) == 2
        assert g.transit_degree(4) == 0

    def test_stub_stays_zero(self):
        g = graph_of(paths_of([1, 2, 5], [3, 2, 5], [4, 2, 5]))
        assert g.transit_degree(5) == 0
        assert g.transit_degree(2) == 4  # {1,3,4,5}

    def test_transit_never_exceeds_degree(self):
        rng = random.Random(11)
        for trial in range(20):
            g = graph_of(random_paths(rng))
            for a in g.nodes:
                assert g.transit_degree(a) <= g.degree(a)

    def test_matches_triplet_enumeration(self):
        rng = random.Random(23)
        paths = random_paths(rng, n_nodes=20, n_paths=40)
        g = graph_of(paths)
        expected = {a: set() for a in g.nodes}
        for p in paths:
            for x, m, y in zip(p.hops, p.hops[1:], p.hops[2:]):
                expected[m].update((x, y))
        for a in g.nodes:
            assert g.transit_degree(a) == len(expected[a])


class TestClique:
    def test_complete_graph_all_join(self):
        # every 3-permutation as a path: K4 with equal transit degrees
        paths = paths_of(*itertools.permutations([1, 2, 3, 4], 3))
        g = graph_of(paths)
        assert len({g.transit_degree(a) for a in [1, 2, 3, 4]}) == 1
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
                assert g.has_edge(a, b)

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
        assert means[2] == 0.0

    def test_mean_over_members(self):
        g = graph_of(paths_of([1, 2, 3, 4]))
        # node 1: dist 1 to AS2, dist 2 to AS3
        means, _ = clique_distances(g, {2, 3})
        assert means[1] == pytest.approx(1.5)

    def test_unreachable_uses_diameter_plus_one(self):
        g = graph_of(paths_of([1, 2, 3], [7, 8]))
        # diameter of the whole observed graph is 2 (1..3 chain)
        means, unreachable = clique_distances(g, {2, 7})
        assert means[1] == pytest.approx((1 + 3) / 2)
        # 1, 2 and 3 cannot reach AS7; 7 and 8 cannot reach AS2
        assert unreachable == 5

    def test_matches_networkx(self):
        rng = random.Random(37)
        paths = random_paths(rng, n_nodes=16, n_paths=14)
        g = graph_of(paths)
        clique = infer_clique(g, k_candidates=4)
        nxg = nx_graph(paths)
        diam = max(
            max(d.values()) for _, d in nx.all_pairs_shortest_path_length(nxg)
        )
        means, _ = clique_distances(g, clique)
        for a in g.nodes:
            total = 0
            for m in clique:
                try:
                    total += nx.shortest_path_length(nxg, a, m)
                except nx.NetworkXNoPath:
                    total += diam + 1
            assert means[a] == pytest.approx(total / len(clique), abs=1e-12)


class TestCommonNeighborRatio:
    def test_triangle(self):
        g = graph_of(paths_of([1, 2, 3], [2, 3, 1]))  # triangle: edges 12,23,31
        assert common_neighbor_ratio(g, 1, 2) == pytest.approx(1.0)

    def test_chain_has_no_overlap(self):
        g = graph_of(paths_of([1, 2, 3]))
        assert common_neighbor_ratio(g, 1, 2) == 0.0

    def test_isolated_pair_defined_as_zero(self):
        g = graph_of(paths_of([4, 5]))
        assert common_neighbor_ratio(g, 4, 5) == 0.0

    def test_symmetry_and_range(self):
        rng = random.Random(41)
        g = graph_of(random_paths(rng))
        for a, b in g.edges():
            r = common_neighbor_ratio(g, a, b)
            assert r == common_neighbor_ratio(g, b, a)
            assert 0.0 <= r <= 1.0

    def test_non_edge_rejected(self):
        g = graph_of(paths_of([1, 2, 3]))
        with pytest.raises(NonEdgeError):
            common_neighbor_ratio(g, 1, 3)

    def test_matches_set_algebra(self):
        rng = random.Random(43)
        paths = random_paths(rng, n_nodes=14, n_paths=30)
        g = graph_of(paths)
        adj = {}
        for p in paths:
            for a, b in zip(p.hops, p.hops[1:]):
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
        for (a, b), w in cnr_edge_weights(g).items():
            na = adj[a] - {a, b}
            nb = adj[b] - {a, b}
            want = len(na & nb) / len(na | nb) if (na | nb) else 0.0
            assert w == pytest.approx(want, abs=1e-12)


class TestVpStats:
    def test_distances_by_hop_position(self):
        g = graph_of(paths_of([1, 2, 3]))
        s = vp_stats(g, 3)
        assert (s.mean, s.min, s.max, s.assign_vp) == (2.0, 2, 2, 1)

    def test_vp_observes_itself_at_zero(self):
        g = graph_of(paths_of([1, 2], [1, 3]))
        s = vp_stats(g, 1)
        assert (s.mean, s.min, s.max, s.assign_vp) == (0.0, 0, 0, 1)

    def test_multiple_vantage_points(self):
        g = graph_of(paths_of([1, 2, 3], [9, 3]))
        s = vp_stats(g, 3)
        assert s.assign_vp == 2
        assert s.mean == pytest.approx(1.5)
        assert (s.min, s.max) == (1, 2)

    def test_unobserved_node_flagged(self):
        g = AsGraph.from_edges([(1, 2)])
        s = vp_stats(g, 1)
        assert not s.observed
        assert s == (0.0, 0, 0, 0, False)

    def test_matches_path_rescan(self):
        rng = random.Random(53)
        paths = random_paths(rng, n_nodes=12, n_paths=25)
        g = graph_of(paths)
        for a in g.nodes:
            dists = [i for p in paths for i, h in enumerate(p.hops) if h == a]
            vps = {p.vp for p in paths if a in p.hops}
            s = vp_stats(g, a)
            assert s.mean == pytest.approx(sum(dists) / len(dists), abs=1e-12)
            assert (s.min, s.max, s.assign_vp) == (min(dists), max(dists), len(vps))


class TestHierarchy:
    def test_three_way_partition(self):
        g = graph_of(paths_of([1, 2, 3]))
        clique = {2}
        assert hierarchy_class(g, clique, 2) is Hierarchy.NUCLEUS
        assert hierarchy_class(g, clique, 1) is Hierarchy.SHELL  # transits nothing
        g2 = graph_of(paths_of([1, 2, 3, 4]))
        assert hierarchy_class(g2, {2}, 3) is Hierarchy.MIDDLE


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
        assert fm.nodes == sorted(fm.nodes)
        assert all(fm.nodes[fm.index[a]] == a for a in fm.nodes)

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
        fm = assemble_features(g, {2}, type_map={1: AsType.CONTENT})
        unknown_col = fm.columns.index("type_unknown")
        content_col = fm.columns.index("type_content")
        assert fm.values[fm.index[1], content_col] == 1.0
        assert fm.values[fm.index[2], unknown_col] == 1.0
        assert fm.values[fm.index[3], unknown_col] == 1.0

    def test_nucleus_marks_clique(self):
        g, clique, fm = self.build()
        col = fm.columns.index("hierarchy_nucleus")
        for a in fm.nodes:
            assert fm.values[fm.index[a], col] == (1.0 if a in clique else 0.0)

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

    def test_diameter_is_largest_component_diameter(self):
        rng = random.Random(71)
        for _ in range(30):
            edges, nodes = self.components(rng)
            g = AsGraph.from_edges(edges, nodes=nodes)
            nxg = nx.Graph(edges)
            nxg.add_nodes_from(nodes)
            want = max(nx.diameter(nxg.subgraph(c)) for c in nx.connected_components(nxg))
            assert g.diameter() == want

    def test_bfs_matches_networkx(self):
        rng = random.Random(73)
        edges, nodes = self.components(rng)
        g = AsGraph.from_edges(edges, nodes=nodes)
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(nodes)
        for a in nodes:
            assert g.bfs_distances(a) == nx.single_source_shortest_path_length(nxg, a)

    def test_single_node_diameter_is_zero(self):
        assert AsGraph.from_edges([], nodes=[5]).diameter() == 0
