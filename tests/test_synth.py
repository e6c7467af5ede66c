import networkx as nx
import pytest

from bgprel.dataset import LabelTable, RelLabel
from bgprel.ingest import ingest_file
from bgprel.synth import (
    GroundTruth,
    SimulationStats,
    SynthConfig,
    export,
    generate,
    is_valley_free,
    observed_edges,
    p2c_is_acyclic,
    simulate_paths,
)
from bgprel.topology import canonical_edge, infer_clique

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
    _, t1 = generate(SMALL)
    _, t2 = generate(SMALL)
    assert t1.labels == t2.labels
    assert t1.providers == t2.providers
    assert t1.org == t2.org
    assert t1.types == t2.types


def test_tier1_full_mesh():
    _, truth = generate(SMALL)
    tier1 = [a for a, t in truth.tier.items() if t == "tier1"]
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            label, _ = truth.edge_label(a, b)
            assert label is RelLabel.P2P


def test_every_node_in_graph():
    graph, truth = generate(SMALL)
    assert graph.num_nodes == SMALL.total_nodes
    assert graph.nodes == set(truth.tier)


def test_sibling_edges_stay_inside_orgs():
    _, truth = generate(SMALL)
    for (a, b), label in truth.labels.items():
        if label is RelLabel.S2S:
            assert truth.org[a] == truth.org[b]


def test_same_org_same_type():
    _, truth = generate(SMALL)
    by_org = {}
    for a, org_id in truth.org.items():
        by_org.setdefault(org_id, set()).add(truth.types[a])
    for members_types in by_org.values():
        assert len(members_types) == 1


def test_x2x_edges_touch_exactly_one_ixp():
    _, truth = generate(SMALL)
    for (a, b), label in truth.labels.items():
        touches = (a in truth.ixps) + (b in truth.ixps)
        if label is RelLabel.X2X:
            assert touches == 1
        else:
            assert touches == 0


def test_p2c_acyclic_matches_networkx():
    for seed in range(6):
        cfg = SynthConfig(
            n_tier1=3, n_mid=20, n_stub=30, n_ixp=2, n_orgs=5,
            n_vps=5, paths_per_vp=10, seed=seed,
        )
        _, truth = generate(cfg)
        dg = nx.DiGraph(truth.p2c_pairs())
        assert p2c_is_acyclic(truth) == nx.is_directed_acyclic_graph(dg)


def test_p2c_acyclic_flags_a_cycle():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2C, provider=1)
    truth.add(2, 3, RelLabel.P2C, provider=2)
    truth.add(3, 1, RelLabel.P2C, provider=3)
    assert not p2c_is_acyclic(truth)


def test_ground_truth_rejects_duplicate_edge():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2P)
    with pytest.raises(ValueError):
        truth.add(2, 1, RelLabel.P2C, provider=2)


def test_oriented_puts_provider_first():
    truth = GroundTruth()
    truth.add(5, 2, RelLabel.P2C, provider=5)
    assert truth.oriented(2, 5) == (5, 2, RelLabel.P2C)


def test_simulation_deterministic():
    _, truth = generate(SMALL)
    p1, s1 = simulate_paths(truth, SMALL)
    p2, s2 = simulate_paths(truth, SMALL)
    assert [p.hops for p in p1] == [p.hops for p in p2]
    assert s1.vantage_points == s2.vantage_points
    assert s1.emitted == s2.emitted


def test_paths_start_at_vp_and_have_no_repeats():
    _, truth = generate(SMALL)
    paths, stats = simulate_paths(truth, SMALL)
    assert stats.emitted == len(paths)
    vps = set(stats.vantage_points)
    for p in paths:
        assert p.hops[0] in vps
        assert len(set(p.hops)) == len(p.hops)


def test_all_paths_valley_free():
    _, truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    assert paths
    for p in paths:
        assert is_valley_free(p.hops, truth)


def test_paths_never_shorter_than_unconstrained_shortest():
    # policy routing can only lengthen a route, never beat plain BFS
    _, truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    g = nx.Graph(truth.labels.keys())
    for p in paths[:200]:
        floor = nx.shortest_path_length(g, p.hops[0], p.hops[-1])
        assert len(p.hops) - 1 >= floor


def test_valley_free_checker_rejects_a_valley():
    truth = GroundTruth()
    truth.add(1, 2, RelLabel.P2C, provider=1)
    truth.add(2, 3, RelLabel.P2C, provider=3)
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
    truth.add(2, 3, RelLabel.P2C, provider=2)
    truth.add(3, 4, RelLabel.S2S)
    assert is_valley_free((1, 2, 3, 4), truth)


def test_export_files_roundtrip(tmp_path):
    _, truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, n_sources=3, perturbation=0.0, seed=1)

    parsed, report = ingest_file(files["paths"])
    assert report.malformed == 0
    assert [p.hops for p in parsed] == [p.hops for p in paths]

    stored = LabelTable.read_csv(files["truth"])
    assert len(stored) == len(truth.labels)
    for a, b, stored_label, _, _ in stored.rows():
        label, provider = truth.edge_label(a, b)
        assert stored_label is label
        if label is RelLabel.P2C:
            assert a == provider


def test_export_zero_perturbation_sources_identical(tmp_path):
    _, truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, n_sources=3, perturbation=0.0, seed=9)
    texts = {files[f"labels_{s}"].read_text() for s in (1, 2, 3)}
    assert len(texts) == 1


def test_export_sources_cover_observed_edges(tmp_path):
    _, truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, perturbation=0.0, seed=0)
    rows = set()
    for line in files["labels_1"].read_text().splitlines():
        a, b, _ = line.split("|")
        rows.add(canonical_edge(int(a), int(b)))
    assert rows == observed_edges(paths)


def test_export_perturbation_changes_sources(tmp_path):
    _, truth = generate(SMALL)
    paths, _ = simulate_paths(truth, SMALL)
    files = export(truth, paths, tmp_path, n_sources=2, perturbation=0.3, seed=4)
    clean = export(truth, paths, tmp_path / "clean", n_sources=1,
                   perturbation=0.0, seed=4)
    base = clean["labels_1"].read_text()
    assert files["labels_1"].read_text() != base
    assert files["labels_1"].read_text() != files["labels_2"].read_text()


def test_orgs_file_covers_every_node(tmp_path):
    _, truth = generate(SMALL)
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
    _, truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    from bgprel.ingest import PathStore
    from bgprel.topology import build_graph

    observed = build_graph(PathStore.from_hops(paths))
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
