import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from bgprel.dataset import LabeledEdgeSet, RelLabel
from bgprel.pipeline import (
    DataFiles,
    EdgeDataset,
    ablate_columns,
    adjacency_for,
    build_bundle,
    degree_gap_baseline,
    importance_runner,
    majority_baseline,
    prepare,
    prepare_labels,
    restrict_to_graph,
    run_experiment,
    run_training,
)
from bgprel.gcn import TrainConfig
from bgprel.synth import SynthConfig, export, generate, simulate_paths
from bgprel.topology import AsGraph, FEATURE_COLUMNS

CFG = SynthConfig(
    n_tier1=4,
    n_mid=40,
    n_stub=80,
    n_ixp=6,
    n_orgs=10,
    n_vps=15,
    paths_per_vp=60,
    seed=5,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    _, truth = generate(CFG)
    paths, _ = simulate_paths(truth, CFG)
    export(truth, paths, out, n_sources=3, perturbation=0.05, seed=2)
    return out


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cleandata")
    _, truth = generate(CFG)
    paths, _ = simulate_paths(truth, CFG)
    export(truth, paths, out, n_sources=3, perturbation=0.0, seed=2)
    return out


# the data-directory names the README's input table documents, and the
# DataFiles field each one fills
README_FIELDS = {
    "paths.txt": "paths",
    "labels_*.txt": "labels",
    "orgs.csv": "orgs",
    "ixps.txt": "ixps",
    "types.csv": "types",
    "alloc.txt": "alloc",
    "clique.txt": "clique",
}


def test_discover_finds_everything(data_dir, tmp_path):
    files = DataFiles.discover(data_dir)
    assert files.paths.name == "paths.txt"
    assert [p.name for p in files.labels] == [
        "labels_1.txt", "labels_2.txt", "labels_3.txt",
    ]
    assert files.orgs is not None
    assert files.ixps is not None
    assert files.types is not None
    assert files.truth is not None
    assert files.alloc is None
    assert files.clique is None
    # every name in the README's input table fills its field
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split("## Input files", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert sorted(names) == sorted(README_FIELDS)
    for name in names:
        (tmp_path / name.replace("*", "1")).write_text("1\n")
    files = DataFiles.discover(tmp_path)
    for name, field in README_FIELDS.items():
        want = tmp_path / name.replace("*", "1")
        got = getattr(files, field)
        assert (got == [want]) if field == "labels" else (got == want), name


def test_discover_errors_name_the_path(tmp_path):
    with pytest.raises(FileNotFoundError) as e:
        DataFiles.discover(tmp_path / "nope")
    assert "nope" in str(e.value)
    with pytest.raises(FileNotFoundError) as e:
        DataFiles.discover(tmp_path)
    assert "paths.txt" in str(e.value)
    # labels are optional here; commands that need them check the count
    (tmp_path / "paths.txt").write_text("1|2|3\n")
    assert DataFiles.discover(tmp_path).labels == []


def test_build_bundle_covers_observed_nodes(data_dir):
    bundle = build_bundle(DataFiles.discover(data_dir))
    assert set(bundle.features.nodes) == bundle.graph.nodes
    assert bundle.features.values.shape == (
        bundle.graph.num_nodes, len(FEATURE_COLUMNS),
    )
    assert bundle.clique  # the planted mesh is observable


def test_build_bundle_rejects_clique_member_outside_graph(data_dir, tmp_path):
    files = DataFiles.discover(data_dir)
    rogue = tmp_path / "clique.txt"
    rogue.write_text("999999\n")
    files.clique = rogue
    with pytest.raises(ValueError, match="999999"):
        build_bundle(files)


def test_clean_labels_match_planted_truth(clean_dir):
    _, truth = generate(CFG)
    files = DataFiles.discover(clean_dir)
    labeled, report = prepare_labels(files)
    assert report.n_sources == 3
    assert len(labeled) > 0
    for e in labeled:
        want_label, provider = truth.edge_label(e.a, e.b)
        assert e.label is want_label
        if want_label is RelLabel.P2C:
            assert e.a == provider
    counts = labeled.counts()
    assert all(counts[c] > 0 for c in RelLabel)


def test_restrict_to_graph_drops_unknown_endpoints():
    g = AsGraph.from_edges([(1, 2)])
    labeled = LabeledEdgeSet()
    from bgprel.dataset import LabeledEdge

    labeled.add(LabeledEdge(1, 2, RelLabel.P2P))
    labeled.add(LabeledEdge(1, 99, RelLabel.P2P))
    kept, dropped = restrict_to_graph(labeled, g)
    assert len(kept) == 1 and dropped == 1


def test_make_dataset_orientation_and_splits(clean_dir):
    prep = prepare(DataFiles.discover(clean_dir), "multi", seed=1)
    bundle, ds = prep.bundle, prep.dataset
    sizes = {name: len(ds.split(name)[0]) for name in ("train", "val", "test")}
    counts = ds.edges.counts()
    per_class = min(c for c in counts.values() if c)
    assert all(counts[c] in (0, per_class) for c in RelLabel)
    n = sum(sizes.values())
    assert sizes["train"] == pytest.approx(0.6 * n, abs=len(ds.classes))
    for name in ("train", "val", "test"):
        pairs, labels = ds.split(name)
        assert pairs.shape[1] == 2
        assert labels.min() >= 0 and labels.max() < len(ds.classes)
    # stored orientation is provider-first; array rows must follow it
    nodes = bundle.features.nodes
    for e in ds.edges.with_split("train"):
        if e.label is RelLabel.P2C:
            i = bundle.features.index[e.a]
            pairs, labels = ds.split("train")
            row = next(r for r in pairs if nodes[r[0]] == e.a and nodes[r[1]] == e.b)
            assert row[0] == i
            break


def test_ablate_columns_shapes(clean_dir):
    bundle = build_bundle(DataFiles.discover(clean_dir))
    fm = bundle.features
    full, weighted = ablate_columns(fm, None)
    assert full.shape[1] == 14 and weighted
    x, weighted = ablate_columns(fm, "degree")
    assert x.shape[1] == 13 and weighted
    x, weighted = ablate_columns(fm, "hierarchy")
    assert x.shape[1] == 11 and weighted
    x, weighted = ablate_columns(fm, "as_type")
    assert x.shape[1] == 10 and weighted
    x, weighted = ablate_columns(fm, "cnr")
    assert x.shape[1] == 14 and not weighted
    with pytest.raises(ValueError, match="bogus"):
        ablate_columns(fm, "bogus")


def test_majority_baseline():
    acc = majority_baseline(np.array([0, 0, 1]), np.array([0, 1, 0]))
    assert acc == pytest.approx(2 / 3)


def _stump_dataset():
    g = AsGraph.from_edges([(1, i) for i in range(2, 7)] + [(7, 8)])
    # ascending nodes 1..8 -> rows 0..7
    pairs = np.array([[1, 2], [6, 7], [0, 1], [0, 4]], dtype=np.intp)
    labels = np.array([0, 0, 1, 1], dtype=np.intp)
    ds = EdgeDataset(classes=[RelLabel.P2P, RelLabel.P2C], edges=LabeledEdgeSet())
    ds.arrays = {"train": (pairs, labels), "val": (pairs, labels),
                 "test": (pairs, labels)}
    return g, ds


def test_degree_gap_baseline_perfectly_separable():
    g, ds = _stump_dataset()
    assert degree_gap_baseline(g, ds) == 1.0


def _brute_force_stump(gaps, labels, n_classes, max_cuts=3):
    order = np.argsort(gaps, kind="stable")
    s = gaps[order]
    m = len(s)
    breakpoints = [i for i in range(1, m) if s[i] != s[i - 1]]
    best = 0
    for r in range(0, max_cuts + 1):
        for cuts in itertools.combinations(breakpoints, r):
            bounds = [0, *cuts, m]
            hits = 0
            for lo, hi in zip(bounds, bounds[1:]):
                seg = labels[order[lo:hi]]
                hits += int(np.bincount(seg, minlength=n_classes).max())
            best = max(best, hits)
    return best / m


def test_degree_gap_baseline_matches_brute_force_on_train():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = 9
        g = AsGraph.from_edges(
            [(a + 1, b + 1) for a, b in
             {tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(12)}]
        )
        nodes = sorted(g.nodes)
        m = 14
        pairs = rng.integers(0, len(nodes), size=(m, 2)).astype(np.intp)
        labels = rng.integers(0, 3, size=m).astype(np.intp)
        ds = EdgeDataset(classes=[RelLabel.P2P, RelLabel.P2C, RelLabel.S2S],
                         edges=LabeledEdgeSet())
        # test on the training pairs so the DP optimum is observable
        ds.arrays = {"train": (pairs, labels), "val": (pairs, labels),
                     "test": (pairs, labels)}
        gaps = np.array(
            [abs(g.degree(nodes[i]) - g.degree(nodes[j])) for i, j in pairs],
            dtype=np.float64,
        )
        want = _brute_force_stump(gaps, labels, 3)
        got = degree_gap_baseline(g, ds)
        assert got == pytest.approx(want)


def test_run_experiment_end_to_end(data_dir):
    files = DataFiles.discover(data_dir)
    exp = run_experiment(files, mode="multi", seed=3, epochs=25, hidden=8)
    assert 0.0 <= exp.outcome.val_accuracy <= 1.0
    assert 0.0 <= exp.outcome.test_accuracy <= 1.0
    assert exp.outcome.confusion["test"].shape == (4, 4)
    assert exp.outcome.result.best_epoch >= 1
    assert exp.vote_report.n_sources == 3
    assert exp.dataset.class_names == ["p2p", "p2c", "s2s", "x2x"]


def test_importance_runner_deterministic(clean_dir):
    prep = prepare(DataFiles.discover(clean_dir), "multi", seed=2)
    config = TrainConfig.for_mode("multi", seed=2, epochs=15, hidden=8)
    run = importance_runner(prep.bundle.graph, prep.bundle.features,
                            prep.dataset, config)
    a = run(None)
    b = run(None)
    assert a == b
    c = run("cnr")
    assert c.seed == a.seed
    assert 0.0 <= c.accuracy <= 1.0


def test_run_training_matches_direct_evaluation(clean_dir):
    prep = prepare(DataFiles.discover(clean_dir), "binary", seed=0)
    bundle, ds = prep.bundle, prep.dataset
    config = TrainConfig.for_mode("binary", seed=0, epochs=10, hidden=8)
    a_hat = adjacency_for(bundle.graph, bundle.features, True)
    out = run_training(bundle.features.values, a_hat, ds, config)
    assert out.confusion["val"].sum() == len(ds.split("val")[0])
    assert out.confusion["test"].sum() == len(ds.split("test")[0])
    assert out.test_accuracy == pytest.approx(
        np.trace(out.confusion["test"]) / out.confusion["test"].sum()
    )
