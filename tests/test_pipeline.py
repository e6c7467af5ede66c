import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import bgprel.pipeline as pipeline
from bgprel import cli
from bgprel.dataset import LabelTable, RelLabel
from bgprel.pipeline import (
    DataFiles,
    EdgeDataset,
    ablate_columns,
    adjacency_for,
    build_bundle,
    degree_gap_baseline,
    majority_baseline,
    make_dataset,
    prepare,
    prepare_labels,
    restrict_to_graph,
    run_training,
    score_splits,
)
from bgprel.evaluate import accuracy, confusion_matrix
from bgprel.gcn import WEIGHT_FLOOR, TrainConfig, build_normalized_adjacency, predict
from bgprel.synth import SynthConfig, export, generate, simulate_paths
from bgprel.topology import AsGraph, FEATURE_COLUMNS, build_graph, canonical_edge, cnr_edge_weights

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
    truth = generate(CFG)
    paths, _ = simulate_paths(truth, CFG)
    export(truth, paths, out, n_sources=3, perturbation=0.05, seed=2)
    return out


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cleandata")
    truth = generate(CFG)
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
    # the paths file and the labels are optional here; commands that
    # need them refuse a bundle without them
    assert DataFiles.discover(tmp_path).paths is None
    (tmp_path / "paths.txt").write_text("1|2|3\n")
    assert DataFiles.discover(tmp_path).labels == []


def test_build_bundle_covers_observed_nodes(data_dir):
    bundle = build_bundle(DataFiles.discover(data_dir))
    assert bundle.features.nodes.tolist() == bundle.graph.nodes.tolist()
    assert bundle.features.values.shape == (
        bundle.graph.num_nodes, len(FEATURE_COLUMNS),
    )
    assert bundle.clique  # the planted mesh is observable


# scipy.sparse.csgraph pulls in scipy.sparse.linalg and scipy.linalg,
# about 11 MB of resident memory in every process that imports it
_HEAVY_SCIPY = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
# scipy.sparse itself takes 0.2-0.3 s to import; only training needs it.
# The process-pool modules load only where a pool forks.
_DEFERRED = ("scipy.sparse", "multiprocessing", "concurrent.futures.process")


def _python(code, *args, cwd=None):
    """Runs ``code`` in a fresh interpreter that imports bgprel from this
    checkout and returns its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_load_no_csgraph_or_linalg(data_dir):
    """A fresh interpreter imports the CLI, builds a bundle and its
    weighted propagation matrix, predicts its edges with an untrained
    model, and generates, checks and simulates a synth topology, without
    loading scipy.sparse, the process-pool modules or the heavy scipy
    modules."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import bgprel.cli\n"
        "from bgprel import gcn, pipeline, synth\n"
        f"print(sorted(m for m in {_DEFERRED!r} if m in sys.modules))\n"
        "bundle = pipeline.build_bundle(pipeline.DataFiles.discover(sys.argv[1]))\n"
        "a_hat = pipeline.adjacency_for(bundle.graph, True)\n"
        "x = bundle.features.values\n"
        "model = gcn.init_model(x.shape[1], 4, 2, (2, 1), np.random.default_rng(0), x.dtype)\n"
        "gcn.predict(model, a_hat, x, [bundle.graph.edge_rows])\n"
        "config = synth.SynthConfig(\n"
        "    n_tier1=3, n_mid=20, n_stub=30, n_ixp=2, n_orgs=5, n_vps=5, paths_per_vp=10)\n"
        "truth = synth.generate(config)\n"
        "assert synth.p2c_is_acyclic(truth.route_graph)\n"
        "synth.simulate_paths(truth, config)\n"
        f"print(sorted(m for m in {_DEFERRED!r} if m in sys.modules))\n"
        f"print(sorted(m for m in sys.modules if m.startswith({_HEAVY_SCIPY!r})))\n"
    )
    assert _python(code, data_dir).split("\n") == ["[]", "[]", "[]", ""]


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("guard-train")
    assert cli.run(["train", "--data", str(data_dir), "--epochs", "3", "--hidden", "4",
                    "--out", str(out)]) == 0
    return out / "checkpoint.json"


@pytest.mark.parametrize("command, loads", [
    ("synth", False), ("ingest", False), ("features", False), ("dataset", False),
    ("predict", False), ("train", True)])
def test_only_training_loads_scipy_sparse(command, loads, data_dir, checkpoint, tmp_path):
    """Only the epoch loop loads scipy.sparse, and numpy.ma (about 20 ms,
    which scipy.sparse imports but numpy's np.unique and np.union1d also
    load) is loaded by the same commands.  predict's data has labels, so
    it scores them too."""
    argv = {"synth": ["--n-mid", "20", "--n-stub", "30", "--n-vps", "5",
                      "--paths-per-vp", "10"],
            "ingest": ["--paths", data_dir / "paths.txt"],
            "train": ["--data", data_dir, "--epochs", "2", "--hidden", "4"],
            "predict": ["--data", data_dir, "--checkpoint", checkpoint],
            }.get(command, ["--data", data_dir])
    code = ("import sys\n"
            "from bgprel import cli\n"
            "assert cli.run(sys.argv[1:]) == 0\n"
            "print('scipy.sparse' in sys.modules, 'numpy.ma' in sys.modules)\n")
    out = _python(code, command, *argv, "--out", tmp_path / "o", cwd=tmp_path)
    assert out.splitlines()[-1] == f"{loads} {loads}"
    if command == "predict":
        assert "test" in json.loads((tmp_path / "o" / "metrics.json").read_text())


def test_build_bundle_rejects_clique_member_outside_graph(data_dir, tmp_path):
    files = DataFiles.discover(data_dir)
    rogue = tmp_path / "clique.txt"
    rogue.write_text("999999\n")
    files.clique = rogue
    with pytest.raises(ValueError, match="999999"):
        build_bundle(files)


def test_clean_labels_match_planted_truth(clean_dir):
    truth = generate(CFG)
    files = DataFiles.discover(clean_dir)
    labeled, report = prepare_labels(files)
    assert report.n_sources == 3
    assert len(labeled) > 0
    for a, b, label, _, _ in labeled.rows():
        provider, _, want_label = truth.links[canonical_edge(a, b)]
        assert label is want_label
        if want_label is RelLabel.P2C:
            assert a == provider
    counts = labeled.counts()
    assert all(counts[c] > 0 for c in RelLabel)


def test_restrict_to_graph_drops_unknown_endpoints():
    g = AsGraph.from_edges([(1, 2)])
    labeled = LabelTable.from_rows([(1, 2, RelLabel.P2P, "", ""),
                                    (1, 99, RelLabel.P2P, "", "")])
    kept, dropped = restrict_to_graph(labeled, g)
    assert len(kept) == 1 and dropped == 1


def test_restrict_to_graph_matches_scalar_membership(clean_dir, monkeypatch):
    bundle = build_bundle(DataFiles.discover(clean_dir))
    labeled, _ = prepare_labels(DataFiles.discover(clean_dir))
    graph = bundle.graph
    # a few pairs off the graph, one with both endpoints off it
    nodes = graph.nodes.tolist()
    top = max(nodes)
    labeled = LabelTable.from_rows(labeled.rows() + [
        (a, b, RelLabel.P2P, "", "")
        for a, b in [(top + 1, nodes[0]), (top + 2, top + 3), (nodes[1], 2**32 - 1)]
    ])
    want = [e for e in labeled.rows() if graph.contains(e[0]) and graph.contains(e[1])]
    contains = AsGraph.contains

    def arrays_only(self, asns):
        if np.ndim(asns) == 0:
            raise AssertionError("scalar membership test")
        return contains(self, asns)

    monkeypatch.setattr(AsGraph, "contains", arrays_only)
    kept, dropped = restrict_to_graph(labeled, graph)
    assert kept.rows() == want
    assert dropped == len(labeled) - len(want) >= 3
    empty, none = restrict_to_graph(LabelTable.from_rows([]), graph)
    assert len(empty) == 0 and none == 0


def test_make_dataset_orientation_and_splits(clean_dir):
    prep = prepare(DataFiles.discover(clean_dir), "multi", seed=1)
    bundle, ds = prep.bundle, prep.dataset
    sizes = {name: len(ds.split(name)[0]) for name in ("train", "val", "test")}
    counts = ds.edges.counts()
    per_class = min(c for c in counts.values() if c)
    assert all(counts[c] in (0, per_class) for c in RelLabel)
    n = sum(sizes.values())
    assert sizes["train"] == pytest.approx(0.6 * n, abs=len(ds.classes))
    nodes = bundle.graph.nodes
    for name in ("train", "val", "test"):
        pairs, labels = ds.split(name)
        assert pairs.shape[1] == 2
        assert labels.min() >= 0 and labels.max() < len(ds.classes)
        # rows are graph positions of each entry's endpoints, in order
        entries = [e for e in ds.edges.rows() if e[3] == name]
        assert nodes[pairs].tolist() == [[a, b] for a, b, *_ in entries]
    # stored orientation is provider-first; array rows must follow it
    nodes = bundle.features.nodes
    for a, b, label, split, _ in ds.edges.rows():
        if split == "train" and label is RelLabel.P2C:
            i = bundle.graph.positions(a)
            pairs, labels = ds.split("train")
            row = next(r for r in pairs if nodes[r[0]] == a and nodes[r[1]] == b)
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
    ds = EdgeDataset(classes=[RelLabel.P2P, RelLabel.P2C], edges=LabelTable.from_rows([]))
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
        nodes = g.nodes.tolist()
        degree = dict(zip(nodes, g.degrees().tolist()))
        m = 14
        pairs = rng.integers(0, len(nodes), size=(m, 2)).astype(np.intp)
        labels = rng.integers(0, 3, size=m).astype(np.intp)
        ds = EdgeDataset(classes=[RelLabel.P2P, RelLabel.P2C, RelLabel.S2S],
                         edges=LabelTable.from_rows([]))
        # test on the training pairs so the DP optimum is observable
        ds.arrays = {"train": (pairs, labels), "val": (pairs, labels),
                     "test": (pairs, labels)}
        gaps = np.array(
            [abs(degree[nodes[i]] - degree[nodes[j]]) for i, j in pairs],
            dtype=np.float64,
        )
        want = _brute_force_stump(gaps, labels, 3)
        got = degree_gap_baseline(g, ds)
        assert got == pytest.approx(want)


def _reference_degree_gap(graph: AsGraph, dataset: EdgeDataset) -> float:
    """The degree-gap floor as a plain-Python DP over a table of every
    pair of distinct gaps: the reference the numpy DP must equal."""
    max_cuts = 3
    degree = graph.degrees()

    def gaps(pairs: np.ndarray) -> np.ndarray:
        return np.abs(degree[pairs[:, 0]] - degree[pairs[:, 1]]).astype(np.float64)

    tr_e, tr_y = dataset.split("train")
    te_e, te_y = dataset.split("test")
    n_classes = len(dataset.classes)
    g_tr = gaps(tr_e)
    order = np.argsort(g_tr, kind="stable")
    sorted_tr = g_tr[order]
    m = len(order)

    # segments may only break between distinct gap values
    breakpoints = [i for i in range(1, m) if sorted_tr[i] != sorted_tr[i - 1]]
    positions = [0, *breakpoints, m]

    def seg_hits(lo: int, hi: int) -> int:
        seg = tr_y[order[lo:hi]]
        return int(np.bincount(seg, minlength=n_classes).max()) if len(seg) else 0

    n_pos = len(positions)
    hits = [[0] * n_pos for _ in range(n_pos)]
    for a in range(n_pos):
        for b in range(a + 1, n_pos):
            hits[a][b] = seg_hits(positions[a], positions[b])

    # dp[k][a]: best hits covering samples from positions[a] on, using
    # at most k segments; unreachable states stay at -1
    unreachable = -1
    dp = [[unreachable] * n_pos for _ in range(max_cuts + 2)]
    choice = [[n_pos - 1] * n_pos for _ in range(max_cuts + 2)]
    for k in range(max_cuts + 2):
        dp[k][n_pos - 1] = 0
    for k in range(1, max_cuts + 2):
        for a in range(n_pos - 2, -1, -1):
            best, arg = unreachable, n_pos - 1
            for b in range(a + 1, n_pos):
                if dp[k - 1][b] == unreachable:
                    continue
                cand = hits[a][b] + dp[k - 1][b]
                if cand > best:
                    best, arg = cand, b
            dp[k][a] = best
            choice[k][a] = arg

    cuts: list[int] = []
    a, k = 0, max_cuts + 1
    while a < n_pos - 1:
        b = choice[k][a]
        if b < n_pos - 1:
            cuts.append(positions[b])
        a, k = b, k - 1

    bounds = [0, *cuts, m]
    majors = [int(np.bincount(tr_y[order[lo:hi]], minlength=n_classes).argmax())
              for lo, hi in zip(bounds, bounds[1:])]
    thresholds = [sorted_tr[c] for c in cuts]  # segment = first t > gap

    g_te = gaps(te_e)
    pred = np.empty(len(g_te), dtype=np.intp)
    for i, gval in enumerate(g_te):
        s = 0
        while s < len(thresholds) and gval >= thresholds[s]:
            s += 1
        pred[i] = majors[s]
    return float((pred == te_y).mean())


def test_degree_gap_baseline_equals_reference_on_random_data():
    # few nodes and few classes, so gaps repeat and segments tie
    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(3, 16))
        g = AsGraph.from_edges(
            [(a + 1, b + 1) for a, b in
             {tuple(sorted(rng.choice(n, 2, replace=False)))
              for _ in range(int(rng.integers(2, 3 * n)))}]
        )
        n_classes = int(rng.integers(2, 5))
        ds = EdgeDataset(classes=list(RelLabel)[:n_classes],
                         edges=LabelTable.from_rows([]))
        for name in ("train", "test"):
            m = int(rng.integers(1, 30))
            ds.arrays[name] = (
                rng.integers(0, g.num_nodes, size=(m, 2)).astype(np.intp),
                rng.integers(0, n_classes, size=m).astype(np.intp),
            )
        assert degree_gap_baseline(g, ds) == _reference_degree_gap(g, ds)


@pytest.fixture(scope="module")
def default_synth_labels(tmp_path_factory):
    """The default synth's graph and its labels restricted to it."""
    out = tmp_path_factory.mktemp("defaultsynth")
    cfg = SynthConfig()
    truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    export(truth, paths, out, n_sources=3, perturbation=0.03, seed=cfg.seed)
    files = DataFiles.discover(out)
    graph = build_bundle(files).graph
    usable, _ = restrict_to_graph(prepare_labels(files)[0], graph)
    return graph, usable


@pytest.mark.parametrize("mode", ["multi", "binary"])
def test_degree_gap_baseline_equals_reference_on_default_synth(
    default_synth_labels, mode
):
    graph, usable = default_synth_labels
    for seed in range(5):
        ds = make_dataset(usable, graph, mode, seed)
        assert degree_gap_baseline(graph, ds) == _reference_degree_gap(graph, ds)


def scipy_normalized_adjacency(weights):
    """A_hat by scipy's sparse algebra: the floored weights plus the
    identity, both sides scaled by the inverse square roots of the row
    sums, each entry by one product of the two factors."""
    n = len(weights.indptr) - 1
    a_hat = sp.csr_matrix(
        (np.maximum(weights.data, WEIGHT_FLOOR), weights.indices, weights.indptr),
        shape=(n, n)) + sp.identity(n, format="csr")
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_hat.sum(axis=1)).ravel())
    rows = np.repeat(np.arange(n), np.diff(a_hat.indptr))
    a_hat.data *= inv_sqrt[rows] * inv_sqrt[a_hat.indices]
    return a_hat


@pytest.fixture(scope="module", params=[0, 1])
def default_synth_graph(request):
    """The graph of the default-size synth's paths, at two seeds."""
    cfg = SynthConfig(seed=request.param)
    return build_graph(simulate_paths(generate(cfg), cfg)[0])


@pytest.mark.parametrize("weighted", [True, False])
def test_normalized_adjacency_is_scipys_bit_for_bit(default_synth_graph, weighted):
    graph = default_synth_graph
    weights = cnr_edge_weights(graph) if weighted else graph.adjacency()
    n = graph.num_nodes
    scipy_weights = sp.csr_matrix((weights.data, graph.indices, graph.indptr),
                                  shape=(n, n), copy=True)
    for got, want in ((weights, scipy_weights),
                      (build_normalized_adjacency(weights),
                       scipy_normalized_adjacency(weights))):
        for name in ("data", "indices", "indptr"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_prepare_and_train_end_to_end(data_dir):
    prep = prepare(DataFiles.discover(data_dir), "multi", seed=3)
    config = TrainConfig.for_mode("multi", seed=3, epochs=25, hidden=8)
    a_hat = adjacency_for(prep.bundle.graph, True)
    result, confusion = run_training(prep.bundle.features.values, a_hat, prep.dataset,
                                     config)
    assert 0.0 <= accuracy(confusion["val"]) <= 1.0
    assert 0.0 <= accuracy(confusion["test"]) <= 1.0
    assert confusion["test"].shape == (4, 4)
    assert result.best_epoch >= 1
    assert prep.vote_report.n_sources == 3
    assert prep.dataset.class_names == ["p2p", "p2c", "s2s", "x2x"]


def test_run_training_matches_direct_evaluation(clean_dir):
    prep = prepare(DataFiles.discover(clean_dir), "binary", seed=0)
    bundle, ds = prep.bundle, prep.dataset
    config = TrainConfig.for_mode("binary", seed=0, epochs=10, hidden=8)
    a_hat = adjacency_for(bundle.graph, True)
    _, confusion = run_training(bundle.features.values, a_hat, ds, config)
    assert confusion["val"].sum() == len(ds.split("val")[0])
    assert confusion["test"].sum() == len(ds.split("test")[0])
    assert accuracy(confusion["test"]) == pytest.approx(
        np.trace(confusion["test"]) / confusion["test"].sum()
    )


def test_score_splits_scores_both_splits_from_one_forward(clean_dir, monkeypatch):
    prep = prepare(DataFiles.discover(clean_dir), "multi", seed=1)
    bundle, ds = prep.bundle, prep.dataset
    a_hat = adjacency_for(bundle.graph, True)
    x = bundle.features.values
    config = TrainConfig.for_mode("multi", seed=1, epochs=10, hidden=8)
    model = run_training(x, a_hat, ds, config)[0].model
    calls = []

    def counting_predict(*args):
        calls.append(predict(*args))
        return calls[-1]

    monkeypatch.setattr(pipeline, "predict", counting_predict)
    got = score_splits(model, a_hat, x, ds)
    [scored] = calls
    for name, (_, logp) in zip(("val", "test"), scored, strict=True):
        pairs, labels = ds.split(name)
        # one head call per split: the bytes of scoring the split alone
        [(pred, alone)] = predict(model, a_hat, x, [pairs])
        assert logp.tobytes() == alone.tobytes()
        assert np.array_equal(got[name], confusion_matrix(labels, pred, 4))
