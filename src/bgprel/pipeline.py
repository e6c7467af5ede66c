"""Wiring between the stages: file discovery, graph and feature
construction, label preparation, training runs, ablations, and the two
trivial baselines used as sanity floors.

``prepare`` is the one place that runs the prepare sequence (graph
bundle, voted labels, restriction to the graph, split dataset); the
CLI and the tests all go through it."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .dataset import (
    BINARY_CLASSES,
    MULTI_CLASSES,
    SPLITS,
    LabelTable,
    RelLabel,
    VoteReport,
    apply_ixp_labels,
    apply_sibling_labels,
    balance_and_split,
    load_label_source,
    load_org_map,
    vote_intersection,
)
from .evaluate import AblationRun, accuracy, confusion_matrix
from .gcn import (
    GcnModel,
    TrainConfig,
    TrainResult,
    build_normalized_adjacency,
    predict,
    train,
)
from .ingest import AllocationTable, IngestReport, ingest_file, load_asn_set
from .topology import (
    HIERARCHY_COLUMNS,
    TYPE_COLUMNS,
    AsGraph,
    FeatureMatrix,
    assemble_features,
    build_graph,
    cnr_edge_weights,
    infer_clique,
    load_clique_file,
    load_type_map,
)


# the optional inputs a run reads, with their conventional file names
SIDE_FILES = {"orgs": "orgs.csv", "ixps": "ixps.txt", "types": "types.csv",
              "alloc": "alloc.txt", "clique": "clique.txt"}


@dataclass
class DataFiles:
    """Input bundle for one run; optional pieces stay None."""

    paths: Path | None
    labels: list[Path]
    orgs: Path | None = None
    ixps: Path | None = None
    types: Path | None = None
    alloc: Path | None = None
    clique: Path | None = None
    truth: Path | None = None

    @classmethod
    def discover(cls, directory: str | Path) -> "DataFiles":
        """Pick up the conventional file names from one directory."""
        d = Path(directory)
        if not d.is_dir():
            raise FileNotFoundError(f"data directory not found: {d}")
        paths = d / "paths.txt"
        if not paths.is_file():
            raise FileNotFoundError(f"missing paths file: {paths}")

        def opt(name: str) -> Path | None:
            p = d / name
            return p if p.is_file() else None

        return cls(
            paths=paths,
            labels=sorted(d.glob("labels_*.txt")),
            truth=opt("truth.csv"),
            **{key: opt(name) for key, name in SIDE_FILES.items()},
        )

    def inputs(self) -> dict[str, Path | None]:
        """Manifest input map: every file a run over this bundle reads.
        ``truth`` is left out because nothing reads it."""
        return {
            "paths": self.paths,
            **{f"labels_{i}": p for i, p in enumerate(self.labels, 1)},
            **{key: getattr(self, key) for key in SIDE_FILES},
        }


@dataclass
class GraphBundle:
    """Observed graph plus everything derived from it."""

    report: IngestReport
    graph: AsGraph
    clique: set[int]
    features: FeatureMatrix


def build_bundle(files: DataFiles) -> GraphBundle:
    table = AllocationTable.load(files.alloc) if files.alloc else None
    paths, report = ingest_file(files.paths, table)
    if not len(paths):
        raise ValueError(f"no usable paths in {files.paths}")
    graph = build_graph(paths)
    if files.clique:
        clique = load_clique_file(files.clique)
        missing = sorted(a for a in clique if a not in graph)
        if missing:
            raise ValueError(f"clique members absent from the graph: {missing}")
    else:
        clique = infer_clique(graph)
    type_map = load_type_map(files.types) if files.types else None
    features = assemble_features(graph, clique, type_map)
    return GraphBundle(report=report, graph=graph, clique=clique, features=features)


def prepare_labels(files: DataFiles) -> tuple[LabelTable, VoteReport]:
    """Vote across the sources, then apply the override passes."""
    sources = [load_label_source(p) for p in files.labels]
    edges, report = vote_intersection(sources)
    if files.ixps:
        edges = apply_ixp_labels(edges, load_asn_set(files.ixps))
    if files.orgs:
        edges = apply_sibling_labels(edges, load_org_map(files.orgs))
    return edges, report


def restrict_to_graph(
    edges: LabelTable, graph: AsGraph
) -> tuple[LabelTable, int]:
    """Drop labeled pairs whose endpoints the paths never showed."""
    kept = graph.contains(edges.pairs()).all(axis=1)
    return edges.take(kept), int((~kept).sum())


@dataclass
class EdgeDataset:
    classes: list[RelLabel]
    edges: LabelTable
    arrays: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def class_names(self) -> list[str]:
        return [c.value for c in self.classes]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.arrays[name]


def make_dataset(
    labeled: LabelTable, graph: AsGraph, mode: str, seed: int
) -> EdgeDataset:
    """Balance and split the labeled pairs; each split's rows are the
    endpoints' graph positions, in stored (a, b) orientation, and its
    labels the class indices (p2p and p2c index both class lists)."""
    classes = BINARY_CLASSES if mode == "binary" else MULTI_CLASSES
    split_set = balance_and_split(labeled, seed, mode)
    ds = EdgeDataset(classes=list(classes), edges=split_set)
    for name in SPLITS:
        rows = split_set.split == name
        ds.arrays[name] = (graph.positions(split_set.pairs()[rows]),
                           split_set.label[rows])
    return ds


# -- ablation plumbing ---------------------------------------------------

_GROUP_COLUMNS = {"hierarchy": HIERARCHY_COLUMNS, "as_type": TYPE_COLUMNS}


def ablate_columns(
    fm: FeatureMatrix, feature: str | None
) -> tuple[np.ndarray, bool]:
    """Feature matrix with one input dropped.

    Returns the node matrix and whether the propagation matrix should
    keep its neighborhood-overlap edge weights.  Dropping "cnr" leaves
    the node columns alone and switches the weights off instead; group
    names drop their whole one-hot block.
    """
    if feature is None:
        return fm.values, True
    if feature == "cnr":
        return fm.values, False
    drop = _GROUP_COLUMNS.get(feature, [feature])
    missing = [c for c in drop if c not in fm.columns]
    if missing:
        raise ValueError(f"unknown feature column(s): {missing}")
    keep = [i for i, c in enumerate(fm.columns) if c not in drop]
    return fm.values[:, keep], True


def adjacency_for(graph: AsGraph, weighted: bool) -> sp.csr_matrix:
    """Propagation matrix over the graph's node positions, with or
    without the neighborhood-overlap edge weights."""
    weights = cnr_edge_weights(graph) if weighted else graph.adjacency()
    return build_normalized_adjacency(weights)


# -- training runs -------------------------------------------------------


@dataclass
class TrainOutcome:
    config: TrainConfig
    result: TrainResult
    confusion: dict[str, np.ndarray]  # "val" and "test"

    @property
    def val_accuracy(self) -> float:
        return accuracy(self.confusion["val"])

    @property
    def test_accuracy(self) -> float:
        return accuracy(self.confusion["test"])


def score_splits(
    model: GcnModel, a_hat: sp.csr_matrix, x: np.ndarray, dataset: EdgeDataset
) -> dict[str, np.ndarray]:
    """Confusion matrix of the model on the val and test splits."""
    out = {}
    for name in ("val", "test"):
        pairs, labels = dataset.split(name)
        pred, _ = predict(model, a_hat, x, pairs)
        out[name] = confusion_matrix(labels, pred, len(dataset.classes))
    return out


def run_training(
    x: np.ndarray,
    a_hat: sp.csr_matrix,
    dataset: EdgeDataset,
    config: TrainConfig,
) -> TrainOutcome:
    tr_e, tr_y = dataset.split("train")
    va_e, va_y = dataset.split("val")
    result = train(x, a_hat, tr_e, tr_y, va_e, va_y, config)
    confusion = score_splits(result.model, a_hat, x, dataset)
    return TrainOutcome(config=config, result=result, confusion=confusion)


@dataclass
class Prepared:
    """Graph bundle, vote report, off-graph drop count and split
    dataset: what every labeled run starts from."""

    bundle: GraphBundle
    vote_report: VoteReport
    dropped_offgraph: int
    dataset: EdgeDataset


def prepare(files: DataFiles, mode: str, seed: int) -> Prepared:
    bundle = build_bundle(files)
    labeled, report = prepare_labels(files)
    usable, dropped = restrict_to_graph(labeled, bundle.graph)
    dataset = make_dataset(usable, bundle.graph, mode, seed)
    return Prepared(bundle, report, dropped, dataset)


@dataclass
class Experiment(Prepared):
    """Everything one end-to-end run produces."""

    outcome: TrainOutcome


def run_experiment(files: DataFiles, mode: str = "multi", seed: int = 0,
                   **config_overrides) -> Experiment:
    prep = prepare(files, mode, seed)
    config = TrainConfig.for_mode(mode, seed, **config_overrides)
    fm = prep.bundle.features
    a_hat = adjacency_for(prep.bundle.graph, True)
    outcome = run_training(fm.values, a_hat, prep.dataset, config)
    return Experiment(**vars(prep), outcome=outcome)


def importance_runner(graph: AsGraph, fm: FeatureMatrix, dataset: EdgeDataset,
                      config: TrainConfig):
    """Pipeline closure for the feature-importance driver: retrains
    with one input removed, always from the same seed."""

    def run(feature: str | None) -> AblationRun:
        x, weighted = ablate_columns(fm, feature)
        a_hat = adjacency_for(graph, weighted)
        outcome = run_training(x, a_hat, dataset, config)
        return AblationRun(accuracy=outcome.test_accuracy, seed=config.seed)

    return run


# -- baselines ------------------------------------------------------------


def majority_baseline(
    train_labels: np.ndarray, eval_labels: np.ndarray
) -> float:
    """Accuracy of always answering the most common training class."""
    counts = np.bincount(np.asarray(train_labels, dtype=np.intp))
    winner = int(counts.argmax())
    eval_labels = np.asarray(eval_labels, dtype=np.intp)
    return float((eval_labels == winner).mean())


def _segment_majorities(
    order: np.ndarray, labels: np.ndarray, cuts: list[int], n_classes: int
) -> list[int]:
    bounds = [0, *cuts, len(order)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        seg = labels[order[lo:hi]]
        out.append(int(np.bincount(seg, minlength=n_classes).argmax()))
    return out


def degree_gap_baseline(graph: AsGraph, dataset: EdgeDataset) -> float:
    """Threshold rule on |degree(a) - degree(b)|.

    Fits up to three split points on the training edges by exact
    dynamic programming (maximizing training accuracy), answers the
    majority class of the matching segment, and reports test accuracy.
    A deliberately feature-free floor: any model worth running must
    beat it.
    """
    max_cuts = 3
    degree = graph.degrees()

    def gaps(pairs: np.ndarray) -> np.ndarray:
        return np.abs(degree[pairs[:, 0]] - degree[pairs[:, 1]]).astype(np.float64)

    # dataset arrays hold graph positions
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

    majors = _segment_majorities(order, tr_y, cuts, n_classes)
    thresholds = [sorted_tr[c] for c in cuts]  # segment = first t > gap

    g_te = gaps(te_e)
    pred = np.empty(len(g_te), dtype=np.intp)
    for i, gval in enumerate(g_te):
        s = 0
        while s < len(thresholds) and gval >= thresholds[s]:
            s += 1
        pred[i] = majors[s]
    return float((pred == te_y).mean())
