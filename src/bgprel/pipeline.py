"""Wiring between the stages: file discovery, graph and feature
construction, label preparation, training runs, the inputs a run can
drop, and the two trivial baselines used as sanity floors.

``prepare`` is the one place that runs the prepare sequence (graph
bundle, voted labels, restriction to the graph, split dataset); the
CLI and the tests all go through it.  ``build_bundle`` takes the graph
instead of ingesting when the caller has it, as ``predict`` does with
the one its checkpoint's ``train`` saved.  ``train`` scores its val and
test splits through ``score_splits``, one forward pass with one head
call per split; ``predict`` scores every requested edge and each of the
``label_roles`` sets from one pass the same way."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    SPLITS,
    LabelTable,
    RelLabel,
    VoteReport,
    apply_ixp_labels,
    apply_sibling_labels,
    balance_and_split,
    load_label_source,
    load_org_map,
    mode_classes,
    vote_intersection,
)
from .evaluate import confusion_matrix
from .gcn import (
    GcnModel,
    TrainConfig,
    TrainResult,
    build_normalized_adjacency,
    predict,
    train,
)
from .ingest import AllocationTable, IngestReport, ingest_file, load_asn_set, pack_unordered_pairs
from .topology import (
    FEATURE_DTYPE,
    HIERARCHY_COLUMNS,
    SCALAR_COLUMNS,
    TYPE_COLUMNS,
    AsGraph,
    Csr,
    FeatureMatrix,
    GraphSummary,
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
    def discover(cls, directory: str | Path, paths: Path | None = None) -> "DataFiles":
        """Pick up the conventional file names from one directory;
        ``paths``, when given, stands in for its ``paths.txt``.  A file
        the directory does not hold stays None, ``paths.txt`` too; a
        conventional name that is not a regular file is refused."""
        d = Path(directory)
        if not d.is_dir():
            raise FileNotFoundError(f"data directory not found: {d}")

        def regular(p: Path) -> Path:
            if not p.is_file():
                raise ValueError(f"not a regular file: {p}")
            return p

        def opt(name: str) -> Path | None:
            p = d / name
            return regular(p) if p.exists() else None

        return cls(
            paths=paths or opt("paths.txt"),
            labels=[regular(p) for p in sorted(d.glob("labels_*.txt"))],
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


def build_bundle(
    files: DataFiles, observed: tuple[AsGraph, IngestReport] | None = None
) -> GraphBundle:
    """The graph bundle of ``files``.  ``observed`` is the graph its paths
    show, read through its allocation table if it has one, and their
    ingest counts, when already known; the clique and the features
    always come from the bundle's own side files."""
    if observed is None:
        table = AllocationTable.load(files.alloc) if files.alloc else None
        summary, report = ingest_file(files.paths, table, GraphSummary)
        if not report.accepted:
            raise ValueError(f"no usable paths in {files.paths}")
        observed = build_graph(summary), report
    graph, report = observed
    if files.clique:
        clique = load_clique_file(files.clique)
        missing = [a for a in sorted(clique) if not graph.contains(a)]
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
    split_set = balance_and_split(labeled, seed, mode)
    ds = EdgeDataset(classes=mode_classes(mode), edges=split_set)
    for name in SPLITS:
        rows = split_set.split == name
        ds.arrays[name] = (graph.positions(split_set.pairs()[rows]),
                           split_set.label[rows])
    return ds


# -- ablation plumbing ---------------------------------------------------

_GROUP_COLUMNS = {"hierarchy": HIERARCHY_COLUMNS, "as_type": TYPE_COLUMNS}
# every input a sweep's ablate axis can drop: each scalar column, each
# one-hot group (removed whole), and the common neighbor ratio edge
# weighting
ABLATABLE_FEATURES = [*SCALAR_COLUMNS, *_GROUP_COLUMNS, "cnr"]


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


def adjacency_for(graph: AsGraph, weighted: bool) -> Csr:
    """Propagation matrix over the graph's node positions, with or
    without the neighborhood-overlap edge weights, cast once to the
    features' dtype so that no run over it casts it again.  The weights
    are freed before the cast, whose copy can reuse their memory."""
    a_hat = build_normalized_adjacency(
        cnr_edge_weights(graph) if weighted else graph.adjacency())
    return a_hat.astype(FEATURE_DTYPE)


# -- training runs -------------------------------------------------------


def score_splits(
    model: GcnModel, a_hat: Csr, x: np.ndarray, dataset: EdgeDataset
) -> dict[str, np.ndarray]:
    """Confusion matrix of the model on the val and test splits, both
    scored from one forward pass with one head call per split."""
    splits = {name: dataset.split(name) for name in ("val", "test")}
    scored = predict(model, a_hat, x, [edges for edges, _ in splits.values()])
    return {name: confusion_matrix(y, pred, len(dataset.classes))
            for (name, (_, y)), (pred, _) in zip(splits.items(), scored)}


def label_roles(
    labeled: LabelTable, graph: AsGraph, mode: str, seed: int, digest: str | None
) -> EdgeDataset:
    """The labeled pairs the graph holds in ``mode``'s classes, by role in
    the split ``seed`` draws from them (``train``, ``val``, ``test``, and
    ``left_out`` by balancing) if its digest is ``digest``, as ``train``'s
    was, else as one ``voted`` split; a role with no pair is omitted."""
    classes = mode_classes(mode)
    # p2p and p2c come first in both class lists
    usable = restrict_to_graph(labeled.take(labeled.label < len(classes)), graph)[0]
    try:
        drawn = balance_and_split(usable, seed, mode) if digest else usable
    except ValueError:  # train refuses such a draw, so no digest matches it
        drawn = usable
    roles = {"voted": usable}
    if drawn.digest() == digest:
        roles = {name: drawn.take(drawn.split == name) for name in SPLITS}
        # both hold each pair once, and np.unique would load numpy.ma
        roles["left_out"] = usable.take(~np.isin(pack_unordered_pairs(usable.a, usable.b),
                                                 pack_unordered_pairs(drawn.a, drawn.b),
                                                 assume_unique=True))
    return EdgeDataset(classes, usable, {name: (graph.positions(t.pairs()), t.label)
                                         for name, t in roles.items() if len(t)})


def run_training(
    x: np.ndarray,
    a_hat: Csr,
    dataset: EdgeDataset,
    config: TrainConfig,
) -> tuple[TrainResult, dict[str, np.ndarray]]:
    """The training result and its val and test confusion matrices."""
    tr_e, tr_y = dataset.split("train")
    va_e, va_y = dataset.split("val")
    result = train(x, a_hat, tr_e, tr_y, va_e, va_y, config)
    return result, score_splits(result.model, a_hat, x, dataset)


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


# -- baselines ------------------------------------------------------------


def majority_baseline(
    train_labels: np.ndarray, eval_labels: np.ndarray
) -> float:
    """Accuracy of always answering the most common training class."""
    counts = np.bincount(np.asarray(train_labels, dtype=np.intp))
    winner = int(counts.argmax())
    eval_labels = np.asarray(eval_labels, dtype=np.intp)
    return float((eval_labels == winner).mean())


def degree_gap_baseline(graph: AsGraph, dataset: EdgeDataset) -> float:
    """Threshold rule on |degree(a) - degree(b)|.

    Fits up to three split points on the training edges by exact
    dynamic programming (maximizing training accuracy), answers the
    majority class of the matching segment, and reports test accuracy.
    Ties go to the earliest split and the lowest class.  A deliberately
    feature-free floor: any model worth running must beat it.
    """
    max_segments = 4
    degree = graph.degrees()

    def gaps(pairs: np.ndarray) -> np.ndarray:
        return np.abs(degree[pairs[:, 0]] - degree[pairs[:, 1]])

    # dataset arrays hold graph positions
    (tr_e, tr_y), (te_e, te_y) = dataset.split("train"), dataset.split("test")
    values, inverse = np.unique(gaps(tr_e), return_inverse=True)
    n = len(values)
    # below[j]: per-class training counts over the j smallest distinct gaps;
    # segments break only between distinct gaps
    below = np.zeros((n + 1, len(dataset.classes)), dtype=np.int64)
    np.add.at(below, (inverse + 1, tr_y), 1)
    below = below.cumsum(axis=0)

    # best[k, a]: most training hits over the gaps from a on in at most k
    # segments, -1 when unreachable; end[k, a]: where the first one ends
    best = np.full((max_segments + 1, n + 1), -1, dtype=np.int64)
    best[:, n] = 0
    end = np.full((max_segments + 1, n + 1), n)
    for a in range(n - 1, -1, -1):
        hits = (below[a + 1:] - below[a]).max(axis=1)
        rest = best[:-1, a + 1:]
        total = np.where(rest < 0, -1, hits + rest)
        end[1:, a] = a + 1 + total.argmax(axis=1)  # the first maximum
        best[1:, a] = total.max(axis=1)

    cuts, a, k = [], 0, max_segments
    while (a := int(end[k, a])) < n:
        cuts.append(a)
        k -= 1
    majors = np.diff(below[[0, *cuts, n]], axis=0).argmax(axis=1)
    pred = majors[np.searchsorted(values[cuts], gaps(te_e), side="right")]
    return float((pred == te_y).mean())


def baseline_accuracies(graph: AsGraph, dataset: EdgeDataset) -> dict[str, float]:
    """Test accuracy of the two floors a model must beat, as metrics.json
    reports them."""
    return {"majority": majority_baseline(dataset.split("train")[1],
                                          dataset.split("test")[1]),
            "degree_gap": degree_gap_baseline(graph, dataset)}
