"""Command line front end.

Every subcommand writes its artifacts under --out and returns the
``Manifest`` record of its run.  ``run`` sets numpy's OpenBLAS to one
thread, so no output depends on a thread variable, runs the command and
writes manifest.json next to its artifacts: the invocation, the input
and output file digests, the seed, the library versions, the thread
settings, the BLAS thread count in effect and the wall time; no command
reads a manifest.  A command that builds the graph records its ingest
counts under ``config``.  ``train`` saves a ``gcn.Checkpoint`` with the
observed graph, the record of the files it came from (``_source``) and
its split's digest; ``predict`` uses that graph instead of ingesting
when the record is that of its own files.  Only ``gcn`` knows the format.
Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import itertools
import math
import os
import platform
import sys
import time
from array import array
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .dataset import MODE_CLASSES
from .evaluate import (
    accuracy,
    blas_core,
    blas_threads,
    confusion_matrix,
    format_confusion,
    metrics_doc,
    numpy_simd,
    pin_blas_threads,
    setting_text,
    sweep,
    worker_count,
    worker_died,
)
from .gcn import (
    Checkpoint,
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    write_history_csv,
)
from .ingest import (
    AllocationTable,
    ingest_file,
    parse_asn,
    read_fields,
    write_json,
    write_paths_file,
    write_table,
)
from .pipeline import (
    ABLATABLE_FEATURES,
    SIDE_FILES,
    DataFiles,
    ablate_columns,
    adjacency_for,
    baseline_accuracies,
    build_bundle,
    label_roles,
    prepare,
    prepare_labels,
    run_training,
)
from .gcn import predict as gcn_predict
from .synth import (
    SynthConfig,
    check_export_settings,
    export,
    generate,
    p2c_is_acyclic,
    policy_violations,
    simulate_paths,
)
from .topology import AsGraph, write_features_csv

# not called here; kept bound because the benchmark tracer wraps them
from .pipeline import make_dataset, restrict_to_graph  # noqa: F401
from .topology import build_graph  # noqa: F401


# -- manifest --------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.cache
def _input_digest(path: Path) -> str:
    """An input file's sha256.  ``run`` empties the cache before each
    command, so a command reads each input once for its digest, which
    both the graph's source record and the manifest use."""
    return _sha256(path)


class Manifest(NamedTuple):
    """What a command's manifest records of its run, besides what
    ``write_manifest`` gathers itself."""

    config: dict
    inputs: dict[str, Path | None]
    outputs: dict[str, Path]
    seed: int | None


def write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: dict[str, Path | None],
    outputs: dict[str, Path],
    seed: int | None,
    started: float,
) -> Path:
    doc = {
        "command": command,
        "version": __version__,
        "config": config,
        "seed": seed,
        "inputs": {
            name: {"path": str(p), "sha256": _input_digest(p)}
            for name, p in sorted(inputs.items())
            if p is not None
        },
        "outputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in sorted(outputs.items())
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            # the BLAS and OpenMP thread settings as this process saw them
            "settings": {name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "blas_threads": blas_threads(),
            # the CPU kernels a run's bytes depend on
            "blas_core": blas_core(),
            "numpy_simd": numpy_simd(),
        },
        "wall_time_s": time.perf_counter() - started,
    }
    path = out_dir / "manifest.json"
    write_json(path, doc)
    return path


def _check_out(out: str) -> None:
    """Refuse an --out that names a file, or a path under one."""
    path = Path(out)
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise SystemExit2(f"--out {out}: {found} is not a directory")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- argument plumbing -----------------------------------------------------


def _blocks(text: str) -> tuple[int, int]:
    try:
        nb, nl = text.lower().split("x")
        return int(nb), int(nl)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BLOCKSxLAYERS such as 2x1, got {text!r}"
        ) from None


def _comma_list(parse):
    """argparse type: a comma list of values, each read by ``parse``."""

    def comma_list(text: str) -> list:
        try:
            return [parse(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {parse.__name__} values, got {text!r}"
            ) from None

    return comma_list


def _ablation(text: str) -> str:
    """argparse type: ``none`` or an input ``ablate_columns`` can drop."""
    if text not in ("none", *ABLATABLE_FEATURES):
        raise argparse.ArgumentTypeError(
            f"expected none or one of {', '.join(ABLATABLE_FEATURES)}, got {text!r}")
    return text


def _add_data_flags(p: argparse.ArgumentParser, labels: bool = True) -> None:
    p.add_argument("--data", help="directory holding the conventional file names")
    p.add_argument("--paths", help="AS path observations, one a|b|c line each")
    p.add_argument("--alloc", help="allocated ASN ranges, one lo-hi line each")
    if labels:
        p.add_argument(
            "--labels",
            action="append",
            help="relationship source in a|b|code form; repeat per source",
        )
        p.add_argument("--orgs", help="asn,org_id file for sibling overrides")
        p.add_argument("--ixps", help="route server ASN list for x2x overrides")
    p.add_argument("--types", help="asn,type file of registered business types")
    p.add_argument("--clique", help="fixed core member list; skips inference")


def _add_mode_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=tuple(MODE_CLASSES), default="multi")


def _require(path_str: str | None, what: str) -> Path:
    if not path_str:
        raise SystemExit2(f"missing required flag for {what}")
    p = Path(path_str)
    if not p.is_file():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _files_from_args(args, need_labels: bool = True) -> DataFiles:
    # explicit flags override whatever discovery finds, --paths included
    paths = _require(args.paths, "paths") if args.paths or not args.data else None
    files = DataFiles.discover(args.data, paths) if args.data else DataFiles(paths, labels=[])
    if files.paths is None:
        raise FileNotFoundError(f"missing paths file: {Path(args.data) / 'paths.txt'}")
    for name in SIDE_FILES:
        if getattr(args, name, None):
            setattr(files, name, _require(getattr(args, name), name))
    if getattr(args, "labels", None):
        files.labels = [_require(l, "labels") for l in args.labels]
    if not hasattr(args, "labels") or not (need_labels or files.labels):
        # no label, org or IXP file is read, so the manifest lists none
        files.labels, files.orgs, files.ixps = [], None, None
        return files
    if len(files.labels) < 2:
        where = f" or labels_*.txt files in {args.data}" if args.data else ""
        raise SystemExit2(f"need at least two --labels sources{where}, "
                          f"got {len(files.labels)}")
    return files


# the TrainConfig field each training flag sets
_OVERRIDES = {"lr": "learning_rate", "wd": "weight_decay", "epochs": "epochs",
              "blocks": "block_spec", "hidden": "hidden"}


def _overrides(args, flags=tuple(_OVERRIDES)) -> dict:
    """The TrainConfig fields the given flags set on this command line."""
    return {_OVERRIDES[f]: getattr(args, f) for f in flags
            if getattr(args, f) is not None}


def _train_config(args, **overrides) -> TrainConfig:
    """This command line's training settings; one that TrainConfig
    refuses is a usage error, raised before any input is read."""
    try:
        return TrainConfig.for_mode(args.mode, args.seed, **overrides)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None


def _source(files: DataFiles) -> dict:
    """What the graph of ``files`` is built from: this version, and the
    sha256 of the paths file and of the alloc file (None without one)."""
    return {"version": __version__, "paths": _input_digest(files.paths),
            "alloc": files.alloc and _input_digest(files.alloc)}


# -- subcommands -----------------------------------------------------------


def cmd_ingest(args) -> Manifest:
    paths_file = _require(args.paths, "paths")
    table = AllocationTable.load(_require(args.alloc, "alloc")) if args.alloc else None
    paths, report = ingest_file(paths_file, table)
    out = _out_dir(args)
    clean = out / "paths_clean.txt"
    write_paths_file(paths, clean)
    report_file = out / "ingest_report.json"
    write_json(report_file, report.as_dict())
    print(f"parsed {report.parsed} paths, kept {report.accepted}")
    print(
        f"compressed {report.compressed}, loops {report.rejected_loop}, "
        f"unallocated {report.rejected_unallocated}, malformed {report.malformed}"
    )
    return Manifest(
        {"alloc": bool(table)},
        {"paths": paths_file, "alloc": Path(args.alloc) if args.alloc else None},
        {"paths_clean": clean, "report": report_file}, None,
    )


def cmd_features(args) -> Manifest:
    files = _files_from_args(args)
    bundle = build_bundle(files)
    out = _out_dir(args)
    features_file = out / "features.csv"
    write_features_csv(bundle.features, features_file)
    clique_file = out / "clique.txt"
    write_table(clique_file, zip(sorted(bundle.clique)))
    print(f"graph: {bundle.graph.num_nodes} nodes, {bundle.graph.num_edges} edges")
    print(f"clique: {sorted(bundle.clique)}")
    diag = bundle.features.diagnostics
    if diag.get("unreachable_clique_pairs"):
        print(f"unreachable clique pairs: {diag['unreachable_clique_pairs']}")
    return Manifest({"ingest": bundle.report.as_dict()}, files.inputs(),
                    {"features": features_file, "clique": clique_file}, None)


def cmd_dataset(args) -> Manifest:
    if args.seed < 0:  # random.Random would take its absolute value
        raise SystemExit2(f"seed must be non-negative, got {args.seed}")
    files = _files_from_args(args)
    prep = prepare(files, args.mode, args.seed)
    split_set, report = prep.dataset.edges, prep.vote_report
    out = _out_dir(args)
    edges_file = out / "edges.csv"
    split_set.write_csv(edges_file)
    vote_file = out / "vote_report.json"
    write_json(vote_file, asdict(report))
    counts = split_set.counts()
    print(f"voted pairs: {report.intersection_pairs} of {report.union_pairs} "
          f"(coincidence rate {report.coincidence_rate:.4f})")
    print("class counts: " + ", ".join(f"{c.value}={n}" for c, n in counts.items() if n))
    return Manifest({"mode": args.mode, "dropped_offgraph": prep.dropped_offgraph,
                     "ingest": prep.bundle.report.as_dict()}, files.inputs(),
                    {"edges": edges_file, "vote_report": vote_file}, args.seed)


def cmd_train(args) -> Manifest:
    config = _train_config(args, **_overrides(args))
    files = _files_from_args(args)
    prep = prepare(files, args.mode, args.seed)
    out = _out_dir(args)
    dataset = prep.dataset
    a_hat = adjacency_for(prep.bundle.graph, True)
    result, confusion = run_training(prep.bundle.features.values, a_hat, dataset, config)

    checkpoint = out / "checkpoint.json"
    save_checkpoint(checkpoint, Checkpoint(
        result.model, args.mode, args.seed, result.best_epoch,
        _source(files), (prep.bundle.graph, prep.bundle.report), dataset.edges.digest()))
    history = out / "history.csv"
    write_history_csv(result.history, history)
    metrics_file = out / "metrics.json"
    write_json(metrics_file, {
        **metrics_doc(dataset.class_names, confusion),
        "best_epoch": result.best_epoch,
        "best_val_accuracy": result.best_val_accuracy,
        "vote": asdict(prep.vote_report), "dropped_offgraph": prep.dropped_offgraph,
        "clique": sorted(prep.bundle.clique),
        "baselines": baseline_accuracies(prep.bundle.graph, dataset)})
    print(f"best epoch {result.best_epoch}: "
          f"val accuracy {accuracy(confusion['val']):.4f}, "
          f"test accuracy {accuracy(confusion['test']):.4f}")
    print(format_confusion(confusion["test"], dataset.class_names))
    return Manifest(
        {**asdict(config), "ingest": prep.bundle.report.as_dict()}, files.inputs(),
        {"checkpoint": checkpoint, "history": history, "metrics": metrics_file},
        args.seed,
    )


# predictions.csv is formatted this many rows at a time
_WRITE_ROWS = 1 << 14


def cmd_predict(args) -> Manifest:
    checkpoint_file = _require(args.checkpoint, "checkpoint")
    checkpoint = load_checkpoint(checkpoint_file)
    classes = checkpoint.classes
    files = _files_from_args(args, need_labels=False)
    labeled = prepare_labels(files)[0] if files.labels else None
    observed = checkpoint.observed if checkpoint.source == _source(files) else None
    bundle = build_bundle(files, observed)
    if checkpoint.model.input_dim != (width := bundle.features.values.shape[1]):
        raise ValueError(f"checkpoint {checkpoint_file} expects "
                         f"{checkpoint.model.input_dim} feature columns, data has {width}")
    graph = bundle.graph
    # the labeled pairs the graph holds, by role; none without labels
    roles = label_roles(labeled, graph, checkpoint.mode, checkpoint.seed,
                        checkpoint.split) if labeled is not None else {}
    pair_file = _require(args.pairs, "pairs") if args.pairs else None
    if pair_file:
        wanted = _read_pairs(pair_file, graph)
        rows = graph.positions(wanted)
    else:
        rows = graph.edge_rows
        wanted = graph.nodes[rows]
    out = _out_dir(args)
    (pred, logp), *scored = gcn_predict(checkpoint.model, adjacency_for(graph, True),
                                        bundle.features.values,
                                        [rows, *(edges for edges, _ in roles.values())])
    pred_file = out / "predictions.csv"
    # a batch of rows at a time, so no Python copy of the whole table
    batches = (slice(lo, lo + _WRITE_ROWS) for lo in range(0, len(wanted), _WRITE_ROWS))
    rows = itertools.chain.from_iterable(
        zip(*wanted[b].T.tolist(), map(classes.__getitem__, pred[b].tolist()),
            *logp[b].T.tolist())
        for b in batches)
    write_table(pred_file, rows, ["a", "b", "label", *(f"logp_{c}" for c in classes)])
    print(f"wrote {len(wanted)} predictions to {pred_file}")
    outputs = {"predictions": pred_file}
    if roles:
        splits = {name: confusion_matrix(y, role_pred, len(classes))
                  for (name, (_, y)), (role_pred, _) in zip(roles.items(), scored)}
        outputs["metrics"] = out / "metrics.json"
        write_json(outputs["metrics"], metrics_doc(classes, splits))
        print(", ".join(f"{name} accuracy {accuracy(cm):.4f}" for name, cm in splits.items()))
    elif labeled is not None:
        print("no labeled pair is on the graph, so none is scored")
    return Manifest({"pairs": len(wanted), "ingest": bundle.report.as_dict(),
                     "graph": "reused" if observed else "built"},
                    {"checkpoint": checkpoint_file, "pairs": pair_file, **files.inputs()},
                    outputs, None)


def _read_pairs(path: Path, graph: AsGraph) -> np.ndarray:
    """The ``a|b`` pairs of a pairs file, as an (n, 2) int64 array; a line
    of other than two fields, an ASN the graph does not hold, or a pair of
    an ASN with itself is refused naming its line, and a file with no pair
    naming the file."""
    pairs = array("q")
    for where, bits in read_fields(path, "|"):
        if len(bits) != 2:
            raise ValueError(f"{where}: expected two ASNs a|b, got {'|'.join(bits)!r}")
        a, b = parse_asn(bits[0], where), parse_asn(bits[1], where)
        for asn in (a, b):
            if not graph.contains(asn):
                raise ValueError(f"{where}: AS{asn} does not appear in the graph")
        if a == b:
            raise ValueError(f"{where}: self pair AS{a}")
        pairs.extend((a, b))
    if not pairs:
        raise ValueError(f"{path}: holds no a|b pair")
    return np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)


def cmd_sweep(args) -> Manifest:
    grid = _overrides(args, ("lr", "wd", "blocks"))
    if args.ablate:
        grid["ablate"] = args.ablate
    if not grid:
        raise SystemExit2("sweep needs at least one of --lr, --wd, --blocks, --ablate lists")
    fixed = _overrides(args, ("epochs", "hidden"))

    def point_config(params: dict) -> TrainConfig:
        """The training settings of one grid point."""
        return _train_config(args, **fixed, **{k: v for k, v in params.items() if k != "ablate"})

    for values in itertools.product(*grid.values()):  # check every grid point
        point_config(dict(zip(grid, values)))
    preferred = {**asdict(point_config({})), "ablate": "none"}
    files = _files_from_args(args)
    prep = prepare(files, args.mode, args.seed)
    out = _out_dir(args)
    fm, graph = prep.bundle.features, prep.bundle.graph
    a_hat = adjacency_for(graph, True)
    # the run that drops "cnr" trains over the unweighted matrix, built
    # here once so that forked workers inherit it
    unweighted = adjacency_for(graph, False) if "cnr" in grid.get("ablate", ()) else None

    def run_one(params: dict) -> tuple[float, float]:
        dropped = params.get("ablate", "none")
        x, weighted = ablate_columns(fm, None if dropped == "none" else dropped)
        _, confusion = run_training(x, a_hat if weighted else unweighted, prep.dataset,
                                    point_config(params))
        return accuracy(confusion["val"]), accuracy(confusion["test"])

    workers = worker_count(math.prod(map(len, grid.values())))
    doc = sweep(run_one, grid, preferred=preferred, workers=workers)
    # sweep.csv is the document's table: the settings in name order, then
    # each row's scores
    keys, rows = sorted(grid), doc["rows"]
    scores = [k for k in rows[0] if k != "overrides"]
    csv_file = out / "sweep.csv"
    write_table(csv_file, ([*map(r["overrides"].get, keys), *map(r.get, scores)]
                           for r in rows), keys + scores)
    json_file = out / "sweep.json"
    write_json(json_file, doc)
    print(f"swept {len(rows)} settings; best: {doc['best']}")
    return Manifest(
        {"grid": {k: [setting_text(v) for v in vs] for k, vs in grid.items()},
         "workers": workers, "ingest": prep.bundle.report.as_dict()},
        files.inputs(), {"sweep_csv": csv_file, "sweep_json": json_file}, args.seed,
    )


def cmd_synth(args) -> Manifest:
    try:  # a refused setting is a usage error, raised before --out is made
        config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
        check_export_settings(args.n_sources, args.perturbation)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    out = _out_dir(args)
    truth = generate(config)
    graph = truth.route_graph
    if not p2c_is_acyclic(graph):
        raise ValueError("the planted provider-customer hierarchy has a cycle")
    paths, stats = simulate_paths(truth, config)
    bad = np.flatnonzero(policy_violations(graph, paths))
    if len(bad):
        lo, hi = paths.offsets[bad[0]:bad[0] + 2].tolist()
        first = "|".join(map(str, paths.hops[lo:hi].tolist()))
        raise ValueError(
            f"{len(bad)} of {len(paths)} simulated paths break the export "
            f"policy; the first is {first}"
        )
    files = export(
        truth, paths, out,
        n_sources=args.n_sources,
        perturbation=args.perturbation,
        seed=args.seed,
    )
    counts = graph.links.counts()
    print(f"planted {len(truth.tier)} nodes, {len(graph.links)} edges "
          f"({', '.join(f'{c.value}={n}' for c, n in counts.items())})")
    print(f"emitted {stats.emitted} paths from {len(stats.vantage_points)} "
          f"vantage points ({stats.unreachable} unreachable, "
          "no policy violations)")
    return Manifest(
        {**asdict(config), "n_sources": args.n_sources,
         "perturbation": args.perturbation,
         "vantage_points": len(stats.vantage_points),
         "emitted": stats.emitted, "unreachable": stats.unreachable,
         "policy_violations": len(bad)},
        {}, files, args.seed,
    )


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgprel",
        description="Infer AS business relationships from BGP path observations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and sanitize a paths file")
    p.add_argument("--paths", required=True)
    p.add_argument("--alloc")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="build the node feature matrix")
    _add_data_flags(p, labels=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("dataset", help="vote, override, balance and split labels")
    _add_data_flags(p)
    _add_mode_flag(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train the edge classifier")
    _add_data_flags(p)
    _add_mode_flag(p)
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--wd", type=float, help="weight decay strength")
    p.add_argument("--epochs", type=int)
    p.add_argument("--blocks", type=_blocks, help="BLOCKSxLAYERS, e.g. 2x1")
    p.add_argument("--hidden", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify AS pairs with a checkpoint, "
                       "and score it on the labels its data holds")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True, help="its class names are used")
    p.add_argument("--pairs", help="a|b lines; defaults to every observed edge")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="grid search over training settings and dropped inputs")
    _add_data_flags(p)
    _add_mode_flag(p)
    p.add_argument("--lr", type=_comma_list(float), help="comma list of learning rates")
    p.add_argument("--wd", type=_comma_list(float), help="comma list of weight decays")
    p.add_argument("--blocks", type=_comma_list(_blocks),
                   help="comma list of BLOCKSxLAYERS specs")
    p.add_argument("--ablate", type=_comma_list(_ablation),
                   help="comma list of inputs to drop, one a run; none drops nothing")
    p.add_argument("--epochs", type=int, help="fixed for every grid entry")
    p.add_argument("--hidden", type=int, help="fixed for every grid entry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic topology bundle")
    for f in fields(SynthConfig):  # one flag per setting, with its default
        p.add_argument(f"--{f.name.replace('_', '-')}", type=int, default=f.default)
    p.add_argument("--n-sources", type=int, default=3)
    p.add_argument("--perturbation", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


@functools.cache
def _tune_allocator() -> None:
    """Serve blocks up to 32 MiB from the heap and keep up to 64 MiB of
    free heap, so that each epoch's temporaries reuse memory instead of
    being mmapped and page-faulted afresh.

    glibc starts its mmap threshold at 128 KiB and raises it only when
    a large mmapped block is freed; without this the epoch speed would
    depend on whether the front end happened to free such blocks first.
    Where libc has no ``mallopt`` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


# what a command raises to refuse its inputs or settings, each an error line
_REFUSALS = (FileNotFoundError, ValueError, KeyError, TrainingDivergedError)


def run(argv: list[str] | None = None) -> int:
    _tune_allocator()
    pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    _input_digest.cache_clear()
    try:
        _check_out(args.out)
        record = args.func(args)
        write_manifest(Path(args.out), args.command, *record, started)
        return 0
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if not (isinstance(exc, _REFUSALS) or worker_died(exc)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
