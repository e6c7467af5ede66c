"""Command line front end.

Every subcommand writes its artifacts under --out together with a
manifest.json recording the invocation, the input and output file
digests, the seed, the library versions and thread settings, and the
wall time, so a run can be audited later.
Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from array import array
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dataset import balance_and_split
from .evaluate import (
    ABLATABLE_FEATURES,
    accuracy,
    feature_importance,
    format_confusion,
    metrics,
    sweep,
    worker_count,
)
from .gcn import (
    BINARY_DEFAULTS,
    MULTI_DEFAULTS,
    WEIGHT_FLOOR,
    GcnModel,
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
    write_paths_file,
)
from .pipeline import (
    SIDE_FILES,
    DataFiles,
    adjacency_for,
    build_bundle,
    importance_runner,
    prepare,
    prepare_labels,
    run_experiment,
    run_training,
    score_splits,
)
from .gcn import predict as gcn_predict
from .synth import (
    SynthConfig,
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
            name: {"path": str(p), "sha256": _sha256(p)}
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
            # the BLAS and OpenMP thread settings as this process saw them,
            # not the thread count the BLAS library reports
            "settings": {name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "wall_time_s": time.perf_counter() - started,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


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


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("binary", "multi"), default="multi")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--wd", type=float, help="weight decay strength")
    p.add_argument("--epochs", type=int)
    p.add_argument("--blocks", type=_blocks, help="BLOCKSxLAYERS, e.g. 2x1")
    p.add_argument("--hidden", type=int)
    p.add_argument("--seed", type=int, default=0)


def _require(path_str: str | None, what: str) -> Path:
    if not path_str:
        raise SystemExit2(f"missing required flag for {what}")
    p = Path(path_str)
    if not p.is_file():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _files_from_args(
    args, need_labels: bool = True, need_paths: bool = True
) -> DataFiles:
    if args.data:
        files = DataFiles.discover(args.data)
    elif need_paths or args.paths:
        files = DataFiles(paths=_require(args.paths, "paths"), labels=[])
    else:
        files = DataFiles(paths=None, labels=[])
    # explicit flags override whatever discovery found
    for name in SIDE_FILES:
        if getattr(args, name, None):
            setattr(files, name, _require(getattr(args, name), name))
    if not need_labels:
        # keep the bundle to what the command reads, so the manifest is too
        files.labels, files.orgs, files.ixps = [], None, None
        return files
    if args.labels:
        files.labels = [_require(l, "labels") for l in args.labels]
    if len(files.labels) < 2:
        where = f" or labels_*.txt files in {args.data}" if args.data else ""
        raise SystemExit2(
            f"need at least two --labels sources{where}, got {len(files.labels)}"
        )
    return files


# the TrainConfig field each training flag sets
_OVERRIDES = {"lr": "learning_rate", "wd": "weight_decay", "epochs": "epochs",
              "blocks": "block_spec", "hidden": "hidden"}


def _overrides(args, flags=tuple(_OVERRIDES)) -> dict:
    """The TrainConfig fields the given flags set on this command line."""
    return {_OVERRIDES[f]: getattr(args, f) for f in flags
            if getattr(args, f) is not None}


def _check_width(model, bundle) -> None:
    """Refuse a checkpoint trained on a different feature width."""
    if model.input_dim != bundle.features.values.shape[1]:
        raise ValueError(
            f"checkpoint expects {model.input_dim} feature columns, "
            f"data has {bundle.features.values.shape[1]}"
        )


def _recorded(meta: dict, key: str, checkpoint: Path):
    """A setting the checkpoint was trained with; there is no default."""
    if key not in meta:
        raise ValueError(f"checkpoint {checkpoint} does not record {key!r}")
    return meta[key]


def _load_checkpoint(args) -> tuple[Path, GcnModel, dict]:
    """The --checkpoint file, its model and its meta.  It is refused
    unless it was trained with this version's edge weight floor."""
    checkpoint = _require(args.checkpoint, "checkpoint")
    model, meta = load_checkpoint(checkpoint)
    if (delta := _recorded(meta, "delta", checkpoint)) != WEIGHT_FLOOR:
        raise ValueError(f"checkpoint {checkpoint} was trained with delta {delta}, "
                         f"but the propagation matrix uses {WEIGHT_FLOOR}")
    return checkpoint, model, meta


def _metrics_doc(class_names, splits: dict) -> dict:
    """Accuracy and one-vs-rest precision/recall per split."""
    doc: dict = {"classes": list(class_names)}
    for name, cm in splits.items():
        per_class = {}
        for k, cls in enumerate(class_names):
            m = metrics(cm, k)
            per_class[cls] = {
                "precision": m.precision,
                "recall": m.recall,
                "precision_defined": m.precision_defined,
                "recall_defined": m.recall_defined,
            }
        doc[name] = {
            "accuracy": accuracy(cm),
            "confusion": cm.tolist(),
            "per_class": per_class,
        }
    return doc


# -- subcommands -----------------------------------------------------------


def cmd_ingest(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    paths_file = _require(args.paths, "paths")
    table = AllocationTable.load(_require(args.alloc, "alloc")) if args.alloc else None
    paths, report = ingest_file(paths_file, table)
    clean = out / "paths_clean.txt"
    write_paths_file(paths, clean)
    report_file = out / "ingest_report.json"
    report_file.write_text(report.to_json(), encoding="utf-8")
    write_manifest(
        out, "ingest", {"alloc": bool(table)},
        {"paths": paths_file, "alloc": Path(args.alloc) if args.alloc else None},
        {"paths_clean": clean, "report": report_file}, None, started,
    )
    print(f"parsed {report.parsed} paths, kept {report.accepted}")
    print(
        f"compressed {report.compressed}, loops {report.rejected_loop}, "
        f"unallocated {report.rejected_unallocated}, malformed {report.malformed}"
    )
    return 0


def cmd_features(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    files = _files_from_args(args, need_labels=False)
    bundle = build_bundle(files)
    features_file = out / "features.csv"
    write_features_csv(bundle.features, features_file)
    clique_file = out / "clique.txt"
    clique_file.write_text(
        "".join(f"{a}\n" for a in sorted(bundle.clique)), encoding="utf-8"
    )
    write_manifest(
        out, "features", {}, files.inputs(),
        {"features": features_file, "clique": clique_file}, None, started,
    )
    print(f"graph: {bundle.graph.num_nodes} nodes, {bundle.graph.num_edges} edges")
    print(f"clique: {sorted(bundle.clique)}")
    diag = bundle.features.diagnostics
    if diag.get("unreachable_clique_pairs"):
        print(f"unreachable clique pairs: {diag['unreachable_clique_pairs']}")
    return 0


def cmd_dataset(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    files = _files_from_args(args, need_paths=False)
    if files.paths:
        prep = prepare(files, args.mode, args.seed)
        split_set, report = prep.dataset.edges, prep.vote_report
        dropped = prep.dropped_offgraph
    else:
        labeled, report = prepare_labels(files)
        split_set = balance_and_split(labeled, args.seed, args.mode)
        dropped = 0
    edges_file = out / "edges.csv"
    split_set.write_csv(edges_file)
    vote_file = out / "vote_report.json"
    vote_file.write_text(report.to_json(), encoding="utf-8")
    write_manifest(
        out, "dataset", {"mode": args.mode, "dropped_offgraph": dropped},
        files.inputs(), {"edges": edges_file, "vote_report": vote_file},
        args.seed, started,
    )
    counts = split_set.counts()
    print(f"voted pairs: {report.intersection_pairs} of {report.union_pairs} "
          f"(coincidence rate {report.coincidence_rate:.4f})")
    print("class counts: " + ", ".join(
        f"{c.value}={n}" for c, n in counts.items() if n
    ))
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    files = _files_from_args(args)
    exp = run_experiment(files, args.mode, args.seed, **_overrides(args))
    outcome, dataset, config = exp.outcome, exp.dataset, exp.outcome.config

    checkpoint = out / "checkpoint.json"
    save_checkpoint(
        checkpoint,
        outcome.result.model,
        meta={
            "mode": args.mode,
            "seed": args.seed,
            "delta": WEIGHT_FLOOR,
            "classes": dataset.class_names,
            "best_epoch": outcome.result.best_epoch,
        },
    )
    history = out / "history.csv"
    write_history_csv(outcome.result.history, history)
    metrics_file = out / "metrics.json"
    doc = _metrics_doc(dataset.class_names, outcome.confusion)
    doc["best_epoch"] = outcome.result.best_epoch
    doc["best_val_accuracy"] = outcome.result.best_val_accuracy
    doc["vote"] = json.loads(exp.vote_report.to_json())
    doc["dropped_offgraph"] = exp.dropped_offgraph
    doc["clique"] = sorted(exp.bundle.clique)
    metrics_file.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_manifest(
        out, "train",
        {**asdict(config), "block_spec": list(config.block_spec)},
        files.inputs(),
        {"checkpoint": checkpoint, "history": history, "metrics": metrics_file},
        args.seed, started,
    )
    print(f"best epoch {outcome.result.best_epoch}: "
          f"val accuracy {outcome.val_accuracy:.4f}, "
          f"test accuracy {outcome.test_accuracy:.4f}")
    print(format_confusion(outcome.confusion["test"], dataset.class_names))
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    checkpoint, model, meta = _load_checkpoint(args)
    mode, seed = (_recorded(meta, k, checkpoint) for k in ("mode", "seed"))
    files = _files_from_args(args)
    prep = prepare(files, mode, seed)
    bundle, dataset = prep.bundle, prep.dataset
    _check_width(model, bundle)
    a_hat = adjacency_for(bundle.graph, True)
    splits = score_splits(model, a_hat, bundle.features.values, dataset)
    doc = _metrics_doc(dataset.class_names, splits)
    metrics_file = out / "metrics.json"
    metrics_file.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_manifest(
        out, "eval", {"mode": mode},
        {"checkpoint": checkpoint, **files.inputs()},
        {"metrics": metrics_file}, seed, started,
    )
    print(f"val accuracy {accuracy(splits['val']):.4f}, "
          f"test accuracy {accuracy(splits['test']):.4f}")
    print(format_confusion(splits["test"], dataset.class_names))
    return 0


def cmd_predict(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    checkpoint, model, meta = _load_checkpoint(args)
    classes = _recorded(meta, "classes", checkpoint)
    files = _files_from_args(args, need_labels=False)
    bundle = build_bundle(files)
    _check_width(model, bundle)

    graph = bundle.graph
    pair_file = _require(args.pairs, "pairs") if args.pairs else None
    if pair_file:
        wanted = _read_pairs(pair_file, graph)
        rows = graph.positions(wanted)
    else:
        wanted, rows = graph.edges(), graph.edge_positions()
    a_hat = adjacency_for(graph, True)
    pred, logp = gcn_predict(model, a_hat, bundle.features.values, rows)
    pred_file = out / "predictions.csv"
    with open(pred_file, "w", encoding="utf-8") as fh:
        fh.write("a,b,label," + ",".join(f"logp_{c}" for c in classes) + "\n")
        for (a, b), k, lp in zip(wanted, pred, logp):
            fh.write(f"{a},{b},{classes[k]}," + ",".join(repr(v) for v in lp) + "\n")
    write_manifest(
        out, "predict", {"pairs": len(wanted)},
        {"checkpoint": checkpoint, "pairs": pair_file, **files.inputs()},
        {"predictions": pred_file}, None, started,
    )
    print(f"wrote {len(wanted)} predictions to {pred_file}")
    return 0


def _read_pairs(path: Path, graph: AsGraph) -> np.ndarray:
    """The ``a|b`` pairs of a pairs file, as an (n, 2) int64 array; an
    ASN the graph does not hold is refused naming its line."""
    pairs = array("q")
    for where, bits in read_fields(path, "|"):
        if len(bits) < 2:
            raise ValueError(f"{where}: expected two ASNs a|b, got {bits[0]!r}")
        for asn in (parse_asn(bits[0], where), parse_asn(bits[1], where)):
            if asn not in graph:
                raise ValueError(f"{where}: AS{asn} does not appear in the graph")
            pairs.append(asn)
    return np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)


def cmd_importance(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    files = _files_from_args(args)
    prep = prepare(files, args.mode, args.seed)
    config = TrainConfig.for_mode(args.mode, args.seed, **_overrides(args))
    runner = importance_runner(prep.bundle.graph, prep.bundle.features,
                               prep.dataset, config)
    workers = worker_count(len(ABLATABLE_FEATURES) + 1)  # with the baseline
    report = feature_importance(runner, workers=workers)
    csv_file = out / "importance.csv"
    report.write_csv(csv_file)
    json_file = out / "importance.json"
    json_file.write_text(report.to_json(), encoding="utf-8")
    write_manifest(
        out, "importance",
        {**asdict(config), "block_spec": list(config.block_spec),
         "workers": workers},
        files.inputs(),
        {"importance_csv": csv_file, "importance_json": json_file},
        args.seed, started,
    )
    print(f"baseline accuracy {report.baseline_accuracy:.4f}")
    if report.degenerate:
        print("importance degenerate: removals never changed accuracy")
    for e in sorted(report.entries, key=lambda e: -(e.score or 0.0)):
        share = "n/a" if e.score is None else f"{e.score:6.2f}%"
        print(f"  {e.feature:<16} {share}  (without: {e.accuracy_without:.4f})")
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    files = _files_from_args(args)
    prep = prepare(files, args.mode, args.seed)
    fm = prep.bundle.features
    a_hat = adjacency_for(prep.bundle.graph, True)

    grid: dict[str, list] = {}
    if args.lr:
        grid["learning_rate"] = [float(v) for v in args.lr.split(",")]
    if args.wd:
        grid["weight_decay"] = [float(v) for v in args.wd.split(",")]
    if args.blocks:
        grid["block_spec"] = [_blocks(v) for v in args.blocks.split(",")]
    if not grid:
        raise SystemExit2("sweep needs at least one of --lr, --wd, --blocks lists")
    defaults = BINARY_DEFAULTS if args.mode == "binary" else MULTI_DEFAULTS
    preferred = {k: defaults[k] for k in grid if k in defaults}
    fixed = _overrides(args, ("epochs", "hidden"))

    def run_one(params: dict) -> tuple[float, float]:
        config = TrainConfig.for_mode(args.mode, args.seed, **fixed, **params)
        outcome = run_training(fm.values, a_hat, prep.dataset, config)
        return outcome.val_accuracy, outcome.test_accuracy

    workers = worker_count(math.prod(map(len, grid.values())))
    report = sweep(run_one, grid, preferred=preferred, workers=workers)
    csv_file = out / "sweep.csv"
    report.write_csv(csv_file)
    json_file = out / "sweep.json"
    json_file.write_text(report.to_json(), encoding="utf-8")
    write_manifest(
        out, "sweep", {"grid": {k: [repr(v) for v in vs] for k, vs in grid.items()},
                       "workers": workers},
        files.inputs(), {"sweep_csv": csv_file, "sweep_json": json_file},
        args.seed, started,
    )
    print(f"swept {len(report.rows)} settings; best: {report.best}")
    return 0


def cmd_synth(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    truth = generate(config)
    if not p2c_is_acyclic(truth):
        raise ValueError("the planted provider-customer hierarchy has a cycle")
    paths, stats = simulate_paths(truth, config)
    bad = np.flatnonzero(policy_violations(truth, paths))
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
    write_manifest(
        out, "synth",
        {**asdict(config), "n_sources": args.n_sources,
         "perturbation": args.perturbation,
         "vantage_points": len(stats.vantage_points),
         "emitted": stats.emitted, "unreachable": stats.unreachable,
         "policy_violations": len(bad)},
        {}, files, args.seed, started,
    )
    counts = truth.counts()
    print(f"planted {len(truth.tier)} nodes, {len(truth.labels)} edges "
          f"({', '.join(f'{c.value}={n}' for c, n in counts.items())})")
    print(f"emitted {stats.emitted} paths from {len(stats.vantage_points)} "
          f"vantage points ({stats.unreachable} unreachable, "
          "no policy violations)")
    return 0


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
    p.add_argument("--mode", choices=("binary", "multi"), default="multi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train the edge classifier")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the held-out splits")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True, help="its mode and seed are used")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify AS pairs with a checkpoint")
    _add_data_flags(p, labels=False)
    p.add_argument("--checkpoint", required=True, help="its class names are used")
    p.add_argument("--pairs", help="a|b lines; defaults to every observed edge")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("importance", help="leave-one-out feature importance")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("sweep", help="grid search over training settings")
    _add_data_flags(p)
    p.add_argument("--mode", choices=("binary", "multi"), default="multi")
    p.add_argument("--lr", help="comma list of learning rates")
    p.add_argument("--wd", help="comma list of weight decays")
    p.add_argument("--blocks", help="comma list of BLOCKSxLAYERS specs")
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


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, KeyError, TrainingDivergedError,
            BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
