"""Classifier evaluation: confusion matrices, per-class metrics,
feature-importance ablations and hyperparameter sweeps.

The sweep's grid points and the importance harness's retrains are
independent trainings.  ``map_runs`` trains them in forked worker
processes, ``worker_count`` of them: ``min(runs, usable CPUs // BLAS
threads)``, or one, with no pool at all, when the BLAS thread count is
unset, since BLAS then already uses every core.  Each run is the same
single-process training as in a serial loop, and the results come back
in input order, so the reports do not depend on the worker count.
"""

from __future__ import annotations

import csv
import itertools
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

# everything the importance harness can knock out: the seven scalar
# columns, the two one-hot groups (removed whole), and the common
# neighbor ratio edge weighting
ABLATABLE_FEATURES = [
    "degree",
    "transit_degree",
    "dist_to_clique",
    "dist_to_vp_mean",
    "dist_to_vp_min",
    "dist_to_vp_max",
    "assign_vp",
    "hierarchy",
    "as_type",
    "cnr",
]


def confusion_matrix(
    y_true: Sequence[int], y_pred: Sequence[int], n_classes: int
) -> np.ndarray:
    """Counts with true class on rows, predicted class on columns."""
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction/label length mismatch")
    if y_true.size and (
        min(y_true.min(), y_pred.min()) < 0
        or max(y_true.max(), y_pred.max()) >= n_classes
    ):
        raise ValueError("class index out of range")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    precision_defined: bool
    recall_defined: bool


def metrics(cm: np.ndarray, k: int) -> ClassMetrics:
    """One-vs-rest precision and recall for class k; undefined ratios
    (0/0) come back as 0 with the matching flag cleared."""
    cm = np.asarray(cm)
    if not 0 <= k < cm.shape[0]:
        raise ValueError(f"class {k} out of range")
    tp = int(cm[k, k])
    fp = int(cm[:, k].sum()) - tp
    fn = int(cm[k, :].sum()) - tp
    p_def = (tp + fp) > 0
    r_def = (tp + fn) > 0
    return ClassMetrics(
        precision=tp / (tp + fp) if p_def else 0.0,
        recall=tp / (tp + fn) if r_def else 0.0,
        precision_defined=p_def,
        recall_defined=r_def,
    )


def accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm)) / total


def format_confusion(cm: np.ndarray, class_names: Sequence[str]) -> str:
    """Row-major table with the class names across the header."""
    names = list(class_names)
    width = max(len(n) for n in names + ["true\\pred"])
    width = max(width, len(str(int(np.asarray(cm).max(initial=0)))))
    rows = ["  ".join(["true\\pred".ljust(width)] + [n.rjust(width) for n in names])]
    for i, name in enumerate(names):
        cells = [str(int(v)).rjust(width) for v in np.asarray(cm)[i]]
        rows.append("  ".join([name.ljust(width)] + cells))
    return "\n".join(rows)


# -- worker processes ----------------------------------------------------

# the callable of the map in progress; forked workers inherit it, because
# a closure does not pickle
_RUN: Callable | None = None


def _call(item):
    return _RUN(item)


def worker_count(runs: int) -> int:
    """Processes for ``runs`` independent trainings:
    ``min(runs, usable CPUs // BLAS threads)``.  BLAS threads are the
    first positive integer among OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS; when neither holds one, BLAS uses every core, so
    there is one process."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            break
    else:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(runs, cpus // blas))


def map_runs(run: Callable, items: Sequence, workers: int) -> list:
    """``[run(item) for item in items]``, computed by ``workers`` forked
    processes when that is more than one and the platform can fork, and
    in this process otherwise.

    The workers are forked, not spawned, because a run closes over data
    the command has already built (features, propagation matrix,
    splits).  They inherit ``run``; only the items and the results cross
    a pipe, so those must pickle.  The first run (in input order) that
    raises has its exception raised here.  A worker that dies raises
    ``BrokenProcessPool``.  Each worker holds one run's arrays at a time.
    """
    global _RUN
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(run, items))
    _RUN = run
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            return list(pool.map(_call, items))
    finally:
        _RUN = None


# -- feature importance --------------------------------------------------


@dataclass(frozen=True)
class AblationRun:
    """Outcome of one retrain: accuracy plus the seed it used."""

    accuracy: float
    seed: int


@dataclass
class FeatureImportance:
    feature: str
    accuracy_without: float
    score: float | None  # percent share; None when degenerate


@dataclass
class ImportanceReport:
    baseline_accuracy: float
    entries: list[FeatureImportance]
    degenerate: bool
    seeds: list[int]

    def to_json(self) -> str:
        doc = {
            "baseline_accuracy": self.baseline_accuracy,
            "degenerate": self.degenerate,
            "features": [
                {
                    "feature": e.feature,
                    "accuracy_without": e.accuracy_without,
                    "score_percent": e.score,
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def write_csv(self, out: str | Path) -> None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "accuracy_without", "score_percent"])
            for e in self.entries:
                writer.writerow(
                    [e.feature, repr(e.accuracy_without), "" if e.score is None else repr(e.score)]
                )


def feature_importance(
    pipeline: Callable[[str | None], AblationRun],
    features: Sequence[str] = tuple(ABLATABLE_FEATURES),
    workers: int = 1,
) -> ImportanceReport:
    """Score each feature by its share of the total accuracy shift.

    ``pipeline(None)`` trains the full model; ``pipeline(name)`` retrains
    without one feature at the same seed.  Feature i scores
    |acc_base - acc_i| / sum_j |acc_base - acc_j| * 100.  When every
    ablation lands exactly on the baseline accuracy the shares are
    undefined and the report is flagged degenerate instead.  The
    baseline and the ablations run through ``map_runs`` on ``workers``
    processes.
    """
    names = list(features)
    baseline, *ablated = map_runs(pipeline, [None, *names], workers)
    runs = dict(zip(names, ablated))
    diffs = {n: abs(baseline.accuracy - runs[n].accuracy) for n in names}
    denom = sum(diffs.values())
    degenerate = denom == 0.0
    entries = [
        FeatureImportance(
            feature=n,
            accuracy_without=runs[n].accuracy,
            score=None if degenerate else 100.0 * diffs[n] / denom,
        )
        for n in names
    ]
    return ImportanceReport(
        baseline_accuracy=baseline.accuracy,
        entries=entries,
        degenerate=degenerate,
        seeds=[baseline.seed] + [runs[n].seed for n in names],
    )


# -- sweeps ---------------------------------------------------------------


@dataclass
class SweepRow:
    overrides: dict
    val_accuracy: float
    test_accuracy: float


@dataclass
class SweepReport:
    rows: list[SweepRow]
    best: dict

    def write_csv(self, out: str | Path) -> None:
        keys = sorted({k for r in self.rows for k in r.overrides})
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys + ["val_accuracy", "test_accuracy"])
            for r in self.rows:
                writer.writerow(
                    [repr(r.overrides.get(k, "")) for k in keys]
                    + [repr(r.val_accuracy), repr(r.test_accuracy)]
                )

    def to_json(self) -> str:
        doc = {
            "best": {k: repr(v) for k, v in self.best.items()},
            "rows": [
                {
                    "overrides": {k: repr(v) for k, v in r.overrides.items()},
                    "val_accuracy": r.val_accuracy,
                    "test_accuracy": r.test_accuracy,
                }
                for r in self.rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sweep(
    run: Callable[[dict], tuple[float, float]],
    grid: Mapping[str, Sequence],
    preferred: dict | None = None,
    workers: int = 1,
) -> SweepReport:
    """Grid search returning every row and the winner by validation
    accuracy; exact ties fall back to the preferred (default) setting
    when it is among the tied rows, else the earliest grid entry.  The
    grid points run through ``map_runs`` on ``workers`` processes."""
    keys = list(grid)
    combos = [dict(zip(keys, values)) for values in itertools.product(*grid.values())]
    if not combos:
        raise ValueError("empty sweep grid")
    outcomes = map_runs(run, combos, workers)
    rows = [
        SweepRow(overrides=c, val_accuracy=v, test_accuracy=t)
        for c, (v, t) in zip(combos, outcomes)
    ]
    top = max(r.val_accuracy for r in rows)
    tied = [r for r in rows if r.val_accuracy == top]
    best = tied[0].overrides
    if preferred is not None:
        for r in tied:
            if all(preferred.get(k) == v for k, v in r.overrides.items()):
                best = r.overrides
                break
    return SweepReport(rows=rows, best=best)
