"""Classifier evaluation: confusion matrices, the metrics document and
sweeps over training settings and dropped inputs.

``metrics_doc`` builds the numbers of ``metrics.json`` from each split's
confusion matrix in one numpy pass: per-class precision and recall,
accuracy, macro-F1 and balanced accuracy.  It is the only code that
computes per-class precision or recall.

``sweep`` returns the ``sweep.json`` document itself, every grid
point's settings as their flags read them with its accuracies, and the
best point; ``sweep.csv`` is that document's table.

A sweep's grid points are independent trainings.  ``map_runs`` trains
them in forked worker processes, ``worker_count`` of them: ``min(runs,
usable CPUs // blas_threads())``, the count numpy's bundled OpenBLAS
reports, which ``cli.run`` sets to one (``pin_blas_threads``); one
process where that library is not found.  Each run is the same
single-process training as in a serial loop, and the results come back
in input order, so the document does not depend on the worker count.
``ingest.ingest_file`` reads the byte ranges of a paths file the same
way.  The process-pool modules load only where a pool is made.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np


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


def accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm)) / total


def metrics_doc(class_names: Sequence[str], splits: Mapping[str, np.ndarray]) -> dict:
    """metrics.json's numbers: each split's accuracy, confusion matrix
    and one-vs-rest precision and recall per class, and the headline
    numbers that a collapsed class cannot hide behind.  A 0/0 ratio is
    reported as 0 with its ``_defined`` flag cleared.

    ``macro_f1`` averages the per-class F1 over every class, an F1 being
    0 where precision + recall is 0; it is summed in class order, as
    perfbench's ``score_confusion`` sums it, so the two agree exactly.
    ``balanced_accuracy`` is the mean recall over the classes present in
    the split."""
    doc: dict = {"classes": list(class_names)}
    for name, cm in splits.items():
        tp, predicted, true = np.diag(cm), cm.sum(axis=0), cm.sum(axis=1)
        precision = np.divide(tp, predicted, out=np.zeros(len(tp)), where=predicted > 0)
        recall = np.divide(tp, true, out=np.zeros(len(tp)), where=true > 0)
        f1 = np.divide(2 * precision * recall, precision + recall,
                       out=np.zeros(len(tp)), where=precision + recall > 0)
        per_class = zip(class_names, precision.tolist(), recall.tolist(),
                        (predicted > 0).tolist(), (true > 0).tolist())
        doc[name] = {"accuracy": accuracy(cm), "confusion": cm.tolist(), "per_class": {
            cls: {"precision": p, "recall": r, "precision_defined": pd, "recall_defined": rd}
            for cls, p, r, pd, rd in per_class},
            "macro_f1": sum(f1.tolist()) / len(f1),
            "balanced_accuracy": sum(recall[true > 0].tolist()) / np.count_nonzero(true)}
    return doc


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


@functools.cache
def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(dll, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS is set to, or None."""
    return _openblas() and _openblas()[0]()


def pin_blas_threads() -> None:
    """Set numpy's bundled OpenBLAS, where found, to one thread, so that
    no product's sums depend on a thread count; forked workers inherit it."""
    if _openblas() is not None:
        _openblas()[1](1)


def worker_count(runs: int) -> int:
    """Processes for ``runs`` independent jobs, trainings or the byte
    ranges of a paths file: ``min(runs, usable CPUs // blas_threads())``.
    Where numpy's bundled OpenBLAS is not found, BLAS is taken to use
    every CPU, so there is one process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(runs, cpus // (blas_threads() or cpus)))


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
    if workers <= 1:
        return list(map(run, items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return list(map(run, items))
    _RUN = run
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            return list(pool.map(_call, items))
    finally:
        _RUN = None


def worker_died(exc: BaseException) -> bool:
    """Whether ``exc`` is the ``BrokenProcessPool`` that ``map_runs``
    raises when a worker dies.  Its module is looked up, not imported:
    before a pool is made it is not loaded, and nothing has broken."""
    pool = sys.modules.get("concurrent.futures.process")
    return pool is not None and isinstance(exc, pool.BrokenProcessPool)


# -- sweeps ---------------------------------------------------------------


def setting_text(value) -> str:
    """A swept setting as its flag reads it: a block spec as ``2x1``, a
    dropped input's name as given, anything else by ``repr``."""
    if isinstance(value, tuple):
        return "x".join(map(str, value))
    return value if isinstance(value, str) else repr(value)


def sweep(
    run: Callable[[dict], tuple[float, float]],
    grid: Mapping[str, Sequence],
    preferred: dict | None = None,
    workers: int = 1,
) -> dict:
    """The ``sweep.json`` document of a grid search: ``rows``, each grid
    point's settings as their flags read them (``overrides``) with its
    val and test accuracy, in grid order, and ``best``, the settings of
    the point with the top val accuracy.  An exact tie goes to the
    ``preferred`` settings when they are among the tied points, else to
    the earliest.  The grid points run through ``map_runs`` on
    ``workers`` processes."""
    combos = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    if not combos:
        raise ValueError("empty sweep grid")
    outcomes = map_runs(run, combos, workers)
    top = max(val for val, _ in outcomes)
    tied = [c for c, (val, _) in zip(combos, outcomes) if val == top]
    best = next((c for c in tied if preferred is not None
                 and all(preferred.get(k) == v for k, v in c.items())), tied[0])

    def text(settings: dict) -> dict:
        return {k: setting_text(v) for k, v in settings.items()}

    return {"best": text(best), "rows": [
        {"overrides": text(c), "val_accuracy": val, "test_accuracy": test}
        for c, (val, test) in zip(combos, outcomes)]}
