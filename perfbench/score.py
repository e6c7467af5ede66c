"""Benchmark-side scoring: macro-F1 and per-class recall computed from
bgprel's output files, never from the program's own summaries.

Relationship types are compared without orientation: a p2c call with
the provider on the wrong side still counts as p2c.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Score:
    macro_f1: float
    f1: dict[str, float]
    recall: dict[str, float]
    support: int

    def describe(self, name: str) -> str:
        per_class = " ".join(
            f"{c}: recall={self.recall[c]:.4f} f1={self.f1[c]:.4f}" for c in self.f1
        )
        return f"{name} {self.macro_f1:.4f} over {self.support} edges; {per_class}"


def score_confusion(confusion: list[list[int]], classes: list[str]) -> Score:
    """Macro-F1 over ``classes`` from a confusion matrix with the true
    class on rows.  A 0/0 precision or recall counts as 0, so a class the
    model never predicts scores an F1 of 0 instead of vanishing."""
    k = len(classes)
    if len(confusion) != k or any(len(row) != k for row in confusion):
        raise ValueError(f"confusion matrix is not {k}x{k}")
    f1: dict[str, float] = {}
    recall: dict[str, float] = {}
    for i, name in enumerate(classes):
        tp = confusion[i][i]
        true_i = sum(confusion[i])
        pred_i = sum(row[i] for row in confusion)
        precision = tp / pred_i if pred_i else 0.0
        recall[name] = tp / true_i if true_i else 0.0
        denom = precision + recall[name]
        f1[name] = 2 * precision * recall[name] / denom if denom else 0.0
    support = sum(sum(row) for row in confusion)
    return Score(sum(f1.values()) / k, f1, recall, support)


def _pair(a: str, b: str) -> tuple[int, int]:
    x, y = int(a), int(b)
    return (x, y) if x < y else (y, x)


def read_truth(path: Path) -> dict[tuple[int, int], str]:
    """Planted label per unordered pair from a synth ``truth.csv``."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {_pair(r["a"], r["b"]): r["label"] for r in csv.DictReader(fh)}


def read_predictions(path: Path) -> dict[tuple[int, int], str]:
    """Predicted label per unordered pair; a repeated pair is an error."""
    out: dict[tuple[int, int], str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            key = _pair(r["a"], r["b"])
            if key in out:
                raise ValueError(f"pair {key} predicted twice in {path}")
            out[key] = r["label"]
    return out


def score_predictions(
    predicted: dict[tuple[int, int], str], truth: dict[tuple[int, int], str]
) -> Score:
    """Macro-F1 of predicted against planted labels over the predicted
    pairs; the classes are every label either side uses."""
    missing = [p for p in predicted if p not in truth]
    if missing:
        raise ValueError(f"{len(missing)} predicted pairs have no truth, e.g. {missing[0]}")
    classes = sorted(set(predicted.values()) | {truth[p] for p in predicted})
    pos = {c: i for i, c in enumerate(classes)}
    confusion = [[0] * len(classes) for _ in classes]
    for pair, label in predicted.items():
        confusion[pos[truth[pair]]][pos[label]] += 1
    return score_confusion(confusion, classes)


def score_test_split(metrics_file: Path) -> Score:
    """Macro-F1 of the test confusion matrix in a ``metrics.json``."""
    doc = json.loads(metrics_file.read_text(encoding="utf-8"))
    return score_confusion(doc["test"]["confusion"], doc["classes"])
