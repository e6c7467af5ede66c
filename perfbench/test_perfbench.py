"""Tests of the benchmark's own scorer, input rewrite and span queries.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import random

import pytest

import inputs
import score
import tracing


# -- scorer ----------------------------------------------------------------


def test_perfect_confusion_scores_one():
    s = score.score_confusion([[5, 0], [0, 7]], ["p2p", "p2c"])
    assert s.macro_f1 == 1.0
    assert s.recall == {"p2p": 1.0, "p2c": 1.0}
    assert s.support == 12


def test_collapsed_class_scores_zero_f1():
    # always answering the majority class: accuracy 0.9, macro-F1 well below
    s = score.score_confusion([[0, 10], [0, 90]], ["p2p", "p2c"])
    assert s.recall["p2p"] == 0.0 and s.f1["p2p"] == 0.0
    assert s.f1["p2c"] == pytest.approx(2 * 0.9 / 1.9)
    assert s.macro_f1 == pytest.approx(0.9 / 1.9)


def test_confusion_hand_computed():
    cm = [[3, 1, 0], [2, 4, 0], [0, 0, 5]]
    s = score.score_confusion(cm, ["a", "b", "c"])
    # a: p=3/5 r=3/4, b: p=4/5 r=4/6, c: p=r=1
    f_a = 2 * (3 / 5) * (3 / 4) / (3 / 5 + 3 / 4)
    f_b = 2 * (4 / 5) * (4 / 6) / (4 / 5 + 4 / 6)
    assert s.macro_f1 == pytest.approx((f_a + f_b + 1.0) / 3)
    assert s.recall["b"] == pytest.approx(4 / 6)


def test_confusion_shape_checked():
    with pytest.raises(ValueError):
        score.score_confusion([[1, 0]], ["a", "b"])


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_prediction_scoring_ignores_orientation(tmp_path):
    truth = _write(tmp_path / "truth.csv", "a,b,label\n1,2,p2c\n3,2,p2p\n4,5,s2s\n9,8,p2c\n")
    pred = _write(
        tmp_path / "predictions.csv",
        "a,b,label,logp_p2p\n2,1,p2c,0.0\n2,3,p2c,0.0\n5,4,s2s,0.0\n",
    )
    s = score.score_predictions(score.read_predictions(pred), score.read_truth(truth))
    # unobserved truth edge 8-9 is not scored; p2p is never predicted
    assert s.support == 3
    assert s.recall == {"p2c": 1.0, "p2p": 0.0, "s2s": 1.0}
    assert s.f1["p2c"] == pytest.approx(2 / 3)
    assert s.macro_f1 == pytest.approx((2 / 3 + 0.0 + 1.0) / 3)


def test_duplicate_prediction_rejected(tmp_path):
    pred = _write(tmp_path / "p.csv", "a,b,label\n1,2,p2c\n2,1,p2p\n")
    with pytest.raises(ValueError, match="twice"):
        score.read_predictions(pred)


def test_prediction_without_truth_rejected(tmp_path):
    truth = score.read_truth(_write(tmp_path / "t.csv", "a,b,label\n1,2,p2c\n"))
    with pytest.raises(ValueError, match="no truth"):
        score.score_predictions({(1, 3): "p2c"}, truth)


def test_test_split_from_metrics_json(tmp_path):
    doc = {"classes": ["p2p", "p2c"], "test": {"confusion": [[0, 10], [0, 90]]}}
    f = _write(tmp_path / "metrics.json", json.dumps(doc))
    assert score.score_test_split(f).macro_f1 == pytest.approx(0.9 / 1.9)


# -- raw-dump rewrite --------------------------------------------------------


def _clean_paths(n: int, seed: int = 1) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        hops = rng.sample(range(1, 500), rng.randint(2, 6))
        out.append("|".join(map(str, hops)))
    return out


def test_rewrite_counts_match_bgprel_ingest():
    ingest = pytest.importorskip("bgprel.ingest")
    lines = _clean_paths(20_000)
    raw, expected = inputs.rewrite_raw_dump(lines, seed=3)
    table = ingest.AllocationTable.from_lines(inputs.alloc_lines(499))
    paths, report = ingest.ingest_lines(raw, table)
    got = {k: v for k, v in report.as_dict().items() if k != "accepted"}
    assert got == expected.as_dict()
    assert expected.compressed > 2000 and expected.malformed > 5
    assert expected.rejected_loop > 5 and expected.rejected_unallocated > 5
    # ingest gives back exactly the clean paths
    assert ["|".join(map(str, p.hops)) for p in paths] == lines


def test_rewrite_is_seeded():
    lines = _clean_paths(2_000)
    assert inputs.rewrite_raw_dump(lines, 5) == inputs.rewrite_raw_dump(lines, 5)
    assert inputs.rewrite_raw_dump(lines, 5)[0] != inputs.rewrite_raw_dump(lines, 6)[0]


def test_observed_edges_unordered(tmp_path):
    f = _write(tmp_path / "paths.txt", "3|2|1\n1|2\n4|5\n")
    assert inputs.observed_edges(f) == {(1, 2), (2, 3), (4, 5)}


# -- spans -------------------------------------------------------------------


def test_self_time_and_nesting():
    spans = [
        ["cli.run", 0.0, 10.0, -1, {}],
        ["gcn.train", 1.0, 9.0, 0, {"mode": "multi"}],
        ["gcn.loss_and_grads", 1.0, 4.0, 1, {}],
        ["gcn.forward", 1.0, 2.0, 2, {}],
        ["gcn.spmm", 1.0, 1.5, 3, {}],
        ["gcn.spmm", 3.0, 3.5, 2, {}],
        ["gcn.predict", 5.0, 6.0, 1, {}],
        ["gcn.spmm", 5.0, 5.5, 6, {}],
    ]
    s = tracing.SpanSet(spans)
    assert s.self_time("gcn.loss_and_grads") == pytest.approx(3.0 - 1.0 - 0.5)
    assert s.total("gcn.predict", parent="gcn.train") == 1.0
    assert s.total("gcn.predict", parent="cli.run") == 0.0
    assert s.under(1, "gcn.spmm") == 3
    assert s.under(1, "gcn.loss_and_grads") == 1


def test_layer_metrics_per_epoch_counts():
    spans = [["cli.run", 0.0, 10.0, -1, {}], ["gcn.train", 0.0, 2.0, 0, {"mode": "binary"}]]
    for epoch in range(2):
        base = len(spans)
        spans.append(["gcn.loss_and_grads", epoch, epoch + 0.5, 1, {}])
        spans += [["gcn.spmm", epoch, epoch + 0.01, base, {}] for _ in range(12)]
    command = {"spans": spans, "startup_s": 0.25,
               "rusage": {"user_s": 1.0, "sys_s": 0.5, "minor_faults": 7}}
    m = tracing.layer_metrics([command], [])
    assert m["gcn.spmm_calls_per_epoch.binary"] == 12
    assert m["gcn.spmm_calls_per_epoch.multi"] == 0
    assert m["gcn.epoch_ms.binary"] == pytest.approx(1000.0)
    assert m["cli.startup_s"] == 0.25 and m["cli.minor_faults"] == 7
