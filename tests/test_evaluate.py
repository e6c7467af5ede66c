import json
import multiprocessing
import os
import random
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from bgprel import evaluate
from bgprel.evaluate import (
    accuracy,
    confusion_matrix,
    format_confusion,
    map_runs,
    metrics_doc,
    sweep,
    worker_count,
)


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2)
        assert cm.tolist() == [[1, 1], [1, 2]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)


def per_class(cm: np.ndarray) -> list[dict]:
    """metrics_doc's per-class entries for one split, in class order."""
    names = [f"c{k}" for k in range(len(cm))]
    doc = metrics_doc(names, {"test": cm})
    return [doc["test"]["per_class"][n] for n in names]


class TestMetrics:
    def test_hand_computed(self):
        m0, m1 = per_class(np.array([[5, 5], [0, 10]]))
        assert m0["precision"] == 1.0
        assert m0["recall"] == 0.5
        assert m1["precision"] == 10 / 15
        assert m1["recall"] == 1.0

    def test_diagonal_is_perfect(self):
        cm = np.diag([3, 4, 5, 6])
        for m in per_class(cm):
            assert (m["precision"], m["recall"]) == (1.0, 1.0)
        assert accuracy(cm) == 1.0

    def test_uniform_four_way(self):
        cm = np.full((4, 4), 2)
        assert accuracy(cm) == pytest.approx(0.25)

    def test_zero_over_zero_flagged(self):
        m, _ = per_class(np.array([[0, 0], [0, 7]]))
        assert m["precision"] == 0.0 and not m["precision_defined"]
        assert m["recall"] == 0.0 and not m["recall_defined"]

    def test_identities_on_random_matrices(self):
        rng = random.Random(7)
        for trial in range(30):
            c = rng.choice([2, 4])
            cm = np.array([[rng.randrange(8) for _ in range(c)] for _ in range(c)])
            if cm.sum() == 0:
                cm[0, 0] = 1
            # accuracy is the trace share
            assert accuracy(cm) == np.trace(cm) / cm.sum()
            for k, m in enumerate(per_class(cm)):
                tp = int(cm[k, k])
                col = int(cm[:, k].sum())
                row = int(cm[k, :].sum())
                assert m["precision"] == (tp / col if col else 0.0)
                assert m["recall"] == (tp / row if row else 0.0)
                assert (m["precision_defined"], m["recall_defined"]) == (col > 0, row > 0)

    def test_headline_numbers_hand_computed(self):
        # p2p collapsed: accuracy 0.9, but macro-F1 and balanced accuracy show it
        test = metrics_doc(["p2p", "p2c"], {"test": np.array([[1, 9], [1, 89]])})["test"]
        assert test["accuracy"] == 0.9
        f1_p2p = 2 * 0.5 * 0.1 / 0.6
        f1_p2c = 2 * (89 / 98) * (89 / 90) / (89 / 98 + 89 / 90)
        assert test["macro_f1"] == (0 + f1_p2p + f1_p2c) / 2
        assert test["balanced_accuracy"] == (0 + 0.1 + 89 / 90) / 2

    def test_balanced_accuracy_skips_absent_classes(self):
        # class 1 has no test rows; its recall is undefined, not 0
        test = metrics_doc(["a", "b", "c"],
                           {"test": np.array([[3, 1, 0], [0, 0, 0], [0, 2, 2]])})["test"]
        assert test["balanced_accuracy"] == (0 + 3 / 4 + 2 / 4) / 2
        assert test["macro_f1"] == (0 + 2 * 1.0 * 0.75 / 1.75 + 0.0
                                    + 2 * 1.0 * 0.5 / 1.5) / 3

    def test_macro_f1_is_the_benchmark_scorers(self, perfbench_score):
        rng = np.random.default_rng(25)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            cm = rng.integers(0, 20, size=(k, k))
            cm[rng.random(k) < 0.25, :] = 0  # empty rows
            cm[:, rng.random(k) < 0.25] = 0  # empty columns
            cm[0, 0] += 1
            names = [f"c{i}" for i in range(k)]
            want = perfbench_score.score_confusion(cm.tolist(), names)
            test = metrics_doc(names, {"test": cm})["test"]
            assert test["macro_f1"] == want.macro_f1
            present = cm.sum(axis=1) > 0
            recall = [want.recall[n] for n, p in zip(names, present) if p]
            assert test["balanced_accuracy"] == sum(recall) / len(recall)

    def test_document_layout(self):
        cm = np.array([[1, 2], [3, 4]])
        doc = metrics_doc(["p2p", "p2c"], {"val": cm, "test": cm.T})
        assert list(doc) == ["classes", "val", "test"]
        assert doc["classes"] == ["p2p", "p2c"]
        assert doc["test"]["confusion"] == [[1, 3], [2, 4]]
        assert doc["val"]["accuracy"] == 0.5
        assert json.loads(json.dumps(doc)) == doc  # plain JSON values only

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 2)))

    def test_format_has_header_row(self):
        cm = np.array([[1, 2], [3, 4]])
        text = format_confusion(cm, ["p2p", "p2c"])
        lines = text.splitlines()
        assert "p2p" in lines[0] and "p2c" in lines[0]
        assert lines[1].startswith("p2p")
        assert len(lines) == 3


class TestSweep:
    def test_grid_is_cartesian(self):
        calls = []

        def run(c):
            calls.append(dict(c))
            return (0.5, 0.5)

        doc = sweep(run, {"lr": [0.1, 0.05], "wd": [0.0, 5e-4]})
        assert len(doc["rows"]) == 4
        assert {tuple(sorted(c.items())) for c in calls} == {
            (("lr", 0.1), ("wd", 0.0)),
            (("lr", 0.1), ("wd", 5e-4)),
            (("lr", 0.05), ("wd", 0.0)),
            (("lr", 0.05), ("wd", 5e-4)),
        }

    def test_best_by_validation(self):
        scores = {0.1: 0.6, 0.05: 0.9, 0.01: 0.7}
        doc = sweep(lambda c: (scores[c["lr"]], 0.0), {"lr": [0.1, 0.05, 0.01]})
        assert doc["best"] == {"lr": "0.05"}

    def test_tie_prefers_defaults(self):
        doc = sweep(
            lambda c: (0.8, 0.0),
            {"lr": [0.1, 0.05]},
            preferred={"lr": 0.05},
        )
        assert doc["best"] == {"lr": "0.05"}

    def test_tie_without_preference_takes_first(self):
        doc = sweep(lambda c: (0.8, 0.0), {"lr": [0.1, 0.05]})
        assert doc["best"] == {"lr": "0.1"}

    def test_rows_hold_settings_as_their_flags_read_them_in_grid_order(self):
        outcomes = {((2, 1), "none"): (0.5, 0.25), ((2, 1), "cnr"): (0.75, 0.5),
                    ((1, 1), "none"): (0.75, 1.0), ((1, 1), "cnr"): (0.0, 0.0)}
        doc = sweep(lambda c: outcomes[c["block_spec"], c["ablate"]],
                    {"block_spec": [(2, 1), (1, 1)], "ablate": ["none", "cnr"]},
                    preferred={"block_spec": (1, 1), "ablate": "none"})
        assert doc == {"best": {"block_spec": "1x1", "ablate": "none"}, "rows": [
            {"overrides": {"block_spec": "2x1", "ablate": "none"},
             "val_accuracy": 0.5, "test_accuracy": 0.25},
            {"overrides": {"block_spec": "2x1", "ablate": "cnr"},
             "val_accuracy": 0.75, "test_accuracy": 0.5},
            {"overrides": {"block_spec": "1x1", "ablate": "none"},
             "val_accuracy": 0.75, "test_accuracy": 1.0},
            {"overrides": {"block_spec": "1x1", "ablate": "cnr"},
             "val_accuracy": 0.0, "test_accuracy": 0.0}]}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(lambda c: (0.0, 0.0), {"lr": []})


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    def _blas(self, monkeypatch, threads):
        monkeypatch.setattr(evaluate, "blas_threads", lambda: threads)

    def test_one_blas_thread_takes_every_cpu_up_to_the_runs(self, monkeypatch):
        self._blas(monkeypatch, 1)
        assert worker_count(10) == 4
        assert worker_count(3) == 3
        assert worker_count(1) == 1

    def test_cpus_are_shared_out_by_blas_threads(self, monkeypatch):
        self._blas(monkeypatch, 2)
        assert worker_count(10) == 2

    def test_no_bundled_openblas_means_one_worker(self, monkeypatch):
        self._blas(monkeypatch, None)
        assert worker_count(10) == 1

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_thread_variables_change_nothing(self, monkeypatch, name):
        self._blas(monkeypatch, 1)
        monkeypatch.setenv(name, "2")
        assert worker_count(10) == 4

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5", ""])
    def test_bad_setting_counts_as_unset(self, monkeypatch, value):
        self._blas(monkeypatch, 1)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.setenv(name, value)
            assert worker_count(10) == 4


def _fail_on_three(n):
    if n == 3:
        raise ValueError(f"bad item {n}")
    return n


class TestMapRuns:
    def test_results_come_back_in_input_order(self):
        items = list(range(12))
        assert map_runs(lambda n: n * n, items, 3) == [n * n for n in items]

    def test_runs_in_worker_processes(self):
        pids = map_runs(lambda n: os.getpid(), range(4), 2)
        assert os.getpid() not in pids

    def test_one_worker_runs_in_this_process(self):
        assert set(map_runs(lambda n: os.getpid(), range(3), 1)) == {os.getpid()}

    def test_no_fork_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert set(map_runs(lambda n: os.getpid(), range(3), 2)) == {os.getpid()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_run_raises_its_error(self, workers):
        with pytest.raises(ValueError, match="^bad item 3$"):
            map_runs(_fail_on_three, range(6), workers)

    def test_a_dead_worker_breaks_the_map(self):
        def die_on_two(n):
            if n == 2:
                os._exit(3)
            return n

        with pytest.raises(BrokenProcessPool):
            map_runs(die_on_two, range(4), 2)
