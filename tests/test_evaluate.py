import multiprocessing
import os
import random
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from bgprel.evaluate import (
    ABLATABLE_FEATURES,
    AblationRun,
    accuracy,
    confusion_matrix,
    feature_importance,
    format_confusion,
    map_runs,
    metrics,
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


class TestMetrics:
    def test_hand_computed(self):
        cm = np.array([[5, 5], [0, 10]])
        m0 = metrics(cm, 0)
        assert m0.precision == 1.0
        assert m0.recall == 0.5
        m1 = metrics(cm, 1)
        assert m1.precision == pytest.approx(10 / 15)
        assert m1.recall == 1.0

    def test_diagonal_is_perfect(self):
        cm = np.diag([3, 4, 5, 6])
        for k in range(4):
            m = metrics(cm, k)
            assert (m.precision, m.recall) == (1.0, 1.0)
        assert accuracy(cm) == 1.0

    def test_uniform_four_way(self):
        cm = np.full((4, 4), 2)
        assert accuracy(cm) == pytest.approx(0.25)

    def test_zero_over_zero_flagged(self):
        cm = np.array([[0, 0], [0, 7]])
        m = metrics(cm, 0)
        assert m.precision == 0.0 and not m.precision_defined
        assert m.recall == 0.0 and not m.recall_defined

    def test_identities_on_random_matrices(self):
        rng = random.Random(7)
        for trial in range(30):
            c = rng.choice([2, 4])
            cm = np.array([[rng.randrange(8) for _ in range(c)] for _ in range(c)])
            if cm.sum() == 0:
                cm[0, 0] = 1
            # accuracy is the trace share
            assert accuracy(cm) == pytest.approx(np.trace(cm) / cm.sum())
            for k in range(c):
                m = metrics(cm, k)
                tp = cm[k, k]
                col = cm[:, k].sum()
                row = cm[k, :].sum()
                assert m.precision == pytest.approx(tp / col if col else 0.0)
                assert m.recall == pytest.approx(tp / row if row else 0.0)

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


class TestFeatureImportance:
    def test_scores_sum_to_hundred(self):
        accs = {None: 0.9}
        rng = random.Random(3)
        for name in ABLATABLE_FEATURES:
            accs[name] = 0.9 - rng.uniform(0.0, 0.3)
        report = feature_importance(lambda n: AblationRun(accs[n], seed=42))
        assert not report.degenerate
        total = sum(e.score for e in report.entries)
        assert total == pytest.approx(100.0, abs=0.01)
        assert len(report.entries) == 10
        assert set(report.seeds) == {42}

    def test_scores_match_share_formula(self):
        accs = {None: 0.8, "a": 0.7, "b": 0.9, "c": 0.8}
        report = feature_importance(
            lambda n: AblationRun(accs[n], 0), features=["a", "b", "c"]
        )
        by_name = {e.feature: e.score for e in report.entries}
        assert by_name["a"] == pytest.approx(50.0)
        assert by_name["b"] == pytest.approx(50.0)
        assert by_name["c"] == pytest.approx(0.0)

    def test_degenerate_flagged(self):
        report = feature_importance(
            lambda n: AblationRun(0.5, 7), features=["a", "b"]
        )
        assert report.degenerate
        assert all(e.score is None for e in report.entries)

    def test_threaded_matches_serial(self):
        accs = {None: 0.9}
        rng = random.Random(11)
        for name in ABLATABLE_FEATURES:
            accs[name] = rng.uniform(0.4, 0.9)
        serial = feature_importance(lambda n: AblationRun(accs[n], 1), workers=1)
        forked = feature_importance(lambda n: AblationRun(accs[n], 1), workers=4)
        assert forked.baseline_accuracy == serial.baseline_accuracy
        assert [e.score for e in serial.entries] == [e.score for e in forked.entries]

    def test_report_serialization(self, tmp_path):
        report = feature_importance(
            lambda n: AblationRun(0.5 if n else 0.9, 0), features=["x", "y"]
        )
        assert "baseline_accuracy" in report.to_json()
        out = tmp_path / "imp.csv"
        report.write_csv(out)
        assert out.read_text().splitlines()[0] == "feature,accuracy_without,score_percent"


class TestSweep:
    def test_grid_is_cartesian(self):
        calls = []

        def run(c):
            calls.append(dict(c))
            return (0.5, 0.5)

        report = sweep(run, {"lr": [0.1, 0.05], "wd": [0.0, 5e-4]})
        assert len(report.rows) == 4
        assert {tuple(sorted(c.items())) for c in calls} == {
            (("lr", 0.1), ("wd", 0.0)),
            (("lr", 0.1), ("wd", 5e-4)),
            (("lr", 0.05), ("wd", 0.0)),
            (("lr", 0.05), ("wd", 5e-4)),
        }

    def test_best_by_validation(self):
        scores = {0.1: 0.6, 0.05: 0.9, 0.01: 0.7}
        report = sweep(lambda c: (scores[c["lr"]], 0.0), {"lr": [0.1, 0.05, 0.01]})
        assert report.best == {"lr": 0.05}

    def test_tie_prefers_defaults(self):
        report = sweep(
            lambda c: (0.8, 0.0),
            {"lr": [0.1, 0.05]},
            preferred={"lr": 0.05},
        )
        assert report.best == {"lr": 0.05}

    def test_tie_without_preference_takes_first(self):
        report = sweep(lambda c: (0.8, 0.0), {"lr": [0.1, 0.05]})
        assert report.best == {"lr": 0.1}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(lambda c: (0.0, 0.0), {"lr": []})


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    def test_unset_blas_means_one_worker(self):
        assert worker_count(10) == 1

    def test_one_blas_thread_takes_every_cpu_up_to_the_runs(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert worker_count(10) == 4
        assert worker_count(3) == 3
        assert worker_count(1) == 1

    def test_cpus_are_shared_out_by_blas_threads(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert worker_count(10) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        assert worker_count(10) == 1

    def test_omp_setting_counts_too(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert worker_count(10) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert worker_count(10) == 4  # OPENBLAS_NUM_THREADS comes first

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5", ""])
    def test_bad_setting_counts_as_unset(self, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert worker_count(10) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert worker_count(10) == 2


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
