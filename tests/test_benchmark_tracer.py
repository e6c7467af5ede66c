"""The benchmark's view of the program.

The benchmark tracer (perfbench/tracing.py) wraps functions at fixed
names in bgprel.cli, bgprel.pipeline and bgprel.gcn.  Installing it in a
fresh interpreter fails if a refactor unbinds one of those names, and a
traced run must write the same bytes as an untraced one.  The benchmark
also pins the SHA-256 of every file ``bgprel synth`` writes for its
workloads (perfbench/pins.json), so synth's output must not change."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bgprel import cli
from bgprel.pipeline import DataFiles, build_bundle

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracing.py"
PINS = ROOT / "perfbench" / "pins.json"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(argv):
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _bgprel(args, spans=None):
    if spans is None:
        return _run([sys.executable, "-m", "bgprel.cli", *args])
    return _run([sys.executable, str(TRACER), repr(time.time()), str(spans),
                 "--", *args])


def test_tracer_installs_on_every_traced_name():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracing; "
        "tracing.install(tracing.Tracer())"
    )
    _run([sys.executable, "-c", code, str(ROOT / "perfbench")])


def test_traced_tiny_run_matches_untraced(tmp_path):
    data = tmp_path / "data"
    _bgprel(["synth", "--n-mid", "60", "--n-stub", "100", "--n-vps", "10",
             "--paths-per-vp", "150", "--seed", "3", "--out", str(data)])
    outputs = {}
    for kind in ("plain", "traced"):
        out = tmp_path / kind
        train = ["train", "--data", str(data), "--epochs", "5", "--seed", "1",
                 "--out", str(out / "train")]
        predict = ["predict", "--data", str(data), "--checkpoint",
                   str(out / "train" / "checkpoint.json"),
                   "--out", str(out / "predict")]
        traced = kind == "traced"
        _bgprel(train, out / "train-spans.json" if traced else None)
        _bgprel(predict, out / "predict-spans.json" if traced else None)
        outputs[kind] = {
            name: (out / name).read_bytes()
            for name in ("train/checkpoint.json", "train/history.csv",
                         "train/metrics.json", "predict/predictions.csv")
        }
    assert outputs["traced"] == outputs["plain"]

    spans = json.loads((tmp_path / "traced" / "train-spans.json").read_text())["spans"]
    trains = [i for i, s in enumerate(spans) if s[0] == "gcn.train"]
    assert len(trains) == 1 and spans[trains[0]][4]["mode"] == "multi"

    def under_train(i):
        while i >= 0:
            if i == trains[0]:
                return True
            i = spans[i][3]
        return False

    # the tracer times the products of the CountingCsr it makes of
    # pipeline.build_normalized_adjacency's result; training multiplies
    # the plain scipy views its plan cuts of it, so no epoch product
    # reaches it, while predict multiplies that matrix itself
    products = [i for i, s in enumerate(spans) if s[0] == "gcn.spmm"]
    assert not any(map(under_train, products))
    assert any(spans[spans[i][3]][0] == "gcn.predict" for i in products)
    # it still sees every epoch's gradient step inside the training
    steps = [i for i, s in enumerate(spans) if s[0] == "gcn.loss_and_grads"]
    assert len(steps) == 5 and all(map(under_train, steps))
    # train builds one propagation matrix and trains once, at the names
    # the tracer wraps, and scores val and test inside that training
    assert [s[0] for s in spans].count("pipeline.adjacency_for") == 1
    runs = [i for i, s in enumerate(spans) if s[0] == "pipeline.run_training"]
    assert len(runs) == 1

    def under_run(i):
        while i >= 0 and i != runs[0]:
            i = spans[i][3]
        return i == runs[0]

    predicts = [i for i, s in enumerate(spans) if s[0] == "gcn.predict"]
    assert predicts and all(under_run(i) for i in predicts)
    # the front end is traced once each, at the names build_bundle calls
    bundle = build_bundle(DataFiles.discover(data))
    ingests = [s[4] for s in spans if s[0] == "ingest.ingest_file"]
    assert len(ingests) == 1
    assert {k: ingests[0][k] for k in bundle.report.as_dict()} == bundle.report.as_dict()
    graphs = [s[4] for s in spans if s[0] == "topology.build_graph"]
    assert len(graphs) == 1
    assert (graphs[0]["nodes"], graphs[0]["edges"]) == (
        bundle.graph.num_nodes, bundle.graph.num_edges)
    predict_spans = json.loads(
        (tmp_path / "traced" / "predict-spans.json").read_text())["spans"]
    assert any(s[0] == "gcn.predict" for s in predict_spans)


@pytest.mark.parametrize("seed", [1, 5])
def test_default_synth_matches_benchmark_pins(tmp_path, seed):
    # the sweep-1x workload's inputs: default synth with 3% perturbation
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["sweep-1x"][str(seed)]
    out = tmp_path / "data"
    assert cli.run(["synth", "--perturbation", "0.03", "--seed", str(seed),
                    "--out", str(out)]) == 0
    (out / "manifest.json").unlink()  # records a wall time
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir()}
    assert got == pinned


def test_traced_synth_counts_emitted_paths(tmp_path):
    data = tmp_path / "data"
    spans_file = tmp_path / "synth-spans.json"
    _bgprel(["synth", "--n-mid", "60", "--n-stub", "100", "--n-vps", "10",
             "--paths-per-vp", "150", "--seed", "3", "--out", str(data)],
            spans_file)
    spans = json.loads(spans_file.read_text())["spans"]
    simulated = [s for s in spans if s[0] == "synth.simulate_paths"]
    assert len(simulated) == 1
    with open(data / "paths.txt", encoding="utf-8") as fh:
        assert simulated[0][4]["emitted"] == sum(1 for _ in fh) > 0
