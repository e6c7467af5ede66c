"""The benchmark tracer (perfbench/tracing.py) wraps functions at fixed
names in bgprel.cli, bgprel.pipeline and bgprel.gcn.  Installing it in a
fresh interpreter fails if a refactor unbinds one of those names, and a
traced run must write the same bytes as an untraced one."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracing.py"


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

    assert any(s[0] == "gcn.spmm" and under_train(i) for i, s in enumerate(spans))
    predict_spans = json.loads(
        (tmp_path / "traced" / "predict-spans.json").read_text())["spans"]
    assert any(s[0] == "gcn.predict" for s in predict_spans)
