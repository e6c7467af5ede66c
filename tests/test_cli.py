import builtins
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from bgprel import cli
from bgprel.cli import run
from bgprel.pipeline import DataFiles, prepare


SYNTH_FLAGS = [
    "--n-tier1", "4", "--n-mid", "40", "--n-stub", "80", "--n-ixp", "6",
    "--n-orgs", "10", "--n-vps", "15", "--paths-per-vp", "60",
    "--n-sources", "3", "--perturbation", "0.05", "--seed", "5",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-synth")
    assert run(["synth", *SYNTH_FLAGS, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli-train")
    code = run([
        "train", "--data", str(data_dir), "--mode", "multi",
        "--epochs", "20", "--hidden", "8", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    return out


def test_help_exits_zero(capsys):
    for argv in ([], ["train"], ["synth"], ["sweep"]):
        with pytest.raises(SystemExit) as e:
            run([*argv, "--help"])
        assert e.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as e:
        run([])
    assert e.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        run(["--version"])
    assert e.value.code == 0


def test_synth_writes_bundle(data_dir):
    names = {p.name for p in data_dir.iterdir()}
    assert {"paths.txt", "labels_1.txt", "labels_2.txt", "labels_3.txt",
            "orgs.csv", "ixps.txt", "types.csv", "truth.csv",
            "manifest.json"} <= names


def test_missing_paths_file_names_it(tmp_path, capsys):
    code = run(["ingest", "--paths", str(tmp_path / "absent.txt"),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "absent.txt" in capsys.readouterr().err


def test_missing_data_dir_names_it(tmp_path, capsys):
    code = run(["train", "--data", str(tmp_path / "nodir"),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "nodir" in capsys.readouterr().err


def test_ingest_roundtrip(data_dir, tmp_path, capsys):
    out = tmp_path / "ingested"
    assert run(["ingest", "--paths", str(data_dir / "paths.txt"),
                "--out", str(out)]) == 0
    assert (out / "paths_clean.txt").read_text() == (
        data_dir / "paths.txt"
    ).read_text()
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["malformed"] == 0


def test_features_command(data_dir, tmp_path, capsys):
    out = tmp_path / "feat"
    assert run(["features", "--paths", str(data_dir / "paths.txt"),
                "--types", str(data_dir / "types.csv"),
                "--out", str(out)]) == 0
    header = (out / "features.csv").read_text().splitlines()[0]
    assert header.startswith("asn,")
    assert len(header.split(",")) == 15
    assert (out / "clique.txt").read_text().strip()


def test_dataset_command(data_dir, tmp_path, capsys):
    out = tmp_path / "ds"
    assert run([
        "dataset",
        "--labels", str(data_dir / "labels_1.txt"),
        "--labels", str(data_dir / "labels_2.txt"),
        "--labels", str(data_dir / "labels_3.txt"),
        "--orgs", str(data_dir / "orgs.csv"),
        "--ixps", str(data_dir / "ixps.txt"),
        "--paths", str(data_dir / "paths.txt"),
        "--mode", "multi", "--seed", "0",
        "--out", str(out),
    ]) == 0
    body = (out / "edges.csv").read_text().splitlines()
    assert body[0] == "a,b,label,split,provenance"
    assert len(body) > 1
    assert (out / "vote_report.json").is_file()


def test_dataset_needs_two_sources(data_dir, tmp_path, capsys):
    code = run([
        "dataset", "--labels", str(data_dir / "labels_1.txt"),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "two" in capsys.readouterr().err


def test_train_outputs(train_dir):
    names = {p.name for p in train_dir.iterdir()}
    assert {"checkpoint.json", "history.csv", "metrics.json",
            "manifest.json"} <= names
    doc = json.loads((train_dir / "metrics.json").read_text())
    assert set(doc["classes"]) == {"p2p", "p2c", "s2s", "x2x"}
    assert 0.0 <= doc["test"]["accuracy"] <= 1.0
    history = (train_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,loss,val_accuracy"
    assert len(history) == 21


def test_manifest_digests_match(train_dir):
    doc = json.loads((train_dir / "manifest.json").read_text())
    assert doc["command"] == "train"
    for entry in doc["outputs"].values():
        digest = hashlib.sha256(
            open(entry["path"], "rb").read()
        ).hexdigest()
        assert digest == entry["sha256"]
    assert doc["wall_time_s"] > 0
    assert any(k.startswith("labels_") for k in doc["inputs"])


def test_train_deterministic(data_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run([
            "train", "--data", str(data_dir), "--epochs", "8",
            "--hidden", "8", "--seed", "3", "--out", str(out),
        ]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()


def test_eval_command(data_dir, train_dir, tmp_path, capsys):
    out = tmp_path / "ev"
    assert run([
        "eval", "--data", str(data_dir),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--out", str(out),
    ]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert "per_class" in doc["test"]
    text = capsys.readouterr().out
    assert "test accuracy" in text


def test_eval_reproduces_training_metrics(data_dir, train_dir, tmp_path):
    out = tmp_path / "ev2"
    assert run([
        "eval", "--data", str(data_dir),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--out", str(out),
    ]) == 0
    got = json.loads((out / "metrics.json").read_text())
    want = json.loads((train_dir / "metrics.json").read_text())
    assert got["test"]["accuracy"] == want["test"]["accuracy"]
    assert got["test"]["confusion"] == want["test"]["confusion"]


def test_predict_command(data_dir, train_dir, tmp_path):
    out = tmp_path / "pred"
    pairs = tmp_path / "pairs.txt"
    first = (data_dir / "labels_1.txt").read_text().splitlines()[0]
    a, b, _ = first.split("|")
    pairs.write_text(f"{a}|{b}\n")
    assert run([
        "predict", "--paths", str(data_dir / "paths.txt"),
        "--types", str(data_dir / "types.csv"),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--pairs", str(pairs),
        "--out", str(out),
    ]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0].startswith("a,b,label,logp_")
    assert len(lines) == 2
    assert lines[1].split(",")[2] in {"p2p", "p2c", "s2s", "x2x"}


def test_predict_unknown_asn_is_runtime_error(data_dir, train_dir, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("999991|999992\n")
    code = run([
        "predict", "--paths", str(data_dir / "paths.txt"),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--pairs", str(pairs),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "999991" in capsys.readouterr().err


def test_importance_command(data_dir, tmp_path, capsys):
    out = tmp_path / "imp"
    assert run([
        "importance", "--data", str(data_dir), "--mode", "multi",
        "--epochs", "6", "--hidden", "6", "--seed", "2",
        "--threads", "2", "--out", str(out),
    ]) == 0
    lines = (out / "importance.csv").read_text().splitlines()
    assert lines[0] == "feature,accuracy_without,score_percent"
    assert len(lines) == 11  # ten ablatable inputs
    text = capsys.readouterr().out
    assert "baseline accuracy" in text


def test_sweep_command(data_dir, tmp_path, capsys):
    out = tmp_path / "sw"
    assert run([
        "sweep", "--data", str(data_dir),
        "--lr", "0.05,0.1", "--blocks", "2x1",
        "--epochs", "6", "--hidden", "6",
        "--seed", "0", "--out", str(out),
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "best" in capsys.readouterr().out


def test_sweep_without_grid_is_usage_error(data_dir, tmp_path, capsys):
    code = run(["sweep", "--data", str(data_dir), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_a_clean_error(data_dir, tmp_path, capsys):
    code = run([
        "train", "--data", str(data_dir), "--lr", "inf",
        "--epochs", "3", "--hidden", "4", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss")
    assert "Traceback" not in err


def test_labels_missing_from_data_dir_names_it(data_dir, tmp_path, capsys):
    d = tmp_path / "nolabels"
    d.mkdir()
    shutil.copy(data_dir / "paths.txt", d)
    code = run(["dataset", "--data", str(d), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "labels_" in err and str(d) in err


def test_predict_needs_no_labels(data_dir, train_dir, tmp_path):
    d = tmp_path / "nolabels"
    d.mkdir()
    for name in ("paths.txt", "types.csv"):
        shutil.copy(data_dir / name, d)
    out = tmp_path / "pred"
    assert run([
        "predict", "--data", str(d),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--out", str(out),
    ]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert len(lines) > 1


def test_dataset_alloc_matches_prepare(data_dir, tmp_path):
    # stubs 91-100 are unallocated, so their labeled links leave the graph
    alloc = tmp_path / "alloc.txt"
    alloc.write_text("1-90\n101-130\n")
    out = tmp_path / "ds"
    assert run([
        "dataset", "--data", str(data_dir), "--alloc", str(alloc),
        "--mode", "multi", "--seed", "4", "--out", str(out),
    ]) == 0
    files = DataFiles.discover(data_dir)
    files.alloc = alloc
    prep = prepare(files, "multi", seed=4)
    assert prep.dropped_offgraph > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dropped_offgraph"] == prep.dropped_offgraph
    rows = [line.split(",")[:4]
            for line in (out / "edges.csv").read_text().splitlines()[1:]]
    want = [[str(e.a), str(e.b), e.label.value, e.split]
            for e in prep.dataset.edges]
    assert rows == want


# -- manifests list every input a command reads ----------------------------


@pytest.fixture(scope="module")
def input_root(tmp_path_factory, data_dir, train_dir):
    """Every conventional input, plus a checkpoint and a pairs file."""
    root = tmp_path_factory.mktemp("cli-inputs")
    shutil.copytree(data_dir, root / "data")
    (root / "data" / "alloc.txt").write_text("1-200\n")
    shutil.copy(train_dir / "checkpoint.json", root)
    a, b, _ = (data_dir / "labels_1.txt").read_text().splitlines()[0].split("|")
    (root / "pairs.txt").write_text(f"{a}|{b}\n")
    return root


SMALL = ["--epochs", "2", "--hidden", "4"]

MANIFEST_COMMANDS = {
    "ingest": ["--paths", "data/paths.txt", "--alloc", "data/alloc.txt"],
    "features": ["--data", "data"],
    "dataset": ["--data", "data"],
    "train": ["--data", "data", *SMALL],
    "eval": ["--data", "data", "--checkpoint", "checkpoint.json"],
    "predict": ["--data", "data", "--checkpoint", "checkpoint.json",
                "--pairs", "pairs.txt"],
    "importance": ["--data", "data", *SMALL],
    "sweep": ["--data", "data", "--lr", "0.05", *SMALL],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
def test_manifest_lists_every_input_read(command, input_root, tmp_path, monkeypatch):
    argv = [command] + [
        str(input_root / v) if (input_root / v).exists() else v
        for v in MANIFEST_COMMANDS[command]
    ]
    opened, read = [], []

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    def write_manifest(*args, **kwargs):
        read.extend(opened)  # the manifest's own hashing is not a read
        return real_write_manifest(*args, **kwargs)

    real_open, real_write_manifest = io.open, cli.write_manifest
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(cli, "write_manifest", write_manifest)
    assert run([*argv, "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    inputs = {
        Path(p).resolve() for p in read
        if isinstance(p, (str, os.PathLike))
        and input_root in Path(p).resolve().parents
    }
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    listed = {Path(e["path"]).resolve() for e in doc["inputs"].values()}
    assert inputs and listed == inputs
