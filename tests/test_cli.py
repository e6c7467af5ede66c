import builtins
import hashlib
import io
import json
import os
import platform
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from bgprel import cli, pipeline
from bgprel.cli import run
from bgprel.dataset import RelLabel
from bgprel.ingest import PathStore
from bgprel.pipeline import DataFiles, build_bundle, prepare


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


def test_synth_manifest_records_simulation_counts(data_dir):
    config = json.loads((data_dir / "manifest.json").read_text())["config"]
    with open(data_dir / "paths.txt", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    assert config["emitted"] == lines > 0
    # 15 asked for, but the collector pool is the oldest quarter of 40 mids
    assert config["vantage_points"] == 10
    assert config["emitted"] + config["unreachable"] == 10 * 60
    assert config["policy_violations"] == 0


def test_synth_fails_on_a_policy_violation(tmp_path, monkeypatch, capsys):
    simulate = cli.simulate_paths
    valleys = []

    def with_a_valley(truth, config):
        paths, stats = simulate(truth, config)
        # down from one provider of a multihomed network, up to another
        providers = {}
        for p, c in truth.p2c_pairs():
            providers.setdefault(c, []).append(p)
        c = min(c for c, ps in providers.items() if len(ps) > 1)
        valleys.append((providers[c][0], c, providers[c][1]))
        return PathStore.from_hops([*(p.hops for p in paths), valleys[0]]), stats

    monkeypatch.setattr(cli, "simulate_paths", with_a_valley)
    out = tmp_path / "o"
    assert run(["synth", *SYNTH_FLAGS, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    first = "|".join(map(str, valleys[0]))
    assert re.search(r"error: 1 of \d+ simulated paths break the export "
                     rf"policy; the first is {re.escape(first)}$", err.strip())
    assert not (out / "paths.txt").exists()


def test_synth_refuses_a_cyclic_hierarchy(tmp_path, monkeypatch, capsys):
    generate = cli.generate

    def with_a_cycle(config):
        truth = generate(config)
        a, b, c = (max(truth.tier) + i for i in (1, 2, 3))
        for provider, customer in ((a, b), (b, c), (c, a)):
            truth.tier[provider] = "stub"
            truth.add(provider, customer, RelLabel.P2C, provider=provider)
        return truth

    monkeypatch.setattr(cli, "generate", with_a_cycle)
    out = tmp_path / "o"
    assert run(["synth", *SYNTH_FLAGS, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: the planted provider-customer hierarchy has a cycle"
    assert not (out / "paths.txt").exists()


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


def test_ingest_counts_a_non_utf8_line(tmp_path, capsys):
    src = tmp_path / "paths.txt"
    src.write_bytes(b"1|2|3\n4|5\xff|6\n7|8\n")
    out = tmp_path / "ingested"
    assert run(["ingest", "--paths", str(src), "--out", str(out)]) == 0
    assert (out / "paths_clean.txt").read_text() == "1|2|3\n7|8\n"
    report = json.loads((out / "ingest_report.json").read_text())
    assert (report["parsed"], report["malformed"]) == (2, 1)


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


def test_dataset_bad_ixp_asn_is_named(data_dir, tmp_path, capsys):
    ixps = tmp_path / "ixps.txt"
    ixps.write_text("# route servers\n99999999999999999999\n")
    code = run([
        "dataset", "--data", str(data_dir), "--ixps", str(ixps),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert f"{ixps} line 2: ASN out of range" in capsys.readouterr().err


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


@pytest.mark.parametrize("command,flag", [
    ("eval", ["--mode", "binary"]), ("eval", ["--seed", "4"]),
    ("eval", ["--delta", "1.0"]), ("predict", ["--delta", "1.0"]),
])
def test_checkpoint_settings_are_not_flags(data_dir, train_dir, tmp_path, command, flag):
    # the checkpoint records them; any other value scores the wrong model
    with pytest.raises(SystemExit) as e:
        run([command, "--data", str(data_dir), *flag,
             "--checkpoint", str(train_dir / "checkpoint.json"),
             "--out", str(tmp_path / "o")])
    assert e.value.code == 2


FIXED_SETTINGS_ARGV = {
    "features": [],
    "train": [],
    "predict": ["--checkpoint", "c.json"],
    "importance": [],
    "sweep": ["--lr", "0.05"],
}


@pytest.mark.parametrize("command,flag,value", [
    *((command, "--k-candidates", "3") for command in FIXED_SETTINGS_ARGV),
    *((command, "--delta", "0.2") for command in ("train", "importance", "sweep")),
])
def test_fixed_feature_settings_are_not_flags(command, flag, value):
    # one clique rule and one weight floor for train, eval and predict
    argv = [command, "--data", "d", *FIXED_SETTINGS_ARGV[command], "--out", "o"]
    cli.build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as e:
        cli.build_parser().parse_args([*argv, flag, value])
    assert e.value.code == 2


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_with_another_delta_is_refused(data_dir, train_dir, tmp_path,
                                                  capsys, command):
    doc = json.loads((train_dir / "checkpoint.json").read_text())
    assert doc["meta"]["delta"] == 0.05
    doc["meta"]["delta"] = 0.2
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    code = run([command, "--data", str(data_dir), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "delta 0.2" in err and "0.05" in err and str(checkpoint) in err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("command,key", [
    ("eval", "mode"), ("eval", "seed"), ("eval", "delta"), ("predict", "delta"),
    ("predict", "classes"),
])
def test_checkpoint_missing_a_setting_is_refused(data_dir, train_dir, tmp_path, capsys,
                                                 command, key):
    doc = json.loads((train_dir / "checkpoint.json").read_text())
    del doc["meta"][key]
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    code = run([command, "--data", str(data_dir), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"does not record '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


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


@pytest.mark.parametrize("line", ["12|x", "12", "1.5|3", "7|-2",
                                  "99999999999999999999|1"])
def test_predict_bad_pairs_line_is_named(data_dir, train_dir, tmp_path, capsys, line):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"# first line is a comment\n{line}\n")
    code = run([
        "predict", "--paths", str(data_dir / "paths.txt"),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--pairs", str(pairs),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert f"{pairs} line 2:" in capsys.readouterr().err


def test_importance_command(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "worker_count", lambda runs: 2)
    out = tmp_path / "imp"
    assert run([
        "importance", "--data", str(data_dir), "--mode", "multi",
        "--epochs", "6", "--hidden", "6", "--seed", "2", "--out", str(out),
    ]) == 0
    lines = (out / "importance.csv").read_text().splitlines()
    assert lines[0] == "feature,accuracy_without,score_percent"
    assert len(lines) == 11  # ten ablatable inputs
    text = capsys.readouterr().out
    assert "baseline accuracy" in text
    assert json.loads((out / "manifest.json").read_text())["config"]["workers"] == 2


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
    want = [[str(a), str(b), label.value, split]
            for a, b, label, split, _ in prep.dataset.edges.rows()]
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


# -- the README advertises only flags the parser takes ---------------------


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("bgprel "):
                yield line.split("#")[0].split()[1:]


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert {argv[0] for argv in commands} >= {"synth", "train", "eval", "predict",
                                              "importance", "sweep", "ingest",
                                              "features", "dataset"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: bgprel {' '.join(argv)}")


# -- every text input follows one data-line rule ---------------------------


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory, data_dir):
    """A data directory with every text input a command reads, a clique
    and an allocation file included, and a pairs file beside it."""
    root = tmp_path_factory.mktemp("text-inputs")
    shutil.copytree(data_dir, root / "data")
    clique = sorted(build_bundle(DataFiles.discover(data_dir)).clique)
    (root / "data" / "clique.txt").write_text("".join(f"{a}\n" for a in clique))
    (root / "data" / "alloc.txt").write_text("1-100\n101-4294967295\n")
    labels = (data_dir / "labels_1.txt").read_text().splitlines()[:5]
    (root / "pairs.txt").write_text("".join(l.rsplit("|", 1)[0] + "\n" for l in labels))
    return root


# input -> its file under ``text_inputs`` and the command that reads it
TEXT_INPUTS = {
    "labels": ("data/labels_1.txt", "dataset"),
    "orgs": ("data/orgs.csv", "dataset"),
    "ixps": ("data/ixps.txt", "dataset"),
    "types": ("data/types.csv", "features"),
    "clique": ("data/clique.txt", "features"),
    "alloc": ("data/alloc.txt", "features"),
    "pairs": ("pairs.txt", "predict"),
}


def _run_reader_of(name, root, train_dir, out):
    command = TEXT_INPUTS[name][1]
    argv = [command, "--data", str(root / "data"), "--out", str(out)]
    if command == "predict":
        argv += ["--checkpoint", str(train_dir / "checkpoint.json"),
                 "--pairs", str(root / "pairs.txt")]
    return run(argv)


@pytest.mark.parametrize("bad", ["nbsp-wrapped", "non-utf8-byte"])
@pytest.mark.parametrize("name", sorted(TEXT_INPUTS))
def test_bad_asn_field_names_file_and_line(name, bad, text_inputs, train_dir,
                                           tmp_path, capsys):
    root = tmp_path / "in"
    shutil.copytree(text_inputs, root)
    f = root / TEXT_INPUTS[name][0]
    first, second, *rest = f.read_bytes().splitlines(keepends=True)
    asn, tail = re.fullmatch(rb"(\d+)(.*)", second, flags=re.S).groups()
    nbsp = "\u00a0".encode()
    second = nbsp + asn + nbsp + tail if bad == "nbsp-wrapped" else asn + b"\xff" + tail
    f.write_bytes(b"".join([first, second, *rest]))
    assert _run_reader_of(name, root, train_dir, tmp_path / "o") == 1
    assert f"{f} line 2: " in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(TEXT_INPUTS))
def test_crlf_blank_and_comment_lines_change_nothing(name, text_inputs, train_dir,
                                                     tmp_path):
    root = tmp_path / "in"
    shutil.copytree(text_inputs, root)
    plain, messy = tmp_path / "plain", tmp_path / "messy"
    assert _run_reader_of(name, root, train_dir, plain) == 0
    f = root / TEXT_INPUTS[name][0]
    first, *rest = f.read_text().splitlines()
    lines = [first, "", "# a comment", " \t", *rest, "  # an indented comment"]
    f.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert _run_reader_of(name, root, train_dir, messy) == 0
    outputs = sorted(p.name for p in plain.iterdir() if p.name != "manifest.json")
    assert outputs
    for output in outputs:
        assert (messy / output).read_bytes() == (plain / output).read_bytes()


def test_predict_unknown_pairs_asn_names_file_and_line(data_dir, train_dir,
                                                       tmp_path, capsys):
    a, b, _ = (data_dir / "labels_1.txt").read_text().splitlines()[0].split("|")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"# pairs\n{a}|{b}\n{a}|99999\n")
    code = run([
        "predict", "--paths", str(data_dir / "paths.txt"),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--pairs", str(pairs), "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{pairs} line 3: AS99999 does not appear in the graph" in err


# -- sweep and importance train in worker processes -------------------------

# each command's argv after --data, and the outputs whose bytes it owns
RUNS_COMMANDS = {
    "sweep": (["--lr", "0.05,0.1", "--wd", "0,5e-4", "--epochs", "6", "--hidden", "6",
               "--seed", "1"], ("sweep.csv", "sweep.json")),
    "importance": (["--epochs", "6", "--hidden", "6", "--seed", "2"],
                   ("importance.csv", "importance.json")),
}


def _run_with_workers(command, data_dir, out, workers, monkeypatch, extra=()):
    monkeypatch.setattr(cli, "worker_count", lambda runs: workers)
    argv, _ = RUNS_COMMANDS[command]
    return run([command, "--data", str(data_dir), *argv, *extra, "--out", str(out)])


@pytest.mark.parametrize("command", sorted(RUNS_COMMANDS))
def test_threads_is_an_unknown_option(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run([command, "--data", str(tmp_path), "--threads", "2",
             "--out", str(tmp_path / "o")])
    assert e.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(RUNS_COMMANDS))
def test_worker_count_does_not_change_outputs(command, data_dir, tmp_path, monkeypatch):
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert _run_with_workers(command, data_dir, out, workers, monkeypatch) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["workers"] == workers
    for name in RUNS_COMMANDS[command][1]:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def _fail_in_one_run(command, monkeypatch, fail):
    """Make one of the command's runs call ``fail``: sweep's lr 0.1 points
    and importance's run without the hierarchy columns."""
    if command == "sweep":
        train = cli.run_training

        def failing(x, a_hat, dataset, config):
            if config.learning_rate == 0.1:
                fail("learning rate 0.1")
            return train(x, a_hat, dataset, config)

        monkeypatch.setattr(cli, "run_training", failing)
    else:
        ablate = pipeline.ablate_columns

        def failing(fm, feature):
            if feature == "hierarchy":
                fail("no hierarchy")
            return ablate(fm, feature)

        monkeypatch.setattr(pipeline, "ablate_columns", failing)


@pytest.mark.parametrize("command", sorted(RUNS_COMMANDS))
def test_error_in_a_worker_exits_like_a_serial_run(command, data_dir, tmp_path,
                                                   monkeypatch, capsys):
    def fail(what):
        raise ValueError(f"planted failure at {what}")

    _fail_in_one_run(command, monkeypatch, fail)
    errors = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert _run_with_workers(command, data_dir, out, workers, monkeypatch) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: planted failure at ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(RUNS_COMMANDS))
def test_divergence_in_a_worker_exits_like_a_serial_run(command, data_dir, tmp_path,
                                                        monkeypatch, capsys):
    errors = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert _run_with_workers(command, data_dir, out, workers, monkeypatch,
                                 ["--lr", "inf"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: non-finite loss")


@pytest.mark.parametrize("command", sorted(RUNS_COMMANDS))
def test_dead_worker_is_an_error_line(command, data_dir, tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def die(what):
        assert os.getpid() != parent, "the run was not in a worker process"
        os._exit(3)

    _fail_in_one_run(command, monkeypatch, die)
    assert _run_with_workers(command, data_dir, tmp_path / "o", 2, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_manifest_records_environment(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "o"
    assert run(["train", "--data", str(data_dir), *SMALL, "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "settings": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                     "MKL_NUM_THREADS": "2"},
    }
