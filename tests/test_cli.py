import argparse
import ast
import builtins
import collections
import hashlib
import io
import json
import os
import platform
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from bgprel import cli, ingest, pipeline
from bgprel.cli import run
from bgprel.dataset import MODE_CLASSES, RelLabel
from bgprel.evaluate import map_runs
from bgprel.ingest import PathStore
from bgprel.pipeline import ABLATABLE_FEATURES, DataFiles, build_bundle, prepare


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


@pytest.mark.parametrize("flags,message", [
    (["--n-vps", "0"], "need at least one vantage point and one path"),
    (["--n-tier1", "0"], "need at least one tier-1 network"),
    (["--n-mid", "-1"], "n_mid cannot be negative"),
    (["--n-vps", "99999"], "more vantage points than nodes"),
    (["--perturbation", "1.5"], "perturbation must lie in [0, 1], got 1.5"),
    (["--perturbation", "-0.5"], "perturbation must lie in [0, 1], got -0.5"),
    (["--n-sources", "0"], "need at least one label source, got 0"),
])
def test_synth_refused_setting_is_usage_error_before_any_work(
        tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.setattr(cli, "generate", lambda *a: pytest.fail("generate ran"))
    out = tmp_path / "o"
    assert run(["synth", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_synth_fails_on_a_policy_violation(tmp_path, monkeypatch, capsys):
    simulate = cli.simulate_paths
    valleys = []

    def with_a_valley(truth, config):
        paths, stats = simulate(truth, config)
        # down from one provider of a multihomed network, up to another
        providers = {}
        for (a, b), p in truth.providers.items():
            providers.setdefault(b if p == a else a, []).append(p)
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


def test_dataset_of_a_directory_without_paths_votes_the_labels_alone(perturbed_dir, tmp_path):
    """``dataset --data D`` on a directory of label and side files only
    writes what the flags naming those files write."""
    labels = sorted(perturbed_dir.glob("labels_*.txt"))
    d = tmp_path / "d"
    d.mkdir()
    for f in [*labels, perturbed_dir / "orgs.csv", perturbed_dir / "ixps.txt"]:
        shutil.copy(f, d)
    assert run(["dataset", "--data", str(d), "--out", str(tmp_path / "dir")]) == 0
    assert run(["dataset", *(a for f in labels for a in ("--labels", str(f))),
                "--orgs", str(perturbed_dir / "orgs.csv"), "--ixps", str(perturbed_dir / "ixps.txt"),
                "--out", str(tmp_path / "flags")]) == 0
    for name in ("edges.csv", "vote_report.json"):
        assert (tmp_path / "dir" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    rows = (tmp_path / "dir" / "edges.csv").read_text().splitlines()[1:]
    per_class = collections.Counter(row.split(",")[2] for row in rows)
    assert sorted(per_class) == ["p2c", "p2p", "s2s", "x2x"]
    assert set(per_class.values()) == {154}


@pytest.mark.parametrize("command", ["ingest", "dataset", "features", "train", "sweep",
                                     "importance"])
def test_a_missing_paths_file_leaves_no_out(command, data_dir, tmp_path, capsys):
    # ingest and dataset read --paths; the others a --data directory
    # without paths.txt, which dataset would take as labels alone;
    # "importance" is a sweep over dropped inputs alone
    missing = tmp_path / "nope.txt"
    d = tmp_path / "d"
    shutil.copytree(data_dir, d)
    (d / "paths.txt").unlink()
    if command in ("ingest", "dataset"):
        argv, message = ["--paths", str(missing)], f"paths file not found: {missing}"
    else:
        argv, message = ["--data", str(d)], f"missing paths file: {d / 'paths.txt'}"
    grid = {"sweep": ["--lr", "0.1"], "importance": ["--ablate", "none,degree"]}
    if command in grid:
        command, argv = "sweep", argv + grid[command]
    out = tmp_path / "o"
    assert run([command, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "synth", "features", "dataset", "train",
                                     "predict", "sweep"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_an_out_that_is_not_a_directory_is_refused_first(command, below, tmp_path, capsys):
    # every input is missing, so an input read before the check would
    # end in a "not found" error instead
    missing = str(tmp_path / "nope")
    argv = {"ingest": ["--paths", missing], "synth": [],
            "predict": ["--data", missing, "--checkpoint", missing],
            "sweep": ["--data", missing, "--lr", "0.1"]}.get(command, ["--data", missing])
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    assert run([command, *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: --out {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("name", ["labels_9.txt", "orgs.csv"])
def test_a_conventional_name_that_is_not_a_file_is_refused(name, data_dir, tmp_path, capsys):
    d = tmp_path / "d"
    shutil.copytree(data_dir, d)
    (d / name).unlink(missing_ok=True)
    (d / name).mkdir()
    out = tmp_path / "o"
    assert run(["dataset", "--data", str(d), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: not a regular file: {d / name}\n"
    assert not out.exists()


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
    assert history[0] == "epoch,loss,val_loss,val_accuracy,grad_norm"
    assert len(history) == 21


def test_manifest_digests_match(train_dir):
    doc = json.loads((train_dir / "manifest.json").read_text())
    assert doc["command"] == "train"
    assert sorted(doc["outputs"]) == ["checkpoint", "history", "metrics"]
    for entry in doc["outputs"].values():
        digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
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


@pytest.fixture(scope="module")
def default_dir(tmp_path_factory):
    """The bundle ``bgprel synth`` writes with its default flags (1x)."""
    out = tmp_path_factory.mktemp("cli-synth-default")
    assert run(["synth", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", ["multi", "binary"])
def test_best_val_accuracy_is_the_reported_val_accuracy(default_dir, tmp_path,
                                                        mode, seed):
    # the loop scores val on its train+val plan and score_splits on a
    # val+test plan; embedding rows do not depend on the plan, and both
    # make the same head call, on the val edges alone, so they read the
    # same float64 log-probabilities
    assert run(["train", "--data", str(default_dir), "--mode", mode,
                "--seed", str(seed), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["best_val_accuracy"] == doc["val"]["accuracy"]


@pytest.fixture(scope="module")
def perturbed_dir(tmp_path_factory):
    """The default 1x bundle with 3% of each source's calls flipped."""
    out = tmp_path_factory.mktemp("cli-synth-1x")
    assert run(["synth", "--perturbation", "0.03", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("mode", ["multi", "binary"])
def test_headline_metrics_agree_with_the_benchmark_scorer(perturbed_dir, tmp_path,
                                                          perfbench_score, mode):
    train_out, predict_out = tmp_path / "train", tmp_path / "predict"
    assert run(["train", "--data", str(perturbed_dir), "--mode", mode,
                "--seed", "0", "--out", str(train_out)]) == 0
    doc = json.loads((train_out / "metrics.json").read_text())
    want = perfbench_score.score_test_split(train_out / "metrics.json")
    assert doc["test"]["macro_f1"] == want.macro_f1
    for split in ("val", "test"):
        assert 0.0 <= doc[split]["macro_f1"] <= 1.0
        assert 0.0 <= doc[split]["balanced_accuracy"] <= 1.0
    assert set(doc["baselines"]) == {"majority", "degree_gap"}
    assert run(["predict", "--data", str(perturbed_dir), "--checkpoint",
                str(train_out / "checkpoint.json"), "--out", str(predict_out)]) == 0
    scored = json.loads((predict_out / "metrics.json").read_text())
    roles = ["train", "val", "test", "left_out"][:4 if mode == "multi" else 3]
    assert sorted(scored) == sorted(["classes", *roles])
    assert {k: scored[k] for k in ("classes", "val", "test")} == {
        k: doc[k] for k in ("classes", "val", "test")}
    assert sum(_scored(scored, role) for role in roles) == _voted_on_graph(perturbed_dir, mode)


def _scored(doc, block):
    """How many edges a block of metrics.json scores."""
    return sum(map(sum, doc[block]["confusion"]))


def _voted_on_graph(data, mode):
    """The voted pairs of the data directory's labels that its graph
    holds, in the classes of ``mode``."""
    files = DataFiles.discover(data)
    usable, _ = pipeline.restrict_to_graph(pipeline.prepare_labels(files)[0],
                                           build_bundle(files).graph)
    return int((usable.label < len(MODE_CLASSES[mode])).sum())


def _predict(data, checkpoint, out, *flags):
    assert run(["predict", "--data", str(data), "--checkpoint", str(checkpoint),
                *flags, "--out", str(out)]) == 0
    return json.loads((out / "metrics.json").read_text())


def test_predict_prints_the_accuracy_of_each_block(data_dir, train_dir, tmp_path, capsys):
    doc = _predict(data_dir, train_dir / "checkpoint.json", tmp_path / "p")
    assert all("per_class" in doc[k] for k in ("train", "val", "test", "left_out"))
    text = capsys.readouterr().out
    assert "val accuracy" in text and "test accuracy" in text
    assert "left_out accuracy" in text


def test_predict_reproduces_training_metrics(data_dir, train_dir, tmp_path):
    got = _predict(data_dir, train_dir / "checkpoint.json", tmp_path / "p")
    want = json.loads((train_dir / "metrics.json").read_text())
    assert got["val"] == want["val"] and got["test"] == want["test"]
    roles = ("train", "val", "test", "left_out")
    assert sorted(got) == sorted(["classes", *roles])
    assert sum(_scored(got, role) for role in roles) == _voted_on_graph(data_dir, "multi")


@pytest.mark.parametrize("with_pairs", [False, True])
def test_predict_scores_every_set_from_one_call(data_dir, train_dir, tmp_path, monkeypatch,
                                                with_pairs):
    """One forward pass: the requested edges first, then each role's."""
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(l.rsplit("|", 1)[0] + "\n" for l in
                             (data_dir / "labels_1.txt").read_text().splitlines()[:5]))
    gcn_predict, calls = cli.gcn_predict, []

    def counting(model, a_hat, x, edge_sets):
        calls.append([len(edges) for edges in edge_sets])
        return gcn_predict(model, a_hat, x, edge_sets)

    monkeypatch.setattr(cli, "gcn_predict", counting)
    doc = _predict(data_dir, train_dir / "checkpoint.json", tmp_path / "p",
                   *(["--pairs", str(pairs)] if with_pairs else []))
    [sizes] = calls
    lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()
    assert sizes[0] == len(lines) - 1
    if with_pairs:
        assert sizes[0] == 5
    assert sorted(sizes[1:]) == sorted(_scored(doc, k) for k in doc if k != "classes")


def test_predict_pairs_answers_as_the_every_edge_run(data_dir, train_dir, tmp_path):
    """A pair's log-probabilities may move in their last bits with the set
    of pairs scored beside it, never its label."""
    _predict(data_dir, train_dir / "checkpoint.json", tmp_path / "all")
    every = {tuple(r[:2]): r[2:] for r in (
        l.split(",") for l in (tmp_path / "all" / "predictions.csv").read_text().splitlines()[1:])}
    picked = list(every)[::97][:6]
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(f"{a}|{b}\n" for a, b in picked))
    _predict(data_dir, train_dir / "checkpoint.json", tmp_path / "some", "--pairs", str(pairs))
    rows = [l.split(",") for l in
            (tmp_path / "some" / "predictions.csv").read_text().splitlines()[1:]]
    assert [tuple(r[:2]) for r in rows] == picked
    for row in rows:
        label, *logp = every[tuple(row[:2])]
        assert row[2] == label
        assert np.allclose(np.array(row[3:], dtype=float), np.array(logp, dtype=float),
                           rtol=0.0, atol=1e-5)


def test_predict_scores_changed_labels_as_one_voted_block(data_dir, train_dir, tmp_path):
    """A test pair taken out of one label source leaves the vote, so the
    redrawn split is not the one train drew, and no edge has a role."""
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    prep = prepare(DataFiles.discover(data), "multi", seed=1)
    test = prep.dataset.edges.take(prep.dataset.edges.split == "test")
    pair = {int(test.a[0]), int(test.b[0])}
    source = data / "labels_1.txt"
    lines = source.read_text().splitlines()
    kept = [l for l in lines if {int(v) for v in l.split("|")[:2]} != pair]
    assert len(kept) < len(lines)
    source.write_text("".join(f"{l}\n" for l in kept))
    doc = _predict(data, train_dir / "checkpoint.json", tmp_path / "p")
    assert sorted(doc) == ["classes", "voted"]
    assert _scored(doc, "voted") == _voted_on_graph(data, "multi")


def test_predict_without_a_split_digest_scores_one_voted_block(data_dir, train_dir,
                                                               tmp_path):
    trained = tmp_path / "train"
    trained.mkdir()
    shutil.copy(train_dir / "checkpoint.json", trained)
    _rewrite_checkpoint(trained, lambda doc: doc["meta"].pop("split"))
    roles = _predict(data_dir, train_dir / "checkpoint.json", tmp_path / "roles")
    doc = _predict(data_dir, trained / "checkpoint.json", tmp_path / "p")
    assert sorted(doc) == ["classes", "voted"]
    assert _scored(doc, "voted") == sum(_scored(roles, k) for k in roles if k != "classes")
    # the predictions do not depend on the digest
    assert ((tmp_path / "p" / "predictions.csv").read_bytes()
            == (tmp_path / "roles" / "predictions.csv").read_bytes())


@pytest.fixture(scope="module")
def three_sibling_pairs(tmp_path_factory, data_dir):
    """The synth bundle with its org map cut to three sibling pairs, so
    that a multi draw puts two pairs of each class in train, one in val
    and none in test."""
    data = tmp_path_factory.mktemp("three-siblings")
    shutil.copytree(data_dir, data, dirs_exist_ok=True)
    edges = prepare(DataFiles.discover(data_dir), "multi", 0).dataset.edges
    picked = []
    for a, b in edges.pairs()[edges.label == MODE_CLASSES["multi"].index(RelLabel.S2S)]:
        if not {a, b} & {asn for pair in picked for asn in pair}:
            picked.append((a, b))
    assert len(picked) >= 3
    (data / "orgs.csv").write_text("asn,org_id\n" + "".join(
        f"{a},org{i}\n{b},org{i}\n" for i, (a, b) in enumerate(picked[:3])))
    return data


@pytest.mark.parametrize("command", ["train", "sweep", "dataset", "dataset-labels"])
def test_a_draw_without_a_test_pair_is_refused_before_out(
        command, three_sibling_pairs, tmp_path, capsys):
    data = str(three_sibling_pairs)
    labels_only = [f"--{flag}={three_sibling_pairs / name}" for flag, name in (
        ("labels", "labels_1.txt"), ("labels", "labels_2.txt"), ("labels", "labels_3.txt"),
        ("orgs", "orgs.csv"), ("ixps", "ixps.txt"))]
    argv = {"train": ["train", "--data", data, "--epochs", "2", "--hidden", "4"],
            "sweep": ["sweep", "--data", data, "--lr", "0.05,0.1", "--epochs", "2",
                      "--hidden", "4"],
            "dataset": ["dataset", "--data", data],
            "dataset-labels": ["dataset", *labels_only]}[command]
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"error: multi mode draws no test pair from the class counts "
                     r"p2p=\d+, p2c=\d+, s2s=3, x2x=\d+\n", err), err
    assert not out.exists()


def test_predict_scores_a_split_train_refuses_as_one_voted_block(
        three_sibling_pairs, train_dir, tmp_path):
    doc = _predict(three_sibling_pairs, train_dir / "checkpoint.json", tmp_path / "p")
    assert sorted(doc) == ["classes", "voted"]
    assert _scored(doc, "voted") == _voted_on_graph(three_sibling_pairs, "multi")


def test_predict_omits_blocks_without_an_edge(data_dir, tmp_path):
    """Binary mode balances nothing away, so no edge is left out; labels
    whose pairs the graph lacks leave every block empty."""
    train_out = tmp_path / "binary"
    assert run(["train", "--data", str(data_dir), "--mode", "binary", "--epochs", "4",
                "--hidden", "4", "--seed", "1", "--out", str(train_out)]) == 0
    doc = _predict(data_dir, train_out / "checkpoint.json", tmp_path / "p")
    assert sorted(doc) == ["classes", "test", "train", "val"]
    assert sum(_scored(doc, k) for k in ("train", "val", "test")) == _voted_on_graph(
        data_dir, "binary")
    for i in (1, 2):
        (tmp_path / f"labels_{i}.txt").write_text("999991|999992|0\n")
    doc = _predict(data_dir, train_out / "checkpoint.json", tmp_path / "off",
                   "--labels", str(tmp_path / "labels_1.txt"),
                   "--labels", str(tmp_path / "labels_2.txt"))
    assert doc == {"classes": ["p2p", "p2c"]}


@pytest.mark.parametrize("given_by", ["directory", "flag"])
def test_predict_single_label_source_is_refused(given_by, data_dir, train_dir, tmp_path,
                                                capsys):
    """With train's message, before --out is created."""
    d = tmp_path / "one"
    d.mkdir()
    for name in ("paths.txt", "labels_1.txt"):
        shutil.copy(data_dir / name, d)
    argv = (["--data", str(d)] if given_by == "directory" else
            ["--paths", str(d / "paths.txt"), "--labels", str(d / "labels_1.txt")])
    assert run(["train", *argv, "--out", str(tmp_path / "t")]) == 2
    message = capsys.readouterr().err
    assert message.startswith("usage error: need at least two --labels sources")
    assert run(["predict", *argv, "--checkpoint", str(train_dir / "checkpoint.json"),
                "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


def test_predict_bad_label_line_is_named_before_out(data_dir, train_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    with open(data / "labels_2.txt", "a", encoding="utf-8") as fh:
        fh.write("1|2|7\n")
    lines = len((data / "labels_2.txt").read_text().splitlines())
    code = run(["predict", "--data", str(data), "--checkpoint",
                str(train_dir / "checkpoint.json"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'labels_2.txt'} line {lines}: unsupported code '7'\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag", [
    ("predict", ["--mode", "binary"]), ("predict", ["--seed", "4"]),
    ("predict", ["--split", "0" * 64]), ("predict", ["--delta", "1.0"]),
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
    "sweep": ["--lr", "0.05"],
}


@pytest.mark.parametrize("command,flag,value", [
    *((command, "--k-candidates", "3") for command in FIXED_SETTINGS_ARGV),
    *((command, "--delta", "0.2") for command in ("train", "sweep")),
])
def test_fixed_feature_settings_are_not_flags(command, flag, value):
    # one clique rule and one weight floor for train and predict
    argv = [command, "--data", "d", *FIXED_SETTINGS_ARGV[command], "--out", "o"]
    cli.build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as e:
        cli.build_parser().parse_args([*argv, flag, value])
    assert e.value.code == 2


@pytest.mark.parametrize("command", ["predict"])
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
    assert f"{checkpoint}: field 'meta.delta' is not 0.05" in err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("command,key", [
    ("predict", "delta"), ("predict", "classes"), ("predict", "mode"),
    ("predict", "seed"),
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
    assert f"{checkpoint}: missing field 'meta.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["predict"])
@pytest.mark.parametrize("edit", ["drop", "add"])
def test_checkpoint_whose_classes_do_not_fit_its_head_is_refused(
        data_dir, train_dir, tmp_path, capsys, command, edit):
    doc = json.loads((train_dir / "checkpoint.json").read_text())
    classes = doc["meta"]["classes"]
    assert len(classes) == doc["head_b"]["shape"][0] == 4
    doc["meta"]["classes"] = classes[:-1] if edit == "drop" else [*classes, "p2x"]
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    code = run([command, "--data", str(data_dir), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert (f"{checkpoint}: field 'meta.classes' is not ['p2p', 'p2c', 's2s', 'x2x'], "
            "the classes of multi mode") in err
    assert not (tmp_path / "o" / "manifest.json").exists()


_MULTI_CLASSES = ("field 'meta.classes' is not ['p2p', 'p2c', 's2s', 'x2x'], "
                  "the classes of multi mode")
_NO_MODE = "field 'meta.mode' is not a mode, one of ['binary', 'multi']"


# each id names the case: the classes or mode the checkpoint records, and why
# they are refused
@pytest.mark.parametrize("command", ["predict"])
@pytest.mark.parametrize("mode,classes,message", [
    ("multi", ["x2x", "s2s", "p2c", "p2p"], _MULTI_CLASSES),
    ("multi", ["a", "b", "c", "d"], _MULTI_CLASSES),
    ("binary", ["p2p", "p2c", "s2s", "x2x"],
     "field 'meta.classes' is not ['p2p', 'p2c'], the classes of binary mode"),
    ("bogus", ["a", "b", "c", "d"], _NO_MODE),
    (["multi"], ["p2p", "p2c", "s2s", "x2x"], _NO_MODE),
    ("binary", ["p2p", "p2c"],
     "field 'n_classes' is not 2, the number of classes binary mode has"),
], ids=["multi-classes0-but multi mode has ['p2p', 'p2c', 's2s', 'x2x']",
        "multi-classes1-but multi mode has ['p2p', 'p2c', 's2s', 'x2x']",
        "binary-classes2-but binary mode has ['p2p', 'p2c']",
        "bogus-classes3-records an unknown mode 'bogus'",
        "mode4-classes4-records an unknown mode ['multi']",
        "binary-but its head scores 4"])
def test_checkpoint_classes_must_be_its_modes(data_dir, train_dir, tmp_path, capsys,
                                              monkeypatch, command, mode, classes,
                                              message):
    # predict would otherwise write its labels under the recorded names
    # refused before any input is read
    for name in ("prepare", "prepare_labels", "build_bundle"):
        monkeypatch.setattr(cli, name, lambda *a: pytest.fail(f"{name} ran"))
    doc = json.loads((train_dir / "checkpoint.json").read_text())
    doc["meta"].update(mode=mode, classes=classes)
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    code = run([command, "--data", str(data_dir), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{checkpoint}: {message}" in err
    assert not (tmp_path / "o").exists()


def _shrink_head_w_data(doc):
    doc["head_w"]["data"] = doc["head_w"]["data"][:-8]
    return doc


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [doc], "missing field 'format'"),
    (None, "is not JSON"),
    (lambda doc: {k: v for k, v in doc.items() if k != "blocks"},
     "missing field 'blocks'"),
    (_shrink_head_w_data, "field 'head_w.data' is not 256 bytes"),
    (lambda doc: {**doc, "input_dim": 99}, "field 'blocks[0][0].shape' is not [99, 8], "
                                           "as input_dim 99"),
], ids=["json-list", "not-json", "no-blocks", "short-data", "input-dim"])
def test_malformed_checkpoint_is_refused_naming_file_and_field(
        data_dir, train_dir, tmp_path, capsys, edit, message):
    doc = json.loads((train_dir / "checkpoint.json").read_text())
    checkpoint = tmp_path / "checkpoint.json"
    if edit is None:
        checkpoint.write_text("bgprel-checkpoint-v1\n")
    else:
        checkpoint.write_text(json.dumps(edit(doc)))
    code = run(["predict", "--data", str(data_dir), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(checkpoint) in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


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
                                  "99999999999999999999|1", "1|1", "1|2|999"])
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
    assert not (tmp_path / "o").exists()


def test_predict_pairs_file_without_a_pair_is_refused(data_dir, train_dir, tmp_path,
                                                      capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("# a comment and no pair\n")
    code = run([
        "predict", "--paths", str(data_dir / "paths.txt"),
        "--checkpoint", str(train_dir / "checkpoint.json"),
        "--pairs", str(pairs), "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {pairs}: holds no a|b pair\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["orgs.csv", "types.csv"])
def test_asn_repeated_in_a_side_file_is_runtime_error(data_dir, tmp_path, capsys, name):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    lines = (data / name).read_text().splitlines()
    (data / name).write_text("\n".join([*lines, lines[1]]) + "\n")
    code = run(["train", "--data", str(data), "--epochs", "2", "--hidden", "4",
                "--out", str(tmp_path / "o")])
    assert code == 1
    asn = lines[1].split(",")[0]
    assert (f"error: {data / name} line {len(lines) + 1}: duplicate AS{asn}, "
            "first on line 2") in capsys.readouterr().err


def test_sweep_over_dropped_inputs(data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "worker_count", lambda runs: 2)
    out = tmp_path / "imp"
    assert run([
        "sweep", "--data", str(data_dir), "--mode", "multi",
        "--ablate", ",".join(["none", *ABLATABLE_FEATURES]),
        "--epochs", "6", "--hidden", "6", "--seed", "2", "--out", str(out),
    ]) == 0
    rows = [fields for _, fields in ingest.read_fields(out / "sweep.csv", ",")]
    assert rows[0] == ["ablate", "val_accuracy", "test_accuracy"]
    assert [r[0] for r in rows[1:]] == ["none", *ABLATABLE_FEATURES]
    doc = json.loads((out / "sweep.json").read_text())
    assert [r["overrides"]["ablate"] for r in doc["rows"]] == ["none", *ABLATABLE_FEATURES]
    assert json.loads((out / "manifest.json").read_text())["config"]["workers"] == 2


def test_sweep_ties_prefer_dropping_nothing(data_dir, tmp_path, monkeypatch):
    tied = np.array([[1, 1], [0, 0]])  # accuracy 0.5 in every run
    monkeypatch.setattr(cli, "run_training", lambda *a: (None, {"val": tied, "test": tied}))
    out = tmp_path / "o"
    assert run(["sweep", "--data", str(data_dir), "--ablate", "degree,none,cnr",
                "--lr", "0.1,0.05", "--out", str(out)]) == 0
    best = json.loads((out / "sweep.json").read_text())["best"]
    assert best == {"ablate": "none", "learning_rate": "0.05"}


def test_tied_binary_sweep_prefers_binary_defaults(data_dir, tmp_path, monkeypatch):
    tied = np.array([[1, 1], [0, 0]])  # accuracy 0.5 in every run
    monkeypatch.setattr(cli, "run_training", lambda *a: (None, {"val": tied, "test": tied}))
    out = tmp_path / "o"
    assert run(["sweep", "--data", str(data_dir), "--mode", "binary",
                "--lr", "0.05,0.1", "--wd", "0,5e-4", "--blocks", "2x1,2x2",
                "--out", str(out)]) == 0
    best = json.loads((out / "sweep.json").read_text())["best"]
    assert best == {"learning_rate": "0.1", "weight_decay": "0.0005", "block_spec": "2x2"}


def test_sweep_csv_is_the_table_of_sweep_json(data_dir, tmp_path, capsys):
    """Each sweep.csv row is the matching sweep.json row, in the same
    order and as the same text: the settings in name order, then the
    accuracies."""
    out = tmp_path / "sw"
    assert run(["sweep", "--data", str(data_dir), "--lr", "0.1,0.05",
                "--ablate", "degree,none", *SMALL, "--out", str(out)]) == 0
    header, *rows = [fields for _, fields in ingest.read_fields(out / "sweep.csv", ",")]
    doc = json.loads((out / "sweep.json").read_text())
    assert header == ["ablate", "learning_rate", "val_accuracy", "test_accuracy"]
    assert rows == [[r["overrides"]["ablate"], r["overrides"]["learning_rate"],
                     str(r["val_accuracy"]), str(r["test_accuracy"])] for r in doc["rows"]]
    assert [r[:2] for r in rows] == [["degree", "0.1"], ["none", "0.1"],
                                     ["degree", "0.05"], ["none", "0.05"]]
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("swept 4 settings; best: ")
    assert ast.literal_eval(line.split("best: ")[1]) == doc["best"]


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


def test_sweep_writes_block_specs_as_the_flag_reads_them(data_dir, tmp_path):
    out = tmp_path / "sw"
    assert run([
        "sweep", "--data", str(data_dir), "--blocks", "2x1,1x1",
        "--epochs", "2", "--hidden", "4", "--seed", "0", "--out", str(out),
    ]) == 0
    rows = [fields for _, fields in ingest.read_fields(out / "sweep.csv", ",")]
    assert rows[0] == ["block_spec", "val_accuracy", "test_accuracy"]
    assert [r[0] for r in rows[1:]] == ["2x1", "1x1"]
    doc = json.loads((out / "sweep.json").read_text())
    assert [r["overrides"]["block_spec"] for r in doc["rows"]] == ["2x1", "1x1"]
    assert doc["best"]["block_spec"] in ("2x1", "1x1")


def test_sweep_without_grid_is_usage_error(data_dir, tmp_path, capsys):
    code = run(["sweep", "--data", str(data_dir), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--blocks", "2x1,2y1", "expected BLOCKSxLAYERS such as 2x1, got '2y1'"),
    ("--lr", "0.05,abc", "expected a comma list of float values, got '0.05,abc'"),
    ("--wd", "0,", "expected a comma list of float values, got '0,'"),
    ("--ablate", "none,bogus",
     f"expected none or one of {', '.join(ABLATABLE_FEATURES)}, got 'bogus'"),
])
def test_sweep_malformed_list_is_usage_error_before_any_work(
        data_dir, tmp_path, monkeypatch, capsys, flag, value, message):
    monkeypatch.setattr(cli, "prepare", lambda *a: pytest.fail("prepare ran"))
    with pytest.raises(SystemExit) as e:
        run(["sweep", "--data", str(data_dir), flag, value,
             "--out", str(tmp_path / "o")])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "Traceback" not in err


def test_negative_weight_decay_is_refused(data_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "prepare", lambda *a: pytest.fail("prepare ran"))
    code = run(["train", "--data", str(data_dir), "--wd", "-0.1",
                "--epochs", "3", "--hidden", "4", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "weight decay must be non-negative, got -0.1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["train", "--lr", "0"], "learning rate must be positive, got 0.0"),
    (["train", "--lr", "nan"], "learning rate must be positive, got nan"),
    (["train", "--blocks", "0x1"], "bad block spec (0, 1)"),
    (["train", "--epochs", "0"], "epochs and hidden width must be positive"),
    (["train", "--hidden", "0"], "epochs and hidden width must be positive"),
    (["sweep", "--ablate", "none", "--hidden", "0"],
     "epochs and hidden width must be positive"),
    (["sweep", "--lr", "0,0.05"], "learning rate must be positive, got 0.0"),
    (["train", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["sweep", "--lr", "0.05", "--seed", "-2"], "seed must be non-negative, got -2"),
    # random.Random takes a negative seed's absolute value
    (["dataset", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["synth", "--seed", "-1"], "seed must be non-negative, got -1"),
])
def test_refused_setting_is_usage_error_before_any_work(
        data_dir, tmp_path, monkeypatch, capsys, argv, message):
    for name in ("prepare", "prepare_labels", "generate"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    command, *flags = argv
    data = [] if command == "synth" else ["--data", str(data_dir)]
    out = tmp_path / "o"
    assert run([command, *data, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


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


def test_predict_needs_no_labels(data_dir, train_dir, tmp_path, monkeypatch):
    d = tmp_path / "nolabels"
    d.mkdir()
    for name in ("paths.txt", "types.csv"):
        shutil.copy(data_dir / name, d)
    outs = []
    for rows in (cli._WRITE_ROWS, 3):
        # the file is written a batch of rows at a time; any batch size
        # gives the same bytes
        monkeypatch.setattr(cli, "_WRITE_ROWS", rows)
        outs.append(tmp_path / f"pred-{rows}")
        assert run([
            "predict", "--data", str(d),
            "--checkpoint", str(train_dir / "checkpoint.json"),
            "--out", str(outs[-1]),
        ]) == 0
    lines = (outs[0] / "predictions.csv").read_text().splitlines()
    assert len(lines) > 4
    assert (outs[1] / "predictions.csv").read_bytes() == (outs[0] / "predictions.csv").read_bytes()


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
    shutil.copytree(data_dir, root / "labels", ignore=shutil.ignore_patterns("paths.txt"))
    (root / "data" / "alloc.txt").write_text("1-200\n")
    shutil.copy(train_dir / "checkpoint.json", root)
    a, b, _ = (data_dir / "labels_1.txt").read_text().splitlines()[0].split("|")
    (root / "pairs.txt").write_text(f"{a}|{b}\n")
    return root


SMALL = ["--epochs", "2", "--hidden", "4"]

# each command's argv; "importance" is a sweep over dropped inputs
MANIFEST_COMMANDS = {
    "ingest": ["ingest", "--paths", "data/paths.txt", "--alloc", "data/alloc.txt"],
    "features": ["features", "--data", "data"],
    "dataset": ["dataset", "--data", "data"],
    # without paths no graph is built, so types.csv and --alloc go unread
    "dataset-labels": ["dataset", "--data", "labels", "--alloc", "data/alloc.txt"],
    "train": ["train", "--data", "data", *SMALL],
    "predict": ["predict", "--data", "data", "--checkpoint", "checkpoint.json",
                "--pairs", "pairs.txt"],
    "importance": ["sweep", "--data", "data", "--ablate", "none,cnr", *SMALL],
    "sweep": ["sweep", "--data", "data", "--lr", "0.05", *SMALL],
}


def _command_argv(command: str, input_root: Path) -> list[str]:
    return [str(input_root / v) if (input_root / v).exists() else v
            for v in MANIFEST_COMMANDS[command]]


@pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
def test_manifest_lists_every_input_read(command, input_root, tmp_path, monkeypatch):
    argv = _command_argv(command, input_root)
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


def test_manifests_record_the_ingest_counts(data_dir, train_dir, tmp_path):
    """A run that builds the graph records what its ingest dropped, the
    same counts ``bgprel ingest`` reports for its paths file."""
    d = tmp_path / "data"
    shutil.copytree(data_dir, d)
    a, b = (d / "paths.txt").read_text().splitlines()[0].split("|")[:2]
    with open(d / "paths.txt", "a", encoding="utf-8") as fh:
        fh.write(f"{a}|{b}|x\n{a}|{b}|{a}\n{a}|{b}|64512\n")
    (d / "alloc.txt").write_text("1-64511\n")
    assert run(["ingest", "--paths", str(d / "paths.txt"), "--alloc", str(d / "alloc.txt"),
                "--out", str(tmp_path / "ingest")]) == 0
    want = json.loads((tmp_path / "ingest" / "ingest_report.json").read_text())
    assert want["malformed"] == want["rejected_loop"] == want["rejected_unallocated"] == 1
    checkpoint = str(train_dir / "checkpoint.json")
    runs = {
        "train": ["train", "--data", str(d), *SMALL],
        "predict": ["predict", "--data", str(d), "--checkpoint", checkpoint],
        "features": ["features", "--data", str(d)],
        "dataset": ["dataset", "--data", str(d)],
        "sweep-ablate": ["sweep", "--data", str(d), "--ablate", "none,cnr", *SMALL],
        "sweep": ["sweep", "--data", str(d), "--lr", "0.05", *SMALL],
    }
    # predict from the checkpoint just trained on d uses the
    # graph it carries, with the counts of the ingest that built it
    trained = str(tmp_path / "train" / "checkpoint.json")
    runs.update({
        "predict-reused": ["predict", "--data", str(d), "--checkpoint", trained],
    })
    for name, argv in runs.items():
        assert run([*argv, "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"]["ingest"] == want, name
        if argv[0] == "predict":
            graph = "reused" if name.endswith("-reused") else "built"
            assert manifest["config"]["graph"] == graph, name


@pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
def test_csv_outputs_end_lines_with_lf(command, input_root, data_dir, tmp_path):
    """Every file the command writes, its ``.txt`` and ``.json`` files
    included, and every file of the synth bundle ends each of its lines,
    the last one too, with LF and holds no CR."""
    assert run([*_command_argv(command, input_root), "--out", str(tmp_path / "out")]) == 0
    written = sorted((tmp_path / "out").iterdir())
    assert len(written) > 1 and (tmp_path / "out" / "manifest.json") in written
    for path in [*written, *sorted(data_dir.iterdir())]:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name


# -- predict reuses the graph its checkpoint's train saved ----------------


GRAPH_READERS = ("predict", "predict-pairs")


def _read_graph_with(command, data, checkpoint_dir, pairs, out):
    """Run ``command`` (one of GRAPH_READERS) on the data directory and
    the checkpoint in ``checkpoint_dir``; the bytes of its predictions
    and its metrics, and its manifest."""
    argv = {"predict": ["predict"],
            "predict-pairs": ["predict", "--pairs", str(pairs)]}[command]
    assert run([*argv, "--data", str(data), "--checkpoint",
                str(checkpoint_dir / "checkpoint.json"), "--out", str(out)]) == 0
    output = b"".join((out / f).read_bytes() for f in ("predictions.csv", "metrics.json"))
    return output, json.loads((out / "manifest.json").read_text())


def _rewrite_checkpoint(trained, edit):
    checkpoint = trained / "checkpoint.json"
    doc = json.loads(checkpoint.read_text())
    edit(doc)
    checkpoint.write_text(json.dumps(doc))


def _drop_graph(doc):
    """A checkpoint as one that does not carry its graph."""
    del doc["meta"]["graph"], doc["meta"]["source"]


def _graphless_copy(train_dir, out):
    """A directory holding train's checkpoint without its graph, so
    that a command reading it ingests the paths itself."""
    out.mkdir()
    shutil.copy(train_dir / "checkpoint.json", out)
    _rewrite_checkpoint(out, _drop_graph)
    return out


@pytest.fixture
def trained_copy(data_dir, train_dir, tmp_path):
    """Copies of the data directory and of train's output directory, a
    directory holding train's checkpoint without its graph, and a pairs
    file."""
    data, trained = tmp_path / "data", tmp_path / "train"
    shutil.copytree(data_dir, data)
    shutil.copytree(train_dir, trained)
    lone = _graphless_copy(train_dir, tmp_path / "lone")
    a, b, _ = (data_dir / "labels_1.txt").read_text().splitlines()[0].split("|")
    (tmp_path / "pairs.txt").write_text(f"{a}|{b}\n{b}|{a}\n")
    return data, trained, lone, tmp_path / "pairs.txt"


# a path through an ASN the synth bundle does not use
NEW_ASN = 999_999


def _append(path, text):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


GRAPH_CASES = {
    "reused": lambda data, trained: None,
    "deleted": lambda data, trained: _rewrite_checkpoint(
        trained, lambda doc: doc["meta"].pop("graph")),
    "changed": lambda data, trained: _append(
        data / "paths.txt", data.joinpath("paths.txt").read_text().split("|")[0]
        + f"|{NEW_ASN}\n"),
    "alloc": lambda data, trained: (data / "alloc.txt").write_text("1-4294967295\n"),
    "version": lambda data, trained: _rewrite_checkpoint(
        trained, lambda doc: doc["meta"]["source"].update(version="0")),
}


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
@pytest.mark.parametrize("command", GRAPH_READERS)
def test_reused_graph_gives_the_built_graphs_outputs(command, case, trained_copy, tmp_path):
    """predict uses the graph train saved in its checkpoint
    only while the checkpoint's ``meta.source`` shows it came from the
    same paths and alloc files, and write the same bytes as a run that
    builds the graph."""
    data, trained, lone, pairs = trained_copy
    if case == "changed":  # a digest of the paths is not kept from one run to the next
        _, before = _read_graph_with(command, data, trained, pairs, tmp_path / "before")
        assert before["config"]["graph"] == "reused"
    GRAPH_CASES[case](data, trained)
    got, manifest = _read_graph_with(command, data, trained, pairs, tmp_path / "got")
    want, built = _read_graph_with(command, data, lone, pairs, tmp_path / "want")
    assert got == want
    assert built["config"]["graph"] == "built"
    assert manifest["config"]["graph"] == ("reused" if case == "reused" else "built")
    assert manifest["config"]["ingest"] == built["config"]["ingest"]
    # the checkpoint is the one file of train's run that is read
    assert Path(manifest["inputs"]["checkpoint"]["path"]) == trained / "checkpoint.json"
    assert sorted(manifest["inputs"]) == sorted(built["inputs"])
    if case == "changed":  # the rebuilt graph shows the new path
        assert manifest["config"]["ingest"]["parsed"] == json.loads(
            (trained / "manifest.json").read_text())["config"]["ingest"]["parsed"] + 1
        if command == "predict":
            assert f",{NEW_ASN}," in got.decode()


@pytest.mark.parametrize("command", GRAPH_READERS)
def test_reused_graph_needs_no_ingest(command, trained_copy, tmp_path, monkeypatch):
    data, trained, _, pairs = trained_copy

    def no_ingest(*args, **kwargs):
        raise AssertionError("the paths were ingested")

    monkeypatch.setattr(pipeline, "ingest_file", no_ingest)
    monkeypatch.setattr(cli, "ingest_file", no_ingest)
    _, manifest = _read_graph_with(command, data, trained, pairs, tmp_path / "out")
    assert manifest["config"]["graph"] == "reused"


def _edit_graph_array(name, edit):
    def rewrite(doc):
        graph = doc["meta"]["graph"]
        graph[name] = ingest.encode_array(edit(ingest.decode_array(
            graph, "checkpoint.json", name, ("int64",))))
        return json.dumps(doc)
    return rewrite


@pytest.mark.parametrize("edit,message", [
    (lambda doc: json.dumps(doc)[:1000], "is not JSON"),
    (_edit_graph_array("transit", lambda a: np.append(a, 0)),
     "field 'meta.graph.transit.shape' is not ["),
    (_edit_graph_array("edge_rows", lambda a: np.where(a == a.max(), a.max() + 1, a)),
     "field 'meta.graph.edge_rows' is not node rows in [0, "),
], ids=["truncated", "per-node-length", "edge-row-range"])
@pytest.mark.parametrize("command", ["predict"])
def test_bad_graph_in_a_checkpoint_is_refused(command, edit, message, trained_copy,
                                              tmp_path, capsys):
    """A bad graph in a checkpoint whose source record matches the
    command's files is refused naming the checkpoint and the field,
    before --out is created."""
    data, trained, _, _ = trained_copy
    checkpoint = trained / "checkpoint.json"
    checkpoint.write_text(edit(json.loads(checkpoint.read_text())))
    code = run([command, "--data", str(data), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(checkpoint) in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["predict"])
def test_bad_graph_is_refused_when_the_command_ingests(command, trained_copy, tmp_path,
                                                       capsys):
    """A checkpoint is accepted whole or refused: a bad graph is refused
    also where the command's paths are not the ones it records, so that
    the command would ingest them and never use the graph."""
    data, trained, _, _ = trained_copy
    GRAPH_CASES["changed"](data, trained)
    checkpoint = trained / "checkpoint.json"
    checkpoint.write_text(_edit_graph_array("transit", lambda a: a[:-1])(
        json.loads(checkpoint.read_text())))
    code = run([command, "--data", str(data), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}: field 'meta.graph.transit.shape' is not [")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [None, "0", 1.5, True], ids=["null", "string", "float", "bool"])
@pytest.mark.parametrize("command", ["predict"])
def test_checkpoint_whose_seed_is_not_an_integer_is_refused(command, seed, data_dir,
                                                            train_dir, tmp_path, capsys):
    """``predict`` redraws the training split from the recorded seed, and
    ``random.Random`` takes None, strings, floats and bools, each giving
    another split (None one from the OS on every run)."""
    doc = json.loads((train_dir / "checkpoint.json").read_text())
    doc["meta"]["seed"] = seed
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    code = run([command, "--data", str(data_dir), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {checkpoint}: field 'meta.seed' "
                                       "is not an integer\n")
    assert not (tmp_path / "o").exists()


def _widen_first_layer(doc):
    """A checkpoint as one trained on one more feature column."""
    first = ingest.decode_array(doc, "checkpoint.json", "blocks[0][0]",
                                ("float32", "float64"))
    doc["blocks"][0][0] = ingest.encode_array(np.vstack([first, first[:1]]))
    doc["input_dim"] += 1


@pytest.mark.parametrize("command", ["predict"])
def test_checkpoint_of_another_width_is_refused_before_out(command, data_dir, train_dir,
                                                          tmp_path, capsys):
    trained = tmp_path / "train"
    trained.mkdir()
    shutil.copy(train_dir / "checkpoint.json", trained)
    _rewrite_checkpoint(trained, _widen_first_layer)
    checkpoint = trained / "checkpoint.json"
    width = json.loads(checkpoint.read_text())["input_dim"]
    code = run([command, "--data", str(data_dir), "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: checkpoint {checkpoint} expects {width} "
                                       f"feature columns, data has {width - 1}\n")
    assert not (tmp_path / "o").exists()


def test_paths_flag_overrides_the_data_directory(data_dir, tmp_path):
    tiny = tmp_path / "tiny.txt"
    tiny.write_text((data_dir / "paths.txt").read_text().splitlines()[0] + "\n")
    assert run(["features", "--data", str(data_dir), "--paths", str(tiny),
                "--out", str(tmp_path / "f")]) == 0
    manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert Path(manifest["inputs"]["paths"]["path"]) == tiny
    assert manifest["config"]["ingest"]["parsed"] == 1
    hops = len(set(tiny.read_text().strip().split("|")))
    rows = (tmp_path / "f" / "features.csv").read_text().splitlines()[1:]
    assert len(rows) == hops


def test_mode_choices_are_the_modes_class_lists():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    modes = {name: next(a.choices for a in p._actions if "--mode" in a.option_strings)
             for name, p in subs.choices.items()
             if any("--mode" in a.option_strings for a in p._actions)}
    assert sorted(modes) == ["dataset", "sweep", "train"]
    assert all(list(choices) == list(MODE_CLASSES) for choices in modes.values())


# -- the README advertises only flags the parser takes ---------------------


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("bgprel "):
                yield line.split("#")[0].split()[1:]


def test_readme_commands_parse():
    """README shows every subcommand and no other, each line parsing."""
    commands = list(_readme_commands())
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subs.choices)
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


# -- sweeps train in worker processes ---------------------------------------

# each sweep's argv after --data: a grid of settings, and "importance", the
# grid of dropped inputs
SWEEPS = {
    "sweep": ["--lr", "0.05,0.1", "--wd", "0,5e-4", "--epochs", "6", "--hidden", "6",
              "--seed", "1"],
    "importance": ["--ablate", ",".join(["none", *ABLATABLE_FEATURES]),
                   "--epochs", "6", "--hidden", "6", "--seed", "2"],
}


def _run_with_workers(name, data_dir, out, workers, monkeypatch, extra=()):
    monkeypatch.setattr(cli, "worker_count", lambda runs: workers)
    return run(["sweep", "--data", str(data_dir), *SWEEPS[name], *extra, "--out", str(out)])


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_threads_is_an_unknown_option(name, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run(["sweep", "--data", str(tmp_path), *SWEEPS[name], "--threads", "2",
             "--out", str(tmp_path / "o")])
    assert e.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_worker_count_does_not_change_outputs(name, data_dir, tmp_path, monkeypatch):
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert _run_with_workers(name, data_dir, out, workers, monkeypatch) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["workers"] == workers
    for output in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "w1" / output).read_bytes() == (tmp_path / "w2" / output).read_bytes()


def test_importance_builds_two_propagation_matrices(data_dir, tmp_path, monkeypatch):
    """The weighted one, shared by ten of the eleven runs, and "cnr"'s;
    without "cnr" in the list, the weighted one alone."""
    builds = []
    build = pipeline.build_normalized_adjacency
    monkeypatch.setattr(pipeline, "build_normalized_adjacency",
                        lambda weights: builds.append(1) or build(weights))
    assert _run_with_workers("importance", data_dir, tmp_path / "o", 1, monkeypatch) == 0
    assert len(builds) == 2
    builds.clear()
    assert _run_with_workers("importance", data_dir, tmp_path / "p", 1, monkeypatch,
                             ["--ablate", "none,degree,hierarchy"]) == 0
    assert len(builds) == 1


# the front end's commands, with the outputs whose bytes they own
RANGE_COMMANDS = {
    "features": ("features.csv", "clique.txt"),
    "train": ("checkpoint.json", "history.csv", "metrics.json"),
    "predict": ("predictions.csv", "metrics.json"),
}


def _run_front_end(command, data_dir, train_dir, out):
    argv = {"features": [],
            "train": ["--mode", "multi", "--epochs", "8", "--hidden", "6", "--seed", "1"],
            "predict": ["--checkpoint", str(train_dir / "checkpoint.json")]}[command]
    return run([command, "--data", str(data_dir), *argv, "--out", str(out)])


@pytest.mark.parametrize("command", sorted(RANGE_COMMANDS))
def test_forked_paths_ranges_do_not_change_outputs(command, data_dir, train_dir, tmp_path,
                                                   monkeypatch):
    # predict reads the checkpoint without its graph, so that it ingests
    # the paths itself
    lone = _graphless_copy(train_dir, tmp_path / "lone")
    assert _run_front_end(command, data_dir, lone, tmp_path / "one") == 0
    monkeypatch.setattr(ingest, "_RANGE_FLOOR", 1)
    monkeypatch.setattr(ingest, "worker_count", lambda runs: 2)
    assert len(ingest._line_ranges(data_dir / "paths.txt", 2)) == 2
    forks = []
    monkeypatch.setattr(ingest, "map_runs",
                        lambda run, items, workers: forks.append(workers)
                        or map_runs(run, items, workers))
    assert _run_front_end(command, data_dir, lone, tmp_path / "two") == 0
    assert forks == [2]
    for name in RANGE_COMMANDS[command]:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def _shuffled_copy(src, dst):
    """A copy of the data directory ``src`` with the data lines of every
    input that is a set of lines in another order, CSV headers first."""
    rng = random.Random(0)
    shutil.copytree(src, dst)
    for name in ["paths.txt", "ixps.txt", "orgs.csv", "types.csv",
                 *(p.name for p in src.glob("labels_*.txt"))]:
        lines = (dst / name).read_text().splitlines()
        head = 1 if name.endswith(".csv") else 0
        body = lines[head:]
        rng.shuffle(body)
        assert body != lines[head:], name
        (dst / name).write_text("".join(f"{line}\n" for line in lines[:head] + body))
    return dst


def _pipeline_outputs(data_dir, out):
    """The outputs of features, train (multi, seed 0) and predict over
    ``data_dir``, by file, the checkpoint as a document without
    ``meta.source``, the digest of the paths file it came from."""
    train = out / "train"
    assert run(["features", "--data", str(data_dir), "--out", str(out / "features")]) == 0
    assert run(["train", "--data", str(data_dir), "--seed", "0", "--out", str(train)]) == 0
    # a checkpoint without its graph, so that predict ingests the paths too
    lone = _graphless_copy(train, out / "lone")
    assert run(["predict", "--data", str(data_dir), "--checkpoint",
                str(lone / "checkpoint.json"), "--out", str(out / "predict")]) == 0
    outputs = {f"{command}/{name}": (out / command / name).read_bytes()
               for command, names in [("features", ("features.csv", "clique.txt")),
                                      ("train", ("history.csv", "metrics.json")),
                                      ("predict", ("predictions.csv", "metrics.json"))]
               for name in names}
    checkpoint = json.loads((train / "checkpoint.json").read_text())
    del checkpoint["meta"]["source"]
    return {**outputs, "train/checkpoint.json": checkpoint}


@pytest.fixture(scope="module")
def in_file_order(perturbed_dir, tmp_path_factory):
    return _pipeline_outputs(perturbed_dir, tmp_path_factory.mktemp("file-order"))


@pytest.mark.parametrize("ranges", [1, 2])
def test_input_line_order_does_not_change_outputs(ranges, perturbed_dir, in_file_order,
                                                   tmp_path, monkeypatch):
    # two ranges of shuffled paths: every block brings its VPs in another order
    shuffled = _shuffled_copy(perturbed_dir, tmp_path / "data")
    monkeypatch.setattr(ingest, "_RANGE_FLOOR", 1)
    monkeypatch.setattr(ingest, "worker_count", lambda runs: ranges)
    assert len(ingest._line_ranges(shuffled / "paths.txt", ranges)) == ranges
    got = _pipeline_outputs(shuffled, tmp_path / "out")
    assert got.keys() == in_file_order.keys()
    for name, want in in_file_order.items():
        assert got[name] == want, name


def test_csv_numbers_are_plain_floats(data_dir, train_dir, tmp_path):
    assert _run_front_end("features", data_dir, train_dir, tmp_path / "f") == 0
    assert _run_front_end("predict", data_dir, train_dir, tmp_path / "p") == 0
    bundle = build_bundle(DataFiles.discover(data_dir))
    rows = (tmp_path / "f" / "features.csv").read_text().splitlines()[1:]
    got = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
    assert np.array_equal(got, bundle.features.values)
    for row in (tmp_path / "p" / "predictions.csv").read_text().splitlines()[1:]:
        logp = [float(x) for x in row.split(",")[3:]]
        assert abs(sum(np.exp(logp)) - 1.0) <= 1e-12


def _fail_in_one_run(name, monkeypatch, fail):
    """Make one of the sweep's runs call ``fail``: the lr 0.1 points of
    "sweep" and the run of "importance" without the hierarchy columns."""
    if name == "sweep":
        train = cli.run_training

        def failing(x, a_hat, dataset, config):
            if config.learning_rate == 0.1:
                fail("learning rate 0.1")
            return train(x, a_hat, dataset, config)

        monkeypatch.setattr(cli, "run_training", failing)
    else:
        ablate = cli.ablate_columns

        def failing(fm, feature):
            if feature == "hierarchy":
                fail("no hierarchy")
            return ablate(fm, feature)

        monkeypatch.setattr(cli, "ablate_columns", failing)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_error_in_a_worker_exits_like_a_serial_run(name, data_dir, tmp_path,
                                                   monkeypatch, capsys):
    def fail(what):
        raise ValueError(f"planted failure at {what}")

    _fail_in_one_run(name, monkeypatch, fail)
    errors = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert _run_with_workers(name, data_dir, out, workers, monkeypatch) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: planted failure at ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_divergence_in_a_worker_exits_like_a_serial_run(name, data_dir, tmp_path,
                                                        monkeypatch, capsys):
    errors = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert _run_with_workers(name, data_dir, out, workers, monkeypatch,
                                 ["--lr", "inf"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: non-finite loss")


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_dead_worker_is_an_error_line(name, data_dir, tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def die(what):
        assert os.getpid() != parent, "the run was not in a worker process"
        os._exit(3)

    _fail_in_one_run(name, monkeypatch, die)
    assert _run_with_workers(name, data_dir, tmp_path / "o", 2, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _bundled_openblas() -> bool:
    return any((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))


def test_manifest_records_environment(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "o"
    assert run(["train", "--data", str(data_dir), *SMALL, "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "settings": {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
                     "MKL_NUM_THREADS": "2"},
        # the count in effect, which run sets to one
        "blas_threads": 1 if _bundled_openblas() else None,
    }


def _cli_subprocess(*argv, threads):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "bgprel.cli", *map(str, argv)],
                   env=env, check=True, capture_output=True, timeout=120)


def test_manifest_records_the_blas_thread_count_blas_reports(data_dir, tmp_path):
    out = tmp_path / "o"
    _cli_subprocess("train", "--data", data_dir, *SMALL, "--out", out, threads="2")
    threads = json.loads((out / "manifest.json").read_text())["environment"]["blas_threads"]
    assert threads == (1 if _bundled_openblas() else None)


@pytest.mark.skipif(not _bundled_openblas(), reason="the thread count is set only "
                    "in numpy's bundled OpenBLAS")
def test_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The default 1x synth trained in binary mode: its layer weight
    gradients differ in their last bits between 1 and 2 OpenBLAS threads,
    which moved its outputs before the CLI set the count to one."""
    data = tmp_path / "data"
    assert run(["synth", "--perturbation", "0.03", "--out", str(data)]) == 0
    for threads in ("1", "2"):
        _cli_subprocess("train", "--data", data, "--mode", "binary", "--seed", "0",
                        "--out", tmp_path / threads, threads=threads)
    for name in ("checkpoint.json", "history.csv", "metrics.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
