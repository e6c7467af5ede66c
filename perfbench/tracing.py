"""Outside-in tracing of one bgprel command, and the per-layer metrics
computed from its spans.

Run as a script, this file is the traced child process:

    python tracing.py SPAWN_TIME SPANS_JSON -- <bgprel arguments>

It installs timing wrappers at the names bgprel's callers look up
(``cli.build_bundle``, ``pipeline.ingest_file``, ``gcn.loss_and_grads``,
...), then calls ``bgprel.cli.run``.  The program's code is not changed.
The propagation matrix comes back as a ``csr_matrix`` subclass whose
``@`` is timed, so every sparse matmul is a span too.  Each span records
its parent, which gives self times.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

MB = 1 << 20
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Spans kept in memory as [name, start, end, parent, attrs] lists;
    parent is the index of the enclosing span, or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        record: Callable[[dict, tuple, object], None] | None = None,
        rss: bool = False,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            attrs = self.spans[idx][4]
            if rss:
                attrs["rss_before"] = _rss_bytes()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if rss:
                attrs["rss_after"] = _rss_bytes()
            if record is not None:
                record(attrs, args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at the module where it is looked up."""
    import scipy.sparse as sp

    from bgprel import cli, gcn, pipeline

    class CountingCsr(sp.csr_matrix):
        def __matmul__(self, other):
            idx = tracer.open("gcn.spmm")
            try:
                return super().__matmul__(other)
            finally:
                tracer.close(idx)

    def ingest_counts(attrs, args, result):
        attrs.update(result[1].as_dict())

    def graph_size(attrs, args, result):
        attrs["nodes"] = result.num_nodes
        attrs["edges"] = result.num_edges

    def vote_counts(attrs, args, result):
        attrs["voted"] = result[1].intersection_pairs
        attrs["union"] = result[1].union_pairs

    def dropped(attrs, args, result):
        attrs["dropped"] = result[1]

    def train_mode(attrs, args, result):
        attrs["mode"] = args[6].mode  # run_training passes config seventh

    def emitted(attrs, args, result):
        attrs["emitted"] = result[1].emitted

    def counting_adjacency(*args, **kwargs):
        return CountingCsr(build_adjacency(*args, **kwargs))

    build_adjacency = pipeline.build_normalized_adjacency
    pipeline.build_normalized_adjacency = counting_adjacency

    sites = [
        # (module, attribute, span name, recorder, track rss)
        (cli, "build_bundle", "pipeline.build_bundle", None, False),
        (cli, "prepare_labels", "pipeline.prepare_labels", None, False),
        (cli, "restrict_to_graph", "pipeline.restrict_to_graph", dropped, False),
        (cli, "make_dataset", "pipeline.make_dataset", None, False),
        (cli, "adjacency_for", "pipeline.adjacency_for", None, False),
        (cli, "run_training", "pipeline.run_training", None, False),
        (cli, "ingest_file", "ingest.ingest_file", ingest_counts, True),
        (cli, "build_graph", "topology.build_graph", graph_size, True),
        (cli, "save_checkpoint", "gcn.save_checkpoint", None, False),
        (cli, "write_history_csv", "gcn.write_history_csv", None, False),
        (cli, "gcn_predict", "gcn.predict", None, False),
        (cli, "sweep", "evaluate.sweep", None, False),
        (cli, "write_manifest", "cli.write_manifest", None, False),
        (cli, "generate", "synth.generate", None, False),
        (cli, "simulate_paths", "synth.simulate_paths", emitted, False),
        (cli, "export", "synth.export", None, False),
        (pipeline, "ingest_file", "ingest.ingest_file", ingest_counts, True),
        (pipeline, "build_graph", "topology.build_graph", graph_size, True),
        (pipeline, "infer_clique", "topology.infer_clique", None, False),
        (pipeline, "assemble_features", "topology.assemble_features", None, False),
        (pipeline, "cnr_edge_weights", "topology.cnr_edge_weights", None, False),
        (pipeline, "vote_intersection", "dataset.vote_intersection", vote_counts, False),
        (pipeline, "train", "gcn.train", train_mode, False),
        (pipeline, "predict", "gcn.predict", None, False),
        (gcn, "forward", "gcn.forward", None, False),
        (gcn, "loss_and_grads", "gcn.loss_and_grads", None, False),
        (gcn, "adam_step", "gcn.adam_step", None, False),
        (gcn, "predict", "gcn.predict", None, False),
    ]
    for module, attr, name, record, rss in sites:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, record, rss))


def main(argv: list[str]) -> int:
    spawned, spans_file, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPAWN_TIME SPANS_JSON -- ARGS...")
    tracer = Tracer()
    install(tracer)
    from bgprel import cli

    run = tracer.wrap(cli.run, "cli.run")
    entered = time.time()
    try:
        code = run(cli_argv)
    finally:
        doc = {"startup_s": entered - float(spawned), "spans": tracer.spans}
        Path(spans_file).write_text(json.dumps(doc), encoding="utf-8")
    return code


# -- per-layer metrics ---------------------------------------------------


class SpanSet:
    """Queries over the spans of one traced process."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def named(self, name: str, parent: str | None = None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s[0] == name
            and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))
        ]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.dur(i) for i in self.named(name, parent))

    def self_time(self, name: str) -> float:
        return sum(
            self.dur(i) - sum(self.dur(c) for c in self.children[i])
            for i in self.named(name)
        )

    def under(self, ancestor: int, name: str) -> int:
        """Spans called ``name`` anywhere below span ``ancestor``."""
        count, todo = 0, list(self.children[ancestor])
        while todo:
            i = todo.pop()
            count += self.spans[i][0] == name
            todo.extend(self.children[i])
        return count


def layer_metrics(commands: list[dict], synth_spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload.

    ``commands`` holds, per traced bgprel command, its spans, startup time
    and rusage; ``synth_spans`` are the spans of the traced setup synth.
    Times are seconds summed over the workload's commands.  A layer the
    workload never enters reports 0.  Counts come from one call (ingest,
    the last call elsewhere).  ``*.rss_mb`` is the largest rise in resident
    memory across one call.  Within training, ``gcn.forward_s`` is the
    training forward, ``gcn.backward_s`` the self time of
    ``loss_and_grads`` (head, loss and dense backward, without forward and
    sparse matmuls) and ``gcn.validation_s`` the ``predict`` calls made by
    ``train``; ``gcn.predict_s`` is the forward over every requested edge
    in ``bgprel predict``.
    """
    sets = [SpanSet(c["spans"]) for c in commands]

    def total(name: str, parent: str | None = None) -> float:
        return sum(s.total(name, parent) for s in sets)

    def attrs(name: str) -> list[dict]:
        return [s.spans[i][4] for s in sets for i in s.named(name)]

    ingests = attrs("ingest.ingest_file")
    graphs = attrs("topology.build_graph")
    votes = attrs("dataset.vote_intersection")
    restricts = attrs("pipeline.restrict_to_graph")
    ingest_s = total("ingest.ingest_file")
    m: dict[str, float] = {
        "ingest.ingest_file_s": ingest_s,
        "ingest.paths_per_s": sum(a["parsed"] for a in ingests) / ingest_s if ingest_s else 0.0,
        "ingest.rss_mb": max((a["rss_after"] - a["rss_before"]) / MB for a in ingests) if ingests else 0.0,
    }
    for key in ("parsed", "compressed", "rejected_loop", "rejected_unallocated", "malformed"):
        m[f"ingest.{key}"] = ingests[0][key] if ingests else 0
    m.update({
        "topology.build_graph_s": total("topology.build_graph"),
        "topology.rss_mb": max((a["rss_after"] - a["rss_before"]) / MB for a in graphs) if graphs else 0.0,
        "topology.features_s": total("topology.assemble_features"),
        "topology.clique_s": total("topology.infer_clique"),
        "topology.cnr_weights_s": total("topology.cnr_edge_weights"),
        "topology.nodes": graphs[-1]["nodes"] if graphs else 0,
        "topology.edges": graphs[-1]["edges"] if graphs else 0,
        "dataset.vote_s": total("dataset.vote_intersection"),
        "dataset.voted_pairs": votes[-1]["voted"] if votes else 0,
        "dataset.vote_kept_ratio": votes[-1]["voted"] / votes[-1]["union"] if votes else 0.0,
        "pipeline.restrict_s": total("pipeline.restrict_to_graph"),
        "pipeline.dropped_offgraph": restricts[-1]["dropped"] if restricts else 0,
        "pipeline.make_dataset_s": total("pipeline.make_dataset"),
        "pipeline.adjacency_s": total("pipeline.adjacency_for"),
        "pipeline.adjacency_calls": len(attrs("pipeline.adjacency_for")),
        "gcn.train_s": total("gcn.train"),
    })
    for mode in ("multi", "binary"):
        train_s = epochs = spmm = 0
        for s in sets:
            for i in s.named("gcn.train"):
                if s.spans[i][4]["mode"] == mode:
                    train_s += s.dur(i)
                    epochs += s.under(i, "gcn.loss_and_grads")
                    spmm += s.under(i, "gcn.spmm")
        m[f"gcn.epoch_ms.{mode}"] = 1000.0 * train_s / epochs if epochs else 0.0
        m[f"gcn.spmm_calls_per_epoch.{mode}"] = spmm / epochs if epochs else 0.0
    m.update({
        "gcn.forward_s": total("gcn.forward", parent="gcn.loss_and_grads"),
        "gcn.backward_s": sum(s.self_time("gcn.loss_and_grads") for s in sets),
        "gcn.adam_s": total("gcn.adam_step"),
        "gcn.validation_s": total("gcn.predict", parent="gcn.train"),
        "gcn.spmm_s": total("gcn.spmm"),
        "gcn.predict_s": total("gcn.predict", parent="cli.run"),
        "gcn.checkpoint_s": total("gcn.save_checkpoint"),
        "evaluate.sweep_s": total("evaluate.sweep"),
    })
    synth = SpanSet(synth_spans)
    m.update({
        "synth.generate_s": synth.total("synth.generate"),
        "synth.simulate_s": synth.total("synth.simulate_paths"),
        "synth.export_s": synth.total("synth.export"),
        "synth.paths_emitted": sum(synth.spans[i][4]["emitted"] for i in synth.named("synth.simulate_paths")),
        "cli.startup_s": sum(c["startup_s"] for c in commands),
        "cli.manifest_s": total("cli.write_manifest"),
        "cli.self_s": sum(s.self_time("cli.run") for s in sets),
        "cli.cpu_user_s": sum(c["rusage"]["user_s"] for c in commands),
        "cli.cpu_sys_s": sum(c["rusage"]["sys_s"] for c in commands),
        "cli.minor_faults": sum(c["rusage"]["minor_faults"] for c in commands),
    })
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
