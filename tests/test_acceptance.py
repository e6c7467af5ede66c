"""End-to-end acceptance checks.

Each test prints one PASS or FAIL line (run with -s to see them) and
asserts the same condition, so the suite doubles as a scorecard.
"""

import itertools
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from bgprel.cli import run as cli_run
from bgprel.dataset import RelLabel, load_label_source, vote_intersection
from bgprel.evaluate import accuracy, metrics_doc
from bgprel.gcn import (
    RowPlan,
    TrainConfig,
    build_normalized_adjacency,
    forward,
    init_model,
    loss_and_grads,
)
from bgprel.pipeline import (
    ABLATABLE_FEATURES,
    DataFiles,
    ablate_columns,
    adjacency_for,
    degree_gap_baseline,
    majority_baseline,
    prepare,
    run_training,
)
from bgprel.synth import (
    SynthConfig,
    export,
    generate,
    observed_edges,
    p2c_is_acyclic,
    simulate_paths,
)
from bgprel.topology import (
    SCALAR_COLUMNS,
    AsGraph,
    assemble_features,
    build_graph,
    canonical_edge,
    cnr_edge_weights,
)
from bgprel.ingest import AsPath, PathStore
from reference import edge_batch, edge_pairs, is_valley_free


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- 1: analytic gradients match finite differences -----------------------


def _as_scipy(m):
    """A node-by-node ``Csr`` as a scipy csr_matrix over its arrays."""
    n = len(m.indptr) - 1
    return sp.csr_matrix(tuple(m), shape=(n, n))


def _loss_and_grads(model, a_hat, x, edges, labels, wd):
    plan = RowPlan.build(a_hat, edges, model.n_layers)
    fwd = forward(model, plan.props, plan.props[0] @ x)
    return loss_and_grads(model, plan, fwd, edge_batch(edges, labels, plan), wd)


def _numeric_grads(model, a_hat, x, edges, labels, wd, step=1e-5):
    grads = []
    for p in model.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            up, _ = _loss_and_grads(model, a_hat, x, edges, labels, wd)
            p[idx] = orig - step
            down, _ = _loss_and_grads(model, a_hat, x, edges, labels, wd)
            p[idx] = orig
            g[idx] = (up - down) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


def test_criterion_1_gradients():
    started = time.perf_counter()
    worst = 0.0
    instances = 0
    for seed, block_spec in itertools.product(range(12), [(2, 2), (2, 1)]):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        d = int(rng.integers(2, 7))
        h = int(rng.integers(2, 9))
        c = int(rng.choice([2, 4]))
        wd = 0.0 if instances % 2 == 0 else 5e-4
        nodes = list(range(1, n + 1))
        g = AsGraph.from_edges(
            [(a, b) for a, b in itertools.combinations(nodes, 2)
             if rng.random() < 0.45],
            nodes=nodes,
        )
        a_hat = build_normalized_adjacency(g.adjacency())
        x = rng.normal(size=(n, d))
        m = int(rng.integers(3, 9))
        edges = rng.integers(0, n, size=(m, 2)).astype(np.intp)
        labels = rng.integers(0, c, size=m).astype(np.intp)
        model = init_model(d, h, c, block_spec, rng)
        _, analytic = _loss_and_grads(model, a_hat, x, edges, labels, wd)
        numeric = _numeric_grads(model, a_hat, x, edges, labels, wd)
        flat_n = np.concatenate([g_.ravel() for g_ in numeric])
        flat_a = np.concatenate([g_.ravel() for g_ in analytic])
        denom = np.maximum.reduce([np.abs(flat_a), np.abs(flat_n),
                                   np.full_like(flat_a, 1e-6)])
        worst = max(worst, float(np.max(np.abs(flat_a - flat_n) / denom)))
        instances += 1
    elapsed = time.perf_counter() - started
    ok = instances >= 20 and worst < 1e-4 and elapsed < 30.0
    _report(1, ok, f"{instances} instances, worst relative error "
                   f"{worst:.2e}, {elapsed:.1f}s")


# -- 2: propagation matrix invariants --------------------------------------


def test_criterion_2_adjacency_invariants():
    rng = np.random.default_rng(42)
    worst_sym = 0.0
    worst_rho = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 201))
        nodes = list(range(1, n + 1))
        weights = {}
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < min(1.0, 4.0 / n):
                weights[canonical_edge(a, b)] = float(rng.uniform(0.01, 1.0))
        g = AsGraph.from_edges(weights, nodes=nodes)
        w = g.edge_matrix([weights[e] for e in edge_pairs(g)])
        a_hat = build_normalized_adjacency(w)
        dense = _as_scipy(a_hat).toarray()
        worst_sym = max(worst_sym, float(np.max(np.abs(dense - dense.T))))
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        for _ in range(200):
            nv = dense @ v
            norm = np.linalg.norm(nv)
            if norm == 0:
                break
            v = nv / norm
        worst_rho = max(worst_rho, float(abs(v @ (dense @ v))))
    # regular rings: every row must sum to exactly one, with or without
    # a uniform edge weight
    worst_row = 0.0
    for n in (3, 10, 37, 120):
        g = AsGraph.from_edges(
            [(i + 1, (i + 1) % n + 1) for i in range(n)]
        )
        uniform = g.edge_matrix(np.full(g.num_edges, 0.4))
        for w in (g.adjacency(), uniform):
            rows = _as_scipy(build_normalized_adjacency(w)).sum(axis=1)
            worst_row = max(
                worst_row, float(np.max(np.abs(np.asarray(rows) - 1.0)))
            )
    ok = worst_sym == 0.0 and worst_rho <= 1.0 + 1e-6 and worst_row < 1e-12
    _report(2, ok, f"symmetry {worst_sym:.1e}, spectral radius "
                   f"{worst_rho:.8f}, regular row error {worst_row:.1e}")


# -- 3: feature families against brute-force oracles -----------------------


def _oracle_transit(paths):
    out = {}
    for p in paths:
        for x, m, y in zip(p.hops, p.hops[1:], p.hops[2:]):
            out.setdefault(m, set()).update((x, y))
    return out


def _oracle_bfs(adj, src):
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        new = []
        for a in frontier:
            for b in adj.get(a, ()):
                if b not in dist:
                    dist[b] = d
                    new.append(b)
        frontier = new
    return dist


def test_criterion_3_feature_oracles():
    rng = np.random.default_rng(3)
    checked = 0
    unreachable = 0  # trials where some node cannot reach a member
    for trial in range(100):
        n = int(rng.integers(4, 51))
        n_paths = int(rng.integers(2, 13))
        paths = []
        for _ in range(n_paths):
            length = min(int(rng.integers(2, 7)), n)
            hops = list(rng.choice(np.arange(1, n + 1),
                                   size=length, replace=False))
            paths.append(AsPath(tuple(int(h) for h in hops)))
        g = build_graph(PathStore.from_hops(paths))
        adj = {}
        for p in paths:
            for a, b in zip(p.hops, p.hops[1:]):
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
        assert g.nodes.tolist() == sorted(adj), "nodes"

        oracle_t = _oracle_transit(paths)
        degrees = g.degrees()
        for a in g.nodes.tolist():
            i = g.positions(a)
            neighbors = g.nodes[g.indices[g.indptr[i]:g.indptr[i + 1]]]
            assert g.transit[i] == len(oracle_t.get(a, ())), "transit"
            assert set(neighbors.tolist()) == adj[a], "neighbors"
            assert degrees[i] == len(adj[a]), "degree"

        members = g.nodes.tolist()
        clique = set(
            int(a) for a in rng.choice(members,
                                       size=min(3, len(members)),
                                       replace=False)
        )
        # what the model sees: the raw feature columns and the edge weights
        raw = dict(zip(members, assemble_features(g, clique).raw.tolist()))
        col = {c: k for k, c in enumerate(SCALAR_COLUMNS)}
        for a in members:
            assert raw[a][col["degree"]] == len(adj[a]), "degree"
            assert raw[a][col["transit_degree"]] == len(oracle_t.get(a, ())), "transit"

        # a pair with no path counts one hop more than the longest finite
        # member distance
        from_member = {c: _oracle_bfs(adj, c) for c in clique}
        fill = 1 + max(max(d.values()) for d in from_member.values())
        unreachable += any(len(d) < len(members) for d in from_member.values())
        for a in members:
            vals = [from_member[c].get(a, fill) for c in clique]
            want = sum(vals) / len(vals)
            assert abs(raw[a][col["dist_to_clique"]] - want) < 1e-12, "clique dist"

        w = _as_scipy(cnr_edge_weights(g))
        assert w.nnz == 2 * g.num_edges, "cnr entries"
        for (a, b), (i, j) in zip(edge_pairs(g), g.edge_rows.tolist()):
            na = adj[a] - {a, b}
            nb = adj[b] - {a, b}
            union = na | nb
            want = len(na & nb) / len(union) if union else 0.0
            assert abs(w[i, j] - want) < 1e-12 and w[j, i] == w[i, j], "cnr"

        for a in members:
            seen = [p.hops.index(a) for p in paths if a in p.hops]
            assert raw[a][col["dist_to_vp_min"]] == min(seen), "vp min"
            assert raw[a][col["dist_to_vp_max"]] == max(seen), "vp max"
            mean = raw[a][col["dist_to_vp_mean"]]
            assert abs(mean - sum(seen) / len(seen)) < 1e-12, "vp mean"
            observers = {p.vp for p in paths if a in p.hops}
            assert raw[a][col["assign_vp"]] == len(observers), "assign vp"
        checked += 1
    _report(3, checked == 100 and unreachable > 0,
            f"{checked}/100 random path sets matched the feature and edge "
            f"weight oracles ({unreachable} with unreachable clique pairs)")


# -- 4: metric identities ---------------------------------------------------


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(4)
    exact = True
    for _ in range(50):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 30, size=(k, k)).astype(np.int64)
        if cm.sum() == 0:
            cm[0, 0] = 1
        names = [f"c{i}" for i in range(k)]
        doc = metrics_doc(names, {"test": cm})["test"]
        for i in range(k):
            m = doc["per_class"][names[i]]
            col = cm[:, i].sum()
            row = cm[i, :].sum()
            want_p = cm[i, i] / col if col else 0.0
            want_r = cm[i, i] / row if row else 0.0
            exact &= m["precision"] == want_p and m["recall"] == want_r
            exact &= m["precision_defined"] == (col > 0)
            exact &= m["recall_defined"] == (row > 0)
        exact &= accuracy(cm) == doc["accuracy"] == np.trace(cm) / cm.sum()
    _report(4, exact, "precision/recall/accuracy identities exact")


# -- 5: end-to-end accuracy on the default synthetic topology ---------------


def test_criterion_5_end_to_end_accuracy():
    started = time.perf_counter()
    cfg = SynthConfig()  # seed 7 defaults
    truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    with tempfile.TemporaryDirectory() as d:
        export(truth, paths, d, n_sources=3, perturbation=0.03, seed=cfg.seed)
        prep = prepare(DataFiles.discover(d), "multi", cfg.seed)
        config = TrainConfig.for_mode("multi", cfg.seed)
        a_hat = adjacency_for(prep.bundle.graph, True)
        _, confusion = run_training(prep.bundle.features.values, a_hat, prep.dataset,
                                    config)
        tr_y = prep.dataset.split("train")[1]
        te_y = prep.dataset.split("test")[1]
        majority = majority_baseline(tr_y, te_y)
        stump = degree_gap_baseline(prep.bundle.graph, prep.dataset)
    elapsed = time.perf_counter() - started
    acc = accuracy(confusion["test"])
    ok = acc >= 0.85 and acc > majority and acc > stump and elapsed < 300.0
    _report(5, ok, f"test accuracy {acc:.4f} (majority {majority:.4f}, "
                   f"degree-gap {stump:.4f}), {elapsed:.1f}s")


# -- 6: routing policy holds on random topologies ---------------------------


def test_criterion_6_policy_everywhere():
    rng = np.random.default_rng(6)
    total = 0
    violations = 0
    cyclic = 0
    for i in range(50):
        cfg = SynthConfig(
            n_tier1=int(rng.integers(1, 6)),
            n_mid=int(rng.integers(5, 61)),
            n_stub=int(rng.integers(5, 81)),
            n_ixp=int(rng.integers(0, 7)),
            n_orgs=int(rng.integers(0, 11)),
            n_vps=int(rng.integers(2, 9)),
            paths_per_vp=int(rng.integers(10, 61)),
            seed=int(i),
        )
        truth = generate(cfg)
        if not p2c_is_acyclic(truth.route_graph):
            cyclic += 1
        paths, _ = simulate_paths(truth, cfg)
        total += len(paths)
        violations += sum(
            1 for p in paths if not is_valley_free(p.hops, truth)
        )
    ok = violations == 0 and cyclic == 0 and total > 0
    _report(6, ok, f"{total} paths over 50 random topologies, "
                   f"{violations} policy violations, {cyclic} cyclic hierarchies")


# -- 7: voting identity and perturbed-vote oracle ----------------------------


def _vote_oracle(source_paths):
    """Unanimous-agreement voting, re-derived from the raw source files."""
    calls = []
    for p in source_paths:
        rows = {}
        drop = set()
        for line in Path(p).read_text().splitlines():
            a, b, code = (int(v) for v in line.split("|"))
            pair = canonical_edge(a, b)
            call = (RelLabel.P2P, None) if code == 0 else (RelLabel.P2C, a)
            if pair in rows and rows[pair] != call:
                drop.add(pair)
            rows.setdefault(pair, call)
        calls.append({k: v for k, v in rows.items() if k not in drop})
    out = {}
    for pair, first in calls[0].items():
        if all(c.get(pair) == first for c in calls[1:]):
            out[pair] = first
    return out


def test_criterion_7_vote_semantics():
    cfg = SynthConfig(n_tier1=4, n_mid=40, n_stub=80, n_ixp=6, n_orgs=10,
                      n_vps=12, paths_per_vp=60, seed=17)
    truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    with tempfile.TemporaryDirectory() as d:
        clean = export(truth, paths, Path(d) / "clean",
                       n_sources=3, perturbation=0.0, seed=3)
        sources = [load_label_source(clean[f"labels_{i}"]) for i in (1, 2, 3)]
        edges, report = vote_intersection(sources)
        n_obs = len(observed_edges(paths))
        identity_ok = (
            report.coincidence_rate == 1.0
            and report.intersection_pairs == report.union_pairs == n_obs
            and len(edges) == n_obs
        )

        noisy = export(truth, paths, Path(d) / "noisy",
                       n_sources=3, perturbation=0.25, seed=3)
        files = [noisy[f"labels_{i}"] for i in (1, 2, 3)]
        got, _ = vote_intersection([load_label_source(f) for f in files])
        want = _vote_oracle(files)
        match = len(got) == len(want)
        for a, b, got_label, _, _ in got.rows():
            call = want.get(canonical_edge(a, b))
            if call is None:
                match = False
                break
            label, provider = call
            if got_label is not label or (
                label is RelLabel.P2C and provider != a
            ):
                match = False
                break
    ok = identity_ok and match
    _report(7, ok, f"zero-noise identity over {n_obs} pairs; perturbed vote "
                   f"matches enumeration on {len(want)} pairs")


# -- 8: bitwise-reproducible CLI training ------------------------------------


def test_criterion_8_reproducible_cli(tmp_path):
    data = tmp_path / "data"
    code = cli_run([
        "synth", "--n-tier1", "4", "--n-mid", "40", "--n-stub", "80",
        "--n-ixp", "6", "--n-orgs", "10", "--n-vps", "12",
        "--paths-per-vp", "80", "--perturbation", "0.05", "--seed", "5",
        "--out", str(data),
    ])
    assert code == 0
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli_run([
            "train", "--data", str(data), "--mode", "multi",
            "--epochs", "60", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        blobs.append((
            (out / "checkpoint.json").read_bytes(),
            (out / "history.csv").read_bytes(),
        ))
    ok = blobs[0] == blobs[1]
    _report(8, ok, "two identical train invocations produced "
                   f"byte-identical checkpoint ({len(blobs[0][0])} bytes) "
                   "and history")


# -- 9: the ablate axis covers every input ----------------------------------


def test_criterion_9_importance_protocol():
    cfg = SynthConfig(n_tier1=4, n_mid=40, n_stub=80, n_ixp=6, n_orgs=10,
                      n_vps=12, paths_per_vp=80, seed=9)
    truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    with tempfile.TemporaryDirectory() as d:
        export(truth, paths, d, n_sources=3, perturbation=0.0, seed=1)
        code = cli_run(["sweep", "--data", d, "--mode", "multi",
                        "--ablate", ",".join(["none", *ABLATABLE_FEATURES]),
                        "--epochs", "12", "--hidden", "8", "--seed", "6",
                        "--out", str(Path(d) / "sweep")])
        rows = (Path(d) / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        fm = prepare(DataFiles.discover(d), "multi", seed=6).bundle.features
    covered = [row.split(",")[0] for row in rows]
    # every feature column is knocked out by some value of the axis, and
    # "cnr" alone switches the edge weights off: a row of column indices
    # shows which
    probe = replace(fm, values=np.arange(len(fm.columns))[None, :])
    dropped, unweighted = set(), []
    for name in covered:
        x, weighted = ablate_columns(probe, None if name == "none" else name)
        dropped |= set(range(len(fm.columns))) - set(x[0].tolist())
        if not weighted:
            unweighted.append(name)

    ok = (
        code == 0
        and covered == ["none", *ABLATABLE_FEATURES]
        and dropped == set(range(len(fm.columns)))
        and unweighted == ["cnr"]
        and len(covered) == 11
        and all(0.0 <= float(v) <= 1.0 for row in rows for v in row.split(",")[1:])
    )
    _report(9, ok, f"{len(covered) - 1} ablations beside the full model, "
                   f"{len(dropped)} of {len(fm.columns)} columns dropped by one")
