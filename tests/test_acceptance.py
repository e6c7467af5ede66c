"""End-to-end acceptance checks.

Each test prints one PASS or FAIL line (run with -s to see them) and
asserts the same condition, so the suite doubles as a scorecard.
"""

import itertools
import tempfile
import time
from pathlib import Path

import numpy as np

from bgprel.cli import run as cli_run
from bgprel.dataset import RelLabel, load_label_source, vote_intersection
from bgprel.evaluate import (
    ABLATABLE_FEATURES,
    AblationRun,
    accuracy,
    feature_importance,
    metrics,
)
from bgprel.gcn import (
    TrainConfig,
    build_normalized_adjacency,
    init_model,
    loss_and_grads,
)
from bgprel.pipeline import (
    DataFiles,
    degree_gap_baseline,
    importance_runner,
    majority_baseline,
    prepare,
    run_experiment,
)
from bgprel.synth import (
    SynthConfig,
    export,
    generate,
    is_valley_free,
    observed_edges,
    p2c_is_acyclic,
    simulate_paths,
)
from bgprel.topology import (
    AsGraph,
    build_graph,
    canonical_edge,
    clique_distances,
    common_neighbor_ratio,
    vp_stats,
)
from bgprel.ingest import AsPath


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- 1: analytic gradients match finite differences -----------------------


def _numeric_grads(model, a_hat, x, edges, labels, wd, step=1e-5):
    grads = []
    for p in model.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            up, _ = loss_and_grads(model, a_hat, x, edges, labels, wd)
            p[idx] = orig - step
            down, _ = loss_and_grads(model, a_hat, x, edges, labels, wd)
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
        g = AsGraph()
        nodes = list(range(1, n + 1))
        for a in nodes:
            g.add_node(a)
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < 0.45:
                g.add_edge(a, b)
        index = {a: i for i, a in enumerate(nodes)}
        a_hat = build_normalized_adjacency(g, index)
        x = rng.normal(size=(n, d))
        m = int(rng.integers(3, 9))
        edges = rng.integers(0, n, size=(m, 2)).astype(np.intp)
        labels = rng.integers(0, c, size=m).astype(np.intp)
        model = init_model(d, h, c, block_spec, rng)
        _, analytic = loss_and_grads(model, a_hat, x, edges, labels, wd)
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
        g = AsGraph()
        for a in nodes:
            g.add_node(a)
        weights = {}
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < min(1.0, 4.0 / n):
                g.add_edge(a, b)
                weights[canonical_edge(a, b)] = float(rng.uniform(0.01, 1.0))
        index = {a: i for i, a in enumerate(nodes)}
        a_hat = build_normalized_adjacency(g, index, weights, delta=0.05)
        dense = a_hat.toarray()
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
        index = {a: i for i, a in enumerate(sorted(g.nodes))}
        uniform = {canonical_edge(i + 1, (i + 1) % n + 1): 0.4
                   for i in range(n)}
        for w in (None, uniform):
            rows = build_normalized_adjacency(g, index, w).sum(axis=1)
            worst_row = max(
                worst_row, float(np.max(np.abs(np.asarray(rows) - 1.0)))
            )
    ok = worst_sym < 1e-12 and worst_rho <= 1.0 + 1e-6 and worst_row < 1e-12
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
    for trial in range(100):
        n = int(rng.integers(4, 51))
        n_paths = int(rng.integers(2, 13))
        paths = []
        for _ in range(n_paths):
            length = min(int(rng.integers(2, 7)), n)
            hops = list(rng.choice(np.arange(1, n + 1),
                                   size=length, replace=False))
            paths.append(AsPath(tuple(int(h) for h in hops)))
        g = build_graph(paths)
        adj = {a: set(g.neighbors(a)) for a in g.nodes}

        oracle_t = _oracle_transit(paths)
        for a in g.nodes:
            assert g.transit_degree(a) == len(oracle_t.get(a, ())), "transit"
            assert g.degree(a) == len(adj[a]), "degree"

        members = sorted(g.nodes)
        clique = set(
            int(a) for a in rng.choice(members,
                                       size=min(3, len(members)),
                                       replace=False)
        )
        means, _ = clique_distances(g, clique)
        diameter = g.diameter()
        for a in g.nodes:
            vals = []
            for c in clique:
                if c == a:
                    vals.append(0)
                    continue
                d = _oracle_bfs(adj, a).get(c)
                vals.append(diameter + 1 if d is None else d)
            assert abs(means[a] - sum(vals) / len(vals)) < 1e-12, "clique dist"

        for a, b in g.edges():
            na = adj[a] - {a, b}
            nb = adj[b] - {a, b}
            union = na | nb
            want = len(na & nb) / len(union) if union else 0.0
            assert abs(common_neighbor_ratio(g, a, b) - want) < 1e-12, "cnr"

        for a in g.nodes:
            seen = [p.hops.index(a) for p in paths if a in p.hops]
            stats = vp_stats(g, a)
            assert stats.observed == (len(seen) > 0)
            if seen:
                assert stats.min == min(seen) and stats.max == max(seen)
                assert abs(stats.mean - sum(seen) / len(seen)) < 1e-12
                observers = {p.vp for p in paths if a in p.hops}
                assert stats.assign_vp == len(observers), "assign vp"
        checked += 1
    _report(3, checked == 100,
            f"{checked}/100 random path sets matched all four oracles")


# -- 4: metric identities ---------------------------------------------------


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(4)
    exact = True
    for _ in range(50):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 30, size=(k, k)).astype(np.int64)
        if cm.sum() == 0:
            cm[0, 0] = 1
        for i in range(k):
            m = metrics(cm, i)
            col = cm[:, i].sum()
            row = cm[i, :].sum()
            want_p = cm[i, i] / col if col else 0.0
            want_r = cm[i, i] / row if row else 0.0
            exact &= m.precision == want_p and m.recall == want_r
            exact &= m.precision_defined == (col > 0)
            exact &= m.recall_defined == (row > 0)
        exact &= accuracy(cm) == np.trace(cm) / cm.sum()

    fixed = {None: 0.9, "a": 0.8, "b": 0.7, "c": 0.9}
    report = feature_importance(
        lambda f: AblationRun(accuracy=fixed[f], seed=1), features=("a", "b", "c")
    )
    shares = [e.score for e in report.entries]
    total = sum(shares)
    hand = [abs(0.9 - fixed[f]) / 0.3 * 100 for f in ("a", "b", "c")]
    share_ok = (
        abs(total - 100.0) < 0.01
        and all(abs(s - h) < 1e-9 for s, h in zip(shares, hand))
        and not report.degenerate
    )
    _report(4, exact and share_ok,
            f"precision/recall/accuracy identities exact, importance "
            f"shares sum {total:.6f}")


# -- 5: end-to-end accuracy on the default synthetic topology ---------------


def test_criterion_5_end_to_end_accuracy():
    started = time.perf_counter()
    cfg = SynthConfig()  # seed 7 defaults
    _, truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    with tempfile.TemporaryDirectory() as d:
        export(truth, paths, d, n_sources=3, perturbation=0.03, seed=cfg.seed)
        exp = run_experiment(DataFiles.discover(d), mode="multi", seed=cfg.seed)
        tr_y = exp.dataset.split("train")[1]
        te_y = exp.dataset.split("test")[1]
        majority = majority_baseline(tr_y, te_y)
        stump = degree_gap_baseline(exp.bundle.graph, exp.dataset)
    elapsed = time.perf_counter() - started
    acc = exp.outcome.test_accuracy
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
        _, truth = generate(cfg)
        if not p2c_is_acyclic(truth):
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
    _, truth = generate(cfg)
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
        for e in got:
            call = want.get(e.pair)
            if call is None:
                match = False
                break
            label, provider = call
            if e.label is not label or (
                label is RelLabel.P2C and provider != e.a
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


# -- 9: importance covers every input, same seed throughout -------------------


def test_criterion_9_importance_protocol():
    cfg = SynthConfig(n_tier1=4, n_mid=40, n_stub=80, n_ixp=6, n_orgs=10,
                      n_vps=12, paths_per_vp=80, seed=9)
    _, truth = generate(cfg)
    paths, _ = simulate_paths(truth, cfg)
    with tempfile.TemporaryDirectory() as d:
        export(truth, paths, d, n_sources=3, perturbation=0.0, seed=1)
        prep = prepare(DataFiles.discover(d), "multi", seed=6)
        config = TrainConfig.for_mode("multi", seed=6, epochs=12, hidden=8)
        runner = importance_runner(prep.bundle.graph, prep.bundle.features,
                                   prep.dataset, config)
        report = feature_importance(runner)
    covered = [e.feature for e in report.entries]
    same_seed = set(report.seeds) == {6}

    flat = feature_importance(
        lambda f: AblationRun(accuracy=0.5, seed=0), features=("a", "b")
    )
    ok = (
        covered == list(ABLATABLE_FEATURES)
        and len(covered) == 10
        and same_seed
        and flat.degenerate
        and all(e.score is None for e in flat.entries)
    )
    _report(9, ok, f"{len(covered)} ablations, seeds {sorted(set(report.seeds))}, "
                   f"degenerate case flagged={flat.degenerate}")
