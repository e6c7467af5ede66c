import itertools
import random

import numpy as np
import pytest
import scipy.sparse as sp

from bgprel.gcn import (
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    build_normalized_adjacency,
    edge_scores,
    forward,
    forward_block,
    init_model,
    load_checkpoint,
    loss_and_grads,
    loss_value,
    predict,
    save_checkpoint,
    train,
    write_history_csv,
)
from bgprel.topology import AsGraph, canonical_edge


def index_of(graph):
    return {a: i for i, a in enumerate(graph.sorted_nodes())}


def random_topology(rng, n_nodes, p_edge=0.35, weighted=True):
    nodes = list(range(1, n_nodes + 1))
    edges = [
        (a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < p_edge
    ]
    if not edges:
        edges = [(1, 2)] if n_nodes >= 2 else []
    g = AsGraph.from_edges(edges)
    for a in nodes:
        g.add_node(a)
    index = {a: i for i, a in enumerate(nodes)}
    weights = None
    if weighted:
        weights = {canonical_edge(a, b): rng.random() for a, b in g.edges()}
    return g, index, weights


class TestNormalizedAdjacency:
    def test_two_node_example(self):
        g = AsGraph.from_edges([(1, 2)])
        a_hat = build_normalized_adjacency(g, {1: 0, 2: 1}, {(1, 2): 1.0})
        assert np.allclose(a_hat.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_single_node(self):
        g = AsGraph()
        g.add_node(7)
        a_hat = build_normalized_adjacency(g, {7: 0})
        assert np.allclose(a_hat.toarray(), [[1.0]])

    def test_symmetric(self):
        rng = random.Random(2)
        g, index, weights = random_topology(rng, 30)
        a_hat = build_normalized_adjacency(g, index, weights).toarray()
        assert np.abs(a_hat - a_hat.T).max() < 1e-12

    def test_delta_floor_applied(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        tiny = {(1, 2): 0.0, (2, 3): 0.9}
        a_hat = build_normalized_adjacency(g, index_of(g), tiny, delta=0.05)
        dense = a_hat.toarray()
        # the floored edge keeps propagating: entry stays positive
        assert dense[0, 1] > 0.0
        # recompute by hand: degrees with floor 0.05
        d = np.array([1.05, 1.95, 1.9])
        want01 = 0.05 / np.sqrt(d[0] * d[1])
        assert dense[0, 1] == pytest.approx(want01, rel=1e-12)

    def test_unweighted_rows_of_regular_graph_sum_to_one(self):
        # cycle graph is 2-regular
        g = AsGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        a_hat = build_normalized_adjacency(g, index_of(g))
        sums = np.asarray(a_hat.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_spectral_radius_at_most_one(self):
        rng = random.Random(5)
        for trial in range(5):
            g, index, weights = random_topology(rng, 40)
            a_hat = build_normalized_adjacency(g, index, weights)
            v = np.ones(a_hat.shape[0]) / np.sqrt(a_hat.shape[0])
            for _ in range(500):
                nxt = a_hat @ v
                norm = np.linalg.norm(nxt)
                v = nxt / norm
            assert norm <= 1.0 + 1e-6

    def test_delta_validation(self):
        g = AsGraph.from_edges([(1, 2)])
        with pytest.raises(ValueError):
            build_normalized_adjacency(g, index_of(g), delta=0.0)
        with pytest.raises(ValueError):
            build_normalized_adjacency(g, index_of(g), delta=1.5)


class TestForward:
    def dense_block_oracle(self, a_hat, h, weights):
        a = a_hat.toarray()
        out = np.asarray(h, dtype=float)
        for w in weights:
            out = np.maximum(a @ out @ w, 0.0)
        norms = np.sqrt((out * out).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        return out / norms

    def test_matches_dense_oracle(self):
        rng = random.Random(11)
        nprng = np.random.default_rng(11)
        for trial in range(10):
            g, index, weights = random_topology(rng, 12)
            a_hat = build_normalized_adjacency(g, index, weights)
            h = nprng.normal(size=(12, 5))
            ws = [nprng.normal(size=(5, 4)), nprng.normal(size=(4, 4))]
            got, _ = forward_block(a_hat, h, ws)
            want = self.dense_block_oracle(a_hat, h, ws)
            assert np.allclose(got, want, atol=1e-12)

    def test_rows_unit_or_zero(self):
        rng = random.Random(13)
        nprng = np.random.default_rng(13)
        g, index, weights = random_topology(rng, 15)
        a_hat = build_normalized_adjacency(g, index, weights)
        h = nprng.normal(size=(15, 6))
        out, _ = forward_block(a_hat, h, [nprng.normal(size=(6, 3))])
        norms = np.linalg.norm(out, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_zero_weights_give_zero_rows(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        a_hat = build_normalized_adjacency(g, index_of(g))
        out, _ = forward_block(a_hat, np.ones((3, 4)), [np.zeros((4, 2))])
        assert np.all(out == 0.0)

    def test_shape_mismatch(self):
        g = AsGraph.from_edges([(1, 2)])
        a_hat = build_normalized_adjacency(g, index_of(g))
        with pytest.raises(ValueError):
            forward_block(a_hat, np.ones((2, 3)), [np.ones((4, 2))])


class TestEdgeScores:
    def setup_method(self):
        rng = random.Random(17)
        self.nprng = np.random.default_rng(17)
        g, index, weights = random_topology(rng, 10)
        self.a_hat = build_normalized_adjacency(g, index, weights)
        self.model = init_model(6, 8, 4, (2, 1), self.nprng)
        self.x = self.nprng.uniform(size=(10, 6))

    def test_rows_are_log_distributions(self):
        z, _ = forward(self.model, self.a_hat, self.x)
        edges = np.array([[0, 1], [2, 5], [9, 3]])
        logp = edge_scores(self.model, z, edges)
        lse = np.log(np.exp(logp).sum(axis=1))
        assert np.abs(lse).max() < 1e-9

    def test_direction_matters(self):
        z, _ = forward(self.model, self.a_hat, self.x)
        fwd = edge_scores(self.model, z, np.array([[0, 1]]))
        rev = edge_scores(self.model, z, np.array([[1, 0]]))
        assert not np.allclose(fwd, rev)

    def test_out_of_range_index(self):
        z, _ = forward(self.model, self.a_hat, self.x)
        with pytest.raises(IndexError):
            edge_scores(self.model, z, np.array([[0, 99]]))

    def test_argmax_stable_under_monotone_rescaling(self):
        pred, logp = predict(self.model, self.a_hat, self.x, np.array([[0, 1], [4, 2]]))
        assert np.array_equal(pred, (3.0 * logp + 11.0).argmax(axis=1))


class TestLoss:
    def test_hand_computed(self):
        logp = np.log(np.array([[0.5, 0.25, 0.125, 0.125], [0.25, 0.25, 0.25, 0.25]]))
        labels = np.array([0, 2])
        want = -(np.log(0.5) + np.log(0.25)) / 2
        assert loss_value(logp, labels) == pytest.approx(want, rel=1e-12)

    def test_label_out_of_range(self):
        logp = np.log(np.full((1, 2), 0.5))
        with pytest.raises(ValueError):
            loss_value(logp, np.array([5]))

    def test_weight_decay_term(self):
        logp = np.log(np.full((1, 2), 0.5))
        params = [np.array([[2.0]]), np.array([3.0])]
        got = loss_value(logp, np.array([0]), params, weight_decay=0.1)
        assert got == pytest.approx(-np.log(0.5) + 0.05 * 13.0, rel=1e-12)

    def test_gradient_contribution_linear_per_edge(self):
        # on the per-edge sum level, duplicating an edge doubles its share:
        # 3 * grad([a, a, b]) == 2 * grad([a]) + grad([b])
        rng = random.Random(19)
        nprng = np.random.default_rng(19)
        g, index, weights = random_topology(rng, 8)
        a_hat = build_normalized_adjacency(g, index, weights)
        x = nprng.uniform(size=(8, 4))
        model = init_model(4, 6, 3, (1, 1), nprng)
        ea, eb = np.array([[0, 1]]), np.array([[2, 3]])
        both = np.array([[0, 1], [0, 1], [2, 3]])
        la, lb = np.array([1]), np.array([2])
        lboth = np.array([1, 1, 2])
        _, g_both = loss_and_grads(model, a_hat, x, both, lboth)
        _, g_a = loss_and_grads(model, a_hat, x, ea, la)
        _, g_b = loss_and_grads(model, a_hat, x, eb, lb)
        for gb, ga_, gb_ in zip(g_both, g_a, g_b):
            assert np.allclose(3.0 * gb, 2.0 * ga_ + gb_, atol=1e-12)


def finite_difference_grads(model, a_hat, x, edges, labels, wd, step=1e-5):
    grads = []
    for p in model.params():
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            z, _ = forward(model, a_hat, x)
            up = loss_value(edge_scores(model, z, edges), labels, model.params(), wd)
            flat[k] = orig - step
            z, _ = forward(model, a_hat, x)
            down = loss_value(edge_scores(model, z, edges), labels, model.params(), wd)
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def gradcheck_instance(seed, block_spec, weight_decay):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    n = rng.randint(4, 10)
    d = rng.randint(2, 6)
    h = rng.randint(2, 8)
    c = rng.choice([2, 4])
    g, index, weights = random_topology(rng, n, p_edge=0.5)
    a_hat = build_normalized_adjacency(g, index, weights)
    x = nprng.uniform(size=(n, d))
    model = init_model(d, h, c, block_spec, nprng)
    pool = [(index[a], index[b]) for a, b in g.edges()]
    m = min(len(pool), rng.randint(2, 6))
    edges = []
    for i, j in rng.sample(pool, m):
        edges.append((j, i) if rng.random() < 0.5 else (i, j))
    edges = np.array(edges)
    labels = np.array([rng.randrange(c) for _ in range(m)])
    return model, a_hat, x, edges, labels, weight_decay


class TestGradients:
    @pytest.mark.parametrize("block_spec", [(2, 2), (2, 1)])
    def test_matches_finite_differences(self, block_spec):
        for seed in range(6):
            wd = 0.0 if seed % 2 == 0 else 5e-4
            model, a_hat, x, edges, labels, wd = gradcheck_instance(
                100 + seed, block_spec, wd
            )
            _, analytic = loss_and_grads(model, a_hat, x, edges, labels, wd)
            numeric = finite_difference_grads(model, a_hat, x, edges, labels, wd)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_no_edges_rejected(self):
        model, a_hat, x, _, _, _ = gradcheck_instance(7, (2, 1), 0.0)
        with pytest.raises(ValueError):
            loss_and_grads(model, a_hat, x, np.empty((0, 2), dtype=int), np.empty(0))


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.3, -0.7])
        state = AdamState.for_params([p])
        adam_step([p], [g], state, lr=0.1)
        # bias-corrected first step reduces to lr * sign(g) up to eps
        assert np.allclose(p, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_zero_gradient_keeps_params(self):
        p = np.array([3.0])
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(1)], state, lr=0.5)
        assert p[0] == 3.0

    def test_quadratic_descends(self):
        target = np.array([2.0, -1.0, 0.5])
        p = np.zeros(3)
        state = AdamState.for_params([p])
        start = float(((p - target) ** 2).sum())
        for _ in range(100):
            adam_step([p], [2.0 * (p - target)], state, lr=0.05)
        end = float(((p - target) ** 2).sum())
        assert end < start


def toy_communities():
    """Two 5-cliques with orthogonal features; edges labeled by side."""
    left = list(range(1, 6))
    right = list(range(6, 11))
    edges = [e for ns in (left, right) for e in itertools.combinations(ns, 2)]
    g = AsGraph.from_edges(edges + [(5, 6)])  # one bridge
    index = {a: i for i, a in enumerate(g.sorted_nodes())}
    x = np.zeros((10, 2))
    for a in left:
        x[index[a], 0] = 1.0
    for a in right:
        x[index[a], 1] = 1.0
    a_hat = build_normalized_adjacency(g, index)
    pairs = [(index[a], index[b], 0 if a in left else 1) for a, b in edges]
    rng = random.Random(0)
    rng.shuffle(pairs)
    k = int(len(pairs) * 0.7)
    tr, va = pairs[:k], pairs[k:]
    to_arr = lambda rows: (
        np.array([[i, j] for i, j, _ in rows]),
        np.array([y for _, _, y in rows]),
    )
    return x, a_hat, *to_arr(tr), *to_arr(va)


class TestTrain:
    def test_separable_toy_reaches_perfect_validation(self):
        x, a_hat, te, tl, ve, vl = toy_communities()
        config = TrainConfig(
            mode="binary", epochs=60, learning_rate=0.05, hidden=8, seed=1
        )
        result = train(x, a_hat, te, tl, ve, vl, config)
        assert result.best_val_accuracy == 1.0

    def test_same_seed_same_run(self):
        x, a_hat, te, tl, ve, vl = toy_communities()
        config = TrainConfig(mode="binary", epochs=15, hidden=8, seed=5)
        r1 = train(x, a_hat, te, tl, ve, vl, config)
        r2 = train(x, a_hat, te, tl, ve, vl, config)
        assert r1.history == r2.history
        for p1, p2 in zip(r1.model.params(), r2.model.params()):
            assert np.array_equal(p1, p2)

    def test_best_snapshot_is_earliest_tie(self):
        x, a_hat, te, tl, ve, vl = toy_communities()
        config = TrainConfig(mode="binary", epochs=40, hidden=8, seed=1)
        result = train(x, a_hat, te, tl, ve, vl, config)
        top = max(acc for _, _, acc in result.history)
        first = min(e for e, _, acc in result.history if acc == top)
        assert result.best_epoch == first
        assert result.best_val_accuracy == top

    def test_nan_loss_aborts_with_diagnostic(self):
        x, a_hat, te, tl, ve, vl = toy_communities()
        x = x.copy()
        x[0, 0] = np.nan
        config = TrainConfig(mode="binary", epochs=5, hidden=4, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(x, a_hat, te, tl, ve, vl, config)

    def test_empty_split_rejected(self):
        x, a_hat, te, tl, _, _ = toy_communities()
        config = TrainConfig(mode="binary", epochs=5, hidden=4)
        with pytest.raises(ValueError):
            train(x, a_hat, te, tl, np.empty((0, 2), dtype=int), np.empty(0), config)

    def test_mode_defaults(self):
        b = TrainConfig.for_mode("binary")
        assert (b.learning_rate, b.weight_decay, b.block_spec) == (0.1, 5e-4, (2, 2))
        m = TrainConfig.for_mode("multi")
        assert (m.learning_rate, m.weight_decay, m.block_spec) == (0.05, 0.0, (2, 1))
        assert b.epochs == m.epochs == 200
        assert b.hidden == m.hidden == 32


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        nprng = np.random.default_rng(3)
        model = init_model(14, 32, 4, (2, 1), nprng)
        f = tmp_path / "model.json"
        save_checkpoint(f, model, meta={"mode": "multi", "delta": 0.05})
        again, meta = load_checkpoint(f)
        assert meta["mode"] == "multi"
        assert again.block_spec == model.block_spec
        for p1, p2 in zip(model.params(), again.params()):
            assert np.array_equal(p1, p2)

    def test_identical_models_identical_bytes(self, tmp_path):
        m1 = init_model(6, 8, 2, (2, 2), np.random.default_rng(9))
        m2 = init_model(6, 8, 2, (2, 2), np.random.default_rng(9))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(f1, m1, meta={"seed": 9})
        save_checkpoint(f2, m2, meta={"seed": 9})
        assert f1.read_bytes() == f2.read_bytes()

    def test_history_csv(self, tmp_path):
        f = tmp_path / "history.csv"
        write_history_csv([(1, 1.25, 0.5), (2, 0.75, 1.0)], f)
        lines = f.read_text().splitlines()
        assert lines[0] == "epoch,loss,val_accuracy"
        assert lines[1] == "1,1.25,0.5"
        assert len(lines) == 3
