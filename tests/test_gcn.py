import base64
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

import bgprel.gcn as gcn
from bgprel.dataset import mode_classes
from bgprel.gcn import (
    AdamState,
    Checkpoint,
    Epoch,
    GcnModel,
    RowPlan,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    build_normalized_adjacency,
    forward,
    incidence_matrix,
    init_model,
    load_checkpoint,
    loss_and_grads,
    predict,
    save_checkpoint,
    train,
    write_history_csv,
)
from bgprel.topology import AsGraph
from reference import edge_batch, edge_scores, loss_value


def as_scipy(m):
    """A square ``Csr`` as a scipy csr_matrix over its arrays: scipy is
    the reference these tests hold the numpy matrices to."""
    n = len(m.indptr) - 1
    return sp.csr_matrix(tuple(m), shape=(n, n))


def random_topology(rng, n_nodes, p_edge=0.35):
    """Random graph over ASNs 1..n_nodes and a random weight per edge."""
    nodes = list(range(1, n_nodes + 1))
    edges = [
        (a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < p_edge
    ]
    if not edges:
        edges = [(1, 2)] if n_nodes >= 2 else []
    g = AsGraph.from_edges(edges, nodes=nodes)
    return g, g.edge_matrix([rng.random() for _ in range(g.num_edges)])


class TestNormalizedAdjacency:
    def test_two_node_example(self):
        g = AsGraph.from_edges([(1, 2)])
        a_hat = build_normalized_adjacency(g.edge_matrix([1.0]))
        assert np.allclose(as_scipy(a_hat).toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_single_node(self):
        g = AsGraph.from_edges([], nodes=[7])
        a_hat = build_normalized_adjacency(g.adjacency())
        assert np.allclose(as_scipy(a_hat).toarray(), [[1.0]])

    def test_symmetric(self):
        rng = random.Random(2)
        g, weights = random_topology(rng, 30)
        a_hat = as_scipy(build_normalized_adjacency(weights)).toarray()
        assert np.array_equal(a_hat, a_hat.T)

    def test_delta_floor_applied(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        tiny = g.edge_matrix([0.0, 0.9])  # edges (1, 2), (2, 3)
        a_hat = build_normalized_adjacency(tiny)
        dense = as_scipy(a_hat).toarray()
        # the floored edge keeps propagating: entry stays positive
        assert dense[0, 1] > 0.0
        # recompute by hand: degrees with floor 0.05
        d = np.array([1.05, 1.95, 1.9])
        want01 = 0.05 / np.sqrt(d[0] * d[1])
        assert dense[0, 1] == pytest.approx(want01, rel=1e-12)

    def test_unweighted_rows_of_regular_graph_sum_to_one(self):
        # cycle graph is 2-regular
        g = AsGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        a_hat = build_normalized_adjacency(g.adjacency())
        sums = np.asarray(as_scipy(a_hat).sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_spectral_radius_at_most_one(self):
        rng = random.Random(5)
        for trial in range(5):
            g, weights = random_topology(rng, 40)
            a_hat = build_normalized_adjacency(weights)
            n = len(a_hat.indptr) - 1
            v = np.ones(n) / np.sqrt(n)
            for _ in range(500):
                nxt = a_hat @ v
                norm = np.linalg.norm(nxt)
                v = nxt / norm
            assert norm <= 1.0 + 1e-6


def forward_one_block(a_hat, h, weights):
    """The embeddings of a one-block model with these layer weights, over
    every node, from input features h."""
    hidden = weights[-1].shape[1]
    model = GcnModel([weights], np.zeros((2 * hidden, 2)), np.zeros(2),
                     weights[0].shape[0], hidden, 2)
    z, _ = forward(model, every_row(a_hat, model), a_hat @ h)
    return z


class TestForward:
    def dense_block_oracle(self, a_hat, h, weights):
        a = as_scipy(a_hat).toarray()
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
            g, weights = random_topology(rng, 12)
            a_hat = build_normalized_adjacency(weights)
            h = nprng.normal(size=(12, 5))
            ws = [nprng.normal(size=(5, 4)), nprng.normal(size=(4, 4))]
            got = forward_one_block(a_hat, h, ws)
            want = self.dense_block_oracle(a_hat, h, ws)
            assert np.allclose(got, want, atol=1e-12)

    def test_rows_unit_or_zero(self):
        rng = random.Random(13)
        nprng = np.random.default_rng(13)
        g, weights = random_topology(rng, 15)
        a_hat = build_normalized_adjacency(weights)
        h = nprng.normal(size=(15, 6))
        out = forward_one_block(a_hat, h, [nprng.normal(size=(6, 3))])
        norms = np.linalg.norm(out, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_zero_weights_give_zero_rows(self):
        g = AsGraph.from_edges([(1, 2), (2, 3)])
        a_hat = build_normalized_adjacency(g.adjacency())
        out = forward_one_block(a_hat, np.ones((3, 4)), [np.zeros((4, 2))])
        assert np.all(out == 0.0)

    def test_shape_mismatch(self):
        g = AsGraph.from_edges([(1, 2)])
        a_hat = build_normalized_adjacency(g.adjacency())
        with pytest.raises(ValueError):
            forward_one_block(a_hat, np.ones((2, 3)), [np.ones((4, 2))])


class TestEdgeScores:
    def setup_method(self):
        rng = random.Random(17)
        self.nprng = np.random.default_rng(17)
        g, weights = random_topology(rng, 10)
        self.a_hat = build_normalized_adjacency(weights)
        self.model = init_model(6, 8, 4, (2, 1), self.nprng)
        self.x = self.nprng.uniform(size=(10, 6))
        self.ax = self.a_hat @ self.x
        self.props = every_row(self.a_hat, self.model)

    def test_rows_are_log_distributions(self):
        z, _ = forward(self.model, self.props, self.ax)
        edges = np.array([[0, 1], [2, 5], [9, 3]])
        logp = edge_scores(self.model, z, edges)
        lse = np.log(np.exp(logp).sum(axis=1))
        assert np.abs(lse).max() < 1e-9

    def test_direction_matters(self):
        z, _ = forward(self.model, self.props, self.ax)
        fwd = edge_scores(self.model, z, np.array([[0, 1]]))
        rev = edge_scores(self.model, z, np.array([[1, 0]]))
        assert not np.allclose(fwd, rev)

    def test_out_of_range_index(self):
        z, _ = forward(self.model, self.props, self.ax)
        with pytest.raises(IndexError):
            edge_scores(self.model, z, np.array([[0, 99]]))

    def test_one_gather_equals_stacked_endpoint_rows(self):
        z, _ = forward(self.model, self.props, self.ax)
        edges = np.array([[0, 1], [2, 5], [9, 3], [3, 9], [4, 4]])
        u = np.hstack([z[edges[:, 0]], z[edges[:, 1]]])
        want = gcn._log_softmax(u @ self.model.head_w + self.model.head_b)
        got = edge_scores(self.model, z, edges)
        assert got.tobytes() == want.tobytes()

    def test_argmax_stable_under_monotone_rescaling(self):
        [(pred, logp)] = predict(self.model, self.a_hat, self.x, [np.array([[0, 1], [4, 2]])])
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
        g, weights = random_topology(rng, 8)
        a_hat = build_normalized_adjacency(weights)
        x = nprng.uniform(size=(8, 4))
        model = init_model(4, 6, 3, (1, 1), nprng)
        ea, eb = np.array([[0, 1]]), np.array([[2, 3]])
        both = np.array([[0, 1], [0, 1], [2, 3]])
        la, lb = np.array([1]), np.array([2])
        lboth = np.array([1, 1, 2])
        _, g_both = grads_at(model, a_hat, x, both, lboth)
        _, g_a = grads_at(model, a_hat, x, ea, la)
        _, g_b = grads_at(model, a_hat, x, eb, lb)
        for gb, ga_, gb_ in zip(g_both, g_a, g_b):
            assert np.allclose(3.0 * gb, 2.0 * ga_ + gb_, atol=1e-12)


def every_row(a_hat, model):
    """The operators of a forward pass over every node, as ``predict``
    runs it: A_hat itself for every layer."""
    return [a_hat] * model.n_layers


def grads_at(model, a_hat, x, edges, labels, wd=0.0):
    """loss_and_grads at the model's current parameters, as train calls
    it: from a forward pass over the propagated input, on the plan for
    the edges."""
    plan = RowPlan.build(a_hat, edges, model.n_layers)
    fwd = forward(model, plan.props, plan.props[0] @ x)
    return loss_and_grads(model, plan, fwd, edge_batch(edges, labels, plan), wd)


def finite_difference_grads(model, a_hat, x, edges, labels, wd, step=1e-5):
    """Central differences of the loss from forward passes over every
    node."""
    ax = a_hat @ x
    props = every_row(a_hat, model)
    grads = []
    for p in model.params():
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            z, _ = forward(model, props, ax)
            up = loss_value(edge_scores(model, z, edges), labels, model.params(), wd)
            flat[k] = orig - step
            z, _ = forward(model, props, ax)
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
    g, weights = random_topology(rng, n, p_edge=0.5)
    a_hat = build_normalized_adjacency(weights)
    x = nprng.uniform(size=(n, d))
    model = init_model(d, h, c, block_spec, nprng)
    pool = [tuple(e) for e in g.edge_rows.tolist()]
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
            _, analytic = grads_at(model, a_hat, x, edges, labels, wd)
            numeric = finite_difference_grads(model, a_hat, x, edges, labels, wd)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_no_edges_rejected(self):
        model, a_hat, x, _, _, _ = gradcheck_instance(7, (2, 1), 0.0)
        with pytest.raises(ValueError):
            grads_at(model, a_hat, x, np.empty((0, 2), dtype=int), np.empty(0))


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
    x = np.zeros((10, 2))
    x[g.positions(left), 0] = 1.0
    x[g.positions(right), 1] = 1.0
    a_hat = build_normalized_adjacency(g.adjacency())
    pairs = [(i, j, 0 if a in left else 1)
             for (a, _), (i, j) in zip(edges, g.positions(edges).tolist())]
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
        top = max(row.val_accuracy for row in result.history)
        first = min(row.epoch for row in result.history if row.val_accuracy == top)
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

    @pytest.mark.parametrize("lr, wd", [
        (0.0, 0.0), (-0.05, 0.0), (float("nan"), 0.0),
        (0.05, -0.1), (0.05, float("nan")),
    ])
    def test_bad_learning_rate_or_weight_decay_is_refused(self, lr, wd):
        with pytest.raises(ValueError, match="learning rate|weight decay"):
            TrainConfig(learning_rate=lr, weight_decay=wd)

    def test_mode_defaults(self):
        b = TrainConfig.for_mode("binary")
        assert (b.learning_rate, b.weight_decay, b.block_spec) == (0.1, 5e-4, (2, 2))
        m = TrainConfig.for_mode("multi")
        assert (m.learning_rate, m.weight_decay, m.block_spec) == (0.05, 0.0, (2, 1))
        assert b.epochs == m.epochs == 200
        assert b.hidden == m.hidden == 32

    def test_classes_come_from_the_modes_class_list(self):
        assert TrainConfig(mode="binary").n_classes == len(mode_classes("binary")) == 2
        assert TrainConfig(mode="multi").n_classes == len(mode_classes("multi")) == 4
        with pytest.raises(ValueError, match="^unknown mode 'both'$"):
            TrainConfig(mode="both")


# -- the epoch loop against a direct reference -----------------------------


class CountingCsr(sp.csr_matrix):
    """A plan's operator that counts its sparse products, those
    made through its transpose included, on a shared tally."""

    def __init__(self, matrix, tally):
        super().__init__(matrix)
        self.tally = tally

    def __matmul__(self, other):
        self.tally.append(1)
        return super().__matmul__(other)

    def transpose(self, axes=None, copy=False):
        return CountedTranspose(super().transpose(axes, copy), self.tally)


class CountedTranspose(sp.csc_matrix):
    """A ``CountingCsr``'s transpose, whose products count on its tally."""

    def __init__(self, matrix, tally):
        super().__init__(matrix)
        self.tally = tally

    def __matmul__(self, other):
        self.tally.append(1)
        return super().__matmul__(other)


def counting(plan, tally):
    """A plan whose operators count their products on ``tally``."""
    props = [CountingCsr(p, tally) for p in plan.props]
    return RowPlan(plan.rows, props, [p.T for p in props[1:]])


def row_dots(a, b):
    return np.einsum("ij,ij->i", a, b)


def reference_forward(model, a_hat, x):
    """Every layer propagates its own input, the first one included, over
    every node, in x's dtype, which A_hat and the model share."""
    h = np.asarray(x)
    caches = []
    for block in model.blocks:
        layers = []
        for w in block:
            p = a_hat @ h
            q = p @ w
            mask = q > 0.0
            layers.append((p, mask))
            h = q * mask
        norms = np.sqrt(row_dots(h, h))
        safe = np.where(norms == 0.0, 1.0, norms)
        h = h / safe[:, None]
        caches.append((layers, h, safe))
    return h, caches


def hop_balls(a_hat, ends, n_layers):
    """Per layer k, the sorted nodes within n_layers - 1 - k hops of the
    nodes in ``ends``, found by networkx."""
    graph = nx.Graph(list(zip(*a_hat.nonzero())))
    sources = set(np.asarray(ends).ravel().tolist())
    return [
        np.array(sorted(nx.multi_source_dijkstra_path_length(
            graph, sources, cutoff=n_layers - 1 - k)), dtype=np.intp)
        for k in range(n_layers)
    ]


def reference_loss_and_grads(model, a_hat, x, edges, labels, wd, balls):
    """Forward from x, np.add.at head scatter, and a backward pass over
    every node that also forms the (unused) gradient of the model's
    input.  Layer k's gradient must be exactly zero outside ``balls[k]``,
    and its weight gradient sums the rows of that ball.  Only the logits
    and their gradient are float64."""
    z, caches = reference_forward(model, a_hat, x)
    m = len(edges)
    u = np.hstack([z[edges[:, 0]], z[edges[:, 1]]])
    logits = (u @ model.head_w + model.head_b).astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = loss_value(logp, labels, model.params(), wd)
    dlogits = np.exp(logp)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    dlogits = dlogits.astype(u.dtype)
    grad_w, grad_b = u.T @ dlogits, dlogits.sum(axis=0)
    du = dlogits @ model.head_w.T
    dh = np.zeros_like(z)
    np.add.at(dh, edges[:, 0], du[:, :model.hidden])
    np.add.at(dh, edges[:, 1], du[:, model.hidden:])
    grads = []
    for bi in range(len(model.blocks) - 1, -1, -1):
        block, (layers, y, safe) = model.blocks[bi], caches[bi]
        dr = (dh - y * row_dots(y, dh)[:, None]) / safe[:, None]
        block_grads = [None] * len(block)
        for li in range(len(block) - 1, -1, -1):
            p, mask = layers[li]
            dq = dr * mask
            ball = balls[bi * len(block) + li]
            assert not np.delete(dq, ball, axis=0).any()
            block_grads[li] = p[ball].T @ dq[ball]
            dr = a_hat @ (dq @ block[li].T)
        grads = block_grads + grads
        dh = dr
    grads += [grad_w, grad_b]
    if wd > 0.0:
        for g, p in zip(grads, model.params()):
            g += wd * p
    return loss, grads


def gradient_norm(grads):
    return float(np.linalg.norm(np.concatenate([g.ravel() for g in grads])))


def reference_train(x, a_hat, te, tl, ve, vl, config):
    """Per epoch: a full forward for the gradients, the Adam step, then a
    fresh predict of the validation edges.  Weight gradients sum the hop
    balls around the train and val endpoints.  The model and A_hat take
    x's dtype.  Returns the history, the parameters after every step and
    the best ones."""
    model = init_model(x.shape[1], config.hidden, config.n_classes,
                       config.block_spec, np.random.default_rng(config.seed), x.dtype)
    a_hat = as_scipy(a_hat).astype(x.dtype)
    params = model.params()
    state = AdamState.for_params(params)
    balls = hop_balls(a_hat, np.concatenate([te, ve]), model.n_layers)
    history, steps, best_acc, best = [], [], -1.0, None
    for epoch in range(1, config.epochs + 1):
        loss, grads = reference_loss_and_grads(
            model, a_hat, x, te, tl, config.weight_decay, balls)
        norm = gradient_norm(grads)
        adam_step(params, grads, state, config.learning_rate)
        steps.append([p.copy() for p in params])
        [(pred, logp)] = predict(model, a_hat, x, [ve])
        val_loss = loss_value(logp, vl, model.params(), config.weight_decay)
        acc = float((pred == vl).mean())
        history.append((epoch, loss, val_loss, acc, norm))
        if acc > best_acc:
            best_acc, best = acc, steps[-1]
    return history, steps, best


def random_training_problem(seed, n_classes):
    """Random graph and features; labeled edges in random orientation,
    so endpoints repeat and nodes appear on both sides."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    g, weights = random_topology(rng, 30, p_edge=0.2)
    a_hat = build_normalized_adjacency(weights)
    x = nprng.uniform(size=(30, 5))
    pool = g.edge_rows.copy()
    flip = nprng.random(len(pool)) < 0.5
    pool[flip] = pool[flip][:, ::-1]
    order = nprng.permutation(len(pool))
    te, ve = pool[order[:40]], pool[order[40:60]]
    tl = nprng.integers(0, n_classes, size=len(te))
    vl = nprng.integers(0, n_classes, size=len(ve))
    return x, a_hat, te, tl, ve, vl


def assert_train_matches_reference(monkeypatch, problem, config):
    """``train`` gives the reference loop's history, the same parameters
    after every Adam step and the same best parameters, bit for bit."""
    want_history, want_steps, want_best = reference_train(*problem, config)

    steps = []

    def recording_adam_step(params, grads, state, lr):
        adam_step(params, grads, state, lr)
        steps.append([p.copy() for p in params])

    monkeypatch.setattr(gcn, "adam_step", recording_adam_step)
    result = train(*problem, config)
    assert result.history == want_history
    assert len(steps) == len(want_steps) == config.epochs
    for got, want in zip(steps, want_steps):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(np.array_equal(g, w)
               for g, w in zip(result.model.params(), want_best))


def in_float32(problem):
    """A training problem with its features cast to float32."""
    x, *rest = problem
    return (x.astype(np.float32), *rest)


class TestEpochLoop:
    @pytest.mark.parametrize("mode", ["binary", "multi"])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("block_spec", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_matches_reference_loop_exactly(
        self, monkeypatch, block_spec, weight_decay, mode
    ):
        config = TrainConfig(mode=mode, epochs=12, learning_rate=0.05,
                             weight_decay=weight_decay, block_spec=block_spec,
                             hidden=6, seed=3)
        problem = random_training_problem(41, config.n_classes)
        assert_train_matches_reference(monkeypatch, problem, config)

    @pytest.mark.parametrize("block_spec, per_epoch, setup", [
        ((2, 1), 2, 2),  # A_hat @ X, then the first forward's block 2
        ((2, 2), 6, 4),
    ])
    def test_sparse_products_per_epoch(
        self, monkeypatch, block_spec, per_epoch, setup
    ):
        x, a_hat, te, tl, ve, vl = toy_communities()
        calls, products = [], []

        def counting_loss_and_grads(*args):
            calls.append(1)
            return loss_and_grads(*args)

        build = RowPlan.build
        monkeypatch.setattr(gcn, "loss_and_grads", counting_loss_and_grads)
        monkeypatch.setattr(RowPlan, "build", lambda *args: counting(build(*args), products))
        for epochs in (3, 7):
            products.clear()
            calls.clear()
            config = TrainConfig(mode="binary", epochs=epochs, hidden=4,
                                 block_spec=block_spec)
            train(x, a_hat, te, tl, ve, vl, config)
            assert len(calls) == epochs
            assert len(products) == setup + per_epoch * epochs

    @pytest.mark.parametrize("block_spec", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_first_layer_gradient_without_input_gradient(self, block_spec):
        model, a_hat, x, edges, labels, wd = gradcheck_instance(31, block_spec, 5e-4)
        products = []
        plan = counting(RowPlan.build(a_hat, np.arange(len(x)), model.n_layers), products)
        fwd = forward(model, plan.props, a_hat @ x)
        products.clear()
        _, analytic = loss_and_grads(
            model, plan, fwd, edge_batch(edges, labels, plan), wd)
        # one backward product per layer, the model's first layer excepted
        assert len(products) == sum(len(b) for b in model.blocks) - 1
        numeric = finite_difference_grads(model, a_hat, x, edges, labels, wd)
        assert max_relative_error(analytic[:1], numeric[:1]) < 1e-4


def sparse_training_problem(seed=4, n_classes=4, n=200, n_train=10, n_val=5,
                            width=5):
    """A random recursive tree plus 5 chords, and random features.  At
    the defaults (200 nodes, 10 train and 5 val edges) every plan up to 6
    layers deep stays short of the graph, and an 8-layer plan's first two
    row sets hold every node."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    while len(edges) < n - 1 + 5:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    g = AsGraph.from_edges(sorted(edges), nodes=range(1, n + 1))
    a_hat = build_normalized_adjacency(
        g.edge_matrix([rng.random() for _ in range(g.num_edges)]))
    x = nprng.uniform(size=(n, width))
    pool = g.edge_rows.copy()
    flip = nprng.random(len(pool)) < 0.5
    pool[flip] = pool[flip][:, ::-1]
    order = nprng.permutation(len(pool))
    te, ve = pool[order[:n_train]], pool[order[n_train:n_train + n_val]]
    tl = nprng.integers(0, n_classes, size=len(te))
    vl = nprng.integers(0, n_classes, size=len(ve))
    return x, a_hat, te, tl, ve, vl


class TestRowPlan:
    SPECS = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)]

    @pytest.mark.parametrize("block_spec", SPECS)
    def test_rows_are_hop_balls_around_the_endpoints(self, block_spec):
        x, a_hat, te, _, ve, _ = sparse_training_problem()
        n_layers = block_spec[0] * block_spec[1]
        ends = np.concatenate([te, ve])
        plan = RowPlan.build(a_hat, ends, n_layers)
        assert len(plan.rows) == n_layers
        assert plan.rows[-1].tolist() == sorted(set(ends.ravel().tolist()))
        for rows, ball in zip(plan.rows, hop_balls(as_scipy(a_hat), ends, n_layers)):
            assert np.array_equal(rows, ball)

    def test_two_layer_rows_are_strict_subsets(self):
        x, a_hat, te, _, ve, _ = sparse_training_problem()
        first, last = RowPlan.build(a_hat, np.concatenate([te, ve]), 2).rows
        assert set(last) < set(first) < set(range(len(x)))

    def test_deepest_spec_mixes_every_node_and_restricted_rows(self):
        x, a_hat, te, _, ve, _ = sparse_training_problem()
        plan = RowPlan.build(a_hat, np.concatenate([te, ve]), 8)
        assert [len(r) == len(x) for r in plan.rows] == [True] * 2 + [False] * 6
        assert plan.props[0] is plan.props[1]
        assert np.shares_memory(plan.props[0].data, a_hat.data)
        assert plan.props[2].shape == (len(plan.rows[2]), len(x))

    def test_every_node_plan_uses_the_matrix_itself(self):
        x, a_hat, *_ = sparse_training_problem()
        plan = RowPlan.build(a_hat, np.arange(len(x)), 3)
        for m in plan.props:
            assert m is plan.props[0] and m.shape == (len(x), len(x))
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(m, name), getattr(a_hat, name))
        assert len(plan.backs) == 2
        for back in plan.backs:
            assert back.format == "csc" and back.shape == (len(x), len(x))
            assert np.shares_memory(back.data, a_hat.data)
            assert np.array_equal(back.toarray(), as_scipy(a_hat).toarray())

    @pytest.mark.parametrize("n_layers", [2, 4, 8])
    def test_each_back_is_its_layers_prop_transposed(self, n_layers):
        """``backs[k - 1]`` is a view of ``props[k]``'s arrays, so the
        backward product is the transpose of the forward one."""
        x, a_hat, te, _, ve, _ = sparse_training_problem()
        plan = RowPlan.build(a_hat, np.concatenate([te, ve]), n_layers)
        assert len(plan.backs) == n_layers - 1
        dense = as_scipy(a_hat).toarray()
        for k, back in enumerate(plan.backs, 1):
            prop = plan.props[k]
            assert back.format == "csc" and back.shape == prop.shape[::-1]
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(back, name), getattr(prop, name))
            # A_hat's rows rows[k - 1] over its columns rows[k], bit for bit
            want = dense[np.ix_(plan.rows[k - 1], plan.rows[k])]
            assert np.array_equal(back.toarray(), want)

    # A_hat's two forms; the Csr cases keep the plain layer-count ids
    @pytest.mark.parametrize("n_layers, form", [
        pytest.param(n, form, id=str(n) if form == "Csr" else f"{n}-{form}")
        for form in ("Csr", "csr_matrix") for n in (2, 4, 8)])
    def test_props_are_scipys_row_and_column_cuts(self, n_layers, form):
        """Each operator holds the arrays, dtypes included, that scipy's
        fancy indexing cuts of A_hat: its rows, then the columns of the
        layer before when that layer does not hold every node.  Each back
        holds its prop's arrays.  A_hat given as a ``Csr`` or as a scipy
        csr_matrix, as the benchmark's tracer gives it, plans the same."""
        x, a_hat, te, _, ve, _ = sparse_training_problem()
        view = as_scipy(a_hat)
        ends = np.concatenate([te, ve])
        plan = RowPlan.build(a_hat if form == "Csr" else view, ends, n_layers)
        for rows, ball in zip(plan.rows, hop_balls(view, ends, n_layers)):
            assert np.array_equal(rows, ball)
        for k, prop in enumerate(plan.props):
            want = view[plan.rows[k]]
            if k and len(plan.rows[k - 1]) < len(x):
                want = want[:, plan.rows[k - 1]]
            for m in [prop] + plan.backs[k - 1:k]:  # backs[k - 1] is props[k].T
                for name in ("data", "indices", "indptr"):
                    got, expected = getattr(m, name), getattr(want, name)
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["binary", "multi"])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("block_spec", SPECS)
    def test_train_matches_reference_loop_exactly(
        self, monkeypatch, block_spec, weight_decay, mode
    ):
        config = TrainConfig(mode=mode, epochs=12, learning_rate=0.05,
                             weight_decay=weight_decay, block_spec=block_spec,
                             hidden=6, seed=3)
        problem = sparse_training_problem(n_classes=config.n_classes)
        assert_train_matches_reference(monkeypatch, problem, config)

    @pytest.mark.parametrize("mode, weight_decay", [("binary", 5e-4), ("multi", 0.0)])
    @pytest.mark.parametrize("block_spec", [(2, 1), (2, 2), (4, 2)])
    def test_train_matches_reference_loop_exactly_in_float32(
        self, monkeypatch, block_spec, weight_decay, mode
    ):
        config = TrainConfig(mode=mode, epochs=12, learning_rate=0.05,
                             weight_decay=weight_decay, block_spec=block_spec,
                             hidden=6, seed=3)
        problem = in_float32(sparse_training_problem(n_classes=config.n_classes))
        assert_train_matches_reference(monkeypatch, problem, config)

    LARGER = dict(n=3000, n_train=200, n_val=50, width=14)

    def test_weight_gradients_keep_their_bits_on_a_larger_graph(self):
        # a weight gradient sums the plan's rows of its layer; the
        # reference runs over every node, proves its gradient exactly zero
        # on the other rows and sums the same rows, since BLAS may block a
        # long sum by its length (OpenBLAS does at this size)
        config = TrainConfig(mode="multi", epochs=5, hidden=32, seed=3)
        problem = sparse_training_problem(**self.LARGER)
        plan = RowPlan.build(problem[1], np.concatenate([problem[2], problem[4]]), 2)
        assert len(plan.rows[0]) < 3000
        _, _, want_best = reference_train(*problem, config)
        result = train(*problem, config)
        assert all(np.array_equal(g, w)
                   for g, w in zip(result.model.params(), want_best))

    def training_peak(self, problem):
        config = TrainConfig(mode="multi", epochs=5, hidden=32, seed=3)
        tracemalloc.start()
        try:
            train(*problem, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_training_allocates_no_node_height_arrays(self):
        # peak 1.94 MB (numpy 2.4); one 3000 x 32 float64 array over every node is
        # 0.77 MB, and padding each weight gradient's operands to every
        # node peaked at 2.81 MB
        assert self.training_peak(sparse_training_problem(**self.LARGER)) < 2_100_000

    def test_training_allocates_no_node_height_arrays_in_float32(self):
        # peak 1.04 MB (numpy 2.4), the float32 copy of A_hat that train
        # makes included; the float64 run peaks at 1.94 MB
        problem = in_float32(sparse_training_problem(**self.LARGER))
        assert self.training_peak(problem) < 1_150_000

    @pytest.mark.parametrize("block_spec", [(2, 1), (2, 2)])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_gradients_match_finite_differences(self, block_spec, weight_decay):
        x, a_hat, te, tl, _, _ = sparse_training_problem()
        model = init_model(x.shape[1], 4, 4, block_spec, np.random.default_rng(8))
        _, analytic = grads_at(model, a_hat, x, te, tl, weight_decay)
        numeric = finite_difference_grads(model, a_hat, x, te, tl, weight_decay)
        assert max_relative_error(analytic, numeric) < 1e-4

    @staticmethod
    def assert_predict_matches_every_node_forward(dtype):
        x, a_hat, te, _, ve, _ = sparse_training_problem()
        x, a_hat = x.astype(dtype), a_hat.astype(dtype)
        model = init_model(x.shape[1], 6, 4, (2, 2), np.random.default_rng(1), dtype)
        edges = np.concatenate([ve, te[:3]])
        [(pred, logp)] = predict(model, a_hat, x, [edges])
        z, _ = forward(model, every_row(a_hat, model), a_hat @ x)
        assert z.dtype == dtype
        want = edge_scores(model, z, edges)
        assert logp.dtype == want.dtype == np.float64
        assert np.array_equal(logp, want)
        assert np.array_equal(pred, want.argmax(axis=1))

    def test_predict_matches_every_node_forward_exactly(self):
        self.assert_predict_matches_every_node_forward(np.float64)

    def test_predict_matches_every_node_forward_exactly_in_float32(self):
        self.assert_predict_matches_every_node_forward(np.float32)

    def test_predict_scores_each_edge_set_as_if_alone(self):
        """One forward pass, one head call per set: a small set scored
        beside a large one keeps the bytes it has alone.  One float32
        head product over both sets can round the small set's rows
        differently; with OpenBLAS on x86-64 it does from a few thousand
        rows on."""
        x, a_hat, *_ = in_float32(sparse_training_problem())
        model = init_model(x.shape[1], 32, 4, (2, 1), np.random.default_rng(5), np.float32)
        rng = np.random.default_rng(6)
        large = rng.integers(0, len(x), (10_000, 2))
        small = rng.integers(0, len(x), (7, 2))
        [(_, alone)] = predict(model, a_hat, x, [small])
        [(_, large_alone)] = predict(model, a_hat, x, [large])
        (_, got_large), (pred, got_small) = predict(model, a_hat, x, [large, small])
        assert got_small.tobytes() == alone.tobytes()
        assert np.array_equal(pred, alone.argmax(axis=1))
        assert got_large.tobytes() == large_alone.tobytes()


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode, weight_decay, block_spec",
                             [("binary", 5e-4, (2, 2)), ("multi", 0.0, (2, 1))])
    def test_a_run_keeps_the_features_dtype(
        self, monkeypatch, dtype, mode, weight_decay, block_spec
    ):
        """Every parameter, gradient, Adam moment, plan matrix and forward
        array of a run is in the features' dtype: nothing upcasts
        silently.  A_hat comes in float64 either way."""
        x, a_hat, te, tl, ve, vl = sparse_training_problem(
            n_classes=2 if mode == "binary" else 4)
        seen = []

        def recording_forward(model, props, ax):
            fwd = forward(model, props, ax)
            seen.extend(("param", p) for p in model.params())
            # A_hat's Csr in predict, the plan's scipy views in train: both hold .data
            seen.extend(("plan", m.data) for m in props)
            seen.extend([("ax", ax), ("z", fwd.z)])
            for p, _, h, norms in fwd.layers:  # the mask is boolean
                seen.extend([("propagated", p), ("output", h)])
                if norms is not None:
                    seen.append(("norms", norms))
            return fwd

        def recording_loss_and_grads(model, plan, fwd, batch, wd):
            loss, grads = loss_and_grads(model, plan, fwd, batch, wd)
            seen.extend(("plan", m.data) for m in plan.backs)
            seen.append(("incidence", batch.incidence))
            seen.extend(("grad", g) for g in grads)
            return loss, grads

        def recording_adam_step(params, grads, state, lr):
            adam_step(params, grads, state, lr)
            seen.extend(("param", p) for p in params)
            seen.extend(("moment", m) for m in state.m + state.v)

        monkeypatch.setattr(gcn, "forward", recording_forward)
        monkeypatch.setattr(gcn, "loss_and_grads", recording_loss_and_grads)
        monkeypatch.setattr(gcn, "adam_step", recording_adam_step)
        config = TrainConfig(mode=mode, epochs=3, weight_decay=weight_decay,
                             block_spec=block_spec, hidden=6)
        result = train(x.astype(dtype), a_hat, te, tl, ve, vl, config)
        seen.extend(("result", p) for p in result.model.params())
        kinds = {"param", "plan", "ax", "z", "propagated", "output", "norms",
                 "incidence", "grad", "moment", "result"}
        assert {what for what, _ in seen} == kinds
        assert [(what, a.dtype) for what, a in seen if a.dtype != dtype] == []

        seen.clear()
        [(_, logp)] = predict(result.model.astype(np.float64), a_hat, x.astype(dtype), [ve])
        assert logp.dtype == np.float64
        assert {a.dtype for _, a in seen} == {np.dtype(dtype)}

    def test_other_feature_dtypes_run_in_float64(self):
        x, a_hat, te, tl, ve, vl = toy_communities()
        config = TrainConfig(mode="binary", epochs=3, hidden=4)
        result = train(x.astype(np.int64), a_hat, te, tl, ve, vl, config)
        assert result.model.dtype == np.float64
        assert result.history == train(x, a_hat, te, tl, ve, vl, config).history


class TestLabelLengths:
    def problem(self):
        x, a_hat, te, tl, ve, vl = random_training_problem(41, 4)
        return x, a_hat, te[:12], tl[:12], ve[:6], vl[:6]

    def test_short_train_labels_are_refused(self):
        x, a_hat, te, _, ve, vl = self.problem()
        with pytest.raises(ValueError, match="1 labels for 12 edges"):
            train(x, a_hat, te, np.array([1]), ve, vl, TrainConfig(epochs=2))

    def test_short_val_labels_are_refused(self):
        x, a_hat, te, tl, ve, _ = self.problem()
        with pytest.raises(ValueError, match="1 labels for 6 val edges"):
            train(x, a_hat, te, tl, ve, np.array([0]), TrainConfig(epochs=2))

    @pytest.mark.parametrize("split", [0, 1])
    def test_negative_label_is_refused(self, split):
        x, a_hat, te, tl, ve, vl = self.problem()
        labels = [tl.copy(), vl.copy()]
        labels[split][0] = -1
        with pytest.raises(ValueError, match="label index out of range"):
            train(x, a_hat, te, labels[0], ve, labels[1], TrainConfig(epochs=2))

    def test_label_beyond_the_class_count_is_refused(self):
        x, a_hat, te, tl, ve, vl = self.problem()
        vl = vl.copy()
        vl[0] = 4
        with pytest.raises(ValueError, match="label index out of range"):
            train(x, a_hat, te, tl, ve, vl, TrainConfig(epochs=2))

    @pytest.mark.parametrize("split, refusal", [
        ("train", "endpoint"), ("val", "endpoint"), ("train", "empty"), ("val", "empty")])
    def test_bad_edges_are_refused_before_any_plan_or_epoch(self, monkeypatch, split, refusal):
        """``train`` checks both splits' edges before it plans: an
        endpoint outside A_hat's rows, at either end of the node range,
        or an empty split is refused, and no plan or epoch ever runs."""
        x, a_hat, te, tl, ve, vl = self.problem()
        edges, labels = {"train": [te.copy(), tl], "val": [ve.copy(), vl]}[split]
        if refusal == "endpoint":
            edges[-1, 1] = len(x) if split == "train" else -1
            error, message = IndexError, "edge index out of range"
        else:
            edges, labels = edges[:0], labels[:0]
            error, message = ValueError, "training needs non-empty train and val splits"
        ran = []
        monkeypatch.setattr(RowPlan, "build", lambda *args: ran.append("plan"))
        monkeypatch.setattr(gcn, "loss_and_grads", lambda *args: ran.append("epoch"))
        args = {"train": (edges, labels, ve, vl), "val": (te, tl, edges, labels)}[split]
        with pytest.raises(error, match=message):
            train(x, a_hat, *args, TrainConfig(epochs=2))
        assert ran == []

    def test_loss_value_refuses_a_label_count_mismatch(self):
        logp = np.log(np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="2 labels for 3 edges"):
            loss_value(logp, np.array([0, 1]))


class TestIncidenceScatter:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_add_at(self, seed):
        rng = np.random.default_rng(seed)
        n, m, h = 12, 60, 7
        edges = rng.integers(0, n - 1, size=(m, 2))  # node n - 1 unused
        edges[:3] = [(2, 5), (5, 2), (2, 2)]  # node 2 on both sides
        values = rng.normal(size=(2 * m, h)) * 10.0 ** rng.integers(-8, 9, size=(2 * m, h))
        values[0, 0], values[m, 0] = -0.0, 0.0
        left, right = values[:m], values[m:]
        want = np.zeros((n, h))
        np.add.at(want, edges[:, 0], left)
        np.add.at(want, edges[:, 1], right)
        got = incidence_matrix(edges, n) @ values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the values are order-sensitive: another summation order differs
        backwards = np.zeros((n, h))
        np.add.at(backwards, edges[::-1, 1], right[::-1])
        np.add.at(backwards, edges[::-1, 0], left[::-1])
        assert not np.array_equal(backwards, want)

    def test_shape_and_columns(self):
        edges = np.array([[0, 1], [1, 2]])
        dense = incidence_matrix(edges, 4).toarray()
        assert dense.shape == (4, 4)
        assert np.array_equal(dense, [[1, 0, 0, 0], [0, 1, 1, 0],
                                      [0, 0, 0, 1], [0, 0, 0, 0]])


def _checkpoint(model: GcnModel, seed: int = 0) -> Checkpoint:
    """A checkpoint of ``model`` in the mode of its class count."""
    return Checkpoint(model, {2: "binary", 4: "multi"}[model.n_classes], seed, 1)


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        nprng = np.random.default_rng(3)
        model = init_model(14, 32, 4, (2, 1), nprng)
        f = tmp_path / "model.json"
        save_checkpoint(f, Checkpoint(model, "multi", 7, 12))
        again = load_checkpoint(f)
        assert (again.mode, again.seed, again.best_epoch) == ("multi", 7, 12)
        assert again.source is None and again.observed is None and again.split is None
        assert again.classes == ["p2p", "p2c", "s2s", "x2x"]
        meta = json.loads(f.read_text())["meta"]
        assert meta == {"mode": "multi", "seed": 7, "best_epoch": 12, "delta": 0.05,
                        "classes": ["p2p", "p2c", "s2s", "x2x"]}
        assert again.model.block_spec == model.block_spec
        for p1, p2 in zip(model.params(), again.model.params()):
            assert np.array_equal(p1, p2)

    def test_float32_checkpoint_roundtrip_is_bit_exact(self, tmp_path):
        model = init_model(14, 32, 4, (2, 1), np.random.default_rng(3), np.float32)
        model.head_b[:] = [0.5, -1e-30, 3e38, -0.0]
        f = tmp_path / "model.json"
        save_checkpoint(f, _checkpoint(model))
        again = load_checkpoint(f).model
        for p1, p2 in zip(model.params(), again.params()):
            assert p2.dtype == np.float32
            assert p1.tobytes() == p2.tobytes()
        head_w = json.loads(f.read_text())["head_w"]
        assert head_w["dtype"] == "float32"
        assert len(base64.b64decode(head_w["data"])) == 4 * model.head_w.size

    def test_float64_checkpoint_of_the_float64_only_format_loads_and_predicts(
        self, tmp_path
    ):
        # before float32 runs, every array was written as "<f8" bytes under
        # "dtype": "float64", whatever the model
        x, a_hat, te, *_ = sparse_training_problem()
        model = init_model(x.shape[1], 6, 4, (2, 1), np.random.default_rng(4))

        def encode(w):
            return {"shape": list(w.shape), "dtype": "float64", "byte_order": "little",
                    "data": base64.b64encode(w.astype("<f8").tobytes()).decode("ascii")}

        meta = {"mode": "multi", "seed": 3, "best_epoch": 5, "delta": 0.05,
                "classes": ["p2p", "p2c", "s2s", "x2x"]}
        doc = {"format": "bgprel-checkpoint-v1", "input_dim": model.input_dim,
               "hidden": model.hidden, "n_classes": model.n_classes,
               "block_spec": list(model.block_spec),
               "blocks": [[encode(w) for w in block] for block in model.blocks],
               "head_w": encode(model.head_w), "head_b": encode(model.head_b),
               "meta": meta}
        f = tmp_path / "model.json"
        f.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        loaded = load_checkpoint(f)
        again = loaded.model
        assert (loaded.mode, loaded.seed, loaded.best_epoch) == ("multi", 3, 5)
        for p1, p2 in zip(model.params(), again.params()):
            assert p2.dtype == np.float64
            assert np.array_equal(p1, p2)
        for dtype in (np.float64, np.float32):
            [(_, got)] = predict(again, a_hat, x.astype(dtype), [te])
            [(_, want)] = predict(model.astype(dtype), a_hat.astype(dtype), x.astype(dtype), [te])
            assert np.array_equal(got, want)
        save_checkpoint(tmp_path / "again.json", loaded)
        assert (tmp_path / "again.json").read_bytes() == f.read_bytes()

    @pytest.mark.parametrize("dtype", ["float16", "int64", None])
    def test_unknown_array_dtype_is_refused(self, tmp_path, dtype):
        f = tmp_path / "model.json"
        save_checkpoint(f, _checkpoint(init_model(3, 4, 2, (1, 1), np.random.default_rng(0))))
        doc = json.loads(f.read_text())
        if dtype is None:
            del doc["head_b"]["dtype"]
            message = "missing field 'head_b.dtype'"
        else:
            doc["head_b"]["dtype"] = dtype
            message = "field 'head_b.dtype' is not 'float32' or 'float64'"
        f.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"model.json: {message}")):
            load_checkpoint(f)

    @pytest.mark.parametrize("key,value,message", [
        ("input_dim", 4, "field 'blocks[0][0].shape' is not [4, 4], as input_dim 4"),
        ("hidden", 5, "field 'blocks[0][0].shape' is not [3, 5], as input_dim 3, hidden 5"),
        ("n_classes", 3, "field 'n_classes' is not 2, the number of classes binary mode has"),
        ("block_spec", [2, 1], "field 'blocks' is not 2 lists of 1 arrays"),
        ("block_spec", [1, 2], "field 'blocks' is not 1 lists of 2 arrays"),
        ("block_spec", [1], "field 'block_spec' is not a [blocks, layers] pair"),
        ("hidden", 0, "field 'hidden' is not a positive integer"),
        ("n_classes", True, "field 'n_classes' is not a positive integer"),
        ("meta", [], "field 'meta' is not an object"),
    ], ids=["input_dim", "hidden", "n_classes", "block_spec-blocks", "block_spec-layers",
            "block_spec-short", "hidden-zero", "n_classes-bool", "meta-list"])
    def test_recorded_sizes_must_match_the_arrays(self, tmp_path, key, value, message):
        f = tmp_path / "model.json"
        save_checkpoint(f, _checkpoint(init_model(3, 4, 2, (1, 1), np.random.default_rng(0))))
        doc = json.loads(f.read_text())
        doc[key] = value
        f.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{f}: {message}")):
            load_checkpoint(f)

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a.update(shape=[2, "x"]), "field 'head_w.shape' is not a list"),
        (lambda a: a.update(data="not base64!"), "field 'head_w.data' is not base64"),
        (lambda a: a.pop("data"), "missing field 'head_w.data'"),
        (lambda a: a.update(shape=[8, 3]), "field 'head_w.data' is not 96 bytes"),
        (lambda a: a.update(shape=[8, 3], data=base64.b64encode(bytes(96)).decode()),
         "field 'head_w.shape' is not [8, 2], as input_dim 3, hidden 4 and n_classes 2 give"),
        (lambda a: a.update(byte_order="big"), "field 'head_w.byte_order' is not 'little'"),
        (lambda a: a.update(dtype="int64"), "field 'head_w.dtype' is not 'float32' or "
                                            "'float64'"),
        (lambda a: a.update(dtype="float64", data=base64.b64encode(bytes(128)).decode()),
         "field 'head_w.dtype' is not 'float32', that of 'blocks[0][0]'"),
    ], ids=["shape", "data-junk", "data-missing", "data-short", "shape-of-sizes",
            "byte-order", "int-dtype", "mixed-dtype"])
    def test_malformed_array_is_refused_naming_its_field(self, tmp_path, edit, message):
        f = tmp_path / "model.json"
        save_checkpoint(f, _checkpoint(init_model(3, 4, 2, (1, 1), np.random.default_rng(0),
                                                  np.float32)))
        doc = json.loads(f.read_text())
        edit(doc["head_w"])
        f.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{f}: {message}")):
            load_checkpoint(f)

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: meta.pop("best_epoch"), "missing field 'meta.best_epoch'"),
        (lambda meta: meta.update(best_epoch=-1),
         "field 'meta.best_epoch' is not a non-negative integer"),
        (lambda meta: meta.update(source="abc"), "field 'meta.source' is not an object"),
        (lambda meta: meta.update(seed=-1), "field 'meta.seed' is not a non-negative integer"),
        (lambda meta: meta.update(split="ab"), "field 'meta.split' is not a sha256 hex digest"),
        (lambda meta: meta.update(split="A" * 64),
         "field 'meta.split' is not a sha256 hex digest"),
        (lambda meta: meta.update(split=None), "field 'meta.split' is not a sha256 hex digest"),
    ], ids=["best-epoch-missing", "best-epoch-negative", "source", "seed-negative",
            "split-short", "split-upper-case", "split-null"])
    def test_malformed_meta_is_refused_naming_its_field(self, tmp_path, edit, message):
        f = tmp_path / "model.json"
        save_checkpoint(f, _checkpoint(init_model(3, 4, 2, (1, 1), np.random.default_rng(0))))
        doc = json.loads(f.read_text())
        edit(doc["meta"])
        f.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{f}: {message}")):
            load_checkpoint(f)

    def test_split_digest_roundtrip(self, tmp_path):
        f = tmp_path / "model.json"
        digest = hashlib.sha256(b"split").hexdigest()
        model = init_model(3, 4, 2, (1, 1), np.random.default_rng(0))
        save_checkpoint(f, Checkpoint(model, "binary", 0, 1, split=digest))
        assert json.loads(f.read_text())["meta"]["split"] == digest
        assert load_checkpoint(f).split == digest

    def test_identical_models_identical_bytes(self, tmp_path):
        m1 = init_model(6, 8, 2, (2, 2), np.random.default_rng(9))
        m2 = init_model(6, 8, 2, (2, 2), np.random.default_rng(9))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(f1, _checkpoint(m1, seed=9))
        save_checkpoint(f2, _checkpoint(m2, seed=9))
        assert f1.read_bytes() == f2.read_bytes()

    def test_history_csv(self, tmp_path):
        f = tmp_path / "history.csv"
        write_history_csv([Epoch(1, 1.25, 1.5, 0.5, 2.0),
                           Epoch(2, 0.75, 1.0, 1.0, 0.25)], f)
        lines = f.read_text().splitlines()
        assert lines[0] == "epoch,loss,val_loss,val_accuracy,grad_norm"
        assert lines[1] == "1,1.25,1.5,0.5,2.0"
        assert len(lines) == 3

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_first_grad_norm_is_the_norm_of_the_first_gradients(self, weight_decay):
        x, a_hat, te, tl, ve, vl = sparse_training_problem()
        config = TrainConfig(epochs=1, hidden=6, seed=2, weight_decay=weight_decay)
        model = init_model(x.shape[1], config.hidden, config.n_classes,
                           config.block_spec, np.random.default_rng(config.seed))
        plan = RowPlan.build(a_hat, np.concatenate([te, ve]), model.n_layers)
        fwd = forward(model, plan.props, plan.props[0] @ x)
        loss, grads = loss_and_grads(model, plan, fwd,
                                     edge_batch(te, tl, plan), weight_decay)
        (row,) = train(x, a_hat, te, tl, ve, vl, config).history
        assert row.loss == loss
        assert row.grad_norm == gradient_norm(grads)
