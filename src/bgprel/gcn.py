"""Graph-convolutional edge classifier with hand-written gradients.

The model stacks one or more GCN blocks over a symmetrically normalized
weighted adjacency matrix and classifies ordered node pairs from the
concatenation of their embeddings:

    A_hat = D~^{-1/2} (A_w + I) D~^{-1/2}
    block(H) = Norm(ReLU(A_hat ... ReLU(A_hat H W_0) ... W_{L-1}))
    scores(i, j) = log_softmax(concat(Z_i, Z_j) @ W_head + b_head)

Norm is a row-wise L2 normalization; all-zero rows pass through
untouched.  Training minimizes the mean negative log-likelihood over
the labeled training edges plus, when weight decay is positive, an L2
penalty 0.5 * wd * ||theta||^2.  A_hat X is computed once per training
run, and each epoch runs one forward pass, shared by validation and the
next gradient step.

The head reads only the scored edges' endpoint rows, so every pass runs
on a ``RowPlan``: the last layer computes the endpoint rows, and each
earlier layer the one-hop closure of the next layer's rows.  Training
plans for its train and val edges, ``predict`` for the edges it scores.
Only the weight-gradient products still span every node.

Everything is plain numpy/scipy so a run is bitwise reproducible for a
fixed seed at a fixed BLAS thread count; gradients are derived by hand
and checked against finite differences in the test suite.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp


class TrainingDivergedError(RuntimeError):
    pass


# -- configuration -----------------------------------------------------

# defaults found by validation sweep; binary keeps deeper blocks and
# weight decay, multi runs lighter
BINARY_DEFAULTS = dict(learning_rate=0.1, weight_decay=5e-4, block_spec=(2, 2))
MULTI_DEFAULTS = dict(learning_rate=0.05, weight_decay=0.0, block_spec=(2, 1))


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "multi"
    epochs: int = 200
    learning_rate: float = 0.05
    weight_decay: float = 0.0
    block_spec: tuple[int, int] = (2, 1)  # (blocks, layers per block)
    hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("binary", "multi"):
            raise ValueError(f"unknown mode {self.mode!r}")
        nb, nl = self.block_spec
        if nb < 1 or nl < 1:
            raise ValueError(f"bad block spec {self.block_spec}")
        if self.epochs < 1 or self.hidden < 1:
            raise ValueError("epochs and hidden width must be positive")

    @property
    def n_classes(self) -> int:
        return 2 if self.mode == "binary" else 4

    @classmethod
    def for_mode(cls, mode: str, seed: int = 0, **overrides) -> "TrainConfig":
        base = BINARY_DEFAULTS if mode == "binary" else MULTI_DEFAULTS
        params = {**base, "mode": mode, "seed": seed}
        params.update(overrides)
        return cls(**params)


# -- normalized adjacency ----------------------------------------------

WEIGHT_FLOOR = 0.05  # recorded in checkpoints; eval and predict refuse any other


def build_normalized_adjacency(
    weights: sp.csr_matrix, delta: float = WEIGHT_FLOOR
) -> sp.csr_matrix:
    """Symmetrically normalized, self-looped, weighted adjacency.

    ``weights`` is a symmetric edge-weight matrix with one stored entry
    per edge direction (``topology.cnr_edge_weights``, or the 0/1
    ``AsGraph.adjacency()`` for the unweighted variant).  Stored weights
    are floored at delta, so sparsely overlapping edges still propagate.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    n = weights.shape[0]
    if n == 0:
        raise ValueError("empty graph")
    a_tilde = sp.csr_matrix(
        (np.maximum(weights.data, delta), weights.indices, weights.indptr),
        shape=weights.shape,
    )
    a_tilde = a_tilde + sp.identity(n, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d_half = sp.diags(inv_sqrt)
    return (d_half @ a_tilde @ d_half).tocsr()


# -- model --------------------------------------------------------------


@dataclass
class GcnModel:
    blocks: list[list[np.ndarray]]
    head_w: np.ndarray
    head_b: np.ndarray
    input_dim: int
    hidden: int
    n_classes: int

    @property
    def block_spec(self) -> tuple[int, int]:
        return (len(self.blocks), len(self.blocks[0]))

    @property
    def n_layers(self) -> int:
        return sum(len(block) for block in self.blocks)

    def params(self) -> list[np.ndarray]:
        out = [w for block in self.blocks for w in block]
        out.append(self.head_w)
        out.append(self.head_b)
        return out

    def copy(self) -> "GcnModel":
        return GcnModel(
            blocks=[[w.copy() for w in block] for block in self.blocks],
            head_w=self.head_w.copy(),
            head_b=self.head_b.copy(),
            input_dim=self.input_dim,
            hidden=self.hidden,
            n_classes=self.n_classes,
        )

    def load_params(self, params: Sequence[np.ndarray]) -> None:
        for mine, theirs in zip(self.params(), params):
            mine[...] = theirs


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(
    input_dim: int,
    hidden: int,
    n_classes: int,
    block_spec: tuple[int, int],
    rng: np.random.Generator,
) -> GcnModel:
    n_blocks, n_layers = block_spec
    blocks = []
    width = input_dim
    for _ in range(n_blocks):
        block = []
        for _ in range(n_layers):
            block.append(_glorot(rng, width, hidden))
            width = hidden
        blocks.append(block)
    head_w = _glorot(rng, 2 * hidden, n_classes)
    head_b = np.zeros(n_classes, dtype=np.float64)
    return GcnModel(blocks, head_w, head_b, input_dim, hidden, n_classes)


# -- row plan -----------------------------------------------------------


def _submatrix(
    a_hat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray
) -> sp.csr_matrix:
    """``a_hat[rows][:, cols]``, skipping an index that holds every node.
    Slicing keeps the matrix class and each row's entry order."""
    n = a_hat.shape[0]
    if len(rows) < n:
        a_hat = a_hat[rows]
    if len(cols) < n:
        a_hat = a_hat[:, cols]
    return a_hat


@dataclass(frozen=True)
class RowPlan:
    """The node rows each layer computes so that the head can read its
    edges' endpoint rows.

    ``rows[-1]`` holds the endpoints; each earlier ``rows[k]`` is the
    one-hop closure of ``rows[k + 1]`` (A_hat's self-loops keep every
    row in its own closure).  Layer k propagates its input with
    ``props[k] = a_hat[rows[k]][:, rows[k - 1]]`` (``a_hat[rows[0]]``
    for the model's input, which has every node), which keeps every
    stored entry of its rows; for k > 0 its gradient flows back through
    ``backs[k - 1] = a_hat[rows[k - 1]][:, rows[k]]``, which drops only
    entries that meet zero gradient rows.  Row sets are sorted, so each
    product sums a row in A_hat's entry order and matches the all-node
    product bit for bit on its rows.  A plan whose rows hold every node
    uses A_hat itself.
    """

    n_nodes: int
    rows: list[np.ndarray]
    props: list[sp.csr_matrix]
    backs: list[sp.csr_matrix]
    # full_height's buffers by (layer, slot), each with the array last
    # written into it
    _pads: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls, a_hat: sp.csr_matrix, endpoints: np.ndarray, n_layers: int
    ) -> "RowPlan":
        """Plan for ``n_layers`` layers whose head reads the node rows in
        ``endpoints`` (any shape, repeats allowed)."""
        n = a_hat.shape[0]
        last = np.unique(np.asarray(endpoints, dtype=np.intp))
        if last.size and (last[0] < 0 or last[-1] >= n):
            raise IndexError("edge index out of range")
        rows = [last]
        for _ in range(n_layers - 1):
            nxt = rows[0]
            rows.insert(0, nxt if len(nxt) == n
                        else np.union1d(nxt, a_hat[nxt].indices))
        pairs = list(zip(rows, rows[1:]))
        return cls(
            n_nodes=n,
            rows=rows,
            props=[_submatrix(a_hat, rows[0], np.arange(n)),
                   *(_submatrix(a_hat, r, c) for c, r in pairs)],
            backs=[_submatrix(a_hat, c, r) for c, r in pairs],
        )

    def local(self, edges: np.ndarray) -> np.ndarray:
        """Edge endpoints as positions in ``rows[-1]``, the rows of the
        embeddings a forward pass over this plan returns."""
        edges = _check_edges(edges, self.n_nodes)
        last = self.rows[-1]
        if len(last) == self.n_nodes:
            return edges
        if not np.isin(edges, last).all():
            raise ValueError("edge endpoint outside the plan's rows")
        return np.searchsorted(last, edges)

    def full_height(self, k: int, values: np.ndarray, slot: str) -> np.ndarray:
        """Layer k's rows in an all-node array that is zero elsewhere.

        The weight gradient ``P.T @ dQ`` sums over rows; at full height
        it blocks that sum as the all-node product does, so it keeps its
        bits.  Each (k, slot) pair owns one buffer for the plan's life,
        which the next call with that pair overwrites.  Only layer k's
        rows are ever written, so the others stay zero, and an array
        that is already in the buffer (layer 0's input, the same every
        epoch) is not copied again; so ``values`` must not be changed in
        place between calls."""
        rows = self.rows[k]
        if len(rows) == self.n_nodes:
            return values
        buf, held = self._pads.get((k, slot), (None, None))
        if buf is None or buf.shape[1] != values.shape[1]:
            buf, held = np.zeros((self.n_nodes, values.shape[1])), None
        if held is not values:
            buf[rows] = values
            self._pads[k, slot] = (buf, values)
        return buf


# -- forward ------------------------------------------------------------


def _row_normalize(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt((r * r).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    return r / safe[:, None], safe


@dataclass
class _LayerCache:
    propagated: np.ndarray  # A_hat @ layer input, on the layer's plan rows
    mask: np.ndarray  # ReLU derivative


@dataclass
class _BlockCache:
    layers: list[_LayerCache] = field(default_factory=list)
    normalized: np.ndarray | None = None
    safe_norms: np.ndarray | None = None


def forward_block(
    props: Sequence[sp.csr_matrix], p: np.ndarray, weights: list[np.ndarray]
) -> tuple[np.ndarray, _BlockCache]:
    """One block, given p = A_hat @ H for its input H: per layer
    ReLU(A_hat H W), then row-L2 normalization.  ``props[i]`` propagates
    into the block's layer i + 1.  The cache keeps what the backward pass
    needs."""
    cache = _BlockCache()
    for li, w in enumerate(weights):
        if li:
            p = props[li - 1] @ h
        if p.shape[1] != w.shape[0]:
            raise ValueError(
                f"feature width {p.shape[1]} does not match weight {w.shape}"
            )
        q = p @ w
        mask = q > 0.0
        h = np.multiply(q, mask, out=q)
        cache.layers.append(_LayerCache(propagated=p, mask=mask))
    normalized, safe = _row_normalize(h)
    cache.normalized = normalized
    cache.safe_norms = safe
    return normalized, cache


class Forward(NamedTuple):
    z: np.ndarray  # node embeddings, one row per node of the plan's rows[-1]
    caches: list[_BlockCache]


def forward(model: GcnModel, plan: RowPlan, ax: np.ndarray) -> Forward:
    """Forward pass over the plan's rows from the propagated input
    ``ax = plan.props[0] @ x`` (``a_hat @ x`` on the first layer's rows),
    which depends only on the graph and the features, so training
    computes it once."""
    p, caches, k = ax, [], 0
    for block in model.blocks:
        if caches:
            p = plan.props[k] @ z
        z, cache = forward_block(plan.props[k + 1:], p, block)
        caches.append(cache)
        k += len(block)
    return Forward(z, caches)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def _check_edges(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.intp)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) index array")
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        raise IndexError("edge index out of range")
    return edges


def _check_labels(
    labels: np.ndarray, n_edges: int, what: str = "edges"
) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n_edges,):
        raise ValueError(f"{labels.size} labels for {n_edges} {what}")
    return labels


def edge_scores(model: GcnModel, z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Log-probabilities for ordered pairs of rows of ``z``; swapping
    (i, j) generally changes the answer."""
    edges = _check_edges(edges, z.shape[0])
    u = np.hstack([z[edges[:, 0]], z[edges[:, 1]]])
    return _log_softmax(u @ model.head_w + model.head_b)


def loss_value(
    logp: np.ndarray,
    labels: np.ndarray,
    params: Sequence[np.ndarray] = (),
    weight_decay: float = 0.0,
) -> float:
    labels = _check_labels(labels, logp.shape[0])
    if labels.size and (labels.min() < 0 or labels.max() >= logp.shape[1]):
        raise ValueError("label index out of range")
    nll = -logp[np.arange(len(labels)), labels].mean()
    if weight_decay > 0.0:
        nll += 0.5 * weight_decay * sum(float((p * p).sum()) for p in params)
    return float(nll)


# -- backward -----------------------------------------------------------


def incidence_matrix(edges: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """(n_nodes, 2m) 0/1 matrix: column k marks ``edges[k, 0]`` and
    column m + k marks ``edges[k, 1]``.

    Its product with the left-endpoint rows stacked over the
    right-endpoint rows sums each node's rows in the order ``np.add.at``
    would (left endpoints, then right endpoints, each in edge order,
    starting from 0.0), so the sums are bit-identical to that scatter.
    """
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    indptr = np.zeros(n_nodes + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=n_nodes), out=indptr[1:])
    return sp.csr_matrix(
        (np.ones(len(ends)), np.argsort(ends, kind="stable"), indptr),
        shape=(n_nodes, len(ends)),
    )


@dataclass(frozen=True)
class EdgeBatch:
    """Labeled training edges and the head's scatter matrix."""

    edges: np.ndarray  # (m, 2) positions in the plan's rows[-1]
    labels: np.ndarray
    incidence: sp.csr_matrix  # incidence_matrix(edges, len(rows[-1]))

    @classmethod
    def build(
        cls, edges: np.ndarray, labels: np.ndarray, plan: RowPlan
    ) -> "EdgeBatch":
        """Batch of node-row edges for a forward pass over ``plan``."""
        edges = plan.local(edges)
        if len(edges) == 0:
            raise ValueError("no edges to train on")
        labels = _check_labels(labels, len(edges))
        return cls(edges, labels, incidence_matrix(edges, len(plan.rows[-1])))


def loss_and_grads(
    model: GcnModel,
    plan: RowPlan,
    fwd: Forward,
    batch: EdgeBatch,
    weight_decay: float = 0.0,
) -> tuple[float, list[np.ndarray]]:
    """Full-batch loss and exact gradients in model.params() order.

    ``fwd`` is the forward pass of the model's current parameters over
    ``plan``.  The backward pass runs on the plan's rows and ends at the
    first layer's weight gradient; the input gradient is never formed."""
    z, caches = fwd
    edges, labels = batch.edges, batch.labels
    m = len(edges)
    u = np.hstack([z[edges[:, 0]], z[edges[:, 1]]])
    logits = u @ model.head_w + model.head_b
    logp = _log_softmax(logits)
    loss = loss_value(logp, labels, model.params(), weight_decay)

    # d(mean nll)/d(logits) = (softmax - onehot) / m
    dlogits = np.exp(logp)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    grad_head_w = u.T @ dlogits
    grad_head_b = dlogits.sum(axis=0)
    du = dlogits @ model.head_w.T

    h = model.hidden
    dh = batch.incidence @ np.concatenate([du[:, :h], du[:, h:]])

    block_grads: list[list[np.ndarray]] = []
    k = len(plan.rows)
    for bi in range(len(model.blocks) - 1, -1, -1):
        block, cache = model.blocks[bi], caches[bi]
        # backward through y = r / ||r||: dr = (dy - y (y . dy)) / ||r||;
        # all-zero rows were passed through so dr = dy there
        y = cache.normalized
        dot = (y * dh).sum(axis=1, keepdims=True)
        dr = np.subtract(dh, y * dot, out=dh)
        dr /= cache.safe_norms[:, None]
        grads = [np.empty(0)] * len(block)
        for li in range(len(block) - 1, -1, -1):
            k -= 1
            layer = cache.layers[li]
            dq = np.multiply(dr, layer.mask, out=dr)
            grads[li] = (plan.full_height(k, layer.propagated, "p").T
                         @ plan.full_height(k, dq, "dq"))
            if k == 0:
                break  # the model's input needs no gradient
            dr = plan.backs[k - 1] @ (dq @ block[li].T)  # A_hat is symmetric
        block_grads.append(grads)
        dh = dr
    block_grads.reverse()

    flat = [g for grads in block_grads for g in grads]
    flat.append(grad_head_w)
    flat.append(grad_head_b)
    if weight_decay > 0.0:
        for g, p in zip(flat, model.params()):
            g += weight_decay * p
    return loss, flat


# -- optimizer ----------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# -- training -----------------------------------------------------------


@dataclass
class TrainResult:
    model: GcnModel
    history: list[tuple[int, float, float]]  # (epoch, loss, val accuracy)
    best_epoch: int
    best_val_accuracy: float


def predict(
    model: GcnModel, a_hat: sp.csr_matrix, x: np.ndarray, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Class indices and log-probabilities for ordered edges, from a
    forward pass over the rows those edges reach."""
    plan = RowPlan.build(a_hat, edges, model.n_layers)
    fwd = forward(model, plan, plan.props[0] @ np.asarray(x, dtype=np.float64))
    logp = edge_scores(model, fwd.z, plan.local(edges))
    return logp.argmax(axis=1), logp


def train(
    x: np.ndarray,
    a_hat: sp.csr_matrix,
    train_edges: np.ndarray,
    train_labels: np.ndarray,
    val_edges: np.ndarray,
    val_labels: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Full-batch training; returns the snapshot with the best
    validation accuracy (earliest epoch wins ties).

    Each epoch runs one forward pass: the one taken after the Adam step
    scores the validation edges and feeds the next epoch's gradients.
    Both run on one plan for the train and val edges."""
    x = np.asarray(x, dtype=np.float64)
    train_edges = _check_edges(train_edges, x.shape[0])
    val_edges = _check_edges(val_edges, x.shape[0])
    if len(val_edges) == 0:
        raise ValueError("training needs non-empty train and val splits")
    val_labels = _check_labels(val_labels, len(val_edges), "val edges")
    nb, nl = config.block_spec
    plan = RowPlan.build(a_hat, np.concatenate([train_edges, val_edges]), nb * nl)
    batch = EdgeBatch.build(train_edges, train_labels, plan)
    val_edges = plan.local(val_edges)
    if batch.labels.max() >= config.n_classes or val_labels.max() >= config.n_classes:
        raise ValueError("label index exceeds the class count")

    rng = np.random.default_rng(config.seed)
    model = init_model(
        x.shape[1], config.hidden, config.n_classes, config.block_spec, rng
    )
    params = model.params()
    state = AdamState.for_params(params)
    ax = plan.props[0] @ x

    history: list[tuple[int, float, float]] = []
    best_acc = -1.0
    best_epoch = 0
    best_params = [p.copy() for p in params]
    fwd = forward(model, plan, ax)
    for epoch in range(1, config.epochs + 1):
        loss, grads = loss_and_grads(model, plan, fwd, batch, config.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss!r} at epoch {epoch}; "
                "lower the learning rate or check the inputs"
            )
        adam_step(params, grads, state, config.learning_rate)
        fwd = forward(model, plan, ax)
        val_pred = edge_scores(model, fwd.z, val_edges).argmax(axis=1)
        val_acc = float((val_pred == val_labels).mean())
        history.append((epoch, loss, val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = [p.copy() for p in params]
    model.load_params(best_params)
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_accuracy=best_acc,
    )


# -- persistence --------------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "dtype": "float64",
        "byte_order": "little",
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(doc: dict) -> np.ndarray:
    if doc.get("byte_order") != "little":
        raise ValueError(f"unsupported byte order {doc.get('byte_order')!r}")
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(doc["shape"]).astype(np.float64)


def save_checkpoint(
    path: str | Path, model: GcnModel, meta: dict | None = None
) -> None:
    """Self-describing JSON checkpoint (identical runs give identical
    bytes)."""
    doc = {
        "format": "bgprel-checkpoint-v1",
        "input_dim": model.input_dim,
        "hidden": model.hidden,
        "n_classes": model.n_classes,
        "block_spec": list(model.block_spec),
        "blocks": [[_encode_array(w) for w in block] for block in model.blocks],
        "head_w": _encode_array(model.head_w),
        "head_b": _encode_array(model.head_b),
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[GcnModel, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "bgprel-checkpoint-v1":
        raise ValueError(f"not a checkpoint file: {path}")
    model = GcnModel(
        blocks=[[_decode_array(w) for w in block] for block in doc["blocks"]],
        head_w=_decode_array(doc["head_w"]),
        head_b=_decode_array(doc["head_b"]),
        input_dim=doc["input_dim"],
        hidden=doc["hidden"],
        n_classes=doc["n_classes"],
    )
    return model, doc.get("meta", {})


def write_history_csv(
    history: list[tuple[int, float, float]], out: str | Path
) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,val_accuracy\n")
        for epoch, loss, acc in history:
            fh.write(f"{epoch},{loss!r},{acc!r}\n")
