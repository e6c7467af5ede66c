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
penalty 0.5 * wd * ||theta||^2.  Everything is plain numpy/scipy so a
run is bitwise reproducible for a fixed seed; gradients are derived by
hand and checked against finite differences in the test suite.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .topology import AsGraph, canonical_edge


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


def build_normalized_adjacency(
    graph: AsGraph,
    node_index: dict[int, int],
    edge_weights: dict[tuple[int, int], float] | None = None,
    delta: float = 0.05,
) -> sp.csr_matrix:
    """Symmetrically normalized, self-looped, weighted adjacency.

    Off-diagonal weights are max(edge weight, delta) so sparsely
    overlapping edges still propagate; passing no weights gives the
    unweighted variant (every edge weight 1).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    n = len(node_index)
    if n == 0:
        raise ValueError("empty node index")
    rows, cols, vals = [], [], []
    for a, b in graph.edges():
        if a not in node_index or b not in node_index:
            raise KeyError(f"edge ({a},{b}) outside the node index")
        if edge_weights is None:
            w = 1.0
        else:
            w = max(edge_weights[canonical_edge(a, b)], delta)
        i, j = node_index[a], node_index[b]
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((w, w))
    a_tilde = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
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


# -- forward ------------------------------------------------------------


def _row_normalize(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt((r * r).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    return r / safe[:, None], safe


@dataclass
class _LayerCache:
    h_in: np.ndarray
    propagated: np.ndarray  # A_hat @ h_in
    mask: np.ndarray  # ReLU derivative


@dataclass
class _BlockCache:
    layers: list[_LayerCache] = field(default_factory=list)
    normalized: np.ndarray | None = None
    safe_norms: np.ndarray | None = None


def forward_block(
    a_hat: sp.csr_matrix, h: np.ndarray, weights: list[np.ndarray]
) -> tuple[np.ndarray, _BlockCache]:
    """One block: per layer ReLU(A_hat H W), then row-L2 normalization.
    The cache keeps what the backward pass needs."""
    cache = _BlockCache()
    for w in weights:
        if h.shape[1] != w.shape[0]:
            raise ValueError(
                f"feature width {h.shape[1]} does not match weight {w.shape}"
            )
        p = a_hat @ h
        q = p @ w
        mask = q > 0.0
        r = q * mask
        cache.layers.append(_LayerCache(h_in=h, propagated=p, mask=mask))
        h = r
    normalized, safe = _row_normalize(h)
    cache.normalized = normalized
    cache.safe_norms = safe
    return normalized, cache


def forward(
    model: GcnModel, a_hat: sp.csr_matrix, x: np.ndarray
) -> tuple[np.ndarray, list[_BlockCache]]:
    h = np.asarray(x, dtype=np.float64)
    caches = []
    for block in model.blocks:
        h, cache = forward_block(a_hat, h, block)
        caches.append(cache)
    return h, caches


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


def edge_scores(model: GcnModel, z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Log-probabilities for ordered node pairs; swapping (i, j)
    generally changes the answer."""
    edges = _check_edges(edges, z.shape[0])
    u = np.hstack([z[edges[:, 0]], z[edges[:, 1]]])
    return _log_softmax(u @ model.head_w + model.head_b)


def loss_value(
    logp: np.ndarray,
    labels: np.ndarray,
    params: Sequence[np.ndarray] = (),
    weight_decay: float = 0.0,
) -> float:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= logp.shape[1]):
        raise ValueError("label index out of range")
    nll = -logp[np.arange(len(labels)), labels].mean()
    if weight_decay > 0.0:
        nll += 0.5 * weight_decay * sum(float((p * p).sum()) for p in params)
    return float(nll)


# -- backward -----------------------------------------------------------


def loss_and_grads(
    model: GcnModel,
    a_hat: sp.csr_matrix,
    x: np.ndarray,
    edges: np.ndarray,
    labels: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, list[np.ndarray]]:
    """Full-batch loss and exact gradients in model.params() order."""
    edges = _check_edges(edges, x.shape[0])
    labels = np.asarray(labels, dtype=np.intp)
    if len(edges) == 0:
        raise ValueError("no edges to train on")
    z, caches = forward(model, a_hat, x)
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
    dz = np.zeros_like(z)
    np.add.at(dz, edges[:, 0], du[:, :h])
    np.add.at(dz, edges[:, 1], du[:, h:])

    block_grads: list[list[np.ndarray]] = []
    dh = dz
    for block, cache in zip(reversed(model.blocks), reversed(caches)):
        # backward through y = r / ||r||: dr = (dy - y (y . dy)) / ||r||;
        # all-zero rows were passed through so dr = dy there
        y = cache.normalized
        dot = (y * dh).sum(axis=1, keepdims=True)
        dr = (dh - y * dot) / cache.safe_norms[:, None]
        grads = [np.empty(0)] * len(block)
        for li in range(len(block) - 1, -1, -1):
            layer = cache.layers[li]
            dq = dr * layer.mask
            grads[li] = layer.propagated.T @ dq
            dp = dq @ block[li].T
            dr = a_hat @ dp  # A_hat is symmetric
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
    """Class indices and log-probabilities for ordered edges."""
    z, _ = forward(model, a_hat, x)
    logp = edge_scores(model, z, edges)
    return logp.argmax(axis=1), logp


def _accuracy(model, a_hat, x, edges, labels) -> float:
    pred, _ = predict(model, a_hat, x, edges)
    return float((pred == np.asarray(labels)).mean())


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
    validation accuracy (earliest epoch wins ties)."""
    x = np.asarray(x, dtype=np.float64)
    train_edges = _check_edges(train_edges, x.shape[0])
    val_edges = _check_edges(val_edges, x.shape[0])
    if len(train_edges) == 0 or len(val_edges) == 0:
        raise ValueError("training needs non-empty train and val splits")
    train_labels = np.asarray(train_labels, dtype=np.intp)
    val_labels = np.asarray(val_labels, dtype=np.intp)
    if train_labels.max() >= config.n_classes or val_labels.max() >= config.n_classes:
        raise ValueError("label index exceeds the class count")

    rng = np.random.default_rng(config.seed)
    model = init_model(
        x.shape[1], config.hidden, config.n_classes, config.block_spec, rng
    )
    params = model.params()
    state = AdamState.for_params(params)

    history: list[tuple[int, float, float]] = []
    best_acc = -1.0
    best_epoch = 0
    best_params = [p.copy() for p in params]
    for epoch in range(1, config.epochs + 1):
        loss, grads = loss_and_grads(
            model, a_hat, x, train_edges, train_labels, config.weight_decay
        )
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss!r} at epoch {epoch}; "
                "lower the learning rate or check the inputs"
            )
        adam_step(params, grads, state, config.learning_rate)
        val_acc = _accuracy(model, a_hat, x, val_edges, val_labels)
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
