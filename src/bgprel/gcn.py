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

The head reads only the scored edges' endpoint rows, so training runs
on a ``RowPlan`` for its train and val edges: the last layer computes
the endpoint rows, and each earlier layer the one-hop closure of the
next layer's rows.  Every array of an epoch holds only its layer's plan
rows: a layer's gradient is zero outside them, so its weight gradient
sums them only.  ``predict`` runs one forward pass over every row on
A_hat itself and calls the head once per edge set it scores, so a
set's log-probabilities are those of scoring it alone.

Both passes walk one list of layers, k = 0 .. L-1 across all blocks:
layer k computes ``plan.rows[k]`` from ``plan.props[k]``, sends its
gradient back through ``plan.backs[k - 1]`` and sums its weight
gradient over ``plan.rows[k]``.  A block's last layer also normalizes
its rows.  Each sparse product of the backward pass is the transpose of
an operator the forward pass built: ``backs[k - 1]`` is
``props[k].T`` over an exactly symmetric A_hat, and the head's scatter
is the transpose of its endpoint gather.  So the hand-written gradient
is exact by construction, in float64 too.

A run trains and predicts in the dtype of its feature matrix, float32
or float64 (any other input is read as float64): A_hat, the parameters,
the Adam moments and every forward and backward array follow it, with
no flag.  Only the head's (m, classes) logits are cast to float64, so
log-probabilities, the loss and validation scores are float64 in both;
the gradient of the logits is cast back before the head gradient.  The
pipeline's features are float32, as in the GCN of Kipf & Welling;
float64 features give a float64 run, in which the test suite checks the
hand-written gradients against finite differences.

A_hat is a numpy CSR array (``topology.Csr``), and a one-shot forward,
as ``predict`` runs, multiplies it in numpy.  Only the epoch loop of
``train``, which makes hundreds of sparse products, cuts its plan from
A_hat as scipy matrices for scipy's compiled product, so only training
loads ``scipy.sparse``.  Both products sum each row in entry order from
0.0 and give the same bits.  Everything is plain
numpy/scipy, so a run is bitwise reproducible for a fixed seed at a
fixed BLAS thread count; ``cli.run`` sets numpy's OpenBLAS to one.

The checkpoint format is this module's alone: the ``Checkpoint`` record,
its one writer and its one reader, which checks every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .dataset import MODE_CLASSES, mode_classes
from .ingest import decode_array, encode_array, read_field, read_json, write_json, write_table
from .topology import Csr, decode_graph, distinct, encode_graph

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .ingest import IngestReport
    from .topology import AsGraph


class TrainingDivergedError(RuntimeError):
    pass


# -- configuration -----------------------------------------------------

# defaults found by validation sweep: multi runs with TrainConfig's own
# light defaults, binary keeps deeper blocks and weight decay
BINARY_DEFAULTS = dict(learning_rate=0.1, weight_decay=5e-4, block_spec=(2, 2))


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
        mode_classes(self.mode)  # refuses an unknown mode
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight decay must be non-negative, got {self.weight_decay}")
        if np.inf in (self.learning_rate, self.weight_decay):
            raise ValueError(f"learning rate and weight decay must be finite, "
                             f"got {self.learning_rate} and {self.weight_decay}")
        nb, nl = self.block_spec
        if nb < 1 or nl < 1:
            raise ValueError(f"bad block spec {self.block_spec}")
        if self.epochs < 1 or self.hidden < 1:
            raise ValueError("epochs and hidden width must be positive")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def n_classes(self) -> int:
        return len(mode_classes(self.mode))

    @classmethod
    def for_mode(cls, mode: str, seed: int = 0, **overrides) -> "TrainConfig":
        base = BINARY_DEFAULTS if mode == "binary" else {}
        params = {**base, "mode": mode, "seed": seed}
        params.update(overrides)
        return cls(**params)


# -- normalized adjacency ----------------------------------------------

WEIGHT_FLOOR = 0.05  # recorded in checkpoints; predict refuses any other


def build_normalized_adjacency(weights: Csr) -> Csr:
    """Symmetrically normalized, self-looped, weighted adjacency, in
    float64.

    ``weights`` is a symmetric edge-weight matrix with one stored entry
    per edge direction, each row's columns sorted and none on the
    diagonal (``topology.cnr_edge_weights``, or the 0/1
    ``AsGraph.adjacency()`` for the unweighted variant).  Stored weights
    are floored at WEIGHT_FLOOR, so sparsely overlapping edges still
    propagate.  The result is bitwise symmetric, with each row's entries
    in column order, so its transpose is itself, entry order included.
    It stores every diagonal entry, so scipy reads its square shape
    from its arrays alone.
    """
    n = len(weights.indptr) - 1
    if n == 0:
        raise ValueError("empty graph")
    # each self-loop goes after the columns of its row below it
    rows = np.repeat(np.arange(n), np.diff(weights.indptr))
    loops = weights.indptr[:-1] + np.bincount(rows[weights.indices < rows], minlength=n)
    data = np.insert(np.maximum(weights.data, WEIGHT_FLOOR, dtype=np.float64), loops, 1.0)
    indices = np.insert(weights.indices, loops, np.arange(n))
    indptr = weights.indptr + np.arange(n + 1)
    # every row is non-empty, so this is scipy's sum(axis=1), bit for bit
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(data, indptr[:-1]))
    # one product of the two factors per entry, so that entries (i, j)
    # and (j, i) get the same float
    rows = np.repeat(np.arange(n), np.diff(indptr))
    data *= inv_sqrt[rows] * inv_sqrt[indices]
    return Csr.of(data, indices, indptr)


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
    def dtype(self) -> np.dtype:
        return self.head_w.dtype

    @property
    def block_spec(self) -> tuple[int, int]:
        return (len(self.blocks), len(self.blocks[0]))

    @property
    def n_layers(self) -> int:
        return sum(len(block) for block in self.blocks)

    def layers(self) -> list[tuple[np.ndarray, bool]]:
        """Each layer's weight, in order across blocks, and whether the
        layer ends its block."""
        return [(w, i == len(block) - 1)
                for block in self.blocks for i, w in enumerate(block)]

    def params(self) -> list[np.ndarray]:
        return [w for w, _ in self.layers()] + [self.head_w, self.head_b]

    def load_params(self, params: Sequence[np.ndarray]) -> None:
        for mine, theirs in zip(self.params(), params):
            mine[...] = theirs

    def astype(self, dtype: np.dtype) -> "GcnModel":
        """This model with its parameters in ``dtype``; itself when they
        already are."""
        if self.dtype == dtype:
            return self
        return GcnModel([[w.astype(dtype) for w in block] for block in self.blocks],
                        self.head_w.astype(dtype), self.head_b.astype(dtype),
                        self.input_dim, self.hidden, self.n_classes)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(
    input_dim: int,
    hidden: int,
    n_classes: int,
    block_spec: tuple[int, int],
    rng: np.random.Generator,
    dtype: np.dtype = np.float64,
) -> GcnModel:
    """Glorot-uniform layer and head weights and a zero head bias, in
    ``dtype``; the draws are the same in every dtype."""
    n_blocks, n_layers = block_spec
    blocks = []
    width = input_dim
    for _ in range(n_blocks):
        block = []
        for _ in range(n_layers):
            block.append(_glorot(rng, width, hidden).astype(dtype))
            width = hidden
        blocks.append(block)
    head_w = _glorot(rng, 2 * hidden, n_classes).astype(dtype)
    head_b = np.zeros(n_classes, dtype=dtype)
    return GcnModel(blocks, head_w, head_b, input_dim, hidden, n_classes)


# -- row plan -----------------------------------------------------------


@dataclass(frozen=True)
class RowPlan:
    """The node rows each layer computes so that the head can read its
    edges' endpoint rows.

    ``rows[-1]`` holds the endpoints; each earlier ``rows[k]`` is the
    one-hop closure of ``rows[k + 1]``: the columns of A_hat's rows
    ``rows[k + 1]`` (its self-loops keep every row in its own closure).
    Layer k propagates its input with ``props[k]``, those rows of A_hat
    cut once to the columns ``rows[k - 1]`` (all columns for layer 0,
    whose input has every node), which keeps every stored entry of its
    rows.  Row sets are sorted, so each product sums a row in A_hat's
    entry order and matches the all-node product bit for bit on its
    rows.  A row set that holds every node uses the view of A_hat
    itself.  A layer's gradient is zero outside its rows, so its weight
    gradient sums over them only.  The plan's matrices keep A_hat's
    dtype, which is the run's.

    The operators are scipy matrices, for scipy's compiled product: an
    epoch loop makes hundreds of sparse products, which scipy runs
    several times faster than ``Csr``'s numpy product.  For k > 0,
    ``backs[k - 1] = props[k].T`` is a CSC view that shares
    ``props[k]``'s arrays, through which layer k's gradient flows back:
    A_hat is exactly symmetric, so each backward product is the
    transpose of a forward operator and the hand-written gradient is
    exact by construction, in float64 too.
    """

    rows: list[np.ndarray]
    props: list[sp.csr_matrix]
    backs: list[sp.csc_matrix]

    @classmethod
    def build(cls, a_hat: Csr | sp.csr_matrix, endpoints: np.ndarray,
              n_layers: int) -> "RowPlan":
        """Plan for ``n_layers`` layers whose head reads the node rows in
        ``endpoints`` (any shape, repeats allowed), cut from a zero-copy
        scipy view of ``a_hat``, a ``Csr`` or a scipy csr_matrix; ``train``,
        the one caller, has checked that each endpoint is a row of it."""
        import scipy.sparse as sp

        n = len(a_hat.indptr) - 1
        m = sp.csr_matrix(a_hat, shape=(n, n), copy=False)
        last = distinct(np.array(endpoints, dtype=np.intp).ravel())  # a copy to sort
        rows, props = [last], []
        for k in range(n_layers - 1, -1, -1):
            r = rows[0]
            prop = m if len(r) == n else m[r]
            if k:
                cols = r if len(r) == n else distinct(np.concatenate([r, prop.indices]))
                rows.insert(0, cols)
                if len(cols) < n:
                    prop = prop[:, cols]
            props.insert(0, prop)
        return cls(rows, props, [p.T for p in props[1:]])


# -- forward ------------------------------------------------------------


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of ``a`` dotted with the same row of ``b``."""
    return np.einsum("ij,ij->i", a, b)


def _row_normalize(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divides each row of ``r`` by its L2 norm in place and returns
    ``r`` with the norms it divided by; an all-zero row is divided by 1."""
    norms = np.sqrt(_row_dots(r, r))
    norms[norms == 0.0] = 1.0
    r /= norms[:, None]
    return r, norms


class Forward(NamedTuple):
    z: np.ndarray  # node embeddings, one row per row of the last operator
    # per layer, on its plan rows: (A_hat @ input, ReLU mask, output, row
    # norms); a block's last layer outputs its normalized rows and keeps
    # the norms it divided by, any other layer keeps None
    layers: list[tuple]


def forward(model: GcnModel, props: Sequence, ax: np.ndarray) -> Forward:
    """Forward pass from the propagated input ``ax = props[0] @ x``,
    which depends only on the graph and the features, so training
    computes it once; each later layer k propagates with ``props[k]``: a
    ``RowPlan``'s operators in training, A_hat itself in ``predict``.
    Each layer is ReLU(A_hat H W); a block's last layer then normalizes
    its rows."""
    p, layers = ax, []
    for k, (w, ends_block) in enumerate(model.layers()):
        if k:
            p = props[k] @ h
        if p.shape[1] != w.shape[0]:
            raise ValueError(
                f"feature width {p.shape[1]} does not match weight {w.shape}"
            )
        q = p @ w
        mask = q > 0.0
        h = np.multiply(q, mask, out=q)
        norms = None
        if ends_block:
            h, norms = _row_normalize(h)
        layers.append((p, mask, h, norms))
    return Forward(h, layers)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, in float64 whatever the logits' dtype."""
    logits = logits.astype(np.float64, copy=False)
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
    labels: np.ndarray, n_edges: int, n_classes: int, what: str = "edges"
) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n_edges,):
        raise ValueError(f"{labels.size} labels for {n_edges} {what}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label index out of range for the class count")
    return labels


def _head(model: GcnModel, z: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The head's input for checked edges, each edge's two endpoint rows
    of ``z`` side by side, and its log-probabilities."""
    # row k of z[edges] is the two endpoint rows one after the other
    u = z[edges].reshape(len(edges), 2 * z.shape[1])
    return u, _log_softmax(u @ model.head_w + model.head_b)


def _objective(
    logp: np.ndarray,
    labels: np.ndarray,
    params: Sequence[np.ndarray],
    weight_decay: float,
) -> float:
    """The training objective for checked labels: the mean negative
    log-likelihood plus the L2 penalty."""
    nll = -logp[np.arange(len(labels)), labels].mean()
    if weight_decay > 0.0:
        nll += 0.5 * weight_decay * sum(float((p * p).sum()) for p in params)
    return float(nll)


# -- backward -----------------------------------------------------------


def incidence_matrix(
    edges: np.ndarray, n_nodes: int, dtype: np.dtype = np.float64
) -> sp.csr_matrix:
    """(n_nodes, 2m) 0/1 matrix in ``dtype``: column k marks
    ``edges[k, 0]`` and column m + k marks ``edges[k, 1]``.

    It is the transpose of the head's endpoint gather, whose row k reads
    node ``edges[k, 0]`` and row m + k node ``edges[k, 1]``: built as
    that transpose, a CSC with one entry per column, and converted, each
    row keeps its columns in increasing order.  So its product with the left-endpoint rows stacked over
    the right-endpoint rows sums each node's rows in the order
    ``np.add.at`` would (left endpoints, then right endpoints, each in
    edge order, starting from 0.0), bit-identical to that scatter.
    """
    import scipy.sparse as sp

    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    return sp.csc_matrix(
        (np.ones(len(ends), dtype=dtype), ends, np.arange(len(ends) + 1)),
        shape=(n_nodes, len(ends)),
    ).tocsr()


@dataclass(frozen=True)
class EdgeBatch:
    """Labeled training edges, checked, and the head's scatter matrix."""

    edges: np.ndarray  # (m, 2) positions in the plan's rows[-1]
    labels: np.ndarray
    incidence: sp.csr_matrix  # incidence_matrix of edges over len(rows[-1]) nodes


def loss_and_grads(
    model: GcnModel,
    plan: RowPlan,
    fwd: Forward,
    batch: EdgeBatch,
    weight_decay: float = 0.0,
) -> tuple[float, list[np.ndarray]]:
    """Full-batch loss and exact gradients in model.params() order.

    ``fwd`` is the forward pass of the model's current parameters over
    ``plan``'s operators.  The backward pass runs on the plan's rows and
    ends at the first layer's weight gradient; the input gradient is
    never formed."""
    labels = batch.labels
    m = len(labels)
    u, logp = _head(model, fwd.z, batch.edges)
    loss = _objective(logp, labels, model.params(), weight_decay)

    # d(mean nll)/d(logits) = (softmax - onehot) / m, from the float64
    # log-probabilities, then in the model's dtype
    dlogits = np.exp(logp)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    dlogits = dlogits.astype(model.dtype, copy=False)
    grad_head_w = u.T @ dlogits
    grad_head_b = dlogits.sum(axis=0)
    du = dlogits @ model.head_w.T

    h = model.hidden
    dh = batch.incidence @ np.concatenate([du[:, :h], du[:, h:]])

    weights = [w for w, _ in model.layers()]
    grads = [np.empty(0)] * len(weights)
    for k in range(len(weights) - 1, -1, -1):
        p, mask, y, norms = fwd.layers[k]
        if norms is not None:
            # backward through y = r / ||r||: dr = (dy - y (y . dy)) / ||r||;
            # all-zero rows were passed through so dr = dy there
            dh -= y * _row_dots(y, dh)[:, None]
            dh /= norms[:, None]
        dq = np.multiply(dh, mask, out=dh)
        grads[k] = p.T @ dq
        if k:  # the model's input needs no gradient
            dh = plan.backs[k - 1] @ (dq @ weights[k].T)  # props[k].T

    grads.append(grad_head_w)
    grads.append(grad_head_b)
    if weight_decay > 0.0:
        for g, p in zip(grads, model.params()):
            g += weight_decay * p
    return loss, grads


# -- optimizer ----------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

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
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# -- training -----------------------------------------------------------


class Epoch(NamedTuple):
    """One epoch of a training history, a row of ``history.csv``."""

    epoch: int
    loss: float  # training objective at the parameters the step started from
    val_loss: float  # the same objective on the val edges after the step
    val_accuracy: float  # after the step
    grad_norm: float  # L2 norm over every parameter gradient of the step


@dataclass
class TrainResult:
    model: GcnModel
    history: list[Epoch]
    best_epoch: int
    best_val_accuracy: float


def _features(x: np.ndarray) -> np.ndarray:
    """``x`` as an array in the run's dtype: float32 and float64 stay,
    anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)


def predict(
    model: GcnModel, a_hat: Csr, x: np.ndarray, edge_sets: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Class indices and float64 log-probabilities for each array of
    ordered edges in ``edge_sets``, checked first, from one forward pass
    in the features' dtype over every row on A_hat itself, then one head
    call per array; the model and A_hat are cast to that dtype if they
    differ.  The head's product can round a row differently with the
    number of rows it holds: an edge's log-probabilities repeat for the
    same array, and may move in their last bits in another.  Its few
    sparse products are A_hat's own: a ``Csr`` multiplies in numpy, so
    it loads no scipy."""
    x = _features(x)
    model = model.astype(x.dtype)
    a_hat = a_hat.astype(x.dtype, copy=False)
    edge_sets = [_check_edges(edges, len(a_hat.indptr) - 1) for edges in edge_sets]
    # only the output is kept, so the layer caches are freed before scoring
    z = forward(model, [a_hat] * model.n_layers, a_hat @ x).z
    logps = [_head(model, z, edges)[1] for edges in edge_sets]
    return [(logp.argmax(axis=1), logp) for logp in logps]


def train(
    x: np.ndarray,
    a_hat: Csr,
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
    Both run on one plan for the train and val edges, whose edges and
    labels are checked here once, before the plan is built, not in the
    plan, the batch or the loop.  The model trains in the features'
    dtype; A_hat is cast to it if it differs.  Training is the one user
    of ``RowPlan``, whose operators are scipy matrices."""
    x = _features(x)
    n = len(a_hat.indptr) - 1
    train_edges, val_edges = (_check_edges(edges, n) for edges in (train_edges, val_edges))
    if len(train_edges) == 0 or len(val_edges) == 0:
        raise ValueError("training needs non-empty train and val splits")
    train_labels = _check_labels(train_labels, len(train_edges), config.n_classes)
    val_labels = _check_labels(val_labels, len(val_edges), config.n_classes, "val edges")
    nb, nl = config.block_spec
    plan = RowPlan.build(a_hat.astype(x.dtype, copy=False),
                         np.concatenate([train_edges, val_edges]), nb * nl)
    # every endpoint is one of the plan's sorted rows[-1], so its position
    # there is its row in the embeddings of a forward pass over the plan
    train_edges, val_edges = (np.searchsorted(plan.rows[-1], edges)
                              for edges in (train_edges, val_edges))
    batch = EdgeBatch(train_edges, train_labels, incidence_matrix(
        train_edges, len(plan.rows[-1]), plan.props[0].data.dtype))

    rng = np.random.default_rng(config.seed)
    model = init_model(
        x.shape[1], config.hidden, config.n_classes, config.block_spec, rng, x.dtype
    )
    params = model.params()
    state = AdamState.for_params(params)
    ax = plan.props[0] @ x

    history: list[Epoch] = []
    best_acc = -1.0
    best_epoch = 0
    best_params = [p.copy() for p in params]
    fwd = forward(model, plan.props, ax)
    for epoch in range(1, config.epochs + 1):
        loss, grads = loss_and_grads(model, plan, fwd, batch, config.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss!r} at epoch {epoch}; "
                "lower the learning rate or check the inputs"
            )
        grad_norm = float(np.linalg.norm(np.concatenate([g.ravel() for g in grads])))
        adam_step(params, grads, state, config.learning_rate)
        fwd = forward(model, plan.props, ax)
        _, val_logp = _head(model, fwd.z, val_edges)
        val_loss = _objective(val_logp, val_labels, params, config.weight_decay)
        val_acc = float((val_logp.argmax(axis=1) == val_labels).mean())
        history.append(Epoch(epoch, loss, val_loss, val_acc, grad_norm))
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


# the dtypes a checkpoint's arrays may have
_CHECKPOINT_DTYPES = ("float32", "float64")
_FORMAT = "bgprel-checkpoint-v1"


class Checkpoint(NamedTuple):
    """What a checkpoint file holds.  ``observed`` is the graph it was
    trained on with its ingest counts, ``source`` the record of the files
    that graph came from, ``split`` the ``LabelTable.digest`` of its split
    set, each None where absent.  The class names are the mode's and the
    edge weight floor is WEIGHT_FLOOR: both are written and checked, never set."""

    model: GcnModel
    mode: str
    seed: int
    best_epoch: int
    source: dict | None = None
    observed: tuple[AsGraph, IngestReport] | None = None
    split: str | None = None

    @property
    def classes(self) -> list[str]:
        return [c.value for c in mode_classes(self.mode)]


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    """Self-describing JSON checkpoint, each array in the model's dtype
    (identical runs give identical bytes)."""
    model, observed = checkpoint.model, checkpoint.observed
    meta = {"mode": checkpoint.mode, "seed": checkpoint.seed, "delta": WEIGHT_FLOOR,
            "best_epoch": checkpoint.best_epoch, "classes": checkpoint.classes,
            "source": checkpoint.source, "graph": encode_graph(*observed) if observed else None,
            "split": checkpoint.split}
    write_json(path, {
        "format": _FORMAT,
        "input_dim": model.input_dim,
        "hidden": model.hidden,
        "n_classes": model.n_classes,
        "block_spec": list(model.block_spec),
        "blocks": [[encode_array(w) for w in block] for block in model.blocks],
        "head_w": encode_array(model.head_w),
        "head_b": encode_array(model.head_b),
        "meta": {k: v for k, v in meta.items() if v is not None},
    })


def load_checkpoint(path: str | Path) -> Checkpoint:
    """The checkpoint in the file ``path``, accepted whole or refused with
    a ``FieldError`` naming the file and the field.  Every field is
    checked, ``meta`` and its graph included, and the recorded sizes
    against the arrays' shapes."""
    doc = read_json(path, "checkpoint")

    def field(name: str, ok=None, what: str = ""):
        return read_field(doc, path, name, ok, what)

    def size(v) -> bool:
        return type(v) is int and v > 0

    field("format", lambda v: v == _FORMAT, repr(_FORMAT))
    d, h, c = (field(k, size, "a positive integer")
               for k in ("input_dim", "hidden", "n_classes"))
    nb, nl = field("block_spec", lambda v: isinstance(v, list) and len(v) == 2
                   and all(map(size, v)), "a [blocks, layers] pair")
    field("blocks", lambda v: isinstance(v, list) and len(v) == nb and all(
        isinstance(b, list) and len(b) == nl for b in v),
        f"{nb} lists of {nl} arrays, as 'block_spec' records")
    meta = field("meta", lambda v: isinstance(v, dict), "an object")
    mode = field("meta.mode", lambda v: isinstance(v, str) and v in MODE_CLASSES,
                 f"a mode, one of {list(MODE_CLASSES)}")
    classes = [label.value for label in mode_classes(mode)]
    field("meta.classes", lambda v: v == classes, f"{classes}, the classes of {mode} mode")
    field("n_classes", lambda v: v == len(classes),
          f"{len(classes)}, the number of classes {mode} mode has")
    seed = field("meta.seed", lambda v: type(v) is int, "an integer")
    field("meta.seed", lambda v: v >= 0, "a non-negative integer")
    field("meta.delta", lambda v: v == WEIGHT_FLOOR,
          f"{WEIGHT_FLOOR}, the edge weight floor of the propagation matrix")
    best_epoch = field("meta.best_epoch", lambda v: type(v) is int and v >= 0,
                       "a non-negative integer")
    source = field("meta.source", lambda v: isinstance(v, dict),
                   "an object") if "source" in meta else None
    split = field("meta.split", lambda v: isinstance(v, str) and len(v) == 64 and not v.strip(
        "0123456789abcdef"), "a sha256 hex digest") if "split" in meta else None
    # the shape each array must have, given the recorded sizes
    want = {f"blocks[{i}][{j}]": [d if i == j == 0 else h, h]
            for i in range(nb) for j in range(nl)}
    want.update(head_w=[2 * h, c], head_b=[c])
    arrays = {}
    for name, shape in want.items():
        arrays[name] = decode_array(doc, path, name, _CHECKPOINT_DTYPES)
        field(f"{name}.shape", lambda v: v == shape,
              f"{shape}, as input_dim {d}, hidden {h} and n_classes {c} give")
        dtype = arrays["blocks[0][0]"].dtype.name
        field(f"{name}.dtype", lambda v: v == dtype, f"{dtype!r}, that of 'blocks[0][0]'")
    model = GcnModel([[arrays[f"blocks[{i}][{j}]"] for j in range(nl)] for i in range(nb)],
                     arrays["head_w"], arrays["head_b"], d, h, c)
    observed = decode_graph(doc, path, "meta.graph") if "graph" in meta else None
    return Checkpoint(model, mode, seed, best_epoch, source, observed, split)


def write_history_csv(history: list[Epoch], out: str | Path) -> None:
    write_table(out, history,
                ["epoch", "loss", "val_loss", "val_accuracy", "grad_norm"])
