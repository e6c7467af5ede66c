"""Reference definitions the tests hold the package to.

Each is the plain, one-item-at-a-time form of a rule that ``bgprel``
applies in batches, or the checked form of a function it calls on
inputs it has already checked.  No command runs them.

- ``parse_path_line`` and ``sanitize`` are the per-path definitions of
  the rules ``ingest``'s block parser applies: the reference the block
  code is tested against.
- ``is_valley_free`` checks one path against the planted labels with a
  literal regular expression: the per-path reference for
  ``synth.policy_violations``.
- ``edge_scores`` is ``gcn``'s edge head with its edges checked, and
  ``loss_value`` its training objective with its labels checked, for
  the finite-difference helpers and the reference training loop.
- ``edge_batch`` builds a ``gcn.EdgeBatch`` over a plan as ``gcn.train``
  does, for tests that call ``loss_and_grads`` directly.
- ``edge_pairs``, ``is_allocated`` and ``allocated_runs`` read an
  ``AsGraph``'s edges and an ``AllocationTable``'s ranges one item at a
  time, from the arrays the package itself reads.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Sequence

import numpy as np

from bgprel import gcn
from bgprel.dataset import RelLabel
from bgprel.ingest import WHITESPACE, AllocationTable, AsPath, parse_asn
from bgprel.synth import GroundTruth
from bgprel.topology import AsGraph, canonical_edge


# -- the graph's edges and the allocation table, one item at a time --------


def edge_pairs(graph: AsGraph) -> list[tuple[int, int]]:
    """Every edge of ``graph`` as an ASN pair, in ``edge_rows`` order."""
    return [tuple(e) for e in graph.nodes[graph.edge_rows].tolist()]


def is_allocated(table: AllocationTable, asn: int) -> bool:
    """Whether ``asn`` falls in one of ``table``'s ranges."""
    return bool(table.allocated(np.array([asn], dtype=np.int64))[0])


def allocated_runs(table: AllocationTable, asns: range) -> list[tuple[int, int]]:
    """The runs of allocated ASNs in the consecutive ``asns``, each as its
    first and last ASN: ``table``'s merged ranges, cut to ``asns``."""
    runs: list[tuple[int, int]] = []
    for asn in asns:
        if is_allocated(table, asn):
            if runs and runs[-1][1] == asn - 1:
                runs[-1] = (runs[-1][0], asn)
            else:
                runs.append((asn, asn))
    return runs


# -- ingest: one path line at a time ----------------------------------------


class PathParseError(ValueError):
    """A line could not be parsed as a pipe-separated AS path."""

    def __init__(self, message: str, line_number: int = 0):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}" if line_number else message)


class RejectReason(str, Enum):
    LOOP = "loop"
    UNALLOCATED = "unallocated"


class PathRejected(ValueError):
    """A parsed path failed a sanitization rule."""

    def __init__(self, reason: RejectReason, asn: int, line_number: int = 0):
        self.reason = reason
        self.asn = asn
        self.line_number = line_number
        super().__init__(f"path rejected ({reason.value}): AS{asn}")


def parse_path_line(line: str, line_number: int = 0) -> AsPath:
    """Parse one ``a|b|c`` line into an AsPath."""
    text = line.strip(WHITESPACE)
    if not text:
        raise PathParseError("empty line", line_number)
    tokens = text.split("|")
    try:
        hops = tuple(parse_asn(t, f"hop {i}") for i, t in enumerate(tokens, 1))
    except ValueError as exc:
        raise PathParseError(str(exc), line_number) from None
    return AsPath(hops, line_number)


def sanitize(path: AsPath, table: AllocationTable | None = None) -> AsPath:
    """Apply the cleaning rules; raises PathRejected with a reason code.

    Adjacent duplicates are compressed before the loop test, so a path
    like ``A B B A`` is a loop while ``A B B`` is merely compressed.
    When no allocation table is given the allocation filter is skipped.
    """
    hops: list[int] = []
    for h in path.hops:
        if not hops or hops[-1] != h:
            hops.append(h)
    if table is not None:
        for h in hops:
            if not is_allocated(table, h):
                raise PathRejected(RejectReason.UNALLOCATED, h, path.source_line)
    seen: set[int] = set()
    for h in hops:
        if h in seen:
            raise PathRejected(RejectReason.LOOP, h, path.source_line)
        seen.add(h)
    return AsPath(tuple(hops), path.source_line)


# -- synth: one path against the planted labels -----------------------------

_VALLEY_FREE = re.compile(r"[us]*p?[ds]*")


def is_valley_free(hops: tuple[int, ...], truth: GroundTruth) -> bool:
    """Check a path against the planted labels with the literal pattern
    [C2P|S2S]* [P2P]? [P2C|S2S]* (exchange links count as peering).
    The per-path reference for ``policy_violations``."""
    steps = []
    for m, w in zip(hops, hops[1:]):
        try:
            provider, _, label = truth.links[canonical_edge(m, w)]
        except KeyError:
            return False
        if label is RelLabel.S2S:
            steps.append("s")
        elif label in (RelLabel.P2P, RelLabel.X2X):
            steps.append("p")
        else:
            steps.append("u" if provider == w else "d")
    return _VALLEY_FREE.fullmatch("".join(steps)) is not None


# -- gcn: the objective with checked labels, and a training batch -----------


def edge_scores(model: gcn.GcnModel, z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Log-probabilities for ordered pairs of rows of ``z``; swapping
    (i, j) generally changes the answer."""
    return gcn._head(model, z, gcn._check_edges(edges, z.shape[0]))[1]


def loss_value(
    logp: np.ndarray,
    labels: np.ndarray,
    params: Sequence[np.ndarray] = (),
    weight_decay: float = 0.0,
) -> float:
    labels = gcn._check_labels(labels, logp.shape[0], logp.shape[1])
    return gcn._objective(logp, labels, params, weight_decay)


def edge_batch(edges: np.ndarray, labels: np.ndarray, plan: gcn.RowPlan) -> gcn.EdgeBatch:
    """The batch of labeled node-row ``edges``, each endpoint one of
    ``plan.rows[-1]``, for a forward pass over ``plan``, built as
    ``gcn.train`` builds its own; like ``train``, it refuses no edges."""
    if len(edges) == 0:
        raise ValueError("no edges to train on")
    local = np.searchsorted(plan.rows[-1], edges)
    return gcn.EdgeBatch(local, np.asarray(labels, dtype=np.intp), gcn.incidence_matrix(
        local, len(plan.rows[-1]), plan.props[0].data.dtype))
