"""Undirected AS topology built from observed paths, plus node features.

The graph records, per node, its neighbors, which neighbors it was seen
transiting between, and at what hop distances vantage points saw it.
Those observations drive the per-node feature vector used by the edge
classifier:

    degree, transit degree, mean distance to the top clique,
    mean/min/max distance to vantage points, number of observing VPs,
    a 3-way hierarchy one-hot (nucleus / middle / shell) and a 4-way
    AS-type one-hot (transit_access / content / enterprise / unknown).

Scalar columns are min-max scaled to [0, 1]; the common-neighbor ratio
is computed per edge and used only to weight the adjacency matrix, not
as a node column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .ingest import PathStore


class UnknownNodeError(ValueError):
    pass


class NonEdgeError(ValueError):
    pass


def canonical_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


_LOW32 = np.uint64(0xFFFFFFFF)


class VpArrays(NamedTuple):
    """Per-node vantage-point observations: how many hops sit on the
    node, the sum/min/max of their distances from their path's VP, and
    how many distinct VPs saw it.  All zero for an unobserved node."""

    count: np.ndarray
    total: np.ndarray
    low: np.ndarray
    high: np.ndarray
    observers: np.ndarray

    @classmethod
    def unobserved(cls, n: int) -> "VpArrays":
        return cls(*(np.zeros(n, dtype=np.int64) for _ in cls._fields))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins in a sorted array."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values, sorting ``keys`` in place (np.unique
    without its bookkeeping)."""
    keys.sort()
    return keys[_run_starts(keys)]


class AsGraph:
    """AS-level graph with observation metadata, held in arrays.

    Nodes are a sorted ASN array, so a node's position is also its row
    in the feature matrix; adjacency is CSR over those positions with
    sorted rows.  Per-node arrays hold the transit degree and the VP
    observations.  Build it once, with ``build_graph`` or
    ``from_edges``; all query methods are side-effect free.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        edges: np.ndarray,
        transit: np.ndarray | None = None,
        vp: VpArrays | None = None,
    ) -> None:
        n = len(nodes)
        self._nodes = nodes
        self._edges = edges
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        self._indices = cols[np.lexsort((cols, rows))]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self._indptr[1:])
        self._transit = np.zeros(n, dtype=np.int64) if transit is None else transit
        self._vp = VpArrays.unobserved(n) if vp is None else vp
        self._diameter: int | None = None

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], nodes: Iterable[int] = ()
    ) -> "AsGraph":
        """Graph of an edge list, plus any extra isolated ``nodes``; no
        node has observations."""
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"self-edge on AS{pairs[loops][0, 0]}")
        asns = _distinct(np.concatenate([pairs.ravel(), np.fromiter(nodes, np.int64)]))
        n = len(asns)
        pos = np.sort(np.searchsorted(asns, pairs), axis=1)
        keys = _distinct(pos[:, 0] * n + pos[:, 1])
        return cls(asns, np.stack(np.divmod(keys, n), axis=1))

    # -- queries ------------------------------------------------------

    def _find(self, a: int) -> int:
        """Position of a node, or -1."""
        i = int(np.searchsorted(self._nodes, a))
        return i if i < len(self._nodes) and self._nodes[i] == a else -1

    def _pos(self, a: int) -> int:
        i = self._find(a)
        if i < 0:
            raise UnknownNodeError(f"unknown AS{a}")
        return i

    def __contains__(self, a: int) -> bool:
        return self._find(a) >= 0

    @property
    def nodes(self) -> set[int]:
        """A fresh set of every ASN; test membership with ``in graph``."""
        return set(self._nodes.tolist())

    def sorted_nodes(self) -> list[int]:
        return self._nodes.tolist()

    def _degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def _row(self, i: int) -> np.ndarray:
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def neighbors(self, a: int) -> set[int]:
        return set(self._nodes[self._row(self._pos(a))].tolist())

    def degree(self, a: int) -> int:
        i = self._pos(a)
        return int(self._indptr[i + 1] - self._indptr[i])

    def transit_degree(self, a: int) -> int:
        return int(self._transit[self._pos(a)])

    def has_edge(self, a: int, b: int) -> bool:
        i, j = self._find(a), self._find(b)
        if i < 0 or j < 0:
            return False
        row = self._row(i)
        k = int(np.searchsorted(row, j))
        return k < len(row) and row[k] == j

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self._nodes[self._edges[:, 0]].tolist(),
                        self._nodes[self._edges[:, 1]].tolist()))

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def _adjacency(self) -> sp.csr_matrix:
        """0/1 adjacency over node positions."""
        n = self.num_nodes
        ones = np.ones(len(self._indices), dtype=np.float64)
        return sp.csr_matrix((ones, self._indices, self._indptr), shape=(n, n))

    def _hop_distances(self, sources: np.ndarray) -> np.ndarray:
        """BFS hop counts from each source position to every node, one
        row per source; unreachable nodes read inf."""
        return csgraph.shortest_path(
            self._adjacency(), method="D", unweighted=True, indices=sources
        ).reshape(len(sources), self.num_nodes)

    def bfs_distances(self, src: int) -> dict[int, int]:
        dist = self._hop_distances(np.array([self._pos(src)]))[0]
        reached = np.flatnonzero(np.isfinite(dist))
        return dict(zip(self._nodes[reached].tolist(),
                        dist[reached].astype(np.int64).tolist()))

    def diameter(self) -> int:
        """Longest finite shortest-path distance over all node pairs: the
        largest diameter among the connected components.

        One BFS per source; a source's eccentricity is the depth of the
        last node it reaches, read off the BFS predecessor chain."""
        if self._diameter is None:
            adj = self._adjacency()
            best = 0
            for src in range(self.num_nodes):
                order, pred = csgraph.breadth_first_order(
                    adj, src, directed=True, return_predecessors=True
                )
                v, depth = int(order[-1]), 0
                while v != src:
                    v, depth = int(pred[v]), depth + 1
                best = max(best, depth)
            self._diameter = best
        return self._diameter


def build_graph(paths: PathStore) -> AsGraph:
    """Assemble the observed topology from sanitized paths.

    Each per-hop quantity is packed with its node's ASN into one 64-bit
    key, (ASN << 32) | value, and sorted; every ASN is below 2**32, so
    sorted keys group by node in ascending ASN order.
    """
    hops = paths.hops.view(np.uint64)  # ASNs are positive
    nodes = _distinct(paths.hops.copy())
    n = len(nodes)
    path_of = np.repeat(
        np.arange(len(paths), dtype=np.int32), np.diff(paths.offsets)
    )

    # hops i and i+1 are adjacent when they belong to one path
    linked = path_of[1:] == path_of[:-1]
    lo, hi = hops[:-1][linked], hops[1:][linked]
    if np.any(lo == hi):
        raise ValueError("self-edge in a path")
    keys = np.minimum(lo, hi)
    np.maximum(lo, hi, out=hi)
    del lo
    keys <<= 32
    keys |= hi
    del hi
    keys = _distinct(keys)
    edges = np.searchsorted(
        nodes, np.stack([keys >> 32, keys & _LOW32], axis=1).astype(np.int64)
    )

    # hop i+1 transits between hops i and i+2
    inner = linked[:-1] & linked[1:]
    del linked
    mid = hops[1:-1][inner] << 32
    keys = np.empty(2 * len(mid), dtype=np.uint64)
    np.bitwise_or(mid, hops[:-2][inner], out=keys[:len(mid)])
    np.bitwise_or(mid, hops[2:][inner], out=keys[len(mid):])
    del mid, inner
    middles = (_distinct(keys) >> 32).astype(np.int64)
    del keys
    starts = _run_starts(middles)
    transit = np.zeros(n, dtype=np.int64)
    transit[np.searchsorted(nodes, middles[starts])] = np.diff(starts, append=len(middles))
    del middles

    # (node, VP of the path it sits on) for every hop
    first = paths.offsets[:-1]
    keys = hops << 32
    keys |= hops[first][path_of]
    seen_by = _distinct(keys) >> 32
    del keys
    observers = np.diff(_run_starts(seen_by), append=len(seen_by))
    del seen_by
    # (node, hop distance from the path's VP) for every hop
    keys = np.arange(len(hops), dtype=np.uint64)
    keys -= first.view(np.uint64)[path_of]
    del path_of
    keys |= hops << 32
    keys.sort()
    starts = _run_starts(keys >> 32)
    count = np.diff(starts, append=len(keys))
    depth = (keys & _LOW32).astype(np.int64)
    del keys
    running = np.concatenate([[0], np.cumsum(depth)])
    vp = VpArrays(
        count=count,
        total=running[starts + count] - running[starts],
        low=depth[starts],
        high=depth[starts + count - 1],
        observers=observers,
    )
    return AsGraph(nodes, edges, transit, vp)


# -- top clique ------------------------------------------------------


def infer_clique(g: AsGraph, k_candidates: int = 20) -> set[int]:
    """Greedy top-clique discovery.

    Nodes are ranked by transit degree (degree, then ASN break ties).
    The top node seeds the clique; each of the next k_candidates-1
    ranked nodes joins iff adjacent to every member so far.  Nodes that
    transit nothing are never candidates beyond the seed.
    """
    if g.num_nodes == 0:
        raise ValueError("cannot infer a clique on an empty graph")
    order = np.lexsort((g._nodes, -g._degrees(), -g._transit))
    ranked = g._nodes[order[:max(k_candidates, 1)]].tolist()
    members = [ranked[0]]
    for cand in ranked[1:]:
        if g.transit_degree(cand) == 0:
            continue
        if all(g.has_edge(cand, m) for m in members):
            members.append(cand)
    return set(members)


def load_clique_file(path: str | Path) -> set[int]:
    clique: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            clique.add(int(text))
    if not clique:
        raise ValueError(f"clique file is empty: {path}")
    return clique


# -- per-node statistics ----------------------------------------------


def clique_distances(
    g: AsGraph, clique: set[int]
) -> tuple[dict[int, float], int]:
    """Mean BFS distance from every node to the clique members.

    Unreachable (node, member) pairs contribute diameter+1 hops; the
    second return value counts them so callers can surface the anomaly.
    """
    if not clique:
        raise ValueError("clique is empty")
    for m in clique:
        if m not in g:
            raise UnknownNodeError(f"clique member AS{m} not in graph")
    members = np.array([g._pos(m) for m in sorted(clique)])
    dist = g._hop_distances(members)
    missing = ~np.isfinite(dist)
    unreachable = int(missing.sum())
    if unreachable:
        dist[missing] = g.diameter() + 1
    # integer hop counts, so the sum is exact in any order
    means = dist.sum(axis=0) / len(members)
    return dict(zip(g.sorted_nodes(), means.tolist())), unreachable


def common_neighbor_ratio(g: AsGraph, a: int, b: int) -> float:
    """Jaccard overlap of the endpoints' neighborhoods, excluding both
    endpoints themselves; 0 when the union is empty."""
    if not g.has_edge(a, b):
        raise NonEdgeError(f"no edge AS{a}-AS{b}")
    na = g.neighbors(a) - {a, b}
    nb = g.neighbors(b) - {a, b}
    union = na | nb
    if not union:
        return 0.0
    return len(na & nb) / len(union)


def cnr_edge_weights(g: AsGraph) -> dict[tuple[int, int], float]:
    """``common_neighbor_ratio`` of every edge, keyed like ``g.edges()``.

    Neither endpoint is its own neighbor, so the shared neighbors never
    include them, and the union without them has deg(a)-1 + deg(b)-1 -
    shared members.
    """
    bounds = g._indptr.tolist()
    rows = [set(g._indices[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    degree = g._degrees().tolist()
    out = {}
    for key, (i, j) in zip(g.edges(), g._edges.tolist()):
        shared = len(rows[i] & rows[j])
        union = degree[i] + degree[j] - 2 - shared
        out[key] = shared / union if union else 0.0
    return out


class VpStats(NamedTuple):
    mean: float
    min: int
    max: int
    assign_vp: int
    observed: bool


def vp_stats(g: AsGraph, a: int) -> VpStats:
    """Hop-distance statistics of a node relative to the vantage points
    that saw it; all-zero with observed=False for unseen nodes."""
    i = g._pos(a)
    vp = g._vp
    count = int(vp.count[i])
    if not count:
        return VpStats(0.0, 0, 0, 0, False)
    return VpStats(
        int(vp.total[i]) / count,
        int(vp.low[i]),
        int(vp.high[i]),
        int(vp.observers[i]),
        True,
    )


class Hierarchy(Enum):
    NUCLEUS = "nucleus"
    MIDDLE = "middle"
    SHELL = "shell"


def hierarchy_class(g: AsGraph, clique: set[int], a: int) -> Hierarchy:
    g._pos(a)
    if a in clique:
        return Hierarchy.NUCLEUS
    if g.transit_degree(a) == 0:
        return Hierarchy.SHELL
    return Hierarchy.MIDDLE


class AsType(Enum):
    TRANSIT_ACCESS = "transit_access"
    CONTENT = "content"
    ENTERPRISE = "enterprise"
    UNKNOWN = "unknown"


def load_type_map(path: str | Path) -> dict[int, AsType]:
    """Read an ``asn,type`` CSV; a header row is tolerated."""
    out: dict[int, AsType] = {}
    values = {t.value: t for t in AsType}
    with open(path, encoding="utf-8", newline="") as fh:
        for n, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().startswith("#"):
                continue
            key = row[0].strip()
            if not key.isdigit():
                if n == 1:
                    continue  # header
                raise ValueError(f"type map line {n}: bad ASN {key!r}")
            if len(row) < 2:
                raise ValueError(f"type map line {n}: missing type")
            label = row[1].strip()
            if label not in values:
                raise ValueError(f"type map line {n}: unknown type {label!r}")
            out[int(key)] = values[label]
    return out


# -- feature assembly -------------------------------------------------

SCALAR_COLUMNS = [
    "degree",
    "transit_degree",
    "dist_to_clique",
    "dist_to_vp_mean",
    "dist_to_vp_min",
    "dist_to_vp_max",
    "assign_vp",
]
HIERARCHY_COLUMNS = ["hierarchy_nucleus", "hierarchy_middle", "hierarchy_shell"]
TYPE_COLUMNS = ["type_transit_access", "type_content", "type_enterprise", "type_unknown"]
FEATURE_COLUMNS = SCALAR_COLUMNS + HIERARCHY_COLUMNS + TYPE_COLUMNS

_HIERARCHY_ORDER = [Hierarchy.NUCLEUS, Hierarchy.MIDDLE, Hierarchy.SHELL]
_TYPE_ORDER = [AsType.TRANSIT_ACCESS, AsType.CONTENT, AsType.ENTERPRISE, AsType.UNKNOWN]


@dataclass
class FeatureMatrix:
    """Normalized node features in ascending-ASN row order."""

    values: np.ndarray
    raw: np.ndarray
    nodes: list[int]
    index: dict[int, int]
    columns: list[str]
    clique: set[int]
    diagnostics: dict[str, int] = field(default_factory=dict)


def _minmax(col: np.ndarray) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi == lo:
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def assemble_features(
    g: AsGraph,
    clique: set[int],
    type_map: dict[int, AsType] | None = None,
) -> FeatureMatrix:
    """Compute the 14-column feature matrix for every node.

    Missing type-map entries fall back to unknown.  Nodes that no VP
    observed keep zero VP statistics and are counted in diagnostics.
    """
    if g.num_nodes == 0:
        raise ValueError("empty graph")
    type_map = type_map or {}
    nodes = g.sorted_nodes()
    index = {a: i for i, a in enumerate(nodes)}
    n = len(nodes)

    dclique, unreachable = clique_distances(g, clique)
    vp = g._vp
    observed = vp.count > 0
    raw = np.zeros((n, len(SCALAR_COLUMNS)), dtype=np.float64)
    raw[:, 0] = g._degrees()
    raw[:, 1] = g._transit
    raw[:, 2] = [dclique[a] for a in nodes]
    np.divide(vp.total, vp.count, out=raw[:, 3], where=observed)
    raw[:, 4] = vp.low
    raw[:, 5] = vp.high
    raw[:, 6] = vp.observers
    unobserved = int(n - observed.sum())

    values = np.zeros((n, len(FEATURE_COLUMNS)), dtype=np.float64)
    for c in range(raw.shape[1]):
        values[:, c] = _minmax(raw[:, c])
    base = len(SCALAR_COLUMNS)
    for i, a in enumerate(nodes):
        h = hierarchy_class(g, clique, a)
        values[i, base + _HIERARCHY_ORDER.index(h)] = 1.0
        t = type_map.get(a, AsType.UNKNOWN)
        values[i, base + 3 + _TYPE_ORDER.index(t)] = 1.0

    return FeatureMatrix(
        values=values,
        raw=raw,
        nodes=nodes,
        index=index,
        columns=list(FEATURE_COLUMNS),
        clique=set(clique),
        diagnostics={
            "unreachable_clique_pairs": unreachable,
            "unobserved_nodes": unobserved,
        },
    )


def write_features_csv(fm: FeatureMatrix, out: str | Path) -> None:
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asn"] + fm.columns)
        for i, a in enumerate(fm.nodes):
            writer.writerow([a] + [repr(v) for v in fm.values[i]])
