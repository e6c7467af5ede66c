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
as a node column.  A node's position in the sorted node array is its
row everywhere: in the feature matrix, the adjacency and edge-weight
matrices, and the edge rows the classifier scores.
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

from .ingest import (
    PathStore,
    load_asn_map,
    load_asn_set,
    pack_unordered_pairs,
    unpack_pairs,
)


class UnknownNodeError(ValueError):
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

    Nodes are a sorted ASN array, and a node's position in it is its
    row everywhere: ``positions`` maps ASNs to rows, adjacency is CSR
    over those positions with sorted rows, and edges are pairs of
    positions.  Per-node arrays hold the transit degree and the VP
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
        order = np.lexsort((cols, rows))
        self._indices = cols[order]
        # CSR entry k belongs to edge _edge_of[k]
        self._edge_of = order % max(len(edges), 1)
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self._indptr[1:])
        self._transit = np.zeros(n, dtype=np.int64) if transit is None else transit
        self._vp = VpArrays.unobserved(n) if vp is None else vp

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

    def _lookup(self, asns) -> tuple[np.ndarray, np.ndarray]:
        """Search positions of ``asns`` and which of them are nodes."""
        asns = np.asarray(asns, dtype=np.int64)
        pos = np.searchsorted(self._nodes, asns)
        if not len(self._nodes):
            return pos, np.zeros(asns.shape, dtype=bool)
        return pos, self._nodes[np.minimum(pos, len(self._nodes) - 1)] == asns

    def positions(self, asns) -> np.ndarray:
        """Row of every ASN in ``asns`` (one ASN or an array of any
        shape); raises UnknownNodeError naming the first that is not a
        node."""
        pos, known = self._lookup(asns)
        if not known.all():
            first = np.asarray(asns, dtype=np.int64)[~known].flat[0]
            raise UnknownNodeError(f"AS{first} does not appear in the graph")
        return pos

    def contains(self, asns) -> np.ndarray:
        """Which ASNs in ``asns`` (an array of any shape) are nodes."""
        return self._lookup(asns)[1]

    def __contains__(self, a: int) -> bool:
        i = int(np.searchsorted(self._nodes, a))
        return i < len(self._nodes) and self._nodes[i] == a

    @property
    def nodes(self) -> set[int]:
        """A fresh set of every ASN; test membership with ``in graph``."""
        return set(self._nodes.tolist())

    def sorted_nodes(self) -> list[int]:
        return self._nodes.tolist()

    def node_array(self) -> np.ndarray:
        """Every ASN in row order, as an int64 array (a copy)."""
        return self._nodes.copy()

    def degrees(self) -> np.ndarray:
        """Degree of every node, in row order."""
        return np.diff(self._indptr)

    def _row(self, i: int) -> np.ndarray:
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def neighbors(self, a: int) -> set[int]:
        return set(self._nodes[self._row(self.positions(a))].tolist())

    def degree(self, a: int) -> int:
        return len(self._row(self.positions(a)))

    def transit_degree(self, a: int) -> int:
        return int(self._transit[self.positions(a)])

    def has_edge(self, a: int, b: int) -> bool:
        (i, j), known = self._lookup([a, b])
        if not known.all():
            return False
        row = self._row(i)
        k = int(np.searchsorted(row, j))
        return k < len(row) and row[k] == j

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self._nodes[self._edges[:, 0]].tolist(),
                        self._nodes[self._edges[:, 1]].tolist()))

    def edge_positions(self) -> np.ndarray:
        """Every edge as a (row, row) pair, in ``edges()`` order."""
        return self._edges.copy()

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edge_matrix(self, values: np.ndarray) -> sp.csr_matrix:
        """Symmetric CSR matrix over node positions with the adjacency's
        structure, holding ``values[k]`` at both entries of edge k
        (``edges()`` order).  Zero values stay stored entries."""
        n = self.num_nodes
        data = np.asarray(values, dtype=np.float64)[self._edge_of]
        return sp.csr_matrix(
            (data, self._indices, self._indptr), shape=(n, n), copy=True
        )

    def adjacency(self) -> sp.csr_matrix:
        """0/1 adjacency over node positions."""
        return self.edge_matrix(np.ones(self.num_edges))

    def _hop_distances(self, sources: np.ndarray) -> np.ndarray:
        """BFS hop counts from each source position to every node, one
        row per source; unreachable nodes read inf."""
        return csgraph.shortest_path(
            self.adjacency(), method="D", unweighted=True, indices=sources
        ).reshape(len(sources), self.num_nodes)


def step_edges(paths: PathStore) -> np.ndarray:
    """The sorted distinct unordered pair keys (``pack_unordered_pairs``)
    of every step inside a path, gathered in batches of paths.  A step
    from an ASN to itself raises ValueError."""
    keys = []
    for batch in paths.batches():
        step = batch.steps()
        a, b = batch.hops[step], batch.hops[step + 1]
        if np.any(a == b):
            raise ValueError("self-edge in a path")
        keys.append(_distinct(pack_unordered_pairs(a, b)))
    return _distinct(np.concatenate([np.zeros(0, np.uint64), *keys]))


def build_graph(paths: PathStore) -> AsGraph:
    """Assemble the observed topology from sanitized paths.

    Each per-hop quantity is packed with its node's ASN into one 64-bit
    key, (ASN << 32) | value, and sorted; every ASN is below 2**32, so
    sorted keys group by node in ascending ASN order.
    """
    nodes = _distinct(paths.hops.copy())
    n = len(nodes)
    edges = np.searchsorted(nodes, unpack_pairs(step_edges(paths)))

    hops = paths.hops.view(np.uint64)  # ASNs are positive
    path_of = np.repeat(
        np.arange(len(paths), dtype=np.int32), np.diff(paths.offsets)
    )
    # hops i and i+1 are adjacent when they belong to one path
    linked = path_of[1:] == path_of[:-1]

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

CLIQUE_CANDIDATES = 20  # one count for every command, so all build the same clique


def infer_clique(g: AsGraph, k_candidates: int = CLIQUE_CANDIDATES) -> set[int]:
    """Greedy top-clique discovery.

    Nodes are ranked by transit degree (degree, then ASN break ties).
    The top node seeds the clique; each of the next k_candidates-1
    ranked nodes joins iff adjacent to every member so far.  Nodes that
    transit nothing are never candidates beyond the seed.
    """
    if g.num_nodes == 0:
        raise ValueError("cannot infer a clique on an empty graph")
    order = np.lexsort((g._nodes, -g.degrees(), -g._transit))
    ranked = g._nodes[order[:max(k_candidates, 1)]].tolist()
    members = [ranked[0]]
    for cand in ranked[1:]:
        if g.transit_degree(cand) == 0:
            continue
        if all(g.has_edge(cand, m) for m in members):
            members.append(cand)
    return set(members)


def load_clique_file(path: str | Path) -> set[int]:
    if not (clique := load_asn_set(path)):
        raise ValueError(f"clique file is empty: {path}")
    return clique


# -- per-node statistics ----------------------------------------------


def clique_distances(g: AsGraph, clique: set[int]) -> tuple[np.ndarray, int]:
    """Mean BFS distance from every node, in row order, to the clique
    members.

    A (node, member) pair with no path counts one hop more than the
    longest finite distance from any member; the second return value
    counts those pairs so callers can surface the anomaly.
    """
    if not clique:
        raise ValueError("clique is empty")
    dist = g._hop_distances(g.positions(sorted(clique)))
    missing = ~np.isfinite(dist)
    unreachable = int(missing.sum())
    if unreachable:
        dist[missing] = dist[~missing].max() + 1
    # integer hop counts, so the sum is exact in any order
    return dist.sum(axis=0) / len(dist), unreachable


def cnr_edge_weights(g: AsGraph) -> sp.csr_matrix:
    """Common-neighbor ratio of every edge, as ``g.edge_matrix``: the
    Jaccard overlap of the endpoints' neighborhoods without the
    endpoints themselves, 0 when that union is empty.

    Neither endpoint is its own neighbor, so the shared neighbors never
    include them, and the union without them has deg(a)-1 + deg(b)-1 -
    shared members.
    """
    bounds = g._indptr.tolist()
    rows = [set(g._indices[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    degree = g.degrees().tolist()
    ratios = np.zeros(g.num_edges)
    for k, (i, j) in enumerate(g._edges.tolist()):
        shared = len(rows[i] & rows[j])
        union = degree[i] + degree[j] - 2 - shared
        if union:
            ratios[k] = shared / union
    return g.edge_matrix(ratios)


class AsType(Enum):
    TRANSIT_ACCESS = "transit_access"
    CONTENT = "content"
    ENTERPRISE = "enterprise"
    UNKNOWN = "unknown"


def load_type_map(path: str | Path) -> dict[int, AsType]:
    """Read an ``asn,type`` file (see ``ingest.load_asn_map``)."""
    names = load_asn_map(path, "type", {t.value for t in AsType})
    return {asn: AsType(name) for asn, name in names.items()}


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
# nucleus: clique members; middle: transits something; shell: the rest
HIERARCHY_COLUMNS = ["hierarchy_nucleus", "hierarchy_middle", "hierarchy_shell"]
TYPE_COLUMNS = ["type_transit_access", "type_content", "type_enterprise", "type_unknown"]
FEATURE_COLUMNS = SCALAR_COLUMNS + HIERARCHY_COLUMNS + TYPE_COLUMNS

_TYPE_ORDER = [AsType.TRANSIT_ACCESS, AsType.CONTENT, AsType.ENTERPRISE, AsType.UNKNOWN]


@dataclass
class FeatureMatrix:
    """Normalized node features in ascending-ASN row order."""

    values: np.ndarray
    raw: np.ndarray
    nodes: list[int]
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
    nodes = g.sorted_nodes()
    n = len(nodes)

    dclique, unreachable = clique_distances(g, clique)
    vp = g._vp
    observed = vp.count > 0
    raw = np.zeros((n, len(SCALAR_COLUMNS)), dtype=np.float64)
    raw[:, 0] = g.degrees()
    raw[:, 1] = g._transit
    raw[:, 2] = dclique
    np.divide(vp.total, vp.count, out=raw[:, 3], where=observed)
    raw[:, 4] = vp.low
    raw[:, 5] = vp.high
    raw[:, 6] = vp.observers
    unobserved = int(n - observed.sum())

    values = np.zeros((n, len(FEATURE_COLUMNS)), dtype=np.float64)
    for c in range(raw.shape[1]):
        values[:, c] = _minmax(raw[:, c])
    rows = np.arange(n)
    tier = np.where(g._transit > 0, 1, 2)
    tier[g.positions(sorted(clique))] = 0
    values[rows, len(SCALAR_COLUMNS) + tier] = 1.0
    kind = np.full(n, _TYPE_ORDER.index(AsType.UNKNOWN))
    if type_map:
        pos, known = g._lookup(np.fromiter(type_map, np.int64, len(type_map)))
        codes = np.array([_TYPE_ORDER.index(t) for t in type_map.values()])
        kind[pos[known]] = codes[known]
    values[rows, len(SCALAR_COLUMNS) + len(HIERARCHY_COLUMNS) + kind] = 1.0

    return FeatureMatrix(
        values=values,
        raw=raw,
        nodes=nodes,
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
