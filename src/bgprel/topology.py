"""Undirected AS topology built from observed paths, plus node features.

The graph records, per node, which vantage points observed it and at
what hop distances, and which neighbors it was seen transiting between.
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
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .ingest import AsPath


class UnknownNodeError(ValueError):
    pass


class NonEdgeError(ValueError):
    pass


def canonical_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class AsGraph:
    """AS-level graph with observation metadata.

    Build it once (from paths or an edge list) and treat it as
    read-only afterwards; all query methods are side-effect free.
    """

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self.edge_observers: dict[tuple[int, int], set[int]] = {}
        self.node_observers: dict[int, set[int]] = {}
        self.vp_distances: dict[int, list[int]] = {}
        self._transit: dict[int, set[int]] = {}
        self._diameter: int | None = None

    # -- construction -------------------------------------------------

    def add_node(self, a: int) -> None:
        if a not in self._adj:
            self._adj[a] = set()
            self._transit[a] = set()
            self.node_observers[a] = set()
            self.vp_distances[a] = []

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError(f"self-edge on AS{a}")
        self.add_node(a)
        self.add_node(b)
        self._adj[a].add(b)
        self._adj[b].add(a)
        self.edge_observers.setdefault(canonical_edge(a, b), set())

    def add_path(self, path: AsPath) -> None:
        """Fold one sanitized path into the graph."""
        hops = path.hops
        vp = hops[0]
        for i, h in enumerate(hops):
            self.add_node(h)
            self.node_observers[h].add(vp)
            self.vp_distances[h].append(i)
        for a, b in zip(hops, hops[1:]):
            self.add_edge(a, b)
            self.edge_observers[canonical_edge(a, b)].add(vp)
        for x, m, y in zip(hops, hops[1:], hops[2:]):
            self._transit[m].add(x)
            self._transit[m].add(y)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "AsGraph":
        g = cls()
        for a, b in edges:
            g.add_edge(a, b)
        return g

    # -- queries ------------------------------------------------------

    def __contains__(self, a: int) -> bool:
        return a in self._adj

    @property
    def nodes(self) -> set[int]:
        return set(self._adj)

    def sorted_nodes(self) -> list[int]:
        return sorted(self._adj)

    def _check(self, a: int) -> None:
        if a not in self._adj:
            raise UnknownNodeError(f"unknown AS{a}")

    def neighbors(self, a: int) -> set[int]:
        self._check(a)
        return set(self._adj[a])

    def degree(self, a: int) -> int:
        self._check(a)
        return len(self._adj[a])

    def transit_degree(self, a: int) -> int:
        self._check(a)
        return len(self._transit[a])

    def has_edge(self, a: int, b: int) -> bool:
        return a in self._adj and b in self._adj[a]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.edge_observers)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return len(self.edge_observers)

    def bfs_distances(self, src: int) -> dict[int, int]:
        self._check(src)
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def diameter(self) -> int:
        """Longest finite shortest-path distance over all node pairs."""
        if self._diameter is None:
            best = 0
            for src in self._adj:
                dist = self.bfs_distances(src)
                if dist:
                    best = max(best, max(dist.values()))
            self._diameter = best
        return self._diameter


def build_graph(paths: Iterable[AsPath]) -> AsGraph:
    """Assemble the observed topology from sanitized paths."""
    g = AsGraph()
    for p in paths:
        g.add_path(p)
    return g


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
    ranked = sorted(
        g.sorted_nodes(), key=lambda a: (-g.transit_degree(a), -g.degree(a), a)
    )
    members = [ranked[0]]
    for cand in ranked[1:k_candidates]:
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
    per_member = {m: g.bfs_distances(m) for m in sorted(clique)}
    unreachable = 0
    fallback: int | None = None
    means: dict[int, float] = {}
    n = len(clique)
    for node in g.sorted_nodes():
        total = 0.0
        for m, dist in per_member.items():
            d = dist.get(node)
            if d is None:
                if fallback is None:
                    fallback = g.diameter() + 1
                d = fallback
                unreachable += 1
            total += d
        means[node] = total / n
    return means, unreachable


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
    return {(a, b): common_neighbor_ratio(g, a, b) for a, b in g.edges()}


class VpStats(NamedTuple):
    mean: float
    min: int
    max: int
    assign_vp: int
    observed: bool


def vp_stats(g: AsGraph, a: int) -> VpStats:
    """Hop-distance statistics of a node relative to the vantage points
    that saw it; all-zero with observed=False for unseen nodes."""
    g._check(a)
    dists = g.vp_distances[a]
    if not dists:
        return VpStats(0.0, 0, 0, 0, False)
    return VpStats(
        sum(dists) / len(dists),
        min(dists),
        max(dists),
        len(g.node_observers[a]),
        True,
    )


class Hierarchy(Enum):
    NUCLEUS = "nucleus"
    MIDDLE = "middle"
    SHELL = "shell"


def hierarchy_class(g: AsGraph, clique: set[int], a: int) -> Hierarchy:
    g._check(a)
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
    raw = np.zeros((n, len(SCALAR_COLUMNS)), dtype=np.float64)
    unobserved = 0
    for i, a in enumerate(nodes):
        stats = vp_stats(g, a)
        if not stats.observed:
            unobserved += 1
        raw[i, 0] = g.degree(a)
        raw[i, 1] = g.transit_degree(a)
        raw[i, 2] = dclique[a]
        raw[i, 3] = stats.mean
        raw[i, 4] = stats.min
        raw[i, 5] = stats.max
        raw[i, 6] = stats.assign_vp

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
