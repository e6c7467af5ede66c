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

import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .ingest import (
    MAX_ASN,
    FieldError,
    IngestReport,
    PathStore,
    decode_array,
    encode_array,
    load_asn_map,
    load_asn_set,
    pack_pairs,
    pack_unordered_pairs,
    read_field,
    run_firsts,
    unpack_pairs,
    write_table,
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
    return np.flatnonzero(run_firsts(keys))


def distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values, sorting ``keys`` in place (np.unique
    without its bookkeeping or its first call's ``numpy.ma`` import)."""
    keys.sort()
    return keys[run_firsts(keys)]


class Csr(NamedTuple):
    """A sparse matrix in compressed sparse row form, in scipy's field
    order, so that ``scipy.sparse.csr_matrix(csr)`` views it: row i holds
    ``data[indptr[i]:indptr[i + 1]]`` at the columns ``indices[...]``,
    each row's columns sorted.  Index arrays are int32 where the values
    fit, as scipy stores them."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def of(cls, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> "Csr":
        """The matrix of these arrays, its index arrays in the dtype scipy
        gives them: int32 where the entry and row counts fit."""
        fits = max(len(data), len(indptr)) <= np.iinfo(np.int32).max
        index = np.int32 if fits else np.int64
        return cls(data, indices.astype(index, copy=False), indptr.astype(index, copy=False))

    def astype(self, dtype, copy: bool = True) -> "Csr":
        """This matrix with its values in ``dtype``, sharing its index
        arrays; itself when ``copy`` is false and they already are."""
        if not copy and self.data.dtype == dtype:
            return self
        return self._replace(data=self.data.astype(dtype))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a dense vector or matrix.  Each row's terms
        are summed in entry order starting from 0.0, as scipy's
        ``csr_matvecs`` sums them, so it gives scipy's bits, signed zeros
        included.  It steps through the entries by their place in their
        row, longest rows first, so each step is a slice of rows."""
        x = np.asarray(x)
        cols = x.reshape(len(x), math.prod(x.shape[1:]))  # also when x has no row
        lengths = np.diff(self.indptr)
        order = np.argsort(-lengths, kind="stable")
        starts = self.indptr[:-1][order]
        # longer[t]: how many rows have more than t entries
        longer = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
        out = np.zeros((len(lengths), cols.shape[1]),
                       dtype=np.result_type(self.data, cols))
        for t, k in enumerate(longer.tolist()):
            at = starts[:k] + t
            out[:k] += self.data[at, None] * cols[self.indices[at]]
        product = np.empty_like(out)
        product[order] = out
        return product.reshape((len(lengths),) + x.shape[1:])


class AsGraph:
    """AS-level graph with observation metadata, held in read-only arrays.

    ``nodes`` is the sorted ASN array, and a node's position in it is
    its row everywhere: ``positions`` maps ASNs to rows.  ``indptr`` and
    ``indices`` are the CSR adjacency over rows, each row's neighbours
    sorted; ``edge_rows`` holds every edge as an ascending (row, row)
    pair, in sorted order, and CSR entry k belongs to edge ``edge_of[k]``.
    ``transit`` (transit degree) and ``vp`` hold per-node observations.
    Build it once, with ``build_graph`` or ``from_edges``.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        edges: np.ndarray,
        transit: np.ndarray | None = None,
        vp: VpArrays | None = None,
    ) -> None:
        n = len(nodes)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((cols, rows))
        self.nodes = nodes
        self.edge_rows = edges
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.indices = cols[order]
        self.edge_of = order % max(len(edges), 1)
        self.transit = np.zeros(n, dtype=np.int64) if transit is None else transit
        self.vp = VpArrays.unobserved(n) if vp is None else vp
        for array in (nodes, edges, self.indptr, self.indices, self.edge_of,
                      self.transit, *self.vp):
            array.flags.writeable = False

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
        asns = distinct(np.concatenate([pairs.ravel(), np.fromiter(nodes, np.int64)]))
        n = len(asns)
        pos = np.sort(np.searchsorted(asns, pairs), axis=1)
        keys = distinct(pos[:, 0] * n + pos[:, 1])
        return cls(asns, np.stack(np.divmod(keys, n), axis=1))

    # -- queries ------------------------------------------------------

    def _lookup(self, asns) -> tuple[np.ndarray, np.ndarray]:
        """Search positions of ``asns`` and which of them are nodes."""
        asns = np.asarray(asns, dtype=np.int64)
        pos = np.searchsorted(self.nodes, asns)
        if not len(self.nodes):
            return pos, np.zeros(asns.shape, dtype=bool)
        return pos, self.nodes[np.minimum(pos, len(self.nodes) - 1)] == asns

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
        """Which ASNs in ``asns`` (one ASN or an array of any shape) are
        nodes."""
        return self._lookup(asns)[1]

    def degrees(self) -> np.ndarray:
        """Degree of every node, in row order."""
        return np.diff(self.indptr)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edge_rows)

    def edge_matrix(self, values: np.ndarray) -> Csr:
        """Symmetric float64 matrix over node positions with the
        adjacency's structure, holding ``values[k]`` at both entries of
        edge k (``edge_rows`` order).  Zero values stay stored entries."""
        data = np.asarray(values, dtype=np.float64)[self.edge_of]
        return Csr.of(data, self.indices, self.indptr)

    def adjacency(self) -> Csr:
        """0/1 adjacency over node positions."""
        return self.edge_matrix(np.ones(self.num_edges))


def _step_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct ``pack_unordered_pairs`` keys of the steps a[i] ->
    b[i]; a step from an ASN to itself raises ValueError."""
    if np.any(a == b):
        raise ValueError("self-edge in a path")
    return distinct(pack_unordered_pairs(a, b))


def step_edges(paths: PathStore) -> np.ndarray:
    """The sorted distinct unordered pair keys (``pack_unordered_pairs``)
    of every step inside a path, gathered in batches of paths.  A step
    from an ASN to itself raises ValueError."""
    keys = [np.zeros(0, np.uint64)]
    for batch in paths.batches():
        step = batch.steps()
        keys.append(_step_keys(batch.hops[step], batch.hops[step + 1]))
    return distinct(np.concatenate(keys))


# bits set in each byte value, to count a packed bit matrix's rows
_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1, dtype=np.uint8)


def _bit_matrix(bits: np.ndarray, n: int, width: int) -> np.ndarray:
    """The (n, width) bit matrix, packed as ``np.packbits`` packs rows,
    with the flat bits ``bits`` set (bit ``8 * width * row + column``),
    which are sorted; a bit may repeat."""
    out = np.zeros(n * width, dtype=np.uint8)
    if len(bits):
        byte = bits >> 3
        starts = _run_starts(byte)
        masks = np.right_shift(np.uint8(0x80), (bits & 7).astype(np.uint8))
        out[byte[starts]] = np.bitwise_or.reduceat(masks, starts)
    return out.reshape(n, width)


def _or_columns(out: np.ndarray, rows: np.ndarray, bits: np.ndarray, cols: list[int]) -> None:
    """OR column j of the bit matrix ``bits`` into column ``cols[j]`` of
    ``out``'s rows ``rows``, both packed along rows."""
    if cols == list(range(len(cols))):
        # the same leading columns: whole bytes line up
        out[rows, :bits.shape[1]] |= bits
    else:
        # any other columns, such as a block's few VPs, one at a time
        for j, col in enumerate(cols):
            bit = bits[:, j // 8] >> np.uint8(7 - j % 8) & np.uint8(1)
            out[rows, col // 8] |= bit << np.uint8(7 - col % 8)


@dataclass
class GraphSummary:
    """What ``build_graph`` needs of a set of paths, in a form that
    merges: the union of two summaries is the summary of the union of
    their paths, so a paths file can be summarized in parts.

    Key arrays are sorted and distinct, each quantity packed with its
    node's ASN as (ASN << 32) | value; every ASN is below 2**32, so
    sorted keys group by node in ascending ASN order.  Which vantage
    points saw a node is one row of ``seen``, a bit matrix packed along
    rows as ``np.packbits`` packs them: bit j of row i is set when VP
    ``vps[j]`` begins a path through ``nodes[i]``, and the padding bits
    of the last byte are zero.  So the summary grows with nodes times
    VPs / 8 bytes, not with the (node, VP) pairs sighted.  The columns
    of two summaries of the same paths may differ in order, as ``merge``
    keeps VPs in order of arrival; ``build_graph`` reads row popcounts.
    """

    nodes: np.ndarray  # sorted distinct ASNs
    steps: np.ndarray  # pack_unordered_pairs key of every step
    transits: np.ndarray  # (hop, a neighbor on either side) of inner hops
    vps: np.ndarray  # distinct ASNs that begin a path, one per column
    seen: np.ndarray  # (node, VP) bit matrix, one row per node
    # per node: hops on it, and the sum/min/max of their VP distances
    count: np.ndarray
    total: np.ndarray
    low: np.ndarray
    high: np.ndarray

    @classmethod
    def of(cls, paths: PathStore) -> "GraphSummary":
        # each quantity is made distinct as soon as it is complete, so
        # the per-hop arrays of one do not wait for the others
        hops = paths.hops.view(np.uint64)  # ASNs are positive
        first = paths.offsets[:-1]
        path_of = np.repeat(
            np.arange(len(paths), dtype=np.int32), np.diff(paths.offsets)
        )
        # hops i and i+1 are adjacent when they belong to one path
        linked = path_of[1:] == path_of[:-1]
        steps = _step_keys(paths.hops[:-1][linked], paths.hops[1:][linked])

        # hop i+1 transits between hops i and i+2
        inner = linked[:-1] & linked[1:]
        del linked
        mid = hops[1:-1][inner] << 32
        transits = np.empty(2 * len(mid), dtype=np.uint64)
        np.bitwise_or(mid, hops[:-2][inner], out=transits[:len(mid)])
        np.bitwise_or(mid, hops[2:][inner], out=transits[len(mid):])
        del mid, inner
        transits = distinct(transits)

        # (node, hop distance from the path's VP) for every hop
        keys = np.arange(len(hops), dtype=np.uint64)
        keys -= first.view(np.uint64)[path_of]
        keys |= hops << 32
        keys.sort()
        starts = _run_starts(keys >> 32)
        count = np.diff(starts, append=len(keys))
        nodes = (keys[starts] >> 32).astype(np.int64)
        depth = (keys & _LOW32).view(np.int64)
        del keys
        running = np.concatenate([[0], np.cumsum(depth)])
        total = running[starts + count] - running[starts]
        del running

        # (node, column of its path's VP) for every hop, sorted: their
        # nodes are the nodes, so a node's row counts the nodes before it
        vps = distinct(paths.hops[first])
        sightings = hops << 32
        sightings |= np.searchsorted(vps, paths.hops[first]).astype(np.uint64)[path_of]
        del path_of
        sightings.sort()
        width = -(-len(vps) // 8)
        bits = np.cumsum(run_firsts(sightings >> 32))
        bits -= 1
        bits *= 8 * width
        bits += (sightings & _LOW32).view(np.int64)
        del sightings
        return cls(
            nodes=nodes,
            steps=steps,
            transits=transits,
            vps=vps,
            seen=_bit_matrix(bits, len(nodes), width),
            count=count,
            total=total,
            low=depth[starts],
            high=depth[starts + count - 1],
        )

    @classmethod
    def merge(cls, parts: list["GraphSummary"]) -> "GraphSummary":
        """The summary of every part's paths together.  Each VP keeps the
        column where it first arrives, so merged columns never move."""
        nodes = distinct(np.concatenate([p.nodes for p in parts]))
        column: dict[int, int] = {}
        for p in parts:
            for vp in p.vps.tolist():
                column.setdefault(vp, len(column))
        seen = np.zeros((len(nodes), -(-len(column) // 8)), dtype=np.uint8)
        count, total, high = (np.zeros(len(nodes), dtype=np.int64) for _ in range(3))
        low = np.full(len(nodes), np.iinfo(np.int64).max)
        for p in parts:
            at = np.searchsorted(nodes, p.nodes)  # distinct within a part
            _or_columns(seen, at, p.seen, [column[vp] for vp in p.vps.tolist()])
            count[at] += p.count
            total[at] += p.total
            low[at] = np.minimum(low[at], p.low)
            high[at] = np.maximum(high[at], p.high)
        return cls(
            nodes=nodes,
            steps=distinct(np.concatenate([p.steps for p in parts])),
            transits=distinct(np.concatenate([p.transits for p in parts])),
            vps=np.fromiter(column, np.int64, len(column)),
            seen=seen,
            count=count,
            total=total,
            low=low,
            high=high,
        )

    @classmethod
    def fold(cls, stores: Iterable[PathStore]) -> "GraphSummary":
        """The summary of every path in ``stores``.  Summaries of stores
        wait in a list until they hold four times as many bytes as the
        summary so far, and are merged into it then: after the graph
        stops growing each merge takes in four times its own size, so
        merging costs about as much as summarizing, and the list holds
        what the graph needs of a few blocks."""
        folded, pending, waiting = cls.of(PathStore.from_hops([])), [], 0
        for store in stores:
            pending.append(cls.of(store))
            waiting += pending[-1].nbytes
            if waiting >= 4 * folded.nbytes:
                folded, pending, waiting = cls.merge([folded, *pending]), [], 0
        return cls.merge([folded, *pending])

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, f.name).nbytes for f in fields(self))


def build_graph(paths: PathStore | GraphSummary) -> AsGraph:
    """The observed topology of sanitized paths, or of the summary
    ``ingest_file(path, table, GraphSummary)`` reads from a file."""
    summary = paths if isinstance(paths, GraphSummary) else GraphSummary.of(paths)
    nodes = summary.nodes
    edges = np.searchsorted(nodes, unpack_pairs(summary.steps))
    middles = (summary.transits >> 32).astype(np.int64)
    starts = _run_starts(middles)
    transit = np.zeros(len(nodes), dtype=np.int64)
    transit[np.searchsorted(nodes, middles[starts])] = np.diff(
        starts, append=len(middles)
    )
    observers = _POPCOUNT[summary.seen].sum(axis=1, dtype=np.int64)
    vp = VpArrays(summary.count, summary.total, summary.low, summary.high, observers)
    return AsGraph(nodes, edges, transit, vp)


def encode_graph(graph: AsGraph, report: IngestReport) -> dict:
    """The observed graph and the ingest counts of the paths it came
    from as one JSON object: the int64 arrays ``nodes``, ``edge_rows``
    and ``transit``, ``vp`` (the ``VpArrays`` stacked, one row each) and
    ``ingest``.  ``decode_graph`` reads it back."""
    arrays = {"nodes": graph.nodes, "edge_rows": graph.edge_rows,
              "transit": graph.transit, "vp": np.stack(graph.vp)}
    return {"ingest": asdict(report), **{k: encode_array(v.astype(np.int64, copy=False))
                                         for k, v in arrays.items()}}


def decode_graph(doc, path: str | Path, name: str) -> tuple[AsGraph, IngestReport]:
    """The graph and ingest counts ``encode_graph`` gave, which field
    ``name`` of ``doc``, the JSON document in the file ``path``, holds.
    A field that is missing, malformed or does not fit the node array is
    refused naming the file and the field."""
    read_field(doc, path, name, lambda v: isinstance(v, dict), "an object")
    nodes, edges, transit, vp = (decode_array(doc, path, f"{name}.{key}", ("int64",))
                                 for key in ("nodes", "edge_rows", "transit", "vp"))
    if nodes.ndim != 1 or (np.diff(nodes) <= 0).any() or (
            nodes.size and not 1 <= nodes[0] <= nodes[-1] <= MAX_ASN):
        raise FieldError(path, f"{name}.nodes", "increasing ASNs")
    n = len(nodes)
    # one row pair per edge, and one entry per node in each per-node row
    want = {"edge_rows": [*edges.shape[:1], 2], "transit": [n],
            "vp": [len(VpArrays.unobserved(0)), n]}
    for key, shape in want.items():
        read_field(doc, path, f"{name}.{key}.shape", lambda v: v == shape, str(shape))
    if edges.size and not 0 <= edges.min() <= edges.max() < n:
        raise FieldError(path, f"{name}.edge_rows", f"node rows in [0, {n})")
    if (edges[:, 0] >= edges[:, 1]).any() or (np.diff(edges[:, 0] * n + edges[:, 1]) <= 0).any():
        raise FieldError(path, f"{name}.edge_rows",
                         "distinct (a, b) rows, a < b, in sorted order")
    names = [f.name for f in fields(IngestReport)]
    counts = read_field(doc, path, f"{name}.ingest", lambda v: isinstance(v, dict) and sorted(
        v) == sorted(names) and all(type(c) is int and c >= 0 for c in v.values()),
        f"the counts {names}")
    return AsGraph(nodes, edges, transit, VpArrays(*vp)), IngestReport(**counts)


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
    ranked = np.lexsort((g.nodes, -g.degrees(), -g.transit))[:max(k_candidates, 1)]
    members = ranked[:1].tolist()
    for cand in ranked[1:].tolist():
        row = g.indices[g.indptr[cand]:g.indptr[cand + 1]]
        shared = np.intersect1d(members, row, assume_unique=True)  # CSR rows are distinct
        if g.transit[cand] and len(shared) == len(members):
            members.append(cand)
    return set(g.nodes[members].tolist())


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

    One BFS per member, all advanced a level at a time together: a
    node joins a member's next level when one of its neighbours is in
    that member's current level.  Only the integer sum of each node's
    hop counts is kept, so the sum is exact and the mean is the same
    in any order.
    """
    if not clique:
        raise ValueError("clique is empty")
    sources = g.positions(sorted(clique))
    k = len(sources)
    # reached[v, s]: member s has reached node v; frontier: at this level
    reached = np.zeros((g.num_nodes, k), dtype=bool)
    reached[sources, np.arange(k)] = True
    frontier = reached.copy()
    linked = np.flatnonzero(g.degrees())
    total = np.zeros(g.num_nodes, dtype=np.int64)
    level = 0
    while frontier.any():
        level += 1
        nxt = np.zeros_like(frontier)
        nxt[linked] = np.logical_or.reduceat(frontier[g.indices], g.indptr[linked], axis=0)
        frontier = nxt & ~reached
        reached |= frontier
        total += level * frontier.sum(axis=1)
    # the last level reached nothing: ``level`` is one hop more than the
    # longest finite distance
    missing = k - reached.sum(axis=1)
    total += missing * level
    return total / k, int(missing.sum())


# ``cnr_edge_weights`` looks up about this many neighbours at a time
_CNR_LOOKUPS = 1 << 16


def cnr_edge_weights(g: AsGraph) -> Csr:
    """Common-neighbor ratio of every edge, as ``g.edge_matrix``: the
    Jaccard overlap of the endpoints' neighborhoods without the
    endpoints themselves, 0 when that union is empty.

    Neither endpoint is its own neighbor, so the shared neighbors never
    include them, and the union without them has deg(a)-1 + deg(b)-1 -
    shared members.  Each neighbor of an edge's lower-degree endpoint
    is looked up in the other endpoint's row, by its (row, column) key
    among the sorted keys of every CSR entry.  Edges are taken in
    batches of about ``_CNR_LOOKUPS`` lookups, so the lookups' arrays
    stay small however many there are.
    """
    degree = g.degrees()
    keys = pack_pairs(np.repeat(np.arange(g.num_nodes), degree), g.indices)
    i, j = g.edge_rows.T
    low = np.where(degree[i] <= degree[j], i, j)
    high = i + j - low
    count = degree[low]
    cuts = np.searchsorted(np.cumsum(count), np.arange(_CNR_LOOKUPS, count.sum(), _CNR_LOOKUPS))
    shared = np.zeros(g.num_edges, dtype=np.int64)
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), g.num_edges]):
        c = count[lo:hi]
        edge = np.repeat(np.arange(lo, hi), c)
        entry = np.arange(len(edge)) + np.repeat(g.indptr[low[lo:hi]] - (np.cumsum(c) - c), c)
        query = pack_pairs(high[edge], g.indices[entry])
        found = keys[np.minimum(np.searchsorted(keys, query), len(keys) - 1)] == query
        shared[lo:hi] = np.bincount(edge[found] - lo, minlength=hi - lo)
    union = degree[i] + degree[j] - 2 - shared
    ratios = np.divide(shared, union, out=np.zeros(g.num_edges), where=union > 0)
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
# the dtype of the feature values, in which the model trains and predicts
FEATURE_DTYPE = np.float32

_TYPE_ORDER = [AsType.TRANSIT_ACCESS, AsType.CONTENT, AsType.ENTERPRISE, AsType.UNKNOWN]


@dataclass
class FeatureMatrix:
    """Normalized node features, one row per node of the graph's
    ``nodes`` array: ``values`` in FEATURE_DTYPE and the unscaled
    scalar columns ``raw`` in float64."""

    values: np.ndarray
    raw: np.ndarray
    nodes: np.ndarray
    columns: list[str]
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
    Each column is scaled in float64 and cast to FEATURE_DTYPE once.
    """
    if g.num_nodes == 0:
        raise ValueError("empty graph")
    n = g.num_nodes
    dclique, unreachable = clique_distances(g, clique)
    vp = g.vp
    observed = vp.count > 0
    raw = np.zeros((n, len(SCALAR_COLUMNS)), dtype=np.float64)
    raw[:, 0] = g.degrees()
    raw[:, 1] = g.transit
    raw[:, 2] = dclique
    np.divide(vp.total, vp.count, out=raw[:, 3], where=observed)
    raw[:, 4] = vp.low
    raw[:, 5] = vp.high
    raw[:, 6] = vp.observers
    unobserved = int(n - observed.sum())

    values = np.zeros((n, len(FEATURE_COLUMNS)), dtype=FEATURE_DTYPE)
    for c in range(raw.shape[1]):
        values[:, c] = _minmax(raw[:, c])
    rows = np.arange(n)
    tier = np.where(g.transit > 0, 1, 2)
    tier[g.positions(sorted(clique))] = 0
    values[rows, len(SCALAR_COLUMNS) + tier] = 1.0
    kind = np.full(n, _TYPE_ORDER.index(AsType.UNKNOWN))
    if type_map:
        asns = np.fromiter(type_map, np.int64, len(type_map))
        known = g.contains(asns)
        codes = np.array([_TYPE_ORDER.index(t) for t in type_map.values()])
        kind[g.positions(asns[known])] = codes[known]
    values[rows, len(SCALAR_COLUMNS) + len(HIERARCHY_COLUMNS) + kind] = 1.0

    return FeatureMatrix(
        values=values,
        raw=raw,
        nodes=g.nodes,
        columns=list(FEATURE_COLUMNS),
        diagnostics={
            "unreachable_clique_pairs": unreachable,
            "unobserved_nodes": unobserved,
        },
    )


def write_features_csv(fm: FeatureMatrix, out: str | Path) -> None:
    write_table(out, zip(fm.nodes.tolist(), *fm.values.T.tolist()), ["asn", *fm.columns])
