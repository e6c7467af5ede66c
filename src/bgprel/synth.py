"""Synthetic AS topologies with known relationships, for end-to-end
exercise of the inference pipeline.

The generator plants a full tier-1 peering mesh, a provider hierarchy
of mid-tier and stub networks, sibling groups owned by shared
organizations, and IXP route servers peering with random members.
Route propagation follows the standard export policy: a route learned
from a provider or a peer is announced only to customers, while routes
learned from customers (or owned) go to everyone; sibling links are
transparent and relay a route without changing how it may be exported
next.  Every emitted path therefore climbs through providers, crosses
at most one peering link, and descends through customers:

    [up or sibling]* [peer]{0,1} [down or sibling]*

which ``policy_violations`` checks over a whole path store.

Route tables come from a layered BFS over (node, phase) states on the
CSR adjacency of the planted links' ``LabelTable`` (``RouteGraph.routes``),
and the simulation, the policy check and the export keep every path in
one ``PathStore``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .dataset import MULTI_CLASSES, LabelTable, RelLabel
from .ingest import (
    PathStore,
    pack_pairs,
    pack_unordered_pairs,
    unpack_pairs,
    write_paths_file,
    write_table,
)
from .topology import AsGraph, AsType, canonical_edge, distinct, step_edges

# wiring knobs that are not worth per-run configuration
_ORG_GROUP_SIZES = (2, 3, 3)  # drawn uniformly
_PURE_SIBLING_SHARE = 0.85  # groups whose members uplink only via the head
_PEER_EDGE_FACTOR = 1.0  # mid-mid peering edges per mid node
_IXP_MEMBER_RANGE = (5, 20)
_IXP_CORE_SHARE = 0.6  # membership drawn from the exchange-dense core
_STUB_EXTRA_PROVIDER_SHARE = 0.5  # chance of a 2nd/3rd provider per stub
_STUB_TIER1_SHARE = 0.25  # stubs occasionally buy straight from a tier-1


def _peering_core(mids: list[int]) -> list[int]:
    """The oldest quarter of the mid tier: where exchanges concentrate
    and where route collectors get their feeds."""
    return mids[: max(1, len(mids) // 4)] if mids else []


@dataclass(frozen=True)
class SynthConfig:
    n_tier1: int = 8
    n_mid: int = 500
    n_stub: int = 800
    n_ixp: int = 30
    n_orgs: int = 100
    n_vps: int = 70
    paths_per_vp: int = 1500
    seed: int = 7

    def __post_init__(self):
        if self.n_tier1 < 1:
            raise ValueError("need at least one tier-1 network")
        for name in ("n_mid", "n_stub", "n_ixp", "n_orgs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.n_vps < 1 or self.paths_per_vp < 1:
            raise ValueError("need at least one vantage point and one path")
        if self.n_vps > self.total_nodes:
            raise ValueError("more vantage points than nodes")
        if self.seed < 0:  # random.Random would take its absolute value
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def total_nodes(self) -> int:
        return self.n_tier1 + self.n_mid + self.n_stub + self.n_ixp


@dataclass
class GroundTruth:
    """Planted relationships plus per-node metadata.  ``links`` maps each
    planted link's ascending pair, in planting order, to its endpoints in
    storage orientation (provider first for p2c) and its label."""

    links: dict[tuple[int, int], tuple[int, int, RelLabel]] = field(default_factory=dict)
    tier: dict[int, str] = field(default_factory=dict)
    org: dict[int, str] = field(default_factory=dict)
    ixps: set[int] = field(default_factory=set)
    types: dict[int, AsType] = field(default_factory=dict)

    def add(self, a: int, b: int, label: RelLabel):
        """Plant the link a-b; a p2c link names its provider first."""
        key = canonical_edge(a, b)
        if key in self.links:
            raise ValueError(f"edge {key} planted twice")
        self.links[key] = (a, b, label) if label is RelLabel.P2C else (*key, label)
        self.__dict__.pop("route_graph", None)

    @cached_property
    def route_graph(self) -> "RouteGraph":
        """The planted graph synth's stages share, built from the table of
        the links in pair order; built once, dropped by ``add``."""
        # the links are in storage orientation already: no from_rows pass
        a, b, label = zip(*self.links.values()) if self.links else ((),) * 3
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        label = np.array(list(map(MULTI_CLASSES.index, label)), dtype=np.intp)
        order = np.argsort(pack_unordered_pairs(a, b))
        blank = np.full(len(order), "")
        links = LabelTable(a[order], b[order], label[order], blank, blank)
        return RouteGraph(links, self.tier)


def generate(config: SynthConfig) -> GroundTruth:
    """Plant the ground topology; deterministic for a given config."""
    rng = random.Random(config.seed)
    truth = GroundTruth()
    next_asn = 1

    def take(n: int, tier: str) -> list[int]:
        nonlocal next_asn
        out = list(range(next_asn, next_asn + n))
        next_asn += n
        for a in out:
            truth.tier[a] = tier
        return out

    tier1 = take(config.n_tier1, "tier1")
    mids = take(config.n_mid, "mid")
    stubs = take(config.n_stub, "stub")
    ixps = take(config.n_ixp, "ixp")
    truth.ixps = set(ixps)

    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            truth.add(a, b, RelLabel.P2P)

    # sibling groups drawn from the mid tier; the head member carries the
    # group's upstream connectivity so sibling links actually see transit
    head_of: dict[int, int] = {}
    group_pure: dict[str, bool] = {}
    org_members: dict[str, list[int]] = {}
    pool = list(mids)
    rng.shuffle(pool)
    taken = 0
    for gi in range(config.n_orgs):
        size = rng.choice(_ORG_GROUP_SIZES)
        if taken + size > len(pool):
            break
        members = sorted(pool[taken : taken + size])
        taken += size
        org_id = f"org{gi:04d}"
        group_pure[org_id] = rng.random() < _PURE_SIBLING_SHARE
        head = members[0]
        org_members[org_id] = members
        for m in members:
            truth.org[m] = org_id
        for m in members[1:]:
            head_of[m] = head
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                truth.add(a, b, RelLabel.S2S)

    # mid i's provider pool is tier1 + mids[:i] without its own org (and
    # without ``skip``); it is drawn from by position, so never built
    ranked = tier1 + mids
    rank = {a: r for r, a in enumerate(ranked)}

    def provider_pool(i: int, me: int, skip: tuple[int, ...] = ()):
        """The pool's size, and a map from a position in it to its ASN."""
        mine = org_members.get(truth.org.get(me), [])
        gone = sorted(r for r in map(rank.get, [*mine, *skip]) if r < len(tier1) + i)

        def at(j: int) -> int:
            for r in gone:
                j += r <= j
            return ranked[j]

        return len(tier1) + i - len(gone), at

    # deal tier-1 transit contracts from a reshuffled deck so customer
    # counts stay balanced across the mesh
    deck: list[int] = []

    def next_tier1() -> int:
        if not deck:
            deck.extend(tier1)
            rng.shuffle(deck)
        return deck.pop()

    for i, m in enumerate(mids):
        if m in head_of:
            # upstream flows through the sibling head; mixed groups keep
            # one ordinary provider of their own
            if not group_pure[truth.org[m]]:
                n_pool, at = provider_pool(i, m)
                if n_pool:
                    p = at(rng.choice(range(n_pool)))
                    truth.add(p, m, RelLabel.P2C)
            continue
        # one tier-1 contract each, plus up to two regional upstreams,
        # so the planted mesh stays the transit core
        t = next_tier1()
        truth.add(t, m, RelLabel.P2C)
        n_pool, at = provider_pool(i, m, skip=(t,))
        k = min(rng.randint(0, 2), n_pool)
        for j in rng.sample(range(n_pool), k):
            p = at(j)
            truth.add(p, m, RelLabel.P2C)

    stub_pool = mids if mids else tier1
    for s in stubs:
        k = 1
        while k < 3 and rng.random() < _STUB_EXTRA_PROVIDER_SHARE:
            k += 1
        providers = rng.sample(stub_pool, min(k, len(stub_pool)))
        if mids and rng.random() < _STUB_TIER1_SHARE:
            t = rng.choice(tier1)
            if t not in providers:
                providers.append(t)
        for p in providers:
            truth.add(p, s, RelLabel.P2C)

    # open peering happens between networks that run their own transit;
    # a subsidiary whose only upstream is its sibling head does not
    peer_pool = [
        m for m in mids
        if m not in head_of or not group_pure[truth.org[m]]
    ]
    n_peer = int(_PEER_EDGE_FACTOR * len(mids))
    for _ in range(n_peer):
        if len(peer_pool) < 2:
            break
        a, b = rng.sample(peer_pool, 2)
        key = canonical_edge(a, b)
        if key in truth.links:
            continue
        if truth.org.get(a) is not None and truth.org.get(a) == truth.org.get(b):
            continue
        truth.add(a, b, RelLabel.P2P)

    member_pool = mids + stubs
    core = _peering_core(mids)
    for x in ixps:
        if not member_pool:
            break
        k = min(rng.randint(*_IXP_MEMBER_RANGE), len(member_pool))
        n_core = min(int(round(k * _IXP_CORE_SHARE)), len(core))
        members = set(rng.sample(core, n_core))
        while len(members) < k:
            members.add(rng.choice(member_pool))
        for m in sorted(members):
            truth.add(m, x, RelLabel.X2X)

    # same organization, same registered business type
    org_types: dict[str, AsType] = {}
    for a in tier1:
        truth.types[a] = AsType.TRANSIT_ACCESS
    for m in mids:
        org_id = truth.org.get(m)
        if org_id is not None:
            if org_id not in org_types:
                org_types[org_id] = (
                    AsType.CONTENT if rng.random() < 0.5 else AsType.TRANSIT_ACCESS
                )
            truth.types[m] = org_types[org_id]
        else:
            truth.types[m] = (
                AsType.TRANSIT_ACCESS if rng.random() < 0.8 else AsType.CONTENT
            )
    for s in stubs:
        roll = rng.random()
        truth.types[s] = (
            AsType.ENTERPRISE
            if roll < 0.5
            else AsType.CONTENT
            if roll < 0.8
            else AsType.UNKNOWN
        )
    for x in ixps:
        truth.types[x] = AsType.UNKNOWN

    return truth


# -- route propagation ---------------------------------------------------

# what a hop m -> w is, seen from m
_SIBLING, _PEER, _CLIMB, _DESCEND = 0, 1, 2, 3
# the step kinds of a -> b and of b -> a for a stored link (a, b), by its
# class index: p2p, p2c (a is b's provider), s2s, x2x
_LINK_STEPS = np.array([[_PEER, _PEER], [_DESCEND, _CLIMB], [_SIBLING, _SIBLING],
                        [_PEER, _PEER]], dtype=np.int64)
_UP, _DOWN = 0, 1
# the walk phase after a step, per (step kind, phase); -1 bars the step
_NEXT_PHASE = np.array(
    [
        [_UP, _DOWN],  # sibling links are transparent
        [_DOWN, -1],  # one peering or exchange link, at the top
        [_UP, -1],  # into a provider, only while climbing
        [_DOWN, _DOWN],  # into a customer
    ],
    dtype=np.int64,
)


class RouteGraph:
    """The ``AsGraph`` adjacency of a ``links`` table (kept as given) and
    of ``nodes``, which may name nodes no link touches: CSR over sorted
    node positions, every row's neighbours in ASN order, plus each CSR
    entry's step kind (sibling, peer, climb into a provider, descent into
    a customer) and its directed hop as an ASN pair key."""

    def __init__(self, links: LabelTable, nodes: Iterable[int]):
        graph = AsGraph.from_edges(links.pairs(), nodes=nodes)
        self.links = links
        self.nodes, self.indptr, self.indices = graph.nodes, graph.indptr, graph.indices
        # rows and their neighbours are in ASN order, so the CSR entries
        # run in the order of their directed hops' keys
        keys = np.concatenate([pack_pairs(links.a, links.b), pack_pairs(links.b, links.a)])
        order = np.argsort(keys)
        self.keys = keys[order]
        self.kind = _LINK_STEPS[links.label].T.ravel()[order]

    def step_kinds(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The step kind of every hop a[i] -> b[i], and which hops are
        planted edges; an unplanted hop reads as a sibling step."""
        key = pack_pairs(a, b)
        if not len(self.keys):
            return np.full(len(key), _SIBLING), np.zeros(len(key), dtype=bool)
        k = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        planted = self.keys[k] == key
        return np.where(planted, self.kind[k], _SIBLING), planted

    def routes(self, vp: int) -> "RouteTable":
        """Every node's best route from the node at position ``vp``: the
        fewest hops, ties broken by the lexicographically smallest hop
        sequence.

        The walk runs over (node, phase) states one BFS layer at a
        time.  A layer's candidate steps come in (parent rank, neighbour
        ASN) order, and each state takes its first candidate; the
        winners' order is the next layer's rank.  So the ranks of a
        layer are the lexicographic order of its states' paths.  A step
        is dropped when the policy bars it, when it returns to the
        vantage point, when its state was reached in an earlier layer,
        and when its node is already on the parent's path, which a walk
        can otherwise reach in its other phase (up to a provider, across
        a peer, and down again).  A node's route is the path of its
        first state.
        """
        n = len(self.nodes)
        seen = np.zeros(2 * n, dtype=bool)
        seen[2 * vp + _UP] = True
        layer_of = np.full(n, -1, dtype=np.int64)
        row_of = np.zeros(n, dtype=np.int64)
        layer_of[vp] = 0
        node = np.array([vp], dtype=np.int64)
        phase = np.array([_UP], dtype=np.int64)
        # one row per state of the layer: its path after the vantage point
        path = np.empty((1, 0), dtype=np.int64)
        paths = [path]
        while len(node):
            start = self.indptr[node]
            deg = self.indptr[node + 1] - start
            parent = np.repeat(np.arange(len(node)), deg)
            entry = np.arange(len(parent)) + np.repeat(start - (np.cumsum(deg) - deg), deg)
            w = self.indices[entry]
            nxt = _NEXT_PHASE[self.kind[entry], phase[parent]]
            state = 2 * w + nxt
            keep = np.flatnonzero((nxt >= 0) & (w != vp) & ~seen[state])
            looped = (path[parent[keep]] == w[keep, None]).any(axis=1)
            keep = keep[~looped]
            _, first = np.unique(state[keep], return_index=True)
            win = keep[np.sort(first)]
            node, phase = w[win], nxt[win]
            seen[state[win]] = True
            path = np.concatenate([path[parent[win]], node[:, None]], axis=1)
            paths.append(path)
            new = np.flatnonzero(layer_of[node] < 0)
            _, first = np.unique(node[new], return_index=True)
            new = new[first]
            layer_of[node[new]] = len(paths) - 1
            row_of[node[new]] = new
        return RouteTable(vp, layer_of, row_of, paths)


class RouteTable(NamedTuple):
    """One vantage point's routes: node ``i``'s path after the vantage
    point is ``paths[layer[i]][row[i]]`` (node positions); ``layer`` is
    -1 where no route exists."""

    vp: int
    layer: np.ndarray
    row: np.ndarray
    paths: list[np.ndarray]

    def gather(self, dests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The routes to the reachable ``dests``, in order, as flat node
        positions (vantage point first) and hop counts."""
        layer = self.layer[dests]
        dests = dests[layer >= 0]
        lengths = layer[layer >= 0] + 1
        ends = np.cumsum(lengths)
        hops = np.empty(lengths.sum(), dtype=np.int64)
        hops[ends - lengths] = self.vp
        for d in distinct(lengths - 1).tolist():
            sel = np.flatnonzero(lengths == d + 1)
            tails = self.paths[d][self.row[dests[sel]]]
            hops[(ends[sel] - d)[:, None] + np.arange(d)] = tails
        return hops, lengths


@dataclass
class SimulationStats:
    vantage_points: list[int]
    emitted: int = 0
    unreachable: int = 0


def simulate_paths(
    truth: GroundTruth, config: SynthConfig
) -> tuple[PathStore, SimulationStats]:
    """Emit each vantage point's best path to sampled destinations."""
    rng = random.Random(config.seed + 1_000_003)
    graph = truth.route_graph
    if len(graph.nodes) != len(truth.tier):
        raise ValueError("a planted edge touches an AS with no tier")
    nodes = graph.nodes.tolist()

    # collectors sit at exchange-dense transit networks, the way real
    # feeds do
    mids = [a for a in nodes if truth.tier[a] == "mid"]
    vp_pool = _peering_core(mids) or nodes
    vps = rng.sample(vp_pool, min(config.n_vps, len(vp_pool)))
    stats = SimulationStats(vantage_points=list(vps))
    hops, lengths = [], []
    k = min(config.paths_per_vp, len(nodes) - 1)
    for vp in vps:
        at = nodes.index(vp)
        table = graph.routes(at)
        # the same draws as sampling the node list without the vantage point
        dests = np.array(rng.sample(range(len(nodes) - 1), k), dtype=np.int64)
        dests += dests >= at
        vp_hops, vp_lengths = table.gather(dests)
        hops.append(graph.nodes[vp_hops])
        lengths.append(vp_lengths)
        stats.emitted += len(vp_lengths)
        stats.unreachable += k - len(vp_lengths)
    offsets = np.cumsum(np.concatenate([[0], *lengths]))
    return PathStore(np.concatenate([np.zeros(0, np.int64), *hops]), offsets), stats


# -- validation ------------------------------------------------------------


def policy_violations(graph: RouteGraph, paths: PathStore) -> np.ndarray:
    """Which paths break the export policy of ``graph``'s links, as a
    boolean mask: a hop over a link it lacks, or a climb or peering step
    after the path has crossed a peering link or descended into a
    customer.  Checked in batches of paths."""
    out = [np.zeros(0, dtype=bool)]
    for batch in paths.batches():
        n_paths = len(batch)
        step = batch.steps()
        path_of = np.repeat(np.arange(n_paths), np.diff(batch.offsets) - 1)
        kind, planted = graph.step_kinds(batch.hops[step], batch.hops[step + 1])
        i = np.arange(len(step))
        first_down = np.full(n_paths, len(step))
        down = (kind == _PEER) | (kind == _DESCEND)
        np.minimum.at(first_down, path_of[down], i[down])
        last_up = np.full(n_paths, -1)
        up = (kind == _PEER) | (kind == _CLIMB)
        np.maximum.at(last_up, path_of[up], i[up])
        bad = last_up > first_down
        bad[path_of[~planted]] = True
        out.append(bad)
    return np.concatenate(out)


def p2c_is_acyclic(graph: RouteGraph) -> bool:
    """No provider chain of ``graph``'s links leads back to where it began.

    Peels the hierarchy from the top: each round removes every AS whose
    providers have all been removed (at first, those with none).  An AS
    on a cycle, or below one, never loses its last provider, so the
    hierarchy is acyclic exactly when every AS is peeled.
    """
    n = len(graph.nodes)
    down = np.flatnonzero(graph.kind == _DESCEND)
    provider = np.searchsorted(graph.indptr, down, side="right") - 1
    customer = graph.indices[down]
    peeled = np.zeros(n, dtype=bool)
    while True:
        held = np.bincount(customer[~peeled[provider]], minlength=n) > 0
        top = ~peeled & ~held
        if not top.any():
            return bool(peeled.all())
        peeled |= top


# -- export -----------------------------------------------------------------


def observed_edges(paths: PathStore) -> np.ndarray:
    """Every edge some path crosses, once, as ascending (lo, hi) rows in
    sorted order."""
    return unpack_pairs(step_edges(paths))


def _perturbed(rows, perturbation: float, rng: random.Random):
    """``rows`` of (a, b, code) calls with each flipped, peer <-> provider,
    with probability ``perturbation``; a peering call flips to a random
    provider side."""
    for a, b, code in rows:
        if rng.random() < perturbation:
            if code == 0:
                a, b = (a, b) if rng.random() < 0.5 else (b, a)
                code = -1
            else:
                a, b = min(a, b), max(a, b)
                code = 0
        yield a, b, code


def check_export_settings(n_sources: int, perturbation: float) -> None:
    """Refuse a bundle without label sources, or with a flip rate that
    is not a probability."""
    if n_sources < 1:
        raise ValueError(f"need at least one label source, got {n_sources}")
    if not 0.0 <= perturbation <= 1.0:
        raise ValueError(f"perturbation must lie in [0, 1], got {perturbation}")


def export(
    truth: GroundTruth,
    paths: PathStore,
    out_dir: str | Path,
    n_sources: int = 3,
    perturbation: float = 0.0,
    seed: int = 0,
) -> dict[str, Path]:
    """Write the full input bundle a real run would consume.

    Label sources cover every edge observed in the paths; perturbation
    flips that fraction of each source's calls (peer <-> provider with
    a random provider side) independently per source.
    """
    check_export_settings(n_sources, perturbation)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}

    files["paths"] = out_dir / "paths.txt"
    write_paths_file(paths, files["paths"])

    # the call a relationship-inference tool would emit for each observed
    # edge.  Tools in the a|b|code format only know peer (0) and provider
    # (-1) calls, so sibling links surface as provider links (lower ASN
    # first) and exchange links as peering: exactly the confusion the
    # org/IXP override passes exist to repair.
    graph = truth.route_graph
    edges = observed_edges(paths)
    lo, hi = edges.T
    kind, planted = graph.step_kinds(lo, hi)
    if not planted.all():
        raise KeyError(f"no planted edge {tuple(edges[~planted][0].tolist())}")
    climb = kind == _CLIMB  # hi is lo's provider
    base_rows = list(zip(np.where(climb, hi, lo).tolist(),
                         np.where(climb, lo, hi).tolist(),
                         np.where(kind == _PEER, 0, -1).tolist()))
    for s in range(1, n_sources + 1):
        key = f"labels_{s}"
        files[key] = out_dir / f"{key}.txt"
        rows = base_rows
        if perturbation > 0.0:
            rows = _perturbed(base_rows, perturbation, random.Random(seed * 7_919 + s))
        write_table(files[key], rows, sep="|")

    tier = sorted(truth.tier)
    files["orgs"] = out_dir / "orgs.csv"
    write_table(files["orgs"], ((a, truth.org.get(a, f"solo-as{a}")) for a in tier),
                ["asn", "org_id"])
    files["ixps"] = out_dir / "ixps.txt"
    write_table(files["ixps"], zip(sorted(truth.ixps)))
    files["types"] = out_dir / "types.csv"
    write_table(files["types"], ((a, truth.types[a].value) for a in tier), ["asn", "type"])
    files["truth"] = out_dir / "truth.csv"
    links = graph.links
    names = np.array([c.value for c in MULTI_CLASSES])[links.label]
    write_table(files["truth"], zip(links.a.tolist(), links.b.tolist(), names.tolist()),
                ["a", "b", "label"])
    return files
