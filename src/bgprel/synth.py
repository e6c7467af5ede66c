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

which the standalone ``is_valley_free`` checker verifies against the
ground-truth labels with a literal regular expression.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import RelLabel
from .ingest import AsPath, write_paths_file
from .topology import AsGraph, AsType, canonical_edge

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

    @property
    def total_nodes(self) -> int:
        return self.n_tier1 + self.n_mid + self.n_stub + self.n_ixp


@dataclass
class GroundTruth:
    """Planted relationships plus per-node metadata."""

    labels: dict[tuple[int, int], RelLabel] = field(default_factory=dict)
    providers: dict[tuple[int, int], int] = field(default_factory=dict)
    tier: dict[int, str] = field(default_factory=dict)
    org: dict[int, str] = field(default_factory=dict)
    ixps: set[int] = field(default_factory=set)
    types: dict[int, AsType] = field(default_factory=dict)

    def add(self, a: int, b: int, label: RelLabel, provider: int | None = None):
        key = canonical_edge(a, b)
        if key in self.labels:
            raise ValueError(f"edge {key} planted twice")
        self.labels[key] = label
        if label is RelLabel.P2C:
            if provider not in (a, b):
                raise ValueError("p2c edge needs its provider endpoint")
            self.providers[key] = provider

    def edge_label(self, a: int, b: int) -> tuple[RelLabel, int | None]:
        key = canonical_edge(a, b)
        label = self.labels.get(key)
        if label is None:
            raise KeyError(f"no planted edge {key}")
        return label, self.providers.get(key)

    def oriented(self, a: int, b: int) -> tuple[int, int, RelLabel]:
        """Storage orientation: provider first for p2c, ascending else."""
        label, provider = self.edge_label(a, b)
        lo, hi = canonical_edge(a, b)
        if label is RelLabel.P2C:
            return (provider, hi if provider == lo else lo, label)
        return (lo, hi, label)

    def p2c_pairs(self) -> list[tuple[int, int]]:
        out = []
        for key, label in self.labels.items():
            if label is RelLabel.P2C:
                p = self.providers[key]
                c = key[1] if key[0] == p else key[0]
                out.append((p, c))
        return out

    def counts(self) -> dict[RelLabel, int]:
        out = {label: 0 for label in RelLabel}
        for label in self.labels.values():
            out[label] += 1
        return out


def generate(config: SynthConfig) -> tuple[AsGraph, GroundTruth]:
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
        for m in members:
            truth.org[m] = org_id
        for m in members[1:]:
            head_of[m] = head
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                truth.add(a, b, RelLabel.S2S)

    def provider_pool(i: int, me: int) -> list[int]:
        mine = truth.org.get(me)
        return [
            p
            for p in tier1 + mids[:i]
            if mine is None or truth.org.get(p) != mine
        ]

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
                pool_i = provider_pool(i, m)
                if pool_i:
                    p = rng.choice(pool_i)
                    truth.add(p, m, RelLabel.P2C, provider=p)
            continue
        # one tier-1 contract each, plus up to two regional upstreams,
        # so the planted mesh stays the transit core
        t = next_tier1()
        truth.add(t, m, RelLabel.P2C, provider=t)
        pool_i = [p for p in provider_pool(i, m) if p != t]
        k = min(rng.randint(0, 2), len(pool_i))
        for p in rng.sample(pool_i, k):
            truth.add(p, m, RelLabel.P2C, provider=p)

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
            truth.add(p, s, RelLabel.P2C, provider=p)

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
        if key in truth.labels:
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

    return AsGraph.from_edges(truth.labels, nodes=truth.tier), truth


# -- route propagation ---------------------------------------------------

_UP, _DOWN = 0, 1


def _step(truth: GroundTruth, m: int, w: int, phase: int) -> int | None:
    """Next walk phase for hop m -> w, or None when the step is barred."""
    label, provider = truth.edge_label(m, w)
    if label is RelLabel.S2S:
        return phase
    if label in (RelLabel.P2P, RelLabel.X2X):
        return _DOWN if phase == _UP else None
    if provider == w:  # climbing into a provider
        return _UP if phase == _UP else None
    return _DOWN  # descending into a customer


def _best_routes(
    vp: int, adjacency: dict[int, list[int]], truth: GroundTruth
) -> dict[int, tuple[int, ...]]:
    """Cheapest policy-conforming path from one vantage point to every
    reachable node: fewest hops, ties broken by the lexicographically
    smallest hop sequence (so by the lowest next-hop ASN first)."""
    heap: list[tuple[int, tuple[int, ...], int, int]] = [(0, (), vp, _UP)]
    seen_state: set[tuple[int, int]] = set()
    best: dict[int, tuple[int, ...]] = {}
    while heap:
        dist, tail, node, phase = heapq.heappop(heap)
        if (node, phase) in seen_state:
            continue
        seen_state.add((node, phase))
        if node not in best:
            best[node] = tail
        for w in adjacency[node]:
            if w == vp or w in tail:
                continue
            nxt = _step(truth, node, w, phase)
            if nxt is None or (w, nxt) in seen_state:
                continue
            heapq.heappush(heap, (dist + 1, tail + (w,), w, nxt))
    return best


@dataclass
class SimulationStats:
    vantage_points: list[int]
    emitted: int = 0
    unreachable: int = 0


def simulate_paths(
    truth: GroundTruth, config: SynthConfig
) -> tuple[list[AsPath], SimulationStats]:
    """Emit each vantage point's best path to sampled destinations."""
    rng = random.Random(config.seed + 1_000_003)
    nodes = sorted(truth.tier)
    adjacency: dict[int, list[int]] = {a: [] for a in nodes}
    for a, b in truth.labels:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for a in adjacency:
        adjacency[a].sort()

    # collectors sit at exchange-dense transit networks, the way real
    # feeds do
    mids = sorted(a for a in nodes if truth.tier.get(a) == "mid")
    vp_pool = _peering_core(mids) or nodes
    vps = rng.sample(vp_pool, min(config.n_vps, len(vp_pool)))
    stats = SimulationStats(vantage_points=list(vps))
    paths: list[AsPath] = []
    for vp in vps:
        table = _best_routes(vp, adjacency, truth)
        others = [a for a in nodes if a != vp]
        dests = rng.sample(others, min(config.paths_per_vp, len(others)))
        for dest in dests:
            tail = table.get(dest)
            if tail is None:
                stats.unreachable += 1
                continue
            paths.append(AsPath((vp,) + tail))
            stats.emitted += 1
    return paths, stats


# -- validation ------------------------------------------------------------

_VALLEY_FREE = re.compile(r"[us]*p?[ds]*")


def is_valley_free(hops: tuple[int, ...], truth: GroundTruth) -> bool:
    """Check a path against the planted labels with the literal pattern
    [C2P|S2S]* [P2P]? [P2C|S2S]* (exchange links count as peering)."""
    steps = []
    for m, w in zip(hops, hops[1:]):
        try:
            label, provider = truth.edge_label(m, w)
        except KeyError:
            return False
        if label is RelLabel.S2S:
            steps.append("s")
        elif label in (RelLabel.P2P, RelLabel.X2X):
            steps.append("p")
        else:
            steps.append("u" if provider == w else "d")
    return _VALLEY_FREE.fullmatch("".join(steps)) is not None


def p2c_is_acyclic(truth: GroundTruth) -> bool:
    """Kahn's algorithm over the provider->customer digraph."""
    out_edges: dict[int, list[int]] = {}
    indeg: dict[int, int] = {}
    for p, c in truth.p2c_pairs():
        out_edges.setdefault(p, []).append(c)
        indeg[c] = indeg.get(c, 0) + 1
        indeg.setdefault(p, indeg.get(p, 0))
    queue = [n for n, d in indeg.items() if d == 0]
    removed = 0
    while queue:
        n = queue.pop()
        removed += 1
        for c in out_edges.get(n, ()):
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return removed == len(indeg)


# -- export -----------------------------------------------------------------


def observed_edges(paths: list[AsPath]) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for p in paths:
        for a, b in zip(p.hops, p.hops[1:]):
            out.add(canonical_edge(a, b))
    return out


def _source_row(truth: GroundTruth, edge: tuple[int, int]) -> tuple[int, int, int]:
    """The call a relationship-inference tool would emit for this edge.

    Tools in the a|b|code format only know peer (0) and provider (-1)
    calls, so sibling links surface as provider links (lower ASN first)
    and exchange links as peering: exactly the confusion the org/IXP
    override passes exist to repair.
    """
    label, provider = truth.edge_label(*edge)
    lo, hi = edge
    if label is RelLabel.P2C:
        return (provider, hi if provider == lo else lo, -1)
    if label is RelLabel.S2S:
        return (lo, hi, -1)
    return (lo, hi, 0)


def export(
    truth: GroundTruth,
    paths: list[AsPath],
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}

    files["paths"] = out_dir / "paths.txt"
    write_paths_file(paths, files["paths"])

    base_rows = [_source_row(truth, e) for e in sorted(observed_edges(paths))]
    for s in range(1, n_sources + 1):
        rng = random.Random(seed * 7_919 + s)
        rows = []
        for a, b, code in base_rows:
            if perturbation > 0.0 and rng.random() < perturbation:
                if code == 0:
                    a, b = (a, b) if rng.random() < 0.5 else (b, a)
                    code = -1
                else:
                    a, b = min(a, b), max(a, b)
                    code = 0
            rows.append((a, b, code))
        key = f"labels_{s}"
        files[key] = out_dir / f"{key}.txt"
        with open(files[key], "w", encoding="utf-8") as fh:
            for a, b, code in rows:
                fh.write(f"{a}|{b}|{code}\n")

    files["orgs"] = out_dir / "orgs.csv"
    with open(files["orgs"], "w", encoding="utf-8") as fh:
        fh.write("asn,org_id\n")
        for a in sorted(truth.tier):
            fh.write(f"{a},{truth.org.get(a, f'solo-as{a}')}\n")

    files["ixps"] = out_dir / "ixps.txt"
    with open(files["ixps"], "w", encoding="utf-8") as fh:
        for a in sorted(truth.ixps):
            fh.write(f"{a}\n")

    files["types"] = out_dir / "types.csv"
    with open(files["types"], "w", encoding="utf-8") as fh:
        fh.write("asn,type\n")
        for a in sorted(truth.tier):
            fh.write(f"{a},{truth.types[a].value}\n")

    files["truth"] = out_dir / "truth.csv"
    with open(files["truth"], "w", encoding="utf-8") as fh:
        fh.write("a,b,label\n")
        for key in sorted(truth.labels):
            a, b, label = truth.oriented(*key)
            fh.write(f"{a},{b},{label.value}\n")

    return files
