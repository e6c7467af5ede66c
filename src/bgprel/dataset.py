"""Build labeled relationship datasets from external label sources.

Relationship labels come from three places, applied in a fixed
precedence:

  1. hard voting over two or more inference outputs in the common
     ``a|b|code`` format (0 = peer-to-peer, -1 = a is b's provider):
     only pairs every source labels identically survive;
  2. an AS-to-organization map: links inside one organization become
     sibling (s2s) links, overriding the vote;
  3. an IXP AS list: links touching an IXP become exchange (x2x)
     links, overriding everything else.

Storage orientation is canonical: p2p/s2s/x2x links keep the smaller
ASN first, p2c links keep the provider first (the order matters to the
order-sensitive edge classifier).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator


class RelLabel(str, Enum):
    P2P = "p2p"
    P2C = "p2c"
    S2S = "s2s"
    X2X = "x2x"


MULTI_CLASSES = [RelLabel.P2P, RelLabel.P2C, RelLabel.S2S, RelLabel.X2X]
BINARY_CLASSES = [RelLabel.P2P, RelLabel.P2C]

PROVENANCE_VOTE = "vote"
PROVENANCE_ORG = "org_map"
PROVENANCE_IXP = "ixp_list"

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class LabeledEdge:
    """One labeled link; for p2c the first endpoint is the provider."""

    a: int
    b: int
    label: RelLabel
    split: str = ""
    provenance: str = ""

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


def _canonicalize(a: int, b: int, label: RelLabel) -> tuple[int, int]:
    """p2c keeps provider-first order; everything else sorts by ASN."""
    if label is RelLabel.P2C:
        return a, b
    return (a, b) if a < b else (b, a)


class DuplicateEdgeError(ValueError):
    pass


class LabeledEdgeSet:
    """Ordered collection of labeled links, unique per unordered pair."""

    def __init__(self, entries: Iterable[LabeledEdge] = ()):
        self._by_pair: dict[tuple[int, int], LabeledEdge] = {}
        for e in entries:
            self.add(e)

    def add(self, edge: LabeledEdge) -> None:
        if edge.a == edge.b:
            raise ValueError(f"self relationship on AS{edge.a}")
        a, b = _canonicalize(edge.a, edge.b, edge.label)
        edge = replace(edge, a=a, b=b)
        key = edge.pair
        if key in self._by_pair:
            raise DuplicateEdgeError(f"duplicate pair {key}")
        self._by_pair[key] = edge

    def get(self, a: int, b: int) -> LabeledEdge | None:
        return self._by_pair.get((a, b) if a < b else (b, a))

    def __len__(self) -> int:
        return len(self._by_pair)

    def __iter__(self) -> Iterator[LabeledEdge]:
        return iter(self._by_pair.values())

    def entries(self) -> list[LabeledEdge]:
        return list(self._by_pair.values())

    def counts(self) -> dict[RelLabel, int]:
        out = {label: 0 for label in MULTI_CLASSES}
        for e in self._by_pair.values():
            out[e.label] += 1
        return out

    def with_split(self, split: str) -> list[LabeledEdge]:
        return [e for e in self._by_pair.values() if e.split == split]

    def write_csv(self, out: str | Path) -> None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "label", "split", "provenance"])
            for e in self._by_pair.values():
                writer.writerow([e.a, e.b, e.label.value, e.split, e.provenance])

    @classmethod
    def read_csv(cls, path: str | Path) -> "LabeledEdgeSet":
        out = cls()
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header and header[:3] != ["a", "b", "label"]:
                raise ValueError(f"unexpected dataset header in {path}")
            for row in reader:
                if not row:
                    continue
                a, b, label = int(row[0]), int(row[1]), RelLabel(row[2])
                split = row[3] if len(row) > 3 else ""
                prov = row[4] if len(row) > 4 else ""
                out.add(LabeledEdge(a, b, label, split, prov))
        return out


# -- label sources and voting ------------------------------------------


@dataclass
class LabelSource:
    """Relationship calls from one inference tool, ``a|b|code`` rows."""

    name: str
    entries: list[tuple[int, int, int]] = field(default_factory=list)


def load_label_source(path: str | Path) -> LabelSource:
    src = LabelSource(Path(path).name)
    with open(path, encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split("|")
            if len(fields) < 3:
                raise ValueError(f"{src.name} line {n}: expected a|b|code")
            try:
                a, b, code = int(fields[0]), int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise ValueError(f"{src.name} line {n}: {text!r}") from exc
            if code not in (0, -1):
                raise ValueError(f"{src.name} line {n}: unsupported code {code}")
            if a == b:
                raise ValueError(f"{src.name} line {n}: self relationship AS{a}")
            src.entries.append((a, b, code))
    return src


@dataclass
class VoteReport:
    n_sources: int
    source_sizes: dict[str, int]
    union_pairs: int
    intersection_pairs: int
    coincidence_rate: float
    inconsistent_dropped: int

    def to_json(self) -> str:
        doc = {
            "n_sources": self.n_sources,
            "source_sizes": self.source_sizes,
            "union_pairs": self.union_pairs,
            "intersection_pairs": self.intersection_pairs,
            "coincidence_rate": self.coincidence_rate,
            "inconsistent_dropped": self.inconsistent_dropped,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _source_calls(src: LabelSource) -> tuple[dict, int]:
    """Collapse a source to pair -> (label, provider); a pair whose rows
    disagree inside the same source cannot vote and is dropped."""
    calls: dict[tuple[int, int], tuple[RelLabel, int | None]] = {}
    bad: set[tuple[int, int]] = set()
    for a, b, code in src.entries:
        key = (a, b) if a < b else (b, a)
        call = (RelLabel.P2P, None) if code == 0 else (RelLabel.P2C, a)
        if key in calls and calls[key] != call:
            bad.add(key)
        calls[key] = call
    for key in bad:
        del calls[key]
    return calls, len(bad)


def vote_intersection(
    sources: list[LabelSource],
) -> tuple[LabeledEdgeSet, VoteReport]:
    """Keep only pairs every source labels identically.

    For p2c calls identical means the same provider side; (a,b,-1) and
    (b,a,-1) disagree.  The coincidence rate is |intersection| over
    |union of pairs| across sources.
    """
    if len(sources) < 2:
        raise ValueError("voting needs at least two label sources")
    per_source = []
    dropped = 0
    for src in sources:
        calls, bad = _source_calls(src)
        per_source.append(calls)
        dropped += bad
    union: set[tuple[int, int]] = set()
    for calls in per_source:
        union.update(calls)
    out = LabeledEdgeSet()
    for key in sorted(union):
        first = per_source[0].get(key)
        if first is None or any(calls.get(key) != first for calls in per_source[1:]):
            continue
        label, provider = first
        if label is RelLabel.P2C:
            a = provider
            b = key[1] if key[0] == a else key[0]
        else:
            a, b = key
        out.add(LabeledEdge(a, b, label, provenance=PROVENANCE_VOTE))
    rate = len(out) / len(union) if union else 0.0
    report = VoteReport(
        n_sources=len(sources),
        source_sizes={s.name: len(s.entries) for s in sources},
        union_pairs=len(union),
        intersection_pairs=len(out),
        coincidence_rate=rate,
        inconsistent_dropped=dropped,
    )
    return out, report


# -- org / IXP overrides ------------------------------------------------


def load_org_map(path: str | Path) -> dict[int, str]:
    """Read an ``asn,org_id`` CSV; a header row is tolerated."""
    out: dict[int, str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for n, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().startswith("#"):
                continue
            key = row[0].strip()
            if not key.isdigit():
                if n == 1:
                    continue
                raise ValueError(f"org map line {n}: bad ASN {key!r}")
            if len(row) < 2 or not row[1].strip():
                raise ValueError(f"org map line {n}: missing org id")
            out[int(key)] = row[1].strip()
    return out


def load_ixp_list(path: str | Path) -> set[int]:
    out: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                out.add(int(text))
            except ValueError as exc:
                raise ValueError(f"IXP list line {n}: {text!r}") from exc
    return out


def apply_sibling_labels(
    edges: LabeledEdgeSet, org_map: dict[int, str]
) -> LabeledEdgeSet:
    """Relabel same-organization links as s2s.

    IXP-derived labels outrank organization data, so entries already
    tagged by the IXP pass are left alone; that keeps the override
    passes order-independent.
    """
    out = LabeledEdgeSet()
    for e in edges:
        if e.provenance != PROVENANCE_IXP:
            org_a = org_map.get(e.a)
            if org_a is not None and org_a == org_map.get(e.b):
                out.add(
                    LabeledEdge(
                        min(e.a, e.b),
                        max(e.a, e.b),
                        RelLabel.S2S,
                        e.split,
                        PROVENANCE_ORG,
                    )
                )
                continue
        out.add(e)
    return out


def apply_ixp_labels(edges: LabeledEdgeSet, ixps: set[int]) -> LabeledEdgeSet:
    """Relabel links with an IXP endpoint as x2x (highest precedence)."""
    out = LabeledEdgeSet()
    for e in edges:
        if e.a in ixps or e.b in ixps:
            out.add(
                LabeledEdge(
                    min(e.a, e.b),
                    max(e.a, e.b),
                    RelLabel.X2X,
                    e.split,
                    PROVENANCE_IXP,
                )
            )
        else:
            out.add(e)
    return out


# -- balancing and splits ------------------------------------------------


def _split_sizes(n: int) -> tuple[int, int, int]:
    n_train = round(0.6 * n)
    n_val = round(0.2 * n)
    if n_train + n_val > n:
        n_val = n - n_train
    return n_train, n_val, n - n_train - n_val


def balance_and_split(
    edges: LabeledEdgeSet, seed: int, mode: str = "multi"
) -> LabeledEdgeSet:
    """Assign 6:2:2 train/val/test splits per class.

    Binary mode drops s2s/x2x first and keeps the remaining class sizes
    as they are; multi mode downsamples every class to the smallest
    class size so the four types are balanced.  Deterministic for a
    given seed regardless of the input entry order.
    """
    if mode not in ("binary", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    classes = BINARY_CLASSES if mode == "binary" else MULTI_CLASSES
    grouped: dict[RelLabel, list[LabeledEdge]] = {c: [] for c in classes}
    for e in edges:
        if e.label in grouped:
            grouped[e.label].append(e)
    for c in classes:
        if not grouped[c]:
            raise ValueError(f"{mode} mode needs examples of class {c.value}")
        grouped[c].sort(key=lambda e: e.pair)

    rng = random.Random(seed)
    out = LabeledEdgeSet()
    floor = min(len(grouped[c]) for c in classes)
    for c in classes:
        pool = grouped[c]
        if mode == "multi" and len(pool) > floor:
            pool = rng.sample(pool, floor)
        else:
            pool = list(pool)
        rng.shuffle(pool)
        n_train, n_val, _ = _split_sizes(len(pool))
        for i, e in enumerate(pool):
            split = "train" if i < n_train else "val" if i < n_train + n_val else "test"
            out.add(replace(e, split=split))
    return out
