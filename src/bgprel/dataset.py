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

Every stage returns a ``LabelTable``: one row per unordered pair, held
as columns.  Storage orientation is canonical: p2p/s2s/x2x links keep
the smaller ASN first, p2c links keep the provider first (the order
matters to the order-sensitive edge classifier).
"""

from __future__ import annotations

import hashlib
import random
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .ingest import (
    WHITESPACE,
    load_asn_map,
    pack_unordered_pairs,
    parse_asn,
    read_fields,
    run_firsts,
    unpack_pairs,
    write_table,
)


class RelLabel(str, Enum):
    P2P = "p2p"
    P2C = "p2c"
    S2S = "s2s"
    X2X = "x2x"


# p2p and p2c come first, so a row's index into MULTI_CLASSES is also
# its binary class index
MULTI_CLASSES = [RelLabel.P2P, RelLabel.P2C, RelLabel.S2S, RelLabel.X2X]
BINARY_CLASSES = [RelLabel.P2P, RelLabel.P2C]
_INDEX = {c: i for i, c in enumerate(MULTI_CLASSES)}
_P2C = _INDEX[RelLabel.P2C]

PROVENANCE_VOTE = "vote"
PROVENANCE_ORG = "org_map"
PROVENANCE_IXP = "ixp_list"

SPLITS = ("train", "val", "test")


# each training mode and the classes its model scores, in the order of
# its head's columns
MODE_CLASSES = {"binary": BINARY_CLASSES, "multi": MULTI_CLASSES}


def mode_classes(mode: str) -> list[RelLabel]:
    """A copy of ``MODE_CLASSES[mode]``; a mode it does not hold is
    refused."""
    if not isinstance(mode, str) or mode not in MODE_CLASSES:
        raise ValueError(f"unknown mode {mode!r}")
    return list(MODE_CLASSES[mode])


def _orient(
    a: np.ndarray, b: np.ndarray, label: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """p2c keeps provider-first order; everything else sorts by ASN."""
    swap = (label != _P2C) & (a > b)
    return np.where(swap, b, a), np.where(swap, a, b)


@dataclass(frozen=True, eq=False)
class LabelTable:
    """Labeled links as columns, one row per unordered pair.

    ``a`` and ``b`` are int64 ASNs in storage orientation; ``label``
    indexes ``MULTI_CLASSES``; ``split`` and ``provenance`` are string
    columns, "" when unset.  Stages return new tables and never write
    into a column.
    """

    a: np.ndarray
    b: np.ndarray
    label: np.ndarray
    split: np.ndarray
    provenance: np.ndarray

    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[int, int, RelLabel, str, str]]
    ) -> "LabelTable":
        """Table of ``(a, b, label, split, provenance)`` rows, turned to
        storage orientation; the pairs must be distinct."""
        rows = list(rows)
        a, b, label, split, prov = zip(*rows) if rows else ((),) * 5
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        label = np.array([_INDEX[c] for c in label], dtype=np.intp)
        a, b = _orient(a, b, label)
        return cls(a, b, label, np.array(split, dtype=str), np.array(prov, dtype=str))

    def __len__(self) -> int:
        return len(self.a)

    def pairs(self) -> np.ndarray:
        """Every row's (a, b) as an (n, 2) int64 array."""
        return np.stack([self.a, self.b], axis=1)

    def take(self, rows: np.ndarray) -> "LabelTable":
        """The rows an index array or a boolean mask selects, in order."""
        return LabelTable(self.a[rows], self.b[rows], self.label[rows],
                          self.split[rows], self.provenance[rows])

    def counts(self) -> dict[RelLabel, int]:
        n = np.bincount(self.label, minlength=len(MULTI_CLASSES))
        return dict(zip(MULTI_CLASSES, n.tolist()))

    def rows(self) -> list[tuple[int, int, RelLabel, str, str]]:
        """One ``(a, b, label, split, provenance)`` tuple per row."""
        labels = [MULTI_CLASSES[k] for k in self.label.tolist()]
        return list(zip(self.a.tolist(), self.b.tolist(), labels,
                        self.split.tolist(), self.provenance.tolist()))

    def digest(self) -> str:
        """sha256 of every row's pair, label and split, in row order."""
        h = hashlib.sha256(np.stack([self.a, self.b, self.label]).astype("<i8").tobytes())
        h.update("\n".join(self.split.tolist()).encode())
        return h.hexdigest()

    def write_csv(self, out: str | Path) -> None:
        write_table(out, ((a, b, label.value, split, prov)
                          for a, b, label, split, prov in self.rows()),
                    ["a", "b", "label", "split", "provenance"])

    @classmethod
    def read_csv(cls, path: str | Path) -> "LabelTable":
        """Read an ``a,b,label[,split[,provenance]]`` file such as
        ``edges.csv`` or ``truth.csv``, whose line 1 may be a header.  A
        bad ASN or label, a self pair or a pair seen twice raises
        ValueError naming the line."""
        rows = []
        first_line: dict[tuple[int, int], str] = {}
        for where, fields in read_fields(path, ",", "a"):
            try:
                label = RelLabel(fields[2])
            except (IndexError, ValueError):
                raise ValueError(f"{where}: expected a,b,label, got {fields}") from None
            a, b = parse_asn(fields[0], where), parse_asn(fields[1], where)
            if a == b:
                raise ValueError(f"{where}: self relationship AS{a}")
            pair = (a, b) if a < b else (b, a)
            if pair in first_line:
                raise ValueError(f"{where}: duplicate pair {pair}, "
                                 f"first on line {first_line[pair]}")
            first_line[pair] = where.rpartition(" ")[2]
            split, prov = (fields[3:5] + ["", ""])[:2]
            rows.append((a, b, label, split, prov))
        return cls.from_rows(rows)


# -- label sources and voting ------------------------------------------


@dataclass(frozen=True, eq=False)
class LabelSource:
    """Relationship calls from one inference tool: row ``i`` is the call
    ``a[i]|b[i]|code[i]``, held as int64 columns."""

    name: str
    a: np.ndarray
    b: np.ndarray
    code: np.ndarray


_CODES = {"0": 0, "-1": -1}  # peering; a is b's provider


def load_label_source(path: str | Path) -> LabelSource:
    """Read an ``a|b|code`` file; fields after the third are ignored."""
    calls = array("q")
    for where, fields in read_fields(path, "|"):
        if len(fields) < 3:
            raise ValueError(f"{where}: expected a|b|code")
        a, b = parse_asn(fields[0], where), parse_asn(fields[1], where)
        if (code := _CODES.get(fields[2].strip(WHITESPACE))) is None:
            raise ValueError(f"{where}: unsupported code {fields[2]!r}")
        if a == b:
            raise ValueError(f"{where}: self relationship AS{a}")
        calls.extend((a, b, code))
    a, b, code = np.frombuffer(calls, dtype=np.int64).reshape(-1, 3).T
    return LabelSource(Path(path).name, a, b, code)


@dataclass
class VoteReport:
    n_sources: int
    source_sizes: dict[str, int]
    union_pairs: int
    intersection_pairs: int
    coincidence_rate: float
    inconsistent_dropped: int


# a source's call on a pair: peering, or which endpoint is the provider
_CALL_P2P, _CALL_LO_PROVIDER, _CALL_HI_PROVIDER = 0, 1, 2


def _source_calls(src: LabelSource) -> tuple[np.ndarray, np.ndarray, int]:
    """A source's sorted pair keys and its call on each.  A pair whose
    rows disagree inside the source cannot vote and is dropped; the
    third value counts those pairs."""
    key = pack_unordered_pairs(src.a, src.b)
    call = np.where(src.code == 0, _CALL_P2P,
                    np.where(src.a < src.b, _CALL_LO_PROVIDER, _CALL_HI_PROVIDER))
    order = np.argsort(key, kind="stable")
    key, call = key[order], call[order]
    starts = np.flatnonzero(run_firsts(key))
    # a pair's calls all agree exactly when their least and greatest do
    low = np.minimum.reduceat(call, starts)
    agree = low == np.maximum.reduceat(call, starts)
    return key[starts][agree], low[agree], int((~agree).sum())


def vote_intersection(
    sources: list[LabelSource],
) -> tuple[LabelTable, VoteReport]:
    """Keep only pairs every source labels identically, in pair order.

    For p2c calls identical means the same provider side; (a,b,-1) and
    (b,a,-1) disagree.  The coincidence rate is |intersection| over
    |union of pairs| across sources.
    """
    if len(sources) < 2:
        raise ValueError("voting needs at least two label sources")
    per_source = [_source_calls(src) for src in sources]
    n_union = int(run_firsts(np.sort(np.concatenate([k for k, _, _ in per_source]))).sum())
    key, call, _ = per_source[0]
    for other_key, other_call, _ in per_source[1:]:
        _, mine, theirs = np.intersect1d(
            key, other_key, assume_unique=True, return_indices=True
        )
        same = mine[call[mine] == other_call[theirs]]
        key, call = key[same], call[same]
    lo, hi = unpack_pairs(key).T
    flip = call == _CALL_HI_PROVIDER
    label = np.where(call == _CALL_P2P, _INDEX[RelLabel.P2P], _P2C).astype(np.intp)
    table = LabelTable(np.where(flip, hi, lo), np.where(flip, lo, hi), label,
                       np.full(len(key), ""), np.full(len(key), PROVENANCE_VOTE))
    # a name two sources share gets the source's 1-based position
    seen = Counter(s.name for s in sources)
    report = VoteReport(
        n_sources=len(sources),
        source_sizes={s.name if seen[s.name] == 1 else f"{s.name}#{i}": len(s.a)
                      for i, s in enumerate(sources, 1)},
        union_pairs=n_union,
        intersection_pairs=len(table),
        coincidence_rate=len(table) / n_union if n_union else 0.0,
        inconsistent_dropped=sum(bad for _, _, bad in per_source),
    )
    return table, report


# -- org / IXP overrides ------------------------------------------------


def load_org_map(path: str | Path) -> dict[int, str]:
    """Read an ``asn,org_id`` file (see ``ingest.load_asn_map``)."""
    return load_asn_map(path, "org id")


def _relabel(
    edges: LabelTable, mask: np.ndarray, label: RelLabel, provenance: str
) -> LabelTable:
    """``edges`` with the masked rows given a new label and provenance,
    re-oriented; the rows stay where they are."""
    new = np.where(mask, _INDEX[label], edges.label)
    a, b = _orient(edges.a, edges.b, new)
    return LabelTable(a, b, new, edges.split,
                      np.where(mask, provenance, edges.provenance))


def apply_sibling_labels(
    edges: LabelTable, org_map: dict[int, str]
) -> LabelTable:
    """Relabel same-organization links as s2s.

    IXP-derived labels outrank organization data, so entries already
    tagged by the IXP pass are left alone; that keeps the override
    passes order-independent.
    """
    if not org_map:
        return edges
    asns = np.array(sorted(org_map), dtype=np.int64)
    _, org_ids = np.unique([org_map[a] for a in asns.tolist()], return_inverse=True)
    ends = edges.pairs()
    pos = np.minimum(np.searchsorted(asns, ends), len(asns) - 1)
    org = np.where(asns[pos] == ends, org_ids[pos], -1)
    mask = ((org[:, 0] >= 0) & (org[:, 0] == org[:, 1])
            & (edges.provenance != PROVENANCE_IXP))
    return _relabel(edges, mask, RelLabel.S2S, PROVENANCE_ORG)


def apply_ixp_labels(edges: LabelTable, ixps: Iterable[int]) -> LabelTable:
    """Relabel links with an IXP endpoint as x2x (highest precedence)."""
    ixps = np.fromiter(ixps, dtype=np.int64)
    mask = np.isin(edges.a, ixps) | np.isin(edges.b, ixps)
    return _relabel(edges, mask, RelLabel.X2X, PROVENANCE_IXP)


# -- balancing and splits ------------------------------------------------


def _split_sizes(n: int) -> tuple[int, int, int]:
    n_train = round(0.6 * n)
    n_val = round(0.2 * n)
    if n_train + n_val > n:
        n_val = n - n_train
    return n_train, n_val, n - n_train - n_val


def balance_and_split(
    edges: LabelTable, seed: int, mode: str = "multi"
) -> LabelTable:
    """Assign 6:2:2 train/val/test splits per class.

    Binary mode drops s2s/x2x first and keeps the remaining class sizes
    as they are; multi mode downsamples every class to the smallest
    class size so the four types are balanced.  A draw that would leave
    train, val or test without a pair is refused: in multi mode the
    smallest class needs at least four pairs.  The rows come class by
    class, shuffled within each class.  Deterministic for a given seed
    regardless of the input row order: each class's rows are put in
    pair order first, and the draw depends only on the class sizes.
    """
    classes = mode_classes(mode)
    by_pair = np.argsort(pack_unordered_pairs(edges.a, edges.b), kind="stable")
    pools = [by_pair[edges.label[by_pair] == _INDEX[c]] for c in classes]
    for c, pool in zip(classes, pools):
        if not len(pool):
            raise ValueError(f"{mode} mode needs examples of class {c.value}")

    floor = min(len(pool) for pool in pools)
    sizes = [_split_sizes(floor if mode == "multi" else len(pool)) for pool in pools]
    for name, drawn in zip(SPLITS, map(sum, zip(*sizes))):
        if not drawn:
            counts = ", ".join(f"{c.value}={len(pool)}" for c, pool in zip(classes, pools))
            raise ValueError(f"{mode} mode draws no {name} pair from the class counts {counts}")

    rng = random.Random(seed)
    picked, splits = [], []
    for pool, size in zip(pools, sizes):
        if mode == "multi" and len(pool) > floor:
            order = rng.sample(range(len(pool)), floor)
        else:
            order = list(range(len(pool)))
        rng.shuffle(order)
        picked.append(pool[order])
        splits.append(np.repeat(SPLITS, size))
    out = edges.take(np.concatenate(picked))
    return replace(out, split=np.concatenate(splits))
