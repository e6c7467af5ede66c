"""Parsing and sanitization of AS paths collected from BGP route dumps.

A paths file holds one AS path per line, hops separated by ``|``, the
vantage point (collector peer) first.  Lines starting with ``#`` are
comments.  A hop is a run of ASCII decimal digits, optionally surrounded
by ASCII whitespace (space, tab, CR, LF, VT, FF), with a value in
1..2**32-1; anything else makes the line malformed.  Sanitization
applies three cleaning rules in order: adjacent duplicate hops
(prepending artifacts) are compressed, paths touching unallocated AS
numbers are dropped, and paths where an ASN recurs non-adjacently
(routing loops) are dropped.

``ingest_lines`` applies all of this to whole batches of lines with
numpy and returns a ``PathStore``: one flat hop array plus path offsets.
``parse_path_line`` and ``sanitize`` are the per-path definitions of the
same rules, kept as the reference the batch code is tested against.

Every other text input (label sources, org, type, IXP, clique and
allocation lists, pairs files, label tables) is read through
``read_fields``, so they all share one data-line rule.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

MAX_ASN = 2**32 - 1
_MAX_DIGITS = len(str(MAX_ASN))
WHITESPACE = " \t\n\r\x0b\x0c"
# whatever works through a PathStore step by step takes this many paths
# at a time (``PathStore.batches``), so its temporaries stay small
_PATH_BATCH = 1 << 14


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


@dataclass(frozen=True)
class AsPath:
    """An observed AS path; ``hops[0]`` is the vantage point."""

    hops: tuple[int, ...]
    source_line: int = 0

    @property
    def vp(self) -> int:
        return self.hops[0]

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self) -> Iterator[int]:
        return iter(self.hops)


class PathStore:
    """Sanitized paths in columnar form: path ``i`` is
    ``hops[offsets[i]:offsets[i + 1]]``, vantage point first."""

    def __init__(self, hops: np.ndarray, offsets: np.ndarray):
        self.hops = hops
        self.offsets = offsets

    @classmethod
    def _from_buffers(cls, hops: array, lengths: array) -> "PathStore":
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(lengths, dtype=np.int64), out=offsets[1:])
        return cls(np.frombuffer(hops, dtype=np.int64), offsets)

    @classmethod
    def from_hops(cls, paths: Iterable[Iterable[int]]) -> "PathStore":
        """Store hop sequences that are already sanitized, as they are."""
        hops, lengths = array("q"), array("q")
        for path in paths:
            before = len(hops)
            hops.extend(path)
            if len(hops) == before:
                raise ValueError("empty path")
            lengths.append(len(hops) - before)
        return cls._from_buffers(hops, lengths)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def steps(self) -> np.ndarray:
        """Flat index ``i`` of every step ``hops[i] -> hops[i + 1]`` that
        stays inside one path, in order."""
        linked = np.ones(max(len(self.hops) - 1, 0), dtype=bool)
        linked[self.offsets[1:-1] - 1] = False
        return np.flatnonzero(linked)

    def batches(self) -> Iterator["PathStore"]:
        """Consecutive runs of up to ``_PATH_BATCH`` paths, as stores
        that view this one's hop array."""
        for lo in range(0, len(self), _PATH_BATCH):
            bounds = self.offsets[lo:lo + _PATH_BATCH + 1]
            yield PathStore(self.hops[bounds[0]:bounds[-1]], bounds - bounds[0])

    def __iter__(self) -> Iterator[AsPath]:
        hops = self.hops.tolist()
        bounds = self.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield AsPath(tuple(hops[lo:hi]))


class AllocationTable:
    """Set of allocated ASNs stored as merged, sorted ranges."""

    def __init__(self, ranges: Iterable[tuple[int, int]]):
        spans = sorted((int(lo), int(hi)) for lo, hi in ranges)
        if not spans:
            raise ValueError("allocation table is empty")
        merged: list[tuple[int, int]] = []
        for lo, hi in spans:
            if lo < 1 or hi > MAX_ASN or lo > hi:
                raise ValueError(f"invalid allocation range {lo}-{hi}")
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._starts = np.array([lo for lo, _ in merged], dtype=np.int64)
        self._ends = np.array([hi for _, hi in merged], dtype=np.int64)

    @classmethod
    def from_lines(
        cls, lines: Iterable[str], source: str | Path = "allocation file"
    ) -> "AllocationTable":
        ranges = []
        for where, (text,) in read_fields(source, lines=lines):
            lo, hi = text.split("-", 1) if "-" in text else (text, text)
            lo, hi = parse_asn(lo, where), parse_asn(hi, where)
            if lo > hi:
                raise ValueError(f"{where}: range {lo}-{hi} ends before it starts")
            ranges.append((lo, hi))
        return cls(ranges)

    @classmethod
    def load(cls, path: str | Path) -> "AllocationTable":
        with open_text(path) as fh:
            return cls.from_lines(fh, path)

    def allocated(self, asns: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the given ASNs fall in a range."""
        i = np.searchsorted(self._starts, asns, side="right") - 1
        return (i >= 0) & (asns <= self._ends[np.maximum(i, 0)])

    def __contains__(self, asn: int) -> bool:
        return bool(self.allocated(np.array([asn], dtype=np.int64))[0])

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return list(zip(self._starts.tolist(), self._ends.tolist()))


def parse_asn(token: str, where: str) -> int:
    """The ASN one token holds under the hop rule: ASCII decimal digits,
    optionally surrounded by ASCII whitespace, with a value in
    1..2**32-1.  Every input file's ASNs are read through this; anything
    else raises ValueError starting with ``where`` (file and line)."""
    digits = token.strip(WHITESPACE)
    # str.isdigit alone also accepts non-ASCII digits, and int() also
    # takes signs and underscores but refuses very long digit strings,
    # so drop leading zeros and size-check first
    if digits.isascii() and digits.isdigit():
        digits = digits.lstrip("0")
        if len(digits) <= _MAX_DIGITS and 1 <= (asn := int(digits or "0")) <= MAX_ASN:
            return asn
    raise ValueError(f"{where}: ASN out of range or malformed: {token!r}")


# -- the reader of every other text input


def open_text(path: str | Path) -> TextIO:
    """Open an input as UTF-8, decoding each byte that is not UTF-8 to a
    lone surrogate, so that the line holding it can be named."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def read_fields(
    source: str | Path,
    sep: str | None = None,
    header: str | None = None,
    lines: Iterable[str] | None = None,
) -> Iterator[tuple[str, list[str]]]:
    """The ``"<source> line N"`` locator and the fields of each data line
    of the file ``source``, or of ``lines`` when they are given.

    ASCII whitespace around a line is dropped.  A line left empty or
    starting with ``#`` is skipped, and so is a line 1 whose first field
    is ``header`` (trimmed, any case).  A data line is split on ``sep``,
    or is one field when ``sep`` is None.  A byte that is not UTF-8, or
    a ``"`` where ``sep`` is a comma, raises ValueError.
    """
    if lines is None:
        with open_text(source) as fh:
            yield from read_fields(source, sep, header, fh)
        return
    prefix = f"{source} line "
    for n, raw in enumerate(lines, start=1):
        text = raw.strip(WHITESPACE)
        if not text or text[0] == "#":
            continue
        fields = text.split(sep) if sep else [text]
        if n == 1 and fields[0].strip(WHITESPACE).lower() == header:
            continue
        where = f"{prefix}{n}"
        # open_text decodes a byte that is not UTF-8 to U+DC80..U+DCFF
        if not text.isascii() and re.search("[\udc80-\udcff]", text):
            raise ValueError(f"{where}: byte that is not UTF-8")
        if sep == "," and '"' in text:
            raise ValueError(f"{where}: quoted fields are not supported")
        yield where, fields


def load_asn_set(path: str | Path) -> set[int]:
    """The ASNs of a one-ASN-per-line file such as ``ixps.txt``."""
    return {parse_asn(text, where) for where, (text,) in read_fields(path)}


def load_asn_map(
    path: str | Path, what: str, values: set[str] | None = None
) -> dict[int, str]:
    """The rows of an ``asn,value`` file such as ``orgs.csv``, whose line
    1 may be a header starting ``asn``.  A missing value, or one outside
    ``values`` when they are given, raises ValueError naming ``what``."""
    out = {}
    for where, fields in read_fields(path, ",", "asn"):
        asn = parse_asn(fields[0], where)
        value = fields[1].strip(WHITESPACE) if len(fields) > 1 else ""
        if not value or values is not None and value not in values:
            raise ValueError(f"{where}: missing or unknown {what} {value!r}")
        out[asn] = value
    return out


# -- ASN pair keys: every ASN is below 2**32, so a pair (a, b) packs into
# one uint64, (a << 32) | b, and keys sort in (a, b) tuple order


def pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The key of every ordered pair (a[i], b[i])."""
    a, b = np.asarray(a).astype(np.uint64), np.asarray(b).astype(np.uint64)
    return (a << np.uint64(32)) | b


def pack_unordered_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The key of every unordered pair: smaller ASN first."""
    return pack_pairs(np.minimum(a, b), np.maximum(a, b))


def unpack_pairs(keys: np.ndarray) -> np.ndarray:
    """The (a, b) rows of ``keys``, as an (n, 2) int64 array."""
    keys = np.asarray(keys, dtype=np.uint64)
    pairs = np.stack([keys >> np.uint64(32), keys & np.uint64(MAX_ASN)], axis=1)
    return pairs.astype(np.int64)


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
            if h not in table:
                raise PathRejected(RejectReason.UNALLOCATED, h, path.source_line)
    seen: set[int] = set()
    for h in hops:
        if h in seen:
            raise PathRejected(RejectReason.LOOP, h, path.source_line)
        seen.add(h)
    return AsPath(tuple(hops), path.source_line)


@dataclass
class IngestReport:
    """Flat counters describing one ingest run."""

    parsed: int = 0
    compressed: int = 0
    rejected_loop: int = 0
    rejected_unallocated: int = 0
    malformed: int = 0

    @property
    def accepted(self) -> int:
        return self.parsed - self.rejected_loop - self.rejected_unallocated

    def as_dict(self) -> dict[str, int]:
        return {**asdict(self), "accepted": self.accepted}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


# -- batch parsing and sanitization -----------------------------------

_BATCH_LINES = 1 << 14
_OTHER, _DIGIT, _PIPE, _SPACE = 0, 1, 2, 3
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_BYTE_CLASS[ord("|")] = _PIPE
_BYTE_CLASS[[ord(c) for c in WHITESPACE]] = _SPACE
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


def _parse_batch(lines: list[str]) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse one batch of raw lines.

    Returns the hops and hop counts of the well-formed path lines, in
    order, and the number of malformed lines.
    """
    text = "".join(lines)
    if text.isascii():
        data = text.encode("ascii")
        sizes = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    else:
        encoded = [line.encode("utf-8", "surrogatepass") for line in lines]
        data = b"".join(encoded)
        sizes = np.fromiter(map(len, encoded), dtype=np.int64, count=len(lines))
    # empty lines are blank; every other line owns at least one byte
    sizes = sizes[sizes > 0]
    n = len(sizes)
    starts = np.cumsum(sizes) - sizes
    line_of = np.repeat(np.arange(n, dtype=np.int32), sizes)
    buf = np.frombuffer(data, dtype=np.uint8)
    cls = _BYTE_CLASS[buf]

    # the first non-whitespace byte tells blank, comment and path lines apart
    solid = np.flatnonzero(cls != _SPACE)
    solid_line = line_of[solid]
    lead = np.ones(len(solid), dtype=bool)
    np.not_equal(solid_line[1:], solid_line[:-1], out=lead[1:])
    is_path = np.zeros(n, dtype=bool)
    is_path[solid_line[lead]] = buf[solid[lead]] != ord("#")
    del solid, solid_line, lead

    # digit runs; a run never crosses a line boundary
    digit = cls == _DIGIT
    first = digit & ~np.concatenate([[False], digit[:-1]])
    first[starts] = digit[starts]
    last = digit & ~np.concatenate([digit[1:], [False]])
    last[starts[1:] - 1] = digit[starts[1:] - 1]
    run_first = np.flatnonzero(first)
    run_last = np.flatnonzero(last)
    run_line = line_of[run_first]
    del digit, last

    # a path line is digit runs separated by single pipes, with only
    # whitespace around them: its runs and pipes alternate, starting and
    # ending with a run
    bad = np.zeros(n, dtype=bool)
    bad[line_of[cls == _OTHER]] = True
    events = np.flatnonzero(first | (cls == _PIPE))
    is_run = first[events]
    event_line = line_of[events]
    del first, cls, events
    same_line = event_line[1:] == event_line[:-1]
    bad[event_line[1:][same_line & (is_run[1:] == is_run[:-1])]] = True
    opens = np.ones(len(event_line), dtype=bool)
    opens[1:] = ~same_line
    closes = np.ones(len(event_line), dtype=bool)
    closes[:-1] = ~same_line
    bad[event_line[(opens | closes) & ~is_run]] = True
    del is_run, event_line, same_line, opens, closes

    # run values, least significant digit first; runs longer than an ASN
    # can be are rare and parsed one by one
    width = run_last - run_first + 1
    values = np.zeros(len(run_first), dtype=np.int64)
    for k in range(min(_MAX_DIGITS, int(width.max(initial=0)))):
        live = np.flatnonzero(width > k)
        values[live] += (buf[run_last[live] - k].astype(np.int64) - 48) * _POW10[k]
    for i in np.flatnonzero(width > _MAX_DIGITS).tolist():
        digits = buf[run_first[i]:run_last[i] + 1].tobytes().lstrip(b"0")
        values[i] = int(digits or b"0") if len(digits) <= _MAX_DIGITS else 0
    bad[run_line[(values < 1) | (values > MAX_ASN)]] = True

    ok = is_path & ~bad
    lengths = np.bincount(run_line, minlength=n)[ok]
    return values[ok[run_line]], lengths, int((is_path & bad).sum())


def _sanitize_batch(
    hops: np.ndarray,
    lengths: np.ndarray,
    table: AllocationTable | None,
    report: IngestReport,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``sanitize``: returns the accepted paths' compressed
    hops and lengths, and counts rejections and compressions."""
    n = len(lengths)
    path_of = np.repeat(np.arange(n, dtype=np.int64), lengths)
    repeat = np.zeros(len(hops), dtype=bool)
    repeat[1:] = (hops[1:] == hops[:-1]) & (path_of[1:] == path_of[:-1])
    hops, path_of = hops[~repeat], path_of[~repeat]
    kept = np.bincount(path_of, minlength=n)

    unallocated = np.zeros(n, dtype=bool)
    if table is not None:
        unallocated[path_of[~table.allocated(hops)]] = True
    key = np.sort(pack_pairs(path_of, hops))
    looped = np.zeros(n, dtype=bool)
    looped[unpack_pairs(key[1:][key[1:] == key[:-1]])[:, 0]] = True
    del key

    ok = ~(unallocated | looped)
    report.rejected_unallocated += int(unallocated.sum())
    report.rejected_loop += int((looped & ~unallocated).sum())
    report.compressed += int((ok & (kept < lengths)).sum())
    return hops[ok[path_of]], kept[ok]


def ingest_lines(
    lines: Iterable[str], table: AllocationTable | None = None
) -> tuple[PathStore, IngestReport]:
    """Parse and sanitize an iterable of path lines, in batches.

    Each item is one line; a trailing newline is allowed.  Blank lines
    and ``#`` comments are skipped silently; lines that fail to parse
    are counted as malformed and skipped so one bad line cannot abort a
    large dump.  Accepted paths keep their input order.
    """
    report = IngestReport()
    hops_out, lengths_out = array("q"), array("q")
    it = iter(lines)
    while batch := list(islice(it, _BATCH_LINES)):
        hops, lengths, malformed = _parse_batch(batch)
        report.malformed += malformed
        report.parsed += len(lengths)
        hops, lengths = _sanitize_batch(hops, lengths, table, report)
        hops_out.frombytes(hops.tobytes())
        lengths_out.frombytes(lengths.astype(np.int64).tobytes())
    return PathStore._from_buffers(hops_out, lengths_out), report


def ingest_file(
    path: str | Path, table: AllocationTable | None = None
) -> tuple[PathStore, IngestReport]:
    """Read a paths file and return sanitized paths plus counters; a
    byte that is not UTF-8 makes its line malformed."""
    with open_text(path) as fh:
        return ingest_lines(fh, table)


def write_paths_file(paths: PathStore, out: str | Path) -> None:
    """Write ``paths`` as ``a|b|c`` lines, formatted with numpy in
    batches of paths."""
    with open(out, "wb") as fh:
        for batch in paths.batches():
            hops = batch.hops
            digits = np.searchsorted(_POW10, hops, side="right")
            # each hop is its digits and then a separator
            ends = np.cumsum(digits + 1) - 1
            buf = np.full(ends[-1] + 1, ord("|"), dtype=np.uint8)
            buf[ends[batch.offsets[1:] - 1]] = ord("\n")
            for k in range(int(digits.max())):
                live = np.flatnonzero(digits > k)
                buf[ends[live] - 1 - k] = 48 + hops[live] // _POW10[k] % 10
            fh.write(buf.tobytes())
