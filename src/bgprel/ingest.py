"""Parsing and sanitization of AS paths collected from BGP route dumps.

A paths file holds one AS path per line, hops separated by ``|``, the
vantage point (collector peer) first.  LF, CRLF and a lone CR each end
a line, as in Python's text mode.  Lines starting with ``#`` are
comments.  A hop is a run of ASCII decimal digits, optionally surrounded
by ASCII whitespace (space, tab, CR, LF, VT, FF), with a value in
1..2**32-1; anything else, a byte that is not UTF-8 included, makes the
line malformed.  Sanitization applies three cleaning rules in order:
adjacent duplicate hops (prepending artifacts) are compressed, paths
touching unallocated AS numbers are dropped, and paths where an ASN
recurs non-adjacently (routing loops) are dropped.

``ingest_file`` reads a paths file as bytes, in blocks of
``_BLOCK_BYTES`` (96 KiB).  Each block is parsed and sanitized with
numpy and folded into a ``PathStore`` (one flat hop array plus path
offsets), or, when only the graph is wanted, into a
``topology.GraphSummary``, so that no process holds every path.  A
block's temporaries take about 19 bytes per input byte to parse, 31
per hop to sanitize and 45 per hop to summarize, so the reader's memory
is a few MB whatever the file's size.  Summaries merge, so for them the
file is cut into line-aligned byte ranges, one per
``evaluate.worker_count`` process (one a usable CPU) but none shorter
than ``_RANGE_FLOOR``.  ``ingest_lines`` joins lines already in memory
into one buffer and reads it the same way, and ``PathStore`` iterates
as ``AsPath`` records, for callers that hold their paths in memory, such
as perfbench's own tests.

Every other text input (label sources, org, type, IXP, clique and
allocation lists, pairs files, label tables) is read through
``read_fields``, so they all share one data-line rule.

This module also writes every text file the package outputs, so their
format is decided here alone: ``write_paths_file`` writes paths files,
``write_table`` every other table (CSV, label sources, ASN lists) as
LF-ended lines, and ``write_json`` every JSON document (manifests,
reports, metrics, checkpoints) with indent 2 and sorted keys.
``read_json`` reads a checkpoint, ``read_field`` any of its fields by
dotted name, refusing one with a ``FieldError``, and ``encode_array``
and ``decode_array`` are the one array codec of those documents.
"""

from __future__ import annotations

import base64
import io
import json
import math
import os
import re
from array import array
from dataclasses import asdict, astuple, dataclass
from functools import partial
from itertools import starmap
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .evaluate import map_runs, worker_count

MAX_ASN = 2**32 - 1
_MAX_DIGITS = len(str(MAX_ASN))
WHITESPACE = " \t\n\r\x0b\x0c"
# whatever works through a PathStore step by step takes this many paths
# at a time (``PathStore.batches``), so its temporaries stay small
_PATH_BATCH = 1 << 14


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
    def from_lengths(cls, hops: np.ndarray, lengths: np.ndarray) -> "PathStore":
        """The store of consecutive paths of ``lengths`` hops each."""
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(hops, offsets)

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
        return cls.from_lengths(
            np.frombuffer(hops, dtype=np.int64), np.frombuffer(lengths, dtype=np.int64)
        )

    @classmethod
    def fold(cls, stores: Iterable["PathStore"]) -> "PathStore":
        """Every path of ``stores``, in order.  The hops are appended to
        buffers that grow in place, so the store is not copied whole."""
        hops, lengths = array("q"), array("q")
        for store in stores:
            hops.frombytes(store.hops.tobytes())
            lengths.frombytes(np.diff(store.offsets).tobytes())
        return cls.from_lengths(
            np.frombuffer(hops, dtype=np.int64), np.frombuffer(lengths, dtype=np.int64)
        )

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
    ``values`` when they are given, raises ValueError naming ``what``;
    an ASN on two lines raises ValueError naming both."""
    out, first_line = {}, {}
    for where, fields in read_fields(path, ",", "asn"):
        asn = parse_asn(fields[0], where)
        value = fields[1].strip(WHITESPACE) if len(fields) > 1 else ""
        if not value or values is not None and value not in values:
            raise ValueError(f"{where}: missing or unknown {what} {value!r}")
        if asn in first_line:
            raise ValueError(f"{where}: duplicate AS{asn}, "
                             f"first on line {first_line[asn]}")
        first_line[asn] = where.rpartition(" ")[2]
        out[asn] = value
    return out


# -- ASN pair keys: every ASN is below 2**32, so a pair (a, b) packs into
# one uint64, (a << 32) | b, and keys sort in (a, b) tuple order


def pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The key of every ordered pair (a[i], b[i])."""
    keys = np.asarray(a).astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= np.asarray(b).astype(np.uint64)
    return keys


def pack_unordered_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The key of every unordered pair: smaller ASN first."""
    return pack_pairs(np.minimum(a, b), np.maximum(a, b))


def unpack_pairs(keys: np.ndarray) -> np.ndarray:
    """The (a, b) rows of ``keys``, as an (n, 2) int64 array."""
    keys = np.asarray(keys, dtype=np.uint64)
    pairs = np.stack([keys >> np.uint64(32), keys & np.uint64(MAX_ASN)], axis=1)
    return pairs.astype(np.int64)


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

    def __add__(self, other: "IngestReport") -> "IngestReport":
        return IngestReport(*(a + b for a, b in zip(astuple(self), astuple(other))))


# -- block parsing and sanitization -----------------------------------

# a paths file is read this many bytes at a time, so the temporaries of
# a block's parse and summary stay at a few MB: summarizing the default
# synth's paths peaks at 3.3 MB (tracemalloc) with 96 KiB blocks, 9.2 MB
# with 256 KiB ones.  Smaller blocks cost time: each block's summary is
# merged, and 64 KiB blocks (2.4 MB) made infer-5x's ingest ~14% slower
_BLOCK_BYTES = 96 << 10
# and cut into one byte range per worker process, none shorter than this
_RANGE_FLOOR = 4 << 20
_LINE_END = re.compile(rb"[\r\n]")
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


def run_firsts(keys: np.ndarray) -> np.ndarray:
    """Which entries of a sorted array begin a run of equal values."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _parse_block(buf: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse one block of lines: ``buf`` holds the bytes, and line i
    ends with the byte at ``ends[i]``; bytes after the last end are one
    more line.  Every end byte is whitespace.

    Returns the hops and hop counts of the well-formed path lines, in
    order, and the number of malformed lines.
    """
    last_line = np.append(ends[ends < len(buf) - 1], len(buf) - 1)
    sizes = np.diff(last_line, prepend=-1)
    n = len(sizes)
    # each byte's line, in the narrowest type that holds the line count:
    # 2 bytes per byte in a block of under 65,536 lines
    line_of = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), sizes)
    del last_line, sizes
    # byte classes by arithmetic on uint8, which wraps below 0: the
    # whitespace bytes are the space and 9..13
    digits = buf - np.uint8(ord("0"))
    digit = digits < 10
    pipe = buf == ord("|")
    other = ~(digit | pipe | (buf == ord(" ")) | (buf - np.uint8(9) < 5))

    # digit runs; lines end in whitespace, so a run never crosses one
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    last = digit
    last[:-1] &= ~digit[1:]
    run_first = np.flatnonzero(first)
    run_last = np.flatnonzero(last)
    run_line = line_of[run_first]
    del digit, last

    # events are runs and pipes; every other non-whitespace byte is
    # "other" and makes its line malformed, unless the line is a comment:
    # its first non-whitespace byte is a "#", ahead of every event
    events = np.flatnonzero(first | pipe)
    is_run = first[events]
    event_line = line_of[events]
    others = np.flatnonzero(other)
    other_line = line_of[others]
    del first, pipe, other, line_of
    lead_event = run_firsts(event_line)
    first_event = np.full(n, len(buf))
    first_event[event_line[lead_event]] = events[lead_event]
    lead_other = run_firsts(other_line)
    at, line = others[lead_other], other_line[lead_other]
    comment = np.zeros(n, dtype=bool)
    comment[line] = (buf[at] == ord("#")) & (at < first_event[line])
    is_path = np.zeros(n, dtype=bool)
    is_path[event_line] = True
    is_path[other_line] = True
    is_path &= ~comment
    del events, others, lead_event, first_event, lead_other, at, line, comment

    # a path line is digit runs separated by single pipes, with only
    # whitespace around them: its runs and pipes alternate, starting and
    # ending with a run
    bad = np.zeros(n, dtype=bool)
    bad[other_line] = True
    same_line = ~run_firsts(event_line)[1:]
    bad[event_line[1:][same_line & (is_run[1:] == is_run[:-1])]] = True
    opens = np.ones(len(event_line), dtype=bool)
    opens[1:] = ~same_line
    closes = np.ones(len(event_line), dtype=bool)
    closes[:-1] = ~same_line
    bad[event_line[(opens | closes) & ~is_run]] = True
    del is_run, event_line, other_line, same_line, opens, closes

    # run values, least significant digit first; runs longer than an ASN
    # can be are rare and parsed one by one
    width = run_last - run_first + 1
    values = digits[run_last].astype(np.int64)
    for k in range(1, min(_MAX_DIGITS, int(width.max(initial=0)))):
        live = np.flatnonzero(width > k)
        values[live] += digits[run_last[live] - k] * _POW10[k]
    for i in np.flatnonzero(width > _MAX_DIGITS).tolist():
        text = buf[run_first[i]:run_last[i] + 1].tobytes().lstrip(b"0")
        values[i] = int(text or b"0") if len(text) <= _MAX_DIGITS else 0
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
    """The cleaning rules over a batch of parsed paths, duplicates
    compressed before the loop test: returns the accepted paths'
    compressed hops and lengths, and counts rejections and compressions."""
    n = len(lengths)
    path_of = np.repeat(np.arange(n, dtype=np.int32), lengths)
    keep = np.ones(len(hops), dtype=bool)
    keep[1:] = (hops[1:] != hops[:-1]) | (path_of[1:] != path_of[:-1])
    hops, path_of = hops[keep], path_of[keep]
    del keep
    kept = np.bincount(path_of, minlength=n)

    unallocated = np.zeros(n, dtype=bool)
    if table is not None:
        unallocated[path_of[~table.allocated(hops)]] = True
    key = pack_pairs(path_of, hops)
    key.sort()
    looped = np.zeros(n, dtype=bool)
    looped[unpack_pairs(key[1:][key[1:] == key[:-1]])[:, 0]] = True
    del key

    ok = ~(unallocated | looped)
    report.rejected_unallocated += int(unallocated.sum())
    report.rejected_loop += int((looped & ~unallocated).sum())
    report.compressed += int((ok & (kept < lengths)).sum())
    return hops[ok[path_of]], kept[ok]


def _stores(
    blocks: Iterable[tuple[bytes, np.ndarray]],
    table: AllocationTable | None,
    report: IngestReport,
) -> Iterator[PathStore]:
    """The accepted paths of each ``(data, ends)`` block of lines (see
    ``_parse_block``), parsed and sanitized, counted in ``report``."""
    for data, ends in blocks:
        hops, lengths, malformed = _parse_block(np.frombuffer(data, np.uint8), ends)
        report.malformed += malformed
        report.parsed += len(lengths)
        yield PathStore.from_lengths(*_sanitize_batch(hops, lengths, table, report))


def _file_blocks(fh: BinaryIO, left: int | None = None) -> Iterator[tuple[bytes, np.ndarray]]:
    """The next ``left`` bytes of a binary stream (to its end when
    ``left`` is None) as blocks of whole lines, read ``_BLOCK_BYTES`` at
    a time.  Every CR and every LF ends a line: a CRLF ends one line and
    an empty one, which is blank."""
    carry, size = b"", _BLOCK_BYTES
    while chunk := fh.read(size if left is None else min(size, left)):
        if left is not None:
            left -= len(chunk)
        data = carry + chunk
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        carry = data[cut:]
        if cut:
            yield _file_block(data[:cut])
    if carry:
        yield _file_block(carry)


def _file_block(data: bytes) -> tuple[bytes, np.ndarray]:
    buf = np.frombuffer(data, np.uint8)
    return data, np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))


def _line_ranges(path: str | Path, parts: int) -> list[tuple[int, int | None]]:
    """``parts`` byte ranges of about equal size covering the file, each
    cut moved forward to the start of a line (just after a CR or LF);
    ranges a cut leaves empty are dropped.  The last range runs to the
    end of the file, so one range reads a pipe too."""
    size = os.path.getsize(path)
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, parts):
            at = size * k // parts
            if at <= cuts[-1]:
                continue
            fh.seek(at - 1)
            while chunk := fh.read(1 << 16):
                if end := _LINE_END.search(chunk):
                    at = fh.tell() - len(chunk) + end.start() + 1
                    break
            else:
                at = size
            if at >= size:
                break
            cuts.append(at)
    return list(zip(cuts, [*cuts[1:], None]))


def _ingest_range(path, table, into, span: tuple[int, int | None]):
    lo, hi = span
    report = IngestReport()
    with open(path, "rb") as fh:
        if lo:
            fh.seek(lo)
        left = None if hi is None else hi - lo
        return into.fold(_stores(_file_blocks(fh, left), table, report)), report


def ingest_lines(
    lines: Iterable[str], table: AllocationTable | None = None
) -> tuple[PathStore, IngestReport]:
    """Parse and sanitize an iterable of path lines, in blocks.

    Each item is one line; a CR or LF inside it, a trailing newline
    included, is whitespace.  Blank lines and ``#`` comments are skipped
    silently; lines that fail to parse are counted as malformed and
    skipped so one bad line cannot abort a large dump.  Accepted paths
    keep their input order.  The items are joined into one buffer and
    read like a file.
    """
    text = "\n".join(line.replace("\r", " ").replace("\n", " ") for line in lines)
    buf = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    report = IngestReport()
    return PathStore.fold(_stores(_file_blocks(buf), table, report)), report


def ingest_file(path: str | Path, table: AllocationTable | None = None, into=PathStore):
    """Read a paths file and return its sanitized paths folded into
    ``into``, plus the counters.

    ``into`` is ``PathStore``, every accepted path in file order, or
    ``topology.GraphSummary``, what the graph needs of them: a class
    whose ``fold`` takes the block stores of a range.  A summary is read
    in line-aligned byte ranges, one per ``worker_count`` process but
    none under ``_RANGE_FLOOR`` bytes; more than one range are read by
    forked processes (``map_runs``) and their summaries merged here.  A
    store is as large as its paths, so it is read as one range: parts
    would only add copies of it.
    """
    if into is PathStore:
        return _ingest_range(path, table, into, (0, None))
    parts = worker_count(max(1, os.path.getsize(path) // _RANGE_FLOOR))
    ranges = _line_ranges(path, parts)
    done = map_runs(partial(_ingest_range, path, table, into), ranges, len(ranges))
    return into.merge([r for r, _ in done]), sum((c for _, c in done), IngestReport())


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


# -- the writers of every text output


def write_table(
    out: str | Path,
    rows: Iterable[Sequence],
    header: Sequence[str] | None = None,
    sep: str = ",",
) -> None:
    """Write ``rows`` to the file ``out`` as ``sep``-separated lines,
    after the ``header`` line when one is given.  Every line ends with
    LF and every value is formatted as ``str`` formats it, so a float
    prints as its shortest repr.  ``rows`` is consumed as it is written,
    and its rows all have the first row's width."""
    rows = iter(rows)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        if (first := next(rows, None)) is not None:
            # one format string per table: a line formatted from it costs
            # about what an f-string does, less than a join of str()s
            line = sep.join(["{}"] * len(first)) + "\n"
            fh.write(line.format(*first))
            fh.writelines(starmap(line.format, rows))


def write_json(out: str | Path, doc) -> None:
    """Write ``doc`` to the file ``out`` as JSON: indent 2, sorted keys,
    a final LF."""
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path, what: str):
    """The JSON document in the file ``path``; one that is not UTF-8 JSON
    is refused as not a ``what`` file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise ValueError(f"not a {what} file: {path} is not JSON ({exc})") from None


class FieldError(ValueError):
    """A field of the JSON document in the file ``path`` that is missing,
    or (given ``what``) whose value is not ``what``."""

    def __init__(self, path: str | Path, name: str, what: str | None = None):
        super().__init__(f"{path}: missing field {name!r}" if what is None
                         else f"{path}: field {name!r} is not {what}")


def read_field(doc, path: str | Path, name: str, ok=None, what: str = ""):
    """Field ``name`` of ``doc``, the JSON document in the file ``path``,
    named by its dotted path with list positions in brackets
    (``blocks[0][1].data``); refused when missing or when ``ok`` does not
    accept its value."""
    value = doc
    for step in re.finditer(r"\[(\d+)\]|\.?([^.[]+)", name):
        index, key = step.groups()
        try:  # a value that is neither object nor list has no fields
            value = (value if isinstance(value, (dict, list)) else {})[
                key if index is None else int(index)]
        except (KeyError, IndexError, TypeError):
            raise FieldError(path, name[:step.end()]) from None
    if ok is not None and not ok(value):
        raise FieldError(path, name, what)
    return value


# -- the array codec of JSON documents: an array is its shape, dtype name,
# byte order and base64 little-endian bytes

# an encoded array's "dtype" field and the type of its bytes
_ARRAY_DTYPES = {"float32": "<f4", "float64": "<f8", "int64": "<i8"}


def encode_array(arr: np.ndarray) -> dict:
    """The array in its own dtype, one of ``_ARRAY_DTYPES``."""
    data = np.ascontiguousarray(arr, dtype=_ARRAY_DTYPES[arr.dtype.name])
    return {
        "shape": list(arr.shape),
        "dtype": arr.dtype.name,
        "byte_order": "little",
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(doc, path: str | Path, name: str, dtypes: Sequence[str]) -> np.ndarray:
    """The array that field ``name`` of ``doc``, the JSON document in the
    file ``path``, encodes in one of the ``dtypes``."""
    read_field(doc, path, name, lambda v: isinstance(v, dict), "an encoded array")
    dtype = read_field(doc, path, f"{name}.dtype", lambda v: v in dtypes,
                       " or ".join(map(repr, dtypes)))
    read_field(doc, path, f"{name}.byte_order", lambda v: v == "little", "'little'")
    shape = read_field(doc, path, f"{name}.shape", lambda v: isinstance(v, list) and all(
        type(n) is int and n >= 0 for n in v), "a list of sizes")
    data = read_field(doc, path, f"{name}.data")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError):
        raise FieldError(path, f"{name}.data", "base64") from None
    size = math.prod(shape) * np.dtype(_ARRAY_DTYPES[dtype]).itemsize
    if len(raw) != size:
        raise FieldError(path, f"{name}.data", f"{size} bytes, {dtype} values of shape {shape}")
    return np.frombuffer(raw, dtype=_ARRAY_DTYPES[dtype]).reshape(shape).astype(dtype)
