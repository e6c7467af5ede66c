"""Parsing and sanitization of AS paths collected from BGP route dumps.

A paths file holds one AS path per line, hops separated by ``|``, the
vantage point (collector peer) first.  Lines starting with ``#`` are
comments.  Sanitization applies three cleaning rules in order: adjacent
duplicate hops (prepending artifacts) are compressed, paths touching
unallocated AS numbers are dropped, and paths where an ASN recurs
non-adjacently (routing loops) are dropped.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

MAX_ASN = 2**32 - 1


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
        self._starts = [lo for lo, _ in merged]
        self._ends = [hi for _, hi in merged]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "AllocationTable":
        ranges = []
        for n, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                if "-" in text:
                    lo, hi = text.split("-", 1)
                    ranges.append((int(lo), int(hi)))
                else:
                    v = int(text)
                    ranges.append((v, v))
            except ValueError as exc:
                raise ValueError(f"allocation file line {n}: {text!r}") from exc
        return cls(ranges)

    @classmethod
    def load(cls, path: str | Path) -> "AllocationTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_lines(fh)

    def __contains__(self, asn: int) -> bool:
        i = bisect_right(self._starts, asn) - 1
        return i >= 0 and asn <= self._ends[i]

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return list(zip(self._starts, self._ends))


def parse_path_line(line: str, line_number: int = 0) -> AsPath:
    """Parse one ``a|b|c`` line into an AsPath."""
    text = line.strip()
    if not text:
        raise PathParseError("empty line", line_number)
    hops = []
    for token in text.split("|"):
        token = token.strip()
        try:
            asn = int(token)
        except ValueError:
            raise PathParseError(f"not an ASN: {token!r}", line_number) from None
        if not 1 <= asn <= MAX_ASN:
            raise PathParseError(f"ASN out of range: {asn}", line_number)
        hops.append(asn)
    return AsPath(tuple(hops), line_number)


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
        return {
            "parsed": self.parsed,
            "compressed": self.compressed,
            "rejected_loop": self.rejected_loop,
            "rejected_unallocated": self.rejected_unallocated,
            "malformed": self.malformed,
            "accepted": self.accepted,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def ingest_lines(
    lines: Iterable[str], table: AllocationTable | None = None
) -> tuple[list[AsPath], IngestReport]:
    """Parse and sanitize an iterable of path lines.

    Blank lines and ``#`` comments are skipped silently; lines that fail
    to parse are counted as malformed and skipped so one bad line cannot
    abort a large dump.
    """
    report = IngestReport()
    paths: list[AsPath] = []
    for n, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            path = parse_path_line(text, n)
        except PathParseError:
            report.malformed += 1
            continue
        report.parsed += 1
        try:
            clean = sanitize(path, table)
        except PathRejected as rej:
            if rej.reason is RejectReason.LOOP:
                report.rejected_loop += 1
            else:
                report.rejected_unallocated += 1
            continue
        if len(clean.hops) < len(path.hops):
            report.compressed += 1
        paths.append(clean)
    return paths, report


def ingest_file(
    path: str | Path, table: AllocationTable | None = None
) -> tuple[list[AsPath], IngestReport]:
    """Read a paths file and return sanitized paths plus counters."""
    with open(path, encoding="utf-8") as fh:
        return ingest_lines(fh, table)


def write_paths_file(paths: Iterable[AsPath], out: str | Path) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        for p in paths:
            fh.write("|".join(str(h) for h in p.hops))
            fh.write("\n")
