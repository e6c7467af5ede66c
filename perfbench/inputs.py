"""Workload inputs: the raw-dump rewrite of a synth paths file, the
allocation-range file, observed edges, and file digests.

Everything here is benchmark-side code with no bgprel import, so the
program under test never checks its own inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# Share of path lines with one hop prepended 2-4 times, and of lines after
# which an extra loop, malformed or unallocated line is inserted.  Inserted
# lines are all rejected by ingest, and prepending is undone by compression,
# so the accepted path set stays exactly the synth paths.
PREPEND_RATE = 0.15
LOOP_RATE = 0.001
MALFORMED_RATE = 0.001
UNALLOCATED_RATE = 0.001

# Private-use 32-bit ASNs (RFC 6996): never allocated, so never in the
# allocation file the benchmark writes.
PRIVATE_ASN_LO = 4_200_000_000
PRIVATE_ASN_HI = 4_294_967_294
MAX_ASN = 2**32 - 1

ALLOC_FILE = "asn_alloc.txt"


@dataclass(frozen=True)
class IngestCounts:
    """What bgprel's ingest report must say about a rewritten file."""

    parsed: int = 0
    compressed: int = 0
    rejected_loop: int = 0
    rejected_unallocated: int = 0
    malformed: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def _malformed(hops: list[str], rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return "|".join(hops[:-1] + ["AS" + hops[-1]])
    if kind == 1:
        return "|".join(hops[:1] + [""] + hops[1:])
    if kind == 2:
        return "|".join(hops + [str(MAX_ASN + 1 + rng.randrange(1000))])
    return " ".join(hops)


def rewrite_raw_dump(lines: list[str], seed: int) -> tuple[list[str], IngestCounts]:
    """Turn clean ``a|b|c`` path lines into raw-dump form.

    Returns the new lines (newline-free) and the ingest counts they must
    produce.  Every input path needs at least two hops.
    """
    rng = random.Random(seed)
    out = ["# raw AS path dump: vantage point first, prepending kept"]
    parsed = compressed = loops = malformed = unallocated = 0
    for line in lines:
        hops = line.split("|")
        if len(hops) < 2:
            raise ValueError(f"path needs two hops: {line!r}")
        parsed += 1
        if rng.random() < PREPEND_RATE:
            i = rng.randrange(len(hops))
            hops_out = hops[:i] + [hops[i]] * rng.randint(2, 4) + hops[i + 1:]
            out.append("|".join(hops_out))
            compressed += 1
        else:
            out.append(line)
        if rng.random() < LOOP_RATE:
            out.append("|".join(hops + hops[:1]))
            parsed += 1
            loops += 1
        if rng.random() < MALFORMED_RATE:
            out.append(_malformed(hops, rng))
            malformed += 1
        if rng.random() < UNALLOCATED_RATE:
            bogon = str(rng.randint(PRIVATE_ASN_LO, PRIVATE_ASN_HI))
            j = rng.randrange(1, len(hops))
            out.append("|".join(hops[:j] + [bogon] + hops[j + 1:]))
            parsed += 1
            unallocated += 1
    counts = IngestCounts(parsed, compressed, loops, unallocated, malformed)
    return out, counts


def alloc_lines(max_asn: int) -> list[str]:
    """Allocation ranges covering every synth ASN (1..max_asn) plus a
    public 32-bit block, leaving the private-use range unallocated."""
    return ["# allocated ASN ranges", f"1-{max_asn}", "131072-401308"]


def rewrite_bundle(data_dir: Path, clean_paths: Path, seed: int) -> IngestCounts:
    """Write ``paths.txt`` in raw-dump form from the clean synth paths,
    plus the allocation file."""
    lines = clean_paths.read_text(encoding="utf-8").splitlines()
    new_lines, counts = rewrite_raw_dump(lines, seed)
    (data_dir / "paths.txt").write_text("\n".join(new_lines) + "\n", encoding="utf-8")
    max_asn = max(int(h) for line in lines for h in line.split("|"))
    (data_dir / ALLOC_FILE).write_text(
        "\n".join(alloc_lines(max_asn)) + "\n", encoding="utf-8"
    )
    return counts


def observed_edges(paths_file: Path) -> set[tuple[int, int]]:
    """Unordered AS pairs adjacent in some path of a clean paths file."""
    edges: set[tuple[int, int]] = set()
    with open(paths_file, encoding="utf-8") as fh:
        for line in fh:
            hops = [int(h) for h in line.split("|")]
            for a, b in zip(hops, hops[1:]):
                edges.add((a, b) if a < b else (b, a))
    return edges


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digest_dir(directory: Path) -> dict[str, str]:
    """SHA-256 of every regular file directly under a directory."""
    return {
        p.name: sha256_file(p) for p in sorted(directory.iterdir()) if p.is_file()
    }
