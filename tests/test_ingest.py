import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgprel import ingest
from bgprel.ingest import (
    MAX_ASN,
    WHITESPACE,
    AllocationTable,
    AsPath,
    IngestReport,
    PathStore,
    ingest_file,
    ingest_lines,
    pack_pairs,
    pack_unordered_pairs,
    read_fields,
    unpack_pairs,
    write_json,
    write_paths_file,
    write_table,
)
from bgprel.topology import GraphSummary
from reference import (
    PathParseError,
    PathRejected,
    RejectReason,
    allocated_runs,
    is_allocated,
    parse_path_line,
    sanitize,
)


class TestParse:
    def test_basic_line(self):
        p = parse_path_line("1|2|3")
        assert p.hops == (1, 2, 3)
        assert p.vp == 1

    def test_real_world_shape(self):
        # typical collector row: vantage point first, origin last
        p = parse_path_line("6939|4826|38803|56203")
        assert len(p) == 4
        assert p.hops[0] == 6939 and p.hops[-1] == 56203

    def test_whitespace_tolerated(self):
        assert parse_path_line("  10 | 20 |30 ").hops == (10, 20, 30)

    def test_garbage_token(self):
        with pytest.raises(PathParseError) as err:
            parse_path_line("1|2|x", line_number=7)
        assert err.value.line_number == 7

    def test_empty_line(self):
        with pytest.raises(PathParseError):
            parse_path_line("   ")

    @pytest.mark.parametrize("bad", ["0|1", f"{MAX_ASN + 1}|1", "-5|1"])
    def test_asn_bounds(self, bad):
        with pytest.raises(PathParseError):
            parse_path_line(bad)

    def test_single_hop_is_valid(self):
        assert parse_path_line("65000").hops == (65000,)

    # int() would accept every one of these
    STRICT = ["+5|1", "1_000|2", "\u0661|2", "1|\uff12", "1|2\u00a0", "\u00b2|1", "1|-2"]

    @pytest.mark.parametrize("bad", STRICT)
    def test_only_ascii_digits(self, bad):
        with pytest.raises(PathParseError):
            parse_path_line(bad)

    @pytest.mark.parametrize("bad", STRICT + ["AS1|2", "1||2", "1 2|3", "1|2|"])
    def test_strict_tokens_are_malformed_in_ingest(self, bad):
        paths, report = ingest_lines([bad, "7|8"])
        assert [p.hops for p in paths] == [(7, 8)]
        assert report.malformed == 1 and report.parsed == 1

    def test_ascii_whitespace_and_leading_zeros(self):
        assert parse_path_line("\t007 |\x0b8\r\n").hops == (7, 8)

    def test_digit_runs_longer_than_int_accepts(self):
        # int() refuses strings of more than a few thousand digits
        padded, huge = "0" * 5000 + "9", "9" * 5000
        assert parse_path_line(f"{padded}|2").hops == (9, 2)
        with pytest.raises(PathParseError):
            parse_path_line(f"1|{huge}")
        paths, report = ingest_lines([f"{padded}|2", f"1|{huge}", f"# {huge}"])
        assert [p.hops for p in paths] == [(9, 2)]
        assert report.malformed == 1


class TestSanitize:
    def test_adjacent_duplicates_compressed(self):
        out = sanitize(AsPath((1, 2, 3, 3)))
        assert out.hops == (1, 2, 3)

    def test_compression_happens_before_loop_test(self):
        # A B B is prepending, not a loop
        assert sanitize(AsPath((7, 8, 8))).hops == (7, 8)

    def test_nonadjacent_repeat_is_loop(self):
        with pytest.raises(PathRejected) as err:
            sanitize(AsPath((1, 2, 1)))
        assert err.value.reason is RejectReason.LOOP

    def test_loop_after_compression(self):
        with pytest.raises(PathRejected) as err:
            sanitize(AsPath((1, 2, 2, 1)))
        assert err.value.reason is RejectReason.LOOP

    def test_unallocated_rejected(self):
        table = AllocationTable([(1, 10)])
        with pytest.raises(PathRejected) as err:
            sanitize(AsPath((1, 2, 99)), table)
        assert err.value.reason is RejectReason.UNALLOCATED
        assert err.value.asn == 99

    def test_no_table_skips_allocation_filter(self):
        out = sanitize(AsPath((1, 2, 4_000_000_000)))
        assert out.hops == (1, 2, 4_000_000_000)

    def test_source_line_preserved(self):
        assert sanitize(AsPath((5, 6, 6), source_line=12)).source_line == 12

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12))
    def test_idempotent_and_subsequence(self, hops):
        try:
            once = sanitize(AsPath(tuple(hops)))
        except PathRejected:
            return
        # running the cleaner again changes nothing
        assert sanitize(once).hops == once.hops
        # output hops are an ordered subsequence of the input
        it = iter(hops)
        assert all(any(h == x for x in it) for h in once.hops)
        # no ASN appears twice after cleaning
        assert len(set(once.hops)) == len(once.hops)


class TestAllocationTable:
    def test_membership(self):
        table = AllocationTable([(10, 20), (30, 30)])
        assert all(is_allocated(table, a) for a in (10, 15, 20, 30))
        assert not any(is_allocated(table, a) for a in (9, 21, 29))

    def test_merging_overlaps(self):
        table = AllocationTable([(1, 5), (4, 9), (11, 12)])
        assert allocated_runs(table, range(1, 20)) == [(1, 9), (11, 12)]

    def test_from_lines(self):
        table = AllocationTable.from_lines(["# allocated", "5", "100-200", ""])
        assert is_allocated(table, 5) and is_allocated(table, 150)
        assert not is_allocated(table, 6)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            AllocationTable([])

    def test_bad_line_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            AllocationTable.from_lines(["10", "abc"])

    @pytest.mark.parametrize("line", ["+5-20", "5-1_000", "0-9", "7-4294967296",
                                      "١-9", "-4"])
    def test_range_bounds_follow_the_hop_rule(self, tmp_path, line):
        alloc = tmp_path / "alloc.txt"
        alloc.write_text(f"10\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{alloc} line 2: ASN")):
            AllocationTable.load(alloc)

    def test_reversed_range_names_the_line(self, tmp_path):
        alloc = tmp_path / "alloc.txt"
        alloc.write_text("10\n9-5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{alloc} line 2: range 9-5")):
            AllocationTable.load(alloc)


class TestReadFields:
    def test_data_line_rule(self):
        lines = ["ASN ,x\n", "  # note\n", "\t\r\n", "\n", " 10 , a \r\n", "asn,y"]
        assert list(read_fields("f", ",", "asn", lines)) == [
            ("f line 5", ["10 ", " a"]), ("f line 6", ["asn", "y"])]

    @pytest.mark.parametrize("line", ["\u00a0", "\u00a0# note", "\u2003 5", "\x1c"])
    def test_only_ascii_whitespace_is_trimmed(self, line):
        assert list(read_fields("f", lines=[line + "\n"])) == [("f line 1", [line])]

    def test_byte_that_is_not_utf8_names_the_line(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_bytes(b"# caf\xe9\n5\n6\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{f} line 3: byte that is not UTF-8")):
            list(read_fields(f))

    def test_quote_in_comma_separated_line_is_refused(self):
        assert list(read_fields("f", "|", lines=['1|"2"'])) == [("f line 1", ["1", '"2"'])]
        with pytest.raises(ValueError, match="f line 2: quoted fields"):
            list(read_fields("f", ",", lines=["1,a", '2,"b, c"']))


class TestIngest:
    def test_three_valid_lines(self, tmp_path):
        f = tmp_path / "paths.txt"
        f.write_text("1|2|3\n4|5\n6|7|8|9\n")
        paths, report = ingest_file(f)
        assert len(paths) == 3
        assert report.parsed == 3
        assert report.rejected_loop == 0
        assert report.rejected_unallocated == 0
        assert report.accepted == 3

    def test_loop_counted(self):
        paths, report = ingest_lines(["1|2|1"])
        assert len(paths) == 0
        assert report.rejected_loop == 1

    def test_comments_and_blanks_skipped(self):
        paths, report = ingest_lines(["# header", "", "1|2", "   "])
        assert len(paths) == 1
        assert report.parsed == 1

    def test_malformed_counted_not_fatal(self):
        paths, report = ingest_lines(["1|2", "1|oops|3", "4|5"])
        assert len(paths) == 2
        assert report.malformed == 1

    def test_compressed_counter(self):
        _, report = ingest_lines(["1|2|2|3", "4|5"])
        assert report.compressed == 1

    def test_allocation_filter_applied(self):
        table = AllocationTable([(1, 5)])
        paths, report = ingest_lines(["1|2|3", "1|2|9"], table)
        assert len(paths) == 1
        assert report.rejected_unallocated == 1

    def test_report_json_is_flat(self, tmp_path):
        out = tmp_path / "report.json"
        write_json(out, IngestReport(parsed=2).as_dict())
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["parsed"] == doc["accepted"] == 2
        assert all(isinstance(v, int) for v in doc.values())

    def test_roundtrip_write(self, tmp_path):
        paths, _ = ingest_lines(["11|22|33", "44|55"])
        out = tmp_path / "clean.txt"
        write_paths_file(paths, out)
        again, report = ingest_file(out)
        assert [p.hops for p in again] == [p.hops for p in paths]
        assert [p.hops for p in paths] == [(11, 22, 33), (44, 55)]
        assert report.accepted == 2

    @pytest.mark.parametrize("batch", [1, 2, 1 << 16])
    def test_write_in_batches(self, tmp_path, monkeypatch, batch):
        monkeypatch.setattr(ingest, "_PATH_BATCH", batch)
        paths, _ = ingest_lines(["11|22|33", "44|55", "4294967295|1000000000|9"])
        out = tmp_path / "clean.txt"
        write_paths_file(paths, out)
        assert out.read_text() == "11|22|33\n44|55\n4294967295|1000000000|9\n"

    def test_non_utf8_byte_is_a_malformed_line(self, tmp_path):
        src = tmp_path / "paths.txt"
        src.write_bytes(b"1|2|3\n4|5\xff|6\n7|8\n")
        paths, report = ingest_file(src)
        assert [p.hops for p in paths] == [(1, 2, 3), (7, 8)]
        assert report.malformed == 1 and report.parsed == 2

    def test_non_utf8_bytes_in_comments_and_alone(self, tmp_path):
        src = tmp_path / "paths.txt"
        src.write_bytes(b"# caf\xe9\n\xff\xfe\n9|10\n\xc3\n")
        paths, report = ingest_file(src)
        assert [p.hops for p in paths] == [(9, 10)]
        assert report.malformed == 2

    def test_write_empty_store(self, tmp_path):
        out = tmp_path / "clean.txt"
        write_paths_file(PathStore.from_hops([]), out)
        assert out.read_bytes() == b""


# -- batch ingest against the per-path reference ------------------------


def reference_ingest(lines, table):
    """``parse_path_line`` + ``sanitize`` applied line by line."""
    report = IngestReport()
    accepted = []
    for raw in lines:
        text = raw.strip(WHITESPACE)
        if not text or text.startswith("#"):
            continue
        try:
            path = parse_path_line(text)
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
        accepted.append(clean.hops)
    return accepted, report


# ASNs 1..12 are allocated in the test table; 13..15 are not.  A small
# universe makes prepends, loops and loop-plus-unallocated paths common.
_space = st.sampled_from(["", " ", "\t", "  ", "\x0b", "\x0c", "\r"])
_asn = st.integers(min_value=1, max_value=15)


@st.composite
def _token(draw):
    text = str(draw(_asn))
    return draw(_space) + text + draw(_space)


@st.composite
def _path_tokens(draw):
    tokens = draw(st.lists(_token(), min_size=1, max_size=8))
    if draw(st.booleans()):  # prepend: repeat one hop a few times
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i:i + 1] = [tokens[i]] * draw(st.integers(2, 4))
    return tokens


@st.composite
def _malformed(draw, tokens):
    kind = draw(st.sampled_from(["as", "empty", "big", "spaces", "strict"]))
    i = draw(st.integers(0, len(tokens) - 1))
    tokens = list(tokens)
    if kind == "as":
        tokens[i] = "AS" + tokens[i].strip(WHITESPACE)
    elif kind == "empty":
        tokens.insert(i, draw(_space))
    elif kind == "big":
        tokens[i] = str(MAX_ASN + 1 + draw(st.integers(0, 10**12)))
    elif kind == "spaces":
        return " ".join(t.strip(WHITESPACE) for t in tokens + ["1"])
    else:
        tokens[i] = draw(st.sampled_from(["+5", "1_0", "\u0663", "0", "\u00a0"]))
    return "|".join(tokens)


@st.composite
def _line(draw):
    kind = draw(st.sampled_from(["path", "path", "path", "malformed", "comment", "blank"]))
    if kind == "comment":
        body = draw(_space) + "#" + draw(st.text(max_size=10).filter(
            lambda t: "\n" not in t and "\r" not in t))
    elif kind == "blank":
        body = draw(_space)
    else:
        tokens = draw(_path_tokens())
        body = "|".join(tokens) if kind == "path" else draw(_malformed(tokens))
    return body + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_line(), max_size=25),
    allocated=st.booleans(),
    batch=st.sampled_from([1, 2, 5, 1 << 16]),
)
def test_batch_ingest_matches_reference(lines, allocated, batch):
    table = AllocationTable([(1, 12)]) if allocated else None
    want_paths, want_report = reference_ingest(lines, table)
    with mock.patch.object(ingest, "_BLOCK_BYTES", batch):
        paths, report = ingest_lines(lines, table)
    assert [p.hops for p in paths] == want_paths
    assert report == want_report


# -- the byte reader against the per-path reference over text-mode lines ----

_END = st.sampled_from([b"\n", b"\r\n", b"\r"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])


@st.composite
def _raw_file(draw):
    """Lines from ``_line`` as bytes, each ended by LF, CRLF or a lone
    CR, some with a byte that is not UTF-8, the last maybe unended."""
    out = b""
    lines = draw(st.lists(_line(), max_size=25))
    for i, line in enumerate(lines):
        body = line.rstrip("\r\n").encode("utf-8", "surrogatepass")
        if draw(st.integers(0, 5)) == 0:
            at = draw(st.integers(0, len(body)))
            body = body[:at] + draw(_NOT_UTF8) + body[at:]
        last = i == len(lines) - 1
        out += body + (b"" if last and draw(st.booleans()) else draw(_END))
    return out


def _line_starts(data: bytes) -> list[int]:
    return [i + 1 for i, c in enumerate(data) if c in b"\r\n" and i + 1 < len(data)]


@settings(max_examples=300, deadline=None)
@given(data=_raw_file(), allocated=st.booleans(),
       block=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]), picks=st.data())
def test_reader_matches_reference_over_text_lines(data, allocated, block, picks):
    table = AllocationTable([(1, 12)]) if allocated else None
    starts = _line_starts(data)
    cuts = sorted(picks.draw(st.sets(st.sampled_from(starts)) if starts else st.just(set())))
    bounds = [0, *cuts, None]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "paths.txt"
        path.write_bytes(data)
        with ingest.open_text(path) as fh:
            want_paths, want_report = reference_ingest(list(fh), table)
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            parts = [ingest._ingest_range(path, table, PathStore, span)
                     for span in zip(bounds, bounds[1:])]
    paths = PathStore.fold(p for p, _ in parts)
    assert [p.hops for p in paths] == want_paths
    assert sum((r for _, r in parts), IngestReport()) == want_report


@pytest.mark.parametrize("parts", [1, 2, 3, 7, 50])
def test_line_ranges_cover_the_file_at_line_starts(tmp_path, parts):
    data = b"1|2\r\n3|4\r5|6\n\n# c\r\n7|8"
    path = tmp_path / "paths.txt"
    path.write_bytes(data)
    ranges = ingest._line_ranges(path, parts)
    assert ranges[0][0] == 0 and ranges[-1][1] is None and len(ranges) <= parts
    assert all(lo < hi and hi == after for (lo, hi), (after, _) in zip(ranges, ranges[1:]))
    assert {hi for _, hi in ranges[:-1]} <= set(_line_starts(data))


def test_an_empty_file_is_one_range(tmp_path):
    path = tmp_path / "paths.txt"
    path.write_bytes(b"")
    assert ingest._line_ranges(path, 4) == [(0, None)]
    paths, report = ingest_file(path)
    assert len(paths) == 0 and report == IngestReport()


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
@pytest.mark.parametrize("into", [PathStore, GraphSummary])
def test_a_pipe_is_read_to_its_end(into):
    read, write = os.pipe()
    os.write(write, b"1|2\n3|4|5\nx\n")
    os.close(write)
    try:
        _, report = ingest_file(f"/dev/fd/{read}", None, into)
    finally:
        os.close(read)
    assert (report.parsed, report.malformed) == (2, 1)


def test_forked_ranges_match_one_range(tmp_path, monkeypatch):
    # odd lines cycle through 97 VPs, so every range sees them all; even
    # lines take 75 VPs in turn, 40 lines each, so later ranges bring VPs
    # the earlier ones lack
    lines = [f"{i % 97 + 1 if i % 2 else 1000 + i // 40}|{i % 89 + 200}|{i % 13 + 500}"
             for i in range(3000)]
    lines[7] = "1|x|2"
    path = tmp_path / "paths.txt"
    path.write_bytes("\r\n".join(lines).encode())
    one = ingest_file(path, None, GraphSummary)
    store = ingest_file(path)
    monkeypatch.setattr(ingest, "_RANGE_FLOOR", 1)
    monkeypatch.setattr(ingest, "worker_count", lambda runs: 3)
    assert len(ingest._line_ranges(path, 3)) == 3
    three = ingest_file(path, None, GraphSummary)
    assert three[1] == one[1] == store[1] and one[1].malformed == 1
    for f in dataclasses.fields(GraphSummary):
        assert np.array_equal(getattr(three[0], f.name), getattr(one[0], f.name)), f.name
    # a store is read as one range whatever the worker count
    monkeypatch.setattr(ingest, "map_runs", None)
    again = ingest_file(path)
    assert again[1] == store[1] and np.array_equal(again[0].hops, store[0].hops)


# -- ASN pair keys -----------------------------------------------------------

_EDGE_ASNS = [1, 2, 2**31 - 1, 2**31, 2**32 - 2, MAX_ASN]
_asn = st.one_of(st.sampled_from(_EDGE_ASNS), st.integers(1, MAX_ASN))


@pytest.mark.parametrize("a", _EDGE_ASNS)
@pytest.mark.parametrize("b", _EDGE_ASNS)
def test_pair_keys_round_trip_at_the_bounds(a, b):
    key = pack_pairs(np.array([a]), np.array([b]))
    assert key.dtype == np.uint64
    assert int(key[0]) == a * 2**32 + b
    assert unpack_pairs(key).tolist() == [[a, b]]
    assert unpack_pairs(key).dtype == np.int64
    assert unpack_pairs(pack_unordered_pairs(np.array([a]), np.array([b]))).tolist() == [
        [min(a, b), max(a, b)]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_asn, _asn), max_size=30))
def test_pair_key_order_is_tuple_order(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    keys = pack_pairs(a, b)
    assert unpack_pairs(keys).reshape(-1, 2).tolist() == [list(p) for p in pairs]
    order = np.argsort(keys, kind="stable").tolist()
    assert order == sorted(range(len(pairs)), key=lambda i: pairs[i])
    unordered = pack_unordered_pairs(a, b)
    assert np.array_equal(unordered, pack_unordered_pairs(b, a))
    assert unpack_pairs(unordered).reshape(-1, 2).tolist() == [
        sorted(p) for p in pairs]


class TestWriters:
    def test_table_with_and_without_header(self, tmp_path):
        out = tmp_path / "t.csv"
        write_table(out, [(1, "x", 2.5), (3, "y", -1)], ["a", "b", "c"])
        assert out.read_bytes() == b"a,b,c\n1,x,2.5\n3,y,-1\n"
        write_table(out, [(1, "x"), (3, "y")])
        assert out.read_bytes() == b"1,x\n3,y\n"

    def test_table_separator(self, tmp_path):
        out = tmp_path / "t.txt"
        write_table(out, [(7, 9, -1), (9, 11, 0)], sep="|")
        assert out.read_bytes() == b"7|9|-1\n9|11|0\n"
        write_table(out, [(7, 9)], ["a", "b"], sep="|")
        assert out.read_bytes() == b"a|b\n7|9\n"

    def test_table_without_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        write_table(out, [], ["a", "b"])
        assert out.read_bytes() == b"a,b\n"
        write_table(out, [])
        assert out.read_bytes() == b""

    def test_floats_read_back_exactly(self, tmp_path):
        values = [0.1, 1 / 3, -2.5e16, 1e-300, 5e-324, 1.7976931348623157e308,
                  -0.0, float("inf"), float(np.float32(0.1)), 123456789.125]
        out = tmp_path / "f.csv"
        write_table(out, [(v, -v) for v in values])
        got = [[float(t) for t in line.split(",")]
               for line in out.read_text(encoding="utf-8").splitlines()]
        assert got == [[v, -v] for v in values]
        assert out.read_text(encoding="utf-8").splitlines()[0] == "0.1,-0.1"

    def test_a_generator_is_consumed_once(self, tmp_path):
        pulled = []

        def rows():
            for k in range(5):
                pulled.append(k)
                yield k, k * k

        gen = rows()
        out = tmp_path / "g.csv"
        write_table(out, gen, ["k", "square"])
        assert pulled == list(range(5)) and next(gen, None) is None
        assert out.read_bytes() == b"k,square\n0,0\n1,1\n2,4\n3,9\n4,16\n"

    def test_json_layout(self, tmp_path):
        doc = {"b": [1, 2.5, None], "a": {"z": True, "y": "\u00e9"}, "c": 0.1}
        out = tmp_path / "d.json"
        write_json(out, doc)
        assert out.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True)
                                    + "\n").encode("utf-8")


def test_importing_ingest_loads_only_what_it_uses():
    """The package imports no submodule of its own: a fresh interpreter
    that imports ``bgprel.ingest`` holds it and what it imports."""
    code = (
        "import sys\n"
        "import bgprel.ingest\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'bgprel'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['bgprel', 'bgprel.evaluate', 'bgprel.ingest']"


def test_summary_ingest_memory_stays_bounded(tmp_path):
    """The tracemalloc peak of summarizing the default synth's paths
    (1x, one byte range) is set by a parse block, not by the file: about
    3.3 MB with 96 KiB blocks, against 9.2 MB with 256 KiB blocks."""
    from bgprel.cli import run

    assert run(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "paths.txt"
    assert os.path.getsize(path) < ingest._RANGE_FLOOR
    tracemalloc.start()
    try:
        summary, report = ingest_file(path, None, GraphSummary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.accepted > 90_000 and len(summary.nodes) > 1_000
    assert peak < 3.6e6, f"peak {peak / 1e6:.2f} MB"
