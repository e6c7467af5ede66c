import pytest
from hypothesis import given, strategies as st

from bgprel.ingest import (
    MAX_ASN,
    AllocationTable,
    AsPath,
    IngestReport,
    PathParseError,
    PathRejected,
    RejectReason,
    ingest_file,
    ingest_lines,
    parse_path_line,
    sanitize,
    write_paths_file,
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
        assert 10 in table and 15 in table and 20 in table and 30 in table
        assert 9 not in table and 21 not in table and 29 not in table

    def test_merging_overlaps(self):
        table = AllocationTable([(1, 5), (4, 9), (11, 12)])
        assert table.ranges == [(1, 9), (11, 12)]

    def test_from_lines(self):
        table = AllocationTable.from_lines(["# allocated", "5", "100-200", ""])
        assert 5 in table and 150 in table and 6 not in table

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            AllocationTable([])

    def test_bad_line_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            AllocationTable.from_lines(["10", "abc"])


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
        assert paths == []
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

    def test_report_json_is_flat(self):
        import json

        doc = json.loads(IngestReport(parsed=2).to_json())
        assert all(isinstance(v, int) for v in doc.values())

    def test_roundtrip_write(self, tmp_path):
        paths, _ = ingest_lines(["11|22|33", "44|55"])
        out = tmp_path / "clean.txt"
        write_paths_file(paths, out)
        again, report = ingest_file(out)
        assert [p.hops for p in again] == [p.hops for p in paths]
        assert report.accepted == 2
