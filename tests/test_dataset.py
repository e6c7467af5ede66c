import itertools
import random
import re
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgprel.dataset import (
    BINARY_CLASSES,
    MULTI_CLASSES,
    LabelSource,
    LabelTable,
    RelLabel,
    apply_ixp_labels,
    apply_sibling_labels,
    balance_and_split,
    load_label_source,
    load_org_map,
    mode_classes,
    vote_intersection,
)
from bgprel.ingest import load_asn_set
from bgprel.pipeline import restrict_to_graph
from bgprel.topology import AsGraph, load_clique_file, load_type_map

Row = namedtuple("Row", "a b label split provenance")


def src(name, entries):
    return LabelSource(name, *np.array(list(entries), dtype=np.int64).reshape(-1, 3).T)


def source_rows(source):
    """A source's rows as (a, b, code) tuples."""
    return list(zip(source.a.tolist(), source.b.tolist(), source.code.tolist()))


def rows(table):
    return [Row(*r) for r in table.rows()]


def pair(r):
    return (min(r.a, r.b), max(r.a, r.b))


def get(table, a, b):
    """The row of the unordered pair {a, b}, or None."""
    return next((r for r in rows(table) if pair(r) == (min(a, b), max(a, b))), None)


def table(*entries):
    return LabelTable.from_rows(Row(*e) for e in entries)


class TestLabeledEdgeSet:
    """LabelTable storage: orientation, row selection, the csv round
    trip and the checks ``read_csv`` makes on outside files."""

    def test_p2p_stored_smaller_first(self):
        e = rows(table((9, 2, RelLabel.P2P, "", "")))[0]
        assert (e.a, e.b) == (2, 9)

    def test_p2c_keeps_provider_first(self):
        s = table((9, 2, RelLabel.P2C, "", ""))
        e = rows(s)[0]
        assert (e.a, e.b) == (9, 2)
        assert get(s, 2, 9) == e

    def test_subset_keeps_flagged_entries_in_order(self):
        s = table((9, 2, RelLabel.P2C, "", ""),
                  (5, 1, RelLabel.P2P, "", ""),
                  (3, 4, RelLabel.S2S, "", ""))
        sub = s.take(np.array([True, False, True]))
        assert rows(sub) == [rows(s)[0], rows(s)[2]]
        assert get(sub, 1, 5) is None and len(s) == 3

    def test_duplicate_pair_rejected(self, tmp_path):
        f = tmp_path / "truth.csv"
        f.write_text("a,b,label\n1,2,p2p\n2,1,p2c\n")
        with pytest.raises(ValueError, match=r"line 3: duplicate pair \(1, 2\), first on line 2"):
            LabelTable.read_csv(f)

    def test_self_pair_rejected(self, tmp_path):
        f = tmp_path / "truth.csv"
        f.write_text("a,b,label\n3,3,p2p\n")
        with pytest.raises(ValueError, match="line 2: self relationship"):
            LabelTable.read_csv(f)

    def test_csv_roundtrip(self, tmp_path):
        s = table((5, 2, RelLabel.P2C, "train", "vote"),
                  (7, 3, RelLabel.X2X, "test", "ixp_list"))
        f = tmp_path / "dataset.csv"
        s.write_csv(f)
        again = LabelTable.read_csv(f)
        assert rows(again) == rows(s)
        assert rows(again)[1][:2] == (3, 7)
        header = f.read_text().splitlines()[0]
        assert header == "a,b,label,split,provenance"


# every token here breaks the hop rule; int() accepts most of them
BAD_TOKENS = ["99999999999999999999", "-4", "+7", "1_000", "0", "4294967296",
              "١", "AS5"]


class TestAsnTokens:
    LOADERS = {
        "ixps": ("ixps.txt", "900\n{}\n", 2, load_asn_set),
        "orgs": ("orgs.csv", "asn,org_id\n10,acme\n{},acme\n", 3, load_org_map),
        "clique": ("clique.txt", "# core\n1\n{}\n", 3, load_clique_file),
        "truth": ("truth.csv", "a,b,label\n1,2,p2p\n{},3,p2c\n", 3, LabelTable.read_csv),
    }

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("token", BAD_TOKENS)
    def test_bad_asn_names_file_and_line(self, tmp_path, loader, token):
        name, text, line, load = self.LOADERS[loader]
        f = tmp_path / name
        f.write_text(text.format(token), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{f} line {line}: ASN")):
            load(f)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_padded_asns_accepted(self, tmp_path, loader):
        name, text, _, load = self.LOADERS[loader]
        f = tmp_path / name
        f.write_text(text.format(" 0004294967295\t"), encoding="utf-8")
        load(f)


class TestTextRows:
    """The data-line rule as ``read_csv`` and the ``asn,value`` readers
    see it."""

    @pytest.mark.parametrize("field", ["\u00a07\u00a0".encode(), b"7\xff"])
    def test_read_csv_bad_asn_field_names_the_line(self, tmp_path, field):
        f = tmp_path / "truth.csv"
        f.write_bytes(b"a,b,label\n1,2,p2p\n" + field + b",3,p2c\n")
        with pytest.raises(ValueError, match=re.escape(f"{f} line 3: ")):
            LabelTable.read_csv(f)

    def test_read_csv_crlf_blank_and_comment_lines_change_nothing(self, tmp_path):
        plain, messy = tmp_path / "plain.csv", tmp_path / "messy.csv"
        plain.write_text("a,b,label,split\n5,2,p2c,train\n3,7,x2x,test\n")
        messy.write_bytes(b"a,b,label,split\r\n\r\n# planted\r\n5,2,p2c,train\r\n"
                          b" \t\r\n3,7,x2x,test\r\n  # end\r\n")
        assert rows(LabelTable.read_csv(messy)) == rows(LabelTable.read_csv(plain))

    def test_read_csv_header_is_optional(self, tmp_path):
        f = tmp_path / "truth.csv"
        f.write_text("5,2,p2c\n")
        assert rows(LabelTable.read_csv(f)) == [Row(5, 2, RelLabel.P2C, "", "")]

    @pytest.mark.parametrize("name,text,load", [
        ("orgs.csv", 'asn,org_id\n10,"acme, inc"\n', load_org_map),
        ("types.csv", 'asn,type\n10,"content"\n', load_type_map),
        ("truth.csv", 'a,b,label\n"1",2,p2p\n', LabelTable.read_csv),
    ])
    def test_quoted_csv_field_is_refused(self, tmp_path, name, text, load):
        f = tmp_path / name
        f.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{f} line 2: quoted fields")):
            load(f)

    @pytest.mark.parametrize("name,text,load", [
        ("orgs.csv", "asn,org_id\n10,acme\n11,acme\n10,other\n", load_org_map),
        ("types.csv", "asn,type\n10,content\n11,content\n10,content\n", load_type_map),
    ], ids=["orgs", "types"])
    def test_asn_read_twice_is_refused_naming_both_lines(self, tmp_path, name, text,
                                                         load):
        f = tmp_path / name
        f.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{f} line 4: duplicate AS10, first on line 2")):
            load(f)


class TestLabelSourceFile:
    def test_codes(self, tmp_path):
        f = tmp_path / "rel.txt"
        f.write_text("# inferred\n1|2|0\n3|4|-1\n")
        s = load_label_source(f)
        assert source_rows(s) == [(1, 2, 0), (3, 4, -1)]

    def test_extra_fields_ignored(self, tmp_path):
        f = tmp_path / "rel.txt"
        f.write_text("1|2|0|bgp\n")
        assert source_rows(load_label_source(f)) == [(1, 2, 0)]

    @pytest.mark.parametrize("line", [
        "0|2|0", "1|-3|0", "4294967296|2|-1", "5|99999999999999999999|0",
    ])
    def test_out_of_range_asn_rejected(self, tmp_path, line):
        f = tmp_path / "rel.txt"
        f.write_text(f"4294967295|1|0\n{line}\n")
        with pytest.raises(ValueError, match="rel.txt line 2: ASN out of range"):
            load_label_source(f)

    def test_unsupported_code(self, tmp_path):
        f = tmp_path / "rel.txt"
        f.write_text("1|2|7\n")
        with pytest.raises(ValueError, match="unsupported code"):
            load_label_source(f)

    @pytest.mark.parametrize("code", ["+0", "00", "-0", "\u00a00", "\u0660", "0_0", ""])
    def test_code_is_0_or_minus_1_as_written(self, tmp_path, code):
        f = tmp_path / "rel.txt"
        f.write_text(f"1|2| -1\t\n3|4|{code}|x\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{f} line 2: unsupported code")):
            load_label_source(f)

    def test_empty_source_has_empty_columns(self, tmp_path):
        f = tmp_path / "rel.txt"
        f.write_text("# nothing inferred\n")
        s = load_label_source(f)
        assert [c.dtype for c in (s.a, s.b, s.code)] == [np.int64] * 3
        assert source_rows(s) == []


class TestCliqueFile:
    def test_empty_clique_file_is_refused(self, tmp_path):
        f = tmp_path / "clique.txt"
        f.write_text("# core\n\n")
        with pytest.raises(ValueError, match=re.escape(f"clique file is empty: {f}")):
            load_clique_file(f)


def random_sources(universe, rng, n=60):
    """Three sources of ``n`` random calls each over pairs of ``universe``."""
    pairs = list(itertools.combinations(universe, 2))
    sources = []
    for name in "abc":
        entries = []
        for a, b in rng.sample(pairs, n):
            code = rng.choice([0, -1])
            if code == -1 and rng.random() < 0.5:
                a, b = b, a
            entries.append((a, b, code))
        sources.append(src(name, entries))
    return sources


def vote_oracle(sources):
    """Brute-force unanimous vote: (rows in pair order, union size)."""
    def calls(s):
        out = {}
        for a, b, code in source_rows(s):
            key = (min(a, b), max(a, b))
            val = ("p2p", None) if code == 0 else ("p2c", a)
            if key in out and out[key] != val:
                out[key] = "conflict"
            else:
                out.setdefault(key, val)
        return {k: v for k, v in out.items() if v != "conflict"}

    maps = [calls(s) for s in sources]
    union = set().union(*maps)
    wanted = sorted(
        k for k in union if all(k in m for m in maps) and len({m[k] for m in maps}) == 1
    )
    out = []
    for lo, hi in wanted:
        label, provider = maps[0][(lo, hi)]
        if label == "p2p":
            out.append(Row(lo, hi, RelLabel.P2P, "", "vote"))
        else:
            out.append(Row(provider, hi if provider == lo else lo, RelLabel.P2C, "", "vote"))
    return out, len(union)


def override_oracle(entries, orgs, ixps):
    """Both override passes, one row at a time: IXP beats org beats vote."""
    out = []
    for r in entries:
        lo, hi = pair(r)
        if r.a in ixps or r.b in ixps:
            r = Row(lo, hi, RelLabel.X2X, r.split, "ixp_list")
        elif orgs.get(r.a) is not None and orgs.get(r.a) == orgs.get(r.b):
            r = Row(lo, hi, RelLabel.S2S, r.split, "org_map")
        out.append(r)
    return out


def split_oracle(entries, seed, mode):
    """balance_and_split on a plain list of rows."""
    classes = BINARY_CLASSES if mode == "binary" else MULTI_CLASSES
    grouped = {c: sorted((r for r in entries if r.label is c), key=pair) for c in classes}
    rng = random.Random(seed)
    floor = min(len(g) for g in grouped.values())
    out = []
    for c in classes:
        pool = grouped[c]
        if mode == "multi" and len(pool) > floor:
            pool = rng.sample(pool, floor)
        else:
            pool = list(pool)
        rng.shuffle(pool)
        n_train = round(0.6 * len(pool))
        n_val = min(round(0.2 * len(pool)), len(pool) - n_train)
        for i, r in enumerate(pool):
            split = "train" if i < n_train else "val" if i < n_train + n_val else "test"
            out.append(r._replace(split=split))
    return out


# ASNs on both sides of 2**31, up to the largest; (2**32 - 1, 2**32 - 2)
# is where a signed 64-bit key holding a pair and its call overflows
HIGH_MIXED = (list(range(1, 13)) + [2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30]
              + [2**32 - 1 - k for k in range(8)])


class TestVoting:
    def test_unanimous_pairs_survive(self):
        a = src("a", [(1, 2, 0), (3, 4, -1), (5, 6, 0)])
        b = src("b", [(1, 2, 0), (3, 4, -1), (7, 8, 0)])
        voted, report = vote_intersection([a, b])
        assert {pair(e) for e in rows(voted)} == {(1, 2), (3, 4)}
        assert report.union_pairs == 4
        assert report.intersection_pairs == 2
        assert report.coincidence_rate == pytest.approx(0.5)

    def test_label_disagreement_excluded(self):
        a = src("a", [(1, 2, 0)])
        b = src("b", [(1, 2, -1)])
        voted, _ = vote_intersection([a, b])
        assert len(voted) == 0

    def test_provider_orientation_must_match(self):
        # both call it p2c but disagree on who the provider is
        a = src("a", [(1, 2, -1)])
        b = src("b", [(2, 1, -1)])
        voted, _ = vote_intersection([a, b])
        assert len(voted) == 0

    def test_p2p_orientation_is_free(self):
        a = src("a", [(9, 2, 0)])
        b = src("b", [(2, 9, 0)])
        voted, _ = vote_intersection([a, b])
        assert [pair(e) for e in rows(voted)] == [(2, 9)]
        assert rows(voted)[0].label is RelLabel.P2P

    def test_self_agreement_identity(self):
        entries = [(4, 2, -1), (1, 3, 0), (5, 6, 0)]
        voted, report = vote_intersection([src("a", entries), src("b", entries)])
        assert len(voted) == 3
        assert report.coincidence_rate == 1.0
        e = get(voted, 4, 2)
        assert e.label is RelLabel.P2C and e.a == 4

    def test_needs_two_sources(self):
        with pytest.raises(ValueError):
            vote_intersection([src("a", [(1, 2, 0)])])

    def test_inconsistent_rows_within_source_dropped(self):
        a = src("a", [(1, 2, 0), (2, 1, -1)])
        b = src("b", [(1, 2, 0)])
        voted, report = vote_intersection([a, b])
        assert len(voted) == 0
        assert report.inconsistent_dropped == 1

    def test_rate_matches_brute_force(self):
        rng = random.Random(17)
        for universe in (range(1, 25), HIGH_MIXED):
            sources = random_sources(universe, rng)
            sources = [src(s.name, source_rows(s) + [(2**32 - 1, 2**32 - 2, -1)])
                       for s in sources]
            voted, report = vote_intersection(sources)
            want, union = vote_oracle(sources)
            # pairs, labels, provider side and row order
            assert rows(voted) == want
            assert Row(2**32 - 1, 2**32 - 2, RelLabel.P2C, "", "vote") in want
            assert report.coincidence_rate == pytest.approx(len(want) / union)

    def test_repeated_file_names_keep_every_size(self):
        a = src("x.txt", [(1, 2, 0)])
        b = src("x.txt", [(1, 2, 0), (3, 4, 0)])
        c = src("y.txt", [(1, 2, 0)])
        _, report = vote_intersection([a, b, c])
        assert report.source_sizes == {"x.txt#1": 1, "x.txt#2": 2, "y.txt": 1}
        _, report = vote_intersection([a, c])
        assert report.source_sizes == {"x.txt": 1, "y.txt": 1}


class TestOverrides:
    def base(self):
        return table((1, 2, RelLabel.P2P, "", "vote"),
                     (3, 4, RelLabel.P2C, "", "vote"),
                     (5, 6, RelLabel.P2P, "", "vote"))

    def test_same_org_becomes_sibling(self):
        out = apply_sibling_labels(self.base(), {3: "orgX", 4: "orgX"})
        assert get(out, 3, 4).label is RelLabel.S2S
        assert get(out, 3, 4).provenance == "org_map"
        assert get(out, 1, 2).label is RelLabel.P2P

    def test_partial_org_map_is_fine(self):
        out = apply_sibling_labels(self.base(), {3: "orgX"})
        assert get(out, 3, 4).label is RelLabel.P2C

    def test_ixp_endpoint_becomes_exchange(self):
        out = apply_ixp_labels(self.base(), {6})
        assert get(out, 5, 6).label is RelLabel.X2X
        assert get(out, 5, 6).provenance == "ixp_list"

    def test_precedence_ixp_over_org(self):
        orgs = {5: "orgY", 6: "orgY"}
        ixps = {6}
        one = apply_ixp_labels(apply_sibling_labels(self.base(), orgs), ixps)
        two = apply_sibling_labels(apply_ixp_labels(self.base(), ixps), orgs)
        assert rows(one) == rows(two)
        assert get(one, 5, 6).label is RelLabel.X2X

    def test_override_order_never_matters(self):
        rng = random.Random(29)
        for trial in range(25):
            entries = []
            for a, b in itertools.combinations(range(1, 12), 2):
                if rng.random() < 0.4:
                    label = rng.choice([RelLabel.P2P, RelLabel.P2C])
                    if label is RelLabel.P2C and rng.random() < 0.5:
                        a, b = b, a
                    entries.append((a, b, label, "", "vote"))
            entries = table(*entries)
            orgs = {n: f"org{rng.randrange(4)}" for n in range(1, 12) if rng.random() < 0.5}
            ixps = {n for n in range(1, 12) if rng.random() < 0.2}
            one = apply_ixp_labels(apply_sibling_labels(entries, orgs), ixps)
            two = apply_sibling_labels(apply_ixp_labels(entries, ixps), orgs)
            assert rows(one) == rows(two)

    def test_loaders(self, tmp_path):
        orgs = tmp_path / "orgs.csv"
        orgs.write_text("asn,org_id\n10,acme\n11,acme\n")
        assert load_org_map(orgs) == {10: "acme", 11: "acme"}
        ixps = tmp_path / "ixps.txt"
        ixps.write_text("# exchanges\n900\n901\n")
        assert load_asn_set(ixps) == {900, 901}

    @pytest.mark.parametrize("header", ["asn,org_id", "ASN,org", " Asn ,x"])
    def test_org_map_header_is_recognised_by_its_text(self, tmp_path, header):
        orgs = tmp_path / "orgs.csv"
        orgs.write_text(f"{header}\n10,acme\n")
        assert load_org_map(orgs) == {10: "acme"}

    @pytest.mark.parametrize("first", ["+7,acme", "org_id,asn", "AS7,acme"])
    def test_org_map_first_line_that_is_no_header_is_data(self, tmp_path, first):
        orgs = tmp_path / "orgs.csv"
        orgs.write_text(f"{first}\n10,acme\n")
        with pytest.raises(ValueError, match=re.escape(f"{orgs} line 1: ASN")):
            load_org_map(orgs)


class TestHighAsns:
    def test_label_stages_match_list_oracles(self):
        rng = random.Random(3)
        # three copies of one source, each with a fifth of its calls redrawn
        base = source_rows(random_sources(HIGH_MIXED, rng, n=200)[0])
        sources = [
            src(name, [(b, a, rng.choice([0, -1])) if rng.random() < 0.2 else (a, b, c)
                       for a, b, c in base])
            for name in "abc"
        ]
        voted, _ = vote_intersection(sources)
        want, _ = vote_oracle(sources)
        assert rows(voted) == want

        orgs = {a: f"org{rng.randrange(3)}" for a in HIGH_MIXED if rng.random() < 0.6}
        ixps = {2**32 - 3, 2**31, 5}
        labeled = apply_sibling_labels(apply_ixp_labels(voted, ixps), orgs)
        want = override_oracle(want, orgs, ixps)
        assert rows(labeled) == want
        assert all(n > 3 for n in labeled.counts().values())

        graph = AsGraph.from_edges([], nodes=set(HIGH_MIXED) - {2**32 - 2, 7})
        usable, dropped = restrict_to_graph(labeled, graph)
        want = [r for r in want if graph.contains(r.a) and graph.contains(r.b)]
        assert rows(usable) == want and dropped == len(labeled) - len(want)

        for mode in ("multi", "binary"):
            assert rows(balance_and_split(usable, 11, mode)) == split_oracle(want, 11, mode)


def synthetic_pool(counts, seed=0):
    """Build a LabelTable with the requested per-class sizes."""
    rng = random.Random(seed)
    out = []
    nxt = iter(itertools.combinations(range(1, 4000), 2))
    for label, k in counts.items():
        for _ in range(k):
            a, b = next(nxt)
            if label is RelLabel.P2C and rng.random() < 0.5:
                a, b = b, a
            out.append((a, b, label, "", "vote"))
    return table(*out)


class TestBalanceAndSplit:
    def test_multi_downsamples_to_min_class(self):
        pool = synthetic_pool(
            {RelLabel.P2P: 40, RelLabel.P2C: 31, RelLabel.S2S: 5, RelLabel.X2X: 5}
        )
        out = balance_and_split(pool, seed=1, mode="multi")
        assert all(v == 5 for v in out.counts().values())

    def test_six_two_two(self):
        pool = synthetic_pool({c: 10 for c in MULTI_CLASSES})
        out = balance_and_split(pool, seed=3, mode="multi")
        for c in MULTI_CLASSES:
            entries = [e for e in rows(out) if e.label is c]
            by_split = {s: sum(1 for e in entries if e.split == s) for s in ("train", "val", "test")}
            assert by_split == {"train": 6, "val": 2, "test": 2}

    def test_splits_partition_the_set(self):
        pool = synthetic_pool({c: 17 for c in MULTI_CLASSES})
        out = balance_and_split(pool, seed=9, mode="multi")
        assert all(e.split in ("train", "val", "test") for e in rows(out))
        assert sum((out.split == s).sum() for s in ("train", "val", "test")) == len(out)

    def test_binary_drops_extras_keeps_sizes(self):
        pool = synthetic_pool(
            {RelLabel.P2P: 12, RelLabel.P2C: 30, RelLabel.S2S: 4, RelLabel.X2X: 4}
        )
        out = balance_and_split(pool, seed=2, mode="binary")
        counts = out.counts()
        assert counts[RelLabel.P2P] == 12 and counts[RelLabel.P2C] == 30
        assert counts[RelLabel.S2S] == 0 and counts[RelLabel.X2X] == 0

    def test_deterministic_and_order_insensitive(self):
        pool = synthetic_pool({c: 15 for c in MULTI_CLASSES}, seed=4)
        shuffled = rows(pool)
        random.Random(99).shuffle(shuffled)
        out1 = balance_and_split(pool, seed=7, mode="multi")
        out2 = balance_and_split(table(*shuffled), seed=7, mode="multi")
        assert rows(out1) == rows(out2)
        out3 = balance_and_split(pool, seed=8, mode="multi")
        assert rows(out1) != rows(out3)

    def test_digest_names_the_drawn_split(self):
        """Equal draws share a digest, whatever the input's row order; a
        changed seed, label, pair or split changes it."""
        pool = synthetic_pool({c: 15 for c in MULTI_CLASSES}, seed=4)
        shuffled = rows(pool)
        random.Random(99).shuffle(shuffled)
        drawn = balance_and_split(pool, seed=7, mode="multi")
        assert drawn.digest() == balance_and_split(table(*shuffled), 7, "multi").digest()
        assert drawn.digest() != balance_and_split(pool, seed=8, mode="multi").digest()
        edits = [replace(drawn, label=np.roll(drawn.label, 1)),
                 replace(drawn, b=drawn.b + 1),
                 replace(drawn, split=np.roll(drawn.split, 1))]
        assert len({drawn.digest(), *(t.digest() for t in edits)}) == 4

    def test_empty_class_rejected_in_multi(self):
        pool = synthetic_pool({RelLabel.P2P: 5, RelLabel.P2C: 5, RelLabel.S2S: 5})
        with pytest.raises(ValueError, match="x2x"):
            balance_and_split(pool, seed=0, mode="multi")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            balance_and_split(table(), seed=0, mode="both")

    def test_mode_class_lists(self):
        assert mode_classes("binary") == BINARY_CLASSES == MULTI_CLASSES[:2]
        assert mode_classes("multi") == MULTI_CLASSES
        mode_classes("multi").pop()  # a copy: the module's list stays whole
        assert len(MULTI_CLASSES) == 4
        for mode in ("both", "Multi", None, ["multi"]):
            with pytest.raises(ValueError, match="unknown mode"):
                mode_classes(mode)

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 25), min_size=4, max_size=4),
        seed=st.integers(0, 2**32),
        order_seed=st.integers(0, 2**32),
        mode=st.sampled_from(["multi", "binary"]),
    )
    def test_matches_list_reference(self, sizes, seed, order_seed, mode):
        pool = rows(synthetic_pool(dict(zip(MULTI_CLASSES, sizes)), seed=order_seed))
        random.Random(order_seed).shuffle(pool)
        got = rows(balance_and_split(table(*pool), seed, mode))
        assert got == split_oracle(pool, seed, mode)
