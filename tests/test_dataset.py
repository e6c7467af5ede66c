import itertools
import random

import pytest

from bgprel.dataset import (
    BINARY_CLASSES,
    MULTI_CLASSES,
    DuplicateEdgeError,
    LabeledEdge,
    LabeledEdgeSet,
    LabelSource,
    RelLabel,
    apply_ixp_labels,
    apply_sibling_labels,
    balance_and_split,
    load_ixp_list,
    load_label_source,
    load_org_map,
    vote_intersection,
)


def src(name, entries):
    return LabelSource(name, list(entries))


class TestLabeledEdgeSet:
    def test_p2p_stored_smaller_first(self):
        s = LabeledEdgeSet([LabeledEdge(9, 2, RelLabel.P2P)])
        e = s.entries()[0]
        assert (e.a, e.b) == (2, 9)

    def test_p2c_keeps_provider_first(self):
        s = LabeledEdgeSet([LabeledEdge(9, 2, RelLabel.P2C)])
        e = s.entries()[0]
        assert (e.a, e.b) == (9, 2)
        assert s.get(2, 9) == e

    def test_duplicate_pair_rejected(self):
        s = LabeledEdgeSet([LabeledEdge(1, 2, RelLabel.P2P)])
        with pytest.raises(DuplicateEdgeError):
            s.add(LabeledEdge(2, 1, RelLabel.P2C))

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            LabeledEdgeSet([LabeledEdge(3, 3, RelLabel.P2P)])

    def test_csv_roundtrip(self, tmp_path):
        s = LabeledEdgeSet(
            [
                LabeledEdge(5, 2, RelLabel.P2C, "train", "vote"),
                LabeledEdge(7, 3, RelLabel.X2X, "test", "ixp_list"),
            ]
        )
        f = tmp_path / "dataset.csv"
        s.write_csv(f)
        again = LabeledEdgeSet.read_csv(f)
        assert again.entries() == s.entries()
        header = f.read_text().splitlines()[0]
        assert header == "a,b,label,split,provenance"


class TestLabelSourceFile:
    def test_codes(self, tmp_path):
        f = tmp_path / "rel.txt"
        f.write_text("# inferred\n1|2|0\n3|4|-1\n")
        s = load_label_source(f)
        assert s.entries == [(1, 2, 0), (3, 4, -1)]

    def test_extra_fields_ignored(self, tmp_path):
        f = tmp_path / "rel.txt"
        f.write_text("1|2|0|bgp\n")
        assert load_label_source(f).entries == [(1, 2, 0)]

    def test_unsupported_code(self, tmp_path):
        f = tmp_path / "rel.txt"
        f.write_text("1|2|7\n")
        with pytest.raises(ValueError, match="unsupported code"):
            load_label_source(f)


class TestVoting:
    def test_unanimous_pairs_survive(self):
        a = src("a", [(1, 2, 0), (3, 4, -1), (5, 6, 0)])
        b = src("b", [(1, 2, 0), (3, 4, -1), (7, 8, 0)])
        voted, report = vote_intersection([a, b])
        assert {e.pair for e in voted} == {(1, 2), (3, 4)}
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
        assert [e.pair for e in voted] == [(2, 9)]
        assert voted.entries()[0].label is RelLabel.P2P

    def test_self_agreement_identity(self):
        entries = [(4, 2, -1), (1, 3, 0), (5, 6, 0)]
        voted, report = vote_intersection([src("a", entries), src("b", entries)])
        assert len(voted) == 3
        assert report.coincidence_rate == 1.0
        e = voted.get(4, 2)
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
        universe = list(itertools.combinations(range(1, 25), 2))
        sources = []
        for name in "abc":
            entries = []
            for a, b in rng.sample(universe, 60):
                code = rng.choice([0, -1])
                if code == -1 and rng.random() < 0.5:
                    a, b = b, a
                entries.append((a, b, code))
            sources.append(src(name, entries))
        voted, report = vote_intersection(sources)

        def calls(s):
            out = {}
            for a, b, code in s.entries:
                key = (min(a, b), max(a, b))
                val = ("p2p", None) if code == 0 else ("p2c", a)
                if key in out and out[key] != val:
                    out[key] = "conflict"
                else:
                    out.setdefault(key, val)
            return {k: v for k, v in out.items() if v != "conflict"}

        maps = [calls(s) for s in sources]
        union = set().union(*maps)
        wanted = {
            k
            for k in union
            if all(k in m for m in maps) and len({m[k] for m in maps}) == 1
        }
        assert {e.pair for e in voted} == wanted
        assert report.coincidence_rate == pytest.approx(len(wanted) / len(union))


class TestOverrides:
    def base(self):
        return LabeledEdgeSet(
            [
                LabeledEdge(1, 2, RelLabel.P2P, provenance="vote"),
                LabeledEdge(3, 4, RelLabel.P2C, provenance="vote"),
                LabeledEdge(5, 6, RelLabel.P2P, provenance="vote"),
            ]
        )

    def test_same_org_becomes_sibling(self):
        out = apply_sibling_labels(self.base(), {3: "orgX", 4: "orgX"})
        assert out.get(3, 4).label is RelLabel.S2S
        assert out.get(3, 4).provenance == "org_map"
        assert out.get(1, 2).label is RelLabel.P2P

    def test_partial_org_map_is_fine(self):
        out = apply_sibling_labels(self.base(), {3: "orgX"})
        assert out.get(3, 4).label is RelLabel.P2C

    def test_ixp_endpoint_becomes_exchange(self):
        out = apply_ixp_labels(self.base(), {6})
        assert out.get(5, 6).label is RelLabel.X2X
        assert out.get(5, 6).provenance == "ixp_list"

    def test_precedence_ixp_over_org(self):
        orgs = {5: "orgY", 6: "orgY"}
        ixps = {6}
        one = apply_ixp_labels(apply_sibling_labels(self.base(), orgs), ixps)
        two = apply_sibling_labels(apply_ixp_labels(self.base(), ixps), orgs)
        assert one.entries() == two.entries()
        assert one.get(5, 6).label is RelLabel.X2X

    def test_override_order_never_matters(self):
        rng = random.Random(29)
        for trial in range(25):
            entries = LabeledEdgeSet()
            for a, b in itertools.combinations(range(1, 12), 2):
                if rng.random() < 0.4:
                    label = rng.choice([RelLabel.P2P, RelLabel.P2C])
                    if label is RelLabel.P2C and rng.random() < 0.5:
                        a, b = b, a
                    entries.add(LabeledEdge(a, b, label, provenance="vote"))
            orgs = {n: f"org{rng.randrange(4)}" for n in range(1, 12) if rng.random() < 0.5}
            ixps = {n for n in range(1, 12) if rng.random() < 0.2}
            one = apply_ixp_labels(apply_sibling_labels(entries, orgs), ixps)
            two = apply_sibling_labels(apply_ixp_labels(entries, ixps), orgs)
            assert one.entries() == two.entries()

    def test_loaders(self, tmp_path):
        orgs = tmp_path / "orgs.csv"
        orgs.write_text("asn,org_id\n10,acme\n11,acme\n")
        assert load_org_map(orgs) == {10: "acme", 11: "acme"}
        ixps = tmp_path / "ixps.txt"
        ixps.write_text("# exchanges\n900\n901\n")
        assert load_ixp_list(ixps) == {900, 901}


def synthetic_pool(counts, seed=0):
    """Build a LabeledEdgeSet with the requested per-class sizes."""
    rng = random.Random(seed)
    out = LabeledEdgeSet()
    nxt = iter(itertools.combinations(range(1, 4000), 2))
    for label, k in counts.items():
        for _ in range(k):
            a, b = next(nxt)
            if label is RelLabel.P2C and rng.random() < 0.5:
                a, b = b, a
            out.add(LabeledEdge(a, b, label, provenance="vote"))
    return out


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
            entries = [e for e in out if e.label is c]
            by_split = {s: sum(1 for e in entries if e.split == s) for s in ("train", "val", "test")}
            assert by_split == {"train": 6, "val": 2, "test": 2}

    def test_splits_partition_the_set(self):
        pool = synthetic_pool({c: 17 for c in MULTI_CLASSES})
        out = balance_and_split(pool, seed=9, mode="multi")
        assert all(e.split in ("train", "val", "test") for e in out)
        assert len(out.with_split("train")) + len(out.with_split("val")) + len(
            out.with_split("test")
        ) == len(out)

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
        shuffled = list(pool)
        random.Random(99).shuffle(shuffled)
        out1 = balance_and_split(pool, seed=7, mode="multi")
        out2 = balance_and_split(LabeledEdgeSet(shuffled), seed=7, mode="multi")
        assert out1.entries() == out2.entries()
        out3 = balance_and_split(pool, seed=8, mode="multi")
        assert out1.entries() != out3.entries()

    def test_empty_class_rejected_in_multi(self):
        pool = synthetic_pool({RelLabel.P2P: 5, RelLabel.P2C: 5, RelLabel.S2S: 5})
        with pytest.raises(ValueError, match="x2x"):
            balance_and_split(pool, seed=0, mode="multi")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            balance_and_split(LabeledEdgeSet(), seed=0, mode="both")
