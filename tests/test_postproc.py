"""Segment extraction from broken tag paths and post-hoc repair."""

import itertools
import re

import numpy as np
import pytest

from mcrf.postproc import Segment, extract_segments, repair_tags, segments_to_tags
from mcrf.schemes import Scheme, build_tagset, first_violation

BIO = build_tagset(Scheme.BIO, ["LOC", "MISC", "PER"])
BIOES = build_tagset(Scheme.BIOES, ["LOC", "PER"])


def bio(*names):
    return [BIO.index_of(n) for n in names]


def bioes(*names):
    return [BIOES.index_of(n) for n in names]


class TestExtractBio:
    def test_well_formed_path(self):
        tags = bio("O", "B-PER", "I-PER", "O", "B-LOC")
        segs = extract_segments(tags, BIO)
        assert [s.span for s in segs] == [("PER", 1, 3), ("LOC", 4, 5)]
        assert all(s.legal for s in segs)

    def test_all_outside(self):
        assert extract_segments(bio("O", "O", "O"), BIO) == []

    def test_orphan_inside_after_outside_is_illegal(self):
        segs = extract_segments(bio("O", "I-PER", "O"), BIO)
        assert [s.span for s in segs] == [("PER", 1, 2)]
        assert not segs[0].legal

    def test_orphan_inside_at_sentence_start(self):
        segs = extract_segments(bio("I-LOC", "I-LOC", "O"), BIO)
        assert [s.span for s in segs] == [("LOC", 0, 2)]
        assert not segs[0].legal

    def test_type_switch_inside_splits_segments(self):
        """B-LOC I-MISC: the LOC chunk closes at the switch, the MISC run is
        a new illegal segment."""
        segs = extract_segments(bio("B-LOC", "I-MISC"), BIO)
        assert [s.span for s in segs] == [("LOC", 0, 1), ("MISC", 1, 2)]
        assert segs[0].legal and not segs[1].legal

    def test_run_reaching_sentence_end(self):
        segs = extract_segments(bio("O", "B-PER", "I-PER"), BIO)
        assert [s.span for s in segs] == [("PER", 1, 3)]
        assert segs[0].legal

    def test_adjacent_entities(self):
        segs = extract_segments(bio("B-PER", "B-PER", "I-PER"), BIO)
        assert [s.span for s in segs] == [("PER", 0, 1), ("PER", 1, 3)]
        assert all(s.legal for s in segs)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            extract_segments([], BIO)

    def test_out_of_range_tag_is_named(self):
        """The first index outside [0, d) is named, wherever it stands."""
        for path, bad in (([0, BIO.size], BIO.size), ([-1, 0], -1), ([1, 9, -3], 9)):
            message = f"tag index {bad} out of range [0, {BIO.size})"
            with pytest.raises(ValueError, match=re.escape(message)):
                extract_segments(path, BIO)

    def test_numpy_path_is_read_as_its_tags(self):
        """`not tags` read array([0]) as an empty path and refused longer arrays."""
        assert extract_segments(np.array([0]), BIO) == []
        segs = extract_segments(np.array(bio("O", "B-PER", "I-PER")), BIO)
        assert [s.span for s in segs] == [("PER", 1, 3)]

    def test_bool_tags_are_refused(self):
        """operator.index reads True as 1: [True, False] was read as tags [1, 0]."""
        for path in ([True, False], [0, True]):
            with pytest.raises(ValueError, match="non-integer tag index"):
                extract_segments(path, BIO)


class TestExtractBioes:
    def test_well_formed_path(self):
        tags = bioes("O", "B-PER", "I-PER", "E-PER", "S-LOC")
        segs = extract_segments(tags, BIOES)
        assert [s.span for s in segs] == [("PER", 1, 4), ("LOC", 4, 5)]
        assert all(s.legal for s in segs)

    def test_unclosed_run_is_illegal(self):
        """B-PER I-PER followed by O never saw its E tag."""
        segs = extract_segments(bioes("B-PER", "I-PER", "O"), BIOES)
        assert [s.span for s in segs] == [("PER", 0, 2)]
        assert not segs[0].legal

    def test_unclosed_run_at_boundary_is_illegal(self):
        segs = extract_segments(bioes("O", "B-LOC", "I-LOC"), BIOES)
        assert [s.span for s in segs] == [("LOC", 1, 3)]
        assert not segs[0].legal

    def test_orphan_end_tag_is_illegal_singleton(self):
        segs = extract_segments(bioes("O", "E-PER", "O"), BIOES)
        assert [s.span for s in segs] == [("PER", 1, 2)]
        assert not segs[0].legal

    def test_end_tag_of_wrong_type_closes_and_orphans(self):
        segs = extract_segments(bioes("B-PER", "E-LOC"), BIOES)
        assert [s.span for s in segs] == [("PER", 0, 1), ("LOC", 1, 2)]
        assert not segs[0].legal and not segs[1].legal

    def test_singleton_after_open_run_is_legal_itself(self):
        """B-PER S-LOC: the PER run is illegal (unclosed), but S-LOC opened
        from a B tag, which is exactly the illegal transition; conlleval
        charges the opening, so the S segment is illegal too."""
        segs = extract_segments(bioes("B-PER", "S-LOC"), BIOES)
        assert [s.span for s in segs] == [("PER", 0, 1), ("LOC", 1, 2)]
        assert not segs[0].legal
        assert not segs[1].legal

    def test_singleton_at_start_is_legal(self):
        segs = extract_segments(bioes("S-LOC", "O"), BIOES)
        assert segs == [Segment("LOC", 0, 1, True)]

    def test_full_width_legal_entity(self):
        segs = extract_segments(bioes("B-LOC", "E-LOC"), BIOES)
        assert segs == [Segment("LOC", 0, 2, True)]


class TestOneLegalityDefinition:
    """extract_segments' verdicts and first_violation read the same rule
    tables, so on every path they agree, but for the sentence end."""

    @pytest.mark.parametrize("scheme", [Scheme.BIO, Scheme.BIOES])
    @pytest.mark.parametrize("types", [["A"], ["A", "B"]])
    def test_segments_are_legal_exactly_when_the_path_is(self, scheme, types):
        """Every path of length 1-5. A path whose last tag may not be followed
        by O (BIOES ending on B- or I-) has no sentence-end rule in the
        tables yet, so first_violation passes some of them; its segments
        are illegal all the same."""
        tagset = build_tagset(scheme, types)
        illegal_pair, _ = tagset.rules.tables(tagset.size)
        ends_open = illegal_pair[:, tagset.index_of("O")]
        unended = 0
        for length in range(1, 6):
            for path in itertools.product(range(tagset.size), repeat=length):
                all_legal = all(s.legal for s in extract_segments(path, tagset))
                if ends_open[path[-1]]:
                    unended += 1
                    assert not all_legal, path
                else:
                    assert all_legal == (first_violation(tagset, path) is None), path
        assert (unended > 0) == (scheme is Scheme.BIOES)

    def test_verdicts_follow_the_tables(self):
        """Without start rules a BIO I-X or a BIOES E-X may open a sentence,
        so the segment it opens there is legal; the other rules still hold."""
        for tagset, opening, closed in ((BIO, "I-LOC", True), (BIOES, "E-LOC", True),
                                        (BIOES, "I-LOC", False)):
            free = build_tagset(tagset.scheme, tagset.entity_types)
            free.__dict__["rules"] = tagset.rules.without_start_rules()  # the cached property
            path = [tagset.index_of(opening), tagset.index_of("O")]
            assert extract_segments(path, free) == [Segment("LOC", 0, 1, closed)]
            assert extract_segments(path, tagset) == [Segment("LOC", 0, 1, False)]
            path = [tagset.index_of("O"), tagset.index_of(opening)]
            assert extract_segments(path, free) == [Segment("LOC", 1, 2, False)]


class TestSegmentsToTags:
    def test_canonical_bio(self):
        tags = segments_to_tags([Segment("PER", 1, 3, True)], 4, BIO)
        assert tags == bio("O", "B-PER", "I-PER", "O")

    def test_canonical_bioes(self):
        tags = segments_to_tags(
            [Segment("PER", 0, 3, True), Segment("LOC", 3, 4, True)], 4, BIOES
        )
        assert tags == bioes("B-PER", "I-PER", "E-PER", "S-LOC")

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            segments_to_tags([Segment("PER", 0, 2, True), Segment("LOC", 1, 3, True)], 3, BIO)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            segments_to_tags([Segment("PER", 1, 4, True)], 3, BIO)


class TestRepair:
    def test_reference_fixture(self):
        """One orphan I-PER, one legal B-LOC, one dangling I-MISC."""
        tags = bio("O", "I-PER", "O", "B-LOC", "I-MISC")
        assert repair_tags(tags, BIO, "retain") == bio("O", "B-PER", "O", "B-LOC", "B-MISC")
        assert repair_tags(tags, BIO, "discard") == bio("O", "O", "O", "B-LOC", "O")
        assert repair_tags(tags, BIO, "none") == tags

    def test_none_returns_a_copy(self):
        tags = bio("O", "I-PER")
        out = repair_tags(tags, BIO, "none")
        out[0] = 99
        assert tags == bio("O", "I-PER")

    def test_legal_path_is_a_fixed_point(self):
        tags = bio("O", "B-PER", "I-PER", "O", "B-LOC")
        assert repair_tags(tags, BIO, "retain") == tags
        assert repair_tags(tags, BIO, "discard") == tags

    def test_bioes_retain_recloses_runs(self):
        tags = bioes("B-PER", "I-PER", "O")
        assert repair_tags(tags, BIOES, "retain") == bioes("B-PER", "E-PER", "O")
        assert repair_tags(tags, BIOES, "discard") == bioes("O", "O", "O")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            repair_tags(bio("O"), BIO, "fixup")

    def test_repair_outputs_are_always_legal(self):
        """Random tag soup in, legal path out, for both schemes."""
        rng = np.random.default_rng(107)
        for tagset in (BIO, BIOES):
            for _ in range(200):
                T = int(rng.integers(1, 9))
                tags = [int(v) for v in rng.integers(0, tagset.size, size=T)]
                for strategy in ("retain", "discard"):
                    fixed = repair_tags(tags, tagset, strategy)
                    assert first_violation(tagset, fixed) is None
                    assert len(fixed) == T

    def test_retain_preserves_every_segment(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            T = int(rng.integers(1, 9))
            tags = [int(v) for v in rng.integers(0, BIO.size, size=T)]
            before = [s.span for s in extract_segments(tags, BIO)]
            after = [s.span for s in extract_segments(repair_tags(tags, BIO, "retain"), BIO)]
            assert after == before

    def test_discard_keeps_exactly_the_legal_segments(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            T = int(rng.integers(1, 9))
            tags = [int(v) for v in rng.integers(0, BIO.size, size=T)]
            legal_before = [s.span for s in extract_segments(tags, BIO) if s.legal]
            after = extract_segments(repair_tags(tags, BIO, "discard"), BIO)
            assert [s.span for s in after] == legal_before
