"""Segment extraction from broken tag paths and post-hoc repair."""

import itertools
import re

import numpy as np
import pytest

from mcrf.data import SyntheticConfig, generate_synthetic
from mcrf.postproc import (
    STRATEGIES,
    Segment,
    extract_segments,
    extract_segments_batch,
    repair_tags,
    repair_tags_batch,
)
from mcrf.schemes import Scheme, build_tagset, first_violation
from oracles import python_extract_segments, python_repair

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
        ends_open = tagset.rules.table(tagset.size)[:-1, tagset.index_of("O")]
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


    @pytest.mark.parametrize("scheme", [Scheme.BIO, Scheme.BIOES])
    @pytest.mark.parametrize("count", range(1, 11))
    def test_the_tags_that_continue_a_chunk_are_the_illegal_starts(self, scheme, count):
        """Segment extraction reads which tags continue a chunk from the
        start table: exactly the I- and E- tags may not start a sentence."""
        tagset = build_tagset(scheme, [f"T{k}" for k in range(count)])
        illegal_start = tagset.rules.table(tagset.size)[-1]
        continuing = [prefix in ("I", "E") for prefix, _ in tagset.parts]
        assert illegal_start.tolist() == continuing


class TestCanonicalForm:
    """retain re-emits every extracted segment in canonical form."""

    def test_canonical_bio(self):
        tags = repair_tags(bio("O", "I-PER", "I-PER", "O"), BIO, "retain")
        assert tags == bio("O", "B-PER", "I-PER", "O")

    def test_canonical_bioes(self):
        tags = repair_tags(bioes("B-PER", "I-PER", "I-PER", "S-LOC"), BIOES, "retain")
        assert tags == bioes("B-PER", "I-PER", "E-PER", "S-LOC")

    @pytest.mark.parametrize("start, end", [(0, 0), (2, 1), (-1, 2)])
    def test_bad_span_rejected(self, start, end):
        with pytest.raises(ValueError, match=rf"^bad span \[{start}, {end}\)$"):
            Segment("PER", start, end, True)


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


def every_short_path(tagset, seed):
    """Every path of length 1-6 while d^T stays within 30,000 (so 1-5 at
    d = 7, 1-4 at d = 9 and 13), in seeded order: a corpus whose sentences of
    every length, 1-token ones included, stand side by side."""
    lengths = [n for n in range(1, 7) if tagset.size**n <= 30_000]
    paths = [list(path) for n in lengths
             for path in itertools.product(range(tagset.size), repeat=n)]
    return [paths[i] for i in np.random.default_rng(seed).permutation(len(paths))]


def assert_matches_the_referee(corpus, tagset):
    """Batch extraction and every repair strategy over the whole corpus at
    once give, sentence by sentence, what the per-token referee gives."""
    expected = [python_extract_segments(path, tagset) for path in corpus]
    got = extract_segments_batch(corpus, tagset)
    assert [[(s.entity_type, s.start, s.end, s.legal) for s in segs] for segs in got] == expected
    for strategy in STRATEGIES:
        assert repair_tags_batch(corpus, tagset, strategy) == [
            python_repair(path, tagset, strategy) for path in corpus
        ], strategy


class TestCorpusAtOnce:
    """The corpus-at-once extraction and repair against the per-token
    referee in tests/oracles.py."""

    @pytest.mark.parametrize("scheme", [Scheme.BIO, Scheme.BIOES])
    @pytest.mark.parametrize("types", [1, 2, 3])
    def test_every_short_path(self, scheme, types):
        tagset = build_tagset(scheme, ["A", "B", "C"][:types])
        assert_matches_the_referee(every_short_path(tagset, types), tagset)

    def test_random_corpora_at_41_tags(self):
        """BIOES with 10 types: tag soup of lengths 1-60, and synthetic gold
        paths with a tenth of their tags redrawn."""
        config = SyntheticConfig(
            entity_types=tuple(f"T{i}" for i in range(10)), scheme=Scheme.BIOES,
            sentences=300, min_length=1, max_length=60,
        )
        tagset, sentences = generate_synthetic(config, 3)
        assert tagset.size == 41
        rng = np.random.default_rng(5)
        soup = [rng.integers(0, 41, size=int(rng.integers(1, 61))).tolist() for _ in range(300)]
        noisy = []
        for sent in sentences:
            path = np.array(sent.gold)
            redraw = rng.random(path.size) < 0.1
            path[redraw] = rng.integers(0, 41, size=int(redraw.sum()))
            noisy.append(path.tolist())
        for corpus in (soup, noisy, [s.gold for s in sentences]):
            assert_matches_the_referee(corpus, tagset)

    def test_single_path_forms_are_the_batch_at_one(self):
        rng = np.random.default_rng(11)
        for tagset in (BIO, BIOES):
            corpus = [rng.integers(0, tagset.size, size=int(rng.integers(1, 9))).tolist()
                      for _ in range(50)]
            assert [extract_segments(p, tagset) for p in corpus] == extract_segments_batch(
                corpus, tagset)
            for strategy in STRATEGIES:
                assert [repair_tags(p, tagset, strategy) for p in corpus] == repair_tags_batch(
                    corpus, tagset, strategy)

    def test_empty_corpus(self):
        assert extract_segments_batch([], BIOES) == []
        for strategy in STRATEGIES:
            assert repair_tags_batch([], BIOES, strategy) == []

    def test_first_bad_path_raises_its_own_message(self):
        """The first path in order that check_indices refuses raises its
        message, unchanged."""
        for corpus, message in (
            ([[0], [0, BIO.size], [-1]], f"tag index {BIO.size} out of range"),
            ([[0], [], [True]], "empty path"),
            ([[0], [1.0], []], "non-integer tag index"),
            ([[0], 3, [0]], "not a sequence of tags (int)"),
            ([[0], [2**70]], "tag index 1180591620717411303424 out of range"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                extract_segments_batch(corpus, BIO)
            with pytest.raises(ValueError, match=re.escape(message)):
                repair_tags_batch(corpus, BIO, "retain")
