"""Chunk-level precision/recall/F1 and illegal-segment bookkeeping."""

import numpy as np
import pytest

import mcrf.evaluation
from mcrf.evaluation import (
    ChunkMetrics,
    IllegalStats,
    chunk_prf,
    format_report,
    illegal_stats,
    score_paths,
)
from mcrf.postproc import Segment, extract_segments, repair_tags, repair_tags_batch
from mcrf.schemes import Scheme, build_tagset


def seg(etype, start, end, legal=True):
    return Segment(etype, start, end, legal)


class TestChunkPrf:
    def test_perfect_prediction(self):
        gold = [[seg("PER", 0, 2)], [seg("LOC", 1, 2)]]
        m = chunk_prf(gold, gold)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)
        assert m.precision == m.recall == m.f1 == 1.0

    def test_half_right(self):
        gold = [[seg("PER", 0, 2), seg("LOC", 3, 4)]]
        pred = [[seg("PER", 0, 2), seg("LOC", 4, 5)]]
        m = chunk_prf(gold, pred)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.f1 == 0.5

    def test_type_must_match(self):
        gold = [[seg("PER", 0, 2)]]
        pred = [[seg("LOC", 0, 2)]]
        m = chunk_prf(gold, pred)
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    def test_boundaries_must_match_exactly(self):
        gold = [[seg("PER", 0, 3)]]
        pred = [[seg("PER", 0, 2)]]
        m = chunk_prf(gold, pred)
        assert m.tp == 0

    def test_empty_prediction(self):
        m = chunk_prf([[seg("PER", 0, 1)]], [[]])
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)
        assert m.precision == 0.0
        assert m.f1 == 0.0

    def test_empty_corpus_reports_zeros(self):
        m = chunk_prf([], [])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_counts_are_consistent_with_totals(self):
        rng = np.random.default_rng(127)
        tagset = build_tagset(Scheme.BIO, ["A", "B"])
        gold, pred = [], []
        for _ in range(50):
            T = int(rng.integers(1, 10))
            gold.append(extract_segments([int(v) for v in rng.integers(0, 5, T)], tagset))
            pred.append(extract_segments([int(v) for v in rng.integers(0, 5, T)], tagset))
        m = chunk_prf(gold, pred)
        assert m.tp + m.fn == sum(len(set(s.span for s in g)) for g in gold)
        assert m.tp + m.fp == sum(len(set(s.span for s in p)) for p in pred)

    def test_matching_is_per_sentence(self):
        """A span in sentence 1 must not match the same span in sentence 2."""
        gold = [[seg("PER", 0, 1)], []]
        pred = [[], [seg("PER", 0, 1)]]
        m = chunk_prf(gold, pred)
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    def test_sentence_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chunk_prf([[]], [[], []])

    def test_overlapping_predictions_rejected(self):
        gold = [[seg("PER", 0, 2)]]
        pred = [[seg("PER", 0, 2), seg("LOC", 1, 3)]]
        with pytest.raises(ValueError):
            chunk_prf(gold, pred)


class TestIllegalStats:
    def test_reference_fixture(self):
        """Four predictions: two legal TPs, one illegal TP, one illegal FP.
        Hand count gives ratios 1/2, 1/1 and 2/4."""
        gold = [[seg("PER", 0, 1), seg("LOC", 2, 3), seg("ORG", 4, 5)]]
        pred = [
            [
                seg("PER", 0, 1, legal=True),
                seg("LOC", 2, 3, legal=True),
                seg("ORG", 4, 5, legal=False),
                seg("PER", 6, 7, legal=False),
            ]
        ]
        stats = illegal_stats(gold, pred)
        assert (stats.legal_tp, stats.illegal_tp, stats.legal_fp, stats.illegal_fp) == (
            2, 1, 0, 1,
        )
        assert stats.ratio_illegal_tp_over_illegal == 0.5
        assert stats.ratio_illegal_fp_over_fp == 1.0
        assert stats.ratio_illegal_over_total == 0.5
        assert stats.total == 4

    def test_all_legal_corpus_has_zero_ratios(self):
        gold = [[seg("PER", 0, 1)]]
        pred = [[seg("PER", 0, 1), seg("LOC", 2, 3)]]
        stats = illegal_stats(gold, pred)
        assert stats.ratio_illegal_tp_over_illegal == 0.0
        assert stats.ratio_illegal_fp_over_fp == 0.0
        assert stats.ratio_illegal_over_total == 0.0
        assert (stats.legal_tp, stats.legal_fp) == (1, 1)

    def test_no_predictions_at_all(self):
        stats = illegal_stats([[seg("PER", 0, 1)]], [[]])
        assert stats.total == 0
        assert stats.ratio_illegal_over_total == 0.0
        assert stats.ratio_illegal_fp_over_fp == 0.0

    def test_agrees_with_chunk_counts(self):
        rng = np.random.default_rng(131)
        tagset = build_tagset(Scheme.BIO, ["A", "B"])
        gold, pred = [], []
        for _ in range(50):
            T = int(rng.integers(1, 10))
            gold.append(extract_segments([int(v) for v in rng.integers(0, 5, T)], tagset))
            pred.append(extract_segments([int(v) for v in rng.integers(0, 5, T)], tagset))
        stats = illegal_stats(gold, pred)
        m = chunk_prf(gold, pred)
        assert stats.legal_tp + stats.illegal_tp == m.tp
        assert stats.legal_fp + stats.illegal_fp == m.fp


class TestScorePaths:
    TAGSET = build_tagset(Scheme.BIO, ["LOC", "PER"])

    def _paths(self):
        t = self.TAGSET.index_of
        gold = [[t("O"), t("B-PER"), t("O"), t("B-LOC"), t("O")]]
        raw = [[t("O"), t("I-PER"), t("O"), t("B-LOC"), t("I-PER")]]
        return [extract_segments(g, self.TAGSET) for g in gold], raw

    def test_repair_scores_the_repaired_paths_and_counts_the_raw_ones(self):
        gold_segments, raw = self._paths()
        raw_segments = [extract_segments(p, self.TAGSET) for p in raw]
        for strategy in ("retain", "discard", "none"):
            repaired = [
                extract_segments(repair_tags(p, self.TAGSET, strategy), self.TAGSET)
                for p in raw
            ]
            metrics, stats = score_paths(gold_segments, raw, self.TAGSET, strategy)
            assert metrics == chunk_prf(gold_segments, repaired)
            assert stats == illegal_stats(gold_segments, raw_segments)

    def test_hand_counts(self):
        """The raw path holds an illegal PER at 1 (a TP), a legal LOC at 3 (a
        TP) and an illegal PER at 4 (an FP); discard keeps only the LOC."""
        gold_segments, raw = self._paths()
        metrics, stats = score_paths(gold_segments, raw, self.TAGSET, "discard")
        assert (metrics.tp, metrics.fp, metrics.fn) == (1, 0, 1)
        assert (stats.legal_tp, stats.illegal_tp, stats.legal_fp, stats.illegal_fp) == (
            1, 1, 0, 1,
        )

    def test_sentences_are_checked_once(self, monkeypatch):
        """chunk_prf and illegal_stats each checked them, sorting every
        sentence's spans twice per score_paths call."""
        checks = []
        original = mcrf.evaluation._check_sentences

        def counting(gold, pred):
            checks.append(len(pred))
            return original(gold, pred)

        monkeypatch.setattr(mcrf.evaluation, "_check_sentences", counting)
        gold_segments, raw = self._paths()
        for strategy in ("retain", "discard", "none"):
            score_paths(gold_segments, raw, self.TAGSET, strategy)
        assert len(checks) == 3
        with pytest.raises(ValueError, match="^gold has 1 sentences, predictions have 2$"):
            score_paths(gold_segments, raw * 2, self.TAGSET, "retain")

    def test_unknown_strategy_rejected(self):
        """On any corpus, an empty one too, as repair_tags_batch refuses it."""
        gold_segments, raw = self._paths()
        for corpus in ((gold_segments, raw), ([], [])):
            with pytest.raises(ValueError, match="^unknown strategy 'mend'"):
                score_paths(*corpus, self.TAGSET, "mend")
        with pytest.raises(ValueError, match="^unknown strategy 'mend'"):
            repair_tags_batch([], self.TAGSET, "mend")

    def test_the_strategy_is_read_once_per_call(self, monkeypatch):
        calls = []

        def counting(legal, strategy):
            calls.append(strategy)
            return original(legal, strategy)

        original = mcrf.evaluation.keeps
        monkeypatch.setattr(mcrf.evaluation, "keeps", counting)
        gold_segments, raw = self._paths()
        score_paths(gold_segments * 3, raw * 3, self.TAGSET, "discard")
        assert calls == ["discard"]


class TestFormatReport:
    def test_with_stats(self):
        stats = IllegalStats(legal_tp=1, illegal_tp=1, legal_fp=1, illegal_fp=1)
        text = format_report(ChunkMetrics(tp=2, fp=2, fn=0), stats)
        assert text.splitlines() == [
            "tp=2 fp=2 fn=0",
            "precision=50.0%",
            "recall=100.0%",
            "f1=66.7%",
            "segments legal_tp=1 illegal_tp=1 legal_fp=1 illegal_fp=1",
            "illegal_tp/illegal=50.0%",
            "illegal_fp/fp=50.0%",
            "illegal/total=50.0%",
        ]

    def test_zero_counts_do_not_divide_by_zero(self):
        text = format_report(ChunkMetrics(0, 0, 0), IllegalStats(0, 0, 0, 0))
        assert "f1=0.0%" in text
        assert "illegal/total=0.0%" in text
