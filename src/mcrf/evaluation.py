"""Chunk-level evaluation: exact-match micro P/R/F1 and illegal-segment rates.

A predicted segment is a true positive when a gold segment with the same
entity type and the same [start, end) span exists in the same sentence.
Metrics are micro-averaged over the corpus; every ratio with a zero
denominator is reported as 0.

score_paths, the one scoring rule of eval, training and the comparison
table, reads tag paths on both sides and builds no Segment: it takes the
chunk arrays of postproc.chunks once per side and matches them by flat
position. Sentences of equal lengths lay both corpora out alike, so a raw
chunk is a hit when a gold chunk starts at its start, ends at its end and
has its type (Tagset.type_codes). chunk_prf and illegal_stats score
Segment lists: they are the reference that score_paths is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .postproc import Segment, chunks, keeps
from .schemes import Tagset


@dataclass(frozen=True)
class ChunkMetrics:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class IllegalStats:
    """Counts of predicted segments split by legality and correctness."""

    legal_tp: int
    illegal_tp: int
    legal_fp: int
    illegal_fp: int

    @property
    def total(self) -> int:
        return self.legal_tp + self.illegal_tp + self.legal_fp + self.illegal_fp

    @property
    def ratio_illegal_tp_over_illegal(self) -> float:
        illegal = self.illegal_tp + self.illegal_fp
        return self.illegal_tp / illegal if illegal else 0.0

    @property
    def ratio_illegal_fp_over_fp(self) -> float:
        fp = self.legal_fp + self.illegal_fp
        return self.illegal_fp / fp if fp else 0.0

    @property
    def ratio_illegal_over_total(self) -> float:
        return (self.illegal_tp + self.illegal_fp) / self.total if self.total else 0.0


def _check_sentences(gold: list[list[Segment]], pred: list[list[Segment]]) -> None:
    if len(gold) != len(pred):
        raise ValueError(
            f"gold has {len(gold)} sentences, predictions have {len(pred)}"
        )
    for k, segs in enumerate(pred):
        spans = sorted((s.start, s.end) for s in segs)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ValueError(f"sentence {k + 1}: overlapping predicted segments")


def chunk_prf(gold: list[list[Segment]], pred: list[list[Segment]]) -> ChunkMetrics:
    """Micro-averaged exact-match precision/recall/F1 over aligned sentences."""
    _check_sentences(gold, pred)
    tp = fp = fn = 0
    for gold_segs, pred_segs in zip(gold, pred):
        gold_spans = {s.span for s in gold_segs}
        pred_spans = {s.span for s in pred_segs}
        tp += len(gold_spans & pred_spans)
        fp += len(pred_spans - gold_spans)
        fn += len(gold_spans - pred_spans)
    return ChunkMetrics(tp=tp, fp=fp, fn=fn)


def illegal_stats(gold: list[list[Segment]], pred: list[list[Segment]]) -> IllegalStats:
    """Cross-classify predicted segments: (legal vs illegal) x (TP vs FP)."""
    _check_sentences(gold, pred)
    counts = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for gold_segs, pred_segs in zip(gold, pred):
        gold_spans = {s.span for s in gold_segs}
        for seg in pred_segs:
            counts[(seg.legal, seg.span in gold_spans)] += 1
    return IllegalStats(
        legal_tp=counts[(True, True)],
        illegal_tp=counts[(False, True)],
        legal_fp=counts[(True, False)],
        illegal_fp=counts[(False, False)],
    )


def score_paths(
    gold_paths: list[list[int]],
    raw_paths: list[list[int]],
    tagset: Tagset,
    strategy: str,
) -> tuple[ChunkMetrics, IllegalStats]:
    """Score one decode against the gold paths: P/R/F1 of the paths after
    the repair strategy, illegal-segment counts of the raw paths (which
    repair would hide). The chunks a strategy keeps are the repaired
    paths' (postproc.keeps), so no path is repaired. ValueError when the
    corpora differ in sentences, or first differ in length at a sentence,
    or for the first path that Tagset.concatenate refuses."""
    if len(gold_paths) != len(raw_paths):
        raise ValueError(f"gold has {len(gold_paths)} sentences, predictions have {len(raw_paths)}")
    gold, gold_firsts, gold_starts, gold_ends, _ = chunks(gold_paths, tagset)
    raw, raw_firsts, starts, ends, legal = chunks(raw_paths, tagset)
    gold_lengths = np.diff(gold_firsts, append=gold.size)
    differ = np.flatnonzero(gold_lengths != np.diff(raw_firsts, append=raw.size))
    if differ.size:
        k = differ[0]
        raise ValueError(
            f"sentence {k + 1}: gold has {len(gold_paths[k])} tags, "
            f"prediction has {len(raw_paths[k])}"
        )
    end_at = np.zeros(gold.size, dtype=np.intp)  # no chunk ends at 0: a miss where none starts
    end_at[gold_starts] = gold_ends
    types = tagset.type_codes
    hit = (end_at[starts] == ends) & (types[gold[starts]] == types[raw[starts]])
    kept = keeps(legal, strategy)
    tp, predicted, hits, legal_tp, legal_count = (
        int(np.count_nonzero(a)) for a in (hit & kept, kept, hit, hit & legal, legal)
    )
    metrics = ChunkMetrics(tp=tp, fp=predicted - tp, fn=gold_starts.size - tp)
    stats = IllegalStats(
        legal_tp=legal_tp,
        illegal_tp=hits - legal_tp,
        legal_fp=legal_count - legal_tp,
        illegal_fp=starts.size - legal_count - hits + legal_tp,
    )
    return metrics, stats


def format_report(metrics: ChunkMetrics, stats: IllegalStats) -> str:
    """Human-readable key=value report; percentages carry one decimal."""
    lines = [
        f"tp={metrics.tp} fp={metrics.fp} fn={metrics.fn}",
        f"precision={100 * metrics.precision:.1f}%",
        f"recall={100 * metrics.recall:.1f}%",
        f"f1={100 * metrics.f1:.1f}%",
        "segments"
        f" legal_tp={stats.legal_tp} illegal_tp={stats.illegal_tp}"
        f" legal_fp={stats.legal_fp} illegal_fp={stats.illegal_fp}",
        f"illegal_tp/illegal={100 * stats.ratio_illegal_tp_over_illegal:.1f}%",
        f"illegal_fp/fp={100 * stats.ratio_illegal_fp_over_fp:.1f}%",
        f"illegal/total={100 * stats.ratio_illegal_over_total:.1f}%",
    ]
    return "\n".join(lines)
