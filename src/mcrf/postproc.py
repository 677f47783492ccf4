"""Segment extraction and post-hoc repair of predicted tag paths.

Extraction follows the conlleval reading of broken sequences, in one rule:
I-X or E-X (the tags the rule table bars from starting a sentence) after
an open chunk of type X continues that chunk, and E-X closes it; any other
tag closes the open chunk and, unless it is O, opens its own, which S-X
and E-X close at once. A segment is legal when the rule table
(tagset.rules) allows the move into its first tag, or that tag to start the
sentence, and allows an O after its last tag: the sentence end behaves like
O, as in AllenNLP's allowed_transitions. For BIOES that is "a chunk needs
its E"; for BIO it always holds. Repair rebuilds the path from the segment
list in canonical form:

  retain  - keep every segment, legal or not, re-emitting it canonically
  discard - keep only legal segments
  none    - return the input unchanged

retain and discard always produce a legal path. Both run on a whole corpus
at once, over its concatenated tags: extract_segments_batch and
repair_tags_batch, which extract_segments and repair_tags run at B = 1.
All of them read one pass of chunks, whose arrays evaluation.score_paths
scores without building a Segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schemes import OUTSIDE, Tagset, canonical_run, illegal_steps

STRATEGIES = ("retain", "discard", "none")


@dataclass(frozen=True)
class Segment:
    """Typed span [start, end), legal when the rule table allows its first
    move and an O after it."""

    entity_type: str
    start: int
    end: int
    legal: bool

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span [{self.start}, {self.end})")

    @property
    def span(self) -> tuple[str, int, int]:
        return (self.entity_type, self.start, self.end)


def chunks(paths: list, tagset: Tagset) -> tuple[np.ndarray, ...]:
    """One pass over a corpus' concatenated tags (module docstring): the flat
    tags, each path's first position, and every chunk's flat start, end and
    legality, in order; a chunk's entity type is its first tag's. A tag that
    cannot start a sentence (an I-X or E-X) continues the chunk before it
    exactly when the rule table allows the move into it, and no chunk
    crosses a path's end."""
    flat, firsts, illegal_step = illegal_steps(tagset, paths)
    outside = tagset.index_of(OUTSIDE)
    illegal = tagset.rules.table(tagset.size)
    joins = np.append(illegal[-1, flat] & ~illegal_step, False)  # joins the chunk before it
    joins[firsts] = False
    starts = np.flatnonzero((flat != outside) & ~joins[:-1])
    ends = np.flatnonzero((flat != outside) & ~joins[1:]) + 1
    illegal_end = illegal[flat[ends - 1], outside]  # END behaves like O
    return flat, firsts, starts, ends, ~illegal_step[starts] & ~illegal_end


def extract_segments_batch(paths: list, tagset: Tagset) -> list[list[Segment]]:
    """The typed segments of every path of a corpus, read in one pass over
    the concatenated tags; only the Segment objects are built one by one."""
    flat, firsts, starts, ends, legal = chunks(paths, tagset)
    sentence = np.searchsorted(firsts, starts, side="right") - 1
    columns = (sentence, flat[starts], starts - firsts[sentence], ends - firsts[sentence], legal)
    segments: list[list[Segment]] = [[] for _ in range(len(firsts))]
    for k, tag, start, end, ok in zip(*(column.tolist() for column in columns)):
        segments[k].append(Segment(tagset.parts[tag][1], start, end, ok))
    return segments


def extract_segments(tags: list[int], tagset: Tagset) -> list[Segment]:
    """The typed segments of one tag path: extract_segments_batch at B = 1."""
    return extract_segments_batch([tags], tagset)[0]


def _canonical_tags(size: int, starts, ends, heads, tagset: Tagset) -> np.ndarray:
    """An O-filled path of size tags with each span [start, end) re-emitted
    as canonical_run emits a run of the entity type of its tag in heads."""
    outside = tagset.index_of(OUTSIDE)
    runs = {t: canonical_run(tagset, t, 3) + canonical_run(tagset, t, 1) for t in tagset.entity_types}
    codes = np.array([runs.get(t, [outside] * 4) for _, t in tagset.parts], dtype=np.intp)
    begin, inside, last, single = codes[heads].T
    lengths = ends - starts
    out = np.full(size, outside, dtype=np.intp)
    covered = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    out[covered] = np.repeat(inside, lengths)
    out[starts] = begin
    out[ends - 1] = last
    out[starts[lengths == 1]] = single[lengths == 1]
    return out


def keeps(legal, strategy: str):
    """Whether a repair strategy keeps segments of this legality (a bool or a
    bool array): none and retain keep all, discard the legal ones; retain's
    and discard's kept spans are the repaired path's. ValueError if unknown."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    return legal | (strategy != "discard")


def repair_tags_batch(paths: list, tagset: Tagset, strategy: str) -> list[list[int]]:
    """Apply a repair strategy to every (possibly illegal) predicted path of a
    corpus: the kept segments are re-emitted into one O-filled array."""
    if strategy == "none":
        return [list(tags) for tags in paths]
    flat, firsts, starts, ends, legal = chunks(paths, tagset)
    kept = keeps(legal, strategy)
    out = _canonical_tags(flat.size, starts[kept], ends[kept], flat[starts[kept]], tagset).tolist()
    bounds = [*firsts.tolist(), flat.size]
    return [out[a:b] for a, b in zip(bounds, bounds[1:])]


def repair_tags(tags: list[int], tagset: Tagset, strategy: str) -> list[int]:
    """Apply a repair strategy to one predicted path: repair_tags_batch at B = 1."""
    return repair_tags_batch([tags], tagset, strategy)[0]
