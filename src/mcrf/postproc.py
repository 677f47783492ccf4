"""Segment extraction and post-hoc repair of predicted tag paths.

Extraction follows the conlleval reading of broken sequences, in one rule:
I-X or E-X after an open chunk of type X continues that chunk, and E-X
closes it; any other tag closes the open chunk and, unless it is O, opens
its own, which S-X and E-X close at once. A segment is legal when the rule
tables (tagset.rules) allow the move into its first tag, or that tag to
start the sentence, and allow an O after its last tag: the sentence end
behaves like O, as in AllenNLP's allowed_transitions. For BIOES that is
"a chunk needs its E"; for BIO it always holds. Repair rebuilds the path
from the segment list in canonical form:

  retain  - keep every segment, legal or not, re-emitting it canonically
  discard - keep only legal segments
  none    - return the input unchanged

retain and discard always produce a legal path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schemes import OUTSIDE, Tagset, canonical_run

STRATEGIES = ("retain", "discard", "none")


@dataclass(frozen=True)
class Segment:
    """Typed span [start, end), legal when the rule tables allow its first
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


def extract_segments(tags: list[int], tagset: Tagset) -> list[Segment]:
    """Single left-to-right pass collecting typed segments from a tag path
    (module docstring): every verdict is read from tagset.rules.tables."""
    tagset.check_indices(tags)
    parts = tagset.parts
    illegal_pair, illegal_start = tagset.rules.tables(tagset.size)
    illegal_end = illegal_pair[:, tagset.index_of(OUTSIDE)]  # END behaves like O
    segments: list[Segment] = []
    open_type: str | None = None
    open_start, open_legal = 0, True

    def close(end: int) -> None:
        legal = open_legal and not illegal_end[tags[end - 1]]
        segments.append(Segment(open_type, open_start, end, legal))

    for t, tag in enumerate(tags):
        prefix, etype = parts[tag]
        if etype != open_type or prefix not in ("I", "E"):  # no continuation
            if open_type is not None:
                close(t)
            open_type = etype
            if etype is None:
                continue
            open_start = t
            open_legal = not (illegal_pair[tags[t - 1], tag] if t else illegal_start[tag])
        if prefix in ("E", "S"):
            close(t + 1)
            open_type = None
    if open_type is not None:
        close(len(tags))
    return segments


def segments_to_tags(segments: list[Segment], length: int, tagset: Tagset) -> list[int]:
    """Canonical tag path realizing the given (non-overlapping) segments."""
    tags = [tagset.index_of("O")] * length
    last_end = 0
    for seg in sorted(segments, key=lambda s: s.start):
        if seg.start < last_end or seg.end > length:
            raise ValueError("segments overlap or exceed the sentence")
        last_end = seg.end
        tags[seg.start : seg.end] = canonical_run(tagset, seg.entity_type, seg.end - seg.start)
    return tags


def repair_segments(segments: list[Segment], strategy: str) -> list[Segment]:
    """The segments a repair strategy keeps: every one for retain and none,
    the legal ones for discard. For retain and discard their spans are
    exactly the spans of the repaired path's segments."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if strategy == "discard":
        return [s for s in segments if s.legal]
    return segments


def repair_tags(tags: list[int], tagset: Tagset, strategy: str) -> list[int]:
    """Apply a repair strategy to a (possibly illegal) predicted path."""
    if strategy == "none":
        return list(tags)
    segments = repair_segments(extract_segments(tags, tagset), strategy)
    return segments_to_tags(segments, len(tags), tagset)
