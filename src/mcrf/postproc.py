"""Segment extraction and post-hoc repair of predicted tag paths.

Extraction follows the conlleval reading of broken sequences: an I-X that
cannot continue the open chunk closes that chunk where it stands and opens
a new segment flagged illegal; a segment's legality is the legality of its
opening transition (for BIOES, an unclosed B/I run is also illegal). Repair
rebuilds the path from the segment list in canonical form:

  retain  - keep every segment, legal or not, re-emitting it canonically
  discard - keep only legal segments
  none    - return the input unchanged

retain and discard always produce a legal path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schemes import Scheme, Tagset, canonical_run

STRATEGIES = ("retain", "discard", "none")


@dataclass(frozen=True)
class Segment:
    """Typed span [start, end) with the legality of how it was opened."""

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
    """Single left-to-right pass collecting typed segments from a tag path."""
    tagset.check_indices(tags)
    segments: list[Segment] = []
    open_type: str | None = None
    open_start = 0
    open_legal = True

    def close(end: int, force_illegal: bool = False) -> None:
        nonlocal open_type
        if open_type is not None:
            segments.append(
                Segment(open_type, open_start, end, open_legal and not force_illegal)
            )
            open_type = None

    parts = tagset.parts
    illegal_pair, illegal_start = tagset.rules.tables(tagset.size)

    def opening_is_legal(pos: int, tag: int) -> bool:
        if pos == 0:
            return not illegal_start[tag]
        return not illegal_pair[tags[pos - 1], tag]

    bioes = tagset.scheme is Scheme.BIOES
    for t, tag in enumerate(tags):
        prefix, etype = parts[tag]
        if prefix == "O":
            close(t, force_illegal=bioes)
        elif prefix == "B":
            close(t, force_illegal=bioes)
            open_type, open_start = etype, t
            open_legal = opening_is_legal(t, tag)
        elif prefix == "S":
            close(t, force_illegal=True)
            segments.append(Segment(etype, t, t + 1, opening_is_legal(t, tag)))
        elif prefix == "E":
            if open_type == etype:
                close(t + 1)
            else:
                close(t, force_illegal=True)
                segments.append(Segment(etype, t, t + 1, False))
        else:  # I
            if open_type == etype:
                continue
            close(t, force_illegal=bioes)
            open_type, open_start = etype, t
            open_legal = False
    # BIO runs end naturally at the sentence boundary; BIOES runs left open
    # at the boundary never saw their E and are illegal.
    close(len(tags), force_illegal=bioes)
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
