"""Tagging schemes (BIO, BIOES): tagset construction and transition legality.

The tag order is fixed and deterministic: O first, then one block per
entity type in the given order. BIO blocks are (B-X, I-X); BIOES blocks
are (B-X, I-X, E-X, S-X). Legality is a pure function of the two tags'
prefixes and types:

  BIO:   I-X may only follow B-X or I-X of the same type.
  BIOES: B-X/I-X must be followed by I-X or E-X of the same type;
         O, E-X and S-X may be followed by O, any B-*, or any S-*.

A path is illegal if it contains an illegal adjacent pair or starts on a
tag that cannot open a sentence (I-* for BIO; I-* and E-* for BIOES). Both
are one boolean (d + 1, d) table, TransitionRuleSet.table(d): the start of
a sentence is a move from a tag d before it, so the illegal starts are its
row d, as the start scores are row d of crf.TransitionMatrix.table.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DataError

OUTSIDE = "O"


class Scheme(str, Enum):
    BIO = "bio"
    BIOES = "bioes"


_PREFIXES = {Scheme.BIO: ("B", "I"), Scheme.BIOES: ("B", "I", "E", "S")}


@dataclass(frozen=True)
class Tagset:
    """Immutable tag inventory for one scheme and an ordered set of entity types."""

    scheme: Scheme
    entity_types: tuple[str, ...]
    tags: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.tags)

    def index_of(self, tag: str) -> int:
        try:
            return self._indices[tag]
        except KeyError:
            raise ValueError(f"unknown tag {tag!r} for scheme {self.scheme.value}") from None

    def tag_of(self, index: int) -> str:
        if not 0 <= index < len(self.tags):
            raise ValueError(f"tag index {index} out of range [0, {len(self.tags)})")
        return self.tags[index]

    def check_indices(self, path: list[int] | tuple[int, ...]) -> None:
        """Raise ValueError for a path that is empty or no sequence (a scalar
        or None), a non-integer or bool tag, or tag_of's for the first index
        outside [0, d)."""
        try:
            if len(path) == 0:  # `not path` raises on a numpy path, or reads array([0]) as empty
                raise ValueError("empty path")
        except TypeError:
            raise ValueError(f"not a sequence of tags ({type(path).__name__})") from None
        try:
            if bool in map(type, path):  # operator.index reads True as 1
                raise TypeError("a bool is not a tag index")
            path = list(map(operator.index, path))
        except TypeError as exc:
            raise ValueError(f"non-integer tag index ({exc})") from None
        if min(path) < 0 or max(path) >= len(self.tags):
            for index in path:
                self.tag_of(index)

    def concatenate(self, paths: list) -> tuple[np.ndarray, np.ndarray]:
        """Every path's tags end to end in one intp array, and the position of
        each path's first tag, after check_indices' checks (the first path
        they refuse raises); a corpus of int lists is checked in one pass."""
        try:
            plain = all(map(len, paths)) and {int}.issuperset(map(type, chain.from_iterable(paths)))
            flat = np.fromiter(chain.from_iterable(paths), np.intp) if plain else None
        except (TypeError, OverflowError):  # a path that is no sequence, or a huge index
            flat = None
        if flat is None or ((flat < 0) | (flat >= len(self.tags))).any():
            for path in paths:
                self.check_indices(path)
            flat = np.fromiter(map(operator.index, chain.from_iterable(paths)), np.intp)
        lengths = np.fromiter(map(len, paths), np.intp, len(paths))
        return flat, np.cumsum(lengths) - lengths

    @cached_property
    def _indices(self) -> dict[str, int]:
        return {tag: i for i, tag in enumerate(self.tags)}

    @cached_property
    def parts(self) -> tuple[tuple[str, str | None], ...]:
        """(prefix, entity type) of every tag, by index; O is ("O", None)."""
        return tuple(
            (OUTSIDE, None) if tag == OUTSIDE else tuple(tag.split("-", 1)) for tag in self.tags
        )

    @cached_property
    def type_codes(self) -> np.ndarray:
        """The entity type of every tag, by index, as its position in
        entity_types; O is -1. Read-only: the one array that the rules and
        chunk scoring compare types through."""
        codes = np.array([-1 if t is None else self.entity_types.index(t) for _, t in self.parts])
        codes.flags.writeable = False
        return codes

    @cached_property
    def rules(self) -> "TransitionRuleSet":
        """The compiled illegal transitions and starts, built on first use:
        the one run-time answer to whether a path is legal."""
        return illegal_transition_set(self)


def build_tagset(scheme: Scheme | str, entity_types: list[str] | tuple[str, ...]) -> Tagset:
    """Build the canonical tagset: O, then per-type prefix blocks in order."""
    scheme = Scheme(scheme)
    types = tuple(entity_types)
    if not types:
        raise ConfigurationError("at least one entity type is required")
    if len(set(types)) != len(types):
        raise ConfigurationError(f"duplicate entity types: {list(types)}")
    for t in types:
        if not t or t == OUTSIDE or "-" in t:
            raise ConfigurationError(f"invalid entity type name {t!r}")
    tags = [OUTSIDE]
    for t in types:
        tags.extend(f"{p}-{t}" for p in _PREFIXES[scheme])
    return Tagset(scheme=scheme, entity_types=types, tags=tuple(tags))


@dataclass(frozen=True)
class TransitionRuleSet:
    """The illegal transition pairs (omega) and illegal start tags of a tagset.

    The two sets are the whole rule set: equality and hashing read them
    only. table(d) expands them into the one boolean lookup table that
    masking, training, the enumeration oracles and every legality check
    read, and moves(d) lists the legal moves the decoder maximises over;
    both are built on first use for each d and kept.
    """

    omega: frozenset[tuple[int, int]]
    illegal_starts: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_moves", {})

    def table(self, d: int) -> np.ndarray:
        """The read-only boolean (d + 1, d) table for d tags, expanded on
        first use for each d: [i, j] for the move from tag i to tag j (omega)
        and row d for the starts, as if from a tag d before the sentence."""
        if d not in self._tables:
            pairs = np.fromiter(chain.from_iterable(self.omega), np.intp).reshape(-1, 2)
            starts = np.fromiter(self.illegal_starts, np.intp)
            for name, index in (("mask entry", pairs), ("illegal start", starts)):
                if index.size and (index.min() < 0 or index.max() >= d):
                    raise ValueError(f"{name} index out of range for {d} tags")
            table = np.zeros((d + 1, d), dtype=bool)
            table[pairs[:, 0], pairs[:, 1]] = True
            table[d, starts] = True
            table.flags.writeable = False
            self._tables[d] = table
        return self._tables[d]

    def moves(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The legal moves (i, j) for d tags in row-major order, compiled on
        first use for each d: their cells i * d + j, their successors j and
        the first move of each i. ValueError names a tag that no legal move
        leaves, or says that no tag may start a sentence."""
        if d not in self._moves:
            illegal = self.table(d)
            cells = np.flatnonzero(~illegal[:d])
            firsts = np.searchsorted(cells, np.arange(d) * d)
            stuck = np.flatnonzero(np.diff(firsts, append=cells.size) == 0)
            if stuck.size:
                raise ValueError(f"tag {stuck[0]} has no legal successor")
            if illegal[d].all():
                raise ValueError("no tag is a legal start")
            compiled = cells, cells % d, firsts
            for array in compiled:
                array.flags.writeable = False
            self._moves[d] = compiled
        return self._moves[d]

    def without_start_rules(self) -> "TransitionRuleSet":
        return TransitionRuleSet(self.omega, frozenset())


def illegal_transition_set(tagset: Tagset) -> TransitionRuleSet:
    """Compile every illegal (from, to) pair and every illegal start tag, the
    one definition of the module docstring's rules: each tag's prefix, read
    from tagset.parts, and its type code, from tagset.type_codes, and the
    rules apply to all pairs at once by broadcasting. Use tagset.rules,
    which builds this once per tagset."""
    prefix = np.array([p for p, _ in tagset.parts])
    etype = tagset.type_codes
    bioes = tagset.scheme is Scheme.BIOES
    continues = np.isin(prefix, ("I", "E") if bioes else ("I",))  # needs an open chunk
    opened = np.isin(prefix, ("B", "I"))  # leaves its chunk open
    joins = opened[:, None] & (etype[:, None] == etype[None, :])
    # a continuation must join the chunk before it (so cannot open a
    # sentence); in BIOES nothing else may follow an open chunk
    illegal = np.where(continues[None, :], ~joins, opened[:, None] & bioes)
    return TransitionRuleSet(
        frozenset(zip(*(index.tolist() for index in np.nonzero(illegal)))),
        frozenset(np.flatnonzero(continues).tolist()),
    )


def canonical_run(tagset: Tagset, entity_type: str, length: int) -> list[int]:
    """Canonical legal tags for one entity of the given length: B-X I-X ...
    for BIO; S-X alone or B-X I-X ... E-X for BIOES."""
    begin = tagset.index_of(f"B-{entity_type}")
    inside = tagset.index_of(f"I-{entity_type}")
    if tagset.scheme is Scheme.BIO:
        return [begin] + [inside] * (length - 1)
    if length == 1:
        return [tagset.index_of(f"S-{entity_type}")]
    return [begin] + [inside] * (length - 2) + [tagset.index_of(f"E-{entity_type}")]


def first_violation(
    tagset: Tagset, path: list[int] | tuple[int, ...], enforce_start: bool = True
) -> tuple[int, str] | None:
    """The first illegality of one path, (0-based position, human-readable
    rule), or None for a legal path: corpus_violation at B = 1."""
    hit = corpus_violation(tagset, [path], enforce_start)
    return None if hit is None else hit[1:]


def illegal_steps(tagset: Tagset, paths: list, enforce_start: bool = True) -> tuple[np.ndarray, ...]:
    """Tagset.concatenate's tags and first positions of a corpus, and for each
    tag whether the move into it is illegal: the rule table at (tag before,
    tag), and at a path's first tag, its start, at (d, tag). The pairs are
    gathered through views of the tags: an (N,) array of tags before would
    cost 8 bytes a token."""
    flat, firsts = tagset.concatenate(paths)
    table = tagset.rules.table(tagset.size)
    bad = np.empty(flat.size, dtype=bool)
    bad[1:] = table[flat[:-1], flat[1:]]
    bad[firsts] = table[-1, flat[firsts]] & enforce_start
    return flat, firsts, bad


def corpus_violation(tagset: Tagset, paths: list, enforce_start: bool = True) -> tuple | None:
    """The first illegality of a corpus, from one gather over its paths:
    (0-based sentence, 0-based position, human-readable rule), or None when
    every path is legal. A start violation reports position 0."""
    flat, firsts, bad = illegal_steps(tagset, paths, enforce_start)
    if not bad.any():
        return None
    hit = int(bad.argmax())
    k = int(np.searchsorted(firsts, hit, "right")) - 1
    t = hit - int(firsts[k])
    tag = tagset.tags[flat[hit]]
    if t == 0:
        return k, 0, f"{tag} cannot start a sentence"
    return k, t, f"{tagset.tags[flat[hit - 1]]} -> {tag} is not a legal transition"


def validate_gold_paths(
    tagset: Tagset, paths: Iterable[list[int]], enforce_start: bool = True, name: str = ""
) -> None:
    """Raise DataError at the first illegal or unusable gold path, naming the
    1-based sentence (and position); name (e.g. "dev ") prefixes it."""
    paths = list(paths)
    try:
        hit = corpus_violation(tagset, paths, enforce_start)
    except ValueError:  # some path is unusable: an illegal one before it still comes first
        for k, path in enumerate(paths):
            try:
                hit = first_violation(tagset, path, enforce_start=enforce_start)
            except ValueError as exc:
                raise DataError(f"{name}sentence {k + 1}: {exc}") from None
            if hit is not None:
                hit = (k, *hit)
                break
    if hit is not None:
        k, pos, rule = hit
        raise DataError(f"{name}sentence {k + 1}, position {pos + 1}: illegal gold path ({rule})")
