"""Deliberately small emission model: a window-3 linear layer over token
embeddings.

logits[t] = concat(E[tok_{t-1}], E[tok_t], E[tok_{t+1}]) @ P + b

Out-of-sentence neighbors use the padding embedding (row 0). A batch is its
sentences' window_ids concatenated; encode and encoder_backward refuse ids
that are not integers or fall outside the embedding table. encode gathers a
batch's embeddings in one step; its formula is _encode, which also takes a
stack of weight sets along one class, (M, V, e) embeddings, (M, 3e, d)
projections or (M, d) biases, for M logit matrices from one call, each with
the bits of encode under its own set (verify's encoder check encodes every
perturbed copy of a class that way). encoder_backward forms x.T @ d_logits and
d_logits @ P.T as whole products and then scatters the embedding gradient
in three flat np.add.at calls, one per window slot (prev, self, next), so at
most one (N, 3e) array is alive at a time. The point is a trainable, fully
differentiable emission source that keeps every experiment runnable on a
desk; emissions can also come from a logits file produced by any external
model (load_external_logits / write_logits). A logits file is read against
the active tagset's names and its companion corpus's sentence lengths, both
required, and its error lines quote a field of the file in short.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FormatError, read_blocks

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map with fixed special entries: pad=0, unk=1."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) < 2 or self.tokens[0] != PAD_TOKEN or self.tokens[1] != UNK_TOKEN:
            raise ValueError("vocabulary must start with the pad and unk tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_index", {tok: i for i, tok in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def index(self) -> dict[str, int]:
        return self._index

    def lookup(self, token: str) -> int:
        return self.index.get(token, UNK_INDEX)

    def lookup_all(self, tokens: Iterable[str]) -> list[int]:
        idx = self.index
        return [idx.get(t, UNK_INDEX) for t in tokens]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build from raw tokens in first-occurrence order, specials first."""
        seen = dict.fromkeys([PAD_TOKEN, UNK_TOKEN])
        for t in tokens:
            seen.setdefault(t)
        return cls(tokens=tuple(seen))


@dataclass
class EncoderWeights:
    """Embedding table (V, e), projection (3e, d), bias (d).

    Doubles as the gradient container: encoder_backward returns an
    EncoderWeights holding arrays of the same shapes.
    """

    embeddings: np.ndarray
    projection: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        e = self.embeddings.shape[1]
        if self.projection.shape[0] != 3 * e:
            raise ValueError(
                f"projection expects 3*e = {3 * e} input features, "
                f"got {self.projection.shape[0]}"
            )
        if self.bias.shape != (self.projection.shape[1],):
            raise ValueError("bias length must match the projection output width")

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def num_tags(self) -> int:
        return self.projection.shape[1]

    @classmethod
    def init(
        cls, vocab_size: int, embedding_dim: int, num_tags: int, rng: np.random.Generator
    ) -> "EncoderWeights":
        """Uniform [-0.1, 0.1] everywhere, drawn from the given generator."""
        return cls(
            embeddings=rng.uniform(-0.1, 0.1, size=(vocab_size, embedding_dim)),
            projection=rng.uniform(-0.1, 0.1, size=(3 * embedding_dim, num_tags)),
            bias=rng.uniform(-0.1, 0.1, size=num_tags),
        )

    @classmethod
    def zeros(cls, vocab_size: int, embedding_dim: int, num_tags: int) -> "EncoderWeights":
        return cls(
            embeddings=np.zeros((vocab_size, embedding_dim)),
            projection=np.zeros((3 * embedding_dim, num_tags)),
            bias=np.zeros(num_tags),
        )


def window_ids(token_ids: list[int]) -> np.ndarray:
    """The (T, 3) window ids of one sentence: row t holds the ids of tokens
    t-1, t and t+1, with PAD_INDEX outside the sentence."""
    ids = np.asarray(token_ids)
    if ids.ndim != 1 or ids.shape[0] == 0 or ids.dtype.kind not in "iu":
        raise ValueError("token ids must be a non-empty one-dimensional integer sequence")
    windows = np.zeros((len(ids), 3), dtype=np.intp)  # PAD_INDEX is 0
    windows[1:, 0] = ids[:-1]
    windows[:, 1] = ids
    windows[:-1, 2] = ids[1:]
    return windows


def _windows(token_ids: list[int] | np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """The window ids of one sentence's ids, or the given (N, 3) window ids,
    each id checked against the embedding table."""
    windows = np.asarray(token_ids)
    if windows.ndim == 1:
        windows = window_ids(windows)
    elif windows.dtype.kind not in "iu":  # astype would truncate 2.7 to 2
        raise ValueError(f"window ids must be integers, got dtype {windows.dtype}")
    windows = windows.astype(np.intp, copy=False)
    vocab_size = weights.embeddings.shape[0]
    if windows.view(np.uintp).max() >= vocab_size:  # a negative id wraps to a huge one
        bad = windows[(windows < 0) | (windows >= vocab_size)][0]
        raise ValueError(f"token id {bad} out of range [0, {vocab_size}) for the embedding table")
    return windows


def encode(token_ids: list[int] | np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """Emission logits (N, d), one row per token: token_ids is one sentence's
    ids, or a batch's (N, 3) window ids."""
    windows = _windows(token_ids, weights)
    return _encode(windows, weights.embeddings, weights.projection, weights.bias)


def _encode(
    windows: np.ndarray, embeddings: np.ndarray, projection: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """encode of checked (N, 3) window ids, unchecked, under one weight set,
    or under a stack of M along one class: (M, V, e) embeddings, (M, 3e, d)
    projections or (M, d) biases give (M, N, d) logits, each (N, d) slice
    with the bits of encode under its own weight set."""
    x = embeddings.take(windows, axis=-2)  # (..., N, 3, e)
    return x.reshape(x.shape[:-2] + (-1,)) @ projection + bias[..., None, :]


def encoder_backward(
    token_ids: list[int] | np.ndarray, d_logits: np.ndarray, weights: EncoderWeights
) -> EncoderWeights:
    """Chain-rule gradients for encode of the same token_ids, given d loss /
    d logits. Embedding rows absent from every window get exactly zero."""
    windows = _windows(token_ids, weights)
    n = len(windows)
    d_logits = np.asarray(d_logits, dtype=np.float64)
    if d_logits.shape != (n, weights.num_tags):
        raise ValueError(
            f"d_logits shape {d_logits.shape} does not match ({n}, {weights.num_tags})"
        )
    e = weights.embedding_dim
    d_bias = d_logits.sum(axis=0)
    # Both products stay whole: split by window slot, BLAS would block them
    # differently and move their last bits. The gathered x is freed once its
    # product is formed, so at most one (N, 3e) array is alive at a time.
    d_projection = weights.embeddings.take(windows, axis=0).reshape(n, -1).T @ d_logits
    d_x = (d_logits @ weights.projection.T).reshape(n, 3, e)
    d_embeddings = np.zeros(weights.embeddings.shape)
    # One flat scatter per window slot (prev, self, next) into the cells of
    # the C-ordered table: np.add.at takes its fast path on 1-D indices and
    # values, and each cell gets its additions in slot order, then row order.
    cells = d_embeddings.reshape(-1)
    columns = np.arange(e)
    for slot in range(3):
        np.add.at(cells, (windows[:, slot, None] * e + columns).ravel(), d_x[:, slot].ravel())
    return EncoderWeights(embeddings=d_embeddings, projection=d_projection, bias=d_bias)


def write_logits(path: str, sequences: list[np.ndarray], tags: tuple[str, ...]) -> None:
    """Write per-position emission scores in the external logits format.

    Header line: "d=<int>\\ttags=<comma-separated tag names>". Then one line
    of d tab-separated floats per position, sentences separated by a blank
    line. Floats are written with repr so reading them back is exact.
    """
    d = len(tags)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d={d}\ttags={','.join(tags)}\n")
        for k, seq in enumerate(sequences):
            seq = np.asarray(seq, dtype=np.float64)
            if seq.ndim != 2 or seq.shape[1] != d:
                raise ValueError(f"sequence {k} has shape {seq.shape}, expected (T, {d})")
            for row in seq:
                fh.write("\t".join(repr(float(v)) for v in row) + "\n")
            fh.write("\n")


def load_external_logits(path: str, tags: tuple[str, ...], lengths: list[int]) -> list[np.ndarray]:
    """Read a logits file; validates its width and tag names against tags,
    the active tagset's names, and its sentence count and each sentence's
    length against lengths, the companion corpus's sentence lengths.

    The header is line 1, and each sentence is one block of
    errors.read_blocks after it. Every failure names the offending line
    number.
    """
    blocks = list(read_blocks(path))
    if not blocks or blocks[0][0] != 1:
        raise FormatError(f"{path}:1: missing header line")
    header, *rows = blocks[0][1]
    parts = header.split("\t")
    if len(parts) != 2 or not parts[0].startswith("d=") or not parts[1].startswith("tags="):
        raise FormatError(
            f"{path}:1: header must be 'd=<int>\\ttags=<names>', got {reprlib.repr(header)}"
        )
    try:
        d = int(parts[0][2:])
    except ValueError:
        raise FormatError(
            f"{path}:1: non-integer width in header: {reprlib.repr(parts[0])}"
        ) from None
    file_tags = tuple(parts[1][5:].split(","))
    if len(file_tags) != d:
        raise FormatError(
            f"{path}:1: header declares d={reprlib.repr(d)} but lists {len(file_tags)} tag names"
        )
    if file_tags != tuple(tags):
        raise FormatError(
            f"{path}:1: tag names {reprlib.repr(list(file_tags))} do not match the "
            f"active tagset {reprlib.repr(list(tags))}"
        )
    # rows right after the header make a sentence that starts at line 2
    blocks = [(2, rows)] + blocks[1:] if rows else blocks[1:]
    sequences: list[np.ndarray] = []
    for first, lines in blocks:
        values = []
        for lineno, line in enumerate(lines, start=first):
            fields = line.split("\t")
            if len(fields) != d:
                raise FormatError(
                    f"{path}:{lineno}: expected {d} fields, found {len(fields)}"
                )
            try:
                row = [float(f) for f in fields]
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: non-numeric field in {reprlib.repr(line)}"
                ) from None
            if not all(np.isfinite(row)):
                raise FormatError(
                    f"{path}:{lineno}: non-finite value in {reprlib.repr(line)}"
                )
            values.append(row)
        sequences.append(np.asarray(values, dtype=np.float64))
    if len(sequences) != len(lengths):
        raise FormatError(
            f"{path}: holds {len(sequences)} sentences but the companion "
            f"corpus has {len(lengths)}"
        )
    for k, ((first, lines), length) in enumerate(zip(blocks, lengths)):
        if len(lines) != length:
            raise FormatError(
                f"{path}:{first}: sentence {k + 1} has {len(lines)} rows but the "
                f"companion corpus sentence has {length} tokens"
            )
    return sequences
