"""Linear-chain CRF core: path scores, partition function, NLL gradients,
Viterbi decoding, and exact brute-force oracles.

A path p = (n_1 .. n_T) over d tags scores

    s(p, x) = start[n_1] + sum_t l[t, n_t] + sum_t a[n_t, n_{t+1}]

where l is the (T, d) emission matrix and a the (d, d) transition matrix.
The start vector defaults to zero, in which case it contributes nothing.

One float64 engine runs forward-backward over a left-aligned, zero-padded,
time-major (T, B, d) batch, so each step works on one contiguous (B, d)
block; one sentence is a batch of one. A list of (emissions, gold) pairs is
padded by a loop over its sentences and gets one (T_k, d) gradient per
sentence; a TokenBatch, as training draws it, is checked and padded by a
fixed number of numpy calls and gets one (N, d) gradient. Both give the same
bits. The forward pass is a scaled
log-matmul-exp: with r the row maxima of a and K = exp(a - r[:, None]) (entries
<= 1, masked ones exact zeros), m = max_i(alpha_{t-1,i} + r_i), u_t =
exp(alpha_{t-1} + r - m), v_t = u_t @ K, alpha_t = l_t + m + log v_t. Its
adjoint gives the marginals gamma_{t-1} = u_t * (K @ w_t) and the expected
counts K * sum_t u_t^T w_t, with w_t = gamma_t / v_t; no (d, d) tensor is built
per position. v_t sums nonnegative terms, each rounded by at most 2^-1074, so
while it stays above 2^52 times the smallest normal float (~1e-292) a step keeps
relative precision near machine epsilon at any score magnitude and no sum of
w_t overflows. A row whose v_t falls below that (at score gaps of ~670 or more)
redoes the step in log space over its (rows, d, d) scores, forward and backward.

One max-product engine, viterbi_batch(emissions_list, trans, rules), decodes a
corpus; viterbi is its batch of one. It maximises over the legal moves (i, j)
and starts of rules only, all d^2 and d of them without rules; rules.moves(d)
lists the moves in row-major order (481 of 1681 at BIOES with 10 types). It
sorts the sentences longest first and right-aligns them, so every sentence
ends at the last column and the ones still running at a column are a prefix
of the rows: each backward step computes
tail[:k, t] = l[:k, t] + max_{legal j}(a[i, j] + tail[:k, t+1, j]) for those
k rows only, as one gather of tail at the moves' successors, one add of their
scores and one maximum.reduceat at each i's first move, and no padded cell is
computed. The forward read-off takes first-occurrence argmax over the legal
starts of start + tail at a sentence's first column and over the legal
successors of a[prev] + tail after it; illegal entries are never read. Every
cell sees the same float operations as a one-sentence recursion, so the paths
do not depend on the batch, and the tie-break argument holds row by row:
fixing earlier positions first, each to its smallest best tag, gives the
lexicographically smallest best path. On a matrix masked below the guard
threshold (masking.guard_threshold) every masked move loses to a legal one,
so max is the same selection as over all d^2 moves and the paths are those
of the dense recursion, ties included. The corpus runs in chunks of at most
_DECODE_CELLS float64 cells, counting the (b, T, d) table and the (b, moves)
step temporary, so memory stays bounded however large the corpus is.

No entry point returns a loss or log Z that is not finite, or reads a path
off NaN or +inf scores: the loss, log Z or decode table it computes anyway
is checked, and the inputs are scanned only to name the sentence in the
ValueError.

The brute-force routines enumerate all d^T paths (optionally restricted to
the legal subset defined by a TransitionRuleSet) in lexicographic order and
exist purely as independent oracles for the dynamic programs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .schemes import TransitionRuleSet

MAX_BRUTE_FORCE_PATHS = 10_000_000
_CHUNK = 1 << 16
_DECODE_CELLS = 1 << 16  # float64 cells per decode chunk: (b, T, d) table + (b, moves) step
_UNDERFLOW = np.finfo(np.float64).tiny * 2.0**52  # v_t below this takes the log-space step
_MAX_INTP = int(np.iinfo(np.intp).max)

_ALL_MOVES = TransitionRuleSet(frozenset(), frozenset())  # viterbi_batch without rules

Batch = list[tuple[np.ndarray, list[int]]]  # (emissions, gold path) pairs


@dataclass
class TransitionMatrix:
    """Transition scores plus the start-score vector.

    scores[i, j] is the score of moving from tag i to tag j; start[j] is
    added at position 0. Both are float64 and mutated in place by training.
    """

    scores: np.ndarray
    start: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.start = np.asarray(self.start, dtype=np.float64)
        d = self.scores.shape[0]
        if self.scores.shape != (d, d):
            raise ValueError(f"transition matrix must be square, got {self.scores.shape}")
        if self.start.shape != (d,):
            raise ValueError(
                f"start vector shape {self.start.shape} does not match {d} tags"
            )

    @property
    def num_tags(self) -> int:
        return self.scores.shape[0]

    @classmethod
    def zeros(cls, num_tags: int) -> "TransitionMatrix":
        return cls(np.zeros((num_tags, num_tags)), np.zeros(num_tags))

    def copy(self) -> "TransitionMatrix":
        return TransitionMatrix(self.scores.copy(), self.start.copy())


@dataclass
class CrfGradients:
    """Gradients of the batch-averaged NLL.

    emissions holds one (T_i, d) array per sentence of a list batch, or one
    (N, d) array, row for row, for a TokenBatch; transitions and start match
    TransitionMatrix. Every array is already divided by the batch size.
    """

    emissions: list[np.ndarray] | np.ndarray
    transitions: np.ndarray
    start: np.ndarray


@dataclass
class TokenBatch:
    """A token-major batch: the sentences' emissions concatenated (N, d),
    their lengths (B,) and their gold tags concatenated (N,). It iterates as
    its (emissions, gold) pairs, so the oracles read it too."""

    emissions: np.ndarray
    lengths: np.ndarray
    tags: np.ndarray

    def __post_init__(self) -> None:
        self.emissions = np.asarray(self.emissions, dtype=np.float64)
        self.lengths = np.asarray(self.lengths)
        self.tags = np.asarray(self.tags)

    def __len__(self) -> int:
        return self.lengths.size  # _padded names lengths that are not (B,)

    def __iter__(self):
        # _padded's checks at the emissions' own width: split would cut rows
        # that disagree with the lengths into pairs silently
        *_, lengths = self._padded(self.emissions.shape[1] if self.emissions.ndim == 2 else 0)
        bounds = np.cumsum(lengths)[:-1]
        return zip(np.split(self.emissions, bounds), np.split(self.tags, bounds))

    def _padded(self, d: int) -> tuple[np.ndarray, ...]:
        """Checked against d tags, before any allocation and in numpy calls
        whose number does not grow with the batch: the padded (T, B, d)
        emissions, (B, T) tags, gold moves i * d + j in sentence order, each
        token's padded row, and the (B,) intp lengths."""
        lengths, tags, emissions = self.lengths, self.tags, self.emissions
        # the sum is a Python int: an intp one can wrap to N (and crash np.repeat)
        if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or sum(lengths.tolist()) > _MAX_INTP:
            raise ValueError(
                f"lengths of shape {lengths.shape} and dtype {lengths.dtype}, "
                f"need (B,) integers with an intp sum"
            )
        if lengths.min() < 1:
            k = int((lengths < 1).argmax())
            raise ValueError(f"sentence {k + 1}: gold path of length {lengths[k]}, need T >= 1")
        lengths = lengths.astype(np.intp, copy=False)  # exact: each is at most the sum
        ends = np.cumsum(lengths)
        B, T, N = len(lengths), int(lengths.max()), int(ends[-1])
        if emissions.shape != (N, d):
            raise ValueError(
                f"emissions of shape {emissions.shape}, need ({N}, {d}) for {B} sentences"
            )
        if tags.shape != (N,) or tags.dtype.kind not in "iu":
            raise ValueError(
                f"gold tags of shape {tags.shape} and dtype {tags.dtype}, "
                f"need ({N},) integer tags"
            )
        tags = tags.astype(np.intp, copy=False)
        wrapped = tags.view(np.uintp)  # a negative tag wraps to a huge unsigned one
        if wrapped.max() >= d:
            k = int(np.searchsorted(ends, (wrapped >= d).argmax(), side="right"))
            raise ValueError(f"sentence {k + 1}: gold path has a tag index out of range [0, {d})")
        sentence = np.repeat(np.arange(B), lengths)
        position = np.arange(N) - (ends - lengths)[sentence]
        rows = position * B + sentence
        padded = np.zeros((T * B, d))  # pad cells stay exactly 0.0
        padded[rows] = emissions
        grid = np.zeros(B * T, dtype=np.intp)
        grid[sentence * T + position] = tags
        keep = np.ones(N - 1, dtype=bool)
        keep[ends[:-1] - 1] = False  # no move across a sentence boundary
        moves = (tags[:-1] * d + tags[1:])[keep]
        return padded.reshape(T, B, d), grid.reshape(B, T), moves, rows, lengths


def logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Numerically stable log(sum(exp(x))) via the max-shift trick."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def _sentence(emissions: np.ndarray, d: int, k: int = 0, length: int | None = None) -> np.ndarray:
    """Sentence k of a batch as a float64 (T, d) array with T >= 1, and
    T = length when given: the one emissions check of every entry point."""
    em = np.asarray(emissions, dtype=np.float64)
    if em.ndim != 2 or em.shape[1] != d or not len(em) or length not in (None, len(em)):
        need = f"({length or 'T >= 1'}, {d})"
        raise ValueError(f"sentence {k + 1}: emissions of shape {em.shape}, need {need}")
    return em


def _length(path) -> int | None:
    """len(path), or None for a path without one (empty, a scalar or None):
    its sentence's emissions are then checked alone, and _gold names it."""
    try:
        return len(path) or None
    except TypeError:
        return None


def _pairs(batch: Batch, d: int) -> tuple[list[np.ndarray], list[int], np.ndarray]:
    """A list batch's (T_k, d) emissions, their lengths and its padded gold
    tags, checked as every entry point that takes a list batch checks them."""
    sentences = [_sentence(em, d, k, _length(gold)) for k, (em, gold) in enumerate(batch)]
    sizes = [len(em) for em in sentences]  # a list: max and zip over it are cheap at B = 1
    return sentences, sizes, _gold([gold for _, gold in batch], sizes, d)


def _gold(paths: list, lengths: list[int], d: int) -> np.ndarray:
    """The gold paths of a batch, each of its sentence's length and of integer
    tags in [0, d), left-aligned in a zero-padded (B, max T) array: the one
    gold check of every entry point that scores a given path."""
    tags = np.zeros((len(paths), max(lengths)), dtype=np.intp)
    for k, (path, T) in enumerate(zip(paths, lengths)):
        # asarray reads a list of ints and bools as ints, and refuses a ragged one
        if isinstance(path, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, path)):
            raise ValueError(
                f"sentence {k + 1}: gold path holds a bool, need ({T},) integer tags"
            )
        try:
            path = np.asarray(path)
        except ValueError:
            raise ValueError(
                f"sentence {k + 1}: gold path is a ragged sequence, need ({T},) integer tags"
            ) from None
        if path.shape != (T,) or path.dtype.kind not in "iu":
            raise ValueError(
                f"sentence {k + 1}: gold path of shape {path.shape} and dtype {path.dtype}, "
                f"need ({T},) integer tags"
            )
        tags[k, :T] = path
    wrapped = tags.view(np.uintp)  # a negative tag wraps to a huge unsigned one
    if wrapped.max() >= d:
        k = int((wrapped >= d).any(axis=1).argmax())
        raise ValueError(f"sentence {k + 1}: gold path has a tag index out of range [0, {d})")
    return tags


def _not_finite(k: int, what: str) -> ValueError:
    """The ValueError for a non-finite loss, log Z or path score, naming
    sentence k."""
    return ValueError(f"sentence {k + 1}: {what}, need finite emissions and transition scores")


def path_score(emissions: np.ndarray, trans: TransitionMatrix, path: list[int]) -> float:
    """Score of one path: start + emissions along the path + transitions."""
    emissions = _sentence(emissions, trans.num_tags)
    T = len(emissions)
    tags = _gold([path], [T], trans.num_tags)[0]
    score = np.sum(emissions[np.arange(T), tags])
    score += np.sum(trans.scores[tags[:-1], tags[1:]])
    score += trans.start[tags[0]]
    return float(score)


def _forward_backward(
    emissions: np.ndarray, lengths: np.ndarray, trans: TransitionMatrix, gradients: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """log Z (B,) of a zero-padded time-major (T, B, d) batch and, with
    gradients, the position marginals (T, B, d) and expected transition
    counts. Steps past a sentence's end run on unused: log Z is read at the
    end, and the backward pass starts there."""
    T, B, d = emissions.shape
    r = trans.scores.max(axis=1)
    K = np.exp(trans.scores - r[:, None])
    KT = K.T
    alpha, u, v = np.empty((3, T, B, d))
    alpha[0] = trans.start + emissions[0]
    guarded = {}  # step -> (rows redone in log space, their log-sum-exp over i)
    for t in range(1, T):
        x = alpha[t - 1] + r
        m = x.max(axis=1, keepdims=True)
        np.matmul(np.exp(np.subtract(x, m, out=x), out=u[t]), K, out=v[t])
        if v[t].min() < _UNDERFLOW:
            low = (v[t] < _UNDERFLOW).any(axis=1)
            v[t, low] = np.inf  # zero weight in the product-form adjoint
            guarded[t] = low, logsumexp(alpha[t - 1, low, :, None] + trans.scores, axis=1)
        np.log(v[t], out=alpha[t])
        alpha[t] += m
        alpha[t] += emissions[t]
        if t in guarded:
            alpha[t, low] = emissions[t, low] + guarded[t][1]
    ends = lengths - 1, np.arange(B)
    top = alpha[ends].max(axis=1, keepdims=True)
    p = np.exp(alpha[ends] - top)
    log_z = top[:, 0] + np.log(p.sum(axis=1))
    if not gradients:
        return log_z, None, None
    gamma, w, counts = np.zeros((T, B, d)), np.zeros((T, B, d)), np.zeros((d, d))
    gamma[ends] = p / p.sum(axis=1, keepdims=True)
    for t in range(T - 1, 0, -1):
        np.divide(gamma[t], v[t], out=w[t])
        gamma[t - 1] += u[t] * (w[t] @ KT)
        if t in guarded:
            low, lse = guarded[t]
            pair = np.exp(alpha[t - 1, low, :, None] + trans.scores - lse[:, None])
            pair *= gamma[t, low, None]
            gamma[t - 1, low] += pair.sum(axis=2)
            counts += pair.sum(axis=0)
    # rows in sentence order, as the (B, T) layout had them: the counts keep their bits
    counts += K * (
        u[1:].transpose(1, 0, 2).reshape(-1, d).T @ w[1:].transpose(1, 0, 2).reshape(-1, d)
    )
    return log_z, gamma, counts


def _batch_nll(batch: Batch | TokenBatch, trans: TransitionMatrix, gradients: bool):
    """Mean NLL and, with gradients, CrfGradients, over the padded batch. Its
    gold tags are a C-ordered, zero-padded (B, T) array: the gold emissions
    are summed in that order, and another order moves the loss's last bit."""
    if not batch:
        raise ValueError("empty batch")
    d, n = trans.num_tags, len(batch)
    tokens = isinstance(batch, TokenBatch)
    if tokens:
        emissions, tags, moves, rows, lengths = batch._padded(d)
    else:
        sentences, sizes, tags = _pairs(batch, d)
        T, lengths = max(sizes), np.array(sizes)
        emissions = np.zeros((T, n, d))
        for k, em in enumerate(sentences):
            emissions[: sizes[k], k] = em
        moves = (tags[:, :-1] * d + tags[:, 1:])[np.arange(1, T) < lengths[:, None]]
    log_z, d_em, counts = _forward_backward(emissions, lengths, trans, gradients)
    cells = np.arange(tags.shape[1]), np.arange(n)[:, None], tags  # (B, T) gold cells
    gold = emissions[cells].sum() + trans.scores.ravel()[moves].sum()
    loss = float((log_z.sum() - gold - trans.start[tags[:, 0]].sum()) / n)
    if not math.isfinite(loss):  # so is every log Z: their sum is in it
        finite = np.isfinite(emissions).all(axis=(0, 2)) & np.isfinite(log_z)
        raise _not_finite(int(finite.argmin()), f"loss of {loss}")
    if not gradients:
        return loss, None
    d_em[cells] -= 1.0
    d_em /= n
    d_trans = (counts - np.bincount(moves, minlength=d * d).reshape(d, d)) / n
    if tokens:
        d_emissions = d_em.reshape(-1, d)[rows]
    else:
        d_emissions = [d_em[:size, k] for k, size in enumerate(sizes)]
    return loss, CrfGradients(d_emissions, d_trans, d_em[0].sum(axis=0))


def log_partition(emissions: np.ndarray, trans: TransitionMatrix) -> float:
    """log Z: log-sum-exp of all d^T path scores, the engine at B = 1."""
    emissions = _sentence(emissions, trans.num_tags)[:, None]
    log_z = float(_forward_backward(emissions, np.array([len(emissions)]), trans, False)[0][0])
    if not math.isfinite(log_z):
        raise _not_finite(0, f"log Z of {log_z}")
    return log_z


def nll_loss(batch: Batch | TokenBatch, trans: TransitionMatrix) -> float:
    """Mean NLL over a batch of (emissions, gold) pairs or a TokenBatch:
    log Z - s(gold)."""
    return _batch_nll(batch, trans, gradients=False)[0]


def loss_and_gradients(
    batch: Batch | TokenBatch, trans: TransitionMatrix
) -> tuple[float, CrfGradients]:
    """Batch NLL and its analytic gradients, for a list of (emissions, gold)
    pairs or a TokenBatch (see CrfGradients for the emission gradient).

    d l[t, j] = P(y_t = j) - 1{gold_t = j}
    d a[i, j] = sum_t P(y_t = i, y_{t+1} = j) - #(gold transitions i -> j)
    d start[j] = P(y_0 = j) - 1{gold_0 = j}

    all averaged over the batch.
    """
    return _batch_nll(batch, trans, gradients=True)


def viterbi_batch(
    emissions_list: list[np.ndarray],
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None = None,
) -> list[list[int]]:
    """Highest-scoring path of each sentence, in input order, over the legal
    moves and starts of rules (all of them without rules); ties resolve to
    the lexicographically smallest path. The scores of illegal entries are
    never read.

    tail[k, t, j] is the best score of sentence k's completion from column t
    with tag j; the recursion runs backward, then the paths are read off
    forward (module docstring).
    """
    d = trans.num_tags
    emissions_list = [_sentence(em, d, k) for k, em in enumerate(emissions_list)]
    lengths = [len(em) for em in emissions_list]
    if rules is None:
        rules, nexts, opens = _ALL_MOVES, trans.scores, trans.start
    else:
        illegal_pair, illegal_start = rules.tables(d)  # illegal entries win no read-off argmax
        nexts = np.where(illegal_pair, -np.inf, trans.scores)
        opens = np.where(illegal_start, -np.inf, trans.start)
    if not opens.max() < np.inf and emissions_list:  # nan or inf: see below
        raise _not_finite(0, f"a start score is {opens.max()}")
    cells, successors, firsts = rules.moves(d)
    move_scores = trans.scores.take(cells)
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)  # stable
    paths: list[list[int]] = [[] for _ in order]
    lo = 0
    while lo < len(order):
        T = lengths[order[lo]]
        chunk = order[lo : lo + max(1, _DECODE_CELLS // (T * d + cells.size))]
        lo += len(chunk)
        starts = [T - lengths[k] for k in chunk]  # right-aligned: all end at T - 1
        tail = np.zeros((len(chunk), T, d))  # cells before a row's start stay 0.0
        for row, k, start in zip(tail, chunk, starts):
            row[start:] = emissions_list[k]
        running = [bisect_right(starts, t) for t in range(T)]  # rows covering column t
        for t in range(T - 2, -1, -1):
            n = running[t]
            step = tail[:n, t + 1].take(successors, axis=1)
            step += move_scores
            tail[:n, t] += np.maximum.reduceat(step, firsts, axis=1)
        # a nan wins every argmax it meets, and an inf makes one beside an
        # illegal entry's -inf; -inf scores are fine
        if not tail.max() < np.inf:
            k, top = min((k, row.max()) for k, row in zip(chunk, tail) if not row.max() < np.inf)
            raise _not_finite(k, f"a path score is {top}")
        tags = np.empty((len(chunk), T), dtype=np.intp)
        for t in range(T):
            n0, n = (running[t - 1] if t else 0), running[t]  # rows [n0, n) start at t
            if n0:
                tags[:n0, t] = (nexts[tags[:n0, t - 1]] + tail[:n0, t]).argmax(axis=1)
            if n > n0:
                tags[n0:n, t] = (opens + tail[n0:n, t]).argmax(axis=1)
        for k, row, start in zip(chunk, tags.tolist(), starts):
            paths[k] = row[start:]
    return paths


def viterbi(
    emissions: np.ndarray, trans: TransitionMatrix, rules: TransitionRuleSet | None = None
) -> list[int]:
    """Highest-scoring path of one sentence: the engine at B = 1."""
    return viterbi_batch([emissions], trans, rules)[0]


def _check_enumerable(T: int, d: int) -> None:
    if d**T > MAX_BRUTE_FORCE_PATHS:
        raise SizeError(
            f"brute force refuses d^T = {d}^{T} = {d**T} paths "
            f"(limit {MAX_BRUTE_FORCE_PATHS})"
        )


def _iter_scored_chunks(
    emissions: np.ndarray,
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None,
):
    """Yield (paths, scores) chunks over all paths in lexicographic order.

    With rules, paths containing an omega pair or an illegal start are
    dropped from the chunk.
    """
    emissions = _sentence(emissions, trans.num_tags)
    T, d = emissions.shape
    _check_enumerable(T, d)
    if rules is not None:
        illegal_pair, illegal_start = rules.tables(d)
    total = d**T
    positions = np.arange(T)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        paths = np.stack(
            np.unravel_index(np.arange(lo, hi), (d,) * T), axis=1
        )  # lexicographic: position 0 is the most significant digit
        scores = emissions[positions[None, :], paths].sum(axis=1) + trans.start[paths[:, 0]]
        if T > 1:
            scores += trans.scores[paths[:, :-1], paths[:, 1:]].sum(axis=1)
        if rules is not None:
            keep = ~illegal_start[paths[:, 0]]
            if T > 1:
                keep &= ~illegal_pair[paths[:, :-1], paths[:, 1:]].any(axis=1)
            paths, scores = paths[keep], scores[keep]
        if len(paths):
            yield paths, scores


def brute_force_log_partition(
    emissions: np.ndarray,
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None = None,
) -> float:
    """Exact log Z by explicit enumeration (oracle for log_partition)."""
    parts = [
        logsumexp(scores)
        for _, scores in _iter_scored_chunks(emissions, trans, rules)
    ]
    if not parts:
        raise ValueError("no legal paths exist for this instance")
    return float(logsumexp(np.asarray(parts)))


def brute_force_best(
    emissions: np.ndarray,
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None = None,
) -> tuple[list[int], float]:
    """Exact argmax path by enumeration (oracle for viterbi).

    Enumeration is lexicographic and a candidate replaces the incumbent only
    on a strictly greater score, so ties resolve to the lexicographically
    smallest path. The returned score is recomputed with path_score so that
    it is bit-identical to path_score(best).
    """
    best_path: list[int] | None = None
    best_score = -np.inf
    for paths, scores in _iter_scored_chunks(emissions, trans, rules):
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best_path = [int(v) for v in paths[k]]
    if best_path is None:
        raise ValueError("no legal paths exist for this instance")
    return best_path, path_score(emissions, trans, best_path)


def brute_force_loss_and_gradients(
    batch: Batch | TokenBatch,
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None = None,
) -> tuple[float, CrfGradients]:
    """Batch NLL and gradients by explicit enumeration (oracle for loss_and_gradients).

    Path probabilities are the softmax of the enumerated scores; gradients
    are probability-weighted feature counts minus gold counts, exactly as in
    the analytic form but without any dynamic program.
    """
    if not batch:
        raise ValueError("empty batch")
    d = trans.num_tags
    if isinstance(batch, TokenBatch):
        batch._padded(d)  # the engine's checks, before the batch is read as its pairs
    n = len(batch)
    d_trans = np.zeros((d, d))
    d_start = np.zeros(d)
    d_emissions: list[np.ndarray] = []
    total = 0.0
    sentences, sizes, golds = _pairs(batch, d)
    for k, (emissions, T) in enumerate(zip(sentences, sizes)):
        tags = golds[k, :T]
        log_z = brute_force_log_partition(emissions, trans, rules)
        total += log_z - path_score(emissions, trans, tags)
        d_em = np.zeros((T, d))
        for paths, scores in _iter_scored_chunks(emissions, trans, rules):
            w = np.exp(scores - log_z)
            for t in range(T):
                np.add.at(d_em[t], paths[:, t], w)
            for t in range(T - 1):
                np.add.at(d_trans, (paths[:, t], paths[:, t + 1]), w)
            np.add.at(d_start, paths[:, 0], w)
        d_em[np.arange(T), tags] -= 1.0
        d_emissions.append(d_em / n)
        np.add.at(d_trans, (tags[:-1], tags[1:]), -1.0)
        d_start[tags[0]] -= 1.0
    return total / n, CrfGradients(
        emissions=d_emissions, transitions=d_trans / n, start=d_start / n
    )
