"""Linear-chain CRF core: path scores, partition function, NLL gradients,
Viterbi decoding, and exact brute-force oracles.

A path p = (n_1 .. n_T) over d tags scores

    s(p, x) = start[n_1] + sum_t l[t, n_t] + sum_t a[n_t, n_{t+1}]

where l is the (T, d) emission matrix and a the (d, d) transition matrix.
TransitionMatrix.zeros gives a zero start vector, which contributes nothing.
A model is one (d + 1, d) table, TransitionMatrix.table: a as rows :d and
start as row d, the moves from a tag d before the sentence, so move (i, j)
is cell i * d + j of the flattened table and start j is cell d * d + j. The
rules' TransitionRuleSet.table(d) has the same layout, and every private
function below that reads models as arrays takes them as stacked
(k, d + 1, d) tables, never as scores and starts.

One float64 engine runs forward-backward over a left-aligned, zero-padded,
time-major (T, B, d) batch, so each step works on one contiguous block of
rows; one sentence is a batch of one, already in that layout. Both batch
forms, a list of (emissions, gold) pairs and a TokenBatch as training draws
it, are read as their checked token batch (_tokens) and padded by one
function (_padded); a list's token-major emission gradient is split per
sentence. The engine has a leading model axis: it runs N tables
(N, d + 1, d) over one batch that they all read, or over (T, N, B, d)
emissions, one batch per model, as model-major blocks of B rows each,
R = N * B rows per step. _batch_nll reads the second form, with or
without gradients, from a TokenBatch of (N, tokens, d) emissions: N
same-shape batches that share their lengths and gold tags. The public
entry points run one model. verify's gradient check takes each T group of
instances as models over batches of their own: each instance's model over
its sentence for the analytic gradients, over its perturbed sentences for
the emission differences, and each perturbed copy of a table over its
instance's sentence. Its log-partition check takes each (T, d) group of
instances as N models over their own sentences (_engine_log_z, of which
log_partition is the batch of one). Each model's log Z, marginals,
counts, loss, NLLs and gradients have the bits of a call with it, and its
own batch, alone.

The forward pass is a scaled log-matmul-exp: with r the row maxima of a
and K = exp(a - r[:, None]) (entries <= 1, masked ones exact zeros),
m = max_i(alpha_{t-1,i} + r_i), u_t = exp(alpha_{t-1} + r - m),
v_t = u_t @ K, alpha_t = l_t + m + log v_t, per model. Its adjoint gives the
marginals gamma_{t-1} = u_t * (K @ w_t) and the expected counts
K * sum_t u_t^T w_t, with w_t = gamma_t / v_t; no (d, d) tensor is built
per position. v_t sums nonnegative terms, each rounded by at most 2^-1074, so
while it stays above 2^52 times the smallest normal float (~1e-292) a step keeps
relative precision near machine epsilon at any score magnitude and no sum of
w_t overflows. A row whose v_t falls below that (at score gaps of ~670 or more)
redoes the step in log space over its (rows, d, d) scores, forward and backward.

One max-product recursion, _max_product, reads every path off. Like the
engine it has a model axis: K tables (K, d + 1, d), and each sentence's
model index. viterbi_batch(emissions_list, trans, rules) is its one model
over a corpus, and viterbi its batch of one; verify's Viterbi check takes
each (T, d) group of instances as k models over their own sentences
(_engine_paths). A call gathers the (K, moves) move scores and copies the
tables into one (K, d + 1, d) read-off table, once, with one masked
assignment of rules.table(d). It maximises over the legal moves (i, j) and
starts of rules only, all d^2 and d of them without rules; rules.moves(d)
lists the moves in row-major order (481 of 1681 at BIOES with 10 types).
It sorts the sentences longest first and right-aligns them, so every
sentence ends at the last column and the ones still running at a column
are a prefix of the rows: each backward step
computes tail[:k, t] = l[:k, t] + max_{legal j}(a[i, j] + tail[:k, t+1, j])
for those k rows only, as one gather of tail at the moves' successors, one
add of each row's model's move scores and one maximum.reduceat at each i's
first move, and no padded cell is computed. The forward read-off takes each
running row's first-occurrence argmax of tail plus one row of its model's
(d + 1, d) table: a[i] after tag i, the start scores (row d) before a
sentence's first column, and -inf at every illegal entry, which is never
read. Every cell sees the same float operations as a one-sentence recursion
under its own model, so the paths depend neither on the batch nor on the
other models, and the tie-break argument holds row by row: fixing earlier
positions first, each to its smallest best tag, gives the lexicographically
smallest best path. The corpus runs in chunks of at most _DECODE_CELLS
float64 cells, counting the (b, T, d) table, the (b, moves) step and the
chunk's (b, moves) move scores: bounded memory.

No entry point returns a loss or log Z that is not finite, or reads a path
off NaN or +inf scores (a decoded sentence's table maximum or best score,
start + first column), or off a sentence whose every (legal) path scores
-inf. The first refused sentence in input order is named. A refused log Z,
loss or path score reads "a path score is inf", as the decoders say it, when
its sentence's inputs hold +inf, or are all finite and it is NaN or +inf
(the sums left the float range). A sentence whose every path is -inf gets
log Z = -inf without a warning: the forward step's shift is floored at the
lowest finite float, so its rows stay -inf rather than -inf - -inf. Its
loss is refused as log_partition refuses it, "log Z of -inf", whether its
inputs hold -inf or their sums left the float range below.

The brute-force routines enumerate all d^T paths (optionally restricted to
the legal subset defined by a TransitionRuleSet) in lexicographic order and
exist purely as independent oracles for the dynamic programs. One
enumerator, _iter_scored_chunks, scores k instances of one (T, d) shape,
stacked as (k, T, d) emissions and (k, d + 1, d) tables, against
each chunk's path table, built once for all of them. The table is
position-major: (T, n) cells over (T - 1, n) moves, row t holding every
path's cell at position t. A tile of path scores adds one row gather per
position in order, then the starts, then the moves' row gathers, added in
order first. The public oracles are the enumerator's batch of one; the
stacked forms of log Z and the best path (_brute_force_log_z,
_brute_force_paths) let verify referee each shape group of its instances
in one call. Each instance's scores are a C-ordered row, reduced as a lone
instance's are, so it keeps the bits of its own call. The gradient
oracle's one enumeration, _enumerated_gradients, takes k instances of one
shape too: brute_force_loss_and_gradients runs it on each sentence in
turn, adding into one table of counts, and its stacked form
(_brute_force_gradients) on k instances, each a batch of one, so verify's
mask-convergence check takes each T group's restricted oracle in one call
and its masked oracle, four masked tables per instance, in another. It
scatters a chunk's weights with one np.add.at per instance and table, and
scores each gold path with _scores, of which path_score is the batch of
one: k paths of one shape, stacked as (k, T, d) emissions, (k, d + 1, d)
tables and (k, T) paths, each row (emission sum + move sum) + start with
the bits of its own call, so verify scores each length group of its legal
paths in one call.
They and path_score refuse a result that is not finite as the engine does,
with one check per result or per enumerated chunk, and the stacked forms
name the first refused instance in input order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .schemes import TransitionRuleSet

MAX_BRUTE_FORCE_PATHS = 10_000_000
_CHUNK = 1 << 16  # paths per enumerated path table
_SLICE = 1 << 12  # path scores per gathered tile of a stacked enumeration (at least one row)
_DECODE_CELLS = 1 << 16  # float64 cells per decode chunk: (b, T, d) table + (b, moves) step
_UNDERFLOW = np.finfo(np.float64).tiny * 2.0**52  # v_t below this takes the log-space step
_LOWEST = float(np.finfo(np.float64).min)  # floors the forward shift: max of a row of -inf
_MAX_INTP = int(np.iinfo(np.intp).max)

_ALL_MOVES = TransitionRuleSet(frozenset(), frozenset())  # viterbi_batch without rules

Batch = list[tuple[np.ndarray, list[int]]]  # (emissions, gold path) pairs


@dataclass(init=False)
class TransitionMatrix:
    """Transition scores plus the start-score vector, in one float64
    (d + 1, d) table that the constructor copies them into.

    scores[i, j] is the score of moving from tag i to tag j; start[j] is
    added at position 0, as if moving from a tag d before the sentence.
    scores = table[:d] and start = table[d] are C-contiguous views of the
    table, laid out as TransitionRuleSet.table(d), and training mutates them
    in place.
    """

    table: np.ndarray
    scores: np.ndarray
    start: np.ndarray

    def __init__(self, scores, start) -> None:
        scores = np.asarray(scores, dtype=np.float64)
        start = np.asarray(start, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
            raise ValueError(f"transition matrix must be square, got {scores.shape}")
        d = len(scores)
        if start.shape != (d,):
            raise ValueError(
                f"start vector shape {start.shape} does not match {d} tags"
            )
        self.table = np.concatenate([scores, start[None]])
        self.scores, self.start = self.table[:d], self.table[d]

    @property
    def num_tags(self) -> int:
        return self.table.shape[1]

    @classmethod
    def zeros(cls, num_tags: int) -> "TransitionMatrix":
        return cls(np.zeros((num_tags, num_tags)), np.zeros(num_tags))

    def copy(self) -> "TransitionMatrix":
        return TransitionMatrix(self.scores, self.start)

    def __reduce__(self):  # pickle and copy.deepcopy rebuild the views of one table
        return TransitionMatrix, (self.scores, self.start)


@dataclass
class CrfGradients:
    """Gradients of the batch-averaged NLL.

    emissions is a TokenBatch's (N, d) gradient, row for row, split into one
    (T_k, d) array per sentence for a list batch; transitions and start match
    TransitionMatrix. Every array is already divided by the batch size.
    """

    emissions: list[np.ndarray] | np.ndarray
    transitions: np.ndarray
    start: np.ndarray


@dataclass
class TokenBatch:
    """A token-major batch: the sentences' emissions concatenated (N, d),
    their lengths (B,) and their gold tags concatenated (N,), the form in
    which the engine and the oracles read every batch. It iterates as its
    (emissions, gold) pairs. _batch_nll alone also reads (M, N, d)
    emissions: M batches, one per model, that share the lengths and gold
    tags."""

    emissions: np.ndarray
    lengths: np.ndarray
    tags: np.ndarray

    def __post_init__(self) -> None:
        self.emissions = np.asarray(self.emissions, dtype=np.float64)
        self.lengths = np.asarray(self.lengths)
        self.tags = np.asarray(self.tags)

    def __len__(self) -> int:
        return self.lengths.size  # _tokens names lengths that are not (B,)

    def __iter__(self):
        # the engine's checks at the emissions' own width: split would cut rows
        # that disagree with the lengths into pairs silently
        _, lengths, _ = _tokens(self, self.emissions.shape[1] if self.emissions.ndim == 2 else 0)
        bounds = np.cumsum(lengths)[:-1]
        return zip(np.split(self.emissions, bounds), np.split(self.tags, bounds))


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable log(sum(exp(x))) along axis via the max-shift trick."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    # log 0 = -inf: every term is -inf. An overflow is +inf where the maximum
    # is +inf or nan, which the sum is anyway, or a term's -inf shift, exp 0
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
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


def _tokens(
    batch: Batch | TokenBatch, d: int, models: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Either batch form as its checked token batch: the (N, d) emissions,
    (B,) intp lengths and (N,) intp gold tags. A list batch is checked pair
    by pair, a TokenBatch before any allocation and in numpy calls whose
    number does not grow with the batch. Given models, a TokenBatch may
    instead hold (models, N, d) emissions, one batch per model."""
    if not batch:
        raise ValueError("empty batch")
    if not isinstance(batch, TokenBatch):
        sentences = [_sentence(em, d, k, _length(gold)) for k, (em, gold) in enumerate(batch)]
        sizes = [len(em) for em in sentences]  # a list: sum and zip over it are cheap at B = 1
        gold = _gold([gold for _, gold in batch], sizes, d)
        return np.concatenate(sentences), np.array(sizes, dtype=np.intp), gold
    lengths, tags, emissions = batch.lengths, batch.tags, batch.emissions
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
    B, N = len(lengths), int(lengths.sum())
    need = (models, N, d) if models and emissions.ndim == 3 else (N, d)
    if emissions.shape != need:
        raise ValueError(f"emissions of shape {emissions.shape}, need {need} for {B} sentences")
    if tags.shape != (N,) or tags.dtype.kind not in "iu":
        raise ValueError(
            f"gold tags of shape {tags.shape} and dtype {tags.dtype}, "
            f"need ({N},) integer tags"
        )
    tags = tags.astype(np.intp, copy=False)
    _check_range(tags, lengths, d)
    return emissions, lengths, tags


def _gold(paths: list, lengths: list[int], d: int) -> np.ndarray:
    """The gold paths of a batch, each of its sentence's length and of integer
    tags in [0, d), concatenated into one (N,) intp array: the one gold check
    of every entry point that scores a given path."""
    tags = np.empty(sum(lengths), dtype=np.intp)
    lo = 0
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
        tags[lo : lo + T] = path
        lo += T
    _check_range(tags, lengths, d)
    return tags


def _check_range(tags: np.ndarray, lengths: list[int] | np.ndarray, d: int) -> None:
    """Refuse the first sentence whose (N,) intp gold tags leave [0, d)."""
    wrapped = tags.view(np.uintp)  # a negative tag wraps to a huge unsigned one
    if wrapped.max() >= d:
        k = int(np.searchsorted(np.cumsum(lengths), (wrapped >= d).argmax(), side="right"))
        raise ValueError(f"sentence {k + 1}: gold path has a tag index out of range [0, {d})")


def _padded(emissions: np.ndarray, lengths: np.ndarray, tags: np.ndarray) -> tuple[np.ndarray, ...]:
    """A checked token batch as the engine reads it: the left-aligned,
    zero-padded (T, B, d) emissions, or (T, M, B, d) for (M, N, d) ones, one
    batch per model; the (B, T) gold tags and each token's row of the
    (T * B, d) view, in numpy calls whose number does not grow with the
    batch."""
    if len(lengths) == 1:  # a batch of one is time-major as it stands
        padded, grid, rows = emissions[..., None, :], tags[None], np.arange(len(tags))
    else:
        *models, N, d = emissions.shape
        B, T = len(lengths), int(lengths.max())
        sentence = np.repeat(np.arange(B), lengths)
        position = np.arange(N) - (np.cumsum(lengths) - lengths)[sentence]
        rows = position * B + sentence
        padded = np.zeros((*models, T * B, d))  # pad cells stay exactly 0.0
        padded[..., rows, :] = emissions
        grid = np.zeros(B * T, dtype=np.intp)
        grid[sentence * T + position] = tags
        padded, grid = padded.reshape(*models, T, B, d), grid.reshape(B, T)
    return (padded if emissions.ndim == 2 else padded.swapaxes(0, 1)), grid, rows


def _not_finite(k: int, what: str, value: float, *inputs: np.ndarray) -> ValueError:
    """The ValueError "{what} {value}" for sentence k's loss, log Z or path
    score value, which is not finite. A refusal that passes its sentence's
    emissions, transition and start scores as inputs reads "a path score is
    inf", as the decoders do, if they hold +inf, whatever the sums made of it
    (the engine's shifted recursion gives nan, the enumeration inf), or if
    they are all finite and value is nan or +inf: its sums overflowed."""
    overflow = value != -np.inf and all(np.isfinite(a).all() for a in inputs)
    if inputs and (overflow or any(np.isposinf(a).any() for a in inputs)):
        what, value = "a path score is", np.inf
    return ValueError(f"sentence {k + 1}: {what} {value}, need finite emissions and transition scores")


_NO_FINITE_PATH = "the best path score is"  # -inf: every (legal) path of a decode scores -inf


def path_score(emissions: np.ndarray, trans: TransitionMatrix, path: list[int]) -> float:
    """Score of one path: start + emissions along the path + transitions,
    the batch of one of _scores."""
    emissions, tables = _instance(emissions, trans)
    path = _gold([path], [emissions.shape[1]], trans.num_tags)
    score = float(_scores(emissions, tables, path[None])[0])
    if not math.isfinite(score):
        raise _not_finite(0, "path score of", score, emissions[0], trans.table)
    return score


@np.errstate(over="ignore", invalid="ignore")  # a score that is not finite is refused by callers
def _scores(emissions: np.ndarray, tables: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """path_score of k instances of one shape, checked (k, T, d) emissions,
    (k, d + 1, d) transition tables and (k, T) paths, unchecked: each row's
    (emission sum + move sum) + start, with the bits of its own call."""
    k, T, d = emissions.shape
    rows = np.arange(k)[:, None]
    moves = tables.reshape(k, -1)[rows, paths[:, :-1] * d + paths[:, 1:]]
    scores = emissions[rows, np.arange(T), paths].sum(axis=1) + moves.sum(axis=1)
    return scores + tables[:, d][rows[:, 0], paths[:, 0]]


def _forward_backward(
    emissions: np.ndarray, lengths: np.ndarray, tables: np.ndarray, gradients: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """log Z (N, B) of a zero-padded time-major (T, B, d) batch under each of
    N models, (N, d + 1, d) transition tables (TransitionMatrix.table),
    and, with gradients, the position marginals (T, N, B, d) and expected
    transition counts (N, d, d). Steps past a sentence's end run on unused: log Z is
    read at the end, and the backward pass starts there.

    Every model reads the same (T, B, d) batch, or each its own batch of
    (T, N, B, d) emissions; only the log-space step's row lookup tells the
    two apart. The rows are model-major blocks of the batch's rows,
    R = N * B, so every step works on one (R, d) block and the products on
    (T, N, B, d) views of it; each model's numbers have the bits of a call
    with it alone.

    A row whose alpha is all -inf gets the shift _LOWEST, not -inf, so it
    takes the log-space step and its log Z is -inf; its marginals are nan.
    Every caller refuses a log Z that is not finite, and silences numpy's
    warnings on the way there (log 0, -inf - -inf, sums past the float
    range)."""
    T, (B, d) = len(emissions), emissions.shape[-2:]
    N, R = len(tables), len(tables) * B
    scores, start = tables[:, :d], tables[:, d]
    r = scores.max(axis=2, initial=_LOWEST)  # a row of -inf: K's row is 0, not nan
    K = np.exp(scores - r[:, :, None])
    r = r.repeat(B, axis=0)  # (R, d): each row's model's maxima
    alpha, u, v = np.empty((3, T, R, d))
    alpha4, u4, v4 = alpha.reshape(T, N, B, d), u.reshape(T, N, B, d), v.reshape(T, N, B, d)
    alpha4[0] = start[:, None] + emissions[0]
    guarded = {}  # step -> (rows redone in log space, their log-sum-exp over i)
    for t in range(1, T):
        x = alpha[t - 1] + r
        m = x.max(axis=1, keepdims=True, initial=_LOWEST)
        np.exp(np.subtract(x, m, out=x), out=u[t])
        np.matmul(u4[t], K, out=v4[t])
        if v[t].min() < _UNDERFLOW:
            low = np.flatnonzero((v[t] < _UNDERFLOW).any(axis=1))
            v[t, low] = np.inf  # zero weight in the product-form adjoint
            guarded[t] = low, logsumexp(alpha[t - 1, low, :, None] + scores[low // B], axis=1)
        np.log(v[t], out=alpha[t])
        alpha[t] += m
        alpha4[t] += emissions[t]
        if t in guarded:
            rows = emissions[t].reshape(-1, d)  # (B, d) read by every model, or (R, d)
            alpha[t, low] = rows[low % len(rows)] + guarded[t][1]
    ends = lengths - 1, np.arange(N)[:, None], np.arange(B)  # (N, B) cells of alpha4
    top = alpha4[ends].max(axis=2, keepdims=True, initial=_LOWEST)
    p = np.exp(alpha4[ends] - top)
    log_z = top[..., 0] + np.log(p.sum(axis=2))
    if not gradients:
        return log_z, None, None
    gamma4, w4 = np.zeros((2, T, N, B, d))
    gamma, w, counts = gamma4.reshape(T, R, d), w4.reshape(T, R, d), np.zeros((N, d, d))
    gamma4[ends] = p / p.sum(axis=2, keepdims=True)
    KT, back4 = K.transpose(0, 2, 1), np.empty((N, B, d))
    back = back4.reshape(R, d)  # w_t @ K^T of each model, step by step
    for t in range(T - 1, 0, -1):
        np.divide(gamma[t], v[t], out=w[t])
        np.matmul(w4[t], KT, out=back4)
        back *= u[t]
        gamma[t - 1] += back
        if t in guarded:
            low, lse = guarded[t]
            pair = np.exp(alpha[t - 1, low, :, None] + scores[low // B] - lse[:, None])
            pair *= gamma[t, low, None]
            gamma[t - 1, low] += pair.sum(axis=2)
            for n in np.unique(low // B):  # each model's rows summed as its own call sums them
                counts[n] += pair[low // B == n].sum(axis=0)
    # each model's rows in sentence order, as a (B, T) layout has them: the counts keep their bits
    pairs = B * (T - 1)
    u_rows = u4[1:].transpose(1, 2, 0, 3).reshape(N, pairs, d)
    w_rows = w4[1:].transpose(1, 2, 0, 3).reshape(N, pairs, d)
    counts += K * (u_rows.transpose(0, 2, 1) @ w_rows)
    return log_z, gamma4, counts


def _refused_loss(k: int, loss: float, log_z: float, *inputs: np.ndarray) -> ValueError:
    """The refusal of a loss that is not finite, named for sentence k: its
    "log Z of -inf" when every path of that sentence scores -inf, as
    log_partition says it, and the "loss of" text of _not_finite otherwise."""
    if log_z == -np.inf:
        return _not_finite(k, "log Z of", log_z, *inputs)
    return _not_finite(k, "loss of", loss, *inputs)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a loss that is not finite: below
def _batch_nll(batch: Batch | TokenBatch, tables: np.ndarray, gradients: bool):
    """The mean NLL over the padded batch under each of N models, (N, d + 1, d)
    tables, from one engine call: the (N,) losses and, with gradients, a
    list of each model's CrfGradients; without them, the (N, B)
    per-sentence NLLs log Z_k - s(gold_k). A TokenBatch may hold
    (N, tokens, d) emissions: N same-shape batches, one per model, that
    share the lengths and gold tags. Each model's loss is the sum of
    its NLLs / B, so no sentence's NLL is rounded away by the others' (at
    |log Z| >= 2^52 each NLL is itself off by up to an ulp of its log Z, in
    the enumeration too), and the batch's sums cannot leave the float range
    while every NLL is finite. Each model's loss, NLLs and gradients have
    the bits of a call with it, and its own batch, alone: its loss and
    gradients are those of its own loss_and_gradients call. The first model
    in input order with a sentence whose NLL is not finite is refused,
    named for its first such sentence and quoting that sentence's own NLL,
    as a call with the sentence alone quotes it.

    Sentence k's NLL has the bits nll_loss gives it alone when the batch is
    padded to fewer than 8 positions (numpy sums 8 or more terms pairwise)
    and row k of the engine's (B, d) @ (d, d) products has the bits of a
    (1, d) product. On OpenBLAS 0.3.31 that holds at d = 2 and 3; at d >= 4
    the rows differ in their last bits."""
    d, n = tables.shape[2], len(batch)
    tokens, lengths, tags = _tokens(batch, d, len(tables))
    emissions, tags, rows = _padded(tokens, lengths, tags)
    log_z, gamma, counts = _forward_backward(emissions, lengths, tables, gradients)
    cells = np.arange(tags.shape[1]), np.arange(n)[:, None], tags  # (B, T) gold cells
    if tokens.ndim == 3:  # (N, B, T): each model's cells of its own batch
        cells = cells[0], np.arange(len(tables))[:, None, None], *cells[1:]
    steps = np.arange(1, tags.shape[1]) < lengths[:, None]  # (B, T - 1) moves in a sentence
    moves = tags[:, :-1] * d + tags[:, 1:]  # i * d + j: a cell of the flattened tables
    move_scores = np.where(steps, tables.reshape(len(tables), -1).take(moves, axis=1), 0.0).sum(axis=2)
    nlls = log_z - (emissions[cells].sum(axis=-1) + move_scores) - tables[:, d].take(tags[:, 0], axis=1)
    losses = (nlls / n).sum(axis=1)
    bad = ~np.isfinite(nlls)
    if bad.any():
        m = int(bad.any(axis=1).argmax())  # the first model refused
        k = int(bad[m].argmax())  # its first sentence whose own NLL is not finite
        sentence = emissions[:, k] if tokens.ndim == 2 else emissions[:, m, k]
        raise _refused_loss(k, nlls[m, k], log_z[m, k], sentence, tables[m])
    if not gradients:
        return losses, nlls
    position, sentence, gold = cells[0], *cells[-2:]  # (B, T) gold cells, which every model shares
    gamma[position, :, sentence, gold] -= 1.0  # the marginals (T, N, B, d)
    gamma /= n
    d_trans = (counts - np.bincount(moves[steps], minlength=d * d).reshape(d, d)) / n
    d_start = gamma[0].sum(axis=1)
    # (N, tokens, d): each model's emission gradient, one take along the token axis
    d_emissions = gamma.swapaxes(0, 1).reshape(len(tables), -1, d).take(rows, axis=1)
    if not isinstance(batch, TokenBatch):
        bounds = np.cumsum(lengths)[:-1]
        d_emissions = [np.split(model, bounds) for model in d_emissions]
    models = range(len(tables))
    return losses, [CrfGradients(d_emissions[m], d_trans[m], d_start[m]) for m in models]


def log_partition(emissions: np.ndarray, trans: TransitionMatrix) -> float:
    """log Z: log-sum-exp of all d^T path scores, the engine at B = 1."""
    return float(_engine_log_z(*_instance(emissions, trans))[0])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a log Z that is not finite: below
def _engine_log_z(emissions: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """log_partition of k instances of one shape, checked (k, T, d)
    emissions with (k, d + 1, d) transition tables, from one engine call:
    each instance is a model over its own sentence, so its (k,) log Z has
    the bits of its own call, and the first in input order whose log Z is
    not finite is refused with its own call's text, named by its index."""
    k, T, d = emissions.shape
    per_model = np.ascontiguousarray(emissions.transpose(1, 0, 2)).reshape(T, k, 1, d)
    log_z = _forward_backward(per_model, np.array([T]), tables, False)[0][:, 0]
    return _finite_log_z(log_z, emissions, tables)


def _finite_log_z(log_z: np.ndarray, emissions: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The (k,) log Z of k stacked instances, or the refusal of the first
    in input order that is not finite, named by its index."""
    bad = ~np.isfinite(log_z)
    if bad.any():
        j = int(bad.argmax())
        raise _not_finite(j, "log Z of", float(log_z[j]), emissions[j], tables[j])
    return log_z


def nll_loss(batch: Batch | TokenBatch, trans: TransitionMatrix) -> float:
    """Mean NLL over a batch of (emissions, gold) pairs or a TokenBatch:
    log Z - s(gold)."""
    return float(_batch_nll(batch, trans.table[None], False)[0][0])


def loss_and_gradients(
    batch: Batch | TokenBatch, trans: TransitionMatrix
) -> tuple[float, CrfGradients]:
    """Batch NLL and its analytic gradients, for a list of (emissions, gold)
    pairs or a TokenBatch (see CrfGradients for the emission gradient).

    d l[t, j] = P(y_t = j) - 1{gold_t = j}
    d a[i, j] = sum_t P(y_t = i, y_{t+1} = j) - #(gold transitions i -> j)
    d start[j] = P(y_0 = j) - 1{gold_0 = j}

    all averaged over the batch. The batch is one model's: a TokenBatch of
    (N, d) emissions, not one batch per model.
    """
    if isinstance(batch, TokenBatch) and batch.emissions.ndim == 3:
        _tokens(batch, trans.num_tags)  # one model reads one (N, d) batch: refused as any shape
    losses, grads = _batch_nll(batch, trans.table[None], True)
    return float(losses[0]), grads[0]


def viterbi_batch(
    emissions_list: list[np.ndarray],
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None = None,
) -> list[list[int]]:
    """Highest-scoring path of each sentence, in input order, over the legal
    moves and starts of rules (all of them without rules); ties resolve to
    the lexicographically smallest path. The scores of illegal entries are
    never read. A sentence whose best score is not finite, or whose table
    holds a NaN or +inf, is refused as brute_force_best refuses it; the
    first in input order is named. The max-product recursion at one model
    (module docstring).
    """
    d = trans.num_tags
    emissions_list = [_sentence(em, d, k) for k, em in enumerate(emissions_list)]
    model = np.zeros(len(emissions_list), dtype=np.intp)
    return _max_product(emissions_list, trans.table[None], model, rules)


def viterbi(
    emissions: np.ndarray, trans: TransitionMatrix, rules: TransitionRuleSet | None = None
) -> list[int]:
    """Highest-scoring path of one sentence: the engine at B = 1."""
    return viterbi_batch([emissions], trans, rules)[0]


def _engine_paths(
    emissions: np.ndarray, tables: np.ndarray, rules: TransitionRuleSet | None
) -> list[list[int]]:
    """viterbi's path for each of k instances of one shape, checked (k, T, d)
    emissions with (k, d + 1, d) transition tables, from one recursion:
    instance j reads model j, so its path has the bits and the tie-break of
    its own call, and the first refused in input order is named with its own
    call's text, by its index."""
    return _max_product(emissions, tables, np.arange(len(emissions)), rules)


@np.errstate(over="ignore", invalid="ignore")  # scores that are not finite are refused below
def _max_product(
    emissions_list: list[np.ndarray] | np.ndarray,
    tables: np.ndarray,
    model: np.ndarray,
    rules: TransitionRuleSet | None,
) -> list[list[int]]:
    """The best path of each checked (T_k, d) sentence, in input order,
    under its model model[k] of K (d + 1, d) transition tables; the first
    refused in input order is named by its index.

    tail[k, t, j] is the best score of sentence k's completion from column t
    with tag j; the recursion runs backward, then the paths are read off
    forward (module docstring).
    """
    K, _, d = tables.shape
    lengths = [len(em) for em in emissions_list]
    rules = _ALL_MOVES if rules is None else rules
    reads = tables.copy()  # read-off: row d holds the starts
    reads[:, rules.table(d)] = -np.inf  # wins no argmax
    cells, successors, firsts = rules.moves(d)
    move_scores = tables.reshape(K, -1).take(cells, axis=1)  # (K, moves)
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)  # stable
    paths: list[list[int]] = [[] for _ in order]
    refused = []  # (sentence, its best score or its table's nan or inf) if not finite
    lo = 0
    while lo < len(order):
        T = lengths[order[lo]]
        chunk = order[lo : lo + max(1, _DECODE_CELLS // (T * d + 2 * cells.size))]
        lo += len(chunk)
        models = model[chunk]
        row_moves = move_scores[models]  # (b, moves): each row's model's move scores
        starts = [T - lengths[k] for k in chunk]  # right-aligned: all end at T - 1
        tail = np.zeros((len(chunk), T, d))  # cells before a row's start stay 0.0
        for row, k, start_at in zip(tail, chunk, starts):
            row[start_at:] = emissions_list[k]
        running = [bisect_right(starts, t) for t in range(T)]  # rows covering column t
        for t in range(T - 2, -1, -1):
            n = running[t]
            step = tail[:n, t + 1].take(successors, axis=1)
            step += row_moves[:n]
            tail[:n, t] += np.maximum.reduceat(step, firsts, axis=1)
        # a nan wins every argmax it meets, and an inf makes one beside an
        # illegal entry's -inf, wherever it is in a sentence's rows
        top = tail.max(axis=(1, 2))
        best = (tail[np.arange(len(chunk)), starts] + reads[models, d]).max(axis=1)
        verdicts = np.where(top < np.inf, best, top).tolist()
        refused += [(k, v) for k, v in zip(chunk, verdicts) if not math.isfinite(v)]
        tags = np.full((len(chunk), T + 1), d)  # tags[:, t + 1] at column t; d: the starts row
        for t, n in enumerate(running):
            tags[:n, t + 1] = (reads[models[:n], tags[:n, t]] + tail[:n, t]).argmax(axis=1)
        for k, row, start_at in zip(chunk, tags.tolist(), starts):
            paths[k] = row[start_at + 1 :]
    if refused:
        k, v = min(refused)  # the first in input order
        raise _not_finite(k, _NO_FINITE_PATH if v == -math.inf else "a path score is", v)
    return paths


def _iter_scored_chunks(emissions: np.ndarray, tables: np.ndarray, rules: TransitionRuleSet | None):
    """Yield (rows, cells, moves, scores) over all paths of k instances of
    one shape, checked (k, T, d) emissions with (k, d + 1, d) transition
    tables, in lexicographic order.

    Each chunk of _CHUNK paths is one position-major int32 path table, built
    once: path p's cells of the (T, d) emissions, cells[t, p] = t * d + its
    tag at t (so cells[0] are the first tags), stacked on axis 0 above its
    moves, the (T - 1, n) cells i * d + j of the flattened tables; cells and
    moves are views of the one table, and every index of an enumerable shape
    fits. With rules, the paths containing an omega pair or an illegal start
    are dropped from it. rows is a slice of the instances and scores its
    C-ordered (k', n) path scores, so each row reduces as one instance's
    (n,) scores do. They are gathered in tiles of at most _SLICE path
    scores: max(1, _SLICE // n) rows at a time, and a row longer than that
    in blocks of _SLICE paths.
    """
    k, T, d = emissions.shape
    if d**T > MAX_BRUTE_FORCE_PATHS:
        limit = f"(limit {MAX_BRUTE_FORCE_PATHS})"
        raise SizeError(f"brute force refuses d^T = {d}^{T} = {d**T} paths {limit}")
    emissions = emissions.reshape(k, T * d)
    total = d**T
    for lo in range(0, total, _CHUNK):
        table = np.empty((2 * T - 1, min(_CHUNK, total - lo)), dtype=np.int32)
        index = np.arange(lo, lo + table.shape[1], dtype=np.int32)
        for t in range(T - 1, -1, -1):  # the tags: the base-d digits of the path index, last first
            np.divmod(index, d, out=(index, table[t]))
        np.multiply(table[: T - 1], d, out=table[T:])  # empty at T = 1
        table[T:] += table[1:T]
        if rules is not None:  # the moves' cells, and each start j's, d * d + j
            illegal = rules.table(d).ravel()
            table = table[:, ~(illegal[d * d + table[0]] | illegal[table[T:]].any(axis=0))]
        cells, moves = table[:T], table[T:]
        n = table.shape[1]
        if not n:
            continue
        cells += np.arange(T, dtype=np.int32)[:, None] * d
        step = max(1, _SLICE // n)
        for r in range(0, k, step):
            rows = slice(r, r + step)
            path_scores = np.empty((len(emissions[rows]), n))
            for p in range(0, n, _SLICE):
                block = slice(p, p + _SLICE)
                path_scores[:, block] = _path_scores(
                    emissions[rows], tables[rows], cells[:, block], moves[:, block]
                )
            yield rows, cells, moves, path_scores


@np.errstate(over="ignore", invalid="ignore")  # scores that are not finite are refused by callers
def _path_scores(
    emissions: np.ndarray, tables: np.ndarray, cells: np.ndarray, moves: np.ndarray
) -> np.ndarray:
    """The (k', b) scores of b paths of a table, (T, b) cells and (T - 1, b)
    moves, under k' instances: (k', T * d) emissions and (k', d + 1, d)
    transition tables. Each score is its emission row gathers added in
    position order, plus its start (row d), plus its move row gathers,
    themselves added in order first."""
    tile = emissions.take(cells[0], axis=1)
    for row in cells[1:]:
        tile += emissions.take(row, axis=1)
    tile += tables[:, -1].take(cells[0], axis=1)
    if len(moves):
        scores = tables.reshape(len(tables), -1)  # cell i * d + j: the move from i to j
        path_moves = scores.take(moves[0], axis=1)
        for row in moves[1:]:
            path_moves += scores.take(row, axis=1)
        tile += path_moves
    return tile


def _instance(emissions: np.ndarray, trans: TransitionMatrix) -> tuple[np.ndarray, ...]:
    """One checked sentence and its model as the stacked oracles read them:
    (1, T, d) emissions and a (1, d + 1, d) transition table."""
    emissions = _sentence(emissions, trans.num_tags)
    return emissions[None], trans.table[None]


def brute_force_log_partition(
    emissions: np.ndarray,
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None = None,
) -> float:
    """Exact log Z by explicit enumeration (oracle for log_partition)."""
    return float(_brute_force_log_z(*_instance(emissions, trans), rules)[0])


def _brute_force_log_z(
    emissions: np.ndarray, tables: np.ndarray, rules: TransitionRuleSet | None
) -> np.ndarray:
    """brute_force_log_partition of k instances of one shape, (k,) log Z:
    the first instance in input order whose log Z is not finite is refused,
    named by its index."""
    log_z = _enumerated_log_z(emissions, tables, rules)
    return _finite_log_z(log_z, emissions, tables)


def _enumerated_log_z(
    emissions: np.ndarray, tables: np.ndarray, rules: TransitionRuleSet | None
) -> np.ndarray:
    """_brute_force_log_z, not checked for finite results."""
    parts = []  # (k,) log-sum-exp of each chunk with a legal path
    for rows, _, _, path_scores in _iter_scored_chunks(emissions, tables, rules):
        if rows.start == 0:
            parts.append(np.empty(len(emissions)))
        parts[-1][rows] = logsumexp(path_scores, axis=1)
    if not parts:
        raise ValueError("no legal paths exist for this instance")
    return logsumexp(np.stack(parts, axis=1), axis=1)


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
    best_path = _brute_force_paths(*_instance(emissions, trans), rules)[0]
    return best_path, path_score(emissions, trans, best_path)


def _brute_force_paths(
    emissions: np.ndarray, tables: np.ndarray, rules: TransitionRuleSet | None
) -> list[list[int]]:
    """brute_force_best's path for each of k instances of one shape. An
    instance is refused at its first chunk whose best score is nan or +inf,
    or when its best score is -inf; the first refused in input order is
    named by its index."""
    k, T, d = emissions.shape
    best = np.empty((k, T), dtype=np.intp)  # the best path's cells
    best_score = np.full(k, -np.inf)
    refused = np.full(k, -np.inf)  # each instance's first nan or +inf best score
    legal = False  # a chunk had a legal path
    for rows, cells, _, path_scores in _iter_scored_chunks(emissions, tables, rules):
        legal = True
        top = path_scores.argmax(axis=1)  # the first nan if there is one: no comparison takes it
        value = path_scores[np.arange(len(top)), top]
        bad = ~(value < np.inf) & (refused[rows] == -np.inf)
        refused[rows][bad] = value[bad]
        better = value > best_score[rows]  # an instance never better than -inf is refused below
        best[rows][better] = cells[:, top[better]].T
        best_score[rows][better] = value[better]
    if not legal:
        raise ValueError("no legal paths exist for this instance")
    bad = (refused != -np.inf) | (best_score == -np.inf)
    if bad.any():
        j = int(bad.argmax())
        if refused[j] == -np.inf:
            raise _not_finite(j, _NO_FINITE_PATH, -math.inf)
        value = float(refused[j])
        raise _not_finite(j, "a path score is", value, emissions[j], tables[j])
    return (best - np.arange(T) * d).tolist()


def brute_force_loss_and_gradients(
    batch: Batch | TokenBatch,
    trans: TransitionMatrix,
    rules: TransitionRuleSet | None = None,
) -> tuple[float, CrfGradients]:
    """Batch NLL and gradients by explicit enumeration (oracle for loss_and_gradients).

    Path probabilities are the softmax of the enumerated scores; gradients
    are probability-weighted feature counts minus gold counts, exactly as in
    the analytic form but without any dynamic program. A sentence whose log Z
    lost its log n to rounding has its weighted counts divided by their sum.
    The sentences add their counts into one table, one after another.
    """
    d = trans.num_tags
    tokens, lengths, golds = _tokens(batch, d)
    n = len(lengths)
    d_table = np.zeros((1, d + 1, d))  # the transition and start counts, laid out as trans.table
    d_emissions: list[np.ndarray] = []
    total = 0.0
    bounds = np.cumsum(lengths)[:-1]
    for k, (emissions, tags) in enumerate(zip(np.split(tokens, bounds), np.split(golds, bounds))):
        d_em = np.zeros((1, len(tags), d))
        instance = _instance(emissions, trans)
        total += float(_enumerated_gradients(*instance, tags[None], rules, d_em, d_table, k)[0])
        d_emissions.append(d_em[0] / n)
    d_table /= n
    return total / n, CrfGradients(d_emissions, transitions=d_table[0, :d], start=d_table[0, d])


def _brute_force_gradients(
    emissions: np.ndarray, tables: np.ndarray, golds: np.ndarray, rules: TransitionRuleSet | None
) -> tuple[np.ndarray, list[CrfGradients]]:
    """brute_force_loss_and_gradients of k instances of one shape, each a
    batch of one: checked (k, T, d) emissions, (k, d + 1, d) transition
    tables and (k, T) gold paths. Returns the (k,) losses and each
    instance's CrfGradients, with the bits of its own call; the first
    refused in input order is named by its index."""
    d_em, d_tables = np.zeros(emissions.shape), np.zeros(tables.shape)
    losses = _enumerated_gradients(emissions, tables, golds, rules, d_em, d_tables)
    d = tables.shape[2]
    return losses, [CrfGradients([em], table[:d], table[d]) for em, table in zip(d_em, d_tables)]


def _enumerated_gradients(
    emissions: np.ndarray,
    tables: np.ndarray,
    golds: np.ndarray,
    rules: TransitionRuleSet | None,
    d_em: np.ndarray,
    d_tables: np.ndarray,
    first: int = 0,
) -> np.ndarray:
    """The (k,) NLLs of k instances of one shape, checked (k, T, d)
    emissions, (k, d + 1, d) transition tables and (k, T) gold paths, from
    one log Z pass and one weights pass of the enumeration. Each instance's
    expected counts less its gold counts are added into its (T, d) of d_em
    and its (d + 1, d) of d_tables; an instance whose weights sum off 1 by
    more than rounding (its log Z lost its log n) has the counts it added
    divided by their sum. The first instance whose NLL is not finite is
    refused, named first + its index."""
    k, T, d = emissions.shape
    log_z = _enumerated_log_z(emissions, tables, rules)
    with np.errstate(over="ignore", invalid="ignore"):  # a loss that is not finite: below
        losses = log_z - _scores(emissions, tables, golds)
    bad = ~np.isfinite(losses)
    if bad.any():  # so are log Z and every path score under it
        j = int(bad.argmax())
        raise _refused_loss(first + j, float(losses[j]), float(log_z[j]), emissions[j], tables[j])
    before = d_tables.copy()
    mass, count = np.zeros(k), 0
    for rows, cells, moves, scores in _iter_scored_chunks(emissions, tables, rules):
        w = np.exp(scores - log_z[rows, None])
        mass[rows] += w.sum(axis=1)
        if rows.start == 0:  # a new path table
            count += w.shape[1]
            em_cells = cells.ravel()
            table_cells = np.concatenate([moves, d * d + cells[:1]]).ravel()  # moves, then starts
        # one scatter per instance and table, each cell's adds in the per-position loop's order
        for em, table, weights in zip(d_em[rows], d_tables[rows], w):
            weights = np.tile(weights, T)  # T cells of each path in each table
            np.add.at(em.reshape(-1), em_cells, weights)
            np.add.at(table.reshape(-1), table_cells, weights)
    fix = np.abs(mass - 1.0) > 4 * count * np.finfo(np.float64).eps  # more than rounding
    if fix.any():
        mass = mass[fix, None, None]
        d_em[fix] /= mass
        d_tables[fix] = before[fix] + (d_tables[fix] - before[fix]) / mass
    instance = np.arange(k)[:, None]
    d_em[instance, np.arange(T), golds] -= 1.0
    np.add.at(d_tables, (instance, golds[:, :-1], golds[:, 1:]), -1.0)
    d_tables[instance[:, 0], d, golds[:, 0]] -= 1.0
    return losses
