"""Shared independent oracles for the test suite.

These deliberately avoid the package's dynamic programs: enumeration is
plain itertools over python floats, and gradients come from central finite
differences, so agreement with the package is evidence rather than
tautology.
"""

import itertools
import math

import numpy as np


def python_log_partition(emissions, scores, start) -> float:
    """Pure-python enumeration of log Z, no numpy reductions involved."""
    T, d = len(emissions), len(emissions[0])
    total = 0.0
    for path in itertools.product(range(d), repeat=T):
        s = start[path[0]]
        for t, tag in enumerate(path):
            s += emissions[t][tag]
        for a, b in zip(path, path[1:]):
            s += scores[a][b]
        total += math.exp(s)
    return math.log(total)


def python_log_forward(emissions, scores, start) -> float:
    """log Z by the forward recursion in log space with math.exp/math.log
    loops only: the referee for sentences too long to enumerate."""
    d = len(emissions[0])
    alpha = [start[j] + emissions[0][j] for j in range(d)]
    for row in emissions[1:]:
        nxt = []
        for j in range(d):
            terms = [alpha[i] + scores[i][j] for i in range(d)]
            top = max(terms)
            nxt.append(row[j] + top + math.log(sum(math.exp(x - top) for x in terms)))
        alpha = nxt
    top = max(alpha)
    return top + math.log(sum(math.exp(a - top) for a in alpha))


def python_best_path(emissions, scores, start):
    """Pure-python argmax with lexicographic tie-break (strict improvement)."""
    T, d = len(emissions), len(emissions[0])
    best, best_score = None, -math.inf
    for path in itertools.product(range(d), repeat=T):
        s = start[path[0]]
        for t, tag in enumerate(path):
            s += emissions[t][tag]
        for a, b in zip(path, path[1:]):
            s += scores[a][b]
        if s > best_score:
            best, best_score = list(path), s
    return best, best_score


def central_difference(f, arr, h=1e-5):
    """Central finite differences of scalar f with respect to every entry of arr."""
    fd = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        arr[idx] += h
        hi = f()
        arr[idx] -= 2 * h
        lo = f()
        arr[idx] += h
        fd[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return fd


def max_relative_error(analytic, fd, floor=1e-2) -> float:
    """Max over entries of |a-f| / max(|a|, |f|, floor)."""
    analytic = np.asarray(analytic)
    fd = np.asarray(fd)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float(np.max(np.abs(analytic - fd) / denom))


def row_scatter_embedding_gradient(windows, d_logits, weights):
    """The encoder's embedding gradient for (N, 3) window ids by three 2-D
    np.add.at scatters of whole rows, one per window slot, in slot order:
    the reference for the flat scatter, which must match it byte for byte."""
    windows = np.asarray(windows, dtype=np.intp)
    e = weights.embeddings.shape[1]
    d_x = np.asarray(d_logits, dtype=np.float64) @ weights.projection.T
    out = np.zeros_like(weights.embeddings)
    for slot in range(3):
        np.add.at(out, windows[:, slot], d_x[:, slot * e : (slot + 1) * e])
    return out


def dense_viterbi(emissions, scores, start):
    """The max-product recursion over all d^2 moves of one sentence, as the
    decoder ran before it read legal moves only: tail[t] = l[t] +
    max_j(a[:, j] + tail[t + 1, j]) backward, then a forward read-off by
    first-occurrence argmax of start + tail[0] and of a[prev] + tail[t]. On a
    guarded masked matrix the legal-moves decoder must return its path."""
    tail = np.array(emissions, dtype=np.float64)
    for t in range(len(tail) - 2, -1, -1):
        tail[t] += (scores + tail[t + 1][None, :]).max(axis=1)
    path = [int((start + tail[0]).argmax())]
    for t in range(1, len(tail)):
        path.append(int((scores[path[-1]] + tail[t]).argmax()))
    return path


def python_extract_segments(tags, tagset):
    """The conlleval reading of one tag path by a left-to-right pass over its
    tags, one tag at a time: (entity type, start, end, legal) per segment.
    I-X or E-X after an open chunk of type X continues it; E-X and S-X close
    their chunk; any other tag closes the open chunk and, unless it is O,
    opens its own. A segment is legal when the rule tables allow the move
    into its first tag (or its start) and an O after its last tag. The
    referee for the package's corpus-at-once extraction."""
    parts = tagset.parts
    illegal = tagset.rules.table(tagset.size)
    illegal_pair, illegal_start = illegal[:-1], illegal[-1]
    illegal_end = illegal_pair[:, tagset.index_of("O")]
    segments = []
    open_type, open_start, open_legal = None, 0, True

    def close(end):
        legal = open_legal and not illegal_end[tags[end - 1]]
        segments.append((open_type, open_start, end, bool(legal)))

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


def python_repair(tags, tagset, strategy):
    """A repair strategy applied one segment at a time: every segment the
    strategy keeps (all for retain, the legal ones for discard) is written
    over an all-O path as B-X I-X ... (BIO) or S-X / B-X I-X ... E-X (BIOES);
    none returns the tags."""
    if strategy == "none":
        return list(tags)
    out = [tagset.index_of("O")] * len(tags)
    for etype, start, end, legal in python_extract_segments(tags, tagset):
        if legal or strategy == "retain":
            names = ["B"] + ["I"] * (end - start - 1)
            if tagset.scheme.value == "bioes":
                names = ["S"] if end - start == 1 else names[:-1] + ["E"]
            out[start:end] = [tagset.index_of(f"{p}-{etype}") for p in names]
    return out
