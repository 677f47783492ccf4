"""Self-contained correctness checks pitting the dynamic programs against
independent oracles. Used by the `verify` CLI subcommand; the test suite
runs the same checks with its own tolerances.

Each check draws a fixed number of random instances, which its detail
text names, from a generator of the seed it is given; run_verification
gives check k the seed seed + k, so one seed fixes the whole battery. A
random transition matrix is its (d, d) scores, then its start vector. A
check that draws emissions just before it, at the same bound, draws both
in one (T + d + 1, d) uniform call whose rows T: are the (d + 1, d) table:
back-to-back uniform calls at one bound read the stream as one call does.
_random_scores draws the others, all but check_mask_convergence's
zero-start one. The finite-difference checks share one central-difference
step, _FD_STEP: _perturbations stacks the perturbed copies of one array
without writing to it, and _relative_error compares the analytic
gradients with the differences of their losses. Every worst error is a
maximum taken by _worst, which keeps a
nan: the builtin max keeps a number against a later nan (max(0.0, nan) is
0.0), so a nan met after a check's first value would read PASS.

check_log_partition and check_viterbi draw all 200 of their instances
first; _shape_groups then stacks each (T, d) group of them for one call
of the stacked enumeration oracle (crf._brute_force_log_z,
crf._brute_force_paths), where each instance keeps
the bits of its own call. Each check takes the engine's side of a group
from one stacked call too, each instance a model over its own sentence:
check_log_partition its log Z (crf._engine_log_z, with the bits of its
log_partition call), check_viterbi its path (crf._engine_paths, with the
bits and the tie-break of its viterbi call). path_score scores a decoded
path and the best one, under a TransitionMatrix of the instance's table,
only where they differ, since a matching pair's difference is exactly
0.0. A check's worst error and mismatch count do not
depend on the order in which it meets the instances, so it takes them
group by group.

Each loss form's losses come from one engine call (crf._batch_nll). A
perturbation of the emissions (or of any encoder weight, through its
logits) leaves trans as it is, so all its perturbed sentences are one
TokenBatch, whose per-sentence NLLs are the losses; both checks run at
d = 3, where each of those NLLs has the bits of its own nll_loss call. A perturbation of
the transition or start scores changes trans itself, so each perturbed copy
of its (d + 1, d) table is a model of the engine's model axis over the
instance's sentence, and each model's loss has the bits of nll_loss under
that copy.

check_gradients draws its 20 instances first and groups them by T (d = 3
is fixed). Each group makes three stacked calls (_fd_crf), each model over
a batch of its own: one for every instance's analytic gradients, k models
each over its instance's sentence, with the bits of that instance's own
loss_and_gradients call; one for every emission difference, k models of
2 x T x d sentences each; and one for every table difference,
2 x (d^2 + d) = 24 copies of each of the k tables, each copy over its
instance's sentence. Each instance's arrays record their own perturbed
copies, so no copy holds another instance. Every difference keeps the bits
of its own nll_loss call, and the worst error is a maximum, so it does not
depend on the grouping.

check_encoder_gradients draws its 10 instances first and groups them by
T. Each group makes two engine calls, each model over a batch of its own:
one for every instance's analytic gradients, model j over instance j's
encoded sentence under its own gold path (the bits of its own
loss_and_gradients call), then encoder_backward per instance; and one for
every difference, model j over instance j's 42 + 54 + 6 perturbed logit
matrices at V = 7, e = 3 and d = 3: the copies of its embeddings, then
projection, then bias, each class's stack encoded in one encoder._encode
call, each matrix with the bits of encode under its own weights.

check_mask_convergence draws its 8 instances first and groups them by T.
Each group makes two calls of the stacked gradient enumeration
(crf._brute_force_gradients): one for every instance's restricted
(legal-paths) oracle, which the mask value does not change, and one for
every masked oracle, each instance's four masked tables in turn, each over
the instance's sentence. Each has the bits of its own
brute_force_loss_and_gradients call, and masking._convergence_gap, the gap
arithmetic of mask_convergence_gap, takes the two sides of each instance
and mask value as given.
check_legal_scores_unchanged lists each tag's legal successors once and
draws each position of a path from its tag's list, with the draws of
rng.choice over that list. It draws all 100 of its instances first, then
scores each T group under the raw and the masked tables with one stacked
crf._scores call each, each row with the bits of path_score.

Those three checks (check_gradients in its masked form) mask each T
group's stacked tables with one assignment of the rules' table (_masked),
each table as apply_mask leaves it; only check_mask_idempotence calls
apply_mask, whose result it checks."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .crf import (
    TokenBatch,
    TransitionMatrix,
    _batch_nll,
    _brute_force_gradients,
    _brute_force_log_z,
    _brute_force_paths,
    _engine_log_z,
    _engine_paths,
    _scores,
    path_score,
)
from .crf import viterbi  # noqa: F401  (module attribute that perfbench/selftest.py checks)
from .encoder import EncoderWeights, _encode, encode, encoder_backward, window_ids
from .errors import check_seed
from .masking import MaskSpec, _convergence_gap, apply_mask, mask_convergence_gap
from .schemes import TransitionRuleSet, build_tagset

_FD_STEP = 1e-5  # central-difference step of every finite-difference check


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: observed {self.observed:.3e} vs {self.threshold:.3e}{extra}"

    def json_line(self) -> str:
        """The result as one JSON object, with the observed value's exact
        bits as float.hex beside the number."""
        return json.dumps({
            "name": self.name,
            "observed": self.observed,
            "observed_hex": float(self.observed).hex(),
            "threshold": self.threshold,
            "passed": self.passed,
            "detail": self.detail,
        })


def _random_scores(rng: np.random.Generator, d: int, bound: float) -> TransitionMatrix:
    """(d, d) transition scores, then d start scores, uniform in [-bound, bound)."""
    scores = rng.uniform(-bound, bound, size=(d, d))
    return TransitionMatrix(scores, rng.uniform(-bound, bound, size=d))


def _worst(errors) -> float:
    """The largest of errors, 0.0 for none, and nan if any is nan: the
    builtin max keeps a number against a nan that comes after it."""
    return float(np.max(np.fromiter(errors, float), initial=0.0))


def _shape_groups(rng: np.random.Generator, count: int):
    """count random instances of 1 to 6 positions and 2 to 5 tags, drawn in
    order (each with a gold path that no check reads, so every seed keeps its
    instances), then stacked by their (T, d) shape: yields each group's
    (k, T, d) emissions and (k, d + 1, d) transition tables."""
    groups: dict[tuple[int, int], list] = {}
    for _ in range(count):
        T = int(rng.integers(1, 7))
        d = int(rng.integers(2, 6))
        groups.setdefault((T, d), []).append(rng.uniform(-2.0, 2.0, size=(T + d + 1, d)))
        rng.integers(0, d, size=T)
    for (T, _), draws in groups.items():
        draws = np.stack(draws)
        yield draws[:, :T], draws[:, T:]


def check_log_partition(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    errors = []
    for emissions, tables in _shape_groups(rng, 200):
        exact = _brute_force_log_z(emissions, tables, None)
        errors.append(np.abs(_engine_log_z(emissions, tables) - exact).max())
    worst = _worst(errors)
    return CheckResult(
        name="log-partition vs enumeration",
        observed=worst,
        threshold=1e-9,
        passed=worst <= 1e-9,
        detail="200 instances",
    )


def check_viterbi(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    gaps = []  # the score gap of each mismatched pair
    for emissions, tables in _shape_groups(rng, 200):
        best_paths = _brute_force_paths(emissions, tables, None)
        decoded_paths = _engine_paths(emissions, tables, None)
        for em, table, decoded, best_path in zip(emissions, tables, decoded_paths, best_paths):
            if decoded != best_path:  # a matching pair's score difference is 0.0
                trans = TransitionMatrix(table[:-1], table[-1])
                gaps.append(abs(path_score(em, trans, decoded) - path_score(em, trans, best_path)))
    worst, mismatched_paths = _worst(gaps), len(gaps)
    passed = worst == 0.0 and mismatched_paths == 0
    return CheckResult(
        name="viterbi vs enumeration",
        observed=worst,
        threshold=0.0,
        passed=passed,
        detail=f"200 instances, {mismatched_paths} path mismatches",
    )


def _perturbations(x: np.ndarray) -> np.ndarray:
    """The (2 * x.size, *x.shape) copies of x with one entry moved: each
    entry in C order set to its value + _FD_STEP, then - _FD_STEP. One
    repeat and two scatters build them; x itself is only read."""
    size = x.size
    copies = np.repeat(x.reshape(1, size), 2 * size, axis=0).reshape(size, 2, size)
    entry = np.arange(size)
    copies[entry, 0, entry] = x.ravel() + _FD_STEP
    copies[entry, 1, entry] = x.ravel() - _FD_STEP
    return copies.reshape(2 * size, *x.shape)


def _relative_error(gradients, values) -> float:
    """Worst relative error of analytic gradients against the central
    finite differences of values, the losses of the _perturbations of the
    arrays of those gradients, in turn."""
    values = np.asarray(values)
    fd = (values[0::2] - values[1::2]) / (2 * _FD_STEP)
    analytic = np.concatenate([g.ravel() for g in gradients])
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-2)
    return float(np.max(np.abs(analytic - fd) / denom))


def _sentence_losses(sentences: np.ndarray, gold: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The NLL of a gold path under each of (k, P, T, d) emission matrices,
    from one engine call: model j of k over its own P, in that order. gold
    is one (T,) path, or (k, T) paths, model j's in row j. At d <= 3 and
    T < 8 each has the bits of nll_loss on its own sentence under its model
    and gold path (see crf._batch_nll)."""
    k, n, T, d = sentences.shape
    batch = TokenBatch(sentences.reshape(k, n * T, d), np.full(n, T), np.tile(gold, n))
    return _batch_nll(batch, tables, gradients=False)[1].ravel()


def _fd_crf(sentences: np.ndarray | list, tables: np.ndarray | list) -> float:
    """Worst relative error of the analytic CRF gradients against central
    finite differences over emissions, transitions and start, for k
    instances of one (T, d) shape, each with its (d + 1, d) transition
    table (k of each, stacked or in a list), under the gold path of tag 0.
    Three engine calls, each model over a batch of its own: one gives every
    instance's analytic gradients (model j over instance j's sentence), one
    every emission difference (model j over instance j's perturbed
    sentences) and one every table difference (each perturbed copy a model
    over its instance's sentence)."""
    k, T = len(sentences), len(sentences[0])
    gold = np.zeros(T, dtype=np.intp)
    emissions, stacked = np.stack(sentences), np.stack(tables)
    grads = _batch_nll(TokenBatch(emissions, np.array([T]), gold), stacked, True)[1]
    # instance by instance, each array's own perturbed copies
    perturbed = np.stack([_perturbations(em) for em in sentences])
    emission_losses = _sentence_losses(perturbed, gold, stacked)
    perturbed = np.concatenate([_perturbations(table) for table in tables])
    sentence_copies = np.repeat(emissions[:, None], len(perturbed) // k, axis=0)
    table_losses = _sentence_losses(sentence_copies, gold, perturbed)
    return _worst([
        _relative_error([g.emissions for g in grads], emission_losses),
        _relative_error([np.concatenate([g.transitions, g.start[None]]) for g in grads], table_losses),
    ])


def _masked(tables: np.ndarray, spec: MaskSpec) -> np.ndarray:
    """A copy of (k, d + 1, d) stacked transition tables with one assignment
    of spec's mask: each table as apply_mask leaves it."""
    masked = tables.copy()
    masked[:, spec.rules.table(tables.shape[-1])] = spec.mask_value
    return masked


def check_gradients(seed: int, masked: bool) -> CheckResult:
    rng = np.random.default_rng(seed)
    tagset = build_tagset("bio", ["A"])
    spec = MaskSpec(rules=tagset.rules)
    d = tagset.size
    groups: dict[int, list] = {}  # T -> its instances, in the order drawn
    for _ in range(20):
        T = int(rng.integers(2, 5))
        groups.setdefault(T, []).append(rng.uniform(-2.0, 2.0, size=(T + d + 1, d)))
    errors = []
    for T, draws in groups.items():
        draws = np.stack(draws)  # emissions above the table
        tables = _masked(draws[:, T:], spec) if masked else draws[:, T:]
        errors.append(_fd_crf(draws[:, :T], tables))
    worst = _worst(errors)
    label = "masked" if masked else "unmasked"
    return CheckResult(
        name=f"analytic vs finite-difference gradients ({label})",
        observed=worst,
        threshold=1e-4,
        passed=worst <= 1e-4,
        detail="20 instances",
    )


def check_encoder_gradients(seed: int) -> CheckResult:
    """Finite-difference check through encode -> NLL for every weight class."""
    rng = np.random.default_rng(seed)
    V, e, d = 7, 3, 3
    names = ("embeddings", "projection", "bias")
    groups: dict[int, list] = {}  # T -> its instances, in the order drawn
    for _ in range(10):
        T = int(rng.integers(2, 5))
        weights = EncoderWeights.init(V, e, d, rng)
        table = _random_scores(rng, d, 1.0).table
        windows = window_ids(rng.integers(0, V, size=T))
        groups.setdefault(T, []).append((windows, weights, table, rng.integers(0, d, size=T)))
    errors = []
    for T, members in groups.items():
        windows, weights, tables, golds = zip(*members)
        tables, golds = np.stack(tables), np.stack(golds)
        logits = np.stack([encode(ids, w) for ids, w in zip(windows, weights)])
        grads = _batch_nll(TokenBatch(logits, np.array([T]), golds), tables, True)[1]
        analytic = [encoder_backward(ids, g.emissions, w) for ids, g, w in zip(windows, grads, weights)]
        # each instance's perturbed copies of each class, stacked, under one encode
        perturbed = np.stack([
            np.concatenate([_encode(ids, **{**vars(w), name: _perturbations(getattr(w, name))})
                            for name in names])
            for ids, w in zip(windows, weights)
        ])
        losses = _sentence_losses(perturbed, golds, tables)
        errors.append(_relative_error([getattr(a, name) for a in analytic for name in names], losses))
    worst = _worst(errors)
    return CheckResult(
        name="encoder gradients vs finite differences",
        observed=worst,
        threshold=1e-4,
        passed=worst <= 1e-4,
        detail="10 instances",
    )


def check_mask_convergence(seed: int) -> CheckResult:
    """Masked-vs-restricted gaps must shrink monotonically in |c| and be tiny
    at c = -30; with no illegal entries both gaps are exactly zero."""
    rng = np.random.default_rng(seed)
    tagset = build_tagset("bio", ["A", "B"])
    d = tagset.size
    values = (-5.0, -10.0, -20.0, -30.0)
    specs = [MaskSpec(rules=tagset.rules, mask_value=c) for c in values]
    groups: dict[int, list] = {}  # T -> its instances, in the order drawn
    for _ in range(8):
        T = int(rng.integers(2, 5))
        groups.setdefault(T, []).append(rng.uniform(-1.5, 1.5, size=(T + d + 1, d)))
    gaps = {c: [] for c in values}  # each value's loss and gradient gaps
    illegal = tagset.rules.table(d)
    for T, draws in groups.items():
        draws = np.stack(draws)  # emissions above the table
        emissions, tables = draws[:, :T], draws[:, T:]
        golds = np.zeros(emissions.shape[:2], dtype=np.intp)
        restricted = _brute_force_gradients(emissions, tables, golds, tagset.rules)  # c is not read
        # each instance's four masked tables in turn, each over the instance's sentence
        tables = np.stack([_masked(tables, spec) for spec in specs], axis=1).reshape(-1, d + 1, d)
        emissions, golds = (np.repeat(a, len(values), axis=0) for a in (emissions, golds))
        masked = zip(*_brute_force_gradients(emissions, tables, golds, None))
        for instance in zip(*restricted):
            for c in values:
                gaps[c] += _convergence_gap(next(masked), instance, illegal)
    per_value = {c: _worst(gaps[c]) for c in values}
    monotone = all(
        per_value[values[i]] >= per_value[values[i + 1]] for i in range(len(values) - 1)
    )
    final = per_value[-30.0]
    empty = MaskSpec(rules=TransitionRuleSet(frozenset(), frozenset()))
    emissions = rng.uniform(-1.5, 1.5, size=(3, d))
    trans = TransitionMatrix(rng.uniform(-1.5, 1.5, size=(d, d)), np.zeros(d))
    zero_gaps = mask_convergence_gap([(emissions, [0, 0, 0])], trans, empty)
    passed = monotone and final <= 1e-8 and zero_gaps == (0.0, 0.0)
    return CheckResult(
        name="mask convergence gaps",
        observed=final,
        threshold=1e-8,
        passed=passed,
        detail=f"monotone={monotone}, empty-set gaps={zero_gaps}",
    )


def check_legal_scores_unchanged(seed: int) -> CheckResult:
    """Masking must leave the score of every legal path bitwise unchanged."""
    rng = np.random.default_rng(seed)
    tagset = build_tagset("bio", ["A", "B"])
    spec = MaskSpec(rules=tagset.rules)
    d = tagset.size
    successors = [np.flatnonzero(legal).tolist() for legal in ~tagset.rules.table(d)]
    groups: dict[int, list] = {}  # T -> its instances, in the order drawn
    for _ in range(100):
        T = int(rng.integers(1, 7))
        draw = rng.uniform(-2.0, 2.0, size=(T + d + 1, d))  # emissions above the table
        path = [d]  # a random legal path after tag d, whose row holds the starts
        for _ in range(T):
            legal = successors[path[-1]]
            path.append(legal[rng.integers(len(legal))])  # the draw of rng.choice(legal)
        groups.setdefault(T, []).append((draw[:T], draw[T:], path[1:]))
    gaps = []
    for members in groups.values():
        emissions, raw, paths = map(np.stack, zip(*members))
        gap = _scores(emissions, raw, paths) - _scores(emissions, _masked(raw, spec), paths)
        gaps.append(np.abs(gap).max())
    worst = _worst(gaps)
    return CheckResult(
        name="legal path scores invariant under masking",
        observed=worst,
        threshold=0.0,
        passed=worst == 0.0,
        detail="100 paths",
    )


def check_mask_idempotence(seed: int) -> CheckResult:
    """apply_mask twice must equal apply_mask once, bitwise."""
    rng = np.random.default_rng(seed)
    tagset = build_tagset("bioes", ["A", "B"])
    spec = MaskSpec(rules=tagset.rules)
    d = tagset.size
    mismatches = 0
    for _ in range(50):
        trans = _random_scores(rng, d, 3.0)
        once = apply_mask(trans, spec)
        twice = apply_mask(once, spec)
        if not np.array_equal(once.table, twice.table):
            mismatches += 1
    return CheckResult(
        name="mask idempotence",
        observed=float(mismatches),
        threshold=0.0,
        passed=mismatches == 0,
        detail="50 matrices",
    )


def run_verification(seed: int = 0) -> tuple[list[CheckResult], float]:
    """Run every check; returns the results and the elapsed wall time."""
    check_seed(seed)
    t0 = time.perf_counter()
    results = [
        check_log_partition(seed),
        check_viterbi(seed + 1),
        check_gradients(seed + 2, masked=False),
        check_gradients(seed + 3, masked=True),
        check_encoder_gradients(seed + 4),
        check_mask_convergence(seed + 5),
        check_legal_scores_unchanged(seed + 6),
        check_mask_idempotence(seed + 7),
    ]
    return results, time.perf_counter() - t0
