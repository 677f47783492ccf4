"""Self-contained correctness checks pitting the dynamic programs against
independent oracles. Used by the `verify` CLI subcommand; the test suite
runs the same checks with its own tolerances.

Each check draws a fixed number of random instances, which its detail
text names, from a generator of the seed it is given; run_verification
gives check k the seed seed + k, so one seed fixes the whole battery. The
finite-difference checks share one central-difference step, _FD_STEP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .crf import (
    TransitionMatrix,
    brute_force_best,
    brute_force_log_partition,
    log_partition,
    loss_and_gradients,
    nll_loss,
    path_score,
    viterbi,
)
from .encoder import EncoderWeights, Vocabulary, encode, encoder_backward
from .errors import check_seed
from .masking import MaskSpec, apply_mask, mask_convergence_gap
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


def _random_instance(rng: np.random.Generator):
    """Emissions, transitions and a gold path of 1 to 6 positions and 2 to 5 tags."""
    T = int(rng.integers(1, 7))
    d = int(rng.integers(2, 6))
    emissions = rng.uniform(-2.0, 2.0, size=(T, d))
    trans = TransitionMatrix(
        rng.uniform(-2.0, 2.0, size=(d, d)), rng.uniform(-2.0, 2.0, size=d)
    )
    gold = [int(v) for v in rng.integers(0, d, size=T)]
    return emissions, trans, gold


def check_log_partition(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        emissions, trans, _ = _random_instance(rng)
        worst = max(
            worst,
            abs(log_partition(emissions, trans) - brute_force_log_partition(emissions, trans)),
        )
    return CheckResult(
        name="log-partition vs enumeration",
        observed=worst,
        threshold=1e-9,
        passed=worst <= 1e-9,
        detail="200 instances",
    )


def check_viterbi(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    mismatched_paths = 0
    for _ in range(200):
        emissions, trans, _ = _random_instance(rng)
        best_path, best_score = brute_force_best(emissions, trans)
        decoded = viterbi(emissions, trans)
        if decoded != best_path:
            mismatched_paths += 1
        worst = max(worst, abs(path_score(emissions, trans, decoded) - best_score))
    passed = worst == 0.0 and mismatched_paths == 0
    return CheckResult(
        name="viterbi vs enumeration",
        observed=worst,
        threshold=0.0,
        passed=passed,
        detail=f"200 instances, {mismatched_paths} path mismatches",
    )


def _relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-2)
    return float(np.max(np.abs(analytic - fd) / denom))


def _central_difference(f, arr: np.ndarray) -> np.ndarray:
    """Central finite differences of f() with respect to every entry of arr,
    which is perturbed in place and restored after each entry."""
    fd = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        for sign in (1.0, -1.0):
            arr[idx] += sign * _FD_STEP
            fd[idx] += sign * f()
            arr[idx] -= sign * _FD_STEP
    return fd / (2 * _FD_STEP)


def _fd_crf(batch, trans) -> float:
    """Worst relative error of the analytic CRF gradients against central
    finite differences over emissions, transitions, and start."""
    _, grads = loss_and_gradients(batch, trans)

    def loss() -> float:
        return nll_loss(batch, trans)

    pairs = [(emissions, g) for (emissions, _), g in zip(batch, grads.emissions)]
    pairs += [(trans.scores, grads.transitions), (trans.start, grads.start)]
    return max(_relative_error(g, _central_difference(loss, arr)) for arr, g in pairs)


def check_gradients(seed: int, masked: bool) -> CheckResult:
    rng = np.random.default_rng(seed)
    tagset = build_tagset("bio", ["A"])
    spec = MaskSpec(rules=tagset.rules)
    d = tagset.size
    worst = 0.0
    for _ in range(20):
        T = int(rng.integers(2, 5))
        emissions = rng.uniform(-2.0, 2.0, size=(T, d))
        trans = TransitionMatrix(
            rng.uniform(-2.0, 2.0, size=(d, d)), rng.uniform(-2.0, 2.0, size=d)
        )
        gold = [0] * T
        if masked:
            trans = apply_mask(trans, spec)
        worst = max(worst, _fd_crf([(emissions, gold)], trans))
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
    worst = 0.0
    for _ in range(10):
        V, e, d, T = 7, 3, 3, int(rng.integers(2, 5))
        vocab = Vocabulary(tuple(["<pad>", "<unk>"] + [f"t{i}" for i in range(V - 2)]))
        weights = EncoderWeights.init(vocab.size, e, d, rng)
        trans = TransitionMatrix(
            rng.uniform(-1.0, 1.0, size=(d, d)), rng.uniform(-1.0, 1.0, size=d)
        )
        ids = [int(v) for v in rng.integers(0, V, size=T)]
        gold = [int(v) for v in rng.integers(0, d, size=T)]

        def loss() -> float:
            return nll_loss([(encode(ids, weights), gold)], trans)

        _, grads = loss_and_gradients([(encode(ids, weights), gold)], trans)
        analytic = encoder_backward(ids, grads.emissions[0], weights)
        for arr, g in (
            (weights.embeddings, analytic.embeddings),
            (weights.projection, analytic.projection),
            (weights.bias, analytic.bias),
        ):
            worst = max(worst, _relative_error(g, _central_difference(loss, arr)))
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
    per_value = {c: 0.0 for c in values}
    for _ in range(8):
        T = int(rng.integers(2, 5))
        emissions = rng.uniform(-1.5, 1.5, size=(T, d))
        trans = TransitionMatrix(
            rng.uniform(-1.5, 1.5, size=(d, d)), rng.uniform(-1.5, 1.5, size=d)
        )
        gold = [0] * T
        for c in values:
            loss_gap, grad_gap = mask_convergence_gap(
                [(emissions, gold)], trans, MaskSpec(rules=tagset.rules, mask_value=c)
            )
            per_value[c] = max(per_value[c], max(loss_gap, grad_gap))
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
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 7))
        emissions = rng.uniform(-2.0, 2.0, size=(T, d))
        trans = TransitionMatrix(
            rng.uniform(-2.0, 2.0, size=(d, d)), rng.uniform(-2.0, 2.0, size=d)
        )
        masked = apply_mask(trans, spec)
        path = _random_legal_path(rng, tagset, T)
        worst = max(
            worst,
            abs(path_score(emissions, trans, path) - path_score(emissions, masked, path)),
        )
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
        trans = TransitionMatrix(
            rng.uniform(-3.0, 3.0, size=(d, d)), rng.uniform(-3.0, 3.0, size=d)
        )
        once = apply_mask(trans, spec)
        twice = apply_mask(once, spec)
        if not (
            np.array_equal(once.scores, twice.scores)
            and np.array_equal(once.start, twice.start)
        ):
            mismatches += 1
    return CheckResult(
        name="mask idempotence",
        observed=float(mismatches),
        threshold=0.0,
        passed=mismatches == 0,
        detail="50 matrices",
    )


def _random_legal_path(rng: np.random.Generator, tagset, T: int) -> list[int]:
    illegal_pair, illegal_start = tagset.rules.tables(tagset.size)
    path = [int(rng.choice(np.flatnonzero(~illegal_start)))]
    for _ in range(T - 1):
        path.append(int(rng.choice(np.flatnonzero(~illegal_pair[path[-1]]))))
    return path


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
