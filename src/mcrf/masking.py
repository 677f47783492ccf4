"""Transition masking: apply a large negative constant c to illegal entries.

Masking replaces each illegal transition score (and, when start enforcement
is on, each illegal start score) with a finite constant c << 0: one boolean
assignment of the rules' (d + 1, d) table into the parameters' table, whose
row d holds the starts in both. The masked NLL converges to the NLL
computed over legal paths only as c decreases, with error on the order of
e^c. c stays finite so every dynamic program remains ordinary float
arithmetic; the default -1e4 makes e^c underflow to zero in float64, which
is as good as -inf without the NaN hazards.

Decoding reads the rules, not c: decode runs crf.viterbi_batch over the
legal moves of spec.rules alone. constrained_viterbi, the paper's masked
decode over all d^2 moves, is the reference that decode is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crf import (
    _LOWEST,
    _NO_FINITE_PATH,
    Batch,
    CrfGradients,
    TransitionMatrix,
    _not_finite,
    _sentence,
    brute_force_loss_and_gradients,
    nll_loss,
    viterbi,
    viterbi_batch,
)
from .errors import ConfigurationError
from .schemes import Tagset, TransitionRuleSet, validate_gold_paths

DEFAULT_MASK_VALUE = -1e4
_GUARD_MARGIN = 1e3


@dataclass(frozen=True)
class MaskSpec:
    """Which entries to mask (rules), with what value (mask_value), and
    whether illegal start tags are masked too (enforce_start). With start
    enforcement off the start rules are dropped at construction, so rules
    is exactly the set of entries the mask touches."""

    rules: TransitionRuleSet
    mask_value: float = DEFAULT_MASK_VALUE
    enforce_start: bool = True

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mask_value) and self.mask_value < 0):
            raise ConfigurationError(
                f"mask value must be finite and negative, got {self.mask_value}"
            )
        if not self.enforce_start and self.rules.illegal_starts:
            object.__setattr__(self, "rules", self.rules.without_start_rules())


def mask_spec_for(settings, tagset: Tagset) -> MaskSpec | None:
    """The mask that settings (a TrainConfig or ModelState: anything with
    mode, mask_value and enforce_start) train or decode under; None for crf."""
    if settings.mode == "crf":
        return None
    return MaskSpec(
        rules=tagset.rules,
        mask_value=settings.mask_value,
        enforce_start=settings.enforce_start,
    )


def apply_mask(trans: TransitionMatrix, spec: MaskSpec) -> TransitionMatrix:
    """Return a copy of trans with masked entries set to spec.mask_value."""
    masked = trans.copy()
    reapply_mask_in_place(masked, spec)
    return masked


def reapply_mask_in_place(trans: TransitionMatrix, spec: MaskSpec) -> None:
    """Overwrite masked entries with spec.mask_value (idempotent)."""
    trans.table[spec.rules.table(trans.num_tags)] = spec.mask_value


def guard_threshold(emissions_list: list[np.ndarray], trans: TransitionMatrix, spec: MaskSpec) -> float:
    """Largest mask value guaranteed to keep every masked path below every
    legal path of finite score, for the given instances.

    Any finite path score lies within +-(T*max|l| + (T-1)*max|a| + max|start|)
    over the finite legal entries (a path through any other is not finite);
    one masked entry contributes c once. Separating the two sets therefore
    needs c below twice that range, plus a fixed margin. Each sentence is
    checked first, as viterbi_batch checks it.
    """
    emissions_list = [_sentence(em, trans.num_tags, k) for k, em in enumerate(emissions_list)]
    t_max = max(len(e) for e in emissions_list)
    legal = ~spec.rules.table(trans.num_tags)
    def finite_max_abs(arrays):  # one array at a time: no copy of a whole corpus
        return max(float(np.abs(x[np.isfinite(x)]).max(initial=0.0)) for x in arrays)

    max_l = finite_max_abs(emissions_list)
    max_a = finite_max_abs([trans.scores[legal[:-1]]])
    max_s = finite_max_abs([trans.start[legal[-1]]])
    return -(2.0 * t_max * (max_l + max_a + max_s) + _GUARD_MARGIN)


def decode(
    emissions_list: list[np.ndarray], trans: TransitionMatrix, spec: MaskSpec | None
) -> list[list[int]]:
    """The decode entry point, one path per sentence of a corpus: plain
    Viterbi without a spec; under it, the best legal path of each sentence
    (lexicographic tie-break) at any length, from one batched Viterbi over
    the legal moves of spec.rules. The mask value is never read."""
    return viterbi_batch(emissions_list, trans, spec and spec.rules)


def constrained_viterbi(
    emissions: np.ndarray, trans: TransitionMatrix, spec: MaskSpec
) -> list[int]:
    """Best legal path of one sentence by the paper's own decode, the
    reference that decode is checked against: mask at spec.mask_value,
    deepened to the sentence's guard_threshold when c does not clear it,
    then plain crf.viterbi over all d^2 moves.

    Under the guard every masked path scores strictly below every legal one
    of finite score, so the max over all moves selects what decode's max
    over the legal moves selects: the same paths, ties included. A masked
    entry wins only when no legal path is finite; that path is refused
    with the engine's error.
    """
    threshold = guard_threshold([emissions], trans, spec)
    if threshold < spec.mask_value:  # floored: past the float range it is -inf
        spec = replace(spec, mask_value=max(threshold, _LOWEST))
    path = viterbi(emissions, apply_mask(trans, spec))
    before = [trans.num_tags, *path[:-1]]  # the first tag follows tag d: its start reads row d
    if spec.rules.table(trans.num_tags)[before, path].any():
        raise _not_finite(0, _NO_FINITE_PATH, -np.inf)
    return path


def masked_nll(batch: Batch, trans: TransitionMatrix, tagset: Tagset, spec: MaskSpec) -> float:
    """Mean NLL through the masked transition matrix.

    Gold paths must be legal; otherwise their score would carry the mask
    penalty and the loss would be meaningless.
    """
    validate_gold_paths(tagset, [gold for _, gold in batch], spec.enforce_start)
    return nll_loss(batch, apply_mask(trans, spec))


def restricted_nll(batch: Batch, trans: TransitionMatrix, spec: MaskSpec) -> float:
    """Exact NLL with the partition function summed over legal paths only
    (enumeration oracle; small instances only)."""
    return brute_force_loss_and_gradients(batch, trans, spec.rules)[0]


def mask_convergence_gap(
    batch: Batch, trans: TransitionMatrix, spec: MaskSpec
) -> tuple[float, float]:
    """How far the masked objective sits from the exact legal-paths objective.

    Both sides are computed by the same exact enumeration: the masked side
    sums over all paths under the masked matrix, the restricted side over
    legal paths under the original matrix. Returns (loss_gap, grad_gap)
    where grad_gap is the max-norm difference over emissions, unmasked
    transition entries, and unmasked start entries. Both gaps decay like
    e^c and are exactly zero when the rule set is empty.
    """
    restricted = brute_force_loss_and_gradients(batch, trans, rules=spec.rules)
    masked = brute_force_loss_and_gradients(batch, apply_mask(trans, spec))
    return _convergence_gap(masked, restricted, spec.rules.table(trans.num_tags))


def _convergence_gap(
    masked: tuple[float, CrfGradients], restricted: tuple[float, CrfGradients], illegal: np.ndarray
) -> tuple[float, float]:
    """mask_convergence_gap of its two sides as given, the loss and
    gradients of the masked oracle and of the legal-paths oracle, over the
    rules' (d + 1, d) illegal table: verify computes both sides for a shape
    group of instances and mask values at once."""
    (loss_m, grads_m), (loss_r, grads_r) = masked, restricted
    loss_gap = float(abs(loss_m - loss_r))
    legal = ~illegal
    diffs = [em_m - em_r for em_m, em_r in zip(grads_m.emissions, grads_r.emissions)]
    diffs.append((grads_m.transitions - grads_r.transitions)[legal[:-1]])
    diffs.append((grads_m.start - grads_r.start)[legal[-1]])
    return loss_gap, max(float(np.abs(diff).max(initial=0.0)) for diff in diffs)
