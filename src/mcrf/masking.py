"""Transition masking: apply a large negative constant c to illegal entries.

Masking replaces each illegal transition score (and, when start enforcement
is on, each illegal start score) with a finite constant c << 0. Constrained
decoding lowers c further for a corpus whose scores could outweigh it, so
it never prefers an illegal path at any length. The masked NLL converges to
the NLL computed over legal paths only as c decreases, with error on the
order of e^c. c stays finite so every dynamic program remains
ordinary float arithmetic; the default -1e4 makes e^c underflow to zero in
float64, which is as good as -inf without the NaN hazards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crf import (
    Batch,
    TransitionMatrix,
    _sentence,
    brute_force_log_partition,
    brute_force_loss_and_gradients,
    nll_loss,
    path_score,
    viterbi,
    viterbi_batch,
)
from .errors import ConfigurationError
from .schemes import Tagset, TransitionRuleSet, validate_gold_paths

DEFAULT_MASK_VALUE = -1e4
_GUARD_MARGIN = 1e3
# guard_threshold reads max|l| over this many sentences at a time: one copy of
# a whole corpus would raise peak memory, and at d = 41 fault in its pages
_GUARD_SENTENCES = 32


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
    illegal_pair, illegal_start = spec.rules.tables(trans.num_tags)
    trans.scores[illegal_pair] = spec.mask_value
    trans.start[illegal_start] = spec.mask_value


def guard_threshold(emissions_list: list[np.ndarray], trans: TransitionMatrix, spec: MaskSpec) -> float:
    """Largest mask value guaranteed to keep every masked path below every
    legal path, for the given instances.

    Any path score lies within +-(T*max|l| + (T-1)*max|a| + max|start|) over
    legal entries; one masked entry contributes c once. Separating the two
    sets therefore needs c below twice that range, plus a fixed margin.
    Each sentence is checked first, as viterbi_batch checks it.
    """
    emissions_list = [_sentence(em, trans.num_tags, k) for k, em in enumerate(emissions_list)]
    t_max = max(len(e) for e in emissions_list)
    max_l = 0.0
    for lo in range(0, len(emissions_list), _GUARD_SENTENCES):
        flat = np.concatenate(emissions_list[lo : lo + _GUARD_SENTENCES], axis=None)
        max_l = max(max_l, float(np.abs(flat, out=flat).max(initial=0.0)))
    illegal_pair, illegal_start = spec.rules.tables(trans.num_tags)
    legal_a = np.abs(trans.scores[~illegal_pair])
    legal_s = np.abs(trans.start[~illegal_start])
    max_a = float(np.max(legal_a)) if legal_a.size else 0.0
    max_s = float(np.max(legal_s)) if legal_s.size else 0.0
    return -(2.0 * t_max * (max_l + max_a + max_s) + _GUARD_MARGIN)


def _decoding_matrix(
    emissions_list: list[np.ndarray], trans: TransitionMatrix, spec: MaskSpec | None
) -> TransitionMatrix:
    """trans as the decoder sees it: as given without a spec; under it,
    through one mask, deepened to the corpus's guard threshold when
    spec.mask_value does not clear it, so that every masked path scores
    strictly below every legal one at any length. An infinite or nan score
    makes the threshold -inf or nan; the mask then keeps spec.mask_value
    (the rules keep the paths legal), and the engine refuses nan and +inf."""
    if spec is None or not emissions_list:
        return trans
    threshold = guard_threshold(emissions_list, trans, spec)
    if -np.inf < threshold < spec.mask_value:
        spec = replace(spec, mask_value=threshold)
    return apply_mask(trans, spec)


def decode(
    emissions_list: list[np.ndarray], trans: TransitionMatrix, spec: MaskSpec | None
) -> list[list[int]]:
    """The decode entry point, one path per sentence of a corpus: plain
    Viterbi without a spec; under it, the best legal path of each sentence
    (lexicographic tie-break) at any length. The corpus runs through one
    mask and one batched Viterbi over the legal moves of spec.rules."""
    rules = spec and spec.rules
    return viterbi_batch(emissions_list, _decoding_matrix(emissions_list, trans, spec), rules)


def constrained_viterbi(
    emissions: np.ndarray, trans: TransitionMatrix, spec: MaskSpec
) -> list[int]:
    """Best legal path of one sentence, the path decode([emissions], trans,
    spec) gives it, through crf.viterbi."""
    return viterbi(emissions, _decoding_matrix([emissions], trans, spec), spec.rules)


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
    total = 0.0
    for emissions, gold in batch:
        log_z = brute_force_log_partition(emissions, trans, rules=spec.rules)
        total += log_z - path_score(emissions, trans, gold)
    return total / len(batch)


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
    masked = apply_mask(trans, spec)
    loss_m, grads_m = brute_force_loss_and_gradients(batch, masked)
    loss_r, grads_r = brute_force_loss_and_gradients(batch, trans, rules=spec.rules)
    loss_gap = abs(loss_m - loss_r)
    illegal_pair, illegal_start = spec.rules.tables(trans.num_tags)
    grad_gap = 0.0
    for em_m, em_r in zip(grads_m.emissions, grads_r.emissions):
        grad_gap = max(grad_gap, float(np.max(np.abs(em_m - em_r))))
    diff_a = np.abs(grads_m.transitions - grads_r.transitions)[~illegal_pair]
    if diff_a.size:
        grad_gap = max(grad_gap, float(np.max(diff_a)))
    diff_s = np.abs(grads_m.start - grads_r.start)[~illegal_start]
    if diff_s.size:
        grad_gap = max(grad_gap, float(np.max(diff_s)))
    return loss_gap, grad_gap
