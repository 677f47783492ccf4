"""Illegal-path diagnostics: a deterministic adversarial fixture and a
side-by-side comparison of decoding/repair systems on one corpus.

The adversarial fixture is a 5-token BIO instance whose unconstrained
Viterbi path necessarily contains an illegal O -> I transition, while the
constrained decode returns a legal path with a strictly lower raw score.
Both claims are verified against the brute-force oracles at construction
time, so the fixture cannot silently drift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .crf import TransitionMatrix, brute_force_best, viterbi
from .data import LabeledSentence
from .errors import ConfigurationError
from .evaluation import ChunkMetrics, IllegalStats, score_paths
from .masking import MaskSpec, constrained_viterbi, decode
from .schemes import Scheme, Tagset, first_violation
from .training import TrainConfig, train


@dataclass(frozen=True)
class AdversarialInstance:
    emissions: np.ndarray
    trans: TransitionMatrix
    spec: MaskSpec
    unconstrained_path: list[int]
    constrained_path: list[int]


def build_adversarial_instance(tagset: Tagset) -> AdversarialInstance:
    """Emissions that bait the decoder into an orphan I tag.

    Position 2 strongly prefers I-X (with a weaker B-X runner-up); every
    other position strongly prefers O. Transitions are zero, so the
    unconstrained argmax is (O, O, I-X, O, O), illegal at the O -> I step.
    Masking flips position 2 to the runner-up: (O, O, B-X, O, O).
    """
    if tagset.scheme is not Scheme.BIO:
        raise ConfigurationError("the adversarial fixture is defined for BIO tagsets")
    etype = tagset.entity_types[0]
    o = tagset.index_of("O")
    b = tagset.index_of(f"B-{etype}")
    i = tagset.index_of(f"I-{etype}")
    T = 5
    emissions = np.zeros((T, tagset.size))
    emissions[:, o] = 10.0
    emissions[2, o] = 0.0
    emissions[2, i] = 10.0
    emissions[2, b] = 1.0
    trans = TransitionMatrix.zeros(tagset.size)
    spec = MaskSpec(rules=tagset.rules)
    expected_illegal = [o, o, i, o, o]
    expected_legal = [o, o, b, o, o]
    checked, _ = brute_force_best(emissions, trans)
    if checked != expected_illegal or viterbi(emissions, trans) != expected_illegal:
        raise AssertionError("fixture lost its unconstrained optimum")
    checked, _ = brute_force_best(emissions, trans, rules=spec.rules)
    if checked != expected_legal or constrained_viterbi(emissions, trans, spec) != expected_legal:
        raise AssertionError("fixture lost its constrained optimum")
    if first_violation(tagset, expected_illegal) is None:
        raise AssertionError("the unconstrained path should be illegal")
    return AdversarialInstance(
        emissions=emissions,
        trans=trans,
        spec=spec,
        unconstrained_path=expected_illegal,
        constrained_path=expected_legal,
    )


@dataclass(frozen=True)
class SystemRow:
    label: str
    metrics: ChunkMetrics
    stats: IllegalStats


@dataclass
class ComparisonTable:
    rows: list[SystemRow]

    def to_text(self) -> str:
        lines = ["system\tprecision\trecall\tf1\tillegal_pct"]
        for row in self.rows:
            lines.append(
                f"{row.label}\t{100 * row.metrics.precision:.1f}"
                f"\t{100 * row.metrics.recall:.1f}\t{100 * row.metrics.f1:.1f}"
                f"\t{100 * row.stats.ratio_illegal_over_total:.1f}"
            )
        return "\n".join(lines) + "\n"


def compare_systems(
    train_sentences: list[LabeledSentence],
    dev_sentences: list[LabeledSentence],
    config: TrainConfig,
    tagset: Tagset,
) -> ComparisonTable:
    """Evaluate six systems sharing one seed on one corpus.

    tagger-retain / tagger-discard: per-position argmax (transitions zeroed)
    plus repair; crf-retain / crf-discard: plain Viterbi plus repair;
    mcrf-decoding: the same crf model decoded under the mask; mcrf-training:
    a model trained with the mask maintained throughout. Exactly two
    training runs happen (crf and mcrf-train), both from config.seed.
    """
    crf_config = replace(config, mode="crf")
    mcrf_config = replace(config, mode="mcrf-train")
    crf_model, _ = train(train_sentences, dev_sentences, crf_config, tagset)
    mcrf_model, _ = train(train_sentences, dev_sentences, mcrf_config, tagset)
    spec = mcrf_model.mask_spec
    gold = [s.gold for s in dev_sentences]
    crf_emissions = crf_model.emissions(dev_sentences)
    tagger_raw = decode(crf_emissions, TransitionMatrix.zeros(tagset.size), None)
    crf_raw = decode(crf_emissions, crf_model.trans, None)
    mcrf_decode_raw = decode(crf_emissions, crf_model.trans, spec)
    mcrf_train_raw = decode(mcrf_model.emissions(dev_sentences), mcrf_model.trans, spec)

    def row(label: str, raw: list[list[int]], strategy: str) -> SystemRow:
        metrics, stats = score_paths(gold, raw, tagset, strategy)
        return SystemRow(label=label, metrics=metrics, stats=stats)

    rows = [
        row("tagger-retain", tagger_raw, "retain"),
        row("tagger-discard", tagger_raw, "discard"),
        row("crf-retain", crf_raw, "retain"),
        row("crf-discard", crf_raw, "discard"),
        row("mcrf-decoding", mcrf_decode_raw, "none"),
        row("mcrf-training", mcrf_train_raw, "none"),
    ]
    return ComparisonTable(rows=rows)
