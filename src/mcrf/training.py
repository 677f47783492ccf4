"""Mini-batch NLL training with Adam, in three modes.

  crf         - plain training, plain decoding
  mcrf-decode - plain training; the transition mask is applied only when
                decoding, so the training trajectory is bit-identical to crf
  mcrf-train  - the mask is applied at initialization and reassigned after
                every Adam update, so masked entries hold exactly c at
                every point of training; Adam moves each entry by its own
                gradient history only, so the other entries never see it

The budget rule is max(epochs, iteration floor): training runs for
max(max_epochs * batches_per_epoch, max_iterations) iterations. Adam's
betas and epsilon are the module constants BETA1, BETA2 and EPSILON; only
the learning rate is a setting. Adam steps one vector, the stepped arrays
concatenated: its operations are elementwise, so each array gets the bits
of an Adam state of its own. The vocabulary is built from the training
tokens in first-occurrence order, and each sentence's gold tags and input
once: its window ids, or its external logits, for which the step has no
encoder. An iteration's batch is one crf.TokenBatch: the drawn inputs
concatenated, and encoded into one (N, d) array, with their lengths and
tags; its (N, d) emission gradient goes to encoder_backward as it comes.
The dev NLL runs the same way, in chunks. Everything is seeded; two runs
with the same config and data produce byte-identical reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .crf import TokenBatch, TransitionMatrix, loss_and_gradients, nll_loss
from .crf import viterbi  # noqa: F401  (module attribute that perfbench/selftest.py checks)
from .data import TRAIN_MODES, LabeledSentence, ModelState
from .encoder import EncoderWeights, Vocabulary, encode, encoder_backward, window_ids
from .errors import ConfigurationError, DataError, TrainingError, check_seed
from .evaluation import score_paths
from .masking import DEFAULT_MASK_VALUE, MaskSpec, decode, mask_spec_for, reapply_mask_in_place
from .schemes import Tagset, validate_gold_paths

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

_COUNTS = ("batch_size", "max_epochs", "max_iterations", "eval_every", "embedding_dim", "seed")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "crf"
    mask_value: float = DEFAULT_MASK_VALUE
    enforce_start: bool = True
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 5
    max_iterations: int = 1000
    eval_every: int = 50
    embedding_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in TRAIN_MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}, expected {TRAIN_MODES}")
        # numpy's integers and floats register as Integral and Real; bool is an int
        for names, kind, noun in (
            (_COUNTS, numbers.Integral, "an integer"),
            (("learning_rate", "mask_value"), numbers.Real, "a number"),
        ):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise ConfigurationError(f"{name} must be {noun}, got {value!r}")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigurationError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.max_epochs < 0 or self.max_iterations < 0:
            raise ConfigurationError("epoch and iteration budgets must be >= 0")
        check_seed(self.seed)
        if self.eval_every < 1:
            raise ConfigurationError("eval_every must be >= 1")
        if self.embedding_dim < 1:
            raise ConfigurationError("embedding dimension must be >= 1")
        if not math.isfinite(self.mask_value):
            raise ConfigurationError(f"mask value must be finite, got {self.mask_value}")


@dataclass
class OptimizerState:
    """Adam's first and second moments over the stepped arrays, flattened and
    concatenated in the order adam_step gets them, plus the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "OptimizerState":
        size = sum(p.size for p in params)
        return cls(np.zeros(size), np.zeros(size))


def adam_step(
    state: OptimizerState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update of params, in place, from grads in the
    same order. Each operation runs once over the concatenated gradient; being
    elementwise, it rounds as it would array by array."""
    if [p.shape for p in params] != [g.shape for g in grads]:
        raise ValueError("grads must match params in number and shape")
    state.step += 1
    t = state.step
    g = np.concatenate(grads, axis=None)
    m, v = state.m, state.v
    m *= BETA1
    m += (1 - BETA1) * g
    v *= BETA2
    v += (1 - BETA2) * g * g
    m_hat = m / (1 - BETA1**t)
    v_hat = v / (1 - BETA2**t)
    update = config.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
    lo = 0
    for p in params:
        p -= update[lo : lo + p.size].reshape(p.shape)
        lo += p.size


@dataclass(frozen=True)
class EvalRecord:
    iteration: int
    train_nll: float
    dev_nll: float
    dev_f1: float
    illegal_pct: float


@dataclass
class TrainReport:
    """Evaluation trace; to_text() is byte-stable for a given run."""

    records: list[EvalRecord] = field(default_factory=list)

    HEADER = "iteration\ttrain_nll\tdev_nll\tdev_f1\tillegal_pct"

    def to_text(self) -> str:
        lines = [self.HEADER]
        for r in self.records:
            lines.append(
                f"{r.iteration}\t{r.train_nll:.6f}\t{r.dev_nll:.6f}"
                f"\t{r.dev_f1:.6f}\t{r.illegal_pct:.4f}"
            )
        return "\n".join(lines) + "\n"

    @property
    def final(self) -> EvalRecord:
        if not self.records:
            raise ValueError("empty report")
        return self.records[-1]


def initialize(
    config: TrainConfig, tagset: Tagset, vocab: Vocabulary, rng: np.random.Generator
) -> tuple[EncoderWeights, TransitionMatrix]:
    """Initial weights drawn from rng; in mcrf-train mode the mask is already
    applied."""
    enc = EncoderWeights.init(vocab.size, config.embedding_dim, tagset.size, rng)
    trans = TransitionMatrix.zeros(tagset.size)
    if config.mode == "mcrf-train":
        reapply_mask_in_place(trans, mask_spec_for(config, tagset))
    return enc, trans


def train(
    train_sentences: list[LabeledSentence],
    dev_sentences: list[LabeledSentence],
    config: TrainConfig,
    tagset: Tagset,
    train_logits: list[np.ndarray] | None = None,
    dev_logits: list[np.ndarray] | None = None,
    on_checkpoint=None,
) -> tuple[ModelState, TrainReport]:
    """Run the configured training and return the model plus its report.

    When train_logits/dev_logits are given, emissions are frozen to those
    arrays and Adam steps only the transition matrix and start vector; the
    encoder keeps its initial weights.
    on_checkpoint, if given, is called as on_checkpoint(iteration, trans)
    at every evaluation point.
    """
    if not train_sentences:
        raise DataError("empty training corpus")
    if not dev_sentences:
        raise DataError("empty dev corpus")
    validate_gold_paths(tagset, (s.gold for s in train_sentences), name="train ")
    validate_gold_paths(tagset, (s.gold for s in dev_sentences), name="dev ")
    external = train_logits is not None
    if external != (dev_logits is not None):
        raise ConfigurationError("external emissions must cover both train and dev")
    if external:
        for name, noun, seqs, sentences in (
            ("train", "training", train_logits, train_sentences),
            ("dev", "dev", dev_logits, dev_sentences),
        ):
            if len(seqs) != len(sentences):
                raise DataError(
                    f"got {len(seqs)} emission sequences for "
                    f"{len(sentences)} {noun} sentences"
                )
            for k, (em, sent) in enumerate(zip(seqs, sentences)):
                if np.shape(em) != (len(sent.tokens), tagset.size):
                    raise DataError(
                        f"external {name} emissions, sentence {k + 1}: shape "
                        f"{np.shape(em)}, expected ({len(sent.tokens)}, {tagset.size})"
                    )
                if not np.all(np.isfinite(em)):
                    raise TrainingError(
                        f"non-finite value in external {name} emissions, sentence {k + 1}"
                    )

    vocab = Vocabulary.from_tokens(tok for sent in train_sentences for tok in sent.tokens)
    rng = np.random.default_rng(config.seed)
    spec = mask_spec_for(config, tagset)
    enc, trans = initialize(config, tagset, vocab, rng)
    encoder = None if external else enc  # frozen on external emissions
    params = [trans.scores, trans.start]  # Adam's order; the encoder's arrays follow
    if encoder is not None:
        params += [enc.embeddings, enc.projection, enc.bias]
    opt = OptimizerState.for_params(params)

    # one input per sentence: window ids for the encoder, or the external logits
    train_inputs, dev_inputs = (train_logits, dev_logits) if external else (
        [window_ids(vocab.lookup_all(s.tokens)) for s in sentences]
        for sentences in (train_sentences, dev_sentences)
    )
    train_tags = [np.asarray(s.gold, dtype=np.intp) for s in train_sentences]  # checked above
    train_lengths = np.array([len(tags) for tags in train_tags])
    dev_tags = [np.asarray(s.gold, dtype=np.intp) for s in dev_sentences]
    dev_gold = [s.gold for s in dev_sentences]

    n = len(train_sentences)
    batches_per_epoch = math.ceil(n / config.batch_size)
    target = max(config.max_epochs * batches_per_epoch, config.max_iterations)
    if target < 1:
        raise ConfigurationError("training budget is zero iterations")

    report = TrainReport()
    for iteration in range(1, target + 1):
        b = (iteration - 1) % batches_per_epoch
        if b == 0:
            order = rng.permutation(n)
        picked = order[b * config.batch_size : (b + 1) * config.batch_size]
        x = np.concatenate([train_inputs[k] for k in picked])
        emissions = x if encoder is None else encode(x, encoder)
        tags = np.concatenate([train_tags[k] for k in picked])
        try:
            loss, grads = loss_and_gradients(TokenBatch(emissions, train_lengths[picked], tags), trans)
        except ValueError:  # the batch was checked above: its loss is not finite
            raise TrainingError(
                f"non-finite loss at iteration {iteration}; check emissions and learning rate"
            ) from None
        step_grads = [grads.transitions, grads.start]
        if encoder is not None:
            g_enc = encoder_backward(x, grads.emissions, encoder)
            step_grads += [g_enc.embeddings, g_enc.projection, g_enc.bias]
        adam_step(opt, params, step_grads, config)
        if config.mode == "mcrf-train":
            reapply_mask_in_place(trans, spec)
        if iteration % config.eval_every == 0 or iteration == target:
            try:
                report.records.append(_evaluate(
                    iteration, loss, dev_inputs, dev_tags, encoder,
                    trans, spec, tagset, dev_gold, config.batch_size,
                ))
            except ValueError:  # the dev corpus was checked above: its scores are not finite
                raise TrainingError(
                    f"non-finite dev scores at iteration {iteration}; "
                    f"check emissions and learning rate"
                ) from None
            if on_checkpoint is not None:
                on_checkpoint(iteration, trans)

    state = ModelState(
        tagset=tagset,
        mode=config.mode,
        mask_value=config.mask_value,
        enforce_start=config.enforce_start,
        trans=trans,
        encoder=enc,
        vocab=vocab,
    )
    return state, report


def _evaluate(
    iteration: int,
    train_loss: float,
    dev_inputs: list[np.ndarray],
    dev_tags: list[np.ndarray],
    encoder: EncoderWeights | None,
    trans: TransitionMatrix,
    spec: MaskSpec | None,
    tagset: Tagset,
    dev_gold: list[list[int]],
    batch_size: int,
) -> EvalRecord:
    emissions: list[np.ndarray] = []
    total_nll = 0.0
    for lo in range(0, len(dev_tags), batch_size):  # chunks bound the padded arrays
        tags = dev_tags[lo : lo + batch_size]
        lengths = np.array([len(t) for t in tags])
        x = np.concatenate(dev_inputs[lo : lo + batch_size])
        logits = x if encoder is None else encode(x, encoder)
        # in mcrf-train mode the live matrix already carries the mask, so this
        # is the masked objective; in the other modes it is the plain NLL
        batch = TokenBatch(logits, lengths, np.concatenate(tags))
        total_nll += len(tags) * nll_loss(batch, trans)
        emissions += np.split(logits, np.cumsum(lengths)[:-1])
    predictions = decode(emissions, trans, spec)
    dev_nll = total_nll / len(dev_tags)
    metrics, stats = score_paths(dev_gold, predictions, tagset, "none")
    return EvalRecord(
        iteration=iteration,
        train_nll=float(train_loss),
        dev_nll=float(dev_nll),
        dev_f1=float(metrics.f1),
        illegal_pct=100.0 * stats.ratio_illegal_over_total,
    )
