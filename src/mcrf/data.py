"""Corpus and model I/O plus a seeded synthetic corpus generator.

CoNLL format: one token per line, columns separated by whitespace, token in
the first column and tag in the last; each block of errors.read_blocks is a
sentence. Gold paths are validated for scheme legality at load time; an
illegal gold corpus is a data error, not something to repair silently. Every
file is read through errors.read_text, so a leading byte-order mark is
dropped and a byte that is not UTF-8 is a FormatError naming the file and
line.

The model file is a single JSON document (format tag "mcrf-model-v1") whose
floats round-trip exactly through repr, so save/load is bit-faithful. Loading
checks that numbers are JSON numbers, that the vocabulary is a list of
strings, array shapes, finiteness, the mode and the mask value and, in
mcrf-train mode, the masked entries; JSON that is nested too deeply or holds
an integer too long to read is a FormatError too. Error lines, of corpora and
model files alike, quote a value of the file in short, so a huge field gives
a short line.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .crf import TransitionMatrix
from .encoder import EncoderWeights, Vocabulary, encode
from .errors import ConfigurationError, DataError, FormatError, check_seed, read_blocks, read_text
from .masking import MaskSpec, mask_spec_for
from .schemes import Scheme, Tagset, build_tagset, canonical_run, corpus_violation

MODEL_FORMAT = "mcrf-model-v1"

TRAIN_MODES = ("crf", "mcrf-decode", "mcrf-train")

MAX_ENTITY_LENGTH = 3  # longest entity run the synthetic generator draws


@dataclass
class LabeledSentence:
    tokens: list[str]
    gold: list[int]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.gold):
            raise ValueError("tokens and gold tags must have equal length")
        if not self.tokens:
            raise ValueError("empty sentence")


def read_conll(path: str, tagset: Tagset, validate: bool = True) -> list[LabeledSentence]:
    """Parse a CoNLL file; an empty file is an empty corpus.

    With validate (the default), every gold path is checked against the
    tagset and an illegal path is a DataError. Prediction files written by
    an unconstrained decoder may legitimately be illegal; read those with
    validate=False. The first error in file order wins.
    """
    sentences: list[LabeledSentence] = []
    firsts: list[int] = []  # the line of each sentence's first token
    unreadable = None  # an illegal gold path before the bad line comes first
    index = {tag: i for i, tag in enumerate(tagset.tags)}
    try:
        for first, lines in read_blocks(path):
            rows = [line.split() for line in lines]  # a block's lines are not blank
            try:
                tags = [index[row[-1]] for row in rows] if min(map(len, rows)) > 1 else None
            except KeyError:
                tags = None
            if tags is None:  # name the first bad line
                for lineno, (line, cols) in enumerate(zip(lines, rows), start=first):
                    if len(cols) < 2:
                        raise FormatError(
                            f"{path}:{lineno}: need at least token and tag columns, "
                            f"got {reprlib.repr(line)}"
                        )
                    if cols[-1] not in index:
                        raise FormatError(
                            f"{path}:{lineno}: unknown tag {reprlib.repr(cols[-1])} "
                            f"(tagset: {reprlib.repr(list(tagset.tags))})"
                        )
            sentences.append(LabeledSentence(tokens=[row[0] for row in rows], gold=tags))
            firsts.append(first)
    except FormatError as exc:
        unreadable = exc
    hit = corpus_violation(tagset, [s.gold for s in sentences]) if validate else None
    if hit is not None:
        k, pos, rule = hit
        raise DataError(
            f"{path}:{firsts[k] + pos}: sentence {k + 1}, "
            f"position {pos + 1}: illegal gold path ({rule})"
        )
    if unreadable is not None:
        raise unreadable
    return sentences


def write_conll(
    path: str,
    sentences: list[LabeledSentence],
    tagset: Tagset,
    predictions: list[list[int]] | None = None,
) -> None:
    """Write token/gold (or token/gold/predicted) columns, tab separated.
    Every tag index, and the predictions' alignment, is checked before the
    file opens, so a refused corpus leaves an existing file as it was."""
    columns = [[sent.gold for sent in sentences]]
    if predictions is not None:
        if len(predictions) != len(sentences):
            raise ValueError("predictions do not align with the sentences")
        for k, (sent, pred) in enumerate(zip(sentences, predictions)):
            if len(pred) != len(sent.tokens):
                raise ValueError(
                    f"sentence {k + 1}: prediction of {len(pred)} tags "
                    f"for {len(sent.tokens)} tokens"
                )
        columns.append(predictions)
    tagset.concatenate([tags for row in zip(*columns) for tags in row])  # in file order
    lines = []
    for k, sent in enumerate(sentences):
        tag_columns = ([tagset.tags[i] for i in column[k]] for column in columns)
        lines.extend(map("\t".join, zip(sent.tokens, *tag_columns)))
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{line}\n" for line in lines))


@dataclass
class ModelState:
    """Everything needed to reload and apply a trained model."""

    tagset: Tagset
    mode: str
    mask_value: float
    enforce_start: bool
    trans: TransitionMatrix
    encoder: EncoderWeights
    vocab: Vocabulary

    def __post_init__(self) -> None:
        if self.mode not in TRAIN_MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}, expected {TRAIN_MODES}")

    @cached_property
    def mask_spec(self) -> MaskSpec | None:
        """The mask this model decodes under (None for crf), built on first use."""
        return mask_spec_for(self, self.tagset)

    def emissions(self, sentences: list[LabeledSentence]) -> list[np.ndarray]:
        """The encoder's (T, d) emissions for each sentence, encoded one
        sentence at a time."""
        return [encode(self.vocab.lookup_all(s.tokens), self.encoder) for s in sentences]


def save_model(path: str, state: ModelState) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "scheme": state.tagset.scheme.value,
        "entity_types": list(state.tagset.entity_types),
        "tags": list(state.tagset.tags),
        "mode": state.mode,
        "mask_value": state.mask_value,
        "enforce_start": state.enforce_start,
        "transitions": state.trans.scores.tolist(),
        "start": state.trans.start.tolist(),
        "encoder": {
            "embedding_dim": state.encoder.embedding_dim,
            "embeddings": state.encoder.embeddings.tolist(),
            "projection": state.encoder.projection.tolist(),
            "bias": state.encoder.bias.tolist(),
        },
        "vocabulary": list(state.vocab.tokens),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> ModelState:
    try:
        doc = json.loads(read_text(path))
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise FormatError(f"{path}: corrupted model file ({exc})") from None
    except RecursionError:
        raise FormatError(f"{path}: corrupted model file (JSON nested too deeply)") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(
            f"{path}: unsupported model format "
            f"{reprlib.repr(doc.get('format') if isinstance(doc, dict) else doc)}, "
            f"expected {MODEL_FORMAT!r}"
        )
    try:
        tagset = build_tagset(Scheme(doc["scheme"]), doc["entity_types"])
        if tuple(doc["tags"]) != tagset.tags:
            raise FormatError(
                f"{path}: stored tag order {reprlib.repr(doc['tags'])} does not match "
                f"the canonical order {reprlib.repr(list(tagset.tags))}"
            )
        enc = doc["encoder"]
        tokens = doc["vocabulary"]
        if type(tokens) is not list or not all(type(token) is str for token in tokens):
            raise FormatError(f"{path}: vocabulary must be a list of strings")
        vocab = Vocabulary(tokens=tuple(tokens))
        d, e = tagset.size, enc["embedding_dim"]
        if type(e) is not int or e < 1:  # refuses bool, float and str
            raise FormatError(
                f"{path}: encoder.embedding_dim must be an integer >= 1, got {reprlib.repr(e)}"
            )
        if not isinstance(doc["enforce_start"], bool):
            raise FormatError(
                f"{path}: enforce_start must be true or false, "
                f"got {reprlib.repr(doc['enforce_start'])}"
            )

        def array(field: str, value, shape: tuple[int, ...]) -> np.ndarray:
            out = np.asarray(value)
            # astype would parse "-1e4" as a number
            if out.dtype.kind in "OU" and any(isinstance(v, str) for v in out.flat):
                raise FormatError(f"{path}: {field} must hold JSON numbers, not strings")
            out = out.astype(np.float64, copy=False)
            if out.shape != shape:
                raise FormatError(f"{path}: {field} has shape {out.shape}, expected {shape}")
            if not np.all(np.isfinite(out)):
                raise FormatError(f"{path}: {field} holds a non-finite value")
            return out

        state = ModelState(
            tagset=tagset,
            mode=doc["mode"],
            mask_value=float(array("mask_value", doc["mask_value"], ())),
            enforce_start=doc["enforce_start"],
            trans=TransitionMatrix(
                array("transitions", doc["transitions"], (d, d)),
                array("start", doc["start"], (d,)),
            ),
            encoder=EncoderWeights(
                embeddings=array("encoder.embeddings", enc["embeddings"], (vocab.size, e)),
                projection=array("encoder.projection", enc["projection"], (3 * e, d)),
                bias=array("encoder.bias", enc["bias"], (d,)),
            ),
            vocab=vocab,
        )
        spec = state.mask_spec  # refuses an unknown mode or an unusable mask value
    except FormatError:
        raise
    except (ConfigurationError, KeyError, OverflowError, TypeError, ValueError) as exc:
        text = str(exc)  # may quote a whole field of the file, so it is cut short
        if len(text) > 200:
            text = text[:197] + "..."
        raise FormatError(f"{path}: invalid model file ({text})") from None
    if state.mode == "mcrf-train":
        # masked training pins every masked entry to exactly mask_value (< 0,
        # so == compares the bits)
        off = spec.rules.table(state.trans.num_tags) & (state.trans.table != spec.mask_value)
        if off.any():
            field = "transitions" if off[:-1].any() else "start"  # row d holds the starts
            raise FormatError(
                f"{path}: {field} has a masked entry that differs from "
                f"mask_value {state.mask_value!r} in mcrf-train mode"
            )
    return state


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic corpus generator.

    Each entity type gets its own small pool of surface tokens, so emission
    windows genuinely predict the type; fillers come from a shared pool.
    noise_rate randomly swaps a token for one drawn from the global pool
    without touching the gold tags. Entity runs are 1 to MAX_ENTITY_LENGTH
    tokens long, cut short at the sentence end.
    """

    entity_types: tuple[str, ...] = ("LOC", "ORG", "PER")
    scheme: Scheme = Scheme.BIO
    sentences: int = 100
    min_length: int = 5
    max_length: int = 15
    vocab_size: int = 60  # size of the filler pool; entity pools add tokens_per_type each
    tokens_per_type: int = 12
    entity_density: float = 0.2
    noise_rate: float = 0.02

    def __post_init__(self) -> None:
        if not 1 <= self.min_length <= self.max_length:
            raise ConfigurationError("need 1 <= min_length <= max_length")
        if not 0.0 <= self.entity_density <= 1.0:
            raise ConfigurationError("entity_density must lie in [0, 1]")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigurationError("noise_rate must lie in [0, 1]")
        if self.sentences < 1:
            raise ConfigurationError("need at least one sentence")
        for name in ("vocab_size", "tokens_per_type"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")


def generate_synthetic(
    config: SyntheticConfig, seed: int
) -> tuple[Tagset, list[LabeledSentence]]:
    """Deterministically sample a legal labeled corpus."""
    check_seed(seed)
    tagset = build_tagset(config.scheme, config.entity_types)
    rng = np.random.default_rng(seed)
    fillers = [f"w{i}" for i in range(config.vocab_size)]
    pools = {
        etype: [f"{etype.lower()}{i}" for i in range(config.tokens_per_type)]
        for etype in config.entity_types
    }
    global_pool = fillers + [tok for pool in pools.values() for tok in pool]
    outside = tagset.index_of("O")
    sentences: list[LabeledSentence] = []
    for _ in range(config.sentences):
        length = int(rng.integers(config.min_length, config.max_length + 1))
        tokens: list[str] = []
        gold: list[int] = []
        t = 0
        while t < length:
            remaining = length - t
            if rng.random() < config.entity_density:
                etype = str(rng.choice(list(config.entity_types)))
                span = int(rng.integers(1, min(MAX_ENTITY_LENGTH, remaining) + 1))
                pool = pools[etype]
                tokens.extend(str(rng.choice(pool)) for _ in range(span))
                gold.extend(canonical_run(tagset, etype, span))
                t += span
            else:
                tokens.append(str(rng.choice(fillers)))
                gold.append(outside)
                t += 1
        if config.noise_rate > 0.0:
            for t in range(length):
                if rng.random() < config.noise_rate:
                    tokens[t] = str(rng.choice(global_pool))
        sentences.append(LabeledSentence(tokens=tokens, gold=gold))
    if corpus_violation(tagset, [s.gold for s in sentences]) is not None:
        raise AssertionError("generator produced an illegal gold path")
    return tagset, sentences


def split_corpus(
    sentences: list[LabeledSentence], dev_fraction: float, seed: int
) -> tuple[list[LabeledSentence], list[LabeledSentence]]:
    """Seeded shuffle split; dev gets round(dev_fraction * n), at least 1."""
    if not 0.0 < dev_fraction < 1.0:
        raise ConfigurationError("dev_fraction must lie strictly between 0 and 1")
    if len(sentences) < 2:
        raise DataError("need at least two sentences to split")
    check_seed(seed)
    order = np.random.default_rng(seed).permutation(len(sentences))
    n_dev = max(1, round(dev_fraction * len(sentences)))
    if n_dev >= len(sentences):
        n_dev = len(sentences) - 1
    dev_idx = set(int(i) for i in order[:n_dev])
    train = [s for k, s in enumerate(sentences) if k not in dev_idx]
    dev = [s for k, s in enumerate(sentences) if k in dev_idx]
    return train, dev
