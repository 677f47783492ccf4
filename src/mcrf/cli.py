"""Command line interface: train, predict, eval, verify, gen-synth."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from .crf import viterbi  # noqa: F401  (module attribute that perfbench/selftest.py checks)
from .data import (
    TRAIN_MODES,
    LabeledSentence,
    SyntheticConfig,
    generate_synthetic,
    load_model,
    read_conll,
    save_model,
    write_conll,
)
from .encoder import load_external_logits
from .errors import ConfigurationError, DataError, McrfError
from .evaluation import format_report, score_paths
from .masking import decode
from .postproc import STRATEGIES, extract_segments_batch, repair_tags_batch
from .schemes import Scheme, Tagset, build_tagset
from .training import TrainConfig, train
from .verification import run_verification

DEFAULT_TYPE_NAMES = (
    "LOC", "ORG", "PER", "MISC", "GPE", "FAC", "EVT", "PROD", "LANG", "LAW",
)


def _entity_types(count: int) -> tuple[str, ...]:
    if count < 1:
        raise DataError("need at least one entity type")
    if count <= len(DEFAULT_TYPE_NAMES):
        return DEFAULT_TYPE_NAMES[:count]
    extra = tuple(f"TYPE{i}" for i in range(len(DEFAULT_TYPE_NAMES), count))
    return DEFAULT_TYPE_NAMES + extra


def _logits(path: str, tagset: Tagset, sentences: list[LabeledSentence]) -> list[np.ndarray]:
    """The external logits file for a corpus, checked against its tagset and lengths."""
    return load_external_logits(path, tags=tagset.tags, lengths=[len(s.tokens) for s in sentences])


def _decode_data(args: argparse.Namespace):
    """Load --model, read --data and decode it, from --emissions if given:
    (model, sentences, raw paths)."""
    model = load_model(args.model)
    sentences = read_conll(args.data, model.tagset)
    if args.emissions is not None:
        emissions = _logits(args.emissions, model.tagset, sentences)
    else:
        emissions = model.emissions(sentences)
    try:
        return model, sentences, decode(emissions, model.trans, model.mask_spec)
    except ValueError as exc:  # finite scores whose sums leave the float range: name the files
        files = " and ".join(f for f in (args.model, args.emissions) if f is not None)
        raise DataError(f"{files}: {exc}") from None


def cmd_train(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigurationError(f"--seeds must be >= 1, got {args.seeds}")
    if bool(args.emissions) != bool(args.dev_emissions):
        raise DataError("--emissions and --dev-emissions must be given together")
    tagset = build_tagset(Scheme(args.scheme), _entity_types(args.types))
    train_sentences = read_conll(args.data, tagset)
    dev_sentences = read_conll(args.dev, tagset)
    config = TrainConfig(
        mode=args.mode,
        mask_value=args.mask_value,
        enforce_start=not args.no_enforce_start,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        max_iterations=args.max_iterations,
        eval_every=args.eval_every,
        embedding_dim=args.embedding_dim,
        seed=args.seed,
    )
    train_logits = dev_logits = None
    if args.emissions:
        train_logits = _logits(args.emissions, tagset, train_sentences)
        dev_logits = _logits(args.dev_emissions, tagset, dev_sentences)

    runs = []
    for k in range(args.seeds):
        cfg = replace(config, seed=args.seed + k)
        t0 = time.perf_counter()
        model, report = train(
            train_sentences, dev_sentences, cfg, tagset,
            train_logits=train_logits, dev_logits=dev_logits,
        )
        elapsed = time.perf_counter() - t0
        runs.append((cfg.seed, model, report, elapsed))
        print(
            f"seed {cfg.seed}: dev_f1={report.final.dev_f1:.4f} "
            f"dev_nll={report.final.dev_nll:.4f} "
            f"illegal={report.final.illegal_pct:.2f}% ({elapsed:.1f}s)"
        )
    f1s = [r.final.dev_f1 for _, _, r, _ in runs]
    best = max(range(len(runs)), key=lambda k: f1s[k])
    if args.seeds > 1:
        print(f"best seed {runs[best][0]}: dev_f1={f1s[best]:.4f}, mean dev_f1={np.mean(f1s):.4f}")
    save_model(args.out, runs[best][1])
    print(f"model written to {args.out}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(runs[best][2].to_text())
        print(f"report written to {args.report}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model, sentences, paths = _decode_data(args)
    predictions = repair_tags_batch(paths, model.tagset, args.strategy)
    write_conll(args.out, sentences, model.tagset, predictions=predictions)
    print(f"predictions written to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.gold or args.pred:
        if not (args.gold and args.pred):
            raise DataError("--gold and --pred must be given together")
        if args.model or args.data:
            raise DataError("use either --gold/--pred or --model/--data, not both")
        if args.emissions:
            raise DataError("--emissions goes with --model/--data, not --gold/--pred")
        tagset = build_tagset(Scheme(args.scheme), _entity_types(args.types))
        gold_sents = read_conll(args.gold, tagset)
        pred_sents = read_conll(args.pred, tagset, validate=False)
        if len(gold_sents) != len(pred_sents):
            raise DataError(
                f"gold has {len(gold_sents)} sentences, predictions have {len(pred_sents)}"
            )
        for k, (g, p) in enumerate(zip(gold_sents, pred_sents)):
            if len(g.tokens) != len(p.tokens):
                raise DataError(
                    f"sentence {k + 1}: gold has {len(g.tokens)} tokens, "
                    f"prediction has {len(p.tokens)}"
                )
        raw = [s.gold for s in pred_sents]
    else:
        if not (args.model and args.data):
            raise DataError("eval needs --model and --data (or --gold and --pred)")
        model, gold_sents, raw = _decode_data(args)
        tagset = model.tagset
    gold_segments = extract_segments_batch([s.gold for s in gold_sents], tagset)
    print(format_report(*score_paths(gold_segments, raw, tagset, args.strategy)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results, elapsed = run_verification(seed=args.seed)
    for result in results:
        print(result.json_line() if args.json else result.line())
    failed = [r for r in results if not r.passed]
    if not args.json:  # no clock in the JSON lines
        print(f"{len(results) - len(failed)}/{len(results)} checks passed in {elapsed:.1f}s")
    return 0 if not failed else 1


def cmd_gen_synth(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        entity_types=_entity_types(args.types),
        scheme=Scheme(args.scheme),
        sentences=args.sentences,
        min_length=args.min_length,
        max_length=args.max_length,
        vocab_size=args.vocab_size,
        entity_density=args.entity_density,
        noise_rate=args.noise_rate,
    )
    splits = (
        ("train", args.sentences, args.seed),
        ("dev", max(1, args.sentences // 10), args.seed + 1),
        ("test", max(1, args.sentences // 10), args.seed + 2),
    )
    if not 0.0 < args.sample_fraction <= 1.0:
        raise DataError("--sample-fraction must lie in (0, 1]")
    for name, count, seed in splits:
        cfg = replace(config, sentences=count)
        tagset, sentences = generate_synthetic(cfg, seed)
        if name == "train" and args.sample_fraction < 1.0:
            keep = max(1, round(args.sample_fraction * len(sentences)))
            order = np.random.default_rng(seed + 3).permutation(len(sentences))[:keep]
            sentences = [sentences[int(i)] for i in sorted(order)]
        path = f"{args.out_prefix}_{name}.conll"
        write_conll(path, sentences, tagset)
        print(f"{path}: {len(sentences)} sentences")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcrf",
        description="Sequence labeling with linear-chain CRFs and transition masking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on CoNLL data")
    p.add_argument("--data", required=True, help="training corpus (CoNLL)")
    p.add_argument("--dev", required=True, help="dev corpus (CoNLL)")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="bio")
    p.add_argument("--types", type=int, default=3, help="number of entity types")
    p.add_argument("--mode", choices=TRAIN_MODES, default=TrainConfig.mode)
    p.add_argument("--mask-value", type=float, default=TrainConfig.mask_value)
    p.add_argument(
        "--no-enforce-start",
        action="store_true",
        help="do not mask tags that cannot open a sentence",
    )
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--max-iterations", type=int, default=TrainConfig.max_iterations)
    p.add_argument("--eval-every", type=int, default=TrainConfig.eval_every)
    p.add_argument("--embedding-dim", type=int, default=TrainConfig.embedding_dim)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--seeds", type=int, default=1, help="number of seeded trials")
    p.add_argument("--emissions", help="external logits file for the training corpus")
    p.add_argument("--dev-emissions", help="external logits file for the dev corpus")
    p.add_argument("--out", required=True, help="path for the model file")
    p.add_argument("--report", help="path for the evaluation-trace table")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="tag a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", choices=list(STRATEGIES), default="none")
    p.add_argument("--emissions", help="external logits file for the corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against a gold corpus")
    p.add_argument("--model", help="model file (pair with --data)")
    p.add_argument("--data", help="gold corpus to decode and score")
    p.add_argument("--gold", help="gold corpus file (pair with --pred)")
    p.add_argument("--pred", help="predictions file; the tag is the last column")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="bio")
    p.add_argument("--types", type=int, default=3, help="entity types for --gold/--pred")
    p.add_argument("--strategy", choices=list(STRATEGIES), default="none")
    p.add_argument("--emissions", help="external logits file for the corpus")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the oracle-based self checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json", action="store_true", help="print one JSON object per check and no timing line"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-synth", help="generate a synthetic labeled corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sentences", type=int, default=200)
    p.add_argument("--types", type=int, default=3)
    p.add_argument(
        "--scheme", choices=[s.value for s in Scheme], default=SyntheticConfig.scheme.value
    )
    p.add_argument("--min-length", type=int, default=SyntheticConfig.min_length)
    p.add_argument("--max-length", type=int, default=SyntheticConfig.max_length)
    p.add_argument("--vocab-size", type=int, default=SyntheticConfig.vocab_size)
    p.add_argument("--entity-density", type=float, default=SyntheticConfig.entity_density)
    p.add_argument("--noise-rate", type=float, default=SyntheticConfig.noise_rate)
    p.add_argument("--sample-fraction", type=float, default=1.0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (McrfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
