"""The benchmark's workloads: fixtures built from a seed, one closed-loop
operation, and the checks on its outputs.

A workload is made for a scratch directory. Its `build(seed)` runs in a
process of its own (build_fixtures.py), writes the fixture files there and
returns the facts the benchmark process needs about them, so that building
never counts in the benchmark process's peak memory. Fixture building and
output checks use functions bound at import time, and checks run outside any
tracer, so neither is ever traced. The operations look up cli.main and
run_verification on their modules at call time, so a tracer sees them as
root spans.

`op(k, checkpoint)` runs operation k. An operation may call `checkpoint()`
between stretches of its work; the benchmark runs its calibration kernel
there, outside the timed stretches. Operations run in whole cycles of
`cycle` operations, so that every run times its inputs in the same
proportions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import replace

import numpy as np

from mcrf import cli, verification
from mcrf.cli import DEFAULT_TYPE_NAMES
from mcrf.data import (
    SyntheticConfig,
    generate_synthetic,
    load_model,
    read_conll,
    save_model,
    write_conll,
)
from mcrf.encoder import encode
from mcrf.errors import McrfError
from mcrf.masking import MaskSpec, constrained_viterbi
from mcrf.postproc import repair_tags
from mcrf.schemes import Scheme, first_violation, illegal_transition_set
from mcrf.training import TrainConfig, train


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()[:16]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _legal_spans(tags: list[str]) -> set[tuple[str, int, int]]:
    """Typed spans of a legal BIO or BIOES path, read independently of
    mcrf.postproc: a chunk opens on B-X or S-X and runs over I-X and E-X."""
    found = set()
    t = 0
    while t < len(tags):
        prefix, _, etype = tags[t].partition("-")
        end = t + 1
        if prefix in ("B", "S"):
            while end < len(tags) and tags[end] in (f"I-{etype}", f"E-{etype}"):
                end += 1
            found.add((etype, t, end))
        t = end
    return found


class TrainBio3:
    """Criterion-11 run: 2000 synthetic BIO sentences with 3 types (d=7,
    lengths 5-15), then default mcrf-train training through the CLI."""

    name = "train-bio3"
    min_ops = 2  # two trainings, so report bytes can be compared
    cycle = 1
    types = 3
    sentences = 2000
    min_dev_f1 = 0.8

    def __init__(self, work: str):
        self.train_path = os.path.join(work, "train.conll")
        self.dev_path = os.path.join(work, "dev.conll")
        self.model_path = os.path.join(work, "model.json")
        self.report_path = os.path.join(work, "report.tsv")
        self.first_report: bytes | None = None
        self.quality = 0.0

    def build(self, seed: int) -> tuple[dict, dict[str, str]]:
        config = SyntheticConfig(entity_types=DEFAULT_TYPE_NAMES[: self.types])
        # the train and dev splits of `mcrf gen-synth --sentences 2000 --seed <seed>`
        tagset, train_sents = generate_synthetic(replace(config, sentences=self.sentences), seed)
        _, dev_sents = generate_synthetic(replace(config, sentences=self.sentences // 10), seed + 1)
        write_conll(self.train_path, train_sents, tagset)
        write_conll(self.dev_path, dev_sents, tagset)
        # expected tokens through the forward-backward pass in one default
        # training: whole epochs, then part of one drawn in random order
        defaults = TrainConfig()
        n = len(train_sents)
        batches_per_epoch = -(-n // defaults.batch_size)
        iterations = max(defaults.max_epochs * batches_per_epoch, defaults.max_iterations)
        epochs, rest = divmod(iterations, batches_per_epoch)
        corpus_tokens = sum(len(s.tokens) for s in train_sents)
        facts = {"tokens_per_op": corpus_tokens * (epochs + min(rest * defaults.batch_size, n) / n)}
        return facts, {
            "train.conll": file_digest(self.train_path), "dev.conll": file_digest(self.dev_path),
        }

    def setup_files(self) -> list[str]:
        return ["bio", str(self.types), self.train_path, self.dev_path]

    def op(self, k: int, checkpoint=None) -> None:
        """One training. A given checkpoint is called at every evaluation
        point, through train's on_checkpoint hook reached via cli.train."""
        argv = [
            "train", "--data", self.train_path, "--dev", self.dev_path,
            "--mode", "mcrf-train", "--out", self.model_path, "--report", self.report_path,
        ]
        if checkpoint is None:
            self._train(argv)
            return
        train_fn = cli.train

        def train_with_checkpoints(*args, **kwargs):
            return train_fn(*args, on_checkpoint=lambda *_: checkpoint(), **kwargs)

        cli.train = train_with_checkpoints
        try:
            self._train(argv)
        finally:
            cli.train = train_fn

    @staticmethod
    def _train(argv: list[str]) -> None:
        code, _ = _run_cli(argv)
        if code != 0:
            raise McrfError(f"mcrf train exited with {code}")

    def check(self, k: int) -> str | None:
        with open(self.report_path, "rb") as fh:
            report = fh.read()
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            return "report bytes differ from the first training of this run"
        self.quality = float(report.decode().splitlines()[-1].split("\t")[3])
        if not self.quality >= self.min_dev_f1:
            return f"dev_f1 {self.quality} below {self.min_dev_f1}"
        model = load_model(self.model_path)
        rules = illegal_transition_set(model.tagset)
        want = np.float64(model.mask_value).tobytes()
        for i, j in sorted(rules.omega):
            if model.trans.scores[i, j].tobytes() != want:
                return f"masked transition ({i}, {j}) is {model.trans.scores[i, j]!r}"
        for i in sorted(rules.illegal_starts):
            if model.trans.start[i].tobytes() != want:
                return f"masked start {i} is {model.trans.start[i]!r}"
        return None

    def summary(self, op_s: float) -> dict[str, tuple[float, str]]:
        return {
            "train_tok_per_s": (self.tokens_per_op / op_s, "tok/s"),
            "dev_f1": (self.quality, "ratio"),
        }


class TagBioes10:
    """Decoding with a wide tagset: a BIOES model with 10 types (d=41),
    `mcrf predict --strategy retain` then `mcrf eval --gold/--pred`."""

    name = "tag-bioes10"
    min_ops = 3
    types = 10
    train_sentences = 1000
    train_iterations = 100
    # two test files, each with two sentences of every length from 1 to 60
    # in seeded order; operations alternate between them and quality pools
    # both, so operations stay short while F1 covers 240 sentences
    max_length = 60
    per_length = 2
    parts = 2
    cycle = parts

    def __init__(self, work: str):
        self.model_path = os.path.join(work, "model.json")
        self.test_paths = [os.path.join(work, f"test{p}.conll") for p in range(self.parts)]
        self.pred_paths = [os.path.join(work, f"pred{p}.conll") for p in range(self.parts)]
        self.first_pred: list[bytes | None] = [None] * self.parts
        self.decoded: list[list[list[str]] | None] = [None] * self.parts
        self.counts: list[tuple[int, int, int] | None] = [None] * self.parts
        self.quality = 0.0
        self.report = ""

    def build(self, seed: int) -> tuple[dict, dict[str, str]]:
        config = SyntheticConfig(
            entity_types=DEFAULT_TYPE_NAMES[: self.types], scheme=Scheme.BIOES
        )

        def corpus(sub_seed: int, **fields):
            return generate_synthetic(replace(config, **fields), sub_seed)

        tagset, train_sents = corpus(seed, sentences=self.train_sentences)
        _, dev_sents = corpus(seed + 1, sentences=50)
        model, _ = train(
            train_sents, dev_sents,
            TrainConfig(
                mode="mcrf-train", learning_rate=0.03, max_epochs=0,
                max_iterations=self.train_iterations, eval_every=self.train_iterations,
                seed=seed,
            ),
            tagset,
        )
        save_model(self.model_path, model)
        digests = {"model.json": file_digest(self.model_path)}

        tests = [[] for _ in range(self.parts)]
        for length in range(1, self.max_length + 1):
            _, sents = corpus(
                seed * 1000 + 2 + length,
                sentences=self.per_length * self.parts, min_length=length, max_length=length,
            )
            for part, tests_part in enumerate(tests):
                tests_part += sents[part * self.per_length : (part + 1) * self.per_length]
        rng = np.random.default_rng(seed)
        for part, sents in enumerate(tests):
            sents = [sents[int(i)] for i in rng.permutation(len(sents))]
            write_conll(self.test_paths[part], sents, tagset)
            digests[f"test{part}.conll"] = file_digest(self.test_paths[part])
        return {"tokens_per_op": sum(len(s.tokens) for s in tests[0])}, digests

    def setup_files(self) -> list[str]:
        return ["bioes", str(self.types), self.model_path, *self.test_paths]

    def op(self, k: int, checkpoint=None) -> None:
        test, pred = self.test_paths[k % self.parts], self.pred_paths[k % self.parts]
        code, _ = _run_cli([
            "predict", "--model", self.model_path, "--data", test,
            "--strategy", "retain", "--out", pred,
        ])
        if code != 0:
            raise McrfError(f"mcrf predict exited with {code}")
        code, self.report = _run_cli([
            "eval", "--gold", test, "--pred", pred,
            "--scheme", "bioes", "--types", str(self.types), "--strategy", "retain",
        ])
        if code != 0:
            raise McrfError(f"mcrf eval exited with {code}")

    def _decode(self, part: int) -> list[list[str]] | str:
        """Decode a test file with the decoder itself and check that every
        path is legal before any repair: the retain repair in `mcrf predict`
        rewrites every path into a legal one, so the written predictions
        cannot show an illegal decode. Returns the retain-repaired tag
        paths, which the written predictions must equal, or the problem."""
        model = load_model(self.model_path)
        spec = MaskSpec(
            rules=illegal_transition_set(model.tagset),
            mask_value=model.mask_value,
            enforce_start=model.enforce_start,
        )
        paths = []
        for number, sent in enumerate(read_conll(self.test_paths[part], model.tagset), start=1):
            emissions = encode(model.vocab.lookup_all(sent.tokens), model.encoder)
            path = constrained_viterbi(emissions, model.trans, spec)
            hit = first_violation(model.tagset, path, model.enforce_start)
            if hit is not None:
                return f"sentence {number}: decoder returned an illegal path ({hit[1]})"
            repaired = repair_tags(path, model.tagset, "retain")
            paths.append([model.tagset.tags[i] for i in repaired])
        return paths

    def check(self, k: int) -> str | None:
        part = k % self.parts
        if self.decoded[part] is None:
            decoded = self._decode(part)
            if isinstance(decoded, str):
                return decoded
            self.decoded[part] = decoded
        with open(self.pred_paths[part], "rb") as fh:
            pred = fh.read()
        if self.first_pred[part] is None:
            self.first_pred[part] = pred
        elif pred != self.first_pred[part]:
            return "predictions differ from the first pass over the same file"
        tp = n_gold = n_pred = 0
        blocks = pred.decode().strip("\n").split("\n\n")
        if len(blocks) != len(self.decoded[part]):
            return f"{len(blocks)} predicted sentences for {len(self.decoded[part])} in the test file"
        for number, (block, decoded) in enumerate(zip(blocks, self.decoded[part]), start=1):
            rows = [line.split("\t") for line in block.split("\n")]
            gold = [row[1] for row in rows]
            path = [row[2] for row in rows]
            if path != decoded:
                return f"sentence {number}: predicted path differs from the decoder's path"
            gold_spans, pred_spans = _legal_spans(gold), _legal_spans(path)
            tp += len(gold_spans & pred_spans)
            n_gold += len(gold_spans)
            n_pred += len(pred_spans)
        f1 = 2 * tp / (n_gold + n_pred) if n_gold + n_pred else 0.0
        reported = next(
            (line for line in self.report.splitlines() if line.startswith("f1=")), None
        )
        if reported is None or abs(float(reported[3:-1]) - 100 * f1) > 0.051:
            return f"eval reports {reported!r}, independent F1 is {100 * f1:.3f}%"
        self.counts[part] = (tp, n_gold, n_pred)
        pooled = [sum(c[i] for c in self.counts if c) for i in range(3)]
        self.quality = 2 * pooled[0] / (pooled[1] + pooled[2]) if pooled[1] + pooled[2] else 0.0
        return None

    def summary(self, op_s: float) -> dict[str, tuple[float, str]]:
        return {
            "tag_tok_per_s": (self.tokens_per_op / op_s, "tok/s"),
            "tag_f1": (self.quality, "ratio"),
        }


class Verify:
    """The `mcrf verify` battery over a fixed cycle of seeds. A battery's
    cost depends on its seed, so every run times whole cycles."""

    name = "verify"
    min_ops = 3
    cycle = 8

    def __init__(self, work: str):
        self.quality = 0.0

    def build(self, seed: int) -> tuple[dict, dict[str, str]]:
        return {"base_seed": seed * 1000}, {}

    def setup_files(self) -> list[str]:
        return ["bio", "1"]

    def op(self, k: int, checkpoint=None) -> None:
        self.results, _ = verification.run_verification(seed=self.base_seed + k % self.cycle)

    def check(self, k: int) -> str | None:
        passed = sum(r.passed for r in self.results)
        self.quality = passed / len(self.results)
        failed = [r.line() for r in self.results if not r.passed]
        return "; ".join(failed) or None

    def summary(self, op_s: float) -> dict[str, tuple[float, str]]:
        return {"verify_s": (op_s, "s"), "checks_passed": (self.quality, "ratio")}


WORKLOADS = {w.name: w for w in (TrainBio3, TagBioes10, Verify)}
