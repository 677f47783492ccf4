"""End-to-end command line behavior, one subcommand at a time."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcrf import cli, postproc, schemes, training
from mcrf.cli import main
from mcrf.data import (
    LabeledSentence,
    ModelState,
    SyntheticConfig,
    generate_synthetic,
    load_model,
    read_conll,
    save_model,
    write_conll,
)
from mcrf.encoder import EncoderWeights, Vocabulary, encode, write_logits
from mcrf.masking import MaskSpec, apply_mask, constrained_viterbi, decode, guard_threshold
from mcrf.schemes import Scheme, build_tagset, first_violation, illegal_transition_set
from mcrf.crf import TransitionMatrix, viterbi
from mcrf.training import TrainConfig
from mcrf.verification import CheckResult, run_verification


def count_sentences(path):
    blocks = 0
    in_block = False
    for line in path.read_text().splitlines():
        if line.strip():
            in_block = True
        elif in_block:
            blocks += 1
            in_block = False
    return blocks + (1 if in_block else 0)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small three-way synthetic split shared by the training tests."""
    root = tmp_path_factory.mktemp("corpus")
    prefix = str(root / "synth")
    code = main([
        "gen-synth", "--sentences", "40", "--types", "2", "--seed", "5",
        "--out-prefix", prefix,
    ])
    assert code == 0
    return {
        "train": f"{prefix}_train.conll",
        "dev": f"{prefix}_dev.conll",
        "test": f"{prefix}_test.conll",
    }


FAST_TRAIN = [
    "--batch-size", "8", "--epochs", "1", "--max-iterations", "10",
    "--eval-every", "5", "--embedding-dim", "4", "--types", "2",
]


class TestGenSynth:
    def test_writes_three_splits(self, tmp_path):
        prefix = str(tmp_path / "data")
        code = main(["gen-synth", "--sentences", "30", "--out-prefix", prefix])
        assert code == 0
        assert count_sentences(tmp_path / "data_train.conll") == 30
        assert count_sentences(tmp_path / "data_dev.conll") == 3
        assert count_sentences(tmp_path / "data_test.conll") == 3

    def test_deterministic_output(self, tmp_path):
        for name in ("a", "b"):
            main(["gen-synth", "--sentences", "20", "--seed", "9",
                  "--out-prefix", str(tmp_path / name)])
        assert (tmp_path / "a_train.conll").read_bytes() == (
            tmp_path / "b_train.conll"
        ).read_bytes()
        assert (tmp_path / "a_dev.conll").read_bytes() == (
            tmp_path / "b_dev.conll"
        ).read_bytes()

    def test_splits_are_disjoint_draws(self, tmp_path):
        prefix = str(tmp_path / "data")
        main(["gen-synth", "--sentences", "20", "--out-prefix", prefix])
        train = (tmp_path / "data_train.conll").read_text()
        dev = (tmp_path / "data_dev.conll").read_text()
        assert train != dev

    def test_sample_fraction_shrinks_train_only(self, tmp_path):
        full = str(tmp_path / "full")
        frac = str(tmp_path / "frac")
        main(["gen-synth", "--sentences", "40", "--seed", "3", "--out-prefix", full])
        main(["gen-synth", "--sentences", "40", "--seed", "3",
              "--sample-fraction", "0.25", "--out-prefix", frac])
        assert count_sentences(tmp_path / "frac_train.conll") == 10
        assert (tmp_path / "frac_dev.conll").read_bytes() == (
            tmp_path / "full_dev.conll"
        ).read_bytes()

    def test_gold_paths_are_legal(self, tmp_path):
        prefix = str(tmp_path / "data")
        main(["gen-synth", "--sentences", "15", "--scheme", "bioes",
              "--out-prefix", prefix])
        tagset = build_tagset(Scheme.BIOES, ["LOC", "ORG", "PER"])
        read_conll(f"{prefix}_train.conll", tagset)

    def test_types_past_the_named_ten_are_numbered(self, tmp_path):
        prefix = str(tmp_path / "data")
        code = main(["gen-synth", "--types", "12", "--sentences", "30", "--out-prefix", prefix])
        assert code == 0
        lines = (tmp_path / "data_train.conll").read_text().splitlines()
        types = {line.split("\t")[-1][2:] for line in lines if line and line[-1] != "O"}
        assert {"TYPE10", "TYPE11"} <= types <= set(cli.DEFAULT_TYPE_NAMES) | {"TYPE10", "TYPE11"}

    def test_zero_types_fails_cleanly(self, tmp_path, capsys):
        assert main(["gen-synth", "--types", "0", "--out-prefix", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: need at least one entity type\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_fraction_fails_cleanly(self, tmp_path, capsys):
        code = main(["gen-synth", "--sentences", "10", "--sample-fraction", "0",
                     "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_vocabulary_fails_cleanly(self, tmp_path, capsys):
        code = main(["gen-synth", "--sentences", "10", "--vocab-size", "0",
                     "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vocab_size" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestTrain:
    def test_writes_model_and_report(self, corpus, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        report_path = str(tmp_path / "report.txt")
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--out", model_path, "--report", report_path, *FAST_TRAIN,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 0:" in out
        assert "model written to" in out
        model = load_model(model_path)
        assert model.mode == "crf"
        report_lines = open(report_path).read().splitlines()
        assert report_lines[0] == "iteration\ttrain_nll\tdev_nll\tdev_f1\tillegal_pct"
        assert len(report_lines) == 3  # evals at iterations 5 and 10

    def test_masked_training_pins_illegal_entries(self, corpus, tmp_path):
        model_path = str(tmp_path / "model.json")
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--mode", "mcrf-train", "--out", model_path, *FAST_TRAIN,
        ])
        assert code == 0
        model = load_model(model_path)
        ts = model.tagset
        assert model.trans.scores[ts.index_of("O"), ts.index_of("I-LOC")] == -1e4
        assert model.trans.start[ts.index_of("I-ORG")] == -1e4
        assert model.trans.scores[0, 0] != 0.0

    def test_decode_mode_trains_identically_to_plain(self, corpus, tmp_path):
        plain_path = str(tmp_path / "plain.json")
        masked_path = str(tmp_path / "masked.json")
        base = ["train", "--data", corpus["train"], "--dev", corpus["dev"], *FAST_TRAIN]
        assert main(base + ["--mode", "crf", "--out", plain_path]) == 0
        assert main(base + ["--mode", "mcrf-decode", "--out", masked_path]) == 0
        plain = load_model(plain_path)
        masked = load_model(masked_path)
        np.testing.assert_array_equal(plain.trans.scores, masked.trans.scores)
        np.testing.assert_array_equal(plain.encoder.embeddings, masked.encoder.embeddings)
        assert masked.mode == "mcrf-decode"

    def test_multi_seed_reports_best(self, corpus, tmp_path, capsys):
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--seeds", "2", "--out", str(tmp_path / "m.json"), *FAST_TRAIN,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 0:" in out
        assert "seed 1:" in out
        assert "best seed" in out
        assert "mean dev_f1=" in out

    def test_zero_seeds_fails_cleanly(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--seeds", "0", "--out", str(model_path), *FAST_TRAIN,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seeds" in err
        assert "Traceback" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize("mode", ["crf", "mcrf-decode", "mcrf-train"])
    @pytest.mark.parametrize("value", ["-inf", "nan"])
    def test_non_finite_mask_value_fails_cleanly(self, corpus, tmp_path, capsys, mode, value):
        model_path = tmp_path / "m.json"
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--mode", mode, f"--mask-value={value}", "--out", str(model_path), *FAST_TRAIN,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mask value must be finite" in err
        assert not model_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_fails_cleanly(self, corpus, tmp_path, capsys, value):
        model_path = tmp_path / "m.json"
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--mode", "mcrf-train", "--lr", value, "--out", str(model_path), *FAST_TRAIN,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "learning_rate must be finite" in err
        assert "Traceback" not in err
        assert not model_path.exists()

    def test_external_emissions_length_mismatch_fails_cleanly(self, corpus, tmp_path, capsys):
        tagset = build_tagset(Scheme.BIO, ["LOC", "ORG"])
        paths = {}
        for side in ("train", "dev"):
            lengths = [len(s.tokens) for s in read_conll(corpus[side], tagset)]
            if side == "dev":
                lengths[1] += 1
            paths[side] = str(tmp_path / f"{side}.logits")
            write_logits(paths[side], [np.zeros((n, tagset.size)) for n in lengths], tagset.tags)
        model_path = tmp_path / "m.json"
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--emissions", paths["train"], "--dev-emissions", paths["dev"],
            "--out", str(model_path), *FAST_TRAIN,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths['dev']}:") and ": sentence 2 has " in err
        assert "Traceback" not in err
        assert not model_path.exists()

    def test_external_emissions_route(self, corpus, tmp_path):
        tagset = build_tagset(Scheme.BIO, ["LOC", "ORG"])
        train_sents = read_conll(corpus["train"], tagset)
        dev_sents = read_conll(corpus["dev"], tagset)
        rng = np.random.default_rng(0)
        train_logits = str(tmp_path / "train.logits")
        dev_logits = str(tmp_path / "dev.logits")
        write_logits(
            train_logits,
            [rng.normal(size=(len(s.tokens), tagset.size)) for s in train_sents],
            tagset.tags,
        )
        write_logits(
            dev_logits,
            [rng.normal(size=(len(s.tokens), tagset.size)) for s in dev_sents],
            tagset.tags,
        )
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--emissions", train_logits, "--dev-emissions", dev_logits,
            "--out", str(tmp_path / "m.json"), *FAST_TRAIN,
        ])
        assert code == 0

    def test_emissions_without_dev_emissions_fails(self, corpus, tmp_path, capsys):
        code = main([
            "train", "--data", corpus["train"], "--dev", corpus["dev"],
            "--emissions", str(tmp_path / "nope.logits"),
            "--out", str(tmp_path / "m.json"), *FAST_TRAIN,
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_illegal_gold_corpus_fails(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("a\tO\nb\tI-LOC\n")
        code = main([
            "train", "--data", str(bad), "--dev", corpus["dev"],
            "--out", str(tmp_path / "m.json"), *FAST_TRAIN,
        ])
        assert code == 1
        assert "illegal gold path" in capsys.readouterr().err

    def test_defaults_are_the_configs(self, monkeypatch):
        """`mcrf train` with no settings trains TrainConfig(), and
        `mcrf gen-synth` draws from SyntheticConfig() but for its own
        sentence count; the benchmark's train-bio3 relies on both."""
        built = []

        class Stop(Exception):
            pass

        def stop(config, *rest, **kwargs):
            built.append(config)
            raise Stop

        monkeypatch.setattr(cli, "read_conll", lambda path, tagset: [])
        monkeypatch.setattr(cli, "train", lambda train_s, dev_s, config, *rest, **kw: stop(config))
        monkeypatch.setattr(cli, "generate_synthetic", stop)
        for argv in (["train", "--data", "a", "--dev", "b", "--out", "c"],
                     ["gen-synth", "--out-prefix", "x"]):
            args = cli.build_parser().parse_args(argv)
            with pytest.raises(Stop):
                args.func(args)
        assert built[0] == TrainConfig()
        assert built[1] == replace(SyntheticConfig(), sentences=200)


def bias_model(tmp_path, mode, scheme=Scheme.BIO):
    """A hand-built model whose every position prefers I-LOC: in crf mode the
    raw decode is illegal, under masking it cannot be."""
    tagset = build_tagset(scheme, ["LOC"])
    vocab = Vocabulary.from_tokens(["a", "b"])
    encoder = EncoderWeights.zeros(vocab.size, 2, tagset.size)
    encoder.bias[tagset.index_of("I-LOC")] = 1.0
    state = ModelState(
        tagset=tagset, mode=mode, mask_value=-1e4, enforce_start=True,
        trans=TransitionMatrix.zeros(tagset.size), encoder=encoder, vocab=vocab,
    )
    path = str(tmp_path / f"{mode}.json")
    save_model(path, state)
    return path, tagset


class TestPredict:
    @pytest.fixture()
    def data(self, tmp_path):
        path = tmp_path / "in.conll"
        path.write_text("a\tO\nb\tO\n\n")
        return str(path)

    def test_raw_strategy_can_emit_illegal_paths(self, data, tmp_path, capsys):
        model_path, _ = bias_model(tmp_path, "crf")
        out = tmp_path / "pred.conll"
        code = main(["predict", "--model", model_path, "--data", data,
                     "--strategy", "none", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a\tO\tI-LOC"
        assert lines[1] == "b\tO\tI-LOC"

    def test_retain_repairs_the_same_decode(self, data, tmp_path):
        model_path, _ = bias_model(tmp_path, "crf")
        out = tmp_path / "pred.conll"
        main(["predict", "--model", model_path, "--data", data,
              "--strategy", "retain", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "a\tO\tB-LOC"
        assert lines[1] == "b\tO\tI-LOC"

    def test_discard_drops_the_illegal_segment(self, data, tmp_path):
        model_path, _ = bias_model(tmp_path, "crf")
        out = tmp_path / "pred.conll"
        main(["predict", "--model", model_path, "--data", data,
              "--strategy", "discard", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "a\tO\tO"
        assert lines[1] == "b\tO\tO"

    def test_masked_model_needs_no_repair(self, data, tmp_path):
        model_path, tagset = bias_model(tmp_path, "mcrf-decode")
        out = tmp_path / "pred.conll"
        main(["predict", "--model", model_path, "--data", data,
              "--strategy", "none", "--out", str(out)])
        pred = read_conll(str(out), tagset, validate=False)
        # The prediction is the third column; re-read it explicitly.
        rows = [l.split("\t") for l in out.read_text().splitlines() if l]
        decoded = [tagset.index_of(r[2]) for r in rows]
        assert first_violation(tagset, decoded) is None
        assert decoded == [tagset.index_of("B-LOC"), tagset.index_of("I-LOC")]
        assert pred[0].tokens == ["a", "b"]

    @pytest.mark.parametrize("mode", ["crf", "mcrf-decode"])
    def test_empty_corpus_predicts_and_evaluates(self, tmp_path, capsys, mode):
        model_path, _ = bias_model(tmp_path, mode)
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        out = tmp_path / "pred.conll"
        assert main(["predict", "--model", model_path, "--data", str(empty),
                     "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert main(["eval", "--model", model_path, "--data", str(empty)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("delta", [-1, 2])
    def test_logits_of_the_wrong_length_fail_cleanly(self, tmp_path, capsys, delta):
        """Logits one token short used to crash with an IndexError and leave
        a partial file; two tokens long were silently truncated."""
        model_path, tagset = bias_model(tmp_path, "mcrf-decode")
        two = tmp_path / "two.conll"
        two.write_text("a\tO\nb\tO\n\na\tO\nb\tO\n\n")
        logits = str(tmp_path / "x.logits")
        write_logits(logits, [np.zeros((2, tagset.size)), np.zeros((2 + delta, tagset.size))],
                     tagset.tags)
        message = (f"error: {logits}:5: sentence 2 has {2 + delta} rows but the "
                   f"companion corpus sentence has 2 tokens")
        out = tmp_path / "pred.conll"
        assert main(["predict", "--model", model_path, "--data", str(two),
                     "--emissions", logits, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()
        assert main(["eval", "--model", model_path, "--data", str(two),
                     "--emissions", logits]) == 1
        assert capsys.readouterr().err.strip() == message

    def test_trained_model_round_trip(self, corpus, tmp_path):
        model_path = str(tmp_path / "model.json")
        main(["train", "--data", corpus["train"], "--dev", corpus["dev"],
              "--mode", "mcrf-train", "--out", model_path, *FAST_TRAIN])
        out = tmp_path / "pred.conll"
        code = main(["predict", "--model", model_path, "--data", corpus["test"],
                     "--out", str(out)])
        assert code == 0
        assert count_sentences(out) == count_sentences(Path(corpus["test"]))


    def test_bad_model_file_fails_cleanly(self, data, tmp_path, capsys):
        """A transition matrix too small for the tagset is an error line, not
        an IndexError traceback from the decoder."""
        model_path, _ = bias_model(tmp_path, "crf")
        doc = json.loads(Path(model_path).read_text())
        doc["transitions"] = [[0.0, 0.0], [0.0, 0.0]]
        Path(model_path).write_text(json.dumps(doc))
        code = main(["predict", "--model", model_path, "--data", data,
                     "--out", str(tmp_path / "pred.conll")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "transitions" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, shown",
        [(float("inf"), "inf"), (float("nan"), "nan"), ("2", "'2'"), (True, "True"),
         (2.0, "2.0"), (0, "0")],
    )
    def test_bad_embedding_dim_fails_cleanly(self, data, tmp_path, capsys, value, shown):
        model_path, _ = bias_model(tmp_path, "crf")  # embedding_dim 2
        doc = json.loads(Path(model_path).read_text())
        doc["encoder"]["embedding_dim"] = value
        Path(model_path).write_text(json.dumps(doc))
        assert main(["predict", "--model", model_path, "--data", data,
                     "--out", str(tmp_path / "pred.conll")]) == 1
        assert capsys.readouterr().err == (
            f"error: {model_path}: encoder.embedding_dim must be an integer >= 1, "
            f"got {shown}\n"
        )

    def test_non_string_vocabulary_entry_fails_cleanly(self, data, tmp_path, capsys):
        model_path, _ = bias_model(tmp_path, "crf")
        doc = json.loads(Path(model_path).read_text())
        doc["vocabulary"] = ["<pad>", "<unk>", 0, 5]
        Path(model_path).write_text(json.dumps(doc))
        assert main(["predict", "--model", model_path, "--data", data,
                     "--out", str(tmp_path / "pred.conll")]) == 1
        assert capsys.readouterr().err == (
            f"error: {model_path}: vocabulary must be a list of strings\n"
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: list(range(200_000)),
            lambda doc: {**doc, "format": "x" * 200_000},
            lambda doc: {**doc, "tags": list(range(200_000))},
            lambda doc: {**doc, "scheme": list(range(200_000))},
            lambda doc: {**doc, "mode": "x" * 200_000},
            lambda doc: {**doc, "entity_types": ["LOC"] * 200_000},
            lambda doc: {**doc, "enforce_start": list(range(200_000))},
            lambda doc: {**doc, "encoder": {**doc["encoder"], "embedding_dim": [0] * 200_000}},
        ],
        ids=["document", "format", "tags", "scheme", "mode", "entity_types", "enforce_start",
             "embedding_dim"],
    )
    def test_error_line_quotes_a_huge_value_in_short(self, data, tmp_path, capsys, edit):
        """A model document or field of megabytes is named by a bounded repr,
        not echoed whole into the error line."""
        model_path, _ = bias_model(tmp_path, "crf")
        doc = json.loads(Path(model_path).read_text())
        Path(model_path).write_text(json.dumps(edit(doc)))
        assert main(["predict", "--model", model_path, "--data", data,
                     "--out", str(tmp_path / "pred.conll")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: ") and err.count("\n") == 1
        assert len(err) - len(model_path) < 300

    @pytest.mark.parametrize(
        "corpus_text, logits_text",
        [
            ("X" * 200_000 + "\n", None),
            ("w\t" + "X" * 200_000 + "\n", None),
            ("a\tO\n", "d=3 " + "x" * 200_000 + "\n"),
            ("a\tO\n", "d=" + "9" * 200_000 + "\ttags=O\n"),
            ("a\tO\n", "d=" + "9" * 4_000 + "\ttags=O\n"),
            ("a\tO\n", "d=200000\ttags=" + ",".join(["O"] * 200_000) + "\n"),
            ("a\tO\n", "d={d}\ttags={tags}\n0\t" + "x" * 200_000 + "\t0\n"),
            ("a\tO\n", "d={d}\ttags={tags}\nnan\t0\t" + "0" * 200_000 + "\n"),
        ],
        ids=["one-column-row", "unknown-tag", "header", "header-width", "declared-width",
             "tag-names", "non-numeric-field", "non-finite-value"],
    )
    def test_error_line_quotes_a_huge_field_in_short(
        self, tmp_path, capsys, corpus_text, logits_text
    ):
        """The corpus and logits readers name a field of megabytes by a
        bounded repr, not echoed whole into the error line."""
        model_path, tagset = bias_model(tmp_path, "crf")
        data = tmp_path / "in.conll"
        data.write_text(corpus_text)
        argv = ["predict", "--model", model_path, "--data", str(data),
                "--out", str(tmp_path / "pred.conll")]
        bad = str(data)
        if logits_text is not None:
            bad = str(tmp_path / "x.logits")
            Path(bad).write_text(logits_text.replace("{d}", str(tagset.size), 1)
                                 .replace("{tags}", ",".join(tagset.tags), 1))
            argv += ["--emissions", bad]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:") and err.count("\n") == 1
        assert len(err) - len(bad) < 300

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mask_value", "-1e4", "mask_value must hold JSON numbers, not strings"),
            ("start", ["0", "0", "-1e4"], "start must hold JSON numbers, not strings"),
            ("bias", [10**30, "0", 0], "encoder.bias must hold JSON numbers, not strings"),
            ("start", [10**400, 0, 0],
             "invalid model file (int too large to convert to float)"),
        ],
        ids=["mask_value", "start", "bias", "401-digit-start"],
    )
    def test_string_or_overlong_model_number_fails_cleanly(
        self, data, tmp_path, capsys, field, value, message
    ):
        """np.asarray used to parse a string as a number, and a 401-digit
        integer ended in a bare OverflowError."""
        model_path, _ = bias_model(tmp_path, "crf")
        doc = json.loads(Path(model_path).read_text())
        (doc["encoder"] if field == "bias" else doc)[field] = value
        Path(model_path).write_text(json.dumps(doc))
        assert main(["predict", "--model", model_path, "--data", data,
                     "--out", str(tmp_path / "pred.conll")]) == 1
        assert capsys.readouterr().err == f"error: {model_path}: {message}\n"

    @pytest.mark.parametrize(
        "json_text, message",
        [
            ("[" * 200_000 + "]" * 200_000, "corrupted model file (JSON nested too deeply)\n"),
            ('{"embedding_dim": 1' + "0" * 4400 + "}",
             "corrupted model file (Exceeds the limit (4300 digits)"),
        ],
        ids=["deep", "long-integer"],
    )
    def test_json_python_cannot_read_fails_cleanly(
        self, data, tmp_path, capsys, json_text, message
    ):
        """Deep nesting used to end in a bare RecursionError, and an integer
        of over 4300 digits in a bare ValueError (whose wording, after the
        prefix, is Python's)."""
        model_path = tmp_path / "model.json"
        model_path.write_text(json_text)
        assert main(["predict", "--model", str(model_path), "--data", data,
                     "--out", str(tmp_path / "pred.conll")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_non_utf8_model_file_fails_cleanly(self, data, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(b'{"format":\n"\xff"}\n')
        assert main(["predict", "--model", str(model_path), "--data", data,
                     "--out", str(tmp_path / "pred.conll")]) == 1
        assert capsys.readouterr().err == f"error: {model_path}:2: not UTF-8 text (byte 0xff)\n"

    def test_non_utf8_logits_fail_cleanly(self, data, tmp_path, capsys):
        model_path, tagset = bias_model(tmp_path, "crf")
        logits = tmp_path / "x.logits"
        logits.write_bytes(f"d=3\ttags={','.join(tagset.tags)}\n0\t0\t0\n".encode() + b"\xfe\n")
        assert main(["predict", "--model", model_path, "--data", data,
                     "--emissions", str(logits), "--out", str(tmp_path / "pred.conll")]) == 1
        assert capsys.readouterr().err == f"error: {logits}:3: not UTF-8 text (byte 0xfe)\n"

    def test_rule_set_is_built_once_per_command(self, tmp_path, monkeypatch):
        """Predicting 12 sentences with a masked-training model derives the
        illegal transition set once, not once per sentence."""
        tagset = build_tagset(Scheme.BIO, ["LOC"])
        vocab = Vocabulary.from_tokens(["a", "b"])
        encoder = EncoderWeights.zeros(vocab.size, 2, tagset.size)
        trans = apply_mask(TransitionMatrix.zeros(tagset.size),
                           MaskSpec(illegal_transition_set(tagset)))
        state = ModelState(
            tagset=tagset, mode="mcrf-train", mask_value=-1e4, enforce_start=True,
            trans=trans, encoder=encoder, vocab=vocab,
        )
        model_path = str(tmp_path / "model.json")
        save_model(model_path, state)
        data = tmp_path / "in.conll"
        data.write_text("a\tO\nb\tB-LOC\n\n" * 12)

        calls = []
        original = schemes.illegal_transition_set

        def counting(ts):
            calls.append(ts)
            return original(ts)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mcrf" and getattr(module, "illegal_transition_set", None) is original:
                monkeypatch.setattr(module, "illegal_transition_set", counting)
        out = tmp_path / "pred.conll"
        assert main(["predict", "--model", model_path, "--data", str(data),
                     "--out", str(out)]) == 0
        assert count_sentences(out) == 12
        assert len(calls) == 1


class TestLongSentence:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A briefly trained BIOES mcrf-train model, and the rows of one
        1000-token sentence made of its legal training sentences."""
        tmp_path = tmp_path_factory.mktemp("long")
        prefix = str(tmp_path / "s")
        main(["gen-synth", "--sentences", "40", "--types", "2", "--scheme", "bioes",
              "--seed", "5", "--out-prefix", prefix])
        model_path = str(tmp_path / "model.json")
        assert main([
            "train", "--data", f"{prefix}_train.conll", "--dev", f"{prefix}_dev.conll",
            "--scheme", "bioes", "--types", "2", "--mode", "mcrf-train", "--lr", "0.1",
            "--batch-size", "8", "--epochs", "1", "--max-iterations", "30",
            "--eval-every", "10", "--embedding-dim", "8", "--out", model_path,
        ]) == 0
        model = load_model(model_path)
        # legal BIOES sentences concatenate into a legal sentence
        rows = [(tok, tag) for sent in read_conll(f"{prefix}_train.conll", model.tagset)
                for tok, tag in zip(sent.tokens, sent.gold)]
        rows = (rows * (1000 // len(rows) + 1))[:1000]
        return model_path, prefix, rows

    def test_thousand_tokens_decode_to_the_best_legal_path(self, trained, tmp_path):
        """At 1000 tokens the default c = -1e4 no longer clears the guard of
        a briefly trained masked model; predict and eval still decode the
        exact legal argmax: Viterbi under a mask far below every path score."""
        model_path, _, rows = trained
        model = load_model(model_path)
        tagset, spec = model.tagset, model.mask_spec
        long_path = str(tmp_path / "long.conll")
        write_conll(long_path, [LabeledSentence([t for t, _ in rows], [g for _, g in rows])], tagset)
        emissions = encode(model.vocab.lookup_all(t for t, _ in rows), model.encoder)
        assert spec.mask_value > guard_threshold([emissions], model.trans, spec)

        out = tmp_path / "pred.conll"
        assert main(["predict", "--model", model_path, "--data", long_path,
                     "--strategy", "none", "--out", str(out)]) == 0
        raw = [tagset.index_of(line.split("\t")[2]) for line in out.read_text().splitlines() if line]
        assert len(raw) == 1000
        assert first_violation(tagset, raw) is None
        deep = apply_mask(model.trans, replace(spec, mask_value=-1e12))
        assert raw == viterbi(emissions, deep)
        assert main(["eval", "--model", model_path, "--data", long_path]) == 0

    def test_mixed_corpus_decodes_each_sentence_as_it_decodes_alone(self, trained):
        """decode reads the rules, not the mask: every sentence, the short
        ones that clear the guard at c and the 1000-token one that does not,
        gets the path that the masked reference decode gives it alone."""
        model_path, prefix, rows = trained
        model = load_model(model_path)
        spec = model.mask_spec
        short = [encode(model.vocab.lookup_all(s.tokens), model.encoder)
                 for s in read_conll(f"{prefix}_dev.conll", model.tagset)]
        long = encode(model.vocab.lookup_all(t for t, _ in rows), model.encoder)
        corpus = short[:2] + [long] + short[2:]
        assert spec.mask_value > guard_threshold([long], model.trans, spec)
        assert spec.mask_value < guard_threshold(short, model.trans, spec)
        paths = decode(corpus, model.trans, spec)
        assert paths == [constrained_viterbi(e, model.trans, spec) for e in corpus]
        deep = apply_mask(model.trans, replace(spec, mask_value=-1e12))
        assert paths == [viterbi(e, deep) for e in corpus]


class TestCorpusAtOnce:
    def test_predict_and_eval_make_no_per_sentence_calls(self, tmp_path, monkeypatch):
        """On a corpus whose every gold path is legal, predict --strategy
        retain and eval --gold/--pred extract, repair and check legality once
        per corpus: no call of the one-path extract_segments, repair_tags or
        first_violation, where there used to be one per sentence."""
        model_path, _ = bias_model(tmp_path, "crf", Scheme.BIOES)
        data = tmp_path / "in.conll"
        data.write_text("a\tB-LOC\nb\tE-LOC\n\nb\tS-LOC\n\na\tO\nb\tB-LOC\na\tE-LOC\n\n" * 4)
        calls = {}
        for module_name, name in (("postproc", "extract_segments"), ("postproc", "repair_tags"),
                                  ("schemes", "first_violation")):
            original = getattr(sys.modules[f"mcrf.{module_name}"], name)
            calls[name] = 0

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module_key, module in list(sys.modules.items()):
                if module_key.split(".")[0] == "mcrf" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        pred = tmp_path / "pred.conll"
        assert main(["predict", "--model", model_path, "--data", str(data),
                     "--strategy", "retain", "--out", str(pred)]) == 0
        assert main(["eval", "--gold", str(data), "--pred", str(pred), "--scheme", "bioes",
                     "--types", "1", "--strategy", "retain"]) == 0
        assert calls == {"extract_segments": 0, "repair_tags": 0, "first_violation": 0}
        assert "B-LOC\tB-LOC\nb\tE-LOC\tE-LOC" in pred.read_text()  # the raw I-LOC path, repaired
        tagset = build_tagset(Scheme.BIO, ["LOC"])  # the counters are live
        postproc.extract_segments([0], tagset)
        postproc.repair_tags([0], tagset, "retain")
        schemes.first_violation(tagset, [0])
        assert calls == {"extract_segments": 1, "repair_tags": 1, "first_violation": 1}

    def test_eval_and_training_build_no_segment(self, tmp_path, monkeypatch):
        """eval, in both of its forms, and training's dev evaluation score
        the chunk arrays of the tag paths: none of them builds a Segment."""
        def refuse(*args):
            raise AssertionError("a Segment was built")

        monkeypatch.setattr(postproc, "Segment", refuse)
        model_path, _ = bias_model(tmp_path, "crf", Scheme.BIOES)
        data = tmp_path / "in.conll"
        data.write_text("a\tB-LOC\nb\tE-LOC\n\nb\tS-LOC\n\na\tO\nb\tB-LOC\na\tE-LOC\n\n")
        assert main(["eval", "--model", model_path, "--data", str(data),
                     "--strategy", "retain"]) == 0
        assert main(["eval", "--gold", str(data), "--pred", str(data), "--scheme", "bioes",
                     "--types", "1"]) == 0
        tagset, sentences = generate_synthetic(
            SyntheticConfig(entity_types=("PER",), sentences=12, min_length=2, max_length=7), 0
        )
        config = TrainConfig(max_epochs=0, max_iterations=2, eval_every=1, embedding_dim=4)
        _, report = training.train(sentences[:8], sentences[8:], config, tagset)
        assert len(report.records) == 2
        with pytest.raises(AssertionError, match="^a Segment was built$"):  # the guard is live
            postproc.extract_segments_batch([[1]], tagset)

    def test_two_calls_build_the_parser_once(self, tmp_path):
        data = tmp_path / "in.conll"
        data.write_text("a\tB-LOC\n\n")
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert main(["eval", "--gold", str(data), "--pred", str(data)]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestEval:
    GOLD = "w1\tO\nw2\tB-PER\nw3\tO\nw4\tB-LOC\nw5\tO\n\n"
    PRED = "w1\tO\nw2\tI-PER\nw3\tO\nw4\tB-LOC\nw5\tI-MISC\n\n"

    @pytest.fixture()
    def files(self, tmp_path):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text(self.GOLD)
        pred.write_text(self.PRED)
        return str(gold), str(pred)

    def test_perfect_predictions(self, files, tmp_path, capsys):
        gold, _ = files
        code = main(["eval", "--gold", gold, "--pred", gold, "--types", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=100.0%" in out
        assert "illegal/total=0.0%" in out

    def test_retain_scores_kept_segments(self, files, capsys):
        """Repaired PER and MISC segments stay; 2 TPs + 1 FP gives F1 = 0.8.
        The illegal statistics always describe the raw decode: 2 of 3
        predicted segments are illegal."""
        gold, pred = files
        code = main(["eval", "--gold", gold, "--pred", pred, "--types", "4",
                     "--strategy", "retain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tp=2 fp=1 fn=0" in out
        assert "f1=80.0%" in out
        assert "illegal/total=66.7%" in out

    def test_discard_drops_illegal_segments(self, files, capsys):
        gold, pred = files
        code = main(["eval", "--gold", gold, "--pred", pred, "--types", "4",
                     "--strategy", "discard"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tp=1 fp=0 fn=1" in out
        assert "f1=66.7%" in out
        assert "illegal/total=66.7%" in out

    def test_model_route(self, corpus, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        main(["train", "--data", corpus["train"], "--dev", corpus["dev"],
              "--mode", "mcrf-train", "--out", model_path, *FAST_TRAIN])
        capsys.readouterr()
        code = main(["eval", "--model", model_path, "--data", corpus["test"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=" in out
        assert "illegal/total=0.0%" in out

    def test_non_utf8_corpus_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_bytes(b"a\tO\n\nb\tO\n\xffc\tO\n\n")
        assert main(["eval", "--gold", str(bad), "--pred", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}:4: not UTF-8 text (byte 0xff)\n"

    def test_alignment_mismatch_fails(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text("a\tO\nb\tO\n\n")
        pred.write_text("a\tO\n\n")
        code = main(["eval", "--gold", str(gold), "--pred", str(pred)])
        assert code == 1
        assert "sentence 1" in capsys.readouterr().err

    def test_sentence_count_mismatch_fails(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text("a\tO\n\nb\tO\n\n")
        pred.write_text("a\tO\n\n")
        code = main(["eval", "--gold", str(gold), "--pred", str(pred)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_mixing_routes_fails(self, files, tmp_path, capsys):
        gold, pred = files
        code = main(["eval", "--gold", gold, "--pred", pred,
                     "--model", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_gold_without_pred_fails(self, files, capsys):
        gold, _ = files
        code = main(["eval", "--gold", gold])
        assert code == 1
        assert "--pred" in capsys.readouterr().err

    def test_neither_flag_pair_fails(self, capsys):
        assert main(["eval"]) == 1
        assert capsys.readouterr().err == (
            "error: eval needs --model and --data (or --gold and --pred)\n"
        )


class TestInputFiles:
    """Every input-file flag is read or refused: pointed at a missing path on
    an otherwise valid command, it ends the command with one error line."""

    FLAGS = {
        "train": ("--data", "--dev", "--emissions", "--dev-emissions"),
        "predict": ("--model", "--data", "--emissions"),
        "eval-model": ("--model", "--data", "--gold", "--pred", "--emissions"),
        "eval-gold": ("--model", "--data", "--gold", "--pred", "--emissions"),
    }

    @pytest.fixture()
    def commands(self, tmp_path):
        model, _ = bias_model(tmp_path, "crf")
        data = tmp_path / "in.conll"
        data.write_text("a\tO\nb\tB-LOC\n\n")
        data, out = str(data), str(tmp_path / "out")
        return {
            "train": ["train", "--data", data, "--dev", data, "--out", out, *FAST_TRAIN],
            "predict": ["predict", "--model", model, "--data", data, "--out", out],
            "eval-model": ["eval", "--model", model, "--data", data],
            "eval-gold": ["eval", "--gold", data, "--pred", data],
        }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_the_commands_are_valid(self, commands, command, capsys):
        assert main(commands[command]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in FLAGS.items() for f in flags])
    def test_a_missing_file_is_one_error_line(self, commands, command, flag, tmp_path, capsys):
        """--dev-emissions without --emissions, and --emissions with
        --gold/--pred, were ignored: the command ran and exited 0."""
        argv, missing = list(commands[command]), str(tmp_path / "missing")
        if flag in argv:
            argv[argv.index(flag) + 1] = missing
        else:
            argv += [flag, missing]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_the_refusals_name_the_flags(self, commands, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        for flag in ("--emissions", "--dev-emissions"):
            assert main([*commands["train"], flag, missing]) == 1
            assert capsys.readouterr().err == (
                "error: --emissions and --dev-emissions must be given together\n"
            )
        assert main([*commands["eval-gold"], "--emissions", missing]) == 1
        assert capsys.readouterr().err == (
            "error: --emissions goes with --model/--data, not --gold/--pred\n"
        )


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code = main(["verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == 8

    def test_text_lines_are_the_check_results(self, capsys):
        assert main(["verify", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        results, _ = run_verification(3)
        assert lines[:-1] == [result.line() for result in results]
        assert re.fullmatch(r"8/8 checks passed in \d+\.\ds", lines[-1])

    def test_json_lines_are_the_check_results(self, capsys):
        """One object per check, field by field its CheckResult, with the
        observed value's bits as float.hex; no timing line."""
        assert main(["verify", "--seed", "3", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        results, _ = run_verification(3)
        assert len(lines) == len(results)
        for line, result in zip(lines, results):
            record = json.loads(line)
            assert list(record) == [
                "name", "observed", "observed_hex", "threshold", "passed", "detail"
            ]
            assert record["name"] == result.name
            assert record["observed"] == result.observed
            assert record["observed_hex"] == result.observed.hex()
            assert float.fromhex(record["observed_hex"]) == result.observed
            assert record["threshold"] == result.threshold
            assert record["passed"] is result.passed
            assert record["detail"] == result.detail

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_a_failed_check_exits_1(self, flags, monkeypatch, capsys):
        failed = [CheckResult("demo", 2.0, 1.0, False, "1 instance")]
        monkeypatch.setattr(cli, "run_verification", lambda seed: (failed, 0.0))
        assert main(["verify", *flags]) == 1
        out = capsys.readouterr().out
        assert out == (failed[0].json_line() + "\n" if flags else
                       failed[0].line() + "\n0/1 checks passed in 0.0s\n")


class TestNegativeSeed:
    @pytest.mark.parametrize("command", [["gen-synth", "--out-prefix", "x"], ["verify"]])
    def test_is_an_error_line(self, command, tmp_path, monkeypatch, capsys):
        """numpy refused it with a bare traceback."""
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []


def run_module(*argv):
    """`python -m argv...` with the package's source directory on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


class TestEntryPoints:
    def test_python_dash_m_runs_the_cli(self):
        done = run_module("mcrf", "verify", "--seed", "0")
        lines = done.stdout.splitlines()
        assert sum(line.startswith("[PASS]") for line in lines) == 8
        assert lines[-1].startswith("8/8 checks passed")

    @pytest.mark.parametrize("module", ["mcrf", "mcrf.cli"])
    def test_python_dash_m_prints_what_cli_main_prints(self, module, capsys):
        """Both module entry points run cli.main: the same eight JSON lines."""
        assert main(["verify", "--seed", "0", "--json"]) == 0
        expected = capsys.readouterr().out.splitlines()
        assert len(expected) == 8
        done = run_module(module, "verify", "--seed", "0", "--json")
        assert done.stdout.splitlines() == expected

    def test_console_script_names_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"] == {"mcrf": "mcrf.cli:main"}
