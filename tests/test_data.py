"""Corpus reading and writing, model persistence, synthetic generation."""

import json
import re

import numpy as np
import pytest

from mcrf.crf import TransitionMatrix
from mcrf.data import (
    LabeledSentence,
    ModelState,
    SyntheticConfig,
    generate_synthetic,
    load_model,
    read_conll,
    save_model,
    split_corpus,
    write_conll,
)
from mcrf.encoder import EncoderWeights, Vocabulary, load_external_logits
from mcrf.errors import ConfigurationError, DataError, FormatError, read_blocks
from mcrf.masking import MaskSpec, apply_mask
from mcrf.schemes import Scheme, build_tagset, first_violation, illegal_transition_set

BIO1 = build_tagset(Scheme.BIO, ["PER"])
BIO2 = build_tagset(Scheme.BIO, ["LOC", "PER"])
BIO3 = build_tagset(Scheme.BIO, ["LOC", "ORG", "PER"])


class TestReadConll:
    def test_two_sentences(self, tmp_path):
        path = tmp_path / "corpus.conll"
        path.write_text("John\tB-PER\nSmith\tI-PER\n\nhello\tO\n")
        sentences = read_conll(str(path), BIO1)
        assert len(sentences) == 2
        assert sentences[0].tokens == ["John", "Smith"]
        assert sentences[0].gold == [BIO1.index_of("B-PER"), BIO1.index_of("I-PER")]
        assert sentences[1].tokens == ["hello"]

    def test_tag_taken_from_last_column(self, tmp_path):
        """Extra middle columns (POS, chunk) are ignored."""
        path = tmp_path / "corpus.conll"
        path.write_text("John NNP B-NP B-PER\n\n")
        sentences = read_conll(str(path), BIO1)
        assert sentences[0].gold == [BIO1.index_of("B-PER")]

    def test_crlf_and_trailing_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.conll"
        path.write_bytes(b"a\tO\r\nb\tO\r\n\r\n\r\n")
        sentences = read_conll(str(path), BIO1)
        assert len(sentences) == 1
        assert sentences[0].tokens == ["a", "b"]

    def test_missing_final_blank_line(self, tmp_path):
        path = tmp_path / "corpus.conll"
        path.write_text("a\tO\nb\tO")
        assert len(read_conll(str(path), BIO1)) == 1

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("")
        assert read_conll(str(path), BIO1) == []

    def test_single_column_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("a\tO\njusttoken\n")
        with pytest.raises(FormatError) as err:
            read_conll(str(path), BIO1)
        assert ":2:" in str(err.value)

    def test_unknown_tag_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("a\tO\nb\tB-ORG\n")
        with pytest.raises(FormatError) as err:
            read_conll(str(path), BIO1)
        assert ":2:" in str(err.value)
        assert "B-ORG" in str(err.value)

    def test_illegal_gold_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("ok\tO\n\na\tO\nb\tI-PER\n")
        with pytest.raises(DataError) as err:
            read_conll(str(path), BIO1)
        msg = str(err.value)
        assert ":4:" in msg
        assert "sentence 2" in msg
        assert "position 2" in msg

    def test_illegal_start_rejected(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("a\tI-PER\n")
        with pytest.raises(DataError):
            read_conll(str(path), BIO1)

    def test_validate_false_admits_illegal_paths(self, tmp_path):
        path = tmp_path / "pred.conll"
        path.write_text("a\tO\nb\tI-PER\n")
        sentences = read_conll(str(path), BIO1, validate=False)
        assert sentences[0].gold == [0, BIO1.index_of("I-PER")]


class TestReadBlocks:
    """The one block splitter under corpora and logits files."""

    def test_blocks_and_their_first_lines(self, tmp_path):
        """Separators of spaces, tabs or a form feed; "\\n", "\\r\\n" and
        lone "\\r" line ends; leading blank lines; no final newline."""
        path = tmp_path / "blocks.txt"
        path.write_bytes(b"\n \r\na\r\nb c\rd\n\t\n\r\ne \n \t\x0c\r\n\rf\tg")
        assert list(read_blocks(str(path))) == [
            (3, ["a", "b c", "d"]), (8, ["e "]), (11, ["f\tg"]),
        ]

    def test_empty_and_blank_files_have_no_blocks(self, tmp_path):
        path = tmp_path / "blank.txt"
        for data in (b"", b"\n", b" \r\n\t", b"\r\r"):
            path.write_bytes(data)
            assert list(read_blocks(str(path))) == []

    def test_non_utf8_byte_is_named_on_its_line(self, tmp_path):
        """A lone "\\r" ends a line for read_blocks, so it does for the
        UTF-8 error too."""
        path = tmp_path / "corpus.conll"
        path.write_bytes(b"a\tO\rb\tO\r\n\xff\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: not UTF-8"):
            read_conll(str(path), BIO1)

    def test_corpus_and_logits_split_at_the_same_lines(self, tmp_path):
        """Line 1 is the logits header and blank in the corpus; after it,
        logits row k sits on the line of corpus token k, between the same
        separator lines."""
        lengths, separators = [2, 1, 3, 1], [" ", "\t", "", " \t\x0c"]
        lines, firsts = [""], []
        for n, sep in zip(lengths, separators):
            firsts.append(len(lines) + 1)
            lines += ["x\tO"] * n + [sep]
        # an empty line after a lone "\r" must end in "\r\n": "\r\n" is one line end
        ends = ["\n", "\r\n", "\r"]
        text = "".join(line + (ends[i % 3] if line else "\r\n") for i, line in enumerate(lines))
        corpus, logits = tmp_path / "c.conll", tmp_path / "c.logits"
        corpus.write_text(text, newline="")
        logits.write_text("d=1\ttags=O" + text.replace("x\tO", "0.5"), newline="")
        assert [first for first, _ in read_blocks(str(corpus))] == firsts
        assert [len(s.tokens) for s in read_conll(str(corpus), BIO1)] == lengths
        assert [len(seq) for seq in load_external_logits(str(logits), ("O",), lengths)] == lengths
        for k, first in enumerate(firsts):
            wrong = lengths[:k] + [lengths[k] + 1] + lengths[k + 1:]
            with pytest.raises(FormatError, match=f"{logits}:{first}: sentence {k + 1} has"):
                load_external_logits(str(logits), ("O",), wrong)
        corpus.write_text(text.replace("x\tO", "x\tI-PER", 1), newline="")
        with pytest.raises(DataError, match=f"{corpus}:{firsts[0]}: sentence 1"):
            read_conll(str(corpus), BIO1)

    def test_byte_order_mark_is_not_part_of_the_text(self, tmp_path):
        """A file saved with a BOM reads as it would without one: the BOM is
        neither glued to the first token nor in front of the logits header."""
        corpus, logits = tmp_path / "bom.conll", tmp_path / "bom.logits"
        corpus.write_bytes(b"\xef\xbb\xbfParis\tB-PER\nx\tO\n")
        assert read_conll(str(corpus), BIO1)[0].tokens == ["Paris", "x"]
        logits.write_bytes(b"\xef\xbb\xbfd=1\ttags=O\n0.5\n0.25\n")
        (seq,) = load_external_logits(str(logits), ("O",), [2])
        assert seq.tolist() == [[0.5], [0.25]]

    def test_non_utf8_byte_after_a_byte_order_mark_is_named_on_its_line(self, tmp_path):
        path = tmp_path / "bom.conll"
        path.write_bytes(b"\xef\xbb\xbfParis\tB-PER\nx\tO\n\xff\n")
        with pytest.raises(FormatError) as err:
            read_conll(str(path), BIO1)
        assert str(err.value) == f"{path}:3: not UTF-8 text (byte 0xff)"


class TestWriteConll:
    def test_round_trip(self, tmp_path):
        sentences = [
            LabeledSentence(["John", "Smith"], [BIO1.index_of("B-PER"), BIO1.index_of("I-PER")]),
            LabeledSentence(["x"], [0]),
        ]
        path = str(tmp_path / "out.conll")
        write_conll(path, sentences, BIO1)
        back = read_conll(path, BIO1)
        assert [s.tokens for s in back] == [s.tokens for s in sentences]
        assert [s.gold for s in back] == [s.gold for s in sentences]

    def test_prediction_column(self, tmp_path):
        sentences = [LabeledSentence(["a", "b"], [0, 0])]
        preds = [[BIO1.index_of("B-PER"), BIO1.index_of("I-PER")]]
        path = tmp_path / "out.conll"
        write_conll(str(path), sentences, BIO1, predictions=preds)
        lines = path.read_text().splitlines()
        assert lines[0] == "a\tO\tB-PER"
        assert lines[1] == "b\tO\tI-PER"

    def test_misaligned_predictions_rejected(self, tmp_path):
        sentences = [LabeledSentence(["a"], [0])]
        with pytest.raises(ValueError):
            write_conll(str(tmp_path / "out.conll"), sentences, BIO1, predictions=[[0], [0]])


class TestLabeledSentence:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabeledSentence(["a", "b"], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LabeledSentence([], [])


def small_state(mode="crf"):
    rng = np.random.default_rng(42)
    trans = TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3))
    if mode == "mcrf-train":
        trans = apply_mask(trans, MaskSpec(illegal_transition_set(BIO1)))
    return ModelState(
        tagset=BIO1,
        mode=mode,
        mask_value=-1e4,
        enforce_start=True,
        trans=trans,
        encoder=EncoderWeights.init(5, 2, 3, rng),
        vocab=Vocabulary.from_tokens(["a", "b", "c"]),
    )


class TestModelPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        state = small_state()
        path = str(tmp_path / "model.json")
        save_model(path, state)
        loaded = load_model(path)
        assert loaded.tagset == state.tagset
        assert loaded.mode == state.mode
        assert loaded.mask_value == state.mask_value
        assert loaded.enforce_start == state.enforce_start
        np.testing.assert_array_equal(loaded.trans.scores, state.trans.scores)
        np.testing.assert_array_equal(loaded.trans.start, state.trans.start)
        np.testing.assert_array_equal(loaded.encoder.embeddings, state.encoder.embeddings)
        np.testing.assert_array_equal(loaded.encoder.projection, state.encoder.projection)
        np.testing.assert_array_equal(loaded.encoder.bias, state.encoder.bias)
        assert loaded.vocab.tokens == state.vocab.tokens

    def test_masked_entries_survive_round_trip(self, tmp_path):
        state = small_state(mode="mcrf-train")
        path = str(tmp_path / "model.json")
        save_model(path, state)
        loaded = load_model(path)
        i_per = BIO1.index_of("I-PER")
        assert loaded.trans.scores[0, i_per] == -1e4
        assert loaded.trans.start[i_per] == -1e4

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other-v9"}\n')
        with pytest.raises(FormatError) as err:
            load_model(str(path))
        assert "other-v9" in str(err.value)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "mcrf-model-v1", ')
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_missing_field_rejected(self, tmp_path):
        state = small_state()
        path = tmp_path / "model.json"
        save_model(str(path), state)
        import json

        doc = json.loads(path.read_text())
        del doc["transitions"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(str(path))

    @staticmethod
    def _edited(tmp_path, state, edit):
        """Save state, apply edit to the JSON document, return the path."""
        path = tmp_path / "model.json"
        save_model(str(path), state)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return str(path)

    def test_transition_shape_checked_against_tagset(self, tmp_path):
        """A 5x5 matrix for a 7-tag BIO set is refused at load time."""
        rng = np.random.default_rng(0)
        state = ModelState(
            tagset=BIO3, mode="crf", mask_value=-1e4, enforce_start=True,
            trans=TransitionMatrix.zeros(7), encoder=EncoderWeights.init(4, 2, 7, rng),
            vocab=Vocabulary.from_tokens(["a", "b"]),
        )

        def shrink(doc):
            doc["transitions"] = np.zeros((5, 5)).tolist()

        with pytest.raises(FormatError, match="transitions"):
            load_model(self._edited(tmp_path, state, shrink))

    def test_encoder_shapes_checked_against_vocabulary_and_dim(self, tmp_path):
        def drop_row(doc):
            doc["encoder"]["embeddings"].pop()

        def wrong_dim(doc):
            doc["encoder"]["embedding_dim"] = 3

        with pytest.raises(FormatError, match="encoder.embeddings"):
            load_model(self._edited(tmp_path, small_state(), drop_row))
        with pytest.raises(FormatError, match="encoder"):
            load_model(self._edited(tmp_path, small_state(), wrong_dim))

    def test_non_finite_value_rejected(self, tmp_path):
        def poison(doc):
            doc["transitions"][1][1] = float("nan")

        with pytest.raises(FormatError, match="transitions.*non-finite"):
            load_model(self._edited(tmp_path, small_state(), poison))

    def test_edited_masked_entry_rejected_in_masked_training_mode(self, tmp_path):
        i_per = BIO1.index_of("I-PER")

        def edit(doc):
            doc["transitions"][0][i_per] = 0.5

        with pytest.raises(FormatError, match="transitions.*mask_value"):
            load_model(self._edited(tmp_path, small_state(mode="mcrf-train"), edit))
        # the same entry is an ordinary weight in the other modes
        loaded = load_model(self._edited(tmp_path, small_state(mode="mcrf-decode"), edit))
        assert loaded.trans.scores[0, i_per] == 0.5

    def test_edited_masked_start_rejected_in_masked_training_mode(self, tmp_path):
        def edit(doc):
            doc["start"][BIO1.index_of("I-PER")] = -1e4 + 1e-9

        with pytest.raises(FormatError, match="start"):
            load_model(self._edited(tmp_path, small_state(mode="mcrf-train"), edit))

    def test_unusable_mask_value_rejected_naming_the_file(self, tmp_path):
        """A masked model file whose mask value the decoder would refuse fails
        at load time, naming the file; crf mode never reads the value."""

        def edit(doc):
            doc["mask_value"] = 5.0

        for mode in ("mcrf-decode", "mcrf-train"):
            path = self._edited(tmp_path, small_state(mode=mode), edit)
            with pytest.raises(FormatError, match=f"{re.escape(path)}: .*mask value"):
                load_model(path)
        assert load_model(self._edited(tmp_path, small_state(), edit)).mask_value == 5.0

        def unknown_mode(doc):
            doc["mode"] = "bogus"

        path = self._edited(tmp_path, small_state(), unknown_mode)
        with pytest.raises(FormatError, match=f"{re.escape(path)}: .*unknown mode"):
            load_model(path)

    def test_enforce_start_must_be_a_json_boolean(self, tmp_path):
        """The string "false" is truthy; it must not load as start enforcement on."""
        for value in ("false", 0, None):

            def edit(doc):
                doc["enforce_start"] = value

            with pytest.raises(FormatError, match="enforce_start"):
                load_model(self._edited(tmp_path, small_state(), edit))

        def switch_off(doc):
            doc["enforce_start"] = False

        assert load_model(self._edited(tmp_path, small_state(), switch_off)).enforce_start is False

    def test_model_file_with_a_byte_order_mark_loads(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(str(path), small_state())
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_model(str(path)).vocab.tokens == small_state().vocab.tokens

    def test_vocabulary_must_be_a_list_of_strings(self, tmp_path):
        for value in (["<pad>", "<unk>", 0, 5], {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3, "c": 4}):

            def edit(doc):
                doc["vocabulary"] = value

            path = self._edited(tmp_path, small_state(), edit)
            with pytest.raises(FormatError, match=f"^{re.escape(path)}: vocabulary must be"):
                load_model(path)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            small_state(mode="bogus")


class TestSynthetic:
    def test_same_seed_same_corpus(self):
        config = SyntheticConfig(sentences=30)
        ts1, first = generate_synthetic(config, seed=7)
        ts2, second = generate_synthetic(config, seed=7)
        assert ts1 == ts2
        assert [s.tokens for s in first] == [s.tokens for s in second]
        assert [s.gold for s in first] == [s.gold for s in second]

    def test_different_seeds_differ(self):
        config = SyntheticConfig(sentences=30)
        _, first = generate_synthetic(config, seed=7)
        _, second = generate_synthetic(config, seed=8)
        assert [s.tokens for s in first] != [s.tokens for s in second]

    def test_all_gold_paths_legal_both_schemes(self):
        for scheme in (Scheme.BIO, Scheme.BIOES):
            config = SyntheticConfig(scheme=scheme, sentences=50, noise_rate=0.1)
            tagset, sentences = generate_synthetic(config, seed=3)
            for s in sentences:
                assert first_violation(tagset, s.gold) is None

    def test_zero_density_gives_all_outside(self):
        config = SyntheticConfig(sentences=20, entity_density=0.0)
        tagset, sentences = generate_synthetic(config, seed=1)
        for s in sentences:
            assert all(g == tagset.index_of("O") for g in s.gold)

    def test_lengths_respect_bounds(self):
        config = SyntheticConfig(sentences=40, min_length=4, max_length=9)
        _, sentences = generate_synthetic(config, seed=2)
        assert all(4 <= len(s.tokens) <= 9 for s in sentences)
        assert len(sentences) == 40

    def test_entities_present_at_default_density(self):
        config = SyntheticConfig(sentences=40)
        tagset, sentences = generate_synthetic(config, seed=5)
        entity_positions = sum(
            sum(1 for g in s.gold if g != tagset.index_of("O")) for s in sentences
        )
        assert entity_positions > 0

    def test_round_trips_through_conll(self, tmp_path):
        config = SyntheticConfig(sentences=15)
        tagset, sentences = generate_synthetic(config, seed=11)
        path = str(tmp_path / "synth.conll")
        write_conll(path, sentences, tagset)
        back = read_conll(path, tagset)
        assert [s.gold for s in back] == [s.gold for s in sentences]

    def test_negative_seed_rejected(self):
        """numpy's generators end in a bare ValueError traceback on it."""
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            generate_synthetic(SyntheticConfig(sentences=3), seed=-1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticConfig(min_length=5, max_length=4)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(entity_density=1.5)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(sentences=0)


class TestSplitCorpus:
    def _corpus(self, n):
        return [LabeledSentence([f"t{i}"], [0]) for i in range(n)]

    def test_sizes(self):
        train, dev = split_corpus(self._corpus(100), dev_fraction=0.1, seed=0)
        assert len(train) == 90
        assert len(dev) == 10

    def test_partition_is_exact(self):
        corpus = self._corpus(20)
        train, dev = split_corpus(corpus, dev_fraction=0.25, seed=3)
        seen = sorted(s.tokens[0] for s in train + dev)
        assert seen == sorted(s.tokens[0] for s in corpus)

    def test_deterministic(self):
        corpus = self._corpus(30)
        a = split_corpus(corpus, 0.2, seed=9)
        b = split_corpus(corpus, 0.2, seed=9)
        assert [s.tokens for s in a[0]] == [s.tokens for s in b[0]]

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            split_corpus(self._corpus(10), 0.2, seed=-1)

    def test_dev_never_empty_or_full(self):
        train, dev = split_corpus(self._corpus(3), dev_fraction=0.01, seed=0)
        assert len(dev) == 1 and len(train) == 2
        train, dev = split_corpus(self._corpus(3), dev_fraction=0.99, seed=0)
        assert len(train) >= 1

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            split_corpus(self._corpus(5), 0.0, seed=0)
        with pytest.raises(ConfigurationError):
            split_corpus(self._corpus(5), 1.0, seed=0)
