"""Window-3 linear encoder, its gradients, and the external logits format."""

import tracemalloc

import numpy as np
import pytest

from oracles import central_difference, max_relative_error, row_scatter_embedding_gradient

from mcrf.encoder import (
    PAD_INDEX,
    PAD_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    EncoderWeights,
    Vocabulary,
    _encode,
    encode,
    encoder_backward,
    load_external_logits,
    window_ids,
    write_logits,
)
from mcrf.errors import FormatError


class TestVocabulary:
    def test_specials_are_fixed(self):
        vocab = Vocabulary.from_tokens(["the", "cat", "the"])
        assert vocab.tokens[:2] == (PAD_TOKEN, UNK_TOKEN)
        assert vocab.lookup(PAD_TOKEN) == PAD_INDEX
        assert vocab.lookup(UNK_TOKEN) == UNK_INDEX

    def test_first_occurrence_order_without_duplicates(self):
        vocab = Vocabulary.from_tokens(["b", "a", "b", "c", "a"])
        assert vocab.tokens == (PAD_TOKEN, UNK_TOKEN, "b", "a", "c")

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary.from_tokens(["x"])
        assert vocab.lookup("never-seen") == UNK_INDEX
        assert vocab.lookup_all(["x", "y"]) == [vocab.index["x"], UNK_INDEX]

    def test_missing_specials_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=("a", "b"))

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(tokens=(PAD_TOKEN, UNK_TOKEN, "a", "a"))


class TestEncode:
    def test_zero_weights_give_zero_logits(self):
        weights = EncoderWeights.zeros(vocab_size=5, embedding_dim=2, num_tags=3)
        np.testing.assert_array_equal(encode([2, 3, 4], weights), np.zeros((3, 3)))

    def test_bias_only_weights_give_constant_rows(self):
        weights = EncoderWeights.zeros(5, 2, 3)
        weights.bias[:] = [1.0, -2.0, 0.5]
        logits = encode([2, 2, 4, 3], weights)
        np.testing.assert_allclose(logits, np.tile([1.0, -2.0, 0.5], (4, 1)))

    def test_matches_plain_python_computation(self):
        rng = np.random.default_rng(71)
        weights = EncoderWeights.init(vocab_size=6, embedding_dim=3, num_tags=4, rng=rng)
        ids = [2, 5, 3]
        logits = encode(ids, weights)
        padded = [PAD_INDEX] + ids + [PAD_INDEX]
        for t in range(3):
            window = np.concatenate(
                [weights.embeddings[padded[t + k]] for k in range(3)]
            )
            expected = window @ weights.projection + weights.bias
            np.testing.assert_allclose(logits[t], expected, atol=1e-12)

    def test_edge_positions_use_padding_row(self):
        rng = np.random.default_rng(73)
        weights = EncoderWeights.init(6, 2, 3, rng)
        weights.embeddings[PAD_INDEX] = 0.0
        single = encode([4], weights)
        expected = (
            np.concatenate(
                [np.zeros(2), weights.embeddings[4], np.zeros(2)]
            )
            @ weights.projection
            + weights.bias
        )
        np.testing.assert_allclose(single[0], expected, atol=1e-12)

    def test_perturbing_one_token_only_moves_its_window(self):
        rng = np.random.default_rng(79)
        weights = EncoderWeights.init(8, 2, 3, rng)
        ids = [2, 3, 4, 5, 6]
        base = encode(ids, weights)
        weights.embeddings[4] += 1.0
        moved = encode(ids, weights)
        diff = np.abs(moved - base).max(axis=1)
        assert np.all(diff[1:4] > 0)
        assert diff[0] == 0.0 and diff[4] == 0.0

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            encode([], EncoderWeights.zeros(4, 2, 3))

    def test_token_id_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode([4], EncoderWeights.zeros(4, 2, 3))

    @pytest.mark.parametrize("bad", [-1, 5, 7])
    def test_both_directions_refuse_a_bad_id_in_ids_or_windows(self, bad):
        """A negative id would wrap to the last embedding row, and one past
        the table would end in numpy's IndexError."""
        weights = EncoderWeights.zeros(5, 2, 3)
        for ids in ([bad, 2], window_ids([2, bad])):
            with pytest.raises(ValueError, match=f"token id {bad} out of range"):
                encode(ids, weights)
            with pytest.raises(ValueError, match=f"token id {bad} out of range"):
                encoder_backward(ids, np.zeros((2, 3)), weights)

    @pytest.mark.parametrize("ids", [[1.5, 2.0], [True, False]])
    def test_non_integer_ids_rejected(self, ids):
        """A float id would be truncated to a row index."""
        with pytest.raises(ValueError, match="integer sequence"):
            encode(ids, EncoderWeights.zeros(5, 2, 3))

    @pytest.mark.parametrize("windows", [[[0.0, 2.7, 0.0]], [[False, True, False]]])
    def test_non_integer_windows_rejected(self, windows):
        """A float window would be truncated: [0, 2.7, 0] read row 2."""
        weights = EncoderWeights.zeros(5, 2, 3)
        with pytest.raises(ValueError, match="window ids must be integers"):
            encode(np.array(windows), weights)
        with pytest.raises(ValueError, match="window ids must be integers"):
            encoder_backward(np.array(windows), np.zeros((1, 3)), weights)

    def test_init_uses_given_generator(self):
        a = EncoderWeights.init(5, 2, 3, np.random.default_rng(123))
        b = EncoderWeights.init(5, 2, 3, np.random.default_rng(123))
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        np.testing.assert_array_equal(a.projection, b.projection)
        assert np.all(np.abs(a.embeddings) <= 0.1)


class TestEncoderBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(83)
        weights = EncoderWeights.init(vocab_size=6, embedding_dim=2, num_tags=3, rng=rng)
        ids = [2, 4, 5, 2]
        target = rng.normal(size=(4, 3))

        def loss():
            return float(np.sum((encode(ids, weights) - target) ** 2))

        d_logits = 2.0 * (encode(ids, weights) - target)
        grads = encoder_backward(ids, d_logits, weights)
        for analytic, arr in (
            (grads.embeddings, weights.embeddings),
            (grads.projection, weights.projection),
            (grads.bias, weights.bias),
        ):
            fd = central_difference(loss, arr)
            assert max_relative_error(analytic, fd) < 1e-6

    def test_zero_upstream_gradient_gives_zero_everywhere(self):
        weights = EncoderWeights.init(5, 2, 3, np.random.default_rng(89))
        grads = encoder_backward([2, 3], np.zeros((2, 3)), weights)
        assert not grads.embeddings.any()
        assert not grads.projection.any()
        assert not grads.bias.any()

    def test_absent_tokens_get_zero_embedding_gradient(self):
        rng = np.random.default_rng(97)
        weights = EncoderWeights.init(8, 2, 3, rng)
        grads = encoder_backward([2, 3], rng.normal(size=(2, 3)), weights)
        for row in (5, 6, 7):
            assert not grads.embeddings[row].any()
        assert grads.embeddings[2].any()

    def test_repeated_token_accumulates(self):
        """A token appearing twice must receive the sum of both windows."""
        rng = np.random.default_rng(101)
        weights = EncoderWeights.init(6, 2, 3, rng)
        d_logits = rng.normal(size=(3, 3))
        grads = encoder_backward([2, 3, 2], d_logits, weights)

        def loss():
            return float(np.sum(encode([2, 3, 2], weights) * d_logits))

        fd = central_difference(loss, weights.embeddings)
        assert max_relative_error(grads.embeddings, fd) < 1e-6

    def test_flat_scatter_matches_row_scatter_byte_for_byte(self):
        """A batch of concatenated windows with repeated ids, so many windows
        add into the same rows, in the same order as a row scatter."""
        rng = np.random.default_rng(7)
        weights = EncoderWeights.init(12, 5, 4, rng)
        sentences = [[2, 3, 2, 2], [11], [3, 3, 9, 2, 0], [4, 11, 4]]
        windows = np.concatenate([window_ids(ids) for ids in sentences])
        d_logits = rng.normal(size=(len(windows), 4))
        got = encoder_backward(windows, d_logits, weights).embeddings
        want = row_scatter_embedding_gradient(windows, d_logits, weights)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_tags", [3, 7, 41])
    @pytest.mark.parametrize("dim", [1, 32, 64])
    def test_gradients_match_whole_products_byte_for_byte(self, num_tags, dim):
        """BLAS blocks a product by its shape, so a product split by window
        slot can move the last bits; across these shapes every gradient must
        equal the whole products and the row scatter exactly."""
        rng = np.random.default_rng(num_tags * 100 + dim)
        weights = EncoderWeights.init(60, dim, num_tags, rng)
        for n in (8, 120, 460, 800):
            windows = rng.integers(0, 60, size=(n, 3))
            d_logits = rng.normal(size=(n, num_tags))
            got = encoder_backward(windows, d_logits, weights)
            x = weights.embeddings[windows].reshape(n, -1)
            want_embeddings = row_scatter_embedding_gradient(windows, d_logits, weights)
            assert got.projection.tobytes() == (x.T @ d_logits).tobytes()
            assert got.bias.tobytes() == d_logits.sum(0).tobytes()
            assert got.embeddings.tobytes() == want_embeddings.tobytes()

    def test_peak_memory_of_a_training_batch(self):
        """One backward pass over a 32-sentence batch holds at most about two
        (N, 3e) arrays at once: the gathered windows are freed before d_x is
        formed, and the scatter goes one window slot at a time."""
        rng = np.random.default_rng(17)
        weights = EncoderWeights.init(100, 32, 7, rng)
        windows = np.concatenate(
            [window_ids(rng.integers(2, 100, size=int(rng.integers(5, 16)))) for _ in range(32)]
        )
        d_logits = rng.normal(size=(len(windows), 7))
        tracemalloc.start()
        try:
            encoder_backward(windows, d_logits, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(windows) * 3 * 32 * 8

    def test_shape_mismatch_rejected(self):
        weights = EncoderWeights.zeros(5, 2, 3)
        with pytest.raises(ValueError):
            encoder_backward([2, 3], np.zeros((3, 3)), weights)


class TestWindowBatch:
    def test_window_ids_pad_each_sentence_on_its_own(self):
        np.testing.assert_array_equal(window_ids([2, 3, 4]), [[0, 2, 3], [2, 3, 4], [3, 4, 0]])
        np.testing.assert_array_equal(window_ids([5]), [[PAD_INDEX, 5, PAD_INDEX]])
        assert window_ids([5]).dtype == np.intp

    def test_ids_and_their_windows_encode_byte_for_byte_alike(self):
        enc = EncoderWeights.init(9, 4, 5, np.random.default_rng(5))
        for ids in ([2, 3, 4], [5], [0, 8, 1, 6, 8]):
            assert encode(ids, enc).tobytes() == encode(window_ids(ids), enc).tobytes()

    def test_concatenated_windows_encode_and_backpropagate_like_each_alone(self):
        rng = np.random.default_rng(3)
        enc = EncoderWeights.init(9, 4, 5, rng)
        id_lists = [[2, 3, 4], [5], [0, 8, 1, 6], [7, 7]]
        windows = np.concatenate([window_ids(ids) for ids in id_lists])
        assert len(windows) == sum(map(len, id_lists))
        logits = encode(windows, enc)
        total = EncoderWeights.zeros(9, 4, 5)
        d_logits = rng.normal(size=logits.shape)
        lo = 0
        for seq in id_lists:
            rows = slice(lo, lo + len(seq))
            lo = rows.stop
            np.testing.assert_allclose(logits[rows], encode(seq, enc), rtol=0, atol=1e-15)
            one = encoder_backward(seq, d_logits[rows], enc)
            total.embeddings += one.embeddings
            total.projection += one.projection
            total.bias += one.bias
        batch = encoder_backward(windows, d_logits, enc)
        for got, want in zip(vars(batch).values(), vars(total).values()):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestStackedEncode:
    @pytest.mark.parametrize("V, e, d, N", [(7, 3, 3, 4), (98, 32, 7, 319), (60, 8, 41, 25)])
    def test_each_slice_has_the_bits_of_encode_under_its_weight_set(self, V, e, d, N):
        """_encode over weight sets stacked along one class gives, slice by
        slice, the float.hex of encode under that set: at verify's shape, at
        a training batch's (319 tokens, e = 32, d = 7) and at d = 41."""
        rng = np.random.default_rng(d)
        weights = EncoderWeights.init(V, e, d, rng)
        ids = rng.integers(0, V, size=N)
        for name in ("embeddings", "projection", "bias"):
            base = getattr(weights, name)
            stack = base + rng.normal(scale=1e-3, size=(6, *base.shape))
            logits = _encode(window_ids(ids), **{**vars(weights), name: stack})
            assert logits.shape == (6, N, d)
            for one, got in zip(stack, logits):
                alone = encode(ids, EncoderWeights(**{**vars(weights), name: one}))
                assert list(map(float.hex, got.ravel().tolist())) == list(
                    map(float.hex, alone.ravel().tolist()))


class TestWeightsValidation:
    def test_projection_width_must_be_three_embeddings(self):
        with pytest.raises(ValueError):
            EncoderWeights(np.zeros((4, 2)), np.zeros((5, 3)), np.zeros(3))

    def test_bias_must_match_output_width(self):
        with pytest.raises(ValueError):
            EncoderWeights(np.zeros((4, 2)), np.zeros((6, 3)), np.zeros(4))


class TestLogitsFile:
    TAGS = ("O", "B-PER", "I-PER")

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(103)
        sequences = [rng.normal(size=(3, 3)), rng.normal(size=(5, 3))]
        path = str(tmp_path / "logits.tsv")
        write_logits(path, sequences, self.TAGS)
        loaded = load_external_logits(path, tags=self.TAGS, lengths=[3, 5])
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded[0], sequences[0])
        np.testing.assert_array_equal(loaded[1], sequences[1])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\n1.0\t2.0\t3.0\n")
        with pytest.raises(FormatError) as err:
            load_external_logits(str(path), self.TAGS, [1])
        assert ":1:" in str(err.value)

    def test_tag_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "logits.tsv")
        write_logits(path, [np.zeros((1, 3))], self.TAGS)
        with pytest.raises(FormatError):
            load_external_logits(path, ("O", "B-LOC", "I-LOC"), [1])

    def test_header_width_must_match_tag_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d=2\ttags=O,B-PER,I-PER\n")
        with pytest.raises(FormatError) as err:
            load_external_logits(str(path), self.TAGS, [])
        assert "d=2" in str(err.value)

    def test_row_width_error_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d=3\ttags=O,B-PER,I-PER\n0.0\t0.0\t0.0\n0.0\t0.0\n")
        with pytest.raises(FormatError) as err:
            load_external_logits(str(path), self.TAGS, [2])
        assert ":3:" in str(err.value)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d=3\ttags=O,B-PER,I-PER\n0.0\tabc\t0.0\n")
        with pytest.raises(FormatError) as err:
            load_external_logits(str(path), self.TAGS, [1])
        assert ":2:" in str(err.value)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d=3\ttags=O,B-PER,I-PER\n0.0\tnan\t0.0\n")
        with pytest.raises(FormatError):
            load_external_logits(str(path), self.TAGS, [1])

    def test_sentence_count_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "logits.tsv")
        write_logits(path, [np.zeros((2, 3))], self.TAGS)
        with pytest.raises(FormatError) as err:
            load_external_logits(str(path), self.TAGS, [2, 2, 2])
        assert "3" in str(err.value)

    def test_sentence_length_mismatch_names_file_line_and_sentence(self, tmp_path):
        path = str(tmp_path / "logits.tsv")
        write_logits(path, [np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((1, 3))], self.TAGS)
        assert len(load_external_logits(path, self.TAGS, [2, 3, 1])) == 3
        for lengths in ([2, 4, 1], [2, 2, 1]):
            with pytest.raises(FormatError) as err:
                load_external_logits(path, self.TAGS, lengths)
            assert str(err.value) == (
                f"{path}:5: sentence 2 has 3 rows but the companion corpus "
                f"sentence has {lengths[1]} tokens"
            )

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (1, 4)])
    def test_a_sequence_of_the_wrong_shape_is_not_written(self, tmp_path, shape):
        path = str(tmp_path / "logits.tsv")
        with pytest.raises(ValueError) as err:
            write_logits(path, [np.zeros((2, 3)), np.zeros(shape)], self.TAGS)
        assert str(err.value) == f"sequence 1 has shape {shape}, expected (T, 3)"

    def test_missing_trailing_blank_line_tolerated(self, tmp_path):
        path = tmp_path / "logits.tsv"
        path.write_text("d=2\ttags=O,B-X\n1.0\t2.0\n3.0\t4.0")
        loaded = load_external_logits(str(path), ("O", "B-X"), [2])
        assert len(loaded) == 1
        np.testing.assert_array_equal(loaded[0], [[1.0, 2.0], [3.0, 4.0]])
