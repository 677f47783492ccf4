"""Adam optimizer, training loop, mode semantics, and report format."""

import numpy as np
import pytest

from mcrf import training
from mcrf.crf import loss_and_gradients, nll_loss
from mcrf.data import LabeledSentence, SyntheticConfig, generate_synthetic, split_corpus
from mcrf.encoder import Vocabulary, encode
from mcrf.errors import ConfigurationError, DataError, TrainingError
from mcrf.masking import MaskSpec
from mcrf.schemes import Scheme, build_tagset, first_violation, illegal_transition_set
from mcrf.training import (
    EvalRecord,
    OptimizerState,
    TrainConfig,
    TrainReport,
    adam_step,
    initialize,
    train,
)

BIO1 = build_tagset(Scheme.BIO, ["PER"])


def tiny_corpus(seed=0, sentences=24):
    config = SyntheticConfig(
        entity_types=("PER",), sentences=sentences, min_length=3, max_length=6,
        vocab_size=12, tokens_per_type=4,
    )
    tagset, sents = generate_synthetic(config, seed=seed)
    return tagset, split_corpus(sents, dev_fraction=0.25, seed=seed)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(mode="fancy")
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=-1e-3)
        with pytest.raises(ConfigurationError):
            TrainConfig(eval_every=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(embedding_dim=0)
        # numpy's generator refused it inside train(), in a bare ValueError
        with pytest.raises(ConfigurationError, match=r"^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("max_iterations", 2.5), ("embedding_dim", 2.5), ("seed", 1.5),
        ("batch_size", "4"), ("max_epochs", 1.5), ("eval_every", 1.5), ("batch_size", True),
        ("seed", np.float64(3.0)), ("max_epochs", None),
    ])
    def test_non_integer_count_rejected(self, field, value):
        """These once ended in a bare TypeError inside train(), or ran with
        a fractional epoch count or evaluation period."""
        overrides = {field: value, **({"max_epochs": 0} if field == "max_iterations" else {})}
        with pytest.raises(ConfigurationError) as err:
            TrainConfig(**overrides)
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("field", ["learning_rate", "mask_value"])
    @pytest.mark.parametrize("value", ["0.1", None, True, [0.1]])
    def test_non_numeric_rate_or_mask_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError) as err:
            TrainConfig(**{field: value})
        assert str(err.value) == f"{field} must be a number, got {value!r}"

    def test_numpy_numbers_are_accepted(self):
        config = TrainConfig(
            batch_size=np.int64(4), max_epochs=np.uint8(1), max_iterations=np.int32(0),
            eval_every=np.int16(2), embedding_dim=np.int64(3), seed=np.uint64(5),
            learning_rate=np.float32(0.01), mask_value=np.int64(-50),
        )
        tagset, (train_s, dev_s) = tiny_corpus()
        _, report = train(train_s, dev_s, config, tagset)
        assert [r.iteration for r in report.records] == [2, 4, 5]

    def test_zero_learning_rate_is_allowed(self):
        TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ConfigurationError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("mode", ["crf", "mcrf-decode", "mcrf-train"])
    @pytest.mark.parametrize("value", [-np.inf, np.nan, np.inf])
    def test_non_finite_mask_value_rejected(self, mode, value):
        with pytest.raises(ConfigurationError, match="mask value must be finite"):
            TrainConfig(mode=mode, mask_value=value)


class TestAdam:
    def _single(self, value=0.0):
        params = [np.array([value])]
        state = OptimizerState.for_params(params)
        return state, params

    def test_first_step_size_is_learning_rate(self):
        """With bias correction, m_hat = g and v_hat = g^2, so the first
        update is lr * g / (|g| + eps) which is lr up to eps."""
        state, params = self._single(0.0)
        config = TrainConfig(learning_rate=1e-3)
        adam_step(state, params, [np.array([1.0])], config)
        assert params[0][0] == pytest.approx(-1e-3, rel=1e-6)
        state, params = self._single(0.0)
        adam_step(state, params, [np.array([-4.0])], config)
        assert params[0][0] == pytest.approx(1e-3, rel=1e-6)

    def test_two_steps_match_hand_rolled_adam(self):
        config = TrainConfig(learning_rate=0.01)
        state, params = self._single(0.5)
        g_seq = [0.3, -0.2]
        # Hand-rolled reference following the standard bias-corrected update.
        w, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(g_seq, start=1):
            m = training.BETA1 * m + (1 - training.BETA1) * g
            v = training.BETA2 * v + (1 - training.BETA2) * g * g
            m_hat = m / (1 - training.BETA1**t)
            v_hat = v / (1 - training.BETA2**t)
            w -= config.learning_rate * m_hat / (np.sqrt(v_hat) + training.EPSILON)
        for g in g_seq:
            adam_step(state, params, [np.array([g])], config)
        assert params[0][0] == pytest.approx(w, abs=1e-15)
        assert state.step == 2

    def test_zero_gradient_leaves_parameter_alone(self):
        state, params = self._single(1.25)
        adam_step(state, params, [np.zeros(1)], TrainConfig())
        assert params[0][0] == 1.25

    def test_updates_happen_in_place(self):
        params = [np.zeros(2)]
        alias = params[0]
        state = OptimizerState.for_params(params)
        adam_step(state, params, [np.ones(2)], TrainConfig())
        assert alias is params[0]
        assert alias[0] != 0.0

    def test_array_count_mismatch_rejected(self):
        state, params = self._single()
        for grads in ([], [np.zeros(1), np.zeros(1)]):
            with pytest.raises(ValueError, match="grads must match params in number and shape"):
                adam_step(state, params, grads, TrainConfig())
        assert state.step == 0

    def test_shape_mismatch_rejected(self):
        state, params = self._single()
        with pytest.raises(ValueError, match="grads must match params in number and shape"):
            adam_step(state, params, [np.zeros(3)], TrainConfig())

    def test_each_array_takes_its_own_slice_of_the_moments(self):
        """Arrays of several shapes step as if each had its own Adam state,
        to the last bit."""
        rng = np.random.default_rng(0)
        shapes = [(3, 3), (3,), (5, 2), (6, 3), (3,)]
        params = [rng.normal(size=shape) for shape in shapes]
        alone = [[p.copy()] for p in params]
        state = OptimizerState.for_params(params)
        states = [OptimizerState.for_params(p) for p in alone]
        config = TrainConfig(learning_rate=0.05)
        for _ in range(5):
            grads = [rng.normal(size=shape) for shape in shapes]
            adam_step(state, params, grads, config)
            for s, p, g in zip(states, alone, grads):
                adam_step(s, p, [g], config)
        for p, (q,) in zip(params, alone):
            assert p.tobytes() == q.tobytes()


class TestInitialize:
    def test_seeded_and_deterministic(self):
        vocab = Vocabulary.from_tokens(["a", "b", "c"])
        config = TrainConfig(embedding_dim=4, seed=11)
        enc1, trans1 = initialize(config, BIO1, vocab, np.random.default_rng(config.seed))
        enc2, trans2 = initialize(config, BIO1, vocab, np.random.default_rng(config.seed))
        np.testing.assert_array_equal(enc1.embeddings, enc2.embeddings)
        np.testing.assert_array_equal(trans1.scores, trans2.scores)

    def test_plain_mode_starts_at_zero_transitions(self):
        vocab = Vocabulary.from_tokens(["a"])
        _, trans = initialize(TrainConfig(mode="crf"), BIO1, vocab, np.random.default_rng(0))
        np.testing.assert_array_equal(trans.scores, np.zeros((3, 3)))
        np.testing.assert_array_equal(trans.start, np.zeros(3))

    def test_masked_mode_starts_with_mask_applied(self):
        vocab = Vocabulary.from_tokens(["a"])
        config = TrainConfig(mode="mcrf-train", mask_value=-1e4)
        _, trans = initialize(config, BIO1, vocab, np.random.default_rng(0))
        i_per = BIO1.index_of("I-PER")
        assert trans.scores[0, i_per] == -1e4
        assert trans.start[i_per] == -1e4
        assert trans.scores[0, 0] == 0.0

    def test_optimizer_moments_start_at_zero(self):
        enc, trans = initialize(
            TrainConfig(), BIO1, Vocabulary.from_tokens(["a"]), np.random.default_rng(0)
        )
        params = [trans.scores, trans.start, enc.embeddings, enc.projection, enc.bias]
        opt = OptimizerState.for_params(params)
        assert opt.m.shape == opt.v.shape == (sum(p.size for p in params),)
        assert opt.step == 0
        assert not opt.m.any() and not opt.v.any()


class TestTrainLoop:
    def test_same_seed_reproduces_weights_and_report(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        config = TrainConfig(
            mode="mcrf-train", batch_size=4, max_epochs=2, max_iterations=0,
            eval_every=5, embedding_dim=4, seed=3,
        )
        state1, report1 = train(train_s, dev_s, config, tagset)
        state2, report2 = train(train_s, dev_s, config, tagset)
        assert report1.to_text() == report2.to_text()
        np.testing.assert_array_equal(state1.trans.scores, state2.trans.scores)
        np.testing.assert_array_equal(state1.encoder.embeddings, state2.encoder.embeddings)

    def test_different_seeds_differ(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        base = dict(batch_size=4, max_epochs=1, max_iterations=0, eval_every=5, embedding_dim=4)
        _, report1 = train(train_s, dev_s, TrainConfig(seed=1, **base), tagset)
        _, report2 = train(train_s, dev_s, TrainConfig(seed=2, **base), tagset)
        assert report1.to_text() != report2.to_text()

    def test_zero_learning_rate_freezes_everything(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        config = TrainConfig(
            learning_rate=0.0, batch_size=4, max_epochs=1, max_iterations=0,
            eval_every=5, embedding_dim=4, seed=7,
        )
        vocab = Vocabulary.from_tokens(t for s in train_s for t in s.tokens)
        init_enc, init_trans = initialize(config, tagset, vocab, np.random.default_rng(config.seed))
        state, _ = train(train_s, dev_s, config, tagset)
        np.testing.assert_array_equal(state.trans.scores, init_trans.scores)
        np.testing.assert_array_equal(state.trans.start, init_trans.start)
        np.testing.assert_array_equal(state.encoder.embeddings, init_enc.embeddings)

    def test_masked_decode_training_matches_plain(self):
        """mcrf-decode must leave the training trajectory bit-identical to crf;
        the mask only matters at inference time."""
        tagset, (train_s, dev_s) = tiny_corpus()
        base = dict(batch_size=4, max_epochs=1, max_iterations=0, eval_every=5,
                    embedding_dim=4, seed=5)
        plain, _ = train(train_s, dev_s, TrainConfig(mode="crf", **base), tagset)
        masked, _ = train(train_s, dev_s, TrainConfig(mode="mcrf-decode", **base), tagset)
        np.testing.assert_array_equal(plain.trans.scores, masked.trans.scores)
        np.testing.assert_array_equal(plain.trans.start, masked.trans.start)
        np.testing.assert_array_equal(plain.encoder.embeddings, masked.encoder.embeddings)

    def test_masked_entries_pinned_at_every_checkpoint(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        config = TrainConfig(
            mode="mcrf-train", mask_value=-1e4, batch_size=4, max_epochs=0,
            max_iterations=40, eval_every=10, embedding_dim=4, seed=9,
        )
        rules = illegal_transition_set(tagset)
        seen = []

        def checkpoint(iteration, trans):
            values = [trans.scores[i, j] for i, j in rules.omega]
            values += [trans.start[i] for i in rules.illegal_starts]
            seen.append((iteration, values))

        state, _ = train(train_s, dev_s, config, tagset, on_checkpoint=checkpoint)
        assert [it for it, _ in seen] == [10, 20, 30, 40]
        for _, values in seen:
            assert all(v == -1e4 for v in values)
        # Legal entries did move.
        assert state.trans.scores[0, 0] != 0.0

    def test_reassignment_pins_entries_whose_gradient_is_not_zero(self):
        """At c = -5 the masked entries get a gradient of about 5e-3, so Adam
        moves them on every step; only the reassignment after each update
        keeps them at c. BIOES with start enforcement covers both tables."""
        c = -5.0
        config = SyntheticConfig(
            entity_types=("PER", "LOC"), scheme=Scheme.BIOES, sentences=24,
            min_length=3, max_length=6, vocab_size=12, tokens_per_type=4,
        )
        tagset, sents = generate_synthetic(config, seed=2)
        train_s, dev_s = split_corpus(sents, dev_fraction=0.25, seed=2)
        config = TrainConfig(
            mode="mcrf-train", mask_value=c, batch_size=4, max_epochs=0,
            max_iterations=30, eval_every=10, embedding_dim=4, seed=9,
        )
        illegal_pair, illegal_start = MaskSpec(
            illegal_transition_set(tagset), mask_value=c
        ).rules.tables(tagset.size)
        assert illegal_pair.any() and illegal_start.any()
        seen = []

        def checkpoint(iteration, trans):
            seen.append(iteration)
            assert np.all(trans.scores[illegal_pair] == c)
            assert np.all(trans.start[illegal_start] == c)

        state, _ = train(train_s, dev_s, config, tagset, on_checkpoint=checkpoint)
        assert seen == [10, 20, 30]
        batch = [
            (encode(state.vocab.lookup_all(s.tokens), state.encoder), s.gold)
            for s in train_s
        ]
        _, grads = loss_and_gradients(batch, state.trans)
        assert np.max(np.abs(grads.transitions[illegal_pair])) > 1e-4
        assert np.max(np.abs(grads.start[illegal_start])) > 1e-4

    def test_loss_decreases_on_tiny_problem(self):
        tagset, (train_s, dev_s) = tiny_corpus(sentences=32)
        config = TrainConfig(
            mode="crf", batch_size=8, max_epochs=0, max_iterations=60,
            eval_every=60, embedding_dim=8, seed=2,
        )
        vocab = Vocabulary.from_tokens(t for s in train_s for t in s.tokens)
        enc0, init_trans = initialize(config, tagset, vocab, np.random.default_rng(config.seed))
        before = nll_loss(
            [(encode(vocab.lookup_all(s.tokens), enc0), s.gold) for s in dev_s], init_trans
        )
        state, report = train(train_s, dev_s, config, tagset)
        assert report.final.dev_nll < before

    def test_budget_is_max_of_epochs_and_floor(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        # 18 train sentences, batch 6 -> 3 batches/epoch; 2 epochs = 6 < floor 9.
        config = TrainConfig(
            batch_size=6, max_epochs=2, max_iterations=9, eval_every=1,
            embedding_dim=2, seed=0,
        )
        _, report = train(train_s, dev_s, config, tagset)
        assert report.final.iteration == 9
        config = TrainConfig(
            batch_size=6, max_epochs=2, max_iterations=4, eval_every=1,
            embedding_dim=2, seed=0,
        )
        _, report = train(train_s, dev_s, config, tagset)
        assert report.final.iteration == 6

    def test_final_iteration_always_evaluated(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        config = TrainConfig(
            batch_size=6, max_epochs=0, max_iterations=7, eval_every=5,
            embedding_dim=2, seed=0,
        )
        _, report = train(train_s, dev_s, config, tagset)
        assert [r.iteration for r in report.records] == [5, 7]

    def test_illegal_gold_rejected_up_front(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        bad = LabeledSentence(["x", "y"], [0, tagset.index_of("I-PER")])
        with pytest.raises(DataError) as err:
            train(train_s + [bad], dev_s, TrainConfig(max_epochs=1), tagset)
        assert "illegal gold path" in str(err.value)

    def test_unusable_gold_tag_names_the_sentence(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        k = len(train_s) + 1
        for gold, message in (([0.0, 1.0], "non-integer tag index"),
                              ([True, False], "non-integer tag index"),
                              ([0, 9], "tag index 9 out of range")):
            bad = LabeledSentence(["x", "y"], gold)
            with pytest.raises(DataError, match=f"^train sentence {k}: {message}"):
                train(train_s + [bad], dev_s, TrainConfig(max_epochs=1), tagset)

    def test_empty_corpora_rejected(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        with pytest.raises(DataError):
            train([], dev_s, TrainConfig(), tagset)
        with pytest.raises(DataError):
            train(train_s, [], TrainConfig(), tagset)

    def test_divergence_is_a_training_error(self):
        """A learning rate of 1e300 overflows the parameters in one step. The
        engine now refuses a non-finite loss with a ValueError; train turns
        it into a TrainingError, on the training batch and on the dev set
        (where a nan dev NLL used to be recorded without a word)."""
        tagset, (train_s, dev_s) = tiny_corpus()
        for iterations, eval_every, message in (
            (30, 50, "non-finite loss at iteration 2;"),
            (1, 1, "non-finite dev scores at iteration 1;"),
        ):
            config = TrainConfig(learning_rate=1e300, max_epochs=0,
                                 max_iterations=iterations, eval_every=eval_every)
            with np.errstate(all="ignore"), pytest.raises(TrainingError, match=message):
                train(train_s, dev_s, config, tagset)

    def test_non_finite_external_emissions_fail_fast(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        config = TrainConfig(batch_size=len(train_s), max_epochs=1, max_iterations=0,
                             eval_every=1)
        for side in ("train", "dev"):
            logits = [np.zeros((len(s.tokens), tagset.size)) for s in train_s]
            dev_logits = [np.zeros((len(s.tokens), tagset.size)) for s in dev_s]
            poisoned = logits if side == "train" else dev_logits
            poisoned[2] = np.full_like(poisoned[2], np.inf)
            with pytest.raises(TrainingError) as err:
                train(train_s, dev_s, config, tagset,
                      train_logits=logits, dev_logits=dev_logits)
            assert str(err.value) == (
                f"non-finite value in external {side} emissions, sentence 3"
            )

    def test_external_emissions_train_transitions_only(self, monkeypatch):
        stepped = []

        def spy(state, params, grads, config):
            stepped.append(params)
            adam_step(state, params, grads, config)

        monkeypatch.setattr(training, "adam_step", spy)
        tagset, (train_s, dev_s) = tiny_corpus()
        logits = [np.random.default_rng(0).normal(size=(len(s.tokens), tagset.size))
                  for s in train_s]
        dev_logits = [np.random.default_rng(1).normal(size=(len(s.tokens), tagset.size))
                      for s in dev_s]
        config = TrainConfig(batch_size=6, max_epochs=1, max_iterations=0,
                             eval_every=3, embedding_dim=4, seed=4)
        vocab = Vocabulary.from_tokens(t for s in train_s for t in s.tokens)
        init_enc, _ = initialize(config, tagset, vocab, np.random.default_rng(config.seed))
        state, _ = train(train_s, dev_s, config, tagset,
                         train_logits=logits, dev_logits=dev_logits)
        np.testing.assert_array_equal(state.encoder.embeddings, init_enc.embeddings)
        assert state.trans.scores.any()
        assert len(stepped) == 3
        for params in stepped:  # Adam never sees the encoder
            assert len(params) == 2
            assert params[0] is state.trans.scores and params[1] is state.trans.start

    def test_adam_moments_only_for_the_arrays_it_steps(self, monkeypatch):
        """On external emissions the encoder is frozen, so Adam keeps no
        moments for it."""
        built = []
        for_params = OptimizerState.for_params

        def spy(params):
            opt = for_params(params)
            built.append(([p.shape for p in params], opt.m.size, opt.v.size))
            return opt

        monkeypatch.setattr(OptimizerState, "for_params", spy)
        tagset, (train_s, dev_s) = tiny_corpus()
        logits = [np.zeros((len(s.tokens), tagset.size)) for s in train_s]
        dev_logits = [np.zeros((len(s.tokens), tagset.size)) for s in dev_s]
        config = TrainConfig(max_epochs=0, max_iterations=1)
        d = tagset.size
        state, _ = train(train_s, dev_s, config, tagset,
                         train_logits=logits, dev_logits=dev_logits)
        assert built == [([(d, d), (d,)], d * d + d, d * d + d)]  # trans.scores and trans.start
        built.clear()
        state, _ = train(train_s, dev_s, config, tagset)
        enc = state.encoder
        size = d * d + d + enc.embeddings.size + enc.projection.size + d
        assert built == [
            ([(d, d), (d,), enc.embeddings.shape, enc.projection.shape, (d,)], size, size)
        ]

    def test_external_emissions_must_cover_both_sides(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        logits = [np.zeros((len(s.tokens), tagset.size)) for s in train_s]
        dev_logits = [np.zeros((len(s.tokens), tagset.size)) for s in dev_s]
        for one_side in ({"train_logits": logits}, {"dev_logits": dev_logits}):
            with pytest.raises(ConfigurationError) as err:
                train(train_s, dev_s, TrainConfig(max_epochs=1), tagset, **one_side)
            assert str(err.value) == "external emissions must cover both train and dev"

    def test_external_emission_count_mismatch_rejected(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        logits = [np.zeros((len(s.tokens), tagset.size)) for s in train_s]
        dev_logits = [np.zeros((len(s.tokens), tagset.size)) for s in dev_s]
        with pytest.raises(DataError) as err:
            train(train_s, dev_s, TrainConfig(max_epochs=1), tagset,
                  train_logits=logits[:-1], dev_logits=dev_logits)
        assert str(err.value) == "got 17 emission sequences for 18 training sentences"
        with pytest.raises(DataError) as err:
            train(train_s, dev_s, TrainConfig(max_epochs=1), tagset,
                  train_logits=logits, dev_logits=dev_logits + dev_logits)
        assert str(err.value) == "got 12 emission sequences for 6 dev sentences"

    def test_external_emission_shape_mismatch_rejected(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        logits = [np.zeros((len(s.tokens), tagset.size)) for s in train_s]
        dev_logits = [np.zeros((len(s.tokens), tagset.size)) for s in dev_s]
        T = len(train_s[1].tokens)
        for bad in (np.zeros((T + 1, tagset.size)), np.zeros((T, tagset.size + 1)), np.zeros(T)):
            poisoned = list(logits)
            poisoned[1] = bad
            with pytest.raises(DataError) as err:
                train(train_s, dev_s, TrainConfig(max_epochs=1), tagset,
                      train_logits=poisoned, dev_logits=dev_logits)
            assert str(err.value) == (
                f"external train emissions, sentence 2: shape {bad.shape}, "
                f"expected ({T}, {tagset.size})"
            )
        T = len(dev_s[0].tokens)
        poisoned = list(dev_logits)
        poisoned[0] = np.zeros((T - 1, tagset.size))
        with pytest.raises(DataError, match=r"external dev emissions, sentence 1: shape"):
            train(train_s, dev_s, TrainConfig(max_epochs=1), tagset,
                  train_logits=logits, dev_logits=poisoned)

    def test_mcrf_train_decodes_legally_during_eval(self):
        tagset, (train_s, dev_s) = tiny_corpus()
        config = TrainConfig(mode="mcrf-train", batch_size=4, max_epochs=0,
                             max_iterations=20, eval_every=10, embedding_dim=4, seed=6)
        _, report = train(train_s, dev_s, config, tagset)
        assert all(r.illegal_pct == 0.0 for r in report.records)


class TestBatchedEncoder:
    def test_one_encoder_and_engine_call_per_iteration(self, monkeypatch):
        """A per-sentence loop around encode, encoder_backward or
        loss_and_gradients would multiply these counts by the batch size."""
        tagset, (train_sents, dev_sents) = tiny_corpus(sentences=40)
        assert len(train_sents) > 8 and 8 < len(dev_sents) <= 16
        calls = []
        for name in ("encode", "encoder_backward", "loss_and_gradients"):
            def counting(*args, _name=name, _original=getattr(training, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(training, name, counting)
        config = TrainConfig(batch_size=8, max_epochs=0, max_iterations=3, eval_every=3)
        train(train_sents, dev_sents, config, tagset)
        # three iterations, then one evaluation that encodes dev in two chunks
        step = ["encode", "loss_and_gradients", "encoder_backward"]
        assert calls == step * 3 + ["encode"] * 2


class TestTrainReport:
    def test_text_format_is_stable(self):
        report = TrainReport(records=[
            EvalRecord(iteration=50, train_nll=1.25, dev_nll=2.5, dev_f1=0.75,
                       illegal_pct=12.5),
        ])
        assert report.to_text() == (
            "iteration\ttrain_nll\tdev_nll\tdev_f1\tillegal_pct\n"
            "50\t1.250000\t2.500000\t0.750000\t12.5000\n"
        )

    def test_final_of_empty_report_rejected(self):
        with pytest.raises(ValueError):
            TrainReport().final
