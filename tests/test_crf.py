"""Linear-chain CRF core: scores, partition, gradients, Viterbi, oracles."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    central_difference,
    max_relative_error,
    python_best_path,
    python_log_forward,
    python_log_partition,
)

import mcrf.crf
from mcrf.crf import (
    TokenBatch,
    TransitionMatrix,
    _forward_backward,
    brute_force_best,
    brute_force_log_partition,
    brute_force_loss_and_gradients,
    log_partition,
    logsumexp,
    loss_and_gradients,
    nll_loss,
    path_score,
    viterbi,
    viterbi_batch,
)
from mcrf.errors import SizeError
from mcrf.masking import MaskSpec, apply_mask
from mcrf.schemes import Scheme, TransitionRuleSet, build_tagset, illegal_transition_set


def random_instance(rng, T=None, d=None, scale=2.0):
    T = T if T is not None else int(rng.integers(1, 7))
    d = d if d is not None else int(rng.integers(2, 6))
    emissions = rng.uniform(-scale, scale, size=(T, d))
    trans = TransitionMatrix(
        rng.uniform(-scale, scale, size=(d, d)), rng.uniform(-scale, scale, size=d)
    )
    return emissions, trans


def marginals(emissions, trans):
    """The engine on one sentence: position marginals (T, d), expected
    transition counts (d, d) summed over positions, and log Z."""
    lengths = np.array([len(emissions)])
    log_z, unary, counts = _forward_backward(emissions[:, None], lengths, trans, True)
    return unary[:, 0], counts, float(log_z[0])


def sequence_nll(emissions, trans, gold):
    """One sentence's NLL, log Z - s(gold), apart from nll_loss's gold scoring."""
    return log_partition(emissions, trans) - path_score(emissions, trans, gold)


class TestPathScore:
    def test_all_zero_instance_scores_zero(self):
        trans = TransitionMatrix.zeros(3)
        assert path_score(np.zeros((4, 3)), trans, [0, 1, 2, 1]) == 0.0

    def test_worked_example(self):
        """l = [[1, 2], [0.5, 0]], a = [[0.1, 0.2], [0.3, 0.4]], path (1, 0):
        2 + 0.3 + 0.5 = 2.8; adding start = [0, 2.7] gives 5.5."""
        emissions = np.array([[1.0, 2.0], [0.5, 0.0]])
        scores = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert path_score(emissions, TransitionMatrix(scores, np.zeros(2)), [1, 0]) == pytest.approx(2.8)
        assert path_score(
            emissions, TransitionMatrix(scores, np.array([0.0, 2.7])), [1, 0]
        ) == pytest.approx(5.5)

    def test_matches_plain_python_summation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            emissions, trans = random_instance(rng)
            T, d = emissions.shape
            path = [int(v) for v in rng.integers(0, d, size=T)]
            expected = trans.start[path[0]]
            for t, tag in enumerate(path):
                expected += emissions[t][tag]
            for a, b in zip(path, path[1:]):
                expected += trans.scores[a][b]
            assert path_score(emissions, trans, path) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            path_score(np.zeros((3, 2)), TransitionMatrix.zeros(2), [0, 1])

    def test_tag_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            path_score(np.zeros((2, 2)), TransitionMatrix.zeros(2), [0, 2])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            path_score(np.zeros((0, 2)), TransitionMatrix.zeros(2), [])


class TestLogsumexp:
    def test_matches_math_on_small_values(self):
        x = np.array([1.0, 2.0, 3.0])
        assert logsumexp(x) == pytest.approx(math.log(sum(math.exp(v) for v in x)))

    def test_survives_large_magnitudes(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2.0))
        assert logsumexp(np.array([-1e4, -1e4])) == pytest.approx(-1e4 + math.log(2.0))

    def test_axis_reduction(self):
        x = np.zeros((3, 4))
        np.testing.assert_allclose(logsumexp(x, axis=1), np.full(3, math.log(4.0)))


class TestLogPartition:
    def test_two_positions_two_tags_all_zero(self):
        """Four equally weighted paths: log Z = log 4."""
        assert log_partition(np.zeros((2, 2)), TransitionMatrix.zeros(2)) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_single_position(self):
        emissions = np.array([[1.0, 2.0, 3.0]])
        expected = math.log(math.e + math.e**2 + math.e**3)
        assert log_partition(emissions, TransitionMatrix.zeros(3)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_pure_python_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            emissions, trans = random_instance(rng, T=int(rng.integers(1, 5)), d=3)
            expected = python_log_partition(
                emissions.tolist(), trans.scores.tolist(), trans.start.tolist()
            )
            assert log_partition(emissions, trans) == pytest.approx(expected, abs=1e-10)
            assert brute_force_log_partition(emissions, trans) == pytest.approx(
                expected, abs=1e-10
            )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            emissions, trans = random_instance(rng)
            assert log_partition(emissions, trans) == pytest.approx(
                brute_force_log_partition(emissions, trans), abs=1e-9
            )

    def test_emission_shift_moves_log_z_linearly(self):
        """Adding a constant to every emission adds T * constant to log Z."""
        rng = np.random.default_rng(9)
        emissions, trans = random_instance(rng, T=4, d=3)
        base = log_partition(emissions, trans)
        shifted = log_partition(emissions + 0.7, trans)
        assert shifted == pytest.approx(base + 4 * 0.7, abs=1e-9)

    def test_upper_bounds_every_path_score(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            emissions, trans = random_instance(rng)
            T, d = emissions.shape
            log_z = log_partition(emissions, trans)
            for _ in range(5):
                path = [int(v) for v in rng.integers(0, d, size=T)]
                assert log_z > path_score(emissions, trans, path)


class TestMarginals:
    def test_unary_rows_are_distributions(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            emissions, trans = random_instance(rng)
            unary, counts, _ = marginals(emissions, trans)
            np.testing.assert_allclose(unary.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(unary >= 0)
            # one pairwise distribution per adjacent pair, summed over pairs
            assert counts.sum() == pytest.approx(len(emissions) - 1, abs=1e-10)
            assert np.all(counts >= 0)

    def test_pairwise_margins_match_unary(self):
        rng = np.random.default_rng(19)
        emissions, trans = random_instance(rng, T=5, d=4)
        unary, counts, _ = marginals(emissions, trans)
        # the per-pair margins, summed over the 4 adjacent pairs
        np.testing.assert_allclose(counts.sum(axis=1), unary[:4].sum(axis=0), atol=1e-10)
        np.testing.assert_allclose(counts.sum(axis=0), unary[1:].sum(axis=0), atol=1e-10)

    def test_marginals_match_brute_force_per_position(self):
        """With one sentence and no gold term, the oracle's emission gradient
        is the position marginals and its transition gradient the counts."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            emissions, trans = random_instance(rng, T=4, d=3)
            unary, counts, log_z = marginals(emissions, trans)
            gold = [0, 0, 0, 0]
            _, bf = brute_force_loss_and_gradients([(emissions, gold)], trans)
            bf.emissions[0][:, 0] += 1.0
            bf.transitions[0, 0] += 3.0
            np.testing.assert_allclose(unary, bf.emissions[0], atol=1e-10)
            np.testing.assert_allclose(counts, bf.transitions, atol=1e-10)
            assert log_z == pytest.approx(brute_force_log_partition(emissions, trans), abs=1e-10)

    def test_uniform_instance_is_uniform(self):
        unary, _, log_z = marginals(np.zeros((3, 4)), TransitionMatrix.zeros(4))
        np.testing.assert_allclose(unary, 0.25, atol=1e-12)
        assert log_z == pytest.approx(3 * math.log(4.0))


class TestNll:
    def test_single_position_hand_value(self):
        """T=1, d=2, all zero, gold tag 0: NLL = log 2."""
        batch = [(np.zeros((1, 2)), [0])]
        assert nll_loss(batch, TransitionMatrix.zeros(2)) == pytest.approx(math.log(2.0))

    def test_nll_is_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            emissions, trans = random_instance(rng)
            T, d = emissions.shape
            gold = [int(v) for v in rng.integers(0, d, size=T)]
            assert sequence_nll(emissions, trans, gold) > 0.0

    def test_batch_mean(self):
        rng = np.random.default_rng(29)
        batch = []
        singles = []
        for _ in range(4):
            emissions, _ = random_instance(rng, d=3)
            gold = [int(v) for v in rng.integers(0, 3, size=emissions.shape[0])]
            batch.append((emissions, gold))
        trans = TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3))
        singles = [sequence_nll(e, trans, g) for e, g in batch]
        assert nll_loss(batch, trans) == pytest.approx(float(np.mean(singles)), abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            nll_loss([], TransitionMatrix.zeros(2))

    def test_dominant_gold_drives_nll_to_zero(self):
        emissions = np.zeros((3, 2))
        emissions[:, 0] = 50.0
        assert sequence_nll(emissions, TransitionMatrix.zeros(2), [0, 0, 0]) < 1e-8


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            emissions, trans = random_instance(rng, T=3, d=3)
            gold = [int(v) for v in rng.integers(0, 3, size=3)]
            batch = [(emissions, gold)]
            _, grads = loss_and_gradients(batch, trans)
            fd_em = central_difference(lambda: nll_loss(batch, trans), emissions)
            fd_tr = central_difference(lambda: nll_loss(batch, trans), trans.scores)
            fd_st = central_difference(lambda: nll_loss(batch, trans), trans.start)
            assert max_relative_error(grads.emissions[0], fd_em) < 1e-6
            assert max_relative_error(grads.transitions, fd_tr) < 1e-6
            assert max_relative_error(grads.start, fd_st) < 1e-6

    def test_matches_brute_force_gradients(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            emissions, trans = random_instance(rng, d=3)
            T = emissions.shape[0]
            gold = [int(v) for v in rng.integers(0, 3, size=T)]
            loss, grads = loss_and_gradients([(emissions, gold)], trans)
            bf_loss, bf = brute_force_loss_and_gradients([(emissions, gold)], trans)
            assert loss == pytest.approx(bf_loss, abs=1e-9)
            np.testing.assert_allclose(grads.emissions[0], bf.emissions[0], atol=1e-9)
            np.testing.assert_allclose(grads.transitions, bf.transitions, atol=1e-9)
            np.testing.assert_allclose(grads.start, bf.start, atol=1e-9)

    def test_emission_gradient_rows_sum_to_zero(self):
        """Marginals sum to one and the gold one-hot subtracts one per row."""
        rng = np.random.default_rng(41)
        emissions, trans = random_instance(rng, T=4, d=4)
        gold = [0, 1, 2, 3]
        _, grads = loss_and_gradients([(emissions, gold)], trans)
        np.testing.assert_allclose(grads.emissions[0].sum(axis=1), 0.0, atol=1e-12)
        assert grads.start.sum() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_vanishes_when_gold_dominates(self):
        emissions = np.zeros((3, 2))
        emissions[:, 1] = 40.0
        _, grads = loss_and_gradients([(emissions, [1, 1, 1])], TransitionMatrix.zeros(2))
        assert np.max(np.abs(grads.emissions[0])) < 1e-8
        assert np.max(np.abs(grads.transitions)) < 1e-8

    def test_batch_averaging(self):
        """A duplicated sentence leaves the averaged gradients unchanged."""
        rng = np.random.default_rng(43)
        emissions, trans = random_instance(rng, T=3, d=3)
        gold = [0, 1, 0]
        _, single = loss_and_gradients([(emissions, gold)], trans)
        _, doubled = loss_and_gradients([(emissions, gold), (emissions, gold)], trans)
        np.testing.assert_allclose(doubled.transitions, single.transitions, atol=1e-12)
        np.testing.assert_allclose(doubled.emissions[0], single.emissions[0] / 2, atol=1e-12)


class TestBatches:
    def test_width_mismatch_names_the_sentence(self):
        """Every entry point, the enumeration oracles included, refuses
        emissions narrower or wider than trans instead of scoring a corner of
        the matrix (or failing inside numpy)."""
        trans = TransitionMatrix.zeros(3)
        batch = [(np.zeros((2, 3)), [0, 1]), (np.zeros((2, 4)), [0, 1])]
        for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
            message = r"sentence 2: emissions of shape \(2, 4\), need \(2, 3\)"
            with pytest.raises(ValueError, match=message):
                fn(batch, trans)
        for width in (2, 4):
            bad = np.zeros((4, width))
            for call in (
                lambda: path_score(bad, trans, [0, 1, 1, 0]),
                lambda: log_partition(bad, trans),
                lambda: viterbi(bad, trans),
                lambda: brute_force_log_partition(bad, trans),
                lambda: brute_force_best(bad, trans),
            ):
                message = f"sentence 1: emissions of shape (4, {width}), need (T >= 1, 3)"
                with pytest.raises(ValueError, match=re.escape(message)):
                    call()
            message = f"sentence 1: emissions of shape (4, {width}), need (4, 3)"
            with pytest.raises(ValueError, match=re.escape(message)):
                brute_force_loss_and_gradients([(bad, [0, 1, 1, 0])], trans)

    def test_bool_or_ragged_gold_names_the_sentence(self):
        """numpy reads [0, True] as the tags [0, 1], and refuses a ragged
        nested list in words of its own: both are refused naming the
        sentence."""
        trans = TransitionMatrix.zeros(3)
        for bad, shown in (([0, True], "holds a bool"), ([np.True_, 0], "holds a bool"),
                           ([[0], [0, 1]], "is a ragged sequence")):
            batch = [(np.zeros((2, 3)), [0, 1]), (np.zeros((2, 3)), bad)]
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
                with pytest.raises(ValueError, match=f"^sentence 2: gold path {shown}"):
                    fn(batch, trans)
            with pytest.raises(ValueError, match=f"^sentence 1: gold path {shown}"):
                path_score(np.zeros((2, 3)), trans, bad)

    def test_non_integer_gold_names_the_sentence(self):
        """Gold tags are indices: a float path is refused, not truncated to
        the tags below it (which once scored [0.7, 1.9] as [0, 1]), and a tag
        outside [0, d) names its sentence too."""
        trans = TransitionMatrix.zeros(3)
        message = r"sentence 2: gold path of shape \(2,\) and dtype float64, need \(2,\) integer"
        batch = [(np.zeros((2, 3)), [0, 1]), (np.zeros((2, 3)), [0.7, 1.9])]
        for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
            with pytest.raises(ValueError, match=message):
                fn(batch, trans)
        with pytest.raises(ValueError, match=message.replace("sentence 2", "sentence 1")):
            path_score(np.zeros((2, 3)), trans, [0.7, 1.9])
        for bad in (-1, 3):
            batch[1] = (np.zeros((2, 3)), [0, bad])
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
                with pytest.raises(ValueError, match=r"sentence 2: .* out of range \[0, 3\)"):
                    fn(batch, trans)

    def test_gold_length_mismatch_and_empty_sentence_rejected(self):
        trans = TransitionMatrix.zeros(2)
        with pytest.raises(ValueError, match="sentence 1: "):
            nll_loss([(np.zeros((3, 2)), [0, 1])], trans)
        with pytest.raises(ValueError, match=r"sentence 2: .*need \(T >= 1, 2\)"):
            loss_and_gradients([(np.zeros((1, 2)), [0]), (np.zeros((0, 2)), [])], trans)
        with pytest.raises(ValueError, match="out of range"):
            loss_and_gradients([(np.zeros((2, 2)), [0, 2])], trans)

    @pytest.mark.parametrize("gold", [0, np.int64(0), np.array(0), None, 1.0])
    def test_scalar_gold_path_is_named(self, gold):
        """A gold path without a length gets the gold check's message from
        every entry point, as path_score gave it."""
        trans = TransitionMatrix.zeros(3)
        dtype = np.asarray(gold).dtype
        message = rf"^sentence 2: gold path of shape \(\) and dtype {dtype}, need \(1,\) integer"
        batch = [(np.zeros((1, 3)), [0]), (np.zeros((1, 3)), gold)]
        for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
            with pytest.raises(ValueError, match=message):
                fn(batch, trans)
        with pytest.raises(ValueError, match=message.replace("sentence 2", "sentence 1")):
            path_score(np.zeros((1, 3)), trans, gold)

    def test_empty_gold_path_is_named(self):
        """An empty gold path under one-token emissions is the gold path's
        fault, and both batch forms say so."""
        trans = TransitionMatrix.zeros(3)
        batch = [(np.zeros((1, 3)), [0]), (np.zeros((1, 3)), [])]
        message = r"^sentence 2: gold path of shape \(0,\) .*need \(1,\) integer tags"
        for fn in (nll_loss, loss_and_gradients):
            with pytest.raises(ValueError, match=message):
                fn(batch, trans)
        tokens = TokenBatch(np.zeros((1, 3)), [1, 0], [0])
        message = r"^sentence 2: gold path of length 0, need T >= 1"
        for fn in (nll_loss, loss_and_gradients):
            with pytest.raises(ValueError, match=message):
                fn(tokens, trans)


class TestUnderflowGuard:
    """Score gaps of ~670 or more underflow the scaled forward recursion;
    the steps they hit must fall back to log space. Without the fallback the
    wide instance, the narrow one with -800 on moves into tag 1 and the
    32-copy batch at gap 707.7 give a wrong log Z or NaN gradients; -800 on
    moves out of tag 1 is absorbed by the row shift, and stays so."""

    @staticmethod
    def wide_masked_instance():
        """BIOES with 10 types (d = 41) masked at -1e4, T = 200, scores x1000."""
        tagset = build_tagset(Scheme.BIOES, [f"T{k}" for k in range(10)])
        rng = np.random.default_rng(0)
        d = tagset.size
        trans = TransitionMatrix(1000 * rng.normal(size=(d, d)), 1000 * rng.normal(size=d))
        return 1000 * rng.normal(size=(200, d)), apply_mask(trans, MaskSpec(tagset.rules))

    @staticmethod
    def narrow_instance(into_tag_1):
        """d = 3, T = 4, emission 900 on tag 1 everywhere, -800 on every move
        into tag 1 (or, which the row shift absorbs, out of it): log Z = 1200."""
        scores = np.zeros((3, 3))
        if into_tag_1:
            scores[:, 1] = -800.0
        else:
            scores[1, :] = -800.0
        emissions = np.zeros((4, 3))
        emissions[:, 1] = 900.0
        return emissions, TransitionMatrix(scores, np.zeros(3))

    def test_long_masked_sentence_matches_the_log_space_referee(self):
        emissions, trans = self.wide_masked_instance()
        expected = python_log_forward(
            emissions.tolist(), trans.scores.tolist(), trans.start.tolist()
        )
        assert log_partition(emissions, trans) == pytest.approx(expected, rel=1e-9)
        gold = [0] * len(emissions)
        loss, grads = loss_and_gradients([(emissions, gold)], trans)
        assert loss == pytest.approx(expected - path_score(emissions, trans, gold), rel=1e-9)
        assert np.all(np.isfinite(grads.emissions[0])) and np.all(np.isfinite(grads.transitions))
        np.testing.assert_allclose(grads.emissions[0].sum(axis=1), 0.0, atol=1e-9)

    @pytest.mark.parametrize("into_tag_1", [True, False])
    def test_narrow_instance_matches_referee_and_brute_force(self, into_tag_1):
        emissions, trans = self.narrow_instance(into_tag_1)
        expected = python_log_forward(
            emissions.tolist(), trans.scores.tolist(), trans.start.tolist()
        )
        assert expected == pytest.approx(1200.0, abs=1e-9)
        assert log_partition(emissions, trans) == pytest.approx(expected, rel=1e-9)
        batch = [(emissions, [1, 1, 0, 1])]
        loss, grads = loss_and_gradients(batch, trans)
        bf_loss, bf = brute_force_loss_and_gradients(batch, trans)
        assert loss == pytest.approx(bf_loss, abs=1e-9)
        np.testing.assert_allclose(grads.emissions[0], bf.emissions[0], atol=1e-9)
        np.testing.assert_allclose(grads.transitions, bf.transitions, atol=1e-9)
        np.testing.assert_allclose(grads.start, bf.start, atol=1e-9)

    @pytest.mark.parametrize("gap", [671.0, 707.7])
    def test_many_near_threshold_steps_sum_without_overflow(self, gap):
        """One step of each copy reaches tag 1 only through a masked move or
        from a predecessor e^-gap behind. At 671, just above the threshold,
        w_t is ~1e291 in each of 32 copies and their sum stays finite. At
        707.7 (e^-gap ~1e-307, still a normal float) the step is redone in
        log space; a threshold at the smallest normal float would let its
        32 terms of ~1e307 overflow the count sum to inf and NaN."""
        emissions = np.array([[0.0, -gap], [0.0, 2000.0]])
        trans = TransitionMatrix(np.array([[0.0, -1e4], [0.0, 0.0]]), np.zeros(2))
        batch = [(emissions, [1, 1])] * 32
        loss, grads = loss_and_gradients(batch, trans)
        bf_loss, bf = brute_force_loss_and_gradients(batch, trans)
        assert loss == pytest.approx(bf_loss, rel=1e-12)
        np.testing.assert_allclose(grads.transitions, bf.transitions, atol=1e-9)
        np.testing.assert_allclose(grads.emissions[0], bf.emissions[0], atol=1e-9)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_token_batch(rng):
    """A TokenBatch of up to 39 sentences of up to 29 tokens over d in {3, 7,
    13, 41}, at score scales up to 800 and sometimes with -1e6 on moves, so
    that some rows take the log-space step."""
    d = int(rng.choice([3, 7, 13, 41]))
    lengths = rng.integers(1, int(rng.integers(1, 30)) + 1, size=int(rng.integers(1, 40)))
    scale = float(rng.choice([1.0, 30.0, 800.0]))
    trans = TransitionMatrix(rng.normal(scale=scale / 10, size=(d, d)), rng.normal(size=d))
    if rng.random() < 0.3:
        trans.scores[rng.random((d, d)) < 0.3] = -1e6
    n = int(lengths.sum())
    return TokenBatch(rng.normal(scale=scale, size=(n, d)), lengths, rng.integers(0, d, n)), trans


class TestTokenBatch:
    def test_is_the_sequence_of_its_sentences(self):
        batch = TokenBatch(np.arange(12.0).reshape(4, 3), [1, 3], [2, 0, 1, 1])
        assert len(batch) == 2
        (em1, gold1), (em2, gold2) = batch
        assert same_bits(em1, np.array([[0.0, 1.0, 2.0]])) and gold1.tolist() == [2]
        assert same_bits(em2, np.arange(3.0, 12.0).reshape(3, 3)) and gold2.tolist() == [0, 1, 1]

    def test_iteration_refuses_what_the_engine_refuses(self):
        """Iteration split the rows by the lengths unchecked: 5 rows under
        lengths [2, 2] gave a (2, 3) and a (3, 3) sentence."""
        message = "emissions of shape (5, 3), need (4, 3) for 2 sentences"
        with pytest.raises(ValueError, match=re.escape(message)):
            list(TokenBatch(np.zeros((5, 3)), [2, 2], [0] * 5))
        with pytest.raises(ValueError, match="gold path of length 0"):
            list(TokenBatch(np.zeros((2, 3)), [2, 0], [0] * 2))
        with pytest.raises(ValueError, match="emissions of shape"):
            list(TokenBatch(np.zeros(4), [2, 2], [0] * 4))

    def test_equals_the_list_batch_bit_for_bit(self, monkeypatch):
        """Loss, transition and start gradients are the list batch's to the
        last bit, and the (N, d) emission gradient is its stacked per-sentence
        gradients, on random batches some of whose rows take the log-space
        step. The gold emissions must be summed as a C-ordered (B, T) array:
        in another order the loss moves in its last bit."""
        log_space_steps = []

        def counting(x, axis=None):
            log_space_steps.append(len(x))
            return logsumexp(x, axis)

        monkeypatch.setattr(mcrf.crf, "logsumexp", counting)
        rng = np.random.default_rng(15)
        for _ in range(400):
            batch, trans = random_token_batch(rng)
            pairs = [(em, gold.tolist()) for em, gold in batch]
            loss, grads = loss_and_gradients(batch, trans)
            list_loss, list_grads = loss_and_gradients(pairs, trans)
            assert same_bits(loss, list_loss)
            assert same_bits(nll_loss(batch, trans), nll_loss(pairs, trans))
            assert same_bits(grads.emissions, np.vstack(list_grads.emissions))
            assert same_bits(grads.transitions, list_grads.transitions)
            assert same_bits(grads.start, list_grads.start)
        assert len(log_space_steps) > 100

    def test_matches_the_oracle(self):
        rng = np.random.default_rng(16)
        lengths = np.array([3, 1, 4, 2])
        trans = TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3))
        batch = TokenBatch(rng.normal(size=(10, 3)), lengths, rng.integers(0, 3, 10))
        loss, grads = loss_and_gradients(batch, trans)
        bf_loss, bf = brute_force_loss_and_gradients(batch, trans)
        assert loss == pytest.approx(bf_loss, abs=1e-12)
        np.testing.assert_allclose(grads.emissions, np.vstack(bf.emissions), atol=1e-12)
        np.testing.assert_allclose(grads.transitions, bf.transitions, atol=1e-12)
        np.testing.assert_allclose(grads.start, bf.start, atol=1e-12)

    def test_bad_batch_is_refused_naming_the_sentence(self):
        """The engine and the enumeration oracle refuse each bad batch with
        the same message."""
        trans = TransitionMatrix.zeros(3)
        em = np.zeros((4, 3))
        for batch, message in (
            (TokenBatch(em, [2, 2], [0, 1, 3, 0]),
             r"^sentence 2: gold path has a tag index out of range \[0, 3\)"),
            (TokenBatch(em, [1, 3], [0, -1, 0, 0]),
             r"^sentence 2: gold path has a tag index out of range \[0, 3\)"),
            (TokenBatch(em, [2, -1, 3], [0] * 4), r"^sentence 2: gold path of length -1"),
            (TokenBatch(em, [2, 2], [0.0] * 4), r"^gold tags of shape \(4,\) and dtype float64"),
            (TokenBatch(em, [2, 2], [0, 0, 0]), r"^gold tags of shape \(3,\)"),
            (TokenBatch(em, [2, 3], [0] * 5), r"^emissions of shape \(4, 3\), need \(5, 3\)"),
            (TokenBatch(np.zeros((4, 2)), [2, 2], [0] * 4), r"need \(4, 3\)"),
            (TokenBatch(em, [2.0, 2.0], [0] * 4), r"^lengths of shape \(2,\) and dtype float64"),
            (TokenBatch(em, 4, [0] * 4), r"^lengths of shape \(\) and dtype int64"),
            (TokenBatch(em, [[2, 2]], [0] * 4), r"^lengths of shape \(1, 2\) and dtype int64"),
            (TokenBatch(em, np.array([2**64 - 1, 5], dtype=np.uint64), [0] * 4),
             r"^lengths of shape \(2,\) and dtype uint64, need \(B,\) integers with an intp sum$"),
            (TokenBatch(np.zeros((5, 3)), [2, 2], [0] * 5),
             r"^emissions of shape \(5, 3\), need \(4, 3\) for 2 sentences$"),
        ):
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
                with pytest.raises(ValueError, match=message):
                    fn(batch, trans)
        with pytest.raises(ValueError, match="empty batch"):
            nll_loss(TokenBatch(np.zeros((0, 3)), [], []), trans)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_unsigned_lengths_give_the_signed_bits(self, dtype):
        rng = np.random.default_rng(17)
        trans = TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3))
        em, tags = rng.normal(size=(6, 3)), rng.integers(0, 3, 6)
        signed = TokenBatch(em, [2, 1, 3], tags)
        unsigned = TokenBatch(em, np.array([2, 1, 3], dtype=dtype), tags)
        loss, grads = loss_and_gradients(signed, trans)
        u_loss, u_grads = loss_and_gradients(unsigned, trans)
        assert same_bits(loss, u_loss) and same_bits(nll_loss(unsigned, trans), loss)
        for a, b in ((grads.emissions, u_grads.emissions), (grads.transitions, u_grads.transitions),
                     (grads.start, u_grads.start)):
            assert same_bits(a, b)
        assert brute_force_loss_and_gradients(unsigned, trans)[0] == pytest.approx(loss, abs=1e-12)

    def test_lengths_whose_sum_wraps_to_n_are_refused(self):
        """[2**63 - 1, 2**63 - 1, 4] sums to 2 in int64, the number of
        emission rows, so it once passed every check and np.repeat crashed
        the interpreter; it runs in a child process for that reason."""
        code = (
            "import numpy as np\n"
            "from mcrf.crf import TokenBatch, TransitionMatrix, nll_loss\n"
            "batch = TokenBatch(np.zeros((2, 3)), [2**63 - 1, 2**63 - 1, 4], [0, 0])\n"
            "try:\n"
            "    nll_loss(batch, TransitionMatrix.zeros(3))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(mcrf.crf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, (done.returncode, done.stderr)
        assert done.stdout == (
            "lengths of shape (3,) and dtype int64, need (B,) integers with an intp sum\n"
        )


class TestNonFinite:
    """No entry point returns a NaN or infinite loss or log Z, or a path
    chosen among NaN scores: each raises a ValueError naming the sentence."""

    TRANS = TransitionMatrix.zeros(3)

    def test_nan_loss_names_the_sentence(self):
        emissions = np.zeros((4, 3))
        emissions[3, 1] = np.nan
        batches = (
            TokenBatch(emissions, [2, 2], [0] * 4),
            [(emissions[:2], [0, 0]), (emissions[2:], [0, 0])],
        )
        for batch in batches:
            for fn in (nll_loss, loss_and_gradients):
                with pytest.raises(ValueError, match="^sentence 2: loss of nan"):
                    fn(batch, self.TRANS)

    def test_infinite_loss_and_log_z_are_refused(self):
        emissions = np.zeros((2, 3))
        emissions[1] = -np.inf  # no path has a finite score
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^sentence 1: loss of nan"):
                nll_loss([(emissions, [0, 0])], self.TRANS)
            with pytest.raises(ValueError, match="^sentence 1: log Z of nan"):
                log_partition(emissions, self.TRANS)
        gold_cut = TransitionMatrix(np.array([[-np.inf, 0, 0], [0, 0, 0], [0, 0, 0]]), np.zeros(3))
        with pytest.raises(ValueError, match="^sentence 1: loss of inf"):
            nll_loss([(np.zeros((2, 3)), [0, 0])], gold_cut)
        assert math.isfinite(nll_loss([(np.zeros((2, 3)), [0, 1])], gold_cut))

    def test_nan_path_scores_name_the_sentence(self):
        """viterbi returned [0, 0] for all-nan emissions."""
        with pytest.raises(ValueError, match="^sentence 1: a path score is nan"):
            viterbi(np.full((2, 3), np.nan), self.TRANS)
        corpus = [np.zeros((3, 3)), np.zeros((1, 3)), np.zeros((2, 3))]
        corpus[2][0, 2] = np.nan  # at a first position no backward step carries it
        with pytest.raises(ValueError, match="^sentence 3: a path score is nan"):
            viterbi_batch(corpus, self.TRANS)
        scores = np.zeros((3, 3))
        scores[0, 2] = np.nan
        with pytest.raises(ValueError, match="^sentence 1: a path score is nan"):
            viterbi_batch(corpus[:1], TransitionMatrix(scores, np.zeros(3)))
        start = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="^sentence 1: a start score is nan"):
            viterbi(np.zeros((1, 3)), TransitionMatrix(np.zeros((3, 3)), start))

    def test_infinite_path_scores_are_refused(self):
        """Under rules an illegal start reads -inf, and -inf + inf is nan:
        an inf emission on I-A gave the illegal path [I-A, I-A]."""
        rules = build_tagset(Scheme.BIO, ["A"]).rules
        emissions = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, np.inf]])
        with pytest.raises(ValueError, match="^sentence 1: a path score is inf"):
            viterbi(emissions, self.TRANS, rules)
        with pytest.raises(ValueError, match="^sentence 1: a start score is inf"):
            viterbi(np.zeros((1, 3)), TransitionMatrix(np.zeros((3, 3)), np.array([np.inf, 0, 0])))
        emissions[1, 2] = -np.inf  # a tag ruled out: fine
        assert viterbi(emissions, self.TRANS, rules) == [0, 0]

    def test_nan_entries_the_decoder_never_reads_are_ignored(self):
        """Under rules an illegal entry is never read, and a sentence of one
        position reads no transition."""
        rules = TransitionRuleSet(frozenset({(0, 2)}), frozenset({1}))
        scores = np.zeros((3, 3))
        scores[0, 2] = np.nan
        trans = TransitionMatrix(scores, np.array([0.0, np.nan, 0.0]))
        assert viterbi(np.zeros((3, 3)), trans, rules) == [0, 0, 0]
        assert viterbi(np.zeros((1, 3)), TransitionMatrix(scores, np.zeros(3))) == [0]


class TestViterbi:
    def test_zero_transitions_reduce_to_argmax(self):
        rng = np.random.default_rng(47)
        emissions = rng.normal(size=(6, 4))
        path = viterbi(emissions, TransitionMatrix.zeros(4))
        assert path == [int(i) for i in emissions.argmax(axis=1)]

    def test_all_zero_instance_breaks_ties_to_first_tag(self):
        assert viterbi(np.zeros((3, 3)), TransitionMatrix.zeros(3)) == [0, 0, 0]

    def test_matches_brute_force_path_and_score(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            emissions, trans = random_instance(rng)
            path = viterbi(emissions, trans)
            best_path, best_score = brute_force_best(emissions, trans)
            assert path == best_path
            assert path_score(emissions, trans, path) == best_score

    def test_matches_pure_python_enumeration(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            emissions, trans = random_instance(rng, T=4, d=3)
            expected, _ = python_best_path(
                emissions.tolist(), trans.scores.tolist(), trans.start.tolist()
            )
            assert viterbi(emissions, trans) == expected

    def test_tie_break_is_lexicographic(self):
        """Tags 0 and 1 are exchangeable here; the smaller indices must win."""
        emissions = np.zeros((4, 3))
        emissions[:, 2] = -1.0
        path = viterbi(emissions, TransitionMatrix.zeros(3))
        assert path == [0, 0, 0, 0]
        # Force position 1 to tag 1; the rest should still prefer 0.
        emissions[1] = [-1.0, 0.0, -1.0]
        assert viterbi(emissions, TransitionMatrix.zeros(3)) == [0, 1, 0, 0]

    def test_transitions_can_override_emissions(self):
        emissions = np.array([[1.0, 0.0], [1.0, 0.0]])
        scores = np.array([[-5.0, 0.0], [0.0, 0.0]])
        assert viterbi(emissions, TransitionMatrix(scores, np.zeros(2))) == [0, 1]

    def test_single_position(self):
        emissions = np.array([[0.0, 3.0, 1.0]])
        trans = TransitionMatrix.zeros(3)
        assert viterbi(emissions, trans) == [1]
        assert brute_force_best(emissions, trans) == ([1], 3.0)

    def test_malformed_sentence_is_named(self):
        trans = TransitionMatrix.zeros(3)
        good = np.zeros((2, 3))
        for bad in (np.zeros((2, 4)), np.zeros((0, 3)), np.zeros(3), np.zeros((1, 1, 3))):
            message = f"sentence 2: emissions of shape {bad.shape}, need (T >= 1, 3)"
            with pytest.raises(ValueError, match=re.escape(message)):
                viterbi_batch([good, bad, good], trans)

    def test_empty_corpus_decodes_to_no_paths(self):
        assert viterbi_batch([], TransitionMatrix.zeros(3)) == []

    def test_rule_set_without_a_legal_path_is_refused(self):
        """The legal-moves step needs a legal successor for every tag and a
        legal start; a rule set without one is named, not decoded."""
        trans, emissions = TransitionMatrix.zeros(3), [np.zeros((2, 3))]
        stuck = TransitionRuleSet(frozenset({(1, 0), (1, 1), (1, 2)}), frozenset())
        with pytest.raises(ValueError, match="tag 1 has no legal successor"):
            viterbi_batch(emissions, trans, stuck)
        closed = TransitionRuleSet(frozenset(), frozenset({0, 1, 2}))
        with pytest.raises(ValueError, match="no tag is a legal start"):
            viterbi_batch(emissions, trans, closed)

    def test_illegal_entries_are_never_read(self):
        """Under rules, NaN in every illegal entry leaves the paths as they
        are with the entries at any finite value."""
        rng = np.random.default_rng(61)
        tagset = build_tagset(Scheme.BIOES, ["LOC", "PER"])
        rules, d = tagset.rules, tagset.size
        illegal_pair, illegal_start = rules.tables(d)
        emissions = [rng.normal(size=(T, d)) for T in (1, 2, 5, 9)]
        trans = TransitionMatrix(rng.normal(size=(d, d)), rng.normal(size=d))
        expected = viterbi_batch(emissions, trans, rules)
        for value in (np.nan, 1e300, -1e300):
            poisoned = trans.copy()
            poisoned.scores[illegal_pair] = value
            poisoned.start[illegal_start] = value
            assert viterbi_batch(emissions, poisoned, rules) == expected


class TestBruteForceRestriction:
    def test_restricted_partition_hand_value(self):
        """BIO with one type, T=2, all scores zero: 9 paths total, 4 contain a
        violation (I at the start: IO, IB, II; plus OI), so log Z = log 5."""
        ts = build_tagset(Scheme.BIO, ["PER"])
        rules = illegal_transition_set(ts)
        value = brute_force_log_partition(
            np.zeros((2, 3)), TransitionMatrix.zeros(3), rules=rules
        )
        assert value == pytest.approx(math.log(5.0), abs=1e-12)

    def test_empty_rule_set_equals_unrestricted(self):
        rng = np.random.default_rng(61)
        emissions, trans = random_instance(rng, T=3, d=3)
        empty = TransitionRuleSet(frozenset(), frozenset())
        assert brute_force_log_partition(
            emissions, trans, rules=empty
        ) == pytest.approx(brute_force_log_partition(emissions, trans), abs=1e-12)

    def test_restricted_best_avoids_illegal_paths(self):
        """Emissions overwhelmingly favor an illegal path; the restricted best
        must be legal while the unrestricted best is not."""
        ts = build_tagset(Scheme.BIO, ["PER"])
        rules = illegal_transition_set(ts)
        emissions = np.zeros((3, 3))
        emissions[:, ts.index_of("I-PER")] = 10.0
        trans = TransitionMatrix.zeros(3)
        free_path, _ = brute_force_best(emissions, trans)
        assert free_path == [ts.index_of("I-PER")] * 3
        legal_path, _ = brute_force_best(emissions, trans, rules=rules)
        from mcrf.schemes import first_violation

        assert first_violation(ts, legal_path) is None
        assert legal_path[0] == ts.index_of("B-PER")

    def test_restricted_respects_start_rules_at_length_one(self):
        ts = build_tagset(Scheme.BIO, ["PER"])
        rules = illegal_transition_set(ts)
        emissions = np.zeros((1, 3))
        emissions[0, ts.index_of("I-PER")] = 5.0
        path, _ = brute_force_best(
            emissions, TransitionMatrix.zeros(3), rules=rules
        )
        assert path == [0]

    def test_size_guard(self):
        with pytest.raises(SizeError):
            brute_force_log_partition(np.zeros((8, 10)), TransitionMatrix.zeros(10))

    def test_chunked_enumeration_crosses_chunk_boundaries(self):
        """4^9 = 262144 paths spans multiple chunks; the DP must still agree."""
        rng = np.random.default_rng(67)
        emissions = rng.uniform(-1, 1, size=(9, 4))
        trans = TransitionMatrix(rng.uniform(-1, 1, size=(4, 4)), rng.uniform(-1, 1, size=4))
        assert brute_force_log_partition(emissions, trans) == pytest.approx(
            log_partition(emissions, trans), abs=1e-9
        )
        assert brute_force_best(emissions, trans)[0] == viterbi(emissions, trans)


class TestTransitionMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            TransitionMatrix(np.zeros((2, 2)), np.zeros(3))

    def test_copy_is_independent(self):
        trans = TransitionMatrix.zeros(2)
        other = trans.copy()
        other.scores[0, 0] = 1.0
        other.start[1] = 2.0
        assert trans.scores[0, 0] == 0.0
        assert trans.start[1] == 0.0
