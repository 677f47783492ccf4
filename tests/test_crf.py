"""Linear-chain CRF core: scores, partition, gradients, Viterbi, oracles."""

import itertools
import math
import os
import pickle
import re
import subprocess
import sys
from copy import deepcopy
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
    _batch_nll,
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
from mcrf.masking import MaskSpec, apply_mask, constrained_viterbi, decode
from mcrf.schemes import (
    Scheme,
    TransitionRuleSet,
    build_tagset,
    first_violation,
    illegal_transition_set,
)


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
    log_z, unary, counts = _forward_backward(emissions[:, None], lengths, trans.table[None], True)
    return unary[:, 0, 0], counts[0], float(log_z[0, 0])


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

    def test_stacked_rows_have_the_bits_of_path_score(self):
        """Row j of _scores over k instances of one shape has the bits of
        path_score on instance j, and of its sums written out: (emission sum
        + move sum) + start, at lengths up to 89 (numpy sums 8 or more terms
        pairwise), d up to 41 and scores up to 1e5."""
        rng = np.random.default_rng(13)
        for _ in range(300):
            k, T, d = int(rng.integers(1, 6)), int(rng.integers(1, 90)), int(rng.integers(2, 42))
            scale = 10 ** rng.uniform(-2, 5)
            emissions = rng.normal(scale=scale, size=(k, T, d))
            tables = rng.normal(scale=scale, size=(k, d + 1, d))
            paths = rng.integers(0, d, size=(k, T))
            rows = mcrf.crf._scores(emissions, tables, paths).tolist()
            for em, table, path, row in zip(emissions, tables, paths, rows):
                summed = np.sum(em[np.arange(T), path]) + np.sum(table[path[:-1], path[1:]])
                summed += table[d, path[0]]
                alone = path_score(em, TransitionMatrix(table[:d], table[d]), path.tolist())
                assert row.hex() == alone.hex() == float(summed).hex()

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
        assert logsumexp(x, axis=0) == pytest.approx(math.log(sum(math.exp(v) for v in x)))

    def test_survives_large_magnitudes(self):
        assert logsumexp(np.array([1000.0, 1000.0]), axis=0) == pytest.approx(1000.0 + math.log(2.0))
        assert logsumexp(np.array([-1e4, -1e4]), axis=0) == pytest.approx(-1e4 + math.log(2.0))

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
        """At T = 1 to 4, and at T = 8 to 10, where a numpy sum over the
        positions would add pairwise."""
        rng = np.random.default_rng(5)
        instances = [random_instance(rng, T=int(rng.integers(1, 5)), d=3) for _ in range(20)]
        instances += [random_instance(rng, T, d) for T in (8, 9, 10) for d in (2, 3)]
        for emissions, trans in instances:
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


class TestPerSentenceLosses:
    """_batch_nll's (B,) vector: the finite-difference checks read their
    losses from it, one engine call per perturbed array."""

    def test_each_is_nll_loss_on_its_sentence(self):
        """Bitwise at d <= 3, where a row of the batch's (B, d) @ (d, d)
        product has the bits of the (1, d) product, and there the batch loss
        is the sum of those NLLs / B; within 1e-12 relative above, where
        they differ in the last bits. Padded lengths stay under 8, the
        length from which numpy's sum adds in another order."""
        rng = np.random.default_rng(18)
        for d in (2, 3, 4, 7, 13, 41):
            for _ in range(20):
                lengths = rng.integers(1, 8, size=int(rng.integers(1, 30)))
                trans = TransitionMatrix(rng.uniform(-2, 2, (d, d)), rng.uniform(-2, 2, d))
                pairs = [(rng.uniform(-2, 2, (T, d)), list(rng.integers(0, d, T))) for T in lengths]
                alone = np.array([nll_loss([pair], trans) for pair in pairs])
                tokens = TokenBatch(
                    np.concatenate([em for em, _ in pairs]), lengths,
                    np.concatenate([gold for _, gold in pairs]),
                )
                for batch in (pairs, tokens):
                    loss, losses = _batch_nll(batch, trans.table[None], False)
                    assert loss[0] == loss_and_gradients(batch, trans)[0]
                    losses = losses[0]
                    if d <= 3:
                        assert same_bits(losses, alone), d
                        mean = (alone / len(alone)).sum().hex()
                        assert nll_loss(batch, trans).hex() == mean
                        assert loss_and_gradients(batch, trans)[0].hex() == mean
                    else:
                        np.testing.assert_allclose(losses, alone, rtol=1e-12, atol=0)


class TestModelAxis:
    """The engine's leading model axis: N transition matrices over one batch,
    or each over a batch of its own, as model-major blocks of rows. Each
    model's numbers keep the bits of a call with it alone, so a stack of
    perturbed copies gives each copy's nll_loss in one call (the verify
    battery's transition differences)."""

    @staticmethod
    def stacked_and_alone(emissions, lengths, scores, start):
        """The engine over N (scores, start) models stacked as their
        (N, d + 1, d) tables, and over each model's table alone."""
        tables = np.concatenate([scores, start[:, None]], axis=1)
        stacked = _forward_backward(emissions, lengths, tables, True)
        alone = [_forward_backward(emissions, lengths, tables[n : n + 1], True) for n in range(len(tables))]
        return stacked, alone

    def test_each_model_has_the_bits_of_its_own_call(self):
        """log Z (N, B), marginals (T, N, B, d) and counts (N, d, d) over
        random shapes, batches padded past some sentences' ends."""
        rng = np.random.default_rng(24)
        for _ in range(150):
            d, B, T, N = (int(rng.integers(lo, hi)) for lo, hi in ((2, 8), (1, 6), (1, 9), (1, 12)))
            lengths = rng.integers(1, T + 1, size=B)
            lengths[0] = T
            emissions = rng.normal(scale=3.0, size=(T, B, d))
            emissions[np.arange(T)[:, None] >= lengths] = 0.0  # zero-padded, as _padded pads
            scores, start = rng.normal(size=(N, d, d)), rng.normal(size=(N, d))
            (log_z, gamma, counts), alone = self.stacked_and_alone(emissions, lengths, scores, start)
            assert log_z.shape == (N, B) and gamma.shape == (T, N, B, d) and counts.shape == (N, d, d)
            for n, (one_z, one_gamma, one_counts) in enumerate(alone):
                assert same_bits(log_z[n], one_z[0])
                assert same_bits(gamma[:, n], one_gamma[:, 0])
                assert same_bits(counts[n], one_counts[0])

    def test_a_log_space_step_in_one_model_leaves_the_others_alone(self, monkeypatch):
        """A column of -1e3 in model 2 underflows its v_t, so its rows alone
        take the log-space step; every model keeps its own call's bits."""
        guarded_rows = []
        log_space = mcrf.crf.logsumexp

        def spy(x, axis=None):
            guarded_rows.append(len(x))
            return log_space(x, axis)

        monkeypatch.setattr(mcrf.crf, "logsumexp", spy)
        rng = np.random.default_rng(7)
        T, B, d, N = 5, 3, 4, 4
        emissions = rng.normal(size=(T, B, d))
        scores, start = rng.normal(size=(N, d, d)), rng.normal(size=(N, d))
        scores[2, :, 1] = -1e3
        emissions[:, :, 1] = 900.0  # tag 1 leads by far: the column's moves are all its mass
        lengths = np.array([5, 3, 5])
        (log_z, gamma, counts), alone = self.stacked_and_alone(emissions, lengths, scores, start)
        # each step of the stacked call redoes one model's B rows, as model 2 alone does
        assert guarded_rows == [B] * 2 * (T - 1)
        for n, (one_z, one_gamma, one_counts) in enumerate(alone):
            assert same_bits(log_z[n], one_z[0])
            assert same_bits(gamma[:, n], one_gamma[:, 0])
            assert same_bits(counts[n], one_counts[0])
        assert np.isfinite(log_z).all() and np.isfinite(counts).all()

    @staticmethod
    def perturbed_copies(trans, h=1e-5):
        """Each transition and start entry + h, then - h, as verify perturbs them."""
        copies = []
        for arr in ("scores", "start"):
            for idx in np.ndindex(getattr(trans, arr).shape):
                for step in (h, -h):
                    copy = trans.copy()
                    getattr(copy, arr)[idx] += step
                    copies.append(copy)
        return copies

    def test_stacked_losses_are_nll_loss_per_copy_at_d_3(self):
        """Random copies and perturbed ones, some masked at -1e4 (BIO with
        one type), over batches of one to four sentences."""
        spec = MaskSpec(build_tagset(Scheme.BIO, ["A"]).rules, mask_value=-1e4)
        rng = np.random.default_rng(3)
        for trial in range(40):
            B = int(rng.integers(1, 5))
            batch = [
                (rng.uniform(-2, 2, (T, 3)), [int(v) for v in rng.integers(0, 3, T)])
                for T in rng.integers(1, 7, size=B)
            ]
            trans = TransitionMatrix(rng.uniform(-2, 2, (3, 3)), rng.uniform(-2, 2, 3))
            copies = self.perturbed_copies(apply_mask(trans, spec) if trial % 2 else trans)
            copies += [apply_mask(copy, spec) for copy in copies[:6]]
            losses, nlls = _batch_nll(batch, np.stack([c.table for c in copies]), False)
            assert same_bits(losses, np.array([nll_loss(batch, c) for c in copies]))
            for copy, row in zip(copies, nlls):
                assert same_bits(row, _batch_nll(batch, copy.table[None], False)[1][0])

    def test_the_first_refused_copy_is_refused_as_nll_loss_refuses_it(self):
        rng = np.random.default_rng(5)
        batch = [(rng.normal(size=(3, 3)), [0, 1, 2]), (rng.normal(size=(2, 3)), [2, 2])]
        copies = [TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3)) for _ in range(6)]
        copies[2].scores[1, 2] = np.inf
        copies[4].start[0] = np.nan
        with pytest.raises(ValueError) as alone:
            nll_loss(batch, copies[2])
        assert str(alone.value).startswith("sentence 1: a path score is inf")
        with pytest.raises(ValueError) as stacked:
            _batch_nll(batch, np.stack([c.table for c in copies]), False)
        assert str(stacked.value) == str(alone.value)

    @staticmethod
    def per_model_batch(rng, N, d, B):
        """N batches of B sentences of 1 to 7 tokens, one per model, that
        share their lengths and gold tags, with each model's table."""
        lengths = rng.integers(1, 8, size=B)
        n = int(lengths.sum())
        emissions = rng.uniform(-3, 3, size=(N, n, d))
        tables = rng.uniform(-2, 2, size=(N, d + 1, d))
        return TokenBatch(emissions, lengths, rng.integers(0, d, n)), tables

    def test_per_model_batches_have_the_bits_of_their_own_calls(self):
        """(N, tokens, d) emissions give each model's losses and (B,) NLLs
        the bits of a call with that model and its batch alone, at d = 3
        (where they are each sentence's own nll_loss too) and at d = 7."""
        rng = np.random.default_rng(33)
        for d in (3, 7):
            for _ in range(30):
                N, B = int(rng.integers(1, 6)), int(rng.integers(2, 9))
                batch, tables = self.per_model_batch(rng, N, d, B)
                losses, nlls = _batch_nll(batch, tables, False)
                assert losses.shape == (N,) and nlls.shape == (N, B)
                for m in range(N):
                    own = TokenBatch(batch.emissions[m], batch.lengths, batch.tags)
                    one_loss, one_nlls = _batch_nll(own, tables[m : m + 1], False)
                    assert same_bits(losses[m : m + 1], one_loss)
                    assert same_bits(nlls[m : m + 1], one_nlls)
                    if d == 3:
                        trans = TransitionMatrix(tables[m, :d], tables[m, d])
                        alone = [nll_loss([pair], trans) for pair in own]
                        assert same_bits(nlls[m], np.array(alone))

    def test_the_first_refused_model_and_sentence_are_named(self):
        """Model 1's sentences 3 and 4 and model 3's sentence 1 are not
        finite: the first model wins, named for its first such sentence with
        the text of its own call, which reads that model's own emissions (a
        NaN there, where a finite sentence would read as an overflow)."""
        rng = np.random.default_rng(9)
        batch, tables = self.per_model_batch(rng, 4, 3, 4)
        bounds = np.cumsum(batch.lengths)
        batch.emissions[1, bounds[1]] = np.nan  # model 1, sentence 3
        batch.emissions[1, bounds[2]] = np.inf  # model 1, sentence 4
        batch.emissions[3, 0, 0] = np.inf  # model 3, sentence 1
        with pytest.raises(ValueError) as alone:
            _batch_nll(TokenBatch(batch.emissions[1], batch.lengths, batch.tags), tables[1:2], False)
        assert str(alone.value).startswith("sentence 3: loss of nan")
        with pytest.raises(ValueError) as stacked:
            _batch_nll(batch, tables, False)
        assert str(stacked.value) == str(alone.value)

    @staticmethod
    def assert_own_gradients(batch, tables, losses, grads):
        """Each model's loss and gradients have the float.hex of its own
        loss_and_gradients call, over its own batch of a per-model one."""
        d = tables.shape[2]
        assert losses.shape == (len(tables),) and len(grads) == len(tables)
        for m, (loss, model) in enumerate(zip(losses, grads)):
            own = batch
            if batch.emissions.ndim == 3:
                own = TokenBatch(batch.emissions[m], batch.lengths, batch.tags)
            one_loss, one = loss_and_gradients(own, TransitionMatrix(tables[m, :d], tables[m, d]))
            assert float(loss).hex() == one_loss.hex()
            assert same_bits(model.emissions, one.emissions)
            assert same_bits(model.transitions, one.transitions)
            assert same_bits(model.start, one.start)

    def test_per_model_gradients_have_the_bits_of_their_own_calls(self):
        """(N, tokens, d) emissions with gradients give each model the loss
        and gradients of its own call, at N 1 to 8, d 2 to 7 and B 1 to 4;
        in every third batch one model's column of -1e3 sends its rows
        through the log-space step. A shared batch under N models gives each
        the same."""
        rng = np.random.default_rng(35)
        guarded = 0
        for trial in range(120):
            N, d, B = int(rng.integers(1, 9)), int(rng.integers(2, 8)), int(rng.integers(1, 5))
            batch, tables = self.per_model_batch(rng, N, d, B)
            if trial % 3 == 0:
                tables[int(rng.integers(N)), :d, 1] = -1e3
                batch.emissions[..., 1] = 900.0  # tag 1 leads by far: v_t underflows
                guarded += 1
            self.assert_own_gradients(batch, tables, *_batch_nll(batch, tables, True))
            shared = TokenBatch(batch.emissions[0], batch.lengths, batch.tags)
            self.assert_own_gradients(shared, tables, *_batch_nll(shared, tables, True))
        assert guarded == 40

    def test_a_log_space_step_keeps_each_models_own_gradients(self, monkeypatch):
        """Model 2 of 4 takes the log-space step at every position and the
        other three never do; each model's gradients keep its own bits."""
        guarded_rows = []
        log_space = mcrf.crf.logsumexp

        def spy(x, axis=None):
            guarded_rows.append(len(x))
            return log_space(x, axis)

        monkeypatch.setattr(mcrf.crf, "logsumexp", spy)
        rng = np.random.default_rng(8)
        emissions, tables = rng.normal(size=(4, 15, 4)), rng.normal(size=(4, 5, 4))
        emissions[2, :, 1] = 900.0  # tag 1 leads by far in model 2's batch
        tables[2, :4, 1] = -1e3
        batch = TokenBatch(emissions, [5, 5, 5], rng.integers(0, 4, 15))
        losses, grads = _batch_nll(batch, tables, True)
        assert guarded_rows == [3] * 4  # model 2's B rows, at each of T - 1 steps
        self.assert_own_gradients(batch, tables, losses, grads)

    def test_the_first_refused_model_is_named_with_its_own_gradient_calls_text(self):
        """Model 1's sentences 3 and 4 and model 3's sentence 1 are not
        finite: the gradient form refuses model 1, named for its sentence 3
        with the text of its own loss_and_gradients call."""
        rng = np.random.default_rng(9)
        batch, tables = self.per_model_batch(rng, 4, 3, 4)
        bounds = np.cumsum(batch.lengths)
        batch.emissions[1, bounds[1]] = np.nan
        batch.emissions[1, bounds[2]] = np.inf
        batch.emissions[3, 0, 0] = np.inf
        own = TokenBatch(batch.emissions[1], batch.lengths, batch.tags)
        with pytest.raises(ValueError) as alone:
            loss_and_gradients(own, TransitionMatrix(tables[1, :3], tables[1, 3]))
        assert str(alone.value).startswith("sentence 3: loss of nan")
        with pytest.raises(ValueError) as stacked:
            _batch_nll(batch, tables, True)
        assert str(stacked.value) == str(alone.value)

    def test_per_model_emissions_need_one_batch_per_model_and_no_gradients(self):
        batch, tables = self.per_model_batch(np.random.default_rng(2), 3, 3, 2)
        n = len(batch.tags)
        wrong = f"emissions of shape (3, {n}, 3), need (2, {n}, 3) for 2 sentences"
        with pytest.raises(ValueError, match=re.escape(wrong)):
            _batch_nll(batch, tables[:2], False)
        with pytest.raises(ValueError, match=re.escape(wrong.replace("need (2,", "need (1,"))):
            nll_loss(batch, TransitionMatrix.zeros(3))
        shared = f"emissions of shape (3, {n}, 3), need ({n}, 3) for 2 sentences"
        with pytest.raises(ValueError, match=re.escape(shared)):
            loss_and_gradients(batch, TransitionMatrix.zeros(3))


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
        # the enumeration reads the list of the batch's sentences through the
        # same conversion, to the same bits
        pairs = [(em, gold.tolist()) for em, gold in batch]
        list_loss, list_bf = brute_force_loss_and_gradients(pairs, trans)
        assert same_bits(list_loss, bf_loss)
        assert len(list_bf.emissions) == len(bf.emissions) == len(lengths)
        for a, b in zip(list_bf.emissions, bf.emissions):
            assert same_bits(a, b)
        assert same_bits(list_bf.transitions, bf.transitions)
        assert same_bits(list_bf.start, bf.start)

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
        """The culprit was guessed from the emissions and log Z, so a -inf
        emission in sentence 1, whose own loss is finite, took the blame for
        the nan in sentence 2; the first non-finite per-sentence NLL names it."""
        emissions = np.zeros((4, 3))
        emissions[3, 1] = np.nan
        blameless = emissions.copy()
        blameless[0, 2] = -np.inf
        blameless[3] = np.nan
        batches = (
            TokenBatch(emissions, [2, 2], [0] * 4),
            [(emissions[:2], [0, 0]), (emissions[2:], [0, 0])],
            TokenBatch(blameless, [2, 2], [0] * 4),
            [(blameless[:2], [0, 0]), (blameless[2:], [0, 0])],
        )
        for batch in batches:
            for fn in (nll_loss, loss_and_gradients):
                with pytest.raises(ValueError, match="^sentence 2: loss of nan"):
                    fn(batch, self.TRANS)

    def test_a_refused_batch_quotes_its_sentence_own_nll(self):
        """Sentence 1's gold path crosses a -inf emission (NLL inf) and
        sentence 2 holds a NaN. The refusal named sentence 1 but quoted the
        batch loss, nan; it now quotes sentence 1's own NLL, as the sentence
        alone and the enumeration do."""
        a, b = np.zeros((2, 3)), np.zeros((2, 3))
        a[0, 0], b[1, 1] = -np.inf, np.nan
        message = "^sentence 1: loss of inf, need finite emissions and transition scores$"
        with pytest.raises(ValueError, match=message):
            nll_loss([(a, [0, 0])], self.TRANS)
        batches = ([(a, [0, 0]), (b, [0, 0])], TokenBatch(np.vstack([a, b]), [2, 2], [0] * 4))
        for batch in batches:
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
                with pytest.raises(ValueError, match=message):
                    fn(batch, self.TRANS)

    def test_batch_sums_past_the_float_range_average_the_nlls(self):
        """Two sentences of 1e308 emissions each have NLL 0.0, alone and by
        enumeration, but the batch sums overflowed: a RuntimeWarning (an
        error in these tests), then 'sentence 1: loss of nan'. When every
        NLL is finite the loss is their mean, and so is the gradient."""
        pair = (np.full((1, 3), 1e308), [0])
        alone, alone_grads = loss_and_gradients([pair], self.TRANS)
        assert alone == 0.0
        for batch in ([pair, pair], TokenBatch(np.full((2, 3), 1e308), [1, 1], [0, 0])):
            loss, grads = loss_and_gradients(batch, self.TRANS)
            assert loss == nll_loss(batch, self.TRANS) == 0.0
            assert brute_force_loss_and_gradients(batch, self.TRANS)[0] == 0.0
            for row in np.vstack(grads.emissions):  # each half the batch's weight
                assert same_bits(2 * row, alone_grads.emissions[0][0])
            assert same_bits(grads.transitions, alone_grads.transitions)
            assert same_bits(grads.start, alone_grads.start)

    def test_a_huge_log_z_does_not_round_the_other_nlls_away(self):
        """The batch loss was (sum of log Z - sum of gold scores) / B, and the
        zero sentence's log 9 vanished into the 2e307 sums: 0.0, where the
        two sentences alone give 2.1972 and 0.0. When a log Z reaches 2^52
        the loss is the mean of the per-sentence NLLs, as the enumeration's."""
        pairs = [(np.zeros((2, 3)), [0, 1]), (np.full((2, 3), 1e307), [2, 0])]
        assert nll_loss(pairs[:1], self.TRANS) == 2 * math.log(3)
        assert nll_loss(pairs[1:], self.TRANS) == 0.0
        tokens = TokenBatch(np.vstack([em for em, _ in pairs]), [2, 2], [0, 1, 2, 0])
        for batch in (pairs, tokens):
            expected = brute_force_loss_and_gradients(batch, self.TRANS)[0]
            assert expected == pytest.approx(math.log(3))
            assert nll_loss(batch, self.TRANS) == loss_and_gradients(batch, self.TRANS)[0] == expected
        for huge in (-1e307, 2.0**60):  # of either sign, and well inside the float range
            batch = [pairs[0], (np.full((2, 3), huge), [2, 0])]
            expected = (2 * math.log(3) + nll_loss(batch[1:], self.TRANS)) / 2
            assert nll_loss(batch, self.TRANS) == expected

    def test_the_oracle_gradient_survives_a_log_z_that_lost_its_log_n(self):
        """At 1e308, log Z rounds to the largest score and loses its log 3:
        every path got weight exp(0) = 1, and the enumeration's emission
        gradient was [0, 1, 1]. It now divides by the weights' sum, as the
        engine's marginals do, alone and beside an ordinary sentence."""
        thirds = np.array([-2 / 3, 1 / 3, 1 / 3])
        batch = [(np.full((1, 3), 1e308), [0])]
        for fn in (loss_and_gradients, brute_force_loss_and_gradients):
            grads = fn(batch, self.TRANS)[1]
            np.testing.assert_allclose(grads.emissions[0][0], thirds, rtol=1e-15)
            np.testing.assert_allclose(grads.start, thirds, rtol=1e-15)
        mixed = [(np.zeros((2, 3)), [0, 1]), (np.full((2, 3), 1e307), [2, 0])]
        engine = loss_and_gradients(mixed, self.TRANS)[1]
        oracle = brute_force_loss_and_gradients(mixed, self.TRANS)[1]
        for ours, theirs in zip(oracle.emissions, engine.emissions):
            np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(oracle.transitions, engine.transitions, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(oracle.start, engine.start, rtol=1e-12, atol=1e-15)

    def test_plus_inf_gets_one_verdict_from_engine_and_enumeration(self):
        """The engine's shifted recursion read +inf as nan (log Z of nan,
        loss of nan) and the enumeration as inf (log Z of inf, loss of inf);
        both now name it as viterbi and brute_force_best do."""
        message = "a path score is inf, need finite emissions and transition scores"
        for fn in (log_partition, brute_force_log_partition):
            with pytest.raises(ValueError, match=f"^sentence 1: {message}$"):
                fn(np.full((2, 3), np.inf), self.TRANS)
        emissions = np.zeros((2, 3))
        emissions[1, 2] = np.inf
        batches = (
            [(np.zeros((2, 3)), [0, 0]), (emissions, [0, 0])],
            TokenBatch(np.vstack([np.zeros((2, 3)), emissions]), [2, 2], [0] * 4),
        )
        for batch in batches:
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
                with pytest.raises(ValueError, match=f"^sentence 2: {message}$"):
                    fn(batch, self.TRANS)

    def test_infinite_loss_and_log_z_are_refused(self):
        emissions = np.zeros((2, 3))
        emissions[1] = -np.inf  # no path has a finite score: the loss refusal names log Z
        with pytest.raises(ValueError, match="^sentence 1: log Z of -inf, need finite"):
            nll_loss([(emissions, [0, 0])], self.TRANS)
        with pytest.raises(ValueError, match="^sentence 1: log Z of -inf"):
            log_partition(emissions, self.TRANS)
        gold_cut = TransitionMatrix(np.array([[-np.inf, 0, 0], [0, 0, 0], [0, 0, 0]]), np.zeros(3))
        with pytest.raises(ValueError, match="^sentence 1: loss of inf"):
            nll_loss([(np.zeros((2, 3)), [0, 0])], gold_cut)
        assert math.isfinite(nll_loss([(np.zeros((2, 3)), [0, 1])], gold_cut))

    def test_an_inf_path_score_beside_huge_ones_is_refused_without_a_warning(self):
        """Column 0 at 1e308: path [0, 0] sums to +inf, the others to 1e308
        or 0. A chunk's maximum is then inf, logsumexp shifts by 0, and exp
        of 1e308 overflowed with a RuntimeWarning before the refusal, which
        log_partition gave without one. RuntimeWarnings are errors here."""
        emissions = np.zeros((2, 3))
        emissions[:, 0] = 1e308
        message = "^sentence 1: a path score is inf, need finite"
        with pytest.raises(ValueError, match=message):
            log_partition(emissions, self.TRANS)
        with pytest.raises(ValueError, match=message):
            brute_force_log_partition(emissions, self.TRANS)
        with pytest.raises(ValueError, match=message):
            mcrf.crf._brute_force_log_z(*stacked([(emissions, self.TRANS)]), None)
        for gold in ([0, 0], [1, 2]):
            with pytest.raises(ValueError, match=message):
                brute_force_loss_and_gradients([(emissions, gold)], self.TRANS)

    def test_log_z_of_no_finite_path_is_minus_inf_without_a_warning(self):
        """The engine gave log Z of nan after a RuntimeWarning (-inf - -inf
        in its forward shift), and the enumeration -inf after another (log 0
        in logsumexp). RuntimeWarnings are errors in these tests."""
        dead = np.zeros((3, 3))
        dead[1] = -np.inf  # every path passes position 1
        for fn in (log_partition, brute_force_log_partition):
            with pytest.raises(ValueError, match="^sentence 1: log Z of -inf, need finite"):
                fn(dead, self.TRANS)
            with pytest.raises(ValueError, match="^sentence 1: log Z of nan"):
                fn(np.where(dead == 0, np.nan, dead), self.TRANS)
        cut = TransitionMatrix(np.full((3, 3), -np.inf), np.zeros(3))  # no move
        for fn in (log_partition, brute_force_log_partition):
            assert fn(np.zeros((1, 3)), cut) == pytest.approx(math.log(3))
            with pytest.raises(ValueError, match="^sentence 1: log Z of -inf"):
                fn(np.zeros((2, 3)), cut)
        cut.scores[1:] = 0.0  # tag 0 has no successor: its row of K was nan, and so was log Z
        emissions = np.random.default_rng(0).normal(size=(3, 3))
        assert log_partition(emissions, cut) == pytest.approx(
            brute_force_log_partition(emissions, cut), abs=1e-12)
        batches = (
            [(np.zeros((2, 3)), [0, 0]), (dead, [0, 0, 0])],
            TokenBatch(np.vstack([np.zeros((2, 3)), dead]), [2, 3], [0] * 5),
        )
        for batch in batches:
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
                with pytest.raises(ValueError, match="^sentence 2: log Z of -inf, need finite"):
                    fn(batch, self.TRANS)

    def test_a_loss_whose_log_z_is_minus_inf_is_refused_as_log_partition_refuses_it(self):
        """Finite emissions whose every path sums past -1e308 to -inf: log Z
        is -inf, and so is the gold score. The three loss entry points called
        their nan loss 'a path score is inf'; they now give log_partition's
        text, for a list batch and a TokenBatch alike."""
        message = "^sentence 1: log Z of -inf, need finite emissions and transition scores$"
        emissions = np.full((2, 3), -1e308)
        with pytest.raises(ValueError, match=message):
            log_partition(emissions, self.TRANS)
        for batch in ([(emissions, [0, 0])], TokenBatch(emissions, [2], [0, 0])):
            for fn in (nll_loss, loss_and_gradients, brute_force_loss_and_gradients):
                with pytest.raises(ValueError, match=message):
                    fn(batch, self.TRANS)

    def test_every_path_at_minus_inf_has_no_best_path(self):
        """viterbi returned [0, 0] where brute_force_best raised 'no legal
        paths exist'; both now name the sentence with one message, which a
        legal set that is empty does not get."""
        message = "the best path score is -inf, need finite"
        dead = np.full((2, 3), -np.inf)
        with pytest.raises(ValueError, match=f"^sentence 1: {message}"):
            viterbi(dead, self.TRANS)
        with pytest.raises(ValueError, match=f"^sentence 1: {message}"):
            brute_force_best(dead, self.TRANS)
        corpus = [np.zeros((3, 3)), np.zeros((1, 3)), dead, dead[:1]]
        with pytest.raises(ValueError, match=f"^sentence 3: {message}"):
            viterbi_batch(corpus, self.TRANS)
        with pytest.raises(ValueError, match=f"^sentence 3: {message}"):
            viterbi_batch(corpus[:2] + corpus[3:], self.TRANS)  # one position, a later chunk
        rules = TransitionRuleSet(frozenset(), frozenset({2}))
        only_illegal = np.array([[-np.inf, -np.inf, 5.0]])  # its best path starts illegally
        assert viterbi(only_illegal, self.TRANS) == [2]
        with pytest.raises(ValueError, match=f"^sentence 1: {message}"):
            viterbi(only_illegal, self.TRANS, rules)
        with pytest.raises(ValueError, match=f"^sentence 1: {message}"):
            brute_force_best(only_illegal, self.TRANS, rules)
        no_start = TransitionRuleSet(frozenset(), frozenset({0, 1, 2}))
        with pytest.raises(ValueError, match="^no legal paths exist"):
            brute_force_best(np.zeros((2, 3)), self.TRANS, no_start)
        with pytest.raises(ValueError, match="^no legal paths exist"):
            brute_force_log_partition(np.zeros((2, 3)), self.TRANS, no_start)
        partly = np.array([[-np.inf, 0.0, -np.inf], [1.0, -np.inf, -np.inf]])
        assert viterbi(partly, self.TRANS) == brute_force_best(partly, self.TRANS)[0] == [1, 0]

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
        start = np.array([0.0, np.nan, 0.0])  # reaches the best score
        with pytest.raises(ValueError, match="^sentence 1: a path score is nan"):
            viterbi(np.zeros((1, 3)), TransitionMatrix(np.zeros((3, 3)), start))

    def test_infinite_path_scores_are_refused(self):
        """Under rules an illegal start reads -inf, and -inf + inf is nan:
        an inf emission on I-A gave the illegal path [I-A, I-A]."""
        rules = build_tagset(Scheme.BIO, ["A"]).rules
        emissions = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, np.inf]])
        with pytest.raises(ValueError, match="^sentence 1: a path score is inf"):
            viterbi(emissions, self.TRANS, rules)
        with pytest.raises(ValueError, match="^sentence 1: a path score is inf"):
            viterbi(np.zeros((1, 3)), TransitionMatrix(np.zeros((3, 3)), np.array([np.inf, 0, 0])))
        emissions[1, 2] = -np.inf  # a tag ruled out: fine
        assert viterbi(emissions, self.TRANS, rules) == [0, 0]

    def test_a_best_score_past_the_float_range_is_refused(self):
        """The table's maximum was checked, not start + first column: one
        token of 1e308 on a 1e308 start decoded to [0], where the
        enumeration gets an overflowing path score."""
        message = "^sentence 1: a path score is inf, need finite"
        emissions = np.array([[1e308, 0.0, 0.0]])
        trans = TransitionMatrix(np.zeros((3, 3)), np.array([1e308, 0.0, 0.0]))
        spec = MaskSpec(build_tagset(Scheme.BIO, ["PER"]).rules)
        for refused in (
            lambda: brute_force_best(emissions, trans),
            lambda: viterbi(emissions, trans),
            lambda: decode([emissions], trans, spec),
            lambda: constrained_viterbi(emissions, trans, spec),
        ):
            with pytest.raises(ValueError, match=message):
                refused()

    def test_the_first_refused_sentence_in_input_order_is_named(self, monkeypatch):
        """The corpus decodes longest first, and the first chunk with a
        refusal was named: of sentences 1 (6 tokens) and 4 (60 tokens),
        both past the float range, sentence 4."""
        tagset = build_tagset(Scheme.BIOES, [f"T{i}" for i in range(10)])
        d, outside = tagset.size, tagset.index_of("O")
        corpus = [np.zeros((6, d))] + [np.zeros((60, d)) for _ in range(30)]
        for k in (0, 3):
            corpus[k][:, outside] = 1e308
        trans = TransitionMatrix.zeros(d)
        for cells in (mcrf.crf._DECODE_CELLS, 1):  # one chunk per sentence at 1
            monkeypatch.setattr(mcrf.crf, "_DECODE_CELLS", cells)
            for rules in (None, tagset.rules):
                with pytest.raises(ValueError, match="^sentence 1: a path score is inf"):
                    viterbi_batch(corpus, trans, rules)

    def test_finite_inputs_past_the_float_range_get_one_verdict(self):
        """Zero transitions and 1e308 everywhere: log Z of nan from the
        engine, log Z of inf from the enumeration, path score of inf, and
        an overflow RuntimeWarning (an error in these tests) from the
        enumeration and path_score. Every refusal now reads as the
        decoders' does."""
        emissions, gold = np.full((2, 3), 1e308), [0, 0]
        message = "^sentence 1: a path score is inf, need finite emissions and transition scores$"
        for refused in (
            lambda: log_partition(emissions, self.TRANS),
            lambda: nll_loss([(emissions, gold)], self.TRANS),
            lambda: loss_and_gradients([(emissions, gold)], self.TRANS),
            lambda: path_score(emissions, self.TRANS, gold),
            lambda: viterbi(emissions, self.TRANS),
            lambda: brute_force_log_partition(emissions, self.TRANS),
            lambda: brute_force_best(emissions, self.TRANS),
            lambda: brute_force_loss_and_gradients([(emissions, gold)], self.TRANS),
        ):
            with pytest.raises(ValueError, match=message):
                refused()

    def test_oracles_refuse_non_finite_results(self):
        """The enumeration oracles and path_score returned nan (and inf)
        without a word."""
        # a +inf input gave log Z of inf, loss of inf and path score of inf;
        # it now gets the decoders' words
        for value, log_z, loss, score in (
            (np.nan, "log Z of nan", "loss of nan", "path score of nan"),
            (np.inf, "a path score is inf", "a path score is inf", "a path score is inf"),
        ):
            emissions = np.zeros((2, 3))
            emissions[1, 2] = value
            with pytest.raises(ValueError, match=f"^sentence 1: {log_z}"):
                brute_force_log_partition(emissions, self.TRANS)
            with pytest.raises(ValueError, match=f"^sentence 1: a path score is {value}"):
                brute_force_best(emissions, self.TRANS)
            with pytest.raises(ValueError, match=f"^sentence 1: {score}"):
                path_score(emissions, self.TRANS, [0, 2])
            batch = [(np.zeros((2, 3)), [0, 0]), (emissions, [0, 0])]
            with pytest.raises(ValueError, match=f"^sentence 2: {loss}"):
                brute_force_loss_and_gradients(batch, self.TRANS)
        gold_cut = TransitionMatrix(np.array([[-np.inf, 0, 0], [0, 0, 0], [0, 0, 0]]), np.zeros(3))
        with pytest.raises(ValueError, match="^sentence 1: path score of -inf"):
            path_score(np.zeros((2, 3)), gold_cut, [0, 0])
        with pytest.raises(ValueError, match="^sentence 1: loss of inf"):
            brute_force_loss_and_gradients([(np.zeros((2, 3)), [0, 0])], gold_cut)
        assert path_score(np.zeros((2, 3)), gold_cut, [0, 1]) == 0.0
        rules = TransitionRuleSet(frozenset(), frozenset({2}))
        emissions = np.zeros((2, 3))
        emissions[0, 2] = np.nan  # only an illegal start reads it
        assert brute_force_log_partition(emissions, self.TRANS, rules) == math.log(6)
        assert brute_force_best(emissions, self.TRANS, rules) == ([0, 0], 0.0)

    def test_brute_force_best_does_not_skip_a_nan_chunk(self):
        """argmax picks a chunk's nan, which never beat the incumbent: one
        chunk raised 'no legal paths', and of 3^11 paths in three chunks the
        best of the first came back though the last two hold nan."""
        with pytest.raises(ValueError, match="^sentence 1: a path score is nan"):
            brute_force_best(np.full((2, 3), np.nan), self.TRANS)
        emissions = np.zeros((11, 3))
        emissions[0, 2] = np.nan  # paths from 2 * 3^10 on: past the first 2^16
        with pytest.raises(ValueError, match="^sentence 1: a path score is nan"):
            brute_force_best(emissions, self.TRANS)

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
        emissions = [rng.normal(size=(T, d)) for T in (1, 2, 5, 9)]
        trans = TransitionMatrix(rng.normal(size=(d, d)), rng.normal(size=d))
        expected = viterbi_batch(emissions, trans, rules)
        for value in (np.nan, 1e300, -1e300):
            poisoned = trans.copy()
            poisoned.table[rules.table(d)] = value
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


def stacked(instances):
    """(k, T, d) emissions and (k, d + 1, d) transition tables of
    (emissions, trans) instances of one shape."""
    emissions, trans = zip(*instances)
    return np.stack(emissions), np.stack([t.table for t in trans])


def refusal(oracle, *args) -> str:
    with pytest.raises(ValueError) as info:
        oracle(*args)
    return str(info.value)


class TestStackedOracle:
    """verify referees each (T, d) group of instances with one stacked
    enumeration, one path table per chunk for the whole group: each
    instance keeps the bits, the path and the refusal of its own call."""

    def assert_same_as_alone(self, instances, rules=None):
        group = stacked(instances)
        log_z = mcrf.crf._brute_force_log_z(*group, rules)
        paths = mcrf.crf._brute_force_paths(*group, rules)
        assert len(log_z) == len(paths) == len(instances)
        for (emissions, trans), z, path in zip(instances, log_z, paths):
            assert float(z).hex() == brute_force_log_partition(emissions, trans, rules).hex()
            assert path == brute_force_best(emissions, trans, rules)[0]
        return paths

    @pytest.mark.parametrize("seed", [0, 3, 7, 101])
    def test_random_groups_keep_the_bits_of_each_instance(self, seed):
        rng = np.random.default_rng(seed)
        for T, d in ((1, 2), (2, 5), (3, 3), (5, 4), (6, 5)):
            group = [random_instance(rng, T, d) for _ in range(int(rng.integers(1, 9)))]
            self.assert_same_as_alone(group)

    def test_a_planted_tie_resolves_to_the_smallest_path(self):
        """Tags 1 and 2 tie at both positions of the second instance: four
        best paths, of which [1, 1] is the lexicographically smallest."""
        rng = np.random.default_rng(11)
        group = [random_instance(rng, 2, 3) for _ in range(3)]
        group[1] = (np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]), TransitionMatrix.zeros(3))
        assert self.assert_same_as_alone(group)[1] == [1, 1]

    def test_a_shape_of_two_chunks(self):
        """Every path of the zero instance ties: the first chunk's first
        path stays, though the second chunk's first path ties with it."""
        assert mcrf.crf._CHUNK < 2**17 <= 2 * mcrf.crf._CHUNK
        rng = np.random.default_rng(13)
        group = [random_instance(rng, 17, 2, scale=1.0) for _ in range(3)]
        group[1] = (np.zeros((17, 2)), TransitionMatrix.zeros(2))
        assert self.assert_same_as_alone(group)[1] == [0] * 17

    def test_a_group_under_rules(self):
        tagset = build_tagset(Scheme.BIO, ["A", "B"])
        rng = np.random.default_rng(17)
        group = [random_instance(rng, 4, tagset.size) for _ in range(5)]
        for path in self.assert_same_as_alone(group, tagset.rules):
            assert first_violation(tagset, path) is None

    def test_groups_of_several_tiles(self):
        """Ten instances of 4^5 paths take several row slices of several
        rows each; each instance of 5^6 paths takes several path blocks."""
        assert 1 < mcrf.crf._SLICE // 4**5 < 10 and 5**6 > mcrf.crf._SLICE
        rng = np.random.default_rng(19)
        self.assert_same_as_alone([random_instance(rng, 5, 4) for _ in range(10)])
        self.assert_same_as_alone([random_instance(rng, 6, 5) for _ in range(3)])

    POISONS = {
        "nan": lambda em: em.__setitem__((1, 2), np.nan),
        "+inf": lambda em: em.__setitem__((1, 2), np.inf),
        "all -inf": lambda em: em.__setitem__(1, -np.inf),  # every path passes position 1
    }

    @pytest.mark.parametrize("poison", sorted(POISONS))
    def test_a_refused_instance_is_named_with_its_own_refusal(self, poison):
        rng = np.random.default_rng(23)
        for j in (0, 2):
            group = [random_instance(rng, 3, 3) for _ in range(4)]
            self.POISONS[poison](group[j][0])
            emissions, trans = group[j]
            for stacked_oracle, oracle in (
                (mcrf.crf._brute_force_log_z, brute_force_log_partition),
                (mcrf.crf._brute_force_paths, brute_force_best),
            ):
                alone = refusal(oracle, emissions, trans)
                assert alone.startswith("sentence 1: ")
                named = alone.replace("sentence 1: ", f"sentence {j + 1}: ")
                assert refusal(stacked_oracle, *stacked(group), None) == named

    def test_the_first_refused_instance_in_input_order_is_named(self):
        """Instance 2's best score is -inf, found after the last chunk;
        instance 3 holds a nan that only the second chunk reads, and instance
        4 a nan in the first."""
        rng = np.random.default_rng(29)
        group = [random_instance(rng, 17, 2, scale=1.0) for _ in range(4)]
        group[1][0][5] = -np.inf
        group[2][0][0, 1] = np.nan  # paths from 2^16 on: the second chunk
        group[3][0][0, 0] = np.nan
        for stacked_oracle, first, later in (
            (mcrf.crf._brute_force_log_z, "log Z of -inf", "log Z of nan"),
            (mcrf.crf._brute_force_paths, "the best path score is -inf", "a path score is nan"),
        ):
            assert refusal(stacked_oracle, *stacked(group), None).startswith(f"sentence 2: {first},")
            assert refusal(stacked_oracle, *stacked(group[2:]), None).startswith(
                f"sentence 1: {later},"
            )
        # an instance is refused at its first bad chunk: the first chunk's
        # best score overflows to inf, the second's is nan
        emissions, trans = group[3]
        emissions[:2, 0], emissions[0, 1] = 1e308, np.nan
        alone = refusal(brute_force_best, emissions, trans)
        assert alone.startswith("sentence 1: a path score is inf,")
        assert refusal(mcrf.crf._brute_force_paths, *stacked(group[3:]), None) == alone

    @staticmethod
    def per_position_oracle(batch, trans, rules):
        """brute_force_loss_and_gradients with one np.add.at per position
        and chunk, as the oracle scattered its path weights before."""
        crf = mcrf.crf
        d = trans.num_tags
        tokens, lengths, golds = crf._tokens(batch, d)
        n = len(lengths)
        d_trans, d_start, d_emissions, total = np.zeros((d, d)), np.zeros(d), [], 0.0
        bounds = np.cumsum(lengths)[:-1]
        for emissions, tags in zip(np.split(tokens, bounds), np.split(golds, bounds)):
            T = len(tags)
            instance = crf._instance(emissions, trans)
            log_z = float(crf._enumerated_log_z(*instance, rules)[0])
            total += log_z - float(crf._scores(*instance, tags[None])[0])
            d_em = np.zeros((T, d))
            before = d_trans.copy(), d_start.copy()
            mass = count = 0
            for _, cells, moves, scores in crf._iter_scored_chunks(*instance, rules):
                w = np.exp(scores[0] - log_z)
                mass += w.sum()
                count += w.size
                for t in range(T):
                    np.add.at(d_em.reshape(-1), cells[t], w)
                for t in range(T - 1):
                    np.add.at(d_trans.reshape(-1), moves[t], w)
                np.add.at(d_start, cells[0], w)
            if abs(mass - 1.0) > 4 * count * np.finfo(np.float64).eps:
                d_em /= mass
                for counts, old in zip((d_trans, d_start), before):
                    counts[...] = old + (counts - old) / mass
            d_em[np.arange(T), tags] -= 1.0
            d_emissions.append(d_em / n)
            np.add.at(d_trans, (tags[:-1], tags[1:]), -1.0)
            d_start[tags[0]] -= 1.0
        return total / n, d_emissions, d_trans / n, d_start / n

    def test_the_gradient_oracle_keeps_the_bits_of_per_position_scatters(self):
        """One np.add.at per table and chunk adds each cell's weights in the
        order of the per-position loop: the same loss and gradient bits, on
        random batches, a shape of two chunks and a BIOES batch under rules."""
        rng = np.random.default_rng(37)
        bioes = build_tagset(Scheme.BIOES, ["A"])
        cases = []
        for _ in range(60):
            d = int(rng.integers(2, 6))
            trans = TransitionMatrix(rng.normal(size=(d, d)) * 3, rng.normal(size=d))
            sizes = rng.integers(1, 6, size=int(rng.integers(1, 4)))
            batch = [(rng.normal(size=(T, d)) * 3, rng.integers(0, d, size=T).tolist())
                     for T in sizes]
            cases.append((batch, trans, None))
        trans = TransitionMatrix(rng.normal(size=(2, 2)), rng.normal(size=2))
        cases.append(([(rng.normal(size=(17, 2)), [0, 1] * 8 + [1])], trans, None))
        trans = TransitionMatrix(rng.normal(size=(5, 5)), rng.normal(size=5))
        golds = ([1, 2, 3, 0], [4, 0, 1, 3], [0])
        cases.append(([(rng.normal(size=(len(g), 5)), g) for g in golds], trans, bioes.rules))
        for batch, trans, rules in cases:
            loss, grads = brute_force_loss_and_gradients(batch, trans, rules)
            ref_loss, ref_emissions, ref_trans, ref_start = self.per_position_oracle(
                batch, trans, rules)
            assert float(loss).hex() == float(ref_loss).hex()
            assert all(map(same_bits, grads.emissions, ref_emissions))
            assert same_bits(grads.transitions, ref_trans)
            assert same_bits(grads.start, ref_start)

    @staticmethod
    def assert_gradients_as_alone(instances, golds, rules=None):
        """The stacked gradient oracle gives each instance the loss and
        gradient bits of brute_force_loss_and_gradients on it alone."""
        emissions, tables = stacked(instances)
        losses, grads = mcrf.crf._brute_force_gradients(emissions, tables, np.asarray(golds), rules)
        assert losses.shape == (len(instances),) and len(grads) == len(instances)
        for (em, trans), gold, loss, model in zip(instances, golds, losses, grads):
            one_loss, one = brute_force_loss_and_gradients([(em, list(gold))], trans, rules)
            assert float(loss).hex() == one_loss.hex()
            assert len(model.emissions) == 1 and same_bits(model.emissions[0], one.emissions[0])
            assert same_bits(model.transitions, one.transitions)
            assert same_bits(model.start, one.start)
        return grads

    @pytest.mark.parametrize("seed", [0, 3, 7, 101])
    def test_the_stacked_gradient_oracle_keeps_the_bits_of_each_instance(self, seed):
        """Random groups and gold paths, without rules and under BIO and
        BIOES rules, in one row slice and in several (4^5 paths), and at
        a shape of two chunks."""
        rng = np.random.default_rng(seed)
        bio, bioes = (build_tagset(s, ["A", "B"]).rules for s in (Scheme.BIO, Scheme.BIOES))
        shapes = ((1, 2, None), (2, 5, None), (3, 3, None), (5, 4, None), (4, 5, bio),
                  (3, 9, bioes), (17, 2, None))
        for T, d, rules in shapes:
            k = {17: 2, 5: 10}.get(T, int(rng.integers(1, 11)))  # 10 x 4^5 paths: three row slices
            group = [random_instance(rng, T, d) for _ in range(k)]
            self.assert_gradients_as_alone(group, rng.integers(0, d, size=(k, T)), rules)

    def test_a_renormalized_instance_keeps_its_bits(self):
        """The sentence np.full((1, 3), 1e308) with gold [0]: its log Z
        rounds away its log 3, so its weights sum to 3 and its counts are
        divided by that sum, as its own call divides them; the instances
        beside it are not."""
        rng = np.random.default_rng(43)
        group = [random_instance(rng, 1, 3) for _ in range(3)]
        group[1] = (np.full((1, 3), 1e308), TransitionMatrix.zeros(3))
        grads = self.assert_gradients_as_alone(group, [[0], [0], [2]])
        np.testing.assert_allclose(grads[1].emissions[0], [[-2 / 3, 1 / 3, 1 / 3]], rtol=1e-15)
        np.testing.assert_allclose(grads[1].start, [-2 / 3, 1 / 3, 1 / 3], rtol=1e-15)

    @pytest.mark.parametrize("poison", sorted(POISONS))
    def test_the_gradient_oracle_names_the_first_refused_instance(self, poison):
        """Instance j is poisoned, and a later one holds a nan: the stacked
        oracle refuses instance j with the text of its own call."""
        rng = np.random.default_rng(47)
        for j in (0, 2):
            group = [random_instance(rng, 3, 3) for _ in range(4)]
            golds = rng.integers(0, 3, size=(4, 3))
            self.POISONS[poison](group[j][0])
            group[3][0][0, 0] = np.nan
            emissions, trans = group[j]
            alone = refusal(brute_force_loss_and_gradients, [(emissions, list(golds[j]))], trans)
            assert alone.startswith("sentence 1: ")
            named = alone.replace("sentence 1: ", f"sentence {j + 1}: ")
            assert refusal(mcrf.crf._brute_force_gradients, *stacked(group), golds, None) == named

    @staticmethod
    def summed_scores(emissions, tables, rows, cells, moves):
        """A chunk's path scores written out from its tags: each position's
        emission added in order, then the start, then the moves, themselves
        added in order first."""
        _, T, d = emissions.shape
        tags = cells - np.arange(T)[:, None] * d
        em, sc, st = emissions[rows], tables[rows, :d], tables[rows, d]
        out = em[:, 0, tags[0]]
        for t in range(1, T):
            out = out + em[:, t, tags[t]]
        out = out + st[:, tags[0]]
        if T > 1:
            path_moves = sc[:, tags[0], tags[1]]
            for t in range(1, T - 1):
                path_moves = path_moves + sc[:, tags[t], tags[t + 1]]
            out = out + path_moves
        return out

    @pytest.mark.parametrize("T", range(1, 11))
    def test_the_path_scores_keep_the_bits_of_the_gathered_sums(self, T):
        """Position-major tables of the legal paths in lexicographic order,
        scored with the bits of the sums written out position by position,
        at every length, with and without BIO rules, at scores up to 1e5
        and with -0.0 entries, all of them in the last instance."""
        rng = np.random.default_rng(41 + T)
        bio1, bio2 = (build_tagset(Scheme.BIO, types).rules for types in (["A"], ["A", "B"]))
        for d, rules in ((2, None), (3, None), (3, bio1), (5, bio2)):
            if d**T > 3**10:
                continue
            group = [random_instance(rng, T, d, scale=float(scale)) for scale in (2.0, 1e5, 1.0, 1.0)]
            for emissions, trans in group[2:]:  # -0.0 in most entries, in all of the last
                for arr in (emissions, trans.scores, trans.start):
                    arr[rng.random(arr.shape) < 0.8] = -0.0
            for arr in (group[3][0], group[3][1].scores, group[3][1].start):
                arr[...] = -0.0
            emissions, transitions = stacked(group)
            illegal = (rules or TransitionRuleSet(frozenset(), frozenset())).table(d)
            paths = np.array(list(itertools.product(range(d), repeat=T)), dtype=np.int32)
            paths = paths[~(illegal[d, paths[:, 0]] | illegal[paths[:, :-1], paths[:, 1:]].any(axis=1))]
            tables = []
            for rows, cells, moves, path_scores in mcrf.crf._iter_scored_chunks(
                emissions, transitions, rules
            ):
                assert cells.dtype == moves.dtype == np.int32
                assert cells.shape == (T, path_scores.shape[1]) and moves.shape == (T - 1, len(cells[0]))
                expected = self.summed_scores(emissions, transitions, rows, cells, moves)
                assert same_bits(path_scores, expected)
                if rows.start == 0:
                    tables.append(cells - np.arange(T, dtype=np.int32)[:, None] * d)
                    assert same_bits(moves, tables[-1][:-1] * d + tables[-1][1:])
            assert same_bits(np.concatenate(tables, axis=1), paths.T)

    def test_a_group_without_a_legal_path_is_refused_as_one_instance_is(self):
        no_start = TransitionRuleSet(frozenset(), frozenset({0, 1, 2}))
        group = [random_instance(np.random.default_rng(31), 2, 3) for _ in range(3)]
        for stacked_oracle, oracle in (
            (mcrf.crf._brute_force_log_z, brute_force_log_partition),
            (mcrf.crf._brute_force_paths, brute_force_best),
        ):
            alone = refusal(oracle, *group[0], no_start)
            assert alone == "no legal paths exist for this instance"
            assert refusal(stacked_oracle, *stacked(group), no_start) == alone


class TestStackedEngineLogZ:
    """verify's engine side of the log-partition check: k instances of one
    shape as k models of one engine call, each over its own sentence as
    (T, k, 1, d) emissions, with the bits and the refusal of its own
    log_partition call."""

    def test_each_instance_has_the_bits_of_its_own_call(self, monkeypatch):
        """Random groups, some of whose rows take the log-space step at
        scores up to 5e3, in stacks of more than one model."""
        guarded = []  # the group size of each log-space step of a stacked call
        log_space = mcrf.crf.logsumexp
        rng = np.random.default_rng(43)
        for trial in range(150):
            k, T, d = (int(rng.integers(lo, hi)) for lo, hi in ((1, 12), (1, 12), (2, 9)))
            group = [random_instance(rng, T, d, scale=(2.0, 50.0, 5e3)[trial % 3]) for _ in range(k)]

            def spy(x, axis, k=k):
                guarded.append(k)
                return log_space(x, axis)

            with monkeypatch.context() as patch:
                patch.setattr(mcrf.crf, "logsumexp", spy)
                log_z = mcrf.crf._engine_log_z(*stacked(group))
            assert log_z.shape == (k,)
            for (emissions, trans), z in zip(group, log_z):
                assert float(z).hex() == log_partition(emissions, trans).hex()
        assert max(guarded) > 1

    @pytest.mark.parametrize("poison", sorted(TestStackedOracle.POISONS))
    def test_the_first_refused_instance_is_named_with_its_own_refusal(self, poison):
        """Instance j is poisoned, and a later instance holds a nan."""
        rng = np.random.default_rng(47)
        for j in (0, 2):
            group = [random_instance(rng, 3, 3) for _ in range(5)]
            TestStackedOracle.POISONS[poison](group[j][0])
            TestStackedOracle.POISONS["nan"](group[4][0])
            alone = refusal(log_partition, *group[j])
            assert alone.startswith("sentence 1: ")
            named = alone.replace("sentence 1: ", f"sentence {j + 1}: ")
            assert refusal(mcrf.crf._engine_log_z, *stacked(group)) == named


class TestStackedDecode:
    """verify's engine side of the Viterbi check: k instances of one shape
    as k models of one max-product recursion, instance j under model j,
    each with the path, the tie-break and the refusal of its own viterbi
    call."""

    TAGSETS = {"bio": build_tagset("bio", ["A", "B", "C"]), "bioes": build_tagset("bioes", ["A"])}

    @pytest.mark.parametrize("cells", [mcrf.crf._DECODE_CELLS, 1])
    @pytest.mark.parametrize("scheme", [None, "bio", "bioes"])
    def test_each_instance_decodes_as_its_own_call(self, scheme, cells, monkeypatch):
        """Groups of 1 to 11 instances, T 1 to 8 and d 2 to 8 (7 and 5 under
        the BIO and BIOES rules), in one chunk and one row per chunk. Every
        other group has integer-valued scores in [-2, 2], so paths tie often."""
        monkeypatch.setattr(mcrf.crf, "_DECODE_CELLS", cells)
        tagset = scheme and self.TAGSETS[scheme]
        rules = tagset and tagset.rules
        rng = np.random.default_rng(59)
        for trial in range(60):
            k, T = int(rng.integers(1, 12)), int(rng.integers(1, 9))
            d = tagset.size if tagset else int(rng.integers(2, 9))
            group = [random_instance(rng, T, d) for _ in range(k)]
            if trial % 2:
                group = [(np.round(em), TransitionMatrix(np.round(t.scores), np.round(t.start)))
                         for em, t in group]
            paths = mcrf.crf._engine_paths(*stacked(group), rules)
            assert paths == [viterbi(emissions, trans, rules) for emissions, trans in group]

    def test_planted_ties_resolve_to_each_model_own_smallest_path(self):
        """Two instances with the same emissions, on which tags 1 and 2 tie,
        under models that break the tie apart: each gets the smallest best
        path of its own model, as enumeration finds it."""
        emissions = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        prefer_two = TransitionMatrix(np.zeros((3, 3)), np.array([0.0, 0.0, 1.0]))
        group = [(emissions, TransitionMatrix.zeros(3)), (emissions.copy(), prefer_two)]
        paths = mcrf.crf._engine_paths(*stacked(group), None)
        assert paths == [[1, 1], [2, 1]]
        assert paths == [brute_force_best(em, trans)[0] for em, trans in group]

    POISONS = {
        **TestStackedOracle.POISONS,
        "nan score": lambda trans: trans.scores.__setitem__((0, 1), np.nan),
        "all -inf starts": lambda trans: trans.start.__setitem__(slice(None), -np.inf),
    }

    @pytest.mark.parametrize("poison", sorted(POISONS))
    def test_the_first_refused_instance_is_named_with_its_own_refusal(self, poison):
        """Instance j, or its model, is poisoned, and a later instance holds
        a nan."""
        rng = np.random.default_rng(61)
        for j in (0, 2):
            group = [random_instance(rng, 3, 3) for _ in range(5)]
            emissions, trans = group[j]
            self.POISONS[poison](trans if poison in ("nan score", "all -inf starts") else emissions)
            TestStackedOracle.POISONS["nan"](group[4][0])
            alone = refusal(viterbi, *group[j])
            assert alone.startswith("sentence 1: ")
            named = alone.replace("sentence 1: ", f"sentence {j + 1}: ")
            assert refusal(mcrf.crf._engine_paths, *stacked(group), None) == named


class TestTransitionMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            TransitionMatrix(np.zeros((2, 2)), np.zeros(3))

    def test_scalar_scores_are_refused_with_their_shape(self):
        """A 0-d score array raised a bare IndexError from its shape."""
        with pytest.raises(ValueError, match=re.escape("transition matrix must be square, got ()")):
            TransitionMatrix(1.0, [0.0])

    def test_one_table_holds_the_scores_and_the_starts_as_row_d(self):
        """The constructor copies both arrays into one (d + 1, d) table, of
        which scores and start are C-contiguous views: a write through them
        reaches the table, and a write to the arrays passed in does not."""
        scores, start = np.arange(9.0).reshape(3, 3), np.array([9.0, 10.0, 11.0])
        trans = TransitionMatrix(scores, start)
        assert same_bits(trans.table, np.arange(12.0).reshape(4, 3))
        assert trans.scores.base is trans.table and trans.start.base is trans.table
        assert trans.scores.flags.c_contiguous and trans.start.flags.c_contiguous
        scores[0, 0] = start[0] = -1.0
        assert trans.table[0, 0] == 0.0 and trans.table[3, 0] == 9.0
        trans.scores[1, 2] = -2.0
        trans.start[2] = -3.0
        trans.scores += 1.0
        assert trans.table[1, 2] == -1.0 and trans.table[3, 2] == -3.0 and trans.table[0, 0] == 1.0
        for other in (trans.copy(), deepcopy(trans), pickle.loads(pickle.dumps(trans))):
            assert other.table is not trans.table and same_bits(other.table, trans.table)
            other.scores[0, 1] = other.start[1] = 7.0
            assert other.table[0, 1] == other.table[3, 1] == 7.0 != trans.table[0, 1]

    def test_copy_is_independent(self):
        trans = TransitionMatrix.zeros(2)
        other = trans.copy()
        other.scores[0, 0] = 1.0
        other.start[1] = 2.0
        assert trans.scores[0, 0] == 0.0
        assert trans.start[1] == 0.0
