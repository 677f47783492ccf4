"""Transition masking, constrained decoding, and the masked/restricted gap."""

import math

import numpy as np
import pytest

from mcrf.crf import (
    TransitionMatrix,
    brute_force_best,
    nll_loss,
    viterbi,
    viterbi_batch,
)
from mcrf.errors import ConfigurationError, DataError
from mcrf.masking import (
    DEFAULT_MASK_VALUE,
    MaskSpec,
    apply_mask,
    constrained_viterbi,
    decode,
    guard_threshold,
    masked_nll,
    mask_convergence_gap,
    reapply_mask_in_place,
    restricted_nll,
)
from mcrf.schemes import (
    Scheme,
    TransitionRuleSet,
    build_tagset,
    first_violation,
    illegal_transition_set,
    validate_gold_paths,
)

BIO1 = build_tagset(Scheme.BIO, ["PER"])
BIO3 = build_tagset(Scheme.BIO, ["LOC", "ORG", "PER"])

# Illegal (from, to) index pairs for BIO3 under the tag order
# (O, B-LOC, I-LOC, B-ORG, I-ORG, B-PER, I-PER). Written out by hand from
# the rule "I-X needs B-X or I-X immediately before it".
BIO3_ILLEGAL_PAIRS = {
    (0, 2), (0, 4), (0, 6),
    (1, 4), (1, 6),
    (2, 4), (2, 6),
    (3, 2), (3, 6),
    (4, 2), (4, 6),
    (5, 2), (5, 4),
    (6, 2), (6, 4),
}


def spec_for(tagset, mask_value=DEFAULT_MASK_VALUE, enforce_start=True):
    return MaskSpec(illegal_transition_set(tagset), mask_value, enforce_start)


def random_legal_path(rng, tagset, T):
    path = []
    for _ in range(T):
        choices = [
            j for j in range(tagset.size) if first_violation(tagset, path + [j]) is None
        ]
        path.append(int(rng.choice(choices)))
    return path


class TestMaskSpec:
    def test_nonnegative_mask_value_rejected(self):
        rules = illegal_transition_set(BIO1)
        with pytest.raises(ConfigurationError):
            MaskSpec(rules, mask_value=0.0)
        with pytest.raises(ConfigurationError):
            MaskSpec(rules, mask_value=3.0)

    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    def test_non_finite_mask_value_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite and negative"):
            MaskSpec(illegal_transition_set(BIO1), mask_value=value)

    def test_restriction_rules_track_start_enforcement(self):
        spec = spec_for(BIO1, enforce_start=False)
        assert spec.rules.illegal_starts == frozenset()
        assert spec_for(BIO1).rules.illegal_starts != frozenset()


class TestApplyMask:
    def test_exact_entry_set_for_three_types(self):
        """Exactly the 15 hand-listed illegal pairs change, to exactly c."""
        trans = TransitionMatrix.zeros(7)
        masked = apply_mask(trans, spec_for(BIO3, mask_value=-1e4))
        changed = {
            (i, j)
            for i in range(7)
            for j in range(7)
            if masked.scores[i, j] != trans.scores[i, j]
        }
        assert changed == BIO3_ILLEGAL_PAIRS
        for i, j in BIO3_ILLEGAL_PAIRS:
            assert masked.scores[i, j] == -1e4
        starts = {j for j in range(7) if masked.start[j] != 0.0}
        assert starts == {2, 4, 6}

    def test_original_matrix_untouched(self):
        rng = np.random.default_rng(0)
        trans = TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3))
        snapshot = trans.copy()
        apply_mask(trans, spec_for(BIO1))
        np.testing.assert_array_equal(trans.scores, snapshot.scores)
        np.testing.assert_array_equal(trans.start, snapshot.start)

    def test_legal_entries_bitwise_unchanged(self):
        rng = np.random.default_rng(1)
        trans = TransitionMatrix(rng.normal(size=(7, 7)), rng.normal(size=7))
        spec = spec_for(BIO3)
        masked = apply_mask(trans, spec)
        for i in range(7):
            for j in range(7):
                if (i, j) not in spec.rules.omega:
                    assert masked.scores[i, j] == trans.scores[i, j]
        for j in range(7):
            if j not in spec.rules.illegal_starts:
                assert masked.start[j] == trans.start[j]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        trans = TransitionMatrix(rng.normal(size=(3, 3)), rng.normal(size=3))
        spec = spec_for(BIO1)
        once = apply_mask(trans, spec)
        twice = apply_mask(once, spec)
        np.testing.assert_array_equal(once.scores, twice.scores)
        np.testing.assert_array_equal(once.start, twice.start)

    def test_enforce_start_off_leaves_start_vector(self):
        trans = TransitionMatrix.zeros(3)
        masked = apply_mask(trans, spec_for(BIO1, enforce_start=False))
        np.testing.assert_array_equal(masked.start, np.zeros(3))
        assert masked.scores[0, BIO1.index_of("I-PER")] == DEFAULT_MASK_VALUE

    def test_reapply_restores_drifted_entries(self):
        """After an optimizer-style perturbation, reapplying pins omega back to c."""
        spec = spec_for(BIO1, mask_value=-50.0)
        trans = apply_mask(TransitionMatrix.zeros(3), spec)
        trans.scores += 0.123
        trans.start += 0.456
        reapply_mask_in_place(trans, spec)
        i_per = BIO1.index_of("I-PER")
        assert trans.scores[0, i_per] == -50.0
        assert trans.start[i_per] == -50.0
        assert trans.scores[0, 0] == pytest.approx(0.123)

    def test_out_of_range_rule_rejected(self):
        rules = TransitionRuleSet(frozenset({(0, 5)}), frozenset())
        with pytest.raises(ValueError):
            apply_mask(TransitionMatrix.zeros(3), MaskSpec(rules))


class TestDecode:
    def test_empty_corpus_decodes_to_no_paths(self):
        trans = TransitionMatrix.zeros(3)
        assert decode([], trans, None) == []
        assert decode([], trans, spec_for(BIO1)) == []

    def test_malformed_sentence_is_named_with_or_without_a_mask(self):
        """The guard threshold runs before the engine; it must not fail
        first on an empty sentence with an error that names none."""
        trans = TransitionMatrix.zeros(3)
        for bad in (np.zeros((0, 3)), np.zeros((2, 4))):
            for spec in (None, spec_for(BIO1)):
                with pytest.raises(ValueError, match="sentence 2: emissions of shape"):
                    decode([np.zeros((2, 3)), bad], trans, spec)

    def test_a_mask_reads_each_sentence_as_plain_decoding_does(self):
        """The guard threshold read e.shape before any check: a nested list
        decoded without a spec and raised AttributeError under one. Under a
        spec each corpus gives what the engine gives it under the rules."""
        trans = TransitionMatrix.zeros(3)
        spec = spec_for(BIO1)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except Exception as exc:  # the kind and text, whatever they are
                return type(exc), str(exc)

        corpora = (
            [[[1.0, 2.0, 3.0]]],
            [None],
            [np.zeros((2, 3)), "x"],
            [np.array([["a", "b", "c"]])],
            [np.array([["1", "2", "3"]])],
            [np.zeros((2, 3)), np.full((2, 3), np.nan)],
        )
        for corpus in corpora:
            engine = outcome(viterbi_batch, corpus, trans, spec.rules)
            assert outcome(decode, corpus, trans, spec) == engine, corpus
            if isinstance(engine, tuple):
                assert outcome(decode, corpus, trans, None) == engine, corpus
            path = outcome(constrained_viterbi, corpus[-1], trans, spec)
            assert path == outcome(viterbi, corpus[-1], trans, spec.rules), corpus
        assert outcome(decode, corpora[0], trans, spec) == [[1]]  # I-PER may not start
        assert outcome(decode, corpora[1], trans, spec) == (
            ValueError, "sentence 1: emissions of shape (), need (T >= 1, 3)")
        assert outcome(decode, corpora[-1], trans, spec)[1].startswith(
            "sentence 2: a path score is nan")


class TestConstrainedViterbi:
    def test_never_emits_masked_transitions(self):
        rng = np.random.default_rng(3)
        spec = spec_for(BIO3)
        for _ in range(200):
            T = int(rng.integers(1, 8))
            emissions = rng.uniform(-2, 2, size=(T, 7))
            trans = TransitionMatrix(
                rng.uniform(-2, 2, size=(7, 7)), rng.uniform(-2, 2, size=7)
            )
            path = constrained_viterbi(emissions, trans, spec)
            assert first_violation(BIO3, path) is None

    def test_empty_rule_set_matches_plain_viterbi(self):
        rng = np.random.default_rng(4)
        spec = MaskSpec(TransitionRuleSet(frozenset(), frozenset()))
        for _ in range(20):
            emissions = rng.uniform(-2, 2, size=(4, 3))
            trans = TransitionMatrix(
                rng.uniform(-2, 2, size=(3, 3)), rng.uniform(-2, 2, size=3)
            )
            assert constrained_viterbi(emissions, trans, spec) == viterbi(emissions, trans)

    def test_matches_restricted_brute_force(self):
        rng = np.random.default_rng(5)
        spec = spec_for(BIO1)
        for _ in range(100):
            T = int(rng.integers(1, 6))
            emissions = rng.uniform(-2, 2, size=(T, 3))
            trans = TransitionMatrix(
                rng.uniform(-2, 2, size=(3, 3)), rng.uniform(-2, 2, size=3)
            )
            path = constrained_viterbi(emissions, trans, spec)
            oracle, _ = brute_force_best(
                emissions, trans, rules=spec.rules
            )
            assert path == oracle

    def test_start_enforcement_controls_position_zero(self):
        emissions = np.zeros((2, 3))
        emissions[:, BIO1.index_of("I-PER")] = 5.0
        trans = TransitionMatrix.zeros(3)
        on = constrained_viterbi(emissions, trans, spec_for(BIO1, enforce_start=True))
        off = constrained_viterbi(emissions, trans, spec_for(BIO1, enforce_start=False))
        assert on[0] != BIO1.index_of("I-PER")
        assert off[0] == BIO1.index_of("I-PER")

    def test_insufficient_mask_still_decodes_the_best_legal_path(self):
        """c = -1e4 does not clear the guard of these instances, so the
        decoder lowers the mask for them. In the first every legal path
        ties, so the tie-break must match the oracle's too; in the second a
        masked start outscores every legal path under c itself."""
        i_per = BIO1.index_of("I-PER")
        tied = np.full((5, 3), 4000.0)
        pulled = np.zeros((5, 3))
        pulled[:, i_per] = 2e4
        trans = TransitionMatrix.zeros(3)
        spec = spec_for(BIO1, mask_value=-1e4)
        assert viterbi(pulled, apply_mask(trans, spec))[0] == i_per
        for emissions in (tied, pulled):
            assert spec.mask_value > guard_threshold([emissions], trans, spec)
            path = constrained_viterbi(emissions, trans, spec)
            oracle, _ = brute_force_best(
                emissions, trans, rules=spec.rules
            )
            assert path == oracle

    def test_guard_threshold_scales_with_instance(self):
        spec = spec_for(BIO1)
        small = guard_threshold([np.ones((2, 3))], TransitionMatrix.zeros(3), spec)
        large = guard_threshold([np.full((10, 3), 100.0)], TransitionMatrix.zeros(3), spec)
        assert large < small < 0


class TestMaskedNll:
    def test_two_position_hand_value(self):
        """BIO one type, T=2, all zero, gold (O, O): five legal paths share the
        masked partition mass, so the NLL is log 5 up to e^c."""
        batch = [(np.zeros((2, 3)), [0, 0])]
        value = masked_nll(batch, TransitionMatrix.zeros(3), BIO1, spec_for(BIO1))
        assert value == pytest.approx(math.log(5.0), abs=1e-8)

    def test_illegal_gold_rejected_with_position(self):
        batch = [
            (np.zeros((2, 3)), [0, 0]),
            (np.zeros((2, 3)), [0, BIO1.index_of("I-PER")]),
        ]
        with pytest.raises(DataError) as err:
            masked_nll(batch, TransitionMatrix.zeros(3), BIO1, spec_for(BIO1))
        assert "sentence 2" in str(err.value)
        assert "position 2" in str(err.value)

    @pytest.mark.parametrize(
        "bad, message",
        [([0.7, 1.9], "non-integer tag index"), ([0, 3], "tag index 3 out of range"),
         ([-1, 0], "tag index -1 out of range"), ([True, False], "non-integer tag index")],
    )
    def test_unusable_gold_tag_names_the_sentence(self, bad, message):
        batch = [(np.zeros((2, 3)), [0, 0]), (np.zeros((2, 3)), bad)]
        with pytest.raises(DataError, match=f"^sentence 2: {message}"):
            masked_nll(batch, TransitionMatrix.zeros(3), BIO1, spec_for(BIO1))
        with pytest.raises(DataError, match=f"^dev sentence 2: {message}"):
            validate_gold_paths(BIO1, [gold for _, gold in batch], name="dev ")

    def test_illegal_start_rejected_only_when_enforced(self):
        batch = [(np.zeros((1, 3)), [BIO1.index_of("I-PER")])]
        with pytest.raises(DataError):
            validate_gold_paths(BIO1, [gold for _, gold in batch], enforce_start=True)
        validate_gold_paths(BIO1, [gold for _, gold in batch], enforce_start=False)

    def test_empty_rule_set_equals_plain_nll(self):
        rng = np.random.default_rng(6)
        emissions = rng.uniform(-1, 1, size=(3, 3))
        trans = TransitionMatrix(rng.uniform(-1, 1, size=(3, 3)), rng.uniform(-1, 1, size=3))
        batch = [(emissions, [0, 1, 2])]
        spec = MaskSpec(TransitionRuleSet(frozenset(), frozenset()))
        assert masked_nll(batch, trans, BIO1, spec) == nll_loss(batch, trans)

    def test_masked_nll_upper_bounds_restricted(self):
        """The masked partition sums over a superset of the legal paths."""
        rng = np.random.default_rng(7)
        spec = spec_for(BIO1, mask_value=-8.0)
        for _ in range(20):
            T = int(rng.integers(1, 5))
            emissions = rng.uniform(-1, 1, size=(T, 3))
            trans = TransitionMatrix(
                rng.uniform(-1, 1, size=(3, 3)), rng.uniform(-1, 1, size=3)
            )
            gold = random_legal_path(rng, BIO1, T)
            batch = [(emissions, gold)]
            assert masked_nll(batch, trans, BIO1, spec) >= restricted_nll(batch, trans, spec)

    def test_restricted_nll_never_exceeds_full_nll(self):
        rng = np.random.default_rng(8)
        spec = spec_for(BIO1)
        for _ in range(20):
            T = int(rng.integers(1, 5))
            emissions = rng.uniform(-1, 1, size=(T, 3))
            trans = TransitionMatrix(
                rng.uniform(-1, 1, size=(3, 3)), rng.uniform(-1, 1, size=3)
            )
            gold = random_legal_path(rng, BIO1, T)
            batch = [(emissions, gold)]
            assert restricted_nll(batch, trans, spec) <= nll_loss(batch, trans) + 1e-12

    def test_converges_to_restricted(self):
        rng = np.random.default_rng(9)
        emissions = rng.uniform(-1, 1, size=(3, 3))
        trans = TransitionMatrix(rng.uniform(-1, 1, size=(3, 3)), rng.uniform(-1, 1, size=3))
        gold = random_legal_path(rng, BIO1, 3)
        batch = [(emissions, gold)]
        target = restricted_nll(batch, trans, spec_for(BIO1))
        assert masked_nll(batch, trans, BIO1, spec_for(BIO1, mask_value=-30.0)) == pytest.approx(
            target, abs=1e-8
        )


class TestPropositionGap:
    def test_empty_rule_set_gaps_are_exactly_zero(self):
        rng = np.random.default_rng(10)
        emissions = rng.uniform(-1, 1, size=(3, 3))
        trans = TransitionMatrix(rng.uniform(-1, 1, size=(3, 3)), rng.uniform(-1, 1, size=3))
        spec = MaskSpec(TransitionRuleSet(frozenset(), frozenset()))
        assert mask_convergence_gap([(emissions, [0, 1, 2])], trans, spec) == (0.0, 0.0)

    def test_gaps_decay_with_mask_magnitude(self):
        rng = np.random.default_rng(11)
        emissions = rng.uniform(-1, 1, size=(3, 3))
        trans = TransitionMatrix(rng.uniform(-1, 1, size=(3, 3)), rng.uniform(-1, 1, size=3))
        gold = random_legal_path(rng, BIO1, 3)
        batch = [(emissions, gold)]
        gaps = [
            mask_convergence_gap(batch, trans, spec_for(BIO1, mask_value=c))
            for c in (-5.0, -10.0, -20.0, -30.0)
        ]
        losses = [g[0] for g in gaps]
        grads = [g[1] for g in gaps]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] >= losses[3]
        assert grads[0] > grads[1] > grads[2]
        assert grads[2] >= grads[3]
        assert losses[-1] <= 1e-8
        assert grads[-1] <= 1e-8

    def test_gap_tracks_exp_of_mask_value(self):
        """Between c = -10 and c = -15 the gap should shrink by roughly e^5."""
        rng = np.random.default_rng(12)
        emissions = rng.uniform(-1, 1, size=(2, 3))
        trans = TransitionMatrix.zeros(3)
        gold = [0, 0]
        batch = [(emissions, gold)]
        g10, _ = mask_convergence_gap(batch, trans, spec_for(BIO1, mask_value=-10.0))
        g15, _ = mask_convergence_gap(batch, trans, spec_for(BIO1, mask_value=-15.0))
        ratio = g10 / g15
        assert math.exp(4.0) < ratio < math.exp(6.0)
