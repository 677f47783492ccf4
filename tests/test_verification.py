"""The built-in self-verification suite must pass in full, quickly."""

import math
import time

import numpy as np
import pytest

from mcrf import crf, verification
from mcrf.crf import TransitionMatrix, _batch_nll, loss_and_gradients, nll_loss
from mcrf.encoder import EncoderWeights, encode, encoder_backward, window_ids
from mcrf.errors import ConfigurationError
from mcrf.masking import MaskSpec, apply_mask
from mcrf.schemes import build_tagset
from mcrf.verification import (
    _FD_STEP,
    CheckResult,
    _fd_crf,
    _perturbations,
    _random_scores,
    _relative_error,
    check_encoder_gradients,
    check_gradients,
    check_legal_scores_unchanged,
    check_log_partition,
    check_mask_convergence,
    check_mask_idempotence,
    check_viterbi,
    run_verification,
)


class TestChecks:
    def test_all_checks_pass(self):
        results, elapsed = run_verification(seed=0)
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert len(results) == 8
        assert elapsed < 60.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            run_verification(seed=-1)

    def test_check_names_are_unique(self):
        results, _ = run_verification(seed=0)
        names = [r.name for r in results]
        assert len(set(names)) == len(names)

    def test_line_format(self):
        line = CheckResult(
            name="demo", observed=1.5e-10, threshold=1e-9, passed=True, detail="x"
        ).line()
        assert line == "[PASS] demo: observed 1.500e-10 vs 1.000e-09 (x)"
        line = CheckResult("demo", 2.0, 1.0, False, "y").line()
        assert line.startswith("[FAIL] demo:")

    def test_checks_are_seed_stable(self):
        a = check_log_partition(seed=0)
        b = check_log_partition(seed=0)
        assert a.observed == b.observed

    def test_masked_gradient_check_runs_with_mask(self):
        result = check_gradients(seed=2, masked=True)
        assert result.passed

    @staticmethod
    def _decode_zeros(emissions, tables, rules):
        """A wrong stacked decoder: tag 0 at every position."""
        return [[0] * emissions.shape[1] for _ in emissions]

    def test_a_wrong_decoder_fails_the_viterbi_check(self, monkeypatch):
        monkeypatch.setattr(verification, "_engine_paths", self._decode_zeros)
        result = check_viterbi(1)
        assert not result.passed and result.line().startswith("[FAIL] viterbi vs enumeration:")
        assert result.observed > 0.0 and " 0 path mismatches" not in result.detail

    def test_the_viterbi_check_scores_only_the_mismatched_paths(self, monkeypatch):
        """A decoded path equal to the best one differs from it by exactly
        0.0, so path_score runs twice per mismatch and never otherwise."""
        calls = []

        def counting(emissions, trans, path):
            calls.append(path)
            return crf.path_score(emissions, trans, path)

        monkeypatch.setattr(verification, "path_score", counting)
        assert check_viterbi(1).passed and calls == []
        monkeypatch.setattr(verification, "_engine_paths", self._decode_zeros)
        result = check_viterbi(1)
        mismatches = int(result.detail.split(", ")[1].split()[0])
        assert 0 < mismatches < 200 and len(calls) == 2 * mismatches

    def test_a_mask_that_moves_again_fails_the_idempotence_check(self, monkeypatch):
        def shifting(trans, spec):
            return TransitionMatrix(trans.scores + 1.0, trans.start)

        monkeypatch.setattr(verification, "apply_mask", shifting)
        result = check_mask_idempotence(7)
        assert not result.passed and result.observed == 50.0
        assert result.line().startswith("[FAIL] mask idempotence:")

    def test_runtime_is_desk_scale(self):
        start = time.perf_counter()
        run_verification(seed=0)
        assert time.perf_counter() - start < 30.0

    def test_batched_differences_keep_the_observed_bits(self):
        """The emission and encoder differences read their losses from one
        engine call per perturbed array; at d = 3 each loss has the bits of
        its own nll_loss call, so the observed values are those of the
        per-perturbation calls. The log-partition and mask-convergence values
        pin the draws of _random_scores to the instances the checks drew when
        each built its matrices by hand."""
        assert check_log_partition(0).observed == 3.552713678800501e-15
        assert check_gradients(2, masked=False).observed == 1.1558926859252791e-08
        assert check_gradients(3, masked=True).observed == 6.908370403513331e-09
        assert check_encoder_gradients(4).observed == 8.419767227180186e-09
        assert check_mask_convergence(5).observed == 7.123190925995004e-13


class TestObservedBits:
    """The float.hex of every observed value of the battery at five seeds.
    Seeds 0, 3, 7 and 101 were recorded before the engine had a model axis,
    when every perturbed copy of the transition and start scores was its own
    nll_loss call; seed 5000, which the byte-identity gates also name, while
    every gradient check still made one analytic call per instance. A value
    that moves in its last bit fails here."""

    OBSERVED = {
        0: ("0x1.0000000000000p-48", "0x0.0p+0", "0x1.8d2965591ae8ap-27",
            "0x1.dabd566000000p-28", "0x1.214d0e4600000p-27", "0x1.9100000000000p-41",
            "0x0.0p+0", "0x0.0p+0"),
        3: ("0x1.0000000000000p-48", "0x0.0p+0", "0x1.aecd11bc00000p-27",
            "0x1.3a22eee000000p-27", "0x1.231b0f2000000p-27", "0x1.1280000000000p-40",
            "0x0.0p+0", "0x0.0p+0"),
        7: ("0x1.0000000000000p-48", "0x0.0p+0", "0x1.51640d1e00000p-27",
            "0x1.0f29ac0afab65p-27", "0x1.cca1af3d9c30ep-28", "0x1.2fb0000000000p-40",
            "0x0.0p+0", "0x0.0p+0"),
        101: ("0x1.0000000000000p-48", "0x0.0p+0", "0x1.c18d523c80000p-27",
              "0x1.181cc0a000000p-27", "0x1.128fbf7a00000p-27", "0x1.3800000000000p-43",
              "0x0.0p+0", "0x0.0p+0"),
        5000: ("0x1.0000000000000p-48", "0x0.0p+0", "0x1.01d0eac400000p-27",
               "0x1.42a3347600000p-27", "0x1.b891b5e500000p-28", "0x1.2000000000000p-43",
               "0x0.0p+0", "0x0.0p+0"),
    }

    @pytest.mark.parametrize("seed", sorted(OBSERVED))
    def test_every_observed_value_keeps_its_bits(self, seed):
        results, _ = run_verification(seed)
        assert tuple(r.observed.hex() for r in results) == self.OBSERVED[seed]

    @staticmethod
    def _count_engine_calls(monkeypatch) -> list:
        calls = []
        engine = crf._forward_backward

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(crf, "_forward_backward", counted)
        return calls

    def test_a_crf_group_makes_three_stacked_engine_calls(self, monkeypatch):
        """k instances of one shape: one call has model j over instance j's
        sentence, for every analytic gradient; one has model j over
        instance j's 2 x T x d perturbed sentences, and one has every
        perturbed copy of every table (2 x (9 + 3) = 24 each at d = 3) over
        its own instance's sentence."""
        calls = self._count_engine_calls(monkeypatch)
        rng = np.random.default_rng(1)
        k, T, d = 5, 4, 3
        sentences = [rng.uniform(-2, 2, (T, d)) for _ in range(k)]
        tables = [_random_scores(rng, d, 2.0).table for _ in range(k)]
        assert _fd_crf(sentences, tables) < 1e-4
        assert [len(tables) for _, _, tables, _ in calls] == [k, k, 24 * k]
        assert [gradients for *_, gradients in calls] == [True, False, False]
        shapes = [emissions.shape for emissions, *_ in calls]
        assert shapes == [(T, k, 1, d), (T, k, 2 * T * d, d), (T, 24 * k, 1, d)]

    def test_an_encoder_t_group_makes_two_engine_calls(self, monkeypatch):
        """A group of k instances of one T: the analytic gradients, model j
        over instance j's encoded sentence under its own gold, then model j
        over the 102 logit matrices of instance j's perturbed embeddings,
        projection and bias (42 + 54 + 6 at V = 7, e = 3, d = 3)."""
        calls = self._count_engine_calls(monkeypatch)
        groups: dict[int, int] = {}  # T -> instances, as the check draws them
        rng = np.random.default_rng(4)
        for _ in range(10):
            T = int(rng.integers(2, 5))
            EncoderWeights.init(7, 3, 3, rng)
            _random_scores(rng, 3, 1.0)
            rng.integers(0, 7, size=T)
            rng.integers(0, 3, size=T)
            groups[T] = groups.get(T, 0) + 1
        check_encoder_gradients(4)
        assert len(groups) == 3 and len(calls) == 2 * len(groups)
        assert [len(tables) for _, _, tables, _ in calls] == [k for k in groups.values() for _ in range(2)]
        shapes = [emissions.shape for emissions, *_ in calls]
        assert shapes == [s for T, k in groups.items() for s in ((T, k, 1, 3), (T, k, 102, 3))]
        assert [gradients for *_, gradients in calls] == [True, False] * len(groups)

    def test_a_battery_makes_48_engine_calls(self, monkeypatch):
        """At seed 0: 24 for check_log_partition, one stacked call per (T, d)
        group of its 200 instances; for each gradient check, three stacked
        calls per T group (T is 2 to 4, and all three occur); two for each
        of the encoder check's three T groups."""
        calls = self._count_engine_calls(monkeypatch)
        per_check = []
        gradients = 3 * 3
        expected = [("check_log_partition", 24), ("check_viterbi", 0),
                    ("check_gradients", gradients), ("check_gradients", gradients),
                    ("check_encoder_gradients", 2 * 3), ("check_mask_convergence", 0),
                    ("check_legal_scores_unchanged", 0), ("check_mask_idempotence", 0)]
        for name in dict(expected):
            monkeypatch.setattr(verification, name, self._counted(name, calls, per_check))
        run_verification(0)
        assert per_check == expected
        assert len(calls) == 24 + 2 * gradients + 2 * 3 == 48

    @staticmethod
    def _counted(name, calls, per_check):
        check = getattr(verification, name)

        def counted(*args, **kwargs):
            before = len(calls)
            result = check(*args, **kwargs)
            per_check.append((name, len(calls) - before))
            return result

        return counted

    def test_the_referee_tables_each_shape_once(self, monkeypatch):
        """check_log_partition and check_viterbi hand each (T, d) group of
        their 200 instances to one stacked oracle call and to one stacked
        engine call (log Z, paths): 24 shapes each at seeds 0 and 1, every one
        of at most 5^6 paths, so one path table per shape, not one per
        instance. The battery's other 12 enumerations are
        check_mask_convergence's, a log Z pass and a weights pass for each
        of its 6 gradient oracle calls: at seed 5 its 8 instances fall into
        two T groups, each with one stacked restricted call over its k
        instances and one stacked masked call over their 4k masked tables
        (8 + 32 instances in all), then the two zero-gap calls, one
        sentence each."""
        groups = {name: [] for name in
                  ("_brute_force_log_z", "_brute_force_paths", "_engine_log_z", "_engine_paths")}
        for name, sizes in groups.items():
            def oracle(emissions, *args, stacked=getattr(verification, name), sizes=sizes):
                sizes.append(len(emissions))
                return stacked(emissions, *args)

            monkeypatch.setattr(verification, name, oracle)
        enumerations = []  # (instances, path tables) of each enumeration
        enumerate_ = crf._iter_scored_chunks

        def counted(emissions, *args):
            tables = []  # kept alive, so that no two tables share an id
            for chunk in enumerate_(emissions, *args):
                if not any(chunk[1] is table for table in tables):
                    tables.append(chunk[1])
                yield chunk
            enumerations.append((len(emissions), len(tables)))

        monkeypatch.setattr(crf, "_iter_scored_chunks", counted)
        run_verification(0)
        for sizes in groups.values():
            assert len(sizes) == 24 and sum(sizes) == 200
        assert len(enumerations) == 24 + 24 + 2 * (2 * 2 + 2)
        assert [tables for _, tables in enumerations] == [1] * len(enumerations)
        assert sum(instances for instances, _ in enumerations) == 200 + 200 + 2 * (8 + 32 + 2)


def mutate_and_restore(arrays, snapshot) -> list:
    """The reference for _perturbations, the loop it replaced: every entry
    of every array, in np.ndindex order, set to its value + _FD_STEP, then
    - _FD_STEP, while snapshot() records the input that perturbation makes;
    each entry gets its saved value back, since (x + h) - h is not always x.
    Returns the inputs in that order."""
    inputs = []
    for arr in arrays:
        for idx in np.ndindex(arr.shape):
            saved = arr[idx]
            for step in (_FD_STEP, -_FD_STEP):
                arr[idx] = saved + step
                inputs.append(snapshot())
            arr[idx] = saved
    return inputs


class TestCentralDifference:
    # (x + h) - h != x for the first, (x - h) + h != x for the second
    DRIFTING = (0.9999932640791473, -0.12499297962726974)
    # every array the checks perturb: check_gradients' (T, d) emissions and
    # (d + 1, d) tables, the encoder check's embeddings, projection and bias
    CHECKED_SHAPES = [(2, 3), (3, 3), (4, 3), (7, 3), (9, 3), (3,)]

    def test_restores_every_entry_bit_for_bit(self):
        """The reference restores each drifting entry from its saved
        value, and the stacked copies move one entry each, as it does."""
        h = _FD_STEP
        assert (self.DRIFTING[0] + h) - h != self.DRIFTING[0]
        assert (self.DRIFTING[1] - h) + h != self.DRIFTING[1]
        arr = np.array([self.DRIFTING, [0.5, -2.0]])
        before = arr.copy()
        reference = mutate_and_restore([arr], arr.copy)
        assert arr.tobytes() == before.tobytes()
        inputs = _perturbations(arr)
        error = _relative_error([np.full(arr.shape, 3.0)], [3.0 * s.sum() for s in inputs])
        assert arr.tobytes() == before.tobytes()
        assert inputs.shape == (2 * arr.size, *arr.shape)
        assert inputs.tobytes() == np.stack(reference).tobytes()
        for k, idx in enumerate(np.ndindex(arr.shape)):
            for sign, snapshot in zip((1.0, -1.0), inputs[2 * k : 2 * k + 2]):
                expected = before.copy()
                expected[idx] += sign * h
                assert snapshot.tobytes() == expected.tobytes()
        assert error < 1e-6

    @pytest.mark.parametrize("shape", CHECKED_SHAPES, ids=[
        "emissions-T2", "emissions-T3", "emissions-T4-and-tables", "embeddings", "projection", "bias"])
    def test_the_stacked_copies_are_the_reference_loops_at_every_checked_shape(self, shape):
        """Byte for byte, at each shape the checks perturb, over random
        entries of several scales with the drifting ones among them."""
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        for scale in (1e-3, 0.1, 2.0, 1e3):
            arr = rng.uniform(-scale, scale, size=shape)
            arr.reshape(-1)[:2] = self.DRIFTING
            reference = np.stack(mutate_and_restore([arr], arr.copy))
            assert _perturbations(arr).tobytes() == reference.tobytes()
            assert _perturbations(arr).shape == reference.shape == (2 * arr.size, *shape)

    def test_a_read_only_array_is_perturbed_without_a_write(self):
        arr = np.array([self.DRIFTING, [0.5, -2.0], [3.0, -4.0]])
        reference = np.stack(mutate_and_restore([arr], arr.copy))
        arr.flags.writeable = False
        inputs = _perturbations(arr)
        assert inputs.flags.writeable and not arr.flags.writeable
        assert inputs.tobytes() == reference.tobytes()

    def test_perturbs_the_arrays_in_order_and_reports_the_worst_entry(self):
        """Every entry of the first array, then of the second; the error is
        the largest over every entry of both."""
        first, second = np.array([0.5, -2.0]), np.array([[1.0], [4.0]])
        losses = [a.sum() + 2.0 * second.sum() for a in _perturbations(first)]
        losses += [first.sum() + 2.0 * b.sum() for b in _perturbations(second)]
        error = _relative_error([np.array([1.0, 1.0]), np.array([[2.0], [1.0]])], losses)
        assert len(losses) == 2 * (first.size + second.size)
        assert error == pytest.approx(0.5, rel=1e-6)  # |1 - 2| / 2 at second[1]

    def test_a_crf_group_leaves_every_perturbed_array_unchanged(self, monkeypatch):
        """_fd_crf perturbs each of three instances' emissions and table,
        each holding drifting entries and each read-only, so a write would
        raise; every one keeps its bytes."""
        perturbed = []  # each perturbed array, with its bytes before and after
        perturbations = verification._perturbations

        def spy(x):
            before = x.tobytes()
            inputs = perturbations(x)
            perturbed.append((x, before, x.tobytes()))
            return inputs

        monkeypatch.setattr(verification, "_perturbations", spy)
        rng = np.random.default_rng(0)
        sentences, tables = [], []
        for _ in range(3):
            emissions = rng.uniform(-2.0, 2.0, size=(4, 3))
            emissions[0, :2] = self.DRIFTING
            start = np.array(self.DRIFTING + (1.0,))
            trans = TransitionMatrix(rng.uniform(-2.0, 2.0, size=(3, 3)), start)
            trans.scores[1, :2] = self.DRIFTING
            sentences.append(emissions)
            tables.append(trans.table)
        arrays = sentences + tables
        inputs = [a.tobytes() for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        assert _fd_crf(sentences, tables) < 1e-4
        assert len(perturbed) == len(arrays)
        assert all(arr is array for (arr, _, _), array in zip(perturbed, arrays))
        assert all(before == after for _, before, after in perturbed)
        assert [a.tobytes() for a in arrays] == inputs


def fd_error(pairs, snapshot, losses) -> float:
    """Worst relative error of (array, analytic gradient) pairs against the
    central differences of losses(inputs) over every input the reference
    mutate_and_restore records."""
    arrays, gradients = zip(*pairs)
    return _relative_error(gradients, losses(mutate_and_restore(arrays, snapshot)))


class TestGroupedGradientCheck:
    @staticmethod
    def per_instance(emissions, trans):
        """The per-instance three-call form of the gradient check: the
        analytic call, the emission differences as one batch of sentences
        under the instance's model, and the table differences as the models
        of one call over the instance's sentence."""
        gold = [0] * len(emissions)
        batch = [(emissions, gold)]
        _, grads = loss_and_gradients(batch, trans)

        def sentence_losses(sentences):
            n = len(sentences)
            stacked = crf.TokenBatch(np.concatenate(sentences), np.full(n, len(gold)), np.tile(gold, n))
            return _batch_nll(stacked, trans.table[None], gradients=False)[1][0]

        def model_losses(tables):
            return _batch_nll(batch, np.stack(tables), gradients=False)[0]

        trans_pairs = [(trans.scores, grads.transitions), (trans.start, grads.start)]
        return max(
            fd_error([(emissions, grads.emissions[0])], emissions.copy, sentence_losses),
            fd_error(trans_pairs, trans.table.copy, model_losses),
        )

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("seed", [0, 2, 3, 11, 101, 5000])
    def test_the_grouped_check_keeps_the_per_instance_worst_error(self, seed, masked):
        """The check groups its 20 instances by T; its worst error has the
        bits of the maximum over the per-instance form of the same draws."""
        rng = np.random.default_rng(seed)
        spec = MaskSpec(rules=build_tagset("bio", ["A"]).rules)
        worst = 0.0
        for _ in range(20):
            T = int(rng.integers(2, 5))
            emissions = rng.uniform(-2.0, 2.0, size=(T, 3))
            trans = _random_scores(rng, 3, 2.0)
            if masked:
                trans = apply_mask(trans, spec)
            worst = max(worst, self.per_instance(emissions, trans))
        assert check_gradients(seed, masked).observed.hex() == worst.hex()


class TestLegalPathDraw:
    @pytest.mark.parametrize("seed", [0, 3, 7, 101, 5000])
    def test_each_position_draws_as_rng_choice_over_its_legal_successors(self, seed, monkeypatch):
        """The check builds each tag's legal successors once and draws
        legal[rng.integers(len(legal))] at each position: the paths of
        rng.choice(np.flatnonzero(~illegal[tag])), the draw it replaced,
        at every successor-list size of the tag set. It scores them by
        length, in the order it first drew each length, each group unmasked
        and then masked."""
        paths = []

        def recording(emissions, tables, group_paths):
            paths.append(group_paths.tolist())
            return crf._scores(emissions, tables, group_paths)

        monkeypatch.setattr(verification, "_scores", recording)
        assert check_legal_scores_unchanged(seed).passed
        tagset = build_tagset("bio", ["A", "B"])
        d = tagset.size
        illegal = tagset.rules.table(d)
        rng = np.random.default_rng(seed)
        groups, sizes = {}, set()
        for _ in range(100):
            T = int(rng.integers(1, 7))
            rng.uniform(-2.0, 2.0, size=(T, d))
            _random_scores(rng, d, 2.0)
            path = [d]
            for _ in range(T):
                legal = np.flatnonzero(~illegal[path[-1]])
                sizes.add(len(legal))
                path.append(int(rng.choice(legal)))
            groups.setdefault(T, []).append(path[1:])
        assert paths == [group for group in groups.values() for _ in range(2)]
        assert sizes == {int(row.sum()) for row in ~illegal} == {3, 4}

    @pytest.mark.parametrize("seed", [0, 6, 101])
    def test_the_grouped_check_keeps_the_per_path_worst_gap(self, seed, monkeypatch):
        """Under a mask that also moves the legal scores, the worst gap of
        the stacked scores has the bits of the largest per-path
        path_score gap over the same draws."""
        def shifting(tables, spec):  # the check masks each T group's stacked tables at once
            return np.concatenate([tables[:, :-1] * 1.5 + 0.25, tables[:, -1:] - 0.5], axis=1)

        monkeypatch.setattr(verification, "_masked", shifting)
        tagset = build_tagset("bio", ["A", "B"])
        d = tagset.size
        illegal = tagset.rules.table(d)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(100):
            T = int(rng.integers(1, 7))
            emissions = rng.uniform(-2.0, 2.0, size=(T, d))
            trans = _random_scores(rng, d, 2.0)
            path = [d]
            for _ in range(T):
                path.append(int(rng.choice(np.flatnonzero(~illegal[path[-1]]))))
            gap = crf.path_score(emissions, trans, path[1:])
            shifted = shifting(trans.table[None], None)[0]
            gap -= crf.path_score(emissions, TransitionMatrix(shifted[:-1], shifted[-1]), path[1:])
            worst = max(worst, abs(gap))
        result = check_legal_scores_unchanged(seed)
        assert not result.passed and worst > 0.0
        assert result.observed.hex() == worst.hex()


class TestStackedEncoderCheck:
    @pytest.mark.parametrize("seed", [0, 4, 7, 101, 5000])
    def test_the_stacked_check_keeps_the_per_perturbation_worst_error(self, seed):
        """The check encodes each weight class's perturbed copies in one
        stacked call; its worst error has the bits of the form that encoded
        each perturbation on its own and took its loss from its own nll_loss
        call (at d = 3 the stacked losses have those bits)."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        names = ("embeddings", "projection", "bias")
        for _ in range(10):
            V, e, d, T = 7, 3, 3, int(rng.integers(2, 5))
            weights = EncoderWeights.init(V, e, d, rng)
            trans = _random_scores(rng, d, 1.0)
            windows = window_ids(rng.integers(0, V, size=T))
            gold = [int(v) for v in rng.integers(0, d, size=T)]
            _, grads = loss_and_gradients([(encode(windows, weights), gold)], trans)
            analytic = encoder_backward(windows, grads.emissions[0], weights)
            pairs = [(getattr(weights, name), getattr(analytic, name)) for name in names]

            def losses(inputs):
                return [nll_loss([(logits, gold)], trans) for logits in inputs]

            worst = max(worst, fd_error(pairs, lambda: encode(windows, weights), losses))
        assert check_encoder_gradients(seed).observed.hex() == worst.hex()


def nan_on_call(monkeypatch, name: str, call: int, make_nan) -> None:
    """Replace verification.<name> so that its call-th call (from 1) returns
    make_nan of what it would have returned."""
    original, calls = getattr(verification, name), []

    def patched(*args, **kwargs):
        calls.append(None)
        result = original(*args, **kwargs)
        return make_nan(result) if len(calls) == call else result

    monkeypatch.setattr(verification, name, patched)


def nan_like(result):
    return np.full(np.shape(result), np.nan) if np.ndim(result) else math.nan


class TestNanErrorsFail:
    """max(0.0, nan) is 0.0: a running maximum that meets a nan after its
    first value keeps the number. Each check's worst error keeps the nan, so
    a nan met after the first instance or group FAILs with observed nan."""

    @staticmethod
    def assert_fails_with_nan(result):
        assert not result.passed and math.isnan(result.observed)
        assert result.line().startswith("[FAIL]") and " observed nan " in result.line()

    def test_log_partition(self, monkeypatch):
        nan_on_call(monkeypatch, "_engine_log_z", 2, nan_like)
        self.assert_fails_with_nan(check_log_partition(0))

    def test_viterbi(self, monkeypatch):
        monkeypatch.setattr(verification, "_engine_paths", TestChecks._decode_zeros)
        nan_on_call(monkeypatch, "path_score", 3, nan_like)  # the second mismatch
        self.assert_fails_with_nan(check_viterbi(1))

    @pytest.mark.parametrize("name", ["_fd_crf", "_relative_error"])
    def test_gradients(self, monkeypatch, name):
        """The second T group's error, or the table error of the first
        group after its emission error."""
        nan_on_call(monkeypatch, name, 2, nan_like)
        self.assert_fails_with_nan(check_gradients(2, masked=False))

    def test_encoder_gradients(self, monkeypatch):
        nan_on_call(monkeypatch, "_relative_error", 2, nan_like)
        self.assert_fails_with_nan(check_encoder_gradients(4))

    @pytest.mark.parametrize("which", [0, 1])
    def test_mask_convergence(self, monkeypatch, which):
        """The second instance's loss (0) or gradient (1) gap at c = -30,
        the check's eighth gap call."""
        def nan_gap(gaps):
            return tuple(math.nan if k == which else gap for k, gap in enumerate(gaps))

        nan_on_call(monkeypatch, "_convergence_gap", 8, nan_gap)
        self.assert_fails_with_nan(check_mask_convergence(5))

    def test_legal_scores(self, monkeypatch):
        nan_on_call(monkeypatch, "_scores", 3, nan_like)  # the second group, unmasked
        self.assert_fails_with_nan(check_legal_scores_unchanged(6))

