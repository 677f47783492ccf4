"""The built-in self-verification suite must pass in full, quickly."""

import time

import numpy as np
import pytest

from mcrf import crf, verification
from mcrf.crf import TransitionMatrix
from mcrf.errors import ConfigurationError
from mcrf.verification import (
    _FD_STEP,
    CheckResult,
    _fd_crf,
    _worst_relative_error,
    check_encoder_gradients,
    check_gradients,
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
    """The float.hex of every observed value of the battery at four seeds,
    recorded before the engine had a model axis, when every perturbed copy
    of the transition and start scores was its own nll_loss call. A value
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

    def test_a_crf_instance_makes_three_engine_calls(self, monkeypatch):
        """The analytic gradients, the emissions as a batch of perturbed
        sentences, and every perturbed copy of the table as one model
        axis (2 x (9 + 3) = 24 at d = 3)."""
        calls = self._count_engine_calls(monkeypatch)
        rng = np.random.default_rng(1)
        trans = TransitionMatrix(rng.uniform(-2, 2, (3, 3)), rng.uniform(-2, 2, 3))
        assert _fd_crf(rng.uniform(-2, 2, (4, 3)), [0, 1, 2, 0], trans) < 1e-4
        assert [len(tables) for _, _, tables, _ in calls] == [1, 1, 24]

    def test_an_encoder_instance_makes_two_engine_calls(self, monkeypatch):
        """The analytic gradients, then every perturbed weight of the
        embeddings, projection and bias as one batch of sentences."""
        calls = self._count_engine_calls(monkeypatch)
        check_encoder_gradients(4)
        assert len(calls) == 2 * 10  # ten instances
        assert [len(tables) for _, _, tables, _ in calls] == [1] * 20

    def test_a_battery_makes_164_engine_calls(self, monkeypatch):
        """Three for each of the two gradient checks' 20 instances, two for
        each of the encoder check's 10, and 24 for check_log_partition: one
        stacked call per (T, d) group of its 200 instances."""
        calls = self._count_engine_calls(monkeypatch)
        run_verification(0)
        assert len(calls) == 3 * 2 * 20 + 2 * 10 + 24 == 164

    def test_the_referee_tables_each_shape_once(self, monkeypatch):
        """check_log_partition and check_viterbi hand each (T, d) group of
        their 200 instances to one stacked oracle call and to one stacked
        engine call (log Z, paths): 24 shapes each at seeds 0 and 1, every one
        of at most 5^6 paths, so one path table per shape, not one per
        instance. The battery's other 84 enumerations are
        check_mask_convergence's 42 loss oracles (one restricted and four
        masked per instance, and the two zero-gap ones), a log Z pass and a
        weights pass each, one sentence at a time."""
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
        assert len(enumerations) == 24 + 24 + 84
        assert [tables for _, tables in enumerations] == [1] * len(enumerations)
        assert sum(instances for instances, _ in enumerations) == 200 + 200 + 84


class TestCentralDifference:
    # (x + h) - h != x for the first, (x - h) + h != x for the second
    DRIFTING = (0.9999932640791473, -0.12499297962726974)

    def test_restores_every_entry_bit_for_bit(self):
        h = _FD_STEP
        assert (self.DRIFTING[0] + h) - h != self.DRIFTING[0]
        assert (self.DRIFTING[1] - h) + h != self.DRIFTING[1]
        arr = np.array([self.DRIFTING, [0.5, -2.0]])
        before = arr.copy()
        inputs = []

        def losses(snapshots):
            inputs.extend(snapshots)
            return [3.0 * s.sum() for s in snapshots]

        error = _worst_relative_error([(arr, np.full(arr.shape, 3.0))], arr.copy, losses)
        assert arr.tobytes() == before.tobytes()
        assert len(inputs) == 2 * arr.size
        for k, idx in enumerate(np.ndindex(arr.shape)):
            for sign, snapshot in zip((1.0, -1.0), inputs[2 * k : 2 * k + 2]):
                expected = before.copy()
                expected[idx] += sign * h
                assert snapshot.tobytes() == expected.tobytes()
        assert error < 1e-6

    def test_perturbs_the_arrays_in_order_and_reports_the_worst_entry(self):
        """Every entry of the first array, then of the second, from one
        losses call; the error is the largest over every entry of both."""
        first, second = np.array([0.5, -2.0]), np.array([[1.0], [4.0]])
        inputs, calls = [], []

        def snapshot():
            return (first.copy(), second.copy())

        def losses(snapshots):
            calls.append(len(snapshots))
            inputs.extend(snapshots)
            return [a.sum() + 2.0 * b.sum() for a, b in snapshots]

        analytic = [(first, np.array([1.0, 1.0])), (second, np.array([[2.0], [1.0]]))]
        error = _worst_relative_error(analytic, snapshot, losses)
        assert calls == [2 * (first.size + second.size)]
        changed = [int(np.flatnonzero(np.concatenate([a - first, (b - second).ravel()]))[0])
                   for a, b in inputs]
        assert changed == [0, 0, 1, 1, 2, 2, 3, 3]
        assert error == pytest.approx(0.5, rel=1e-6)  # |1 - 2| / 2 at second[1]

    def test_a_crf_check_leaves_its_arrays_unchanged(self):
        rng = np.random.default_rng(0)
        emissions = rng.uniform(-2.0, 2.0, size=(4, 3))
        emissions[0, :2] = self.DRIFTING
        trans = TransitionMatrix(rng.uniform(-2.0, 2.0, size=(3, 3)), np.array(self.DRIFTING + (1.0,)))
        trans.scores[1, :2] = self.DRIFTING
        arrays = (emissions, trans.scores, trans.start)
        before = [a.tobytes() for a in arrays]
        assert _fd_crf(emissions, [0, 1, 2, 0], trans) < 1e-4
        assert [a.tobytes() for a in arrays] == before
