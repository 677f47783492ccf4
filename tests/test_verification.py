"""The built-in self-verification suite must pass in full, quickly."""

import time

import numpy as np
import pytest

from mcrf import crf
from mcrf.crf import TransitionMatrix
from mcrf.errors import ConfigurationError
from mcrf.verification import (
    _FD_STEP,
    CheckResult,
    _central_difference,
    _fd_crf,
    check_encoder_gradients,
    check_gradients,
    check_log_partition,
    check_mask_convergence,
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

    def test_a_crf_instance_makes_four_engine_calls(self, monkeypatch):
        """The analytic gradients, then one call per perturbed array: the
        emissions as a batch of perturbed sentences, the transition scores
        and the start as a model axis of perturbed copies (18 and 6 at d = 3)."""
        calls = []
        engine = crf._forward_backward

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(crf, "_forward_backward", counted)
        rng = np.random.default_rng(1)
        trans = TransitionMatrix(rng.uniform(-2, 2, (3, 3)), rng.uniform(-2, 2, 3))
        assert _fd_crf(rng.uniform(-2, 2, (4, 3)), [0, 1, 2, 0], trans) < 1e-4
        assert len(calls) == 4
        assert [len(scores) for _, _, scores, _, _ in calls] == [1, 1, 18, 6]


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

        fd = _central_difference(arr, arr.copy, losses)
        assert arr.tobytes() == before.tobytes()
        assert len(inputs) == 2 * arr.size
        for k, idx in enumerate(np.ndindex(arr.shape)):
            for sign, snapshot in zip((1.0, -1.0), inputs[2 * k : 2 * k + 2]):
                expected = before.copy()
                expected[idx] += sign * h
                assert snapshot.tobytes() == expected.tobytes()
        np.testing.assert_allclose(fd, 3.0, rtol=1e-6)

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
