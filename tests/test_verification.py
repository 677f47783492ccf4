"""The built-in self-verification suite must pass in full, quickly."""

import time

import numpy as np
import pytest

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
