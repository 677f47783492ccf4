"""The built-in self-verification suite must pass in full, quickly."""

import time

import pytest

from mcrf.errors import ConfigurationError
from mcrf.verification import (
    CheckResult,
    check_gradients,
    check_log_partition,
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
