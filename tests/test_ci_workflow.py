"""The CI workflow, read as text: it must install what the code imports and
run the tier-1 command and the benchmark self-test.

.github/workflows/tier1.yml can only run on a CI host, so this test is what
checks it against the code before then. Local modules (the package, the
test helpers, the benchmark's own files) and the standard library need no
install; every other top-level module that src/, tests/ or perfbench/
imports must be named in the workflow's pip install line. The last test
checks that the pytest settings in pyproject.toml are in force.
"""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SOURCE_DIRS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _run_lines() -> list[str]:
    """The command of every `run:` line of the workflow."""
    run = re.compile(r"^\s*(?:- )?run:\s*(.*)$")
    matches = map(run.match, WORKFLOW.read_text(encoding="utf-8").splitlines())
    return [m.group(1).strip() for m in matches if m]


def _imported_modules() -> set[str]:
    """The top-level module of every absolute import under SOURCE_DIRS."""
    names = set()
    for path in (p for d in SOURCE_DIRS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _local_modules() -> set[str]:
    return {
        p.stem if p.suffix == ".py" else p.name
        for d in SOURCE_DIRS
        for p in d.iterdir()
        if p.suffix == ".py" or (p / "__init__.py").exists()
    }


def test_install_step_names_every_third_party_import():
    third_party = _imported_modules() - set(sys.stdlib_module_names) - _local_modules()
    assert {"numpy", "pytest", "hypothesis"} <= third_party  # the scan sees the imports
    installs = [line for line in _run_lines() if "pip install" in line]
    assert len(installs) == 1, installs
    assert third_party <= set(installs[0].split()), (third_party, installs[0])


def test_runs_the_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.MULTILINE)
    assert command in _run_lines()


def test_runtime_warnings_fail_a_test():
    """pyproject.toml turns a RuntimeWarning (a silent overflow or nan) into
    an error in every test."""
    with pytest.raises(RuntimeWarning):
        np.log(np.zeros(1))


def test_runs_the_benchmark_self_test():
    assert "python3 perfbench/selftest.py" in _run_lines()
