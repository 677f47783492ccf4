"""The benchmark's contract with the package.

perfbench/tracer.py wraps every function its MCRF_LAYERS name, looking each
one up with getattr, and perfbench/selftest.py checks that `viterbi` is
re-exported where the package imports it. A rename or deletion under src/
would otherwise surface only when the benchmark runs.

The self-test's tracer and check tests run here too, loaded read-only from
perfbench/selftest.py: they catch a change under src/ that breaks the
tracer's span nesting (constrained_viterbi must call guard_threshold and
crf.viterbi) or the tag-bioes10 legality check. Its BenchmarkTests, which
spawn whole benchmark runs, stay in the self-test alone.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from mcrf import crf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


_selftest = _load("perfbench_selftest", PERFBENCH / "selftest.py")
TracerTests = _selftest.TracerTests
CheckTests = _selftest.CheckTests


def _traced_functions() -> list[str]:
    tracer = _load("perfbench_tracer", TRACER)
    return [name for layer in tracer.MCRF_LAYERS for name in layer.functions]


def test_every_traced_function_and_viterbi_reexport_is_a_module_attribute():
    missing = []
    for qualified in _traced_functions():
        module_name, attr = qualified.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"mcrf.{module_name}"), attr, None)):
            missing.append(qualified)
    for module_name in ("cli", "masking", "training", "verification"):
        module = importlib.import_module(f"mcrf.{module_name}")
        if getattr(module, "viterbi", None) is not crf.viterbi:
            missing.append(f"{module_name}.viterbi")
    assert missing == []
