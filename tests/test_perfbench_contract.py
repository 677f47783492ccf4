"""The attributes the benchmark's tracer reads from the package.

perfbench/tracer.py wraps every function its MCRF_LAYERS name, looking each
one up with getattr, and perfbench/selftest.py checks that `viterbi` is
re-exported where the package imports it. A rename or deletion under src/
would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from mcrf import crf

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_functions() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolves annotations through it
    spec.loader.exec_module(tracer)
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
