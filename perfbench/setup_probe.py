"""Set-up probe, run as a fresh process by run.py to time setup_s: import
the package and its CLI, then read the corpora and models a workload reads
before its first operation.

Usage: python3 perfbench/setup_probe.py SCHEME TYPES [FILE ...]
Files ending in .json are loaded as models; the others are read as CoNLL
corpora over the SCHEME tagset with the first TYPES entity types.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcrf.cli import DEFAULT_TYPE_NAMES  # noqa: E402  (imports every module)
from mcrf.data import load_model, read_conll  # noqa: E402
from mcrf.schemes import build_tagset  # noqa: E402

scheme, types, *files = sys.argv[1:]
tagset = build_tagset(scheme, DEFAULT_TYPE_NAMES[: int(types)])
for path in files:
    if path.endswith(".json"):
        load_model(path)
    else:
        read_conll(path, tagset)
