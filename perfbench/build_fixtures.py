"""Fixture builder, run as a child process by run.py so that building (the
tag-bioes10 model trains here) stays out of the benchmark process's peak
memory: build one workload's fixtures from a seed into a directory and print
the facts about them as one JSON object.

Usage: python3 perfbench/build_fixtures.py WORKLOAD SEED DIR
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

name, seed, work = sys.argv[1:]
facts, digests = WORKLOADS[name](work).build(int(seed))
print(json.dumps({"facts": facts, "digests": digests}))
