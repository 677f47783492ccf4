"""Calibration against a fixed reference kernel.

On a shared host the speed of one CPU drifts by up to 2x over minutes, as
other tenants load the machine; a median over seconds of work cannot hide
that. So every timed piece is bracketed by two runs of `reference()`, a
fixed mix of interpreter work and small-array numpy calls that never touches
mcrf, and reported as

    calibrated = measured * REFERENCE_S / mean(reference before, after)

that is, in seconds at the speed where `reference()` takes REFERENCE_S.
A change to mcrf moves the measured time but not the reference, so the
calibrated time moves with it; a slower host moves both.
"""

from __future__ import annotations

import time

import numpy as np

# a fixed scale: the 1st percentile of 400 reference() calls on a 2-vCPU
# Intel Xeon VM (2.1 GHz) with CPython 3.11.7 and numpy 2.4.6, that is its
# time when the host is quiet
REFERENCE_S = 0.0125

_MATRIX = np.arange(49.0).reshape(7, 7)
_TAGS = tuple(f"{prefix}-T{k}" for k in range(10) for prefix in "BIES") + ("O",)


def reference() -> float:
    """Wall time of the reference kernel: small-array numpy calls, and
    string, tuple and set work in the interpreter, the two kinds of work
    mcrf does."""
    start = time.perf_counter()
    acc = 0.0
    seen = set()
    for i in range(2000):
        row = np.exp(_MATRIX[i % 7] - _MATRIX.max(axis=0))
        acc += float(row.sum())
        for tag in _TAGS[i % 5 :: 5]:
            prefix, _, etype = tag.partition("-")
            if prefix in ("B", "I"):
                seen.add((i & 255, etype))
    return time.perf_counter() - start


def calibrated(measured: float, before: float, after: float) -> float:
    return measured * REFERENCE_S * 2 / (before + after)
