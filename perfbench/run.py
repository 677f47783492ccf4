"""The mcrf benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the workload's fixtures from --seed, then runs the workload as a
closed loop with one caller (each operation starts when the previous one
has finished) for at least --seconds, checks every operation's output, and
prints one JSON object as the last line of standard output. With --trace 0
it reports the end-to-end metrics; with --trace 1 it runs one untraced and
one traced operation and reports per-layer counts and self times. Run it
from the repository root; it imports the package from ./src and keeps its
scratch files under perfbench/_work.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; children inherit it
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import calibrated, reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7


def import_package() -> None:
    """Make ./src/mcrf the package under test, or stop without a result."""
    if not (SRC / "mcrf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'mcrf'}")
    sys.path.insert(0, str(SRC))
    import mcrf

    if Path(mcrf.__file__).resolve().parent != SRC / "mcrf":
        raise SystemExit(f"perfbench: imported mcrf from {mcrf.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def time_setup(workload) -> list[list[tuple[float, float, float]]]:
    """Fresh processes that import the package and do the workload's reads,
    SETUP_REPEATS times, each timed as one piece (see timed_op)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), *workload.setup_files()]
    samples = []
    for _ in range(SETUP_REPEATS):
        before = reference()
        start = time.perf_counter()
        probe = subprocess.Popen(argv, stdin=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        watchdog = threading.Timer(120, probe.kill)
        watchdog.start()
        code = probe.wait()
        elapsed = time.perf_counter() - start
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        samples.append([(elapsed, before, reference())])
    return samples


def timed_op(workload, k: int, calibrate: bool = True) -> tuple[list, str | None]:
    """Run operation k. Returns its pieces and the error it raised, if any.

    A piece is (seconds, reference before, reference after). The reference
    kernel runs before and after the operation and at each checkpoint the
    operation calls, outside every piece, so the pieces cover the whole
    operation and each is calibrated by the references next to it. Without
    calibration the operation gets no checkpoint and is one piece."""
    refs = [reference()] if calibrate else [0.0]
    bounds = [time.perf_counter()]

    def checkpoint() -> None:
        bounds.append(time.perf_counter())
        refs.append(reference())
        bounds.append(time.perf_counter())

    try:
        workload.op(k, checkpoint if calibrate else None)
        problem = None
    except Exception as exc:  # noqa: BLE001 - any failure is counted, the loop goes on
        traceback.print_exc()
        problem = str(exc) or repr(exc)
    bounds.append(time.perf_counter())
    refs.append(reference() if calibrate else 0.0)
    pieces = [
        (bounds[2 * j + 1] - bounds[2 * j], refs[j], refs[j + 1]) for j in range(len(refs) - 1)
    ]
    return pieces, problem


def check_op(workload, k: int, problem: str | None, failures: list[str]) -> None:
    """Check operation k's output unless it already failed; a raised error
    or a failed check is a failure."""
    if problem is None:
        try:
            problem = workload.check(k)
        except Exception as exc:  # noqa: BLE001
            traceback.print_exc()
            problem = f"check raised {exc!r}"
    if problem:
        failures.append(f"op {k}: {problem}")


def summarize(name: str, units: list[list[tuple[float, float, float]]]) -> float:
    """Print the raw and calibrated medians of the units, each the sum of
    its pieces; return the calibrated one."""
    raw = [sum(s for s, _, _ in pieces) for pieces in units]
    value = statistics.median(sum(calibrated(*p) for p in pieces) for pieces in units)
    refs = [r for pieces in units for _, r, _ in pieces]
    print(
        f"{name} {value:.4f} s calibrated; measured median {statistics.median(raw):.4f} s "
        f"(n={len(raw)}, min {min(raw):.4f}, max {max(raw):.4f}), "
        f"reference median {statistics.median(refs):.5f} s"
    )
    return value


def timed_run(workload, seconds: float) -> tuple[dict, int, list[str]]:
    setup_s = summarize("setup_s", time_setup(workload))
    failures: list[str] = []
    units: list[list[tuple[float, float, float]]] = []
    deadline = time.perf_counter() + seconds
    while len(units) < workload.min_ops or time.perf_counter() < deadline or len(units) % workload.cycle:
        pieces, problem = timed_op(workload, len(units))
        check_op(workload, len(units), problem, failures)
        units.append(pieces)
    print(
        f"operations {len(units)}, measured seconds "
        + " ".join(f"{sum(s for s, _, _ in pieces):.3f}" for pieces in units)
    )
    op_s = summarize("op_s", units)
    for name, (value, unit) in workload.summary(op_s).items():
        print(f"{name} {value:.6g} {unit} (from the calibrated op_s)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s": (op_s, "s"),
        "quality": (workload.quality, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(units), failures


def traced_run(workload, seed: int) -> tuple[dict, int, list[str]]:
    from tracer import Tracer, metric_units

    failures: list[str] = []
    [(untraced, _, _)], problem = timed_op(workload, 0, calibrate=False)
    check_op(workload, 0, problem, failures)
    with Tracer(run=1) as tracer:
        [(traced, _, _)], problem = timed_op(workload, 0, calibrate=False)
    check_op(workload, 0, problem, failures)
    spans_path = WORK / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(str(spans_path))
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"tracing overhead {traced - untraced:+.4f} s on an untraced op of {untraced:.4f} s")
    units = metric_units()
    metrics = {name: (value, units[name]) for name, value in tracer.metrics().items()}
    metrics["bench.untraced_op_s"] = (untraced, "s")
    metrics["bench.traced_op_s"] = (traced, "s")
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s") and value > 0.01 * traced:
            print(f"{name} {value:.4f} s ({100 * value / traced:.1f}% of the traced op)")
    return metrics, 2, failures


def build_fixtures(workload_name: str, seed: int, work: str) -> tuple[dict, dict]:
    """Build the fixtures in a child process, so that its memory stays out
    of this process's peak; return the facts about them and their digests."""
    out = subprocess.run(
        [sys.executable, str(HERE / "build_fixtures.py"), workload_name, str(seed), work],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=150,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise subprocess.CalledProcessError(out.returncode, out.args)
    built = json.loads(out.stdout.strip().splitlines()[-1])
    return built["facts"], built["digests"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    # one CPU for the caller, the set-up probes it starts and the reference
    # kernel that calibrates them
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](scratch)
        start = time.perf_counter()
        facts, digests = build_fixtures(args.workload, args.seed, scratch)
        vars(workload).update(facts)
        print(f"fixture_build_s {time.perf_counter() - start:.3f} (not in any metric)")
        for name, digest in digests.items():
            print(f"fixture {name} {digest}")
        if args.trace:
            metrics, attempted, failures = traced_run(workload, args.seed)
        else:
            metrics, attempted, failures = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"error_rate {len(failures) / attempted:.4f} ({len(failures)}/{attempted} operations failed)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
