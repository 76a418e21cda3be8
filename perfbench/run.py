"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,analyst_library,service_http}
        --seed N --seconds S --trace {0,1}

Builds the workload's inputs from ``--seed``, measures for ``--seconds``,
checks the program's outputs and prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``).  Exits 1 when a check
fails.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread in this process and every process it starts;
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p])

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

#: Scratch space for catalogs and server logs, inside the checkout.
WORK = Path(ROOT) / ".perfbench"


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: this machine's speed now.

    Printed with every run, so that a figure that moved with the
    machine's own drift can be told from one the program moved.
    """
    import statistics
    import time

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def machine() -> str:
    """The machine record printed with every run."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "analyst_library",
                                 "service_http"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # The program itself must be importable before anything is printed.
    import repro.db  # noqa: F401
    import repro.service  # noqa: F401

    import spans
    import workloads

    calib_ms = calibrate()
    tracer = None
    if args.trace:
        import repro.core.sharded  # noqa: F401 - bind before wrapping
        import repro.pipeline.segmented  # noqa: F401
        import repro.vision.pipeline  # noqa: F401

        tracer = spans.Tracer()
        spans.install(tracer)

    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, run_dir, tracer)
        if tracer is not None:
            tracer.write(WORK / f"{args.workload}-spans.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if result.failed != result.expected_failures:
        result.problems.append(
            f"{result.failed - result.expected_failures} operation(s) "
            f"failed besides the known-fault probes")
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{machine()} calib_ms={calib_ms:.2f}")
    info = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in result.info.items())
    print(f"{args.workload} seed={args.seed}: {info}")
    if args.trace:
        names = spans.LAYER_METRICS
    else:
        names = workloads.END_TO_END
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name][0],
                           "unit": result.metrics[name][1]}
                    for name in names},
    }))
    return 0 if not result.problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
