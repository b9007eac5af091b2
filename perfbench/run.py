"""Run one semidtn benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload recon_half_k3 --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps the public functions of every module and reports
per-layer counts and times instead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it say the same for a reader, with the
environment the run saw. The exit code is 0 when the run finished, whether
or not its outputs passed the correctness gate; it is 2 when the harness
cannot run at all (for example when ``src/semidtn`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

# Single process, closed loop: numerical libraries get one thread each. These
# must be set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench_tmp"


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny grid, family and basis that runs every "
                             "code path in seconds (for the harness's own test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "semidtn" / "__init__.py").is_file():
        print(f"perfbench: no semidtn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # numpy and scipy load first, untimed: the harness needs them too, and
    # their import time swung by a third between runs. The program's own import
    # counts towards setup_s, as CPU time (the speed gauge does not track it).
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import_start = time.process_time()
    import semidtn.cli  # noqa: F401
    import_s = time.process_time() - import_start
    if Path(sys.modules["semidtn"].__file__).resolve().parent != src / "semidtn":
        print("perfbench: semidtn was not imported from this checkout", file=sys.stderr)
        return 2

    from tracer import stat_units
    from workloads import END_TO_END_UNITS, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = _environment()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    started = time.perf_counter()
    try:
        e2e, result = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.size == "smoke", scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        units, values = stat_units(), result.layer_stats
    else:
        units, values = END_TO_END_UNITS, e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    details = {name: sorted(v) for name, v in result.errors.items()}
    if result.gaps:
        details["dd_rel_gap_every_item"] = result.gaps

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  items {len(result.item_s)}, measurements {len(result.latencies_s)}, "
          f"wall clock {time.perf_counter() - started:.1f} s "
          "(times above: CPU time scaled by the speed gauge)")
    for name, figures in details.items():
        print(f"  {name}: " + ", ".join(f"{v:.4g}" for v in figures))
    for problem in result.problems:
        print(f"  FAILED {problem}")
    record = {"correct": result.failed == 0, "attempted": result.attempted,
              "failed": result.failed, "metrics": metrics}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
