"""bktfit benchmark: fit time, EM work and memory on three workloads.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload paired-100x10 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, timed with tracing off; with --trace 1 a separate traced
run reports the per-layer ones. --quick runs the workload at a tiny size.
The package is imported from src/ next to this directory, never from an
installed copy, so a checkout without src/bktfit exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paired-100x10", "large-2000x50", "csv-ragged-10k")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for smoke tests")
    return parser.parse_args(argv)


def use_checkout_source() -> bool:
    """Put ROOT/src first on the import path; False when it holds no bktfit."""

    src = ROOT / "src"
    if not (src / "bktfit" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import bktfit

    return Path(bktfit.__file__).resolve().is_relative_to(src)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # One BLAS thread: the workload runs in this single process.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if not use_checkout_source():
        print(f"error: no bktfit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs_dir = OUT / f"{args.workload}-seed{args.seed}"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            run = harness.traced(workload, args.seed, inputs_dir, args.quick)
            run.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            units, metrics = harness.PER_LAYER_UNITS, run.metrics
            attempted, failed = run.attempted, run.failed
            op_problems, run_problems = run.op_problems, run.run_problems
        else:
            m = harness.measure(workload, args.seed, args.seconds, inputs_dir, args.quick)
            units, metrics = harness.END_TO_END_UNITS, harness.end_to_end(m)
            attempted, failed = m.attempted, m.failed
            op_problems = [p for p in m.problems if p is not None]
            run_problems = m.run_problems
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    for problem in op_problems + run_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # Failed operations are counted in `failed`; `correct` speaks of the
    # properties of the run as a whole.
    result = {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
