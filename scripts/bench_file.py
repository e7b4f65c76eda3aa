"""Write a BENCH_<n>.json trajectory file from runs of the benchmark.

Run from anywhere; the paths are taken from this file's checkout:

    python3 scripts/bench_file.py            # writes BENCH_<n>.json at the root
    python3 scripts/bench_file.py --quick --out /tmp/bench.json

For each workload named in BENCHMARK.json, benchmarks/run.py runs as a
subprocess at seeds 201-203 with --trace 0, then once at seed 201 with
--trace 1, each for BENCHMARK.json's run_seconds (1 s with --quick, which
also passes --quick on). The file records, per workload, the median and
quartiles of every end-to-end metric over the seeds, the EM iteration sums,
the failed and attempted operations and whether every run passed its checks,
and the traced run's per-layer metrics. Beside them it records the host
(Python and numpy versions, core count, the calibration kernel's ref_s) and
the size of the source: the lines of src/bktfit/*.py and len(bktfit.__all__).
n is the next integer with no BENCH_<n>.json at the root yet. A full pass is
12 runs of 19-40 s each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (201, 202, 203)


def run(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """The result object benchmarks/run.py prints last."""

    argv = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv + ["--quick"] * quick, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def workload_entry(workload: str, seconds: float, quick: bool) -> dict:
    runs = [run(workload, seed, seconds, 0, quick) for seed in SEEDS]
    traced = run(workload, SEEDS[0], seconds, 1, quick)
    end_to_end = {}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        end_to_end[name] = {"unit": metric["unit"], **spread(values), "values": values}
    return {
        "correct": all(r["correct"] for r in runs + [traced]),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "em_iterations": {
            kind: sum(r["metrics"][f"{kind}_em_iterations"]["value"] for r in runs)
            for kind in ("bw", "constrained")
        },
        "end_to_end": end_to_end,
        "per_layer": {
            "seed": SEEDS[0],
            "correct": traced["correct"],
            "failed": traced["failed"],
            "metrics": {name: m["value"] for name, m in traced["metrics"].items()},
        },
    }


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny inputs and 1 s runs")
    parser.add_argument("--out", type=Path, help="file to write (default: the next BENCH_<n>.json)")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1 if args.quick else declared["run_seconds"]
    workloads = {
        w["name"]: workload_entry(w["name"], seconds, args.quick) for w in declared["workloads"]
    }
    sys.path.insert(0, str(ROOT / "src"))
    import bktfit
    import numpy

    sources = (ROOT / "src" / "bktfit").glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in sources)  # as wc -l counts
    refs = [w["per_layer"]["metrics"]["calibration.ref_s"] for w in workloads.values()]
    bench = {
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cores": os.cpu_count(),
            "calibration.ref_s": statistics.median(refs),
        },
        "source": {"lines": lines, "public_names": len(bktfit.__all__)},
        "seeds": list(SEEDS),
        "seconds": seconds,
        "quick": args.quick,
        "workloads": workloads,
    }
    out = args.out or next_path()
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
