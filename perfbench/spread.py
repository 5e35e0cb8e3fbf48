"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for every metric the median, the quartiles and the spread, the distance
between the quartiles as a share of the median (``statistics.quantiles``
with ``n=4``).  With ``--out`` it writes the runs, the summary, the
environment of the first run and the layer map of :mod:`spans` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import TARGETS, span_name  # noqa: E402


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          check=True, cwd=HERE.parent)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=list(run.WORKLOAD_NAMES))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs, summary, env = {}, {}, None
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            detail, result = one_run(workload, seed, seconds, args.trace)
            env = env or detail["env"]
            runs[workload].append({"seed": seed, **result,
                                   "samples": len(detail["pass_s"]["samples"]),
                                   "report_checks_failed":
                                       detail["report_checks_failed"]})
            print(workload, seed, json.dumps(result["metrics"]),
                  [round(t, 3) for t in detail["pass_s"]["samples"]],
                  file=sys.stderr)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"]
                               for r in runs[workload]])
            summary[workload][name] = stats
            spread = stats["spread"]
            print(f"{workload:15s} {name:45s} median {stats['median']:12.6g}"
                  f"  q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  "
                  f"spread {'-' if spread is None else f'{spread:.4f}'}")
    if args.out:
        payload = {
            "seconds": seconds, "seeds": args.seeds, "trace": args.trace,
            "env": {k: v for k, v in env.items()
                    if k not in ("workload", "seed", "sizes")},
            "summary": summary, "runs": runs,
            "layer_map": {span_name(module, attr): moves
                          for module, attr, moves in TARGETS},
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
