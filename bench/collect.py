"""Run bench/run.py over workloads and seeds, and summarize the spread.

Run from the repository root, for example:

    python3 bench/collect.py --seeds 0,1,2,3,4,5,6,7,8,9 --trace 0 \\
        --seconds 55 --out runs.json

Each (workload, seed, trace) gets one benchmark run; its result line is kept.
For every metric and workload the summary gives the median over the seeds,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, which
is the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return {"workload": workload, "seed": seed, "trace": trace,
            "machine": machine, "result": json.loads(lines[-1])}


def summarize(runs: list) -> dict:
    summary = {}
    for run in runs:
        key = f"{run['workload']} trace {run['trace']}"
        for name, metric in run["result"]["metrics"].items():
            summary.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    for metrics in summary.values():
        for name, values in metrics.items():
            med = statistics.median(values)
            row = {"n": len(values), "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            metrics[name] = row
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0,1")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runs = []
    for trace in (int(t) for t in args.trace.split(",")):
        for workload in args.workloads.split(","):
            for seed in (int(s) for s in args.seeds.split(",")):
                run = one_run(workload, seed, args.seconds, trace)
                result = run["result"]
                print(f"{workload} seed {seed} trace {trace}: correct "
                      f"{result['correct']} failed {result['failed']}/"
                      f"{result['attempted']}", flush=True)
                runs.append(run)
    summary = summarize(runs)
    for key, metrics in summary.items():
        for name, row in metrics.items():
            if row.get("spread") is not None:
                print(f"{key:28s} {name:32s} median {row['median']:.6g}  "
                      f"spread {row['spread']:.4f}")
    Path(args.out).write_text(json.dumps(
        {"seconds": args.seconds, "runs": runs, "summary": summary},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
