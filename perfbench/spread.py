"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads relax reduce --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline/x.json

For each workload and end-to-end metric it prints the median and the
quartile spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the bound in
BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(tokens: list) -> list:
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the full summary here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
               "workloads": {}}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds, 0)
                for seed in summary["seeds"]]
        metrics = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            m = metrics[name]
            print(f"{workload:10s} {name:12s} median {m['median']:12.4f} "
                  f"spread {m['spread']:.4f} (bound {bounds[name]})",
                  flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "env": runs[0]["record"]["env"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
