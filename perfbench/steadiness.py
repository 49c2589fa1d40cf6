"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/steadiness.py --workloads counting bands-pdo --seeds 10 [--out FILE]

Runs run.py once per seed (1..N) on each workload, one run at a time, and
prints per metric the median, the quartiles and the interquartile range as
a share of the median, next to the metric's bound in BENCHMARK.json.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, spec["run_seconds"]) for seed in range(1, args.seeds + 1)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:9s} failed {failed} of {attempted} checked operations", flush=True)
        report[workload] = {"failed": failed, "attempted": attempted}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report[workload][name] = dict(median=med, q1=q1, q3=q3, spread=spread, values=values)
            print(f"{workload:9s} {name:12s} median {med:10.4f}  spread {spread:6.2%}  bound {bound:.0%}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
