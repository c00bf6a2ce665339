"""Steadiness runs: repeat each workload over several seeds and report the
run-to-run spread of every end-to-end metric, plus the traced self-time
shares per layer on a few seeds.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--trace-runs 2]

Spread is the distance between the first and third quartile of the runs'
values, as a share of their median.  The suggested bound of a metric is three
times its largest spread over the workloads, rounded up to a multiple of
0.05 and kept within 0.05..0.25.  Results go to ``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from corpus import WORKLOADS
from spans import LAYERS
from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
FIRST_SEED = 100

DOMINANT = {  # the layer groups expected to hold the largest self-time share
    "certify-search": ("switches.search", "switches.apply"),
    "certify-wide": ("switches.system", "switches.cmax"),
    "verify-relators": ("parity.phi",),
    "trace-motions": ("trace", "roots"),
}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def shares(workload: str, seed: int) -> dict[str, float]:
    """Self-time share per layer and of the expected dominant group."""
    data = json.loads((OUT / f"trace-{workload}-{seed}.json").read_text())
    self_s = data["self_s"]
    total = sum(self_s.values())
    out = {layer: sum(s for name, s in self_s.items() if name.split(".")[0] == layer) / total
           for layer in LAYERS}
    group = DOMINANT[workload]
    in_group = {name for name in self_s if name in group or name.split(".")[0] in group}
    out["dominant"] = sum(self_s[name] for name in in_group) / total
    out["largest_other"] = max(
        sum(s for name, s in self_s.items() if name.split(".")[0] == layer and name not in in_group)
        for layer in LAYERS) / total
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)

    report: dict = {"seconds": args.seconds, "workloads": {}}
    worst: dict[str, float] = {}
    for workload in args.workload or WORKLOADS:
        seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
        runs = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        entry: dict = {"seeds": list(seeds), "attempted": [r["attempted"] for r in runs],
                       "metrics": {}}
        print(f"{workload}: attempted {entry['attempted']}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values)
            entry["metrics"][name] = {"values": values, "median": statistics.median(values),
                                      "spread": spread}
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"  {name:14s} median {statistics.median(values):12.5g}  spread {spread:.4f}")
        for seed in range(FIRST_SEED, FIRST_SEED + args.trace_runs):
            result = bench(workload, seed, args.seconds, 1)
            share = shares(workload, seed)
            entry.setdefault("traced", []).append(
                {"seed": seed, "shares": share,
                 "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"  traced seed {seed}: {'+'.join(DOMINANT[workload])} share "
                  f"{share['dominant']:.3f}, largest other layer {share['largest_other']:.3f}, overhead "
                  f"{result['metrics']['trace_overhead_frac']['value']:.3f}")
        report["workloads"][workload] = entry
    report["suggested_bounds"] = {
        name: max(0.05, min(0.25, math.ceil(3 * spread / 0.05) * 0.05))
        for name, spread in worst.items()}
    print("suggested bounds:", report["suggested_bounds"])
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
