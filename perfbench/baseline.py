"""Record a baseline: every workload on several seeds untraced, plus one traced run each.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --trace-seed 1 \
        --out perfbench/baseline.json

For each workload and end-to-end metric it stores the value of every run,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median.  The traced run gives the per-layer metrics and
the self-time shares that name each workload's dominant layer.
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


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    doc = {"run_seconds": seconds, "seeds": seeds, "trace_seed": args.trace_seed,
           "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        steal = []
        for seed in seeds:
            line, env = run(name, seed, seconds, 0)
            failed += line["failed"]
            attempted += line["attempted"]
            steal.append(env["steal_ticks"])
            for key, metric in line["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, _ = run(name, args.trace_seed, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][name] = {
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "failed": failed, "attempted": attempted, "steal_ticks": steal,
            "traced": {"failed": traced["failed"], "attempted": traced["attempted"],
                       "per_layer": layers},
        }
        doc["env"] = env
        for key, summary in doc["workloads"][name]["end_to_end"].items():
            print(f"{name} {key}: median {summary['median']:.4f} "
                  f"spread {summary['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
