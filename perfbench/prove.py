"""Repeat the benchmark over several seeds and report its run-to-run spread.

    python3 perfbench/prove.py --workloads towers,orthoplex --seeds 10
                               [--trace 0|1] [--out FILE]

Runs BENCHMARK.json's command once per seed and workload, in sequence, with
its run_seconds.  For each metric it prints the median of the per-run
values and the quartile spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound.  With --out
it also stores every value and those summaries in a JSON file, under
"end_to_end" or "per_layer" (baseline.json holds the figures of the commit
that defined the benchmark).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            env = next(json.loads(line[5:]) for line in lines
                       if line.startswith("env: "))
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()), flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"]
                                    for r in runs])
                   for name in runs[0]["metrics"]}
        report["env"] = env
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}
        for name, s in metrics.items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:10s} {name:24s} median={s['median']:.6g} "
                  f"spread={spread} bound={bound}", flush=True)
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["per_layer" if args.trace else "end_to_end"] = report
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
