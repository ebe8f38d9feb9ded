"""One repetition of one workload, in a fresh process; run.py starts it.

    python3 perfbench/sweep.py --spawned T [--workload W [--shuffle S]
                               [--trace 0|1] [--spans FILE]]

`--spawned` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so the set-up time covers
interpreter start, importing numpy and grasspack, and one trivial warm-up
call.  Without `--workload` the process stops there, runs a few pace slices
(pace.py) and reports `setup_s`, the set-up time at the reference pace: a
set-up probe.  An untraced sweep runs with the pacer on and reports
`sweep_s`, its own time (slices taken out) at the reference pace, beside the
measured `wall_s`; a traced sweep runs without the pacer and reports
`wall_s`.  `--shuffle` seeds the permutation of the workload's tables.
Prints one JSON object on its last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import grasspack  # noqa: E402
from grasspack import permgroup  # noqa: E402

import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


SETUP_SLICES = 8


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_tables(tables, tracer=None) -> tuple[float, workloads.Outcome]:
    """Run tables in order; returns wall seconds and the graded outcome."""
    out = workloads.Outcome()
    start = time.perf_counter()
    for table in tables:
        try:
            if tracer is None:
                table.run(out)
            else:
                with tracer.root(table.key):
                    table.run(out)
        except Exception:            # graded as one failed operation
            out.grade(False, f"{table.key}: {traceback.format_exc(limit=3)}")
    return time.perf_counter() - start, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--shuffle", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    permgroup.PermGroup.symmetric(3)          # trivial warm-up call
    setup_wall_s = time.monotonic() - args.spawned
    result = {"grasspack": str(Path(grasspack.__file__).resolve())}
    pacer = None if args.workload and args.trace else pace.Pacer()
    tracer = None
    if not args.workload:
        pacer.sample(SETUP_SLICES)
        result.update(setup_s=setup_wall_s / pacer.pace,
                      setup_wall_s=setup_wall_s, pace=pacer.pace)
    else:
        tables = list(workloads.WORKLOADS[args.workload])
        random.Random(args.shuffle).shuffle(tables)
        if args.trace:
            tracer = spans.Tracer().install()
            try:
                wall_s, out = run_tables(tables, tracer)
            finally:
                tracer.uninstall()
            result.update(wall_s=wall_s)
        else:
            with pacer:
                wall_s, out = run_tables(tables)
            work_s = wall_s - pacer.paced_s
            result.update(sweep_s=work_s / pacer.pace, wall_s=wall_s,
                          work_s=work_s, pace=pacer.pace,
                          slices=len(pacer.samples))
        result.update(attempted=out.attempted,
                      failed=out.failed, headroom=out.headroom,
                      problems=out.problems[:20],
                      order=[t.key for t in tables])
        if tracer is not None:
            result.update(self_s={k: tracer.self_s.get(k, 0.0)
                                  for k in spans.span_names()},
                          counts=tracer.counts, n_spans=len(tracer.spans))
            if args.spans:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                args.spans.write_text(json.dumps(
                    {"workload": args.workload, "order": result["order"],
                     "spans": tracer.span_records()}))
    result["peak_rss_mb"] = peak_rss_mb() - (pacer.slice.data_mb if pacer
                                             else 0.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
