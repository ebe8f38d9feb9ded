"""Benchmark entry point: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/grasspack; nothing needs to
be installed.  First a few set-up probes, then whole sweeps of the workload,
each in its own process, as many as fit in S seconds (at least one).
`--seed` permutes the order of tables within each sweep; the tables
themselves are the fixed reference inputs.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
sweep_s and setup_s (at the reference pace of the host, see pace.py),
peak_rss_mb and cert_headroom_dec.  --trace 1 runs one untraced sweep, then
traced sweeps, and reports per-layer self times and counts, the traced sweep
time and the tracing overhead (both measured wall time); the spans are
written to .perfbench/ in the checkout.  Operations and failures (fail_frac
is failed / attempted) are counted over every sweep.  The last line of
standard output is one JSON object; see README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("towers", "projective", "symplectic", "orthoplex")
SETUP_PROBES = 9
BLAS_THREADS = 1
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def environment(threads: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(), "git_rev": rev,
            "pace": {"interval_s": pace.INTERVAL_S,
                     "ref_slice_s": pace.REF_SLICE_S}}


class Runner:
    """Starts sweep.py children one after another and checks their output."""

    def __init__(self, threads: int, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                        PYTHONHASHSEED="0")

    def child(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "sweep.py"), "--spawned",
               repr(spawned), *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(args) or 'set-up probe'} "
                             "did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"sweep.py exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["grasspack"]).is_relative_to(ROOT / "src"):
            raise BenchError(f"imported {result['grasspack']}, "
                             f"not the checkout's src/")
        return result


def measure(workload: str, seed: int, seconds: int, trace: bool,
            runner: Runner) -> tuple[list[dict], list[dict]]:
    setups = [runner.child() for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and bool(reps)        # traced runs start untraced
        args = ["--workload", workload, "--trace", str(int(traced)),
                "--shuffle", f"{workload}:{seed}:{len(reps)}"]
        if traced:
            args += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}"
                                    f"-rep{len(reps)}.json")]
        rep = runner.child(*args)
        rep["traced"] = traced
        reps.append(rep)
        paced = ("" if traced else f"sweep_s={rep['sweep_s']:.4f} "
                 f"pace={rep['pace']:.4f} ")
        print(f"rep {len(reps)}: traced={int(traced)} {paced}"
              f"wall_s={rep['wall_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f} "
              f"failed={rep['failed']}/{rep['attempted']} "
              f"order={','.join(rep['order'])}", flush=True)
        for problem in rep["problems"]:
            print(f"  failed: {problem}", flush=True)
        # stop unless one more sweep, as long as the mean so far, still
        # ends within the measured time
        elapsed = time.monotonic() - start
        enough = not trace or any(r["traced"] for r in reps)
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return setups, reps


def end_to_end(setups: list[dict], reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    return {
        "sweep_s": (statistics.median(r["sweep_s"] for r in plain), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                        "MB"),
        "cert_headroom_dec": (min(r["headroom"] for r in reps), "dec"),
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    counts = traced[0]["counts"]
    if any(r["counts"] != counts for r in traced):
        raise BenchError("per-layer counts differ between traced sweeps")
    out = {name: (statistics.median(r["self_s"][name] for r in traced), "s")
           for name in traced[0]["self_s"]}
    out.update({name: (value, "count") for name, value in counts.items()})
    traced_s = statistics.median(r["wall_s"] for r in traced)
    out["trace.sweep_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (
        traced_s - statistics.median(r["work_s"] for r in plain), "s")
    out["trace.spans"] = (traced[0]["n_spans"], "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "grasspack" / "__init__.py").is_file():
        print(f"error: no src/grasspack under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2

    env = environment(BLAS_THREADS)
    print(f"env: {json.dumps(env)}", flush=True)
    runner = Runner(BLAS_THREADS, time.monotonic() + DEADLINE_S)
    try:
        setups, reps = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), runner)
        metrics = per_layer(reps) if args.trace else end_to_end(setups, reps)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    consistent = len({r["attempted"] for r in reps}) == 1
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "env": env, "setup_samples": setups,
               "reps": reps, "fail_frac": failed / attempted,
               "metrics": {k: v for k, (v, _) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1))
    print(f"fail_frac={failed / attempted:.6g} ({failed}/{attempted}); "
          f"medians over {sum(not r['traced'] for r in reps)} untraced and "
          f"{sum(r['traced'] for r in reps)} traced sweeps, "
          f"{len(setups)} set-ups", flush=True)
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
