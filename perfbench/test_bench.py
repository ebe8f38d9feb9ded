"""Tests of the benchmark itself, on small tables of each workload.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pace  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from grasspack import catalog, characters, codes, grassmann, reps  # noqa: E402

SMALL = ("tower4", "tower5", "tower6", "pgl-psl5", "pgl-psl7",
         "predictions", "clifford2-1", "clifford3-1")


def tables(keys):
    by_key = {t.key: t for ts in workloads.WORKLOADS.values() for t in ts}
    return [by_key[k] for k in keys]


def traced_in_fresh_process(keys) -> dict:
    script = (
        "import json, sys, spans, sweep, test_bench\n"
        "tracer = spans.Tracer().install()\n"
        "sweep_s, out = sweep.run_tables(\n"
        "    test_bench.tables(sys.argv[1].split(',')), tracer)\n"
        "print(json.dumps({'counts': tracer.counts, 'failed': out.failed,\n"
        "                  'attempted': out.attempted}))\n")
    proc = subprocess.run([sys.executable, "-c", script, ",".join(keys)],
                          cwd=HERE, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_two_runs_repeat_counts_and_fail_frac():
    first = traced_in_fresh_process(SMALL)
    second = traced_in_fresh_process(SMALL)
    assert first == second
    assert first["failed"] == 0 and first["attempted"] > 0
    assert first["counts"]["permgroup.elements"] > 0
    assert first["counts"]["codes.census_svds"] > 0


@pytest.mark.parametrize("key, corrupt", [
    ("tower4", lambda mp: mp.setitem(catalog.SYMMETRIC_REFERENCE, 4,
                                     [(3, 1, "7/9")])),
    ("pgl-psl5", lambda mp: mp.setitem(catalog.CUSPIDAL_ANGLES, 5,
                                       (0.25, 1.0))),
    ("predictions", lambda mp: mp.setitem(
        catalog.LOADED_CORRECTIONS, ("Sp4(2) on 6 points", 5, 1), "1")),
    ("clifford2-1", lambda mp: mp.setattr(
        workloads, "orthoplex_distances",
        lambda m, r: (workloads.Fraction(m, 3), workloads.Fraction(m)))),
])
def test_corrupted_reference_raises_fail_frac(monkeypatch, key, corrupt):
    _, clean = sweep.run_tables(tables([key]))
    assert clean.failed == 0
    corrupt(monkeypatch)
    _, out = sweep.run_tables(tables([key]))
    assert out.attempted > 0
    assert out.failed / out.attempted > 0


def test_self_times_add_up_to_traced_sweep():
    tracer = spans.Tracer().install()
    try:
        sweep_s, out = sweep.run_tables(tables(SMALL), tracer)
    finally:
        tracer.uninstall()
    assert out.failed == 0
    assert set(tracer.self_s) <= set(spans.span_names())
    assert all(v >= 0 for v in tracer.self_s.values())
    total = sum(tracer.self_s.values())
    assert math.isclose(total, sweep_s, rel_tol=1e-3)
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[3] for s in sorted(roots)] == list(SMALL)


def test_every_binding_is_patched_and_restored():
    bindings = [(catalog, "compute_table"), (codes, "compute_table"),
                (characters, "compute_table"), (codes, "principal_angles"),
                (grassmann, "principal_angles"), (catalog, "extract_irrep"),
                (reps, "extract_irrep"), (catalog, "make_pgl2")]
    before = [getattr(mod, name) for mod, name in bindings]
    generated = catalog.PermGroup.__dict__["generated"]
    tracer = spans.Tracer().install()
    try:
        for (mod, name), original in zip(bindings, before):
            assert getattr(mod, name).__wrapped__ is original, (mod, name)
        assert catalog.PermGroup.__dict__["generated"] is not generated
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in bindings] == before
    assert catalog.PermGroup.__dict__["generated"] is generated


def test_span_records_reproduce_self_times():
    tracer = spans.Tracer().install()
    try:
        sweep.run_tables(tables(["pgl-psl5", "clifford2-1"]), tracer)
    finally:
        tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}
    child = defaultdict(float)
    for _, parent, _, _, start, end in tracer.spans:
        if parent is not None:
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]
            child[parent] += end - start
    recomputed = defaultdict(float)
    for span_id, _, name, _, start, end in tracer.spans:
        recomputed[name] += end - start - child[span_id]
    for name, value in tracer.self_s.items():
        assert math.isclose(recomputed[name], value, abs_tol=1e-9), name
    # lookup_rows inside conjugacy_classes: its time is in lookup_s only
    assert any(s[2] == "permgroup.lookup_s"
               and by_id[s[1]][2] == "permgroup.classes_s"
               for s in tracer.spans if s[1] is not None)


def test_pacer_slices_are_taken_out_of_the_sweep():
    handler = signal.getsignal(signal.SIGALRM)
    pacer = pace.Pacer()
    assert 32 <= pacer.slice.data_mb < 40        # the 32 MB table and more
    with pacer:
        wall_s, out = sweep.run_tables(
            tables(["pgl-psl9", "pgl-psl11", "tower6"]))
    assert out.failed == 0
    assert len(pacer.samples) >= wall_s / pace.INTERVAL_S - 2
    assert 0 < pacer.paced_s < wall_s
    assert 0.05 < pacer.pace < 20
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "towers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
