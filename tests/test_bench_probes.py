"""The benchmark's tracer (perfbench/spans.py) patches grasspack functions and
methods by name.  Every probed name must resolve, so deleting or renaming a
probed function fails here, not only in the benchmark's own tests."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _binding(probe):
    """What the probe's module or class holds under its name, unwrapped
    from a classmethod."""
    owner_name, _, attr = probe.qualname.rpartition(".")
    owner = importlib.import_module(probe.module)
    if owner_name:
        owner = getattr(owner, owner_name)
    raw = vars(owner)[attr]
    return getattr(raw, "__func__", raw)


def test_every_benchmark_probe_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    probes = spans.probes()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for probe in probes:
            assert hasattr(_binding(probe), "__wrapped__"), probe.qualname
    finally:
        tracer.uninstall()
    for probe in probes:
        assert not hasattr(_binding(probe), "__wrapped__"), probe.qualname
