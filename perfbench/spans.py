"""Spans around calls into grasspack's public functions, recorded from outside.

A `Tracer` wraps each probed function and keeps, in memory, one span per
call: id, parent id, name, start, end and the catalog table it belongs to.
A span's self time is its duration minus the durations of its direct child
spans; calls nest strictly (one thread, no generators), so self times of all
spans under a root add up to the root's duration exactly.

Functions imported with ``from .x import y`` have several bindings, one per
importing module (``catalog.compute_table``, ``codes.principal_angles``,
``catalog.extract_irrep`` ...).  `install` replaces every binding of the
original object in every loaded ``grasspack`` module; methods are replaced
once, on their class.  Code that should be traced must therefore reach the
probed functions through a grasspack module or class attribute, never
through its own ``from grasspack.x import y`` copy.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# (metric, fn(args, kwargs, result) -> int), added after each returning call
Count = tuple[str, Callable]


@dataclass(frozen=True)
class Probe:
    span: str                 # metric receiving the self time
    module: str               # defining module
    qualname: str             # "function" or "Class.method"
    counts: tuple[Count, ...] = ()


def _seed_retries(module, name, seed_of_result):
    """Count of seeds tried beyond the one requested of `module.name`."""
    sig = inspect.signature(getattr(importlib.import_module(module), name))

    def retries(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return seed_of_result(result) - bound.arguments["seed"]
    return retries


def _one(args, kwargs, result):
    return 1


def probes() -> tuple[Probe, ...]:
    """The layer boundaries, named by module; see README.md for the map
    from each metric to the end-to-end metric it should move."""
    pg, ch, rp, cd, gm = ("grasspack.permgroup", "grasspack.characters",
                          "grasspack.reps", "grasspack.codes",
                          "grasspack.grassmann")
    generated = (("permgroup.elements",
                  lambda a, k, g: g.order if g.is_enumerated else 0),)
    return (
        Probe("permgroup.generate_s", pg, "PermGroup.generated", generated),
        Probe("permgroup.generate_s", pg, "load_group"),
        Probe("permgroup.generate_s", pg, "make_pgl2"),
        Probe("permgroup.generate_s", pg, "make_psl2"),
        Probe("permgroup.classes_s", pg, "PermGroup.conjugacy_classes"),
        Probe("permgroup.transversal_s", pg, "PermGroup.coset_transversal"),
        Probe("permgroup.subgroup_s", pg, "PermGroup.stabilizer"),
        Probe("permgroup.subgroup_s", pg, "PermGroup.derived_subgroup"),
        Probe("permgroup.subgroup_s", pg, "PermGroup.double_coset_sizes"),
        Probe("permgroup.lookup_s", pg, "PermGroup.lookup_rows",
              (("permgroup.lookup_rows", lambda a, k, r: len(r)),)),
        Probe("characters.table_s", ch, "compute_table",
              (("characters.tables", _one),
               ("characters.eig_retries",
                _seed_retries(ch, "compute_table", lambda t: t.seed)))),
        Probe("characters.class_mult_s", ch, "class_multiplication"),
        Probe("characters.restrict_s", ch, "restrict_and_decompose"),
        Probe("reps.young_s", rp, "young_orthogonal_rep"),
        Probe("reps.rotation_s", rp, "symplectic_rotation_rep"),
        Probe("reps.class_sums_s", rp, "UnitaryRep.class_sums",
              (("reps.class_sum_elems", lambda a, k, r: a[0].group.order),)),
        Probe("reps.extract_s", rp, "extract_irrep",
              (("reps.extractions", _one),
               ("reps.extract_retries",
                _seed_retries(rp, "extract_irrep",
                              lambda rep: rep.provenance["seed"])),
               ("reps.carrier_dim_sum", lambda a, k, r: a[0].dim))),
        Probe("reps.carrier_walk_s", rp,
              "PermTensorCarrier.weighted_vector_sum"),
        Probe("reps.homcheck_s", rp, "UnitaryRep.check_unitary_homomorphism"),
        Probe("reps.character_s", rp, "UnitaryRep.character"),
        Probe("reps.character_s", rp, "PermTensorCarrier.character"),
        Probe("codes.context_s", cd, "IsotypicContext.__init__"),
        Probe("codes.build_s", cd, "IsotypicContext.build",
              (("codes.codewords", lambda a, k, c: c.params.N),)),
        Probe("codes.build_s", cd, "build_clifford_orthoplex",
              (("codes.codewords", lambda a, k, c: c.params.N),)),
        Probe("codes.census_s", cd, "spa_census",
              (("codes.census_pairs",
                lambda a, k, r: len(a[0]) * (len(a[0]) - 1) // 2),)),
        Probe("codes.verify_s", cd, "verify_simplex"),
        Probe("grassmann.angles_s", gm, "principal_angles",
              (("codes.census_svds", _one),)),
    )


ROOT_SPAN = "catalog.self_s"


def span_names() -> list[str]:
    """Every self-time metric a traced sweep reports, root included."""
    return sorted({p.span for p in probes()} | {ROOT_SPAN})


def count_names() -> list[str]:
    return sorted({name for p in probes() for name, _ in p.counts})


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, name, table, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = {name: 0 for name in count_names()}
        self._stack: list[list] = []     # [id, name, start, child_total]
        self._table = ""
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _enter(self, name):
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else None, name,
                           self._table, start, end))

    @contextmanager
    def root(self, table: str):
        """One catalog table: every span underneath shares its name."""
        outer, self._table = self._table, table
        self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit()
            self._table = outer

    def wrap(self, probe: Probe, fn):
        def traced(*args, **kwargs):
            self._enter(probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            for metric, count in probe.counts:
                self.counts[metric] += int(count(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for probe in probes():
            mod = importlib.import_module(probe.module)
            owner_name, _, attr = probe.qualname.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr,
                              classmethod(self.wrap(probe, raw.__func__)))
                else:
                    self._set(owner, attr, self.wrap(probe, raw))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(probe, original)
            for name, other in list(sys.modules.items()):
                if name != "grasspack" and not name.startswith("grasspack."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, traced)
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [{"id": i, "parent": p, "name": n, "table": t,
                 "start": s, "end": e}
                for i, p, n, t, s, e in sorted(self.spans)]
