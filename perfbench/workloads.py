"""The four catalog workloads and the checks that grade their outputs.

A workload is a list of tables.  Each table is one call into the catalog
(or, for `orthoplex`, into `codes`) followed by the reference checks on what
it returned.  Every graded item is one operation: a built cell, a predicted
cell, a reference check, or an orthoplex code.  An exception inside a table
counts as one failed operation.

Grasspack is reached through module attributes (``catalog.x``, ``codes.x``)
so that the tracer's patches are seen; see spans.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from grasspack import catalog, codes
from grasspack.config import TOL


@dataclass
class Outcome:
    """Graded operations of one sweep."""

    attempted: int = 0
    failed: int = 0
    headroom: float = math.inf   # decades, min over certified values
    problems: list[str] = field(default_factory=list)

    def grade(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def certify(self, value: float, exact: Fraction) -> bool:
        """Relative gap of `value` to `exact` within TOL.rel_distance; the
        margin, in decades, lowers `headroom`."""
        rel = float(abs(Fraction(value) - exact) / exact)
        margin = math.log10(TOL.rel_distance / max(rel, 1e-17))
        self.headroom = min(self.headroom, margin)
        return margin >= 0


@dataclass(frozen=True)
class Table:
    key: str
    run: Callable[[Outcome], None]


def simplex_value(n: int, m: int, count: int) -> Fraction:
    return Fraction(count, count - 1) * m * (n - m) / n


def _corrected(label: str, n: int, m: int) -> bool:
    return any((label, n, mm) in catalog.LOADED_CORRECTIONS for mm in (m, n - m))


def _grade_entries(out: Outcome, entries, label: str = ""):
    """Built cells must be verified at the exact simplex value; predicted
    cells must carry that value and flag a listed value exactly where the
    reference table records a correction."""
    for e in entries:
        exact = simplex_value(e.n, e.m, e.count)
        what = f"{e.family} {e.parameters} ({e.n},{e.m})"
        if e.status == "predicted":
            differs = "listed-value-differs" in e.flags
            out.grade(Fraction(e.d_fraction) == exact
                      and differs == _corrected(label, e.n, e.m),
                      f"{what} predicted {e.d_fraction} {e.flags}")
        else:
            ok = e.status == "verified" and out.certify(e.d_c_sq, exact)
            out.grade(ok, f"{what} {e.status} {e.d_c_sq!r} {e.flags}")


def _grade_checks(out: Outcome, checks):
    for c in checks:
        out.grade(c.matched, f"reference ({c.n},{c.m}) {c.target} unmatched")


# ------------------------------------------------------------------ towers


def tower(points: int, out: Outcome):
    entries = catalog.symmetric_tower_entries(points)
    _grade_entries(out, entries)
    _grade_checks(out, catalog.check_symmetric_tower(entries, points))


# -------------------------------------------------------------- projective


def projective(q: int, out: Outcome):
    entries = catalog.projective_entries(q)
    _grade_entries(out, entries)
    for c in catalog.check_projective_table(entries, q):
        if c.available:
            out.grade(c.matched and c.angles_ok is not False
                      and c.d_tilde_sq_ok is not False,
                      f"q={q} column {c.label} {c}")


# -------------------------------------------------------------- symplectic


def loaded_block(name: str, out: Outcome):
    entries = catalog.loaded_group_entries(name, dims={5, 8, 9, 10})
    block = next(b for b in catalog.LOADED_REFERENCE if b.group == name)
    _grade_entries(out, entries, block.label)
    _grade_checks(out, catalog.check_loaded_block(entries, block))


def rotation(out: Outcome):
    entries = catalog.rotation_code_entries()
    block = catalog.reference_block("Sp6(2) on 28 points")
    _grade_entries(out, entries, block.label)
    built = {e.n for e in entries}
    _grade_checks(out, [c for c in catalog.check_loaded_block(entries, block)
                        if c.n in built])


def predictions(out: Outcome):
    for block in catalog.LOADED_REFERENCE:
        _grade_entries(out, catalog.reference_prediction_entries(block),
                       block.label)


# --------------------------------------------------------------- orthoplex


def orthoplex_distances(m: int, r: int) -> tuple[Fraction, ...]:
    """Exact squared chordal distances of the Clifford family S_r."""
    if r == 1:
        return (Fraction(m, 2), Fraction(m))
    return (Fraction(m, 2), Fraction(3 * m, 4), Fraction(m))


def clifford(i: int, r: int, out: Outcome):
    code = codes.build_clifford_orthoplex(i, r)
    p = code.params
    expected = orthoplex_distances(p.m, r)
    hit = set()
    ok = sum(count for _, count in code.census) == p.N * (p.N - 1) // 2
    for angles, _ in code.census:
        d = angles.chordal_sq()
        near = min(expected, key=lambda e: abs(d - e))
        ok = out.certify(d, near) and ok
        hit.add(near)
    out.grade(ok and hit == set(expected),
              f"clifford ({i},{r}) distances {sorted(hit)} != {expected}")


WORKLOADS: dict[str, list[Table]] = {
    "towers": [Table(f"tower{k}", partial(tower, k)) for k in range(4, 9)],
    "projective": [Table(f"pgl-psl{q}", partial(projective, q))
                   for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27)],
    "symplectic": [Table("sp4_2_deg10", partial(loaded_block, "sp4_2_deg10")),
                   Table("sp4_2_deg6", partial(loaded_block, "sp4_2_deg6")),
                   Table("rotation", rotation),
                   Table("predictions", predictions)],
    "orthoplex": [Table(f"clifford{i}-{r}", partial(clifford, i, r))
                  for i, r in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2))],
}
