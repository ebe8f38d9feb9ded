"""Catalog of equidistant subspace packings from doubly transitive actions.

Three lanes:

* symmetric and alternating towers on 4..8 points, fully built from Young
  representations and their restrictions;
* the projective-line families PGL2(q) and PSL2(q), fully built, checked
  against closed-form column parameters;
* larger loaded groups, where cells are predicted from dimension data and
  checked against the bound formula (with one small full build).

Reference cell values follow the standard listing for these families.  A
handful of listed values contradict the bound that every neighbouring cell
attains; for those the corrected value is recorded alongside and entries
carry an explicit flag.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import config
from .characters import compute_table, inner_product, restrict_and_decompose
from .codes import (CodeError, IsotypicContext, subspace_dimension,
                    verify_simplex)
from .grassmann import as_fraction
from .permgroup import PermGroup, load_group, make_pgl2, make_psl2
from .reps import (Partition, branching, extract_irrep, find_carrier,
                   hook_dimension, restrict_rep, symplectic_rotation_rep,
                   young_orthogonal_rep)


class CatalogError(Exception):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    family: str                  # symmetric | alternating | pgl2 | psl2 | loaded
    parameters: dict
    n: int
    m: int
    count: int
    d_c_sq: float | None
    d_fraction: str | None
    expected: str | None         # listed reference value, if any
    status: str                  # verified | predicted | failed
    d_tilde: float | None = None
    angles: tuple[float, ...] | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CellCheck:
    n: int
    m: int
    listed: str
    target: str                  # value a build must reproduce
    matched: bool
    families: tuple[str, ...]
    corrected: bool


# ----------------------------------------------------- reference data


# symmetric/alternating towers, keyed by point count: (n, m, listed d_c^2)
SYMMETRIC_REFERENCE = {
    4: [(3, 1, "8/9")],
    5: [(4, 1, "15/16"), (5, 1, "1"), (5, 2, "3/2"), (6, 3, "15/8")],
    6: [(5, 1, "24/25"), (8, 3, "9/4"), (9, 4, "8/3"), (10, 4, "72/25"),
        (16, 5, "33/8"), (16, 6, "27/4")],
    7: [(6, 1, "35/36"), (14, 5, "15/4"), (15, 5, "35/9"), (20, 10, "35/6"),
        (21, 5, "40/9"), (21, 8, "52/9"), (35, 8, "35/6"), (35, 9, "39/5"),
        (35, 10, "25/3"), (35, 16, "152/15"), (35, 17, "51/5")],
    8: [(7, 1, "45/49"), (20, 6, "24/5"), (21, 6, "240/49"), (28, 14, "8"),
        (35, 10, "400/49"), (35, 15, "480/49"), (42, 21, "12"),
        (45, 10, "80/9"), (56, 21, "15"), (64, 14, "25/2"),
        (64, 15, "105/8"), (64, 35, "145/8"), (70, 14, "64/5"),
        (70, 21, "84/5"), (70, 35, "20"), (90, 20, "160/9"),
        (90, 35, "220/9")],
}

# cells whose listed value disagrees with the bound; builds reproduce these
SYMMETRIC_CORRECTIONS = {
    (6, 16, 6): "9/2",
    (7, 35, 8): "36/5",
    (8, 7, 1): "48/49",
}


@dataclass(frozen=True)
class ReferenceCell:
    n: int
    m: int
    listed: str | None           # None where the source lists no value


@dataclass(frozen=True)
class ReferenceBlock:
    label: str
    count: int
    group: str | None            # packaged generator file, when enumerable
    cells: tuple[ReferenceCell, ...]


def _cells(rows):
    return tuple(ReferenceCell(n, m, d) for n, m, d in rows)


LOADED_REFERENCE = (
    ReferenceBlock("Sp4(2) on 10 points", 10, "sp4_2_deg10", _cells([
        (5, 1, "8/9"), (8, 4, "20/9"), (9, 1, "80/81"), (9, 4, "320/81"),
        (10, 1, "1"), (10, 2, "16/9"), (10, 4, "8/3"), (10, 5, "25/9")])),
    ReferenceBlock("Sp4(2) on 6 points", 6, "sp4_2_deg6", _cells([
        (5, 1, "24/25"), (8, 3, "9/4"), (9, 4, "8/3"), (10, 3, "63/25"),
        (10, 4, "72/25")])),
    ReferenceBlock("Sp6(2) on 36 points", 36, "sp6_2_deg36", _cells([
        (15, 1, "24/25"), (21, 1, "48/49"), (27, 7, "16/3"),
        (35, 1, "1224/1225"), (35, 14, "216/25"), (35, 15, "432/49"),
        (56, 7, "63/10"), (56, 21, "27/2"), (56, 28, "72/5"),
        (70, 28, "432/25"), (84, 14, "12"), (84, 28, "96/5")])),
    ReferenceBlock("Sp6(2) on 28 points", 28, "sp6_2_deg28", _cells([
        (7, 1, "8/9"), (21, 1, "80/81"), (21, 6, "40/9"),
        (27, 1, "728/729"), (27, 6, "392/81"), (27, 7, "3920/729"),
        (35, 15, "80/9"), (56, 6, "50/9"), (56, 20, "40/9"),
        (56, 26, "130/9"), (70, 10, "8/9"), (84, 24, "160/9")])),
    ReferenceBlock("Sp8(2) on 136 points", 136, None, _cells([
        (51, 1, "80/81"), (85, 1, "224/225"), (119, 35, "224/9"),
        (135, 1, None), (135, 50, None), (135, 51, None),
        (238, 28, "224/9"), (510, 210, "1120/9"), (595, 28, "627/25"),
        (595, 175, "1120/9"), (918, 50, None), (918, 168, None),
        (918, 218, None)])),
    ReferenceBlock("Sp8(2) on 120 points", 120, None, _cells([
        (35, 1, "48/49"), (85, 1, "288/289"), (119, 1, "944/945"),
        (119, 34, "4624/189"), (119, 35, "224/9"), (135, 51, None),
        (238, 34, "9248/315"), (510, 34, None), (595, 34, None),
        (595, 204, None), (595, 238, None), (918, 204, None)])),
    ReferenceBlock("Sp10(2) on 528 points", 528, None, _cells([
        (187, 1, "288/289"), (341, 1, "960/961"), (495, 155, "320/3"),
        (527, 1, None), (527, 186, None), (527, 187, None),
        (6138, 868, "2240/3")])),
    ReferenceBlock("Sp10(2) on 496 points", 496, None, _cells([
        (155, 1, "224/225"), (341, 1, "1088/1089"), (495, 1, None),
        (495, 154, None), (495, 155, None), (527, 187, "1088/9"),
        (6138, 154, None), (6138, 748, None), (6138, 902, None)])),
    ReferenceBlock("Co3 on 276 points", 276, None, _cells([
        (23, 1, "24/25"), (253, 1, "3024/3025"), (253, 22, "504/25"),
        (275, 1, None), (275, 22, None), (275, 23, None),
        (1771, 231, "1008/5"), (2024, 22, None), (2024, 252, None),
        (2024, 274, None), (4025, 22, None), (4025, 231, None),
        (4025, 252, None), (4025, 253, None), (4025, 274, None),
        (4025, 483, None), (4025, 505, None), (5544, 22, None),
        (5544, 252, None), (5544, 274, None), (5544, 1750, None),
        (5544, 1772, None), (5544, 2002, None), (5544, 2024, None),
        (7084, 1540, "6048/5")])),
    ReferenceBlock("HS on 176 points", 176, None, _cells([
        (22, 1, "24/25"), (77, 21, "384/25"), (154, 1, "1224/1225"),
        (154, 21, "456/25"), (154, 28, "576/25"), (154, 29, "1160/49"),
        (154, 49, "168/5"), (175, 1, None), (175, 21, None),
        (175, 22, None), (175, 28, None), (175, 29, None),
        (175, 49, None), (175, 50, None), (231, 21, "96/5"),
        (231, 84, "1344/25"), (231, 105, "288/5")])),
    ReferenceBlock("M24 on 24 points", 24, None, _cells([
        (23, 1, "528/529"), (252, 22, "440/21"), (483, 230, "880/7"),
        (1035, 45, None), (1265, 230, "2160/11"), (1771, 231, None),
        (1771, 770, None), (2277, 253, "704/3")])),
)

LOADED_CORRECTIONS = {
    ("Sp4(2) on 10 points", 9, 4): "200/81",
    ("Sp6(2) on 28 points", 56, 20): "40/3",
    ("Sp6(2) on 28 points", 70, 10): "80/9",
    ("Sp8(2) on 136 points", 595, 28): "672/25",
    # the four cells below list the value of the companion 136-point action
    ("Sp8(2) on 120 points", 119, 1): "14160/14161",
    ("Sp8(2) on 120 points", 119, 34): "1200/49",
    ("Sp8(2) on 120 points", 119, 35): "7200/289",
    ("Sp8(2) on 120 points", 238, 34): "1440/49",
}


_SQRT5 = 5.0 ** 0.5

# sin^2 multisets of the cuspidal-restriction codes, sorted ascending
CUSPIDAL_ANGLES = {
    5: (1 / 5, 1.0),
    7: (0.0, 6 / 7, 6 / 7),
    9: (1 / 3, 1 / 3, 5 / 9, 1.0),
    11: (0.0, (15 - 3 * _SQRT5) / 22, (15 - 3 * _SQRT5) / 22,
         (15 + 3 * _SQRT5) / 22, (15 + 3 * _SQRT5) / 22),
}


@dataclass(frozen=True)
class ProjectiveColumn:
    label: int
    n: int
    m: int
    d: Fraction
    d_tilde_sq: Fraction | None
    angles: tuple[float, ...] | None
    available: bool


def projective_columns(q: int) -> list[ProjectiveColumn]:
    """Closed-form cell parameters of the projective-line families.

    Every column value equals the simplex bound at N = q + 1.  The
    (q+1)/2-dimensional column requires q = 1 mod 4; the other columns
    exist for every odd q >= 5 (in one of the two groups)."""
    if q < 5 or q % 2 == 0:
        raise CatalogError("q must be an odd prime power >= 5")
    F = Fraction
    half = (q - 1) // 2
    # the (q+1, (q+1)/2) cell needs a (q+1)-dim irreducible of the smaller
    # group; there are (q-5)/4 resp. (q-3)/4 of those, so q = 5 has none
    n_plus_one_dims = (q - 5) // 4 if q % 4 == 1 else (q - 3) // 4
    return [
        ProjectiveColumn(1, q + 1, 1, F(1), F(1), None, True),
        ProjectiveColumn(2, q, 1, F(q * q - 1, q * q), F(q * q - 1, q * q),
                         None, True),
        ProjectiveColumn(3, q + 1, 2, F(2 * (q - 1), q),
                         F((q - 1) ** 2, q * q), None, True),
        ProjectiveColumn(4, q, half, F((q + 1) ** 2 * (q - 1), 4 * q * q),
                         None, None, True),
        ProjectiveColumn(5, q + 1, half, F((q - 1) * (q + 3), 4 * q),
                         None, None, True),
        ProjectiveColumn(6, q + 1, (q + 1) // 2, F((q + 1) ** 2, 4 * q),
                         None, None, n_plus_one_dims > 0),
        ProjectiveColumn(7, (q + 1) // 2, 1, F(q - 1, q), F(q - 1, q),
                         None, q % 4 == 1),
        ProjectiveColumn(8, q - 1, half, F(q * q - 1, 4 * q), None,
                         CUSPIDAL_ANGLES.get(q), True),
    ]


# ----------------------------------------------------- shared build helpers


def _canonical_subsets(dims, n):
    """One proper, nonempty subset of positions per canonical m, where m sums
    `dims` over the subset, as sorted (min(m, n - m), positions) pairs.

    m and n - m give the same distances (complementary subspaces); a subset
    summing to min(m, n - m) itself is preferred."""
    best = {}
    for r in range(1, len(dims)):
        for combo in itertools.combinations(range(len(dims)), r):
            m = sum(dims[c] for c in combo)
            mc = min(m, n - m)
            if mc and (mc not in best or (m == mc and best[mc][0] != mc)):
                best[mc] = (m, combo)
    return sorted((mc, combo) for mc, (m, combo) in best.items())


def subset_reps(decomposition, h_table, n):
    """One representative character subset per achievable canonical m."""
    lam = decomposition.multiplicities
    degs = h_table.degrees()
    present = [i for i in range(len(lam)) if lam[i] > 0]
    dims = [subspace_dimension(lam, degs, [i]) for i in present]
    return [(mc, [present[c] for c in combo])
            for mc, combo in _canonical_subsets(dims, n)]


def _lookup_reference(expected_map, corrections, block_key, n, m):
    """Listed and corrected values for cell (n, m), trying the complement."""
    for mm in (m, n - m):
        listed = expected_map.get((n, mm))
        if listed is not None:
            corrected = corrections.get(block_key + (n, mm))
            return listed, corrected
    return None, None


def _entry_from_context(family, params, ctx, m, chars, expected, corrected):
    flags = []
    try:
        code = ctx.build(chars)
        report = verify_simplex(code)
        status = ("verified" if report.certified and report.equidistant
                  else "failed")
        if status == "failed":
            flags.append(f"bound-gap {report.rel_gap:.3g}")
        d = code.params.d_c_sq_min
        frac = as_fraction(d)
        angles = (code.params.spa_sets[0].sin_sq
                  if len(code.params.spa_sets) == 1 else None)
        d_tilde = code.params.d_tilde_min
    except CodeError as err:
        return CatalogEntry(family, params, ctx.rho.dim, m, ctx.n_cosets,
                            None, None, expected, "failed",
                            flags=(f"build-error: {err}",))
    frac_str = str(frac) if frac is not None else None
    if expected is None:
        flags.append("unlisted")
    else:
        target = Fraction(corrected if corrected else expected)
        if frac is not None and frac == target:
            if corrected:
                flags.append("listed-value-differs")
        else:
            flags.append("expected-mismatch")
            status = "failed"
    return CatalogEntry(family, params, code.params.n, m, code.params.N,
                        d, frac_str, expected, status, d_tilde=d_tilde,
                        angles=angles, flags=tuple(flags))


def _predicted_entry(family, params, n, m, count, expected, corrected,
                     extra_flags=()):
    d = Fraction(count, count - 1) * m * (n - m) / n
    flags = list(extra_flags)
    if expected is None:
        flags.append("no-listed-value")
    elif Fraction(expected) != d:
        flags.append("listed-value-differs")
    if d > m:
        # the formula can exceed the Grassmannian diameter; no equidistant
        # orbit exists at these parameters
        flags.append("bound-exceeds-diameter")
    return CatalogEntry(family, params, n, m, count, float(d), str(d),
                        expected, "predicted", flags=tuple(flags))


# ----------------------------------------------------- symmetric tower


def _partition_tuples(total):
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return rec(total, total)


def canonical_shapes(points: int) -> list[Partition]:
    """Partitions with dim >= 2, one per conjugate pair."""
    out, seen = [], set()
    for parts in _partition_tuples(points):
        lam = Partition(parts)
        if hook_dimension(lam) < 2:
            continue
        key = min(parts, lam.conjugate().parts)
        if key in seen:
            continue
        seen.add(key)
        out.append(lam)
    return sorted(out, key=lambda p: (hook_dimension(p), p.parts))


def symmetric_tower_entries(points: int,
                            include_alternating: bool = True
                            ) -> list[CatalogEntry]:
    """All cells on `points` points, built and certified."""
    expected_map = {(n, m): d
                    for n, m, d in SYMMETRIC_REFERENCE.get(points, [])}
    g = PermGroup.symmetric(points)
    h = g.stabilizer(points - 1)
    ht = compute_table(h)
    entries = []
    for lam in canonical_shapes(points):
        rho = young_orthogonal_rep(g, lam)
        ctx = IsotypicContext(g, h, rho, ht)
        for m, chars in subset_reps(ctx.decomposition, ht, rho.dim):
            expected, corrected = _lookup_reference(
                expected_map, SYMMETRIC_CORRECTIONS, (points,), rho.dim, m)
            params = {"points": points, "partition": list(lam.parts),
                      "chars": chars}
            entries.append(_entry_from_context(
                "symmetric", params, ctx, m, chars, expected, corrected))
    if include_alternating:
        entries.extend(_alternating_entries(points, expected_map))
        entries = _flag_cross_family(entries)
    return sorted(entries, key=lambda e: (e.n, e.m, e.family))


def predicted_tower_entries(points: int) -> list[CatalogEntry]:
    """Character-only cells for a tower of any size.

    The branching rule gives the stabilizer decomposition of each shape
    (corner removals, multiplicity one), so cell parameters follow from
    hook dimensions alone; nothing is enumerated or built."""
    entries = []
    for lam in canonical_shapes(points):
        n = hook_dimension(lam)
        dims = [hook_dimension(mu) for mu in branching(lam)]
        for mc, _ in _canonical_subsets(dims, n):
            entries.append(_predicted_entry(
                "symmetric", {"points": points, "partition": list(lam.parts)},
                n, mc, points, None, None))
    return sorted(entries, key=lambda e: (e.n, e.m))


def _alternating_entries(points, expected_map):
    ga = PermGroup.alternating(points)
    ha = ga.stabilizer(points - 1)
    gat = compute_table(ga)
    hat = compute_table(ha)
    gs = PermGroup.symmetric(points)
    entries = []
    for lam in canonical_shapes(points):
        rho_s = young_orthogonal_rep(gs, lam)
        rho_a = restrict_rep(rho_s, ga, name=rho_s.name + "|A")
        if lam.parts == lam.conjugate().parts:
            reps = _split_halves(rho_a, ga, gat)
        else:
            reps = [rho_a]
        for rho in reps:
            ctx = IsotypicContext(ga, ha, rho, hat)
            for m, chars in subset_reps(ctx.decomposition, hat, rho.dim):
                expected, corrected = _lookup_reference(
                    expected_map, SYMMETRIC_CORRECTIONS, (points,),
                    rho.dim, m)
                params = {"points": points, "partition": list(lam.parts),
                          "rep_dim": rho.dim, "chars": chars}
                entries.append(_entry_from_context(
                    "alternating", params, ctx, m, chars, expected,
                    corrected))
    return entries


def _split_halves(rho_a, ga, gat):
    """A self-conjugate shape restricts to two irreducibles of half dim."""
    chi = rho_a.character()
    target = rho_a.dim // 2
    degs = gat.degrees()
    rows = [i for i in range(gat.n_classes)
            if int(degs[i]) == target
            and abs(inner_product(chi, gat.irreducibles[i]) - 1)
            < config.TOL.integer]
    if len(rows) != 2:
        raise CatalogError(
            f"expected two half components of dim {target}, found {rows}")
    return [extract_irrep(rho_a, ga, gat, i) for i in rows]


def _flag_cross_family(entries):
    keyed = {}
    for e in entries:
        keyed.setdefault((e.n, e.m, e.d_fraction), set()).add(e.family)
    out = []
    for e in entries:
        fams = keyed[(e.n, e.m, e.d_fraction)]
        if len(fams) > 1 and e.status == "verified":
            other = next(f for f in fams if f != e.family)
            out.append(replace(e, flags=e.flags + (f"coincides-with-{other}",)))
        else:
            out.append(e)
    return out


def _cell_check(entries, n, m, listed, corrected) -> CellCheck:
    """Verified entries at (n, m) or its complement that reproduce the
    corrected value if there is one, else the listed value."""
    target = corrected if corrected else listed
    hits = [e for e in entries
            if e.n == n and (e.m == m or e.m == n - m)
            and e.status == "verified"
            and e.d_fraction == str(Fraction(target))]
    return CellCheck(n, m, listed, target, bool(hits),
                     tuple(sorted({e.family for e in hits})),
                     corrected is not None)


def check_symmetric_tower(entries, points) -> list[CellCheck]:
    return [_cell_check(entries, n, m, listed,
                        SYMMETRIC_CORRECTIONS.get((points, n, m)))
            for n, m, listed in SYMMETRIC_REFERENCE.get(points, [])]


# ----------------------------------------------------- projective line


def _sweep_group(family, base_params, g, point, dims, expected_map,
                 corrections=None, block_key=(), max_power=3,
                 predict_only=False, per_row_degrees=frozenset()):
    """Build one entry per (rep degree, canonical m) for a 2-transitive pair.

    Same-degree representations give the same cell parameters, so only the
    first is kept, except for degrees in per_row_degrees, whose codes can
    differ in their principal angles."""
    corrections = corrections or {}
    table = compute_table(g)
    h = g.stabilizer(point)
    ht = compute_table(h)
    degrees = table.degrees()
    entries, done = [], set()
    count = g.order // h.order
    for i in range(table.n_classes):
        deg = int(degrees[i])
        if deg < 2 or (dims is not None and deg not in dims):
            continue
        key = i if deg in per_row_degrees else deg
        chi = table.irreducibles[i]
        dec = restrict_and_decompose(chi, g, h, ht)
        subset_plan = [(m, chars)
                       for m, chars in subset_reps(dec, ht, deg)
                       if (key, m) not in done]
        if not subset_plan:
            continue
        carrier = None if predict_only else find_carrier(g, table, i,
                                                         max_power=max_power)
        if carrier is None:
            for m, chars in subset_plan:
                done.add((key, m))
                expected, corrected = _lookup_reference(
                    expected_map, corrections, block_key, deg, m)
                extra = () if predict_only else ("no-carrier-within-budget",)
                entries.append(_predicted_entry(
                    family, dict(base_params, rep_degree=deg, chars=chars),
                    deg, m, count, expected, corrected, extra))
            continue
        rho = extract_irrep(carrier, g, table, i)
        ctx = IsotypicContext(g, h, rho, ht)
        for m, chars in subset_plan:
            done.add((key, m))
            expected, corrected = _lookup_reference(
                expected_map, corrections, block_key, deg, m)
            params = dict(base_params, rep_degree=deg, table_row=i,
                          chars=chars)
            entries.append(_entry_from_context(
                family, params, ctx, m, chars, expected, corrected))
    return entries


def projective_entries(q: int) -> list[CatalogEntry]:
    cols = projective_columns(q)
    relevant = {c.n for c in cols if c.available}
    expected_map = {(c.n, c.m): str(c.d) for c in cols if c.available}
    entries = []
    for family, maker in (("pgl2", make_pgl2), ("psl2", make_psl2)):
        g = maker(q)
        per_row = frozenset({q - 1}) if family == "psl2" else frozenset()
        entries.extend(_sweep_group(family, {"q": q}, g, 0, relevant,
                                    expected_map, per_row_degrees=per_row))
    return sorted(entries, key=lambda e: (e.n, e.m, e.family))


@dataclass(frozen=True)
class ColumnCheck:
    label: int
    n: int
    m: int
    expected: str
    available: bool
    matched: bool
    families: tuple[str, ...]
    angles_ok: bool | None
    d_tilde_sq_ok: bool | None


def check_projective_table(entries, q) -> list[ColumnCheck]:
    checks = []
    for col in projective_columns(q):
        if not col.available:
            checks.append(ColumnCheck(col.label, col.n, col.m, str(col.d),
                                      False, False, (), None, None))
            continue
        hits = [e for e in entries
                if e.n == col.n and (e.m == col.m or e.m == col.n - col.m)
                and e.status == "verified"
                and e.d_fraction == str(col.d)]
        angles_ok = None
        if col.angles is not None and hits:
            angles_ok = any(
                e.angles is not None and len(e.angles) == len(col.angles)
                and max(abs(a - b) for a, b in zip(e.angles, col.angles))
                < 1e-6
                for e in hits)
        dt_ok = None
        if col.d_tilde_sq is not None and hits:
            dt_ok = any(e.d_tilde is not None
                        and abs(e.d_tilde ** 2 - float(col.d_tilde_sq)) < 1e-8
                        for e in hits)
        checks.append(ColumnCheck(col.label, col.n, col.m, str(col.d), True,
                                  bool(hits),
                                  tuple(sorted({e.family for e in hits})),
                                  angles_ok, dt_ok))
    return checks


# ----------------------------------------------------- loaded groups


def data_path(name: str) -> Path:
    """Packaged generator file, overridable via GRASSPACK_DATA."""
    path = config.data_path(name if name.endswith(".grp") else name + ".grp")
    if not path.exists():
        raise CatalogError(f"no packaged group data named {name}")
    return path


def load_packaged_group(name: str, cap: int = config.ENUM_CAP) -> PermGroup:
    return load_group(data_path(name), name=name, cap=cap)


def reference_block(label: str) -> ReferenceBlock:
    for block in LOADED_REFERENCE:
        if block.label == label:
            return block
    raise CatalogError(f"no reference block labelled {label!r}")


def reference_prediction_entries(block: ReferenceBlock) -> list[CatalogEntry]:
    """Formula predictions for every reference cell of one block."""
    out = []
    for cell in block.cells:
        corrected = LOADED_CORRECTIONS.get((block.label, cell.n, cell.m))
        entry = _predicted_entry(
            "loaded", {"block": block.label}, cell.n, cell.m, block.count,
            cell.listed, corrected)
        if corrected:
            entry = replace(entry, flags=entry.flags + ("corrected-value",))
        out.append(entry)
    return out


def loaded_group_entries(name: str, dims=None, point: int = 0,
                         include_derived: bool = True,
                         max_power: int = 3) -> list[CatalogEntry]:
    """Full builds for an enumerable loaded group and, when doubly
    transitive, its derived subgroup (which contributes extra cells)."""
    block = next((b for b in LOADED_REFERENCE if b.group == name), None)
    expected_map = {}
    corrections = {}
    block_key = ()
    if block is not None:
        expected_map = {(c.n, c.m): c.listed for c in block.cells
                        if c.listed is not None}
        corrections = {(block.label, n, m): v
                       for (lbl, n, m), v in LOADED_CORRECTIONS.items()
                       if lbl == block.label}
        block_key = (block.label,)
    g = load_packaged_group(name)
    entries = _sweep_group("loaded", {"group": name}, g, point, dims,
                           expected_map, corrections, block_key, max_power)
    if include_derived:
        d = g.derived_subgroup()
        if d.order < g.order:
            hd = d.stabilizer(point)
            if d.is_two_transitive(hd):
                entries.extend(_sweep_group(
                    "loaded", {"group": name, "derived": True}, d, point,
                    dims, expected_map, corrections, block_key, max_power))
    return sorted(entries, key=lambda e: (e.n, e.m))


def check_loaded_block(entries, block: ReferenceBlock) -> list[CellCheck]:
    return [_cell_check(entries, c.n, c.m, c.listed,
                        LOADED_CORRECTIONS.get((block.label, c.n, c.m)))
            for c in block.cells if c.listed is not None]


def rotation_code_entries() -> list[CatalogEntry]:
    """The seven-dimensional cell of the 28-point action, fully built."""
    g = load_packaged_group("sp6_2_deg28")
    rho = symplectic_rotation_rep(g)
    h = g.stabilizer(0)
    ht = compute_table(h)
    ctx = IsotypicContext(g, h, rho, ht)
    block = reference_block("Sp6(2) on 28 points")
    expected_map = {(c.n, c.m): c.listed for c in block.cells
                    if c.listed is not None}
    entries = []
    for m, chars in subset_reps(ctx.decomposition, ht, rho.dim):
        expected, corrected = _lookup_reference(
            expected_map, LOADED_CORRECTIONS, (block.label,), rho.dim, m)
        params = {"group": "sp6_2_deg28", "rep": "rotation", "chars": chars}
        entries.append(_entry_from_context(
            "loaded", params, ctx, m, chars, expected, corrected))
    return entries
