"""Acceptance gate: one test per release criterion, one verdict line each.

Every numeric target is pinned to the reference value and tolerance agreed
for the release; where a listed reference value contradicts the bound every
neighbouring cell attains, the corrected value is asserted and the cell is
required to carry its correction flag.
"""
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from grasspack import config
from grasspack.catalog import (CUSPIDAL_ANGLES, LOADED_CORRECTIONS,
                               LOADED_REFERENCE, SYMMETRIC_CORRECTIONS,
                               SYMMETRIC_REFERENCE, check_loaded_block,
                               check_projective_table, check_symmetric_tower,
                               load_packaged_group, loaded_group_entries,
                               projective_entries, reference_block,
                               reference_prediction_entries,
                               rotation_code_entries, subset_reps,
                               symmetric_tower_entries)
from grasspack.characters import character_table
from grasspack.codes import (IsotypicContext, build_clifford_orthoplex,
                             build_union_code, kron_extend, kron_product,
                             predict_from_dimensions, union_min_distance_formula,
                             verify_simplex)
from grasspack.grassmann import (SubspaceProjector, chordal_sq_trace,
                                 orthoplex_bound, principal_angles)
from grasspack.permgroup import PermGroup, make_pgl2
from grasspack.reps import (Partition, branching, extract_irrep, find_carrier,
                            hook_dimension, young_orthogonal_rep)
from reference import character_identities, x_matrix, y_matrix

SQRT5 = 5.0 ** 0.5


def trivial_row(table):
    return next(i for i, chi in enumerate(table.irreducibles)
                if abs(chi.values - 1).max() < 1e-9)


def rel_close(x, target, tol):
    return abs(x - target) <= tol * max(abs(target), 1.0)


def pairwise_distances(code):
    out = []
    for a, b in itertools.combinations(code.projectors, 2):
        out.append(chordal_sq_trace(a, b))
    return out


def test_criterion_1_four_point_pipeline():
    t0 = time.monotonic()
    g = PermGroup.symmetric(4)
    h = g.stabilizer(3)
    rho = young_orthogonal_rep(g, Partition((3, 1)))
    code = IsotypicContext(g, h, rho).build([trivial_row(character_table(h))])
    p = code.params
    assert (p.n, p.m, p.N) == (3, 1, 4)
    for d in pairwise_distances(code):
        assert rel_close(d, 8 / 9, 1e-8)
    assert verify_simplex(code).certified
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_full_tower_tables():
    t0 = time.monotonic()
    for points in (4, 5, 6, 7, 8):
        entries = symmetric_tower_entries(points)
        assert all(e.status == "verified" for e in entries), points
        # equidistant with one nontrivial angle set
        assert all(e.angles is not None for e in entries), points
        assert not any("expected-mismatch" in e.flags for e in entries)
        checks = check_symmetric_tower(entries, points)
        assert all(c.matched for c in checks), points
        corrected = {(points, c.n, c.m) for c in checks if c.corrected}
        known = {k for k in SYMMETRIC_CORRECTIONS if k[0] == points}
        assert corrected == known, points
        # exact rational recovery on every cell
        for c in checks:
            assert Fraction(c.target) == (Fraction(points, points - 1)
                                          * c.m * (c.n - c.m) / c.n)
    assert time.monotonic() - t0 < 600


def test_criterion_3_projective_families():
    t0 = time.monotonic()
    for q in (5, 7, 9, 11, 13):
        entries = projective_entries(q)
        checks = check_projective_table(entries, q)
        for c in checks:
            if not c.available:
                continue
            assert c.matched, (q, c.label)
            assert c.angles_ok is not False, (q, c.label)
            assert c.d_tilde_sq_ok is not False, (q, c.label)
    # vanishing product distance exactly at q in {7, 11}
    for q, vanishes in ((5, False), (7, True), (9, False), (11, True)):
        cells = [e for e in projective_entries(q) if e.n == q - 1]
        assert cells, q
        got = any(e.d_tilde is not None and e.d_tilde < 1e-9 for e in cells)
        assert got == vanishes, q
    # q = 11 surd pair: one cuspidal code realizes the reference angles;
    # their complements are the listed (7 +- 3 sqrt 5)/22 pair
    cells = [e for e in projective_entries(11) if e.n == 10]
    assert len(cells) == 2
    ref = CUSPIDAL_ANGLES[11]
    match = [e for e in cells
             if max(abs(a - b) for a, b in zip(e.angles, ref)) < 1e-6]
    assert len(match) == 1
    complements = sorted({round(1 - a, 9) for a in match[0].angles if a > 1e-9})
    listed = sorted(((7 - 3 * SQRT5) / 22, (7 + 3 * SQRT5) / 22))
    assert max(abs(a - b) for a, b in zip(complements, listed)) < 1e-6
    assert time.monotonic() - t0 < 300


def test_criterion_4_hook_branching_prediction():
    lam = Partition((6, 4, 2))
    assert hook_dimension(lam) == 2673
    dims = [hook_dimension(mu) for mu in branching(lam)]
    assert 990 in dims
    assert sum(dims) == 2673
    p = predict_from_dimensions(2673, 990, 12)
    assert rel_close(p.d_c_sq_min, 680, 1e-12)
    assert Fraction(12, 11) * 990 * (2673 - 990) / 2673 == 680


def test_criterion_5_union_minimum():
    t0 = time.monotonic()
    # large-tower prediction, exact and floating
    exact = (Fraction(24, 23) * 990
             * (2673 - 990 - Fraction(2673, 24)) / 2673)
    assert exact == Fraction(13970, 23)
    assert rel_close(union_min_distance_formula(2673, 990, 24),
                     13970 / 23, 1e-9)
    # desk-scale union: two one-dim components of the 6-dim rep of the
    # projective group on 6 points
    g = make_pgl2(5)
    row6 = next(i for i, d in enumerate(character_table(g).degrees())
                if d == 6)
    rho = extract_irrep(find_carrier(g, row6), row6)
    h = g.stabilizer(0)
    ht = character_table(h)
    ctx = IsotypicContext(g, h, rho)
    lam = ctx.decomposition.multiplicities
    hdegs = ht.degrees()
    lines = [i for i in range(ht.n_classes)
             if lam[i] == 1 and hdegs[i] == 1
             and abs(ht.irreducibles[i].values - 1).max() > 1e-9]
    assert len(lines) == 2
    code = build_union_code(g, h, rho, [[lines[0]], [lines[1]]])
    assert code.params.N == 2 * ctx.n_cosets
    dists = pairwise_distances(code)
    predicted = union_min_distance_formula(rho.dim, 1, ctx.n_cosets)
    assert rel_close(min(dists), predicted, 1e-8)
    distinct = sorted({round(d, 8) for d in dists})
    assert len(distinct) == 2 and all(d > 1e-9 for d in distinct)
    assert time.monotonic() - t0 < 120


def test_criterion_6_kronecker_operations():
    t0 = time.monotonic()
    g4 = PermGroup.symmetric(4)
    h4 = g4.stabilizer(3)
    rho4 = young_orthogonal_rep(g4, Partition((3, 1)))
    line = IsotypicContext(g4, h4, rho4).build(
        [trivial_row(character_table(h4))])
    for k in (2, 3):
        scaled = kron_extend(line, k)
        assert scaled.params.n == 3 * k and scaled.params.m == k
        assert rel_close(scaled.params.d_c_sq_min, k * 8 / 9, 1e-10)
    g5 = PermGroup.symmetric(5)
    h5 = g5.stabilizer(4)
    rho5 = young_orthogonal_rep(g5, Partition((3, 1, 1)))
    ctx5 = IsotypicContext(g5, h5, rho5)
    plane = next(ctx5.build(chars)
                 for m, chars in subset_reps(ctx5.decomposition, 6)
                 if m == 3)
    assert rel_close(plane.params.d_c_sq_min, 15 / 8, 1e-10)
    prod = kron_product(line, plane)
    assert (prod.params.n, prod.params.m, prod.params.N) == (18, 3, 20)
    expected = min(line.params.m * plane.params.d_c_sq_min,
                   plane.params.m * line.params.d_c_sq_min)
    brute = min(pairwise_distances(prod))
    assert rel_close(brute, expected, 1e-8)
    assert rel_close(prod.params.d_c_sq_min, expected, 1e-8)
    assert time.monotonic() - t0 < 60


def test_criterion_7_clifford_orthoplex():
    t0 = time.monotonic()
    code = build_clifford_orthoplex(2)
    p = code.params
    assert (p.n, p.m, p.N) == (4, 2, 18)
    assert p.N > p.n * (p.n + 1) // 2 == 10
    dists = pairwise_distances(code)
    assert len(dists) == 153
    for d in dists:
        assert rel_close(d, 1.0, 1e-9) or rel_close(d, 2.0, 1e-9)
    assert rel_close(min(dists), orthoplex_bound(4, 2, 18).value, 1e-12)
    # independent oracle: the nine symmetric involutions of the order-32
    # group, spectral projectors by hand
    labels = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 0), (2, 1),
              (3, 0), (3, 3)]
    oracle = []
    for a, b in labels:
        mat = x_matrix(4, a) @ y_matrix(4, b)
        assert np.allclose(mat @ mat, np.eye(4))
        assert np.allclose(mat, mat.T)
        oracle.append((np.eye(4) + mat) / 2)
        oracle.append((np.eye(4) - mat) / 2)
    assert len(oracle) == 18
    for pi in oracle:
        assert any(np.abs(pi - q.projector).max() < 1e-12
                   for q in code.projectors)
    at_two = sum(1 for d in dists if rel_close(d, 2.0, 1e-9))
    assert at_two == 9                          # complementary pairs only
    assert time.monotonic() - t0 < 1.0


def test_criterion_8_symplectic_blocks():
    t0 = time.monotonic()
    for name in ("sp4_2_deg10", "sp4_2_deg6"):
        entries = loaded_group_entries(name, dims={5, 8, 9, 10})
        block = next(b for b in LOADED_REFERENCE if b.group == name)
        checks = check_loaded_block(entries, block)
        assert checks and all(c.matched for c in checks), name
        corrected = {(block.label, c.n, c.m) for c in checks if c.corrected}
        known = {k for k in LOADED_CORRECTIONS if k[0] == block.label}
        assert corrected == known, name
    rotation = rotation_code_entries()
    assert [(e.n, e.m, e.d_fraction, e.status) for e in rotation] \
        == [(7, 1, "8/9", "verified")]
    # larger groups: formula consistency only, never built
    for block in LOADED_REFERENCE:
        ents = reference_prediction_entries(block)
        assert all(e.status == "predicted" for e in ents)
        off = {(block.label, e.n, e.m) for e in ents
               if "listed-value-differs" in e.flags}
        known = {k for k in LOADED_CORRECTIONS if k[0] == block.label}
        assert off == known, block.label
    assert time.monotonic() - t0 < 900


def test_criterion_9_property_suites():
    groups = [PermGroup.symmetric(k) for k in (3, 4, 5, 6)]
    groups.append(make_pgl2(5))
    groups.append(load_packaged_group("m11"))
    for g in groups:
        table = character_table(g)
        assert table.orthogonality_residual() <= 1e-9, g.name
        report = character_identities(table, g, n_pairs=40)
        assert report.max_residual <= 1e-6, g.name

    rng = np.random.default_rng(config.DEFAULT_SEED)

    def random_projector(n, m):
        z = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        q, _ = np.linalg.qr(z)
        return SubspaceProjector(q @ q.conj().T)

    for _ in range(500):
        n = int(rng.integers(3, 9))
        ma = int(rng.integers(1, n))
        a, b = random_projector(n, ma), random_projector(n, ma)
        svd = principal_angles(a, b).chordal_sq()
        assert abs(chordal_sq_trace(a, b) - svd) <= 1e-8

    for _ in range(200):
        n = int(rng.integers(3, 9))
        ma = int(rng.integers(1, n))
        a, b = random_projector(n, ma), random_projector(n, ma)
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u, _ = np.linalg.qr(z)
        ua = SubspaceProjector(u @ a.projector @ u.conj().T)
        ub = SubspaceProjector(u @ b.projector @ u.conj().T)
        assert principal_angles(a, b).matches(principal_angles(ua, ub),
                                              tol=1e-8)
