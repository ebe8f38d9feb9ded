"""Orbit codes: construction, bounds, unions, products, Clifford family."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from grasspack import catalog, characters, codes, config
from grasspack.catalog import canonical_shapes, data_path
from grasspack.characters import character_table
from grasspack.codes import (CodeError, IsotypicContext, StabilizerError,
                             build_clifford_orthoplex, build_union_code,
                             clifford_count, clifford_family, kron_extend,
                             kron_product, predict_from_dimensions, spa_census,
                             union_min_distance_formula, verify_simplex)
from grasspack.config import TOL
from grasspack.grassmann import (GrassmannError, ProjectorStack,
                                 SubspaceProjector, chordal_sq_trace,
                                 principal_angles)
from grasspack.permgroup import (PermGroup, Permutation, load_group, make_pgl2,
                                 make_psl2, parse_group)
from grasspack.reps import (Partition, UnitaryRep, extract_irrep, find_carrier,
                            restrict_rep, symplectic_rotation_rep,
                            young_orthogonal_rep)
from reference import (clifford_family_by_search, clifford_labels_and_signs,
                       clifford_projectors, full_class_sums,
                       hermitian_completion, isotypic_projector,
                       pairwise_census, perm_rep, stabilizer_pair_keys,
                       x_matrix, y_matrix)


def trivial_index(table):
    return next(i for i, ch in enumerate(table.irreducibles)
                if np.abs(ch.values - 1).max() < 1e-9)


def components_by_degree(ctx, deg):
    lam = ctx.decomposition.multiplicities
    degs = character_table(ctx.h).degrees()
    return [i for i in range(len(degs))
            if lam[i] > 0 and int(degs[i]) == deg]


def census_distances(code):
    return sorted(s.chordal_sq() for s, _ in code.census)


# shared contexts; each bundles (G, H, rho, tables) for one family of tests

@pytest.fixture(scope="module")
def s4_ctx():
    g = PermGroup.symmetric(4)
    rho = young_orthogonal_rep(g, Partition((3, 1)))
    return IsotypicContext(g, g.stabilizer(3), rho)


@pytest.fixture(scope="module")
def s5_ctx():
    g = PermGroup.symmetric(5)
    rho = young_orthogonal_rep(g, Partition((3, 1, 1)))
    return IsotypicContext(g, g.stabilizer(4), rho)


@pytest.fixture(scope="module")
def s6_ctx():
    g = PermGroup.symmetric(6)
    rho = young_orthogonal_rep(g, Partition((3, 2, 1)))
    return IsotypicContext(g, g.stabilizer(5), rho)


@pytest.fixture(scope="module")
def pgl5_ctx():
    g = make_pgl2(5)
    table = character_table(g)
    six = next(i for i, d in enumerate(table.degrees()) if d == 6)
    carrier = find_carrier(g, six)
    rho = extract_irrep(carrier, six)
    return IsotypicContext(g, g.stabilizer(0), rho)


@pytest.fixture(scope="module")
def psl5_quad_code():
    # the four-dimensional irreducible of PSL2(F5) on six points,
    # H the point stabilizer (dihedral of order 10), one of the two
    # two-dimensional components
    g = make_psl2(5)
    table = character_table(g)
    four = next(i for i, d in enumerate(table.degrees()) if d == 4)
    carrier = find_carrier(g, four)
    rho = extract_irrep(carrier, four)
    ctx = IsotypicContext(g, g.stabilizer(0), rho)
    chars = components_by_degree(ctx, 2)
    return ctx.build([chars[0]])


# ------------------------------------------------------------ basic builds


def test_s4_line_code(s4_ctx):
    code = s4_ctx.build([trivial_index(character_table(s4_ctx.h))])
    p = code.params
    assert (p.n, p.m, p.N) == (3, 1, 4)
    assert abs(p.d_c_sq_min - 8 / 9) < 1e-12
    assert p.meets_simplex
    assert len(code.census) == 1
    assert code.census[0][1] == 6          # all 4*3/2 pairs in one class


def test_s5_plane_code(s5_ctx):
    chars = components_by_degree(s5_ctx, 3)
    assert len(chars) == 2
    code = s5_ctx.build([chars[0]])
    p = code.params
    assert (p.n, p.m, p.N) == (6, 3, 5)
    assert abs(p.d_c_sq_min - 15 / 8) < 1e-10
    assert p.meets_simplex


def test_build_helper_matches_context(s4_ctx):
    idx = trivial_index(character_table(s4_ctx.h))
    ctx = IsotypicContext(s4_ctx.g, s4_ctx.h, s4_ctx.rho)
    code = ctx.build([idx])
    assert abs(code.params.d_c_sq_min - 8 / 9) < 1e-12


def test_contexts_on_one_subgroup_share_its_table(monkeypatch):
    calls = []
    compute = characters.compute_table
    monkeypatch.setattr(characters, "compute_table",
                        lambda g, **kw: calls.append(g) or compute(g, **kw))
    g = PermGroup.symmetric(5)
    h = g.stabilizer(4)
    first, second = (IsotypicContext(g, h, young_orthogonal_rep(g, lam))
                     for lam in (Partition((4, 1)), Partition((3, 2))))
    assert calls == [h]
    assert (first.decomposition.subgroup_table
            is second.decomposition.subgroup_table is character_table(h))


def test_empty_and_degenerate_subsets_rejected(s4_ctx):
    with pytest.raises(CodeError):
        s4_ctx.subspace([])
    lam = s4_ctx.decomposition.multiplicities
    missing = next(i for i in range(len(lam)) if lam[i] == 0)
    with pytest.raises(CodeError):
        s4_ctx.subspace([missing])          # zero subspace
    present = [i for i in range(len(lam)) if lam[i] > 0]
    with pytest.raises(CodeError):
        s4_ctx.subspace(present)            # full space


def test_reducible_rep_rejected():
    g = PermGroup.symmetric(4)
    with pytest.raises(CodeError):
        IsotypicContext(g, g.stabilizer(3), perm_rep(g))


def test_non_subgroup_rejected():
    g = PermGroup.alternating(4)
    table = character_table(g)
    three = next(i for i, d in enumerate(table.degrees()) if d == 3)
    carrier = find_carrier(g, three)
    rho = extract_irrep(carrier, three)
    odd = PermGroup.generated([Permutation([1, 0, 2, 3])], name="C2",
                              degree=4)
    with pytest.raises(CodeError):
        IsotypicContext(g, odd, rho)
    # the rows of G_3, but not the group G.stabilizer(3) built
    c3 = PermGroup.generated([Permutation([1, 2, 0, 3])], name="C3",
                             degree=4)
    with pytest.raises(CodeError, match="not a point stabilizer"):
        IsotypicContext(g, c3, rho)


def test_stabilizer_collapse_is_loud():
    # D4 on the corners of a square, in its 2-dim irreducible: H = G_0 is
    # the reflection in the diagonal through corner 0, whose trivial part W
    # is that diagonal's line.  The half-turn fixes the line too, so the
    # orbit has 2 distinct subspaces instead of the 4 cosets
    g = PermGroup.generated([Permutation.from_cycles(4, [[0, 1, 2, 3]]),
                             Permutation.from_cycles(4, [[1, 3]])], name="D4")
    table = character_table(g)
    two = next(i for i, d in enumerate(table.degrees()) if d == 2)
    carrier = find_carrier(g, two)
    rho = extract_irrep(carrier, two)
    h = g.stabilizer(0)
    with pytest.raises(StabilizerError) as err:
        IsotypicContext(g, h, rho).build([trivial_index(character_table(h))])
    assert err.value.actual_stabilizer_order == 4


def pgl2_7_contexts():
    g = make_pgl2(7)
    for i, deg in enumerate(character_table(g).degrees()):
        carrier = find_carrier(g, i) if deg >= 2 else None
        if carrier is not None:
            yield IsotypicContext(g, g.stabilizer(0),
                                  extract_irrep(carrier, i))


def rotation_context():
    degree, gens = parse_group(data_path("sp6_2_deg28").read_text())
    g = PermGroup.deferred(gens, name="sp6_2_deg28", degree=degree)
    return IsotypicContext(g, g.stabilizer(0), symplectic_rotation_rep(g))


def test_orbit_equals_the_product_per_codeword(s5_ctx):
    # the orbit is batched products packed into rows; each codeword is
    # exactly the Hermitian completion of the lower triangle of the u P u^H
    # of its own coset rep, as one product per codeword would give
    seen = {}
    for ctx in (s5_ctx, *pgl2_7_contexts(), rotation_context()):
        for c in np.flatnonzero(ctx.decomposition.multiplicities):
            if ctx.dimension([c]) == ctx.rho.dim:
                continue
            pi_w, m = ctx.subspace([c])
            words = ctx.orbit(pi_w)
            assert len(words) == len(ctx.t_images) == ctx.n_cosets
            for u, word in zip(ctx.t_images, words):
                want = u @ pi_w.projector @ u.conj().T
                assert word.projector.dtype == want.dtype
                assert np.array_equal(word.projector,
                                      hermitian_completion(want))
                assert word.m == m
                seen[ctx.g.name] = seen.get(ctx.g.name, 0) + 1
    assert seen == {"S5": 2 * 5, "PGL2_7": 10 * 8, "sp6_2_deg28": 2 * 28}


# ------------------------------------------------------------ predictions


def test_predict_from_dimensions_exact():
    p = predict_from_dimensions(2673, 990, 12)
    assert p.d_c_sq_min == pytest.approx(680.0, abs=1e-9)
    assert p.meets_simplex
    with pytest.raises(CodeError):
        predict_from_dimensions(10, 10, 4)


def test_predict_matches_build(s4_ctx):
    idx = trivial_index(character_table(s4_ctx.h))
    predicted = predict_from_dimensions(s4_ctx.rho.dim,
                                        s4_ctx.dimension([idx]),
                                        s4_ctx.n_cosets)
    built = s4_ctx.build([idx]).params
    assert predicted.N == built.N
    assert abs(predicted.d_c_sq_min - built.d_c_sq_min) < 1e-10


# ------------------------------------------------------------ verification


def test_verify_simplex_s4(s4_ctx):
    code = s4_ctx.build([trivial_index(character_table(s4_ctx.h))])
    report = verify_simplex(code)
    assert report.certified and report.equidistant
    assert abs(report.rel_gap) < 1e-10


def test_verify_simplex_s6_16_5(s6_ctx):
    chars = components_by_degree(s6_ctx, 5)
    code = s6_ctx.build([chars[0]])
    p = code.params
    assert (p.n, p.m, p.N) == (16, 5, 6)
    report = verify_simplex(code)
    assert report.certified
    assert abs(report.d_min - 33 / 8) < 1e-9


def test_verify_simplex_reports_gap(s5_ctx):
    # a union is not equidistant and sits below the simplex bound at its
    # total cardinality, so certification must fail
    subsets = [[c] for c in components_by_degree(s5_ctx, 3)]
    union = build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho, subsets)
    report = verify_simplex(union)
    assert not report.equidistant
    assert not report.certified
    assert report.rel_gap > 0.1


# ------------------------------------------------------------ unions


def test_union_formula_values():
    assert union_min_distance_formula(6, 3, 5) == pytest.approx(9 / 8)
    assert union_min_distance_formula(2673, 990, 24) == pytest.approx(
        13970 / 23, rel=1e-12)


def test_union_three_distance_classes(s5_ctx):
    subsets = [[c] for c in components_by_degree(s5_ctx, 3)]
    union = build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho, subsets)
    p = union.params
    assert (p.n, p.m, p.N) == (6, 3, 10)
    dists = census_distances(union)
    assert len(dists) == 3
    assert np.allclose(dists, [9 / 8, 15 / 8, 3.0], atol=1e-9)
    assert abs(p.d_c_sq_min - union.provenance["predicted_min_d_c_sq"]) < 1e-9


def test_union_collapses_to_two_distances(pgl5_ctx):
    # n = m |G/H| here (6 = 1 * 6), so the within-orbit distance equals
    # the orthogonal-pair distance m and only two values survive
    subsets = [[c] for c in components_by_degree(pgl5_ctx, 1)
               if c != trivial_index(character_table(pgl5_ctx.h))]
    assert len(subsets) == 2
    union = build_union_code(pgl5_ctx.g, pgl5_ctx.h, pgl5_ctx.rho, subsets)
    p = union.params
    assert (p.n, p.m, p.N) == (6, 1, 12)
    dists = census_distances(union)
    assert len(dists) == 2
    assert np.allclose(dists, [4 / 5, 1.0], atol=1e-9)


def test_union_single_subset_reduces_to_plain_build(s5_ctx):
    chars = components_by_degree(s5_ctx, 3)
    union = build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho, [[chars[0]]])
    plain = s5_ctx.build([chars[0]])
    assert union.params.N == plain.params.N
    assert abs(union.params.d_c_sq_min - plain.params.d_c_sq_min) < 1e-12


def test_union_overlap_rejected(s5_ctx):
    c = components_by_degree(s5_ctx, 3)[0]
    with pytest.raises(CodeError):
        build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho, [[c], [c]])


def test_union_unequal_dimensions_rejected(s6_ctx):
    five = components_by_degree(s6_ctx, 5)[0]
    six = components_by_degree(s6_ctx, 6)[0]
    with pytest.raises(CodeError):
        build_union_code(s6_ctx.g, s6_ctx.h, s6_ctx.rho, [[five], [six]])


# ------------------------------------------------------------ products


def test_kron_extend_scales_everything(s4_ctx):
    code = s4_ctx.build([trivial_index(character_table(s4_ctx.h))])
    doubled = kron_extend(code, 2)
    p = doubled.params
    assert (p.n, p.m, p.N) == (6, 2, 4)
    assert abs(p.d_c_sq_min - 16 / 9) < 1e-10
    assert p.meets_simplex
    assert kron_extend(code, 1) is code
    with pytest.raises(CodeError):
        kron_extend(code, 0)


def test_kron_extend_triples_quad_code(psl5_quad_code):
    p = psl5_quad_code.params
    assert (p.n, p.m, p.N) == (4, 2, 6)
    assert abs(p.d_c_sq_min - 6 / 5) < 1e-10
    tripled = kron_extend(psl5_quad_code, 3)
    assert (tripled.params.n, tripled.params.m) == (12, 6)
    assert abs(tripled.params.d_c_sq_min - 18 / 5) < 1e-9


def test_kron_product_line_codes(s4_ctx):
    code = s4_ctx.build([trivial_index(character_table(s4_ctx.h))])
    prod = kron_product(code, code)
    p = prod.params
    assert (p.n, p.m, p.N) == (9, 1, 16)
    assert abs(p.d_c_sq_min - prod.provenance["expected_min"]) < 1e-10
    assert abs(p.d_c_sq_min - 8 / 9) < 1e-10


def test_kron_product_mixed_dimensions(s4_ctx, s5_ctx):
    line = s4_ctx.build([trivial_index(character_table(s4_ctx.h))])
    plane = s5_ctx.build([components_by_degree(s5_ctx, 3)[0]])
    prod = kron_product(line, plane)
    p = prod.params
    assert (p.n, p.m, p.N) == (18, 3, 20)
    expected = min(1 * 15 / 8, 3 * 8 / 9)
    assert abs(prod.provenance["expected_min"] - expected) < 1e-12
    assert abs(p.d_c_sq_min - expected) < 1e-9


# ------------------------------------------------------------ pair budget


def _refuse(*args, **kwargs):
    raise AssertionError("a codeword was formed")


def test_union_over_the_pair_budget_is_refused_before_its_codewords(
        s5_ctx, monkeypatch):
    # two orbits of |S5 : S4| = 5 make 10 codewords, 45 pairs
    subsets = [[c] for c in components_by_degree(s5_ctx, 3)]
    assert len(subsets) == 2
    monkeypatch.setattr(config, "PAIR_BUDGET", 45)
    assert build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho,
                            subsets).params.N == 10
    monkeypatch.setattr(config, "PAIR_BUDGET", 44)
    monkeypatch.setattr(IsotypicContext, "subspace", _refuse)
    with pytest.raises(CodeError, match="union of 2 orbits .*: 10 codewords "
                       "make 45 pairs, over the pair budget 44"):
        build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho, subsets)


def test_orbit_over_the_pair_budget_is_refused_before_its_codewords(
        s5_ctx, monkeypatch):
    chars = components_by_degree(s5_ctx, 3)[:1]
    monkeypatch.setattr(config, "PAIR_BUDGET", 9)
    monkeypatch.setattr(IsotypicContext, "subspace", _refuse)
    with pytest.raises(CodeError, match="5 codewords make 10 pairs, over "
                       "the pair budget 9"):
        s5_ctx.build(chars)


def test_kron_product_over_the_pair_budget_is_refused_before_its_codewords(
        s4_ctx, monkeypatch):
    # 4 x 4 codewords make 120 pairs
    line = s4_ctx.build([trivial_index(character_table(s4_ctx.h))])
    monkeypatch.setattr(config, "PAIR_BUDGET", 120)
    assert kron_product(line, line).params.N == 16
    monkeypatch.setattr(config, "PAIR_BUDGET", 119)
    monkeypatch.setattr(codes, "SubspaceProjector", _refuse)
    with pytest.raises(CodeError, match="Kronecker product: 16 codewords "
                       "make 120 pairs, over the pair budget 119"):
        kron_product(line, line)


# ------------------------------------------------------------ Clifford


def test_clifford_orthoplex_i2():
    code = build_clifford_orthoplex(2)
    p = code.params
    assert (p.n, p.m, p.N) == (4, 2, 18)
    assert p.meets_orthoplex
    assert abs(p.d_c_sq_min - 1.0) < 1e-12
    by_dist = {}
    for s, k in code.census:
        by_dist[round(s.chordal_sq(), 9)] = by_dist.get(
            round(s.chordal_sq(), 9), 0) + k
    assert set(by_dist) == {1.0, 2.0}
    assert by_dist[2.0] == 9            # one orthogonal pair per subgroup
    assert by_dist[1.0] == 144


def test_clifford_matches_direct_enumeration():
    # every projector must be (I +- M)/2 for an involution M of the group
    # generated by the shift and sign matrices, computed independently here
    mats = {}
    for a in range(4):
        for b in range(4):
            m = x_matrix(4, a) @ y_matrix(4, b)
            if (a, b) != (0, 0) and np.allclose(m @ m, np.eye(4)):
                mats[(a, b)] = m
    assert len(mats) == 9
    direct = []
    for m in mats.values():
        direct.append((np.eye(4) + m) / 2)
        direct.append((np.eye(4) - m) / 2)
    code = build_clifford_orthoplex(2)
    assert len(code.projectors) == len(direct) == 18
    for p in code.projectors:
        assert any(np.abs(p.projector - d).max() < 1e-12 for d in direct)


def test_clifford_group_order_and_family():
    # S_1 is one subgroup per involution (a, b) != 0 with a.b even: 35 at
    # i = 3, and each of S_r has 2^r labels
    n_invs = sum(bin(a & b).count("1") % 2 == 0
                 for a in range(8) for b in range(8)) - 1
    for r, n_sub in ((1, n_invs), (2, clifford_count(3, 2))):
        for part in clifford_family(3, r):
            assert part.shape == (n_sub, 2 ** r) and part.dtype == np.int64
    assert n_invs == 35


def test_clifford_r2_build():
    code = build_clifford_orthoplex(2, r=2)
    p = code.params
    assert p.n == 4 and p.m == 1
    assert p.N == len(code.projectors)
    assert p.d_c_sq_min > 1e-9


def test_clifford_bad_arguments():
    with pytest.raises(CodeError):
        build_clifford_orthoplex(0)
    with pytest.raises(CodeError, match="i must be between 1 and 5"):
        build_clifford_orthoplex(6)


@pytest.mark.parametrize("i, r", [(i, r) for i in (1, 2, 3)
                                  for r in range(1, i + 1)] + [(4, 1)])
def test_clifford_stack_equals_per_label_projectors(i, r):
    # the entries are multiples of 2^-r, so the stacked build and the dense
    # per-label oracle agree exactly, codeword by codeword
    code = build_clifford_orthoplex(i, r)
    want = clifford_projectors(i, r)
    assert len(code.projectors) == len(want)
    for p, q in zip(code.projectors, want):
        assert np.array_equal(p.projector, q)
        assert (p.n, p.m) == (2 ** i, 2 ** (i - r))
    assert code.provenance["n_subgroups"] == len(want) >> r


@pytest.mark.parametrize("i, r", [(i, r) for i in (1, 2, 3)
                                  for r in range(1, i + 1)]
                         + [(4, 1), (4, 2)])
def test_clifford_family_equals_the_search(i, r):
    # labels, signs and order: the least-basis extension forms each
    # subgroup from the combination the search keeps, in its order
    for got, want in zip(clifford_family(i, r),
                         clifford_family_by_search(i, r), strict=True):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def test_clifford_4_2_keeps_its_census():
    code = build_clifford_orthoplex(4, r=2)
    big_n = code.params.N
    assert big_n == len(code.projectors) == 6300
    assert len(code.census) == 6
    assert sum(c for _, c in code.census) == big_n * (big_n - 1) // 2
    assert code.provenance["census_residual"] <= TOL.rel_distance


#: MiB a Clifford build may trace, its packed rows included; the CI step
#: "Clifford census stays within its working memory" holds the same bounds
CLIFFORD_TRACED_MIB = {(4, 2): 21, (4, 4): 17}


@pytest.mark.parametrize("i, r", sorted(CLIFFORD_TRACED_MIB))
def test_clifford_census_in_bounded_memory(i, r):
    # the codeword chunks, the Gram blocks and the subgroup-pair tables are
    # sized in bytes, so the build adds a bounded amount to the packed rows
    tracemalloc.start()
    try:
        code = build_clifford_orthoplex(i, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c for _, c in code.census) == code.params.N * (
        code.params.N - 1) // 2
    assert peak <= CLIFFORD_TRACED_MIB[i, r] << 20


# ------------------------------------------------------------ the distance
# identity and the double coset law


def test_fonda2_identity_element(s4_ctx):
    idx = trivial_index(character_table(s4_ctx.h))
    e = s4_ctx.g.identity()
    residual = s4_ctx.fonda2_residual([idx], e)
    assert residual < 1e-10


def test_fonda2_transversal_elements(s4_ctx):
    idx = trivial_index(character_table(s4_ctx.h))
    rows = s4_ctx.g.coset_transversal(s4_ctx.h).rep_rows
    for t in (Permutation(r) for r in rows[1:]):
        residual = s4_ctx.fonda2_residual([idx], t)
        assert residual < 1e-9


def test_fonda2_on_nonreal_linear_components(pgl5_ctx):
    chars = [c for c in components_by_degree(pgl5_ctx, 1)
             if c != trivial_index(character_table(pgl5_ctx.h))]
    rng = np.random.default_rng(7)
    picks = rng.choice(pgl5_ctx.g.order, size=3, replace=False)
    for gi in picks:
        elem = Permutation(pgl5_ctx.g.rows[int(gi)])
        residual = pgl5_ctx.fonda2_residual([chars[0]], elem)
        assert residual < 1e-9


def test_fonda2_blocks_agree(s5_ctx, monkeypatch):
    # the double sum over H x H in one block, in blocks of two rows, and
    # through a fresh context with its own H table, in blocks of two rows
    chars = components_by_degree(s5_ctx, 3)[:1]
    elems = [Permutation(s5_ctx.g.rows[i]) for i in (1, 17, 119)]
    whole = [s5_ctx.fonda2_residual(chars, e) for e in elems]
    # two rows of H a lookup block, each |H| products at an intp a point
    monkeypatch.setattr(config, "BLOCK_BYTES",
                        2 * 8 * s5_ctx.g.degree * s5_ctx.h.order)
    blocked = [s5_ctx.fonda2_residual(chars, e) for e in elems]
    fresh = IsotypicContext(s5_ctx.g, s5_ctx.h, s5_ctx.rho)
    refreshed = [fresh.fonda2_residual(chars, e) for e in elems]
    assert max(whole) < 1e-9
    assert np.allclose(whole, blocked, rtol=0, atol=1e-12)
    assert np.allclose(whole, refreshed, rtol=0, atol=1e-12)


def test_group_averaged_distance_identity(s4_ctx):
    # summing d(W, tW) over cosets: (|G| - |H|) d = |G| m - |G| m^2 / n
    # for an equidistant orbit, checked on the built projectors
    idx = trivial_index(character_table(s4_ctx.h))
    code = s4_ctx.build([idx])
    base = code.projectors[0]
    total = sum(chordal_sq_trace(base, p) for p in code.projectors)
    g_order, h_order = s4_ctx.g.order, s4_ctx.h.order
    m, n = code.params.m, code.params.n
    lhs = h_order * total
    rhs = g_order * m - g_order * m * m / n
    assert abs(lhs - rhs) < 1e-9


def test_angle_sets_constant_on_double_cosets(s5_ctx):
    chars = [components_by_degree(s5_ctx, 3)[0]]
    pi_w, _ = s5_ctx.subspace(chars)
    rng = np.random.default_rng(11)
    g = s5_ctx.g
    g0 = Permutation(g.rows[57])
    ref = principal_angles(pi_w, _moved(s5_ctx, pi_w, g0))
    h_rows = s5_ctx.h.rows
    for _ in range(20):
        h1 = Permutation(h_rows[rng.integers(len(h_rows))])
        h2 = Permutation(h_rows[rng.integers(len(h_rows))])
        mid = g0 if rng.random() < 0.5 else g0.inverse()
        moved = _moved(s5_ctx, pi_w, h1 * mid * h2)
        assert ref.matches(principal_angles(pi_w, moved), tol=1e-6)


def _moved(ctx, pi_w, perm):
    u = ctx.rho.image(perm)
    from grasspack.grassmann import SubspaceProjector
    return SubspaceProjector(u @ pi_w.projector @ u.conj().T)


# ------------------------------------------------------------ census and IO


def per_pair_keys(n):
    """A key of its own for every unordered pair of n codewords."""
    return lambda rows, cols: (np.minimum.outer(rows, cols) * n
                               + np.maximum.outer(rows, cols))


def census_by_pairs(projectors):
    """First-match grouping of every pair's principal angles, in pair order."""
    sets, counts = [], []
    for i, a in enumerate(projectors):
        for b in projectors[i + 1:]:
            ang = principal_angles(a, b)
            for k, s in enumerate(sets):
                if ang.matches(s, tol=1e-6):
                    counts[k] += 1
                    break
            else:
                sets.append(ang)
                counts.append(1)
    return list(zip(sets, counts))


def assert_same_census(got, want):
    assert [c for _, c in got] == [c for _, c in want]
    for (sa, _), (sb, _) in zip(got, want):
        assert sa.m == sb.m
        assert max(abs(x - y) for x, y in zip(sa.sin_sq, sb.sin_sq)) <= 1e-12


def test_batched_census_matches_pairwise_angles(s5_ctx, psl5_quad_code):
    subsets = [[c] for c in components_by_degree(s5_ctx, 3)]
    union = build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho, subsets)
    rng = np.random.default_rng(19)
    scattered = [SubspaceProjector.from_basis(
        rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        for _ in range(12)]
    for projectors, keys, n_sets in (
            (psl5_quad_code.projectors, psl5_quad_code.keys, 1),
            (union.projectors, union.keys, 3),
            (scattered, per_pair_keys(12), 66)):
        want = census_by_pairs(projectors)
        assert len(want) == n_sets
        assert_same_census(spa_census(projectors, keys)[0], want)


def test_census_rejects_mixed_dimensions(s4_ctx, s5_ctx):
    line = s4_ctx.build(components_by_degree(s4_ctx, 1)[:1]).projectors
    plane = s5_ctx.build(components_by_degree(s5_ctx, 3)[:1]).projectors
    with pytest.raises(GrassmannError):
        spa_census(list(line) + list(plane), per_pair_keys(9))
    thin = SubspaceProjector.from_basis(np.eye(plane[0].n)[:, :1])
    with pytest.raises(GrassmannError):
        spa_census(list(plane) + [thin], per_pair_keys(6))


# ------------------------------------------------------- streamed Gram


def random_subspaces(rng, count, n=6, m=2):
    return [SubspaceProjector.from_basis(
        rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        for _ in range(count)]


def dense_chordal_gram(projectors):
    """The whole N x N Gram of d_c^2 from one complex product."""
    flat = np.stack([p.projector.ravel() for p in projectors])
    return projectors[0].m - (flat @ flat.conj().T).real


def dense_distinct(projectors):
    gram = dense_chordal_gram(projectors)
    dup = np.any(np.tril(gram <= TOL.integer, k=-1), axis=1)
    return len(projectors) - int(dup.sum())


def distance_counts(census):
    out = {}
    for s, k in census:
        d = round(s.chordal_sq(), 9)
        out[d] = out.get(d, 0) + k
    return out


@pytest.fixture(scope="module")
def clifford_3_2():
    return build_clifford_orthoplex(3, r=2)


def gram_rows(monkeypatch, rows, big_n):
    """Set the block budget to Gram blocks of `rows` rows of `big_n`
    codewords; it sizes the packed chunks, the key tables and every other
    pass alike."""
    monkeypatch.setattr(config, "BLOCK_BYTES", rows * 8 * big_n)
    assert next(config.blocks(big_n, 8 * big_n)) == slice(0, rows)
    return rows


@pytest.mark.parametrize("odd", [dict(m=1), dict(n=5)],
                         ids=["line", "ambient"])
def test_census_rejects_an_odd_word_past_the_first_block(odd, monkeypatch):
    rng = np.random.default_rng(29)
    planes = random_subspaces(rng, 201)
    assert len(planes) > gram_rows(monkeypatch, 128, 202)
    with pytest.raises(GrassmannError):
        spa_census(planes + random_subspaces(rng, 1, **odd),
                   per_pair_keys(202))


def test_census_takes_each_key_on_its_first_pair(clifford_3_2, monkeypatch):
    projectors, keys = clifford_3_2.projectors, clifford_3_2.keys
    big_n = len(projectors)
    assert big_n % gram_rows(monkeypatch, 128, big_n)     # a short last block
    at = np.arange(big_n)
    dense = keys(at, at)
    assert np.array_equal(dense, dense.T)
    iu, ju = np.triu_indices(big_n, k=1)
    _, first, counts = np.unique(dense[iu, ju], return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    # a stack forms its items on access: they are told apart by their bytes
    index = {p.projector.tobytes(): k for k, p in enumerate(projectors)}
    pairs = []

    def spy(a, b):
        pairs.append((index[a.projector.tobytes()],
                      index[b.projector.tobytes()]))
        return principal_angles(a, b)

    monkeypatch.setattr(codes, "principal_angles", spy)
    census, distinct, _ = spa_census(projectors, keys)
    assert pairs == [(iu[first[k]], ju[first[k]]) for k in order]
    assert [c for _, c in census] == counts[order].tolist()
    assert distinct == big_n


def test_clifford_census_lists_every_angle_set(clifford_3_2):
    # every set is listed, though several share one d_c^2 (5, 3 and 6
    # sets on 3, 2 and 3 distances)
    assert "census" not in clifford_3_2.provenance
    for code, n_sets, n_dists in (
            (clifford_3_2, 5, 3),
            (build_clifford_orthoplex(4, r=1), 3, 2),
            (build_clifford_orthoplex(4, r=2), 6, 3)):
        p = code.params
        assert len(code.census) == n_sets
        assert len(distance_counts(code.census)) == n_dists
        assert sum(c for _, c in code.census) == p.N * (p.N - 1) // 2
        assert 0 <= code.provenance["census_residual"] <= TOL.rel_distance
    # (4, 2), m = 4: cos^2 = |M|/4 with multiplicity 4|K|/|M| for
    # (|K|, |M|) in (1, 1), (1, 2), (1, 4), (2, 2), (2, 4), and all
    # angles pi/2 where the signs differ on K
    want = sorted([(.75,) * 4, (.5, .5, 1, 1), (0, 1, 1, 1), (.5,) * 4,
                   (0, 0, 1, 1), (1,) * 4])
    got = sorted(s.sin_sq for s, _ in code.census)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_clifford_keys_need_the_sign_agreement(monkeypatch):
    # all signs +1: pairs whose signs differ on K take the key of pairs
    # that agree, and the cross-check names one
    stabilizer_keys = codes._stabilizer_keys
    monkeypatch.setattr(codes, "_stabilizer_keys",
                        lambda labels, signs, *args: stabilizer_keys(
                            labels, np.abs(signs), *args))
    with pytest.raises(CodeError, match=r"pair \(\d+, \d+\) misses its "
                       r"key's d_c\^2 by relative residual"):
        build_clifford_orthoplex(3, r=2)


@pytest.mark.parametrize("i, r", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2),
                                  (4, 3), (4, 4), (5, 1), (5, 2)])
def test_subgroup_family_is_every_totally_singular_space(i, r):
    # the premise of the Clifford pair keys: S_r is the set of totally
    # singular r-spaces of O+(2i, 2), prod_{j<r} (2^(i-j) - 1)
    # (2^(i-j-1) + 1) / (2^(j+1) - 1) of them
    want = Fraction(1)
    for j in range(r):
        want *= Fraction((2 ** (i - j) - 1) * (2 ** (i - j - 1) + 1),
                         2 ** (j + 1) - 1)
    _, a_s, b_s = clifford_family(i, r)
    assert len(a_s) == want
    spaces = set()
    for a_row, b_row in zip(a_s.tolist(), b_s.tolist()):
        space = set(zip(a_row, b_row))
        assert len(space) == 2 ** r
        assert all((a ^ c, b ^ d) in space
                   for a, b in space for c, d in space)
        assert all(bin(a & b).count("1") % 2 == 0 for a, b in space)
        spaces.add(frozenset(space))
    assert len(spaces) == len(a_s)


def _keys_before_the_census(monkeypatch, i, r):
    """The pair keys `build_clifford_orthoplex(i, r)` hands its census."""
    with monkeypatch.context() as mp:
        mp.setattr(codes, "_assemble", lambda projectors, prov, keys, *a: keys)
        return build_clifford_orthoplex(i, r)


@pytest.mark.parametrize("i, r", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2),
                                  (3, 3)])
def test_clifford_keys_match_the_pairwise_sign_comparison(monkeypatch, i, r):
    # the orthoplex workload's five codes and (3, 3), 8 labels a subgroup:
    # every pair up to N = 420, and every block the census asks for at
    # (4, 1) and (4, 2)
    keys = _keys_before_the_census(monkeypatch, i, r)
    labels, signs = clifford_labels_and_signs(i, r)
    want = stabilizer_pair_keys(labels, signs, i, r)
    big_n = len(signs)
    at = np.arange(big_n)
    if big_n <= 420:
        assert np.array_equal(keys(at, at), want(at, at))
    if i == 4:
        for part in config.blocks(big_n, 8 * big_n):
            rows, cols = at[part], at[part.start:]
            got = keys(rows, cols)
            # read by the census as they are, one byte a key, without a copy
            assert got.itemsize == 1 and got.flags.c_contiguous
            assert np.array_equal(got, want(rows, cols))


@pytest.mark.parametrize("i, r", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
                                  (3, 3), (4, 1), (4, 2), (4, 3), (4, 4),
                                  (5, 1), (5, 2)])
def test_subgroup_count_is_the_size_of_the_family(i, r):
    # the family's candidate mask has |S_(r-1)| 2^(r-1) |involutions|
    # entries, so i = 5 stops at r = 2
    assert clifford_count(i, r) == len(clifford_family(i, r)[0])


def test_clifford_over_the_pair_budget_is_refused_before_its_family(
        monkeypatch):
    def formed(*args):
        raise AssertionError("S_r formed")

    monkeypatch.setattr(codes, "clifford_family", formed)
    # (4, 3): 16,200 codewords; (5, 2) and (5, 3): 94,860 and 948,600
    for i, r in ((4, 3), (5, 2), (5, 3)):
        with pytest.raises(CodeError, match="over the pair budget"):
            build_clifford_orthoplex(i, r)
    assert 6300 * 6299 // 2 <= config.PAIR_BUDGET       # (4, 2) is built


def test_duplicate_across_gram_blocks_is_caught(clifford_3_2, monkeypatch):
    # codeword 290 replaced by codeword 5, its pair keys following it
    at = np.arange(clifford_3_2.params.N)
    at[290] = 5
    step = gram_rows(monkeypatch, 128, len(at))
    assert 290 // step != 5 // step
    projectors = [clifford_3_2.projectors[k] for k in at]

    def keys(rows, cols):
        return clifford_3_2.keys(at[rows], at[cols])

    _, distinct, residual = spa_census(projectors, keys)
    assert distinct == 419 and residual <= TOL.rel_distance
    with pytest.raises(StabilizerError, match="orbit has 419 distinct"):
        codes._assemble(projectors, {}, keys, 1)


def test_census_distinct_small_codes_match_dense(s5_ctx, psl5_quad_code):
    words = s5_ctx.build(components_by_degree(s5_ctx, 3)[:1]).projectors
    for projectors in (list(words), list(psl5_quad_code.projectors),
                       list(words) + list(words[:2])):
        assert len(projectors) <= 28
        want = dense_distinct(projectors)
        keys = per_pair_keys(len(projectors))
        assert spa_census(projectors, keys)[1] == want
        if want < len(projectors):
            with pytest.raises(StabilizerError):
                codes._assemble(projectors, {}, keys, 1)
            # without a stabilizer (Kronecker codes) the same is a CodeError
            with pytest.raises(CodeError) as err:
                codes._assemble(projectors, {}, keys)
            assert not isinstance(err.value, StabilizerError)


def test_one_gram_stream_per_code(clifford_3_2, s5_ctx, monkeypatch):
    streams = []
    blocks = codes._chordal_blocks

    def counted(projectors):
        streams.append(len(projectors))
        return blocks(projectors)

    monkeypatch.setattr(codes, "_chordal_blocks", counted)
    assert build_clifford_orthoplex(3, r=2).params == clifford_3_2.params
    assert streams == [420]
    # every code streams it once, as its census's cross-check
    code = s5_ctx.build(components_by_degree(s5_ctx, 3)[:1])
    assert streams == [420, 5]
    kron_extend(code, 2)
    assert streams == [420, 5, 5]


def assert_gram_matches_trace(projectors):
    big_n = len(projectors)
    seen = 0
    for lo, block in codes._chordal_blocks(projectors):
        for a in range(len(block)):
            for b in range(a + 1, block.shape[1]):
                want = chordal_sq_trace(projectors[lo + a],
                                        projectors[lo + b])
                assert abs(block[a, b] - want) <= 1e-12
                seen += 1
    assert seen == big_n * (big_n - 1) // 2


def test_packed_gram_matches_the_trace_across_blocks(monkeypatch):
    rng = np.random.default_rng(31)
    planes = random_subspaces(rng, 201)
    assert len(planes) > gram_rows(monkeypatch, 128, 201)
    # complex words: n(n+1)/2 complex packed columns
    rows = codes._packed_rows(planes)
    assert rows.shape == (201, 21) and rows.dtype == complex
    assert_gram_matches_trace(planes)


def test_packed_gram_of_a_real_code(clifford_3_2, monkeypatch):
    projectors = list(clifford_3_2.projectors)
    assert len(projectors) > gram_rows(monkeypatch, 128, 420)
    # a real code with n = 8: the diagonal and the real upper triangle
    assert codes._packed_rows(projectors).shape == (420, 36)
    assert_gram_matches_trace(projectors)


def test_packed_rows_across_pack_chunks(monkeypatch):
    # the dtype is chosen for the whole code: the one complex word past
    # the first chunk makes every row complex, n(n+1)/2 wide either way
    rng = np.random.default_rng(37)
    real = [SubspaceProjector.from_basis(rng.standard_normal((4, 2)))
            for _ in range(7)]
    words = real + random_subspaces(rng, 1, n=4)
    # three complex 4 x 4 projectors a chunk, six real ones
    monkeypatch.setattr(config, "BLOCK_BYTES", 3 * 4 * 4 * 16)
    for group, dtype in ((real, float), (words, complex)):
        rows = codes._packed_rows(group)
        stack = SubspaceProjector.stack(
            np.stack([p.projector for p in group]).astype(dtype))
        assert rows.shape == (len(group), 10) and rows.dtype == dtype
        assert np.array_equal(stack.rows, rows)
        assert_gram_matches_trace(group)
        assert_gram_matches_trace(stack)


def test_packed_rows_of_a_stack_are_its_own(clifford_3_2, s5_ctx):
    # the census reads a stack's rows in place, and a stack and the list of
    # its items give one census and one distinct count
    words = s5_ctx.build(components_by_degree(s5_ctx, 3)[:1]).projectors
    for stack, keys in ((clifford_3_2.projectors, clifford_3_2.keys),
                        (words, s5_ctx.keys)):
        assert isinstance(stack, ProjectorStack)
        rows = codes._packed_rows(stack)
        assert np.shares_memory(rows, stack.rows)
        census, distinct, _ = spa_census(stack, keys)
        listed, distinct_listed, _ = spa_census(list(stack), keys)
        assert distinct == distinct_listed == len(stack)
        assert census == listed


@pytest.mark.parametrize("budget", [1, 1 << 40], ids=["row", "whole"])
def test_census_does_not_depend_on_the_block_size(s5_ctx, clifford_3_2,
                                                  monkeypatch, budget):
    # one row per Gram block, packed chunk and key-table chunk, or every
    # pass in one block: the same pairs come first, so the same sets and
    # counts, and only the Gram's rounding may differ
    chars = components_by_degree(s5_ctx, 3)[:1]
    default = [clifford_3_2, build_clifford_orthoplex(4, 1),
               s5_ctx.build(chars)]
    monkeypatch.setattr(config, "BLOCK_BYTES", budget)
    for want, code in zip(default, [build_clifford_orthoplex(3, 2),
                                    build_clifford_orthoplex(4, 1),
                                    s5_ctx.build(chars)]):
        assert [(s.sin_sq, c) for s, c in code.census] \
            == [(s.sin_sq, c) for s, c in want.census]
        assert code.params == want.params
        assert abs(code.provenance["census_residual"]
                   - want.provenance["census_residual"]) <= 1e-15


# ------------------------------------------------------- suborbit census


def on_pairs(n):
    """S_n on the 2-subsets of n points: rank 3, suborbits 1 + 2(n-2) +
    (n-2)(n-3)/2."""
    pairs = list(itertools.combinations(range(n), 2))
    at = {p: k for k, p in enumerate(pairs)}

    def lift(images):
        return Permutation([at[tuple(sorted((images[a], images[b])))]
                            for a, b in pairs])
    return PermGroup.generated([lift([*range(1, n), 0]),
                                lift([1, 0, *range(2, n)])],
                               name=f"S{n} on pairs", degree=len(pairs))


def frobenius21():
    """x -> x + 1 and x -> 2x on GF(7): H = {1, 2, 4} has the two paired
    suborbits {1, 2, 4} and {3, 5, 6}."""
    return PermGroup.generated([Permutation([(x + 1) % 7 for x in range(7)]),
                                Permutation([2 * x % 7 for x in range(7)])],
                               name="F21", degree=7)


def single_constituent_codes(g):
    """Build the code of every constituent of rho|H, H = G_0, for every
    irreducible rho of degree at least 2 that has a carrier."""
    h = g.stabilizer(0)
    for i, deg in enumerate(character_table(g).degrees()):
        carrier = find_carrier(g, i) if deg >= 2 else None
        if carrier is not None:
            ctx = IsotypicContext(g, h, extract_irrep(carrier, i))
            for c in np.flatnonzero(ctx.decomposition.multiplicities):
                ctx.build([int(c)])


@pytest.fixture(scope="module")
def context_codes():
    """(context, code) for every code the catalog builds for the S4-S7
    towers, PGL2/PSL2 at q <= 13 and both Sp4(2) blocks, and for every
    constituent of two groups that are not 2-transitive: S5 on pairs and
    F21."""
    built = []
    build = IsotypicContext.build

    def spy(ctx, chars):
        code = build(ctx, chars)
        built.append((ctx, code))
        return code

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IsotypicContext, "build", spy)
        for points in (4, 5, 6, 7):
            catalog.symmetric_tower_entries(points)
        for q in (5, 7, 9, 11, 13):
            catalog.projective_entries(q)
        for name in ("sp4_2_deg10", "sp4_2_deg6"):
            catalog.loaded_group_entries(name, dims={5, 8, 9, 10})
        single_constituent_codes(on_pairs(5))
        single_constituent_codes(frobenius21())
    return built


def test_suborbit_census_matches_pairwise_reference(context_codes):
    groups = {ctx.g.name for ctx, _ in context_codes}
    assert {"S4", "S7", "A7", "PGL2_13", "PSL2_13", "sp4_2_deg10",
            "sp4_2_deg6", "S5 on pairs", "F21"} <= groups
    for ctx, code in context_codes:
        want, distinct = pairwise_census(code.projectors)
        assert distinct == code.params.N
        assert [c for _, c in code.census] == [c for _, c in want]
        assert [s.sin_sq for s, _ in code.census] \
            == [s.sin_sq for s, _ in want]
        assert 0 <= code.provenance["census_residual"] <= TOL.rel_distance


def test_suborbit_census_counts_from_double_cosets(context_codes):
    ranks = set()
    for ctx, code in context_codes:
        big_n = code.params.N
        sizes = [s // ctx.h.order for s in ctx.g.double_coset_sizes(ctx.h)]
        ranks.add(len(sizes))
        if len(sizes) == 2:                     # 2-transitive: one set
            assert [c for _, c in code.census] == [big_n * (big_n - 1) // 2]
            continue
        # one set per nontrivial suborbit, from codeword 0 and a codeword
        # of that suborbit, with N |suborbit| / 2 pairs; paired suborbits
        # share their set and so merge
        twice = []                              # [set, 2 * count]
        for k, size in enumerate(sizes[1:], start=1):
            b = int(np.flatnonzero(ctx.orbitals[0] == k)[0])
            s = principal_angles(code.projectors[0], code.projectors[b])
            hit = next((e for e in twice if e[0].matches(s)), None)
            if hit is None:
                twice.append([s, big_n * size])
            else:
                hit[1] += big_n * size
        assert len(code.census) == len(twice)
        for s, c in code.census:
            assert [2 * c] == [t for r, t in twice if r.matches(s)]
    assert ranks == {2, 3}


def test_paired_suborbits_share_one_key(context_codes):
    ctx, code = next((ctx, code) for ctx, code in context_codes
                     if ctx.g.name == "F21")
    assert ctx.g.double_coset_sizes(ctx.h) == [3, 9, 9]
    assert not np.array_equal(ctx.orbitals, ctx.orbitals.T)
    spy = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "principal_angles",
                   lambda a, b: spy.append(1) or principal_angles(a, b))
        census = spa_census(code.projectors, ctx.keys)
    assert len(spy) == 1
    assert [c for _, c in census[0]] == [21]


def test_union_suborbit_census_matches_pairwise_reference(s5_ctx):
    subsets = [[c] for c in components_by_degree(s5_ctx, 3)]
    union = build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho, subsets)
    want, _ = pairwise_census(union.projectors)
    assert [c for _, c in union.census] == [c for _, c in want] == [20, 5, 20]
    assert [s.sin_sq for s, _ in union.census] \
        == [s.sin_sq for s, _ in want]
    assert union.provenance["census_residual"] <= TOL.rel_distance


def test_keyed_census_matches_pairwise_reference(s4_ctx, s5_ctx, pgl5_ctx,
                                                psl5_quad_code,
                                                clifford_3_2):
    # every keyed builder besides the orbit codes above: the Clifford codes
    # up to N = 420, unions, and Kronecker codes over each kind of key
    line = s4_ctx.build([trivial_index(character_table(s4_ctx.h))])
    plane = s5_ctx.build(components_by_degree(s5_ctx, 3)[:1])
    trivial = trivial_index(character_table(pgl5_ctx.h))
    unions = [build_union_code(s5_ctx.g, s5_ctx.h, s5_ctx.rho,
                               [[c] for c in components_by_degree(s5_ctx, 3)]),
              build_union_code(pgl5_ctx.g, pgl5_ctx.h, pgl5_ctx.rho,
                               [[c] for c in components_by_degree(pgl5_ctx, 1)
                                if c != trivial])]
    clifford = [build_clifford_orthoplex(i, r)
                for i, r in ((2, 1), (3, 1), (2, 2), (4, 1))]
    built = [*clifford, clifford_3_2, *unions,
             kron_extend(line, 2), kron_extend(psl5_quad_code, 3),
             kron_extend(clifford[2], 2), kron_product(line, plane),
             kron_product(kron_product(line, line), line),
             kron_product(unions[1], line),
             kron_product(clifford[0], psl5_quad_code)]
    for code in built:
        assert code.params.N <= 420
        want, distinct = pairwise_census(code.projectors)
        assert distinct == code.params.N
        assert [c for _, c in code.census] == [c for _, c in want]
        assert [s.sin_sq for s, _ in code.census] \
            == [s.sin_sq for s, _ in want]
        assert 0 <= code.provenance["census_residual"] <= TOL.rel_distance


def test_cross_check_catches_a_perturbed_codeword(s5_ctx):
    code = s5_ctx.build(components_by_degree(s5_ctx, 3)[:1])
    rng = np.random.default_rng(41)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    evals, evecs = np.linalg.eigh(a + a.conj().T)
    u = (evecs * np.exp(1e-4j * evals)) @ evecs.conj().T    # near 1
    projectors = list(code.projectors)
    projectors[3] = SubspaceProjector(u @ projectors[3].projector
                                      @ u.conj().T)
    with pytest.raises(CodeError, match=r"pair \(\d+, \d+\) .* relative "
                       r"residual \d\.\d\de-\d\d > 1e-08") as err:
        spa_census(projectors, s5_ctx.keys)
    assert not isinstance(err.value, StabilizerError)


def test_cross_check_catches_merged_suborbits(context_codes):
    ctx, code = next((ctx, code) for ctx, code in context_codes
                     if ctx.g.name == "S5 on pairs" and len(code.census) == 2)
    assert spa_census(code.projectors, ctx.keys)[2] <= TOL.rel_distance
    with pytest.raises(CodeError, match=r"relative residual \d\.\d\de"):
        spa_census(code.projectors,
                   codes._suborbit_keys(np.minimum(ctx.orbitals, 1)))
    with pytest.raises(CodeError, match="pair keys of shape"):
        spa_census(code.projectors,
                   lambda rows, cols: ctx.keys(rows, cols)[1:])
    # keys of any integer width are read as they are; others are refused
    for dtype in (np.int8, np.uint16):
        assert spa_census(code.projectors, lambda rows, cols: ctx.keys(
            rows, cols).astype(dtype))[2] <= TOL.rel_distance
    with pytest.raises(CodeError, match="dtype float64"):
        spa_census(code.projectors,
                   lambda rows, cols: ctx.keys(rows, cols).astype(float))


def test_collapsed_orbit_through_the_labelled_census():
    # D4 on the corners of a square: the half-turn fixes the diagonal line
    # W of the trivial constituent of H = G_0, so 2 of 4 codewords survive
    g = PermGroup.generated([Permutation.from_cycles(4, [[0, 1, 2, 3]]),
                             Permutation.from_cycles(4, [[1, 3]])], name="D4")
    table = character_table(g)
    two = next(i for i, d in enumerate(table.degrees()) if d == 2)
    carrier = find_carrier(g, two)
    ctx = IsotypicContext(g, g.stabilizer(0),
                          extract_irrep(carrier, two))
    chars = [trivial_index(character_table(ctx.h))]
    census = spa_census(ctx.orbit(ctx.subspace(chars)[0]), ctx.keys)
    assert census[1] == 2 and census[2] <= TOL.rel_distance
    with pytest.raises(StabilizerError) as err:
        ctx.build(chars)
    assert err.value.actual_stabilizer_order == 4


def test_two_transitive_census_takes_one_svd(context_codes, monkeypatch):
    ctx, code = next((ctx, code) for ctx, code in context_codes
                     if ctx.g.name == "PGL2_13")
    assert ctx.g.is_two_transitive(ctx.h) and code.params.N == 14
    calls = {"angles": 0, "stacked_svd": 0}
    angles, svd = codes.principal_angles, np.linalg.svd

    def counted_angles(a, b):
        calls["angles"] += 1
        return angles(a, b)

    def counted_svd(a, *args, **kwargs):
        calls["stacked_svd"] += np.ndim(a) > 2
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(codes, "principal_angles", counted_angles)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    again = ctx.build(code.provenance["chars"])
    assert calls == {"angles": 1, "stacked_svd": 0}
    assert again.census == code.census


# ----------------------------------------------- table-free G (Schreier route)


def table_free(g):
    return PermGroup.deferred(g.generators, name=g.name, degree=g.degree)


def test_reducible_rep_on_table_free_group_fails_schur():
    g = table_free(PermGroup.symmetric(5))
    h = g.stabilizer(4)
    with pytest.raises(CodeError, match="Schur"):
        IsotypicContext(g, h, perm_rep(g))


def test_table_free_context_matches_table_context():
    lam = Partition((3, 2))
    g = PermGroup.symmetric(5)
    free = table_free(g)
    ctx = IsotypicContext(g, g.stabilizer(4), young_orthogonal_rep(g, lam))
    free_ctx = IsotypicContext(free, free.stabilizer(4),
                               young_orthogonal_rep(free, lam))
    assert free_ctx.decomposition.multiplicities.tolist() \
        == ctx.decomposition.multiplicities.tolist()
    assert free_ctx.n_cosets == ctx.n_cosets == 5
    for i in range(character_table(ctx.h).n_classes):
        if ctx.decomposition.multiplicities[i]:
            code, free_code = ctx.build([i]), free_ctx.build([i])
            assert abs(free_code.params.d_c_sq_min - code.params.d_c_sq_min) \
                <= TOL.rel_distance * code.params.d_c_sq_min
            prov = free_code.provenance
            assert (prov["orbit_length"], prov["subgroup_order"],
                    prov["schreier_generators"]) == (5, 24, 10)
            assert prov["schur_gap"] > TOL.integer
            assert "schur_gap" not in code.provenance


# ----------------------------------------------------------- isotypic split


def present_rows(ctx):
    return [int(i) for i in np.flatnonzero(ctx.decomposition.multiplicities)]


def tower_contexts(points):
    """S_k and A_k on k points over their point stabilizers: the Young form
    of every canonical shape, restricted to A_k where the shape is not
    self-conjugate."""
    g = PermGroup.symmetric(points)
    ga = PermGroup.alternating(points)
    h, ha = g.stabilizer(points - 1), ga.stabilizer(points - 1)
    out = []
    for lam in canonical_shapes(points):
        rho = young_orthogonal_rep(g, lam)
        out.append(IsotypicContext(g, h, rho))
        if lam.parts != lam.conjugate().parts:
            out.append(IsotypicContext(ga, ha, restrict_rep(rho, ga)))
    return out


def extracted_context(g, degree):
    table = character_table(g)
    row = next(i for i, d in enumerate(table.degrees()) if d == degree)
    carrier = find_carrier(g, row)
    return IsotypicContext(g, g.stabilizer(0), extract_irrep(carrier, row))


def test_split_parts_a_complex_conjugate_pair():
    # A4 on 3 = (3,1): H = C3 has the three linear characters 1, w, conj(w),
    # and the one class pair {c, c^-1} parts w from conj(w) only under a
    # complex weight: with weight 1 their eigenvalues 2 Re(w) coincide
    g = PermGroup.alternating(4)
    rho = restrict_rep(young_orthogonal_rep(PermGroup.symmetric(4),
                                            Partition((3, 1))), g)
    ctx = IsotypicContext(g, g.stabilizer(3), rho)
    rows = present_rows(ctx)
    assert len(rows) == 3 and ctx.h.order == 3
    values = np.array([character_table(ctx.h).irreducibles[i].values
                       for i in rows])
    c = next(c for c in range(1, 3) if np.abs(values[:, c].imag).max() > 0.5)
    assert len(set(np.round(values[:, c].real, 9))) == 2   # tie at weight 1
    split = ctx.checks["isotypic_split"]
    assert split["classes"] == [[c, 1]]
    assert split["rel_gap"] >= codes.SPLIT_GAP
    sums = full_class_sums(ctx.rho_h)
    total = np.zeros((3, 3), dtype=complex)
    for i in rows:
        pi, m = ctx.subspace([i])
        assert m == 1
        assert np.abs(pi.projector - isotypic_projector(
            sums, character_table(ctx.h), [i])).max() <= TOL.ortho
        total += pi.projector
    assert np.abs(total - np.eye(3)).max() <= TOL.ortho


@pytest.mark.parametrize("make", [
    *[(lambda k=k: tower_contexts(k)) for k in (4, 5, 6, 7)],
    lambda: [extracted_context(make_psl2(19), 18)],
    lambda: [extracted_context(load_group(data_path("sp4_2_deg10.grp")), 9)],
], ids=["tower4", "tower5", "tower6", "tower7", "psl2_19_dim18",
        "sp4_2_deg10_dim9"])
def test_split_matches_full_class_sum_formula(make):
    for ctx in make():
        rows = present_rows(ctx)
        split = ctx.checks["isotypic_split"]
        assert split["commutator_residual"] <= TOL.ortho
        if len(rows) < 2:
            assert split["classes"] == []
            continue
        assert split["rel_gap"] >= codes.SPLIT_GAP
        summed = sum(size for _, size in split["classes"])
        assert 0 < summed < ctx.h.order
        sums = full_class_sums(ctx.rho_h)
        for i in rows:
            want = isotypic_projector(sums, character_table(ctx.h), [i])
            got = ctx.subspace([i])[0].projector
            assert np.abs(got - want).max() <= TOL.ortho, (ctx.rho.name, i)


def test_real_data_stays_real(clifford_3_2):
    # a real rep over real H-characters: float64 from the split's bases to
    # the packed Gram, n(n+1)/2 columns; the Clifford stack is real, and an
    # integer projector is promoted to float64
    g = PermGroup.symmetric(7)
    ctx = IsotypicContext(g, g.stabilizer(6),
                          young_orthogonal_rep(g, Partition((4, 2, 1))))
    rows = present_rows(ctx)
    assert len(rows) == 3
    assert {b.dtype for b in ctx._bases.values()} == {np.dtype(np.float64)}
    pi, _ = ctx.subspace(rows[:1])
    assert pi.projector.dtype == pi.basis.dtype == np.float64
    code = ctx.build(rows[:1])
    assert {p.projector.dtype for p in code.projectors} == {
        np.dtype(np.float64)}
    n = ctx.rho.dim
    assert codes._packed_rows(code.projectors).shape == (7, n * (n + 1) // 2)
    assert {p.projector.dtype for p in clifford_3_2.projectors} == {
        np.dtype(np.float64)}
    assert SubspaceProjector(np.diag([1, 1, 0])).projector.dtype == np.float64


def test_complex_where_the_data_needs_it():
    # A4 on 3: a real rep, but C3's omega and conj(omega) part only under a
    # complex weight, so the split and the code stay complex
    g = PermGroup.alternating(4)
    rho = restrict_rep(young_orthogonal_rep(PermGroup.symmetric(4),
                                            Partition((3, 1))), g)
    ctx = IsotypicContext(g, g.stabilizer(3), rho)
    assert rho.dtype == np.float64
    assert [b.shape[1] for b in ctx._bases.values()] == [1, 1, 1]
    assert {b.dtype for b in ctx._bases.values()} == {np.dtype(complex)}
    code = ctx.build(present_rows(ctx)[:1])
    assert {p.projector.dtype for p in code.projectors} == {np.dtype(complex)}
    # PSL2(7)'s degree-3 character is not real: its extraction is complex
    # (irreducible on the stabilizer, so it gives no proper subspace)
    ctx = extracted_context(make_psl2(7), 3)
    assert ctx.rho.dtype == ctx._bases[present_rows(ctx)[0]].dtype == complex


def test_split_commutator_gate_catches_a_perturbed_generator():
    g = PermGroup.symmetric(6)
    good = young_orthogonal_rep(g, Partition((3, 2, 1)))
    images = [m.copy() for m in good.gen_images]
    images[0][0, 1] += 1e-6
    bad = UnitaryRep(g, images)
    with pytest.raises(CodeError,
                       match=r"commutator residual 1\.0\de-06 exceeds"):
        IsotypicContext(g, g.stabilizer(5), bad)
    ctx = IsotypicContext(g, g.stabilizer(5), good)
    assert ctx.checks["isotypic_split"]["commutator_residual"] < 1e-13


def test_split_refuses_a_wrong_multiplicity(s6_ctx):
    # a constituent claimed present that is not: its eigenvalue cluster is
    # empty, and the split says so
    lam = s6_ctx.decomposition.multiplicities.copy()
    lam[int(np.flatnonzero(lam == 0)[0])] = 1
    with pytest.raises(CodeError, match="isotypic split gives constituent"):
        codes._isotypic_split(s6_ctx.rho_h, lam)


def test_split_margins_reach_the_provenance(s5_ctx):
    code = s5_ctx.build([components_by_degree(s5_ctx, 3)[0]])
    split = code.provenance["isotypic_split"]
    assert split == s5_ctx.checks["isotypic_split"]
    assert all(size == int(character_table(s5_ctx.h).classes.sizes[c])
               for c, size in split["classes"])
