"""Character tables checked against independent small-group oracles."""
import itertools
import math

import numpy as np
import pytest

from grasspack import characters, permgroup
from grasspack.characters import (
    CharacterError,
    ClassFunction,
    character_table,
    class_fusion,
    class_multiplication,
    compute_table,
    inner_product,
    restrict_and_decompose,
)
from grasspack.config import TOL
from grasspack.permgroup import (PermError, PermGroup, Permutation, make_pgl2,
                                 make_psl2)
from reference import character_identities, quaternion_group

# ---------------------------------------------------------------- oracles


def regular_rep_degrees(group):
    """Irreducible degrees via the commutant of the regular representation.

    A generic commutant element T = sum_g R(g) A R(g)^-1 has, per degree-d
    irreducible, d eigenvalue clusters of multiplicity d each.
    """
    n = group.order
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n))
    t = np.zeros((n, n))
    for i in range(n):
        gi = group.element(i)
        # R(g) is the permutation matrix of left multiplication on the table
        perm = group.lookup_rows(gi.images[group.rows.astype(np.intp)])
        t[perm[:, None], perm[None, :]] += a
    evals = np.linalg.eigvals(t)
    used = np.zeros(n, dtype=bool)
    cluster_sizes = []
    for i in range(n):
        if used[i]:
            continue
        close = (np.abs(evals - evals[i]) < 1e-6 * (1 + abs(evals[i]))) & ~used
        used |= close
        cluster_sizes.append(int(close.sum()))
    degs = []
    for d in sorted(set(cluster_sizes)):
        count = cluster_sizes.count(d)
        assert count % d == 0
        degs.extend([d] * (count // d))
    assert sum(d * d for d in degs) == n
    return sorted(degs)


def hook_length_degrees(n):
    """Degrees of the symmetric group on n letters via hook lengths."""
    def partitions(k, cap=None):
        cap = cap or k
        if k == 0:
            yield []
            return
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                yield [first] + rest

    degs = []
    for lam in partitions(n):
        prod = 1
        for i, row in enumerate(lam):
            for j in range(row):
                arm = row - j - 1
                leg = sum(1 for r in lam[i + 1:] if r > j)
                prod *= arm + leg + 1
        degs.append(math.factorial(n) // prod)
    return sorted(degs)


def brute_class_products(elems, cls_of, r):
    """a_ijk by multiplying all pairs of explicit image tuples; each pair
    (x, y) lands on some z, and dividing by |Cl_k| gives the per-z count."""
    a = np.zeros((r, r, r), dtype=np.int64)
    for x in elems:
        for y in elems:
            z = tuple(x[y[i]] for i in range(len(x)))
            a[cls_of[x], cls_of[y], cls_of[z]] += 1
    for k in range(r):
        size_k = sum(1 for c in cls_of.values() if c == k)
        assert (a[:, :, k] % size_k == 0).all()
        a[:, :, k] //= size_k
    return a


# ---------------------------------------------------- class multiplication


def test_class_multiplication_s3_brute_force():
    g = PermGroup.symmetric(3)
    cc = g.conjugacy_classes()
    elems = [tuple(int(v) for v in r) for r in g.rows]
    cls_of = {e: int(cc.class_of[i]) for i, e in enumerate(elems)}
    want = brute_class_products(elems, cls_of, cc.n_classes)
    got = class_multiplication(g)
    assert np.array_equal(got, want)
    # two transpositions compose to the identity in exactly 3 ways
    t = int(np.where(cc.sizes == 3)[0][0])
    assert got[t, t, 0] == 3


def test_class_multiplication_in_blocks_matches_brute_force(monkeypatch):
    # a 256-byte budget splits the x rows, and so every lookup of
    # x^-1 z_k, into several blocks
    monkeypatch.setattr(permgroup, "_BLOCK_BYTES", 1 << 8)
    for g in (PermGroup.alternating(5), make_psl2(7)):
        assert len(g.row_blocks()) > 2
        cc = g.conjugacy_classes()
        elems = [tuple(int(v) for v in r) for r in g.rows]
        cls_of = {e: int(cc.class_of[i]) for i, e in enumerate(elems)}
        want = brute_class_products(elems, cls_of, cc.n_classes)
        assert np.array_equal(class_multiplication(g), want)


def test_class_multiplication_identity_row():
    g = PermGroup.alternating(5)
    a = class_multiplication(g)
    r = a.shape[0]
    assert np.array_equal(a[0], np.eye(r, dtype=np.int64))


def test_class_multiplication_c2():
    g = PermGroup.generated([Permutation.from_cycles(2, [[0, 1]])], name="C2")
    a = class_multiplication(g)
    assert a[1, 1, 1] == 0 and a[1, 1, 0] == 1


def test_class_multiplication_size_identity():
    g = PermGroup.symmetric(5)
    cc = g.conjugacy_classes()
    a = class_multiplication(g)
    sizes = cc.sizes
    lhs = (a * sizes[None, None, :]).sum(axis=2)
    assert np.array_equal(lhs, np.outer(sizes, sizes))


# ----------------------------------------------------------- table compute


def test_s3_degrees_match_regular_rep_oracle():
    g = PermGroup.symmetric(3)
    assert regular_rep_degrees(g) == [1, 1, 2]
    assert compute_table(g).degrees().tolist() == [1, 1, 2]


def test_s5_degrees_match_hook_oracle():
    assert hook_length_degrees(5) == [1, 1, 4, 4, 5, 5, 6]
    table = compute_table(PermGroup.symmetric(5))
    assert sorted(table.degrees().tolist()) == [1, 1, 4, 4, 5, 5, 6]


def test_character_table_is_computed_once_per_group(monkeypatch):
    calls = []
    compute = compute_table

    def counted(g, *args, **kwargs):
        calls.append(g)
        return compute(g, *args, **kwargs)

    monkeypatch.setattr(characters, "compute_table", counted)
    g, other = PermGroup.symmetric(4), PermGroup.symmetric(4)
    table = character_table(g)
    assert character_table(g) is table and calls == [g]
    # the kept table is the one compute_table gives, row for row
    assert np.array_equal(table.matrix(), compute(g).matrix())
    # another group object of the same order gets its own table
    assert character_table(other) is not table and calls == [g, other]


def test_c4_linear_characters():
    table = compute_table(PermGroup.cyclic(4))
    assert table.degrees().tolist() == [1, 1, 1, 1]
    vals = np.concatenate([chi.values for chi in table.irreducibles])
    roots = np.array([1, -1, 1j, -1j])
    assert np.abs(vals[:, None] - roots[None, :]).min(axis=1).max() < 1e-9


@pytest.mark.parametrize("make,expect", [
    (lambda: PermGroup.symmetric(4), [1, 1, 2, 3, 3]),
    (lambda: PermGroup.alternating(5), [1, 3, 3, 4, 5]),
    (lambda: make_pgl2(5), [1, 1, 4, 4, 5, 5, 6]),  # PGL2(F5) = S5
])
def test_known_degree_lists(make, expect):
    assert sorted(compute_table(make()).degrees().tolist()) == expect


def test_table_invariants():
    table = compute_table(PermGroup.symmetric(6))
    assert table.n_classes == 11
    assert table.orthogonality_residual() < 1e-9
    assert int((table.degrees() ** 2).sum()) == 720
    assert table.irreducibles[0].values[0].real == pytest.approx(1.0)


def test_trivial_character_present():
    table = compute_table(PermGroup.alternating(4))
    ones = [chi for chi in table.irreducibles
            if np.abs(chi.values - 1).max() < 1e-9]
    assert len(ones) == 1


# ----------------------------------------------------------- inner product


def test_irreducible_orthonormality():
    table = compute_table(PermGroup.symmetric(4))
    for i, chi in enumerate(table.irreducibles):
        for j, psi in enumerate(table.irreducibles):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(chi, psi) - want) < 1e-9


def test_perm_character_orbit_count():
    g = PermGroup.symmetric(5)
    cc = g.conjugacy_classes()
    # permutation character: fixed points of each class representative
    fixed = np.array([(rep.images == np.arange(5)).sum() for rep in cc.reps],
                     dtype=float)
    perm = ClassFunction(fixed, g.name, cc.sizes)
    triv = ClassFunction(np.ones(cc.n_classes), g.name, cc.sizes)
    # Burnside: average fixed-point count = number of orbits = 1
    direct = sum(int((r == np.arange(5, dtype=r.dtype)).sum()) for r in g.rows)
    assert direct / g.order == 1
    assert inner_product(perm, triv) == pytest.approx(1.0)


def test_inner_product_group_mismatch():
    t1 = compute_table(PermGroup.symmetric(3))
    t2 = compute_table(PermGroup.cyclic(6))
    with pytest.raises(CharacterError):
        inner_product(t1.irreducibles[0], t2.irreducibles[0])


# ------------------------------------------------------------- restriction


def test_restrict_standard_s5_to_s4():
    g = PermGroup.symmetric(5)
    table = compute_table(g)
    std = next(chi for chi in table.irreducibles
               if round(chi.degree.real) == 4
               and abs(chi.values[table.classes.class_of[
                   g.index_of(Permutation.from_cycles(5, [[0, 1]]))]].real
                   - 2.0) < 1e-6)  # fixed-points-minus-one has chi(transposition)=2
    h = g.stabilizer(4)
    dec = restrict_and_decompose(std, g, h)
    degs = dec.subgroup_table.degrees()
    got = sorted((int(degs[i]), int(m)) for i, m in dec.nonzero())
    assert got == [(1, 1), (3, 1)]  # trivial plus standard of the point stabiliser


def test_restrict_to_whole_group_is_indicator():
    g = PermGroup.symmetric(4)
    table = character_table(g)
    for i, chi in enumerate(table.irreducibles):
        dec = restrict_and_decompose(chi, g, g)
        assert dec.subgroup_table is table
        want = np.zeros(table.n_classes, dtype=np.int64)
        want[i] = 1
        assert np.array_equal(dec.multiplicities, want)


def test_restrict_trivial_character():
    g = PermGroup.alternating(5)
    table = compute_table(g)
    triv_idx = next(i for i, chi in enumerate(table.irreducibles)
                    if np.abs(chi.values - 1).max() < 1e-9)
    h = g.stabilizer(0)
    dec = restrict_and_decompose(table.irreducibles[triv_idx], g, h)
    assert sum(m for _, m in dec.nonzero()) == 1
    i, _ = dec.nonzero()[0]
    assert np.abs(dec.subgroup_table.irreducibles[i].values - 1).max() < 1e-9


def test_class_fusion_covers_h_classes():
    g = make_pgl2(7)
    h = g.stabilizer(7)
    fusion = class_fusion(g, h)
    hcc = h.conjugacy_classes()
    gcc = g.conjugacy_classes()
    assert len(fusion) == hcc.n_classes
    # fused class must contain elements of the same order
    assert np.array_equal(gcc.orders[fusion], hcc.orders)
    # the batched lookup agrees with one membership lookup per H-class rep
    want = [gcc.class_of[g.index_of(rep)] for rep in hcc.reps]
    assert fusion.dtype == np.int64 and fusion.tolist() == want


def test_class_fusion_refuses_a_non_subgroup():
    # S4 = S5_stab4 holds odd permutations, which A5 does not
    with pytest.raises(PermError):
        class_fusion(PermGroup.alternating(5),
                     PermGroup.symmetric(5).stabilizer(4))


def test_trivial_group_table():
    table = compute_table(PermGroup.trivial(3))
    assert table.n_classes == 1
    assert table.irreducibles[0].values[0] == pytest.approx(1.0)


# -------------------------------------------------------------- identities


def test_identities_s4_all_pairs():
    g = PermGroup.symmetric(4)
    report = character_identities(compute_table(g), g)
    assert report.max_residual < 1e-9
    assert report.pairs_checked == 25


def test_identities_c2_exact():
    g = PermGroup.generated([Permutation.from_cycles(2, [[0, 1]])], name="C2")
    report = character_identities(compute_table(g), g)
    assert report.max_residual < 1e-12


def test_identity_pair_value():
    # twisted sum with h1 = h2 = identity collapses to |G| * chi(1)
    g = PermGroup.alternating(4)
    table = compute_table(g)
    cc = g.conjugacy_classes()
    x = table.matrix()
    total = np.zeros(table.n_classes, dtype=complex)
    for i in range(g.order):
        gi = g.element(i)
        w = gi * gi.inverse()        # e g e g^-1
        total += x[:, cc.class_of[g.index_of(w)]]
    assert np.allclose(total, g.order * table.degrees())


def test_identities_fail_on_corrupt_table():
    g = PermGroup.symmetric(4)
    table = compute_table(g)
    table.irreducibles[3].values[2] += 0.05
    assert character_identities(table, g).max_residual > TOL.integer


# ------------------------------------------------ Frobenius-Schur indicator


def test_square_classes_match_brute_force():
    for g in (PermGroup.symmetric(5), make_psl2(7), quaternion_group()):
        cc = g.conjugacy_classes()
        for k, i in enumerate(cc.rep_index):
            x = g.element(int(i))
            assert cc.square[k] == cc.class_of[g.index_of(x * x)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_symmetric_group_character_is_of_real_type(n):
    t = character_table(PermGroup.symmetric(n))
    assert [t.indicator(i) for i in range(t.n_classes)] == [1] * t.n_classes


@pytest.mark.parametrize("make, want", [
    (lambda: PermGroup.alternating(4), [0, 0, 1, 1]),
    (quaternion_group, [1, 1, 1, 1, -1])], ids=["a4", "q8"])
def test_indicators_in_table_order(make, want):
    # A4's two non-real linear characters come first; Q8's 2-dimensional
    # character is real-valued with no real form (quaternionic)
    t = character_table(make())
    assert [t.indicator(i) for i in range(t.n_classes)] == want


def test_the_complex_pair_of_psl2_7_has_indicator_zero():
    t = character_table(make_psl2(7))
    got = {i: t.indicator(i) for i in range(t.n_classes)}
    pair = [i for i, d in enumerate(t.degrees()) if d == 3]
    assert len(pair) == 2 and [got[i] for i in pair] == [0, 0]
    assert all(got[i] == 1 for i in got if i not in pair)


@pytest.mark.parametrize("corrupt", [
    lambda v: 2 * v,                            # an indicator of 2
    lambda v: v + np.eye(1, len(v))[0] * 0.3,   # chi(1) moved: off-integer
], ids=["doubled", "off-integer"])
def test_a_corrupted_row_trips_the_indicator_gate(corrupt):
    table = compute_table(PermGroup.symmetric(4))
    assert table.indicator(2) == 1
    table.irreducibles[2].values = corrupt(table.irreducibles[2].values)
    with pytest.raises(CharacterError,
                       match="Frobenius-Schur indicator .* of row 2 is not"):
        table.indicator(2)
