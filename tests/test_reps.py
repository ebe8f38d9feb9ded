"""Representation construction: Young forms, carriers, extraction, Sp(6, 2)'s
equiangular lines."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasspack import config, reps, symplectic as sp
from grasspack.characters import character_table, decompose, inner_product
from grasspack.codes import CodeError, IsotypicContext
from grasspack.catalog import data_path
from grasspack.permgroup import (NotEnumerated, PermError, PermGroup,
                                 Permutation, load_group, make_pgl2,
                                 make_psl2)
from grasspack.symplectic import SymplecticError
from grasspack.reps import (CarrierBudgetError, ExtractionError, Partition,
                            PermTensorCarrier, RepError, branching,
                            extract_irrep, find_carrier,
                            hook_dimension, standard_tableaux,
                            young_orthogonal_rep)
from reference import (image_of_index, isotypic_projector, kron_power,
                       perm_rep, quaternion_group)

# ---------------------------------------------------------------- oracles


def all_partitions(n, maxp=None):
    maxp = maxp or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxp), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def dim_by_branching(parts, memo=None):
    """Independent dimension count: recursion over corner removals."""
    memo = memo if memo is not None else {}
    if not parts:
        return 1
    if parts in memo:
        return memo[parts]
    total = 0
    for i, row in enumerate(parts):
        if i == len(parts) - 1 or parts[i + 1] < row:
            rest = tuple(x for x in parts[:i] + (row - 1,) + parts[i + 1:] if x)
            total += dim_by_branching(rest, memo)
    memo[parts] = total
    return total


PARTITIONS = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True))))


# ------------------------------------------------------ partitions, hooks


def test_hook_dimension_small():
    # frozen from the corner-removal recursion oracle
    assert dim_by_branching((4, 1)) == 4
    assert hook_dimension(Partition((4, 1))) == 4
    assert hook_dimension(Partition((2, 1))) == 2
    assert hook_dimension(Partition((5,))) == 1
    assert hook_dimension(Partition((1, 1, 1))) == 1


def test_hook_dimension_642():
    assert dim_by_branching((6, 4, 2)) == 2673
    assert hook_dimension(Partition((6, 4, 2))) == 2673
    dims = sorted(hook_dimension(mu) for mu in branching(Partition((6, 4, 2))))
    assert dims == [693, 990, 990]


@given(PARTITIONS)
def test_hook_matches_branching_recursion(lam):
    assert hook_dimension(lam) == dim_by_branching(lam.parts)


@given(PARTITIONS)
def test_branching_dimension_sum(lam):
    assert hook_dimension(lam) == sum(hook_dimension(mu)
                                      for mu in branching(lam))


@given(PARTITIONS)
def test_conjugate_involution_same_dimension(lam):
    assert lam.conjugate().conjugate() == lam
    assert hook_dimension(lam.conjugate()) == hook_dimension(lam)


def test_dimension_squares_sum_to_factorial():
    for n in (4, 5, 6, 7, 8):
        total = sum(hook_dimension(Partition(p)) ** 2
                    for p in all_partitions(n))
        assert total == math.factorial(n)


def test_standard_tableaux_count_and_validity():
    lam = Partition((3, 2))
    tabs = standard_tableaux(lam)
    assert len(tabs) == hook_dimension(lam) == 5
    for t in tabs:
        flat = sorted(x for row in t for x in row)
        assert flat == [1, 2, 3, 4, 5]
        for row in t:
            assert list(row) == sorted(row)
        for j in range(2):
            assert t[0][j] < t[1][j]


def test_partition_parse():
    assert Partition.parse("[6,4,2]").parts == (6, 4, 2)
    assert Partition.parse("3 1 1").parts == (3, 1, 1)
    assert Partition.parse(" [3, 1] ").parts == (3, 1)
    with pytest.raises(Exception):
        Partition.parse("[1,3]")
    for bad in ("3,,1", "[3,1", "3,1]", ",3", "3,1,", "[", "3 1,1"):
        with pytest.raises(RepError):
            Partition.parse(bad)


# ------------------------------------------------------------- Young form


def test_young_orthogonal_s3_explicit():
    # the two tableaux of [2,1] give the textbook 2x2 matrices
    rep = young_orthogonal_rep(PermGroup.symmetric(3), Partition((2, 1)))
    s0 = rep.image(Permutation.from_cycles(3, [(0, 1)]))
    s1 = rep.image(Permutation.from_cycles(3, [(1, 2)]))
    assert np.allclose(s0, np.diag([1.0, -1.0]))
    assert np.allclose(s1, np.array([[-0.5, np.sqrt(3) / 2],
                                     [np.sqrt(3) / 2, 0.5]]))


@settings(deadline=None, max_examples=20)
@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_young_rep_is_homomorphism(pa, pb):
    g = PermGroup.symmetric(5)
    rep = young_orthogonal_rep(g, Partition((3, 1, 1)))
    a, b = Permutation(np.array(pa)), Permutation(np.array(pb))
    assert np.allclose(rep.image(a) @ rep.image(b), rep.image(a * b),
                       atol=1e-12)


def test_young_rep_unitary_and_irreducible():
    g = PermGroup.symmetric(6)
    for parts in [(4, 2), (3, 2, 1), (2, 2, 1, 1)]:
        rep = young_orthogonal_rep(g, Partition(parts))
        assert rep.dim == hook_dimension(Partition(parts))
        rep.check_unitary_homomorphism(n_pairs=25)
        ch = rep.character()
        assert abs(inner_product(ch, ch) - 1) < 1e-9


def test_young_rep_budget():
    # S12 from its generators only: the budget refuses before any closure
    s12 = PermGroup.deferred([Permutation.from_cycles(12, [[0, 1]]),
                              Permutation.from_cycles(12, [list(range(12))])],
                             name="S12")
    with pytest.raises(CarrierBudgetError):
        young_orthogonal_rep(s12, Partition((6, 3, 2, 1)))    # dim 5632
    assert not s12.is_enumerated


def test_young_rep_wrong_size():
    with pytest.raises(Exception):
        young_orthogonal_rep(PermGroup.symmetric(5), Partition((3, 1)))


# ------------------------------------------------------ carriers, tensors


def test_carrier_agrees_with_dense_tensor():
    g = PermGroup.symmetric(4)
    dense = kron_power(perm_rep(g), 2)
    carrier = PermTensorCarrier(g, 2)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16)
    for gi in range(len(g.generators)):
        assert np.allclose(carrier.apply_gen(gi, v), dense.gen_images[gi] @ v)
        columns = [carrier.apply_gen(gi, e) for e in np.eye(carrier.dim)]
        assert np.allclose(np.array(columns).T, dense.gen_images[gi])
    cd = carrier.character().values
    cv = dense.character().values
    assert np.allclose(cd, cv)


def test_carrier_character_is_fix_power():
    g = PermGroup.symmetric(5)
    cc = g.conjugacy_classes()
    fix = np.array([(rep.images == np.arange(5)).sum() for rep in cc.reps])
    c3 = PermTensorCarrier(g, 3)
    assert np.allclose(c3.character().values, fix.astype(float) ** 3)


def test_carrier_budget():
    with pytest.raises(CarrierBudgetError):
        PermTensorCarrier(PermGroup.symmetric(8), 6)


# ----------------------------------------------------- isotypic projector


@pytest.fixture(scope="module")
def irreducible_contexts():
    """Contexts of two irreducibles whose restriction to H = G_p has three
    components: Young [3,2,1] of S6 (degrees 5, 5, 6) and the extracted
    six-dimensional irreducible of PGL2(5) (degrees 1, 1, 4)."""
    s6 = PermGroup.symmetric(6)
    out = [IsotypicContext(s6, s6.stabilizer(5),
                           young_orthogonal_rep(s6, Partition((3, 2, 1))))]
    g = make_pgl2(5)
    t = character_table(g)
    six = next(i for i, d in enumerate(t.degrees()) if d == 6)
    carrier = find_carrier(g, six)
    rho = extract_irrep(carrier, six)
    out.append(IsotypicContext(g, g.stabilizer(0), rho))
    return out


def present(ctx):
    return [i for i, _ in ctx.decomposition.nonzero()]


def test_projector_invariants(irreducible_contexts):
    for ctx in irreducible_contexts:
        chars = present(ctx)
        assert len(chars) == 3
        total = np.zeros((ctx.rho.dim, ctx.rho.dim), dtype=complex)
        for i in chars:
            pi, m = ctx.subspace([i])
            p = pi.projector
            assert np.abs(p - p.conj().T).max() < 1e-9
            assert np.abs(p @ p - p).max() < 1e-9
            assert abs(np.trace(p) - m) < 1e-9 and m == ctx.dimension([i])
            for img in ctx.rho_h.gen_images:
                assert np.abs(p @ img - img @ p).max() < 1e-9
            total += p
        assert np.abs(total - np.eye(ctx.rho.dim)).max() < 1e-9


def test_projector_pair_subset(irreducible_contexts):
    for ctx in irreducible_contexts:
        a, b, _ = present(ctx)
        both, m = ctx.subspace([a, b])
        single = [ctx.subspace([i])[0].projector for i in (a, b)]
        assert m == ctx.dimension([a]) + ctx.dimension([b])
        assert np.abs(both.projector - sum(single)).max() < 1e-9


def test_projector_orthogonality_between_components(irreducible_contexts):
    for ctx in irreducible_contexts:
        projectors = [ctx.subspace([i])[0].projector for i in present(ctx)]
        for p0 in projectors:
            for p1 in projectors:
                if p1 is not p0:
                    assert np.abs(p0 @ p1).max() < 1e-9


def test_projector_trace_gate():
    # a decomposition that claims one copy too many: the projector itself
    # is sound, but its trace no longer equals the claimed dimension
    g = PermGroup.symmetric(6)
    ctx = IsotypicContext(g, g.stabilizer(5),
                          young_orthogonal_rep(g, Partition((3, 2, 1))))
    i = present(ctx)[0]
    ctx.decomposition.multiplicities[i] += 1
    assert ctx.dimension([i]) == 10
    with pytest.raises(CodeError, match="projector trace"):
        ctx.subspace([i])
    with pytest.raises(CodeError, match="projector trace"):
        ctx.build([i])


def test_vector_sum_with_non_involutive_generators():
    # the translation generator of PGL2(F5) has order 5; a gather that
    # confused g with g^-1 would only survive involutive generators
    g = make_pgl2(5)
    t = character_table(g)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(t.n_classes) + 1j * rng.standard_normal(t.n_classes)
    rep = perm_rep(g)
    car = PermTensorCarrier(g, 2)
    dense2 = kron_power(rep, 2)
    v2 = rng.standard_normal(car.dim) + 1j * rng.standard_normal(car.dim)
    got = car.weighted_vector_sum(w, v2)
    sums2 = dense2.class_sums(range(t.n_classes))
    assert np.abs(np.tensordot(w, sums2, axes=1) @ v2 - got).max() < 1e-10


def _unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


@pytest.mark.parametrize("make", [lambda: make_pgl2(5),
                                  lambda: PermGroup.alternating(5)],
                         ids=["pgl2_5", "a5"])
def test_row_gather_sums_match_brute_force(make):
    # every group-wide sum, against a plain sum over image_of_index(rep, i)
    # for all i; PGL2(5)'s translation generator has order 5, so a sum that
    # gathered by g where it needed g^-1 would fail here
    g = make()
    t = character_table(g)
    cls = g.conjugacy_classes().class_of
    rng = np.random.default_rng(5)
    base = perm_rep(g)
    u = _unitary(base.dim, rng)
    rep = reps.UnitaryRep(g, [u @ m @ u.conj().T for m in base.gen_images])
    images = [image_of_index(rep, i) for i in range(g.order)]
    want = np.zeros((t.n_classes, rep.dim, rep.dim), dtype=complex)
    for i, img in enumerate(images):
        want[cls[i]] += img
    assert np.abs(rep.class_sums(range(t.n_classes)) - want).max() < 1e-10

    w = rng.standard_normal(t.n_classes) + 1j * rng.standard_normal(t.n_classes)
    for k in (1, 2, 3):
        car = PermTensorCarrier(g, k)
        dense = kron_power(base, k)
        images = [image_of_index(dense, i) for i in range(g.order)]
        v = rng.standard_normal(car.dim) + 1j * rng.standard_normal(car.dim)
        want_v = sum(w[cls[i]] * img @ v for i, img in enumerate(images))
        assert np.abs(car.weighted_vector_sum(w, v) - want_v).max() < 1e-10

        # commutant average on the largest isotypic span of the carrier
        mult = decompose(car.character().values, t).multiplicities
        chi = int(np.argmax(mult * t.degrees()))
        evals, evecs = np.linalg.eigh(isotypic_projector(
            dense.class_sums(range(t.n_classes)), t, [chi]))
        b = evecs[:, evals > 0.5]
        x = rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(b.shape[1])
        zs = [b.conj().T @ img @ b @ x for img in images]
        want_t = sum(np.outer(z, z.conj()) for z in zs) / g.order
        assert np.abs(car.commutant_average(b, x) - want_t).max() < 1e-10


@pytest.mark.parametrize("make", [lambda: make_pgl2(5),
                                  lambda: PermGroup.alternating(5)],
                         ids=["pgl2_5", "a5"])
def test_commutant_average_on_a_real_basis_matches_the_dense_sum(make):
    # a real character's isotypic projector is real, so its span has a
    # real orthonormal basis; x is complex, as for a quaternionic split, or
    # real, as for a split of real type, and then so is the average
    g = make()
    t = character_table(g)
    rng = np.random.default_rng(17)
    for k in (1, 2):
        car = PermTensorCarrier(g, k)
        dense = kron_power(perm_rep(g), k)
        images = [image_of_index(dense, i) for i in range(g.order)]
        mult = decompose(car.character().values, t).multiplicities
        chi = int(np.argmax(mult * t.degrees()))
        assert np.abs(t.irreducibles[chi].values.imag).max() < 1e-9
        proj = isotypic_projector(dense.class_sums(range(t.n_classes)), t,
                                  [chi])
        assert np.abs(proj.imag).max() < 1e-12
        evals, evecs = np.linalg.eigh(proj.real)
        b = evecs[:, evals > 0.5]
        assert b.dtype == np.float64
        assert b.shape[1] == mult[chi] * t.degrees()[chi]
        for x in (rng.standard_normal(b.shape[1])
                  + 1j * rng.standard_normal(b.shape[1]),
                  rng.standard_normal(b.shape[1])):
            zs = [b.T @ img @ b @ x for img in images]
            want_t = sum(np.outer(z, z.conj()) for z in zs) / g.order
            got = car.commutant_average(b, x)
            assert got.dtype == np.result_type(float, x)
            assert np.abs(got - want_t).max() < 1e-10


def test_class_sums_across_chunks_match_brute_force(monkeypatch):
    # the 16-dimensional Young form of S6 stacks 64 images per chunk, so its
    # classes of 90, 120 and 144 elements are summed over several chunks;
    # classes come back in the order listed, repeats included
    g = PermGroup.symmetric(6)
    rep = young_orthogonal_rep(g, Partition((3, 2, 1)))
    cc = g.conjugacy_classes()
    monkeypatch.setattr(config, "BLOCK_BYTES",
                        64 * rep.dtype.itemsize * rep.dim ** 2)
    chunk = config.BLOCK_BYTES // (rep.dtype.itemsize * rep.dim ** 2)
    big = int(np.argmax(cc.sizes))
    assert cc.sizes[big] > 2 * chunk
    listed = [big, 0, int(np.argmin(cc.sizes[1:])) + 1, big]
    want = np.zeros((cc.n_classes, rep.dim, rep.dim), dtype=complex)
    for i, c in enumerate(cc.class_of):
        want[c] += image_of_index(rep, i)
    assert np.abs(rep.class_sums(listed) - want[listed]).max() < 1e-10
    assert rep.class_sums([]).shape == (0, rep.dim, rep.dim)


@pytest.fixture(scope="module")
def s8_a8():
    s8 = PermGroup.symmetric(8)
    return s8, PermGroup.alternating(8)


def _brute_class_sum(rep, c):
    members = np.flatnonzero(rep.group.conjugacy_classes().class_of == c)
    return sum(image_of_index(rep, int(i)) for i in members)


def _class_of_order(h, size, order):
    cc = h.conjugacy_classes()
    return int(np.flatnonzero((cc.sizes == size) & (cc.orders == order))[0])


@pytest.mark.parametrize("case", ["s8_transpositions_90", "a8_3cycles_35",
                                  "a8_3cycles_70"])
def test_class_walk_matches_tree_words(s8_a8, case):
    # the conjugation walk against every member's tree-word image
    s8, a8 = s8_a8
    lam, g, size = {"s8_transpositions_90": ((4, 2, 1, 1), s8, 21),
                    "a8_3cycles_35": ((5, 1, 1, 1), a8, 70),
                    "a8_3cycles_70": ((4, 3, 1), a8, 70)}[case]
    rho = reps.restrict_rep(young_orthogonal_rep(s8, Partition(lam)), g)
    h = g.stabilizer(7)
    rep = reps.restrict_rep(rho, h)
    c = _class_of_order(h, size, 2 if g is s8 else 3)
    assert rep.dim == {"s8_transpositions_90": 90, "a8_3cycles_35": 35,
                       "a8_3cycles_70": 70}[case]
    want = _brute_class_sum(rep, c)
    assert np.abs(rep.class_sums([c])[0] - want).max() < 1e-10


def test_class_walk_every_class_of_a_pgl2_stabilizer():
    # PGL2(7)'s stabilizer has generators of order above 2, so a walk that
    # conjugated by s where it needed s^-1 would fail here
    h = make_pgl2(7).stabilizer(7)
    rng = np.random.default_rng(17)
    base = perm_rep(h)
    u = _unitary(base.dim, rng)
    rep = reps.UnitaryRep(h, [u @ m @ u.conj().T for m in base.gen_images])
    n = h.conjugacy_classes().n_classes
    want = np.array([_brute_class_sum(rep, c) for c in range(n)])
    assert np.abs(rep.class_sums(range(n)) - want).max() < 1e-10


def test_class_sums_of_identity_repeats_and_nothing():
    g = PermGroup.symmetric(6)
    rep = young_orthogonal_rep(g, Partition((4, 2)))
    assert np.array_equal(rep.class_sums([0])[0], np.eye(rep.dim))
    sums = rep.class_sums([3, 0, 3, 3])
    want = _brute_class_sum(rep, 3)
    for k in (0, 2, 3):
        assert np.abs(sums[k] - want).max() < 1e-10
    assert np.array_equal(sums[1], np.eye(rep.dim))
    assert rep.class_sums([]).shape == (0, rep.dim, rep.dim)
    trivial = reps.UnitaryRep(PermGroup.trivial(3), [])
    assert np.array_equal(trivial.class_sums([0, 0]), [np.eye(3)] * 2)
    assert trivial.character().values.tolist() == [3]


def test_class_walk_takes_one_word_and_conjugates_the_rest(monkeypatch):
    # per listed class: one tree-word image, at the rep, and |C| - 1 members
    # reached by conjugation, each once
    g = PermGroup.alternating(7)
    rep = young_orthogonal_rep(PermGroup.symmetric(7), Partition((4, 2, 1)))
    rep = reps.restrict_rep(rep, g)
    cc = g.conjugacy_classes()
    words = []
    real = reps.UnitaryRep.image_of_word
    monkeypatch.setattr(reps.UnitaryRep, "image_of_word",
                        lambda self, w: words.append(list(w)) or real(self, w))
    for c in range(cc.n_classes):
        words.clear()
        slabs = list(rep._class_walk(c))
        assert words == [g.tree_word(int(cc.rep_index[c]))]
        assert slabs[0][0].tolist() == [cc.rep_index[c]]
        walked = np.concatenate([idx for idx, _ in slabs])
        assert len(walked) == cc.sizes[c]
        assert np.array_equal(np.sort(walked),
                              np.flatnonzero(cc.class_of == c))
    words.clear()
    rep.class_sums([2, 5, 0])
    assert len(words) == 3


def test_character_is_the_trace_of_tree_word_images(s8_a8):
    # the closure-tree walk forms each rep's image by the same products, in
    # the same order, as its tree word, so the traces agree to the bit
    s8, a8 = s8_a8
    young = young_orthogonal_rep(s8, Partition((5, 2, 1)))
    pgl = make_pgl2(9)
    t = character_table(pgl)
    ten = next(i for i, d in enumerate(t.degrees()) if d == 10)
    carrier = find_carrier(pgl, ten)
    for rep in (young, reps.restrict_rep(young, a8),
                extract_irrep(carrier, ten)):
        cc = rep.group.conjugacy_classes()
        want = [np.trace(image_of_index(rep, int(i))) for i in cc.rep_index]
        assert np.array_equal(rep.character().values, want)


def test_homomorphism_check_can_fail():
    g = make_pgl2(5)
    rng = np.random.default_rng(13)
    base = perm_rep(g)
    u = _unitary(base.dim, rng)
    images = [u @ m @ u.conj().T for m in base.gen_images]
    assert reps.UnitaryRep(g, images).check_unitary_homomorphism() < 1e-12
    bent = [m.copy() for m in images]
    bent[0][0, 0] += 1e-6
    with pytest.raises(reps.RepError):
        reps.UnitaryRep(g, bent).check_unitary_homomorphism()
    swapped = [images[1], images[0]] + images[2:]
    with pytest.raises(reps.RepError):
        reps.UnitaryRep(g, swapped).check_unitary_homomorphism()


def _grow_orbit_basis_by_loops(carrier, seeds, cap):
    """Breadth-first orbit basis by two modified Gram-Schmidt sweeps, one
    basis vector at a time."""
    def residual(vec, basis):
        scale = np.linalg.norm(vec)
        for _ in range(2):
            for b in basis:
                vec = vec - (b.conj() @ vec) * b
        norm = np.linalg.norm(vec)
        return None if norm <= 1e-8 * max(scale, 1.0) else vec / norm

    basis, queue = [], []
    for s in seeds:
        vec = residual(s, basis)
        if vec is not None:
            basis.append(vec)
            queue.append(vec)
    while queue and len(basis) < cap:
        v = queue.pop(0)
        for gi in range(len(carrier.group.generators)):
            w = residual(carrier.apply_gen(gi, v), basis)
            if w is not None:
                basis.append(w)
                queue.append(w)
                if len(basis) >= cap:
                    break
    return np.array(basis)


def test_grow_orbit_basis_is_orthonormal_and_spans_the_orbit():
    g = make_pgl2(7)
    t = character_table(g)
    rng = np.random.default_rng(17)
    grown = 0
    for chi in range(t.n_classes):
        carrier = find_carrier(g, chi)
        if carrier is None:
            continue
        mu = int(carrier.multiplicities()[chi])
        cap = int(t.degrees()[chi]) * mu + 1
        v = rng.standard_normal(carrier.dim) + 1j * rng.standard_normal(carrier.dim)
        w = carrier.weighted_vector_sum(reps.isotypic_weights(t, [chi]), v)
        seeds = [w / np.linalg.norm(w)]
        got = reps._grow_orbit_basis(carrier, seeds, cap)
        want = _grow_orbit_basis_by_loops(carrier, seeds, cap)
        assert got.shape == want.shape
        assert np.abs(got @ got.conj().T - np.eye(len(got))).max() <= 1e-12
        assert np.abs(got.T @ got.conj() - want.T @ want.conj()).max() <= 1e-10
        grown += 1
    assert grown >= 4


def test_find_carrier_keeps_each_power_on_its_group(monkeypatch):
    g = make_pgl2(5)
    six = next(i for i, d in enumerate(character_table(g).degrees())
               if d == 6)
    carrier = find_carrier(g, six)
    decomposed = []
    decompose_ = reps.decompose
    monkeypatch.setattr(reps, "decompose",
                        lambda *a: decomposed.append(a) or decompose_(*a))
    assert find_carrier(g, six) is carrier
    assert extract_irrep(carrier, six).dim == 6
    assert decomposed == []
    # a group of its own builds and decomposes its own carriers
    assert find_carrier(make_pgl2(5), six) is not carrier
    assert decomposed


def test_extract_from_non_involutive_generators():
    g = make_pgl2(5)
    t = character_table(g)
    i6 = next(i for i, d in enumerate(t.degrees()) if d == 6)
    carrier = find_carrier(g, i6)
    rho = extract_irrep(carrier, i6)
    assert rho.dim == 6
    rho.check_unitary_homomorphism(n_pairs=50)


# ------------------------------------------------------------- extraction


def test_extract_standard_from_perm():
    g = PermGroup.symmetric(5)
    t = character_table(g)
    carrier = PermTensorCarrier(g, 1)
    pc = carrier.character()
    idx = next(i for i, d in enumerate(t.degrees()) if d == 4
               and abs(inner_product(pc, t.irreducibles[i]) - 1) < 1e-9)
    rep = extract_irrep(carrier, idx)
    assert rep.dim == 4
    assert rep.provenance["multiplicity"] == 1
    rep.check_unitary_homomorphism(n_pairs=100, tol=1e-9)


def test_extract_all_reachable_s5():
    g = PermGroup.symmetric(5)
    t = character_table(g)
    degs = list(t.degrees())
    reached = []
    for i in range(t.n_classes):
        carrier = find_carrier(g, i)
        if carrier is None:
            continue
        rep = extract_irrep(carrier, i)
        assert rep.dim == degs[i]
        assert abs(inner_product(rep.character(), t.irreducibles[i]) - 1) < 1e-6
        reached.append(int(degs[i]))
    # the sign character needs a fourth power; everything else is reachable
    assert sorted(reached) == [1, 4, 4, 5, 5, 6]


def test_extract_higher_multiplicity_path():
    g = PermGroup.symmetric(5)
    t = character_table(g)
    c2 = PermTensorCarrier(g, 2)
    idx = next(i for i, d in enumerate(t.degrees())
               if d == 4 and c2.multiplicities()[i] == 3)
    rep = extract_irrep(c2, idx)
    assert rep.dim == 4
    assert rep.provenance["multiplicity"] == 3
    rep.check_unitary_homomorphism(n_pairs=100, tol=1e-9)


def test_extract_missing_character_raises():
    g = PermGroup.symmetric(5)
    t = character_table(g)
    carrier = PermTensorCarrier(g, 1)
    sign = next(i for i in range(t.n_classes)
                if t.degrees()[i] == 1
                and t.irreducibles[i].values.real.min() < -0.5)
    assert carrier.multiplicities()[sign] == 0
    with pytest.raises(ExtractionError, match="does not appear"):
        extract_irrep(carrier, sign)
    assert find_carrier(g, sign) is None


def test_extract_alternating_group():
    # no Young form on A5; the generic path must handle it
    g = PermGroup.alternating(5)
    t = character_table(g)
    built = 0
    for i in range(t.n_classes):
        carrier = find_carrier(g, i)
        if carrier is None:
            continue
        rep = extract_irrep(carrier, i)
        assert abs(inner_product(rep.character(), t.irreducibles[i]) - 1) < 1e-6
        built += 1
    assert built == t.n_classes      # every A5 irreducible is reachable



@pytest.mark.parametrize("make, powers", [
    (lambda: make_pgl2(5), (1, 2, 3)),
    (lambda: PermGroup.alternating(5), (1, 2, 3)),
    (lambda: make_psl2(7), (1, 2))], ids=["pgl2_5", "a5", "psl2_7"])
def test_vector_sum_of_every_point_matches_the_dense_power(make, powers):
    # column r of sum_c w_c M_c, M_c the class sums of the Kronecker power,
    # is the sum applied to e_r: the one-bincount path of a single entry.
    # PSL2(7)'s two classes of order 7 are each other's inverses, so a sum
    # that weighted g by the class of g^-1 would fail there
    g = make()
    t = character_table(g)
    rng = np.random.default_rng(19)
    w = rng.standard_normal(t.n_classes) + 1j * rng.standard_normal(t.n_classes)
    for k in powers:
        car = PermTensorCarrier(g, k)
        dense = kron_power(perm_rep(g), k)
        want = np.tensordot(w, dense.class_sums(range(t.n_classes)), axes=1)
        got = np.column_stack([car.weighted_vector_sum(w, e)
                               for e in np.eye(car.dim)])
        assert np.abs(got - want).max() < 1e-12, k


def test_orbit_points_are_the_least_points_of_the_orbits_on_tuples():
    # PSL2(7) on 8 points is 2- but not 3-transitive: the triples fall into
    # the diagonal, three patterns with one repeat and two orbits of
    # distinct triples; each orbit's least flat index, from G's rows
    g = make_psl2(7)
    car = PermTensorCarrier(g, 3)
    tuples = np.stack(np.unravel_index(np.arange(car.dim), (8,) * 3), axis=1)
    least = np.full(car.dim, car.dim)
    for row in g.rows.astype(np.int64):
        moved = row[tuples]
        least = np.minimum(least, (moved[:, 0] * 8 + moved[:, 1]) * 8
                           + moved[:, 2])
    want = np.unique(least)
    assert len(want) == 6
    assert np.array_equal(car.orbit_points(), want)


@pytest.mark.parametrize("make", [lambda: make_pgl2(7), lambda: make_psl2(9)],
                         ids=["pgl2_7", "psl2_9"])
def test_every_character_is_extracted_from_every_carrier_holding_it(make):
    # the point seeds span the whole isotypic component at once, so every
    # extraction passes the exact rank check without a retry
    g = make()
    t = character_table(g)
    powers, reached = [], set()
    for carrier in (PermTensorCarrier(g, k) for k in (1, 2, 3)):
        powers.append(carrier.k)
        mult = carrier.multiplicities()
        for i in np.flatnonzero(mult):
            rep = extract_irrep(carrier, int(i), seed=7)
            assert rep.dim == t.degrees()[i]
            assert rep.provenance["multiplicity"] == mult[i]
            assert rep.provenance["seed"] == 7
            reached.add(int(i))
    # the cube holds every irreducible of both groups
    assert powers == [1, 2, 3] and len(reached) == t.n_classes


def _without_off_diagonal_seed(monkeypatch):
    points = PermTensorCarrier.orbit_points

    def dropped(self):
        # keep the points whose k-tuple repeats one point: the diagonal
        flat = points(self)
        coords = np.unravel_index(flat, (self.group.degree,) * self.k)
        return flat[np.all(np.equal(coords, coords[0]), axis=0)]
    monkeypatch.setattr(PermTensorCarrier, "orbit_points", dropped)


def _psl2_7(degree):
    """extract_irrep's arguments for PSL2(7)'s character of `degree`."""
    g = make_psl2(7)
    i = next(i for i, d in enumerate(character_table(g).degrees())
             if d == degree)
    return find_carrier(g, i), i


def _multiplicity(carrier, i):
    return int(carrier.multiplicities()[i])


def test_a_missing_seed_orbit_fails_the_rank_check(monkeypatch):
    # the degree-(q-1) character lies twice in the module on distinct pairs
    # and not at all in the diagonal of the square, the natural module
    # 1 + 7: the diagonal's projection alone spans nothing
    args = _psl2_7(6)
    assert (args[0].k, _multiplicity(*args)) == (2, 2)
    extract_irrep(*args)
    _without_off_diagonal_seed(monkeypatch)
    with pytest.raises(ExtractionError,
                       match="isotypic basis has rank 0, expected 12"):
        extract_irrep(*args)


def test_extraction_grows_the_isotypic_basis_once(monkeypatch):
    grown, checked = [], []
    grow = reps._grow_orbit_basis
    monkeypatch.setattr(reps, "_grow_orbit_basis",
                        lambda *a: grown.append(1) or grow(*a))

    def refuse(*a):
        checked.append(1)
        raise ExtractionError("invariance residual refused")
    monkeypatch.setattr(reps, "_check_extracted", refuse)
    # multiplicity one: nothing random to retry, so the failure is final
    seven = _psl2_7(7)
    assert _multiplicity(*seven) == 1
    with pytest.raises(ExtractionError, match="invariance residual refused"):
        extract_irrep(*seven)
    assert len(grown) == len(checked) == 1
    # multiplicity two retries only the commutant split, on one basis
    grown.clear()
    checked.clear()
    with pytest.raises(ExtractionError, match="failed after 5 seeds"):
        extract_irrep(*_psl2_7(6))
    assert len(grown) == 1 and len(checked) == reps.config.SEED_TRIES == 5
    # and a rank failure is final before any split
    _without_off_diagonal_seed(monkeypatch)
    grown.clear()
    checked.clear()
    with pytest.raises(ExtractionError, match="isotypic basis has rank"):
        extract_irrep(*_psl2_7(6))
    assert len(grown) == 1 and not checked

#: table rows of A_n holding the two halves of each self-conjugate shape,
#: in the order the tower's alternating lane builds them
HALF_ROWS = {(2, 2): [0, 1], (3, 1, 1): [1, 2], (3, 2, 1): [3, 4],
             (4, 1, 1, 1): [2, 3], (3, 3, 2): [4, 5], (4, 2, 1, 1): [9, 10]}


@pytest.mark.parametrize("parts", list(HALF_ROWS), ids=str)
def test_associator_splits_self_conjugate_shapes(parts):
    lam = Partition(parts)
    j = reps.young_associator(lam)
    # S_n's first generator is the transposition (0 1): an odd element
    transposition = young_orthogonal_rep(PermGroup.symmetric(lam.n),
                                         lam).gen_images[0]
    assert np.abs(j @ transposition + transposition @ j).max() <= 1e-15
    square = j @ j
    assert abs(square[0, 0]) == 1
    assert np.array_equal(square, square[0, 0] * np.eye(len(j)))   # +-I
    ga = PermGroup.alternating(lam.n)
    t = character_table(ga)
    halves = reps.alternating_halves(young_orthogonal_rep(ga, lam), lam)
    assert [h.provenance["character_index"] for h in halves] == HALF_ROWS[parts]
    for h, row in zip(halves, HALF_ROWS[parts]):
        assert h.dim == len(j) // 2
        assert h.provenance["invariance_residual"] <= reps.TOL.ortho
        assert abs(inner_product(h.character(), h.character()) - 1) < 1e-9
        assert np.abs(h.character().values
                      - t.irreducibles[row].values).max() < 1e-9


@pytest.mark.parametrize("parts, dtype", [
    ((3, 1, 1), np.float64), ((3, 2, 1), np.float64),
    ((4, 2, 1, 1), np.complex128)], ids=str)
def test_alternating_halves_keep_real_data_real(monkeypatch, parts, dtype):
    # c = +-1 when J^2 = I, so the basis is real; only J^2 = -I (A8's
    # [4,2,1,1]) needs c = -+i and a complex basis
    bases = []
    check = reps._check_extracted
    monkeypatch.setattr(reps, "_check_extracted",
                        lambda src, b, *a: bases.append(b)
                        or check(src, b, *a))
    lam = Partition(parts)
    ga = PermGroup.alternating(lam.n)
    halves = reps.alternating_halves(young_orthogonal_rep(ga, lam), lam)
    assert [b.dtype for b in bases] == [dtype, dtype]
    assert all(h.dtype == np.float64 for h in halves) == (dtype == np.float64)


def test_associator_needs_a_self_conjugate_shape():
    with pytest.raises(RepError, match="not self-conjugate"):
        reps.young_associator(Partition((3, 1)))


def test_invariance_gate_refuses_a_perturbed_basis():
    # the sum-zero vectors of the natural module of S5 span the standard
    # representation; a basis of them moved by 1e-6 spans no invariant one
    g = PermGroup.symmetric(5)
    carrier = PermTensorCarrier(g, 1)
    basis, _ = np.linalg.qr(np.eye(5)[:, :4] - 1 / 5)
    rep = reps._check_extracted(carrier, basis, "std", {"seed": 0})
    assert rep.dim == 4 and rep.provenance["seed"] == 0
    assert rep.provenance["invariance_residual"] <= 1e-14
    rep.check_unitary_homomorphism(n_pairs=25)
    bent = basis + 1e-6 * np.random.default_rng(2).standard_normal(basis.shape)
    with pytest.raises(ExtractionError,
                       match=r"invariance residual [0-9.]+e-0[67] above"):
        reps._check_extracted(carrier, bent, "std", {})


def test_extraction_records_its_invariance_residual():
    g = make_pgl2(7)
    t = character_table(g)
    for i in range(t.n_classes):
        carrier = find_carrier(g, i)
        if carrier is not None:
            rep = extract_irrep(carrier, i)
            assert 0 <= rep.provenance["invariance_residual"] <= reps.TOL.ortho


def test_restrict_rep_matches_parent():
    g = PermGroup.symmetric(5)
    h = g.stabilizer(4)
    rep = young_orthogonal_rep(g, Partition((3, 2)))
    r = reps.restrict_rep(rep, h)
    for hg, img in zip(h.generators, r.gen_images):
        assert np.allclose(img, rep.image(hg))
    r.check_unitary_homomorphism(n_pairs=25)


# ------------------------------------------------------- real and complex


def _assert_real(rep, n_classes):
    assert rep.dtype == np.float64
    assert all(m.dtype == np.float64 for m in rep.gen_images)
    assert rep.class_sums(range(n_classes)).dtype == np.float64
    assert not rep.character().values.imag.any()


def test_real_representations_stay_real():
    g = PermGroup.symmetric(5)
    t = character_table(g)
    _assert_real(young_orthogonal_rep(g, Partition((3, 2))), t.n_classes)
    # an extraction of a real character: the standard 4 in the natural
    # module, at multiplicity one
    carrier = PermTensorCarrier(g, 1)
    mult = carrier.multiplicities()
    four = next(i for i, d in enumerate(t.degrees()) if d == 4 and mult[i])
    rho = extract_irrep(carrier, four)
    _assert_real(rho, t.n_classes)
    assert np.abs(rho.character().values
                  - t.irreducibles[four].values).max() < 1e-9
    # complex images with no imaginary part are real too
    assert reps.UnitaryRep(g, [m.astype(complex)
                               for m in rho.gen_images]).dtype == np.float64


@pytest.mark.parametrize("q, degree", [(7, 3), (11, 5)])
def test_complex_characters_extract_in_complex_arithmetic(q, degree):
    # PSL2(q), q = 3 mod 4, has a complex-conjugate pair of degree
    # (q - 1) / 2, each once in the square of the natural module
    g = make_psl2(q)
    t = character_table(g)
    rows = [i for i, d in enumerate(t.degrees()) if d == degree]
    assert len(rows) == 2
    for i in rows:
        chi = t.irreducibles[i].values
        assert np.abs(chi.imag).max() > 1
        carrier = find_carrier(g, i)
        assert carrier.name == f"perm{q + 1}^x2"
        assert carrier.multiplicities()[i] == 1
        rho = extract_irrep(carrier, i)
        assert rho.dtype == np.complex128
        assert all(m.dtype == np.complex128 for m in rho.gen_images)
        assert np.abs(rho.character().values - chi).max() < 1e-9


def test_real_weights_on_a_complex_character_fail_the_rank_check(monkeypatch):
    # real weights project on chi + conj(chi): twice the rank, refused by
    # the exact isotypic rank check before any copy is formed
    args = _psl2_7(3)
    chi = character_table(args[0].group).irreducibles[args[1]]
    assert np.abs(chi.values.imag).max() > 1
    extract_irrep(*args)
    weights = reps.isotypic_weights
    monkeypatch.setattr(reps, "isotypic_weights",
                        lambda *a: weights(*a).real)
    with pytest.raises(ExtractionError,
                       match="isotypic basis has rank 4, expected 3"):
        extract_irrep(*args)


@pytest.mark.parametrize("make, degree", [
    (lambda: make_psl2(7), 6), (lambda: make_psl2(13), 12)],
    ids=["psl2_7", "psl2_13"])
def test_copies_of_real_type_extract_in_real_arithmetic(make, degree):
    # indicator +1 at multiplicity 2: the commutant split draws a real x,
    # so the copy, its images and its class sums are float64
    g = make()
    t = character_table(g)
    i = next(i for i, d in enumerate(t.degrees()) if d == degree)
    carrier = find_carrier(g, i)
    assert _multiplicity(carrier, i) == 2 and t.indicator(i) == 1
    rho = extract_irrep(carrier, i)
    _assert_real(rho, t.n_classes)
    assert rho.provenance["indicator"] == 1
    assert np.abs(rho.character().values
                  - t.irreducibles[i].values).max() < 1e-9


def _q8_two():
    """Q8's regular action and the row of its 2-dimensional character."""
    g = quaternion_group()
    return g, int(np.argmax(character_table(g).degrees()))


def test_a_quaternionic_irreducible_extracts(monkeypatch):
    # Q8's 2-dimensional character lies twice in its regular action and has
    # no real form: the copy must still come out, pass the invariance gate
    # and carry its character
    g, i = _q8_two()
    carrier = find_carrier(g, i)
    assert (carrier.k, _multiplicity(carrier, i)) == (1, 2)
    checked = []
    check = reps._check_extracted
    monkeypatch.setattr(reps, "_check_extracted",
                        lambda *a: checked.append(check(*a)) or checked[-1])
    rho = extract_irrep(carrier, i)
    assert checked == [rho] and rho.dim == 2
    assert rho.dtype == np.complex128
    assert rho.provenance["invariance_residual"] <= reps.TOL.ortho
    assert np.abs(rho.character().values - character_table(g)
                  .irreducibles[i].values).max() < 1e-9


def test_a_quaternionic_split_needs_a_complex_x():
    # indicator -1: the weights are real, so the isotypic basis is, but a
    # real symmetric commutant average there has only clusters of size 4
    g, i = _q8_two()
    t = character_table(g)
    assert t.indicator(i) == -1
    carrier = find_carrier(g, i)
    assert extract_irrep(carrier, i).provenance["indicator"] == -1
    full = reps._isotypic_basis(carrier, reps.isotypic_weights(t, [i]).real,
                                4)
    assert full.dtype == np.float64
    with pytest.raises(ExtractionError,
                       match="no eigenvalue cluster of size 2"):
        reps._commutant_copy(carrier, full, 2, np.random.default_rng(1),
                             real=True)
    assert reps._commutant_copy(carrier, full, 2, np.random.default_rng(1),
                                real=False).dtype == np.complex128


def test_a_kept_carrier_finds_its_orbit_points_once(monkeypatch):
    # extraction seeds from the carrier's orbit points; they are found when
    # the carrier is built and kept on it, so every copy find_carrier hands
    # out has them, including one made after the last was dropped
    found = []
    orbits = reps.orbits
    monkeypatch.setattr(reps, "orbits", lambda *a: found.append(a[1])
                        or orbits(*a))
    g = make_psl2(7)
    i = next(i for i, d in enumerate(character_table(g).degrees()) if d == 6)
    carrier = find_carrier(g, i)
    assert found == [8, 64]                   # the two powers built
    extract_irrep(carrier, i)
    extract_irrep(carrier, i, seed=5)
    del carrier
    assert not g._held_carriers
    extract_irrep(find_carrier(g, i), i)
    assert found == [8, 64]


def _young_s5():
    g = PermGroup.symmetric(5)
    return g, young_orthogonal_rep(g, Partition((3, 1, 1)))


def _extracted_pgl2_7():
    g = make_pgl2(7)
    t = character_table(g)
    i = int(np.argmax(t.degrees()))
    carrier = find_carrier(g, i)
    return g, extract_irrep(carrier, i)


def _table_free_rotation():
    g = load_group(data_path("sp6_2_deg28.grp"), cap=1)
    assert not g.is_enumerated
    return g, reps.symplectic_rotation_rep(g)


@pytest.mark.parametrize("make", [_young_s5, _extracted_pgl2_7,
                                  _table_free_rotation],
                         ids=["young_s5", "extracted_pgl2_7",
                              "table_free_sp6_2"])
def test_transversal_images_are_the_coset_reps_images(make):
    g, rho = make()
    h = g.stabilizer(0)
    ctx = IsotypicContext(g, h, rho)
    t = g.coset_transversal(h)
    assert len(ctx.t_images) == ctx.n_cosets == t.count
    assert ctx.t_images.dtype == rho.dtype
    for k, row in enumerate(t.rep_rows):
        assert np.abs(ctx.t_images[k]
                      - rho.image(Permutation(row))).max() < 1e-12, k


# ------------------------------------------------- Sp(6, 2) on 28 lines


def _line_vectors():
    """S over the 28 minus-type labels, S[a, b] = -(-1)^B(a, b) and
    S[a, a] = 0, its eigenvalues, and the 28 line vectors: the rows of 2U,
    U the orthonormal columns of S's 9-eigenspace."""
    _, minus = sp.form_orbits(3)
    s = np.array([[0.0 if a == b else -(-1.0) ** sp.bform(int(a), int(b), 3)
                   for b in minus] for a in minus])
    evals, evecs = np.linalg.eigh(s)
    return s, evals, 2 * evecs[:, -7:]


def _assert_rotation_permutes_the_lines(g, line_perms):
    """Each generator image is a rotation of order the generator's and sends
    line a to +- line pi(a), pi the generator's permutation of the
    minus-type forms.  The lines span R^7 and only +-I fixes them all, so
    the rotation lifting each line permutation is unique: this proves the
    homomorphism on all of G without enumerating it."""
    rep = reps.symplectic_rotation_rep(g)
    assert not g.is_enumerated
    assert rep.dim == 7
    lines = _line_vectors()[2]
    for p, img, pi in zip(g.generators, rep.gen_images, line_perms):
        assert abs(np.linalg.det(img) - 1) < 1e-9
        assert np.abs(img @ img.conj().T - np.eye(7)).max() < 1e-12
        k = p.order()
        assert np.abs(np.linalg.matrix_power(img, k) - np.eye(7)).max() < 1e-9
        moved = lines @ img.T                          # row a: img line_a
        signs = np.einsum("ij,ij->i", moved, lines[pi])
        assert np.abs(np.abs(signs) - 1).max() < 1e-12
        assert np.abs(moved - signs[:, None] * lines[pi]).max() < 1e-12


def test_rotation_rep_of_minus_orbit_action():
    g = load_group(data_path("sp6_2_deg28.grp"), cap=1)
    _assert_rotation_permutes_the_lines(g, [p.images for p in g.generators])


def test_rotation_rep_of_plus_orbit_action():
    g = load_group(data_path("sp6_2_deg36.grp"), cap=1)
    plus, minus = sp.form_orbits(3)
    maps = [sp.cols_from_orbit_perm(p.images, plus, 3)[0]
            for p in g.generators]
    _assert_rotation_permutes_the_lines(
        g, sp.induced_generators(maps, 3, minus))


def test_rotation_lines_are_equiangular():
    s, evals, lines = _line_vectors()
    assert lines.shape == (28, 7)
    assert np.abs(np.linalg.norm(lines, axis=1) - 1).max() < 1e-12
    cos = lines @ lines.T
    assert np.abs(cos - (np.eye(28) + s / 3)).max() < 1e-12
    off = ~np.eye(28, dtype=bool)
    assert np.abs(np.abs(cos[off]) - 1 / 3).max() < 1e-12
    assert np.linalg.matrix_rank(lines) == 7
    assert np.abs(evals - np.repeat([-3.0, 9.0], [21, 7])).max() < 1e-12


def test_rotation_gate_refuses_a_non_automorphism(monkeypatch):
    # swapping two lines and fixing the rest preserves no sign pattern of S
    swap = np.arange(28, dtype=np.int16)
    swap[[0, 1]] = [1, 0]
    monkeypatch.setattr(sp, "induced_generators",
                        lambda maps, m, orbit: [swap for _ in maps])
    g = load_group(data_path("sp6_2_deg28.grp"), cap=1)
    with pytest.raises(RepError, match="does not preserve the lines"):
        reps.symplectic_rotation_rep(g)


def test_rotation_rep_rejects_other_degrees():
    with pytest.raises(reps.RepError):
        reps.symplectic_rotation_rep(PermGroup.symmetric(5))


def test_rotation_rep_rejects_a_non_symplectic_action():
    # right degree, but a 28-cycle moves the form labels non-affinely
    with pytest.raises(SymplecticError, match="not affine"):
        reps.symplectic_rotation_rep(PermGroup.cyclic(28))


# ----------------------------------------------------------- words


def test_image_without_a_known_word_raises():
    g = PermGroup.symmetric(5)
    free = PermGroup.deferred(g.generators, name="S5", degree=5)
    rep = perm_rep(free)
    x = Permutation.from_cycles(5, [[0, 1, 2]])
    with pytest.raises(NotEnumerated):
        rep.image(x)
    free.stabilizer(0)
    want = perm_rep(g).image(x)
    assert np.array_equal(rep.image(x), want)
    y = free.generators[0]
    assert np.allclose(rep.image_of_word([~0]), perm_rep(g).image(y.inverse()))
    with pytest.raises(PermError):
        rep.image(Permutation.from_cycles(6, [[0, 5]]))


def test_commutant_counts_the_constituents():
    g = PermGroup.symmetric(4)
    sv = reps.commutant_singular_values(perm_rep(g))        # trivial + [3, 1]
    assert (sv <= 1e-9).sum() == 2
    young = young_orthogonal_rep(g, Partition((2, 1, 1)))
    sv = reps.commutant_singular_values(young)
    assert (sv <= 1e-9).sum() == 1 and sv[1] > 1e-3
