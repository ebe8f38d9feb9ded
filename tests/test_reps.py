"""Representation construction: Young forms, carriers, extraction, E7 route."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasspack import reps
from grasspack.characters import compute_table, inner_product
from grasspack.config import data_path
from grasspack.permgroup import PermGroup, Permutation, load_group, make_pgl2
from grasspack.reps import (CarrierBudgetError, ExtractionError, Partition,
                            PermTensorCarrier, branching, extract_irrep,
                            find_carrier, hook_dimension, isotypic_projector,
                            multiplicity, perm_rep, standard_tableaux,
                            tensor_power, young_orthogonal_rep)

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
    with pytest.raises(Exception):
        Partition.parse("[1,3]")


# ------------------------------------------------------------- Young form


def test_young_orthogonal_s3_explicit():
    # the two tableaux of [2,1] give the textbook 2x2 matrices
    rep = young_orthogonal_rep(3, Partition((2, 1)))
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
    with pytest.raises(CarrierBudgetError):
        young_orthogonal_rep(12, Partition((6, 4, 2)), budget=2000)


def test_young_rep_wrong_size():
    with pytest.raises(Exception):
        young_orthogonal_rep(5, Partition((3, 1)))


# ------------------------------------------------------ carriers, tensors


def test_perm_rep_matrices():
    g = PermGroup.symmetric(4)
    rep = perm_rep(g)
    for p, m in zip(g.generators, rep.gen_images):
        v = np.arange(4.0)
        assert np.allclose(m @ v, v[p.inverse().images])
    rep.check_unitary_homomorphism(n_pairs=20)


def test_tensor_power_is_kron():
    g = PermGroup.symmetric(3)
    rep = perm_rep(g)
    t2 = tensor_power(rep, 2)
    for m, m2 in zip(rep.gen_images, t2.gen_images):
        assert np.allclose(m2, np.kron(m, m))
    with pytest.raises(CarrierBudgetError):
        tensor_power(perm_rep(PermGroup.symmetric(9)), 5)


def test_carrier_agrees_with_dense_tensor():
    g = PermGroup.symmetric(4)
    dense = tensor_power(perm_rep(g), 2)
    carrier = PermTensorCarrier(g, 2)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16)
    for gi in range(len(g.generators)):
        assert np.allclose(carrier.apply_gen(gi, v), dense.gen_images[gi] @ v)
        assert np.allclose(carrier.gen_image(gi), dense.gen_images[gi])
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


def test_projector_invariants():
    g = PermGroup.symmetric(4)
    t = compute_table(g)
    rep = perm_rep(g)
    pc = rep.character()
    inside = [i for i in range(t.n_classes)
              if abs(inner_product(pc, t.irreducibles[i])) > 0.5]
    assert len(inside) == 2          # trivial + standard
    total = np.zeros((4, 4), dtype=complex)
    for i in range(t.n_classes):
        proj = isotypic_projector(rep, t, [i])   # check() runs inside
        total += proj.matrix
        for img in rep.gen_images:
            assert np.abs(proj.matrix @ img - img @ proj.matrix).max() < 1e-9
    assert np.abs(total - np.eye(4)).max() < 1e-9


def test_projector_pair_subset():
    g = PermGroup.symmetric(4)
    t = compute_table(g)
    rep = tensor_power(perm_rep(g), 2)
    both = isotypic_projector(rep, t, [0, 1])
    single = [isotypic_projector(rep, t, [i]).matrix for i in (0, 1)]
    assert np.abs(both.matrix - sum(single)).max() < 1e-9


def test_projector_orthogonality_between_components():
    g = PermGroup.symmetric(5)
    t = compute_table(g)
    rep = tensor_power(perm_rep(g), 2)
    p0 = isotypic_projector(rep, t, [1]).matrix
    p1 = isotypic_projector(rep, t, [3]).matrix
    assert np.abs(p0 @ p1).max() < 1e-9


def test_vector_sum_with_non_involutive_generators():
    # the translation generator of PGL2(F5) has order 5; a naive forward
    # walk silently reverses words and only survives involutive generators
    g = make_pgl2(5)
    t = compute_table(g)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(t.n_classes) + 1j * rng.standard_normal(t.n_classes)
    rep = perm_rep(g)
    dense = rep.weighted_group_sum(w)
    v = rng.standard_normal(g.degree) + 1j * rng.standard_normal(g.degree)
    assert np.abs(dense @ v - rep.weighted_vector_sum(w, v)).max() < 1e-10
    car = PermTensorCarrier(g, 2)
    dense2 = reps.UnitaryRep(g, [car.gen_image(i)
                                 for i in range(len(g.generators))])
    v2 = rng.standard_normal(car.dim) + 1j * rng.standard_normal(car.dim)
    got = car.weighted_vector_sum(w, v2)
    assert np.abs(dense2.weighted_group_sum(w) @ v2 - got).max() < 1e-10


def _unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


@pytest.mark.parametrize("make", [lambda: make_pgl2(5),
                                  lambda: PermGroup.alternating(5)],
                         ids=["pgl2_5", "a5"])
def test_tree_walk_sums_match_brute_force(make):
    # every sum the spanning-tree walk forms, against a plain sum over
    # image_of_index(i) for all i; PGL2(5)'s translation generator has
    # order 5, so a walk that reversed words would fail here
    g = make()
    t = compute_table(g)
    cls = g.conjugacy_classes().class_of
    rng = np.random.default_rng(5)
    base = perm_rep(g)
    u = _unitary(base.dim, rng)
    rep = reps.UnitaryRep(g, [u @ m @ u.conj().T for m in base.gen_images])
    car = PermTensorCarrier(g, 2)
    dense = reps.UnitaryRep(g, [car.gen_image(i)
                                for i in range(len(g.generators))])
    w = rng.standard_normal(t.n_classes) + 1j * rng.standard_normal(t.n_classes)

    images = [rep.image_of_index(i) for i in range(g.order)]
    want = np.zeros((t.n_classes, rep.dim, rep.dim), dtype=complex)
    for i, img in enumerate(images):
        want[cls[i]] += img
    assert np.abs(rep.class_sums() - want).max() < 1e-10

    v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    want_v = sum(w[cls[i]] * img @ v for i, img in enumerate(images))
    assert np.abs(rep.weighted_vector_sum(w, v) - want_v).max() < 1e-10

    x = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    want_t = sum(np.outer(img @ x, (img @ x).conj()) for img in images)
    got_t = reps._reynolds_rank1(rep, x)
    assert np.abs(got_t - want_t / g.order).max() < 1e-10

    v2 = rng.standard_normal(car.dim) + 1j * rng.standard_normal(car.dim)
    want_v2 = sum(w[cls[i]] * dense.image_of_index(i) @ v2
                  for i in range(g.order))
    assert np.abs(car.weighted_vector_sum(w, v2) - want_v2).max() < 1e-10


def test_extract_from_non_involutive_generators():
    g = make_pgl2(5)
    t = compute_table(g)
    i6 = next(i for i, d in enumerate(t.degrees()) if d == 6)
    carrier = find_carrier(g, t, i6)
    rho = extract_irrep(carrier, g, t, i6)
    assert rho.dim == 6
    rho.check_unitary_homomorphism(n_pairs=50)


# ------------------------------------------------------------- extraction


def test_extract_standard_from_perm():
    g = PermGroup.symmetric(5)
    t = compute_table(g)
    carrier = PermTensorCarrier(g, 1)
    pc = carrier.character()
    idx = next(i for i, d in enumerate(t.degrees()) if d == 4
               and abs(inner_product(pc, t.irreducibles[i]) - 1) < 1e-9)
    rep = extract_irrep(carrier, g, t, idx)
    assert rep.dim == 4
    assert rep.provenance["multiplicity"] == 1
    rep.check_unitary_homomorphism(n_pairs=100, tol=1e-9)


def test_extract_all_reachable_s5():
    g = PermGroup.symmetric(5)
    t = compute_table(g)
    degs = list(t.degrees())
    reached = []
    for i in range(t.n_classes):
        carrier = find_carrier(g, t, i)
        if carrier is None:
            continue
        rep = extract_irrep(carrier, g, t, i)
        assert rep.dim == degs[i]
        assert abs(inner_product(rep.character(), t.irreducibles[i]) - 1) < 1e-6
        reached.append(int(degs[i]))
    # the sign character needs a fourth power; everything else is reachable
    assert sorted(reached) == [1, 4, 4, 5, 5, 6]


def test_extract_higher_multiplicity_path():
    g = PermGroup.symmetric(5)
    t = compute_table(g)
    c2 = PermTensorCarrier(g, 2)
    idx = next(i for i, d in enumerate(t.degrees())
               if d == 4 and multiplicity(c2, t, i) == 3)
    rep = extract_irrep(c2, g, t, idx)
    assert rep.dim == 4
    assert rep.provenance["multiplicity"] == 3
    rep.check_unitary_homomorphism(n_pairs=100, tol=1e-9)


def test_extract_missing_character_raises():
    g = PermGroup.symmetric(5)
    t = compute_table(g)
    carrier = PermTensorCarrier(g, 1)
    sign = next(i for i in range(t.n_classes)
                if t.degrees()[i] == 1
                and t.irreducibles[i].values.real.min() < -0.5)
    with pytest.raises(ExtractionError):
        extract_irrep(carrier, g, t, sign)
    assert find_carrier(g, t, sign) is None


def test_extract_alternating_group():
    # no Young form on A5; the generic path must handle it
    g = PermGroup.alternating(5)
    t = compute_table(g)
    built = 0
    for i in range(t.n_classes):
        carrier = find_carrier(g, t, i)
        if carrier is None:
            continue
        rep = extract_irrep(carrier, g, t, i)
        assert abs(inner_product(rep.character(), t.irreducibles[i]) - 1) < 1e-6
        built += 1
    assert built == t.n_classes      # every A5 irreducible is reachable


def test_restrict_rep_matches_parent():
    g = PermGroup.symmetric(5)
    h = g.stabilizer(4)
    rep = young_orthogonal_rep(g, Partition((3, 2)))
    r = reps.restrict_rep(rep, h)
    for hg, img in zip(h.generators, r.gen_images):
        assert np.allclose(img, rep.image(hg))
    r.check_unitary_homomorphism(n_pairs=25)


# ----------------------------------------------------------- E7 dictionary


def test_rotation_rep_of_minus_orbit_action():
    g = load_group(data_path("sp6_2_deg28.grp"))
    rep = reps.symplectic_rotation_rep(g)
    assert rep.dim == 7
    for p, img in zip(g.generators, rep.gen_images):
        assert abs(np.linalg.det(img) - 1) < 1e-9
        assert np.abs(img @ img.conj().T - np.eye(7)).max() < 1e-12
        k = p.order()
        assert np.abs(np.linalg.matrix_power(img, k) - np.eye(7)).max() < 1e-9
    assert rep.check_unitary_homomorphism(n_pairs=25) < 1e-9


def test_rotation_rep_of_plus_orbit_action():
    g = load_group(data_path("sp6_2_deg36.grp"))
    rep = reps.symplectic_rotation_rep(g)
    assert rep.check_unitary_homomorphism(n_pairs=25) < 1e-9


def test_rotation_rep_rejects_other_degrees():
    with pytest.raises(reps.RepError):
        reps.symplectic_rotation_rep(PermGroup.symmetric(5))


def test_e7_dictionary_geometry():
    dic = reps._e7_dictionary()
    roots = reps._e7_roots()
    norms = np.einsum("ij,ij->i", roots, roots)
    assert np.allclose(norms, 2.0)
    assert np.allclose(roots @ np.array([0, 0, 0, 0, 0, 0, 1.0, 1.0]), 0.0)
    # transvection images: involutive rotations, one per nonzero vector
    assert set(dic.root_of_vec) == set(range(1, 64))
    for v in (1, 9, 42, 63):
        r = dic.transvection_image(v)
        assert np.abs(r @ r - np.eye(7)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1) < 1e-12
        assert abs(np.trace(r) + 5) < 1e-12   # reflection trace 5, negated


# ----------------------------------------------------------------- export


def test_save_rep_roundtrip(tmp_path):
    import json
    g = PermGroup.symmetric(4)
    t = compute_table(g)
    carrier = PermTensorCarrier(g, 1)
    pc = carrier.character()
    idx = next(i for i, d in enumerate(t.degrees()) if d == 3
               and abs(inner_product(pc, t.irreducibles[i]) - 1) < 1e-9)
    rep = extract_irrep(carrier, g, t, idx)
    out = tmp_path / "rep.json"
    reps.save_rep(rep, out)
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 3
    assert doc["provenance"]["carrier"] == "perm4^x1"
    mats = [np.array([[complex(re, im) for re, im in row] for row in m])
            for m in doc["generators"]]
    for a, b in zip(mats, rep.gen_images):
        assert np.allclose(a, b)
