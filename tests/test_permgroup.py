"""Element-table groups checked against brute-force oracles."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack import config, permgroup
from grasspack.catalog import load_packaged_group
from grasspack.permgroup import (
    GF,
    CapExceeded,
    NotASubgroup,
    NotEnumerated,
    PermError,
    PermGroup,
    Permutation,
    dumps_group,
    load_group,
    loads_group,
    make_pgl2,
    make_psl2,
    parse_cycles,
)
from reference import (reference_closure, reference_right_tables,
                       trial_division_field)

# ---------------------------------------------------------------- oracles


def mobius_group(p, square_det_only=False):
    """All Moebius permutations of the projective line over F_p, brute force.

    Returns a set of image tuples on points 0..p-1 plus p for infinity.
    """
    squares = {(x * x) % p for x in range(1, p)}
    perms = set()
    for a, b, c, d in itertools.product(range(p), repeat=4):
        det = (a * d - b * c) % p
        if det == 0:
            continue
        if square_det_only and det not in squares:
            continue
        img = []
        for x in range(p):
            num, den = (a * x + b) % p, (c * x + d) % p
            img.append(num * pow(den, p - 2, p) % p if den else p)
        img.append(a * pow(c, p - 2, p) % p if c else p)  # image of infinity
        perms.add(tuple(img))
    return perms


def brute_classes(perms):
    """Conjugacy class sizes of an explicit list of image tuples."""
    elems = [tuple(x) for x in perms]
    pos = {e: i for i, e in enumerate(elems)}

    def inv(t):
        out = [0] * len(t)
        for i, x in enumerate(t):
            out[x] = i
        return tuple(out)

    sizes = []
    unseen = set(elems)
    while unseen:
        x = unseen.pop()
        cls = {x}
        for g in elems:
            gi = inv(g)
            cls.add(tuple(g[x[gi[i]]] for i in range(len(g))))
        unseen -= cls
        sizes.append(len(cls))
    assert sum(sizes) == len(elems)
    return sorted(sizes)


def brute_pair_orbits(rows, npts):
    """Orbit count of the row set acting on ordered distinct point pairs."""
    pairs = {(a, b) for a in range(npts) for b in range(npts) if a != b}
    orbits = 0
    while pairs:
        a, b = next(iter(pairs))
        orbit = {(int(r[a]), int(r[b])) for r in rows}
        pairs -= orbit
        orbits += 1
    return orbits


# ----------------------------------------------------------- permutations


def test_cycle_roundtrip():
    p = Permutation.from_cycles(6, [[0, 3, 4], [1, 5]])
    assert p.cycles() == [(0, 3, 4), (1, 5)]
    assert p.cycle_string() == "(1 4 5)(2 6)"
    assert parse_cycles("(1 4 5)(2 6)", 6) == p
    assert parse_cycles("()", 4).is_identity()
    assert p.order() == 6


def test_parse_rejects_garbage():
    with pytest.raises(PermError):
        parse_cycles("(1 2)(2 3)", 4)  # repeated point across joined cycles
    with pytest.raises(PermError):
        parse_cycles("(1 7)", 4)
    with pytest.raises(PermError):
        parse_cycles("1 2 3", 4)


def test_a_non_integer_point_is_a_perm_error():
    # int() used to raise a bare ValueError here
    with pytest.raises(PermError, match=r"cycle text '\(1 a\)': .*'a'$"):
        parse_cycles("(1 a)", 3)
    with pytest.raises(PermError, match="'a'$"):
        loads_group("degree 3\n(1 a)\n")


def test_a_binary_generator_file_is_a_perm_error(tmp_path):
    path = tmp_path / "binary.grp"
    path.write_bytes(b"degree 3\n\xff\xfe\n")
    with pytest.raises(PermError, match="not a text file"):
        load_group(path)


@given(st.permutations(list(range(7))), st.permutations(list(range(7))))
def test_compose_matches_tuple_model(a, b):
    pa, pb = Permutation(a), Permutation(b)
    want = tuple(a[b[i]] for i in range(7))  # apply b then a
    assert tuple(int(x) for x in (pa * pb).images) == want
    assert (pa * pa.inverse()).is_identity()
    assert pa.inverse().inverse() == pa


def test_identity_and_call():
    e = Permutation.identity(5)
    assert e.is_identity() and e.order() == 1
    p = Permutation.from_cycles(5, [[0, 1]])
    assert p(0) == 1 and p(2) == 2


# ---------------------------------------------------------------- closure


def test_symmetric_orders():
    for n in range(2, 7):
        assert PermGroup.symmetric(n).order == math.factorial(n)


def test_alternating_orders():
    for n in range(3, 8):
        assert PermGroup.alternating(n).order == math.factorial(n) // 2


def test_closure_matches_exhaustive_s4():
    s4 = PermGroup.symmetric(4)
    everything = {tuple(p) for p in itertools.permutations(range(4))}
    assert {tuple(int(x) for x in r) for r in s4.rows} == everything


def test_table_index_and_membership():
    g = PermGroup.symmetric(5)
    p = Permutation.from_cycles(5, [[0, 2, 4]])
    i = g.index_of(p)
    assert g.element(i) == p
    assert p in g
    assert Permutation.from_cycles(6, [[0, 1]]) not in g


def test_parent_chain_reaches_identity():
    g = PermGroup.symmetric(5)
    # every table row must factor through the spanning tree into generators
    for i in (17, 63, 119):
        acc = Permutation.identity(5)
        for s in g.tree_word(i):
            acc = acc * g.generators[s]
        assert acc == g.element(i)


def test_inverse_rows():
    g = PermGroup.symmetric(4)
    inv = g.inverse_rows()
    for i in range(g.order):
        assert Permutation(inv[i]) == g.element(i).inverse()


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        PermGroup.generated(
            [Permutation.from_cycles(8, [[0, 1]]),
             Permutation.from_cycles(8, [list(range(8))])],
            cap=1000,
        )


# --------------------------------------------------------------- classes


def test_s4_class_sizes_match_brute_force():
    s4 = PermGroup.symmetric(4)
    cc = s4.conjugacy_classes()
    expected = brute_classes(itertools.permutations(range(4)))
    assert expected == [1, 3, 6, 6, 8]
    assert sorted(cc.sizes.tolist()) == expected
    assert cc.reps[0].is_identity() and cc.sizes[0] == 1
    # class_of must be consistent with sizes
    assert np.bincount(cc.class_of).tolist() == cc.sizes.tolist()


@pytest.mark.parametrize("make, unreal_orders", [
    (lambda: make_psl2(7), [7, 7]),     # the two order-7 classes swap
    (lambda: PermGroup.symmetric(5), []),
], ids=["psl2_7", "s5"])
def test_classes_carry_rep_index_and_inverse_class(make, unreal_orders):
    g = make()
    cc = g.conjugacy_classes()
    for c, rep in enumerate(cc.reps):
        assert cc.rep_index[c] == g.index_of(rep)
        assert cc.inverse[c] == cc.class_of[g.index_of(rep.inverse())]
    assert np.array_equal(cc.inverse[cc.inverse], np.arange(cc.n_classes))
    unreal = cc.inverse != np.arange(cc.n_classes)
    assert cc.orders[unreal].tolist() == unreal_orders


def test_a5_class_sizes():
    cc = PermGroup.alternating(5).conjugacy_classes()
    assert sorted(cc.sizes.tolist()) == [1, 12, 12, 15, 20]
    assert sorted(cc.orders.tolist()) == [1, 2, 3, 5, 5]


# ------------------------------------------------------------- subgroups


def test_stabilizer_orbit_stabilizer():
    g = PermGroup.symmetric(5)
    h = g.stabilizer(4)
    assert h.order == 24  # |S5| / orbit size
    assert all(x in g for x in h.generators)
    pgl = make_pgl2(5)
    assert pgl.stabilizer(5).order == pgl.order // 6


def test_derived_subgroups():
    assert PermGroup.symmetric(4).derived_subgroup().order == 12
    assert PermGroup.symmetric(5).derived_subgroup().order == 60
    assert PermGroup.alternating(4).derived_subgroup().order == 4  # Klein four
    assert make_pgl2(9).derived_subgroup().order == 360
    assert load_packaged_group("m11").derived_subgroup().order == 7920  # perfect


def test_coset_transversal_partitions_group():
    g = PermGroup.symmetric(5)
    h = g.stabilizer(0)
    t = g.coset_transversal(h)
    assert t.count == 5
    # the cosets u H of the reps are disjoint and cover G
    cosets = [{tuple(r) for r in u[h.rows].tolist()} for u in t.rep_rows]
    assert all(len(c) == h.order for c in cosets)
    assert set().union(*cosets) == {tuple(r) for r in g.rows.tolist()}


@pytest.mark.parametrize("make", [lambda: PermGroup.symmetric(5),
                                  lambda: make_pgl2(7),
                                  lambda: make_psl2(27)],
                         ids=["s5", "pgl2_7", "psl2_27"])
def test_transversal_words_spell_the_reps_along_the_tree(make):
    g = make()
    t = g.coset_transversal(g.stabilizer(0))
    gens = [s.images for s in g.generators]
    assert t.word(0) == [] and t.via[0] == -1
    for k in range(t.count):
        word = t.word(k)
        row = np.arange(g.degree)
        for x in reversed(word):             # u = s_0 s_1 ... : s_last first
            row = gens[x][row]
        assert np.array_equal(row, t.rep_rows[k]), k
        # u_k = s u_parent, the parent earlier in the tree's order
        if k:
            assert 0 <= t.parent[k] < k
            assert word == [t.via[k]] + t.word(t.parent[k])


def test_coset_transversal_rejects_non_subgroup():
    g = PermGroup.alternating(4)
    h = PermGroup.generated([Permutation.from_cycles(4, [[0, 1]])], degree=4)
    with pytest.raises(NotASubgroup):
        g.coset_transversal(h)


def test_double_cosets_sum_to_group_order():
    g = PermGroup.symmetric(5)
    h = g.stabilizer(0)
    sizes = g.double_coset_sizes(h)
    assert sum(sizes) == g.order
    assert len(sizes) == 2  # natural action is 2-transitive


def test_two_transitivity_matches_pair_orbits():
    s4 = PermGroup.symmetric(4)
    assert s4.is_two_transitive(s4.stabilizer(3))
    assert brute_pair_orbits(s4.rows, 4) == 1

    c4 = PermGroup.cyclic(4)
    assert c4.stabilizer(0).order == 1
    assert not c4.is_two_transitive(c4.stabilizer(0))
    assert brute_pair_orbits(c4.rows, 4) == 3

    # A4 on 4 points is 2-transitive, its Klein subgroup action is not
    a4 = PermGroup.alternating(4)
    assert a4.is_two_transitive(a4.stabilizer(3))


# ---------------------------------------------------------- finite fields


@pytest.mark.parametrize("q", [4, 8, 9])
def test_gf_field_axioms_exhaustive(q):
    f = GF(q)
    for a in range(q):
        for b in range(q):
            assert f.add[a, b] == f.add[b, a]
            assert f.mul[a, b] == f.mul[b, a]
            for c in range(q):
                assert f.add[f.add[a, b], c] == f.add[a, f.add[b, c]]
                assert f.mul[f.mul[a, b], c] == f.mul[a, f.mul[b, c]]
                assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]
    assert (f.mul[1] == np.arange(q)).all()
    for a in range(1, q):
        assert f.mul[a, f.inv[a]] == 1
        assert f.add[a, f.neg[a]] == 0


PRIMES = [p for p in range(2, 128) if all(p % d for d in range(2, p))]
PRIME_POWERS = sorted(p ** k for p in PRIMES for k in range(1, 7) if p ** k < 128)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_gf_matches_trial_division(q):
    add, mul, neg, inv, primitive = trial_division_field(q)
    f = GF(q)
    assert f.add.tolist() == add and f.mul.tolist() == mul
    assert f.neg.tolist() == neg and f.inv.tolist() == inv
    assert f.primitive() == primitive


def test_gf_primitive_element():
    f = GF(9)
    c = f.primitive()
    x, seen = c, set()
    for _ in range(8):
        seen.add(x)
        x = int(f.mul[x, c])
    assert len(seen) == 8 and x == c


def test_gf_rejects_non_prime_power():
    with pytest.raises(PermError):
        GF(6)


# ------------------------------------------------------ projective groups


@pytest.mark.parametrize("q,order", [(5, 120), (7, 336), (9, 720),
                                     (11, 1320), (13, 2184)])
def test_pgl2_orders(q, order):
    g = make_pgl2(q)
    assert g.order == order == q * (q * q - 1)


def test_pgl2_f5_matches_mobius_brute_force():
    g = make_pgl2(5)
    assert {tuple(int(x) for x in r) for r in g.rows} == mobius_group(5)


def test_psl2_f7_matches_mobius_brute_force():
    g = make_psl2(7)
    want = mobius_group(7, square_det_only=True)
    assert g.order == len(want) == 168
    assert {tuple(int(x) for x in r) for r in g.rows} == want


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_psl2_orders_and_two_transitivity(q):
    g = make_psl2(q)
    assert g.order == q * (q * q - 1) // math.gcd(2, q - 1)
    borel = g.stabilizer(q)  # infinity
    assert g.is_two_transitive(borel)
    assert brute_pair_orbits(g.rows, q + 1) == 1


def test_psl2_f5_is_a5_on_six_points():
    g = make_psl2(5)
    assert g.order == 60
    assert sorted(g.conjugacy_classes().sizes.tolist()) == [1, 12, 12, 15, 20]


# ------------------------------------------------------------ file format


GROUP_TEXT = """\
# sample: S4 as transposition plus 4-cycle
degree 4
(1 2)
(1 2 3 4)
"""


def test_loads_group():
    g = loads_group(GROUP_TEXT, name="s4")
    assert g.order == 24 and g.degree == 4 and g.name == "s4"


def test_dumps_then_loads_roundtrip():
    g = PermGroup.alternating(5)
    text = dumps_group(g, comment="alternating on five points")
    h = loads_group(text)
    assert h.order == g.order
    assert {tuple(r) for r in h.rows} == {tuple(r) for r in g.rows}


def test_loads_group_over_cap_defers():
    g = loads_group(GROUP_TEXT, cap=10)
    assert not g.is_enumerated
    assert g.degree == 4 and len(g.generators) == 2
    with pytest.raises(Exception):
        g.rows


def test_loads_group_refuses_a_negative_cap():
    for load in (lambda: loads_group(GROUP_TEXT, cap=-1),
                 lambda: load_packaged_group("m11", cap=-1)):
        with pytest.raises(PermError, match="cap must be non-negative"):
            load()
    assert not loads_group(GROUP_TEXT, cap=0).is_enumerated


def test_loads_group_bad_header():
    with pytest.raises(PermError):
        loads_group("(1 2)\n")


@settings(max_examples=25)
@given(st.permutations(list(range(6))))
def test_random_subgroup_membership(imgs):
    g = PermGroup.symmetric(6)
    p = Permutation(imgs)
    assert p in g
    assert g.element(g.index_of(p)) == p


# ------------------------------------------------ image rows and lookups


def test_negative_image_rejected():
    with pytest.raises(PermError):
        Permutation([-1, 0])


def test_image_beyond_degree_rejected():
    with pytest.raises(PermError):
        Permutation([0, 5])


def test_float_images_rejected():
    with pytest.raises(PermError):
        Permutation([0.7, 1.2])


def test_lookup_rows_wrong_width_raises():
    g = PermGroup.symmetric(4)
    with pytest.raises(PermError):
        g.lookup_rows(np.zeros((2, 5), dtype=np.int16))


def test_lookup_rows_non_member_raises():
    g = PermGroup.alternating(4)
    odd = Permutation.from_cycles(4, [[0, 1]])
    with pytest.raises(PermError):
        g.lookup_rows(np.stack([g.rows[3], odd.images]))
    assert odd not in g
    with pytest.raises(PermError):
        g.index_of(odd)


def test_forced_key_collision_caught_by_row_verify(monkeypatch):
    g = PermGroup.symmetric(4)
    real = permgroup._row_keys
    ident_key = real(g.rows[:1], g._table.index.cols, g._table.index.mult)[0]
    monkeypatch.setattr(permgroup, "_row_keys",
                        lambda rows, cols, mult: np.full(len(rows), ident_key))
    # every query now carries the identity's key: only the identity may match
    assert g._table.index.find(g.rows).tolist() == [0] + [-1] * (g.order - 1)
    with pytest.raises(PermError):
        g.lookup_rows(g.rows[1:2])
    assert g.element(5) not in g


def test_forced_key_collision_in_closure_raises(monkeypatch):
    real = permgroup._row_keys
    monkeypatch.setattr(permgroup, "_row_keys",
                        lambda rows, cols, mult: real(rows[:, :1], [0], mult))
    with pytest.raises(PermError, match="collision"):
        PermGroup.symmetric(4)


# ------------------------------------- closure order and orbit sweeps


ORDER_PINNED = {
    "S5": lambda: PermGroup.symmetric(5),
    "A6": lambda: PermGroup.alternating(6),
    "PGL2(7)": lambda: make_pgl2(7),
    "PSL2(9)": lambda: make_psl2(9),
    "data:m11": lambda: load_packaged_group("m11"),
}


@pytest.mark.parametrize("name", sorted(ORDER_PINNED))
def test_closure_order_matches_reference_bfs(name):
    g = ORDER_PINNED[name]()
    gens = [tuple(int(x) for x in s.images) for s in g.generators]
    rows, parent, via = reference_closure(gens, g.degree)
    assert [tuple(r) for r in g.rows.tolist()] == rows
    # each tree word is its parent's word and the generator that led to it
    words = [[]]
    for i in range(1, len(rows)):
        words.append(words[parent[i]] + [via[i]])
    assert [g.tree_word(i) for i in range(g.order)] == words


@pytest.mark.parametrize("name", sorted(ORDER_PINNED))
def test_closure_and_inverses_in_blocks_match_reference_bfs(name, monkeypatch):
    # a 256-byte budget cuts the larger levels into slices, some across a
    # generator boundary, and the inverse pass and its lookups into blocks
    monkeypatch.setattr(config, "BLOCK_BYTES", 1 << 8)
    g = ORDER_PINNED[name]()
    gens = [tuple(int(x) for x in s.images) for s in g.generators]
    rows, parent, via = reference_closure(gens, g.degree)
    depth = [0] * len(rows)
    for i in range(1, len(rows)):
        depth[i] = depth[parent[i]] + 1
    widest = max(np.bincount(depth)) * len(gens)       # products of a level
    assert len(list(config.blocks(widest, g.degree * g.rows.itemsize))) > 1
    table = g._table
    assert [tuple(r) for r in table.rows.tolist()] == rows
    assert table.parent.tolist() == parent and table.via.tolist() == via
    assert [r.tolist() for r in table.right] == reference_right_tables(rows, gens)
    assert np.array_equal(g.lookup_rows(g.rows), np.arange(g.order))
    assert len(g.row_blocks()) > 2
    index = {row: i for i, row in enumerate(rows)}
    inverse = np.argsort(g.rows, axis=1)
    assert np.array_equal(g.inverse_rows(), inverse)
    assert g._inverse_index().tolist() == [index[tuple(r)] for r in inverse.tolist()]


#: MiB the closure of PGL2(37) (50,616 elements on 38 points) may trace;
#: the CI step "Group layer stays within its working memory" holds M22's
#: closure and character table to 100 MiB the same way
CLOSURE_TRACED_MIB = 15


def test_closure_in_bounded_memory():
    # the store grows in place and the table is not copied at the end
    tracemalloc.start()
    try:
        g = make_pgl2(37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 50616
    assert peak <= CLOSURE_TRACED_MIB << 20


def brute_index_sets(g, sets_of):
    """Blocks of element indices, numbered by least index, from a brute
    force map i -> set of indices in the block of element i."""
    block_of = np.full(g.order, -1)
    blocks = []
    for i in range(g.order):
        if block_of[i] < 0:
            members = sorted(sets_of(i))
            assert members[0] == i
            block_of[members] = len(blocks)
            blocks.append(members)
    return blocks, block_of


@pytest.mark.parametrize("name", ["S5", "A6", "PGL2(7)"])
def test_conjugacy_classes_match_brute_force(name):
    g = ORDER_PINNED[name]()
    elems = [g.element(i) for i in range(g.order)]
    invs = [x.inverse() for x in elems]
    blocks, block_of = brute_index_sets(
        g, lambda i: {g.index_of(x * elems[i] * xi) for x, xi in zip(elems, invs)})
    cc = g.conjugacy_classes()
    assert [g.index_of(r) for r in cc.reps] == [b[0] for b in blocks]
    assert cc.class_of.tolist() == block_of.tolist()
    assert cc.sizes.tolist() == [len(b) for b in blocks]
    orders = []
    for b in blocks:
        x, k = elems[b[0]], 1
        while not x.is_identity():
            x, k = x * elems[b[0]], k + 1
        orders.append(k)
    assert cc.orders.tolist() == orders


@pytest.mark.parametrize("name, point", [("S5", 0), ("A6", 2), ("PGL2(7)", 7)])
def test_cosets_and_double_cosets_match_brute_force(name, point):
    g = ORDER_PINNED[name]()
    h = g.stabilizer(point)
    elems = [g.element(i) for i in range(g.order)]
    hs = [h.element(i) for i in range(h.order)]
    cosets, in_coset = brute_index_sets(
        g, lambda i: {g.index_of(elems[i] * y) for y in hs})
    t = g.coset_transversal(h)
    reps = g.lookup_rows(t.rep_rows)
    assert sorted(in_coset[reps].tolist()) == list(range(len(cosets)))
    assert t.rep_rows[0].tolist() == list(range(g.degree))
    doubles, in_double = brute_index_sets(
        g, lambda i: {g.index_of(x * elems[i] * y) for x in hs for y in hs})
    # double cosets in the order their first coset rep appears
    first = dict.fromkeys(in_double[reps].tolist())
    assert g.double_coset_sizes(h) == [len(doubles[b]) for b in first]


ORBITAL_CHECKED = {         # name -> (group, stabilized point)
    "S5": (lambda: PermGroup.symmetric(5), 0),
    "D4": (lambda: PermGroup.generated(
        [Permutation.from_cycles(4, [[0, 1, 2, 3]]),
         Permutation.from_cycles(4, [[1, 3]])]), 0),
    "F21": (lambda: PermGroup.generated(
        [Permutation([(x + 1) % 7 for x in range(7)]),
         Permutation([2 * x % 7 for x in range(7)])]), 0),
    "PGL2(7)": (lambda: make_pgl2(7), 7),
}


@pytest.mark.parametrize("name", sorted(ORBITAL_CHECKED))
def test_orbitals_match_brute_force(name):
    make, point = ORBITAL_CHECKED[name]
    g = make()
    h = g.stabilizer(point)
    reps = [Permutation(r) for r in g.coset_transversal(h).rep_rows]
    position = {u(point): b for b, u in enumerate(reps)}
    suborbit = {}                   # H-orbits, numbered by least position
    for b, u in enumerate(reps):
        if b not in suborbit:
            k = len(set(suborbit.values()))
            suborbit.update((position[y(u(point))], k)
                            for y in (h.element(i) for i in range(h.order)))
    want = [[suborbit[position[(ua.inverse() * ub)(point)]] for ub in reps]
            for ua in reps]
    assert g.orbitals(h).tolist() == want
    free = table_free(g)
    assert free.orbitals(free.stabilizer(point)).tolist() == want
    assert g.double_coset_sizes(h) \
        == [row.count(k) * h.order for row in want[:1]
            for k in range(len(set(row)))]


def test_cached_cosets_and_inverses_match_fresh_groups():
    # the second group answers in the opposite order, so whichever call
    # fills a cache first, both groups must agree
    g1, g2 = ORDER_PINNED["PGL2(7)"](), ORDER_PINNED["PGL2(7)"]()
    h1, h2 = g1.stabilizer(7), g2.stabilizer(7)
    sizes = g1.double_coset_sizes(h1)
    t1 = g1.coset_transversal(h1)
    t2 = g2.coset_transversal(h2)
    assert g2.double_coset_sizes(h2) == sizes
    assert g1.coset_transversal(h1).rep_rows is t1.rep_rows
    assert np.array_equal(t1.rep_rows, t2.rep_rows)
    d1 = g1.derived_subgroup()
    c1 = g1.conjugacy_classes()
    c2 = g2.conjugacy_classes()
    d2 = g2.derived_subgroup()
    assert np.array_equal(c1.class_of, c2.class_of)
    assert np.array_equal(d1.rows, d2.rows)


@settings(max_examples=30)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.permutations(list(range(n))), min_size=1, max_size=3)))
def test_orbits_match_union_find(maps):
    n = len(maps[0])
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i
    for m in maps:
        for i, j in enumerate(m):
            a, b = sorted((find(i), find(j)))
            root[b] = a
    least = [find(i) for i in range(n)]
    reps, orbit_of = permgroup.orbits([np.array(m) for m in maps], n)
    assert reps.tolist() == sorted(set(least))
    assert [reps[o] for o in orbit_of] == least


# ---------------------------------------- table-free stabilizers (Schreier)


def table_free(g):
    return PermGroup.deferred(g.generators, name=g.name, degree=g.degree)


def row_set(rows):
    return {tuple(r) for r in np.asarray(rows).tolist()}


def word_product(g, word):
    out = g.identity()
    for x in word:
        out = out * (g.generators[x] if x >= 0 else g.generators[~x].inverse())
    return out


def orbit_of(gens, point):
    seen, queue = {point}, [point]
    for b in queue:
        for s in gens:
            if s(b) not in seen:
                seen.add(s(b))
                queue.append(s(b))
    return seen


def assert_same_stabilizer(g, point):
    free = table_free(g)
    h = free.stabilizer(point)
    assert row_set(h.rows) == row_set(g.rows[g.rows[:, point] == point])
    t = free.coset_transversal(h)
    assert t.count * h.order == g.order == free.order
    assert sorted(t.rep_rows[:, point].tolist()) \
        == sorted(orbit_of(g.generators, point))
    assert h.provenance == {"orbit_length": t.count,
                            "schreier_generators": t.count * len(g.generators)}
    return free


SCHREIER_CHECKED = {       # name -> (group, stabilized point)
    "data:m22": (lambda: load_packaged_group("m22"), 0),
    "data:m11": (lambda: load_packaged_group("m11"), 10),
    "data:m12": (lambda: load_packaged_group("m12"), 3),
    "PGL2(7)": (lambda: make_pgl2(7), 7),
    "S6": (lambda: PermGroup.symmetric(6), 5),
}


@pytest.mark.parametrize("name", sorted(SCHREIER_CHECKED))
def test_table_free_stabilizer_matches_table(name):
    make, point = SCHREIER_CHECKED[name]
    g = make()
    free = assert_same_stabilizer(g, point)
    # sifting: members get words that multiply out to them
    for i in np.random.default_rng(3).integers(0, g.order, size=20):
        x = g.element(int(i))
        assert x in free
        assert word_product(g, free.word_of(x)) == x


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(list(range(n))), min_size=1, max_size=3),
    st.integers(0, n - 1))))
def test_table_free_stabilizer_of_random_generators(case):
    gens, point = case
    g = PermGroup.generated([Permutation(s) for s in gens],
                            degree=len(gens[0]))
    free = assert_same_stabilizer(g, point)
    stranger = Permutation.from_cycles(g.degree, [[0, 1]])
    assert (stranger in free) == (stranger in g)


def test_table_free_group_needs_a_stabilizer():
    free = table_free(PermGroup.symmetric(5))
    x = free.generators[0]
    for ask in (lambda: x in free, lambda: free.word_of(x),
                lambda: free.order, lambda: free.conjugacy_classes()):
        with pytest.raises(NotEnumerated):
            ask()
    free.stabilizer(4)
    with pytest.raises(NotASubgroup):
        free.coset_transversal(free.stabilizer(4).stabilizer(3))
    with pytest.raises(PermError):
        free.word_of(Permutation.from_cycles(6, [[0, 5]]))


@pytest.mark.parametrize("name", sorted(SCHREIER_CHECKED))
def test_table_free_double_cosets_match_table(name):
    make, point = SCHREIER_CHECKED[name]
    g = make()
    free = table_free(g)
    sizes = free.double_coset_sizes(free.stabilizer(point))
    assert sizes == g.double_coset_sizes(g.stabilizer(point))
    assert sum(sizes) == g.order == free.order


@pytest.mark.parametrize("name", ["m22", "sp6_2_deg28"])
def test_table_free_packaged_groups_are_two_transitive(name):
    free = load_packaged_group(name, cap=1)
    assert not free.is_enumerated
    assert free.is_two_transitive(free.stabilizer(0))


def test_table_free_dihedral_double_cosets():
    # D4 on the corners of a square: G_0 = <(1 3)> fixes the opposite
    # corner 2 and swaps the neighbours 1 and 3
    free = PermGroup.deferred([Permutation.from_cycles(4, [[0, 1, 2, 3]]),
                               Permutation.from_cycles(4, [[1, 3]])])
    h = free.stabilizer(0)
    assert free.double_coset_sizes(h) == [2, 4, 2]
    assert not free.is_two_transitive(h)


def test_table_free_word_of_a_non_member_raises():
    free = table_free(PermGroup.alternating(5))
    free.stabilizer(0)
    odd = Permutation.from_cycles(5, [[0, 1]])
    assert odd not in free
    with pytest.raises(PermError):
        free.word_of(odd)


def test_parse_group_shares_the_loader():
    degree, gens = permgroup.parse_group(GROUP_TEXT)
    g = loads_group(GROUP_TEXT)
    assert degree == g.degree and gens == g.generators


def test_projective_groups_over_gf2_are_s3():
    # 1 is primitive in GF(2) alone, so q = 2 needs the search to start there
    assert make_pgl2(2).order == make_psl2(2).order == 6


@pytest.mark.parametrize("q", [2, 5, 7, 8, 9, 25, 27])
def test_projective_class_count_matches_enumeration(q):
    for special, maker in ((False, permgroup.make_pgl2),
                           (True, permgroup.make_psl2)):
        assert permgroup.projective_class_count(q, special) \
            == maker(q).conjugacy_classes().n_classes
