"""Dense and brute-force references the tests hold the package against:
permutation matrices and their Kronecker powers, the isotypic projector by
the full class-sum formula, the quaternion group Q8 in its regular action,
the two class-sum identities the equidistance proof rests on, checked over
whole groups, the Hermitian completion of a matrix's lower triangle by
dense triangles, and the principal-angle census
of a code resolved pair by pair, the Clifford family S_r by a search over
combinations of involutions, the Clifford codewords formed one label
at a time from dense shift and sign matrices, and the Clifford pair keys
with the signs compared pair by pair, GF(q) by polynomial trial
division, and an element table with its right-multiplication tables by a
plain breadth-first search.  The package itself applies
permutation carriers as index gathers, splits isotypic components from a
few class sums, checks the identity only in the form
`IsotypicContext.fonda2_residual`, takes its census from pair keys
(`codes.spa_census`), extends S_r level by level from least bases
(`codes.clifford_family`), packs every code's codewords into rows of
their lower triangles (`grassmann.ProjectorStack`), forms the Clifford
codewords a chunk of subgroups at a time from label arrays
(`codes.build_clifford_orthoplex`) and reads the Clifford
keys from tables per subgroup pair (`codes._stabilizer_keys`), builds
GF(q) from one product table per candidate modulus (`permgroup.GF`), and
closes an element table a level, or a slice of one, at a time
(`permgroup._closure`)."""
import itertools
import math
from dataclasses import dataclass

import numpy as np

from grasspack import config
from grasspack.characters import class_multiplication
from grasspack.grassmann import principal_angles
from grasspack.permgroup import PermGroup
from grasspack.reps import UnitaryRep, isotypic_weights


def perm_rep(g, name=""):
    """Permutation matrices of the natural action."""
    images = []
    for p in g.generators:
        m = np.zeros((g.degree, g.degree), dtype=complex)
        m[p.images, np.arange(g.degree)] = 1.0
        images.append(m)
    return UnitaryRep(g, images, name=name or f"perm{g.degree}",
                      provenance={"carrier": "perm"})


def quaternion_group():
    """Q8 acting on its 8 elements by left multiplication, generated by i
    and j: the units +-1, +-i, +-j, +-k as signed basis 4-tuples, multiplied
    by the Hamilton product."""
    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    units = [tuple(s * (t == u) for u in range(4))
             for t in range(4) for s in (1, -1)]
    index = {q: n for n, q in enumerate(units)}
    return PermGroup.generated([[index[mul(x, q)] for q in units]
                                for x in (units[2], units[4])], name="Q8")


def kron_power(rep, k):
    """k-th tensor power of `rep`, each generator image formed by np.kron."""
    images = []
    for m in rep.gen_images:
        out = m
        for _ in range(k - 1):
            out = np.kron(out, m)
        images.append(out)
    return UnitaryRep(rep.group, images, name=f"{rep.name}^x{k}")


def image_of_index(rep, i):
    """rep(g_i), multiplied out along element i's closure-tree word."""
    return rep.image_of_word(rep.group.tree_word(i))


def full_class_sums(rep):
    """M[c] = sum of rep(h) over class c, for every class of the group, from
    one `image_of_index` per element."""
    cc = rep.group.conjugacy_classes()
    sums = np.zeros((cc.n_classes, rep.dim, rep.dim), dtype=complex)
    for i, c in enumerate(cc.class_of):
        sums[c] += image_of_index(rep, i)
    return sums


def isotypic_projector(sums, table, chars):
    """The full class-sum formula sum_c w_c M_c for the projector onto the
    isotypic components `chars`: `sums` from `full_class_sums`, w from
    `isotypic_weights`."""
    return np.tensordot(isotypic_weights(table, list(chars)), sums,
                        axes=(0, 0))


@dataclass
class IdentityReport:
    max_residual_product: float        # class-sum product identity
    max_residual_twist: float          # summed conjugation identity
    pairs_checked: int

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_product, self.max_residual_twist)


def character_identities(table, g, n_pairs=None, seed=config.DEFAULT_SEED):
    """Residuals, per irreducible and relative, of the two class-sum
    identities: chi(Cl(h1)^ Cl(h2)^) and sum_g chi(h1 g h2 g^-1) against
    their closed forms; the twisted sum over `n_pairs` sampled class pairs,
    or all of them."""
    cc = g.conjugacy_classes()
    r = cc.n_classes
    a = class_multiplication(g)
    x = table.matrix()
    sizes = cc.sizes.astype(float)
    degs = x[:, 0].real

    # product identity, all class pairs at once:
    # sum_k a[i,j,k] |Cl_k| chi(z_k) = |Cl_i||Cl_j| chi_i chi_j / chi(1)
    lhs = np.einsum("ijk,sk->sij", a * sizes[None, None, :], x)
    rhs = (sizes[None, :, None] * sizes[None, None, :]
           * x[:, :, None] * x[:, None, :] / degs[:, None, None])
    product = float((np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max())

    # twisted sum: sum_g chi(h1 g h2 g^-1) = |G| chi1 chi2 / chi(1)
    pairs = [(i, j) for i in range(r) for j in range(r)]
    if n_pairs is not None and n_pairs < len(pairs):
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(pairs), size=n_pairs, replace=False)
        pairs = [pairs[int(p)] for p in pick]
    rows = g.rows
    einv = g.inverse_rows()
    cls = cc.class_of
    twist = 0.0
    for i, j in pairs:
        h1 = cc.reps[i].images.astype(np.intp)
        h2 = cc.reps[j].images.astype(np.intp)
        s = h2[einv]                                    # h2 . g^-1
        u = np.take_along_axis(rows, s.astype(np.intp), axis=1)   # g h2 g^-1
        w = h1[u]                                       # h1 g h2 g^-1
        counts = np.bincount(cls[g.lookup_rows(w)], minlength=r).astype(float)
        got = x @ counts
        want = g.order * x[:, i] * x[:, j] / degs
        twist = max(twist, float((np.abs(got - want)
                                  / np.maximum(1.0, np.abs(want))).max()))
    return IdentityReport(product, twist, len(pairs))


def hermitian_completion(p):
    """The Hermitian matrix that agrees with p below its diagonal and whose
    diagonal is the real part of p's."""
    low = np.tril(p, -1)
    return low + low.conj().T + np.diag(np.diag(p).real)


def pairwise_census(projectors):
    """(census, distinct) with every pair resolved by SVD: for each codeword
    one stacked SVD gives the sin^2 of its pairs with all later codewords.
    Sets are grouped in order with the first earlier set that matches to
    within TOL.integer, and each set is `principal_angles` on its first pair
    in row-major order; `distinct` counts the codewords whose pairs with
    every earlier one have d_c^2 above TOL.integer."""
    n_words = len(projectors)
    bases = np.stack([p.basis for p in projectors])
    dup = np.zeros(n_words, dtype=bool)         # equal to an earlier word
    sets, counts = [], []
    known = np.zeros((0, projectors[0].m))      # sets[k].sin_sq as rows
    for i in range(n_words - 1):
        cross = bases[i].conj().T @ bases[i + 1:]
        cos = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
        rest = np.sort(1.0 - cos ** 2, axis=1)
        dup[i + 1:] |= rest.sum(axis=1) <= config.TOL.integer
        j = i + 1                               # codeword of rest[0]
        while len(rest):
            hit = np.abs(rest[:, None, :] - known[None]).max(
                axis=2, initial=0.0) <= config.TOL.integer
            matched = hit.any(axis=1)
            stop = len(rest) if matched.all() else int(np.argmin(matched))
            if stop:
                for k, c in enumerate(np.bincount(hit[:stop].argmax(axis=1),
                                                  minlength=len(counts))):
                    counts[k] += int(c)
            if stop == len(rest):
                break
            sets.append(principal_angles(projectors[i], projectors[j + stop]))
            counts.append(1)
            known = np.vstack([known, sets[-1].sin_sq])
            rest, j = rest[stop + 1:], j + stop + 1
    return list(zip(sets, counts)), n_words - int(dup.sum())


def x_matrix(n, a):
    """The shift X(a) on C^n, n = 2^i: basis vector u goes to u + a over
    F_2^i."""
    m = np.zeros((n, n))
    for u in range(n):
        m[u ^ a, u] = 1.0
    return m


def y_matrix(n, b):
    """The sign Y(b) on C^n: the diagonal (-1)^{b.u}."""
    return np.diag([(-1.0) ** bin(b & u).count("1") for u in range(n)])


def _clifford_mul(p, q):
    """The labels (sign, a, b) of a product in the group of
    `codes.clifford_family`: X(a)Y(b) X(c)Y(d) = (-1)^{b.c} X(a+c)Y(b+d)."""
    s1, a, b = p
    s2, c, d = q
    return (s1 * s2 * (-1) ** (bin(b & c).count("1") & 1), a ^ c, b ^ d)


def clifford_family_by_search(i, r):
    """S_r as `codes.clifford_family(i, r)` returns it, by search: every
    r-combination of the involutions (a, b) != 0 with a.b even, in (a, b)
    order, whose members commute and are independent, the first of each
    subgroup kept; a subgroup's labels are the products of its combination
    over the bits of each exponent mask."""
    n = 1 << i
    invs = [(a, b) for a in range(n) for b in range(n)
            if (a, b) != (0, 0) and bin(a & b).count("1") % 2 == 0]
    seen = set()
    family = []
    for combo in itertools.combinations(invs, r):
        if any((bin(a & d).count("1") + bin(b & c).count("1")) % 2
               for (a, b), (c, d) in itertools.combinations(combo, 2)):
            continue
        canon = []
        for eps in range(1 << r):
            acc = (1, 0, 0)
            for t in range(r):
                if eps >> t & 1:
                    acc = _clifford_mul(acc, (1, *combo[t]))
            canon.append(acc)
        key = frozenset((a, b) for _, a, b in canon)
        if len(key) == 1 << r and key not in seen:
            seen.add(key)
            family.append(canon)
    return np.array(family, dtype=np.int64).transpose(2, 0, 1)


def clifford_projectors(i, r):
    """The projectors of `build_clifford_orthoplex(i, r)` in its order, one
    per subgroup S of `clifford_family_by_search(i, r)` and sign choice in
    `itertools.product((1, -1), repeat=r)` order: (1/2^r) sum over the
    labels (sign, a, b) of S of chi(g_eps) sign X(a) Y(b), with
    chi(g_eps) = prod signs[t]^eps_t, each element a dense product."""
    n = 1 << i
    out = []
    for canon in zip(*clifford_family_by_search(i, r)):
        mats = [sign * x_matrix(n, a) @ y_matrix(n, b)
                for sign, a, b in zip(*canon)]
        for signs in itertools.product((1, -1), repeat=r):
            chis = [math.prod(signs[t] for t in range(r) if eps >> t & 1)
                    for eps in range(1 << r)]
            out.append(sum(chi * mat for chi, mat in zip(chis, mats))
                       / (1 << r))
    return out


def clifford_labels_and_signs(i, r):
    """The arguments `build_clifford_orthoplex(i, r)` keys its pairs from:
    labels[s, e] = a + 2^i b over the labels (sign, a, b) of subgroup s of
    `clifford_family_by_search(i, r)`, and signs[2^r s + k, e] =
    chi(g_e) sign, with chi(g_e) = prod signs[t]^e_t for the k-th sign
    choice in `itertools.product((1, -1), repeat=r)` order."""
    sign, a, b = clifford_family_by_search(i, r)
    labels = a | b << i
    signs = []
    for row in sign:
        for choice in itertools.product((1, -1), repeat=r):
            signs.append([s * math.prod(choice[t] for t in range(r)
                                        if e >> t & 1)
                          for e, s in enumerate(row)])
    return labels, np.array(signs, dtype=np.int8)


def stabilizer_pair_keys(labels, signs, i, r):
    """The keys of `codes._stabilizer_keys` with the signs compared pair by
    pair: |K| and |M| from the label incidences of each subgroup pair, then,
    for every codeword pair with |K| > 1, each codeword's sign on every
    label of the other's subgroup (0 off it), gathered; a pair whose signs
    differ on a shared label gets the key (r + 1)^2 of a clash."""
    n_sub, size = labels.shape
    n_labels = 1 << 2 * i
    member = np.zeros((n_sub, n_labels), dtype=np.float32)
    member[np.arange(n_sub)[:, None], labels] = 1.0
    v = np.arange(n_labels)
    swapped = v >> i | (v & ((1 << i) - 1)) << i
    parity = np.array([bin(x).count("1") & 1 for x in range(n_labels)])
    perp = ~parity[labels[:, :, None] & swapped].any(axis=1)
    table = ((r + 1) * np.log2(member @ member.T)
             + np.log2(perp.astype(np.float32) @ member.T)).astype(np.int8)
    on_label = np.zeros((len(signs), n_labels), dtype=np.int8)
    on_label[np.arange(len(signs))[:, None],
             np.repeat(labels, size, axis=0)] = signs

    def keys(rows, cols):
        key = np.take(table[rows >> r], cols >> r, axis=1).astype(np.intp)
        shared = np.flatnonzero(key > r)        # pairs with |K| > 1
        a, b = divmod(shared, key.shape[1])
        theirs = on_label[cols[b][:, None], labels[rows[a] >> r]]
        clash = (signs[rows[a]] * theirs < 0).any(axis=1)
        key.flat[shared[clash]] = (r + 1) ** 2
        return key

    return keys


def trial_division_field(q):
    """GF(q) = F_p[x] / (x^k + f) by hand, as (add, mul, neg, inv,
    primitive): element i is the polynomial of its base-p digits, low first,
    x^k + f is the first monic polynomial, f taken in the order of the
    integers its digits spell, that no monic polynomial of degree 1..k/2
    divides, products are reduced by long division, and the primitive
    element is the least of multiplicative order q - 1."""
    p = next(p for p in range(2, q + 1) if q % p == 0)
    k = round(math.log(q, p))
    assert p ** k == q

    def poly(i, n=k):
        return [i // p ** j % p for j in range(n)]

    def number(coeffs):
        return sum(c * p ** j for j, c in enumerate(coeffs))

    def remainder(num, monic):
        rem = list(num)
        while len(rem) >= len(monic):
            lead, top = rem[-1], len(rem) - len(monic)
            for j, c in enumerate(monic):
                rem[top + j] = (rem[top + j] - lead * c) % p
            rem.pop()
        return rem

    def irreducible(monic):
        return all(any(remainder(monic, poly(tail, d) + [1]))
                   for d in range(1, k // 2 + 1) for tail in range(p ** d))

    modulus = next(m for m in (poly(tail) + [1] for tail in range(p ** k))
                   if irreducible(m))

    def times(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(poly(a)):
            for j, y in enumerate(poly(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        return number(remainder(prod, modulus))

    def order(c):
        x, n = c, 1
        while x != 1:
            x, n = times(x, c), n + 1
        return n

    add = [[number([(x + y) % p for x, y in zip(poly(a), poly(b))])
            for b in range(q)] for a in range(q)]
    mul = [[times(a, b) for b in range(q)] for a in range(q)]
    neg = [row.index(0) for row in add]
    inv = [0] + [row.index(1) for row in mul[1:]]
    primitive = next(c for c in range(1, q) if order(c) == q - 1)
    return add, mul, neg, inv, primitive


def reference_closure(gens, degree):
    """Element table by a plain breadth-first search: each frontier is swept
    generator by generator, and a product joins the table at its first
    occurrence; parent and generator index record the spanning tree."""
    ident = tuple(range(degree))
    rows, index, parent, via = [ident], {ident: 0}, [-1], [-1]
    frontier = [0]
    while frontier:
        nxt = []
        for gi, gen in enumerate(gens):
            for src in frontier:
                row = tuple(rows[src][x] for x in gen)      # rows[src] * gen
                if row not in index:
                    index[row] = len(rows)
                    rows.append(row)
                    parent.append(src)
                    via.append(gi)
                    nxt.append(index[row])
        frontier = nxt
    return rows, parent, via


def reference_right_tables(rows, gens):
    """right[s][i] = index of rows[i] * gens[s], by a dict of the rows."""
    index = {row: i for i, row in enumerate(rows)}
    return [[index[tuple(row[x] for x in gen)] for row in rows]
            for gen in gens]
