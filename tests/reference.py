"""Dense and brute-force references the tests hold the package against:
permutation matrices and their Kronecker powers, the isotypic projector by
the full class-sum formula, the two class-sum identities the equidistance
proof rests on, checked over whole groups, and the principal-angle census
of a code resolved pair by pair, and the Clifford codewords formed one
label at a time from dense shift and sign matrices.  The package itself
applies permutation carriers as index gathers, splits isotypic components
from a few class sums, checks the identity only in the form
`IsotypicContext.fonda2_residual`, takes its census from pair keys
(`codes.spa_census`) and forms the Clifford codewords as one stack from
label arrays (`codes.build_clifford_orthoplex`)."""
import itertools
import math
from dataclasses import dataclass

import numpy as np

from grasspack import config
from grasspack.codes import CliffordGroupData
from grasspack.characters import class_multiplication
from grasspack.grassmann import principal_angles
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


def clifford_projectors(i, r):
    """The projectors of `build_clifford_orthoplex(i, r)` in its order, one
    per subgroup S of `subgroup_family(r)` and sign choice in
    `itertools.product((1, -1), repeat=r)` order: (1/2^r) sum over the
    labels (sign, a, b) of S of chi(g_eps) sign X(a) Y(b), with
    chi(g_eps) = prod signs[t]^eps_t, each element a dense product."""
    data = CliffordGroupData(i)
    out = []
    for canon in data.subgroup_family(r):
        mats = [sign * x_matrix(data.n, a) @ y_matrix(data.n, b)
                for sign, a, b in canon]
        for signs in itertools.product((1, -1), repeat=r):
            chis = [math.prod(signs[t] for t in range(r) if eps >> t & 1)
                    for eps in range(1 << r)]
            out.append(sum(chi * mat for chi, mat in zip(chis, mats))
                       / (1 << r))
    return out
