"""Orbit codes from isotypic subspaces, bounds certification, products,
unions, and the Clifford-group orthoplex construction.

Dtypes follow the data, as in `reps` and `grassmann`: a real split and every
Clifford code give float64 bases, codewords and packed Gram rows; complex
arithmetic enters only with complex data or to part a conjugate pair.

The passes over a code's pairs and codewords, the character identity's
lookups and the Clifford key tables run in blocks of the package's one
working-memory budget, `config.BLOCK_BYTES`."""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import config
# compute_table is uncalled here; perfbench/test_bench.py checks its binding
from .characters import (character_table, compute_table, decompose,
                         inner_product)
from .grassmann import (GrassmannError, PrincipalAngleSet, SubspaceProjector,
                        chordal_sq_trace, orthoplex_bound, principal_angles,
                        product_distance, simplex_bound)
from .permgroup import NotASubgroup, PermGroup, Permutation
from .reps import (UnitaryRep, commutant_singular_values, coset_images,
                   isotypic_weights, restrict_rep)

TOL = config.TOL


def _narrow(a: np.ndarray, top: int) -> np.ndarray:
    """a in the narrowest signed integer dtype that holds -top..top."""
    return a.astype(np.min_scalar_type(-1 - top), copy=False)


class CodeError(config.GrasspackError):
    pass


class IdentityError(CodeError):
    """The character identity for d_c^2 failed by `residual`."""

    def __init__(self, residual: float):
        super().__init__(f"character identity residual {residual:.2e}")
        self.residual = residual


class StabilizerError(CodeError):
    """The orbit collapsed: the subspace stabilizer strictly contains H."""

    def __init__(self, expected_n, got_n, h_order):
        self.actual_stabilizer_order = h_order * expected_n // got_n
        super().__init__(
            f"orbit has {got_n} distinct subspaces, expected {expected_n}; "
            f"actual stabilizer order {self.actual_stabilizer_order} > {h_order}")


@dataclass(frozen=True)
class CodeParams:
    n: int
    m: int
    N: int
    d_c_sq_min: float
    d_tilde_min: float
    spa_sets: tuple[PrincipalAngleSet, ...]
    meets_simplex: bool
    meets_orthoplex: bool


@dataclass(frozen=True)
class GrassmannCode:
    projectors: tuple[SubspaceProjector, ...]
    params: CodeParams
    provenance: dict
    census: tuple[tuple[PrincipalAngleSet, int], ...] = ()
    keys: Callable | None = None      # pair keys, see spa_census


# ------------------------------------------------------------ census/params


@functools.lru_cache
def _packed_columns(n: int, width: int) -> np.ndarray:
    """Read-only indices into the float view of vec P, for an n x n P of
    `width` floats per entry (1 real, 2 complex), of the diagonal, then the
    real parts above it and, for a complex P, the imaginary parts."""
    iu, ju = np.triu_indices(n, k=1)
    upper = width * (iu * n + ju)
    parts = [width * (n + 1) * np.arange(n), upper, upper + 1]
    cols = np.concatenate(parts[:width + 1])
    cols.flags.writeable = False
    return cols


def _packed_rows(projectors) -> np.ndarray:
    """One row per Hermitian projector P, [diag P, sqrt2 Re P_ij, sqrt2 Im
    P_ij] (i < j), so that tr(PQ) = sum_i P_ii Q_ii + 2 sum_{i<j} (Re P_ij
    Re Q_ij + Im P_ij Im Q_ij) is the dot product of the rows of P and Q.
    The layout follows the code's dtype: a code of real projectors has no
    imaginary parts and takes n(n+1)/2 columns, one with any complex
    projector n^2, against the 2n^2 of the interleaved vec P.  The rows are
    packed into one array from stacks of projectors of about the byte
    budget (`config.blocks`)."""
    n = projectors[0].n
    real = not any(np.iscomplexobj(q.projector) for q in projectors)
    dtype, width = (float, 1) if real else (complex, 2)
    cols = _packed_columns(n, width)
    # in F order, so that x[lo:].T, the right factor of every Gram block,
    # is a row-major view: faster than C order at blocks of a few dozen rows
    rows = np.empty((len(cols), len(projectors))).T
    stacked = n * n * np.dtype(dtype).itemsize   # bytes of one projector
    for part in config.blocks(len(projectors), stacked):
        p = np.stack([q.projector for q in projectors[part]], dtype=dtype)
        rows[part] = np.take(p.reshape(len(p), -1).view(np.float64), cols,
                             axis=1)
    rows[:, n:] *= math.sqrt(2)
    return rows


def _chordal_blocks(projectors):
    """d_c^2 = m - tr(P_i P_j) streamed in blocks of codeword rows: yields
    (lo, block) with block[a, b] = d_c^2 of codewords lo + a and lo + b, so
    only entries above the diagonal are pairs.  A block spans the columns
    lo..N-1 and takes as many rows as fit the byte budget (`config.blocks`)
    at the full width N, so its bytes do not grow with N (past one row).
    The overlaps are one real product over the packed rows (`_packed_rows`)."""
    m = projectors[0].m
    x = _packed_rows(projectors)
    for part in config.blocks(len(x), x.itemsize * len(x)):
        block = x[part] @ x[part.start:].T
        yield part.start, np.subtract(m, block, out=block)


def spa_census(projectors, keys):
    """The one pass over a code's pairs: (census, distinct, residual).  The
    census lists the distinct principal-angle sets over unordered pairs with
    pair counts, and `distinct` counts the codewords equal to no earlier one
    (d_c^2 at most TOL.integer).

    `keys(rows, cols)` gives the keys of the pairs rows x cols as small
    non-negative integers of any integer dtype, equal for (a, b) and
    (b, a), such that two pairs with one key have the same principal
    angles; a codeword paired with itself is a pair like any other.  The
    keys are read at their own width, and copied only to put them in C
    order.  The pairs are counted per key, one `principal_angles` is taken
    per key on its first pair in row-major order, and keys whose sets match
    to within TOL.integer are merged in that order.  The Gram streamed from
    `_chordal_blocks` is the cross-check: every pair's d_c^2 must equal its
    key's set's within TOL.rel_distance max(value, 1), else CodeError
    naming the worst pair; `residual` is the worst relative residual.  The
    cross-check reads d_c^2 only, so a key coarser than the angle sets
    whose sets share d_c^2 would pass it: each builder's keys are held
    against a pairwise reference in the tests.  Distinctness is read from
    the Gram.

    The Gram's row blocks are about `config.BLOCK_BYTES` (`_chordal_blocks`),
    and a block's keys and residuals are arrays of its shape, so the working
    memory beside the packed rows does not grow with N.  The census and its
    order of first pairs do not depend on the block size, nor does the
    residual beyond the Gram's rounding."""
    n_words = len(projectors)
    if n_words < 2:
        return [], n_words, 0.0
    first = projectors[0]
    for p in projectors[1:]:
        if p.n != first.n:
            raise GrassmannError(f"ambient mismatch {first.n} != {p.n}")
        if p.m != first.m:
            raise GrassmannError(f"dimension mismatch {first.m} != {p.m}")
    dup = np.zeros(n_words, dtype=bool)         # equal to an earlier word
    counts = np.zeros(0, dtype=np.int64)        # pairs per key
    want = np.zeros(0)                          # d_c^2 per key
    found = []                                  # (key, set), pair order
    worst, worst_pair = 0.0, (0, 1)
    for lo, block in _chordal_blocks(projectors):
        # in C order: every pass below would stride across an F-order block;
        # the keys are only read, so keys already in that form are not copied
        key = np.require(keys(np.arange(lo, lo + len(block)),
                              np.arange(lo, n_words)), requirements="C")
        if key.shape != block.shape or key.dtype.kind not in "iu":
            raise CodeError(f"pair keys of shape {key.shape} and dtype "
                            f"{key.dtype} for a Gram block of shape "
                            f"{block.shape}")
        below = np.tril_indices(len(block))     # (a, b) with b <= a: no pair
        per_key = np.bincount(key.ravel(), minlength=len(counts))
        per_key -= np.bincount(key[below], minlength=len(per_key))
        if len(per_key) > len(counts):
            grow = len(per_key) - len(counts)
            counts, want = np.pad(counts, (0, grow)), np.pad(want, (0, grow))
        new = np.flatnonzero((per_key > 0) & (counts == 0))
        counts += per_key
        firsts = []
        for k in new:
            hit = key == k
            hit[below] = False
            firsts.append((int(np.argmax(hit)), int(k)))
        for at, k in sorted(firsts):
            i, j = divmod(at, key.shape[1])
            s = principal_angles(projectors[lo + i], projectors[lo + j])
            want[k] = s.chordal_sq()
            found.append((k, s))
        block[below] = np.inf
        dup[lo:] |= (block <= TOL.integer).any(axis=0)
        # the block becomes |d_c^2 - want| / max(want, 1), from one gather
        scale = np.take(want, key)
        block -= scale
        np.abs(block, out=block)
        block /= np.maximum(scale, 1.0, out=scale)
        block[below] = 0.0
        at = int(np.argmax(block))
        if block.flat[at] > worst:
            i, j = divmod(at, key.shape[1])
            worst, worst_pair = float(block.flat[at]), (lo + i, lo + j)
        del key, scale          # not held while the next block is formed
    if worst > TOL.rel_distance:
        raise CodeError(f"census: pair {worst_pair} misses its key's d_c^2 "
                        f"by relative residual {worst:.2e} > "
                        f"{TOL.rel_distance:.0e}")
    census: list[list] = []                     # [set, count], merged
    for k, s in found:
        hit = next((e for e in census if e[0].matches(s)), None)
        if hit is None:
            census.append([s, int(counts[k])])
        else:
            hit[1] += int(counts[k])
    return [tuple(e) for e in census], n_words - int(dup.sum()), worst


def _assemble(projectors, provenance, keys,
              stabilizer_order=None) -> GrassmannCode:
    """The code of `projectors`, certified from one `spa_census` pass under
    the pair `keys`.  A repeated codeword is a StabilizerError for an orbit
    of a subgroup of order `stabilizer_order`, else a CodeError."""
    n, m, big_n = projectors[0].n, projectors[0].m, len(projectors)
    census, distinct, residual = spa_census(projectors, keys)
    if distinct != big_n:
        if stabilizer_order is None:
            raise CodeError(f"{big_n - distinct} of {big_n} codewords "
                            f"repeat an earlier one")
        raise StabilizerError(big_n, distinct, stabilizer_order)
    provenance["census_residual"] = residual
    d_min = min(s.chordal_sq() for s, _ in census) if census else 0.0
    dt_min = min(product_distance(s) for s, _ in census) if census else 0.0
    sb = simplex_bound(n, m, big_n)
    ob = orthoplex_bound(n, m, big_n)
    meets_s = abs(d_min - sb.value) <= TOL.rel_distance * sb.value
    meets_o = ob.attainable and abs(d_min - ob.value) <= \
        TOL.rel_distance * max(ob.value, 1.0)
    params = CodeParams(n=n, m=m, N=big_n, d_c_sq_min=d_min,
                        d_tilde_min=dt_min,
                        spa_sets=tuple(s for s, _ in census),
                        meets_simplex=meets_s, meets_orthoplex=meets_o)
    return GrassmannCode(projectors=tuple(projectors), params=params,
                         provenance=provenance, census=tuple(census),
                         keys=keys)


def _within_pair_budget(what: str, big_n: int):
    """CodeError naming the count and `config.PAIR_BUDGET` if `big_n`
    codewords make more pairs than it; called before any codeword is
    formed."""
    pairs = big_n * (big_n - 1) // 2
    if pairs > config.PAIR_BUDGET:
        raise CodeError(f"{what}: {big_n:,} codewords make {pairs:,} pairs, "
                        f"over the pair budget {config.PAIR_BUDGET:,}")


def _suborbit_keys(orbitals: np.ndarray, t: int = 1):
    """Pair keys of the union of t orbits of one context, codeword o N + a
    being u_a W_o.  The pair (u_a W_o, u_b W_p) is unitarily equivalent to
    (W_o, u_a^-1 u_b W_p), so it is labelled (o, p, orbitals[a, b]); its
    key is the lesser of its two labels, one per order of the pair."""
    n, width = len(orbitals), int(orbitals.max()) + 1

    def labels(rows, cols):
        (o, a), (p, b) = divmod(rows, n), divmod(cols, n)
        return (o[:, None] * t + p) * width + orbitals[a[:, None], b]

    return lambda rows, cols: np.minimum(labels(rows, cols),
                                         labels(cols, rows).T)


# ------------------------------------------------------------ orbit builds


class IsotypicContext:
    """Shared machinery for building several codes from one (G, H, rho):
    the restricted representation, its isotypic split, the transversal
    images and the restriction decomposition are computed once.  It is the
    one place where an isotypic projector (`subspace`), its dimension and
    its orbit (`orbit`) are formed.

    H is a point stabilizer `G.stabilizer(p)`, and the codewords are indexed
    by its Schreier tree's coset reps; any other H is a CodeError.  Nothing
    here walks G: rho|H comes from words (`UnitaryRep.image`), each
    transversal image from its parent's along the Schreier tree, one product
    apiece (`coset_images`), and the multiplicities from rho|H's character at
    the class representatives of H.  The isotypic components come from the
    class sums of a few small classes of H (`_isotypic_split`), not from a
    sum over all of H.  Irreducibility is <chi, chi> = 1 when G has an
    element table, else Schur's lemma on the generator images.

    The pair (u_a W, u_b W) is unitarily equivalent to (W, u_a^-1 u_b W),
    so two pairs in one suborbit (`PermGroup.orbitals`) have the same
    principal angles, and the census takes one SVD per suborbit."""

    def __init__(self, g: PermGroup, h: PermGroup, rho: UnitaryRep):
        if rho.group is not g:
            raise CodeError("representation does not belong to G")
        try:
            transversal = g.coset_transversal(h)
        except NotASubgroup as err:
            raise CodeError(str(err)) from None
        self.checks = _check_irreducible(rho)
        self.g, self.h, self.rho = g, h, rho
        self.rho_h = restrict_rep(rho, h)
        self.decomposition = decompose(self.rho_h.character().values,
                                       character_table(h))
        self._bases, self.checks["isotypic_split"] = _isotypic_split(
            self.rho_h, self.decomposition.multiplicities)
        self.n_cosets = transversal.count
        self.t_images = coset_images(transversal, rho.gen_images, rho.dim)
        self.orbitals = g.orbitals(h)
        self.keys = _suborbit_keys(self.orbitals)

    def subspace(self, chars) -> tuple[SubspaceProjector, int]:
        chars = list(chars)
        if not chars:
            raise CodeError("empty character subset")
        m = self.dimension(chars)
        if m == 0:
            raise CodeError("W is the zero subspace for this character subset")
        if m == self.rho.dim:
            raise CodeError("W is the full space for this character subset")
        basis = np.concatenate([self._bases[int(i)] for i in chars], axis=1)
        pi = SubspaceProjector(basis @ basis.conj().T, basis=basis)
        tr = np.trace(pi.projector)
        if abs(tr - m) > TOL.integer:
            raise CodeError(f"projector trace {tr.real:.6f} != dimension {m}")
        return pi, m

    def orbit(self, pi_w: SubspaceProjector) -> list[SubspaceProjector]:
        """u W for each coset rep u, in transversal order: u P u^H for every
        rep as one batched product, checked as one stack."""
        u = self.t_images
        return SubspaceProjector.stack(
            u @ pi_w.projector @ u.conj().transpose(0, 2, 1))

    def build(self, chars) -> GrassmannCode:
        _within_pair_budget(f"orbit of {self.h.name} in {self.g.name}",
                            self.n_cosets)
        pi_w, m = self.subspace(chars)
        prov = {"group": self.g.name, "subgroup": self.h.name,
                "subgroup_order": self.h.order, **self.h.provenance,
                **self.checks, "rep": self.rho.name,
                "rep_provenance": self.rho.provenance,
                "chars": [int(c) for c in chars]}
        return _assemble(self.orbit(pi_w), prov, self.keys, self.h.order)

    def fonda2_residual(self, chars, elem: Permutation) -> float:
        """Relative residual between the double-sum character expression for
        d_c^2(W, gW) and the trace computation; IdentityError above
        TOL.integer."""
        g, h, rho = self.g, self.h, self.rho
        pi_w, m = self.subspace(chars)
        u = rho.image(elem)
        lhs = chordal_sq_trace(
            pi_w, SubspaceProjector(u @ pi_w.projector @ u.conj().T))

        e_by_class = h.order * isotypic_weights(character_table(h), chars)
        e_vals = e_by_class[h.conjugacy_classes().class_of]   # per H element

        chi_rho = rho.character().values
        g_class_of = g.conjugacy_classes().class_of
        ginv = elem.inverse()
        # rows of g h2 g^-1 for every h2 in H
        conj_rows = elem.images[h.rows[:, ginv.images.astype(np.intp)]]
        total = 0.0 + 0.0j
        # products h1 (g h2 g^-1) for a block of h1 and every h2, looked up
        # at an intp a point, as `PermGroup.row_blocks` counts a lookup
        for part in config.blocks(h.order, 8 * g.degree * h.order):
            prods = h.rows[part][:, conj_rows].reshape(-1, g.degree)
            cls = g_class_of[g.lookup_rows(prods)].reshape(-1, h.order)
            total += e_vals[part] @ (chi_rho[cls] @ e_vals)
        rhs = m - (total / h.order ** 2).real
        residual = abs(lhs - rhs) / max(1.0, abs(lhs))
        if residual > TOL.integer:
            raise IdentityError(residual)
        return residual

    def dimension(self, chars) -> int:
        """m = sum of lambda_i deg_i over the chosen H-characters: the
        dimension of the sum of their isotypic components in rho|H."""
        lam = self.decomposition.multiplicities
        chars = [int(i) for i in chars]
        bad = [i for i in chars if not 0 <= i < len(lam)]
        if bad:
            raise CodeError(f"character indices {bad} out of range "
                            f"0..{len(lam) - 1}")
        if len(set(chars)) != len(chars):
            raise CodeError(f"repeated character index in {chars}")
        degs = character_table(self.h).degrees()
        return int(sum(int(lam[i]) * int(degs[i]) for i in chars))


#: the split's predicted eigenvalues must lie at least this fraction of
#: sum_c 2|w_c||C| apart, where C runs over the summed classes
SPLIT_GAP = 0.01

#: unit weights w = exp(i theta), theta in [0, pi), tried for each class
#: pair; -w gives the same term negated, so no wider range is needed
_SPLIT_WEIGHTS = np.exp(1j * np.pi * np.arange(16) / 16)


def _isotypic_split(rho_h: UnitaryRep, lam: np.ndarray) -> tuple[dict, dict]:
    """An orthonormal basis of each isotypic component of rho|H, keyed by
    row of H's table (an empty one where lam is 0), and the split's margins.

    A class sum acts on the chi_i-component as the scalar
    omega_i(C) = |C| chi_i(c) / chi_i(1).  Pairs {C, C^-1} are walked
    cheapest first, skipping a pair whose omega is equal on every two
    constituents that are still too close.  Each pair taken adds the
    Hermitian term w rho(C^) + conj(w) rho(C^)^H, whose eigenvalue on the
    chi_i-component is 2 Re(w omega_i(C)), with the unit weight w that
    spreads the predicted eigenvalues of the present constituents most.
    Complex weights separate a complex-conjugate pair of constituents.  A
    real rho|H whose present omega are real keeps Re w alone: rho(C^)^T =
    rho(C^-1) acts as omega_i(C) too, so the split is real.  The pairs stop
    once those eigenvalues lie `SPLIT_GAP` of sum 2|w||C| apart; on every
    class the central characters determine the constituent, so only a
    near-tie of the weighted sums can exhaust them, and that is a
    CodeError.

    `eigh` of the summed matrix then gives each eigenvector to its nearest
    predicted eigenvalue.  Each component must get lam_i deg_i of them and
    commute with rho|H's generators to within TOL.ortho."""
    table = character_table(rho_h.group)
    cc = table.classes
    degs = table.degrees()
    present = [int(i) for i in np.flatnonzero(lam)]
    omega = np.array([cc.sizes * table.irreducibles[i].values / degs[i]
                      for i in present]).reshape(len(present), -1)
    inv = rho_h.group.conjugacy_classes().inverse
    pairs = sorted((c for c in range(1, cc.n_classes) if c <= inv[c]),
                   key=lambda c: (int(cc.sizes[c]), c))
    iu, ju = np.triu_indices(len(present), k=1)
    predicted = np.zeros(len(present))
    chosen, weights = [], []
    scale = 0
    rel_gap = float("inf") if len(present) < 2 else 0.0
    for c in pairs:
        if rel_gap >= SPLIT_GAP:
            break
        size = 2 * int(cc.sizes[c])
        apart = predicted[iu] - predicted[ju]
        parted = omega[iu, c] - omega[ju, c]
        # a pair with equal omega keeps its distance whatever the weight
        movable = np.abs(parted) > TOL.integer * size
        if not (movable & (np.abs(apart) < SPLIT_GAP * (scale + size))).any():
            continue                # it parts no pair that is still too close
        trial = np.abs(apart + 2 * (_SPLIT_WEIGHTS[:, None] * parted).real)
        best = int(np.argmax(trial[:, movable].min(axis=1)))
        predicted = predicted + 2 * (_SPLIT_WEIGHTS[best] * omega[:, c]).real
        scale += size
        rel_gap = float(trial[best].min()) / scale
        chosen.append(c)
        weights.append(_SPLIT_WEIGHTS[best])
    if rel_gap < SPLIT_GAP:
        raise CodeError(f"isotypic split: no classes separate the "
                        f"constituents, relative gap {rel_gap:.2e}")

    weights = np.array(weights)
    if rho_h.dtype == np.float64 and np.abs(omega.imag).max() <= TOL.integer:
        weights = weights.real
    term = np.tensordot(weights, rho_h.class_sums(chosen), axes=(0, 0))
    evals, evecs = np.linalg.eigh(term + term.conj().T)
    nearest = np.abs(evals[:, None] - predicted[None, :]).argmin(axis=1)
    bases = {i: evecs[:, :0] for i in range(len(lam))}
    worst = 0.0
    for k, i in enumerate(present):
        basis = evecs[:, nearest == k]
        want = int(lam[i]) * int(degs[i])
        if basis.shape[1] != want:
            raise CodeError(f"isotypic split gives constituent {i} "
                            f"{basis.shape[1]} dimensions, expected {want}")
        p = basis @ basis.conj().T
        for a in rho_h.gen_images:
            worst = max(worst, float(np.abs(a @ p - p @ a).max()))
        bases[i] = basis
    if worst > TOL.ortho:
        raise CodeError(f"isotypic split commutator residual {worst:.2e} "
                        f"exceeds {TOL.ortho:.0e}")
    return bases, {"classes": [[c, int(cc.sizes[c])] for c in chosen],
                   "rel_gap": rel_gap, "commutator_residual": worst}


def _check_irreducible(rho: UnitaryRep) -> dict:
    """CodeError unless rho is irreducible; the Schur gap when G has no
    table (the second-smallest commutant singular value, whose vanishing
    would mean a commutant beyond the scalars)."""
    if rho.group.is_enumerated:
        chi = rho.character()
        if abs(inner_product(chi, chi) - 1) > TOL.integer:
            raise CodeError("representation is not irreducible")
        return {}
    sv = commutant_singular_values(rho)
    gap = float(sv[1]) if len(sv) > 1 else float("inf")
    if gap <= TOL.integer:
        raise CodeError(f"representation is not irreducible: Schur's lemma "
                        f"fails, commutant dimension "
                        f"{int((sv <= TOL.integer).sum())}")
    return {"schur_gap": gap}


# -------------------------------------------------------------- prediction


def predict_from_dimensions(n: int, m: int, big_n: int) -> CodeParams:
    """Parameters implied by the equidistant-orbit theorem; nothing is built."""
    if m <= 0 or m >= n:
        raise CodeError(f"m = {m} out of range for n = {n}")
    bound = simplex_bound(n, m, big_n)
    return CodeParams(n=n, m=m, N=big_n, d_c_sq_min=bound.value,
                      d_tilde_min=float("nan"), spa_sets=(),
                      meets_simplex=bound.attainable, meets_orthoplex=False)


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class SimplexReport:
    d_min: float
    d_max: float
    bound: float
    rel_gap: float
    equidistant: bool
    certified: bool


def verify_simplex(code: GrassmannCode) -> SimplexReport:
    p = code.params
    dists = [s.chordal_sq() for s, _ in code.census]
    d_min, d_max = min(dists), max(dists)
    bound = simplex_bound(p.n, p.m, p.N).value
    equi = (d_max - d_min) <= TOL.rel_distance * max(d_max, 1.0)
    return SimplexReport(d_min=d_min, d_max=d_max, bound=bound,
                         rel_gap=(bound - d_min) / bound, equidistant=equi,
                         certified=p.meets_simplex)


# ------------------------------------------------------------------ unions


def build_union_code(g: PermGroup, h: PermGroup, rho: UnitaryRep,
                     char_subsets) -> GrassmannCode:
    """Union of the orbits of several isotypic sums W_1..W_t (disjoint
    character subsets, equal dimension, pairwise orthogonal).

    For t >= 2 the minimum distance is the cross-orbit different-coset
    value, realized at the per-orbit cardinality |G/H|; the build verifies
    the brute-forced minimum against that prediction.  Same-coset cross
    pairs sit at distance m (orthogonal components); within-orbit pairs sit
    at the single-orbit equidistant value.  Up to three distinct distances
    occur; the within-orbit value collapses onto m exactly when
    n = m |G/H|."""
    subsets = [list(s) for s in char_subsets]
    flat = [c for s in subsets for c in s]
    if len(set(flat)) != len(flat):
        raise CodeError("character subsets overlap")
    ctx = IsotypicContext(g, h, rho)
    _within_pair_budget(f"union of {len(subsets)} orbits of {h.name} in "
                        f"{g.name}", len(subsets) * ctx.n_cosets)
    ws = [ctx.subspace(s) for s in subsets]
    ms = {m for _, m in ws}
    if len(ms) != 1:
        raise CodeError(f"component dimensions differ: {sorted(ms)}")
    m = ms.pop()
    for (wa, _), (wb, _) in itertools.combinations(ws, 2):
        if np.abs(wa.projector @ wb.projector).max() > TOL.ortho:
            raise CodeError("component subspaces are not orthogonal")
    projectors = [p for w, _ in ws for p in ctx.orbit(w)]
    big_n = len(projectors)
    n = rho.dim
    cross_min = union_min_distance_formula(n, m, ctx.n_cosets)
    prov = {"group": g.name, "subgroup": h.name, "rep": rho.name,
            "char_subsets": [list(map(int, s)) for s in subsets],
            "predicted_min_d_c_sq": cross_min,
            "formula_at_total_count": union_min_distance_formula(n, m, big_n)}
    code = _assemble(projectors, prov, _suborbit_keys(ctx.orbitals, len(ws)),
                     h.order)
    if len(subsets) >= 2:
        got = code.params.d_c_sq_min
        if abs(got - cross_min) > TOL.rel_distance * max(cross_min, 1.0):
            raise CodeError(
                f"union minimum {got} != predicted {cross_min}")
    return code


def union_min_distance_formula(n: int, m: int, big_n: int) -> float:
    """K/(K-1) * m(n - m - n/K)/n at K = big_n.

    The cross-orbit minimum of a union is this expression at K = |G/H|
    (the per-orbit cardinality), independent of how many orbits are
    joined."""
    return (big_n / (big_n - 1)) * m * (n - m - n / big_n) / n


# ------------------------------------------------------- Kronecker algebra


def kron_extend(code: GrassmannCode, k: int) -> GrassmannCode:
    """Pad each projector to I_k tensor Pi: scales n, m, d_c^2 by k."""
    if k < 1:
        raise CodeError("k must be >= 1")
    if k == 1:
        return code
    eye = np.eye(k)
    projectors = [SubspaceProjector(np.kron(eye, p.projector))
                  for p in code.projectors]
    prov = dict(code.provenance)
    prov["kron_extend"] = k
    return _assemble(projectors, prov, code.keys)


def kron_product(code1: GrassmannCode, code2: GrassmannCode) -> GrassmannCode:
    """All pairwise Kronecker products; min distance is verified downstream
    against min(m1 d2^2, m2 d1^2).  The cosines of a pair of products are
    the products of the factors' cosines, so a pair's key is the pair of
    its factor keys, numbered by Cantor's pairing."""
    if not code1.projectors or not code2.projectors:
        raise CodeError("empty factor code")
    _within_pair_budget("Kronecker product", code1.params.N * code2.params.N)
    projectors = [SubspaceProjector(np.kron(p.projector, q.projector))
                  for p in code1.projectors for q in code2.projectors]
    prov = {"kron_product": [code1.provenance, code2.provenance],
            "expected_min": min(code1.params.m * code2.params.d_c_sq_min,
                                code2.params.m * code1.params.d_c_sq_min)}
    n2 = len(code2.projectors)

    def keys(rows, cols):
        # the factor keys may be narrow; their pairing is not
        a = code1.keys(rows // n2, cols // n2).astype(np.intp)
        b = code2.keys(rows % n2, cols % n2).astype(np.intp)
        return (a + b) * (a + b + 1) // 2 + b

    return _assemble(projectors, prov, keys)


# ------------------------------------------------------- Clifford orthoplex


def clifford_count(i: int, r: int) -> int:
    """|S_r|, the number of totally singular r-spaces of O+(2i, 2):
    prod_{j<r} (2^(i-j) - 1)(2^(i-j-1) + 1) / (2^(j+1) - 1), counted
    without forming S_r."""
    num = den = 1
    for j in range(r):
        num *= ((1 << i - j) - 1) * ((1 << i - j - 1) + 1)
        den *= (1 << j + 1) - 1
    return num // den


def clifford_family(i: int, r: int) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """S_r: the abelian subgroups <-I, g_1..g_r> of commuting involutions
    of the real extraspecial-type group E = <X(a), Y(b)> in dimension 2^i,
    where X(a) maps basis vector u to u + a and Y(b) is the diagonal
    (-1)^{b.u}.  An element is the label (sign, a, b) of sign X(a)Y(b), and
    X(a)Y(b) X(c)Y(d) = (-1)^{b.c} X(a+c)Y(b+d); the involutions up to sign
    are the labels (a, b) != 0 with a.b even.  S_r is returned as (sign, a,
    b) int64 arrays of shape (|S_r|, 2^r), the labels of the products of
    the g_t over the bits of each exponent mask.

    Each subgroup comes once, from its least basis: g_1 is its least
    involution in (a, b) order and g_(k+1) the least outside <g_1..g_k>.
    So S_(k+1) extends each L in S_k by every involution v after g_k that
    commutes with L (a.d + b.c even) and is the least label of v + L; the
    new half of the labels is L's XOR v, with signs times (-1)^{b.a_v}.
    The subgroups come in the order of their least bases."""
    n = 1 << i
    odd = np.array([bin(v).count("1") & 1 for v in range(n * n)])
    w = np.arange(1, n * n)                     # a 2^i + b
    invs = w[odd[(w >> i) & w] == 0]
    swapped = (invs & n - 1) << i | invs >> i   # <l, v> = parity(l & v')
    sign = np.ones((1, 1), dtype=np.int64)
    label = np.zeros((1, 1), dtype=np.int64)
    last = np.full(1, -1)
    for _ in range(r):
        ok = invs > last[:, None]
        for col in label.T:     # one label of L at a time keeps the peak down
            ok &= odd[col[:, None] & swapped] == 0
            ok &= (col[:, None] ^ invs) >= invs
        s, at = np.nonzero(ok)
        last = invs[at]
        flip = 1 - 2 * odd[label[s] & n - 1 & (last >> i)[:, None]]
        sign = np.concatenate([sign[s], sign[s] * flip], axis=1)
        label = np.concatenate([label[s], label[s] ^ last[:, None]], axis=1)
    return sign, label >> i, label & n - 1


def build_clifford_orthoplex(i: int, r: int = 1) -> GrassmannCode:
    """Projectors (1/|S|) sum chi(s) s over S in S_r and characters with
    chi(-I) = -1; for r = 1 the distances are {m, m/2} and the orthoplex
    bound is met whenever N > n(n+1)/2.  S_r is empty unless 1 <= r <= i.

    Each codeword is a stabilizer code: the joint +1 eigenspace of the
    signed elements of one S, whose 2^r codewords are consecutive, one per
    sign choice in `itertools.product((1, -1), repeat=r)` order.  All are
    formed as one stack from the label arrays: (sign X(a)Y(b))[u + a, u] =
    sign (-1)^{b.u}, so one vectorised step per element e of S adds
    chi(g_e) sign_e (-1)^{b_e.u} / 2^r at [u + a_e, u] of every codeword.
    The entries are multiples of 2^-r, so the sums are exact, and
    `SubspaceProjector.stack` checks the stack.  The census keys its pairs
    from the labels and signs (`_stabilizer_keys`), so every principal-angle
    set is listed, at any N; the keys are tabulated per pair of subgroups,
    not per pair of codewords.  N = 2^r |S_r| is counted first
    (`clifford_count`): more than `config.PAIR_BUDGET` pairs is a
    CodeError, raised before S_r is formed (`clifford_family`)."""
    if not 1 <= i <= 5:
        raise CodeError("i must be between 1 and 5")
    if not 1 <= r <= i:
        raise CodeError(f"r must be between 1 and i = {i}")
    _within_pair_budget(f"clifford ({i}, {r})", clifford_count(i, r) << r)
    sign, a, b = clifford_family(i, r)          # (subgroup, element e)
    n_sub, size, n = len(sign), 1 << r, 1 << i
    # chi(g_e) = prod signs[t]^eps_t over the bits eps_t of e, for each
    # sign choice; the canonical sign of g_e is in `sign`, matching chi's
    # multiplicativity
    choices = np.array(list(itertools.product((1, -1), repeat=r)))
    eps = np.arange(size)[:, None] >> np.arange(r) & 1
    chis = np.where(eps, choices[:, None, :], 1).prod(axis=2)
    coef = chis[None] * sign[:, None, :]        # (subgroup, choice, e)
    u = np.arange(n)
    odd = np.array([bin(v).count("1") & 1 for v in range(n)])
    pis = np.zeros((n_sub, size, n, n))
    at_s, at_k = np.arange(n_sub)[:, None, None], np.arange(size)[:, None]
    for e in range(size):
        y = (1 - 2 * odd[b[:, e, None] & u]) / size    # (subgroup, u)
        rows = (a[:, e, None] ^ u)[:, None, :]
        pis[at_s, at_k, rows, u] += coef[:, :, e, None] * y[:, None, :]
    projectors = SubspaceProjector.stack(pis.reshape(-1, n, n))
    labels = a | b << i
    prov = {"clifford_i": i, "r": r, "n_subgroups": n_sub}
    keys = _stabilizer_keys(labels, coef.reshape(-1, size).astype(np.int8),
                            i, r)
    return _assemble(projectors, prov, keys, 1 << (r + 1))


def _stabilizer_keys(labels: np.ndarray, signs: np.ndarray, i: int, r: int):
    """Pair keys of stabilizer codewords in dimension 2^i.  Codeword
    A = 2^r s + k is the joint +1 eigenspace of signs[A, e] X(a)Y(b) over
    the labels l = a + 2^i b = labels[s, e] of the totally singular r-space
    L_A.  Let K = L_A & L_B and M = L_B & L_A^perp under the symplectic form
    a.d + b.c.  Where the signs of A and B differ somewhere on K, every
    principal angle is pi/2: key (r+1)^2.  Otherwise cos^2 = |M|/2^r with
    multiplicity 2^(i-r) |K|/|M| and every other angle is pi/2, so
    d_c^2 = 2^(i-r) - |K| 2^(i-2r): key (r+1) log2|K| + log2|M|.

    A key depends on the pair of subgroups (s, t) and on the sign choices
    k and l within them, so it is tabulated once per subgroup pair: a small
    code, `code[s, t]`, picks the 2^r x 2^r table `lut[code]` of the keys
    over (k, l), and a pair's key is one gather of `code` and one of `lut`.
    |K| and |M| come from label incidences.  Where |K| > 1, whether the
    signs agree on K is a pattern in (k, l) fixed by the position in t of
    each label of s, by whether sign choice 0 of s and of t agree there, and
    by each subgroup's signs relative to its choice 0.  The subgroup pairs
    fall into few such kinds with their key (29 for i = 4, r = 2), and each
    kind's pattern is read off its first pair.  The codes below (r + 1)^2
    are the subgroup pairs with |K| = 1, whose key is the same for every
    (k, l).

    The n_sub x n_sub tables are one byte an entry: |K| and |M| are float32
    products formed a chunk of subgroup rows of about the byte budget
    (`config.blocks`) at a time, each chunk's key written straight to the
    int8 table, and the shared pairs' indices, kinds and positions are held
    at the width their range needs.  So are `code` and `lut`, and a pair's
    key is one byte."""
    n_sub, size = labels.shape
    n_labels = 1 << 2 * i
    member = np.zeros((n_sub, n_labels), dtype=np.float32)
    member[np.arange(n_sub)[:, None], labels] = 1.0
    # <l, w> = a.d + b.c = parity of l & w', w' = w with its halves swapped
    v = np.arange(n_labels)
    swapped = v >> i | (v & ((1 << i) - 1)) << i
    odd = np.array([bin(x).count("1") & 1 for x in range(n_labels)], bool)
    # each chunk's (r + 1) log2|K| + log2|M|, written to the table
    table = np.empty((n_sub, n_sub), dtype=np.int8)
    for part in config.blocks(n_sub, member.itemsize * n_sub):
        rows = labels[part]
        perp = np.ones((len(rows), n_labels), dtype=bool)
        for e in range(size):   # one label at a time keeps the peak down
            perp &= ~odd[rows[:, e, None] & swapped]
        size_k = member[part] @ member.T                # |K|, then the key
        np.log2(size_k, out=size_k)
        size_k *= r + 1
        size_m = perp.astype(np.float32) @ member.T     # |M|
        size_k += np.log2(size_m, out=size_m)
        table[part] = size_k
    del member, perp, size_k, size_m   # not held while the kinds are formed
    # the pairs with |K| > 1, each of one kind: its key, the signs of both
    # subgroups relative to their sign choice 0, numbered, and for each
    # label of s, +-(2p + 1) if it sits at position p of t, + where choice
    # 0 of s and of t agree there, else 0; as one integer, renumbered
    # before it would overflow
    blocks = signs.reshape(n_sub, size, size)
    ratio = (blocks * blocks[:, :1]).reshape(n_sub, -1)
    row = np.dtype((np.void, ratio.itemsize * ratio.shape[1]))
    _, ratio_of = np.unique(ratio.view(row), return_inverse=True)
    ratio_of = ratio_of.ravel()
    n_ratios = ratio_of.max() + 1
    place = np.zeros((n_sub, n_labels), dtype=np.min_scalar_type(-2 * size))
    place[np.arange(n_sub)[:, None], labels] = \
        (2 * np.arange(size) + 1) * blocks[:, 0]
    shared = _narrow(np.flatnonzero(table > r), n_sub * n_sub)
    s, t = np.divmod(shared, n_sub)
    at_t = _narrow(t.astype(np.intp) * n_labels, n_sub * n_labels)
    s, t = _narrow(s, n_sub), _narrow(t, n_sub)
    kind = table.flat[shared].astype(np.int64)
    kind = (kind * n_ratios + ratio_of[s]) * n_ratios + ratio_of[t]
    for e in range(size):
        if kind.max() >= np.iinfo(np.int64).max // (4 * size):
            kind = np.unique(kind, return_inverse=True)[1].ravel()
        kind = kind * (4 * size) + 2 * size + (
            np.take(place, labels[s, e] + at_t) * blocks[s, 0, e])
    _, first, kind = np.unique(kind, return_index=True, return_inverse=True)
    clash = (r + 1) ** 2
    # each pair's code: its kind, numbered after the codes of |K| = 1
    kind = _narrow(kind.ravel() + clash, len(first) + clash)
    # each kind's (k, l) tables, from its first pair: where the signs
    # agree on K, its key, else the key of a clash; the agreement is taken
    # one label e of s at a time
    s, t = s[first], t[first]
    p = (np.abs(np.take(place, labels[s] + at_t[first, None])) - 1) // 2
    theirs = np.take_along_axis(blocks[t], np.maximum(p, 0)[:, None],
                                axis=2)                 # (kind, l, e)
    agree = np.ones((len(first), size, size), dtype=bool)   # (kind, k, l)
    for e in range(size):
        agree &= ((blocks[s, :, None, e] == theirs[:, None, :, e])
                  | (p[:, e] < 0)[:, None, None])
    lut = _narrow(np.concatenate([
        np.broadcast_to(np.arange(clash)[:, None, None], (clash, size, size)),
        np.where(agree, table[s, t][:, None, None], clash)]), clash)
    # code b < clash is key b throughout, for the pairs with |K| = 1
    code = table.astype(np.min_scalar_type(len(lut)))
    code.flat[shared] = kind
    lut = lut.ravel()
    low = size - 1

    def keys(rows, cols):
        # each row's (code, k) against every subgroup t, shifted for l;
        # np.take gathers columns in C order, where an x[:, cols] gather
        # comes back in F order and slows every pass after it
        head = (code[rows >> r].astype(np.intp) << r
                | (rows & low)[:, None]) << r
        at = np.take(head, cols >> r, axis=1)
        at |= cols & low
        return np.take(lut, at)

    return keys
