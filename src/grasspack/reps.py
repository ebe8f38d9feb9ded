"""Explicit unitary representations of permutation groups.

A representation stores generator images only; the image of an arbitrary
element is the product along a word for it (`PermGroup.word_of`), so nothing
of size |G| x n^2 is ever materialized.  Each class sum asked for walks its
class under conjugation by the generators, two products per member, a level
of stacked images at a time; the character takes the class reps' images
along the closure tree, one product per tree node on the way to them.

Young's orthogonal form gives the irreducibles of S_n and, restricted, of
A_n; a self-conjugate shape splits on A_n into the two eigenspaces of its
associator (`alternating_halves`).  Sp(6, 2)'s 7 is its action on the 28
equiangular lines of R^7 (`symplectic_rotation_rep`), read off from the
symplectic form and gated by an exact check that each generator preserves
the lines' Gram signs.  All others are cut out of a permutation tensor-power
carrier (`PermTensorCarrier`): the isotypic component is spanned by the
projections of one point per G-orbit on k-tuples and their images, and each
projection is a weighted bincount of the point's |G| images.  Every derived
representation passes one exact gate (`_check_extracted`): its basis is
orthonormal and invariant under the generators it came from.

Arithmetic stays in the field of the data: a representation whose generator
images are real is held, multiplied and summed in float64.  Extraction takes
its field from the Frobenius-Schur indicator nu: real weights iff nu != 0,
and a real commutant split iff nu = +1, so a copy of real type is real and
only a quaternionic copy (nu = -1) or a complex character is complex.
Coset reps' images come along the Schreier tree (`coset_images`), one product
per coset rep.  The class walk's slabs and the commutant average's gathers
are blocks of the package's one working-memory budget, `config.BLOCK_BYTES`.

Isotypic projector matrices are formed only by `codes.IsotypicContext`,
from the class sums of a few classes; here `isotypic_weights` drives the
matrix-free vector projections of extraction, and every multiplicity comes
from `characters.decompose`.
"""
from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import config
from .characters import (CharacterTable, ClassFunction, character_table,
                         decompose)
from .permgroup import CosetTransversal, PermGroup, Permutation, orbits

TOL = config.TOL


class RepError(config.GrasspackError):
    pass


class CarrierBudgetError(RepError):
    pass


class ExtractionError(RepError):
    pass


class UnitaryRep:
    """Matrix representation given by its generator images.  They are kept
    as float64 when every one is real (no entry with a nonzero imaginary
    part), else as complex128; `dtype` records which, and every image,
    class sum and trace is formed in it."""

    def __init__(self, group: PermGroup, gen_images: list[np.ndarray],
                 name: str = "", provenance: dict | None = None):
        self.group = group
        gen_images = [np.asarray(m) for m in gen_images]
        real = all(np.isrealobj(m) or not m.imag.any() for m in gen_images)
        self.dtype = np.dtype(float if real else complex)
        self.gen_images = [np.ascontiguousarray(m.real if real else m,
                                                dtype=self.dtype)
                           for m in gen_images]
        if len(self.gen_images) != len(group.generators):
            raise RepError("one image per group generator required")
        self.dim = group.degree if not self.gen_images else self.gen_images[0].shape[0]
        for m in self.gen_images:
            if m.shape != (self.dim, self.dim):
                raise RepError("generator images must be square, same size")
        self.name = name or f"rep{self.dim}"
        self.provenance = provenance or {}
        self._char = None

    # -- evaluation ----------------------------------------------------

    def image_of_word(self, word) -> np.ndarray:
        """Product of the letters' images left to right; letter ~s is the
        inverse of generator s, whose image is rho(s)^H (rho is unitary)."""
        m = np.eye(self.dim, dtype=self.dtype)
        for x in word:
            m = m @ (self.gen_images[x] if x >= 0
                     else self.gen_images[~x].conj().T)
        return m

    def image(self, p: Permutation) -> np.ndarray:
        """rho(p) from a word for p (`PermGroup.word_of`): NotEnumerated,
        never a matrix, when the group knows no word for it."""
        return self.image_of_word(self.group.word_of(p))

    def apply_gen(self, gi: int, vec: np.ndarray) -> np.ndarray:
        return self.gen_images[gi] @ vec

    def character(self) -> ClassFunction:
        """Trace at each class representative.  The reps' tree words, taken
        in lexicographic order, walk the closure tree depth first, holding
        the images along one path: one product per tree node on the way."""
        if self._char is None:
            cc = self.group.conjugacy_classes()
            vals = np.empty(cc.n_classes, dtype=self.dtype)
            path, word = [np.eye(self.dim, dtype=self.dtype)], []
            for w, k in sorted((self.group.tree_word(int(i)), k)
                               for k, i in enumerate(cc.rep_index)):
                n = 0                          # letters shared with the path
                while n < min(len(w), len(word)) and w[n] == word[n]:
                    n += 1
                del path[n + 1:]
                for x in w[n:]:
                    path.append(path[-1] @ self.gen_images[x])
                word = w
                vals[k] = np.trace(path[-1])
            self._char = ClassFunction(vals, self.group.name, cc.sizes)
        return self._char

    def class_sums(self, classes) -> np.ndarray:
        """M[k] = sum of rho(h) over the k-th listed class, each listed
        class walked once (`_class_walk`)."""
        acc = np.zeros((len(classes), self.dim, self.dim), dtype=self.dtype)
        for k, c in enumerate(classes):
            acc[k] = sum(images.sum(axis=0)
                         for _, images in self._class_walk(int(c)))
        return acc

    def _class_walk(self, c: int):
        """(indices, images) of class c's members in slabs of at most the
        byte budget of images (`config.blocks`): the rep
        (`ConjugacyClasses.rep_index`) from its tree word, then breadth first
        under x -> s^-1 x s, each new image rho(s)^H rho(x) rho(s).  The
        queue holds about one level."""
        cc = self.group.conjugacy_classes()
        start = int(cc.rep_index[c])
        seen = np.zeros(self.group.order, dtype=bool)
        seen[start] = True
        word = self.group.tree_word(start)
        queue = deque([(np.array([start]), self.image_of_word(word)[None])])
        while queue:
            idx, images = queue.popleft()
            yield idx, images
            kids = [(idx[:0], images[:0])]         # none without generators
            for a, conj in zip(self.gen_images, cc.conjugations):
                to = conj[idx]
                fresh = np.flatnonzero(~seen[to])
                seen[to[fresh]] = True
                kids.append((to[fresh], a.conj().T @ images[fresh] @ a))
            to, x = (np.concatenate(v) for v in zip(*kids))
            queue.extend((to[part], x[part]) for part in config.blocks(
                len(to), self.dtype.itemsize * self.dim ** 2))

    # -- checks -----------------------------------------------------------

    def check_unitary_homomorphism(self, n_pairs: int = 100,
                                   seed: int = config.DEFAULT_SEED,
                                   tol: float = TOL.ortho) -> float:
        """Largest of |rho(a) rho(a)^H - I| and |rho(a) rho(b) - rho(ab)| over
        random pairs (a, b), each image from its tree word; RepError above
        `tol`."""
        if n_pairs < 1:
            return 0.0
        g = self.group
        rng = np.random.default_rng(seed)
        pairs = np.array([rng.integers(0, g.order, size=2)
                          for _ in range(n_pairs)], dtype=np.int64)
        rows = g.rows
        prods = g.lookup_rows(np.take_along_axis(
            rows[pairs[:, 0]], rows[pairs[:, 1]], axis=1))   # rows[i][rows[j]]
        eye = np.eye(self.dim)
        worst = 0.0
        for (i, j), k in zip(pairs.tolist(), prods.tolist()):
            a, b, ab = (self.image_of_word(g.tree_word(x)) for x in (i, j, k))
            worst = max(worst, float(np.abs(a @ a.conj().T - eye).max()),
                        float(np.abs(a @ b - ab).max()))
        if worst > tol:
            raise RepError(f"unitarity/homomorphism residual {worst:.2e}")
        return worst


def commutant_singular_values(rep: UnitaryRep) -> np.ndarray:
    """Singular values, ascending, of the stacked I (x) A - A^T (x) I over
    the generator images A.  Their null space is the commutant of rho in
    column-major vec form, so by Schur's lemma rho is irreducible iff
    exactly one of them vanishes; the second is the margin by which it is."""
    n = rep.dim
    if n * n > config.TENSOR_BUDGET:
        raise RepError(f"commutant of dimension {n}^2 exceeds the dense "
                       f"tensor budget {config.TENSOR_BUDGET}")
    eye = np.eye(n)
    blocks = [np.kron(eye, a) - np.kron(a.T, eye) for a in rep.gen_images]
    stacked = np.concatenate(blocks or [np.zeros((1, n * n))])
    return np.linalg.svd(stacked, compute_uv=False)[::-1]


def coset_images(transversal: CosetTransversal, gen_images,
                 dim: int) -> np.ndarray:
    """The images of the coset reps u_k, stacked in transversal order, for
    the generator images of any dim-dimensional representation: u_0 = 1,
    and u_k = s u_parent along the Schreier tree (`CosetTransversal.parent`
    and `.via`), so each further image is one product A_s A_parent."""
    parent, via = transversal.parent, transversal.via
    out = np.empty((len(via), dim, dim),
                   dtype=np.result_type(float, *gen_images))
    out[0] = np.eye(dim)
    for k in range(1, len(via)):
        out[k] = gen_images[via[k]] @ out[parent[k]]
    return out


def restrict_rep(rep: UnitaryRep, h: PermGroup, name: str = "") -> UnitaryRep:
    """Same matrices, viewed as a representation of the subgroup H."""
    images = [rep.image(hg) for hg in h.generators]
    return UnitaryRep(h, images, name=name or f"{rep.name}|{h.name}",
                      provenance={"restricted_from": rep.name})


class PermTensorCarrier:
    """k-th tensor power of the natural permutation module, applied as flat
    index gathers; matrices are never formed."""

    def __init__(self, group: PermGroup, k: int):
        self.group = group
        self.k = k
        d = group.degree
        self.dim = d ** k
        if self.dim > config.VECTOR_CARRIER_BUDGET:
            raise CarrierBudgetError(f"{d}^{k} exceeds the carrier budget "
                                     f"{config.VECTOR_CARRIER_BUDGET}")
        self.name = f"perm{d}^x{k}"
        self._gen_idx = [self._flat_index(p.inverse().images)
                         for p in group.generators]
        self._char: ClassFunction | None = None
        self._mults: np.ndarray | None = None
        self._points: np.ndarray | None = None

    def _flat_index(self, inv_images: np.ndarray) -> np.ndarray:
        """(rho(g) v)[p] = v[g^-1 p], flattened over k-tuples; a stack of
        image rows gives one flat index per row."""
        d = self.group.degree
        idx = np.asarray(inv_images, dtype=np.int64)
        out = idx
        for _ in range(self.k - 1):
            out = (out[..., :, None] * d + idx[..., None, :]).reshape(
                *idx.shape[:-1], -1)
        return out

    def apply_gen(self, gi: int, vec: np.ndarray) -> np.ndarray:
        return vec[self._gen_idx[gi]]

    def character(self) -> ClassFunction:
        """Fixed points of each class representative, to the k-th power."""
        if self._char is None:
            cc = self.group.conjugacy_classes()
            d = self.group.degree
            fix = np.array([(rep.images == np.arange(d, dtype=rep.images.dtype))
                            .sum() for rep in cc.reps], dtype=float)
            self._char = ClassFunction(fix ** self.k, self.group.name, cc.sizes)
        return self._char

    def multiplicities(self) -> np.ndarray:
        """Multiplicity of each row of the group's character table
        (`characters.character_table`) in this carrier, decomposed once."""
        if self._mults is None:
            self._mults = decompose(self.character().values,
                                    character_table(self.group)).multiplicities
        return self._mults

    def orbit_points(self) -> np.ndarray:
        """The least k-tuple, as a flat index, of each G-orbit on [d]^k."""
        if self._points is None:
            self._points = orbits(self._gen_idx, self.dim)[0]
        return self._points

    def weighted_vector_sum(self, weights: np.ndarray,
                            vec: np.ndarray) -> np.ndarray:
        """sum_g weights[class(g)] rho(g) v, over the nonzero entries of v:
        rho(g) e_r = e_{g.r}, and the flat indices of g.r for all g come from
        r's k columns of G's element table, so each v_r adds one weighted
        bincount of |G| entries."""
        g = self.group
        d = g.degree
        per_row = np.asarray(weights)[g.conjugacy_classes().class_of]
        acc = np.zeros(self.dim, dtype=np.result_type(float, per_row, vec))
        for r in np.flatnonzero(vec):
            idx = np.zeros(g.order, dtype=np.intp)
            for point in np.unravel_index(r, (d,) * self.k):
                idx = idx * d + g.rows[:, point]
            w = per_row * vec[r]
            acc += np.bincount(idx, w.real, self.dim)
            if np.iscomplexobj(w):
                acc += 1j * np.bincount(idx, w.imag, self.dim)
        return acc

    def commutant_average(self, basis: np.ndarray,
                          x: np.ndarray) -> np.ndarray:
        """T = (1/|G|) sum_g z_g z_g^H, z_g = B^H rho(g) B x, in the commutant
        of rho on the invariant span of B's orthonormal columns.  Over the
        coset reps u of H = G_0, z_uh = A_u z_h with A_u = B^H rho(u) B: T is
        (1/|G|) sum_u A_u Y A_u^H, Y summed over H's rows only.  The span is
        invariant, so A_u is the representation on it: A_u = A_s A_parent
        along the Schreier tree (`coset_images`), one rank^3 product per
        coset rep from the generators' A_s = B^H rho(s) B, and the coset sum
        is one stacked product."""
        g = self.group
        h = g.stabilizer(0)
        conj = basis.conj()
        vec = basis @ x
        y = np.zeros((basis.shape[1],) * 2, dtype=vec.dtype)
        # a point of a row of h holds its int64 flat index and the index's
        # temporary, 8 bytes each, and the gathered value
        for part in config.blocks(h.order, (16 + vec.itemsize) * self.dim):
            # gathered by h's own row: row i is (B^H rho(h_i^-1) B x)^T
            z = vec[self._flat_index(h.rows[part])] @ conj
            y += z.T @ z.conj()
        a = coset_images(g.coset_transversal(h),
                         [conj.T @ self.apply_gen(s, basis)
                          for s in range(len(g.generators))], basis.shape[1])
        return np.tensordot(a @ y, a.conj(), axes=([0, 2], [0, 2])) / g.order


# ------------------------------------------------------------ isotypic sums


def isotypic_weights(table: CharacterTable, chars: list[int]) -> np.ndarray:
    """w(h) = sum_{i in S} chi_i(1) conj(chi_i(h)) / |H|, per class of H."""
    order = table.order
    w = np.zeros(table.n_classes, dtype=complex)
    for i in chars:
        chi = table.irreducibles[i].values
        w += chi[0].real * np.conj(chi) / order
    return w


# ------------------------------------------------------------- extraction


def extract_irrep(carrier: PermTensorCarrier, chi_index: int,
                  seed: int = config.DEFAULT_SEED) -> UnitaryRep:
    """Cut one copy of the irreducible in row `chi_index` of its group's
    table (`characters.character_table`) out of `carrier`.  Its multiplicity
    mu there comes from the carrier (`PermTensorCarrier.multiplicities`);
    mu = 0 is an ExtractionError.

    The isotypic component is spanned by the projections of the points e_r,
    one r per G-orbit on k-tuples (`_isotypic_basis`), once; at multiplicity
    one it is the copy.  Higher multiplicity: average a random rank-one
    matrix over it into the commutant and take one eigenvalue cluster, which
    is a single copy; only this random split is retried, from seed + 1 on.
    The copy passes the invariance gate and must carry the target character.
    The field follows chi's Frobenius-Schur indicator nu
    (`CharacterTable.indicator`): real weights iff nu != 0 (on a complex chi
    they would project onto chi + conj(chi) and fail the rank check), and a
    real split iff nu = +1; at nu = -1 (quaternionic) a real symmetric
    average has only clusters of size 2 target, so the split stays complex.
    """
    table = character_table(carrier.group)
    chi = table.irreducibles[chi_index]
    target = int(round(chi.degree.real))
    mu = int(carrier.multiplicities()[chi_index])
    if mu < 1:
        raise ExtractionError(
            f"character {chi_index} does not appear in carrier {carrier.name}")
    nu = table.indicator(chi_index)
    w = isotypic_weights(table, [chi_index])
    full = _isotypic_basis(carrier, w.real if nu else w, target * mu)
    last: Exception | None = None
    for t in range(config.SEED_TRIES if mu > 1 else 1):
        try:
            basis = full if mu == 1 else _commutant_copy(
                carrier, full, target, np.random.default_rng(seed + t),
                real=nu == 1)
            rep = _check_extracted(carrier, basis, f"irr{target}",
                                   {"carrier": carrier.name,
                                    "character_index": int(chi_index),
                                    "seed": seed + t,
                                    "multiplicity": mu,
                                    "indicator": nu})
            if np.abs(rep.character().values - chi.values).max() > TOL.integer:
                raise ExtractionError("extracted character does not match "
                                      "target")
            return rep
        except RepError as err:
            if mu == 1:
                raise
            last = err
    raise ExtractionError(
        f"extraction failed after {config.SEED_TRIES} seeds: {last}")


def _grow_orbit_basis(carrier, seeds, cap) -> np.ndarray:
    """Orthonormal rows spanning the seeds and their images, grown breadth
    first (each basis vector in turn, each generator in turn) up to `cap`."""
    basis = np.empty((max(cap, len(seeds)), carrier.dim),
                     dtype=np.result_type(float, *seeds))
    n = 0
    for s in seeds:
        vec = _orthogonal_residual(s, basis[:n])
        if vec is not None:
            basis[n] = vec
            n += 1
    n_gens = len(carrier.group.generators)
    head = 0                                  # basis[head:n] is the queue
    while head < n < cap:
        v = basis[head]
        head += 1
        for gi in range(n_gens):
            u = _orthogonal_residual(carrier.apply_gen(gi, v), basis[:n])
            if u is not None:
                basis[n] = u
                n += 1
                if n >= cap:
                    break
    return basis[:n]


def _orthogonal_residual(vec, basis):
    """vec less its projection on the orthonormal rows of `basis`, by two
    classical Gram-Schmidt sweeps, normalised; None if it vanishes relative
    to TOL.rel_distance.  A sweep never lengthens the vector, so one that
    vanishes after the first sweep is refused without the second."""
    floor = TOL.rel_distance * max(np.linalg.norm(vec), 1.0)
    # second sweep keeps orthogonality tight against rounding; the
    # coefficients conj(basis) @ vec are formed without copying the basis
    for _ in range(2):
        vec = vec - (basis @ vec.conj()).conj() @ basis
        norm = np.linalg.norm(vec)
        if norm <= floor:
            return None
    return vec / norm


def _isotypic_basis(carrier, weights, rank) -> np.ndarray:
    """Orthonormal columns spanning P V, P = sum_g weights[class(g)] rho(g).
    V is spanned by the e_{g.r} over one point r per G-orbit and
    P e_{g.r} = rho(g) P e_r, so the orbits of the P e_r span P V exactly;
    any rank but `rank` is an ExtractionError."""
    seeds = [carrier.weighted_vector_sum(weights, np.eye(1, carrier.dim, r)[0])
             for r in carrier.orbit_points()]         # e_r: row r of I
    full = _grow_orbit_basis(carrier, seeds, rank + 1)
    if len(full) != rank:
        raise ExtractionError(
            f"isotypic basis has rank {len(full)}, expected {rank}")
    return full.T


def _commutant_copy(carrier, b, target, rng, real):
    """One copy inside the isotypic span of b's columns: a random rank-1,
    real if `real`, averaged into the commutant, whose eigenvalue clusters
    (split at gaps above 1e-6 of the largest) of size `target` are copies."""
    n = b.shape[1]
    x = rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n))
    evals, evecs = np.linalg.eigh(carrier.commutant_average(b, x))
    scale = max(1.0, float(np.abs(evals).max()))
    edges = [0, *(np.flatnonzero(np.diff(evals) > 1e-6 * scale) + 1),
             len(evals)]
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo == target:
            return b @ evecs[:, lo:hi]
    raise ExtractionError(
        f"no eigenvalue cluster of size {target} in commutant spectrum")


def _check_extracted(source, basis: np.ndarray, name: str,
                     provenance: dict) -> UnitaryRep:
    """The representation A_s = B^H rho(s) B on the span of the columns of
    `basis`, proven a subrepresentation of `source`: the residual
    max(|rho(s) B - B A_s|, |B^H B - I|) over the generators s, recorded in
    the provenance, is at most TOL.ortho, else ExtractionError.  An
    orthonormal span invariant under the generators is so under the group."""
    cols = basis.shape[1]
    worst = float(np.abs(basis.conj().T @ basis - np.eye(cols)).max())
    images = []
    for gi in range(len(source.group.generators)):
        moved = source.apply_gen(gi, basis)
        a = basis.conj().T @ moved
        worst = max(worst, float(np.abs(moved - basis @ a).max()))
        images.append(a)
    if worst > TOL.ortho:
        raise ExtractionError(f"invariance residual {worst:.2e} above "
                              f"{TOL.ortho:g}: not a subrepresentation")
    return UnitaryRep(source.group, images, name=name,
                      provenance={**provenance, "invariance_residual": worst})


def find_carrier(g: PermGroup, chi_index: int) -> PermTensorCarrier | None:
    """The smallest tensor power k <= 3 of g's permutation module holding
    row `chi_index` of g's table; None if none within the carrier budget
    does.  Each power is built and decomposed the first time it is reached
    and kept on g without its group, so that g and its carriers make no
    reference cycle and g is freed with its last use.  A caller gets a copy
    that refers to g; g keeps it while the caller holds it, so a caller
    asking about several characters gets the same carrier each time."""
    for k in (1, 2, 3):
        if len(g._carriers) < k:
            try:
                kept = PermTensorCarrier(g, k)
            except CarrierBudgetError:
                kept = None
            else:
                kept.multiplicities()       # decomposed while it has g
                kept.orbit_points()         # kept by every copy handed out
                kept.group = None
            g._carriers.append(kept)
        kept = g._carriers[k - 1]
        if kept is None:
            return None
        if kept.multiplicities()[chi_index] >= 1:
            carrier = g._held_carriers.get(k)
            if carrier is None:
                carrier = g._held_carriers[k] = copy.copy(kept)
                carrier.group = g
            return carrier
    return None


# --------------------------------------------------------------- symmetric


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        p = tuple(int(x) for x in self.parts)
        if any(x <= 0 for x in p) or any(a < b for a, b in zip(p, p[1:])):
            raise RepError(f"not a partition: {p}")
        object.__setattr__(self, "parts", p)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """'[6,4,2]', '6,4,2' or '6 4 2'; RepError for an empty field or an
        unmatched bracket."""
        body = text.strip()
        if body[:1] == "[" or body[-1:] == "]":
            if body[:1] != "[" or body[-1:] != "]" or len(body) < 2:
                raise RepError(f"unmatched bracket in {text!r}")
            body = body[1:-1]
        fields = body.split(",") if "," in body else body.split()
        try:
            return cls(tuple(int(f) for f in fields))
        except ValueError:
            raise RepError(f"bad field in partition {text!r}") from None

    @property
    def n(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        k = self.parts[0] if self.parts else 0
        return Partition(tuple(sum(r > j for r in self.parts)
                               for j in range(k)))

    def hooks(self) -> list[list[int]]:
        conj = self.conjugate().parts
        return [[(row - j - 1) + (conj[j] - i - 1) + 1 for j in range(row)]
                for i, row in enumerate(self.parts)]

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def hook_dimension(lam: Partition) -> int:
    dim, rem = divmod(math.factorial(lam.n),
                      math.prod(h for row in lam.hooks() for h in row))
    if rem:
        raise RepError(f"hook product of {lam} does not divide {lam.n}!")
    return dim


def branching(lam: Partition) -> list[Partition]:
    """Partitions of n-1 obtained by removing one corner box."""
    p = lam.parts
    if not p:
        raise RepError("empty partition has no branching")
    out = []
    for i, row in enumerate(p):
        if i == len(p) - 1 or p[i + 1] < row:
            rest = p[:i] + ((row - 1,) if row > 1 else ()) + p[i + 1:]
            out.append(Partition(rest))
    return out


def standard_tableaux(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux, entries 1..n, as row tuples."""
    n = lam.n
    shape = lam.parts
    results = []

    def fill(tab, row_len, entry):
        if entry > n:
            results.append(tuple(tuple(r) for r in tab))
            return
        for i in range(len(shape)):
            if row_len[i] < shape[i] and (i == 0 or row_len[i] < row_len[i - 1]):
                tab[i].append(entry)
                row_len[i] += 1
                fill(tab, row_len, entry + 1)
                row_len[i] -= 1
                tab[i].pop()

    fill([[] for _ in shape], [0] * len(shape), 1)
    return results


def young_orthogonal_rep(group: PermGroup, lam: Partition) -> UnitaryRep:
    """Young's orthogonal form on standard tableaux, for the generators of
    `group` on lam.n points.

    For the adjacent transposition s_k = (k, k+1), acting on tableau T with
    axial distance d = content(k+1) - content(k):
        s_k T_vec = (1/d) T_vec + sqrt(1 - 1/d^2) (swapped T)_vec
    """
    n = group.degree
    if lam.n != n:
        raise RepError(f"partition of {lam.n} against degree {n}")
    dim = hook_dimension(lam)
    if dim > config.TENSOR_BUDGET:
        raise CarrierBudgetError(f"dimension {dim} exceeds budget "
                                 f"{config.TENSOR_BUDGET}")
    tabs = standard_tableaux(lam)
    if len(tabs) != dim:
        raise RepError(f"{len(tabs)} standard tableaux of {lam}, expected {dim}")
    index = {t: i for i, t in enumerate(tabs)}
    pos = [{e: (i, j) for i, row in enumerate(t) for j, e in enumerate(row)}
           for t in tabs]                      # entry -> (row, col) per tableau

    def adjacent_matrix(k):                    # s_k swaps k+1, k+2 (1-based)
        m = np.zeros((dim, dim))
        a, b = k + 1, k + 2
        for t_i, t in enumerate(tabs):
            (ra, ca), (rb, cb) = pos[t_i][a], pos[t_i][b]
            d = (cb - rb) - (ca - ra)
            m[t_i, t_i] += 1.0 / d
            if abs(d) >= 2:
                swapped = tuple(tuple(b if e == a else a if e == b else e
                                      for e in row) for row in t)
                key = tuple(tuple(sorted(r)) for r in swapped)
                m[index[key], t_i] += np.sqrt(1.0 - 1.0 / d ** 2)
        return m

    adj = [adjacent_matrix(k) for k in range(n - 1)]

    def image_of(p: Permutation) -> np.ndarray:
        # bubble-sort factorization into adjacent transpositions
        imgs = list(p.images)
        word = []
        for top in range(n - 1, 0, -1):
            j = imgs.index(top)
            while j < top:
                imgs[j], imgs[j + 1] = imgs[j + 1], imgs[j]
                word.append(j)
                j += 1
        m = np.eye(dim)
        for k in word:                 # p = s_{k_last} ... s_{k_first}
            m = adj[k] @ m
        return m

    images = [image_of(p) for p in group.generators]
    return UnitaryRep(group, images, name=f"young{lam}",
                      provenance={"partition": str(lam)})


def young_associator(lam: Partition) -> np.ndarray:
    """J e_T = eps_T e_T' on the Young basis of a self-conjugate shape, in
    `standard_tableaux` order: T' is the transposed tableau and eps_T the
    sign of T's row-reading word.  Transposing negates every axial distance
    and swapping k, k+1 flips eps, so J anticommutes with the image of each
    adjacent transposition: J rho(g) = sgn(g) rho(g) J, and J^2 = +-I."""
    if lam.conjugate() != lam:
        raise RepError(f"{lam} is not self-conjugate")
    tabs = standard_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    j = np.zeros((len(tabs), len(tabs)))
    for i, t in enumerate(tabs):
        transposed = tuple(tuple(row[c] for row in t if c < len(row))
                           for c in range(len(t[0])))
        word = [e for row in t for e in row]
        inversions = sum(a > b for x, a in enumerate(word) for b in word[x + 1:])
        j[index[transposed], i] = -1.0 if inversions % 2 else 1.0
    return j


def alternating_halves(rho: UnitaryRep, lam: Partition) -> list[UnitaryRep]:
    """The two irreducible halves, in row order of A_n's character table,
    of the Young form `rho` of a self-conjugate shape restricted to A_n.

    J = `young_associator(lam)` commutes with rho(A_n).  T != T' always, and
    over one T of each pair {T, T'} the vectors (e_T + c eps_T e_T')/sqrt(2)
    are an exact orthonormal basis of one eigenspace of J: c = +-1 when
    J^2 = I, c = -+i when J^2 = -I.  The basis takes the dtype of c, so it
    is real unless J^2 = -I.  Each half passes the invariance gate and is
    named by its character: one row of the table, multiplicity 1."""
    j = young_associator(lam)
    partner = np.abs(j).argmax(axis=0)                 # T -> T'
    eps = j[partner, np.arange(len(j))]                # eps_T
    firsts = np.flatnonzero(np.arange(len(j)) < partner)
    square = eps[firsts[0]] * eps[partner[firsts[0]]]  # J^2 = square * I
    halves = []
    for sign, c in zip("+-", (1.0, -1.0) if square > 0 else (-1j, 1j)):
        basis = np.zeros((len(j), len(firsts)), dtype=np.result_type(c))
        cols = np.arange(len(firsts))
        basis[firsts, cols] = 1 / np.sqrt(2)
        basis[partner[firsts], cols] = c * eps[firsts] / np.sqrt(2)
        half = _check_extracted(rho, basis, f"young{lam}{sign}",
                                {"partition": str(lam)})
        mult = decompose(half.character().values,
                         character_table(rho.group)).multiplicities
        rows = np.flatnonzero(mult)
        if len(rows) != 1 or mult[rows[0]] != 1:
            raise RepError(f"half {sign} of {lam} is not irreducible: "
                           f"multiplicities {mult.tolist()}")
        half.provenance["character_index"] = int(rows[0])
        halves.append(half)
    return sorted(halves, key=lambda r: r.provenance["character_index"])


# ----------------------------------------------- rotation rep of Sp(6, 2)
#
# The seven-dimensional irreducible of Sp(6, 2) is not a constituent of any
# small tensor power of its doubly transitive permutation actions, so it is
# built directly, as the group's action on the 28 equiangular lines of R^7,
# one line per minus-type form, read off from the symplectic form alone.


def symplectic_rotation_rep(group: PermGroup) -> UnitaryRep:
    """The 7-dimensional representation of a form-orbit action of Sp(6, 2).

    Over the 28 minus-type labels, S[a, b] = -(-1)^B(a, b) off the diagonal
    (0 on it) has eigenvalues -3 (21 times) and 9 (7 times).  With U the
    orthonormal columns of the 9-eigenspace, the rows of 2U are unit line
    vectors with Gram I + S/3.  Each generator's linear part is decoded from
    its label permutation and moved to the minus-type labels, where it
    permutes the lines as pi; the signs eps_0 = 1, eps_a = S[pi 0, pi a]
    S[0, a] make the signed permutation P[pi a, a] = eps_a, which must
    preserve S exactly (else RepError).  The image is U^T P U, negated if
    its determinant is -1: -I has determinant -1 in R^7, so each line
    permutation has one lift of determinant 1 and the lifts compose."""
    from . import symplectic as sp
    m = 3
    plus, minus = sp.form_orbits(m)
    by_degree = {len(plus): plus, len(minus): minus}
    if group.degree not in by_degree:
        raise RepError(f"degree {group.degree} is not a form orbit of Sp(6,2)")
    orbit = by_degree[group.degree]
    maps = [sp.cols_from_orbit_perm(p.images, orbit, m)[0]
            for p in group.generators]
    s = 2.0 * sp.bform(minus[:, None], minus[None, :], m) - 1 + np.eye(28)
    u = np.linalg.eigh(s)[1][:, -7:]                  # the 9-eigenspace
    images = []
    for pi in sp.induced_generators(maps, m, minus):
        eps = s[pi[0], pi] * s[0]
        eps[0] = 1.0
        p = np.zeros((28, 28))
        p[pi, np.arange(28)] = eps
        if not np.array_equal(p @ s @ p.T, s):
            raise RepError("label permutation does not preserve the lines")
        img = u.T @ p @ u
        images.append(img if np.linalg.det(img) > 0 else -img)
    return UnitaryRep(group, images, name="rotation7",
                      provenance={"carrier": "equiangular-lines-28"})
