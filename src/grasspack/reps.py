"""Explicit unitary representations of enumerated groups.

A representation stores generator images only; the image of an arbitrary
element is recovered by walking the closure spanning tree, so nothing of size
|G| x n^2 is ever materialized.  Every group-wide sum (class sums, isotypic
vector projections, the commutant average) is one pass of `_walk`, a
depth-first walk over the tree that carries one matrix or one vector and
applies one generator per edge.  Permutation tensor-power carriers apply
elements as index gathers and never build their matrices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .characters import CharacterTable, ClassFunction, inner_product
from .permgroup import PermGroup, Permutation

TOL = config.TOL


class RepError(Exception):
    pass


class CarrierBudgetError(RepError):
    pass


class ExtractionError(RepError):
    pass


def _tree_children(g: PermGroup) -> tuple[memoryview, ...]:
    """CSR layout of the spanning tree: children of node i are
    order[offsets[i]:offsets[i+1]], and node c hangs on generator via[c].
    Memoryviews over the int64 arrays index and slice to Python ints."""
    cached = getattr(g, "_tree_children", None)
    if cached is None:
        parent = np.asarray(g.parent[1:], dtype=np.int64)
        order = np.argsort(parent, kind="stable").astype(np.int64) + 1
        counts = np.bincount(parent, minlength=g.order)
        offsets = np.zeros(g.order + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        via = np.ascontiguousarray(g.via_gen, dtype=np.int64)
        cached = (order.data, offsets.data, via.data)
        g._tree_children = cached
    return cached


def _inverse_class_map(g: PermGroup) -> np.ndarray:
    """inv[c] = class index holding the inverses of class c."""
    cached = getattr(g, "_inv_class_map", None)
    if cached is None:
        cc = g.conjugacy_classes()
        cached = np.array([cc.class_of[g.index_of(rep.inverse())]
                           for rep in cc.reps], dtype=np.int64)
        g._inv_class_map = cached
    return cached


def tree_word(g: PermGroup, index: int) -> list[int]:
    """Generator indices whose left-to-right product is element `index`."""
    word = []
    i = index
    while g.via_gen[i] != -1:
        word.append(int(g.via_gen[i]))
        i = int(g.parent[i])
    return word[::-1]


def _walk(g: PermGroup, start, step):
    """Depth-first walk over the spanning tree, yielding (node, payload).

    The identity carries `start`; a child carries step(gi, parent payload),
    gi being the generator on its tree edge.  Children are pushed in CSR
    order and popped last-in first-out."""
    order, offsets, via = _tree_children(g)
    stack = [(0, start)]
    while stack:
        node, payload = stack.pop()
        yield node, payload
        for child in order[offsets[node]:offsets[node + 1]]:
            stack.append((child, step(via[child], payload)))


def _weighted_vector_sum(self, weights: np.ndarray,
                         vec: np.ndarray) -> np.ndarray:
    """sum_g weights[class(g)] rho(g) v, for any carrier `self` with
    `apply_gen_inv`; each carrier class binds it as its method.

    A vector payload can only be left-multiplied down the tree, so the walk
    carries rho(node^-1) v and reads weights through the inverse-class map
    (node -> node^-1 is a bijection of the group)."""
    g = self.group
    cls = g.conjugacy_classes().class_of
    winv = np.asarray(weights, dtype=complex)[_inverse_class_map(g)]
    acc = np.zeros(self.dim, dtype=complex)
    for node, v in _walk(g, vec.astype(complex), self.apply_gen_inv):
        acc += winv[cls[node]] * v
    return acc


class UnitaryRep:
    """Matrix representation given by its generator images."""

    def __init__(self, group: PermGroup, gen_images: list[np.ndarray],
                 name: str = "", provenance: dict | None = None):
        self.group = group
        self.gen_images = [np.asarray(m, dtype=complex) for m in gen_images]
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

    def image_of_index(self, index: int) -> np.ndarray:
        m = np.eye(self.dim, dtype=complex)
        for gi in tree_word(self.group, index):
            m = m @ self.gen_images[gi]
        return m

    def image(self, p: Permutation) -> np.ndarray:
        return self.image_of_index(self.group.index_of(p))

    def apply_gen(self, gi: int, vec: np.ndarray) -> np.ndarray:
        return self.gen_images[gi] @ vec

    def apply_gen_inv(self, gi: int, vec: np.ndarray) -> np.ndarray:
        # unitary inverse
        return self.gen_images[gi].conj().T @ vec

    def character(self) -> ClassFunction:
        """Trace at each class representative."""
        if self._char is None:
            cc = self.group.conjugacy_classes()
            vals = np.array([np.trace(self.image(rep)) for rep in cc.reps])
            self._char = ClassFunction(vals, self.group.name, cc.sizes)
        return self._char

    # -- group-wide sums ------------------------------------------------

    def weighted_group_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_g weights[class(g)] rho(g)."""
        return np.tensordot(weights, self.class_sums(), axes=(0, 0))

    weighted_vector_sum = _weighted_vector_sum

    def class_sums(self) -> np.ndarray:
        """M[c] = sum of rho(h) over class c; one walk, reusable for any
        character-weighted projector."""
        cc = self.group.conjugacy_classes()
        cls = cc.class_of
        acc = np.zeros((cc.n_classes, self.dim, self.dim), dtype=complex)
        images = self.gen_images
        for node, mat in _walk(self.group, np.eye(self.dim, dtype=complex),
                               lambda gi, m: m @ images[gi]):
            acc[cls[node]] += mat
        return acc

    # -- checks -----------------------------------------------------------

    def check_unitary_homomorphism(self, n_pairs: int = 100,
                                   seed: int = config.DEFAULT_SEED,
                                   tol: float = TOL.ortho) -> float:
        rng = np.random.default_rng(seed)
        eye = np.eye(self.dim)
        worst = 0.0
        for _ in range(n_pairs):
            i, j = rng.integers(0, self.group.order, size=2)
            a, b = self.image_of_index(int(i)), self.image_of_index(int(j))
            worst = max(worst, float(np.abs(a @ a.conj().T - eye).max()))
            ab = self.image(self.group.element(int(i)) * self.group.element(int(j)))
            worst = max(worst, float(np.abs(a @ b - ab).max()))
        if worst > tol:
            raise RepError(f"unitarity/homomorphism residual {worst:.2e}")
        return worst


def restrict_rep(rep: UnitaryRep, h: PermGroup, name: str = "") -> UnitaryRep:
    """Same matrices, viewed as a representation of the subgroup H."""
    images = [rep.image(hg) for hg in h.generators]
    return UnitaryRep(h, images, name=name or f"{rep.name}|{h.name}",
                      provenance={"restricted_from": rep.name})


def perm_rep(g: PermGroup, name: str = "") -> UnitaryRep:
    """Permutation matrices of the natural action."""
    images = []
    for p in g.generators:
        m = np.zeros((g.degree, g.degree), dtype=complex)
        m[p.images, np.arange(g.degree)] = 1.0
        images.append(m)
    return UnitaryRep(g, images, name=name or f"perm{g.degree}",
                      provenance={"carrier": "perm"})


def tensor_power(rep: UnitaryRep, k: int) -> UnitaryRep:
    if k < 1:
        raise RepError("k must be >= 1")
    if rep.dim ** k > config.TENSOR_BUDGET:
        raise CarrierBudgetError(
            f"{rep.dim}^{k} exceeds the dense tensor budget {config.TENSOR_BUDGET}")
    images = []
    for m in rep.gen_images:
        out = m
        for _ in range(k - 1):
            out = np.kron(out, m)
        images.append(out)
    return UnitaryRep(rep.group, images, name=f"{rep.name}^x{k}",
                      provenance={"carrier": f"tensor{k}", "base": rep.name})


class PermTensorCarrier:
    """k-th tensor power of the natural permutation module, applied as flat
    index gathers; matrices are never formed."""

    def __init__(self, group: PermGroup, k: int,
                 budget: int = config.VECTOR_CARRIER_BUDGET):
        self.group = group
        self.k = k
        d = group.degree
        self.dim = d ** k
        if self.dim > budget:
            raise CarrierBudgetError(
                f"{d}^{k} exceeds the carrier budget {budget}")
        self.name = f"perm{d}^x{k}"
        self._gen_idx = [self._flat_index(p.inverse().images)
                         for p in group.generators]
        self._gen_idx_inv = [self._flat_index(p.images)
                             for p in group.generators]

    def _flat_index(self, inv_images: np.ndarray) -> np.ndarray:
        """(rho(g) v)[p] = v[g^-1 p], flattened over k-tuples."""
        d = self.group.degree
        idx = inv_images.astype(np.int64)
        out = idx
        for _ in range(self.k - 1):
            out = (out[:, None] * d + idx[None, :]).ravel()
        return out

    def apply_gen(self, gi: int, vec: np.ndarray) -> np.ndarray:
        return vec[self._gen_idx[gi]]

    def apply_gen_inv(self, gi: int, vec: np.ndarray) -> np.ndarray:
        return vec[self._gen_idx_inv[gi]]

    def gen_image(self, gi: int) -> np.ndarray:
        # rho(g)[p, q] = 1 iff q = g^-1 p
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[np.arange(self.dim), self._gen_idx[gi]] = 1.0
        return m

    def character(self) -> ClassFunction:
        cc = self.group.conjugacy_classes()
        d = self.group.degree
        fix = np.array([(rep.images == np.arange(d, dtype=rep.images.dtype)).sum()
                        for rep in cc.reps], dtype=float)
        return ClassFunction(fix ** self.k, self.group.name, cc.sizes)

    weighted_vector_sum = _weighted_vector_sum


# ------------------------------------------------------------- projectors


@dataclass
class IsotypicProjector:
    matrix: np.ndarray
    character_subset: list[int]
    rank: int

    def check(self, tol: float = TOL.ortho) -> "IsotypicProjector":
        p = self.matrix
        if np.abs(p - p.conj().T).max() > tol:
            raise RepError("projector is not Hermitian")
        if np.abs(p @ p - p).max() > tol:
            raise RepError("projector is not idempotent")
        tr = np.trace(p)
        if abs(tr.real - self.rank) > TOL.integer or abs(tr.imag) > TOL.integer:
            raise RepError(f"projector trace {tr:.6f} != rank {self.rank}")
        return self


def isotypic_weights(table: CharacterTable, chars: list[int]) -> np.ndarray:
    """w(h) = sum_{i in S} chi_i(1) conj(chi_i(h)) / |H|, per class of H."""
    order = table.order
    w = np.zeros(table.n_classes, dtype=complex)
    for i in chars:
        chi = table.irreducibles[i].values
        w += chi[0].real * np.conj(chi) / order
    return w


def isotypic_projector(rep: UnitaryRep, table: CharacterTable,
                       chars: list[int]) -> IsotypicProjector:
    """Projector onto the direct sum of the chosen isotypic components of
    rep's group (Maschke averaging with character weights)."""
    if rep.group.order != table.order:
        raise RepError("table does not belong to the representation's group")
    p = rep.weighted_group_sum(isotypic_weights(table, chars))
    degs = table.degrees()
    rank = sum(multiplicity(rep, table, i) * int(degs[i]) for i in chars)
    return IsotypicProjector(p, list(chars), rank).check()


# ------------------------------------------------------------- extraction


def multiplicity(carrier, table: CharacterTable, chi_index: int) -> int:
    mu = inner_product(carrier.character(), table.irreducibles[chi_index])
    if abs(mu.imag) > TOL.integer or abs(mu.real - round(mu.real)) > TOL.integer:
        raise RepError(f"non-integer carrier multiplicity {mu}")
    return int(round(mu.real))


def extract_irrep(carrier, g: PermGroup, table: CharacterTable,
                  chi_index: int, seed: int = config.DEFAULT_SEED,
                  max_tries: int = 5) -> UnitaryRep:
    """Cut one copy of an irreducible out of a carrier representation.

    Project a random vector into the isotypic subspace and span its orbit;
    at multiplicity one that span is the copy.  Higher multiplicity: average
    a random rank-one matrix over the span into the commutant and take one
    eigenvalue cluster, which is a single copy.
    """
    chi = table.irreducibles[chi_index]
    target = int(round(chi.degree.real))
    mu = multiplicity(carrier, table, chi_index)
    if mu < 1:
        raise ExtractionError(
            f"character {chi_index} does not appear in carrier {carrier.name}")
    weights = isotypic_weights(table, [chi_index])
    last: Exception | None = None
    for t in range(max_tries):
        rng = np.random.default_rng(seed + t)
        try:
            basis = _single_copy_basis(carrier, g, weights, target, mu, rng)
            images = _compress_generators(carrier, basis)
            rep = UnitaryRep(g, images, name=f"irr{target}",
                             provenance={"carrier": carrier.name,
                                         "character_index": chi_index,
                                         "seed": seed + t,
                                         "multiplicity": mu})
            _check_extracted(rep, chi)
            return rep
        except (ExtractionError, RepError) as err:
            last = err
    raise ExtractionError(f"extraction failed after {max_tries} seeds: {last}")


def _grow_orbit_basis(carrier, seeds, cap):
    basis = []
    queue = []
    for s in seeds:
        vec = _orthogonal_residual(s, basis)
        if vec is not None:
            basis.append(vec)
            queue.append(vec)
    n_gens = len(carrier.group.generators)
    while queue and len(basis) < cap:
        v = queue.pop(0)
        for gi in range(n_gens):
            u = _orthogonal_residual(carrier.apply_gen(gi, v), basis)
            if u is not None:
                basis.append(u)
                queue.append(u)
                if len(basis) >= cap:
                    break
    return basis


def _orthogonal_residual(vec, basis, rel_tol: float = None):
    rel_tol = rel_tol or TOL.rel_distance
    scale = np.linalg.norm(vec)
    for b in basis:
        vec = vec - (b.conj() @ vec) * b
    # second sweep keeps orthogonality tight against rounding
    for b in basis:
        vec = vec - (b.conj() @ vec) * b
    norm = np.linalg.norm(vec)
    if norm <= rel_tol * max(scale, 1.0):
        return None
    return vec / norm


def _single_copy_basis(carrier, g, weights, target, mu, rng):
    # full isotypic basis first
    v0 = rng.standard_normal(carrier.dim) + 1j * rng.standard_normal(carrier.dim)
    w0 = carrier.weighted_vector_sum(weights, v0)
    norm = np.linalg.norm(w0)
    if norm < 1e-10:
        raise ExtractionError("projected vector vanished")
    full = _grow_orbit_basis(carrier, [w0 / norm], target * mu + 1)
    if len(full) < target * mu:
        # orbit of one vector can miss copies; seed with more projections
        for _ in range(mu):
            v = rng.standard_normal(carrier.dim) + 1j * rng.standard_normal(carrier.dim)
            w = carrier.weighted_vector_sum(weights, v)
            full = _grow_orbit_basis(carrier, [b for b in np.array(full)] + [w],
                                     target * mu + 1)
            if len(full) >= target * mu:
                break
    if len(full) != target * mu:
        raise ExtractionError(
            f"isotypic basis has rank {len(full)}, expected {target * mu}")
    b = np.array(full).T                      # dim x (target*mu)
    if mu == 1:
        return b
    # compress generators, then average a random rank-1 into the commutant
    comp = _compress_generators(carrier, b)
    small = UnitaryRep(g, comp, name="isotypic")
    x = rng.standard_normal(target * mu) + 1j * rng.standard_normal(target * mu)
    t = _reynolds_rank1(small, x)
    evals, evecs = np.linalg.eigh(t)
    clusters = _eigen_clusters(evals)
    for lo, hi in clusters:
        if hi - lo == target:
            return b @ evecs[:, lo:hi]
    raise ExtractionError(
        f"no eigenvalue cluster of size {target} in commutant spectrum")


def _reynolds_rank1(rep: UnitaryRep, x: np.ndarray) -> np.ndarray:
    """T = (1/|G|) sum_g (rho(g)x)(rho(g)x)^H, a commutant element.

    The walk yields rho(node^-1)x per node, which covers {rho(g)x : g}."""
    acc = np.zeros((rep.dim, rep.dim), dtype=complex)
    for _, v in _walk(rep.group, x.astype(complex), rep.apply_gen_inv):
        acc += np.outer(v, v.conj())
    return acc / rep.group.order


def _eigen_clusters(evals: np.ndarray) -> list[tuple[int, int]]:
    scale = max(1.0, float(np.abs(evals).max()))
    out = []
    lo = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > 1e-6 * scale:
            out.append((lo, i))
            lo = i
    return out


def _compress_generators(carrier, basis) -> list[np.ndarray]:
    cols = [carrier.apply_gen(gi, basis[:, j])
            for gi in range(len(carrier.group.generators))
            for j in range(basis.shape[1])]
    k = basis.shape[1]
    images = []
    for gi in range(len(carrier.group.generators)):
        block = np.array(cols[gi * k:(gi + 1) * k]).T
        images.append(basis.conj().T @ block)
    return images


def _check_extracted(rep: UnitaryRep, chi: ClassFunction):
    rep.check_unitary_homomorphism(n_pairs=100)
    got = rep.character()
    if np.abs(got.values - chi.values).max() > TOL.integer:
        raise ExtractionError("extracted character does not match target")
    ip = inner_product(got, chi)
    if abs(ip - 1) > TOL.integer:
        raise ExtractionError(f"<extracted, target> = {ip}, expected 1")


def find_carrier(g: PermGroup, table: CharacterTable, chi_index: int,
                 max_power: int = 3):
    """Smallest perm tensor power containing the target character."""
    for k in range(1, max_power + 1):
        try:
            carrier = PermTensorCarrier(g, k)
        except CarrierBudgetError:
            break
        if multiplicity(carrier, table, chi_index) >= 1:
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
        body = text.strip().strip("[]")
        return cls(tuple(int(t) for t in body.replace(",", " ").split()))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        k = self.parts[0]
        return Partition(tuple(sum(1 for r in self.parts if r > j)
                               for j in range(k)))

    def hooks(self) -> list[list[int]]:
        conj = self.conjugate().parts
        return [[(row - j - 1) + (conj[j] - i - 1) + 1 for j in range(row)]
                for i, row in enumerate(self.parts)]

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def hook_dimension(lam: Partition) -> int:
    import math
    prod = 1
    for row in lam.hooks():
        for h in row:
            prod *= h
    dim, rem = divmod(math.factorial(lam.n), prod)
    assert rem == 0
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


def young_orthogonal_rep(n_or_group, lam: Partition,
                         budget: int = config.TENSOR_BUDGET) -> UnitaryRep:
    """Young's orthogonal form on standard tableaux.

    For the adjacent transposition s_k = (k, k+1), acting on tableau T with
    axial distance d = content(k+1) - content(k):
        s_k T_vec = (1/d) T_vec + sqrt(1 - 1/d^2) (swapped T)_vec
    """
    if isinstance(n_or_group, PermGroup):
        group = n_or_group
        n = group.degree
    else:
        n = int(n_or_group)
        group = None
    if lam.n != n:
        raise RepError(f"partition of {lam.n} against degree {n}")
    dim = hook_dimension(lam)
    if dim > budget:
        raise CarrierBudgetError(f"dimension {dim} exceeds budget {budget}")
    if group is None:
        group = PermGroup.symmetric(n)
    tabs = standard_tableaux(lam)
    assert len(tabs) == dim
    index = {t: i for i, t in enumerate(tabs)}
    pos = []                                   # entry -> (row, col) per tableau
    for t in tabs:
        where = {}
        for i, row in enumerate(t):
            for j, e in enumerate(row):
                where[e] = (i, j)
        pos.append(where)

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
    rep = UnitaryRep(group, images, name=f"young{lam}",
                     provenance={"partition": str(lam)})
    return rep


# ----------------------------------------------- rotation rep of Sp(6, 2)
#
# The seven-dimensional irreducible of Sp(6, 2) is not a constituent of any
# small tensor power of its doubly transitive permutation actions, so it is
# built directly: Sp(6, 2) is the rotation subgroup of the reflection group
# of the E7 root system, root pairs biject with nonzero vectors of F_2^6,
# and a transvection t_v maps to minus the reflection in the matching root.


def _e7_roots() -> np.ndarray:
    """The 126 roots: E8 roots orthogonal to e7 + e8."""
    roots = []
    for i in range(6):
        for j in range(i + 1, 6):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(8)
                    v[i], v[j] = si, sj
                    roots.append(v)
    v = np.zeros(8)
    v[6], v[7] = 1.0, -1.0
    roots.extend([v, -v])
    for mask in range(256):
        if bin(mask).count("1") % 2:
            continue
        s = np.array([-0.5 if (mask >> t) & 1 else 0.5 for t in range(8)])
        if s[6] + s[7] == 0.0:
            roots.append(s)
    out = np.array(roots)
    assert out.shape == (126, 8)
    return out


def _e7_simple_roots(roots: np.ndarray) -> np.ndarray:
    f = roots @ (3.0 ** np.arange(8)[::-1])
    assert np.abs(f).min() > 0.4
    pos = roots[f > 0]
    assert len(pos) == 63
    keys = {tuple(np.round(2 * r).astype(int)) for r in pos}
    simple = []
    for r in pos:
        sums = r[None, :] - pos
        if not any(tuple(np.round(2 * s).astype(int)) in keys
                   for s in sums if np.abs(s).sum() > 1e-9):
            simple.append(r)
    out = np.array(simple)
    assert out.shape == (7, 8)
    return out


class _E7Dictionary:
    """Root pair <-> nonzero symplectic vector correspondence for m = 3."""

    def __init__(self):
        from . import symplectic as sp
        roots = _e7_roots()
        simple = _e7_simple_roots(roots)
        coords, _, _, _ = np.linalg.lstsq(simple.T, roots.T, rcond=None)
        coords = coords.T
        icoords = np.round(coords).astype(int)
        assert np.abs(simple.T @ coords.T - roots.T).max() < 1e-9
        assert np.abs(coords - icoords).max() < 1e-9
        gram = np.round(simple @ simple.T).astype(int)
        g2_rows = [int(sum((gram[i, j] & 1) << j for j in range(7)))
                   for i in range(7)]

        def bq(u: int, w: int) -> int:
            acc = 0
            for i in range(7):
                if u >> i & 1:
                    acc ^= bin(g2_rows[i] & w).count("1") & 1
            return acc

        rad = [v for v in range(1, 128) if all(bq(v, 1 << j) == 0
                                               for j in range(7))]
        assert len(rad) == 1          # one-dimensional radical
        pairs = []

        def perp_ok(v):
            return all(bq(v, u) == 0 and bq(v, w) == 0 for u, w in pairs)

        span = {0, rad[0]}
        for _ in range(3):
            u = next(v for v in range(1, 128) if v not in span and perp_ok(v))
            w = next(v for v in range(1, 128)
                     if perp_ok(v) and bq(u, v) == 1)
            pairs.append((u, w))
            span = {a ^ bu ^ cw for a in span for bu in (0, u) for cw in (0, w)}
        self._pairs = pairs
        self._bq = bq

        masks = [int(sum((int(icoords[r, i]) & 1) << i for i in range(7)))
                 for r in range(126)]
        vecs = [self._to_symplectic(c) for c in masks]
        self.root_of_vec = {}
        for r, v in enumerate(vecs):
            assert 0 < v < 64
            self.root_of_vec.setdefault(v, []).append(r)
        assert len(self.root_of_vec) == 63
        assert all(len(rs) == 2 for rs in self.root_of_vec.values())
        # form compatibility: B(v(a), v(b)) = <a, b> mod 2
        ip = np.round(roots @ roots.T).astype(int)
        for a in range(126):
            for b in range(a, 126):
                if sp.bform(vecs[a], vecs[b], 3) != (ip[a, b] & 1):
                    raise RepError("mod-2 quotient is not form compatible")
        basis = np.zeros((7, 8))
        basis[:6, :6] = np.eye(6)
        basis[6, 6], basis[6, 7] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        self._refl = []
        for r in range(126):
            a7 = basis @ roots[r]
            self._refl.append(np.eye(7) - np.outer(a7, a7))

    def _to_symplectic(self, mask: int) -> int:
        v = 0
        for i, (u, w) in enumerate(self._pairs):
            v |= self._bq(mask, w) << i
            v |= self._bq(mask, u) << (3 + i)
        return v

    def transvection_image(self, v: int) -> np.ndarray:
        return -self._refl[self.root_of_vec[v][0]]


_E7: _E7Dictionary | None = None


def _e7_dictionary() -> _E7Dictionary:
    global _E7
    if _E7 is None:
        _E7 = _E7Dictionary()
    return _E7


def symplectic_rotation_rep(group: PermGroup) -> UnitaryRep:
    """The 7-dimensional representation of a form-orbit action of Sp(6, 2).

    Each generator's linear part is decoded from its label permutation,
    factored into transvections, and mapped to a product of negated root
    reflections (an element of the rotation subgroup of W(E7))."""
    from . import symplectic as sp
    m = 3
    plus, minus = sp.form_orbits(m)
    by_degree = {len(plus): plus, len(minus): minus}
    if group.degree not in by_degree:
        raise RepError(f"degree {group.degree} is not a form orbit of Sp(6,2)")
    orbit = by_degree[group.degree]
    dic = _e7_dictionary()
    images = []
    for p in group.generators:
        cols, _ = sp.cols_from_orbit_perm(p.images, orbit, m)
        mat = np.eye(7)
        for v in sp.transvection_factor(cols, m):
            mat = mat @ dic.transvection_image(v)
        if abs(np.linalg.det(mat) - 1.0) > TOL.integer:
            raise RepError("rotation image has determinant != 1")
        images.append(mat)
    return UnitaryRep(group, images, name="rotation7",
                      provenance={"carrier": "weyl-e7"})


# ------------------------------------------------------------------ export


def save_rep(rep: UnitaryRep, path) -> None:
    doc = {
        "dimension": rep.dim,
        "group": rep.group.name,
        "generators": [
            [[[float(v.real), float(v.imag)] for v in row] for row in m]
            for m in rep.gen_images
        ],
        "character": [[float(v.real), float(v.imag)]
                      for v in rep.character().values],
        "provenance": rep.provenance,
    }
    Path(path).write_text(json.dumps(doc))
