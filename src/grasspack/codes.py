"""Orbit codes from isotypic subspaces, bounds certification, products,
unions, and the Clifford-group orthoplex construction."""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .characters import (CharacterTable, ClassFunction, compute_table,
                         inner_product, restrict_and_decompose)
from .grassmann import (PrincipalAngleSet, SubspaceProjector, as_fraction,
                        chordal_sq_trace, orthoplex_bound, principal_angles,
                        product_distance, simplex_bound)
from .permgroup import PermGroup, Permutation
from .reps import UnitaryRep, isotypic_weights, restrict_rep

TOL = config.TOL


class CodeError(Exception):
    pass


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


# ------------------------------------------------------------ census/params


def _chordal_gram(projectors) -> np.ndarray:
    """d_c^2 for every pair at once: m - tr(P_i P_j) via flattened inner
    products (valid because tr(PQ) = <vec P, vec Q> for Hermitian P, Q)."""
    m = projectors[0].m
    flat = np.stack([p.projector.ravel() for p in projectors])
    overlap = (flat @ flat.conj().T).real
    return m - overlap


def spa_census(projectors, full_limit: int = 200):
    """Distinct principal-angle sets over unordered pairs, with pair counts.

    Above `full_limit` codewords, pairs are first grouped by chordal
    distance and one representative pair per group is resolved to angles."""
    n_words = len(projectors)
    if n_words < 2:
        return []
    if n_words <= full_limit:
        sets: list[PrincipalAngleSet] = []
        counts: list[int] = []
        for a, b in itertools.combinations(projectors, 2):
            ang = principal_angles(a, b)
            for i, s in enumerate(sets):
                if ang.matches(s, tol=TOL.integer):
                    counts[i] += 1
                    break
            else:
                sets.append(ang)
                counts.append(1)
        return list(zip(sets, counts))
    gram = _chordal_gram(projectors)
    iu, ju = np.triu_indices(n_words, k=1)
    keys = np.round(gram[iu, ju] / (TOL.integer * 10)).astype(np.int64)
    out = []
    for key in np.unique(keys):
        where = np.nonzero(keys == key)[0]
        i, j = int(iu[where[0]]), int(ju[where[0]])
        out.append((principal_angles(projectors[i], projectors[j]),
                    int(where.size)))
    return out


def _params_from_census(n, m, census, n_words) -> CodeParams:
    d_min = min(s.chordal_sq() for s, _ in census) if census else 0.0
    dt_min = min(product_distance(s) for s, _ in census) if census else 0.0
    sb = simplex_bound(n, m, n_words)
    ob = orthoplex_bound(n, m, n_words)
    meets_s = abs(d_min - sb.value) <= TOL.rel_distance * sb.value
    meets_o = bool(ob.attainable) and abs(d_min - ob.value) <= \
        TOL.rel_distance * max(ob.value, 1.0)
    return CodeParams(n=n, m=m, N=n_words, d_c_sq_min=d_min,
                      d_tilde_min=dt_min,
                      spa_sets=tuple(s for s, _ in census),
                      meets_simplex=meets_s, meets_orthoplex=meets_o)


def _assemble(projectors, provenance) -> GrassmannCode:
    n, m = projectors[0].n, projectors[0].m
    census = spa_census(projectors)
    params = _params_from_census(n, m, census, len(projectors))
    return GrassmannCode(projectors=tuple(projectors), params=params,
                         provenance=provenance, census=tuple(census))


# ------------------------------------------------------------ orbit builds


def subspace_dimension(multiplicities, degrees, chars) -> int:
    """m = sum of lambda_i deg_i over the chosen H-characters: the dimension
    of the sum of their isotypic components in the restriction."""
    chars = [int(i) for i in chars]
    bad = [i for i in chars if not 0 <= i < len(multiplicities)]
    if bad:
        raise CodeError(f"character indices {bad} out of range "
                        f"0..{len(multiplicities) - 1}")
    if len(set(chars)) != len(chars):
        raise CodeError(f"repeated character index in {chars}")
    return int(sum(int(multiplicities[i]) * int(degrees[i]) for i in chars))


class IsotypicContext:
    """Shared machinery for building several codes from one (G, H, rho):
    the restricted representation, its class sums, the transversal images
    and the restriction decomposition are computed once."""

    def __init__(self, g: PermGroup, h: PermGroup, rho: UnitaryRep,
                 h_table: CharacterTable | None = None):
        if rho.group is not g:
            raise CodeError("representation does not belong to G")
        if not g.is_subgroup(h):
            raise CodeError("H is not a subgroup of G")
        chi = rho.character()
        if abs(inner_product(chi, chi) - 1) > TOL.integer:
            raise CodeError("representation is not irreducible")
        self.g, self.h, self.rho = g, h, rho
        self.h_table = h_table if h_table is not None else compute_table(h)
        self.rho_h = restrict_rep(rho, h)
        self.class_sums = self.rho_h.class_sums()
        self.decomposition = restrict_and_decompose(chi, g, h, self.h_table)
        transversal = g.coset_transversal(h)
        self.n_cosets = transversal.count
        self.t_images = [rho.image(t) for t in transversal.reps()]
        self.t_perms = list(transversal.reps())

    def subspace(self, chars) -> tuple[SubspaceProjector, int]:
        chars = list(chars)
        if not chars:
            raise CodeError("empty character subset")
        m = self.dimension(chars)
        n = self.rho.dim
        if m == 0:
            raise CodeError("W is the zero subspace for this character subset")
        if m == n:
            raise CodeError("W is the full space for this character subset")
        w = isotypic_weights(self.h_table, chars)
        pi = np.tensordot(w, self.class_sums, axes=(0, 0))
        return SubspaceProjector(pi), m

    def build(self, chars, name: str = "") -> GrassmannCode:
        pi_w, m = self.subspace(chars)
        projectors = [SubspaceProjector(u @ pi_w.projector @ u.conj().T)
                      for u in self.t_images]
        _check_distinct(projectors, self.n_cosets, self.h.order)
        prov = {"group": self.g.name, "subgroup": self.h.name,
                "subgroup_order": self.h.order, "rep": self.rho.name,
                "rep_provenance": self.rho.provenance,
                "chars": [int(c) for c in chars], "name": name}
        return _assemble(projectors, prov)

    def dimension(self, chars) -> int:
        return subspace_dimension(self.decomposition.multiplicities,
                                  self.h_table.degrees(), chars)

    def predict(self, chars) -> CodeParams:
        return predict_from_dimensions(self.rho.dim, self.dimension(chars),
                                       self.n_cosets)


def _check_distinct(projectors, expected_n, h_order):
    gram = _chordal_gram(projectors)
    dup = np.any(np.tril(gram <= TOL.integer, k=-1), axis=1)
    distinct = len(projectors) - int(dup.sum())
    if distinct != expected_n:
        raise StabilizerError(expected_n, distinct, h_order)


def build_isotypic_code(g: PermGroup, h: PermGroup, rho: UnitaryRep, chars,
                        h_table: CharacterTable | None = None) -> GrassmannCode:
    """Orbit of the direct sum of chosen H-isotypic components of rho."""
    return IsotypicContext(g, h, rho, h_table).build(chars)


# -------------------------------------------------------------- prediction


def predict_from_dimensions(n: int, m: int, big_n: int) -> CodeParams:
    """Parameters implied by the equidistant-orbit theorem; nothing is built."""
    if m <= 0 or m >= n:
        raise CodeError(f"m = {m} out of range for n = {n}")
    bound = simplex_bound(n, m, big_n)
    return CodeParams(n=n, m=m, N=big_n, d_c_sq_min=bound.value,
                      d_tilde_min=float("nan"), spa_sets=(),
                      meets_simplex=bound.attainable, meets_orthoplex=False)


def predict_params(chi_rho: ClassFunction, h: PermGroup,
                   h_table: CharacterTable, chars,
                   decomposition=None) -> CodeParams:
    """Parameters from characters alone.  The caller supplies the restriction
    decomposition (for enumerated pairs use restrict_and_decompose; for
    symmetric-group towers the branching rule gives it combinatorially)."""
    if decomposition is None:
        raise CodeError("restriction decomposition required")
    lam = getattr(decomposition, "multiplicities", decomposition)
    m = subspace_dimension(lam, h_table.degrees(), chars)
    n = int(round(chi_rho.degree.real))
    order_g = int(chi_rho.sizes.sum())
    big_n = order_g // h.order
    return predict_from_dimensions(n, m, big_n)


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
    rel_gap = (bound - d_min) / bound
    equi = (d_max - d_min) <= TOL.rel_distance * max(d_max, 1.0)
    return SimplexReport(d_min=d_min, d_max=d_max, bound=bound,
                         rel_gap=rel_gap, equidistant=equi,
                         certified=abs(rel_gap) <= TOL.rel_distance)


def verify_fonda2(g: PermGroup, h: PermGroup, rho: UnitaryRep, chars,
                  elem: Permutation,
                  h_table: CharacterTable | None = None) -> float:
    """Check the double-sum character expression for d_c^2(W, gW) against
    the trace computation; returns the relative residual."""
    ctx = IsotypicContext(g, h, rho, h_table)
    pi_w, m = ctx.subspace(chars)
    u = rho.image(elem)
    pi_gw = SubspaceProjector(u @ pi_w.projector @ u.conj().T)
    lhs = chordal_sq_trace(pi_w, pi_gw)

    e_by_class = h.order * isotypic_weights(ctx.h_table, chars)
    e_vals = e_by_class[h.conjugacy_classes().class_of]   # per H element

    chi_rho = rho.character().values
    g_class_of = g.conjugacy_classes().class_of
    ginv = elem.inverse()
    # rows of g h2 g^-1 for every h2 in H
    conj_rows = elem.images[h.rows[:, ginv.images.astype(np.intp)]]
    total = 0.0 + 0.0j
    for i1 in range(h.order):
        prods = h.rows[i1][conj_rows]
        cls = g_class_of[g.lookup_rows(prods)]
        total += e_vals[i1] * np.sum(e_vals * chi_rho[cls])
    rhs = m - (total / h.order ** 2).real
    residual = abs(lhs - rhs) / max(1.0, abs(lhs))
    if residual > TOL.integer:
        raise CodeError(f"character identity residual {residual:.2e}")
    return residual


# ------------------------------------------------------------------ unions


def build_union_code(g: PermGroup, h: PermGroup, rho: UnitaryRep,
                     char_subsets,
                     h_table: CharacterTable | None = None) -> GrassmannCode:
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
    ctx = IsotypicContext(g, h, rho, h_table)
    ws = [ctx.subspace(s) for s in subsets]
    ms = {m for _, m in ws}
    if len(ms) != 1:
        raise CodeError(f"component dimensions differ: {sorted(ms)}")
    m = ms.pop()
    for (wa, _), (wb, _) in itertools.combinations(ws, 2):
        if np.abs(wa.projector @ wb.projector).max() > TOL.ortho:
            raise CodeError("component subspaces are not orthogonal")
    projectors = []
    for w, _ in ws:
        projectors.extend(SubspaceProjector(u @ w.projector @ u.conj().T)
                          for u in ctx.t_images)
    big_n = len(projectors)
    _check_distinct(projectors, big_n, h.order)
    n = rho.dim
    cross_min = union_min_distance_formula(n, m, ctx.n_cosets)
    prov = {"group": g.name, "subgroup": h.name, "rep": rho.name,
            "char_subsets": [list(map(int, s)) for s in subsets],
            "predicted_min_d_c_sq": cross_min,
            "formula_at_total_count": union_min_distance_formula(n, m, big_n)}
    code = _assemble(projectors, prov)
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
    return _assemble(projectors, prov)


def kron_product(code1: GrassmannCode, code2: GrassmannCode) -> GrassmannCode:
    """All pairwise Kronecker products; min distance is verified downstream
    against min(m1 d2^2, m2 d1^2)."""
    if not code1.projectors or not code2.projectors:
        raise CodeError("empty factor code")
    projectors = [SubspaceProjector(np.kron(p.projector, q.projector))
                  for p in code1.projectors for q in code2.projectors]
    prov = {"kron_product": [code1.provenance, code2.provenance],
            "expected_min": min(code1.params.m * code2.params.d_c_sq_min,
                                code2.params.m * code1.params.d_c_sq_min)}
    return _assemble(projectors, prov)


# ------------------------------------------------------- Clifford orthoplex


class CliffordGroupData:
    """The real extraspecial-type group E = <X(a), Y(b)> in dimension 2^i,
    its involutions, and the abelian subgroup family S_r."""

    def __init__(self, i: int):
        if not 1 <= i <= 5:
            raise CodeError("i must be between 1 and 5")
        self.i = i
        self.n = 1 << i

    def x_matrix(self, a: int) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for u in range(self.n):
            m[u ^ a, u] = 1.0
        return m

    def y_matrix(self, b: int) -> np.ndarray:
        return np.diag([(-1.0) ** bin(b & u).count("1") for u in range(self.n)])

    def element(self, sign: int, a: int, b: int) -> np.ndarray:
        return sign * self.x_matrix(a) @ self.y_matrix(b)

    def order(self) -> int:
        return 1 << (2 * self.i + 1)

    @staticmethod
    def _mul(p, q):
        # (s, a, b) -> product labels: X(a)Y(b) X(c)Y(d) = (-1)^{b.c} X(a+c)Y(b+d)
        s1, a, b = p
        s2, c, d = q
        sign = s1 * s2 * (-1) ** (bin(b & c).count("1") & 1)
        return (sign, a ^ c, b ^ d)

    def involution_labels(self) -> list[tuple[int, int]]:
        """(a, b) != 0 with a.b even: the order-2 elements up to sign."""
        out = []
        for a in range(self.n):
            for b in range(self.n):
                if (a, b) != (0, 0) and bin(a & b).count("1") % 2 == 0:
                    out.append((a, b))
        return out

    def subgroup_family(self, r: int) -> list[tuple[tuple[int, int], ...]]:
        """S_r: abelian subgroups <-I, g_1..g_r>, returned as the canonical
        labels of the 2^r products indexed by exponent masks."""
        invs = self.involution_labels()
        seen = set()
        family = []
        for combo in itertools.combinations(invs, r):
            ok = True
            for (a, b), (c, d) in itertools.combinations(combo, 2):
                if (bin(a & d).count("1") + bin(b & c).count("1")) % 2:
                    ok = False
                    break
            if not ok:
                continue
            canon = []
            for eps in range(1 << r):
                acc = (1, 0, 0)
                for t in range(r):
                    if eps >> t & 1:
                        acc = self._mul(acc, (1, *combo[t]))
                canon.append(acc)
            labels = {(a, b) for _, a, b in canon}
            if len(labels) != 1 << r:       # generators not independent
                continue
            key = frozenset(labels)
            if key in seen:
                continue
            seen.add(key)
            family.append(tuple(canon))
        return family


def build_clifford_orthoplex(i: int, r: int = 1) -> GrassmannCode:
    """Projectors (1/|S|) sum chi(s) s over S in S_r and characters with
    chi(-I) = -1; for r = 1 the distances are {m, m/2} and the orthoplex
    bound is met whenever N > n(n+1)/2."""
    data = CliffordGroupData(i)
    n = data.n
    family = data.subgroup_family(r)
    projectors = []
    membership = []
    for s_idx, canon in enumerate(family):
        mats = [data.element(*lbl) for lbl in canon]
        for signs in itertools.product((1, -1), repeat=r):
            # chi(g_eps) = prod signs[t]^eps_t; the canonical sign of g_eps
            # is already inside mats[eps], matching chi's multiplicativity
            pi = np.zeros((n, n))
            for eps in range(1 << r):
                chi = 1
                for t in range(r):
                    if eps >> t & 1:
                        chi *= signs[t]
                pi += chi * mats[eps]
            pi /= 1 << r
            projectors.append(SubspaceProjector(pi))
            membership.append(s_idx)
    _check_distinct(projectors, len(projectors), 1 << (r + 1))
    prov = {"clifford_i": i, "r": r, "n_subgroups": len(family),
            "same_subgroup": membership}
    return _assemble(projectors, prov)


# ------------------------------------------------------------------ export


def code_csv_row(code: GrassmannCode, group: str = "", subgroup: str = "") -> str:
    p = code.params
    frac = as_fraction(p.d_c_sq_min)
    if frac is not None:
        num, den = str(frac.numerator), str(frac.denominator)
    else:
        num, den = f"{p.d_c_sq_min:.12g}", ""
    g = group or code.provenance.get("group", "")
    h = subgroup or code.provenance.get("subgroup", "")
    return f"{g},{h},{p.n},{p.m},{p.N},{num},{den},{str(p.meets_simplex).lower()}"


def save_code(code: GrassmannCode, path, include_projectors: bool = False):
    p = code.params
    doc = {
        "params": {
            "n": p.n, "m": p.m, "N": p.N,
            "d_c_sq_min": p.d_c_sq_min, "d_tilde_min": p.d_tilde_min,
            "spa_sets": [list(s.sin_sq) for s in p.spa_sets],
            "simplex_bound": simplex_bound(p.n, p.m, p.N).value,
            "orthoplex_bound": orthoplex_bound(p.n, p.m, p.N).value,
            "meets_simplex": p.meets_simplex,
            "meets_orthoplex": p.meets_orthoplex,
        },
        "census": [[list(s.sin_sq), c] for s, c in code.census],
        "provenance": code.provenance,
    }
    if include_projectors:
        doc["projectors"] = [
            [[[float(v.real), float(v.imag)] for v in row] for row in p.projector]
            for p in code.projectors
        ]
    Path(path).write_text(json.dumps(doc))
