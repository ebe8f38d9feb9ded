"""Complex character tables via the Burnside class-sum eigenvector method.

Everything is floating point: irreducible characters come out of numpy.linalg.eig
applied to a random real combination of class-multiplication matrices, then a
Loewdin step restores first orthogonality to ~1e-12.  Integrality (degrees,
restriction multiplicities) is recovered by rounding under the fixed tolerance
ladder, never assumed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .permgroup import ConjugacyClasses, PermGroup

TOL = config.TOL


class CharacterError(Exception):
    pass


class EigSeparationError(CharacterError):
    """No random class-matrix combination separated the eigenvectors."""


@dataclass
class ClassFunction:
    """One complex value per conjugacy class, tied to a named group."""

    values: np.ndarray
    group: str
    sizes: np.ndarray          # class sizes, for inner products

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if self.values.shape != self.sizes.shape:
            raise CharacterError("class value/size length mismatch")

    @property
    def degree(self) -> complex:
        return self.values[0]

    def __len__(self) -> int:
        return len(self.values)


def inner_product(phi: ClassFunction, psi: ClassFunction) -> complex:
    """(1/|G|) sum over G of phi(g) conj(psi(g)), via class sizes."""
    if phi.group != psi.group or len(phi) != len(psi):
        raise CharacterError(f"class functions on different groups: "
                             f"{phi.group!r} vs {psi.group!r}")
    order = int(phi.sizes.sum())
    return complex(np.sum(phi.sizes * phi.values * np.conj(psi.values)) / order)


@dataclass
class CharacterTable:
    group: str
    classes: ConjugacyClasses
    irreducibles: list[ClassFunction]
    source: str                    # "computed" or "loaded"
    tolerance: float = TOL.ortho
    seed: int | None = None        # RNG seed that produced the split

    @property
    def n_classes(self) -> int:
        return len(self.irreducibles)

    @property
    def order(self) -> int:
        return int(self.classes.sizes.sum())

    def matrix(self) -> np.ndarray:
        return np.array([chi.values for chi in self.irreducibles])

    def degrees(self) -> np.ndarray:
        degs = np.array([chi.degree for chi in self.irreducibles])
        if np.abs(degs.imag).max() > TOL.integer:
            raise CharacterError("complex degree in table")
        rounded = np.round(degs.real).astype(np.int64)
        if np.abs(degs.real - rounded).max() > TOL.integer:
            raise CharacterError("non-integer degree in table")
        if (rounded <= 0).any():
            raise CharacterError("non-positive degree in table")
        return rounded

    def orthogonality_residual(self) -> float:
        x = self.matrix()
        w = self.classes.sizes / self.order
        gram = (x * w) @ x.conj().T
        first = float(np.abs(gram - np.eye(self.n_classes)).max())
        col = x.conj().T @ x                      # second orthogonality
        target = np.diag(self.order / self.classes.sizes)
        second = float(np.abs(col - target).max())
        return max(first, second)

    def check(self):
        res = self.orthogonality_residual()
        if res > self.tolerance:
            raise CharacterError(f"orthogonality residual {res:.3e} exceeds "
                                 f"{self.tolerance:.1e}")
        degs = self.degrees()
        if int((degs ** 2).sum()) != self.order:
            raise CharacterError("sum of squared degrees is not the group order")
        return self


def class_multiplication(g: PermGroup,
                         classes: ConjugacyClasses | None = None) -> np.ndarray:
    """Structure constants a[i,j,k]: ways a fixed z in Cl_k splits as x*y
    with x in Cl_i, y in Cl_j."""
    if g._class_mult is not None:
        return g._class_mult
    cc = classes or g.conjugacy_classes()
    r = cc.n_classes
    einv = g.inverse_rows()
    cls = cc.class_of.astype(np.int64)
    a = np.zeros((r, r, r), dtype=np.int64)
    for k in range(r):
        zimg = cc.reps[k].images.astype(np.intp)
        y = einv[:, zimg]                       # y = x^-1 z_k, row per x
        cls_y = cls[g.lookup_rows(y)]
        counts = np.bincount(cls * r + cls_y, minlength=r * r)
        a[:, :, k] = counts.reshape(r, r)
    g._class_mult = a
    return a


def compute_table(g: PermGroup, seed: int = config.DEFAULT_SEED,
                  max_tries: int = 5) -> CharacterTable:
    cc = g.conjugacy_classes()
    r = cc.n_classes
    if r > config.MAX_CLASSES:
        raise CharacterError(f"{r} classes exceeds the table limit "
                             f"{config.MAX_CLASSES}")
    a = class_multiplication(g, cc)
    sizes = cc.sizes
    order = g.order
    last = None
    for t in range(max_tries):
        rng = np.random.default_rng(seed + t)
        weights = rng.standard_normal(r)
        m = np.tensordot(weights, a, axes=(0, 0)).astype(float)  # M[j,k]
        evals, evecs = np.linalg.eig(m)
        gap = _min_gap(evals)
        if gap < 1e-6 * (1 + np.abs(evals).max()):
            last = EigSeparationError(
                f"eigenvalue gap {gap:.2e} too small (seed {seed + t})")
            continue
        try:
            x = _characters_from_eigvecs(evecs, sizes, order)
            x = _loewdin(x, sizes, order)
            table = _as_table(g.name, cc, x, seed + t)
            return table.check()
        except CharacterError as err:
            last = err
    raise last if last is not None else EigSeparationError("no attempt made")


def _min_gap(evals: np.ndarray) -> float:
    diff = np.abs(evals[:, None] - evals[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def _characters_from_eigvecs(evecs, sizes, order) -> np.ndarray:
    r = evecs.shape[0]
    x = np.empty((r, r), dtype=complex)
    for s in range(r):
        v = evecs[:, s]
        if abs(v[0]) < 1e-12:
            raise CharacterError("eigenvector vanishes at the identity class")
        w = v / v[0]                             # central character values
        norm = float(np.sum(np.abs(w) ** 2 / sizes).real)
        deg = np.sqrt(order / norm)
        x[s] = deg * w / sizes
    return x


def _loewdin(x, sizes, order) -> np.ndarray:
    """Nearest exactly-orthonormal table under the class-size inner product."""
    w = sizes / order
    s = (x * w) @ x.conj().T
    evals, u = np.linalg.eigh(s)
    if evals.min() < 1e-6:
        raise CharacterError("character table nearly singular before polish")
    inv_sqrt = (u / np.sqrt(evals)) @ u.conj().T
    return inv_sqrt @ x


def _as_table(name, cc, x, seed) -> CharacterTable:
    # real positive degrees, then deterministic row order
    for s in range(x.shape[0]):
        d = x[s, 0]
        if abs(d.imag) > TOL.integer or d.real <= 0:
            raise CharacterError("bad degree after polish")
    keys = []
    for s in range(x.shape[0]):
        vals = x[s]
        keys.append((round(vals[0].real),
                     tuple(np.round(vals.real, 6)), tuple(np.round(vals.imag, 6))))
    rows = sorted(range(x.shape[0]), key=lambda s: keys[s])
    irr = [ClassFunction(x[s], name, cc.sizes) for s in rows]
    return CharacterTable(name, cc, irr, source="computed", seed=seed)


# ---------------------------------------------------------------- file io


def save_table(table: CharacterTable, path) -> None:
    doc = {
        "group": table.group,
        "class_sizes": table.classes.sizes.tolist(),
        "class_orders": table.classes.orders.tolist(),
        "irreducibles": [
            [[float(v.real), float(v.imag)] for v in chi.values]
            for chi in table.irreducibles
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_table(path, g: PermGroup | None = None) -> CharacterTable:
    doc = json.loads(Path(path).read_text())
    sizes = np.array(doc["class_sizes"], dtype=np.int64)
    orders = np.array(doc["class_orders"], dtype=np.int64)
    rows = doc["irreducibles"]
    if len(rows) != len(sizes):
        raise CharacterError("row count does not match class count")
    if g is not None:
        cc = g.conjugacy_classes()
        if cc.n_classes != len(sizes):
            raise CharacterError(
                f"file has {len(sizes)} classes, group has {cc.n_classes}")
        if not (np.array_equal(cc.sizes, sizes)
                and np.array_equal(cc.orders, orders)):
            raise CharacterError("class sizes/orders disagree with the group")
        name = g.name
    else:
        cc = ConjugacyClasses(reps=[], sizes=sizes,
                              class_of=np.array([], dtype=np.int32), orders=orders)
        name = doc["group"]
    x = np.array([[complex(re, im) for re, im in row] for row in rows])
    irr = [ClassFunction(row, name, sizes) for row in x]
    table = CharacterTable(name, cc, irr, source="loaded")
    return table.check()


# ------------------------------------------------------------ restriction


@dataclass
class RestrictionDecomposition:
    multiplicities: np.ndarray          # one non-negative int per H-irreducible
    parent_character: ClassFunction
    subgroup_table: CharacterTable
    fusion: np.ndarray                  # G-class index per H-class

    def nonzero(self) -> list[tuple[int, int]]:
        return [(i, int(m)) for i, m in enumerate(self.multiplicities) if m]


def class_fusion(g: PermGroup, h: PermGroup) -> np.ndarray:
    """G-class index of each H-class (membership lookup of the H-reps)."""
    gcc = g.conjugacy_classes()
    hcc = h.conjugacy_classes()
    fusion = np.empty(hcc.n_classes, dtype=np.int64)
    for j, rep in enumerate(hcc.reps):
        fusion[j] = gcc.class_of[g.index_of(rep)]
    return fusion


def restrict_and_decompose(chi: ClassFunction, g: PermGroup, h: PermGroup,
                           h_table: CharacterTable | None = None
                           ) -> RestrictionDecomposition:
    if h_table is None:
        h_table = compute_table(h)
    fusion = class_fusion(g, h)
    down = ClassFunction(chi.values[fusion], h_table.group, h_table.classes.sizes)
    lams = np.array([inner_product(down, psi) for psi in h_table.irreducibles])
    if np.abs(lams.imag).max() > TOL.integer:
        raise CharacterError("complex restriction multiplicity")
    rounded = np.round(lams.real).astype(np.int64)
    resid = float(np.abs(lams.real - rounded).max())
    if resid > TOL.integer or (rounded < 0).any():
        raise CharacterError(
            f"non-integer multiplicity (residual {resid:.2e}); "
            "wrong table or fusion")
    degs = h_table.degrees()
    total = int((rounded * degs).sum())
    parent_deg = int(round(chi.degree.real))
    if total != parent_deg:
        raise CharacterError(
            f"restricted degrees sum to {total}, parent degree {parent_deg}")
    return RestrictionDecomposition(rounded, chi, h_table, fusion)


# ----------------------------------------------------- identity checking


@dataclass
class IdentityReport:
    max_residual_product: float        # class-sum product identity
    max_residual_twist: float          # summed conjugation identity
    pairs_checked: int

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_product, self.max_residual_twist)


def verify_character_identities(table: CharacterTable, g: PermGroup,
                                n_pairs: int | None = None,
                                seed: int = config.DEFAULT_SEED) -> IdentityReport:
    """Check, per irreducible, the two class-sum identities the equidistance
    proof rests on: chi(Cl(h1)^ Cl(h2)^) and sum_g chi(h1 g h2 g^-1) against
    their closed forms, to 1e-6 relative."""
    cc = g.conjugacy_classes()
    r = cc.n_classes
    a = class_multiplication(g, cc)
    x = table.matrix()
    sizes = cc.sizes.astype(float)
    degs = x[:, 0].real

    # product identity, all class pairs at once:
    # sum_k a[i,j,k] |Cl_k| chi(z_k) = |Cl_i||Cl_j| chi_i chi_j / chi(1)
    lhs = np.einsum("ijk,sk->sij", a * sizes[None, None, :], x)
    rhs = (sizes[None, :, None] * sizes[None, None, :]
           * x[:, :, None] * x[:, None, :] / degs[:, None, None])
    res6 = float((np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max())

    # twisted sum, sampled pairs: sum_g chi(h1 g h2 g^-1) = |G| chi1 chi2 / chi(1)
    pairs = [(i, j) for i in range(r) for j in range(r)]
    if n_pairs is not None and n_pairs < len(pairs):
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(pairs), size=n_pairs, replace=False)
        pairs = [pairs[int(p)] for p in pick]
    rows = g.rows
    einv = g.inverse_rows()
    cls = cc.class_of
    res7 = 0.0
    for i, j in pairs:
        h1 = cc.reps[i].images.astype(np.intp)
        h2 = cc.reps[j].images.astype(np.intp)
        s = h2[einv]                                    # h2 . g^-1
        u = np.take_along_axis(rows, s.astype(np.intp), axis=1)   # g h2 g^-1
        w = h1[u]                                       # h1 g h2 g^-1
        counts = np.bincount(cls[g.lookup_rows(w)], minlength=r).astype(float)
        lhs7 = x @ counts
        rhs7 = g.order * x[:, i] * x[:, j] / degs
        res7 = max(res7, float((np.abs(lhs7 - rhs7)
                                / np.maximum(1.0, np.abs(rhs7))).max()))
    report = IdentityReport(res6, res7, len(pairs))
    if report.max_residual > 1e-6:
        raise CharacterError(
            f"character identity residual {report.max_residual:.2e} exceeds 1e-6")
    return report
