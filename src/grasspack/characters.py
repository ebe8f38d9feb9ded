"""Complex character tables via the Burnside class-sum eigenvector method.

Everything is floating point: irreducible characters come out of numpy.linalg.eig
applied to a random real combination of class-multiplication matrices, then a
Loewdin step restores first orthogonality to ~1e-12.  Integrality (degrees,
restriction multiplicities) is recovered by rounding under the fixed tolerance
ladder, never assumed.

One table per group: `character_table` computes it once and keeps it on the
group, and production code reaches a table only through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .permgroup import ConjugacyClasses, PermGroup

TOL = config.TOL


class CharacterError(config.GrasspackError):
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

    def indicator(self, i: int) -> int:
        """Frobenius-Schur indicator of row i, (1/|G|) sum_C |C| chi(C^2):
        +1 for a character of real type (a real form exists), -1 for
        quaternionic type (real-valued, no real form) and 0 for a
        non-real-valued character.  CharacterError unless it is within
        TOL.integer of one of the three."""
        chi = self.irreducibles[i].values
        nu = complex(np.sum(self.classes.sizes * chi[self.classes.square])
                     / self.order)
        rounded = round(nu.real)
        if abs(nu - rounded) > TOL.integer or rounded not in (-1, 0, 1):
            raise CharacterError(f"Frobenius-Schur indicator {nu:.6g} of "
                                 f"row {i} is not -1, 0 or +1")
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
        if res > TOL.ortho:
            raise CharacterError(f"orthogonality residual {res:.3e} exceeds "
                                 f"{TOL.ortho:.1e}")
        degs = self.degrees()
        if int((degs ** 2).sum()) != self.order:
            raise CharacterError("sum of squared degrees is not the group order")
        return self


def class_multiplication(g: PermGroup) -> np.ndarray:
    """Structure constants a[i,j,k]: ways a fixed z in Cl_k splits as x*y
    with x in Cl_i, y in Cl_j; cached on g.  Block-major over x: each block
    of g's row blocks forms its x^-1 rows once and looks up x^-1 z_k for
    every class rep z_k."""
    if g._class_mult is not None:
        return g._class_mult
    cc = g.conjugacy_classes()
    r = cc.n_classes
    inv = g._inverse_index()
    cls = cc.class_of.astype(np.int64)
    zimgs = [z.images.astype(np.intp) for z in cc.reps]
    a = np.zeros((r, r, r), dtype=np.int64)
    for block in g.row_blocks():
        xinv = g.rows[inv[block]]
        cls_x = cls[block] * r
        for k, zimg in enumerate(zimgs):
            cls_y = cls[g.lookup_rows(xinv[:, zimg])]   # y = x^-1 z_k
            a[:, :, k] += np.bincount(cls_x + cls_y,
                                      minlength=r * r).reshape(r, r)
    g._class_mult = a
    return a


def character_table(g: PermGroup) -> CharacterTable:
    """g's character table: `compute_table(g)` on the first call, kept on g."""
    if g._characters is None:
        g._characters = compute_table(g)
    return g._characters


def compute_table(g: PermGroup,
                  seed: int = config.DEFAULT_SEED) -> CharacterTable:
    cc = g.conjugacy_classes()
    r = cc.n_classes
    if r > config.MAX_CLASSES:
        raise CharacterError(f"{r} classes exceeds the table limit "
                             f"{config.MAX_CLASSES}")
    a = class_multiplication(g)
    sizes = cc.sizes
    order = g.order
    last = None
    for t in range(config.SEED_TRIES):
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
    return CharacterTable(name, cc, irr, seed=seed)


# ------------------------------------------------------------ restriction


@dataclass
class RestrictionDecomposition:
    multiplicities: np.ndarray          # one non-negative int per H-irreducible
    character: ClassFunction            # the restricted character, on H
    subgroup_table: CharacterTable

    def nonzero(self) -> list[tuple[int, int]]:
        return [(i, int(m)) for i, m in enumerate(self.multiplicities) if m]


def class_fusion(g: PermGroup, h: PermGroup) -> np.ndarray:
    """G-class index of each H-class: one batched lookup of the H-reps' rows
    in G, PermError if one is not in G."""
    reps = h.rows[h.conjugacy_classes().rep_index]
    return g.conjugacy_classes().class_of[g.lookup_rows(reps)].astype(np.int64)


def restrict_and_decompose(chi: ClassFunction, g: PermGroup,
                           h: PermGroup) -> RestrictionDecomposition:
    return decompose(chi.values[class_fusion(g, h)], character_table(h))


def decompose(values, h_table: CharacterTable) -> RestrictionDecomposition:
    """Integer multiplicities of the irreducibles of `h_table` in the class
    function with `values`, one per class of the table's group."""
    down = ClassFunction(values, h_table.group, h_table.classes.sizes)
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
    parent_deg = int(round(down.degree.real))
    if total != parent_deg:
        raise CharacterError(
            f"restricted degrees sum to {total}, parent degree {parent_deg}")
    return RestrictionDecomposition(rounded, down, h_table)
