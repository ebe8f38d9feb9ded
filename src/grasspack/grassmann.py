"""Subspaces of C^n, principal angles, chordal and product distances, bounds.

Angle sets are stored as sin^2 values (ascending); angles are recovered from
orthonormal bases by SVD rather than from projector spectra, which is better
conditioned near zero angles.

A projector's dtype follows its data: float64 for real input, integers
included, and complex128 for complex input; nothing here casts to complex.
A stack of projectors is checked in chunks of the package's one
working-memory budget, `config.BLOCK_BYTES`, and held as packed rows
(`ProjectorStack`): the diagonal and lower triangle of each projector, the
triangle `eigh` reads.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import config

TOL = config.TOL


class GrassmannError(config.GrasspackError):
    pass


def _in_field(a) -> np.ndarray:
    """a as float64 when it is real, integers included, else as complex128."""
    a = np.asarray(a)
    return a.astype(np.result_type(a.dtype, float), copy=False)


def _checked_ranks(stack: np.ndarray) -> np.ndarray:
    """The rank of every matrix of an (N, n, n) stack of projectors, checked
    in chunks of about the byte budget of stack (`config.blocks`): each must
    be Hermitian and idempotent within TOL.ortho and have a trace within
    TOL.integer of an integer.  The first matrix that fails raises the
    GrassmannError of the first gate it fails, as when the matrices are
    checked one at a time; a NaN fails its gate."""
    ranks = np.empty(len(stack), dtype=np.int64)
    for part in config.blocks(len(stack), stack[:1].nbytes):
        p = stack[part]
        herm = np.abs(p - p.conj().transpose(0, 2, 1))
        idem = np.abs(p @ p - p)
        tr = np.trace(p, axis1=1, axis2=2).real
        m = np.rint(tr)
        off = np.abs(tr - m)
        # written as "not within" so that a NaN fails its gate
        if not (herm.max() <= TOL.ortho and idem.max() <= TOL.ortho
                and off.max() <= TOL.integer):
            herm, idem = herm.max(axis=(1, 2)), idem.max(axis=(1, 2))
            k = int(np.argmin((herm <= TOL.ortho) & (idem <= TOL.ortho)
                              & (off <= TOL.integer)))
            if not herm[k] <= TOL.ortho:
                raise GrassmannError("projector is not Hermitian")
            if not idem[k] <= TOL.ortho:
                raise GrassmannError("projector is not idempotent")
            raise GrassmannError(f"projector trace {tr[k]} is not an integer")
        ranks[part] = m
    return ranks


class SubspaceProjector:
    """Orthogonal projector onto an m-dimensional subspace of C^n.  The
    constructor and `stack` run one check (`_checked_ranks`): Hermitian and
    idempotent within TOL.ortho, trace within TOL.integer of an integer."""

    def __init__(self, projector: np.ndarray, basis: np.ndarray | None = None):
        p = _in_field(projector)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise GrassmannError("projector must be square")
        self._adopt(p, int(_checked_ranks(p[None])[0]))
        if basis is not None:
            basis = _in_field(basis)
            if np.abs(p - basis @ basis.conj().T).max() > TOL.ortho:
                raise GrassmannError("basis does not reproduce the projector")
        self._basis = basis

    def _adopt(self, p: np.ndarray, m: int):
        self.projector = p
        self.n = p.shape[0]
        self.m = m
        self._basis = None

    @classmethod
    def stack(cls, matrices: np.ndarray) -> "ProjectorStack":
        """The projectors of an (N, n, n) stack, in order, each of the rank
        the constructor would give, held as packed rows (`ProjectorStack`):
        an item is the Hermitian completion of its matrix's lower triangle.
        The stack is checked and packed in chunks of about the byte budget
        (`config.blocks`), and the first matrix that fails raises the
        constructor's error."""
        p = _in_field(matrices)
        if p.ndim != 3 or p.shape[1] != p.shape[2]:
            raise GrassmannError(f"projector stack of shape {p.shape} is "
                                 f"not (N, n, n)")
        chunks = (p[part] for part in config.blocks(len(p), p[:1].nbytes))
        return ProjectorStack.pack(chunks, len(p), p.shape[1], p.dtype)

    @classmethod
    def from_basis(cls, columns: np.ndarray) -> "SubspaceProjector":
        q, r = np.linalg.qr(_in_field(columns))
        keep = np.abs(np.diag(r)) > 1e-12
        q = q[:, keep]
        return cls(q @ q.conj().T, basis=q)

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal basis; recovered from the spectrum when not stored."""
        if self._basis is None:
            evals, evecs = np.linalg.eigh(self.projector)
            cols = evecs[:, evals > 0.5]
            if cols.shape[1] != self.m:
                raise GrassmannError("projector spectrum is not 0/1")
            self._basis = cols
        return self._basis

    def __repr__(self):
        return f"SubspaceProjector(n={self.n}, m={self.m})"


@functools.lru_cache
def lower_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the diagonal and lower triangle
    of an n x n matrix, row by row: the columns of a packed row."""
    il, jl = np.tril_indices(n)
    il.flags.writeable = jl.flags.writeable = False
    return il, jl


def completed(rows: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian n x n matrices of packed rows (..., n(n+1)/2): each
    row's lower triangle, its conjugate above the diagonal and the real part
    of its diagonal, which is all of a matrix that `eigh` reads."""
    il, jl = lower_triangle(n)
    p = np.empty(rows.shape[:-1] + (n, n), dtype=rows.dtype)
    p[..., jl, il] = rows.conj()
    p[..., il, jl] = rows
    if np.iscomplexobj(p):
        d = np.arange(n)
        p[..., d, d] = p[..., d, d].real
    return p


class ProjectorStack(Sequence):
    """Projectors onto subspaces of one C^n held as packed rows: row k of
    `rows` is the diagonal and lower triangle of projector k as it was
    given (`lower_triangle`), in its dtype, and `ranks[k]` is its rank.
    Item k is formed on access, as the projector of `completed(rows[k])`;
    `eigh` reads that triangle alone, so the item's basis and principal
    angles are those of the matrix that was packed.  The rows are in F
    order and read-only, and a slice is a stack of the same rows."""

    def __init__(self, rows: np.ndarray, ranks: np.ndarray, n: int):
        rows.flags.writeable = ranks.flags.writeable = False
        self.rows, self.ranks, self.n = rows, ranks, n

    @classmethod
    def pack(cls, chunks: Iterable[np.ndarray], count: int, n: int,
             dtype) -> "ProjectorStack":
        """The stack of `count` projectors of C^n given in order as (k, n, n)
        chunks, each checked (`_checked_ranks`) and packed into rows of
        `dtype` allocated once.  A chunk of another shape or dtype, or
        chunks of other than `count` matrices in all, is a GrassmannError."""
        il, jl = lower_triangle(n)
        # in F order, so that rows[lo:].T, the right factor of every Gram
        # block, is a row-major view: faster at blocks of a few dozen rows
        rows = np.empty((len(il), count), dtype=dtype).T
        ranks = np.empty(count, dtype=np.int64)
        at = 0
        for chunk in chunks:
            p = _in_field(chunk)
            if p.ndim != 3 or p.shape[1:] != (n, n):
                raise GrassmannError(f"projector chunk of shape {p.shape} "
                                     f"is not (k, {n}, {n})")
            if not np.can_cast(p.dtype, rows.dtype):
                raise GrassmannError(f"projector chunk of dtype {p.dtype} "
                                     f"in a stack of {rows.dtype}")
            part = slice(at, at + len(p))
            if part.stop > count:
                raise GrassmannError(f"more than {count} projectors")
            ranks[part] = _checked_ranks(p)
            rows[part] = p[:, il, jl]
            at = part.stop
        if at != count:
            raise GrassmannError(f"{at} projectors, expected {count}")
        return cls(rows, ranks, n)

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return ProjectorStack(self.rows[k], self.ranks[k], self.n)
        proj = SubspaceProjector.__new__(SubspaceProjector)
        proj._adopt(completed(self.rows[k], self.n), int(self.ranks[k]))
        return proj

    def __repr__(self):
        return f"ProjectorStack(N={len(self)}, n={self.n})"


@dataclass(frozen=True)
class PrincipalAngleSet:
    """Principal angles, stored as sorted sin^2 values."""
    sin_sq: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.sin_sq)
        if any(v < -1e-12 or v > 1 + 1e-12 for v in vals):
            raise GrassmannError(f"sin^2 out of range: {vals}")
        vals = tuple(sorted(min(max(v, 0.0), 1.0) for v in vals))
        object.__setattr__(self, "sin_sq", vals)

    @property
    def m(self) -> int:
        return len(self.sin_sq)

    def chordal_sq(self) -> float:
        return float(sum(self.sin_sq))

    def matches(self, other: "PrincipalAngleSet",
                tol: float = TOL.integer) -> bool:
        return (self.m == other.m
                and max(abs(a - b) for a, b in
                        zip(self.sin_sq, other.sin_sq)) <= tol)


def principal_angles(a: SubspaceProjector, b: SubspaceProjector) -> PrincipalAngleSet:
    """cos(theta_i) = singular values of the cross-Gram of orthonormal bases."""
    if a.n != b.n:
        raise GrassmannError(f"ambient mismatch {a.n} != {b.n}")
    if a.m != b.m:
        raise GrassmannError(f"dimension mismatch {a.m} != {b.m}")
    cross = a.basis.conj().T @ b.basis
    cos = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    return PrincipalAngleSet(tuple(np.sort(1.0 - cos ** 2)))


def chordal_sq_trace(a: SubspaceProjector, b: SubspaceProjector) -> float:
    """Trace form of the squared chordal distance."""
    if a.n != b.n:
        raise GrassmannError(f"ambient mismatch {a.n} != {b.n}")
    val = np.trace(a.projector).real - np.trace(a.projector @ b.projector).real
    return float(max(val, 0.0))


def product_distance(angles: PrincipalAngleSet) -> float:
    """Product of sines; exactly zero when any sin^2 is below the zero cutoff."""
    prod = 1.0
    for s in angles.sin_sq:
        if s < TOL.zero_sin:
            return 0.0
        prod *= math.sqrt(s)
    return prod


class BoundReport(NamedTuple):
    value: float
    attainable: bool


def simplex_capacity(n: int) -> int:
    """binom(n+1, 2): the most subspaces of C^n that can meet the simplex
    bound; above it the orthoplex bound applies."""
    return n * (n + 1) // 2


def simplex_bound(n: int, m: int, big_n: int) -> BoundReport:
    """m(n-m)/n * N/(N-1); equality requires N <= binom(n+1, 2)."""
    if not (1 <= m < n) or big_n < 2:
        raise GrassmannError(f"degenerate parameters ({n}, {m}, {big_n})")
    value = m * (n - m) / n * big_n / (big_n - 1)
    return BoundReport(value, big_n <= simplex_capacity(n))


def simplex_fraction(n: int, m: int, big_n: int) -> Fraction:
    """The simplex bound m(n-m)/n * N/(N-1) as an exact fraction."""
    simplex_bound(n, m, big_n)                  # same parameter checks
    return Fraction(big_n, big_n - 1) * m * (n - m) / n


def orthoplex_bound(n: int, m: int, big_n: int) -> BoundReport:
    """m(n-m)/n; a valid bound only for configurations with N > n(n+1)/2."""
    if not (1 <= m < n):
        raise GrassmannError(f"degenerate parameters ({n}, {m})")
    return BoundReport(m * (n - m) / n, big_n > simplex_capacity(n))


def as_fraction(x: float) -> Fraction | None:
    """Continued-fraction recovery of a nearby exact rational (denominator
    at most TOL.max_denominator, within TOL.rational), if any."""
    f = Fraction(x).limit_denominator(TOL.max_denominator)
    return f if abs(float(f) - x) <= TOL.rational else None


def format_value(x: float) -> str:
    f = as_fraction(x)
    if f is None:
        return f"{x:.10g}"
    if f.denominator == 1:
        return f"{x:.10g} = {f.numerator}"
    return f"{x:.10g} = {f.numerator}/{f.denominator}"
