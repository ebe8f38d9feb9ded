"""Subspaces of C^n, principal angles, chordal and product distances, bounds.

Angle sets are stored as sin^2 values (ascending); angles are recovered from
orthonormal bases by SVD rather than from projector spectra, which is better
conditioned near zero angles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import config

TOL = config.TOL


class GrassmannError(Exception):
    pass


class SubspaceProjector:
    """Orthogonal projector onto an m-dimensional subspace of C^n."""

    def __init__(self, projector: np.ndarray, basis: np.ndarray | None = None,
                 tol: float = TOL.ortho):
        p = np.asarray(projector, dtype=complex)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise GrassmannError("projector must be square")
        if np.abs(p - p.conj().T).max() > tol:
            raise GrassmannError("projector is not Hermitian")
        if np.abs(p @ p - p).max() > tol:
            raise GrassmannError("projector is not idempotent")
        tr = np.trace(p).real
        m = int(round(tr))
        if abs(tr - m) > TOL.integer:
            raise GrassmannError(f"projector trace {tr} is not an integer")
        self.projector = p
        self.n = p.shape[0]
        self.m = m
        if basis is not None:
            basis = np.asarray(basis, dtype=complex)
            if np.abs(p - basis @ basis.conj().T).max() > tol:
                raise GrassmannError("basis does not reproduce the projector")
        self._basis = basis

    @classmethod
    def from_basis(cls, columns: np.ndarray) -> "SubspaceProjector":
        q, r = np.linalg.qr(np.asarray(columns, dtype=complex))
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

    def matches(self, other: "PrincipalAngleSet", tol: float = 1e-6) -> bool:
        return (self.m == other.m
                and max(abs(a - b) for a, b in
                        zip(self.sin_sq, other.sin_sq)) <= tol)


@dataclass(frozen=True)
class DistancePair:
    d_c_sq: float
    d_tilde: float


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


def distance_pair(a: SubspaceProjector, b: SubspaceProjector) -> DistancePair:
    angles = principal_angles(a, b)
    return DistancePair(angles.chordal_sq(), product_distance(angles))


class BoundReport(NamedTuple):
    value: float
    attainable: bool | None


def simplex_bound(n: int, m: int, big_n: int) -> BoundReport:
    """m(n-m)/n * N/(N-1); equality requires N <= binom(n+1, 2)."""
    if not (1 <= m < n) or big_n < 2:
        raise GrassmannError(f"degenerate parameters ({n}, {m}, {big_n})")
    value = m * (n - m) / n * big_n / (big_n - 1)
    return BoundReport(value, big_n <= n * (n + 1) // 2)


def orthoplex_bound(n: int, m: int, big_n: int | None = None) -> BoundReport:
    """m(n-m)/n; a valid bound only for configurations with N > n(n+1)/2."""
    if not (1 <= m < n):
        raise GrassmannError(f"degenerate parameters ({n}, {m})")
    applicable = None if big_n is None else big_n > n * (n + 1) // 2
    return BoundReport(m * (n - m) / n, applicable)


def as_fraction(x: float, tol: float = TOL.rational,
                max_denominator: int = TOL.max_denominator) -> Fraction | None:
    """Continued-fraction recovery of a nearby exact rational, if any."""
    f = Fraction(x).limit_denominator(max_denominator)
    return f if abs(float(f) - x) <= tol else None


def format_value(x: float) -> str:
    f = as_fraction(x)
    if f is None:
        return f"{x:.10g}"
    if f.denominator == 1:
        return f"{x:.10g} = {f.numerator}"
    return f"{x:.10g} = {f.numerator}/{f.denominator}"
