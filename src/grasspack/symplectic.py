"""Sp(2m, 2) acting on quadratic forms, over the field with two elements.

Vectors in F_2^{2m} are ints with bit i = coordinate i; the symplectic basis
pairs bit i with bit m+i.  A linear map is stored as its list of column
images.  The quadratic forms polarising the standard symplectic form are
Q_c = Q_0 + B(c, .) for c in F_2^{2m}; the group permutes them affinely,
c -> g c + d_g, and the two Arf types give the two orbit actions.
"""
from __future__ import annotations

import numpy as np

from . import config


class SymplecticError(config.GrasspackError):
    pass


def q0_vals(m: int) -> np.ndarray:
    """Q_0(x) = sum_i x_i x_{m+i} over all 2^{2m} vectors."""
    x = np.arange(1 << (2 * m))
    acc = np.zeros(x.shape, dtype=np.int64)
    for i in range(m):
        acc ^= ((x >> i) & 1) & ((x >> (m + i)) & 1)
    return acc


def bform(x: int, y: int, m: int) -> int:
    acc = 0
    for i in range(m):
        acc ^= ((x >> i) & 1) & ((y >> (m + i)) & 1)
        acc ^= ((x >> (m + i)) & 1) & ((y >> i) & 1)
    return acc


def linear_perm(cols: list[int], m: int) -> np.ndarray:
    """Index permutation of the map with the given column images (subset-XOR)."""
    img = np.zeros(1 << (2 * m), dtype=np.int64)
    for i in range(2 * m):
        bit = 1 << i
        img[bit:2 * bit] = img[:bit] ^ cols[i]
    return img


def compose(cols_a: list[int], cols_b: list[int], m: int) -> list[int]:
    pa = linear_perm(cols_a, m)
    return [int(pa[c]) for c in cols_b]


def transvection(v: int, m: int, compose_with: list[int] | None = None) -> list[int]:
    """t_v(x) = x + B(x, v) v, optionally pre-composed with another map."""
    cols = [(1 << i) ^ (v if bform(1 << i, v, m) else 0) for i in range(2 * m)]
    if compose_with is not None:
        cols = compose(cols, compose_with, m)
    return cols


def affine_form_perm(cols: list[int], m: int) -> np.ndarray:
    """Permutation c -> g c + d_g of form labels under (g.Q)(x) = Q(g^-1 x)."""
    q0 = q0_vals(m)
    img = linear_perm(cols, m)
    inv = np.argsort(img)
    d = 0
    for i in range(m):
        if q0[inv[1 << i]] ^ q0[1 << i]:
            d ^= 1 << (m + i)
        if q0[inv[1 << (m + i)]] ^ q0[1 << (m + i)]:
            d ^= 1 << i
    return img ^ d


def form_orbits(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels of plus-type and minus-type forms (zero counts 2^{2m-1} +- 2^{m-1})."""
    n = 1 << (2 * m)
    q0 = q0_vals(m)
    zeros = np.empty(n, dtype=np.int64)
    for c in range(n):
        qc = q0 ^ np.array([bform(c, x, m) for x in range(n)], dtype=np.int64)
        zeros[c] = int((qc == 0).sum())
    hi = (1 << (2 * m - 1)) + (1 << (m - 1))
    lo = (1 << (2 * m - 1)) - (1 << (m - 1))
    plus = np.where(zeros == hi)[0]
    minus = np.where(zeros == lo)[0]
    if len(plus) != hi or len(minus) != lo:
        raise SymplecticError(f"form types split {len(plus)} + {len(minus)}, "
                              f"expected {hi} + {lo}")
    return plus, minus


def induced_generators(maps: list[list[int]], m: int, orbit: np.ndarray) -> list[np.ndarray]:
    """Restrict the affine form action of each map to one type-orbit."""
    lut = {int(c): j for j, c in enumerate(orbit)}
    out = []
    for cols in maps:
        sigma = affine_form_perm(cols, m)
        out.append(np.array([lut[int(sigma[int(c)])] for c in orbit], dtype=np.int16))
    return out


def apply_cols(cols: list[int], x: int) -> int:
    acc = 0
    i = 0
    while x:
        if x & 1:
            acc ^= cols[i]
        x >>= 1
        i += 1
    return acc


def is_symplectic(cols: list[int], m: int) -> bool:
    n = 2 * m
    for i in range(n):
        for j in range(i + 1, n):
            if bform(cols[i], cols[j], m) != bform(1 << i, 1 << j, m):
                return False
    return all(c != 0 for c in cols)


def cols_from_orbit_perm(perm: np.ndarray, orbit: np.ndarray,
                         m: int) -> tuple[list[int], int]:
    """Recover the linear part and translation of an affine label map from
    its permutation of one type-orbit: orbit[perm[j]] = M orbit[j] + d."""
    labels = [int(c) for c in orbit]
    images = [int(orbit[perm[j]]) for j in range(len(labels))]
    c0, s0 = labels[0], images[0]
    # echelon over F_2 on (label difference, image difference) pairs
    pivots: dict[int, tuple[int, int]] = {}
    for c, s in zip(labels[1:], images[1:]):
        vec, img = c ^ c0, s ^ s0
        for p, (pv, pi) in pivots.items():
            if vec >> p & 1:
                vec ^= pv
                img ^= pi
        if vec:
            pivots[vec.bit_length() - 1] = (vec, img)
    if len(pivots) != 2 * m:
        raise SymplecticError("orbit differences do not span the space")
    cols = []
    for i in range(2 * m):
        vec, img = 1 << i, 0
        for p, (pv, pi) in pivots.items():
            if vec >> p & 1:
                vec ^= pv
                img ^= pi
        if vec:
            raise SymplecticError("orbit differences do not reduce")
        cols.append(img)
    d = s0 ^ apply_cols(cols, c0)
    for c, s in zip(labels, images):
        if apply_cols(cols, c) ^ d != s:
            raise SymplecticError("label map is not affine")
    if not is_symplectic(cols, m):
        raise SymplecticError("decoded linear part is not symplectic")
    return cols, d

