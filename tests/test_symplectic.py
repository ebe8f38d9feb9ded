"""Binary symplectic machinery: forms, transvections, affine label actions."""
import numpy as np
import pytest

from grasspack import symplectic as sp


def brute_bform(x, y, m):
    # B derived from polarising Q0: B(x,y) = Q0(x+y) + Q0(x) + Q0(y)
    q0 = sp.q0_vals(m)
    return int(q0[x ^ y] ^ q0[x] ^ q0[y])


def test_bform_polarises_q0():
    for m in (1, 2, 3):
        n = 1 << (2 * m)
        rng = np.random.default_rng(m)
        for _ in range(200):
            x, y = int(rng.integers(n)), int(rng.integers(n))
            assert sp.bform(x, y, m) == brute_bform(x, y, m)


def test_bform_nondegenerate():
    m = 2
    for x in range(1, 16):
        assert any(sp.bform(x, y, m) for y in range(16))


def test_linear_perm_matches_matrix_action():
    m = 2
    rng = np.random.default_rng(3)
    cols = [int(rng.integers(1, 16)) for _ in range(4)]
    img = sp.linear_perm(cols, m)
    for x in range(16):
        acc = 0
        for i in range(4):
            if x >> i & 1:
                acc ^= cols[i]
        assert img[x] == acc


def test_transvection_formula_and_involution():
    m = 3
    rng = np.random.default_rng(9)
    for _ in range(30):
        v = int(rng.integers(1, 64))
        cols = sp.transvection(v, m)
        img = sp.linear_perm(cols, m)
        for x in (1, 7, 35, 63):
            expect = x ^ (v if sp.bform(x, v, m) else 0)
            assert img[x] == expect
        twice = sp.compose(cols, cols, m)
        assert twice == [1 << i for i in range(6)]


def test_transvections_preserve_form():
    m = 2
    for v in range(1, 16):
        cols = sp.transvection(v, m)
        assert sp.is_symplectic(cols, m)


def test_affine_form_action_identity():
    # label action must satisfy Q_{sigma(c)}(x) = Q_c(g^-1 x) for all x
    m = 2
    q0 = sp.q0_vals(m)
    rng = np.random.default_rng(17)
    for _ in range(10):
        vs = [int(rng.integers(1, 16)) for _ in range(4)]
        cols = [1 << i for i in range(4)]
        for v in vs:
            cols = sp.transvection(v, m, compose_with=cols)
        img = sp.linear_perm(cols, m)
        inv = np.argsort(img)
        sigma = sp.affine_form_perm(cols, m)
        for c in range(16):
            lhs = np.array([q0[x] ^ sp.bform(int(sigma[c]), x, m)
                            for x in range(16)])
            rhs = np.array([q0[int(inv[x])] ^ sp.bform(c, int(inv[x]), m)
                            for x in range(16)])
            assert np.array_equal(lhs, rhs)


def test_form_orbit_sizes():
    plus, minus = sp.form_orbits(2)
    assert (len(plus), len(minus)) == (10, 6)
    plus, minus = sp.form_orbits(3)
    assert (len(plus), len(minus)) == (36, 28)
    assert 0 in plus  # Q_0 itself is plus type


def test_cols_from_orbit_perm_roundtrip():
    rng = np.random.default_rng(23)
    for m in (2, 3):
        for orbit in sp.form_orbits(m):
            lut = {int(c): j for j, c in enumerate(orbit)}
            for _ in range(8):
                cols = [1 << i for i in range(2 * m)]
                for _ in range(6):
                    cols = sp.transvection(int(rng.integers(1, 1 << 2 * m)),
                                           m, compose_with=cols)
                sigma = sp.affine_form_perm(cols, m)
                perm = np.array([lut[int(sigma[int(c)])] for c in orbit])
                got, _ = sp.cols_from_orbit_perm(perm, orbit, m)
                assert got == cols


def test_cols_from_orbit_perm_rejects_nonaffine():
    _, minus = sp.form_orbits(3)
    perm = np.arange(28)
    perm[0], perm[1] = 1, 0  # a transposition of labels is not affine
    with pytest.raises(sp.SymplecticError, match="not affine"):
        sp.cols_from_orbit_perm(perm, minus, 3)


def test_induced_generators_consistency():
    # restriction to an orbit, then decode, recovers the original map
    m = 2
    plus, _ = sp.form_orbits(m)
    cols = sp.transvection(5, m, compose_with=sp.transvection(9, m))
    perm = sp.induced_generators([cols], m, plus)[0]
    got, _ = sp.cols_from_orbit_perm(perm, plus, m)
    assert got == cols
