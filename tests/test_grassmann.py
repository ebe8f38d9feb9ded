"""Principal angles, distances and bounds on the Grassmannian."""
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasspack import config, grassmann
from grasspack.grassmann import (BoundReport, GrassmannError,
                                 PrincipalAngleSet, ProjectorStack,
                                 SubspaceProjector, as_fraction,
                                 chordal_sq_trace, format_value,
                                 orthoplex_bound, principal_angles,
                                 product_distance, simplex_bound)
from reference import hermitian_completion


def random_subspace(rng, n, m):
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return SubspaceProjector.from_basis(a)


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------ projectors


def test_projector_validation():
    with pytest.raises(GrassmannError):
        SubspaceProjector(np.array([[0.5, 0.4], [0.4, 0.5]]) + 0.1)
    with pytest.raises(GrassmannError):
        SubspaceProjector(np.array([[1.0, 0.2], [0.0, 0.0]]))
    p = SubspaceProjector(np.diag([1.0, 1.0, 0.0]))
    assert (p.n, p.m) == (3, 2)


def mixed_words(rng, count, n=5):
    return [random_subspace(rng, n, int(m))
            for m in rng.integers(1, n, size=count)]


@pytest.fixture
def chunks_of_three(monkeypatch):
    # three 5 x 5 complex matrices per chunk of the stacked check
    monkeypatch.setattr(config, "BLOCK_BYTES", 3 * 5 * 5 * 16)


def test_stack_equals_one_at_a_time(chunks_of_three):
    # each item is the Hermitian completion of its matrix's lower triangle,
    # of the rank the constructor gives it
    words = mixed_words(np.random.default_rng(41), 10)
    got = SubspaceProjector.stack(np.stack([w.projector for w in words]))
    assert len(got) == len(words)
    for p, w in zip(got, words):
        one = SubspaceProjector(w.projector)
        assert (p.n, p.m) == (one.n, one.m)
        assert np.array_equal(p.projector, hermitian_completion(one.projector))
        assert np.abs(p.basis @ p.basis.conj().T - w.projector).max() < 1e-9


@pytest.mark.parametrize("field", [float, complex])
def test_stack_items_complete_the_packed_triangle(chunks_of_three, field):
    # matrices Hermitian only within TOL.ortho, with imaginary parts on the
    # diagonal of a complex one: the packed rows keep the lower triangle as
    # given, and eigh, which reads that triangle alone, gives each item the
    # eigenpairs of its matrix bit for bit
    rng = np.random.default_rng(53)
    words = np.stack([SubspaceProjector.from_basis(
        rng.standard_normal((5, m)).astype(field)).projector
        for m in rng.integers(1, 5, size=10)])
    words = words + 1e-12 * rng.standard_normal(words.shape)
    if field is complex:
        words = words + 1e-12j * rng.standard_normal(words.shape)
    stack = SubspaceProjector.stack(words)
    assert stack.rows.shape == (10, 15) and stack.rows.dtype == field
    assert not stack.rows.flags.writeable
    for p, q in zip(stack, words):
        assert not np.array_equal(q, q.conj().T)
        assert np.array_equal(p.projector, hermitian_completion(q))
        assert p.m == SubspaceProjector(q).m
        for got, want in zip(np.linalg.eigh(p.projector), np.linalg.eigh(q)):
            assert np.array_equal(got, want)
    part = stack[3:7]
    assert isinstance(part, ProjectorStack) and len(part) == 4
    assert np.array_equal(part[1].projector, stack[4].projector)
    assert part.ranks.tolist() == stack.ranks[3:7].tolist()


def not_hermitian(p):
    q = p.copy()
    q[0, 1] += 1e-3
    return q


def not_idempotent(p):
    return 0.9 * p


def nan_entry(p):
    q = p.copy()
    q[2, 2] = np.nan
    return q


@pytest.mark.parametrize("spoil", [not_hermitian, not_idempotent, nan_entry])
def test_stack_raises_the_constructors_message(chunks_of_three, spoil):
    words = [w.projector for w in mixed_words(np.random.default_rng(43), 10)]
    bad = spoil(words[7])                   # in the third chunk
    with pytest.raises(GrassmannError) as one:
        SubspaceProjector(bad)
    words[7] = bad
    words[8] = not_hermitian(words[8])      # a later fault does not win
    with pytest.raises(GrassmannError) as stacked:
        SubspaceProjector.stack(np.stack(words))
    assert str(stacked.value) == str(one.value)


def test_stack_raises_the_trace_message(chunks_of_three, monkeypatch):
    # idempotency within 1e-9 pins the trace to an integer, so the trace
    # gate is reached only under a looser ortho tolerance
    monkeypatch.setattr(grassmann, "TOL", config.ToleranceLadder(ortho=0.3))
    bad = np.diag([0.8, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(GrassmannError,
                       match="projector trace 0.8 is not an integer"):
        SubspaceProjector(bad)
    words = [w.projector for w in mixed_words(np.random.default_rng(47), 10)]
    words[5] = bad
    with pytest.raises(GrassmannError,
                       match="projector trace 0.8 is not an integer"):
        SubspaceProjector.stack(np.stack(words))


def test_stack_of_nothing_and_of_non_squares():
    empty = SubspaceProjector.stack(np.zeros((0, 4, 4)))
    assert len(empty) == 0 and list(empty) == []
    for bad in (np.zeros((2, 4, 3)), np.eye(4)):
        with pytest.raises(GrassmannError, match=re.escape(
                f"shape {bad.shape} is not (N, n, n)")):
            SubspaceProjector.stack(bad)


def test_from_basis_orthonormalizes():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((5, 2)) * 3.0
    p = SubspaceProjector.from_basis(cols)
    assert p.m == 2
    b = p.basis
    assert np.abs(b.conj().T @ b - np.eye(2)).max() < 1e-12


def test_basis_recovered_from_spectrum():
    rng = np.random.default_rng(1)
    p = random_subspace(rng, 6, 3)
    q = SubspaceProjector(p.projector)          # no basis given
    b = q.basis
    assert np.abs(b @ b.conj().T - p.projector).max() < 1e-9


def test_basis_mismatch_rejected():
    with pytest.raises(GrassmannError):
        SubspaceProjector(np.diag([1.0, 0.0]),
                          basis=np.array([[0.0], [1.0]]))


# ---------------------------------------------------------------- angles


def test_identical_subspaces_zero_angles():
    rng = np.random.default_rng(2)
    p = random_subspace(rng, 5, 2)
    ang = principal_angles(p, p)
    assert max(ang.sin_sq) < 1e-12
    assert chordal_sq_trace(p, p) < 1e-9


def test_orthogonal_subspaces_right_angles():
    p = SubspaceProjector(np.diag([1.0, 1.0, 0.0, 0.0]))
    q = SubspaceProjector(np.diag([0.0, 0.0, 1.0, 1.0]))
    ang = principal_angles(p, q)
    assert ang.sin_sq == (1.0, 1.0)
    assert abs(chordal_sq_trace(p, q) - 2.0) < 1e-12
    assert product_distance(ang) == 1.0


def test_dimension_and_ambient_mismatch():
    p = SubspaceProjector(np.diag([1.0, 0.0, 0.0]))
    q = SubspaceProjector(np.diag([1.0, 1.0, 0.0]))
    r = SubspaceProjector(np.diag([1.0, 0.0]))
    with pytest.raises(GrassmannError):
        principal_angles(p, q)
    with pytest.raises(GrassmannError):
        principal_angles(p, r)
    with pytest.raises(GrassmannError):
        chordal_sq_trace(p, r)


def test_known_plane_angle():
    # plane pair with an exact 30-degree angle: sin^2 = 1/4
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    p = SubspaceProjector.from_basis(np.array([[1.0], [0.0]]))
    q = SubspaceProjector.from_basis(np.array([[c], [s]]))
    ang = principal_angles(p, q)
    assert abs(ang.sin_sq[0] - 0.25) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 8), st.integers(1, 3))
def test_trace_equals_angle_sum(seed, n, m):
    m = min(m, n - 1)
    rng = np.random.default_rng(seed)
    a, b = random_subspace(rng, n, m), random_subspace(rng, n, m)
    ang = principal_angles(a, b)
    assert abs(ang.chordal_sq() - chordal_sq_trace(a, b)) < 1e-8


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    n, m = 6, 2
    a, b = random_subspace(rng, n, m), random_subspace(rng, n, m)
    u = random_unitary(rng, n)
    ua = SubspaceProjector(u @ a.projector @ u.conj().T)
    ub = SubspaceProjector(u @ b.projector @ u.conj().T)
    before = principal_angles(a, b).sin_sq
    after = principal_angles(ua, ub).sin_sq
    assert max(abs(x - y) for x, y in zip(before, after)) < 1e-8


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = random_subspace(rng, 5, 2), random_subspace(rng, 5, 2)
    assert abs(chordal_sq_trace(a, b) - chordal_sq_trace(b, a)) < 1e-10
    assert principal_angles(a, b).matches(principal_angles(b, a), tol=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
def test_chordal_range_and_pair(seed, m):
    rng = np.random.default_rng(seed)
    n = 2 * m + 1
    a, b = random_subspace(rng, n, m), random_subspace(rng, n, m)
    angles = principal_angles(a, b)
    assert -1e-12 <= angles.chordal_sq() <= m + 1e-12
    assert 0.0 <= product_distance(angles) <= 1.0 + 1e-12


def test_product_distance_zero_cutoff():
    ang = PrincipalAngleSet((1e-22, 0.5))
    assert product_distance(ang) == 0.0
    ang2 = PrincipalAngleSet((0.25, 0.25))
    assert abs(product_distance(ang2) - 0.25) < 1e-12


def test_angle_set_validation_and_sorting():
    a = PrincipalAngleSet((0.9, 0.1))
    assert a.sin_sq == (0.1, 0.9)
    with pytest.raises(GrassmannError):
        PrincipalAngleSet((1.5,))


# ---------------------------------------------------------------- bounds


def test_simplex_bound_values():
    b = simplex_bound(3, 1, 4)
    assert abs(b.value - 8 / 9) < 1e-12
    assert b.attainable
    b = simplex_bound(2673, 990, 12)
    assert abs(b.value - 680.0) < 1e-9
    assert b.attainable
    # very large N approaches m(n-m)/n
    assert abs(simplex_bound(6, 3, 10 ** 9).value - 1.5) < 1e-6


def test_simplex_attainability_flag():
    assert simplex_bound(3, 1, 6).attainable       # binom(4,2) = 6
    assert not simplex_bound(3, 1, 7).attainable


def test_simplex_bound_degenerate():
    with pytest.raises(GrassmannError):
        simplex_bound(3, 3, 4)
    with pytest.raises(GrassmannError):
        simplex_bound(3, 1, 1)


def test_orthoplex_bound():
    b = orthoplex_bound(4, 2, 18)
    assert b.value == 1.0
    assert b.attainable                 # 18 > 10
    assert orthoplex_bound(4, 2, 10).attainable is False
    assert abs(orthoplex_bound(8, 4, 37).value - 2.0) < 1e-12


def test_simplex_exceeds_orthoplex():
    for n, m, big_n in [(4, 2, 18), (7, 1, 28), (16, 5, 12)]:
        assert (simplex_bound(n, m, big_n).value
                > orthoplex_bound(n, m, big_n).value)


# ------------------------------------------------------------- rationals


def test_as_fraction():
    assert as_fraction(8 / 9) == Fraction(8, 9)
    assert as_fraction(1 / np.e) is None
    assert as_fraction(680.0) == Fraction(680)
    assert as_fraction(13970 / 23) == Fraction(13970, 23)
    assert as_fraction(np.pi) is None


def test_format_value():
    assert format_value(8 / 9).endswith("8/9")
    assert format_value(2.0).endswith("= 2")
    assert "/" not in format_value(float(np.pi))
