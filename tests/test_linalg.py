from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvwb.linalg import (dot, frac, identity, inverse, is_positive_definite,
                         is_symmetric, mat, mat_mul, mat_vec, np_nullspace,
                         nullspace, rank, rref, solve, transpose, vec)
from reference_kernels import det

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def square(n, draw):
    return [[draw for _ in range(n)] for _ in range(n)]


def test_frac_refuses_floats():
    assert frac("3/4") == F(3, 4)
    assert frac(2) == 2
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_idempotent_and_rank():
    A = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    R, pivots = rref(A)
    assert rank(A) == 2
    assert pivots == [0, 1]
    R2, _ = rref(R)
    assert R2 == R


def test_nullspace_exact():
    A = mat([[1, 1, 1]])
    ns = nullspace(A)
    assert len(ns) == 2
    for v in ns:
        assert dot(A[0], v) == 0


def test_solve_and_inverse():
    A = mat([[2, 1], [1, 3]])
    b = vec([1, 0])
    x = solve(A, b)
    assert mat_vec(A, x) == list(b)
    Ai = inverse(A)
    assert mat_mul(A, Ai) == identity(2)
    assert inverse(mat([[1, 2], [2, 4]])) is None


def test_det_exact():
    assert det(mat([[2, 1], [1, 3]])) == 5
    assert det(identity(4)) == 1
    assert det(mat([[1, 2], [2, 4]])) == 0


def test_definiteness():
    assert is_positive_definite(mat([[2, -1], [-1, 2]]))
    assert not is_positive_definite(mat([[1, 2], [2, 1]]))
    assert is_symmetric(mat([[1, 5], [5, 2]]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_roundtrip(rows):
    A = mat(rows)
    Ai = inverse(A)
    if Ai is None:
        assert det(A) == 0
    else:
        assert mat_mul(Ai, A) == identity(3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=2, max_size=4),
                min_size=2, max_size=4))
def test_nullspace_dimension_theorem(rows):
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        return
    A = mat(rows)
    assert rank(A) + len(nullspace(A)) == width


def test_np_nullspace_orthogonal_to_rows():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    N = np_nullspace(A)
    assert N.shape[0] == 1
    assert np.abs(A @ N.T).max() < 1e-12


def test_transpose_involution():
    A = mat([[1, 2, 3], [4, 5, 6]])
    assert transpose(transpose(A)) == A


def test_exact_kind_holds_fractions_only():
    from kvwb.linalg import _Kind
    K = _Kind("exact")
    A = K.array([[1, 0], [F(1, 2), 2]])
    assert all(type(x) is F for x in A.flat)
    assert all(type(x) is F for x in K.native(A @ A)[1])
    with pytest.raises(TypeError):
        K.array([0.5])


def test_zero_tolerance_is_zero_when_exact():
    from kvwb.linalg import _Kind
    assert _Kind("exact", tol=1e-3).tol == 0
    assert not _Kind("exact", tol=1e-3).is_zero(_Kind("exact").array(
        [F(0), F(1, 10**12)]))
    assert _Kind("float", tol=1e-9).is_zero(np.array([0.0, -1e-10]))
    assert not _Kind("float", tol=1e-9).is_zero(np.array([2e-9]))
    assert _Kind("float").is_zero(np.zeros(0))


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_kind_nullspace_of_no_rows_is_the_identity(kind):
    from kvwb.linalg import _Kind
    K = _Kind(kind)
    N = K.nullspace(K.zeros((0, 3)))
    assert N.shape == (3, 3) and K.is_zero(N - K.array(np.eye(3, dtype=int)))
    assert K.rank(N) == 3 and len(K.nullspace(N)) == 0
