"""Exact simplex: every verdict must come with a certificate that re-verifies."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from kvwb.linalg import dot, mat, vec
from kvwb.lp import (CertificateError, LPResult, check_certificate,
                     cone_membership, convex_membership, free_feasibility,
                     solve_feasibility)
from reference_kernels import lp_rows


def check_farkas(A, b, y):
    # yA <= 0 and y.b > 0: an explicit witness that Ax = b, x >= 0 is empty
    n = len(A[0])
    At_y = [dot([A[i][j] for i in range(len(A))], y) for j in range(n)]
    assert all(v <= 0 for v in At_y)
    assert dot(y, b) > 0


def test_feasible_point_substitutes():
    A = mat([[1, 1, 0], [0, 1, 1]])
    b = vec([1, 1])
    res = solve_feasibility(lp_rows(A, b), 3)
    assert res.feasible
    assert all(x >= 0 for x in res.point)
    for row, rhs in zip(A, b):
        assert dot(row, res.point) == rhs


def test_infeasible_farkas_substitutes():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = mat([[1, 1], [1, 1]])
    b = vec([1, 2])
    res = solve_feasibility(lp_rows(A, b), 2)
    assert not res.feasible
    check_farkas(A, b, res.farkas)


@pytest.mark.parametrize("res", [
    LPResult(True, point=[F(1), F(-1)]),        # negative entry
    LPResult(True, point=[F(1)]),               # wrong length
    LPResult(True, point=[F(1, 2), F(0)]),      # row sum 1/2, not 1
    LPResult(False, farkas=[F(1, 2)]),          # column sum 1/2 > 0
    LPResult(False, farkas=[F(-1)]),            # yᵀb = -1
])
def test_check_certificate_rejects_a_wrong_certificate(res):
    """x0 + 2 x1 = 1 as one row: each certificate breaks one check."""
    rows = [({0: 1, 1: 2, 2: 1}, 1)]
    check_certificate(rows, 2, LPResult(True, point=[F(1), F(0)]))
    with pytest.raises(CertificateError):
        check_certificate(rows, 2, res)


def test_negative_rhs_infeasible():
    res = solve_feasibility(lp_rows(mat([[1, 1]]), vec([-1])), 2)
    assert not res.feasible
    check_farkas([[F(1), F(1)]], [F(-1)], res.farkas)


def test_cone_membership_coefficients():
    gens = [[F(1), F(0)], [F(1), F(1)]]
    res = cone_membership([F(3), F(1)], gens)
    assert res.feasible
    lam = res.point
    assert [lam[0] * 1 + lam[1] * 1, lam[1] * 1] == [F(3), F(1)]

    out = cone_membership([F(0), F(-1)], gens)
    assert not out.feasible
    f = out.farkas
    assert all(dot(f, g) >= 0 for g in gens)
    assert dot(f, [F(0), F(-1)]) < 0


def test_convex_membership():
    pts = [[F(0)], [F(1)]]
    assert convex_membership([F(1, 2)], pts).feasible
    assert not convex_membership([F(2)], pts).feasible


def test_free_feasibility_signs():
    # x >= 1 and -x >= -3 and x + y = 2, y unrestricted
    ineqs = lp_rows(mat([[1, 0], [-1, 0]]), vec([1, -3]))
    eqs = lp_rows(mat([[1, 1]]), vec([2]))
    res = free_feasibility(ineqs, eqs, 2)
    assert res.feasible
    x, y = res.point
    assert 1 <= x <= 3 and x + y == 2


def test_free_feasibility_of_no_rows_is_the_zero_point():
    assert free_feasibility([], [], 2) == LPResult(True, point=[F(0), F(0)])


def test_cone_membership_of_the_zero_space_is_the_zero_combination():
    """R^0 holds only 0, which is 0 times each of the two generators."""
    assert cone_membership([], [[], []]) == LPResult(True,
                                                      point=[F(0), F(0)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                min_size=2, max_size=2),
       st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                         min_size=2, max_size=2), min_size=1, max_size=4))
def test_membership_dichotomy(v, gens):
    """Either coefficients reproduce v, or the Farkas functional separates."""
    gens = [g for g in gens if any(x != 0 for x in g)]
    if not gens:
        return
    res = cone_membership(list(v), [list(g) for g in gens])
    if res.feasible:
        rec = [sum(c * g[i] for c, g in zip(res.point, gens)) for i in range(2)]
        assert rec == list(v)
        assert all(c >= 0 for c in res.point)
    else:
        f = res.farkas
        assert all(dot(f, list(g)) >= 0 for g in gens)
        assert dot(f, list(v)) < 0
