"""The integer kernels return exactly what the `Fraction` oracles return.

`reference_kernels` holds the rational `rref` and Bland simplex that the
integer versions replaced, and the dense `solve_with_nullspace` that the
sparse one replaced; equal outputs mean equal pivots, points, Farkas vectors,
null bases and inverses, and so byte-identical reports.  Every exact routine
of `kvwb.linalg` reads its answer off one `_eliminate` call.
"""
import math
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from kvwb import linalg
from kvwb.linalg import (column_space_basis, inverse, nullspace, rank, rref,
                         solve, solve_with_nullspace)
from kvwb.lp import solve_feasibility

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def systems(draw, max_rows=6, max_cols=6):
    """A x = b with dependent rows, zero rows and rhs of either sign mixed in."""
    n = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                         min_size=0, max_size=max_rows))
    rhs = draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(small)
        rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
        # consistent or off by a constant: both feasible and infeasible LPs
        rhs.append(rhs[i] + c * rhs[j] + draw(st.sampled_from([0, 0, 1, -1])))
    for _ in range(draw(st.integers(0, 1))):
        k = draw(st.integers(0, len(rows)))
        rows.insert(k, [F(0)] * n)
        rhs.insert(k, draw(st.sampled_from([F(0), F(1), F(-1)])))
    return rows, rhs


@st.composite
def squares(draw, max_n=5):
    """Square matrices, half of them with a row a multiple of another."""
    n = draw(st.integers(1, max_n))
    A = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(small)
        A[i] = [c * y for y in A[j]]
    return A


def assert_same_rref(A):
    got = rref(A)
    assert got == oracle.rref(A)
    assert all(type(x) is F for row in got[0] for x in row)


def assert_same_pivots(A):
    pivots = oracle.rref(A)[1]
    assert column_space_basis(A) == pivots
    assert rank(A) == len(pivots)


def oracle_inverse(A):
    """The right block of the oracle RREF of [A | I]; None when singular."""
    n = len(A)
    R, pivots = oracle.rref([row + [F(i == j) for j in range(n)]
                             for i, row in enumerate(A)])
    return [row[n:] for row in R] if pivots == list(range(n)) else None


def assert_same_lp(A, b):
    new = solve_feasibility(oracle.lp_rows(A, b), len(A[0]) if A else 0)
    old = oracle.solve_feasibility(A, b)
    assert (new.feasible, new.point, new.farkas) == \
        (old.feasible, old.point, old.farkas)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rref_matches_oracle(system):
    A, b = system
    assert_same_rref(A)
    assert_same_rref([row + [bb] for row, bb in zip(A, b)])


@settings(max_examples=200, deadline=None)
@given(systems())
def test_rank_and_pivots_match_oracle(system):
    A, b = system
    assert_same_pivots(A)
    assert_same_pivots([row + [bb] for row, bb in zip(A, b)])


@settings(max_examples=200, deadline=None)
@given(squares())
def test_inverse_matches_oracle(A):
    assert inverse(A) == oracle_inverse(A)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_simplex_matches_oracle(system):
    assert_same_lp(*system)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_scaled_rows_give_the_same_lp(system, data):
    """(k·ints, k·den) is the same rational row as (ints, den): the tableau
    reduces every row, so the answer is that of the reduced rows and of
    the oracle."""
    A, b = system
    n = len(A[0]) if A else 0
    rows = oracle.lp_rows(A, b)
    ks = data.draw(st.lists(st.integers(1, 5), min_size=len(rows),
                            max_size=len(rows)))
    scaled = [({j: k * a for j, a in r.items()}, k * d)
              for (r, d), k in zip(rows, ks)]
    res = solve_feasibility(scaled, n)
    assert res == solve_feasibility(rows, n) == oracle.solve_feasibility(A, b)


def sparse_rows(A, b):
    """[A | b] as sparse integer rows, each row times its common denominator."""
    out = []
    for row, bb in zip(A, b):
        full = row + [bb]
        s = math.lcm(*(x.denominator for x in full))
        out.append({k: int(x * s) for k, x in enumerate(full) if x})
    return out


@settings(max_examples=100, deadline=None)
@given(systems())
def test_one_elimination_gives_solve_and_nullspace(system):
    A, b = system
    x, null = solve_with_nullspace(sparse_rows(A, b), len(A[0]) if A else 0)
    assert x == solve(A, b)
    assert null == (nullspace(A) if x is not None else [])
    assert (x, null) == oracle.solve_with_nullspace(A, b)


def dense_sum(rows, cols, vals, shape):
    """The augmented matrix [A | b] whose entries sum the triples."""
    M = [[F(0)] * shape[1] for _ in range(shape[0])]
    for r, c, v in zip(rows, cols, vals):
        M[r][c] += v
    return [row[:-1] for row in M], [row[-1] for row in M]


BIG = 2**70          # beyond int64: the triples hold Python ints


@pytest.mark.parametrize("triples,shape", [
    # explicit zeros and entries that cancel, one of them past int64
    ([(0, 0, 2), (0, 0, -2), (0, 1, 0), (0, 1, 3), (0, 2, 6),
      (1, 0, BIG), (1, 1, 1), (1, 0, -BIG), (1, 2, 0)], (2, 3)),
    # repeated (row, col) triples that add up
    ([(0, 0, 1), (0, 0, 1), (0, 1, 1), (1, 1, 2), (1, 1, 2), (1, 2, 8),
      (0, 2, 4)], (2, 3)),
    # empty rows between the others
    ([(1, 0, 1), (1, 3, 5), (3, 1, 2), (3, 2, -2)], (5, 4)),
    # a row that holds only its right-hand side: 0 = 1
    ([(0, 0, 1), (0, 1, 1), (1, 2, 1)], (2, 3)),
    # rank deficient: row 1 is twice row 0, row 2 is 0
    ([(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 3, 6), (1, 0, 2), (1, 1, 4),
      (1, 2, 6), (1, 3, 12), (2, 1, 1), (2, 1, -1)], (3, 4)),
    # no columns: consistent, then inconsistent
    ([(0, 0, 0), (1, 0, 0)], (2, 1)),
    ([(0, 0, 0), (1, 0, 3)], (2, 1)),
])
def test_sparse_kernel_matches_the_dense_oracle_on_edge_cases(triples, shape):
    r, c, v = zip(*triples)
    rows = oracle.sparse_int_rows(np.array(r), np.array(c),
                                  np.array(v, dtype=object), shape[0])
    A, b = dense_sum(r, c, v, shape)
    assert rows == sparse_rows(A, b)
    assert all(type(x) is int for row in rows for x in row.values())
    assert solve_with_nullspace(rows, shape[1] - 1) == \
        oracle.solve_with_nullspace(A, b)


DEFICIENT = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1, 2), F(1, 3)]]


@pytest.mark.parametrize("A", [
    DEFICIENT,                                      # rank deficient
    [[F(0)] * 3, [F(0), F(0), F(5, 7)], [F(0)] * 3],  # zero rows
    [[F(0)] * 4] * 2,                               # zero matrix
    [[F(-3, 4), F(1, 6)], [F(9, 8), F(-1, 4)]],     # singular, rational
    [[], []],                                       # no columns
    [[F(0), F(3, 2), F(-1)]],                       # 1 x n
    [[F(0)], [F(2, 3)], [F(-1)]],                   # n x 1
    [[F(0), F(2)], [F(-1, 3), F(1)]],               # invertible, row swap
    [[F(-2, 5)]],                                   # 1 x 1
    [[F(0)]],                                       # 1 x 1, singular
])
def test_rref_matches_oracle_on_edge_cases(A):
    assert_same_rref(A)
    assert_same_pivots(A)
    if len(A) == len(A[0]):
        assert inverse(A) == oracle_inverse(A)


@pytest.mark.parametrize("name,args", [
    ("rref", (DEFICIENT,)),
    ("rank", (DEFICIENT,)),
    ("column_space_basis", (DEFICIENT,)),
    ("nullspace", (DEFICIENT,)),
    ("solve", (DEFICIENT, [F(6), F(12), F(5, 6)])),
    ("inverse", ([[F(0), F(2)], [F(-1, 3), F(1)]],)),
    ("solve_with_nullspace",
     (sparse_rows(DEFICIENT, [F(6), F(12), F(5, 6)]), 3)),
])
def test_each_exact_routine_makes_one_elimination(monkeypatch, name, args):
    calls = []
    eliminate = linalg._eliminate

    def counted(*a):
        calls.append(a)
        return eliminate(*a)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    getattr(linalg, name)(*args)
    assert len(calls) == 1


@pytest.mark.parametrize("A,b,feasible", [
    (DEFICIENT, [F(6), F(12), F(5, 6)], True),       # rank deficient
    (DEFICIENT, [F(6), F(13), F(5, 6)], False),      # inconsistent rows
    ([[F(1), F(1)], [F(0), F(0)]], [F(1), F(0)], True),   # zero row
    ([[F(1), F(1)], [F(0), F(0)]], [F(1), F(2)], False),  # 0 = 2
    ([[F(1), F(-1)], [F(1, 2), F(1)]], [F(-2), F(-3, 2)], False),  # negative rhs
    ([[F(1), F(-1)], [F(1, 2), F(1)]], [F(-1, 3), F(1)], True),
])
def test_simplex_matches_oracle_on_edge_cases(A, b, feasible):
    assert solve_feasibility(oracle.lp_rows(A, b), len(A[0])).feasible \
        is feasible
    assert_same_lp(A, b)


def test_certificate_checks_survive_optimize_flag():
    """Under `python -O` asserts vanish; a corrupted certificate must still
    raise CertificateError from solve_feasibility and free_feasibility."""
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction as F
        from kvwb import lp
        assert False, "asserts must be off under -O"

        def corrupted(kernel):
            def run(rows, n):
                feasible, cert = kernel(rows, n)
                return feasible, [c + 1 for c in cert]
            return run

        lp._phase_one = corrupted(lp._phase_one)
        for rhs in (1, -1):                # feasible point, Farkas vector
            try:
                lp.solve_feasibility([({0: 1, 1: 1, 2: rhs}, 1)], 2)
            except lp.CertificateError:
                pass
            else:
                sys.exit("corrupted certificate accepted for rhs %s" % rhs)
        lp.solve_feasibility = lambda rows, n: lp.LPResult(True,
                                                           point=[F(0)] * 2)
        try:
            lp.free_feasibility([({0: 1, 1: 1}, 1)], [], 1)
        except lp.CertificateError:
            print("raised")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "raised"
