"""Reference oracles: the `Fraction` kernels that `kvwb.linalg.rref` and
`kvwb.lp.solve_feasibility` replaced with integer elimination, and the
loop-built constraint rows and full-SVD nullspace that
`kvwb.jordan._linear_rows` and `kvwb.jordan._solve_float` replaced.

Slow and obviously correct; the property tests require the fast kernels to
return exactly what these return.
"""
from __future__ import annotations

import numpy as np

from kvwb.jordan import RecoveryProblem, _pair_index
from kvwb.linalg import Mat, Vec, ZERO, ONE, dot, frac
from kvwb.lp import LPResult, UnboundedError


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    R = [row[:] for row in A]
    if not R:
        return R, []
    nrows, ncols = len(R), len(R[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if R[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def solve_feasibility(A: Mat, b: Vec) -> LPResult:
    """Decide {x >= 0 : A x = b} with exact arithmetic.

    Phase-one simplex on artificial variables, Bland's anti-cycling rule.
    """
    m = len(A)
    if m == 0:
        return LPResult(True, point=[])
    n = len(A[0])

    # orient rows so the right-hand side is nonnegative
    signs = [ONE if bb >= 0 else -ONE for bb in b]
    T = [[signs[i] * x for x in A[i]] + [signs[i] * b[i]] for i in range(m)]

    # tableau columns: n structural + m artificial + rhs
    for i in range(m):
        art = [ONE if j == i else ZERO for j in range(m)]
        T[i] = T[i][:n] + art + [T[i][n]]

    basis = [n + i for i in range(m)]
    ncols = n + m

    # phase-one objective: minimize sum of artificials.
    # reduced cost row: c_j - sum of rows for basic artificials.
    cost = [ZERO] * (ncols + 1)
    for j in range(ncols):
        cost[j] = (ONE if j >= n else ZERO) - sum(T[i][j] for i in range(m))
    cost[ncols] = -sum(T[i][ncols] for i in range(m))

    while True:
        enter = None
        for j in range(ncols):          # Bland: first improving column
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][ncols] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedError("phase-one objective unbounded; inconsistent tableau")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, T[leave])]
        basis[leave] = enter

    objective = -cost[ncols]
    if objective > 0:
        # infeasible: extract Farkas vector from artificial reduced costs.
        # y_i = (1 - cbar_{artificial i}) * sign_i
        y = [(ONE - cost[n + i]) * signs[i] for i in range(m)]
        # verify, defensively
        for j in range(n):
            col = sum(y[i] * A[i][j] for i in range(m))
            assert col <= 0, "farkas certificate failed column check"
        assert dot(y, b) > 0, "farkas certificate failed rhs check"
        return LPResult(False, farkas=y)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][ncols]
    # verify, defensively
    for i in range(m):
        assert dot(A[i], x) == b[i], "feasible point failed row check"
    assert all(xx >= 0 for xx in x)
    return LPResult(True, point=x)


def linear_rows_float(p: RecoveryProblem, idempotence: bool):
    d = p.dim
    pairs, at = _pair_index(d)
    P = len(pairs)
    nvar = P * d
    rows, rhs = [], []

    def var(pk, k):
        return pk * d + k

    u = np.asarray(p.u, float)
    for j in range(d):                                   # unit: u ∘ e_j = e_j
        for k in range(d):
            row = np.zeros(nvar)
            for i in range(d):
                row[var(at(i, j), k)] += u[i]
            rows.append(row)
            rhs.append(1.0 if j == k else 0.0)
    B = np.asarray(p.B, float)
    for i in range(d):                                   # B-associativity
        for j in range(d):
            for k in range(j, d):
                row = np.zeros(nvar)
                for m in range(d):
                    row[var(at(i, j), m)] += B[m][k]
                    row[var(at(i, k), m)] -= B[m][j]
                rows.append(row)
                rhs.append(0.0)
    for M in p.actions:                                  # G-equivariance
        M = np.asarray(M, float)
        for i in range(d):
            for j in range(i, d):
                for k in range(d):
                    row = np.zeros(nvar)
                    for m in range(d):
                        row[var(at(i, j), m)] += M[k][m]
                    for a in range(d):
                        for b in range(d):
                            row[var(at(a, b), k)] -= M[a][i] * M[b][j]
                    rows.append(row)
                    rhs.append(0.0)
    if idempotence:
        for g in p.outcome_vectors:                      # g ∘ g = g
            g = np.asarray(g, float)
            for k in range(d):
                row = np.zeros(nvar)
                for i in range(d):
                    for j in range(i, d):
                        coeff = g[i] * g[j]
                        if i != j:
                            coeff *= 2
                        row[var(at(i, j), k)] += coeff
                rows.append(row)
                rhs.append(g[k])
    return np.array(rows), np.array(rhs), pairs


def exact_linear_rows(p: RecoveryProblem, idempotence: bool):
    """The rational rows and right-hand side, before the solve."""
    d = p.dim
    pairs, at = _pair_index(d)
    P = len(pairs)
    nvar = P * d
    rows, rhs = [], []

    def var(pk, k):
        return pk * d + k

    u = [frac(x) for x in (p.u_exact if p.u_exact is not None else p.u)]
    B = ([[frac(x) for x in r] for r in p.B_exact]
         if p.B_exact is not None else [[frac(x) for x in r] for r in p.B])
    for j in range(d):
        for k in range(d):
            row = [ZERO] * nvar
            for i in range(d):
                row[var(at(i, j), k)] += u[i]
            rows.append(row)
            rhs.append(ONE if j == k else ZERO)
    for i in range(d):
        for j in range(d):
            for k in range(j, d):
                row = [ZERO] * nvar
                for m in range(d):
                    row[var(at(i, j), m)] += B[m][k]
                    row[var(at(i, k), m)] -= B[m][j]
                rows.append(row)
                rhs.append(ZERO)
    for M in (p.actions_exact if p.actions_exact is not None else p.actions):
        M = [[frac(x) for x in r] for r in M]
        for i in range(d):
            for j in range(i, d):
                for k in range(d):
                    row = [ZERO] * nvar
                    for m in range(d):
                        row[var(at(i, j), m)] += M[k][m]
                    for a in range(d):
                        for b in range(d):
                            row[var(at(a, b), k)] -= M[a][i] * M[b][j]
                    rows.append(row)
                    rhs.append(ZERO)
    if idempotence:
        for g in (p.outcome_vectors_exact
                  if p.outcome_vectors_exact is not None
                  else p.outcome_vectors):
            g = [frac(x) for x in g]
            for k in range(d):
                row = [ZERO] * nvar
                for i in range(d):
                    for j in range(i, d):
                        c = g[i] * g[j]
                        if i != j:
                            c *= 2
                        row[var(at(i, j), k)] += c
                rows.append(row)
                rhs.append(g[k])
    return rows, rhs, pairs


def np_nullspace_full_svd(A: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    if A.size == 0:
        return np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    nz = (s > rtol * (s[0] if len(s) else 1.0)).sum()
    return vt[nz:].T
