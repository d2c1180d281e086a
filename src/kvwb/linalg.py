"""Exact rational linear algebra over `fractions.Fraction`, plus float helpers.

Vectors are lists/tuples of Fraction; matrices are lists of row vectors.
Everything here is dense and intended for desk-scale problems (dim <= ~30).
Elimination (`rref`, and so `solve`, `nullspace`, `rank`, `inverse` and
`column_space_basis`) runs over Python ints on primitive rows, in the
fraction-free style of Bareiss (Math. Comp. 22, 1968), and divides into
`Fraction`s only at the end; the rationals returned are the same.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Vec = list[Fraction]
Mat = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3' or '0.25', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to Fraction implicitly: %r" % x)
    return Fraction(x)


def vec(xs: Iterable) -> Vec:
    return [frac(x) for x in xs]


def mat(rows: Iterable[Iterable]) -> Mat:
    return [vec(r) for r in rows]


def zeros(n: int) -> Vec:
    return [ZERO] * n


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return [x + y for x, y in zip(a, b, strict=True)]


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return [x - y for x, y in zip(a, b, strict=True)]


def vscale(c: Fraction, a: Sequence[Fraction]) -> Vec:
    return [c * x for x in a]


def mat_vec(A: Mat, x: Sequence[Fraction]) -> Vec:
    return [dot(row, x) for row in A]


def mat_mul(A: Mat, B: Mat) -> Mat:
    Bt = transpose(B)
    return [[dot(row, col) for col in Bt] for row in A]


def transpose(A: Mat) -> Mat:
    return [list(col) for col in zip(*A)] if A else []


def mat_eq(A: Mat, B: Mat) -> bool:
    return A == B


def _primitive(ints: list[int]) -> list[int]:
    """Divide an integer row by the gcd of its entries; zero stays zero."""
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _primitive_row(row: Sequence) -> list[int]:
    """The primitive integer row on the ray of a rational row."""
    scale = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Gauss-Jordan over the integers: every row is kept primitive (coprime
    integer entries), a row is cleared by cross-multiplying it with the pivot
    row, and only the final division by each pivot makes `Fraction`s.  The
    RREF is unique, so the result equals that of rational elimination.
    """
    if not A:
        return [], []
    R = [_primitive_row(row) for row in A]
    nrows, ncols = len(R), len(R[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if R[i][c]), None)
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        prow = R[r]
        pv = prow[c]
        for i in range(nrows):
            f = R[i][c]
            if i != r and f:
                # the pivot row is zero left of c: there row i is only scaled
                row = R[i]
                new = [pv * x for x in row[:c]]
                new += [pv * x - f * y for x, y in zip(row[c:], prow[c:])]
                R[i] = _primitive(new)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(x, row[c]) if x else ZERO for x in row]
           for row, c in zip(R, pivots)]
    out += [[ZERO] * ncols for _ in range(nrows - r)]
    return out, pivots


def rank(A: Mat) -> int:
    return len(rref(A)[1])


def _null_basis(R: Mat, pivots: list[int], ncols: int) -> list[Vec]:
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = zeros(ncols)
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(v)
    return basis


def _augmented_solution(R: Mat, pivots: list[int], ncols: int) -> Vec | None:
    """The solution read off the RREF of [A | b], or None if inconsistent."""
    if pivots and pivots[-1] == ncols:      # pivot in the augmented column
        return None
    x = zeros(ncols)
    for i, pc in enumerate(pivots):
        x[pc] = R[i][ncols]
    return x


def nullspace(A: Mat) -> list[Vec]:
    """Basis of the right nullspace, one vector per free column, in column order."""
    if not A:
        return []
    R, pivots = rref(A)
    return _null_basis(R, pivots, len(A[0]))


def solve(A: Mat, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent."""
    if not A:
        return [] if all(x == 0 for x in b) else None
    aug = [row[:] + [bb] for row, bb in zip(A, b, strict=True)]
    return _augmented_solution(*rref(aug), len(A[0]))


def solve_with_nullspace(A: Mat, b: Sequence[Fraction]
                         ) -> tuple[Vec | None, list[Vec]]:
    """`solve(A, b)` and `nullspace(A)` from one elimination of [A | b].

    When the system is consistent the left block of that RREF is rref(A), so
    both results equal the separate calls; (None, []) when inconsistent.
    """
    if not A:
        return solve(A, b), []
    ncols = len(A[0])
    R, pivots = rref([row[:] + [bb] for row, bb in zip(A, b, strict=True)])
    x = _augmented_solution(R, pivots, ncols)
    return x, [] if x is None else _null_basis(R, pivots, ncols)


def inverse(A: Mat) -> Mat | None:
    n = len(A)
    aug = [row[:] + ident_row for row, ident_row in zip(A, identity(n))]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in R]


def det(A: Mat) -> Fraction:
    n = len(A)
    M = [row[:] for row in A]
    d = ONE
    for c in range(n):
        p = None
        for i in range(c, n):
            if M[i][c] != 0:
                p = i
                break
        if p is None:
            return ZERO
        if p != c:
            M[c], M[p] = M[p], M[c]
            d = -d
        d *= M[c][c]
        inv_p = ONE / M[c][c]
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c] * inv_p
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return d


def is_symmetric(A: Mat) -> bool:
    n = len(A)
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n))


def is_positive_definite(A: Mat) -> bool:
    """Sylvester criterion via symmetric Gaussian elimination (exact)."""
    n = len(A)
    if not is_symmetric(A):
        return False
    M = [row[:] for row in A]
    for k in range(n):
        piv = M[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            if M[i][k] != 0:
                f = M[i][k] / piv
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return True


def is_positive_semidefinite(A: Mat) -> bool:
    """Exact PSD test by pivoted symmetric elimination."""
    n = len(A)
    if not is_symmetric(A):
        return False
    M = [row[:] for row in A]
    rows = list(range(n))
    k = 0
    while k < len(rows):
        # find a nonzero diagonal pivot among remaining rows
        piv_idx = None
        for i in range(k, len(rows)):
            if M[rows[i]][rows[i]] > 0:
                piv_idx = i
                break
            if M[rows[i]][rows[i]] < 0:
                return False
        if piv_idx is None:
            # all remaining diagonal entries are 0: PSD requires the whole block be 0
            for i in range(k, len(rows)):
                for j in range(k, len(rows)):
                    if M[rows[i]][rows[j]] != 0:
                        return False
            return True
        rows[k], rows[piv_idx] = rows[piv_idx], rows[k]
        rk = rows[k]
        piv = M[rk][rk]
        for i in range(k + 1, len(rows)):
            ri = rows[i]
            if M[ri][rk] != 0:
                f = M[ri][rk] / piv
                for j in range(n):
                    M[ri][j] -= f * M[rk][j]
                for j in range(n):
                    M[j][ri] -= f * M[j][rk]
        k += 1
    return True


def column_space_basis(A: Mat) -> list[int]:
    """Indices of the first maximal linearly independent subset of columns."""
    return rref(A)[1]


def gram(vectors: Sequence[Sequence[Fraction]], B: Mat) -> Mat:
    return [[dot(v, mat_vec(B, w)) for w in vectors] for v in vectors]


# ---------------------------------------------------------------------------
# float helpers (numpy-backed)

def np_nullspace(A: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Rows span the right nullspace; basis put in reduced row echelon order."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0 or A.shape[0] == 0:
        return np.eye(A.shape[1])
    u, s, vt = np.linalg.svd(A)
    smax = s[0] if len(s) else 0.0
    null = vt[[i for i in range(vt.shape[0]) if i >= len(s) or s[i] <= rtol * max(smax, 1.0)]]
    if null.shape[0] == 0:
        return null
    return np_rref(null, tol=1e-12)


def np_rref(A: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    R = np.array(A, dtype=float)
    nrows, ncols = R.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        i = r + int(np.argmax(np.abs(R[r:, c])))
        if abs(R[i, c]) <= tol:
            continue
        R[[r, i]] = R[[i, r]]
        R[r] = R[r] / R[r, c]
        for k in range(nrows):
            if k != r:
                R[k] = R[k] - R[k, c] * R[r]
        r += 1
    return R[:r] if r else R[:0]


def to_float_matrix(A: Mat) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in A], dtype=float)


def from_float_matrix(A: np.ndarray, limit: int = 10**6) -> Mat:
    return [[Fraction(x).limit_denominator(limit) for x in row] for row in A]
