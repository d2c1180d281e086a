"""Exact rational linear algebra over `fractions.Fraction`, plus float helpers.

Vectors are lists/tuples of Fraction; matrices are lists of row vectors,
dense and intended for desk-scale problems (dim <= ~30).  Elimination
(`rref`, and so `solve`, `nullspace`, `rank`, `inverse` and
`column_space_basis`) runs over Python ints on primitive rows, in the
fraction-free style of Bareiss (Math. Comp. 22, 1968), and divides into
`Fraction`s only at the end; the rationals returned are the same.

`solve_with_nullspace` is the one sparse kernel: it takes integer rows as
{column: int} dicts, the kind Jordan recovery builds (mostly zeros), and
eliminates them fraction-free on leftmost pivots, choosing the shortest
row holding each pivot column (Markowitz's row choice, as in Davis,
*Direct Methods for Sparse Linear Systems*, 2006).

`_Kind` lets one body serve exact and float data: it holds numbers of one
kind in numpy arrays (`Fraction` objects, or floats) and gives that kind's
integer scaling, inverse, rank, nullspace and zero tolerance (0 exact, `tol`
float).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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


def mat_vec(A: Mat, x: Sequence[Fraction]) -> Vec:
    return [dot(row, x) for row in A]


def mat_mul(A: Mat, B: Mat) -> Mat:
    Bt = transpose(B)
    return [[dot(row, col) for col in Bt] for row in A]


def transpose(A: Mat) -> Mat:
    return [list(col) for col in zip(*A)] if A else []


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


def _integer_block(x) -> tuple[int, np.ndarray]:
    """(s, s·x) for a rational block x and its common denominator s, the
    integers as an object array of Python ints."""
    X = np.array(x, dtype=object)
    fs = [frac(v) for v in X.flat]
    s = math.lcm(*(f.denominator for f in fs))
    return s, np.array([f.numerator * (s // f.denominator) for f in fs],
                       dtype=object).reshape(X.shape)


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


SparseRow = dict[int, int]


def sparse_int_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    nrows: int) -> list[SparseRow]:
    """The `nrows` sparse rows {column: int} whose (i, j) entry is the sum
    of the integer `vals` at the triples with rows == i and cols == j;
    entries that sum to 0 are left out."""
    out: list[SparseRow] = [{} for _ in range(nrows)]
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[r][c] = out[r].get(c, 0) + v
    return [{c: v for c, v in row.items() if v} for row in out]


def _primitive_sparse(row: SparseRow) -> SparseRow:
    """Divide a sparse integer row by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _cleared(row: SparseRow, prow: SparseRow, c: int) -> SparseRow:
    """The primitive row on pv·row - row[c]·prow, which is 0 at column c."""
    pv, f = prow[c], row[c]
    new = {k: pv * v for k, v in row.items()}
    for k, y in prow.items():
        v = new.get(k, 0) - f * y
        if v:
            new[k] = v
        else:
            del new[k]
    return _primitive_sparse(new)


def solve_with_nullspace(rows: Sequence[SparseRow], ncols: int
                         ) -> tuple[Vec | None, list[Vec]]:
    """`solve(A, b)` and `nullspace(A)` from one sparse elimination of [A | b].

    Row i of [A | b] is `rows[i]`, a dict {column: nonzero int} in which
    column `ncols` holds the right-hand side.  Fraction-free Gauss-Jordan on
    primitive integer rows: the columns are taken in ascending order, so the
    pivot columns are those of the RREF; the pivot row of a column is the
    shortest active row holding it (Markowitz's row choice, ties to the
    lower index), and only the active rows holding that column are updated.
    Back substitution, last pivot first, then clears each pivot column from
    the pivot rows above it, which gives the RREF rows up to their scale.
    The RREF is unique, so the result is the dense one's: the solution read
    off it and one null vector per free column, in column order; (None, [])
    when a pivot falls on the right-hand side.
    """
    active: dict[int, SparseRow] = {}
    holders: list[set[int]] = [set() for _ in range(ncols + 1)]
    for i, r in enumerate(rows):
        if r:
            active[i] = _primitive_sparse(r)
            for k in r:
                holders[k].add(i)
    echelon: list[tuple[int, SparseRow]] = []     # (pivot column, row)
    for c in range(ncols + 1):
        if not holders[c]:
            continue
        if c == ncols:
            return None, []
        p = min(holders[c], key=lambda i: (len(active[i]), i))
        prow = active.pop(p)
        for k in prow:
            holders[k].discard(p)
        for i in list(holders[c]):
            old = active[i]
            active[i] = new = _cleared(old, prow, c)
            for k in old.keys() - new.keys():
                holders[k].discard(i)
            for k in new.keys() - old.keys():
                holders[k].add(i)
        echelon.append((c, prow))
    for j in range(len(echelon) - 1, 0, -1):
        c, prow = echelon[j]
        for i in range(j):
            ci, row = echelon[i]
            if c in row:
                echelon[i] = ci, _cleared(row, prow, c)
    pivots = {c for c, _ in echelon}
    x = zeros(ncols)
    basis = {fc: zeros(ncols) for fc in range(ncols) if fc not in pivots}
    for fc, v in basis.items():
        v[fc] = ONE
    for c, row in echelon:
        pv = row[c]
        for k, v in row.items():
            if k == ncols:
                x[c] = Fraction(v, pv)
            elif k != c:
                basis[k][c] = Fraction(-v, pv)
    return x, list(basis.values())


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


def is_positive_definite(A) -> bool:
    """Sylvester's criterion on a symmetric rational matrix, fraction-free:
    primitive integer rows (positive factors keep the signs of the leading
    minors), and Bareiss elimination leaves the k-th minor as a pivot."""
    if not is_symmetric(A):
        return False
    M = [_primitive_row(row) for row in A]
    prev = 1
    for k, prow in enumerate(M):
        p = prow[k]
        if p <= 0:
            return False
        for i in range(k + 1, len(M)):
            f = M[i][k]
            M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], prow)]
        prev = p
    return True


def column_space_basis(A: Mat) -> list[int]:
    """Indices of the first maximal linearly independent subset of columns."""
    return rref(A)[1]


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


# ---------------------------------------------------------------------------
# one body for both kinds

_as_fractions = np.frompyfunc(frac, 1, 1)


class _Kind:
    """The operations of one kind of number, "exact" or "float".

    Values travel as numpy arrays, of `Fraction` objects when exact, so
    `@`, `.T` and broadcasting read the same for both kinds; the exact
    kernels above get lists of `Fraction` rows.  The float operations are
    the numpy calls the float code makes, so its results keep their bits.
    """

    def __init__(self, kind: str, tol: float = 1e-9):
        self.exact = kind == "exact"
        self.tol = 0 if self.exact else tol          # the zero tolerance

    def array(self, x) -> np.ndarray:
        if self.exact:
            return _as_fractions(np.array(x, dtype=object))
        return np.asarray(x, dtype=float)

    def native(self, A: np.ndarray):
        """Exact arrays as (nested) lists of `Fraction`; float arrays as is."""
        return A.tolist() if self.exact else A

    def scaled(self, x) -> tuple:
        """(s, s·x): rationals as integers over their common denominator s,
        floats as they are with s = 1.0."""
        return _integer_block(x) if self.exact else (1.0, np.asarray(x, float))

    def zeros(self, shape) -> np.ndarray:
        return self.array(np.zeros(shape, dtype=int))

    def is_zero(self, x) -> bool:
        """Every entry of x within the zero tolerance (True when empty)."""
        return not np.size(x) or bool(np.max(np.abs(x)) <= self.tol)

    def inverse(self, A: np.ndarray) -> Optional[np.ndarray]:
        if self.exact:
            inv = inverse(A.tolist())
            return None if inv is None else np.array(inv, dtype=object)
        return np.linalg.inv(A)

    def rank(self, A: np.ndarray) -> int:
        if self.exact:
            return rank(A.tolist())
        return int(np.linalg.matrix_rank(A, tol=self.tol))

    def nullspace(self, A: np.ndarray) -> np.ndarray:
        """Rows spanning {x : A x = 0}, in reduced row echelon order; the
        identity when A has no rows."""
        n = A.shape[1]
        if self.exact:
            basis = nullspace(A.tolist()) if len(A) else identity(n)
            return np.array(basis, dtype=object).reshape(len(basis), n)
        return np_nullspace(A)
