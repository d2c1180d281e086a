"""Exact rational linear algebra over `fractions.Fraction`, plus float helpers.

Vectors are lists/tuples of Fraction; matrices are lists of row vectors,
dense and intended for desk-scale problems (dim <= ~30).  One sparse
fraction-free elimination, `_eliminate`, serves every exact routine: `rref`,
`rank`, the pivots (`column_space_basis`), `nullspace`, `solve`,
`solve_with_nullspace` and `inverse` read their answers off the RREF rows it
returns.  It runs Gauss-Jordan over Python ints on primitive rows in the
fraction-free style of Bareiss (Math. Comp. 22, 1968), held as
{column: int} dicts, and picks the shortest row holding each pivot column
(Markowitz's row choice, as in Davis, *Direct Methods for Sparse Linear
Systems*, 2006); only the readout divides into `Fraction`s, and the RREF is
unique, so the rationals returned are those of rational elimination.  Dense
rows become sparse ones on entry; `solve_with_nullspace` takes the sparse
integer rows Jordan recovery builds (mostly zeros) as they are.

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


def integer_row(v: Iterable) -> tuple[int, list[int]]:
    """(s, s·v) for a rational vector v and its common denominator s; the
    one scaling of rationals to integers.  gcd(s, s·v) = 1."""
    v = list(v)
    s = math.lcm(*(x.denominator for x in v))
    return s, [x.numerator * (s // x.denominator) for x in v]


def _primitive_row(row: Sequence) -> list[int]:
    """The primitive integer row on the ray of a rational row: the integers
    over the common denominator, divided by their gcd; zero stays zero."""
    ints = integer_row(row)[1]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _integer_block(x) -> tuple[int, np.ndarray]:
    """(s, s·x) for a rational block x and its common denominator s, the
    integers as an object array of Python ints."""
    X = np.array(x, dtype=object)
    s, ints = integer_row(frac(v) for v in X.flat)
    return s, np.array(ints, dtype=object).reshape(X.shape)


SparseRow = dict[int, int]

#: A rational row as integers over one positive denominator: the row
#: ({column: int}, den) of a system in n unknowns holds its right-hand side
#: in column n, zeros left out.  The input format of `kvwb.lp`.
Row = tuple[SparseRow, int]


def sparse_int_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    nrows: int) -> list[SparseRow]:
    """The `nrows` sparse rows {column: int} whose (i, j) entry is the sum
    of the integer `vals` at the triples with rows == i and cols == j;
    entries that sum to 0 are left out."""
    out: list[SparseRow] = [{} for _ in range(nrows)]
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[r][c] = out[r].get(c, 0) + v
    return [{c: v for c, v in row.items() if v} for row in out]


def _sparse(A: Mat) -> list[SparseRow]:
    """Rational rows as integer rows on their rays: the nonzero entries
    over their common denominator (`_eliminate` divides out the gcd)."""
    return [dict(zip(nz, integer_row(nz.values())[1]))
            for nz in ({k: x for k, x in enumerate(row) if x} for row in A)]


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


def _eliminate(rows: Sequence[SparseRow], ncols: int
               ) -> list[tuple[int, SparseRow]]:
    """The RREF of [A | b] up to the scale of each row, as (pivot column,
    primitive row) pairs in pivot order; the one exact elimination.

    Row i of [A | b] is `rows[i]`, a dict {column: nonzero int} in which
    column `ncols` holds the right-hand side, if any.  Fraction-free
    Gauss-Jordan on primitive integer rows: the columns are taken in
    ascending order, so the pivot columns are those of the RREF; the pivot
    row of a column is the shortest active row holding it (Markowitz's row
    choice, ties to the lower index), and only the active rows holding that
    column are updated.  A pivot on the right-hand side ends the
    elimination there: it is the last pair, and the rows are inconsistent.
    Otherwise back substitution, last pivot first, clears each pivot column
    from the pivot rows above it, which leaves the RREF rows up to scale.
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
        p = min(holders[c], key=lambda i: (len(active[i]), i))
        prow = active.pop(p)
        echelon.append((c, prow))
        if c == ncols:
            return echelon
        for k in prow:
            holders[k].discard(p)
        for i in list(holders[c]):
            old = active[i]
            active[i] = new = _cleared(old, prow, c)
            for k in old.keys() - new.keys():
                holders[k].discard(i)
            for k in new.keys() - old.keys():
                holders[k].add(i)
    for j in range(len(echelon) - 1, 0, -1):
        c, prow = echelon[j]
        for i in range(j):
            ci, row = echelon[i]
            if c in row:
                echelon[i] = ci, _cleared(row, prow, c)
    return echelon


def _readout(echelon: list[tuple[int, SparseRow]], ncols: int
             ) -> tuple[Vec | None, list[Vec]]:
    """The solution and the null basis of A x = b read off `_eliminate`'s
    RREF rows of [A | b]: one null vector per free column, in column order;
    (None, []) when a pivot falls on the right-hand side."""
    if echelon and echelon[-1][0] == ncols:
        return None, []
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


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form.  Returns (R, pivot_columns).

    `_eliminate`'s rows, each divided by its pivot, then the zero rows.
    The RREF is unique, so the result equals that of rational elimination.
    """
    ncols = len(A[0]) if A else 0
    echelon = _eliminate(_sparse(A), ncols)
    out = [[Fraction(row[k], row[c]) if k in row else ZERO
            for k in range(ncols)] for c, row in echelon]
    out += [[ZERO] * ncols for _ in range(len(A) - len(echelon))]
    return out, [c for c, _ in echelon]


def column_space_basis(A: Mat) -> list[int]:
    """Indices of the first maximal linearly independent subset of columns:
    the pivot columns."""
    return [c for c, _ in _eliminate(_sparse(A), len(A[0]) if A else 0)]


def rank(A: Mat) -> int:
    return len(column_space_basis(A))


def nullspace(A: Mat) -> list[Vec]:
    """Basis of the right nullspace, one vector per free column, in column order."""
    ncols = len(A[0]) if A else 0
    return _readout(_eliminate(_sparse(A), ncols), ncols)[1]


def solve(A: Mat, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent."""
    if not A:
        return [] if all(x == 0 for x in b) else None
    ncols = len(A[0])
    aug = [row[:] + [bb] for row, bb in zip(A, b, strict=True)]
    return _readout(_eliminate(_sparse(aug), ncols), ncols)[0]


def solve_with_nullspace(rows: Sequence[SparseRow], ncols: int
                         ) -> tuple[Vec | None, list[Vec]]:
    """`solve(A, b)` and `nullspace(A)` from one elimination of [A | b],
    given as `_eliminate`'s sparse rows, the right-hand side in column
    `ncols`; (None, []) when the rows are inconsistent."""
    return _readout(_eliminate(rows, ncols), ncols)


def inverse(A: Mat) -> Mat | None:
    """A⁻¹, or None when A is singular.  [A | -I] has rank n, and its
    pivots are the first n columns exactly when A is invertible; then the
    null vector on the free column n + k is (A⁻¹e_k, e_k)."""
    n = len(A)
    aug = [row[:] + [-ONE if j == i else ZERO for j in range(n)]
           for i, row in enumerate(A)]
    echelon = _eliminate(_sparse(aug), 2 * n)
    if [c for c, _ in echelon] != list(range(n)):
        return None
    return transpose([v[:n] for v in _readout(echelon, 2 * n)[1]])


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
