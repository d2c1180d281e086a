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
rows become sparse ones on entry; `solve_with_nullspace` takes sparse
integer rows as they are.  The one readout, `_integer_readout`, gives
integers over their least denominator, the pair (s, s·X) in which the exact
stages hold every derived matrix.

`_Kind` lets one body serve exact and float data: it holds numbers of one
kind in numpy arrays (`Fraction` objects, or floats) and gives that kind's
pairs (s, s·X) (integers when exact, floats with s = 1.0), inverse, rank,
nullspace and zero tolerance (0 exact, `tol` float).
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
    s, ints = integer_row(v if type(v) is int else frac(v) for v in X.flat)
    return s, np.array(ints, dtype=object).reshape(X.shape)


def _lowest(s: int, A: np.ndarray) -> tuple[int, np.ndarray]:
    """The pair (s, A) of integers over the least denominator: the pair
    `_integer_block` gives for the rationals A/s."""
    g = math.gcd(s, *A.flat)
    return (s // g, A // g) if g > 1 else (s, A)


SparseRow = dict[int, int]

#: A rational row as integers over one positive denominator: the row
#: ({column: int}, den) of a system in n unknowns holds its right-hand side
#: in column n, zeros left out.  The input format of `kvwb.lp`.
Row = tuple[SparseRow, int]


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


def _integer_readout(echelon: list[tuple[int, SparseRow]], ncols: int
                     ) -> tuple[int, np.ndarray] | None:
    """(L, L·[x | basis]): the solution of A x = b and one null vector per
    free column, in order, read off `_eliminate`'s RREF rows of [A | b] over
    their least denominator L; None when a pivot is on the right-hand side."""
    if echelon and echelon[-1][0] == ncols:
        return None
    free = sorted(set(range(ncols)) - {c for c, _ in echelon})
    at = {fc: n for n, fc in enumerate(free, 1)}
    L = math.lcm(*(row[c] for c, row in echelon))
    X = np.zeros((ncols, 1 + len(free)), dtype=object)
    X[free, list(at.values())] = L
    for c, row in echelon:
        f = L // row[c]
        for k, v in row.items():
            if k != c:
                X[c, at.get(k, 0)] = v * f if k == ncols else -v * f
    return _lowest(L, X)


def _readout(echelon: list[tuple[int, SparseRow]], ncols: int
             ) -> tuple[Vec | None, list[Vec]]:
    """`_integer_readout` as `Fraction` lists, (x, basis); (None, []) when
    a pivot falls on the right-hand side."""
    if (got := _integer_readout(echelon, ncols)) is None:
        return None, []
    x, *basis = ([Fraction(a, got[0]) if a else ZERO for a in col]
                 for col in got[1].T.tolist())
    return x, basis


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
    """A⁻¹, or None when A is singular: `_Kind.inverse` as `Fraction`s."""
    K = _Kind("exact")
    inv = K.inverse(_integer_block(A))
    return None if inv is None else K.unscaled(inv)


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
    return np_rref(vt[int((s > rtol * max(s[0], 1.0)).sum()):], tol=1e-12)


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
_over = np.frompyfunc(Fraction, 2, 1)


class _Kind:
    """The operations of one kind of number, "exact" or "float".

    Values travel as numpy arrays, of `Fraction` objects or of the
    integers of a pair (s, s·x) when exact, so `@`, `.T` and broadcasting
    read the same for both kinds.  The float operations are the numpy calls
    the float code makes, so its results keep their bits.
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

    def unscaled(self, pair):
        """x from its pair (s, s·x): nested `Fraction` lists (or one
        `Fraction`) when exact, the float quotient otherwise."""
        s, A = pair
        return np.asarray(_over(A, s)).tolist() if self.exact else A / s

    def zeros(self, shape) -> np.ndarray:
        """Zeros of the kind: Python ints when exact, floats otherwise."""
        return np.zeros(shape, dtype=object if self.exact else float)

    def is_zero(self, x) -> bool:
        """Every entry of x within the zero tolerance (True when empty)."""
        return not np.size(x) or bool(np.max(np.abs(x)) <= self.tol)

    def inverse(self, pair: tuple) -> Optional[tuple]:
        """The pair of X⁻¹ from that of X, or None when X is singular.  The
        pivots of [s·X | -I] are its first n columns exactly when X is
        invertible; the null vector on column n + k is ((s·X)⁻¹e_k, e_k)."""
        s, A = pair
        if not self.exact:
            return 1.0, np.linalg.inv(A / s)
        n = len(A)
        echelon = _eliminate([{**{k: x for k, x in enumerate(row) if x},
                               n + i: -1} for i, row in enumerate(A.tolist())],
                             2 * n)
        if [c for c, _ in echelon] != list(range(n)):
            return None
        t, X = _integer_readout(echelon, 2 * n)
        return _lowest(t, s * X[:n, 1:])

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

    def nullity(self, A: np.ndarray) -> int:
        """`len(self.nullspace(A))`; exact, with no basis read off."""
        return A.shape[1] - rank(A.tolist()) if self.exact else len(
            np_nullspace(A))
