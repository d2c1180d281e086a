"""Exact rational feasibility LPs via phase-one simplex with Bland's rule.

Standard form: find x >= 0 with A x = b.  A system in n unknowns comes as
one `linalg.Row` per equation: row i of [A | b] as a sparse {column: int}
row over one positive denominator, b_i in column n, zeros left out, so a
builder that holds integers passes them as they are; (k·ints, k·den) is the
same rational row for any k > 0 and gives the same answer.  Always returns
a certificate: either a feasible point or a Farkas vector y with yᵀA <= 0
and yᵀb > 0, both re-verified by direct substitution before they are
returned; a failed re-check raises `CertificateError`, also under
`python -O`.

The tableau is the rational one, held as one integer row over one positive
denominator per row, with integer pivoting as in lrs (Avis, 2000).  Bland's
rule reads signs and the ratio test cross-multiplies, so the pivot sequence,
point and Farkas vector equal those of `Fraction` arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Row, Vec, ZERO, integer_row

__all__ = ["CertificateError", "LPResult", "solve_feasibility",
           "check_certificate", "cone_membership", "convex_membership",
           "free_feasibility"]


class UnboundedError(Exception):
    pass


class CertificateError(ArithmeticError):
    """A feasibility certificate failed its re-check by exact substitution."""


@dataclass
class LPResult:
    feasible: bool
    point: Vec | None = None       # x with A x = b, x >= 0
    farkas: Vec | None = None      # y with yᵀA <= 0 and yᵀb > 0


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide an integer row and its positive denominator by their gcd."""
    g = math.gcd(den, *row)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


def _phase_one(rows: list[Row], n: int) -> tuple[bool, Vec]:
    """Phase-one simplex with Bland's rule on an integer tableau.

    Each row of the rational tableau (constraints, then the reduced-cost
    row) is held as integers over one positive denominator, divided by
    their gcd, so the tableau does not depend on the scale of the input
    rows.  Bland's rule reads only signs and the ratio test
    cross-multiplies, so the pivots are those of the rational tableau.
    Returns (True, point) or (False, Farkas vector), unchecked.
    """
    m = len(rows)
    ncols = n + m
    # orient rows so the right-hand side is nonnegative; tableau columns are
    # n structural + m artificial + rhs
    signs = [1 if r.get(n, 0) >= 0 else -1 for r, _ in rows]
    N: list[list[int]] = []
    den: list[int] = []
    for i, (r, d) in enumerate(rows):
        row = [0] * (ncols + 1)
        for j, a in r.items():
            row[j if j < n else ncols] = signs[i] * a
        row[n + i] = d
        row, d = _reduce(row, d)
        N.append(row)
        den.append(d)
    # phase-one objective: minimize the sum of the artificials; its reduced
    # cost row is minus the sum of the rows, zero on the artificials
    common = math.lcm(*den)
    cost = [-sum(N[i][j] * (common // den[i]) for i in range(m))
            for j in range(n)] + [0] * m
    cost.append(-sum(N[i][ncols] * (common // den[i]) for i in range(m)))
    c, dc = _reduce(cost, common)
    N.append(c)
    den.append(dc)
    basis = [n + i for i in range(m)]

    while True:
        cost = N[m]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = N[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # T[i][rhs]/T[i][enter] against the best ratio so far
                lhs = N[i][ncols] * N[leave][enter]
                rhs = N[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise UnboundedError("phase-one objective unbounded; inconsistent tableau")
        # the pivot row becomes N[leave] / N[leave][enter]
        prow, piv = _reduce(N[leave], N[leave][enter])
        N[leave], den[leave] = prow, piv
        for i in range(m + 1):
            f = N[i][enter]
            if i != leave and f:
                N[i], den[i] = _reduce(
                    [piv * x - f * y for x, y in zip(N[i], prow)], den[i] * piv)
        basis[leave] = enter

    cost, dc = N[m], den[m]
    if cost[ncols] < 0:
        # infeasible: y_i = (1 - cbar_{artificial i}) * sign_i
        return False, [Fraction(signs[i] * (dc - cost[n + i]), dc)
                       for i in range(m)]
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(N[i][ncols], den[i])
    return True, x


def solve_feasibility(rows: list[Row], n: int) -> LPResult:
    """Decide {x in R^n : x >= 0, A x = b}, [A | b] given by `rows`, with
    exact arithmetic; no rows is the zero point.

    Phase-one simplex on artificial variables, Bland's anti-cycling rule,
    run on integer rows.  The certificate is re-checked by substitution
    (`check_certificate`) before it is returned.
    """
    if not rows:
        return LPResult(True, point=[ZERO] * n)
    feasible, cert = _phase_one(rows, n)
    res = (LPResult(True, point=cert) if feasible
           else LPResult(False, farkas=cert))
    check_certificate(rows, n, res)
    return res


def check_certificate(rows: list[Row], n: int, res: LPResult) -> None:
    """Re-check `res` against {x in R^n : x >= 0, A x = b}, [A | b] given by
    `rows`, by exact substitution: raise CertificateError unless the point
    is nonnegative with A x = b, or the Farkas vector has yᵀA <= 0 and
    yᵀb > 0.

    The sums run on integers, as `_phase_one` holds its rows: the point and
    the Farkas vector each over their own common denominator, the rows
    that the Farkas vector combines over the lcm of their denominators.

    `solve_feasibility` checks its own answers with it; callers check with
    it certificates that were not found on this system, such as ones lifted
    from a reduced LP.
    """
    if res.feasible:
        x = res.point
        if len(x) != n or not all(xx >= 0 for xx in x):
            raise CertificateError("feasible point is not a nonnegative "
                                   f"vector of length {n}")
        xs = _against_rows(x)
        if any(sum(a * xs[j] for j, a in r.items()) for r, _ in rows):
            raise CertificateError("feasible point failed row check")
        return
    ys = integer_row(res.farkas)[1]                  # s_y · y
    used = [(yy, r, d) for yy, (r, d) in zip(ys, rows, strict=True) if yy]
    common = math.lcm(*(d for _, _, d in used))
    cols = [0] * (n + 1)                             # s_y·common · yᵀ[A | b]
    for yy, r, d in used:
        f = yy * (common // d)
        for j, a in r.items():
            cols[j] += f * a
    if any(c > 0 for c in cols[:n]):
        raise CertificateError("farkas certificate failed column check")
    if not cols[n] > 0:
        raise CertificateError("farkas certificate failed rhs check")


def _merge_rows(rows: list[Row], to_col) -> tuple[list[Row], list[int]]:
    """The rows with column j summed into column to_col[j], divided by their
    gcd and kept once, in first-seen order; and each row's merged index."""
    merged: dict = {}
    row_class = []
    for row, d in rows:
        red: dict[int, int] = {}
        for j, a in row.items():
            red[to_col[j]] = red.get(to_col[j], 0) + a
        g = math.gcd(d, *red.values())
        key = (tuple(sorted((o, a // g) for o, a in red.items())), d // g)
        row_class.append(merged.setdefault(key, len(merged)))
    return [(dict(items), d) for items, d in merged], row_class


def _against_rows(x: Vec) -> list[int]:
    """(s·x, -s), s the common denominator of x: a `Row` (r, den) of
    [a | b] sums against it, Σ_j r[j]·(s·x, -s)[j], to s·den·(a·x - b)."""
    s, xs = integer_row(x)
    return xs + [-s]


def _rational_row(v: Vec) -> Row:
    """A rational row [a | b] as a `Row`."""
    s, ints = integer_row(v)
    return {j: a for j, a in enumerate(ints) if a}, s


def cone_membership(v: Vec, generators: list[Vec]) -> LPResult:
    """Is v a nonnegative combination of the generators?

    Feasible: `point` holds the coefficients.  Infeasible: `farkas` is a
    separating functional f (= the Farkas vector) with f·g >= 0 for every
    generator and f·v < 0 after negation; we return it already negated.
    """
    if not generators:
        dim = len(v)
        if all(x == 0 for x in v):
            return LPResult(True, point=[])
        return LPResult(False, farkas=[-x for x in v] if dim else None)
    rows = [_rational_row([g[i] for g in generators] + [v[i]])
            for i in range(len(v))]
    res = solve_feasibility(rows, len(generators))
    if res.feasible:
        return res
    f = [-y for y in res.farkas]        # f·g >= 0 for all g, f·v < 0
    return LPResult(False, farkas=f)


def convex_membership(v: Vec, points: list[Vec]) -> LPResult:
    """Is v a convex combination of the points?"""
    if not points:
        return LPResult(False, farkas=None)
    n = len(points)
    rows = [_rational_row([p[i] for p in points] + [v[i]])
            for i in range(len(v))]
    rows.append((dict.fromkeys(range(n + 1), 1), 1))
    return solve_feasibility(rows, n)


def free_feasibility(ineqs: list[Row], eqs: list[Row], n: int) -> LPResult:
    """Find x in R^n (unrestricted sign) with a·x >= c for each row [a | c]
    of `ineqs` and a·x = c for each of `eqs`, all given as `Row`s.

    Encodes x = u - w with slack columns for the inequalities and reuses the
    phase-one simplex.  The returned point is x itself, re-checked against
    every row by substitution.
    """
    k = len(ineqs)
    width = 2 * n + k
    rows = []
    for i, (r, d) in enumerate(ineqs + eqs):
        row = {}
        for j, a in r.items():
            if j < n:
                row[j], row[n + j] = a, -a
            else:
                row[width] = a
        if i < k:
            row[2 * n + i] = -d
        rows.append((row, d))
    res = solve_feasibility(rows, width)
    if not res.feasible:
        return LPResult(False, farkas=res.farkas)
    x = [res.point[j] - res.point[n + j] for j in range(n)]
    xs = _against_rows(x)
    sums = [sum(a * xs[j] for j, a in r.items()) for r, _ in ineqs + eqs]
    if any(t < 0 for t in sums[:k]):
        raise CertificateError("free point violates an inequality")
    if any(sums[k:]):
        raise CertificateError("free point violates an equality")
    return LPResult(True, point=x)
