"""Exact rational feasibility LPs via phase-one simplex with Bland's rule.

Standard form: find x >= 0 with A x = b.  Always returns a certificate:
either a feasible point or a Farkas vector y with yᵀA <= 0 and yᵀb > 0,
both re-verified by direct substitution before they are returned; a failed
re-check raises `CertificateError`, also under `python -O`.

The tableau is the rational one, held as one integer row over one positive
denominator per row, with integer pivoting as in lrs (Avis, 2000).  Bland's
rule reads signs and the ratio test cross-multiplies, so the pivot sequence,
point and Farkas vector equal those of `Fraction` arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, Vec, ZERO, ONE, frac

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


def _phase_one(A: Mat, b: Vec) -> tuple[bool, Vec]:
    """Phase-one simplex with Bland's rule on an integer tableau.

    Each row of the rational tableau (constraints, then the reduced-cost
    row) is held as integers over one positive denominator.  Bland's rule
    reads only signs and the ratio test cross-multiplies, so the pivots are
    those of the rational tableau.  Returns (True, point) or
    (False, Farkas vector), unchecked.
    """
    m, n = len(A), len(A[0])
    ncols = n + m
    # orient rows so the right-hand side is nonnegative; tableau columns are
    # n structural + m artificial + rhs
    signs = [1 if bb >= 0 else -1 for bb in b]
    N: list[list[int]] = []
    den: list[int] = []
    for i in range(m):
        scale = math.lcm(b[i].denominator, *(x.denominator for x in A[i]))
        row = [signs[i] * x.numerator * (scale // x.denominator)
               for x in A[i]]
        row += [0] * m + [signs[i] * b[i].numerator * (scale // b[i].denominator)]
        row[n + i] = scale
        r, d = _reduce(row, scale)
        N.append(r)
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


def solve_feasibility(A: Mat, b: Vec) -> LPResult:
    """Decide {x >= 0 : A x = b} with exact arithmetic.

    Phase-one simplex on artificial variables, Bland's anti-cycling rule,
    run on integer rows.  The certificate is re-checked by substitution
    (`check_certificate`) before it is returned.
    """
    if not A:
        return LPResult(True, point=[])
    feasible, cert = _phase_one(A, b)
    res = (LPResult(True, point=cert) if feasible
           else LPResult(False, farkas=cert))
    check_certificate([{j: a for j, a in enumerate(row) if a} for row in A],
                      b, len(A[0]), res)
    return res


def check_certificate(rows: list[dict[int, Fraction]], b: Vec, ncols: int,
                      res: LPResult) -> None:
    """Re-check `res` against {x >= 0 : A x = b} by exact substitution, row
    i of A given sparsely as {column: coefficient}: raise CertificateError
    unless the point is nonnegative with A x = b, or the Farkas vector has
    yᵀA <= 0 and yᵀb > 0.

    The sums run on integers, as `_phase_one` holds its rows: each row
    checked against the point is taken over its own common denominator, the
    rows that the Farkas vector combines over theirs, and the point, the
    Farkas vector and b each over their own.

    `solve_feasibility` checks its own answers with it; callers check with
    it certificates that were not found on this system, such as ones lifted
    from a reduced LP.
    """
    if res.feasible:
        x = res.point
        if len(x) != ncols or not all(xx >= 0 for xx in x):
            raise CertificateError("feasible point is not a nonnegative "
                                   f"vector of length {ncols}")
        s_x, xs = _over_common_denominator(x)
        for row, bb in zip(rows, b, strict=True):
            scale = math.lcm(bb.denominator,
                             *(a.denominator for a in row.values()))
            if (sum(a.numerator * (scale // a.denominator) * xs[j]
                    for j, a in row.items())
                    != bb.numerator * (scale // bb.denominator) * s_x):
                raise CertificateError("feasible point failed row check")
        return
    ys = _over_common_denominator(res.farkas)[1]     # s_y · y
    used = [(yy, row) for yy, row in zip(ys, rows, strict=True) if yy]
    common = math.lcm(*(a.denominator for _, row in used
                        for a in row.values()))
    cols = [0] * ncols                               # s_y·common · yᵀA
    for yy, row in used:
        for j, a in row.items():
            cols[j] += yy * a.numerator * (common // a.denominator)
    if any(c > 0 for c in cols):
        raise CertificateError("farkas certificate failed column check")
    bs = _over_common_denominator(b)[1]
    if not sum(yy * bb for yy, bb in zip(ys, bs, strict=True)) > 0:
        raise CertificateError("farkas certificate failed rhs check")


def _over_common_denominator(v: Vec) -> tuple[int, list[int]]:
    """(s, s·v) for a rational vector v and its common denominator s."""
    s = math.lcm(*(x.denominator for x in v))
    return s, [x.numerator * (s // x.denominator) for x in v]


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
    A = [[g[i] for g in generators] for i in range(len(v))]
    res = solve_feasibility(A, list(v))
    if res.feasible:
        return res
    f = [-y for y in res.farkas]        # f·g >= 0 for all g, f·v < 0
    return LPResult(False, farkas=f)


def convex_membership(v: Vec, points: list[Vec]) -> LPResult:
    """Is v a convex combination of the points?"""
    if not points:
        return LPResult(False, farkas=None)
    A = [[p[i] for p in points] for i in range(len(v))]
    A.append([ONE] * len(points))
    b = list(v) + [ONE]
    return solve_feasibility(A, b)


def free_feasibility(ineqs: list[tuple[Vec, Fraction]],
                     eqs: list[tuple[Vec, Fraction]], n: int) -> LPResult:
    """Find x in R^n (unrestricted sign) with a.x >= c and e.x = d.

    Encodes x = u - w with slack columns for the inequalities and reuses the
    phase-one simplex.  The returned point is x itself.
    """
    m = len(ineqs) + len(eqs)
    width = 2 * n + len(ineqs)
    A = [[ZERO] * width for _ in range(m)]
    b = []
    for r, (a, c) in enumerate(ineqs):
        for j in range(n):
            A[r][j] = frac(a[j])
            A[r][n + j] = -frac(a[j])
        A[r][2 * n + r] = -ONE
        b.append(frac(c))
    for r, (a, c) in enumerate(eqs):
        row = len(ineqs) + r
        for j in range(n):
            A[row][j] = frac(a[j])
            A[row][n + j] = -frac(a[j])
        b.append(frac(c))
    res = solve_feasibility(A, b)
    if not res.feasible:
        return LPResult(False, farkas=res.farkas)
    x = [res.point[j] - res.point[n + j] for j in range(n)]
    for (a, c) in ineqs:
        if sum(ai * xi for ai, xi in zip(a, x)) < c:
            raise CertificateError("free point violates an inequality")
    for (a, c) in eqs:
        if sum(ai * xi for ai, xi in zip(a, x)) != c:
            raise CertificateError("free point violates an equality")
    return LPResult(True, point=x)
