"""Polyhedral cones over the rationals.

A cone holds its generators, lineality vectors and extreme rays as
primitive integer tuples, made primitive once by its constructor (`cone`,
`dual_cone`, `mapped_dual`); `PolyhedralCone.matrix` stacks them as one
integer matrix, and `all_generators()` is the same rows as `Fraction`s,
for reports.  Dual cones are computed by an incremental double-description
sweep on primitive integer rays, with combinatorial adjacency by ray index;
the weak self-duality search eliminates sparse integer rows.  K = K**, so
with the dual of K at hand membership in K is one integer product with the
dual's generators (`dual_contains`), and a vector found outside is
separated by the first generator of the dual that is negative on it,
re-checked by substitution (`separators`).  Every verdict ships with a
checkable certificate.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import (Mat, Vec, _eliminate, _integer_block, _integer_readout,
                     _Kind, _primitive_row, frac, integer_row, rank)
from .lp import CertificateError, cone_membership, free_feasibility

Ray = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PolyhedralCone:
    """A cone given by finitely many generators (not necessarily extreme),
    each a primitive integer tuple, as are the lineality vectors and, when
    known, the extreme rays."""

    generators: tuple[Ray, ...]
    lineality: tuple[Ray, ...] = ()
    extreme: Optional[tuple[Ray, ...]] = None
    ambient: int = 0                    # fallback dimension for the zero cone

    @property
    def dim(self) -> int:
        if self.generators:
            return len(self.generators[0])
        if self.lineality:
            return len(self.lineality[0])
        return self.ambient

    @cached_property
    def matrix(self) -> np.ndarray:
        """The generators, then each lineality vector l as l and -l, as the
        rows of one integer object matrix; computed once."""
        rows = list(self.generators)
        for l in self.lineality:
            rows += [l, tuple(-x for x in l)]
        return np.array(rows, dtype=object).reshape(len(rows), self.dim)

    @cached_property
    def _fraction_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(Fraction, r)) for r in self.matrix.tolist())

    def all_generators(self) -> list[Vec]:
        """The rows of `matrix` as `Fraction` lists, for reports; the
        `Fraction`s are made once per cone."""
        return [list(r) for r in self._fraction_rows]

    @cached_property
    def rays(self) -> tuple[Ray, ...]:
        """The extreme rays of a pointed cone: `extreme` when given, else
        the generators not in the cone of the rest, one LP each, filtered
        once."""
        if self.extreme is not None:
            return self.extreme
        if not self.pointed:
            raise ValueError("extreme-ray filtering requires a pointed cone")
        gens = self.generators
        return tuple(g for i, g in enumerate(gens) if len(gens) == 1 or not
                     cone_membership(g, gens[:i] + gens[i + 1:]).feasible)

    @cached_property
    def pointed(self) -> bool:
        """A cone is pointed iff a single functional is strictly positive on
        it, g·x >= 1 for each generator g: one LP, solved once."""
        if self.lineality:
            return False
        rows = [({**{j: a for j, a in enumerate(g) if a}, self.dim: 1}, 1)
                for g in self.generators]
        return not rows or free_feasibility(rows, [], self.dim).feasible

    def dual_contains(self, V: np.ndarray) -> tuple[np.ndarray, dict]:
        """Is each column v of V in the dual of this cone, g·v >= 0 for
        every generator g?  V may hold positive multiples of the columns.
        Also {j: i} for each column v_j found outside, row i of `matrix`
        the first generator h with h·v_j < 0, from the same product."""
        P = self.matrix @ V
        inside = (P >= 0).all(axis=0)
        return inside, {j: int(np.argmax(P[:, j] < 0))
                        for j in np.flatnonzero(~inside).tolist()}


def separators(K: PolyhedralCone, K_dual: PolyhedralCone, V: np.ndarray
               ) -> dict[int, Vec]:
    """{j: h} for each column v_j of V outside K, read off K_dual =
    `dual_cone(K)` by `dual_contains`: h is a generator of K_dual with
    h·v_j < 0, as `Fraction`s.  V may hold positive multiples of the
    columns.

    Each h is re-checked by exact substitution on integers: h·g >= 0 on
    every generator g of K, all from one product, and h·v_j < 0, so h
    certifies that v_j is outside K whatever K_dual is; a failed check
    raises `CertificateError`.
    """
    _, outside = K_dual.dual_contains(V)
    if not outside:
        return {}
    cols = list(outside)
    H = K_dual.matrix[[outside[j] for j in cols]]
    negative_on_K = (H @ K.matrix.T < 0).any(axis=1)
    on_v = (H * V[:, cols].T).sum(axis=1)
    for i, j in enumerate(cols):
        if negative_on_K[i] or on_v[i] >= 0:
            raise CertificateError(
                f"separator {H[i].tolist()} of vector {V[:, j].tolist()} "
                "failed its substitution check: the dual cone is wrong")
    gens = K_dual.all_generators()
    return {j: gens[i] for j, i in outside.items()}


def cone(generators, lineality=()) -> PolyhedralCone:
    """The cone of rational generators plus the span of rational lineality
    vectors, each made primitive; zero rows and repeats are dropped."""
    return PolyhedralCone(_primitive_rows(generators),
                          _primitive_rows(lineality))


def _primitive_rows(rows) -> tuple[Ray, ...]:
    prim = (tuple(_primitive_row([frac(x) for x in r])) for r in rows)
    return tuple(dict.fromkeys(p for p in prim if any(p)))


# ---------------------------------------------------------------------------
# double description

def halfspace_cone_rays(constraints: list[Vec], dim: int
                        ) -> tuple[list[Vec], list[Vec]]:
    """Minimal (lineality, extreme rays) of {x : a.x >= 0 for each a}.

    Incremental double description on integers: each constraint is scaled
    once to its primitive row, and each update is a positive integer
    combination divided by its gcd.  Rays are primitive tuples; a lineality
    vector (*l, den) is integers over a denominator while the sweep runs,
    and primitive when it returns.  Rays carry their tight constraints as a
    bit mask; two rays are adjacent when no third ray, told apart by its
    index, is tight on all their common ones (Fukuda and Prodon, 1996).
    """
    lin = [tuple(int(i == j) for j in range(dim)) + (1,) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], int]] = []

    for j, a in enumerate(map(_primitive_row, constraints)):
        bit = 1 << j
        vals = [_idot(a, l) for l in lin]
        pivot = next((i for i, v in enumerate(vals) if v), None)
        if pivot is not None:
            v0, l0 = vals[pivot], lin[pivot][:-1]
            if v0 < 0:
                v0, l0 = -v0, tuple(-x for x in l0)
            lin = [_primitive([v0 * x - v * y for x, y in zip(l, l0)]
                              + [l[-1] * v0])
                   for i, (l, v) in enumerate(zip(lin, vals)) if i != pivot]
            rays = _dedup([(_primitive([v0 * x - s * y
                                        for x, y in zip(r, l0)]), t | bit)
                           for r, t in rays for s in (_idot(a, r),)]
                          + [(_primitive(l0), bit - 1)])
            continue

        signed = [(r, t if s else t | bit, s)
                  for r, t in rays for s in (_idot(a, r),)]
        pos = [x for x in signed if x[2] > 0]
        zero = [x for x in signed if x[2] == 0]
        neg = [x for x in signed if x[2] < 0]
        if not neg:
            rays = [(r, t) for r, t, _ in signed]
            continue
        tights = [t for _, t, _ in pos + zero + neg]
        new_rays = [(r, t) for r, t, _ in pos + zero]
        for p, (pv, pt, ps) in enumerate(pos):
            for q, (nv, nt, ns) in enumerate(neg, len(pos) + len(zero)):
                common = pt & nt
                if any(rt & common == common and r != p and r != q
                       for r, rt in enumerate(tights)):
                    continue
                w = _primitive([ps * x - ns * y for x, y in zip(nv, pv)])
                if any(w):
                    new_rays.append((w, common | bit))
        rays = _dedup(new_rays)

    return [_primitive(l[:-1]) for l in lin], [r for r, _ in rays]


def _idot(a, b) -> int:
    """a·b on integers, over the shorter of the two."""
    return sum(map(operator.mul, a, b))


def _primitive(w) -> Ray:
    """w divided by the gcd of its entries; zero stays zero."""
    g = math.gcd(*w)
    return tuple(v // g for v in w) if g > 1 else tuple(w)


def _dedup(rays):
    seen: dict[tuple, int] = {}
    for v, t in rays:
        seen[v] = seen.get(v, 0) | t
    return list(seen.items())


def _form_images(K: PolyhedralCone, form: Mat) -> tuple[int, np.ndarray]:
    """(s, C): row i of C is s·(form g_i) for the rows g_i of `K.matrix`,
    integers over the common denominator s of the form."""
    s, F = _integer_block(form)
    return s, K.matrix @ F.T


def dual_cone(K: PolyhedralCone, form: Mat | None = None) -> PolyhedralCone:
    """{v : <v, g> >= 0 for all g in K}, pairing via `form` if given; a
    positive multiple of each constraint leaves the rays as they are, and
    the double description returns them primitive."""
    constraints = K.matrix if form is None else _form_images(K, form)[1]
    lin, rays = halfspace_cone_rays(constraints.tolist(), K.dim)
    rays = tuple(rays)
    return PolyhedralCone(rays, tuple(lin), extreme=rays, ambient=K.dim)


# ---------------------------------------------------------------------------
# self-duality

@dataclass
class SelfDualityReport:
    self_dual: bool
    dual: PolyhedralCone
    pairwise_min: Fraction
    pairwise_argmin: tuple
    failures: list[dict] = field(default_factory=list)


def pairwise_form_positivity(K: PolyhedralCone, form: Mat
                             ) -> tuple[Optional[Fraction], tuple]:
    """The least g_k·(form g_i) over pairs of `K.all_generators()` and its
    first (i, k) in row-major order, from one integer Gram; (None, ())
    when K has no generators."""
    s, C = _form_images(K, form)
    P = C @ K.matrix.T                           # s · g_k·(form g_i)
    if not P.size:
        return None, ()
    i, k = divmod(int(np.argmin(P)), P.shape[1])      # the first minimum
    return Fraction(P[i, k], s), (i, k)


def mapped_dual(K_dual: PolyhedralCone, form: Mat
                ) -> Optional[PolyhedralCone]:
    """`dual_cone(K, form)` read off K_dual = `dual_cone(K)`, or None when
    the form is singular.  (form v)·g >= 0 exactly when formᵀv is in the
    dual of K, so the form dual is form⁻ᵀ K_dual: its rays and lineality are
    those of K_dual mapped in their order, on integers (a positive multiple
    of form⁻¹ times `matrix`), and made primitive.  The extreme rays are
    the mapped rays when K_dual's are its rays, as `dual_cone` leaves them,
    and left to `PolyhedralCone.rays` otherwise."""
    d = K_dual.dim
    s, F = _integer_block(form)
    inv = _Kind("exact").inverse((s, F.reshape(d, d)))
    if inv is None:
        return None
    Fi = inv[1]
    mapped = [_primitive(r) for r in (K_dual.matrix @ Fi).tolist()]
    rays = tuple(mapped[:len(K_dual.generators)])
    return PolyhedralCone(rays, tuple(mapped[len(rays)::2]),
                          extreme=(rays if K_dual.extreme == K_dual.generators
                                   else None),
                          ambient=d)


def is_self_dual(K: PolyhedralCone, form: Mat,
                 K_dual: Optional[PolyhedralCone] = None) -> SelfDualityReport:
    """K == {v : B(v, K) >= 0}?  Exact, with certificates both ways.

    One double description, K_dual = `dual_cone(K)` (computed here unless
    given): the B-dual D is K_dual mapped by B⁻ᵀ (`mapped_dual`; a singular
    form runs `dual_cone(K, form)`), and its rays are tested against K_dual,
    each one found outside with its re-checked separator (`separators`)."""
    pmin, parg = pairwise_form_positivity(K, form)
    failures = []
    if parg and pmin < 0:                        # no pair: K is the zero cone
        failures.append({"kind": "cone-not-in-dual",
                         "pair": parg, "value": pmin})
    K_dual = K_dual if K_dual is not None else dual_cone(K)
    D = mapped_dual(K_dual, form)
    if D is None:
        D = dual_cone(K, form)
    seps = separators(K, K_dual, D.matrix.T)
    rays = D.all_generators() if seps else []
    for j, h in seps.items():
        failures.append({"kind": "dual-ray-outside-cone", "ray": rays[j],
                         "separating": h})
    return SelfDualityReport(self_dual=not failures, dual=D,
                             pairwise_min=pmin, pairwise_argmin=parg,
                             failures=failures)


# ---------------------------------------------------------------------------
# weak self-duality: search for an invertible positive bijection onto the dual

@dataclass
class WeakSelfDualityReport:
    status: str                       # "yes" | "no" | "unknown"
    map: Optional[Mat] = None
    scalars: Optional[list[Fraction]] = None
    bijection: Optional[list[int]] = None
    dual: Optional[PolyhedralCone] = None
    notes: list[str] = field(default_factory=list)


def is_weakly_self_dual(K: PolyhedralCone, D: PolyhedralCone,
                        cap: int = 12) -> WeakSelfDualityReport:
    """Search for invertible M with M(extreme rays of K) = extreme rays of
    D = `dual_cone(K, form)`, ray by ray with positive scalars.

    D is passed in so a dual already computed (by `is_self_dual`, say) is
    reused.  Such an M restricts to an order isomorphism of K onto its dual,
    which is exactly weak self-duality; conversely any linear order
    isomorphism permutes extreme rays, so the search is exhaustive for
    pointed cones.
    """
    notes: list[str] = []
    if D.lineality or not K.pointed:
        return WeakSelfDualityReport("unknown", dual=D, notes=[
            "search implemented for pointed cones only"])
    R = K.rays
    S = D.rays
    if len(R) != len(S):
        return WeakSelfDualityReport("no", dual=D, notes=[
            f"extreme ray counts differ: {len(R)} vs {len(S)}"])
    if rank([list(r) for r in R]) != rank([list(s) for s in S]):
        return WeakSelfDualityReport("no", dual=D, notes=["span dimensions differ"])
    m = len(R)
    if m > cap:
        return WeakSelfDualityReport("unknown", dual=D, notes=[
            f"{m} extreme rays exceeds the search cap {cap}"])
    d = K.dim

    undecided = False
    for perm in itertools.permutations(range(m)):
        found, Mmat, lams, note = _try_bijection(R, S, perm, d)
        if found:
            return WeakSelfDualityReport("yes", map=Mmat, scalars=lams,
                                         bijection=list(perm), dual=D,
                                         notes=notes)
        if note:
            undecided = True
            notes.append(note)
    if undecided:
        return WeakSelfDualityReport("unknown", dual=D, notes=notes + [
            "some ray bijections admitted only singular solutions"])
    return WeakSelfDualityReport("no", dual=D, notes=notes)


def _try_bijection(R, S, perm, d):
    """Solve M r_i = lam_i s_{perm(i)}, lam_i > 0, det M != 0 — or rule it out.
    The rows of block i, M r_i - lam_i s_perm(i) = 0, are sparse integer
    rows over the common denominator of r_i and s_perm(i), one elimination
    in all.  The tests run on Python ints: the null basis and each
    combination are scaled to integers over their common denominators,
    divided out once."""
    m = len(R)
    ncols = d * d + m
    rows = []
    for i in range(m):
        ints = integer_row([*R[i], *S[perm[i]]])[1]
        for c, s in enumerate(ints[d:]):
            row = {c * d + k: x for k, x in enumerate(ints[:d]) if x}
            if s:
                row[d * d + i] = -s
            rows.append(row)
    s_n, N = _integer_readout(_eliminate(rows, ncols), ncols)
    N = N[:, 1:].T                              # s_n · null basis
    if not len(N):
        return False, None, None, None
    # scaling freedom: any all-positive lambda solution rescales to lambda >= 1
    h = len(N)
    ineqs = [({**{k: a for k, a in enumerate(col) if a}, h: s_n}, s_n)
             for col in N[:, d * d:].T.tolist()]
    res = free_feasibility(ineqs, [], h)
    if not res.feasible:
        return False, None, None, None
    combos = [_integer_block(res.point)]        # (s_c, s_c · combo)
    for b in range(h):
        for eps in (Fraction(1, 7), Fraction(-1, 7)):
            shifted = list(res.point)
            shifted[b] += eps
            s_c, c = _integer_block(shifted)
            if (c @ N[:, d * d:] > 0).all():
                combos.append((s_c, c))
    for s_c, c in combos:
        vec = c @ N                             # s_c·s_n · vec
        if rank(vec[:d * d].reshape(d, d).tolist()) == d:
            vec = [Fraction(v, s_c * s_n) for v in vec.tolist()]
            M = [vec[r * d:r * d + d] for r in range(d)]
            return True, M, vec[d * d:], None
    return False, None, None, f"bijection {perm}: solutions exist but all sampled maps singular"
