"""Bipartite states, conjugates, and the derived inner product.

A bipartite state is a dense joint probability table over the outcomes of
two models, constrained so that every product test normalizes and every
conditional lands in the cone over the partner's state space.  A conjugate
pairs a model with an isomorphic copy through an outcome bijection gamma and
an invariant bipartite state whose diagonal eta(x, gamma(x)) is uniformly
1/rank; the table then induces a bilinear form on the effect space which, on
irreducible models, reproduces the unique orthogonalizing invariant form.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .effectspace import OrderUnitSpace, build_effect_space, min_eigenvalues
from .forms import BilinearForm, certify_flags, check_unitarity
from .cones import separators
from .linalg import Row, _Kind, _lowest, integer_row
from .lp import (LPResult, _merge_rows, check_certificate,
                 convex_membership, solve_feasibility)
from .models import (Model, PermutationGroup, PolytopeBackend, QuantumBackend,
                     orbit, vertex_permutation)


class CompositeError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _is_exact(m: Model) -> bool:
    return isinstance(m.states, PolytopeBackend)


@dataclass(eq=False)
class BipartiteState:
    """Dense joint table over outcomes of A and B."""

    A: Model
    B: Model
    table: dict[tuple[str, str], object]

    @property
    def kind(self) -> str:
        return "exact" if _is_exact(self.A) and _is_exact(self.B) else "float"

    def value(self, x: str, y: str):
        return self.table[(x, y)]

    def row(self, x: str) -> list:
        return [self.table[(x, y)] for y in self.B.outcomes]

    def column(self, y: str) -> list:
        return [self.table[(x, y)] for x in self.A.outcomes]


@dataclass
class BipartiteReport:
    ok: bool
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def product_state(A: Model, alpha, B: Model, beta) -> BipartiteState:
    """Outer-product table omega(x,y) = alpha(x) * beta(y)."""
    alpha, beta = list(alpha), list(beta)
    if len(alpha) != len(A.outcomes) or len(beta) != len(B.outcomes):
        raise CompositeError("state vectors must be indexed by model outcomes")
    table = {(x, y): alpha[i] * beta[j]
             for i, x in enumerate(A.outcomes)
             for j, y in enumerate(B.outcomes)}
    return BipartiteState(A, B, table)


# ---------------------------------------------------------------------------
# conditionals, marginals, validation

@dataclass
class Conditional:
    vector: list
    mass: object
    zero_mass: bool
    normalized: Optional[list]


def conditional(w: BipartiteState, x: str, side: str = "A") -> Conditional:
    """Unnormalized conditional omega(x, .) (side="A") or omega(., y)."""
    if side == "A":
        if x not in w.A.outcomes:
            raise CompositeError(f"unknown outcome {x!r} of {w.A.name}")
        vec, other = w.row(x), w.B
    else:
        if x not in w.B.outcomes:
            raise CompositeError(f"unknown outcome {x!r} of {w.B.name}")
        vec, other = w.column(x), w.A
    mass = sum(vec[other.testspace.index(y)] for y in other.tests[0])
    if _Kind(w.kind, 1e-12).is_zero(mass):
        return Conditional(vec, mass, True, None)
    return Conditional(vec, mass, False, [v / mass for v in vec])


def marginal(w: BipartiteState, side: str = "A") -> list:
    """Marginal state vector, summing the partner's first test."""
    if side == "A":
        return [conditional(w, x, "A").mass for x in w.A.outcomes]
    return [conditional(w, y, "B").mass for y in w.B.outcomes]


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(A: np.ndarray, b: np.ndarray) -> tuple:
    """The solutions and ranks of `np.linalg.lstsq(A, b, rcond=None)` for
    stacked (or broadcast) A and vectors b, from one call of the gufunc that
    lstsq calls, with its rcond, signature and errstate."""
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, _, rank, _ = _umath_linalg.lstsq(
            A, b[..., None], np.finfo(float).eps * max(A.shape[-2:]),
            signature="ddd->ddid")
    return x[..., 0], rank


def _conditionals_in_cone(other: Model, vecs: list, tol: float) -> list:
    """(ok, why) for each unnormalized conditional: is it in the cone over
    the partner's states?  On a quantum partner each step is one stacked
    call that gives every vector its own call's floats (the operator is
    fitted by the gufunc behind `np.linalg.lstsq`); when one raises, the
    vectors are replayed one at a time, so the first error is raised."""
    if isinstance(other.states, PolytopeBackend):
        return [_conditional_in_polytope(other, vec) for vec in vecs]
    qb: QuantumBackend = other.states
    rows = qb.outcome_coords(other.outcomes)
    V = np.asarray(vecs, float)
    try:
        sols, ranks = _lstsq(rows, V)
        resid = np.abs((rows @ sols[..., None])[..., 0] - V).max(axis=1)
        tested = ~(resid > tol) & (ranks >= qb.basis.space_dim)
        lows = iter(min_eigenvalues(qb.basis, sols[tested]).tolist())
    except np.linalg.LinAlgError:
        if len(V) == 1:
            raise
        return [r for v in vecs for r in _conditionals_in_cone(other, [v], tol)]
    out = []
    for r, test in zip(resid.tolist(), tested.tolist()):
        lo = next(lows) if test else 0.0
        why = (f"no operator reproduces the conditional (residual {r:.2e})"
               if r > tol else
               "sample not informationally complete; PSD untested"
               if not test else
               f"conditional operator not PSD (min eig {lo:.2e})"
               if lo < -tol else None)
        out.append((not r > tol and not lo < -tol, why))
    return out


def _conditional_in_polytope(other: Model, vec):
    """Is an unnormalized conditional in the cone over a polytope?"""
    mass = sum(vec[other.testspace.index(y)] for y in other.tests[0])
    if mass < 0:
        return False, "negative mass"
    if mass == 0:
        if any(v != 0 for v in vec):
            return False, "zero mass but nonzero entries"
        return True, None
    res = convex_membership([v / mass for v in vec],
                            [list(p) for p in other.states.vertices])
    return res.feasible, None if res.feasible else "outside state polytope"


def validate_bipartite(w: BipartiteState, tol: float = 1e-9) -> BipartiteReport:
    """Normalization, conditionals in the partner's cone and nonnegativity
    of a table over two models of one kind; a polytope model paired with a
    quantum one raises `CompositeError`, as the polytope's conditionals go
    to an exact LP and the quantum entries are floats."""
    if _is_exact(w.A) != _is_exact(w.B):
        poly, quant = (w.A, w.B) if _is_exact(w.A) else (w.B, w.A)
        raise CompositeError(
            f"cannot validate a table over the polytope model {poly.name!r} "
            f"and the quantum model {quant.name!r}: both factors must be "
            "polytope models or both quantum")
    problems, notes = [], []
    want = {(x, y) for x in w.A.outcomes for y in w.B.outcomes}
    if set(w.table) != want:
        return BipartiteReport(False, ["table keys do not cover the outcome "
                                       "product exactly"])
    K = _Kind(w.kind, tol)
    for E in w.A.tests:
        for F in w.B.tests:
            s = sum(w.table[(x, y)] for x in E for y in F)
            if not K.is_zero(s - 1):
                problems.append(f"product test {E}x{F} sums to {s}, not 1")
    for label, outs, other, vec in (
            ("", w.A.outcomes, w.B, w.row),
            ("second-factor ", w.B.outcomes, w.A, w.column)):
        for x, (ok, why) in zip(outs, _conditionals_in_cone(
                other, [vec(x) for x in outs], tol)):
            if not ok:
                problems.append(f"conditional on {label}{x!r}: {why}")
            elif why:
                notes.append(f"conditional on {label}{x!r}: {why}")
    neg = [(k, v) for k, v in w.table.items() if v < -K.tol]
    if neg:
        problems.append(f"negative entries: {neg[:3]}")
    return BipartiteReport(not problems, problems, notes)


# ---------------------------------------------------------------------------
# the induced linear map E(A) -> E(B)*

@dataclass(eq=False)
class OmegaHat:
    """Matrix W with (W a) . b = omega-value, for effect coords a, b, held
    as the pair (s, s·W) of `_Kind.scaled`.

    Functionals on the partner's effect space are stored as coefficient
    vectors against its coordinates, so pairing is a plain dot product.
    """

    scaled: tuple
    source: OrderUnitSpace
    target: OrderUnitSpace
    kind: str

    @property
    def matrix(self):
        """W itself: nested `Fraction` lists when exact."""
        return _Kind(self.kind).unscaled(self.scaled)

    def rank(self) -> int:
        return _Kind(self.kind).rank(self.scaled[1])


def omega_hat(w: BipartiteState, E_A: Optional[OrderUnitSpace] = None,
              E_B: Optional[OrderUnitSpace] = None,
              tol: float = 1e-9) -> OmegaHat:
    """The linear map sending the effect of x to the functional omega(x, .).

    Three products on the outcome frames (`OrderUnitSpace.outcome_frame`),
    on integers over common denominators when exact: the dual vectors of
    the table rows, their residuals against every partner outcome, and W
    from the duals of the source frame.  Each stage re-verifies every
    outcome, and a dependency of outcome vectors that the table fails to
    respect raises with the first violating (x, y), or x, as witness.
    Values are compared exactly, or within `tol`.
    """
    E_A = E_A or build_effect_space(w.A)
    E_B = E_B or build_effect_space(w.B)
    if E_A.kind != E_B.kind:
        raise CompositeError("mixed exact/float bipartite states unsupported")
    K = _Kind(E_A.kind, tol)
    fA, fB = E_A.outcome_frame, E_B.outcome_frame
    (s_ia, Ia), (s_va, VA) = fA.inverse, fA.vectors
    (s_ib, Ib), (s_vb, VB) = fB.inverse, fB.vectors

    s_t, T = K.scaled([w.row(x) for x in w.A.outcomes])
    D = T[:, fB.at] @ Ib                        # s_t·s_ib · duals, one per row
    R = D @ VB.T - T * (s_ib * s_vb)            # s·(duals paired - table)
    s = s_t * s_ib * s_vb
    bad = np.argwhere(np.abs(R) > K.tol * s)
    if len(bad):
        i, j = bad[0]
        x, y = w.A.outcomes[i], w.B.outcomes[j]
        raise CompositeError(
            f"table violates an effect dependency: row {x!r} is "
            f"inconsistent at outcome {y!r} (error {abs(R[i, j]) / s:.2e})",
            witness=(x, y))
    W = D[fA.at].T @ Ia                         # s_w · W
    s_w = s_t * s_ib * s_ia
    err = np.abs(VA @ W.T - D * (s_ia * s_va)).max(axis=1)
    s = s_w * s_va
    bad = np.flatnonzero(err > K.tol * s)
    if len(bad):
        x = w.A.outcomes[bad[0]]
        raise CompositeError(
            f"table violates an effect dependency: outcome {x!r} is not "
            f"consistent with the independent family (error "
            f"{err[bad[0]] / s:.2e})", witness=x)
    return OmegaHat((s_w, W), E_A, E_B, E_A.kind)


# ---------------------------------------------------------------------------
# isomorphism states

@dataclass
class IsomorphismStateReport:
    is_iso: bool
    invertible: bool
    forward_positive: Optional[bool]
    inverse_positive: Optional[bool]
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def is_isomorphism_state(w: BipartiteState,
                         E_A: Optional[OrderUnitSpace] = None,
                         E_B: Optional[OrderUnitSpace] = None,
                         tol: float = 1e-9) -> IsomorphismStateReport:
    """Does the induced map carry the effect cone onto the dual cone?

    The map must be invertible (of full rank, for either kind).  Exact
    models, on integers over common denominators:

    * forward: v·Wg >= 0 for every effect-cone generator g and partner
      generator v, all pairings from one product, failures in (g, v) order;
    * inverse: W⁻¹ sends every generator d of the partner's dual effect cone
      into the effect cone, the dual of `E_A.dual_effect_cone`: one product
      with its generators decides every d, and a d sent outside gets the
      first of them negative on W⁻¹d as its `separator`, re-checked by
      substitution (`cones.separators`).

    Quantum samples are tested against the analytic positive-semidefinite
    cone, which the sampled cone generates.
    """
    E_A = E_A or build_effect_space(w.A)
    E_B = E_B or build_effect_space(w.B)
    oh = omega_hat(w, E_A, E_B, tol=tol)
    K = _Kind(oh.kind, tol)
    s_w, W = oh.scaled
    if W.shape[0] != W.shape[1] or K.rank(W) < len(W):
        return IsomorphismStateReport(False, False, None, None,
                                      ["matrix is singular"])
    W_inv = K.inverse((s_w, W))[1]              # a positive multiple of W⁻¹
    failures, notes = [], []

    if K.exact:
        K_A, K_B, D_B = (E_A.effect_cone, E_B.effect_cone,
                         E_B.dual_effect_cone)
        P = K_A.matrix @ W.T @ K_B.matrix.T     # s_w · (v · W g)
        negative = np.argwhere(P < 0).tolist()
        if negative:
            gens_A, gens_B = K_A.all_generators(), K_B.all_generators()
            failures += [{"stage": "forward", "generator": gens_A[i],
                          "against": gens_B[j],
                          "value": Fraction(P[i, j], s_w)}
                         for i, j in negative]
        seps = separators(K_A, E_A.dual_effect_cone, W_inv @ D_B.matrix.T)
        duals = D_B.all_generators() if seps else []
        failures += [{"stage": "inverse", "generator": duals[j],
                      "separator": h} for j, h in seps.items()]
    else:
        notes.append("quantum membership tested against the analytic "
                     "positive-semidefinite cone generated by the sample")
        for stage, M, E_x, E_y, outs in (
                ("forward", W, E_A, E_B, w.A.outcomes),
                ("inverse", W_inv, E_B, E_A, w.B.outcomes)):
            # one matrix-vector product per outcome, stacked, as M @ v
            V = np.array([E_x.outcome_vectors[x] for x in outs])
            lows = min_eigenvalues(E_y.basis, (M @ V[..., None])[..., 0])
            failures += [{"stage": stage, "outcome": x, "min_eig": lo}
                         for x, lo in zip(outs, lows.tolist()) if lo < -tol]
    stages = {f["stage"] for f in failures}
    fwd, inv = "forward" not in stages, "inverse" not in stages
    return IsomorphismStateReport(fwd and inv, True, fwd, inv, failures, notes)


# ---------------------------------------------------------------------------
# conjugates

def _check_gamma(m: Model, gamma: dict[str, str]) -> None:
    if set(gamma) != set(m.outcomes) or set(gamma.values()) != set(m.outcomes):
        raise CompositeError("gamma must be a bijection on the outcomes")
    tests = {frozenset(t) for t in m.tests}
    for t in m.tests:
        if frozenset(gamma[x] for x in t) not in tests:
            raise CompositeError(f"gamma does not map test {t} to a test")


def find_conjugate_state(m: Model, gamma: Optional[dict[str, str]] = None,
                         tol: float = 1e-9) -> Optional[BipartiteState]:
    """Search for an invariant conjugate table: uniform diagonal 1/rank.

    Quantum samples construct the maximally entangled table analytically
    and verify it.  Polytope models solve an exact rational feasibility LP.
    Its unknowns, all nonnegative, are the table entries t(x, y) and the
    conic coefficients mu[x][v] and nu[y][v] that write the row conditional
    of x and the column conditional of y over the vertices v of the state
    polytope.  Its rows normalize every product test, tie each conditional
    to its coefficients, and set the diagonal t(x, gamma(x)) to 1/rank.

    A generator g acts on outcomes as g on the first factor and as
    h = gamma g gamma^-1 on the second, and on vertices through
    `act_on_state`; so it permutes the unknowns and maps the set of rows
    onto itself.  An invariant solution is constant on each orbit of the
    unknowns under the generators (`models.orbit`, no group is enumerated),
    so the LP has one column per orbit, and rows that become equal are
    merged.  Averaging any solution over the group gives an invariant one,
    so the reduced LP is feasible exactly when some table, invariant or
    not, exists (Bödi, Herr & Joswig, Math. Program. 137, 2013).  A group
    that is not a `PermutationGroup` has no generators to act with, and
    every unknown is its own orbit: the LP is the full one.

    Both answers are certified against the full, unreduced system by exact
    substitution (`lp.check_certificate`):

    * feasible: every unknown takes its orbit's value and the expanded
      point is checked row by row; it is invariant by construction;
    * infeasible: each reduced Farkas multiplier is spread evenly over the
      full rows that reduce to its row.  That set of rows is G-invariant,
      so the lifted vector y is, and yᵀA takes one value on the columns of
      an orbit; those values add up to the reduced column, which is <= 0,
      and yᵀb equals the reduced yᵀb > 0.  So ``None`` is an answer, not a
      failure: no conjugate table exists at all.

    A returned table passes every check of `validate_bipartite`, so callers
    need not run it again.  On polytope models the checked point covers
    them row by row: the table keys are the outcome product by
    construction; the normalization rows make each product test sum to 1;
    the tie rows write the row conditional of x as sum_v mu[x][v]·v and the
    column conditional of y as sum_v nu[y][v]·v with nonnegative
    coefficients, so each is in the cone over the states (its mass is the
    sum of its coefficients, and it is 0 only when they all are); every
    table entry is a nonnegative unknown.  On quantum samples
    `_entangled_eta` runs `validate_bipartite` itself.
    """
    gamma = gamma or {x: x for x in m.outcomes}
    _check_gamma(m, gamma)
    n = len(m.tests[0])
    if isinstance(m.states, QuantumBackend):
        return _entangled_eta(m, gamma, tol)

    outs = list(m.outcomes)
    nO = len(outs)
    verts = m.states.vertices
    nV = len(verts)
    pos = {x: i for i, x in enumerate(outs)}
    mu0 = nO * nO                  # mu[x][v]: row-conditional coefficients
    nu0 = mu0 + nO * nV            # nu[y][v]: column-conditional coefficients
    nvar = nu0 + nO * nV

    # rows of [A | b] as Rows, the right-hand side in column nvar; a tie row
    # takes column j of the vertices over its common denominator
    cols = [integer_row(p[j] for p in verts) for j in range(nO)]
    rows: list[Row] = []
    for E in m.tests:
        for F in m.tests:
            rows.append(({**{pos[x] * nO + pos[y]: 1 for x in E for y in F},
                          nvar: 1}, 1))
    for i in range(nO):
        for j in range(nO):
            for k, t0 in ((j, mu0 + i * nV), (i, nu0 + j * nV)):
                s, ints = cols[k]
                rows.append(({i * nO + j: s, **{t0 + v: -a for v, a
                                                in enumerate(ints) if a}}, s))
    for x in outs:
        rows.append(({pos[x] * nO + pos[gamma[x]]: n, nvar: 1}, n))

    orbit_of = list(range(nvar))
    if isinstance(m.group, PermutationGroup):
        orbit_of = _unknown_orbits(m, gamma, pos, mu0, nu0, nvar)
    ncols = max(orbit_of) + 1

    merged, row_class = _merge_rows(rows, orbit_of + [ncols])
    res = solve_feasibility(merged, ncols)

    if not res.feasible:
        size = Counter(row_class)
        farkas = [res.farkas[k] / size[k] for k in row_class]
        check_certificate(rows, nvar, LPResult(False, farkas=farkas))
        return None
    point = [res.point[o] for o in orbit_of]
    check_certificate(rows, nvar, LPResult(True, point=point))
    table = {(x, y): point[pos[x] * nO + pos[y]] for x in outs for y in outs}
    return BipartiteState(m, m, table)


def _unknown_orbits(m: Model, gamma: dict[str, str], pos: dict[str, int],
                    mu0: int, nu0: int, nvar: int) -> list[int]:
    """Orbit index of each unknown of the conjugate LP under the generators,
    numbered in order of first appearance."""
    outs = m.outcomes
    nO, nV = len(outs), len(m.states.vertices)
    gamma_inv = {y: x for x, y in gamma.items()}
    actions = []
    for g, sg in zip(m.group.generators, m.vertex_perms):
        h = tuple(pos[gamma[outs[g[pos[gamma_inv[y]]]]]] for y in outs)
        sh = sg if h == g else vertex_permutation(m, h)
        if sg is None or sh is None:
            raise CompositeError(f"generator {g} or its conjugate under gamma "
                                 "does not permute the extreme states")
        actions.append((g, h, sg, sh))

    def act(a, j):
        g, h, sg, sh = a
        if j < mu0:
            x, y = divmod(j, nO)
            return g[x] * nO + h[y]
        if j < nu0:
            x, v = divmod(j - mu0, nV)
            return mu0 + g[x] * nV + sh[v]
        y, v = divmod(j - nu0, nV)
        return nu0 + h[y] * nV + sg[v]

    orbit_of = [-1] * nvar
    count = 0
    for j in range(nvar):
        if orbit_of[j] < 0:
            for k in orbit(j, act, actions):
                orbit_of[k] = count
            count += 1
    return orbit_of


def _entangled_eta(m: Model, gamma: dict[str, str],
                   tol: float) -> BipartiteState:
    """Analytic conjugate table from the maximally entangled vector: the
    entry at (x, z) is tr(x conj(z))/d, the joint value tr(x y)/d on
    (x, gamma(y)).  It is verified (diagonal, normalization, a real
    pairing) rather than searched for."""
    qb: QuantumBackend = m.states
    d, outs = qb.dim, list(m.outcomes)
    X = np.array([qb.outcome_matrices[x] for x in outs])
    G = np.array([qb.outcome_matrices[gamma[x]] for x in outs])
    bad = np.flatnonzero(np.abs(G - X.conj()).max(axis=(1, 2)) > tol)
    if len(bad):
        raise CompositeError(
            f"gamma({outs[bad[0]]!r}) is not the conjugated effect; the "
            "entangled construction needs the conjugation bijection")
    # one matrix product per pair, stacked, each traced as np.trace does
    vals = np.trace(X[:, None] @ X.conj()[None], axis1=2, axis2=3) / d
    bad = np.argwhere(np.abs(vals.imag) > 1e-12)
    if len(bad):
        x, z = (outs[i] for i in bad[0])
        raise CompositeError(f"entangled table not real at ({x},{z})")
    table = dict(zip(((x, z) for x in outs for z in outs),
                     vals.real.ravel().tolist()))
    w = BipartiteState(m, m, table)
    for x in m.outcomes:
        if abs(w.table[(x, gamma[x])] - 1.0 / d) > tol:
            raise CompositeError(f"diagonal at {x!r} is not 1/{d}")
    rep = validate_bipartite(w, tol)
    if not rep.ok:
        raise CompositeError(f"entangled table invalid: {rep.problems[:2]}")
    return w


# ---------------------------------------------------------------------------
# the derived form

def spin_form_from_conjugate(eta: BipartiteState, gamma: dict[str, str],
                             E: Optional[OrderUnitSpace] = None,
                             tol: float = 1e-9) -> BilinearForm:
    """Bilinear form B(x,y) = eta(x, gamma(y)), extended to coordinates.

    The table fixes B on outcome pairs; the extension solves against the
    outcome frame (`OrderUnitSpace.outcome_frame`), on integers over common
    denominators when exact, and then re-verifies every pair at once with
    the Gram matrix V B V^T of the outcome vectors, raising with the first
    violating pair if the table does not respect an effect-vector
    dependency; an exact form is made from its integer pair.
    `certify_flags` sets four flags on the result and `invariant` is the
    unitarity of the symmetries under it.
    """
    m = eta.A
    E = E or build_effect_space(m)
    K = _Kind(E.kind, tol)
    outs = list(m.outcomes)
    frame = E.outcome_frame
    (s_i, Ci), (s_v, V) = frame.inverse, frame.vectors
    s_t, T = K.scaled([[eta.table[(x, gamma[y])] for y in outs]
                       for x in outs])
    S = Ci.T @ T[np.ix_(frame.at, frame.at)] @ Ci   # s_t·s_i² · S
    s = 2 * s_t * s_i * s_i                         # S + Sᵀ = s·B
    B = (BilinearForm.from_scaled(_lowest(s, S + S.T)) if K.exact
         else BilinearForm(K.unscaled((s, S + S.T)), E.kind))
    # s_v²·s · (V B Vᵀ - T); float scales are 1.0 and 2.0, exact in binary
    err = np.abs(V @ (S + S.T) @ V.T - T * (2 * s_i * s_i * s_v * s_v))
    s *= s_v * s_v
    bad = np.argwhere(~(err <= K.tol * s))
    if len(bad):
        i, j = bad[0]
        x, y = outs[i], outs[j]
        if not K.is_zero(S - S.T):
            raise CompositeError(
                "table is asymmetric and does not extend to a symmetric "
                f"form; pair ({x!r},{y!r}) fails after averaging",
                witness=(x, y))
        raise CompositeError(
            "table violates an effect dependency at pair "
            f"({x!r},{y!r}) (error {err[i, j] / s:.2e})", witness=(x, y))
    certify_flags(B, E, tol)
    B.invariant = _invariance_flag(E, B, tol)
    return B


def _invariance_flag(E: OrderUnitSpace, B: BilinearForm,
                     tol: float = 1e-9) -> Optional[bool]:
    """Unitarity of the symmetries under B; None when B is singular, as the
    form of the invariant table the LP finds on squit:klein is."""
    try:
        return check_unitarity(E.actions, B, tol)
    except ValueError:
        return None

