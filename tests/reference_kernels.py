"""Reference oracles: the `Fraction` kernels that `kvwb.linalg.rref` and
`kvwb.lp.solve_feasibility` replaced with integer elimination, and the dense
`solve_with_nullspace` that the sparse one of `kvwb.linalg` replaced (on this
module's `rref`, with the dense readouts `_null_basis` and
`_augmented_solution` and the `Fraction` `det` that `kvwb.linalg` dropped
when one sparse elimination took over every exact routine), and the
loop-built constraint rows and full-SVD nullspace that
`kvwb.jordan._linear_rows` and `kvwb.jordan._solve_float` replaced, and that
vectorized `_linear_rows` itself, over the full product tensor with
B-associativity rows, which the cubic-form rows of
`kvwb.jordan._cubic_rows` replaced, and the one-LP-per-probe membership of
the exact squares gate (`squares_membership`), and the
one-element spectral functions and symmetric-cone check that the stacked
kernels of `kvwb.spectral` replaced, and those stacked minimal-polynomial
kernels themselves (`_degrees_and_powers`, `_minimal_polynomials`,
`_roots_many`, `_merged`, `_eigenvalues_many`, `_idempotents`), which the
Lanczos frames of `kvwb.spectral._frames` replaced, and the `Fraction`
Jordan-identity residual
(`_identity_residual`) that the integer gate 1 of
`kvwb.jordan.verify_symmetric_cone` replaced (it still samples float
tensors), and the sampled Jordan identity, squares gate
(`sampled_squares_gate`) and `Fraction` loops over basis triples
(`linearized_identity`, `loop_axioms`) that the proof on exact tensors
(`kvwb.jordan.prove_axioms`) and the Jordan-frame gate
(`kvwb.jordan.jordan_frame`) replaced, and the four SPIN-flag setters
that `kvwb.forms.certify_flags` replaced, and the loops over packed symmetric
unknowns (`_unpack`, `_invariance_rows`, `_pairing_row`) that the broadcast
`kvwb.forms._packed_rows` replaced, and the conjugate search over the full
LP with invariance rows that `kvwb.composites.find_conjugate_state` replaced
with one unknown per generator orbit (verbatim, but for calling the integer
`kvwb.lp.solve_feasibility` by its module name: this module's own
`solve_feasibility` is the slower `Fraction` oracle, which returns the same),
and the `Fraction` `omega_hat` (one solve per table row, with its
`_basis_outcomes`), the per-ray-LP `is_isomorphism_state` and the per-ray-LP
`is_self_dual` that the integer products on the outcome frames and the
cached dual cones of `kvwb.composites` and `kvwb.cones` replaced (verbatim,
but for `_solve`, the `_Kind.solve` they called, and for the pair that
`omega_hat` hands `OmegaHat`), and the catalog of
`kvwb.jordan` built by loops over (real, imaginary) `Fraction` pairs, with
the `Fraction` loops of `JordanAlgebra.product` (`loop_product`) and
`trace_form_gram` (`loop_trace_form_gram`), that integer basis arrays and
one `_Kind` body each replaced (verbatim, but for those two names), and
the `Fraction` bodies of the invariant-form checks that integer products
over common denominators replaced: `is_positive_definite` (symmetric
Gaussian elimination), `pairwise_form_positivity` (a loop over generator
pairs), `fixed_covector_dim`, `certify_flags` and `check_unitarity`
(verbatim, but for the names, for `pairwise_form_positivity` taking the
generator list and for `fixed_covector_dim` building the identity that the
removed `_Kind.eye` built), and the per-outcome and per-vector loops of the
float path that stacked numpy calls replaced: the pair loop of
`kvwb.effectspace._build_float` (its collapse list), the one-vector
`_conditional_in_cone` under `validate_bipartite`, the pair loop of
`_entangled_eta`, the per-outcome PSD tests of `is_isomorphism_state`
(`psd_failures`) and the one-operator `HermitianBasis.from_coords`
(`from_coords`, which this module's quantum oracles call), and the
`Fraction` combinations of `kvwb.cones._try_bijection` (verbatim, but for
calling this module's `from_coords`, `_conditional_in_cone` and
`validate_bipartite`), and the sampled witness report of the homogeneity
stage (`homogeneity_report` with `HomogeneityReport`, `_homogeneity_inputs`
with its `_barycenter`) that the stage read off the recovered Jordan product
replaced (verbatim, so its `is_isomorphism_state` is this module's per-ray-LP
oracle), and the float form, unit and trace-form gates of
`kvwb.jordan.recover_jordan_product` (`float_recovery_gates`) that exact
problems now decide on rationals, and the membership LP's separator
(`separating_functional`) and the `Fraction` certificate check
(`check_certificate`) that the first violated generator of the dual and the
integer `kvwb.lp.check_certificate` replaced, and the cubic-form rows
accumulated by `np.add.at` (`cubic_rows_add_at`) that `np.bincount`
replaced, and the positive-map and order-isomorphism checks of
`kvwb.cones` (`is_positive_map`, `is_order_isomorphism`), which no stage
calls: they stay here as the order-isomorphism oracle of the cone tests,
and `quadratic_rep`, which only this module's symmetric-cone oracle calls,
and `polytope_hrep`, which no stage calls either, and the `Fraction`
double description (`halfspace_cone_rays`, with its `_dedup` and the
`Fraction` ray scaling `ray_primitive` that `kvwb.cones` no longer has;
verbatim, and the one `polytope_hrep` calls) and the one `solve` per
basis state of `OrderUnitSpace.effect_action` (`effect_action`, verbatim
but for taking the space as its first argument) that the integer sweep of
`kvwb.cones.halfspace_cone_rays` and one integer product per generator on
the outcome frame replaced.  `lp_rows` turns a
`Fraction` system (A, b) into the integer `Row`s that `kvwb.lp` takes; the
oracles here that call `kvwb.lp` hand it their systems through it.  The
exact stages hold every derived matrix X as its pair (s, s·X) of integers;
`unscaled`, `rational_actions` and `rational_problem` read the pairs back
as the matrices the oracles here take, and `scaled_problem` makes a
recovery problem's pairs from rational or float inputs.  The bodies that
scaled `Fraction` matrices on each call before the stages held those pairs
(`scaled_invariance_rows`, `scaled_fixed_covector_dim`,
`scaled_check_unitarity`, `scaled_certify_flags` and
`fraction_linear_stage`) and the one rank per outcome of the outcome frame
(`rank_loop_positions`) follow.  The last section holds the one `lstsq`
and SVD of the float recovery solve (`lstsq_solve_float`) that the
Gram-certified solve of `kvwb.jordan._solve_float` replaced, and the basis
of invariant forms (`invariant_symmetric_forms`, `form_count_is_irreducible`)
whose length `kvwb.forms.is_irreducible` took before it read the nullity,
and the spin-form LP with one row per pair of effect-cone generators
(`unmerged_spin_form`) that `kvwb.lp._merge_rows` reduced, and the
two-pass `dumps_canonical` (a copy coerced to JSON types by `jsonable`,
then `json.dumps` with sorted keys and an indent of 2) that the one-pass
writer of `kvwb.serialize` replaced.  After it come helpers that no stage or
command reached and the package dropped: LP membership in a cone
(`cone_contains`, once `PolyhedralCone.contains`), cone equality by mutual
membership LPs (`cone_equal`), the one-vector PSD test of a quantum effect
space (`psd_contains`, once `kvwb.effectspace.cone_membership`) and the
outcome-relabelling search `models_isomorphic`, all verbatim but for taking
the cone or space as an argument.  The last section holds the exact
recovery over every sorted triple of coordinates, with equivariance rows
(`cubic_rows`, `cubic_linear_stage`, and the triple accumulator
`sparse_int_rows` that `kvwb.linalg` dropped), which the orbit rows of
`kvwb.jordan._orbit_stage` replaced on exact problems.  After it come the
float recovery over every sorted triple, with the unit law as rows
(`cubic_float_stage`, on the float kind of `cubic_rows`, which is the
`kvwb.jordan._cubic_rows` it called, bit for bit), that the unit's
complement of `kvwb.jordan._complement_stage` replaced, and the double
loop of `kvwb.builtins.conjugation_bijection` (`loop_conjugation_bijection`)
that one broadcast comparison replaced.  `minimal_polynomial_degree` cuts
each power relative to its own size, as `_degrees_and_powers` did last.

Slow and obviously correct; the property tests require the fast kernels to
return exactly what these return.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from types import SimpleNamespace

from kvwb.composites import (BipartiteReport, BipartiteState, CompositeError,
                             IsomorphismStateReport, OmegaHat, _check_gamma,
                             _entangled_eta, _invariance_flag, marginal)
from kvwb.cones import PolyhedralCone, SelfDualityReport, dual_cone
from kvwb.effectspace import (EffectSpaceError, OrderUnitSpace,
                              build_effect_space)
from kvwb.jordan import (JordanAlgebra, RecoveryProblem, SymmetricConeReport,
                         _reconstruct, _triple_index, trace_form_gram)
from kvwb.linalg import (Mat, Row, Vec, ZERO, ONE, _Kind, _eliminate,
                         _integer_block, _integer_readout, _lowest, dot, frac,
                         inverse, is_symmetric, mat_vec, solve, transpose,
                         zeros)
from kvwb import composites, linalg, lp, models
from kvwb.forms import _outcome_rows, _packed_rows
from kvwb.lp import CertificateError, LPResult, UnboundedError
from kvwb.lp import convex_membership, free_feasibility
from kvwb.models import (Model, PermutationGroup, PolytopeBackend,
                         QuantumBackend, act_on_state, perm_inverse)
from kvwb.serialize import frac_str
from kvwb.composites import _lstsq
from kvwb.spectral import _frames, _stacked, _value


# ---------------------------------------------------------------------------
# the exact stages hold every derived matrix X as the pair (s, s·X); the
# oracles here take the matrices those pairs stand for, as the stages held
# them before

def unscaled(pair):
    """The matrix or vector X of its pair (s, s·X): a `Fraction` array over
    an int scale, the float quotient otherwise."""
    s, X = pair
    if isinstance(s, int):
        X = np.asarray(X, dtype=object)
        return np.array([Fraction(x, s) for x in X.flat],
                        dtype=object).reshape(X.shape)
    return np.asarray(X) / s


def rational_actions(E) -> list:
    """The effect space's actions as matrices: nested `Fraction` lists when
    exact, float arrays otherwise."""
    return [unscaled(M).tolist() if E.kind == "exact" else unscaled(M)
            for M in E.actions]


def rational_problem(p: RecoveryProblem) -> SimpleNamespace:
    """A recovery problem with its pairs read back as matrices and vectors,
    rationals when exact: the inputs the recovery oracles here read."""
    return SimpleNamespace(**{
        **vars(p), "exact": p.exact, "B": unscaled(p.B), "u": unscaled(p.u),
        **{key: [unscaled(x) for x in getattr(p, key)]
           for key in ("cone_generators", "actions", "outcome_vectors")}})


def scaled_problem(K: _Kind, B, u, cone_generators=(), actions=(),
                   outcome_vectors=(), **rest) -> RecoveryProblem:
    """A `RecoveryProblem` from rational or float inputs, each made its pair
    by `K.scaled`."""
    return RecoveryProblem(
        dim=len(u), B=K.scaled(B), u=K.scaled(u),
        cone_generators=[K.scaled(g) for g in cone_generators],
        actions=[K.scaled(M) for M in actions],
        outcome_vectors=[K.scaled(g) for g in outcome_vectors], **rest)


def kind_inverse(K: _Kind, A: np.ndarray):
    """A⁻¹ in the kind's container, as `_Kind.inverse` gave it before it
    took and gave pairs; None when exact and singular."""
    if K.exact:
        inv = inverse(A.tolist())
        return None if inv is None else np.array(inv, dtype=object)
    return np.linalg.inv(A)


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


def solve_with_nullspace(A: Mat, b: Sequence[Fraction]
                         ) -> tuple[Vec | None, list[Vec]]:
    """`solve(A, b)` and `nullspace(A)` from one elimination of [A | b].

    When the system is consistent the left block of that RREF is rref(A), so
    both results equal the separate calls; (None, []) when inconsistent.
    The elimination is this module's `Fraction` `rref`, not the kernel of
    `kvwb.linalg` that the oracle is held against.
    """
    if not A:
        return solve(A, b), []
    ncols = len(A[0])
    R, pivots = rref([row[:] + [bb] for row, bb in zip(A, b, strict=True)])
    x = _augmented_solution(R, pivots, ncols)
    return x, [] if x is None else _null_basis(R, pivots, ncols)


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


def lp_rows(A: Mat, b: Vec) -> list[Row]:
    """A x = b as `kvwb.lp` takes it: row i of [A | b] as its nonzero
    integers over their common denominator, b_i in column len(A[i])."""
    out = []
    for row, bb in zip(A, b, strict=True):
        full = [Fraction(x) for x in row] + [Fraction(bb)]
        s = math.lcm(*(x.denominator for x in full))
        out.append(({k: int(x * s) for k, x in enumerate(full) if x}, s))
    return out


# ---------------------------------------------------------------------------
# Jordan recovery over the full product tensor: the vectorized builder with
# B-associativity rows that `kvwb.jordan._cubic_rows` replaced (verbatim),
# its packing helpers, and the loops it replaced in turn

def _pair_index(d: int):
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    where = {p: k for k, p in enumerate(pairs)}

    def at(i, j):
        return where[(i, j) if i <= j else (j, i)]
    return pairs, at


def _linear_rows(p: RecoveryProblem, idempotence: bool, exact: bool):
    """The linear Jordan-product constraints A t = b.

    The unknown t[at(i, j) * d + k] is the e_k coordinate of e_i ∘ e_j.  Each
    block (unit law, B-associativity, G-equivariance, idempotence) lays out
    the columns and values of its rows by broadcasting, row by row and term
    by term.  On the float path the inputs are read as floats and one
    `np.add.at` accumulates the terms in that order into the matrix A, so a
    column that several terms of a row hit gets the same float sum as a loop
    over the terms; the result is (A, b).

    With `exact` the inputs must be rationals, each block scaled to integers
    by its common denominator: s_u·u with right-hand side s_u·δ, s_B·B, and
    per action M_int = s_M·M, its linear term times s_M and its quadratic
    term M_int ⊗ M_int, so the row is s_M² times the rational one; per
    outcome g_int = s_g·g, right-hand side s_g·g_int.  The triples are
    summed into sparse rows of Python ints, {column: value} with the
    right-hand side in column `ncols`, and entries that cancel to 0 are left
    out; the result is (rows, ncols), row for row the rational system up to
    a positive factor per row.
    """
    p = rational_problem(p)
    d = p.dim
    pairs, at = _pair_index(d)
    ncols = len(pairs) * d
    AT = np.array([[at(i, j) for j in range(d)] for i in range(d)],
                  dtype=np.intp)

    if exact:
        num, dtype = _integer_block, object
    else:
        def num(x):
            return 1.0, np.asarray(x, float)
        dtype = float
    s_u, u = num(p.u)
    _, B = num(p.B)
    ar = np.arange(d)
    iu, ju = np.triu_indices(d)
    R = len(iu)
    rows, cols, vals, rhs = [], [], [], []

    def add(c, v, b):
        """Append rows with right-hand side b: columns c shaped (row axes,
        term axes), values v broadcast to that shape."""
        n0 = sum(map(len, rhs))
        rows.append(np.repeat(np.arange(n0, n0 + len(b)), c.size // len(b)))
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, c.shape).ravel())
        rhs.append(b)

    # unit law u ∘ e_j = e_j: row (j, k), term i
    delta = np.zeros(d * d, dtype)
    delta[::d + 1] = s_u
    add(AT[:, None, :] * d + ar[:, None], u, delta)
    # B-associativity B(e_i ∘ e_j, e_k) = B(e_j, e_i ∘ e_k):
    # row (i, j ≤ k), terms m then sign
    add(np.stack([AT[:, iu, None] * d + ar, AT[:, ju, None] * d + ar],
                 axis=-1),
        np.stack([B[:, ju].T, -B[:, iu].T], axis=-1),
        np.zeros(d * R, dtype))
    # G-equivariance M(e_i ∘ e_j) = M e_i ∘ M e_j: row (i ≤ j, k),
    # terms m, then (a, b)
    c_m = np.broadcast_to(AT[iu, ju, None, None] * d + ar, (R, d, d))
    c_ab = np.broadcast_to((AT * d).ravel() + ar[:, None], (R, d, d * d))
    for M in p.actions:
        s_M, M = num(M)
        v_ab = -(M[:, iu].T[:, :, None] * M[:, ju].T[:, None, :])
        add(np.concatenate([c_m, c_ab], axis=-1),
            np.concatenate([np.broadcast_to(M * s_M, (R, d, d)),
                            np.broadcast_to(v_ab.reshape(R, 1, d * d),
                                            (R, d, d * d))], axis=-1),
            np.zeros(R * d, dtype))
    # idempotence g ∘ g = g: row k, terms i ≤ j
    if idempotence:
        for g in p.outcome_vectors:
            s_g, g = num(g)
            prod = g[iu] * g[ju]
            add(AT[iu, ju] * d + ar[:, None],
                np.where(iu != ju, prod * 2, prod), g * s_g)
    b = np.concatenate(rhs)
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    if exact:
        out = sparse_int_rows(rows, cols, vals, len(b))
        for row, bb in zip(out, b.tolist()):
            if bb:
                row[ncols] = bb
        return out, ncols
    A = np.zeros((len(b), ncols))
    np.add.at(A, (rows, cols), vals)
    return A, b


def squares_membership(E, tol: float):
    """The exact squares-gate membership of `kvwb.pipeline._recovery_problem`
    before it read the dual cone's rays: one phase-one LP per probe."""
    slack = Fraction(tol).limit_denominator(10**12)

    def membership(v):
        vv = [Fraction(float(x)) + slack * b for x, b in zip(v, E.u)]
        return cone_contains(E.effect_cone, vv).feasible
    return membership


def linear_rows_float(p: RecoveryProblem, idempotence: bool):
    p = rational_problem(p)
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
    p = rational_problem(p)
    d = p.dim
    pairs, at = _pair_index(d)
    P = len(pairs)
    nvar = P * d
    rows, rhs = [], []

    def var(pk, k):
        return pk * d + k

    u = [frac(x) for x in p.u]
    B = [[frac(x) for x in r] for r in p.B]
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
    for M in p.actions:
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
        for g in p.outcome_vectors:
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


# ---------------------------------------------------------------------------
# one-element spectral functions and the symmetric-cone check

def cone_of_squares_membership(J: JordanAlgebra, a, tol: float = 1e-9) -> bool:
    if J.kind.startswith("DirectSum"):
        parts, offs = J.params["parts"], J.params["offsets"]
        return all(cone_of_squares_membership(
            p, list(a)[o:o + p.dim], tol) for p, o in zip(parts, offs))
    if J.kind.startswith("SpinFactor"):
        n = J.params["n"]
        x, s = list(a)[:n], a[n]
        if all(isinstance(v, (Fraction, int)) for v in a):
            return frac(s) >= 0 and frac(s) ** 2 >= sum(frac(v) ** 2 for v in x)
        return float(s) >= -tol and float(s) ** 2 + tol >= sum(
            float(v) ** 2 for v in x)
    if J.kind == "RealSym(1)":
        return (frac(a[0]) >= 0 if isinstance(a[0], (Fraction, int))
                else float(a[0]) >= -tol)
    if "basis" in J.params:
        M = _reconstruct(J, a)
        return float(np.linalg.eigvalsh(M).min()) >= -tol
    # No structural description (e.g. a recovered product): fall back to the
    # spectral test — an element lies in the closed cone of squares exactly
    # when its eigenvalues are nonnegative.
    eigs = _eigenvalues(J, np.asarray(a, dtype=float))
    return min(eigs) >= -max(tol, 1e-7)


def jordan_powers(J: JordanAlgebra, a, upto: int) -> list[np.ndarray]:
    out = [J.unit_float(), np.asarray(a, float)]
    for _ in range(upto - 1):
        out.append(np.einsum("i,j,ijk->k", np.asarray(a, float), out[-1],
                             J.np_tensor))
    return out


def minimal_polynomial_degree(J: JordanAlgebra, a, tol: float = 1e-8) -> int:
    """The least k with rank[u, a, ..., a^k] <= k, each power scaled to a
    largest entry of 1 and the rank cut at tol.  The cut was tol·max(1,
    max |entry|) until it was found to be absolute below size 1 (an element
    of R³ near 1e-4 in size got degree 2, and 1000 times it degree 3)."""
    pows = jordan_powers(J, a, J.dim)
    for k in range(1, J.dim + 1):
        M = np.array(pows[:k + 1])
        size = np.abs(M).max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            M = M / np.where(size > 0, size, 1.0)
        if np.linalg.matrix_rank(M, tol=tol) <= k:
            return k
    return J.dim


def generic_rank(J: JordanAlgebra, seed: int = 42, trials: int = 5) -> int:
    """Degree of the minimal polynomial of a generic element.

    For a Euclidean Jordan algebra this is the rank; several random draws
    guard against an unlucky non-generic sample (the max is generic).
    """
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(trials):
        a = rng.standard_normal(J.dim)
        best = max(best, minimal_polynomial_degree(J, a))
    return best


def _eigenvalues(J: JordanAlgebra, w: np.ndarray) -> np.ndarray:
    """Sorted roots of the minimal polynomial of w, near-coincident ones
    merged into one node (their mean)."""
    deg = minimal_polynomial_degree(J, w)
    pows = jordan_powers(J, w, deg)
    M = np.array(pows[:deg]).T
    coeffs, *_ = np.linalg.lstsq(M, pows[deg], rcond=None)
    poly = np.concatenate([[1.0], -coeffs[::-1]])     # monic, high power first
    roots = np.roots(poly)
    if np.abs(roots.imag).max(initial=0.0) > 1e-6:
        raise ArithmeticError("complex eigenvalues in a formally real algebra "
                              f"(imag {np.abs(roots.imag).max():.2e})")
    lams = np.sort(roots.real)
    # Lagrange interpolation is badly conditioned when eigenvalues are close,
    # so nearly coincident roots are merged into one node.
    scale = max(1.0, float(np.abs(lams).max()))
    clusters: list[list[float]] = []
    for l in lams:
        if clusters and l - clusters[-1][-1] <= 1e-6 * scale:
            clusters[-1].append(float(l))
        else:
            clusters.append([float(l)])
    return np.array([sum(c) / len(c) for c in clusters])


def spectral_decomposition(J: JordanAlgebra, w, tol: float = 1e-8):
    """Eigenvalues and spectral idempotents of w via its minimal polynomial.

    Power associativity makes the subalgebra generated by w commutative and
    associative, so Lagrange interpolation on Jordan powers, over the merged
    eigenvalue nodes, produces the spectral projections; each projector is
    then purified with f <- 3f^2 - 2f^3 (quadratic convergence to the
    idempotent with the same spectral support).
    """
    w = np.asarray(w, float)
    reps = _eigenvalues(J, w)
    idems = []
    for i, li in enumerate(reps):
        f = J.unit_float()
        for j, lj in enumerate(reps):
            if i == j:
                continue
            f = (np.einsum("i,j,ijk->k", f, w - lj * J.unit_float(),
                           J.np_tensor)) / (li - lj)
        for _ in range(2):
            f2 = np.einsum("i,j,ijk->k", f, f, J.np_tensor)
            f3 = np.einsum("i,j,ijk->k", f, f2, J.np_tensor)
            f = 3.0 * f2 - 2.0 * f3
        idems.append(f)
    return reps, idems


def jordan_sqrt(J: JordanAlgebra, w, tol: float = 1e-9) -> np.ndarray:
    """Square root of an interior element.

    Babylonian iteration s <- (s + L_s^{-1} w) / 2, seeded at sqrt(lam_max)
    times the unit.  The iterates stay in the associative subalgebra
    generated by w, where the recursion is the scalar one per eigenvalue,
    so convergence needs no spectral projectors — only the (possibly
    ill-conditioned) eigenvalues themselves, used for the seed and the
    negativity screen.
    """
    w = np.asarray(w, float)
    lams = _eigenvalues(J, w)
    if lams.min() < -1e-6:
        raise ArithmeticError(f"element not in the cone (eig {lams.min():.2e})")
    scale = max(1.0, float(np.abs(w).max()))
    s = np.sqrt(max(float(lams.max()), 1e-12)) * J.unit_float()
    err = np.inf
    for _ in range(80):
        s = 0.5 * (s + np.linalg.solve(J.left_mult(s), w))
        err = float(np.abs(np.einsum("i,j,ijk->k", s, s, J.np_tensor)
                           - w).max())
        if err <= 1e-12 * scale:
            break
    if err > 1e-7 * scale:
        raise ArithmeticError(f"square root iteration stalled (error {err:.2e})")
    return s


def _random_rational_vec(rng, d) -> list:
    return [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            for _ in range(d)]


def _identity_residual(J: JordanAlgebra, a, b):
    a2 = J.product(a, a)
    lhs = J.product(a2, J.product(b, a))
    rhs = J.product(J.product(a2, b), a)
    if J.exact and isinstance(lhs[0], Fraction):
        return max(abs(x - y) for x, y in zip(lhs, rhs))
    return float(np.abs(np.asarray(lhs, float) - np.asarray(rhs, float)).max())


def verify_symmetric_cone(J: JordanAlgebra, sample_count: int = 50,
                          seed: int = 42, tol: float = 1e-9
                          ) -> SymmetricConeReport:
    """Gate order: Jordan axioms, formal reality, self-duality samples,
    homogeneity witnesses.  A failed axiom gate stops the later checks.
    Gate 3 pairs the idempotents of `kvwb.spectral._frames` on one row at a
    time (they were `spectral_decomposition`'s), and does not check them
    for idempotence as the stacked gate does."""
    rep = SymmetricConeReport(ok=False, seed=seed)
    rng = np.random.default_rng(seed)
    d = J.dim

    # gate 1: axioms (exact where the tensor is exact)
    if J.exact:
        comm = all(J.tensor[i][j] == J.tensor[j][i]
                   for i in range(d) for j in range(d))
        unit_ok = all(J.product(J.unit, [ONE if t == j else ZERO
                                         for t in range(d)])
                      == [ONE if t == j else ZERO for t in range(d)]
                      for j in range(d))
        worst = max(_identity_residual(J, _random_rational_vec(rng, d),
                                       _random_rational_vec(rng, d))
                    for _ in range(max(10, sample_count // 5)))
        ident = worst == 0
    else:
        T = J.np_tensor
        comm = float(np.abs(T - T.transpose(1, 0, 2)).max()) <= tol
        u = J.unit_float()
        unit_ok = float(np.abs(J.left_mult(u) - np.eye(d)).max()) <= 1e-8
        worst = max(_identity_residual(J, rng.standard_normal(d),
                                       rng.standard_normal(d))
                    for _ in range(max(10, sample_count // 5)))
        ident = worst <= 1e-8
    rep.commutative_ok, rep.unit_ok, rep.identity_ok = comm, unit_ok, ident
    if not (comm and unit_ok and ident):
        rep.failures.append({"gate": "jordan-axioms",
                             "identity_residual": (str(worst) if J.exact
                                                   else float(worst))})
        return rep

    # gate 2: formal reality via the trace form
    G = trace_form_gram(J)
    if J.exact:
        rep.trace_form_pd = is_positive_definite(G)
    else:
        rep.trace_form_pd = bool(np.linalg.eigvalsh(np.asarray(G)).min() > tol)
    if not rep.trace_form_pd:
        rep.failures.append({"gate": "trace-form-pd"})
        return rep
    Gf = np.array([[float(G[i][j]) for j in range(d)] for i in range(d)]) \
        if J.exact else np.asarray(G)

    # gate 3: self-duality samples — squares pair non-negatively, and the
    # spectral idempotents of random elements pair non-negatively too
    min_pair = np.inf
    for _ in range(sample_count):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        x2 = np.einsum("i,j,ijk->k", x, x, J.np_tensor)
        y2 = np.einsum("i,j,ijk->k", y, y, J.np_tensor)
        min_pair = min(min_pair, float(x2 @ Gf @ y2))
        if _ % 10 == 0:
            # the Jordan frame of the stacked gate, one row at a time
            _, idems = _value(_frames(J, (x2 + 0.1 * J.unit_float())[None])[0])
            for p, q in itertools.combinations(idems, 2):
                min_pair = min(min_pair, float(p @ Gf @ q))
    rep.min_pairing = min_pair
    rep.self_duality_ok = min_pair >= -tol
    if not rep.self_duality_ok:
        rep.failures.append({"gate": "self-duality", "min_pairing": min_pair})
        return rep

    # gate 4: homogeneity witnesses P(w^{1/2}) e = w on random interior w
    worst_h = 0.0
    u = J.unit_float()
    try:
        for _ in range(sample_count):
            x = rng.standard_normal(d)
            w = np.einsum("i,j,ijk->k", x, x, J.np_tensor) + \
                (0.2 + rng.random()) * u
            s = jordan_sqrt(J, w)
            got = quadratic_rep(J, s) @ u
            worst_h = max(worst_h, float(np.abs(got - w).max()))
            y = rng.standard_normal(d)
            y2 = np.einsum("i,j,ijk->k", y, y, J.np_tensor)
            mapped = quadratic_rep(J, s) @ y2
            if not cone_of_squares_membership(J, mapped, tol=1e-7):
                rep.failures.append({"gate": "homogeneity-cone-preservation"})
    except ArithmeticError as e:
        rep.failures.append({"gate": "homogeneity-spectral", "error": str(e)})
        rep.homogeneity_ok = False
        return rep
    rep.max_homogeneity_error = worst_h
    rep.homogeneity_ok = worst_h <= 1e-9 and not any(
        f.get("gate") == "homogeneity-cone-preservation"
        for f in rep.failures)
    rep.ok = bool(rep.homogeneity_ok)
    return rep


# ---------------------------------------------------------------------------
# the stacked minimal-polynomial kernels that `kvwb.spectral._frames`
# replaced, verbatim: degrees and Jordan powers, one least-squares fit per
# degree, companion `eigvals`, merged roots and Lagrange idempotents

def _groups(results: list, key=len) -> dict:
    """Indices of the results that are not exceptions, grouped by key."""
    out: dict = {}
    for n, r in enumerate(results):
        if not isinstance(r, Exception):
            out.setdefault(key(r), []).append(n)
    return out


def _degrees_and_powers(J, W: np.ndarray, tol: float = 1e-8):
    """Minimal-polynomial degree and Jordan powers u, w, w∘w, w∘(w∘w), ...
    of each row w of W: the degree is the least k with rank[u, ..., w^k] <=
    k, each power scaled to a largest entry of 1 and the rank cut at tol,
    so that w and c·w get one degree; from one stacked product and rank
    per step over the rows still open.  Returns the degrees (a LinAlgError
    for a row whose rank failed) and the powers, shaped (rows, dim + 1,
    dim), row n filled up to w^degree."""
    W = np.asarray(W, float)
    T, d = J.np_tensor, J.dim
    pows = np.empty((len(W), d + 1, d))
    pows[:, 0] = J.unit_float()
    pows[:, 1] = W
    degs, errors = np.full(len(W), d), {}
    open_rows = np.arange(len(W))
    for k in range(1, d + 1):
        if not open_rows.size:
            break
        M = pows[open_rows, :k + 1]
        size = np.abs(M).max(axis=2, keepdims=True)
        with np.errstate(invalid="ignore"):        # an inf power is NaN
            M = M / np.where(size > 0, size, 1.0)
        ranks = _stacked(np.linalg.matrix_rank, M, np.full(len(M), tol))
        if not isinstance(ranks, np.ndarray):     # a failed row is done too
            errors.update((n, r) for n, r in zip(open_rows.tolist(), ranks)
                          if isinstance(r, Exception))
            ranks = [0 if isinstance(r, Exception) else r for r in ranks]
        done = np.asarray(ranks) <= k
        degs[open_rows[done]] = k
        open_rows = open_rows[~done]
        if open_rows.size and k < d:
            pows[open_rows, k + 1] = np.einsum(
                "ni,nj,ijk->nk", W[open_rows], pows[open_rows, k], T)
    return [errors.get(n, k) for n, k in enumerate(degs.tolist())], pows


def _minimal_polynomials(pows: np.ndarray, degs: list) -> list:
    """Coefficients c of each row's minimal polynomial, w^k = sum c_i w^i
    over i < k = degs[n], as `np.linalg.lstsq(pows[n, :k].T, pows[n, k],
    rcond=None)[0]`, one stacked fit per degree; a row keeps the exception
    its degree holds, or holds its fit's LinAlgError."""
    out = list(degs)
    for k, rows in _groups(degs, int).items():
        P = pows[rows]
        for n, c in zip(rows, _stacked(lambda A, b: _lstsq(A, b)[0],
                                       P[:, :k].transpose(0, 2, 1), P[:, k])):
            out[n] = c
    return out


def _roots_many(coeffs: list) -> list:
    """`np.roots` of each row's monic polynomial x^k - sum c_i x^i, or the
    exception the row holds or raises.  As in np.roots, the trailing zero
    coefficients are stripped, the roots of the rest are the eigenvalues of
    its companion matrix, and one zero root is appended per stripped
    coefficient: one stack per degree, one stacked `eigvals` per size."""
    out = list(coeffs)
    for k, rows in _groups(coeffs).items():
        polys = np.ones((len(rows), k + 1))     # monic, high power first
        polys[:, 1:] = -np.array([coeffs[n] for n in rows])[:, ::-1]
        # the last nonzero entry; the leading 1.0 is always nonzero
        sizes = k - np.argmax(polys[:, ::-1] != 0, axis=1)
        for size in set(sizes.tolist()):
            at = np.flatnonzero(sizes == size)
            roots = [np.array([])] * len(at)
            if size:
                C = np.zeros((len(at), size, size))
                C[:, np.arange(1, size), np.arange(size - 1)] = 1.0
                C[:, 0] = -polys[at, 1:size + 1] / polys[at, :1]
                roots = _stacked(np.linalg.eigvals, C)
            for i, r in zip(at.tolist(), roots):
                out[rows[i]] = r if isinstance(r, Exception) or size == k \
                    else np.hstack((r, np.zeros(k - size, r.dtype)))
    return out


def _merged(roots: np.ndarray):
    """Sorted real roots, near-coincident ones merged into one node (their
    mean); an ArithmeticError in their place when a root is complex."""
    if np.abs(roots.imag).max(initial=0.0) > 1e-6:
        return ArithmeticError("complex eigenvalues in a formally real "
                               f"algebra (imag {np.abs(roots.imag).max():.2e})")
    lams = np.sort(roots.real)
    # Lagrange interpolation is badly conditioned when eigenvalues are close,
    # so nearly coincident roots are merged into one node.
    scale = max(1.0, float(np.abs(lams).max()))
    clusters: list[list[float]] = []
    for l in lams:
        if clusters and l - clusters[-1][-1] <= 1e-6 * scale:
            clusters[-1].append(float(l))
        else:
            clusters.append([float(l)])
    return np.array([sum(c) / len(c) for c in clusters])


def _eigenvalues_many(J, W: np.ndarray) -> list:
    """Merged eigenvalues of each row of W: the sorted roots of its minimal
    polynomial, near-coincident ones merged into one node (their mean), or
    the ArithmeticError or LinAlgError that row raises.  Every step is stacked;
    only a row with a complex root or roots to merge meets `_merged`."""
    degs, pows = _degrees_and_powers(J, W)
    out = _roots_many(_minimal_polynomials(pows, degs))
    for rows in _groups(out).values():
        R = np.array([out[n] for n in rows])
        lams = np.sort(R.real, axis=1)
        scale = np.fmax(1.0, np.abs(lams).max(axis=1))
        alone = ((np.abs(R.imag).max(axis=1, initial=0.0) > 1e-6)
                 | (np.diff(lams, axis=1) <= 1e-6 * scale[:, None]).any(axis=1))
        # a one-root node is sum([l]) / 1, and 0 + -0.0 is 0.0
        lams += 0.0
        for n, lam, one in zip(rows, lams, alone.tolist()):
            out[n] = _merged(out[n]) if one else lam
    return out


def _idempotents(J, W: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Spectral idempotents of each row w of W over its merged eigenvalues,
    that row of `reps`: idempotent i of row n at [n, i].

    Power associativity makes the subalgebra generated by w commutative and
    associative, so Lagrange interpolation on Jordan powers, over the merged
    eigenvalue nodes, produces the spectral projections; each projector is
    then purified with f <- 3f^2 - 2f^3 (quadratic convergence to the
    idempotent with the same spectral support)."""
    T, u = J.np_tensor, J.unit_float()
    out = np.empty(reps.shape + (J.dim,))
    for i in range(reps.shape[1]):
        f = np.tile(u, (len(W), 1))
        for j in (j for j in range(reps.shape[1]) if j != i):
            f = (np.einsum("ni,nj,ijk->nk", f, W - reps[:, j, None] * u, T)
                 / (reps[:, i] - reps[:, j])[:, None])
        for _ in range(2):
            f2 = np.einsum("ni,nj,ijk->nk", f, f, T)
            f3 = np.einsum("ni,nj,ijk->nk", f, f2, T)
            f = 3.0 * f2 - 2.0 * f3
        out[:, i] = f
    return out


# ---------------------------------------------------------------------------
# the Jordan axioms by `Fraction` loops, and the sampled squares gate, which
# `kvwb.jordan.prove_axioms` and `kvwb.jordan.jordan_frame` replaced on
# exact problems

def linearized_identity(J: JordanAlgebra, i: int, j: int, k: int):
    """[L_a, L_{b∘c}] + [L_b, L_{c∘a}] + [L_c, L_{a∘b}] at
    (a, b, c) = (e_i, e_j, e_k), column q its value on e_q, by one
    `JordanAlgebra.product` at a time."""
    d = J.dim
    e = [[ONE if t == n else ZERO for t in range(d)] for n in range(d)]
    out = np.zeros((d, d), dtype=object)
    for q in range(d):
        col = [ZERO] * d
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            bc = J.product(e[b], e[c])
            left = J.product(e[a], J.product(bc, e[q]))
            right = J.product(bc, J.product(e[a], e[q]))
            col = [x + y - z for x, y, z in zip(col, left, right)]
        out[:, q] = col
    return out


def loop_axioms(J: JordanAlgebra) -> tuple:
    """(commutative, unit law, first failing triple, its residual) of an
    exact tensor: the entries compared one by one, the unit multiplied into
    each basis vector, and, on a commutative tensor, `linearized_identity`
    on every basis triple in lexicographic order."""
    d = J.dim
    e = [[ONE if t == n else ZERO for t in range(d)] for n in range(d)]
    comm = all(J.tensor[i][j] == J.tensor[j][i]
               for i in range(d) for j in range(d))
    unit = all(J.product(J.unit, e[j]) == e[j] for j in range(d))
    if not comm:
        return comm, unit, None, None
    for triple in itertools.product(range(d), repeat=3):
        op = linearized_identity(J, *triple)
        if any(x != 0 for x in op.flat):
            return comm, unit, triple, max(abs(x) for x in op.flat)
    return comm, unit, None, ZERO


def sampled_squares_gate(J: JordanAlgebra, membership, seed: int = 42
                         ) -> bool:
    """The squares gate of the sampled recovery: after the 3·d probes of
    the identity gate, the squares of 20 seeded float probes, drawn and
    tested one at a time, until `membership` rejects one."""
    d = J.dim
    rng = np.random.default_rng(seed)
    rng.standard_normal((3 * d, 2, d))
    for _ in range(20):
        x = rng.standard_normal(d)
        if not membership(np.einsum("i,j,ijk->k", x, x, J.np_tensor)):
            return False
    return True


# ---------------------------------------------------------------------------
# packed symmetric rows, as the loops of `forms` built them before the
# broadcast builder `forms._packed_rows`

def _pack_index(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _unpack(vec, dim: int, exact: bool):
    pairs = _pack_index(dim)
    if exact:
        S = [[ZERO] * dim for _ in range(dim)]
    else:
        S = np.zeros((dim, dim))
    for v, (i, j) in zip(vec, pairs):
        S[i][j] = v
        if exact:
            S[j][i] = v
        else:
            S[j, i] = v
    return S


def _invariance_rows(M, dim: int, exact: bool):
    """Rows of (M^T S M - S) = 0 over packed symmetric unknowns s_{ij}."""
    pairs = _pack_index(dim)
    pos = {p: k for k, p in enumerate(pairs)}
    rows = []
    for a in range(dim):
        for b in range(a, dim):
            row = [ZERO] * len(pairs) if exact else np.zeros(len(pairs))
            for k in range(dim):
                for l in range(dim):
                    coeff = M[k][a] * M[l][b] if exact else M[k, a] * M[l, b]
                    i, j = (k, l) if k <= l else (l, k)
                    row[pos[(i, j)]] += coeff
            row[pos[(a, b)]] -= 1 if exact else 1.0
            rows.append(row)
    return rows


def _pairing_row(x, y, dim: int, exact: bool):
    """Row computing x^T S y over packed symmetric unknowns."""
    pairs = _pack_index(dim)
    pos = {p: k for k, p in enumerate(pairs)}
    row = [ZERO] * len(pairs) if exact else np.zeros(len(pairs))
    for k in range(dim):
        for l in range(dim):
            coeff = x[k] * y[l]
            i, j = (k, l) if k <= l else (l, k)
            row[pos[(i, j)]] += coeff
    return row


def _full_symmetric_basis(dim: int) -> list[Vec]:
    n = dim * (dim + 1) // 2
    return [[ONE if k == t else ZERO for k in range(n)] for t in range(n)]


# ---------------------------------------------------------------------------
# SPIN flags, as four near-copies set them before `forms.certify_flags`


def _certify_exact(form, m, E, pairs) -> None:
    u = list(E.u)
    form.normalized = dot(mat_vec(form.matrix, u), u) == 1
    form.orthogonalizing = all(
        form.value(E.outcome_vectors[a], E.outcome_vectors[b]) == 0
        for a, b in pairs)
    gens = E.cone_generators
    form.positive_on_cone = all(
        form.value(g, h) >= 0
        for i, g in enumerate(gens) for h in gens[i:])
    form.positive_definite = is_positive_definite(form.matrix)


def spin_float_flags(form, E, pairs, S, tol: float) -> None:
    """The flag block of the float branch of
    `find_orthogonalizing_spin_form`, run after its positivity test on the
    normalized matrix S passed."""
    form.positive_on_cone = True
    form.normalized = True
    form.orthogonalizing = all(
        abs(form.value(E.outcome_vectors[a], E.outcome_vectors[b])) <= tol
        for a, b in pairs) if pairs else True
    ev = float(np.linalg.eigvalsh(S).min())
    form.positive_definite = ev > tol


def _flag_exact(B, m, E) -> None:
    from kvwb.models import distinguishable_pairs
    B.normalized = B.value(E.u, E.u) == 1
    B.orthogonalizing = all(
        B.value(E.outcome_vectors[x], E.outcome_vectors[y]) == 0
        for x, y in distinguishable_pairs(m))
    gens = E.effect_cone.all_generators()
    worst, _ = pairwise_form_positivity([list(g) for g in gens], B.matrix)
    B.positive_on_cone = worst >= 0
    B.invariant = _invariance_flag(E, B)
    B.positive_definite = is_positive_definite(B.matrix)


def _flag_float(B, m, E, tol: float) -> None:
    from kvwb.models import distinguishable_pairs
    M = np.asarray(B.matrix)
    u = np.asarray(E.u, float)
    B.normalized = abs(float(u @ M @ u) - 1.0) <= tol
    B.orthogonalizing = all(
        abs(B.value(E.outcome_vectors[x], E.outcome_vectors[y])) <= tol
        for x, y in distinguishable_pairs(m))
    vs = [np.asarray(E.outcome_vectors[x]) for x in m.outcomes]
    B.positive_on_cone = all(float(a @ M @ b) >= -tol
                             for a in vs for b in vs)
    B.invariant = _invariance_flag(E, B, tol)
    B.positive_definite = bool(np.linalg.eigvalsh(M).min() > tol)


def find_conjugate_state(m: Model, gamma: Optional[dict[str, str]] = None,
                         require_invariance: bool = True,
                         tol: float = 1e-9) -> Optional[BipartiteState]:
    """Search for a conjugate table: uniform diagonal 1/rank, valid joint.

    Polytope models run an exact rational feasibility LP whose variables are
    the table entries plus conic coefficients expressing every conditional
    over the state polytope's vertices; infeasibility is certified, so a
    ``None`` is an answer, not a failure.  Quantum samples instead construct
    the maximally entangled table analytically and verify it.
    """
    gamma = gamma or {x: x for x in m.outcomes}
    _check_gamma(m, gamma)
    n = len(m.tests[0])
    if isinstance(m.states, QuantumBackend):
        return _entangled_eta(m, gamma, tol)

    outs = list(m.outcomes)
    nO = len(outs)
    verts = [list(v) for v in m.states.vertices]
    nV = len(verts)
    pos = {x: i for i, x in enumerate(outs)}

    def it(x, y):
        return pos[x] * nO + pos[y]

    n_t = nO * nO
    mu0 = n_t                      # mu[x][v]: row-conditional coefficients
    nu0 = n_t + nO * nV            # nu[y][v]: column-conditional coefficients
    nvar = n_t + 2 * nO * nV
    rows: list[Vec] = []
    rhs: list[Fraction] = []

    def add(row, b):
        rows.append(row)
        rhs.append(frac(b))

    for E in m.tests:
        for F in m.tests:
            row = [ZERO] * nvar
            for x in E:
                for y in F:
                    row[it(x, y)] = ONE
            add(row, 1)
    for x in outs:
        for y in outs:
            row = [ZERO] * nvar
            row[it(x, y)] = ONE
            for v in range(nV):
                row[mu0 + pos[x] * nV + v] = -verts[v][pos[y]]
            add(row, 0)
            row = [ZERO] * nvar
            row[it(x, y)] = ONE
            for v in range(nV):
                row[nu0 + pos[y] * nV + v] = -verts[v][pos[x]]
            add(row, 0)
    for x in outs:
        row = [ZERO] * nvar
        row[it(x, gamma[x])] = ONE
        add(row, Fraction(1, n))
    if require_invariance and isinstance(m.group, PermutationGroup):
        gamma_inv = {v: k for k, v in gamma.items()}
        seen = set()
        for g in m.group.generators:
            for x in outs:
                for y in outs:
                    gx = outs[g[pos[x]]]
                    gy = gamma[outs[g[pos[gamma_inv[y]]]]]
                    a, b = it(gx, gy), it(x, y)
                    if a == b or (min(a, b), max(a, b)) in seen:
                        continue
                    seen.add((min(a, b), max(a, b)))
                    row = [ZERO] * nvar
                    row[a] += ONE
                    row[b] -= ONE
                    add(row, 0)

    res = lp.solve_feasibility(lp_rows(rows, rhs), nvar)
    if not res.feasible:
        return None
    table = {(x, y): res.point[it(x, y)] for x in outs for y in outs}
    return BipartiteState(m, m, table)


def _solve(K: _Kind, A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """The solution of a square system A x = b (None: exact, singular); the
    `_Kind.solve` that the oracles below called."""
    if K.exact:
        x = solve(A.tolist(), b.tolist())
        return None if x is None else np.array(x, dtype=object)
    return np.linalg.solve(A, b)


def _basis_outcomes(E: OrderUnitSpace) -> list[str]:
    """The first maximal independent family of outcome vectors, in outcome
    order: each outcome is kept when it raises the rank of those kept."""
    K = _Kind(E.kind)
    picked, idx = [], []
    for i, x in enumerate(E.model.outcomes):
        trial = picked + [E.outcome_vectors[x]]
        if K.rank(K.array(trial)) == len(trial):
            picked = trial
            idx.append(i)
        if len(picked) == E.dim:
            break
    if len(picked) < E.dim:
        raise CompositeError("sampled outcomes do not span the effect space")
    return [E.model.outcomes[i] for i in idx]


def omega_hat(w: BipartiteState, E_A: Optional[OrderUnitSpace] = None,
              E_B: Optional[OrderUnitSpace] = None,
              tol: float = 1e-9) -> OmegaHat:
    """The linear map sending the effect of x to the functional omega(x, .).

    Built in two stages: each table row is solved for a dual vector against
    the partner's outcome frame, then the per-outcome dual vectors are
    assembled into one matrix on a maximal independent family of source
    effects.  Both stages re-verify every outcome, and a dependency of
    outcome vectors that the table fails to respect raises with the
    violating outcome as witness.  Values are compared with the kind's zero
    tolerance: exactly, or within `tol`.
    """
    E_A = E_A or build_effect_space(w.A)
    E_B = E_B or build_effect_space(w.B)
    if E_A.kind != E_B.kind:
        raise CompositeError("mixed exact/float bipartite states unsupported")
    K = _Kind(E_A.kind, tol)

    basis_B = _basis_outcomes(E_B)
    basis_A = _basis_outcomes(E_A)
    Yb = K.array([E_B.outcome_vectors[y] for y in basis_B])   # rows
    VB = K.array([E_B.outcome_vectors[y] for y in w.B.outcomes])
    duals: dict[str, np.ndarray] = {}
    for x in w.A.outcomes:
        wx = _solve(K, Yb, K.array([w.table[(x, y)] for y in basis_B]))
        if wx is None:
            raise CompositeError("table row unsolvable against the "
                                 f"partner frame at outcome {x!r}",
                                 witness=x)
        duals[x] = wx
        for y, vy in zip(w.B.outcomes, VB):
            err = abs(wx @ vy - w.table[(x, y)])
            if not K.is_zero(err):
                raise CompositeError(
                    f"table violates an effect dependency: row {x!r} is "
                    f"inconsistent at outcome {y!r} (error {float(err):.2e})",
                    witness=(x, y))
    C = K.array([E_A.outcome_vectors[x] for x in basis_A]).T
    W = K.array([duals[x] for x in basis_A]).T @ kind_inverse(K, C)
    for x in w.A.outcomes:
        err = np.max(np.abs(W @ K.array(E_A.outcome_vectors[x]) - duals[x]))
        if not K.is_zero(err):
            raise CompositeError(
                f"table violates an effect dependency: outcome {x!r} is not "
                f"consistent with the independent family (error "
                f"{float(err):.2e})", witness=x)
    return OmegaHat(K.scaled(K.native(W)), E_A, E_B, E_A.kind)


def is_isomorphism_state(w: BipartiteState,
                         E_A: Optional[OrderUnitSpace] = None,
                         E_B: Optional[OrderUnitSpace] = None,
                         tol: float = 1e-9) -> IsomorphismStateReport:
    """Does the induced map carry the effect cone onto the dual cone?

    The map must be invertible (of full rank, for either kind).  Exact
    models: it must send every effect-cone generator into the dual cone of
    the partner (checked generator against generator), and its inverse must
    send every generator of the partner's dual effect cone (computed once
    per effect space) back into the effect cone, with LP certificates.
    Quantum samples are tested against the analytic positive-semidefinite
    cone, which the sampled cone generates.
    """
    E_A = E_A or build_effect_space(w.A)
    E_B = E_B or build_effect_space(w.B)
    oh = omega_hat(w, E_A, E_B, tol=tol)
    K = _Kind(oh.kind, tol)
    W = K.array(oh.matrix)
    if W.shape[0] != W.shape[1] or K.rank(W) < len(W):
        return IsomorphismStateReport(False, False, None, None,
                                      ["matrix is singular"])
    W_inv = kind_inverse(K, W)
    failures, notes = [], []

    if K.exact:
        gens_B = [list(g) for g in E_B.effect_cone.all_generators()]
        fwd = True
        for g in E_A.effect_cone.all_generators():
            f = W @ K.array(g)
            for v in gens_B:
                if dot(f, v) < 0:
                    fwd = False
                    failures.append({"stage": "forward", "generator": list(g),
                                     "against": v, "value": dot(f, v)})
        inv = True
        for d in E_B.dual_effect_cone.all_generators():
            res = cone_contains(E_A.effect_cone, W_inv @ K.array(d))
            if not res.feasible:
                inv = False
                failures.append({"stage": "inverse", "generator": list(d),
                                 "separator": res.farkas})
        ok = fwd and inv
        return IsomorphismStateReport(ok, True, fwd, inv, failures, notes)

    notes.append("quantum membership tested against the analytic "
                 "positive-semidefinite cone generated by the sample")
    fwd = True
    for x in w.A.outcomes:
        f = W @ np.asarray(E_A.outcome_vectors[x])
        H = from_coords(E_B.basis, f)
        lo = float(np.linalg.eigvalsh((H + H.conj().T) / 2).min())
        if lo < -tol:
            fwd = False
            failures.append({"stage": "forward", "outcome": x, "min_eig": lo})
    inv = True
    for y in w.B.outcomes:
        g = W_inv @ np.asarray(E_B.outcome_vectors[y])
        H = from_coords(E_A.basis, g)
        lo = float(np.linalg.eigvalsh((H + H.conj().T) / 2).min())
        if lo < -tol:
            inv = False
            failures.append({"stage": "inverse", "outcome": y, "min_eig": lo})
    return IsomorphismStateReport(fwd and inv, True, fwd, inv, failures, notes)


def is_self_dual(K, form: Mat) -> SelfDualityReport:
    """K == {v : B(v, K) >= 0}?  Exact, with certificates both ways."""
    D = dual_cone(K, form)
    gens = [list(g) for g in K.all_generators()]
    pmin, parg = pairwise_form_positivity(gens, form)
    failures = []
    if pmin < 0:
        failures.append({"kind": "cone-not-in-dual",
                         "pair": parg, "value": pmin})
    for g in D.all_generators():
        res = cone_contains(K, g)
        if not res.feasible:
            failures.append({"kind": "dual-ray-outside-cone",
                             "ray": list(g), "separating": res.farkas})
    return SelfDualityReport(self_dual=not failures, dual=D,
                             pairwise_min=pmin, pairwise_argmin=parg,
                             failures=failures)


# ---------------------------------------------------------------------------
# the catalog built by loops over (real, imaginary) `Fraction` pairs, and the
# `Fraction` loops of `JordanAlgebra.product` and `trace_form_gram`

def _zmat(n):
    z = [[Fraction(0)] * n for _ in range(n)]
    return z


def _cm(re=None, im=None, n=None):
    if re is None:
        re = _zmat(n)
    if im is None:
        im = _zmat(len(re))
    return (re, im)


def _cm_add(A, B):
    n = len(A[0])
    return ([[A[0][i][j] + B[0][i][j] for j in range(n)] for i in range(n)],
            [[A[1][i][j] + B[1][i][j] for j in range(n)] for i in range(n)])


def _cm_scale(c, A):
    n = len(A[0])
    return ([[c * A[0][i][j] for j in range(n)] for i in range(n)],
            [[c * A[1][i][j] for j in range(n)] for i in range(n)])


def _cm_mul(A, B):
    n = len(A[0])
    re = [[sum(A[0][i][k] * B[0][k][j] - A[1][i][k] * B[1][k][j]
               for k in range(n)) for j in range(n)] for i in range(n)]
    im = [[sum(A[0][i][k] * B[1][k][j] + A[1][i][k] * B[0][k][j]
               for k in range(n)) for j in range(n)] for i in range(n)]
    return (re, im)


def _cm_dagger(A):
    n = len(A[0])
    return ([[A[0][j][i] for j in range(n)] for i in range(n)],
            [[-A[1][j][i] for j in range(n)] for i in range(n)])


def _cm_hs(A, B):
    """Real Hilbert-Schmidt pairing Re tr(A^dagger B) — exact."""
    n = len(A[0])
    Ad = _cm_dagger(A)
    tot = Fraction(0)
    for i in range(n):
        for k in range(n):
            tot += Ad[0][i][k] * B[0][k][i] - Ad[1][i][k] * B[1][k][i]
    return tot


def _cm_to_numpy(A) -> np.ndarray:
    return (np.array(A[0], dtype=float) + 1j * np.array(A[1], dtype=float))


def loop_product(self: JordanAlgebra, a, b):
    if self.exact and all(isinstance(v, (Fraction, int)) for v in a) \
            and all(isinstance(v, (Fraction, int)) for v in b):
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if a[i] == 0:
                continue
            for j in range(d):
                if b[j] == 0:
                    continue
                c = frac(a[i]) * frac(b[j])
                row = self.tensor[i][j]
                for k in range(d):
                    if row[k]:
                        out[k] += c * row[k]
        return out
    return np.einsum("i,j,ijk->k", np.asarray(a, float),
                     np.asarray(b, float), self.np_tensor)


def loop_trace_form_gram(J: JordanAlgebra):
    """Gram matrix of (a,b) -> tr L_{a∘b} on the coordinate basis."""
    d = J.dim
    if J.exact:
        G = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                prod = J.tensor[i][j]
                # trace of L_prod: sum_k (e_prod ∘ e_k)_k
                tot = Fraction(0)
                for m in range(d):
                    if prod[m] == 0:
                        continue
                    for k in range(d):
                        tot += prod[m] * J.tensor[m][k][k]
                G[i][j] = G[j][i] = tot
        return G
    T = J.np_tensor
    tr_L = np.einsum("mkk->m", T)       # trace of L_{e_m}
    G = np.einsum("ijm,m->ij", T, tr_L)
    return (G + G.T) / 2


def _matrix_kind(kind: str, n: int, basis_cm: list, labels: list
                 ) -> JordanAlgebra:
    """Common path: exact tensor from symmetrized products over a basis
    orthogonal under the real Hilbert-Schmidt pairing."""
    d = len(basis_cm)
    norms = [_cm_hs(B, B) for B in basis_cm]
    half = Fraction(1, 2)

    def expand(X):
        return [_cm_hs(basis_cm[k], X) / norms[k] for k in range(d)]

    tensor = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = _cm_scale(half, _cm_add(_cm_mul(basis_cm[i], basis_cm[j]),
                                           _cm_mul(basis_cm[j], basis_cm[i])))
            row.append(expand(prod))
        tensor.append(row)
    ident = _cm(re=[[ONE if i == j else ZERO for j in range(len(basis_cm[0][0]))]
                    for i in range(len(basis_cm[0][0]))])
    unit = expand(ident)
    return JordanAlgebra(kind, d, unit, tensor, True,
                         params={"n": n, "basis": basis_cm, "labels": labels})


def real_symmetric(n: int) -> JordanAlgebra:
    """Symmetric n x n real matrices with the symmetrized product."""
    basis, labels = [], []
    for i in range(n):
        re = _zmat(n)
        re[i][i] = ONE
        basis.append(_cm(re=re))
        labels.append(f"E{i}{i}")
    for i in range(n):
        for j in range(i + 1, n):
            re = _zmat(n)
            re[i][j] = re[j][i] = ONE
            basis.append(_cm(re=re))
            labels.append(f"S{i}{j}")
    return _matrix_kind(f"RealSym({n})", n, basis, labels)


def complex_hermitian(n: int) -> JordanAlgebra:
    """Hermitian n x n complex matrices with the symmetrized product."""
    basis, labels = [], []
    for i in range(n):
        re = _zmat(n)
        re[i][i] = ONE
        basis.append(_cm(re=re))
        labels.append(f"E{i}{i}")
    for i in range(n):
        for j in range(i + 1, n):
            re = _zmat(n)
            re[i][j] = re[j][i] = ONE
            basis.append(_cm(re=re))
            labels.append(f"S{i}{j}")
            im = _zmat(n)
            im[i][j] = ONE
            im[j][i] = -ONE
            basis.append(_cm(im=im, n=n))
            labels.append(f"A{i}{j}")
    return _matrix_kind(f"ComplexHerm({n})", n, basis, labels)


def _quat_block(q: str, n: int, i: int, j: int):
    """Hermitian matrix with quaternion unit q at (i,j), conjugate at (j,i),
    embedded as a 2n x 2n complex matrix."""
    re, im = _zmat(2 * n), _zmat(2 * n)
    # block (i,j) gets the 2x2 image of q; block (j,i) its conjugate-transpose
    r, c = 2 * i, 2 * j
    if q == "1":
        re[r][c] = re[r + 1][c + 1] = ONE
        re[c][r] = re[c + 1][r + 1] = ONE
    elif q == "i":
        im[r][c] = ONE
        im[r + 1][c + 1] = -ONE
        im[c][r] = -ONE
        im[c + 1][r + 1] = ONE
    elif q == "j":
        re[r][c + 1] = ONE
        re[r + 1][c] = -ONE
        re[c + 1][r] = ONE
        re[c][r + 1] = -ONE
    elif q == "k":
        im[r][c + 1] = ONE
        im[r + 1][c] = ONE
        im[c + 1][r] = -ONE
        im[c][r + 1] = -ONE
    return (re, im)


def quaternionic_hermitian(n: int) -> JordanAlgebra:
    """Hermitian n x n quaternionic matrices, doubled into complex blocks."""
    basis, labels = [], []
    for i in range(n):
        re = _zmat(2 * n)
        re[2 * i][2 * i] = re[2 * i + 1][2 * i + 1] = ONE
        basis.append(_cm(re=re))
        labels.append(f"E{i}{i}")
    for i in range(n):
        for j in range(i + 1, n):
            for q in "1ijk":
                basis.append(_quat_block(q, n, i, j))
                labels.append(f"Q{q}{i}{j}")
    return _matrix_kind(f"QuatHerm({n})", n, basis, labels)


def spin_factor(n: int) -> JordanAlgebra:
    """R^n + R with (x,s)∘(y,t) = (t x + s y, <x,y> + s t); unit (0,1)."""
    d = n + 1
    tensor = []
    for i in range(d):
        row = []
        for j in range(d):
            out = [Fraction(0)] * d
            if i < n and j < n:
                out[n] = ONE if i == j else ZERO
            elif i == n and j == n:
                out[n] = ONE
            elif i == n:
                out[j] = ONE
            else:
                out[i] = ONE
            row.append(out)
        tensor.append(row)
    unit = [Fraction(0)] * n + [ONE]
    return JordanAlgebra(f"SpinFactor({n})", d, unit, tensor, True,
                         params={"n": n})


def real_line() -> JordanAlgebra:
    return JordanAlgebra("RealSym(1)", 1, [ONE], [[[ONE]]], True,
                         params={"n": 1})


def direct_sum(parts: list[JordanAlgebra]) -> JordanAlgebra:
    if not all(p.exact for p in parts):
        raise ValueError("direct sums are built from exact catalog algebras")
    offs, d = [], 0
    for p in parts:
        offs.append(d)
        d += p.dim
    tensor = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    unit = [Fraction(0)] * d
    for p, o in zip(parts, offs):
        for i in range(p.dim):
            unit[o + i] = p.unit[i]
            for j in range(p.dim):
                for k in range(p.dim):
                    tensor[o + i][o + j][o + k] = p.tensor[i][j][k]
    kind = "DirectSum(" + ", ".join(p.kind for p in parts) + ")"
    return JordanAlgebra(kind, d, unit, tensor, True,
                         params={"parts": parts, "offsets": offs})


def classical_algebra(n: int) -> JordanAlgebra:
    """R^n with the componentwise product."""
    return direct_sum([real_line() for _ in range(n)])


CATALOG = {
    "RealSym": real_symmetric,
    "ComplexHerm": complex_hermitian,
    "QuatHerm": quaternionic_hermitian,
    "SpinFactor": spin_factor,
}


# ---------------------------------------------------------------------------
# the `Fraction` bodies of the invariant-form checks

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


def pairwise_form_positivity(gens: list[Vec], form: Mat
                             ) -> tuple[Fraction, tuple]:
    best = None
    arg = ()
    for i, g in enumerate(gens):
        fg = mat_vec(form, g)
        for k, h in enumerate(gens):
            v = dot(h, fg)
            if best is None or v < best:
                best, arg = v, (i, k)
    return best, arg


def fixed_covector_dim(E: OrderUnitSpace) -> int:
    """Dimension of {w : M^T w = w for every action M}."""
    K = _Kind(E.kind)
    rows = [K.array(M).T - K.array(np.eye(E.dim, dtype=int))
            for M in rational_actions(E)]
    return len(K.nullspace(np.concatenate([K.zeros((0, E.dim)), *rows])))


def certify_flags(form, E: OrderUnitSpace, tol: float = 1e-9) -> None:
    from kvwb.models import distinguishable_pairs
    K = _Kind(form.kind, tol)
    M = K.array(form.matrix)
    u = K.array(E.u)
    form.normalized = K.is_zero(u @ M @ u - 1)
    outs = E.model.outcomes
    V = K.array([E.outcome_vectors[x] for x in outs])
    G = V @ M @ V.T
    at = {x: i for i, x in enumerate(outs)}
    pairs = distinguishable_pairs(E.model)
    form.orthogonalizing = K.is_zero(G[[at[a] for a, _ in pairs],
                                       [at[b] for _, b in pairs]])
    form.positive_on_cone = bool(G.min() >= -K.tol)
    form.positive_definite = (is_positive_definite(form.matrix) if K.exact
                              else bool(np.linalg.eigvalsh(M).min() > tol))


def check_unitarity(actions, B, tol: float = 1e-9) -> bool:
    K = _Kind(B.kind, tol)
    Bm = K.array(B.matrix)
    if K.rank(Bm) < len(Bm):
        raise ValueError("unitarity check needs an invertible form")
    return all(K.is_zero(M.T @ Bm @ M - Bm) for M in map(K.array, actions))


# ---------------------------------------------------------------------------
# the float path's per-outcome and per-vector loops, and the `Fraction`
# combinations of the weak self-duality search

def from_coords(self, v: np.ndarray) -> np.ndarray:
    out = np.zeros((self.dim, self.dim), dtype=complex)
    for c, B in zip(v, self.mats, strict=True):
        out += c * B
    return out


def _build_float(m: Model) -> OrderUnitSpace:
    qb: QuantumBackend = m.states
    basis = qb.basis
    stacked = qb.outcome_coords(m.outcomes)
    coords = dict(zip(m.outcomes, stacked))
    span = int(np.linalg.matrix_rank(stacked, tol=1e-9))
    notes = []
    if span < basis.space_dim:
        notes.append(f"sampled outcomes span only {span} of "
                     f"{basis.space_dim} effect dimensions")
    collapse = []
    labels = list(m.outcomes)
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            if np.allclose(coords[x], coords[y], atol=1e-12):
                collapse.append((x, y))
    return OrderUnitSpace(model=m, kind="float", dim=basis.space_dim,
                          u=basis.unit_coords, outcome_vectors=coords,
                          basis=basis, span_dim=span, collapse=collapse,
                          notes=notes)


def _conditional_in_cone(other: Model, vec, tol: float):
    """Is an unnormalized conditional in the cone over the partner's states?"""
    if isinstance(other.states, PolytopeBackend):
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
    qb: QuantumBackend = other.states
    rows = qb.outcome_coords(other.outcomes)
    sol, res, rk, _ = np.linalg.lstsq(rows, np.asarray(vec, float), rcond=None)
    resid = float(np.abs(rows @ sol - np.asarray(vec, float)).max())
    if resid > tol:
        return False, f"no operator reproduces the conditional (residual {resid:.2e})"
    if rk < qb.basis.space_dim:
        return True, "sample not informationally complete; PSD untested"
    H = from_coords(qb.basis, sol)
    lo = float(np.linalg.eigvalsh((H + H.conj().T) / 2).min())
    if lo < -tol:
        return False, f"conditional operator not PSD (min eig {lo:.2e})"
    return True, None


def validate_bipartite(w: BipartiteState, tol: float = 1e-9) -> BipartiteReport:
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
    for x in w.A.outcomes:
        ok, why = _conditional_in_cone(w.B, w.row(x), tol)
        if not ok:
            problems.append(f"conditional on {x!r}: {why}")
        elif why:
            notes.append(f"conditional on {x!r}: {why}")
    for y in w.B.outcomes:
        ok, why = _conditional_in_cone(w.A, w.column(y), tol)
        if not ok:
            problems.append(f"conditional on second-factor {y!r}: {why}")
        elif why:
            notes.append(f"conditional on second-factor {y!r}: {why}")
    neg = [(k, v) for k, v in w.table.items() if v < -K.tol]
    if neg:
        problems.append(f"negative entries: {neg[:3]}")
    return BipartiteReport(not problems, problems, notes)


def _entangled_eta(m: Model, gamma: dict[str, str],
                   tol: float) -> BipartiteState:
    """Analytic conjugate table from the maximally entangled vector.

    For the canonical entangled vector the joint value on (x, gamma(y)) is
    tr(x y)/d; equivalently the table entry at (x, z) is tr(x conj(z))/d.
    The construction is verified (diagonal, normalization, hermiticity of
    the pairing) rather than searched for.
    """
    qb: QuantumBackend = m.states
    d = qb.dim
    for x in m.outcomes:
        gm = qb.outcome_matrices[gamma[x]]
        if np.abs(gm - qb.outcome_matrices[x].conj()).max() > tol:
            raise CompositeError(
                f"gamma({x!r}) is not the conjugated effect; the entangled "
                "construction needs the conjugation bijection")
    table = {}
    for x in m.outcomes:
        for z in m.outcomes:
            val = np.trace(qb.outcome_matrices[x]
                           @ qb.outcome_matrices[z].conj()) / d
            if abs(val.imag) > 1e-12:
                raise CompositeError(f"entangled table not real at ({x},{z})")
            table[(x, z)] = float(val.real)
    w = BipartiteState(m, m, table)
    for x in m.outcomes:
        if abs(w.table[(x, gamma[x])] - 1.0 / d) > tol:
            raise CompositeError(f"diagonal at {x!r} is not 1/{d}")
    rep = validate_bipartite(w, tol)
    if not rep.ok:
        raise CompositeError(f"entangled table invalid: {rep.problems[:2]}")
    return w


def psd_failures(w: BipartiteState, W, W_inv, E_A, E_B, tol: float) -> list:
    """The per-outcome PSD tests of the float `is_isomorphism_state`, on the
    induced map W and its inverse."""
    failures = []
    for stage, M, E_x, E_y, outs in (
            ("forward", W, E_A, E_B, w.A.outcomes),
            ("inverse", W_inv, E_B, E_A, w.B.outcomes)):
        for x in outs:
            H = from_coords(E_y.basis,
                            M @ np.asarray(E_x.outcome_vectors[x]))
            lo = float(np.linalg.eigvalsh((H + H.conj().T) / 2).min())
            if lo < -tol:
                failures.append({"stage": stage, "outcome": x,
                                 "min_eig": lo})
    return failures


def _try_bijection(R, S, perm, d):
    """Solve M r_i = lam_i s_{perm(i)}, lam_i > 0, det M != 0 — or rule it out."""
    from kvwb.linalg import nullspace

    m = len(R)
    rows = []
    for i in range(m):
        s = S[perm[i]]
        r = R[i]
        for c in range(d):
            row = [ZERO] * (d * d + m)
            for k in range(d):
                row[c * d + k] = r[k]
            row[d * d + i] = -s[c]
            rows.append(row)
    basis = nullspace(rows)
    if not basis:
        return False, None, None, None
    # scaling freedom: any all-positive lambda solution rescales to lambda >= 1
    ineqs = []
    for i in range(m):
        coeffs = [b[d * d + i] for b in basis]
        ineqs.append((coeffs, ONE))
    res = free_feasibility(lp_rows([a for a, _ in ineqs],
                                   [c for _, c in ineqs]), [], len(basis))
    if not res.feasible:
        return False, None, None, None
    combos = [res.point]
    for b in range(len(basis)):
        for eps in (Fraction(1, 7), Fraction(-1, 7)):
            shifted = list(res.point)
            shifted[b] += eps
            if all(sum(c * basis[k][d * d + i] for k, c in enumerate(shifted)) > 0
                   for i in range(m)):
                combos.append(shifted)
    for combo in combos:
        vec = [sum(c * basis[k][j] for k, c in enumerate(combo))
               for j in range(d * d + m)]
        M = [[vec[r * d + c] for c in range(d)] for r in range(d)]
        if det(M) != 0:
            lams = [vec[d * d + i] for i in range(m)]
            return True, M, lams, None
    return False, None, None, f"bijection {perm}: solutions exist but all sampled maps singular"


# ---------------------------------------------------------------------------
# the sampled witness report of the old homogeneity stage

@dataclass
class HomogeneityReport:
    witness_ok: list
    covered: list            # per sample: index of covering witness or None
    uncovered: list
    verified_on_samples: bool
    notes: list = field(default_factory=list)


def homogeneity_report(E: OrderUnitSpace, witnesses: list,
                       samples: list, tol: float = 1e-9) -> HomogeneityReport:
    """Which sampled interior states of E's model are marginals of
    isomorphism states?

    A hypothesis-checking report, not a proof of homogeneity: each witness
    (a bipartite state of the model with itself) is verified to be an
    isomorphism state on E, its marginal computed, and each sample matched
    against the verified marginals.  A witness given as a pair (state,
    `IsomorphismStateReport`) brings the verdict already taken on E with
    `tol`, as the pipeline's conjugate stage does for eta, and is not
    checked again.
    """
    m = E.model
    K = _Kind(E.kind, tol)
    witness_ok, margs = [], []
    for w in witnesses:
        w, rep = w if isinstance(w, tuple) else (w, None)
        if w.A is not m or w.B is not m:
            witness_ok.append(False)
            margs.append(None)
            continue
        rep = rep or is_isomorphism_state(w, E, E, tol)
        witness_ok.append(rep.is_iso)
        margs.append(marginal(w, "A") if rep.is_iso else None)
    covered, uncovered = [], []
    for i, s in enumerate(samples):
        hit = next((j for j, mg in enumerate(margs) if mg is not None
                    and K.is_zero(K.array(mg) - K.array(s))), None)
        covered.append(hit)
        if hit is None:
            uncovered.append(i)
    notes = ["hypothesis-checking report on the given samples, not a proof "
             "of homogeneity"]
    return HomogeneityReport(witness_ok, covered, uncovered,
                             not uncovered and bool(samples), notes)


def _barycenter(vertices) -> list:
    n = len(vertices)
    return [sum(col, Fraction(0)) / n for col in zip(*vertices)]


def _homogeneity_inputs(m: models.Model, eta, eta_iso):
    """Deterministic interior samples plus whatever witnesses we can build.

    Single-test polytope models get one diagonal witness per sample (the
    table supported on the diagonal with the sample as its profile), which
    covers the sample whenever the diagonal map is an order isomorphism.
    Everything else relies on the conjugate state's marginal; eta comes
    with the conjugate stage's isomorphism verdict, so it is checked once.
    """
    witnesses = []
    if eta is not None:
        witnesses.append((eta, eta_iso))
    if isinstance(m.states, models.PolytopeBackend):
        bary = _barycenter(m.states.vertices)
        samples = [bary]
        if len(m.tests) == 1:
            n = len(m.outcomes)
            total = n * (n + 1) // 2
            samples.append([Fraction(i + 1, total) for i in range(n)])
            for s in samples:
                table = {(x, y): (s[i] if x == y else Fraction(0))
                         for i, x in enumerate(m.outcomes)
                         for y in m.outcomes}
                witnesses.append(composites.BipartiteState(m, m, table))
    else:
        qb = m.states
        mixed = [float(np.trace(np.asarray(qb.outcome_matrices[x])).real)
                 / qb.dim for x in m.outcomes]
        samples = [mixed]
    return witnesses, samples


def float_recovery_gates(p: RecoveryProblem, tensor) -> dict:
    """The float verdicts of `recover_jordan_product`'s `form_pd`,
    `unit_interior_heuristic` and `trace_form_pd` gates on the problem p
    and its recovered tensor, as every problem computed them before exact
    ones decided them on rationals."""
    p = rational_problem(p)
    B = np.asarray(p.B, float)
    eig = np.linalg.eigvalsh((B + B.T) / 2)
    u = np.asarray(p.u, float)
    T_star = np.asarray(tensor, float) + 0.0    # no negative zeros
    G = np.einsum("ijm,m->ij", T_star, np.einsum("mkk->m", T_star))
    return {"form_pd": bool(eig.min() > 0),
            "unit_interior_heuristic": all(
                float(np.asarray(g, float) @ B @ u) > 1e-12
                for g in p.cone_generators),
            "trace_form_pd": bool(
                np.linalg.eigvalsh((G + G.T) / 2).min() > 1e-10)}


# ---------------------------------------------------------------------------
# the certificates that the cone layer now reads off what a run already holds:
# the membership LP's separator (`separating_functional`) that the first
# violated generator of the dual (`kvwb.cones.separators`) replaced, and the
# `Fraction` body of `kvwb.lp.check_certificate` that integer rows replaced
# (both verbatim)

def separating_functional(K: PolyhedralCone, v: Vec) -> Vec:
    """The membership LP's separating functional for a v found outside K by
    `dual_contains`; an LP that finds v inside raises `CertificateError`."""
    res = cone_contains(K, v)
    if res.feasible:
        raise CertificateError(f"vector {list(v)} is outside the cone by its "
                               "dual's rays but inside by the LP")
    return res.farkas


def check_certificate(rows: list[dict[int, Fraction]], b: Vec, ncols: int,
                      res: LPResult) -> None:
    """Re-check `res` against {x >= 0 : A x = b} by exact substitution, row
    i of A given sparsely as {column: coefficient}: raise CertificateError
    unless the point is nonnegative with A x = b, or the Farkas vector has
    yᵀA <= 0 and yᵀb > 0.

    `solve_feasibility` checks its own answers with it; callers check with
    it certificates that were not found on this system, such as ones lifted
    from a reduced LP.
    """
    if res.feasible:
        x = res.point
        if len(x) != ncols or not all(xx >= 0 for xx in x):
            raise CertificateError("feasible point is not a nonnegative "
                                   f"vector of length {ncols}")
        for row, bb in zip(rows, b, strict=True):
            if sum((a * x[j] for j, a in row.items()), ZERO) != bb:
                raise CertificateError("feasible point failed row check")
        return
    y = res.farkas
    cols = [ZERO] * ncols
    for yy, row in zip(y, rows, strict=True):
        if yy:
            for j, a in row.items():
                cols[j] += yy * a
    if any(c > 0 for c in cols):
        raise CertificateError("farkas certificate failed column check")
    if not dot(y, b) > 0:
        raise CertificateError("farkas certificate failed rhs check")



# ---------------------------------------------------------------------------
# the cubic-form rows as `kvwb.jordan._cubic_rows` built them before it took
# the scaled inverse of B from its caller and accumulated float rows with
# `np.bincount` (verbatim, but for the name)

def cubic_rows_add_at(p: RecoveryProblem, K: _Kind):
    """The linear constraints A s = b on the cubic form S(x, y, z) =
    B(x ∘ y, z), totally symmetric for an associative B: the unknown
    s[idx[i, j, k]] is one entry per sorted triple i ≤ j ≤ k.

    With T[i, j, :] = B⁻ᵀ S[i, j, :] the coordinates of e_i ∘ e_j, the
    blocks are the unit law Σᵢ uᵢ S[i, j, k] = B[j, k] (row (j, k), term i);
    equivariance BᵀMB⁻ᵀ S[i, j, :] = Σ_ab M[a, i] M[b, j] S[a, b, :] (row
    (i ≤ j, k), terms m, then (a, b)); and idempotence
    Σ g_i g_j S[i, j, :] = Bᵀg (row k, terms i ≤ j).  Columns and values
    are laid out by broadcasting; on floats one `np.add.at` accumulates them
    into A, and the result is (A, b).  Rational inputs are scaled to
    integers (`_Kind.scaled`), each row times the product of its scales, and the
    triples are summed into sparse rows of Python ints, {column: value}
    with the right-hand side in column `ncols`, zeros left out; the result
    is (rows, ncols), the rational rows up to a positive factor each.
    """
    p = rational_problem(p)
    d = p.dim
    idx = _triple_index(d)
    ncols = d * (d + 1) * (d + 2) // 6
    dtype = object if K.exact else float
    B = K.array(p.B)
    s_B, Bn = K.scaled(B)
    s_Bi, Bin = K.scaled(kind_inverse(K, B))
    iu, ju = np.triu_indices(d)
    R = len(iu)
    rows, cols, vals, rhs = [], [], [], []

    def add(c, v, b):
        """Append rows with right-hand side b: columns c shaped (row axes,
        term axes), values v broadcast to that shape."""
        n0 = sum(map(len, rhs))
        rows.append(np.repeat(np.arange(n0, n0 + len(b)), c.size // len(b)))
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, c.shape).ravel())
        rhs.append(b)

    s_u, u = K.scaled(p.u)
    add(idx.transpose(1, 2, 0).reshape(d * d, d), u * s_B,
        (Bn * s_u).ravel())
    c_m = np.broadcast_to(idx[iu, ju][:, None, :], (R, d, d))
    c_ab = np.broadcast_to(idx.reshape(d * d, d).T, (R, d, d * d))
    for M in p.actions:
        s_M, M = K.scaled(M)
        v_ab = -(M[:, iu].T[:, :, None] * M[:, ju].T[:, None, :])
        add(np.concatenate([c_m, c_ab], axis=-1),
            np.concatenate([np.broadcast_to(Bn.T @ M @ Bin.T * s_M,
                                            (R, d, d)),
                            np.broadcast_to(v_ab.reshape(R, 1, d * d)
                                            * (s_B * s_Bi),
                                            (R, d, d * d))], axis=-1),
            np.zeros(R * d, dtype))
    for g in p.outcome_vectors:
        s_g, g = K.scaled(g)
        prod = g[iu] * g[ju] * s_B
        add(idx[iu, ju].T, np.where(iu != ju, prod * 2, prod),
            Bn.T @ g * s_g)
    b = np.concatenate(rhs)
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    if K.exact:
        out = sparse_int_rows(rows, cols, vals, len(b))
        for row, bb in zip(out, b.tolist()):
            if bb:
                row[ncols] = bb
        return out, ncols
    A = np.zeros((len(b), ncols))
    np.add.at(A, (rows, cols), vals)
    return A, b


def quadratic_rep(J: JordanAlgebra, a) -> np.ndarray:
    """P(a) = 2 L_a^2 - L_{a∘a}."""
    La = J.left_mult(a)
    La2 = J.left_mult(J.product(a, a))
    return 2 * (La @ La) - La2


# ---------------------------------------------------------------------------
# the `Fraction` double description and the per-state effect actions

def ray_primitive(v: Vec) -> tuple[Fraction, ...]:
    """Canonical representative of a ray: integer entries, gcd 1, sign kept."""
    v = [frac(x) for x in v]
    s = math.lcm(*(x.denominator for x in v))
    ints = [int(x * s) for x in v]
    g = math.gcd(*ints) or 1
    return tuple(Fraction(x // g) for x in ints)


def halfspace_cone_rays(constraints: list[Vec], dim: int
                        ) -> tuple[list[Vec], list[Vec]]:
    """Minimal (lineality, extreme rays) of {x : a.x >= 0 for each a}.

    Incremental double description.  Rays carry the set of constraints they
    satisfy with equality; adjacency of two rays is decided combinatorially
    (no third ray's tight set contains their common tight set).
    """
    lin: list[Vec] = [[ONE if i == j else ZERO for j in range(dim)]
                      for i in range(dim)]
    rays: list[tuple[tuple[Fraction, ...], frozenset[int]]] = []

    for j, a in enumerate(constraints):
        a = [frac(x) for x in a]
        vals = [dot(a, l) for l in lin]
        pivot = next((i for i, v in enumerate(vals) if v != 0), None)
        if pivot is not None:
            l0 = list(lin[pivot])
            v0 = vals[pivot]
            if v0 < 0:
                l0 = [-x for x in l0]
                v0 = -v0
            new_lin = []
            for i, l in enumerate(lin):
                if i == pivot:
                    continue
                c = vals[i] / v0
                new_lin.append([l[k] - c * l0[k] for k in range(dim)])
            new_rays = []
            for vec, tight in rays:
                c = dot(a, list(vec)) / v0
                nv = ray_primitive([vec[k] - c * l0[k] for k in range(dim)])
                new_rays.append((nv, tight | {j}))
            new_rays.append((ray_primitive(l0), frozenset(range(j))))
            lin, rays = new_lin, _dedup(new_rays)
            continue

        pos, zero, neg = [], [], []
        for vec, tight in rays:
            s = dot(a, list(vec))
            if s > 0:
                pos.append((vec, tight, s))
            elif s == 0:
                zero.append((vec, tight | {j}))
            else:
                neg.append((vec, tight, s))
        if not neg:
            rays = _dedup([(v, t | {j}) if dot(a, list(v)) == 0 else (v, t)
                           for v, t in rays])
            continue
        current = [(v, t) for v, t, _ in pos] + zero + [(v, t) for v, t, _ in neg]
        new_rays = [(v, t) for v, t, _ in pos] + zero
        for (pv, pt, ps) in pos:
            for (nv, nt, ns) in neg:
                common = pt & nt
                if any((rv != pv and rv != nv and common <= rt)
                       for rv, rt in current):
                    continue
                w = [ps * nv[k] - ns * pv[k] for k in range(dim)]
                wp = ray_primitive(w)
                if any(x != 0 for x in wp):
                    new_rays.append((wp, common | {j}))
        rays = _dedup(new_rays)

    return [list(l) for l in lin if any(x != 0 for x in l)], \
           [list(v) for v, _ in rays]


def _dedup(rays):
    seen: dict[tuple, frozenset] = {}
    order = []
    for v, t in rays:
        if v in seen:
            seen[v] = seen[v] | t
        else:
            seen[v] = t
            order.append(v)
    return [(v, seen[v]) for v in order]


def effect_action(self: OrderUnitSpace, g) -> object:
    """Matrix of the effect-space action of a symmetry generator.

    For an outcome permutation g the action sends the effect of x to the
    effect of g(x); the matrix is exact.  Unitary generators already come
    as coordinate matrices.
    """
    if self.kind == "float":
        return g  # UnitaryGenerators store ready-made matrices
    m = self.model
    verts = m.states.vertices
    cols = [list(verts[i]) for i in self.basis_states]
    A = transpose(cols)
    ginv = g if isinstance(g, tuple) else tuple(g)
    ginv = perm_inverse(ginv)
    rows = []
    for i in self.basis_states:
        moved = act_on_state(ginv, verts[i])
        c = solve(A, list(moved))
        if c is None:
            raise EffectSpaceError("symmetry moved a basis state outside "
                                   "the state span")
        rows.append(c)
    return rows


# ---------------------------------------------------------------------------
# the hull's facets, positive maps and order isomorphisms

def polytope_hrep(vertices: list[Vec]) -> tuple[list[tuple[Vec, Fraction]],
                                                list[tuple[Vec, Fraction]]]:
    """Facet inequalities a.x + c >= 0 and equalities a.x + c = 0 of a hull."""
    if not vertices:
        raise ValueError("empty polytope")
    dim = len(vertices[0])
    lifted = [list(v) + [ONE] for v in vertices]
    lin, rays = halfspace_cone_rays(lifted, dim + 1)
    ineqs = [(r[:dim], r[dim]) for r in rays]
    eqs = [(l[:dim], l[dim]) for l in lin]
    return ineqs, eqs


@dataclass
class PositiveMapReport:
    positive: bool
    certificates: list[dict]


def is_positive_map(T: Mat, src: PolyhedralCone, tgt: PolyhedralCone
                    ) -> PositiveMapReport:
    certs = [_witness(g, cone_contains(tgt, img), image=img)
             for g in src.all_generators() for img in [mat_vec(T, list(g))]]
    return PositiveMapReport(all(c["inside"] for c in certs), certs)


@dataclass
class OrderIsoReport:
    order_iso: bool
    invertible: bool
    forward: PositiveMapReport
    backward: Optional[PositiveMapReport]


def is_order_isomorphism(T: Mat, src: PolyhedralCone, tgt: PolyhedralCone
                         ) -> OrderIsoReport:
    Tinv = inverse(T)
    if Tinv is None:
        return OrderIsoReport(False, False,
                              PositiveMapReport(False, []), None)
    fwd = is_positive_map(T, src, tgt)
    bwd = is_positive_map(Tinv, tgt, src)
    return OrderIsoReport(fwd.positive and bwd.positive, True, fwd, bwd)


# ---------------------------------------------------------------------------
# the bodies that read `Fraction` matrices and scaled them to integers on
# each call (`_Kind.scaled`), before the effect space, the forms and the
# recovered algebra held their pairs (s, s·X) of integers: the exact
# `invariance_rows`, `_fixed_covector_dim`, `check_unitarity` and
# `certify_flags` of `kvwb.forms`, verbatim but for the names and for
# `scaled_fixed_covector_dim` reading the actions through
# `rational_actions`; the outcome frame's one rank per outcome of
# `OrderUnitSpace.outcome_frame`; and the `Fraction` lift of
# `kvwb.jordan._linear_stage` on an exact problem, verbatim but for the
# rows of `cubic_rows_add_at` and the inverse of `kind_inverse`

def scaled_invariance_rows(actions, dim: int, kind: str) -> np.ndarray:
    K = _Kind(kind)
    iu, ju = np.triu_indices(dim)
    blocks = [K.zeros((0, len(iu)))]
    for s, A in map(K.scaled, actions):
        rows = _packed_rows(A.T[iu], A.T[ju])
        rows[np.diag_indices(len(iu))] -= s * s
        blocks.append(rows)
    return np.concatenate(blocks)


def scaled_fixed_covector_dim(E: OrderUnitSpace) -> int:
    K = _Kind(E.kind)
    I = np.identity(E.dim, dtype=object if K.exact else float)
    rows = [A.T - s * I for s, A in map(K.scaled, rational_actions(E))]
    return len(K.nullspace(np.concatenate([K.zeros((0, E.dim)), *rows])))


def scaled_check_unitarity(actions, B, tol: float = 1e-9) -> bool:
    K = _Kind(B.kind, tol)
    Bm = K.scaled(B.matrix)[1]
    if K.rank(Bm) < len(Bm):
        raise ValueError("unitarity check needs an invertible form")
    return all(K.is_zero(A.T @ Bm @ A - s * s * Bm)
               for s, A in map(K.scaled, actions))


def scaled_certify_flags(form, E: OrderUnitSpace, tol: float = 1e-9) -> None:
    from kvwb.models import distinguishable_pairs
    K = _Kind(form.kind, tol)
    s, M = K.scaled(form.matrix)
    s_u, u = K.scaled(E.u)
    form.normalized = K.is_zero(u @ M @ u - s_u * s_u * s)
    V = _outcome_rows(E, K)
    G = V @ M @ V.T
    at = {x: i for i, x in enumerate(E.model.outcomes)}
    pairs = distinguishable_pairs(E.model)
    form.orthogonalizing = K.is_zero(G[[at[a] for a, _ in pairs],
                                       [at[b] for _, b in pairs]])
    form.positive_on_cone = bool(G.min() >= -K.tol)
    form.positive_definite = (linalg.is_positive_definite(M) if K.exact
                              else bool(np.linalg.eigvalsh(M).min() > tol))


def rank_loop_positions(E: OrderUnitSpace) -> list[int]:
    """The outcome frame's positions: an outcome joins the family when it
    raises its rank, one `_Kind.rank` per outcome."""
    K = _Kind(E.kind)
    V = K.array([E.outcome_vectors[x] for x in E.model.outcomes])
    at: list[int] = []
    for i in range(len(V)):
        if K.rank(V[at + [i]]) == len(at) + 1:
            at.append(i)
        if len(at) == E.dim:
            break
    else:
        raise EffectSpaceError("sampled outcomes do not span the effect "
                               "space")
    return at


def fraction_linear_stage(p: RecoveryProblem):
    """The product tensors of an exact problem, stacked on a last axis, as
    nested `Fraction`s: one solution, then a basis of the homogeneous ones;
    None when the rows are inconsistent."""
    K = _Kind("exact")
    s_Bi, Bin = K.scaled(kind_inverse(K, K.array(rational_problem(p).B)))
    x, null = linalg.solve_with_nullspace(*cubic_rows_add_at(p, K))
    if x is None:
        return None
    X = K.array([x] + null).T
    d = p.dim
    iu, ju = np.triu_indices(d)
    S = X[_triple_index(d)[iu, ju]]                  # (pairs, k, columns)
    R, _, c = S.shape
    s_S, S = K.scaled(S.transpose(1, 0, 2).reshape(d, R * c))
    Tp = K.array(Bin.T @ S) / (s_Bi * s_S)
    Tp = Tp.reshape(d, R, c).transpose(1, 0, 2)
    T = K.array(np.zeros((d, d, d, c), dtype=int))
    T[iu, ju] = Tp
    T[ju, iu] = Tp
    return T


# ---------------------------------------------------------------------------
# the lstsq float solve and the form count

def lstsq_solve_float(A: np.ndarray, b: np.ndarray):
    """Least-squares solution and nullspace basis (columns) of A t = b.

    The rank is read off the singular values `lstsq` returns, with the rule
    s > 1e-9 * s[0]; only a short rank pays for an SVD, a thin one when A
    has at least as many rows as columns (then `vt` is square) and a full
    one otherwise.  (None, None) when the system is inconsistent.
    """
    t0, _, _, s = np.linalg.lstsq(A, b, rcond=None)
    if float(np.abs(A @ t0 - b).max()) > 1e-7:
        return None, None
    rank = int((s > 1e-9 * s[0]).sum())
    if rank == A.shape[1]:
        return t0, np.zeros((A.shape[1], 0))
    vt = np.linalg.svd(A, full_matrices=len(A) < A.shape[1])[2]
    return t0, vt[rank:].T


def invariant_symmetric_forms(E: OrderUnitSpace) -> list:
    """Basis of symmetric forms with M_g^T B M_g = B for every generator.

    Invariance under the generators extends to the whole generated group,
    since the invariance condition is multiplicative in g, so the basis is
    one nullspace over the generator rows.
    """
    from kvwb.forms import BilinearForm, _unpack
    K = _Kind(E.kind)
    return [BilinearForm(_unpack(v, E.dim, K), E.kind, invariant=True)
            for v in K.nullspace(E.invariance_rows)]


def form_count_is_irreducible(E: OrderUnitSpace) -> bool:
    """`kvwb.forms.is_irreducible` counting a basis of the invariant forms
    and of the fixed covectors."""
    return (len(invariant_symmetric_forms(E))
            - scaled_fixed_covector_dim(E) == 1)


# ---------------------------------------------------------------------------
# the unmerged spin-form LP

def unmerged_spin_form(m, E: OrderUnitSpace):
    """The exact `kvwb.forms.find_orthogonalizing_spin_form` with one LP
    row per pair of effect-cone generators, before rows that are equal
    after gcd reduction were merged (verbatim, but for the float branch,
    which this oracle does not keep)."""
    from kvwb.forms import SpinFormResult, _unpack, certify_flags
    from kvwb.forms import BilinearForm as Form
    from kvwb.linalg import _lowest
    from kvwb.models import distinguishable_pairs
    K = _Kind("exact")
    dim = E.dim

    pairs = set()
    for a, b in distinguishable_pairs(m):
        if (b, a) not in pairs:
            pairs.add((a, b))
    pairs = sorted(pairs)
    V = _outcome_rows(E, K)
    at = {x: i for i, x in enumerate(E.model.outcomes)}
    X, Y = (V[[at[p[k]] for p in pairs]].reshape(-1, dim) for k in (0, 1))
    basis = K.nullspace(np.concatenate([E.invariance_rows,
                                        _packed_rows(X, Y)]))
    h = len(basis)
    if h == 0:
        return SpinFormResult(None, 0, ["only the zero form satisfies the "
                                        "linear constraints"])

    mats = [_unpack(v, dim, K) for v in basis]
    s, A = K.scaled(mats)                       # one denominator for all
    G = E.effect_cone.matrix
    s_u, U = E.scaled_unit
    iu, ju = np.triu_indices(len(G))
    ineqs = [({k: x for k, x in enumerate(col) if x}, s)
             for col in (G @ A @ G.T)[:, iu, ju].T.tolist()]
    q_u = s * s_u * s_u
    norm = {k: x for k, x in enumerate((U @ A @ U).tolist()) if x}
    res = free_feasibility(ineqs, [({**norm, h: q_u}, q_u)], h)
    if not res.feasible:
        return SpinFormResult(None, h, ["no cone-positive form on the "
                                        "normalized slice"])
    s_c, C = K.scaled(res.point)
    S = _lowest(s_c * s, np.tensordot(C, A, 1))
    form = Form(K.unscaled(S), "exact", invariant=True)
    form.scaled = S
    certify_flags(form, E)
    return SpinFormResult(form, h, [], basis=mats)


# ---------------------------------------------------------------------------
# canonical JSON

def jsonable(obj):
    """Recursively coerce to pure JSON types; exact rationals to strings."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "__dict__"):
        return {k: jsonable(v) for k, v in vars(obj).items()
                if not k.startswith("_")}
    return str(obj)


def dumps_canonical(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# membership and equality by LP, the one-vector PSD test and model
# isomorphism: helpers that no stage or command of the package reached,
# kept here as independent oracles

def cone_contains(K: PolyhedralCone, v: Vec) -> LPResult:
    """Is v in K?  One phase-one LP over K's generators, certified by a
    conic combination or a separating functional."""
    return lp.cone_membership(list(v), K.matrix.tolist())


def _witness(g, res: LPResult, **extra) -> dict:
    return {"generator": list(g), **extra, "inside": res.feasible,
            "certificate": res.point if res.feasible else res.farkas}


def cone_equal(K: PolyhedralCone, L: PolyhedralCone) -> tuple[bool, dict]:
    """Mutual inclusion by membership LPs; returns a verdict with witnesses."""
    detail = {key: [_witness(g, cone_contains(B, g)) for g in A.all_generators()]
              for key, A, B in (("K_in_L", K, L), ("L_in_K", L, K))}
    return all(w["inside"] for ws in detail.values() for w in ws), detail


def psd_contains(E: OrderUnitSpace, v, tol: float = 1e-9) -> bool:
    """Is v in the effect cone of a quantum space?  The full unitary orbit
    of the sampled rank-one effects generates the PSD cone, so: is the
    least eigenvalue of v's operator at least -tol?  One `eigvalsh`."""
    H = E.basis.from_coords(np.asarray(v, dtype=float))
    return float(np.linalg.eigvalsh((H + H.conj().T) / 2).min()) >= -tol


def models_isomorphic(m1: Model, m2: Model) -> Optional[dict[str, str]]:
    """Outcome relabelling carrying tests onto tests and states onto states."""
    if (len(m1.outcomes) != len(m2.outcomes) or len(m1.tests) != len(m2.tests)
            or m1.rank != m2.rank):
        return None
    if isinstance(m1.states, QuantumBackend) or isinstance(m2.states, QuantumBackend):
        raise models.ModelError("isomorphism search is polytope-only")
    if len(m1.states.vertices) != len(m2.states.vertices):
        return None

    sig1 = {x: sorted(map(len, (m1.tests[i] for i in m1.testspace.tests_containing(x))))
            for x in m1.outcomes}
    sig2 = {y: sorted(map(len, (m2.tests[i] for i in m2.testspace.tests_containing(y))))
            for y in m2.outcomes}
    t2 = {frozenset(t) for t in m2.tests}
    v2 = set(m2.states.vertices)

    def extend(assign: dict[str, str], remaining: list[str]) -> Optional[dict[str, str]]:
        if not remaining:
            for t in m1.tests:
                if frozenset(assign[x] for x in t) not in t2:
                    return None
            for v in m1.states.vertices:
                w = [ZERO] * len(v)
                for xi, x in enumerate(m1.outcomes):
                    w[m2.testspace.index(assign[x])] = v[xi]
                if tuple(w) not in v2:
                    return None
            return dict(assign)
        x = remaining[0]
        for y in m2.outcomes:
            if y in assign.values() or sig1[x] != sig2[y]:
                continue
            assign[x] = y
            ok = True
            for t in m1.tests:
                if all(z in assign for z in t):
                    if frozenset(assign[z] for z in t) not in t2:
                        ok = False
                        break
            if ok:
                res = extend(assign, remaining[1:])
                if res is not None:
                    return res
            del assign[x]
        return None

    return extend({}, list(m1.outcomes))


# ---------------------------------------------------------------------------
# the exact recovery over every sorted triple of coordinates, with one block
# of equivariance rows per action, that the orbit rows of
# `kvwb.jordan._orbit_stage` replaced: `kvwb.jordan._cubic_rows` as it built
# both kinds (`cubic_rows`, verbatim but for the name), the exact branch of
# `kvwb.jordan._linear_stage` (`cubic_linear_stage`) and the triple
# accumulator `kvwb.linalg.sparse_int_rows`, whose one caller it was

def sparse_int_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    nrows: int) -> list[dict[int, int]]:
    """The `nrows` sparse rows {column: int} whose (i, j) entry is the sum
    of the integer `vals` at the triples with rows == i and cols == j;
    entries that sum to 0 are left out."""
    out: list[dict[int, int]] = [{} for _ in range(nrows)]
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[r][c] = out[r].get(c, 0) + v
    return [{c: v for c, v in row.items() if v} for row in out]


def cubic_rows(p: RecoveryProblem, K: _Kind, B_inv: tuple):
    """The linear constraints A s = b on the cubic form S(x, y, z) =
    B(x ∘ y, z), totally symmetric for an associative B: the unknown
    s[idx[i, j, k]] is one entry per sorted triple i ≤ j ≤ k.  B_inv is
    `K.inverse(p.B)`, which the caller also lifts with.

    With T[i, j, :] = B⁻ᵀ S[i, j, :] the coordinates of e_i ∘ e_j, the
    blocks are the unit law Σᵢ uᵢ S[i, j, k] = B[j, k] (row (j, k), term i);
    equivariance BᵀMB⁻ᵀ S[i, j, :] = Σ_ab M[a, i] M[b, j] S[a, b, :] (row
    (i ≤ j, k), terms m, then (a, b)); and idempotence
    Σ g_i g_j S[i, j, :] = Bᵀg (row k, terms i ≤ j).  Columns and values
    are laid out by broadcasting; on floats one `np.bincount` accumulates
    them into A, in input order as `np.add.at` would, and the result is
    (A, b).  Exact inputs are integers over their scales, each row is
    taken times the product of its scales, and the nonzero triples are
    summed into sparse rows of Python ints, {column: value} with the
    right-hand side in column `ncols`, zeros left out; the result is (rows,
    ncols), the rational rows up to a positive factor each.
    """
    d = p.dim
    idx = _triple_index(d)
    ncols = d * (d + 1) * (d + 2) // 6
    dtype = object if K.exact else float
    (s_B, Bn), (s_Bi, Bin) = p.B, B_inv
    iu, ju = np.triu_indices(d)
    R = len(iu)
    rows, cols, vals, rhs = [], [], [], []

    def add(c, v, b):
        """Append rows with right-hand side b: columns c shaped (row axes,
        term axes), values v broadcast to that shape."""
        n0 = sum(map(len, rhs))
        rows.append(np.repeat(np.arange(n0, n0 + len(b)), c.size // len(b)))
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, c.shape).ravel())
        rhs.append(b)

    s_u, u = p.u
    add(idx.transpose(1, 2, 0).reshape(d * d, d), u * s_B,
        (Bn * s_u).ravel())
    c_m = np.broadcast_to(idx[iu, ju][:, None, :], (R, d, d))
    c_ab = np.broadcast_to(idx.reshape(d * d, d).T, (R, d, d * d))
    for s_M, M in p.actions:
        v_ab = -(M[:, iu].T[:, :, None] * M[:, ju].T[:, None, :])
        add(np.concatenate([c_m, c_ab], axis=-1),
            np.concatenate([np.broadcast_to(Bn.T @ M @ Bin.T * s_M,
                                            (R, d, d)),
                            np.broadcast_to(v_ab.reshape(R, 1, d * d)
                                            * (s_B * s_Bi),
                                            (R, d, d * d))], axis=-1),
            np.zeros(R * d, dtype))
    for s_g, g in p.outcome_vectors:
        prod = g[iu] * g[ju] * s_B
        add(idx[iu, ju].T, np.where(iu != ju, prod * 2, prod),
            Bn.T @ g * s_g)
    b = np.concatenate(rhs)
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    if K.exact:
        keep = vals != 0
        out = sparse_int_rows(rows[keep], cols[keep], vals[keep], len(b))
        for row, bb in zip(out, b.tolist()):
            if bb:
                row[ncols] = bb
        return out, ncols
    rows *= ncols          # flat indices in place: no index array is added
    rows += cols           # to the peak memory of the float recovery
    A = np.bincount(rows, weights=vals,
                    minlength=len(b) * ncols).reshape(len(b), ncols)
    return A, b


def cubic_linear_stage(p: RecoveryProblem) -> Optional[tuple]:
    """The solutions of an exact problem's `cubic_rows` lifted to product
    tensors, T[i, j, :] = B⁻ᵀ S[i, j, :], stacked on a last axis: one
    solution, then a basis of the homogeneous ones, as the pair (s, s·T) of
    integers over the least denominator; None when the rows are
    inconsistent.  It reads neither the outcome frame nor the
    permutations."""
    K = _Kind("exact")
    s_Bi, Bin = B_inv = K.inverse(p.B)
    rows, ncols = cubic_rows(p, K, B_inv)
    X = _integer_readout(_eliminate(rows, ncols), ncols)
    if X is None:
        return None
    s_X, X = X
    d = p.dim
    iu, ju = np.triu_indices(d)
    S = X[_triple_index(d)[iu, ju]]                  # (pairs, k, columns)
    R, _, c = S.shape
    Tp = Bin.T @ S.transpose(1, 0, 2).reshape(d, R * c)
    Tp = Tp.reshape(d, R, c).transpose(1, 0, 2)
    T = K.zeros((d, d, d, c))
    T[iu, ju] = Tp
    T[ju, iu] = Tp
    return _lowest(s_Bi * s_X, T)


# ---------------------------------------------------------------------------
# the float recovery over every sorted triple of coordinates, with the unit
# law, equivariance and idempotence as rows, that the unit's complement of
# `kvwb.jordan._complement_stage` replaced: the float branch of
# `kvwb.jordan._linear_stage` (`cubic_float_stage`, verbatim but for
# building its rows with `cubic_rows` above, whose float kind is the
# `kvwb.jordan._cubic_rows` it called, bit for bit)

def cubic_float_stage(p: RecoveryProblem) -> Optional[tuple]:
    """The solutions of a float problem's `cubic_rows`, solved by
    `kvwb.jordan._solve_float` and lifted to product tensors,
    T[i, j, :] = B⁻ᵀ S[i, j, :], stacked on a last axis, as the pair
    (1.0, T); None when the rows are inconsistent."""
    from kvwb.jordan import _solve_float
    K = _Kind("float")
    _, Bin = B_inv = K.inverse(p.B)
    s0, N = _solve_float(*cubic_rows(p, K, B_inv))
    if s0 is None:
        return None
    X = np.column_stack([s0, N])
    d = p.dim
    iu, ju = np.triu_indices(d)
    S = X[_triple_index(d)[iu, ju]]                  # (pairs, k, columns)
    R, _, c = S.shape
    Tp = Bin.T @ S.transpose(1, 0, 2).reshape(d, R * c)
    Tp = Tp.reshape(d, R, c).transpose(1, 0, 2)
    T = np.zeros((d, d, d, c))
    T[iu, ju] = Tp
    T[ju, iu] = Tp
    return 1.0, T


# ---------------------------------------------------------------------------
# the double loop over outcome pairs of `kvwb.builtins.conjugation_bijection`
# that one broadcast comparison replaced (verbatim, but for the name)

def loop_conjugation_bijection(m: Model, tol: float = 1e-9) -> dict[str, str]:
    """Outcome bijection sending each effect to its entrywise conjugate.

    Identity for polytope and real-field models; for complex samples the
    sample must be closed under conjugation (built-ins are by construction).
    """
    if not isinstance(m.states, QuantumBackend) or m.states.field == "real":
        return {x: x for x in m.outcomes}
    qb = m.states
    out = {}
    for x in m.outcomes:
        target = qb.outcome_matrices[x].conj()
        for y in m.outcomes:
            if np.abs(qb.outcome_matrices[y] - target).max() <= tol:
                out[x] = y
                break
        else:
            raise ValueError(f"sample not closed under conjugation at {x!r}")
    return out
