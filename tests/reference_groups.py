"""Reference oracles: group enumeration and group averaging, which
`kvwb.forms.is_irreducible` and `kvwb.models.check_bisymmetry` replaced with
generator-only algebra and orbits, and the breadth-first walk over the
orbit of an ordered tuple (`ordered_orbit`) that the stabilizer chain of
`kvwb.models._basic_orbit_lengths` replaced.

The code is the old library code, unchanged apart from the enumeration caps
it no longer needs.  It enumerates the whole group or orbit, so it is slow
and obviously correct; the tests require the generator-only checks to agree
with it.
"""
from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from kvwb.effectspace import OrderUnitSpace
from kvwb.forms import BilinearForm
from kvwb.linalg import (Mat, ONE, ZERO, mat_mul, mat_vec, np_nullspace,
                         np_rref, nullspace, solve, transpose)
from kvwb.models import Model, Perm, orbit, perm_compose
from reference_kernels import (_full_symmetric_basis, _invariance_rows,
                               invariant_symmetric_forms, rational_actions)


def mulclose(generators: tuple[Perm, ...]) -> list[Perm]:
    """BFS closure of a set of permutations under composition."""
    if not generators:
        return []
    n = len(generators[0])
    els = {tuple(range(n))}
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                b = perm_compose(g, a)
                if b not in els:
                    els.add(b)
                    new.append(b)
        frontier = new
    return sorted(els)


def ordered_orbit(generators, seed) -> set:
    """Orbit of the tuple `seed` under the generators, each acting on every
    entry, walked point by point."""
    return orbit(tuple(seed), lambda g, t: tuple(map(g.__getitem__, t)),
                 generators)


def fully_bisymmetric(m: Model) -> bool:
    """Every bijection between two tests is induced by a group element."""
    ts = m.testspace
    els = mulclose(m.group.generators) or [tuple(range(len(m.outcomes)))]
    for E in ts.tests:
        for F in ts.tests:
            e_idx = [ts.index(x) for x in E]
            for f_perm in itertools.permutations([ts.index(y) for y in F]):
                if not any(all(g[a] == b for a, b in zip(e_idx, f_perm))
                           for g in els):
                    return False
    return True


def _identity_mat(dim: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]


def _matrix_group(generators):
    """BFS closure of exact matrices under multiplication."""
    def key(M):
        return tuple(tuple(r) for r in M)

    gens = [[list(r) for r in M] for M in generators]
    if not gens:
        return [_identity_mat(1)]
    dim = len(gens[0])
    ident = _identity_mat(dim)
    els = {key(ident): ident}
    frontier = [ident]
    while frontier:
        new = []
        for A in frontier:
            for g in gens:
                B = mat_mul(g, A)
                k = key(B)
                if k not in els:
                    els[k] = B
                    new.append(B)
        frontier = new
    return list(els.values())


def average_form(B0: BilinearForm, E: OrderUnitSpace) -> BilinearForm:
    """Group-average of a form: exact sum over an enumerable matrix group,
    or the Frobenius-nearest invariant form for generator-presented groups."""
    acts = rational_actions(E)
    if B0.kind == "exact" and E.kind == "exact":
        els = _matrix_group(acts)
        dim = E.dim
        total = [[ZERO] * dim for _ in range(dim)]
        for M in els:
            term = mat_mul(transpose([list(r) for r in M]),
                           mat_mul(B0.matrix, [list(r) for r in M]))
            for i in range(dim):
                for j in range(dim):
                    total[i][j] += term[i][j]
        n = len(els)
        avg = [[x / n for x in r] for r in total]
        return BilinearForm(avg, "exact", invariant=True,
                            positive_definite=B0.positive_definite)
    basis = invariant_symmetric_forms(E)
    if not basis:
        raise ValueError("no invariant forms to project onto")
    mats = [np.asarray(f.matrix, dtype=float) for f in basis]
    flat = np.array([m.ravel() for m in mats])
    q, _ = np.linalg.qr(flat.T)
    b0 = np.asarray(B0.matrix, dtype=float).ravel()
    proj = q @ (q.T @ b0)
    return BilinearForm(proj.reshape(np.asarray(B0.matrix).shape), "float",
                        invariant=True)


def u_perp_basis(E: OrderUnitSpace, pd_form: Optional[BilinearForm] = None):
    """Deterministic basis of {a : B_pd(a, u) = 0}."""
    if E.kind == "exact":
        B = pd_form.matrix if pd_form is not None else average_form(
            BilinearForm(_identity_mat(E.dim), "exact"), E).matrix
        row = mat_vec(B, list(E.u))
        return nullspace([row])
    B = pd_form.matrix if pd_form is not None else np.eye(E.dim)
    row = np.asarray(B) @ np.asarray(E.u, dtype=float)
    null = np_nullspace(row.reshape(1, -1))
    return np_rref(null)


def restricted_action(E: OrderUnitSpace, M, pd_form=None):
    """Action matrix on u-perp coordinates (the subspace is invariant)."""
    V = u_perp_basis(E, pd_form)
    if E.kind == "exact":
        cols = transpose([list(v) for v in V])       # dim x (dim-1)
        out_cols = []
        for v in V:
            img = mat_vec(M, list(v))
            c = solve(cols, img)
            if c is None:
                raise ValueError("u-perp is not invariant under the action")
            out_cols.append(c)
        return transpose(out_cols)
    V = np.asarray(V, dtype=float)                    # rows are basis vectors
    M = np.asarray(M, dtype=float)
    G = V @ V.T
    return np.linalg.solve(G, V @ M @ V.T)


def u_perp_invariant_form_count(E: OrderUnitSpace, actions=None) -> int:
    """Dimension of the invariant symmetric forms on the complement of the
    unit taken w.r.t. the group-averaged form."""
    acts = actions if actions is not None else rational_actions(E)
    exact = E.kind == "exact"
    acts = [restricted_action(E, M) for M in acts]
    dim = E.dim - 1
    rows = []
    for M in acts:
        rows.extend(_invariance_rows(M if exact else np.asarray(M, float),
                                     dim, exact))
    if exact:
        return len(nullspace(rows) if rows else _full_symmetric_basis(dim))
    if rows:
        return np_nullspace(np.array(rows)).shape[0]
    return dim * (dim + 1) // 2


def is_irreducible(E: OrderUnitSpace, actions=None) -> bool:
    """Exactly one invariant symmetric form on u-perp, up to scale."""
    return u_perp_invariant_form_count(E, actions) == 1
