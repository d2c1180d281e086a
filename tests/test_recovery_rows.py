"""The recovery rows solve to the product-tensor rows' solutions.

`kvwb.jordan._complement_stage` solves a float problem in coordinates where
B is the dot product and the unit is a multiple of e₀: the unit law fixes
every entry of the cubic form S(x, y, z) = B(x ∘ y, z) with an index 0,
and one unknown per sorted triple of 1..d-1 is left, with the equivariance
and idempotence rows on those.  `reference_kernels` keeps the float stage
it replaced (`cubic_float_stage`): the cubic-form rows over every sorted
triple, unit law included (`cubic_rows`, bit for bit the
`kvwb.jordan._cubic_rows` that stage called), solved by `_solve_float`
and lifted to tensors, T[i, j, :] = B⁻ᵀ S[i, j, :].  An
exact problem from an effect space is solved over orbits of outcome triples
instead (`_orbit_stage`, checked against the cubic rows in
`test_orbit_rows.py`); the hand-built exact problems here have no outcome
frame or permutations, so they are solved by the exact cubic rows that
`reference_kernels` keeps (`cubic_rows`, `cubic_linear_stage`).
`reference_kernels` also keeps the builder the cubic rows replaced,
`_linear_rows`, over the full tensor with B-associativity rows, and the
loops and dense solve that builder replaced.  For an invertible B both
systems have one solution set, so each test asks for the old nullity and
for a particular solution and null basis that give the old tensor and span
the old tensor subspace: exactly on rationals, on floats within 1e-12 or,
for ill-conditioned rows, the forward error of the two solves
(`assert_same_solutions`).  Inconsistent problems (an asymmetric form, or
symmetries and idempotents no product satisfies) must be inconsistent in
both.
"""
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_kernels as oracle
from kvwb.builtins import get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb import linalg
from kvwb import jordan
from kvwb.jordan import (RecoveryProblem, _linear_stage, _orbit_rows,
                         _solve_float, _triple_orbits, recover_jordan_product)
from kvwb.linalg import _Kind, solve_with_nullspace
from kvwb.pipeline import _recovery_problem

QUANTUM = ["qubit:real", "qubit:complex", "qutrit:complex"]
FLOAT, EXACT = _Kind("float"), _Kind("exact")


def builtin_problem(name):
    m = get_builtin(name)
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    return _recovery_problem(E, spin, 1e-9)


def as_floats(p):
    q = oracle.rational_problem(p)
    return oracle.scaled_problem(
        FLOAT, np.asarray(q.B, float), np.asarray(q.u, float),
        actions=[np.asarray(M, float) for M in q.actions],
        outcome_vectors=[np.asarray(g, float) for g in q.outcome_vectors])


def unpacked(cols, d, exact):
    """Tensors (d, d, d, columns) of solutions packed as the old builder
    packs them, t[at(i, j) * d + k] = T[i, j, k]."""
    pairs, _ = oracle._pair_index(d)
    T = np.zeros((d, d, d, len(cols)), dtype=object if exact else float)
    for c, t in enumerate(cols):
        for pk, (i, j) in enumerate(pairs):
            T[i, j, :, c] = T[j, i, :, c] = t[pk * d:(pk + 1) * d]
    return T


def old_tensors(p, idempotence):
    """The solutions of the tensor rows: one solution, then a null basis.
    Float rows come from the loops, which the old builder matched bit for
    bit, and are solved by `refined_solve`."""
    if p.exact:
        x, null = solve_with_nullspace(
            *oracle._linear_rows(p, idempotence, True))
        return None if x is None else unpacked([x] + null, p.dim, True)
    t0, N = refined_solve(*oracle.linear_rows_float(p, idempotence)[:2])
    return None if t0 is None else unpacked([t0, *N.T], p.dim, False)


def refined_solve(A, b):
    """`_solve_float`, its solution corrected once by the least-squares
    solution for its residual, the residual taken in extended precision.
    The tensor rows are worse conditioned than the cubic rows (condition
    number 6.6e4 against 2.1e4 on the first draw pinned below; both are
    too ill-conditioned for the Gram certificate, so both take the SVD),
    and their plain solve lands 2e-12 from their least-squares solution
    there, while the cubic rows' solve lands within 1.2e-13 of theirs;
    corrected, the tensor rows' solution is within 3e-16 of it."""
    t0, N = _solve_float(A, b)
    if t0 is None:
        return None, None
    r = (b.astype(np.longdouble)
         - A.astype(np.longdouble) @ t0.astype(np.longdouble))
    return t0 + np.linalg.lstsq(A, r.astype(float), rcond=None)[0], N


def cubic_rows(p, K):
    """The cubic rows of `reference_kernels` with the inverse of B that
    `cubic_float_stage` passes, which on floats must equal the `np.add.at`
    accumulation bit for bit."""
    rows = oracle.cubic_rows(p, K, K.inverse(p.B))
    if K.exact:
        return rows
    A0, b0 = oracle.cubic_rows_add_at(p, K)
    assert rows[0].tobytes() == A0.tobytes()
    assert rows[1].tobytes() == b0.tobytes()
    return rows


def linear_stage(p):
    """`_linear_stage`; on a hand-built exact problem, which has no outcome
    frame, the exact cubic-row stage of `reference_kernels`."""
    if p.exact and p.frame is None:
        return oracle.cubic_linear_stage(p)
    return _linear_stage(p)


def without_outcomes(p):
    """The problem with no idempotence rows."""
    return dataclasses.replace(p, outcome_vectors=[])


def condition(A):
    """The largest singular value of A over the smallest that passes
    `_solve_float`'s rank cut, s > 1e-9 * s[0]."""
    s = np.linalg.svd(A, compute_uv=False)
    return s[0] / s[s > 1e-9 * s[0]][-1]


def assert_same_solutions(p, idempotence, old=None):
    """The cubic rows' solutions are the tensor rows' solutions.  Floats
    agree within max(1e-12, 2·ε·κ·max(1, |old|∞)), κ the larger condition
    number of the two row matrices: to first order each solve is off by
    up to about ε·κ·|x|, so well-conditioned rows keep 1e-12."""
    q = p if idempotence else without_outcomes(p)
    new = linear_stage(q)
    if new is not None and q.exact:
        assert all(type(x) is int for x in new[1].flat)
    new = None if new is None else oracle.unscaled(new)
    if not q.exact:
        assert_matches_the_cubic_stage(q)
    if old is None:
        old = old_tensors(p, idempotence)
    assert (new is None) == (old is None)
    if new is None:
        return
    assert new.shape == old.shape                     # the same nullity
    n, o = (x.reshape(-1, x.shape[-1]) for x in (new, old))
    nullity = n.shape[1] - 1
    if p.exact:
        assert all(type(x) is F for x in n.flat)
        if nullity == 0:
            assert n.tolist() == o.tolist()
            return
        span = [list(c) for c in o[:, 1:].T]
        assert linalg.rank(span + [list(c) for c in n[:, 1:].T]) == nullity
        assert linalg.rank(span + [list(n[:, 0] - o[:, 0])]) == nullity
        return
    kappa = max(condition(cubic_rows(q, FLOAT)[0]),
                condition(oracle.linear_rows_float(p, idempotence)[0]))
    assert_same_float_solutions(n, o, kappa)


def assert_matches_the_cubic_stage(p):
    """The float `_linear_stage` against the cubic-row stage it replaced:
    inconsistent in both, or the same nullity and tensors that agree as
    `assert_same_float_solutions` asks, κ the condition number of the
    cubic rows."""
    new, old = _linear_stage(p), oracle.cubic_float_stage(p)
    assert (new is None) == (old is None)
    if new is None:
        return
    assert new[1].shape == old[1].shape               # the same nullity
    n, o = (x[1].reshape(-1, x[1].shape[-1]) for x in (new, old))
    assert_same_float_solutions(n, o, condition(cubic_rows(p, FLOAT)[0]))


def assert_same_float_solutions(n, o, kappa):
    """Float solutions n and o, each a particular solution and then a null
    basis as columns, agree: the null bases span one space and the
    particular solutions differ by a null vector, within
    max(1e-12, 2·ε·κ·max(1, |o|∞))."""
    tol = max(1e-12, 2 * np.finfo(float).eps * kappa
              * max(1.0, np.abs(o).max()))
    if n.shape[1] == 1:
        assert np.abs(n - o).max() <= tol
        return
    Qo, Qn = (np.linalg.qr(x[:, 1:])[0] for x in (o, n))
    assert np.abs(Qo @ Qo.T - Qn @ Qn.T).max() <= tol
    diff = n[:, 0] - o[:, 0]
    assert np.abs(diff - Qo @ (Qo.T @ diff)).max() <= tol


def test_problem_carries_one_set_of_inputs():
    """No parallel `*_exact` fields: the kind is read off the inputs."""
    import dataclasses
    names = {f.name for f in dataclasses.fields(RecoveryProblem)}
    assert "exact" not in names and not any(n.endswith("_exact")
                                            for n in names)
    assert builtin_problem("classical:3").exact
    assert not builtin_problem("qubit:real").exact


# Random problems with solutions: a spin factor with unit t·e_0, its form
# c·I, symmetries fixing e_0 and idempotents t(e_0 ± v)/2, all carried to
# other coordinates by an invertible P.  With `skew` an antisymmetric part
# is added to B, and no product has that form.

def signed_permutation(rng, d):
    M = np.zeros((d, d))
    M[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], size=d)
    return M


def orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def fixing_e0(M0):
    M = np.eye(len(M0) + 1, dtype=M0.dtype)
    M[1:, 1:] = M0
    return M


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 5), n_actions=st.integers(0, 3),
       n_outcomes=st.integers(0, 3), idempotence=st.booleans(),
       skew=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(d=5, n_actions=1, n_outcomes=1, idempotence=True, skew=False,
         seed=2322716)
@example(d=5, n_actions=1, n_outcomes=1, idempotence=True, skew=False,
         seed=4046179343)
@example(d=4, n_actions=1, n_outcomes=1, idempotence=True, skew=False,
         seed=1837910262)
@example(d=4, n_actions=1, n_outcomes=1, idempotence=True, skew=False,
         seed=2599745104)
@example(d=3, n_actions=0, n_outcomes=0, idempotence=True, skew=False,
         seed=0)
@example(d=4, n_actions=0, n_outcomes=2, idempotence=True, skew=False,
         seed=1)
@example(d=4, n_actions=2, n_outcomes=0, idempotence=True, skew=True,
         seed=2)
def test_float_rows_match_the_loops(d, n_actions, n_outcomes, idempotence,
                                    skew, seed):
    rng = np.random.default_rng(seed)
    P = orthogonal(rng, d) @ np.diag(rng.uniform(1, 2, d)) @ orthogonal(rng, d)
    Pi = np.linalg.inv(P)
    c, t = rng.uniform(0.5, 2), rng.uniform(0.5, 2) * rng.choice([-1, 1])
    B = c * P.T @ P
    if skew:
        K = rng.standard_normal((d, d))
        B = B + K - K.T
    actions = [Pi @ fixing_e0(orthogonal(rng, d - 1) if rng.random() < 0.5
                              else signed_permutation(rng, d - 1)) @ P
               for _ in range(n_actions)]
    gs = []
    for _ in range(n_outcomes):
        v = rng.standard_normal(d)
        v[0] = 0
        g0 = t / 2 * (np.eye(d)[0] + v / np.linalg.norm(v))
        gs.append(Pi @ g0)
    p = oracle.scaled_problem(FLOAT, B, Pi @ (t * np.eye(d)[0]),
                              actions=actions, outcome_vectors=gs)
    assert not p.exact
    assert_same_solutions(p, idempotence)


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def invertible(data, d):
    P = data.draw(st.lists(st.lists(small, min_size=d, max_size=d),
                           min_size=d, max_size=d))
    Pi = linalg.inverse(P)
    assume(Pi is not None)
    return np.array(P, dtype=object), np.array(Pi, dtype=object)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), n_actions=st.integers(0, 3),
       n_outcomes=st.integers(0, 3), idempotence=st.booleans(),
       skew=st.booleans())
def test_exact_rows_match_the_loops(data, d, n_actions, n_outcomes,
                                    idempotence, skew):
    P, Pi = invertible(data, d)
    positive = st.fractions(min_value=F(1, 5), max_value=3,
                            max_denominator=5)
    c, t = data.draw(positive), data.draw(positive) * data.draw(
        st.sampled_from([-1, 1]))
    B = c * P.T @ P
    if skew:
        i, j = data.draw(st.permutations(range(d)))[:2]
        B[i, j] += 1
        B[j, i] -= 1
    e = np.eye(d, dtype=int).astype(object)
    actions = []
    for perm in data.draw(st.lists(st.permutations(range(d - 1)),
                                   min_size=n_actions, max_size=n_actions)):
        M0 = np.zeros((d - 1, d - 1), dtype=int)
        M0[np.arange(d - 1), perm] = data.draw(
            st.lists(st.sampled_from([-1, 1]), min_size=d - 1,
                     max_size=d - 1))
        actions.append((Pi @ fixing_e0(M0.astype(object)) @ P).tolist())
    gs = [(Pi @ (t / 2 * (e[0] + s * e[i]))).tolist()
          for i, s in data.draw(st.lists(
              st.tuples(st.integers(1, d - 1), st.sampled_from([-1, 1])),
              min_size=n_outcomes, max_size=n_outcomes))]
    p = oracle.scaled_problem(EXACT, B.tolist(), (Pi @ (t * e[0])).tolist(),
                              actions=actions, outcome_vectors=gs)
    assert p.exact
    assert_same_solutions(p, idempotence)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), n_actions=st.integers(0, 2),
       idempotence=st.booleans())
def test_exact_rows_with_rational_actions_match_the_loops(data, d, n_actions,
                                                          idempotence):
    """Unstructured rational inputs: any invertible form (mostly
    asymmetric), actions with denominators and any outcome, so each
    equivariance row has a dense BᵀMB⁻ᵀ and is scaled by its denominators;
    such problems are mostly inconsistent, and must be so in both."""
    mat = st.lists(st.lists(small, min_size=d, max_size=d),
                   min_size=d, max_size=d)
    vec = st.lists(small, min_size=d, max_size=d)
    B, _ = invertible(data, d)
    p = oracle.scaled_problem(
        EXACT, B.tolist(), data.draw(vec),
        actions=[data.draw(mat) for _ in range(n_actions)],
        outcome_vectors=[data.draw(vec)])
    assert_same_solutions(p, idempotence)


@pytest.mark.parametrize("name", QUANTUM)
@pytest.mark.parametrize("idempotence", [True, False])
def test_quantum_builtin_rows_match_the_loops(name, idempotence):
    assert_same_solutions(builtin_problem(name), idempotence)


@pytest.mark.parametrize("name", ["classical:3", "classical:4"])
def test_classical_builtin_rows_match_the_loops(name):
    p = builtin_problem(name)
    assert p.exact
    assert_same_solutions(p, True)
    assert_same_solutions(as_floats(p), True)


CLASSICAL = [f"classical:{n}" for n in range(2, 7)]


@pytest.mark.parametrize("name", CLASSICAL)
@pytest.mark.parametrize("idempotence", [True, False])
def test_classical_recovery_systems_match_the_dense_solve(name, idempotence):
    """Idempotence pins the product (nullity 0); without it every
    `classical:n` but n = 2 keeps a one-dimensional family (nullity 1)."""
    p = builtin_problem(name)
    A0, b0, _ = oracle.exact_linear_rows(p, idempotence)
    x, null = oracle.solve_with_nullspace(A0, b0)
    assert_same_solutions(p, idempotence,
                          old=unpacked([x] + null, p.dim, True))
    assert len(null) == (0 if idempotence or name == "classical:2" else 1)


def test_exact_recovery_makes_no_dense_rref(monkeypatch):
    p = builtin_problem("classical:4")
    assert p.exact
    calls = []
    rref = linalg.rref

    def counted(*args, **kw):
        calls.append(args)
        return rref(*args, **kw)

    monkeypatch.setattr(linalg, "rref", counted)
    res = recover_jordan_product(p)
    assert res.algebra is not None and res.algebra.exact
    assert calls == []


@pytest.mark.parametrize("name", ["classical:3", "classical:4", "gbit:3"])
def test_exact_recovery_inverts_its_form_once(name, monkeypatch):
    """One elimination of [s·B | -I] per exact recovery, s·B the integers
    of the problem's form: `_orbit_stage` inverts B once, for the lift."""
    p = builtin_problem(name)
    assert p.exact
    B = p.B[1].tolist()
    n = len(B)
    aug = linalg._sparse([row + [-int(i == j) for j in range(n)]
                          for i, row in enumerate(B)])
    calls = []
    eliminate = linalg._eliminate

    def spy(rows, ncols):
        calls.append(list(rows) == aug and ncols == 2 * n)
        return eliminate(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    recover_jordan_product(p)
    assert calls.count(True) == 1


@pytest.mark.parametrize("name", CLASSICAL)
def test_exact_recovery_rows_are_sparse(name):
    """The orbit rows: one column per orbit of outcome triples, 3 on
    `classical:n` for n ≥ 3 (the types aaa, aab and abc), fewer than the
    cubic rows' sorted triples; few nonzeros per row, right-hand sides
    included, and fewer in all than the cubic rows held."""
    p = builtin_problem(name)
    orbit3, k = _triple_orbits(len(p.frame.vectors[1]), p.permutations)
    rows = _orbit_rows(p, orbit3, k)
    old, ncols = cubic_rows(p, EXACT)
    d = p.dim
    assert k == min(d, 3) < ncols == d * (d + 1) * (d + 2) // 6
    assert sum(map(len, rows)) < min(3 * len(rows), sum(map(len, old)))


def test_positive_nullity_basis_spans_the_full_svd_nullspace():
    p = dataclasses.replace(without_outcomes(builtin_problem("qubit:complex")),
                            actions=[])
    A, b = cubic_rows(p, FLOAT)
    t0, N = _solve_float(A, b)
    N0 = oracle.np_nullspace_full_svd(A)
    assert t0 is not None and N.shape == N0.shape and N.shape[1] > 0
    # equal orthogonal projectors: the two orthonormal bases span one space
    assert np.abs(N @ N.T - N0 @ N0.T).max() < 1e-9
    assert np.abs(A @ N).max() < 1e-9
    res = recover_jordan_product(p)
    assert res.linear_solution_dim == N.shape[1]
    assert res.algebra is None


def test_full_rank_float_stage_returns_an_empty_basis():
    A, b = cubic_rows(builtin_problem("qubit:real"), FLOAT)
    t0, N = _solve_float(A, b)
    assert N.shape == (A.shape[1], 0)
    assert oracle.np_nullspace_full_svd(A).shape == N.shape
    assert float(np.abs(A @ t0 - b).max()) <= 1e-7


# Rows A = U·diag(s)·Vᵀ whose last three singular values are s[0] times a
# ratio on either side of the Gram certificate (eigenvalue ratio 1e-8, so
# singular ratio 1e-4) and of the rank rule's cut (1e-9), or exact zeros;
# tall and wide; b = A·x, or that plus a unit vector orthogonal to the
# range of A, which only rows with more rows than rank have.
STRADDLE = [(ratio, shape, consistent)
            for ratio in (1e-1, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0)
            for shape in ((40, 12), (8, 12))
            for consistent in (True, False)
            if consistent or shape[0] > shape[1] or ratio == 0.0]


@pytest.mark.parametrize("ratio, shape, consistent", STRADDLE)
def test_float_solve_straddles_the_rank_cut_as_the_lstsq_oracle(
        ratio, shape, consistent, monkeypatch):
    """`_solve_float` against the `lstsq` + SVD solve it replaced: the same
    verdict on consistency, the same nullity, solutions that agree as
    `assert_same_solutions` asks, and no certified (SVD-free) solve where
    the oracle finds a rank deficit."""
    m, n = shape
    k = min(m, n)
    rng = np.random.default_rng(0)
    U, V = orthogonal(rng, m), orthogonal(rng, n)
    s = np.r_[np.linspace(1.0, 0.5, k - 3), [ratio] * 3]
    A = U[:, :k] * s @ V[:, :k].T
    b = A @ rng.standard_normal(n)
    if not consistent:
        b += U[:, int((s > 0).sum())]
    svds = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        svds.append(np.shape(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    t, N = _solve_float(A, b)
    certified = not svds
    t0, N0 = oracle.lstsq_solve_float(A, b)
    assert (t is None) == (t0 is None) == (not consistent)
    if t is None:
        return
    assert N.shape == N0.shape
    if certified:
        assert N0.shape[1] == 0
    assert_same_float_solutions(np.column_stack([t, N]),
                                np.column_stack([t0, N0]), condition(A))


def test_qutrit_recovery_builds_no_full_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        calls.append((np.shape(a), full_matrices, compute_uv))
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    p = builtin_problem("qutrit:complex")
    monkeypatch.setattr(np.linalg, "svd", spy)
    res = recover_jordan_product(p)
    assert res.algebra is not None and res.linear_solution_dim == 0
    assert not [c for c in calls if c[1] and c[2]], calls


def test_qutrit_recovery_makes_one_gram_solve_on_the_cubic_form(
        monkeypatch):
    """d = 9: one solve over the 120 = 8·9·10/6 entries of the cubic form
    on the unit's complement, on their (120, 120) Gram matrix, whose
    eigenvalues certify the rank: no `lstsq`, no SVD of the 720 rows, no
    system over the 165 = 9·10·11/6 entries of the whole cubic form and
    none over the 405 = 9·9·10/2 tensor entries."""
    calls = {"lstsq": [], "eigvalsh": [], "svd": []}
    zeros, arrays = np.zeros, []

    def spy(name):
        f = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def spy_zeros(shape, *args, **kwargs):
        arrays.append(np.shape(zeros(shape)))
        return zeros(shape, *args, **kwargs)

    p = builtin_problem("qutrit:complex")
    for name in calls:
        spy(name)
    monkeypatch.setattr(np, "zeros", spy_zeros)
    res = recover_jordan_product(p)
    assert res.algebra is not None and res.linear_solution_dim == 0
    assert calls["lstsq"] == []
    assert [s for s in calls["eigvalsh"] if s[-1] in (120, 165)] == [
        (120, 120)]
    assert [s for s in calls["svd"] if s[-1] in (120, 165)] == []
    matrices = [s for s in arrays if len(s) == 2]
    assert not [s for s in matrices if s[1] in (165, 405)], matrices


def test_qutrit_rows_are_the_unit_complement_rows(monkeypatch):
    """The qutrit's float solve: 120 columns, and 720 rows, 2·36·8
    equivariance rows and 18·8 idempotence rows, against the 1 053 cubic
    rows over 165 columns, 81 of them the unit law."""
    p = builtin_problem("qutrit:complex")
    shapes = []
    solve = jordan._solve_float

    def spy(A, b, *args):
        shapes.append(A.shape)
        return solve(A, b, *args)
    monkeypatch.setattr(jordan, "_solve_float", spy)
    _linear_stage(p)
    assert (len(p.actions), len(p.outcome_vectors)) == (2, 18)
    assert shapes == [(720, 120)]
    assert cubic_rows(p, FLOAT)[0].shape == (1053, 165)


def test_four_level_sample_matches_the_cubic_stage():
    """d = 16: 680 unknowns on the unit's complement, against 816."""
    from test_forms import ququart_complex
    m = ququart_complex()
    E = build_effect_space(m)
    p = _recovery_problem(E, find_orthogonalizing_spin_form(m, E).form, 1e-9)
    assert p.dim == 16
    assert_matches_the_cubic_stage(p)
    assert_matches_the_cubic_stage(without_outcomes(p))


@pytest.mark.parametrize("name", QUANTUM)
def test_skew_form_is_inconsistent_in_both_stages(name):
    """The unit law makes B(x, y) = S(u, x, y) symmetric, so a form with
    an antisymmetric part has no product in either stage."""
    p = builtin_problem(name)
    s_B, B = p.B
    K = np.zeros_like(B)
    K[0, 1], K[1, 0] = 0.25, -0.25
    skew = dataclasses.replace(p, B=(s_B, B + K))
    assert _linear_stage(skew) is None
    assert oracle.cubic_float_stage(skew) is None


def test_complement_stage_refuses_an_action_off_its_contract():
    """Every action must keep the form, MᵀBM = B, and fix the unit, Mu =
    u, within the float zero tolerance: those make the dropped rows hold."""
    p = builtin_problem("qutrit:complex")
    (s, M), d = p.actions[0], p.dim
    for action, match in (((s, 2 * M), "not invariant"),
                          ((s, M + 1e-6 * np.eye(d)), "not invariant"),
                          ((s, -M), "moves the unit"),
                          ((s, -np.eye(d)), "moves the unit")):
        with pytest.raises(ValueError, match=match):
            _linear_stage(dataclasses.replace(p, actions=[action]))


def test_four_level_complex_sample_passes_every_stage():
    """The 4-level complex sample (d = 16, 680 cubic-form unknowns on the
    unit's complement) through the whole pipeline with one BLAS thread,
    inside a 2 s budget."""
    script = (
        "import json, time\n"
        "from tests.test_forms import ququart_complex\n"
        "from kvwb.pipeline import run_pipeline\n"
        "m = ququart_complex()\n"
        "t = time.perf_counter()\n"
        "rep = run_pipeline(m)\n"
        "t = time.perf_counter() - t\n"
        "ident = rep.stage('identification').data\n"
        "print(json.dumps({'statuses': [s.status for s in rep.stages],\n"
        "                  'dim': ident.get('dim'), 'rank': ident.get('rank'),\n"
        "                  'seconds': t}))\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(root / "src"), str(root), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          check=False, env=env, cwd=root, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["statuses"] == ["pass"] * 13
    assert (out["dim"], out["rank"]) == (16, 4)
    assert out["seconds"] < 2, f"run_pipeline took {out['seconds']:.2f} s"


#: The exact built-ins, classical:6 and gbit:3-5, but squit:klein, whose
#: spin form is singular, so that no recovery runs on it.
RECOVERED = ["classical:2", "classical:3", "classical:4", "classical:5",
             "squit", "classical:6", "gbit:3", "gbit:4", "gbit:5"]


@pytest.mark.parametrize("name", RECOVERED)
def test_linear_stage_matches_the_fraction_lift(name):
    """The integer lift gives the tensors of the `Fraction` lift it
    replaced, as the pair `_Kind.scaled` makes of them, and a recovered
    algebra keeps that integer tensor and makes the same `Fraction`s from
    it on demand."""
    p = builtin_problem(name)
    got, want = _linear_stage(p), oracle.fraction_linear_stage(p)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert all(type(x) is int for x in got[1].flat)
    assert (got[0], got[1].tolist()) == (EXACT.scaled(want)[0],
                                         EXACT.scaled(want)[1].tolist())
    J = recover_jordan_product(p).algebra
    if J is not None:
        assert J._scaled_tensor(EXACT)[1].tolist() == got[1][..., 0].tolist()
        assert J.tensor == want[..., 0].tolist()
