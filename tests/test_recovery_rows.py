"""The vectorized constraint builder of Jordan recovery equals the loops.

`reference_kernels` keeps the term-by-term loops that built the linear
constraint rows (float and rational), the dense exact solve and the full-SVD
nullspace.  The float matrices must agree bit for bit, signed zeros
included.  The exact rows are sparse integer rows, each the rational row
times one nonzero factor, and their solve must give the dense solve's
solution and null basis exactly.
"""
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from kvwb.builtins import get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb import linalg
from kvwb.jordan import (RecoveryProblem, _linear_rows, _solve_float,
                         recover_jordan_product)
from kvwb.linalg import solve_with_nullspace
from kvwb.pipeline import _recovery_problem

QUANTUM = ["qubit:real", "qubit:complex", "qutrit:complex"]


def builtin_problem(name):
    m = get_builtin(name)
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    return _recovery_problem(E, spin, 1e-9)


def assert_same_floats(new, old):
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def assert_same_float_rows(p, idempotence):
    A, b = _linear_rows(p, idempotence, exact=False)
    A0, b0, _ = oracle.linear_rows_float(p, idempotence)
    assert_same_floats(A, A0)
    assert_same_floats(b, b0)


def assert_same_exact_rows(p, idempotence):
    rows, ncols = _linear_rows(p, idempotence, exact=True)
    A0, b0, _ = oracle.exact_linear_rows(p, idempotence)
    assert len(rows) == len(A0) and ncols == len(A0[0])
    for row, a, bb in zip(rows, A0, b0):
        want = {k: x for k, x in enumerate(a + [bb]) if x}
        assert row.keys() == want.keys()
        assert all(type(x) is int for x in row.values())
        if want:
            k = next(iter(want))
            scale = row[k] / want[k]
            assert all(row[j] == scale * want[j] for j in want)
    assert solve_with_nullspace(rows, ncols) == \
        oracle.solve_with_nullspace(A0, b0)


def test_problem_carries_one_set_of_inputs():
    """No parallel `*_exact` fields: the kind is read off the inputs."""
    import dataclasses
    names = {f.name for f in dataclasses.fields(RecoveryProblem)}
    assert "exact" not in names and not any(n.endswith("_exact")
                                            for n in names)
    assert builtin_problem("classical:3").exact
    assert not builtin_problem("qubit:real").exact


def signed_permutation(rng, d):
    M = np.zeros((d, d))
    M[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], size=d)
    return M


def orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 5), n_actions=st.integers(0, 3),
       n_outcomes=st.integers(0, 3), idempotence=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_float_rows_match_the_loops(d, n_actions, n_outcomes, idempotence,
                                    seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    B[rng.random((d, d)) < 0.3] = 0.0          # zeros, so products give -0.0
    u = rng.standard_normal(d) * (rng.random(d) < 0.7)
    actions = [orthogonal(rng, d) if rng.random() < 0.5
               else signed_permutation(rng, d) for _ in range(n_actions)]
    gs = [rng.standard_normal(d) * (rng.random(d) < 0.7)
          for _ in range(n_outcomes)]
    p = RecoveryProblem(dim=d, B=B, u=u, cone_generators=[],
                        actions=actions, outcome_vectors=gs)
    assert not p.exact
    assert_same_float_rows(p, idempotence)


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(2, 5), n_actions=st.integers(0, 3),
       n_outcomes=st.integers(0, 3), idempotence=st.booleans())
def test_exact_rows_match_the_loops(data, d, n_actions, n_outcomes,
                                    idempotence):
    vec = st.lists(small, min_size=d, max_size=d)
    B = data.draw(st.lists(vec, min_size=d, max_size=d))
    u = data.draw(vec)
    perms = data.draw(st.lists(st.permutations(range(d)),
                               min_size=n_actions, max_size=n_actions))
    actions = [[[F(int(perm[r] == c)) for c in range(d)] for r in range(d)]
               for perm in perms]
    gs = data.draw(st.lists(vec, min_size=n_outcomes, max_size=n_outcomes))
    p = RecoveryProblem(dim=d, B=B, u=u, cone_generators=[],
                        actions=actions, outcome_vectors=gs)
    assert p.exact
    assert_same_exact_rows(p, idempotence)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), n_actions=st.integers(1, 2),
       idempotence=st.booleans())
def test_exact_rows_with_rational_actions_match_the_loops(data, d, n_actions,
                                                          idempotence):
    """Actions with denominators, so each equivariance row is scaled by
    s_M² and its linear and quadratic terms must scale alike."""
    mat = st.lists(st.lists(small, min_size=d, max_size=d),
                   min_size=d, max_size=d)
    vec = st.lists(small, min_size=d, max_size=d)
    p = RecoveryProblem(
        dim=d, B=data.draw(mat), u=data.draw(vec), cone_generators=[],
        actions=[data.draw(mat) for _ in range(n_actions)],
        outcome_vectors=[data.draw(vec)])
    assert_same_exact_rows(p, idempotence)


@pytest.mark.parametrize("name", QUANTUM)
@pytest.mark.parametrize("idempotence", [True, False])
def test_quantum_builtin_rows_match_the_loops(name, idempotence):
    assert_same_float_rows(builtin_problem(name), idempotence)


@pytest.mark.parametrize("name", ["classical:3", "classical:4"])
def test_classical_builtin_rows_match_the_loops(name):
    p = builtin_problem(name)
    assert p.exact
    assert_same_exact_rows(p, True)
    assert_same_float_rows(p, True)


CLASSICAL = [f"classical:{n}" for n in range(2, 7)]


@pytest.mark.parametrize("name", CLASSICAL)
@pytest.mark.parametrize("idempotence", [True, False])
def test_classical_recovery_systems_match_the_dense_solve(name, idempotence):
    """Idempotence pins the product (nullity 0); without it every
    `classical:n` but n = 2 keeps a one-dimensional family (nullity 1)."""
    p = builtin_problem(name)
    rows, ncols = _linear_rows(p, idempotence, exact=True)
    A0, b0, _ = oracle.exact_linear_rows(p, idempotence)
    x, null = solve_with_nullspace(rows, ncols)
    assert (x, null) == oracle.solve_with_nullspace(A0, b0)
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


@pytest.mark.parametrize("name", CLASSICAL)
def test_exact_recovery_rows_are_sparse(name):
    """Fewer than two nonzeros per row, right-hand sides included: the
    dense layout would hold rows x (columns + 1) entries."""
    rows, _ = _linear_rows(builtin_problem(name), True, exact=True)
    assert sum(map(len, rows)) < 2 * len(rows)


def test_positive_nullity_basis_spans_the_full_svd_nullspace():
    p = builtin_problem("qubit:complex")
    p.actions = []
    A, b = _linear_rows(p, False, exact=False)
    t0, N = _solve_float(A, b)
    N0 = oracle.np_nullspace_full_svd(A)
    assert t0 is not None and N.shape == N0.shape and N.shape[1] > 0
    # equal orthogonal projectors: the two orthonormal bases span one space
    assert np.abs(N @ N.T - N0 @ N0.T).max() < 1e-9
    assert np.abs(A @ N).max() < 1e-9
    res = recover_jordan_product(p, enforce_outcome_idempotence=False)
    assert res.linear_solution_dim == N.shape[1]


def test_full_rank_float_stage_returns_an_empty_basis():
    A, b = _linear_rows(builtin_problem("qubit:real"), True, exact=False)
    t0, N = _solve_float(A, b)
    assert N.shape == (A.shape[1], 0)
    assert oracle.np_nullspace_full_svd(A).shape == N.shape
    assert float(np.abs(A @ t0 - b).max()) <= 1e-7


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
