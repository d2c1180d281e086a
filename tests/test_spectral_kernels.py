"""The stacked spectral kernels and the symmetric-cone check equal the
one-element code they replaced.

`reference_kernels` keeps the old `minimal_polynomial_degree`,
`jordan_powers`, `_eigenvalues`, `jordan_sqrt` and `verify_symmetric_cone`.
Every float must agree bit for bit, signed zeros included; a row that fails
must fail with the same exception type and message, and the check must stop
where the old sample loop stopped.
"""
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from kvwb.builtins import get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb.jordan import (JordanAlgebra, _degrees_and_powers,
                         _eigenvalues, _eigenvalues_many, _sqrt_many,
                         _stacked, classical_algebra, complex_hermitian,
                         generic_rank, jordan_sqrt, minimal_polynomial_degree,
                         quaternionic_hermitian, real_symmetric,
                         recover_jordan_product, spin_factor,
                         verify_symmetric_cone)
from kvwb.pipeline import _recovery_problem

CATALOG = [real_symmetric(1), real_symmetric(2), real_symmetric(3),
           complex_hermitian(2), complex_hermitian(3),
           quaternionic_hermitian(2), spin_factor(2), spin_factor(5),
           classical_algebra(3)]
BUILTINS = ["classical:3", "classical:4", "qubit:real", "qubit:complex",
            "qutrit:complex"]


@functools.lru_cache(maxsize=None)
def recovered(name):
    m = get_builtin(name)
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    return recover_jordan_product(_recovery_problem(E, spin, 1e-9)).algebra


def spectral_only(J):
    """J with its kind's cone formula dropped: the spectral test decides."""
    return JordanAlgebra("Recovered", J.dim, J.unit, J.np_tensor, False)


def algebra(k):
    if k < len(CATALOG):
        return CATALOG[k]
    k -= len(CATALOG)
    if k < len(BUILTINS):
        return recovered(BUILTINS[k])
    return spectral_only(CATALOG[k - len(BUILTINS)])


N_ALGEBRAS = 2 * len(CATALOG) + len(BUILTINS)


def plane(square_of_e):
    """R[e]/(e∘e - square_of_e u) on the basis (u, e): the complex numbers
    for -1 and the dual numbers for 0, neither formally real."""
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = T[0, 1, 1] = T[1, 0, 1] = 1.0
    T[1, 1, 0] = square_of_e
    return JordanAlgebra("Recovered", 2, [1.0, 0.0], T, False)


#: The kernels are tensor-only, so they also run on algebras that are not
#: formally real, where complex and repeated eigenvalues are the rule.
KERNEL_ALGEBRAS = [plane(-1.0), plane(0.0)]


def outcome(f, *args):
    """f(*args), or the exception it raised."""
    try:
        return f(*args)
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        return e


def assert_same(new, old):
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old)
        return
    assert not isinstance(new, Exception), new
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def special_rows(J, rng):
    """Rows that are not generic: the unit, zero, spectral idempotents,
    elements with repeated and with nearly repeated eigenvalues, elements
    outside the cone, and a row with a NaN."""
    d, u = J.dim, J.unit_float()
    rows = [u, np.zeros(d), -u, np.full(d, np.nan)]
    if J in KERNEL_ALGEBRAS:
        return rows
    _, idems = oracle.spectral_decomposition(
        J, oracle.jordan_powers(J, rng.standard_normal(d), 2)[2] + u)
    rows += idems
    p = idems[0]
    rows += [2.0 * u + 3.0 * p, 0.5 * u - 0.5 * p]
    for gap in (1e-5, 1e-7, 1e-9):
        lams = 1.0 + np.arange(len(idems), dtype=float)
        lams[-1] = lams[0] + gap
        rows.append(sum(lam * q for lam, q in zip(lams, idems)))
    return rows


@st.composite
def stacks(draw):
    """An algebra and a stack mixing generic and non-generic rows."""
    k = draw(st.integers(0, N_ALGEBRAS + len(KERNEL_ALGEBRAS) - 1))
    J = algebra(k) if k < N_ALGEBRAS else KERNEL_ALGEBRAS[k - N_ALGEBRAS]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = special_rows(J, rng)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        pick = draw(st.integers(-3, len(special) - 1))
        x = rng.standard_normal(J.dim)
        if pick == -1:
            rows.append(x)
        elif pick == -2:
            rows.append(1e-3 * x)
        elif pick == -3:        # a sample of gate 4
            rows.append(oracle.jordan_powers(J, 3.0 * x, 2)[2]
                        + 0.2 * J.unit_float())
        else:
            rows.append(special[pick])
    return J, np.array(rows)


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_degrees_and_powers_match_the_one_element_code(case):
    J, W = case
    degs, pows = _degrees_and_powers(J, W)
    for w, deg, P in zip(W, degs, pows):
        assert_same(deg, outcome(oracle.minimal_polynomial_degree, J, w))
        if not isinstance(deg, Exception):
            assert_same(P[:deg + 1], np.array(oracle.jordan_powers(J, w, deg)))
        assert_same(outcome(minimal_polynomial_degree, J, w), deg)


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_eigenvalues_match_the_one_element_code(case):
    J, W = case
    for w, lams in zip(W, _eigenvalues_many(J, W)):
        assert_same(lams, outcome(oracle._eigenvalues, J, w))
        assert_same(outcome(_eigenvalues, J, w), lams)


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_square_roots_match_the_one_element_code(case):
    J, W = case
    for w, s in zip(W, _sqrt_many(J, W)):
        assert_same(s, outcome(oracle.jordan_sqrt, J, w))
        assert_same(outcome(jordan_sqrt, J, w), s)


def test_the_stacks_reach_every_failure():
    """The rows compared above do exercise the error paths."""
    J = real_symmetric(3)
    roots = _sqrt_many(J, np.array(special_rows(J, np.random.default_rng(3))))
    errors = {str(r).split(" (")[0] for r in roots if isinstance(r, Exception)}
    assert errors == {"SVD did not converge", "element not in the cone"}
    roots = _sqrt_many(plane(-1.0), np.random.default_rng(3).random((3, 2)))
    assert all(str(r).startswith("complex eigenvalues") for r in roots)


@pytest.mark.parametrize("k", range(N_ALGEBRAS))
def test_generic_rank_matches(k):
    J = algebra(k)
    for seed in (42, 7):
        assert generic_rank(J, seed=seed) == oracle.generic_rank(J, seed=seed)


def test_stacked_solve_falls_back_row_by_row():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3, 3))
    A[2] = 0.0
    b = rng.standard_normal((4, 3, 1))
    got = _stacked(np.linalg.solve, A, b)
    assert isinstance(got[2], np.linalg.LinAlgError)
    for n in (0, 1, 3):
        assert_same(got[n], np.linalg.solve(A[n], b[n]))


def assert_same_report(new, old):
    new, old = dataclasses.asdict(new), dataclasses.asdict(old)
    assert new.keys() == old.keys()
    for key, value in old.items():
        if isinstance(value, float):
            assert_same(new[key], value)
        else:
            assert new[key] == value, key


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, N_ALGEBRAS - 1), seed=st.integers(0, 2**32 - 1),
       sample_count=st.integers(0, 25))
def test_symmetric_cone_reports_match(k, seed, sample_count):
    J = algebra(k)
    assert_same_report(verify_symmetric_cone(J, sample_count, seed),
                       oracle.verify_symmetric_cone(J, sample_count, seed))


@pytest.mark.parametrize("k", range(N_ALGEBRAS))
def test_symmetric_cone_reports_match_at_the_defaults(k):
    J = algebra(k)
    rep = verify_symmetric_cone(J)
    assert rep.ok
    assert_same_report(rep, oracle.verify_symmetric_cone(J))


def test_mislabelled_tensor_fails_inside_gate_4_as_before():
    """RealSym(2)'s tensor under the cone formula of R + R + R: the axioms,
    the trace form and self-duality pass, and the images of squares whose
    off-diagonal coordinate is negative fail the wrong formula."""
    J = real_symmetric(2)
    K = JordanAlgebra("DirectSum(RealSym(1), RealSym(1), RealSym(1))", J.dim,
                      J.unit, J.tensor, True,
                      params=classical_algebra(3).params)
    rep = verify_symmetric_cone(K, sample_count=30)
    assert rep.self_duality_ok and not rep.ok
    assert 0 < len(rep.failures) < 30
    assert_same_report(rep, oracle.verify_symmetric_cone(K, sample_count=30))


ROOTS = np.roots


def tagged_roots(tags):
    """np.roots, except on the polynomials in `tags` (keyed by their
    bytes): "complex" adds an imaginary part, "negative" shifts the roots
    below zero and "linalg" raises LinAlgError."""
    def roots(poly):
        tag = tags.get(np.asarray(poly).tobytes())
        if tag == "linalg":
            raise np.linalg.LinAlgError("tagged")
        out = ROOTS(poly)
        return {"complex": out + 1e-3j, "negative": out - 100.0}.get(tag, out)
    return roots


def gate_4_polynomials(J, monkeypatch):
    """The polynomials the old check hands to np.roots in gate 4, in order:
    sqrt_0, membership_0, sqrt_1, membership_1, ..."""
    seen = []

    def record(poly):
        seen.append(np.asarray(poly).tobytes())
        return ROOTS(poly)
    monkeypatch.setattr(np, "roots", record)
    oracle.verify_symmetric_cone(J, sample_count=20)
    monkeypatch.setattr(np, "roots", ROOTS)
    assert len(seen) == 2 + 2 * 20      # gate 3 diagonalises samples 0, 10
    return seen[2:]


@pytest.mark.parametrize("tags", [
    {1: "negative", 7: "negative", 10: "complex", 13: "linalg"},
    {3: "negative", 9: "linalg", 12: "complex"},
    {5: "complex"},
    {4: "linalg"},
    {0: "negative"},
    {1: "negative", 39: "negative"},
])
def test_gate_4_failures_stop_where_the_sample_loop_stopped(tags,
                                                            monkeypatch):
    """Failures planted on chosen square roots (even positions) and
    membership tests (odd positions) give the same report, or the same
    escaping LinAlgError, as the old loop."""
    J = recovered("qutrit:complex")
    polys = gate_4_polynomials(J, monkeypatch)
    monkeypatch.setattr(np, "roots", tagged_roots(
        {polys[i]: tag for i, tag in tags.items()}))
    old = outcome(oracle.verify_symmetric_cone, J, 20)
    new = outcome(verify_symmetric_cone, J, 20)
    if isinstance(old, Exception):
        assert_same(new, old)
    else:
        assert old.failures and not old.ok
        assert_same_report(new, old)
