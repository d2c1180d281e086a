"""The integer invariant-form checks against their `Fraction` oracles in
`reference_kernels`: `_fixed_covector_dim`, `check_unitarity`,
`certify_flags`, `pairwise_form_positivity` and `is_positive_definite` must
return what the oracles return on random rational actions, forms and cones
of dimension at most 4.  A guard checks that the exact form checks make no
`Fraction` product, and a spy that the pointedness LP runs once per run.
On the built-ins, `is_irreducible` must give the verdict of counting a
basis of the invariant forms, and the spin-form LP over merged rows an
answer that the unmerged LP accepts."""
from fractions import Fraction as F
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from kvwb import cones
from kvwb.builtins import get_builtin
from kvwb.cones import PolyhedralCone, pairwise_form_positivity
from kvwb.effectspace import build_effect_space
from kvwb.forms import (BilinearForm, _fixed_covector_dim, certify_flags,
                        check_unitarity, find_orthogonalizing_spin_form,
                        invariance_rows, is_irreducible)
from kvwb.linalg import _Kind, is_positive_definite
from kvwb.pipeline import run_pipeline

EXACT = _Kind("exact")
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
dims = st.integers(1, 4)


def matrices(dim, entries=small):
    return st.lists(st.lists(entries, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)


@st.composite
def symmetric(draw, dim, entries=small):
    A = np.array(draw(matrices(dim, entries)), dtype=object)
    return (A + A.T).tolist()


@st.composite
def actions(draw, dim):
    """Signed permutations scaled by 1 or 1/2 (which fix covectors and keep
    forms invariant often enough to matter) or random rational matrices."""
    if draw(st.booleans()):
        return draw(matrices(dim))
    perm = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=dim,
                          max_size=dim))
    t = draw(st.sampled_from([F(1), F(1), F(1, 2)]))
    return [[t * signs[i] if j == perm[i] else F(0) for j in range(dim)]
            for i in range(dim)]


@st.composite
def forms_for(draw, dim):
    """a·I + b·J (J all ones, invariant under permutations; singular when
    a = 0 or a + b·dim = 0), optionally plus a random symmetric matrix, or a
    rank-one form v vᵀ."""
    if draw(st.integers(0, 5)) == 0:
        v = draw(st.lists(small, min_size=dim, max_size=dim))
        return [[x * y for y in v] for x in v]
    a, b = draw(small), draw(small)
    B = np.array([[a * (i == j) + b for j in range(dim)] for i in range(dim)],
                 dtype=object)
    if draw(st.booleans()):
        B = B + np.array(draw(symmetric(dim)), dtype=object)
    return B.tolist()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=dims, n=st.integers(0, 3))
def test_fixed_covector_dim_matches_the_oracle(data, dim, n):
    """The actions are held as their pairs (s, s·M), which the oracle
    reads back as `Fraction` matrices."""
    E = SimpleNamespace(kind="exact", dim=dim,
                        actions=tuple(EXACT.scaled(data.draw(actions(dim)))
                                      for _ in range(n)))
    assert _fixed_covector_dim(E) == oracle.fixed_covector_dim(E)


def unitarity(check, acts, B):
    try:
        return check(acts, B)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=dims, n=st.integers(0, 3))
def test_unitarity_matches_the_oracle(data, dim, n):
    """The same verdict, or the same `ValueError` on a singular form; the
    checked kernel reads each action as its pair (s, s·M)."""
    acts = [data.draw(actions(dim)) for _ in range(n)]
    B = BilinearForm(data.draw(forms_for(dim)), "exact")
    got = unitarity(check_unitarity, [EXACT.scaled(M) for M in acts], B)
    assert got == unitarity(oracle.check_unitarity, acts, B)
    assert type(got) in (bool, str)


@settings(max_examples=80, deadline=None)
@given(dim=dims, data=st.data())
def test_positive_definiteness_matches_the_oracle(dim, data):
    """Random symmetric rationals, and Gram matrices R Rᵀ (PD when R is
    invertible), with some entries made integers."""
    if data.draw(st.booleans()):
        R = np.array(data.draw(matrices(dim)), dtype=object)
        A = (R @ R.T).tolist()
    else:
        A = data.draw(symmetric(dim))
    got = is_positive_definite(A)
    assert got is oracle.is_positive_definite(A)
    ints = [[int(x) if x.denominator == 1 else x for x in row] for row in A]
    assert is_positive_definite(ints) is got


@cache
def context(name):
    """(effect space, spin form matrix) of a built-in."""
    m = get_builtin(name)
    E = build_effect_space(m)
    return E, find_orthogonalizing_spin_form(m, E).form.matrix


FLAGS = ("normalized", "orthogonalizing", "positive_on_cone",
         "positive_definite")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["classical:3", "classical:4", "squit",
                             "gbit:3", "qubit:real"]),
       a=small, noise=st.booleans(), data=st.data())
def test_flags_match_the_oracle(name, a, noise, data):
    """a·S, S the spin form (orthogonalizing; normalized at a = 1, positive
    definite at a > 0), optionally plus a random symmetric matrix."""
    E, S = context(name)
    exact = E.kind == "exact"
    B = np.array(S, dtype=object) * a if exact else S * float(a)
    if noise:
        R = np.array(data.draw(symmetric(E.dim)), dtype=object)
        B = B + (R if exact else R.astype(float))
    got, want = (BilinearForm(B.tolist() if exact else B, E.kind)
                 for _ in range(2))
    certify_flags(got, E)
    oracle.certify_flags(want, E)
    assert [getattr(got, f) for f in FLAGS] == [getattr(want, f)
                                                for f in FLAGS]


@st.composite
def cones_and_forms(draw):
    """Integer generators with entries in -2..2 (ties in the pairing are
    common), optionally a lineality vector, and a random symmetric form."""
    dim = draw(dims)
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    gens = tuple(map(tuple, draw(st.lists(vec, min_size=0, max_size=5))))
    lin = tuple(map(tuple, draw(st.lists(vec, max_size=1))))
    return (PolyhedralCone(gens, lin, ambient=dim),
            draw(symmetric(dim)))


@settings(max_examples=120, deadline=None)
@given(cones_and_forms())
def test_pairwise_positivity_matches_the_loop(case):
    """The same least value, as a `Fraction`, at the first pair of the
    row-major loop."""
    K, B = case
    got = pairwise_form_positivity(K, B)
    want = oracle.pairwise_form_positivity(K.all_generators(), B)
    assert got == want
    assert got[0] is None or type(got[0]) is F


@pytest.fixture()
def fraction_arithmetic(monkeypatch):
    """Counts of `Fraction` products and sums, by operator name."""
    counts = {}
    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def spy(self, other, _op=op, _f=getattr(F, op)):
            counts[_op] = counts.get(_op, 0) + 1
            return _f(self, other)
        monkeypatch.setattr(F, op, spy)
    return counts


def test_exact_form_checks_make_no_fraction_products(fraction_arithmetic):
    """`check_unitarity`, `certify_flags` and `invariance_rows` on the spin
    form of classical:5 run on integers (the effect space's cached frame
    is built first, outside the count)."""
    m = get_builtin("classical:5")
    E = build_effect_space(m)
    B = find_orthogonalizing_spin_form(m, E).form
    E.outcome_frame
    counts = fraction_arithmetic
    counts.clear()
    assert check_unitarity(E.actions, B)
    certify_flags(B, E)
    rows = invariance_rows(E.actions, E.dim, E.kind)
    assert counts == {}
    assert B.flag_summary() == {"positive_on_cone": True, "invariant": True,
                                "normalized": True, "orthogonalizing": True,
                                "positive_definite": True}
    assert all(type(x) is int for x in rows.flat)


@pytest.mark.parametrize("name", ["classical:4", "classical:5", "squit"])
def test_pointedness_lp_runs_once_per_run(name, monkeypatch):
    """`is_weakly_self_dual` asks whether the effect cone is pointed, and
    so does `PolyhedralCone.rays` after it; the LP is solved once."""
    asked, lps, inside = [], [], []
    pointed, solve = cones.PolyhedralCone.pointed, cones.free_feasibility

    def spy_pointed(K):
        asked.append(K)
        inside.append(True)
        try:
            return pointed.__get__(K, type(K))
        finally:
            inside.pop()

    def spy_solve(*args, **kw):
        if inside:
            lps.append(args)
        return solve(*args, **kw)

    monkeypatch.setattr(cones.PolyhedralCone, "pointed",
                        property(spy_pointed))
    monkeypatch.setattr(cones, "free_feasibility", spy_solve)
    rep = run_pipeline(get_builtin(name))
    assert rep.stage("weak-self-duality").status in ("pass", "fail")
    assert len(asked) == 2 and asked[0] is asked[1]
    assert len(lps) == 1


EXACT_SPACES = ["classical:2", "classical:3", "classical:4", "classical:5",
                "squit", "squit:klein", "classical:6", "gbit:3", "gbit:4",
                "gbit:5"]


@pytest.mark.parametrize("name", EXACT_SPACES)
def test_integer_pairs_match_the_fraction_bodies(name):
    """The effect space's action pairs, the unit's and the spin form's are
    the pairs `_Kind.scaled` makes of their matrices, and the form checks
    that read them give the rows, dimensions, verdicts (or the error on a
    singular form, squit:klein's) and flags of the bodies that scaled
    `Fraction` matrices on each call."""
    m = get_builtin(name)
    E = build_effect_space(m)
    B = find_orthogonalizing_spin_form(m, E).form
    acts = oracle.rational_actions(E)

    def as_lists(pair):
        return pair[0], pair[1].tolist()
    assert [as_lists(p) for p in E.actions] == [as_lists(EXACT.scaled(M))
                                                 for M in acts]
    assert as_lists(E.scaled_unit) == as_lists(EXACT.scaled(E.u))
    assert as_lists(B.scaled) == as_lists(EXACT.scaled(B.matrix))
    rows = E.invariance_rows
    assert rows.tolist() == oracle.scaled_invariance_rows(
        acts, E.dim, "exact").tolist()
    assert all(type(x) is int for x in rows.flat)
    assert _fixed_covector_dim(E) == oracle.scaled_fixed_covector_dim(E)
    assert unitarity(check_unitarity, E.actions, B) == unitarity(
        oracle.scaled_check_unitarity, acts, B)
    got, want = (BilinearForm(B.matrix, "exact") for _ in range(2))
    certify_flags(got, E)
    oracle.scaled_certify_flags(want, E)
    assert [getattr(got, f) for f in FLAGS] == [getattr(want, f)
                                                for f in FLAGS]


@pytest.mark.parametrize("name", EXACT_SPACES + [
    "qubit:real", "qubit:complex", "qutrit:complex"])
def test_irreducibility_reads_two_nullities(name):
    """`is_irreducible` reads the nullity of the invariance rows, and gives
    the verdict of counting a basis of the invariant forms and of the fixed
    covectors; the nullity is the length of the kind's null basis."""
    E = build_effect_space(get_builtin(name))
    K = _Kind(E.kind)
    assert is_irreducible(E) == oracle.form_count_is_irreducible(E)
    assert K.nullity(E.invariance_rows) == len(K.nullspace(E.invariance_rows))


@pytest.mark.parametrize("name", EXACT_SPACES)
def test_merged_spin_lp_answers_the_unmerged_one(name):
    """The spin LP over its merged positivity rows finds the unmerged LP's
    form when the candidate space is a line, and otherwise a normalized
    form that is nonnegative on every pair of effect-cone generators, as
    the unmerged LP's is (squit:klein, a plane)."""
    m = get_builtin(name)
    E = build_effect_space(m)
    got, want = (find_orthogonalizing_spin_form(m, E),
                 oracle.unmerged_spin_form(m, E))
    assert got.solution_space_dim == want.solution_space_dim
    assert (got.form is None) is (want.form is None)
    if want.form is None:
        return
    if want.solution_space_dim == 1:
        assert got.form.matrix == want.form.matrix
    G = E.effect_cone.matrix
    for form in (got.form, want.form):
        assert form.normalized
        assert (G @ form.scaled[1] @ G.T >= 0).all()


def test_spin_point_is_checked_against_every_row(monkeypatch):
    """A point that the LP returns is substituted into every unmerged
    positivity row; one that fails a row raises, also under `python -O`."""
    from kvwb import forms
    from kvwb.lp import CertificateError, LPResult
    m = get_builtin("classical:3")
    E = build_effect_space(m)
    monkeypatch.setattr(forms, "free_feasibility", lambda ineqs, eqs, n:
                        LPResult(True, point=[F(-1)] * n))
    with pytest.raises(CertificateError):
        forms.find_orthogonalizing_spin_form(m, E)
