"""`forms.certify_flags` sets the SPIN flags exactly as the four setters it
replaced (`reference_kernels`): the exact and float flag blocks of the spin
search and the exact and float flaggers of derived forms."""
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from kvwb.builtins import builtin_names, conjugation_bijection, get_builtin
from kvwb.composites import (_invariance_flag, conjugate_from_state,
                             find_conjugate_state, spin_form_from_conjugate)
from kvwb.effectspace import build_effect_space
from kvwb.forms import (BilinearForm, certify_flags,
                        find_orthogonalizing_spin_form)
from kvwb.models import distinguishable_pairs

TOL = 1e-9
FLAGS = ("normalized", "orthogonalizing", "positive_on_cone",
         "positive_definite")


@lru_cache(maxsize=None)
def context(name):
    """(effect space, spin form or None) of a built-in."""
    m = get_builtin(name)
    E = build_effect_space(m)
    return E, find_orthogonalizing_spin_form(m, E, tol=TOL).form


def derived_form(name, require_invariance):
    E, _ = context(name)
    m = E.model
    gamma = conjugation_bijection(m, tol=TOL)
    eta = find_conjugate_state(m, gamma, require_invariance, tol=TOL)
    assert eta is not None, name
    conj = conjugate_from_state(m, gamma, eta, require_invariance)
    return spin_form_from_conjugate(conj, E, tol=TOL)


def search_pairs(m):
    """The distinguishable pairs as the spin search deduplicates them."""
    pairs = set()
    for a, b in distinguishable_pairs(m):
        if (b, a) not in pairs:
            pairs.add((a, b))
    return pairs


def old_spin_flags(matrix, kind, E):
    """Flags the spin search's own flag blocks set on a form it found."""
    old = BilinearForm(matrix, kind, invariant=True)
    if kind == "exact":
        ref._certify_exact(old, E.model, E, search_pairs(E.model))
    else:
        ref.spin_float_flags(old, E, search_pairs(E.model),
                             np.asarray(old.matrix), TOL)
    return old.flag_summary()


def old_derived_flags(matrix, kind, E):
    old = BilinearForm(matrix, kind)
    if kind == "exact":
        ref._flag_exact(old, E.model, E)
    else:
        ref._flag_float(old, E.model, E, TOL)
    return old.flag_summary()


def new_derived_flags(matrix, kind, E):
    """What `spin_form_from_conjugate` sets on a form with this matrix."""
    B = BilinearForm(matrix, kind)
    certify_flags(B, E, TOL)
    B.invariant = _invariance_flag(E, B, TOL)
    return B.flag_summary()


@pytest.mark.parametrize("name", builtin_names())
def test_spin_form_flags_match_the_old_setters(name):
    E, form = context(name)
    assert form is not None, name
    assert form.flag_summary() == old_spin_flags(form.matrix, form.kind, E)


@pytest.mark.parametrize("require_invariance", [True, False])
@pytest.mark.parametrize("name", builtin_names())
def test_derived_form_flags_match_the_old_setters(name, require_invariance):
    E, _ = context(name)
    B = derived_form(name, require_invariance)
    assert B.flag_summary() == old_derived_flags(B.matrix, B.kind, E)
    if name == "squit:klein":
        assert B.invariant is None          # the derived form is singular


def perturbed(matrix, kind, P, t):
    """matrix + t * (P + P^T), exact or float."""
    n = len(matrix)
    if kind == "exact":
        return [[matrix[i][j] + t * (P[i][j] + P[j][i]) for j in range(n)]
                for i in range(n)]
    M = np.asarray(matrix, float)
    Q = np.asarray(P, float)
    return M + t * (Q + Q.T)


def unit(n, i, j):
    return [[int(a == i and b == j) for b in range(n)] for a in range(n)]


def assert_same_flags(matrix, kind, E):
    new = new_derived_flags(matrix, kind, E)
    assert new == old_derived_flags(matrix, kind, E)
    spin_new = BilinearForm(matrix, kind, invariant=True)
    certify_flags(spin_new, E, TOL)
    spin_old = old_spin_flags(matrix, kind, E)
    if kind == "exact":
        assert spin_new.flag_summary() == spin_old
    else:
        # the float spin block took normalization and cone positivity from
        # the search; only its other two flags apply to an arbitrary form
        for flag in ("orthogonalizing", "positive_definite"):
            assert getattr(spin_new, flag) == spin_old[flag]
    return new


#: Built-ins whose spin forms are perturbed, two exact and two float.
PERTURBED = ["classical:3", "squit", "qubit:real", "qubit:complex"]


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_perturbations_flip_every_flag_alike(kind):
    seen = {flag: set() for flag in FLAGS + ("invariant",)}
    scales = ([F(0), F(1, 10), F(-1, 10), F(1), F(-3)] if kind == "exact"
              else [0.0, 1e-12, -1e-12, 1e-3, -1e-3, 1.0, -3.0])
    names = [n for n in PERTURBED if context(n)[0].kind == kind]
    for name in names:
        E, form = context(name)
        n = E.dim
        for i in range(n):
            for j in range(i, n):
                for t in scales:
                    M = perturbed(form.matrix, kind, unit(n, i, j), t)
                    flags = assert_same_flags(M, kind, E)
                    for flag, value in flags.items():
                        seen[flag].add(value)
        variants = [[[s * x for x in row] for row in form.matrix]
                    if kind == "exact" else s * np.asarray(form.matrix)
                    for s in (2, -1)]               # rescaled and negated
        if kind == "float":
            # singular up to rounding: the least eigenvalue is within tol of 0
            w, V = np.linalg.eigh(form.matrix)
            variants.append(form.matrix - w[0] * np.outer(V[:, 0], V[:, 0]))
        for M in variants:
            for flag, value in assert_same_flags(M, kind, E).items():
                seen[flag].add(value)
    for flag in FLAGS:
        assert seen[flag] == {True, False}, (kind, flag)
    assert {True, False} <= seen["invariant"], kind


@st.composite
def perturbed_forms(draw):
    name = draw(st.sampled_from(PERTURBED))
    E, form = context(name)
    n = E.dim
    entries = st.integers(-3, 3)
    P = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if E.kind == "exact":
        t = draw(st.sampled_from([F(0), F(1, 100), F(-1, 7), F(1, 2), F(2)]))
    else:
        t = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, -0.01, 0.5, -2.0]))
    return E, perturbed(form.matrix, E.kind, P, t)


@settings(max_examples=60, deadline=None)
@given(perturbed_forms())
def test_random_perturbations_agree_with_the_old_setters(drawn):
    E, M = drawn
    assert_same_flags(M, E.kind, E)
