"""Certificates read off what a run already holds, against the oracles in
`reference_kernels`:

* the integer `lp.check_certificate` accepts or raises exactly as the
  `Fraction` body it replaced, on solved LPs and on mutated certificates;
* `cones.separators` finds outside the cone exactly the vectors that the
  membership LP (`separating_functional`) finds outside, and each separator
  is the first generator of the dual that is negative on its vector and is
  nonnegative on the cone;
* `cones.mapped_dual` equals the double description of the form dual ray
  for ray, in the same order, whenever the form is invertible and the cone
  spans its space; a singular form keeps the double description;
* the effect cone and its dual hold primitive integer rays, which these
  kernels read without scaling them again.
"""
import math
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_kernels as oracle
from kvwb import cones, linalg
from kvwb.builtins import builtin_names, get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb.lp import CertificateError, LPResult, check_certificate, \
    solve_feasibility

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def verdict(check, *args):
    """None when `check` accepts; the type and message of what it raises."""
    try:
        check(*args)
    except (CertificateError, ValueError, IndexError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def lps(draw):
    """A system A x = b, x >= 0, sparse rows; b = A x0 for an x0 >= 0 when
    `feasible` is drawn, any b otherwise."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    A = draw(st.lists(st.lists(st.one_of(st.just(F(0)), small), min_size=n,
                               max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.fractions(min_value=0, max_value=3,
                                        max_denominator=4),
                           min_size=n, max_size=n))
        b = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in A]
    else:
        b = draw(st.lists(small, min_size=m, max_size=m))
    return A, b


@st.composite
def mutated(draw, cert):
    """cert as it is, with one entry changed, one sign flipped, or one
    entry too many or too few."""
    cert = list(cert)
    how = draw(st.sampled_from(["same", "entry", "sign", "longer",
                                "shorter"]))
    if how == "entry" and cert:
        cert[draw(st.integers(0, len(cert) - 1))] += draw(
            small.filter(bool))
    elif how == "sign" and cert:
        i = draw(st.integers(0, len(cert) - 1))
        cert[i] = -cert[i]
    elif how == "longer":
        cert.append(draw(small))
    elif how == "shorter" and cert:
        cert.pop(draw(st.integers(0, len(cert) - 1)))
    return cert


@settings(max_examples=300, deadline=None)
@given(lps(), st.data())
def test_integer_check_matches_the_fraction_oracle(lp, data):
    A, b = lp
    n = len(A[0])
    rows = oracle.lp_rows(A, b)
    sparse = [{j: a for j, a in enumerate(row) if a} for row in A]
    res = solve_feasibility(rows, n)
    cert = res.point if res.feasible else res.farkas
    assert verdict(check_certificate, rows, n, res) is None
    for _ in range(3):
        bad = data.draw(mutated(cert))
        as_point = data.draw(st.booleans())
        wrong = (LPResult(True, point=bad) if as_point
                 else LPResult(False, farkas=bad))
        assert (verdict(check_certificate, rows, n, wrong)
                == verdict(oracle.check_certificate, sparse, b, n, wrong))


@st.composite
def cones_and_vectors(draw):
    """A rational cone in R^2..R^4 from at most 6 generators, not all zero,
    and a few rational vectors, some of them on its generators."""
    d = draw(st.integers(2, 4))
    vec = st.lists(small, min_size=d, max_size=d)
    gens = draw(st.lists(vec, min_size=1, max_size=6))
    assume(any(any(g) for g in gens))
    vs = draw(st.lists(st.one_of(vec, st.sampled_from(gens)), min_size=1,
                       max_size=5))
    return cones.cone(gens), vs


@settings(max_examples=200, deadline=None)
@given(cones_and_vectors())
def test_separators_match_the_membership_lps(case):
    K, vs = case
    K_dual = cones.dual_cone(K)
    V = np.array([linalg._primitive_row(v) for v in vs], dtype=object).T
    seps = cones.separators(K, K_dual, V)
    for j, v in enumerate(vs):
        if oracle.cone_contains(K, v).feasible:
            assert j not in seps
            continue
        oracle.separating_functional(K, v)
        h = seps[j]
        assert h == next(g for g in K_dual.all_generators()
                         if linalg.dot(g, v) < 0)
        assert linalg.dot(h, v) < 0
        assert all(linalg.dot(h, g) >= 0 for g in K.all_generators())


def test_a_wrong_separator_fails_its_substitution_check():
    """A dual that is too large hands out a separator negative on the
    cone, which the check refuses, also under `python -O`; the true dual
    separates (1, -1) from the orthant by its first generator negative
    there, (1, 0)."""
    orthant = cones.cone([[1, 0], [0, 1]])
    too_large = cones.cone([[1, 0], [-1, 1]])
    with pytest.raises(CertificateError, match="substitution check"):
        cones.separators(orthant, too_large,
                         np.array([[1], [0]], dtype=object))
    script = textwrap.dedent("""
        import numpy as np
        from kvwb import cones, lp
        assert False, "asserts must be off under -O"
        try:
            cones.separators(cones.cone([[1, 0], [0, 1]]),
                             cones.cone([[1, 0], [-1, 1]]),
                             np.array([[1], [0]], dtype=object))
        except lp.CertificateError:
            print("raised")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.split() == ["raised"]
    assert cones.separators(orthant, cones.dual_cone(orthant),
                            np.array([[1, -1], [1, 2]], dtype=object)) \
        == {1: [F(1), F(0)]}


def assert_same_dual(K, K_dual, form):
    M = cones.mapped_dual(K_dual, form)
    D = cones.dual_cone(K, form)
    assert (M.generators, M.lineality, M.extreme) == \
        (D.generators, D.lineality, D.extreme)


EXACT = [n for n in builtin_names() if not n.startswith(("qubit", "qutrit"))]


@pytest.mark.parametrize("name", EXACT + [
    "classical:6", "gbit:3", "gbit:4", "gbit:5"])
def test_effect_cones_hold_primitive_integer_rays(name):
    """The effect cone and its dual hold their generators, lineality and
    extreme rays as primitive tuples of Python ints, and so does the
    integer matrix of their rows."""
    E = build_effect_space(get_builtin(name))
    for K in (E.effect_cone, E.dual_effect_cone):
        rows = [*K.generators, *K.lineality, *(K.extreme or ())]
        assert all(type(r) is tuple for r in rows)
        assert all(type(x) is int for r in rows for x in r)
        assert all(math.gcd(*r) == 1 for r in rows)
        assert all(type(x) is int for x in K.matrix.flat)


@pytest.mark.parametrize("name", EXACT + [
    "classical:6", "gbit:3", "gbit:4", "gbit:5"])
def test_mapped_form_dual_is_the_double_description(name):
    """The invariant form of each exact built-in; squit:klein's is singular,
    and has no mapped dual."""
    m = get_builtin(name)
    E = build_effect_space(m)
    assert E.kind == "exact"
    form = find_orthogonalizing_spin_form(m, E).form.matrix
    if name == "squit:klein":
        assert linalg.inverse(form) is None
        assert cones.mapped_dual(E.dual_effect_cone, form) is None
        return
    assert_same_dual(E.effect_cone, E.dual_effect_cone, form)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["classical:3", "classical:4", "squit", "gbit:3"]),
       st.data())
def test_mapped_dual_under_random_invertible_forms(name, data):
    E = build_effect_space(get_builtin(name))
    d = E.dim
    form = data.draw(st.lists(st.lists(small, min_size=d, max_size=d),
                              min_size=d, max_size=d))
    assume(linalg.inverse(form) is not None)
    assert_same_dual(E.effect_cone, E.dual_effect_cone, form)


@settings(max_examples=150, deadline=None)
@given(cones_and_vectors(), st.data())
def test_mapped_dual_of_random_spanning_cones(case, data):
    K, _ = case
    d = K.dim
    assume(linalg.rank([list(g) for g in K.generators]) == d)
    form = data.draw(st.lists(st.lists(small, min_size=d, max_size=d),
                              min_size=d, max_size=d))
    assume(linalg.inverse(form) is not None)
    assert_same_dual(K, cones.dual_cone(K), form)


def test_a_singular_form_keeps_the_double_description(monkeypatch):
    """No inverse to map by: `is_self_dual` runs `dual_cone(K, form)`, whose
    lineality, a line of the form's kernel, lies outside the orthant."""
    orthant = cones.cone([[1, 0], [0, 1]])
    form = [[F(1), F(0)], [F(0), F(0)]]
    assert cones.mapped_dual(cones.dual_cone(orthant), form) is None
    calls = []
    dual_cone = cones.dual_cone

    def counted(K, form=None):
        calls.append(form)
        return dual_cone(K, form)

    monkeypatch.setattr(cones, "dual_cone", counted)
    rep = cones.is_self_dual(orthant, form)
    assert calls == [None, form]
    assert (rep.dual.generators, rep.dual.lineality) == \
        (((1, 0),), ((0, 1),))
    assert not rep.self_dual
    assert [(f["ray"], f["separating"]) for f in rep.failures] == \
        [([F(0), F(-1)], [F(0), F(1)])]
