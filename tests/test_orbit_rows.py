"""The exact recovery over orbits of outcome triples solves to the cubic rows'
solutions.

`kvwb.jordan._orbit_stage` takes one unknown per orbit of multisets of
outcomes under the generator permutations and has no equivariance rows;
`reference_kernels.cubic_linear_stage` is the exact stage it replaced, one
unknown per sorted triple of coordinates with one block of equivariance
rows per action.  For an invariant form both have one solution set, so a
unique product must be the same integer pair (s, s·T), and a family must
have the same nullity and span the same tensors.
"""
import dataclasses
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from test_generator_checks import classical_with_subgroup, squit_with_subgroup
from kvwb import jordan, linalg
from kvwb.builtins import get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb.jordan import _linear_stage, _positive_definite, recover_jordan_product
from kvwb.pipeline import _recovery_problem, run_pipeline

EXACT_BUILTINS = ["classical:2", "classical:3", "classical:4", "classical:5",
                  "squit", "squit:klein"]
LADDERS = ([f"classical:{n}" for n in range(6, 13)]
           + [f"gbit:{k}" for k in range(3, 7)])


def problem(m, form_of=None):
    """The pipeline's recovery problem of an exact model, None when it has
    no positive definite spin form (no recovery runs then).  With
    `form_of`, a model on the same effect space with a larger group, the
    form is that model's spin form, which is invariant under m's group."""
    E = build_effect_space(m)
    F = form_of or m
    spin = find_orthogonalizing_spin_form(F, build_effect_space(F)).form
    if spin is None:
        return None
    p = _recovery_problem(E, spin, 1e-9)
    assert p.exact and p.frame is E.outcome_frame
    return p if _positive_definite(p.B[1] + p.B[1].T, 0) else None


def tensors(pair):
    """The rational tensors of a pair, flattened to (entries, columns)."""
    T = oracle.unscaled(pair)
    return T.reshape(-1, T.shape[-1])


def assert_same_solutions(p):
    """The orbit stage and the cubic-row oracle: both inconsistent, or the
    same integer pair when unique, or the same nullity, null span and
    affine family otherwise."""
    got, want = _linear_stage(p), oracle.cubic_linear_stage(p)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert all(type(x) is int for x in got[1].flat)
    assert got[1].shape == want[1].shape
    nullity = got[1].shape[-1] - 1
    if nullity == 0:
        assert (got[0], got[1].tolist()) == (want[0], want[1].tolist())
        return
    n, o = tensors(got), tensors(want)
    span = [list(c) for c in o[:, 1:].T]
    assert linalg.rank(span + [list(c) for c in n[:, 1:].T]) == nullity
    assert linalg.rank(span + [list(n[:, 0] - o[:, 0])]) == nullity


@pytest.mark.parametrize("name", EXACT_BUILTINS + LADDERS)
def test_orbit_stage_matches_the_cubic_rows(name):
    p = problem(get_builtin(name))
    if p is None:
        assert name == "squit:klein"          # its spin form is singular
        return
    assert_same_solutions(p)
    assert_same_solutions(dataclasses.replace(p, outcome_vectors=[]))
    res = recover_jordan_product(p)
    assert res.linear_solution_dim == 0
    # squit and the gbits are not Jordan: their tensor fails a gate
    assert (res.algebra is None) == (not name.startswith("classical"))
    if res.algebra is not None:
        assert res.algebra._scaled_tensor(linalg._Kind("exact"))[1].tolist() \
            == oracle.cubic_linear_stage(p)[1][..., 0].tolist()


@settings(max_examples=40, deadline=None)
@given(st.one_of(classical_with_subgroup(), squit_with_subgroup()),
       st.booleans())
def test_orbit_stage_matches_the_cubic_rows_on_subgroups(m, idempotence):
    """Random subgroups, the trivial one included, with the full group's
    spin form (the LP's form for a subgroup is mostly singular): fewer
    symmetries leave more orbits, and without idempotence rows a family of
    products."""
    p = problem(m, form_of=get_builtin(m.name))
    assert_same_solutions(p if idempotence else
                          dataclasses.replace(p, outcome_vectors=[]))


@pytest.mark.parametrize("name", ["classical:3", "squit"])
def test_orbit_stage_is_inconsistent_where_the_cubic_rows_are(name):
    """An idempotent that no product makes one (twice an outcome vector),
    and an asymmetric form invariant under a trivial group."""
    p = problem(get_builtin(name))
    s_g, g = p.outcome_vectors[0]
    doubled = dataclasses.replace(
        p, outcome_vectors=[*p.outcome_vectors, (s_g, 2 * g)])
    assert _linear_stage(doubled) is None
    assert oracle.cubic_linear_stage(doubled) is None
    s_B, B = p.B
    skew = B.copy()
    skew[0, 1] += 1
    skew[1, 0] -= 1
    asym = dataclasses.replace(p, B=(s_B, skew), actions=[], permutations=[])
    assert _linear_stage(asym) is None
    assert oracle.cubic_linear_stage(asym) is None


def test_orbit_stage_refuses_a_form_that_is_not_invariant():
    p = problem(get_builtin("classical:3"))
    s_B, B = p.B
    lopsided = B.copy()
    lopsided[0, 0] += s_B
    with pytest.raises(ValueError, match="not invariant"):
        _linear_stage(dataclasses.replace(p, B=(s_B, lopsided)))
    with pytest.raises(ValueError, match="permutation"):
        _linear_stage(dataclasses.replace(p, permutations=[]))


def counted_cubic_rows(monkeypatch):
    """The calls of `_complement_stage`, which builds and solves the float
    cubic-form rows on the unit's complement."""
    calls = []
    stage = jordan._complement_stage

    def counted(*args, **kwargs):
        calls.append(args)
        return stage(*args, **kwargs)
    monkeypatch.setattr(jordan, "_complement_stage", counted)
    return calls


def test_exact_pipeline_builds_no_cubic_rows(monkeypatch):
    calls = counted_cubic_rows(monkeypatch)
    rep = run_pipeline(get_builtin("classical:5"))
    assert rep.stage("jordan-recovery").status == "pass"
    assert calls == []
    assert not hasattr(jordan, "_cubic_rows")


def test_float_pipeline_builds_the_cubic_rows_once(monkeypatch):
    calls = counted_cubic_rows(monkeypatch)
    rep = run_pipeline(get_builtin("qutrit:complex"))
    assert rep.stage("jordan-recovery").status == "pass"
    assert len(calls) == 1


def test_classical_orbits_are_the_three_triple_types():
    """{a, a, a}, {a, a, b} and {a, b, c} on `classical:n`, n ≥ 3: three
    unknowns however many coordinates."""
    for n in (3, 5, 12):
        p = problem(get_builtin(f"classical:{n}"))
        orbit3, k = jordan._triple_orbits(n, p.permutations)
        assert k == 3
        assert (orbit3[0, 0, 0], orbit3[0, 0, 1], orbit3[0, 1, 2]) == (0, 1, 2)
        assert orbit3[n - 1, n - 1, n - 1] == 0
        assert orbit3[1, n - 1, 1] == 1
