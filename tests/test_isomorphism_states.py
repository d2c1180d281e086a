"""The integer `omega_hat`, `is_isomorphism_state` and `is_self_dual`
against their `Fraction` oracles in `reference_kernels`: the same reports,
failures and values, or the same error and witness.  The oracles separate a
vector found outside the effect cone by a membership LP; the fast checks by
the first generator of the dual effect cone that is negative on it, which
must also be nonnegative on every generator of the effect cone."""
from collections import Counter
from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from kvwb import composites, cones, effectspace, linalg, lp
from kvwb.builtins import conjugation_bijection, get_builtin
from kvwb.composites import (BipartiteState, CompositeError,
                             find_conjugate_state, is_isomorphism_state,
                             omega_hat)
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb.pipeline import run_pipeline

EXACT = ["classical:3", "classical:4", "squit", "gbit:3"]


@cache
def space(name):
    """The effect space of a built-in and the W of its conjugate table."""
    m = get_builtin(name)
    E = build_effect_space(m)
    eta = find_conjugate_state(m, conjugation_bijection(m))
    return E, np.array(oracle.omega_hat(eta, E, E).matrix, dtype=object)


def table_of(E, W, bump=None, row=None):
    """The table omega(x, y) = b_y·W a_x of a map W, with one entry (x, y)
    raised by t, bump = (x, y, t), or one row x moved by the functional f,
    row = (x, f): the first breaks an effect dependency of the partner, the
    second one of the source, wherever the outcome vectors are dependent."""
    m, V = E.model, E.outcome_vectors
    table = {(x, y): np.dot(V[y], W @ np.array(V[x], dtype=object))
             for x in m.outcomes for y in m.outcomes}
    if bump is not None:
        x, y, t = bump
        table[(x, y)] += t
    if row is not None:
        x, f = row
        for y in m.outcomes:
            table[(x, y)] += np.dot(f, V[y])
    return BipartiteState(m, m, table)


def outcome(f, *args):
    """What f returns, or the message and witness of its CompositeError."""
    try:
        res = f(*args)
    except CompositeError as exc:
        return "error", str(exc), exc.witness
    return "ok", res.matrix if hasattr(res, "matrix") else vars(res)


def category(rep):
    if rep[0] == "error":
        return "outcome error" if isinstance(rep[2], str) else "row error"
    r = rep[1]
    if not r["invertible"]:
        return "singular"
    stages = {f["stage"] for f in r["failures"]}
    return "+".join(sorted(stages)) or "iso"


def assert_first_separator(E, v, h):
    """h is the first generator of the dual effect cone with h·v < 0, and
    h·g >= 0 on every generator g of the effect cone."""
    first = next(d for d in E.dual_effect_cone.all_generators()
                 if np.dot(d, v) < 0)
    assert h == first
    assert all(np.dot(h, g) >= 0 for g in E.effect_cone.all_generators())


def without(rep, key):
    """The report with the `key` field of each failure set to None."""
    if rep[0] == "error":
        return rep
    r = dict(rep[1])
    r["failures"] = [{**f, key: None} if key in f else f
                     for f in r["failures"]]
    return "ok", r


def assert_same(E, w):
    got = outcome(omega_hat, w, E, E)
    assert got == outcome(oracle.omega_hat, w, E, E)
    rep = outcome(is_isomorphism_state, w, E, E)
    assert (without(rep, "separator")
            == without(outcome(oracle.is_isomorphism_state, w, E, E),
                       "separator"))
    if rep[0] == "ok" and rep[1]["invertible"]:
        W_inv = np.array(linalg.inverse(got[1]), dtype=object)
        for f in rep[1]["failures"]:
            if f["stage"] == "inverse":
                assert_first_separator(
                    E, W_inv @ np.array(f["generator"], dtype=object),
                    f["separator"])
    return category(rep)


small = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def tables(draw):
    name = draw(st.sampled_from(EXACT))
    E, W0 = space(name)
    m, d = E.model, E.dim
    sparse = st.one_of(st.just(F(0)), st.just(F(0)), small)
    noise = np.array(draw(st.lists(sparse, min_size=d * d, max_size=d * d)),
                     dtype=object).reshape(d, d)
    W = draw(st.sampled_from([0, 1, 1, 2])) * W0 + noise
    bump = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(m.outcomes), st.sampled_from(m.outcomes),
        small.filter(bool))))
    row = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(m.outcomes),
        st.lists(small, min_size=d, max_size=d))))
    return E, table_of(E, W, bump, row)


@settings(max_examples=80, deadline=None)
@given(tables())
def test_integer_checks_match_the_fraction_oracle(case):
    assert_same(*case)


def _cases():
    """One table of every kind of outcome, each named by what it shows."""
    sq, sq_W = space("squit")
    c3, c3_W = space("classical:3")
    g3, g3_W = space("gbit:3")
    yield "iso", c3, table_of(c3, c3_W)
    yield "inverse", sq, table_of(sq, sq_W)
    yield "inverse", g3, table_of(g3, g3_W)
    skew = np.zeros((3, 3), dtype=object)
    skew[0, 1] = F(-1, 4)
    yield "forward", c3, table_of(c3, c3_W + skew)
    yield "forward+inverse", c3, table_of(c3, c3_W - F(1, 2))
    yield "singular", c3, table_of(c3, 0 * c3_W)
    yield "row error", sq, table_of(sq, sq_W, bump=("x0", "y1", F(1, 7)))
    yield "outcome error", sq, table_of(sq, sq_W,
                                        row=("y0", [F(1), F(0), F(0)]))


@pytest.mark.parametrize("want, E, w", list(_cases()))
def test_every_kind_of_outcome_matches_the_oracle(want, E, w):
    assert assert_same(E, w) == want


@pytest.mark.parametrize("name", ["qubit:real", "qubit:complex"])
@pytest.mark.parametrize("bump", [0.0, 1e-3])
def test_float_tables_match_the_oracle(name, bump):
    """Float maps agree to rounding, and a bumped entry raises at the same
    pair as the per-row solves did."""
    m = get_builtin(name)
    E = build_effect_space(m)
    eta = find_conjugate_state(m, conjugation_bijection(m))
    table = dict(eta.table)
    table[(m.outcomes[0], m.outcomes[-1])] += bump
    w = BipartiteState(m, m, table)
    got, want = outcome(omega_hat, w, E, E), outcome(oracle.omega_hat, w, E, E)
    if bump:
        assert got[0] == "error" and got == want
        return
    assert np.abs(np.asarray(got[1]) - np.asarray(want[1])).max() < 1e-12
    assert (outcome(is_isomorphism_state, w, E, E)
            == outcome(oracle.is_isomorphism_state, w, E, E))


forms = st.lists(st.integers(-3, 3), min_size=6, max_size=6)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(EXACT + ["classical:5", "gbit:4"]), forms)
def test_self_duality_matches_the_per_ray_lps(name, entries):
    """The invariant form of each model, and random symmetric forms on the
    first three coordinates around it."""
    m = get_builtin(name)
    E = build_effect_space(m)
    B = np.array(find_orthogonalizing_spin_form(m, E).form.matrix)
    a, b, c, p, q, r = (F(v, 2) for v in entries)
    B[:3, :3] += np.array([[a, p, q], [p, b, r], [q, r, c]], dtype=object)
    B = B.tolist()
    got = vars(cones.is_self_dual(E.effect_cone, B, E.dual_effect_cone))
    want = vars(oracle.is_self_dual(E.effect_cone, B))
    for rep in (got, want):
        D = rep.pop("dual")
        rep["dual"] = (D.generators, D.lineality, D.extreme)
    for f in got["failures"]:
        if f["kind"] == "dual-ray-outside-cone":
            assert_first_separator(E, f["ray"], f["separating"])
    assert (without(("ok", got), "separating")
            == without(("ok", want), "separating"))


#: `lp.solve_feasibility` calls per `run_pipeline`.  With one LP per ray, as
#: in the oracles of `reference_kernels`, a run made 25 on classical:4 and 30
#: on classical:5, 12 and 15 of them in `is_isomorphism_state` and 4 and 5 in
#: `is_self_dual`.  The pointedness LP of the effect cone is solved once
#: per run (it was twice, 9, 10 and 21 in all).  On squit the 4 inverse
#: failures and the 4 dual rays outside the cone each solved an LP for its
#: separator, 20 in all, until the separators were read off the products.
LP_CALLS = {"classical:4": 8, "classical:5": 9, "squit": 12}


@pytest.mark.parametrize("name", sorted(LP_CALLS))
def test_isomorphism_and_self_duality_lps_run_only_on_failures(
        name, monkeypatch):
    """No LP inside `is_isomorphism_state` or `is_self_dual`, failures
    included: on squit each inverse failure and each dual ray outside the
    cone takes its separator from the product that found it.  One outcome
    frame per run."""
    calls, scope, reports, frames = Counter(), [], [], []
    solve, Frame = lp.solve_feasibility, effectspace.OutcomeFrame

    def counted(*args, **kw):
        calls.update(["all", *scope])
        return solve(*args, **kw)

    def scoped(key, f, keep):
        def g(*args, **kw):
            scope.append(key)
            try:
                res = f(*args, **kw)
            finally:
                scope.pop()
            keep.append(res)
            return res
        return g

    def frame(*args):
        frames.append(args)
        return Frame(*args)

    sd = []
    monkeypatch.setattr(lp, "solve_feasibility", counted)
    monkeypatch.setattr(composites, "solve_feasibility", counted)
    monkeypatch.setattr(composites, "is_isomorphism_state", scoped(
        "iso", composites.is_isomorphism_state, reports))
    monkeypatch.setattr(cones, "is_self_dual", scoped(
        "sd", cones.is_self_dual, sd))
    monkeypatch.setattr(effectspace, "OutcomeFrame", frame)
    rep = run_pipeline(get_builtin(name))
    inverse = [f for r in reports for f in r.failures
               if f["stage"] == "inverse"]
    outside = [f for r in sd for f in r.failures
               if f["kind"] == "dual-ray-outside-cone"]
    assert calls["all"] == LP_CALLS[name]
    assert calls["iso"] == calls["sd"] == 0
    assert bool(inverse) == bool(outside) == (name == "squit")
    assert len(inverse) + len(outside) == (8 if name == "squit" else 0)
    E = build_effect_space(get_builtin(name))
    for f in outside:
        assert_first_separator(E, f["ray"], f["separating"])
    assert all(f["separator"] for f in inverse)
    assert len(frames) == 1
    assert rep.stage("self-duality").status == (
        "fail" if name == "squit" else "pass")


def test_a_dual_cone_that_disagrees_with_the_lp_raises():
    """A separator is re-checked by substitution: a wrong dual cone of the
    orthant, cone((1, 0), (-1, 1)), puts the ray (1, 0) of the mapped form
    dual outside, separated by (-1, 1), which is negative on the orthant's
    generator (1, 0); the check refuses it."""
    orthant = cones.cone([[1, 0], [0, 1]])
    wrong = cones.dual_cone(cones.cone([[1, 1], [0, 1]]))
    assert wrong.generators == ((1, 0), (-1, 1))
    with pytest.raises(lp.CertificateError,
                       match="failed its substitution check"):
        cones.is_self_dual(orthant, [[F(1), F(0)], [F(0), F(1)]], wrong)
