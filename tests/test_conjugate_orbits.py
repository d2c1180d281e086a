"""The conjugate search with one LP unknown per generator orbit agrees with
the full LP with invariance rows it replaced (`reference_kernels`), and its
certificates are checked against the full system."""
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference_groups
import reference_kernels as oracle
from test_generator_checks import classical_with_subgroup, squit_with_subgroup
from kvwb import composites, models
from kvwb.builtins import get_builtin, squit, squit_klein
from kvwb.composites import (BipartiteState, find_conjugate_state,
                             validate_bipartite)
from kvwb.models import Model, PermutationGroup, PolytopeBackend

POLYTOPE_BUILTINS = ["classical:2", "classical:3", "classical:4",
                     "classical:5", "squit", "squit:klein"]


def noisy_bit() -> Model:
    """One binary test whose states are the segment [1/4, 3/4]: no table
    has diagonal 1/2 with both conditionals in it."""
    ts = models.TestSpace(("x0", "x1"), (("x0", "x1"),))
    verts = ((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))
    return Model("noisy-bit", ts, PolytopeBackend(verts),
                 PermutationGroup(((1, 0),)))


def assert_conjugate_table(m: Model, eta: BipartiteState, invariant: bool,
                           gamma=None):
    """Valid, diagonal eta(x, gamma x) = 1/rank and, if asked, invariant
    under each generator g acting as (g, gamma g gamma^-1)."""
    outs = m.outcomes
    gamma = gamma or {x: x for x in outs}
    assert validate_bipartite(eta).ok, m.name
    assert all(eta.value(x, gamma[x]) == F(1, m.rank) for x in outs), m.name
    if invariant:
        pos = {x: i for i, x in enumerate(outs)}
        inv = {y: x for x, y in gamma.items()}
        for g in m.group.generators:
            for x in outs:
                for y in outs:
                    gy = gamma[outs[g[pos[inv[y]]]]]
                    assert eta.value(outs[g[pos[x]]], gy) == eta.value(x, y)


@st.composite
def model_and_gamma(draw):
    """A subgroup draw of classical:n or the square bit, and a conjugation
    bijection gamma drawn from the symmetries of its state space."""
    m = draw(st.one_of(classical_with_subgroup(), squit_with_subgroup()))
    if m.name == "squit":
        perm = draw(st.sampled_from(reference_groups.mulclose(
            squit().group.generators)))
    else:
        perm = draw(st.permutations(range(len(m.outcomes))))
    return m, {x: m.outcomes[perm[i]] for i, x in enumerate(m.outcomes)}


@settings(max_examples=40, deadline=None)
@given(model_and_gamma(), st.booleans())
def test_orbit_lp_matches_the_full_lp_on_subgroups(m_gamma, require_invariance):
    m, gamma = m_gamma
    new = find_conjugate_state(m, gamma, require_invariance)
    old = oracle.find_conjugate_state(m, gamma, require_invariance)
    assert (new is None) == (old is None)
    if new is not None:
        assert_conjugate_table(m, new, require_invariance, gamma)
        if m.name.startswith("classical:"):     # the table is forced
            assert new.table == old.table


@pytest.mark.parametrize("name", POLYTOPE_BUILTINS)
def test_orbit_lp_matches_the_full_lp_on_builtins(name):
    """Without invariance both searches solve the same LP and land on the
    same table; with it the table is forced except under the Klein group."""
    m = get_builtin(name)
    for require_invariance in (False, True):
        new = find_conjugate_state(m, require_invariance=require_invariance)
        old = oracle.find_conjugate_state(
            m, require_invariance=require_invariance)
        assert_conjugate_table(m, new, require_invariance)
        if not require_invariance or name != "squit:klein":
            assert new.table == old.table, (name, require_invariance)


def test_both_klein_conjugate_tables_are_valid():
    """Under the Klein group the invariant conjugate table is not unique:
    the full LP finds x0:[1/2,0,0,1/2], the orbit LP x0:[1/2,0,1/2,0], and
    both are valid, invariant, with diagonal 1/2."""
    m = squit_klein()
    new = find_conjugate_state(m)
    old = oracle.find_conjugate_state(m)
    assert old.row("x0") == [F(1, 2), F(0), F(0), F(1, 2)]
    assert new.row("x0") == [F(1, 2), F(0), F(1, 2), F(0)]
    for eta in (old, new):
        assert_conjugate_table(m, eta, invariant=True)


@pytest.mark.parametrize("require_invariance", [True, False])
def test_noisy_bit_has_no_conjugate(require_invariance):
    """The infeasible path: the lifted Farkas vector passes its check."""
    m = noisy_bit()
    assert find_conjugate_state(m, require_invariance=require_invariance) is None
    assert oracle.find_conjugate_state(
        m, require_invariance=require_invariance) is None


def test_lifted_certificates_are_checked_under_optimize_flag():
    """Under `python -O` a corrupted reduced certificate, and so a corrupted
    lifted one, still raises CertificateError: a point (squit) and a Farkas
    vector (the noisy bit)."""
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, "tests")
        from test_conjugate_orbits import noisy_bit
        from kvwb import composites, lp
        from kvwb.builtins import squit
        assert False, "asserts must be off under -O"
        solve = composites.solve_feasibility

        def corrupted(rows, n):
            res = solve(rows, n)
            if res.feasible:
                return lp.LPResult(True, point=[x + 1 for x in res.point])
            return lp.LPResult(False, farkas=[-y for y in res.farkas])

        composites.solve_feasibility = corrupted
        for m in (squit(), noisy_bit()):
            try:
                composites.find_conjugate_state(m)
            except lp.CertificateError:
                print("raised")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.split() == ["raised", "raised"]


def test_conjugate_lp_has_one_column_per_orbit(monkeypatch):
    """The LP shape does not grow with the model: 6 orbits of unknowns on
    every simplex (diagonal or not, for t, mu and nu) and 7 on every
    hypercube, so a fall-back to the full LP shows without timing it."""
    cols = []
    solve = composites.solve_feasibility

    def spy(rows, n):
        cols.append(n)
        return solve(rows, n)

    monkeypatch.setattr(composites, "solve_feasibility", spy)
    names = ([f"classical:{n}" for n in range(4, 9)]
             + [f"gbit:{k}" for k in range(2, 6)])
    for name in names:
        assert find_conjugate_state(get_builtin(name)) is not None
    assert cols == [6] * 5 + [7] * 4
