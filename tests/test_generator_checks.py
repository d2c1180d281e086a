"""Irreducibility and full bi-symmetry from the generators alone agree with
the group-enumerating oracles in `reference_groups`."""
import pytest
from hypothesis import given, settings, strategies as st

import reference_groups as oracle
from kvwb.builtins import classical, get_builtin, squit
from kvwb.effectspace import build_effect_space
from kvwb.forms import is_irreducible
from kvwb.models import Model, PermutationGroup, check_bisymmetry

POLYTOPE_BUILTINS = ["classical:2", "classical:3", "classical:4",
                     "classical:5", "squit", "squit:klein"]


def assert_agrees(m: Model) -> None:
    E = build_effect_space(m)
    assert is_irreducible(E) == oracle.is_irreducible(E), m.name
    assert (check_bisymmetry(m).fully_bisymmetric
            == oracle.fully_bisymmetric(m)), m.name


@st.composite
def classical_with_subgroup(draw):
    """classical:n whose group is generated by 0-3 random permutations."""
    n = draw(st.integers(2, 5))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    c = classical(n)
    return Model(f"classical:{n}", c.testspace, c.states,
                 PermutationGroup(tuple(tuple(g) for g in gens)))


@st.composite
def squit_with_subgroup(draw):
    """The square bit (two tests) with 0-3 random elements of its dihedral
    group as generators."""
    s = squit()
    gens = draw(st.lists(st.sampled_from(oracle.mulclose(s.group.generators)),
                         max_size=3))
    return Model("squit", s.testspace, s.states, PermutationGroup(tuple(gens)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(classical_with_subgroup(), squit_with_subgroup()))
def test_generator_checks_match_enumeration_on_subgroups(m):
    assert_agrees(m)


@pytest.mark.parametrize("name", POLYTOPE_BUILTINS + ["classical:6"])
def test_generator_checks_match_enumeration_on_builtins(name):
    assert_agrees(get_builtin(name))
