from fractions import Fraction as F

import numpy as np
import pytest

from kvwb.builtins import builtin_names, classical, get_builtin, squit
from kvwb.effectspace import EffectSpaceError, build_effect_space
from kvwb.linalg import _integer_block, mat_vec
from kvwb.models import Model, PermutationGroup, PolytopeBackend, validate_model
from kvwb.models import TestSpace as TSpace
import reference_kernels as oracle


def test_classical_space_is_the_delta_basis():
    m = classical(3)
    E = build_effect_space(m)
    assert E.kind == "exact" and E.dim == 3
    for i, x in enumerate(m.outcomes):
        assert E.outcome_vectors[x] == [F(int(i == j)) for j in range(3)]
    assert E.u == [F(1)] * 3


def test_squit_space_collapses_one_dimension():
    E = build_effect_space(squit())
    assert E.dim == 3
    # unit = x0 + x1 = y0 + y1 in coordinates
    vx = [a + b for a, b in zip(E.outcome_vectors["x0"], E.outcome_vectors["x1"])]
    vy = [a + b for a, b in zip(E.outcome_vectors["y0"], E.outcome_vectors["y1"])]
    assert vx == vy == E.u


def test_effect_actions_permute_outcome_vectors():
    m = squit()
    E = build_effect_space(m)
    for g, M in zip(m.group.generators, oracle.rational_actions(E),
                    strict=True):
        for x in m.outcomes:
            gx = m.outcomes[g[m.testspace.index(x)]]
            assert mat_vec(M, E.outcome_vectors[x]) == E.outcome_vectors[gx]


@pytest.mark.parametrize("name", [
    *(n for n in builtin_names()
      if isinstance(get_builtin(n).states, PolytopeBackend)),
    "classical:6", "gbit:3", "gbit:4", "gbit:5", "gbit:6"])
def test_effect_actions_are_the_per_state_solves(name):
    """One integer product per generator on the outcome frame gives the
    matrices that one `solve` per basis state gives, as the integers over
    their least denominator that `_integer_block` makes of them."""
    m = get_builtin(name)
    E = build_effect_space(m)
    want = [oracle.effect_action(E, g) for g in m.group.generators]
    assert oracle.rational_actions(E) == want
    assert [(s, M.tolist()) for s, M in E.actions] == [
        (s, M.tolist()) for s, M in map(_integer_block, want)]
    assert all(type(s) is int and all(type(x) is int for x in M.flat)
               for s, M in E.actions)


def test_a_generator_moving_a_state_off_the_span_raises():
    """One state (1/2, 1/2, 1, 0): swapping c and d moves it to
    (1/2, 1/2, 0, 1), outside its span.  `validate_model` rejects the
    model first, so only a direct call reaches the check."""
    m = Model("off-span", TSpace(("a", "b", "c", "d"),
                                 (("a", "b"), ("c", "d"))),
              PolytopeBackend(((F(1, 2), F(1, 2), F(1), F(0)),)),
              PermutationGroup(((0, 1, 3, 2),)))
    assert not validate_model(m).ok
    E = build_effect_space(m)
    with pytest.raises(EffectSpaceError, match="outside the state span"):
        E.actions
    with pytest.raises(EffectSpaceError, match="outside the state span"):
        oracle.effect_action(E, m.group.generators[0])


def test_quantum_space_dims():
    E2 = build_effect_space(get_builtin("qubit:complex"))
    assert E2.kind == "float" and E2.dim == 4 and E2.span_dim == 4
    E3 = build_effect_space(get_builtin("qubit:real"))
    assert E3.dim == 3
    # the coordinate basis is Hilbert-Schmidt orthonormal
    mats = E2.basis.mats
    G = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
    assert np.abs(G - np.eye(4)).max() < 1e-12


EXACT_SPACES = [*(n for n in builtin_names()
                  if isinstance(get_builtin(n).states, PolytopeBackend)),
                "classical:6", "gbit:3", "gbit:4", "gbit:5", "gbit:6"]


@pytest.mark.parametrize("name", EXACT_SPACES)
def test_outcome_frame_is_the_rank_loop(name):
    """One `column_space_basis` of the outcome vectors as columns picks the
    outcomes that one rank per outcome picks."""
    E = build_effect_space(get_builtin(name))
    assert E.outcome_frame.at == oracle.rank_loop_positions(E)
