"""The invariant-form layer: existence, uniqueness, and the frozen oracles."""

from fractions import Fraction as F

import numpy as np
import pytest

from kvwb.builtins import classical, get_builtin, squit, squit_klein
from kvwb.effectspace import build_effect_space
from kvwb.forms import (BilinearForm, check_spin_uniqueness, check_unitarity,
                        find_orthogonalizing_spin_form, is_irreducible)
from kvwb.linalg import dot, mat_vec
from kvwb.models import distinguishable_pairs
from reference_groups import average_form
from reference_kernels import invariant_symmetric_forms, rational_actions

# worked out by hand from the three defining constraints on the squit
# coordinates (basis states 0,1,2): zero on both distinguishable pairs,
# invariance under the dihedral generators, B(u,u) = 1
SQUIT_FORM = [[F(1, 2), F(-1, 4), F(-1, 4)],
              [F(-1, 4), F(1, 2), F(1, 4)],
              [F(-1, 4), F(1, 4), F(1, 2)]]


def spin(m):
    E = build_effect_space(m)
    return E, find_orthogonalizing_spin_form(m, E)


def test_squit_form_matches_hand_derivation():
    E, res = spin(squit())
    assert res.solution_space_dim == 1
    assert res.form.matrix == SQUIT_FORM


def test_squit_oracle_satisfies_the_defining_constraints():
    m = squit()
    E = build_effect_space(m)
    B = SQUIT_FORM
    val = lambda a, b: dot(a, mat_vec(B, b))
    assert val(E.u, E.u) == 1
    for x, y in distinguishable_pairs(m):
        assert val(E.outcome_vectors[x], E.outcome_vectors[y]) == 0
    for M in rational_actions(E):
        for x in m.outcomes:
            for y in m.outcomes:
                a, b = E.outcome_vectors[x], E.outcome_vectors[y]
                assert val(mat_vec(M, a), mat_vec(M, b)) == val(a, b)


def test_classical_form_is_identity_over_n():
    for n in range(2, 6):
        E, res = spin(classical(n))
        assert res.solution_space_dim == 1
        expect = [[F(int(i == j), n) for j in range(n)] for i in range(n)]
        assert res.form.matrix == expect
        assert res.form.flag_summary()["positive_definite"]


def test_qubit_form_is_half_trace_pairing():
    for name in ("qubit:real", "qubit:complex"):
        m = get_builtin(name)
        E, res = spin(m)
        assert res.solution_space_dim == 1
        M = np.asarray(res.form.matrix, dtype=float)
        assert np.abs(M - np.eye(E.dim) / 2).max() < 1e-9


def test_irreducibility_verdicts():
    assert is_irreducible(build_effect_space(squit()))
    assert is_irreducible(build_effect_space(classical(3)))
    assert not is_irreducible(build_effect_space(squit_klein()))


def test_klein_square_has_a_two_dimensional_family():
    m = squit_klein()
    E = build_effect_space(m)
    res = find_orthogonalizing_spin_form(m, E)
    assert res.solution_space_dim == 2
    rep = check_spin_uniqueness(m, E)
    assert not rep.hypothesis_met       # reducible: the statement is silent


def test_uniqueness_reports():
    for name in ("classical:2", "classical:4", "squit", "qubit:complex"):
        m = get_builtin(name)
        rep = check_spin_uniqueness(m, build_effect_space(m))
        assert rep.irreducible and rep.hypothesis_met
        assert rep.solution_space_dim == 1
        assert rep.positive_definite
        assert rep.consistent


def test_unitarity_of_the_actions():
    m = squit()
    E, res = spin(m)
    assert check_unitarity(E.all_effect_actions(), res.form)


def test_group_averaging_produces_an_invariant_form():
    m = squit()
    E = build_effect_space(m)
    from kvwb.forms import BilinearForm
    lopsided = BilinearForm([[F(1), F(0), F(0)],
                             [F(0), F(2), F(0)],
                             [F(0), F(0), F(5)]], kind="exact")
    avg = average_form(lopsided, E)
    for M in rational_actions(E):
        for x in m.outcomes:
            a = E.outcome_vectors[x]
            assert avg.value(mat_vec(M, a), mat_vec(M, a)) == avg.value(a, a)


def test_invariant_form_space_dims():
    E = build_effect_space(squit())
    sols = invariant_symmetric_forms(E)
    assert len(sols) >= 1


def test_unitarity_invertibility_does_not_depend_on_scale():
    """det(I/4) on 16 dimensions is 4^-16 ≈ 2.3e-10, below the tolerance;
    the rank says the form is invertible."""
    assert check_unitarity([], BilinearForm(np.eye(16) / 4, "float"))


def test_unitarity_refuses_a_singular_form():
    for B in (BilinearForm(np.diag([1.0, 1e-12]), "float"),
              BilinearForm([[F(1), F(0)], [F(0), F(0)]], "exact")):
        with pytest.raises(ValueError, match="invertible form"):
            check_unitarity([], B)


def ququart_complex(seed=42):
    """A complex four-level sample, built as `qutrit:complex` is: the
    computational frame, one real frame and three conjugate pairs of
    complex frames, which span all 16 effect dimensions."""
    from kvwb import quantum
    from kvwb.builtins import _quantum_model
    rng = np.random.default_rng(seed + 1)
    eye = np.eye(4, dtype=complex)
    Wm = quantum.random_unitary(4, rng, "real").astype(complex)
    frames = [[quantum.projection(eye[:, i]) for i in range(4)],
              [quantum.projection(Wm[:, i]) for i in range(4)]]
    labels = [[f"c{i}" for i in range(4)], [f"r{i}" for i in range(4)]]
    for tag in "vwx":
        Vm = quantum.random_unitary(4, rng, "complex")
        frame = [quantum.projection(Vm[:, i]) for i in range(4)]
        frames += [frame, [P.conj() for P in frame]]
        labels += [[f"{tag}{i}" for i in range(4)],
                   [f"{tag}b{i}" for i in range(4)]]
    return _quantum_model("ququart:complex", "complex", 4, frames, labels,
                          None, seed)


def test_four_level_form_is_unitary_for_the_symmetries():
    m = ququart_complex()
    E, res = spin(m)
    assert E.dim == E.span_dim == 16
    assert res.solution_space_dim == 1
    assert all(res.form.flag_summary().values())
    assert np.abs(res.form.matrix - np.eye(16) / 4).max() < 1e-9
    assert check_unitarity(E.actions, res.form)
