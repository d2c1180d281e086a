import numpy as np
import pytest

from kvwb.builtins import (builtin_names, classical, conjugation_bijection,
                           get_builtin, qubit_complex, squit, squit_klein)
from kvwb.effectspace import build_effect_space
from kvwb.models import validate_model
from reference_groups import mulclose

ALL = list(builtin_names())


def test_names_are_stable():
    assert ALL == ["classical:2", "classical:3", "classical:4", "classical:5",
                   "squit", "squit:klein", "qubit:real", "qubit:complex",
                   "qutrit:complex"]


@pytest.mark.parametrize("name", ALL)
def test_every_builtin_validates(name):
    rep = validate_model(get_builtin(name))
    assert rep.ok, rep.problems


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        get_builtin("qubit:quaternionic")


def test_classical_factory_matches_registry():
    assert classical(3).tests == get_builtin("classical:3").tests


def test_squit_klein_is_squit_with_a_smaller_group():
    full, klein = squit(), squit_klein()
    assert full.tests == klein.tests
    assert full.states.vertices == klein.states.vertices
    assert len(mulclose(klein.group.generators)) == 4
    assert len(mulclose(full.group.generators)) == 8


def test_conjugation_bijection_fixed_points():
    m = get_builtin("qubit:complex")
    g = conjugation_bijection(m)
    moved = {k: v for k, v in g.items() if k != v}
    assert moved == {"y+": "y-", "y-": "y+"}

    q = get_builtin("qutrit:complex")
    gq = conjugation_bijection(q)
    for i in range(3):
        assert gq[f"v{i}"] == f"vb{i}" and gq[f"vb{i}"] == f"v{i}"
        assert gq[f"w{i}"] == f"wb{i}" and gq[f"wb{i}"] == f"w{i}"
        assert gq[f"c{i}"] == f"c{i}" and gq[f"r{i}"] == f"r{i}"


def test_conjugation_bijection_respects_transposition():
    """gamma sends each outcome to the one whose matrix is the transpose."""
    m = qubit_complex()
    qb = m.states
    g = conjugation_bijection(m)
    for x in m.outcomes:
        M = np.asarray(qb.outcome_matrices[x])
        N = np.asarray(qb.outcome_matrices[g[x]])
        assert np.abs(M.T - N).max() < 1e-12


def test_qutrit_effects_span_the_full_hermitian_space():
    E = build_effect_space(get_builtin("qutrit:complex"))
    assert E.dim == 9
    vecs = np.array([E.outcome_vectors[x] for x in E.model.outcomes])
    assert np.linalg.matrix_rank(vecs) == 9


def test_quantum_outcome_matrices_resolve_identity():
    for name in ("qubit:real", "qubit:complex", "qutrit:complex"):
        m = get_builtin(name)
        qb = m.states
        for t in m.tests:
            tot = sum(np.asarray(qb.outcome_matrices[x]) for x in t)
            assert np.abs(tot - np.eye(qb.dim)).max() < 1e-12
