import numpy as np
import pytest

from kvwb.builtins import (builtin_names, classical, conjugation_bijection,
                           get_builtin, qubit_complex, squit, squit_klein)
from kvwb.effectspace import build_effect_space
from kvwb.models import validate_model
import reference_kernels as oracle
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


NON_CLASSICAL = ["squit", "squit:klein", "qubit:real", "qubit:complex",
                 "qutrit:complex", "gbit:3"]


@pytest.mark.parametrize("name", NON_CLASSICAL)
def test_conjugation_bijection_matches_the_pair_loop(name):
    """One broadcast comparison gives the double loop's map: each outcome
    to the first outcome, in order, within the tolerance of its conjugate."""
    m = get_builtin(name)
    for tol in (1e-9, 0.0, 2.0):
        assert conjugation_bijection(m, tol) == \
            oracle.loop_conjugation_bijection(m, tol)


def test_conjugation_bijection_refuses_an_unpaired_complex_frame():
    """A sample with one complex frame whose conjugate frame is missing:
    the first of its outcomes, in order, is named."""
    from kvwb import quantum
    from kvwb.builtins import _quantum_model
    rng = np.random.default_rng(3)
    eye = np.eye(3, dtype=complex)
    Vm = quantum.random_unitary(3, rng, "complex")
    m = _quantum_model("unpaired", "complex", 3,
                       [[quantum.projection(eye[:, i]) for i in range(3)],
                        [quantum.projection(Vm[:, i]) for i in range(3)]],
                       [["c0", "c1", "c2"], ["v0", "v1", "v2"]], None, 0)
    for f in (conjugation_bijection, oracle.loop_conjugation_bijection):
        with pytest.raises(ValueError, match=r"^sample not closed under "
                           r"conjugation at 'v0'$"):
            f(m)


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
