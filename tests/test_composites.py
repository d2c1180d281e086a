from fractions import Fraction as F

import numpy as np
import pytest

from kvwb.builtins import classical, conjugation_bijection, get_builtin, squit
from kvwb.composites import (BipartiteState, CompositeError, Conjugate,
                             conditional,
                             find_conjugate_state,
                             is_isomorphism_state, make_conjugate, marginal,
                             omega_hat, product_state, spin_form_from_conjugate,
                             validate_bipartite)
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from reference_kernels import homogeneity_report

SQUIT_ETA_X0 = [F(1, 2), F(0), F(1, 4), F(1, 4)]


def diag_table(m, probs):
    t = {(x, y): (probs[x] if x == y else F(0))
         for x in m.outcomes for y in m.outcomes}
    return BipartiteState(m, m, t)


def test_product_state_factorizes():
    m = classical(2)
    w = product_state(m, [F(1), F(0)], m, [F(0), F(1)])
    assert w.value("e0", "e1") == 1
    assert validate_bipartite(w).ok
    assert marginal(w, "A") == [F(1), F(0)]
    assert marginal(w, "B") == [F(0), F(1)]


def test_conditional_states():
    m = classical(2)
    w = diag_table(m, {"e0": F(1, 3), "e1": F(2, 3)})
    c = conditional(w, "e0", "A")
    assert c.mass == F(1, 3)
    assert c.normalized == [F(1), F(0)]


def test_classical_conjugate_is_uniform_diagonal():
    for n in range(2, 6):
        m = classical(n)
        c = make_conjugate(m)
        assert c.gamma == {x: x for x in m.outcomes}
        for x in m.outcomes:
            for y in m.outcomes:
                assert c.eta.value(x, y) == (F(1, n) if x == y else F(0))


def test_squit_conjugate_row_oracle():
    c = make_conjugate(squit())
    assert c.eta.row("x0") == SQUIT_ETA_X0
    assert validate_bipartite(c.eta).ok


def test_conjugate_invariance_under_group():
    m = squit()
    c = make_conjugate(m)
    for g in m.group.generators:
        for x in m.outcomes:
            for y in m.outcomes:
                gx = m.outcomes[g[m.testspace.index(x)]]
                gy = m.outcomes[g[m.testspace.index(y)]]
                assert c.eta.value(gx, gy) == c.eta.value(x, y)


def test_quantum_conjugate_diagonal_is_half():
    for name in ("qubit:real", "qubit:complex"):
        m = get_builtin(name)
        gamma = conjugation_bijection(m)
        c = make_conjugate(m, gamma)
        for x in m.outcomes:
            assert abs(c.eta.value(x, gamma[x]) - 0.5) < 1e-12
        assert validate_bipartite(c.eta).ok


def test_qubit_gamma_flips_the_imaginary_frame():
    m = get_builtin("qubit:complex")
    gamma = conjugation_bijection(m)
    assert gamma["y+"] == "y-" and gamma["y-"] == "y+"
    assert gamma["x+"] == "x+" and gamma["z+"] == "z+"


def test_derived_form_equals_spin_form_exactly():
    for name in ("classical:2", "classical:3", "classical:4", "squit"):
        m = get_builtin(name)
        E = build_effect_space(m)
        spin = find_orthogonalizing_spin_form(m, E).form
        c = make_conjugate(m)
        derived = spin_form_from_conjugate(c, E)
        assert derived.matrix == spin.matrix


def test_derived_form_equals_spin_form_quantum():
    m = get_builtin("qubit:complex")
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    c = make_conjugate(m, conjugation_bijection(m))
    derived = spin_form_from_conjugate(c, E)
    dev = np.abs(np.asarray(derived.matrix) - np.asarray(spin.matrix)).max()
    assert dev < 1e-9


def test_classical_eta_is_an_isomorphism_state():
    m = classical(3)
    E = build_effect_space(m)
    c = make_conjugate(m)
    rep = is_isomorphism_state(c.eta, E, E)
    assert rep.is_iso and rep.invertible


def test_squit_eta_is_not_an_isomorphism_state():
    """The square's effect cone is the dual square, so the inverse map
    cannot be positive — the certificates exhibit separated generators."""
    m = squit()
    E = build_effect_space(m)
    c = make_conjugate(m)
    rep = is_isomorphism_state(c.eta, E, E)
    assert rep.invertible
    assert not rep.is_iso
    assert any(f["stage"] == "inverse" for f in rep.failures)


def test_omega_hat_rank():
    m = classical(3)
    c = make_conjugate(m)
    oh = omega_hat(c.eta)
    assert oh.rank() == 3


def bumped(name, x, y):
    """The conjugate table of a model with entry (x, y) raised a little."""
    m = get_builtin(name)
    E = build_effect_space(m)
    gamma = conjugation_bijection(m)
    table = dict(find_conjugate_state(m, gamma).table)
    table[(x, y)] += F(1, 7) if E.kind == "exact" else 1e-3
    return E, Conjugate(m, gamma, BipartiteState(m, m, table))


SQUARES = [("squit", ("x0", "x1", "y1")), ("qubit:real", ("a0", "a1", "b1"))]


@pytest.mark.parametrize("name, outs", SQUARES)
def test_table_breaking_an_effect_dependency_is_refused(name, outs):
    """x0 + x1 = y0 + y1 on the square and on the real qubit; the first
    three outcomes frame the effect space, so the bumped entry at
    (x0, y1) is caught at that pair, by both kinds."""
    x0, _, y1 = outs
    E, c = bumped(name, x0, y1)
    for build in (lambda: omega_hat(c.eta, E, E),
                  lambda: spin_form_from_conjugate(c, E)):
        with pytest.raises(CompositeError, match="effect dependency") as exc:
            build()
        assert exc.value.witness == (x0, y1)


@pytest.mark.parametrize("name, outs", SQUARES)
def test_asymmetric_table_is_named_as_such(name, outs):
    x0, x1, _ = outs
    E, c = bumped(name, x0, x1)
    with pytest.raises(CompositeError, match="asymmetric") as exc:
        spin_form_from_conjugate(c, E)
    assert exc.value.witness == (x0, x1)


def test_bad_gamma_rejected():
    m = classical(2)
    with pytest.raises(CompositeError):
        find_conjugate_state(m, {"e0": "e0", "e1": "e0"})


def test_invalid_bipartite_flagged():
    m = classical(2)
    t = {(x, y): F(0) for x in m.outcomes for y in m.outcomes}
    t[("e0", "e0")] = F(2)      # mass 2 on a single test pair
    rep = validate_bipartite(BipartiteState(m, m, t))
    assert not rep.ok


def test_homogeneity_on_classical():
    m = classical(3)
    c = make_conjugate(m)
    samples = [[F(1, 3)] * 3, [F(1, 6), F(2, 6), F(3, 6)]]
    witnesses = [c.eta] + [diag_table(m, dict(zip(m.outcomes, s)))
                           for s in samples]
    rep = homogeneity_report(build_effect_space(m), witnesses, samples)
    assert all(rep.witness_ok)
    assert rep.verified_on_samples
    assert not rep.uncovered


def test_homogeneity_honest_when_uncovered():
    m = classical(3)
    c = make_conjugate(m)
    rep = homogeneity_report(build_effect_space(m), [c.eta],
                             [[F(1, 6), F(2, 6), F(3, 6)]])
    assert not rep.verified_on_samples
    assert rep.uncovered


def test_quantum_outcome_coordinates_are_converted_once(monkeypatch):
    from kvwb.quantum import HermitianBasis
    m = get_builtin("qutrit:complex")
    qb = m.states
    want = np.array([qb.basis.to_coords(qb.outcome_matrices[x])
                     for x in m.outcomes])
    calls = []
    to_coords = HermitianBasis.to_coords

    def spy(self, H):
        if any(H is P for P in qb.outcome_matrices.values()):
            calls.append(1)
        return to_coords(self, H)

    monkeypatch.setattr(HermitianBasis, "to_coords", spy)
    E = build_effect_space(m)
    eta = find_conjugate_state(m, conjugation_bijection(m))
    assert eta is not None and validate_bipartite(eta).ok
    # one conversion per outcome for the effect space, and no more for the
    # 2 x 18 conditionals of each validation
    assert len(calls) == len(m.outcomes)
    C = qb.outcome_coords(m.outcomes)
    assert C is qb.outcome_coords(m.outcomes) and not C.flags.writeable
    assert np.array_equal(C, want)
    assert all(np.array_equal(E.outcome_vectors[x], want[i])
               for i, x in enumerate(m.outcomes))
