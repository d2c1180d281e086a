import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

import reference_kernels as oracle
from kvwb.builtins import classical, get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb import jordan
from kvwb.jordan import (JordanAlgebra, _reconstruct,
                         classical_algebra, complex_hermitian,
                         cone_of_squares_membership, direct_sum,
                         identify_algebra, jordan_product,
                         quaternionic_hermitian, real_symmetric,
                         recover_jordan_product, spin_factor, trace_form_gram,
                         verify_symmetric_cone)
from kvwb.linalg import frac
from kvwb.pipeline import _recovery_problem
from kvwb.spectral import _frames, _value, generic_rank, jordan_sqrt

CATALOG = [
    real_symmetric(2), real_symmetric(3),
    complex_hermitian(2), complex_hermitian(3),
    quaternionic_hermitian(2),
    spin_factor(3), spin_factor(5),
    classical_algebra(3),
]


def spectral_decomposition(J, w):
    """Eigenvalues and spectral idempotents of w, from the Lanczos kernel
    on a one-row stack."""
    eigs, idems = _value(_frames(J, np.asarray(w, dtype=float)[None])[0])
    return eigs, list(idems)


def float_twin(J):
    """J's tensor, unit, kind and parameters as a float algebra, which the
    symmetric-cone check samples."""
    return JordanAlgebra(J.kind, J.dim, J.unit, J.tensor, False, J.params)


def assert_proved(J, rep):
    """The report of an exact algebra that is a symmetric cone: gates 1 and
    2 proved, gates 3 and 4 by the Koecher-Vinberg note, no sampled
    minimum."""
    assert J.exact and J.axiom_proof().ok
    assert rep.ok and rep.failures == [], (J.kind, rep.failures)
    assert (rep.commutative_ok and rep.unit_ok and rep.identity_ok
            and rep.trace_form_pd and rep.self_duality_ok
            and rep.homogeneity_ok)
    assert rep.min_pairing is None and rep.max_homogeneity_error is None
    assert rep.notes == [jordan.KV_NOTE]


def jordan_identity_residual(J, a, b):
    # (a o b) o (a o a)  ==  a o (b o (a o a))
    sq = jordan_product(J, a, a)
    lhs = jordan_product(J, jordan_product(J, a, b), sq)
    rhs = jordan_product(J, a, jordan_product(J, b, sq))
    return np.abs(lhs - rhs).max()


def test_catalog_tensors_are_exact_jordan_algebras():
    for J in CATALOG:
        d = J.dim
        for i in range(d):
            for j in range(d):
                assert J.tensor[i][j] == J.tensor[j][i], J.kind
        u = J.unit
        for i in range(d):
            ei = [F(1) if k == i else F(0) for k in range(d)]
            prod = [sum(J.tensor[i][k][c] * u[k] for k in range(d))
                    for c in range(d)]
            assert prod == ei, J.kind
        rng = np.random.default_rng(5)
        for _ in range(4):
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            assert jordan_identity_residual(J, a, b) < 1e-9, J.kind


def test_catalog_generic_ranks():
    assert generic_rank(real_symmetric(3)) == 3
    assert generic_rank(complex_hermitian(2)) == 2
    assert generic_rank(quaternionic_hermitian(2)) == 2
    assert generic_rank(spin_factor(5)) == 2
    assert generic_rank(classical_algebra(4)) == 4


def test_symmetric_cone_verification():
    kinds = [real_symmetric(n) for n in range(1, 5)]
    kinds += [complex_hermitian(n) for n in range(1, 4)]
    kinds += [quaternionic_hermitian(2)]
    kinds += [spin_factor(n) for n in range(2, 7)]
    for J in kinds:
        assert_proved(J, verify_symmetric_cone(J, sample_count=30, seed=11))
        rep = verify_symmetric_cone(float_twin(J), sample_count=30, seed=11)
        assert rep.ok, (J.kind, rep.failures)
        assert rep.homogeneity_ok and rep.self_duality_ok
        assert rep.trace_form_pd


def test_corrupted_tensor_fails_the_axiom_gate():
    J = real_symmetric(2)
    bad = [[list(cell) for cell in row] for row in J.tensor]
    bad[0][1][2] += F(1, 7)
    bad[1][0][2] += F(1, 7)
    K = JordanAlgebra(kind="corrupted", dim=J.dim, exact=True, tensor=tuple(
        tuple(tuple(c) for c in row) for row in bad), unit=J.unit)
    rep = verify_symmetric_cone(K, sample_count=10, seed=3)
    assert not rep.ok
    assert any(f["gate"] == "jordan-axioms" for f in rep.failures)
    # the failing basis triple is the certificate, and the loops confirm it
    triple = rep.failures[0]["failing_triple"]
    assert any(oracle.linearized_identity(K, *triple).flat)


def test_spectral_decomposition_reconstructs():
    J = real_symmetric(3)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(J.dim)
    eigs, idems = spectral_decomposition(J, w)
    recon = sum(lam * e for lam, e in zip(eigs, idems))
    assert np.abs(recon - np.asarray(w, dtype=float)).max() < 1e-8
    for e in idems:
        assert np.abs(jordan_product(J, e, e) - e).max() < 1e-7
    # the frame is orthogonal and sums to the unit
    total = sum(idems)
    assert np.abs(total - np.asarray(J.unit, dtype=float)).max() < 1e-7


def test_jordan_sqrt_squares_back():
    J = complex_hermitian(2)
    rng = np.random.default_rng(9)
    a = rng.standard_normal(J.dim)
    w = jordan_product(J, a, a) + 0.1 * np.asarray(J.unit, dtype=float)
    s = jordan_sqrt(J, w)
    assert np.abs(jordan_product(J, s, s) - w).max() < 1e-7
    assert cone_of_squares_membership(J, s)


def test_jordan_sqrt_needs_eigenvalues_only(monkeypatch):
    """The root and the eigenvalue screen build no Jordan frame, and the
    root is the same as when one was built."""
    J = real_symmetric(3)
    rng = np.random.default_rng(10)
    a = rng.standard_normal(J.dim)
    w = jordan_product(J, a, a) + 0.1 * np.asarray(J.unit, dtype=float)
    import kvwb.spectral as spectral_module
    eigs, _ = spectral_decomposition(J, w)
    s = jordan_sqrt(J, w)

    def refuse(*args, **kwargs):
        raise AssertionError("Jordan frame built")

    monkeypatch.setattr(spectral_module, "_frames", refuse)
    assert np.array_equal(jordan_sqrt(J, w), s)
    # a tensor without a structural description takes the spectral test
    recovered = JordanAlgebra("Recovered", J.dim, J.unit, J.np_tensor, False)
    assert cone_of_squares_membership(recovered, w)


def test_cone_of_squares_membership():
    J = spin_factor(3)
    assert cone_of_squares_membership(J, np.asarray(J.unit, dtype=float))
    assert not cone_of_squares_membership(J, -np.asarray(J.unit, dtype=float))


def test_minimal_polynomial_degree():
    J = real_symmetric(3)
    eigs, idems = _value(_frames(J, np.asarray(J.unit, dtype=float)[None])[0])
    assert eigs.tolist() == [1.0] and len(idems) == 1


def assert_same_algebra(J, ref):
    """Equal tensors, units and trace forms as nested `Fraction` lists, the
    same float tensor, and the loops' products of rational and of float
    vectors."""
    assert (J.kind, J.dim, J.params.get("labels")) == \
        (ref.kind, ref.dim, ref.params.get("labels"))
    assert type(J.tensor) is list and type(J.unit) is list
    assert all(type(x) is F for x in J.unit)
    assert all(type(x) is F for row in J.tensor for c in row for x in c)
    assert (J.tensor, J.unit) == (ref.tensor, ref.unit)
    assert trace_form_gram(J) == oracle.loop_trace_form_gram(ref)
    d = J.dim
    assert J.np_tensor.tobytes() == np.array(
        [[[float(ref.tensor[i][j][k]) for k in range(d)] for j in range(d)]
         for i in range(d)]).tobytes()
    a = [F(k, 3) - 1 for k in range(d)]
    b = [F(1, k + 2) for k in range(d)]
    got = J.product(a, b)
    assert type(got) is list and all(type(x) is F for x in got)
    assert got == oracle.loop_product(ref, a, b)
    af = [float(x) for x in a]
    assert J.product(af, b).tobytes() == \
        oracle.loop_product(ref, af, b).tobytes()


@pytest.mark.parametrize("family, n", [
    *((f, n) for f in ("RealSym", "ComplexHerm", "QuatHerm") for n in (1, 2, 3)),
    ("SpinFactor", 1), ("SpinFactor", 2), ("SpinFactor", 5)])
def test_catalog_matches_the_loop_construction(family, n):
    J, ref = jordan.CATALOG[family](n), oracle.CATALOG[family](n)
    assert_same_algebra(J, ref)
    if "basis" in ref.params:
        x = [F(k + 1, 4) for k in range(J.dim)]
        want = sum(float(c) * oracle._cm_to_numpy(B)
                   for c, B in zip(x, ref.params["basis"]))
        assert _reconstruct(J, x).tobytes() == ((want + want.conj().T) / 2
                                                ).tobytes()


def test_direct_sums_match_the_loop_construction():
    J = direct_sum([real_symmetric(2), spin_factor(3), quaternionic_hermitian(2)])
    ref = oracle.direct_sum([oracle.real_symmetric(2), oracle.spin_factor(3),
                             oracle.quaternionic_hermitian(2)])
    assert_same_algebra(J, ref)
    assert J.params["offsets"] == ref.params["offsets"] == [0, 3, 7]
    assert_same_algebra(classical_algebra(4), oracle.classical_algebra(4))


# ---------------------------------------------------------------------------
# recovery


def recovery_inputs(name):
    m = get_builtin(name)
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    return _recovery_problem(E, spin, 1e-9)


def test_recovery_classical_is_exact():
    p = recovery_inputs("classical:3")
    res = recover_jordan_product(p)
    assert res.linear_solution_dim == 0
    assert res.seeds_agree
    J = res.algebra
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expect = F(1) if i == j == k else F(0)
                assert frac(J.tensor[i][j][k]) == expect


def test_recovery_qubit_matches_the_operator_product():
    m = get_builtin("qubit:complex")
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    p = _recovery_problem(E, spin, 1e-9)
    res = recover_jordan_product(p)
    assert res.linear_solution_dim == 0
    assert res.seeds_agree and res.algebra is not None
    basis = E.basis
    d = E.dim
    orc = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            Mi, Mj = basis.from_coords(np.eye(d)[i]), basis.from_coords(np.eye(d)[j])
            orc[i, j] = basis.to_coords((Mi @ Mj + Mj @ Mi) / 2)
    dev = np.abs(res.algebra.np_tensor - orc).max()
    assert dev < 1e-9


def transported_problem():
    """A symmetric-cone problem in disguised coordinates: push RealSym(2)
    through an invertible change of basis and ask for the product back."""
    J0 = real_symmetric(2)
    d = J0.dim
    rng = np.random.default_rng(7)
    T = rng.standard_normal((d, d)) + 3 * np.eye(d)
    Ti = np.linalg.inv(T)
    from kvwb.jordan import trace_form_gram
    G = np.array([[float(x) for x in row] for row in trace_form_gram(J0)])
    Bp = Ti.T @ G @ Ti
    up = T @ np.asarray(J0.unit, dtype=float)
    outcome_vecs = []
    for _ in range(2):
        a = rng.standard_normal(d)
        _, idems = spectral_decomposition(J0, a)
        outcome_vecs.extend(T @ e for e in idems)
    def membership(V):
        return [cone_of_squares_membership(J0, Ti @ v, tol=1e-7) for v in V]
    p = oracle.scaled_problem(jordan._FLOAT, Bp, up,
                              outcome_vectors=outcome_vecs,
                              cone_membership=membership)
    prod0 = lambda a, b: jordan_product(J0, a, b)
    orc = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            orc[i, j] = T @ prod0(Ti @ np.eye(d)[i], Ti @ np.eye(d)[j])
    return p, orc


def test_recovery_in_transported_coordinates():
    p, orc = transported_problem()
    res = recover_jordan_product(p)
    assert res.linear_solution_dim == 0
    assert res.seeds_agree and res.algebra is not None
    dev = np.abs(res.algebra.np_tensor - orc).max()
    assert dev < 1e-8


def test_recovery_reports_nonuniqueness_honestly():
    """Without outcome vectors, so with no idempotence rows, a
    one-parameter family is left on the classical triangle; the result must
    say so, not pick one."""
    p = dataclasses.replace(recovery_inputs("classical:3"), outcome_vectors=[])
    res = recover_jordan_product(p)
    assert res.linear_solution_dim == 1
    assert res.seeds_agree is None
    assert res.algebra is None
    assert "none is picked" in res.notes[-1]
    assert res.residual is None


def test_recovery_without_a_fit_has_no_residual():
    """A form that is not positive definite, or constraints that no product
    meets (e = (1, 0) and 2e both idempotent), fit no tensor."""
    K = jordan._FLOAT
    for p, note in [
        (oracle.scaled_problem(K, -np.eye(2), np.ones(2)),
         "form not positive definite"),
        (oracle.scaled_problem(K, np.eye(2), np.ones(2),
                               outcome_vectors=[np.array([1.0, 0.0]),
                                                np.array([2.0, 0.0])]),
         "linear constraints inconsistent")]:
        res = recover_jordan_product(p)
        assert (res.algebra, res.linear_solution_dim, res.residual,
                res.notes) == (None, -1, None, [note])


# ---------------------------------------------------------------------------
# identification


def test_identify_simple_algebras():
    # (dim, rank) = (6, 3) is genuinely ambiguous: RealSym(3) shares it
    # with RealSym(1) + SpinFactor(4), so both candidates are reported.
    assert identify_algebra(real_symmetric(3)) == [
        "RealSym(1) + SpinFactor(4)", "RealSym(3)"]
    assert identify_algebra(complex_hermitian(2)) == ["ComplexHerm(2)~SpinFactor(3)"]
    assert identify_algebra(spin_factor(3)) == ["ComplexHerm(2)~SpinFactor(3)"]
    assert identify_algebra(classical_algebra(3)) == [
        "RealSym(1) + RealSym(1) + RealSym(1)"]


def test_identify_reports_dimension_rank_clashes():
    names = identify_algebra(complex_hermitian(3))
    assert "ComplexHerm(3)" in names
    assert "RealSym(1) + SpinFactor(7)" in names


def test_direct_sum_is_still_a_symmetric_cone():
    J = direct_sum([real_symmetric(2), spin_factor(3)])
    rep = verify_symmetric_cone(J, sample_count=20, seed=13)
    assert rep.ok
    assert_proved(J, rep)
    assert verify_symmetric_cone(float_twin(J), sample_count=20, seed=13).ok
    assert generic_rank(J) == 4
