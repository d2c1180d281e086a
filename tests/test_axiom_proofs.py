"""The proofs that replaced samples on exact tensors, against their oracles.

`kvwb.jordan.prove_axioms` decides the Jordan axioms on the basis, and
`kvwb.jordan.jordan_frame` reads a Jordan frame off the effect cone's
extreme rays.  Their oracles in `reference_kernels` are the `Fraction` loops
over basis triples (`loop_axioms`), the sampled identity of the old gate 1
(`_identity_residual` on seeded rational pairs) and the sampled squares
gate (`sampled_squares_gate`): a proof that accepts must let the samples
pass, and samples that fail must meet a proof that rejects.
"""
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_kernels as oracle
from kvwb import jordan, linalg
from kvwb.builtins import get_builtin
from kvwb.cones import cone
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb.jordan import (JordanAlgebra, classical_algebra, complex_hermitian,
                         direct_sum, jordan_frame, real_symmetric,
                         recover_jordan_product, recovered_rank, spin_factor,
                         verify_symmetric_cone)
from kvwb.pipeline import _recovery_problem
from test_spectral_kernels import perturbed

#: Catalog algebras small enough for the `Fraction` loops (d <= 4).
SMALL = [real_symmetric(1), real_symmetric(2), spin_factor(2), spin_factor(3),
         complex_hermitian(2), classical_algebra(2), classical_algebra(3),
         direct_sum([real_symmetric(1), spin_factor(2)])]
QUANTUM = ["qubit:real", "qubit:complex", "qutrit:complex"]

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
sparse = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(1, 2), F(2)])


def sampled_residual(J, seed, pairs=10):
    """The worst `Fraction` residual of the old gate 1's seeded samples."""
    rng = np.random.default_rng(seed)
    return max(oracle._identity_residual(
        J, oracle._random_rational_vec(rng, J.dim),
        oracle._random_rational_vec(rng, J.dim)) for _ in range(pairs))


def assert_proof_matches_its_oracles(J, seed):
    proof = J.axiom_proof()
    assert (proof.commutative, proof.unit, proof.triple, proof.residual) \
        == oracle.loop_axioms(J)
    worst = sampled_residual(J, seed)
    if proof.identity:
        assert worst == 0               # the proof accepts: the samples pass
    if worst:
        assert not proof.ok             # the samples fail: the proof rejects
    rep = verify_symmetric_cone(J)
    assert rep.identity_ok == proof.identity
    if not proof.ok:
        assert rep.failures == [{"gate": "jordan-axioms",
                                 "identity_residual": proof.residual,
                                 "failing_triple": proof.triple}]
    return proof


@st.composite
def unital_tensors(draw):
    """A commutative rational tensor with unit e_0: e_0∘e_j = e_j, and
    e_i∘e_j for 1 <= i <= j drawn, mostly sparse, so that some are Jordan
    (every d = 2 one is) and most are not."""
    d = draw(st.integers(2, 4))
    entries = draw(st.sampled_from([small, sparse]))
    T = np.full((d, d, d), F(0), dtype=object)
    for j in range(d):
        T[0, j, j] = T[j, 0, j] = F(1)
    for i in range(1, d):
        for j in range(i, d):
            T[i, j] = T[j, i] = draw(st.lists(entries, min_size=d,
                                              max_size=d))
    unit = [F(1)] + [F(0)] * (d - 1)
    return JordanAlgebra("Recovered", d, unit, T.tolist(), True)


def change_of_basis(J, P):
    """J carried by the invertible rational P: x∘'y = P((P⁻¹x)∘(P⁻¹y))."""
    P = np.array(P, dtype=object)
    Pi = np.array(linalg.inverse(P.tolist()), dtype=object)
    T = np.array(J.tensor, dtype=object)
    T = np.einsum("ijk,ck->ijc", T, P)
    T = np.einsum("ia,ijc->ajc", Pi, T)
    T = np.einsum("jb,ajc->abc", Pi, T)
    return JordanAlgebra("Recovered", J.dim, (P @ np.array(J.unit)).tolist(),
                         T.tolist(), True)


@settings(max_examples=60, deadline=None)
@given(J=unital_tensors(), seed=st.integers(0, 2**32 - 1))
def test_proof_on_random_unital_tensors(J, seed):
    assert_proof_matches_its_oracles(J, seed)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, len(SMALL) - 1), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_proof_on_perturbed_catalog_tensors(k, seed, data):
    assert_proof_matches_its_oracles(perturbed(SMALL[k], data.draw, True),
                                     seed)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, len(SMALL) - 1), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_proof_under_a_rational_change_of_basis(k, seed, data):
    d = SMALL[k].dim
    P = data.draw(st.lists(st.lists(small, min_size=d, max_size=d),
                           min_size=d, max_size=d))
    assume(linalg.inverse(P) is not None)
    J = change_of_basis(SMALL[k], P)
    assert assert_proof_matches_its_oracles(J, seed).ok
    assert verify_symmetric_cone(J).ok


def test_the_proof_takes_python_ints_past_the_int64_bound():
    """A scale of 10**7 on one coordinate puts 6·d²·max|T|³ of the integer
    tensor far above 2⁶²: the Jordan tensor is still accepted, with no
    overflow, and a corrupted one still names the triple the loops name."""
    P = np.diag([F(10**7), F(1), F(1), F(1)]).tolist()
    J = change_of_basis(spin_factor(3), P)
    _, T = J._scaled_tensor(jordan._EXACT)
    assert 6 * J.dim ** 2 * max(abs(int(x)) for x in T.flat) ** 3 > 2 ** 62
    assert J.axiom_proof().ok
    T = [[list(cell) for cell in row] for row in J.tensor]
    T[1][2][0] += F(1, 3)
    T[2][1][0] += F(1, 3)
    K = JordanAlgebra("Recovered", J.dim, J.unit, T, True)
    proof = K.axiom_proof()
    assert proof.triple is not None
    assert (True, proof.unit, proof.triple, proof.residual) \
        == oracle.loop_axioms(K)


def test_a_tensor_that_does_not_commute_leaves_the_identity_undecided():
    J = real_symmetric(2)
    T = [[list(cell) for cell in row] for row in J.tensor]
    T[0][1][2] += 1
    K = JordanAlgebra("Recovered", J.dim, J.unit, T, True)
    proof = K.axiom_proof()
    assert not proof.commutative and proof.identity is None and not proof.ok
    rep = verify_symmetric_cone(K)
    assert rep.identity_ok is None and not rep.ok
    assert rep.failures == [{"gate": "jordan-axioms",
                             "identity_residual": None,
                             "failing_triple": None}]


# ---------------------------------------------------------------------------
# the Jordan-frame gate


def recovery(name):
    m = get_builtin(name)
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    p = _recovery_problem(E, spin, 1e-9)
    return E, p, recover_jordan_product(p)


@pytest.mark.parametrize("n", range(2, 7))
def test_frame_gate_agrees_with_the_sampled_squares_gate(n):
    """On classical:n the extreme rays are a Jordan frame of n idempotents,
    the rank is n without a draw, and the sampled squares of the old gate
    lie in the cone by the phase-one LP."""
    E, p, res = recovery(f"classical:{n}")
    assert res.gates["jordan_frame"] and "squares_in_cone" not in res.gates
    assert len(res.frame) == n == recovered_rank(res)
    J = res.algebra
    for i, e in enumerate(res.frame):
        assert J.product(e, e) == e
        assert all(J.product(e, f) == [0] * n
                   for f in res.frame[i + 1:])
    assert [sum(c) for c in zip(*res.frame)] == J.unit
    assert oracle.sampled_squares_gate(J, oracle.squares_membership(E, 1e-9))


@pytest.mark.parametrize("n", range(2, 7))
def test_exact_recovery_decides_its_gates_without_eigvalsh(n, monkeypatch):
    """On classical:n the form, the trace form and the unit's interior
    heuristic are decided on rationals, with no `eigvalsh` call, and agree
    with the float gates they replaced (`float_recovery_gates`)."""
    _, p, res = recovery(f"classical:{n}")
    want = oracle.float_recovery_gates(p, res.algebra.tensor)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(*args, **kw):
        calls.append(args)
        return eigvalsh(*args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    gates = recover_jordan_product(p).gates
    assert calls == []
    assert {k: gates[k] for k in want} == want
    assert all(want.values())


def test_frame_gate_rejects_a_ray_replaced_by_a_sum():
    """classical:3 with its first ray replaced by the sum of the first two:
    that sum is idempotent, but not orthogonal to the second ray, and the
    sampled squares leave the cone the new rays generate."""
    E, p, res = recovery("classical:3")
    r = p.extreme_rays
    rays = [[a + b for a, b in zip(r[0], r[1])], r[1], r[2]]
    assert jordan_frame(res.algebra, rays) is None
    K = SimpleNamespace(u=E.u, effect_cone=cone(rays))
    assert not oracle.sampled_squares_gate(
        res.algebra, oracle.squares_membership(K, 1e-9))
    bad = recover_jordan_product(dataclasses.replace(p, extreme_rays=rays))
    assert bad.gates["jordan_frame"] is False
    assert bad.algebra is None and bad.frame is None


def test_frame_gate_needs_d_positive_multiples_of_idempotents():
    J = classical_algebra(3)
    e = np.eye(3, dtype=int).astype(object) * F(1)
    assert jordan_frame(J, (2 * e).tolist()) == e.tolist()
    assert jordan_frame(J, e[:2].tolist()) is None           # too few
    assert jordan_frame(J, (-e).tolist()) is None            # c < 0
    assert jordan_frame(J, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]) is None


def test_exact_runs_never_import_numpy_random():
    """The exact pipeline and the check of an exact catalog algebra draw
    nothing, so numpy.random is never imported."""
    script = (
        "import sys\n"
        "from kvwb.builtins import get_builtin\n"
        "from kvwb.jordan import real_symmetric, verify_symmetric_cone\n"
        "from kvwb.pipeline import run_pipeline\n"
        "rep = run_pipeline(get_builtin('classical:5'))\n"
        "assert [s.status for s in rep.stages] == ['pass'] * 13\n"
        "assert verify_symmetric_cone(real_symmetric(3)).ok\n"
        "print('numpy.random' in sys.modules)\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          check=False, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# the float squares gate, stacked


@pytest.mark.parametrize("name", QUANTUM)
def test_float_squares_gate_is_the_probe_loop(name):
    """One stacked call of the membership oracle on the 20 squares, whose
    verdicts are the one-vector PSD test's, and the loop's verdict."""
    E, p, res = recovery(name)
    calls = []

    def spy(V):
        calls.append(V.shape)
        return p.cone_membership(V)

    again = recover_jordan_product(dataclasses.replace(p, cone_membership=spy))
    assert calls == [(20, p.dim)]
    assert again.gates == res.gates and res.gates["squares_in_cone"] is True
    J = res.algebra
    assert oracle.sampled_squares_gate(
        J, lambda v: oracle.psd_contains(E, v, 1e-9))
    rng = np.random.default_rng(42)
    rng.standard_normal((3 * p.dim, 2, p.dim))
    X = rng.standard_normal((20, p.dim))
    V = np.einsum("ni,nj,ijk->nk", X, X, J.np_tensor)
    assert list(p.cone_membership(V)) == [
        oracle.psd_contains(E, v, 1e-9) for v in V]
    V[3] = -J.unit_float()
    assert list(p.cone_membership(V)) == [n != 3 for n in range(20)]


@pytest.mark.parametrize("planted", [[0], [5, 12], [19]])
def test_first_rejected_square_decides_as_in_the_loop(planted):
    """Squares rejected at planted probes fail the stacked gate, as they
    fail the loop, which stops at the first of them."""
    _, p, res = recovery("qubit:complex")
    stacked = recover_jordan_product(dataclasses.replace(
        p, cone_membership=lambda V: [n not in planted
                                      for n in range(len(V))]))
    seen = []

    def one_at_a_time(v):
        seen.append(v)
        return len(seen) - 1 not in planted

    assert stacked.gates["squares_in_cone"] is False
    assert stacked.algebra is None
    assert not oracle.sampled_squares_gate(res.algebra, one_at_a_time)
    assert len(seen) == planted[0] + 1
