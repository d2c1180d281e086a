"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package at its stated
tolerance and runtime budget, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per guarantee.
"""

import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np

from kvwb.builtins import (builtin_names, classical, conjugation_bijection,
                           get_builtin, squit)
from kvwb.composites import (find_conjugate_state, is_isomorphism_state,
                             spin_form_from_conjugate, validate_bipartite)
from kvwb.cones import cone, dual_cone, is_self_dual, \
    is_weakly_self_dual
from kvwb.effectspace import build_effect_space
from kvwb.forms import check_spin_uniqueness, find_orthogonalizing_spin_form
from kvwb.jordan import (JordanAlgebra, complex_hermitian, jordan_product,
                         quaternionic_hermitian, real_symmetric,
                         recover_jordan_product, spin_factor,
                         verify_symmetric_cone)
from kvwb.models import find_nontrivial_images, image_model, is_sharp
from kvwb.pipeline import _recovery_problem, run_pipeline

import reference_kernels as oracle
from tests.test_cones import rational_rng_cone
from tests.test_jordan import assert_proved, float_twin, transported_problem
from tests.test_models import paired_classical4

REGULAR = ["classical:2", "classical:3", "classical:4", "classical:5",
           "squit", "qubit:real", "qubit:complex", "qutrit:complex"]


class budget:
    """Assert the block finishes inside its runtime budget (seconds)."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, \
                f"runtime {elapsed:.1f}s exceeds the {self.seconds}s budget"


def spin_of(name):
    m = get_builtin(name)
    E = build_effect_space(m)
    return m, E, find_orthogonalizing_spin_form(m, E)


def test_criterion_1_invariant_form_unique_and_positive():
    with budget(10):
        for name in REGULAR:
            m, E, res = spin_of(name)
            rep = check_spin_uniqueness(m, E)
            assert rep.irreducible is True, name
            assert rep.solution_space_dim == 1, name
            assert res.form is not None and res.form.positive_definite, name
        for n in range(2, 6):
            _, _, res = spin_of(f"classical:{n}")
            for i in range(n):
                for j in range(n):
                    assert res.form.matrix[i][j] == (F(1, n) if i == j else F(0))
        for name in ("qubit:real", "qubit:complex"):
            m, E, res = spin_of(name)
            basis = E.basis
            gram = np.zeros((E.dim, E.dim))
            for i in range(E.dim):
                Bi = basis.from_coords(np.eye(E.dim)[i])
                for j in range(E.dim):
                    Bj = basis.from_coords(np.eye(E.dim)[j])
                    gram[i, j] = np.trace(Bi @ Bj).real / 2
            dev = np.abs(np.asarray(res.form.matrix) - gram).max()
            assert dev <= 1e-9, name


def test_criterion_2_conjugates_recover_the_form():
    with budget(10):
        for n in range(2, 6):
            m = classical(n)
            gamma = conjugation_bijection(m)
            assert gamma == {x: x for x in m.outcomes}
            eta = find_conjugate_state(m, gamma)
            for x in m.outcomes:
                for y in m.outcomes:
                    assert eta.value(x, y) == (F(1, n) if x == y else F(0))
            E = build_effect_space(m)
            derived = spin_form_from_conjugate(eta, gamma, E)
            spin = find_orthogonalizing_spin_form(m, E).form
            assert derived.matrix == spin.matrix
        for name in ("qubit:real", "qubit:complex"):
            m = get_builtin(name)
            gamma = conjugation_bijection(m)
            eta = find_conjugate_state(m, gamma)
            assert validate_bipartite(eta).ok
            for x in m.outcomes:
                assert abs(eta.value(x, gamma[x]) - 0.5) < 1e-12
            E = build_effect_space(m)
            derived = spin_form_from_conjugate(eta, gamma, E)
            spin = find_orthogonalizing_spin_form(m, E).form
            dev = np.abs(np.asarray(derived.matrix)
                         - np.asarray(spin.matrix)).max()
            assert dev <= 1e-9, name


def test_criterion_3_sharpness_and_self_duality_certificates():
    with budget(5):
        for n in range(2, 6):
            m, E, res = spin_of(f"classical:{n}")
            assert is_sharp(m).sharp
            rep = is_self_dual(cone(E.cone_generators), res.form.matrix)
            assert rep.self_dual and rep.pairwise_min >= 0

        m, E, res = spin_of("qubit:complex")
        pr = run_pipeline(m)
        sd = pr.stage("self-duality")
        assert sd.status == "pass"
        assert sd.data["analytic_certificate"] is True
        assert sd.data["sampled_pairwise_min"] >= -1e-9

        m, E, res = spin_of("squit")
        sharp = is_sharp(m)
        assert not sharp.sharp
        assert len(sharp.witness["certain_states"]) == 2
        K = cone(E.cone_generators)
        rep = is_self_dual(K, res.form.matrix)
        assert not rep.self_dual
        outside = [f for f in rep.failures
                   if f["kind"] == "dual-ray-outside-cone"]
        assert outside
        gens = [list(g) for g in K.all_generators()]
        for f in outside:
            # the separator is a functional nonnegative on all of K that the
            # dual ray violates: an exact witness against self-duality
            y = f["separating"]
            assert all(sum(a * b for a, b in zip(y, g)) >= 0 for g in gens)
            assert sum(a * b for a, b in zip(y, f["ray"])) < 0


def test_criterion_4_weak_self_duality_contrast():
    rep = run_pipeline(squit())
    assert rep.stage("self-duality").status == "fail"
    assert rep.stage("weak-self-duality").status == "pass"
    m, E, res = spin_of("squit")
    K = cone(E.cone_generators)
    w = is_weakly_self_dual(K, dual_cone(K, res.form.matrix))
    assert w.status == "yes"
    assert w.map is not None and w.bijection is not None


def test_criterion_5_randomized_duality_suite():
    with budget(60):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, 9))
            K = rational_rng_cone(rng, d, k)
            D = dual_cone(K)
            DD = dual_cone(D)
            eq, _ = oracle.cone_equal(DD, K)
            assert eq
            gens = [list(v) for v in DD.all_generators()]
            for g in K.all_generators():
                res = oracle.cone_contains(DD, g)
                assert res.feasible
                rebuilt = [sum(c * v[i] for c, v in zip(res.point, gens))
                           for i in range(len(g))]
                assert rebuilt == list(g)


def test_criterion_6_symmetric_cone_verification():
    with budget(30):
        kinds = [real_symmetric(n) for n in range(1, 5)]
        kinds += [complex_hermitian(n) for n in range(1, 4)]
        kinds += [quaternionic_hermitian(2)]
        kinds += [spin_factor(n) for n in range(2, 7)]
        for J in kinds:
            assert_proved(J, verify_symmetric_cone(J, sample_count=50))
            rep = verify_symmetric_cone(float_twin(J), sample_count=50)
            assert rep.ok, (J.kind, rep.failures)
            assert rep.max_homogeneity_error <= 1e-9, J.kind
        J = real_symmetric(2)
        bad = [[list(c) for c in row] for row in J.tensor]
        bad[0][1][2] += F(1, 7)
        bad[1][0][2] += F(1, 7)
        K = JordanAlgebra(kind="corrupted", dim=J.dim, exact=True,
                          unit=J.unit, tensor=tuple(
                              tuple(tuple(c) for c in row) for row in bad))
        rep = verify_symmetric_cone(K, sample_count=10)
        assert not rep.ok
        assert any(f["gate"] == "jordan-axioms" for f in rep.failures)
        assert rep.failures[0]["failing_triple"] == K.axiom_proof().triple
        assert K.axiom_proof().triple is not None


def test_criterion_7_product_recovery():
    with budget(60):
        m = get_builtin("classical:3")
        E = build_effect_space(m)
        spin = find_orthogonalizing_spin_form(m, E).form
        res = recover_jordan_product(_recovery_problem(E, spin, 1e-9))
        assert res.linear_solution_dim == 0 and res.seeds_agree
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert res.algebra.tensor[i][j][k] == \
                        (F(1) if i == j == k else F(0))

        m = get_builtin("qubit:complex")
        E = build_effect_space(m)
        spin = find_orthogonalizing_spin_form(m, E).form
        res = recover_jordan_product(_recovery_problem(E, spin, 1e-9))
        assert res.seeds_agree
        basis, d = E.basis, E.dim
        orc = np.zeros((d, d, d))
        for i in range(d):
            for j in range(d):
                Mi = basis.from_coords(np.eye(d)[i])
                Mj = basis.from_coords(np.eye(d)[j])
                orc[i, j] = basis.to_coords((Mi @ Mj + Mj @ Mi) / 2)
        assert np.abs(res.algebra.np_tensor - orc).max() <= 1e-8

        p, orc = transported_problem()
        res = recover_jordan_product(p)
        assert res.seeds_agree
        assert np.abs(res.algebra.np_tensor - orc).max() <= 1e-8
        assert res.residual <= 1e-8


def test_criterion_8_images():
    m4 = paired_classical4()
    cands = find_nontrivial_images(m4)
    images = [c for c in cands if c.verdict == "image"]
    assert images
    img, relabel = None, None
    for c in images:
        omap = {x: f"c{bi}" for bi, blk in enumerate(c.partition) for x in blk}
        q = image_model(m4, omap)
        iso = oracle.models_isomorphic(q, classical(2))
        if iso is not None:
            img, relabel = q, iso
            break
    assert img is not None
    assert sorted(img.states.vertices) == [(F(0), F(1)), (F(1), F(0))]
    assert sorted(relabel.values()) == ["e0", "e1"]
    for name in ("qubit:real", "qubit:complex"):
        cands = find_nontrivial_images(get_builtin(name))
        assert all(c.verdict != "image" for c in cands), name


#: sha256 of `kvwb run NAME` on the exact polytope built-ins.  Each report
#: equals the one the `Fraction` kernels and the group-enumerating checks
#: produced, with the retired `"cap"` key dropped from `model_spec.group`;
#: the `classical:n` digests were recorded again when the exact recovery and
#: symmetric-cone check became proofs, whose exact residual, frame gate and
#: Koecher-Vinberg note replace the sampled residuals and minima.  All six
#: were recorded again when the homogeneity stage was read off the recovered
#: product: only that stage's data and notes changed, its status did not.
#: The quantum built-ins are left out: their floats come from LAPACK.
REPORT_SHA256 = {
    "classical:2": "64726327145c3d2f173d9792c87f0f195875d275ab3a629cc6fff44adbb25301",
    "classical:3": "730abc826b83f1c80e9b2cfb2a56d1a1dc6bf4adb18b6d05c7ddd25efb886644",
    "classical:4": "29d7aa3700ccc6bdff0a87fdd260a9910ed801b5d80edabbeecd72f73cf655a6",
    "classical:5": "db9aec440b2cfbcd480a64e777a6555de953a783af461a9e4a3267c289d1416b",
    "squit": "09ec2af532029e49b2a465519cb332e304c86c3adfd3a3bb47755ce15955acea",
    "squit:klein": "d29b2e03f6b5654eeb0dba64e4f86af76a03a6bc2a80bec4e70ce748fcd9a963",
}


def test_criterion_9_byte_identical_reports():
    for name in builtin_names():
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "kvwb.cli", "run", name],
                capture_output=True, check=False)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], name
        assert outs[0].strip(), name
        if name in REPORT_SHA256:
            assert hashlib.sha256(outs[0]).hexdigest() == REPORT_SHA256[name], name
    assert set(REPORT_SHA256) <= set(builtin_names())


#: sha256 of `kvwb run NAME` on the quantum built-ins with one BLAS thread,
#: recorded when recovery moved to the symmetric cubic form: against the
#: full-tensor rows only float residuals and errors changed, each by under
#: 1e-12.  All three were recorded again when the homogeneity stage was
#: read off the recovered product, which changed only that stage's data and
#: notes, and again when the float recovery moved from `lstsq` to a solve
#: on the Gram matrix of its rows, which moved only float residuals and
#: errors, each by under 1e-12, and again when the float recovery moved to
#: the unit's B-orthogonal complement, which moved only the recovery
#: residual and the sampled gates' minima and errors, each by under 2e-14,
#: and again when gate 3 read its Jordan frames off a Lanczos run of L_w,
#: which moved only `min_self_duality_pairing`, each by under 2e-15.
#: LAPACK's results depend on its thread count, so the digests hold for one
#: thread only (with two, `qutrit:complex` gives 6a560d64...).
QUANTUM_REPORT_SHA256 = {
    "qubit:real": "d59347aaa492bf06c0c1a3cbc5d6229672b8a9425308986229114c9570a11419",
    "qubit:complex": "b8e53d81fafce2951691b4f6ee26aa95689df1ec57f6b4785b020c4377b5b019",
    "qutrit:complex": "8257a8768f7674d3ece78c0dc164d2cb6004d1d85274c27569440487ceb105cd",
}


def test_criterion_9_quantum_reports_with_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for name, digest in QUANTUM_REPORT_SHA256.items():
        proc = subprocess.run([sys.executable, "-m", "kvwb.cli", "run", name],
                              capture_output=True, check=False, env=env)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, name
