"""The float path's stacked calls equal the per-outcome and per-vector loops
they replaced.

`reference_kernels` keeps the old loops: the pair loop of `_build_float`
(its collapse list), the one-vector `_conditional_in_cone` under
`validate_bipartite`, the pair loop of `_entangled_eta`, the one-operator
`from_coords`, the per-outcome PSD tests of `is_isomorphism_state`
(`psd_failures`) and the `Fraction` combinations of `_try_bijection`.
Floats must agree bit for bit, signed zeros included (NaN signs aside); an
input that fails must fail with the same exception type and message;
reports must hold the same problems, notes and failures in the same order.
"""
import itertools
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as oracle
from kvwb import cones, quantum
from kvwb.builtins import _quantum_model, conjugation_bijection, get_builtin
from kvwb.composites import (BipartiteState, CompositeError,
                             find_conjugate_state, is_isomorphism_state,
                             omega_hat, product_state, validate_bipartite)
from kvwb.effectspace import build_effect_space
from test_forms import ququart_complex

QUANTUM = ["qubit:real", "qubit:complex", "qutrit:complex"]


def outcome(f, *args):
    """f(*args), or the exception it raised."""
    try:
        return f(*args)
    except Exception as e:              # compared by type and message
        return e


def assert_same_floats(new, old):
    """Bitwise equal floats, or real and imaginary parts, signed zeros
    included; a NaN must meet a NaN, whose sign is not compared (an
    infinite coordinate times a zero entry, plus a NaN coordinate, gives
    either sign, depending on the loop numpy picks)."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    for a, b in ((new.real, old.real), (new.imag, old.imag)):
        assert np.array_equal(a, b, equal_nan=True)
        real = ~np.isnan(b)
        assert np.array_equal(np.signbit(a[real]), np.signbit(b[real]))


def assert_same_outcome(new, old):
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old)
        return
    assert not isinstance(new, Exception), new


def frames_model(name, fld, d, frames):
    """A quantum sample with the given frames of outcome matrices, labelled
    t<i>_<k>; the matrices need not be projections."""
    labels = [[f"t{i}_{k}" for k in range(len(fr))]
              for i, fr in enumerate(frames)]
    return _quantum_model(name, fld, d, frames, labels, None, 7)


def duplicated():
    """qubit:real's frames, the first one twice, plus copies of its first
    frame turned by 1e-13 (collapsed with it under atol 1e-12) and by 1e-9
    (not collapsed)."""
    base = get_builtin("qubit:real").states.outcome_matrices
    frames = [[base["a0"], base["a1"]], [base["b0"], base["b1"]],
              [base["a0"], base["a1"]]]
    for eps in (1e-13, 1e-9):
        P = quantum.projection(np.array([1.0, eps])).real
        frames.append([P, np.eye(2) - P])
    return frames_model("qubit:duplicated", "real", 2, frames)


def incomplete():
    """One frame of a qubit: its outcomes span 2 of 4 effect dimensions."""
    eye = np.eye(2, dtype=complex)
    return frames_model("qubit:one-frame", "complex", 2,
                        [[quantum.projection(eye[:, k]) for k in range(2)]])


MODELS = {name: (lambda name=name: get_builtin(name)) for name in QUANTUM}
MODELS.update({"ququart": ququart_complex, "duplicated": duplicated,
               "incomplete": incomplete})


# ---------------------------------------------------------------------------
# from_coords

@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), fld=st.sampled_from(["real", "complex"]),
       n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       special=st.lists(st.sampled_from([0.0, -0.0, np.nan, np.inf, 1e-300]),
                        max_size=4))
def test_from_coords_of_a_stack_is_the_loop(d, fld, n, seed, special):
    basis = quantum.hermitian_basis(d, fld)
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, basis.space_dim))
    for k, value in enumerate(special):
        if n:
            V[k % n, k % basis.space_dim] = value
    with np.errstate(invalid="ignore"):             # inf times 0
        got = basis.from_coords(V)
        assert got.shape == (n, d, d)
        for v, H in zip(V, got):
            old = oracle.from_coords(basis, v)
            assert_same_floats(H, old)
            assert_same_floats(basis.from_coords(v), old)


def test_from_coords_refuses_the_wrong_length():
    basis = quantum.hermitian_basis(2, "complex")
    for v in (np.zeros(3), np.zeros(5)):
        assert isinstance(outcome(oracle.from_coords, basis, v), ValueError)
        for stack in (v, np.stack([v, v])):
            with pytest.raises(ValueError):
                basis.from_coords(stack)


# ---------------------------------------------------------------------------
# the collapse list of _build_float

@pytest.mark.parametrize("name", sorted(MODELS))
def test_collapse_is_the_pair_loop(name):
    m = MODELS[name]()
    E, old = build_effect_space(m), oracle._build_float(m)
    assert E.collapse == old.collapse
    assert (E.span_dim, E.notes) == (old.span_dim, old.notes)
    if name == "duplicated":
        assert {("t0_0", "t2_0"), ("t0_1", "t2_1"), ("t0_0", "t3_0"),
                ("t2_0", "t3_0")} <= set(E.collapse)
        assert ("t0_0", "t4_0") not in E.collapse


@st.composite
def near_copies(draw):
    """Frames of hermitian matrices drawn from a few random ones, their
    copies, copies moved by steps around the atol and rtol of np.allclose,
    and matrices with a NaN or an infinite entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))

    def herm():
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (A + A.conj().T) / 2

    pool = [herm() for _ in range(3)]
    frames, size = [], draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 4))):
        frame = []
        for _ in range(size):
            kind = draw(st.sampled_from(["new", "copy", "moved"] * 3
                                        + ["odd"]))
            if kind == "new":
                pool.append(herm())
                frame.append(pool[-1])
            elif kind == "copy":
                frame.append(pool[draw(st.integers(0, len(pool) - 1))])
            elif kind == "moved":
                step = draw(st.sampled_from([1e-14, 5e-13, 1e-12, 2e-12,
                                             1e-6, 1e-5, 3e-5]))
                frame.append(pool[draw(st.integers(0, len(pool) - 1))]
                             + step * herm())
            else:
                H = herm()
                H[0, 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
                frame.append(H)
        frames.append(frame)
    return frames_model("sample", "complex", d, frames)


@settings(max_examples=60, deadline=None)
@given(near_copies())
def test_collapse_rule_is_allclose(m):
    """Matrices with a NaN or an infinite entry fail the rank, before the
    collapse test, in both."""
    with np.errstate(invalid="ignore"):
        E = outcome(build_effect_space, m)
        old = outcome(oracle._build_float, m)
    assert_same_outcome(E, old)
    if not isinstance(old, Exception):
        assert E.collapse == old.collapse


# ---------------------------------------------------------------------------
# the entangled table, bipartite validation and isomorphism states

@pytest.mark.parametrize("name", sorted(MODELS))
def test_entangled_tables_are_the_pair_loop(name):
    """With the conjugation bijection, and with the identity, which complex
    samples fail at their first outcome that is not real."""
    m = MODELS[name]()
    for gamma in ({x: x for x in m.outcomes}, conjugation_bijection(m)):
        new = outcome(find_conjugate_state, m, gamma)
        old = outcome(oracle._entangled_eta, m, gamma, 1e-9)
        assert_same_outcome(new, old)
        if not isinstance(old, Exception):
            assert list(new.table) == list(old.table)
            assert_same_floats(list(new.table.values()),
                               list(old.table.values()))


def test_a_table_that_is_not_real_fails_at_the_same_pair():
    A = np.array([[1.0, 2j], [0.5, 1.0]])
    m = frames_model("skew", "complex", 2, [[A, A.conj()]])
    gamma = {"t0_0": "t0_1", "t0_1": "t0_0"}
    new = outcome(find_conjugate_state, m, gamma)
    assert_same_outcome(new, outcome(oracle._entangled_eta, m, gamma, 1e-9))
    assert str(new) == "entangled table not real at (t0_0,t0_1)"


def tables(name):
    """Tables on a model and itself: its conjugate table; the conjugate
    table with the row of its first outcome x replaced by that of x - 2y, y
    the second outcome (one row conditional not PSD); tables b·W a of the
    conjugate's W moved by a random matrix (conditionals not PSD); a random
    table (conditionals no operator reproduces); and the conjugate table
    with one NaN entry (the eigenvalue solver fails on a qutrit)."""
    m = MODELS[name]()
    eta = find_conjugate_state(m, conjugation_bijection(m))
    out = [eta]
    rng = np.random.default_rng(5)
    if name != "incomplete":
        E = build_effect_space(m)
        W = np.asarray(omega_hat(eta, E, E).matrix)
        V = E.outcome_vectors
        x, y = m.outcomes[:2]
        out.append(BipartiteState(m, m, {**eta.table, **{
            (x, z): float(V[z] @ W @ (V[x] - 2 * V[y])) for z in m.outcomes}}))
        for scale in (0.3, 2.0):
            Wm = W + scale * rng.standard_normal(W.shape)
            out.append(BipartiteState(m, m, {
                (x, y): float(V[y] @ Wm @ V[x])
                for x in m.outcomes for y in m.outcomes}))
    out.append(BipartiteState(m, m, {k: float(rng.random())
                                     for k in eta.table}))
    bad = dict(eta.table)
    bad[next(iter(bad))] = np.nan
    out.append(BipartiteState(m, m, bad))
    return out


def validation_cases(name):
    """The kinds of verdict that the old loop reached on the tables of a
    model: exception names and the reasons of conditional problems and
    notes.  The new reports must be the same."""
    seen = set()
    for w in tables(name):
        new = outcome(validate_bipartite, w)
        old = outcome(oracle.validate_bipartite, w)
        assert_same_outcome(new, old)
        if isinstance(old, Exception):
            seen.add(type(old).__name__)
            continue
        assert (new.ok, new.problems, new.notes) == \
            (old.ok, old.problems, old.notes)
        seen.update(p.split(": ", 1)[1].split(" (")[0]
                    for p in old.problems + old.notes
                    if p.startswith("conditional"))
    return seen


@pytest.mark.parametrize("name", sorted(MODELS))
def test_validation_reports_are_the_loop(name):
    validation_cases(name)


def test_validation_meets_every_verdict():
    seen = set().union(*map(validation_cases, ["qutrit:complex",
                                               "incomplete"]))
    assert seen == {"LinAlgError", "no operator reproduces the conditional",
                    "conditional operator not PSD",
                    "sample not informationally complete; PSD untested"}


@pytest.mark.parametrize("A, B", [("classical:2", "squit"),
                                  ("classical:2", "qubit:real")])
def test_product_tables_keep_the_polytope_path(A, B):
    """Product states with a polytope factor: its conditionals are still
    checked one at a time, by their LP, which takes exact vectors only.  A
    quantum partner makes the table float, and the check refuses it by
    name, where the loop failed inside the LP."""
    A, B = get_builtin(A), get_builtin(B)
    beta = ([F(1, 2)] * len(B.outcomes) if B.name == "squit"
            else [0.5] * len(B.outcomes))
    for alpha in ([F(1, 2), F(1, 2)], [F(3, 2), F(-1, 2)]):
        w = product_state(A, alpha, B, beta)
        new = outcome(validate_bipartite, w)
        old = outcome(oracle.validate_bipartite, w)
        if B.name == "qubit:real":
            assert isinstance(old, AttributeError)
            assert isinstance(new, CompositeError)
            assert str(new) == (
                "cannot validate a table over the polytope model "
                "'classical:2' and the quantum model 'qubit:real': both "
                "factors must be polytope models or both quantum")
            continue
        assert_same_outcome(new, old)
        if not isinstance(old, Exception):
            assert (new.ok, new.problems, new.notes) == \
                (old.ok, old.problems, old.notes)


@pytest.mark.parametrize("name", sorted(set(MODELS) - {"incomplete"}))
def test_isomorphism_reports_are_the_loop(name):
    m = MODELS[name]()
    E = build_effect_space(m)
    failing = 0
    eta, _, moved, far = tables(name)[:4]      # tables with an omega hat
    for w in (eta, moved, far):
        oh = omega_hat(w, E, E)
        W = np.asarray(oh.matrix)
        rep = is_isomorphism_state(w, E, E)
        old = oracle.psd_failures(w, W, np.linalg.inv(W), E, E, 1e-9)
        assert rep.invertible and rep.is_iso == (not old)
        assert len(rep.failures) == len(old)
        for f, g in zip(rep.failures, old):
            assert (f["stage"], f["outcome"]) == (g["stage"], g["outcome"])
            assert_same_floats(f["min_eig"], g["min_eig"])
        failing += bool(old)
    assert failing


# ---------------------------------------------------------------------------
# the weak self-duality search on integers

def search_inputs(K, form=None):
    D = cones.dual_cone(K, form)
    R, S = list(K.rays), list(D.extreme or ())
    return R, S, K.dim


def assert_same_search(R, S, d):
    """Every bijection, also on rays that are not primitive: R halved, and
    S tripled."""
    half = [tuple(F(x, 2) for x in r) for r in R]
    tripled = [tuple(3 * x for x in s) for s in S]
    for rays, duals in ((R, S), (half, S), (R, tripled)):
        for perm in itertools.permutations(range(len(rays))):
            new = cones._try_bijection(rays, duals, perm, d)
            old = oracle._try_bijection(rays, duals, perm, d)
            assert new == old
            assert all(type(x) is F for row in (new[1] or []) for x in row)
            assert all(type(x) is F for x in new[2] or [])


@pytest.mark.parametrize("name", ["classical:3", "classical:4", "squit"])
def test_bijection_search_is_the_fraction_loop(name):
    from kvwb.forms import find_orthogonalizing_spin_form
    m = get_builtin(name)
    E = build_effect_space(m)
    form = find_orthogonalizing_spin_form(m, E).form.matrix
    R, S, d = search_inputs(E.effect_cone, form)
    assert len(R) == len(S)
    assert_same_search(R, S, d)


small = st.integers(-3, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(
    st.lists(small, min_size=d, max_size=d), min_size=d, max_size=d + 1)))
def test_bijection_search_on_random_cones(gens):
    """Random cones in the open positive orthant's neighbourhood (pointed),
    against their duals under the standard pairing."""
    d = len(gens[0])
    gens = [[x + 4 for x in g] for g in gens]
    K = cones.cone(gens)
    if not K.generators or not K.pointed:
        return
    R, S, _ = search_inputs(K)
    if len(R) == len(S) and len(R) <= 4:
        assert_same_search(R, S, d)


# ---------------------------------------------------------------------------
# no numpy module imported on first use during a quantum pass

def test_a_quantum_pass_imports_nothing():
    """`np.unique` and its kin import `numpy.ma` on their first call, which
    costs more than the stacked calls save; a pass on the quantum built-ins
    must leave `sys.modules` as it found it."""
    code = (
        "import sys, kvwb, numpy.random\n"
        "ms = [kvwb.get_builtin(n) for n in ('qubit:complex', "
        "'qutrit:complex')]\n"
        "before = set(sys.modules)\n"
        "for m in ms:\n"
        "    kvwb.dumps_canonical(kvwb.run_pipeline(m).to_json())\n"
        "print(sorted(set(sys.modules) - before))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": str(src),
                              "OPENBLAS_NUM_THREADS": "1"})
    assert out.stdout.strip() == "[]"


def test_a_quantum_pass_makes_no_per_vector_solve(monkeypatch):
    """No `np.linalg.lstsq`, the recovery's dense solve included (it solves
    on the Gram matrix of its rows), and no `np.allclose`: the
    conditionals and collapse tests are stacked."""
    from kvwb.pipeline import run_pipeline
    calls = {"lstsq": 0, "allclose": 0}
    lstsq, allclose = np.linalg.lstsq, np.allclose

    def count(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return counted
    monkeypatch.setattr(np.linalg, "lstsq", count("lstsq", lstsq))
    monkeypatch.setattr(np, "allclose", count("allclose", allclose))
    for name in QUANTUM:
        assert run_pipeline(get_builtin(name)).ok
    assert calls == {"lstsq": 0, "allclose": 0}
