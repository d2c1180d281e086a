"""The stacked spectral kernels and the symmetric-cone check against the
one-element code they replaced.

`reference_kernels` keeps the old `minimal_polynomial_degree`,
`jordan_powers`, `_eigenvalues`, `jordan_sqrt` and `verify_symmetric_cone`,
and the stacked minimal-polynomial kernels (degrees, powers, fits, roots,
merged eigenvalues), which agree with that one-element code bit for bit,
signed zeros included, and fail where it fails with the same exception
type and message.

Gate 3 reads its Jordan frames off a Lanczos run of L_w in the trace form
(`spectral._frames`).  A row of a stack gets the frame it gets alone, so
gate 3 agrees bit for bit with the oracle's sample loop, which pairs the
same frames one row at a time.  The frames are checked against the
oracle's eigenvalues, within 1e-11·max(1, |w|∞) at scale 1 and at 1e-4
(where the oracle's roots are well conditioned), against planted
eigenvalues where they are close, and for idempotence.

Square roots and gate 4's cone test read the least and the greatest
eigenvalue off one symmetric eigensolve of L_w per stack
(`spectral._extreme_eigenvalues`), which agrees with the oracle's roots to
rounding, not bit for bit.  There a failing row fails with the same
exception type as in the oracle; a root is within 1e-10·max(1, |w|) of the
oracle's; and a report keeps every status, boolean and failure of the old
one, its homogeneity error within 1e-10.  On an algebra whose trace form
is not positive definite every row of the new kernels fails with one
ArithmeticError.  The check must stop where the old sample loop stopped.
It samples only float tensors; an exact algebra is proved, so it is
compared on its float twin.
"""
import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import _umath_linalg

import reference_kernels as oracle
from kvwb import jordan, spectral
from kvwb.builtins import get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb.jordan import (JordanAlgebra, classical_algebra, complex_hermitian,
                         direct_sum, quaternionic_hermitian, real_symmetric,
                         recover_jordan_product, spin_factor,
                         verify_symmetric_cone)
from kvwb.pipeline import _recovery_problem
from kvwb.spectral import (_extreme_eigenvalues, _frames, _sqrt_many, _stacked,
                           generic_rank, jordan_sqrt)
from reference_kernels import (_degrees_and_powers, _eigenvalues_many,
                               _minimal_polynomials, _roots_many)
from test_jordan import assert_proved, float_twin

CATALOG = [real_symmetric(1), real_symmetric(2), real_symmetric(3),
           complex_hermitian(2), complex_hermitian(3),
           quaternionic_hermitian(2), spin_factor(2), spin_factor(5),
           classical_algebra(3)]
BUILTINS = ["classical:3", "classical:4", "qubit:real", "qubit:complex",
            "qutrit:complex"]


@functools.lru_cache(maxsize=None)
def recovered(name):
    m = get_builtin(name)
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    return recover_jordan_product(_recovery_problem(E, spin, 1e-9)).algebra


def spectral_only(J):
    """J with its kind's cone formula dropped: the spectral test decides."""
    return JordanAlgebra("Recovered", J.dim, J.unit, J.np_tensor, False)


def sampled(J, rep):
    """The algebra whose report is compared with the sample loop's: J
    itself when its tensor is float, else its float twin, after checking
    that J's own report is the proof (`assert_proved`)."""
    if not J.exact:
        return J
    assert_proved(J, rep)
    return float_twin(J)


def algebra(k):
    if k < len(CATALOG):
        return CATALOG[k]
    k -= len(CATALOG)
    if k < len(BUILTINS):
        return recovered(BUILTINS[k])
    return spectral_only(CATALOG[k - len(BUILTINS)])


N_ALGEBRAS = 2 * len(CATALOG) + len(BUILTINS)


def plane(square_of_e):
    """R[e]/(e∘e - square_of_e u) on the basis (u, e): the complex numbers
    for -1 and the dual numbers for 0, neither formally real."""
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = T[0, 1, 1] = T[1, 0, 1] = 1.0
    T[1, 1, 0] = square_of_e
    return JordanAlgebra("Recovered", 2, [1.0, 0.0], T, False)


#: The kernels are tensor-only, so they also run on algebras that are not
#: formally real, where complex and repeated eigenvalues are the rule.
KERNEL_ALGEBRAS = [plane(-1.0), plane(0.0)]

#: What every row of `_extreme_eigenvalues` holds on such an algebra.
NOT_PD = "trace form not positive definite"


def outcome(f, *args):
    """f(*args), or the exception it raised."""
    try:
        return f(*args)
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        return e


def assert_same(new, old):
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old)
        return
    assert not isinstance(new, Exception), new
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def special_rows(J, rng):
    """Rows that are not generic: the unit, zero, spectral idempotents,
    elements with repeated and with nearly repeated eigenvalues, elements
    outside the cone, a row of NaNs and a row of infs."""
    d, u = J.dim, J.unit_float()
    rows = [u, np.zeros(d), -u, np.full(d, np.nan), np.full(d, np.inf)]
    if J in KERNEL_ALGEBRAS:
        return rows
    _, idems = oracle.spectral_decomposition(
        J, oracle.jordan_powers(J, rng.standard_normal(d), 2)[2] + u)
    rows += idems
    p = idems[0]
    rows += [2.0 * u + 3.0 * p, 0.5 * u - 0.5 * p]
    for gap in (1e-5, 1e-7, 1e-9):
        lams = 1.0 + np.arange(len(idems), dtype=float)
        lams[-1] = lams[0] + gap
        rows.append(sum(lam * q for lam, q in zip(lams, idems)))
    return rows


@st.composite
def stacks(draw):
    """An algebra and a stack mixing generic and non-generic rows."""
    k = draw(st.integers(0, N_ALGEBRAS + len(KERNEL_ALGEBRAS) - 1))
    J = algebra(k) if k < N_ALGEBRAS else KERNEL_ALGEBRAS[k - N_ALGEBRAS]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = special_rows(J, rng)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        pick = draw(st.integers(-3, len(special) - 1))
        x = rng.standard_normal(J.dim)
        if pick == -1:
            rows.append(x)
        elif pick == -2:
            rows.append(1e-3 * x)
        elif pick == -3:        # a sample of gate 4
            rows.append(oracle.jordan_powers(J, 3.0 * x, 2)[2]
                        + 0.2 * J.unit_float())
        else:
            rows.append(special[pick])
    return J, np.array(rows)


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_degrees_and_powers_match_the_one_element_code(case):
    J, W = case
    degs, pows = _degrees_and_powers(J, W)
    for w, deg, P in zip(W, degs, pows):
        assert_same(deg, outcome(oracle.minimal_polynomial_degree, J, w))
        if not isinstance(deg, Exception):
            assert_same(P[:deg + 1], np.array(oracle.jordan_powers(J, w, deg)))
        assert_same(_degrees_and_powers(J, w[None])[0][0], deg)


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_eigenvalues_match_the_one_element_code(case):
    J, W = case
    for w, lams in zip(W, _eigenvalues_many(J, W)):
        assert_same(lams, outcome(oracle._eigenvalues, J, w))
        assert_same(_eigenvalues_many(J, w[None])[0], lams)


def square(J, s):
    """s∘s, for an element or a stack of them."""
    return np.einsum("...i,...j,ijk->...k", s, s, J.np_tensor)


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_square_roots_match_the_one_element_code(case):
    """The one-element `jordan_sqrt` is the stack's row, bit for bit.  On a
    formally real algebra a row fails with the oracle's exception type, or
    its root is within 1e-10·max(1, |w|) of the oracle's and squares to w
    within 1e-12·max(1, |w|), the iteration's stopping rule; otherwise
    every row holds the kernel's ArithmeticError."""
    J, W = case
    for w, s in zip(W, _sqrt_many(J, W)):
        assert_same(outcome(jordan_sqrt, J, w), s)
        if J.trace_cholesky is None:
            assert type(s) is ArithmeticError and str(s) == NOT_PD
            continue
        old = outcome(oracle.jordan_sqrt, J, w)
        assert type(s) is type(old), (s, old)
        if not isinstance(old, Exception):
            scale = max(1.0, float(np.abs(w).max()))
            assert np.abs(s - old).max() <= 1e-10 * scale
            assert np.abs(square(J, s) - w).max() <= 1e-12 * scale


def test_the_stacks_reach_every_failure():
    """The rows compared above do exercise the error paths."""
    J = real_symmetric(3)
    roots = _sqrt_many(J, np.array(special_rows(J, np.random.default_rng(3))))
    errors = {str(r).split(" (")[0] for r in roots if isinstance(r, Exception)}
    assert errors == {"Eigenvalues did not converge",
                      "element not in the cone"}
    roots = _sqrt_many(plane(-1.0), np.random.default_rng(3).random((3, 2)))
    assert all(str(r) == NOT_PD for r in roots)


def assert_extremes(J, W):
    """`_extreme_eigenvalues` of each row w of W against the least and the
    greatest of `reference_kernels._eigenvalues`, within
    1e-9·max(1, |w|∞), where the oracle tells all rank-many eigenvalues of
    w apart.  A root of the oracle next to a gap g, relative to
    max(1, |w|∞), is itself off by up to about 2e-14 / g (3e-9 on R⁴ for
    the entries 1 and 1.00001 of (2, 1.00001, 1, 3), where the kernel gets
    1 exactly), so the bound at an end is 1e-13 / g there when that is
    more; `test_frames_of_close_eigenvalues` checks the ends of such rows
    against their planted eigenvalues within 1e-12 instead.  Where the
    oracle reports fewer nodes, it took a cluster for one root
    (its degree cut, absolute for a small w) or reported close roots by
    their mean (its merge), so each node it reports is only known to lie
    between the least and the greatest eigenvalue, up to its merge width
    1e-6·max(1, |λ|) more.  A row that fails, of NaNs or infs, holds a
    LinAlgError in both."""
    rank = oracle.generic_rank(J)
    for w, got in zip(W, _extreme_eigenvalues(J, W)):
        old = outcome(oracle._eigenvalues, J, w)
        if isinstance(old, Exception):
            assert type(got) is type(old), (got, old)
            continue
        assert not isinstance(got, Exception), got
        size = max(1.0, float(np.abs(w).max()))
        bound = 1e-9 * size
        if len(old) == rank:
            gaps = np.diff(old, prepend=-np.inf, append=np.inf) / size
            ends = [max(1e-9, 1e-13 / g) * size for g in (gaps[1], gaps[-2])]
            assert abs(got[0] - old[0]) <= ends[0]
            assert abs(got[1] - old[-1]) <= ends[1]
        else:
            bound += 1e-6 * max(1.0, np.abs(old).max())
            assert got[0] - bound <= old[0] and old[-1] <= got[1] + bound


KERNEL_ORACLE_ALGEBRAS = ([float_twin(J) for J in CATALOG]
                          + [float_twin(direct_sum([real_symmetric(2),
                                                    spin_factor(3)]))])


@pytest.mark.parametrize("k", range(len(KERNEL_ORACLE_ALGEBRAS)
                                   + len(BUILTINS)))
def test_extreme_eigenvalues_match_the_oracle(k):
    """On the float twins of the catalog, of RealSym(2) ⊕ SpinFactor(3) and
    on the recovered built-ins: special rows, random rows and samples of
    gate 4.  The NaN and the inf row each hold a LinAlgError in place."""
    J = (KERNEL_ORACLE_ALGEBRAS[k] if k < len(KERNEL_ORACLE_ALGEBRAS)
         else recovered(BUILTINS[k - len(KERNEL_ORACLE_ALGEBRAS)]))
    rng = np.random.default_rng(k)
    X = rng.standard_normal((20, J.dim))
    samples = (np.einsum("ni,nj,ijk->nk", X, X, J.np_tensor)
               + 0.2 * J.unit_float())
    special = special_rows(J, rng)
    W = np.concatenate([special, X, samples])
    assert_extremes(J, W)
    got = _extreme_eigenvalues(J, W)
    assert [isinstance(r, np.linalg.LinAlgError) for r in got] == [
        not np.isfinite(w).all() for w in W]


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_extreme_eigenvalues_of_the_stacks(case):
    J, W = case
    if J.trace_cholesky is not None:
        assert_extremes(J, W)
    else:
        assert all(type(r) is ArithmeticError and str(r) == NOT_PD
                   for r in _extreme_eigenvalues(J, W))


def test_a_plane_that_is_not_formally_real_fails_every_row():
    J = KERNEL_ALGEBRAS[0]
    rows = np.array(special_rows(J, np.random.default_rng(0)))
    got = _extreme_eigenvalues(J, rows)
    assert len(got) == len(rows)
    assert all(type(r) is ArithmeticError and str(r) == NOT_PD for r in got)


@pytest.mark.parametrize("k", range(N_ALGEBRAS))
def test_generic_rank_matches(k):
    J = algebra(k)
    for seed in (42, 7):
        assert generic_rank(J, seed=seed) == oracle.generic_rank(J, seed=seed)


def frame_residual(J, C) -> float:
    """max |c∘c − c| over the idempotents c of a frame, and |Σ c − u|."""
    return max(float(np.abs(square(J, C) - C).max()),
               float(np.abs(C.sum(axis=0) - J.unit_float()).max()))


@pytest.mark.parametrize("scale", [1e3, 1.0, 0.1, 0.01, 1e-4])
def test_degree_cut_is_scale_invariant(scale):
    """An element of R³ near 1e-4 in size, at every scale, has its three
    entries as eigenvalues and the three coordinate idempotents as its
    frame: the run is cut relative to ‖L_w q_k‖.  The minimal-polynomial
    kernels merged roots closer than 1e-6·max(1, |λ|), absolute below size
    1, and gave 0.01·w two eigenvalues."""
    J = float_twin(classical_algebra(3))
    w = scale * np.array([2.0997e-4, 1.9313e-4, 5.0118e-4])
    lams, idems = _frames(J, w[None])[0]
    assert np.abs(lams - np.sort(w)).max() <= 1e-12 * scale
    assert np.abs(idems - np.eye(3)[np.argsort(w)]).max() <= 1e-12
    assert oracle.minimal_polynomial_degree(J, w) == 3
    assert generic_rank(J) == 3


@pytest.mark.parametrize("k", range(len(KERNEL_ORACLE_ALGEBRAS)
                                   + len(BUILTINS)))
def test_frames_match_the_oracle(k):
    """On the float twins of the catalog, of RealSym(2) ⊕ SpinFactor(3) and
    on the recovered built-ins: random rows and samples of gate 3, at scale
    1 and 1e-4.  Each row has the oracle's eigenvalues at scale 1, times
    the scale, within 1e-11·max(1, |w|∞) times the scale, and its
    idempotents have |c∘c − c| and |Σ c − u| at most 1e-12.  Where the
    oracle's least gap g between eigenvalues, relative to max(1, |w|∞), is
    under 1e-2, the bound is 1e-13 / g instead of 1e-11: its roots are off
    by up to about 2e-14 / g (1.9e-11 on R³ at g = 7.2e-4, where the run
    gets the eigenvalues, the entries, to 1e-15).  The oracle
    is read at scale 1 only: its root merge is absolute below size 1."""
    J = (KERNEL_ORACLE_ALGEBRAS[k] if k < len(KERNEL_ORACLE_ALGEBRAS)
         else recovered(BUILTINS[k - len(KERNEL_ORACLE_ALGEBRAS)]))
    rng = np.random.default_rng(k)
    X = rng.standard_normal((20, J.dim))
    W = np.concatenate([X, square(J, X) + 0.1 * J.unit_float()])
    old = oracle._eigenvalues_many(J, W)
    for s in (1.0, 1e-4):
        for w, new, lams in zip(W, _frames(J, s * W), old):
            assert len(new[0]) == len(lams)
            size = max(1.0, float(np.abs(w).max()))
            gap = np.diff(lams).min(initial=size) / size
            bound = max(1e-11, 1e-13 / gap) * s * size
            assert np.abs(new[0] - s * lams).max() <= bound
            assert frame_residual(J, new[1]) <= 1e-12


@pytest.mark.parametrize("k", range(len(KERNEL_ORACLE_ALGEBRAS)))
def test_frames_of_close_eigenvalues(k):
    """Σ λ_i p_i over a Jordan frame p of the oracle, λ = 1, 2, ..., with
    the last moved to a gap above the first, at scale 1 and 1e-4.  Down to
    a gap of 1e-7 the run keeps every eigenvalue apart, within 1e-12 times
    the scale of the planted ones; at 1e-9 it stops a step early, with one
    Ritz value for the pair.  The oracle's roots are no reference here:
    they are off by up to 1.5e-9 at a gap of 1e-5.  An idempotent is good
    to about 1e-16 / gap while its eigenvalue is kept apart and to about
    the gap once it is not, so every frame is within gate 3's 1e-8, and
    those with a gap of 1e-3 within 1e-12.  `_extreme_eigenvalues` gets
    the least and the greatest planted eigenvalue within 1e-12 times the
    scale at every gap."""
    J = KERNEL_ORACLE_ALGEBRAS[k]
    u = J.unit_float()
    _, frame = oracle.spectral_decomposition(
        J, oracle.jordan_powers(J, np.random.default_rng(k).standard_normal(
            J.dim), 2)[2] + u)
    r = len(frame)
    for gap in (1e-3, 1e-5, 1e-7, 1e-9):
        planted = 1.0 + np.arange(r, dtype=float)
        planted[-1] = 1.0 + gap
        w = sum(lam * p for lam, p in zip(planted, frame))
        for s in (1.0, 1e-4):
            lams, idems = _frames(J, s * w[None])[0]
            if gap >= 1e-7 or r == 1:
                assert np.abs(lams - s * np.sort(planted)).max() <= 1e-12 * s
            else:
                assert len(lams) == r - 1
                assert abs(lams[0] - s) <= 1e-9 * s
            assert frame_residual(J, idems) <= (1e-12 if gap >= 1e-3 else
                                                1e-8)
            lo, hi = _extreme_eigenvalues(J, s * w[None])[0]
            assert abs(lo - s * planted.min()) <= 1e-12 * s
            assert abs(hi - s * planted.max()) <= 1e-12 * s


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_frames_of_the_stacks(case):
    """A row of the stack gets the floats it gets alone, an error too; a
    row that is not finite holds a LinAlgError, and every row on an algebra
    that is not formally real the ArithmeticError of `_extreme_eigenvalues`.
    Otherwise the least and the greatest eigenvalue are those of
    `_extreme_eigenvalues` within 1e-9·max(1, |w|∞), and the idempotents
    are within gate 3's 1e-8."""
    J, W = case
    for w, got, ends in zip(W, _frames(J, W), _extreme_eigenvalues(J, W)):
        one = _frames(J, w[None])[0]
        if isinstance(got, Exception):
            assert_same(one, got)
            assert type(got) is type(ends) and str(got) == str(ends)
            continue
        assert_same(one[0], got[0])
        assert_same(one[1], got[1])
        bound = 1e-9 * max(1.0, float(np.abs(w).max()))
        assert abs(got[0][0] - ends[0]) <= bound
        assert abs(got[0][-1] - ends[1]) <= bound
        assert frame_residual(J, got[1]) <= 1e-8


def test_stacked_solve_falls_back_row_by_row():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3, 3))
    A[2] = 0.0
    b = rng.standard_normal((4, 3, 1))
    got = _stacked(np.linalg.solve, A, b)
    assert isinstance(got[2], np.linalg.LinAlgError)
    for n in (0, 1, 3):
        assert_same(got[n], np.linalg.solve(A[n], b[n]))


def assert_same_fields(new: dict, old: dict):
    assert new.keys() == old.keys()
    for key, value in old.items():
        if isinstance(value, float):
            assert_same(new[key], value)
        else:
            assert new[key] == value, key


def assert_same_report(new, old):
    assert_same_fields(dataclasses.asdict(new), dataclasses.asdict(old))


def assert_sampled_report(new, old):
    """The old report, but for the homogeneity error of gate 4, whose
    square roots may differ from the oracle's in their last bits: that
    float within 1e-10, every status, boolean, failure and note exact, and
    gate 3's minimum pairing bit for bit."""
    new, old = dataclasses.asdict(new), dataclasses.asdict(old)
    error = new.pop("max_homogeneity_error")
    expected = old.pop("max_homogeneity_error")
    if expected is None:
        assert error is None
    else:
        assert abs(error - expected) <= 1e-10, (error, expected)
    assert_same_fields(new, old)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, N_ALGEBRAS - 1), seed=st.integers(0, 2**32 - 1),
       sample_count=st.integers(0, 25))
def test_symmetric_cone_reports_match(k, seed, sample_count):
    """Exact algebras are proved; the sampled gates run on their float
    twins."""
    J = algebra(k)
    J = sampled(J, verify_symmetric_cone(J, sample_count, seed))
    assert_sampled_report(verify_symmetric_cone(J, sample_count, seed),
                          oracle.verify_symmetric_cone(J, sample_count, seed))


@pytest.mark.parametrize("k", range(N_ALGEBRAS))
def test_symmetric_cone_reports_match_at_the_defaults(k):
    J = algebra(k)
    J = sampled(J, verify_symmetric_cone(J))
    rep = verify_symmetric_cone(J)
    assert rep.ok
    assert_same_report(rep, oracle.verify_symmetric_cone(J))


def test_mislabelled_tensor_fails_inside_gate_4_as_before():
    """RealSym(2)'s tensor under the cone formula of R + R + R.  Exact, it
    is proved a symmetric cone: the proof reads the tensor, not the formula.
    Its float twin samples: the axioms, the trace form and self-duality
    pass, and the images of squares whose off-diagonal coordinate is
    negative fail the wrong formula."""
    J = real_symmetric(2)
    K = JordanAlgebra("DirectSum(RealSym(1), RealSym(1), RealSym(1))", J.dim,
                      J.unit, J.tensor, True,
                      params=classical_algebra(3).params)
    K = sampled(K, verify_symmetric_cone(K, sample_count=30))
    rep = verify_symmetric_cone(K, sample_count=30)
    assert rep.self_duality_ok and not rep.ok
    assert 0 < len(rep.failures) < 30
    assert_same_report(rep, oracle.verify_symmetric_cone(K, sample_count=30))


EIGENVALUES, EXTREMES = oracle._eigenvalues, spectral._extreme_eigenvalues


def planted(tag):
    """The error a tag plants at an eigenvalue step: "arithmetic" stands
    for an ArithmeticError there (as a complex root raised in the old
    check), "linalg" for a LinAlgError."""
    return {"arithmetic": ArithmeticError,
            "linalg": np.linalg.LinAlgError}[tag]("tagged " + tag)


def tagged_eigenvalues(tags, calls):
    """`reference_kernels._eigenvalues`, the eigenvalue step of the old
    check, except at the positions in `tags`: "negative" shifts the
    eigenvalues below zero, the other tags raise `planted`.  Gate 4 calls
    it for sqrt_0, membership_0, sqrt_1, membership_1, ...: position n is
    call n (gate 3 reads its frames off `spectral._frames`).  `calls`
    records the w of each call."""
    def eigenvalues(J, w):
        tag = tags.get(len(calls))
        calls.append(w)
        if tag in (None, "negative"):
            return EIGENVALUES(J, w) - (100.0 if tag else 0.0)
        raise planted(tag)
    return eigenvalues


def tagged_extremes(tags):
    """`spectral._extreme_eigenvalues`, the eigenvalue step of the stacked
    check, with the tags of `tagged_eigenvalues` held in place of a row's
    result: gate 4 calls it on the stack of its square roots (sqrt_n at
    position 2n), then on that of its membership tests (position 2n + 1)."""
    calls = itertools.count()

    def extremes(J, W):
        first = next(calls)
        out = []
        for n, ends in enumerate(EXTREMES(J, W)):
            tag = tags.get(2 * n + first)
            if tag == "negative":
                ends = ends[0] - 100.0, ends[1] - 100.0
            elif tag is not None:
                ends = planted(tag)
            out.append(ends)
        return out
    return extremes


@pytest.mark.parametrize("tags", [
    {1: "negative", 7: "negative", 10: "arithmetic", 13: "linalg"},
    {3: "negative", 9: "linalg", 12: "arithmetic"},
    {5: "arithmetic"},
    {4: "linalg"},
    {0: "negative"},
    {1: "negative", 39: "negative"},
])
def test_gate_4_failures_stop_where_the_sample_loop_stopped(tags,
                                                            monkeypatch):
    """Failures planted at the eigenvalue step of chosen square roots (even
    positions) and membership tests (odd positions) give the same report,
    or the same escaping LinAlgError, as the old loop.  The old check meets
    a tag in `reference_kernels._eigenvalues`, by the order of its calls;
    the stacked one meets it in `spectral._extreme_eigenvalues`, by the row
    of its stack."""
    J = recovered("qutrit:complex")
    calls = []
    monkeypatch.setattr(oracle, "_eigenvalues", tagged_eigenvalues({}, calls))
    oracle.verify_symmetric_cone(J, sample_count=20)
    assert len(calls) == 2 * 20
    monkeypatch.setattr(oracle, "_eigenvalues",
                        tagged_eigenvalues(tags, []))
    old = outcome(oracle.verify_symmetric_cone, J, 20)
    extremes = tagged_extremes(tags)
    for module in (jordan, spectral):
        monkeypatch.setattr(module, "_extreme_eigenvalues", extremes)
    new = outcome(verify_symmetric_cone, J, 20)
    if isinstance(old, Exception):
        assert_same(new, old)
    else:
        assert old.failures and not old.ok
        assert_sampled_report(new, old)


def lstsq_row(P, k):
    """The per-row fit the stacked one replaced."""
    return np.linalg.lstsq(P[:k].T, P[k], rcond=None)[0]


def roots_row(c):
    """The per-row np.roots the stacked companion eigvals replaced."""
    return np.roots(np.concatenate([[1.0], -c[::-1]]))


def assert_same_roots(new, old):
    """Bitwise equal roots; a stacked eigvals may return complex where the
    per-row one returns real, so the real and imaginary parts are compared
    apart."""
    if isinstance(old, Exception):
        assert_same(new, old)
        return
    assert_same(np.real(new), np.real(old))
    assert_same(np.imag(new), np.imag(old))


@st.composite
def fit_stacks(draw):
    """Jordan powers of mixed degrees: generic rows (their roots are mostly
    complex), rows whose fitted constant coefficient is exactly 0.0 (the
    unit orthogonal to the other powers), nearly rank-deficient rows (where
    the rcond cut decides) and rows with a NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    pows = rng.standard_normal((n, d + 1, d))
    degs = [draw(st.integers(1, d)) for _ in range(n)]
    for row, k in enumerate(degs):
        kind = draw(st.sampled_from(["generic", "zero-constant",
                                     "near-rank-deficient", "nan"]))
        if kind == "near-rank-deficient" and k > 1:
            pows[row, k - 1] = pows[row, 0] + 1e-15 * rng.standard_normal(d)
        elif kind == "zero-constant":
            pows[row, 0] = np.eye(d)[0]
            pows[row, 1:, 0] = 0.0
        elif kind == "nan":
            pows[row, draw(st.integers(0, k)), draw(st.integers(0, d - 1))] \
                = np.nan
    return pows, degs


@settings(max_examples=200, deadline=None)
@given(fit_stacks())
def test_stacked_fit_and_roots_are_the_per_row_calls(case):
    pows, degs = case
    fits = _minimal_polynomials(pows, degs)
    for P, k, c in zip(pows, degs, fits):
        assert_same(c, outcome(lstsq_row, P, k))
    for c, r in zip(fits, _roots_many(fits)):
        assert_same_roots(r, c if isinstance(c, Exception)
                          else outcome(roots_row, c))


@st.composite
def coefficient_stacks(draw):
    """Coefficient rows of mixed degrees, some with trailing zero
    coefficients (+0.0 or -0.0, up to all of them) and some not finite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        c = rng.standard_normal(draw(st.integers(1, 6)))
        c[:draw(st.integers(0, len(c)))] = draw(st.sampled_from([0.0, -0.0]))
        if draw(st.integers(0, 9)) == 0:
            c[draw(st.integers(0, len(c) - 1))] = draw(
                st.sampled_from([np.nan, np.inf]))
        rows.append(c)
    return rows


@settings(max_examples=200, deadline=None)
@given(coefficient_stacks())
def test_stacked_roots_are_np_roots(coeffs):
    for c, r in zip(coeffs, _roots_many(coeffs)):
        assert_same_roots(r, outcome(roots_row, c))


def test_the_fit_stacks_reach_every_case():
    """The cases the two tests above are meant to meet do occur."""
    rng = np.random.default_rng(1)
    pows = rng.standard_normal((4, 5, 4))
    pows[1, 0], pows[1, 1:, 0] = np.eye(4)[0], 0.0
    pows[2, 1, 2] = np.nan
    fits = _minimal_polynomials(pows, [3, 3, 2, 4])
    assert fits[1][0] == 0.0
    assert str(fits[2]) == "SVD did not converge in Linear Least Squares"
    roots = _roots_many(fits)
    assert len(roots[1]) == 3 and roots[1][-1] == 0.0
    assert any(np.abs(np.imag(r)).max() > 1e-3 for r in roots
               if not isinstance(r, Exception))


def perturbed(J, draw, exact):
    """J, or J with one entry of its tensor (and, half the time, its mirror)
    moved by a small amount: rational on an exact tensor, float otherwise."""
    d = J.dim
    T = [[list(cell) for cell in row] for row in J.tensor] if exact \
        else J.np_tensor.copy()
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        step = (Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
                if exact else draw(st.floats(1e-6, 1.0)))
        T[i][j][k] += step
        if draw(st.booleans()) and i != j:
            T[j][i][k] += step
    return JordanAlgebra("Recovered", d, J.unit, T, exact)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, len(CATALOG) - 1), seed=st.integers(0, 2**32 - 1),
       sample_count=st.integers(0, 60), exact=st.booleans(), data=st.data())
def test_gate_1_matches_the_fraction_residual(k, seed, sample_count, exact,
                                              data):
    """On the catalog and on perturbed tensors, which fail gate 1: an exact
    tensor gets the proof, which rejects whenever the old sample loop finds
    a nonzero `Fraction` residual and accepts only when it finds none, and
    its float twin gets the old report from the stacked float gate, as a
    float tensor does."""
    J = perturbed(CATALOG[k], data.draw, exact)
    new = verify_symmetric_cone(J, sample_count, seed)
    if exact:
        proof = J.axiom_proof()
        rng = np.random.default_rng(seed)
        worst = max(oracle._identity_residual(
            J, oracle._random_rational_vec(rng, J.dim),
            oracle._random_rational_vec(rng, J.dim))
            for _ in range(max(10, sample_count // 5)))
        assert new.identity_ok == proof.identity
        if proof.identity:
            assert worst == 0           # the proof accepts: the samples pass
        if worst:
            assert not proof.ok         # the samples fail: the proof rejects
        if not proof.ok:
            assert new.failures == [{
                "gate": "jordan-axioms",
                "identity_residual": proof.residual,
                "failing_triple": proof.triple}]
        J = float_twin(J)
        new = verify_symmetric_cone(J, sample_count, seed)
    assert_sampled_report(new, oracle.verify_symmetric_cone(J, sample_count,
                                                            seed))


@pytest.mark.parametrize("name", ["classical:5", "qutrit:complex"])
def test_the_check_makes_no_per_row_fit_roots_or_product(name, monkeypatch):
    """Gate 3 makes the one `_frames`, with one stacked `eigh` of its five
    generic samples' tridiagonal matrices; gate 4 makes one stacked
    `eigvalsh` per stack, its square roots' and then its cone test's,
    after gate 2's one on the trace form.  No least-squares fit, rank,
    `eigvals` or np.roots, and no `JordanAlgebra.product` (gate 1 runs on
    float stacks); the exact product of classical:5 is proved with none
    of them, and its float twin is sampled."""
    J = recovered(name)
    assert J.exact == (name == "classical:5")
    d, r = J.dim, generic_rank(J)
    calls, tridiagonals, solves = [0], [], []
    frames, eigh, eigvalsh = (spectral._frames, np.linalg.eigh,
                              np.linalg.eigvalsh)

    def count_frames(*args):
        calls[0] += 1
        return frames(*args)

    def count_tridiagonals(A, *args, **kwargs):
        tridiagonals.append(np.shape(A))
        return eigh(A, *args, **kwargs)

    def count_solves(A, *args, **kwargs):
        solves.append(np.shape(A))
        return eigvalsh(A, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("unexpected call")
    for module in (jordan, spectral):
        monkeypatch.setattr(module, "_frames", count_frames)
    monkeypatch.setattr(np.linalg, "eigh", count_tridiagonals)
    monkeypatch.setattr(np.linalg, "eigvalsh", count_solves)
    for module, name in ((_umath_linalg, "lstsq"), (np.linalg, "lstsq"),
                         (np.linalg, "matrix_rank"), (np.linalg, "eigvals"),
                         (np, "roots"), (JordanAlgebra, "product")):
        monkeypatch.setattr(module, name, refuse)
    if J.exact:
        J = sampled(J, verify_symmetric_cone(J))
        assert calls == [0] and not tridiagonals and not solves
    assert verify_symmetric_cone(J).ok
    assert calls == [1] and tridiagonals == [(5, r, r)]
    assert solves == [(d, d), (50, d, d), (50, d, d)]


def test_gate_3_fails_on_a_frame_that_is_not_one(monkeypatch):
    """Idempotents off by 1e-6 fail gate 3 with their residual, the largest
    |c∘c − c| or |Σ c − u| over the frames, and gate 4 does not run."""
    J = recovered("qutrit:complex")
    shifted = []

    def frames(J, W):
        shifted[:] = spectral._frames(J, W)
        for _, idems in shifted:
            idems[0] += 1e-6
        return shifted

    def refuse(*args):
        raise AssertionError("gate 4 ran")
    monkeypatch.setattr(jordan, "_frames", frames)
    monkeypatch.setattr(jordan, "_sqrt_many", refuse)
    rep = verify_symmetric_cone(J, sample_count=20)
    assert len(shifted) == 2
    residual = max(frame_residual(J, idems) for _, idems in shifted)
    assert 1e-7 < residual < 1e-5
    assert rep.failures == [{"gate": "self-duality-idempotents",
                             "residual": pytest.approx(residual, rel=1e-12)}]
    assert rep.self_duality_ok is False and not rep.ok
    assert rep.homogeneity_ok is None and rep.max_homogeneity_error is None
    assert rep.min_pairing is not None
