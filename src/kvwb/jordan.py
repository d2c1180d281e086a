"""Euclidean Jordan algebras: catalog, symmetric-cone checks, and recovery.

The catalog covers the classical families at desk scale — real symmetric,
complex hermitian, quaternionic hermitian (as doubled complex blocks), spin
factors, and direct sums — with exact rational product tensors, built from
integer (real, imaginary) basis arrays by a few stacked products.  The
recovery solver goes the other way: given a cone, a positive-definite
orthogonalizing form, a unit, and symmetry generators, it solves the linear
constraints a Jordan product must satisfy.  A unique solution is checked
against the Jordan identity and the acceptance gates; a family of solutions
is reported as such, and no product is picked from it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import (ONE, _eliminate, _integer_block, _integer_readout, _Kind,
                     _lowest, frac, is_positive_definite)
from .models import orbit
from .spectral import (_eigenvalues_many, _extreme_eigenvalues, _groups,
                       _idempotents, _sqrt_many, _value, generic_rank)


# ---------------------------------------------------------------------------
# the algebra type

_EXACT, _FLOAT = _Kind("exact"), _Kind("float")


def _rational(a) -> bool:
    """Whether every entry of a is a Python int or a `Fraction`."""
    return all(isinstance(v, (Fraction, int)) for v in a)


class JordanAlgebra:
    """Product tensor T[i][j] = coordinates of e_i ∘ e_j.  An exact algebra
    may be given it as integers over the least denominator, `scaled` =
    (D, D·tensor), and makes the `Fraction`s of `tensor` on first use."""

    def __init__(self, kind: str, dim: int, unit: list, tensor, exact: bool,
                 params: Optional[dict] = None, scaled: Optional[tuple] = None):
        self.kind, self.dim, self.unit, self.exact = kind, dim, unit, exact
        self.params = {} if params is None else params
        self._int_tensor, self._unit_float, self._axioms = scaled, None, None
        if tensor is not None:
            self.tensor = tensor

    @cached_property
    def tensor(self):
        return _EXACT.unscaled(self._int_tensor)

    @cached_property
    def np_tensor(self) -> np.ndarray:
        return np.asarray(self.tensor, dtype=float)

    def _scaled_tensor(self, K: _Kind) -> tuple:
        """`K.scaled` of the tensor, (s, s·tensor): integers over their
        common denominator s when exact, floats with s = 1.0; built once."""
        if not K.exact:
            return 1.0, self.np_tensor
        if self._int_tensor is None:
            self._int_tensor = K.scaled(self.tensor)
        return self._int_tensor

    def product(self, a, b):
        """a∘b: a list of `Fraction`s when the algebra, a and b are exact,
        a float array otherwise."""
        K = _EXACT if self.exact and _rational(a) and _rational(b) else _FLOAT
        s, T = self._scaled_tensor(K)
        (s_a, a), (s_b, b) = K.scaled(a), K.scaled(b)
        return K.unscaled((s_a * s_b * s, np.einsum("i,j,ijk->k", a, b, T)))

    def left_mult(self, a) -> np.ndarray:
        """Matrix of b -> a∘b (float)."""
        return np.einsum("i,ijk->kj", np.asarray(a, float), self.np_tensor)

    def unit_float(self) -> np.ndarray:
        """The unit as floats, built once and read-only: every caller gets
        the same array."""
        if self._unit_float is None:
            self._unit_float = np.asarray([float(v) for v in self.unit])
            self._unit_float.flags.writeable = False
        return self._unit_float

    def axiom_proof(self) -> "AxiomProof":
        """`prove_axioms` of the exact tensor, computed once: the recovery
        and the symmetric-cone check share it."""
        if self._axioms is None:
            self._axioms = prove_axioms(self)
        return self._axioms

    @cached_property
    def trace_form_pd(self) -> bool:
        """Whether the exact trace form is positive definite, decided once on
        integers: the recovery and the symmetric-cone check share it."""
        return is_positive_definite(_trace_gram(self, _EXACT)[1].tolist())

    @cached_property
    def trace_gram_float(self) -> np.ndarray:
        """`trace_form_gram` on floats, built once and read-only."""
        G = _FLOAT.unscaled(_trace_gram(self, _FLOAT))
        G.flags.writeable = False
        return G

    @cached_property
    def trace_cholesky(self) -> Optional[np.ndarray]:
        """Lower R with R Rᵀ = `trace_gram_float`, read-only; None when that
        Gram is not positive definite."""
        try:
            R = np.linalg.cholesky(self.trace_gram_float)
        except np.linalg.LinAlgError:
            return None
        R.flags.writeable = False
        return R


def jordan_product(J: JordanAlgebra, a, b):
    return J.product(a, b)


def _trace_gram(J: JordanAlgebra, K: _Kind) -> tuple:
    """The pair (s, s·G) of the symmetrized trace-form Gram G, from the
    tensor's pair of the kind."""
    s, T = J._scaled_tensor(K)
    G = np.einsum("ijm,m->ij", T, np.einsum("mkk->m", T))
    return 2 * s * s, G + G.T


def trace_form_gram(J: JordanAlgebra):
    """Gram matrix of (a,b) -> tr L_{a∘b} on the coordinate basis,
    symmetrized: nested `Fraction` lists on an exact algebra, a float array
    otherwise."""
    K = _EXACT if J.exact else _FLOAT
    return K.unscaled(_trace_gram(J, K))


def _positive_definite(G, floor: float) -> bool:
    """Whether the symmetric matrix G is positive definite: exactly by
    `linalg.is_positive_definite` on rationals, by a least eigenvalue above
    `floor` on floats."""
    G = np.asarray(G)
    if G.dtype == object:
        return is_positive_definite(G)
    return bool(np.linalg.eigvalsh(G).min() > floor)


# ---------------------------------------------------------------------------
# the Jordan axioms, proved on the basis of an exact tensor

@dataclass(frozen=True)
class AxiomProof:
    """Commutativity, the unit law and the Jordan identity of an exact
    tensor, each decided exactly; the identity only on a commutative
    tensor (`identity` and `residual` are None otherwise).  `triple` is the
    certificate of a failed identity: the first basis triple (i, j, k), in
    lexicographic order, on which its linearization is not zero; `residual`
    is the largest entry of that operator (0 when the identity holds)."""

    commutative: bool
    unit: bool
    triple: Optional[tuple] = None
    residual: Optional[Fraction] = None

    @property
    def identity(self) -> Optional[bool]:
        return self.triple is None if self.commutative else None

    @property
    def ok(self) -> bool:
        return bool(self.identity) and self.unit


def _linearized_identity(T: np.ndarray) -> np.ndarray:
    """[L_a, L_{b∘c}] + [L_b, L_{c∘a}] + [L_c, L_{a∘b}] on every basis
    triple (a, b, c) = (e_i, e_j, e_k), shaped (i, j, k, row, column), for
    the product with tensor T (L_i[p, q] = T[i, q, p])."""
    L = T.transpose(0, 2, 1)
    M = np.einsum("jkm,mpq->jkpq", T, L)                  # L_{e_j∘e_k}
    C = (np.einsum("ipr,jkrq->ijkpq", L, M)
         - np.einsum("jkpr,irq->ijkpq", M, L))
    return C + C.transpose(1, 2, 0, 3, 4) + C.transpose(2, 0, 1, 3, 4)


def prove_axioms(J: JordanAlgebra) -> AxiomProof:
    """Decide the Jordan axioms of an exact tensor on its basis.

    Over a field of characteristic 0, a commutative product satisfies the
    Jordan identity [L_x, L_{x∘x}] = 0 exactly when its full linearization
    in x vanishes, and that is trilinear and symmetric in (a, b, c), so the
    basis triples decide it.  A tensor that is not commutative is not a
    Jordan product, and its identity is left undecided.  The work is on the
    integer tensor T = D·tensor of `JordanAlgebra._scaled_tensor`, where
    each operator is D³ times the rational one and its entries are at most
    6·d²·max|T|³: int64 below 2⁶², Python ints above.
    """
    D, T = J._scaled_tensor(_EXACT)
    d = J.dim
    s_u, u = _integer_block(J.unit)
    commutative = bool((T == T.transpose(1, 0, 2)).all())
    unit = bool((np.einsum("i,ijk->jk", u, T)
                 == s_u * D * np.eye(d, dtype=object)).all())
    if not commutative:
        return AxiomProof(False, unit)
    top = max((abs(int(x)) for x in T.flat), default=0)
    if 6 * d * d * top ** 3 < 2 ** 62:
        T = T.astype(np.int64)
    E = _linearized_identity(T).reshape(d ** 3, d * d)
    bad = np.flatnonzero((E != 0).any(axis=1))
    if not bad.size:
        return AxiomProof(True, unit, None, Fraction(0))
    triple = tuple(map(int, np.unravel_index(bad[0], (d, d, d))))
    return AxiomProof(True, unit, triple,
                      Fraction(int(np.abs(E[bad[0]]).max()), D ** 3))


# ---------------------------------------------------------------------------
# catalog constructors

def _exact_algebra(kind: str, unit, tensor, **params) -> JordanAlgebra:
    """An exact algebra from integer or rational arrays, its unit and
    tensor kept as nested `Fraction` lists."""
    return JordanAlgebra(kind, len(unit), _EXACT.native(_EXACT.array(unit)),
                         _EXACT.native(_EXACT.array(tensor)), True, params)


def _matrix_kind(kind: str, n: int, basis: np.ndarray, labels: list
                 ) -> JordanAlgebra:
    """Common path: exact tensor from symmetrized products over a basis
    orthogonal under the real Hilbert-Schmidt pairing Re tr(A† B), the sum
    of the products of the real and of the imaginary parts.  `basis` holds
    the (real, imaginary) integer parts of each element, shaped
    (d, 2, m, m)."""
    d, m = len(basis), basis.shape[-1]
    R, I = basis[:, 0], basis[:, 1]
    P = np.stack([R[:, None] @ R - I[:, None] @ I,      # e_i e_j, (re, im)
                  R[:, None] @ I + I[:, None] @ R], axis=2)
    flat = basis.reshape(d, -1)
    norms = (flat * flat).sum(axis=1).astype(object)
    ident = np.stack([np.eye(m, dtype=int), np.zeros((m, m), dtype=int)])
    tensor = _EXACT.array((P + P.swapaxes(0, 1)).reshape(d, d, -1) @ flat.T)
    return _exact_algebra(kind, _EXACT.array(flat @ ident.ravel()) / norms,
                          tensor / (2 * norms),
                          n=n, basis=basis, labels=labels)


#: The off-diagonal units q of each family as (real, imaginary) integer
#: blocks; quaternions are doubled into 2 x 2 complex blocks.
_UNITS = {
    "RealSym": [("S", [[[1]], [[0]]])],
    "ComplexHerm": [("S", [[[1]], [[0]]]), ("A", [[[0]], [[1]]])],
    "QuatHerm": [("Q1", [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]),
                 ("Qi", [[[0, 0], [0, 0]], [[1, 0], [0, -1]]]),
                 ("Qj", [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]]),
                 ("Qk", [[[0, 0], [0, 0]], [[0, 1], [1, 0]]])],
}


def _hermitian(family: str, n: int) -> JordanAlgebra:
    """Hermitian n x n matrices over the family's field: the basis is E_ii
    (the identity block at (i, i)), then, for each pair i < j and unit q,
    q at block (i, j) and its conjugate transpose at block (j, i)."""
    units = [(name, np.array(q)) for name, q in _UNITS[family]]
    b = units[0][1].shape[-1]
    blocks = [slice(b * i, b * i + b) for i in range(n)]
    basis, labels = [], []
    for i in range(n):
        X = np.zeros((2, b * n, b * n), dtype=int)
        X[0, blocks[i], blocks[i]] = np.eye(b, dtype=int)
        basis.append(X)
        labels.append(f"E{i}{i}")
    for i, j in itertools.combinations(range(n), 2):
        for name, q in units:
            X = np.zeros((2, b * n, b * n), dtype=int)
            X[:, blocks[i], blocks[j]] = q
            X[:, blocks[j], blocks[i]] = q.swapaxes(1, 2) * [[[1]], [[-1]]]
            basis.append(X)
            labels.append(f"{name}{i}{j}")
    return _matrix_kind(f"{family}({n})", n, np.array(basis), labels)


def real_symmetric(n: int) -> JordanAlgebra:
    """Symmetric n x n real matrices with the symmetrized product."""
    return _hermitian("RealSym", n)


def complex_hermitian(n: int) -> JordanAlgebra:
    """Hermitian n x n complex matrices with the symmetrized product."""
    return _hermitian("ComplexHerm", n)


def quaternionic_hermitian(n: int) -> JordanAlgebra:
    """Hermitian n x n quaternionic matrices, doubled into complex blocks."""
    return _hermitian("QuatHerm", n)


def spin_factor(n: int) -> JordanAlgebra:
    """R^n + R with (x,s)∘(y,t) = (t x + s y, <x,y> + s t); unit (0,1)."""
    d, i = n + 1, np.arange(n)
    T = np.zeros((d, d, d), dtype=int)
    T[i, i, n] = T[n, i, i] = T[i, n, i] = T[n, n, n] = 1
    return _exact_algebra(f"SpinFactor({n})", np.eye(d, dtype=int)[n], T, n=n)


def real_line() -> JordanAlgebra:
    return JordanAlgebra("RealSym(1)", 1, [ONE], [[[ONE]]], True,
                         params={"n": 1})


def direct_sum(parts: list[JordanAlgebra]) -> JordanAlgebra:
    if not all(p.exact for p in parts):
        raise ValueError("direct sums are built from exact catalog algebras")
    *offs, d = itertools.accumulate((p.dim for p in parts), initial=0)
    T, unit = _EXACT.zeros((d, d, d)), _EXACT.zeros(d)
    for p, o in zip(parts, offs):
        s = slice(o, o + p.dim)
        T[s, s, s], unit[s] = _EXACT.array(p.tensor), _EXACT.array(p.unit)
    kind = "DirectSum(" + ", ".join(p.kind for p in parts) + ")"
    return _exact_algebra(kind, unit, T, parts=parts, offsets=offs)


def classical_algebra(n: int) -> JordanAlgebra:
    """R^n with the componentwise product."""
    return direct_sum([real_line() for _ in range(n)])


CATALOG = {
    "RealSym": real_symmetric,
    "ComplexHerm": complex_hermitian,
    "QuatHerm": quaternionic_hermitian,
    "SpinFactor": spin_factor,
}


# ---------------------------------------------------------------------------
# cone of squares membership

def cone_of_squares_membership(J: JordanAlgebra, a, tol: float = 1e-9) -> bool:
    if not _has_cone_formula(J):
        return _value(_in_cone_many(J, np.asarray(a, dtype=float)[None], tol)[0])
    if J.kind.startswith("DirectSum"):
        parts, offs = J.params["parts"], J.params["offsets"]
        return all(cone_of_squares_membership(
            p, list(a)[o:o + p.dim], tol) for p, o in zip(parts, offs))
    if J.kind.startswith("SpinFactor"):
        n = J.params["n"]
        x, s = list(a)[:n], a[n]
        if _rational(a):
            return frac(s) >= 0 and frac(s) ** 2 >= sum(frac(v) ** 2 for v in x)
        return float(s) >= -tol and float(s) ** 2 + tol >= sum(
            float(v) ** 2 for v in x)
    if J.kind == "RealSym(1)":
        return (frac(a[0]) >= 0 if isinstance(a[0], (Fraction, int))
                else float(a[0]) >= -tol)
    M = _reconstruct(J, a)
    return float(np.linalg.eigvalsh(M).min()) >= -tol


def _has_cone_formula(J: JordanAlgebra) -> bool:
    """Whether J's kind describes its cone of squares directly.  Without
    one (e.g. a recovered product) membership falls back to the spectral
    test: an element lies in the closed cone of squares exactly when its
    eigenvalues are nonnegative."""
    return (J.kind.startswith(("DirectSum", "SpinFactor"))
            or J.kind == "RealSym(1)" or "basis" in J.params)


def _in_cone_many(J: JordanAlgebra, A: np.ndarray, tol: float) -> list:
    """`cone_of_squares_membership` of each row of A, or the error the
    spectral test (least eigenvalue >= -max(tol, 1e-7)) raised on it."""
    if _has_cone_formula(J):
        return [cone_of_squares_membership(J, a, tol) for a in A]
    return [e if isinstance(e, Exception) else e[0] >= -max(tol, 1e-7)
            for e in _extreme_eigenvalues(J, A)]


def _reconstruct(J: JordanAlgebra, a) -> np.ndarray:
    basis = J.params["basis"]
    mats = J.params.setdefault("np_basis", basis[:, 0] + 1j * basis[:, 1])
    M = sum(float(c) * B for c, B in zip(a, mats))
    return (M + M.conj().T) / 2


# ---------------------------------------------------------------------------
# forward verification: is the cone of squares a symmetric cone?

@dataclass
class SymmetricConeReport:
    ok: bool
    identity_ok: Optional[bool] = None
    commutative_ok: Optional[bool] = None
    unit_ok: Optional[bool] = None
    trace_form_pd: Optional[bool] = None
    self_duality_ok: Optional[bool] = None
    homogeneity_ok: Optional[bool] = None
    max_homogeneity_error: Optional[float] = None
    min_pairing: Optional[float] = None
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seed: int = 42


def _jordan_defects(T: np.ndarray, A: np.ndarray, B: np.ndarray
                    ) -> np.ndarray:
    """(a²)∘(b∘a) − (a²∘b)∘a for each row a of A and row b of B, under the
    float product of the tensor T."""
    def prod(x, y):
        return np.einsum("ni,nj,ijk->nk", x, y, T)
    A2 = prod(A, A)
    return prod(A2, prod(B, A)) - prod(prod(A2, B), A)


#: Why gates 3 and 4 hold on an exact algebra that passes gates 1 and 2.
KV_NOTE = ("self-duality and homogeneity follow from the proved axioms and "
           "the positive definite trace form: the algebra is Euclidean, so "
           "its cone of squares is a symmetric cone (Koecher-Vinberg; "
           "Faraut & Korányi, Analysis on Symmetric Cones, ch. III)")


def verify_symmetric_cone(J: JordanAlgebra, sample_count: int = 50,
                          seed: int = 42, tol: float = 1e-9
                          ) -> SymmetricConeReport:
    """Gate order: Jordan axioms, formal reality, self-duality, homogeneity.
    A failed gate stops the later checks.

    On an exact tensor the gates are proofs and draw nothing: gate 1 is
    `JordanAlgebra.axiom_proof`, gate 2 `JordanAlgebra.trace_form_pd`,
    and gates 3 and 4 then hold by the theorem of `KV_NOTE`, so their
    sampled minima stay None.  On a float tensor every gate samples from
    one seeded rng: gate 1 tests (a²)∘(b∘a) = (a²∘b)∘a on stacked pairs,
    and gates 3 and 4 are `_sampled_cone_gates`.
    """
    rep = SymmetricConeReport(ok=False, seed=seed)
    d = J.dim

    # gate 1: axioms
    if J.exact:
        proof = J.axiom_proof()
        comm, unit_ok, ident = proof.commutative, proof.unit, proof.identity
    else:
        rng = np.random.default_rng(seed)
        T = J.np_tensor
        comm = float(np.abs(T - T.transpose(1, 0, 2)).max()) <= tol
        u = J.unit_float()
        unit_ok = float(np.abs(J.left_mult(u) - np.eye(d)).max()) <= 1e-8
        # one draw of a_0, b_0, a_1, ..., as a loop draws them, copied to
        # the contiguous rows the stacked products had
        A, B = rng.standard_normal((max(10, sample_count // 5), 2, d)
                                   ).swapaxes(0, 1).copy()
        worst = max(map(float, np.abs(_jordan_defects(T, A, B)).max(axis=1)))
        ident = worst <= 1e-8
    rep.commutative_ok, rep.unit_ok, rep.identity_ok = comm, unit_ok, ident
    if not (comm and unit_ok and ident):
        failure = {"gate": "jordan-axioms"}
        if J.exact:
            failure.update(identity_residual=proof.residual,
                           failing_triple=proof.triple)
        else:
            failure.update(identity_residual=float(worst))
        rep.failures.append(failure)
        return rep

    # gate 2: formal reality via the trace form
    rep.trace_form_pd = (J.trace_form_pd if J.exact
                         else _positive_definite(J.trace_gram_float, tol))
    if not rep.trace_form_pd:
        rep.failures.append({"gate": "trace-form-pd"})
        return rep

    if J.exact:
        rep.self_duality_ok = rep.homogeneity_ok = rep.ok = True
        rep.notes.append(KV_NOTE)
        return rep
    _sampled_cone_gates(J, rep, rng, sample_count, tol)
    return rep


def _sampled_cone_gates(J: JordanAlgebra, rep: SymmetricConeReport, rng,
                        sample_count: int, tol: float):
    """Gates 3 and 4 on float samples, filling `rep`.

    Every gate draws all its samples first, in the order a sample loop
    would, and then works on the stack with the kernels of
    `kvwb.spectral`: gate 3's idempotents need whole minimal polynomials,
    gate 4 only extreme eigenvalues (`spectral._extreme_eigenvalues`).
    Gate 4 then replays the samples in order, so the report is the sample
    loop's: the first error of a square root or of a spectral membership
    test ends the gate with the cone-preservation failures found before
    it, and an error that is not an ArithmeticError escapes where the loop
    raised it.
    """
    d, Gf = J.dim, J.trace_gram_float

    # gate 3: self-duality samples — squares pair non-negatively, and the
    # spectral idempotents of random elements pair non-negatively too
    T, u = J.np_tensor, J.unit_float()
    X, Y = rng.standard_normal((sample_count, 2, d)).swapaxes(0, 1).copy()
    X2 = np.einsum("ni,nj,ijk->nk", X, X, T)
    Y2 = np.einsum("ni,nj,ijk->nk", Y, Y, T)
    Z = X2[::10] + 0.1 * u
    spectra = [_value(s) for s in _eigenvalues_many(J, Z)]
    pairings = {}                        # sample -> its idempotents' pairings
    for r, at in _groups(spectra).items():
        F = _idempotents(J, Z[at], np.array([spectra[n] for n in at]))
        p, q = np.triu_indices(r, 1)            # the pairs p < q in order
        # p @ Gf @ q: one vector-matrix, then one vector-vector product
        pairings.update(zip((10 * n for n in at), (
            F[:, p, None] @ Gf @ F[:, q, :, None])[..., 0, 0].tolist()))
    # the minimum in the sample loop's order, which decides between equal
    # values such as 0.0 and -0.0
    squares = (X2[:, None] @ Gf @ Y2[..., None])[:, 0, 0].tolist()
    rep.min_pairing = min_pair = min(
        [np.inf] + [v for n, x in enumerate(squares)
                    for v in [x] + pairings.get(n, [])])
    rep.self_duality_ok = min_pair >= -tol
    if not rep.self_duality_ok:
        rep.failures.append({"gate": "self-duality", "min_pairing": min_pair})
        return

    # gate 4: homogeneity witnesses P(w^{1/2}) e = w on random interior w,
    # and P(w^{1/2}) keeps squares in the cone.  The samples are stacked;
    # the replay below stops where the sample loop stopped.
    shift = np.empty(sample_count)
    for n in range(sample_count):
        X[n], shift[n], Y[n] = (rng.standard_normal(d), rng.random(),
                                rng.standard_normal(d))
    W = np.einsum("ni,nj,ijk->nk", X, X, T) + (0.2 + shift)[:, None] * u
    roots = _sqrt_many(J, W)
    stop = next((n for n, s in enumerate(roots) if isinstance(s, Exception)),
                sample_count)
    S = np.array(roots[:stop]).reshape(stop, d)
    La = np.einsum("ni,ijk->nkj", S, T)
    P = 2 * (La @ La) - np.einsum(
        "ni,ijk->nkj", np.einsum("ni,nj,ijk->nk", S, S, T), T)
    got = P @ u
    Y2 = np.einsum("ni,nj,ijk->nk", Y[:stop], Y[:stop], T)
    inside = _in_cone_many(J, (P @ Y2[..., None])[..., 0], 1e-7)
    error = roots[stop] if stop < sample_count else None
    first = next((n for n, x in enumerate(inside) if isinstance(x, Exception)),
                 stop)
    if first < stop:
        error = inside[first]
    rep.failures += [{"gate": "homogeneity-cone-preservation"}
                     for x in inside[:first] if not x]
    if error is not None:
        if not isinstance(error, ArithmeticError):
            raise error
        rep.failures.append({"gate": "homogeneity-spectral",
                             "error": str(error)})
        rep.homogeneity_ok = False
        return
    # max, like the sample loop's running max, passes over a NaN
    worst_h = max([0.0] + np.abs(got - W).max(axis=1).tolist())
    rep.max_homogeneity_error = worst_h
    rep.homogeneity_ok = worst_h <= 1e-9 and not any(
        f.get("gate") == "homogeneity-cone-preservation"
        for f in rep.failures)
    rep.ok = bool(rep.homogeneity_ok)


# ---------------------------------------------------------------------------
# recovery: from (cone, form, unit, symmetries) back to the product

@dataclass
class RecoveryProblem:
    """Recovery inputs of one kind, each X (or each of a list) as the pair
    (s, s·X) of `_Kind.scaled`: integers when exact.  An exact problem
    also holds its effect space's `outcome_frame` and the outcome
    permutation of each action.  The squares gate reads `extreme_rays`
    (the cone's extreme rays) on an exact problem and `cone_membership` (a
    stack of rows to one verdict per row) on a float one."""

    dim: int
    B: tuple                             # PD orthogonalizing form
    u: tuple
    cone_generators: list
    actions: list = field(default_factory=list)
    outcome_vectors: list = field(default_factory=list)
    cone_membership: Optional[Callable] = None
    extreme_rays: list = field(default_factory=list)
    frame: Optional[tuple] = None
    permutations: list = field(default_factory=list)

    @property
    def exact(self) -> bool:
        """Integer inputs: the linear stage runs exactly."""
        return isinstance(self.B[0], int)


@dataclass
class RecoveryResult:
    """`residual` is None when no tensor was fitted; on an exact problem it
    is the `AxiomProof` residual, a `Fraction`.  `seeds_agree` is True when
    the linear stage pins the product and None when it does not; reports
    print it under that name.  `frame` is the Jordan frame the exact
    squares gate found, None when that gate did not run or failed."""

    algebra: Optional[JordanAlgebra]
    linear_solution_dim: int
    residual: Optional[float | Fraction]
    seeds_agree: Optional[bool]
    gates: dict
    notes: list = field(default_factory=list)
    seed: int = 42
    frame: Optional[list] = None


@cache
def _triple_index(d: int) -> np.ndarray:
    """idx[i, j, k] (read-only, made once per d): the column of S[i, j, k],
    one per sorted triple i ≤ j ≤ k in lexicographic order, symmetric."""
    trip = np.array(list(itertools.combinations_with_replacement(range(d), 3)),
                    dtype=np.intp).reshape(-1, 3)
    idx = np.empty((d, d, d), dtype=np.intp)
    for perm in itertools.permutations(range(3)):
        idx[tuple(trip[:, perm].T)] = np.arange(len(trip))
    idx.flags.writeable = False
    return idx


def _solve_float(A: np.ndarray, b: np.ndarray, floor: float = 0.0):
    """Least-squares solution and null basis (columns) of A t = b; (None,
    None) when max|A t - b| > 1e-7.  Rank rule: s > 1e-9·max(s[0], floor),
    `floor` the size of rows the caller solved by substitution.  If the
    eigenvalues of G = AᵀA have lam[0] > 1e-8·max(lam[-1], floor²), t
    solves G t = Aᵀb and is refined once: the corrected semi-normal
    equations, as accurate as an SVD solve for κ(A) up to ~1/√ε (Björck,
    *Numerical Methods for Least Squares Problems*, 1996, §6.6).  Rounding
    moves an eigenvalue by ≲ (m + n)·n·ε·lam[-1] < 1e-9·lam[-1] even on the
    4080 × 680 rows of a 4-level sample, so a pass proves full rank by the
    rule.  Else one SVD of A (full if A is wide) gives the rank, the
    solution and the null basis (the rest of `vt`; all of it with no rows)."""
    G = A.T @ A
    lam = np.linalg.eigvalsh(G)
    if lam.size and lam[0] > 1e-8 * max(lam[-1], floor * floor):
        t = np.linalg.solve(G, A.T @ b)
        t += np.linalg.solve(G, A.T @ (b - A @ t))
        N = np.zeros((A.shape[1], 0))
    else:
        u, s, vt = np.linalg.svd(A, full_matrices=len(A) < A.shape[1])
        rank = int((s > 1e-9 * np.max(s, initial=floor)).sum())
        t = vt[:rank].T @ (u[:, :rank].T @ b / s[:rank])
        N = vt[rank:].T
    if float(np.abs(A @ t - b).max(initial=0.0)) > 1e-7:
        return None, None
    return t, N


def _triple_orbits(n: int, perms: list) -> tuple[np.ndarray, int]:
    """(orbit, k): orbit[a, b, c], symmetric, is the column of the orbit of
    the multiset {a, b, c} of outcomes under the permutations, the k orbits
    numbered by their least sorted triple (`models.orbit`, as the conjugate
    LP numbers its unknowns)."""
    idx = _triple_index(n)
    trip = np.array(list(itertools.combinations_with_replacement(range(n), 3)),
                    dtype=np.intp).reshape(-1, 3)
    images = [idx[tuple(np.asarray(g)[trip].T)].tolist() for g in perms]
    col, k = [-1] * len(trip), 0
    for j in range(len(trip)):
        if col[j] < 0:
            for t in orbit(j, list.__getitem__, images):
                col[t] = k
            k += 1
    return np.array(col)[idx], k


def _orbit_rows(p: RecoveryProblem, orbit3: np.ndarray, k: int) -> list:
    """The distinct rows, as `_eliminate` takes them, on v(a, b, c) =
    S(g_a, g_b, g_c), one column per orbit of `orbit3`.  With x = Σ_f c_f
    g_f on the frame outcomes (c = Qx, Q the frame's inverse), they are:
    per pair b ≤ c of outcomes, Σ_f (c_a)_f v(f, b, c) = v(a, b, c) for
    each outcome a off the frame (consistency) and Σ_f (c_u)_f v(f, b, c) =
    B(g_b, g_c) (the unit law); per idempotent g and outcome c,
    Σ_ff' (c_g)_f (c_g)_f' v(f, f', c) = B(g, g_c).  Each is scaled to
    integers by the scales it reads."""
    (s_B, B), (s_u, u) = p.B, p.u
    at, (s_q, Q), (s_v, V) = p.frame
    n, d = V.shape
    iu, ju = np.triu_indices(n)
    free = np.delete(np.arange(n), at)
    W = np.zeros((len(free) + 1, n), dtype=object)   # slot-one coefficients
    W[:-1, at] = -(V[free] @ Q.T)
    W[np.arange(len(free)), free] = s_q * s_v
    W[-1, at] = Q @ u * (s_v * s_v * s_B)
    G = np.array([g for _, g in p.outcome_vectors], dtype=object).reshape(-1, d)
    C = np.zeros((len(G), n), dtype=object)
    C[:, at] = G @ Q.T
    CC = C[:, :, None] * C[:, None, :] * (s_B * s_v)
    (r, a), (i, a1, a2) = np.nonzero(W), np.nonzero(CC)
    m = len(W) * len(iu)
    A = np.zeros((m + len(G) * n, k + 1), dtype=object)
    np.add.at(A, (r[:, None] * len(iu) + np.arange(len(iu)),
                  orbit3[a[:, None], iu, ju]), W[r, a][:, None])
    np.add.at(A, (m + i[:, None] * n + np.arange(n), orbit3[a1, a2]),
              CC[i, a1, a2][:, None])
    A[m - len(iu):m, k] = (V @ B @ V.T)[iu, ju] * (s_q * s_u)
    s_g = np.array([s for s, _ in p.outcome_vectors], dtype=object)
    A[m:, k] = (G @ B @ V.T * (s_q * s_q * s_g[:, None])).ravel()
    return [{j: x for j, x in enumerate(row) if x}
            for row in dict.fromkeys(map(tuple, A.tolist()))]


def _orbit_stage(p: RecoveryProblem) -> Optional[tuple]:
    """`_linear_stage` of an exact problem: one unknown per orbit of outcome
    triples, and no equivariance rows.

    The outcome vectors g_a span V, so a trilinear S is fixed by v(a, b, c)
    = S(g_a, g_b, g_c), and the symmetric v that some S gives are those
    that meet the consistency rows; then S meets the unit law and
    idempotence exactly when v meets their rows.  B is invariant, MᵀBM = B
    (checked here), so BᵀMB⁻ᵀ = M⁻ᵀ and the equivariance rows on the
    cubic form say S(Mx, My, Mz) = S(x, y, z); M maps g_a to g_π(a), so
    that is v constant on the orbits of the permutations π.  The two
    systems have one solution set: a unique product is the same rational
    tensor, and a family has the same dimension.  An asymmetric B admits
    no solution, as B(x, y) = S(u, x, y).  S is read on the frame and
    lifted, T = S_f ×₁ Q ×₂ Q ×₃ (Q B⁻¹), so T[i, j, :] = B⁻ᵀ S[i, j, :],
    one product per nonzero of each factor (few on classical frames)."""
    _, B = p.B
    if len(p.permutations) != len(p.actions):
        raise ValueError("an exact recovery problem needs the outcome "
                         "permutation of each action")
    if any((M.T @ B @ M != B * (s * s)).any() for s, M in p.actions):
        raise ValueError("the recovery form is not invariant")
    if (B != B.T).any():
        return None
    at, (s_q, Q), (_, V) = p.frame
    orbit3, k = _triple_orbits(len(V), p.permutations)
    X = _integer_readout(_eliminate(_orbit_rows(p, orbit3, k), k), k)
    if X is None:
        return None
    (s_X, X), (s_Bi, Bin) = X, _EXACT.inverse(p.B)
    T = X[orbit3[np.ix_(at, at, at)]]
    for M in (Q, Q, Q @ Bin):
        out = np.zeros(T.shape, dtype=object)
        for f, i in zip(*np.nonzero(M)):
            out[i] += M[f, i] * T[f]
        T = np.moveaxis(out, 0, 2)
    return _lowest(s_X * s_q ** 3 * s_Bi, np.ascontiguousarray(T))


def _complement_stage(p: RecoveryProblem) -> Optional[tuple]:
    """`_linear_stage` of a float problem, on the unit's complement.  With
    B = L·Lᵀ and H the Householder reflection of `qr` sending Lᵀu to ν·e₀
    (ν = |u|_B, first row's sign set), z = P·x, P = H·Lᵀ, makes B the dot
    product and the unit law S(u, x, y) = B(x, y) a substitution,
    S_z(e₀, y, z) = y·z/ν; the unknowns are S_z on 1..d-1 (S'), one per
    sorted triple.  An action with MᵀBM = B and Mu = u (checked) is
    P·M·P⁻¹ = diag(1, R), R orthogonal, so equivariance, M_z T_z(y, z) =
    T_z(M_z y, M_z z) with T_z = S_z, holds at y = e₀ (both sides M_z z/ν)
    and at component 0 (both y·z/ν); the rest is Σ_m R[k, m] S'[i, j, m] =
    Σ_ab R[a, i] R[b, j] S'[a, b, k], row (i ≤ j, k).  Idempotence of g_z =
    (γ, h) is Σ_ab h_a h_b S'[a, b, k] = h_k (1 - 2γ/ν) at k ≥ 1 and
    B(g, g) = B(u, g), free of S', at 0.  The rank cut counts the
    substituted rows, of size ν.  The solutions are lifted, T = S_z ×₁ P ×₂
    P ×₃ (P B⁻¹); the particular one must meet every row of the cubic form,
    unit law included, within 1e-7.  An asymmetric B has no solution."""
    (_, B), (_, u) = p.B, p.u
    if not _FLOAT.is_zero(B - B.T):
        return None
    if not all(_FLOAT.is_zero(M.T @ B @ M - B) for _, M in p.actions):
        raise ValueError("the recovery form is not invariant")
    if not all(_FLOAT.is_zero(M @ u - u) for _, M in p.actions):
        raise ValueError("a recovery action moves the unit")
    d, n = p.dim, p.dim - 1
    L = np.linalg.cholesky(B)
    H, top = np.linalg.qr((u @ L)[:, None], mode="complete")  # Householder
    nu, P = abs(top[0, 0]), H.T @ L.T
    P[0] *= np.sign(top[0, 0])                            # P·u = ν·e₀
    Ms = np.array([M for _, M in p.actions]).reshape(-1, d, d)
    R = (P @ Ms @ np.linalg.inv(P))[:, 1:, 1:]
    h = np.array([P @ g for _, g in p.outcome_vectors]).reshape(-1, d)
    idx, (iu, ju) = _triple_index(n), np.triu_indices(n)
    C, c = idx[iu, ju], n * (n + 1) * (n + 2) // 6   # C[q, k]: S'[a_q, b_q, k]
    # C is one to one in q and in k: the rows are scattered, not summed
    ia, ip, ik, _ = np.ix_(*map(np.arange, (len(R), len(iu), n, n)))
    A = np.zeros((len(R), len(iu), n, c))
    A[ia, ip, ik, C[:, None, :]] = R[:, None]
    Ri, Rj = R[:, :, iu], R[:, :, ju]                # R[a, i_p], R[b, j_p]
    W = Ri[:, iu] * Rj[:, ju] + Ri[:, ju] * Rj[:, iu] * (iu != ju)[:, None]
    A[ia, ip, ik, C.T] -= W.swapaxes(1, 2)[:, :, None]
    Ag = np.zeros((len(h), n, c))
    Ag[np.arange(len(h))[:, None, None], np.arange(n)[:, None], C.T] = (
        h[:, 1 + iu] * h[:, 1 + ju] * np.where(iu != ju, 2.0, 1.0))[:, None]
    A = np.concatenate([A.reshape(-1, c), Ag.reshape(-1, c)])
    b = np.zeros(len(A))
    b[len(A) - len(h) * n:] = (h[:, 1:] * (1 - 2 * h[:, :1] / nu)).ravel()
    t, N = _solve_float(A, b, nu)
    if t is None:
        return None
    S = np.zeros((d, d, d, N.shape[1] + 1))
    S[1:, 1:, 1:] = np.column_stack([t, N])[idx]
    S[0, :, :, 0] = S[:, 0, :, 0] = S[:, :, 0, 0] = np.eye(d) / nu
    for M in (P, P, P @ _FLOAT.inverse(p.B)[1]):
        S = np.moveaxis((M.T @ S.reshape(d, -1)).reshape(S.shape), 0, 2)
    T, S0 = S, S[..., 0] @ B
    rows = [np.einsum("i,ijk->jk", u, S0) - B] + [
        T[..., 0] @ M.T @ B - np.einsum("ai,bj,abk->ijk", M, M, S0)
        for _, M in p.actions] + [np.einsum("i,j,ijk->k", g, g, S0) - B.T @ g
                                  for _, g in p.outcome_vectors]
    return None if max(np.abs(e).max() for e in rows) > 1e-7 else (1.0, T)


def _linear_stage(p: RecoveryProblem) -> Optional[tuple]:
    """The recovery rows' solutions lifted to product tensors, T[i, j, :] =
    B⁻ᵀ S[i, j, :], stacked on a last axis (one solution, a null basis) as
    the pair (s, s·T): least-denominator integers (`_orbit_stage`) or
    floats (`_complement_stage`); None when the rows are inconsistent."""
    return _orbit_stage(p) if p.exact else _complement_stage(p)


def recover_jordan_product(p: RecoveryProblem, seed: int = 42
                           ) -> RecoveryResult:
    """The Jordan product pinned by the linear constraints, or none.

    The constraints are linear in the cubic form S(x, y, z) = B(x ∘ y, z):
    commutativity and associativity of the given form make S totally
    symmetric, so neither needs a row.  The rows are the unit law,
    equivariance under the given symmetry actions, and idempotence of the
    supplied outcome vectors (sharp extreme effects can only be primitive
    idempotents in a compatible algebra; a problem with
    `outcome_vectors=[]` has no such rows).  A float problem is solved
    where B is the dot product and u a multiple of e₀, so the unit law is
    a substitution: one unknown per sorted triple of 1..d-1, (d-1)d(d+1)/6
    in all (`_complement_stage`, which checks the solution on every row),
    solved on their Gram matrix, with an SVD only when its eigenvalues do
    not certify full rank.  An exact problem has one unknown
    per orbit of outcome triples and no equivariance rows (`_orbit_stage`,
    which proves the solution set the same), eliminated once and read off
    as integers (`linalg._integer_readout`).  The solution is lifted to a
    product tensor, T[i, j, :] = B⁻ᵀ S[i, j, :]; an exact algebra keeps the
    integer tensor and makes its `Fraction`s on demand.

    A positive nullity leaves a family of products that the constraints do
    not tell apart: the result then holds no algebra, rather than one picked
    from the family.  A unique solution must pass the gates: the Jordan
    axioms, a positive definite trace form, and the squares gate.  An exact
    problem gives an exact algebra, decides every gate on integers and draws
    nothing: its axioms are `JordanAlgebra.axiom_proof`, and its squares
    gate is `jordan_frame` on the supplied extreme rays.  A float problem
    tests the Jordan identity on 3·d seeded probes (residual at most 1e-8)
    and, given a membership oracle, that the squares of 20 seeded probes lie
    in the cone: one draw, one stacked square and one call of the oracle.
    """
    gates: dict = {}
    notes: list = []
    d = p.dim
    (_, B), (_, u) = p.B, p.u
    gates["form_pd"] = _positive_definite(B + B.T, 0)
    if not gates["form_pd"]:
        return RecoveryResult(None, -1, None, None, gates,
                              ["form not positive definite"], seed)
    gates["unit_interior_heuristic"] = all(
        g @ B @ u > (0 if p.exact else 1e-12) for _, g in p.cone_generators)

    got = _linear_stage(p)
    if got is None:
        gates["linear_stage"] = False
        return RecoveryResult(None, -1, None, None, gates,
                              ["linear constraints inconsistent"], seed)
    gates["linear_stage"] = True
    s_T, T = got
    nullity = T.shape[-1] - 1
    if nullity:
        return RecoveryResult(None, nullity, None, None, gates, [
            f"linear constraints leave a {nullity}-parameter family of "
            "products; none is picked"], seed)
    notes.append("linear stage already determined the tensor; uniqueness "
                 "certified by the rank of the constraint system")

    if p.exact:
        J = JordanAlgebra("Recovered", d, _EXACT.unscaled(p.u), None,
                          True, scaled=(s_T, T[..., 0]))
        proof = J.axiom_proof()
        residual = proof.residual
        gates["identity_ok"] = proof.ok
        gates["identity_triple"] = proof.triple
    else:
        T_star = np.asarray(T[..., 0], float) + 0.0    # no negative zeros
        J = JordanAlgebra("Recovered", d, list(u), T_star, False)
        rng = np.random.default_rng(seed)
        X, Y = rng.standard_normal((3 * d, 2, d)).swapaxes(0, 1).copy()
        residual = float(np.abs(_jordan_defects(T_star, X, Y)).max())
        gates["identity_ok"] = residual <= 1e-8
    gates["identity_residual"] = residual
    if not gates["identity_ok"]:
        return RecoveryResult(None, 0, residual, True, gates,
                              notes + ["no PD-trace Jordan solution found; "
                                       "hypotheses likely unmet"], seed)

    # acceptance gates on the tensor
    gates["trace_form_pd"] = (J.trace_form_pd if p.exact else
                              _positive_definite(J.trace_gram_float, 1e-10))
    sq_ok, frame = True, None
    if p.exact and p.extreme_rays:
        frame = jordan_frame(J, p.extreme_rays)
        sq_ok = gates["jordan_frame"] = frame is not None
        if sq_ok:
            notes.append("the extreme rays are positive multiples of a "
                         "Jordan frame, so the cone of squares is the cone "
                         "they generate")
    elif not p.exact and p.cone_membership is not None:
        X = rng.standard_normal((20, d))
        sq_ok = gates["squares_in_cone"] = all(p.cone_membership(
            np.einsum("ni,nj,ijk->nk", X, X, T_star)))
    elif p.exact:
        notes.append("no extreme rays supplied; frame gate skipped")
    else:
        notes.append("no cone membership oracle supplied; square gate skipped")

    if p.exact:
        notes.append("tensor is exact (rational linear stage, zero nullity)")
    ok = gates["trace_form_pd"] and sq_ok
    if not ok:
        notes.append("recovered tensor failed an acceptance gate")
    return RecoveryResult(J if ok else None, 0, residual, True, gates, notes,
                          seed, frame if ok else None)


def jordan_frame(J: JordanAlgebra, rays) -> Optional[list]:
    """The Jordan frame e_1, ..., e_d of an exact algebra read off d rays,
    or None when the rays are not one.

    Each ray r must be a positive multiple of an idempotent, r∘r = c·r with
    c > 0, which makes e = r/c; the e_i must be orthogonal, e_i∘e_j = 0 for
    i ≠ j, and sum to the unit.  Orthogonal idempotents are independent, so
    d of them are a basis in which the product is componentwise: the
    algebra is R^d, its rank is d, and its cone of squares is the cone the
    rays generate.  Computed on the integer tensor T = D·tensor and the rays
    scaled to integers R = s·r, where T(R_n, R_n) = λ_n R_n with
    λ_n = D·s·c_n, so e_n = D·R_n / λ_n.
    """
    d = J.dim
    if len(rays) != d:
        return None
    D, T = J._scaled_tensor(_EXACT)
    _, R = _integer_block(rays)
    Q = np.einsum("ni,mj,ijk->nmk", R, R, T)             # T(R_n, R_m)
    if (Q[~np.eye(d, dtype=bool)] != 0).any():
        return None
    frame = []
    for r, rr in zip(R.tolist(), Q[np.arange(d), np.arange(d)].tolist()):
        p = next((k for k, x in enumerate(r) if x), None)
        if p is None or rr[p] * r[p] <= 0 or any(
                a * r[p] != rr[p] * b for a, b in zip(rr, r)):
            return None
        frame.append([Fraction(D * x * r[p], rr[p]) for x in r])
    if [sum(col) for col in zip(*frame)] != [frac(x) for x in J.unit]:
        return None
    return frame


# ---------------------------------------------------------------------------
# identification by (dim, rank)

_SPIN_ALIASES = {2: "RealSym(2)", 3: "ComplexHerm(2)", 5: "QuatHerm(2)"}


def _simple_classes(max_dim: int):
    """Simple Euclidean Jordan algebras with dim ≤ max_dim, as
    (dim, rank, canonical name) — low spin factors folded into their matrix
    aliases, the exceptional algebra out of scope."""
    out = []
    for n in range(1, max_dim + 1):
        dims = {"RealSym": n * (n + 1) // 2, "ComplexHerm": n * n,
                "QuatHerm": 2 * n * n - n}
        for fam, dd in dims.items():
            if dd <= max_dim and (n >= 3 or (fam == "RealSym" and n <= 2)):
                out.append((dd, n, f"{fam}({n})"))
    for n in range(4, max_dim):
        if n + 1 <= max_dim and n not in _SPIN_ALIASES:
            out.append((n + 1, 2, f"SpinFactor({n})"))
    if 4 <= max_dim:
        out.append((4, 2, "ComplexHerm(2)~SpinFactor(3)"))
    if 6 <= max_dim:
        out.append((6, 2, "QuatHerm(2)~SpinFactor(5)"))
    return sorted(set(out))


def identify_algebra(J: JordanAlgebra, seed: int = 42) -> list[str]:
    """Candidate catalog kinds matching (dim, rank); ambiguities all listed.

    Rank is the minimal-polynomial degree of a generic element; see
    `algebra_candidates`.
    """
    return algebra_candidates(J.dim, generic_rank(J, seed=seed))


def recovered_rank(res: RecoveryResult, seed: int = 42) -> int:
    """The rank of a recovered algebra: the size of the Jordan frame that
    its exact squares gate found, read without a draw, and otherwise
    `generic_rank`, which samples."""
    if res.frame is not None:
        return len(res.frame)
    return generic_rank(res.algebra, seed=seed)


def algebra_candidates(d: int, r: int) -> list[str]:
    """Direct sums of simple classes whose dimensions add up to d and whose
    ranks add up to r, as sorted canonical names."""
    simples = _simple_classes(d)
    found: set = set()

    def rec(rem_d, rem_r, start, acc):
        if rem_d == 0 and rem_r == 0:
            found.add(" + ".join(sorted(acc)) if acc else "0")
            return
        if rem_d <= 0 or rem_r <= 0:
            return
        for k in range(start, len(simples)):
            dd, rr, name = simples[k]
            if dd <= rem_d and rr <= rem_r:
                rec(rem_d - dd, rem_r - rr, k, acc + [name])

    rec(d, r, 0, [])
    return sorted(found)
