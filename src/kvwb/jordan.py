"""Euclidean Jordan algebras: catalog, symmetric-cone checks, and recovery.

The catalog covers the classical families at desk scale — real symmetric,
complex hermitian, quaternionic hermitian (as doubled complex blocks), spin
factors, and direct sums — with exact rational product tensors.  The
recovery solver goes the other way: given a cone, a positive-definite
orthogonalizing form, a unit, and symmetry generators, it solves the linear
constraints a Jordan product must satisfy and then polishes the quadratic
Jordan identity by Gauss-Newton from several seeds.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .linalg import (ONE, ZERO, _integer_block, _Kind, frac,
                     is_positive_definite, solve_with_nullspace,
                     sparse_int_rows)


# ---------------------------------------------------------------------------
# exact complex matrices as (real, imaginary) rational pairs

def _zmat(n):
    z = [[Fraction(0)] * n for _ in range(n)]
    return z


def _cm(re=None, im=None, n=None):
    if re is None:
        re = _zmat(n)
    if im is None:
        im = _zmat(len(re))
    return (re, im)


def _cm_add(A, B):
    n = len(A[0])
    return ([[A[0][i][j] + B[0][i][j] for j in range(n)] for i in range(n)],
            [[A[1][i][j] + B[1][i][j] for j in range(n)] for i in range(n)])


def _cm_scale(c, A):
    n = len(A[0])
    return ([[c * A[0][i][j] for j in range(n)] for i in range(n)],
            [[c * A[1][i][j] for j in range(n)] for i in range(n)])


def _cm_mul(A, B):
    n = len(A[0])
    re = [[sum(A[0][i][k] * B[0][k][j] - A[1][i][k] * B[1][k][j]
               for k in range(n)) for j in range(n)] for i in range(n)]
    im = [[sum(A[0][i][k] * B[1][k][j] + A[1][i][k] * B[0][k][j]
               for k in range(n)) for j in range(n)] for i in range(n)]
    return (re, im)


def _cm_dagger(A):
    n = len(A[0])
    return ([[A[0][j][i] for j in range(n)] for i in range(n)],
            [[-A[1][j][i] for j in range(n)] for i in range(n)])


def _cm_hs(A, B):
    """Real Hilbert-Schmidt pairing Re tr(A^dagger B) — exact."""
    n = len(A[0])
    Ad = _cm_dagger(A)
    tot = Fraction(0)
    for i in range(n):
        for k in range(n):
            tot += Ad[0][i][k] * B[0][k][i] - Ad[1][i][k] * B[1][k][i]
    return tot


def _cm_to_numpy(A) -> np.ndarray:
    return (np.array(A[0], dtype=float) + 1j * np.array(A[1], dtype=float))


# ---------------------------------------------------------------------------
# the algebra type

@dataclass(eq=False)
class JordanAlgebra:
    """Product tensor T[i][j] = coordinates of e_i ∘ e_j."""

    kind: str
    dim: int
    unit: list
    tensor: object                       # nested Fractions or np (d,d,d)
    exact: bool
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self._np_tensor = None
        self._unit_float = None

    @property
    def np_tensor(self) -> np.ndarray:
        if self._np_tensor is None:
            if self.exact:
                d = self.dim
                self._np_tensor = np.array(
                    [[[float(self.tensor[i][j][k]) for k in range(d)]
                      for j in range(d)] for i in range(d)])
            else:
                self._np_tensor = np.asarray(self.tensor, dtype=float)
        return self._np_tensor

    def product(self, a, b):
        if self.exact and all(isinstance(v, (Fraction, int)) for v in a) \
                and all(isinstance(v, (Fraction, int)) for v in b):
            d = self.dim
            out = [Fraction(0)] * d
            for i in range(d):
                if a[i] == 0:
                    continue
                for j in range(d):
                    if b[j] == 0:
                        continue
                    c = frac(a[i]) * frac(b[j])
                    row = self.tensor[i][j]
                    for k in range(d):
                        if row[k]:
                            out[k] += c * row[k]
            return out
        return np.einsum("i,j,ijk->k", np.asarray(a, float),
                         np.asarray(b, float), self.np_tensor)

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


def jordan_product(J: JordanAlgebra, a, b):
    return J.product(a, b)


def quadratic_rep(J: JordanAlgebra, a) -> np.ndarray:
    """P(a) = 2 L_a^2 - L_{a∘a}."""
    La = J.left_mult(a)
    La2 = J.left_mult(J.product(a, a))
    return 2 * (La @ La) - La2


def trace_form_gram(J: JordanAlgebra):
    """Gram matrix of (a,b) -> tr L_{a∘b} on the coordinate basis."""
    d = J.dim
    if J.exact:
        G = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                prod = J.tensor[i][j]
                # trace of L_prod: sum_k (e_prod ∘ e_k)_k
                tot = Fraction(0)
                for m in range(d):
                    if prod[m] == 0:
                        continue
                    for k in range(d):
                        tot += prod[m] * J.tensor[m][k][k]
                G[i][j] = G[j][i] = tot
        return G
    T = J.np_tensor
    tr_L = np.einsum("mkk->m", T)       # trace of L_{e_m}
    G = np.einsum("ijm,m->ij", T, tr_L)
    return (G + G.T) / 2


# ---------------------------------------------------------------------------
# catalog constructors

def _matrix_kind(kind: str, n: int, basis_cm: list, labels: list
                 ) -> JordanAlgebra:
    """Common path: exact tensor from symmetrized products over a basis
    orthogonal under the real Hilbert-Schmidt pairing."""
    d = len(basis_cm)
    norms = [_cm_hs(B, B) for B in basis_cm]
    half = Fraction(1, 2)

    def expand(X):
        return [_cm_hs(basis_cm[k], X) / norms[k] for k in range(d)]

    tensor = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = _cm_scale(half, _cm_add(_cm_mul(basis_cm[i], basis_cm[j]),
                                           _cm_mul(basis_cm[j], basis_cm[i])))
            row.append(expand(prod))
        tensor.append(row)
    ident = _cm(re=[[ONE if i == j else ZERO for j in range(len(basis_cm[0][0]))]
                    for i in range(len(basis_cm[0][0]))])
    unit = expand(ident)
    return JordanAlgebra(kind, d, unit, tensor, True,
                         params={"n": n, "basis": basis_cm, "labels": labels})


def real_symmetric(n: int) -> JordanAlgebra:
    """Symmetric n x n real matrices with the symmetrized product."""
    basis, labels = [], []
    for i in range(n):
        re = _zmat(n)
        re[i][i] = ONE
        basis.append(_cm(re=re))
        labels.append(f"E{i}{i}")
    for i in range(n):
        for j in range(i + 1, n):
            re = _zmat(n)
            re[i][j] = re[j][i] = ONE
            basis.append(_cm(re=re))
            labels.append(f"S{i}{j}")
    return _matrix_kind(f"RealSym({n})", n, basis, labels)


def complex_hermitian(n: int) -> JordanAlgebra:
    """Hermitian n x n complex matrices with the symmetrized product."""
    basis, labels = [], []
    for i in range(n):
        re = _zmat(n)
        re[i][i] = ONE
        basis.append(_cm(re=re))
        labels.append(f"E{i}{i}")
    for i in range(n):
        for j in range(i + 1, n):
            re = _zmat(n)
            re[i][j] = re[j][i] = ONE
            basis.append(_cm(re=re))
            labels.append(f"S{i}{j}")
            im = _zmat(n)
            im[i][j] = ONE
            im[j][i] = -ONE
            basis.append(_cm(im=im, n=n))
            labels.append(f"A{i}{j}")
    return _matrix_kind(f"ComplexHerm({n})", n, basis, labels)


def _quat_block(q: str, n: int, i: int, j: int):
    """Hermitian matrix with quaternion unit q at (i,j), conjugate at (j,i),
    embedded as a 2n x 2n complex matrix."""
    re, im = _zmat(2 * n), _zmat(2 * n)
    # block (i,j) gets the 2x2 image of q; block (j,i) its conjugate-transpose
    r, c = 2 * i, 2 * j
    if q == "1":
        re[r][c] = re[r + 1][c + 1] = ONE
        re[c][r] = re[c + 1][r + 1] = ONE
    elif q == "i":
        im[r][c] = ONE
        im[r + 1][c + 1] = -ONE
        im[c][r] = -ONE
        im[c + 1][r + 1] = ONE
    elif q == "j":
        re[r][c + 1] = ONE
        re[r + 1][c] = -ONE
        re[c + 1][r] = ONE
        re[c][r + 1] = -ONE
    elif q == "k":
        im[r][c + 1] = ONE
        im[r + 1][c] = ONE
        im[c + 1][r] = -ONE
        im[c][r + 1] = -ONE
    return (re, im)


def quaternionic_hermitian(n: int) -> JordanAlgebra:
    """Hermitian n x n quaternionic matrices, doubled into complex blocks."""
    basis, labels = [], []
    for i in range(n):
        re = _zmat(2 * n)
        re[2 * i][2 * i] = re[2 * i + 1][2 * i + 1] = ONE
        basis.append(_cm(re=re))
        labels.append(f"E{i}{i}")
    for i in range(n):
        for j in range(i + 1, n):
            for q in "1ijk":
                basis.append(_quat_block(q, n, i, j))
                labels.append(f"Q{q}{i}{j}")
    return _matrix_kind(f"QuatHerm({n})", n, basis, labels)


def spin_factor(n: int) -> JordanAlgebra:
    """R^n + R with (x,s)∘(y,t) = (t x + s y, <x,y> + s t); unit (0,1)."""
    d = n + 1
    tensor = []
    for i in range(d):
        row = []
        for j in range(d):
            out = [Fraction(0)] * d
            if i < n and j < n:
                out[n] = ONE if i == j else ZERO
            elif i == n and j == n:
                out[n] = ONE
            elif i == n:
                out[j] = ONE
            else:
                out[i] = ONE
            row.append(out)
        tensor.append(row)
    unit = [Fraction(0)] * n + [ONE]
    return JordanAlgebra(f"SpinFactor({n})", d, unit, tensor, True,
                         params={"n": n})


def real_line() -> JordanAlgebra:
    return JordanAlgebra("RealSym(1)", 1, [ONE], [[[ONE]]], True,
                         params={"n": 1})


def direct_sum(parts: list[JordanAlgebra]) -> JordanAlgebra:
    if not all(p.exact for p in parts):
        raise ValueError("direct sums are built from exact catalog algebras")
    offs, d = [], 0
    for p in parts:
        offs.append(d)
        d += p.dim
    tensor = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    unit = [Fraction(0)] * d
    for p, o in zip(parts, offs):
        for i in range(p.dim):
            unit[o + i] = p.unit[i]
            for j in range(p.dim):
                for k in range(p.dim):
                    tensor[o + i][o + j][o + k] = p.tensor[i][j][k]
    kind = "DirectSum(" + ", ".join(p.kind for p in parts) + ")"
    return JordanAlgebra(kind, d, unit, tensor, True,
                         params={"parts": parts, "offsets": offs})


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
        if all(isinstance(v, (Fraction, int)) for v in a):
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
    spectral test raised on that row."""
    if _has_cone_formula(J):
        return [cone_of_squares_membership(J, a, tol) for a in A]
    return [e if isinstance(e, Exception) else min(e) >= -max(tol, 1e-7)
            for e in _eigenvalues_many(J, A)]


def _reconstruct(J: JordanAlgebra, a) -> np.ndarray:
    mats = J.params.setdefault(
        "np_basis", [_cm_to_numpy(B) for B in J.params["basis"]])
    M = sum(float(c) * B for c, B in zip(a, mats))
    return (M + M.conj().T) / 2


# ---------------------------------------------------------------------------
# spectral machinery (tensor-only, works for any kind)
#
# The kernels work on a stack of elements, one per row, and give each row
# the same floats the one-element functions below give it: every stacked
# numpy call used here (einsum with a leading row axis, solve, svd, matmul,
# eigvals, and the gufunc behind np.linalg.lstsq) does per row what its
# unstacked form does.  A row that fails holds its exception in place of its
# result, so a caller can replay the rows in order and stop where a
# row-by-row loop would have stopped.


def _value(result):
    """A kernel's per-row result, raised when it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def _stacked(f, *stacks) -> list:
    """f over stacked arrays, as a list of per-row results.  When the stacked
    call raises LinAlgError, f runs row by row and each failing row holds
    its LinAlgError."""
    try:
        return list(f(*stacks))
    except np.linalg.LinAlgError:
        out = []
        for row in zip(*stacks):
            try:
                out.append(f(*row))
            except np.linalg.LinAlgError as e:
                out.append(e)
        return out


def _degrees_and_powers(J: JordanAlgebra, W: np.ndarray, tol: float = 1e-8):
    """Minimal-polynomial degree and Jordan powers of each row w of W.

    The powers are u, w, w∘w, w∘(w∘w), ...; the degree is the least k with
    rank[u, w, ..., w^k] <= k, the rank cut at tol * max(1, max |entry|) of
    that prefix.  Each step makes one stacked product for the rows still
    open and one stacked rank, and the powers stop once every row has its
    degree.  Returns (degrees, powers): degrees a list of ints (a
    LinAlgError for a row whose rank failed), powers shaped (rows, dim + 1,
    dim) with row n filled up to w^degree.
    """
    W = np.asarray(W, float)
    T, d = J.np_tensor, J.dim
    pows = np.empty((len(W), d + 1, d))
    pows[:, 0] = J.unit_float()
    pows[:, 1] = W
    degs: list = [d] * len(W)
    open_rows = np.arange(len(W))
    for k in range(1, d + 1):
        if not open_rows.size:
            break
        M = pows[open_rows, :k + 1]
        # fmax, like max(1.0, x), passes over a NaN
        cut = tol * np.fmax(1.0, np.abs(M).max(axis=(1, 2)))
        still = []
        for n, r in zip(open_rows, _stacked(np.linalg.matrix_rank, M, cut)):
            if isinstance(r, Exception):
                degs[n] = r
            elif r <= k:
                degs[n] = k
            else:
                still.append(n)
        open_rows = np.array(still, dtype=np.intp)
        if open_rows.size and k < d:
            pows[open_rows, k + 1] = np.einsum(
                "ni,nj,ijk->nk", W[open_rows], pows[open_rows, k], T)
    return degs, pows


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.linalg.lstsq(A, b, rcond=None)[0]` for a stack of A and of
    vectors b, as one call of the gufunc that lstsq itself calls, with its
    rcond, signature and errstate."""
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(A, b[..., None],
                                np.finfo(float).eps * max(A.shape[-2:]),
                                signature="ddd->ddid")[0]
    return x[..., 0]


def _minimal_polynomials(pows: np.ndarray, degs: list) -> list:
    """Coefficients c of each row's minimal polynomial, w^k = sum c_i w^i
    over i < k with k = degs[n], fitted to the powers pows[n] as
    `np.linalg.lstsq(pows[n, :k].T, pows[n, k], rcond=None)[0]`: one
    stacked fit per degree.  A row whose degree is an exception keeps it; a
    row whose fit fails holds its LinAlgError."""
    out = list(degs)
    for k in {deg for deg in degs if not isinstance(deg, Exception)}:
        rows = [n for n, deg in enumerate(degs) if deg == k]
        P = pows[rows]
        for n, c in zip(rows, _stacked(_lstsq, P[:, :k].transpose(0, 2, 1),
                                       P[:, k])):
            out[n] = c
    return out


def _roots_many(coeffs: list) -> list:
    """`np.roots` of each row's monic polynomial x^k - sum c_i x^i, or the
    exception the row holds or raises.

    As in np.roots, the trailing zero coefficients are stripped, the roots
    of the rest are the eigenvalues of its companion matrix, and one zero
    root is appended per stripped coefficient; the companion matrices of one
    size go to one stacked `eigvals`.
    """
    out = list(coeffs)
    by_size: dict = {}
    for n, c in enumerate(coeffs):
        if not isinstance(c, Exception):
            poly = np.concatenate([[1.0], -c[::-1]])  # monic, high power first
            size = int(np.flatnonzero(poly)[-1])
            by_size.setdefault(size, []).append((n, poly[:size + 1]))
    for size, group in by_size.items():
        rows, polys = zip(*group)
        roots = [np.array([])] * len(rows)
        if size:
            polys = np.array(polys)
            C = np.zeros((len(rows), size, size))
            C[:, np.arange(1, size), np.arange(size - 1)] = 1.0
            C[:, 0] = -polys[:, 1:] / polys[:, :1]
            roots = _stacked(np.linalg.eigvals, C)
        for n, r in zip(rows, roots):
            out[n] = r if isinstance(r, Exception) else np.hstack(
                (r, np.zeros(len(coeffs[n]) - size, r.dtype)))
    return out


def _merged(roots: np.ndarray) -> np.ndarray:
    """Sorted real roots, near-coincident ones merged into one node (their
    mean); ArithmeticError when a root is complex."""
    if np.abs(roots.imag).max(initial=0.0) > 1e-6:
        raise ArithmeticError("complex eigenvalues in a formally real algebra "
                              f"(imag {np.abs(roots.imag).max():.2e})")
    lams = np.sort(roots.real)
    # Lagrange interpolation is badly conditioned when eigenvalues are close,
    # so nearly coincident roots are merged into one node.
    scale = max(1.0, float(np.abs(lams).max()))
    clusters: list[list[float]] = []
    for l in lams:
        if clusters and l - clusters[-1][-1] <= 1e-6 * scale:
            clusters[-1].append(float(l))
        else:
            clusters.append([float(l)])
    return np.array([sum(c) / len(c) for c in clusters])


def _eigenvalues_many(J: JordanAlgebra, W: np.ndarray) -> list:
    """Merged eigenvalues of each row of W (see `_eigenvalues`), or the
    ArithmeticError or LinAlgError that row raises.  The degrees and powers,
    the minimal-polynomial fits and the roots are stacked; only the merge
    goes row by row."""
    degs, pows = _degrees_and_powers(J, W)
    out = _roots_many(_minimal_polynomials(pows, degs))
    for n, roots in enumerate(out):
        if not isinstance(roots, Exception):
            try:
                out[n] = _merged(roots)
            except ArithmeticError as e:
                out[n] = e
    return out


def _sqrt_many(J: JordanAlgebra, W: np.ndarray) -> list:
    """Square root of each row of W (see `jordan_sqrt`), or the error that
    row raises: ArithmeticError for a complex or negative eigenvalue or a
    stalled iteration, LinAlgError for a singular L_s.

    Each Babylonian step is one stacked L_s, one stacked solve and one
    stacked square over the rows that have not converged yet.
    """
    W = np.asarray(W, float)
    T, u = J.np_tensor, J.unit_float()
    out = _eigenvalues_many(J, W)
    S = np.empty_like(W)
    scale = np.empty(len(W))
    err = np.full(len(W), np.inf)
    running = []
    for n, lams in enumerate(out):
        if isinstance(lams, Exception):
            continue
        if lams.min() < -1e-6:
            out[n] = ArithmeticError(
                f"element not in the cone (eig {lams.min():.2e})")
            continue
        scale[n] = max(1.0, float(np.abs(W[n]).max()))
        S[n] = np.sqrt(max(float(lams.max()), 1e-12)) * u
        running.append(n)
    rows = np.array(running, dtype=np.intp)
    for _ in range(80):
        if not rows.size:
            break
        steps = _stacked(np.linalg.solve, np.einsum("ni,ijk->nkj", S[rows], T),
                         W[rows, :, None])
        solved = np.array([not isinstance(x, Exception) for x in steps])
        for n, x in zip(rows[~solved], itertools.compress(steps, ~solved)):
            out[n] = x
        rows = rows[solved]
        if not rows.size:
            break
        X = np.array(list(itertools.compress(steps, solved)))[..., 0]
        S[rows] = 0.5 * (S[rows] + X)
        err[rows] = np.abs(np.einsum("ni,nj,ijk->nk", S[rows], S[rows], T)
                           - W[rows]).max(axis=1)
        rows = rows[~(err[rows] <= 1e-12 * scale[rows])]
    for n, r in enumerate(out):
        if isinstance(r, Exception):
            continue
        out[n] = (ArithmeticError(
            f"square root iteration stalled (error {err[n]:.2e})")
            if err[n] > 1e-7 * scale[n] else S[n])
    return out


def minimal_polynomial_degree(J: JordanAlgebra, a, tol: float = 1e-8) -> int:
    degs, _ = _degrees_and_powers(J, np.asarray(a, float)[None], tol)
    return _value(degs[0])


def generic_rank(J: JordanAlgebra, seed: int = 42, trials: int = 5) -> int:
    """Degree of the minimal polynomial of a generic element.

    For a Euclidean Jordan algebra this is the rank; several random draws
    guard against an unlucky non-generic sample (the max is generic).
    """
    rng = np.random.default_rng(seed)
    A = np.array([rng.standard_normal(J.dim) for _ in range(trials)])
    degs, _ = _degrees_and_powers(J, A.reshape(trials, J.dim))
    return max((_value(k) for k in degs), default=0)


def _eigenvalues(J: JordanAlgebra, w: np.ndarray) -> np.ndarray:
    """Sorted roots of the minimal polynomial of w, near-coincident ones
    merged into one node (their mean)."""
    return _value(_eigenvalues_many(J, np.asarray(w, float)[None])[0])


def spectral_decomposition(J: JordanAlgebra, w, tol: float = 1e-8):
    """Eigenvalues and spectral idempotents of w via its minimal polynomial.

    Power associativity makes the subalgebra generated by w commutative and
    associative, so Lagrange interpolation on Jordan powers, over the merged
    eigenvalue nodes, produces the spectral projections; each projector is
    then purified with f <- 3f^2 - 2f^3 (quadratic convergence to the
    idempotent with the same spectral support).
    """
    w = np.asarray(w, float)
    reps = _eigenvalues(J, w)
    return reps, _idempotents(J, w, reps)


def _idempotents(J: JordanAlgebra, w: np.ndarray, reps) -> list:
    """Spectral idempotents of w over its merged eigenvalues `reps`."""
    idems = []
    for i, li in enumerate(reps):
        f = J.unit_float()
        for j, lj in enumerate(reps):
            if i == j:
                continue
            f = (np.einsum("i,j,ijk->k", f, w - lj * J.unit_float(),
                           J.np_tensor)) / (li - lj)
        for _ in range(2):
            f2 = np.einsum("i,j,ijk->k", f, f, J.np_tensor)
            f3 = np.einsum("i,j,ijk->k", f, f2, J.np_tensor)
            f = 3.0 * f2 - 2.0 * f3
        idems.append(f)
    return idems


def jordan_sqrt(J: JordanAlgebra, w, tol: float = 1e-9) -> np.ndarray:
    """Square root of an interior element.

    Babylonian iteration s <- (s + L_s^{-1} w) / 2, seeded at sqrt(lam_max)
    times the unit, until |s∘s - w| <= 1e-12 max(1, |w|) or 80 steps; a
    residual above 1e-7 max(1, |w|) then raises ArithmeticError, and so
    does an eigenvalue below -1e-6.  The iterates stay in the associative
    subalgebra generated by w, where the recursion is the scalar one per
    eigenvalue, so convergence needs no spectral projectors — only the
    (possibly ill-conditioned) eigenvalues themselves, used for the seed
    and the negativity screen.
    """
    return _value(_sqrt_many(J, np.asarray(w, float)[None])[0])


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


def _random_rational_vec(rng, d) -> list:
    return [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            for _ in range(d)]


def _jordan_defects(T: np.ndarray, A: np.ndarray, B: np.ndarray
                    ) -> np.ndarray:
    """(a²)∘(b∘a) − (a²∘b)∘a for each row a of A and row b of B, under the
    product of the tensor T: floats, or Python ints (object arrays), which
    stay exact."""
    def prod(x, y):
        return np.einsum("ni,nj,ijk->nk", x, y, T)
    A2 = prod(A, A)
    return prod(A2, prod(B, A)) - prod(prod(A2, B), A)


def verify_symmetric_cone(J: JordanAlgebra, sample_count: int = 50,
                          seed: int = 42, tol: float = 1e-9
                          ) -> SymmetricConeReport:
    """Gate order: Jordan axioms, formal reality, self-duality samples,
    homogeneity witnesses.  A failed axiom gate stops the later checks.

    Every gate draws all its samples first, in the order a sample loop
    would, and then works on the stack.  Gate 1 evaluates the Jordan
    identity (a²)∘(b∘a) = (a²∘b)∘a with one stacked product per step: on an
    exact tensor over Python ints (tensor, unit and each sample scaled by
    its common denominator), so the worst residual is the exact `Fraction`
    of a loop over rationals.  Gates 3 and 4 make one product per power for
    every square, eigenvalue and root (`_eigenvalues_many`, `_sqrt_many`:
    one least-squares fit of the minimal polynomials per degree, one
    `eigvals` of their companion matrices per size), and one
    P(w^{1/2}) = 2 L_s^2 - L_{s∘s} per sample for both the unit and the
    image of a square.  Gate 4 then replays the samples in order, so the report is the sample loop's:
    the first error of a square root or of a spectral membership test ends
    the gate with the cone-preservation failures found before it, and an
    error that is not an ArithmeticError escapes where the loop would have
    raised it.
    """
    rep = SymmetricConeReport(ok=False, seed=seed)
    rng = np.random.default_rng(seed)
    d = J.dim

    # gate 1: axioms (exact where the tensor is exact)
    pairs = max(10, sample_count // 5)
    if J.exact:
        # T = D·tensor, u = s_u·unit and each sample a = s_a·a', b = s_b·b'
        # on integers, so the defect of (a', b') is that of (a, b) over
        # D³·s_a³·s_b
        D, T = _integer_block(J.tensor)
        s_u, u = _integer_block(J.unit)
        comm = bool((T == T.transpose(1, 0, 2)).all())
        unit_ok = bool((np.einsum("i,ijk->jk", u, T)
                        == s_u * D * np.eye(d, dtype=object)).all())
        scales, AB = zip(*(_integer_block(_random_rational_vec(rng, d))
                           for _ in range(2 * pairs)))    # a_0, b_0, a_1, ...
        AB = np.array(AB, dtype=object)
        defects = np.abs(_jordan_defects(T, AB[0::2], AB[1::2])).max(axis=1)
        worst = max(Fraction(int(m), D ** 3 * s_a ** 3 * s_b) for m, s_a, s_b
                    in zip(defects, scales[0::2], scales[1::2]))
        ident = worst == 0
    else:
        T = J.np_tensor
        comm = float(np.abs(T - T.transpose(1, 0, 2)).max()) <= tol
        u = J.unit_float()
        unit_ok = float(np.abs(J.left_mult(u) - np.eye(d)).max()) <= 1e-8
        A, B = np.empty((pairs, d)), np.empty((pairs, d))
        for n in range(pairs):
            A[n], B[n] = rng.standard_normal(d), rng.standard_normal(d)
        worst = max(map(float,
                        np.abs(_jordan_defects(T, A, B)).max(axis=1)))
        ident = worst <= 1e-8
    rep.commutative_ok, rep.unit_ok, rep.identity_ok = comm, unit_ok, ident
    if not (comm and unit_ok and ident):
        rep.failures.append({"gate": "jordan-axioms",
                             "identity_residual": (str(worst) if J.exact
                                                   else float(worst))})
        return rep

    # gate 2: formal reality via the trace form
    G = trace_form_gram(J)
    if J.exact:
        rep.trace_form_pd = is_positive_definite(G)
    else:
        rep.trace_form_pd = bool(np.linalg.eigvalsh(np.asarray(G)).min() > tol)
    if not rep.trace_form_pd:
        rep.failures.append({"gate": "trace-form-pd"})
        return rep
    Gf = np.array([[float(G[i][j]) for j in range(d)] for i in range(d)]) \
        if J.exact else np.asarray(G)

    # gate 3: self-duality samples — squares pair non-negatively, and the
    # spectral idempotents of random elements pair non-negatively too
    T, u = J.np_tensor, J.unit_float()
    X, Y = np.empty((sample_count, d)), np.empty((sample_count, d))
    for n in range(sample_count):
        X[n], Y[n] = rng.standard_normal(d), rng.standard_normal(d)
    X2 = np.einsum("ni,nj,ijk->nk", X, X, T)
    Y2 = np.einsum("ni,nj,ijk->nk", Y, Y, T)
    Z = X2[::10] + 0.1 * u
    spectra = _eigenvalues_many(J, Z)
    min_pair = np.inf
    for n in range(sample_count):
        min_pair = min(min_pair, float(X2[n] @ Gf @ Y2[n]))
        if n % 10 == 0:
            idems = _idempotents(J, Z[n // 10], _value(spectra[n // 10]))
            for p, q in itertools.combinations(idems, 2):
                min_pair = min(min_pair, float(p @ Gf @ q))
    rep.min_pairing = min_pair
    rep.self_duality_ok = min_pair >= -tol
    if not rep.self_duality_ok:
        rep.failures.append({"gate": "self-duality", "min_pairing": min_pair})
        return rep

    # gate 4: homogeneity witnesses P(w^{1/2}) e = w on random interior w,
    # and P(w^{1/2}) keeps squares in the cone.  The samples are stacked;
    # the loop below replays them in order and stops at the first error.
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
    worst_h = 0.0
    for n in range(stop):
        worst_h = max(worst_h, float(np.abs(got[n] - W[n]).max()))
        if isinstance(inside[n], Exception):
            error = inside[n]
            break
        if not inside[n]:
            rep.failures.append({"gate": "homogeneity-cone-preservation"})
    if error is not None:
        if not isinstance(error, ArithmeticError):
            raise error
        rep.failures.append({"gate": "homogeneity-spectral",
                             "error": str(error)})
        rep.homogeneity_ok = False
        return rep
    rep.max_homogeneity_error = worst_h
    rep.homogeneity_ok = worst_h <= 1e-9 and not any(
        f.get("gate") == "homogeneity-cone-preservation"
        for f in rep.failures)
    rep.ok = bool(rep.homogeneity_ok)
    return rep


# ---------------------------------------------------------------------------
# recovery: from (cone, form, unit, symmetries) back to the product

@dataclass
class RecoveryProblem:
    """Recovery inputs of one kind: rationals (`Fraction` entries) when
    exact, floats otherwise."""

    dim: int
    B: object                            # PD orthogonalizing form
    u: object
    cone_generators: list
    actions: list = field(default_factory=list)
    outcome_vectors: list = field(default_factory=list)
    cone_membership: Optional[Callable] = None

    @property
    def exact(self) -> bool:
        """Rational inputs: the linear stage runs exactly."""
        return np.asarray(self.B).dtype == object


@dataclass
class RecoveryResult:
    algebra: Optional[JordanAlgebra]
    linear_solution_dim: int
    residual: float
    seeds_agree: Optional[bool]
    seed_residuals: list
    gates: dict
    notes: list = field(default_factory=list)
    seed: int = 42


def _triple_index(d: int) -> np.ndarray:
    """idx[i, j, k]: the column of S[i, j, k], one per sorted triple
    i ≤ j ≤ k, in lexicographic order, whatever the order of i, j, k."""
    trip = np.array(list(itertools.combinations_with_replacement(range(d), 3)),
                    dtype=np.intp).reshape(-1, 3)
    idx = np.empty((d, d, d), dtype=np.intp)
    for perm in itertools.permutations(range(3)):
        idx[tuple(trip[:, perm].T)] = np.arange(len(trip))
    return idx


def _inverse(K: _Kind, B: np.ndarray) -> np.ndarray:
    """B⁻¹; on rationals from one sparse elimination of [s·B | -s·I], whose
    null vector on the free column d + k is (B⁻¹e_k, e_k)."""
    if not K.exact:
        return np.linalg.inv(B)
    s, Bn = _integer_block(B)
    d = len(Bn)
    rows = [{**{j: v for j, v in enumerate(r) if v}, d + i: -s}
            for i, r in enumerate(Bn.tolist())]
    return np.array([v[:d] for v in solve_with_nullspace(rows, 2 * d)[1]],
                    dtype=object).T


def _cubic_rows(p: RecoveryProblem, idempotence: bool, K: _Kind):
    """The linear constraints A s = b on the cubic form S(x, y, z) =
    B(x ∘ y, z), totally symmetric for an associative B: the unknown
    s[idx[i, j, k]] is one entry per sorted triple i ≤ j ≤ k.

    With T[i, j, :] = B⁻ᵀ S[i, j, :] the coordinates of e_i ∘ e_j, the
    blocks are the unit law Σᵢ uᵢ S[i, j, k] = B[j, k] (row (j, k), term i);
    equivariance BᵀMB⁻ᵀ S[i, j, :] = Σ_ab M[a, i] M[b, j] S[a, b, :] (row
    (i ≤ j, k), terms m, then (a, b)); and idempotence
    Σ g_i g_j S[i, j, :] = Bᵀg (row k, terms i ≤ j).  Columns and values
    are laid out by broadcasting; on floats one `np.add.at` accumulates them
    into A, and the result is (A, b).  Rational inputs are scaled to
    integers (`_Kind.scaled`), each row times the product of its scales, and the
    triples are summed into sparse rows of Python ints, {column: value}
    with the right-hand side in column `ncols`, zeros left out; the result
    is (rows, ncols), the rational rows up to a positive factor each.
    """
    d = p.dim
    idx = _triple_index(d)
    ncols = d * (d + 1) * (d + 2) // 6
    dtype = object if K.exact else float
    B = K.array(p.B)
    s_B, Bn = K.scaled(B)
    s_Bi, Bin = K.scaled(_inverse(K, B))
    iu, ju = np.triu_indices(d)
    R = len(iu)
    rows, cols, vals, rhs = [], [], [], []

    def add(c, v, b):
        """Append rows with right-hand side b: columns c shaped (row axes,
        term axes), values v broadcast to that shape."""
        n0 = sum(map(len, rhs))
        rows.append(np.repeat(np.arange(n0, n0 + len(b)), c.size // len(b)))
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, c.shape).ravel())
        rhs.append(b)

    s_u, u = K.scaled(p.u)
    add(idx.transpose(1, 2, 0).reshape(d * d, d), u * s_B,
        (Bn * s_u).ravel())
    c_m = np.broadcast_to(idx[iu, ju][:, None, :], (R, d, d))
    c_ab = np.broadcast_to(idx.reshape(d * d, d).T, (R, d, d * d))
    for M in p.actions:
        s_M, M = K.scaled(M)
        v_ab = -(M[:, iu].T[:, :, None] * M[:, ju].T[:, None, :])
        add(np.concatenate([c_m, c_ab], axis=-1),
            np.concatenate([np.broadcast_to(Bn.T @ M @ Bin.T * s_M,
                                            (R, d, d)),
                            np.broadcast_to(v_ab.reshape(R, 1, d * d)
                                            * (s_B * s_Bi),
                                            (R, d, d * d))], axis=-1),
            np.zeros(R * d, dtype))
    if idempotence:
        for g in p.outcome_vectors:
            s_g, g = K.scaled(g)
            prod = g[iu] * g[ju] * s_B
            add(idx[iu, ju].T, np.where(iu != ju, prod * 2, prod),
                Bn.T @ g * s_g)
    b = np.concatenate(rhs)
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    if K.exact:
        out = sparse_int_rows(rows, cols, vals, len(b))
        for row, bb in zip(out, b.tolist()):
            if bb:
                row[ncols] = bb
        return out, ncols
    A = np.zeros((len(b), ncols))
    np.add.at(A, (rows, cols), vals)
    return A, b


def _solve_float(A: np.ndarray, b: np.ndarray):
    """Least-squares solution and nullspace basis (columns) of A t = b.

    The rank is read off the singular values `lstsq` returns, with the rule
    s > 1e-9 * s[0]; only a short rank pays for an SVD, a thin one when A
    has at least as many rows as columns (then `vt` is square) and a full
    one otherwise.  (None, None) when the system is inconsistent.
    """
    t0, _, _, s = np.linalg.lstsq(A, b, rcond=None)
    if float(np.abs(A @ t0 - b).max()) > 1e-7:
        return None, None
    rank = int((s > 1e-9 * s[0]).sum())
    if rank == A.shape[1]:
        return t0, np.zeros((A.shape[1], 0))
    vt = np.linalg.svd(A, full_matrices=len(A) < A.shape[1])[2]
    return t0, vt[rank:].T


def _linear_stage(p: RecoveryProblem, idempotence: bool
                  ) -> Optional[np.ndarray]:
    """The solutions of `_cubic_rows` lifted to product tensors,
    T[i, j, :] = B⁻ᵀ S[i, j, :], stacked on a last axis: one solution, then
    a basis of the homogeneous ones; None when the rows are inconsistent."""
    K = _Kind("exact" if p.exact else "float")
    if K.exact:
        x, null = solve_with_nullspace(*_cubic_rows(p, idempotence, K))
        X = None if x is None else K.array([x] + null).T
    else:
        s0, N = _solve_float(*_cubic_rows(p, idempotence, K))
        X = None if s0 is None else np.column_stack([s0, N])
    if X is None:
        return None
    d = p.dim
    iu, ju = np.triu_indices(d)
    S = X[_triple_index(d)[iu, ju]]                  # (pairs, k, columns)
    R, _, c = S.shape
    s_Bi, Bin = K.scaled(_inverse(K, K.array(p.B)))
    s_S, S = K.scaled(S.transpose(1, 0, 2).reshape(d, R * c))
    Tp = K.array(Bin.T @ S) / (s_Bi * s_S)
    Tp = Tp.reshape(d, R, c).transpose(1, 0, 2)
    T = K.zeros((d, d, d, c))
    T[iu, ju] = Tp
    T[ju, iu] = Tp
    return T


def _identity_residual_vec(T: np.ndarray, samples) -> np.ndarray:
    out = []
    for a, b in samples:
        a2 = np.einsum("i,j,ijk->k", a, a, T)
        lhs = np.einsum("i,j,ijk->k", a2, np.einsum("i,j,ijk->k", b, a, T), T)
        rhs = np.einsum("i,j,ijk->k", np.einsum("i,j,ijk->k", a2, b, T), a, T)
        out.append(lhs - rhs)
    return np.concatenate(out)


def recover_jordan_product(p: RecoveryProblem, seed: int = 42,
                           seeds: int = 8,
                           enforce_outcome_idempotence: bool = True,
                           tol: float = 1e-8) -> RecoveryResult:
    """Solve the linear Jordan-product constraints, then polish the identity.

    Linear stage, on the cubic form S(x, y, z) = B(x ∘ y, z): commutativity
    and associativity of the given form make S totally symmetric, so it has
    one unknown per sorted triple, d(d+1)(d+2)/6 in all, and neither needs
    a row.  The rows are the unit law, equivariance under the given
    symmetry actions, and — by default — idempotence of the supplied
    outcome/cone generators (sharp extreme effects can only be primitive
    idempotents in a compatible algebra; without this the linear stage can
    stay underdetermined).  One builder, `_cubic_rows`, makes them for both
    paths; only the solve differs: exact problems get sparse integer rows
    and eliminate them once (`linalg.solve_with_nullspace`), float problems
    make one least-squares solve and read the nullity off its singular
    values, computing a nullspace basis (thin SVD) only when the nullity is
    positive.  The particular solution and the null basis are lifted to
    product tensors, T[i, j, :] = B⁻ᵀ S[i, j, :], by one product.  Quadratic
    stage: Gauss-Newton on the Jordan identity residual from several seeds;
    agreement of all seeds is the desk-scale uniqueness certificate, and it
    runs on the inputs read as floats, whatever their kind.
    """
    gates: dict = {}
    notes: list = []
    d = p.dim
    B = np.asarray(p.B, float)
    eig = np.linalg.eigvalsh((B + B.T) / 2)
    gates["form_pd"] = bool(eig.min() > 0)
    if not gates["form_pd"]:
        return RecoveryResult(None, -1, np.inf, None, [], gates,
                              ["form not positive definite"], seed)
    u = np.asarray(p.u, float)
    gates["unit_interior_heuristic"] = all(
        float(np.asarray(g, float) @ B @ u) > 1e-12 for g in p.cone_generators)

    T = _linear_stage(p, enforce_outcome_idempotence)
    if T is None:
        gates["linear_stage"] = False
        return RecoveryResult(None, -1, np.inf, None, [], gates,
                              ["linear constraints inconsistent"], seed)
    T0, N = np.asarray(T[..., 0], float), np.asarray(T[..., 1:], float)
    nullity = N.shape[-1]
    exact_solution = T[..., 0].tolist() if p.exact and nullity == 0 else None
    gates["linear_stage"] = True

    rng = np.random.default_rng(seed)
    probe = [(rng.standard_normal(d), rng.standard_normal(d))
             for _ in range(3 * d)]

    def tensor_at(theta):
        return T0 + (N @ theta if nullity else 0.0)

    def residual(theta):
        return _identity_residual_vec(tensor_at(theta), probe)

    solutions, seed_residuals = [], []
    if nullity == 0:
        r = float(np.abs(residual(np.zeros(0))).max())
        solutions.append(np.zeros(0))
        seed_residuals.append(r)
        notes.append("linear stage already determined the tensor; uniqueness "
                     "certified by the rank of the constraint system")
    else:
        for s in range(seeds):
            srng = np.random.default_rng(seed + 1000 * (s + 1))
            theta = srng.standard_normal(nullity) * 0.5
            for _ in range(60):
                r = residual(theta)
                Jac = np.empty((len(r), nullity))
                h = 1e-6
                for k in range(nullity):
                    dtheta = np.zeros(nullity)
                    dtheta[k] = h
                    Jac[:, k] = (residual(theta + dtheta) - r) / h
                step, *_ = np.linalg.lstsq(Jac, -r, rcond=None)
                lam = 1.0
                base = float(r @ r)
                while lam > 1e-6:
                    cand = theta + lam * step
                    rc = residual(cand)
                    if float(rc @ rc) < base:
                        break
                    lam /= 2
                theta = theta + lam * step
                if float(np.linalg.norm(lam * step)) <= 1e-12:
                    break
            solutions.append(theta)
            seed_residuals.append(float(np.abs(residual(theta)).max()))

    best = int(np.argmin(seed_residuals))
    theta_star = solutions[best]
    residual_star = seed_residuals[best]
    T_star = tensor_at(theta_star)
    if nullity == 0:
        seeds_agree = True       # every seed collapses to the same full-rank solution
    else:
        good = [sol for sol, r in zip(solutions, seed_residuals) if r <= tol]
        tensors = [tensor_at(sol) for sol in good]
        seeds_agree = len(good) == len(solutions) and all(
            float(np.abs(t - T_star).max()) <= tol for t in tensors)
        if good and not seeds_agree:
            notes.append("seeds reached distinct low-residual tensors: "
                         "non-uniqueness witness against the hypotheses")

    gates["identity_residual"] = residual_star
    gates["identity_ok"] = residual_star <= tol
    if not gates["identity_ok"]:
        return RecoveryResult(None, nullity, residual_star, seeds_agree,
                              seed_residuals, gates,
                              notes + ["no PD-trace Jordan solution found; "
                                       "hypotheses likely unmet"], seed)

    # acceptance gates on the polished tensor
    G = np.einsum("ijm,m->ij", T_star, np.einsum("mkk->m", T_star))
    gates["trace_form_pd"] = bool(
        np.linalg.eigvalsh((G + G.T) / 2).min() > 1e-10)
    sq_ok = True
    if p.cone_membership is not None:
        for _ in range(20):
            x = rng.standard_normal(d)
            x2 = np.einsum("i,j,ijk->k", x, x, T_star)
            if not p.cone_membership(x2):
                sq_ok = False
                break
        gates["squares_in_cone"] = sq_ok
    else:
        notes.append("no cone membership oracle supplied; square gate skipped")

    unit = ([frac(x) for x in p.u] if exact_solution is not None
            else list(u))
    if exact_solution is not None:
        J = JordanAlgebra("Recovered", d, unit, exact_solution, True)
        notes.append("tensor is exact (rational linear stage, zero nullity)")
    else:
        J = JordanAlgebra("Recovered", d, list(u), T_star, False)
    ok = gates["trace_form_pd"] and sq_ok
    if not ok:
        notes.append("recovered tensor failed an acceptance gate")
    return RecoveryResult(J if ok else None, nullity, residual_star,
                          seeds_agree, seed_residuals, gates, notes, seed)


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
