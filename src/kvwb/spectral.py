"""Spectral kernels of a Jordan product tensor.

Minimal polynomials, eigenvalues, spectral idempotents and square roots of
elements, read off the product alone: a kernel needs of its algebra J only
`J.dim`, the float tensor `J.np_tensor` (T[i, j] the coordinates of
e_i ∘ e_j), the float unit `J.unit_float()` and the trace form's Cholesky
factor `J.trace_cholesky`, so it runs on any kind, recovered ones included.

The kernels work on a stack of elements, one per row.  Minimal polynomials
and eigenvalues give each row the floats the one-element code gave it (the
tests keep it as an oracle): each stacked numpy call they use does per row
what its unstacked form does.  Square roots and the cone test read extreme
eigenvalues off one symmetric eigensolve of L_w instead, which agree with
those roots to rounding, not bit for bit.  A row that fails holds its
exception in place of its result, so a caller can replay the rows in order
and stop where a row-by-row loop would have stopped.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.linalg import _umath_linalg


def _value(result):
    """A kernel's per-row result, raised when it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def _stacked(f, *stacks):
    """f over stacked arrays, its rows the per-row results.  When the
    stacked call raises LinAlgError, the list of f row by row, a failing
    row holding its LinAlgError."""
    try:
        return f(*stacks)
    except np.linalg.LinAlgError:
        out = []
        for row in zip(*stacks):
            try:
                out.append(f(*row))
            except np.linalg.LinAlgError as e:
                out.append(e)
        return out


def _groups(results: list, key=len) -> dict:
    """Indices of the results that are not exceptions, grouped by key."""
    out: dict = {}
    for n, r in enumerate(results):
        if not isinstance(r, Exception):
            out.setdefault(key(r), []).append(n)
    return out


def _degrees_and_powers(J, W: np.ndarray, tol: float = 1e-8):
    """Minimal-polynomial degree and Jordan powers u, w, w∘w, w∘(w∘w), ...
    of each row w of W: the degree is the least k with rank[u, ..., w^k] <=
    k, each power scaled to a largest entry of 1 and the rank cut at tol,
    so that w and c·w get one degree; from one stacked product and rank
    per step over the rows still open.  Returns the degrees (a LinAlgError
    for a row whose rank failed) and the powers, shaped (rows, dim + 1,
    dim), row n filled up to w^degree."""
    W = np.asarray(W, float)
    T, d = J.np_tensor, J.dim
    pows = np.empty((len(W), d + 1, d))
    pows[:, 0] = J.unit_float()
    pows[:, 1] = W
    degs, errors = np.full(len(W), d), {}
    open_rows = np.arange(len(W))
    for k in range(1, d + 1):
        if not open_rows.size:
            break
        M = pows[open_rows, :k + 1]
        size = np.abs(M).max(axis=2, keepdims=True)
        with np.errstate(invalid="ignore"):        # an inf power is NaN
            M = M / np.where(size > 0, size, 1.0)
        ranks = _stacked(np.linalg.matrix_rank, M, np.full(len(M), tol))
        if not isinstance(ranks, np.ndarray):     # a failed row is done too
            errors.update((n, r) for n, r in zip(open_rows.tolist(), ranks)
                          if isinstance(r, Exception))
            ranks = [0 if isinstance(r, Exception) else r for r in ranks]
        done = np.asarray(ranks) <= k
        degs[open_rows[done]] = k
        open_rows = open_rows[~done]
        if open_rows.size and k < d:
            pows[open_rows, k + 1] = np.einsum(
                "ni,nj,ijk->nk", W[open_rows], pows[open_rows, k], T)
    return [errors.get(n, k) for n, k in enumerate(degs.tolist())], pows


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(A: np.ndarray, b: np.ndarray) -> tuple:
    """The solutions and ranks of `np.linalg.lstsq(A, b, rcond=None)` for
    stacked (or broadcast) A and vectors b, from one call of the gufunc that
    lstsq calls, with its rcond, signature and errstate."""
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, _, rank, _ = _umath_linalg.lstsq(
            A, b[..., None], np.finfo(float).eps * max(A.shape[-2:]),
            signature="ddd->ddid")
    return x[..., 0], rank


def _minimal_polynomials(pows: np.ndarray, degs: list) -> list:
    """Coefficients c of each row's minimal polynomial, w^k = sum c_i w^i
    over i < k = degs[n], as `np.linalg.lstsq(pows[n, :k].T, pows[n, k],
    rcond=None)[0]`, one stacked fit per degree; a row keeps the exception
    its degree holds, or holds its fit's LinAlgError."""
    out = list(degs)
    for k, rows in _groups(degs, int).items():
        P = pows[rows]
        for n, c in zip(rows, _stacked(lambda A, b: _lstsq(A, b)[0],
                                       P[:, :k].transpose(0, 2, 1), P[:, k])):
            out[n] = c
    return out


def _roots_many(coeffs: list) -> list:
    """`np.roots` of each row's monic polynomial x^k - sum c_i x^i, or the
    exception the row holds or raises.  As in np.roots, the trailing zero
    coefficients are stripped, the roots of the rest are the eigenvalues of
    its companion matrix, and one zero root is appended per stripped
    coefficient: one stack per degree, one stacked `eigvals` per size."""
    out = list(coeffs)
    for k, rows in _groups(coeffs).items():
        polys = np.ones((len(rows), k + 1))     # monic, high power first
        polys[:, 1:] = -np.array([coeffs[n] for n in rows])[:, ::-1]
        # the last nonzero entry; the leading 1.0 is always nonzero
        sizes = k - np.argmax(polys[:, ::-1] != 0, axis=1)
        for size in set(sizes.tolist()):
            at = np.flatnonzero(sizes == size)
            roots = [np.array([])] * len(at)
            if size:
                C = np.zeros((len(at), size, size))
                C[:, np.arange(1, size), np.arange(size - 1)] = 1.0
                C[:, 0] = -polys[at, 1:size + 1] / polys[at, :1]
                roots = _stacked(np.linalg.eigvals, C)
            for i, r in zip(at.tolist(), roots):
                out[rows[i]] = r if isinstance(r, Exception) or size == k \
                    else np.hstack((r, np.zeros(k - size, r.dtype)))
    return out


def _merged(roots: np.ndarray):
    """Sorted real roots, near-coincident ones merged into one node (their
    mean); an ArithmeticError in their place when a root is complex."""
    if np.abs(roots.imag).max(initial=0.0) > 1e-6:
        return ArithmeticError("complex eigenvalues in a formally real "
                               f"algebra (imag {np.abs(roots.imag).max():.2e})")
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


def _eigenvalues_many(J, W: np.ndarray) -> list:
    """Merged eigenvalues of each row of W: the sorted roots of its minimal
    polynomial, near-coincident ones merged into one node (their mean), or
    the ArithmeticError or LinAlgError that row raises.  Every step is stacked;
    only a row with a complex root or roots to merge meets `_merged`."""
    degs, pows = _degrees_and_powers(J, W)
    out = _roots_many(_minimal_polynomials(pows, degs))
    for rows in _groups(out).values():
        R = np.array([out[n] for n in rows])
        lams = np.sort(R.real, axis=1)
        scale = np.fmax(1.0, np.abs(lams).max(axis=1))
        alone = ((np.abs(R.imag).max(axis=1, initial=0.0) > 1e-6)
                 | (np.diff(lams, axis=1) <= 1e-6 * scale[:, None]).any(axis=1))
        # a one-root node is sum([l]) / 1, and 0 + -0.0 is 0.0
        lams += 0.0
        for n, lam, one in zip(rows, lams, alone.tolist()):
            out[n] = _merged(out[n]) if one else lam
    return out


def _extreme_eigenvalues(J, W: np.ndarray) -> list:
    """(least, greatest) eigenvalue of each row w of W, or the error that
    row raises, from one stacked `eigvalsh`.  In a Euclidean Jordan algebra
    L_w is self-adjoint under the trace form G = R Rᵀ (`J.trace_cholesky`)
    and acts on the Peirce space V_ij of w's Jordan frame as (λ_i + λ_j)/2,
    V_ii = R·c_i, so w has the extreme eigenvalues of the symmetric
    R⁻¹ (G L_w) R⁻ᵀ (Faraut & Korányi, ch. II and IV).  A failed or not
    finite eigensolve holds a LinAlgError; without a positive definite G
    every row holds an ArithmeticError."""
    if J.trace_cholesky is None:
        return [ArithmeticError("trace form not positive definite") for _ in W]
    Ri = np.linalg.inv(J.trace_cholesky)
    H = Ri @ J.trace_gram_float @ J.np_tensor.transpose(0, 2, 1) @ Ri.T
    H = (H + H.transpose(0, 2, 1)) / 2          # R⁻¹ G L_i R⁻ᵀ, symmetrized
    M = np.einsum("ni,ijk->njk", np.asarray(W, float), H)
    return [r if isinstance(r, Exception) else (float(r[0]), float(r[-1]))
            if math.isfinite(r[0]) and math.isfinite(r[-1])
            else np.linalg.LinAlgError("Eigenvalues did not converge")
            for r in _stacked(np.linalg.eigvalsh, M)]


def _sqrt_many(J, W: np.ndarray) -> list:
    """Square root of each row of W (see `jordan_sqrt`), or the error that
    row raises: ArithmeticError for a negative eigenvalue, a stalled
    iteration or one of `_extreme_eigenvalues`, LinAlgError for a failed
    eigensolve or a singular L_s.  Each Babylonian step is one stacked
    solve over the rows that have not converged yet."""
    W = np.asarray(W, float)
    T, u = J.np_tensor, J.unit_float()
    out = _extreme_eigenvalues(J, W)
    S = np.empty_like(W)
    scale = np.fmax(1.0, np.abs(W).max(axis=1))      # max(1.0, x) per row
    err = np.full(len(W), np.inf)
    running = []
    for n, ends in enumerate(out):
        if isinstance(ends, Exception):
            continue
        if ends[0] < -1e-6:
            out[n] = ArithmeticError(
                f"element not in the cone (eig {ends[0]:.2e})")
            continue
        S[n] = np.sqrt(max(ends[1], 1e-12)) * u
        running.append(n)
    rows = np.array(running, dtype=np.intp)
    for _ in range(80):
        if not rows.size:
            break
        steps = _stacked(np.linalg.solve, np.einsum("ni,ijk->nkj", S[rows], T),
                         W[rows, :, None])
        if isinstance(steps, np.ndarray):           # no row failed
            X = steps[..., 0]
        else:
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
    for n, stalled in enumerate((err > 1e-7 * scale).tolist()):
        if not isinstance(out[n], Exception):
            out[n] = (ArithmeticError(
                f"square root iteration stalled (error {err[n]:.2e})")
                if stalled else S[n])
    return out


def generic_rank(J, seed: int = 42, trials: int = 5) -> int:
    """Degree of the minimal polynomial of a generic element.

    For a Euclidean Jordan algebra this is the rank; several random draws
    guard against an unlucky non-generic sample (the max is generic).
    """
    rng = np.random.default_rng(seed)
    A = np.array([rng.standard_normal(J.dim) for _ in range(trials)])
    degs, _ = _degrees_and_powers(J, A.reshape(trials, J.dim))
    return max((_value(k) for k in degs), default=0)


def _idempotents(J, W: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Spectral idempotents of each row w of W over its merged eigenvalues,
    that row of `reps`: idempotent i of row n at [n, i].

    Power associativity makes the subalgebra generated by w commutative and
    associative, so Lagrange interpolation on Jordan powers, over the merged
    eigenvalue nodes, produces the spectral projections; each projector is
    then purified with f <- 3f^2 - 2f^3 (quadratic convergence to the
    idempotent with the same spectral support)."""
    T, u = J.np_tensor, J.unit_float()
    out = np.empty(reps.shape + (J.dim,))
    for i in range(reps.shape[1]):
        f = np.tile(u, (len(W), 1))
        for j in (j for j in range(reps.shape[1]) if j != i):
            f = (np.einsum("ni,nj,ijk->nk", f, W - reps[:, j, None] * u, T)
                 / (reps[:, i] - reps[:, j])[:, None])
        for _ in range(2):
            f2 = np.einsum("ni,nj,ijk->nk", f, f, T)
            f3 = np.einsum("ni,nj,ijk->nk", f, f2, T)
            f = 3.0 * f2 - 2.0 * f3
        out[:, i] = f
    return out


def jordan_sqrt(J, w, tol: float = 1e-9) -> np.ndarray:
    """Square root of an interior element: Babylonian iteration
    s <- (s + L_s^{-1} w) / 2 from sqrt(lam_max) times the unit, until
    |s∘s - w| <= 1e-12 max(1, |w|) or 80 steps; a residual above
    1e-7 max(1, |w|), or an eigenvalue below -1e-6, raises ArithmeticError.
    The iterates stay in the associative subalgebra generated by w, where
    the recursion is the scalar one per eigenvalue, so it needs only the
    extreme eigenvalues (`_extreme_eigenvalues`), for the negativity screen
    and the seed; they may differ from the minimal polynomial's roots, and
    so the root from the old one, in the last bits."""
    return _value(_sqrt_many(J, np.asarray(w, float)[None])[0])
