"""Spectral kernels of a Jordan product tensor.

Eigenvalues, Jordan frames, square roots and the generic rank of elements,
read off the product alone: a kernel needs of its algebra J only `J.dim`,
the float tensor `J.np_tensor` (T[i, j] the coordinates of e_i ∘ e_j), the
float unit and the trace form's Gram matrix and Cholesky factor, so it
runs on any kind, recovered ones included.  Each L_w is self-adjoint in
the trace form: frames come from a Lanczos run of L_w from the unit
(`_frames`), square roots and the cone test from the extreme eigenvalues
of one symmetric eigensolve (`_extreme_eigenvalues`).  The kernels work on
a stack of elements, one per row; a row that fails holds its exception in
place of its result, so a caller can replay the rows in order and stop
where a row-by-row loop would have stopped.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


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


def _frames(J, W: np.ndarray) -> list:
    """(λ, C) for each row w of W, or the error that row raises: w's
    distinct eigenvalues λ_i, ascending, and its Jordan frame, c_i = C[i],
    from a Lanczos run of L_w from the unit u in the trace inner product G.

    L_w is self-adjoint under G, and by power associativity its Krylov
    space from u is R[w] = span{c_i}, L_w c_i = λ_i c_i (Faraut & Korányi,
    ch. II–III): the run stops after as many steps as w has distinct
    eigenvalues, and each Ritz vector v_i gives c_i = ⟨u, v_i⟩_G v_i.  Each
    step reorthogonalizes twice against the whole basis and is cut when
    the new vector's G-norm is at most 1e-8 times that of L_w q_k, so w
    and s·w get one Krylov dimension; eigenvalues closer than about
    1e-8·|w| share one Ritz value and the sum of their idempotents.  One
    stacked product per step and one stacked `eigh` per Krylov dimension;
    a row gets the floats it gets alone.  A NaN or inf in w gives a
    LinAlgError, a trace form that is not positive definite every row an
    ArithmeticError."""
    if J.trace_cholesky is None:
        return [ArithmeticError("trace form not positive definite") for _ in W]
    W = np.asarray(W, float)
    T, G, u = J.np_tensor, J.trace_gram_float, J.unit_float()
    n, d = W.shape
    Q = np.zeros((n, d, d))                 # row n's basis q_k at [n, k]
    alpha, beta = np.zeros((n, d)), np.zeros((n, d))
    Q[:, 0] = u / math.sqrt(u @ G @ u)

    def norms(R):                           # the G-norm of each R[n, :, 0]
        return np.sqrt((R.transpose(0, 2, 1) @ (G @ R))[:, 0, 0])
    dims, rows = np.full(n, d), np.arange(n)
    with np.errstate(invalid="ignore"):       # a NaN or inf row is NaN
        for k in range(d):
            Qk = Q[rows, :k + 1]
            R = np.einsum("ni,nj,ijk->nk", W[rows], Qk[:, k], T)[..., None]
            size = norms(R)
            for _ in range(2):
                H = Qk @ (G @ R)            # ⟨q_j, r⟩_G for j <= k
                R = R - Qk.transpose(0, 2, 1) @ H
                alpha[rows, k] += H[:, k, 0]
            b = norms(R)
            going = b > 1e-8 * size          # a NaN row stops here
            dims[rows[~going]] = k + 1
            rows, R, b = rows[going], R[going], b[going]
            if not rows.size or k + 1 == d:
                break
            beta[rows, k] = b
            Q[rows, k + 1] = R[..., 0] / b[:, None]
    Gu, out = G @ u, [None] * n
    finite = np.isfinite(alpha).all(axis=1) & np.isfinite(beta).all(axis=1)
    for row in np.flatnonzero(~finite).tolist():
        out[row] = np.linalg.LinAlgError("Eigenvalues did not converge")
    for m in set(dims[finite].tolist()):
        at = np.flatnonzero(finite & (dims == m))
        i = np.arange(m)
        tri = np.zeros((len(at), m, m))
        tri[:, i, i] = alpha[at, :m]
        tri[:, i[1:], i[:-1]] = tri[:, i[:-1], i[1:]] = beta[at, :m - 1]
        lams, S = np.linalg.eigh(tri)
        V = S.transpose(0, 2, 1) @ Q[at, :m]        # Ritz vectors v_i, rows
        for row, lam, idems in zip(at, lams, (V @ Gu)[..., None] * V):
            out[row] = lam, idems                   # c_i = ⟨u, v_i⟩_G v_i
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
    """The largest Krylov dimension of L_w from the unit (`_frames`) over
    `trials` random w: the number of distinct eigenvalues of a generic
    element, which for a Euclidean Jordan algebra is the rank; several
    draws guard against an unlucky non-generic sample."""
    A = np.random.default_rng(seed).standard_normal((trials, J.dim))
    return max((len(_value(f)[0]) for f in _frames(J, A)), default=0)


def jordan_sqrt(J, w, tol: float = 1e-9) -> np.ndarray:
    """Square root of an interior element: Babylonian iteration
    s <- (s + L_s^{-1} w) / 2 from sqrt(lam_max) times the unit, until
    |s∘s - w| <= 1e-12 max(1, |w|) or 80 steps; a residual above
    1e-7 max(1, |w|), or an eigenvalue below -1e-6, raises ArithmeticError.
    The iterates stay in the associative subalgebra generated by w, where
    the recursion is the scalar one per eigenvalue, so it needs only the
    extreme eigenvalues (`_extreme_eigenvalues`), for the negativity screen
    and the seed."""
    return _value(_sqrt_many(J, np.asarray(w, float)[None])[0])
