"""Hermitian-operator coordinates and sampling for the analytic state backend.

Self-adjoint operators are stored as real coordinate vectors in a fixed
Hilbert-Schmidt-orthonormal operator basis (identity direction first, then
traceless generators), so that <a, b>_HS = tr(ab) becomes the ordinary dot
product of coordinate vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HermitianBasis", "hermitian_basis", "projection",
           "random_unitary", "conjugation_action"]


@dataclass(eq=False)
class HermitianBasis:
    """HS-orthonormal basis of self-adjoint d x d operators over R or C."""

    dim: int
    fld: str                              # "real" | "complex"
    mats: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.mats:
            self.mats = _build_basis(self.dim, self.fld)
        self.space_dim = len(self.mats)

    def to_coords(self, H: np.ndarray) -> np.ndarray:
        return np.array([np.trace(H @ B).real for B in self.mats], dtype=float)

    def from_coords(self, v: np.ndarray) -> np.ndarray:
        """The operator with coordinates v, or those of a stack of rows v,
        summed one basis matrix at a time, in order, as for one row."""
        v = np.asarray(v)
        if v.shape[-1:] != (len(self.mats),):
            raise ValueError(f"{v.shape} coordinates, {len(self.mats)} mats")
        out = np.zeros(v.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for j, B in enumerate(self.mats):
            out += v[..., j, None, None] * B
        return out

    @property
    def unit_coords(self) -> np.ndarray:
        return self.to_coords(np.eye(self.dim))


def _build_basis(d: int, fld: str) -> list[np.ndarray]:
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    # diagonal traceless (generalized Gell-Mann diagonals)
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -float(k)
        M = np.diag(diag) / np.sqrt(k * (k + 1))
        mats.append(M.astype(complex))
    for i in range(d):
        for j in range(i + 1, d):
            S = np.zeros((d, d), dtype=complex)
            S[i, j] = S[j, i] = 1.0 / np.sqrt(2)
            mats.append(S)
            if fld == "complex":
                A = np.zeros((d, d), dtype=complex)
                A[i, j] = -1j / np.sqrt(2)
                A[j, i] = 1j / np.sqrt(2)
                mats.append(A)
    return mats


def hermitian_basis(d: int, fld: str) -> HermitianBasis:
    if fld not in ("real", "complex"):
        raise ValueError(f"unsupported field {fld!r}")
    return HermitianBasis(d, fld)


def projection(v: np.ndarray) -> np.ndarray:
    """Rank-one projection onto the given (nonzero) vector."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(d: int, rng: np.random.Generator, fld: str = "complex") -> np.ndarray:
    """Haar-ish random unitary (orthogonal for the real field) via QR."""
    if fld == "real":
        z = rng.normal(size=(d, d))
    else:
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph.conj()


def conjugation_action(U: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Real matrix of H -> U H U* in the coordinate space of `basis`."""
    cols = [basis.to_coords(U @ B @ U.conj().T) for B in basis.mats]
    return np.array(cols).T
