"""Invariant symmetric bilinear forms and orthogonalizing SPIN forms.

A SPIN form is Symmetric, Positive on the effect cone, Invariant under the
symmetry action, and Normalized to B(u,u) = 1; it is orthogonalizing when it
vanishes on every distinguishable pair of outcomes.  The central uniqueness
statement checked here: on an irreducible model the space of candidate forms
has dimension one before normalization, and the normalized form (when it
admits cone positivity) is an inner product.  The exact checks run on
Python integers, each matrix M read as the pair (s, s·M) made once with it
(`OrderUnitSpace.actions`, `BilinearForm.scaled`); the float ones are the
same products with s = 1.0 and keep their bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .effectspace import OrderUnitSpace
from .linalg import _Kind, _lowest, is_positive_definite, is_symmetric
from .lp import CertificateError, _merge_rows, free_feasibility
from .models import distinguishable_pairs

TRI_STATE = Optional[bool]          # True / False / None = unchecked


@dataclass(eq=False)
class BilinearForm:
    matrix: object                   # Mat (exact) or np.ndarray (float)
    kind: str                        # "exact" | "float"
    positive_on_cone: TRI_STATE = None
    invariant: TRI_STATE = None
    normalized: TRI_STATE = None
    orthogonalizing: TRI_STATE = None
    positive_definite: TRI_STATE = None

    def __post_init__(self):
        if self.kind == "exact":
            if not is_symmetric(self.matrix):
                raise ValueError("bilinear form matrix must be symmetric")
        else:
            M = np.asarray(self.matrix, dtype=float)
            if np.abs(M - M.T).max() > 1e-9:
                raise ValueError("bilinear form matrix must be symmetric")
            self.matrix = (M + M.T) / 2

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def from_scaled(cls, pair: tuple, **flags) -> "BilinearForm":
        """The exact form of its pair (s, s·M), M symmetric by construction:
        no check, and `.matrix` is made when first read (`__getattr__`)."""
        form = cls.__new__(cls)
        form.__dict__.update(kind="exact", scaled=pair, **flags)
        return form

    def __getattr__(self, name: str):
        if name != "matrix" or "scaled" not in self.__dict__:
            raise AttributeError(name)
        self.matrix = _Kind(self.kind).unscaled(self.scaled)
        return self.matrix

    @cached_property
    def scaled(self) -> tuple:
        """The matrix as the pair (s, s·M) of `_Kind.scaled`, made once."""
        return _Kind(self.kind).scaled(self.matrix)

    def value(self, a, b):
        K = _Kind(self.kind)
        return K.array(a) @ K.array(self.matrix) @ K.array(b)

    def flag_summary(self) -> dict:
        return {"positive_on_cone": self.positive_on_cone,
                "invariant": self.invariant,
                "normalized": self.normalized,
                "orthogonalizing": self.orthogonalizing,
                "positive_definite": self.positive_definite}


# ---------------------------------------------------------------------------
# packed symmetric coordinates

def _packed_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row r: the coefficients of X[r]^T S Y[r] over the packed unknowns
    s_ij (i <= j, in `np.triu_indices` order) of a symmetric S.

    The coefficient of s_ij is 0 + X[r,i] Y[r,j] + X[r,j] Y[r,i] (the last
    term only when i < j), summed in that order for every kind.
    """
    iu, ju = np.triu_indices(X.shape[1])
    P = X[:, :, None] * Y[:, None, :]
    rows = P[:, iu, ju] + 0
    off = iu != ju
    rows[:, off] += P[:, ju[off], iu[off]]
    return rows


def invariance_rows(actions, dim: int, kind: str) -> np.ndarray:
    """Rows of M^T S M = S for every action pair (s, s·M), over the packed
    unknowns: row (a, b) is the pairing of columns a and b of s·M, less
    s²·s_ab: s² times the rational row."""
    K = _Kind(kind)
    iu, ju = np.triu_indices(dim)
    blocks = [K.zeros((0, len(iu)))]
    for s, A in actions:
        rows = _packed_rows(A.T[iu], A.T[ju])
        rows[np.diag_indices(len(iu))] -= s * s
        blocks.append(rows)
    return np.concatenate(blocks)


def _unpack(v, dim: int, K: _Kind):
    """The symmetric matrix with packed entries v, in the kind's container."""
    iu, ju = np.triu_indices(dim)
    S = K.zeros((dim, dim))
    S[iu, ju] = v
    S[ju, iu] = v
    return K.native(S)


# ---------------------------------------------------------------------------
# invariant forms

def _fixed_covector_dim(E: OrderUnitSpace) -> int:
    """Dimension of {w : M^T w = w for every action M}: rows s·M^T - s·I."""
    K = _Kind(E.kind)
    rows = [A.T - s * np.identity(E.dim, A.dtype) for s, A in E.actions]
    return K.nullity(np.concatenate([K.zeros((0, E.dim)), *rows]))


def _outcome_rows(E: OrderUnitSpace, K: _Kind) -> np.ndarray:
    """The outcome vectors as rows, in outcome order; when exact, the outcome
    frame's integers, a positive multiple."""
    return (E.outcome_frame.vectors[1] if K.exact else
            K.array([E.outcome_vectors[x] for x in E.model.outcomes]))


# ---------------------------------------------------------------------------
# irreducibility

def is_irreducible(E: OrderUnitSpace) -> bool:
    """Exactly one invariant symmetric form on u-perp, up to scale.

    For a finite or compact group every invariant subspace carries an
    invariant positive form, so a reducible action admits at least two
    independent invariant symmetric forms on u-perp; irreducible real
    representations of every type admit exactly one *symmetric* one.

    The count is taken from the generators alone.  The unit is fixed, so
    V = Ru + W with W an invariant complement.  The invariant symmetric
    forms on V are those on Ru (one), the products of Ru with the fixed
    covectors of W, and those on W; the fixed covectors of V are one on Ru
    plus those of W.  Hence the number of invariant symmetric forms on W
    is dim{invariant forms on V} - dim{w : M^T w = w}: two nullities over
    the generator rows, with no basis built and no complement chosen.
    """
    return (_Kind(E.kind).nullity(E.invariance_rows)
            - _fixed_covector_dim(E) == 1)


# ---------------------------------------------------------------------------
# orthogonalizing SPIN forms

@dataclass
class SpinFormResult:
    form: Optional[BilinearForm]
    solution_space_dim: int
    notes: list[str] = field(default_factory=list)
    basis: list = field(default_factory=list)        # homogeneous solution basis

    @property
    def good_form(self) -> Optional[BilinearForm]:
        """The form in good standing: the form when every flag holds."""
        f = self.form
        return f if f is not None and all(f.flag_summary().values()) else None


def find_orthogonalizing_spin_form(m, E: OrderUnitSpace, tol: float = 1e-9
                                   ) -> SpinFormResult:
    """Solve {symmetric, invariant, zero on distinguishable pairs}, then
    normalize B(u,u)=1 and demand positivity on cone generator pairs.

    Returns the homogeneous solution dimension as the uniqueness certificate
    (1 means unique up to scale) and a form when the normalized slice meets
    the positivity constraints; positivity on generator pairs is sufficient
    for positivity on the whole cone by bilinearity.  An exact space finds
    the form by an LP over the whole solution space, with equal positivity
    rows merged and the point checked on every pair; a float one refuses a
    solution space of dimension above one.  The flags of the form are set
    by `certify_flags`; `invariant` holds by construction.
    """
    K = _Kind(E.kind, tol)
    dim = E.dim

    pairs = set()
    for a, b in distinguishable_pairs(m):
        if (b, a) not in pairs:
            pairs.add((a, b))
    pairs = sorted(pairs)
    V = _outcome_rows(E, K)
    at = {x: i for i, x in enumerate(E.model.outcomes)}
    X, Y = (V[[at[p[k]] for p in pairs]].reshape(-1, dim) for k in (0, 1))
    basis = K.nullspace(np.concatenate([E.invariance_rows,
                                        _packed_rows(X, Y)]))
    h = len(basis)
    if h == 0:
        return SpinFormResult(None, 0, ["only the zero form satisfies the "
                                        "linear constraints"])

    mats = [_unpack(v, dim, K) for v in basis]
    if K.exact:
        s, A = K.scaled(mats)                       # one denominator for all
        G = E.effect_cone.matrix
        s_u, U = E.scaled_unit
        iu, ju = np.triu_indices(len(G))
        P = (G @ A @ G.T)[:, iu, ju]                # s · g·A_k·g', per pair
        ineqs = _merge_rows([({k: x for k, x in enumerate(col) if x}, s)
                             for col in P.T.tolist()], range(h))[0]
        q_u = s * s_u * s_u
        norm = {k: x for k, x in enumerate((U @ A @ U).tolist()) if x}
        res = free_feasibility(ineqs, [({**norm, h: q_u}, q_u)], h)
        if not res.feasible:
            return SpinFormResult(None, h, ["no cone-positive form on the "
                                            "normalized slice"])
        s_c, C = K.scaled(res.point)
        if (np.tensordot(C, P, 1) < 0).any():      # every unmerged row
            raise CertificateError("spin form fails a positivity row")
        form = BilinearForm.from_scaled(
            _lowest(s_c * s, np.tensordot(C, A, 1)), invariant=True)
        certify_flags(form, E, tol)
        return SpinFormResult(form, h, [], basis=mats)

    if h > 1:
        return SpinFormResult(None, h, [
            f"float search found a {h}-dimensional candidate space; "
            "refusing to pick a form numerically"], basis=mats)
    u = np.asarray(E.u, dtype=float)
    S = mats[0]
    uu = float(u @ S @ u)
    if abs(uu) < tol:
        return SpinFormResult(None, h, ["candidate form is degenerate on the "
                                        "unit"], basis=mats)
    S = S / uu
    gens = [np.asarray(E.outcome_vectors[x]) for x in m.outcomes]
    gS = [g @ S for g in gens]              # (g @ S) @ y is g @ S @ y
    worst = min(float(a @ y) for i, a in enumerate(gS) for y in gens[i:])
    if worst < -tol:
        return SpinFormResult(None, h, [f"normalized form fails cone "
                                        f"positivity ({worst:.3e})"],
                              basis=mats)
    form = BilinearForm(S, "float", invariant=True)
    certify_flags(form, E, tol)
    ev = float(np.linalg.eigvalsh(S).min())
    return SpinFormResult(form, h, [f"minimum eigenvalue {ev:.6e}"],
                          basis=mats)


def certify_flags(form: BilinearForm, E: OrderUnitSpace,
                  tol: float = 1e-9) -> None:
    """Set the normalized, orthogonalizing, positive_on_cone and
    positive_definite flags of `form` on the effect space `E`.

    Values are compared with the kind's zero tolerance: exactly, or within
    `tol`.  One Gram matrix V S V^T of the outcome vectors answers the
    distinguishable pairs and positivity on the cone, which the outcome
    vectors generate, so their pairs suffice by bilinearity.  Positive
    definiteness is Sylvester's criterion when exact and the least
    eigenvalue otherwise.  `invariant` is left to the caller: the spin
    search holds it by construction, and a derived form has it checked by
    unitarity.
    """
    K = _Kind(form.kind, tol)
    (s, M), (s_u, u) = form.scaled, E.scaled_unit
    form.normalized = K.is_zero(u @ M @ u - s_u * s_u * s)
    V = _outcome_rows(E, K)
    G = V @ M @ V.T
    at = {x: i for i, x in enumerate(E.model.outcomes)}
    pairs = distinguishable_pairs(E.model)
    form.orthogonalizing = K.is_zero(G[[at[a] for a, _ in pairs],
                                       [at[b] for _, b in pairs]])
    form.positive_on_cone = bool(G.min() >= -K.tol)
    form.positive_definite = (is_positive_definite(M) if K.exact
                              else bool(np.linalg.eigvalsh(M).min() > tol))


# ---------------------------------------------------------------------------
# uniqueness / inner-product report

@dataclass
class SpinUniquenessReport:
    irreducible: Optional[bool]
    solution_space_dim: int
    form_found: bool
    positive_definite: Optional[bool]
    hypothesis_met: bool
    consistent: bool
    spin: SpinFormResult             # the search the verdict rests on
    notes: list[str] = field(default_factory=list)


def check_spin_uniqueness(m, E: OrderUnitSpace,
                          tol: float = 1e-9) -> SpinUniquenessReport:
    """Uniqueness + inner-product statement, instantiated on one model.

    On an irreducible model there is at most one orthogonalizing SPIN form,
    and if it exists it is positive definite.  Reducible models leave the
    statement silent ("hypothesis not met").  The spin-form search runs
    once; its result is returned as `spin`.
    """
    irr = is_irreducible(E)
    res = find_orthogonalizing_spin_form(m, E, tol=tol)
    pd = res.form.positive_definite if res.form is not None else None
    ok = not irr or (res.solution_space_dim <= 1 and pd is not False)
    return SpinUniquenessReport(
        irr, res.solution_space_dim, res.form is not None, pd,
        hypothesis_met=irr, consistent=ok, spin=res,
        notes=res.notes + ([] if irr else ["hypothesis not met: model is "
                                           "reducible"]))


# ---------------------------------------------------------------------------
# unitarity

def check_unitarity(actions, B: BilinearForm, tol: float = 1e-9) -> bool:
    """Every symmetry, as the pair (s, s·M), is B-unitary: its B-adjoint
    equals its inverse, i.e. (sM)^T B (sM) = s² B for each generator.  B
    must be invertible, which the kind's rank decides: a determinant test
    would depend on the scale of B (det(I/n) on n² dimensions is n^(-n²))."""
    K = _Kind(B.kind, tol)
    Bm = B.scaled[1]
    if K.rank(Bm) < len(Bm):
        raise ValueError("unitarity check needs an invertible form")
    return all(K.is_zero(A.T @ Bm @ A - s * s * Bm) for s, A in actions)
