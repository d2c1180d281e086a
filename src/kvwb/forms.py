"""Invariant symmetric bilinear forms and orthogonalizing SPIN forms.

A SPIN form is Symmetric, Positive on the effect cone, Invariant under the
symmetry action, and Normalized to B(u,u) = 1; it is orthogonalizing when it
vanishes on every distinguishable pair of outcomes.  The central uniqueness
statement checked here: on an irreducible model the space of candidate forms
has dimension one before normalization, and the normalized form (when it
admits cone positivity) is an inner product.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import pairwise_form_positivity
from .effectspace import OrderUnitSpace
from .linalg import (Vec, ONE, ZERO, dot, is_positive_definite, is_symmetric,
                     mat_mul, mat_vec, nullspace, np_nullspace, np_rref, rank,
                     transpose)
from .lp import free_feasibility
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

    def value(self, a, b):
        if self.kind == "exact":
            return dot(mat_vec(self.matrix, list(a)), list(b))
        return float(np.asarray(a) @ self.matrix @ np.asarray(b))

    def flag_summary(self) -> dict:
        return {"positive_on_cone": self.positive_on_cone,
                "invariant": self.invariant,
                "normalized": self.normalized,
                "orthogonalizing": self.orthogonalizing,
                "positive_definite": self.positive_definite}


# ---------------------------------------------------------------------------
# packed symmetric coordinates

def _pack_index(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _unpack(vec, dim: int, exact: bool):
    pairs = _pack_index(dim)
    if exact:
        S = [[ZERO] * dim for _ in range(dim)]
    else:
        S = np.zeros((dim, dim))
    for v, (i, j) in zip(vec, pairs):
        S[i][j] = v
        if exact:
            S[j][i] = v
        else:
            S[j, i] = v
    return S


def _invariance_rows(M, dim: int, exact: bool):
    """Rows of (M^T S M - S) = 0 over packed symmetric unknowns s_{ij}."""
    pairs = _pack_index(dim)
    pos = {p: k for k, p in enumerate(pairs)}
    rows = []
    for a in range(dim):
        for b in range(a, dim):
            row = [ZERO] * len(pairs) if exact else np.zeros(len(pairs))
            for k in range(dim):
                for l in range(dim):
                    coeff = M[k][a] * M[l][b] if exact else M[k, a] * M[l, b]
                    i, j = (k, l) if k <= l else (l, k)
                    row[pos[(i, j)]] += coeff
            row[pos[(a, b)]] -= 1 if exact else 1.0
            rows.append(row)
    return rows


def _pairing_row(x, y, dim: int, exact: bool):
    """Row computing x^T S y over packed symmetric unknowns."""
    pairs = _pack_index(dim)
    pos = {p: k for k, p in enumerate(pairs)}
    row = [ZERO] * len(pairs) if exact else np.zeros(len(pairs))
    for k in range(dim):
        for l in range(dim):
            coeff = x[k] * y[l]
            i, j = (k, l) if k <= l else (l, k)
            row[pos[(i, j)]] += coeff
    return row


# ---------------------------------------------------------------------------
# invariant forms

def _invariance_system(acts, dim: int, exact: bool) -> list:
    """Rows of M^T S M = S for every action M, over packed unknowns s_{ij}."""
    rows = []
    for M in acts:
        rows.extend(_invariance_rows(M if exact else np.asarray(M, float),
                                     dim, exact))
    return rows


def invariant_symmetric_forms(E: OrderUnitSpace) -> list[BilinearForm]:
    """Basis of symmetric forms with M_g^T B M_g = B for every generator.

    Invariance under the generators extends to the whole generated group,
    since the invariance condition is multiplicative in g, so the basis is
    one nullspace over the generator rows.
    """
    exact = E.kind == "exact"
    dim = E.dim
    rows = _invariance_system(E.actions, dim, exact)
    if exact:
        basis = nullspace(rows) if rows else _full_symmetric_basis(dim)
        out = [BilinearForm(_unpack(v, dim, True), "exact", invariant=True)
               for v in basis]
    else:
        if rows:
            null = np_nullspace(np.array(rows))
            null = np_rref(null) if null.shape[0] else null
        else:
            null = np.eye(dim * (dim + 1) // 2)
        out = [BilinearForm(_unpack(v, dim, False), "float", invariant=True)
               for v in null]
    return out


def _full_symmetric_basis(dim: int) -> list[Vec]:
    n = dim * (dim + 1) // 2
    return [[ONE if k == t else ZERO for k in range(n)] for t in range(n)]


def _fixed_covector_dim(acts, dim: int, exact: bool) -> int:
    """Dimension of {w : M^T w = w for every action M}."""
    if not acts:
        return dim
    if exact:
        rows = [[M[k][i] - (ONE if k == i else ZERO) for k in range(dim)]
                for M in acts for i in range(dim)]
        return dim - rank(rows)
    rows = np.vstack([np.asarray(M, float).T - np.eye(dim) for M in acts])
    return np_nullspace(rows).shape[0]


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
    is dim{invariant forms on V} - dim{w : M^T w = w}: two nullspaces over
    the generator rows, with no complement chosen.
    """
    n_forms = len(invariant_symmetric_forms(E))
    return n_forms - _fixed_covector_dim(E.actions, E.dim,
                                         E.kind == "exact") == 1


# ---------------------------------------------------------------------------
# orthogonalizing SPIN forms

@dataclass
class SpinFormResult:
    form: Optional[BilinearForm]
    solution_space_dim: int
    notes: list[str] = field(default_factory=list)
    basis: list = field(default_factory=list)        # homogeneous solution basis


def find_orthogonalizing_spin_form(m, E: OrderUnitSpace, tol: float = 1e-9
                                   ) -> SpinFormResult:
    """Solve {symmetric, invariant, zero on distinguishable pairs}, then
    normalize B(u,u)=1 and demand positivity on cone generator pairs.

    Returns the homogeneous solution dimension as the uniqueness certificate
    (1 means unique up to scale) and a form when the normalized slice meets
    the positivity constraints; positivity on generator pairs is sufficient
    for positivity on the whole cone by bilinearity.  The flags of the form
    are set by `certify_flags`; `invariant` holds by construction.
    """
    exact = E.kind == "exact"
    dim = E.dim

    pairs = set()
    for a, b in distinguishable_pairs(m):
        if (b, a) not in pairs:
            pairs.add((a, b))

    rows = _invariance_system(E.actions, dim, exact)
    for a, b in sorted(pairs):
        va, vb = E.outcome_vectors[a], E.outcome_vectors[b]
        rows.append(_pairing_row(list(va), list(vb), dim, exact))

    if exact:
        basis = nullspace(rows) if rows else _full_symmetric_basis(dim)
    else:
        null = np_nullspace(np.array(rows))
        basis = list(np_rref(null)) if null.shape[0] else []
    h = len(basis)
    if h == 0:
        return SpinFormResult(None, 0, ["only the zero form satisfies the "
                                        "linear constraints"])

    mats = [_unpack(v, dim, exact) for v in basis]
    u = list(E.u)
    gens = [list(g) for g in (E.cone_generators if exact
                              else [E.outcome_vectors[x] for x in m.outcomes])]

    if exact:
        uvals = [dot(mat_vec(S, u), u) for S in mats]
        ineqs = []
        for i in range(len(gens)):
            for j in range(i, len(gens)):
                coeffs = [dot(mat_vec(S, gens[i]), gens[j]) for S in mats]
                ineqs.append((coeffs, ZERO))
        res = free_feasibility(ineqs, [(uvals, ONE)], h)
        if not res.feasible:
            return SpinFormResult(None, h, ["no cone-positive form on the "
                                            "normalized slice"])
        S = [[sum(c * mats[k][i][j] for k, c in enumerate(res.point))
              for j in range(dim)] for i in range(dim)]
        form = BilinearForm(S, "exact", invariant=True)
        certify_flags(form, E, tol)
        return SpinFormResult(form, h, [], basis=mats)

    if h > 1:
        return SpinFormResult(None, h, [
            f"float search found a {h}-dimensional candidate space; "
            "refusing to pick a form numerically"], basis=mats)
    S = np.asarray(mats[0], dtype=float)
    uu = float(np.asarray(u) @ S @ np.asarray(u))
    if abs(uu) < tol:
        return SpinFormResult(None, h, ["candidate form is degenerate on the "
                                        "unit"], basis=mats)
    S = S / uu
    worst = min(float(np.asarray(g) @ S @ np.asarray(gj))
                for gi, g in enumerate(gens) for gj in gens[gi:])
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

    Exact forms are compared exactly, float forms within `tol`.  Positivity
    on the cone is checked on every pair of cone generators (the effect-cone
    generators, or every outcome vector of a float space), which suffices by
    bilinearity.  `invariant` is left to the caller: the spin search holds it
    by construction, and a derived form has it checked by unitarity.
    """
    vecs = E.outcome_vectors
    pairs = distinguishable_pairs(E.model)
    if form.kind == "exact":
        form.normalized = form.value(E.u, E.u) == 1
        form.orthogonalizing = all(form.value(vecs[a], vecs[b]) == 0
                                   for a, b in pairs)
        worst, _ = pairwise_form_positivity(E.cone_generators, form.matrix)
        form.positive_on_cone = worst >= 0
        form.positive_definite = is_positive_definite(form.matrix)
        return
    M = np.asarray(form.matrix)
    u = np.asarray(E.u, float)
    form.normalized = abs(float(u @ M @ u) - 1.0) <= tol
    form.orthogonalizing = all(abs(form.value(vecs[a], vecs[b])) <= tol
                               for a, b in pairs)
    gens = [np.asarray(vecs[x]) for x in E.model.outcomes]
    form.positive_on_cone = all(float(a @ M @ b) >= -tol
                                for a in gens for b in gens)
    form.positive_definite = bool(np.linalg.eigvalsh(M).min() > tol)


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
    notes = list(res.notes)
    if not irr:
        return SpinUniquenessReport(irr, res.solution_space_dim,
                                    res.form is not None,
                                    res.form.positive_definite if res.form else None,
                                    hypothesis_met=False, consistent=True,
                                    spin=res,
                                    notes=notes + ["hypothesis not met: "
                                                   "model is reducible"])
    ok = res.solution_space_dim <= 1
    pd = res.form.positive_definite if res.form is not None else None
    if res.form is not None:
        ok = ok and bool(pd)
    return SpinUniquenessReport(irr, res.solution_space_dim,
                                res.form is not None, pd,
                                hypothesis_met=True, consistent=ok,
                                spin=res, notes=notes)


# ---------------------------------------------------------------------------
# unitarity

def check_unitarity(actions, B: BilinearForm, tol: float = 1e-9) -> bool:
    """Every symmetry is B-unitary: its B-adjoint equals its inverse,
    i.e. M^T B M = B for each generator."""
    if B.kind == "exact":
        from .linalg import det
        if det(B.matrix) == 0:
            raise ValueError("unitarity check needs an invertible form")
        for M in actions:
            Mm = [list(r) for r in M]
            lhs = mat_mul(transpose(Mm), mat_mul(B.matrix, Mm))
            if lhs != B.matrix:
                return False
        return True
    Bm = np.asarray(B.matrix, dtype=float)
    if abs(np.linalg.det(Bm)) < tol:
        raise ValueError("unitarity check needs an invertible form")
    for M in actions:
        Mm = np.asarray(M, dtype=float)
        if np.abs(Mm.T @ Bm @ Mm - Bm).max() > tol:
            return False
    return True
