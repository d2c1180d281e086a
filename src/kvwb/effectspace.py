"""Order-unit coordinates for a model's outcome effects.

Every outcome x acts on states as the evaluation functional alpha -> alpha(x).
These functionals span the dual of the state span; picking a maximal
independent family of extreme states as a coordinate frame turns each effect
into a concrete vector, the order unit into the all-ones vector, and each
symmetry into an explicit matrix.  Quantum models use a Hilbert-Schmidt
orthonormal operator basis instead and stay in floats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import quantum
from .cones import PolyhedralCone, cone, dual_cone
from .linalg import (Vec, ONE, ZERO, _Kind, _lowest, column_space_basis,
                     transpose)
from .models import Model, PermutationGroup, PolytopeBackend, QuantumBackend


class EffectSpaceError(ValueError):
    pass


class OutcomeFrame(NamedTuple):
    """Positions `at` of the first maximal independent family of outcome
    effects; the pairs (s, s·M) for M the inverse of the matrix with their
    vectors as columns and for M with every outcome vector as a row."""

    at: list[int]
    inverse: tuple
    vectors: tuple


@dataclass(eq=False)
class OrderUnitSpace:
    """Coordinates for the span of a model's outcome effects.

    The one analysis context of a model: the symmetry actions and the dual
    effect cone are derived from it on first use and kept, so every stage
    shares them.
    """

    model: Model
    kind: str                                   # "exact" | "float"
    dim: int
    u: object                                   # Vec (exact) or np.ndarray (float)
    outcome_vectors: dict[str, object]
    basis_states: tuple[int, ...] = ()          # polytope: coordinate vertex indices
    effect_cone: Optional[PolyhedralCone] = None
    basis: Optional[quantum.HermitianBasis] = None
    span_dim: int = 0
    collapse: list[tuple[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def cone_generators(self) -> list:
        """Outcome vectors, deduplicated — the generators of the effect cone."""
        if self.effect_cone is not None:
            return self.effect_cone.all_generators()
        seen, out = set(), []
        for x in self.model.outcomes:
            key = tuple(np.round(np.asarray(self.outcome_vectors[x]), 12))
            if key not in seen:
                seen.add(key)
                out.append(self.outcome_vectors[x])
        return out

    # ---- symmetries as matrices -------------------------------------------
    def all_effect_actions(self) -> list:
        """The pairs (s, s·M) of the effect-space actions of the symmetry
        generators, integers over the least denominator s when exact.

        An outcome permutation g sends the effect of x to that of g(x): its
        exact matrix M solves V Mᵀ = V[g], V the outcome vectors as rows, on
        the outcome frame's inverse (one elimination per model) by one
        integer product per generator, checked on every outcome.  Unitary
        generators already come as coordinate matrices.
        """
        m, K = self.model, _Kind(self.kind)
        if not isinstance(m.group, PermutationGroup):
            return [K.scaled(M) for M in m.group.matrices]
        if not K.exact:
            return [K.scaled(g) for g in m.group.generators]
        frame = self.outcome_frame
        (s_i, inv), (s_v, V) = frame.inverse, frame.vectors
        s = s_v * s_i
        out = []
        for g in m.group.generators:
            P = V[[g[x] for x in frame.at]].T @ inv        # s·M
            if (V @ P.T != V[list(g)] * s).any():
                raise EffectSpaceError("symmetry moved a basis state outside "
                                       "the state span")
            out.append(_lowest(s, P))
        return out

    @cached_property
    def actions(self) -> tuple:
        """`all_effect_actions`, computed once for every stage."""
        return tuple(self.all_effect_actions())

    @cached_property
    def scaled_unit(self) -> tuple:
        """The unit as the pair (s, s·u) of `_Kind.scaled`, made once."""
        return _Kind(self.kind).scaled(self.u)

    @cached_property
    def invariance_rows(self):
        """Rows of M^T S M = S over packed symmetric S for every action,
        built once for the forms that need them (`forms.invariance_rows`)."""
        from .forms import invariance_rows
        return invariance_rows(self.actions, self.dim, self.kind)

    @cached_property
    def outcome_frame(self) -> OutcomeFrame:
        """Built once: the pivot columns of the outcome vectors when exact;
        on floats an outcome joins the family when it raises its rank."""
        K = _Kind(self.kind)
        s_v, V = K.scaled([self.outcome_vectors[x]
                           for x in self.model.outcomes])
        if K.exact:
            at = column_space_basis(V.T.tolist())
        else:
            at = []
            for i in range(len(V)):
                if len(at) < self.dim and K.rank(V[at + [i]]) == len(at) + 1:
                    at.append(i)
        if len(at) < self.dim:
            raise EffectSpaceError("sampled outcomes do not span the effect "
                                   "space")
        return OutcomeFrame(at, K.inverse((s_v, V[at].T)), (s_v, V))

    @cached_property
    def dual_effect_cone(self) -> PolyhedralCone:
        """{v : v.g >= 0 for every effect}, computed once; exact spaces only."""
        return dual_cone(self.effect_cone)


def build_effect_space(m: Model) -> OrderUnitSpace:
    if isinstance(m.states, PolytopeBackend):
        return _build_exact(m)
    return _build_float(m)


def _build_exact(m: Model) -> OrderUnitSpace:
    verts = [list(v) for v in m.states.vertices]
    if not verts:
        raise EffectSpaceError("model has no states")
    A = transpose(verts)           # columns = states
    basis_idx = tuple(column_space_basis(A))
    k = len(basis_idx)

    coords: dict[str, Vec] = {}
    for x in m.outcomes:
        xi = m.testspace.index(x)
        coords[x] = [m.states.vertices[i][xi] for i in basis_idx]

    collapse = []
    labels = list(m.outcomes)
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            if coords[x] == coords[y]:
                collapse.append((x, y))

    u = [ONE] * k                   # every basis state sums to 1 on any test
    for t in m.tests:
        tot = [ZERO] * k
        for x in t:
            tot = [a + b for a, b in zip(tot, coords[x])]
        if tot != u:
            raise EffectSpaceError(f"test {t} does not sum to the order unit")

    K = cone(coords[x] for x in m.outcomes)
    notes = []
    if collapse:
        notes.append(f"{len(collapse)} outcome pairs share an effect vector")
    return OrderUnitSpace(model=m, kind="exact", dim=k, u=u,
                          outcome_vectors=coords, basis_states=basis_idx,
                          effect_cone=K, span_dim=k, collapse=collapse,
                          notes=notes)


def _build_float(m: Model) -> OrderUnitSpace:
    qb: QuantumBackend = m.states
    basis = qb.basis
    stacked = qb.outcome_coords(m.outcomes)
    coords = dict(zip(m.outcomes, stacked))
    span = int(np.linalg.matrix_rank(stacked, tol=1e-9))
    notes = []
    if span < basis.space_dim:
        notes.append(f"sampled outcomes span only {span} of "
                     f"{basis.space_dim} effect dimensions")
    # np.allclose(x, y, atol=1e-12) for every pair x before y at once
    X, Y = stacked[:, None], stacked[None]
    with np.errstate(invalid="ignore"):
        close = ((np.abs(X - Y) <= 1e-12 + 1e-5 * np.abs(Y)) & np.isfinite(Y)
                 | (X == Y)).all(axis=2)
    labels = list(m.outcomes)
    collapse = [(labels[i], labels[j])
                for i, j in zip(*np.nonzero(np.triu(close, 1)))]
    return OrderUnitSpace(model=m, kind="float", dim=basis.space_dim,
                          u=basis.unit_coords, outcome_vectors=coords,
                          basis=basis, span_dim=span, collapse=collapse,
                          notes=notes)


def min_eigenvalues(basis: quantum.HermitianBasis, V) -> np.ndarray:
    """The least eigenvalue of the operator of v, or of each row of a stack
    V, in a Hermitian operator basis: one stacked `eigvalsh`, each row
    getting the floats of its own call."""
    H = basis.from_coords(np.asarray(V, dtype=float))
    return np.linalg.eigvalsh((H + H.conj().swapaxes(-1, -2)) / 2).min(axis=-1)

