"""Built-in models: classical simplices, the square bit, and quantum samples.

Quantum models are finite samples of maximal measurement frames; every
sample here is closed under entrywise conjugation so conjugate searches
stay inside the model, and each ships a finite outcome-permutation group
(`sample_symmetries`) induced by unitaries that preserve the sample.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import quantum
from .linalg import ONE, ZERO
from .models import (Model, PermutationGroup, PolytopeBackend,
                     QuantumBackend, TestSpace, UnitaryGenerators)

DEFAULT_SEED = 42


def classical(n: int) -> Model:
    """One n-outcome test, simplex states, full symmetric group."""
    if n < 2:
        raise ValueError("classical model needs at least 2 outcomes")
    labels = tuple(f"e{i}" for i in range(n))
    verts = tuple(tuple(ONE if j == i else ZERO for j in range(n))
                  for i in range(n))
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    gens = (swap,) if n == 2 else (swap, cycle)
    return Model(f"classical:{n}", TestSpace(labels, (labels,)),
                 PolytopeBackend(verts), PermutationGroup(gens))


def _square_bit(name: str, generators) -> Model:
    ts = TestSpace(("x0", "x1", "y0", "y1"), (("x0", "x1"), ("y0", "y1")))
    F = Fraction
    verts = ((F(1), F(0), F(1), F(0)), (F(0), F(1), F(1), F(0)),
             (F(1), F(0), F(0), F(1)), (F(0), F(1), F(0), F(1)))
    return Model(name, ts, PolytopeBackend(verts),
                 PermutationGroup(generators))


def squit() -> Model:
    """Square bit: two binary tests, square state space, dihedral symmetry."""
    return _square_bit("squit", ((2, 3, 1, 0), (2, 3, 0, 1)))


def squit_klein() -> Model:
    """Square bit with only the Klein four-group of symmetries.

    Small enough that outcome identifications can descend: collapsing the
    two blocks {x0,y0} and {x1,y1} is a congruence and produces a classical
    bit image, which the dihedral squit does not admit.
    """
    return _square_bit("squit:klein", ((1, 0, 3, 2), (2, 3, 0, 1)))


# ---------------------------------------------------------------------------
# quantum samples

def _quantum_model(name: str, fld: str, dim: int, frames: list[list],
                   frame_labels: list[list[str]], sample_perm_gens,
                   seed: int) -> Model:
    basis = quantum.hermitian_basis(dim, fld)
    outcome_matrices = {}
    tests = []
    for frame, labels in zip(frames, frame_labels, strict=True):
        tests.append(tuple(labels))
        for P, lbl in zip(frame, labels, strict=True):
            outcome_matrices[lbl] = P
    outcomes = tuple(l for t in tests for l in t)
    rng = np.random.default_rng(seed)
    gens = tuple(quantum.conjugation_action(quantum.random_unitary(dim, rng, fld),
                                            basis) for _ in range(2))
    group = UnitaryGenerators(matrices=gens, seed=seed)
    sample = (PermutationGroup(tuple(sample_perm_gens))
              if sample_perm_gens else None)
    return Model(name, TestSpace(outcomes, tuple(tests)),
                 QuantumBackend(fld, dim, outcome_matrices, basis, builtin=True),
                 group, sample_symmetries=sample)


def _angle_projection(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    v = np.array([[c], [s]])
    return v @ v.T


def qubit_real(seed: int = DEFAULT_SEED) -> Model:
    """Real two-level system: lines at 0/90 and 45/135 degrees."""
    t = np.pi / 4
    frames = [[_angle_projection(0.0), _angle_projection(2 * t)],
              [_angle_projection(t), _angle_projection(3 * t)]]
    labels = [["a0", "a1"], ["b0", "b1"]]
    # rotation by 45 degrees: a0->b0, a1->b1, b0->a1, b1->a0
    # reflection in the a0 axis: b0 <-> b1
    perms = [(2, 3, 1, 0), (0, 1, 3, 2)]
    return _quantum_model("qubit:real", "real", 2, frames, labels, perms,
                          seed)


def _pauli_projections():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return {"z+": (eye + sz) / 2, "z-": (eye - sz) / 2,
            "x+": (eye + sx) / 2, "x-": (eye - sx) / 2,
            "y+": (eye + sy) / 2, "y-": (eye - sy) / 2}


def qubit_complex(seed: int = DEFAULT_SEED) -> Model:
    """Complex qubit sampled on the three Pauli frames (octahedron)."""
    P = _pauli_projections()
    frames = [[P["z+"], P["z-"]], [P["x+"], P["x-"]], [P["y+"], P["y-"]]]
    labels = [["z+", "z-"], ["x+", "x-"], ["y+", "y-"]]
    # outcome order: z+ z- x+ x- y+ y-
    rot_z = (0, 1, 4, 5, 3, 2)   # quarter turn about z: x->y, y->-x
    rot_x = (5, 4, 2, 3, 0, 1)   # quarter turn about x: y->z, z->-y
    return _quantum_model("qubit:complex", "complex", 2, frames, labels,
                          [rot_z, rot_x], seed)


def qutrit_complex(seed: int = DEFAULT_SEED) -> Model:
    """Complex three-level system sampled on six frames.

    The sample must span all 9 effect dimensions for the bipartite machinery
    to characterize maps on the whole space.  Real frames never leave the
    6-dimensional symmetric sector, and one conjugate pair of complex frames
    reaches only 2 of the 3 antisymmetric dimensions (each frame's imaginary
    parts sum to zero), so two conjugate pairs are included; conjugate
    partners also keep the sample closed under entrywise conjugation.
    """
    rng = np.random.default_rng(seed + 1)     # frame noise separate from group
    eye = np.eye(3, dtype=complex)
    comp = [quantum.projection(eye[:, i]) for i in range(3)]
    Wm = quantum.random_unitary(3, rng, "real").astype(complex)
    real_frame = [quantum.projection(Wm[:, i]) for i in range(3)]
    frames = [comp, real_frame]
    labels = [["c0", "c1", "c2"], ["r0", "r1", "r2"]]
    for tag in ("v", "w"):
        Vm = quantum.random_unitary(3, rng, "complex")
        fr = [quantum.projection(Vm[:, i]) for i in range(3)]
        frames += [fr, [P.conj() for P in fr]]
        labels += [[f"{tag}{i}" for i in range(3)],
                   [f"{tag}b{i}" for i in range(3)]]
    return _quantum_model("qutrit:complex", "complex", 3, frames, labels,
                          None, seed)


# ---------------------------------------------------------------------------
# registry

BUILTIN_FACTORIES = {
    "squit": squit,
    "squit:klein": squit_klein,
    "qubit:real": qubit_real,
    "qubit:complex": qubit_complex,
    "qutrit:complex": qutrit_complex,
}


def builtin_names() -> list[str]:
    return [f"classical:{n}" for n in range(2, 6)] + list(BUILTIN_FACTORIES)


def get_builtin(name: str, seed: int = DEFAULT_SEED) -> Model:
    if name.startswith("classical:"):
        return classical(int(name.split(":", 1)[1]))
    if name in ("squit", "squit:klein"):
        return BUILTIN_FACTORIES[name]()
    if name in BUILTIN_FACTORIES:
        return BUILTIN_FACTORIES[name](seed=seed)
    raise KeyError(f"unknown builtin {name!r}; known: {', '.join(builtin_names())}")


def conjugation_bijection(m: Model, tol: float = 1e-9) -> dict[str, str]:
    """Outcome bijection sending each effect to its entrywise conjugate.

    Identity for polytope and real-field models; for complex samples the
    sample must be closed under conjugation (built-ins are by construction).
    """
    if not isinstance(m.states, QuantumBackend) or m.states.field == "real":
        return {x: x for x in m.outcomes}
    qb = m.states
    out = {}
    for x in m.outcomes:
        target = qb.outcome_matrices[x].conj()
        for y in m.outcomes:
            if np.abs(qb.outcome_matrices[y] - target).max() <= tol:
                out[x] = y
                break
        else:
            raise ValueError(f"sample not closed under conjugation at {x!r}")
    return out
