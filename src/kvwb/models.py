"""Core types: test spaces, states, symmetry groups, models, morphisms.

Probabilities on polytope-backed models are exact `Fraction`s throughout;
the quantum backend keeps operator payloads and works in floats.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import quantum
from .linalg import ONE, ZERO, frac, np_nullspace
from .lp import cone_membership, solve_feasibility

Perm = tuple[int, ...]

#: Largest orbit of ordered tests that `check_bisymmetry` explores before it
#: leaves full bi-symmetry unknown.
ORBIT_LIMIT = 10**6


class ModelError(ValueError):
    """Raised when a model or morphism violates a structural requirement."""


# ---------------------------------------------------------------------------
# permutations

def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def orbit(seed, act, generators, limit: Optional[int] = None) -> set:
    """Orbit of `seed` under the maps act(g, -) for each generator g.

    With a `limit` the search stops as soon as more than `limit` points are
    found, and the partial orbit it returns has `limit + 1` points.
    """
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if limit is not None and len(seen) > limit:
                        return seen
        frontier = nxt
    return seen


@dataclass(frozen=True)
class PermutationGroup:
    """Finite symmetry group presented by outcome permutations."""

    generators: tuple[Perm, ...]

    @property
    def kind(self) -> str:
        return "permutation"


@dataclass(frozen=True, eq=False)
class UnitaryGenerators:
    """Topological generators of a continuous group, given as their induced
    invertible linear actions on effect-space coordinates."""

    matrices: tuple[np.ndarray, ...]
    seed: int
    note: str = "pseudo-random unitaries at fixed seed"

    @property
    def kind(self) -> str:
        return "generators"


# ---------------------------------------------------------------------------
# test spaces and state backends

@dataclass(frozen=True)
class TestSpace:
    outcomes: tuple[str, ...]
    tests: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ModelError("outcome labels must be unique")
        if not self.tests:
            raise ModelError("a test space needs at least one test")
        covered = set()
        for t in self.tests:
            if not t:
                raise ModelError("tests must be non-empty")
            if len(set(t)) != len(t):
                raise ModelError(f"test {t} repeats an outcome")
            for x in t:
                if x not in self.outcomes:
                    raise ModelError(f"test outcome {x!r} is not declared")
            covered.update(t)
        if covered != set(self.outcomes):
            missing = sorted(set(self.outcomes) - covered)
            raise ModelError(f"outcomes outside every test: {missing}")

    def index(self, label: str) -> int:
        return self.outcomes.index(label)

    def tests_containing(self, label: str) -> list[int]:
        return [i for i, t in enumerate(self.tests) if label in t]


@dataclass(frozen=True, eq=False)
class PolytopeBackend:
    """State space given by its extreme points, exact rational entries."""

    vertices: tuple[tuple[Fraction, ...], ...]

    @property
    def kind(self) -> str:
        return "polytope"


@dataclass(frozen=True, eq=False)
class QuantumBackend:
    """Density-operator state space over a real or complex Hilbert space.

    The test space of such a model is a finite sample of maximal frames;
    each sampled outcome carries its rank-one projection.
    """

    field: str
    dim: int
    outcome_matrices: dict[str, np.ndarray]
    basis: quantum.HermitianBasis
    builtin: bool = False
    _coords: dict = field(default_factory=dict, init=False, repr=False)

    def outcome_coords(self, outcomes) -> np.ndarray:
        """Read-only matrix whose rows are the basis coordinates of the
        outcome matrices, in the given order; built once per order."""
        key = tuple(outcomes)
        if key not in self._coords:
            C = np.array([self.basis.to_coords(self.outcome_matrices[x])
                          for x in key])
            C.setflags(write=False)
            self._coords[key] = C
        return self._coords[key]

    @property
    def kind(self) -> str:
        return "quantum"


@dataclass(frozen=True, eq=False)
class Model:
    name: str
    testspace: TestSpace
    states: PolytopeBackend | QuantumBackend
    group: PermutationGroup | UnitaryGenerators
    sample_symmetries: Optional[PermutationGroup] = None

    def __post_init__(self):
        sizes = {len(t) for t in self.testspace.tests}
        if len(sizes) != 1:
            raise ModelError(f"tests have unequal sizes {sorted(sizes)}; "
                             "models here must be rank-uniform")

    @property
    def rank(self) -> int:
        return len(self.testspace.tests[0])

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.testspace.outcomes

    @property
    def tests(self) -> tuple[tuple[str, ...], ...]:
        return self.testspace.tests

    def vertex_dict(self, i: int) -> dict[str, Fraction]:
        v = self.states.vertices[i]
        return dict(zip(self.outcomes, v, strict=True))


def act_on_state(g: Perm, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """(g.alpha)(x) = alpha(g^{-1} x)."""
    ginv = perm_inverse(g)
    return tuple(v[ginv[i]] for i in range(len(v)))


def act_on_test(g: Perm, test_idx: int, ts: TestSpace) -> frozenset[int]:
    return frozenset(g[ts.index(x)] for x in ts.tests[test_idx])


def vertex_permutation(m: Model, g: Perm) -> Optional[Perm]:
    """How g permutes the extreme states, or None if it fails to."""
    verts = m.states.vertices
    lookup = {v: i for i, v in enumerate(verts)}
    images = []
    for v in verts:
        w = act_on_state(g, v)
        if w not in lookup:
            return None
        images.append(lookup[w])
    return tuple(images)


# ---------------------------------------------------------------------------
# validation

@dataclass
class ValidationReport:
    ok: bool
    problems: list[str]
    data: dict


def validate_model(m: Model, tol: float = 1e-9) -> ValidationReport:
    """Check every structural invariant of a model; report all violations."""
    problems: list[str] = []
    data: dict = {"backend": m.states.kind, "rank": m.rank,
                  "outcomes": len(m.outcomes), "tests": len(m.tests)}
    ts = m.testspace

    test_sets = {frozenset(ts.index(x) for x in t) for t in ts.tests}

    if isinstance(m.group, PermutationGroup):
        for k, g in enumerate(m.group.generators):
            if sorted(g) != list(range(len(m.outcomes))):
                problems.append(f"generator {k} is not a permutation")
                continue
            for ti in range(len(ts.tests)):
                if act_on_test(g, ti, ts) not in test_sets:
                    problems.append(f"generator {k} maps test {ti} outside the test catalog")

    if isinstance(m.states, PolytopeBackend):
        for vi, v in enumerate(m.states.vertices):
            if len(v) != len(m.outcomes):
                problems.append(f"state {vi} has wrong arity")
                continue
            for x in v:
                if x < 0 or x > 1:
                    problems.append(f"state {vi} has entry {x} outside [0,1]")
                    break
            for t in ts.tests:
                s = sum((v[ts.index(x)] for x in t), ZERO)
                if s != 1:
                    problems.append(f"state {vi} sums to {s} on test {t}")
        if isinstance(m.group, PermutationGroup):
            for k, g in enumerate(m.group.generators):
                if vertex_permutation(m, g) is None:
                    problems.append(f"generator {k} does not preserve the extreme states")
        if len(set(m.states.vertices)) != len(m.states.vertices):
            problems.append("duplicate extreme states")
    else:
        qb: QuantumBackend = m.states
        d = qb.dim
        for x in m.outcomes:
            P = qb.outcome_matrices[x]
            if np.abs(P - P.conj().T).max() > tol:
                problems.append(f"outcome {x} is not self-adjoint")
            if abs(np.trace(P).real - 1) > tol or np.abs(P @ P - P).max() > tol:
                problems.append(f"outcome {x} is not a rank-one projection")
        for t in ts.tests:
            S = sum(qb.outcome_matrices[x] for x in t)
            if np.abs(S - np.eye(d)).max() > tol:
                problems.append(f"test {t} does not resolve the identity")
            for a, b in itertools.combinations(t, 2):
                if np.abs(qb.outcome_matrices[a] @ qb.outcome_matrices[b]).max() > tol:
                    problems.append(f"outcomes {a},{b} in a common test are not orthogonal")
        if isinstance(m.group, UnitaryGenerators):
            for k, M in enumerate(m.group.matrices):
                if abs(np.linalg.det(M)) < tol:
                    problems.append(f"effect-space generator {k} is singular")

    return ValidationReport(ok=not problems, problems=problems, data=data)


# ---------------------------------------------------------------------------
# basic relations

def distinguishable(m: Model, x: str, y: str) -> bool:
    """True iff x != y and some test contains both."""
    for lbl in (x, y):
        if lbl not in m.outcomes:
            raise ModelError(f"unknown outcome {lbl!r}")
    if x == y:
        return False
    return any(x in t and y in t for t in m.tests)


def distinguishable_pairs(m: Model) -> list[tuple[str, str]]:
    """All ordered pairs of distinct outcomes sharing a test."""
    out = []
    for t in m.tests:
        for a, b in itertools.permutations(t, 2):
            if (a, b) not in out:
                out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# bi-symmetry

@dataclass
class BisymmetryReport:
    pure_state_transitive: Optional[bool]
    test_transitive: Optional[bool]
    pair_transitive: Optional[bool]
    fully_bisymmetric: Optional[bool]
    orbit_counts: dict
    notes: list[str]

    @property
    def bisymmetric(self) -> Optional[bool]:
        vals = (self.pure_state_transitive, self.test_transitive, self.pair_transitive)
        if any(v is False for v in vals):
            return False
        if all(v is True for v in vals):
            return True
        return None


def check_bisymmetry(m: Model) -> BisymmetryReport:
    """Orbit counts of the generators on pure states, tests and pairs, and
    full bi-symmetry: transitivity on ordered tests.

    The group is never enumerated.  Full bi-symmetry holds exactly when the
    orbit of test 0, read as an ordered tuple of outcomes, reaches all
    `#tests * rank!` orderings of tests; past `ORBIT_LIMIT` ordered tests it
    is left unknown (`None`) with a note.
    """
    if isinstance(m.states, QuantumBackend):
        if m.states.builtin:
            note = ("analytic rule for the standard quantum model: the unitary "
                    "group acts transitively on pure states, frames, and ordered "
                    "orthogonal pairs, and every frame bijection is unitary")
            return BisymmetryReport(True, True, True, True,
                                    {"pure_states": 1, "tests": 1, "pairs": 1}, [note])
        return BisymmetryReport(None, None, None, None, {},
                                ["transitivity is undecidable from generator samples"])

    gens = m.group.generators
    ts = m.testspace
    notes: list[str] = []

    vperms = [vertex_permutation(m, g) for g in gens]
    n_verts = len(m.states.vertices)
    vert_orbits = _orbit_count(range(n_verts), lambda g, i: g[i], vperms)
    test_orbits = _orbit_count(range(len(ts.tests)),
                               lambda g, ti: _test_image_index(g, ti, ts), gens)
    pairs = [(ts.index(a), ts.index(b)) for a, b in distinguishable_pairs(m)]
    pair_orbits = _orbit_count(pairs, lambda g, p: (g[p[0]], g[p[1]]), gens)

    # the test orbit above already raised if a generator leaves the catalog,
    # so this orbit stays inside the orderings of tests
    ordered = orbit(tuple(ts.index(x) for x in ts.tests[0]),
                    lambda g, t: tuple(map(g.__getitem__, t)), gens,
                    limit=ORBIT_LIMIT)
    fully: Optional[bool] = None
    if len(ordered) > ORBIT_LIMIT:
        notes.append(f"orbit of ordered tests exceeds {ORBIT_LIMIT}; "
                     "full bi-symmetry left unknown")
    else:
        n_tests = len({frozenset(t) for t in ts.tests})
        fully = len(ordered) == n_tests * math.factorial(m.rank)

    return BisymmetryReport(
        pure_state_transitive=vert_orbits == 1,
        test_transitive=test_orbits == 1,
        pair_transitive=pair_orbits == 1 if pairs else True,
        fully_bisymmetric=fully,
        orbit_counts={"pure_states": vert_orbits, "tests": test_orbits,
                      "pairs": pair_orbits},
        notes=notes,
    )


def _test_image_index(g: Perm, ti: int, ts: TestSpace) -> int:
    img = act_on_test(g, ti, ts)
    for j, t in enumerate(ts.tests):
        if frozenset(ts.index(x) for x in t) == img:
            return j
    raise ModelError("generator does not preserve the test catalog")


def _orbit_count(items, act, gens) -> int:
    items = list(items)
    remaining = set(items)
    count = 0
    while remaining:
        seed = next(x for x in items if x in remaining)
        remaining -= orbit(seed, act, gens)
        count += 1
    return count


# ---------------------------------------------------------------------------
# sharpness

@dataclass
class SharpnessReport:
    sharp: bool
    witness: Optional[dict]
    notes: list[str]


def is_sharp(m: Model) -> SharpnessReport:
    """Does every outcome have probability one in exactly one state?

    The face {alpha : alpha(x) = 1} of a polytope is the hull of the extreme
    states lying on it, so sharpness reduces to counting vertices per outcome.
    """
    if isinstance(m.states, QuantumBackend):
        return SharpnessReport(True, None, [
            "analytic rule: tr(rho P) = 1 for a rank-one projection P forces rho = P"])
    for x in m.outcomes:
        xi = m.testspace.index(x)
        hits = [i for i, v in enumerate(m.states.vertices) if v[xi] == 1]
        if len(hits) != 1:
            return SharpnessReport(False, {
                "outcome": x,
                "certain_states": [dict((k, str(p)) for k, p in m.vertex_dict(i).items())
                                   for i in hits],
            }, [f"outcome {x!r} is certain in {len(hits)} extreme states"])
    return SharpnessReport(True, None, [])


# ---------------------------------------------------------------------------
# morphisms and images

@dataclass(frozen=True, eq=False)
class Morphism:
    source: Model
    target: Model
    outcome_map: dict[str, str]
    generator_images: tuple[Perm, ...]    # one target permutation per source generator


@dataclass
class MorphismReport:
    ok: bool
    problems: list[str]
    surjective: bool


def validate_morphism(f: Morphism) -> MorphismReport:
    problems: list[str] = []
    src, tgt = f.source, f.target
    for x in src.outcomes:
        if x not in f.outcome_map:
            problems.append(f"outcome {x!r} has no image")
        elif f.outcome_map[x] not in tgt.outcomes:
            problems.append(f"image {f.outcome_map[x]!r} is not a target outcome")
    if problems:
        return MorphismReport(False, problems, False)

    tgt_tests = {frozenset(t) for t in tgt.tests}
    images = set()
    for E in src.tests:
        img = frozenset(f.outcome_map[x] for x in E)
        images.add(img)
        if img not in tgt_tests:
            problems.append(f"test {E} maps to {sorted(img)}, not a target test")
    surjective = (set(f.outcome_map.values()) == set(tgt.outcomes)
                  and tgt_tests <= images)

    if isinstance(src.group, PermutationGroup):
        for k, g in enumerate(src.group.generators):
            h = f.generator_images[k]
            for x in src.outcomes:
                lhs = f.outcome_map[src.outcomes[g[src.testspace.index(x)]]]
                rhs = tgt.outcomes[h[tgt.testspace.index(f.outcome_map[x])]]
                if lhs != rhs:
                    problems.append(
                        f"equivariance fails at generator {k}, outcome {x!r}")
                    break

    if isinstance(tgt.states, PolytopeBackend) and isinstance(src.states, PolytopeBackend):
        # The pullback of a normalized state sums to the fibre multiplicity on
        # each source test, so membership is tested in the cone over the
        # source states rather than their convex hull.
        for bi, beta in enumerate(tgt.states.vertices):
            pulled = tuple(beta[tgt.testspace.index(f.outcome_map[x])]
                           for x in src.outcomes)
            res = cone_membership(list(pulled), [list(v) for v in src.states.vertices])
            if not res.feasible:
                problems.append(f"pullback of target state {bi} is not in the "
                                "cone over the source states")

    return MorphismReport(not problems, problems, surjective)


def pullback_state(f: Morphism, beta: dict[str, Fraction]) -> dict[str, Fraction]:
    return {x: frac(beta[f.outcome_map[x]]) for x in f.source.outcomes}


class ImageError(ModelError):
    pass


def image_model(m: Model, outcome_map: dict[str, str],
                name: str | None = None) -> tuple[Model, Morphism]:
    """Quotient a model along a surjective outcome map.

    The image state set is the full pullback-constrained polytope: every
    state of the image test space whose pullback lands in the cone over
    the source states.
    """
    if isinstance(m.states, QuantumBackend):
        raise ImageError("image construction needs a polytope backend; "
                         "use find_nontrivial_images for quantum samples")
    if set(outcome_map) != set(m.outcomes):
        raise ImageError("outcome map must cover every source outcome")

    y_labels = _stable_unique(outcome_map[x] for x in m.outcomes)
    y_tests: list[tuple[str, ...]] = []
    seen_sets = []                       # tests are sets; dedup order-insensitively
    for E in m.tests:
        t = tuple(_stable_unique(outcome_map[x] for x in E))
        if frozenset(t) not in seen_sets:
            seen_sets.append(frozenset(t))
            y_tests.append(t)
    sizes = {len(t) for t in y_tests}
    if len(sizes) != 1:
        raise ImageError(f"image tests have unequal sizes {sorted(sizes)}")

    # the group must descend: the fibres of the map have to be a congruence
    gen_images = []
    for k, g in enumerate(m.group.generators):
        img: dict[str, str] = {}
        for x in m.outcomes:
            y = outcome_map[x]
            gy = outcome_map[m.outcomes[g[m.testspace.index(x)]]]
            if img.setdefault(y, gy) != gy:
                raise ImageError(
                    f"generator {k} does not descend: fibre of {y!r} is torn apart")
        gen_images.append(tuple(y_labels.index(img[y]) for y in y_labels))

    verts = _image_state_vertices(m, outcome_map, y_labels, y_tests)
    if not verts:
        raise ImageError("empty image state set: no state of the image test space "
                         "pulls back to a source state")

    tgt = Model(name or f"{m.name}/image", TestSpace(tuple(y_labels), tuple(y_tests)),
                PolytopeBackend(tuple(verts)),
                PermutationGroup(tuple(gen_images)))
    mor = Morphism(m, tgt, dict(outcome_map), tuple(gen_images))
    return tgt, mor


def _stable_unique(it) -> list:
    seen = []
    for x in it:
        if x not in seen:
            seen.append(x)
    return seen


def _image_state_vertices(m: Model, outcome_map, y_labels, y_tests):
    """Vertex description of the pullback-constrained image states.

    The pullback of an image state duplicates each coordinate across its
    fibre, so on a source test it sums to the fibre multiplicity rather
    than to one.  Normalization therefore lives on the image tests only,
    and the pullback is constrained to the *cone* over the source states.
    """
    from .cones import cone, dual_cone, halfspace_cone_rays

    facets = dual_cone(cone([list(v) for v in m.states.vertices]))
    ny = len(y_labels)
    y_index = {y: i for i, y in enumerate(y_labels)}

    # coordinates (beta, t); rays with t > 0 give vertices after scaling
    constraints = []
    equalities = []
    for i in range(ny):
        e = [ZERO] * (ny + 1)
        e[i] = ONE
        constraints.append(e)
    t_col = [ZERO] * (ny + 1)
    t_col[ny] = ONE
    constraints.append(t_col)
    for F in y_tests:
        row = [ZERO] * (ny + 1)
        for y in F:
            row[y_index[y]] = ONE
        row[ny] = -ONE
        equalities.append(row)
    # pullback rows: h . (phi* beta) >= 0 for each facet normal h of the
    # cone over the source states (lineality gives the span equalities)
    for h in facets.all_generators():
        row = [ZERO] * (ny + 1)
        for xi, x in enumerate(m.outcomes):
            row[y_index[outcome_map[x]]] += h[xi]
        constraints.append(row)

    for e in equalities:
        constraints.append(e)
        constraints.append([-v for v in e])

    lin, rays = halfspace_cone_rays(constraints, ny + 1)
    verts = []
    for r in rays:
        if r[ny] > 0:
            v = tuple(x / r[ny] for x in r[:ny])
            if v not in verts:
                verts.append(v)
    return verts


# ---------------------------------------------------------------------------
# image search

def set_partitions(items: list):
    """All partitions of a list, deterministically ordered."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@dataclass
class ImageCandidate:
    partition: tuple[tuple[str, ...], ...]
    verdict: str          # "image" | rejection reason
    detail: str = ""


def find_nontrivial_images(m: Model, max_outcomes: int = 8) -> list[ImageCandidate]:
    """The candidates of `assess_all_candidates` that give genuine images."""
    return [c for c in assess_all_candidates(m, max_outcomes)
            if c.verdict == "image"]


def assess_all_candidates(m: Model, max_outcomes: int = 8) -> list[ImageCandidate]:
    """Exhaust all outcome identifications and give each a verdict.

    A verdict is "image", or the reason the identification gives none:
    "not-a-congruence", "unequal-image-tests", "trivial-image",
    "empty-states" (polytope), or for quantum models "no-consistent-pullback",
    "negative-probability", "no-psd-pullback" and "psd-pullback-unknown"
    (the grid search for a PSD pullback missed, which does not show that
    none exists).  Quantum models use their finite sample symmetries as the
    group and the density-matrix pullback condition for state feasibility.
    """
    labels = list(m.outcomes)
    if len(labels) > max_outcomes:
        raise ModelError(f"image search capped at {max_outcomes} outcomes")
    group = m.sample_symmetries if isinstance(m.states, QuantumBackend) else m.group
    if group is None or not isinstance(group, PermutationGroup):
        raise ModelError("image search needs a finite outcome symmetry group")
    out = []
    for part in set_partitions(labels):
        if all(len(b) == 1 for b in part):
            continue                      # bijective relabelling: trivial
        blocks = tuple(tuple(sorted(b)) for b in sorted(part, key=lambda b: sorted(b)[0]))
        omap = {}
        for bi, b in enumerate(blocks):
            for x in b:
                omap[x] = f"c{bi}"
        cand = _assess_candidate(m, group, blocks, omap)
        out.append(cand if cand is not None
                   else ImageCandidate(blocks, "not-a-congruence"))
    return out


def _assess_candidate(m: Model, group: PermutationGroup, blocks, omap
                      ) -> Optional[ImageCandidate]:
    ts = m.testspace
    # congruence for every generator
    for g in group.generators:
        img = {}
        for x in m.outcomes:
            y = omap[x]
            gy = omap[m.outcomes[g[ts.index(x)]]]
            if img.setdefault(y, gy) != gy:
                return None
    sizes = {len(set(omap[x] for x in E)) for E in m.tests}
    if len(sizes) != 1:
        return ImageCandidate(blocks, "unequal-image-tests")
    if sizes == {1}:
        # every test collapses to a point: the image is the one-state model
        return ImageCandidate(blocks, "trivial-image")

    if isinstance(m.states, PolytopeBackend):
        feasible = _polytope_pullback_feasible(m, omap)
        return ImageCandidate(blocks, "image" if feasible else "empty-states")
    feasible, why = _quantum_pullback_feasible(m, omap)
    return ImageCandidate(blocks, "image" if feasible else why)


def _polytope_pullback_feasible(m: Model, omap) -> bool:
    y_labels = _stable_unique(omap[x] for x in m.outcomes)
    y_tests = _stable_unique(tuple(_stable_unique(omap[x] for x in E)) for E in m.tests)
    ny = len(y_labels)
    yidx = {y: i for i, y in enumerate(y_labels)}
    verts = [list(v) for v in m.states.vertices]
    nv = len(verts)
    nx = len(m.outcomes)
    # variables: beta (ny) then mu (nv); phi* beta = sum mu_v v with mu >= 0
    # (conic: the pullback sums to the fibre multiplicity, not 1), tests sum 1
    A, b = [], []
    for xi, x in enumerate(m.outcomes):
        row = [ZERO] * (ny + nv)
        row[yidx[omap[x]]] = ONE
        for vi in range(nv):
            row[ny + vi] = -verts[vi][xi]
        A.append(row)
        b.append(ZERO)
    for F in y_tests:
        row = [ZERO] * (ny + nv)
        for y in F:
            row[yidx[y]] = ONE
        A.append(row)
        b.append(ONE)
    return solve_feasibility(A, b).feasible


def _quantum_pullback_feasible(m: Model, omap) -> tuple[Optional[bool], str]:
    """(feasible, verdict) of a density-matrix pullback for an
    identification map; feasible is None, with the verdict
    "psd-pullback-unknown", when the PSD search cannot decide."""
    qb: QuantumBackend = m.states
    y_labels = _stable_unique(omap[x] for x in m.outcomes)
    y_tests = _stable_unique(tuple(_stable_unique(omap[x] for x in E)) for E in m.tests)
    yidx = {y: i for i, y in enumerate(y_labels)}
    ny = len(y_labels)
    sd = qb.basis.space_dim

    # unknowns: beta (ny), rho coords (sd); tr(rho P_x) = beta(omap(x)); test sums = 1
    rows, rhs = [], []
    for x, coords in zip(m.outcomes, qb.outcome_coords(m.outcomes)):
        coeff = np.zeros(ny + sd)
        coeff[yidx[omap[x]]] = -1.0
        coeff[ny:] = coords
        rows.append(coeff)
        rhs.append(0.0)
    for F in y_tests:
        coeff = np.zeros(ny + sd)
        for y in F:
            coeff[yidx[y]] = 1.0
        rows.append(coeff)
        rhs.append(1.0)
    # no unit-trace row: summing the outcome equations over any source test
    # already fixes tr(rho) to the fibre multiplicity times the test mass
    A = np.array(rows)
    bb = np.array(rhs)
    sol, residual, _, _ = np.linalg.lstsq(A, bb, rcond=None)
    if np.linalg.norm(A @ sol - bb) > 1e-9:
        return False, "no-consistent-pullback"
    # minimum-norm completion within the affine solution set, then a PSD check;
    # for dim 2 the minimum-Bloch-norm point decides PSD feasibility outright
    null = np_nullspace(A)
    best = _min_trace_distance_psd(qb, sol, null, ny)
    if best is None:
        return None, "psd-pullback-unknown"
    if best:
        if any(b_val < -1e-9 for b_val in sol[:ny]):
            return False, "negative-probability"
        return True, ""
    return False, "no-psd-pullback"


def _min_trace_distance_psd(qb: QuantumBackend, sol: np.ndarray,
                            null: np.ndarray, ny: int) -> Optional[bool]:
    """Whether the affine set sol + span(null) holds a PSD density matrix.

    Without null directions the one point decides.  Otherwise a 21-point
    grid per direction, coefficients in [-1, 1], is searched: True when a
    grid point is PSD, None (unknown) when the grid misses, since a PSD
    point may lie off the grid.
    """
    import itertools as it
    base = qb.basis.from_coords(sol[ny:])
    if null.shape[0] == 0:
        return bool(np.linalg.eigvalsh(base).min() >= -1e-9)
    # coarse search over the nullspace directions (low-dimensional here)
    dirs = [qb.basis.from_coords(n[ny:]) for n in null]
    grid = np.linspace(-1.0, 1.0, 21)
    best = -np.inf
    for combo in it.product(grid, repeat=len(dirs)):
        M = base + sum(c * D for c, D in zip(combo, dirs))
        best = max(best, float(np.linalg.eigvalsh(M).min()))
        if best >= -1e-9:
            return True
    return None


# ---------------------------------------------------------------------------
# model isomorphism and image closure

def models_isomorphic(m1: Model, m2: Model) -> Optional[dict[str, str]]:
    """Outcome relabelling carrying tests onto tests and states onto states."""
    if (len(m1.outcomes) != len(m2.outcomes) or len(m1.tests) != len(m2.tests)
            or m1.rank != m2.rank):
        return None
    if isinstance(m1.states, QuantumBackend) or isinstance(m2.states, QuantumBackend):
        raise ModelError("isomorphism search is polytope-only")
    if len(m1.states.vertices) != len(m2.states.vertices):
        return None

    sig1 = {x: sorted(map(len, (m1.tests[i] for i in m1.testspace.tests_containing(x))))
            for x in m1.outcomes}
    sig2 = {y: sorted(map(len, (m2.tests[i] for i in m2.testspace.tests_containing(y))))
            for y in m2.outcomes}
    t2 = {frozenset(t) for t in m2.tests}
    v2 = set(m2.states.vertices)

    def extend(assign: dict[str, str], remaining: list[str]) -> Optional[dict[str, str]]:
        if not remaining:
            for t in m1.tests:
                if frozenset(assign[x] for x in t) not in t2:
                    return None
            for v in m1.states.vertices:
                w = [ZERO] * len(v)
                for xi, x in enumerate(m1.outcomes):
                    w[m2.testspace.index(assign[x])] = v[xi]
                if tuple(w) not in v2:
                    return None
            return dict(assign)
        x = remaining[0]
        for y in m2.outcomes:
            if y in assign.values() or sig1[x] != sig2[y]:
                continue
            assign[x] = y
            ok = True
            for t in m1.tests:
                if all(z in assign for z in t):
                    if frozenset(assign[z] for z in t) not in t2:
                        ok = False
                        break
            if ok:
                res = extend(assign, remaining[1:])
                if res is not None:
                    return res
            del assign[x]
        return None

    return extend({}, list(m1.outcomes))
