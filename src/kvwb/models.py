"""Core types: test spaces, states, symmetry groups, models, images.

Probabilities on polytope-backed models are exact `Fraction`s throughout;
the quantum backend keeps operator payloads and works in floats.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import quantum
from .linalg import ONE, ZERO, integer_row
from .lp import solve_feasibility

Perm = tuple[int, ...]


class ModelError(ValueError):
    """Raised when a model or an image violates a structural requirement."""


# ---------------------------------------------------------------------------
# permutations

def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def orbit(seed, act, generators) -> set:
    """Orbit of `seed` under the maps act(g, -) for each generator g."""
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
        frontier = nxt
    return seen


def _basic_orbit_lengths(gens, n: int, prefix) -> list[int]:
    """Basic orbit lengths of a stabilizer chain of the group generated by
    the permutations `gens` of range(n), on a base that starts with
    `prefix`: the i-th is the orbit of b_i under the pointwise stabilizer of
    b_1..b_(i-1), so the first r multiply to the orbit of (b_1, ..., b_r)
    and all of them to |G|.  Deterministic Schreier-Sims (Sims 1970; Seress,
    Permutation Group Algorithms, 2003, ch. 4)."""
    ident, base, strong = tuple(range(n)), list(prefix), []
    levels = [([], {b: (ident, ident)}) for b in base]

    def add(g, i) -> Optional[int]:
        """Sift g from level i on.  A residue other than the identity joins
        the strong generators (with a new base point if it fixes the base),
        and levels i to the one it stopped at are rebuilt; returns that one."""
        for j in range(i, len(base)):
            u = levels[j][1].get(g[base[j]])
            if u is None:
                break
            g = perm_compose(u[1], g)
        else:
            if g == ident:
                return None
            j = len(base)
            base.append(next(x for x in ident if g[x] != x))
            levels.append(None)
        strong.append(g)
        for k in range(i, j + 1):
            # the strong generators fixing b_1..b_(k-1), and (u, u^-1) for
            # an element u taking b_k to each point of its orbit under them
            S = [s for s in strong if all(s[b] == b for b in base[:k])]
            T, pts = {base[k]: (ident, ident)}, [base[k]]
            for x, s in ((x, s) for x in pts for s in S):
                if s[x] not in T:
                    u = perm_compose(s, T[x][0])
                    T[s[x]] = u, perm_inverse(u)
                    pts.append(s[x])
            levels[k] = S, T
        return j

    for g in gens:
        add(tuple(g), 0)
    i = len(base) - 1
    while i >= 0:
        S, T = levels[i]
        for x, s in itertools.product(T, S):
            j = add(perm_compose(T[s[x]][1], perm_compose(s, T[x][0])), i + 1)
            if j is not None:
                i = j
                break
        else:
            i -= 1
    return [len(T) for _, T in levels]


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

    @cached_property
    def vertex_index(self) -> dict:
        """Index of each extreme state of a polytope model, built once."""
        return {v: i for i, v in enumerate(self.states.vertices)}

    @cached_property
    def vertex_perms(self) -> tuple[Optional[Perm], ...]:
        """`vertex_permutation` of each generator, built once."""
        return tuple(vertex_permutation(self, g) for g in self.group.generators)


def act_on_state(g: Perm, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """(g.alpha)(x) = alpha(g^{-1} x)."""
    ginv = perm_inverse(g)
    return tuple(v[ginv[i]] for i in range(len(v)))


def act_on_test(g: Perm, test_idx: int, ts: TestSpace) -> frozenset[int]:
    return frozenset(g[ts.index(x)] for x in ts.tests[test_idx])


def vertex_permutation(m: Model, g: Perm) -> Optional[Perm]:
    """How g permutes the extreme states, or None if it fails to."""
    images = []
    for v in m.states.vertices:
        w = act_on_state(g, v)
        if w not in m.vertex_index:
            return None
        images.append(m.vertex_index[w])
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
            for k, sg in enumerate(m.vertex_perms):
                if sg is None:
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
    return list(dict.fromkeys(p for t in m.tests
                              for p in itertools.permutations(t, 2)))


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
    `#tests * rank!` orderings of tests.  That orbit has |G : G_(b_1..b_r)|
    points, the product of the first r basic orbit lengths of a stabilizer
    chain whose base starts with the outcomes b_1..b_r of test 0.
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

    gens, ts = m.group.generators, m.testspace
    vert_orbits = _orbit_count(range(len(m.states.vertices)),
                               lambda g, i: g[i], m.vertex_perms)
    test_orbits = _orbit_count(range(len(ts.tests)),
                               lambda g, ti: _test_image_index(g, ti, ts), gens)
    pairs = [(ts.index(a), ts.index(b)) for a, b in distinguishable_pairs(m)]
    pair_orbits = _orbit_count(pairs, lambda g, p: (g[p[0]], g[p[1]]), gens)

    # the test orbit above already raised if a generator leaves the catalog,
    # so the orbit of ordered test 0 stays inside the orderings of tests
    ordered = math.prod(_basic_orbit_lengths(
        gens, len(m.outcomes), map(ts.index, ts.tests[0]))[:m.rank])
    n_tests = len({frozenset(t) for t in ts.tests})
    return BisymmetryReport(
        pure_state_transitive=vert_orbits == 1,
        test_transitive=test_orbits == 1,
        pair_transitive=pair_orbits == 1 if pairs else True,
        fully_bisymmetric=ordered == n_tests * math.factorial(m.rank),
        orbit_counts={"pure_states": vert_orbits, "tests": test_orbits,
                      "pairs": pair_orbits},
        notes=[],
    )


def _test_image_index(g: Perm, ti: int, ts: TestSpace) -> int:
    img = act_on_test(g, ti, ts)
    for j, t in enumerate(ts.tests):
        if frozenset(ts.index(x) for x in t) == img:
            return j
    raise ModelError("generator does not preserve the test catalog")


def _orbit_count(items, act, gens) -> int:
    remaining, count = set(items), 0
    while remaining:
        remaining -= orbit(next(iter(remaining)), act, gens)
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
# images

class ImageError(ModelError):
    pass


class Quotient(NamedTuple):
    """An outcome identification under which the group descends: the map,
    the image labels in first-seen order, the image tests (those of the
    source, mapped and deduplicated as sets) and each generator's image as
    a permutation of the labels."""

    omap: dict[str, str]
    labels: list[str]
    tests: list[tuple[str, ...]]
    generators: list[Perm]


def _quotient(m: Model, group: PermutationGroup, omap) -> Quotient | str:
    """The quotient of m along omap, or the verdict that rejects it:
    "not-a-congruence" when a generator tears a fibre apart,
    "unequal-image-tests", or "trivial-image" when every test collapses to
    one outcome."""
    labels = _stable_unique(omap[x] for x in m.outcomes)
    at = {y: i for i, y in enumerate(labels)}
    gens = []
    for g in group.generators:
        img: dict[str, str] = {}
        for x, gi in zip(m.outcomes, g):
            gy = omap[m.outcomes[gi]]
            if img.setdefault(omap[x], gy) != gy:
                return "not-a-congruence"
        gens.append(tuple(at[img[y]] for y in labels))
    tests: dict[frozenset, tuple[str, ...]] = {}
    for E in m.tests:
        t = tuple(_stable_unique(omap[x] for x in E))
        tests.setdefault(frozenset(t), t)
    sizes = {len(t) for t in tests}
    if len(sizes) != 1:
        return "unequal-image-tests"
    if sizes == {1}:
        return "trivial-image"
    return Quotient(omap, labels, list(tests.values()), gens)


def image_model(m: Model, outcome_map: dict[str, str],
                name: str | None = None) -> Model:
    """Quotient a model along a surjective outcome map.

    The map gives an image exactly when `assess_all_candidates` would call
    it "image"; otherwise `ImageError` names the verdict.  The image state
    set is the full pullback-constrained polytope: every state of the image
    test space whose pullback lands in the cone over the source states.
    """
    if isinstance(m.states, QuantumBackend):
        raise ImageError("image construction needs a polytope backend; "
                         "use find_nontrivial_images for quantum samples")
    if set(outcome_map) != set(m.outcomes):
        raise ImageError("outcome map must cover every source outcome")
    q = _quotient(m, m.group, outcome_map)
    verts = [] if isinstance(q, str) else _image_state_vertices(m, q)
    if not verts:
        raise ImageError(f"{m.name} has no image under this map: "
                         f"{q if isinstance(q, str) else 'empty-states'}")
    return Model(name or f"{m.name}/image",
                 TestSpace(tuple(q.labels), tuple(q.tests)),
                 PolytopeBackend(tuple(verts)),
                 PermutationGroup(tuple(q.generators)))


def _stable_unique(it) -> list:
    seen = []
    for x in it:
        if x not in seen:
            seen.append(x)
    return seen


def _image_state_vertices(m: Model, q: Quotient):
    """Vertex description of the pullback-constrained image states.

    The pullback of an image state duplicates each coordinate across its
    fibre, so on a source test it sums to the fibre multiplicity rather
    than to one.  Normalization therefore lives on the image tests only,
    and the pullback is constrained to the *cone* over the source states.
    """
    from .cones import cone, dual_cone, halfspace_cone_rays

    facets = dual_cone(cone([list(v) for v in m.states.vertices]))
    ny = len(q.labels)
    y_index = {y: i for i, y in enumerate(q.labels)}

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
    for F in q.tests:
        row = [ZERO] * (ny + 1)
        for y in F:
            row[y_index[y]] = ONE
        row[ny] = -ONE
        equalities.append(row)
    # pullback rows: h . (phi* beta) >= 0 for each facet normal h of the
    # cone over the source states (lineality gives the span equalities)
    for h in facets.matrix.tolist():
        row = [ZERO] * (ny + 1)
        for xi, x in enumerate(m.outcomes):
            row[y_index[q.omap[x]]] += h[xi]
        constraints.append(row)

    for e in equalities:
        constraints.append(e)
        constraints.append([-v for v in e])

    lin, rays = halfspace_cone_rays(constraints, ny + 1)
    verts = []
    for r in rays:
        if r[ny] > 0:
            v = tuple(Fraction(x, r[ny]) for x in r[:ny])
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
    "empty-states" (polytope), or for quantum models "psd-pullback-unknown":
    whether some density matrix pulls back each image state is not
    searched, so a quotient that passes is undecided, not an image.
    Quantum models use their finite sample symmetries as the group.
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
        out.append(ImageCandidate(blocks, _assess_candidate(m, group, omap)))
    return out


def _assess_candidate(m: Model, group: PermutationGroup, omap) -> str:
    q = _quotient(m, group, omap)
    if isinstance(q, str):
        return q
    if isinstance(m.states, PolytopeBackend):
        return "image" if _polytope_pullback_feasible(m, q) else "empty-states"
    return "psd-pullback-unknown"


def _polytope_pullback_feasible(m: Model, q: Quotient) -> bool:
    ny = len(q.labels)
    yidx = {y: i for i, y in enumerate(q.labels)}
    verts = m.states.vertices
    nv = len(verts)
    # variables: beta (ny) then mu (nv); phi* beta = sum mu_v v with mu >= 0
    # (conic: the pullback sums to the fibre multiplicity, not 1), tests sum 1;
    # the row of outcome x takes column x of the vertices over its common
    # denominator, the right-hand side in column ny + nv
    rows = []
    for xi, x in enumerate(m.outcomes):
        s, ints = integer_row(v[xi] for v in verts)
        rows.append(({yidx[q.omap[x]]: s,
                      **{ny + vi: -a for vi, a in enumerate(ints) if a}}, s))
    for F in q.tests:
        rows.append(({**{yidx[y]: 1 for y in F}, ny + nv: 1}, 1))
    return solve_feasibility(rows, ny + nv).feasible
