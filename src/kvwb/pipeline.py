"""End-to-end analysis pipeline over a single model.

Each stage is a row of `_STAGES`: a name, its prerequisites, its
not-applicable note and a body.  The stages run in that order, are reported
in `STAGE_ORDER`, and each gets a status out of pass / fail / not-applicable
/ unknown.  One loop marks a stage not-applicable — never pass — when
validation or a prerequisite did not pass.  Everything downstream of the
random seed is deterministic, so two runs with the same inputs produce
byte-identical reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import composites, cones, effectspace, forms, jordan, models
from .builtins import conjugation_bijection
from .linalg import _Kind
from .serialize import dumps_canonical, model_to_json

PASS = "pass"
FAIL = "fail"
NA = "not-applicable"
UNKNOWN = "unknown"

#: --expect tokens and the stage each one excuses.
EXPECT_TOKENS = {
    "not-bisymmetric": "bisymmetry",
    "not-sharp": "sharpness",
    "not-irreducible": "irreducibility",
    "no-spin-form": "spin-form",
    "no-conjugate": "conjugate",
    "not-self-dual": "self-duality",
    "not-weakly-self-dual": "weak-self-duality",
}

STAGE_ORDER = [
    "validation", "bisymmetry", "sharpness", "effect-space",
    "irreducibility", "spin-form", "unitarity", "conjugate",
    "self-duality", "weak-self-duality", "homogeneity",
    "jordan-recovery", "identification",
]


@dataclass
class Stage:
    name: str
    status: str
    data: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


@dataclass
class PipelineReport:
    model: models.Model
    seed: int
    tol: float
    stages: list
    expected: list

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def failures(self) -> list:
        return [s.name for s in self.stages if s.status == FAIL]

    @property
    def ok(self) -> bool:
        expected_stages = sorted(EXPECT_TOKENS[t] for t in self.expected)
        return sorted(self.failures) == expected_stages

    def to_json(self) -> dict:
        m = self.model
        return {
            "tool": "kvwb",
            "seed": self.seed,
            "tol": self.tol,
            "model": {"name": m.name, "backend": m.states.kind,
                      "outcomes": len(m.outcomes), "tests": len(m.tests),
                      "rank": m.rank},
            "model_spec": model_to_json(m),
            "stages": [{"name": s.name, "status": s.status,
                        "data": s.data, "notes": s.notes}
                       for s in self.stages],
            "expected_failures": sorted(self.expected),
            "failures": sorted(self.failures),
            "ok": self.ok,
        }

    def to_markdown(self) -> str:
        j = self.to_json()
        lines = [f"# kvwb report: {j['model']['name']}", ""]
        lines.append(f"- backend: {j['model']['backend']}, "
                     f"outcomes: {j['model']['outcomes']}, "
                     f"tests: {j['model']['tests']}, rank: {j['model']['rank']}")
        lines.append(f"- seed: {j['seed']}, tol: {j['tol']}")
        if j["expected_failures"]:
            lines.append(f"- expected failures: "
                         f"{', '.join(j['expected_failures'])}")
        lines.append(f"- verdict: {'OK' if j['ok'] else 'MISMATCH'} "
                     f"(failures: {', '.join(j['failures']) or 'none'})")
        lines += ["", "| stage | status |", "|---|---|"]
        for s in j["stages"]:
            lines.append(f"| {s['name']} | {s['status']} |")
        lines.append("")
        for s in j["stages"]:
            lines.append(f"## {s['name']} — {s['status']}")
            lines.append("")
            if s["notes"]:
                for n in s["notes"]:
                    lines.append(f"- {n}")
                lines.append("")
            if s["data"]:
                lines.append("```json")
                lines.append(dumps_canonical(s["data"]).rstrip("\n"))
                lines.append("```")
                lines.append("")
        return "\n".join(lines).rstrip("\n") + "\n"


@dataclass
class _Run:
    """One run's inputs, its statuses so far and what later stages read."""
    m: models.Model
    seed: int
    tol: float
    sample_count: int
    status: dict = field(default_factory=dict)
    E: object = None            # effectspace.OrderUnitSpace
    spin: object = None         # the invariant form, when in good standing
    sd: object = None           # the exact self-duality report
    res: object = None          # the recovery result


def _validation(c: _Run):
    vrep = models.validate_model(c.m, tol=c.tol)
    return PASS if vrep.ok else FAIL, {"problems": vrep.problems, **vrep.data}


def _bisymmetry(c: _Run):
    brep = models.check_bisymmetry(c.m)
    full = brep.fully_bisymmetric
    return (UNKNOWN if full is None else PASS if full else FAIL,
            {"pure_state_transitive": brep.pure_state_transitive,
             "test_transitive": brep.test_transitive,
             "pair_transitive": brep.pair_transitive,
             "fully_bisymmetric": full, "orbit_counts": brep.orbit_counts},
            brep.notes)


def _sharpness(c: _Run):
    srep = models.is_sharp(c.m)
    return (PASS if srep.sharp else FAIL,
            {"sharp": srep.sharp, "witness": srep.witness}, srep.notes)


def _effect_space(c: _Run):
    try:
        c.E = E = effectspace.build_effect_space(c.m)
        return PASS, {"dim": E.dim, "kind": E.kind, "span_dim": E.span_dim,
                      "generators": len(E.cone_generators
                                        if E.effect_cone is None
                                        else E.effect_cone.matrix)}, E.notes
    except Exception as exc:  # surfaced, not swallowed: the report says why
        return FAIL, {"error": str(exc)}


def _irreducibility(c: _Run):
    irr = forms.is_irreducible(c.E)
    return PASS if irr else FAIL, {
        "irreducible": irr,
        "meaning": "exactly one invariant symmetric form on the "
                   "trace-zero subspace, up to scale"}


def _spin_form(c: _Run):
    """The orthogonalizing unit-normalized invariant form."""
    sres = forms.find_orthogonalizing_spin_form(c.m, c.E, tol=c.tol)
    h = sres.solution_space_dim
    flags = sres.form.flag_summary() if sres.form is not None else {}
    c.spin = sres.good_form
    if c.spin is not None:
        return PASS, {"solution_space_dim": h, "flags": flags,
                      "unique_up_to_normalization": h == 1,
                      "matrix": c.spin.matrix}, sres.notes
    notes = sres.notes if sres.form is None else sres.notes + [
        "a form satisfying the linear constraints exists but fails "
        + ", ".join(k for k, v in flags.items() if not v)]
    return FAIL, {"solution_space_dim": h, "flags": flags}, notes


def _unitarity(c: _Run):
    uok = forms.check_unitarity(c.E.actions, c.spin, tol=c.tol)
    return PASS if uok else FAIL, {
        "all_generators_unitary": uok,
        "meaning": "M^T B M = B for every symmetry generator"}


def _conjugate(c: _Run):
    m, E, tol = c.m, c.E, c.tol
    cnotes, eta = [], None
    try:
        gamma = conjugation_bijection(m, tol=tol)
        eta = composites.find_conjugate_state(m, gamma=gamma, tol=tol)
    except composites.CompositeError as exc:
        cnotes.append(f"search aborted: {exc}")
    if eta is None:
        return FAIL, {"found": False,
                      "note": "no bipartite state satisfies the conjugate "
                              "constraints (normalization, conditionals in "
                              "the cone both ways, uniform diagonal, "
                              "symmetry invariance)"}, cnotes
    eta_iso = composites.is_isomorphism_state(eta, E, E, tol=tol)
    # find_conjugate_state certified every check of validate_bipartite
    cdata = {"found": True, "valid_bipartite": True,
             "diagonal": [eta.value(x, gamma[x]) for x in m.outcomes],
             "isomorphism_state": {
                 "is_iso": eta_iso.is_iso, "invertible": eta_iso.invertible,
                 "forward_positive": eta_iso.forward_positive,
                 "inverse_positive": eta_iso.inverse_positive,
                 "failures": eta_iso.failures}}
    if c.spin is not None:
        conj = composites.conjugate_from_state(m, gamma, eta)
        derived = composites.spin_form_from_conjugate(conj, E, tol=tol)
        K = _Kind(c.spin.kind, tol)
        (s_d, D), (s_s, S) = derived.scaled, c.spin.scaled
        dev = K.unscaled((s_d * s_s, np.max(np.abs(D * s_s - S * s_d))))
        cdata["derived_form_flags"] = derived.flag_summary()
        cdata["derived_matches_invariant_form"] = K.is_zero(dev)
        cdata["derived_form_deviation"] = dev
    return PASS, cdata, cnotes


def _self_duality(c: _Run):
    E, spin, tol = c.E, c.spin, c.tol
    if E.kind == "exact":
        c.sd = sdrep = cones.is_self_dual(E.effect_cone, spin.matrix,
                                          E.dual_effect_cone)
        return PASS if sdrep.self_dual else FAIL, {
            "self_dual": sdrep.self_dual,
            "pairwise_min": sdrep.pairwise_min,
            "pairwise_argmin": sdrep.pairwise_argmin,
            "dual_generators": sdrep.dual.all_generators(),
            "failures": sdrep.failures}, [
            "exact double-description computation of the dual cone"]
    # sampled + analytic: pair the sampled effects under the form, and
    # certify the full cone analytically when the form is the trace
    # pairing (the positive-semidefinite cone is self-dual under it).
    gens = [np.asarray(g, float) for g in E.cone_generators]
    Bm = np.asarray(spin.matrix, float)
    gB = [g @ Bm for g in gens]             # (g @ Bm) @ h is g @ Bm @ h
    pmin, parg = min(((float(a @ h), (i, j)) for i, a in enumerate(gB)
                      for j, h in enumerate(gens)),
                     key=lambda t: t[0], default=(None, ()))
    dev = float(np.max(np.abs(Bm - np.eye(E.dim) / c.m.states.dim)))
    analytic = bool(c.m.states.builtin) and dev <= 1e-6
    ok = (pmin is not None and pmin >= -tol) and analytic
    return PASS if ok else FAIL, {
        "self_dual": ok, "sampled_pairwise_min": pmin,
        "sampled_pairwise_argmin": list(parg),
        "trace_form_deviation": dev, "analytic_certificate": analytic}, [
        "sampled check: all pairs of sampled effects pair nonnegatively "
        "under the form",
        "analytic certificate: the form equals the normalized trace "
        "pairing, under which the positive-semidefinite cone is self-dual"]


def _weak_self_duality(c: _Run):
    if c.E.kind == "exact":
        wrep = cones.is_weakly_self_dual(c.E.effect_cone, c.sd.dual)
        return ({"yes": PASS, "no": FAIL, "unknown": UNKNOWN}[wrep.status],
                {"status": wrep.status, "map": wrep.map,
                 "ray_bijection": wrep.bijection, "scalars": wrep.scalars},
                wrep.notes)
    if c.status["self-duality"] == PASS:
        return PASS, {"status": "yes", "map": "identity"}, [
            "a self-dual cone is weakly self-dual via the identity"]
    return UNKNOWN, {"status": "unknown"}, [
        "no exact ray enumeration for sampled quantum cones"]


def _jordan_recovery(c: _Run):
    """Order-unit product recovery, with the symmetric-cone check."""
    prob = _recovery_problem(c.E, c.spin, c.tol)
    try:
        c.res = res = jordan.recover_jordan_product(prob, seed=c.seed)
    except ValueError as exc:            # an action off the form's contract
        return FAIL, {"exact": prob.exact}, [str(exc)]
    # an algebra comes back only through every gate of the recovery;
    # the unit's interior heuristic is the one it does not enforce
    ok = res.algebra is not None and res.gates["unit_interior_heuristic"]
    rdata = {"linear_solution_dim": res.linear_solution_dim,
             "residual": res.residual, "seeds_agree": res.seeds_agree,
             "gates": res.gates, "exact": prob.exact}
    rnotes = list(res.notes)
    if ok:
        vrep = jordan.verify_symmetric_cone(
            res.algebra, sample_count=c.sample_count, seed=c.seed, tol=c.tol)
        rdata["symmetric_cone_check"] = {
            "ok": vrep.ok, "failures": vrep.failures,
            "max_homogeneity_error": vrep.max_homogeneity_error,
            "min_self_duality_pairing": vrep.min_pairing}
        rnotes += vrep.notes
        ok = vrep.ok
    # a family of products left by the linear stage decides nothing
    return (PASS if ok else UNKNOWN if res.linear_solution_dim > 0 else FAIL,
            rdata, rnotes)


def _homogeneity(c: _Run):
    """Homogeneity, read off the recovered product (Koecher-Vinberg).  A
    cone of squares of a Euclidean Jordan algebra is homogeneous; without a
    recovered product nothing is known, so the stage never says "fail"."""
    if c.status["jordan-recovery"] != PASS:
        return UNKNOWN, {"homogeneous": None, "proved": False}, [
            "no Jordan product was recovered, so nothing is decided"]
    exact = c.res.algebra.exact
    return PASS, {"homogeneous": True, "proved": exact}, [
        jordan.KV_NOTE if exact else
        "sampled, not proved: gate 4 of the recovered product's "
        "symmetric-cone check found P(w^(1/2)) e = w, with squares kept in "
        "the cone, on every seeded interior sample w"]


def _identification(c: _Run):
    algebra = c.res.algebra
    rank = jordan.recovered_rank(c.res, seed=c.seed)
    cands = jordan.algebra_candidates(algebra.dim, rank)
    notes = (["dimension and rank do not separate these candidates; listed "
              "in full"] if len(cands) > 1 else [])
    return (PASS if cands else FAIL,
            {"dim": algebra.dim, "rank": rank, "candidates": cands}, notes)


#: The stages in run order: (name, prerequisites, the not-applicable note
#: when a prerequisite did not pass, body).  Every stage after validation
#: also needs validation to pass.
_STAGES = (
    ("validation", (), None, _validation),
    ("bisymmetry", (), None, _bisymmetry),
    ("sharpness", (), None, _sharpness),
    ("effect-space", (), None, _effect_space),
    ("irreducibility", ("effect-space",), "needs the effect space",
     _irreducibility),
    ("spin-form", ("effect-space",), "needs the effect space", _spin_form),
    ("unitarity", ("spin-form",), "needs the invariant form", _unitarity),
    ("conjugate", ("effect-space",), "needs the effect space", _conjugate),
    ("self-duality", ("spin-form",), "needs the invariant form",
     _self_duality),
    ("weak-self-duality", ("spin-form",), "needs the invariant form",
     _weak_self_duality),
    ("jordan-recovery", ("spin-form", "unitarity", "self-duality"),
     "needs a self-dual cone and the invariant form", _jordan_recovery),
    ("homogeneity", ("effect-space",), "needs the effect space",
     _homogeneity),
    ("identification", ("jordan-recovery",), "needs a recovered product",
     _identification),
)


def run_pipeline(m: models.Model, seed: int = 42, tol: float = 1e-9,
                 expect=(), sample_count: int = 50) -> PipelineReport:
    expect = sorted(set(expect))
    unknown_tokens = [t for t in expect if t not in EXPECT_TOKENS]
    if unknown_tokens:
        raise ValueError(f"unknown expectation tokens {unknown_tokens}; "
                         f"valid: {sorted(EXPECT_TOKENS)}")
    c = _Run(m, seed, tol, sample_count)
    stages = []
    for name, needs, note, body in _STAGES:
        if name != "validation" and c.status["validation"] != PASS:
            stage = Stage(name, NA, notes=["validation failed"])
        elif any(c.status[p] != PASS for p in needs):
            stage = Stage(name, NA, notes=[note])
        else:
            stage = Stage(name, *body(c))
        stages.append(stage)
        c.status[name] = stage.status
    stages.sort(key=lambda s: STAGE_ORDER.index(s.name))
    return PipelineReport(m, seed, tol, stages, expect)


def _recovery_problem(E, spin, tol: float) -> jordan.RecoveryProblem:
    """Assemble recovery inputs, as the pairs the effect space and the form
    hold: on an exact effect space the effect cone's integer rows, its
    extreme rays, for the exact frame gate, and the outcome frame and
    generator permutations the orbit rows read; otherwise floats and a
    stacked membership test, for the sampled squares gate."""
    rays, membership, frame, perms = [], None, None, []
    if E.kind == "exact":
        gens = [(1, g) for g in E.effect_cone.matrix]
        rays = [list(r) for r in E.effect_cone.rays]
        frame, perms = E.outcome_frame, list(E.model.group.generators)
    else:
        gens = [_Kind("float").scaled(g) for g in E.cone_generators]

        def membership(V):
            return effectspace.min_eigenvalues(E.basis, V) >= -tol
    return jordan.RecoveryProblem(
        dim=E.dim, B=spin.scaled, u=E.scaled_unit, cone_generators=gens,
        actions=list(E.actions), outcome_vectors=gens,
        cone_membership=membership, extreme_rays=rays, frame=frame,
        permutations=perms)
