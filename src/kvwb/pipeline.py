"""End-to-end analysis pipeline over a single model.

Stages run in dependency order and are reported in `STAGE_ORDER`; each
gets a status out of pass / fail / not-applicable / unknown.  A failed
prerequisite marks the dependents not-applicable — never pass.  Everything
downstream of the random seed is deterministic, so two runs with the same
inputs produce byte-identical reports.
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


def run_pipeline(m: models.Model, seed: int = 42, tol: float = 1e-9,
                 expect=(), sample_count: int = 50) -> PipelineReport:
    expect = sorted(set(expect))
    unknown_tokens = [t for t in expect if t not in EXPECT_TOKENS]
    if unknown_tokens:
        raise ValueError(f"unknown expectation tokens {unknown_tokens}; "
                         f"valid: {sorted(EXPECT_TOKENS)}")
    stages: list[Stage] = []
    status: dict[str, str] = {}

    def add(name, st, data=None, notes=None):
        stages.append(Stage(name, st, data or {}, notes or []))
        status[name] = st
        return st

    def blocked(*prereqs):
        return any(status.get(p) != PASS for p in prereqs)

    # -- validation ---------------------------------------------------------
    vrep = models.validate_model(m, tol=tol)
    add("validation", PASS if vrep.ok else FAIL,
        {"problems": vrep.problems, **vrep.data})
    if not vrep.ok:
        for name in STAGE_ORDER[1:]:
            add(name, NA, notes=["validation failed"])
        return PipelineReport(m, seed, tol, stages, expect)

    # -- bisymmetry ---------------------------------------------------------
    brep = models.check_bisymmetry(m)
    if brep.fully_bisymmetric is None:
        bst = UNKNOWN
    else:
        bst = PASS if brep.fully_bisymmetric else FAIL
    add("bisymmetry", bst,
        {"pure_state_transitive": brep.pure_state_transitive,
         "test_transitive": brep.test_transitive,
         "pair_transitive": brep.pair_transitive,
         "fully_bisymmetric": brep.fully_bisymmetric,
         "orbit_counts": brep.orbit_counts}, brep.notes)

    # -- sharpness ----------------------------------------------------------
    srep = models.is_sharp(m)
    add("sharpness", PASS if srep.sharp else FAIL,
        {"sharp": srep.sharp, "witness": srep.witness}, srep.notes)

    # -- effect space -------------------------------------------------------
    try:
        E = effectspace.build_effect_space(m)
        add("effect-space", PASS,
            {"dim": E.dim, "kind": E.kind, "span_dim": E.span_dim,
             "generators": len(E.cone_generators if E.effect_cone is None
                               else E.effect_cone.matrix)}, E.notes)
    except Exception as exc:  # surfaced, not swallowed: the report says why
        E = None
        add("effect-space", FAIL, {"error": str(exc)})

    # -- irreducibility -----------------------------------------------------
    if blocked("effect-space"):
        add("irreducibility", NA, notes=["needs the effect space"])
        irr = None
    else:
        irr = forms.is_irreducible(E)
        add("irreducibility", PASS if irr else FAIL,
            {"irreducible": irr,
             "meaning": "exactly one invariant symmetric form on the "
                        "trace-zero subspace, up to scale"})

    # -- orthogonalizing unit-normalized invariant form ----------------------
    spin = None
    if blocked("effect-space"):
        add("spin-form", NA, notes=["needs the effect space"])
    else:
        sres = forms.find_orthogonalizing_spin_form(m, E, tol=tol)
        flags = sres.form.flag_summary() if sres.form is not None else {}
        if sres.form is not None and all(flags.values()):
            spin = sres.form
            add("spin-form", PASS,
                {"solution_space_dim": sres.solution_space_dim,
                 "unique_up_to_normalization": sres.solution_space_dim == 1,
                 "flags": flags,
                 "matrix": spin.matrix}, sres.notes)
        else:
            notes = list(sres.notes)
            if sres.form is not None:
                notes.append("a form satisfying the linear constraints "
                             "exists but fails "
                             + ", ".join(k for k, v in flags.items() if not v))
            add("spin-form", FAIL,
                {"solution_space_dim": sres.solution_space_dim,
                 "flags": flags}, notes)

    # -- unitarity of the symmetry action ------------------------------------
    if blocked("spin-form"):
        add("unitarity", NA, notes=["needs the invariant form"])
    else:
        uok = forms.check_unitarity(E.actions, spin, tol=tol)
        add("unitarity", PASS if uok else FAIL,
            {"all_generators_unitary": uok,
             "meaning": "M^T B M = B for every symmetry generator"})

    # -- conjugate state ------------------------------------------------------
    eta = None
    if blocked("effect-space"):
        add("conjugate", NA, notes=["needs the effect space"])
    else:
        cdata: dict = {}
        cnotes: list = []
        try:
            gamma = conjugation_bijection(m, tol=tol)
            eta = composites.find_conjugate_state(m, gamma=gamma, tol=tol)
        except composites.CompositeError as exc:
            cnotes.append(f"search aborted: {exc}")
        if eta is None:
            add("conjugate", FAIL,
                {"found": False,
                 "note": "no bipartite state satisfies the conjugate "
                         "constraints (normalization, conditionals in the "
                         "cone both ways, uniform diagonal, symmetry "
                         "invariance)"}, cnotes)
        else:
            cdata["found"] = True
            # find_conjugate_state certified every check of validate_bipartite
            cdata["valid_bipartite"] = True
            cdata["diagonal"] = [eta.value(x, gamma[x]) for x in m.outcomes]
            eta_iso = composites.is_isomorphism_state(eta, E, E, tol=tol)
            cdata["isomorphism_state"] = {
                "is_iso": eta_iso.is_iso, "invertible": eta_iso.invertible,
                "forward_positive": eta_iso.forward_positive,
                "inverse_positive": eta_iso.inverse_positive,
                "failures": eta_iso.failures}
            if spin is not None:
                conj = composites.conjugate_from_state(m, gamma, eta)
                derived = composites.spin_form_from_conjugate(conj, E, tol=tol)
                K = _Kind(spin.kind, tol)
                (s_d, D), (s_s, S) = derived.scaled, spin.scaled
                dev = K.unscaled((s_d * s_s,
                                  np.max(np.abs(D * s_s - S * s_d))))
                cdata["derived_form_flags"] = derived.flag_summary()
                cdata["derived_matches_invariant_form"] = K.is_zero(dev)
                cdata["derived_form_deviation"] = dev
            add("conjugate", PASS, cdata, cnotes)

    # -- self-duality ---------------------------------------------------------
    if blocked("spin-form"):
        add("self-duality", NA, notes=["needs the invariant form"])
    elif E.kind == "exact":
        sdrep = cones.is_self_dual(E.effect_cone, spin.matrix,
                                   E.dual_effect_cone)
        add("self-duality", PASS if sdrep.self_dual else FAIL,
            {"self_dual": sdrep.self_dual,
             "pairwise_min": sdrep.pairwise_min,
             "pairwise_argmin": sdrep.pairwise_argmin,
             "dual_generators": sdrep.dual.all_generators(),
             "failures": sdrep.failures},
            ["exact double-description computation of the dual cone"])
    else:
        # sampled + analytic: pair the sampled effects under the form, and
        # certify the full cone analytically when the form is the trace
        # pairing (the positive-semidefinite cone is self-dual under it).
        gens = [np.asarray(g, float) for g in E.cone_generators]
        Bm = np.asarray(spin.matrix, float)
        pmin, parg = None, ()
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                v = float(g @ Bm @ h)
                if pmin is None or v < pmin:
                    pmin, parg = v, (i, j)
        trace_form = np.eye(E.dim) / m.states.dim
        dev = float(np.max(np.abs(Bm - trace_form)))
        analytic = bool(m.states.builtin) and dev <= 1e-6
        ok = (pmin is not None and pmin >= -tol) and analytic
        add("self-duality", PASS if ok else FAIL,
            {"self_dual": ok, "sampled_pairwise_min": pmin,
             "sampled_pairwise_argmin": list(parg),
             "trace_form_deviation": dev,
             "analytic_certificate": analytic},
            ["sampled check: all pairs of sampled effects pair "
             "nonnegatively under the form",
             "analytic certificate: the form equals the normalized trace "
             "pairing, under which the positive-semidefinite cone is "
             "self-dual"])

    # -- weak self-duality ------------------------------------------------------
    if blocked("spin-form"):
        add("weak-self-duality", NA, notes=["needs the invariant form"])
    elif E.kind == "exact":
        wrep = cones.is_weakly_self_dual(E.effect_cone, sdrep.dual)
        wst = {"yes": PASS, "no": FAIL, "unknown": UNKNOWN}[wrep.status]
        add("weak-self-duality", wst,
            {"status": wrep.status, "map": wrep.map,
             "ray_bijection": wrep.bijection, "scalars": wrep.scalars},
            wrep.notes)
    else:
        if status["self-duality"] == PASS:
            add("weak-self-duality", PASS,
                {"status": "yes", "map": "identity"},
                ["a self-dual cone is weakly self-dual via the identity"])
        else:
            add("weak-self-duality", UNKNOWN,
                {"status": "unknown"},
                ["no exact ray enumeration for sampled quantum cones"])

    # -- order-unit product recovery ----------------------------------------------
    recovered = None
    if blocked("spin-form", "self-duality"):
        add("jordan-recovery", NA,
            notes=["needs a self-dual cone and the invariant form"])
    else:
        prob = _recovery_problem(E, spin, tol)
        res = jordan.recover_jordan_product(prob, seed=seed)
        # an algebra comes back only through every gate of the recovery;
        # the unit's interior heuristic is the one it does not enforce
        ok = (res.algebra is not None
              and res.gates["unit_interior_heuristic"])
        rdata = {"linear_solution_dim": res.linear_solution_dim,
                 "residual": res.residual, "seeds_agree": res.seeds_agree,
                 "gates": res.gates, "exact": prob.exact}
        rnotes = list(res.notes)
        if ok:
            recovered = res.algebra
            vrep3 = jordan.verify_symmetric_cone(
                recovered, sample_count=sample_count, seed=seed, tol=tol)
            rdata["symmetric_cone_check"] = {
                "ok": vrep3.ok, "failures": vrep3.failures,
                "max_homogeneity_error": vrep3.max_homogeneity_error,
                "min_self_duality_pairing": vrep3.min_pairing}
            rnotes += vrep3.notes
            ok = ok and vrep3.ok
        # a family of products left by the linear stage decides nothing
        add("jordan-recovery", PASS if ok else
            UNKNOWN if res.linear_solution_dim > 0 else FAIL, rdata, rnotes)

    # -- homogeneity, read off the recovered product (Koecher-Vinberg) ---------
    # A cone of squares of a Euclidean Jordan algebra is homogeneous; without
    # a recovered product nothing is known, so the stage never says "fail".
    if blocked("effect-space"):
        add("homogeneity", NA, notes=["needs the effect space"])
    elif blocked("jordan-recovery"):
        add("homogeneity", UNKNOWN, {"homogeneous": None, "proved": False},
            ["no Jordan product was recovered, so nothing is decided"])
    else:
        add("homogeneity", PASS,
            {"homogeneous": True, "proved": recovered.exact},
            [jordan.KV_NOTE if recovered.exact else
             "sampled, not proved: gate 4 of the recovered product's "
             "symmetric-cone check found P(w^(1/2)) e = w, with squares "
             "kept in the cone, on every seeded interior sample w"])

    # -- identification ---------------------------------------------------------
    if blocked("jordan-recovery"):
        add("identification", NA, notes=["needs a recovered product"])
    else:
        rank = jordan.recovered_rank(res, seed=seed)
        cands = jordan.algebra_candidates(recovered.dim, rank)
        idata = {"dim": recovered.dim, "rank": rank, "candidates": cands}
        inotes = []
        if len(cands) > 1:
            inotes.append("dimension and rank do not separate these "
                          "candidates; listed in full")
        add("identification", PASS if cands else FAIL, idata, inotes)

    stages.sort(key=lambda s: STAGE_ORDER.index(s.name))
    return PipelineReport(m, seed, tol, stages, expect)


def _recovery_problem(E, spin, tol: float) -> jordan.RecoveryProblem:
    """Assemble recovery inputs, as the pairs the effect space and the form
    hold: on an exact effect space the effect cone's integer rows and its
    extreme rays, for the exact frame gate; otherwise floats and a stacked
    membership test, for the sampled squares gate."""
    rays, membership = [], None
    if E.kind == "exact":
        gens = [(1, g) for g in E.effect_cone.matrix]
        rays = [list(r) for r in E.effect_cone.rays]
    else:
        gens = [_Kind("float").scaled(g) for g in E.cone_generators]

        def membership(V):
            return effectspace.min_eigenvalues(E, V) >= -tol
    return jordan.RecoveryProblem(
        dim=E.dim, B=spin.scaled, u=E.scaled_unit, cone_generators=gens,
        actions=list(E.actions), outcome_vectors=gens,
        cone_membership=membership, extreme_rays=rays)
