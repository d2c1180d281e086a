import dataclasses

import pytest

from kvwb.builtins import builtin_names, get_builtin
from kvwb.effectspace import build_effect_space
from kvwb.models import PolytopeBackend
from kvwb.pipeline import STAGE_ORDER, conjugation_bijection, run_pipeline
from kvwb.serialize import dumps_canonical, model_from_json, model_to_json

GOOD = ["classical:2", "classical:3", "classical:4", "classical:5",
        "qubit:real", "qubit:complex", "qutrit:complex"]


def run(name, **kw):
    return run_pipeline(get_builtin(name), **kw)


@pytest.mark.parametrize("name", GOOD)
def test_regular_models_pass_every_stage(name):
    rep = run(name)
    assert rep.failures == []
    assert rep.ok
    assert [s.name for s in rep.stages] == STAGE_ORDER


@pytest.mark.parametrize("name", ["classical:3", "squit"])
def test_conjugate_lp_is_solved_once(name, monkeypatch):
    from kvwb import composites
    calls = []
    search = composites.find_conjugate_state

    def counted(*args, **kw):
        calls.append(args)
        return search(*args, **kw)

    monkeypatch.setattr(composites, "find_conjugate_state", counted)
    assert run(name).stage("conjugate").status == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["classical:4", "squit"])
def test_effect_space_parts_are_computed_once(name, monkeypatch):
    """One effect space, one set of actions, and one double description:
    the unpaired dual of the effect cone, shared by every isomorphism check
    and mapped by the inverse form to the form dual of the self-duality
    stage, which weak self-duality reuses."""
    from kvwb import cones, effectspace
    calls = {"build": 0, "actions": 0, "dd": 0}

    def counted(key, fn):
        def wrapper(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    # every build_effect_space goes through one of these module globals,
    # whichever namespace imported build_effect_space itself
    for builder in ("_build_exact", "_build_float"):
        monkeypatch.setattr(effectspace, builder,
                            counted("build", getattr(effectspace, builder)))
    monkeypatch.setattr(
        effectspace.OrderUnitSpace, "all_effect_actions",
        counted("actions", effectspace.OrderUnitSpace.all_effect_actions))
    monkeypatch.setattr(cones, "halfspace_cone_rays",
                        counted("dd", cones.halfspace_cone_rays))
    rep = run(name)
    assert rep.stage("homogeneity").status != "not-applicable"
    assert calls == {"build": 1, "actions": 1, "dd": 1}


@pytest.mark.parametrize("name, calls", [("classical:4", 1), ("squit", 1)])
def test_eta_is_checked_once(name, calls, monkeypatch):
    """Only the conjugate stage checks a bipartite state: the homogeneity
    stage reads the recovered product and checks no witness."""
    from kvwb import composites
    states = []
    check = composites.is_isomorphism_state

    def counted(w, *args, **kw):
        states.append(w)
        return check(w, *args, **kw)

    monkeypatch.setattr(composites, "is_isomorphism_state", counted)
    assert run(name).stage("homogeneity").status != "not-applicable"
    assert len(states) == len({id(w) for w in states}) == calls


@pytest.mark.parametrize("name, calls", [("classical:4", 0), ("squit", 0),
                                         ("qubit:real", 1)])
def test_eta_is_validated_only_by_its_search(name, calls, monkeypatch):
    """The conjugate stage reports `valid_bipartite` from the certificate of
    `find_conjugate_state`; only the quantum construction validates eta."""
    from kvwb import composites
    seen = []
    validate = composites.validate_bipartite

    def counted(w, *args, **kw):
        seen.append(w)
        return validate(w, *args, **kw)

    monkeypatch.setattr(composites, "validate_bipartite", counted)
    stage = run(name).stage("conjugate")
    assert stage.status == "pass" and stage.data["valid_bipartite"] is True
    assert len(seen) == calls


@pytest.mark.parametrize("name", [
    n for n in builtin_names()
    if isinstance(get_builtin(n).states, PolytopeBackend)] + ["gbit:3"])
def test_certified_eta_is_a_valid_bipartite_state(name):
    from kvwb import composites
    m = get_builtin(name)
    eta = composites.find_conjugate_state(m, gamma=conjugation_bijection(m))
    assert composites.validate_bipartite(eta).ok


def test_gbit_2_is_the_square_bit():
    def statuses(name):
        return [(s.name, s.status) for s in run(name).stages]
    assert statuses("gbit:2") == statuses("squit")


@pytest.mark.parametrize("name", ["gbit:3", "gbit:4"])
def test_hypercubes_have_a_conjugate_but_no_self_duality(name):
    rep = run(name)
    assert rep.stage("sharpness").status == "fail"
    assert rep.stage("conjugate").status == "pass"
    assert rep.stage("self-duality").status == "fail"


@pytest.mark.parametrize("name", ["classical:3", "qubit:complex"])
def test_rank_is_computed_once(name, monkeypatch):
    """One call of the shared rank helper; it reads the exact product's
    rank off its Jordan frame and samples only the float one."""
    from kvwb import jordan
    calls, draws = [], []
    rank, generic = jordan.recovered_rank, jordan.generic_rank

    def counted(*args, **kw):
        calls.append(args)
        return rank(*args, **kw)

    def drawn(*args, **kw):
        draws.append(args)
        return generic(*args, **kw)

    monkeypatch.setattr(jordan, "recovered_rank", counted)
    monkeypatch.setattr(jordan, "generic_rank", drawn)
    assert run(name).stage("identification").status == "pass"
    assert len(calls) == 1
    assert len(draws) == (name == "qubit:complex")


def test_squit_fails_exactly_where_it_should():
    rep = run("squit")
    assert rep.failures == ["sharpness", "self-duality"]
    assert not rep.ok
    # the square is the classic weakly-but-not-strongly self-dual example
    assert rep.stage("weak-self-duality").status == "pass"
    assert rep.stage("jordan-recovery").status != "pass"


def test_squit_klein_cascade():
    rep = run("squit:klein")
    assert rep.failures == ["sharpness", "irreducibility", "spin-form"]
    # without a distinguished form the form-dependent stages cannot run;
    # the conjugate search needs only the group, so it still does
    for later in ("unitarity", "self-duality", "weak-self-duality",
                  "jordan-recovery", "identification"):
        assert rep.stage(later).status == "not-applicable"
    assert rep.stage("conjugate").status == "pass"


def validation_failure():
    """`classical:3` with vertex 0 summing to 2 on the one test."""
    spec = model_to_json(get_builtin("classical:3"))
    spec["states"]["extreme"][0]["e1"] = "1"
    return run_pipeline(model_from_json(spec))


def effect_space_failure(monkeypatch):
    """`classical:3` with an effect space that cannot be built."""
    from kvwb import effectspace

    def broken(m):
        raise ValueError("no effect space")

    monkeypatch.setattr(effectspace, "build_effect_space", broken)
    return run("classical:3")


def test_failed_validation_makes_every_other_stage_not_applicable():
    rep = validation_failure()
    assert rep.stage("validation").status == "fail"
    assert rep.stage("validation").data["problems"]
    assert [(s.name, s.status, s.data, s.notes) for s in rep.stages[1:]] == [
        (name, "not-applicable", {}, ["validation failed"])
        for name in STAGE_ORDER[1:]]


def test_a_failed_effect_space_names_the_missing_prerequisite(monkeypatch):
    rep = effect_space_failure(monkeypatch)
    assert [(s.name, s.status) for s in rep.stages[:4]] == [
        ("validation", "pass"), ("bisymmetry", "pass"),
        ("sharpness", "pass"), ("effect-space", "fail")]
    assert rep.stage("effect-space").data == {"error": "no effect space"}
    assert {s.name: (s.status, s.data, s.notes) for s in rep.stages[4:]} == {
        name: ("not-applicable", {}, [note]) for name, note in {
            "irreducibility": "needs the effect space",
            "spin-form": "needs the effect space",
            "unitarity": "needs the invariant form",
            "conjugate": "needs the effect space",
            "self-duality": "needs the invariant form",
            "weak-self-duality": "needs the invariant form",
            "homogeneity": "needs the effect space",
            "jordan-recovery": "needs a self-dual cone and the invariant "
                               "form",
            "identification": "needs a recovered product"}.items()}


@pytest.mark.parametrize("name", builtin_names() + [
    "validation-failure", "effect-space-failure"])
def test_a_stage_is_not_applicable_exactly_when_blocked(name, monkeypatch):
    """A stage is not-applicable exactly when validation failed or one of
    its prerequisites in the stage table did not pass."""
    from kvwb.pipeline import _STAGES
    rep = (validation_failure() if name == "validation-failure" else
           effect_space_failure(monkeypatch)
           if name == "effect-space-failure" else run(name))
    status = {s.name: s.status for s in rep.stages}
    for stage, needs, _, _ in _STAGES[1:]:
        blocked = status["validation"] != "pass" or any(
            status[p] != "pass" for p in needs)
        assert (status[stage] == "not-applicable") is blocked, stage


@pytest.mark.parametrize("name", ["classical:3", "qubit:complex"])
def test_recovery_needs_unitarity(name, monkeypatch):
    """A form some symmetry does not keep leaves no recovery to run: the
    stage is not-applicable with its usual note, and so is identification."""
    from kvwb import forms
    monkeypatch.setattr(forms, "check_unitarity", lambda *a, **k: False)
    rep = run(name)
    assert rep.stage("unitarity").status == "fail"
    stage = rep.stage("jordan-recovery")
    assert (stage.status, stage.data, stage.notes) == (
        "not-applicable", {},
        ["needs a self-dual cone and the invariant form"])
    assert rep.stage("identification").status == "not-applicable"


def off_contract(monkeypatch):
    """Recovery problems whose first action is sent to its negative, which
    keeps the form and moves the unit."""
    from kvwb import pipeline
    problem = pipeline._recovery_problem

    def moved(E, spin, tol):
        p = problem(E, spin, tol)
        (s, M), *rest = p.actions
        return dataclasses.replace(p, actions=[(s, -M), *rest])
    monkeypatch.setattr(pipeline, "_recovery_problem", moved)


@pytest.mark.parametrize("name", ["qubit:real", "qutrit:complex"])
def test_recovery_off_its_contract_is_a_verdict(name, monkeypatch):
    """An action that moves the unit stops the float recovery with a
    ValueError, which the stage reports as its failure, not a crash."""
    off_contract(monkeypatch)
    rep = run(name)
    stage = rep.stage("jordan-recovery")
    assert (stage.status, stage.data, stage.notes) == (
        "fail", {"exact": False}, ["a recovery action moves the unit"])
    assert rep.stage("unitarity").status == "pass"
    assert rep.stage("homogeneity").status == "unknown"
    assert rep.stage("identification").status == "not-applicable"
    dumps_canonical(rep.to_json())


def test_the_stage_table_runs_prerequisites_first():
    from kvwb.pipeline import EXPECT_TOKENS, _STAGES
    names = [name for name, _, _, _ in _STAGES]
    assert names[0] == "validation" and _STAGES[0][1] == ()
    assert len(names) == len(set(names)) and set(names) == set(STAGE_ORDER)
    for i, (name, needs, note, _) in enumerate(_STAGES):
        assert set(needs) <= set(names[:i]), name
        assert (note is None) is (not needs), name
    assert set(EXPECT_TOKENS.values()) <= set(names)


def test_expectations_flip_the_verdict():
    rep = run("squit", expect=("not-sharp", "not-self-dual"))
    assert rep.ok
    rep2 = run("squit", expect=("not-sharp",))
    assert not rep2.ok
    rep3 = run("classical:3", expect=("not-sharp",))
    assert not rep3.ok


def test_unknown_expectation_token_rejected():
    with pytest.raises(ValueError):
        run("squit", expect=("not-a-real-token",))


def test_identification_contents():
    rep = run("classical:3")
    names = rep.stage("identification").data["candidates"]
    assert names == ["RealSym(1) + RealSym(1) + RealSym(1)"]
    repq = run("qubit:complex")
    assert "ComplexHerm(2)~SpinFactor(3)" in repq.stage(
        "identification").data["candidates"]


def test_report_json_is_deterministic():
    a = dumps_canonical(run("classical:3").to_json())
    b = dumps_canonical(run("classical:3").to_json())
    assert a == b


def test_report_json_survives_model_round_trip():
    m = get_builtin("squit")
    m2 = model_from_json(model_to_json(m))
    a = dumps_canonical(run_pipeline(m).to_json())
    b = dumps_canonical(run_pipeline(m2).to_json())
    assert a == b


def test_markdown_contains_the_stage_table():
    md = run("squit").to_markdown()
    for name in STAGE_ORDER:
        assert name in md
    assert "fail" in md and "pass" in md


def test_quantum_report_embeds_model_spec():
    blob = run("qubit:complex").to_json()
    assert blob["model_spec"]["states"]["kind"] == "quantum"
    assert blob["model"]["name"] == "qubit:complex"
    assert blob["model"]["backend"] == "quantum"


@pytest.mark.parametrize("name", ["classical:4", "qutrit:complex"])
def test_invariance_rows_are_built_once(name, monkeypatch):
    """Irreducibility and the spin search share the effect space's rows."""
    from kvwb import forms
    calls = []
    build = forms.invariance_rows

    def counted(*args, **kw):
        calls.append(args)
        return build(*args, **kw)

    monkeypatch.setattr(forms, "invariance_rows", counted)
    rep = run(name)
    assert rep.stage("spin-form").status == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["classical:3", "squit", "squit:klein"])
def test_exact_effect_space_stage_counts_the_integer_rows(name, monkeypatch):
    """The effect-space stage counts the rows of the effect cone's integer
    matrix, and an exact run never reads the cone's `Fraction` view
    through `cone_generators`."""
    from kvwb.effectspace import OrderUnitSpace
    reads = []
    fraction_view = OrderUnitSpace.cone_generators.fget

    def counted(E):
        reads.append(E)
        return fraction_view(E)
    monkeypatch.setattr(OrderUnitSpace, "cone_generators", property(counted))
    rep = run(name)
    E = build_effect_space(get_builtin(name))
    assert rep.stage("effect-space").data["generators"] == len(
        E.effect_cone.matrix) == len(fraction_view(E))
    assert len(reads) == 0


@pytest.mark.parametrize("name", ["classical:4", "squit", "qubit:complex"])
def test_pair_checks_make_no_per_pair_form_values(name, monkeypatch):
    """The flag and derived-form pair checks read one Gram matrix."""
    from kvwb import forms
    calls = []
    value = forms.BilinearForm.value

    def counted(self, a, b):
        calls.append((a, b))
        return value(self, a, b)

    monkeypatch.setattr(forms.BilinearForm, "value", counted)
    rep = run(name)
    assert rep.stage("conjugate").status == "pass"
    assert calls == []


def dual_ray_membership(E, tol):
    """Membership of a float vector in the closed effect cone K = K**: it
    pairs nonnegatively with every generator of the cached dual cone
    (`PolyhedralCone.dual_contains`), one integer product, after rounding
    noise is absorbed into a tol-sized multiple of the order unit."""
    from fractions import Fraction
    from kvwb.linalg import _integer_block
    slack = Fraction(tol).limit_denominator(10**12)

    def membership(v):
        vv = [Fraction(float(x)) + slack * b for x, b in zip(v, E.u)]
        inside, _ = E.dual_effect_cone.dual_contains(
            _integer_block(vv)[1][:, None])
        return bool(inside[0])
    return membership


def probes(E, rng):
    """Cone points, points just outside by less and by more than the slack
    of the exact gate, and points with negative conic coefficients."""
    import numpy as np
    G = np.array([[float(x) for x in g] for g in E.cone_generators])
    u = np.array([float(x) for x in E.u])
    out = [g for g in G]
    for _ in range(40):
        c = rng.uniform(-0.3, 1, len(G)) * (rng.random(len(G)) < 0.6)
        out.append(c @ G)
        out.append(c @ G - rng.choice([1e-11, 1e-9, 1e-6]) * u)
    out += [rng.standard_normal(len(u)) for _ in range(20)]
    return out


@pytest.mark.parametrize("name", ["classical:3", "classical:5", "squit",
                                  "squit:klein", "gbit:3", "gbit:4"])
def test_exact_squares_gate_matches_the_lp(name):
    """Membership by the dual cone's rays, which self-duality and the
    isomorphism check read, gives the phase-one LP's verdict on every
    probe: K = K** for the closed effect cone.  The exact recovery problem
    holds no membership oracle now, only the extreme rays."""
    import numpy as np
    import reference_kernels as oracle
    from kvwb.effectspace import build_effect_space
    from kvwb.forms import find_orthogonalizing_spin_form
    from kvwb.pipeline import _recovery_problem
    m = get_builtin(name)
    E = build_effect_space(m)
    spin = find_orthogonalizing_spin_form(m, E).form
    if spin is not None:
        p = _recovery_problem(E, spin, 1e-9)
        assert p.cone_membership is None
        assert p.extreme_rays == [list(r) for r in E.effect_cone.rays]
    gate = dual_ray_membership(E, 1e-9)
    lp = oracle.squares_membership(E, 1e-9)
    verdicts = [gate(v) for v in probes(E, np.random.default_rng(1))]
    assert verdicts == [lp(v) for v in probes(E, np.random.default_rng(1))]
    assert True in verdicts and False in verdicts


def test_exact_squares_gate_reads_the_lineality():
    """A cone that is not full-dimensional: its dual has a lineality, and
    membership needs l·v = 0 on it as well as f·v >= 0 on the rays."""
    from fractions import Fraction as F
    from types import SimpleNamespace
    import numpy as np
    import reference_kernels as oracle
    from kvwb.cones import cone, dual_cone
    K = cone([[1, 1, 0], [1, 0, 1]])
    E = SimpleNamespace(kind="exact", dim=3, u=[F(2), F(1), F(1)],
                        effect_cone=K, cone_generators=list(K.generators),
                        dual_effect_cone=dual_cone(K), actions=())
    assert E.dual_effect_cone.lineality
    gate = dual_ray_membership(E, 1e-9)
    lp = oracle.squares_membership(E, 1e-9)
    rng = np.random.default_rng(3)
    vs = [rng.uniform(-0.2, 1, 2) @ np.array([[1, 1, 0], [1, 0, 1]])
          for _ in range(20)] + [rng.standard_normal(3) for _ in range(20)]
    verdicts = [gate(v) for v in vs]
    assert verdicts == [lp(v) for v in vs]
    assert True in verdicts and False in verdicts


#: `cones.dual_cone` calls per run: one, the effect space's dual cone, which
#: the exact squares gate reads and the self-duality stage maps by the
#: inverse form (two while the form dual had its own double description).
DUAL_CONE_CALLS = {
    **{name: 1 for name in ["classical:2", "classical:3", "classical:4",
                            "classical:5", "classical:6", "squit",
                            "gbit:3", "gbit:4", "gbit:5", "gbit:6"]},
    **{name: 0 for name in ["squit:klein", "qubit:real", "qubit:complex",
                            "qutrit:complex"]},
}


@pytest.mark.parametrize("name", sorted(DUAL_CONE_CALLS))
def test_squares_gate_adds_no_dual_cone(name, monkeypatch):
    from kvwb import cones, effectspace, jordan
    calls, in_recovery = [], []
    dual, recover = cones.dual_cone, jordan.recover_jordan_product

    def counted(*args, **kw):
        calls.append(args)
        return dual(*args, **kw)

    def recovery(*args, **kw):
        before = len(calls)
        res = recover(*args, **kw)
        in_recovery.append(len(calls) - before)
        return res

    monkeypatch.setattr(cones, "dual_cone", counted)
    monkeypatch.setattr(effectspace, "dual_cone", counted)
    monkeypatch.setattr(jordan, "recover_jordan_product", recovery)
    run(name)
    assert len(calls) == DUAL_CONE_CALLS[name]
    assert not any(in_recovery)
    assert set(builtin_names()) <= set(DUAL_CONE_CALLS)


@pytest.mark.parametrize("name", builtin_names() + ["classical:6"])
def test_recovery_is_pinned_by_its_linear_stage(name):
    """Every model that reaches recovery leaves no family of products, so
    its product is the linear stage's one solution."""
    stage = run(name).stage("jordan-recovery")
    if stage.status != "not-applicable":
        assert stage.status == "pass"
        assert stage.data["linear_solution_dim"] == 0


def test_a_family_of_products_is_unknown(monkeypatch):
    """Recovery without idempotence rows leaves a one-parameter family on
    classical:3; the stage then decides nothing, and identification waits."""
    from kvwb import jordan
    recover = jordan.recover_jordan_product

    def without_outcomes(p, seed=42):
        return recover(dataclasses.replace(p, outcome_vectors=[]), seed=seed)

    monkeypatch.setattr(jordan, "recover_jordan_product", without_outcomes)
    rep = run("classical:3")
    stage = rep.stage("jordan-recovery")
    assert stage.status == "unknown"
    assert stage.data["linear_solution_dim"] == 1
    assert stage.data["seeds_agree"] is None
    assert stage.data["residual"] is None    # no Infinity in the report
    assert rep.stage("identification").status == "not-applicable"
    assert rep.failures == []


def witness_verdict(m) -> str:
    """The status of the sampled witness report that the homogeneity stage
    gave before it read the recovered product: `pass` when the oracle
    verifies every sample with sound witnesses, `unknown` otherwise."""
    import reference_kernels as oracle
    from kvwb import composites
    E = build_effect_space(m)
    try:
        eta = composites.find_conjugate_state(m, gamma=conjugation_bijection(m))
    except composites.CompositeError:
        eta = None
    eta_iso = None if eta is None else oracle.is_isomorphism_state(eta, E, E)
    hrep = oracle.homogeneity_report(
        E, *oracle._homogeneity_inputs(m, eta, eta_iso))
    return ("pass" if hrep.verified_on_samples and all(hrep.witness_ok)
            else "unknown")


@pytest.mark.parametrize("name", builtin_names() + [
    "classical:6", "gbit:3", "gbit:4", "gbit:5"])
def test_homogeneity_stage_matches_the_witness_oracle(name):
    """The stage passes exactly where the product is recovered and where the
    old witness report passed: proved with the Koecher-Vinberg note on
    exact models, sampled on float ones; elsewhere it is unknown."""
    from kvwb.jordan import KV_NOTE
    m = get_builtin(name)
    rep = run_pipeline(m)
    stage, recovery = rep.stage("homogeneity"), rep.stage("jordan-recovery")
    assert stage.status == witness_verdict(m)
    if stage.status == "pass":
        assert recovery.status == "pass"
        exact = recovery.data["exact"]
        assert stage.data == {"homogeneous": True, "proved": exact}
        assert (stage.notes == [KV_NOTE]) is exact
    else:
        assert stage.status == "unknown" and recovery.status != "pass"
        assert stage.data == {"homogeneous": None, "proved": False}


@pytest.mark.parametrize("name", ["classical:3", "qubit:real"])
def test_homogeneity_is_unknown_when_the_cone_check_fails(name, monkeypatch):
    """A recovered product that fails its symmetric-cone check decides
    nothing about homogeneity: the stage says unknown, never fail."""
    from kvwb import jordan

    def failing(J, **kw):
        return jordan.SymmetricConeReport(
            ok=False, failures=[{"gate": "trace-form-pd"}])

    monkeypatch.setattr(jordan, "verify_symmetric_cone", failing)
    rep = run(name)
    assert rep.stage("jordan-recovery").status == "fail"
    stage = rep.stage("homogeneity")
    assert stage.status == "unknown"
    assert stage.data == {"homogeneous": None, "proved": False}
    assert [s.name for s in rep.stages] == STAGE_ORDER
