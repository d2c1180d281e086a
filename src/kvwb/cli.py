"""Command-line interface.

Every subcommand prints a canonical JSON document (sorted keys, no
timestamps), so identical invocations produce byte-identical output;
`--format md` renders the same content as markdown.  MODEL arguments accept a
built-in name (see `kvwb run --list`) or a path to a model JSON file; a model
that cannot be loaded exits with code 3.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

import click

from . import composites, cones, effectspace, forms, jordan, models
from .builtins import builtin_names, conjugation_bijection
from .pipeline import EXPECT_TOKENS, run_pipeline
from .serialize import (bipartite_to_json, cone_from_json, cone_to_json,
                        dumps_canonical, form_from_json, form_to_json,
                        frac_str, load_model, model_from_json)


class LoadError(click.ClickException):
    """A model file that is missing, not JSON, or not a valid model."""

    exit_code = 3


def _load(source: str, seed: int):
    try:
        return load_model(source, seed=seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise LoadError(f"cannot load model {source}: {exc}") from exc


def _emit(doc: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        click.echo(f"wrote {out}")
    else:
        click.echo(doc, nl=False)


model_arg = click.argument("model")
seed_opt = click.option("--seed", default=42, show_default=True,
                        help="Seed for every randomized step.")
tol_opt = click.option("--tol", default=1e-9, show_default=True,
                       help="Numerical tolerance for float checks.")
out_opt = click.option("--out", default=None, type=click.Path(),
                       help="Write the document here instead of stdout.")


@click.group()
def main() -> None:
    """Symmetry, self-duality, and product recovery for probabilistic models."""


# ---------------------------------------------------------------------------
# pipeline

def _pipeline(model, seed, tol, expect=()):
    if not model:
        raise click.UsageError("give a MODEL argument or --builtin NAME")
    m = _load(model, seed)
    return run_pipeline(m, seed=seed, tol=tol, expect=expect)


@main.command()
@click.argument("model", required=False)
@click.option("--builtin", "builtin", default=None,
              help="Built-in model name (alias for the MODEL argument).")
@click.option("--expect", default="",
              help="Comma-separated failure expectations; the run exits 0 "
                   "only if the failing stages match exactly.  Tokens: "
                   + ", ".join(sorted(EXPECT_TOKENS)) + ".")
@click.option("--list", "list_builtins", is_flag=True,
              help="List built-in model names and exit.")
@click.option("--format", "fmt", type=click.Choice(["json", "md"]),
              default="json", show_default=True)
@seed_opt
@tol_opt
@out_opt
def run(model, builtin, expect, list_builtins, fmt, seed, tol, out):
    """Run the full analysis pipeline and exit 0 iff failures match --expect."""
    if list_builtins:
        click.echo("\n".join(builtin_names()))
        return
    tokens = tuple(t.strip() for t in expect.split(",") if t.strip())
    rep = _pipeline(model or builtin, seed, tol, expect=tokens)
    doc = rep.to_markdown() if fmt == "md" else dumps_canonical(rep.to_json())
    _emit(doc, out)
    if not rep.ok:
        sys.exit(1)


@main.command()
@click.argument("model", required=False)
@click.option("--builtin", "builtin", default=None,
              help="Built-in model name (alias for the MODEL argument).")
@click.option("--format", "fmt", type=click.Choice(["json", "md"]),
              default="json", show_default=True)
@seed_opt
@tol_opt
@out_opt
def report(model, builtin, fmt, seed, tol, out):
    """Emit the full pipeline report (json or md) without expectation gating."""
    rep = _pipeline(model or builtin, seed, tol)
    doc = rep.to_markdown() if fmt == "md" else dumps_canonical(rep.to_json())
    _emit(doc, out)


def _run_settings(saved: dict) -> tuple[int, float, tuple[str, ...]]:
    """The seed, tolerance and expected failures of a saved report, checked:
    an integer, a real number (neither a bool) and a list of tokens of
    `EXPECT_TOKENS`; anything else raises ValueError or KeyError."""
    seed, tol = saved["seed"], saved["tol"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed: expected an integer, got {seed!r}")
    if not isinstance(tol, (int, float)) or isinstance(tol, bool):
        raise ValueError(f"tol: expected a real number, got {tol!r}")
    expect = saved.get("expected_failures", [])
    if not isinstance(expect, list) or not all(
            isinstance(t, str) and t in EXPECT_TOKENS for t in expect):
        raise ValueError(f"expected_failures: expected a list of tokens "
                         f"from {sorted(EXPECT_TOKENS)}, got {expect!r}")
    return seed, tol, tuple(expect)


@main.command()
@click.argument("report_file", type=click.Path(exists=True))
def reverify(report_file):
    """Recompute a saved pipeline report and compare byte-for-byte.

    The report embeds the model it was computed from, the seed, the
    tolerance, and the expected failures, so the whole run is reproducible
    from the file alone.
    """
    try:
        with open(report_file, encoding="utf-8") as fh:
            saved = json.load(fh)
        m = model_from_json(saved["model_spec"])
        seed, tol, expect = _run_settings(saved)
    except (ValueError, KeyError, TypeError) as exc:
        raise LoadError(f"cannot load report {report_file}: {exc}") from exc
    rep = run_pipeline(m, seed=seed, tol=tol, expect=expect)
    fresh = dumps_canonical(rep.to_json())
    agrees = fresh == dumps_canonical(saved)
    _emit(dumps_canonical({"report": report_file, "agrees": agrees,
                           "stages_recomputed": len(rep.stages)}), None)
    if not agrees:
        sys.exit(1)


# ---------------------------------------------------------------------------
# single-stage commands

@main.command()
@model_arg
@seed_opt
@tol_opt
@out_opt
def validate(model, seed, tol, out):
    """Structural and probabilistic consistency of a model."""
    m = _load(model, seed)
    rep = models.validate_model(m, tol=tol)
    _emit(dumps_canonical({"model": m.name, "ok": rep.ok,
                           "problems": rep.problems, **rep.data}), out)
    if not rep.ok:
        sys.exit(1)


@main.command()
@model_arg
@seed_opt
@out_opt
def bisym(model, seed, out):
    """Transitivity of the symmetry group on outcomes, tests, and pairs.

    Exits 1 when the model is not fully bisymmetric, and 2 when that is
    unknown, which happens only on a sampled quantum model.
    """
    m = _load(model, seed)
    rep = models.check_bisymmetry(m)
    _emit(dumps_canonical({"model": m.name, **vars(rep)}), out)
    if rep.fully_bisymmetric is not True:
        sys.exit(1 if rep.fully_bisymmetric is False else 2)


@main.command()
@model_arg
@seed_opt
@tol_opt
@out_opt
def spin(model, seed, tol, out):
    """The orthogonalizing unit-normalized invariant form, with uniqueness."""
    m = _load(model, seed)
    E = effectspace.build_effect_space(m)
    rep = forms.check_spin_uniqueness(m, E, tol=tol)
    res = rep.spin
    doc = {"model": m.name, "irreducible": rep.irreducible,
           "solution_space_dim": rep.solution_space_dim,
           "form_found": res.form is not None,
           "form": form_to_json(res.form) if res.form is not None else None,
           "notes": res.notes}
    _emit(dumps_canonical(doc), out)
    if res.good_form is None:
        sys.exit(1)


@main.command()
@model_arg
@click.option("--no-invariance", is_flag=True,
              help="Drop the symmetry-invariance constraints from the search.")
@seed_opt
@tol_opt
@out_opt
def conjugate(model, no_invariance, seed, tol, out):
    """Search for a conjugate bipartite state (uniform diagonal, conditionals
    in the cone both ways, symmetry-invariant)."""
    m = _load(model, seed)
    gamma = conjugation_bijection(m, tol=tol)
    eta = composites.find_conjugate_state(
        m, gamma=gamma, require_invariance=not no_invariance, tol=tol)
    doc = {"model": m.name, "gamma": gamma, "found": eta is not None}
    if eta is not None:
        doc["state"] = bipartite_to_json(eta)
        E = effectspace.build_effect_space(m)
        iso = composites.is_isomorphism_state(eta, E, E, tol=tol)
        doc["isomorphism_state"] = vars(iso)
        conj = composites.conjugate_from_state(
            m, gamma, eta, require_invariance=not no_invariance)
        try:
            derived = composites.spin_form_from_conjugate(conj, E, tol=tol)
            doc["derived_form"] = form_to_json(derived)
        except composites.CompositeError as exc:
            # a table found without invariance need not extend to a form
            doc["derived_form"], doc["derived_form_error"] = None, str(exc)
    _emit(dumps_canonical(doc), out)
    if eta is None:
        sys.exit(1)


@main.command()
@model_arg
@click.option("--max-outcomes", default=8, show_default=True,
              help="Skip models with more outcomes than this.")
@seed_opt
@out_opt
def image(model, max_outcomes, seed, out):
    """Enumerate surjective morphism candidates onto smaller models.

    Exits 2 without searching when the model has more outcomes than
    --max-outcomes or no finite outcome symmetry group.
    """
    m = _load(model, seed)
    try:
        cands = models.find_nontrivial_images(m, max_outcomes=max_outcomes)
    except models.ModelError as exc:
        click.echo(f"{m.name}: {exc} (search not run)", err=True)
        sys.exit(2)
    doc = {"model": m.name, "candidates": [vars(c) for c in cands]}
    _emit(dumps_canonical(doc), out)


# ---------------------------------------------------------------------------
# cone subcommands

def _cone_inputs(source, form_path, seed, tol):
    """(cone, pairing matrix, effect space or None) from a model or cone file."""
    try:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
        is_file = True
    except (OSError, ValueError):
        data, is_file = None, False
    if is_file and "generators" in data and "outcomes" not in data:
        K = cone_from_json(data)
        if form_path:
            with open(form_path, encoding="utf-8") as fh:
                B = form_from_json(json.load(fh)).matrix
        else:
            B = None                     # standard dot-product pairing
        return K, B, None, f"cone file {source}"
    m = _load(source, seed)
    E = effectspace.build_effect_space(m)
    if E.kind != "exact":
        return None, None, (m, E), m.name
    K = E.effect_cone
    if form_path:
        with open(form_path, encoding="utf-8") as fh:
            B = form_from_json(json.load(fh)).matrix
    else:
        res = forms.find_orthogonalizing_spin_form(m, E, tol=tol)
        if res.form is None:
            raise click.ClickException(
                "no invariant form found; pass one with --form")
        B = res.form.matrix
    return K, B, None, m.name


form_opt = click.option("--form", "form_path", default=None,
                        type=click.Path(exists=True),
                        help="JSON file with the pairing form (default: the "
                             "model's invariant form, or the dot product "
                             "for cone files).")


@main.group()
def cone() -> None:
    """Dual cones, self-duality, and weak self-duality."""


@cone.command("dual")
@click.argument("source")
@form_opt
@seed_opt
@tol_opt
@out_opt
def cone_dual(source, form_path, seed, tol, out):
    """Generators of the dual cone under the pairing form."""
    K, B, quantum_pair, name = _cone_inputs(source, form_path, seed, tol)
    if quantum_pair is not None:
        raise click.ClickException(
            "sampled quantum cones have no exact dual enumeration; "
            "use `kvwb run` for the sampled+analytic self-duality check")
    D = cones.dual_cone(K, B)
    _emit(dumps_canonical({"source": name, "dual": cone_to_json(D)}), out)


@cone.command("selfdual")
@click.argument("source")
@form_opt
@seed_opt
@tol_opt
@out_opt
def cone_selfdual(source, form_path, seed, tol, out):
    """Is the cone its own dual under the pairing form?"""
    K, B, quantum_pair, name = _cone_inputs(source, form_path, seed, tol)
    if quantum_pair is not None:
        m, _E = quantum_pair
        rep = run_pipeline(m, seed=seed, tol=tol)
        st = rep.stage("self-duality")
        _emit(dumps_canonical({"source": name, "kind": "sampled+analytic",
                               "status": st.status, **st.data,
                               "notes": st.notes}), out)
        if st.status != "pass":
            sys.exit(1)
        return
    if B is None:
        B = [[Fraction(i == j) for j in range(K.dim)] for i in range(K.dim)]
    rep = cones.is_self_dual(K, B)
    _emit(dumps_canonical({"source": name, "self_dual": rep.self_dual,
                           "pairwise_min": rep.pairwise_min,
                           "pairwise_argmin": rep.pairwise_argmin,
                           "failures": rep.failures,
                           "dual": cone_to_json(rep.dual)}), out)
    if not rep.self_dual:
        sys.exit(1)


@cone.command("weak")
@click.argument("source")
@form_opt
@click.option("--ray-cap", default=12, show_default=True,
              help="Largest extreme-ray count to attempt the bijection search.")
@seed_opt
@tol_opt
@out_opt
def cone_weak(source, form_path, ray_cap, seed, tol, out):
    """Search for an order isomorphism onto the dual (weak self-duality)."""
    K, B, quantum_pair, name = _cone_inputs(source, form_path, seed, tol)
    if quantum_pair is not None:
        raise click.ClickException(
            "sampled quantum cones have no exact ray enumeration; "
            "use `kvwb run` for the analytic argument")
    rep = cones.is_weakly_self_dual(K, cones.dual_cone(K, B), cap=ray_cap)
    D = rep.dual
    dual = {**cone_to_json(D), "ambient": D.ambient,
            "extreme": [[frac_str(v) for v in r] for r in D.extreme]}
    _emit(dumps_canonical({"source": name, **vars(rep), "dual": dual}), out)
    if rep.status != "yes":
        sys.exit(1 if rep.status == "no" else 2)


# ---------------------------------------------------------------------------
# jordan subcommands

@main.group(name="jordan")
def jordan_group() -> None:
    """Recover, verify, and identify order-unit products."""


def _recovered(model, seed, tol):
    from .pipeline import _recovery_problem
    m = _load(model, seed)
    E = effectspace.build_effect_space(m)
    form = forms.find_orthogonalizing_spin_form(m, E, tol=tol).good_form
    if form is None:
        raise click.ClickException("no invariant form in good standing; "
                                   "recovery needs one")
    try:
        return m, jordan.recover_jordan_product(
            _recovery_problem(E, form, tol), seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc


@jordan_group.command("recover")
@model_arg
@seed_opt
@tol_opt
@out_opt
def jordan_recover(model, seed, tol, out):
    """Recover the bilinear product pinned by unit, form, and symmetries."""
    m, res = _recovered(model, seed, tol)
    doc = {"model": m.name, "linear_solution_dim": res.linear_solution_dim,
           "residual": res.residual, "seeds_agree": res.seeds_agree,
           "gates": res.gates, "notes": res.notes,
           "tensor": res.algebra.tensor if res.algebra is not None else None}
    _emit(dumps_canonical(doc), out)
    if res.algebra is None:
        sys.exit(1)


_KIND_RE = re.compile(r"^(RealSym|ComplexHerm|QuatHerm|SpinFactor)\((\d+)\)$")


def _algebra_from_name(name: str) -> jordan.JordanAlgebra:
    parts = []
    for token in name.replace(" ", "").split("+"):
        mt = _KIND_RE.match(token)
        if not mt:
            raise click.ClickException(
                f"cannot parse {token!r}; expected e.g. RealSym(3), "
                f"SpinFactor(4), or sums like RealSym(1)+SpinFactor(4)")
        if mt.group(1) != "SpinFactor" and int(mt.group(2)) == 0:
            raise click.ClickException(
                f"cannot build {token!r}: a matrix family needs size 1 or more")
        parts.append(jordan.CATALOG[mt.group(1)](int(mt.group(2))))
    return parts[0] if len(parts) == 1 else jordan.direct_sum(parts)


@jordan_group.command("verify")
@click.argument("kind")
@seed_opt
@tol_opt
@out_opt
def jordan_verify(kind, seed, tol, out):
    """Check that a catalog algebra's cone of squares is a symmetric cone.

    Catalog tensors are exact, so the check is a proof and draws no samples.
    KIND examples: RealSym(3), ComplexHerm(2), QuatHerm(2), SpinFactor(5),
    RealSym(1)+RealSym(1)+RealSym(1).
    """
    J = _algebra_from_name(kind)
    rep = jordan.verify_symmetric_cone(J, seed=seed, tol=tol)
    doc = {"kind": J.kind, "dim": J.dim, **vars(rep)}
    _emit(dumps_canonical(doc), out)
    if not rep.ok:
        sys.exit(1)


@jordan_group.command("identify")
@model_arg
@seed_opt
@tol_opt
@out_opt
def jordan_identify(model, seed, tol, out):
    """Recover a model's product and list the catalog algebras matching it."""
    m, res = _recovered(model, seed, tol)
    if res.algebra is None:
        _emit(dumps_canonical({"model": m.name, "candidates": [],
                               "notes": res.notes}), out)
        sys.exit(1)
    rank = jordan.recovered_rank(res, seed=seed)
    cands = jordan.algebra_candidates(res.algebra.dim, rank)
    doc = {"model": m.name, "dim": res.algebra.dim, "rank": rank,
           "candidates": cands,
           "ambiguous": len(cands) > 1}
    _emit(dumps_canonical(doc), out)
    if not cands:
        sys.exit(1)


if __name__ == "__main__":
    main()
