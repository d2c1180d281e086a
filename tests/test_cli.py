import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

from kvwb import composites, forms
from kvwb.builtins import builtin_names, get_builtin
from kvwb.cli import main
from kvwb.composites import CompositeError, Conjugate, spin_form_from_conjugate
from kvwb.models import Model
from kvwb.serialize import (bipartite_from_json, dumps_canonical, form_to_json,
                            model_to_json)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), catch_exceptions=False, **kw)


def test_list_builtins(runner):
    res = invoke(runner, "run", "--list")
    assert res.exit_code == 0
    names = res.output.split()
    assert "squit" in names and "qutrit:complex" in names


def test_run_exit_codes_follow_expectations(runner):
    res = invoke(runner, "run", "squit")
    assert res.exit_code == 1
    res = invoke(runner, "run", "squit", "--expect", "not-sharp,not-self-dual")
    assert res.exit_code == 0
    res = invoke(runner, "run", "classical:2")
    assert res.exit_code == 0


def test_run_json_is_canonical(runner):
    res = invoke(runner, "run", "classical:2")
    blob = json.loads(res.output)
    assert dumps_canonical(blob) == res.output
    assert blob["ok"] is True


def test_run_markdown(runner):
    res = invoke(runner, "run", "classical:2", "--format", "md")
    assert res.exit_code == 0
    assert "| stage " in res.output or "| stage|" in res.output or "stage" in res.output
    assert "identification" in res.output


def test_report_and_reverify_round_trip(runner, tmp_path):
    rpt = tmp_path / "squit.json"
    res = invoke(runner, "report", "squit", "--out", str(rpt))
    assert res.exit_code == 0
    res = invoke(runner, "reverify", str(rpt))
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["agrees"] is True
    assert blob["stages_recomputed"] == 13


def test_reverify_catches_tampering(runner, tmp_path):
    rpt = tmp_path / "squit.json"
    invoke(runner, "report", "squit", "--out", str(rpt))
    data = json.loads(rpt.read_text())
    data["stages"][2]["status"] = "pass"      # doctor the sharpness verdict
    rpt.write_text(dumps_canonical(data))
    res = invoke(runner, "reverify", str(rpt))
    assert res.exit_code == 1


def test_validate_and_bisym(runner):
    assert invoke(runner, "validate", "classical:3").exit_code == 0
    res = invoke(runner, "bisym", "squit:klein")
    # the Klein subgroup still acts transitively on tests and pairs,
    # it only loses transitivity on the pure states
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["fully_bisymmetric"] is True
    assert blob["pure_state_transitive"] is False


def test_bisym_decides_past_a_million_ordered_tests(runner):
    res = invoke(runner, "bisym", "classical:12")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["fully_bisymmetric"] is True
    assert blob["notes"] == []


def test_spin_outputs_the_form(runner):
    res = invoke(runner, "spin", "classical:2")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["form"]["matrix"] == [["1/2", "0"], ["0", "1/2"]]


def test_conjugate_command(runner):
    res = invoke(runner, "conjugate", "squit")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["found"] is True
    assert blob["state"]["table"]["x0"]["x0"] == "1/2"
    assert blob["isomorphism_state"]["is_iso"] is False


def test_conjugate_no_invariance_derives_from_the_printed_state(runner):
    # without the invariance rows the LP finds a different, singular table
    # on squit; the derived form must be the one that table induces
    res = invoke(runner, "conjugate", "squit", "--no-invariance")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    m = get_builtin("squit")
    eta = bipartite_from_json(blob["state"], m, m)
    derived = spin_form_from_conjugate(Conjugate(m, blob["gamma"], eta))
    assert blob["derived_form"] == form_to_json(derived)
    assert blob["derived_form"]["flags"]["positive_definite"] is False
    assert blob["derived_form"]["flags"]["invariant"] is None


def test_image_lists_candidates(runner):
    res = invoke(runner, "image", "squit:klein")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    kinds = {c["verdict"] for c in blob["candidates"]}
    assert "image" in kinds


@pytest.mark.parametrize("args, message", [
    (["qutrit:complex"], "image search capped at 8 outcomes"),
    (["squit", "--max-outcomes", "3"], "image search capped at 3 outcomes"),
    ([None], "image search needs a finite outcome symmetry group"),
])
def test_image_outside_its_scope_exits_2(runner, tmp_path, args, message):
    if args == [None]:                     # qubit:real without sample group
        m = get_builtin("qubit:real")
        path = tmp_path / "no-group.json"
        path.write_text(dumps_canonical(model_to_json(
            Model(m.name, m.testspace, m.states, m.group))))
        args = [str(path)]
    res = runner.invoke(main, ["image", *args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert message in res.stderr and "search not run" in res.stderr


def test_cone_subcommands(runner, tmp_path):
    kfile = tmp_path / "orthant.json"
    kfile.write_text(json.dumps({
        "generators": [["1", "0"], ["0", "1"]], "lineality": []}))
    res = invoke(runner, "cone", "dual", str(kfile))
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert sorted(blob["dual"]["generators"]) == [["0", "1"], ["1", "0"]]

    res = invoke(runner, "cone", "selfdual", str(kfile))
    assert res.exit_code == 0
    assert json.loads(res.output)["self_dual"] is True

    res = invoke(runner, "cone", "selfdual", "squit")
    assert res.exit_code == 1
    assert json.loads(res.output)["self_dual"] is False

    res = invoke(runner, "cone", "weak", "squit")
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "yes"


def test_a_cone_file_lineality_is_made_primitive(runner):
    """A lineality given at a scale, with a zero row, is the cone that its
    generators written out give: the same bytes from every cone command."""
    files = [{"generators": [["2", "0", "0"]],
              "lineality": [["0", "1/2", "0"], ["0", "0", "0"]]},
             {"generators": [["2", "0", "0"], ["0", "1/2", "0"],
                             ["0", "-1/2", "0"]]}]
    for cmd in ("dual", "selfdual", "weak"):
        outs = []
        with runner.isolated_filesystem():
            for data in files:
                with open("cone.json", "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                res = invoke(runner, "cone", cmd, "cone.json")
                outs.append((res.exit_code, res.stdout_bytes))
        assert outs[0] == outs[1], cmd
        if cmd == "selfdual":
            assert json.loads(outs[0][1])["pairwise_min"] == "-1"


def test_cone_selfdual_on_the_zero_cone(runner, tmp_path):
    kfile = tmp_path / "zero.json"
    kfile.write_text(json.dumps({"generators": []}))
    res = invoke(runner, "cone", "selfdual", str(kfile))
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["self_dual"] is True and blob["failures"] == []
    assert blob["pairwise_min"] is None


def test_jordan_recover_reports_an_action_off_its_contract(runner,
                                                           monkeypatch):
    """A recovery action that moves the unit is the command's error exit,
    with the recovery's message, not a traceback."""
    from test_pipeline import off_contract
    off_contract(monkeypatch)
    res = invoke(runner, "jordan", "recover", "qubit:complex")
    assert res.exit_code == 1
    assert res.output == "Error: a recovery action moves the unit\n"


def test_jordan_subcommands(runner):
    res = invoke(runner, "jordan", "recover", "classical:2")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["linear_solution_dim"] == 0

    res = invoke(runner, "jordan", "verify", "SpinFactor(4)")
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"] is True

    res = invoke(runner, "jordan", "identify", "qubit:complex")
    assert res.exit_code == 0
    assert "ComplexHerm(2)~SpinFactor(3)" in json.loads(res.output)["candidates"]


@pytest.mark.parametrize("kind", ["RealSym(0)", "ComplexHerm(0)",
                                  "QuatHerm(0)", "RealSym(1)+RealSym(0)",
                                  "Foo(2)"])
def test_jordan_verify_rejects_what_it_cannot_build(runner, kind):
    """An unparseable kind and a matrix family of size 0 both end in a
    one-line error and exit 1, not a traceback."""
    res = runner.invoke(main, ["jordan", "verify", kind])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: cannot ")
    assert len(res.output.splitlines()) == 1


def test_spin_factor_zero_is_the_real_line(runner):
    res = invoke(runner, "jordan", "verify", "SpinFactor(0)")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["dim"] == 1 and blob["ok"] is True


def test_model_file_input(runner, tmp_path):
    res = invoke(runner, "report", "classical:3")
    spec = json.loads(res.output)["model_spec"]
    mfile = tmp_path / "c3.json"
    mfile.write_text(dumps_canonical(spec))
    res2 = invoke(runner, "run", str(mfile))
    assert res2.exit_code == 0


def test_spin_solves_the_form_system_once(runner, monkeypatch):
    calls = []
    search = forms.find_orthogonalizing_spin_form

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return search(*args, **kwargs)

    monkeypatch.setattr(forms, "find_orthogonalizing_spin_form", counted)
    res = invoke(runner, "spin", "classical:3")
    assert res.exit_code == 0
    assert calls == ["classical:3"]


def _model_file(tmp_path, edit, name="qubit:real"):
    spec = json.loads(invoke(CliRunner(), "report", name).output
                      )["model_spec"]
    edit(spec)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _drop_image(spec):
    del spec["sample_symmetries"]["generators"][1]["b1"]


def _bad_label(spec):
    spec["sample_symmetries"]["generators"][0]["a0"] = "zz"


@pytest.mark.parametrize("edit, message", [
    (_drop_image, "sample_symmetries.generators[1]: no image for outcome 'b1'"),
    (_bad_label, "sample_symmetries.generators[0]: image 'zz' of outcome "
                 "'a0' is not an outcome"),
])
def test_malformed_model_file_exits_3(runner, tmp_path, edit, message):
    path = _model_file(tmp_path, edit)
    for cmd in ("run", "bisym", "image"):
        res = runner.invoke(main, [cmd, path])
        assert res.exit_code == 3, cmd
        assert message in res.output


@pytest.mark.parametrize("name, path", [
    ("squit", "outcomes"), ("squit", "tests"), ("squit", "states"),
    ("squit", "states.kind"), ("squit", "states.extreme"),
    ("squit", "group"), ("squit", "group.kind"),
    ("squit", "group.generators"),
    ("qubit:real", "states.outcome_matrices"),
    ("qubit:real", "states.outcome_matrices['a1']"),
    ("qubit:real", "states.dim"), ("qubit:real", "states.field"),
    ("qubit:real", "sample_symmetries.generators"),
    ("qutrit:complex", "group.matrices"),
])
def test_missing_model_field_is_named_by_its_path(runner, tmp_path, name,
                                                  path):
    def drop(spec):
        *parents, key = path.replace("['", ".").replace("']", "").split(".")
        for p in parents:
            spec = spec[p]
        del spec[key]

    res = runner.invoke(main, ["run", _model_file(tmp_path, drop, name)])
    assert res.exit_code == 3
    assert f"cannot load model {tmp_path / 'model.json'}: {path}: missing" \
        in res.output


@pytest.mark.parametrize("name, path, message", [
    ("classical:2", "outcomes", "expected a list"),
    ("classical:2", "tests", "expected a list"),
    ("classical:2", "tests[0]", "expected a list"),
    ("classical:2", "states.extreme", "expected a list"),
    ("classical:2", "states.extreme[0]", "expected an object"),
    ("classical:2", "group.generators", "expected a list"),
    ("qubit:real", "sample_symmetries.generators", "expected a list"),
    ("qutrit:complex", "group.matrices", "expected a list"),
])
def test_mistyped_model_field_is_named_by_its_path(runner, tmp_path, name,
                                                   path, message):
    """A field of the wrong type (here the number 5) exits 3 with its path,
    from a model file and from a saved report alike."""
    report = json.loads(invoke(runner, "report", name).output)
    *parents, key = [int(k) if k.isdigit() else k
                     for k in re.findall(r"[^.\[\]]+", path)]
    spec = report["model_spec"]
    for k in parents:
        spec = spec[k]
    spec[key] = 5
    model, saved = tmp_path / "model.json", tmp_path / "report.json"
    model.write_text(json.dumps(report["model_spec"]))
    saved.write_text(json.dumps(report))
    res = runner.invoke(main, ["run", str(model)])
    assert res.exit_code == 3
    assert f"cannot load model {model}: {path}: {message}" in res.output
    res = runner.invoke(main, ["reverify", str(saved)])
    assert res.exit_code == 3
    assert f"cannot load report {saved}: {path}: {message}" in res.output


def test_missing_model_file_exits_3(runner, tmp_path):
    res = runner.invoke(main, ["run", str(tmp_path / "absent.json")])
    assert res.exit_code == 3
    assert "cannot load model" in res.output


def test_run_accepts_any_classical_size(runner):
    from kvwb.pipeline import run_pipeline
    res = invoke(runner, "run", "classical:6")
    assert res.exit_code == 0
    want = dumps_canonical(run_pipeline(get_builtin("classical:6")).to_json())
    assert res.output == want


@pytest.mark.parametrize("name", ["classical:x", "classical:1", "classical:",
                                  "classical:-4", "gbit:x", "gbit:1"])
def test_malformed_classical_size_exits_3(runner, name):
    res = runner.invoke(main, ["run", name])
    assert res.exit_code == 3
    assert "needs an integer n >= 2" in res.output
    assert "No such file" not in res.output


def test_reverify_of_a_malformed_model_spec_exits_3(runner, tmp_path):
    rpt = tmp_path / "squit.json"
    invoke(runner, "report", "squit", "--out", str(rpt))
    data = json.loads(rpt.read_text())
    data["model_spec"]["group"]["generators"][0] = {"x0": "x1"}
    rpt.write_text(dumps_canonical(data))
    res = runner.invoke(main, ["reverify", str(rpt)])
    assert res.exit_code == 3
    assert "group.generators[0]: no image for outcome 'x1'" in res.output
    rpt.write_text("not json")
    assert runner.invoke(main, ["reverify", str(rpt)]).exit_code == 3


@pytest.mark.parametrize("field, value, message", [
    ("seed", None, "'seed'"),
    ("seed", "7", "seed: expected an integer, got '7'"),
    ("seed", True, "seed: expected an integer, got True"),
    ("tol", "x", "tol: expected a real number, got 'x'"),
    ("tol", False, "tol: expected a real number, got False"),
    ("expected_failures", ["no-such-stage"], "expected_failures: expected a "
     "list of tokens from"),
    ("expected_failures", "sharp", "expected_failures: expected a list"),
], ids=["seed-missing", "seed-str", "seed-bool", "tol-str", "tol-bool",
        "expect-unknown-token", "expect-not-a-list"])
def test_reverify_checks_the_saved_run_settings(runner, tmp_path, field,
                                                value, message):
    """A saved report whose seed, tol or expected failures is missing or
    mistyped exits 3 with "cannot load report", before any stage runs."""
    data = json.loads(invoke(runner, "run", "classical:3").output)
    if value is None:
        del data[field]
    else:
        data[field] = value
    rpt = tmp_path / "report.json"
    rpt.write_text(json.dumps(data))
    res = runner.invoke(main, ["reverify", str(rpt)])
    assert res.exit_code == 3, res.output
    assert f"cannot load report {rpt}: {message}" in res.output


def _commands(group, path=()):
    for name, cmd in group.commands.items():
        if hasattr(cmd, "commands"):
            yield from _commands(cmd, path + (name,))
        else:
            yield path + (name,)


def test_no_command_takes_an_enumeration_cap(runner):
    cmds = list(_commands(main))
    assert len(cmds) == 14
    for cmd in cmds:
        res = invoke(runner, *cmd, "--help")
        assert res.exit_code == 0, cmd
        assert "--cap" not in res.output, cmd


#: Every subcommand that takes a model, with both conjugate variants;
#: `reverify` reads what `report` wrote, and `jordan verify` takes a
#: catalog kind instead of a model.
MODEL_COMMANDS = [("run",), ("run", "--format", "md"), ("report",),
                  ("validate",), ("bisym",), ("spin",), ("conjugate",),
                  ("conjugate", "--no-invariance"), ("image",),
                  ("cone", "dual"), ("cone", "selfdual"), ("cone", "weak"),
                  ("jordan", "recover"), ("jordan", "identify")]


@pytest.mark.parametrize("name", list(builtin_names()))
def test_every_command_ends_in_a_verdict_on_every_builtin(runner, tmp_path,
                                                          name):
    """No subcommand raises on a built-in: each exits 0, 1 (a failed
    check) or 2 (out of scope)."""
    covered = {c[:2] if c[0] in ("cone", "jordan") else c[:1]
               for c in MODEL_COMMANDS}
    assert covered | {("reverify",), ("jordan", "verify")} == \
        set(_commands(main))
    rpt = tmp_path / "report.json"
    runs = [(*cmd, name) for cmd in MODEL_COMMANDS]
    runs += [("report", name, "--out", str(rpt)), ("reverify", str(rpt))]
    for args in runs:
        res = runner.invoke(main, list(args))
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            (args, res.exception)
        assert res.exit_code in (0, 1, 2), (args, res.output)


def test_conjugate_reports_a_table_that_gives_no_form(runner, monkeypatch):
    """A table found without invariance can be asymmetric, so that no form
    extends it: the state is still printed, with a null derived form and
    the reason, and the command exits 0, since a state was found."""
    def asymmetric(*args, **kwargs):
        raise CompositeError("table is asymmetric and does not extend to a "
                             "symmetric form; pair ('x0','x1') fails after "
                             "averaging", witness=("x0", "x1"))

    monkeypatch.setattr(composites, "spin_form_from_conjugate", asymmetric)
    res = invoke(runner, "conjugate", "squit", "--no-invariance")
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["found"] is True and blob["state"]
    assert blob["derived_form"] is None
    assert blob["derived_form_error"].startswith("table is asymmetric")


#: sha256 and exit code of single-stage commands whose code paths share the
#: effect space's actions, dual cone and flag certifier, recorded before they
#: did: the spin search, the conjugate and its derived form, the dual and the
#: (weak) self-duality of the effect cone, and the recovery inputs.  The
#: cone commands on `LINEALITY_CONE` were recorded while cones held their
#: rays as `Fraction`s.
CLI_SHA256 = {
    ("spin", "classical:3"):
        (0, "0ada15f30c1261aa5abdc036d09772e6980b81792c7f728fba07242fd74dad96"),
    ("conjugate", "classical:3"):
        (0, "55cb19b5fbc8e445784be0d19436b3d60afc161ca397aa3e90384d286412fb60"),
    ("conjugate", "classical:3", "--no-invariance"):
        (0, "55cb19b5fbc8e445784be0d19436b3d60afc161ca397aa3e90384d286412fb60"),
    ("spin", "squit"):
        (0, "cdd413a24618cef719db26498be2e05f9c10aa70ab5e8aaa2b3e478dd51705dc"),
    ("conjugate", "squit"):
        (0, "ba2e8b4a39dd9eda343288efacf8325159612f7a9ccbdbae2cc82d2d20d2138d"),
    ("conjugate", "squit", "--no-invariance"):
        (0, "de6183a6a9fa7b5792c1eac751dba6e3eb1cdff9efad599f5c66a110d05573b4"),
    # recorded again when the spin LP merged its equal positivity rows: with
    # a two-dimensional candidate space the merged LP pivots to another
    # vertex of the normalized slice
    ("spin", "squit:klein"):
        (1, "32578114c1ab39c407c7c939ee3b3569479b05a7a31ec75c74cc9900057a0326"),
    # the Klein-invariant table is not unique; this is the one the LP over
    # generator orbits finds, not the one the full LP found
    # (test_conjugate_orbits::test_both_klein_conjugate_tables_are_valid)
    ("conjugate", "squit:klein"):
        (0, "f5922cc166f2e67b1b4d9e009e1975987ed4db9dc26d6d7e6f2f668de7378b1e"),
    ("conjugate", "squit:klein", "--no-invariance"):
        (0, "85a2dfd80bf7ce33385107e0a31271b919388e6af5f3cbd9d4ad7b7a2bd0934f"),
    ("cone", "dual", "classical:3"):
        (0, "e470a7348e538974385a6dde75535611d8bb2782a4b468cd386a2434d0348231"),
    ("cone", "selfdual", "classical:3"):
        (0, "7875ac23dcc63f0bb7feda75500ab894e2f924ffbb4be76792ad3c510998ce93"),
    ("cone", "weak", "classical:3"):
        (0, "ec22b9c120650a36855fc3508453259165ddc9319aedbae9974f07506e0d7a7d"),
    ("cone", "dual", "squit"):
        (0, "9d40a4f547e62f63eb2e1a2b5b817c55474e1ee1d00b8fd9d517ddbafbb3c5e6"),
    ("cone", "selfdual", "squit"):
        (1, "f0b6c3da25f197386f6f3791c8bb4515ff62f8f007d8a632065adf2ff7463101"),
    ("cone", "weak", "squit"):
        (0, "d773c07e751c3c2635ad1b01210a6d41c7210a3d91ec56f36ab68c2535a2f068"),
    # recorded again when the exact recovery proved the Jordan axioms and
    # read the Jordan frame off the extreme rays instead of sampling
    ("jordan", "recover", "classical:3"):
        (0, "42a9392f4a5739bc22279ca02ae2ea375a3616cc284c57ed2a54af77830e6396"),
    ("cone", "dual", "lineality.json"):
        (0, "86492780e2cce660babb0b5818b4aca2977fdd28afc72fb18db10a5752fdc939"),
    ("cone", "selfdual", "lineality.json"):
        (1, "ffcdc55b23cf09dc406c60bfec37a029db845c19e2c7d647b29e5b99259ee184"),
    ("cone", "weak", "lineality.json"):
        (2, "c4dd9cbbe4886e643e7ddcfa3dad55787fe1695234b448c5853a6efb27654a5a"),
}

#: A cone file with a primitive lineality, written as `lineality.json` in
#: the working directory of the commands that read it.
LINEALITY_CONE = {"generators": [["1", "0", "0"]],
                  "lineality": [["0", "1", "0"]]}


@pytest.mark.parametrize("args", list(CLI_SHA256), ids=" ".join)
def test_single_stage_commands_keep_their_bytes(runner, args):
    with runner.isolated_filesystem():
        with open("lineality.json", "w", encoding="utf-8") as fh:
            json.dump(LINEALITY_CONE, fh)
        res = invoke(runner, *args)
    code, digest = CLI_SHA256[args]
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


#: sha256 of single-stage commands on quantum samples with one BLAS thread,
#: recorded before the exact and float code paths shared one body: the
#: derived form of the conjugate, the spin search and the recovered product
#: print float matrices, which must keep every bit.  The recovered product's
#: digest was recorded again when recovery moved to the symmetric cubic
#: form, when the float recovery moved from `lstsq` to a solve on the
#: Gram matrix of its rows, and when it moved to the unit's B-orthogonal
#: complement; each time its tensor entries and residual moved by under
#: 1e-12.
FLOAT_CLI_SHA256 = {
    ("conjugate", "qubit:real"):
        "ce70244a42c230f554adf5f8ffced15f4ce4a81ffb92e6b612c5c41de2212a7c",
    ("conjugate", "qubit:complex"):
        "7ab0f16f347813ddb0fe901ade6ad07be7be6d925b3966de7e0a217be6e542d6",
    ("conjugate", "qutrit:complex"):
        "7f9f1a7934f28c858959490922d6a40085a0a89ecc534b227f6e9e452e3b38c1",
    ("spin", "qutrit:complex"):
        "a72fc062b5727f6cc68a9e1781e3f975193c45a4a9a011986d8413903a6f041e",
    ("jordan", "recover", "qubit:complex"):
        "990509362caa1efc23c8ff338289a12d59a4ff2a974129e102d5eb17a11eb875",
}


def _one_thread_digest(args, code=0):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "kvwb.cli", *args],
                          capture_output=True, check=False, env=env)
    assert proc.returncode == code, proc.stderr
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("args", list(FLOAT_CLI_SHA256), ids=" ".join)
def test_float_single_stage_commands_keep_their_bytes(args):
    assert _one_thread_digest(args) == FLOAT_CLI_SHA256[args]


#: sha256 of the catalog commands with one BLAS thread, recorded while the
#: catalog algebras were still built by loops over `Fraction` pairs: the
#: symmetric-cone report of catalog algebras and a direct sum, and the
#: identification of a recovered product, exact and float.  The `verify`
#: digests were recorded again when the check of an exact algebra became a
#: proof: no sampled minima, and the Koecher-Vinberg note.
CATALOG_CLI_SHA256 = {
    ("jordan", "verify", "RealSym(3)"):
        "b0d886f547f38d92a03b85a82f11832d6f62ed502ea80f1c12d6bd408d4a39fc",
    ("jordan", "verify", "ComplexHerm(2)"):
        "8894656425ae1cbdb1510efc50957b86e003fec3441aa567de19213adb236936",
    ("jordan", "verify", "QuatHerm(2)"):
        "ce38a9e71440206efdb5a9d8e491e0d48d8cba5ddb4df419b7541025cdb3eafa",
    ("jordan", "verify", "SpinFactor(4)"):
        "f3a65050fa4e55669523bb0509e5cbd64afc9c4ef42252ff463f87a2bb9f8eb7",
    ("jordan", "verify", "RealSym(1)+SpinFactor(3)"):
        "90b58a97de1309be3482dc6452fe3c432798d77cb20a6a000ef5800cfe975267",
    ("jordan", "identify", "classical:3"):
        "ed64e9d611beef67c05b4546130d646d9b88f3f4dcb65d31a6cb839f9b05aa63",
    ("jordan", "identify", "qubit:complex"):
        "31f0a0cfd6881578dc062446b5f4797e33cb0cdcabd41864a29fe936511004d6",
}


@pytest.mark.parametrize("args", list(CATALOG_CLI_SHA256), ids=" ".join)
def test_catalog_commands_keep_their_bytes(args):
    assert _one_thread_digest(args) == CATALOG_CLI_SHA256[args]


#: sha256 and exit code of commands on exact models with one BLAS thread,
#: recorded while the invariant-form checks still multiplied `Fraction`s:
#: the flags of spin and derived forms (an indefinite, non-invariant one
#: without the invariance constraints), pairwise minima and the dual rays
#: outside the cone all print here.  `run classical:6` was recorded again
#: when its recovery and symmetric-cone check became proofs.  The three `run`
#: digests were recorded again when the homogeneity stage was read off the
#: recovered product, which changed only that stage's data and notes.  The
#: four `gbit:3` and `gbit:4` digests of `run` and `conjugate` were recorded
#: again when each separator became the first generator of the dual effect
#: cone negative on the vector (it was the membership LP's Farkas vector),
#: which changed only the `separating` and `separator` fields.
FORM_CLI_SHA256 = {
    ("run", "classical:6"):
        (0, "ad475d1672fb7c23bcc0bc3b1565047dfa4ade72bf77997c5f439a25caf4f2d3"),
    ("run", "gbit:3"):
        (1, "ac8134980b8493578a7b9adfb798db73b20ef76eb63aa0aae9a9dc96053d220c"),
    ("run", "gbit:4"):
        (1, "601818dce10f1f997c48ac158193322c6aff6ed740344e9e4e61f04a2b79d221"),
    ("spin", "gbit:3"):
        (0, "664fce34139ef435a92f3f1b19ad07168cbd685806f15625c286179565ca0aae"),
    ("conjugate", "gbit:3"):
        (0, "878fc8d12db4ef154d6d0fa098a35f1b3ca35c865d00fdbd40f4021cff7319e5"),
    ("conjugate", "gbit:3", "--no-invariance"):
        (0, "7e1b7e0c271ed5836a1baa04238b4a8edd5ec1822ebdc2a2ebe4dea04d5f0dc5"),
}


@pytest.mark.parametrize("args", list(FORM_CLI_SHA256), ids=" ".join)
def test_form_check_commands_keep_their_bytes(args):
    code, digest = FORM_CLI_SHA256[args]
    assert _one_thread_digest(args, code) == digest
