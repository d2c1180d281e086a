import json

import pytest
from click.testing import CliRunner

from kvwb.builtins import get_builtin
from kvwb.cli import main
from kvwb.composites import Conjugate, spin_form_from_conjugate
from kvwb.serialize import bipartite_from_json, dumps_canonical, form_to_json


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


def test_cap_env_is_honoured(runner):
    res = invoke(runner, "bisym", "classical:4", env={"KVWB_CAP": "5"})
    blob = json.loads(res.output)
    assert blob["fully_bisymmetric"] is None
    assert res.exit_code == 2


def test_model_file_input(runner, tmp_path):
    res = invoke(runner, "report", "classical:3")
    spec = json.loads(res.output)["model_spec"]
    mfile = tmp_path / "c3.json"
    mfile.write_text(dumps_canonical(spec))
    res2 = invoke(runner, "run", str(mfile))
    assert res2.exit_code == 0
