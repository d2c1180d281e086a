import enum
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference_kernels as oracle
from kvwb.builtins import builtin_names, classical, get_builtin
from kvwb.composites import find_conjugate_state
from kvwb.cones import cone
from kvwb.effectspace import build_effect_space
from kvwb.forms import find_orthogonalizing_spin_form
from kvwb.models import ModelError, validate_model
from kvwb.pipeline import run_pipeline
from kvwb.serialize import (bipartite_from_json, bipartite_to_json,
                            cone_from_json, cone_to_json, dumps_canonical,
                            form_from_json, form_to_json, frac_str,
                            model_from_json, model_to_json, parse_frac)


def test_frac_str_round_trip():
    for v in (F(0), F(1), F(-3, 7), F(22, 6)):
        assert parse_frac(frac_str(v)) == v
    assert frac_str(F(1, 2)) == "1/2"
    assert frac_str(F(3)) == "3"
    assert parse_frac("-5") == F(-5)


def test_parse_frac_refuses_binary_floats():
    with pytest.raises((ValueError, TypeError)):
        parse_frac(0.1)


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": [F(1, 3)], "a": 2})
    b = dumps_canonical({"a": 2, "b": [F(1, 3)]})
    assert a == b
    assert a.endswith("\n")


class Level(enum.IntEnum):
    HIGH = 7


class Tag(str):
    pass


@dataclass
class Record:
    a: object
    b: object
    _private: object


_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]))
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f", "é", "\u2028", "😀", "\ud800"]))
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)
_LEAVES = st.one_of(
    _TEXT, st.integers(), st.integers(-2 ** 200, 2 ** 200), st.booleans(),
    st.none(), _FLOATS, st.fractions(), st.complex_numbers(),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(np.float64, _SHAPES), hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.complex128, _SHAPES),
    st.lists(st.fractions(), min_size=1, max_size=4).map(
        lambda v: np.array(v, dtype=object)),
    st.frozensets(st.integers(0, 9), max_size=3).map(set),
    st.just(Level.HIGH), _TEXT.map(Tag), st.sampled_from([{}, [], ()]))
#: Keys that collide after str(): 1 and "1", True and "True", None and "None".
_KEYS = st.one_of(_TEXT, st.sampled_from(
    [1, "1", True, "True", None, "None", 1.5, "1.5", F(1, 2), "1/2"]))


def _tree(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.builds(Record, children, children, children))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _tree, max_leaves=20))
def test_writer_matches_the_two_pass_oracle(obj):
    """The one-pass writer gives the bytes of `jsonable` + `json.dumps`."""
    assert dumps_canonical(obj) == oracle.dumps_canonical(obj)


def test_writer_matches_the_oracle_on_every_builtin_report():
    for name in builtin_names():
        doc = run_pipeline(get_builtin(name)).to_json()
        assert dumps_canonical(doc) == oracle.dumps_canonical(doc), name


@pytest.mark.parametrize("name", list(builtin_names()))
def test_model_round_trip_is_byte_identical(name):
    m = get_builtin(name)
    blob = dumps_canonical(model_to_json(m))
    m2 = model_from_json(model_to_json(m))
    assert validate_model(m2).ok
    assert dumps_canonical(model_to_json(m2)) == blob
    if name.startswith(("classical", "squit")):
        assert oracle.models_isomorphic(m, m2) is not None


def test_round_trip_preserves_exact_vertices():
    m = classical(3)
    m2 = model_from_json(model_to_json(m))
    assert m2.states.vertices == m.states.vertices
    assert all(isinstance(v, F) for vert in m2.states.vertices for v in vert)


def test_bipartite_round_trip():
    m = classical(3)
    w = find_conjugate_state(m)
    data = bipartite_to_json(w)
    w2 = bipartite_from_json(data, m, m)
    assert w2.table == w.table
    assert dumps_canonical(bipartite_to_json(w2)) == dumps_canonical(data)


def test_form_round_trip_exact_and_float():
    m = classical(3)
    E = build_effect_space(m)
    B = find_orthogonalizing_spin_form(m, E).form
    B2 = form_from_json(form_to_json(B))
    assert B2.matrix == B.matrix
    q = get_builtin("qubit:complex")
    Eq = build_effect_space(q)
    Bq = find_orthogonalizing_spin_form(q, Eq).form
    Bq2 = form_from_json(form_to_json(Bq))
    assert dumps_canonical(form_to_json(Bq2)) == dumps_canonical(form_to_json(Bq))


def test_cone_round_trip():
    K = cone([[F(1), F(0)], [F(1), F(1)]])
    K2 = cone_from_json(cone_to_json(K))
    assert K2.generators == K.generators
    assert dumps_canonical(cone_to_json(K2)) == dumps_canonical(cone_to_json(K))


def test_old_model_files_with_a_cap_key_still_load():
    for name in ("squit", "qubit:complex"):
        m = get_builtin(name)
        data = model_to_json(m)
        assert "cap" not in data["group"]
        assert "cap" not in data.get("sample_symmetries", {})
        old = model_to_json(m)
        old["group"]["cap"] = 5
        if "sample_symmetries" in old:
            old["sample_symmetries"]["cap"] = 5
        assert model_to_json(model_from_json(old)) == data


@pytest.mark.parametrize("block, generator, message", [
    ("group", {"x0": "x1"}, "group.generators[0]: no image for outcome 'x1'"),
    ("group", {"x0": "x1", "x1": "x0", "y0": "y1", "y1": "q"},
     "group.generators[0]: image 'q' of outcome 'y1' is not an outcome"),
    ("group", ["x1", "x0", "y0", "y1"],
     "group.generators[0]: expected an object mapping outcomes to outcomes"),
    ("sample_symmetries", {"x0": "x0"},
     "sample_symmetries.generators[0]: no image for outcome 'x1'"),
    ("sample_symmetries", {"x0": "x0", "x1": "x1", "y0": "y0", "y1": "z"},
     "sample_symmetries.generators[0]: image 'z' of outcome 'y1' is not "
     "an outcome"),
])
def test_malformed_generator_names_its_field(block, generator, message):
    data = model_to_json(get_builtin("squit"))
    data.setdefault(block, {"generators": []})["generators"].insert(0, generator)
    with pytest.raises(ModelError) as err:
        model_from_json(data)
    assert str(err.value) == message
