"""JSON (de)serialization for models, bipartite tables, forms, and reports.

Rationals travel as exact "p/q" strings (decimal strings are converted
exactly); floats rely on repr round-tripping.  `dumps_canonical` is the one
place report bytes are produced, in one pass that coerces each value as it
writes it: sorted keys, fixed separators, no timestamps, so identical inputs
give identical bytes.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np

from .models import (Model, ModelError, PermutationGroup, PolytopeBackend,
                     QuantumBackend, TestSpace, UnitaryGenerators)
from . import quantum


def frac_str(v: Fraction) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def parse_frac(s) -> Fraction:
    """Exact rational from "p/q", integer, or decimal string."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        raise ValueError(f"refusing binary float {s!r}; send a string")
    return Fraction(str(s).strip())


_quote = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_RULES = ((Fraction, frac_str), (np.floating, float), (np.integer, int),
          (np.ndarray, lambda o: list(o.tolist())),
          (complex, lambda o: [o.real, o.imag]),
          (dict, lambda o: dict(o.items())), ((list, tuple), list),
          (str, str.__str__), (int, int.__int__), (float, float.__float__),
          (object, lambda o: {k: v for k, v in vars(o).items()
                              if not k.startswith("_")}
           if hasattr(o, "__dict__") else str(o)))


def _write(o, out: list, nl: str) -> None:
    """Append the text of o to out; nl is a newline and the indent of o's
    line.  A value of any other type is written as the value that the
    first rule of `_RULES` matching its type gives."""
    t = type(o)
    if t is str:
        out.append(_quote(o))
    elif t is float:
        r = float.__repr__(o)
        out.append(_NONFINITE.get(r, r))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is bool or o is None:
        out.append("null" if o is None else "true" if o else "false")
    elif t is Fraction:
        out.append(_quote(frac_str(o)))
    elif t is np.ndarray:
        _write(list(o.tolist()), out, nl)
    elif t is not dict and t is not list and t is not tuple:
        _write(next(f(o) for c, f in _RULES if isinstance(o, c)), out, nl)
    elif not o:
        out.append("{}" if t is dict else "[]")
    else:
        inner = nl + "  "
        if t is dict:      # keys as strings, the later of two equal ones kept
            o = {str(k): v for k, v in o.items()}
            items = [(_quote(k) + ": ", o[k]) for k in sorted(o)]
        else:
            items = zip(itertools.repeat(""), o)
        sep = ("{" if t is dict else "[") + inner
        for key, v in items:
            out.append(sep + key)
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + ("}" if t is dict else "]"))


def dumps_canonical(obj) -> str:
    out: list = []
    _write(obj, out, "\n")
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# models

def _complex_mat_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _complex_mat_load(rows) -> np.ndarray:
    return np.array([[complex(a, b) for a, b in row] for row in rows])


def model_to_json(m: Model) -> dict:
    out: dict = {"name": m.name,
                 "outcomes": list(m.outcomes),
                 "tests": [list(t) for t in m.tests]}
    if isinstance(m.states, PolytopeBackend):
        out["states"] = {"kind": "polytope",
                         "extreme": [{x: frac_str(v[i])
                                      for i, x in enumerate(m.outcomes)}
                                     for v in m.states.vertices]}
    else:
        qb: QuantumBackend = m.states
        out["states"] = {"kind": "quantum", "field": qb.field, "dim": qb.dim,
                         "outcome_matrices": {
                             x: _complex_mat_json(np.asarray(qb.outcome_matrices[x],
                                                             dtype=complex))
                             for x in m.outcomes},
                         "builtin": qb.builtin}
    if isinstance(m.group, PermutationGroup):
        out["group"] = {"kind": "permutation",
                        "generators": [{m.outcomes[i]: m.outcomes[g[i]]
                                        for i in range(len(m.outcomes))}
                                       for g in m.group.generators]}
    else:
        ug: UnitaryGenerators = m.group
        out["group"] = {"kind": "unitary", "seed": ug.seed,
                        "matrices": [np.asarray(M, float).tolist()
                                     for M in ug.matrices],
                        "note": ug.note}
    if m.sample_symmetries is not None:
        out["sample_symmetries"] = {
            "generators": [{m.outcomes[i]: m.outcomes[g[i]]
                            for i in range(len(m.outcomes))}
                           for g in m.sample_symmetries.generators]}
    return out


def _required(obj, where: str, key: str | None = None):
    """obj[key] for the required field at JSON path `where` of a model file,
    key defaulting to the last name in it; a missing one raises `ModelError`
    naming the path."""
    key = where.rpartition(".")[2] if key is None else key
    if not isinstance(obj, dict) or key not in obj:
        raise ModelError(f"{where}: missing")
    return obj[key]


def _as_list(value, where: str) -> list:
    """value, which must be a JSON list; anything else raises `ModelError`
    naming its path."""
    if not isinstance(value, list):
        raise ModelError(f"{where}: expected a list")
    return value


def _list(obj, where: str) -> list:
    """The required list-valued field at path `where`."""
    return _as_list(_required(obj, where), where)


def model_from_json(data: dict) -> Model:
    """Build a model from its JSON object.

    A missing required field raises `ModelError` naming its JSON path, e.g.
    `states.extreme: missing`, and so does a list-valued field that is not
    a list, e.g. `tests[1]: expected a list`, or a generator that is not a
    full outcome mapping, e.g. `group.generators[0]: no image for outcome
    'b'`.
    A `"cap"` key, written by older versions, is ignored.
    """
    outcomes = tuple(_list(data, "outcomes"))
    tests = tuple(tuple(_as_list(t, f"tests[{k}]"))
                  for k, t in enumerate(_list(data, "tests")))
    ts = TestSpace(outcomes, tests)
    pos = {x: i for i, x in enumerate(outcomes)}
    st = _required(data, "states")
    kind = _required(st, "states.kind")
    if kind == "polytope":
        extreme = _list(st, "states.extreme")
        for k, v in enumerate(extreme):
            if not isinstance(v, dict):
                raise ModelError(f"states.extreme[{k}]: expected an object "
                                 "mapping outcomes to probabilities")
        verts = tuple(tuple(parse_frac(v.get(x, "0")) for x in outcomes)
                      for v in extreme)
        backend = PolytopeBackend(verts)
    elif kind == "quantum":
        given = _required(st, "states.outcome_matrices")
        mats = {x: _complex_mat_load(_required(
                    given, f"states.outcome_matrices[{x!r}]", x))
                for x in outcomes}
        dim = _required(st, "states.dim")
        field = _required(st, "states.field")
        basis = quantum.hermitian_basis(dim, field)
        backend = QuantumBackend(field, dim, mats, basis,
                                 builtin=bool(st.get("builtin", False)))
    else:
        raise ValueError(f"unknown states kind {kind!r}")

    def perms_of(parent, path: str) -> tuple:
        out = []
        for k, mapping in enumerate(_list(parent, path)):
            where = f"{path}[{k}]"
            if not isinstance(mapping, dict):
                raise ModelError(f"{where}: expected an object mapping "
                                 "outcomes to outcomes")
            images = []
            for x in outcomes:
                if x not in mapping:
                    raise ModelError(f"{where}: no image for outcome {x!r}")
                if mapping[x] not in pos:
                    raise ModelError(f"{where}: image {mapping[x]!r} of "
                                     f"outcome {x!r} is not an outcome")
                images.append(pos[mapping[x]])
            out.append(tuple(images))
        return tuple(out)

    g = _required(data, "group")
    kind = _required(g, "group.kind")
    if kind == "permutation":
        group = PermutationGroup(perms_of(g, "group.generators"))
    elif kind == "unitary":
        group = UnitaryGenerators(
            matrices=tuple(np.array(M, dtype=float) for M in
                           _list(g, "group.matrices")),
            seed=g.get("seed", 0), note=g.get("note", ""))
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    sample = None
    if "sample_symmetries" in data:
        sample = PermutationGroup(perms_of(data["sample_symmetries"],
                                           "sample_symmetries.generators"))
    return Model(data.get("name", "model"), ts, backend, group,
                 sample_symmetries=sample)


def load_model(source: str, seed: int = 42) -> Model:
    """A built-in name, `classical:<n>` or `gbit:<n>` for any integer n >= 2,
    or a path to a model JSON file."""
    from .builtins import builtin_names, get_builtin
    if source in builtin_names():
        return get_builtin(source, seed=seed)
    family, _, n = source.partition(":")
    if family in ("classical", "gbit"):
        if not (n.isascii() and n.isdigit() and int(n) >= 2):
            raise ValueError(f"{family}:<n> needs an integer n >= 2, "
                             f"not {n!r}")
        return get_builtin(source, seed=seed)
    with open(source, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# bipartite tables and forms

def bipartite_to_json(w) -> dict:
    exact = w.kind == "exact"
    table: dict = {}
    for (x, y), v in w.table.items():
        if exact and v == 0:
            continue
        table.setdefault(x, {})[y] = frac_str(v) if exact else float(v)
    return {"A": w.A.name, "B": w.B.name, "kind": w.kind, "table": table}


def bipartite_from_json(data: dict, A: Model, B: Model):
    from .composites import BipartiteState
    exact = data.get("kind", "exact") == "exact"
    table = {}
    for x in A.outcomes:
        row = data["table"].get(x, {})
        for y in B.outcomes:
            v = row.get(y, "0" if exact else 0.0)
            table[(x, y)] = parse_frac(v) if exact else float(v)
    return BipartiteState(A, B, table)


def form_to_json(B) -> dict:
    return {"kind": B.kind, "flags": B.flag_summary(),
            "matrix": [[frac_str(v) for v in row] for row in B.matrix]
            if B.kind == "exact" else np.asarray(B.matrix, float).tolist()}


def form_from_json(data: dict):
    from .forms import BilinearForm
    if data["kind"] == "exact":
        M = [[parse_frac(v) for v in row] for row in data["matrix"]]
    else:
        M = np.array(data["matrix"], dtype=float)
    flags = data.get("flags") or {}
    return BilinearForm(M, data["kind"],
                        **{k: flags.get(k) for k in
                           ("positive_on_cone", "invariant", "normalized",
                            "orthogonalizing", "positive_definite")})


def cone_to_json(K) -> dict:
    return {"generators": [[frac_str(v) for v in g] for g in K.generators],
            "lineality": [[frac_str(v) for v in g] for g in K.lineality]}


def cone_from_json(data: dict):
    from .cones import cone
    gens = [[parse_frac(v) for v in g] for g in data["generators"]]
    lin = [[parse_frac(v) for v in g] for g in data.get("lineality", [])]
    return cone(gens, lin)
