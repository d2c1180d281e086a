"""Checks on the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kvwb"


def assert_statements(directory: Path) -> list:
    """`file:line` of every `assert` statement in the modules of a
    directory."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(directory.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)]


def denominator_reads(directory: Path) -> list:
    """`file:line` of every read of a `.denominator` attribute in the
    modules of a directory."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(directory.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "denominator"]


def calls_in(path: Path, function: str) -> set:
    """The names that the body of a module-level function calls, as
    `name(...)` or `obj.name(...)`, or hands on to a call as an argument
    (as `map(K.scaled, actions)` does)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    body = next(f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == function)
    calls = [n for n in ast.walk(body) if isinstance(n, ast.Call)]
    return {f.id if isinstance(f, ast.Name) else f.attr
            for f in (x for n in calls for x in [n.func, *n.args])
            if isinstance(f, (ast.Name, ast.Attribute))}


def test_package_has_no_assert_statement():
    """Checks are real raises, so they still run under `python -O`."""
    assert list(SRC.glob("*.py"))
    assert assert_statements(SRC) == []


def test_only_linalg_scales_rationals_to_integers():
    """`linalg.integer_row` is the one scaling of rationals to integers;
    besides it only `serialize` reads a denominator, to print a rational."""
    files = {r.split(":")[0] for r in denominator_reads(SRC)}
    assert files <= {"linalg.py", "serialize.py"}, sorted(files)


def test_every_exported_name_resolves():
    """Each name in `kvwb.__all__` is an attribute of the package."""
    import kvwb
    assert [n for n in kvwb.__all__ if not hasattr(kvwb, n)] == []


def test_cone_kernels_make_no_fraction_arithmetic():
    """The double description and the ray bijection search run on Python
    integers: no `Fraction` dot product, coercion, ray scaling or `Fraction`
    nullspace in their bodies.  The kernels that read a cone's integer rows
    neither coerce them to `Fraction`s nor scale them to integers again."""
    for function in ("halfspace_cone_rays", "_try_bijection"):
        called = calls_in(SRC / "cones.py", function)
        assert not called & {"dot", "frac", "ray_primitive", "nullspace"}, \
            (function, sorted(called))
    for function in ("separators", "mapped_dual", "pairwise_form_positivity",
                     "is_self_dual"):
        called = calls_in(SRC / "cones.py", function)
        assert not called & {"frac", "ray_primitive", "integer_row",
                             "_primitive_row"}, (function, sorted(called))


def test_exact_stages_read_integer_pairs():
    """The form checks and the recovery's rows and lift read the pairs
    (s, s·M) that the effect space, the form and the recovery problem hold
    from where each matrix is made: none scales a rational matrix to
    integers again, or coerces to `Fraction`."""
    for module, function in (("forms.py", "invariance_rows"),
                             ("forms.py", "_fixed_covector_dim"),
                             ("forms.py", "check_unitarity"),
                             ("forms.py", "certify_flags"),
                             ("jordan.py", "_complement_stage"),
                             ("jordan.py", "_orbit_rows"),
                             ("jordan.py", "_orbit_stage"),
                             ("jordan.py", "_linear_stage")):
        used = calls_in(SRC / module, function)
        assert not used & {"scaled", "_integer_block", "integer_row",
                           "frac"}, (function, sorted(used))


def test_float_recovery_makes_no_lstsq():
    """The float recovery solves on the Gram matrix of its rows, with an
    SVD only when the rank is not certified: `jordan.py` names no
    `np.linalg.lstsq`."""
    tree = ast.parse((SRC / "jordan.py").read_text(encoding="utf-8"))
    names = {n.attr if isinstance(n, ast.Attribute) else n.id
             for n in ast.walk(tree)
             if isinstance(n, (ast.Attribute, ast.Name))}
    assert not {n for n in names if n.endswith("lstsq")}


def test_spectral_kernels_build_no_minimal_polynomials():
    """`kvwb.spectral` reads eigenvalues and frames off symmetric
    eigensolves of L_w: it defines none of the minimal-polynomial kernels,
    now oracles in `reference_kernels`, and calls no `matrix_rank`, no
    non-Hermitian `eigvals` and no least-squares solve."""
    tree = ast.parse((SRC / "spectral.py").read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"_degrees_and_powers", "_minimal_polynomials",
                          "_roots_many", "_merged", "_eigenvalues_many",
                          "_idempotents"}
    names = {n.attr if isinstance(n, ast.Attribute) else n.id
             for n in ast.walk(tree)
             if isinstance(n, (ast.Attribute, ast.Name))}
    assert not names & {"matrix_rank", "eigvals", "roots", "_umath_linalg"}
    assert not {n for n in names if n.endswith("lstsq")}


def test_readme_stage_table_matches_the_pipeline():
    """The README's "Stages" table lists `pipeline._STAGES` in run order:
    each stage's name, prerequisites and not-applicable note."""
    from kvwb.pipeline import _STAGES
    text = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Stages\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["stage", "prerequisites", "not-applicable note"]
    assert rows[2:] == [[name, ", ".join(needs) or "—", note or "—"]
                        for name, needs, note, _ in _STAGES]



def test_report_bytes_have_one_writer():
    """No module calls `json.dumps` (or a bare `dumps`) or defines
    `jsonable`: every document is written by `serialize.dumps_canonical`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Name) and f.id == "dumps"
                    or isinstance(f, ast.Attribute) and f.attr == "dumps"
                    and isinstance(f.value, ast.Name) and f.value.id == "json"
                    or isinstance(node, ast.FunctionDef)
                    and node.name == "jsonable"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def names_in(path: Path) -> set:
    """Every name a module defines, reads, binds or takes as a parameter or
    keyword."""
    out = set()
    for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, (ast.arg, ast.keyword)) and n.arg:
            out.add(n.arg)
    return out


def test_conjugates_are_searched_on_one_path():
    """The conjugate search has no invariance option and no pass-through
    class, and the quantum image search fits no pullback: neither module
    names `require_invariance` or `Conjugate`, and `models.py` no least
    squares.  (`composites._lstsq` fits the conditionals of a quantum
    table, which `validate_bipartite` needs.)"""
    for module in ("composites.py", "models.py"):
        names = names_in(SRC / module)
        assert not names & {"require_invariance", "Conjugate",
                            "make_conjugate", "conjugate_from_state"}, module
    names = names_in(SRC / "models.py")
    assert not {n for n in names if n.endswith("lstsq")}
    assert not names & {"_quantum_pullback_feasible", "_min_trace_distance_psd"}
    assert "--no-invariance" not in (SRC / "cli.py").read_text(encoding="utf-8")
