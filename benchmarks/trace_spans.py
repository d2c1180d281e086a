"""Spans around kvwb's public functions, recorded from outside the package.

`Tracer.install()` replaces each function in `TRACED` with a wrapper in every
`kvwb.*` namespace that bound the same object, so calls made through
`from .linalg import rref` are recorded too.  Methods are replaced on their
class.  Nothing under `src/` changes.

A span is `[name, start, end, parent, counts]`: `parent` is the index of the
innermost enclosing traced span (-1 at top level) and `counts` the work
counts read from the call's arguments and result, or null.  Spans stay in
memory; the worker hands them to the harness when its pass ends.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter


def _rows_x_cols(A) -> int:
    return len(A) * len(A[0]) if len(A) else 0


#: name -> (count names, how to read them from (args, result)).
#: `model` labels a run_pipeline span with the model it analysed.
COUNTS = {
    "pipeline.run_pipeline":
        (("model",), lambda a, r: (a[0].name,)),
    "lp.solve_feasibility":
        (("cells", "infeasible"),
         lambda a, r: (_rows_x_cols(a[0]), int(not r.feasible))),
    "linalg.rref":
        (("cells",), lambda a, r: (_rows_x_cols(a[0]),)),
    "cones.halfspace_cone_rays":
        (("rays",), lambda a, r: (len(r[1]),)),
    "models.mulclose":
        (("elements",), lambda a, r: (len(r),)),
    "composites.find_conjugate_state":
        (("found",), lambda a, r: (int(r is not None),)),
}

#: Every traced function, as `<module>.<function>` or `<module>.<Class>.<method>`.
TRACED = (
    "pipeline.run_pipeline",
    "models.validate_model", "models.check_bisymmetry", "models.is_sharp",
    "models.mulclose",
    "effectspace.build_effect_space",
    "effectspace.OrderUnitSpace.all_effect_actions",
    "forms.is_irreducible", "forms.find_orthogonalizing_spin_form",
    "forms.check_unitarity", "forms.average_form",
    "composites.find_conjugate_state", "composites.make_conjugate",
    "composites.spin_form_from_conjugate", "composites.is_isomorphism_state",
    "composites.homogeneity_report",
    "cones.is_self_dual", "cones.is_weakly_self_dual", "cones.dual_cone",
    "cones.halfspace_cone_rays",
    "lp.solve_feasibility",
    "linalg.rref", "linalg.nullspace", "linalg.solve",
    "jordan.recover_jordan_product", "jordan.verify_symmetric_cone",
    "jordan.identify_algebra",
    "serialize.dumps_canonical",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keys, count = COUNTS.get(name, ((), None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = dict(zip(keys, count(args, result)))
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every function in `TRACED`; return the names not found.

        A name that a later version of kvwb removed is skipped, and its
        metrics read zero calls.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "kvwb" or n.startswith("kvwb.")]
        missing = []
        for name in TRACED:
            modname, *path, leaf = name.split(".")
            owner = sys.modules.get("kvwb." + modname)
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapped)
        return missing
