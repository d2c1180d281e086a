"""Symmetry, self-duality, and product recovery for probabilistic models.

The package walks finite operational models (test spaces with polytopic or
sampled quantum state spaces) through a pipeline: validation, symmetry
transitivity, the orthogonalizing invariant bilinear form, conjugate
bipartite states, cone self-duality, and recovery of the commutative product
that turns the effect space into a formally real algebra whose cone of
squares matches the effect cone.  Exact rational certificates whenever the
inputs are rational; seeded, reproducible numerics otherwise.
"""

from .builtins import builtin_names, conjugation_bijection, get_builtin
from .composites import (BipartiteState, CompositeError, conditional,
                         find_conjugate_state, is_isomorphism_state, marginal,
                         omega_hat, product_state, spin_form_from_conjugate,
                         validate_bipartite)
from .cones import (PolyhedralCone, cone, dual_cone, is_self_dual,
                    is_weakly_self_dual)
from .effectspace import OrderUnitSpace, build_effect_space
from .forms import (BilinearForm, check_spin_uniqueness, check_unitarity,
                    find_orthogonalizing_spin_form, is_irreducible)
from .jordan import (CATALOG, JordanAlgebra, RecoveryProblem, RecoveryResult,
                     classical_algebra, complex_hermitian,
                     cone_of_squares_membership, direct_sum, identify_algebra,
                     jordan_product, quaternionic_hermitian, real_symmetric,
                     recover_jordan_product, spin_factor, verify_symmetric_cone)
from .models import (Model, ModelError, PermutationGroup, TestSpace,
                     check_bisymmetry, find_nontrivial_images, is_sharp,
                     validate_model)
from .pipeline import PipelineReport, run_pipeline
from .serialize import (dumps_canonical, load_model, model_from_json,
                        model_to_json, parse_frac)
from .spectral import jordan_sqrt

__version__ = "0.1.0"

__all__ = [
    "BilinearForm", "BipartiteState", "CATALOG", "CompositeError",
    "JordanAlgebra", "Model", "ModelError", "OrderUnitSpace",
    "PermutationGroup", "PipelineReport", "PolyhedralCone", "RecoveryProblem",
    "RecoveryResult", "TestSpace", "build_effect_space", "builtin_names",
    "check_bisymmetry", "check_spin_uniqueness", "check_unitarity",
    "classical_algebra", "complex_hermitian", "conditional", "cone",
    "cone_of_squares_membership", "conjugation_bijection", "direct_sum",
    "dual_cone", "dumps_canonical", "find_conjugate_state",
    "find_nontrivial_images", "find_orthogonalizing_spin_form",
    "get_builtin", "identify_algebra",
    "is_irreducible", "is_isomorphism_state", "is_self_dual", "is_sharp",
    "is_weakly_self_dual", "jordan_product", "jordan_sqrt",
    "load_model", "marginal",
    "model_from_json", "model_to_json", "omega_hat", "parse_frac",
    "product_state", "quaternionic_hermitian",
    "real_symmetric", "recover_jordan_product", "run_pipeline",
    "spin_factor", "spin_form_from_conjugate",
    "validate_bipartite", "validate_model", "verify_symmetric_cone",
]
