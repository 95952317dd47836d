"""Exact-arithmetic toolkit for Novikov deformations of commutative
algebras and their classical limits (transposed Poisson algebras).

The layers, bottom to top:

* :mod:`tpalg.scalars` — rationals, Gaussian rationals, parameter
  polynomials and truncated h-power series, all exact.
* :mod:`tpalg.linalg` — exact affine linear solving and truncated
  matrix-series inversion.
* :mod:`tpalg.algebra` — structure-constant algebras, the identity
  catalog (associativity through the degree-5 alternating identity),
  the derivation-product construction.
* :mod:`tpalg.deform` — truncated deformations, classical limits,
  the two standard quantization constructions, the two-parameter
  dim-2 family.
* :mod:`tpalg.equiv` — equivalence witnesses, the order-by-order
  solver, and the closed-form criterion for the dim-2 family.
* :mod:`tpalg.dim2` — the dim-2 catalog, the compatible-product
  solver, basis normalization and canonical forms.
* :mod:`tpalg.fileio` / :mod:`tpalg.cli` — JSON interchange and the
  ``tpalg`` command.

The public names below are loaded on first use: ``import tpalg`` imports
no submodule, and ``tpalg.check_identity`` imports :mod:`tpalg.algebra`
when it is first read, so a process compiles only the layers it uses.
"""

import importlib

# The public names, by the submodule that defines them.
_SUBMODULE_NAMES = {
    "algebra": (
        "AlgebraPresentation",
        "BilinearOp",
        "Counterexample",
        "IdentityReport",
        "LinearMap",
        "SubalgebraResult",
        "bounded_ddt_bracket",
        "check_identity",
        "commutator",
        "default_labels",
        "derivation_bracket",
        "euler_derivation",
        "euler_gelfand",
        "gelfand_construct",
        "identity_names",
        "is_derivation",
        "subalgebra_check",
        "truncated_poly_dot",
    ),
    "deform": (
        "ClassicalLimit",
        "TruncatedDeformation",
        "check_novikov_deformation",
        "classical_limit",
        "commutator_deform",
        "deform_from_np",
        "deformation_from_series",
        "deformed_bracket_series",
        "family2d_construct",
        "family2d_parameters",
        "unital_derivation",
    ),
    "dim2": (
        "CatalogEntry",
        "NormalForm",
        "NormalizedBasis",
        "NovikovCompatibleFamily",
        "catalog",
        "normalize_basis",
        "normalize_family",
        "np_compatibility",
        "operad_dims",
        "solve_novikov_compatible",
    ),
    "equiv": (
        "EquivalenceWitness",
        "EquivVerdict",
        "family2d_equiv",
        "solve_equivalence",
        "verify_witness",
    ),
    "errors": ("TpalgError",),
    "fileio": (
        "parse_algebra_file",
        "parse_deformation_file",
        "serialize_algebra",
        "serialize_deformation",
    ),
    "scalars": (
        "GaussianRational",
        "ParamPoly",
        "PolynomialRing",
        "QI",
        "QQ",
        "SeriesRing",
        "TruncSeries",
        "format_scalar",
        "parse_series",
    ),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    # Not cached in the package namespace, so that a name rebound in its
    # submodule (as perfbench's layer trace does, and undoes) reads the same here.
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
