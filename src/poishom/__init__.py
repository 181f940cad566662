"""Exact homology and cohomology of graded polynomial Poisson algebras.

The package computes, over the rationals and without floating point:

  * Poisson brackets on polynomial rings with weighted generators,
    including the Jacobi check and the modular (trace) data;
  * the chain and cochain complexes attached to such a bracket, their
    boundary maps, and exact homology dimensions per graded weight,
    with canonical or trace-twisted coefficients;
  * the duality comparison between twisted homology and cohomology;
  * a rewriting model of the enveloping algebra, with confluence,
    graded-dimension, quotient-module, and twist-automorphism checks.
"""

from .catalog import CATALOG, CatalogEntry, catalog_ids, get_entry
from .complexes import (
    ChainBasis,
    DualityReport,
    ShiftNotFound,
    boundary_matrix,
    chain_basis,
    coboundary_matrix,
    cochain_basis,
    cohomology_dims,
    dim_table_tsv,
    duality_report,
    homology_dims,
)
from .envelope import (
    ConfluenceFailure,
    EnvelopeElement,
    GrMismatch,
    ModuleMismatch,
    NuReport,
    RelationViolation,
    confluence_check,
    gr_dimension_check,
    j_quotient_action,
    nu_check,
    reduce_combination,
    reduce_word,
    right_module_residue,
)
from .linalg import SparseMatrix
from .polycore import (
    PolyParseError,
    Polynomial,
    VarTable,
    VarTableMismatch,
    format_poly,
    homogeneous_weight,
    monomials_of_weight,
    parse_poly,
    partial_derivative,
)
from .specfile import SpecDocument, SpecFileError
from .structure import (
    JacobiViolation,
    ModularData,
    NonHomogeneousError,
    OneForm,
    PoissonStructure,
    basis_form,
    differential,
    log_canonical_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CatalogEntry",
    "ChainBasis",
    "ConfluenceFailure",
    "DualityReport",
    "EnvelopeElement",
    "GrMismatch",
    "JacobiViolation",
    "ModularData",
    "ModuleMismatch",
    "NonHomogeneousError",
    "NuReport",
    "OneForm",
    "PoissonStructure",
    "PolyParseError",
    "Polynomial",
    "RelationViolation",
    "ShiftNotFound",
    "SparseMatrix",
    "SpecDocument",
    "SpecFileError",
    "VarTable",
    "VarTableMismatch",
    "basis_form",
    "boundary_matrix",
    "catalog_ids",
    "chain_basis",
    "coboundary_matrix",
    "cochain_basis",
    "cohomology_dims",
    "confluence_check",
    "differential",
    "dim_table_tsv",
    "duality_report",
    "format_poly",
    "get_entry",
    "gr_dimension_check",
    "homogeneous_weight",
    "homology_dims",
    "j_quotient_action",
    "log_canonical_matrix",
    "monomials_of_weight",
    "nu_check",
    "parse_poly",
    "partial_derivative",
    "reduce_combination",
    "reduce_word",
    "right_module_residue",
]
