"""Exact homology and cohomology of graded polynomial Poisson algebras.

The package computes, over the rationals and without floating point:

  * Poisson brackets on polynomial rings with weighted generators,
    including the Jacobi check and the modular (trace) data;
  * the chain and cochain complexes attached to such a bracket, their
    boundary maps, and exact homology dimensions per graded weight,
    with canonical or trace-twisted coefficients;
  * the duality comparison between twisted homology and cohomology;
  * a rewriting model of the enveloping algebra, with confluence,
    quotient-module and twist-automorphism checks, and the bigraded
    dimensions of its associated graded algebra.

The package root exports four names: the three of the library sketch in
the README, and ``get_entry``.  Everything else is imported from its
module.
"""

from .catalog import get_entry
from .complexes import duality_report, homology_dims
from .specfile import SpecDocument

__all__ = ["SpecDocument", "duality_report", "get_entry", "homology_dims"]
