"""The public names of the package.

Every name a module lists in ``__all__`` must resolve, and the names that
left the public API, with no caller in the package, must stay gone: the
Polynomial-level differentials are test oracles in ``_oracles.py`` now,
the rest had no caller but their own tests, and the second paths beside
the ones that decide (a duality exception beside the report's verdict, a
Polynomial jacobiator beside the int Jacobi check, a rational entry path
beside the int rows) were deleted, and so was the graded-count exception,
which compared two counts of one set and could not be raised.  So were
a public alias with one caller (``require_homogeneous``, now inside
``weight_shift``) and the parts of a cell basis that only tests read (its
degree, weight and position lookup), ``log_canonical_matrix``, whose one
caller was the twist check's log-canonical special case, and the int
product ``times``, a second copy of ``polycore._times``.  Dunder methods
that nothing called are listed where ``hasattr`` can see them gone;
``ChainBasis.__eq__``, ``ChainBasis.__repr__`` and ``OneForm.__str__``
resolve to inherited defaults and are not listed.  The package root re-exports only the names
read from it: those of the README's library sketch, and ``get_entry``;
every other name is imported from its module.
"""

import importlib
import re
from pathlib import Path

import pytest

import poishom

ROOT = Path(__file__).resolve().parent.parent

MODULES = ["catalog", "cli", "complexes", "envelope", "linalg", "polycore",
           "specfile", "structure"]

REMOVED = {
    "poishom": ["Cochain", "apply_boundary", "apply_coboundary", "multiply",
                "weight_component", "weighted_degree", "document_from_structure",
                "ShiftNotFound", "GrMismatch",
                "CATALOG", "CatalogEntry", "ChainBasis", "ConfluenceFailure",
                "DualityReport", "EnvelopeElement", "JacobiViolation", "ModularData",
                "ModuleMismatch", "NonHomogeneousError", "NuReport", "OneForm",
                "PoissonStructure", "PolyParseError", "Polynomial", "RelationViolation",
                "SparseMatrix", "SpecFileError", "VarTable", "VarTableMismatch",
                "basis_form", "boundary_matrix", "catalog_ids", "chain_basis",
                "coboundary_matrix", "cochain_basis", "cohomology_dims",
                "confluence_check", "differential", "dim_table_tsv", "format_poly",
                "gr_dimension_check", "homogeneous_weight", "j_quotient_action",
                "log_canonical_matrix", "monomials_of_weight", "nu_check", "parse_poly",
                "partial_derivative", "reduce_combination", "reduce_word",
                "right_module_residue", "__version__"],
    "complexes": ["Cochain", "apply_boundary", "apply_coboundary",
                  "_contractions", "_check_index", "ShiftNotFound"],
    "envelope": ["multiply", "word_from_monomial", "_compositions", "GrMismatch",
                 "_symmetric_counts"],
    "envelope.EnvelopeElement": ["zero", "from_polynomial", "filtration_degree",
                                 "polynomial_part", "__add__", "__neg__", "__sub__"],
    "polycore": ["weight_component", "weighted_degree", "Monomial", "Scalar"],
    "polycore.Polynomial": ["coefficient", "constant_term", "__iter__", "sorted_terms"],
    "specfile": ["document_from_structure"],
    "specfile.SpecDocument": ["to_dict", "to_json", "save"],
    "structure": ["log_canonical_matrix", "times"],
    "structure.PoissonStructure": ["trace", "anchor_apply", "jacobiator",
                                   "require_homogeneous"],
    "complexes.ChainBasis": ["position", "n", "w"],
    "structure.OneForm": ["__sub__", "__neg__"],
    "linalg.SparseMatrix": ["from_rows", "__getitem__", "from_int_rows", "add_to",
                            "_check_index"],
}


def _resolve(path):
    module, *attrs = path.split(".")
    owner = poishom if module == "poishom" else importlib.import_module(
        f"poishom.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("module", ["poishom"] + MODULES)
def test_every_exported_name_resolves(module):
    owner = _resolve(module)
    names = getattr(owner, "__all__", ())
    assert names
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(owner, name)] == []


@pytest.mark.parametrize("path, name", [(path, name) for path, names in REMOVED.items()
                                        for name in names],
                         ids=[f"{path}.{name}" for path, names in REMOVED.items()
                              for name in names])
def test_removed_names_stay_gone(path, name):
    owner = _resolve(path)
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_the_package_root_exports_four_names():
    assert sorted(poishom.__all__) == ["SpecDocument", "duality_report",
                                       "get_entry", "homology_dims"]


def test_readme_library_sketch_runs(monkeypatch, capsys):
    # the sketch imports from the package root, so its names must suffice
    [sketch] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                          re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(sketch, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("False\n1\nduality window: ")
    assert out.endswith("result: PASS\n")
