"""The public names of the package.

Every name a module lists in ``__all__`` must resolve, and the names that
left the public API, with no caller in the package, must stay gone: the
Polynomial-level differentials are test oracles in ``_oracles.py`` now,
and the rest had no caller but their own tests.
"""

import importlib

import pytest

import poishom

MODULES = ["catalog", "cli", "complexes", "envelope", "linalg", "polycore",
           "specfile", "structure"]

REMOVED = {
    "poishom": ["Cochain", "apply_boundary", "apply_coboundary", "multiply",
                "weight_component", "weighted_degree", "document_from_structure"],
    "complexes": ["Cochain", "apply_boundary", "apply_coboundary",
                  "_contractions", "_check_index"],
    "envelope": ["multiply", "word_from_monomial"],
    "envelope.EnvelopeElement": ["zero", "from_polynomial", "filtration_degree",
                                 "polynomial_part"],
    "polycore": ["weight_component", "weighted_degree"],
    "polycore.Polynomial": ["coefficient", "constant_term"],
    "specfile": ["document_from_structure"],
    "specfile.SpecDocument": ["to_dict", "to_json", "save"],
    "structure.PoissonStructure": ["trace", "anchor_apply"],
    "linalg.SparseMatrix": ["from_rows", "__getitem__"],
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

