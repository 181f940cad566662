"""Built-in example structures used by tests and the command line."""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import _shown
from .specfile import SpecDocument

__all__ = ["CatalogEntry", "CATALOG", "catalog_ids", "get_entry"]


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    document: SpecDocument
    unimodular: bool
    degree: int
    description: str


def _doc(data: dict) -> SpecDocument:
    return SpecDocument.from_dict(data)


CATALOG: "tuple[CatalogEntry, ...]" = (
    CatalogEntry(
        "trivial-1",
        _doc({"vars": ["x"], "bracket": {}, "label": "trivial-1"}),
        unimodular=True,
        degree=2,
        description="one variable, zero bracket",
    ),
    CatalogEntry(
        "trivial-2",
        _doc({"vars": ["x", "y"], "bracket": {}, "label": "trivial-2"}),
        unimodular=True,
        degree=2,
        description="two variables, zero bracket",
    ),
    CatalogEntry(
        "trivial-3",
        _doc({"vars": ["x", "y", "z"], "bracket": {}, "label": "trivial-3"}),
        unimodular=True,
        degree=2,
        description="three variables, zero bracket",
    ),
    CatalogEntry(
        "symplectic-plane",
        _doc({"vars": ["x", "y"], "bracket": {"x,y": "1"},
              "label": "symplectic-plane"}),
        unimodular=True,
        degree=0,
        description="constant rank-two bracket on the plane",
    ),
    CatalogEntry(
        "so3",
        _doc({"vars": ["x", "y", "z"],
              "bracket": {"x,y": "z", "y,z": "x", "z,x": "y"},
              "label": "so3"}),
        unimodular=True,
        degree=1,
        description="linear bracket of the rotation Lie algebra",
    ),
    CatalogEntry(
        "potential-x2z",
        _doc({"vars": ["x", "y", "z"],
              "bracket": {"x,y": "-x^2", "y,z": "-2*x*z"},
              "label": "potential-x2z"}),
        unimodular=True,
        degree=2,
        description="gradient bracket of the potential -x^2*z",
    ),
    CatalogEntry(
        "log-canonical-2",
        _doc({"vars": ["x", "y"], "matrix": [[0, 1], [-1, 0]],
              "label": "log-canonical-2"}),
        unimodular=False,
        degree=2,
        description="log-canonical plane, {x, y} = x*y",
    ),
    CatalogEntry(
        "log-canonical-3",
        _doc({"vars": ["x", "y", "z"],
              "matrix": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
              "label": "log-canonical-3"}),
        unimodular=False,
        degree=2,
        description="log-canonical three-space with nonzero row sums",
    ),
    CatalogEntry(
        "log-canonical-3u",
        _doc({"vars": ["x", "y", "z"],
              "matrix": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
              "label": "log-canonical-3u"}),
        unimodular=True,
        degree=2,
        description="log-canonical three-space with zero row sums",
    ),
)


def catalog_ids() -> "list[str]":
    return [entry.id for entry in CATALOG]


def get_entry(entry_id: str) -> CatalogEntry:
    for entry in CATALOG:
        if entry.id == entry_id:
            return entry
    raise KeyError(f"no catalog entry named {_shown(entry_id)}")
