"""Reading Poisson structure documents.

A document is a JSON object with:

    vars     list of variable names, or objects {"name": ..., "weight": ...}
    bracket  object mapping "a,b" to a polynomial expression for {a, b}
    matrix   row-major antisymmetric matrix of rational scalars; entry (i, j)
             becomes {x_i, x_j} = c * x_i * x_j
    label    optional display name

Exactly one of bracket and matrix must be present (an absent bracket means
the zero bracket only when matrix is also absent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .polycore import PolyParseError, Polynomial, VarTable, parse_poly
from .structure import PoissonStructure

__all__ = ["SpecFileError", "SpecDocument"]


class SpecFileError(ValueError):
    """A structure document is malformed."""


def _parse_scalar(value) -> Fraction:
    if isinstance(value, bool):
        raise SpecFileError(f"matrix entry {value!r} is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"bad matrix entry {value!r}: {exc}") from None
    raise SpecFileError(f"matrix entry {value!r} is not a rational scalar")


@dataclass(frozen=True)
class SpecDocument:
    """Validated in-memory form of a structure document."""

    vars: VarTable
    bracket: "dict[tuple[int, int], Polynomial]" = field(default_factory=dict)
    label: "str | None" = None

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpecDocument":
        if not isinstance(data, Mapping):
            raise SpecFileError("document must be a JSON object")
        unknown = set(data) - {"vars", "bracket", "matrix", "label"}
        if unknown:
            raise SpecFileError(f"unknown keys: {sorted(unknown)}")
        raw_vars = data.get("vars")
        if not isinstance(raw_vars, list) or not raw_vars:
            raise SpecFileError("'vars' must be a non-empty list")
        names, weights = [], []
        for item in raw_vars:
            if isinstance(item, str):
                names.append(item)
                weights.append(1)
            elif isinstance(item, Mapping):
                extra = set(item) - {"name", "weight"}
                if extra:
                    raise SpecFileError(f"unknown variable keys: {sorted(extra)}")
                name = item.get("name")
                if not isinstance(name, str):
                    raise SpecFileError("variable 'name' must be a string")
                weight = item.get("weight", 1)
                if isinstance(weight, bool) or not isinstance(weight, int):
                    raise SpecFileError(f"weight of {name!r} must be an integer")
                names.append(name)
                weights.append(weight)
            else:
                raise SpecFileError(f"bad variable entry {item!r}")
        try:
            vt = VarTable(tuple(names), tuple(weights))
        except ValueError as exc:
            raise SpecFileError(str(exc)) from None

        label = data.get("label")
        if label is not None and not isinstance(label, str):
            raise SpecFileError("'label' must be a string")

        has_bracket = "bracket" in data
        has_matrix = "matrix" in data
        if has_bracket and has_matrix:
            raise SpecFileError("give either 'bracket' or 'matrix', not both")
        entries: dict[tuple[int, int], Polynomial] = {}
        if has_matrix:
            entries = cls._entries_from_matrix(vt, data["matrix"])
        elif has_bracket:
            entries = cls._entries_from_bracket(vt, data["bracket"])
        return cls(vt, entries, label)

    @staticmethod
    def _entries_from_bracket(vt: VarTable, raw) -> "dict[tuple[int, int], Polynomial]":
        if not isinstance(raw, Mapping):
            raise SpecFileError("'bracket' must be an object")
        entries: dict[tuple[int, int], Polynomial] = {}
        seen: set[frozenset] = set()
        for key, expr in raw.items():
            parts = [p.strip() for p in key.split(",")]
            if len(parts) != 2:
                raise SpecFileError(f"bracket key {key!r} must name two variables")
            try:
                i, j = vt.index(parts[0]), vt.index(parts[1])
            except KeyError as exc:
                raise SpecFileError(f"bracket key {key!r}: unknown variable {exc}") from None
            if i == j:
                raise SpecFileError(f"bracket key {key!r} repeats a variable")
            pair = frozenset((i, j))
            if pair in seen:
                raise SpecFileError(f"bracket pair {key!r} given twice")
            seen.add(pair)
            if not isinstance(expr, str):
                raise SpecFileError(f"bracket value for {key!r} must be a string")
            try:
                poly = parse_poly(expr, vt)
            except PolyParseError as exc:
                raise SpecFileError(f"bracket value for {key!r}: {exc}") from None
            if poly:
                entries[(i, j)] = poly
        return entries

    @staticmethod
    def _entries_from_matrix(vt: VarTable, raw) -> "dict[tuple[int, int], Polynomial]":
        n = len(vt)
        if not isinstance(raw, list) or len(raw) != n:
            raise SpecFileError(f"'matrix' must be a list of {n} rows")
        rows = []
        for row in raw:
            if not isinstance(row, list) or len(row) != n:
                raise SpecFileError(f"every matrix row must have {n} entries")
            rows.append([_parse_scalar(v) for v in row])
        for i in range(n):
            if rows[i][i]:
                raise SpecFileError(f"matrix diagonal entry ({i}, {i}) must be zero")
            for j in range(i + 1, n):
                if rows[i][j] != -rows[j][i]:
                    raise SpecFileError(
                        f"matrix is not antisymmetric at ({i}, {j})")
        entries: dict[tuple[int, int], Polynomial] = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j]:
                    exps = [0] * n
                    exps[i] += 1
                    exps[j] += 1
                    entries[(i, j)] = vt.monomial(tuple(exps), rows[i][j])
        return entries

    @classmethod
    def from_json(cls, text: str) -> "SpecDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"invalid JSON: {exc}") from None
        except ValueError:  # an int longer than sys.get_int_max_str_digits() allows
            raise SpecFileError("invalid JSON: an integer has too many digits") from None
        except RecursionError:
            raise SpecFileError("invalid JSON: nested too deeply") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "SpecDocument":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SpecFileError(f"document is not UTF-8 text: {exc}") from None
        return cls.from_json(text)

    def to_structure(self) -> PoissonStructure:
        return PoissonStructure(self.vars, self.bracket)

