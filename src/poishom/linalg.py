"""Exact linear algebra over the rationals for graded complex cells.

Matrices are stored sparsely as (row, col) -> value, where a value is an
``int`` when it is given as one and a ``Fraction`` otherwise; the two
compare and hash alike, so neither equality nor hashing sees the
difference.  Rank is computed by fraction-free Gaussian elimination on the
sparse rows themselves: each row is kept as a column -> int dict, cleared
of denominators, and only its nonzero entries are ever touched, so the cost
follows the fill-in of the matrix rather than its dense area, and no
``Fraction`` is built while eliminating.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = ["SparseMatrix", "exact_rank"]


def _exact(value) -> "int | Fraction":
    """An int or a Fraction stays as it is; anything else becomes a Fraction."""
    return value if type(value) in (int, Fraction) else Fraction(value)


def _integral(row: "dict[int, int | Fraction]") -> "dict[int, int]":
    """The row scaled by the lcm of its denominators, so all ints."""
    if all(type(v) is int for v in row.values()):
        return row
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


class SparseMatrix:
    """Rational matrix with explicit shape and sparse storage.

    Int and Fraction values are kept as they are; other values are
    converted to Fraction.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int,
                 entries: "dict[tuple[int, int], int | Fraction] | None" = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be non-negative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], int | Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    self._check_index(r, c)
                v = _exact(v)
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(nrows, ncols)
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                m.add_to(r, c, v)
        return m

    def _check_index(self, r: int, c: int) -> None:
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self.nrows}x{self.ncols}")

    def add_to(self, r: int, c: int, value) -> None:
        """Accumulate into one entry, dropping it if the sum is zero."""
        self._check_index(r, c)
        v = self.entries.get((r, c), 0) + _exact(value)
        if v:
            self.entries[(r, c)] = v
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, key: "tuple[int, int]") -> "int | Fraction":
        self._check_index(*key)
        return self.entries.get(key, 0)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        by_row: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (k, c), v in other.entries.items():
            by_row.setdefault(k, []).append((c, v))
        out = SparseMatrix(self.nrows, other.ncols)
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                out.add_to(r, c, a * b)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == (
            other.nrows, other.ncols, other.entries)

    def rank(self) -> int:
        """Rank over Q by fraction-free sparse row elimination.

        Each row is first scaled by the lcm of its denominators, which does
        not change the rank, so everything after that is int arithmetic.
        Rows are reduced one at a time against the pivot rows found so far,
        always on their lowest column: with a the pivot's leading entry, b
        the row's and g = gcd(a, b), the row becomes row * (a/g) -
        pivot * (b/g).  A row that survives becomes the pivot row of that
        column, divided by the gcd of its entries.  Exact over Q; there is
        no modular step and no sampling.
        """
        rows: dict[int, dict[int, int | Fraction]] = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        pivots: dict[int, dict[int, int]] = {}
        for row in rows.values():
            row = _integral(row)
            while row:
                col = min(row)
                pivot = pivots.get(col)
                if pivot is None:
                    content = gcd(*row.values())
                    if content != 1:
                        row = {c: v // content for c, v in row.items()}
                    pivots[col] = row
                    break
                a, b = pivot[col], row[col]
                g = gcd(a, b)
                if g != 1:
                    a, b = a // g, b // g
                if a != 1:
                    row = {c: v * a for c, v in row.items()}
                for c, v in pivot.items():
                    left = row.get(c, 0) - b * v
                    if left:
                        row[c] = left
                    else:
                        del row[c]
        return len(pivots)

    def __repr__(self) -> str:
        return f"<SparseMatrix {self.nrows}x{self.ncols}, {self.nnz()} nonzero>"


def exact_rank(matrix) -> "tuple[int, int]":
    """(rank, kernel dimension) of a rational matrix.

    Accepts a :class:`SparseMatrix` or a sequence of rows.  The kernel
    dimension refers to the column kernel, so the pair always sums to the
    number of columns.
    """
    if not isinstance(matrix, SparseMatrix):
        matrix = SparseMatrix.from_rows([list(row) for row in matrix])
    r = matrix.rank()
    return r, matrix.ncols - r
