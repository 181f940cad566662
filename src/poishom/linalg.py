"""Exact linear algebra over the rationals for graded complex cells.

A matrix is stored in one format: sparse int rows, row -> {col: value},
over one positive int denominator, so the matrix it stands for is
rows / denominator.  The complexes hand over their int rows with the
structure denominator D, and the constructor takes them as they are.
Readers see rational values: ints over denominator 1, and
``Fraction(value, denominator)`` otherwise.  Rank is computed by
fraction-free Gaussian elimination on copies of the stored rows, since
scaling by the denominator does not change it, and the elimination leaves
its pivot columns on the matrix.  Only nonzero entries are
ever touched, so the cost follows the fill-in of the matrix rather than
its dense area, and no ``Fraction`` is built while eliminating.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["SparseMatrix"]


class SparseMatrix:
    """Rational matrix with explicit shape, stored as sparse int rows over
    one denominator.

    ``rows`` maps a row index to {col: int} and holds no zero value and no
    empty row; ``denominator`` is a positive int.  ``pivots`` is None until
    ``rank`` runs, and then the pivot columns it found.
    """

    __slots__ = ("nrows", "ncols", "rows", "denominator", "pivots")

    def __init__(self, nrows: int, ncols: int,
                 rows: "dict[int, dict[int, int]] | None" = None,
                 denominator: int = 1):
        """The matrix rows / denominator, taking ``rows`` as they are: int
        values, no zero value, no empty row, indices inside the shape."""
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be non-negative")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = {} if rows is None else rows
        self.denominator = denominator
        self.pivots = None

    @property
    def entries(self) -> "dict[tuple[int, int], int | Fraction]":
        """The nonzero entries as (row, col) -> value, a new dict.  Over
        denominator 1 the values are the stored ones; otherwise each is
        the Fraction value / denominator."""
        d = self.denominator
        if d == 1:
            return {(r, c): v for r, row in self.rows.items() for c, v in row.items()}
        return {(r, c): Fraction(v, d)
                for r, row in self.rows.items() for c, v in row.items()}

    def is_zero(self) -> bool:
        return not self.rows

    def nnz(self) -> int:
        return sum(map(len, self.rows.values()))

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        rows: dict[int, dict[int, int]] = {}
        for r, row in self.rows.items():
            out: dict[int, int] = {}
            for k, a in row.items():
                for c, b in other.rows.get(k, {}).items():
                    out[c] = out.get(c, 0) + a * b
            out = {c: v for c, v in out.items() if v}
            if out:
                rows[r] = out
        return SparseMatrix(self.nrows, other.ncols, rows,
                            self.denominator * other.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == (
            other.nrows, other.ncols, other.entries)

    def rank(self) -> int:
        """Rank over Q by fraction-free sparse row elimination.

        Scaling by the denominator does not change the rank, so the stored
        int rows are read as they are, and everything is int arithmetic on
        copies of them.
        Rows are reduced one at a time, in stored order, against the pivot
        rows found so far, always on their lowest column: with a the
        pivot's leading entry, b the row's and g = gcd(a, b), the row
        becomes row * (a/g) - pivot * (b/g).  A row that survives becomes
        the pivot row of that column, divided by the gcd of its entries.
        Exact over Q; there is no modular step and no sampling.

        The pivot columns are kept in ``pivots``, in the order found: their
        columns form a basis of the column space, since the pivot rows
        restricted to them are triangular with a nonzero diagonal.
        """
        pivots: dict[int, dict[int, int]] = {}
        for row in self.rows.values():
            row = dict(row)
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
        self.pivots = tuple(pivots)
        return len(pivots)

    def __repr__(self) -> str:
        return f"<SparseMatrix {self.nrows}x{self.ncols}, {self.nnz()} nonzero>"

