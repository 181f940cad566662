"""Exact linear algebra over the rationals for graded complex cells.

A matrix is stored in one format: sparse int rows, row -> {col: value},
over one positive int denominator, so the matrix it stands for is
rows / denominator.  The complexes hand over their int rows with the
structure denominator D as they are; rational values given entry by entry
are cleared into the same format, the denominator rising to the lcm of
theirs.  Readers see rational values: ints over denominator 1, and
``Fraction(value, denominator)`` otherwise.  Rank is computed by
fraction-free Gaussian elimination on copies of the stored rows, since
scaling by the denominator does not change it.  Only nonzero entries are
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
    empty row; ``denominator`` is a positive int, 1 unless some value
    needed more.
    """

    __slots__ = ("nrows", "ncols", "rows", "denominator")

    def __init__(self, nrows: int, ncols: int,
                 entries: "dict[tuple[int, int], int | Fraction] | None" = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be non-negative")
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.denominator = 1
        for (r, c), v in (entries or {}).items():
            self.add_to(r, c, v)

    @classmethod
    def from_int_rows(cls, nrows: int, ncols: int,
                      rows: "dict[int, dict[int, int]]",
                      denominator: int) -> "SparseMatrix":
        """The matrix rows / denominator, taking ``rows`` as they are: int
        values, no zero value, no empty row, indices inside the shape."""
        m = cls(nrows, ncols)
        m.rows = rows
        m.denominator = denominator
        return m

    def _check_index(self, r: int, c: int) -> None:
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self.nrows}x{self.ncols}")

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

    def add_to(self, r: int, c: int, value) -> None:
        """Accumulate into one entry, dropping it if the sum is zero.  A
        value whose denominator does not divide the stored one raises that
        to their lcm, scaling every stored row."""
        self._check_index(r, c)
        if type(value) is not int:
            value = Fraction(value)
        d, q = self.denominator, value.denominator
        if d % q:
            k = q // gcd(d, q)
            self.rows = {i: {j: v * k for j, v in row.items()}
                         for i, row in self.rows.items()}
            self.denominator = d = d * k
        row = self.rows.setdefault(r, {})
        v = row.get(c, 0) + value.numerator * (d // q)
        if v:
            row[c] = v
        else:
            row.pop(c, None)
            if not row:
                del self.rows[r]

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
        return SparseMatrix.from_int_rows(self.nrows, other.ncols, rows,
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
        return len(pivots)

    def __repr__(self) -> str:
        return f"<SparseMatrix {self.nrows}x{self.ncols}, {self.nnz()} nonzero>"

