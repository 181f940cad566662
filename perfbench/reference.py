"""A fixed reference computation that measures the machine's current speed.

On a shared host the speed of one core drifts by 10-20 % over tens of
seconds, far more than the differences the benchmark has to resolve.  A run
therefore times a reference loop between jobs and reports each job's time
also as a multiple of the loop's time measured next to it.  The loop never
changes and shares no code with poishom, so the ratio moves only when the
program does.

The loop is a fraction-free elimination of a fixed sparse 60 x 60 integer
matrix of full rank, whose entries grow to about 200 bits.  Measured on
five seeds per workload with 40 s runs (2 cores, Python 3.11), it steadied
every workload: spreads of the job-time metrics in its units 0.014-0.049,
against 0.093-0.142 in seconds as measured.  A loop of dict and Fraction
arithmetic kept graded-batch and pbw-words within a third of the bounds
(up to 0.079) but not so3-deep (0.078-0.098), whose time goes largely to
exact rank.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["reference_seconds"]


def _sparse_matrix(n: int) -> "list[list[int]]":
    """A fixed n x n matrix, about a fifth non-zero, entries in -9..9."""
    state, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            state = (1103515245 * state + 12345) % 2**31
            row.append((state >> 8) % 19 - 9 if (state >> 20) % 5 == 0 else 0)
        rows.append(row)
    return rows


_SPARSE = _sparse_matrix(60)


def _pivoting_bareiss(rows) -> int:
    """Rank by fraction-free elimination with a search for each pivot."""
    rows = [list(row) for row in rows]
    rank, prev = 0, 1
    for col in range(len(rows[0])):
        found = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        top, pivot = rows[rank], rows[rank][col]
        for row in rows[rank + 1:]:
            factor = row[col]
            for c in range(col + 1, len(row)):
                row[c] = (pivot * row[c] - factor * top[c]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
    return rank


def reference_seconds() -> float:
    """Seconds one pass of the reference loop takes right now."""
    start = perf_counter()
    _pivoting_bareiss(_SPARSE)
    return perf_counter() - start
