import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poishom.catalog import CATALOG
from poishom.complexes import boundary_matrix, coboundary_matrix
from poishom.linalg import SparseMatrix

from _oracles import (
    boundary_matrix_by_columns,
    coboundary_matrix_by_columns,
    dense_rows,
    fraction_rank,
    matrix_from_rows,
    mixed_denominator_log_canonical,
    naive_pivots,
    naive_rank,
    sparse_matrix,
    stored_rows,
    weighted_rational,
)


def dense(rows):
    return matrix_from_rows([[Fraction(v) for v in row] for row in rows])


def at(m, r, c):
    """The value of entry (r, c), zero when it is not stored."""
    return m.entries.get((r, c), 0)


def rank_and_nullity(m):
    """(rank, dimension of the column kernel) of a SparseMatrix."""
    rank = m.rank()
    return rank, m.ncols - rank


def test_rank_goldens():
    assert rank_and_nullity(dense([[1, 2, 3], [2, 4, 6]])) == (1, 2)
    assert rank_and_nullity(dense([[1, 0], [0, 1]])) == (2, 0)
    assert rank_and_nullity(SparseMatrix(3, 4)) == (0, 4)
    assert rank_and_nullity(dense([[Fraction(1, 2), Fraction(1, 3)]])) == (1, 1)


def test_rank_accepts_plain_rows():
    assert rank_and_nullity(matrix_from_rows([[1, 2], [3, 4]])) == (2, 0)


def test_rows_are_taken_as_they_are():
    rows = {0: {0: 3, 2: -4}, 1: {1: 6}}
    m = SparseMatrix(2, 3, rows, 6)
    assert m.rows is rows and m.denominator == 6
    empty = SparseMatrix(2, 2)
    assert empty.rows == {} and empty.denominator == 1 and empty.is_zero()
    assert empty.rows is not SparseMatrix(2, 2).rows
    with pytest.raises(ValueError, match="non-negative"):
        SparseMatrix(-1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        SparseMatrix(2, -1)


def test_int_entries_stay_ints():
    # one rule for the type a reader sees: ints over denominator 1, and
    # Fraction(v, D) over any other denominator D
    ints = SparseMatrix(1, 2, {0: {0: 3, 1: 4}})
    assert ints.denominator == 1
    assert all(type(v) is int for v in ints.entries.values())
    m = SparseMatrix(2, 3, {0: {0: 6, 1: 1}, 1: {0: 8, 1: 2 ** 71}}, 2)
    assert all(type(v) is Fraction for v in m.entries.values())
    assert at(m, 1, 0) == 4 and at(m, 0, 0) == 3
    assert (1, 2) not in m.entries
    # equal to, and hashed like, the same matrix held in Fractions
    same = sparse_matrix(2, 3, {k: Fraction(v) for k, v in m.entries.items()})
    assert m == same
    assert (frozenset(m.entries.items()) == frozenset(same.entries.items()))
    assert hash(frozenset(m.entries.items())) == hash(frozenset(same.entries.items()))


def test_catalog_matrices_of_integral_structures_hold_ints():
    for entry_id in ("so3", "potential-x2z", "log-canonical-3"):
        S = next(e for e in CATALOG if e.id == entry_id).document.to_structure()
        cells = [boundary_matrix(S, 2, 3, "omega"), coboundary_matrix(S, 1, 2)]
        for cell in cells:
            assert cell.matrix.entries
            assert all(type(v) is int for v in cell.matrix.entries.values())


def test_matmul():
    a = dense([[1, 2], [0, 1]])
    b = dense([[1, 0], [3, 1]])
    assert a @ b == dense([[7, 2], [3, 1]])
    with pytest.raises(ValueError, match=r"^shape mismatch: 1x2 @ 1x2$"):
        dense([[1, 2]]) @ dense([[1, 2]])


fraction_rows = st.lists(
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
             min_size=3, max_size=3),
    min_size=1, max_size=5,
)


@given(fraction_rows)
@settings(max_examples=80)
def test_rank_matches_naive_elimination(rows):
    rank, nullity = rank_and_nullity(matrix_from_rows(rows))
    assert rank == naive_rank(rows)
    assert rank + nullity == 3


values = st.fractions(min_value=-6, max_value=6, max_denominator=5)
huge = st.integers(2 ** 64, 2 ** 80).flatmap(lambda v: st.sampled_from((v, -v)))


@st.composite
def sparse_matrices(draw):
    """Any shape up to 8x8 (empty ones too), few nonzeros, int entries of
    2^64 and more, rows divided by different denominators, and some rows
    repeated as rational multiples of others.  Integral values are given as
    ints, the rest as Fractions."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    if nrows and ncols:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        entry = st.one_of(values, huge.map(Fraction))
        for (r, c), v in draw(st.dictionaries(cells, entry, max_size=12)).items():
            rows[r][c] = v
        for r in range(nrows):
            denominator = draw(st.integers(1, 12))
            rows[r] = [v / denominator for v in rows[r]]
        for _ in range(draw(st.integers(0, 3))):
            source = draw(st.integers(0, nrows - 1))
            target = draw(st.integers(0, nrows - 1))
            scale = draw(st.one_of(values, huge.map(lambda v: Fraction(v, 7))))
            rows[target] = [scale * v for v in rows[source]]
    entries = {(r, c): v.numerator if v.denominator == 1 else v
               for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    return sparse_matrix(nrows, ncols, entries), rows


@given(sparse_matrices())
@settings(max_examples=150)
def test_sparse_rank_matches_naive_elimination(case):
    matrix, rows = case
    rank = matrix.rank()
    assert rank == naive_rank(rows)
    assert rank == fraction_rank(matrix)
    assert rank <= min(matrix.nrows, matrix.ncols)
    transpose = sparse_matrix(matrix.ncols, matrix.nrows,
                              {(c, r): v for (r, c), v in matrix.entries.items()})
    assert transpose.rank() == rank


def _cells(S):
    """Every boundary and coboundary cell of S with weight below 5."""
    lo = -sum(S.vars.weights)
    for n in range(len(S.vars) + 1):
        yield from (coboundary_matrix(S, n, w) for w in range(lo, 5))
        yield from (boundary_matrix(S, n, w, coeff)
                    for w in range(5) for coeff in ("canonical", "omega"))


def test_rank_of_catalog_cells_matches_naive_elimination():
    for entry in CATALOG:
        S = entry.document.to_structure()
        for cell in _cells(S):
            rank = cell.matrix.rank()
            assert rank == naive_rank(dense_rows(cell.matrix)), (
                entry.id, cell.source)
            assert rank == fraction_rank(cell.matrix), (entry.id, cell.source)


@pytest.mark.parametrize("make", [weighted_rational, mixed_denominator_log_canonical])
def test_rank_of_rational_structure_cells_matches_naive_elimination(make):
    # the structure denominator is 3 and 6: every cell holds its int rows
    # over it, and rank reads those rows unscaled
    S = make()
    denominator = S.term_tables().denominator
    assert denominator > 1
    for cell in _cells(S):
        assert cell.matrix.denominator == denominator
        rank = cell.matrix.rank()
        assert rank == naive_rank(dense_rows(cell.matrix)), cell.source
        assert rank == fraction_rank(cell.matrix), cell.source


def _content_six():
    # the first row has content 6 and opens the pivot at column 0, and
    # three later rows meet it there, so it is divided by 6 when it first
    # eliminates; row 4, stored second, opens a pivot no row meets
    return SparseMatrix(5, 4, {0: {0: 6, 1: 12, 3: -18}, 4: {3: 10},
                               1: {0: 4, 2: 2}, 2: {0: 3, 1: 6, 3: -9},
                               3: {0: 9, 1: 1, 2: 5}}, 5)


def test_a_pivot_with_content_matches_naive_elimination():
    m = _content_six()
    rows = stored_rows(m)
    assert m.rank() == naive_rank(rows) == 4
    assert m.pivots == naive_pivots(rows) == (0, 3, 1, 2)


def test_rank_leaves_the_matrix_as_it_was():
    # each second row has the first's leading entry 1 (or a multiple of it),
    # so eliminating on the stored rows would rewrite them; a pivot row is
    # divided by its content into a new dict, so every stored row is still
    # the very dict it was, holding what it held
    S = mixed_denominator_log_canonical()
    so3 = next(e for e in CATALOG if e.id == "so3").document.to_structure()
    matrices = [cell.matrix for T in (S, so3) for cell in _cells(T)]
    matrices += [SparseMatrix(2, 2, {0: {0: 1, 1: 1}, 1: {0: 1, 1: 2}}, 6),
                 SparseMatrix(2, 2, {0: {0: 1, 1: 1}, 1: {0: 2, 1: 3}}),
                 SparseMatrix(2, 2, {0: {0: 2, 1: 4}, 1: {0: 3, 1: 1}}),
                 dense([[Fraction(1, 2), 1], [1, 3]]), _content_six()]
    for m in matrices:
        before = m.entries
        stored = dict(m.rows)
        copies = {r: dict(row) for r, row in m.rows.items()}
        rank = m.rank()
        assert m.entries == before
        assert m.rows == copies
        assert all(m.rows[r] is row for r, row in stored.items())
        assert m.rank() == rank


def test_an_empty_row_counts_nothing():
    # outside the constructor's contract, but an empty row still ranks 0
    m = SparseMatrix(4, 3, {0: {}, 1: {1: 4, 2: 2}, 2: {}, 3: {1: 2, 2: 1}})
    assert m.rank() == 1 and m.pivots == (1,)
    assert SparseMatrix(1, 1, {0: {}}).rank() == 0


@given(sparse_matrices(), st.lists(st.integers(1, 12), min_size=8, max_size=8))
@settings(max_examples=150)
def test_scaled_rows_keep_the_rank_and_the_pivots(case, factors):
    # scaling a row scales its content, so however much of it a pivot row
    # still carries when it eliminates, the pivots are those of the
    # unscaled rows
    matrix, _ = case
    scaled = SparseMatrix(matrix.nrows, matrix.ncols, {
        r: {c: v * factors[r] for c, v in row.items()}
        for r, row in matrix.rows.items()}, matrix.denominator)
    rank = matrix.rank()
    assert scaled.rank() == rank == naive_rank(stored_rows(matrix))
    assert scaled.pivots == matrix.pivots == naive_pivots(stored_rows(matrix))


def test_rank_leaves_its_pivot_columns():
    m = dense([[0, 2, 4], [0, 1, 2], [3, 0, 1]])
    assert m.pivots is None
    assert m.rank() == 2
    assert m.pivots == (1, 0)
    empty = SparseMatrix(2, 3)
    assert empty.rank() == 0 and empty.pivots == ()


@st.composite
def zero_products(draw):
    """Int rows of A (p x m) and B (m x q) with A @ B = 0, then m and q.
    A starts as [A1 | 0] and B as [0 ; B1] with s rows, then random shears
    U act as A U^-1 and U B, which keeps the product zero and spreads both
    over every column and row."""
    m, p, q = draw(st.integers(0, 7)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    s = draw(st.integers(0, m))
    small = st.integers(-3, 3)
    a = [[draw(small) if c < s else 0 for c in range(m)] for _ in range(p)]
    b = [[draw(small) if r >= s else 0 for _ in range(q)] for r in range(m)]
    for _ in range(draw(st.integers(0, 12)) if m > 1 else 0):
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                             unique=True))
        k = draw(small)
        b[i] = [x + k * y for x, y in zip(b[i], b[j])]
        for row in a:
            row[j] -= k * row[i]
    return a, b, m, q


def _int_matrix(rows, ncols):
    return sparse_matrix(len(rows), ncols, {(r, c): v for r, row in enumerate(rows)
                                            for c, v in enumerate(row)})


@given(zero_products())
@settings(max_examples=150)
def test_pivot_columns_of_a_left_factor_mark_redundant_rows(case):
    # the rows of B at the pivot columns of A are combinations of the others
    # when A @ B = 0, which the sweep relies on to leave them out
    a, b, m, q = case
    A, B = _int_matrix(a, m), _int_matrix(b, q)
    assert (A @ B).is_zero()
    rank = A.rank()
    assert len(A.pivots) == len(set(A.pivots)) == rank
    assert naive_rank([[row[c] for c in A.pivots] for row in a]) == rank
    kept = [row for r, row in enumerate(b) if r not in A.pivots]
    assert naive_rank(kept) == naive_rank(b) == B.rank()
    for r in A.pivots:
        B.rows.pop(r, None)
    assert B.rank() == naive_rank(b)


def _over_denominator(matrix, k=6):
    """The same rational matrix held as int rows over k times the lcm of
    its denominators, so not over the least denominator."""
    d = k * lcm(1, *(Fraction(v).denominator for v in matrix.entries.values()))
    rows = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = int(v * d)
    return SparseMatrix(matrix.nrows, matrix.ncols, rows, d)


def test_denominator_matrix_reads_like_its_fraction_twin():
    half = Fraction(1, 2)
    twin = sparse_matrix(2, 3, {(0, 0): half, (0, 2): Fraction(-2, 3), (1, 1): 1})
    m = SparseMatrix(2, 3, {0: {0: 3, 2: -4}, 1: {1: 6}}, 6)
    assert m == twin and twin == m
    assert m.entries == twin.entries
    assert [at(m, r, c) for r in range(2) for c in range(3)] == [
        at(twin, r, c) for r in range(2) for c in range(3)]
    assert type(at(m, 1, 1)) is Fraction and at(m, 1, 1) == 1 and at(m, 1, 0) == 0
    assert m.nnz() == twin.nnz() == 3
    assert m != SparseMatrix(2, 3, {0: {0: 3, 2: -4}, 1: {1: 6}}, 3)
    assert m.rank() == twin.rank() == 2
    other = SparseMatrix(3, 2, {0: {0: 2}, 2: {0: 1, 1: -5}}, 4)
    other_twin = sparse_matrix(3, 2, {(0, 0): half, (2, 0): Fraction(1, 4),
                                      (2, 1): Fraction(-5, 4)})
    assert other == other_twin
    product = twin @ other_twin
    assert m @ other == product
    assert m @ other_twin == product and twin @ other == product


@given(sparse_matrices())
@settings(max_examples=100)
def test_int_rows_over_a_denominator_match_the_fraction_matrix(case):
    matrix, _ = case
    scaled = _over_denominator(matrix)
    assert scaled == matrix
    assert scaled.entries == matrix.entries
    assert scaled.nnz() == matrix.nnz()
    assert all(at(scaled, *key) == v for key, v in matrix.entries.items())
    assert scaled.rank() == matrix.rank()
    transpose = sparse_matrix(matrix.ncols, matrix.nrows,
                              {(c, r): v for (r, c), v in matrix.entries.items()})
    assert scaled @ _over_denominator(transpose) == matrix @ transpose


@pytest.mark.parametrize("n, w", [(n, w) for n in range(4) for w in range(-3, 5)])
def test_mixed_denominator_cells_hold_int_rows_over_six(n, w):
    S = mixed_denominator_log_canonical()
    cells = [(coboundary_matrix(S, n, w), coboundary_matrix_by_columns(S, n, w))]
    if w >= 0:
        cells += [(boundary_matrix(S, n, w, coeff), boundary_matrix_by_columns(S, n, w, coeff))
                  for coeff in ("canonical", "omega")]
    for fast, slow in cells:
        m = fast.matrix
        assert m.denominator == 6
        assert all(type(v) is int for row in m.rows.values() for v in row.values())
        assert all(m.rows.values())
        assert m == slow.matrix


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 3))
@settings(max_examples=30)
def test_rank_of_low_rank_products(seed, r):
    # u @ v has rank at most r by construction
    rng = random.Random(seed)
    u = [[Fraction(rng.randint(-5, 5)) for _ in range(r)] for _ in range(4)]
    v = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(r)]
    prod = [
        [sum((u[i][k] * v[k][j] for k in range(r)), Fraction(0)) for j in range(4)]
        for i in range(4)
    ]
    rank = matrix_from_rows(prod).rank()
    assert rank <= r
    assert rank == naive_rank(prod)


@pytest.mark.parametrize("r", [0, 1, 7, 19, 30])
def test_rank_of_dense_products_of_known_rank(r):
    # u is 30 x r and v is r x 30, both with unit diagonals and zeros on one
    # side of it, so each has rank r and so has the mostly dense u @ v
    rng = random.Random(r)
    u = [[(1 if i == k else rng.randint(-9, 9) if i > k else 0) for k in range(r)]
         for i in range(30)]
    v = [[(1 if j == k else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
           if j > k else 0) for j in range(30)] for k in range(r)]
    product = SparseMatrix(30, 30)
    if r:
        product = matrix_from_rows(u) @ matrix_from_rows(v)
        assert product.nnz() > 450
    assert product.rank() == r
    assert naive_rank(dense_rows(product)) == r
    assert fraction_rank(product) == r
