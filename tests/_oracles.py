"""Independent slow-path implementations that tests compare against."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import add

from poishom.complexes import (
    GradedComplexCell,
    chain_basis,
    coboundary_matrix,
    cochain_basis,
    homology_dims,
)
from poishom.envelope import EnvelopeElement, ham, poly_atom, reduce_combination
from poishom.linalg import SparseMatrix
from poishom.polycore import (
    MAX_PARSE_TERMS,
    PolyParseError,
    Polynomial,
    VarTable,
    _check_degree,
    _check_terms,
    _int_literal,
    _lowest_degree,
    _monomial_bound,
    _Parser,
    _shown,
    _tokenize,
    _total_degree,
    format_poly,
    monomials_of_weight,
    partial_derivative,
)
from poishom.specfile import SpecDocument
from poishom.structure import (
    OneForm,
    PoissonStructure,
    TermTables,
    anchor_action,
)


def sparse_matrix(nrows: int, ncols: int, entries) -> SparseMatrix:
    """The SparseMatrix of {(r, c): rational}, cleared to int rows over the
    lcm of the denominators; zero values are dropped."""
    entries = {key: Fraction(v) for key, v in entries.items() if v}
    d = lcm(1, *(v.denominator for v in entries.values()))
    rows: dict = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v.numerator * (d // v.denominator)
    return SparseMatrix(nrows, ncols, rows, d)


def matrix_from_rows(rows) -> SparseMatrix:
    """The SparseMatrix of a list of equally long rows of rationals."""
    return sparse_matrix(len(rows), len(rows[0]) if rows else 0,
                         {(r, c): v for r, row in enumerate(rows)
                          for c, v in enumerate(row)})


def naive_rank(rows: "list[list[Fraction]]") -> int:
    """Gaussian elimination over Fraction, no pivoting tricks."""
    rows = [list(map(Fraction, row)) for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def fraction_rank(matrix: SparseMatrix) -> int:
    """Rank over Q by sparse row elimination in Fraction arithmetic.

    Lowest-column pivots, each pivot row scaled to a leading 1.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = Fraction(v)
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows.values():
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                lead = row[col]
                pivots[col] = {c: v / lead for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                left = row.get(c, 0) - factor * v
                if left:
                    row[c] = left
                else:
                    del row[c]
    return len(pivots)


def biderivation_bracket(S: PoissonStructure, f: Polynomial,
                         g: Polynomial) -> Polynomial:
    """{f, g} = sum over i < j of (f_i g_j - f_j g_i) {x_i, x_j}, on Polynomials."""
    out = S.vars.zero()
    for (i, j), p in S.entries.items():
        fi, gj = partial_derivative(f, i), partial_derivative(g, j)
        fj, gi = partial_derivative(f, j), partial_derivative(g, i)
        term = fi * gj - fj * gi
        if term:
            out = out + term * p
    return out


def biderivation_jacobiator(S: PoissonStructure, i: int, j: int,
                            k: int) -> Polynomial:
    """{x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}}, with the
    biderivation bracket."""
    xs = S.vars.gens()
    return (biderivation_bracket(S, xs[i], S.entry(j, k))
            + biderivation_bracket(S, xs[j], S.entry(k, i))
            + biderivation_bracket(S, xs[k], S.entry(i, j)))


def biderivation_trace(S: PoissonStructure, y: Polynomial) -> Polynomial:
    """sum_i d{y, x_i}/dx_i, with the biderivation bracket."""
    out = S.vars.zero()
    for i, x in enumerate(S.vars.gens()):
        out = out + partial_derivative(biderivation_bracket(S, y, x), i)
    return out


def biderivation_omega_action(S: PoissonStructure, m: Polynomial,
                              i: int) -> Polynomial:
    """{m, x_i} + m * trace(x_i), with the biderivation bracket."""
    x = S.vars.gen(i)
    return biderivation_bracket(S, m, x) + m * biderivation_trace(S, x)


def biderivation_lr_bracket(S: PoissonStructure, a: OneForm,
                            b: OneForm) -> OneForm:
    """Lie bracket of one-forms, differentiating the generator brackets."""
    n = len(S.vars)
    xs = S.vars.gens()
    out = [S.vars.zero() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ai, bj = a.coeffs[i], b.coeffs[j]
            for k in range(n):
                out[k] = out[k] + ai * bj * partial_derivative(S.entry(i, j), k)
            out[j] = out[j] + ai * biderivation_bracket(S, xs[i], bj)
            out[i] = out[i] - bj * biderivation_bracket(S, xs[j], ai)
    return OneForm(S.vars, tuple(out))


def anchor_apply(S: PoissonStructure, a: OneForm, f: Polynomial) -> Polynomial:
    """The anchor of a one-form on a polynomial: sum_i a_i {x_i, f}."""
    out = S.vars.zero()
    for i, ai in enumerate(a.coeffs):
        out = out + ai * S.bracket(S.gens[i], f)
    return out


# -- the chain and cochain differentials on polynomials ------------------------

_COEFFS = ("canonical", "omega")


def _check_index(index: "tuple[int, ...]", ell: int) -> None:
    """Refuse a multi-index that is not strictly increasing within range(ell)."""
    if any(not 0 <= i < ell for i in index) or list(index) != sorted(set(index)):
        raise ValueError(f"bad multi-index {index}: need strictly increasing "
                         f"indices in range({ell})")


@dataclass(frozen=True)
class Cochain:
    """An alternating n-multiderivation, stored by values on basis wedges.

    ``values`` maps strictly increasing multi-indices of length ``order`` to
    polynomials; missing indices mean zero, so the map is total.
    """

    order: int
    values: "dict[tuple[int, ...], Polynomial]"

    def __post_init__(self):
        clean = {}
        for index, poly in self.values.items():
            if len(index) != self.order or tuple(sorted(set(index))) != tuple(index):
                raise ValueError(f"bad multi-index {index} for order {self.order}")
            if not poly.is_zero():
                clean[index] = poly
        object.__setattr__(self, "values", clean)

    def value(self, index: "tuple[int, ...]", vt) -> Polynomial:
        got = self.values.get(tuple(index))
        return got if got is not None else vt.zero()

    def is_zero(self) -> bool:
        return not self.values


def _contractions(S: PoissonStructure, index: "tuple[int, ...]"):
    """The slot-pair contractions of dx_index, on polynomials.

    For slots p < q and each k outside the remaining slots, yields (the
    remaining slots with k merged in, d{x_{i_p}, x_{i_q}}/dx_k, the sign
    (-1)^(p+q) times that of moving dx_k to its place).
    """
    for p in range(len(index)):
        for q in range(p + 1, len(index)):
            pair = S.entry(index[p], index[q])
            if pair.is_zero():
                continue
            rest = index[:p] + index[p + 1 : q] + index[q + 1 :]
            base_sign = 1 if (p + q) % 2 == 0 else -1
            for k in range(len(S.vars)):
                c = partial_derivative(pair, k)
                if c.is_zero() or k in rest:
                    continue
                pos = bisect_left(rest, k)
                yield (rest[:pos] + (k,) + rest[pos:], c,
                       base_sign if pos % 2 == 0 else -base_sign)


def apply_boundary(S: PoissonStructure,
                   chain: "Mapping[tuple[int, ...], Polynomial]",
                   coeff: str = "canonical") -> "dict[tuple[int, ...], Polynomial]":
    """Boundary of sum_I poly_I (.) dx_I, as a map multi-index -> coefficient.

    Each wedge slot acts on the coefficient through the chosen right module
    with alternating sign, and each pair of slots contracts to the wedge of
    d{x_i, x_j} with the remaining slots (resorted, duplicates killed).
    An unknown coefficient name, or a multi-index that is not strictly
    increasing within range(ell), is refused with ValueError.
    """
    if coeff not in _COEFFS:
        raise ValueError(f"coefficient module must be one of {_COEFFS}, got {coeff!r}")
    vt = S.vars
    xs = vt.gens()
    if coeff == "canonical":
        def act(m: Polynomial, i: int) -> Polynomial:
            return S.bracket(m, xs[i])
    else:
        act = S.omega_h_action
    for index in chain:
        _check_index(index, len(vt))
    out: dict[tuple[int, ...], Polynomial] = {}

    def add(index: "tuple[int, ...]", poly: Polynomial) -> None:
        if poly.is_zero():
            return
        cur = out.get(index)
        total = poly if cur is None else cur + poly
        if total.is_zero():
            out.pop(index, None)
        else:
            out[index] = total

    for index, poly in chain.items():
        if poly.is_zero():
            continue
        for r, i in enumerate(index):
            moved = act(poly, i)
            if moved:
                rest = index[:r] + index[r + 1 :]
                add(rest, moved if r % 2 == 0 else -moved)
        for merged, c, sign in _contractions(S, index):
            add(merged, (poly * c) * sign)
    return out


def apply_coboundary(S: PoissonStructure, F: Cochain) -> Cochain:
    """Lie-Rinehart coboundary of an alternating multiderivation.

    (dF)(dx_{i_0}..dx_{i_n}) takes each slot out through the anchor
    {x_{i_r}, -} with sign (-1)^r, then contracts slot pairs into
    F(d{x_i, x_j} ^ rest) with sign (-1)^{r+s}; at order 0 this is
    f |-> ({x_i, f})_i, whose kernel is the Casimirs.  A value at a
    multi-index outside range(ell) is refused with ValueError.
    """
    vt = S.vars
    xs = vt.gens()
    n = F.order
    for index in F.values:
        _check_index(index, len(vt))
    out: dict[tuple[int, ...], Polynomial] = {}
    for index in combinations(range(len(vt)), n + 1):
        total = vt.zero()
        for r, i in enumerate(index):
            inner = F.value(index[:r] + index[r + 1 :], vt)
            if inner.is_zero():
                continue
            moved = S.bracket(xs[i], inner)
            if moved:
                total = total + (moved if r % 2 == 0 else -moved)
        for merged, c, sign in _contractions(S, index):
            inner = F.value(merged, vt)
            if not inner.is_zero():
                total = total + (c * inner) * sign
        if not total.is_zero():
            out[index] = total
    return Cochain(n + 1, out)


def boundary_matrix_by_columns(S: PoissonStructure, n: int, w: int,
                               coeff: str = "canonical") -> GradedComplexCell:
    """Boundary matrix of the cell (n, w), one apply_boundary per column."""
    src = chain_basis(S, n, w)
    tgt = chain_basis(S, n - 1, w + S.weight_shift())
    position = {el: k for k, el in enumerate(tgt.elements)}
    entries = {}
    vt = S.vars
    for col, (exps, index) in enumerate(src.elements):
        image = apply_boundary(S, {index: vt.monomial(exps)}, coeff)
        for index2, poly in image.items():
            for exps2, c in poly.terms.items():
                entries[(position[(exps2, index2)], col)] = c
    return GradedComplexCell(src, tgt, sparse_matrix(len(tgt), len(src), entries))


def coboundary_matrix_by_columns(S: PoissonStructure, n: int,
                                 w: int) -> GradedComplexCell:
    """Coboundary matrix of the cell (n, w), one apply_coboundary per column."""
    src = cochain_basis(S, n, w)
    tgt = cochain_basis(S, n + 1, w + S.weight_shift())
    position = {el: k for k, el in enumerate(tgt.elements)}
    entries = {}
    vt = S.vars
    for col, (exps, index) in enumerate(src.elements):
        image = apply_coboundary(S, Cochain(n, {index: vt.monomial(exps)}))
        for index2, poly in image.values.items():
            for exps2, c in poly.terms.items():
                entries[(position[(exps2, index2)], col)] = c
    return GradedComplexCell(src, tgt, sparse_matrix(len(tgt), len(src), entries))


def swept_cohomology(S: PoissonStructure,
                     max_weight: int) -> "dict[tuple[int, int], int]":
    """Cohomology dimensions per (n, w), 0 <= n <= ell and -sum(weights) <=
    w <= max_weight, swept over the coboundary matrices: the size of the
    cochain cell minus the ranks of the coboundary leaving and arriving.
    It reads no boundary and no duality certificate, so it is independent
    of the complement map that ``cohomology_dims`` reads the table through."""
    ell, shift = len(S.vars), S.weight_shift()
    ranks: dict = {}

    def rank(n: int, w: int) -> int:
        if not 0 <= n < ell:
            return 0
        if (n, w) not in ranks:
            ranks[(n, w)] = coboundary_matrix(S, n, w).matrix.rank()
        return ranks[(n, w)]

    return {(n, w): len(cochain_basis(S, n, w)) - rank(n, w) - rank(n - 1, w - shift)
            for n in range(ell + 1)
            for w in range(-sum(S.vars.weights), max_weight + 1)}


def log_canonical_homology(Q, weights: "tuple[int, ...]", coeff: str,
                           max_weight: int) -> "dict[tuple[int, int], int]":
    """Closed-form HP_n(w), 0 <= n <= ell and 0 <= w <= max_weight, of the
    log-canonical bracket {x_i, x_j} = Q[i][j] x_i x_j in variables of the
    given weights, with the module ``coeff``.

    A chain m dx_I with m x_I = x^alpha is x^alpha dlog x_I, and on the
    multidegree-alpha block the boundary is the contraction by the vector
    v_i = sum_k Q[i][k] alpha_k, less the row sum r_i = sum_k Q[i][k] under
    "omega".  The block is the exterior algebra on supp alpha, so it is
    acyclic unless v vanishes on supp alpha, and then its degree-n part
    has dimension C(|supp alpha|, n).  HP_n(w) sums those over the alpha
    of weight w; no matrix is built.
    """
    if coeff not in _COEFFS:
        raise ValueError(f"coefficient module must be one of {_COEFFS}, got {coeff!r}")
    ell = len(weights)
    rows = [sum(row) if coeff == "omega" else 0 for row in Q]
    vt = VarTable(tuple(f"x{i}" for i in range(ell)), tuple(weights))
    table = {(n, w): 0 for n in range(ell + 1) for w in range(max_weight + 1)}
    for w in range(max_weight + 1):
        for alpha in monomials_of_weight(vt, w):
            support = [i for i in range(ell) if alpha[i]]
            if all(sum(q * a for q, a in zip(Q[i], alpha)) == rows[i]
                   for i in support):
                for n in range(len(support) + 1):
                    table[(n, w)] += comb(len(support), n)
    return table


def eager_duality(S: PoissonStructure, max_weight: int) -> "tuple[int, ...]":
    """The fitting shifts of two independent sweeps, twisted homology and
    cohomology (``swept_cohomology``) over the window, compared cell by
    cell at every shift from 0 to the sum of the weights."""
    ell = len(S.vars)
    twisted = homology_dims(S, "omega", max_weight)
    cohomology = swept_cohomology(S, max_weight)
    return tuple(
        s for s in range(sum(S.vars.weights) + 1)
        if all(twisted[(n, w)] == cohomology[(ell - n, w - s)]
               for n in range(ell + 1) for w in range(max_weight + 1)))


def scale_traces(S: PoissonStructure, scale: int) -> None:
    """Multiply the int trace terms of S's tables by ``scale`` in place, and
    drop every plan, offset, basis and rank built from them: a twist fault
    the duality certificate must see."""
    tables = S.term_tables()
    traces = tuple(tuple((t, scale * c) for t, c in terms) for terms in tables.traces)
    S._tables = replace(tables, traces=traces, plans={}, offsets={}, bases={},
                        ranks={}, pivots={})


def plans_square_to_zero(S: PoissonStructure, plans) -> bool:
    """True when a plan table of ``complexes._plans`` squares to zero at
    every weight at once.

    On m = x^e, the step I -> J of ``plans[I]`` gives (c0 + c.e) x^(e + t1)
    (.) dx_J, and the step J -> K of ``plans[J]`` takes that on to
    (d0 + d.(e + t1)) x^(e + t1 + t2) (.) dx_K.  Summed per (I, K,
    t1 + t2), the products of the two forms must vanish as quadratic
    polynomials in e.
    """
    total: Counter = Counter()
    for I, plan in plans.items():
        for J, t1, c0, first in plan:
            for K, t2, d0, second in plans[J]:
                key = (I, K, tuple(map(add, t1, t2)))
                lead = d0 + sum(d * t1[b] for b, d in second)
                total[key + ((),)] += c0 * lead
                for b, d in second:
                    total[key + ((b,),)] += c0 * d
                for a, c in first:
                    total[key + ((a,),)] += c * lead
                    for b, d in second:
                        total[key + (tuple(sorted((a, b))),)] += c * d
    return not any(total.values())


def closure_plans(S: PoissonStructure, twist, backwards: bool = False) -> dict:
    """The plan table of ``complexes._plans``, built afresh per multi-index
    with a closure and a ``bisect`` per inserted index, and not kept.

    Forwards, the plan on dx_I gathers, in order, the anchor and twist
    terms of each face (I minus its r-th index, sign (-1)^r), then each
    bracket contraction of a pair p < q of I whose partial in x_k lands
    outside the rest R, at dx of R with k inserted at pos, sign
    (-1)^(p + q + pos).  Read backwards, each step K -> J becomes J -> K
    with its anchor part negated."""
    tables = S.term_tables()
    ell = len(S.vars)
    indices = [I for n in range(ell + 1) for I in combinations(range(ell), n)]
    if backwards:
        steps: dict = {J: [] for J in indices}
        for K, plan in closure_plans(S, twist).items():
            for J, t, c0, linear in plan:
                steps[J].append((K, t, c0, tuple((a, -c) for a, c in linear)))
        return {J: tuple(plan) for J, plan in steps.items()}
    plans = {}
    for I in indices:
        forms: dict = {}  # (J, t) -> {a or None for c0: coefficient}

        def step(J, a, terms, sign):
            for t, c in terms:
                form = forms.setdefault((J, t), {})
                form[a] = form.get(a, 0) + sign * c

        for r, i in enumerate(I):
            rest = I[:r] + I[r + 1:]
            sign = 1 if r % 2 == 0 else -1
            for a, terms in tables.anchor[i]:
                step(rest, a, terms, sign)
            step(rest, None, twist[i], sign)
        for p in range(len(I)):
            for q in range(p + 1, len(I)):
                rest = I[:p] + I[p + 1:q] + I[q + 1:]
                base_sign = 1 if (p + q) % 2 == 0 else -1
                for k, terms in tables.partials.get((I[p], I[q]), ()):
                    if k in rest:
                        continue
                    pos = bisect_left(rest, k)
                    step(rest[:pos] + (k,) + rest[pos:], None, terms,
                         base_sign if pos % 2 == 0 else -base_sign)
        plan = []
        for (J, t), form in forms.items():
            c0 = form.pop(None, 0)
            linear = tuple((a, c) for a, c in form.items() if c)
            if c0 or linear:
                plan.append((J, t, c0, linear))
        plans[I] = tuple(plan)
    return plans


def tuple_basis(S: PoissonStructure, n: int, w: int,
                sign: int) -> "tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]":
    """The cell (n, w) as (exponent tuple, multi-index) pairs sorted by
    monomial, then multi-index, where deg(m) = w + sign * (the weights of
    I): the elements a basis held before it held int keys, enumerated per
    call and not kept."""
    vt = S.vars
    elements = []
    if 0 <= n <= len(vt):
        for index in combinations(range(len(vt)), n):
            deg = w + sign * sum(vt.weights[i] for i in index)
            elements.extend((exps, index) for exps in monomials_of_weight(vt, deg))
    elements.sort()
    return tuple(elements)


def tuple_assembled(S: PoissonStructure, n: int, w: int, step: int, sign: int,
                    plans) -> SparseMatrix:
    """The matrix of a plan table from the cell (n, w) of ``tuple_basis``
    to (n + step, w + d - 2), assembled on tuple keys: the step to (J, t)
    from the column (e, I) writes its entry at the row of (e + t, J) in an
    index of the target's pairs.  Rows and each row's columns come in the
    order ``complexes._assemble`` writes them, column by column."""
    src = tuple_basis(S, n, w, sign)
    tgt = tuple_basis(S, n + step, w + S.weight_shift(), sign)
    position = {el: k for k, el in enumerate(tgt)}
    rows: dict = {}
    for col, (exps, index) in enumerate(src):
        for J, t, c0, linear in plans[index]:
            v = c0 + sum(c * exps[a] for a, c in linear)
            if v:
                rows.setdefault(position[(tuple(map(add, exps, t)), J)], {})[col] = v
    return SparseMatrix(len(tgt), len(src), rows, S.term_tables().denominator)


def dense_rows(matrix: SparseMatrix) -> "list[list[Fraction]]":
    rows = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return rows


def casimir_dimension(S: PoissonStructure, w: int) -> int:
    """dim of weight-w polynomials killed by every {x_i, -}.

    Solves the linear system directly on the monomial basis, bypassing the
    cochain machinery entirely.
    """
    monos = monomials_of_weight(S.vars, w)
    if not monos:
        return 0
    columns = []
    row_index: dict = {}
    rows_data = []
    for exps in monos:
        f = S.vars.monomial(exps)
        images = [S.bracket(S.vars.gen(i), f) for i in range(len(S.vars))]
        columns.append(images)
        for g in images:
            for key in g.terms:
                row_index.setdefault(key, len(row_index))
    matrix = [[Fraction(0)] * len(monos) for _ in range(len(row_index) * len(S.vars))]
    for c, images in enumerate(columns):
        for i, g in enumerate(images):
            for key, v in g.terms.items():
                matrix[i * len(row_index) + row_index[key]][c] = v
    return len(monos) - naive_rank(matrix)


def coinvariant_dimension(S: PoissonStructure, w: int) -> int:
    """dim of weight-w polynomials modulo the span of all {f, x_i}.

    Spanning vectors run over weight-compatible monomials f; this equals
    the weight-w piece of the quotient by the image of the first boundary
    map, computed without building the chain complex.
    """
    monos = monomials_of_weight(S.vars, w)
    if not monos:
        return 0
    index = {exps: k for k, exps in enumerate(monos)}
    span_rows = []
    shift = S.weight_shift()
    for i in range(len(S.vars)):
        source_w = w - S.vars.weights[i] - shift
        for exps in monomials_of_weight(S.vars, source_w):
            g = S.bracket(S.vars.monomial(exps), S.vars.gen(i))
            if g.is_zero():
                continue
            row = [Fraction(0)] * len(monos)
            for key, v in g.terms.items():
                row[index[key]] = v
            span_rows.append(row)
    if not span_rows:
        return len(monos)
    return len(monos) - naive_rank(span_rows)


def euler_characteristic_matches(S: PoissonStructure,
                                 table: "dict[tuple[int, int], int]",
                                 kind: str, diag: int,
                                 min_weight: int, max_weight: int) -> bool:
    """Alternating sums along a diagonal preserved by the differential.

    The boundary map sends weight w to w + shift while lowering n, so
    chains split along constant w + n * shift and cochains along constant
    w - n * shift; on a full diagonal the homology and basis counts must
    telescope to the same alternating sum.  Diagonals escaping the
    computed window are skipped.
    """
    shift = S.weight_shift()
    ell = len(S.vars)
    h_sum = 0
    b_sum = 0
    for n in range(ell + 1):
        w = diag - n * shift if kind == "chain" else diag + n * shift
        if not min_weight <= w <= max_weight:
            return True
        h_sum += (-1) ** n * table[(n, w)]
        basis = chain_basis(S, n, w) if kind == "chain" else cochain_basis(S, n, w)
        b_sum += (-1) ** n * len(basis)
    return h_sum == b_sum


def jacobian_cohomology(weights: "tuple[int, int, int]", d: int,
                        max_weight: int) -> "dict[tuple[int, int], int]":
    """Closed-form HP^k_v, 0 <= k <= 3 and -|w| <= v <= max_weight, of the
    Jacobian structure {x, y} = d_z phi, {y, z} = d_x phi, {z, x} = d_y phi
    of a potential phi of weighted degree d with an isolated singularity,
    in variables of the given weights w (Pichereau 2006).  It reads only
    counts of monomials, made here by a knapsack over the weights:

    * HP^0_v = [t^v] 1/(1 - t^d), the Casimirs C[phi];
    * HP^1_v = HP^0_v when d = |w| (the Euler field times C[phi]), else 0;
    * HP^3_v = [t^(v + |w|)] J(t)/(1 - t^d), where J(t) =
      prod_i (1 - t^(d - w_i))/(1 - t^(w_i)) is the Hilbert series of
      the Milnor algebra;
    * HP^2_v from the Euler characteristic of the diagonal of cochain
      cells (k, v + (k - 2) s), k = 0..3, where s = d - |w| is the shift of
      the coboundary and C^k_u counts m dx_I with deg m = u + sum_I w_i.
    """
    total = sum(weights)
    s = d - total
    top = max_weight + total + 3 * abs(s) + d
    monomials = [1] + [0] * top
    for wi in weights:
        for v in range(wi, top + 1):
            monomials[v] += monomials[v - wi]
    milnor = list(monomials)  # J(t)/(1 - t^d), one factor at a time
    for wi in weights:
        milnor = [c - (milnor[v - d + wi] if v >= d - wi else 0)
                  for v, c in enumerate(milnor)]
    for v in range(d, top + 1):
        milnor[v] += milnor[v - d]

    def at(series: "list[int]", v: int) -> int:
        return series[v] if 0 <= v <= top else 0

    def hp(k: int, v: int) -> int:
        if k in (0, 1):
            return int(v >= 0 and v % d == 0 and (k == 0 or s == 0))
        if k == 3:
            return at(milnor, v + total)
        chi = sum((-1) ** j * at(monomials, v + (j - 2) * s + sum(I))
                  for j in range(4) for I in combinations(weights, j))
        return chi - hp(0, v - 2 * s) + hp(1, v - s) + hp(3, v + s)

    return {(k, v): hp(k, v) for k in range(4)
            for v in range(-total, max_weight + 1)}


def random_polynomial(rng: random.Random, vt: VarTable, max_degree: int = 3,
                      max_terms: int = 3) -> Polynomial:
    out = vt.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(vt)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(vt))] += 1
        out = out + vt.monomial(
            exps, Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        )
    return out


def sample_poly(rng: random.Random, vt: VarTable, max_degree: int = 2,
                max_terms: int = 2) -> Polynomial:
    """The Polynomial twin of ``envelope._sample_poly``: the same draws in
    the same order, each coefficient a Fraction p/q."""
    out = vt.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(vt)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(vt))] += 1
        coeff = Fraction(rng.choice((1, -1, 2, -2, 1, 3)), rng.choice((1, 1, 2)))
        out = out + vt.monomial(exps, coeff)
    return out


def sample_word(rng: random.Random, vt: VarTable, max_len: int = 5):
    """The public-word twin of ``envelope._sample_word``: ("h", i) and
    ("p", Polynomial) atoms from the same draws."""
    atoms = []
    for _ in range(rng.randint(2, max_len)):
        if rng.random() < 0.55:
            atoms.append(ham(rng.randrange(len(vt))))
        else:
            atoms.append(poly_atom(sample_poly(rng, vt)))
    return tuple(atoms)


def random_log_canonical(rng: random.Random, n: int) -> PoissonStructure:
    names = tuple(f"x{i}" for i in range(n))
    vt = VarTable(names)
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-3, 3))
            if c:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                entries[(i, j)] = vt.monomial(tuple(exps), c)
    return PoissonStructure(vt, entries)


def log_canonical_matrix(S: PoissonStructure) -> "list[list[Fraction]] | None":
    """The antisymmetric matrix a_ij with {x_i, x_j} = a_ij x_i x_j, or None
    when some bracket is not a rational multiple of x_i x_j."""
    n = len(S.vars)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        p = S.entry(i, j)
        if p.is_zero():
            continue
        expected = tuple(int(k in (i, j)) for k in range(n))
        if list(p.terms) != [expected]:
            return None
        mat[i][j] = p.terms[expected]
        mat[j][i] = -mat[i][j]
    return mat


def document_dict(doc: SpecDocument) -> dict:
    """A document as the JSON object ``SpecDocument.from_dict`` reads, with
    the brackets spelled out (never a matrix) by ``format_poly``."""
    vt = doc.vars
    out: dict = {} if doc.label is None else {"label": doc.label}
    out["vars"] = [{"name": n, "weight": w} for n, w in zip(vt.names, vt.weights)]
    out["bracket"] = {f"{vt.names[i]},{vt.names[j]}": format_poly(p)
                      for (i, j), p in sorted(doc.bracket.items())}
    return out


def weighted_rational() -> PoissonStructure:
    """{x, y} = 2x^2/3 with weights (1, 2): structure denominator 3."""
    vt = VarTable(("x", "y"), (1, 2))
    return PoissonStructure(vt, {(0, 1): vt.monomial((2, 0), Fraction(2, 3))})


def mixed_denominator_log_canonical() -> PoissonStructure:
    """{x, y} = xy/2, {x, z} = xz, {y, z} = yz/3: the structure denominator
    is 6, while a single rule or assembly plan needs 1, 2, 3 or 6."""
    vt = VarTable(("x", "y", "z"))
    return PoissonStructure(vt, {(0, 1): vt.monomial((1, 1, 0), Fraction(1, 2)),
                                 (0, 2): vt.monomial((1, 0, 1)),
                                 (1, 2): vt.monomial((0, 1, 1), Fraction(1, 3))})


def polynomial_element(f: Polynomial) -> EnvelopeElement:
    """f as a normal form with no derivation symbol."""
    hexp = (0,) * len(f.vars)
    return EnvelopeElement(f.vars, {(e, hexp): c for e, c in f.terms.items()})


def filtration_degree(element: EnvelopeElement) -> int:
    """The largest number of derivation symbols in a term of a nonzero
    normal form."""
    return max(sum(h) for _, h in element.terms)


def multiply(S: PoissonStructure, a: EnvelopeElement,
             b: EnvelopeElement) -> EnvelopeElement:
    """Product of two normal forms: each pair of terms x^e h^k spelled as
    a word, the words joined, and the combination reduced."""
    def word(xexp, hexp):
        atoms = (poly_atom(S.vars.monomial(xexp)),) if any(xexp) else ()
        return atoms + tuple(ham(i) for i, e in enumerate(hexp) for _ in range(e))

    return reduce_combination(S, [(c1 * c2, word(*k1) + word(*k2))
                                  for k1, c1 in a.terms.items()
                                  for k2, c2 in b.terms.items()])


def polynomial_atom_reduce(S: PoissonStructure, parts, strategy: str = "leftmost"):
    """Normal form of a rational combination of words, on Polynomial atoms.

    Each rule builds its replacement words from Polynomials: the merge of
    two atoms multiplies them, h(i) * f asks ``S.bracket`` for {x_i, f},
    and h(j) * h(i) reads the Polynomial partials of the bracket.  Every
    coefficient is a Fraction.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    agenda = []
    for coeff, word in parts:
        c = Fraction(coeff)
        if c and not any(a[0] == "p" and a[1].is_zero() for a in word):
            agenda.append((c, tuple(word)))
    terms: dict = {}
    while agenda:
        coeff, word = agenda.pop()
        k = _polynomial_redex(word, strategy)
        if k is None:
            _fold_normal(S.vars, coeff, word, terms)
            continue
        for new_word in _rewrite_at(S, word, k):
            agenda.append((coeff, new_word))
    return EnvelopeElement(S.vars, terms)


def polynomial_module_residue(S: PoissonStructure, element: EnvelopeElement,
                              traces) -> Polynomial:
    """Residue of a normal form modulo (h(i) - t_i), on Polynomials: each
    term's polynomial f takes f * t_j - {x_j, f} per symbol h(j), in
    ascending order, with ``S.bracket``."""
    vt = S.vars
    out = vt.zero()
    for (xexp, hexp), c in element.terms.items():
        f = vt.monomial(xexp, c)
        for j, e in enumerate(hexp):
            for _ in range(e):
                f = f * traces[j] - S.bracket(S.gens[j], f)
        out = out + f
    return out


def _polynomial_redex(word, strategy: str):
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    for k in positions:
        a, b = word[k], word[k + 1]
        if b[0] == "p" or (a[0] == "h" and a[1] > b[1]):
            return k
    return None


def _rewrite_at(S: PoissonStructure, word, k: int):
    """Apply the one applicable rule at position k; returns replacement words."""
    head, a, b, tail = word[:k], word[k], word[k + 1], word[k + 2:]
    if a[0] == "p" and b[0] == "p":
        return [head + (poly_atom(a[1] * b[1]),) + tail]
    if a[0] == "h" and b[0] == "p":
        i, f = a[1], b[1]
        out = [head + (b, a) + tail]
        moved = S.bracket(S.vars.gen(i), f)
        if moved:
            out.append(head + (poly_atom(moved),) + tail)
        return out
    j, i = a[1], b[1]
    out = [head + (b, a) + tail]
    pair = S.entry(j, i)
    for k2 in range(len(S.vars)):
        c = partial_derivative(pair, k2)
        if c:
            out.append(head + (poly_atom(c), ham(k2)) + tail)
    return out


def _fold_normal(vt: VarTable, coeff: Fraction, word, terms: dict) -> None:
    """Add coeff * word, a word with no redex, to the normal-form terms."""
    if word and word[0][0] == "p":
        poly_terms, symbols = word[0][1].terms, word[1:]
    else:
        poly_terms, symbols = {(0,) * len(vt): Fraction(1)}, word
    hexp = [0] * len(vt)
    for atom in symbols:
        hexp[atom[1]] += 1
    key_h = tuple(hexp)
    for exps, c in poly_terms.items():
        key = (exps, key_h)
        s = terms.get(key, Fraction(0)) + coeff * c
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)


def doubled_counts(vt: VarTable, max_filtration: int,
                   max_weight: int) -> "list[list[int]]":
    """count[p][w] by enumeration: the monomials of weight w of the doubled
    table (each variable and a fresh copy), by their degree p in the copies."""
    suffix = "_y"
    while any(n + suffix in vt.names for n in vt.names):
        suffix += "_"
    doubled = VarTable(vt.names + tuple(n + suffix for n in vt.names),
                       vt.weights + vt.weights)
    n = len(vt)
    count = [[0] * (max_weight + 1) for _ in range(max_filtration + 1)]
    for w in range(max_weight + 1):
        for exps in monomials_of_weight(doubled, w):
            if sum(exps[n:]) <= max_filtration:
                count[sum(exps[n:])][w] += 1
    return count


def fraction_nu_relations(S: PoissonStructure, reduce=reduce_combination):
    """(description, left, right) per defining relation: the normal forms
    of the twist images of both sides, built as rational combinations of
    public words with Polynomial atoms, h(i) expanded to h(i) + tr(x_i)
    with the Polynomial traces of ``modular_data``, and reduced by
    ``reduce``."""
    vt = S.vars
    n = len(vt)
    traces = S.modular_data().traces

    def nu_expand(parts):
        out = []
        for coeff, word in parts:
            stack = [(coeff, ())]
            for atom in word:
                options = [(Fraction(1), (atom,))]
                if atom[0] == "h" and traces[atom[1]]:
                    options.append((Fraction(1), (poly_atom(traces[atom[1]]),)))
                stack = [(c * oc, w + ow) for c, w in stack for oc, ow in options]
            out.extend(stack)
        return out

    relations = []
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            lhs = [(Fraction(1), (ham(i), poly_atom(vt.gen(k))))]
            rhs = [(Fraction(1), (poly_atom(vt.gen(k)), ham(i)))]
            pair = S.entry(i, k)
            if pair:
                rhs.append((Fraction(1), (poly_atom(pair),)))
            relations.append((f"h({vt.names[i]}) * {vt.names[k]}",
                              reduce(S, nu_expand(lhs)), reduce(S, nu_expand(rhs))))
    for j in range(n):
        for i in range(j):
            lhs = [(Fraction(1), (ham(j), ham(i)))]
            rhs = [(Fraction(1), (ham(i), ham(j)))]
            pair = S.entry(j, i)
            for k in range(n):
                c = partial_derivative(pair, k)
                if c:
                    rhs.append((Fraction(1), (poly_atom(c), ham(k))))
            relations.append((f"h({vt.names[j]}) * h({vt.names[i]})",
                              reduce(S, nu_expand(lhs)), reduce(S, nu_expand(rhs))))
    return relations


# -- set-up in Polynomial arithmetic ------------------------------------------
#
# Documents were parsed, and term tables built, through Polynomial
# arithmetic before both moved to plain term dicts and int terms.  These are
# those paths, on a sum and a product loop of their own, so the fast paths
# are compared with code that shares no arithmetic with them.


def polynomial_sum(f: Polynomial, g: Polynomial, sign: int = 1) -> Polynomial:
    """f + sign * g; a sum that cancels drops its key."""
    out = dict(f.terms)
    for exps, c in g.terms.items():
        s = out.get(exps, Fraction(0)) + sign * c
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return Polynomial(f.vars, out)


def polynomial_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g, term by term; a sum that cancels drops its key."""
    out: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(key, Fraction(0)) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return Polynomial(f.vars, out)


def polynomial_power(f: Polynomial, k: int) -> Polynomial:
    """f ** k by square-and-multiply with ``polynomial_product``."""
    result, base = f.vars.one(), f
    while k:
        if k & 1:
            result = polynomial_product(result, base)
        k >>= 1
        if k:
            base = polynomial_product(base, base)
    return result


class PolynomialParser(_Parser):
    """The expression parser with every rule returning a Polynomial: the
    same grammar, bounds, messages and positions as ``parse_poly``."""

    def parse(self) -> Polynomial:
        try:
            poly = self.expression()
        except RecursionError:
            raise PolyParseError("expression nested too deeply",
                                 self.peek()[2]) from None
        kind, text, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {_shown(text)}", at)
        return poly

    def expression(self) -> Polynomial:
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            node = polynomial_sum(node, self.term(), 1 if op == "+" else -1)
        return node

    def term(self) -> Polynomial:
        node = self.factor()
        while self.peek()[0] == "*":
            at = self.advance()[2]
            rhs = self.factor()
            degree = _total_degree(node.terms) + _total_degree(rhs.terms)
            _check_degree(degree, at)
            count = len(node.terms) * len(rhs.terms)
            if count > MAX_PARSE_TERMS:
                lowest = _lowest_degree(node.terms) + _lowest_degree(rhs.terms)
                _check_terms(min(count, _monomial_bound(
                    lowest, degree, node.terms, rhs.terms)), at)
            node = polynomial_product(node, rhs)
        return node

    def factor(self) -> Polynomial:
        if self.peek()[0] == "-":
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        kind, text, at = self.peek()
        if kind == "-":
            raise PolyParseError("exponent must be non-negative", at)
        if kind != "num":
            raise PolyParseError("exponent must be an integer literal", at)
        self.advance()
        if self.peek()[0] == "/":
            raise PolyParseError("exponent must be an integer", self.peek()[2])
        k = _int_literal(text, at)
        degree = _total_degree(base.terms) * k
        _check_degree(degree, at)
        count = comb(len(base.terms) + k - 1, k) if base.terms else 0
        if count > MAX_PARSE_TERMS:
            lowest = _lowest_degree(base.terms) * k
            _check_terms(min(count, _monomial_bound(lowest, degree, base.terms)), at)
        return polynomial_power(base, k)

    def atom(self) -> Polynomial:
        kind, text, at = self.peek()
        if kind == "num":
            self.advance()
            numerator = _int_literal(text, at)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dtext, dat = self.peek()
                if dkind != "num":
                    raise PolyParseError("expected integer denominator", dat)
                self.advance()
                denominator = _int_literal(dtext, dat)
                if denominator == 0:
                    raise PolyParseError("zero denominator", dat)
                return self.vars.const(Fraction(numerator, denominator))
            return self.vars.const(numerator)
        if kind == "name":
            self.advance()
            try:
                return self.vars.gen(self.vars.index(text))
            except KeyError:
                raise PolyParseError(f"unknown variable {_shown(text)}", at) from None
        if kind == "(":
            self.advance()
            node = self.expression()
            ckind, _, cat = self.peek()
            if ckind != ")":
                raise PolyParseError("expected ')'", cat)
            self.advance()
            return node
        if kind == "end":
            raise PolyParseError("unexpected end of input", at)
        raise PolyParseError(f"unexpected {_shown(text)}", at)


def polynomial_parse(src: str, vt: VarTable) -> Polynomial:
    """``parse_poly`` in Polynomial arithmetic."""
    return PolynomialParser(_tokenize(src), vt).parse()


def _polynomial_terms(f: Polynomial, scale: int, lowered=None):
    out = []
    for exps, c in f.terms.items():
        if lowered is not None:
            exps = exps[:lowered] + (exps[lowered] - 1,) + exps[lowered + 1:]
        out.append((exps, c.numerator * (scale // c.denominator)))
    return tuple(out)


def _entry(vt: VarTable, entries, i: int, j: int) -> Polynomial:
    if i < j:
        return entries.get((i, j), vt.zero())
    return -entries.get((j, i), vt.zero())


def polynomial_term_tables(vt: VarTable, entries) -> TermTables:
    """The term tables of the brackets ``entries`` (keys i < j, nonzero
    Polynomials), built in Polynomial arithmetic and turned into int terms
    at the end: the anchor rows from negated entries, the partials by
    ``partial_derivative``, and the traces as Polynomial sums of those."""
    ell = len(vt)
    d = lcm(*(c.denominator for p in entries.values() for c in p.terms.values()))
    anchor = tuple(
        tuple((a, _polynomial_terms(_entry(vt, entries, a, i), d, lowered=a))
              for a in range(ell) if _entry(vt, entries, a, i))
        for i in range(ell))
    partials = {}
    traces = [vt.zero()] * ell
    for (i, j), p in entries.items():
        derivs = [partial_derivative(p, k) for k in range(ell)]
        partials[(i, j)] = tuple(
            (k, _polynomial_terms(dk, d)) for k, dk in enumerate(derivs) if dk)
        traces[i] = polynomial_sum(traces[i], derivs[j])
        traces[j] = polynomial_sum(traces[j], derivs[i], -1)
    return TermTables(
        d, {key: _polynomial_terms(p, d) for key, p in entries.items()},
        anchor, partials, tuple(traces),
        tuple(_polynomial_terms(t, d) for t in traces))


def polynomial_jacobi_violation(vt: VarTable, entries):
    """(triple, jacobiator) of the first generator triple on which the
    brackets ``entries`` (keys i < j) fail the Jacobi identity, or None: the
    int sum of ``anchor_action`` over the cyclic triple, each pair's terms
    read off a Polynomial ``{x_j, x_k}``, on the oracle's tables."""
    tables = polynomial_term_tables(vt, entries)
    d = tables.denominator
    for a, b, c in combinations(range(len(vt)), 3):
        out: dict = {}
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            pair = _polynomial_terms(_entry(vt, entries, j, k), d)
            for e, v in anchor_action(tables.anchor[i], pair):
                out[e] = out.get(e, 0) + v
        if any(out.values()):
            return (a, b, c), Polynomial(
                vt, {e: Fraction(-v, d * d) for e, v in out.items()})
    return None


def rational_log_canonical(rng: random.Random, n: int) -> PoissonStructure:
    """{x_i, x_j} = c_ij x_i x_j with random rational c_ij."""
    vt = VarTable(tuple(f"x{i}" for i in range(n)))
    entries = {}
    for i, j in combinations(range(n), 2):
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
        if c:
            exps = tuple(int(k in (i, j)) for k in range(n))
            entries[(i, j)] = vt.monomial(exps, c)
    return PoissonStructure(vt, entries)


def rational_jacobian(rng: random.Random) -> PoissonStructure:
    """The Jacobian structure of a random cubic-or-lower phi in x, y, z with
    rational coefficients: {x, y} = phi_z, {y, z} = phi_x, {z, x} = phi_y."""
    vt = VarTable(("x", "y", "z"))
    phi = random_polynomial(rng, vt, max_degree=3, max_terms=3) \
        + vt.monomial((1, 1, 1), Fraction(1, rng.choice((2, 3, 5))))
    dx, dy, dz = (partial_derivative(phi, k) for k in range(3))
    return PoissonStructure(vt, {(0, 1): dz, (1, 2): dx, (0, 2): -dy})
