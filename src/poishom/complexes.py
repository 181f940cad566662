"""Graded chain and cochain complexes attached to a Poisson structure.

Chains in degree n are spanned by m (.) dx_{i_1}...dx_{i_n} with m a
monomial and the multi-index strictly increasing; the boundary acts through
a choice of right module on the coefficient ("canonical" multiplication or
the trace-twisted "omega" action) plus wedge contraction of the generator
brackets.  Cochains are alternating multiderivations stored by their values
on the basis wedges; the coboundary is the Lie-Rinehart differential of the
one-form algebroid.

Both differentials shift weight by the same amount d - 2, where d is the
structure's homogeneity degree, so every computation here is cut out cell
by cell at fixed (n, w) and ranks are taken exactly over the rationals.

``boundary_matrix`` and ``coboundary_matrix`` turn the structure's
exponent tables (``PoissonStructure.term_tables``), which hold int
coefficients times one structure denominator D, into one plan table per
distinct differential, built whole by ``_plans``: per multi-index, one
linear form in the column's exponents for each target, its signs read
off the face tables of ``_faces``, built once per number of variables.
A cell basis is a sorted tuple of int keys, each monomial's exponents
packed into one int with its multi-index's rank below them, and the cell
bases of a structure share one enumeration and packing of the monomials
of each weight (``TermTables.monomials``).  The same differentials on
polynomials, applied column by column, and a basis and assembly keyed by
(exponent tuple, multi-index) pairs are the test oracles in
``tests/_oracles.py``; nothing here calls them.
A boundary is keyed by its twist table, the terms added to each
generator's action (``_twist``): zero for "canonical" and the traces for
"omega", so a unimodular structure has one table for both.  The
coboundary's table is the zero twist's read backwards.  One small kernel,
``_assemble``, enumerates both cells and evaluates a plan table on each
column's exponent tuple into int rows, handed to ``SparseMatrix`` over D;
a target's row is found by adding one int offset per step to the column's
key.

Every sweep takes boundaries only.  The cochain side is the chain side
under the complement map m (.) dx_I -> (m, I^c): ``_duality_certificate``
checks, for every weight at once, that the complement image of the omega
boundary's table is the zero-twist table, the coboundary's read
backwards.  The check holds for any bivector, so it fails only on a fault
in the code, and then ``CertificateFailure`` is raised.  When it holds,
the cohomology cell (k, v) is the omega homology cell (ell - k, v + s), s
the sum of the weights: ``cohomology_dims`` and ``duality_report`` read
one ``_Table`` off the omega boundary's ranks (``_cohomology``), each
rank taken once per structure and twist.  A rank leaves its pivot
columns beside it, and the boundary arriving at its source is then ranked
without the rows at those columns, which d^2 = 0 makes redundant
(``_cell_dims``); both tables are read with the chain degree rising, so
that the rank below is taken first.  ``coboundary_matrix`` and
``cochain_basis`` remain as cell-level API, and no sweep calls them.
``duality_report`` first tests a shift by the Euler characteristics of
strands, counted by ``_count`` off the Hilbert function of the weights
on the chain side only, since the map matches the two bases.  Only a
shift that survives reads cells, and reaches above the window only once
every pair inside it agrees.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import lshift

from .linalg import SparseMatrix
# unused here, but perfbench/tracing.py patches complexes.partial_derivative by name
from .polycore import monomials_of_weight, partial_derivative  # noqa: F401
from .structure import PoissonStructure, Terms

__all__ = [
    "ChainBasis",
    "GradedComplexCell",
    "chain_basis",
    "cochain_basis",
    "boundary_matrix",
    "coboundary_matrix",
    "homology_dims",
    "cohomology_dims",
    "dim_table_tsv",
    "CertificateFailure",
    "DualityReport",
    "duality_report",
]

_COEFFS = ("canonical", "omega")


def _twist(S: PoissonStructure, coeff: str) -> "tuple[Terms, ...]":
    """Per generator, the int terms over D that the coefficient module adds
    to its action: none for "canonical", the trace for "omega"."""
    if coeff not in _COEFFS:
        raise ValueError(f"coefficient module must be one of {_COEFFS}, got {coeff!r}")
    return S.term_tables().traces if coeff == "omega" else ((),) * len(S.vars)


class ChainBasis:
    """Ordered basis of one graded cell, held as a sorted tuple of int keys.

    The key of m (.) dx_I, m = x^e, is e packed big-endian in
    ``_DIGIT``-bit digits and shifted left by ell bits, plus the rank of I,
    the ell-bit int whose bits are those of the variables outside I
    (``_layout``).  Among the multi-indices of one size the rank rises
    with lex order, and a cell's multi-indices share one size, so the keys
    sort by monomial, then multi-index, and matrix layouts are
    reproducible run to run.  ``elements`` decodes the keys into
    (exponent tuple, multi-index) pairs.  A basis keeps no index of its
    keys: ``_assemble`` builds one for its target cell, the one place that
    looks a key up.
    """

    __slots__ = ("keys", "_exponents", "_ell")

    def __init__(self, keys: "tuple[int, ...]", exponents: "dict[int, tuple[int, ...]]",
                 ell: int):
        self.keys = keys
        self._exponents = exponents
        self._ell = ell

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def elements(self) -> "tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]":
        """The (exponent tuple, multi-index) pairs of the keys, in order."""
        mask = (1 << self._ell) - 1
        bits = _layout(self._ell)[1]
        return tuple((self._exponents[key & ~mask], _index(key & mask, bits))
                     for key in self.keys)


_DIGIT = 32


@lru_cache(maxsize=None)
def _layout(ell: int) -> "tuple[tuple[int, ...], tuple[int, ...]]":
    """Per variable x_i: the shift _DIGIT * (ell - 1 - i) + ell of its
    exponent's digit in a key, and its bit 2^(ell - 1 - i) in the rank of a
    multi-index.  A monomial's code, sum(map(lshift, e, shifts)), is its
    key less the rank; a negative entry of e borrows from the digit above
    it.  Of two multi-indices I <lex J of one size, I holds the first index
    where they differ and J does not, so J's rank, the bits of the
    variables outside J, is the larger."""
    return (tuple(range(_DIGIT * (ell - 1) + ell, ell - 1, -_DIGIT)),
            tuple(map((1).__lshift__, range(ell - 1, -1, -1))))


def _index(rank: int, bits: "tuple[int, ...]") -> "tuple[int, ...]":
    """The multi-index of a rank: the variables whose bit it lacks."""
    return tuple(i for i, bit in enumerate(bits) if not rank & bit)


def _basis(S: PoissonStructure, n: int, w: int, sign: int) -> ChainBasis:
    """Basis of the cell (n, w) whose elements m (.) dx_I have deg(m) =
    w + sign * (the weights of I); sign is -1 for chains, +1 for cochains.
    Built once per structure and kept in ``TermTables.bases``.  The
    monomials of each degree 0 <= deg < 2^31 are enumerated and packed once
    per structure, for every cell: ``TermTables.monomials`` holds each
    degree's codes, the packed exponents shifted left by ell bits, and
    ``TermTables.exponents`` maps every code to its exponents.  A key is a
    code plus the rank of its multi-index, read off ``_layout`` alongside
    the weights.  No exponent then reaches 2^31, so a key's digits never
    carry; a higher degree raises ValueError."""
    tables = S.term_tables()
    basis = tables.bases.get((sign, n, w))
    if basis is None:
        vt = S.vars
        ell = len(vt)
        mask = (1 << ell) - 1
        shifts, bits = _layout(ell)
        monomials = tables.monomials
        keys: "list[int]" = []
        if 0 <= n <= ell:
            for weights, index_bits in zip(combinations(vt.weights, n),
                                           combinations(bits, n)):
                deg = w + sign * sum(weights)
                if deg < 0:
                    continue
                if deg not in monomials:
                    if deg >> _DIGIT - 1:
                        raise ValueError(f"the cell ({n}, {w}) holds monomials of degree "
                                         f"{deg}, and degrees stop below 2^31")
                    codes = {sum(map(lshift, exps, shifts)): exps
                             for exps in monomials_of_weight(vt, deg)}
                    tables.exponents.update(codes)
                    monomials[deg] = tuple(codes)
                keys.extend(map((mask - sum(index_bits)).__add__, monomials[deg]))
        keys.sort()
        basis = tables.bases[sign, n, w] = ChainBasis(tuple(keys), tables.exponents, ell)
    return basis


@lru_cache(maxsize=1 << 16)
def _hilbert(weights: "tuple[int, ...]", w: int) -> int:
    """The number of monomials of weight w in variables of these weights."""
    if w < 0 or not weights:
        return int(w == 0)
    return sum(_hilbert(weights[1:], w - e * weights[0])
               for e in range(w // weights[0] + 1))


def _count(S: PoissonStructure, n: int, w: int) -> int:
    """The size of ``chain_basis(S, n, w)``, n >= 0, off the Hilbert
    function of the weights.  The cochain cell (k, v) has the size of the
    chain cell (ell - k, v + the sum of the weights): m (.) dx_I <->
    m (.) dx_{I^c} matches the two bases."""
    weights = S.vars.weights
    return sum(_hilbert(weights, w - sum(index))
               for index in combinations(weights, n))


def chain_basis(S: PoissonStructure, n: int, w: int) -> ChainBasis:
    """Basis of the chain cell at homological degree n and weight w.

    The weight of m (.) dx_I is deg(m) plus the weights of the wedge
    variables.
    """
    return _basis(S, n, w, -1)


def cochain_basis(S: PoissonStructure, n: int, w: int) -> ChainBasis:
    """Basis of the cochain cell at degree n and weight w.

    A cochain's weight is the degree of its values minus the weights of its
    argument variables, so w may be negative (no lower than minus the sum
    of all weights).
    """
    return _basis(S, n, w, 1)


@dataclass
class GradedComplexCell:
    """One differential restricted to a cell: bases plus its sparse matrix.

    Rows are indexed by the target basis, columns by the source basis, so
    composing differentials is plain matrix multiplication.
    """

    source: ChainBasis
    target: ChainBasis
    matrix: SparseMatrix


# -- matrix assembly ---------------------------------------------------------
#
# A differential sends a basis element m (.) dx_I, m = x^e, to a sum of terms
# (c0 + sum_a c_a * e_a) * x^(e + t) (.) dx_J, where the targets (J, t) and
# the linear forms depend only on I: the anchor terms through x_a give c_a,
# the twist and the bracket contractions give c0.  A plan lists one step
# (J, t, c0, ((a, c_a), ...)) per target, so ``_assemble`` evaluates each
# form once per column and target and writes the entry.  A plan is a sum of
# +/- table terms, so its coefficients are ints times the structure
# denominator D: ``_assemble`` writes those ints into the rows of the matrix
# and hands D over with them, so the matrix is rows / D, no Fraction is
# built, and the rank is read off the int rows.  ``_plans`` builds the plans
# of one differential for every multi-index at once and keeps them in
# ``TermTables.plans``, keyed by (twist table, read backwards): one boundary
# table when the traces vanish, since they are the omega twist.  Only the
# boundary plans are built from the term tables.  Both complexes come from
# one resolution of the algebra, so the coboundary's plans are the
# zero-twist boundary's read backwards.  ``_assemble`` reads a plan through
# its steps' int offsets, code(t) * 2^ell + rank(J), built per multi-index
# when a column first needs them, so a key plus an offset is a target key.

Plan = "tuple[tuple[tuple[int, ...], tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]"


@lru_cache(maxsize=None)
def _faces(ell: int) -> dict:
    """Per multi-index I of range(ell), by size then lex: the faces
    (i, I minus i, (-1)^r) of dx_I, i its r-th index, and per pair p < q
    of positions in I, the pair (I[p], I[q]) with the table k -> (the rest
    R with k inserted at pos, (-1)^(p + q + pos)), for each k outside R."""
    faces = {}
    for n in range(ell + 1):
        for I in combinations(range(ell), n):
            pairs = []
            for p, q in combinations(range(n), 2):
                rest = I[:p] + I[p + 1 : q] + I[q + 1 :]
                pos = {k: sum(r < k for r in rest) for k in range(ell) if k not in rest}
                pairs.append(((I[p], I[q]), {
                    k: (rest[:at] + (k,) + rest[at:], (-1) ** (p + q + at))
                    for k, at in pos.items()}))
            faces[I] = (tuple((i, I[:r] + I[r + 1 :], (-1) ** r) for r, i in enumerate(I)),
                        tuple(pairs))
    return faces


def _plans(S: PoissonStructure, twist: "tuple[Terms, ...]",
           backwards: bool = False) -> "dict[tuple[int, ...], Plan]":
    """The plan on m (.) dx_I, for every multi-index I, of the boundary
    whose generator x_i acts by {-, x_i} plus twist[i], or of that boundary
    read backwards; built once per structure and twist, off the face
    tables of ``_faces``.

    Read backwards, the step from dx_J to dx_K is the boundary's step from
    dx_K to dx_J, with the anchor part negated, since {x_i, m} = -{m, x_i};
    the zero twist read backwards is the coboundary.
    """
    tables = S.term_tables()
    key = (twist, backwards)
    if key in tables.plans:
        return tables.plans[key]
    faces = _faces(len(S.vars))
    if backwards:
        steps: dict = {J: [] for J in faces}
        for K, plan in _plans(S, twist).items():
            for J, t, c0, linear in plan:
                steps[J].append((K, t, c0, tuple((a, -c) for a, c in linear)))
        plans = {J: tuple(plan) for J, plan in steps.items()}
    else:
        plans = {}
        for I, (sides, pairs) in faces.items():
            # (J, sign, a or None for c0, terms) per face, then per contraction
            parts = [(rest, sign, a, terms) for i, rest, sign in sides
                     for a, terms in tables.anchor[i] + ((None, twist[i]),)]
            parts += [(*inserted[k], None, terms) for ij, inserted in pairs
                      for k, terms in tables.partials.get(ij, ()) if k in inserted]
            forms: dict = {}  # (J, t) -> {a or None for c0: coefficient}
            for J, sign, a, terms in parts:
                for t, c in terms:
                    form = forms.setdefault((J, t), {})
                    form[a] = form.get(a, 0) + sign * c
            plan = []
            for (J, t), form in forms.items():
                c0 = form.pop(None, 0)
                linear = tuple((a, c) for a, c in form.items() if c)
                if c0 or linear:
                    plan.append((J, t, c0, linear))
            plans[I] = tuple(plan)
    tables.plans[key] = plans
    return plans


def _assemble(S: PoissonStructure, basis: "Callable[..., ChainBasis]", n: int, w: int,
              step: int, twist: "tuple[Terms, ...]", backwards: bool) -> GradedComplexCell:
    """The matrix from the cell (n, w) of ``basis`` to (n + step, w + d - 2)
    of the differential ``_plans(S, twist, backwards)``: each column's plan
    evaluated on its monomial into int rows over the structure denominator.

    A column's key less the rank of its multi-index I is its monomial's
    code, and the step to (J, t) adds the offset code(t) * 2^ell + rank(J)
    to it, which is the target's key whenever the entry is nonzero: a step
    with a negative t_a has t_a = -1 and a form in e_a alone, which
    vanishes at e_a = 0.  The steps of I with their offsets are built when
    a column at I first needs them and kept in ``TermTables.offsets``,
    keyed like the plans, then by rank(I).  The row of a target key is
    read off an index of the target basis built here."""
    tables = S.term_tables()
    src = basis(S, n, w)
    tgt = basis(S, n + step, w + S.weight_shift())
    ell = len(S.vars)
    mask = (1 << ell) - 1
    plans = _plans(S, twist, backwards)
    offsets = tables.offsets.setdefault((twist, backwards), {})
    exponents = tables.exponents
    position = dict(zip(tgt.keys, range(len(tgt))))
    rows: dict[int, dict[int, int]] = {}
    for col, key in enumerate(src.keys):
        r = key & mask
        key -= r
        exps = exponents[key]
        steps = offsets.get(r)
        if steps is None:
            shifts, bits = _layout(ell)
            steps = offsets[r] = tuple(  # mask less J's bits is rank(J)
                (sum(map(lshift, t, shifts)) + mask - sum(map(bits.__getitem__, J)),
                 c0, linear) for J, t, c0, linear in plans[_index(r, bits)])
        for offset, c0, linear in steps:
            v = c0
            for a, c in linear:
                v += c * exps[a]
            if v:
                i = position[key + offset]
                row = rows.get(i)
                if row is None:
                    rows[i] = {col: v}
                else:
                    row[col] = v
    return GradedComplexCell(src, tgt, SparseMatrix(
        len(tgt), len(src), rows, tables.denominator))


def boundary_matrix(S: PoissonStructure, n: int, w: int,
                    coeff: str = "canonical") -> GradedComplexCell:
    """Matrix of the boundary on the chain cell (n, w).

    The target cell sits at (n - 1, w + d - 2); graded structures only.
    """
    return _assemble(S, chain_basis, n, w, -1, _twist(S, coeff), False)


def coboundary_matrix(S: PoissonStructure, n: int, w: int) -> GradedComplexCell:
    """Matrix of the coboundary on the cochain cell (n, w).

    The target cell sits at (n + 1, w + d - 2); graded structures only.
    """
    return _assemble(S, cochain_basis, n, w, 1, _twist(S, "canonical"), True)


def _cell_dims(S: PoissonStructure, coeff: str) -> "Callable[[int, int], int]":
    """The homology dimension, coeff "canonical" or "omega", as a function
    of the cell (n, w): dim ker of the boundary leaving (n, w) minus the
    rank of the one arriving, computed also when it leaves a cell outside
    any window.  Each rank is taken once per structure and twist table and
    kept in ``TermTables.ranks``, its pivot columns in ``TermTables.pivots``.

    The sweep relies on d^2 = 0: ``_check_jacobi`` guarantees it for the
    canonical boundary, and for the omega one since the trace is a Poisson
    vector field; the tests check both plan tables with
    ``plans_square_to_zero``.  When the rank of the boundary d' leaving
    the target cell has been taken, the rows of d at its pivot columns P
    are left out before elimination.  The columns P are a basis of the
    columns of d', so for each p in P some u in the row space of d' is e_p
    on P; u d = 0 then writes row p of d through the rows outside P, and
    the rank is unchanged.  No rank is taken only for its pivots.
    """
    twist = _twist(S, coeff)
    shift = S.weight_shift()
    ell = len(S.vars)
    tables = S.term_tables()
    ranks = tables.ranks.setdefault(twist, {})
    pivots = tables.pivots.setdefault(twist, {})

    def rank(n: int, w: int) -> int:
        """Rank of the boundary leaving (n, w); a map with an empty side
        has rank 0 and is not built."""
        if not (1 <= n <= ell and w >= 0):
            return 0
        key = (n, w)
        if key not in ranks:
            if not (chain_basis(S, n, w) and chain_basis(S, n - 1, w + shift)):
                ranks[key] = 0
            else:
                matrix = boundary_matrix(S, n, w, coeff).matrix
                for row in pivots.get((n - 1, w + shift), ()):
                    matrix.rows.pop(row, None)
                ranks[key] = matrix.rank()
                pivots[key] = matrix.pivots
        return ranks[key]

    def dim(n: int, w: int) -> int:
        return len(chain_basis(S, n, w)) - rank(n, w) - rank(n + 1, w - shift)

    return dim


@dataclass(eq=False)
class _Table(Mapping):
    """The read-only table of dim(n, w) over 0 <= n <= ell and floor <= w
    <= max_weight, each cell computed when read."""

    dim: "Callable[[int, int], int]"
    ell: int
    floor: int
    max_weight: int

    def __getitem__(self, key: "tuple[int, int]") -> int:
        n, w = key
        if not (0 <= n <= self.ell and self.floor <= w <= self.max_weight):
            raise KeyError(key)
        return self.dim(n, w)

    def __iter__(self):
        return ((n, w) for n in range(self.ell + 1)
                for w in range(self.floor, self.max_weight + 1))

    def __len__(self) -> int:
        return (self.ell + 1) * (self.max_weight - self.floor + 1)


def _check_window(max_weight: int, floor: int) -> None:
    """Refuse with ValueError a window that holds no cell."""
    if max_weight < floor:
        raise ValueError(f"max_weight must be at least {floor}, got {max_weight}")


def homology_dims(S: PoissonStructure, coeff: str = "canonical",
                  max_weight: int = 8) -> "dict[tuple[int, int], int]":
    """Homology dimensions per (n, w), 0 <= n <= ell and 0 <= w <= max_weight.
    Refuses an unknown coefficient name, then a structure of no uniform
    degree, then an empty window."""
    dim = _cell_dims(S, coeff)
    _check_window(max_weight, 0)
    return dict(_Table(dim, len(S.vars), 0, max_weight))


def _cohomology(S: PoissonStructure, max_weight: int) -> _Table:
    """The cohomology table over -s <= w <= max_weight, s the sum of the
    weights: each cell (k, v) is the omega homology cell (ell - k, v + s),
    computed when read.  Refuses a structure of no uniform degree, then an
    empty window, and raises ``CertificateFailure`` unless
    ``_duality_certificate`` holds."""
    ell, total = len(S.vars), sum(S.vars.weights)
    dim = _cell_dims(S, "omega")
    _check_window(max_weight, -total)
    if not _duality_certificate(S):
        raise CertificateFailure(
            "duality certificate failed: the omega boundary plans are not "
            "the coboundary's under m dx_I -> (m, I^c)")
    return _Table(lambda k, v: dim(ell - k, v + total), ell, -total, max_weight)


def cohomology_dims(S: PoissonStructure,
                    max_weight: int = 8) -> "dict[tuple[int, int], int]":
    """Cohomology dimensions per (n, w), w from minus the sum of the
    variable weights, read off the omega homology by ``_cohomology``.

    The cells are read with the omega degree ell - n rising, as
    ``homology_dims`` reads its own, so each boundary is ranked after the
    one leaving its target and without the rows that d^2 = 0 makes
    redundant (``_cell_dims``); the dict keeps the table's key order."""
    table = _cohomology(S, max_weight)
    read = {key: table[key] for key in sorted(table, key=lambda key: -key[0])}
    return {key: read[key] for key in table}


def dim_table_tsv(table: "dict[tuple[int, int], int]") -> str:
    """Tab-separated rows n, w, dim under a header, sorted by (n, w)."""
    lines = ["n\tw\tdim"]
    lines.extend(f"{n}\t{w}\t{table[(n, w)]}" for n, w in sorted(table))
    return "\n".join(lines)


def _shuffle_sign(index: "tuple[int, ...]") -> int:
    """Sign of the shuffle that sorts index followed by its complement:
    -1 to the number of pairs i in index, k outside it with k < i."""
    return -1 if (sum(index) - len(index) * (len(index) - 1) // 2) % 2 else 1


class CertificateFailure(AssertionError):
    """The complement image of the omega plan table is not the zero-twist
    table.  The identity holds for every bivector, so this is a fault in
    the code, never a property of the structure."""


def _duality_certificate(S: PoissonStructure) -> bool:
    """True when m (.) dx_I -> (m, I^c) carries the omega boundary onto the
    coboundary, up to sign, at every weight at once: when the complement
    image of the omega plan table equals the zero-twist table.

    The image of a step I -> J is the step J^c -> I^c with the same t,
    constant sigma * c0 and anchor part -sigma * linear, sigma = (-1)^|I|
    eps(I) eps(J) with eps ``_shuffle_sign``; indices with no steps are
    left out.  A plan has at most one step per (J, t), so no other step
    can hide.  The coboundary is the zero-twist table read backwards, so
    each coboundary cell (ell - n, w - s) is the omega boundary cell (n, w)
    with rows and columns signed, s the sum of the weights.

    The complement and the sign of each index are taken once per call,
    not kept per ell, so the check reads ``_shuffle_sign`` each time it
    runs and a fault put into it shows.
    """
    ell = len(S.vars)
    omega = _plans(S, _twist(S, "omega"))
    complement = {I: tuple(i for i in range(ell) if i not in I) for I in omega}
    eps = {I: _shuffle_sign(I) for I in omega}
    image: dict = {}
    for I, plan in omega.items():
        sign_I = (-1) ** len(I) * eps[I]
        for J, t, c0, linear in plan:
            sigma = sign_I * eps[J]
            image.setdefault(complement[J], {})[(complement[I], t)] = (
                sigma * c0, {a: -sigma * c for a, c in linear})
    return image == {K: {(J, t): (c0, dict(linear)) for J, t, c0, linear in plan}
                     for K, plan in _plans(S, _twist(S, "canonical")).items() if plan}


@dataclass
class DualityReport:
    """Cell-by-cell comparison of twisted homology with cohomology.

    ``cells`` holds rows (n, w, twisted dim, cohomology dim at
    (ell - n, w - expected_shift), match); ``fitting_shifts`` lists every
    uniform shift that makes all cells agree, and ``passed`` says whether
    the expected shift is among them.  ``cohomology`` is the read-only
    table that ``cohomology_dims`` copies, each cell (k, v) read off the
    twisted cell (ell - k, v + expected_shift) when it is read.  On
    unimodular structures the canonical homology table is the twisted one,
    since every trace vanishes, so the omega twist table is the zero one
    and both names assemble from one plan table.
    """

    ell: int
    max_weight: int
    expected_shift: int
    fitting_shifts: "tuple[int, ...]"
    twisted: "dict[tuple[int, int], int]"
    cohomology: "Mapping[tuple[int, int], int]"
    unimodular: bool
    cells: "list[tuple[int, int, int, int, bool]]"
    passed: bool

    def render_text(self) -> str:
        lines = [
            f"duality window: 0 <= n <= {self.ell}, 0 <= w <= {self.max_weight}",
            f"expected shift: {self.expected_shift}"
            + f"; fitting shifts: {', '.join(map(str, self.fitting_shifts)) or 'none'}",
        ]
        lines.append("unimodular: yes (canonical homology equals twisted: yes)"
                     if self.unimodular else "unimodular: no")
        header = f"{'n':>3} {'w':>3} {'twisted':>8} {'cohom':>6}  ok"
        lines.append(header)
        for n, w, t, c, ok in self.cells:
            lines.append(f"{n:>3} {w:>3} {t:>8} {c:>6}  {'yes' if ok else 'NO'}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def render_tsv(self) -> str:
        rows = [
            f"{n}\t{w}\t{t}\t{c}\t{'ok' if ok else 'mismatch'}"
            for n, w, t, c, ok in self.cells
        ]
        return "\n".join(rows)


def duality_report(S: PoissonStructure, max_weight: int = 8) -> DualityReport:
    """Check dim HP_n(twisted)_w == dim HP^{ell-n}_{w-s} over a weight window.

    The expected shift s is the sum of the variable weights.  All shifts in
    0..s are tried, and the report fails rather than ever papering over a
    mismatch; ``fitting_shifts`` is empty when nothing fits.  A max_weight
    below 0 leaves no cell and is refused with ValueError, and then a
    structure of no uniform degree with NonHomogeneousError, before any
    count.  The cohomology is ``_cohomology``'s table, so a failed
    ``_duality_certificate`` raises ``CertificateFailure``.

    A shift is first tested by counts alone.  A strand, the chain cells
    (n, c - n * d') for n = 0..ell with d' the weight shift, is a finite
    subcomplex, and so are the cochain cells (ell - n, c - n * d' - t) it
    pairs with at a shift t, so the Euler characteristic of each side is
    that of its cell sizes (``_count``); the cochain side has the sizes
    of the chain strand c + s - t.  At a fitting shift the two agree
    on every strand whose cells each lie in the window or are empty on
    both sides; where they differ, the shift is refuted exactly, and no
    cell is read.  Both sums vanish on every strand when a generator has
    weight -d', and then no shift is tested.
    A shift that survives is compared cell by cell, the pairs inside the
    window first, so it reaches above the window only once every pair
    inside agrees.

    A structure is unimodular when every generator trace vanishes.  The
    omega twist table is the traces and the canonical one is zero, so
    then both boundaries are read off one plan table, and the canonical
    homology table is the twisted one; no second sweep is run.
    """
    _check_window(max_weight, 0)
    ell = len(S.vars)
    expected = sum(S.vars.weights)
    twisted = homology_dims(S, "omega", max_weight)
    cohomology = _cohomology(S, max_weight)

    def fits(s: int) -> bool:
        # the pairs whose cohomology cell lies above the window come last
        pairs = sorted(twisted, key=lambda p: p[1] + expected - s > max_weight)
        return all(twisted[(n, w)] == cohomology[(ell - n, w - s)]
                   for n, w in pairs)

    shift = S.weight_shift()

    @lru_cache(maxsize=None)
    def strand(c: int) -> "tuple[int, ...]":
        # the sizes of the chain cells (n, c - n * shift), n = 0..ell
        return tuple(_count(S, n, c - n * shift) for n in range(ell + 1))

    def refuted(s: int) -> bool:
        # the chain strand c pairs with the cochain cells of the chain
        # strand c + expected - s; only a strand that reaches the window
        # can refute.  When a generator has weight -shift, adding it to or
        # taking it from the multi-index cancels each strand's alternating
        # sum in pairs, so then none can
        if not all(w + shift for w in S.vars.weights):
            return False
        for c in range(min(0, ell * shift), max_weight + max(0, ell * shift) + 1):
            pairs = list(enumerate(zip(strand(c), strand(c + expected - s))))
            if (all(0 <= c - n * shift <= max_weight or a == b == 0
                    for n, (a, b) in pairs)
                    and sum((-1) ** n * (a - b) for n, (a, b) in pairs)):
                return True
        return False

    fitting = tuple(s for s in range(expected + 1) if not refuted(s) and fits(s))
    cells = [
        (n, w, twisted[(n, w)], cohomology[(ell - n, w - expected)],
         twisted[(n, w)] == cohomology[(ell - n, w - expected)])
        for n, w in twisted
    ]
    return DualityReport(
        ell=ell,
        max_weight=max_weight,
        expected_shift=expected,
        fitting_shifts=fitting,
        twisted=twisted,
        cohomology=cohomology,
        unimodular=S.modular_data().unimodular,
        cells=cells,
        passed=expected in fitting,
    )
