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
linear form in the column's exponents for each target.  The same
differentials on polynomials, applied column by column, are the test
oracles in ``tests/_oracles.py``; nothing here calls them.
A boundary is keyed by its twist table, the terms added to each
generator's action (``_twist``): zero for "canonical" and the traces for
"omega", so a unimodular structure has one table for both.  The
coboundary's table is the zero twist's read backwards.  One small kernel,
``_assemble``, evaluates a plan table on the exponent tuple of each column
into int rows and hands them to ``SparseMatrix`` as they are, over D.  One
sweep, ``_dims``, takes homology and cohomology tables alike, and each rank
is taken once per structure and differential.

``duality_report`` decides duality on the plan tables, for every weight at
once: ``_duality_certificate`` checks that m (.) dx_I -> (m, I^c) carries
the omega boundary's steps onto the coboundary's, up to sign.  When it
holds, the cohomology table is the twisted homology table moved by the sum
of the weights, so the report runs one twisted sweep over the window and
its ``cohomology`` table computes each cell when it is read, above the
window only when a shift's comparison reaches that far.  When it fails,
the cohomology is swept on its own and the verdict is FAIL.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations
from operator import add

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
    "DualityReport",
    "ShiftNotFound",
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
    """Ordered basis of one graded cell.

    Elements are (exponent tuple, multi-index) pairs sorted by monomial then
    multi-index, so matrix layouts are reproducible run to run.
    """

    __slots__ = ("n", "w", "elements", "_position")

    def __init__(self, n: int, w: int, elements: "tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]"):
        self.n = n
        self.w = w
        self.elements = elements
        self._position = {el: k for k, el in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def position(self, exps: "tuple[int, ...]", index: "tuple[int, ...]") -> int:
        try:
            return self._position[(exps, index)]
        except KeyError:
            raise KeyError(
                f"({exps}, {index}) is not a basis element of cell (n={self.n}, w={self.w})"
            ) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainBasis):
            return NotImplemented
        return (self.n, self.w, self.elements) == (other.n, other.w, other.elements)

    def __repr__(self) -> str:
        return f"<ChainBasis n={self.n} w={self.w} dim={len(self.elements)}>"


def _basis(S: PoissonStructure, n: int, w: int, sign: int) -> ChainBasis:
    """Basis of the cell (n, w) whose elements m (.) dx_I have deg(m) =
    w + sign * (the weights of I); sign is -1 for chains, +1 for cochains.
    Built once per structure and kept in ``TermTables.bases``."""
    bases = S.term_tables().bases
    key = (sign, n, w)
    if key not in bases:
        vt = S.vars
        elements = []
        if 0 <= n <= len(vt):
            monomials: dict[int, list] = {}
            for index in combinations(range(len(vt)), n):
                deg = w + sign * sum(vt.weights[i] for i in index)
                if deg not in monomials:
                    monomials[deg] = monomials_of_weight(vt, deg)
                elements.extend((exps, index) for exps in monomials[deg])
        elements.sort()
        bases[key] = ChainBasis(n, w, tuple(elements))
    return bases[key]


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
# zero-twist boundary's read backwards.

Plan = "tuple[tuple[tuple[int, ...], tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]"


def _plans(S: PoissonStructure, twist: "tuple[Terms, ...]",
           backwards: bool = False) -> "dict[tuple[int, ...], Plan]":
    """The plan on m (.) dx_I, for every multi-index I, of the boundary
    whose generator x_i acts by {-, x_i} plus twist[i], or of that boundary
    read backwards; built once per structure and twist.

    Read backwards, the step from dx_J to dx_K is the boundary's step from
    dx_K to dx_J, with the anchor part negated, since {x_i, m} = -{m, x_i};
    the zero twist read backwards is the coboundary.
    """
    tables = S.term_tables()
    key = (twist, backwards)
    if key in tables.plans:
        return tables.plans[key]
    ell = len(S.vars)
    indices = [I for n in range(ell + 1) for I in combinations(range(ell), n)]
    if backwards:
        steps: dict = {J: [] for J in indices}
        for K, plan in _plans(S, twist).items():
            for J, t, c0, linear in plan:
                steps[J].append((K, t, c0, tuple((a, -c) for a, c in linear)))
        plans = {J: tuple(plan) for J, plan in steps.items()}
    else:
        plans = {}
        for I in indices:
            forms: dict = {}  # (J, t) -> {a or None for c0: coefficient}

            def step(J: "tuple[int, ...]", a: "int | None", terms, sign: int) -> None:
                for t, c in terms:
                    form = forms.setdefault((J, t), {})
                    form[a] = form.get(a, 0) + sign * c

            for r, i in enumerate(I):
                rest = I[:r] + I[r + 1 :]
                sign = 1 if r % 2 == 0 else -1
                for a, terms in tables.anchor[i]:
                    step(rest, a, terms, sign)
                step(rest, None, twist[i], sign)
            for p in range(len(I)):
                for q in range(p + 1, len(I)):
                    rest = I[:p] + I[p + 1 : q] + I[q + 1 :]
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
    tables.plans[key] = plans
    return plans


def _assemble(S: PoissonStructure, src: ChainBasis, tgt: ChainBasis,
              plans: "dict[tuple[int, ...], Plan]") -> GradedComplexCell:
    """Evaluate each column's plan on its monomial into int rows over the
    structure denominator."""
    position = tgt._position
    rows: dict[int, dict[int, int]] = {}
    for col, (exps, index) in enumerate(src.elements):
        for J, t, c0, linear in plans[index]:
            v = c0
            for a, c in linear:
                v += c * exps[a]
            if v:
                r = position[(tuple(map(add, exps, t)), J)]
                row = rows.get(r)
                if row is None:
                    rows[r] = {col: v}
                else:
                    row[col] = v
    return GradedComplexCell(src, tgt, SparseMatrix.from_int_rows(
        len(tgt), len(src), rows, S.term_tables().denominator))


def boundary_matrix(S: PoissonStructure, n: int, w: int,
                    coeff: str = "canonical") -> GradedComplexCell:
    """Matrix of the boundary on the chain cell (n, w).

    The target cell sits at (n - 1, w + d - 2); graded structures only.
    """
    twist = _twist(S, coeff)
    shift = S.weight_shift()
    src = chain_basis(S, n, w)
    tgt = chain_basis(S, n - 1, w + shift)
    return _assemble(S, src, tgt, _plans(S, twist))


def coboundary_matrix(S: PoissonStructure, n: int, w: int) -> GradedComplexCell:
    """Matrix of the coboundary on the cochain cell (n, w).

    The target cell sits at (n + 1, w + d - 2); graded structures only.
    """
    shift = S.weight_shift()
    src = cochain_basis(S, n, w)
    tgt = cochain_basis(S, n + 1, w + shift)
    return _assemble(S, src, tgt, _plans(S, _twist(S, "canonical"), backwards=True))


def _cell_dims(S: PoissonStructure, coeff: "str | None"):
    """The homology (coeff "canonical" or "omega") or cohomology (coeff
    None) dimension as a function of the cell (n, w), and the lowest weight
    of any cell: dim ker of the differential leaving (n, w) minus the rank
    of the one arriving, computed also when it leaves a cell outside any
    window.  Each rank is taken once per structure and differential and
    kept in ``TermTables.ranks``.
    """
    twist = _twist(S, "canonical" if coeff is None else coeff)
    shift = S.weight_shift()
    ell = len(S.vars)
    if coeff is None:
        step, floor, basis = 1, -sum(S.vars.weights), cochain_basis
    else:
        step, floor, basis = -1, 0, chain_basis
    ranks = S.term_tables().ranks.setdefault((twist, coeff is None), {})

    def rank(n: int, w: int) -> int:
        """Rank of the differential leaving (n, w); a map with an empty
        side has rank 0 and is not built."""
        if not (0 <= n <= ell and 0 <= n + step <= ell and w >= floor):
            return 0
        key = (n, w)
        if key not in ranks:
            if not (basis(S, n, w) and basis(S, n + step, w + shift)):
                ranks[key] = 0
            else:
                ranks[key] = (coboundary_matrix(S, n, w) if coeff is None
                              else boundary_matrix(S, n, w, coeff)).matrix.rank()
        return ranks[key]

    def dim(n: int, w: int) -> int:
        return len(basis(S, n, w)) - rank(n, w) - rank(n - step, w - shift)

    return dim, floor


def _dims(S: PoissonStructure, coeff: "str | None", max_weight: int,
          max_degree: "int | None" = None) -> "dict[tuple[int, int], int]":
    """Homology (coeff "canonical" or "omega") or cohomology (coeff None)
    dimensions per (n, w), w from the lowest weight of any cell.  A
    window that holds no cell is refused with ValueError, after an unknown
    coefficient name."""
    dim, floor = _cell_dims(S, coeff)
    if max_weight < floor:
        raise ValueError(f"max_weight must be at least {floor}, got {max_weight}")
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    return {(n, w): dim(n, w)
            for n in range((len(S.vars) if max_degree is None else max_degree) + 1)
            for w in range(floor, max_weight + 1)}


def homology_dims(S: PoissonStructure, coeff: str = "canonical",
                  max_weight: int = 8,
                  max_degree: "int | None" = None) -> "dict[tuple[int, int], int]":
    """Homology dimensions per (n, w) over 0 <= w <= max_weight."""
    return _dims(S, coeff, max_weight, max_degree=max_degree)


def cohomology_dims(S: PoissonStructure, max_weight: int = 8,
                    max_degree: "int | None" = None) -> "dict[tuple[int, int], int]":
    """Cohomology dimensions per (n, w).

    The window starts at minus the sum of the variable weights, the lowest
    weight any cochain can carry.
    """
    return _dims(S, None, max_weight, max_degree)


def dim_table_tsv(table: "dict[tuple[int, int], int]") -> str:
    """Tab-separated rows n, w, dim under a header, sorted by (n, w)."""
    lines = ["n\tw\tdim"]
    lines.extend(f"{n}\t{w}\t{table[(n, w)]}" for n, w in sorted(table))
    return "\n".join(lines)


def _shuffle_sign(index: "tuple[int, ...]") -> int:
    """Sign of the shuffle that sorts index followed by its complement:
    -1 to the number of pairs i in index, k outside it with k < i."""
    return -1 if (sum(index) - len(index) * (len(index) - 1) // 2) % 2 else 1


def _duality_certificate(S: PoissonStructure) -> bool:
    """True when m (.) dx_I -> (m, I^c) carries the omega boundary onto the
    coboundary, up to sign, at every weight at once.

    For every step I -> J of the omega plan table, the zero-twist table
    must hold the step J^c -> I^c with the same t, constant sigma * c0 and
    anchor part -sigma * linear, where sigma = (-1)^|I| eps(I) eps(J) and
    eps is ``_shuffle_sign``, and no other step.  The coboundary is the
    zero-twist table read backwards, so that makes each coboundary cell
    (ell - n, w - s) the omega boundary cell (n, w) with rows and columns
    signed, s the sum of the weights.
    """
    ell = len(S.vars)

    def complement(index: "tuple[int, ...]") -> "tuple[int, ...]":
        return tuple(i for i in range(ell) if i not in index)

    boundary = {K: {(J, t): (c0, dict(linear)) for J, t, c0, linear in plan}
                for K, plan in _plans(S, _twist(S, "canonical")).items()}
    steps = 0
    for I, plan in _plans(S, _twist(S, "omega")).items():
        target = complement(I)
        sign_I = (-1) ** len(I) * _shuffle_sign(I)
        for J, t, c0, linear in plan:
            sigma = sign_I * _shuffle_sign(J)
            if boundary[complement(J)].get((target, t)) != (
                    sigma * c0, {a: -sigma * c for a, c in linear}):
                return False
            steps += 1
    return steps == sum(map(len, boundary.values()))


class _Dual(Mapping):
    """The cohomology table read off the twisted cells: (k, v), for
    0 <= k <= ell and -s <= v <= max_weight, holds the twisted homology at
    (ell - k, v + s), computed when read."""

    def __init__(self, dim, ell: int, s: int, max_weight: int):
        self._dim = dim
        self._ell = ell
        self._s = s
        self._max_weight = max_weight

    def __getitem__(self, key: "tuple[int, int]") -> int:
        k, v = key
        if not (0 <= k <= self._ell and -self._s <= v <= self._max_weight):
            raise KeyError(key)
        return self._dim(self._ell - k, v + self._s)

    def __iter__(self):
        return ((k, v) for k in range(self._ell + 1)
                for v in range(-self._s, self._max_weight + 1))

    def __len__(self) -> int:
        return (self._ell + 1) * (self._max_weight + self._s + 1)


@dataclass
class DualityReport:
    """Cell-by-cell comparison of twisted homology with cohomology.

    ``cells`` holds rows (n, w, twisted dim, cohomology dim at
    (ell - n, w - expected_shift), match); ``fitting_shifts`` lists every
    uniform shift that makes all cells agree.  ``certified`` says whether
    the duality certificate held on the plan tables; ``cohomology`` is a
    read-only table with the keys of ``cohomology_dims``, whose values are
    computed when read when it did.  On unimodular structures the
    canonical homology table is the twisted one, since every trace
    vanishes, so the omega twist table is the zero one and both names
    assemble from one plan table.
    """

    ell: int
    max_weight: int
    expected_shift: int
    fitting_shifts: "tuple[int, ...]"
    twisted: "dict[tuple[int, int], int]"
    cohomology: "Mapping[tuple[int, int], int]"
    unimodular: bool
    cells: "list[tuple[int, int, int, int, bool]]"
    certified: bool
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
        if not self.certified:
            lines.append("certificate: FAIL (the omega boundary plans are not "
                         "the coboundary's under m dx_I -> (m, I^c))")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def render_tsv(self) -> str:
        rows = [
            f"{n}\t{w}\t{t}\t{c}\t{'ok' if ok else 'mismatch'}"
            for n, w, t, c, ok in self.cells
        ]
        return "\n".join(rows)


class ShiftNotFound(ValueError):
    """No uniform weight shift aligns twisted homology with cohomology."""

    def __init__(self, report: DualityReport):
        super().__init__(
            "no uniform weight shift aligns the twisted homology table with "
            "the cohomology table; see the attached report"
        )
        self.report = report


def duality_report(S: PoissonStructure, max_weight: int = 8) -> DualityReport:
    """Check dim HP_n(twisted)_w == dim HP^{ell-n}_{w-s} over a weight window.

    The expected shift s is the sum of the variable weights.  All shifts in
    0..s are tried; the report fails (or raises ShiftNotFound when nothing
    fits) rather than ever papering over a mismatch.  A max_weight below 0
    leaves no cell and is refused with ValueError.

    The verdict needs ``_duality_certificate`` to hold; then each
    cohomology cell (k, v) is read off the twisted cell (ell - k, v + s),
    and a shift's comparison reaches above the window only once every pair
    inside it agrees.  Otherwise the cohomology is swept on its own.

    A structure is unimodular when every generator trace vanishes.  The
    omega twist table is the traces and the canonical one is zero, so
    then both boundaries are read off one plan table, and the canonical
    homology table is the twisted one; no second sweep is run.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be at least 0, got {max_weight}")
    ell = len(S.vars)
    expected = sum(S.vars.weights)
    twisted = homology_dims(S, "omega", max_weight)
    certified = _duality_certificate(S)
    if certified:
        cohomology: Mapping = _Dual(_cell_dims(S, "omega")[0], ell, expected,
                                    max_weight)
    else:
        cohomology = cohomology_dims(S, max_weight=max_weight)

    def fits(s: int) -> bool:
        # the pairs whose cohomology cell lies above the window come last
        pairs = sorted(((n, w) for n in range(ell + 1)
                        for w in range(max_weight + 1)),
                       key=lambda p: p[1] + expected - s > max_weight)
        return all(twisted[(n, w)] == cohomology[(ell - n, w - s)]
                   for n, w in pairs)

    fitting = tuple(s for s in range(expected + 1) if fits(s))
    cells = [
        (n, w, twisted[(n, w)], cohomology[(ell - n, w - expected)],
         twisted[(n, w)] == cohomology[(ell - n, w - expected)])
        for n in range(ell + 1)
        for w in range(max_weight + 1)
    ]
    report = DualityReport(
        ell=ell,
        max_weight=max_weight,
        expected_shift=expected,
        fitting_shifts=fitting,
        twisted=twisted,
        cohomology=cohomology,
        unimodular=S.modular_data().unimodular,
        cells=cells,
        certified=certified,
        passed=certified and expected in fitting,
    )
    if not fitting:
        raise ShiftNotFound(report)
    return report
