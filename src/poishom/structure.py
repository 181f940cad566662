"""Poisson structures on weighted polynomial algebras.

A structure is determined by the brackets of the generators; the bracket of
arbitrary polynomials extends as a biderivation,

    {f, g} = sum_{i,j} (df/dx_i)(dg/dx_j) {x_i, x_j}.

On top of that this module builds the Lie bracket on Kaehler one-forms,
the divergence-style traces of the generators, which detect
unimodularity, and the trace-twisted right action on the algebra that the
dualizing module carries.  The anchor of a one-form and the trace of an
arbitrary polynomial are computed only by the tests, as Polynomial-level
oracles in ``tests/_oracles.py``.

Everything that reads the generator brackets reads them through one store,
``PoissonStructure.term_tables()``, built when the structure is
constructed, since the Jacobi check in ``__init__`` reads it, and kept on
the structure.  It fixes one denominator D, the lcm of the denominators of
the generator brackets (1 on an integral structure), and holds, as exponent
terms with int coefficients times D, the generator brackets themselves,
the anchor table {x_a, x_i} / x_a, the partials d{x_i, x_j}/dx_k and the
generator traces read off those partials.  All of it is built in ints
from the int terms of D * {x_i, x_j}, one tuple per stored entry: the
anchor rows by lowering one exponent, the partials by differentiating,
and the traces by summing partials.

One integer term kernel reads those tables: ``int_terms`` turns a
polynomial into (L, int terms of L * f), ``_polynomial`` turns them
back, ``polycore._times`` multiplies two int term tuples into a term
dict, and ``anchor_action`` gives D * {f, x_j} off one anchor row.  ``bracket`` computes
{f, g} = sum_j (dg/dx_j) {f, x_j} with them in ints and divides once, and
``omega_h_action`` and ``lr_bracket`` go through it.  The Jacobi check
sums D^2 times the jacobiator of each generator triple with
``anchor_action`` on the entry terms and builds a Polynomial only to
report a violation.  The PBW rules in ``envelope`` use the same kernel,
and ``complexes`` builds its assembly plans from the terms and keeps them
in the same store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add
from typing import Mapping

from .polycore import (
    Polynomial,
    VarTable,
    _plus,
    _times,
    homogeneous_weight,
    partial_derivative,
)

__all__ = [
    "JacobiViolation",
    "NonHomogeneousError",
    "OneForm",
    "basis_form",
    "differential",
    "ModularData",
    "PoissonStructure",
]


class JacobiViolation(ValueError):
    """The given brackets do not satisfy the Jacobi identity.

    Carries the offending generator triple and the jacobiator polynomial.
    """

    def __init__(self, i: int, j: int, k: int, jacobiator: Polynomial):
        names = jacobiator.vars.names
        super().__init__(
            f"jacobi identity fails on ({names[i]}, {names[j]}, {names[k]}): "
            f"jacobiator = {jacobiator}"
        )
        self.triple = (i, j, k)
        self.jacobiator = jacobiator


class NonHomogeneousError(ValueError):
    """A graded operation was asked of a structure without a uniform degree."""


@dataclass(frozen=True)
class OneForm:
    """A Kaehler one-form sum_i coeffs[i] * d(x_i)."""

    vars: VarTable
    coeffs: "tuple[Polynomial, ...]"

    def __post_init__(self):
        if len(self.coeffs) != len(self.vars):
            raise ValueError("need one coefficient per variable")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "OneForm") -> "OneForm":
        if not isinstance(other, OneForm):
            return NotImplemented
        return OneForm(self.vars, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, other) -> "OneForm":
        # module action of A (and of scalars) on forms
        if isinstance(other, (int, Fraction, Polynomial)):
            return OneForm(self.vars, tuple(other * a for a in self.coeffs))
        return NotImplemented

    __mul__ = __rmul__


def _check_index(vars: VarTable, i: int) -> None:
    if not 0 <= i < len(vars):
        raise IndexError(f"variable index {i} out of range")


def basis_form(vars: VarTable, i: int) -> OneForm:
    """The basis form d(x_i)."""
    _check_index(vars, i)
    one, zero = vars.one(), vars.zero()
    return OneForm(vars, tuple(one if j == i else zero for j in range(len(vars))))


def differential(f: Polynomial) -> OneForm:
    """d(f) = sum_i (df/dx_i) d(x_i)."""
    vt = f.vars
    return OneForm(vt, tuple(partial_derivative(f, i) for i in range(len(vt))))


@dataclass(frozen=True)
class ModularData:
    """Traces of the generators; all zero exactly for unimodular structures."""

    traces: "tuple[Polynomial, ...]"
    unimodular: bool


Terms = "tuple[tuple[tuple[int, ...], int], ...]"


def _terms(f: Polynomial, scale: int = 1) -> Terms:
    """Terms of scale * f as (exponents, int) pairs; ``scale`` must clear
    every denominator of f."""
    return tuple((e, c.numerator * (scale // c.denominator))
                 for e, c in f.terms.items())


def _lowered(f: Terms, k: int) -> Terms:
    """f / x_k: the terms with the exponent of x_k reduced by one (it may
    become -1)."""
    return tuple((e[:k] + (e[k] - 1,) + e[k + 1:], c) for e, c in f)


def _derivative(f: Terms, k: int) -> Terms:
    """df/dx_k of int terms."""
    return tuple((e[:k] + (e[k] - 1,) + e[k + 1:], c * e[k]) for e, c in f if e[k])


def int_terms(f: Polynomial) -> "tuple[int, Terms]":
    """(L, terms of L * f), with L the lcm of the denominators of f."""
    scale = lcm(*(c.denominator for c in f.terms.values()))
    return scale, _terms(f, scale)


def _polynomial(vt: VarTable, terms, scale: int) -> Polynomial:
    """f, from the int (exponents, coefficient) pairs of scale * f; the
    inverse of ``int_terms``."""
    return Polynomial(vt, {e: Fraction(c, scale) for e, c in terms})


def anchor_action(row: "tuple[tuple[int, Terms], ...]", f: Terms) -> Terms:
    """D * {f, x_j} for int terms f, off the anchor row ``anchor[j]`` of the
    term tables: D * {x^e, x_j} = sum_a e_a * x^e * (D * {x_a, x_j} / x_a).
    """
    out: dict = {}
    for e, c in f:
        for a, terms in row:
            ea = e[a]
            if not ea:
                continue
            scale = c * ea
            for t, tc in terms:
                key = tuple(map(add, e, t))
                out[key] = out.get(key, 0) + scale * tc
    return tuple((e, c) for e, c in out.items() if c)


def _pair(entries: "dict[tuple[int, int], Terms]", i: int, j: int) -> Terms:
    """The terms of D * {x_i, x_j} for any index pair, off the entry terms."""
    if i < j:
        return entries.get((i, j), ())
    return tuple((e, -c) for e, c in entries.get((j, i), ()))


@dataclass(frozen=True)
class TermTables:
    """The bracket data of a structure, built in ints from the int terms of
    D * {x_i, x_j}.

    * ``denominator`` is D, the lcm of the denominators of the generator
      brackets' coefficients (1 on an integral structure);
    * ``entries[(i, j)]`` (i < j) holds the terms of D * {x_i, x_j}, one
      tuple per stored entry; every other field is read off these;
    * ``anchor[i]`` lists (a, terms of D * {x_a, x_i} / x_a), so that for a
      monomial m = x^e, D * {m, x_i} = sum_a e_a * x^e * (those terms);
    * ``partials[(i, j)]`` (i < j) lists (k, terms of D * d{x_i, x_j}/dx_k);
    * ``generator_traces[i]`` is trace(x_i) = sum_k d{x_i, x_k}/dx_k, and
      ``traces[i]`` holds the terms of D * trace(x_i);
    * ``plans`` starts empty; ``complexes`` keeps there the assembly plans
      it builds from the tables above, one whole table per differential,
      so each is built once per structure.  It is keyed by (twist table,
      read backwards), then by multi-index: a twist table holds per
      generator the terms added to its action, none for the canonical
      boundary and ``traces`` for the omega one, so a unimodular structure
      has one table for both, and the coboundary is the zero twist read
      backwards;
    * ``bases`` likewise keeps each cell basis ``complexes`` enumerates,
      keyed by (sign -1 for chains or +1 for cochains, n, w);
    * ``ranks`` keeps the rank of each boundary ``complexes`` has taken,
      keyed by its twist table, then by the cell (n, w) it leaves, and
      ``pivots`` the pivot columns that rank left, keyed the same way.

    Every coefficient in ``entries``, ``anchor``, ``partials`` and
    ``traces`` is an int.  Only nonzero polynomials are listed, and pairs
    with a zero bracket have no ``entries`` or ``partials`` key.
    """

    denominator: int
    entries: "dict[tuple[int, int], Terms]"
    anchor: "tuple[tuple[tuple[int, Terms], ...], ...]"
    partials: "dict[tuple[int, int], tuple[tuple[int, Terms], ...]]"
    generator_traces: "tuple[Polynomial, ...]"
    traces: "tuple[Terms, ...]"
    plans: dict = field(default_factory=dict, compare=False)
    bases: dict = field(default_factory=dict, compare=False)
    ranks: dict = field(default_factory=dict, compare=False)
    pivots: dict = field(default_factory=dict, compare=False)


class PoissonStructure:
    """A validated Poisson bracket on a weighted polynomial algebra.

    Construction normalizes the generator brackets to keys (i, j) with
    i < j, checks the Jacobi identity on generator triples (enough, since
    the jacobiator of a biderivation extension is a derivation in each
    slot), and detects whether the bracket is weighted-homogeneous.

    ``homogeneity_degree`` is the integer d with deg {x_i, x_j} =
    w_i + w_j + d - 2 for every nonzero entry, so the bracket shifts
    weights by d - 2.  It is None when no single d fits; a zero bracket
    gets d = 2 so that the shift vanishes.  Instances are immutable.
    """

    def __init__(self, vars: VarTable,
                 entries: "Mapping[tuple[int, int], Polynomial]"):
        self.vars = vars
        normalized: dict[tuple[int, int], Polynomial] = {}
        for (i, j), poly in entries.items():
            if not (0 <= i < len(vars) and 0 <= j < len(vars)):
                raise IndexError(f"bracket key ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"bracket of a variable with itself: index {i}")
            if poly.vars != vars:
                raise ValueError("bracket entry over a different variable table")
            if poly.is_zero():
                continue
            key, value = ((i, j), poly) if i < j else ((j, i), -poly)
            if key in normalized:
                raise ValueError(
                    f"bracket for pair {vars.names[key[0]]},{vars.names[key[1]]} given twice"
                )
            normalized[key] = value
        self.entries = normalized
        self.gens = vars.gens()
        self._tables: "TermTables | None" = None
        self.homogeneity_degree = self._detect_degree()
        self._check_jacobi()

    # -- construction helpers --------------------------------------------

    def _detect_degree(self) -> "int | None":
        weights = self.vars.weights
        candidates: set[int] = set()
        for (i, j), poly in self.entries.items():
            w = homogeneous_weight(poly)
            if w is None:
                return None
            candidates.add(w - weights[i] - weights[j] + 2)
        if not candidates:
            return 2  # zero bracket: homogeneous of every degree, pick no shift
        if len(candidates) == 1:
            return candidates.pop()
        return None

    def _check_jacobi(self) -> None:
        """Check D^2 * sum_cyclic {{x_j, x_k}, x_i} = 0 on int terms, off the
        entry terms and the anchor table; a violation carries the
        jacobiator, minus that sum over D^2."""
        tables = self.term_tables()
        d = tables.denominator
        for a, b, c in combinations(range(len(self.vars)), 3):
            out: dict = {}
            for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                pair = _pair(tables.entries, j, k)
                for e, v in anchor_action(tables.anchor[i], pair):
                    out[e] = out.get(e, 0) + v
            if any(out.values()):
                raise JacobiViolation(
                    a, b, c, -_polynomial(self.vars, out.items(), d * d))

    # -- basic bracket data ------------------------------------------------

    def entry(self, i: int, j: int) -> Polynomial:
        """{x_i, x_j} for any index pair."""
        if i == j:
            return self.vars.zero()
        if i < j:
            return self.entries.get((i, j), self.vars.zero())
        return -self.entries.get((j, i), self.vars.zero())

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = sum_j (dg/dx_j) {f, x_j}, in ints off the anchor table.

        With L_f and L_g the lcms of the denominators of f and g,
        ``anchor_action`` gives D * L_f * {f, x_j} and the int partials of
        L_g * g carry L_g, so the sum is divided once by D * L_f * L_g.
        """
        if f.vars != self.vars or g.vars != self.vars:
            raise ValueError("operands over a different variable table")
        tables = self.term_tables()
        lf, f_terms = int_terms(f)
        lg, g_terms = int_terms(g)
        out: dict = {}
        for j, row in enumerate(tables.anchor):
            dg = _derivative(g_terms, j)
            if not (row and dg):
                continue
            _plus(out, _times(dg, anchor_action(row, f_terms)))
        return _polynomial(self.vars, out.items(), tables.denominator * lf * lg)

    # -- one-forms: Lie bracket and anchor ----------------------------------

    def lr_bracket(self, a: OneForm, b: OneForm) -> OneForm:
        """Lie bracket of one-forms.

        Determined by [f dg, h dk] = fh d{g,k} + f{g,h} dk - h{k,f} dg,
        expanded over the coordinate forms.
        """
        if a.vars != self.vars or b.vars != self.vars:
            raise ValueError("forms over a different variable table")
        n = len(self.vars)
        xs = self.gens
        out = [self.vars.zero() for _ in range(n)]
        for i in range(n):
            ai = a.coeffs[i]
            if ai.is_zero():
                continue
            for j in range(n):
                bj = b.coeffs[j]
                if bj.is_zero():
                    continue
                pair = self.entry(i, j)
                if pair:
                    ab = ai * bj
                    for k, dk in enumerate(differential(pair).coeffs):
                        if dk:
                            out[k] = out[k] + ab * dk
                adv = self.bracket(xs[i], bj)
                if adv:
                    out[j] = out[j] + ai * adv
                bdv = self.bracket(xs[j], ai)
                if bdv:
                    out[i] = out[i] - bj * bdv
        return OneForm(self.vars, tuple(out))

    # -- traces and the twisted action ---------------------------------------

    def modular_data(self) -> ModularData:
        traces = self.term_tables().generator_traces
        return ModularData(traces, all(t.is_zero() for t in traces))

    def term_tables(self) -> TermTables:
        """Exponent-tuple tables of the brackets, their partials and traces.

        Built by the Jacobi check in ``__init__`` and kept, in ints from
        the entry terms: the build calls no bracket, since the bracket
        reads the anchor table, and the generator traces are summed off the
        int partials and become Polynomials once, at the end.
        """
        if self._tables is None:
            ell = len(self.vars)
            d = lcm(*(c.denominator for p in self.entries.values()
                      for c in p.terms.values()))
            entries = {key: _terms(p, d) for key, p in self.entries.items()}
            anchor = tuple(
                tuple((a, _lowered(pair, a)) for a in range(ell)
                      for pair in (_pair(entries, a, i),) if pair)
                for i in range(ell)
            )
            partials = {}
            sums: "list[dict]" = [{} for _ in range(ell)]
            for (i, j), terms in entries.items():
                derivs = [_derivative(terms, k) for k in range(ell)]
                partials[(i, j)] = tuple((k, dk) for k, dk in enumerate(derivs) if dk)
                # d{x_i, x_j}/dx_j joins trace(x_i), d{x_j, x_i}/dx_i trace(x_j)
                _plus(sums[i], dict(derivs[j]))
                _plus(sums[j], dict(derivs[i]), -1)
            traces = tuple(tuple(t.items()) for t in sums)
            self._tables = TermTables(
                d, entries, anchor, partials,
                tuple(_polynomial(self.vars, t, d) for t in traces), traces)
        return self._tables

    def omega_h_action(self, m: Polynomial, i: int) -> Polynomial:
        """Right action of the i-th derivation generator on the twisted module.

        The dualizing module is the algebra itself with
        m . h_i = -{x_i, m} + m * trace(x_i); for unimodular structures this
        collapses to the plain action {m, x_i}.
        """
        _check_index(self.vars, i)
        trace = self.term_tables().generator_traces[i]
        return self.bracket(m, self.gens[i]) + m * trace

    # -- grading -----------------------------------------------------------

    def weight_shift(self) -> int:
        """How much the bracket (and both differentials) shift weight."""
        if self.homogeneity_degree is None:
            raise NonHomogeneousError(
                "bracket entries are not weighted-homogeneous of a uniform degree; "
                "graded computations are unavailable"
            )
        return self.homogeneity_degree - 2

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return self.vars == other.vars and self.entries == other.entries

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{{{self.vars.names[i]},{self.vars.names[j]}}}={p}"
            for (i, j), p in sorted(self.entries.items())
        )
        return f"<PoissonStructure {pairs or 'zero'}>"

