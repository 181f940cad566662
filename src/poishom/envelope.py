"""PBW rewriting for the enveloping algebra of a Poisson structure.

The algebra is generated by the polynomial algebra together with one
derivation symbol h(i) per variable, subject to

    h(i) * f    ->  f * h(i) + {x_i, f}
    h(j) * h(i) ->  h(i) * h(j) + sum_k  d{x_j, x_i}/dx_k * h(k)   (j > i)

so every element has a normal form: polynomial coefficients on the left,
derivation symbols sorted ascending on the right.  A word with no redex
therefore holds at most one polynomial atom, and that atom comes first.
Rewriting terminates because each step lowers (number of derivation
symbols, number of out-of-order adjacent pairs) lexicographically;
confluence is checked empirically by reducing random words under two
different strategies.

Public words spell polynomial atoms as ("p", Polynomial).  Reduction runs
in integer arithmetic on packed monomials instead.  The code of x^e packs
e big-endian in 32-bit digits, sum_i e_i * 2^(32 * (ell - 1 - i)), and
a normal-form key adds the symbol counts h^b in the ell digits above, so
it packs the 2 * ell exponents b + e.  On entry each atom becomes a tuple
of (code, int) terms of L * f, L the lcm of its denominators, and the
part coefficients are brought over one common denominator E.  The rules
are the integer tables of ``PoissonStructure.term_tables()``, packed once
per public call by ``structure._rules`` and not kept, so a table edited in
place is read afresh.  The packed kernel lives in ``structure`` beside
``anchor_action``: two atoms merge by adding codes (``_product``), h(i) * f
takes {x_i, f} = -{f, x_i} from ``_moved``, which reads e_a off each code
and adds the packed terms of D * {x_a, x_i} / x_a, and h(j) * h(i) takes
the negated partials d{x_i, x_j}/dx_k (i < j), all multiplied by one
structure denominator D (D = 1 on an integral structure).  No rule calls
``S.bracket`` or builds a Polynomial or an exponent tuple.  Every term a
rule takes from the bracket (in h(i) * f and in h(j) * h(i)) removes
exactly one derivation symbol, and the swaps and the merge of two
polynomial atoms remove none, so a normal-form term with q symbols reached
from inputs with at most Q symbols carries exactly D^(Q - q).  Each input
part with q0 symbols is therefore scaled by D^(Q - q0) on entry, the fold
adds only ints, and each output term is one Fraction(v, E * D^(Q - q)).
Every digit of every term reached stays in 0 .. 2^31 - 1, so no term's
digits spill into a neighbour: ``reduce_combination`` and
``right_module_residue`` refuse a negative exponent and an input whose
degree bound reaches 2^31 (``_enter`` proves the bound).  Keys become
exponent tuples again only in ``_element``, in the residue's output and
in the failure reports.  The checks of ``poishom pbw`` stay in packed
ints: the sampler draws codes directly, with the random calls of its
exponent-tuple twin in ``tests/_oracles.py``, and stores a coefficient
p/q (q = 1 or 2) as 2p/q; the twist check reduces the twist images of
the relations as packed words, and takes the residues of its module
samples on packed codes (``structure._residue``, which also serves
``right_module_residue``); Fractions are built only at the public API and
to report a failure.

The module also reduces elements against right ideals generated by
h(i) - t_i for prescribed polynomials t_i, which realizes both the plain
right action on the algebra (t = 0) and the trace-twisted module (t = the
modular traces), checks on every structure that h(i) -> h(i) + tr(x_i),
the twist by the modular vector field tr, is an automorphism, and counts
the normal forms by filtration degree and weight: the bigraded dimension
of the associated graded algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import lshift
from typing import Iterable, Sequence

from .polycore import (Polynomial, VarTable, _total_degree, monomials_of_weight,
                       partial_derivative)
from .structure import (_DIGIT, _MASK, PoissonStructure, Terms, _check_index, _packed,
                        _polynomial, _product, _reduce, _residue, _rules, _shifts,
                        _terms, _unpacked, int_terms)

__all__ = [
    "Word",
    "ham",
    "poly_atom",
    "EnvelopeElement",
    "reduce_word",
    "reduce_combination",
    "ConfluenceFailure",
    "confluence_check",
    "gr_dimension_check",
    "right_module_residue",
    "j_quotient_action",
    "RelationViolation",
    "ModuleMismatch",
    "NuReport",
    "nu_check",
]

# A word is a tuple of atoms; an atom is ("p", Polynomial) or ("h", index).
Word = tuple[tuple, ...]

_ONE = Fraction(1)


def ham(i: int) -> tuple:
    """The derivation symbol attached to the i-th variable."""
    return ("h", i)


def poly_atom(f: Polynomial) -> tuple:
    return ("p", f)


class EnvelopeElement:
    """Normal-form element: a map (x exponents, h exponents) -> Fraction.

    Refuses with ``ValueError`` a term whose x or h exponents are not one
    per variable."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarTable,
                 terms: "dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]"):
        n = len(vars)
        for x, h in terms:
            if {len(x), len(h)} != {n}:
                raise ValueError(f"need one exponent per variable ({n}) in term {(x, h)!r}")
        self.vars = vars
        self.terms = {k: v for k, v in terms.items() if v}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnvelopeElement):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.vars.names
        chunks = []
        for (xexp, hexp), c in sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0][1]), kv[0][1], kv[0][0])
        ):
            factors = []
            for name, e in zip(names, xexp):
                factors.append(name if e == 1 else f"{name}^{e}" if e else None)
            for name, e in zip(names, hexp):
                factors.append(
                    f"h({name})" if e == 1 else f"h({name})^{e}" if e else None
                )
            factors = [f for f in factors if f]
            if not factors:
                chunks.append(str(c))
            elif c == 1:
                chunks.append("*".join(factors))
            else:
                chunks.append("*".join([str(c)] + factors))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"<envelope {self}>"


# -- word reduction -----------------------------------------------------------


_STRATEGIES = ("leftmost", "rightmost")


def _reach(tables, *polys: Polynomial) -> int:
    """The most degree one symbol adds in a reduction: the largest total
    degree of a bracket entry or of ``polys``, and at least 1."""
    return max([1, *(sum(e) for terms in tables.entries.values() for e, _ in terms),
                *(_total_degree(f.terms) for f in polys)])


def _check_bound(bound: int, low: int) -> None:
    """Refuse exponents that packed digits cannot hold: a lowest exponent
    below 0 would borrow, a degree bound of 2^31 or more could carry."""
    if low < 0:
        raise ValueError(f"exponent {low}: packed exponents start at 0")
    if bound >> _DIGIT - 1:
        raise ValueError(f"degree bound {bound}: packed exponents stop below 2^31")


def _enter(vt: VarTable, shifts, reach: int, coeff, word: "Sequence[tuple]"):
    """One input part as (numerator, denominator, symbol count, packed word).

    In the packed word a derivation symbol h(i) is the int i and a
    polynomial atom f is the tuple of packed terms of L * f, with L the lcm
    of the denominators of f, so L joins the denominator of the
    coefficient.  Returns None for a part that is zero.

    Refuses with ``ValueError`` a negative exponent, which would borrow,
    and a word whose degree bound, the total degrees of its polynomial
    atoms plus ``reach`` per symbol, reaches 2^31; ``reach`` is ``_reach``
    of the brackets, at least the largest total degree of a bracket entry.
    Call the sum of the total degrees of a word's polynomial atoms its
    degree.  A merge adds two atoms'
    degrees; h(a) * f trades a symbol for {x_a, f}, of degree at most
    deg f + reach - 1; h(j) * h(i) trades a symbol for a partial of degree
    at most reach - 1; a swap changes nothing.  So degree plus reach per
    symbol never rises along a reduction, every exponent of every term
    reached stays below 2^31, and no packed digit carries.  Since reach is
    at least 1, the bound also holds the symbol digits of a normal-form
    key below 2^31.
    """
    c = Fraction(coeff)
    num, den = c.numerator, c.denominator
    atoms: list = []
    symbols = bound = low = 0
    for atom in word:
        if atom[0] == "h":
            _check_index(vt, atom[1])
            atoms.append(atom[1])
            symbols += 1
            bound += reach
            continue
        if atom[0] != "p":
            raise ValueError(f"unknown atom kind {atom[0]!r}")
        f = atom[1]
        if f.vars != vt:
            raise ValueError("polynomial atom over a different variable table")
        if f.is_zero():
            num = 0
        scale, terms = int_terms(f)
        den *= scale
        bound += _total_degree(f.terms)
        low = min([low, *(min(e, default=0) for e in f.terms)])
        atoms.append(_packed(terms, shifts))
    _check_bound(bound, low)
    if not num:
        return None
    g = gcd(num, den)
    return num // g, den // g, symbols, tuple(atoms)


def reduce_combination(S: PoissonStructure,
                       parts: "Iterable[tuple[Fraction, Word]]",
                       strategy: str = "leftmost") -> EnvelopeElement:
    """Reduce a rational combination of words to its normal form.

    Refuses with ``ValueError`` a part whose degree bound reaches 2^31
    (``_enter``)."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    vt = S.vars
    tables = S.term_tables()
    d = tables.denominator
    shifts = _shifts(len(vt))
    reach = _reach(tables)
    entered = [p for p in (_enter(vt, shifts, reach, c, w) for c, w in parts)
               if p is not None]
    common = lcm(*(den for _, den, _, _ in entered))
    top = max((q for _, _, q, _ in entered), default=0)
    agenda = [(num * (common // den) * d ** (top - q), w)
              for num, den, q, w in entered]
    terms = _reduce(_rules(tables, shifts), agenda, strategy == "rightmost")
    return _element(vt, terms, common, d, top)


def _element(vt: VarTable, terms: dict, scale: int, d: int,
             top: int) -> EnvelopeElement:
    """The normal form whose packed terms carry scale * D^(top - q) at q
    symbols; a key packs the 2n exponents h + x."""
    n = len(vt)
    out = {}
    for digits, v in _unpacked(terms.items(), _shifts(2 * n)):
        out[digits[n:], digits[:n]] = Fraction(v, scale * d ** (top - sum(digits[:n])))
    return EnvelopeElement(vt, out)


def reduce_word(S: PoissonStructure, word: "Sequence[tuple]",
                strategy: str = "leftmost") -> EnvelopeElement:
    """Normal form of a single product of atoms."""
    return reduce_combination(S, [(_ONE, tuple(word))], strategy)


# -- confluence ---------------------------------------------------------------


class ConfluenceFailure(AssertionError):
    """Two reduction strategies disagreed on a word."""

    def __init__(self, word: Word, left: EnvelopeElement, right: EnvelopeElement):
        super().__init__(f"strategies disagree on word {word!r}")
        self.word = word
        self.left = left
        self.right = right


def _sample_poly(rng: random.Random, units: "tuple[int, ...]", max_degree: int = 2,
                 max_terms: int = 2) -> tuple:
    """Packed int terms of 2 * f for a random polynomial f, () if f = 0;
    ``units`` holds the code of each variable."""
    n = len(units)
    out: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        code = 0
        for _ in range(rng.randint(0, max_degree)):
            code += units[rng.randrange(n)]
        p = rng.choice((1, -1, 2, -2, 1, 3))
        out[code] = out.get(code, 0) + p * (2 // rng.choice((1, 1, 2)))
    return tuple((e, c) for e, c in out.items() if c)


def _sample_word(rng: random.Random, units: "tuple[int, ...]") -> tuple:
    """A packed word of 2 to 5 atoms, each h(i) or 2 * f."""
    atoms: list = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.55:
            atoms.append(rng.randrange(len(units)))
        else:
            atoms.append(_sample_poly(rng, units))
    return tuple(atoms)


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def confluence_check(S: PoissonStructure, samples: int = 200,
                     seed: int = 0) -> int:
    """Reduce random words under both strategies; raise on any disagreement.

    Both int normal forms of a word carry the same scale key by key."""
    _at_least("samples", samples, 0)
    rng = random.Random(seed)
    shifts = _shifts(len(S.vars))
    rules = _rules(S.term_tables(), shifts)
    units = tuple(map((1).__lshift__, shifts))
    for _ in range(samples):
        word = _sample_word(rng, units)
        if _reduce(rules, [(1, word)], False) != _reduce(rules, [(1, word)], True):
            public = tuple(ham(a) if type(a) is int  # halve each atom back
                           else poly_atom(_polynomial(S.vars, _unpacked(a, shifts), 2))
                           for a in word)
            raise ConfluenceFailure(
                public, reduce_combination(S, [(_ONE, public)], "leftmost"),
                reduce_combination(S, [(_ONE, public)], "rightmost"))
    return samples


# -- associated graded dimension count ---------------------------------------


def gr_dimension_check(S: PoissonStructure, max_filtration: int = 3,
                       max_weight: int = 6) -> "dict[tuple[int, int], int]":
    """The bigraded dimension {(p, w): count} of gr A^{pe}.

    The normal forms x^a h^b are a basis, so the dimension at filtration p
    and weight w counts the pairs with b summing to p and total weight w,
    each h symbol carrying the weight of its variable.  Refuses either
    bound below 0 with ``ValueError``.
    """
    _at_least("max_filtration", max_filtration, 0)
    _at_least("max_weight", max_weight, 0)
    vt = S.vars
    weights = range(max_weight + 1)
    plain = [len(monomials_of_weight(vt, w)) for w in weights]
    table: dict[tuple[int, int], int] = {}
    unweighted = VarTable(vt.names)
    for p in range(max_filtration + 1):
        symbol_weights = [vt.weighted_degree(h)
                          for h in monomials_of_weight(unweighted, p)]
        for w in weights:
            table[(p, w)] = sum(plain[w - d] for d in symbol_weights if d <= w)
    return table


# -- right-quotient reductions ------------------------------------------------


def right_module_residue(S: PoissonStructure, element: EnvelopeElement,
                         traces: "Sequence[Polynomial]") -> Polynomial:
    """Residue of a normal form in the right quotient by (h(i) - t_i).

    ``traces`` needs one polynomial per variable; m clears their
    denominators.  The residue runs on packed codes, so a
    term x^a h^b with a negative exponent, or whose degree bound
    |a| + |b| * r reaches 2^31, is refused with ``ValueError``; r is
    ``_reach`` of the brackets and the traces.  A peel trades a symbol for
    f * t_j or {x_j, f}, of degree at most deg f + r, so no digit carries.
    """
    if element.vars != S.vars:
        raise ValueError("element over a different variable table")
    vt = S.vars
    n = len(vt)
    if len(traces) != n:
        raise ValueError(f"need one trace per variable ({n}), got {len(traces)}")
    if any(t.vars != vt for t in traces):
        raise ValueError("trace over a different variable table")
    tables = S.term_tables()
    shifts, wide = _shifts(n), _shifts(2 * n)
    cleared = [int_terms(t) for t in traces]
    m = lcm(*(scale for scale, _ in cleared))
    step = m * tables.denominator
    ints = tuple(_packed(((e, c * (step // scale)) for e, c in terms), shifts)
                 for scale, terms in cleared)
    common = lcm(*(c.denominator for c in element.terms.values()))
    top = max((sum(h) for _, h in element.terms), default=0)
    reach = _reach(tables, *traces)
    scaled = {}
    for (x, h), c in element.terms.items():
        _check_bound(sum(x) + sum(h) * reach, min(x + h, default=0))
        scaled[sum(map(lshift, h + x, wide))] = \
            c.numerator * (common // c.denominator) * step ** (top - sum(h))
    out = _residue(_rules(tables, shifts)[0], m, ints, scaled, shifts)
    return _polynomial(vt, _unpacked(out.items(), shifts), common * step ** top)


def j_quotient_action(S: PoissonStructure, a: Polynomial, i: int) -> Polynomial:
    """Image of a * h(i) in the quotient by the trace-shifted right ideal.

    This is the envelope-side computation of the twisted right action and
    must agree with ``PoissonStructure.omega_h_action`` on every input.
    """
    element = reduce_word(S, (poly_atom(a), ham(i)))
    return right_module_residue(S, element, S.modular_data().traces)


# -- the modular twist automorphism ----------------------------------------------


class RelationViolation(AssertionError):
    """The twist map failed to preserve a defining relation."""

    def __init__(self, description: str, left: EnvelopeElement, right: EnvelopeElement):
        super().__init__(f"twist map breaks relation {description}: "
                         f"{left} != {right}")
        self.description = description
        self.left = left
        self.right = right


class ModuleMismatch(AssertionError):
    """The twisted module action disagreed with the closed-form action."""

    def __init__(self, sample: Polynomial, i: int, got: Polynomial, want: Polynomial):
        super().__init__(
            f"twisted action mismatch on ({sample}, index {i}): "
            f"got {got}, want {want}"
        )
        self.sample = sample
        self.index = i
        self.got = got
        self.want = want


@dataclass(frozen=True)
class NuReport:
    relations_checked: int
    module_samples: int


def _twisted_residue(rules: tuple, a, i: int, twist, shifts) -> dict:
    """2D times the plain residue of f * h(i) + f * X_i, the twisted image
    of f * h(i), for ``a`` the packed terms of 2 * f and ``twist`` those of
    D * X_i."""
    terms = _reduce(rules, [(1, (a, i)), (1, (a, twist))], False)
    return _residue(rules[0], 1, ((),) * len(shifts), terms, shifts)


def _relation_forms(S: PoissonStructure, twist: "Sequence[Terms]", rules: tuple):
    """(description, symbols, left, right) for each defining relation: the
    packed normal forms, under ``rules``, of the twist images of its two
    sides.

    h(i) goes to h(i) + X_i, with ``twist[i]`` the terms of D * X_i, as in
    the twist tables of ``complexes``; both sides agree on every relation
    exactly when X is a Poisson vector field.  A part with q0 of the
    relation's ``symbols`` derivation symbols enters scaled by
    D^(symbols - q0), and an h(i) replaced by the atom of D * X_i takes its
    factor D, so every word, and every normal-form term, with q symbols
    carries D^(symbols - q).  The right sides are built from ``S.entry``
    and ``partial_derivative``, not from the term tables that the rules
    read.
    """
    vt = S.vars
    n = len(vt)
    shifts = _shifts(n)
    d = S.term_tables().denominator
    gens = [((1 << s, 1),) for s in shifts]
    images = [((1, (i,)),) + (((1, (_packed(t, shifts),)),) if t else ())
              for i, t in enumerate(twist)]

    def normal_form(words: "list[tuple]") -> dict:
        agenda = []
        for word in words:
            stack = [(1, ())]
            for atom in word:
                options = images[atom] if type(atom) is int else ((1, (atom,)),)
                stack = [(c * oc, w + ow) for c, w in stack for oc, ow in options]
            agenda.extend(stack)
        return _reduce(rules, agenda, False)

    for i in range(n):
        for k in range(n):
            if i != k:
                pair = S.entry(i, k)
                rhs = [(gens[k], i)] + ([(_packed(_terms(pair, d), shifts),)]
                                        if pair else [])
                yield (f"h({vt.names[i]}) * {vt.names[k]}", 1,
                       normal_form([(i, gens[k])]), normal_form(rhs))
    for j in range(n):
        for i in range(j):
            pair = S.entry(j, i)
            rhs = [(i, j)] + [(_packed(_terms(c, d), shifts), k) for k in range(n)
                              for c in (partial_derivative(pair, k),) if c]
            yield (f"h({vt.names[j]}) * h({vt.names[i]})", 2,
                   normal_form([(j, i)]), normal_form(rhs))


def nu_check(S: PoissonStructure, samples: int = 20, seed: int = 0) -> NuReport:
    """Verify the modular twist automorphism of the enveloping algebra.

    The map fixes the variables and sends h(i) to h(i) + tr(x_i), with
    tr(x_i) = sum_k d{x_i, x_k}/dx_k built from ``S.entry`` and
    ``partial_derivative``, not read off the term tables.  Two facts are
    checked mechanically, in ints: the images of both sides of every
    defining relation reduce to the same normal form, which holds on every
    structure since tr is a Poisson vector field, and twisting the plain
    right quotient action reproduces, on random samples, the module action
    f * tr(x_i) - {x_i, f}, with the trace table's tr(x_i) and {x_i, f} =
    sum_k df/dx_k {x_i, x_k} from ``S.entry``, not from the anchor table
    that the rules read.
    """
    _at_least("samples", samples, 0)
    vt = S.vars
    n = len(vt)
    tables = S.term_tables()
    d = tables.denominator
    shifts = _shifts(n)
    rules = _rules(tables, shifts)
    twist = [_terms(sum((partial_derivative(S.entry(i, k), k)
                         for k in range(n) if k != i), vt.zero()), d)
             for i in range(n)]
    relations = 0
    for description, top, left, right in _relation_forms(S, twist, rules):
        if left != right:
            raise RelationViolation(description, _element(vt, left, 1, d, top),
                                    _element(vt, right, 1, d, top))
        relations += 1

    pairs = [[_packed(_terms(S.entry(i, k), d), shifts) for k in range(n)]
             for i in range(n)]
    traces = [_packed(t, shifts) for t in tables.traces]
    packed = [_packed(t, shifts) for t in twist]
    units = tuple(map((1).__lshift__, shifts))
    rng = random.Random(seed)
    for _ in range(samples):
        a = _sample_poly(rng, units, max_degree=3, max_terms=3)
        i = rng.randrange(n)
        got = _twisted_residue(rules, a, i, packed[i], shifts)
        want = _product(a, traces[i])
        for s, unit, pair in zip(shifts, units, pairs[i]):  # - df/dx_k {x_i, x_k}
            derivative = [(e - unit, c * ek) for e, c in a
                          for ek in (e >> s & _MASK,) if ek]
            for e, c in _product(derivative, pair).items():
                want[e] = want.get(e, 0) - c
        want = {e: c for e, c in want.items() if c}
        if got != want:
            raise ModuleMismatch(_polynomial(vt, _unpacked(a, shifts), 2), i,
                                 _polynomial(vt, _unpacked(got.items(), shifts), 2 * d),
                                 _polynomial(vt, _unpacked(want.items(), shifts), 2 * d))
    return NuReport(relations, samples)
