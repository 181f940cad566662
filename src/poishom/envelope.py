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
in integer arithmetic instead: on entry each atom becomes a tuple of
(exponents, int) terms by ``structure.int_terms``, scaled by the lcm of
its denominators, and the part coefficients are brought over one common
denominator E.  The rules read the integer tables of
``PoissonStructure.term_tables()`` through the term kernel of
``structure``: two atoms merge by ``polycore._times``, h(i) * f takes
{x_i, f} = -{f, x_i} from ``anchor_action`` with the sign flipped, and
h(j) * h(i) takes the negated partials d{x_i, x_j}/dx_k (i < j), all
multiplied by one structure denominator D (D = 1 on an integral
structure).  No rule calls ``S.bracket`` or builds a Polynomial.  Every
term a rule takes from the bracket (in h(i) * f and in h(j) * h(i))
removes exactly one derivation symbol, and the swaps and the merge of two
polynomial atoms remove none, so a normal-form term with q symbols reached
from inputs with at most Q symbols carries exactly D^(Q - q).  Each input
part with q0 symbols is therefore scaled by D^(Q - q0) on entry, the fold
adds only ints, and each output term is one Fraction(v, E * D^(Q - q)).
The checks of ``poishom pbw`` stay in ints: the sampler stores a
coefficient p/q (q = 1 or 2) as 2p/q, the twist check reduces the twist
images of the relations as int words, and Fractions are built only at the
public API and to report a failure.

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
from typing import Iterable, Sequence

from .polycore import (Polynomial, VarTable, _times, monomials_of_weight,
                       partial_derivative)
from .structure import PoissonStructure, Terms, _terms, anchor_action, int_terms

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
    """Normal-form element: a map (x exponents, h exponents) -> Fraction."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarTable,
                 terms: "dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]"):
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


def _enter(vt: VarTable, coeff, word: "Sequence[tuple]"):
    """One input part as (numerator, denominator, symbol count, integer word).

    In the integer word a derivation symbol h(i) is the int i and a
    polynomial atom f is the tuple of terms of L * f, with L the lcm of the
    denominators of f, so L joins the denominator of the coefficient.
    Returns None for a part that is zero.
    """
    c = Fraction(coeff)
    num, den = c.numerator, c.denominator
    atoms: list = []
    symbols = 0
    for atom in word:
        if atom[0] != "p":
            atoms.append(atom[1])
            symbols += 1
            continue
        f = atom[1]
        if f.vars != vt:
            raise ValueError("polynomial atom over a different variable table")
        if f.is_zero():
            num = 0
        scale, terms = int_terms(f)
        den *= scale
        atoms.append(terms)
    if not num:
        return None
    g = gcd(num, den)
    return num // g, den // g, symbols, tuple(atoms)


def _find_redex(word: tuple, rightmost: bool) -> "int | None":
    """Position of the first redex from the chosen end of an integer word."""
    positions = range(len(word) - 1)
    if rightmost:
        positions = reversed(positions)
    for k in positions:
        a, b = word[k], word[k + 1]
        if type(b) is tuple or (type(a) is int and a > b):
            return k
    return None


def _reduce(tables, n: int, agenda: list, rightmost: bool) -> dict:
    """Normal form {(x exponents, h exponents): nonzero int} of an agenda of
    (int, integer word) parts, which it consumes; a term with q symbols
    reached from a part with q0 gains D^(q0 - q)."""
    anchor, partials = tables.anchor, tables.partials
    unit = (((0,) * n, 1),)
    terms: dict = {}
    while agenda:
        coeff, word = agenda.pop()
        k = _find_redex(word, rightmost)
        if k is None:
            if word and type(word[0]) is tuple:
                poly, symbols = word[0], word[1:]
            else:
                poly, symbols = unit, word
            hexp = [0] * n
            for i in symbols:
                hexp[i] += 1
            key_h = tuple(hexp)
            for exps, c in poly:
                key = (exps, key_h)
                terms[key] = terms.get(key, 0) + coeff * c
            continue
        head, a, b, tail = word[:k], word[k], word[k + 1], word[k + 2:]
        if type(a) is tuple:  # two polynomial atoms merge
            merged = tuple(_times(a, b).items())
            agenda.append((coeff, head + (merged,) + tail))
            continue
        agenda.append((coeff, head + (b, a) + tail))
        if type(b) is tuple:  # h(a) * f: D * {x_a, f} = -D * {f, x_a}
            moved = anchor_action(anchor[a], b)
            if moved:
                agenda.append((-coeff, head + (moved,) + tail))
        else:  # h(a) * h(b) with a > b: D * d{x_a, x_b}/dx_k = -partials
            for k2, partial in partials.get((b, a), ()):
                agenda.append((-coeff, head + (partial, k2) + tail))
    return {key: v for key, v in terms.items() if v}


def reduce_combination(S: PoissonStructure,
                       parts: "Iterable[tuple[Fraction, Word]]",
                       strategy: str = "leftmost") -> EnvelopeElement:
    """Reduce a rational combination of words to its normal form."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    vt = S.vars
    tables = S.term_tables()
    d = tables.denominator
    entered = [p for p in (_enter(vt, c, w) for c, w in parts) if p is not None]
    common = lcm(*(den for _, den, _, _ in entered))
    top = max((q for _, _, q, _ in entered), default=0)
    agenda = [(num * (common // den) * d ** (top - q), w)
              for num, den, q, w in entered]
    terms = _reduce(tables, len(vt), agenda, strategy == "rightmost")
    return _element(vt, terms, common, d, top)


def _element(vt: VarTable, terms: dict, scale: int, d: int,
             top: int) -> EnvelopeElement:
    """The normal form whose int terms carry scale * D^(top - q) at q symbols."""
    return EnvelopeElement(vt, {key: Fraction(v, scale * d ** (top - sum(key[1])))
                                for key, v in terms.items()})


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


def _sample_poly(rng: random.Random, n: int, max_degree: int = 2,
                 max_terms: int = 2) -> tuple:
    """Int terms of 2 * f for a random polynomial f, () if f = 0."""
    out: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        key = tuple(exps)
        p = rng.choice((1, -1, 2, -2, 1, 3))
        out[key] = out.get(key, 0) + p * (2 // rng.choice((1, 1, 2)))
    return tuple((e, c) for e, c in out.items() if c)


def _sample_word(rng: random.Random, n: int) -> tuple:
    """An integer word of 2 to 5 atoms, each h(i) or 2 * f."""
    atoms: list = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.55:
            atoms.append(rng.randrange(n))
        else:
            atoms.append(_sample_poly(rng, n))
    return tuple(atoms)


def _polynomial(vt: VarTable, terms, scale: int = 2) -> Polynomial:
    """f, from the int (exponents, coefficient) pairs of scale * f."""
    return Polynomial(vt, {e: Fraction(c, scale) for e, c in terms})


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def confluence_check(S: PoissonStructure, samples: int = 200,
                     seed: int = 0) -> int:
    """Reduce random words under both strategies; raise on any disagreement.

    Both int normal forms of a word carry the same scale key by key."""
    _at_least("samples", samples, 0)
    rng = random.Random(seed)
    tables = S.term_tables()
    n = len(S.vars)
    for _ in range(samples):
        word = _sample_word(rng, n)
        if (_reduce(tables, n, [(1, word)], False)
                != _reduce(tables, n, [(1, word)], True)):
            public = tuple(ham(a) if type(a) is int  # halve each atom back
                           else poly_atom(_polynomial(S.vars, a)) for a in word)
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


def _peel(f, row, trace, m: int):
    """m * D * (f * t_j - {x_j, f}) from anchor[j] and the terms of m * D * t_j."""
    out = _times(f, trace)
    for e, c in anchor_action(row, f):  # D * {f, x_j} = -D * {x_j, f}
        out[e] = out.get(e, 0) + m * c
    return tuple((e, c) for e, c in out.items() if c)


def _residue(anchor, m: int, traces, terms: dict) -> dict:
    """{x exponents: int} residue of an int normal form modulo (h(j) - t_j).

    f h(j) rest leaves (f t_j - {x_j, f}) rest, so each term is peeled by
    ``_peel`` one symbol at a time in ascending order, each step times
    m * D: a key with q of at most Q symbols must carry (m * D)^(Q - q).
    """
    out: dict = {}
    for (xexp, hexp), c in terms.items():
        f = ((xexp, c),)
        for j, e in enumerate(hexp):
            for _ in range(e):
                f = _peel(f, anchor[j], traces[j], m)
        for exps, c2 in f:
            out[exps] = out.get(exps, 0) + c2
    return {e: c for e, c in out.items() if c}


def right_module_residue(S: PoissonStructure, element: EnvelopeElement,
                         traces: "Sequence[Polynomial]") -> Polynomial:
    """Residue of a normal form in the right quotient by (h(i) - t_i).

    ``traces`` needs one polynomial per variable; m clears their denominators.
    """
    if element.vars != S.vars:
        raise ValueError("element over a different variable table")
    vt = S.vars
    if len(traces) != len(vt):
        raise ValueError(f"need one trace per variable ({len(vt)}), "
                         f"got {len(traces)}")
    tables = S.term_tables()
    cleared = [int_terms(t) for t in traces]
    m = lcm(*(scale for scale, _ in cleared))
    step = m * tables.denominator
    ints = tuple(tuple((e, c * (step // scale)) for e, c in terms)
                 for scale, terms in cleared)
    common = lcm(*(c.denominator for c in element.terms.values()))
    top = max((sum(h) for _, h in element.terms), default=0)
    scaled = {key: c.numerator * (common // c.denominator) * step ** (top - sum(key[1]))
              for key, c in element.terms.items()}
    out = _residue(tables.anchor, m, ints, scaled)
    return Polynomial(vt, {e: Fraction(c, common * step ** top)
                           for e, c in out.items()})


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


def _twisted_residue(tables, a, i: int, twist: Terms) -> dict:
    """2D times the plain residue of f * h(i) + f * X_i, the twisted image
    of f * h(i), for ``a`` the terms of 2 * f and ``twist`` those of D * X_i."""
    n = len(tables.anchor)
    agenda = [(1, (a, i)), (1, (a, twist))]
    return _residue(tables.anchor, 1, ((),) * n, _reduce(tables, n, agenda, False))


def _relation_forms(S: PoissonStructure, twist: "Sequence[Terms]"):
    """(description, symbols, left, right) for each defining relation: the
    int normal forms of the twist images of its two sides.

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
    tables = S.term_tables()
    d = tables.denominator
    gens = [((tuple(int(k == i) for k in range(n)), 1),) for i in range(n)]
    images = [((1, (i,)),) + (((1, (t,)),) if t else ())
              for i, t in enumerate(twist)]

    def normal_form(words: "list[tuple]") -> dict:
        agenda = []
        for word in words:
            stack = [(1, ())]
            for atom in word:
                options = images[atom] if type(atom) is int else ((1, (atom,)),)
                stack = [(c * oc, w + ow) for c, w in stack for oc, ow in options]
            agenda.extend(stack)
        return _reduce(tables, n, agenda, False)

    for i in range(n):
        for k in range(n):
            if i != k:
                pair = S.entry(i, k)
                rhs = [(gens[k], i)] + ([(_terms(pair, d),)] if pair else [])
                yield (f"h({vt.names[i]}) * {vt.names[k]}", 1,
                       normal_form([(i, gens[k])]), normal_form(rhs))
    for j in range(n):
        for i in range(j):
            pair = S.entry(j, i)
            rhs = [(i, j)] + [(_terms(c, d), k) for k in range(n)
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
    that the rules read off the trace table.
    """
    _at_least("samples", samples, 0)
    vt = S.vars
    n = len(vt)
    tables = S.term_tables()
    d = tables.denominator
    twist = [_terms(sum((partial_derivative(S.entry(i, k), k)
                         for k in range(n) if k != i), vt.zero()), d)
             for i in range(n)]
    relations = 0
    for description, top, left, right in _relation_forms(S, twist):
        if left != right:
            raise RelationViolation(description, _element(vt, left, 1, d, top),
                                    _element(vt, right, 1, d, top))
        relations += 1

    rng = random.Random(seed)
    for _ in range(samples):
        a = _sample_poly(rng, n, max_degree=3, max_terms=3)
        i = rng.randrange(n)
        got = _twisted_residue(tables, a, i, twist[i])
        want = dict(_peel(a, tables.anchor[i], tables.traces[i], 1))
        if got != want:
            sample = _polynomial(vt, a)
            raise ModuleMismatch(sample, i, _polynomial(vt, got.items(), 2 * d),
                                 _polynomial(vt, want.items(), 2 * d))
    return NuReport(relations, samples)
