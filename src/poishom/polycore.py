"""Exact sparse polynomial arithmetic over the rationals.

A polynomial lives over a fixed :class:`VarTable` that assigns each variable
a positive integer weight.  Terms are stored as a map from exponent vectors
(plain tuples of non-negative ints) to nonzero ``Fraction`` coefficients, so
every operation here is exact.  The module also provides the expression
parser and the canonical printer used by the rest of the package; the two
are inverse to each other on canonical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Mapping, Sequence

__all__ = [
    "PolyParseError",
    "MAX_PARSE_DEGREE",
    "MAX_PARSE_TERMS",
    "MAX_PARSE_WEIGHT",
    "VarTableMismatch",
    "VarTable",
    "Polynomial",
    "parse_poly",
    "format_poly",
    "partial_derivative",
    "homogeneous_weight",
    "monomials_of_weight",
]


class PolyParseError(ValueError):
    """Malformed polynomial expression.  Carries the 0-based source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VarTableMismatch(ValueError):
    """Operands belong to different variable tables."""


def _shown(value) -> str:
    """repr(value) for an error message; past 32 characters, its start and
    its length, so that outside input is echoed on one short line."""
    text = repr(value)
    if len(text) <= 32:
        return text
    return f"{text[:32]}... ({len(value) if isinstance(value, str) else len(text)} characters)"


def _is_identifier(name: str) -> bool:
    if not name or (not name[0].isalpha() and name[0] != "_"):
        return False
    return all(c.isalnum() or c == "_" for c in name[1:])


class VarTable:
    """Ordered variable names plus positive integer weights.

    Instances are immutable and hashable; two tables compare equal exactly
    when names and weights agree, and polynomial arithmetic refuses to mix
    tables that differ.
    """

    __slots__ = ("names", "weights", "_index")

    def __init__(self, names: Sequence[str], weights: Sequence[int] | None = None):
        names = tuple(names)
        if not names:
            raise ValueError("variable table needs at least one variable")
        for name in names:
            if not _is_identifier(name):
                raise ValueError(f"invalid variable name {_shown(name)}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be pairwise distinct")
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(names):
            raise ValueError("need one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("VarTable is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VarTable):
            return NotImplemented
        return self.names == other.names and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"VarTable({cols})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {_shown(name)}") from None

    def weighted_degree(self, exponents: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(exponents, self.weights))

    # -- polynomial factories ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: "int | Fraction") -> "Polynomial":
        return Polynomial(self, {(0,) * len(self): Fraction(value)})

    def gen(self, i: int) -> "Polynomial":
        """The i-th variable as a polynomial (0-based)."""
        if not 0 <= i < len(self):
            raise IndexError(f"variable index {i} out of range")
        exps = tuple(int(j == i) for j in range(len(self)))
        return Polynomial(self, {exps: 1})

    def gens(self) -> "tuple[Polynomial, ...]":
        return tuple(self.gen(i) for i in range(len(self)))

    def monomial(self, exponents: Sequence[int], coeff: "int | Fraction" = 1) -> "Polynomial":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != len(self) or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        return Polynomial(self, {exps: Fraction(coeff)})


class Polynomial:
    """Immutable sparse polynomial attached to a :class:`VarTable`.

    ``terms`` maps exponent tuples to nonzero Fractions; treat it as
    read-only.  Arithmetic accepts ``int``/``Fraction`` scalars on either
    side and raises :class:`VarTableMismatch` when tables differ.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: VarTable, terms: "Mapping[tuple[int, ...], int | Fraction]"):
        clean = {}
        for exps, coeff in terms.items():
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if self.vars != other.vars:
                raise VarTableMismatch(
                    f"cannot mix polynomials over {self.vars!r} and {other.vars!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.vars.const(other)
        return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial(self.vars, _plus(dict(self.terms), rhs.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial(self.vars, _plus(dict(self.terms), rhs.terms, -1))

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial(self.vars, _plus(dict(rhs.terms), self.terms, -1))

    def __mul__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial(self.vars, _times(self.terms.items(), rhs.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        return Polynomial(self.vars, _power(self.terms, exponent, len(self.vars)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.vars.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<poly {format_poly(self)}>"


# -- term dicts ----------------------------------------------------------------
# {exponents: nonzero int or Fraction}, for the parser and Polynomial
# arithmetic.  A key whose sum cancels is dropped (and placed last if it
# comes back).


def _plus(f: dict, g: Mapping, sign: int = 1) -> dict:
    """f + sign * g, summed into f."""
    for e, c in g.items():
        s = f.get(e, 0) + sign * c
        if s:
            f[e] = s
        else:
            del f[e]
    return f


def _times(f, g) -> dict:
    """Product of two iterables of (exponents, coefficient) terms."""
    out: dict = {}
    get = out.get
    for e1, c1 in f:
        for e2, c2 in g:
            key = tuple(map(add, e1, e2))
            s = get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _power(f: Mapping, k: int, n: int) -> dict:
    """f ** k for a term dict in n variables, by square-and-multiply."""
    result: dict = {(0,) * n: 1}
    while k:
        if k & 1:
            result = _times(result.items(), f.items())
        k >>= 1
        if k:
            f = _times(f.items(), f.items())
    return result


# -- calculus and grading ---------------------------------------------------


def partial_derivative(f: Polynomial, i: int) -> Polynomial:
    """Partial derivative of ``f`` with respect to the i-th variable."""
    if not 0 <= i < len(f.vars):
        raise IndexError(f"variable index {i} out of range")
    out = {}
    for exps, coeff in f.terms.items():
        e = exps[i]
        if e:
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            out[key] = out.get(key, 0) + coeff * e
    return Polynomial(f.vars, out)


def homogeneous_weight(f: Polynomial) -> int | None:
    """The common weighted degree of the terms of ``f``.

    Returns None when ``f`` is zero or mixes degrees; zero is homogeneous of
    every weight, so callers that care must special-case it.
    """
    degrees = set(map(f.vars.weighted_degree, f.terms))
    return degrees.pop() if len(degrees) == 1 else None


def monomials_of_weight(vars: VarTable, w: int) -> "list[tuple[int, ...]]":
    """All exponent vectors of weighted degree exactly ``w``, lex ascending."""
    if w < 0:
        return []
    n = len(vars)
    weights = vars.weights
    out = []

    def rec(i: int, remaining: int, prefix: "tuple[int, ...]") -> None:
        if i == n - 1:
            q, r = divmod(remaining, weights[i])
            if r == 0:
                out.append(prefix + (q,))
            return
        for e in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - e * weights[i], prefix + (e,))

    rec(0, w, ())
    return out


# -- printing ----------------------------------------------------------------


def _format_magnitude(vars: VarTable, exps: "tuple[int, ...]", coeff: Fraction) -> str:
    factors: list[str] = []
    for name, e in zip(vars.names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return "*".join(factors)


def format_poly(f: Polynomial) -> str:
    """Canonical string form; ``parse_poly`` inverts it exactly."""
    if f.is_zero():
        return "0"
    chunks: list[str] = []
    wd = f.vars.weighted_degree
    # graded lex, descending
    for exps, coeff in sorted(f.terms.items(), key=lambda kv: (wd(kv[0]), kv[0]),
                              reverse=True):
        body = _format_magnitude(f.vars, exps, abs(coeff))
        if not chunks:
            chunks.append(f"-{body}" if coeff < 0 else body)
        else:
            chunks.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(chunks)


# -- parsing -----------------------------------------------------------------

_OPERATOR_CHARS = set("+-*^/()")

# Largest total degree a parsed expression may reach, and largest number of
# terms a product or power may expand to.  Both are checked before the
# product or power is expanded, since the time to expand it grows with the
# square of its number of terms, and that number grows fast with the degree
# and with the number of variables.
MAX_PARSE_DEGREE = 16
MAX_PARSE_TERMS = 2000

# Largest weight a document may give a variable: cochains start at minus the
# sum of the weights, and a window's sweep and shift scan grow with that sum.
MAX_PARSE_WEIGHT = 1000


def _tokenize(src: str) -> "list[tuple[str, str, int]]":
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch, j = src[i], i + 1
        if ch.isdecimal():
            kind = "num"
            while j < n and src[j].isdecimal():
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "name"
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
        elif ch in _OPERATOR_CHARS:
            kind = ch
        elif ch.isspace():
            i = j
            continue
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
        tokens.append((kind, src[i:j], i))
        i = j
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over: literals, variables, + - * ^, unary minus.

    Multiplication is never implicit and '^' takes a literal non-negative
    integer on the right.  '/' occurs only inside a rational literal.  Each
    rule returns a term dict; ``parse`` builds the one Polynomial.
    """

    def __init__(self, tokens: "list[tuple[str, str, int]]", vars: VarTable):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars
        self.constant = (0,) * len(vars)

    def peek(self) -> "tuple[str, str, int]":
        return self.tokens[self.pos]

    def advance(self) -> "tuple[str, str, int]":
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        try:
            terms = self.expression()
        except RecursionError:
            raise PolyParseError("expression nested too deeply",
                                 self.peek()[2]) from None
        kind, text, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {_shown(text)}", at)
        return Polynomial(self.vars, terms)

    def expression(self) -> dict:
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.term()
            node = _plus(node, rhs, 1 if op == "+" else -1)
        return node

    def term(self) -> dict:
        node = self.factor()
        while self.peek()[0] == "*":
            at = self.advance()[2]
            rhs = self.factor()
            degree = _total_degree(node) + _total_degree(rhs)
            _check_degree(degree, at)
            count = len(node) * len(rhs)
            if count > MAX_PARSE_TERMS:
                lowest = _lowest_degree(node) + _lowest_degree(rhs)
                _check_terms(min(count, _monomial_bound(lowest, degree, node, rhs)), at)
            node = _times(node.items(), rhs.items())
        return node

    def factor(self) -> dict:
        if self.peek()[0] == "-":
            self.advance()
            return _plus({}, self.factor(), -1)
        return self.power()

    def power(self) -> dict:
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
        degree = _total_degree(base) * k
        _check_degree(degree, at)
        count = comb(len(base) + k - 1, k) if base else 0
        if count > MAX_PARSE_TERMS:
            lowest = _lowest_degree(base) * k
            _check_terms(min(count, _monomial_bound(lowest, degree, base)), at)
        return _power(base, k, len(self.constant))

    def atom(self) -> dict:
        kind, text, at = self.peek()
        if kind == "num":
            self.advance()
            value = _int_literal(text, at)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dtext, dat = self.peek()
                if dkind != "num":
                    raise PolyParseError("expected integer denominator", dat)
                self.advance()
                denominator = _int_literal(dtext, dat)
                if denominator == 0:
                    raise PolyParseError("zero denominator", dat)
                value = Fraction(value, denominator)
            return {self.constant: value} if value else {}
        if kind == "name":
            self.advance()
            try:
                i = self.vars.index(text)
            except KeyError:
                raise PolyParseError(f"unknown variable {_shown(text)}", at) from None
            return {self.constant[:i] + (1,) + self.constant[i + 1:]: 1}
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


def _int_literal(text: str, at: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than sys.get_int_max_str_digits() allows
        raise PolyParseError(f"integer literal of {len(text)} digits is too long",
                             at) from None


def _total_degree(f: dict) -> int:
    return max(map(sum, f), default=0)


def _check_degree(degree: int, at: int) -> None:
    if degree > MAX_PARSE_DEGREE:
        raise PolyParseError(
            f"expression of total degree {degree} exceeds the bound "
            f"{MAX_PARSE_DEGREE}", at)


def _lowest_degree(f: dict) -> int:
    return min(map(sum, f))


def _monomial_bound(lowest: int, degree: int, *factors: dict) -> int:
    """Number of monomials of total degree from ``lowest`` to ``degree`` in
    the variables that occur in the factors' terms: a bound on the terms of
    their product."""
    v = len({i for f in factors for exps in f
             for i, e in enumerate(exps) if e})
    return comb(v + degree, v) - (comb(v + lowest - 1, v) if lowest else 0)


def _check_terms(bound: int, at: int) -> None:
    if bound > MAX_PARSE_TERMS:
        raise PolyParseError(
            f"expression of up to {bound} terms exceeds the bound "
            f"{MAX_PARSE_TERMS}", at)


def parse_poly(src: str, vars: VarTable) -> Polynomial:
    """Parse an expression over the given variables into a Polynomial.

    Expressions whose total degree would exceed ``MAX_PARSE_DEGREE``, and
    products or powers that could expand to more than ``MAX_PARSE_TERMS``
    terms, are refused with a ``PolyParseError`` before they are expanded.
    A product of factors with t1 and t2 terms has at most t1 * t2 terms, a
    power f^k at most C(t + k - 1, k) for f with t terms, and either at
    most as many as there are monomials in the variables that occur whose
    degrees lie between its lowest and highest possible degree.
    """
    return _Parser(_tokenize(src), vars).parse()
