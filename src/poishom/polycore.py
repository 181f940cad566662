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
from typing import Mapping, Sequence, Union

__all__ = [
    "Scalar",
    "Monomial",
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

Scalar = Union[int, Fraction]
Monomial = "tuple[int, ...]"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PolyParseError(ValueError):
    """Malformed polynomial expression.  Carries the 0-based source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VarTableMismatch(ValueError):
    """Operands belong to different variable tables."""


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
                raise ValueError(f"invalid variable name {name!r}")
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
            raise KeyError(f"unknown variable {name!r}") from None

    def weighted_degree(self, exponents: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(exponents, self.weights))

    # -- polynomial factories ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self): Fraction(value)})

    def gen(self, i: int) -> "Polynomial":
        """The i-th variable as a polynomial (0-based)."""
        if not 0 <= i < len(self):
            raise IndexError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(len(self)))
        return Polynomial(self, {exps: _ONE})

    def gens(self) -> "tuple[Polynomial, ...]":
        return tuple(self.gen(i) for i in range(len(self)))

    def monomial(self, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
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

    def __init__(self, vars: VarTable, terms: Mapping["tuple[int, ...]", Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            c = Fraction(coeff)
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

    def sorted_terms(self) -> "list[tuple[tuple[int, ...], Fraction]]":
        """Terms in the canonical printing order (graded lex, descending)."""
        wd = self.vars.weighted_degree
        return sorted(self.terms.items(), key=lambda kv: (wd(kv[0]), kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise VarTableMismatch(
                f"cannot mix polynomials over {self.vars!r} and {other.vars!r}"
            )

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.vars.const(other)
        return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in rhs.terms.items():
            s = out.get(exps, _ZERO) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.vars.zero()
            return Polynomial(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key, _ZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Polynomial(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        result = self.vars.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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


# -- calculus and grading ---------------------------------------------------


def partial_derivative(f: Polynomial, i: int) -> Polynomial:
    """Partial derivative of ``f`` with respect to the i-th variable."""
    if not 0 <= i < len(f.vars):
        raise IndexError(f"variable index {i} out of range")
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in f.terms.items():
        e = exps[i]
        if e:
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            out[key] = out.get(key, _ZERO) + coeff * e
    return Polynomial(f.vars, out)


def homogeneous_weight(f: Polynomial) -> int | None:
    """The common weighted degree of the terms of ``f``.

    Returns None when ``f`` is zero or mixes degrees; zero is homogeneous of
    every weight, so callers that care must special-case it.
    """
    if f.is_zero():
        return None
    wd = f.vars.weighted_degree
    degrees = {wd(e) for e in f.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def monomials_of_weight(vars: VarTable, w: int) -> "list[tuple[int, ...]]":
    """All exponent vectors of weighted degree exactly ``w``, lex ascending."""
    if w < 0:
        return []
    n = len(vars)
    weights = vars.weights
    out: list[tuple[int, ...]] = []

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
    for exps, coeff in f.sorted_terms():
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
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over: literals, variables, + - * ^, unary minus.

    Multiplication is never implicit and '^' takes a literal non-negative
    integer on the right.  '/' occurs only inside a rational literal.
    """

    def __init__(self, tokens: "list[tuple[str, str, int]]", vars: VarTable):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars

    def peek(self) -> "tuple[str, str, int]":
        return self.tokens[self.pos]

    def advance(self) -> "tuple[str, str, int]":
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        try:
            poly = self.expression()
        except RecursionError:
            raise PolyParseError("expression nested too deeply",
                                 self.peek()[2]) from None
        kind, text, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {text!r}", at)
        return poly

    def expression(self) -> Polynomial:
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Polynomial:
        node = self.factor()
        while self.peek()[0] == "*":
            at = self.advance()[2]
            rhs = self.factor()
            degree = _total_degree(node) + _total_degree(rhs)
            _check_degree(degree, at)
            count = len(node.terms) * len(rhs.terms)
            if count > MAX_PARSE_TERMS:
                lowest = _lowest_degree(node) + _lowest_degree(rhs)
                _check_terms(min(count, _monomial_bound(lowest, degree, node, rhs)), at)
            node = node * rhs
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
        degree = _total_degree(base) * k
        _check_degree(degree, at)
        count = comb(len(base.terms) + k - 1, k) if base.terms else 0
        if count > MAX_PARSE_TERMS:
            lowest = _lowest_degree(base) * k
            _check_terms(min(count, _monomial_bound(lowest, degree, base)), at)
        return base ** k

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
                raise PolyParseError(f"unknown variable {text!r}", at) from None
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
        raise PolyParseError(f"unexpected {text!r}", at)


def _int_literal(text: str, at: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than sys.get_int_max_str_digits() allows
        raise PolyParseError(f"integer literal of {len(text)} digits is too long",
                             at) from None


def _total_degree(f: Polynomial) -> int:
    return max((sum(exps) for exps in f.terms), default=0)


def _check_degree(degree: int, at: int) -> None:
    if degree > MAX_PARSE_DEGREE:
        raise PolyParseError(
            f"expression of total degree {degree} exceeds the bound "
            f"{MAX_PARSE_DEGREE}", at)


def _lowest_degree(f: Polynomial) -> int:
    return min(sum(exps) for exps in f.terms)


def _monomial_bound(lowest: int, degree: int, *factors: Polynomial) -> int:
    """Number of monomials of total degree from ``lowest`` to ``degree`` in
    the variables that occur in the factors: a bound on the terms of their
    product."""
    v = len({i for f in factors for exps in f.terms
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
