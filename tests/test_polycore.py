from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poishom.polycore import (
    PolyParseError,
    Polynomial,
    VarTable,
    VarTableMismatch,
    format_poly,
    homogeneous_weight,
    monomials_of_weight,
    parse_poly,
    partial_derivative,
)

from _oracles import (
    polynomial_parse,
    polynomial_power,
    polynomial_product,
    polynomial_sum,
)

XY = VarTable(("x", "y"))
XYW = VarTable(("x", "y"), (1, 2))


def poly(src, vt=XY):
    return parse_poly(src, vt)


# -- variable tables ----------------------------------------------------------


def test_vartable_basics():
    assert len(XY) == 2
    assert XY.names == ("x", "y")
    assert XY.weights == (1, 1)
    assert XY.index("y") == 1
    with pytest.raises(KeyError):
        XY.index("z")


def test_vartable_rejects_bad_input():
    with pytest.raises(ValueError):
        VarTable(("x", "x"))
    with pytest.raises(ValueError):
        VarTable(("2bad",))
    with pytest.raises(ValueError):
        VarTable(("x",), (0,))
    with pytest.raises(ValueError):
        VarTable(("x", "y"), (1,))


def test_refusal_messages():
    with pytest.raises(ValueError, match=r"^variable table needs at least one variable$"):
        VarTable(())
    with pytest.raises(IndexError, match=r"^variable index 2 out of range$"):
        XY.gen(2)
    with pytest.raises(ValueError, match=r"^bad exponent vector \(1,\)$"):
        XY.monomial((1,))
    with pytest.raises(ValueError, match=r"^bad exponent vector \(1, -1\)$"):
        XY.monomial((1, -1))


def test_vartable_is_immutable():
    with pytest.raises(AttributeError):
        XY.names = ("a", "b")


def test_polynomial_is_immutable_and_takes_only_rational_operands():
    x = XY.gen(0)
    with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
        x.terms = {}
    with pytest.raises(TypeError):
        x + 0.5


# -- arithmetic ---------------------------------------------------------------


def test_ring_goldens():
    x, y = XY.gens()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x - x == 0
    assert (x + 1) * (x - 1) == x * x - 1
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
    assert x ** 0 == 1
    assert not (x - x)
    assert bool(x)


def test_mixed_tables_rejected():
    x = XY.gen(0)
    u = VarTable(("u",)).gen(0)
    with pytest.raises(VarTableMismatch):
        x + u
    with pytest.raises(VarTableMismatch):
        x * u


def test_coefficient_lookup():
    # a coefficient is read off the terms by its exponent tuple; absent
    # terms are zero
    f = poly("3*x^2*y - 1/2")
    assert f.terms == {(2, 1): 3, (0, 0): Fraction(-1, 2)}
    assert f.terms.get((5, 0), 0) == 0


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        XY.gen(0) ** -1


def test_power_is_repeated_product():
    f = poly("x - 2/3*y + 1")
    product = XY.one()
    for k in range(10):
        assert f ** k == product, k
        product = product * f


# -- derivatives and grading --------------------------------------------------


def test_partial_derivative_goldens():
    f = poly("x^3*y + 2*y^2")
    assert partial_derivative(f, 0) == poly("3*x^2*y")
    assert partial_derivative(f, 1) == poly("x^3 + 4*y")
    with pytest.raises(IndexError):
        partial_derivative(f, 2)


def top_degree(f):
    """The largest weighted degree among the terms of a nonzero f."""
    return max(map(f.vars.weighted_degree, f.terms))


def test_weighted_degree():
    assert top_degree(poly("x^2*y + y^2")) == 3
    assert XY.weighted_degree((2, 1)) == 3
    f = parse_poly("x^2 + y", XYW)
    assert top_degree(f) == 2
    assert homogeneous_weight(f) == 2
    assert homogeneous_weight(parse_poly("x + y", XYW)) is None
    assert homogeneous_weight(XYW.zero()) is None


def test_monomials_of_weight_counts():
    assert [len(monomials_of_weight(XY, w)) for w in range(5)] == [1, 2, 3, 4, 5]
    assert monomials_of_weight(XY, -1) == []
    # weight-2 monomials when y itself has weight 2
    assert sorted(monomials_of_weight(XYW, 2)) == [(0, 1), (2, 0)]


def test_monomials_are_sorted_and_unique():
    monos = monomials_of_weight(VarTable(("x", "y", "z")), 4)
    assert monos == sorted(monos)
    assert len(set(monos)) == len(monos)


# -- formatting and parsing ---------------------------------------------------


def test_format_goldens():
    assert format_poly(XY.zero()) == "0"
    assert format_poly(poly("x^2 - 3/2*y")) == "x^2 - 3/2*y"
    assert format_poly(poly("-x")) == "-x"
    assert format_poly(poly("y + x")) == "x + y"
    assert format_poly(XY.const(Fraction(5, 3))) == "5/3"


def test_parse_goldens():
    x, y = XY.gens()
    assert poly("x*y - 2") == x * y - 2
    assert poly("-(x + y)^2") == -((x + y) ** 2)
    assert poly("1/2 * x") == Fraction(1, 2) * x
    assert poly("0") == XY.zero()
    # a decimal digit of any script is a digit, as int() reads it
    assert poly("x^\u0663 + \u0661\u0662*y") == x ** 3 + 12 * y


# x and y, plus six more variables for expressions with many terms
WIDE = VarTable(("x", "y", "a", "b", "c", "d", "e", "f"))


@pytest.mark.parametrize(
    "src",
    ["x +", "z", "x^y", "x^-2", "1/0", "(x", "x & y", "x^1/2",
     "x^17", "(x + y)^9*(x - y)^8", "x^9*y^8",
     # within the degree bound, above the term bound
     "(a+b+c+d+e+f)^16", "(a+b+c+d+e)^16", "(x+y+a+b+c+d+e+f)^7",
     "(a+b+c+d+e+f)^6*(a+b+c+d+e+f)^6", "x*(a+b+c+d+e+f)^5*(x+y+a+b)^5"],
)
def test_parse_errors(src):
    with pytest.raises(PolyParseError):
        poly(src, WIDE)


def test_term_bound_admits_what_it_bounds():
    # C(19, 3) = 969 and C(13, 5) = 1287 terms, both under MAX_PARSE_TERMS
    assert len(poly("(a+b+c+d)^16", WIDE).terms) == 969
    assert len(poly("(a+b+c+d+e+f)^4*(a+b+c+d+e+f)^4", WIDE).terms) == 1287
    assert poly("(a*b*c*d)^2*x^8", WIDE) == poly("a^2*b^2*c^2*d^2*x^8", WIDE)


@pytest.mark.parametrize("src, message", [
    ("1/x", "expected integer denominator (at position 2)"),
    ("x y", "unexpected 'y' (at position 2)"),  # after a whole expression
    ("*x", "unexpected '*' (at position 0)"),  # where a factor should start
    ("x*q", "unknown variable 'q' (at position 2)"),
    # a superscript is a digit to str.isdigit() but not to int()
    ("x^\u00b2", "unexpected character '\u00b2' (at position 2)"),
    ("x*y^\u00b9\u00b2", "unexpected character '\u00b9' (at position 4)"),
    # an overlong name is cut to the start of its repr and its length
    pytest.param("x*" + "q" * 5000, "unknown variable 'qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq... "
                 "(5000 characters) (at position 2)", id="overlong-name"),
])
def test_parse_error_messages(src, message):
    with pytest.raises(PolyParseError) as info:
        poly(src)
    assert str(info.value) == message


def test_parse_error_position():
    try:
        poly("x + q")
    except PolyParseError as exc:
        assert exc.position == 4
    else:
        pytest.fail("expected a parse error")


# -- property tests -----------------------------------------------------------


@st.composite
def polynomials(draw, vt=XY, max_degree=3):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(
                    *(st.integers(min_value=0, max_value=max_degree)
                      for _ in range(len(vt)))
                ),
                st.fractions(min_value=-9, max_value=9, max_denominator=4),
            ),
            max_size=4,
        )
    )
    out = vt.zero()
    for exps, c in terms:
        out = out + vt.monomial(exps, c)
    return out


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f + XY.zero() == f
    assert f * XY.one() == f
    assert f - f == XY.zero()


@given(polynomials(), polynomials())
def test_derivative_is_a_derivation(f, g):
    for i in range(2):
        left = partial_derivative(f * g, i)
        right = partial_derivative(f, i) * g + f * partial_derivative(g, i)
        assert left == right


@given(polynomials())
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f), XY) == f


@given(polynomials(), polynomials())
def test_degree_is_multiplicative(f, g):
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert top_degree(f * g) == top_degree(f) + top_degree(g)


# -- the term-dict parser and product kernel against Polynomial arithmetic ----

XYZ = VarTable(("x", "y", "z"), (1, 2, 1))

ATOMS = st.one_of(
    st.sampled_from(("x", "y", "z")),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(1, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from((" + ", " - ", "*")), children)
        .map("".join),
        st.tuples(children, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda e: f"-{e}"),
        children.map(lambda e: f"({e})"),
    )


EXPRESSIONS = st.recursive(ATOMS, _combine, max_leaves=12)


def parse_outcome(parse, src, vt):
    """(terms in order, None) of a parse, or (None, (message, position))."""
    try:
        return list(parse(src, vt).terms.items()), None
    except PolyParseError as exc:
        return None, (str(exc), exc.position)


@given(EXPRESSIONS)
@settings(max_examples=300, deadline=None)
def test_parser_matches_polynomial_oracle(src):
    # sums, products, powers of sums, nested unary minus and rational
    # literals; a refusal by a bound must match too
    assert parse_outcome(parse_poly, src, XYZ) == parse_outcome(polynomial_parse, src, XYZ)


@given(st.text(alphabet="xyq019/+-*^() ", max_size=14))
@settings(max_examples=300, deadline=None)
def test_parser_errors_match_polynomial_oracle(src):
    assert parse_outcome(parse_poly, src, XYZ) == parse_outcome(polynomial_parse, src, XYZ)


@pytest.mark.parametrize("src", [
    "x - x", "(x - y)*(x + y) + y^2", "-(-(-x))", "x*-y - -z", "(x + 1/2)^0",
    "(1/2*x - 2/3*y)^3 - (1/2*x)^3", "0*x + 0", "(x - x)^3", "3/6*y",
    "(x+y)^400", "(a+b+c+d+e+f)^16", "(a+b+c+d+e)^16", "(x + y + a + b + c + d + e + f)^7",
    "x*(a+b+c+d+e+f)^5*(x+y+a+b)^5", "(a+b+c+d)^16", "x^17", "1/x", "x y", "*x",
    "(" * 2000 + "x" + ")" * 2000, "x*" + "q" * 5000, "x " + "y" * 5000,
    "x^\u00b2", "x^\u0663", "\u0661/\u0662*y",
])
def test_parser_matches_polynomial_oracle_on_edge_cases(src):
    assert parse_outcome(parse_poly, src, WIDE) == parse_outcome(polynomial_parse, src, WIDE)


@given(polynomials(XYZ), polynomials(XYZ), st.integers(0, 5))
def test_products_match_the_term_loop(f, g, k):
    # equal term by term and in order: the order of a bracket's terms is the
    # order of its term tables
    assert list((f * g).terms.items()) == list(polynomial_product(f, g).terms.items())
    assert list((f ** k).terms.items()) == list(polynomial_power(f, k).terms.items())
    assert list((f + g).terms.items()) == list(polynomial_sum(f, g).terms.items())
    assert list((f - g).terms.items()) == list(polynomial_sum(f, g, -1).terms.items())
    c = Fraction(-3, 2)
    assert list((c - f).terms.items()) == \
        list(polynomial_sum(XYZ.const(c), f, -1).terms.items())
    assert list((c * f).terms.items()) == \
        list(polynomial_product(f, XYZ.const(c)).terms.items())
