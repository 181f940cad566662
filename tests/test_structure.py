import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poishom.catalog import CATALOG, get_entry
from poishom.polycore import (
    Polynomial,
    VarTable,
    homogeneous_weight,
    parse_poly,
    partial_derivative,
)
from poishom.specfile import SpecDocument
from poishom.structure import (
    JacobiViolation,
    NonHomogeneousError,
    OneForm,
    PoissonStructure,
    basis_form,
    differential,
)

from _oracles import (
    anchor_apply,
    biderivation_bracket,
    biderivation_jacobiator,
    biderivation_lr_bracket,
    biderivation_omega_action,
    biderivation_trace,
    document_dict,
    log_canonical_matrix,
    mixed_denominator_log_canonical,
    polynomial_jacobi_violation,
    polynomial_parse,
    polynomial_term_tables,
    random_log_canonical,
    random_polynomial,
    rational_jacobian,
    rational_log_canonical,
    weighted_rational,
)

XYZ = VarTable(("x", "y", "z"))


def structure(entries, vt=XYZ):
    parsed = {
        pair: parse_poly(src, vt) for pair, src in entries.items()
    }
    return PoissonStructure(vt, parsed)


# -- construction and validation ----------------------------------------------


def test_jacobi_rejection_carries_witness():
    with pytest.raises(JacobiViolation) as info:
        structure({(0, 1): "y", (1, 2): "z", (2, 0): "x"})
    exc = info.value
    assert exc.triple == (0, 1, 2)
    assert exc.jacobiator == parse_poly("-x - y - z", XYZ)
    assert "x" in str(exc)


# each message names the first failing triple and its Polynomial jacobiator;
# the second and fourth brackets have structure denominators 6 and 15
NON_POISSON = [
    (("x", "y", "z"), (1, 1, 1), {(0, 1): "y", (1, 2): "z", (2, 0): "x"},
     "jacobi identity fails on (x, y, z): jacobiator = -x - y - z"),
    (("x", "y", "z"), (1, 1, 1),
     {(0, 1): "1/2*z^2", (1, 2): "1/3*x*z", (2, 0): "y"},
     "jacobi identity fails on (x, y, z): jacobiator = -1/3*x*y"),
    (("x", "y", "z", "w"), (1, 1, 1, 1),
     {(0, 1): "z", (1, 2): "x", (2, 0): "y", (0, 3): "y*w"},
     "jacobi identity fails on (x, z, w): jacobiator = x*w"),
    (("x", "y", "z"), (1, 2, 3),
     {(0, 1): "2/3*x*y + z", (1, 2): "y*z", (0, 2): "-1/5*x*z"},
     "jacobi identity fails on (x, y, z): jacobiator = 4/5*z^2"),
]


@pytest.mark.parametrize("names, weights, entries, message", NON_POISSON)
def test_jacobi_rejection_text(names, weights, entries, message):
    vt = VarTable(names, weights)
    with pytest.raises(JacobiViolation) as info:
        structure(entries, vt)
    assert str(info.value) == message
    # the Polynomial-arithmetic check finds the same triple and jacobiator
    normalized = {}
    for (i, j), src in entries.items():
        p = parse_poly(src, vt)
        normalized[(min(i, j), max(i, j))] = p if i < j else -p
    triple, jacobiator = polynomial_jacobi_violation(vt, normalized)
    assert triple == info.value.triple
    assert list(jacobiator.terms.items()) == list(info.value.jacobiator.terms.items())


def test_entry_normalization():
    S = structure({(2, 0): "y"})
    assert S.entry(0, 2) == parse_poly("-y", XYZ)
    assert S.entry(2, 0) == parse_poly("y", XYZ)
    assert S.entry(0, 1).is_zero()
    assert S.entry(1, 1).is_zero()


def test_duplicate_and_diagonal_pairs_rejected():
    with pytest.raises(ValueError):
        PoissonStructure(XYZ, {(0, 0): XYZ.gen(1)})
    with pytest.raises(ValueError):
        PoissonStructure(
            XYZ, {(0, 1): XYZ.gen(2), (1, 0): XYZ.gen(2)}
        )


def test_refusal_messages(so3):
    ab = VarTable(("a", "b"))
    with pytest.raises(ValueError, match=r"^need one coefficient per variable$"):
        OneForm(XYZ, (XYZ.one(),))
    with pytest.raises(IndexError, match=r"^bracket key \(0, 3\) out of range$"):
        PoissonStructure(XYZ, {(0, 3): XYZ.gen(1)})
    with pytest.raises(ValueError, match=r"^bracket entry over a different variable table$"):
        PoissonStructure(XYZ, {(0, 1): ab.gen(0)})
    with pytest.raises(ValueError, match=r"^operands over a different variable table$"):
        so3.bracket(ab.gen(0), so3.vars.gen(0))
    with pytest.raises(ValueError, match=r"^forms over a different variable table$"):
        so3.lr_bracket(basis_form(ab, 0), basis_form(so3.vars, 0))
    with pytest.raises(IndexError, match=r"^variable index 3 out of range$"):
        so3.omega_h_action(so3.vars.gen(0), 3)


# -- bracket goldens ----------------------------------------------------------


def test_symplectic_bracket(symplectic):
    x, y = symplectic.vars.gens()
    m = x ** 2 * y
    assert symplectic.bracket(m, x) == -partial_derivative(m, 1)
    assert symplectic.bracket(m, y) == partial_derivative(m, 0)
    assert symplectic.bracket(x, y) == 1


def test_potential_bracket(potential):
    x, y, z = potential.vars.gens()
    assert potential.bracket(x ** 2, y) == -2 * x ** 3
    assert potential.bracket(x, z).is_zero()


def test_so3_casimir(so3):
    x, y, z = so3.vars.gens()
    c = x ** 2 + y ** 2 + z ** 2
    for g in so3.vars.gens():
        assert so3.bracket(c, g).is_zero()


# -- homogeneity detection ----------------------------------------------------


def test_degree_detection(symplectic, so3, potential, log2, trivial2):
    assert symplectic.homogeneity_degree == 0
    assert so3.homogeneity_degree == 1
    assert potential.homogeneity_degree == 2
    assert log2.homogeneity_degree == 2
    assert trivial2.homogeneity_degree == 2
    assert trivial2.weight_shift() == 0


@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_catalog_degree_is_the_detected_one(entry):
    # the catalog states each entry's degree; the structure detects its own
    assert entry.degree == entry.document.to_structure().homogeneity_degree


def test_weighted_degree_detection():
    vt = VarTable(("x", "y"), (1, 2))
    S = PoissonStructure(vt, {(0, 1): vt.gen(0) ** 2})
    assert S.homogeneity_degree == 1
    assert S.weight_shift() == -1


def test_inhomogeneous_structure_refused():
    vt = VarTable(("x", "y"))
    S = PoissonStructure(vt, {(0, 1): vt.gen(0) + 1})
    assert S.homogeneity_degree is None
    with pytest.raises(NonHomogeneousError):
        S.weight_shift()


def test_bracket_grading(so3):
    x, y, z = so3.vars.gens()
    shift = so3.weight_shift()
    f = x * y
    g = z ** 3
    b = so3.bracket(f, g)
    assert homogeneous_weight(b) == homogeneous_weight(f) + homogeneous_weight(g) + shift


# -- one-forms ----------------------------------------------------------------


def test_differential_and_basis_forms():
    x, y, z = XYZ.gens()
    df = differential(x * y)
    assert df == y * basis_form(XYZ, 0) + x * basis_form(XYZ, 1)
    assert differential(XYZ.one()).is_zero()


def test_lr_bracket_goldens(potential):
    vt = potential.vars
    x, y, z = vt.gens()
    dx, dy, dz = (basis_form(vt, i) for i in range(3))
    assert potential.lr_bracket(dz, dy) == 2 * x * dz + 2 * z * dx
    assert potential.lr_bracket(dy, dx) == 2 * x * dx
    assert anchor_apply(potential, x * dy, x) == x ** 3


def test_anchor_matches_bracket(so3):
    f = so3.vars.gen(0) * so3.vars.gen(1)
    g = so3.vars.gen(2) ** 2
    assert anchor_apply(so3, differential(f), g) == so3.bracket(f, g)


# -- traces and modular data --------------------------------------------------


def test_traces(potential, log2, so3):
    zero = potential.vars.zero()
    assert potential.modular_data().traces == (zero, zero, zero)
    assert potential.modular_data().unimodular

    x, y = log2.vars.gens()
    assert log2.modular_data().traces == (x, -y)
    assert not log2.modular_data().unimodular

    assert so3.modular_data().unimodular


def test_trace_matches_one_form_divergence(log3, so3, potential):
    # independent route: [d(y), d(x_i)] = d({y, x_i}), so summing the i-th
    # coefficient of that bracket over i recovers the trace
    rng = random.Random(7)
    for S in (log3, so3, potential):
        vt = S.vars
        for _ in range(5):
            y = random_polynomial(rng, vt)
            total = vt.zero()
            for i in range(len(vt)):
                image = S.lr_bracket(differential(y), basis_form(vt, i))
                total = total + image.coeffs[i]
            assert biderivation_trace(S, y) == total


def test_omega_action_goldens(log2):
    x, y = log2.vars.gens()
    one = log2.vars.one()
    assert log2.omega_h_action(y, 0).is_zero()
    assert log2.omega_h_action(one, 0) == x
    assert log2.omega_h_action(one, 1) == -y


def test_log_canonical_matrix(log2, log3u, so3, trivial2):
    assert log_canonical_matrix(log2) == [
        [Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(0)],
    ]
    mat = log_canonical_matrix(log3u)
    assert [sum(row, Fraction(0)) for row in mat] == [0, 0, 0]
    assert log_canonical_matrix(so3) is None
    vt = VarTable(("x", "y"))
    x, y = vt.gens()
    assert log_canonical_matrix(PoissonStructure(vt, {(0, 1): x * y + x ** 2})) is None
    assert log_canonical_matrix(PoissonStructure(vt, {(0, 1): 3 * x ** 2})) is None
    assert log_canonical_matrix(trivial2) == [
        [Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0)],
    ]


def test_log_canonical_traces_are_row_sums():
    rng = random.Random(3)
    for _ in range(8):
        S = random_log_canonical(rng, rng.randint(2, 5))
        mat = log_canonical_matrix(S)
        for i, t in enumerate(S.modular_data().traces):
            expected = sum(mat[i], Fraction(0)) * S.vars.gen(i)
            assert t == expected


# -- property tests -----------------------------------------------------------


@st.composite
def so3_pair(draw):
    vt = XYZ
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 31)))
    return random_polynomial(rng, vt), random_polynomial(rng, vt)


@given(so3_pair())
@settings(max_examples=40, deadline=None)
def test_bracket_axioms(so3, pair):
    f, g = pair
    x = so3.vars.gen(0)
    assert so3.bracket(f, g) == -so3.bracket(g, f)
    assert so3.bracket(f * g, x) == f * so3.bracket(g, x) + so3.bracket(f, x) * g


@given(so3_pair())
@settings(max_examples=25, deadline=None)
def test_jacobi_on_random_polys(so3, pair):
    f, g = pair
    h = so3.vars.gen(1) * so3.vars.gen(2)
    total = (
        so3.bracket(f, so3.bracket(g, h))
        + so3.bracket(g, so3.bracket(h, f))
        + so3.bracket(h, so3.bracket(f, g))
    )
    assert total.is_zero()


def random_one_form(rng, vt, max_degree=2):
    return OneForm(
        vt, tuple(random_polynomial(rng, vt, max_degree) for _ in range(len(vt)))
    )


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_lr_bracket_leibniz_rule(so3, seed):
    rng = random.Random(seed)
    vt = so3.vars
    f = random_polynomial(rng, vt, max_degree=2)
    a = random_one_form(rng, vt)
    b = random_one_form(rng, vt)
    left = so3.lr_bracket(a, f * b)
    right = f * so3.lr_bracket(a, b) + anchor_apply(so3, a, f) * b
    assert left == right


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_anchor_is_a_homomorphism(so3, seed):
    rng = random.Random(seed)
    vt = so3.vars
    a = random_one_form(rng, vt)
    b = random_one_form(rng, vt)
    f = random_polynomial(rng, vt, max_degree=2)
    left = anchor_apply(so3, so3.lr_bracket(a, b), f)
    right = (anchor_apply(so3, a, anchor_apply(so3, b, f))
             - anchor_apply(so3, b, anchor_apply(so3, a, f)))
    assert left == right


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_random_log_canonical_is_valid(seed, n):
    rng = random.Random(seed)
    S = random_log_canonical(rng, n)
    assert S.homogeneity_degree == 2
    mat = log_canonical_matrix(S)
    assert mat is not None
    for i in range(n):
        for j in range(n):
            assert mat[i][j] == -mat[j][i]


# -- the table-driven bracket against the biderivation formula ---------------


def _weighted_jacobian():
    # {x, y} = phi_z, {y, z} = phi_x, {z, x} = phi_y for a weighted phi with
    # rational coefficients; Jacobian brackets always satisfy Jacobi
    vt = VarTable(("x", "y", "z"), (1, 1, 2))
    phi = parse_poly("2/3*x^2*z - 1/2*z^2 + x*y^3", vt)
    return PoissonStructure(vt, {
        (0, 1): partial_derivative(phi, 2),
        (1, 2): partial_derivative(phi, 0),
        (2, 0): partial_derivative(phi, 1),
    })


ORACLE_STRUCTURES = [entry.document.to_structure() for entry in CATALOG]
# the last two have structure denominators 3 and 6, so the bracket's one
# division by D * L_f * L_g is checked where D > 1
ORACLE_STRUCTURES += [_weighted_jacobian(), weighted_rational(),
                      mixed_denominator_log_canonical()]
ORACLE_IDS = [entry.id for entry in CATALOG] + [
    "weighted-jacobian", "weighted-rational", "mixed-denominator-log-canonical"]


@pytest.mark.parametrize("S", ORACLE_STRUCTURES, ids=ORACLE_IDS)
def test_integer_jacobi_check_accepts_poisson_structures(S):
    # construction ran the int check; the biderivation jacobiators agree
    S._check_jacobi()
    for triple in combinations(range(len(S.vars)), 3):
        assert biderivation_jacobiator(S, *triple).is_zero(), triple


@pytest.mark.parametrize("S", ORACLE_STRUCTURES, ids=ORACLE_IDS)
def test_bracket_matches_biderivation_oracle(S):
    vt = S.vars
    rng = random.Random(11)
    operands = [vt.zero(), vt.const(Fraction(-3, 2)), *vt.gens()]
    operands += [random_polynomial(rng, vt) for _ in range(6)]
    for f in operands:
        for g in operands:
            assert S.bracket(f, g) == biderivation_bracket(S, f, g), (f, g)
    for y in operands:
        for i in range(len(vt)):
            assert S.omega_h_action(y, i) == biderivation_omega_action(S, y, i)
    for _ in range(4):
        a, b = random_one_form(rng, vt), random_one_form(rng, vt)
        assert S.lr_bracket(a, b) == biderivation_lr_bracket(S, a, b)


@pytest.mark.parametrize("S", ORACLE_STRUCTURES, ids=ORACLE_IDS)
def test_tables_match_direct_derivatives(S):
    # the tables hold D times each polynomial; partials only for i < j
    tables = S.term_tables()
    vt, d = S.vars, tables.denominator
    ell = len(vt)
    for i in range(ell):
        assert tables.generator_traces[i] == biderivation_trace(S, S.gens[i])
        assert S.modular_data().traces[i] == tables.generator_traces[i]
        assert Polynomial(vt, dict(tables.traces[i])) == d * tables.generator_traces[i]
        for j in range(ell):
            if i >= j:
                assert (i, j) not in tables.partials
                continue
            derivs = [(k, partial_derivative(S.entry(i, j), k)) for k in range(ell)]
            got = tuple((k, Polynomial(vt, dict(terms)) * Fraction(1, d))
                        for k, terms in tables.partials.get((i, j), ()))
            assert got == tuple((k, dk) for k, dk in derivs if dk)


# -- the int term tables against Polynomial arithmetic ------------------------

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _oracle_structure(text):
    """The structure of a document's JSON text, every bracket parsed by the
    Polynomial-arithmetic parser."""
    doc = SpecDocument.from_json(text)
    data = json.loads(text)
    if "bracket" not in data:
        return doc.to_structure()
    vt = doc.vars
    return PoissonStructure(vt, {
        tuple(vt.index(name.strip()) for name in key.split(",")):
            polynomial_parse(expr, vt)
        for key, expr in data["bracket"].items()})


def assert_tables_match_oracle(S):
    got, want = S.term_tables(), polynomial_term_tables(S.vars, S.entries)
    for name in ("denominator", "entries", "anchor", "partials", "traces"):
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.entries) == list(want.entries)
    assert list(got.partials) == list(want.partials)
    # equal Polynomials, with their terms in the same order
    assert [list(t.terms.items()) for t in got.generator_traces] == \
        [list(t.terms.items()) for t in want.generator_traces]


@pytest.mark.parametrize("S", ORACLE_STRUCTURES, ids=ORACLE_IDS)
def test_term_tables_match_polynomial_oracle(S):
    assert_tables_match_oracle(S)


# the shipped documents as they are, and the catalog entries as printed
DOCUMENT_TEXTS = (
    [(f"docs/{path.name}", path.read_text(encoding="utf-8"))
     for path in sorted(DOCS.glob("*.json"))]
    + [(entry.id, json.dumps(document_dict(entry.document))) for entry in CATALOG])


@pytest.mark.parametrize("text", [text for _, text in DOCUMENT_TEXTS],
                         ids=[name for name, _ in DOCUMENT_TEXTS])
def test_documents_match_polynomial_oracle(text):
    # the whole set-up, document text to term tables, against the
    # Polynomial-arithmetic parser and table build
    S, oracle = SpecDocument.from_json(text).to_structure(), _oracle_structure(text)
    assert [(key, list(p.terms.items())) for key, p in S.entries.items()] == \
        [(key, list(p.terms.items())) for key, p in oracle.entries.items()]
    assert_tables_match_oracle(S)


@given(st.integers(0, 2 ** 31), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_log_canonical_tables_match_polynomial_oracle(seed, n):
    assert_tables_match_oracle(rational_log_canonical(random.Random(seed), n))


@given(st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_jacobian_tables_match_polynomial_oracle(seed):
    assert_tables_match_oracle(rational_jacobian(random.Random(seed)))


# one catalog bracket changed, so that Jacobi fails
MUTATED = [("so3", (0, 1), "x*y"), ("potential-x2z", (0, 1), "1/2*y^2"),
           ("log-canonical-3", (0, 2), "x*y"), ("log-canonical-3u", (1, 2), "1/2*y^2")]


@pytest.mark.parametrize("entry, pair, extra", MUTATED,
                         ids=[entry for entry, _, _ in MUTATED])
def test_jacobi_violation_matches_polynomial_oracle(entry, pair, extra):
    S = get_entry(entry).document.to_structure()
    entries = dict(S.entries)
    entries[pair] = entries.get(pair, S.vars.zero()) + parse_poly(extra, S.vars)
    want = polynomial_jacobi_violation(S.vars, entries)
    assert want is not None
    with pytest.raises(JacobiViolation) as info:
        PoissonStructure(S.vars, entries)
    triple, jacobiator = want
    assert info.value.triple == triple
    assert list(info.value.jacobiator.terms.items()) == list(jacobiator.terms.items())
    assert str(info.value) == str(JacobiViolation(*triple, jacobiator))
