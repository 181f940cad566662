import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poishom import complexes, envelope
from poishom.catalog import CATALOG, catalog_ids, get_entry
from poishom.envelope import (
    ConfluenceFailure,
    EnvelopeElement,
    ModuleMismatch,
    NuReport,
    RelationViolation,
    confluence_check,
    gr_dimension_check,
    ham,
    j_quotient_action,
    nu_check,
    poly_atom,
    reduce_combination,
    reduce_word,
    right_module_residue,
)
from poishom.polycore import Polynomial, VarTable
from poishom.specfile import SpecDocument
from poishom.structure import (PoissonStructure, _packed, _reduce, _rules, _shifts,
                               _unpacked, int_terms)

from _oracles import (
    ambiguities,
    doubled_counts,
    filtration_degree,
    fraction_nu_relations,
    mixed_denominator_log_canonical,
    multiply,
    plans_square_to_zero,
    polynomial_atom_reduce,
    polynomial_element,
    polynomial_module_residue,
    random_log_canonical,
    random_polynomial,
    rational_jacobian,
    rational_log_canonical,
    sample_poly,
    sample_word,
    tuple_reduce,
    tuple_sample_poly,
    tuple_sample_word,
    weighted_rational,
)
from test_complexes import weighted_structures


def elem(S, *word):
    return reduce_word(S, word)


def _decoded(terms, n):
    """{(x exponents, h exponents): v} of packed normal-form terms in n
    variables, whose keys hold the symbol digits above the x digits."""
    def digits(key, low):
        return tuple(key >> (32 * (low + n - 1 - i)) & 0xFFFFFFFF for i in range(n))
    return {(digits(key, 0), digits(key, n)): v for key, v in terms.items()}


def _packed_rules(S):
    """The packed rewriting rules of S's term tables as they stand."""
    return _rules(S.term_tables(), _shifts(len(S.vars)))


# -- normal form goldens -------------------------------------------------------


def test_symplectic_commutation_golden(symplectic):
    x, y = symplectic.vars.gens()
    got = elem(symplectic, ham(1), poly_atom(x))
    # x h(y) - 1
    want = EnvelopeElement(symplectic.vars, {((1, 0), (0, 1)): 1, ((0, 0), (0, 0)): -1})
    assert got == want
    assert filtration_degree(got) == 1
    assert got.terms[((0, 0), (0, 0))] == -1


def test_log2_commutation_golden(log2):
    y = log2.vars.gen(1)
    got = elem(log2, ham(0), poly_atom(y))
    # y h(x) + x y
    assert got == EnvelopeElement(log2.vars, {((0, 1), (1, 0)): 1, ((1, 1), (0, 0)): 1})


def test_so3_symbol_swap_golden(so3):
    # h(z) h(x) picks up the derivative of {z, x} = y
    got = elem(so3, ham(2), ham(0))
    # h(x) h(z) + h(y)
    want = EnvelopeElement(so3.vars, {((0, 0, 0), (1, 0, 1)): 1, ((0, 0, 0), (0, 1, 0)): 1})
    assert got == want


def test_polynomials_merge(so3):
    x, y, z = so3.vars.gens()
    got = elem(so3, poly_atom(x + y), poly_atom(x - y))
    assert got == polynomial_element(x * x - y * y)


def test_empty_word_is_identity(so3):
    one = reduce_word(so3, ())
    assert one == polynomial_element(so3.vars.one())
    e = elem(so3, ham(0))
    assert multiply(so3, one, e) == e
    assert multiply(so3, e, one) == e


def test_zero_polynomial_annihilates(so3):
    assert reduce_word(so3, (poly_atom(so3.vars.zero()), ham(1))).is_zero()
    assert reduce_combination(so3, []).is_zero()


def test_commutator_with_polynomial_is_the_bracket(so3, log3):
    rng = random.Random(2)
    for S in (so3, log3):
        for i in range(len(S.vars)):
            f = random_polynomial(rng, S.vars)
            left = reduce_combination(
                S,
                [
                    (Fraction(1), (ham(i), poly_atom(f))),
                    (Fraction(-1), (poly_atom(f), ham(i))),
                ],
            )
            want = polynomial_element(S.bracket(S.vars.gen(i), f))
            assert left == want


def test_str_rendering(log2):
    e = elem(log2, ham(0), poly_atom(log2.vars.gen(1)))
    assert str(e) == "x*y + y*h(x)"
    assert str(EnvelopeElement(log2.vars, {})) == "0"


# -- strategy independence and algebra laws -------------------------------------


def test_strategies_agree_on_goldens(so3, log3):
    for S in (so3, log3):
        word = (ham(2), ham(1), ham(0), poly_atom(S.vars.gen(0)))
        left = reduce_combination(S, [(Fraction(1), word)], "leftmost")
        right = reduce_combination(S, [(Fraction(1), word)], "rightmost")
        assert left == right


def test_unknown_strategy_rejected(so3):
    for parts in ([(Fraction(1), (ham(0), ham(1)))], [],
                  [(Fraction(1), (poly_atom(so3.vars.zero()),))]):
        with pytest.raises(ValueError, match="sideways"):
            reduce_combination(so3, parts, strategy="sideways")


def test_atom_over_another_table_rejected(so3):
    foreign = VarTable(("a", "b")).gen(0)
    with pytest.raises(ValueError, match="variable table"):
        reduce_word(so3, (poly_atom(foreign),))
    with pytest.raises(ValueError, match="variable table"):
        reduce_word(so3, (ham(0), poly_atom(foreign)))


@pytest.mark.parametrize("word, i", [((ham(-1), ham(0)), -1), ((ham(7),), 7),
                                     ((ham(0), ham(3)), 3)])
def test_symbol_index_out_of_range_rejected(so3, word, i):
    # an index is checked against the table, not read from the end of a list
    with pytest.raises(IndexError, match=rf"^variable index {i} out of range$"):
        reduce_word(so3, word)


def test_unknown_atom_kind_rejected(so3):
    with pytest.raises(ValueError, match=r"^unknown atom kind 'q'$"):
        reduce_word(so3, (("q", 1),))


@pytest.mark.parametrize("i", [-1, 3, 7])
def test_j_quotient_action_refuses_an_index_as_omega_h_action_does(log3, i):
    x = log3.vars.gen(0)
    with pytest.raises(IndexError, match=rf"^variable index {i} out of range$"):
        log3.omega_h_action(x, i)
    with pytest.raises(IndexError, match=rf"^variable index {i} out of range$"):
        j_quotient_action(log3, x, i)


def test_confluence_on_catalog(symplectic, so3, potential, log3):
    for S in (symplectic, so3, potential, log3):
        assert confluence_check(S, samples=60, seed=1) == 60


def test_confluence_catches_a_corrupted_symbol_rule():
    S = get_entry("so3").document.to_structure()
    assert confluence_check(S, samples=60) == 60
    partials = S.term_tables().partials
    (k, terms), = partials[(0, 1)]  # h(y) h(x) -> h(x) h(y) - h(z)
    partials[(0, 1)] = ((k, tuple((e, 2 * c) for e, c in terms)),)
    with pytest.raises(ConfluenceFailure):
        confluence_check(S, samples=60)


def test_confluence_failure_carries_public_words_and_elements():
    S = get_entry("so3").document.to_structure()
    partials = S.term_tables().partials
    (k, terms), = partials[(0, 1)]
    partials[(0, 1)] = ((k, tuple((e, 2 * c) for e, c in terms)),)
    with pytest.raises(ConfluenceFailure) as info:
        confluence_check(S, samples=60)
    exc = info.value
    assert type(exc.word) is tuple and exc.word
    for atom in exc.word:
        assert atom[0] in ("h", "p")
        if atom[0] == "h":
            assert type(atom[1]) is int
        else:
            assert type(atom[1]) is Polynomial and atom[1].vars == S.vars
    assert type(exc.left) is EnvelopeElement and type(exc.right) is EnvelopeElement
    assert exc.left != exc.right
    assert reduce_combination(S, [(1, exc.word)], "leftmost") == exc.left
    assert reduce_combination(S, [(1, exc.word)], "rightmost") == exc.right
    # the failing word is one the check drew, spelled with rational atoms
    oracle = random.Random(0)
    assert exc.word in [sample_word(oracle, S.vars) for _ in range(60)]


def test_module_mismatch_carries_polynomials():
    S = get_entry("log-canonical-3").document.to_structure()
    tables = S.term_tables()
    doubled = tuple(tuple((e, 2 * c) for e, c in t) for t in tables.traces)
    object.__setattr__(tables, "traces", doubled)
    with pytest.raises(ModuleMismatch) as info:
        nu_check(S, samples=20)
    exc = info.value
    for poly in (exc.sample, exc.got, exc.want):
        assert type(poly) is Polynomial and poly.vars == S.vars
    assert exc.got == S.omega_h_action(exc.sample, exc.index) != exc.want


@pytest.mark.parametrize("call, name", [
    (lambda S: confluence_check(S, samples=-3), "samples"),
    (lambda S: nu_check(S, samples=-1), "samples"),
    (lambda S: gr_dimension_check(S, max_filtration=-1), "max_filtration"),
    (lambda S: gr_dimension_check(S, max_weight=-3), "max_weight"),
], ids=["confluence-samples", "nu-samples", "gr-max-filtration", "gr-max-weight"])
def test_sample_arguments_are_refused(log3, call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be at least"):
        call(log3)


def test_confluence_words_have_no_length_knob(log3):
    with pytest.raises(TypeError, match="max_len"):
        confluence_check(log3, samples=5, max_len=3)


def test_smallest_sample_arguments(log3):
    assert confluence_check(log3, samples=0) == 0
    assert nu_check(log3, samples=0).module_samples == 0
    assert gr_dimension_check(log3, max_filtration=0, max_weight=0) == {(0, 0): 1}


def test_multiply_is_associative(so3):
    rng = random.Random(9)
    for _ in range(5):
        a = reduce_word(so3, tuple(_random_atoms(rng, so3, 3)))
        b = reduce_word(so3, tuple(_random_atoms(rng, so3, 2)))
        c = reduce_word(so3, tuple(_random_atoms(rng, so3, 2)))
        assert multiply(so3, multiply(so3, a, b), c) == multiply(
            so3, a, multiply(so3, b, c)
        )


def _random_atoms(rng, S, count):
    for _ in range(count):
        if rng.random() < 0.5:
            yield ham(rng.randrange(len(S.vars)))
        else:
            yield poly_atom(random_polynomial(rng, S.vars, max_degree=2))


def test_filtration_is_submultiplicative(so3):
    rng = random.Random(4)
    for _ in range(6):
        a = reduce_word(so3, tuple(_random_atoms(rng, so3, 3)))
        b = reduce_word(so3, tuple(_random_atoms(rng, so3, 3)))
        p = multiply(so3, a, b)
        if a.is_zero() or b.is_zero() or p.is_zero():
            continue
        assert filtration_degree(p) <= filtration_degree(a) + filtration_degree(b)


# -- graded dimension count ------------------------------------------------------


def test_gr_small_golden(symplectic):
    table = gr_dimension_check(symplectic, max_filtration=2, max_weight=3)
    assert table[(0, 0)] == 1
    assert table[(1, 1)] == 2  # h(x) and h(y) with constant coefficient
    assert table[(1, 2)] == 4
    assert table[(2, 2)] == 3


def test_gr_on_catalog(so3, potential, log3u):
    for S in (so3, potential, log3u):
        table = gr_dimension_check(S, max_filtration=3, max_weight=5)
        assert all(v >= 0 for v in table.values())
        assert table[(0, 0)] == 1


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.integers(0, 3), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_gr_counts_match_the_doubled_enumeration(weights, max_filtration, max_weight):
    vt = VarTable(tuple(f"x{i}" for i in range(len(weights))), weights)
    counts = doubled_counts(vt, max_filtration, max_weight)
    table = gr_dimension_check(PoissonStructure(vt, {}), max_filtration, max_weight)
    assert table == {(p, w): counts[p][w] for p in range(max_filtration + 1)
                     for w in range(max_weight + 1)}


def test_gr_weighted_variables():
    vt = VarTable(("x", "y"), (1, 2))
    S = PoissonStructure(vt, {(0, 1): vt.gen(0) ** 2})
    table = gr_dimension_check(S, max_filtration=2, max_weight=4)
    # weight 2 with one symbol: m*h(x) with deg m = 1, or h(y) alone
    assert table[(1, 2)] == 2


# -- quotient modules -------------------------------------------------------------


def test_residue_golden(log2):
    x, y = log2.vars.gens()
    traces = log2.modular_data().traces
    e = reduce_word(log2, (poly_atom(x), ham(1)))
    assert right_module_residue(log2, e, traces).is_zero()
    one = reduce_word(log2, (ham(0),))
    assert right_module_residue(log2, one, traces) == x


def test_residue_refuses_a_trace_list_of_the_wrong_length(so3):
    traces = list(so3.modular_data().traces)
    e = reduce_word(so3, (poly_atom(so3.vars.gen(2)), ham(0)))
    for wrong in (traces[:2], traces + [so3.vars.zero()], []):
        with pytest.raises(ValueError, match="one trace per variable"):
            right_module_residue(so3, e, wrong)
    # also when no term carries the missing symbol
    with pytest.raises(ValueError, match="one trace per variable"):
        right_module_residue(so3, polynomial_element(so3.vars.one()), [])


def test_residue_refuses_an_element_over_another_table(so3, log2):
    e = reduce_word(log2, (poly_atom(log2.vars.gen(0)), ham(1)))
    with pytest.raises(ValueError, match=r"^element over a different variable table$"):
        right_module_residue(so3, e, so3.modular_data().traces)


def test_elements_refuse_exponent_tuples_of_the_wrong_length(so3):
    # printed, or packed for the residue, a short or long tuple would lose
    # or shift digits and read as x
    for key in [((1, 0), (0, 0, 0)), ((1, 0, 0, 5), (0, 0, 0)),
                ((1, 0, 0), (0, 0)), ((0, 0, 1), (0, 1, 0, 0))]:
        for c in (1, 0):
            with pytest.raises(ValueError, match=r"need one exponent per variable \(3\)"):
                EnvelopeElement(so3.vars, {key: c})


def test_residue_refuses_traces_over_another_table(so3):
    ab = VarTable(("a", "b"))
    x = so3.vars.gen(0)
    e = reduce_word(so3, (poly_atom(x), ham(0)))
    for traces in ([ab.zero()] * 3, [so3.vars.zero(), ab.gen(0), so3.vars.zero()]):
        with pytest.raises(ValueError, match=r"^trace over a different variable table$"):
            right_module_residue(so3, e, traces)


def test_residue_of_polynomial_is_itself(so3):
    f = so3.vars.gen(0) ** 2 + 2
    e = polynomial_element(f)
    traces = so3.modular_data().traces
    assert right_module_residue(so3, e, traces) == f


def test_residue_kills_the_right_ideal(symplectic, log2, so3, potential):
    rng = random.Random(13)
    for S in (symplectic, log2, so3, potential):
        traces = list(S.modular_data().traces)
        for _ in range(10):
            word = tuple(_random_atoms(rng, S, rng.randint(1, 3)))
            i = rng.randrange(len(S.vars))
            generator_times_word = reduce_combination(
                S,
                [
                    (Fraction(1), (ham(i),) + word),
                    (Fraction(-1), (poly_atom(traces[i]),) + word),
                ],
            )
            residue = right_module_residue(S, generator_times_word, traces)
            assert residue.is_zero()


def test_j_quotient_matches_closed_form(log2, log3, so3, potential):
    rng = random.Random(21)
    for S in (log2, log3, so3, potential):
        for _ in range(15):
            a = random_polynomial(rng, S.vars)
            i = rng.randrange(len(S.vars))
            assert j_quotient_action(S, a, i) == S.omega_h_action(a, i)


# -- the twist automorphism --------------------------------------------------------


def test_nu_on_log_canonical(log2, log3, log3u):
    for S in (log2, log3, log3u):
        report = nu_check(S, samples=10, seed=3)
        assert isinstance(report, NuReport)
        assert report.module_samples == 10
        n = len(S.vars)
        assert report.relations_checked == n * (n - 1) + n * (n - 1) // 2


def test_nu_on_zero_bracket(trivial2):
    # zero matrix: the twist is the identity and everything must still pass
    report = nu_check(trivial2, samples=5)
    assert report.module_samples == 5


# three quadratic structures on x, y, z that are neither log-canonical nor
# unimodular
QUADRATIC = [{"x,y": "x^2", "x,z": "x*z", "y,z": "y*z"},
             {"x,y": "x^2", "y,z": "x*z"},
             {"x,y": "x*y + x^2", "x,z": "x*z", "y,z": "y*z"}]


def test_nu_on_other_structures(so3, potential, symplectic):
    # the modular field is a Poisson vector field on every structure
    quadratic = [SpecDocument.from_dict({"vars": ["x", "y", "z"], "bracket": b})
                 .to_structure() for b in QUADRATIC]
    assert not any(S.modular_data().unimodular for S in quadratic)
    for S in [so3, potential, symplectic, rational_jacobian(random.Random(3)),
              *quadratic]:
        report = nu_check(S, samples=10, seed=5)
        n = len(S.vars)
        assert report.relations_checked == n * (n - 1) + n * (n - 1) // 2
        assert report.module_samples == 10


def test_nu_random_log_canonical():
    rng = random.Random(31)
    for _ in range(6):
        S = random_log_canonical(rng, rng.randint(2, 4))
        report = nu_check(S, samples=8, seed=rng.randint(0, 10 ** 6))
        assert report.module_samples == 8


# -- the integer engine against the Polynomial-atom oracle -------------------------


@st.composite
def structures(draw):
    kind = draw(st.sampled_from(("catalog", "log-canonical", "jacobian")))
    if kind == "catalog":
        return get_entry(draw(st.sampled_from(catalog_ids()))).document.to_structure()
    rng = random.Random(draw(st.integers(0, 2 ** 31)))
    if kind == "log-canonical":
        return rational_log_canonical(rng, rng.randint(2, 4))
    return rational_jacobian(rng)


@given(structures(), st.integers(0, 2 ** 31),
       st.sampled_from(("leftmost", "rightmost")))
@settings(max_examples=60, deadline=None)
def test_integer_engine_matches_polynomial_atoms(S, seed, strategy):
    # mixed h-counts in one combination exercise the D^(Q - q) scaling
    rng = random.Random(seed)
    parts = [(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))),
              tuple(_random_atoms(rng, S, rng.randint(0, 4))))
             for _ in range(rng.randint(1, 3))]
    got = reduce_combination(S, parts, strategy)
    want = polynomial_atom_reduce(S, parts, strategy)
    assert got == want
    assert str(got) == str(want)


def test_rational_structures_have_a_denominator():
    rng = random.Random(5)
    for S in (rational_log_canonical(rng, 3), rational_jacobian(rng)):
        assert S.term_tables().denominator > 1


TABLE_STRUCTURES = [
    *(lambda entry=entry: entry.document.to_structure() for entry in CATALOG),
    mixed_denominator_log_canonical,
    *(lambda seed=seed: rational_log_canonical(random.Random(seed), 3 + seed % 2)
      for seed in range(4)),
    *(lambda seed=seed: rational_jacobian(random.Random(seed)) for seed in range(4)),
]
TABLE_IDS = ([entry.id for entry in CATALOG] + ["mixed-denominators"]
             + [f"rational-log-canonical-{seed}" for seed in range(4)]
             + [f"rational-jacobian-{seed}" for seed in range(4)])


@pytest.mark.parametrize("build", TABLE_STRUCTURES, ids=TABLE_IDS)
def test_term_tables_are_integers_over_one_denominator(build):
    S = build()
    tables = S.term_tables()
    assert tables.denominator == lcm(*(
        c.denominator for i, j in combinations(range(len(S.vars)), 2)
        for c in S.entry(i, j).terms.values()))
    coefficients = [c for row in tables.anchor for _, terms in row for _, c in terms]
    coefficients += [c for derivs in tables.partials.values()
                     for _, terms in derivs for _, c in terms]
    coefficients += [c for terms in tables.traces for _, c in terms]
    assert all(type(c) is int for c in coefficients)
    assert coefficients or not S.entries


@pytest.mark.parametrize("build", [
    lambda: get_entry("log-canonical-3").document.to_structure(),
    lambda: get_entry("log-canonical-3u").document.to_structure(),
    lambda: rational_log_canonical(random.Random(7), 3),
    lambda: rational_log_canonical(random.Random(8), 4),
    lambda: get_entry("so3").document.to_structure(),
    lambda: get_entry("potential-x2z").document.to_structure(),
    lambda: rational_jacobian(random.Random(2)),
], ids=["log-canonical-3", "log-canonical-3u", "rational-3", "rational-4", "so3",
        "potential-x2z", "rational-jacobian"])
def test_nu_combinations_match_polynomial_atoms(build):
    # the int relation forms against the Fraction words of the twist images,
    # reduced by the public Fraction boundary and by the Polynomial atoms
    S = build()
    tables = S.term_tables()
    d = tables.denominator
    got = [(description, envelope._element(S.vars, left, 1, d, top),
            envelope._element(S.vars, right, 1, d, top))
           for description, top, left, right
           in envelope._relation_forms(S, tables.traces, _packed_rules(S))]
    assert got == fraction_nu_relations(S)
    assert got == fraction_nu_relations(S, polynomial_atom_reduce)
    assert all(left == right for _, left, right in got)


def _negate_partial(tables):
    key = min(tables.partials)
    (k, terms), *rest = tables.partials[key]
    tables.partials[key] = ((k, tuple((e, -c) for e, c in terms)), *rest)


def _drop_partial(tables):
    key = min(tables.partials)
    tables.partials[key] = tables.partials[key][1:]


def _double_anchor_row(tables):
    doubled = tuple((a, tuple((e, 2 * c) for e, c in terms))
                    for a, terms in tables.anchor[0])
    object.__setattr__(tables, "anchor", (doubled,) + tables.anchor[1:])


@pytest.mark.parametrize("mutate", [_negate_partial, _drop_partial, _double_anchor_row],
                         ids=["negated-partial", "dropped-partial", "doubled-anchor-row"])
@pytest.mark.parametrize("entry", ["log-canonical-2", "log-canonical-3",
                                   "log-canonical-3u"])
def test_nu_relations_see_rule_table_mutations(entry, mutate):
    # the right sides come from the brackets, not from the tables the rules read
    S = get_entry(entry).document.to_structure()
    mutate(S.term_tables())
    with pytest.raises(RelationViolation) as info:
        nu_check(S, samples=0)
    exc = info.value
    assert type(exc.left) is EnvelopeElement and type(exc.right) is EnvelopeElement
    assert exc.left.vars == exc.right.vars == S.vars
    assert exc.left != exc.right


def _double_traces(tables):
    return tuple(tuple((e, 2 * c) for e, c in terms) for terms in tables.traces)


def _extra_trace_term(tables):
    # D * x_i more in the i-th trace
    n = len(tables.traces)
    return tuple(terms + ((tuple(int(k == i) for k in range(n)), tables.denominator),)
                 for i, terms in enumerate(tables.traces))


@pytest.mark.parametrize("entry, mutate", [
    ("log-canonical-2", _double_traces),
    *((entry, _extra_trace_term) for entry in
      ("log-canonical-3", "log-canonical-3u", "so3", "potential-x2z")),
], ids=["log-canonical-2-doubled", "log-canonical-3-extra", "log-canonical-3u-extra",
        "so3-extra", "potential-x2z-extra"])
def test_nu_module_half_sees_trace_table_mutations(entry, mutate):
    # the twist comes from the brackets, so the module half checks the
    # trace table the rules read against them; the relation half never
    # reads that table.  Doubling log-canonical-3's traces is
    # test_module_mismatch_carries_polynomials; doubling zero traces is no
    # mutation
    S = get_entry(entry).document.to_structure()
    tables = S.term_tables()
    object.__setattr__(tables, "traces", mutate(tables))
    with pytest.raises(ModuleMismatch):
        nu_check(S, samples=20)
    n = len(S.vars)
    assert nu_check(S, samples=0).relations_checked == n * (n - 1) + n * (n - 1) // 2


@pytest.mark.parametrize("entry", ["log-canonical-3", "so3", "potential-x2z"])
def test_nu_module_half_sees_anchor_table_mutations(entry, monkeypatch):
    # the module half takes {x_i, f} from the brackets, not from the anchor
    # rows the rules read; with the relation half stubbed out, every anchor
    # row doubled is the module half's fault to find
    monkeypatch.setattr(envelope, "_relation_forms", lambda S, twist, rules: iter(()))
    S = get_entry(entry).document.to_structure()
    assert nu_check(S, samples=20).relations_checked == 0
    tables = S.term_tables()
    anchor = tuple(tuple((a, tuple((e, 2 * c) for e, c in terms)) for a, terms in row)
                   for row in tables.anchor)
    S._tables = dataclasses.replace(tables, anchor=anchor)
    with pytest.raises(ModuleMismatch):
        nu_check(S, samples=20)


def _vector_fields(S):
    """Twist tables, the terms of D * X_i per generator, of the modular
    field, four seeded diagonal fields sum_i c_i x_i d/dx_i, the shear
    X = x_1 d/dx_0 and, on three variables, X = x_0^2 d/dx_2."""
    tables = S.term_tables()
    d, n = tables.denominator, len(S.vars)
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    fields = {"traces": tables.traces}
    for seed in range(4):
        rng = random.Random(seed)
        scalars = [rng.randint(-2, 2) for _ in range(n)]
        fields[f"diagonal-{seed}"] = tuple(((unit[i], d * c),) if c else ()
                                           for i, c in enumerate(scalars))
    fields["shear"] = (((unit[1], d),),) + ((),) * (n - 1)
    if n == 3:
        fields["x^2 d/dz"] = ((), (), (((2, 0, 0), d),))
    return fields


def test_relation_check_is_the_poisson_vector_field_check():
    # h(i) -> h(i) + X_i keeps every relation exactly when the boundary
    # twisted by X squares to zero, i.e. when X is a Poisson vector field
    verdicts = {}
    for entry in ("log-canonical-2", "log-canonical-3", "log-canonical-3u", "so3",
                  "potential-x2z", "trivial-3", "symplectic-plane"):
        S = get_entry(entry).document.to_structure()
        for name, twist in _vector_fields(S).items():
            kept = all(left == right for _, _, left, right
                       in envelope._relation_forms(S, twist, _packed_rules(S)))
            assert kept == plans_square_to_zero(S, complexes._plans(S, twist)), \
                (entry, name)
            verdicts[entry, name] = kept
    assert all(verdicts[entry, "traces"] for entry, _ in verdicts)
    assert (len(verdicts), list(verdicts.values()).count(False)) == (47, 19)


# -- the integer sampler and checks against their Polynomial twins -----------------


@pytest.mark.parametrize("build", TABLE_STRUCTURES, ids=TABLE_IDS)
def test_integer_words_are_the_oracle_words(build):
    S = build()
    vt, n = S.vars, len(S.vars)
    tables = S.term_tables()
    d = tables.denominator
    shifts = _shifts(n)
    units = tuple(1 << s for s in shifts)
    for seed in range(6):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(12):
            word = envelope._sample_word(rng, units)
            public = sample_word(oracle, vt, 5)
            assert rng.getstate() == oracle.getstate()
            assert len(word) == len(public)
            entered = envelope._enter(vt, shifts, 1, 1, public)
            if entered is None:  # a polynomial atom summed to zero
                assert () in word
                atoms = [a[1] if a[0] == "h" else _packed(int_terms(a[1])[1], shifts)
                         for a in public]
            else:
                atoms = entered[3]
            for atom, entered_atom, public_atom in zip(word, atoms, public):
                if public_atom[0] == "h":
                    assert atom == entered_atom == public_atom[1]
                else:  # _enter holds L * f, with L its denominators' lcm
                    scale = int_terms(public_atom[1])[0]
                    assert dict(atom) == {e: Fraction(2 * c, scale)
                                          for e, c in entered_atom}
            polys = sum(a[0] == "p" for a in public)
            symbols = len(public) - polys
            for strategy in ("leftmost", "rightmost"):
                got = _decoded(_reduce(_packed_rules(S), [(1, word)],
                                       strategy == "rightmost"), n)
                want = polynomial_atom_reduce(S, [(1, public)], strategy)
                assert got == {key: c * 2 ** polys * d ** (symbols - sum(key[1]))
                               for key, c in want.terms.items()}
        # the module samples of the twist check
        for _ in range(6):
            a = envelope._sample_poly(rng, units, max_degree=3, max_terms=3)
            i = rng.randrange(n)
            public = sample_poly(oracle, vt, max_degree=3, max_terms=3)
            assert oracle.randrange(n) == i
            assert dict(_unpacked(a, shifts)) == {e: 2 * c for e, c in public.terms.items()}
            assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("build", TABLE_STRUCTURES, ids=TABLE_IDS)
def test_residue_matches_polynomial_peeling(build):
    # rational traces and structures: the int kernel's m and D both above 1
    S = build()
    rng = random.Random(17)
    for _ in range(6):
        traces = [random_polynomial(rng, S.vars, max_degree=2, max_terms=2)
                  for _ in S.vars.names]
        parts = [(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))),
                  tuple(_random_atoms(rng, S, rng.randint(0, 3))))
                 for _ in range(2)]
        element = reduce_combination(S, parts)
        assert right_module_residue(S, element, traces) \
            == polynomial_module_residue(S, element, traces)


@pytest.mark.parametrize("build", [
    lambda: get_entry("log-canonical-2").document.to_structure(),
    lambda: get_entry("log-canonical-3").document.to_structure(),
    lambda: get_entry("log-canonical-3u").document.to_structure(),
    mixed_denominator_log_canonical,
    lambda: rational_log_canonical(random.Random(7), 3),
    lambda: rational_log_canonical(random.Random(8), 4),
    lambda: get_entry("so3").document.to_structure(),
    lambda: get_entry("potential-x2z").document.to_structure(),
    lambda: rational_jacobian(random.Random(2)),
], ids=["log-canonical-2", "log-canonical-3", "log-canonical-3u",
        "mixed-denominators", "rational-3", "rational-4", "so3", "potential-x2z",
        "rational-jacobian"])
def test_integer_module_samples_match_the_fraction_residue(build):
    S = build()
    vt, n = S.vars, len(S.vars)
    tables = S.term_tables()
    d = tables.denominator
    traces = S.modular_data().traces
    zero_traces = [vt.zero()] * n
    shifts = _shifts(n)
    units = tuple(1 << s for s in shifts)
    rules = _packed_rules(S)
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(5):
            a = envelope._sample_poly(rng, units, max_degree=3, max_terms=3)
            i = rng.randrange(n)
            f = Polynomial(vt, {e: Fraction(c, 2) for e, c in _unpacked(a, shifts)})
            got = envelope._twisted_residue(rules, a, i, _packed(tables.traces[i], shifts),
                                            shifts)
            got = dict(_unpacked(got.items(), shifts))
            twisted = polynomial_atom_reduce(S, [
                (1, (poly_atom(f), ham(i))),
                (1, (poly_atom(f), poly_atom(traces[i]))),
            ])
            residue = right_module_residue(S, twisted, zero_traces)
            assert got == {e: 2 * d * c for e, c in residue.terms.items()}
            assert residue == S.omega_h_action(f, i)


# -- the packed engine against the exponent-tuple oracle ---------------------------


DOCS = sorted((Path(__file__).resolve().parent.parent / "docs").glob("*.json"))
ORACLE_STRUCTURES = [
    *TABLE_STRUCTURES,
    *(lambda path=path: SpecDocument.load(path).to_structure() for path in DOCS),
    weighted_rational,
]
ORACLE_IDS = TABLE_IDS + [f"docs/{path.name}" for path in DOCS] + ["weighted-rational"]


def _tuple_word(word, shifts):
    return tuple(a if type(a) is int else _unpacked(a, shifts) for a in word)


def _assert_packed_matches_the_oracle(S, seed, count):
    # sampled words, pairs of them with mixed coefficients, and the ambiguities,
    # under both strategies, decoded key for key
    n = len(S.vars)
    tables = S.term_tables()
    shifts = _shifts(n)
    units = tuple(1 << s for s in shifts)
    rules = _packed_rules(S)
    rng = random.Random(seed)
    agendas = [[(1, envelope._sample_word(rng, units))] for _ in range(count)]
    agendas += [[(rng.randint(-3, 3), envelope._sample_word(rng, units))
                 for _ in range(2)] for _ in range(count // 4)]
    agendas += [[(1, envelope._enter(S.vars, shifts, 1, 1, word)[3])]
                for word in ambiguities(S.vars)]
    for agenda in agendas:
        for rightmost in (False, True):
            got = _decoded(_reduce(rules, list(agenda), rightmost), n)
            want = tuple_reduce(tables, n, [(c, _tuple_word(w, shifts)) for c, w in agenda],
                                rightmost)
            assert got == want


@pytest.mark.parametrize("build", ORACLE_STRUCTURES, ids=ORACLE_IDS)
def test_packed_normal_forms_match_the_tuple_oracle(build):
    _assert_packed_matches_the_oracle(build(), 0, 80)


@given(weighted_structures(), st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_packed_normal_forms_match_the_tuple_oracle_on_random_structures(S, seed):
    _assert_packed_matches_the_oracle(S, seed, 20)


def test_the_oracle_structures_reach_four_variables_and_a_denominator():
    structures = [build() for build in ORACLE_STRUCTURES]
    assert max(len(S.vars) for S in structures) == 4
    assert sum(S.term_tables().denominator > 1 for S in structures) >= 8


@pytest.mark.parametrize("n", range(1, 6))
def test_packed_sampler_draws_the_tuple_words(n):
    shifts = _shifts(n)
    units = tuple(1 << s for s in shifts)
    for seed in range(50):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(8):
            word = envelope._sample_word(rng, units)
            assert _tuple_word(word, shifts) == tuple_sample_word(oracle, n)
            assert rng.getstate() == oracle.getstate()
        for _ in range(8):  # the module samples of nu_check
            a = envelope._sample_poly(rng, units, max_degree=3, max_terms=3)
            assert _unpacked(a, shifts) == tuple_sample_poly(oracle, n, max_degree=3,
                                                             max_terms=3)
            assert rng.randrange(n) == oracle.randrange(n)


# -- the finite ambiguity set --------------------------------------------------------


def _unresolved(S):
    return [word for word in ambiguities(S.vars)
            if reduce_word(S, word, "leftmost") != reduce_word(S, word, "rightmost")]


def test_ambiguity_set_of_three_variables_has_37_words(so3):
    assert len(ambiguities(so3.vars)) == 37
    assert len(set(ambiguities(so3.vars))) == 37


@pytest.mark.parametrize("build", ORACLE_STRUCTURES, ids=ORACLE_IDS)
def test_every_ambiguity_resolves(build):
    assert _unresolved(build()) == []


@given(weighted_structures())
@settings(max_examples=20, deadline=None)
def test_every_ambiguity_resolves_on_random_structures(S):
    assert _unresolved(S) == []


def test_ambiguities_catch_a_doubled_symbol_rule():
    # the mutation of test_confluence_catches_a_corrupted_symbol_rule
    S = get_entry("so3").document.to_structure()
    partials = S.term_tables().partials
    (k, terms), = partials[(0, 1)]
    partials[(0, 1)] = ((k, tuple((e, 2 * c) for e, c in terms)),)
    assert len(_unresolved(S)) == 2


def test_ambiguities_catch_a_doubled_anchor_row():
    S = get_entry("potential-x2z").document.to_structure()
    _double_anchor_row(S.term_tables())
    assert len(_unresolved(S)) == 1


# -- the degree bound of packed digits -------------------------------------------------


def test_reduction_refuses_a_degree_bound_of_2_to_the_31(so3, symplectic):
    x = so3.vars.gen(0)
    big = Polynomial(so3.vars, {(2 ** 31, 0, 0): 1})
    for word in [(poly_atom(big),), (ham(1), poly_atom(big)),
                 (poly_atom(x), poly_atom(Polynomial(so3.vars, {(2 ** 31 - 1, 0, 0): 1}))),
                 # {x_i, x_j} has degree 1 on so3, so a symbol counts 1
                 (ham(1), poly_atom(Polynomial(so3.vars, {(2 ** 31 - 1, 0, 0): 1})))]:
        for strategy in ("leftmost", "rightmost"):
            with pytest.raises(ValueError, match="stop below 2\\^31"):
                reduce_word(so3, word, strategy)
    with pytest.raises(ValueError, match="stop below 2\\^31"):
        j_quotient_action(so3, big, 0)
    with pytest.raises(ValueError, match="stop below 2\\^31"):
        reduce_combination(so3, [(1, (ham(0),)), (0, (poly_atom(big),))])
    # constant brackets: a symbol still counts 1, which bounds the symbol digits
    p = symplectic.vars.gen(0)
    top = Polynomial(symplectic.vars, {(2 ** 31 - 4, 0): 1})
    word = (ham(1),) * 3 + (poly_atom(top),)
    assert reduce_word(symplectic, word) == polynomial_atom_reduce(symplectic, [(1, word)])
    for word in [(ham(1),) + word, (poly_atom(p ** 4), poly_atom(top))]:
        with pytest.raises(ValueError, match="stop below 2\\^31"):
            reduce_word(symplectic, word)


def test_residue_refuses_a_degree_bound_of_2_to_the_31(so3):
    traces = so3.modular_data().traces
    big = EnvelopeElement(so3.vars, {((2 ** 31, 0, 0), (0, 0, 0)): 1})
    with pytest.raises(ValueError, match="stop below 2\\^31"):
        right_module_residue(so3, big, traces)
    # one symbol adds at most 1 on so3, the degree of its brackets
    edge = EnvelopeElement(so3.vars, {((2 ** 31 - 2, 0, 0), (0, 1, 0)): 1})
    assert right_module_residue(so3, edge, traces) == \
        polynomial_module_residue(so3, edge, traces)
    with pytest.raises(ValueError, match="stop below 2\\^31"):
        right_module_residue(so3, EnvelopeElement(
            so3.vars, {((2 ** 31 - 1, 0, 0), (0, 1, 0)): 1}), traces)
    square = [t * t + so3.vars.gen(0) ** 3 for t in traces]  # traces of degree 3
    with pytest.raises(ValueError, match="stop below 2\\^31"):
        right_module_residue(so3, edge, square)


def test_reduction_just_below_the_bound_keeps_its_exponents(so3):
    # h(y) x^e = x^e h(y) + {y, x^e}, with {y, x} = -z and e = 2^31 - 2
    e = 2 ** 31 - 2
    f = Polynomial(so3.vars, {(e, 0, 0): 1})
    want = EnvelopeElement(so3.vars, {((e, 0, 0), (0, 1, 0)): 1,
                                      ((e - 1, 0, 1), (0, 0, 0)): -e})
    for strategy in ("leftmost", "rightmost"):
        assert reduce_word(so3, (ham(1), poly_atom(f)), strategy) == want
    top = Polynomial(so3.vars, {(2 ** 31 - 1, 0, 0): 1})
    assert reduce_word(so3, (poly_atom(top),)) == EnvelopeElement(
        so3.vars, {((2 ** 31 - 1, 0, 0), (0, 0, 0)): 1})


def test_negative_exponents_are_refused_before_packing(so3):
    # a -1 digit would borrow from the digit above it
    laurent = Polynomial(so3.vars, {(-1, 1, 0): 1})
    for word in [(poly_atom(laurent),), (ham(2), poly_atom(laurent))]:
        with pytest.raises(ValueError, match="packed exponents start at 0"):
            reduce_word(so3, word)
    traces = so3.modular_data().traces
    for key in [((-1, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, -1, 0))]:
        with pytest.raises(ValueError, match="packed exponents start at 0"):
            right_module_residue(so3, EnvelopeElement(so3.vars, {key: 1}), traces)
