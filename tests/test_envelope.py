import random
from fractions import Fraction
from itertools import combinations
from math import lcm

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
from poishom.structure import PoissonStructure, int_terms

from _oracles import (
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
)


def elem(S, *word):
    return reduce_word(S, word)


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
           in envelope._relation_forms(S, tables.traces)]
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
                       in envelope._relation_forms(S, twist))
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
    for seed in range(6):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(12):
            word = envelope._sample_word(rng, n)
            public = sample_word(oracle, vt, 5)
            assert rng.getstate() == oracle.getstate()
            assert len(word) == len(public)
            entered = envelope._enter(vt, 1, public)
            if entered is None:  # a polynomial atom summed to zero
                assert () in word
                atoms = [a[1] if a[0] == "h" else int_terms(a[1])[1] for a in public]
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
                got = envelope._reduce(tables, n, [(1, word)], strategy == "rightmost")
                want = polynomial_atom_reduce(S, [(1, public)], strategy)
                assert got == {key: c * 2 ** polys * d ** (symbols - sum(key[1]))
                               for key, c in want.terms.items()}
        # the module samples of the twist check
        for _ in range(6):
            a = envelope._sample_poly(rng, n, max_degree=3, max_terms=3)
            i = rng.randrange(n)
            public = sample_poly(oracle, vt, max_degree=3, max_terms=3)
            assert oracle.randrange(n) == i
            assert dict(a) == {e: 2 * c for e, c in public.terms.items()}
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
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(5):
            a = envelope._sample_poly(rng, n, max_degree=3, max_terms=3)
            i = rng.randrange(n)
            f = Polynomial(vt, {e: Fraction(c, 2) for e, c in a})
            got = envelope._twisted_residue(tables, a, i, tables.traces[i])
            twisted = polynomial_atom_reduce(S, [
                (1, (poly_atom(f), ham(i))),
                (1, (poly_atom(f), poly_atom(traces[i]))),
            ])
            residue = right_module_residue(S, twisted, zero_traces)
            assert got == {e: 2 * d * c for e, c in residue.terms.items()}
            assert residue == S.omega_h_action(f, i)
