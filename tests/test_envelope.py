import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poishom import envelope
from poishom.catalog import CATALOG, catalog_ids, get_entry
from poishom.envelope import (
    ConfluenceFailure,
    EnvelopeElement,
    GrMismatch,
    NuReport,
    confluence_check,
    gr_dimension_check,
    ham,
    j_quotient_action,
    multiply,
    nu_check,
    poly_atom,
    reduce_combination,
    reduce_word,
    right_module_residue,
)
from poishom.polycore import VarTable, partial_derivative
from poishom.structure import PoissonStructure

from _oracles import (
    mixed_denominator_log_canonical,
    polynomial_atom_reduce,
    random_log_canonical,
    random_polynomial,
)


def elem(S, *word):
    return reduce_word(S, word)


# -- normal form goldens -------------------------------------------------------


def test_symplectic_commutation_golden(symplectic):
    x, y = symplectic.vars.gens()
    got = elem(symplectic, ham(1), poly_atom(x))
    want = elem(symplectic, poly_atom(x), ham(1)) + EnvelopeElement.from_polynomial(
        -symplectic.vars.one()
    )
    assert got == want
    assert got.filtration_degree() == 1
    assert got.polynomial_part() == -1


def test_log2_commutation_golden(log2):
    x, y = log2.vars.gens()
    got = elem(log2, ham(0), poly_atom(y))
    assert got == elem(log2, poly_atom(y), ham(0)) + EnvelopeElement.from_polynomial(
        x * y
    )


def test_so3_symbol_swap_golden(so3):
    # h(z) h(x) picks up the derivative of {z, x} = y
    got = elem(so3, ham(2), ham(0))
    want = elem(so3, ham(0), ham(2)) + elem(so3, ham(1))
    assert got == want


def test_polynomials_merge(so3):
    x, y, z = so3.vars.gens()
    got = elem(so3, poly_atom(x + y), poly_atom(x - y))
    assert got == EnvelopeElement.from_polynomial(x * x - y * y)


def test_empty_word_is_identity(so3):
    one = reduce_word(so3, ())
    assert one == EnvelopeElement.from_polynomial(so3.vars.one())
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
            want = EnvelopeElement.from_polynomial(
                S.bracket(S.vars.gen(i), f)
            )
            assert left == want


def test_str_rendering(log2):
    e = elem(log2, ham(0), poly_atom(log2.vars.gen(1)))
    assert str(e) == "x*y + y*h(x)"
    assert str(EnvelopeElement.zero(log2.vars)) == "0"


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
        assert p.filtration_degree() <= a.filtration_degree() + b.filtration_degree()


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
        right_module_residue(so3, EnvelopeElement.from_polynomial(so3.vars.one()), [])


def test_residue_of_polynomial_is_itself(so3):
    f = so3.vars.gen(0) ** 2 + 2
    e = EnvelopeElement.from_polynomial(f)
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


def test_nu_rejects_other_structures(so3, potential):
    for S in (so3, potential):
        with pytest.raises(ValueError):
            nu_check(S, samples=2)


def test_nu_random_log_canonical():
    rng = random.Random(31)
    for _ in range(6):
        S = random_log_canonical(rng, rng.randint(2, 4))
        report = nu_check(S, samples=8, seed=rng.randint(0, 10 ** 6))
        assert report.module_samples == 8


# -- the integer engine against the Polynomial-atom oracle -------------------------


def _rational_log_canonical(rng, n):
    vt = VarTable(tuple(f"x{i}" for i in range(n)))
    entries = {}
    for i, j in combinations(range(n), 2):
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
        if c:
            exps = tuple(int(k in (i, j)) for k in range(n))
            entries[(i, j)] = vt.monomial(exps, c)
    return PoissonStructure(vt, entries)


def _rational_jacobian(rng):
    vt = VarTable(("x", "y", "z"))
    phi = random_polynomial(rng, vt, max_degree=3, max_terms=3) \
        + vt.monomial((1, 1, 1), Fraction(1, rng.choice((2, 3, 5))))
    dx, dy, dz = (partial_derivative(phi, k) for k in range(3))
    return PoissonStructure(vt, {(0, 1): dz, (1, 2): dx, (0, 2): -dy})


@st.composite
def structures(draw):
    kind = draw(st.sampled_from(("catalog", "log-canonical", "jacobian")))
    if kind == "catalog":
        return get_entry(draw(st.sampled_from(catalog_ids()))).document.to_structure()
    rng = random.Random(draw(st.integers(0, 2 ** 31)))
    if kind == "log-canonical":
        return _rational_log_canonical(rng, rng.randint(2, 4))
    return _rational_jacobian(rng)


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
    for S in (_rational_log_canonical(rng, 3), _rational_jacobian(rng)):
        assert S.term_tables().denominator > 1


TABLE_STRUCTURES = [
    *(lambda entry=entry: entry.document.to_structure() for entry in CATALOG),
    mixed_denominator_log_canonical,
    *(lambda seed=seed: _rational_log_canonical(random.Random(seed), 3 + seed % 2)
      for seed in range(4)),
    *(lambda seed=seed: _rational_jacobian(random.Random(seed)) for seed in range(4)),
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
    lambda: _rational_log_canonical(random.Random(7), 3),
    lambda: _rational_log_canonical(random.Random(8), 4),
], ids=["log-canonical-3", "log-canonical-3u", "rational-3", "rational-4"])
def test_nu_combinations_match_polynomial_atoms(build):
    S = build()
    seen = []

    def checked(S_, parts, strategy="leftmost"):
        parts = list(parts)
        got = reduce_combination(S_, parts, strategy)
        assert got == polynomial_atom_reduce(S_, parts, strategy)
        seen.append(parts)
        return got

    with mock.patch.object(envelope, "reduce_combination", checked):
        nu_check(S, samples=6, seed=2)
    assert seen
