"""End-to-end acceptance gate.

Each test covers one numbered criterion, asserts exact values inside the
stated time budget, and prints a single [PASS] line on success (visible
with pytest -rA or -s).
"""

import random
import time
from fractions import Fraction

import pytest

from poishom.catalog import CATALOG
from poishom.complexes import boundary_matrix, coboundary_matrix, duality_report
from poishom.envelope import confluence_check, gr_dimension_check, j_quotient_action, nu_check
from poishom.polycore import VarTable, parse_poly
from poishom.structure import JacobiViolation, PoissonStructure, basis_form

from _oracles import casimir_dimension, coinvariant_dimension, random_polynomial

STRUCTURES = [(entry, entry.document.to_structure()) for entry in CATALOG]


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def rational_log_canonical(rng, n):
    vt = VarTable(tuple(f"X{i}" for i in range(n)))
    entries = {}
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            matrix[i][j] = c
            matrix[j][i] = -c
            if c:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                entries[(i, j)] = vt.monomial(tuple(exps), c)
    return PoissonStructure(vt, entries), matrix


def test_criterion_01_cubic_potential_traces(potential):
    start = time.monotonic()
    traces = potential.modular_data().traces
    zero = potential.vars.zero()
    assert traces == (zero, zero, zero)
    assert potential.modular_data().unimodular
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"potential-x2z traces are (0, 0, 0) in {elapsed:.3f}s")


def test_criterion_02_quadratic_trace_formula():
    start = time.monotonic()
    rng = random.Random(1729)
    for _ in range(20):
        n = rng.randint(2, 5)
        S, matrix = rational_log_canonical(rng, n)
        traces = S.modular_data().traces
        for i in range(n):
            want = sum(matrix[i], Fraction(0)) * S.vars.gen(i)
            assert traces[i] == want
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"row-sum trace formula on 20 random structures in {elapsed:.3f}s")


def test_criterion_03_form_bracket_goldens(potential):
    vt = potential.vars
    x, y, z = vt.gens()
    dx, dy, dz = (basis_form(vt, i) for i in range(3))
    assert potential.lr_bracket(dz, dy) == 2 * x * dz + 2 * z * dx
    assert potential.lr_bracket(dy, dx) == 2 * x * dx
    report(3, "form bracket reproduces both golden values exactly")


def test_criterion_04_complexes_square_to_zero():
    start = time.monotonic()
    cells = 0
    for entry, S in STRUCTURES:
        ell = len(S.vars)
        shift = S.weight_shift()
        lo = -sum(S.vars.weights)
        for w in range(0, 9):
            for n in range(2, ell + 1):
                for coeff in ("canonical", "omega"):
                    inner = boundary_matrix(S, n, w, coeff=coeff)
                    outer = boundary_matrix(S, n - 1, w + shift, coeff=coeff)
                    assert (outer.matrix @ inner.matrix).is_zero(), (entry.id, n, w)
                    cells += 1
        for w in range(lo, 9):
            for n in range(0, ell - 1):
                inner = coboundary_matrix(S, n, w)
                outer = coboundary_matrix(S, n + 1, w + shift)
                assert (outer.matrix @ inner.matrix).is_zero(), (entry.id, n, w)
                cells += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"d^2 = 0 on {cells} graded cells across the catalog "
              f"in {elapsed:.1f}s")


def test_criterion_05_jacobi_rejection():
    vt = VarTable(("x", "y", "z"))
    entries = {
        (0, 1): vt.gen(1),
        (1, 2): vt.gen(2),
        (2, 0): vt.gen(0),
    }
    with pytest.raises(JacobiViolation) as info:
        PoissonStructure(vt, entries)
    assert info.value.jacobiator == parse_poly("-x - y - z", vt)
    report(5, "non-Jacobi bracket rejected with jacobiator -(x + y + z)")


def test_criterion_06_degree_zero_oracles():
    from poishom.complexes import cohomology_dims, homology_dims

    for entry, S in STRUCTURES:
        C = cohomology_dims(S, max_weight=8)
        H = homology_dims(S, max_weight=8)
        for w in range(9):
            assert C[(0, w)] == casimir_dimension(S, w), (entry.id, w)
            assert H[(0, w)] == coinvariant_dimension(S, w), (entry.id, w)
    report(6, "HP^0 and HP_0 match independent kernel and span oracles, w <= 8")


def test_criterion_07_symplectic_plane(symplectic):
    from poishom.complexes import homology_dims

    H = homology_dims(symplectic, max_weight=8)
    for w in range(9):
        assert H[(0, w)] == 0
        assert H[(2, w)] == (1 if w == 2 else 0)
    rep = duality_report(symplectic, max_weight=8)
    assert rep.expected_shift == 2
    assert 2 in rep.fitting_shifts
    assert rep.twisted[(2, 2)] == 1
    assert rep.cohomology[(0, 0)] == 1
    assert rep.passed
    report(7, "symplectic plane dims and shift-2 pairing are exact")


def test_criterion_08_duality_across_catalog():
    from poishom.complexes import homology_dims

    start = time.monotonic()
    for entry, S in STRUCTURES:
        rep = duality_report(S, max_weight=8)
        assert rep.expected_shift == sum(S.vars.weights)
        assert rep.expected_shift in rep.fitting_shifts, entry.id
        assert rep.passed, entry.id
        assert rep.unimodular == entry.unimodular, entry.id
        if rep.unimodular:
            assert homology_dims(S, "canonical", max_weight=8) == rep.twisted, entry.id
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(8, f"duality holds at shift sum(weights) for all "
              f"{len(STRUCTURES)} entries in {elapsed:.1f}s")


def test_criterion_09_rewriting_engine():
    for entry, S in STRUCTURES:
        assert confluence_check(S, samples=200, seed=7) == 200
        table = gr_dimension_check(S, max_filtration=3, max_weight=6)
        assert table[(0, 0)] == 1
    report(9, "confluence on 200 words and bigraded counts per entry")


def test_criterion_10_quotient_action_equivalence():
    rng = random.Random(4096)
    for entry, S in STRUCTURES:
        for _ in range(100):
            a = random_polynomial(rng, S.vars)
            i = rng.randrange(len(S.vars))
            assert j_quotient_action(S, a, i) == S.omega_h_action(a, i), entry.id
    report(10, "quotient and closed-form twisted actions agree on "
               "100 pairs per entry")


def test_criterion_11_twist_automorphism():
    rng = random.Random(65537)
    for k in range(10):
        n = rng.randint(2, 4)
        S, _ = rational_log_canonical(rng, n)
        rep = nu_check(S, samples=15, seed=k)
        assert rep.relations_checked == n * (n - 1) + n * (n - 1) // 2
        assert rep.module_samples == 15
    report(11, "twist automorphism verified on 10 random structures")
