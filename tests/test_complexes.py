import dataclasses
import random
from collections.abc import Mapping
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poishom.complexes as complexes
from poishom.catalog import CATALOG
from poishom.cli import main
from poishom.linalg import SparseMatrix
from poishom.complexes import (
    DualityReport,
    ShiftNotFound,
    boundary_matrix,
    chain_basis,
    coboundary_matrix,
    cochain_basis,
    cohomology_dims,
    dim_table_tsv,
    duality_report,
    homology_dims,
)
from poishom.polycore import (
    VarTable,
    homogeneous_weight,
    monomials_of_weight,
    parse_poly,
    partial_derivative,
)
from poishom.structure import NonHomogeneousError, PoissonStructure

from _oracles import (
    Cochain,
    apply_boundary,
    apply_coboundary,
    boundary_matrix_by_columns,
    casimir_dimension,
    coboundary_matrix_by_columns,
    coinvariant_dimension,
    eager_duality,
    euler_characteristic_matches,
    mixed_denominator_log_canonical,
    plans_square_to_zero,
    random_log_canonical,
    random_polynomial,
    weighted_rational,
)

ALL = [entry.document.to_structure() for entry in CATALOG]


# -- bases ---------------------------------------------------------------------


def test_chain_basis_sizes(symplectic):
    # weight w cell at order n: monomials of degree w - n, indices C(2, n)
    assert len(chain_basis(symplectic, 0, 3)) == 4
    assert len(chain_basis(symplectic, 1, 3)) == 2 * 3
    assert len(chain_basis(symplectic, 2, 3)) == 2
    assert len(chain_basis(symplectic, 3, 3)) == 0
    assert len(chain_basis(symplectic, 1, 0)) == 0
    assert len(chain_basis(symplectic, 0, -1)) == 0


def test_chain_basis_positions(symplectic):
    basis = chain_basis(symplectic, 1, 2)
    for pos, (exps, index) in enumerate(basis.elements):
        assert basis.position(exps, index) == pos
    with pytest.raises(KeyError):
        basis.position((9, 9), (0,))


def test_cochain_basis_negative_weights(symplectic):
    # order 2 admits weights down to -2, where the value is a constant
    assert len(cochain_basis(symplectic, 2, -2)) == 1
    assert len(cochain_basis(symplectic, 2, -3)) == 0
    assert len(cochain_basis(symplectic, 0, 2)) == 3
    assert len(cochain_basis(symplectic, 9, 0)) == 0


def test_weighted_chain_basis():
    vt = VarTable(("x", "y"), (1, 2))
    S = PoissonStructure(vt, {(0, 1): vt.gen(0) ** 2})
    cells = chain_basis(S, 1, 3).elements
    # dx carries weight 1, dy weight 2
    assert ((0, 1), (0,)) in cells
    assert ((2, 0), (0,)) in cells
    assert ((1, 0), (1,)) in cells
    assert len(cells) == 3


# -- boundary goldens ----------------------------------------------------------


def test_symplectic_boundary_goldens(symplectic):
    vt = symplectic.vars
    x, y = vt.gens()
    image = apply_boundary(symplectic, {(1,): x})
    assert image == {(): vt.one()}
    image = apply_boundary(symplectic, {(0, 1): vt.one()})
    assert all(v.is_zero() for v in image.values()) or image == {}


def test_twisted_boundary_golden(log2):
    vt = log2.vars
    image = apply_boundary(log2, {(0, 1): vt.one()}, coeff="omega")
    assert all(v.is_zero() for v in image.values()) or image == {}
    image = apply_boundary(log2, {(0, 1): vt.gen(0) * vt.gen(1)}, coeff="omega")
    assert not all(v.is_zero() for v in image.values())


def test_boundary_squares_to_zero_on_random_chains(so3, potential, log3):
    rng = random.Random(11)
    for S in (so3, potential, log3):
        vt = S.vars
        for n in (2, 3):
            for coeff in ("canonical", "omega"):
                chain = {}
                for index in [(0, 1), (1, 2)] if n == 2 else [(0, 1, 2)]:
                    chain[index] = random_polynomial(rng, vt)
                once = apply_boundary(S, chain, coeff=coeff)
                twice = apply_boundary(S, once, coeff=coeff)
                assert all(v.is_zero() for v in twice.values())


def test_boundary_matrices_compose_to_zero():
    for S in ALL:
        shift = S.weight_shift()
        ell = len(S.vars)
        for coeff in ("canonical", "omega"):
            for n in range(2, ell + 1):
                for w in range(0, 6):
                    inner = boundary_matrix(S, n, w, coeff=coeff)
                    outer = boundary_matrix(S, n - 1, w + shift, coeff=coeff)
                    assert (outer.matrix @ inner.matrix).is_zero()


def test_coboundary_matrices_compose_to_zero():
    for S in ALL:
        shift = S.weight_shift()
        ell = len(S.vars)
        lo = -sum(S.vars.weights)
        for n in range(0, ell - 1):
            for w in range(lo, 6):
                inner = coboundary_matrix(S, n, w)
                outer = coboundary_matrix(S, n + 1, w + shift)
                assert (outer.matrix @ inner.matrix).is_zero()


PLAN_INPUTS = ALL + [weighted_rational(), mixed_denominator_log_canonical()]
PLAN_IDS = [entry.id for entry in CATALOG] + ["weighted-rational", "mixed-denominators"]


@pytest.mark.parametrize("S", PLAN_INPUTS, ids=PLAN_IDS)
def test_matrices_match_column_by_column_oracle(S):
    lo = -sum(S.vars.weights)
    for n in range(len(S.vars) + 1):
        for w in range(lo, 5):
            if w >= 0:
                for coeff in ("canonical", "omega"):
                    fast = boundary_matrix(S, n, w, coeff=coeff)
                    slow = boundary_matrix_by_columns(S, n, w, coeff=coeff)
                    assert (fast.source, fast.target) == (slow.source, slow.target)
                    assert fast.matrix == slow.matrix, (n, w, coeff)
            fast = coboundary_matrix(S, n, w)
            slow = coboundary_matrix_by_columns(S, n, w)
            assert (fast.source, fast.target) == (slow.source, slow.target)
            assert fast.matrix == slow.matrix, (n, w)


def _fresh(entry_id):
    # a new structure object, so no assembly plan is kept on it yet
    return next(e for e in CATALOG if e.id == entry_id).document.to_structure()


# None stands for the coboundary; the last order asks for the coboundary
# table first, which builds the canonical table it is read off, and the
# omega table after both
@pytest.mark.parametrize("order", [("omega", "canonical", None),
                                   ("canonical", "omega", None),
                                   (None, "omega", "canonical")])
@pytest.mark.parametrize("make", [lambda: _fresh("log-canonical-3"), weighted_rational,
                                  mixed_denominator_log_canonical],
                         ids=["log-canonical-3", "weighted-rational", "mixed-denominators"])
def test_memoised_plans_keep_differentials_apart(make, order):
    S = make()
    assert not S.modular_data().unimodular
    assert not S.term_tables().plans
    cells = [(n, w) for n in range(len(S.vars) + 1) for w in range(5)]
    built = {}
    for coeff in order:
        for n, w in cells:
            built[(coeff, n, w)] = (coboundary_matrix(S, n, w) if coeff is None
                                    else boundary_matrix(S, n, w, coeff)).matrix
    assert S.term_tables().plans
    for (coeff, n, w), matrix in built.items():
        if coeff is None:
            assert matrix == coboundary_matrix_by_columns(S, n, w).matrix, (n, w)
        else:
            slow = boundary_matrix_by_columns(S, n, w, coeff=coeff)
            assert matrix == slow.matrix, (coeff, n, w)
    assert any(built[("omega", n, w)] != built[("canonical", n, w)]
               for n, w in cells)


def _differentials(S):
    """(name, twist table, read backwards) of the three differentials."""
    zero = complexes._twist(S, "canonical")
    return [("canonical", zero, False),
            ("omega", complexes._twist(S, "omega"), False),
            ("coboundary", zero, True)]


@pytest.mark.parametrize("S", PLAN_INPUTS, ids=PLAN_IDS)
def test_each_plan_hits_each_target_once(S):
    # _assemble writes one entry per step, so no two steps of a plan may
    # share a target (J, t)
    ell = len(S.vars)
    for coeff, twist, backwards in _differentials(S):
        plans = complexes._plans(S, twist, backwards)
        assert sorted(plans) == sorted(I for n in range(ell + 1)
                                       for I in combinations(range(ell), n))
        for I, plan in plans.items():
            targets = [(J, t) for J, t, _, _ in plan]
            assert len(set(targets)) == len(targets), (coeff, I)
            for J, t, c0, linear in plan:
                assert c0 or linear, (coeff, I, J, t)
                assert all(c for _, c in linear), (coeff, I, J, t)


@pytest.mark.parametrize("S", PLAN_INPUTS, ids=PLAN_IDS)
def test_coboundary_plans_are_the_canonical_read_backwards(S):
    zero = complexes._twist(S, "canonical")
    canonical = complexes._plans(S, zero)
    expected = {J: set() for J in canonical}
    for K, plan in canonical.items():
        for J, t, c0, linear in plan:
            expected[J].add((K, t, c0, tuple((a, -c) for a, c in linear)))
    coboundary = complexes._plans(S, zero, backwards=True)
    assert {J: set(plan) for J, plan in coboundary.items()} == expected
    assert S.term_tables().plans[(zero, True)] is coboundary


@pytest.mark.parametrize("S", PLAN_INPUTS, ids=PLAN_IDS)
def test_one_boundary_table_exactly_when_unimodular(S):
    # the omega twist is the traces and the canonical one is zero, so the
    # two names share a plan table exactly when every trace vanishes
    canonical = complexes._plans(S, complexes._twist(S, "canonical"))
    omega = complexes._plans(S, complexes._twist(S, "omega"))
    assert (canonical is omega) == S.modular_data().unimodular


# -- d^2 = 0 on the plan tables, at every weight at once ----------------------


def _square_to_zero(S):
    """Per differential, whether its plan table squares to zero."""
    return {coeff: plans_square_to_zero(S, complexes._plans(S, twist, backwards))
            for coeff, twist, backwards in _differentials(S)}


@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_plans_square_to_zero_on_the_catalog(entry):
    assert all(_square_to_zero(_fresh(entry.id)).values())


@pytest.mark.parametrize("ell", [4, 5, 6])
def test_plans_square_to_zero_on_random_log_canonical(ell):
    rng = random.Random(ell)
    for _ in range(3):
        assert all(_square_to_zero(random_log_canonical(rng, ell)).values())


def _drop_first_anchor_terms(S):
    # every anchor row loses its first entry, so every plan table built
    # from the tables shares the fault
    tables = S.term_tables()
    S._tables = dataclasses.replace(
        tables, anchor=tuple(row[1:] for row in tables.anchor),
        plans={}, bases={}, ranks={})


@pytest.mark.parametrize("entry_id", ["so3", "log-canonical-3", "log-canonical-3u"])
def test_an_anchor_term_dropped_everywhere_fails_only_d_squared(entry_id):
    # the duality certificate compares two tables with the same fault and
    # still holds; d^2 = 0 fails on each table
    S = _fresh(entry_id)
    _drop_first_anchor_terms(S)
    assert complexes._duality_certificate(S)
    assert not any(_square_to_zero(S).values())


@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_duality_keeps_one_plan_table_per_distinct_differential(entry):
    # the certificate reads the coboundary off the zero-twist boundary
    # table, so duality builds the one or two boundary tables and no
    # coboundary table
    S = _fresh(entry.id)
    duality_report(S, max_weight=3)
    plans = S.term_tables().plans
    assert len(plans) == (1 if entry.unimodular else 2)
    for twist, backwards in plans:
        assert len(twist) == len(S.vars) and backwards is False


UNIMODULAR = [entry for entry in CATALOG if entry.unimodular]


@pytest.mark.parametrize("entry", UNIMODULAR, ids=[e.id for e in UNIMODULAR])
def test_unimodular_boundary_matrices_coincide(entry):
    # zero traces: the omega action is the canonical one, so duality_report
    # may take the canonical table to be the twisted one
    S = entry.document.to_structure()
    assert S.modular_data().unimodular
    for n in range(len(S.vars) + 1):
        for w in range(7):
            canonical = boundary_matrix(S, n, w, "canonical")
            omega = boundary_matrix(S, n, w, "omega")
            assert (canonical.source, canonical.target) == (omega.source, omega.target)
            assert canonical.matrix.entries == omega.matrix.entries, (n, w)
    report = duality_report(S, max_weight=4)
    assert homology_dims(S, "canonical", max_weight=4) == report.twisted


def test_boundary_preserves_weight_bookkeeping(so3):
    shift = so3.weight_shift()
    for n in (1, 2, 3):
        basis = chain_basis(so3, n, 4)
        for exps, index in basis.elements:
            image = apply_boundary(so3, {index: so3.vars.monomial(exps)})
            for out_index, g in image.items():
                if g.is_zero():
                    continue
                w = homogeneous_weight(g) + sum(
                    so3.vars.weights[i] for i in out_index
                )
                assert w == 4 + shift
                assert len(out_index) == n - 1


# -- coboundary goldens ----------------------------------------------------------


def test_coboundary_at_order_zero(so3):
    vt = so3.vars
    x, y, z = vt.gens()
    casimir = x ** 2 + y ** 2 + z ** 2
    df = apply_coboundary(so3, Cochain(0, {(): casimir}))
    assert df.is_zero()
    dg = apply_coboundary(so3, Cochain(0, {(): x}))
    assert dg.value((1,), vt) == -z
    assert dg.value((2,), vt) == y
    assert dg.value((0,), vt).is_zero()


def test_coboundary_squares_on_random_cochains(potential, log3u):
    rng = random.Random(5)
    for S in (potential, log3u):
        vt = S.vars
        F = Cochain(
            1,
            {(i,): random_polynomial(rng, vt) for i in range(3)},
        )
        twice = apply_coboundary(S, apply_coboundary(S, F))
        assert twice.is_zero()


def test_boundary_refuses_an_index_out_of_order(so3):
    x, y, _ = so3.vars.gens()
    with pytest.raises(ValueError, match="multi-index"):
        apply_boundary(so3, {(2, 1, 0): x * y})


def test_boundary_refuses_an_index_out_of_range(so3):
    x = so3.vars.gen(0)
    with pytest.raises(ValueError, match="multi-index"):
        apply_boundary(so3, {(0, 5): x})


def test_coboundary_refuses_an_index_out_of_range(so3):
    x = so3.vars.gen(0)
    with pytest.raises(ValueError, match="multi-index"):
        apply_coboundary(so3, Cochain(1, {(5,): x}))


COEFF_REFUSAL = ("coefficient module must be one of ('canonical', 'omega'), "
                 "got 'bad'")


def test_unknown_coefficient_names_are_refused(so3):
    # the library refuses the name itself, not only the CLI's --coeff choice;
    # at max_weight -1 the window is empty too, and the name is refused first
    calls = [lambda: homology_dims(so3, "bad"),
             lambda: homology_dims(so3, "bad", max_weight=-1),
             lambda: boundary_matrix(so3, 1, 1, "bad")]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == COEFF_REFUSAL


def test_oracle_boundary_refuses_an_unknown_coefficient(so3):
    x = so3.vars.gen(0)
    with pytest.raises(ValueError) as info:
        apply_boundary(so3, {(0,): x}, coeff="bad")
    assert str(info.value) == COEFF_REFUSAL


@pytest.mark.parametrize("call, message", [
    (lambda S: homology_dims(S, max_weight=-1),
     "max_weight must be at least 0, got -1"),
    (lambda S: homology_dims(S, "omega", max_weight=-1),
     "max_weight must be at least 0, got -1"),
    (lambda S: cohomology_dims(S, max_weight=-10),
     "max_weight must be at least -3, got -10"),
    (lambda S: homology_dims(S, max_degree=-1),
     "max_degree must be at least 0, got -1"),
    (lambda S: cohomology_dims(S, max_degree=-1),
     "max_degree must be at least 0, got -1"),
], ids=["homology-weight", "omega-weight", "cohomology-weight",
        "homology-degree", "cohomology-degree"])
def test_sweeps_refuse_an_empty_window(so3, call, message):
    # the window holds no cell, so a table would be empty; duality_report
    # and the CLI refuse the same windows
    with pytest.raises(ValueError) as info:
        call(so3)
    assert str(info.value) == message


def test_smallest_windows_are_not_empty(so3):
    assert homology_dims(so3, max_weight=0, max_degree=0) == {(0, 0): 1}
    table = cohomology_dims(so3, max_weight=-3, max_degree=0)
    assert table == {(0, -3): 0}


def test_cochain_validation():
    vt = VarTable(("x", "y"))
    with pytest.raises(ValueError):
        Cochain(1, {(1, 0): vt.one()})
    with pytest.raises(ValueError):
        Cochain(2, {(0,): vt.one()})
    c = Cochain(1, {(0,): vt.zero()})
    assert c.is_zero()


# -- dimension tables ------------------------------------------------------------


def test_symplectic_tables(symplectic):
    H = homology_dims(symplectic, max_weight=8)
    assert all(H[(0, w)] == 0 for w in range(9))
    assert all(H[(1, w)] == 0 for w in range(9))
    assert H[(2, 2)] == 1
    assert sum(v for (n, w), v in H.items() if n == 2) == 1

    C = cohomology_dims(symplectic, max_weight=8)
    assert C[(0, 0)] == 1
    assert sum(C.values()) == 1  # constants only, as for the affine plane


def test_so3_casimir_parity(so3):
    C = cohomology_dims(so3, max_weight=8)
    for w in range(9):
        assert C[(0, w)] == (1 if w % 2 == 0 else 0)


def test_twisted_tables_differ_for_log2(log2):
    canonical = homology_dims(log2, coeff="canonical", max_weight=6)
    twisted = homology_dims(log2, coeff="omega", max_weight=6)
    assert canonical != twisted
    assert twisted[(2, 2)] == 1
    assert all(v == 0 for (n, w), v in canonical.items() if n == 2)


def test_unimodular_tables_collapse(so3, potential, log3u, trivial2):
    for S in (so3, potential, log3u, trivial2):
        canonical = homology_dims(S, max_weight=6)
        twisted = homology_dims(S, coeff="omega", max_weight=6)
        assert canonical == twisted


def test_maps_with_an_empty_side_are_not_built(monkeypatch):
    # a map with no source or no target has rank 0, so the sweeps count its
    # cell with its full dimension and assemble and rank no matrix for it
    shapes = []
    for name in ("boundary_matrix", "coboundary_matrix"):
        def recording(*args, make=getattr(complexes, name)):
            cell = make(*args)
            shapes.append((len(cell.source), len(cell.target)))
            return cell
        monkeypatch.setattr(complexes, name, recording)
    empty = 0
    for entry in CATALOG:
        S = _fresh(entry.id)
        shift = S.weight_shift()
        homology_dims(S, max_weight=4)
        cohomology_dims(S, max_weight=4)
        empty += sum(not (len(chain_basis(S, n, w))
                          and len(chain_basis(S, n - 1, w + shift)))
                     for n in range(1, len(S.vars) + 1) for w in range(5))
    assert shapes and empty
    assert all(source and target for source, target in shapes)


def test_trivial_homology_is_the_full_basis(trivial2):
    H = homology_dims(trivial2, max_weight=5)
    for (n, w), dim in H.items():
        assert dim == len(chain_basis(trivial2, n, w))


def test_zeroth_cohomology_matches_casimir_oracle():
    for S in ALL:
        C = cohomology_dims(S, max_weight=6, max_degree=1)
        for w in range(7):
            assert C[(0, w)] == casimir_dimension(S, w), (S.vars.names, w)


def test_zeroth_homology_matches_coinvariant_oracle():
    for S in ALL:
        H = homology_dims(S, max_weight=6, max_degree=1)
        for w in range(7):
            assert H[(0, w)] == coinvariant_dimension(S, w), (S.vars.names, w)


def test_euler_characteristic_along_diagonals():
    for S in ALL:
        for coeff in ("canonical", "omega"):
            H = homology_dims(S, coeff=coeff, max_weight=8)
            for diag in range(0, 9):
                assert euler_characteristic_matches(S, H, "chain", diag, 0, 8)
        lo = -sum(S.vars.weights)
        C = cohomology_dims(S, max_weight=8)
        for diag in range(lo, 9):
            assert euler_characteristic_matches(S, C, "cochain", diag, lo, 8)


def test_dim_table_tsv_golden():
    table = {(0, 0): 1, (1, 2): 3}
    assert dim_table_tsv(table) == "n\tw\tdim\n0\t0\t1\n1\t2\t3"


def test_inhomogeneous_structures_are_refused():
    vt = VarTable(("x", "y"))
    S = PoissonStructure(vt, {(0, 1): vt.gen(0) + 1})
    with pytest.raises(NonHomogeneousError):
        homology_dims(S, max_weight=2)
    with pytest.raises(NonHomogeneousError):
        cohomology_dims(S, max_weight=2)
    with pytest.raises(NonHomogeneousError):
        duality_report(S, max_weight=2)


# -- duality ---------------------------------------------------------------------


def test_duality_on_one_variable():
    vt = VarTable(("x",))
    S = PoissonStructure(vt, {})
    report = duality_report(S, max_weight=0)
    assert report.expected_shift == 1
    assert report.fitting_shifts == (1,)
    assert report.passed


def test_duality_symplectic(symplectic):
    report = duality_report(symplectic, max_weight=8)
    assert report.fitting_shifts == (2,)
    assert report.passed
    assert report.unimodular
    assert homology_dims(symplectic, "canonical", max_weight=8) == report.twisted


def test_duality_catalog_small_window():
    for S in ALL:
        report = duality_report(S, max_weight=5)
        assert report.expected_shift in report.fitting_shifts, S.vars.names
        assert report.passed, S.vars.names


def test_duality_weighted_variables():
    vt = VarTable(("x", "y"), (1, 2))
    S = PoissonStructure(vt, {(0, 1): vt.gen(0) ** 2})
    report = duality_report(S, max_weight=6)
    assert report.expected_shift == 3
    assert 3 in report.fitting_shifts
    assert report.passed
    assert not report.unimodular
    assert homology_dims(S, "canonical", max_weight=6) != report.twisted


def test_duality_render_contains_verdict(symplectic):
    report = duality_report(symplectic, max_weight=3)
    text = report.render_text()
    assert "result: PASS" in text
    assert "expected shift: 2" in text
    tsv = report.render_tsv()
    assert "2\t2\t1\t1\tok" in tsv.splitlines()


def test_shift_not_found(monkeypatch, symplectic):
    # force a table the cohomology cannot pair with at any shift
    real = complexes.homology_dims

    def tampered(S, coeff="canonical", max_weight=8, max_degree=None):
        table = real(S, coeff=coeff, max_weight=max_weight, max_degree=max_degree)
        table[(1, 1)] = 7
        return table

    monkeypatch.setattr(complexes, "homology_dims", tampered)
    with pytest.raises(ShiftNotFound) as info:
        duality_report(symplectic, max_weight=4)
    report = info.value.report
    assert report.fitting_shifts == ()
    assert not report.passed
    assert "result: FAIL" in report.render_text()


def test_duality_refuses_an_empty_window(so3):
    with pytest.raises(ValueError, match="max_weight"):
        duality_report(so3, max_weight=-1)


# -- the duality certificate and the cohomology read off the twisted cells -------


def _oracles_agree(make, max_weight):
    """duality_report against two sweeps on structures fresh from make(),
    so that no plan or rank is shared with the report's."""
    report = duality_report(make(), max_weight=max_weight)
    assert report.certified and report.passed
    oracle = make()
    assert report.twisted == homology_dims(oracle, "omega", max_weight)
    assert dict(report.cohomology) == cohomology_dims(oracle, max_weight=max_weight)
    assert report.fitting_shifts == eager_duality(make(), max_weight)


@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_duality_matches_the_two_sweep_oracles(entry):
    _oracles_agree(lambda: _fresh(entry.id), 8)


@st.composite
def weighted_structures(draw):
    """Log-canonical brackets (l = 3 or 4) with rational entries, or l = 3
    Jacobian brackets of a rational weighted-homogeneous potential; weights
    1 to 3."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        ell = draw(st.integers(3, 4))
        vt = VarTable(tuple(f"x{i}" for i in range(ell)),
                      tuple(draw(st.integers(1, 3)) for _ in range(ell)))
        entries = {}
        for i, j in combinations(range(ell), 2):
            c = draw(rationals)
            if c:
                entries[(i, j)] = vt.monomial(
                    tuple(int(k in (i, j)) for k in range(ell)), c)
        return PoissonStructure(vt, entries)
    vt = VarTable(("x", "y", "z"), tuple(draw(st.integers(1, 3)) for _ in range(3)))
    weights = [w for w in range(2, sum(vt.weights) + 3) if monomials_of_weight(vt, w)]
    terms = monomials_of_weight(vt, draw(st.sampled_from(weights)))
    phi = vt.zero()
    for exps in draw(st.lists(st.sampled_from(terms), min_size=1, max_size=3)):
        phi = phi + vt.monomial(exps, draw(rationals))
    dx, dy, dz = (partial_derivative(phi, k) for k in range(3))
    return PoissonStructure(vt, {(0, 1): dz, (1, 2): dx, (0, 2): -dy})


@given(weighted_structures())
@settings(max_examples=60, deadline=None)
def test_certificate_and_oracles_on_random_structures(S):
    document = (S.vars, dict(S.entries))
    assert complexes._duality_certificate(S)
    _oracles_agree(lambda: PoissonStructure(*document), 3)


def _verdict(S, max_weight=4):
    try:
        return duality_report(S, max_weight=max_weight)
    except ShiftNotFound as exc:
        return exc.report


def _scaled_traces(S, scale):
    tables = S.term_tables()
    traces = tuple(tuple((t, scale * c) for t, c in terms) for terms in tables.traces)
    S._tables = dataclasses.replace(tables, traces=traces, plans={}, bases={},
                                    ranks={})


def _drop_anchor_term(S):
    # the first step of the built omega table with an anchor part loses
    # one anchor term; a fault shared by every table is the d^2
    # certificate's to find, not this one's
    plans = complexes._plans(S, complexes._twist(S, "omega"))
    for I, plan in plans.items():
        for k, (J, t, c0, linear) in enumerate(plan):
            if linear:
                kept = ((J, t, c0, linear[1:]),) if c0 or linear[1:] else ()
                plans[I] = plan[:k] + kept + plan[k + 1:]
                return


def _drop_step(S):
    # every other step still has its counterpart, so only the count of
    # steps can see this one
    plans = complexes._plans(S, complexes._twist(S, "omega"))
    I = next(I for I, plan in plans.items() if plan)
    plans[I] = plans[I][1:]


MUTATIONS = {
    "negated-traces": lambda S, monkeypatch: _scaled_traces(S, -1),
    "doubled-traces": lambda S, monkeypatch: _scaled_traces(S, 2),
    "dropped-anchor-term": lambda S, monkeypatch: _drop_anchor_term(S),
    "dropped-step": lambda S, monkeypatch: _drop_step(S),
    "flipped-shuffle-sign": lambda S, monkeypatch: monkeypatch.setattr(
        complexes, "_shuffle_sign",
        lambda index, real=complexes._shuffle_sign:
            -real(index) if index == (0,) else real(index)),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("entry_id", ["log-canonical-2", "log-canonical-3"])
def test_mutations_fail_the_certificate_and_the_verdict(entry_id, mutation,
                                                        monkeypatch):
    S = _fresh(entry_id)
    assert complexes._duality_certificate(S)
    MUTATIONS[mutation](S, monkeypatch)
    assert not complexes._duality_certificate(S)
    report = _verdict(S)
    assert not report.certified and not report.passed
    text = report.render_text()
    assert "certificate: FAIL" in text and text.endswith("result: FAIL")


def test_a_failing_certificate_fails_even_when_the_tables_fit(monkeypatch):
    # a wrong shuffle sign leaves both complexes as they are, so the swept
    # cohomology still fits at the expected shift; the verdict is FAIL
    # anyway, and the command exits 1
    MUTATIONS["flipped-shuffle-sign"](None, monkeypatch)
    report = duality_report(_fresh("log-canonical-3"), max_weight=4)
    assert report.expected_shift in report.fitting_shifts
    assert all(ok for *_, ok in report.cells)
    assert not report.passed
    assert main(["catalog", "run", "log-canonical-3", "duality",
                 "--max-weight", "4"]) == 1


@pytest.mark.parametrize("scale", [-1, 2])
def test_wrong_traces_find_no_shift(scale):
    S = _fresh("log-canonical-3")
    _scaled_traces(S, scale)
    with pytest.raises(ShiftNotFound) as info:
        duality_report(S, max_weight=4)
    assert not info.value.report.certified


@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_duality_takes_each_rank_once(entry, monkeypatch):
    built, ranks = [], []
    for name in ("boundary_matrix", "coboundary_matrix"):
        def recording(*args, name=name, make=getattr(complexes, name)):
            built.append((name,) + args[1:])
            return make(*args)
        monkeypatch.setattr(complexes, name, recording)
    real_rank = SparseMatrix.rank
    monkeypatch.setattr(SparseMatrix, "rank",
                        lambda self: ranks.append(1) or real_rank(self))
    report = duality_report(_fresh(entry.id), max_weight=6)
    dict(report.cohomology)  # every cell, also those above the window
    assert len(set(built)) == len(built) == len(ranks)
    assert all(name == "boundary_matrix" for name, *_ in built)


def test_cohomology_above_the_window_is_computed_when_read():
    # so3 fits at its expected shift only, and every other shift fails
    # inside the window, so the report takes no rank the sweep did not
    S, oracle = _fresh("so3"), _fresh("so3")
    report = duality_report(S, max_weight=7)
    homology_dims(oracle, "omega", max_weight=7)
    swept = oracle.term_tables().ranks
    assert S.term_tables().ranks == swept
    assert isinstance(report.cohomology, Mapping)
    with pytest.raises(TypeError):
        report.cohomology[(0, 0)] = 1
    assert dict(report.cohomology) == cohomology_dims(_fresh("so3"), max_weight=7)
    (key, read), = S.term_tables().ranks.items()
    assert len(read) > len(swept[key])
