import dataclasses
import random
from collections import Counter
from collections.abc import Mapping
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poishom.complexes as complexes
from poishom.catalog import CATALOG
from poishom.cli import main
from poishom.linalg import SparseMatrix
from poishom.complexes import (
    CertificateFailure,
    DualityReport,
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
from poishom.specfile import SpecDocument
from poishom.structure import NonHomogeneousError, PoissonStructure

from _oracles import (
    Cochain,
    apply_boundary,
    apply_coboundary,
    boundary_matrix_by_columns,
    closure_plans,
    coboundary_matrix_by_columns,
    eager_duality,
    euler_characteristic_matches,
    jacobian_cohomology,
    log_canonical_homology,
    log_canonical_matrix,
    mixed_denominator_log_canonical,
    plans_square_to_zero,
    random_log_canonical,
    random_polynomial,
    scale_traces,
    swept_cohomology,
    tuple_assembled,
    tuple_basis,
    weighted_rational,
)

ALL = [entry.document.to_structure() for entry in CATALOG]
DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"
DOCS = sorted(DOCS_DIR.glob("*.json"))


# -- bases ---------------------------------------------------------------------


def test_chain_basis_sizes(symplectic):
    # weight w cell at order n: monomials of degree w - n, indices C(2, n)
    assert len(chain_basis(symplectic, 0, 3)) == 4
    assert len(chain_basis(symplectic, 1, 3)) == 2 * 3
    assert len(chain_basis(symplectic, 2, 3)) == 2
    assert len(chain_basis(symplectic, 3, 3)) == 0
    assert len(chain_basis(symplectic, 1, 0)) == 0
    assert len(chain_basis(symplectic, 0, -1)) == 0


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


@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_count_is_the_basis_size(entry):
    # the strand check refutes shifts by these counts, so a count off by
    # one would refute a shift that fits; a cochain cell (k, v) is counted
    # as the chain cell (ell - k, v + total), m dx_I <-> m dx_{I^c}
    S = entry.document.to_structure()
    ell, total = len(S.vars), sum(S.vars.weights)
    for w in range(-total - 1, 11):
        for n in range(ell + 2):
            assert complexes._count(S, n, w) == len(chain_basis(S, n, w)), (n, w)
        for k in range(ell + 1):
            assert complexes._count(S, ell - k, w + total) == len(
                cochain_basis(S, k, w)), (k, w)


def _enumerated_basis(S, n, w, sign):
    # the cell (n, w) enumerated on its own, nothing kept
    vt = S.vars
    if not 0 <= n <= len(vt):
        return ()
    return tuple(sorted(
        (exps, index) for index in combinations(range(len(vt)), n)
        for exps in monomials_of_weight(vt, w + sign * sum(vt.weights[i] for i in index))))


BASIS_INPUTS = ALL + [weighted_rational(),
                      SpecDocument.load(DOCS_DIR / "weighted-line.json").to_structure()]


@pytest.mark.parametrize("S", BASIS_INPUTS,
                         ids=[e.id for e in CATALOG] + ["weighted-rational", "weighted-line"])
def test_bases_match_an_enumeration_per_cell(S):
    # the cells share one monomial table per structure; each basis must
    # still be its own cell's, sorted by (monomial, index), including the
    # negative cochain weights and the degrees outside 0..ell
    ell, total = len(S.vars), sum(S.vars.weights)
    for w in range(-total - 2, 9):
        for n in range(-1, ell + 2):
            assert chain_basis(S, n, w).elements == _enumerated_basis(S, n, w, -1), (n, w)
            assert cochain_basis(S, n, w).elements == _enumerated_basis(S, n, w, 1), (n, w)


@pytest.mark.parametrize("S", BASIS_INPUTS,
                         ids=[e.id for e in CATALOG] + ["weighted-rational", "weighted-line"])
def test_keys_strictly_increase(S):
    # sorted and distinct, so each key has one row and one column
    ell, total = len(S.vars), sum(S.vars.weights)
    for w in range(-total - 2, 9):
        for n in range(-1, ell + 2):
            for basis in (chain_basis(S, n, w), cochain_basis(S, n, w)):
                keys = basis.keys
                assert all(a < b for a, b in zip(keys, keys[1:])), (n, w)


def test_a_degree_of_2_to_the_31_is_refused():
    # a key holds each exponent in a 32-bit digit, and a step may add to
    # it, so degrees stop below 2^31 rather than alias another monomial
    S = _fresh("trivial-1")
    for basis in (chain_basis, cochain_basis):
        with pytest.raises(ValueError, match=r"the cell \(0, 2147483648\) .* 2147483648"):
            basis(S, 0, 2 ** 31)
    # the highest degree kept: dx_0 has rank 0 and the empty index rank 1
    top = chain_basis(S, 1, 2 ** 31)
    assert top.elements == (((2 ** 31 - 1,), (0,)),)
    assert top.keys == ((2 ** 31 - 1) * 2,)
    top = chain_basis(S, 0, 2 ** 31 - 1)
    assert top.elements == (((2 ** 31 - 1,), ()),)
    assert top.keys == ((2 ** 31 - 1) * 2 + 1,)


def test_each_weight_is_enumerated_once_per_structure(monkeypatch):
    calls = Counter()

    def counted(vars, w, real=complexes.monomials_of_weight):
        calls[w] += 1
        return real(vars, w)

    monkeypatch.setattr(complexes, "monomials_of_weight", counted)
    homology_dims(_fresh("so3"), "canonical", 10)
    assert calls and max(calls.values()) == 1, calls
    # the cells (n, w) with w < n ask for negative degrees, which hold no
    # monomial and are not enumerated
    assert min(calls) == 0, calls
    # the table is kept on the structure, so a second one enumerates afresh
    calls.clear()
    homology_dims(_fresh("so3"), "canonical", 10)
    assert calls and max(calls.values()) == 1, calls


def test_strand_sums_vanish_with_a_generator_of_weight_minus_the_shift(so3):
    # why duality_report skips the strand check on such structures
    vt = VarTable(("x", "y"), (1, 2))
    for S in (so3, PoissonStructure(vt, {(0, 1): vt.gen(0) ** 2})):
        ell, d = len(S.vars), S.weight_shift()
        assert -d in S.vars.weights
        for c in range(-6, 12):
            assert sum((-1) ** n * complexes._count(S, n, c - n * d)
                       for n in range(ell + 1)) == 0, c


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


# -- the plan tables against the closure-built oracle --------------------------


def _assert_plans_match_the_oracle(S):
    # equal as tuples, key order and the step order of every plan included
    for coeff in ("canonical", "omega"):
        twist = complexes._twist(S, coeff)
        for backwards in (False, True):
            got = complexes._plans(S, twist, backwards)
            assert list(got.items()) == list(closure_plans(S, twist, backwards).items()), \
                (coeff, backwards)


ORACLE_PLAN_INPUTS = (PLAN_INPUTS + [SpecDocument.load(path).to_structure() for path in DOCS]
                      + [random_log_canonical(random.Random(ell), ell) for ell in (1, 2, 5)])
ORACLE_PLAN_IDS = (PLAN_IDS + [f"docs/{path.name}" for path in DOCS]
                   + [f"random-log-canonical-{ell}" for ell in (1, 2, 5)])


@pytest.mark.parametrize("S", ORACLE_PLAN_INPUTS, ids=ORACLE_PLAN_IDS)
def test_plans_match_the_closure_oracle(S):
    _assert_plans_match_the_oracle(S)


# -- int-key assembly against the tuple-keyed oracle ---------------------------


def _stored_order(matrix):
    # the rows in stored order, each with its columns in stored order: the
    # order elimination reads them in
    return ((matrix.nrows, matrix.ncols, matrix.denominator),
            [(r, list(row.items())) for r, row in matrix.rows.items()])


def _assert_assembly_matches_the_tuple_oracle(S, max_weight):
    ell, total = len(S.vars), sum(S.vars.weights)
    for name, twist, backwards in _differentials(S):
        plans = complexes._plans(S, twist, backwards)
        step, sign, low = (1, 1, -total) if backwards else (-1, -1, 0)
        for n in range(ell + 1):
            for w in range(low, max_weight + 1):
                cell = (coboundary_matrix(S, n, w) if backwards
                        else boundary_matrix(S, n, w, name))
                slow = tuple_assembled(S, n, w, step, sign, plans)
                assert cell.source.elements == tuple_basis(S, n, w, sign), (name, n, w)
                assert _stored_order(cell.matrix) == _stored_order(slow), (name, n, w)
                assert cell.matrix.rank() == slow.rank(), (name, n, w)
                assert cell.matrix.pivots == slow.pivots, (name, n, w)


@pytest.mark.parametrize("S", ORACLE_PLAN_INPUTS, ids=ORACLE_PLAN_IDS)
def test_assembly_matches_the_tuple_oracle(S):
    _assert_assembly_matches_the_tuple_oracle(S, 5)


def test_swapped_ranks_in_the_packing_fail_the_tuple_oracle(monkeypatch):
    # x_0 and x_1 trade bits, so dx_0 and dx_1 trade ranks, consistently:
    # every key still decodes, and only the order of the cells' keys, and
    # so of rows and columns, moves
    def swapped(ell, real=complexes._layout):
        shifts, (first, second, *rest) = real(ell)
        return shifts, (second, first, *rest)

    monkeypatch.setattr(complexes, "_layout", swapped)
    with pytest.raises(AssertionError):
        _assert_assembly_matches_the_tuple_oracle(_fresh("so3"), 3)


def _form_lengths(S):
    """Per distinct boundary table of S: how many of its steps have a
    linear form of 0, 1, and 2 or more terms."""
    tables = []
    for coeff in ("canonical", "omega"):
        plans = complexes._plans(S, complexes._twist(S, coeff))
        if all(plans is not seen for seen in tables):
            tables.append(plans)
    return [tuple(Counter(min(len(linear), 2) for plan in plans.values()
                          for *_, linear in plan)[k] for k in range(3))
            for plans in tables]


def test_plan_tables_hold_forms_of_every_length():
    # _assemble keeps a one-term form flat and sums any other term by term,
    # so the tuple oracle test above must meet forms of 0, 1 and 2+ terms
    inputs = ([(entry.id, _fresh(entry.id)) for entry in CATALOG]
              + [(path.name, SpecDocument.load(path).to_structure()) for path in DOCS])
    lengths = {name: _form_lengths(S) for name, S in inputs}
    assert lengths["so3"] == [(3, 24, 0)]
    assert lengths["potential-x2z"] == [(1, 8, 4)]
    assert lengths["log-canonical-3"] == [(0, 0, 12), (0, 0, 12)]
    assert lengths["jacobian-casimirs-4.json"] == [(20, 112, 32)]
    assert all(sum(c[k] for tables in lengths.values() for c in tables) for k in range(3))
    # and the steps _assemble builds are flat exactly for one-term forms
    for name, S in inputs:
        for n in range(len(S.vars) + 1):
            boundary_matrix(S, n, 3, "omega")
        for (twist, backwards), steps in S.term_tables().offsets.items():
            plans = complexes._plans(S, twist, backwards)
            bits = complexes._layout(len(S.vars))[1]
            for r, built in steps.items():
                plan = plans[complexes._index(r, bits)]
                assert [(a, c) if c else a for _, _, a, c in built] == [
                    linear[0] if len(linear) == 1 else linear for *_, linear in plan], name


def _ranked_matrices(S, max_weight):
    """Every matrix that the duality and homology sweeps of S hand to
    ``SparseMatrix.rank``, as (nrows, ncols, rows) copied when handed."""
    handed = []
    real = SparseMatrix.rank

    def rank(matrix):
        handed.append((matrix.nrows, matrix.ncols,
                       {r: dict(row) for r, row in matrix.rows.items()}))
        return real(matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SparseMatrix, "rank", rank)
        duality_report(S, max_weight)
        homology_dims(S, "canonical", max_weight)
    return handed


def _assert_rank_gets_int_rows(S, max_weight):
    # rank takes the constructor's contract on trust: a zero value could
    # lead a pivot, and a pivot's content is divided out exactly, so each
    # row must be nonempty, hold nonzero ints only and lie inside the shape
    handed = _ranked_matrices(S, max_weight)
    for nrows, ncols, rows in handed:
        for r, row in rows.items():
            assert row and 0 <= r < nrows
            assert all(type(v) is int and v and 0 <= c < ncols for c, v in row.items())
    return len(handed)


def test_rank_gets_int_rows_on_the_catalog_and_the_documents():
    structures = ([_fresh(entry.id) for entry in CATALOG]
                  + [SpecDocument.load(path).to_structure() for path in DOCS])
    assert sum(_assert_rank_gets_int_rows(S, 8) for S in structures) > 200


def _steps_never_borrow(S):
    # a step whose t has a negative entry has one, t_a = -1, and a form
    # c_a * e_a alone, so its entry vanishes unless e_a >= 1: no target
    # e + t of a nonzero entry has a negative exponent, and a packed key
    # plus the step's offset never borrows from a neighbouring digit.
    # The number of steps with a negative entry is returned
    borrowing = 0
    for coeff in ("canonical", "omega"):
        for backwards in (False, True):
            plans = complexes._plans(S, complexes._twist(S, coeff), backwards)
            for I, plan in plans.items():
                for J, t, c0, linear in plan:
                    negative = [a for a, e in enumerate(t) if e < 0]
                    if negative:
                        borrowing += 1
                        assert len(negative) == 1, (coeff, backwards, I, J, t)
                        [a] = negative
                        assert t[a] == -1 and c0 == 0, (coeff, backwards, I, J, t)
                        assert [b for b, _ in linear] == [a], (coeff, backwards, I, J, t)
    return borrowing


@pytest.mark.parametrize("S", ORACLE_PLAN_INPUTS, ids=ORACLE_PLAN_IDS)
def test_steps_never_borrow(S):
    _steps_never_borrow(S)


def test_steps_with_a_negative_entry_are_common():
    # the rule above is not vacuous: steps on so3 lower a variable
    assert _steps_never_borrow(_fresh("so3")) > 0


def _flip_face_sign(faces, S):
    # the face dx_1 of dx_{01}
    (i, rest, sign), *others = faces[(0, 1)][0]
    faces[(0, 1)] = (((i, rest, -sign), *others), faces[(0, 1)][1])


def _flip_contraction_sign(faces, S):
    # dx_k in the contraction of dx_{01}, for the first k with a nonzero
    # partial d{x_0, x_1}/dx_k
    (pair, inserted), = faces[(0, 1)][1]
    k = S.term_tables().partials[pair][0][0]
    J, sign = inserted[k]
    faces[(0, 1)] = (faces[(0, 1)][0], ((pair, {**inserted, k: (J, -sign)}),))


@pytest.mark.parametrize("flip", [_flip_face_sign, _flip_contraction_sign])
@pytest.mark.parametrize("entry_id", ["so3", "log-canonical-3", "potential-x2z"])
def test_a_flipped_sign_in_the_face_table_fails_the_oracle_and_d_squared(
        entry_id, flip, monkeypatch):
    S = _fresh(entry_id)

    def faces(ell, real=complexes._faces):
        table = dict(real(ell))
        if ell == 3:
            flip(table, S)
        return table

    monkeypatch.setattr(complexes, "_faces", faces)
    twist = complexes._twist(S, "canonical")
    assert complexes._plans(S, twist) != closure_plans(S, twist)
    assert not plans_square_to_zero(S, complexes._plans(S, twist))


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


def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


@pytest.mark.parametrize("entry_id", ["log-canonical-2", "log-canonical-3",
                                      "log-canonical-3u"])
def test_plans_square_to_zero_only_for_a_poisson_vector_field(entry_id):
    # a diagonal field sum c_i x_i d_i preserves a log-canonical bracket;
    # X_0 = x_1 sends {x_0, x_1} = a x_0 x_1 to a x_1^2 but {X x_0, x_1} +
    # {x_0, X x_1} = {x_1, x_1} = 0, so it is no Poisson vector field
    S = _fresh(entry_id)
    n, d = len(S.vars), S.term_tables().denominator
    rng = random.Random(7)
    for _ in range(6):
        cs = [rng.randint(-3, 3) for _ in range(n)]
        twist = tuple(((_unit(n, i), c * d),) if c else () for i, c in enumerate(cs))
        assert plans_square_to_zero(S, complexes._plans(S, twist)), cs
    shear = (((_unit(n, 1), d),),) + ((),) * (n - 1)
    assert not plans_square_to_zero(S, complexes._plans(S, shear))


def _drop_first_anchor_terms(S):
    # every anchor row loses its first entry, so every plan table built
    # from the tables shares the fault
    tables = S.term_tables()
    S._tables = dataclasses.replace(
        tables, anchor=tuple(row[1:] for row in tables.anchor),
        plans={}, offsets={}, bases={}, ranks={}, pivots={})


@pytest.mark.parametrize("entry_id", ["so3", "log-canonical-3", "log-canonical-3u"])
def test_an_anchor_term_dropped_everywhere_fails_only_d_squared(entry_id):
    # the duality certificate compares two tables with the same fault and
    # still holds; d^2 = 0 fails on each table
    S = _fresh(entry_id)
    _drop_first_anchor_terms(S)
    assert complexes._duality_certificate(S)
    assert not any(_square_to_zero(S).values())


def test_a_bracket_that_breaks_jacobi_fails_d_squared(monkeypatch):
    # criterion 05's bracket, with jacobiator -(x + y + z), built past the
    # Jacobi check: neither boundary table squares to zero
    monkeypatch.setattr(PoissonStructure, "_check_jacobi", lambda self: None)
    vt = VarTable(("x", "y", "z"))
    x, y, z = vt.gens()
    S = PoissonStructure(vt, {(0, 1): y, (1, 2): z, (2, 0): x})
    square = _square_to_zero(S)
    assert not square["canonical"] and not square["omega"]
    assert all(_square_to_zero(_fresh("so3")).values())


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
], ids=["homology-weight", "omega-weight", "cohomology-weight"])
def test_sweeps_refuse_an_empty_window(so3, call, message):
    # the window holds no cell, so a table would be empty; duality_report
    # and the CLI refuse the same windows
    with pytest.raises(ValueError) as info:
        call(so3)
    assert str(info.value) == message


def test_smallest_windows_are_not_empty(so3):
    assert homology_dims(so3, max_weight=0) == {
        (0, 0): 1, (1, 0): 0, (2, 0): 0, (3, 0): 0}
    assert cohomology_dims(so3, max_weight=-3) == {
        (0, -3): 0, (1, -3): 0, (2, -3): 0, (3, -3): 1}


def test_sweeps_stop_at_the_top_degree(so3):
    # so3 has three variables, so no cell lies above n = 3
    for coeff in ("canonical", "omega"):
        table = homology_dims(so3, coeff, max_weight=1)
        assert sorted(table) == [(n, w) for n in range(4) for w in range(2)]
    table = cohomology_dims(so3, max_weight=-2)
    assert sorted(table) == [(n, w) for n in range(4) for w in (-3, -2)]


@pytest.mark.parametrize("sweep", [homology_dims, cohomology_dims],
                         ids=["homology", "cohomology"])
def test_sweeps_take_no_degree_window(so3, sweep):
    # every table covers n = 0..ell, the degrees the duality pairs
    with pytest.raises(TypeError, match="max_degree"):
        sweep(so3, max_degree=1)


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


# -- the closed form of l = 3 Jacobian structures with an isolated singularity ---


def _brieskorn_pham(exponents, coeffs):
    """The Jacobian structure of phi = sum_i c_i x_i^(a_i), weights L / a_i
    with L the lcm, so phi has degree L and an isolated singularity."""
    d = lcm(*exponents)
    vt = VarTable(("x", "y", "z"), tuple(d // a for a in exponents))
    phi = vt.zero()
    for i, (a, c) in enumerate(zip(exponents, coeffs)):
        phi = phi + vt.monomial(tuple(a if k == i else 0 for k in range(3)), c)
    dx, dy, dz = (partial_derivative(phi, k) for k in range(3))
    return PoissonStructure(vt, {(0, 1): dz, (1, 2): dx, (2, 0): dy})


def _closed_form_mismatches(exponents, coeffs, max_weight):
    """The cells where the tables of fresh structures differ from
    ``jacobian_cohomology``: the cohomology, both homology names and the
    duality report's twisted table, each at HP^(3 - n)_(w - |w|)."""
    def make():
        return _brieskorn_pham(exponents, coeffs)

    weights = make().vars.weights
    want = jacobian_cohomology(weights, lcm(*exponents), max_weight)
    dual = {(n, w): want[(3 - n, w - sum(weights))]
            for n in range(4) for w in range(max_weight + 1)}
    tables = [("cohomology", cohomology_dims(make(), max_weight=max_weight), want)]
    tables += [(coeff, homology_dims(make(), coeff, max_weight), dual)
               for coeff in ("canonical", "omega")]
    tables.append(("twisted", duality_report(make(), max_weight).twisted, dual))
    return [(name, key, got.get(key), table[key])
            for name, got, table in tables for key in table
            if got.get(key) != table[key]] + [
        (name, "keys") for name, got, table in tables if set(got) != set(table)]


nonzero_rationals = st.fractions(min_value=-3, max_value=3,
                                 max_denominator=5).filter(bool)


@given(st.tuples(*[st.integers(2, 7)] * 3),
       st.tuples(*[nonzero_rationals] * 3), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_brieskorn_pham_tables_match_the_closed_form(exponents, coeffs, periods):
    # the window reaches 1 to 3 periods d of the Casimirs C[phi]
    max_weight = (periods + 1) * lcm(*exponents)
    assert _closed_form_mismatches(exponents, coeffs, max_weight) == []


@pytest.mark.parametrize("delta", [-1, 1])
def test_a_rank_off_by_one_fails_the_closed_form(monkeypatch, delta):
    # every map between cells of the sizes of the first map of nonzero rank
    # gets a rank off by one: a cohomology cell and the twisted cell dual to
    # it alike, so the duality verdict still passes and only the closed
    # form sees the fault
    real = SparseMatrix.rank
    faulty = []

    def off(self):
        rank = real(self)
        if not rank:
            return rank
        if not faulty:
            faulty.append({self.nrows, self.ncols})
        return rank + delta if {self.nrows, self.ncols} == faulty[0] else rank

    exponents, coeffs = (3, 3, 3), (1, 1, 1)
    assert _closed_form_mismatches(exponents, coeffs, 6) == []
    monkeypatch.setattr(SparseMatrix, "rank", off)
    mismatches = _closed_form_mismatches(exponents, coeffs, 6)
    assert {name for name, *_ in mismatches} == {
        "cohomology", "canonical", "omega", "twisted"}
    assert duality_report(_brieskorn_pham(exponents, coeffs), 6).passed


def test_so3_tables_match_the_closed_form():
    # so3 is the Jacobian structure of (x^2 + y^2 + z^2) / 2; it is
    # unimodular, so the canonical homology is read through the complement
    # map: HP_n(w) = HP^(3 - n)(w - 3)
    want = jacobian_cohomology((1, 1, 1), 2, 12)
    assert len(want) == 64
    assert cohomology_dims(_fresh("so3"), max_weight=12) == want
    dual = {(n, w): want[(3 - n, w - 3)] for n in range(4) for w in range(13)}
    assert homology_dims(_fresh("so3"), "canonical", 12) == dual


# The counts are pinned exactly.  The fault breaks d^2 = 0, which the sweep
# relies on when it leaves out the rows at the pivot columns of the
# boundary below, so the counts depend on which rows it leaves out, and
# so on the order in which the cells are read, and not on the fault alone.
@pytest.mark.parametrize("exponents, cells", [((3, 3, 3), 23), ((2, 3, 4), 24),
                                               ((3, 4, 5), 56)])
def test_an_anchor_term_dropped_everywhere_fails_the_closed_form(exponents, cells):
    # the fault the duality certificate cannot see, since both tables it
    # compares share it, moves the cohomology off the closed form
    S = _brieskorn_pham(exponents, (1, 1, 1))
    _drop_first_anchor_terms(S)
    assert complexes._duality_certificate(S)
    assert not any(_square_to_zero(S).values())
    max_weight = 2 * lcm(*exponents)
    want = jacobian_cohomology(S.vars.weights, lcm(*exponents), max_weight)
    got = cohomology_dims(S, max_weight=max_weight)
    assert sum(got[key] != want[key] for key in want) == cells


# -- the closed form of log-canonical structures -------------------------------


LOG_CANONICAL = ("log-canonical-2", "log-canonical-3", "log-canonical-3u",
                 "trivial-1", "trivial-2", "trivial-3")


def _log_canonical(Q, weights):
    """{x_i, x_j} = Q[i][j] x_i x_j in variables of the given weights."""
    ell = len(weights)
    vt = VarTable(tuple(f"x{i}" for i in range(ell)), weights)
    return PoissonStructure(vt, {
        (i, j): vt.monomial(tuple(int(k in (i, j)) for k in range(ell)), Q[i][j])
        for i, j in combinations(range(ell), 2) if Q[i][j]})


def _assert_log_canonical_closed_form(S, Q, max_weight):
    """Both homology names against ``log_canonical_homology``, and the swept
    cohomology against the omega closed form through the shift."""
    weights, ell = S.vars.weights, len(S.vars)
    total = sum(weights)
    for coeff in ("canonical", "omega"):
        assert homology_dims(S, coeff, max_weight) == log_canonical_homology(
            Q, weights, coeff, max_weight), coeff
    omega = log_canonical_homology(Q, weights, "omega", max_weight + total)
    assert swept_cohomology(S, max_weight) == {
        (k, v): omega[(ell - k, v + total)]
        for k in range(ell + 1) for v in range(-total, max_weight + 1)}


@pytest.mark.parametrize("entry_id", LOG_CANONICAL)
def test_log_canonical_tables_match_the_closed_form(entry_id):
    S = _fresh(entry_id)
    _assert_log_canonical_closed_form(S, log_canonical_matrix(S), 6)


def test_log_canonical_closed_form_tells_the_names_apart(log3):
    # log-canonical-3 has nonzero row sums, so the two names differ
    Q = log_canonical_matrix(log3)
    assert log_canonical_homology(Q, (1, 1, 1), "canonical", 4) != \
        log_canonical_homology(Q, (1, 1, 1), "omega", 4)
    with pytest.raises(ValueError, match="coefficient module"):
        log_canonical_homology(Q, (1, 1, 1), "bad", 4)


@pytest.mark.parametrize("seed", range(10))
def test_random_log_canonical_tables_match_the_closed_form(seed):
    # integer Q with zero entries, and weights 1 or 2
    rng = random.Random(seed)
    ell = rng.randint(2, 4)
    Q = [[0] * ell for _ in range(ell)]
    for i, j in combinations(range(ell), 2):
        Q[i][j] = rng.randint(-2, 2)
        Q[j][i] = -Q[i][j]
    weights = tuple(rng.randint(1, 2) for _ in range(ell))
    _assert_log_canonical_closed_form(_log_canonical(Q, weights), Q, 5)


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

    def tampered(S, coeff="canonical", max_weight=8):
        table = real(S, coeff=coeff, max_weight=max_weight)
        table[(1, 1)] = 7
        return table

    monkeypatch.setattr(complexes, "homology_dims", tampered)
    report = duality_report(symplectic, max_weight=4)
    assert report.fitting_shifts == ()
    assert not report.passed
    assert "result: FAIL" in report.render_text()


def test_duality_refuses_an_empty_window(so3):
    with pytest.raises(ValueError, match="max_weight"):
        duality_report(so3, max_weight=-1)


def test_duality_refuses_before_any_count(monkeypatch):
    monkeypatch.setattr(complexes, "_count", lambda *args: pytest.fail("counted"))
    vt = VarTable(("x", "y"))
    S = PoissonStructure(vt, {(0, 1): vt.gen(0) + 1})
    with pytest.raises(ValueError, match="max_weight must be at least 0"):
        duality_report(S, max_weight=-1)
    with pytest.raises(NonHomogeneousError):
        duality_report(S, max_weight=2)


SHIFT_ZERO = ("log-canonical-2", "log-canonical-3", "log-canonical-3u",
              "potential-x2z", "trivial-1", "trivial-2", "trivial-3")


def _ranks_stay_in_the_window(S, max_weight):
    """With weight shift 0 every strand is one weight, so the strand
    check refutes each wrong shift before it reads a cell above the
    window, and no rank leaves a cell above it."""
    assert S.weight_shift() == 0
    duality_report(S, max_weight)
    cells = [cell for ranks in S.term_tables().ranks.values() for cell in ranks]
    assert cells and all(w <= max_weight for n, w in cells)


@pytest.mark.parametrize("max_weight", [0, 1])
@pytest.mark.parametrize("entry_id", SHIFT_ZERO)
def test_wrong_shifts_take_no_rank_above_the_window(entry_id, max_weight):
    _ranks_stay_in_the_window(_fresh(entry_id), max_weight)


# -- the duality certificate and the cohomology read off the twisted cells -------


def _oracles_agree(make, max_weight):
    """duality_report against two sweeps on structures fresh from make(),
    so that no plan or rank is shared with the report's."""
    report = duality_report(make(), max_weight=max_weight)
    assert report.passed
    oracle = make()
    assert report.twisted == homology_dims(oracle, "omega", max_weight)
    assert dict(report.cohomology) == swept_cohomology(oracle, max_weight)
    assert report.fitting_shifts == eager_duality(make(), max_weight)


# at window 0, symplectic-plane and so3 have a second fitting shift
@pytest.mark.parametrize("entry, max_weight", [
    *(pytest.param(e, 8, id=e.id) for e in CATALOG),
    *(pytest.param(e, 0, id=f"{e.id}-window-0") for e in CATALOG)])
def test_duality_matches_the_two_sweep_oracles(entry, max_weight):
    _oracles_agree(lambda: _fresh(entry.id), max_weight)


@st.composite
def weighted_structures(draw, max_ell=4):
    """Log-canonical brackets (l = 3 to max_ell) with rational entries, or
    l = 3 Jacobian brackets of a rational weighted-homogeneous potential;
    weights 1 to 3."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        ell = draw(st.integers(3, max_ell))
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


@given(weighted_structures(max_ell=5))
@settings(max_examples=30, deadline=None)
def test_plans_match_the_closure_oracle_on_random_structures(S):
    _assert_plans_match_the_oracle(S)


@given(weighted_structures(max_ell=5))
@settings(max_examples=30, deadline=None)
def test_steps_never_borrow_on_random_structures(S):
    _steps_never_borrow(S)


@given(weighted_structures(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_assembly_matches_the_tuple_oracle_on_random_structures(S, max_weight):
    _assert_assembly_matches_the_tuple_oracle(S, max_weight)


@given(weighted_structures(), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_rank_gets_int_rows_on_random_structures(S, max_weight):
    _assert_rank_gets_int_rows(S, max_weight)


@given(weighted_structures(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_certificate_and_oracles_on_random_structures(S, max_weight):
    # random weights with a small window are where a strand read off by
    # the sum of the weights would change the fitting shifts
    document = (S.vars, dict(S.entries))
    assert complexes._duality_certificate(S)
    _oracles_agree(lambda: PoissonStructure(*document), max_weight)


@given(weighted_structures().filter(lambda S: S.weight_shift() == 0),
       st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_wrong_shifts_take_no_rank_above_the_window_on_random_structures(S, max_weight):
    _ranks_stay_in_the_window(S, max_weight)


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
    # every other step still has its counterpart, so only the equality of
    # the whole tables can see this one
    plans = complexes._plans(S, complexes._twist(S, "omega"))
    I = next(I for I, plan in plans.items() if plan)
    plans[I] = plans[I][1:]


MUTATIONS = {
    "negated-traces": lambda S, monkeypatch: scale_traces(S, -1),
    "doubled-traces": lambda S, monkeypatch: scale_traces(S, 2),
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
    # the cohomology is read through the certificate, so a fault in the
    # plan tables raises before any table is read
    S = _fresh(entry_id)
    assert complexes._duality_certificate(S)
    MUTATIONS[mutation](S, monkeypatch)
    assert not complexes._duality_certificate(S)
    with pytest.raises(CertificateFailure):
        duality_report(S, max_weight=4)
    with pytest.raises(CertificateFailure):
        cohomology_dims(S, max_weight=4)


def test_a_failing_certificate_fails_even_when_the_tables_fit(monkeypatch, capsys):
    # a wrong shuffle sign leaves both complexes as they are, so the two
    # independent sweeps still fit at the expected shift; each command
    # prints no table, one error line, and exits 1
    MUTATIONS["flipped-shuffle-sign"](None, monkeypatch)
    S = _fresh("log-canonical-3")
    assert sum(S.vars.weights) in eager_duality(S, 4)
    for command in ("duality", "cohomology"):
        assert main([command, "catalog:log-canonical-3", "--max-weight", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: duality certificate failed")
        assert err.count("error:") == 1 and err.count("\n") == 1


@pytest.mark.parametrize("scale", [-1, 2])
def test_wrong_traces_find_no_shift(scale):
    # the certificate stops the report; the two independent sweeps find
    # that no shift fits
    S = _fresh("log-canonical-3")
    scale_traces(S, scale)
    with pytest.raises(CertificateFailure):
        duality_report(S, max_weight=4)
    oracle = _fresh("log-canonical-3")
    scale_traces(oracle, scale)
    assert eager_duality(oracle, 4) == ()


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


@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_cohomology_sweeps_no_cochain(entry, monkeypatch):
    # cohomology_dims builds no coboundary, no cochain basis and no plan
    # table read backwards: every rank it takes is one that the omega
    # homology over the window moved by the sum of the weights takes
    for name in ("coboundary_matrix", "cochain_basis"):
        monkeypatch.setattr(complexes, name,
                            lambda *args, name=name: pytest.fail(f"called {name}"))
    S = _fresh(entry.id)
    cohomology_dims(S, max_weight=6)
    assert not any(backwards for _, backwards in S.term_tables().plans)
    ranks = {twist: dict(cells) for twist, cells in S.term_tables().ranks.items()}
    assert ranks
    homology_dims(S, "omega", max_weight=6 + sum(S.vars.weights))
    assert S.term_tables().ranks == ranks


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
    assert dict(report.cohomology) == swept_cohomology(_fresh("so3"), 7)
    for outside in ((4, 0), (-1, 0), (0, 8), (0, -4)):
        assert outside not in report.cohomology
    (key, read), = S.term_tables().ranks.items()
    assert len(read) > len(swept[key])


# -- rows left out of elimination by d^2 = 0 -------------------------------------


def _ranks_are_whole_matrix_ranks(make, coeff, max_weight):
    """Every rank a sweep keeps in ``TermTables.ranks``, taken with the
    rows at the pivots of the boundary below left out, against the rank of
    the whole matrix on a fresh structure."""
    S, oracle = make(), make()
    homology_dims(S, coeff, max_weight)
    if coeff == "omega":
        cohomology_dims(S, max_weight)
    ranks = S.term_tables().ranks[complexes._twist(S, coeff)]
    assert ranks
    for (n, w), rank in ranks.items():
        assert boundary_matrix(oracle, n, w, coeff).matrix.rank() == rank, (n, w)


@pytest.mark.parametrize("coeff", ["canonical", "omega"])
@pytest.mark.parametrize("entry", CATALOG, ids=[e.id for e in CATALOG])
def test_swept_ranks_are_whole_matrix_ranks(entry, coeff):
    max_weight = 11 if entry.id == "so3" else 8
    _ranks_are_whole_matrix_ranks(lambda: _fresh(entry.id), coeff, max_weight)


@given(weighted_structures(), st.sampled_from(["canonical", "omega"]),
       st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_swept_ranks_are_whole_matrix_ranks_on_random_structures(S, coeff,
                                                                 max_weight):
    document = (S.vars, dict(S.entries))
    _ranks_are_whole_matrix_ranks(lambda: PoissonStructure(*document), coeff,
                                  max_weight)


def test_rows_are_left_out_of_elimination(monkeypatch):
    assembled, eliminated = [], []

    def recording(*args, make=complexes.boundary_matrix):
        cell = make(*args)
        assembled.append(len(cell.matrix.rows))
        return cell

    monkeypatch.setattr(complexes, "boundary_matrix", recording)
    real_rank = SparseMatrix.rank
    monkeypatch.setattr(SparseMatrix, "rank",
                        lambda self: eliminated.append(len(self.rows)) or real_rank(self))
    homology_dims(_fresh("so3"), "canonical", 10)
    assert len(assembled) == len(eliminated)
    assert sum(eliminated) < sum(assembled)
    assert all(e <= a for e, a in zip(eliminated, assembled))


@pytest.mark.parametrize("make, max_weight", [
    pytest.param(lambda: _fresh("so3"), 8, id="so3"),
    pytest.param(lambda: SpecDocument.load(
        DOCS_DIR / "jacobian-casimirs-4.json").to_structure(), 4,
        id="jacobian-casimirs-4")])
def test_cohomology_leaves_rows_out_as_homology_does(make, max_weight, monkeypatch):
    # cohomology reads its omega cells with n rising, as the omega homology
    # over the window moved by the sum of the weights reads them, so the
    # same rows reach elimination, and fewer than were assembled
    assembled, eliminated = [], []

    def recording(*args, make=complexes.boundary_matrix):
        cell = make(*args)
        assembled.append(len(cell.matrix.rows))
        return cell

    monkeypatch.setattr(complexes, "boundary_matrix", recording)
    real_rank = SparseMatrix.rank
    monkeypatch.setattr(SparseMatrix, "rank",
                        lambda self: eliminated.append(len(self.rows)) or real_rank(self))
    S = make()
    ell, total = len(S.vars), sum(S.vars.weights)
    table = cohomology_dims(S, max_weight)
    rows = list(eliminated)
    assert sum(rows) < sum(assembled)
    eliminated.clear()
    homology_dims(make(), "omega", max_weight + total)
    assert eliminated == rows
    monkeypatch.undo()
    assert list(table) == [(k, v) for k in range(ell + 1)
                           for v in range(-total, max_weight + 1)]
    assert table == swept_cohomology(make(), max_weight)
