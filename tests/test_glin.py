"""Exact linear solving over square-zero extensions.

The binding property is multiply-back: any vector returned by
``solve_linear`` must satisfy A·x = b exactly.  A naive two-stage scheme
(solve the residue system, then the ideal layer) fails when the residue
matrix is singular; the regression tests below pin the counterexamples that
force the joint formulation.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgnerve import dgcat, glin
from dgnerve.fixtures import random_complex_category, three_term_category
from dgnerve.glin import (
    NoSolution,
    compose_maps,
    identity_matrix,
    mat_vec,
    nullspace,
    rational_nullspace,
    rref,
    solve_linear,
)
from dgnerve.horn import random_valid_simplex
from dgnerve.rings import RingElement, SquareZeroRing, RATIONALS, random_element

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def matrix_of(ring, rows):
    return [[ring.element(e) if not isinstance(e, (list, tuple))
             else ring.element(e[0], e[1:]) for e in row] for row in rows]


# ---------------------------------------------------------------------------
# Hand cases.
# ---------------------------------------------------------------------------


def test_identity_system():
    ring = SquareZeroRing(1)
    b = [ring.element(2, [1]), ring.element("1/3")]
    assert solve_linear(identity_matrix(2, ring), b, ring) == b


def test_inconsistent_zero_row():
    ring = RATIONALS
    with pytest.raises(NoSolution):
        solve_linear([[ring.zero()]], [ring.one()], ring)


def test_singular_body_with_ideal_pivot():
    # A = [[ε]], b = [ε]: the residue system 0·x = 0 is solvable by any x,
    # but only x with body 1 solves the ideal layer; a staged solver that
    # freezes the residue choice first (e.g. x = 0) would wrongly report
    # NoSolution.  The joint solver must find x = 1.
    ring = SquareZeroRing(1)
    eps = ring.generator(0)
    x = solve_linear([[eps]], [eps], ring)
    assert mat_vec([[eps]], x, ring) == [eps]


def test_obstruction_in_ideal_layer():
    # A = [[ε₁]], b = [ε₂] over rank 2: the residue system is solvable
    # (0·x = 0), yet no x gives ε₁·x = ε₂ since ε₁·(body + ideal) = body·ε₁.
    ring = SquareZeroRing(2)
    e1, e2 = ring.generator(0), ring.generator(1)
    with pytest.raises(NoSolution):
        solve_linear([[e1]], [e2], ring)


def test_empty_systems():
    ring = SquareZeroRing(1)
    assert solve_linear([], [], ring) == []
    with pytest.raises(NoSolution):
        solve_linear([[]], [ring.one()], ring)


# ---------------------------------------------------------------------------
# Randomized multiply-back properties.
# ---------------------------------------------------------------------------


def random_matrix(ring, rng, nrows, ncols):
    return [[random_element(ring, rng) for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_known_solution_systems_multiply_back(rank):
    # Build b = A·x₀ so the system is solvable by construction, then verify
    # whatever solution comes back by multiplication (it need not be x₀).
    ring = SquareZeroRing(rank)
    rng = random.Random(100 + rank)
    for trial in range(25):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 9)
        a = random_matrix(ring, rng, nrows, ncols)
        x0 = [random_element(ring, rng) for _ in range(ncols)]
        b = mat_vec(a, x0, ring)
        x = solve_linear(a, b, ring)
        assert mat_vec(a, x, ring) == b


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_solver_never_lies(rank):
    # On arbitrary (possibly inconsistent) systems: either NoSolution or a
    # vector that multiplies back exactly.
    ring = SquareZeroRing(rank)
    rng = random.Random(200 + rank)
    for trial in range(25):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = random_matrix(ring, rng, nrows, ncols)
        b = [random_element(ring, rng) for _ in range(nrows)]
        try:
            x = solve_linear(a, b, ring)
        except NoSolution:
            continue
        assert mat_vec(a, x, ring) == b


def test_solvable_over_extension_implies_solvable_over_residue():
    ring = SquareZeroRing(2)
    rng = random.Random(7)
    for trial in range(20):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        a = random_matrix(ring, rng, nrows, ncols)
        b = [random_element(ring, rng) for _ in range(nrows)]
        try:
            solve_linear(a, b, ring)
        except NoSolution:
            continue
        a0 = [[RATIONALS.element(e.body) for e in row] for row in a]
        b0 = [RATIONALS.element(e.body) for e in b]
        x0 = solve_linear(a0, b0, RATIONALS)
        assert mat_vec(a0, x0, RATIONALS) == b0


def test_nullspace_vectors_annihilate():
    rng = random.Random(17)
    for rank in (0, 1, 2):
        ring = SquareZeroRing(rank)
        for trial in range(10):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
            a = random_matrix(ring, rng, nrows, ncols)
            basis = nullspace(a, ring)
            zero = [ring.zero()] * nrows
            for vec in basis:
                assert mat_vec(a, vec, ring) == zero


def test_rational_nullspace_dimension():
    # rank-nullity on a rank-1 rational matrix.
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    basis = rational_nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(c * v for c, v in zip(rows[0], vec)) == 0


def test_rational_nullspace_of_zero_rows():
    basis = rational_nullspace([], 3)
    assert len(basis) == 3


# ---------------------------------------------------------------------------
# Matrix composition.
# ---------------------------------------------------------------------------


def test_compose_with_identity():
    ring = SquareZeroRing(1)
    rng = random.Random(3)
    a = random_matrix(ring, rng, 3, 4)
    assert compose_maps(a, identity_matrix(4, ring)) == a
    assert compose_maps(identity_matrix(3, ring), a) == a


def test_compose_associative():
    ring = SquareZeroRing(2)
    rng = random.Random(4)
    a = random_matrix(ring, rng, 2, 3)
    b = random_matrix(ring, rng, 3, 4)
    c = random_matrix(ring, rng, 4, 2)
    assert compose_maps(compose_maps(a, b), c) == compose_maps(a, compose_maps(b, c))


def test_compose_shape_mismatch():
    ring = RATIONALS
    with pytest.raises(ValueError):
        compose_maps([[ring.one()]], [[ring.one()], [ring.one()]])


@settings(max_examples=60)
@given(st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(small, min_size=2, max_size=2))
def test_rational_systems_multiply_back(mat, vec):
    ring = RATIONALS
    a = [[ring.element(e) for e in row] for row in mat]
    b = [ring.element(e) for e in vec]
    try:
        x = solve_linear(a, b, ring)
    except NoSolution:
        return
    assert mat_vec(a, x, ring) == b


# ---------------------------------------------------------------------------
# The elimination kernel against dense Fraction Gauss-Jordan.
# ---------------------------------------------------------------------------


def _reference_rref(rows):
    """Dense Gauss-Jordan over Fraction, first-nonzero pivots: the oracle."""
    mat = [list(row) for row in rows]
    pivots = []
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [v - factor * w for v, w in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


BIG = Fraction(10 ** 30, 7)


@pytest.mark.parametrize("rows", [
    [],
    [[]],
    [[], [], []],
    [[0, 0, 0], [0, 0, 0]],
    [[1, 2], [0, 0], [3, 4]],
    [[0, 0, 0], [0, 2, 1], [0, 0, 0]],
    [[1, 2], [3, 4], [5, 6], [7, 8], [9, 11]],
    [[1, 2, 3, 4, 5], [2, 4, 6, 8, 11]],
    [[1, 3, 5], [1, 3, 5], [2, 6, 10]],
    [[BIG, 1, Fraction(3, -7)], [-BIG, Fraction(-5, -2), 0],
     [Fraction(1, 10 ** 30), BIG, BIG]],
    [[1, 1, 1], [1, 1, 2]],                     # inconsistent [A | b]
    [[0, 0, 5], [0, 3, 1]],
], ids=["empty", "no_columns", "three_empty_rows", "all_zero", "zero_row",
        "zero_rows_around", "tall", "wide", "duplicate_rows", "huge_entries",
        "inconsistent", "late_pivots"])
def test_rref_matches_reference_on_hand_cases(rows):
    rows = _fractions(rows)
    assert rref(rows) == _reference_rref(rows)


entries = st.one_of(
    st.just(Fraction(0)), small,
    st.sampled_from([BIG, -BIG, Fraction(3, -7), Fraction(-1, 10 ** 30)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda ncols: st.lists(
    st.lists(entries, min_size=ncols, max_size=ncols), max_size=7)))
def test_rref_matches_reference(rows):
    red, pivots = rref(rows)
    assert (red, pivots) == _reference_rref(rows)
    assert all(isinstance(v, Fraction) for row in red for v in row)


def _witness_systems(cat, seed, edges=3):
    """The linear systems of equivalence-witness queries in ``cat``: on
    sampled closed edges with witnesses, and on zero edges (no witness)."""
    rng = random.Random(seed)
    alphas = [random_valid_simplex(cat, rng, 1).cells[(0, 1)]
              for _ in range(edges)]
    alphas += [cat.zero(x, x, 0) for x in cat.objects]
    systems = []

    def record(matrix, rhs, ring):
        systems.append((matrix, rhs))
        return solve_linear(matrix, rhs, ring)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(glin, "solve_linear", record)
        for alpha in alphas:
            try:
                dgcat.find_equivalence_witness(cat, alpha)
            except dgcat.NotEquivalence:
                pass
    return systems


def _solve_outcome(matrix, rhs, ring):
    try:
        return solve_linear(matrix, rhs, ring)
    except NoSolution:
        return NoSolution


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("build", [
    three_term_category,
    lambda ring: random_complex_category(3, ring),
], ids=["three_term", "random_complex"])
def test_witness_systems_match_reference(build, rank):
    """Witness queries pose both solvable and unsolvable systems; every
    solution multiplies back to the right-hand side and every nullspace
    vector is killed by the matrix."""
    ring = SquareZeroRing(rank)
    systems = _witness_systems(build(ring), seed=40 + rank)
    assert systems
    outcomes = [_solve_outcome(a, b, ring) for a, b in systems]
    assert any(x is NoSolution for x in outcomes)
    assert any(x is not NoSolution for x in outcomes)
    for (a, b), x in zip(systems, outcomes):
        if x is not NoSolution:
            assert mat_vec(a, x, ring) == list(b)
        zero = [ring.zero()] * len(a)
        for v in nullspace(a, ring):
            assert mat_vec(a, v, ring) == zero


def _reference_expand(matrix, rhs, ring):
    """The dense Fraction rows of the layered system (the old ``_expand``)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    m = ring.ideal_rank
    big_rows, big_rhs = [], []
    for layer in range(m + 1):
        for i in range(nrows):
            row = [Fraction(0)] * ((m + 1) * ncols)
            for j in range(ncols):
                row[layer * ncols + j] = matrix[i][j].body
                if layer > 0:
                    row[j] += matrix[i][j].ideal[layer - 1]
            big_rows.append(row)
            big_rhs.append(rhs[i].body if layer == 0
                           else rhs[i].ideal[layer - 1])
    return big_rows, big_rhs


def _reference_layered(matrix, rhs, ring):
    """``solve_linear`` outcome and ``nullspace`` by dense elimination of
    the dense layered rows: the oracle for the sparse integer rows."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    width = (ring.ideal_rank + 1) * ncols
    rows, b = _reference_expand(matrix, rhs, ring)

    def ring_vector(flat):
        return [RingElement(flat[j], tuple(flat[j + ncols * layer] for layer
                                           in range(1, ring.ideal_rank + 1)))
                for j in range(ncols)]

    red, pivots = _reference_rref([row + [v] for row, v in zip(rows, b)])
    if any(c == width for _, c in pivots):
        solution = NoSolution
    else:
        flat = [Fraction(0)] * width
        for r, c in pivots:
            flat[c] = red[r][width]
        solution = ring_vector(flat)
    red, pivots = _reference_rref(rows)
    kernel = []
    for j in sorted(set(range(width)) - {c for _, c in pivots}):
        flat = [Fraction(0)] * width
        flat[j] = Fraction(1)
        for r, c in pivots:
            flat[c] = -red[r][j]
        kernel.append(ring_vector(flat))
    return solution, kernel


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("build", [
    three_term_category,
    lambda ring: random_complex_category(3, ring),
], ids=["three_term", "random_complex"])
def test_layered_rows_match_dense_reference(build, rank):
    ring = SquareZeroRing(rank)
    systems = _witness_systems(build(ring), seed=40 + rank)
    systems.append(([[ring.generator(0)]], [ring.generator(0)]) if rank
                   else ([[ring.zero(), ring.one()]], [ring.one()]))
    for a, b in systems:
        assert (_solve_outcome(a, b, ring), nullspace(a, ring)) == \
            _reference_layered(a, b, ring)
