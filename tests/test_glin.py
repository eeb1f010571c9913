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
from dgnerve.glin import (NoSolution, nullspace, rref, solve_layered,
                          solve_linear)
from dgnerve.horn import random_valid_simplex
from dgnerve.mc import tensor_with_ring
from dgnerve.rings import (RATIONALS, RingElement, SquareZeroRing, from_layers,
                           split_layers)

from lincomb import degrees
from nervekit import (basis_morphism, dense_differential, kernel, layer_array,
                      random_elements)
from test_morphism_sum import CATEGORY_NAMES, category, fractional_category

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def mat_vec(matrix, vec, ring):
    """``A·x`` over ``ring``: the multiply-back check."""
    out = []
    for row in matrix:
        acc = ring.zero()
        for coeff, x in zip(row, vec):
            if not coeff.is_zero() and not x.is_zero():
                acc = acc + coeff * x
        out.append(acc)
    return out


def matrix_of(ring, rows):
    return [[ring.element(e) if not isinstance(e, (list, tuple))
             else ring.element(e[0], e[1:]) for e in row] for row in rows]


# ---------------------------------------------------------------------------
# Hand cases.
# ---------------------------------------------------------------------------


def test_identity_system():
    ring = SquareZeroRing(1)
    b = [ring.element(2, [1]), ring.element("1/3")]
    identity = [[ring.one(), ring.zero()], [ring.zero(), ring.one()]]
    assert solve_linear(identity, b, ring) == b


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
# The array entry and the body-once elimination: edge cases, each outcome
# as ``solve_linear`` gave it when it eliminated the layered rows directly.
# ---------------------------------------------------------------------------

B2 = SquareZeroRing(2)
E1, E2, ONE = B2.generator(0), B2.generator(1), B2.one()


def _echelon_passes(matrix, rhs, ring):
    """The outcome of ``solve_layered`` on the system, ``==`` to that of
    ``solve_linear``, and how many passes of ``glin._echelon`` it took."""
    ncols = len(matrix[0]) if matrix else 0
    passes = []
    echelon = glin._echelon
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(glin, "_echelon",
                      lambda rows, n: passes.append(n) or echelon(rows, n))
        outcome = _layered_outcome(
            layer_array([[*row, b] for row, b in zip(matrix, rhs)], ring),
            len(matrix), ncols, ring)
    assert _solve_outcome(matrix, rhs, ring) == outcome
    return outcome, len(passes)


@pytest.mark.parametrize("b, want, passes", [
    (B2.zero(), [], 2), (ONE, NoSolution, 1), (E1, NoSolution, 2)],
    ids=["zero", "body", "ideal"])
def test_no_unknowns(b, want, passes):
    """n = 0: b = 0 is solved by the empty vector; a body in b is caught by
    the body pass, an ideal part only by the layer pass."""
    assert _echelon_passes([[]], [b], B2) == (want, passes)


def test_zero_height():
    """No equations: every unknown is free, so every layer is 0."""
    assert _echelon_passes([], [], B2) == ([], 2)
    assert solve_layered([], 0, 2, B2) == ([0] * 6, 1)
    assert kernel([[]], B2) == []


def test_body_only_systems_leave_the_ideal_layers_zero():
    """No ideal part anywhere: x^l = 0, and the kernel over B is that of the
    body once per layer."""
    a = [[B2.element(1), B2.element(2)], [B2.element(3), B2.element(4)]]
    b = [B2.element(5), B2.element(6)]
    assert _echelon_passes(a, b, B2) == \
        ([B2.element(-4), B2.element("9/2")], 2)
    singular = [[B2.element(1), B2.element(2)], [B2.element(2), B2.element(4)]]
    assert _echelon_passes(singular, [ONE, B2.element(2)], B2) == \
        ([ONE, B2.zero()], 2)
    assert kernel(singular, B2) == [
        [B2.element(-2), ONE], [B2.element(0, [-2, 0]), E1],
        [B2.element(0, [0, -2]), E2]]


def test_inconsistent_in_the_body_pass():
    """A cokernel row with b⁰ ≠ 0 raises before the layer pass runs."""
    singular = [[B2.element(1), B2.element(2)], [B2.element(2), B2.element(4)]]
    assert _echelon_passes(singular, [ONE, B2.element(3)], B2) == \
        (NoSolution, 1)


def test_inconsistent_only_in_the_layer_pass():
    """x⁰₁ + x⁰₂ = 1 twice is consistent; x¹₁ + x¹₂ = 0 and = 1 is not."""
    assert _echelon_passes([[ONE, ONE], [ONE, ONE]], [ONE, ONE + E1], B2) == \
        (NoSolution, 2)


def test_coupled_body_and_layers():
    """x₁ + ε₁x₂ = ε₂, x₁ + x₂ = 1: the layer pass fixes x⁰ and x^l
    together, and the kernel is zero."""
    a = [[ONE, E1], [ONE, ONE]]
    assert _echelon_passes(a, [E2, ONE], B2) == \
        ([B2.element(0, [-1, 1]), B2.element(1, [1, -1])], 2)
    assert kernel(a, B2) == []


# ---------------------------------------------------------------------------
# Randomized multiply-back properties.
# ---------------------------------------------------------------------------


def random_matrix(ring, rng, nrows, ncols):
    return [list(random_elements(ring, rng, ncols)) for _ in range(nrows)]


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_known_solution_systems_multiply_back(rank):
    # Build b = A·x₀ so the system is solvable by construction, then verify
    # whatever solution comes back by multiplication (it need not be x₀).
    ring = SquareZeroRing(rank)
    rng = random.Random(100 + rank)
    for trial in range(25):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 9)
        a = random_matrix(ring, rng, nrows, ncols)
        x0 = random_elements(ring, rng, ncols)
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
        b = list(random_elements(ring, rng, nrows))
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
        b = list(random_elements(ring, rng, nrows))
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
            basis = kernel(a, ring)
            zero = [ring.zero()] * nrows
            for vec in basis:
                assert mat_vec(a, vec, ring) == zero


def test_rational_nullspace_dimension():
    # rank-nullity on a rank-1 rational matrix.
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    basis = kernel(matrix_of(RATIONALS, rows), RATIONALS)
    assert len(basis) == 2
    for vec in basis:
        assert sum(c * v.body for c, v in zip(rows[0], vec)) == 0


def test_rational_nullspace_of_zero_rows():
    # The kernel of a 0×n map is the whole space: the array states n, so
    # height 0 gives every unit vector, over B once per layer.
    for ring in (RATIONALS, SquareZeroRing(1)):
        units = [ring.one(), *map(ring.generator, range(ring.ideal_rank))]
        assert nullspace([], 0, 3, ring) == [
            [u if k == j else ring.zero() for k in range(3)]
            for u in units for j in range(3)]


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
        mat[r] = [v * inv if v else v for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [v - factor * w if w else v
                          for v, w in zip(mat[i], mat[r])]
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


def _witness_alphas(cat, seed, edges=3):
    """Sampled closed edges, which have witnesses, then the zero edge of
    each object, which has none unless the object is contractible."""
    rng = random.Random(seed)
    alphas = [random_valid_simplex(cat, rng, 1).cells[(0, 1)]
              for _ in range(edges)]
    return alphas + [cat.zero(x, x, 0) for x in cat.objects]


def _witness_systems(cat, seed, edges=3):
    """The linear systems of the equivalence-witness queries on
    ``_witness_alphas(cat, seed, edges)``, one per query, in order."""
    return _posed_systems(cat, _witness_alphas(cat, seed, edges))


def _posed_systems(cat, alphas):
    """The linear system each witness query on ``alphas`` hands to
    ``glin.solve_layered``, as (rows, rhs): its array read back into ring
    elements over the denominator of the ``LayerSum`` that holds it.  The
    array's outcome is asserted ``==`` to ``solve_linear``'s on them."""
    systems, arrays, sums = [], [], []

    class Recorded(dgcat.LayerSum):
        def __init__(self, size, width):
            super().__init__(size, width)
            sums.append(self)

    def record(num, height, ncols, ring):
        w = ring.ideal_rank + 1
        assert num is sums[-1].num and len(num) == height * (ncols + 1) * w

        def entry(j, i):
            return from_layers(num[(j * height + i) * w:
                                   (j * height + i + 1) * w], sums[-1].den)

        rows = [[entry(j, i) for j in range(ncols)] for i in range(height)]
        rhs = [entry(ncols, i) for i in range(height)]
        systems.append((rows, rhs))
        arrays.append((num, height, ncols))
        return solve_layered(num, height, ncols, ring)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dgcat, "LayerSum", Recorded)
        patch.setattr(glin, "solve_layered", record)
        for alpha in alphas:
            try:
                dgcat.find_equivalence_witness(cat, alpha)
            except dgcat.NotEquivalence:
                pass
    for (rows, rhs), array in zip(systems, arrays):
        assert _layered_outcome(*array, cat.ring) == \
            _solve_outcome(rows, rhs, cat.ring)
    return systems


def _layered_outcome(num, height, ncols, ring):
    """``solve_layered``'s int vector read back into ring elements."""
    try:
        x, den = solve_layered(num, height, ncols, ring)
    except NoSolution:
        return NoSolution
    assert len(x) == ncols * (ring.ideal_rank + 1) and den
    return list(split_layers(x, den, ring.ideal_rank + 1))


def _solve_outcome(matrix, rhs, ring):
    try:
        return solve_linear(matrix, rhs, ring)
    except NoSolution:
        return NoSolution


def _reference_witness_system(cat, alpha):
    """The witness system (rows, rhs) as ``find_equivalence_witness`` built
    it before it read the structure blocks: one basis morphism, one
    differential and two composites per column of a."""
    x, y = alpha.source, alpha.target
    n_a, n_g = cat.rank(y, x, 0), cat.rank(x, x, -1)
    n_h = cat.rank(y, y, -1)
    r1, r2, r3 = cat.rank(y, x, 1), cat.rank(x, x, 0), cat.rank(y, y, 0)
    zero = cat.ring.zero()
    rows = [[zero] * (n_a + n_g + n_h) for _ in range(r1 + r2 + r3)]

    def put(col, block_offset, coords, negate=False):
        for i, c in enumerate(coords):
            rows[block_offset + i][col] = -c if negate else c

    for j in range(n_a):
        e = basis_morphism(cat, y, x, 0, j)
        put(j, 0, cat.differential(e).coords)
        put(j, r1, cat.compose(e, alpha).coords)
        put(j, r1 + r2, cat.compose(alpha, e).coords)
    for j in range(n_g):
        e = basis_morphism(cat, x, x, -1, j)
        put(n_a + j, r1, cat.differential(e).coords, negate=True)
    for j in range(n_h):
        e = basis_morphism(cat, y, y, -1, j)
        put(n_a + n_g + j, r1 + r2, cat.differential(e).coords, negate=True)
    rhs = [zero] * r1 + list(cat.identity(x).coords) + \
        list(cat.identity(y).coords)
    return rows, rhs


def _witness_outcome(find, cat, alpha):
    try:
        return find(cat, alpha)
    except dgcat.NotEquivalence:
        return dgcat.NotEquivalence


def _reference_witness(cat, alpha):
    """``find_equivalence_witness`` on the reference system."""
    rows, rhs = _reference_witness_system(cat, alpha)
    try:
        solution = solve_linear(rows, rhs, cat.ring)
    except NoSolution:
        raise dgcat.NotEquivalence from None
    x, y = alpha.source, alpha.target
    n_a, n_g = cat.rank(y, x, 0), cat.rank(x, x, -1)
    return dgcat.Witness(
        dgcat.Morphism(y, x, 0, tuple(solution[:n_a])),
        dgcat.Morphism(x, x, -1, tuple(solution[n_a:n_a + n_g])),
        dgcat.Morphism(y, y, -1, tuple(solution[n_a + n_g:])))


@pytest.mark.parametrize("opposite", [False, True], ids=["cat", "opposite"])
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("build, contractible", [
    (three_term_category, False),
    (lambda ring: random_complex_category(3, ring), False),
    (lambda ring: tensor_with_ring(fractional_category(), ring), True),
], ids=["three_term", "random_complex", "fractional"])
def test_witness_systems_match_basis_oracle(build, contractible, rank,
                                            opposite):
    """The system read from the structure blocks is ``==`` entry by entry
    to the one built from basis morphisms, and both give the same witness
    or both raise NotEquivalence; a zero edge has no witness unless all
    objects are contractible."""
    cat = build(SquareZeroRing(rank))
    if opposite:
        cat = dgcat.opposite(cat)
    outcomes = _outcomes_match_basis_oracle(
        cat, _witness_alphas(cat, seed=40 + rank))
    assert (dgcat.NotEquivalence in outcomes) is not contractible
    assert any(x is not dgcat.NotEquivalence for x in outcomes)


def _outcomes_match_basis_oracle(cat, alphas):
    """Assert that each query on ``alphas`` poses the reference system and
    ends as the reference does; the outcomes."""
    systems = _posed_systems(cat, alphas)
    assert len(systems) == len(alphas)
    outcomes = []
    for alpha, (rows, rhs) in zip(alphas, systems):
        want_rows, want_rhs = _reference_witness_system(cat, alpha)
        assert len(rows) == len(want_rows)
        for row, want_row in zip(rows, want_rows):
            assert row == want_row
        assert rhs == want_rhs
        outcomes.append(_witness_outcome(dgcat.find_equivalence_witness,
                                         cat, alpha))
        assert outcomes[-1] == _witness_outcome(_reference_witness, cat,
                                                alpha)
    return outcomes


def _dual_numbers_category(ring):
    """Q[t]/(t²) on one object in the basis 1, s = 1 + t, so s∘s = 2s − 1:
    products of different basis pairs meet in one coordinate."""
    one = ring.one()
    comps = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),),
             (1, 1): ((0, -one), (1, one + one))}
    return dgcat.DgCategory(ring, ("X",), {("X", "X", 0): 2}, {},
                            {("X", "X", "X", 0, 0): comps},
                            {"X": (one, ring.zero())})


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_witness_system_sums_products_that_meet(rank):
    """α = 1/3 + s/2 + ε-noise is a unit and t = s − 1 is nilpotent; in
    both, two coordinates of α reach one entry of a∘α and of α∘a."""
    ring = SquareZeroRing(rank)
    cat = _dual_numbers_category(ring)
    assert dgcat.check_axioms(cat) == []
    noise = ["1/5"] * rank
    unit = cat.morphism("X", "X", 0, [ring.element("1/3", noise),
                                      ring.element("1/2", noise)])
    nilpotent = cat.morphism("X", "X", 0, [-1, 1])
    outcomes = _outcomes_match_basis_oracle(cat, [unit, nilpotent])
    assert isinstance(outcomes[0], dgcat.Witness)
    assert outcomes[1] is dgcat.NotEquivalence


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
        for v in kernel(a, ring):
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
    return solution, [ring_vector(flat)
                      for flat in _reference_kernel(red, pivots, width)]


def _reference_kernel(red, pivots, ncols):
    """A kernel basis of the first ``ncols`` columns of a ``_reference_rref``
    result, one vector per non-pivot column; a pivot past ``ncols`` (that of
    a right-hand side) is in a row that is zero on them."""
    pivots = [(r, c) for r, c in pivots if c < ncols]
    kernel = []
    for j in sorted(set(range(ncols)) - {c for _, c in pivots}):
        flat = [Fraction(0)] * ncols
        flat[j] = Fraction(1)
        for r, c in pivots:
            flat[c] = -red[r][j]
        kernel.append(flat)
    return kernel


def _assert_layered_match(systems, ring):
    """Each system's solution (or NoSolution) and nullspace are ``==`` to
    the dense reference's; the solve outcomes."""
    outcomes = []
    for a, b in systems:
        outcomes.append(_solve_outcome(a, b, ring))
        assert (outcomes[-1], kernel(a, ring)) == \
            _reference_layered(a, b, ring)
    return outcomes


@pytest.mark.parametrize("rank", range(9))
@pytest.mark.parametrize("build", [
    three_term_category,
    lambda ring: random_complex_category(3, ring),
], ids=["three_term", "random_complex"])
def test_layered_rows_match_dense_reference(build, rank):
    """Every ideal rank the document reader allows, up to 8; past rank 2,
    where the dense reference is slow, one sampled edge per category."""
    ring = SquareZeroRing(rank)
    systems = _witness_systems(build(ring), seed=40 + rank,
                               edges=3 if rank <= 2 else 1)
    systems.append(([[ring.generator(0)]], [ring.generator(0)]) if rank
                   else ([[ring.zero(), ring.one()]], [ring.one()]))
    _assert_layered_match(systems, ring)


def _low_rank_matrix(ring, rng, nrows, ncols):
    """U·V over ``ring`` with U of shape nrows × k, k < min(nrows, ncols):
    its body, and so the diagonal blocks of its layered system, is
    rank-deficient."""
    k = rng.randrange(1, min(nrows, ncols))
    u = random_matrix(ring, rng, nrows, k)
    v = random_matrix(ring, rng, k, ncols)
    columns = [mat_vec(u, [row[j] for row in v], ring) for j in range(ncols)]
    return [list(row) for row in zip(*columns)]


@pytest.mark.parametrize("rank", range(9))
def test_block_systems_match_dense_reference(rank):
    """Rank-deficient systems over B, whose layered rows are block
    lower-triangular, with b = A·x₀ (solvable), b = A·x₀ plus ε-noise
    (solvable in the body layer, mostly not in the ideal layers) and a
    random b: solutions and kernels are ``==`` to the dense reference's, and
    an inconsistent system raises NoSolution on both sides."""
    ring = SquareZeroRing(rank)
    rng = random.Random(300 + rank)
    systems = []
    for trial in range(4):
        nrows, ncols = rng.randrange(2, 5), rng.randrange(2, 5)
        a = _low_rank_matrix(ring, rng, nrows, ncols)
        b = mat_vec(a, random_elements(ring, rng, ncols), ring)
        noise = random_elements(ring, rng, len(b), ideal_only=True)
        systems += [(a, b), (a, [x + y for x, y in zip(b, noise)]),
                    (a, list(random_elements(ring, rng, len(b))))]
    outcomes = _assert_layered_match(systems, ring)
    assert all(x is not NoSolution for x in outcomes[::3])
    assert NoSolution in outcomes


@pytest.mark.parametrize("d, rank", [(6, 0), (6, 1), (10, 0)])
def test_hom_rank_ladder_witness_systems_match_dense_reference(d, rank):
    """The witness systems of one complex of total dimension d (largest hom
    blocks 18 and 42), where fill-in and entry growth set the cost."""
    cx = dgcat.random_complex(RATIONALS, random.Random(17), total_dim=d)
    cat = tensor_with_ring(dgcat.make_complex_category([cx]),
                           SquareZeroRing(rank))
    outcomes = _assert_layered_match(_witness_systems(cat, seed=40), cat.ring)
    assert NoSolution in outcomes
    assert any(x is not NoSolution for x in outcomes)


def _differential_blocks(cat):
    """Every hom block with a nonzero target, with its dense differential."""
    return [((x, y, t), dense) for x in cat.objects for y in cat.objects
            for t in degrees(cat, x, y)
            if (dense := dense_differential(cat, x, y, t))]


def _assert_body_kernel(dense):
    """``nullspace`` over RATIONALS of a matrix over any ring is the kernel
    of its bodies, vector for vector."""
    ncols = len(dense[0])
    want = _reference_kernel(*_reference_rref([[e.body for e in row]
                                               for row in dense]), ncols)
    got = kernel(dense, RATIONALS)
    assert all(len(e.nums) == 1 for vec in got for e in vec)
    assert [[e.body for e in vec] for vec in got] == want


@pytest.mark.parametrize("name", CATEGORY_NAMES)
def test_body_kernels_match_reference(name):
    """Every hom block's differential, over the category, its opposite and
    its scalar extensions to ranks 1 and 2 (``ideal_twisted`` has ideal
    layers in its differentials); ``cycle_basis`` over RATIONALS, which
    reads the block through ``add_block``, gives the same vectors."""
    for rank in (0, 1, 2):
        cat = category(name, rank)
        for c in (cat, dgcat.opposite(cat)):
            blocks = _differential_blocks(c)
            assert blocks
            for block, dense in blocks:
                _assert_body_kernel(dense)
                assert c.cycle_basis(*block, RATIONALS) == \
                    kernel(dense, RATIONALS)


@pytest.mark.parametrize("name", CATEGORY_NAMES)
def test_rational_systems_run_one_echelon(name, monkeypatch):
    """Over Q the body pass's echelon is the layered one, so ``_echelon``
    runs once per ``nullspace`` and once per ``solve_layered``; a second
    pass over that echelon gives it back as it is.  The blocks are every
    differential's bodies, on the category and its opposite."""
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)
    echelon = glin._echelon
    monkeypatch.setattr(glin, "_echelon", counted)
    cat = category(name, 0)
    for c in (cat, dgcat.opposite(cat)):
        for _, dense in _differential_blocks(c):
            dense = [[RATIONALS.element(e.body) for e in row] for row in dense]
            height, ncols = len(dense), len(dense[0])
            num = layer_array(dense, RATIONALS)
            calls.clear()
            kernel(dense, RATIONALS)
            assert calls == [ncols]
            x = [RATIONALS.element(j - 1) for j in range(ncols)]
            b = [sum((e * v for e, v in zip(row, x)), RATIONALS.zero())
                 for row in dense]
            calls.clear()
            solve_linear(dense, b, RATIONALS)
            assert calls == [ncols]
            got = glin._layered(num, height, ncols, 0)
            assert echelon([row for _, row in got], ncols + 1)[0] == got


@pytest.mark.parametrize("rank", [1, 2])
def test_body_kernel_skips_ideal_layers(rank):
    """Entries whose ideal layers carry a larger denominator than their
    body (1 + ε/2 has ``den`` 2 and body 1), and a row that is zero in the
    body but not in the ideal, leave the body kernel as it is."""
    ring = SquareZeroRing(rank)
    half = ["1/2"] * rank
    dense = [[ring.element(1, half), ring.element("1/3"), ring.element(0)],
             [ring.element(2, half), ring.element("2/3", half),
              ring.element(0, half)],
             [ring.element(0, half), ring.zero(), ring.element(0, ["1/5"])]]
    assert dense[0][0].den == 2 and dense[0][0].body.denominator == 1
    _assert_body_kernel(dense)
    assert len(kernel(dense, RATIONALS)) == 2
