"""Interval categories, simplices, residuals, and the cochain complex.

Frozen hand values (derived by expanding the defining formulas by hand):

* residual at the full sequence of a 2-simplex:
      R(0,1,2) = d(α(0,1,2)) − α(1,2)∘α(0,1) + α(0,2)
* identity 2-simplices, η supported on the edge (0,1) with value v of
  total degree t:
      d(η)(0,1)   = d_A(v)
      d(η)(0,1,2) = (−1)^t · v
"""

import itertools
import random
from fractions import Fraction

import pytest

from dgnerve.dgcat import Morphism, Violation, check_axioms
from dgnerve.fixtures import FIXTURES
from dgnerve.horn import random_valid_simplex
from dgnerve.laws import COCHAIN_DEGREES, random_cochain
from dgnerve.mc import tensor_with_ring
from dgnerve.nerve import (
    NerveCochain,
    NerveSimplex,
    cell_residual,
    cochain_add,
    cochain_compose,
    cochain_differential,
    cochain_equal,
    cochain_scale,
    degeneracy,
    face,
    increasing_sequences,
    validate_simplex,
    validate_star,
)
from dgnerve.rings import SquareZeroRing
from lincomb import degrees, lin
from nervekit import (basis_morphism, component, identity_simplex,
                      interval_category, old_degeneracy, old_random_cochain)
from test_morphism_sum import category


def is_zero_cochain(cochain):
    return all(m.is_zero() for m in cochain.components.values())


# ---------------------------------------------------------------------------
# Interval categories.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_interval_category_structure(n):
    cat = interval_category(n)
    assert check_axioms(cat) == []
    for i in range(n + 1):
        for j in range(n + 1):
            want = 1 if i <= j else 0
            assert cat.rank(str(i), str(j), 0) == want
            assert degrees(cat, str(i), str(j)) == ([0] if i <= j else [])
    assert cat.diffs == {}


def test_interval_generators_compose():
    cat = interval_category(3)

    def gen(i, j):
        return basis_morphism(cat, str(i), str(j), 0, 0)

    assert cat.compose(gen(1, 3), gen(0, 1)) == gen(0, 3)
    assert cat.compose(gen(2, 3), gen(1, 2)) == gen(1, 3)
    assert gen(0, 0) == cat.identity("0")


# ---------------------------------------------------------------------------
# Sequences, residuals, validation.
# ---------------------------------------------------------------------------


def test_increasing_sequences():
    assert increasing_sequences(2) == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_residual_anchor_formula(three_term, rng):
    # R(0,1,2) = d(α(0,1,2)) − α(1,2)∘α(0,1) + α(0,2) on arbitrary cells.
    (obj,) = three_term.objects
    cells = {
        (0, 1): three_term.random_morphism(obj, obj, 0, rng),
        (1, 2): three_term.random_morphism(obj, obj, 0, rng),
        (0, 2): three_term.random_morphism(obj, obj, 0, rng),
        (0, 1, 2): three_term.random_morphism(obj, obj, -1, rng),
    }
    got = cell_residual(three_term, cells, (0, 1, 2))
    want = lin((1, three_term.differential(cells[(0, 1, 2)])),
               (-1, three_term.compose(cells[(1, 2)], cells[(0, 1)])),
               (1, cells[(0, 2)]))
    assert got == want


def test_edge_residual_is_differential(three_term, rng):
    (obj,) = three_term.objects
    edge = three_term.random_morphism(obj, obj, 0, rng)
    assert cell_residual(three_term, {(0, 1): edge},
                         (0, 1)) == three_term.differential(edge)


# R(s) written out term by term for k ≤ 4, without SignPattern: the dg-nerve
# equation (Lurie, Higher Algebra §1.3.1) in this package's conventions,
#   R(s) = d(α(s)) − Σ_p (−1)^p α(s∖i_p) − Σ_p (−1)^{k(p+1)} α(i_p…i_k)∘α(i_0…i_p)
# over 0 < p < k.  A term is (sign, face) or (sign, top, bottom), with
# positions into s = (i_0, …, i_k).
HAND_RESIDUAL_TERMS = {
    1: [],
    2: [(+1, (0, 2)), (-1, (1, 2), (0, 1))],
    3: [(+1, (0, 2, 3)), (-1, (0, 1, 3)),
        (-1, (1, 2, 3), (0, 1)), (+1, (2, 3), (0, 1, 2))],
    4: [(+1, (0, 2, 3, 4)), (-1, (0, 1, 3, 4)), (+1, (0, 1, 2, 4)),
        (-1, (1, 2, 3, 4), (0, 1)), (-1, (2, 3, 4), (0, 1, 2)),
        (-1, (3, 4), (0, 1, 2, 3))],
}


def hand_residual(cat, cells, seq):
    def cell(positions):
        return cells[tuple(seq[i] for i in positions)]

    terms = [(1, cat.differential(cells[seq]))]
    for sign, *parts in HAND_RESIDUAL_TERMS[len(seq) - 1]:
        terms.append((sign, cell(parts[0]) if len(parts) == 1 else
                      cat.compose(cell(parts[0]), cell(parts[1]))))
    return lin(*terms)


@pytest.mark.parametrize("rank", [0, 1])
@pytest.mark.parametrize("name", ["three_term", "twisted", "complexes_a"])
def test_residual_matches_hand_expansion(name, rank):
    cat = FIXTURES[name]()
    if rank:
        cat = tensor_with_ring(cat, SquareZeroRing(rank))
    rng = random.Random(f"{name}/{rank}")
    broken = 0
    for n in (1, 2, 3, 4):
        simplex = random_valid_simplex(cat, rng, n, witnessed=False)
        for seq in increasing_sequences(n):
            got = cell_residual(cat, simplex.cells, seq)
            assert got == hand_residual(cat, simplex.cells, seq)
            assert got.is_zero()
        cells = dict(simplex.cells)
        for _ in range(2):                    # corrupt two random cells
            seq = rng.choice(increasing_sequences(n))
            cell = cells[seq]
            cells[seq] = lin((1, cell), (1, cat.random_morphism(
                cell.source, cell.target, cell.degree, rng)))
        for seq in increasing_sequences(n):
            got = cell_residual(cat, cells, seq)
            assert got == hand_residual(cat, cells, seq)
            broken += not got.is_zero()
    assert broken


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_simplices_validate(three_term, n):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, n)
    assert validate_simplex(three_term, simplex) == []
    assert validate_star(three_term, simplex) == []


def test_sampled_simplices_validate(three_term, complexes):
    for cat in (three_term, complexes):
        for seed in range(6):
            rng = random.Random(seed)
            n = 2 + seed % 3
            simplex = random_valid_simplex(cat, rng, n, witnessed=True)
            assert validate_simplex(cat, simplex) == []
            assert validate_star(cat, simplex) == []
        for seed in range(4):
            rng = random.Random(100 + seed)
            simplex = random_valid_simplex(cat, rng, 2, witnessed=False)
            assert validate_simplex(cat, simplex) == []


def test_corrupted_top_cell_reports_only_itself(three_term):
    rng = random.Random(8)
    simplex = random_valid_simplex(three_term, rng, 3, witnessed=True)
    (obj,) = three_term.objects
    # degree −2 basis element with nonzero differential
    delta = next(
        b for b in (basis_morphism(three_term, obj, obj, -2, j)
                    for j in range(three_term.rank(obj, obj, -2)))
        if not three_term.differential(b).is_zero())
    cells = dict(simplex.cells)
    cells[(0, 1, 2, 3)] = lin((1, cells[(0, 1, 2, 3)]), (1, delta))
    bad = NerveSimplex(simplex.objects, cells)
    report = validate_simplex(three_term, bad)
    assert [(v.kind, v.location) for v in report] == \
        [("residual", (0, 1, 2, 3))]


def test_corrupted_interior_cell_reports_containing_sequences(three_term):
    rng = random.Random(9)
    simplex = random_valid_simplex(three_term, rng, 3, witnessed=True)
    (obj,) = three_term.objects
    # perturb α(0,1,2); the sequences whose residual reads that cell are
    # (0,1,2) itself (d-term) and (0,1,2,3) (cut through vertex 2).
    delta = next(
        b for b in (basis_morphism(three_term, obj, obj, -1, j)
                    for j in range(three_term.rank(obj, obj, -1)))
        if not three_term.differential(b).is_zero()
        and not three_term.compose(simplex.cell((2, 3)), b).is_zero())
    cells = dict(simplex.cells)
    cells[(0, 1, 2)] = lin((1, cells[(0, 1, 2)]), (1, delta))
    bad = NerveSimplex(simplex.objects, cells)
    report = validate_simplex(three_term, bad)
    assert sorted(v.location for v in report if v.kind == "residual") == \
        [(0, 1, 2), (0, 1, 2, 3)]


# One sweep reads each cell once and shares the read among the residual
# sums; these check that the shared reads give each sum its own cells.
SWEEP_CATEGORIES = ("three_term", "complexes_a", "ideal_twisted")


def breaker(cat, cell, rng):
    """A random morphism in the block of ``cell`` with a nonzero
    differential, or None when the block has none."""
    for _ in range(10):
        xi = cat.random_morphism(cell.source, cell.target, cell.degree, rng)
        if not cat.differential(xi).is_zero():
            return xi
    return None


def failing_residuals(cat, cells, n):
    """The sequences whose residual is nonzero, each computed on its own."""
    return [("residual", seq) for seq in increasing_sequences(n)
            if not cell_residual(cat, cells, seq).is_zero()]


@pytest.mark.parametrize("how", ["one", "two", "all"])
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", SWEEP_CATEGORIES)
def test_sweep_reports_exactly_the_nonzero_residuals(name, rank, how):
    cat, rng = category(name, rank), random.Random(rank)
    failures = 0
    for n in (2, 3, 3, 2, 3, 3):    # some draws have no cell to break
        simplex = random_valid_simplex(cat, rng, n, witnessed=False)
        breakers = {seq: xi for seq, cell in simplex.cells.items()
                    if (xi := breaker(cat, cell, rng)) is not None}
        count = {"one": 1, "two": 2, "all": len(breakers)}[how]
        cells = dict(simplex.cells)
        for seq in rng.sample(sorted(breakers), min(count, len(breakers))):
            cells[seq] = lin((1, cells[seq]), (1, breakers[seq]))
        report = validate_simplex(cat, NerveSimplex(simplex.objects, cells))
        want = failing_residuals(cat, cells, n)
        assert [(v.kind, v.location) for v in report] == want
        failures += len(want)
    assert failures      # corrupted terms can cancel, but not everywhere


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", SWEEP_CATEGORIES)
def test_sweep_reads_a_replaced_shared_cell_anew(name, rank):
    # degeneracy puts one Morphism object at several sequences; replacing
    # it at one of them leaves the others as they were
    cat, rng = category(name, rank), random.Random(rank)
    simplex = degeneracy(
        cat, random_valid_simplex(cat, rng, 2, witnessed=False), 1)
    assert validate_simplex(cat, simplex) == []
    shared = [pair for pair in itertools.permutations(simplex.cells, 2)
              if simplex.cells[pair[0]] is simplex.cells[pair[1]]]
    assert shared
    for seq, other in shared:
        xi = breaker(cat, simplex.cells[seq], rng)
        if xi is None:
            continue
        cells = dict(simplex.cells)
        cells[seq] = lin((1, cells[seq]), (1, xi))
        report = validate_simplex(cat, NerveSimplex(simplex.objects, cells))
        want = failing_residuals(cat, cells, 3)
        assert ("residual", seq) in want
        assert [(v.kind, v.location) for v in report] == want


def test_validate_flags_shape_problems(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 2)
    cells = dict(simplex.cells)
    del cells[(0, 2)]
    report = validate_simplex(three_term, NerveSimplex(simplex.objects, cells))
    assert any(v.kind == "missing_cell" and v.location == (0, 2)
               for v in report)
    cells = dict(simplex.cells)
    cells[(0, 2)] = three_term.zero(obj, obj, 3)
    report = validate_simplex(three_term, NerveSimplex(simplex.objects, cells))
    assert any(v.kind == "cell_degree" for v in report)


def test_validate_flags_bad_vertices_and_ranks(three_term):
    (obj,) = three_term.objects
    assert validate_simplex(three_term, NerveSimplex((), {})) == \
        [Violation("shape", ("objects",), "no vertices")]
    assert validate_simplex(three_term, NerveSimplex((obj, "nowhere"), {})) \
        == [Violation("shape", ("nowhere",), "unknown object")]
    simplex = identity_simplex(three_term, obj, 2)
    cells = dict(simplex.cells)
    cells[(0, 2)] = Morphism(obj, obj, 0, cells[(0, 2)].coords[:-1])
    report = validate_simplex(three_term, NerveSimplex(simplex.objects, cells))
    assert report == [Violation("cell_rank", (0, 2), "wrong coordinate count")]


def test_star_rejects_non_equivalence_edge(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 2)
    cells = dict(simplex.cells)
    cells[(0, 1)] = three_term.zero(obj, obj, 0)
    cells[(0, 2)] = three_term.zero(obj, obj, 0)
    bad = NerveSimplex(simplex.objects, cells)
    assert validate_simplex(three_term, bad) == []
    report = validate_star(three_term, bad)
    assert ("edge_not_equivalence", (0, 1)) in \
        [(v.kind, v.location) for v in report]


def test_two_witnessed_edges_force_the_third(complexes):
    # On a validated 2-simplex whose edges (0,1) and (1,2) are witnessed
    # equivalences, the composite identity makes (0,2) witnessed too.
    for seed in range(5):
        rng = random.Random(40 + seed)
        simplex = random_valid_simplex(complexes, rng, 2, witnessed=True)
        assert validate_star(complexes, simplex) == []


# ---------------------------------------------------------------------------
# Simplicial operators.
# ---------------------------------------------------------------------------


def test_simplicial_face_identity(three_term):
    rng = random.Random(12)
    simplex = random_valid_simplex(three_term, rng, 4, witnessed=True)
    for i in range(4):
        for j in range(i + 1, 5):
            left = face(face(simplex, j), i)
            right = face(face(simplex, i), j - 1)
            assert left.objects == right.objects
            assert left.cells == right.cells


def test_faces_of_valid_simplex_validate(three_term):
    rng = random.Random(13)
    simplex = random_valid_simplex(three_term, rng, 3, witnessed=True)
    for i in range(4):
        assert validate_simplex(three_term, face(simplex, i)) == []


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", SWEEP_CATEGORIES)
def test_degeneracy_matches_frozen_body(name, rank):
    """At every i of sampled simplices, n = 0 … 4: the cells of the frozen
    body, in its order, which is that of ``increasing_sequences``."""
    cat, rng = category(name, rank), random.Random(rank)
    for n in range(5):
        for witnessed in (True, False):
            simplex = random_valid_simplex(cat, rng, n, witnessed=witnessed)
            for i in range(n + 1):
                got = degeneracy(cat, simplex, i)
                want = old_degeneracy(cat, simplex, i)
                assert got == want
                assert list(got.cells) == list(want.cells) == \
                    increasing_sequences(n + 1)
    with pytest.raises(ValueError, match="degeneracy index"):
        degeneracy(cat, simplex, 5)


@pytest.mark.parametrize("degree", COCHAIN_DEGREES)
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", SWEEP_CATEGORIES)
def test_random_cochain_matches_frozen_body(name, rank, degree):
    """Between sampled simplices, n = 1 … 4: the frozen body's components, in
    its order, with the ``rng`` left in the same state."""
    cat = category(name, rank)
    for n in range(1, 5):
        for seed in range(3):
            rng, want_rng = random.Random(seed), random.Random()
            source, target = (random_valid_simplex(cat, rng, n,
                                                   witnessed=False)
                              for _ in range(2))
            want_rng.setstate(rng.getstate())
            got = random_cochain(cat, rng, source, target, degree)
            want = old_random_cochain(cat, want_rng, source, target, degree)
            assert got == want
            assert list(got.components) == list(want.components)
            assert rng.getstate() == want_rng.getstate()


def test_degeneracy_then_matching_face_is_identity(three_term):
    rng = random.Random(14)
    simplex = random_valid_simplex(three_term, rng, 2, witnessed=True)
    for j in range(3):
        degen = degeneracy(three_term, simplex, j)
        for back in (j, j + 1):
            restored = face(degen, back)
            assert restored.objects == simplex.objects
            assert restored.cells == simplex.cells


def test_degeneracies_validate(three_term):
    rng = random.Random(15)
    simplex = random_valid_simplex(three_term, rng, 2, witnessed=True)
    for j in range(3):
        degen = degeneracy(three_term, simplex, j)
        assert validate_simplex(three_term, degen) == []
        # the repeated edge is the identity, higher repeats are 0
        assert degen.cell((j, j + 1)) == three_term.identity(
            simplex.objects[j])


# ---------------------------------------------------------------------------
# Cochain complex: frozen values and laws.
# ---------------------------------------------------------------------------


def test_cochain_differential_hand_values(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 2)
    for degree in (-1, 0, 1):
        for j in range(three_term.rank(obj, obj, degree)):
            v = basis_morphism(three_term, obj, obj, degree, j)
            eta = NerveCochain(simplex, simplex, degree + 1, {(0, 1): v})
            d_eta = cochain_differential(three_term, eta)
            assert component(three_term, d_eta, (0, 1)) == \
                three_term.differential(v)
            assert component(three_term, d_eta, (0, 1, 2)) == \
                lin(((-1) ** (degree + 1), v))
            assert component(three_term, d_eta, (1, 2)).is_zero()
            assert component(three_term, d_eta, (0, 2)).is_zero()


def test_differential_of_zero_cochain(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 3)
    d_zero = cochain_differential(
        three_term, NerveCochain(simplex, simplex, 0))
    assert is_zero_cochain(d_zero)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d_squared_on_random_cochains(three_term, n):
    rng = random.Random(50 + n)
    for trial in range(10):
        source = random_valid_simplex(three_term, rng, n, witnessed=False)
        target = random_valid_simplex(three_term, rng, n, witnessed=False)
        degree = COCHAIN_DEGREES[trial % len(COCHAIN_DEGREES)]
        eta = random_cochain(three_term, rng, source, target, degree)
        dd = cochain_differential(three_term,
                                  cochain_differential(three_term, eta))
        assert is_zero_cochain(dd)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leibniz_on_random_pairs(three_term, n):
    rng = random.Random(60 + n)
    for trial in range(10):
        f = random_valid_simplex(three_term, rng, n, witnessed=False)
        g = random_valid_simplex(three_term, rng, n, witnessed=False)
        h = random_valid_simplex(three_term, rng, n, witnessed=False)
        phi = random_cochain(three_term, rng, f, g, rng.choice((-1, 0, 1)))
        eta = random_cochain(three_term, rng, g, h, rng.choice((-1, 0, 1)))
        comp = cochain_compose(three_term, eta, phi)
        lhs = cochain_differential(three_term, comp)
        rhs = cochain_add(
            cochain_compose(three_term, cochain_differential(three_term, eta),
                            phi),
            cochain_scale(
                cochain_compose(three_term, eta,
                                cochain_differential(three_term, phi)),
                (-1) ** eta.degree))
        assert cochain_equal(lhs, rhs)


def test_cochain_scale_reads_float_signs_exactly(three_term):
    # (−1) ** degree is the float −1.0 at degree −1, and callers pass it;
    # a scalar that is not a sign is refused.
    rng = random.Random(73)
    f = random_valid_simplex(three_term, rng, 2, witnessed=False)
    g = random_valid_simplex(three_term, rng, 2, witnessed=False)
    c = random_cochain(three_term, rng, f, g, -1)
    assert c.components and (-1) ** c.degree == -1.0
    assert cochain_scale(c, -1.0) == cochain_scale(c, -1)
    assert cochain_scale(c, 1) == c
    assert cochain_add(c, cochain_scale(c, -1)).components == {}
    seq, part = next(iter(c.components.items()))
    zero = three_term.zero(part.source, part.target, part.degree)
    padded = NerveCochain(f, g, c.degree, {**c.components, seq: zero})
    for sign in (1, -1, -1.0):
        assert cochain_scale(padded, sign).components == {
            s: m for s, m in cochain_scale(c, sign).components.items()
            if s != seq}
    for scalar in (2, 0, 0.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="sign"):
            cochain_scale(c, scalar)


def test_compose_with_zero(three_term):
    rng = random.Random(70)
    f = random_valid_simplex(three_term, rng, 2, witnessed=False)
    g = random_valid_simplex(three_term, rng, 2, witnessed=False)
    h = random_valid_simplex(three_term, rng, 2, witnessed=False)
    eta = random_cochain(three_term, rng, g, h, 1)
    z = NerveCochain(f, g, 0)
    assert is_zero_cochain(cochain_compose(three_term, eta, z))


def test_compose_associative(three_term):
    rng = random.Random(71)
    simps = [random_valid_simplex(three_term, rng, 3, witnessed=False)
             for _ in range(4)]
    f = random_cochain(three_term, rng, simps[0], simps[1], 0)
    g = random_cochain(three_term, rng, simps[1], simps[2], 1)
    h = random_cochain(three_term, rng, simps[2], simps[3], -1)
    left = cochain_compose(three_term, h,
                           cochain_compose(three_term, g, f))
    right = cochain_compose(three_term,
                            cochain_compose(three_term, h, g), f)
    assert cochain_equal(left, right)


def test_compose_requires_matching_middle(three_term):
    rng = random.Random(72)
    f = random_valid_simplex(three_term, rng, 2, witnessed=False)
    g = random_valid_simplex(three_term, rng, 2, witnessed=False)
    h = random_valid_simplex(three_term, rng, 2, witnessed=False)
    eta = random_cochain(three_term, rng, g, h, 0)
    phi = random_cochain(three_term, rng, f, f, 0)
    if cochain_equal(NerveCochain(f, f, 1, f.cells),
                     NerveCochain(g, g, 1, g.cells)):
        pytest.skip("samples coincide; cannot exercise the mismatch guard")
    with pytest.raises(ValueError):
        cochain_compose(three_term, eta, phi)


def test_cochain_equal_reads_a_stored_zero_as_absent(three_term):
    rng = random.Random(74)
    f = random_valid_simplex(three_term, rng, 2, witnessed=False)
    c = random_cochain(three_term, rng, f, f, 0)
    seq, cell = next((seq, cell) for seq, cell in c.components.items()
                     if not cell.is_zero())
    rest = {s: m for s, m in c.components.items() if s != seq}
    zero = three_term.zero(cell.source, cell.target, cell.degree)
    omitted = NerveCochain(f, f, 0, rest)
    stored = NerveCochain(f, f, 0, {**rest, seq: zero})
    assert cochain_equal(omitted, stored) and cochain_equal(stored, omitted)
    assert not cochain_equal(omitted, c) and not cochain_equal(c, omitted)
    shifted = NerveCochain(f, f, 1, rest)       # another degree, same parts
    assert not cochain_equal(omitted, shifted)
    assert not cochain_equal(shifted, omitted)
