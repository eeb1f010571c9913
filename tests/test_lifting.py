"""Square-zero lifting: perturb → reduce → lift round trips.

The correction pair ε = (ε_top, ε_face) built inside ``lift_filler`` is
recovered here as (lift input − lift output) and checked against its
defining equations by direct substitution (for k = n after transport to
the opposite category, where the obstruction pair lives):

    φ = d(α̃_face) − U                  d(ε_face) = φ
    ψ = d(α̃_top) − α̃_face∘α − V       d(ε_top)  = ε_face∘α + ψ   (outer)
    ψ = d(α̃_top) − σ·α̃_face − V       d(ε_top)  = σ·ε_face + ψ   (inner)
"""

import dataclasses
import random

import pytest

from dgnerve.dgcat import Morphism
from dgnerve.horn import (
    CannotFillOuterHorn,
    Filler,
    InvalidReduction,
    complete_horn,
    compute_obstruction,
    extract_horn,
    fill_horn,
    lift_filler,
    opposite_filler,
    random_horn,
    random_valid_simplex,
    reduce_horn,
    promote_filler,
)
from dgnerve.mc import reduce_category, reduce_morphism, tensor_with_ring
from dgnerve.nerve import NerveSimplex, validate_simplex
from dgnerve.rings import SquareZeroRing
from lincomb import lin
from nervekit import basis_morphism, identity_simplex, reduce_filler

GRID = [(2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (4, 2)]


@pytest.fixture(scope="module")
def towers(request):
    from dgnerve.fixtures import three_term_category

    base = three_term_category()
    out = {}
    for rank in (1, 2):
        big = tensor_with_ring(base, SquareZeroRing(rank))
        out[rank] = (big, reduce_category(big))
    return out


def ideal_noise_filler(cat, filler, rng):
    d_top = cat.random_morphism(filler.top.source, filler.top.target,
                                filler.top.degree, rng, ideal_only=True)
    d_face = cat.random_morphism(filler.face.source, filler.face.target,
                                 filler.face.degree, rng, ideal_only=True)
    return Filler(filler.n, filler.k, lin((1, filler.top), (1, d_top)),
                  lin((1, filler.face), (1, d_face)))


def assert_reduces_to(lifted, red_filler):
    assert reduce_morphism(lifted.top).coords == red_filler.top.coords
    assert reduce_morphism(lifted.face).coords == red_filler.face.coords


# ---------------------------------------------------------------------------
# Trivial ideal.
# ---------------------------------------------------------------------------


def test_rank_zero_lift_is_identity(three_term):
    rng = random.Random(1)
    for n, k in GRID:
        horn = random_horn(three_term, rng, n, k, witnessed=True)
        filler = fill_horn(three_term, horn)
        lifted = lift_filler(three_term, horn, filler)
        assert lifted == filler


# ---------------------------------------------------------------------------
# Rank 1 and 2 round trips over the whole grid.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("n,k", GRID)
def test_perturb_reduce_lift_round_trip(towers, rank, n, k):
    big, red = towers[rank]
    for seed in range(3):
        rng = random.Random(10_000 * rank + 100 * n + 10 * k + seed)
        horn = random_horn(big, rng, n, k, witnessed=True)
        red_horn = reduce_horn(horn)
        assert validate_simplex(red, complete_horn(
            red_horn, fill_horn(red, red_horn))) == []
        red_filler = fill_horn(red, red_horn)
        lifted = lift_filler(big, horn, red_filler)
        assert validate_simplex(big, complete_horn(horn, lifted)) == []
        assert_reduces_to(lifted, red_filler)


@pytest.mark.parametrize("n,k", [(2, 0), (3, 1), (3, 3)])
def test_correction_equations_by_substitution(towers, n, k):
    big, red = towers[1]
    for seed in range(4):
        rng = random.Random(555 + 100 * n + 10 * k + seed)
        horn = random_horn(big, rng, n, k, witnessed=True)
        true_filler = fill_horn(big, horn)
        # arbitrary ideal perturbation of an exact filler: still a valid
        # system of coordinate lifts of its own reduction
        lifts = ideal_noise_filler(big, true_filler, rng)
        red_filler = reduce_filler(lifts)
        lifted = lift_filler(big, horn, red_filler, lifts=lifts)
        assert validate_simplex(big, complete_horn(horn, lifted)) == []
        assert_reduces_to(lifted, red_filler)
        obs = compute_obstruction(big, horn)
        cat = obs.category
        if obs.op_reduced:  # k = n: the equations live in the opposite
            assert k == n and obs.alpha is not None
            lifts, lifted = opposite_filler(lifts), opposite_filler(lifted)
        eps_face = lin((1, lifts.face), (-1, lifted.face))
        eps_top = lin((1, lifts.top), (-1, lifted.top))
        phi = lin((1, cat.differential(lifts.face)), (-1, obs.U))
        assert phi.in_ideal()
        assert cat.differential(eps_face) == phi
        if k in (0, n):
            psi = lin((1, cat.differential(lifts.top)),
                      (-1, cat.compose(lifts.face, obs.alpha)), (-1, obs.V))
            assert psi.in_ideal()
            assert cat.differential(eps_top) == \
                lin((1, cat.compose(eps_face, obs.alpha)), (1, psi))
        else:
            psi = lin((1, cat.differential(lifts.top)),
                      (-obs.sign, lifts.face), (-1, obs.V))
            assert psi.in_ideal()
            assert cat.differential(eps_top) == \
                lin((obs.sign, eps_face), (1, psi))


def test_inner_lift_corrections_touch_only_the_face(towers):
    # inner corrections have ε_top = 0: the top coordinate lift survives.
    big, red = towers[1]
    rng = random.Random(42)
    horn = random_horn(big, rng, 3, 1, witnessed=False)
    lifts = ideal_noise_filler(big, fill_horn(big, horn), rng)
    lifted = lift_filler(big, horn, reduce_filler(lifts), lifts=lifts)
    assert lifted.top == lifts.top
    assert validate_simplex(big, complete_horn(horn, lifted)) == []


# ---------------------------------------------------------------------------
# Error paths.
# ---------------------------------------------------------------------------


def test_garbage_mod_ideal_filler_is_rejected(towers):
    big, red = towers[1]
    rng = random.Random(50)
    horn = random_horn(big, rng, 3, 1, witnessed=True)
    red_filler = fill_horn(red, reduce_horn(horn))
    # break the reduced solution with a body-level shift whose differential
    # is nonzero: the lift must detect it, not absorb it
    (obj,) = red.objects
    delta = next(
        b for b in (basis_morphism(red, obj, obj, red_filler.face.degree, j)
                    for j in range(red.rank(obj, obj, red_filler.face.degree)))
        if not red.differential(b).is_zero())
    bad = Filler(red_filler.n, red_filler.k,
                 red_filler.top, lin((1, red_filler.face), (1, delta)))
    with pytest.raises(InvalidReduction):
        lift_filler(big, horn, bad)


def test_mismatched_lifts_are_rejected(towers):
    big, red = towers[1]
    rng = random.Random(51)
    horn = random_horn(big, rng, 3, 1, witnessed=True)
    red_filler = fill_horn(red, reduce_horn(horn))
    lifts = promote_filler(big, red_filler)
    body_shift = big.morphism(
        lifts.face.source, lifts.face.target, lifts.face.degree,
        [1] * big.rank(lifts.face.source, lifts.face.target,
                       lifts.face.degree))
    shifted = Filler(lifts.n, lifts.k, lifts.top,
                     lin((1, lifts.face), (1, body_shift)))
    with pytest.raises(InvalidReduction):
        lift_filler(big, horn, red_filler, lifts=shifted)


def test_dimension_mismatch_rejected(towers):
    big, red = towers[1]
    rng = random.Random(52)
    horn = random_horn(big, rng, 3, 1, witnessed=True)
    other = fill_horn(red, reduce_horn(
        random_horn(big, rng, 2, 0, witnessed=True)))
    with pytest.raises(ValueError):
        lift_filler(big, horn, other)


@pytest.mark.parametrize("cell", ["top", "face"])
def test_lifts_of_the_wrong_degree_are_rejected(towers, cell):
    big, red = towers[1]
    horn = random_horn(big, random.Random(53), 3, 1, witnessed=True)
    red_filler = fill_horn(red, reduce_horn(horn))
    lifts = promote_filler(big, red_filler)
    f = getattr(lifts, cell)
    shifted = Morphism(f.source, f.target, 5, f.coords)
    with pytest.raises(ValueError, match="degree 5, expected"):
        lift_filler(big, horn, red_filler,
                    lifts=dataclasses.replace(lifts, **{cell: shifted}))


@pytest.mark.parametrize("k_of_n", [0, 1])
def test_unwitnessed_outer_lift_names_the_edge(towers, k_of_n):
    big, red = towers[1]
    (obj,) = big.objects
    simplex = identity_simplex(big, obj, 2)
    cells = dict(simplex.cells)
    if k_of_n == 0:
        cells[(0, 1)] = big.zero(obj, obj, 0)
        k, edge = 0, "(0, 1)"
    else:
        cells[(1, 2)] = big.zero(obj, obj, 0)
        k, edge = 2, "(1, 2)"
    cells[(0, 2)] = big.zero(obj, obj, 0)
    degenerate = NerveSimplex(simplex.objects, cells)
    assert validate_simplex(big, degenerate) == []
    horn = extract_horn(degenerate, k)
    red_filler = reduce_filler(Filler(2, k, degenerate.cell((0, 1, 2)),
                                      degenerate.cell(horn.missing_face)))
    with pytest.raises(CannotFillOuterHorn) as exc:
        lift_filler(big, horn, red_filler)
    assert edge in str(exc.value)


# ---------------------------------------------------------------------------
# Reduction helpers.
# ---------------------------------------------------------------------------


def test_reduce_simplex_validates(towers):
    big, red = towers[2]
    rng = random.Random(60)
    simplex = random_valid_simplex(big, rng, 3, witnessed=True)
    cells = {s: reduce_morphism(c) for s, c in simplex.cells.items()}
    assert validate_simplex(red, NerveSimplex(simplex.objects, cells)) == []


def test_promote_then_reduce_filler(towers):
    big, red = towers[1]
    rng = random.Random(61)
    horn = random_horn(big, rng, 3, 2, witnessed=True)
    red_filler = fill_horn(red, reduce_horn(horn))
    assert reduce_filler(promote_filler(big, red_filler)) == red_filler
