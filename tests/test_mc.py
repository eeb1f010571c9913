"""Maurer-Cartan elements, twisting, and base change along B → B/I.

Hand calculation used below: in the three-term fixture (complex
Q −0→ Q −id→ Q, one object), End¹ has basis u (level 0→1), v (level 1→2),
End² has basis w (level 0→2), and

    d(u) = w    d(v) = 0    v∘u = w    u∘u = v∘v = 0

so η = s·u + t·v has MC defect (s + s·t)·w: the MC locus is s(1+t) = 0.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from dgnerve.dgcat import (Morphism, MorphismSum, check_axioms,
                           complex_from_dense, make_complex_category)
from dgnerve.fixtures import FIXTURES
from dgnerve.mc import (
    InvalidMCObject,
    check_mc,
    mc_defect,
    promote_morphism,
    random_mc_element,
    reduce_category,
    reduce_morphism,
    tensor_with_ring,
    twist,
)
from dgnerve.rings import RATIONALS, RingElement, SquareZeroRing
from nervekit import basis_morphism, random_elements
from test_morphism_sum import fractional_category


def endo(cat, degree, coords):
    (obj,) = cat.objects
    return cat.morphism(obj, obj, degree, coords)


# ---------------------------------------------------------------------------
# tensor_with_ring / reduction.
# ---------------------------------------------------------------------------


def test_tensor_with_rank_zero_is_identity(three_term):
    cat = tensor_with_ring(three_term, RATIONALS)
    assert cat.ranks == three_term.ranks
    assert cat.diffs == three_term.diffs
    assert cat.comps == three_term.comps
    assert cat.identities == three_term.identities


@pytest.mark.parametrize("rank", [1, 2])
def test_tensor_passes_axioms(three_term, rank):
    cat = tensor_with_ring(three_term, SquareZeroRing(rank))
    assert cat.ring.ideal_rank == rank
    assert check_axioms(cat) == []


def test_reduce_recovers_base(three_term, exterior):
    for cat in (three_term, exterior):
        big = tensor_with_ring(cat, SquareZeroRing(2))
        back = reduce_category(big)
        assert back.ranks == cat.ranks
        assert back.diffs == cat.diffs
        assert back.comps == cat.comps
        assert back.identities == cat.identities


def test_tensor_requires_rational_base(three_term):
    big = tensor_with_ring(three_term, SquareZeroRing(1))
    with pytest.raises(ValueError):
        tensor_with_ring(big, SquareZeroRing(1))


def test_promote_reduce_round_trip(three_term, rng):
    big = tensor_with_ring(three_term, SquareZeroRing(2))
    (obj,) = three_term.objects
    f = three_term.random_morphism(obj, obj, 1, rng)
    assert reduce_morphism(promote_morphism(big, f)) == f


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_promote_keeps_the_body(rank):
    ring, rng = SquareZeroRing(rank), random.Random(rank)
    for x in random_elements(RATIONALS, rng, 50, span=9, max_denominator=12):
        assert ring.promote(x) == ring.element(x.body)


def test_promote_morphism_refuses_ideal_layers(three_term, rng):
    """A rank-1 morphism used to lose its ideal layers on the way."""
    big = tensor_with_ring(three_term, SquareZeroRing(1))
    (obj,) = big.objects
    f = big.random_morphism(obj, obj, 1, rng, ideal_only=True)
    with pytest.raises(ValueError, match="can only promote rank-0 elements"):
        promote_morphism(tensor_with_ring(three_term, SquareZeroRing(2)), f)


# ---------------------------------------------------------------------------
# check_mc.
# ---------------------------------------------------------------------------


def test_zero_is_mc(three_term):
    (obj,) = three_term.objects
    assert check_mc(three_term, three_term.zero(obj, obj, 1)) == []


def test_three_term_mc_locus(three_term):
    # defect of s·u + t·v is s(1+t)·w.
    assert check_mc(three_term, endo(three_term, 1, [0, 5])) == []
    assert check_mc(three_term, endo(three_term, 1, [3, -1])) == []
    report = check_mc(three_term, endo(three_term, 1, [1, 1]))
    assert [v.kind for v in report] == ["mc_equation"]
    defect = mc_defect(three_term, endo(three_term, 1, [1, 1]))
    assert defect == endo(three_term, 2, [2])


def test_closed_element_with_nonzero_square_fails():
    # Zero differential, so every η is closed; u + v squares to w ≠ 0.
    cat = make_complex_category(
        [complex_from_dense(RATIONALS, {0: 1, 1: 1, 2: 1}, {})])
    eta = endo(cat, 1, [1, 1])
    assert cat.differential(eta).is_zero()
    report = check_mc(cat, eta)
    assert [v.kind for v in report] == ["mc_equation"]


def test_ideal_cycle_is_mc_over_dual_numbers(three_term):
    big = tensor_with_ring(three_term, SquareZeroRing(1))
    (obj,) = big.objects
    eps = big.ring.generator(0)
    # ε·(closed ξ): the square dies in I², the differential by closedness.
    xi = big.morphism(obj, obj, 1, [big.ring.zero(), eps])
    assert check_mc(big, xi) == []
    # ε·(non-closed ξ) fails: d(ε·u) = ε·w ≠ 0 and the square is still 0.
    bad = big.morphism(obj, obj, 1, [eps, big.ring.zero()])
    assert [v.kind for v in check_mc(big, bad)] == ["mc_equation"]


def test_check_mc_shape_guards(three_term):
    (obj,) = three_term.objects
    wrong_degree = three_term.zero(obj, obj, 0)
    assert [v.kind for v in check_mc(three_term, wrong_degree)] == ["mc_degree"]


# ---------------------------------------------------------------------------
# twist.
# ---------------------------------------------------------------------------


def test_zero_twist_is_base(three_term):
    (obj,) = three_term.objects
    twisted = twist(three_term, {obj: three_term.zero(obj, obj, 1)})
    assert twisted.diffs == three_term.diffs
    assert twisted.comps == three_term.comps


def test_twist_passes_axioms(three_term):
    (obj,) = three_term.objects
    for coords in ([0, 1], [1, -1], [0, -3], [2, -1]):
        eta = endo(three_term, 1, coords)
        assert check_mc(three_term, eta) == []
        assert check_axioms(twist(three_term, {obj: eta})) == []


def test_twist_rejects_invalid_mc(three_term):
    (obj,) = three_term.objects
    with pytest.raises(InvalidMCObject):
        twist(three_term, {obj: endo(three_term, 1, [1, 1])})
    with pytest.raises(InvalidMCObject):
        twist(three_term, {"nope": endo(three_term, 1, [0, 0])})


def test_genuine_mc_mutant_breaks_d_squared(three_term):
    (obj,) = three_term.objects
    eta = endo(three_term, 1, [1, -1])        # on the MC locus (t = −1)
    mutant = endo(three_term, 1, [1, 0])      # single-coordinate mutation
    assert check_mc(three_term, mutant)       # genuinely off the locus
    report = check_axioms(twist(three_term, {obj: mutant}, validate=False))
    assert any(v.kind == "d_squared" for v in report)


def test_twisted_fixture_passes_axioms(twisted):
    assert check_axioms(twisted) == []


# ---------------------------------------------------------------------------
# Functoriality along B → B/I and sampling.
# ---------------------------------------------------------------------------


def test_mc_reduces_functorially(three_term, rng):
    big = tensor_with_ring(three_term, SquareZeroRing(2))
    (obj,) = big.objects
    for _ in range(15):
        eta = random_mc_element(big, obj, rng)
        assert check_mc(big, eta) == []
        assert check_mc(three_term, reduce_morphism(eta)) == []


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_random_mc_elements_are_mc(three_term, two_term, rank, rng):
    for base in (three_term, two_term):
        cat = base if rank == 0 else tensor_with_ring(base, SquareZeroRing(rank))
        (obj,) = cat.objects
        for _ in range(15):
            assert check_mc(cat, random_mc_element(cat, obj, rng)) == []


def test_random_mc_elements_are_sometimes_nonzero(two_term, rng):
    cat = tensor_with_ring(two_term, SquareZeroRing(1))
    (obj,) = cat.objects
    draws = [random_mc_element(cat, obj, rng) for _ in range(20)]
    assert any(not eta.is_zero() for eta in draws)


def _reference_random_mc_element(cat, obj, rng):
    """Oracle: m combinations of the body cycles as ``Fraction`` lists, the
    ideal layers over a zero body over Q ⊕ I (8 tries), or one combination
    as the body over Q (12 tries)."""
    rank1 = cat.rank(obj, obj, 1)
    zero = cat.zero(obj, obj, 1)
    if rank1 == 0:
        return zero

    m = cat.ring.ideal_rank
    basis = [[e.body for e in vec.coords]
             for vec in cat.cycle_basis(obj, obj, 1, RATIONALS)]

    def random_combo():
        coords = [Fraction(0)] * rank1
        for vec in basis:
            weight = rng.randint(-2, 2)
            if weight:
                for i, c in enumerate(vec):
                    coords[i] += c * weight
        return coords

    for _ in range(8 if m else 12):
        combos = [random_combo() for _ in range(max(m, 1))]
        candidate = Morphism(obj, obj, 1, tuple(
            RingElement(0 if m else combos[0][i],
                        tuple(layer[i] for layer in combos[:m]))
            for i in range(rank1)))
        if not check_mc(cat, candidate):
            return candidate
    return zero


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", list(FIXTURES))
def test_random_mc_element_matches_reference(name, rank):
    """The same coordinates as the oracle, with the ``rng`` left in the same
    state, at every object of every fixture (``two_term`` has no degree-2
    endomorphisms, so its cycle basis is the identity)."""
    cat = tensor_with_ring(FIXTURES[name](), SquareZeroRing(rank))
    for obj in cat.objects:
        for seed in range(150):
            rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_mc_element(cat, obj, rng)
            assert got == _reference_random_mc_element(cat, obj, want_rng)
            assert rng.getstate() == want_rng.getstate()


def _reference_twist(cat, elements):
    """Oracle: the twisted differential column by column, each column the
    image of one basis morphism through ``MorphismSum``, kept when nonzero
    as its nonzero entries in row order."""
    diffs = {}
    for (x, y, t) in sorted(cat.ranks):
        n = cat.rank(x, y, t)
        if n == 0 or cat.rank(x, y, t + 1) == 0:
            continue
        eta_src, eta_tgt = elements.get(x), elements.get(y)
        cols = {}
        sign = -1 if t % 2 else 1
        for j in range(n):
            basis = basis_morphism(cat, x, y, t, j)
            image = MorphismSum(cat, x, y, t + 1).add_differential(basis)
            if eta_tgt is not None:
                image.add_compose(eta_tgt, basis)
            if eta_src is not None:
                image.add_compose(basis, eta_src, -sign)
            if not image.is_zero():
                cols[j] = tuple((i, c) for i, c in
                                enumerate(image.result().coords)
                                if not c.is_zero())
        if cols:
            diffs[(x, y, t)] = cols
    return diffs


def _ordered(diffs):
    """``diffs`` with the order of its blocks and columns, which ``==`` on
    dicts does not see."""
    return [(key, list(cols.items())) for key, cols in diffs.items()]


def halved_comps(cat):
    """Copy of ``cat`` with every composition constant halved: not a
    dg-category, but its twist by a non-MC element has η∘f products over
    the denominator 2."""
    comps = {key: {pair: tuple((r, a * Fraction(1, 2)) for r, a in entries)
                   for pair, entries in tensor.items()}
             for key, tensor in cat.comps.items()}
    return dataclasses.replace(cat, comps=comps)


TWIST_BASES = {**FIXTURES, "fractional": fractional_category,
               "halved": lambda: halved_comps(FIXTURES["complexes_a"]())}


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", [*FIXTURES, "fractional"])
def test_twist_matches_basis_oracle(name, rank):
    """Seeded MC families, on every object and on the first object alone
    (the others twist by 0): the same blocks, columns and entries, in the
    same order."""
    cat = tensor_with_ring(TWIST_BASES[name](), SquareZeroRing(rank))
    for seed in range(3):
        rng = random.Random(seed)
        etas = {obj: random_mc_element(cat, obj, rng) for obj in cat.objects}
        first = dict(list(etas.items())[:1])
        for family in (etas, first):
            got = twist(cat, family).diffs
            assert _ordered(got) == _ordered(_reference_twist(cat, family))


def test_twist_refuses_a_diff_entry_past_its_block():
    """A hand-built entry at row 3 of the 3×2 block ``diffs[("A", "A",
    -1)]`` used to land in column 1 of the twisted differential."""
    cat = FIXTURES["complexes_a"]()
    block = cat.diffs[("A", "A", -1)]
    (_, a), *rest = block[0]
    bad = dataclasses.replace(cat, diffs={
        **cat.diffs, ("A", "A", -1): {**block, 0: ((3, a), *rest)}})
    with pytest.raises(ValueError, match=r"block \('A', 'A', -1\) has an "
                                         r"entry outside its 3×2 shape"):
        twist(bad, {})


def non_mc_family(cat, rng):
    """A random degree-1 endomorphism at every object, drawn again until
    one of them fails the MC equation."""
    while True:
        etas = {obj: cat.random_morphism(obj, obj, 1, rng)
                for obj in cat.objects}
        if any(check_mc(cat, eta) for eta in etas.values()):
            return etas


# exterior and two_term have no degree-2 endomorphisms: all is MC there
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", [name for name in TWIST_BASES
                                  if name not in ("exterior", "two_term")])
def test_twist_by_non_mc_elements_matches_basis_oracle(name, rank):
    cat = tensor_with_ring(TWIST_BASES[name](), SquareZeroRing(rank))
    etas = non_mc_family(cat, random.Random(rank))
    got = twist(cat, etas, validate=False).diffs
    assert _ordered(got) == _ordered(_reference_twist(cat, etas))


# ---------------------------------------------------------------------------
# No floating point: signs of negative degrees are int parities.
# ---------------------------------------------------------------------------


def test_negative_degrees_keep_signs_exact(monkeypatch):
    """(−1)**t is the float −1.0 for negative t.  With ``as_rational``
    refusing floats, building a complex category with negative hom degrees,
    twisting it, and the law battery give what an unpatched run gives."""
    from dgnerve import rings
    from dgnerve.fixtures import three_term_category
    from dgnerve.laws import run_laws

    def run():
        cat = three_term_category()
        eta = cat.morphism("C0", "C0", 1, [0, 1])
        return cat, twist(cat, {"C0": eta}), run_laws(cat, seed=5, trials=4)

    want = run()
    assert min(t for (_, _, t) in want[0].ranks) < 0
    real = rings.as_rational

    def exact_only(value):
        if isinstance(value, float):
            raise TypeError(f"float {value!r} reached exact arithmetic")
        return real(value)

    monkeypatch.setattr(rings, "as_rational", exact_only)
    assert run() == want
