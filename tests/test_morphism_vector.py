"""``dgcat.Morphism`` as one int vector against the frozen dataclass it
replaced (``nervekit.OldMorphism``).

The draws cover every test category at ideal ranks 0–2: package draws,
noisy coordinates with denominators up to 7, zeros, coordinates with
unequal denominators (1/3 and 2/7) and sums that the accumulator built.
On them both classes must agree on ``==``, ``!=``, hash equality, the
repr, ``coords``, ``is_zero`` and ``in_ideal``, also across rings, and the
accumulator's sums must be the old per-coordinate sums.  The samplers build
their morphisms as int vectors too, with no ring element arithmetic.
"""

import itertools
import random

import pytest

from dgnerve.dgcat import Morphism, MorphismSum
from dgnerve.fixtures import FIXTURES
from dgnerve.horn import random_valid_simplex
from dgnerve.mc import random_mc_element, tensor_with_ring
from dgnerve.nerve import NerveCochain, NerveSimplex, cochain_add
from dgnerve.rings import RingElement, SquareZeroRing
from nervekit import OldMorphism, random_elements
from test_morphism_sum import CATEGORY_NAMES, category


def _unequal_denominators(ring, n):
    """n coordinates cycling through 1/3, 2/7 and 0, each with ideal noise
    over other denominators."""
    m = ring.ideal_rank
    cycle = (ring.element("1/3", ["2/5", "-1/2"][:m] + [0] * (m - 2)),
             ring.element("2/7", ["-1/2"] * m), ring.zero())
    return tuple(cycle[i % 3] for i in range(n))


def _draws(name, rng):
    """(new, old) pairs over every hom block of ``name`` at ideal ranks
    0–2, each value built twice: from its coordinates, and as a sum whose
    denominator grew on the way, so that it must be brought to lowest
    terms; plus a morphism of no coordinates, the same in every ring."""
    out = []
    for rank in (0, 1, 2):
        cat = category(name, rank)
        ring, obj = cat.ring, cat.objects[0]
        out.append((cat.zero(obj, obj, 99), OldMorphism(obj, obj, 99, ())))
        for (x, y, t), n in sorted(cat.ranks.items()):
            drawn = cat.random_morphism(x, y, t, rng)
            noisy = random_elements(ring, rng, n, span=9, max_denominator=7)
            other = Morphism(x, y, t, _unequal_denominators(ring, n))
            for coords in (drawn.coords, noisy, (ring.zero(),) * n,
                           other.coords):
                old = OldMorphism(x, y, t, tuple(coords))
                new = Morphism(x, y, t, coords)
                grown = MorphismSum(cat, x, y, t).add(other).add(new, 2) \
                    .add(new, -1).add(other, -1)
                out += [(new, old), (grown.result(), old)]
            out.append((cat.zero(x, y, t),
                        OldMorphism(x, y, t, (ring.zero(),) * n)))
            if x == y and t == 0:
                out.append((cat.identity(x),
                            OldMorphism(x, x, 0, cat.identities[x])))
    return out


@pytest.mark.parametrize("name", CATEGORY_NAMES)
def test_int_vector_agrees_with_the_old_dataclass(name):
    draws = _draws(name, random.Random(name))
    for new, old in draws:
        assert repr(new) == repr(old)
        assert new.coords == old.coords
        assert (new.is_zero(), new.in_ideal()) == \
            (old.is_zero(), old.in_ideal())
    hashes = [(hash(new), hash(old)) for new, old in draws]
    for (a, ha), (b, hb) in itertools.combinations(zip(draws, hashes), 2):
        assert (a[0] == b[0]) == (a[1] == b[1])
        assert (a[0] != b[0]) == (a[1] != b[1])
        assert (ha[0] == hb[0]) == (ha[1] == hb[1])


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", CATEGORY_NAMES)
def test_sums_are_the_old_per_coordinate_sums(name, rank):
    cat, rng = category(name, rank), random.Random(rank)
    ring = cat.ring
    for (x, y, t), n in sorted(cat.ranks.items()):
        f = Morphism(x, y, t, _unequal_denominators(ring, n))
        g = Morphism(x, y, t, random_elements(ring, rng, n, span=9,
                                              max_denominator=7))
        for s, u in ((1, 1), (2, -3), (-1, 1)):
            want = tuple(a * s + b * u for a, b in zip(f.coords, g.coords))
            got = MorphismSum(cat, x, y, t).add(f, s).add(g, u).result()
            assert repr(got) == repr(OldMorphism(x, y, t, want))
        simplex = NerveSimplex((x, y), {})
        one = NerveCochain(simplex, simplex, t, {(0, 1): f})
        two = NerveCochain(simplex, simplex, t, {(0, 1): g})
        total = cochain_add(one, two).components.get((0, 1), cat.zero(x, y, t))
        assert total.coords == tuple(a + b for a, b in zip(f.coords, g.coords))


def test_coordinates_of_different_widths_are_refused_at_construction():
    one, two = SquareZeroRing(1).one(), SquareZeroRing(2).one()
    with pytest.raises(ValueError,
                       match=r"^ring elements of different ideal rank$"):
        Morphism("A", "A", 0, (one, two))


@pytest.mark.parametrize("op", ["add", "differential", "compose"])
def test_zero_operand_of_another_width_is_refused(op):
    """An operand is read as one vector, so its width is checked even where
    every coordinate is zero."""
    cat = category("three_term", 1)
    f = cat.identity("C0")
    alien = Morphism(f.source, f.target, f.degree,
                     (SquareZeroRing(2).zero(),) * f.rank)
    with pytest.raises(ValueError,
                       match=r"^ring elements of different ideal rank$"):
        if op == "add":
            MorphismSum(cat, "C0", "C0", 0).add(alien)
        elif op == "differential":
            cat.differential(alien)
        else:
            cat.compose(f, alien)


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", list(FIXTURES))
def test_samplers_do_no_ring_element_arithmetic(name, rank, monkeypatch):
    """MC elements at every object and witnessed and plain 4-simplices are
    drawn with ``RingElement`` addition, negation and products raising."""
    cat = tensor_with_ring(FIXTURES[name](), SquareZeroRing(rank))

    def refuse(*args):
        raise AssertionError("ring element arithmetic in a sampler")
    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(RingElement, op, refuse)
    for seed in range(3):
        rng = random.Random(seed)
        for obj in cat.objects:
            random_mc_element(cat, obj, rng)
        for witnessed in (True, False):
            random_valid_simplex(cat, rng, 4, witnessed=witnessed)
