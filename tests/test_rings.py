"""Exact arithmetic in square-zero extensions Q ⊕ I.

The multiplication law is cross-checked against an independent oracle: the
truncated polynomial ring Q[t₁,…,t_m]/(monomials of total degree ≥ 2),
implemented below on raw monomial dictionaries with no reference to
``RingElement`` arithmetic.  The integer-layer storage is checked with
``==`` against ``FractionElement``, the element as it was stored before:
a ``Fraction`` body and a tuple of ``Fraction`` ideal coordinates.
"""

import doctest
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgnerve.rings
from dgnerve.jsonio import element_from_json, element_to_json
from dgnerve.rings import (
    RATIONALS,
    RingElement,
    SquareZeroRing,
    from_layers,
    reduce_mod_ideal,
)
from nervekit import random_elements

# ---------------------------------------------------------------------------
# Independent oracle: truncated polynomial arithmetic on monomial dicts.
# A polynomial is {exponent_tuple: Fraction}; every monomial of total degree
# ≥ 2 is dropped, which is exactly the relation cutting out Q ⊕ I.
# ---------------------------------------------------------------------------


def poly_of(x: RingElement) -> dict:
    mono = {}
    if x.body:
        mono[(0,) * len(x.ideal)] = x.body
    for i, c in enumerate(x.ideal):
        if c:
            exp = [0] * len(x.ideal)
            exp[i] = 1
            mono[tuple(exp)] = c
    return mono


def poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) >= 2:
                continue
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# The Fraction-stored element that integer layers replaced.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionElement:
    body: Fraction
    ideal: tuple[Fraction, ...] = ()

    def _coerce(self, other):
        if isinstance(other, FractionElement):
            if len(other.ideal) != len(self.ideal):
                raise ValueError("ring elements of different ideal rank")
            return other
        return FractionElement(Fraction(other),
                               (Fraction(0),) * len(self.ideal))

    def __add__(self, other):
        o = self._coerce(other)
        return FractionElement(
            self.body + o.body,
            tuple(a + b for a, b in zip(self.ideal, o.ideal)))

    __radd__ = __add__

    def __neg__(self):
        return FractionElement(-self.body, tuple(-a for a in self.ideal))

    def __mul__(self, other):
        o = self._coerce(other)
        return FractionElement(self.body * o.body,
                               tuple(self.body * b + o.body * a
                                     for a, b in zip(self.ideal, o.ideal)))

    __rmul__ = __mul__


def old_random_element(ring, rng, *, span=2, max_denominator=2,
                       ideal_noise=True, ideal_only=False):
    """One draw of ``random_elements`` as it drew Fractions before integer
    layers."""
    def rational():
        return Fraction(rng.randint(-span, span),
                        rng.randint(1, max_denominator))
    body = Fraction(0) if ideal_only else rational()
    ideal = tuple(rational() if ideal_noise or ideal_only else Fraction(0)
                  for _ in range(ring.ideal_rank))
    return FractionElement(body, ideal)


def assert_matches(new, old):
    """``new`` is the layered form of ``old``, in canonical form."""
    assert (new.body, new.ideal) == (old.body, old.ideal)
    assert new.den > 0 and gcd(new.den, *new.nums) == 1
    assert len(new.nums) == len(old.ideal) + 1
    if old.body == 0 and not any(old.ideal):
        assert new.nums == (0,) * len(new.nums) and new.den == 1


# ---------------------------------------------------------------------------
# Hypothesis strategies.
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def elements(rank: int):
    coords = st.tuples(*([rationals] * rank))
    return st.builds(lambda b, v: RingElement(b, v), rationals, coords)


# ---------------------------------------------------------------------------
# Frozen hand values.
# ---------------------------------------------------------------------------


def test_square_zero_product_hand_value():
    ring = SquareZeroRing(1)
    x = ring.element(1, [2])
    y = ring.element(3, [1])
    assert x * y == ring.element(3, [7])


def test_multiply_by_zero():
    ring = SquareZeroRing(2)
    x = ring.element("5/3", [1, "7/2"])
    assert (x * ring.zero()).is_zero()


def test_reduce_hand_value():
    ring = SquareZeroRing(1)
    assert reduce_mod_ideal(ring.element(5, [3])) == RATIONALS.element(5)


def test_reduce_of_unit():
    assert reduce_mod_ideal(SquareZeroRing(3).one()) == RATIONALS.one()


# ---------------------------------------------------------------------------
# Oracle cross-checks and ring laws.
# ---------------------------------------------------------------------------


@settings(max_examples=150)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(elements(m), elements(m))))
def test_product_matches_truncated_polynomial_oracle(pair):
    x, y = pair
    assert poly_of(x * y) == poly_mul(poly_of(x), poly_of(y))


@settings(max_examples=150)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(elements(m), elements(m))))
def test_sum_matches_truncated_polynomial_oracle(pair):
    x, y = pair
    assert poly_of(x + y) == poly_add(poly_of(x), poly_of(y))


@settings(max_examples=100)
@given(st.integers(0, 2).flatmap(
    lambda m: st.tuples(elements(m), elements(m), elements(m))))
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(
    lambda m: st.tuples(st.tuples(*([rationals] * m)),
                        st.tuples(*([rationals] * m)))))
def test_ideal_squares_to_zero(coords):
    v, w = coords
    x = RingElement(Fraction(0), v)
    y = RingElement(Fraction(0), w)
    assert (x * y).is_zero()


@settings(max_examples=100)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(elements(m), elements(m))))
def test_reduce_is_ring_homomorphism(pair):
    x, y = pair
    assert reduce_mod_ideal(x * y) == reduce_mod_ideal(x) * reduce_mod_ideal(y)
    assert reduce_mod_ideal(x + y) == reduce_mod_ideal(x) + reduce_mod_ideal(y)


# ---------------------------------------------------------------------------
# Integer layers against the Fraction-stored element.
# ---------------------------------------------------------------------------

def _minus(a, b):
    """``a`` plus the negative of ``b``: subtraction, which the ring leaves
    to its callers."""
    return a + (-b)


pairs_of_old = st.integers(0, 3).flatmap(lambda m: st.tuples(
    *[st.builds(FractionElement, rationals, st.tuples(*([rationals] * m)))
      for _ in range(2)]))
scalars = st.one_of(st.integers(-9, 9), rationals)


@settings(max_examples=200)
@given(pairs_of_old, scalars)
def test_arithmetic_matches_fraction_oracle(pair, q):
    old_x, old_y = pair
    x, y = (RingElement(v.body, v.ideal) for v in pair)
    assert_matches(x, old_x)
    for op in (operator.add, _minus, operator.mul):
        assert_matches(op(x, y), op(old_x, old_y))
        assert_matches(op(x, q), op(old_x, q))
        assert_matches(op(q, x), op(q, old_x))
    assert_matches(-x, -old_x)
    assert_matches(x + (-x), old_x + (-old_x))


@settings(max_examples=100)
@given(pairs_of_old)
def test_equality_hash_and_views_match_fraction_oracle(pair):
    old_x, old_y = pair
    x, y = (RingElement(v.body, v.ideal) for v in pair)
    assert (x == y) == (old_x == old_y)
    assert x == (x + y) + (-y) and hash(x) == hash((x + y) + (-y))
    assert x != old_x and x != x.body
    scaled = from_layers([6 * v for v in x.nums], 6 * x.den)
    assert scaled == x and hash(scaled) == hash(x)


@settings(max_examples=100)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(st.integers(1, 3),
                                                    elements(m))))
def test_different_ideal_ranks_rejected_like_fraction_oracle(args):
    extra, x = args
    old = FractionElement(x.body, x.ideal)
    y = RingElement(1, (0,) * (len(x.ideal) + extra))
    old_y = FractionElement(y.body, y.ideal)
    for op in (operator.add, _minus, operator.mul):
        for new_args, old_args in (((x, y), (old, old_y)),
                                   ((y, x), (old_y, old))):
            with pytest.raises(ValueError) as want:
                op(*old_args)
            with pytest.raises(ValueError, match=f"^{want.value}$"):
                op(*new_args)
    assert x != y


@settings(max_examples=100)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=4),
       st.integers(-12, 12).filter(bool))
def test_from_layers_is_canonical(nums, den):
    x = from_layers(nums, den)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert (x.body, *x.ideal) == tuple(Fraction(v, den) for v in nums)
    if not any(nums):
        assert (x.nums, x.den) == ((0,) * len(nums), 1)


@settings(max_examples=60)
@given(st.integers(0, 3), st.integers(0, 2 ** 32), st.integers(1, 9),
       st.integers(1, 9), st.booleans(), st.booleans())
def test_random_element_draws_like_fraction_oracle(rank, seed, span, den,
                                                   noise, only):
    """Five draws in one call, then one in each of two calls, are those of
    the Fraction oracle, with the ``rng`` left in the same state."""
    ring = SquareZeroRing(rank)
    rng, old_rng = random.Random(seed), random.Random(seed)
    kwargs = dict(span=span, max_denominator=den, ideal_noise=noise,
                  ideal_only=only)
    got = [*random_elements(ring, rng, 5, **kwargs),
           *random_elements(ring, rng, 1, **kwargs),
           *random_elements(ring, rng, 1, **kwargs)]
    assert random_elements(ring, rng, 0, **kwargs) == ()
    for x in got:
        assert_matches(x, old_random_element(ring, old_rng, **kwargs))
    assert rng.getstate() == old_rng.getstate()


# ---------------------------------------------------------------------------
# Construction helpers and serialization.
# ---------------------------------------------------------------------------


def test_element_pads_ideal_coordinates():
    ring = SquareZeroRing(3)
    assert ring.element(1, [2]) == ring.element(1, [2, 0, 0])
    with pytest.raises(ValueError):
        ring.element(0, [1, 1, 1, 1])


def test_generator_and_promote():
    ring = SquareZeroRing(2)
    eps = ring.generator(1)
    assert eps.in_ideal() and eps.ideal == (0, 1)
    assert ring.promote(RATIONALS.element("2/7")) == ring.element("2/7")
    with pytest.raises(ValueError):
        ring.generator(2)


def test_mismatched_ranks_rejected():
    with pytest.raises(ValueError):
        SquareZeroRing(1).one() + SquareZeroRing(2).one()


@settings(max_examples=80)
@given(st.integers(0, 3).flatmap(elements))
def test_element_json_round_trip(x):
    ring = SquareZeroRing(len(x.ideal))
    doc = element_to_json(x)
    if x.ideal:
        assert isinstance(doc, list)
    else:
        assert isinstance(doc, str)
    assert element_from_json(doc, ring) == x


@pytest.mark.parametrize("text, value", [
    ("7", Fraction(7)), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
    (5, Fraction(5))])
def test_rational_from_str_reads_p_and_p_over_q(text, value):
    """One scalar, read as a ring element over Q."""
    assert element_from_json(text, RATIONALS) == RATIONALS.element(value)


@pytest.mark.parametrize("text", [
    "1e999999", "1.5", " 1", "1 ", "1_0", "+1", "1/-2", "", "/2", "\u0663",
    "1" * 5000, "1/0", 0.5, True, None])
def test_rational_from_str_rejects_other_text(text):
    with pytest.raises(ValueError):
        element_from_json(text, RATIONALS)


def test_random_element_lands_in_ring():
    ring = SquareZeroRing(2)
    rng = random.Random(5)
    for x in random_elements(ring, rng, 20):
        assert len(x.nums) == ring.ideal_rank + 1
    assert all(y.in_ideal()
               for y in random_elements(ring, rng, 5, ideal_only=True))


def test_module_doctest_passes():
    failed, attempted = doctest.testmod(dgnerve.rings)
    assert attempted > 0
    assert failed == 0


def test_constants_are_shared_per_ring():
    ring = SquareZeroRing(2)
    assert ring.zero() is ring.zero() and ring.one() is ring.one()
    assert ring.zero() == ring.element(0) and ring.one() == ring.element(1)
    assert SquareZeroRing(2) == ring and hash(SquareZeroRing(2)) == hash(ring)
