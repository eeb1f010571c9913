"""Exact arithmetic in square-zero extensions Q ⊕ I.

The multiplication law is cross-checked against an independent oracle: the
truncated polynomial ring Q[t₁,…,t_m]/(monomials of total degree ≥ 2),
implemented below on raw monomial dictionaries with no reference to
``RingElement`` arithmetic.
"""

import doctest
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgnerve.rings
from dgnerve.rings import (
    NotAUnit,
    RATIONALS,
    RingElement,
    SquareZeroRing,
    element_from_json,
    element_to_json,
    invert,
    random_element,
    rational_from_str,
    reduce_mod_ideal,
)

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


def test_invert_hand_values():
    ring = SquareZeroRing(1)
    assert invert(ring.element(1, [1])) == ring.element(1, [-1])
    assert invert(RATIONALS.element(2)) == RATIONALS.element("1/2")


def test_invert_multiplies_back():
    ring = SquareZeroRing(1)
    x = ring.element(3, [2])
    assert invert(x) * x == ring.one()


def test_not_a_unit():
    ring = SquareZeroRing(2)
    with pytest.raises(NotAUnit):
        invert(ring.element(0, [1, 0]))
    with pytest.raises(NotAUnit):
        invert(ring.zero())


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


@settings(max_examples=80)
@given(st.integers(0, 3).flatmap(elements))
def test_invert_units(x):
    ring = SquareZeroRing(len(x.ideal))
    if x.body == 0:
        with pytest.raises(NotAUnit):
            invert(x)
    else:
        assert invert(x) * x == ring.one()
        assert invert(invert(x)) == x


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
    ("7", Fraction(7)), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2))])
def test_rational_from_str_reads_p_and_p_over_q(text, value):
    assert rational_from_str(text) == value


@pytest.mark.parametrize("text", [
    "1e999999", "1.5", " 1", "1 ", "1_0", "+1", "1/-2", "", "/2", "\u0663",
    "1" * 5000, "1/0", 5])
def test_rational_from_str_rejects_other_text(text):
    with pytest.raises(ValueError):
        rational_from_str(text)


def test_random_element_lands_in_ring():
    ring = SquareZeroRing(2)
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(ring, rng)
        assert ring.contains(x)
    y = random_element(ring, rng, ideal_only=True)
    assert y.in_ideal()


def test_module_doctest_passes():
    failed, attempted = doctest.testmod(dgnerve.rings)
    assert attempted > 0
    assert failed == 0


def test_constants_are_shared_per_ring():
    ring = SquareZeroRing(2)
    assert ring.zero() is ring.zero() and ring.one() is ring.one()
    assert ring.zero() == ring.element(0) and ring.one() == ring.element(1)
    assert SquareZeroRing(2) == ring and hash(SquareZeroRing(2)) == hash(ring)
