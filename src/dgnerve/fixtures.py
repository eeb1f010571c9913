"""Small exactly-presented dg-categories used by tests and CLI defaults.

Every fixture is deterministic (randomized ones take an explicit seed) and
passes ``check_axioms``.  The stable of fixtures covers the interesting
regimes: a one-object category with a degree −1 exterior generator, acyclic
and non-acyclic complex categories, a Maurer-Cartan-twisted category, and
seeded pseudo-random complex categories with conjugated differentials.
"""

from __future__ import annotations

import functools
import random
from typing import Callable

from .dgcat import (DgCategory, make_complex_category, complex_from_dense,
                    random_complex)
from .mc import check_mc, twist
from .rings import RATIONALS, SquareZeroRing


def exterior_category(ring: SquareZeroRing = RATIONALS) -> DgCategory:
    """One object, endomorphisms spanned by 1 (degree 0) and e (degree −1),
    with e∘e = 0 and zero differential."""
    one = ring.one()
    obj = "P"
    ranks = {(obj, obj, 0): 1, (obj, obj, -1): 1}
    comps = {
        (obj, obj, obj, 0, 0): {(0, 0): ((0, one),)},
        (obj, obj, obj, 0, -1): {(0, 0): ((0, one),)},
        (obj, obj, obj, -1, 0): {(0, 0): ((0, one),)},
    }
    return DgCategory(ring=ring, objects=(obj,), ranks=ranks, diffs={},
                      comps=comps, identities={obj: (one,)})


def two_term_category(ring: SquareZeroRing = RATIONALS) -> DgCategory:
    """The endomorphism category of the acyclic complex Q --1--> Q."""
    cx = complex_from_dense(ring, {0: 1, 1: 1}, {0: [[1]]})
    return make_complex_category([cx])


def three_term_category(ring: SquareZeroRing = RATIONALS) -> DgCategory:
    """The endomorphism category of Q --0--> Q --1--> Q.

    Its degree-1 endomorphisms form a 2-dimensional space on which the
    Maurer-Cartan equation cuts out a genuinely quadratic variety, making
    it the fixture of choice for twisting and MC-mutation tests.
    """
    cx = complex_from_dense(ring, {0: 1, 1: 1, 2: 1}, {1: [[1]]})
    return make_complex_category([cx])


def mc_twisted_category(ring: SquareZeroRing = RATIONALS) -> DgCategory:
    """The three-term category twisted by a nonzero MC endomorphism."""
    cat = three_term_category(ring)
    eta = cat.morphism("C0", "C0", 1, [0, 1])
    if check_mc(cat, eta):
        raise RuntimeError("fixture MC element no longer satisfies MC; "
                           "hom-basis ordering changed?")
    return twist(cat, {"C0": eta})


def random_complex_category(seed: int = 0,
                            ring: SquareZeroRing = RATIONALS) -> DgCategory:
    """Three random complexes (total dimension 8) with generic-looking,
    exactly square-zero differentials; deterministic in ``seed``."""
    rng = random.Random(0x5EED ^ (seed * 2_654_435_761 % 2 ** 31))
    complexes = [random_complex(ring, rng, total_dim=size)
                 for size in (3, 3, 2)]
    return make_complex_category(complexes, names=("A", "B", "C"))


# Fixture name → builder, in the stable's deterministic order.  Callers
# build only the fixtures they name.
FIXTURES: dict[str, Callable[[], DgCategory]] = {
    "exterior": exterior_category,
    "two_term": two_term_category,
    "three_term": three_term_category,
    "twisted": mc_twisted_category,
    "complexes_a": functools.partial(random_complex_category, 11),
    "complexes_b": functools.partial(random_complex_category, 23),
}


def standard_fixtures() -> list[tuple[str, DgCategory]]:
    """The named fixture stable, in deterministic order."""
    return [(name, build()) for name, build in FIXTURES.items()]
