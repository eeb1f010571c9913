"""Maurer-Cartan elements, twisting, and base change along ring maps.

An MC element at an object ``X`` is a degree-1 endomorphism η with

    d(η) + η∘η = 0.

Twisting a category by a family ``{X: η_X}`` (missing objects twist by 0)
replaces every differential by

    d_tw(f) = d(f) + η_target∘f − (−1)^{|f|} f∘η_source,

which keeps the Leibniz rule and the strict units and squares to zero
exactly when every η satisfies the MC equation — d_tw²(f) equals the
commutator of the MC defects against f, which is what the mutation tests
in the suite exploit.

Base change: :func:`tensor_with_ring` extends scalars from Q to a
square-zero extension, and :func:`reduce_category` takes the quotient by
the ideal; twisting commutes with reduction.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping

from .dgcat import (DgCategory, LayerSum, Morphism, MorphismSum, SparseCols,
                    Violation)
from .rings import RATIONALS, SquareZeroRing, reduce_mod_ideal


class InvalidMCObject(ValueError):
    """Raised when twisting by an element that fails the MC equation."""


# -- base change ---------------------------------------------------------------

def _map_entries(entries, fn):
    return tuple((i, fn(c)) for i, c in entries)


def _map_category(cat: DgCategory, ring: SquareZeroRing, fn) -> DgCategory:
    diffs: dict = {}
    for key, cols in cat.diffs.items():
        diffs[key] = {j: _map_entries(e, fn) for j, e in cols.items()}
    comps: dict = {}
    for key, tensor in cat.comps.items():
        comps[key] = {ij: _map_entries(e, fn) for ij, e in tensor.items()}
    identities = {x: tuple(fn(c) for c in coords)
                  for x, coords in cat.identities.items()}
    return DgCategory(ring=ring, objects=cat.objects, ranks=dict(cat.ranks),
                      diffs=diffs, comps=comps, identities=identities)


def tensor_with_ring(cat: DgCategory, ring: SquareZeroRing) -> DgCategory:
    """Extend scalars of a category over Q to a square-zero extension."""
    if cat.ring.ideal_rank != 0:
        raise ValueError("can only extend scalars from the rank-0 ring")
    return _map_category(cat, ring, ring.promote)


def reduce_category(cat: DgCategory) -> DgCategory:
    """Quotient all structure constants by the square-zero ideal."""
    return _map_category(cat, RATIONALS, reduce_mod_ideal)


def reduce_morphism(f: Morphism) -> Morphism:
    """``f`` with its ideal layers dropped: its image over Q."""
    return Morphism.from_layers(f.source, f.target, f.degree, f.rank,
                                f.nums[::f.width], f.den)


def promote_morphism(cat: DgCategory, f: Morphism) -> Morphism:
    """Lift a rank-0 morphism into ``cat``'s ring with zero ideal part."""
    if f.width != 1:
        raise ValueError("can only promote rank-0 elements")
    pad = (0,) * cat.ring.ideal_rank
    return Morphism.from_layers(f.source, f.target, f.degree, f.rank,
                                [u for v in f.nums for u in (v, *pad)], f.den)


# -- the MC equation -----------------------------------------------------------

def mc_defect(cat: DgCategory, eta: Morphism) -> Morphism:
    """The failure d(η) + η∘η of the MC equation."""
    return MorphismSum(cat, eta.source, eta.target, eta.degree + 1) \
        .add_differential(eta).add_compose(eta, eta).result()


def check_mc(cat: DgCategory, eta: Morphism) -> list[Violation]:
    """Violations of 'η is an MC element' (empty report = valid)."""
    if eta.source != eta.target:
        return [Violation("mc_not_endomorphism", (eta.source, eta.target),
                          "MC elements are endomorphisms")]
    if eta.degree != 1:
        return [Violation("mc_degree", (eta.source, eta.degree),
                          "MC elements have degree 1")]
    if not mc_defect(cat, eta).is_zero():
        return [Violation("mc_equation", (eta.source,),
                          "d(η) + η∘η is nonzero")]
    return []


def twist(cat: DgCategory, elements: Mapping[str, Morphism], *,
          validate: bool = True) -> DgCategory:
    """The category with differentials twisted by the given MC family.

    Composition and units are untouched.  With ``validate`` (the default)
    each element must pass :func:`check_mc`; ``validate=False`` exists so
    the test suite can observe how invalid data breaks d² = 0.
    """
    for obj, eta in elements.items():
        if obj not in cat.identities:
            raise InvalidMCObject(f"unknown object {obj!r}")
        if eta.source != obj or eta.target != obj or eta.degree != 1:
            raise InvalidMCObject(
                f"MC element at {obj!r} must be a degree-1 endomorphism")
        if validate and check_mc(cat, eta):
            raise InvalidMCObject(f"MC equation fails at {obj!r}")

    diffs: dict[tuple[str, str, int], SparseCols] = {}
    for (x, y, t), n in sorted(cat.ranks.items()):
        m = cat.rank(x, y, t + 1)
        image = LayerSum(n * m, cat.ring.ideal_rank + 1)  # column j at j·m
        image.add_block(cat.diffs, (x, y, t), None, 0, (m, n), m, 1)
        if y in elements:                                  # η_target∘f
            image.add_block(cat.comps, (x, y, y, t, 1), elements[y], 0,
                            (m, n), m, 1)
        if x in elements:                                  # −(−1)^t f∘η_source
            image.add_block(cat.comps, (x, x, y, 1, t), elements[x], 1,
                            (m, n), m, 1 if t % 2 else -1)
        cols = {j: tuple((k - j * m, c) for k, c in terms)
                for j, terms in itertools.groupby(image.nonzero().items(),
                                                  lambda kc: kc[0] // m)}
        if cols:
            diffs[(x, y, t)] = cols

    return DgCategory(ring=cat.ring, objects=cat.objects,
                      ranks=dict(cat.ranks), diffs=diffs,
                      comps=dict(cat.comps), identities=dict(cat.identities))


# -- sampling ------------------------------------------------------------------

def random_mc_element(cat: DgCategory, obj: str,
                      rng: random.Random) -> Morphism:
    """A random MC element at ``obj``.

    Over a square-zero extension any element whose coordinates lie in the
    ideal and whose layers are body-differential cycles is MC (the square
    dies in I²) — a linear condition.  Over Q the equation is genuinely
    quadratic, so cycles are rejection-sampled for a vanishing square.
    Falls back to 0 (always MC) when sampling finds nothing.
    """
    m = cat.ring.ideal_rank
    basis = cat.cycle_basis(obj, obj, 1, RATIONALS)
    # a draw adds up weights in −2…2 times the ε_l·v over Q ⊕ I (l = 1 … m:
    # v's ints in layer l), or times the v over Q, for the body cycles v
    vecs = [Morphism.from_layers(obj, obj, 1, v.rank, [
        c if k == layer else 0 for c in v.nums for k in range(m + 1)], v.den)
        for layer in range(1, m + 1) for v in basis] if m else basis
    for _ in range(8 if m else 12):
        draw = MorphismSum(cat, obj, obj, 1)
        for vec in vecs:
            if weight := rng.randint(-2, 2):
                draw.add(vec, weight)
        candidate = draw.result()
        if not check_mc(cat, candidate):
            return candidate
    return cat.zero(obj, obj, 1)
