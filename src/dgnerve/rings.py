"""Exact arithmetic in square-zero extensions of the rationals.

This module is the scalar layer for the whole package.  A *square-zero
extension* is the ring ``B = Q ⊕ I`` where the ideal ``I`` is a free
Q-module of finite rank ``m`` with generators ``ε₁, …, ε_m`` and every
product of two ideal elements vanishes (``I² = 0``).  Elements are stored
as integer layers over one denominator, in lowest terms::

    x = (nums[0] + nums[1]·ε₁ + … + nums[m]·ε_m) / den = body + Σ ideal·ε

with ``den > 0`` and ``gcd(den, *nums) == 1`` (zero is ``((0, …), 1)``), so
equal elements are stored alike and arithmetic runs on ints.  ``body`` and
``ideal`` read the layers as ``Fraction``s.  Multiplication truncates all
ε·ε terms,

    (b + v)·(b′ + v′) = b·b′ + (b·v′ + b′·v).

The rank-0 ring is plain Q; quotienting by the ideal is just dropping the
ideal layers.

>>> B = SquareZeroRing(1)
>>> x = B.element(2, [5])
>>> x * x == B.element(4, [20])
True
>>> reduce_mod_ideal(x).body
Fraction(2, 1)
>>> B.element("1/2", ["1/3"]).nums, B.element("1/2", ["1/3"]).den
((3, 2), 6)
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, "RingElement"]


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, ``"p/q"`` strings, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class RingElement:
    """One element of a square-zero extension: the integer layers ``nums``
    (body first) over the denominator ``den``, in lowest terms.  Treated as
    immutable, like ``Fraction``; ``RingElement(body, ideal)`` builds one
    from rationals, :func:`from_layers` from ints."""

    __slots__ = ("nums", "den")

    def __init__(self, body: int | str | Fraction,
                 ideal: Iterable[int | str | Fraction] = ()) -> None:
        qs = [as_rational(body), *map(as_rational, ideal)]
        self.den = lcm(*[q.denominator for q in qs])
        self.nums = tuple(q.numerator * (self.den // q.denominator)
                          for q in qs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"RingElement(body={self.body!r}, ideal={self.ideal!r})"

    # -- helpers -----------------------------------------------------------

    @property
    def body(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def ideal(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums[1:])

    def is_zero(self) -> bool:
        return not any(self.nums)

    def in_ideal(self) -> bool:
        """True when the element lies in the square-zero ideal (body 0)."""
        return self.nums[0] == 0

    def _coerce(self, other: Scalar) -> "RingElement":
        if isinstance(other, RingElement):
            if len(other.nums) != len(self.nums):
                raise ValueError("ring elements of different ideal rank")
            return other
        return RingElement(other, (0,) * (len(self.nums) - 1))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Scalar) -> "RingElement":
        o = self._coerce(other)
        a, b = self.den, o.den
        return from_layers([x * b + y * a for x, y in zip(self.nums, o.nums)],
                           a * b)

    __radd__ = __add__

    def __neg__(self) -> "RingElement":
        return from_layers([-v for v in self.nums], self.den)

    def __mul__(self, other: Scalar) -> "RingElement":
        o = self._coerce(other)
        a, c = self.nums, o.nums
        a0, c0 = a[0], c[0]                   # ε·ε terms vanish
        nums = [a0 * c0]
        if len(a) > 1:                        # Q alone has one layer
            for al, cl in zip(a[1:], c[1:]):
                nums.append(a0 * cl + al * c0)
        return from_layers(nums, self.den * o.den)

    __rmul__ = __mul__


def lowest_terms(nums: Sequence[int],
                 den: int) -> tuple[tuple[int, ...], int]:
    """``nums`` over a nonzero ``den`` in lowest terms, with ``den > 0``."""
    g = gcd(den, *nums) * (-1 if den < 0 else 1)
    return (tuple(v // g for v in nums) if g != 1 else tuple(nums)), den // g


def from_layers(nums: Sequence[int], den: int) -> RingElement:
    """The element ``(nums[0] + Σ_k nums[k]·ε_k) / den`` for a nonzero
    ``den``, brought to lowest terms with a positive denominator."""
    x = object.__new__(RingElement)
    x.nums, x.den = lowest_terms(nums, den)
    return x


def split_layers(nums: Sequence[int], den: int,
                 width: int) -> tuple[RingElement, ...]:
    """The elements ``nums[i·width:(i + 1)·width] / den``, one per ``width``
    ints, each in lowest terms."""
    return tuple(from_layers(nums[i:i + width], den)
                 for i in range(0, len(nums), width))


def reduce_mod_ideal(x: RingElement) -> RingElement:
    """Image of ``x`` in the quotient ``B/I``, i.e. the rank-0 ring."""
    return from_layers(x.nums[:1], x.den)


@dataclass(frozen=True)
class SquareZeroRing:
    """The ring ``Q ⊕ I`` with ``I ≅ Q^ideal_rank`` and ``I² = 0``."""

    ideal_rank: int = 0

    def __post_init__(self) -> None:
        if self.ideal_rank < 0:
            raise ValueError("ideal rank must be non-negative")

    # RingElements are not mutated, so each ring shares one instance of each
    # constant.  They are made on first use, not with the ring: a ring read
    # from a document may be too large to pad out before it is validated.
    @functools.cached_property
    def _zero(self) -> RingElement:
        return self.element(0)

    @functools.cached_property
    def _one(self) -> RingElement:
        return self.element(1)

    # -- constructors ------------------------------------------------------

    def element(self,
                body: int | str | Fraction,
                ideal: Iterable[int | str | Fraction] = ()) -> RingElement:
        coords = tuple(ideal)
        if len(coords) > self.ideal_rank:
            raise ValueError("too many ideal coordinates for this ring")
        pad = (0,) * (self.ideal_rank - len(coords))
        return RingElement(body, coords + pad)

    def zero(self) -> RingElement:
        return self._zero

    def one(self) -> RingElement:
        return self._one

    def generator(self, index: int) -> RingElement:
        """The ideal generator ε_{index+1}."""
        if not 0 <= index < self.ideal_rank:
            raise ValueError("no such ideal generator")
        return from_layers([int(k == index + 1)
                            for k in range(self.ideal_rank + 1)], 1)

    # -- structure maps ----------------------------------------------------

    def promote(self, x: RingElement) -> RingElement:
        """Embed an element of the rank-0 ring along ``Q → B``."""
        if len(x.nums) != 1:
            raise ValueError("can only promote rank-0 elements")
        return from_layers(x.nums + (0,) * self.ideal_rank, x.den)


RATIONALS = SquareZeroRing(0)


def random_layers(ring: SquareZeroRing, rng: random.Random, count: int, *,
                  span: int = 2, max_denominator: int = 2,
                  ideal_noise: bool = True,
                  ideal_only: bool = False) -> tuple[list[int], int]:
    """The layers of ``count`` random elements of ``ring``, one element
    after another, over the lcm of the drawn denominators (not reduced).
    Each drawn layer is ``p/q`` with ``|p| ≤ span`` and ``1 ≤ q ≤
    max_denominator``, ``p`` first: the body unless ``ideal_only``, then
    the ideal layers if ``ideal_noise`` or ``ideal_only``; 0 where not
    drawn."""
    draw, lo, hi, top = rng.randrange, -span, span + 1, max_denominator + 1
    drawn = ring.ideal_rank if ideal_noise or ideal_only else 0
    pad = ((0, 1),) * (ring.ideal_rank - drawn)
    pairs: list[tuple[int, int]] = []
    for _ in range(count):
        pairs.append((0, 1) if ideal_only else (draw(lo, hi), draw(1, top)))
        pairs += [(draw(lo, hi), draw(1, top)) for _ in range(drawn)]
        pairs += pad
    den = lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den
