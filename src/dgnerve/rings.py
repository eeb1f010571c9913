"""Exact arithmetic in square-zero extensions of the rationals.

This module is the scalar layer for the whole package.  A *square-zero
extension* is the ring ``B = Q ⊕ I`` where the ideal ``I`` is a free
Q-module of finite rank ``m`` with generators ``ε₁, …, ε_m`` and every
product of two ideal elements vanishes (``I² = 0``).  Elements are stored
as a rational *body* plus a tuple of rational ideal coordinates::

    x = body + ideal[0]·ε₁ + … + ideal[m-1]·ε_m

so multiplication truncates all ε·ε terms,

    (b + v)·(b′ + v′) = b·b′ + (b·v′ + b′·v),

and an element is a unit exactly when its body is nonzero,

    (b + v)⁻¹ = b⁻¹ − b⁻²·v.

The rank-0 ring is plain Q; quotienting by the ideal is just dropping the
ideal coordinates.

>>> B = SquareZeroRing(1)
>>> x = B.element(2, [5])
>>> x * x == B.element(4, [20])
True
>>> x * invert(x) == B.one()
True
>>> reduce_mod_ideal(x).body
Fraction(2, 1)
>>> invert(B.element(0, [1]))
Traceback (most recent call last):
    ...
dgnerve.rings.NotAUnit: element with body 0 is not invertible
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction, "RingElement"]


class NotAUnit(ArithmeticError):
    """Raised when inverting an element whose body vanishes."""


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, ``"p/q"`` strings, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class RingElement:
    """One element of a square-zero extension: body + ideal coordinates."""

    body: Fraction
    ideal: tuple[Fraction, ...] = ()

    # -- helpers -----------------------------------------------------------

    @property
    def ideal_rank(self) -> int:
        return len(self.ideal)

    def is_zero(self) -> bool:
        return self.body == 0 and all(c == 0 for c in self.ideal)

    def in_ideal(self) -> bool:
        """True when the element lies in the square-zero ideal (body 0)."""
        return self.body == 0

    def _coerce(self, other: Scalar) -> "RingElement":
        if isinstance(other, RingElement):
            if len(other.ideal) != len(self.ideal):
                raise ValueError("ring elements of different ideal rank")
            return other
        zero = Fraction(0)
        return RingElement(as_rational(other), (zero,) * len(self.ideal))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Scalar) -> "RingElement":
        o = self._coerce(other)
        return RingElement(self.body + o.body,
                           tuple(a + b for a, b in zip(self.ideal, o.ideal)))

    __radd__ = __add__

    def __neg__(self) -> "RingElement":
        return RingElement(-self.body, tuple(-a for a in self.ideal))

    def __sub__(self, other: Scalar) -> "RingElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "RingElement":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "RingElement":
        o = self._coerce(other)
        body = self.body * o.body
        ideal = tuple(self.body * b + o.body * a
                      for a, b in zip(self.ideal, o.ideal))
        return RingElement(body, ideal)

    __rmul__ = __mul__

    def invert(self) -> "RingElement":
        if self.body == 0:
            raise NotAUnit("element with body 0 is not invertible")
        inv = 1 / self.body
        return RingElement(inv, tuple(-c * inv * inv for c in self.ideal))


def invert(x: RingElement) -> RingElement:
    """Multiplicative inverse; raises :class:`NotAUnit` if the body is 0."""
    return x.invert()


def reduce_mod_ideal(x: RingElement) -> RingElement:
    """Image of ``x`` in the quotient ``B/I``, i.e. the rank-0 ring."""
    return RingElement(x.body, ())


@dataclass(frozen=True)
class SquareZeroRing:
    """The ring ``Q ⊕ I`` with ``I ≅ Q^ideal_rank`` and ``I² = 0``."""

    ideal_rank: int = 0

    def __post_init__(self) -> None:
        if self.ideal_rank < 0:
            raise ValueError("ideal rank must be non-negative")

    # RingElement is frozen, so each ring shares one instance of each
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
        coords = tuple(as_rational(c) for c in ideal)
        if len(coords) > self.ideal_rank:
            raise ValueError("too many ideal coordinates for this ring")
        pad = (Fraction(0),) * (self.ideal_rank - len(coords))
        return RingElement(as_rational(body), coords + pad)

    def zero(self) -> RingElement:
        return self._zero

    def one(self) -> RingElement:
        return self._one

    def from_rational(self, q: int | str | Fraction) -> RingElement:
        return self.element(q)

    def generator(self, index: int) -> RingElement:
        """The ideal generator ε_{index+1}."""
        if not 0 <= index < self.ideal_rank:
            raise ValueError("no such ideal generator")
        coords = [Fraction(0)] * self.ideal_rank
        coords[index] = Fraction(1)
        return RingElement(Fraction(0), tuple(coords))

    # -- structure maps ----------------------------------------------------

    def contains(self, x: RingElement) -> bool:
        return len(x.ideal) == self.ideal_rank

    def promote(self, x: RingElement) -> RingElement:
        """Embed an element of the rank-0 ring along ``Q → B``."""
        if x.ideal:
            raise ValueError("can only promote rank-0 elements")
        return self.element(x.body)

    def reduce(self, x: RingElement) -> RingElement:
        if not self.contains(x):
            raise ValueError("element does not belong to this ring")
        return reduce_mod_ideal(x)

    def base(self) -> "SquareZeroRing":
        return SquareZeroRing(0)


RATIONALS = SquareZeroRing(0)


def random_rational(rng: random.Random, *, span: int = 2,
                    max_denominator: int = 2) -> Fraction:
    """A small random rational, kept tiny so exact arithmetic stays fast."""
    return Fraction(rng.randint(-span, span), rng.randint(1, max_denominator))


def random_element(ring: SquareZeroRing, rng: random.Random, *,
                   span: int = 2, max_denominator: int = 2,
                   ideal_noise: bool = True,
                   ideal_only: bool = False) -> RingElement:
    """A random element of ``ring`` with small numerators and denominators."""
    body = Fraction(0) if ideal_only else random_rational(
        rng, span=span, max_denominator=max_denominator)
    if ideal_noise or ideal_only:
        ideal = tuple(random_rational(rng, span=span,
                                      max_denominator=max_denominator)
                      for _ in range(ring.ideal_rank))
    else:
        ideal = (Fraction(0),) * ring.ideal_rank
    return RingElement(body, ideal)


# -- serialization ----------------------------------------------------------

def rational_to_str(q: Fraction) -> str:
    return str(q)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational_from_str(s: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` in plain decimal digits; any other text
    (``"1.5"``, ``"1e999999"``, ``" 1"``, a non-string), ``"1/0"``, and
    digit strings past Python's int-parsing cap are a ValueError."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a rational \"p\" or \"p/q\": {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def element_to_json(x: RingElement) -> str | list[str]:
    """Canonical JSON form: a bare string over Q, a list over larger rings."""
    if not x.ideal:
        return rational_to_str(x.body)
    return [rational_to_str(x.body)] + [rational_to_str(c) for c in x.ideal]


def element_from_json(doc: str | Sequence[str], ring: SquareZeroRing) -> RingElement:
    if isinstance(doc, str):
        return ring.element(rational_from_str(doc))
    if not doc:
        raise ValueError("empty ring-element document")
    body, *ideal = doc
    if len(ideal) != ring.ideal_rank:
        raise ValueError(
            f"ring element has {len(ideal)} ideal coordinates, "
            f"expected {ring.ideal_rank}")
    return ring.element(rational_from_str(body),
                        [rational_from_str(c) for c in ideal])
