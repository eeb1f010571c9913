"""Linear combinations of morphisms, and the degrees of hom blocks, for
the tests.

``Morphism`` is a plain value: the package adds, negates and scales
morphisms only in ``dgcat.MorphismSum``.  Several tests check that code
against oracles written on their own, so :func:`lin` does its arithmetic
coordinate by coordinate with ``RingElement`` operations and never calls
``MorphismSum``.
"""

import functools
import operator

from dgnerve.dgcat import Morphism


def lin(*terms):
    """Σ c·f over the ``(c, f)`` pairs, which must share one hom block.
    A coefficient is an int, a ``Fraction``, a ``RingElement`` or a float
    (read exactly, as ``RingElement`` arithmetic reads it)."""
    shapes = {(f.source, f.target, f.degree, len(f.coords)) for _, f in terms}
    if len(shapes) != 1:
        raise ValueError(f"morphisms of different shapes: {sorted(shapes)}")
    (source, target, degree, _), = shapes
    rows = [[x * c for x in f.coords] for c, f in terms]
    return Morphism(source, target, degree,
                    tuple(functools.reduce(operator.add, column)
                          for column in zip(*rows)))


def degrees(cat, source, target):
    """The degrees of the nonzero hom blocks from ``source`` to ``target``."""
    return sorted(t for (x, y, t), r in cat.ranks.items()
                  if x == source and y == target and r > 0)
