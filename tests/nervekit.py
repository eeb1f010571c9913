"""Constructions that only the tests use: basis morphisms, the
directed-interval category, identity simplices, the sixteen candidate sign
patterns, a simplex read backwards in the opposite category, the reduction
of a filler mod the ideal, a cochain's component with absent sequences
read as zero, a hom differential as a dense matrix, and the kernel of a
matrix given as rows of ring elements, random ring elements, and the
frozen-dataclass ``Morphism`` that the int-vector one replaced.
"""

import itertools
import math
from dataclasses import dataclass

from dgnerve.dgcat import DgCategory, Morphism
from dgnerve.glin import nullspace
from dgnerve.horn import Filler, _op_cells
from dgnerve.mc import reduce_morphism
from dgnerve.nerve import (NerveCochain, NerveSimplex, SignPattern,
                           increasing_sequences)
from dgnerve.rings import (RingElement, SquareZeroRing, from_layers,
                           random_layers, split_layers)


def basis_morphism(cat, source, target, degree, index):
    """The basis element e_index of ``hom(source, target)_degree``."""
    n = cat.rank(source, target, degree)
    if not 0 <= index < n:
        raise ValueError("basis index out of range")
    coords = [cat.ring.zero()] * n
    coords[index] = cat.ring.one()
    return Morphism(source, target, degree, tuple(coords))


def all_sign_patterns():
    return [SignPattern(*bits) for bits in itertools.product((0, 1), repeat=4)]


def identity_simplex(cat, obj, n):
    """All vertices at ``obj``, identity edges, zero higher cells."""
    cells = {}
    for seq in increasing_sequences(n):
        k = len(seq) - 1
        cells[seq] = cat.identity(obj) if k == 1 else cat.zero(obj, obj, 1 - k)
    return NerveSimplex((obj,) * (n + 1), cells)


def interval_category(n, ring=None):
    """The directed-interval dg-category on objects 0 … n.

    One degree-0 generator e_ij for each i ≤ j, zero differential, and
    e_jk ∘ e_ij = e_ik.  Simplices of the nerve of a dg-category are
    exactly strictly-unital weak functors out of this category.
    """
    ring = ring or SquareZeroRing(0)
    names = tuple(str(i) for i in range(n + 1))
    ranks = {}
    comps = {}
    identities = {}
    one = ring.one()
    for i in range(n + 1):
        for j in range(i, n + 1):
            ranks[(names[i], names[j], 0)] = 1
        identities[names[i]] = (one,)
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                comps[(names[i], names[j], names[k], 0, 0)] = \
                    {(0, 0): ((0, one),)}
    return DgCategory(ring=ring, objects=names, ranks=ranks, diffs={},
                      comps=comps, identities=identities)


def opposite_simplex(simplex):
    """The same simplex read backwards in the opposite category.

    Vertices map by i ↦ n−i; a bar-length-k cell picks up the sign
    (−1)^{k(k+1)/2+1}, which makes all residuals transport on the nose.
    Involutive.
    """
    return NerveSimplex(tuple(reversed(simplex.objects)),
                        _op_cells(simplex.n, simplex.cells))


def reduce_filler(filler):
    return Filler(filler.n, filler.k,
                  reduce_morphism(filler.top), reduce_morphism(filler.face))


def component(cat, cochain, seq):
    """The cochain's morphism at ``seq``, zero when none is stored."""
    seq = tuple(seq)
    stored = cochain.components.get(seq)
    if stored is not None:
        return stored
    return cat.zero(cochain.source.objects[seq[0]],
                    cochain.target.objects[seq[-1]],
                    cochain.degree - (len(seq) - 1))


def dense_differential(cat, source, target, degree):
    """The differential hom_degree → hom_{degree+1} as a dense matrix."""
    rows = cat.rank(source, target, degree + 1)
    mat = [[cat.ring.zero()] * cat.rank(source, target, degree)
           for _ in range(rows)]
    for j, entries in cat.diffs.get((source, target, degree), {}).items():
        for i, a in entries:
            mat[i][j] = a
    return mat


def layer_array(rows, ring):
    """The rows as a ``LayerSum`` holds them: column-major int layers, the
    first ``ring.ideal_rank + 1`` of each entry, over one denominator that
    every entry shares."""
    entries = [e for row in rows for e in row]
    den, w = math.lcm(1, *[e.den for e in entries]), ring.ideal_rank + 1
    num = [0] * (len(entries) * w)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            for layer, v in enumerate(e.nums[:w]):
                num[(j * len(rows) + i) * w + layer] = v * (den // e.den)
    return num


def kernel(matrix, ring):
    """``glin.nullspace`` of A given as rows of ring elements."""
    return nullspace(layer_array(matrix, ring), len(matrix),
                     len(matrix[0]) if matrix else 0, ring)


@dataclass(frozen=True)
class OldMorphism:
    """``dgcat.Morphism`` as it was before it held one int vector: a frozen
    dataclass over a tuple of ring elements, each in lowest terms on its
    own.  It keeps the name ``Morphism`` so that its repr is the old one."""

    __qualname__ = "Morphism"

    source: str
    target: str
    degree: int
    coords: tuple[RingElement, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def in_ideal(self) -> bool:
        return all(c.in_ideal() for c in self.coords)


def random_elements(ring, rng, count, **draws):
    """``count`` random elements of ``ring``, drawn as
    ``rings.random_layers`` draws their layers."""
    return split_layers(*random_layers(ring, rng, count, **draws),
                        ring.ideal_rank + 1)


def old_degeneracy(cat, simplex, i):
    """``nerve.degeneracy`` as it looked every cell up through the sorted
    set of its collapsed vertices."""
    n = simplex.n
    if not 0 <= i <= n:
        raise ValueError("degeneracy index out of range")
    objects = simplex.objects[:i + 1] + simplex.objects[i:]

    def collapse(v):
        return v if v <= i else v - 1

    cells = {}
    for seq in increasing_sequences(n + 1):
        k = len(seq) - 1
        if i in seq and i + 1 in seq:
            if seq == (i, i + 1):
                cells[seq] = cat.identity(simplex.objects[i])
            else:
                cells[seq] = cat.zero(objects[seq[0]], objects[seq[-1]], 1 - k)
            continue
        image = tuple(sorted({collapse(v) for v in seq}))
        cells[seq] = simplex.cell(image)
    return NerveSimplex(objects, cells)


def old_random_morphism(cat, source, target, degree, rng, *,
                        ideal_noise=True, ideal_only=False):
    """``DgCategory.random_morphism`` as it drew each coordinate through
    ``randint`` pairs and one ``lcm`` over them."""
    def draw():
        return rng.randint(-2, 2), rng.randint(1, 2)

    def element():
        pairs = [(0, 1) if ideal_only else draw()]
        pairs += [draw() if ideal_noise or ideal_only else (0, 1)
                  for _ in range(cat.ring.ideal_rank)]
        den = math.lcm(*[q for _, q in pairs])
        return from_layers([p * (den // q) for p, q in pairs], den)
    return Morphism(source, target, degree,
                    tuple(element() for _ in range(
                        cat.rank(source, target, degree))))


def old_random_cochain(cat, rng, source, target, degree):
    """``laws.random_cochain`` on :func:`old_random_morphism`."""
    components = {}
    for seq in increasing_sequences(source.n):
        k = len(seq) - 1
        morphism = old_random_morphism(cat, source.objects[seq[0]],
                                       target.objects[seq[-1]], degree - k,
                                       rng)
        if not morphism.is_zero():
            components[seq] = morphism
    return NerveCochain(source, target, degree, components)
