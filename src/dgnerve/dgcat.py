"""Finite dg-categories with exact structure constants.

A :class:`DgCategory` has finitely many objects; each hom space
``hom(X, Y)`` is a graded module of finite total rank over a square-zero
extension of Q, carried as a rank table plus sparse structure tensors:

* ``diffs`` — per (X, Y, degree) the matrix of the degree +1 differential,
  stored column-sparse (basis index → entries of its image);
* ``comps`` — per (X, Y, Z, s, t) the bilinear composition tensor
  ``hom(Y, Z)_t × hom(X, Y)_s → hom(X, Z)_{s+t}``, stored as
  ``(outer index, inner index) → coordinate entries``;
* ``identities`` — coordinates of the strict unit of each object in degree 0.

The axioms checked by :func:`check_axioms` are d² = 0, the Leibniz rule

    d(g∘f) = d(g)∘f + (−1)^{|g|} g∘d(f),

associativity, and strict unitality.  Violations are returned as data, not
raised, so corrupted inputs can be reported coordinate by coordinate.

Morphisms are homogeneous: an element of a single ``hom(X, Y)_degree``.

Every layered sum of structure constants times coordinates is one
:class:`LayerSum`: the integer layers of ``RingElement``s (see
:mod:`dgnerve.rings`) over one denominator, multiplied and added as Python
ints by one loop.  :class:`MorphismSum` adds morphisms, differentials and
composites (nerve boundaries and residuals, horn equations and fillers,
cochains) at the cost of their nonzero coordinates; a sum only tested for
zero is tested on the ints.  Cycle bases, the twisted differential, the
witness system and the unit laws read whole structure blocks through one
block reader, :meth:`LayerSum.add_block`; the unit laws keep a sparse sum,
since a large block's unit meets few of its pairs.  The witness system and
the cycle bases go to :mod:`glin` as int layers, with no ring element
built.  Only d² = 0, Leibniz and associativity (one sparse join of
pre-scaled ints) and the scalar product multiply layers on their own.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, Mapping, Sequence

from . import glin
from .rings import (RATIONALS, RingElement, SquareZeroRing, from_layers,
                    random_elements)

Entries = tuple[tuple[int, RingElement], ...]   # sparse coordinate vector
SparseCols = dict[int, Entries]                 # column index → image entries
BilTensor = dict[tuple[int, int], Entries]      # (outer, inner) → entries


class InvalidComplex(ValueError):
    """Raised for chain-complex input whose differential fails d² = 0."""


class NotEquivalence(ValueError):
    """Raised when no homotopy-inverse witness exists for a morphism."""


@dataclass(frozen=True)
class Violation:
    """One failed identity, with enough location data to find it."""

    kind: str
    location: tuple
    detail: str = ""

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "location": [str(part) for part in self.location],
                "detail": self.detail}


@dataclass(frozen=True)
class Morphism:
    """A homogeneous hom element: source, target, degree, coordinates."""

    source: str
    target: str
    degree: int
    coords: tuple[RingElement, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def in_ideal(self) -> bool:
        return all(c.in_ideal() for c in self.coords)


@dataclass
class DgCategory:
    """Finite dg-category presented by ranks and structure tensors."""

    ring: SquareZeroRing
    objects: tuple[str, ...]
    ranks: dict[tuple[str, str, int], int]
    diffs: dict[tuple[str, str, int], SparseCols]
    comps: dict[tuple[str, str, str, int, int], BilTensor]
    identities: dict[str, tuple[RingElement, ...]]

    # -- bookkeeping -------------------------------------------------------

    def rank(self, source: str, target: str, degree: int) -> int:
        return self.ranks.get((source, target, degree), 0)

    def zero(self, source: str, target: str, degree: int) -> Morphism:
        n = self.rank(source, target, degree)
        return Morphism(source, target, degree, (self.ring.zero(),) * n)

    def identity(self, obj: str) -> Morphism:
        return Morphism(obj, obj, 0, self.identities[obj])

    def morphism(self, source: str, target: str, degree: int,
                 coords: Iterable) -> Morphism:
        tup = tuple(c if isinstance(c, RingElement)
                    else self.ring.element(c)
                    for c in coords)
        if len(tup) != self.rank(source, target, degree):
            raise ValueError("coordinate vector has wrong length")
        return Morphism(source, target, degree, tup)

    # -- dg-structure ------------------------------------------------------

    def differential(self, f: Morphism) -> Morphism:
        return MorphismSum(self, f.source, f.target, f.degree + 1) \
            .add_differential(f).result()

    def compose(self, outer: Morphism, inner: Morphism) -> Morphism:
        """``outer ∘ inner`` (apply ``inner`` first)."""
        return MorphismSum(self, inner.source, outer.target,
                           inner.degree + outer.degree) \
            .add_compose(outer, inner).result()

    def cycle_basis(self, source: str, target: str, degree: int,
                    ring: SquareZeroRing) -> list[list[RingElement]]:
        """The closed elements of ``hom(source, target)_degree`` over ``ring``:
        ``glin.nullspace`` of the ``diffs`` block as ``LayerSum.add_block``
        reads it, cut to ``ring``'s layers, if the block above is nonzero
        (with ε-multiples over ``Q ⊕ I``), else the unit vectors (bodies)."""
        n, m = self.rank(source, target, degree), \
            self.rank(source, target, degree + 1)
        if m:
            w, v = self.ring.ideal_rank + 1, ring.ideal_rank + 1
            block = LayerSum(m * n, w)
            block.add_block(self.diffs, (source, target, degree), None, 0,
                            (m, n), m, 1)
            return glin.nullspace([block.num[k + i] if i < w else 0
                                   for k in range(0, m * n * w, w)
                                   for i in range(v)], m, n, ring)
        return [[ring.one() if i == j else ring.zero() for j in range(n)]
                for i in range(n)]

    def random_morphism(self, source: str, target: str, degree: int,
                        rng: random.Random, *,
                        ideal_noise: bool = True,
                        ideal_only: bool = False) -> Morphism:
        return Morphism(source, target, degree, random_elements(
            self.ring, rng, self.rank(source, target, degree),
            ideal_noise=ideal_noise, ideal_only=ideal_only))


class LayerSum:
    """Ring elements summed as integer layers (the body, then one layer per
    ideal generator) over one shared denominator, element i at ``num[i·width
    :(i + 1)·width]``: a list of ``size·width`` ints, or a sparse dict for
    the unit laws (see :func:`_unit_defects`)."""

    def __init__(self, size: int, width: int):
        self.width, self.den, self.num = width, 1, [0] * (size * width)

    def add_block(self, structure: Mapping, key: tuple, fixed: Mapping | None,
                  slot: int, shape: tuple[int, int], rows: int, sign: int,
                  col: int = 0, row: int = 0) -> None:
        """Add ``sign`` times the matrix of d on the block ``key`` of
        ``diffs`` (``fixed`` None), or of composing with the morphism whose
        nonzero coordinates ``fixed`` holds at index ``slot`` of the pairs of
        the block ``key`` of ``comps``, in one pass: entry (r, j), j the
        pair's other index, at element ``(col + j)·rows + row + r``.  An
        entry read outside the block's ``shape`` (height, width) raises."""
        w, (height, width) = self.width, shape
        one = (1,) + (0,) * (w - 1)
        for at, entries in structure.get(key, {}).items():
            if fixed is None:
                j, c, den = at, one, 1
            elif (u := fixed.get(at[slot])) is None:
                continue
            elif len(u.nums) != w:
                raise ValueError("ring elements of different ideal rank")
            else:
                j, c, den = at[1 - slot], u.nums, u.den
            if not 0 <= j < width or \
                    any(not 0 <= r < height for r, _ in entries):
                raise ValueError(f"block {key} has an entry outside its "
                                 f"{height}×{width} shape at {at}")
            self._add_entries(entries, c, den, sign, (col + j) * rows + row)

    def nonzero(self) -> dict[int, RingElement]:
        """The nonzero elements by index, in index order."""
        w, num = self.width, self.num
        hit = dict.fromkeys(at // w for at in
                            itertools.compress(range(len(num)), num))
        return {i: from_layers(num[i * w:i * w + w], self.den) for i in hit}

    def _add_entries(self, entries: Entries, c: Sequence[int], den: int,
                     sign: int, offset: int = 0) -> None:
        """Element ``r + offset`` gets ``sign·a·(c/den)`` for each structure
        constant entry (r, a); ε·ε terms vanish.  The term is put on the
        shared denominator once, and again for a constant of denominator
        ≠ 1."""
        scale = sign * self._scale(den)
        w, num, c0 = self.width, self.num, c[0]
        for r, a in entries:
            a_nums = a.nums
            if len(a_nums) != w:
                raise ValueError("ring elements of different ideal rank")
            s = scale
            if a.den != 1:
                s = sign * self._scale(den * a.den)
                scale, num = sign * (self.den // den), self.num
            base, a0 = (r + offset) * w, a_nums[0]
            num[base] += s * a0 * c0
            for k in range(1, w):
                num[base + k] += s * (a0 * c[k] + a_nums[k] * c0)

    def _scale(self, den: int) -> int:
        """The factor that puts a term over ``den`` onto the shared
        denominator, which first grows to a common multiple if needed."""
        if self.den % den:
            grow = lcm(self.den, den) // self.den
            self.num = [v * grow for v in self.num]
            self.den *= grow
        return self.den // den


class MorphismSum(LayerSum):
    """A signed sum of terms in one hom block ``hom(source, target)_degree``:
    morphisms, their differentials and composites, each added with an int
    sign at the cost of the nonzero coordinates of its terms."""

    def __init__(self, cat: DgCategory, source: str, target: str,
                 degree: int):
        self.cat = cat
        self.shape = (source, target, degree)
        self.rank = cat.rank(source, target, degree)
        self.width = cat.ring.ideal_rank + 1
        self.den = 1
        self.num = [0] * (self.rank * self.width)
        # id(operand) → (operand, read), shared by the sums of a nerve sweep
        self._reads: dict[int, tuple] | None = None

    def add(self, f: Morphism, sign: int = 1) -> "MorphismSum":
        """``self += sign·f``."""
        self._check_shape((f.source, f.target, f.degree))
        if len(f.coords) != self.rank:
            raise ValueError("morphism rank mismatch")
        for r, c in self._nonzero(f).items():
            scale = sign * self._scale(c.den)
            for at, v in enumerate(c.nums, r * self.width):
                self.num[at] += scale * v
        return self

    def add_differential(self, f: Morphism, sign: int = 1) -> "MorphismSum":
        """``self += sign·d(f)``."""
        self._check_shape((f.source, f.target, f.degree + 1))
        cols = self.cat.diffs.get((f.source, f.target, f.degree))
        if cols:
            for j, c in self._nonzero(f).items():
                entries = cols.get(j)
                if entries:
                    self._add_entries(entries, c.nums, c.den, sign)
        return self

    def add_compose(self, outer: Morphism, inner: Morphism,
                    sign: int = 1) -> "MorphismSum":
        """``self += sign·(outer ∘ inner)`` (apply ``inner`` first)."""
        if inner.target != outer.source:
            raise ValueError(
                f"morphisms do not compose: {inner.source}->{inner.target} "
                f"then {outer.source}->{outer.target}")
        self._check_shape((inner.source, outer.target,
                           inner.degree + outer.degree))
        tensor = self.cat.comps.get((inner.source, inner.target, outer.target,
                                     inner.degree, outer.degree))
        if tensor:
            right, left = self._nonzero(inner), self._nonzero(outer)
            w = self.width
            for (i, j), entries in tensor.items() if right and left else ():
                a = left.get(i)
                b = right.get(j) if a is not None else None
                if b is not None:       # the layers of a·b; ε·ε terms vanish
                    o, c = a.nums, b.nums
                    o0, c0 = o[0], c[0]
                    product = [o0 * c0]
                    for k in range(1, w):
                        product.append(o0 * c[k] + o[k] * c0)
                    self._add_entries(entries, product, a.den * b.den, sign)
        return self

    def is_zero(self) -> bool:
        """Whether the sum is exactly zero, without building its morphism."""
        return not any(self.num)

    def result(self) -> Morphism:
        """The sum as a morphism."""
        w, den, zero = self.width, self.den, self.cat.ring.zero()
        layers = [self.num[b:b + w] for b in range(0, len(self.num), w)]
        return Morphism(*self.shape, tuple(
            from_layers(v, den) if any(v) else zero for v in layers))

    def _check_shape(self, shape: tuple[str, str, int]) -> None:
        if shape != self.shape:
            raise ValueError(
                "morphism shape mismatch: {}->{} deg {} vs {}->{} deg {}"
                .format(*self.shape, *shape))

    def _nonzero(self, f: Morphism) -> dict[int, RingElement]:
        """The nonzero coordinates of ``f`` by index; zero ones are skipped
        like missing terms.  A sweep's read holds its operand, so that the
        id it is keyed by is not reused while the read lasts."""
        hit = self._reads and self._reads.get(id(f))
        if hit:
            return hit[1]
        read = {i: c for i, c in enumerate(f.coords) if any(c.nums)}
        for c in read.values():
            if len(c.nums) != self.width:
                raise ValueError("ring elements of different ideal rank")
        if self._reads is not None:
            self._reads[id(f)] = (f, read)
        return read


# -- axiom checking -----------------------------------------------------------

def _read(cat: DgCategory) -> tuple[list, dict, dict, tuple]:
    """Every nonzero structure entry, numbered, as integer layers over one
    denominator: the entries of each source object's blocks, and each entry
    under the number of its result, with its code times ``rows`` and the
    factor ``mult`` that puts one more digit in front of that code.  The
    same walk bounds each index by the rank of its hom block; if one lies
    outside, only the ``index_range`` violations are returned."""
    width, homs = cat.ring.ideal_rank + 1, list(cat.ranks)
    starts = [0, *itertools.accumulate(max(r, 0) for r in cat.ranks.values())]
    place = defaultdict(lambda: (0, 0),       # hom → first number, rank
                        zip(homs, zip(starts, cat.ranks.values())))
    radix, rows = starts.pop() + 1, width * max(cat.ranks.values(), default=0)
    structure = [*cat.diffs.items(), *cat.comps.items()]
    consts = [a for _, block in structure
              for entries in block.values() for _, a in entries]
    den, by_source, by_result, bad = lcm(*(a.den for a in consts)), {}, {}, []
    for key, block in structure:      # (digit g + 1, or 0 for d; f; row; a)
        # an entry with an index outside its hom block puts its place in bad
        if len(key) == 3:                     # d(f) is one degree above f
            x, y, t = key
            (f, n_f), (result, n_r) = place[x, y, t], place[x, y, t + 1]
            numbered = [(0, f + j, r, a) if 0 <= j < n_f and 0 <= r < n_r
                        else bad.append(key + (j, r))
                        for j, entries in block.items() for r, a in entries]
            sign, mult = 1, radix * rows
        else:                                 # g∘f is in degree |g| + |f|
            x, y, z, s, t = key
            (g, n_g), (f, n_f), (result, n_r) = \
                place[y, z, t], place[x, y, s], place[x, z, s + t]
            numbered = [(g + i + 1, f + j, r, a)
                        if 0 <= i < n_g and 0 <= j < n_f and 0 <= r < n_r
                        else bad.append(key + (i, j, r))
                        for (i, j), entries in block.items()
                        for r, a in entries]
            sign, mult = 1 if t % 2 else -1, radix * radix * rows
        if bad:
            continue
        scaled = [(head, n, r, a.nums if a.den == den
                   else [v * (den // a.den) for v in a.nums])
                  for head, n, r, a in numbered if any(a.nums)]
        by_source.setdefault(x, []).append(
            (sign, [(head, n, r * width, c) for head, n, r, c in scaled]))
        for head, n, r, c in scaled:
            by_result.setdefault(result + r, []).append(
                ((head * radix + n + 1) * rows, mult, len(key) == 3, c))
    if bad:                 # by block, then index; an index's rows as stored
        what = {5: "diff index outside the hom rank",
                8: "comp index outside the hom rank"}
        return [Violation("index_range", at, what[len(at)]) for at in
                sorted(bad, key=lambda at: (len(at), at[:-1]))], {}, {}, ()
    if any(len(a.nums) != width for a in consts):
        raise ValueError("ring elements of different ideal rank")
    return [], by_source, by_result, (radix, rows, starts, homs)


def _join(blocks: list, by_result: Mapping, radix: int, rows: int) -> dict:
    """Every product of an entry of ``blocks`` (applied last) with one whose
    result it takes in, added under the identity's key; the body layer of a
    product is a₀c₀ and each ideal layer a₀c_k + a_kc₀ (ε·ε terms vanish)."""
    table: dict = defaultdict(int)
    for sign, entries in blocks:
        for head, f, rw, c in entries:
            c0, width, tail = c[0], len(c), (f + 1) * rows + rw
            # −(h∘g)∘f and −d(g)∘f: g = head − 1 is the result of h∘g or d(g)
            # (head is 0 when d is applied last, and no entry has result −1)
            for pre, _, _, a in by_result.get(head - 1, ()):
                key, a0 = pre * radix + tail, a[0]
                table[key] -= a0 * c0
                if width > 1:
                    for k in range(1, width):
                        table[key + k] -= a0 * c[k] + a[k] * c0
            # d(d(f)), d(g∘f), h∘(g∘f) and −(−1)^{|g|} g∘d(f): f is the
            # result of d(f) or g∘f
            for pre, mult, d, a in by_result.get(f, ()):
                key, a0, s = head * mult + pre + rw, a[0], sign if d else 1
                table[key] += s * a0 * c0
                if width > 1:
                    for k in range(1, width):
                        table[key + k] += s * (a0 * c[k] + a[k] * c0)
    return table


def _unit_defects(comps: Mapping, key: tuple, unit: Mapping, n: int,
                  slot: int, width: int) -> set[int]:
    """The indices j of the basis elements e_j of a rank-n hom block at
    which the unit composed with e_j is not e_j.  The unit is index ``slot``
    of the (outer, inner) pairs of their composition block ``comps[key]``, and
    ``unit`` holds its nonzero coordinates.  The sum starts at −e_j and is a
    dict keyed by (j·n + row)·width + layer: a dense n²·width list costs more
    than the few products of a large block's unit.  Every term's denominator
    divides the one fixed first, so ``_scale`` never grows it into a list."""
    sums = LayerSum(0, width)
    sums.den = lcm(*(c.den for c in unit.values())) * \
        lcm(*(a.den for entries in comps.get(key, {}).values()
              for _, a in entries))
    sums.num = defaultdict(int, {j * (n + 1) * width: -sums.den
                                 for j in range(n)})
    sums.add_block(comps, key, unit, slot, (n, n), n, 1)
    return {key // (n * width) for key, v in sums.num.items() if v}


def check_axioms(cat: DgCategory) -> list[Violation]:
    """Every broken dg-category identity, as data, at the cost of its
    structure products.  d² = 0, Leibniz and associativity join the nonzero
    structure entries on their shared index, one table per source object.
    The constants are put over their lcm and a table key is one int: the
    digits g + 1 of the identity's basis elements (numbered in ``cat.ranks``
    order) in radix N + 1, then coordinate and layer; only the nonzero keys
    are decoded.  An entry with an index outside its hom block is reported
    as ``index_range`` and no identity is checked.  The unit laws of a hom
    block take one pass over the unit's composition block:

    >>> one = RATIONALS.one()
    >>> doubled_unit = DgCategory(RATIONALS, ("X",), {("X", "X", 0): 1}, {},
    ...     {("X", "X", "X", 0, 0): {(0, 0): ((0, one),)}}, {"X": (2 * one,)})
    >>> [(v.kind, v.location) for v in check_axioms(doubled_unit)]
    [('unit_left', ('X', 'X', 0, 0)), ('unit_right', ('X', 'X', 0, 0))]
    """
    out: list[Violation] = []
    objects, ids = cat.objects, cat.identities
    for obj in objects:
        if obj not in ids:
            out.append(Violation("missing_identity", (obj,),
                                 "object has no unit element"))
        elif len(ids[obj]) != cat.rank(obj, obj, 0):
            out.append(Violation("identity_rank", (obj,),
                                 "unit coordinates do not match hom rank"))
    bad_indices, by_source, by_result, layout = _read(cat)
    if bad_indices:
        return out + bad_indices
    (radix, rows, starts, hom_blocks), width = layout, cat.ring.ideal_rank + 1
    pos = {x: n for n, x in enumerate(objects)}
    found = defaultdict(list)       # hom-block count → (identity, basis)
    for blocks in by_source.values():     # one table per source object
        table = _join(blocks, by_result, radix, rows)
        for code in {key // rows for key, v in table.items() if v}:
            homs, basis = [], ()
            while code:                       # the digit of f comes first
                code, g = divmod(code, radix)
                n = bisect_right(starts, g - 1) - 1
                homs.append(hom_blocks[n])
                basis = (g - 1 - starts[n],) + basis
            objs = (homs[0][0], *(hom[1] for hom in homs))
            # d² holds on every block; the other laws on chains of objects
            if len(homs) == 1 or all(o in pos for o in objs):
                found[len(homs)].append(
                    (objs + tuple(hom[2] for hom in homs), basis))

    def report(kind: str, n: int, detail: str, order=None) -> None:
        out.extend(Violation(kind, ident + basis, detail)
                   for ident, basis in sorted(found[n], key=order))
    report("d_squared", 1, "d(d(basis element)) is nonzero")
    # the unit laws are checked only with units of the hom rank
    units = {obj: {i: c for i, c in enumerate(unit) if any(c.nums)}
             for obj, unit in ids.items() if len(unit) == cat.rank(obj, obj, 0)}
    for obj in objects:
        if obj in units and not MorphismSum(cat, obj, obj, 1) \
                .add_differential(cat.identity(obj)).is_zero():
            out.append(Violation("unit_not_closed", (obj,),
                                 "d(identity) is nonzero"))
    for (x, y, t), rank in sorted(cat.ranks.items()):   # 1∘f − f and f∘1 − f
        left = _unit_defects(cat.comps, (x, y, y, t, 0), units[y], rank, 0,
                             width) if y in units else ()
        right = _unit_defects(cat.comps, (x, x, y, 0, t), units[x], rank, 1,
                              width) if x in units else ()
        out.extend(Violation(kind, (x, y, t, j), detail)
                   for j in sorted({*left, *right})
                   for kind, detail, defects in (
                       ("unit_left", "1∘f differs from f", left),
                       ("unit_right", "f∘1 differs from f", right))
                   if j in defects)

    def order(key: tuple) -> tuple:   # object index, degrees, basis reversed
        ident, basis = key
        n = len(ident) // 2 + 1
        return tuple(pos[o] for o in ident[:n]), ident[n:], basis[::-1]
    report("leibniz", 2, "d(g∘f) ≠ d(g)∘f + (−1)^{|g|} g∘d(f)", order)
    report("associativity", 3, "(h∘g)∘f ≠ h∘(g∘f)", order)
    return out


# -- chain complexes and their hom categories ---------------------------------

@dataclass
class ChainComplex:
    """A bounded complex of finite free modules with a degree +1 map."""

    ring: SquareZeroRing
    dims: dict[int, int]
    d: dict[int, list[list[RingElement]]] = field(default_factory=dict)

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    def degrees(self) -> list[int]:
        return sorted(k for k, v in self.dims.items() if v > 0)

    def d_matrix(self, degree: int) -> list[list[RingElement]]:
        mat = self.d.get(degree)
        if mat is None:
            return [[self.ring.zero()] * self.dim(degree)
                    for _ in range(self.dim(degree + 1))]
        return mat

    def validate(self) -> None:
        for i in sorted({*self.degrees(), *self.d}):
            mat = self.d_matrix(i)
            if len(mat) != self.dim(i + 1) or \
                    any(len(row) != self.dim(i) for row in mat):
                raise InvalidComplex(f"differential at degree {i} has wrong shape")
        for i in self.degrees():
            square = _matmul(self.d_matrix(i + 1), self.d_matrix(i),
                             self.ring.zero())
            if any(not e.is_zero() for row in square for e in row):
                raise InvalidComplex(f"d² ≠ 0 between degrees {i} and {i + 2}")


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence], zero) -> list[list]:
    """The product ``a·b`` of row lists, each entry a sum from ``zero``."""
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)]
            for row in a]


def complex_from_dense(ring: SquareZeroRing, dims: Mapping[int, int],
                       d: Mapping[int, Sequence[Sequence]] = ()) -> ChainComplex:
    """Build a complex from plain nested lists of rationals."""
    dmats = {}
    for i, mat in dict(d).items():
        dmats[i] = [[e if isinstance(e, RingElement)
                     else ring.element(e) for e in row]
                    for row in mat]
    return ChainComplex(ring, dict(dims), dmats)


def make_complex_category(complexes: Sequence[ChainComplex],
                          names: Sequence[str] | None = None) -> DgCategory:
    """The dg-category of the given complexes with full Hom complexes.

    ``hom(A, B)_t = ⊕_i Hom(A^i, B^{i+t})`` with differential
    ``D(f) = d_B∘f − (−1)^{|f|} f∘d_A`` and ordinary composition.  The basis
    of a hom block is its units (level i, row of B^{i+t}, column of A^i) in
    that order; ``index`` maps each unit to its position, block by block.
    """
    if not complexes:
        return DgCategory(ring=RATIONALS, objects=(), ranks={}, diffs={},
                          comps={}, identities={})
    ring = complexes[0].ring
    for cx in complexes:
        if cx.ring != ring:
            raise InvalidComplex("complexes live over different rings")
        cx.validate()
    if names is None:
        names = tuple(f"C{i}" for i in range(len(complexes)))
    if len(set(names)) != len(names) or len(names) != len(complexes):
        raise InvalidComplex("object names must be distinct, one per complex")
    by_name = dict(zip(names, complexes))

    index: dict[tuple[str, str, int], dict[tuple[int, int, int], int]] = {}
    block_degrees = defaultdict(list)     # (X, Y) → degrees of its blocks
    for xn, yn in itertools.product(names, repeat=2):
        a, b = by_name[xn], by_name[yn]
        degs_a = a.degrees()
        for t in sorted({j - i for j in b.degrees() for i in degs_a}):
            units: dict[tuple[int, int, int], int] = {}
            for i in degs_a:
                for row in range(b.dim(i + t)):
                    for col in range(a.dim(i)):
                        units[(i, row, col)] = len(units)
            index[(xn, yn, t)] = units
            block_degrees[(xn, yn)].append(t)

    diffs: dict[tuple[str, str, int], SparseCols] = {}
    for (xn, yn, t), units in index.items():
        a, b = by_name[xn], by_name[yn]
        target_index = index.get((xn, yn, t + 1))
        if not target_index:
            continue
        cols: SparseCols = {}
        for (i, row, col), pos in units.items():
            entries: list[tuple[int, RingElement]] = []
            # d_B ∘ f : unit (i, row, col) pushes forward along d_B at i+t
            db = b.d_matrix(i + t)
            for row2 in range(b.dim(i + t + 1)):
                coeff = db[row2][row]
                if not coeff.is_zero():
                    entries.append((target_index[(i, row2, col)], coeff))
            # −(−1)^t f ∘ d_A : unit pulls back along d_A at i−1
            da = a.d_matrix(i - 1)
            for col2 in range(a.dim(i - 1)):
                coeff = da[col][col2]
                if not coeff.is_zero():
                    entries.append((target_index[(i - 1, row, col2)],
                                    coeff if t % 2 else -coeff))
            if entries:
                cols[pos] = tuple(sorted(entries, key=lambda e: e[0]))
        if cols:
            diffs[(xn, yn, t)] = cols

    comps: dict[tuple[str, str, str, int, int], BilTensor] = {}
    one = ring.one()
    for xn, yn, zn in itertools.product(names, repeat=3):
        a = by_name[xn]
        for s in block_degrees[(xn, yn)]:
            inner_index = index[(xn, yn, s)]
            for t in block_degrees[(yn, zn)]:
                result_index = index.get((xn, zn, s + t))
                if not result_index:
                    continue
                tensor: BilTensor = {}
                # outer unit (i, r, c) takes in the inner units (i − s, c, ·)
                for (i, r, c), opos in index[(yn, zn, t)].items():
                    for col in range(a.dim(i - s)):
                        ipos = inner_index[(i - s, c, col)]
                        target = result_index[(i - s, r, col)]
                        tensor[(opos, ipos)] = ((target, one),)
                if tensor:
                    comps[(xn, yn, zn, s, t)] = tensor

    identities = {}
    for xn in names:
        a = by_name[xn]
        idx = index.get((xn, xn, 0), {})
        coords = [ring.zero()] * len(idx)
        for i in a.degrees():
            for r in range(a.dim(i)):
                coords[idx[(i, r, r)]] = ring.one()
        identities[xn] = tuple(coords)

    ranks = {key: len(units) for key, units in index.items()}
    return DgCategory(ring=ring, objects=tuple(names), ranks=ranks,
                      diffs=diffs, comps=comps, identities=identities)


def random_complex(ring: SquareZeroRing, rng: random.Random, *,
                   total_dim: int, min_degree: int = 0,
                   max_degree: int = 2) -> ChainComplex:
    """A random exact-arithmetic complex with d² = 0 by construction.

    Builds a split complex (free slots plus identity arrows between chosen
    adjacent-degree slot pairs) and conjugates it by random invertible
    change-of-basis matrices, so the differential looks generic.
    """
    degrees = list(range(min_degree, max_degree + 1))
    dims = {i: 0 for i in degrees}
    for _ in range(max(1, total_dim)):
        dims[rng.choice(degrees)] += 1
    dims = {i: n for i, n in dims.items() if n > 0}

    # split structure: degrees are visited in increasing order, so the
    # targets at degree i are its first ``used`` slots and its sources the
    # ``arrows`` slots after them, each sent to the same-numbered slot of i + 1
    source_of: dict[int, list[tuple[int, int]]] = {}
    used = 0
    for i in sorted(dims):
        if i + 1 not in dims:
            used = 0
            continue
        arrows = rng.randint(0, min(dims[i] - used, dims[i + 1]))
        if arrows:
            source_of[i] = [(used + t, t) for t in range(arrows)]
        used = arrows

    # random invertible change of basis per degree: L·U with ±1 diagonal
    def random_lu(n: int) -> tuple[list[list[int]], list[list[int]]]:
        lower = [[int(r == c) for c in range(n)] for r in range(n)]
        upper = [[int(r == c) for c in range(n)] for r in range(n)]
        for r in range(n):
            upper[r][r] = rng.choice([1, -1])
            for c in range(r + 1, n):
                upper[r][c] = rng.randint(-1, 1)
                lower[c][r] = rng.randint(-1, 1)
        return lower, upper

    def inverse(lower: list[list[int]],
                upper: list[list[int]]) -> list[list[int]]:
        # U⁻¹·L⁻¹ with no division: down L's rows (a unit diagonal), then up
        # U's rows (a ±1 diagonal)
        n = len(lower)
        inv = [[int(r == c) for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(r):
                inv[r] = [a - lower[r][c] * b for a, b in zip(inv[r], inv[c])]
        for r in reversed(range(n)):
            for c in range(r + 1, n):
                inv[r] = [a - upper[r][c] * b for a, b in zip(inv[r], inv[c])]
            inv[r] = [upper[r][r] * a for a in inv[r]]
        return inv

    lu = {i: random_lu(dims[i]) for i in dims}
    conjugated = {}
    for i, pairs in source_of.items():
        split = [[0] * dims[i] for _ in range(dims[i + 1])]
        for s, t in pairs:
            split[t][s] = 1
        product = _matmul(_matmul(*lu[i + 1], 0),
                          _matmul(split, inverse(*lu[i]), 0), 0)
        conjugated[i] = [[ring.element(e) for e in row]
                         for row in product]
    return ChainComplex(ring, dims, conjugated)


# -- opposite category --------------------------------------------------------

def opposite(cat: DgCategory) -> DgCategory:
    """The opposite dg-category with the Koszul composition sign.

    ``hom_op(X, Y) = hom(Y, X)`` with the same differential and
    ``g ∘_op f = (−1)^{|f||g|} f ∘ g``.  Applying it twice restores the
    original category on the nose.
    """
    ranks = {(y, x, t): r for (x, y, t), r in cat.ranks.items()}
    diffs = {(y, x, t): cols for (x, y, t), cols in cat.diffs.items()}
    comps: dict[tuple[str, str, str, int, int], BilTensor] = {}
    for (x, y, z, s, t), tensor in cat.comps.items():
        flip: BilTensor = {}
        negate = (s * t) % 2 == 1
        for (i, j), entries in tensor.items():
            flip[(j, i)] = tuple((r, -a) for r, a in entries) if negate \
                else entries
        comps[(z, y, x, t, s)] = flip
    return DgCategory(ring=cat.ring, objects=cat.objects, ranks=ranks,
                      diffs=diffs, comps=comps, identities=dict(cat.identities))


# -- homotopy-equivalence witnesses -------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Data (a, g, h) certifying α is invertible up to homotopy:
    d(a) = 0, a∘α = 1 + d(g), α∘a = 1 + d(h)."""

    a: Morphism
    g: Morphism
    h: Morphism


_witness_calls = 0


def witness_call_count() -> int:
    """How many times the witness solver has run (test instrumentation)."""
    return _witness_calls


def reset_witness_calls() -> None:
    global _witness_calls
    _witness_calls = 0


def find_equivalence_witness(cat: DgCategory, alpha: Morphism) -> Witness:
    """Solve d(a)=0, a∘α = 1 + d(g), α∘a = 1 + d(h) for (a, g, h).

    The three conditions form one linear system over the ring, read from
    the nonzero ``diffs`` entries and the ``comps`` entries against α's
    nonzero coordinates into one :class:`LayerSum`, column-major, with b
    (the identities at the a∘α and α∘a rows) as one more column.  Its int
    layers go to :func:`glin.solve_layered` as they are, with no ring
    element built; raises :class:`NotEquivalence` when it is inconsistent.
    """
    global _witness_calls
    _witness_calls += 1

    if alpha.degree != 0:
        raise ValueError("witness queries require a degree-0 morphism")
    x, y = alpha.source, alpha.target
    if not MorphismSum(cat, x, y, 1).add_differential(alpha).is_zero():
        raise ValueError("witness queries require a closed morphism")

    n_a, n_g, n_h = cat.rank(y, x, 0), cat.rank(x, x, -1), cat.rank(y, y, -1)
    r1, r2, r3 = cat.rank(y, x, 1), cat.rank(x, x, 0), cat.rank(y, y, 0)
    height, n, w = r1 + r2 + r3, n_a + n_g + n_h, cat.ring.ideal_rank + 1
    system = LayerSum(height * (n + 1), w)      # column-major, b in column n
    for key, shape, row, col, sign in (
            ((y, x, 0), (r1, n_a), 0, 0, 1),                       # d(a)
            ((x, x, -1), (r2, n_g), r1, n_a, -1),                  # −d(g)
            ((y, y, -1), (r3, n_h), r1 + r2, n_a + n_g, -1)):      # −d(h)
        system.add_block(cat.diffs, key, None, 0, shape, height, sign, col,
                         row)
    nonzero = {k: c for k, c in enumerate(alpha.coords) if any(c.nums)}
    for key, shape, row, slot in (
            ((x, y, x, 0, 0), (r2, n_a), r1, 1),                   # a∘α
            ((y, x, y, 0, 0), (r3, n_a), r1 + r2, 0)):             # α∘a
        system.add_block(cat.comps, key, nonzero, slot, shape, height, 1, 0,
                         row)
    for obj, row in ((x, r1), (y, r1 + r2)):                       # b
        system._add_entries(tuple(enumerate(cat.identity(obj).coords)),
                            (1,) + (0,) * (w - 1), 1, 1, n * height + row)

    try:
        solution = glin.solve_layered(system.num, height, n, cat.ring)
    except glin.NoSolution as exc:
        raise NotEquivalence(
            f"no homotopy-inverse witness for {x}->{y}") from exc

    a = Morphism(y, x, 0, tuple(solution[:n_a]))
    g = Morphism(x, x, -1, tuple(solution[n_a:n_a + n_g]))
    h = Morphism(y, y, -1, tuple(solution[n_a + n_g:]))
    return Witness(a, g, h)
