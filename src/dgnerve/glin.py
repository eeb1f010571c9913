"""Exact linear algebra over square-zero extensions: elimination only.

The horn fillers and square-zero lifts need an exact solve for the
equivalence witness (a, g, h) and kernels of a hom block's differential:
:func:`solve_linear` and :func:`nullspace`, on lists of rows of
:class:`~dgnerve.rings.RingElement`.  Writing ``x = x⁰ + Σ_l ε_l·x^l`` and
splitting every entry into layers turns ``A·x = b`` over ``B = Q ⊕ I`` into
a single rational system,

    A⁰·x⁰           = b⁰          (body layer)
    A⁰·x^l + A^l·x⁰ = b^l         (one block per ideal generator),

which is solved *jointly*: when the body matrix is singular, the body
solution must be chosen compatibly with the ideal blocks.  ``A=[[ε]],
b=[ε]`` has the solution ``x=1`` although the body system is ``0·x = 0``;
over Q, the kernel of ``[[1, 2]]`` is spanned by ``(−2, 1)``:

>>> from dgnerve.rings import RATIONALS as Q, SquareZeroRing
>>> B = SquareZeroRing(1)
>>> solve_linear([[B.generator(0)]], [B.generator(0)], B) == [B.one()]
True
>>> nullspace([[Q.element(1), Q.element(2)]], Q) == [[Q.element(-2), Q.one()]]
True

So solvability over ``B`` implies solvability of the body system over Q,
but not conversely.  :func:`_expand`, the one row reader (:func:`rref`'s
too), turns the integer layers into sparse rows ``{col: int}``; one forward
elimination (:func:`_echelon`) and one back-substitution over a common
denominator (:func:`_back_substitute`) give the solution or each kernel
vector, free variables 0, so results are deterministic.  :func:`rref` adds
one upward pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rings import RATIONALS, RingElement, SquareZeroRing, from_layers

Matrix = Sequence[Sequence[RingElement]]
Vector = Sequence[RingElement]


class NoSolution(ValueError):
    """Raised when a linear system is inconsistent."""


# -- rational core -----------------------------------------------------------

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[tuple[int, int]]]:
    """Reduced row echelon form; returns (matrix, pivot (row, col) list).

    :func:`_echelon` on the rows as :func:`_expand` reads them over Q, then
    one upward pass that clears each pivot column, last first, from the rows
    above it; only then is each pivot row divided by its pivot.  Each step
    keeps the row space and the RREF is unique, so the result is the one any
    exact elimination gives: the pivot rows in column order, then zero rows.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    echelon = _echelon(_expand([[from_layers((v.numerator,), v.denominator)
                                 for v in row] for row in rows],
                               None, RATIONALS), ncols)
    for k in range(len(echelon) - 1, 0, -1):
        c, pivot = echelon[k]
        echelon[:k] = [(d, _eliminate(row, pivot, c)) if c in row else (d, row)
                       for d, row in echelon[:k]]
    mat = [[Fraction(0)] * ncols for _ in rows]
    for r, (c, row) in enumerate(echelon):
        for j, v in row.items():
            mat[r][j] = Fraction(v, row[c])
    return mat, [(r, c) for r, (c, _) in enumerate(echelon)]


def _echelon(rows: list[dict[int, int]],
             ncols: int) -> list[tuple[int, dict[int, int]]]:
    """The one elimination loop, forward only: the (pivot column, row) pairs
    in column order, each row zero left of its pivot.  Column by column, the
    first pending row that is nonzero there becomes the pivot row and is
    eliminated from the pending rows only, so the pivot columns are the
    greedy column profile of the matrix."""
    pending = [row for row in rows if row]
    echelon: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        if not pending:
            break
        i = next((i for i, row in enumerate(pending) if c in row), None)
        if i is None:
            continue
        pivot = pending.pop(i)
        pending = [r for r in (_eliminate(row, pivot, c) if c in row else row
                               for row in pending) if r]
        echelon.append((c, pivot))
    return echelon


def _eliminate(row: dict[int, int], pivot: dict[int, int],
               c: int) -> dict[int, int]:
    """``a·row − b·pivot`` over its content, ``a/b = p/f`` in lowest terms
    for the entries ``p``, ``f`` of ``pivot``, ``row`` in column ``c``."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in pivot.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    content = gcd(*out.values())
    return {j: v // content for j, v in out.items()} if content > 1 else out


def _back_substitute(echelon: list[tuple[int, dict[int, int]]],
                     x: dict[int, int]) -> tuple[dict[int, int], int]:
    """Extend ``x``, integers at non-pivot columns (0 at the others), to the
    vector ``({col: int}, den)`` on which every echelon row vanishes, solving
    pivot columns last to first over one common (nonzero) ``den``."""
    den = 1
    for c, row in reversed(echelon):
        num = -sum(v * x[j] for j, v in row.items() if j in x)
        if not num:
            continue
        g = gcd(num, row[c])
        f = row[c] // g
        if f != 1:
            den *= f
            x = {j: v * f for j, v in x.items()}
        x[c] = num // g
    return x, den


# -- layered systems over B ---------------------------------------------------

def _expand(matrix: Matrix, rhs: Vector | None,
            ring: SquareZeroRing) -> list[dict[int, int]]:
    """The integer rows of the layered rational system, block ``l`` of
    columns holding ``x^l``; ``rhs``, if given, is the last column.  Every
    layer of equation ``i`` is scaled by the lcm of its denominators."""
    ncols = len(matrix[0])
    m = ring.ideal_rank
    scales = [lcm(*[e.den for e in row], 1 if rhs is None else rhs[i].den)
              for i, row in enumerate(matrix)]
    rows = []
    for layer in range(m + 1):
        for i, scale in enumerate(scales):
            row = {}
            for j, e in enumerate(matrix[i]):
                if e.nums[0]:
                    row[layer * ncols + j] = e.nums[0] * (scale // e.den)
                if layer and e.nums[layer]:
                    row[j] = e.nums[layer] * (scale // e.den)
            if rhs is not None and rhs[i].nums[layer]:
                row[(m + 1) * ncols] = \
                    rhs[i].nums[layer] * (scale // rhs[i].den)
            rows.append(row)
    return rows


def _ring_vector(x: dict[int, int], den: int, ncols: int,
                 m: int) -> list[RingElement]:
    """Coordinate j from its layers ``x[j], x[ncols + j], …`` over ``den``."""
    return [from_layers([x.get(layer * ncols + j, 0)
                         for layer in range(m + 1)], den)
            for j in range(ncols)]


def solve_linear(matrix: Matrix, rhs: Vector,
                 ring: SquareZeroRing) -> list[RingElement]:
    """Some exact solution of ``A·x = b`` over ``ring``, or NoSolution."""
    ncols = len(matrix[0]) if matrix else 0
    if ncols == 0:
        if any(not b.is_zero() for b in rhs):
            raise NoSolution("inconsistent linear system (no unknowns)")
        return []
    m = ring.ideal_rank
    width = (m + 1) * ncols          # the column of b, where x holds −1
    echelon = _echelon(_expand(matrix, rhs, ring), width + 1)
    if echelon and echelon[-1][0] == width:
        raise NoSolution("inconsistent linear system")
    return _ring_vector(*_back_substitute(echelon, {width: -1}), ncols, m)


def nullspace(matrix: Matrix, ring: SquareZeroRing) -> list[list[RingElement]]:
    """A rational basis of ``{x : A·x = 0}`` over ``ring`` (as a Q-space),
    one vector per free column, 1 there and 0 at the other free columns.

    It reads only the layers ``ring`` has: over RATIONALS, only bodies.
    """
    if not matrix:      # the kernel is all of Q^n, but n is unknown
        raise ValueError("nullspace of a matrix with no rows")
    ncols = len(matrix[0])
    m = ring.ideal_rank
    echelon = _echelon(_expand(matrix, None, ring), (m + 1) * ncols)
    pivots = {c for c, _ in echelon}
    return [_ring_vector(*_back_substitute(echelon, {j: 1}), ncols, m)
            for j in range((m + 1) * ncols) if j not in pivots]

