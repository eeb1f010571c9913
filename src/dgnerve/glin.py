"""Exact linear algebra over square-zero extensions: elimination only.

The horn fillers and square-zero lifts need an exact solve for the
equivalence witness (a, g, h) and kernels of a hom block's differential:
:func:`solve_layered` and :func:`nullspace`, on the integer layers that
:class:`~dgnerve.dgcat.LayerSum` holds, and :func:`solve_linear`, on lists
of rows of :class:`~dgnerve.rings.RingElement`.  Writing
``x = x⁰ + Σ_l ε_l·x^l`` and splitting every entry into layers turns
``A·x = b`` over ``B = Q ⊕ I`` into a single rational system,

    A⁰·x⁰           = b⁰          (body layer)
    A⁰·x^l + A^l·x⁰ = b^l         (one block per ideal generator),

which is solved *jointly*: when the body matrix is singular, the body
solution must be chosen compatibly with the ideal blocks.  ``A=[[ε]],
b=[ε]`` has the solution ``x=1`` although the body system is ``0·x = 0``;
over Q, the kernel of ``[[1, 2]]`` (one layer per entry) is ``Q·(−2, 1)``:

>>> from dgnerve.rings import RATIONALS as Q, SquareZeroRing
>>> B = SquareZeroRing(1)
>>> solve_linear([[B.generator(0)]], [B.generator(0)], B) == [B.one()]
True
>>> nullspace([1, 2], 1, 2, Q) == [[Q.element(-2), Q.one()]]
True

So solvability over ``B`` implies solvability of the body system over Q, but
not conversely.  :func:`solve_layered` takes ``[A | b]`` as the int layers a
:class:`~dgnerve.dgcat.LayerSum` holds (:func:`_columns` reads rows of
``RingElement`` into that array for :func:`solve_linear` and :func:`rref`),
and :func:`_rows`, the one row reader, makes one sparse int row per
equation.  One elimination loop (:func:`_echelon`) first reduces A⁰ once,
over the body columns, carrying the layers along: pivot rows
``E·[A⁰ | A^l | b]``, cokernel rows ``[0 | C·A^l | C·b]``.  Rebuilt from these
(:func:`_layered`), the layered system differs from the one above by row
operations and a reordering, which keep its kernel and its greedy column
profile, and one more pass finds that profile with little left to eliminate,
since each block l holds the echelon of A⁰.  One back-substitution over a
common denominator (:func:`_back_substitute`) gives the solution or each
kernel vector: the one that is zero off the profile, so results are
deterministic.  :func:`rref` reads its free columns off those vectors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rings import RingElement, SquareZeroRing, from_layers

Matrix = Sequence[Sequence[RingElement]]
Vector = Sequence[RingElement]


class NoSolution(ValueError):
    """Raised when a linear system is inconsistent."""


# -- rational core -----------------------------------------------------------

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[tuple[int, int]]]:
    """Reduced row echelon form; returns (matrix, pivot (row, col) list).

    The echelon that :func:`_echelon` builds over Q fixes the pivot columns.
    Pivot row r, at column c, holds 1 there and ``−v_f[c]`` at each free
    column f, where v_f is the kernel vector of :func:`_back_substitute`, 1
    at f and 0 at the other free columns.  The RREF is unique, so this is
    the one any exact elimination gives: the pivot rows in column order,
    then zero rows.
    """
    ncols = len(rows[0]) if rows else 0
    matrix = [[from_layers((v.numerator,), v.denominator) for v in row]
              for row in rows]
    echelon, _ = _echelon(_rows(_columns(matrix, 1), len(rows), ncols, 1),
                          ncols)
    pivots = [c for c, _ in echelon]
    mat = [[Fraction(0)] * ncols for _ in rows]
    for row, c in zip(mat, pivots):
        row[c] = Fraction(1)
    for f in set(range(ncols)) - set(pivots):
        x, den = _back_substitute(echelon, {f: 1})
        for row, c in zip(mat, pivots):
            if c in x:
                row[f] = Fraction(-x[c], den)
    return mat, list(enumerate(pivots))


def _echelon(rows: list[dict[int, int]], ncols: int) -> tuple[
        list[tuple[int, dict[int, int]]], list[dict[int, int]]]:
    """The one elimination loop, forward only over columns ``0 … ncols−1``:
    the (pivot column, row) pairs in column order, each row zero left of its
    pivot, and the nonzero rows left over, zero on those columns, in order.
    Each row in turn is reduced at its leading column by the kept row that
    leads there until it is zero or leads at a new column, where it is kept.
    So the kept row at a column is the first row to lead there, and the
    pivot columns are the greedy column profile of the matrix."""
    kept: dict[int, dict[int, int]] = {}
    rest = []
    for row in rows:
        while row and (c := min(row)) in kept:
            row = _eliminate(row, kept[c], c)
        if row and c < ncols:
            kept[c] = row
        elif row:
            rest.append(row)
    return sorted(kept.items()), rest


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

def _columns(rows: Matrix, w: int) -> list[int]:
    """The rows of ``[A | b]`` (or of A) as :func:`solve_layered` reads them,
    each over the lcm of its denominators; only ``w`` layers are read."""
    height = len(rows)
    num = [0] * (height * len(rows[0]) * w) if rows else []
    for i, row in enumerate(rows):
        scale = lcm(*[e.den for e in row])
        for j, e in enumerate(row):
            for layer, v in enumerate(e.nums[:w]):
                num[(j * height + i) * w + layer] = v * (scale // e.den)
    return num


def _rows(num: Sequence[int], height: int, ncols: int,
          w: int) -> list[dict[int, int]]:
    """Equation i of the array as one sparse int row: layer l of unknown j
    at column ``l·ncols + j``, layer l of b at ``w·ncols + l``."""
    rows: list[dict[int, int]] = [{} for _ in range(height)]
    for k in itertools.compress(range(len(num)), num):
        (j, i), layer = divmod(k // w, height), k % w
        rows[i][layer * ncols + j if j < ncols else w * ncols + layer] = num[k]
    return rows


def _layer(row: dict[int, int], layer: int, ncols: int,
           width: int) -> dict[int, int]:
    """A combined row as a row of the layered system in ``layer``: A^l (A⁰
    in layer 0) in block 0, the body part in block l, b^l at ``width``."""
    shift = layer * ncols
    return {width if c >= width else c + shift if c < ncols else c - shift: v
            for c, v in row.items() if c < ncols or c == width + layer
            or c < width and c // ncols == layer}


def _layered(num: Sequence[int], height: int, ncols: int,
             m: int) -> list[tuple[int, dict[int, int]]]:
    """The echelon of the layered system, A⁰ reduced once: the body pass,
    then one :func:`_echelon` over the body rows ``[R | b⁰]``, then the
    cokernel rows ``[C·A^l | b^l]`` and the pivot rows ``[E·A^l | R in
    block l | b^l]`` of each layer.  A cokernel row with ``b⁰ ≠ 0`` raises
    NoSolution at once.  Over Q (m = 0) the body echelon is the answer."""
    width, layers = (m + 1) * ncols, range(1, m + 1)
    body, coker = _echelon(_rows(num, height, ncols, m + 1), ncols)
    if any(width in row for row in coker):
        raise NoSolution("inconsistent linear system")
    if not m:
        return body
    pivots = [row for _, row in body]
    return _echelon([_layer(row, layer, ncols, width) for layer, rows in
                     [(0, pivots), *((k, coker) for k in layers),
                      *((k, pivots) for k in layers)] for row in rows],
                    width + 1)[0]


def _ring_vector(x: dict[int, int], den: int, ncols: int,
                 m: int) -> list[RingElement]:
    """Coordinate j from its layers ``x[j], x[ncols + j], …`` over ``den``."""
    return [from_layers([x.get(layer * ncols + j, 0)
                         for layer in range(m + 1)], den)
            for j in range(ncols)]


def solve_layered(num: Sequence[int], height: int, ncols: int,
                  ring: SquareZeroRing) -> list[RingElement]:
    """Some exact solution of ``A·x = b`` over ``ring``, or NoSolution, for
    ``[A | b]`` as a :class:`~dgnerve.dgcat.LayerSum` holds it: entry (i, j),
    b in column ``ncols``, has its ``w = ring.ideal_rank + 1`` int layers at
    ``num[(j·height + i)·w:]``, over a denominator that A and b share."""
    m = ring.ideal_rank
    width = (m + 1) * ncols          # the column of b, where x holds −1
    echelon = _layered(num, height, ncols, m)
    if echelon and echelon[-1][0] == width:
        raise NoSolution("inconsistent linear system")
    return _ring_vector(*_back_substitute(echelon, {width: -1}), ncols, m)


def solve_linear(matrix: Matrix, rhs: Vector,
                 ring: SquareZeroRing) -> list[RingElement]:
    """Some exact solution of ``A·x = b`` over ``ring``, or NoSolution."""
    return solve_layered(_columns([[*row, rhs[i]] for i, row in
                                   enumerate(matrix)], ring.ideal_rank + 1),
                         len(matrix), len(matrix[0]) if matrix else 0, ring)


def nullspace(num: Sequence[int], height: int, ncols: int,
              ring: SquareZeroRing) -> list[list[RingElement]]:
    """A rational basis of ``{x : A·x = 0}`` over ``ring`` (as a Q-space),
    one vector per free column, 1 there and 0 at the other free columns,
    for A as :func:`solve_layered` takes it, with no b column."""
    m = ring.ideal_rank
    echelon = _layered(num, height, ncols, m)
    pivots = {c for c, _ in echelon}
    return [_ring_vector(*_back_substitute(echelon, {j: 1}), ncols, m)
            for j in range((m + 1) * ncols) if j not in pivots]
