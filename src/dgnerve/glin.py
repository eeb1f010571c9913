"""Exact linear algebra over square-zero extensions: elimination only.

The horn fillers and square-zero lifts need two things, an exact solve
for the equivalence witness (a, g, h) and kernels of a hom block's
differential: :func:`solve_linear` and :func:`nullspace`, on lists of rows
of :class:`~dgnerve.rings.RingElement`.  Writing ``x = x⁰ + Σ_l ε_l·x^l``
and splitting every entry into layers turns ``A·x = b`` over
``B = Q ⊕ I`` into a single rational system,

    A⁰·x⁰           = b⁰          (body layer)
    A⁰·x^l + A^l·x⁰ = b^l         (one block per ideal generator),

which is solved *jointly* by one row reduction (:func:`rref`).  Solving the
body first and then patching the ideal layers is not equivalent: when the
body matrix is singular the body solution must be chosen compatibly with the
ideal blocks (``A=[[ε]], b=[ε]`` has the solution ``x=1`` even though the
body system is ``0·x = 0``).  Consequently solvability over ``B`` implies
solvability of the body system over Q, but not conversely.

:func:`rref` eliminates on sparse integer rows and forms ``Fraction``s only
at the end; its result is the unique reduced row echelon form, the same as
any exact Gauss-Jordan elimination gives.  :func:`solve_linear` and
:func:`nullspace` copy the integer layers of each ``RingElement`` into such
rows and hand them to the same elimination loop.  Free variables are set
to 0, so results are deterministic.
"""

from __future__ import annotations

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

    Fraction-free Gauss-Jordan elimination on sparse integer rows.  Each
    input row is multiplied by the lcm of its denominators into a row
    ``{col: int}`` that holds only its nonzero entries.  Column by column,
    the first remaining row with a nonzero entry there becomes the pivot
    row, and every other row ``row`` with a nonzero ``f`` in that column is
    replaced by ``a·row − b·pivot`` (``p`` the pivot, ``g = gcd(p, f)``,
    ``a = p/g``, ``b = f/g``), then divided by the gcd of its entries.  Only
    at the end is each pivot row divided by its pivot into ``Fraction``s.

    Every step multiplies a row by a nonzero scalar or adds a multiple of
    another row to it, so the row space never changes; the RREF of a matrix
    is unique, so the result is the one any exact elimination gives: the
    pivot rows in column order, then the zero rows.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    echelon = _echelon([_integer_row(row) for row in rows], ncols)
    zero = Fraction(0)
    mat = [[zero] * ncols for _ in range(nrows)]
    for r, (c, row) in enumerate(echelon):
        for j, v in row.items():
            mat[r][j] = Fraction(v, row[c])
    return mat, [(r, c) for r, (c, _) in enumerate(echelon)]


def _echelon(rows: list[dict[int, int]],
             ncols: int) -> list[tuple[int, dict[int, int]]]:
    """The one elimination loop (see :func:`rref`) on integer rows: the
    (pivot column, reduced row) pairs in column order, still undivided."""
    pending = [row for row in rows if row]
    echelon: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        if not pending:
            break
        i = next((i for i, row in enumerate(pending) if c in row), None)
        if i is None:
            continue
        pivot = pending.pop(i)
        echelon = [(d, _eliminate(row, pivot, c)) if c in row else (d, row)
                   for d, row in echelon]
        pending = [_eliminate(row, pivot, c) if c in row else row
                   for row in pending]
        pending = [row for row in pending if row]
        echelon.append((c, pivot))
    return echelon


def _integer_row(row: Sequence[Fraction]) -> dict[int, int]:
    """The nonzero entries ``{col: int}`` of ``row`` times the lcm of its
    denominators."""
    scale = lcm(*[v.denominator for v in row])
    return {c: v.numerator * (scale // v.denominator)
            for c, v in enumerate(row) if v}


def _eliminate(row: dict[int, int], pivot: dict[int, int],
               c: int) -> dict[int, int]:
    """``a·row − b·pivot``, which is 0 in column ``c``, over its content."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    content = gcd(*out.values())
    return {j: v // content for j, v in out.items()} if content > 1 else out


def _solve(rows: list[dict[int, int]], ncols: int) -> list[Fraction]:
    """One solution (free variables 0) of integer rows ``[A | b]``, with
    ``b`` in column ``ncols``, or NoSolution."""
    solution = [Fraction(0)] * ncols
    for c, row in _echelon(rows, ncols + 1):
        if c == ncols:
            raise NoSolution("inconsistent linear system")
        solution[c] = Fraction(row.get(ncols, 0), row[c])
    return solution


def _kernel(rows: list[dict[int, int]], ncols: int) -> list[list[Fraction]]:
    """A basis of the rational kernel of integer rows, one vector per
    non-pivot column."""
    echelon = _echelon(rows, ncols)
    pivot_cols = {c for c, _ in echelon}
    basis = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for c, row in echelon:
            v[c] = -Fraction(row.get(j, 0), row[c])
        basis.append(v)
    return basis


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


def _ring_vector(flat: Sequence[Fraction], ncols: int) -> list[RingElement]:
    """Coordinate j from its layers ``flat[j], flat[ncols + j], …``."""
    out = []
    for layers in (flat[j::ncols] for j in range(ncols)):
        den = lcm(*[q.denominator for q in layers])
        out.append(from_layers([q.numerator * den // q.denominator
                                for q in layers], den))
    return out


def solve_linear(matrix: Matrix, rhs: Vector,
                 ring: SquareZeroRing) -> list[RingElement]:
    """Some exact solution of ``A·x = b`` over ``ring``, or NoSolution."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ncols == 0:
        if any(not b.is_zero() for b in rhs):
            raise NoSolution("inconsistent linear system (no unknowns)")
        return []
    m = ring.ideal_rank
    flat = _solve(_expand(matrix, rhs, ring), (m + 1) * ncols)
    return _ring_vector(flat, ncols)


def nullspace(matrix: Matrix, ring: SquareZeroRing) -> list[list[RingElement]]:
    """A rational basis of ``{x : A·x = 0}`` over ``ring`` (as a Q-space).

    It reads only the layers ``ring`` has: over RATIONALS, only bodies.
    """
    if not matrix:      # the kernel is all of Q^n, but n is unknown
        raise ValueError("nullspace of a matrix with no rows")
    ncols = len(matrix[0])
    m = ring.ideal_rank
    return [_ring_vector(flat, ncols) for flat in
            _kernel(_expand(matrix, None, ring), (m + 1) * ncols)]

