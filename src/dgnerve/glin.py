"""Exact linear algebra over square-zero extensions.

Matrices are lists of rows of :class:`~dgnerve.rings.RingElement`.  The one
nontrivial operation is :func:`solve_linear`: solving ``A·x = b`` over
``B = Q ⊕ I``.  Writing ``x = x⁰ + Σ_l ε_l·x^l`` and splitting every entry
into layers turns the system into a single rational one,

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
any exact Gauss-Jordan elimination gives.  Free variables are set to 0, so
results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rings import RingElement, SquareZeroRing

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
    pending = [row for row in map(_integer_row, rows) if row]
    echelon: list[dict[int, int]] = []
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        if not pending:
            break
        i = next((i for i, row in enumerate(pending) if c in row), None)
        if i is None:
            continue
        pivot = pending.pop(i)
        echelon = [_eliminate(row, pivot, c) if c in row else row
                   for row in echelon]
        pending = [_eliminate(row, pivot, c) if c in row else row
                   for row in pending]
        pending = [row for row in pending if row]
        pivots.append((len(echelon), c))
        echelon.append(pivot)
    zero = Fraction(0)
    mat = [[zero] * ncols for _ in range(nrows)]
    for (r, c), row in zip(pivots, echelon):
        p = row[c]
        for j, v in row.items():
            mat[r][j] = Fraction(v, p)
    return mat, pivots


def _integer_row(row: Sequence[Fraction]) -> dict[int, int]:
    """The nonzero entries of ``row`` times the lcm of their denominators."""
    entries = {c: v for c, v in enumerate(row) if v}
    scale = lcm(*[v.denominator for v in entries.values()])
    return {c: v.numerator * (scale // v.denominator)
            for c, v in entries.items()}


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


def solve_rational(rows: Sequence[Sequence[Fraction]],
                   rhs: Sequence[Fraction]) -> list[Fraction]:
    """One solution of a rational system (free variables 0), or NoSolution."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0:
        return []
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    solution = [Fraction(0)] * ncols
    for r, c in pivots:
        if c == ncols:
            raise NoSolution("inconsistent linear system")
        solution[c] = red[r][ncols]
    return solution


def rational_nullspace(rows: Sequence[Sequence[Fraction]],
                       ncols: int) -> list[list[Fraction]]:
    """A basis of the rational kernel of the matrix."""
    if not rows:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    red, pivots = rref(rows)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, c in pivots:
            v[c] = -red[r][j]
        basis.append(v)
    return basis


# -- layered systems over B ---------------------------------------------------

def _expand(matrix: Matrix, rhs: Vector,
            ring: SquareZeroRing) -> tuple[list[list[Fraction]], list[Fraction], int]:
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    m = ring.ideal_rank
    zero = Fraction(0)
    big_rows: list[list[Fraction]] = []
    big_rhs: list[Fraction] = []
    for layer in range(m + 1):
        for i in range(nrows):
            row = [zero] * ((m + 1) * ncols)
            for j in range(ncols):
                entry = matrix[i][j]
                body = entry.body
                if body != 0:
                    row[layer * ncols + j] = body
                if layer > 0:
                    ideal_coeff = entry.ideal[layer - 1]
                    if ideal_coeff != 0:
                        row[j] += ideal_coeff
            big_rows.append(row)
            b = rhs[i]
            big_rhs.append(b.body if layer == 0 else b.ideal[layer - 1])
    return big_rows, big_rhs, ncols


def solve_linear(matrix: Matrix, rhs: Vector,
                 ring: SquareZeroRing) -> list[RingElement]:
    """Some exact solution of ``A·x = b`` over ``ring``, or NoSolution."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ncols == 0:
        if any(not b.is_zero() for b in rhs):
            raise NoSolution("inconsistent linear system (no unknowns)")
        return []
    big_rows, big_rhs, _ = _expand(matrix, rhs, ring)
    flat = solve_rational(big_rows, big_rhs)
    m = ring.ideal_rank
    return [RingElement(flat[j],
                        tuple(flat[layer * ncols + j] for layer in range(1, m + 1)))
            for j in range(ncols)]


def nullspace(matrix: Matrix, ring: SquareZeroRing) -> list[list[RingElement]]:
    """A rational basis of ``{x : A·x = 0}`` over ``ring`` (as a Q-space)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    zero_rhs = [ring.zero()] * nrows
    big_rows, _, _ = _expand(matrix, zero_rhs, ring)
    m = ring.ideal_rank
    basis = rational_nullspace(big_rows, (m + 1) * ncols)
    out = []
    for flat in basis:
        out.append([RingElement(flat[j],
                                tuple(flat[layer * ncols + j]
                                      for layer in range(1, m + 1)))
                    for j in range(ncols)])
    return out


# -- matrix utilities ---------------------------------------------------------

def compose_maps(outer: Matrix, inner: Matrix) -> list[list[RingElement]]:
    """Matrix of ``outer ∘ inner`` (apply ``inner`` first)."""
    if outer and inner and len(outer[0]) != len(inner):
        raise ValueError("matrix shapes do not compose")
    if not inner or not inner[0]:
        return [[] for _ in outer]
    inner_cols = len(inner[0])
    out: list[list[RingElement]] = []
    for row in outer:
        new_row = []
        for c in range(inner_cols):
            acc = None
            for k, coeff in enumerate(row):
                if coeff.is_zero():
                    continue
                term = coeff * inner[k][c]
                acc = term if acc is None else acc + term
            if acc is None:
                zero_proto = row[0] if row else inner[0][c]
                acc = RingElement(Fraction(0),
                                  (Fraction(0),) * len(zero_proto.ideal))
            new_row.append(acc)
        out.append(new_row)
    return out


def mat_vec(matrix: Matrix, vec: Vector, ring: SquareZeroRing) -> list[RingElement]:
    out = []
    for row in matrix:
        acc = ring.zero()
        for coeff, x in zip(row, vec):
            if not coeff.is_zero() and not x.is_zero():
                acc = acc + coeff * x
        out.append(acc)
    return out


def identity_matrix(n: int, ring: SquareZeroRing) -> list[list[RingElement]]:
    return [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]
