"""Coherent-nerve simplices and cochains over a finite dg-category.

An *n-simplex* is the data of objects ``X_0 … X_n`` and, for every strictly
increasing vertex sequence ``s = (i_0 < … < i_k)`` with ``k ≥ 1``, a cell
``α(s) ∈ hom(X_{i_0}, X_{i_k})`` of degree ``1 − k``.  The simplex is valid
when every cell's differential equals the alternating sum of its interior
faces plus the weighted sum of its two-sided cuts — the residual

    R(s) = d(α(s)) − Σ_p (−1)^p α(s∖i_p)
                   − Σ_p (−1)^{k(p+1)} α(i_p … i_k) ∘ α(i_0 … i_p)

(interior positions ``0 < p < k`` only) must vanish.  At n = 2 this is the
familiar  d(α(0,1,2)) = α(1,2)∘α(0,1) − α(0,2).

A *cochain* from a simplex F to a simplex G of the same dimension assigns
to each sequence a morphism ``η(s) ∈ hom(X^F_{i_0}, X^G_{i_k})`` of degree
``|η| − k`` (no vertex components).  Cochains carry a differential twisted
by the cells of F and G,

    d(η) = d_M(η) − g∘η + (−1)^{|η|} η∘f,

and an associative convolution product for which that differential is a
derivation.  Residuals and cochains share one face sum and one cut sum (for
residuals, the cells convolved with themselves), read from mappings where an
absent sequence is zero.  All signs route through a :class:`SignPattern`; the
shipped :data:`PINNED` pattern is the unique one of the sixteen candidates
that reproduces the n = 2 anchor *and* satisfies d² = 0 and the Leibniz rule
(the calibration test re-runs the search; only ``cell_residual`` and the
cochain operations take a pattern, everything else uses :data:`PINNED`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .dgcat import (DgCategory, Morphism, MorphismSum, NotEquivalence,
                    Violation, find_equivalence_witness)

Seq = tuple[int, ...]


@dataclass(frozen=True)
class SignPattern:
    """The four free sign bits of the face/cut conventions.

    face term of length-k sequences:  (−1)^{p + face_flip + face_k_twist·k}
    cut term (before the Koszul factor of the inner cochain):
                                      (−1)^{p(k+1) + cut_flip + cut_p_twist·(p+1)}
    """

    face_flip: int = 0
    face_k_twist: int = 0
    cut_flip: int = 0
    cut_p_twist: int = 0

    def face_sign(self, p: int, k: int) -> int:
        return (-1) ** (p + self.face_flip + self.face_k_twist * k)

    def cut_sign(self, p: int, k: int) -> int:
        return (-1) ** (p * (k + 1) + self.cut_flip
                        + self.cut_p_twist * (p + 1))


PINNED = SignPattern()


# -- simplices ----------------------------------------------------------------

def increasing_sequences(n: int) -> list[Seq]:
    """All strictly increasing sequences of at least two vertices in {0..n},
    shortest first."""
    return [seq for length in range(2, n + 2)
            for seq in itertools.combinations(range(n + 1), length)]


@dataclass(frozen=True)
class NerveSimplex:
    """Objects plus one cell per increasing vertex sequence of length ≥ 2."""

    objects: tuple[str, ...]
    cells: Mapping[Seq, Morphism]

    @property
    def n(self) -> int:
        return len(self.objects) - 1

    def cell(self, seq: Seq) -> Morphism:
        try:
            return self.cells[tuple(seq)]
        except KeyError:
            raise ValueError(f"simplex has no cell for {seq}") from None


# -- residuals ----------------------------------------------------------------

def required_boundary(cat: DgCategory, objects: Sequence[str],
                      cells: Mapping[Seq, Morphism], seq: Seq) -> Morphism:
    """What d(cell(seq)) must equal for the simplex data to be valid:

        Σ_p face_sign(p,k)·cell(s∖i_p)
      + Σ_p cut_sign(p,k)·(−1)^{k−p}·cell(top_p)∘cell(bot_p)

    over ``0 < p < k``: the face sum, and the cut sum of the cells convolved
    with themselves as a degree-1 cochain.  Only faces and cuts of ``seq``
    are read, and an absent cell counts as zero, so horn data serves too.
    """
    total = MorphismSum(cat, objects[seq[0]], objects[seq[-1]], 3 - len(seq))
    _add_faces(total, cells, seq, PINNED, 1)
    return _add_convolution(total, cells, cells, 1, seq, PINNED, 1).result()


def _residual_sum(cat: DgCategory, cells: Mapping[Seq, Morphism], seq: Seq,
                  signs: SignPattern, reads: dict | None) -> MorphismSum:
    """R(seq) on the accumulator, reading cells through ``reads``."""
    cell = cells[seq]
    total = MorphismSum(cat, cell.source, cell.target, cell.degree + 1)
    total._reads = reads
    _add_faces(total.add_differential(cell), cells, seq, signs, -1)
    return _add_convolution(total, cells, cells, 1, seq, signs, -1)


def cell_residual(cat: DgCategory, cells: Mapping[Seq, Morphism], seq: Seq,
                  signs: SignPattern = PINNED) -> Morphism:
    """R(seq) = d(cell(seq)) − required boundary, for simplex or horn data;
    zero exactly when the cell at ``seq`` satisfies its equation."""
    return _residual_sum(cat, cells, seq, signs, None).result()


def cell_shape_violation(cat: DgCategory, objects: Sequence[str], seq: Seq,
                         cell: Morphism | None) -> Violation | None:
    """Why ``cell`` cannot be the cell at ``seq`` (None if it can): it is
    missing, or its endpoints, degree 1 − k or coordinate count are off."""
    if cell is None:
        return Violation("missing_cell", seq, "no cell stored")
    src, tgt, deg = objects[seq[0]], objects[seq[-1]], 2 - len(seq)
    if (cell.source, cell.target) != (src, tgt):
        return Violation("cell_endpoints", seq,
                         f"cell maps {cell.source}->{cell.target}, "
                         f"expected {src}->{tgt}")
    if cell.degree != deg:
        return Violation("cell_degree", seq,
                         f"degree {cell.degree}, expected {deg}")
    if len(cell.coords) != cat.rank(src, tgt, deg):
        return Violation("cell_rank", seq, "wrong coordinate count")
    return None


def cell_violations(cat: DgCategory, objects: Sequence[str],
                    cells: Mapping[Seq, Morphism], seqs: Sequence[Seq],
                    detail: str,
                    found: Sequence[Violation] = ()) -> list[Violation]:
    """``found`` plus the shape violations of the cells at ``seqs``; when
    there are none, one ``residual`` (with ``detail``) per cell at ``seqs``
    whose equation fails.  The sweep reads each cell once."""
    shapes = (cell_shape_violation(cat, objects, seq, cells.get(seq))
              for seq in seqs)
    out = [*found, *filter(None, shapes)]
    if out:
        return out
    reads: dict = {}
    return [Violation("residual", seq, detail) for seq in seqs
            if not _residual_sum(cat, cells, seq, PINNED, reads).is_zero()]


def validate_simplex(cat: DgCategory,
                     simplex: NerveSimplex) -> list[Violation]:
    """Shape and residual violations of one simplex (empty = valid)."""
    n = simplex.n
    if n < 0:
        return [Violation("shape", ("objects",), "no vertices")]
    for obj in simplex.objects:
        if obj not in cat.identities:
            return [Violation("shape", (obj,), "unknown object")]
    return cell_violations(cat, simplex.objects, simplex.cells,
                           increasing_sequences(n),
                           "cell differential does not match faces/cuts")


def validate_star(cat: DgCategory, simplex: NerveSimplex) -> list[Violation]:
    """validate_simplex plus: every edge has a homotopy-inverse witness."""
    out = validate_simplex(cat, simplex)
    if out:
        return out
    for i, j in itertools.combinations(range(simplex.n + 1), 2):
        edge = simplex.cell((i, j))
        try:
            find_equivalence_witness(cat, edge)
        except NotEquivalence:
            out.append(Violation("edge_not_equivalence", (i, j),
                                 "edge admits no homotopy inverse"))
    return out


# -- simplicial operators -------------------------------------------------------

def face(simplex: NerveSimplex, i: int) -> NerveSimplex:
    """Delete vertex i and keep the cells not involving it."""
    n = simplex.n
    if not 0 <= i <= n:
        raise ValueError("face index out of range")
    objects = simplex.objects[:i] + simplex.objects[i + 1:]
    old = (*range(i), *range(i + 1, n + 1))          # new vertex → old
    return NerveSimplex(objects, {
        seq: simplex.cell(tuple(old[v] for v in seq))
        for seq in increasing_sequences(n - 1)})


def degeneracy(cat: DgCategory, simplex: NerveSimplex, i: int) -> NerveSimplex:
    """Repeat vertex i; the new (i, i+1) edge is the identity, and cells
    spanning both copies otherwise vanish (strict unitality).  Each other
    cell is the one at the sequence's image, which ``combinations`` over the
    images of the new vertices gives in step with
    :func:`increasing_sequences`, so the cells come in that order."""
    n = simplex.n
    if not 0 <= i <= n:
        raise ValueError("degeneracy index out of range")
    objects = simplex.objects[:i + 1] + simplex.objects[i:]
    collapse = (*range(i + 1), *range(i, n + 1))
    images = (image for length in range(2, n + 3)
              for image in itertools.combinations(collapse, length))
    old, cells = simplex.cells, {}
    for seq, image in zip(increasing_sequences(n + 1), images):
        if i not in seq or i + 1 not in seq:
            cells[seq] = old[image]
        elif len(seq) == 2:
            cells[seq] = cat.identity(simplex.objects[i])
        else:
            cells[seq] = cat.zero(objects[seq[0]], objects[seq[-1]],
                                  2 - len(seq))
    return NerveSimplex(objects, cells)


# -- cochains -------------------------------------------------------------------

@dataclass(frozen=True)
class NerveCochain:
    """A graded map between two same-dimension simplices' cell data."""

    source: NerveSimplex
    target: NerveSimplex
    degree: int
    components: Mapping[Seq, Morphism] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.source.n


def cochain_equal(left: NerveCochain, right: NerveCochain) -> bool:
    """Same degree, same vertex objects and the same nonzero components: a
    stored zero counts as absent."""
    def nonzero(c: NerveCochain) -> dict[Seq, Morphism]:
        return {s: f for s, f in c.components.items() if not f.is_zero()}
    return (left.degree, left.source.objects, left.target.objects) == \
        (right.degree, right.source.objects, right.target.objects) and \
        nonzero(left) == nonzero(right)


def _add_faces(total: MorphismSum, parts: Mapping[Seq, Morphism], seq: Seq,
               signs: SignPattern, sign: int) -> MorphismSum:
    """``total += sign·Σ_p face_sign(p, k)·parts(seq∖i_p)`` over the interior
    positions of ``seq``; parts that are not stored are zero."""
    k = len(seq) - 1
    for p in range(1, k):
        part = parts.get(seq[:p] + seq[p + 1:])
        if part is not None:
            total.add(part, sign * signs.face_sign(p, k))
    return total


def _add_convolution(total: MorphismSum, outer: Mapping[Seq, Morphism],
                     inner: Mapping[Seq, Morphism], inner_degree: int,
                     seq: Seq, signs: SignPattern, sign: int) -> MorphismSum:
    """``total += sign·(outer ∘ inner)(seq)``, summed over the two-sided cuts
    of ``seq`` with the Koszul sign of an inner cochain of degree
    ``inner_degree``; parts that are not stored are zero."""
    k = len(seq) - 1
    for p in range(1, k):
        outer_part = outer.get(seq[p:])
        inner_part = inner.get(seq[:p + 1])
        if outer_part is not None and inner_part is not None:
            koszul = -1 if inner_degree * (k - p) % 2 else 1
            total.add_compose(outer_part, inner_part,
                              sign * signs.cut_sign(p, k) * koszul)
    return total


def cochain_compose(cat: DgCategory, outer: NerveCochain, inner: NerveCochain,
                    signs: SignPattern = PINNED) -> NerveCochain:
    """Convolution ``outer ∘ inner`` over all two-sided cuts of each
    sequence; associative, and a Leibniz pair with the differential."""
    if inner.target.objects != outer.source.objects or \
            inner.target.cells != outer.source.cells:
        raise ValueError("cochains do not compose: middle simplices differ")
    degree = outer.degree + inner.degree
    components: dict[Seq, Morphism] = {}
    for seq in increasing_sequences(inner.n):
        total = MorphismSum(cat, inner.source.objects[seq[0]],
                            outer.target.objects[seq[-1]],
                            degree - (len(seq) - 1))
        _add_convolution(total, outer.components, inner.components,
                         inner.degree, seq, signs, 1)
        if not total.is_zero():
            components[seq] = total.result()
    return NerveCochain(inner.source, outer.target, degree, components)


def cochain_differential(cat: DgCategory, cochain: NerveCochain,
                         signs: SignPattern = PINNED) -> NerveCochain:
    """The five-term twisted differential

        d(η)(s) = d_A(η(s)) + (−1)^{|η|} Σ_p (−1)^p η(s∖i_p)
                  − (g∘η)(s) + (−1)^{|η|} (η∘f)(s)

    where f and g are the cells of the source and target simplices.  On
    cochains between valid simplices it squares to zero.
    """
    t = cochain.degree
    koszul = -1 if t % 2 else 1
    f_cells, g_cells = cochain.source.cells, cochain.target.cells
    parts = cochain.components
    components: dict[Seq, Morphism] = {}
    for seq in increasing_sequences(cochain.n):
        k = len(seq) - 1
        total = MorphismSum(cat, cochain.source.objects[seq[0]],
                            cochain.target.objects[seq[-1]], t + 1 - k)
        own = parts.get(seq)
        if own is not None:
            total.add_differential(own)
        _add_faces(total, parts, seq, signs, koszul)
        _add_convolution(total, g_cells, parts, t, seq, signs, -1)
        _add_convolution(total, parts, f_cells, 1, seq, signs, koszul)
        if not total.is_zero():
            components[seq] = total.result()
    return NerveCochain(cochain.source, cochain.target, t + 1, components)


def cochain_add(left: NerveCochain, right: NerveCochain) -> NerveCochain:
    if (left.degree, left.source.objects, left.target.objects) != \
            (right.degree, right.source.objects, right.target.objects):
        raise ValueError("cochain shapes differ")
    components = dict(left.components)
    for seq, morphism in right.components.items():
        if seq in components:
            coords = zip(components[seq].coords, morphism.coords, strict=True)
            total = Morphism(morphism.source, morphism.target, morphism.degree,
                             tuple(a + b for a, b in coords))
            if total.is_zero():
                del components[seq]
            else:
                components[seq] = total
        else:
            components[seq] = morphism
    return NerveCochain(left.source, left.target, left.degree, components)


def cochain_scale(cochain: NerveCochain, sign: int | float) -> NerveCochain:
    """``sign·cochain`` for a sign ±1, an int or a float such as
    ``(−1) ** degree``: each coordinate is kept or negated."""
    if sign not in (1, -1):
        raise ValueError(f"cochain_scale takes a sign ±1, not {sign!r}")
    return NerveCochain(cochain.source, cochain.target, cochain.degree, {
        seq: m if sign == 1 else Morphism(m.source, m.target, m.degree,
                                          tuple(-c for c in m.coords))
        for seq, m in cochain.components.items() if not m.is_zero()})
