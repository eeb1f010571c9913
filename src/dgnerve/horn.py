"""Horns of the coherent nerve: obstructions, explicit fillers, lifting.

A *horn* ``(n, k)`` is the data of an n-simplex with two cells removed —
the top cell ``α(0,…,n)`` and the k-th codimension-1 face — subject to all
residual equations that involve only the remaining cells.  This module
computes the obstruction pair (U, V) controlling the two missing
equations, produces explicit fillers:

* inner ``0 < k < n``:  α̂_face = −σ_k·V and α̂_top = 0, where
  σ_k is the face sign at position k — no invertibility needed;
* outer ``k = 0``:  α̂_face = −V∘a + (−1)ⁿ U∘h and
  α̂_top = (−1)ⁿ(α̂_face∘h∘α − α̂_face∘α∘g − V∘g), where (a, g, h) is an
  equivalence witness for the first edge α = α(0,1);
* outer ``k = n``: reduced to ``k = 0`` in the opposite category via the
  order-reversing vertex map and a per-cell sign twist,

and lifts fillers through square-zero ring extensions: given a filler of
the horn reduced mod the ideal, the error terms (φ, ψ) of an arbitrary
coordinate lift are pure-ideal and satisfy the identities of an
obstruction pair, so the same formulas applied to (φ, ψ) give the
correction ε that repairs the lift exactly.  Both paths go through one
solver, ``_solve_pair``, and k = n horns cross to the opposite category
once, in ``compute_obstruction``.

``check_gp`` packages all of this into seeded randomized sweeps: sample a
valid simplex, puncture it, refill, validate, then run the reduce/lift
round trip — the executable form of the horn-extension conditions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .dgcat import (DgCategory, Morphism, MorphismSum, NotEquivalence,
                    Violation, find_equivalence_witness, opposite,
                    witness_call_count)
from .mc import (promote_morphism, reduce_category, reduce_morphism,
                 tensor_with_ring)
from .nerve import (NerveSimplex, PINNED, Seq, cell_shape_violation,
                    cell_violations, degeneracy, increasing_sequences,
                    required_boundary, validate_simplex)
from .rings import SquareZeroRing


class HornError(Exception):
    """Base class for horn-processing failures."""


class IncompatibleHorn(HornError):
    """The horn's present cells violate a residual or shape condition."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(f"{v.kind}@{v.location}" for v in violations[:4])
        super().__init__(f"incompatible horn: {lines}")


class CannotFillOuterHorn(HornError):
    """The witnessed edge of an outer horn admits no equivalence witness."""


class InvalidReduction(HornError):
    """The supplied mod-ideal filler does not solve the reduced horn."""


# -- horn data ----------------------------------------------------------------

@dataclass(frozen=True)
class HornData:
    """All cells of an n-simplex except the k-face and the top cell."""

    n: int
    k: int
    objects: tuple[str, ...]
    cells: Mapping[Seq, Morphism]

    @property
    def full_seq(self) -> Seq:
        return tuple(range(self.n + 1))

    @property
    def missing_face(self) -> Seq:
        return tuple(i for i in range(self.n + 1) if i != self.k)

    @property
    def missing(self) -> tuple[Seq, Seq]:
        return (self.missing_face, self.full_seq)

    def present_sequences(self) -> list[Seq]:
        skip = {self.missing_face, self.full_seq}
        return [s for s in increasing_sequences(self.n) if s not in skip]


def extract_horn(simplex: NerveSimplex, k: int) -> HornData:
    """Forget the k-face and top cell of a simplex (test-data generator)."""
    n = simplex.n
    if n < 2:
        raise ValueError("horns require n >= 2")
    if not 0 <= k <= n:
        raise ValueError("horn index k out of range")
    horn = HornData(n, k, simplex.objects, {})
    skip = set(horn.missing)
    cells = {seq: cell for seq, cell in simplex.cells.items()
             if seq not in skip}
    return HornData(n, k, simplex.objects, cells)


def complete_horn(horn: HornData, filler: "Filler") -> NerveSimplex:
    """Insert the filler's two cells back into the horn."""
    if (filler.n, filler.k) != (horn.n, horn.k):
        raise ValueError("filler does not match horn dimensions")
    cells = dict(horn.cells)
    cells[horn.missing_face] = filler.face
    cells[horn.full_seq] = filler.top
    return NerveSimplex(horn.objects, cells)


def check_horn(cat: DgCategory, horn: HornData) -> list[Violation]:
    """Shape and compatibility violations (empty = fillable input data).

    Every residual equation involving only present cells is checked; the
    two equations through the missing cells are the filler's job.
    """
    n, k = horn.n, horn.k
    if n < 2:
        return [Violation("horn_shape", (n, k), "need n >= 2")]
    if not 0 <= k <= n:
        return [Violation("horn_shape", (n, k), "k out of range")]
    if len(horn.objects) != n + 1:
        return [Violation("horn_shape", (n, k), "object list has wrong length")]
    for obj in horn.objects:
        if obj not in cat.identities:
            return [Violation("horn_shape", (obj,), "unknown object")]
    present = horn.present_sequences()
    unexpected = [Violation("unexpected_cell", tuple(seq),
                            "cell stored for a missing or invalid sequence")
                  for seq in set(horn.cells) - set(present)]
    return cell_violations(cat, horn.objects, horn.cells, present,
                           "present cells violate a residual equation",
                           unexpected)


# -- obstructions --------------------------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    """The pair (U, V) controlling the two missing equations of a horn.

    With α̂_face and α̂_top the unknown cells, the remaining residual
    equations read  d(α̂_face) = U  together with

        d(α̂_top) = α̂_face∘α + V       (outer, α the witnessed first edge)
        d(α̂_top) = sign·α̂_face + V    (inner).

    For k = n the data is computed in the opposite category after vertex
    reversal (``op_reduced``), where it takes the outer k = 0 shape.
    ``U`` has degree 3−n and ``V`` degree 2−n; d(U) = 0 always, and
    d(V) = −U∘α (outer) or sign·U + d(V) = 0 (inner).
    """

    n: int
    k: int
    U: Morphism
    V: Morphism
    sign: int | None
    alpha: Morphism | None
    category: DgCategory
    op_reduced: bool = False


def _top_equation(obs: Obstruction, top: Morphism, face: Morphism,
                  sign: int) -> MorphismSum:
    """d(top) + sign·face∘α (outer) or d(top) + sign·σ·face (inner), in
    ``obs.category``: the top cell's equation, through the face cell."""
    total = MorphismSum(obs.category, top.source, top.target, top.degree + 1)
    total.add_differential(top)
    if obs.alpha is None:
        return total.add(face, sign * obs.sign)
    return total.add_compose(face, obs.alpha, sign)


def obstruction_violations(obs: Obstruction) -> list[Violation]:
    """Check the cocycle identities of an obstruction pair (empty = ok)."""
    out: list[Violation] = []
    U = obs.U
    if not MorphismSum(obs.category, U.source, U.target, U.degree + 1) \
            .add_differential(U).is_zero():
        out.append(Violation("obstruction_dU", (obs.n, obs.k),
                             "d(U) is nonzero"))
    if not _top_equation(obs, obs.V, U, 1).is_zero():
        out.append(Violation("obstruction_dV", (obs.n, obs.k),
                             "sign·U + d(V) is nonzero" if obs.alpha is None
                             else "d(V) + U∘α is nonzero"))
    return out


def compute_obstruction(cat: DgCategory, horn: HornData) -> Obstruction:
    problems = check_horn(cat, horn)
    if problems:
        raise IncompatibleHorn(problems)
    n, k = horn.n, horn.k
    op_reduced = k == n
    if op_reduced:
        cat, horn = opposite(cat), opposite_horn(horn)
    # Every other cell is present; the absent missing face reads as zero in V.
    U = required_boundary(cat, horn.objects, horn.cells, horn.missing_face)
    V = required_boundary(cat, horn.objects, horn.cells, horn.full_seq)
    if horn.k == 0:                        # k = 0, or k = n reversed
        obs = Obstruction(n, k, U, V, None, horn.cells[0, 1], cat, op_reduced)
    else:
        obs = Obstruction(n, k, U, V, PINNED.face_sign(k, n), None, cat)
    bad = obstruction_violations(obs)
    if bad:
        raise IncompatibleHorn(bad)
    return obs


# -- fillers -------------------------------------------------------------------

@dataclass(frozen=True)
class Filler:
    """The two new cells: ``top`` for (0,…,n), ``face`` for the k-face."""

    n: int
    k: int
    top: Morphism
    face: Morphism


def _solve_pair(obs: Obstruction, U: Morphism, V: Morphism) -> Filler:
    """A (face, top) with d(face) = U and d(top) = face∘α + V (outer) or
    sign·face + V (inner), in the vertex order of ``obs.category``.

    Inner: face = −σ·V, top = 0.  Outer: with (a, g, h) an equivalence
    witness for α, face = −V∘a + (−1)ⁿU∘h and
    top = (−1)ⁿ(face∘h∘α − face∘α∘g − V∘g).
    """
    cat, n, alpha = obs.category, obs.n, obs.alpha
    if alpha is None:
        return Filler(n, obs.k, cat.zero(V.source, V.target, V.degree - 1),
                      MorphismSum(cat, V.source, V.target, V.degree)
                      .add(V, -obs.sign).result())
    try:
        w = find_equivalence_witness(cat, alpha)
    except NotEquivalence as exc:
        raise CannotFillOuterHorn(
            f"edge ({n - 1}, {n}) admits no equivalence witness"
            if obs.op_reduced else
            f"edge (0, 1) admits no equivalence witness: {exc}") from exc
    sgn = (-1) ** n
    face = MorphismSum(cat, w.a.source, V.target, V.degree) \
        .add_compose(V, w.a, -1).add_compose(U, w.h, sgn).result()
    top = MorphismSum(cat, alpha.source, V.target, V.degree - 1) \
        .add_compose(face, cat.compose(w.h, alpha), sgn) \
        .add_compose(face, cat.compose(alpha, w.g), -sgn) \
        .add_compose(V, w.g, -sgn).result()
    return Filler(n, 0, top, face)


def _transport(obs: Obstruction, filler: Filler) -> Filler:
    """Move a filler between the horn's vertex order and the obstruction's
    (the two differ only for k = n, which is solved in the opposite)."""
    return opposite_filler(filler) if obs.op_reduced else filler


def fill_horn(cat: DgCategory, horn: HornData) -> Filler:
    """The one fill entry: inner horns in closed form (face = −σ_k·V,
    top = 0), k = 0 through an equivalence witness for the edge (0, 1), and
    k = n as k = 0 in the opposite category."""
    obs = compute_obstruction(cat, horn)
    return _transport(obs, _solve_pair(obs, obs.U, obs.V))


# -- opposite-category transport ------------------------------------------------

def _op_seq(n: int, seq: Seq) -> Seq:
    return tuple(n - v for v in reversed(seq))


def _mu(k: int) -> int:
    """Per-cell sign of the vertex-reversal map on bar-length-k cells."""
    return 1 if (k * (k + 1) // 2) % 2 == 1 else -1


def _op_cell(cell: Morphism, k: int) -> Morphism:
    coords = cell.coords if _mu(k) == 1 else tuple(-c for c in cell.coords)
    return Morphism(cell.target, cell.source, cell.degree, coords)


def _op_cells(n: int, cells: Mapping[Seq, Morphism]) -> dict[Seq, Morphism]:
    return {_op_seq(n, seq): _op_cell(cell, len(seq) - 1)
            for seq, cell in cells.items()}


def opposite_horn(horn: HornData) -> HornData:
    return HornData(horn.n, horn.n - horn.k, tuple(reversed(horn.objects)),
                    _op_cells(horn.n, horn.cells))


def opposite_filler(filler: Filler) -> Filler:
    n = filler.n
    return Filler(n, n - filler.k,
                  _op_cell(filler.top, n),
                  _op_cell(filler.face, n - 1))


# -- reduction helpers -----------------------------------------------------------

def reduce_horn(horn: HornData) -> HornData:
    return HornData(horn.n, horn.k, horn.objects,
                    {s: reduce_morphism(c) for s, c in horn.cells.items()})


def promote_filler(cat: DgCategory, filler: Filler) -> Filler:
    return Filler(filler.n, filler.k,
                  promote_morphism(cat, filler.top),
                  promote_morphism(cat, filler.face))


# -- square-zero lifting ----------------------------------------------------------

def lift_filler(cat: DgCategory, horn: HornData, filler_mod_ideal: Filler,
                *, lifts: Filler | None = None) -> Filler:
    """Lift a filler of the reduced horn through the square-zero ideal.

    ``horn`` lives over ``cat.ring = k ⊕ I`` and ``filler_mod_ideal``
    solves the horn reduced mod I.  Starting from any coordinate lift α̃
    (the optional ``lifts``, or the zero-ideal-part injection), the error
    terms

        φ = d(α̃_face) − U,
        ψ = d(α̃_top) − α̃_face∘α − V     (outer; sign·α̃_face inner)

    lie in I because the reduction solves the reduced equations — if not,
    InvalidReduction.  They satisfy d(φ) = 0 and d(ψ) = −φ∘α (outer) /
    −sign·φ (inner), so the error pair is itself fillable: the fill
    formulas applied to (φ, ψ) give a correction ε, and α̂ = α̃ − ε fills
    the horn over the full ring while reducing coordinatewise back to
    ``filler_mod_ideal``.
    """
    if (filler_mod_ideal.n, filler_mod_ideal.k) != (horn.n, horn.k):
        raise ValueError("filler does not match horn dimensions")
    obs = compute_obstruction(cat, horn)
    if lifts is None:
        lifts = promote_filler(cat, filler_mod_ideal)
    elif (reduce_morphism(lifts.top).coords != filler_mod_ideal.top.coords
          or reduce_morphism(lifts.face).coords
          != filler_mod_ideal.face.coords):
        raise InvalidReduction(
            "provided lifts do not reduce to the given filler")
    for seq, cell in ((horn.full_seq, lifts.top),
                      (horn.missing_face, lifts.face)):
        bad = cell_shape_violation(cat, horn.objects, seq, cell)
        if bad:
            raise ValueError(f"filler cell {seq}: {bad.detail}")

    lifted = _transport(obs, lifts)
    face, top = lifted.face, lifted.top
    phi = MorphismSum(obs.category, face.source, face.target,
                      face.degree + 1).add_differential(face)
    phi = phi.add(obs.U, -1).result()
    psi = _top_equation(obs, top, face, -1).add(obs.V, -1).result()
    if not (phi.in_ideal() and psi.in_ideal()):
        raise InvalidReduction(
            "mod-ideal filler does not solve the reduced horn equations")
    eps = _solve_pair(obs, phi, psi)
    top, face = (MorphismSum(obs.category, f.source, f.target, f.degree)
                 .add(f).add(e, -1).result()
                 for f, e in ((top, eps.top), (face, eps.face)))
    return _transport(obs, Filler(eps.n, eps.k, top, face))


# -- randomized generation ---------------------------------------------------------

def _random_edge_simplex(cat: DgCategory, rng: random.Random,
                         witnessed: bool) -> NerveSimplex:
    X = rng.choice(cat.objects)
    if witnessed:
        scalar = rng.choice((1, 1, 1, -1, 2))
        xi = cat.random_morphism(X, X, -1, rng)
        edge = MorphismSum(cat, X, X, 0).add(cat.identity(X), scalar)
        return NerveSimplex((X, X), {(0, 1): edge.add_differential(xi)
                                     .result()})
    Y = rng.choice(cat.objects)
    edge = MorphismSum(cat, X, Y, 0)
    basis = cat.cycle_basis(X, Y, 0, cat.ring)
    for _ in range(2 if basis else 0):
        vec = Morphism(X, Y, 0, tuple(rng.choice(basis)))
        edge.add(vec, rng.choice((0, 1, 1, -1, 2)))
    return NerveSimplex((X, Y), {(0, 1): edge.result()})


def random_valid_simplex(cat: DgCategory, rng: random.Random, n: int, *,
                         witnessed: bool = True) -> NerveSimplex:
    """A random simplex passing validate_simplex (and, when ``witnessed``,
    validate_star), built bottom-up in one loop.

    Dimension 1 samples closed edges (witnessed: unit·identity + exact
    term, which always admits a witness).  Each level m = 2 … n degenerates
    the (m−1)-simplex at ``rng.randrange(m)``, then shakes every
    top-adjacent cell with moves that preserve all residuals exactly:
    adding d(ξ) to a codim-1 face while correcting the top cell through the
    face or cut term it feeds, then adds d(ζ) to the top cell.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        return NerveSimplex((rng.choice(cat.objects),), {})

    def shake(seq: Seq, xi: Morphism) -> None:   # cells[seq] += d(ξ)
        cells[seq] = MorphismSum(cat, xi.source, xi.target, xi.degree + 1) \
            .add(cells[seq]).add_differential(xi).result()
    simplex = _random_edge_simplex(cat, rng, witnessed)
    for m in range(2, n + 1):
        # degeneracy's new dict is this level's to write
        simplex = degeneracy(cat, simplex, rng.randrange(m))
        objects, cells, full = simplex.objects, simplex.cells, (*range(m + 1),)
        first, last = objects[0], objects[-1]
        # the degenerate top cell spans both copies of a vertex, so it is zero
        top = MorphismSum(cat, first, last, 1 - m)
        for a in range(1, m):
            xi = cat.random_morphism(first, last, 1 - m, rng)
            shake(full[:a] + full[a + 1:], xi)
            top.add(xi, PINNED.face_sign(a, m))
        xi1 = cat.random_morphism(objects[1], last, 1 - m, rng)
        shake(full[1:], xi1)
        top.add_compose(xi1, cells[(0, 1)])
        xi2 = cat.random_morphism(first, objects[-2], 1 - m, rng)
        shake(full[:-1], xi2)
        top.add_compose(cells[(m - 1, m)], xi2, (-1) ** m)
        zeta = cat.random_morphism(first, last, -m, rng)
        cells[full] = top.add_differential(zeta).result()
    return simplex


def random_horn(cat: DgCategory, rng: random.Random, n: int, k: int, *,
                witnessed: bool = True) -> HornData:
    return extract_horn(
        random_valid_simplex(cat, rng, n, witnessed=witnessed), k)


# -- the randomized horn-condition sweep ---------------------------------------------

def _trial_seed(seed: int, trial: int, mode_index: int) -> int:
    return seed * 1_000_003 + trial * 7919 + mode_index * 97


def _gp_trial(cat_b: DgCategory, red_cat: DgCategory, rng: random.Random,
              n: int, k: int, witnessed: bool) -> tuple[str, str] | None:
    """One check_gp trial: the failing ``(stage, detail)``, or None."""
    try:
        horn = random_horn(cat_b, rng, n, k, witnessed=witnessed)
        filler = fill_horn(cat_b, horn)
        bad = validate_simplex(cat_b, complete_horn(horn, filler))
    except HornError as exc:
        return "fill", str(exc)
    if bad:
        return "fill_validate", bad[0].kind
    try:
        red_filler = fill_horn(red_cat, reduce_horn(horn))
        lifted = lift_filler(cat_b, horn, red_filler)
        bad = validate_simplex(cat_b, complete_horn(horn, lifted))
        reduces = (reduce_morphism(lifted.top).coords == red_filler.top.coords
                   and reduce_morphism(lifted.face).coords
                   == red_filler.face.coords)
    except HornError as exc:
        return "lift", str(exc)
    if bad or not reduces:
        return "lift_validate", bad[0].kind if bad else "reduction mismatch"
    return None


def check_gp(cat: DgCategory, n: int, k: int, trials: int = 25,
             seed: int = 0) -> dict:
    """Randomized sweep of the horn-extension conditions at (n, k).

    Per trial: sample a valid simplex over the rank-1 square-zero
    extension, extract the (n, k) horn, fill it, validate; then fill the
    reduced horn over the base field and lift that filler back, checking
    exact validity and coordinatewise reduction.  Inner horns run both a
    ``witnessed`` and a ``plain`` (no equivalence assumptions) sweep, and
    the report exposes the witness-solver call counter, which must stay 0
    on inner sweeps.  Failures are recorded as data with reproducing
    seeds, never raised.
    """
    if n < 2:
        raise ValueError(
            "n must be at least 2: 1-dimensional horn conditions are "
            "deliberately out of scope for this checker")
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    if cat.ring.ideal_rank != 0:
        raise ValueError("check_gp expects a category over the rank-0 ring")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    inner = 0 < k < n
    cat_b = tensor_with_ring(cat, SquareZeroRing(1))
    red_cat = reduce_category(cat_b)
    modes = ("witnessed", "plain") if inner else ("witnessed",)
    mode_reports = []
    for mode_index, mode in enumerate(modes):
        failures: list[dict] = []
        calls_before = witness_call_count()
        for trial in range(trials):
            trial_seed = _trial_seed(seed, trial, mode_index)
            failed = _gp_trial(cat_b, red_cat, random.Random(trial_seed), n, k,
                               mode == "witnessed")
            if failed:
                failures.append({"trial": trial, "seed": trial_seed,
                                 "stage": failed[0], "detail": failed[1]})
        lift_fail = sum(f["stage"].startswith("lift") for f in failures)
        fill_pass = trials - len(failures) + lift_fail
        lift_pass = fill_pass - lift_fail
        mode_reports.append({
            "mode": mode,
            "fill_pass": fill_pass, "fill_fail": trials - fill_pass,
            "lift_pass": lift_pass, "lift_fail": lift_fail,
            "witness_calls": witness_call_count() - calls_before,
            "failures": failures,
        })
    return {"n": n, "k": k, "kind": "inner" if inner else "outer",
            "trials": trials, "seed": seed, "modes": mode_reports}
