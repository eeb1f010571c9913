"""Horns, obstruction pairs, explicit fillers, and the randomized sweep.

Grid conventions exercised throughout: the face cell α̂(0,…,k̂,…,n) has
degree 2−n, the top cell α̂(0,…,n) degree 1−n, the obstruction U degree
3−n and V degree 2−n.  Fillers must satisfy their defining equations

    d(α̂_face) = U
    d(α̂_top)  = α̂_face∘α + V   (outer k = 0, α the witnessed edge (0,1))
    d(α̂_top)  = σ·α̂_face + V   (inner, σ the face sign of position k)

exactly; these are asserted by substitution, not just via the validator.
"""

import dataclasses
import itertools
import random

import pytest

from dgnerve import horn as hornmod
from dgnerve.dgcat import (Morphism, MorphismSum, NotEquivalence,
                           complex_from_dense, find_equivalence_witness,
                           make_complex_category, opposite,
                           reset_witness_calls, witness_call_count)
from dgnerve.fixtures import FIXTURES
from dgnerve.horn import (
    CannotFillOuterHorn,
    Filler,
    HornData,
    HornError,
    IncompatibleHorn,
    InvalidReduction,
    check_gp,
    check_horn,
    complete_horn,
    compute_obstruction,
    extract_horn,
    fill_horn,
    lift_filler,
    obstruction_violations,
    opposite_filler,
    opposite_horn,
    random_horn,
    random_valid_simplex,
    reduce_horn,
    _trial_seed,
)
from dgnerve.mc import (promote_morphism, reduce_category, reduce_morphism,
                        tensor_with_ring)
from dgnerve.nerve import PINNED, NerveSimplex, validate_simplex, validate_star
from dgnerve.rings import RATIONALS, SquareZeroRing
from lincomb import lin
from nervekit import (basis_morphism, dense_differential, identity_simplex,
                      kernel, old_degeneracy, old_random_morphism,
                      opposite_simplex, reduce_filler)

GRID = [(2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (4, 2)]


# ---------------------------------------------------------------------------
# extract_horn / check_horn.
# ---------------------------------------------------------------------------


def test_extract_horn_combinatorics(three_term):
    rng = random.Random(1)
    simplex = random_valid_simplex(three_term, rng, 2, witnessed=True)
    horn = extract_horn(simplex, 1)
    assert horn.missing_face == (0, 2)
    assert horn.full_seq == (0, 1, 2)
    assert sorted(horn.cells) == [(0, 1), (1, 2)]
    assert 0 < horn.k < horn.n
    assert check_horn(three_term, horn) == []


def test_extract_horn_of_identities(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 3)
    for k in range(4):
        horn = extract_horn(simplex, k)
        assert check_horn(three_term, horn) == []
        missing = {horn.missing_face, horn.full_seq}
        present = set(horn.cells)
        assert missing.isdisjoint(present)
        for seq in present:
            assert horn.cells[seq] == simplex.cell(seq)


def test_extract_horn_guards(three_term):
    rng = random.Random(2)
    edge = random_valid_simplex(three_term, rng, 1, witnessed=True)
    with pytest.raises(ValueError):
        extract_horn(edge, 0)
    simplex = random_valid_simplex(three_term, rng, 2, witnessed=True)
    with pytest.raises(ValueError):
        extract_horn(simplex, 3)


def test_check_horn_flags_incompatible_data(three_term):
    rng = random.Random(3)
    simplex = random_valid_simplex(three_term, rng, 3, witnessed=True)
    horn = extract_horn(simplex, 1)
    (obj,) = three_term.objects
    # corrupt a present face so its own residual breaks
    delta = next(
        b for b in (basis_morphism(three_term, obj, obj, -1, j)
                    for j in range(three_term.rank(obj, obj, -1)))
        if not three_term.differential(b).is_zero())
    cells = dict(horn.cells)
    cells[(0, 1, 2)] = lin((1, cells[(0, 1, 2)]), (1, delta))
    bad = HornData(horn.n, horn.k, horn.objects, cells)
    report = check_horn(three_term, bad)
    assert any(v.kind == "residual" for v in report)
    with pytest.raises(IncompatibleHorn):
        compute_obstruction(three_term, bad)


def _horn_shape(three_term, n, k, objects):
    return [(v.kind, v.location, v.detail)
            for v in check_horn(three_term, HornData(n, k, objects, {}))]


def test_check_horn_reports_bad_shapes(three_term):
    (obj,) = three_term.objects
    assert _horn_shape(three_term, 1, 0, (obj, obj)) == \
        [("horn_shape", (1, 0), "need n >= 2")]
    assert _horn_shape(three_term, 2, 3, (obj,) * 3) == \
        [("horn_shape", (2, 3), "k out of range")]
    assert _horn_shape(three_term, 2, 0, (obj,) * 2) == \
        [("horn_shape", (2, 0), "object list has wrong length")]
    assert _horn_shape(three_term, 2, 0, (obj, "nowhere", obj)) == \
        [("horn_shape", ("nowhere",), "unknown object")]


def test_check_horn_reports_cells_at_missing_sequences(three_term):
    rng = random.Random(4)
    simplex = random_valid_simplex(three_term, rng, 2, witnessed=True)
    horn = extract_horn(simplex, 1)
    cells = dict(horn.cells)
    cells[horn.missing_face] = simplex.cell(horn.missing_face)
    report = check_horn(three_term,
                        HornData(horn.n, horn.k, horn.objects, cells))
    assert [(v.kind, v.location) for v in report] == \
        [("unexpected_cell", (0, 2))]
    with pytest.raises(IncompatibleHorn):
        fill_horn(three_term, HornData(horn.n, horn.k, horn.objects, cells))


# ---------------------------------------------------------------------------
# Obstruction identities.
# ---------------------------------------------------------------------------


def test_identity_horn_obstruction_is_trivial(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 3)
    obs = compute_obstruction(three_term, extract_horn(simplex, 0))
    assert obs.U.is_zero()
    assert obstruction_violations(obs) == []


@pytest.mark.parametrize("k", [0, 1], ids=["outer", "inner"])
def test_obstruction_violations_name_each_broken_identity(three_term, k):
    """A morphism x with d(x) ≠ 0 added to U breaks d(U) = 0 and, through
    U, the V-identity; added to V it breaks the V-identity alone."""
    rng = random.Random(7)
    obs = compute_obstruction(three_term,
                              random_horn(three_term, rng, 3, k,
                                          witnessed=True))
    assert (obs.alpha is None) == (k == 1)

    def off(m):
        x = three_term.random_morphism(m.source, m.target, m.degree, rng)
        assert not three_term.differential(x).is_zero()
        return lin((1, m), (1, x))

    def kinds(broken):
        return [(v.kind, v.location) for v in obstruction_violations(broken)]

    assert kinds(dataclasses.replace(obs, U=off(obs.U))) == \
        [("obstruction_dU", (3, k)), ("obstruction_dV", (3, k))]
    assert kinds(dataclasses.replace(obs, V=off(obs.V))) == \
        [("obstruction_dV", (3, k))]


@pytest.mark.parametrize("n,k", GRID)
def test_obstruction_identities_on_random_horns(three_term, complexes, n, k):
    for cat in (three_term, complexes):
        for seed in range(5):
            rng = random.Random(1000 * n + 100 * k + seed)
            horn = random_horn(cat, rng, n, k, witnessed=True)
            obs = compute_obstruction(cat, horn)
            assert obstruction_violations(obs) == []
            ambient = obs.category
            assert ambient.differential(obs.U).is_zero()
            if k in (0, n):
                assert obs.alpha is not None
                assert lin((1, ambient.differential(obs.V)),
                           (1, ambient.compose(obs.U, obs.alpha))).is_zero()
            else:
                assert obs.sign == (-1) ** k
                assert lin((1, ambient.differential(obs.V)),
                           (obs.sign, obs.U)).is_zero()


def test_obstruction_degrees(three_term):
    rng = random.Random(6)
    for n, k in GRID:
        horn = random_horn(three_term, rng, n, k, witnessed=True)
        obs = compute_obstruction(three_term, horn)
        assert obs.U.degree == 3 - n
        assert obs.V.degree == 2 - n


# ---------------------------------------------------------------------------
# Inner fills.
# ---------------------------------------------------------------------------


def test_identity_inner_horn_fill(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 3)
    horn = extract_horn(simplex, 1)
    obs = compute_obstruction(three_term, horn)
    filler = fill_horn(three_term, horn)
    assert filler.face == lin((-obs.sign, obs.V))
    assert filler.top.is_zero()
    assert validate_simplex(three_term, complete_horn(horn, filler)) == []


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2)])
def test_inner_fills_validate_and_solve_system(three_term, complexes, n, k):
    for cat in (three_term, complexes):
        for seed in range(5):
            rng = random.Random(7000 + 100 * n + 10 * k + seed)
            horn = random_horn(cat, rng, n, k, witnessed=(seed % 2 == 0))
            obs = compute_obstruction(cat, horn)
            filler = fill_horn(cat, horn)
            assert filler.top.is_zero()
            assert cat.differential(filler.face) == obs.U
            assert cat.differential(filler.top) == \
                lin((obs.sign, filler.face), (1, obs.V))
            assert validate_simplex(cat, complete_horn(horn, filler)) == []


def test_inner_fill_never_consults_witnesses(three_term):
    rng = random.Random(8)
    horn = random_horn(three_term, rng, 3, 1, witnessed=False)
    reset_witness_calls()
    filler = fill_horn(three_term, horn)
    assert witness_call_count() == 0
    assert validate_simplex(three_term, complete_horn(horn, filler)) == []


# ---------------------------------------------------------------------------
# Outer fills, k = 0.
# ---------------------------------------------------------------------------


def test_identity_outer_horn_fill(three_term):
    # the identity edge's witness degenerates to (a, g, h) = (1, 0, 0),
    # so α̂_face = −V and α̂_top = 0.
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 3)
    horn = extract_horn(simplex, 0)
    obs = compute_obstruction(three_term, horn)
    filler = fill_horn(three_term, horn)
    assert filler.face == lin((-1, obs.V))
    assert filler.top.is_zero()
    assert validate_simplex(three_term, complete_horn(horn, filler)) == []


@pytest.mark.parametrize("n", [2, 3])
def test_outer_zero_fills_solve_their_system(complexes, n):
    for seed in range(5):
        rng = random.Random(300 * n + seed)
        horn = random_horn(complexes, rng, n, 0, witnessed=True)
        obs = compute_obstruction(complexes, horn)
        filler = fill_horn(complexes, horn)
        assert complexes.differential(filler.face) == obs.U
        assert complexes.differential(filler.top) == \
            lin((1, complexes.compose(filler.face, obs.alpha)), (1, obs.V))
        completed = complete_horn(horn, filler)
        assert validate_simplex(complexes, completed) == []


def test_outer_two_horn_star_fills(complexes):
    # n = 2, k = 0: the new edge (1,2) is automatically an equivalence.
    for seed in range(5):
        rng = random.Random(900 + seed)
        horn = random_horn(complexes, rng, 2, 0, witnessed=True)
        filler = fill_horn(complexes, horn)
        completed = complete_horn(horn, filler)
        assert validate_simplex(complexes, completed) == []
        assert validate_star(complexes, completed) == []


def test_outer_fill_requires_witnessed_edge(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 2)
    cells = dict(simplex.cells)
    cells[(0, 1)] = three_term.zero(obj, obj, 0)
    cells[(0, 2)] = three_term.zero(obj, obj, 0)
    bad = NerveSimplex(simplex.objects, cells)
    assert validate_simplex(three_term, bad) == []
    horn = extract_horn(bad, 0)
    with pytest.raises(CannotFillOuterHorn) as exc:
        fill_horn(three_term, horn)
    assert "(0, 1)" in str(exc.value)


# ---------------------------------------------------------------------------
# Outer fills, k = n (opposite reduction).
# ---------------------------------------------------------------------------


def test_identity_outer_n_horn_fill(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 3)
    horn = extract_horn(simplex, 3)
    filler = fill_horn(three_term, horn)
    assert validate_simplex(three_term, complete_horn(horn, filler)) == []


@pytest.mark.parametrize("n", [2, 3])
def test_outer_n_fills_validate(complexes, n):
    for seed in range(5):
        rng = random.Random(500 * n + seed)
        horn = random_horn(complexes, rng, n, n, witnessed=True)
        filler = fill_horn(complexes, horn)
        assert validate_simplex(complexes, complete_horn(horn, filler)) == []


def test_outer_n_is_opposite_of_outer_zero(complexes):
    rng = random.Random(77)
    horn = random_horn(complexes, rng, 3, 3, witnessed=True)
    direct = fill_horn(complexes, horn)
    via_op = opposite_filler(
        fill_horn(opposite(complexes), opposite_horn(horn)))
    assert direct == via_op


def test_outer_n_names_last_edge(three_term):
    (obj,) = three_term.objects
    simplex = identity_simplex(three_term, obj, 2)
    cells = dict(simplex.cells)
    cells[(1, 2)] = three_term.zero(obj, obj, 0)
    cells[(0, 2)] = three_term.zero(obj, obj, 0)
    bad = NerveSimplex(simplex.objects, cells)
    assert validate_simplex(three_term, bad) == []
    with pytest.raises(CannotFillOuterHorn) as exc:
        fill_horn(three_term, extract_horn(bad, 2))
    assert "(1, 2)" in str(exc.value)


@pytest.mark.parametrize("n", range(5))
def test_opposite_simplex_is_an_involution_into_the_opposite(
        three_term, complexes, n):
    for cat in (three_term, complexes):
        op = opposite(cat)
        for seed in range(3):
            rng = random.Random(600 + 10 * n + seed)
            simplex = random_valid_simplex(cat, rng, n, witnessed=seed != 1)
            reversed_simplex = opposite_simplex(simplex)
            assert opposite_simplex(reversed_simplex) == simplex
            assert validate_simplex(op, reversed_simplex) == []


# ---------------------------------------------------------------------------
# Oracle: the fill and lift formulas as written one horn kind at a time,
# with k = n routed through the opposite category by recursion.
# ---------------------------------------------------------------------------


def _reference_fill_outer_zero(cat, horn):
    obs = compute_obstruction(cat, horn)
    alpha = obs.alpha
    try:
        w = find_equivalence_witness(cat, alpha)
    except NotEquivalence as exc:
        raise CannotFillOuterHorn(
            f"edge (0, 1) admits no equivalence witness: {exc}") from exc
    sgn = (-1) ** horn.n
    face = lin((-1, cat.compose(obs.V, w.a)), (sgn, cat.compose(obs.U, w.h)))
    top = lin((sgn, cat.compose(face, cat.compose(w.h, alpha))),
              (-sgn, cat.compose(face, cat.compose(alpha, w.g))),
              (-sgn, cat.compose(obs.V, w.g)))
    return Filler(horn.n, 0, top, face)


def _reference_fill_horn(cat, horn):
    n = horn.n
    if 0 < horn.k < n:
        obs = compute_obstruction(cat, horn)
        top = cat.zero(horn.objects[0], horn.objects[-1], 1 - n)
        return Filler(n, horn.k, top, lin((-obs.sign, obs.V)))
    if horn.k == 0:
        return _reference_fill_outer_zero(cat, horn)
    try:
        op_filler = _reference_fill_outer_zero(opposite(cat),
                                               opposite_horn(horn))
    except CannotFillOuterHorn as exc:
        raise CannotFillOuterHorn(
            f"edge ({n - 1}, {n}) admits no equivalence witness") from exc
    return opposite_filler(op_filler)


def _reference_lift_filler(cat, horn, filler_mod_ideal, lifts=None):
    n, k = horn.n, horn.k
    if (filler_mod_ideal.n, filler_mod_ideal.k) != (n, k):
        raise ValueError("filler does not match horn dimensions")
    if k == n:
        try:
            op = _reference_lift_filler(
                opposite(cat), opposite_horn(horn),
                opposite_filler(filler_mod_ideal),
                opposite_filler(lifts) if lifts else None)
        except CannotFillOuterHorn as exc:
            raise CannotFillOuterHorn(
                f"edge ({n - 1}, {n}) admits no equivalence witness") from exc
        return opposite_filler(op)
    obs = compute_obstruction(cat, horn)
    if lifts is not None:
        top_l, face_l = lifts.top, lifts.face
        if (reduce_morphism(top_l).coords != filler_mod_ideal.top.coords
                or reduce_morphism(face_l).coords
                != filler_mod_ideal.face.coords):
            raise InvalidReduction(
                "provided lifts do not reduce to the given filler")
    else:
        top_l = promote_morphism(cat, filler_mod_ideal.top)
        face_l = promote_morphism(cat, filler_mod_ideal.face)
    phi = lin((1, cat.differential(face_l)), (-1, obs.U))
    if k == 0:
        psi = lin((1, cat.differential(top_l)),
                  (-1, cat.compose(face_l, obs.alpha)), (-1, obs.V))
    else:
        psi = lin((1, cat.differential(top_l)), (-obs.sign, face_l),
                  (-1, obs.V))
    if not (phi.in_ideal() and psi.in_ideal()):
        raise InvalidReduction(
            "mod-ideal filler does not solve the reduced horn equations")
    if k == 0:
        try:
            w = find_equivalence_witness(cat, obs.alpha)
        except NotEquivalence as exc:
            raise CannotFillOuterHorn(
                f"edge (0, 1) admits no equivalence witness: {exc}") from exc
        sgn = (-1) ** n
        eps_face = lin((-1, cat.compose(psi, w.a)),
                       (sgn, cat.compose(phi, w.h)))
        eps_top = lin(
            (sgn, cat.compose(eps_face, cat.compose(w.h, obs.alpha))),
            (-sgn, cat.compose(eps_face, cat.compose(obs.alpha, w.g))),
            (-sgn, cat.compose(psi, w.g)))
    else:
        eps_face = lin((-obs.sign, psi))
        eps_top = cat.zero(top_l.source, top_l.target, top_l.degree)
    return Filler(n, k, lin((1, top_l), (-1, eps_top)),
                  lin((1, face_l), (-1, eps_face)))


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except HornError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("n,k", [(2, 0), (2, 2), (3, 1), (3, 3), (4, 2)])
def test_fill_and_lift_match_reference(three_term, complexes, rank, n, k):
    # Lifts start from the fill of the reduced horn (when there is one) and
    # from the simplex's own cells plus ideal noise, which also reach the
    # witness solve on unwitnessed outer horns.
    for base in (three_term, complexes):
        big = tensor_with_ring(base, SquareZeroRing(rank))
        red = reduce_category(big)
        for witnessed in (True, False):
            for seed in range(2):
                rng = random.Random(8000 + 100 * n + 10 * k + seed)
                simplex = random_valid_simplex(big, rng, n, witnessed=witnessed)
                horn = extract_horn(simplex, k)
                for cat, h in ((big, horn), (red, reduce_horn(horn))):
                    assert _outcome(fill_horn, cat, h) == \
                        _outcome(_reference_fill_horn, cat, h)
                own = Filler(n, k, simplex.cell(horn.full_seq),
                             simplex.cell(horn.missing_face))
                noisy = Filler(n, k, *(
                    lin((1, cell), (1, big.random_morphism(
                        cell.source, cell.target, cell.degree, rng,
                        ideal_only=True))) for cell in (own.top, own.face)))
                starts = [(reduce_filler(noisy), noisy)]
                red_filler = _outcome(fill_horn, red, reduce_horn(horn))
                if isinstance(red_filler, Filler):
                    starts.append((red_filler, None))
                for filler_mod_ideal, lifts in starts:
                    assert _outcome(lift_filler, big, horn, filler_mod_ideal,
                                    lifts=lifts) == \
                        _outcome(_reference_lift_filler, big, horn,
                                 filler_mod_ideal, lifts)


# ---------------------------------------------------------------------------
# Round trips and the sweep driver.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", GRID)
def test_extract_fill_validate_round_trip(three_term, n, k):
    for seed in range(3):
        rng = random.Random(4000 + 100 * n + 10 * k + seed)
        simplex = random_valid_simplex(three_term, rng, n, witnessed=True)
        horn = extract_horn(simplex, k)
        filler = fill_horn(three_term, horn)
        assert validate_simplex(three_term, complete_horn(horn, filler)) == []


def test_check_gp_outer(three_term):
    report = check_gp(three_term, 2, 0, trials=50, seed=0)
    assert report["n"] == 2 and report["k"] == 0
    assert report["kind"] == "outer"
    (mode,) = report["modes"]
    assert mode["mode"] == "witnessed"
    assert mode["fill_fail"] == 0 and mode["lift_fail"] == 0
    assert mode["fill_pass"] == 50 and mode["lift_pass"] == 50
    assert mode["failures"] == []


@pytest.mark.parametrize("k", [1, 2])
def test_check_gp_inner_without_witnesses(three_term, k):
    report = check_gp(three_term, 3, k, trials=50, seed=1)
    assert report["kind"] == "inner"
    modes = {m["mode"]: m for m in report["modes"]}
    assert set(modes) == {"witnessed", "plain"}
    for mode in modes.values():
        assert mode["fill_fail"] == 0 and mode["lift_fail"] == 0
        assert mode["witness_calls"] == 0


def test_check_gp_records_failing_fills(doubled_unit):
    # Every sampled outer horn fills to a simplex whose residuals fail; the
    # trials are kept as data with their seeds.
    report = check_gp(doubled_unit, 2, 0, trials=3, seed=1)
    (mode,) = report["modes"]
    assert (mode["fill_pass"], mode["fill_fail"]) == (0, 3)
    assert (mode["lift_pass"], mode["lift_fail"]) == (0, 0)
    assert [(f["trial"], f["stage"], f["seed"], f["detail"])
            for f in mode["failures"]] == \
        [(t, "fill_validate", _trial_seed(1, t, 0), "residual")
         for t in range(3)]


def test_check_gp_records_incompatible_horns(doubled_unit):
    # On inner (3, 1) horns the present cells already break a residual, so
    # filling raises and each trial fails at the fill stage.
    report = check_gp(doubled_unit, 3, 1, trials=3, seed=1)
    assert [m["mode"] for m in report["modes"]] == ["witnessed", "plain"]
    for mode_index, mode in enumerate(report["modes"]):
        assert (mode["fill_pass"], mode["fill_fail"]) == (0, 3)
        assert (mode["lift_pass"], mode["lift_fail"]) == (0, 0)
        assert [(f["trial"], f["stage"], f["seed"])
                for f in mode["failures"]] == \
            [(t, "fill", _trial_seed(1, t, mode_index)) for t in range(3)]
        assert all(f["detail"].startswith("incompatible horn: residual@")
                   for f in mode["failures"])


def _reference_random_edge_simplex(cat, rng, witnessed):
    """Oracle: the edge sampler with its guard on an empty hom(X, Y)₀."""
    X = rng.choice(cat.objects)
    if witnessed:
        scalar = rng.choice((1, 1, 1, -1, 2))
        xi = old_random_morphism(cat, X, X, -1, rng)
        edge = MorphismSum(cat, X, X, 0).add(cat.identity(X), scalar)
        return NerveSimplex((X, X), {(0, 1): edge.add_differential(xi)
                                     .result()})
    Y = rng.choice(cat.objects)
    ncols = cat.rank(X, Y, 0)
    edge = MorphismSum(cat, X, Y, 0)
    if ncols:
        matrix = dense_differential(cat, X, Y, 0)
        if matrix:
            basis = kernel(matrix, cat.ring)
        else:
            basis = [basis_morphism(cat, X, Y, 0, j).coords
                     for j in range(ncols)]
        for _ in range(2 if basis else 0):
            vec = Morphism(X, Y, 0, tuple(rng.choice(basis)))
            edge.add(vec, rng.choice((0, 1, 1, -1, 2)))
    return NerveSimplex((X, Y), {(0, 1): edge.result()})


def _reference_random_valid_simplex(cat, rng, n, witnessed):
    """Oracle: the recursive sampler with the degenerate top cell added, on
    the frozen degeneracy and coordinate draw."""
    if n == 0:
        return NerveSimplex((rng.choice(cat.objects),), {})
    if n == 1:
        return _reference_random_edge_simplex(cat, rng, witnessed)
    base = _reference_random_valid_simplex(cat, rng, n - 1, witnessed)
    simplex = old_degeneracy(cat, base, rng.randrange(n))
    objects = simplex.objects
    cells = dict(simplex.cells)
    full = tuple(range(n + 1))
    first, last = objects[0], objects[-1]
    top = MorphismSum(cat, first, last, 1 - n).add(cells[full])

    def shake(seq, xi):
        cells[seq] = MorphismSum(cat, xi.source, xi.target, xi.degree + 1) \
            .add(cells[seq]).add_differential(xi).result()
    for a in range(1, n):
        xi = old_random_morphism(cat, first, last, 1 - n, rng)
        shake(full[:a] + full[a + 1:], xi)
        top.add(xi, PINNED.face_sign(a, n))
    xi1 = old_random_morphism(cat, objects[1], last, 1 - n, rng)
    shake(full[1:], xi1)
    top.add_compose(xi1, cells[(0, 1)])
    xi2 = old_random_morphism(cat, first, objects[-2], 1 - n, rng)
    shake(full[:-1], xi2)
    top.add_compose(cells[(n - 1, n)], xi2, (-1) ** n)
    zeta = old_random_morphism(cat, first, last, -n, rng)
    cells[full] = top.add_differential(zeta).result()
    return NerveSimplex(objects, cells)


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", [*FIXTURES, "gapped"])
def test_random_valid_simplex_matches_reference(name, rank):
    """The same cells as the oracle, in the same order, with the ``rng`` left
    in the same state.
    In ``gapped`` hom(X, Y) is zero in degree 0 but not in degree 1."""
    if name == "gapped":
        base = make_complex_category(
            [complex_from_dense(RATIONALS, {0: 1}, {}),
             complex_from_dense(RATIONALS, {1: 1}, {})], names=("X", "Y"))
    else:
        base = FIXTURES[name]()
    cat = tensor_with_ring(base, SquareZeroRing(rank))
    for n in range(6):
        for witnessed in (True, False):
            for seed in range(4):
                rng, want_rng = random.Random(seed), random.Random(seed)
                got = random_valid_simplex(cat, rng, n, witnessed=witnessed)
                want = _reference_random_valid_simplex(cat, want_rng, n,
                                                       witnessed)
                assert got == want
                assert list(got.cells) == list(want.cells)
                assert rng.getstate() == want_rng.getstate()


def _reference_check_gp(cat, n, k, trials, seed):
    """Oracle: the sweep with four counters kept across the trial's stages.
    It calls the package through ``hornmod.`` so that a test's patches reach
    it as they reach ``check_gp``."""
    inner = 0 < k < n
    cat_b = tensor_with_ring(cat, SquareZeroRing(1))
    red_cat = reduce_category(cat_b)
    modes = ("witnessed", "plain") if inner else ("witnessed",)
    mode_reports = []
    for mode_index, mode in enumerate(modes):
        fill_pass = fill_fail = lift_pass = lift_fail = 0
        failures = []
        calls_before = witness_call_count()
        for trial in range(trials):
            trial_seed = _trial_seed(seed, trial, mode_index)
            rng = random.Random(trial_seed)
            try:
                h = hornmod.random_horn(cat_b, rng, n, k,
                                     witnessed=(mode == "witnessed"))
                filler = hornmod.fill_horn(cat_b, h)
                bad = validate_simplex(cat_b, hornmod.complete_horn(h, filler))
                if bad:
                    fill_fail += 1
                    failures.append({"trial": trial, "seed": trial_seed,
                                     "stage": "fill_validate",
                                     "detail": bad[0].kind})
                    continue
                fill_pass += 1
            except HornError as exc:
                fill_fail += 1
                failures.append({"trial": trial, "seed": trial_seed,
                                 "stage": "fill", "detail": str(exc)})
                continue
            try:
                red_filler = hornmod.fill_horn(red_cat, hornmod.reduce_horn(h))
                lifted = hornmod.lift_filler(cat_b, h, red_filler)
                bad = validate_simplex(cat_b, hornmod.complete_horn(h, lifted))
                reduces = (
                    hornmod.reduce_morphism(lifted.top).coords
                    == red_filler.top.coords
                    and hornmod.reduce_morphism(lifted.face).coords
                    == red_filler.face.coords)
                if bad or not reduces:
                    lift_fail += 1
                    failures.append({"trial": trial, "seed": trial_seed,
                                     "stage": "lift_validate",
                                     "detail": (bad[0].kind if bad
                                                else "reduction mismatch")})
                else:
                    lift_pass += 1
            except HornError as exc:
                lift_fail += 1
                failures.append({"trial": trial, "seed": trial_seed,
                                 "stage": "lift", "detail": str(exc)})
        mode_reports.append({
            "mode": mode,
            "fill_pass": fill_pass, "fill_fail": fill_fail,
            "lift_pass": lift_pass, "lift_fail": lift_fail,
            "witness_calls": witness_call_count() - calls_before,
            "failures": failures,
        })
    return {"n": n, "k": k, "kind": "inner" if inner else "outer",
            "trials": trials, "seed": seed, "modes": mode_reports}


def _spoiled_lifts():
    """A ``lift_filler`` whose calls cycle through four outcomes: a
    ``HornError``, a top cell moved off its residual, a top cell moved by
    d(ξ) for a body ξ (valid, but reducing to another filler), and the
    true lift."""
    calls = itertools.count()

    def nonclosed(cat, source, target, degree):
        """The first basis morphism of the hom with a nonzero differential."""
        basis = (basis_morphism(cat, source, target, degree, j)
                 for j in range(cat.rank(source, target, degree)))
        return next(b for b in basis if not cat.differential(b).is_zero())

    def lift(cat, h, filler):
        lifted = lift_filler(cat, h, filler)
        top, outcome = lifted.top, next(calls) % 4
        if outcome == 0:
            raise InvalidReduction("spoiled lift")
        if outcome == 1:
            top = lin((1, top), (1, nonclosed(cat, top.source, top.target,
                                              top.degree)))
        elif outcome == 2:
            xi = nonclosed(cat, top.source, top.target, top.degree - 1)
            top = lin((1, top), (1, cat.differential(xi)))
        return Filler(lifted.n, lifted.k, top, lifted.face)

    return lift


@pytest.mark.parametrize("spoiled, n, k", [
    (False, 2, 0), (False, 3, 1), (True, 2, 0), (True, 2, 1), (True, 2, 2)])
def test_check_gp_matches_reference(monkeypatch, three_term, doubled_unit,
                                    spoiled, n, k):
    """The counts and failure records of the oracle, on ``doubled_unit``
    (fill failures) and on ``three_term`` with a lift that fails at each
    lifting stage in turn."""
    cat = doubled_unit
    if spoiled:
        cat = three_term
        monkeypatch.setattr(hornmod, "lift_filler", _spoiled_lifts())
    got = check_gp(cat, n, k, trials=9, seed=4)
    if spoiled:
        monkeypatch.setattr(hornmod, "lift_filler", _spoiled_lifts())
    assert got == _reference_check_gp(cat, n, k, trials=9, seed=4)
    stages = {(f["stage"], f["detail"]) for mode in got["modes"]
              for f in mode["failures"]}
    if spoiled:
        assert stages == {("lift", "spoiled lift"),
                          ("lift_validate", "residual"),
                          ("lift_validate", "reduction mismatch")}
        assert all(mode["lift_pass"] for mode in got["modes"])
    else:
        assert stages and {stage for stage, _ in stages} <= {"fill",
                                                              "fill_validate"}


def test_check_gp_rejects_one_dimensional_horns(three_term):
    with pytest.raises(ValueError) as exc:
        check_gp(three_term, 1, 0)
    assert "out of scope" in str(exc.value)


def test_check_gp_seed_determinism(three_term):
    a = check_gp(three_term, 2, 1, trials=5, seed=9)
    b = check_gp(three_term, 2, 1, trials=5, seed=9)
    assert a == b


def test_filler_shape(three_term):
    rng = random.Random(11)
    for n, k in GRID:
        horn = random_horn(three_term, rng, n, k, witnessed=True)
        filler = fill_horn(three_term, horn)
        assert isinstance(filler, Filler)
        assert filler.top.degree == 1 - n
        assert filler.face.degree == 2 - n
