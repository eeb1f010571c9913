"""The integer-layer accumulator ``MorphismSum`` against the Fraction loops.

The ``_reference_*`` functions are the bodies that ``DgCategory.differential``
and ``compose``, ``nerve.required_boundary`` and ``cochain_differential``
had before they moved onto the accumulator: every term passes through
``RingElement`` arithmetic on its own.  The arithmetic is exact, so the two
must agree with ``==`` on every input, including sums that cancel to zero.
"""

import dataclasses
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgnerve.dgcat import (Morphism, MorphismSum, check_axioms,
                           complex_from_dense, make_complex_category)
from dgnerve.fixtures import FIXTURES
from dgnerve.horn import (compute_obstruction, opposite_horn, random_horn,
                         random_valid_simplex)
from dgnerve.laws import COCHAIN_DEGREES, random_cochain
from dgnerve.mc import tensor_with_ring, twist
from dgnerve.nerve import (PINNED, NerveCochain, cochain_compose,
                           cochain_differential, increasing_sequences,
                           required_boundary)
from dgnerve.rings import SquareZeroRing
from lincomb import degrees, lin
from nervekit import component, random_elements


# -- the Fraction-loop oracles -------------------------------------------------

def _reference_differential(cat, f):
    out_rank = cat.rank(f.source, f.target, f.degree + 1)
    acc = [cat.ring.zero()] * out_rank
    cols = cat.diffs.get((f.source, f.target, f.degree))
    if cols:
        for j, c in enumerate(f.coords):
            if c.is_zero():
                continue
            for i, a in cols.get(j, ()):
                acc[i] = acc[i] + a * c
    return Morphism(f.source, f.target, f.degree + 1, tuple(acc))


def _reference_compose(cat, outer, inner):
    if inner.target != outer.source:
        raise ValueError(
            f"morphisms do not compose: {inner.source}->{inner.target} "
            f"then {outer.source}->{outer.target}")
    degree = inner.degree + outer.degree
    out_rank = cat.rank(inner.source, outer.target, degree)
    acc = [cat.ring.zero()] * out_rank
    tensor = cat.comps.get((inner.source, inner.target, outer.target,
                            inner.degree, outer.degree))
    if tensor:
        nz_outer = [(i, c) for i, c in enumerate(outer.coords)
                    if not c.is_zero()]
        nz_inner = [(j, c) for j, c in enumerate(inner.coords)
                    if not c.is_zero()]
        for i, ci in nz_outer:
            for j, cj in nz_inner:
                entries = tensor.get((i, j))
                if entries:
                    coeff = ci * cj
                    for r, a in entries:
                        acc[r] = acc[r] + a * coeff
    return Morphism(inner.source, outer.target, degree, tuple(acc))


def _reference_required_boundary(cat, objects, getter, seq, signs=PINNED):
    k = len(seq) - 1
    terms = [(1, cat.zero(objects[seq[0]], objects[seq[-1]], 2 - k))]
    for p in range(1, k):
        face = seq[:p] + seq[p + 1:]
        terms.append((signs.face_sign(p, k), getter(face)))
        top, bot = seq[p:], seq[:p + 1]
        cut = _reference_compose(cat, getter(top), getter(bot))
        terms.append((signs.cut_sign(p, k) * (-1) ** (k - p), cut))
    return lin(*terms)


def _zero_face_getter(cat, horn):
    """The horn's cells, read with a zero cell at the missing face."""
    miss = horn.missing_face
    zero = cat.zero(horn.objects[miss[0]], horn.objects[miss[-1]], 2 - horn.n)
    return lambda seq: zero if seq == miss else horn.cells[seq]


def _reference_convolve_component(cat, outer, inner, seq, signs):
    k = len(seq) - 1
    degree = outer.degree + inner.degree - k
    terms = [(1, cat.zero(inner.source.objects[seq[0]],
                          outer.target.objects[seq[-1]], degree))]
    for p in range(1, k):
        top, bot = seq[p:], seq[:p + 1]
        outer_part = component(cat, outer, top)
        if outer_part.is_zero():
            continue
        inner_part = component(cat, inner, bot)
        if inner_part.is_zero():
            continue
        sign = signs.cut_sign(p, k) * (-1) ** (inner.degree * (k - p))
        terms.append((sign, _reference_compose(cat, outer_part, inner_part)))
    return lin(*terms)


def _reference_cochain_differential(cat, cochain, signs=PINNED):
    t = cochain.degree
    f, g = cochain.source, cochain.target
    f_cells = NerveCochain(f, f, 1, f.cells)
    g_cells = NerveCochain(g, g, 1, g.cells)
    components = {}
    for seq in increasing_sequences(cochain.n):
        k = len(seq) - 1
        terms = [(1, _reference_differential(cat,
                                             component(cat, cochain, seq)))]
        for p in range(1, k):
            face_seq = seq[:p] + seq[p + 1:]
            part = component(cat, cochain, face_seq)
            if not part.is_zero():
                terms.append(((-1) ** t * signs.face_sign(p, k), part))
        g_eta = _reference_convolve_component(cat, g_cells, cochain, seq,
                                              signs)
        if not g_eta.is_zero():
            terms.append((-1, g_eta))
        eta_f = _reference_convolve_component(cat, cochain, f_cells, seq,
                                              signs)
        if not eta_f.is_zero():
            terms.append(((-1) ** t, eta_f))
        value = lin(*terms)
        if not value.is_zero():
            components[seq] = value
    return NerveCochain(cochain.source, cochain.target, t + 1, components)


# -- categories ------------------------------------------------------------------

def fractional_category():
    """Two complexes whose differentials have entries 3/2, −1/3 and 2/9, so
    the hom differentials' structure constants are not integers."""
    big = complex_from_dense(SquareZeroRing(0), {0: 1, 1: 2, 2: 1}, {
        0: [[Fraction(3, 2)], [Fraction(-1, 3)]],
        1: [[Fraction(2, 9), 1]]})
    small = complex_from_dense(SquareZeroRing(0), {-1: 1, 0: 1},
                               {-1: [[Fraction(-1, 3)]]})
    return make_complex_category([big, small], names=("P", "Q"))


def ideal_twisted_category(ring):
    """``three_term`` over ``ring`` twisted by ε·v, v a degree-1 cycle: the
    twisted differential's structure constants have ideal layers."""
    cat = tensor_with_ring(FIXTURES["three_term"](), ring)
    eta = Morphism("C0", "C0", 1, (ring.zero(), ring.generator(0)))
    return twist(cat, {"C0": eta})


CATEGORY_NAMES = (*FIXTURES, "fractional", "ideal_twisted")


@functools.cache
def category(name, rank):
    if name == "ideal_twisted":
        return ideal_twisted_category(SquareZeroRing(max(rank, 1)))
    base = fractional_category() if name == "fractional" else FIXTURES[name]()
    return tensor_with_ring(base, SquareZeroRing(rank)) if rank else base


def test_test_categories_have_the_constants_they_claim():
    frac, ideal = fractional_category(), category("ideal_twisted", 1)
    assert check_axioms(frac) == check_axioms(ideal) == []
    constants = {a.body for cols in frac.diffs.values()
                 for entries in cols.values() for _, a in entries}
    assert {Fraction(3, 2), Fraction(1, 3), Fraction(2, 9)} <= \
        {abs(q) for q in constants}
    assert any(not a.in_ideal() and any(a.ideal)
               for cols in ideal.diffs.values()
               for entries in cols.values() for _, a in entries)


def noisy(cat, source, target, degree, rng):
    """A random morphism with denominators up to 7 and ideal noise."""
    return Morphism(source, target, degree, random_elements(
        cat.ring, rng, cat.rank(source, target, degree), span=9,
        max_denominator=7))


def random_terms(cat, rng, count):
    """A random block and up to ``count`` signed terms in it, each a
    morphism, a differential or a composite: (block, [(kind, args, sign)])."""
    x, z = rng.choice(cat.objects), rng.choice(cat.objects)
    degree = rng.choice(degrees(cat, x, z) or [0])
    terms = []
    for _ in range(count):
        kind, sign = rng.choice(("add", "diff", "compose")), rng.choice((1, -1))
        if kind == "add":
            terms.append((kind, (noisy(cat, x, z, degree, rng),), sign))
        elif kind == "diff":
            terms.append((kind, (noisy(cat, x, z, degree - 1, rng),), sign))
        else:
            y = rng.choice(cat.objects)
            s = rng.choice(degrees(cat, x, y) or [0])
            inner = noisy(cat, x, y, s, rng)
            outer = noisy(cat, y, z, degree - s, rng)
            terms.append((kind, (outer, inner), sign))
    return (x, z, degree), terms


def reference_sum(cat, block, terms):
    parts = [(1, cat.zero(*block))]
    for kind, args, sign in terms:
        term = {"add": lambda f: f,
                "diff": lambda f: _reference_differential(cat, f),
                "compose": lambda g, f: _reference_compose(cat, g, f)}[kind]
        parts.append((sign, term(*args)))
    return lin(*parts)


def kernel_sum(cat, block, terms):
    total = MorphismSum(cat, *block)
    for kind, args, sign in terms:
        {"add": total.add, "diff": total.add_differential,
         "compose": total.add_compose}[kind](*args, sign)
    return total


# -- oracle tests ----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CATEGORY_NAMES), st.integers(0, 2),
       st.integers(0, 2 ** 32))
def test_differential_and_compose_match_reference(name, rank, seed):
    cat, rng = category(name, rank), random.Random(seed)
    for x in cat.objects:
        for y in cat.objects:
            for s in degrees(cat, x, y):
                f = noisy(cat, x, y, s, rng)
                assert cat.differential(f) == _reference_differential(cat, f)
                for z in cat.objects:
                    for t in degrees(cat, y, z):
                        g = noisy(cat, y, z, t, rng)
                        assert cat.compose(g, f) == \
                            _reference_compose(cat, g, f)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CATEGORY_NAMES), st.integers(0, 2),
       st.integers(0, 2 ** 32), st.integers(1, 6))
def test_signed_sums_match_reference(name, rank, seed, count):
    cat, rng = category(name, rank), random.Random(seed)
    block, terms = random_terms(cat, rng, count)
    total = kernel_sum(cat, block, terms)
    got = total.result()
    assert got == reference_sum(cat, block, terms)
    assert total.is_zero() == got.is_zero()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CATEGORY_NAMES), st.integers(0, 2),
       st.integers(0, 2 ** 32), st.integers(1, 4))
def test_sums_that_cancel_are_exactly_zero(name, rank, seed, count):
    cat, rng = category(name, rank), random.Random(seed)
    block, terms = random_terms(cat, rng, count)
    both = terms + [(kind, args, -sign) for kind, args, sign in terms[::-1]]
    rng.shuffle(both)
    total = kernel_sum(cat, block, both)
    assert total.result() == cat.zero(*block)
    assert total.is_zero()


def test_sum_is_zero_after_its_denominator_grew():
    cat = category("fractional", 1)
    block = ("P", "Q", 0)
    ring, rank = cat.ring, cat.rank(*block)
    third = Morphism(*block, (ring.element("1/3", ["2/5"]),) * rank)
    sevenths = Morphism(*block, (ring.element("2/7", ["-1/2"]),) * rank)
    total = MorphismSum(cat, *block).add(third).add(sevenths)
    assert total.den == 3 * 5 * 7 * 2 and not total.is_zero()
    total.add(third, -1).add(sevenths, -1)
    assert total.is_zero() and total.result() == cat.zero(*block)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATEGORY_NAMES), st.integers(0, 2),
       st.integers(0, 2 ** 32), st.integers(2, 4))
def test_boundaries_and_cochain_differentials_match_reference(name, rank, seed,
                                                              n):
    cat, rng = category(name, rank), random.Random(seed)
    source = random_valid_simplex(cat, rng, n, witnessed=False)
    target = random_valid_simplex(cat, rng, n, witnessed=False)
    cells = {seq: noisy(cat, cell.source, cell.target, cell.degree, rng)
             for seq, cell in source.cells.items()}
    for seq in (s for s in increasing_sequences(n) if len(s) > 2):
        assert required_boundary(cat, source.objects, cells, seq) == \
            _reference_required_boundary(cat, source.objects, cells.get, seq)
    eta = random_cochain(cat, rng, source, target,
                         rng.choice(COCHAIN_DEGREES))
    want = _reference_cochain_differential(cat, eta)
    got = cochain_differential(cat, eta)
    assert (got.degree, got.components) == (want.degree, want.components)
    g_cells = NerveCochain(target, target, 1, target.cells)
    product = cochain_compose(cat, g_cells, eta)
    assert product.components == {
        seq: value for seq in increasing_sequences(n)
        if not (value := _reference_convolve_component(
            cat, g_cells, eta, seq, PINNED)).is_zero()}
    for cochain in (got, product):       # no zero component is stored
        assert not any(m.is_zero() for m in cochain.components.values())
    for k in (0, rng.randrange(1, n), n):  # outer, inner, reversed outer
        horn = random_horn(cat, rng, n, k, witnessed=False)
        getter = _zero_face_getter(cat, horn)
        for seq in horn.missing:         # an absent cell counts as zero
            assert required_boundary(cat, horn.objects, horn.cells, seq) == \
                _reference_required_boundary(cat, horn.objects, getter, seq)
        obs = compute_obstruction(cat, horn)
        seen = opposite_horn(horn) if obs.op_reduced else horn
        getter = _zero_face_getter(obs.category, seen)
        assert (obs.U, obs.V) == tuple(
            _reference_required_boundary(obs.category, seen.objects, getter,
                                         seq) for seq in seen.missing)


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", CATEGORY_NAMES)
def test_compose_ignores_stored_pairs_it_cannot_meet(name, rank):
    """A composite walks the tensor's stored pairs: a pair outside either
    operand's support, or with a negative or past-rank index, adds nothing
    (a read kept as a list would wrap at −1)."""
    cat, rng = category(name, rank), random.Random(rank)
    one = cat.ring.one()
    for key, tensor in cat.comps.items():
        x, y, z, s, t = key
        n_out, n_in = cat.rank(y, z, t), cat.rank(x, y, s)
        outer, inner = noisy(cat, y, z, t, rng), noisy(cat, x, y, s, rng)
        # zero the first outer and the last inner coordinate
        outer = Morphism(y, z, t, (cat.ring.zero(),) + outer.coords[1:])
        inner = Morphism(x, y, s, inner.coords[:-1] + (cat.ring.zero(),))
        stray = {(i, j): ((0, one),) for i in range(-1, n_out + 1)
                 for j in range(-1, n_in + 1)
                 if i in (-1, 0, n_out) or j in (-1, n_in - 1, n_in)}
        wide = dataclasses.replace(
            cat, comps={**cat.comps, key: {**stray, **tensor}})
        got = wide.compose(outer, inner)
        assert got == _reference_compose(wide, outer, inner)
        assert got == _reference_compose(cat, outer, inner)


# -- errors (the same type and text as the Fraction loops give) --------------------

def test_term_from_another_block_is_a_shape_mismatch():
    cat = category("three_term", 0)
    seq = (0, 1, 2)
    cells = {s: cat.zero("C0", "C0", 1 - (len(s) - 1))
             for s in increasing_sequences(2)}
    cells[(0, 2)] = cat.zero("C0", "C0", 1)
    with pytest.raises(ValueError) as info:
        required_boundary(cat, ("C0",) * 3, cells, seq)
    assert str(info.value) == \
        "morphism shape mismatch: C0->C0 deg 0 vs C0->C0 deg 1"


def test_term_with_wrong_coordinate_count_is_a_rank_mismatch():
    cat = category("three_term", 0)
    cells = {s: cat.zero("C0", "C0", 1 - (len(s) - 1))
             for s in increasing_sequences(2)}
    short = cells[(0, 2)]
    cells[(0, 2)] = Morphism(short.source, short.target, short.degree,
                             short.coords[1:])
    with pytest.raises(ValueError, match=r"^morphism rank mismatch$"):
        required_boundary(cat, ("C0",) * 3, cells, (0, 1, 2))


def test_morphisms_that_do_not_compose():
    cat = category("complexes_a", 0)
    f = cat.zero("A", "B", 0)
    g = cat.zero("C", "A", 0)
    with pytest.raises(ValueError) as info:
        cat.compose(g, f)
    assert str(info.value) == "morphisms do not compose: A->B then C->A"


@pytest.mark.parametrize("op", ["differential", "compose", "add"])
def test_coordinate_from_another_ring_rank(op):
    cat = category("three_term", 1)
    alien = SquareZeroRing(2)
    f = cat.identity("C0")
    stray = Morphism(f.source, f.target, f.degree,
                     tuple(alien.element(c.body, [1, 1]) for c in f.coords))
    with pytest.raises(ValueError,
                       match=r"^ring elements of different ideal rank$"):
        if op == "differential":
            cat.differential(stray)
        elif op == "compose":
            cat.compose(f, stray)
        else:
            cells = {(0, 1): f, (1, 2): f, (0, 2): stray}
            required_boundary(cat, ("C0",) * 3, cells, (0, 1, 2))
