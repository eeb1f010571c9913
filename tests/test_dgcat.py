"""Finite dg-categories: axioms, complex fixtures, opposite, witnesses.

Hand values for the two-term complex K = (Q --id--> Q) are derived from the
hom-complex differential D(f) = d∘f − (−1)^{|f|} f∘d:

    basis of End⁰(K): e00 (unit of level 0), e11 (unit of level 1)
    End¹(K) = ⟨v⟩ (level 0 → level 1),  End⁻¹(K) = ⟨u⟩ (level 1 → level 0)

    D(e00) = v      D(e11) = −v      D(v) = 0      D(u) = e00 + e11 = 1
    u∘v = e00       v∘u = e11
"""

import dataclasses
import functools
import itertools
import random
import time
from collections import defaultdict
from fractions import Fraction
from math import lcm

import pytest

from dgnerve import fixtures, jsonio
from dgnerve.glin import solve_linear
from dgnerve.dgcat import (
    ChainComplex,
    DgCategory,
    InvalidComplex,
    Morphism,
    NotEquivalence,
    Violation,
    _unit_defects,
    check_axioms,
    complex_from_dense,
    find_equivalence_witness,
    make_complex_category,
    opposite,
    random_complex,
    reset_witness_calls,
    witness_call_count,
)
from dgnerve.fixtures import three_term_category
from dgnerve.mc import tensor_with_ring, twist
from dgnerve.rings import RATIONALS, SquareZeroRing
from lincomb import degrees, lin
from nervekit import (basis_morphism, dense_differential, interval_category,
                      kernel, old_random_morphism)
from test_rings import assert_matches, old_random_element


def flip_one_diff_sign(cat):
    """Copy of ``cat`` with the sign of one differential entry flipped."""
    for key in sorted(cat.diffs):
        cols = cat.diffs[key]
        for j in sorted(cols):
            entries = cols[j]
            if entries:
                i, a = entries[0]
                new_cols = dict(cols)
                new_cols[j] = ((i, -a),) + entries[1:]
                new_diffs = dict(cat.diffs)
                new_diffs[key] = new_cols
                return dataclasses.replace(cat, diffs=new_diffs)
    raise AssertionError("category has no differential entries to corrupt")


# ---------------------------------------------------------------------------
# Axioms on fixtures.
# ---------------------------------------------------------------------------


def test_exterior_category_passes(exterior):
    assert check_axioms(exterior) == []


def test_complex_categories_pass(two_term, three_term, complexes):
    for cat in (two_term, three_term, complexes):
        assert check_axioms(cat) == []


def test_flipped_sign_breaks_leibniz(two_term):
    bad = flip_one_diff_sign(two_term)
    report = check_axioms(bad)
    assert report
    assert any(v.kind == "leibniz" for v in report)


def _reference_check_axioms(cat):
    """Oracle: every identity checked on basis morphisms one at a time, with
    ``compose`` and ``differential``, in the order ``check_axioms`` reports.
    The unit laws use only units of the hom rank.  Composites are memoised:
    the same pair recurs across the identities of many basis tuples."""
    out = []
    compose = functools.lru_cache(maxsize=None)(cat.compose)
    objects = cat.objects
    units = {obj for obj, unit in cat.identities.items()
             if len(unit) == cat.rank(obj, obj, 0)}

    for obj in objects:
        if obj not in cat.identities:
            out.append(Violation("missing_identity", (obj,),
                                 "object has no unit element"))
            continue
        if len(cat.identities[obj]) != cat.rank(obj, obj, 0):
            out.append(Violation("identity_rank", (obj,),
                                 "unit coordinates do not match hom rank"))

    for (x, y, t) in sorted(cat.ranks):
        for j in range(cat.rank(x, y, t)):
            basis = basis_morphism(cat, x, y, t, j)
            if not cat.differential(cat.differential(basis)).is_zero():
                out.append(Violation("d_squared", (x, y, t, j),
                                     "d(d(basis element)) is nonzero"))
    for obj in objects:
        if obj in units and not cat.differential(cat.identity(obj)).is_zero():
            out.append(Violation("unit_not_closed", (obj,),
                                 "d(identity) is nonzero"))

    for (x, y, t) in sorted(cat.ranks):
        for j in range(cat.rank(x, y, t)):
            basis = basis_morphism(cat, x, y, t, j)
            if y in units and compose(cat.identity(y), basis) != basis:
                out.append(Violation("unit_left", (x, y, t, j),
                                     "1∘f differs from f"))
            if x in units and compose(basis, cat.identity(x)) != basis:
                out.append(Violation("unit_right", (x, y, t, j),
                                     "f∘1 differs from f"))

    for x, y, z in itertools.product(objects, repeat=3):
        for s in degrees(cat, x, y):
            for t in degrees(cat, y, z):
                for j in range(cat.rank(x, y, s)):
                    f = basis_morphism(cat, x, y, s, j)
                    df = cat.differential(f)
                    for i in range(cat.rank(y, z, t)):
                        g = basis_morphism(cat, y, z, t, i)
                        lhs = cat.differential(compose(g, f))
                        rhs = lin((1, compose(cat.differential(g), f)),
                                  ((-1) ** t, compose(g, df)))
                        if lhs != rhs:
                            out.append(Violation(
                                "leibniz", (x, y, z, s, t, i, j),
                                "d(g∘f) ≠ d(g)∘f + (−1)^{|g|} g∘d(f)"))

    for x, y, z, w in itertools.product(objects, repeat=4):
        for s in degrees(cat, x, y):
            for t in degrees(cat, y, z):
                for u in degrees(cat, z, w):
                    for j in range(cat.rank(x, y, s)):
                        f = basis_morphism(cat, x, y, s, j)
                        for i in range(cat.rank(y, z, t)):
                            g = basis_morphism(cat, y, z, t, i)
                            gf = compose(g, f)
                            for l in range(cat.rank(z, w, u)):
                                h = basis_morphism(cat, z, w, u, l)
                                if compose(h, gf) != \
                                        compose(compose(h, g), f):
                                    out.append(Violation(
                                        "associativity",
                                        (x, y, z, w, s, t, u, l, i, j),
                                        "(h∘g)∘f ≠ h∘(g∘f)"))
    return out


def triple_one_comp_entry(cat):
    """Copy of ``cat`` with one composition coefficient tripled."""
    key = sorted(cat.comps)[-1]
    tensor = dict(cat.comps[key])
    pair = sorted(tensor)[0]
    (r, a), *rest = tensor[pair]
    tensor[pair] = ((r, a * 3), *rest)
    return dataclasses.replace(cat, comps={**cat.comps, key: tensor})


def double_comp_block(cat, key):
    """Copy of ``cat`` with the composition block ``key`` doubled: many
    failures per block, so the order within a block is tested too."""
    tensor = {pair: tuple((r, a * 2) for r, a in entries)
              for pair, entries in cat.comps[key].items()}
    return dataclasses.replace(cat, comps={**cat.comps, key: tensor})


def double_one_unit(cat):
    """Copy of ``cat`` with the unit of its first object doubled."""
    obj = cat.objects[0]
    units = tuple(c * 2 for c in cat.identities[obj])
    return dataclasses.replace(cat, identities={**cat.identities, obj: units})


def unit_with_ideal_layer(cat):
    """Copy of ``cat`` whose first object's first nonzero unit coordinate
    is multiplied by 1 + ε₁/2."""
    obj = cat.objects[0]
    units = list(cat.identities[obj])
    k = next(k for k, c in enumerate(units) if not c.is_zero())
    units[k] = units[k] * cat.ring.element(
        1, ["1/2"] + ["0"] * (cat.ring.ideal_rank - 1))
    return dataclasses.replace(cat,
                               identities={**cat.identities, obj: tuple(units)})


def short_unit(cat):
    """Copy of ``cat`` with the last unit coordinate of its first object
    dropped, so the unit no longer matches the degree-0 rank."""
    obj = cat.objects[0]
    units = cat.identities[obj][:-1]
    return dataclasses.replace(cat, identities={**cat.identities, obj: units})


def long_unit(cat):
    """Copy of ``cat`` with a zero coordinate appended to the unit of its
    first object, so the unit no longer matches the degree-0 rank."""
    obj = cat.objects[0]
    units = cat.identities[obj] + (cat.ring.zero(),)
    return dataclasses.replace(cat, identities={**cat.identities, obj: units})


def unclosed_unit(cat):
    """Copy of ``cat`` whose first object's unit is the first degree-0 basis
    element with a nonzero differential."""
    obj = cat.objects[0]
    unit = next(e for e in (basis_morphism(cat, obj, obj, 0, j)
                            for j in range(cat.rank(obj, obj, 0)))
                if not cat.differential(e).is_zero())
    return dataclasses.replace(cat,
                               identities={**cat.identities, obj: unit.coords})


def scale_first_entry(cat, key, index, factor):
    """Copy of ``cat`` with the first entry of one ``diffs`` column or one
    ``comps`` index pair multiplied by ``factor``."""
    field = "comps" if len(key) == 5 else "diffs"
    blocks = getattr(cat, field)
    block = dict(blocks[key])
    (r, a), *rest = block[index]
    block[index] = ((r, a * factor), *rest)
    return dataclasses.replace(cat, **{field: {**blocks, key: block}})


# In three_term, g∘f of basis elements g ∈ hom_0, f ∈ hom_{-1} is the first
# basis element of hom_{-1}, and h∘(that) for h ∈ hom_1 is an entry of the
# second block: both entries meet in h∘(g∘f) at (C0⁴, -1, 0, 1, 0, 0, 0).
INNER_COMP, OUTER_COMP = ("C0", "C0", "C0", -1, 0), ("C0", "C0", "C0", -1, 1)


def thirds_and_fifths(cat):
    return scale_first_entry(scale_first_entry(cat, INNER_COMP, (0, 0),
                                               Fraction(1, 3)),
                             OUTER_COMP, (0, 0), Fraction(2, 5))


def mc_mutant(cat):
    """``cat`` twisted by an element off the Maurer-Cartan locus."""
    (obj,) = cat.objects
    return twist(cat, {obj: cat.morphism(obj, obj, 1, [1, 0])},
                 validate=False)


def halves_unit_category():
    """One object whose degree-0 basis element e has e∘e = 2e, so its unit
    is e/2: the unit laws hold only over the unit's denominator."""
    two, half = RATIONALS.element(2), RATIONALS.element(Fraction(1, 2))
    return DgCategory(RATIONALS, ("X",), {("X", "X", 0): 1}, {},
                      {("X", "X", "X", 0, 0): {(0, 0): ((0, two),)}},
                      {"X": (half,)})


def sparse_category():
    """Five objects, two of them zero complexes, so many hom blocks are
    empty; the complex in degree 5 has homs to the others only far from 0."""
    def cx(dims, d=()):
        return complex_from_dense(RATIONALS, dims, dict(d))
    return make_complex_category(
        [cx({0: 1, 1: 1}, {0: [[1]]}), cx({}),
         cx({0: 1, 1: 1, 2: 1}, {1: [[1]]}), cx({}), cx({5: 1})],
        names=("K1", "Z1", "K2", "Z2", "K5"))


def uneven_category():
    """Two objects whose hom blocks have ranks 1 to 4; hom(Y, Y)_0 alone
    has rank 4, so it alone sets the largest coordinate of an identity."""
    return make_complex_category(
        [complex_from_dense(RATIONALS, {0: 1, 1: 1}, {0: [[1]]}),
         complex_from_dense(RATIONALS, {0: 2})], names=("X", "Y"))


def interleave_empty_blocks(cat):
    """Copy of ``cat`` with a rank-0 hom block listed before each block of
    ``ranks``, so blocks share their first basis number with an empty one."""
    ranks = {}
    for (x, y, t), rank in cat.ranks.items():
        ranks[x, y, t + 10] = 0
        ranks[x, y, t] = rank
    return dataclasses.replace(cat, ranks=ranks)


# check_axioms numbers basis elements in ``ranks`` order: in three_term the
# hom_{-2} element is the first number and the hom_2 element the last; each
# is g, the leading basis element, of the identities these corruptions break.
FIRST_AS_G, LAST_AS_G = ("C0", "C0", "C0", 0, -2), ("C0", "C0", "C0", -1, 2)


@pytest.mark.parametrize("build", [
    lambda f: flip_one_diff_sign(f["two_term"]),
    lambda f: flip_one_diff_sign(f["complexes_a"]),
    lambda f: triple_one_comp_entry(f["three_term"]),
    lambda f: triple_one_comp_entry(f["complexes_b"]),
    lambda f: double_comp_block(f["complexes_a"], ("A", "A", "B", -2, 0)),
    lambda f: double_one_unit(f["complexes_a"]),
    lambda f: mc_mutant(f["three_term"]),
    lambda f: opposite(flip_one_diff_sign(f["complexes_b"])),
    lambda f: opposite(triple_one_comp_entry(f["twisted"])),
    lambda f: opposite(f["exterior"]),
    lambda f: three_term_category(SquareZeroRing(2)),
    lambda f: flip_one_diff_sign(three_term_category(SquareZeroRing(2))),
    lambda f: flip_one_diff_sign(sparse_category()),
    lambda f: triple_one_comp_entry(sparse_category()),
    lambda f: double_comp_block(sparse_category(), ("K1", "K2", "K5", 0, 4)),
    lambda f: double_comp_block(interval_category(3), ("1", "2", "3", 0, 0)),
    lambda f: thirds_and_fifths(f["three_term"]),
    lambda f: scale_first_entry(f["three_term"], ("C0", "C0", -1), 1,
                                Fraction(1, 7)),
    lambda f: scale_first_entry(three_term_category(SquareZeroRing(2)),
                                INNER_COMP, (0, 0),
                                SquareZeroRing(2).element(1, ["1/2", "0"])),
    lambda f: short_unit(f["complexes_a"]),
    lambda f: long_unit(f["complexes_a"]),
    lambda f: unclosed_unit(f["three_term"]),
    lambda f: scale_first_entry(f["three_term"], FIRST_AS_G, (0, 2),
                                Fraction(1, 3)),
    lambda f: scale_first_entry(f["three_term"], LAST_AS_G, (0, 0),
                                Fraction(1, 3)),
    lambda f: double_comp_block(uneven_category(), ("Y", "X", "Y", 0, 0)),
    lambda f: interleave_empty_blocks(thirds_and_fifths(f["three_term"])),
    lambda f: double_one_unit(tensor_with_ring(f["three_term"],
                                               SquareZeroRing(2))),
    lambda f: unit_with_ideal_layer(tensor_with_ring(f["three_term"],
                                                     SquareZeroRing(2))),
    lambda f: double_one_unit(sparse_category()),
    lambda f: halves_unit_category(),
    lambda f: thirds_and_fifths(tensor_with_ring(f["three_term"],
                                                 SquareZeroRing(1))),
], ids=["flipped_diff_sign", "flipped_diff_sign_3_objects",
        "tripled_comp_entry", "tripled_comp_entry_3_objects",
        "doubled_comp_block", "doubled_unit",
        "mc_mutant", "opposite_flipped_sign", "opposite_tripled_twisted",
        "opposite_exterior", "ring_rank_2", "ring_rank_2_flipped_sign",
        "sparse_flipped_sign", "sparse_tripled_comp_entry",
        "sparse_doubled_comp_block", "interval_doubled_comp_block",
        "comp_thirds_and_fifths", "diff_sevenths",
        "ring_rank_2_fractional_ideal_comp", "short_unit", "long_unit",
        "unclosed_unit", "first_basis_number", "last_basis_number",
        "uneven_ranks_doubled_comp_block", "empty_blocks_interleaved",
        "ring_rank_2_doubled_unit", "ring_rank_2_unit_ideal_layer",
        "sparse_doubled_unit", "halves_unit", "ring_rank_1_thirds_and_fifths"])
def test_check_axioms_matches_basis_oracle(all_fixtures, build):
    cat = build(dict(all_fixtures))
    assert check_axioms(cat) == _reference_check_axioms(cat)


def corrupt_one_entry(cat, seed):
    """Copy of ``cat`` with one structure entry changed, drawn from ``seed``:
    its body or one ideal layer scaled by 1/3, 1/5 or 1/7 (a zero layer
    becomes that fraction), or a new entry of that value in a free row."""
    rng = random.Random(seed)
    field = rng.choice(("diffs", "comps"))
    blocks = getattr(cat, field)
    key = rng.choice(sorted(k for k, block in blocks.items() if block))
    block = dict(blocks[key])
    index = rng.choice(sorted(block))
    entries = list(block[index])
    factor = Fraction(1, rng.choice((3, 5, 7)))
    layer = rng.randrange(cat.ring.ideal_rank + 1)
    x, y, *_ = key
    result_rank = cat.rank(x, y, key[2] + 1) if field == "diffs" \
        else cat.rank(x, key[2], key[3] + key[4])
    free = sorted(set(range(result_rank)) - {r for r, _ in entries})
    if free and rng.random() < 0.3:
        values = [0] * (cat.ring.ideal_rank + 1)
        values[layer] = factor
        entries.append((rng.choice(free),
                        cat.ring.element(values[0], values[1:])))
    else:
        pos = rng.randrange(len(entries))
        r, a = entries[pos]
        values = [a.body, *a.ideal]
        values[layer] = values[layer] * factor if values[layer] else factor
        entries[pos] = (r, cat.ring.element(values[0], values[1:]))
    block[index] = tuple(entries)
    return dataclasses.replace(cat, **{field: {**blocks, key: block}})


# The oracle takes about 0.7 s on complexes_a and 0.03 s on the others.
@pytest.mark.parametrize("name, seed", [
    *((name, seed) for name in ("three_term", "twisted", "three_term_eps2")
      for seed in range(9)),
    ("complexes_a", 0)])
def test_check_axioms_matches_oracle_on_random_corruptions(all_fixtures,
                                                            name, seed):
    cats = dict(all_fixtures)
    cats["three_term_eps2"] = tensor_with_ring(cats["three_term"],
                                               SquareZeroRing(2))
    cat = corrupt_one_entry(cats[name], f"{name}{seed}")
    assert check_axioms(cat) == _reference_check_axioms(cat)


def test_fractional_comps_meet_in_one_associativity_identity(three_term):
    report = check_axioms(thirds_and_fifths(three_term))
    assert Violation("associativity",
                     ("C0",) * 4 + (-1, 0, 1, 0, 0, 0),
                     "(h∘g)∘f ≠ h∘(g∘f)") in report


def test_comp_constant_of_another_ring_width_raises(three_term):
    key = ("C0", "C0", "C0", 0, 0)
    tensor = {**three_term.comps[key],
              (0, 0): ((0, SquareZeroRing(1).one()),)}
    cat = dataclasses.replace(three_term,
                              comps={**three_term.comps, key: tensor})
    with pytest.raises(ValueError,
                       match=r"^ring elements of different ideal rank$"):
        check_axioms(cat)


@pytest.mark.parametrize("build", [
    lambda f: f["three_term"],      # d(unit) reads the unit first
    lambda f: unit_only_category(1),    # no differential: the unit laws do
], ids=["three_term", "unit_only"])
def test_unit_coordinate_of_another_ring_width_raises(all_fixtures, build):
    cat = build(dict(all_fixtures))
    (obj, unit), = cat.identities.items()
    units = (SquareZeroRing(1).one(), *unit[1:])
    cat = dataclasses.replace(cat, identities={obj: units})
    with pytest.raises(ValueError,
                       match=r"^ring elements of different ideal rank$"):
        check_axioms(cat)


def test_sparse_category_has_empty_blocks():
    cat = sparse_category()
    assert check_axioms(cat) == []
    assert degrees(cat, "K1", "Z1") == degrees(cat, "Z2", "K5") == []
    assert ("K1", "K2", "K5", 0, 4) in cat.comps


def unit_only_category(n):
    one = RATIONALS.one()
    names = tuple(f"X{i}" for i in range(n))
    return DgCategory(RATIONALS, names, {(x, x, 0): 1 for x in names}, {},
                      {(x, x, x, 0, 0): {(0, 0): ((0, one),)} for x in names},
                      {x: (one,) for x in names})


def test_unit_only_objects_are_checked_quickly():
    # only composable chains of nonempty blocks are walked: 40 objects with
    # a unit each took 24.6 s when every object quadruple was visited
    start = time.perf_counter()
    assert check_axioms(unit_only_category(40)) == []
    assert time.perf_counter() - start < 5
    cat = double_one_unit(unit_only_category(6))
    assert check_axioms(cat) == _reference_check_axioms(cat) != []


def all_pairs_document(n):
    """A category document of n objects with a rank-1 degree-0 hom between
    every ordered pair, units and no composition: 8.9 KB at n = 20 and
    35 KB at n = 40."""
    names = [f"X{i}" for i in range(n)]
    return {"kind": "category", "ring": 0, "objects": names,
            "ranks": [[x, y, 0, 1] for x in names for y in names],
            "identities": [[x, ["1"]] for x in names]}


def test_check_cost_follows_the_document_length():
    # every unit law fails (nothing composes) and nothing else is checked;
    # a walk over all composable chains of blocks would take about 17 s
    cat = jsonio.category_from_json(all_pairs_document(5))
    assert check_axioms(cat) == _reference_check_axioms(cat) != []
    cat = jsonio.category_from_json(all_pairs_document(40))
    start = time.perf_counter()
    report = check_axioms(cat)
    assert time.perf_counter() - start < 2
    assert len(report) == 2 * 40 * 40
    assert {v.kind for v in report} == {"unit_left", "unit_right"}


def _reference_unit_defects(tensor, unit, n, slot, width):
    """Oracle: the unit laws' sum with its own product loop, a dict of int
    layers over the lcm of the unit's denominators times the lcm of the
    block's, starting with −den on the diagonal."""
    if tensor and any(len(c.nums) != width for c in unit.values()):
        raise ValueError("ring elements of different ideal rank")
    den = lcm(*(c.den for c in unit.values())) * \
        lcm(*(a.den for entries in tensor.values() for _, a in entries))
    sums = defaultdict(int, {j * (n + 1) * width: -den for j in range(n)})
    for pair, entries in tensor.items():      # (j·n + row)·width + layer
        u = unit.get(pair[slot])
        for r, a in entries if u else ():
            (a0, *a_eps), (u0, *u_eps) = a.nums, u.nums
            product = [a0 * u0, *(a0 * ue + ae * u0
                                  for ae, ue in zip(a_eps, u_eps))]
            for key, v in enumerate(product,
                                    (pair[1 - slot] * n + r) * width):
                sums[key] += den // (a.den * u.den) * v
    return {key // (n * width) for key, v in sums.items() if v}


def scale_first_unit(cat, factor):
    """Copy of ``cat`` with the unit of its first object times ``factor``."""
    obj = cat.objects[0]
    units = tuple(c * factor for c in cat.identities[obj])
    return dataclasses.replace(cat, identities={**cat.identities, obj: units})


UNIT_LAW_CASES = {
    "doubled_unit": lambda three_term, doubled_unit: doubled_unit,
    "mutated_comps_unit_entry": lambda three_term, _: scale_first_entry(
        three_term, ("C0", "C0", "C0", 0, 0), (0, 0), 3),
    "fractional_unit_and_block": lambda three_term, _: scale_first_unit(
        thirds_and_fifths(three_term), Fraction(1, 2)),
    "fractional_over_ideal": lambda three_term, _: scale_first_unit(
        tensor_with_ring(thirds_and_fifths(three_term), SquareZeroRing(2)),
        SquareZeroRing(2).element(Fraction(1, 2), [Fraction(1, 6)])),
    "halves_unit": lambda *_: halves_unit_category(),
    "empty_unit_block": lambda *_: jsonio.category_from_json(
        all_pairs_document(3)),
}


@pytest.mark.parametrize("case", list(UNIT_LAW_CASES))
def test_unit_defects_match_reference(three_term, doubled_unit, case):
    """The defects of every hom block, left and right, as the oracle finds
    them."""
    cat = UNIT_LAW_CASES[case](three_term, doubled_unit)
    width = cat.ring.ideal_rank + 1
    units = {obj: {i: c for i, c in enumerate(unit) if any(c.nums)}
             for obj, unit in cat.identities.items()}
    found = []
    for (x, y, t), n in sorted(cat.ranks.items()):
        for key, unit, slot in (((x, y, y, t, 0), units[y], 0),
                                ((x, x, y, 0, t), units[x], 1)):
            got = _unit_defects(cat.comps, key, unit, n, slot, width)
            assert got == _reference_unit_defects(cat.comps.get(key, {}),
                                                  unit, n, slot, width)
            found.append(got)
    assert any(found) == (case != "halves_unit")


@pytest.mark.parametrize("column, row, bad", [
    (1, 4, [(1, 4)]),               # row index = rank + 1
    (1, -1, [(1, -1)]),             # a negative row index
    (2, 1, [(2, 1), (2, 2)]),       # column index = rank: both its entries
], ids=["row_rank_plus_1", "row_minus_1", "column_rank"])
def test_out_of_range_diff_index_is_reported_not_raised(three_term, column,
                                                         row, bad):
    # A category built in code can hold indices the parser rejects.  The
    # sums would raise on an index past the rank and wrap −1 into another
    # coordinate, so check_axioms reports them and checks nothing else.
    key = ("C0", "C0", -1)          # rank 2, differential into rank 3
    cols = dict(three_term.diffs[key])
    (_, a), *rest = cols.pop(1)
    cols[column] = ((row, a), *rest)
    cat = dataclasses.replace(three_term,
                              diffs={**three_term.diffs, key: cols})
    assert check_axioms(cat) == [
        Violation("index_range", key + pair, "diff index outside the hom rank")
        for pair in bad]


def test_out_of_range_comp_index_is_reported_not_raised(three_term):
    key = ("C0", "C0", "C0", 0, 0)
    tensor = dict(three_term.comps[key])
    tensor[-1, 0] = tensor.pop((0, 0))
    cat = dataclasses.replace(three_term,
                              comps={**three_term.comps, key: tensor})
    assert check_axioms(cat) == [Violation(
        "index_range", key + (-1, 0, 0), "comp index outside the hom rank")]


def _reference_index_range(cat):
    """Oracle: the structure entries with an index outside the rank of its
    hom block, in sorted block order, then sorted index order, then the
    order the entries are stored in."""
    for (x, y, t), cols in sorted(cat.diffs.items()):
        cols_n, rows_n = cat.rank(x, y, t), cat.rank(x, y, t + 1)
        for j in sorted(cols):
            for r, _ in cols[j]:
                if not (0 <= j < cols_n and 0 <= r < rows_n):
                    yield Violation("index_range", (x, y, t, j, r),
                                    "diff index outside the hom rank")
    for (x, y, z, s, t), tensor in sorted(cat.comps.items()):
        outer_n, inner_n = cat.rank(y, z, t), cat.rank(x, y, s)
        result_n = cat.rank(x, z, s + t)
        for i, j in sorted(tensor):
            for r, _ in tensor[i, j]:
                if not (0 <= i < outer_n and 0 <= j < inner_n
                        and 0 <= r < result_n):
                    yield Violation("index_range", (x, y, z, s, t, i, j, r),
                                    "comp index outside the hom rank")


def scatter_bad_indices(cat):
    """Copy of ``cat`` with indices outside their hom blocks in two
    ``diffs`` and four ``comps`` blocks, some of them in entries stored
    out of row order, and every block listed in reverse sorted order."""
    diffs = {key: dict(cols) for key, cols in cat.diffs.items()}
    comps = {key: dict(tensor) for key, tensor in cat.comps.items()}
    first, last = sorted(diffs)[0], sorted(diffs)[-1]
    (j, entries), = list(diffs[last].items())[:1]
    a = entries[0][1]
    rows_n = cat.rank(last[0], last[1], last[2] + 1)
    diffs[last][j] = ((rows_n + 2, a), entries[0], (-1, a), (rows_n, a))
    diffs[first][cat.rank(*first)] = ((0, a), (1, a))
    keys = sorted(comps)
    (i, j), entries = sorted(comps[keys[0]].items())[0]
    comps[keys[0]][-1, j] = entries
    (i, j), entries = sorted(comps[keys[1]].items())[0]
    _, y, z, _, t = keys[1]
    comps[keys[1]][cat.rank(y, z, t), j] = entries
    (i, j), entries = sorted(comps[keys[-1]].items())[-1]
    x, y, _, s, _ = keys[-1]
    comps[keys[-1]][i, cat.rank(x, y, s)] = entries
    key = keys[len(keys) // 2]
    x, _, z, s, t = key
    result_n = cat.rank(x, z, s + t)
    (pair, entries), *_ = comps[key].items()
    comps[key][pair] = ((result_n, a), *entries, (-2, a), (result_n + 1, a))
    return dataclasses.replace(
        cat, diffs=dict(sorted(diffs.items(), reverse=True)),
        comps=dict(sorted(comps.items(), reverse=True)))


def test_scattered_bad_indices_match_the_oracle(all_fixtures):
    cat = scatter_bad_indices(dict(all_fixtures)["complexes_a"])
    expected = list(_reference_index_range(cat))
    assert len(expected) == 11
    assert len({v.location[:5 if len(v.location) == 8 else 3]
                for v in expected}) == 6
    assert check_axioms(cat) == expected
    # a missing unit still comes first, and a constant of another ring
    # width does not raise while an index is out of range
    key = sorted(cat.comps)[1]
    tensor = {**cat.comps[key], (0, 0): ((0, SquareZeroRing(1).one()),)}
    worse = dataclasses.replace(
        cat, identities={x: u for x, u in cat.identities.items() if x != "B"},
        comps={**cat.comps, key: tensor})
    assert check_axioms(worse) == [Violation(
        "missing_identity", ("B",), "object has no unit element"),
        *_reference_index_range(worse)]


def test_missing_unit_is_reported_not_raised(three_term, complexes):
    # the unit laws of blocks touching a unitless object are skipped; the
    # other objects' unit laws are still checked (and hold)
    missing = "object has no unit element"
    assert check_axioms(dataclasses.replace(three_term, identities={})) == [
        Violation("missing_identity", ("C0",), missing)]
    units = {x: u for x, u in complexes.identities.items() if x != "B"}
    assert check_axioms(dataclasses.replace(complexes, identities=units)) == [
        Violation("missing_identity", ("B",), missing)]


def test_short_unit_is_reported(three_term):
    report = check_axioms(short_unit(three_term))
    assert report[0] == Violation("identity_rank", ("C0",),
                                  "unit coordinates do not match hom rank")
    assert "unit_not_closed" not in {v.kind for v in report}
    assert not {"unit_left", "unit_right"} & {v.kind for v in report}


def test_unclosed_unit_is_reported(three_term):
    report = check_axioms(unclosed_unit(three_term))
    assert Violation("unit_not_closed", ("C0",),
                     "d(identity) is nonzero") in report
    assert "identity_rank" not in {v.kind for v in report}


def test_violations_serialize():
    ring = RATIONALS
    cat = make_complex_category(
        [complex_from_dense(ring, {0: 1, 1: 1}, {0: [[1]]})])
    bad = flip_one_diff_sign(cat)
    for v in check_axioms(bad):
        doc = v.to_json()
        assert set(doc) == {"kind", "location", "detail"}
        assert all(isinstance(part, str) for part in doc["location"])


# ---------------------------------------------------------------------------
# make_complex_category.
# ---------------------------------------------------------------------------


def test_two_term_hand_values(two_term):
    cat = two_term
    (obj,) = cat.objects
    e00 = basis_morphism(cat, obj, obj, 0, 0)
    e11 = basis_morphism(cat, obj, obj, 0, 1)
    u = basis_morphism(cat, obj, obj, -1, 0)
    v = basis_morphism(cat, obj, obj, 1, 0)
    assert cat.differential(e00) == v
    assert cat.differential(e11) == lin((-1, v))
    assert cat.differential(v).is_zero()
    assert cat.differential(u) == cat.identity(obj)
    assert cat.compose(u, v) == e00
    assert cat.compose(v, u) == e11


def test_empty_category():
    cat = make_complex_category([])
    assert cat.objects == ()
    assert check_axioms(cat) == []


def test_complex_category_blocks_skip_degree_gaps():
    """Dims {0: 1, 2: 1} beside {1: 2}: a block for each degree j − i of a
    pair, in pair order then degree order, none of rank 0, although the
    degrees −1 and 1 of (C0, C0) lie inside its range."""
    gap = complex_from_dense(RATIONALS, {0: 1, 2: 1})
    wide = complex_from_dense(RATIONALS, {1: 2})
    cat = make_complex_category([gap, wide])
    assert list(cat.ranks.items()) == [
        (("C0", "C0", -2), 1), (("C0", "C0", 0), 2), (("C0", "C0", 2), 1),
        (("C0", "C1", -1), 2), (("C0", "C1", 1), 2),
        (("C1", "C0", -1), 2), (("C1", "C0", 1), 2),
        (("C1", "C1", 0), 4)]
    assert check_axioms(cat) == []
    _assert_matches_reference([gap, wide])


@pytest.mark.parametrize("ring, dims, d, rejected", [
    # d² ≠ 0: two composable identity blocks.
    (RATIONALS, {0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]}, True),
    # d¹∘d⁰ = ε: zero in the body, not in the ε layer.
    (SquareZeroRing(1), {0: 1, 1: 1, 2: 1},
     {0: [[SquareZeroRing(1).generator(0)]], 1: [[1]]}, True),
    # 2·(1/2) − 3·(1/3) = 0: fractions that cancel.
    (RATIONALS, {0: 1, 1: 2, 2: 1},
     {0: [["1/2"], ["1/3"]], 1: [[2, -3]]}, False),
    # d⁰ must be 2×1 here.
    (RATIONALS, {0: 1, 1: 2}, {0: [[1]]}, True),
    # d¹ leaves a degree of dimension 0, so it must be 0×0.
    (RATIONALS, {0: 1}, {1: [[1, 2]]}, True),
], ids=["d_squared_nonzero", "d_squared_in_ideal", "fractions_cancel",
        "wrong_shape", "wrong_shape_at_zero_dimension"])
def test_invalid_complex_rejected(ring, dims, d, rejected):
    cx = complex_from_dense(ring, dims, d)
    if rejected:
        with pytest.raises(InvalidComplex):
            cx.validate()
        with pytest.raises(InvalidComplex):
            make_complex_category([cx])
    else:
        cx.validate()


def test_random_complex_categories_pass_axioms():
    for seed in range(100):
        rng = random.Random(seed)
        complexes = [random_complex(RATIONALS, rng, total_dim=2),
                     random_complex(RATIONALS, rng, total_dim=2),
                     random_complex(RATIONALS, rng, total_dim=2)]
        cat = make_complex_category(complexes)
        assert sum(sum(c.dims.values()) for c in complexes) <= 8
        assert check_axioms(cat) == [], f"seed {seed}"


def _dense_product(outer, inner, ring):
    """``outer·inner`` of RingElement matrices, by the schoolbook loop."""
    out = [[ring.zero()] * len(inner[0]) for _ in outer]
    for r, row in enumerate(outer):
        for k, a in enumerate(row):
            for c, b in enumerate(inner[k]):
                out[r][c] = out[r][c] + a * b
    return out


def _reference_random_complex(ring, rng, *, total_dim, min_degree=0,
                              max_degree=2):
    """``random_complex`` as it was over ring elements: the conjugation by
    dense products, and each inverse solved one column at a time."""
    degrees = list(range(min_degree, max_degree + 1))
    dims = {i: 0 for i in degrees}
    for _ in range(max(1, total_dim)):
        dims[rng.choice(degrees)] += 1
    dims = {i: n for i, n in dims.items() if n > 0}

    source_of = {}
    taken_targets = {i: set() for i in dims}
    taken_sources = {i: set() for i in dims}
    for i in sorted(dims):
        if i + 1 not in dims:
            continue
        free_here = [s for s in range(dims[i])
                     if s not in taken_targets[i] and s not in taken_sources[i]]
        free_up = [s for s in range(dims[i + 1])
                   if s not in taken_targets[i + 1]]
        arrows = rng.randint(0, min(len(free_here), len(free_up)))
        pairs = list(zip(free_here[:arrows], free_up[:arrows]))
        if pairs:
            source_of[i] = pairs
            for s, t in pairs:
                taken_sources[i].add(s)
                taken_targets[i + 1].add(t)

    d = {}
    for i, pairs in source_of.items():
        mat = [[ring.zero() for _ in range(dims[i])]
               for _ in range(dims[i + 1])]
        for s, t in pairs:
            mat[t][s] = ring.one()
        d[i] = mat

    def identity(n):
        return [[ring.one() if r == c else ring.zero() for c in range(n)]
                for r in range(n)]

    def random_invertible(n):
        lower, upper = identity(n), identity(n)
        for r in range(n):
            upper[r][r] = ring.element(rng.choice([1, -1]))
            for c in range(r + 1, n):
                upper[r][c] = ring.element(rng.randint(-1, 1))
                lower[c][r] = ring.element(rng.randint(-1, 1))
        return _dense_product(lower, upper, ring)

    def invert(mat):
        n = len(mat)
        cols = [solve_linear(mat, column, ring) for column in identity(n)]
        return [[cols[c][r] for c in range(n)] for r in range(n)]

    basis_change = {i: random_invertible(dims[i]) for i in dims}
    inverse = {i: invert(basis_change[i]) for i in dims}
    conjugated = {}
    for i, mat in d.items():
        conjugated[i] = _dense_product(
            basis_change[i + 1], _dense_product(mat, inverse[i], ring), ring)
    return ChainComplex(ring, dims, conjugated)


@pytest.mark.parametrize("degrees", [{}, {"min_degree": -1, "max_degree": 3}],
                         ids=["default", "wide"])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_random_complex_matches_reference(rank, degrees):
    """The same dims, key order of ``d`` and entries as the oracle, with the
    ``rng`` left in the same state, for 200 seeds and sizes 1 to 6."""
    ring = SquareZeroRing(rank)
    for seed in range(200):
        for size in range(1, 7):
            rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_complex(ring, rng, total_dim=size, **degrees)
            want = _reference_random_complex(ring, want_rng, total_dim=size,
                                             **degrees)
            assert got.dims == want.dims
            assert list(got.d) == list(want.d)
            assert got.d == want.d
            assert rng.getstate() == want_rng.getstate()


def _reference_make_complex_category(complexes, names=None):
    """Oracle: each hom basis as a list, and each composition entry found by
    scanning every pair of outer and inner basis units."""
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

    def hom_basis(a, b, degree):
        basis = []
        for i in a.degrees():
            if b.dim(i + degree) > 0:
                for row in range(b.dim(i + degree)):
                    for col in range(a.dim(i)):
                        basis.append((i, row, col))
        return basis

    ranks, bases, index = {}, {}, {}
    for xn, yn in itertools.product(names, repeat=2):
        a, b = by_name[xn], by_name[yn]
        degs_a, degs_b = a.degrees(), b.degrees()
        if not degs_a or not degs_b:
            continue
        for t in range(min(degs_b) - max(degs_a),
                       max(degs_b) - min(degs_a) + 1):
            basis = hom_basis(a, b, t)
            if basis:
                key = (xn, yn, t)
                ranks[key] = len(basis)
                bases[key] = basis
                index[key] = {unit: pos for pos, unit in enumerate(basis)}

    diffs = {}
    for (xn, yn, t), basis in bases.items():
        a, b = by_name[xn], by_name[yn]
        target_index = index.get((xn, yn, t + 1))
        if not target_index:
            continue
        cols = {}
        sign = ring.element(1 if t % 2 else -1)
        for pos, (i, row, col) in enumerate(basis):
            entries = []
            db = b.d_matrix(i + t)
            for row2 in range(b.dim(i + t + 1)):
                coeff = db[row2][row]
                if not coeff.is_zero():
                    entries.append((target_index[(i, row2, col)], coeff))
            da = a.d_matrix(i - 1)
            for col2 in range(a.dim(i - 1)):
                coeff = da[col][col2]
                if not coeff.is_zero():
                    entries.append((target_index[(i - 1, row, col2)],
                                    coeff * sign))
            if entries:
                cols[pos] = tuple(sorted(entries, key=lambda e: e[0]))
        if cols:
            diffs[(xn, yn, t)] = cols

    comps = {}
    for xn, yn, zn in itertools.product(names, repeat=3):
        for s in [t for (p, q, t) in bases if (p, q) == (xn, yn)]:
            inner_basis = bases[(xn, yn, s)]
            for t in [t for (p, q, t) in bases if (p, q) == (yn, zn)]:
                outer_basis = bases[(yn, zn, t)]
                result_index = index.get((xn, zn, s + t))
                if not result_index:
                    continue
                tensor = {}
                for opos, (i2, row2, col2) in enumerate(outer_basis):
                    for ipos, (i1, row1, col1) in enumerate(inner_basis):
                        if i2 == i1 + s and col2 == row1:
                            target = result_index[(i1, row2, col1)]
                            tensor[(opos, ipos)] = ((target, ring.one()),)
                if tensor:
                    comps[(xn, yn, zn, s, t)] = tensor

    identities = {}
    for xn in names:
        a = by_name[xn]
        key = (xn, xn, 0)
        coords = [ring.zero()] * ranks.get(key, 0)
        idx = index.get(key, {})
        for i in a.degrees():
            for r in range(a.dim(i)):
                coords[idx[(i, r, r)]] = ring.one()
        identities[xn] = tuple(coords)

    return DgCategory(ring=ring, objects=tuple(names), ranks=ranks,
                      diffs=diffs, comps=comps, identities=identities)


def _key_orders(cat):
    """The key order of every structure dict, blocks and their entries."""
    return ([list(cat.ranks), list(cat.identities), list(cat.diffs),
             list(cat.comps)]
            + [list(cols) for cols in cat.diffs.values()]
            + [list(tensor) for tensor in cat.comps.values()])


def _assert_matches_reference(complexes, names=None):
    got = make_complex_category(complexes, names)
    want = _reference_make_complex_category(complexes, names)
    assert got == want
    assert _key_orders(got) == _key_orders(want)


@pytest.mark.parametrize("rank", [0, 1])
def test_fixture_complex_categories_match_reference(monkeypatch, rank):
    """Every ``make_complex_category`` call the fixture builders make, over
    Q and over Q[ε], gives the oracle's category with its key order."""
    calls = []

    def recording(complexes, names=None):
        calls.append((complexes, names))
        return make_complex_category(complexes, names)
    monkeypatch.setattr(fixtures, "make_complex_category", recording)
    for build in fixtures.FIXTURES.values():
        build(ring=SquareZeroRing(rank))
    assert len(calls) == 5       # all fixtures but the exterior algebra
    for complexes, names in calls:
        _assert_matches_reference(complexes, names)


@pytest.mark.parametrize("degrees", [{}, {"min_degree": -1, "max_degree": 3}],
                         ids=["default", "wide"])
@pytest.mark.parametrize("rank", [0, 1])
def test_random_complex_categories_match_reference(rank, degrees):
    """1 to 3 random complexes of total dimension 1 to 6 each, 5 seeds:
    360 categories in all over the four parameter sets.  The names are not
    in sorted order, so the key order follows the names, not a sort."""
    ring = SquareZeroRing(rank)
    for seed in range(5):
        rng = random.Random(seed)
        for count in (1, 2, 3):
            for size in range(1, 7):
                complexes = [random_complex(ring, rng, total_dim=size,
                                            **degrees) for _ in range(count)]
                _assert_matches_reference(complexes, ("Z", "Y", "X")[:count])


def test_full_size_random_category_passes_axioms():
    rng = random.Random(424242)
    complexes = [random_complex(RATIONALS, rng, total_dim=3),
                 random_complex(RATIONALS, rng, total_dim=3),
                 random_complex(RATIONALS, rng, total_dim=2)]
    assert sum(sum(c.dims.values()) for c in complexes) == 8
    assert check_axioms(make_complex_category(complexes)) == []


# ---------------------------------------------------------------------------
# Cycle bases.
# ---------------------------------------------------------------------------


def _reference_edge_basis(cat, x, y, t):
    """Oracle: the edge sampler's basis over ``cat.ring``, as its own code."""
    ncols = cat.rank(x, y, t)
    matrix = dense_differential(cat, x, y, t)
    if matrix:
        return kernel(matrix, cat.ring)
    return [basis_morphism(cat, x, y, t, j).coords for j in range(ncols)]


def _reference_mc_basis(cat, x, y, t):
    """Oracle: the MC sampler's body basis over Q, as its own code."""
    rank = cat.rank(x, y, t)
    dense = dense_differential(cat, x, y, t)
    return ([[e.body for e in vec] for vec in kernel(dense, RATIONALS)]
            if dense else [[Fraction(int(i == j)) for j in range(rank)]
                           for i in range(rank)])


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", list(fixtures.FIXTURES))
def test_cycle_basis_matches_both_samplers(name, rank):
    """``cycle_basis`` is ``==`` to the edge sampler's basis over the
    category's ring and to the MC sampler's bodies over Q, vector by vector
    and in order, on every hom block, those with a zero block above too."""
    cat = tensor_with_ring(fixtures.FIXTURES[name](), SquareZeroRing(rank))
    above_zero = 0
    for x, y, t in cat.ranks:
        assert cat.cycle_basis(x, y, t, cat.ring) == \
            [list(v) for v in _reference_edge_basis(cat, x, y, t)]
        assert [[e.body for e in v]
                for v in cat.cycle_basis(x, y, t, RATIONALS)] == \
            _reference_mc_basis(cat, x, y, t)
        above_zero += cat.rank(x, y, t + 1) == 0
    assert above_zero > 0


@pytest.mark.parametrize("flags", [{}, {"ideal_noise": False},
                                   {"ideal_only": True}],
                         ids=["default", "no_noise", "ideal_only"])
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("name", list(fixtures.FIXTURES))
def test_random_morphism_draws_like_its_oracles(name, rank, flags):
    """On every hom block, ``random_morphism`` is its frozen body, and each
    coordinate is ``old_random_element``'s Fraction draw, with each ``rng``
    left in the same state."""
    cat = tensor_with_ring(fixtures.FIXTURES[name](), SquareZeroRing(rank))
    for seed in range(3):
        rng, body_rng, old_rng = (random.Random(seed) for _ in range(3))
        for block in sorted(cat.ranks):
            got = cat.random_morphism(*block, rng, **flags)
            assert got == old_random_morphism(cat, *block, body_rng, **flags)
            assert len(got.coords) == cat.rank(*block)
            for coord in got.coords:
                assert_matches(coord, old_random_element(cat.ring, old_rng,
                                                         **flags))
            assert rng.getstate() == body_rng.getstate() == \
                old_rng.getstate()


@pytest.mark.parametrize("row", [-1, 3], ids=["minus_one", "rank"])
def test_cycle_basis_refuses_an_entry_outside_its_block(row):
    """A hand-built ``diffs`` entry at row −1, or at the rank 3 of the block
    above, is refused with the block named, over the category's ring and
    over Q: not read from the end, nor left to an IndexError."""
    cat = fixtures.FIXTURES["complexes_a"]()
    key = ("A", "A", -1)
    assert cat.rank("A", "A", 0) == 3
    (_, a), *rest = cat.diffs[key][0]
    cols = {**cat.diffs[key], 0: ((row, a), *rest)}
    bad = dataclasses.replace(cat, diffs={**cat.diffs, key: cols})
    for ring in (cat.ring, RATIONALS):
        with pytest.raises(ValueError, match=r"^block \('A', 'A', -1\) has "
                                             r"an entry outside its 3×2 "):
            bad.cycle_basis("A", "A", -1, ring)


# ---------------------------------------------------------------------------
# Opposite category.
# ---------------------------------------------------------------------------


def test_opposite_of_even_commutative_algebra_is_itself():
    ring = RATIONALS
    cat = make_complex_category([complex_from_dense(ring, {0: 1}, {})])
    op = opposite(cat)
    assert op.ranks == cat.ranks
    assert op.diffs == cat.diffs
    assert op.comps == cat.comps
    assert op.identities == cat.identities


def test_opposite_involutive(two_term, three_term, exterior, complexes):
    for cat in (two_term, three_term, exterior, complexes):
        opop = opposite(opposite(cat))
        assert opop.ranks == cat.ranks
        assert opop.diffs == cat.diffs
        assert opop.comps == cat.comps
        assert opop.identities == cat.identities


def test_opposite_preserves_axioms(two_term, three_term, exterior, complexes):
    for cat in (two_term, three_term, exterior, complexes):
        assert check_axioms(opposite(cat)) == []


# ---------------------------------------------------------------------------
# Equivalence witnesses.
# ---------------------------------------------------------------------------


def assert_witness_identities(cat, alpha, wit):
    one_src = cat.identity(alpha.source)
    one_tgt = cat.identity(alpha.target)
    assert cat.differential(wit.a).is_zero()
    assert cat.compose(wit.a, alpha) == \
        lin((1, one_src), (1, cat.differential(wit.g)))
    assert cat.compose(alpha, wit.a) == \
        lin((1, one_tgt), (1, cat.differential(wit.h)))


def test_identity_is_witnessed(three_term):
    (obj,) = three_term.objects
    alpha = three_term.identity(obj)
    wit = find_equivalence_witness(three_term, alpha)
    assert_witness_identities(three_term, alpha, wit)


def test_zero_map_from_contractible_source_is_witnessed():
    ring = RATIONALS
    contractible = complex_from_dense(ring, {0: 1, 1: 1}, {0: [[1]]})
    zero_complex = complex_from_dense(ring, {}, {})
    cat = make_complex_category([contractible, zero_complex])
    src, tgt = cat.objects
    alpha = cat.zero(src, tgt, 0)
    wit = find_equivalence_witness(cat, alpha)
    assert_witness_identities(cat, alpha, wit)


def test_zero_endomorphism_with_nonzero_h0_is_not_equivalence():
    ring = RATIONALS
    point = complex_from_dense(ring, {0: 1}, {})
    cat = make_complex_category([point])
    (obj,) = cat.objects
    with pytest.raises(NotEquivalence):
        find_equivalence_witness(cat, cat.zero(obj, obj, 0))


def test_witnesses_on_random_scaled_identities(complexes):
    rng = random.Random(9)
    for obj in complexes.objects:
        alpha = lin((rng.choice([1, -1, 2, 3]), complexes.identity(obj)))
        wit = find_equivalence_witness(complexes, alpha)
        assert_witness_identities(complexes, alpha, wit)


def test_witness_counter_instruments_calls(three_term):
    reset_witness_calls()
    assert witness_call_count() == 0
    (obj,) = three_term.objects
    find_equivalence_witness(three_term, three_term.identity(obj))
    assert witness_call_count() == 1
    with pytest.raises(NotEquivalence):
        find_equivalence_witness(three_term, three_term.zero(obj, obj, 0))
    assert witness_call_count() == 2
    reset_witness_calls()
    assert witness_call_count() == 0


def test_witness_rejects_wrong_degree(three_term):
    (obj,) = three_term.objects
    with pytest.raises(ValueError, match="^witness queries require a "
                                         "degree-0 morphism$"):
        find_equivalence_witness(three_term, three_term.zero(obj, obj, 1))


def test_witness_rejects_a_morphism_that_is_not_closed(three_term):
    (obj,) = three_term.objects
    basis = [basis_morphism(three_term, obj, obj, 0, j)
             for j in range(three_term.rank(obj, obj, 0))]
    alpha = next(e for e in basis if not three_term.differential(e).is_zero())
    with pytest.raises(ValueError, match="^witness queries require a closed "
                                         "morphism$"):
        find_equivalence_witness(three_term, alpha)


@pytest.mark.parametrize("alpha_rank, cat_rank", [(2, 1), (1, 0), (0, 1)],
                         ids=["two_eps_on_one", "one_eps_on_q", "q_on_one"])
def test_witness_refuses_alpha_of_another_ring_width(alpha_rank, cat_rank):
    # hom(x, x) has no differential, so only the composition blocks read α
    cat = make_complex_category([complex_from_dense(RATIONALS, {0: 1}, {})])
    if cat_rank:
        cat = tensor_with_ring(cat, SquareZeroRing(cat_rank))
    (x,) = cat.objects
    unit = SquareZeroRing(alpha_rank).element(1, [5, 7][:alpha_rank])
    with pytest.raises(ValueError,
                       match=r"^ring elements of different ideal rank$"):
        find_equivalence_witness(cat, Morphism(x, x, 0, (unit,)))


def test_witness_refuses_a_diff_entry_past_its_band():
    """A hand-built ``diffs[(y, x, 0)]`` entry at row r1 = rank(y, x, 1)
    would land in the first row of the a∘α band of the system, and a
    witness came back; a column where the unit is zero is not read by the
    closedness check."""
    cat = make_complex_category(
        [complex_from_dense(RATIONALS, {0: 2, 1: 1}, {0: [[1, 1]]})])
    (x,) = cat.objects
    block = cat.diffs[(x, x, 0)]
    j = next(j for j in block if cat.identity(x).coords[j].is_zero())
    (_, a), *rest = block[j]
    bad = dataclasses.replace(cat, diffs={
        **cat.diffs, (x, x, 0): {**block, j: ((cat.rank(x, x, 1), a), *rest)}})
    with pytest.raises(ValueError, match=r"block \('C0', 'C0', 0\) has an "
                                         r"entry outside its 2×5 shape"):
        find_equivalence_witness(bad, bad.identity(x))

