"""Sign calibration: the pinned pattern is the unique survivor.

The residual convention has a four-bit family of sign candidates
(``SignPattern``).  The tests below *execute* the search: the two-simplex
anchor formula plus the d∘d = 0 and Leibniz laws are evaluated against all
sixteen candidates, and exactly the pinned pattern survives.  The anchor
alone fixes the two flip bits; d∘d = 0 and Leibniz kill the two twist bits.
The laws draw their simplices valid under the pinned pattern and apply the
candidate to the cochain differential and convolution only, so a candidate
fails exactly when its cochain operations break the laws on pinned-valid
simplices.
"""

import dataclasses
import random

import pytest

from dgnerve.laws import (
    law_cochain_d_squared,
    law_cochain_leibniz,
    run_laws,
)
from dgnerve.nerve import (
    PINNED,
    SignPattern,
    cell_residual,
)
from lincomb import lin
from nervekit import all_sign_patterns

ANCHOR_TRIALS = 5
LAW_TRIALS = 6


def anchor_holds(cat, signs):
    """Does the pattern reproduce R = d(α₀₁₂) − α₁₂∘α₀₁ + α₀₂ ?"""
    (obj,) = cat.objects
    rng = random.Random(0xA11C)
    for _ in range(ANCHOR_TRIALS):
        cells = {
            (0, 1): cat.random_morphism(obj, obj, 0, rng),
            (1, 2): cat.random_morphism(obj, obj, 0, rng),
            (0, 2): cat.random_morphism(obj, obj, 0, rng),
            (0, 1, 2): cat.random_morphism(obj, obj, -1, rng),
        }
        want = lin((1, cat.differential(cells[(0, 1, 2)])),
                   (-1, cat.compose(cells[(1, 2)], cells[(0, 1)])),
                   (1, cells[(0, 2)]))
        if cell_residual(cat, cells, (0, 1, 2), signs) != want:
            return False
    return True


def law_holds(cat, law, signs):
    for n in (1, 2, 3):
        for trial in range(LAW_TRIALS):
            rng = random.Random(1000 * n + trial)
            if law(cat, rng, n, signs) is not None:
                return False
    return True


def test_pinned_pattern_regression():
    assert PINNED == SignPattern(0, 0, 0, 0)
    assert dataclasses.astuple(PINNED) == (0, 0, 0, 0)
    # frozen sign table: face_sign(p,k) = (−1)^p, cut_sign(p,k) = (−1)^{p(k+1)}
    assert PINNED.face_sign(1, 2) == -1
    assert PINNED.face_sign(2, 3) == 1
    assert PINNED.cut_sign(1, 2) == -1
    assert PINNED.cut_sign(1, 3) == 1
    assert PINNED.cut_sign(2, 3) == 1
    assert len(all_sign_patterns()) == 16


def test_search_has_unique_survivor(three_term):
    survivors = [
        dataclasses.astuple(signs) for signs in all_sign_patterns()
        if anchor_holds(three_term, signs)
        and law_holds(three_term, law_cochain_d_squared, signs)
        and law_holds(three_term, law_cochain_leibniz, signs)
    ]
    assert survivors == [dataclasses.astuple(PINNED)]


def test_anchor_fixes_the_flip_bits(three_term):
    survivors = sorted(dataclasses.astuple(signs)
                       for signs in all_sign_patterns()
                       if anchor_holds(three_term, signs))
    assert survivors == [(0, 0, 0, 0), (0, 0, 0, 1),
                         (0, 1, 0, 0), (0, 1, 0, 1)]


@pytest.mark.parametrize("bits", [(1, 0, 0, 0), (0, 1, 0, 0),
                                  (0, 0, 1, 0), (0, 0, 0, 1)])
def test_every_single_bit_mutation_is_killed(three_term, bits):
    signs = SignPattern(*bits)
    killed = (not anchor_holds(three_term, signs)
              or not law_holds(three_term, law_cochain_d_squared, signs)
              or not law_holds(three_term, law_cochain_leibniz, signs))
    assert killed


def test_sign_mutated_law_report_shows_leibniz_failures(three_term):
    report = run_laws(three_term, seed=3, trials=4,
                      signs=SignPattern(0, 0, 0, 1))
    by_name = {row["name"]: row for row in report["laws"]}
    assert any(row["fail"] > 0 for name, row in by_name.items()
               if name.startswith("cochain_leibniz"))
    for row in report["laws"]:
        if row["fail"]:
            assert row["failures"], "failures must carry reproducing seeds"
            assert all("seed" in f for f in row["failures"])


def test_pinned_law_report_is_clean(three_term):
    report = run_laws(three_term, seed=3, trials=4)
    assert all(row["fail"] == 0 for row in report["laws"])
    assert {row["name"] for row in report["laws"]} >= {
        "cochain_d_squared_n2", "cochain_leibniz_n3", "obstruction_inner"}
