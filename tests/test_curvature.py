"""The cochain laws off the valid locus.

Between simplices whose cells are arbitrary (valid or not), the twisted
differential no longer squares to zero: with R_x the degree-2 self-cochain
of cell data x whose component at s is ``cell_residual(cat, x.cells, s)``,

    d(d(η)) = −R_g∘η + η∘R_f        for η: f → g, under ``PINNED``,

and on valid simplices R = 0 gives the d² law.  Leibniz and convolution
associativity hold with no curvature term.  A ``cochain_differential``
that wrongly returns zero passes the d² law between valid simplices, but
not this one, so the share of draws with d(d(η)) ≠ 0 is asserted too.
"""

import random

import pytest

from dgnerve.fixtures import FIXTURES
from dgnerve.laws import COCHAIN_DEGREES, random_cochain
from dgnerve.nerve import (NerveCochain, NerveSimplex, cell_residual,
                           cochain_add, cochain_compose, cochain_differential,
                           cochain_equal, cochain_scale, increasing_sequences)
from test_morphism_sum import category

DRAWS = 6            # per fixture, ideal rank 0–2 and n = 2…4


def cell_data(cat, rng, n):
    """Random objects and one random cell per sequence, of degree 2 − |s|:
    the shape of an n-simplex, with no residual equation imposed."""
    objects = tuple(rng.choice(cat.objects) for _ in range(n + 1))
    return NerveSimplex(objects, {
        s: cat.random_morphism(objects[s[0]], objects[s[-1]], 2 - len(s), rng)
        for s in increasing_sequences(n)})


def curvature(cat, x):
    """R_x: the residual of every cell of x, as a degree-2 cochain x → x."""
    return NerveCochain(x, x, 2, {
        s: r for s in increasing_sequences(x.n)
        if not (r := cell_residual(cat, x.cells, s)).is_zero()})


def draws(name, law, m):
    """``DRAWS`` chains of m random cochains along m + 1 draws of cell data,
    at each ideal rank 0–2 and n = 2…4, seeded by all of these."""
    for rank in (0, 1, 2):
        cat = category(name, rank)
        for n in (2, 3, 4):
            rng = random.Random(f"{name} {rank} {n} {law}")
            for _ in range(DRAWS):
                data = [cell_data(cat, rng, n) for _ in range(m + 1)]
                yield cat, [random_cochain(cat, rng, f, g,
                                           rng.choice(COCHAIN_DEGREES))
                            for f, g in zip(data, data[1:])]


@pytest.mark.parametrize("name", FIXTURES)
def test_curvature_identity_off_the_valid_locus(name):
    """d(d(η)) = −R_g∘η + η∘R_f on every draw.  Almost every draw is off
    the valid locus, and d(d(η)) ≠ 0 in at least a quarter of the draws
    (in 21 of 54 on ``exterior``, the fewest)."""
    nonzero = invalid = total = 0
    for cat, (eta,) in draws(name, "curvature", 1):
        twice = cochain_differential(cat, cochain_differential(cat, eta))
        r_f, r_g = curvature(cat, eta.source), curvature(cat, eta.target)
        assert cochain_equal(twice, cochain_add(
            cochain_scale(cochain_compose(cat, r_g, eta), -1),
            cochain_compose(cat, eta, r_f)))
        total += 1
        nonzero += bool(twice.components)
        invalid += bool(r_f.components or r_g.components)
    assert 4 * nonzero >= total and 10 * invalid >= 9 * total


@pytest.mark.parametrize("name", FIXTURES)
def test_leibniz_off_the_valid_locus(name):
    for cat, (phi, eta) in draws(name, "leibniz", 2):
        assert cochain_equal(
            cochain_differential(cat, cochain_compose(cat, eta, phi)),
            cochain_add(
                cochain_compose(cat, cochain_differential(cat, eta), phi),
                cochain_scale(cochain_compose(cat, eta,
                                              cochain_differential(cat, phi)),
                              -1 if eta.degree % 2 else 1)))


@pytest.mark.parametrize("name", FIXTURES)
def test_associativity_off_the_valid_locus(name):
    for cat, (phi, eta, zeta) in draws(name, "assoc", 3):
        assert cochain_equal(
            cochain_compose(cat, zeta, cochain_compose(cat, eta, phi)),
            cochain_compose(cat, cochain_compose(cat, zeta, eta), phi))
