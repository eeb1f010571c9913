"""Seeded randomized sweeps of the algebraic identities.

Each law row runs ``trials`` independent trials; a trial draws fresh
random simplices/cochains (or horns) and checks one exact identity:

* ``cochain_d_squared_n*`` — the twisted cochain differential squares to
  zero between valid simplices;
* ``cochain_leibniz_n*`` — d(η∘φ) = d(η)∘φ + (−1)^{|η|} η∘d(φ);
* ``cochain_assoc_n*`` — convolution associativity;
* ``obstruction_*`` — the horn obstruction pair satisfies d(U) = 0 and
  its V-identity (outer, inner, and reversed-outer branches).

All sampling is deterministic in (seed, law index, trial) and draws
simplices valid under the pinned signs.  Only the cochain laws read
``signs``, so tests can show that mutated conventions break them.
"""

from __future__ import annotations

import random
from typing import Callable

from .dgcat import DgCategory
from .horn import (HornError, compute_obstruction, random_horn,
                   random_valid_simplex)
from .nerve import (NerveCochain, NerveSimplex, PINNED, SignPattern,
                    cochain_add, cochain_compose, cochain_differential,
                    cochain_equal, cochain_scale, increasing_sequences)

COCHAIN_DEGREES = (-1, 0, 1, 2)


def random_cochain(cat: DgCategory, rng: random.Random, source: NerveSimplex,
                   target: NerveSimplex, degree: int) -> NerveCochain:
    """A cochain with one random component per vertex sequence."""
    components = {}
    for seq in increasing_sequences(source.n):
        morphism = cat.random_morphism(source.objects[seq[0]],
                                       target.objects[seq[-1]],
                                       degree + 1 - len(seq), rng)
        if not morphism.is_zero():
            components[seq] = morphism
    return NerveCochain(source, target, degree, components)


def _random_chain(cat: DgCategory, rng: random.Random, n: int,
                  m: int) -> list[NerveCochain]:
    """m random cochains along m + 1 random valid n-simplices, drawn first."""
    simplices = [random_valid_simplex(cat, rng, n, witnessed=False)
                 for _ in range(m + 1)]
    return [random_cochain(cat, rng, source, target,
                           rng.choice(COCHAIN_DEGREES))
            for source, target in zip(simplices, simplices[1:])]


def law_cochain_d_squared(cat: DgCategory, rng: random.Random, n: int,
                          signs: SignPattern) -> str | None:
    (eta,) = _random_chain(cat, rng, n, 1)
    once = cochain_differential(cat, eta, signs)
    twice = cochain_differential(cat, once, signs)
    if twice.components:                  # zero components are not stored
        return f"d(d(η)) != 0 in degree {eta.degree}"
    return None


def law_cochain_leibniz(cat: DgCategory, rng: random.Random, n: int,
                        signs: SignPattern) -> str | None:
    phi, eta = _random_chain(cat, rng, n, 2)
    lhs = cochain_differential(cat, cochain_compose(cat, eta, phi, signs),
                               signs)
    rhs = cochain_add(
        cochain_compose(cat, cochain_differential(cat, eta, signs), phi,
                        signs),
        cochain_scale(
            cochain_compose(cat, eta, cochain_differential(cat, phi, signs),
                            signs),
            -1 if eta.degree % 2 else 1))
    if not cochain_equal(lhs, rhs):
        return f"Leibniz fails for degrees ({eta.degree}, {phi.degree})"
    return None


def law_cochain_assoc(cat: DgCategory, rng: random.Random, n: int,
                      signs: SignPattern) -> str | None:
    phi, eta, zeta = _random_chain(cat, rng, n, 3)
    lhs = cochain_compose(cat, zeta, cochain_compose(cat, eta, phi, signs),
                          signs)
    rhs = cochain_compose(cat, cochain_compose(cat, zeta, eta, signs), phi,
                          signs)
    if not cochain_equal(lhs, rhs):
        return "convolution associativity fails"
    return None


def _law_obstruction(n: int, k: int, witnessed: bool) -> Callable:
    def law(cat: DgCategory, rng: random.Random, _n: int,
            _signs: SignPattern) -> str | None:
        try:
            horn = random_horn(cat, rng, n, k, witnessed=witnessed)
            compute_obstruction(cat, horn)
        except HornError as exc:
            return str(exc)
        return None

    return law


def law_rows() -> list[tuple[str, Callable, int]]:
    """(name, law function, dimension) rows in deterministic order."""
    rows = [(f"cochain_{name}_n{n}", law, n)
            for name, law in (("d_squared", law_cochain_d_squared),
                              ("leibniz", law_cochain_leibniz),
                              ("assoc", law_cochain_assoc))
            for n in (1, 2, 3)]
    rows.append(("obstruction_outer", _law_obstruction(2, 0, True), 2))
    rows.append(("obstruction_inner", _law_obstruction(3, 1, False), 3))
    rows.append(("obstruction_outer_reversed", _law_obstruction(2, 2, True), 2))
    return rows


def run_laws(cat: DgCategory, seed: int = 0, trials: int = 100,
             signs: SignPattern = PINNED) -> dict:
    """Run the whole battery; failures are reported with reproducing seeds."""
    report_rows = []
    for law_index, (name, law, n) in enumerate(law_rows()):
        passed, failing = 0, []
        for trial in range(trials):
            trial_seed = seed * 1_000_003 + law_index * 8191 + trial
            detail = law(cat, random.Random(trial_seed), n, signs)
            if detail is None:
                passed += 1
            elif len(failing) < 5:      # the first five failures are kept
                failing.append({"trial": trial, "seed": trial_seed,
                                "detail": detail})
        report_rows.append({"name": name, "pass": passed,
                            "fail": trials - passed, "failures": failing})
    return {"kind": "laws_report", "seed": seed, "trials": trials,
            "laws": report_rows}
