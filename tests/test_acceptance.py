"""Acceptance suite: the package's top-level guarantees, one test per criterion.

Every identity is asserted in exact arithmetic — the tolerance is literal
equality with zero.  Each criterion is one test, so ``pytest -v`` emits one
pass/fail line per criterion; each test additionally prints a one-line
summary with the exact counts it verified.

The seven criteria:

1.  Cochain law suite — d∘d = 0 on 200 random nerve cochains per dimension
    n ∈ {1,2,3,4} and the Leibniz identity on 200 random cochain pairs, per
    fixture category, zero failures, under 60 s.
2.  Sign calibration — among the 16 candidate sign patterns, exactly one
    reproduces d(α₀₁₂) = α₁₂∘α₀₁ − α₀₂ and passes the law suite; it is the
    shipped ``PINNED`` pattern.
3.  Obstruction identities — on 100 bootstrap-sampled horns per (n, k) in
    the grid, d(U) = 0 and the appropriate V-identity hold exactly.
4.  Horn filling — on the same grid, fillers complete to simplices passing
    validation (witnessed validation for outer fills at n = 2); inner fills
    never invoke the equivalence-witness solver (counter stays 0).
5.  Square-zero lifting — over ideals of rank 1 and 2, 50 perturb-reduce-
    lift cycles per (n, k): the lift validates over the extension and
    reduces coordinatewise to the mod-ideal filler, under 120 s.
6.  MC twisting — 50 random Maurer-Cartan elements per fixture satisfy the
    MC equation, twisted categories pass the axiom checker, and every
    genuine single-coordinate MC mutation is killed by a non-empty d² = 0
    report (on-locus mutations are equivalent mutants and are excluded).
7.  CLI determinism — identical seeds give byte-identical reports, and JSON
    serialization round-trips every fixture document identically.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import time

from dgnerve import jsonio
from dgnerve.cli import main
from dgnerve.dgcat import check_axioms, witness_call_count
from dgnerve.fixtures import standard_fixtures, three_term_category
from dgnerve.horn import (complete_horn, compute_obstruction, fill_horn,
                          lift_filler, random_horn, reduce_horn)
from dgnerve.laws import law_cochain_d_squared, law_cochain_leibniz
from dgnerve.mc import check_mc, random_mc_element, reduce_category, twist
from dgnerve.nerve import (PINNED, SignPattern, cell_residual,
                           validate_simplex, validate_star)
from dgnerve.rings import SquareZeroRing
from lincomb import lin
from nervekit import reduce_filler

GRID = ((2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (4, 2))
FIXTURES = standard_fixtures()
DIMENSIONS = (1, 2, 3, 4)


# -- criterion 1: cochain law suite --------------------------------------------------


def test_criterion_1_cochain_law_suite():
    start = time.perf_counter()
    failures = []
    d_squared_checks = leibniz_checks = 0
    for index, (name, cat) in enumerate(FIXTURES):
        for n in DIMENSIONS:
            for trial in range(200):
                rng = random.Random(10_000_000 + index * 100_000
                                    + n * 10_000 + trial)
                detail = law_cochain_d_squared(cat, rng, n, PINNED)
                d_squared_checks += 1
                if detail is not None:
                    failures.append((name, "d_squared", n, trial, detail))
            # 200 Leibniz pairs per fixture, spread as 50 per dimension.
            for trial in range(50):
                rng = random.Random(20_000_000 + index * 100_000
                                    + n * 10_000 + trial)
                detail = law_cochain_leibniz(cat, rng, n, PINNED)
                leibniz_checks += 1
                if detail is not None:
                    failures.append((name, "leibniz", n, trial, detail))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert d_squared_checks == len(FIXTURES) * len(DIMENSIONS) * 200
    assert leibniz_checks == len(FIXTURES) * 200
    assert elapsed < 60.0
    print(f"criterion 1: PASS — {len(FIXTURES)} fixtures, "
          f"{d_squared_checks} d∘d=0 checks + {leibniz_checks} Leibniz "
          f"checks, zero failures, {elapsed:.1f}s < 60s")


# -- criterion 2: sign calibration ---------------------------------------------------


def anchor_reproduced(cat, signs: SignPattern, draws: int = 5) -> bool:
    """Does the residual of a 2-simplex under ``signs`` match
    d(α₀₁₂) − (α₁₂∘α₀₁ − α₀₂) on random cell data?"""
    rng = random.Random(0xACC2)
    for _ in range(draws):
        objects = tuple(rng.choice(cat.objects) for _ in range(3))
        cells = {}
        for seq in ((0, 1), (1, 2), (0, 2), (0, 1, 2)):
            degree = 1 - (len(seq) - 1)
            cells[seq] = cat.random_morphism(objects[seq[0]],
                                             objects[seq[-1]], degree, rng)
        residual = cell_residual(cat, cells, (0, 1, 2), signs)
        hand = lin((1, cat.differential(cells[(0, 1, 2)])),
                   (-1, cat.compose(cells[(1, 2)], cells[(0, 1)])),
                   (1, cells[(0, 2)]))
        if residual != hand:
            return False
    return True


def passes_law_battery(cat, signs: SignPattern) -> bool:
    for n in (1, 2, 3):
        for trial in range(8):
            rng = random.Random(3_000_000 + n * 1_000 + trial)
            if law_cochain_d_squared(cat, rng, n, signs) is not None:
                return False
            rng = random.Random(4_000_000 + n * 1_000 + trial)
            if law_cochain_leibniz(cat, rng, n, signs) is not None:
                return False
    return True


def test_criterion_2_sign_calibration(three_term, twisted):
    candidates = [SignPattern(*bits)
                  for bits in itertools.product((0, 1), repeat=4)]
    assert len(candidates) == 16
    survivors = [signs for signs in candidates
                 if anchor_reproduced(three_term, signs)
                 and anchor_reproduced(twisted, signs)
                 and passes_law_battery(three_term, signs)
                 and passes_law_battery(twisted, signs)]
    assert len(survivors) == 1
    # The regression pin: the unique survivor is the shipped pattern.
    assert survivors[0] == PINNED
    assert dataclasses.astuple(PINNED) == (0, 0, 0, 0)
    print("criterion 2: PASS — 16 candidate sign patterns, unique survivor "
          "equals the pinned convention (0, 0, 0, 0)")


# -- criterion 3: obstruction identities ---------------------------------------------


def test_criterion_3_obstruction_identities(three_term, twisted):
    cats = (three_term, twisted)
    failures = []
    horns = 0
    for n, k in GRID:
        for trial in range(100):
            cat = cats[trial % 2]
            rng = random.Random(5_000_000 + n * 100_000 + k * 10_000 + trial)
            horn = random_horn(cat, rng, n, k, witnessed=(k in (0, n)))
            obs = compute_obstruction(cat, horn)
            ambient = obs.category
            horns += 1
            if not ambient.differential(obs.U).is_zero():
                failures.append((n, k, trial, "dU"))
            if k in (0, n):
                residual = lin((1, ambient.differential(obs.V)),
                               (1, ambient.compose(obs.U, obs.alpha)))
            else:
                residual = lin((1, ambient.differential(obs.V)),
                               (obs.sign, obs.U))
            if not residual.is_zero():
                failures.append((n, k, trial, "dV"))
    assert failures == []
    assert horns == len(GRID) * 100
    print(f"criterion 3: PASS — {horns} bootstrap horns over "
          f"{len(GRID)} (n,k) points, d(U)=0 and V-identities exact")


# -- criterion 4: horn filling -------------------------------------------------------


def test_criterion_4_horn_filling(three_term, twisted):
    cats = (three_term, twisted)
    failures = []
    inner_witness_calls = 0
    fills = 0
    for n, k in GRID:
        inner = 0 < k < n
        for trial in range(100):
            cat = cats[trial % 2]
            rng = random.Random(6_000_000 + n * 100_000 + k * 10_000 + trial)
            horn = random_horn(cat, rng, n, k, witnessed=not inner)
            calls_before = witness_call_count()
            filler = fill_horn(cat, horn)
            if inner:
                inner_witness_calls += witness_call_count() - calls_before
            completed = complete_horn(horn, filler)
            checker = validate_star if n == 2 and k in (0, n) \
                else validate_simplex
            bad = checker(cat, completed)
            fills += 1
            if bad:
                failures.append((n, k, trial, [v.kind for v in bad]))
    assert failures == []
    assert fills == len(GRID) * 100
    assert inner_witness_calls == 0
    print(f"criterion 4: PASS — {fills} fills validate "
          f"(witnessed validation at n=2 outer); inner fills made "
          f"{inner_witness_calls} witness-solver calls")


# -- criterion 5: square-zero lifting ------------------------------------------------


def test_criterion_5_square_zero_lifting():
    start = time.perf_counter()
    failures = []
    cycles = 0
    for rank in (1, 2):
        big = three_term_category(SquareZeroRing(rank))
        red = reduce_category(big)
        for n, k in GRID:
            for trial in range(50):
                rng = random.Random(7_000_000 + rank * 1_000_000
                                    + n * 100_000 + k * 10_000 + trial)
                horn = random_horn(big, rng, n, k, witnessed=(k in (0, n)))
                mod_filler = fill_horn(red, reduce_horn(horn))
                lifted = lift_filler(big, horn, mod_filler)
                cycles += 1
                bad = validate_simplex(big, complete_horn(horn, lifted))
                if bad:
                    failures.append((rank, n, k, trial,
                                     [v.kind for v in bad]))
                reduced = reduce_filler(lifted)
                if (reduced.face != mod_filler.face
                        or reduced.top != mod_filler.top):
                    failures.append((rank, n, k, trial, "reduction"))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert cycles == 2 * len(GRID) * 50
    assert elapsed < 120.0
    print(f"criterion 5: PASS — {cycles} perturb-reduce-lift cycles over "
          f"ideal ranks 1 and 2, zero failures, {elapsed:.1f}s < 120s")


# -- criterion 6: MC twisting --------------------------------------------------------


def test_criterion_6_mc_twisting():
    failures = []
    mc_checks = 0
    for index, (name, cat) in enumerate(FIXTURES):
        for trial in range(50):
            rng = random.Random(8_000_000 + index * 10_000 + trial)
            obj = cat.objects[trial % len(cat.objects)]
            eta = random_mc_element(cat, obj, rng)
            mc_checks += 1
            if check_mc(cat, eta):
                failures.append((name, "check_mc", trial))
        rng = random.Random(8_500_000 + index)
        family = {obj: random_mc_element(cat, obj, rng)
                  for obj in cat.objects}
        if check_axioms(twist(cat, family)):
            failures.append((name, "twisted_axioms"))
    assert failures == []
    assert mc_checks == len(FIXTURES) * 50

    genuine = equivalent = kills = 0
    for index, (name, cat) in enumerate(FIXTURES):
        obj = next((o for o in cat.objects if cat.rank(o, o, 1) > 0), None)
        if obj is None:
            continue  # no degree-1 endomorphisms: the MC space is {0}
        rank1 = cat.rank(obj, obj, 1)
        for base_seed in range(3):
            rng = random.Random(8_600_000 + index * 100 + base_seed)
            eta = random_mc_element(cat, obj, rng)
            for coord in range(rank1):
                delta = [0] * rank1
                delta[coord] = 1
                mutant = lin((1, eta), (1, cat.morphism(obj, obj, 1, delta)))
                if not check_mc(cat, mutant):
                    equivalent += 1  # still on the MC locus: excluded
                    continue
                genuine += 1
                report = [v for v in check_axioms(
                              twist(cat, {obj: mutant}, validate=False))
                          if v.kind == "d_squared"]
                if report:
                    kills += 1
                else:
                    failures.append((name, "unkilled_mutant",
                                     base_seed, coord))
    assert failures == []
    assert genuine >= 1
    assert kills == genuine
    print(f"criterion 6: PASS — {mc_checks} random MC elements valid, "
          f"twisted categories pass axioms; {genuine}/{genuine} genuine "
          f"single-coordinate mutants killed by the d²=0 report "
          f"({equivalent} on-locus mutants excluded)")


# -- criterion 7: CLI determinism and round trips ------------------------------------


def test_criterion_7_cli_determinism(tmp_path, capsys):
    # Identical seeds → byte-identical reports, for both sweep commands.
    for label, argv in (
            ("laws", ["laws", "--category", "exterior",
                      "--seed", "7", "--trials", "10"]),
            ("gp", ["gp", "--n", "3", "--k", "1",
                    "--seed", "3", "--trials", "3"])):
        outputs = []
        for run in range(2):
            out_file = tmp_path / f"{label}_{run}.json"
            code = main(argv + ["--out", str(out_file)])
            capsys.readouterr()
            assert code == 0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]

    # JSON round trip is the identity on all fixture documents.
    round_trips = 0
    for name, cat in FIXTURES:
        doc = jsonio.category_to_json(cat)
        recovered = jsonio.category_from_json(
            json.loads(jsonio.canonical_dumps(doc)))
        assert recovered == cat
        assert jsonio.canonical_dumps(jsonio.category_to_json(recovered)) \
            == jsonio.canonical_dumps(doc)
        round_trips += 1

        rng = random.Random(9_000_000 + round_trips)
        horn = random_horn(cat, rng, 2, 1, witnessed=False)
        filler = fill_horn(cat, horn)
        simplex = complete_horn(horn, filler)
        eta = random_mc_element(cat, cat.objects[0], rng)
        for to_json, from_json, value in (
                (jsonio.horn_to_json,
                 lambda d: jsonio.horn_from_json(d, cat), horn),
                (lambda f: jsonio.filler_to_json(f, horn.objects),
                 lambda d: jsonio.filler_from_json(d, cat), filler),
                (jsonio.simplex_to_json,
                 lambda d: jsonio.simplex_from_json(d, cat), simplex),
                (jsonio.mc_to_json,
                 lambda d: jsonio.mc_from_json(d, cat), eta)):
            doc = to_json(value)
            assert from_json(json.loads(jsonio.canonical_dumps(doc))) \
                == value
            assert jsonio.canonical_dumps(to_json(from_json(doc))) \
                == jsonio.canonical_dumps(doc)
            round_trips += 1
    print(f"criterion 7: PASS — byte-identical reports on repeated seeds; "
          f"{round_trips} document round trips are exact identities")
