"""The four benchmark workloads: seeded inputs, the ops, and their checks.

Each ``build_*`` function makes every input from the seed and returns a
:class:`Plan`.  The program sees only the generated inputs.  Ops call the
package through module attributes (``dgcat.check_axioms(...)``), looked up
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from dgnerve import cli, dgcat, fixtures, glin, horn, jsonio, laws, mc, nerve, rings


@dataclass
class Op:
    """One call defined by a workload, and the check of its output."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]   # None when the output is correct


@dataclass
class Plan:
    """A workload's ops, grouped in rounds that each hold the full op mix."""

    round: Callable[[int], list[Op]]
    trace_rounds: int                    # rounds in the fixed traced op list
    probes: list[Op] = field(default_factory=list)   # run once, not timed


def _expect_empty(report: list) -> str | None:
    return None if not report else \
        f"{len(report)} violations, first {report[0].kind}"


# The shape of a chain complex: its dimension per degree, and the rank of
# the differential leaving each degree where that rank is nonzero.
Shape = tuple[dict[int, int], dict[int, int]]


def _d_ranks(cx) -> dict[int, int]:
    ranks = {}
    for degree, matrix in cx.d.items():
        rank = len(glin.rref([[e.body for e in row] for row in matrix])[1])
        if rank:
            ranks[degree] = rank
    return ranks


def _shaped_complex(rng: random.Random, shape: Shape):
    """A seeded ``random_complex`` of the given shape.

    The shape fixes the hom ranks and the rank of every differential, and
    so how much work check_axioms and the witness solves do: with it free,
    two seeds' categories differ in cost by up to ten times.  Holding it
    fixed keeps the seed from changing the amount of work, while the seed
    still draws the differential and the change of basis.  Draws until the
    shape comes up.
    """
    dims, ranks = shape
    while True:
        cx = dgcat.random_complex(rings.RATIONALS, rng,
                                  total_dim=sum(dims.values()))
        if cx.dims == dims and _d_ranks(cx) == ranks:
            return cx


def _complex_category(rng: random.Random, shapes: tuple[Shape, ...]):
    return dgcat.make_complex_category(
        [_shaped_complex(rng, shape) for shape in shapes],
        names=("A", "B", "C")[:len(shapes)])


def _basis(shapes: tuple[Shape, ...]) -> int:
    return sum(sum(dims.values()) for dims, _ in shapes) ** 2


# -- axioms ------------------------------------------------------------------------------

# Three complexes of total dimension 6, 7 and 8 give hom-basis totals 36, 49
# and 64.  The ladder stops at 64: 144 and 225 take about 25 s and 112 s per
# check_axioms call, too long for a run.
AXIOM_SHAPES = (
    (({0: 1, 1: 1}, {0: 1}), ({1: 1, 2: 1}, {}), ({0: 1, 2: 1}, {})),
    (({0: 1, 1: 1, 2: 1}, {1: 1}), ({0: 1, 1: 1}, {0: 1}),
     ({1: 1, 2: 1}, {})),
    (({0: 1, 1: 1, 2: 1}, {0: 1}), ({0: 2, 1: 1}, {0: 1}),
     ({1: 1, 2: 1}, {1: 1})),
)
# Categories per size.  Two rounds check one category as built and twisted;
# the pool covers the rounds of a run, so the run averages over categories.
AXIOM_POOL = 4


def build_axioms(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    pool = []
    for _ in range(AXIOM_POOL):
        pairs = []
        for shapes in AXIOM_SHAPES:
            cat = _complex_category(rng, shapes)
            etas = {obj: mc.random_mc_element(cat, obj, rng)
                    for obj in cat.objects}
            pairs.append((f"b{_basis(shapes)}", cat, mc.twist(cat, etas)))
        pool.append(pairs)

    def round_ops(r: int) -> list[Op]:
        variant = r % 2
        label = ("built", "twisted")[variant]
        return [Op(f"{basis}.{label}",
                   lambda cat=cats[variant]: dgcat.check_axioms(cat),
                   _expect_empty)
                for basis, *cats in pool[(r // 2) % AXIOM_POOL]]

    return Plan(round_ops, trace_rounds=2)


# -- horn_sweep ----------------------------------------------------------------------------

HORN_SHAPES = ((2, 0), (2, 2), (3, 1), (3, 3), (4, 2))
HORN_RANKS = (1, 2)
# The 6-dimensional random object (hom basis 36) is drawn from a fixed seed,
# like the fixtures' random categories: even at a fixed shape, the cost of
# its witness solves differs by nearly 2x between draws, which would swamp
# the metrics.  The benchmark seed draws the horns.
HORN_RANDOM_SHAPE = ({0: 2, 1: 2, 2: 2}, {0: 1, 1: 1})
HORN_RANDOM_SEED = 0
HORN_POOL = 6              # rounds before a horn is used again
# Ops per kind in one round.  Two on three_term put the median op inside
# the three_term ops rather than at the gap between them and the random
# object's slower ones, where it jumped with small shifts.
HORN_PER_ROUND = {"three_term": 2, "random6": 1}
# At ideal rank 2 an outer op on the random object makes witness solves of
# 0.6-1.5 s; a run would hold only about a dozen, too few for a steady
# op_tail_ms, so that object's outer horns run at rank 1 only.
HORN_OUTER_RANKS = {"three_term": (1, 2), "random6": (1,)}


def _horn_trial(cat_b, red_cat, h) -> dict:
    """The body of one check_gp trial on a given horn."""
    filler = horn.fill_horn(cat_b, h)
    fill_report = nerve.validate_simplex(cat_b, horn.complete_horn(h, filler))
    red_filler = horn.fill_horn(red_cat, horn.reduce_horn(h))
    lifted = horn.lift_filler(cat_b, h, red_filler)
    lift_report = nerve.validate_simplex(cat_b, horn.complete_horn(h, lifted))
    reduces = (mc.reduce_morphism(lifted.top).coords == red_filler.top.coords
               and mc.reduce_morphism(lifted.face).coords
               == red_filler.face.coords)
    return {"filler": filler, "lifted": lifted, "fill_report": fill_report,
            "lift_report": lift_report, "reduces": reduces}


def _check_trial(result: dict) -> str | None:
    if result["fill_report"]:
        return "filled simplex fails: " + result["fill_report"][0].kind
    if result["lift_report"]:
        return "lifted simplex fails: " + result["lift_report"][0].kind
    if not result["reduces"]:
        return "lift does not reduce to the reduced filler"
    return None


def build_horn_sweep(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    bases = [("three_term", fixtures.three_term_category())]
    bases.append(("random6", _complex_category(
        random.Random(HORN_RANDOM_SEED), (HORN_RANDOM_SHAPE,))))
    # rows of (kind, cat_b, red_cat, horns per round, horns)
    rows = []
    for name, cat in bases:
        per_round = HORN_PER_ROUND[name]
        for rank in HORN_RANKS:
            cat_b = mc.tensor_with_ring(cat, rings.SquareZeroRing(rank))
            red_cat = mc.reduce_category(cat_b)
            for n, k in HORN_SHAPES:
                inner = 0 < k < n
                if not inner and rank not in HORN_OUTER_RANKS[name]:
                    continue
                modes = ("witnessed", "plain") if inner else ("witnessed",)
                for mode in modes:
                    horns = [horn.random_horn(cat_b, rng, n, k,
                                              witnessed=mode == "witnessed")
                             for _ in range(HORN_POOL * per_round)]
                    rows.append((f"{name}.r{rank}.n{n}k{k}.{mode}",
                                 cat_b, red_cat, per_round, horns))

    def round_ops(r: int) -> list[Op]:
        return [Op(kind,
                   lambda c=cat_b, rc=red_cat,
                   h=horns[(r * per_round + i) % len(horns)]:
                   _horn_trial(c, rc, h),
                   _check_trial)
                for kind, cat_b, red_cat, per_round, horns in rows
                for i in range(per_round)]

    return Plan(round_ops, trace_rounds=1)


# -- cochain_laws ----------------------------------------------------------------------------

COCHAIN_FIXTURES = ("three_term", "twisted", "complexes_a")
COCHAIN_DIMS = (1, 2, 3, 4)
COCHAIN_POOL = 20          # input chains per (fixture, n)


def _d_squared(cat, phi) -> dict:
    once = nerve.cochain_differential(cat, phi)
    twice = nerve.cochain_differential(cat, once)
    return {"value": once.components,
            "holds": all(m.is_zero() for m in twice.components.values())}


def _leibniz(cat, eta, phi) -> dict:
    lhs = nerve.cochain_differential(cat, nerve.cochain_compose(cat, eta, phi))
    rhs = nerve.cochain_add(
        nerve.cochain_compose(cat, nerve.cochain_differential(cat, eta), phi),
        nerve.cochain_scale(
            nerve.cochain_compose(cat, eta,
                                  nerve.cochain_differential(cat, phi)),
            (-1) ** eta.degree))
    return {"value": lhs.components, "holds": nerve.cochain_equal(lhs, rhs)}


def _associativity(cat, zeta, eta, phi) -> dict:
    lhs = nerve.cochain_compose(cat, zeta, nerve.cochain_compose(cat, eta, phi))
    rhs = nerve.cochain_compose(cat, nerve.cochain_compose(cat, zeta, eta), phi)
    return {"value": lhs.components, "holds": nerve.cochain_equal(lhs, rhs)}


def _check_law(result: dict) -> str | None:
    return None if result["holds"] else "identity fails"


def build_cochain_laws(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    degrees = laws.COCHAIN_DEGREES
    stable = dict(fixtures.standard_fixtures())
    chains: dict[tuple[str, int], list] = {}
    for name in COCHAIN_FIXTURES:
        cat = stable[name]
        for n in COCHAIN_DIMS:
            samples = []
            for i in range(COCHAIN_POOL):
                simplices = [horn.random_valid_simplex(cat, rng, n,
                                                       witnessed=False)
                             for _ in range(4)]
                phi, eta, zeta = (
                    laws.random_cochain(cat, rng, simplices[j],
                                        simplices[j + 1],
                                        degrees[(n + i + j) % len(degrees)])
                    for j in range(3))
                samples.append((cat, phi, eta, zeta))
            chains[(name, n)] = samples

    def round_ops(r: int) -> list[Op]:
        ops = []
        for (name, n), samples in chains.items():
            cat, phi, eta, zeta = samples[r % COCHAIN_POOL]
            ops += [
                Op(f"d_squared.{name}.n{n}",
                   lambda c=cat, p=phi: _d_squared(c, p), _check_law),
                Op(f"leibniz.{name}.n{n}",
                   lambda c=cat, e=eta, p=phi: _leibniz(c, e, p), _check_law),
                Op(f"associativity.{name}.n{n}",
                   lambda c=cat, z=zeta, e=eta, p=phi: _associativity(c, z, e, p),
                   _check_law),
            ]
        return ops

    return Plan(round_ops, trace_rounds=1)


# -- cli_documents ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``dgnerve`` call: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _reported_kinds(stdout: str, fmt: str) -> set[str]:
    if fmt == "json":
        return {v["kind"] for v in json.loads(stdout).get("violations", [])}
    return {line.split()[1] for line in stdout.splitlines()
            if line.startswith("FAIL ")}


@dataclass
class CliCase:
    """One command line, its contract exit code and, for exit 1, the exact
    set of violation kinds the report must name."""

    name: str
    argv: list[str]
    exit_code: int
    kinds: frozenset[str] = frozenset()


def _cli_check(case: CliCase, fmt: str, reference: dict) -> Callable:
    key = (case.name, fmt)

    def check(result: tuple[int, str]) -> str | None:
        code, stdout = result
        if code != case.exit_code:
            return f"exit {code}, contract says {case.exit_code}"
        if case.exit_code == 1 and _reported_kinds(stdout, fmt) != case.kinds:
            return (f"violation kinds {sorted(_reported_kinds(stdout, fmt))}"
                    f", expected {sorted(case.kinds)}")
        first = reference.setdefault(key, stdout)
        if stdout != first:
            return "stdout differs from the first repetition"
        return None

    return check


def _write(workdir: str, name: str, doc: Any) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        handle.write(doc if isinstance(doc, str) else jsonio.canonical_dumps(doc))
    return path


def _non_mc_element(cat, rng: random.Random):
    """A degree-1 endomorphism whose MC defect d(eta) + eta∘eta is nonzero,
    or None when a few random draws at every object find none."""
    for obj in cat.objects:
        if cat.rank(obj, obj, 1) == 0:
            continue
        for _ in range(20):
            eta = cat.random_morphism(obj, obj, 1, rng, ideal_noise=False)
            if not mc.mc_defect(cat, eta).is_zero():
                return eta
    return None


def _mutable_category(rng: random.Random, shapes: tuple[Shape, ...]):
    """A random complex category with a non-MC degree-1 endomorphism.

    Needs a complex of dimension 3 or more: on smaller ones every degree-1
    endomorphism is MC."""
    for _ in range(200):
        cat = _complex_category(rng, shapes)
        eta = _non_mc_element(cat, rng)
        if eta is not None:
            return cat, eta
    raise RuntimeError(f"no complex category of shapes {shapes} with a non-MC "
                       "degree-1 endomorphism in 200 draws")


def _unit_scaled(cat, obj: str):
    """The category with the unit of ``obj`` doubled: 1∘f = 2f breaks units."""
    identities = dict(cat.identities)
    identities[obj] = tuple(c * 2 for c in identities[obj])
    return dgcat.DgCategory(ring=cat.ring, objects=cat.objects,
                            ranks=cat.ranks, diffs=cat.diffs, comps=cat.comps,
                            identities=identities)


def _defect_documents(base: dict) -> dict[str, Any]:
    """Four hostile category documents whose contract is exit 2.  The parser
    does not validate them yet: each escapes ``cli.main`` as an exception."""
    bad_index = json.loads(json.dumps(base))
    bad_index["diffs"][0][3][0][1] = 99     # target index beyond the rank
    ranks_int = dict(base, ranks=5)
    null_comp = json.loads(json.dumps(base))
    null_comp["comps"][0][5][0] = None
    zero_div = json.loads(json.dumps(base))
    zero_div["identities"][0][1][0] = "1/0"
    return {"defect_index": bad_index, "defect_ranks": ranks_int,
            "defect_null": null_comp, "defect_zero_div": zero_div}


def build_cli_documents(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    cases: list[CliCase] = []
    path = {}

    # Category documents of hom-basis 16 and 25: valid, MC-mutated (twisted by
    # a non-MC element, which breaks only d² = 0) and unit-corrupted.
    categories = {}
    for shapes in ((({0: 1, 1: 1, 2: 1}, {0: 1}), ({1: 1}, {})),
                   (({0: 1, 1: 1, 2: 1}, {1: 1}), ({0: 1}, {}), ({2: 1}, {}))):
        basis = _basis(shapes)
        cat, eta = _mutable_category(rng, shapes)
        categories[basis] = cat
        docs = {
            f"cat{basis}": (cat, 0, ()),
            f"cat{basis}_mc": (mc.twist(cat, {eta.source: eta}, validate=False),
                               1, ("d_squared",)),
            f"cat{basis}_unit": (_unit_scaled(cat, cat.objects[0]),
                                 1, ("unit_left", "unit_right")),
        }
        for name, (subject, code, kinds) in docs.items():
            path[name] = _write(workdir, name + ".json",
                                jsonio.category_to_json(subject))
            cases.append(CliCase("check." + name, ["check", path[name]], code,
                                 frozenset(kinds)))
    cat16 = categories[16]

    three = fixtures.three_term_category()
    star = horn.random_valid_simplex(three, rng, 2, witnessed=True)
    plain = horn.random_valid_simplex(cat16, rng, 3, witnessed=False)
    path["star"] = _write(workdir, "star.json", jsonio.simplex_to_json(star))
    path["plain"] = _write(workdir, "plain.json", jsonio.simplex_to_json(plain))
    cases.append(CliCase("check.simplex_star",
                         ["check", path["star"], "--star"], 0))
    cases.append(CliCase("check.simplex_plain",
                         ["check", path["plain"], "--category", path["cat16"]],
                         0))

    for n, k in ((2, 0), (2, 2), (3, 1)):
        name = f"horn_n{n}k{k}"
        path[name] = _write(workdir, name + ".json", jsonio.horn_to_json(
            horn.random_horn(three, rng, n, k, witnessed=True)))
        cases.append(CliCase("fill." + name, ["fill", path[name], "--n",
                                              str(n), "--k", str(k)], 0))
    cases.append(CliCase("check.horn", ["check", path["horn_n3k1"]], 0))
    name = "horn16_n2k2"
    path[name] = _write(workdir, name + ".json", jsonio.horn_to_json(
        horn.random_horn(cat16, rng, 2, 2, witnessed=True)))
    cases.append(CliCase("fill." + name,
                         ["fill", path[name], "--category", path["cat16"]], 0))

    good = mc.random_mc_element(three, "C0", rng)
    bad = _non_mc_element(three, rng)
    path["mc_good"] = _write(workdir, "mc_good.json", jsonio.mc_to_json(good))
    path["mc_bad"] = _write(workdir, "mc_bad.json", jsonio.mc_to_json(bad))
    cases.append(CliCase("check.mc_good", ["check", path["mc_good"]], 0))
    cases.append(CliCase("check.mc_bad", ["check", path["mc_bad"]], 1,
                         frozenset(("mc_equation",))))

    # lift: a horn over the rank-1 extension and a filler of its reduction.
    three_b = mc.tensor_with_ring(three, rings.SquareZeroRing(1))
    lift_horn = horn.random_horn(three_b, rng, 2, 0, witnessed=True)
    red_filler = horn.fill_horn(mc.reduce_category(three_b),
                                horn.reduce_horn(lift_horn))
    path["cat_b"] = _write(workdir, "three_term_b.json",
                           jsonio.category_to_json(three_b))
    path["lift_horn"] = _write(workdir, "lift_horn.json",
                               jsonio.horn_to_json(lift_horn))
    path["lift_filler"] = _write(workdir, "lift_filler.json",
                                 jsonio.filler_to_json(red_filler,
                                                       lift_horn.objects))
    cases.append(CliCase("lift", ["lift", path["lift_horn"],
                                  path["lift_filler"],
                                  "--category", path["cat_b"]], 0))

    run_seed = str(rng.randrange(10 ** 6))
    cases.append(CliCase("laws", ["laws", "--trials", "1",
                                  "--seed", run_seed], 0))
    cases.append(CliCase("gp.n2k0", ["gp", "--n", "2", "--k", "0",
                                     "--trials", "2", "--seed", run_seed], 0))
    cases.append(CliCase("gp.n3k1", ["gp", "--n", "3", "--k", "1",
                                     "--trials", "1", "--seed", run_seed], 0))

    # Malformed input: the contract is exit 2.
    malformed = {
        "bad_json": "{\"kind\": \"simplex\", \"n\": 2,",
        "top_list": "[1, 2, 3]\n",
        "bad_kind": {"kind": "tesseract"},
        "float_coord": dict(jsonio.simplex_to_json(star),
                            cells={"0,1": [1.5] * len(star.cell((0, 1)).coords)}),
        "short_cell": dict(jsonio.simplex_to_json(star), cells={"0,1": []}),
        "filler_alone": jsonio.filler_to_json(red_filler, lift_horn.objects),
    }
    for name, doc in malformed.items():
        path[name] = _write(workdir, name + ".json", doc)
        cases.append(CliCase("malformed." + name, ["check", path[name]], 2))

    reference: dict = {}

    def round_ops(r: int) -> list[Op]:
        ops = []
        for i, case in enumerate(cases):
            fmt = ("text", "json")[(i + r) % 2]
            argv = case.argv + (["--format", "json"] if fmt == "json" else [])
            ops.append(Op(f"{case.name}.{fmt}", lambda a=argv: _cli(a),
                          _cli_check(case, fmt, reference)))
        return ops

    probes = []
    for name, doc in _defect_documents(
            jsonio.category_to_json(three)).items():
        path[name] = _write(workdir, name + ".json", doc)
        probe = CliCase("known_defect." + name, ["check", path[name]], 2)
        probes.append(Op(probe.name, lambda a=probe.argv: _cli(a),
                         _cli_check(probe, "text", reference)))

    return Plan(round_ops, trace_rounds=2, probes=probes)


WORKLOADS: dict[str, Callable[[int, str], Plan]] = {
    "axioms": build_axioms,
    "horn_sweep": build_horn_sweep,
    "cochain_laws": build_cochain_laws,
    "cli_documents": build_cli_documents,
}
