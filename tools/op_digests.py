"""Same-outputs digests: one sha256 per benchmark workload, one over the
samplers, one over MC twists, one over equivalence witnesses, one over
kernels and one over the draws, for comparing two versions of the package.

    python tools/op_digests.py --seeds 3 7

A change that claims only speed must leave every digest as it was.  Each
workload of ``perfbench/workloads.py`` is built at each seed in its own
directory under ``--workdir``, and its first two rounds and its probes run
once.  Paths show up in CLI reports and errors, so each hashed record has
the seed's directory replaced by ``<workdir>``, and the digests do not
depend on where ``--workdir`` is.  A path that an error message cuts at 60
characters (``jsonio._shown``) is not mapped, so keep ``--workdir`` short.
A workload's digest covers, op by op, the kind, the ``repr`` of the result
(or of the exception it raised) and the verdict of the op's check; a CLI
op adds its stderr, which ``workloads._cli`` drops, so this script puts its
own copy of ``_cli`` in its place.  The ``axioms`` ops
return empty violation lists, so that digest does not see their set-up; the
``samplers`` digest covers ``random_valid_simplex`` (witnessed and plain,
n = 1–3) and ``random_mc_element`` on every fixture at ideal ranks 0–2 and
seeds 0–4, and ``dgcat.random_complex`` over Q at ``total_dim`` 1–8, with
the default degrees and with degrees −1 to 3, at seeds 0–4, with the state
of the generator after each draw.  The ``twist``
digest covers ``mc.twist`` on every fixture at ideal ranks 0–2: by the MC
families that ``random_mc_element`` draws at seeds 0–2, and by one family of
random degree-1 endomorphisms with ``validate=False``; each twisted
category enters as its ``jsonio.category_to_json`` document and as the
``repr`` of its ``diffs``, which keeps the order of columns and entries.
The ``witness`` digest covers ``dgcat.find_equivalence_witness`` (the
``repr`` of the ``Witness``, or of the ``NotEquivalence`` it raised) on the
(0, 1) edge of witnessed and plain ``random_valid_simplex`` draws (n = 1, 2)
at seeds 0–4, on every fixture and on its ``opposite``, at ideal ranks 0–2.
The ``kernels`` digest covers ``glin.rref`` (over the bodies) on every
differential of the ``random_complex`` draws that the ``samplers`` digest
makes, and ``DgCategory.cycle_basis`` on every hom block of every fixture at
ideal ranks 0–2, over the category's ring and over ``RATIONALS``; no
workload reaches ``rref`` outside its set-up.  The ``draws`` digest holds
the samplers to their ``rng`` calls: on every fixture at ideal ranks 0–2
and seeds 0–2, ``random_valid_simplex`` (witnessed and plain, n = 4 and 5,
past where ``samplers`` stops and up to where the workloads draw),
``laws.random_cochain`` between each such pair at every degree of
``laws.COCHAIN_DEGREES``, and ``DgCategory.random_morphism`` on every hom
block with ``ideal_noise=False`` and with ``ideal_only=True``, each with
the state of the generator after it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from dgnerve import (cli, dgcat, fixtures, glin, horn,  # noqa: E402
                     jsonio, laws, mc)
from dgnerve.rings import RATIONALS, SquareZeroRing  # noqa: E402

_stderr: list[str] = []


def _cli(argv: list[str]) -> tuple[int, str]:
    """``workloads._cli``, keeping stderr for the digest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _stderr.append(err.getvalue())
    return code, out.getvalue()


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:   # an op that raises is an output too
        return f"raised {exc!r}"


def workload_digest(name: str, seeds: list[int], workdir: str) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        here = os.path.join(workdir, f"{name}-{seed}")
        shutil.rmtree(here, ignore_errors=True)
        os.makedirs(here)
        plan = workloads.WORKLOADS[name](seed, here)
        for op in [*plan.round(0), *plan.round(1), *plan.probes]:
            _stderr.clear()
            try:
                result = op.run()
                shown = repr(result)
            except Exception as exc:
                result, shown = None, f"raised {exc!r}"
            verdict = _outcome(lambda: op.check(result))
            record = f"{op.kind}\n{shown}\n{verdict}\n{_stderr!r}\n"
            digest.update(record.replace(here, "<workdir>").encode())
    return digest.hexdigest()


def sampler_digest() -> str:
    digest = hashlib.sha256()
    for name, make in fixtures.FIXTURES.items():
        for rank in (0, 1, 2):
            cat = make()
            if rank:
                cat = mc.tensor_with_ring(cat, SquareZeroRing(rank))
            for seed in range(5):
                rng = random.Random(seed)
                draws = [(n, witnessed) for n in (1, 2, 3)
                         for witnessed in (True, False)]
                for n, witnessed in draws:
                    shown = _outcome(lambda: horn.random_valid_simplex(
                        cat, rng, n, witnessed=witnessed))
                    digest.update(f"{name} {rank} {seed} simplex {n} "
                                  f"{witnessed}\n{shown}\n"
                                  f"{rng.getstate()!r}\n".encode())
                for obj in cat.objects:
                    shown = _outcome(lambda: mc.random_mc_element(cat, obj,
                                                                  rng))
                    digest.update(f"{name} {rank} {seed} mc {obj}\n{shown}\n"
                                  f"{rng.getstate()!r}\n".encode())
    for seed in range(5):
        rng = random.Random(seed)
        for size in range(1, 9):
            for degrees in ({}, {"min_degree": -1, "max_degree": 3}):
                shown = _outcome(lambda: dgcat.random_complex(
                    RATIONALS, rng, total_dim=size, **degrees))
                digest.update(f"complex {seed} {size} {degrees}\n{shown}\n"
                              f"{rng.getstate()!r}\n".encode())
    return digest.hexdigest()


def twist_digest() -> str:
    digest = hashlib.sha256()
    for name, make in fixtures.FIXTURES.items():
        for rank in (0, 1, 2):
            cat = make()
            if rank:
                cat = mc.tensor_with_ring(cat, SquareZeroRing(rank))
            families = []
            for seed in range(3):
                rng = random.Random(seed)
                families.append((f"mc {seed}", True, {
                    obj: mc.random_mc_element(cat, obj, rng)
                    for obj in cat.objects}))
            rng = random.Random(0)
            families.append(("random", False, {
                obj: cat.random_morphism(obj, obj, 1, rng)
                for obj in cat.objects}))
            for label, validate, etas in families:
                def document() -> str:
                    twisted = mc.twist(cat, etas, validate=validate)
                    return jsonio.canonical_dumps(
                        jsonio.category_to_json(twisted)) + repr(twisted.diffs)
                digest.update(f"{name} {rank} {label}\n{_outcome(document)}\n"
                              .encode())
    return digest.hexdigest()


def witness_digest() -> str:
    digest = hashlib.sha256()
    for name, make in fixtures.FIXTURES.items():
        for rank in (0, 1, 2):
            cat = make()
            if rank:
                cat = mc.tensor_with_ring(cat, SquareZeroRing(rank))
            for side, c in (("cat", cat), ("opposite", dgcat.opposite(cat))):
                for seed in range(5):
                    rng = random.Random(seed)
                    for n in (1, 2):
                        for witnessed in (True, False):
                            shown = _outcome(
                                lambda: dgcat.find_equivalence_witness(
                                    c, horn.random_valid_simplex(
                                        c, rng, n, witnessed=witnessed)
                                    .cells[(0, 1)]))
                            digest.update(f"{name} {rank} {side} {seed} {n} "
                                          f"{witnessed}\n{shown}\n".encode())
    return digest.hexdigest()


def kernels_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(5):
        rng = random.Random(seed)
        for size in range(1, 9):
            for degrees in ({}, {"min_degree": -1, "max_degree": 3}):
                cx = dgcat.random_complex(RATIONALS, rng, total_dim=size,
                                          **degrees)
                for degree, matrix in sorted(cx.d.items()):
                    shown = _outcome(lambda: glin.rref(
                        [[e.body for e in row] for row in matrix]))
                    digest.update(f"rref {seed} {size} {degrees} {degree}\n"
                                  f"{shown}\n".encode())
    for name, make in fixtures.FIXTURES.items():
        for rank in (0, 1, 2):
            cat = make()
            if rank:
                cat = mc.tensor_with_ring(cat, SquareZeroRing(rank))
            for block in sorted(cat.ranks):
                for ring in (cat.ring, RATIONALS):
                    shown = _outcome(lambda: cat.cycle_basis(*block, ring))
                    digest.update(f"{name} {rank} {block} {ring.ideal_rank}"
                                  f"\n{shown}\n".encode())
    return digest.hexdigest()


def draws_digest() -> str:
    digest = hashlib.sha256()
    for name, make in fixtures.FIXTURES.items():
        for rank in (0, 1, 2):
            cat = make()
            if rank:
                cat = mc.tensor_with_ring(cat, SquareZeroRing(rank))
            for seed in range(3):
                rng = random.Random(seed)

                def note(label: str, drawn: object) -> object:
                    digest.update(f"{name} {rank} {seed} {label}\n{drawn!r}\n"
                                  f"{rng.getstate()!r}\n".encode())
                    return drawn
                for n in (4, 5):
                    pair = [note(f"simplex {n} {witnessed}",
                                 horn.random_valid_simplex(
                                     cat, rng, n, witnessed=witnessed))
                            for witnessed in (True, False)]
                    for degree in laws.COCHAIN_DEGREES:
                        note(f"cochain {n} {degree}",
                             laws.random_cochain(cat, rng, *pair, degree))
                for block in sorted(cat.ranks):
                    for flags in ({"ideal_noise": False},
                                  {"ideal_only": True}):
                        note(f"morphism {block} {flags}",
                             cat.random_morphism(*block, rng, **flags))
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    parser.add_argument("--workdir", default=os.path.join(
        tempfile.gettempdir(), "dgnerve-op-digests"),
        help="fixed work directory, emptied first (default: %(default)s)")
    args = parser.parse_args()
    workloads._cli = _cli
    for name in workloads.WORKLOADS:
        print(name, workload_digest(name, args.seeds, args.workdir))
    print("samplers", sampler_digest())
    print("twist", twist_digest())
    print("witness", witness_digest())
    print("kernels", kernels_digest())
    print("draws", draws_digest())
    shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
