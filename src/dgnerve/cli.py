"""Command-line surface: check, fill, lift, laws, gp.

Exit codes: 0 — all checks pass; 1 — a mathematical identity fails (axiom
violation, unfillable horn, law failure); 2 — input error (unreadable or
malformed documents, bad arguments), and so is any ValueError that reaches
:func:`main`.  Reports are deterministic: the same inputs and seed produce
byte-identical output, in both text and JSON form.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys
from typing import Callable, Mapping, Sequence

from . import jsonio, laws
from .dgcat import DgCategory, Violation, check_axioms
from .fixtures import FIXTURES
from .horn import (CannotFillOuterHorn, HornError, IncompatibleHorn,
                   check_gp, check_horn, complete_horn, fill_horn,
                   lift_filler)
from .mc import check_mc, reduce_category
from .nerve import validate_simplex, validate_star

PASS, FAIL, USAGE = 0, 1, 2
# A trial seed of laws or gp is seed·1 000 003 plus a small offset
# (laws.run_laws, horn._trial_seed), so a --seed of at most this many digits
# keeps every trial seed a report prints within jsonio.MAX_DIGITS.
_SEED_DIGITS = jsonio.MAX_DIGITS - 7


class CliInputError(Exception):
    """Unparseable or inconsistent input: exit code 2."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dgnerve",
        description="Exact checks, horn filling, and square-zero lifting "
                    "for finite dg-categories and their coherent nerves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--category", default="three_term",
                       help="category JSON path, or a fixture name "
                            "(default: three_term; known fixtures: "
                            + ", ".join(FIXTURES) + ")")
        p.add_argument("--out", help="write the JSON report/document here")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="stdout format (default: text)")

    p = sub.add_parser("check", help="check a category, simplex, or horn "
                                     "document against the exact identities")
    p.add_argument("input", help="path to a JSON document")
    p.add_argument("--star", action="store_true",
                   help="for simplices: also require equivalence witnesses "
                        "on every edge")
    common(p)

    p = sub.add_parser("fill", help="fill a horn document")
    p.add_argument("input", help="path to a horn JSON document")
    p.add_argument("--n", type=int, help="expected dimension (consistency "
                                         "check against the document)")
    p.add_argument("--k", type=int, help="expected horn index")
    common(p)

    p = sub.add_parser("lift", help="lift a mod-ideal filler through a "
                                    "square-zero extension")
    p.add_argument("input", help="path to a horn JSON document over the "
                                 "extended ring")
    p.add_argument("filler", help="path to the mod-ideal filler JSON")
    common(p)

    p = sub.add_parser("laws", help="run the randomized identity battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    common(p)

    p = sub.add_parser("gp", help="randomized horn-extension sweep at (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


# -- plumbing -------------------------------------------------------------------

def _load_doc(path: str) -> Mapping:
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"),
                         object_pairs_hook=jsonio.unique_keys)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, digit cap, depth
        raise CliInputError(f"{path}: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise CliInputError(f"{path}: top-level JSON value must be an object")
    return doc


def _parse(path: str, read: Callable, doc: Mapping, *args):
    """``read(doc, *args)``; a ValueError is an input error at ``path``."""
    try:
        return read(doc, *args)
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _load_category(source: str) -> DgCategory:
    if os.path.exists(source):
        return _parse(source, jsonio.category_from_json, _load_doc(source))
    if source not in FIXTURES:
        shown = jsonio._shown(source)
        raise CliInputError(f"--category {shown} is neither a readable file "
                            f"nor a fixture name (unknown fixture {shown}; "
                            f"known: {', '.join(FIXTURES)})")
    return FIXTURES[source]()


def _write_out(path: str, payload: str) -> None:
    """Write a new file beside ``path`` (mode from the umask) and move it."""
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliInputError(
            f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args: argparse.Namespace, doc: dict, text_lines: list[str]) -> None:
    payload = jsonio.canonical_dumps(doc) \
        if args.out or args.format == "json" else None
    if args.out:
        _write_out(args.out, payload)
    text = payload if args.format == "json" else \
        "".join(line + "\n" for line in text_lines)
    if hasattr(sys.stdout, "buffer"):      # UTF-8, whatever the locale
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:                                  # a text stream such as StringIO
        sys.stdout.write(text)


def _check_seed(seed: int) -> None:
    if abs(seed) >= 10 ** _SEED_DIGITS:
        raise CliInputError(f"--seed must have at most {_SEED_DIGITS} digits")


def _violations_doc(violations: Sequence[Violation]) -> list[dict]:
    return [v.to_json() for v in
            sorted(violations, key=lambda v: (v.kind, str(v.location)))]


def _violation_lines(violations: Sequence[Violation]) -> list[str]:
    return [f"FAIL {v['kind']} @ ({', '.join(v['location'])}): {v['detail']}"
            for v in violations]


# -- commands --------------------------------------------------------------------

def _check(doc: Mapping,
           args: argparse.Namespace) -> tuple[str, list[Violation]]:
    """A ``check`` document's kind and violations; reads the category last."""
    kind = jsonio.detect_kind(doc)
    if kind == "category":
        return kind, check_axioms(jsonio.category_from_json(doc))
    if kind == "filler":
        raise CliInputError("cannot check a 'filler' document on its own; "
                            "check the completed simplex instead")
    cat = _load_category(args.category)
    if kind == "simplex":
        checker = validate_star if args.star else validate_simplex
        return kind, checker(cat, jsonio.simplex_from_json(doc, cat))
    if kind == "horn":
        return kind, check_horn(cat, jsonio.horn_from_json(doc, cat))
    return kind, check_mc(cat, jsonio.mc_from_json(doc, cat))


def cmd_check(args: argparse.Namespace) -> int:
    kind, violations = _parse(args.input, _check, _load_doc(args.input), args)
    vio = _violations_doc(violations)
    report = {"kind": "check_report", "subject": kind,
              "ok": not vio, "violations": vio}
    lines = ([f"ok: {kind} passes all checks"] if not vio
             else _violation_lines(vio))
    _emit(args, report, lines)
    return PASS if not vio else FAIL


def cmd_fill(args: argparse.Namespace) -> int:
    doc = _load_doc(args.input)
    cat = _load_category(args.category)
    horn = _parse(args.input, jsonio.horn_from_json, doc, cat)
    if args.n is not None and args.n != horn.n:
        raise CliInputError(f"--n {args.n} does not match the document "
                            f"(n = {horn.n})")
    if args.k is not None and args.k != horn.k:
        raise CliInputError(f"--k {args.k} does not match the document "
                            f"(k = {horn.k})")
    try:
        filler = fill_horn(cat, horn)
    except IncompatibleHorn as exc:
        report = {"kind": "fill_report", "ok": False,
                  "error": "incompatible_horn",
                  "violations": _violations_doc(exc.violations)}
        _emit(args, report, ["FAIL incompatible horn:"]
              + _violation_lines(report["violations"]))
        return FAIL
    except CannotFillOuterHorn as exc:
        report = {"kind": "fill_report", "ok": False,
                  "error": "cannot_fill_outer_horn", "detail": str(exc)}
        _emit(args, report, [f"FAIL {exc}"])
        return FAIL
    out_doc = jsonio.filler_to_json(filler, horn.objects)
    residues = validate_simplex(cat, complete_horn(horn, filler))
    if residues:  # defensive: should be unreachable
        _emit(args, {"kind": "fill_report", "ok": False,
                     "error": "filler_failed_validation",
                     "violations": _violations_doc(residues)},
              ["FAIL filler failed validation"])
        return FAIL
    _emit(args, out_doc,
          [f"filled ({horn.n}, {horn.k}) horn; completed simplex validates"])
    return PASS


def cmd_lift(args: argparse.Namespace) -> int:
    cat = _load_category(args.category)
    horn_doc = _load_doc(args.input)
    filler_doc = _load_doc(args.filler)
    reduced = reduce_category(cat)
    horn = _parse(args.input, jsonio.horn_from_json, horn_doc, cat)
    filler_mod = _parse(args.filler, jsonio.filler_from_json, filler_doc,
                        reduced)
    try:
        lifted = lift_filler(cat, horn, filler_mod)
        out_doc = jsonio.filler_to_json(lifted, horn.objects)
    except HornError as exc:
        _emit(args, {"kind": "lift_report", "ok": False,
                     "error": type(exc).__name__, "detail": str(exc)},
              [f"FAIL {exc}"])
        return FAIL
    _emit(args, out_doc,
          [f"lifted ({horn.n}, {horn.k}) filler through the rank-"
           f"{cat.ring.ideal_rank} square-zero ideal"])
    return PASS


def cmd_laws(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise CliInputError("--trials must be nonnegative")
    _check_seed(args.seed)
    cat = _load_category(args.category)
    axioms = check_axioms(cat)
    if axioms:
        vio = _violations_doc(axioms)
        _emit(args, {"kind": "laws_report", "ok": False,
                     "error": "category_axioms", "violations": vio},
              ["FAIL category axioms:"] + _violation_lines(vio))
        return FAIL
    report = laws.run_laws(cat, seed=args.seed, trials=args.trials)
    failures = sum(row["fail"] for row in report["laws"])
    lines = [f"{row['name']}: pass {row['pass']} fail {row['fail']}"
             for row in report["laws"]]
    lines.append("all laws hold" if failures == 0
                 else f"{failures} law failures (seeds in JSON report)")
    _emit(args, report, lines)
    return PASS if failures == 0 else FAIL


def cmd_gp(args: argparse.Namespace) -> int:
    if args.n > jsonio.MAX_DIMENSION:
        raise CliInputError(f"--n must be at most {jsonio.MAX_DIMENSION}")
    _check_seed(args.seed)
    cat = _load_category(args.category)
    report = check_gp(cat, args.n, args.k, trials=args.trials, seed=args.seed)
    lines = []
    failures = 0
    for mode in report["modes"]:
        failures += mode["fill_fail"] + mode["lift_fail"]
        lines.append(
            f"gp n={report['n']} k={report['k']} mode={mode['mode']}: "
            f"fill {mode['fill_pass']}/{report['trials']} "
            f"lift {mode['lift_pass']}/{report['trials']} "
            f"witness_calls={mode['witness_calls']}")
        for failure in mode["failures"]:
            lines.append(f"  FAIL trial {failure['trial']} "
                         f"stage={failure['stage']} seed={failure['seed']}: "
                         f"{failure['detail']}")
    lines.append("all trials pass" if failures == 0
                 else f"{failures} failing trials")
    _emit(args, report, lines)
    return PASS if failures == 0 else FAIL


COMMANDS = {"check": cmd_check, "fill": cmd_fill, "lift": cmd_lift,
            "laws": cmd_laws, "gp": cmd_gp}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
