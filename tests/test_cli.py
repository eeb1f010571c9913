"""End-to-end tests of the command-line interface.

Every command runs through ``main`` against real files on disk, checking exit
codes (0 = all identities hold, 1 = a mathematical identity fails, 2 = input
error), report content, and byte-level determinism of the emitted documents.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import io
import json
import os
import pathlib
import random
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgnerve import cli, jsonio, laws
from dgnerve.cli import build_parser, main
from dgnerve.dgcat import Morphism
from dgnerve.fixtures import (random_complex_category, standard_fixtures,
                              three_term_category)
from dgnerve.horn import (IncompatibleHorn, check_horn, complete_horn,
                          extract_horn, fill_horn, lift_filler, random_horn,
                          reduce_horn, _trial_seed)
from dgnerve.mc import reduce_category, tensor_with_ring
from dgnerve.nerve import NerveSimplex, SignPattern, increasing_sequences
from dgnerve.rings import SquareZeroRing
from nervekit import identity_simplex, reduce_filler


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(jsonio.canonical_dumps(doc), encoding="utf-8")
    return str(path)


def zero_simplex(cat, obj: str, n: int) -> NerveSimplex:
    """A simplex whose cells are all zero; it validates, but no edge is an
    equivalence."""
    objects = (obj,) * (n + 1)
    cells = {}
    for seq in increasing_sequences(n):
        degree = 1 - (len(seq) - 1)
        rank = cat.rank(obj, obj, degree)
        cells[seq] = Morphism(obj, obj, degree,
                              tuple(cat.ring.zero() for _ in range(rank)))
    return NerveSimplex(objects, cells)


# -- check ------------------------------------------------------------------------


def test_check_fixture_category_passes(tmp_path, capsys, three_term):
    path = write_doc(tmp_path, "cat.json", jsonio.category_to_json(three_term))
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0
    assert "ok: category passes all checks" in out
    assert err == ""


def test_check_corrupted_differential_names_the_block(tmp_path, capsys,
                                                      three_term):
    doc = jsonio.category_to_json(three_term)
    for record in doc["diffs"]:
        if record[2] == -1:
            record[3][0][2] = "2"
            break
    else:
        pytest.fail("fixture lost its degree −1 differential block")
    path = write_doc(tmp_path, "bad.json", doc)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "check", path, "--out", str(out_path))
    assert code == 1
    assert "d_squared" in out
    report = json.loads(out_path.read_text())
    assert report["ok"] is False
    locations = [v["location"][:3] for v in report["violations"]
                 if v["kind"] == "d_squared"]
    assert ["C0", "C0", "-1"] in locations


def test_check_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"objects": [,]}')
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "invalid JSON at line 1" in err
    assert "column" in err


def test_check_integer_literal_past_digit_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "category", "ring": ' + "1" * 5000 + "}")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "4300 digits" in err


def test_check_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_check_non_object_document_exit_2(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "must be an object" in err


@pytest.mark.parametrize("data", [
    b"\xff{}", '{"objects": ["\xe9"]}'.encode("latin-1"), b"[" * 100000,
], ids=["not_utf8", "latin1_name", "nested_past_recursion_limit"])
def test_check_unreadable_bytes_exit_2(tmp_path, capsys, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def _check_edited_category(tmp_path, capsys, cat, path, value):
    """Run ``check`` on the category document with one entry replaced, by
    ``value`` or, when it is callable, by ``value(entry)``."""
    doc = jsonio.category_to_json(cat)
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value(target[last]) if callable(value) else value
    return run_cli(capsys, "check", write_doc(tmp_path, "bad.json", doc))


def _first_record_again(last):
    """A copy of a table's first record, its last field mapped by ``last``,
    placed before the original: a parser that kept the last record it read
    for a key would check only the original."""
    return lambda records: [records[0][:-1] + [last(records[0][-1])],
                            *records]


def _fives(entries):
    return [entry[:-1] + ["5"] for entry in entries]


def _first_entry_halved(entries):
    """The first entry of one record written as two entries that each
    hold half of its constant: a parser that added them would read the
    category unchanged, one that kept the last would read half."""
    first = entries[0][:-1] + [str(Fraction(entries[0][-1]) / 2)]
    return [first, first, *entries[1:]]


@pytest.mark.parametrize("path, message", [
    (("diffs", 0, 3, 0, 1), "diff row 99 is out of range"),
    (("diffs", 0, 3, 0, 0), "diff column 99 is out of range"),
    (("comps", 0, 5, 0, 0), "comp outer index 99 is out of range"),
    (("comps", 0, 5, 0, 1), "comp inner index 99 is out of range"),
    (("comps", 0, 5, 0, 2), "comp result index 99 is out of range"),
])
def test_check_out_of_range_tensor_index_exit_2(tmp_path, capsys, three_term,
                                                 path, message):
    code, out, err = _check_edited_category(tmp_path, capsys, three_term,
                                            path, 99)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("path, value, message", [
    (("ranks",), 5, '"ranks" must be a list of 4-item lists'),
    (("comps", 0, 5, 0), None, "comp entries must be a list of 4-item lists"),
    (("identities", 0, 1, 0), "1/0", "zero denominator in '1/0'"),
    (("identities", 0, 1, 0), "1e999999", "'1e999999'"),
    (("identities", 0, 1, 0), "1.5", "'1.5'"),
    (("ring",), 10 ** 9, '"ring" must be a nonnegative ideal rank up to 8'),
    (("ranks", 0, 3), 10 ** 9, "ranks must be nonnegative, up to 256"),
    (("identities", 0, 1), ["1", "1"], "unit of C0 has 2 coordinates: "
                                       "hom(C0, C0) has rank 3 in degree 0"),
    (("identities", 0, 1), ["1"] * 5, "unit of C0 has 5 coordinates"),
    (("ranks",), _first_record_again(lambda rank: 5),
     "\"ranks\" states ('C0', 'C0', -2) twice"),
    (("diffs",), _first_record_again(_fives),
     "\"diffs\" states ('C0', 'C0', -2) twice"),
    (("comps",), _first_record_again(_fives),
     "\"comps\" states ('C0', 'C0', 'C0', -2, 0) twice"),
    (("identities",), _first_record_again(lambda units: ["5"] * len(units)),
     "\"identities\" states 'C0' twice"),
    (("diffs", 0, 3), _first_entry_halved,
     "\"diffs\" record ('C0', 'C0', -2) states a (column, row) pair "
     "twice"),
    (("comps", 0, 5), _first_entry_halved,
     "\"comps\" record ('C0', 'C0', 'C0', -2, 0) states an (outer, "
     "inner, result) triple twice"),
], ids=["ranks_not_a_list", "null_comp_entry", "zero_denominator",
        "exponent", "decimal_point", "huge_ring", "huge_rank", "short_unit",
        "long_unit", "repeated_rank", "repeated_diff", "repeated_comp",
        "repeated_unit", "repeated_diff_entry", "repeated_comp_entry"])
def test_check_malformed_category_exit_2(tmp_path, capsys, three_term,
                                         path, value, message):
    code, out, err = _check_edited_category(tmp_path, capsys, three_term,
                                            path, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("kind", ["simplex", "horn"])
@pytest.mark.parametrize("key, message", [
    ("-1,0", "sequence key '-1,0' has a negative vertex"),
    ("0,02", "\"cells\" states (0, 2) twice"),
    ("1,0", "sequence key '1,0' is not strictly increasing"),
    ("0", "sequence key '0' is not strictly increasing"),
    ("a,1", "bad sequence key 'a,1'"),
    ("0,9", "cell key '0,9' exceeds dimension 2"),
    ("0,1_0", "bad sequence key '0,1_0'"),
    ("0, 1", "bad sequence key '0, 1'"),
    ("+0,1", "bad sequence key '+0,1'"),
    (" 0,1 ", "bad sequence key ' 0,1 '"),
    ("0,\u0661", "bad sequence key '0,\u0661'"),
    ("0," + "1" * 4301, "bad sequence key '0,111"),
], ids=["negative", "repeated", "decreasing", "one_vertex", "not_an_int",
        "past_dimension", "underscore", "space", "plus", "padded",
        "arabic_indic_digit", "past_digit_cap"])
def test_check_bad_cell_key_exit_2(tmp_path, capsys, three_term, kind, key,
                                   message):
    """A valid 2-simplex, or its (2, 0) horn, with one more cell holding the
    (0, 1) cell's coordinates.  ``objects[-1]`` is the last object, so
    "-1,0" read as a cell once passed on the simplex (exit 0: validation
    ignores a cell it does not ask for) and failed on the horn (exit 1);
    "0,02" names the cell (0, 2) a second time.  A vertex is written in a
    scalar's digits: ``int`` would read "0,1_0" as (0, 10) and "0, 1",
    "+0,1", " 0,1 " and "0,\u0661" as (0, 1), a second (0, 1) cell."""
    simplex = identity_simplex(three_term, "C0", 2)
    doc = (jsonio.simplex_to_json(simplex) if kind == "simplex"
           else jsonio.horn_to_json(extract_horn(simplex, 0)))
    doc["cells"][key] = doc["cells"]["0,1"]
    code, out, err = run_cli(capsys, "check",
                             write_doc(tmp_path, "doc.json", doc),
                             "--category", "three_term")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("key", ["0,0_1", "0, 1", "+0,1", " 0,1 ",
                                 "0,\u0661"])
def test_check_renamed_cell_key_exit_2(tmp_path, capsys, three_term, key):
    """A valid 2-simplex whose (0, 1) cell is keyed by a form that ``int``
    reads as 0 and 1: it passed before keys were read in a scalar's
    digits."""
    doc = jsonio.simplex_to_json(identity_simplex(three_term, "C0", 2))
    doc["cells"][key] = doc["cells"].pop("0,1")
    code, out, err = run_cli(capsys, "check",
                             write_doc(tmp_path, "doc.json", doc),
                             "--category", "three_term")
    assert (code, out) == (2, "")
    assert err.endswith(f"bad sequence key {key!r}\n")


def test_check_repeated_json_key_exit_2(tmp_path, capsys, three_term):
    """A non-MC ``eta`` followed by a second, zero ``eta``: ``json.loads``
    alone keeps the last value, which is MC."""
    path = tmp_path / "mc.json"
    path.write_text('{"kind": "mc", "object": "C0", "eta": ["1", "0"], '
                    '"eta": ["0", "0"]}')
    code, out, err = run_cli(capsys, "check", str(path),
                             "--category", "three_term")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "a JSON object states 'eta' twice" in err


@pytest.mark.parametrize("command", ["check_star", "fill"])
def test_short_unit_exit_2_before_the_witness_solve(tmp_path, capsys,
                                                    three_term, command):
    """A unit one coordinate short would index past the right-hand side of
    the witness system; the category parser rejects it first."""
    doc = jsonio.category_to_json(three_term)
    doc["identities"][0][1] = ["1", "1"]
    if command == "check_star":
        simplex = jsonio.simplex_to_json(identity_simplex(three_term, "C0", 1))
        argv = ["check", write_doc(tmp_path, "simplex.json", simplex),
                "--star"]
    else:
        horn = random_horn(three_term, random.Random(5), 2, 0)
        argv = ["fill", write_doc(tmp_path, "horn.json",
                                  jsonio.horn_to_json(horn))]
    code, out, err = run_cli(capsys, *argv, "--category",
                             write_doc(tmp_path, "cat.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "unit of C0 has 2 coordinates" in err


def test_check_simplex_past_dimension_cap_exit_2(tmp_path, capsys):
    doc = {"kind": "simplex", "n": 30, "objects": ["C0"] * 31, "cells": {}}
    code, out, err = run_cli(capsys, "check",
                             write_doc(tmp_path, "simplex.json", doc))
    assert code == 2
    assert out == ""
    assert '"n" must be a nonnegative integer up to 8' in err


@pytest.mark.parametrize("doc", [
    {"kind": "simplex", "n": 1, "objects": [["C0"], "C0"], "cells": {}},
    {"kind": "mc", "object": ["C0"], "eta": []},
], ids=["simplex_object", "mc_object"])
def test_check_list_as_object_name_exit_2(tmp_path, capsys, doc):
    code, out, err = run_cli(capsys, "check",
                             write_doc(tmp_path, "doc.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_simplex_with_star(tmp_path, capsys, three_term):
    simplex = identity_simplex(three_term, "C0", 2)
    path = write_doc(tmp_path, "simplex.json", jsonio.simplex_to_json(simplex))
    code, out, _ = run_cli(capsys, "check", path, "--star",
                           "--category", "three_term")
    assert code == 0
    assert "ok: simplex passes all checks" in out


def test_check_star_rejects_non_equivalence_edge(tmp_path, capsys, three_term):
    simplex = zero_simplex(three_term, "C0", 1)
    path = write_doc(tmp_path, "zero.json", jsonio.simplex_to_json(simplex))
    code, out, _ = run_cli(capsys, "check", path, "--category", "three_term")
    assert code == 0  # plain validation has no witness requirement
    code, out, _ = run_cli(capsys, "check", path, "--star",
                           "--category", "three_term")
    assert code == 1
    assert "edge_not_equivalence" in out
    assert "(0, 1)" in out


def test_check_horn_document(tmp_path, capsys, three_term):
    horn = random_horn(three_term, random.Random(5), 3, 1, witnessed=False)
    path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    code, out, _ = run_cli(capsys, "check", path, "--category", "three_term")
    assert code == 0
    assert "ok: horn passes all checks" in out


def test_check_mc_document(tmp_path, capsys, three_term):
    on_locus = three_term.morphism("C0", "C0", 1, [0, 1])
    path = write_doc(tmp_path, "mc.json", jsonio.mc_to_json(on_locus))
    code, out, _ = run_cli(capsys, "check", path, "--category", "three_term")
    assert code == 0

    off_locus = three_term.morphism("C0", "C0", 1, [1, 0])
    path = write_doc(tmp_path, "mc_bad.json", jsonio.mc_to_json(off_locus))
    code, out, _ = run_cli(capsys, "check", path, "--category", "three_term")
    assert code == 1
    assert "mc_equation" in out


def test_check_filler_document_is_rejected(tmp_path, capsys, three_term):
    """A filler document is refused before ``--category`` is read, so an
    unknown fixture name does not change the error."""
    horn = random_horn(three_term, random.Random(6), 3, 2, witnessed=False)
    filler = fill_horn(three_term, horn)
    path = write_doc(tmp_path, "filler.json",
                     jsonio.filler_to_json(filler, horn.objects))
    for category in ("three_term", "no_such"):
        assert run_cli(capsys, "check", path, "--category", category) == (
            2, "", "error: cannot check a 'filler' document on its own; "
            "check the completed simplex instead\n")


def test_check_unknown_fixture_name_exit_2(tmp_path, capsys, three_term):
    known = "exterior, two_term, three_term, twisted, complexes_a, complexes_b"
    simplex = identity_simplex(three_term, "C0", 1)
    path = write_doc(tmp_path, "simplex.json", jsonio.simplex_to_json(simplex))
    assert run_cli(capsys, "check", path, "--category", "no_such") == (
        2, "", "error: --category 'no_such' is neither a readable file nor a "
        f"fixture name (unknown fixture 'no_such'; known: {known})\n")
    shown = "'" + "x" * 59 + "..."      # a name cut at 60 characters
    assert run_cli(capsys, "check", path, "--category", "x" * 70) == (
        2, "", f"error: --category {shown} is neither a readable file nor a "
        f"fixture name (unknown fixture {shown}; known: {known})\n")


def test_check_time_value_error_keeps_the_path(tmp_path, capsys, monkeypatch,
                                               three_term):
    """A ValueError raised while ``check`` checks a document is reported
    under the document's path, like a reader's."""
    simplex = identity_simplex(three_term, "C0", 1)
    path = write_doc(tmp_path, "simplex.json", jsonio.simplex_to_json(simplex))

    def refuse(cat, simplex):
        raise ValueError("no simplex here")
    monkeypatch.setattr(cli, "validate_simplex", refuse)
    assert run_cli(capsys, "check", path, "--category", "three_term") == (
        2, "", f"error: {path}: no simplex here\n")


# -- fill -------------------------------------------------------------------------


def test_fill_inner_horn_emits_zero_top_cell(tmp_path, capsys, three_term):
    horn = random_horn(three_term, random.Random(11), 3, 1, witnessed=False)
    path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    out_path = tmp_path / "filler.json"
    code, out, _ = run_cli(capsys, "fill", path, "--category", "three_term",
                           "--out", str(out_path))
    assert code == 0
    assert "completed simplex validates" in out
    filler = jsonio.filler_from_json(json.loads(out_path.read_text()),
                                     three_term)
    zero = three_term.ring.zero()
    assert all(c == zero for c in filler.top.coords)


def test_fill_outer_horn_names_non_equivalence_edge(tmp_path, capsys,
                                                    three_term):
    horn = extract_horn(zero_simplex(three_term, "C0", 2), 0)
    path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "fill", path, "--category", "three_term",
                           "--out", str(out_path))
    assert code == 1
    assert "(0, 1)" in out
    report = json.loads(out_path.read_text())
    assert report["error"] == "cannot_fill_outer_horn"
    assert "(0, 1)" in report["detail"]


def test_fill_identity_horn_then_check_completed_simplex(tmp_path, capsys,
                                                         three_term):
    simplex = identity_simplex(three_term, "C0", 2)
    horn = extract_horn(simplex, 1)
    horn_path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    filler_path = tmp_path / "filler.json"
    code, _, _ = run_cli(capsys, "fill", horn_path, "--category", "three_term",
                         "--n", "2", "--k", "1", "--out", str(filler_path))
    assert code == 0
    filler = jsonio.filler_from_json(json.loads(filler_path.read_text()),
                                     three_term)
    completed = complete_horn(horn, filler)
    simplex_path = write_doc(tmp_path, "completed.json",
                             jsonio.simplex_to_json(completed))
    code, out, _ = run_cli(capsys, "check", simplex_path,
                           "--category", "three_term")
    assert code == 0
    assert "ok: simplex passes all checks" in out


def test_fill_dimension_flag_mismatch_exit_2(tmp_path, capsys, three_term):
    horn = extract_horn(identity_simplex(three_term, "C0", 2), 1)
    path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    code, _, err = run_cli(capsys, "fill", path, "--category", "three_term",
                           "--n", "3")
    assert code == 2
    assert "--n 3 does not match" in err
    code, _, err = run_cli(capsys, "fill", path, "--category", "three_term",
                           "--k", "0")
    assert code == 2
    assert "--k 0 does not match" in err


def test_fill_incompatible_horn_reports_violations(tmp_path, capsys,
                                                   three_term):
    horn = random_horn(three_term, random.Random(17), 3, 2, witnessed=False)
    doc = jsonio.horn_to_json(horn)
    # Replace the (0,1) edge by an endomorphism with nonzero differential:
    # its own residual breaks, so the horn is incompatible.
    doc["cells"]["0,1"] = ["0", "1", "0"]
    path = write_doc(tmp_path, "horn.json", doc)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "fill", path, "--category", "three_term",
                           "--out", str(out_path))
    assert code == 1
    assert "incompatible horn" in out
    report = json.loads(out_path.read_text())
    assert report["error"] == "incompatible_horn"
    assert ["0", "1"] in [v["location"] for v in report["violations"]]


def test_incompatible_outer_n_horn_reports_its_own_sequences(tmp_path, capsys,
                                                             three_term):
    # k = n horns are solved in the opposite category, but their violations
    # name the horn's own sequences, as check_horn does.
    horn = random_horn(three_term, random.Random(19), 3, 3, witnessed=True)
    doc = jsonio.horn_to_json(horn)
    doc["cells"]["0,1"] = ["0", "1", "0"]
    bad = jsonio.horn_from_json(doc, three_term)
    expected = check_horn(three_term, bad)
    assert [v.location for v in expected] == [(0, 1), (0, 1, 3)]
    with pytest.raises(IncompatibleHorn) as fill_exc:
        fill_horn(three_term, bad)
    with pytest.raises(IncompatibleHorn) as lift_exc:
        lift_filler(three_term, bad, fill_horn(three_term, horn))
    assert fill_exc.value.violations == lift_exc.value.violations == expected
    path = write_doc(tmp_path, "horn.json", doc)
    code, out, _ = run_cli(capsys, "fill", path, "--category", "three_term",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [v.to_json() for v in expected]


# -- lift -------------------------------------------------------------------------


def test_lift_rank_zero_is_identity(tmp_path, capsys, three_term):
    horn = random_horn(three_term, random.Random(23), 3, 1, witnessed=False)
    filler = fill_horn(three_term, horn)
    horn_path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    filler_doc = jsonio.filler_to_json(filler, horn.objects)
    filler_path = write_doc(tmp_path, "filler.json", filler_doc)
    out_path = tmp_path / "lifted.json"
    code, out, _ = run_cli(capsys, "lift", horn_path, filler_path,
                           "--category", "three_term", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == jsonio.canonical_dumps(filler_doc)


@pytest.fixture(scope="module")
def dual_setup(tmp_path_factory):
    """A three-term category over the dual numbers, a noisy horn over it,
    and the mod-ideal filler, all written to disk."""
    tmp = tmp_path_factory.mktemp("dual")
    cat = three_term_category(SquareZeroRing(1))
    horn = random_horn(cat, random.Random(7), 3, 1, witnessed=False)
    red_filler = fill_horn(reduce_category(cat), reduce_horn(horn))
    paths = {
        "category": tmp / "category.json",
        "horn": tmp / "horn.json",
        "filler": tmp / "filler.json",
    }
    paths["category"].write_text(
        jsonio.canonical_dumps(jsonio.category_to_json(cat)))
    paths["horn"].write_text(
        jsonio.canonical_dumps(jsonio.horn_to_json(horn)))
    paths["filler"].write_text(jsonio.canonical_dumps(
        jsonio.filler_to_json(red_filler, horn.objects)))
    return cat, horn, red_filler, paths, tmp


def test_lift_dual_numbers_validates(dual_setup, capsys):
    cat, horn, red_filler, paths, tmp = dual_setup
    out_path = tmp / "lifted.json"
    code, out, _ = run_cli(capsys, "lift", str(paths["horn"]),
                           str(paths["filler"]),
                           "--category", str(paths["category"]),
                           "--out", str(out_path))
    assert code == 0
    assert "rank-1 square-zero ideal" in out
    lifted = jsonio.filler_from_json(json.loads(out_path.read_text()), cat)
    simplex_doc = jsonio.simplex_to_json(complete_horn(horn, lifted))
    simplex_path = tmp / "completed.json"
    simplex_path.write_text(jsonio.canonical_dumps(simplex_doc))
    code, _, _ = run_cli(capsys, "check", str(simplex_path),
                         "--category", str(paths["category"]))
    assert code == 0
    reduced = reduce_filler(lifted)
    assert reduced.face == red_filler.face
    assert reduced.top == red_filler.top


def test_lift_invalid_mod_ideal_filler_exit_1(dual_setup, capsys):
    cat, horn, red_filler, paths, tmp = dual_setup
    # Shift the face by the degree −1 basis element whose differential is
    # nonzero: the result is no longer a filler modulo the ideal.
    doc = json.loads(paths["filler"].read_text())
    face_key = jsonio.seq_to_key(horn.missing_face)
    coords = doc["cells"][face_key]
    from fractions import Fraction
    coords[1] = str(Fraction(coords[1]) + 1)
    bad_path = tmp / "garbage.json"
    bad_path.write_text(jsonio.canonical_dumps(doc))
    out_path = tmp / "report.json"
    code, out, _ = run_cli(capsys, "lift", str(paths["horn"]), str(bad_path),
                           "--category", str(paths["category"]),
                           "--out", str(out_path))
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["error"] == "InvalidReduction"


def test_lift_malformed_filler_exit_2(dual_setup, capsys):
    _, _, _, paths, tmp = dual_setup
    bad_path = tmp / "truncated.json"
    bad_path.write_text('{"kind": "filler"')
    code, _, err = run_cli(capsys, "lift", str(paths["horn"]), str(bad_path),
                           "--category", str(paths["category"]))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("bad, edit, message", [
    ("horn", lambda cells: cells.update({"0,9": cells["0,1"]}),
     "cell key '0,9' exceeds dimension 3"),
    ("filler", lambda cells: cells.pop("0,2,3"),
     "filler must provide exactly the cells 0,1,2,3 and 0,2,3"),
], ids=["horn", "filler"])
def test_lift_names_the_document_it_cannot_read(dual_setup, capsys, bad,
                                                edit, message):
    """Each of the two documents ``lift`` reads is named when it is bad."""
    _, _, _, paths, tmp = dual_setup
    doc = json.loads(paths[bad].read_text())
    edit(doc["cells"])
    argv = {"horn": str(paths["horn"]), "filler": str(paths["filler"]),
            bad: write_doc(tmp, f"bad_{bad}.json", doc)}
    code, out, err = run_cli(capsys, "lift", argv["horn"], argv["filler"],
                             "--category", str(paths["category"]))
    assert (code, out) == (2, "")
    assert err == f"error: {argv[bad]}: {message}\n"


def test_lift_filler_of_another_horn_exit_2(tmp_path, capsys):
    # the filler document parses against its own objects, so its cells are
    # checked against the horn's shape only inside lift_filler
    cat = tensor_with_ring(random_complex_category(11), SquareZeroRing(1))

    def zero_horn(objects):
        cells = {seq: cat.zero(objects[seq[0]], objects[seq[-1]],
                               2 - len(seq))
                 for seq in increasing_sequences(2)}
        return extract_horn(NerveSimplex(objects, cells), 1)
    other = zero_horn(("A", "A", "A"))
    filler = fill_horn(reduce_category(cat), reduce_horn(other))
    code, out, err = run_cli(
        capsys, "lift",
        write_doc(tmp_path, "horn.json",
                  jsonio.horn_to_json(zero_horn(("C", "C", "B")))),
        write_doc(tmp_path, "filler.json",
                  jsonio.filler_to_json(filler, other.objects)),
        "--category", write_doc(tmp_path, "cat.json",
                                jsonio.category_to_json(cat)))
    assert (code, out) == (2, "")
    assert err == ("error: filler cell (0, 1, 2): cell maps A->A, "
                   "expected C->B\n")


# -- laws -------------------------------------------------------------------------


def test_laws_full_sweep_passes(tmp_path, capsys):
    out_path = tmp_path / "laws.json"
    code, out, _ = run_cli(capsys, "laws", "--category", "exterior",
                           "--trials", "100", "--out", str(out_path))
    assert code == 0
    assert "all laws hold" in out
    report = json.loads(out_path.read_text())
    assert report["trials"] == 100
    assert all(row["pass"] == 100 and row["fail"] == 0
               for row in report["laws"])


def test_laws_zero_trials_empty_report(tmp_path, capsys):
    out_path = tmp_path / "laws.json"
    code, out, _ = run_cli(capsys, "laws", "--trials", "0",
                           "--out", str(out_path))
    assert code == 0
    assert "all laws hold" in out
    report = json.loads(out_path.read_text())
    assert all(row["pass"] == 0 and row["fail"] == 0 and not row["failures"]
               for row in report["laws"])


def test_laws_negative_trials_exit_2(capsys):
    code, _, err = run_cli(capsys, "laws", "--trials", "-1")
    assert code == 2
    assert "nonnegative" in err


def test_laws_sign_mutated_build_reports_failures(tmp_path, capsys,
                                                  monkeypatch):
    mutated = functools.partial(laws.run_laws, signs=SignPattern(0, 0, 0, 1))
    monkeypatch.setattr(laws, "run_laws", mutated)
    out_path = tmp_path / "laws.json"
    code, out, _ = run_cli(capsys, "laws", "--trials", "10",
                           "--out", str(out_path))
    assert code == 1
    assert "law failures" in out
    report = json.loads(out_path.read_text())
    leibniz_rows = [row for row in report["laws"]
                    if row["name"].startswith("cochain_leibniz")]
    assert any(row["fail"] > 0 for row in leibniz_rows)
    failing = next(row for row in report["laws"] if row["fail"] > 0)
    assert all("seed" in failure for failure in failing["failures"])


def test_laws_rejects_broken_category(tmp_path, capsys, three_term):
    doc = jsonio.category_to_json(three_term)
    doc["diffs"][0][3][0][2] = "3"
    path = write_doc(tmp_path, "broken.json", doc)
    code, out, _ = run_cli(capsys, "laws", "--category", path, "--trials", "5")
    assert code == 1
    assert "category axioms" in out


# -- gp ---------------------------------------------------------------------------


def test_gp_inner_sweep_passes(tmp_path, capsys):
    out_path = tmp_path / "gp.json"
    code, out, _ = run_cli(capsys, "gp", "--n", "3", "--k", "1",
                           "--trials", "5", "--out", str(out_path))
    assert code == 0
    assert "all trials pass" in out
    assert "witness_calls=0" in out
    report = json.loads(out_path.read_text())
    assert {mode["mode"] for mode in report["modes"]} == {"witnessed", "plain"}


def test_gp_outer_sweep_passes(capsys):
    code, out, _ = run_cli(capsys, "gp", "--n", "2", "--k", "0",
                           "--trials", "5")
    assert code == 0
    assert "all trials pass" in out


def test_gp_failing_trials_exit_1(tmp_path, capsys, doubled_unit):
    # Every outer fill fails validation; each failing trial gets a line
    # naming its stage and reproducing seed.
    path = write_doc(tmp_path, "bad.json",
                     jsonio.category_to_json(doubled_unit))
    code, out, _ = run_cli(capsys, "gp", "--category", path, "--n", "2",
                           "--k", "0", "--trials", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[1:] == [
        f"  FAIL trial {t} stage=fill_validate seed={_trial_seed(0, t, 0)}: "
        "residual" for t in range(2)] + ["2 failing trials"]


def test_gp_dimension_one_exit_2(capsys):
    code, _, err = run_cli(capsys, "gp", "--n", "1", "--k", "0")
    assert code == 2
    assert "out of scope" in err


def test_gp_dimension_past_cap_exit_2(capsys):
    # A simplex has 2^(n+1) − n − 2 cells, so the sweep stops at the cap
    # that documents have; n = 9 is refused before any trial runs.
    code, out, err = run_cli(capsys, "gp", "--n", "9", "--k", "4")
    assert code == 2
    assert out == ""
    assert err == "error: --n must be at most 8\n"
    code, out, _ = run_cli(capsys, "gp", "--n", "8", "--k", "4",
                           "--trials", "1")
    assert code == 0
    assert "all trials pass" in out


def seed_of(digits: int, sign: str = "") -> str:
    return sign + "9" * digits


# A trial seed is seed·1 000 003 plus a small offset, so the seeds of at most
# MAX_DIGITS − 7 digits are the ones whose trial seeds a report can print.
SEED_DIGITS = jsonio.MAX_DIGITS - 7


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gp_seed_at_the_bound_reports_its_trial_seed(tmp_path, capsys,
                                                     doubled_unit, fmt):
    path = write_doc(tmp_path, "bad.json",
                     jsonio.category_to_json(doubled_unit))
    seed = seed_of(SEED_DIGITS)
    code, out, err = run_cli(capsys, "gp", "--category", path, "--n", "2",
                             "--k", "0", "--trials", "1", "--seed", seed,
                             "--format", fmt)
    assert (code, err) == (1, "")
    trial_seed = _trial_seed(int(seed), 0, 0)
    assert len(str(trial_seed)) == jsonio.MAX_DIGITS
    if fmt == "json":
        assert json.loads(out)["modes"][0]["failures"][0]["seed"] == trial_seed
    else:
        assert f" seed={trial_seed}: residual" in out


@pytest.mark.parametrize("command", [
    ["gp", "--n", "2", "--k", "0", "--trials", "1"],
    ["laws", "--trials", "1"]], ids=["gp", "laws"])
@pytest.mark.parametrize("seed", [seed_of(SEED_DIGITS + 1),
                                  seed_of(SEED_DIGITS + 1, "-"),
                                  seed_of(jsonio.MAX_DIGITS)],
                         ids=["past", "negative_past", "max_digits"])
def test_seed_past_the_bound_exit_2(tmp_path, capsys, doubled_unit, command,
                                    seed):
    # Over doubled_unit every gp trial fails and would print its seed.
    path = write_doc(tmp_path, "bad.json",
                     jsonio.category_to_json(doubled_unit))
    code, out, err = run_cli(capsys, *command, "--seed", seed,
                             "--category", path)
    assert (code, out) == (2, "")
    assert err == f"error: --seed must have at most {SEED_DIGITS} digits\n"


@pytest.mark.parametrize("sign", ["", "-"])
def test_laws_seed_at_the_bound_runs(capsys, sign):
    seed = seed_of(SEED_DIGITS, sign)
    code, out, err = run_cli(capsys, "laws", "--trials", "1", "--seed", seed,
                             "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["seed"] == int(seed)
    assert all(row["pass"] == 1 for row in report["laws"])


# -- determinism and formats --------------------------------------------------------


def test_same_seed_identical_laws_report_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "laws", "--category", "exterior",
                             "--seed", "42", "--trials", "20",
                             "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_same_seed_identical_gp_report_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "gp", "--n", "2", "--k", "1",
                             "--seed", "9", "--trials", "4",
                             "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_payload_is_built_only_when_used(tmp_path, capsys, monkeypatch):
    built = []
    dumps = jsonio.canonical_dumps
    monkeypatch.setattr(jsonio, "canonical_dumps",
                        lambda doc: built.append(doc) or dumps(doc))
    argv = ["gp", "--n", "2", "--k", "1", "--trials", "1"]
    out_path = str(tmp_path / "gp.json")
    for extra, count in (([], 0), (["--format", "json"], 1),
                         (["--out", out_path], 1)):
        built.clear()
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0 and len(built) == count
    assert pathlib.Path(out_path).read_text() == dumps(built[0])


def test_json_format_matches_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "laws", "--category", "exterior",
                           "--trials", "5", "--format", "json",
                           "--out", str(out_path))
    assert code == 0
    assert out == out_path.read_text()
    assert json.loads(out)["kind"] == "laws_report"


@pytest.mark.parametrize("target", ["missing_dir/report.json", "a_dir"])
def test_unwritable_out_exit_2(tmp_path, capsys, target):
    (tmp_path / "a_dir").mkdir()
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, "laws", "--category", "exterior",
                             "--trials", "1", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


def run_posix(*argv: str) -> subprocess.CompletedProcess:
    """``dgnerve`` in a process of its own under the POSIX locale, whose
    stdout encoding is ASCII."""
    src = pathlib.Path(jsonio.__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="POSIX", PYTHONUTF8="0",
               PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-X", "utf8=0", "-m",
                           "dgnerve.cli", *argv],
                          env=env, capture_output=True, timeout=120)


def test_fill_out_is_utf8_under_the_posix_locale(tmp_path, capsys,
                                                 three_term):
    """Documents are read, and ``--out`` written, as UTF-8 whatever the
    locale: ``fill`` in a process of its own under the POSIX locale, on a
    horn over an object named α, writes the bytes of the in-process run."""
    doc = json.loads(json.dumps(jsonio.category_to_json(three_term))
                     .replace('"C0"', '"α"'))
    cat_path = write_doc(tmp_path, "cat.json", doc)
    horn = extract_horn(
        identity_simplex(jsonio.category_from_json(doc), "α", 2), 1)
    horn_path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    here, there = tmp_path / "here.json", tmp_path / "there.json"
    argv = ["fill", horn_path, "--category", cat_path, "--out"]
    assert run_cli(capsys, *argv, str(here))[0] == 0
    done = run_posix(*argv, str(there))
    assert done.returncode == 0, done.stderr
    assert there.read_bytes() == here.read_bytes()
    assert "α".encode() in here.read_bytes()


def test_failing_text_report_is_utf8_under_the_posix_locale(tmp_path, capsys,
                                                            doubled_unit):
    """Reports reach stdout as UTF-8 whatever the locale: a failing
    ``check`` whose lines hold ``∘``, in a process under the POSIX locale,
    prints the bytes of the in-process run and keeps its exit code 1."""
    path = write_doc(tmp_path, "cat.json",
                     jsonio.category_to_json(doubled_unit))
    code, here, _ = run_cli(capsys, "check", path)
    assert code == 1 and "∘" in here
    done = run_posix("check", path)
    assert (done.returncode, done.stderr) == (1, b"")
    assert done.stdout == here.encode()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600),
                                        (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_out_file_mode_follows_the_umask(tmp_path, capsys, umask, mode):
    out_path = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "gp", "--n", "2", "--k", "1",
                             "--trials", "1", "--out", str(out_path))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out_path.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_name_at_the_length_limit_is_written(tmp_path, capsys):
    """The temporary file has a short name of its own, so any name that a
    plain ``open`` takes (255 bytes here) takes the report."""
    out_path = tmp_path / ("r" * 250 + ".json")
    code, _, err = run_cli(capsys, "gp", "--n", "2", "--k", "1",
                           "--trials", "1", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert json.loads(out_path.read_text())["n"] == 2
    assert [p.name for p in tmp_path.iterdir()] == [out_path.name]


@pytest.mark.parametrize("sink", ["--out", "--format"])
def test_lone_surrogate_object_name_exit_2(tmp_path, capsys, three_term,
                                           sink):
    """``fill`` on a horn over ``three_term`` with C0 renamed "\\ud800": no
    report can hold such a name, so the category is refused, and nothing
    is written."""
    horn = random_horn(three_term, random.Random(5), 2, 1)
    for name, doc in [("cat", jsonio.category_to_json(three_term)),
                      ("horn", jsonio.horn_to_json(horn))]:
        (tmp_path / f"{name}.json").write_text(
            json.dumps(doc).replace('"C0"', '"\\ud800"'))
    extra = [sink, str(tmp_path / "filler.json") if sink == "--out"
             else "json"]
    code, out, err = run_cli(capsys, "fill", str(tmp_path / "horn.json"),
                             "--category", str(tmp_path / "cat.json"), *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "lone surrogates" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cat.json",
                                                          "horn.json"]


def test_fill_result_past_the_digit_cap_exit_2(tmp_path, capsys, three_term):
    """Edges scaled by a 3000-digit int still make a valid Λ²₁ horn, but
    its filler face α₁₂∘α₀₁ has about 6000 digits, which no document may
    hold: ``fill`` refuses to write it."""
    horn = random_horn(three_term, random.Random(0), 2, 1, witnessed=False)
    big, cells = int("7" * 3000), dict(horn.cells)
    for seq in ((0, 1), (1, 2)):
        cell = cells[seq]
        cells[seq] = Morphism(cell.source, cell.target, cell.degree,
                              tuple(c * big for c in cell.coords))
    horn = dataclasses.replace(horn, cells=cells)
    assert check_horn(three_term, horn) == []
    horn_path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    out_path = tmp_path / "filler.json"
    for sink in (["--out", str(out_path)], ["--format", "json"]):
        code, out, err = run_cli(capsys, "fill", horn_path, *sink)
        assert code == 2 and out == ""
        assert err == "error: cannot write a scalar of over 4300 digits\n"
    assert not out_path.exists()


def test_value_error_outside_every_reader_exit_2(tmp_path, capsys,
                                                  monkeypatch, three_term):
    """A ValueError that no document reader raised is exit 2 with its
    message and no traceback: here ``validate_simplex`` in ``fill``."""
    horn = random_horn(three_term, random.Random(11), 3, 1, witnessed=False)
    path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))

    def refuse(cat, simplex):
        raise ValueError("no simplex here")
    monkeypatch.setattr(cli, "validate_simplex", refuse)
    assert run_cli(capsys, "fill", path) == (2, "", "error: no simplex here\n")


def test_lift_result_past_the_digit_cap_exit_2(tmp_path, capsys, three_term):
    """Over Q ⊕ εQ, edges with a 2200-digit body on (0, 1) and a 2200-digit
    ε-part on (1, 2): the reduced filler is writable, but the lifted face's
    ε-part has about 4400 digits, so ``lift`` refuses to write it."""
    cat = tensor_with_ring(three_term, SquareZeroRing(1))
    horn = random_horn(cat, random.Random(0), 2, 1, witnessed=False)
    big, ring, cells = int("7" * 2200), cat.ring, dict(horn.cells)
    for seq, body, eps in (((0, 1), big, 0), ((1, 2), 1, big)):
        cell = cells[seq]
        cells[seq] = Morphism(cell.source, cell.target, cell.degree, tuple(
            ring.element(c.body * body, [c.body * eps]) for c in cell.coords))
    horn = dataclasses.replace(horn, cells=cells)
    red_filler = fill_horn(reduce_category(cat), reduce_horn(horn))
    paths = [write_doc(tmp_path, name, doc) for name, doc in [
        ("horn.json", jsonio.horn_to_json(horn)),
        ("filler.json", jsonio.filler_to_json(red_filler, horn.objects)),
        ("cat.json", jsonio.category_to_json(cat))]]
    code, out, err = run_cli(capsys, "lift", *paths[:2],
                             "--category", paths[2])
    assert (code, out) == (2, "")
    assert err == "error: cannot write a scalar of over 4300 digits\n"


@pytest.mark.parametrize("scalar,code", [
    ("1" * 4301, 2), ("-" + "1" * 4301, 2), ("1/" + "3" * 4301, 2),
    ("1" * 4300, 1), ("-1/" + "3" * 4300, 1)],
    ids=["4301", "minus_4301", "over_4301", "4300", "minus_over_4300"])
def test_scalar_string_digit_cap(tmp_path, capsys, three_term, scalar, code):
    """A numerator or denominator of more than 4300 digits is refused as
    input; one of 4300 digits reads, and the scaled unit then fails."""
    doc = jsonio.category_to_json(three_term)
    doc["identities"][0][1][0] = scalar
    got, out, err = run_cli(capsys, "check",
                            write_doc(tmp_path, "cat.json", doc))
    assert got == code and "Traceback" not in err
    if code == 2:
        assert out == "" and err.endswith("more than 4300 digits\n")


LONG = 10 ** 6


@pytest.mark.parametrize("path, value, message", [
    (("identities", 0, 1, 0), "1." + "1" * LONG,
     "not a rational \"p\" or \"p/q\": '1.11111"),
    (("ranks", 0, 0), "C" * LONG, "unknown object 'CCCCC"),
], ids=["scalar", "object_name"])
def test_long_bad_value_gives_a_short_error_line(tmp_path, capsys,
                                                 monkeypatch, three_term,
                                                 path, value, message):
    """A rejected value of a million characters is echoed cut to its first
    60: the error line stays short (it once held the whole value)."""
    doc = jsonio.category_to_json(three_term)
    *parents, last = path
    functools.reduce(lambda node, step: node[step], parents, doc)[last] = value
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path, "cat.json", doc)
    code, out, err = run_cli(capsys, "check", "cat.json")
    assert code == 2 and out == ""
    assert err.startswith("error: cat.json: ") and message in err
    assert len(err.encode("utf-8")) < 200


def _renamed(doc, name):
    """``doc`` with the object C0 renamed to ``name``."""
    return json.loads(json.dumps(doc).replace('"C0"', json.dumps(name)))


def _unitless_object(three_term):
    doc = jsonio.category_to_json(three_term)
    doc["objects"].append("N" * LONG)
    return doc, None


def _short_unit_of_long_name(three_term):
    doc = _renamed(jsonio.category_to_json(three_term), "C" * LONG)
    doc["identities"][0][1].pop()
    return doc, None


def _huge_diff_column(three_term):
    doc = jsonio.category_to_json(three_term)
    doc["diffs"][0][3][0][0] = int("9" * 4000)
    return doc, None


def _long_missing(three_term):
    horn = random_horn(three_term, random.Random(5), 3, 1, witnessed=False)
    return dict(jsonio.horn_to_json(horn), missing="m" * LONG), "three_term"


def _short_cell_of_long_names(three_term):
    simplex = jsonio.simplex_to_json(identity_simplex(three_term, "C0", 1))
    simplex["cells"]["0,1"].pop()
    return (_renamed(simplex, "C" * LONG),
            _renamed(jsonio.category_to_json(three_term), "C" * LONG))


@pytest.mark.parametrize("build, message", [
    (_unitless_object, "objects without identities: ['NNNNN"),
    (_short_unit_of_long_name, "unit of CCCCC"),
    (_huge_diff_column, "diff column 99999"),
    (_long_missing, "\"missing\" is mmmmm"),
    (_short_cell_of_long_names, "coordinates; hom(CCCCC"),
], ids=["unitless_object", "unit_name", "diff_column", "missing",
        "cell_names"])
def test_long_echoed_input_gives_a_short_error_line(tmp_path, capsys,
                                                    monkeypatch, three_term,
                                                    build, message):
    """Names and values that an error message echoes are cut to their first
    60 characters: each of these messages once held the whole input."""
    doc, category = build(three_term)
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path, "doc.json", doc)
    if isinstance(category, dict):
        write_doc(tmp_path, "cat.json", category)
        category = "cat.json"
    code, out, err = run_cli(capsys, "check", "doc.json",
                             *(["--category", category] if category else []))
    assert code == 2 and out == "" and err.startswith("error: doc.json: ")
    assert message in err and "..." in err
    assert len(err.encode("utf-8")) < 300


def test_long_fixture_name_gives_a_short_error_line(tmp_path, capsys,
                                                    three_term):
    simplex = identity_simplex(three_term, "C0", 1)
    path = write_doc(tmp_path, "simplex.json", jsonio.simplex_to_json(simplex))
    code, out, err = run_cli(capsys, "check", path, "--category", "x" * LONG)
    assert code == 2 and out == ""
    assert "--category 'xxxxx" in err and "(unknown fixture 'xxxxx" in err
    assert len(err.encode("utf-8")) < 300     # with the known fixture names


def test_usage_error_exit_code(capsys):
    assert main(["no_such_command"]) == 2
    capsys.readouterr()


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys, three_term):
    cat_path = write_doc(tmp_path, "cat.json",
                         jsonio.category_to_json(three_term))
    horn = random_horn(three_term, random.Random(11), 3, 1, witnessed=False)
    horn_path = write_doc(tmp_path, "horn.json", jsonio.horn_to_json(horn))
    calls = [["check", cat_path],
             ["check", cat_path, "--format", "yaml"],
             ["fill", horn_path, "--format", "json"],
             ["gp", "--n", "2", "--k", "0", "--trials", "2"],
             ["fill", "--help"]]

    def run_all(fresh: bool) -> list:
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            results.append(run_cli(capsys, *argv))
        return results

    fresh = run_all(fresh=True)
    assert build_parser() is build_parser()
    assert run_all(fresh=False) == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0]
    assert "invalid choice: 'yaml'" in fresh[1][2]


# -- serialization round trips -------------------------------------------------------


@pytest.mark.parametrize("name", [n for n, _ in standard_fixtures()])
def test_category_round_trip(name):
    cat = dict(standard_fixtures())[name]
    doc = jsonio.category_to_json(cat)
    recovered = jsonio.category_from_json(
        json.loads(jsonio.canonical_dumps(doc)))
    assert recovered == cat
    assert jsonio.category_to_json(recovered) == doc


def test_category_round_trip_square_zero_ring():
    cat = three_term_category(SquareZeroRing(2))
    doc = jsonio.category_to_json(cat)
    recovered = jsonio.category_from_json(
        json.loads(jsonio.canonical_dumps(doc)))
    assert recovered == cat
    assert jsonio.category_to_json(recovered) == doc


def test_simplex_horn_filler_mc_round_trips(three_term):
    cat = three_term_category(SquareZeroRing(1))
    rng = random.Random(31)
    horn = random_horn(cat, rng, 3, 2, witnessed=False)
    simplex = complete_horn(horn, fill_horn(cat, horn))
    filler = fill_horn(cat, horn)
    eta = cat.morphism("C0", "C0", 1, [0, 1])

    sdoc = jsonio.simplex_to_json(simplex)
    assert jsonio.simplex_from_json(
        json.loads(jsonio.canonical_dumps(sdoc)), cat) == simplex
    assert jsonio.simplex_to_json(jsonio.simplex_from_json(sdoc, cat)) == sdoc

    hdoc = jsonio.horn_to_json(horn)
    assert jsonio.horn_from_json(
        json.loads(jsonio.canonical_dumps(hdoc)), cat) == horn
    assert jsonio.horn_to_json(jsonio.horn_from_json(hdoc, cat)) == hdoc

    fdoc = jsonio.filler_to_json(filler, horn.objects)
    assert jsonio.filler_from_json(
        json.loads(jsonio.canonical_dumps(fdoc)), cat) == filler
    assert jsonio.filler_to_json(jsonio.filler_from_json(fdoc, cat),
                                 horn.objects) == fdoc

    mdoc = jsonio.mc_to_json(eta)
    assert jsonio.mc_from_json(
        json.loads(jsonio.canonical_dumps(mdoc)), cat) == eta
    assert jsonio.mc_to_json(jsonio.mc_from_json(mdoc, cat)) == mdoc


def test_horn_with_wrong_missing_list_rejected(three_term):
    horn = random_horn(three_term, random.Random(41), 3, 1, witnessed=False)
    doc = jsonio.horn_to_json(horn)
    doc["missing"] = ["0,1,2"]
    with pytest.raises(ValueError, match="omits"):
        jsonio.horn_from_json(doc, three_term)


def test_detect_kind_inference(three_term):
    assert jsonio.detect_kind({"ranks": []}) == "category"
    assert jsonio.detect_kind({"missing": [], "cells": {}}) == "horn"
    assert jsonio.detect_kind({"eta": []}) == "mc"
    assert jsonio.detect_kind({"cells": {}}) == "simplex"
    with pytest.raises(ValueError, match="kind"):
        jsonio.detect_kind({"kind": "novel"})
    with pytest.raises(ValueError, match="cannot infer"):
        jsonio.detect_kind({})


# -- hostile documents ---------------------------------------------------------------

HOSTILE = [None, "1/0", "", 1.5, float("nan"), float("inf"), True, -1, 0,
           10 ** 9, 10 ** 400, -(10 ** 400), [], {}, [[["1"]]], {"0,1": []},
           "\ud800"]


def _hostile_bases():
    """Valid documents over a rank-1 three_term, and the CLI call that reads
    each one: as the checked, filled or lifted input, as the mod-ideal
    filler of ``lift``, or as ``--category``."""
    cat = three_term_category(SquareZeroRing(1))
    rng = random.Random(23)
    horns = {(n, k): random_horn(cat, rng, n, k)
             for n, k in [(3, 1), (2, 0), (2, 2)]}
    red_filler = fill_horn(reduce_category(cat), reduce_horn(horns[3, 1]))
    horns = {key: jsonio.horn_to_json(h) for key, h in horns.items()}
    simplex = jsonio.simplex_to_json(identity_simplex(cat, "C0", 2))
    fixed = {"cat": jsonio.category_to_json(cat), "horn": horns[3, 1],
             "filler": jsonio.filler_to_json(red_filler, ("C0",) * 4),
             "simplex": simplex}
    return fixed, {
        "category": (fixed["cat"], ["check", "{doc}"]),
        "category_option": (fixed["cat"], ["check", "{horn}",
                                           "--category", "{doc}"]),
        "category_star": (fixed["cat"], ["check", "{simplex}", "--star",
                                         "--category", "{doc}"]),
        "simplex": (simplex, ["check", "{doc}", "--star", "--category",
                              "{cat}"]),
        "horn_check": (horns[3, 1], ["check", "{doc}", "--category", "{cat}"]),
        "horn_fill_0": (horns[2, 0], ["fill", "{doc}", "--category", "{cat}"]),
        "horn_fill_n": (horns[2, 2], ["fill", "{doc}", "--category", "{cat}"]),
        "lift_horn": (horns[3, 1], ["lift", "{doc}", "{filler}",
                                    "--category", "{cat}"]),
        "lift_filler": (fixed["filler"], ["lift", "{horn}", "{doc}",
                                          "--category", "{cat}"]),
        "mc": (jsonio.mc_to_json(cat.morphism("C0", "C0", 1, [0, 1])),
               ["check", "{doc}", "--category", "{cat}"]),
    }


HOSTILE_FIXED, HOSTILE_BASES = _hostile_bases()


def _coordinate_vectors(node) -> list:
    """The lists under ``node`` whose items are all nonempty lists of
    scalars: over a ring with ideal layers, the coordinate vectors (units,
    cells, MC elements), and records such as ``ranks``."""
    children = list(node.values()) if isinstance(node, dict) else \
        node if isinstance(node, list) else []
    found = [node] if isinstance(node, list) and node and all(
        isinstance(item, list) and item
        and not any(isinstance(v, (dict, list)) for v in item)
        for item in node) else []
    return found + [v for child in children
                    for v in _coordinate_vectors(child)]


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three nodes dropped, replaced by a hostile value
    or by a value of another type, nested one list deeper, or (a list)
    given a second copy of one of its items, so a vector or a unit grows by
    one coordinate; or with one coordinate vector one item shorter, which a
    random walk down from the root, stopping at each level with
    probability ½, would seldom reach."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        vectors = _coordinate_vectors(doc)
        if vectors and draw(st.booleans()):
            vector = draw(st.sampled_from(vectors))
            del vector[draw(st.sampled_from(range(len(vector))))]
            continue
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        actions = ["drop", "hostile", "swap", "nest"]
        if isinstance(node, list) and node:
            actions.append("dup")
        action = draw(st.sampled_from(actions))
        if action == "drop":
            del parent[key]
        elif action == "hostile":
            parent[key] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
        elif action == "swap":
            parent[key] = len(node) if isinstance(node, str) else str(node)
        elif action == "dup":
            i = draw(st.sampled_from(range(len(node))))
            node.insert(i, copy.deepcopy(node[i]))
        else:
            parent[key] = [node]
    return doc


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_hostile_documents_keep_the_exit_code_contract(tmp_path_factory,
                                                       data):
    name = data.draw(st.sampled_from(sorted(HOSTILE_BASES)))
    base, argv = HOSTILE_BASES[name]
    doc = data.draw(mutated(base))
    workdir = tmp_path_factory.mktemp("hostile")
    paths = {}
    for key, value in [("doc", doc), *HOSTILE_FIXED.items()]:
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(value))
    argv = [arg.format(**paths) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
