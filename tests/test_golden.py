"""CLI reports compared byte for byte with the files under ``tests/golden/``.

Each case writes its input documents from fixtures and fixed seeds, runs
``main`` in process, and compares stdout with ``golden/<case>.<format>``.
A change to any report, to the samplers that draw the documents, or to the
order of violations shows up here as a diff against a stored file.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random

import pytest

from dgnerve import jsonio
from dgnerve.cli import _load_category, main
from dgnerve.fixtures import random_complex_category, three_term_category
from dgnerve.horn import (fill_horn, random_horn, random_valid_simplex,
                          reduce_horn)
from dgnerve.mc import reduce_category, tensor_with_ring
from dgnerve.rings import SquareZeroRing

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _tripled_comp_entry(cat):
    """``cat`` with one composition coefficient tripled: it fails Leibniz
    and associativity at many basis tuples."""
    key = sorted(cat.comps)[-1]
    tensor = dict(cat.comps[key])
    pair = sorted(tensor)[0]
    (r, a), *rest = tensor[pair]
    tensor[pair] = ((r, a * 3), *rest)
    return dataclasses.replace(cat, comps={**cat.comps, key: tensor})


def golden_cases(tmp: pathlib.Path) -> dict[str, list[str]]:
    """Write the input documents into ``tmp``; the argv of every case."""
    cat = three_term_category()
    cat_b = tensor_with_ring(cat, SquareZeroRing(1))
    rng = random.Random(2024)
    docs = {
        "category": jsonio.category_to_json(
            _tripled_comp_entry(random_complex_category(11))),
        "category_b": jsonio.category_to_json(cat_b),
        "simplex": jsonio.simplex_to_json(random_valid_simplex(cat, rng, 3)),
    }
    for n, k in [(2, 0), (3, 1), (2, 2)]:
        docs[f"horn_{n}{k}"] = jsonio.horn_to_json(random_horn(cat, rng, n, k))
    lift_horn = random_horn(cat_b, rng, 3, 0)
    docs["lift_horn"] = jsonio.horn_to_json(lift_horn)
    docs["lift_filler"] = jsonio.filler_to_json(
        fill_horn(reduce_category(cat_b), reduce_horn(lift_horn)),
        lift_horn.objects)
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp / f"{name}.json")
        pathlib.Path(paths[name]).write_text(jsonio.canonical_dumps(doc))
    fixture = ["--category", "three_term"]
    return {
        "check_category": ["check", paths["category"]],
        "check_simplex_star": ["check", paths["simplex"], "--star", *fixture],
        "check_horn": ["check", paths["horn_31"], *fixture],
        "fill_2_0": ["fill", paths["horn_20"], *fixture],
        "fill_3_1": ["fill", paths["horn_31"], *fixture],
        "fill_2_2": ["fill", paths["horn_22"], *fixture],
        "lift": ["lift", paths["lift_horn"], paths["lift_filler"],
                 "--category", paths["category_b"]],
        "laws": ["laws", "--trials", "3"],
        "gp": ["gp", "--n", "3", "--k", "1", "--trials", "3"],
    }


# Each case and its exit code: the category carries a corrupted entry.
EXIT_CODES = {"check_category": 1, "check_simplex_star": 0, "check_horn": 0,
              "fill_2_0": 0, "fill_3_1": 0, "fill_2_2": 0, "lift": 0,
              "laws": 0, "gp": 0}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_cli_report_matches_golden(tmp_path, capsys, case, fmt):
    argv = golden_cases(tmp_path)[case] + ["--format", fmt]
    assert main(argv) == EXIT_CODES[case]
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{case}.{fmt}").read_text()


@pytest.mark.parametrize("case", ["fill_2_0", "fill_2_2", "fill_3_1", "lift"])
def test_written_filler_reads_back(tmp_path, capsys, case):
    """Every filler the CLI writes is a document its own reader takes, and
    writing what was read gives the same document."""
    argv = golden_cases(tmp_path)[case]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cat = _load_category(argv[argv.index("--category") + 1])
    filler = jsonio.filler_from_json(doc, cat)
    assert jsonio.filler_to_json(filler, tuple(doc["objects"])) == doc
