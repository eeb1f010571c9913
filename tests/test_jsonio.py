"""The scalar reader and writer of ``jsonio`` against the ``Fraction`` forms
they replaced, and the order in which a category document's errors are
reported.

``_reference_rational_from_str``, ``_reference_element_from_json`` and
``_reference_element_to_json`` are the reader and writer as they were
before scalars were read as ints: every scalar went through ``Fraction``
and ``SquareZeroRing.element``, and every written layer was
``str(Fraction)``.  The reader must give an ``==`` element or refuse the
same input with the same message; the writer must give the same text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgnerve import jsonio
from dgnerve.jsonio import (MAX_DIGITS, category_from_json, category_to_json,
                            element_from_json, element_to_json, unique_keys)
from dgnerve.rings import RingElement, SquareZeroRing, from_layers

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _reference_rational_from_str(s):
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a rational \"p\" or \"p/q\": "
                         f"{jsonio._shown(s)}")
    if any(len(part) > MAX_DIGITS for part in s.lstrip("-").split("/")):
        raise ValueError(f"a scalar has more than {MAX_DIGITS} digits")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {jsonio._shown(s)}") from None


def _reference_element_from_json(doc, ring):
    if not isinstance(doc, list):
        return ring.element(_reference_rational_from_str(doc))
    if len(doc) != ring.ideal_rank + 1:
        raise ValueError(f"ring element has {len(doc)} layers, expected "
                         f"{ring.ideal_rank + 1}")
    body, *ideal = doc
    return ring.element(_reference_rational_from_str(body),
                        [_reference_rational_from_str(c) for c in ideal])


def _reference_element_to_json(x):
    scalars = [x.body, *x.ideal]
    if any(max(abs(q.numerator), q.denominator) >= 10 ** MAX_DIGITS
           for q in scalars):
        raise ValueError(f"cannot write a scalar of over {MAX_DIGITS} digits")
    return str(scalars[0]) if len(scalars) == 1 else [str(q) for q in scalars]


def _outcome(read, *args):
    """``("ok", value)``, or ``("ValueError", message)`` if ``read``
    refuses its input."""
    try:
        return "ok", read(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def _assert_reads_as_reference(doc, ring):
    assert _outcome(element_from_json, doc, ring) == \
        _outcome(_reference_element_from_json, doc, ring)


# -- reader -------------------------------------------------------------------------

SCALAR_ROWS = [
    0, 7, -3, 10 ** 400, True, False, 1.0, 1.5, None, [], {},
    "0001/0002", "-0", "-0/5", "+1", "1/-2", " 1", "1 ", "1_0", "١",
    "1/0", "0/0", "-1/000", "", "/2", "1/", "--1", "1.5", "1e3",
    "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1),
    "-" + "7" * MAX_DIGITS, "-" + "7" * (MAX_DIGITS + 1),
    "1/" + "3" * MAX_DIGITS, "1/" + "3" * (MAX_DIGITS + 1),
    "1/" + "0" * (MAX_DIGITS + 1),
]

scalars = st.one_of(
    st.integers(), st.booleans(), st.floats(allow_nan=False), st.none(),
    st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True),
    st.text(alphabet="0123456789-+/ _.e١", max_size=8))


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("doc", SCALAR_ROWS, ids=range(len(SCALAR_ROWS)))
def test_scalar_rows_read_as_the_reference(doc, rank):
    _assert_reads_as_reference(doc, SquareZeroRing(rank))


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
def test_lists_of_each_length_read_as_the_reference(rank, length):
    """Over ring widths 1-3, a list of the wrong length is refused with
    the reference's message, and one of the right length reads alike."""
    doc = ["6/4", "-1/3", "0", "5"][:length]
    _assert_reads_as_reference(doc, SquareZeroRing(rank))


@settings(max_examples=300)
@given(st.integers(0, 2).flatmap(lambda rank: st.tuples(
    st.just(rank), st.one_of(scalars, st.lists(scalars, max_size=4)))))
def test_reader_matches_the_reference(case):
    rank, doc = case
    _assert_reads_as_reference(doc, SquareZeroRing(rank))


# -- writer -------------------------------------------------------------------------

layers = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                      max_denominator=10 ** 4)


@settings(max_examples=300)
@given(st.lists(layers, min_size=1, max_size=4))
def test_writer_matches_the_reference(qs):
    x = RingElement(qs[0], qs[1:])
    assert element_to_json(x) == _reference_element_to_json(x)


@pytest.mark.parametrize("nums, den, text", [
    ((2, 3), 6, ["1/3", "1/2"]),
    ((0,), 1, "0"),
    ((0, 0, 0), 1, ["0", "0", "0"]),
    ((-4, 0, 6), 9, ["-4/9", "0", "2/3"]),
    ((-7,), 1, "-7"),
    ((3, -5), 15, ["1/5", "-1/3"]),
])
def test_writer_rows(nums, den, text):
    x = from_layers(nums, den)
    assert element_to_json(x) == _reference_element_to_json(x) == text


@pytest.mark.parametrize("nums, den", [
    ((10 ** MAX_DIGITS - 1,), 1), ((1, -(10 ** MAX_DIGITS - 1)), 1),
    ((1, 1), 10 ** MAX_DIGITS - 1),
    ((10 ** MAX_DIGITS,), 1), ((1, -(10 ** MAX_DIGITS)), 1),
    ((1, 1), 10 ** MAX_DIGITS), ((10 ** MAX_DIGITS, 2), 3)],
    ids=["4300", "ideal_4300", "den_4300", "4301", "ideal_4301", "den_4301",
         "body_4301_over_3"])
def test_writer_digit_cap(nums, den):
    """A layer of 4300 digits is written, one of 4301 refused."""
    x = from_layers(nums, den)
    got = _outcome(element_to_json, x)
    assert got == _outcome(_reference_element_to_json, x)
    assert got[0] == ("ok" if max(map(abs, (*x.nums, x.den)))
                      < 10 ** MAX_DIGITS else "ValueError")


# -- category documents: the order of errors, and one memo per document --------------

def _comp_entry_set(three_term, entry):
    doc = category_to_json(three_term)
    doc["comps"][0][5][0] = entry
    return doc


@pytest.mark.parametrize("entry, message", [
    ([99, 0, 0, "1.5"], "comp outer index 99 is out of range"),
    ([99, 99, 99, "1.5"], "comp outer index 99 is out of range"),
    ([0, 99, 99, "1.5"], "comp inner index 99 is out of range"),
    ([0, 0, 99, "1.5"], "comp result index 99 is out of range"),
    ([True, 0, 0, "1"], "expected an integer, got True"),
    ([0, 0, 1.0, "1"], "expected an integer, got 1.0"),
    ([0, 0, 0, "1.5"], "not a rational \"p\" or \"p/q\": '1.5'"),
], ids=["index_before_scalar", "outer_first", "inner_before_result",
        "result", "bool_index", "float_index", "scalar"])
def test_comp_entry_errors_in_order(three_term, entry, message):
    """Outer, inner, then result index, then the scalar."""
    with pytest.raises(ValueError) as caught:
        category_from_json(_comp_entry_set(three_term, entry))
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("entry, message", [
    ([99, 99, "x"], "diff column 99 is out of range"),
    ([0, False, "x"], "expected an integer, got False"),
    ([0, 99, "x"], "diff row 99 is out of range"),
], ids=["column_before_row", "bool_row", "row_before_scalar"])
def test_diff_entry_errors_in_order(three_term, entry, message):
    doc = category_to_json(three_term)
    doc["diffs"][0][3][0] = entry
    with pytest.raises(ValueError) as caught:
        category_from_json(doc)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("table, slot", [
    ("diffs", 0), ("diffs", 1), ("comps", 0), ("comps", 1), ("comps", 2)])
def test_index_equal_to_the_rank_is_out_of_range(three_term, table, slot):
    """The first record's first entry with one index set to the rank of
    its hom: the first index past the end."""
    doc = category_to_json(three_term)
    ranks = {(x, y, t): r for x, y, t, r in doc["ranks"]}
    *key, entries = doc[table][0]
    if table == "diffs":
        x, y, t = key
        homs = [(x, y, t), (x, y, t + 1)]
    else:
        x, y, z, s, t = key
        homs = [(y, z, t), (x, y, s), (x, z, s + t)]
    entries[0][slot] = ranks[homs[slot]]
    with pytest.raises(ValueError, match=f"{ranks[homs[slot]]} is out of "
                                         "range"):
        category_from_json(doc)


def test_repeated_json_key_names_the_first_repeat():
    with pytest.raises(ValueError, match="a JSON object states 'a' twice"):
        json.loads('{"a": 1, "b": 2, "a": 3, "b": 4}',
                   object_pairs_hook=unique_keys)
    assert json.loads('{"a": 1, "b": 2}', object_pairs_hook=unique_keys) \
        == {"a": 1, "b": 2}


def _widths(cat):
    coords = [a for cols in cat.diffs.values() for col in cols.values()
              for _, a in col]
    coords += [a for tensor in cat.comps.values() for cells in tensor.values()
               for _, a in cells]
    coords += [a for units in cat.identities.values() for a in units]
    return {len(a.nums) for a in coords}


def test_each_document_reads_its_scalars_at_its_own_width(three_term):
    """The same scalar texts, read in a rank-0 document, then in the same
    document over the rank-2 ring, then over rank 0 again: each reader's
    memo holds its own document's elements."""
    doc = category_to_json(three_term)
    assert all(isinstance(a, str) for *_, a in doc["comps"][0][5])
    for rank in (0, 2, 0):
        cat = category_from_json(dict(doc, ring=rank))
        assert _widths(cat) == {rank + 1}
        assert cat == category_from_json(dict(doc, ring=rank))
