"""JSON document formats for categories, simplices, horns, and fillers,
and the one reader and writer of the ring elements in them.

A scalar is an exact rational: an int or a ``"p"``/``"p/q"`` string (the
writer emits strings).  A ring element is a list ``[body, ideal₁, …]`` of
ideal rank + 1 scalars, or one scalar: the body, with zero ideal part (how
elements over Q are written).  Scalars are read and written as ints, with
no ``Fraction``: a layer's ``p`` and ``q`` go straight to the element's
integer layers over their lcm, and each written layer is its numerator
over the element's denominator, cut by their gcd.  A document's reader
reads each scalar text that recurs in it once.

>>> from dgnerve.rings import SquareZeroRing
>>> x = element_from_json(["6/4", "-1/3"], SquareZeroRing(1))
>>> x.nums, x.den
((9, -2), 6)
>>> element_to_json(x)
['3/2', '-1/3']

Documents are UTF-8 text.  Structured keys (vertex sequences) are
comma-joined strings ("0,1,2").
``canonical_dumps`` fixes key order and whitespace so that equal documents
serialize to identical bytes — the CLI's determinism contract.
"""

from __future__ import annotations

import functools
import json
import re
from math import gcd, lcm
from typing import Any, Callable, Mapping

from .dgcat import DgCategory, Morphism
from .horn import Filler, HornData
from .nerve import NerveSimplex, Seq
from .rings import RingElement, SquareZeroRing, from_layers

# Caps on the sizes a document states as single integers.  The memory and
# time spent on a document grow with these numbers, not with its length: a
# ring element holds one coordinate per ideal generator, check_axioms visits
# every basis index of a hom, and an n-simplex has 2^(n+1) − n − 2 cells.
MAX_IDEAL_RANK = 8
MAX_HOM_RANK = 256
MAX_DIMENSION = 8
MAX_DIGITS = 4300        # per numerator or denominator: Python's int/str cap
_DIGIT_BOUND = 10 ** MAX_DIGITS

# A scalar's numerator and denominator and a sequence key's vertices are
# ASCII digits.  A scalar past MAX_DIGITS has a message of its own, so its
# cap is checked in code; a key's cap is in its pattern.
_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")
_VERTEX = rf"-?[0-9]{{1,{MAX_DIGITS}}}"
_SEQ_KEY = re.compile(rf"{_VERTEX}(?:,{_VERTEX})*")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _shown(value: Any, show: Callable[[Any], str] = repr) -> str:
    """``show(value)`` cut to 60 characters: an input name or value can be
    of any length, and an error message should stay one short line."""
    text = show(value)
    return text if len(text) <= 60 else text[:60] + "..."


def canonical_dumps(doc: Any) -> str:
    """Deterministic, diff-friendly JSON text (sorted keys, newline at end)."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def seq_to_key(seq: Seq) -> str:
    return ",".join(str(v) for v in seq)


def key_to_seq(key: str) -> Seq:
    """The vertices of a ``"0,1,2"`` key, each in a scalar's digits: an
    optional ``-`` and 1 to ``MAX_DIGITS`` ASCII digits, with no ``+``,
    space, underscore or other digit that ``int`` would take."""
    if not _SEQ_KEY.fullmatch(key):
        raise ValueError(f"bad sequence key {_shown(key)}")
    seq = tuple(map(int, key.split(",")))
    if len(seq) < 2 or any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"sequence key {_shown(key)} is not strictly "
                         "increasing with at least two vertices")
    if seq[0] < 0:
        raise ValueError(f"sequence key {_shown(key)} has a negative "
                         "vertex")
    return seq


def _put(table: dict, key: Any, value: Any, what: str) -> None:
    """``table[key] = value``, refusing a key the document already gave."""
    if key in table:
        raise ValueError(f"{what} states {_shown(key)} twice")
    table[key] = value


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A ``json.loads`` object hook that refuses a repeated key; only an
    object with one walks its pairs, to name the first."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        doc = {}
        for key, value in pairs:
            _put(doc, key, value, "a JSON object")
    return doc


# -- ring elements ----------------------------------------------------------------

def _scalar(s: Any) -> tuple[int, int]:
    """One scalar as ints ``(p, q)`` with ``q > 0``, not reduced: an int
    (not a bool), or ``"p"`` or ``"p/q"`` in plain decimal digits.  Any
    other value (a float, a bool, ``None``) or text (``"1.5"``,
    ``"1e999999"``, ``" 1"``), ``"1/0"``, and a numerator or denominator
    past ``MAX_DIGITS`` digits are a ValueError (``json`` itself refuses
    longer int literals)."""
    if type(s) is int:
        return s, 1
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ValueError(f"not a rational \"p\" or \"p/q\": {_shown(s)}")
    sign, p, q = match.groups()
    if len(p) > MAX_DIGITS or q is not None and len(q) > MAX_DIGITS:
        raise ValueError(f"a scalar has more than {MAX_DIGITS} digits")
    q = 1 if q is None else int(q)
    if not q:
        raise ValueError(f"zero denominator in {_shown(s)}")
    return -int(p) if sign else int(p), q


def element_to_json(x: RingElement) -> str | list[str]:
    """Canonical JSON form, each layer ``"p"`` or ``"p/q"`` in lowest
    terms: a bare string over Q, a list over larger rings; a ValueError
    past ``MAX_DIGITS``, which the reader would refuse."""
    den, texts = x.den, []
    for v in x.nums:
        g = gcd(v, den)
        p, q = v // g, den // g
        if max(abs(p), q) >= _DIGIT_BOUND:
            raise ValueError(f"cannot write a scalar of over {MAX_DIGITS} "
                             "digits")
        texts.append(f"{p}/{q}" if q != 1 else str(p))
    return texts[0] if len(texts) == 1 else texts


def element_from_json(doc: Any, ring: SquareZeroRing) -> RingElement:
    """A ring element from one scalar (its body; the ideal part is zero) or
    from a list of ``ideal_rank + 1`` scalars, body first."""
    if not isinstance(doc, list):
        p, q = _scalar(doc)
        return from_layers((p,) + (0,) * ring.ideal_rank, q)
    if len(doc) != ring.ideal_rank + 1:
        raise ValueError(f"ring element has {len(doc)} layers, expected "
                         f"{ring.ideal_rank + 1}")
    pairs = [_scalar(c) for c in doc]
    den = lcm(*[q for _, q in pairs])
    return from_layers([p * (den // q) for p, q in pairs], den)


def _reader(ring: SquareZeroRing) -> Callable[[Any], RingElement]:
    """``element_from_json`` over ``ring`` for one document, reading each
    scalar text once: the memo goes with the reader, so an element's width
    is always its own document's."""
    cached = functools.cache(lambda text: element_from_json(text, ring))
    return lambda doc: (cached(doc) if type(doc) is str
                        else element_from_json(doc, ring))


def _coords_from(doc: Any, read: Callable) -> tuple[RingElement, ...]:
    if not isinstance(doc, list):
        raise ValueError("coordinate vectors must be JSON lists")
    return tuple(map(read, doc))


def _coords_to(coords: tuple[RingElement, ...]) -> list:
    return [element_to_json(c) for c in coords]


# -- categories -----------------------------------------------------------------

def category_to_json(cat: DgCategory) -> dict:
    ranks = sorted([x, y, t, r] for (x, y, t), r in cat.ranks.items())
    diffs = []
    for (x, y, t), cols in sorted(cat.diffs.items()):
        entries = sorted([j, i, element_to_json(a)]
                         for j, col in cols.items() for i, a in col)
        diffs.append([x, y, t, entries])
    comps = []
    for (x, y, z, s, t), tensor in sorted(cat.comps.items()):
        entries = sorted([i, j, r, element_to_json(a)]
                         for (i, j), cells in tensor.items()
                         for r, a in cells)
        comps.append([x, y, z, s, t, entries])
    identities = sorted([x, _coords_to(coords)]
                        for x, coords in cat.identities.items())
    return {"kind": "category", "ring": cat.ring.ideal_rank,
            "objects": list(cat.objects), "ranks": ranks, "diffs": diffs,
            "comps": comps, "identities": identities}


def category_from_json(doc: Mapping) -> DgCategory:
    if not isinstance(doc, Mapping):
        raise ValueError("category document must be a JSON object")
    rank = doc.get("ring", 0)
    if type(rank) is not int or not 0 <= rank <= MAX_IDEAL_RANK:
        raise ValueError("\"ring\" must be a nonnegative ideal rank "
                         f"up to {MAX_IDEAL_RANK}")
    ring = SquareZeroRing(rank)
    objects = doc.get("objects")
    if (not isinstance(objects, list) or not objects
            or any(not isinstance(x, str) for x in objects)
            or len(set(objects)) != len(objects)):
        raise ValueError("\"objects\" must be a list of distinct names")
    if any(map(_SURROGATE.search, objects)):
        raise ValueError("object names must not hold lone surrogates")
    known = set(objects)

    def obj(name: Any) -> str:
        if not isinstance(name, str) or name not in known:
            raise ValueError(f"unknown object {_shown(name)}")
        return name

    def integer(value: Any) -> int:
        if type(value) is not int:
            raise ValueError(f"expected an integer, got {_shown(value)}")
        return value

    def records(value: Any, width: int, what: str) -> list:
        if not isinstance(value, list) or any(
                not isinstance(item, list) or len(item) != width
                for item in value):
            raise ValueError(f"{what} must be a list of {width}-item lists")
        return value

    def index(value: Any, hom: tuple[str, str, int], what: str) -> None:
        size = ranks.get(hom, 0)
        if not 0 <= integer(value) < size:
            x, y, t = (_shown(part, str) for part in hom)
            raise ValueError(f"{what} {_shown(value, str)} is out of range: "
                             f"hom({x}, {y}) has rank {size} in degree {t}")

    ranks = {}
    for x, y, t, r in records(doc.get("ranks", []), 4, "\"ranks\""):
        if not 0 <= integer(r) <= MAX_HOM_RANK:
            raise ValueError("ranks must be nonnegative, up to "
                             f"{MAX_HOM_RANK}")
        _put(ranks, (obj(x), obj(y), integer(t)), r, "\"ranks\"")
    # An index passes on one test against its record's hom ranks; any other
    # goes through index(), which names the first bad one.
    read = _reader(ring)
    diffs = {}
    for x, y, t, entries in records(doc.get("diffs", []), 4, "\"diffs\""):
        source, target = (obj(x), obj(y), integer(t)), (x, y, t + 1)
        cols_rank, rows_rank = ranks.get(source, 0), ranks.get(target, 0)
        cols: dict[int, dict] = {}
        for j, i, a in records(entries, 3, "diff entries"):
            if not (type(j) is type(i) is int and 0 <= j < cols_rank
                    and 0 <= i < rows_rank):
                index(j, source, "diff column")
                index(i, target, "diff row")
            cols.setdefault(j, {})[i] = read(a)
        if sum(map(len, cols.values())) != len(entries):
            raise ValueError(f"\"diffs\" record {_shown(source)} states a "
                             "(column, row) pair twice")
        _put(diffs, source, {j: tuple(v.items()) for j, v in cols.items()},
             "\"diffs\"")
    comps = {}
    for x, y, z, s, t, entries in records(doc.get("comps", []), 6,
                                          "\"comps\""):
        key = (obj(x), obj(y), obj(z), integer(s), integer(t))
        outer, inner, result = (y, z, t), (x, y, s), (x, z, s + t)
        n_outer, n_inner, n_result = (ranks.get(hom, 0)
                                      for hom in (outer, inner, result))
        tensor: dict[tuple[int, int], dict] = {}
        for i, j, r, a in records(entries, 4, "comp entries"):
            if not (type(i) is type(j) is type(r) is int and 0 <= i < n_outer
                    and 0 <= j < n_inner and 0 <= r < n_result):
                index(i, outer, "comp outer index")
                index(j, inner, "comp inner index")
                index(r, result, "comp result index")
            tensor.setdefault((i, j), {})[r] = read(a)
        if sum(map(len, tensor.values())) != len(entries):
            raise ValueError(f"\"comps\" record {_shown(key)} states an "
                             "(outer, inner, result) triple twice")
        _put(comps, key, {p: tuple(v.items()) for p, v in tensor.items()},
             "\"comps\"")
    identities = {}
    for x, coords in records(doc.get("identities", []), 2, "\"identities\""):
        units = _coords_from(coords, read)
        _put(identities, obj(x), units, "\"identities\"")
        if len(units) != ranks.get((x, x, 0), 0):
            name = _shown(x, str)
            raise ValueError(f"unit of {name} has {len(units)} coordinates: "
                             f"hom({name}, {name}) has rank "
                             f"{ranks.get((x, x, 0), 0)} in degree 0")
    missing = sorted(known - set(identities))
    if missing:
        raise ValueError(f"objects without identities: {_shown(missing)}")
    return DgCategory(ring=ring, objects=tuple(objects), ranks=ranks,
                      diffs=diffs, comps=comps, identities=identities)


# -- simplices, horns, fillers -----------------------------------------------------

def _cells_to_json(cells: Mapping[Seq, Morphism]) -> dict:
    return {seq_to_key(seq): _coords_to(cell.coords)
            for seq, cell in sorted(cells.items())}


def _cells_from_json(doc: Any, cat: DgCategory,
                     objects: tuple[str, ...]) -> dict[Seq, Morphism]:
    if not isinstance(doc, Mapping):
        raise ValueError("\"cells\" must be a JSON object")
    n = len(objects) - 1
    read = _reader(cat.ring)
    cells = {}
    for key, coords_doc in doc.items():
        seq = key_to_seq(key)
        if seq[-1] > n:
            raise ValueError(f"cell key {_shown(key)} exceeds dimension {n}")
        degree = 1 - (len(seq) - 1)
        source, target = objects[seq[0]], objects[seq[-1]]
        coords = _coords_from(coords_doc, read)
        if len(coords) != cat.rank(source, target, degree):
            raise ValueError(
                f"cell {_shown(key)} has {len(coords)} coordinates; hom("
                f"{_shown(source, str)}, {_shown(target, str)}) has rank "
                f"{cat.rank(source, target, degree)} in degree {degree}")
        _put(cells, seq, Morphism(source, target, degree, coords),
             "\"cells\"")
    return cells


def _objects_from(doc: Mapping, cat: DgCategory, n: int) -> tuple[str, ...]:
    objects = doc.get("objects")
    if (not isinstance(objects, list) or len(objects) != n + 1
            or any(not isinstance(x, str) or x not in cat.identities
                   for x in objects)):
        raise ValueError("\"objects\" must list n+1 object names from the "
                         "category")
    return tuple(objects)


def _dimension_from(doc: Mapping) -> int:
    n = doc.get("n")
    if type(n) is not int or not 0 <= n <= MAX_DIMENSION:
        raise ValueError("\"n\" must be a nonnegative integer up to "
                         f"{MAX_DIMENSION}")
    return n


def simplex_to_json(simplex: NerveSimplex) -> dict:
    return {"kind": "simplex", "n": simplex.n,
            "objects": list(simplex.objects),
            "cells": _cells_to_json(simplex.cells)}


def simplex_from_json(doc: Mapping, cat: DgCategory) -> NerveSimplex:
    n = _dimension_from(doc)
    objects = _objects_from(doc, cat, n)
    return NerveSimplex(objects, _cells_from_json(doc.get("cells", {}),
                                                  cat, objects))


def horn_to_json(horn: HornData) -> dict:
    return {"kind": "horn", "n": horn.n, "k": horn.k,
            "objects": list(horn.objects),
            "missing": [seq_to_key(s) for s in horn.missing],
            "cells": _cells_to_json(horn.cells)}


def _horn_data(doc: Mapping, cat: DgCategory) -> HornData:
    """The n, k, objects and cells that horn and filler documents share."""
    n = _dimension_from(doc)
    k = doc.get("k")
    if type(k) is not int or not 0 <= k <= n:
        raise ValueError("\"k\" must be an integer with 0 <= k <= n")
    objects = _objects_from(doc, cat, n)
    return HornData(n, k, objects,
                    _cells_from_json(doc.get("cells", {}), cat, objects))


def horn_from_json(doc: Mapping, cat: DgCategory) -> HornData:
    horn = _horn_data(doc, cat)
    declared = doc.get("missing")
    expected = [seq_to_key(s) for s in horn.missing]
    if declared not in (None, expected):
        raise ValueError(f"\"missing\" is {_shown(declared, str)}, but an "
                         f"(n={horn.n}, k={horn.k}) horn omits {expected}")
    return horn


def filler_to_json(filler: Filler, objects: tuple[str, ...]) -> dict:
    horn = HornData(filler.n, filler.k, objects, {})
    cells = {horn.missing_face: filler.face, horn.full_seq: filler.top}
    return {"kind": "filler", "n": filler.n, "k": filler.k,
            "objects": list(objects), "cells": _cells_to_json(cells)}


def filler_from_json(doc: Mapping, cat: DgCategory) -> Filler:
    shape = _horn_data(doc, cat)
    if set(shape.cells) != set(shape.missing):
        want = " and ".join(sorted(map(seq_to_key, shape.missing)))
        raise ValueError(f"filler must provide exactly the cells {want}")
    return Filler(shape.n, shape.k, top=shape.cells[shape.full_seq],
                  face=shape.cells[shape.missing_face])


def mc_to_json(eta: Morphism) -> dict:
    return {"kind": "mc", "object": eta.source, "eta": _coords_to(eta.coords)}


def mc_from_json(doc: Mapping, cat: DgCategory) -> Morphism:
    obj = doc.get("object")
    if not isinstance(obj, str) or obj not in cat.identities:
        raise ValueError(f"unknown object {_shown(obj)}")
    coords = _coords_from(doc.get("eta", []), _reader(cat.ring))
    if len(coords) != cat.rank(obj, obj, 1):
        raise ValueError("\"eta\" has the wrong number of coordinates")
    return Morphism(obj, obj, 1, coords)


DOCUMENT_KINDS = ("category", "simplex", "horn", "filler", "mc")


def detect_kind(doc: Mapping) -> str:
    """The declared or structurally inferred document kind."""
    kind = doc.get("kind")
    if kind is not None:
        if kind not in DOCUMENT_KINDS:
            raise ValueError(f"unknown document kind {_shown(kind)}")
        return kind
    if "ranks" in doc or "comps" in doc:
        return "category"
    if "missing" in doc:
        return "horn"
    if "eta" in doc:
        return "mc"
    if "cells" in doc:
        return "simplex"
    raise ValueError("cannot infer document kind; add a \"kind\" field")
