"""JSON file formats.

Instance document::

    {
      "q": 2,
      "vertices":   [{"id": "u", "weight": "1/2"}, ...],
      "predicates": [{"name": "cover2", "arity": 2, "minimal": [[0,1],[1,0]]}],
      "edges":      [{"vertices": ["u","v"], "predicate": "cover2"}]
    }

Unique-games document::

    {
      "r": 3,
      "left":  ["a", "b"],
      "right": ["x"],
      "edges": [{"u": "a", "v": "x", "weight": "1/2", "pi": [2, 1, 3]}]
    }

Rationals are strings ``"num/den"`` in lowest terms with a positive
denominator, each part spelled as ``str`` prints the integer (no ``+``,
``-0``, spaces, leading zeros, ``_`` or non-ASCII digits); plain JSON
integers are accepted as shorthand for ``n/1``.
Permutations are written 1-indexed on the wire (``pi[j]`` is the image
of ``j``) and converted to 0-based tuples internally.  Serialization is
canonical, so parse -> serialize -> parse is a fixed point.  A top-level
``"meta"`` key is tolerated and ignored in both documents.

The parsers read JSON types (a bool is never an integer), check key
sets, parse rationals and resolve ids to indices.  Every structural
rule, such as the alphabet range, arities, unique ids, weight sums and
bijections, belongs to the model's validators; their complaints are
re-raised as ``ParseError``.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Sequence

import numpy as np

from .caps import clip
from .model import (EdgeRows, Instance, Point, Predicate, check_solution,
                    make_instance, validate_assignment)
from .unique_games import UgInstance


class ParseError(ValueError):
    """A document violates the file format."""


def parse_rational(value, what: str = "value") -> Fraction:
    if type(value) is int:  # not a bool
        return Fraction(value)
    if type(value) is not str:
        raise ParseError(f"{what}: expected 'num/den' string or integer, "
                         f"got {clip(repr(value))}")
    parts = value.split("/")
    if len(parts) != 2:
        raise ParseError(f"{what}: malformed rational {clip(value)!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        for digits in (part.removeprefix("-") for part in parts):
            if (0 < limit < len(digits) and digits.isascii()
                    and digits.isdigit()):
                raise ParseError(
                    f"{what}: rational {clip(value)!r} has a part of "
                    f"{len(digits)} digits, past the {limit}-digit limit of "
                    "Python's int") from exc
        raise ParseError(
            f"{what}: malformed rational {clip(value)!r}") from exc
    # int() also reads '+', '-0', spaces, leading zeros, '_' and non-ASCII
    # digits; only the spelling str() gives back is canonical
    if parts != [str(num), str(den)]:
        raise ParseError(f"{what}: malformed rational {clip(value)!r}")
    if den <= 0:
        raise ParseError(f"{what}: denominator must be positive in "
                         f"{clip(value)!r}")
    if math.gcd(abs(num), den) != 1:
        raise ParseError(f"{what}: non-canonical rational {clip(value)!r} "
                         "(must be in lowest terms)")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def to_json(value):
    """``value`` as JSON data, each ``Fraction`` as its ``num/den`` string:
    the one writer of exact values into a JSON document."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer",
               str: "a string", float: "a number", bool: "a boolean",
               type(None): "null"}


def _typed(value, kind: type, what: str):
    """``value`` if its JSON type is ``kind``; a bool is not an integer."""
    if type(value) is not kind:
        raise ParseError(f"{what}: expected {_JSON_TYPES[kind]}, "
                         f"got {_JSON_TYPES[type(value)]}")
    return value


def _expect_keys(obj, required: set, what: str,
                 optional: frozenset = frozenset()) -> dict:
    """``obj`` as an object with every required key and no unknown one."""
    if type(obj) is dict and obj.keys() == required:
        return obj
    keys = _typed(obj, dict, what).keys()
    missing = required - keys
    if missing:
        raise ParseError(f"{what}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ParseError(f"{what}: unknown keys {sorted(unknown)}")
    return obj


def _collector_paused(fn):
    """``fn`` run with the cyclic garbage collector off.

    A large document is read into, or written from, tens of thousands
    of fresh containers, so the collector would otherwise walk them
    many times per call.  A collection could free nothing there: JSON
    values are trees, the reader's passes build flat lists of strings and
    ints, and the writer builds lists of strings, so none of it forms a
    reference cycle.  ``gc.disable`` acts on the whole process, which the
    package may do because it runs on one thread.  If the collector is
    already off, from a caller or an enclosing paused call, it is left
    off.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@_collector_paused
def _load(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _validated(check, *args):
    """Run a model validator; its ``ValueError`` becomes a ``ParseError``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

_EDGE_KEYS = frozenset({"vertices", "predicate"})
_VERTEX_KEYS = frozenset({"id", "weight"})


@_collector_paused
def parse_instance(text: str) -> Instance:
    """Read an instance document; ``make_instance`` validates its structure.

    The vertex and edge tables are read in whole-list passes.  A dict of
    length 2 that holds both keys holds exactly them, so one length pass
    and two key lookups check every key set.  When a pass raises
    ``KeyError`` or ``TypeError``, the table is reread item by item from
    the start, which raises the message for its first fault.
    """
    doc = _expect_keys(_load(text), {"q", "vertices", "predicates", "edges"},
                       "instance", {"meta"})
    q = _typed(doc["q"], int, "q")

    table = _typed(doc["vertices"], list, "vertices")
    try:
        if set(map(len, table)) - {2}:
            raise TypeError
        ids = list(map(itemgetter("id"), table))
        raw = list(map(itemgetter("weight"), table))
        if set(map(type, ids)) - {str}:
            raise TypeError
    except (KeyError, TypeError):
        for i, v in enumerate(table):
            _expect_keys(v, _VERTEX_KEYS, f"vertex #{i}")
            _typed(v["id"], str, f"vertex #{i}: id")
            parse_rational(v["weight"], f"weight of {v['id']}")
        raise
    weights = [parse_rational(w, f"weight of {vid}")
               for vid, w in zip(ids, raw)]

    predicates = []
    for i, p in enumerate(_typed(doc["predicates"], list, "predicates")):
        what = f"predicate #{i}"
        _expect_keys(p, {"name", "arity", "minimal"}, what)
        minimal = {tuple([_typed(a, int, f"{what}: label") for a in
                          _typed(m, list, f"{what}: minimal element")])
                   for m in _typed(p["minimal"], list, f"{what}: minimal")}
        predicates.append(Predicate(_typed(p["name"], str, f"{what}: name"),
                                    _typed(p["arity"], int, f"{what}: arity"),
                                    q, tuple(sorted(minimal))))

    index_of = {vid: i for i, vid in enumerate(ids)}
    by_name = {p.name: i for i, p in enumerate(predicates)}
    edges = _typed(doc["edges"], list, "edges")
    try:
        if set(map(len, edges)) - {2}:
            raise TypeError
        vid_lists = list(map(itemgetter("vertices"), edges))
        names = list(map(itemgetter("predicate"), edges))
        # a string would iterate as ids
        if set(map(type, vid_lists)) - {list}:
            raise TypeError
        sizes = list(map(len, vid_lists))
        vertices = list(map(index_of.__getitem__,
                            itertools.chain.from_iterable(vid_lists)))
        preds = list(map(by_name.__getitem__, names))
    except (KeyError, TypeError):
        for i, e in enumerate(edges):
            _check_edge(f"edge #{i}", e, index_of, by_name)
        raise
    return _validated(make_instance, q, weights, predicates,
                      EdgeRows.from_flat(vertices, sizes, preds), ids)


def _check_edge(what: str, e, index_of: dict, by_name: dict) -> None:
    """Raise for the first unreadable or unknown part of an edge."""
    _expect_keys(e, _EDGE_KEYS, what)
    name = _typed(e["predicate"], str, f"{what}: predicate")
    if name not in by_name:
        raise ParseError(f"{what}: unknown predicate name {name!r}")
    for vid in _typed(e["vertices"], list, f"{what}: vertices"):
        if _typed(vid, str, f"{what}: vertex id") not in index_of:
            raise ParseError(f"{what}: unknown vertex id {vid!r}")


def _array(items: list, indent: int) -> str:
    """An ``indent=2`` JSON array of items laid out with their leading
    spaces, closed ``indent`` spaces in."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


@_collector_paused
def serialize_instance(inst: Instance) -> str:
    """The text ``json.dumps(doc, indent=2)`` prints, laid out directly.

    Each vertex id and predicate name is encoded once, by the C string
    encoder ``json.dumps`` ends in, and reused in every edge; each label
    and arity is encoded with ``json.dumps``.  Nothing goes through
    ``json.dumps(..., indent=2)``, whose encoder closures make a
    reference cycle on every call.  The edges array is one join over
    pieces gathered by numpy indexing, one per vertex slot and one per
    predicate, with each separator folded into the piece after it
    (``_edges_text``).
    """
    ids = list(map(encode_basestring_ascii, inst.vertex_ids))
    names = [encode_basestring_ascii(p.name) for p in inst.predicates]
    vertices = [f'    {{\n      "id": {vid},\n      "weight": '
                f'"{w.numerator}/{w.denominator}"\n    }}'
                for vid, w in zip(ids, inst.weights)]
    predicates = list(map(_predicate_text, names, inst.predicates))
    return (f'{{\n  "q": {json.dumps(inst.q)},\n'
            f'  "vertices": {_array(vertices, 2)},\n'
            f'  "predicates": {_array(predicates, 2)},\n'
            f'  "edges": {_edges_text(inst.edges, ids, names)}\n}}\n')


def _predicate_text(name: str, p: Predicate) -> str:
    """The laid-out text of a predicate whose encoded name is ``name``."""
    minimal = ["        " + _array([f"          {json.dumps(a)}" for a in m], 8)
               for m in sorted(p.minimal)]
    return (f'    {{\n      "name": {name},\n'
            f'      "arity": {json.dumps(p.arity)},\n'
            f'      "minimal": {_array(minimal, 6)}\n    }}')


def _edges_text(edges: EdgeRows, ids: list, names: list) -> str:
    """The laid-out edges array, one join over pieces gathered by numpy
    indexing.

    An edge's text is one piece per vertex slot (``EdgeRows.slots``) and
    one for its predicate.  Piece 0 opens the edge, after the ``,\\n``
    that separates it from the edge before, with its first vertex; piece
    j adds vertex j, and the last piece closes the edge with its
    predicate name, without ``]`` when the edge has no vertices.  A slot
    past the edge's size is filled with ``len(ids)``, which reads ``[]``
    in slot 0 and the empty text after it.  The first edge's opening
    piece loses its separator.
    """
    if not len(edges):
        return "[]"
    slots = edges.slots(len(ids))
    opening = np.array([',\n    {\n      "vertices": [\n        ' + vid
                        for vid in ids] + [',\n    {\n      "vertices": []'],
                       dtype=object)
    later = np.array([",\n        " + vid for vid in ids] + [""],
                     dtype=object)
    # closing[0, p] after vertices, closing[1, p] after none
    closing = np.array([['\n      ],\n      "predicate": ' + name + "\n    }"
                         for name in names],
                        [',\n      "predicate": ' + name + "\n    }"
                         for name in names]], dtype=object)
    pieces = np.empty((len(slots), slots.shape[1] + 1), dtype=object)
    pieces[:, 0] = opening[slots[:, 0]]
    pieces[:, 1:-1] = later[slots[:, 1:]]
    pieces[:, -1] = closing[(edges.sizes == 0).astype(np.int64),
                            edges.predicate_indices]
    pieces[0, 0] = pieces[0, 0][2:]
    return "[\n" + "".join(pieces.ravel().tolist()) + "\n  ]"


# ---------------------------------------------------------------------------
# fractional solutions and assignments
# ---------------------------------------------------------------------------

def _vertex_table(doc: dict, key: str, inst: Instance, what: str) -> list:
    """Values of the object ``doc[key]``, keyed by exactly the vertex ids."""
    table = _expect_keys(doc[key], set(inst.vertex_ids), f"{what}: {key!r}")
    return [table[vid] for vid in inst.vertex_ids]


def parse_solution(text: str, inst: Instance) -> list:
    """Fractional solution document ``{"x": {vertex-id: value}}``.

    Values are rationals for ``q == 2`` and length-q rational arrays
    otherwise; ``check_solution`` checks their shape.
    """
    doc = _expect_keys(_load(text), {"x"}, "solution", {"meta"})
    raw = _vertex_table(doc, "x", inst, "solution")
    if inst.q == 2:
        x = [parse_rational(a, f"x[{vid}]")
             for vid, a in zip(inst.vertex_ids, raw)]
    else:
        x = [tuple(parse_rational(a, f"x[{vid}]")
                   for a in _typed(pt, list, f"x[{vid}]"))
             for vid, pt in zip(inst.vertex_ids, raw)]
    _validated(check_solution, inst, x)
    return x


def serialize_solution(inst: Instance, x: Sequence[Point]) -> str:
    table = to_json(dict(zip(inst.vertex_ids, x)))
    return json.dumps({"x": table}, indent=2) + "\n"


def parse_assignment(text: str, inst: Instance) -> tuple:
    """Assignment document ``{"labels": {vertex-id: label}}``."""
    doc = _expect_keys(_load(text), {"labels"}, "assignment", {"meta"})
    labels = tuple(_typed(a, int, f"label of {vid}") for vid, a in
                   zip(inst.vertex_ids,
                       _vertex_table(doc, "labels", inst, "assignment")))
    _validated(validate_assignment, inst, labels)
    return labels


def serialize_assignment(inst: Instance, labels: Sequence[int]) -> str:
    table = {vid: int(a) for vid, a in zip(inst.vertex_ids, labels)}
    return json.dumps({"labels": table}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# unique games
# ---------------------------------------------------------------------------

def parse_ug(text: str) -> UgInstance:
    """Read a game document; ``validate_ug`` checks its structure."""
    doc = _expect_keys(_load(text), {"r", "left", "right", "edges"},
                       "unique game", {"meta"})
    r = _typed(doc["r"], int, "r")
    left = [_typed(vid, str, "left id")
            for vid in _typed(doc["left"], list, "left")]
    right = [_typed(vid, str, "right id")
             for vid in _typed(doc["right"], list, "right")]
    left_of = {vid: i for i, vid in enumerate(left)}
    right_of = {vid: i for i, vid in enumerate(right)}
    edges = []
    for i, e in enumerate(_typed(doc["edges"], list, "edges")):
        what = f"ug edge #{i}"
        _expect_keys(e, {"u", "v", "weight", "pi"}, what)
        u = _typed(e["u"], str, f"{what}: u")
        if u not in left_of:
            raise ParseError(f"{what}: unknown left id {u!r}")
        v = _typed(e["v"], str, f"{what}: v")
        if v not in right_of:
            raise ParseError(f"{what}: unknown right id {v!r}")
        wt = parse_rational(e["weight"], f"{what} weight")
        perm = tuple(_typed(a, int, f"{what}: pi entry") - 1
                     for a in _typed(e["pi"], list, f"{what}: pi"))
        edges.append((left_of[u], right_of[v], wt, perm))
    ug = UgInstance(r, tuple(left), tuple(right), tuple(edges))
    if ug.problems:
        raise ParseError("invalid unique game: " + "; ".join(ug.problems))
    return ug


def serialize_ug(ug: UgInstance) -> str:
    doc = {
        "r": ug.r,
        "left": list(ug.left),
        "right": list(ug.right),
        "edges": [
            {"u": ug.left[u], "v": ug.right[v],
             "weight": format_rational(wt),
             "pi": [a + 1 for a in perm]}
            for (u, v, wt, perm) in ug.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
