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

import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

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
                         f"got {value!r}")
    parts = value.split("/")
    if len(parts) != 2:
        raise ParseError(f"{what}: malformed rational {value!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"{what}: malformed rational {value!r}") from exc
    # int() also reads '+', '-0', spaces, leading zeros, '_' and non-ASCII
    # digits; only the spelling str() gives back is canonical
    if parts != [str(num), str(den)]:
        raise ParseError(f"{what}: malformed rational {value!r}")
    if den <= 0:
        raise ParseError(f"{what}: denominator must be positive in {value!r}")
    if math.gcd(abs(num), den) != 1:
        raise ParseError(f"{what}: non-canonical rational {value!r} "
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


def parse_instance(text: str) -> Instance:
    """Read an instance document; ``make_instance`` validates its structure."""
    doc = _expect_keys(_load(text), {"q", "vertices", "predicates", "edges"},
                       "instance", {"meta"})
    q = _typed(doc["q"], int, "q")

    ids, weights = [], []
    for i, v in enumerate(_typed(doc["vertices"], list, "vertices")):
        _expect_keys(v, {"id", "weight"}, f"vertex #{i}")
        ids.append(_typed(v["id"], str, f"vertex #{i}: id"))
        weights.append(parse_rational(v["weight"], f"weight of {v['id']}"))

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
    vertices, sizes, preds = [], [], []
    for i, e in enumerate(_typed(doc["edges"], list, "edges")):
        try:
            vids = e["vertices"]
            # the checks below name the fault; a string would iterate as ids
            if e.keys() != _EDGE_KEYS or type(vids) is not list:
                raise TypeError
            vertices.extend([index_of[vid] for vid in vids])
            preds.append(by_name[e["predicate"]])
        except (KeyError, TypeError):
            _expect_keys(e, _EDGE_KEYS, f"edge #{i}")
            raise _edge_error(f"edge #{i}", e, index_of, by_name) from None
        sizes.append(len(vids))
    return _validated(make_instance, q, weights, predicates,
                      EdgeRows.from_flat(vertices, sizes, preds), ids)


def _edge_error(what: str, e: dict, index_of: dict, by_name: dict):
    """The first unreadable or unknown reference of an edge."""
    name = _typed(e["predicate"], str, f"{what}: predicate")
    if name not in by_name:
        return ParseError(f"{what}: unknown predicate name {name!r}")
    vids = _typed(e["vertices"], list, f"{what}: vertices")
    vid = next(vid for vid in vids
               if _typed(vid, str, f"{what}: vertex id") not in index_of)
    return ParseError(f"{what}: unknown vertex id {vid!r}")


def _top_list(items: list) -> str:
    """A top-level ``indent=2`` JSON array of already-laid-out items."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def serialize_instance(inst: Instance) -> str:
    """The text ``json.dumps(doc, indent=2)`` prints, laid out directly.

    Each vertex id and predicate name is encoded once with ``json.dumps``
    and reused in every edge.  The few predicates go through
    ``json.dumps`` itself, shifted one level in; that is exact because a
    JSON string never holds a raw newline.  An edge's text is one piece
    per vertex slot and one for its predicate (``_edge_texts``).
    """
    ids = [json.dumps(vid) for vid in inst.vertex_ids]
    names = [json.dumps(p.name) for p in inst.predicates]
    vertices = [f'    {{\n      "id": {vid},\n      "weight": '
                f'"{w.numerator}/{w.denominator}"\n    }}'
                for vid, w in zip(ids, inst.weights)]
    predicates = [
        "    " + json.dumps({"name": p.name, "arity": p.arity,
                             "minimal": [list(m) for m in sorted(p.minimal)]},
                            indent=2).replace("\n", "\n    ")
        for p in inst.predicates]
    edges = _edge_texts(inst.edges, ids, names)
    return (f'{{\n  "q": {json.dumps(inst.q)},\n'
            f'  "vertices": {_top_list(vertices)},\n'
            f'  "predicates": {_top_list(predicates)},\n'
            f'  "edges": {_top_list(edges)}\n}}\n')


def _edge_texts(edges: EdgeRows, ids: list, names: list) -> list:
    """The laid-out text of each edge, gathered by numpy indexing.

    An edge's text is one piece per vertex slot (``EdgeRows.slots``) and
    one for its predicate.  Piece 0 opens the edge with its first vertex,
    piece j adds vertex j, and the last piece closes the edge with its
    predicate name, without ``]`` when the edge has no vertices.  A slot
    past the edge's size is filled with ``len(ids)``, which reads ``[]``
    in slot 0 and the empty text after it.
    """
    slots = edges.slots(len(ids))
    opening = np.array(['    {\n      "vertices": [\n        ' + vid
                        for vid in ids] + ['    {\n      "vertices": []'],
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
    return list(map("".join, pieces.tolist()))


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
