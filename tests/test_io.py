"""File formats: round trips, canonical form, and rejection catalog."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from smcsp import io
from smcsp.model import (Edge, Instance, Predicate, covering_predicate,
                         make_instance)
from smcsp.randgen import (random_game, random_instance, ternary_chain,
                           twisted_cycle, vc_edge)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_parse_rational_accepts_integers_and_strings():
    assert io.parse_rational(3) == 3
    assert io.parse_rational("2/5") == F(2, 5)
    assert io.parse_rational("-1/2") == F(-1, 2)


@pytest.mark.parametrize("bad", ["2/4", "1/0", "1/-2", "0.5", "x/y", "1/2/3",
                                 True, 1.5, None,
                                 # spellings that int() forgives
                                 " 1/2", "1/2 ", "+1/2", "01/2", "1/02",
                                 "-0/1", "\u0661/\u0662", "1_0/3"])
def test_parse_rational_rejects_noncanonical(bad):
    with pytest.raises(io.ParseError):
        io.parse_rational(bad)


def test_format_parse_rational_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        v = F(rng.randint(-30, 30), rng.randint(1, 30))
        assert io.parse_rational(io.format_rational(v)) == v


# ---------------------------------------------------------------------------
# instance round trips
# ---------------------------------------------------------------------------

def test_instance_round_trip_random():
    rng = random.Random(17)
    for _ in range(20):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 5),
                               rng.randint(1, 4))
        text = io.serialize_instance(inst)
        back = io.parse_instance(text)
        assert back == inst
        assert io.serialize_instance(back) == text


def test_fixture_files_parse():
    for name in ["vc_edge", "hvc3", "hvc4", "triangle", "ternary_chain"]:
        text = (FIXTURES / f"{name}.json").read_text()
        inst = io.parse_instance(text)
        assert io.serialize_instance(inst) == text


# quotes, backslashes, control characters and non-ASCII text
_AWKWARD = st.text(st.sampled_from(['a', 'Z', '"', '\\', '/', '\n', '\t',
                                    '\x00', '\x1f', '\x7f', 'é', 'λ',
                                    '\u2028', '\U0001f600']),
                   min_size=1, max_size=4)


def _antichain(tuples: list) -> tuple:
    """The minimal elements of a nonempty set of label tuples."""
    return tuple(sorted(
        t for t in set(tuples)
        if not any(s != t and all(a <= b for a, b in zip(s, t))
                   for s in tuples)))


@st.composite
def awkward_instances(draw):
    q = draw(st.sampled_from([2, 3]))
    ids = draw(st.lists(_AWKWARD, min_size=1, max_size=5, unique=True))
    raw = draw(st.lists(st.integers(0, 4), min_size=len(ids),
                        max_size=len(ids)).filter(any))
    weights = [F(w, sum(raw)) for w in raw]
    names = draw(st.lists(_AWKWARD, min_size=1, max_size=3, unique=True))
    predicates = []
    for name in names:
        arity = draw(st.integers(1, 3))
        label = st.tuples(*[st.integers(0, q - 1)] * arity)
        minimal = _antichain(draw(st.lists(label, min_size=1, max_size=4)))
        predicates.append(Predicate(name, arity, q, minimal))
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        p = draw(st.integers(0, len(predicates) - 1))
        verts = draw(st.lists(st.integers(0, len(ids) - 1),
                              min_size=predicates[p].arity,
                              max_size=predicates[p].arity))
        edges.append((verts, p))
    return make_instance(q, weights, predicates, edges, ids)


# mixed arities, a vertex repeated inside an edge, a repeated edge
_REPEATS = make_instance(
    2, [F(1, 2)] * 2,
    [covering_predicate(2), covering_predicate(3), covering_predicate(1)],
    [((0, 0), 0), ((1, 0, 1), 1), ((0,), 2), ((0, 0), 0)], ["u", "v"])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(awkward_instances())
@example(_REPEATS)
@example(make_instance(2, [F(1)], [covering_predicate(2)], [], ["u"]))
def test_serializer_matches_json_dumps(inst):
    text = io.serialize_instance(inst)
    assert text == oracles.serialize_instance_dumps(inst)
    back = io.parse_instance(text)
    assert back == inst and hash(back) == hash(inst)
    assert io.serialize_instance(back) == text
    # the rows read back give the same Edge views, of plain ints
    pairs = [(list(vs), p) for vs, p in inst.edges]
    for e, (vs, p) in zip(back.edges, pairs):
        assert type(e) is Edge and e == (tuple(vs), p)
        assert all(type(a) is int for a in (*e.vertices, e.predicate))
    # equality reads the rows: rebuilt is equal, one edge changed is not
    assert make_instance(inst.q, inst.weights, inst.predicates, pairs,
                         inst.vertex_ids) == inst
    if pairs:
        vs, p = pairs[-1]
        for changed in [(vs, p + 1), (vs + [0], p), (vs[:-1], p)]:
            other = Instance(inst.q, inst.vertex_ids, inst.weights,
                             inst.predicates, pairs[:-1] + [changed])
            assert other != inst


def test_serializer_matches_json_dumps_on_edge_shapes():
    pair = Predicate('p"\\\n\u00e9', 2, 2, ((0, 1), (1, 0)))
    inst = make_instance(2, [F(1, 3), F(2, 3)], [pair],
                         [((1, 1), 0), ((0, 1), 0), ((1, 1), 0)],
                         ["\x00", "\U0001f600"])
    text = io.serialize_instance(inst)
    assert text == oracles.serialize_instance_dumps(inst)
    assert io.parse_instance(text) == inst
    # shapes no valid instance has: empty lists print as []
    for bare in [Instance(2, (), (), (), ()),
                 Instance(3, ("u",), (F(1),), (), ()),
                 Instance(2, ("u",), (F(1),), (pair,), (Edge((), 0),))]:
        assert io.serialize_instance(bare) == \
            oracles.serialize_instance_dumps(bare)


def test_serializer_matches_json_dumps_on_every_fixture():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        if "predicates" not in json.loads(text):
            continue
        inst = io.parse_instance(text)
        assert io.serialize_instance(inst) == text
        assert oracles.serialize_instance_dumps(inst) == text


def test_meta_key_is_tolerated():
    doc = json.loads(io.serialize_instance(vc_edge()))
    doc["meta"] = {"note": "anything"}
    io.parse_instance(json.dumps(doc))


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("q"), "missing"),
    (lambda d: d.update(extra=1), "unknown"),
    (lambda d: d["vertices"].append({"id": "u", "weight": "1/2"}),
     "duplicate"),
    (lambda d: d["edges"].append(
        {"vertices": ["u", "zz"], "predicate": d["predicates"][0]["name"]}),
     "unknown vertex"),
    (lambda d: d["edges"].append(
        {"vertices": ["u"], "predicate": d["predicates"][0]["name"]}),
     "arity"),
    (lambda d: d["predicates"][0]["minimal"].append([0, 9]), "alphabet"),
    (lambda d: d["vertices"][0].update(weight="2/4"), "canonical"),
])
def test_instance_rejection_catalog(mutate, fragment):
    doc = json.loads(io.serialize_instance(vc_edge()))
    mutate(doc)
    with pytest.raises(io.ParseError, match=fragment):
        io.parse_instance(json.dumps(doc))


@pytest.mark.parametrize("edge,message", [
    (["u", "v"], "edge #1: expected an object, got an array"),
    ({"vertices": ["u", "v"]}, "edge #1: missing keys ['predicate']"),
    ({"predicate": "cover2"}, "edge #1: missing keys ['vertices']"),
    ({"vertices": ["u", "v"], "predicate": "cover2", "w": 1},
     "edge #1: unknown keys ['w']"),
    ({"vertices": "uv", "predicate": "cover2"},
     "edge #1: vertices: expected an array, got a string"),
    ({"vertices": ["u", ["v"]], "predicate": "cover2"},
     "edge #1: vertex id: expected a string, got an array"),
    ({"vertices": ["u", "w"], "predicate": "cover2"},
     "edge #1: unknown vertex id 'w'"),
    ({"vertices": ["u", "v"], "predicate": "cover3"},
     "edge #1: unknown predicate name 'cover3'"),
    ({"vertices": ["u", "v"], "predicate": ["cover2"]},
     "edge #1: predicate: expected a string, got an array"),
])
def test_edge_messages_pinned(edge, message):
    doc = json.loads(io.serialize_instance(vc_edge()))
    doc["edges"].append(edge)
    with pytest.raises(io.ParseError) as info:
        io.parse_instance(json.dumps(doc))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# solutions and assignments
# ---------------------------------------------------------------------------

def test_solution_round_trip_binary_and_ternary():
    inst2 = vc_edge()
    x2 = [F(1, 3), F(2, 3)]
    assert io.parse_solution(io.serialize_solution(inst2, x2), inst2) == x2

    inst3 = ternary_chain()
    x3 = [(F(1, 2), F(1, 4), F(1, 4)), (0, F(1), 0), (F(1, 3), F(1, 3),
                                                      F(1, 3))]
    got = io.parse_solution(io.serialize_solution(inst3, x3), inst3)
    assert got == [tuple(F(a) for a in pt) for pt in x3]


def test_solution_requires_every_vertex():
    inst = vc_edge()
    with pytest.raises(io.ParseError, match="missing"):
        io.parse_solution('{"x": {"u": "1/2"}}', inst)
    with pytest.raises(io.ParseError, match="unknown"):
        io.parse_solution('{"x": {"u": "1/2", "v": "1/2", "w": "1/2"}}',
                          inst)


def test_assignment_round_trip_and_range_check():
    inst = ternary_chain()
    labels = (2, 0, 1)
    text = io.serialize_assignment(inst, labels)
    assert io.parse_assignment(text, inst) == labels
    with pytest.raises(io.ParseError, match="label"):
        io.parse_assignment('{"labels": {"a": 3, "b": 0, "c": 0}}', inst)


# ---------------------------------------------------------------------------
# unique games
# ---------------------------------------------------------------------------

def test_ug_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        ug, _ = random_game(rng, rng.randint(1, 3), rng.randint(1, 3),
                            rng.randint(1, 3))
        text = io.serialize_ug(ug)
        back = io.parse_ug(text)
        assert back == ug
        assert io.serialize_ug(back) == text


def test_ug_fixture_parses():
    twisted = io.parse_ug((FIXTURES / "ug_twisted_cycle.json").read_text())
    assert twisted == twisted_cycle()


def test_ug_permutations_are_one_indexed_on_the_wire():
    doc = json.loads(io.serialize_ug(twisted_cycle()))
    for e in doc["edges"]:
        assert sorted(e["pi"]) == [1, 2]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d["edges"][0].update(pi=[1, 1]), "permutation"),
    (lambda d: d["edges"][0].update(pi=[0, 1]), "permutation"),
    (lambda d: d["edges"][0].update(u="v0"), "unknown left"),
    (lambda d: d.update(left=d["left"] + d["right"][:1]), "overlap"),
    (lambda d: d["edges"][0].update(weight="1/3"), "sum"),
])
def test_ug_rejection_catalog(mutate, fragment):
    doc = json.loads(io.serialize_ug(twisted_cycle()))
    mutate(doc)
    with pytest.raises(io.ParseError, match=fragment):
        io.parse_ug(json.dumps(doc))


def test_empty_ids_are_rejected_by_the_validators():
    doc = json.loads(io.serialize_instance(vc_edge()))
    doc["vertices"][0]["id"] = ""
    doc["edges"][0]["vertices"][0] = ""
    with pytest.raises(io.ParseError, match="empty vertex id"):
        io.parse_instance(json.dumps(doc))
    doc = json.loads(io.serialize_ug(twisted_cycle()))
    doc["left"][0] = ""
    for e in doc["edges"]:
        if e["u"] == "u0":
            e["u"] = ""
    with pytest.raises(io.ParseError, match="nonempty strings"):
        io.parse_ug(json.dumps(doc))


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000, "{"])
def test_unreadable_json_is_a_parse_error(text):
    with pytest.raises(io.ParseError, match="invalid JSON"):
        io.parse_instance(text)
