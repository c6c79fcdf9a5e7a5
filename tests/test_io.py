"""File formats: round trips, canonical form, and rejection catalog."""

import gc
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from smcsp import io
from smcsp.dictators import generate_dict
from smcsp.model import (Edge, EdgeRows, Instance, Predicate,
                         covering_predicate, make_instance)
from smcsp.randgen import (random_game, random_instance, ternary_chain,
                           twisted_cycle, vc_edge)
from smcsp.unique_games import compose

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


@pytest.mark.parametrize("value, message", [
    ("1/" + "1" * 5000, "--eps: rational '1/111111111111111111...' has a "
     "part of 5000 digits, past the 4300-digit limit of Python's int"),
    ("-" + "7" * 4301 + "/3", "--eps: rational '-7777777777777777777...' "
     "has a part of 4301 digits, past the 4300-digit limit of Python's int"),
    # a long part that is no number stays malformed, its echo cut
    ("1/" + "x" * 4301, f"--eps: malformed rational '1/{'x' * 18}...'"),
], ids=["denominator", "numerator", "no-number"])
def test_parse_rational_names_the_int_digit_limit(value, message):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(io.ParseError) as info:
            io.parse_rational(value, "--eps")
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(info.value) == message


@pytest.mark.parametrize("value, message", [
    ("1/2/" + "3" * 4000, "w: malformed rational '1/2/3333333333333333...'"),
    ("+" + "1" * 4000 + "/3",
     "w: malformed rational '+1111111111111111111...'"),
    ("1/-" + "3" * 4000, "w: denominator must be positive in "
     "'1/-33333333333333333...'"),
    ("2" * 4000 + "/" + "4" * 4000, "w: non-canonical rational "
     "'22222222222222222222...' (must be in lowest terms)"),
], ids=["parts", "spelling", "denominator", "lowest-terms"])
def test_parse_rational_refusals_clip_their_echo(value, message):
    with pytest.raises(io.ParseError) as info:
        io.parse_rational(value, "w")
    assert str(info.value) == message


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


@pytest.mark.parametrize("mutate,message", [
    (lambda vs: vs.__setitem__(1, ["v", "1/2"]),
     "vertex #1: expected an object, got an array"),
    (lambda vs: vs[1].pop("weight"), "vertex #1: missing keys ['weight']"),
    (lambda vs: vs[1].update(w=1), "vertex #1: unknown keys ['w']"),
    # two keys, one of them wrong
    (lambda vs: vs.__setitem__(1, {"id": "v", "wt": "1/2"}),
     "vertex #1: missing keys ['weight']"),
    (lambda vs: vs[1].update(id=7),
     "vertex #1: id: expected a string, got an integer"),
    (lambda vs: vs[1].update(weight=0.5),
     "weight of v: expected 'num/den' string or integer, got 0.5"),
    # vertex 0's weight is read before vertex 1's keys
    (lambda vs: (vs[0].update(weight="2/4"), vs[1].pop("id")),
     "weight of u: non-canonical rational '2/4' (must be in lowest terms)"),
])
def test_vertex_messages_pinned(mutate, message):
    doc = json.loads(io.serialize_instance(vc_edge()))
    mutate(doc["vertices"])
    with pytest.raises(io.ParseError) as info:
        io.parse_instance(json.dumps(doc))
    assert str(info.value) == message


_ARITY_PREDICATES = [covering_predicate(k) for k in (1, 2, 3)]

# (kind, edge -> faulty edge); each is a fault the edge reader words
_EDGE_FAULTS = [
    ("array", lambda e, bad: [e["vertices"][0], e["predicate"]]),
    ("two-character string", lambda e, bad: "uv"),
    ("number", lambda e, bad: 7),
    ("null", lambda e, bad: None),
    ("missing key", lambda e, bad: {"vertices": e["vertices"]}),
    ("extra key", lambda e, bad: {**e, "w": 1}),
    ("renamed key", lambda e, bad: {"vertices": e["vertices"],
                                    "pred": e["predicate"]}),
    # iterated, these would read as the edge's own ids
    ("vertices string", lambda e, bad: {**e,
                                        "vertices": "".join(e["vertices"])}),
    ("vertices object", lambda e, bad: {**e, "vertices": dict.fromkeys(
        e["vertices"], 0)}),
    ("vertex id", lambda e, bad: {**e, "vertices": [*e["vertices"][:-1],
                                                    bad]}),
    ("unknown vertex id", lambda e, bad: {**e, "vertices": [
        *e["vertices"][:-1], "zz"]}),
    ("predicate", lambda e, bad: {**e, "predicate": bad}),
    ("unknown predicate", lambda e, bad: {**e, "predicate": "nope"}),
]
_NOT_STRINGS = [0, 1.5, True, None, ["a"], {"a": 0}]


@st.composite
def faulty_edge_documents(draw):
    """An instance document with 200-300 edges and 0-3 faults at random
    edges.  ``EdgeRows.from_flat`` keeps fewer than ``_ROWS_FROM`` (256)
    edges as pairs and more as rows, so both are drawn.  Vertex ids are
    single letters, so a string of ids reads as its ids if iterated."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = []
    for _ in range(draw(st.integers(200, 300))):
        p = rng.randrange(3)
        edges.append(([rng.randrange(n) for _ in range(p + 1)], p))
    inst = make_instance(2, [F(1, n)] * n, _ARITY_PREDICATES, edges,
                         "abcdef"[:n])
    doc = json.loads(io.serialize_instance(inst))
    valid = list(doc["edges"])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(edges) - 1))
        _, fault = draw(st.sampled_from(_EDGE_FAULTS))
        doc["edges"][i] = fault(valid[i], draw(st.sampled_from(_NOT_STRINGS)))
    return inst, json.dumps(doc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(faulty_edge_documents())
def test_bulk_edge_reader_names_the_per_edge_readers_fault(case):
    inst, text = case
    doc = json.loads(text)
    try:
        want = oracles.read_edges_per_edge(doc["edges"], inst.vertex_ids,
                                           [p.name for p in inst.predicates])
    except ValueError as exc:
        with pytest.raises(io.ParseError) as info:
            io.parse_instance(text)
        assert str(info.value) == str(exc)
    else:
        edges = io.parse_instance(text).edges
        assert edges == EdgeRows.from_flat(*want) == inst.edges


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


# ---------------------------------------------------------------------------
# the collector pause
# ---------------------------------------------------------------------------

def _cyclic_garbage(step) -> int:
    """Objects in reference cycles that ``step`` leaves behind.

    The collector stays off throughout, so no automatic collection can
    free a cycle before the count."""
    gc.collect()
    gc.disable()
    try:
        step()
        return gc.collect()
    finally:
        gc.enable()


def _instance_round_trip(text: str) -> None:
    assert io.serialize_instance(io.parse_instance(text)) == text


@st.composite
def generated_files(draw):
    """(round trip, text) for an instance or a game; instances of up to
    400 edges, so edges held as pairs and as rows are both drawn."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["awkward", "random", "game"]))
    if kind == "awkward":
        return _instance_round_trip, io.serialize_instance(
            draw(awkward_instances()))
    if kind == "random":
        inst = random_instance(rng, draw(st.sampled_from([2, 3])),
                               draw(st.integers(2, 12)),
                               draw(st.integers(1, 400)))
        return _instance_round_trip, io.serialize_instance(inst)
    ug, _ = random_game(rng, draw(st.integers(1, 4)), draw(st.integers(1, 5)),
                        draw(st.integers(1, 5)), draw(st.integers(0, 5)))
    # serialize_ug is not paused; its json.dumps(..., indent=2) makes a
    # cycle that the collector frees as it runs
    return io.parse_ug, io.serialize_ug(ug)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(generated_files())
def test_reading_and_writing_leave_no_reference_cycles(case):
    step, text = case
    assert _cyclic_garbage(lambda: step(text)) == 0


def _chain_files() -> dict:
    """The files of one small dict -> reduce chain: the composed
    instance has 270 edges, so it is held as rows."""
    D = generate_dict(vc_edge(), [F(1, 2)] * 2, 2, F(1, 10), F(1, 2))
    ug, _ = random_game(random.Random(5), 2, 8, 4, 8)
    return {"dict": io.serialize_instance(D.instance),
            "game": io.serialize_ug(ug),
            "composed": io.serialize_instance(compose(ug, D))}


@pytest.mark.parametrize("name", ["dict", "game", "composed"])
def test_chain_files_leave_no_reference_cycles(name):
    text = _chain_files()[name]
    step = io.parse_ug if name == "game" else _instance_round_trip
    assert _cyclic_garbage(lambda: step(text)) == 0


def _bad_edge() -> str:
    doc = json.loads(io.serialize_instance(vc_edge()))
    doc["edges"][0]["vertices"][0] = "nowhere"
    return json.dumps(doc)


@pytest.mark.parametrize("call", [
    lambda: io.parse_instance(io.serialize_instance(ternary_chain())),
    lambda: io._load("[1, 2]"),
    lambda: io.parse_ug(io.serialize_ug(twisted_cycle())),
], ids=["parse-serialize", "load", "game-load"])
def test_collector_is_on_after_a_paused_call(call):
    assert gc.isenabled()
    call()
    assert gc.isenabled()


@pytest.mark.parametrize("text, message", [
    ("{", "invalid JSON"),
    (_bad_edge(), "edge #0: unknown vertex id 'nowhere'"),
], ids=["malformed-json", "bad-edge"])
def test_collector_is_on_after_a_paused_call_raises(text, message):
    with pytest.raises(io.ParseError, match=message):
        io.parse_instance(text)
    assert gc.isenabled()


def test_collector_left_off_when_the_caller_turned_it_off():
    text = io.serialize_instance(ternary_chain())
    gc.disable()
    try:
        io.serialize_instance(io.parse_instance(text))
        assert not gc.isenabled()
        with pytest.raises(io.ParseError):
            io.parse_instance("{")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_load_leaves_the_collector_off(monkeypatch):
    # parse_instance validates after its own _load returns; the collector
    # must still be off then, and off inside json.loads as well
    seen = []

    def loads(text):
        seen.append(("loads", gc.isenabled()))
        return json.JSONDecoder().decode(text)

    def make(*args):
        seen.append(("make_instance", gc.isenabled()))
        return make_instance(*args)

    monkeypatch.setattr(io.json, "loads", loads)
    monkeypatch.setattr(io, "make_instance", make)
    io.parse_instance(io.serialize_instance(vc_edge()))
    assert seen == [("loads", False), ("make_instance", False)]
    assert gc.isenabled()
