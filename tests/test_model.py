"""Predicates, instances, assignments, and the enumeration oracle."""

import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from smcsp import io, model
from smcsp.caps import CapExceeded
from smcsp.fourier import biased_fourier
from smcsp.model import (Edge, EdgeRows, Predicate, assignment_cost,
                         brute_force_opt, check_point, cheapest_labeling,
                         covering_predicate, is_covering_predicate,
                         is_feasible, label_point, make_instance, mix_points,
                         point_distribution, point_value,
                         solution_from_assignments,
                         upward_closure, validate_instance)
from smcsp.randgen import (hvc, random_cover_instance, random_instance,
                           ternary_chain, triangle_cover, vc_edge)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_covering_predicate_accepts_iff_some_one():
    pred = covering_predicate(3)
    for t in [(0, 0, 1), (1, 0, 0), (1, 1, 1), (0, 1, 0)]:
        assert pred.accepts(t)
    assert not pred.accepts((0, 0, 0))
    assert is_covering_predicate(pred)


def test_upward_closure_matches_direct_enumeration():
    rng = random.Random(11)
    for _ in range(25):
        q = rng.choice([2, 3])
        arity = rng.choice([1, 2, 3])
        gen = sorted({tuple(rng.randrange(q) for _ in range(arity))
                      for _ in range(rng.randint(1, 3))})
        if all(all(a == 0 for a in g) for g in gen):
            gen = [tuple(1 if i == 0 else 0 for i in range(arity))]
        pred = Predicate("p", arity, q, tuple(gen))
        got = set(upward_closure(pred))
        want = set(oracles.accepted_tuples(q, [list(g) for g in gen]))
        assert got == want


def test_predicate_validate_flags_non_antichain():
    pred = Predicate("bad", 2, 2, ((0, 1), (1, 1)))
    assert any("antichain" in p or "dominat" in p for p in pred.validate())


def test_always_false_predicate_rejected():
    pred = Predicate("empty", 2, 2, ())
    assert pred.validate()


def test_malformed_predicate_refused_with_the_same_message_each_time():
    pred = Predicate("bad", 2, 2, ((0, 1), (1, 1)))
    message = ("invalid instance: predicate bad: (0, 1) and (1, 1) are "
               "comparable (minimal set must be an antichain)")
    for _ in range(2):  # the second refusal reads the cached check
        with pytest.raises(ValueError) as info:
            make_instance(2, [F(1, 2)] * 2, [pred], [((0, 1), 0)])
        assert str(info.value) == message


def test_predicate_is_validated_once_per_object(monkeypatch):
    calls = []
    validate = Predicate.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(Predicate, "validate", counted)
    pred = covering_predicate(2)
    for _ in range(3):
        make_instance(2, [F(1, 2)] * 2, [pred], [((0, 1), 0)])
    assert calls == [pred]
    twin = covering_predicate(2)  # equal, but another object
    make_instance(2, [F(1, 2)] * 2, [twin], [((0, 1), 0)])
    assert len(calls) == 2 and calls[1] is twin
    assert pred.problems == twin.problems == ()


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------

def test_make_instance_rejects_bad_weight_sum():
    with pytest.raises(ValueError, match="sum"):
        make_instance(2, [F(1, 2), F(1, 3)], [covering_predicate(2)],
                      [((0, 1), 0)])


@pytest.mark.parametrize("weights,expected", [
    ((F(3, 2), F(-1, 2)), ["weight of b is negative"]),
    ((0.5, F(1, 2)), ["weight of a is not an exact rational"]),
    ((True, F(0)), ["weight of a is not an exact rational"]),
    ((1, F(0)), ["weight of a is not an exact rational"]),
    ((F(1, 2), F(1, 4)), ["weights sum to 3/4, expected exactly 1"]),
    ((F(1, 2), 1), ["weight of b is not an exact rational",
                    "weights sum to 3/2, expected exactly 1"]),
    ((0.25, 0.5), ["weight of a is not an exact rational",
                   "weight of b is not an exact rational",
                   "weights sum to 0.75, expected exactly 1"]),
    ((F(-1, 2), 1.5), ["weight of a is negative",
                       "weight of b is not an exact rational"]),
])
def test_validate_instance_weight_messages_pinned(weights, expected):
    # built directly, so make_instance's conversion to Fraction is bypassed
    inst = model.Instance(2, ("a", "b"), weights, (covering_predicate(2),),
                          (((0, 1), 0),))
    assert validate_instance(inst) == expected


_RATIONALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_RATIONALS, max_size=12))
@example([])
@example([F(-1, 3), 2, F(1, 6), -2])
def test_exact_sum_is_the_fraction_sum(values):
    total = model.exact_sum(values)
    assert type(total) is F and total == sum(values, F(0))
    # a bool or a float is summed the plain way
    for odd in [True, 0.5]:
        assert model.exact_sum(values + [odd]) == sum(values + [odd], F(0))


def test_make_instance_rejects_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        make_instance(2, [F(1, 2), F(1, 2)], [covering_predicate(3)],
                      [((0, 1), 0)])


def test_validate_catches_duplicate_ids():
    inst = vc_edge()
    bad = type(inst)(inst.q, ("u", "u"), inst.weights, inst.predicates,
                     inst.edges)
    assert any("unique" in p for p in validate_instance(bad))


_PAIR = covering_predicate(2)
_TRIPLE = covering_predicate(3)


@pytest.mark.parametrize("edges,expected", [
    ([Edge((0, 1), 2)], ["edge 0: predicate index 2 out of range"]),
    ([Edge((0, 1), 0), Edge((1,), -1)],
     ["edge 1: predicate index -1 out of range"]),
    ([Edge((0, 1, 0), 0)],
     ["edge 0: 3 vertices but predicate cover2 has arity 2"]),
    ([Edge((0, 1), 0), Edge((5, -1), 0)],
     ["edge 1: vertex index 5 out of range",
      "edge 1: vertex index -1 out of range"]),
    ([Edge((2, 0), 1), Edge((0, 9), 7), Edge((1, -3), 0)],
     ["edge 0: 2 vertices but predicate cover3 has arity 3",
      "edge 0: vertex index 2 out of range",
      "edge 1: predicate index 7 out of range",
      "edge 2: vertex index -3 out of range"]),
    ([Edge((0, 1), 0), Edge((1, 1, 0), 1), Edge((1, 1), 0)], []),
])
def test_validate_instance_edge_messages_pinned(edges, expected):
    # built directly, so make_instance's normalization is bypassed
    inst = model.Instance(2, ("u", "v"), (F(1, 2), F(1, 2)),
                          (_PAIR, _TRIPLE), tuple(edges))
    assert validate_instance(inst) == expected


_FAULTS = ["none", "none", "none", "predicate", "length", "past n",
           "negative"]


@st.composite
def corrupted_edges(draw):
    """Up to 6 edges on 4 vertices, each valid or with one fault: a
    predicate index out of range, a wrong vertex count, a vertex past n
    or a negative vertex (-1 among them, the value that pads a row)."""
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        fault = draw(st.sampled_from(_FAULTS))
        p = draw(st.integers(0, 1))  # _PAIR or _TRIPLE
        size = 2 + p
        if fault == "predicate":
            p = draw(st.sampled_from([-2, -1, 2, 3]))
        elif fault == "length":
            size = draw(st.integers(0, 4).filter(lambda k: k != size))
        vs = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        if fault in ("past n", "negative") and vs:
            bad = st.integers(4, 6) if fault == "past n" else \
                st.integers(-3, -1)
            vs[draw(st.integers(0, len(vs) - 1))] = draw(bad)
        edges.append(Edge(tuple(vs), p))
    return edges


@settings(derandomize=True, max_examples=300, deadline=None)
@given(corrupted_edges())
def test_row_validation_words_what_the_per_edge_loop_words(edges):
    as_pairs, as_rows = EdgeRows.of(edges), EdgeRows.of(edges)
    as_rows.rows  # held as rows from here on: checked as arrays
    assert as_rows.held_as_rows and not as_pairs.held_as_rows
    for held in (as_pairs, as_rows):
        inst = model.Instance(2, ("a", "b", "c", "d"), (F(1, 4),) * 4,
                              (_PAIR, _TRIPLE), held)
        assert validate_instance(inst) == oracles.instance_edge_problems(inst)


@pytest.mark.parametrize("edge", [((0.0, 1), 0), ((0, 1), 0.0),
                                  (("0", 1), 0), ((2 ** 63, 1), 0),
                                  ((0, 1), True), ((True, True), 0)])
def test_rows_hold_integer_indices_only(edge):
    # numpy would truncate a float, parse a string or cast a bool into an
    # index
    held = model.Instance(2, ("u", "v"), (F(1, 2),) * 2, (_PAIR,),
                          (edge,)).edges
    with pytest.raises(ValueError, match="integers within int64"):
        held.rows


@st.composite
def edge_lists(draw):
    """Up to 6 edges of arity 0-3 on 4 vertices, repeats allowed, some
    with a hand-built vertex below 0 (-1, the pad, among them) or past
    n, and each predicate index one of 0-2."""
    vertex = st.one_of(st.integers(0, 3), st.integers(-3, -1),
                       st.integers(4, 6))
    return [Edge(tuple(draw(st.lists(vertex, max_size=3))),
                 draw(st.integers(0, 2)))
            for _ in range(draw(st.integers(0, 6)))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edge_lists(), st.integers(-2, 9))
def test_slots_and_predicate_indices_read_each_edge(edges, fill):
    as_rows = EdgeRows(*model._rows_of(
        [v for e in edges for v in e.vertices],
        [len(e.vertices) for e in edges], [e.predicate for e in edges]))
    width = max([len(e.vertices) for e in edges] + [1])
    for held in (EdgeRows.of(edges), as_rows):
        assert held.slots(fill).tolist() == [
            list(e.vertices) + [fill] * (width - len(e.vertices))
            for e in edges]
        assert held.predicate_indices.tolist() == [e.predicate
                                                   for e in edges]


@st.composite
def arity_blocks(draw):
    """Blocks of up to 4 edges of one arity 0-3 each, on 3 vertices and 2
    predicates, so that edges repeat; a 3-ary block may come with the
    block of its 2-ary prefixes."""
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, 3))
        rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=k,
                                      max_size=k), max_size=4))
        vertices = np.array(rows, dtype=np.int64).reshape(len(rows), k)
        predicates = np.array(draw(st.lists(st.integers(0, 1),
                                            min_size=len(rows),
                                            max_size=len(rows))),
                              dtype=np.int64)
        blocks.append((vertices, predicates))
        if k == 3 and draw(st.booleans()):
            blocks.append((vertices[:, :2], predicates[::-1].copy()))
    return blocks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(arity_blocks())
def test_distinct_is_the_sorted_set_of_the_block_edges(blocks):
    pairs = [(tuple(vs), p) for vertices, predicates in blocks
             for vs, p in zip(vertices.tolist(), predicates.tolist())]
    edges = EdgeRows.distinct(blocks)
    assert list(edges) == sorted(set(pairs))
    assert edges.sizes.tolist() == [len(vs) for vs, _ in sorted(set(pairs))]


@st.composite
def wide_blocks(draw):
    """Up to 5 blocks of up to 5 edges of one arity 0-12 each, empty
    blocks among them, with entries from 0 up to a drawn top as large as
    ``2**63 - 1``, so that a padded row packs into one sort key, two or
    more.  A block may repeat an edge of its own and rows of an earlier
    block of its arity."""
    entry = st.integers(0, draw(st.sampled_from(
        [1, 2 ** 8, 2 ** 21, 2 ** 40, 2 ** 63 - 1])))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(0, 12))
        rows = draw(st.lists(st.lists(entry, min_size=k + 1,
                                      max_size=k + 1), max_size=3))
        if rows and draw(st.booleans()):
            rows.append(rows[0])
        earlier = [b for b in blocks if b.shape[1] == k + 1 and len(b)]
        if earlier and draw(st.booleans()):
            rows += draw(st.sampled_from(earlier))[:1].tolist()
        blocks.append(np.array(rows, dtype=np.int64).reshape(-1, k + 1))
    # each block's last column is its predicate indices
    return [(b[:, :-1], b[:, -1].copy()) for b in blocks]


def _distinct_pairs(blocks) -> tuple:
    """The sorted set of the blocks' ``(vertices, predicate)`` tuples, and
    the widest block's arity."""
    width = max((vs.shape[1] for vs, _ in blocks), default=0)
    return sorted({(tuple(vs), p) for vertices, predicates in blocks
                   for vs, p in zip(vertices.tolist(),
                                    predicates.tolist())}), width


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_blocks())
def test_distinct_rows_are_the_sorted_set_at_any_width(blocks):
    pairs, width = _distinct_pairs(blocks)
    edges = EdgeRows.distinct(blocks)
    assert edges.rows.tolist() == [list(vs) + [-1] * (width - len(vs)) + [p]
                                   for vs, p in pairs]
    assert edges.sizes.tolist() == [len(vs) for vs, _ in pairs]
    assert list(edges) == pairs


def test_distinct_on_the_widest_composed_row_the_default_caps_allow():
    # 12 vertex slots (a boolean predicate's 2**12 accepting tuples fill
    # the EXPAND cap), each at the last composed vertex the UG cap allows,
    # 2**20 - 1: a column counts in radix 2**20 + 1, so the row packs into
    # four keys of three columns, the predicate column joining the last
    top = 2 ** 20 - 1
    wide = np.full((3, 12), top, dtype=np.int64)
    wide[1, -1] = top - 1
    blocks = [(wide, np.array([1, 0, 1], dtype=np.int64)),
              (wide[:, :11], np.array([0, 1, 0], dtype=np.int64)),
              (wide[:0, :0], np.zeros(0, dtype=np.int64))]
    pairs, _ = _distinct_pairs(blocks)
    edges = EdgeRows.distinct(blocks)
    assert len(model._sort_keys(edges.rows)) == 4
    assert list(edges) == pairs and len(pairs) == 4


def test_distinct_refuses_a_negative_index():
    with pytest.raises(ValueError, match="indices >= 0"):
        EdgeRows.distinct([(np.array([[0, -1]], dtype=np.int64),
                            np.array([0], dtype=np.int64))])


@pytest.mark.parametrize("edge, message", [
    (((0.0, 1), 0), "edge 0: vertex index 0.0 is not an integer"),
    (((True, 1), 0), "edge 0: vertex index True is not an integer"),
    (((0, 1), 0.0), "edge 0: predicate index 0.0 is not an integer"),
    (((0, 1), True), "edge 0: predicate index True is not an integer"),
])
def test_make_instance_refuses_an_index_that_is_no_integer(edge, message):
    # held as pairs, so the per-edge loop checks it, not the row builder
    with pytest.raises(ValueError, match=message):
        make_instance(2, [F(1, 2)] * 2, [covering_predicate(2)], [edge])


@pytest.mark.parametrize("pred, expected", [
    (Predicate("", 2, 2, ((0, 1), (1, 0))), ["predicate with empty name"]),
    (Predicate("t", 2, 3, ((0, 1), (1, 0))),
     ["predicate t has alphabet 3, instance has 2"]),
])
def test_validate_instance_predicate_messages_pinned(pred, expected):
    inst = model.Instance(2, ("u", "v"), (F(1, 2), F(1, 2)), (pred,),
                          (Edge((0, 1), 0),))
    assert validate_instance(inst) == expected


@pytest.mark.parametrize("pair", [([0, 1], 0), ((0, 1), 0),
                                  Edge((0, 1), 0)])
def test_an_edge_is_its_vertices_predicate_pair(pair):
    e = Edge((0, 1), 0)
    assert e == ((0, 1), 0) and hash(e) == hash(((0, 1), 0))
    assert isinstance(e, tuple)
    vs, p = e
    assert (vs, p) == ((0, 1), 0)
    stored, = make_instance(2, [F(1, 2)] * 2, [covering_predicate(2)],
                            [pair]).edges
    assert type(stored) is Edge and stored == e
    assert type(stored.vertices) is tuple


def test_make_instance_passes_a_parsed_edge_through():
    parsed = io.parse_instance(io.serialize_instance(hvc(3)))
    again = make_instance(parsed.q, parsed.weights, parsed.predicates,
                          parsed.edges, parsed.vertex_ids)
    assert [a is b for a, b in zip(again.edges, parsed.edges)] == [True]


def test_edges_may_repeat_vertices():
    inst = make_instance(2, [F(1)], [covering_predicate(2)], [((0, 0), 0)])
    assert is_feasible(inst, (1,))
    assert not is_feasible(inst, (0,))


# ---------------------------------------------------------------------------
# assignments and the exact optimum
# ---------------------------------------------------------------------------

def test_assignment_cost_is_weighted_label_sum():
    inst = ternary_chain()
    labels = (2, 1, 0)
    want = sum((w * a for w, a in zip(inst.weights, labels)), F(0))
    assert assignment_cost(inst, labels) == want


def test_all_top_is_always_feasible():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 5),
                               rng.randint(1, 4))
        top = (inst.q - 1,) * inst.n
        assert is_feasible(inst, top)


def _oracle_opt(inst):
    edges = [(list(e.vertices), [list(m) for m in
              inst.predicates[e.predicate].minimal])
             for e in inst.edges]
    return oracles.opt_by_enumeration(inst.q, list(inst.weights), edges)


def test_brute_force_matches_enumeration_oracle():
    rng = random.Random(7)
    cases = [random_instance(rng, rng.choice([2, 3]), rng.randint(2, 5),
                             rng.randint(1, 4)) for _ in range(20)]
    cases += [random_instance(rng, 4, rng.randint(2, 4), rng.randint(1, 4))
              for _ in range(5)]
    # lcm of the weight denominators is above 2**62: exact Python-int costs
    huge = [F(3, 2**61 - 1), F(5, 2**31 - 1), F(7, 1000003), F(2, 999983)]
    huge = [w / sum(huge) for w in huge]
    cases += [make_instance(q, huge, [Predicate("p", 2, q, minimal)],
                            [((0, 1), 0), ((1, 2), 0), ((2, 3), 0)])
              for q, minimal in ((2, ((0, 1), (1, 0))),
                                 (3, ((0, 2), (1, 1), (2, 0))))]
    for inst in cases:
        got, witness = brute_force_opt(inst)
        want, want_witness = _oracle_opt(inst)
        assert got == want
        assert witness == want_witness
        assert is_feasible(inst, witness)
        assert assignment_cost(inst, witness) == got


@st.composite
def small_instances(draw):
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6 if q == 2 else 4))
    weights = [F(a) for a in draw(st.lists(st.integers(0, 6), min_size=n,
                                           max_size=n))]
    weights[0] += 1
    weights = [w / sum(weights) for w in weights]
    predicates, edges = [], []
    for i in range(draw(st.integers(0, 4))):
        arity = draw(st.integers(1, 3))
        tuples = st.tuples(*[st.integers(0, q - 1)] * arity)
        gens = draw(st.sets(tuples, min_size=1, max_size=4))
        minimal = tuple(sorted(
            t for t in gens
            if not any(s != t and all(a <= b for a, b in zip(s, t))
                       for s in gens)))
        predicates.append(Predicate(f"p{i}", arity, q, minimal))
        verts = draw(st.lists(st.integers(0, n - 1), min_size=arity,
                              max_size=arity))
        edges.append((tuple(verts), i))
    return make_instance(q, weights, predicates, edges)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_instances(), st.sampled_from([1, 3, 8, model._BLOCK]))
def test_kernel_matches_enumeration_oracle(inst, block):
    # small blocks split the search into several lexicographic prefixes
    with mock.patch.object(model, "_BLOCK", block):
        assert cheapest_labeling(inst) == _oracle_opt(inst)


def _exhaustive(inst):
    edges = [(e.vertices, [list(m) for m in inst.predicate_of(e).minimal])
             for e in inst.edges]
    return oracles.cheapest_labeling_exhaustive(inst.q, list(inst.weights),
                                                edges)


@st.composite
def larger_instances(draw):
    # past small_instances: up to 2**14, 3**9 and 4**7 labelings, with
    # zero weights, repeated vertices, arity-1 predicates and no edges
    q = draw(st.sampled_from([2, 3, 4]))
    top = {2: 14, 3: 9, 4: 7}[q]
    n = draw(st.integers(1, top) | st.integers(top - 2, top))
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] += 1
    weights = [F(w, sum(weights)) for w in weights]
    predicates, edges = [], []
    for i in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 3))
        tuples = st.tuples(*[st.integers(0, q - 1)] * arity)
        gens = draw(st.sets(tuples, min_size=1, max_size=3))
        predicates.append(Predicate(f"p{i}", arity, q, tuple(sorted(
            t for t in gens
            if not any(s != t and all(a <= b for a, b in zip(s, t))
                       for s in gens)))))
    for _ in range(draw(st.integers(0, 2 * n) | st.integers(n, 2 * n))):
        p = draw(st.integers(0, len(predicates) - 1))
        verts = draw(st.lists(st.integers(0, n - 1),
                              min_size=predicates[p].arity,
                              max_size=predicates[p].arity))
        edges.append((tuple(verts), p))
    return make_instance(q, weights, predicates, edges)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(larger_instances(), st.sampled_from([1, 64, model._BLOCK]))
def test_search_matches_the_exhaustive_kernel(inst, block):
    # the pruned search returns what visiting every labeling returns:
    # the same cost and the same lexicographically least witness
    with mock.patch.object(model, "_BLOCK", block):
        assert cheapest_labeling(inst) == _exhaustive(inst)


def _rising_matching_cover(n):
    weights = [F(i + 1) for i in range(n)]
    weights = [w / sum(weights) for w in weights]
    return make_instance(2, weights, [covering_predicate(2)],
                         [((2 * i, 2 * i + 1), 0) for i in range(n // 2)])


@pytest.mark.parametrize("inst", [
    _rising_matching_cover(20),
    random_cover_instance(random.Random(1), 20, 40, 3),
    random_cover_instance(random.Random(2), 20, 40, 3),
], ids=["rising-matching-cover", "cover3-s1", "cover3-s2"])
def test_search_matches_the_exhaustive_kernel_on_hard_families(inst):
    # with weights rising by index, the branches searched first (the
    # lower vertex of a pair at 0) are the costly ones; 3-uniform covers
    # leave most prefixes feasible: little is pruned in either
    got = cheapest_labeling(inst)
    assert got == _exhaustive(inst)
    assert is_feasible(inst, got[1])


def test_brute_force_boolean_fast_path_agrees():
    # 16 boolean vertices: four searched vertices over 2**12 blocks
    rng = random.Random(9)
    weights = [F(1, 16)] * 16
    pred = covering_predicate(2)
    edges = [((rng.randrange(16), rng.randrange(16)), 0) for _ in range(6)]
    edges = [(vs if vs[0] != vs[1] else (vs[0], (vs[1] + 1) % 16), p)
             for vs, p in edges]
    inst = make_instance(2, weights, [pred], edges)
    got, witness = brute_force_opt(inst)
    oedges = [([v for v in e.vertices], [[0, 1], [1, 0]])
              for e in inst.edges]
    want, _ = oracles.opt_by_enumeration(2, weights, oedges)
    assert got == want
    assert is_feasible(inst, witness)


def test_brute_force_respects_cap(monkeypatch):
    monkeypatch.setenv("SMCSP_CAP_ENUM", "1")
    inst = hvc(3)
    with pytest.raises(CapExceeded):
        brute_force_opt(inst)


def test_cap_limits_at_the_boundary(monkeypatch):
    """Every cap is a log2 budget: EXPAND allows 2**12 accepted-set
    candidates by default, and FOURIER bounds the table length."""
    monkeypatch.delenv("SMCSP_CAP_EXPAND", raising=False)
    assert upward_closure(Predicate("all12", 12, 2, ((1,) * 12,))) \
        == ((1,) * 12,)
    with pytest.raises(CapExceeded, match="SMCSP_CAP_EXPAND"):
        upward_closure(Predicate("all13", 13, 2, ((1,) * 13,)))
    monkeypatch.setenv("SMCSP_CAP_FOURIER", "3")
    assert biased_fourier([F(0)] * 8, F(1, 2)).r == 3
    with pytest.raises(CapExceeded, match="SMCSP_CAP_FOURIER"):
        biased_fourier([F(0)] * 16, F(1, 2))


def test_named_instances_have_known_optima():
    assert brute_force_opt(vc_edge())[0] == F(1, 2)
    assert brute_force_opt(hvc(3))[0] == F(1, 3)
    assert brute_force_opt(triangle_cover())[0] == F(2, 3)
    assert brute_force_opt(ternary_chain())[0] == F(3, 4)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_point_value_binary_is_identity():
    assert point_value(2, F(3, 7)) == F(3, 7)


def test_point_value_general_is_expected_label():
    assert point_value(3, (F(1, 2), F(1, 4), F(1, 4))) == F(3, 4)


def test_label_and_top_points():
    assert label_point(3, 1) == (0, 1, 0)


def test_point_distribution_binary():
    assert point_distribution(2, F(1, 3)) == (F(2, 3), F(1, 3))


def test_mix_points_binary_and_ternary():
    assert mix_points(2, [F(0), F(1)], [F(1, 4), F(3, 4)]) == F(3, 4)
    got = mix_points(3, [(1, 0, 0), (0, 0, 1)], [F(1, 2), F(1, 2)])
    assert got == (F(1, 2), 0, F(1, 2))


def test_solution_from_assignments_averages_labels():
    inst = vc_edge()
    x = solution_from_assignments(inst, [(0, 1), (1, 0)],
                                  [F(1, 2), F(1, 2)])
    assert x == [F(1, 2), F(1, 2)]


@pytest.mark.parametrize("call, message", [
    (lambda: covering_predicate(2).accepts((1,)),
     "predicate cover2: tuple of length 1, arity is 2"),
    (lambda: check_point(3, (F(1), F(0))),
     "q=3 expects length-3 tuples, got (Fraction(1, 1), Fraction(0, 1))"),
    (lambda: check_point(3, (0.5, F(1, 2), F(0))),
     "distribution (0.5, Fraction(1, 2), Fraction(0, 1)) has non-rational "
     "entries"),
    (lambda: solution_from_assignments(vc_edge(), [(0, 1), (1, 0)],
                                       [F(1, 2), F(1, 3)]),
     "coefficients must be a convex combination"),
    (lambda: solution_from_assignments(vc_edge(), [(0, 1), (1, 0)],
                                       [F(3, 2), F(-1, 2)]),
     "coefficients must be a convex combination"),
])
def test_bad_input_messages_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
