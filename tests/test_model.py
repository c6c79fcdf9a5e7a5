"""Predicates, instances, assignments, and the enumeration oracle."""

import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smcsp import io, model
from smcsp.caps import CapExceeded
from smcsp.fourier import biased_fourier
from smcsp.model import (Edge, Predicate, assignment_cost, brute_force_opt,
                         check_point, cheapest_labeling,
                         covering_predicate, is_covering_predicate,
                         is_feasible, label_point, make_instance, mix_points,
                         point_distribution, point_value,
                         solution_from_assignments,
                         upward_closure, validate_instance)
from smcsp.randgen import (hvc, random_instance, ternary_chain,
                           triangle_cover, vc_edge)


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


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------

def test_make_instance_rejects_bad_weight_sum():
    with pytest.raises(ValueError, match="sum"):
        make_instance(2, [F(1, 2), F(1, 3)], [covering_predicate(2)],
                      [((0, 1), 0)])


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


def test_brute_force_boolean_fast_path_agrees():
    # 16 boolean vertices fill exactly one 2**16 block of the search
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
