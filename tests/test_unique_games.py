"""Bijection games: satisfaction, composition, decoding."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from smcsp import io
from smcsp.caps import CapExceeded
from smcsp.dictators import (dict_vertex_id, dict_view, dictator_assignment,
                             dictator_weight, generate_dict)
from smcsp.model import (brute_force_opt, covering_predicate, make_instance,
                         solution_from_assignments)
from smcsp.randgen import (random_game, ternary_chain, triangle_cover,
                           twisted_cycle, vc_edge)
from smcsp.unique_games import (UgInstance, compose, completeness_solution,
                                composed_cubes, composed_vertex_ids,
                                composed_weights, decode_labeling,
                                edge_satisfied, ug_brute_force,
                                ug_satisfied_weight, validate_ug)


def _vc_dict(r, delta=F(1, 10)):
    inst = vc_edge()
    x = [F(1, 2), F(1, 2)]
    return generate_dict(inst, x, r, delta, F(1, 2))


def _twisted_pair():
    """Two left vertices forced through opposite bijections."""
    return UgInstance(2, ("L0", "L1"), ("R0",),
                      ((0, 0, F(1, 2), (0, 1)), (1, 0, F(1, 2), (1, 0))))


# ---------------------------------------------------------------------------
# structure and satisfaction
# ---------------------------------------------------------------------------

def test_validate_accepts_named_games():
    assert validate_ug(twisted_cycle()) == []
    assert validate_ug(_twisted_pair()) == []


def test_validate_rejects_bad_weights_and_perms():
    bad_weight = UgInstance(2, ("a",), ("b",), ((0, 0, F(1, 3), (0, 1)),))
    assert any("sum" in p for p in validate_ug(bad_weight))
    bad_perm = UgInstance(2, ("a",), ("b",), ((0, 0, F(1), (0, 0)),))
    assert any("bijection" in p for p in validate_ug(bad_perm))


@pytest.mark.parametrize("game, expected", [
    (UgInstance(2, (), ("b",), ()),
     ["both vertex sides must be nonempty", "game has no edges"]),
    (UgInstance(2, ("a", "a"), ("b",), ((0, 0, F(1), (0, 1)),)),
     ["duplicate vertex ids"]),
    (UgInstance(2, ("a",), ("b",), ((1, 3, F(1), (0, 1)),)),
     ["edge #0: left index 1 out of range",
      "edge #0: right index 3 out of range"]),
])
def test_validate_ug_messages_pinned(game, expected):
    assert validate_ug(game) == expected
    # compose checks the game itself, whoever built it
    with pytest.raises(ValueError) as exc:
        compose(game, _vc_dict(r=2))
    assert str(exc.value) == "invalid game: " + "; ".join(expected)


def test_edge_satisfaction_direction():
    # satisfied when the right label equals the permuted left label
    edge = (0, 0, F(1), (1, 0))
    ug = UgInstance(2, ("a",), ("b",), (edge,))
    assert edge_satisfied(ug, edge, {"a": 0, "b": 1})
    assert not edge_satisfied(ug, edge, {"a": 0, "b": 0})


def test_satisfied_weight_sums_edge_masses():
    ug = twisted_cycle()
    best = ug_satisfied_weight(ug, {"u0": 1, "u1": 1, "v0": 1, "v1": 1})
    assert best == F(3, 4)


def test_brute_force_on_random_games():
    rng = random.Random(311)
    for _ in range(15):
        ug, planted = random_game(rng, rng.randint(1, 3), rng.randint(1, 3),
                                  rng.randint(1, 3),
                                  extra_edges=rng.randint(0, 2))
        opt, labels = ug_brute_force(ug)
        want = oracles.ug_best_by_enumeration(
            ug.r, ug.n_left, ug.n_right, list(ug.edges))
        assert opt == want
        assert ug_satisfied_weight(ug, labels) == opt
        assert opt == 1  # planted games stay satisfiable
        assert ug_satisfied_weight(ug, planted) == 1


def test_twisted_cycle_optimum_is_three_quarters(monkeypatch):
    assert ug_brute_force(twisted_cycle())[0] == F(3, 4)
    monkeypatch.setenv("SMCSP_CAP_UG", "1")
    with pytest.raises(CapExceeded):
        ug_brute_force(twisted_cycle())


def test_vertex_masses():
    # each copy weighs its left vertex's edge mass times the cube weights
    D = _vc_dict(r=2)
    weights = composed_weights(_twisted_pair(), D)
    half = [F(1, 2) * w for w in D.instance.weights]
    assert weights == half + half


class _CountingEdges(tuple):
    """A game's edge tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _passes_per_step(n):
    """Passes each step makes over the edges of a game on n + n vertices."""
    game, planted = random_game(random.Random(n), 2, n, n)
    D = _vc_dict(r=2)
    composed = compose(game, D)
    selection, _ = completeness_solution(game, planted, D, composed)
    steps = {
        "compose": lambda g: compose(g, D),
        "composed_weights": lambda g: composed_weights(g, D),
        "composed_cubes": lambda g: composed_cubes(g, composed),
        "completeness_solution":
            lambda g: completeness_solution(g, planted, D, composed),
        "decode_labeling": lambda g: decode_labeling(g, D, selection),
    }
    passes = {}
    for name, step in steps.items():
        edges = _CountingEdges(game.edges)
        step(dataclasses.replace(game, edges=edges))
        passes[name] = edges.passes
    return passes


def test_no_step_rescans_the_game_per_vertex():
    small = _passes_per_step(10)
    assert all(small.values())
    assert _passes_per_step(1000) == small


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_composed_ids_weights_and_predicates():
    ug = _twisted_pair()
    D = _vc_dict(r=2)
    Finst = compose(ug, D)
    assert len(Finst.vertex_ids) == ug.n_left * len(D.instance.vertex_ids)
    assert sum(Finst.weights, F(0)) == 1
    assert Finst.predicates == D.instance.predicates
    assert Finst.vertex_ids == composed_vertex_ids(ug, D)
    assert Finst.vertex_ids[:2] == ("L0/b0:y00", "L0/b0:y01")
    assert "L1/b0:y10" in Finst.vertex_ids


@pytest.mark.parametrize("i, with_dict", [(0, True), (3, True), (7, True),
                                          (5, False)])
def test_composed_cubes_refuses_a_weight_off_by_a_trillionth(i, with_dict):
    ug, D = _twisted_pair(), _vc_dict(r=2)
    Finst = compose(ug, D)
    assert composed_cubes(ug, Finst, D) == D
    want = Finst.weights[i]
    off = want + F(1, want.denominator * 10**12)
    weights = Finst.weights[:i] + (off,) + Finst.weights[i + 1:]
    bad = dataclasses.replace(Finst, weights=weights)
    message = (f"the composed instance is not the game composed with these "
               f"hypercubes: vertex #{i} weighs {off}, expected {want}")
    with pytest.raises(ValueError) as info:
        # without D the cubes come from L0's copy, vertices 0-3
        composed_cubes(ug, bad, D if with_dict else None)
    assert str(info.value) == message


@functools.lru_cache(maxsize=None)
def _dicts(r):
    """A boolean and a ternary hypercube instance with ``r`` coordinates."""
    inst = ternary_chain()
    x = solution_from_assignments(inst, [(0, 2, 1), (2, 2, 2)],
                                  [F(1, 2), F(1, 2)])
    return _vc_dict(r), generate_dict(inst, x, r, F(1, 10), F(1, 2))


def _draw_game(draw, r, max_edges=5):
    """A game on up to 3 + 3 vertices; some edges may weigh 0."""
    n_left, n_right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    raw = draw(st.lists(st.tuples(st.integers(0, n_left - 1),
                                  st.integers(0, n_right - 1),
                                  st.integers(0, 3),
                                  st.permutations(range(r))),
                        min_size=1, max_size=max_edges)
               .filter(lambda es: any(e[2] for e in es)))
    total = sum(e[2] for e in raw)
    return UgInstance(r, tuple(f"L{u}" for u in range(n_left)),
                      tuple(f"R{v}" for v in range(n_right)),
                      tuple((u, v, F(w, total), tuple(perm))
                            for u, v, w, perm in raw))


@st.composite
def games_with_dicts(draw):
    r = draw(st.integers(1, 3))
    return _draw_game(draw, r), draw(st.sampled_from(_dicts(r)))


_SHARED_TWISTS = UgInstance(2, ("L0", "L1"), ("R0", "R1"), (
    (0, 0, F(1, 4), (1, 0)), (1, 0, F(1, 4), (0, 1)),
    (0, 0, F(1, 8), (1, 0)), (0, 1, F(3, 8), (1, 0))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(games_with_dicts())
@example((UgInstance(1, ("L",), ("R",), ((0, 0, F(1), (0,)),)), _dicts(1)[0]))
@example((UgInstance(1, ("L",), ("R",), ((0, 0, F(1), (0,)),)), _dicts(1)[1]))
# (u, perm) shared within and across right vertices; R0 has degree 3
@example((_SHARED_TWISTS, _dicts(2)[0]))
@example((_SHARED_TWISTS, _dicts(2)[1]))
def test_compose_matches_reference(game_and_dict):
    game, D = game_and_dict
    composed = compose(game, D)
    ids, weights, edges = oracles.compose_reference(game, D)
    assert composed.vertex_ids == ids
    assert composed.weights == weights
    assert [(e.vertices, e.predicate) for e in composed.edges] == edges
    assert (composed.q, composed.predicates) == (D.q, D.instance.predicates)


# five edges at one right vertex: 5**2 tuples on each of the 27 edges of
# the boolean r = 3 dict, 320 of them distinct
_FIVE_AT_ONE_RIGHT = UgInstance(3, ("L0", "L1", "L2"), ("R0",), tuple(
    (u, 0, F(1, 5), perm) for u, perm in
    zip((0, 1, 2, 0, 1), itertools.permutations(range(3)))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(games_with_dicts())
@example((_FIVE_AT_ONE_RIGHT, _dicts(3)[0]))
def test_composed_text_is_json_dumps_and_reads_back(game_and_dict):
    composed = compose(*game_and_dict)
    text = io.serialize_instance(composed)
    assert text == oracles.serialize_instance_dumps(composed)
    assert io.parse_instance(text) == composed


@st.composite
def prefix_bases(draw):
    """A game and a boolean hypercube instance whose 2-ary edges include
    prefixes of its 3-ary edges; the game may repeat an edge, so that
    composed tuples repeat."""
    r, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    points = [(b, y) for b in range(m)
              for y in itertools.product((0, 1), repeat=r)]
    vertex = st.integers(0, len(points) - 1)
    # either predicate order, so a pair may carry the larger index
    pair, triple = draw(st.sampled_from([(0, 1), (1, 0)]))
    edges = []
    for vs in draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=4)):
        edges.append((vs, triple))
        if draw(st.booleans()):
            edges.append((vs[:2], pair))
    edges += [(vs, pair) for vs in draw(
        st.lists(st.tuples(vertex, vertex), max_size=3))]
    predicates = [None, None]
    predicates[pair], predicates[triple] = covering_predicate(2), \
        covering_predicate(3)
    D = dict_view(make_instance(2, [F(1, len(points))] * len(points),
                                predicates, edges,
                                [dict_vertex_id(b, y) for b, y in points]))
    game = _draw_game(draw, r, max_edges=4)
    if draw(st.booleans()):
        u, v, wt, perm = game.edges[0]
        game = dataclasses.replace(game, edges=(
            (u, v, wt / 2, perm), (u, v, wt / 2, perm)) + game.edges[1:])
    return game, D


@settings(derandomize=True, max_examples=150, deadline=None)
@given(prefix_bases())
def test_row_order_is_tuple_order_on_mixed_arities(game_and_dict):
    game, D = game_and_dict
    composed = compose(game, D)
    ids, weights, edges = oracles.compose_reference(game, D)
    assert (composed.vertex_ids, composed.weights) == (ids, weights)
    assert [(e.vertices, e.predicate) for e in composed.edges] == edges


def test_identity_game_composition_preserves_optimum():
    ug = UgInstance(2, ("L",), ("R",), ((0, 0, F(1), (0, 1)),))
    D = _vc_dict(r=2)
    Finst = compose(ug, D)
    assert len(Finst.edges) == len(D.instance.edges)
    assert brute_force_opt(Finst)[0] == brute_force_opt(D.instance)[0]


def test_composition_requires_matching_r():
    ug = _twisted_pair()
    with pytest.raises(ValueError, match="r"):
        compose(ug, _vc_dict(r=3))


def test_completeness_identity_full_and_partial():
    ug = _twisted_pair()
    D = _vc_dict(r=2)
    Finst = compose(ug, D)
    labels = {"L0": 0, "L1": 1, "R0": 0}
    dw = dictator_weight(D)

    _, full = completeness_solution(ug, labels, D, Finst, lp_value=F(1, 2))
    assert full["weight"] == dw
    assert full["mass_satisfied"] == 1
    assert full["weight"] <= full["bound"]

    # L1's edge maps label 0 to 1, so R0 = 0 misses it
    _, part = completeness_solution(ug, {"L0": 0, "L1": 0, "R0": 0}, D,
                                    Finst)
    assert part["weight"] == dw * F(1, 2) + F(1, 2)


@pytest.mark.parametrize("labels", [
    {"L0": 0, "L1": 1},               # R0 missing
    {"L0": 7, "L1": 1, "R0": 0},      # left label out of range
    {"L0": 0, "L1": 1, "R0": 5},      # right label out of range
])
def test_completeness_rejects_a_bad_game_labeling(labels):
    with pytest.raises(ValueError, match="label must be in 0..1"):
        completeness_solution(_twisted_pair(), labels, _vc_dict(r=2))


def test_completeness_tops_the_copies_of_unsatisfied_vertices():
    ug = _twisted_pair()
    D = _vc_dict(r=2)
    selection, rep = completeness_solution(ug, {"L0": 0, "L1": 0, "R0": 0},
                                           D)
    cube = len(D.points)
    assert selection[:cube] == dictator_assignment(D, 0)
    assert selection[cube:] == (1,) * cube
    assert rep["mass_satisfied"] == rep["mass_rest"] == F(1, 2)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_decode_recovers_planted_labeling():
    rng = random.Random(331)
    for _ in range(5):
        r = rng.randint(2, 3)
        ug, planted = random_game(rng, r, rng.randint(1, 3),
                                  rng.randint(1, 2),
                                  extra_edges=rng.randint(0, 1))
        D = _vc_dict(r=r)
        Finst = compose(ug, D)
        selection, _ = completeness_solution(ug, planted, D, Finst)
        labels, table = decode_labeling(ug, D, selection)
        assert labels == planted
        assert ug_satisfied_weight(ug, labels) == 1
        assert set(table) == set(ug.right)


def test_decode_tau_cutoff_falls_back_to_zero():
    ug = _twisted_pair()
    D = _vc_dict(r=2)
    Finst = compose(ug, D)
    # all-ones selection has no influential coordinate anywhere
    labels, _ = decode_labeling(ug, D, (1,) * len(Finst.vertex_ids), tau=0.2)
    assert all(labels[vid] == 0 for vid in ug.right)


def test_decode_requires_binary_alphabet():
    inst = ternary_chain()
    x = solution_from_assignments(inst, [(0, 2, 1), (2, 2, 2)],
                                  [F(1, 2), F(1, 2)])
    D = generate_dict(inst, x, 2, F(1, 5), F(1, 2))
    ug = _twisted_pair()
    with pytest.raises(ValueError, match="2"):
        decode_labeling(ug, D, ())


def test_decode_checks_r_then_length():
    ug = _twisted_pair()
    with pytest.raises(ValueError, match="label ranges differ") as composed:
        compose(ug, _vc_dict(r=3))
    with pytest.raises(ValueError, match="label ranges differ") as decoded:
        decode_labeling(ug, _vc_dict(r=3), ())
    assert str(decoded.value) == str(composed.value)
    with pytest.raises(ValueError, match="7 entries.* 8 vertices"):
        decode_labeling(ug, _vc_dict(r=2), (1,) * 7)


@functools.lru_cache(maxsize=None)
def _boolean_views(r):
    """A generated hypercube instance (one cube) and one read back from
    its file by ``dict_view`` (three cubes, the last at tilt 1)."""
    D = generate_dict(triangle_cover(), [F(1, 4), F(3, 4), F(1)], r,
                      F(1, 10), F(1, 4))
    text = io.serialize_instance(D.instance)
    return _vc_dict(r), dict_view(io.parse_instance(text))


def _planted(D, coords):
    """Copy u labeled by the dictator of coords[u], or all 1 when < 0."""
    return tuple(1 if c < 0 else y[c] for c in coords for _, y in D.points)


@st.composite
def decode_cases(draw):
    r = draw(st.integers(1, 4))
    game = _draw_game(draw, r, max_edges=6)
    D = draw(st.sampled_from(_boolean_views(r)))
    if draw(st.booleans()):
        labels = _planted(D, draw(st.lists(st.integers(-1, r - 1),
                                           min_size=game.n_left,
                                           max_size=game.n_left)))
    else:
        n = game.n_left * len(D.points)
        labels = tuple(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
    return (game, D, labels, draw(st.sampled_from((0.0, 0.05, 0.3))),
            draw(st.sampled_from((None, 1, 2))))


# R0 has degree 3, one of its edges weighs 0, and L2 has no positive edge
_DECODE_GAME = UgInstance(4, ("L0", "L1", "L2"), ("R0", "R1"), (
    (0, 0, F(1, 4), (1, 0, 3, 2)), (1, 0, F(1, 4), (0, 1, 2, 3)),
    (2, 0, F(0), (3, 2, 1, 0)), (0, 1, F(1, 2), (2, 3, 0, 1))))


def _decode_example(view, planted):
    D = _boolean_views(4)[view]
    n = 3 * len(D.points)
    labels = (_planted(D, (1, 1, 3)) if planted
              else tuple((i * 7 + i // 5) % 3 % 2 for i in range(n)))
    return (_DECODE_GAME, D, labels, 0.0, None)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(decode_cases())
@example(_decode_example(0, True))
@example(_decode_example(1, True))
@example(_decode_example(0, False))
@example(_decode_example(1, False))
def test_decode_matches_id_keyed_reference(case):
    game, D, labels, tau, d = case
    F_inst = compose(game, D)
    want = oracles.decode_reference(game, D, dict(zip(F_inst.vertex_ids,
                                                      labels)),
                                    tau=tau, d=d)
    assert decode_labeling(game, D, labels, tau=tau, d=d) == want
