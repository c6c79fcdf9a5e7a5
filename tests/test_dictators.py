"""Hypercube blowup: generation, dictator costs, cube-level checks."""

import dataclasses
import functools
import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smcsp import distributions, io
from smcsp.caps import CapExceeded
from smcsp.dictators import (bucket_constant_opt, bucket_map,
                             completeness_check, cube_influence_rows,
                             cube_measure,
                             dict_vertex_id, dict_view,
                             dictator_assignment, dictator_weight,
                             extract_TJ, generate_dict,
                             parse_dict_vertex_id, pseudo_random_check,
                             tilted_value)
from smcsp.lp import edge_mixture
from smcsp.model import (assignment_cost, brute_force_opt, collapse,
                         covering_predicate, is_feasible, make_instance,
                         solution_from_assignments)
from smcsp.randgen import (hvc, random_cover_instance,
                           random_feasible_solution, random_instance,
                           random_subset_labels, ternary_chain, vc_edge)
from smcsp.rounding import perturb, round_solution
from smcsp.unique_games import UgInstance, completeness_solution


def _vc_dict(r=2, delta=F(1, 10), eps=F(1, 2)):
    inst = vc_edge()
    x = [F(1, 2), F(1, 2)]
    return inst, x, generate_dict(inst, x, r, delta, eps)


@functools.lru_cache(maxsize=None)
def _two_cube_dict(r: int):
    return generate_dict(vc_edge(), [F(0), F(1)], r, F(1, 10), F(1, 2))


# the complete 3-uniform cover on 4 vertices: its edges merge in I'
K4_3 = make_instance(2, [F(1, 4)] * 4, [covering_predicate(3)],
                     [(t, 0) for t in itertools.combinations(range(4), 3)])


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_bucket_map_groups_equal_values():
    m, values, bucket_of = bucket_map([F(1, 2), F(1, 3), F(1, 2)])
    assert m == 2
    assert values == (F(1, 2), F(1, 3))
    assert bucket_of == (0, 1, 0)


def test_tilted_value_binary():
    assert tilted_value(2, F(2, 5), F(1, 10)) == F(9, 10) * F(2, 5) \
        + F(1, 10)
    assert tilted_value(2, F(0), F(1, 3)) == F(1, 3)


def test_tilted_value_vector_moves_mass_to_top():
    pt = (F(1, 2), F(1, 4), F(1, 4))
    got = tilted_value(3, pt, F(1, 10))
    assert got == (F(9, 20), F(9, 40), F(9, 40) + F(1, 10))
    assert sum(got, F(0)) == 1


def test_cube_measure_is_product_measure():
    p = F(2, 5)
    assert cube_measure(2, p, (1, 0, 1)) == p * (1 - p) * p
    total = sum((cube_measure(2, p, (a, b)) for a in (0, 1)
                 for b in (0, 1)), F(0))
    assert total == 1


def test_vertex_id_round_trip():
    assert dict_vertex_id(3, (1, 0, 1)) == "b3:y101"
    assert parse_dict_vertex_id("b3:y101") == (3, (1, 0, 1))
    with pytest.raises(ValueError):
        parse_dict_vertex_id("nope")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generated_shape_and_weights():
    inst, x, D = _vc_dict(r=2)
    assert D.m == 1
    assert len(D.instance.vertex_ids) == D.m * 2 ** 2
    assert sum(D.instance.weights, F(0)) == 1
    assert D.source_value == F(1, 2)
    # every constraint uses the source predicate
    assert D.instance.predicates == inst.predicates


def test_generation_requires_on_grid_solution():
    inst = vc_edge()
    with pytest.raises(ValueError, match="grid"):
        generate_dict(inst, [F(1, 3), F(2, 3)], 2, F(1, 10), F(1, 2))


def test_generation_requires_feasible_solution():
    inst = vc_edge()
    with pytest.raises(ValueError, match="feasib"):
        generate_dict(inst, [F(0), F(1, 2)], 2, F(1, 10), F(1, 2))


def test_generation_parameter_validation():
    inst, x = vc_edge(), [F(1, 2), F(1, 2)]
    with pytest.raises(ValueError):
        generate_dict(inst, x, 0, F(1, 10), F(1, 2))
    with pytest.raises(ValueError):
        generate_dict(inst, x, 2, F(0), F(1, 2))
    with pytest.raises(ValueError):
        generate_dict(inst, x, 2, F(1), F(1, 2))


def test_generation_cap(monkeypatch):
    monkeypatch.setenv("SMCSP_CAP_DICT", "10")
    inst, x = vc_edge(), [F(1, 2), F(1, 2)]
    with pytest.raises(CapExceeded):
        generate_dict(inst, x, 12, F(1, 10), F(1, 2))


def test_support_cap_names_the_first_source_edge(monkeypatch):
    # edge 2 = (0, 2, 3) has 5 smoothed atoms; in I' it is edge 0
    monkeypatch.setenv("SMCSP_CAP_DICT", "6")
    with pytest.raises(CapExceeded) as exc:
        generate_dict(K4_3, [F(1, 2), F(1), F(1, 2), F(1, 2)], 3, F(1, 10),
                      F(1, 2))
    assert str(exc.value) == ("support tuples of edge #2: 125 exceeds 2^6 "
                              "(SMCSP_CAP_DICT)")


def test_hull_failure_comes_before_a_later_edges_expand_cap(monkeypatch):
    # the 3-ary edge sorts first in I', and its accepting set is over
    # the EXPAND cap; the earlier 2-ary edge is not hull-feasible
    inst = make_instance(2, [F(1, 4)] * 4,
                         [covering_predicate(2), covering_predicate(3)],
                         [((3, 2), 0), ((0, 1, 2), 1)])
    monkeypatch.setenv("SMCSP_CAP_EXPAND", "2")
    with pytest.raises(ValueError) as exc:
        generate_dict(inst, [F(1, 2), F(1, 2), F(0), F(0)], 1, F(1, 10),
                      F(1, 2))
    assert str(exc.value) == "edge 0: solution is not hull-feasible"


def test_one_phase1_solve_per_quotient_edge(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return edge_mixture(*args)

    monkeypatch.setattr(distributions, "edge_mixture", counted)
    x = [F(1, 2), F(1), F(1, 2), F(1, 2)]
    generate_dict(K4_3, x, 1, F(1, 10), F(1, 2))
    assert len(calls) == len(collapse(K4_3, bucket_map(x)[2]).edges) == 3


@st.composite
def snapped_sources(draw, covers=True):
    """A random or covering instance with a snapped hull-feasible point;
    ``random_instance`` gives each edge its own predicate, so covers are
    where edges merge in I'."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arity = draw(st.sampled_from([None, 2, 3])) if covers else None
    if arity is None:
        inst = random_instance(rng, draw(st.sampled_from([2, 3])),
                               draw(st.integers(2, 5)),
                               draw(st.integers(1, 3)))
    else:
        inst = random_cover_instance(rng, draw(st.integers(arity + 1, 6)),
                                     draw(st.integers(3, 12)), arity)
    eps = F(1, draw(st.sampled_from([2, 3])))
    x = perturb(inst, random_feasible_solution(rng, inst), eps).x_eps
    return inst, x, eps


@settings(derandomize=True, max_examples=100, deadline=None)
@given(snapped_sources(), st.integers(1, 2),
       st.sampled_from([F(1, 10), F(1, 3)]))
def test_blowup_is_the_blowup_of_the_quotient(case, r, delta):
    inst, x, eps = case
    _, values, bucket_of = bucket_map(x)
    quotient = collapse(inst, bucket_of)
    D = generate_dict(inst, x, r, delta, eps)
    D_quotient = generate_dict(quotient, list(values), r, delta, eps)
    assert (io.serialize_instance(D.instance)
            == io.serialize_instance(D_quotient.instance))
    assert D.source_value == D_quotient.source_value
    # and the blowup collapses back to I'
    assert collapse(D.instance, [b for b, _ in D.points]) == quotient


@settings(derandomize=True, max_examples=60, deadline=None)
@given(snapped_sources(), st.integers(1, 2),
       st.sampled_from([F(1, 10), F(1, 3)]), st.integers(0, 2**32 - 1))
def test_integer_weights_equal_the_fraction_formulas(case, r, delta, seed):
    inst, x, eps = case
    q = inst.q
    _, values, bucket_of = bucket_map(x)
    D = generate_dict(inst, x, r, delta, eps)
    # a part of the quotient weighs the Fraction sum of its members
    quotient = collapse(inst, bucket_of)
    assert quotient.weights == tuple(
        sum((w for w, b in zip(inst.weights, bucket_of) if b == part), F(0))
        for part in range(len(values)))
    # a blowup vertex weighs its cube's times the product of the tilted
    # masses of its string, multiplied out one Fraction at a time
    for w, (b, y) in zip(D.instance.weights, D.points):
        tilt = [(1 - delta) * a for a in
                ((1 - values[b], values[b]) if q == 2 else values[b])]
        tilt[-1] += delta
        prob = F(1)
        for a in y:
            prob *= tilt[a]
        assert w == quotient.weights[b] * prob
        assert cube_measure(q, D.tilde_values[b], y) == prob
    # a labeling costs the Fraction sum of weight times label
    rng = random.Random(seed)
    for target in (inst, quotient, D.instance):
        labels = [rng.randrange(q) for _ in range(target.n)]
        assert assignment_cost(target, labels) == sum(
            (w * a for w, a in zip(target.weights, labels)), F(0))


# ---------------------------------------------------------------------------
# dictators
# ---------------------------------------------------------------------------

def test_every_dictator_is_feasible_at_the_exact_cost():
    for r in (1, 2, 3):
        inst, x, D = _vc_dict(r=r)
        want = oracles.dictator_weight(F(1, 2), F(1, 10), 2)
        assert dictator_weight(D) == want
        for i in range(r):
            labels = dictator_assignment(D, i)
            assert is_feasible(D.instance, labels)
            assert assignment_cost(D.instance, labels) == want


def test_completeness_check_report():
    D = _vc_dict(r=2)[2]
    report = completeness_check(D)
    assert report["dictator_cost"] == F(11, 20)
    assert report["bound"] == F(3, 5)
    assert report["costs"] == [F(11, 20)] * 2


def test_ternary_dictators():
    inst = ternary_chain()
    # mixing integral feasible assignments keeps the point in the hull
    x = solution_from_assignments(inst, [(0, 2, 1), (2, 2, 2)],
                                  [F(1, 2), F(1, 2)])
    D = generate_dict(inst, x, 2, F(1, 5), F(1, 2))
    report = completeness_check(D)
    want = oracles.dictator_weight(report["value"], F(1, 5), 3)
    assert report["dictator_cost"] == want


@pytest.mark.parametrize("call, message", [
    (lambda: dictator_assignment(_vc_dict(r=2)[2], 2),
     "coordinate 2 out of range for r=2"),
    (lambda: dictator_assignment(_vc_dict(r=2)[2], -1),
     "coordinate -1 out of range for r=2"),
    (lambda: extract_TJ(generate_dict(ternary_chain(), [(F(0), F(0), F(1))]
                                      * 3, 1, F(1, 10), F(1, 2)), []),
     "subset analysis is defined for q = 2 only"),
    # only edge 3 = (1, 2, 3) falls short, and it is edge 2 of I':
    # errors name the source edge
    (lambda: generate_dict(K4_3, [F(1), F(0), F(0), F(1, 2)], 2,
                           F(1, 10), F(1, 2)),
     "edge 3: solution is not hull-feasible"),
])
def test_bad_input_messages_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# cube-level structure
# ---------------------------------------------------------------------------

def test_bucket_constant_opt_equals_rounding():
    rng = random.Random(223)
    cases = [_vc_dict(r=r) + (F(1, 2),) for r in (1, 2)]
    for _ in range(8):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 5),
                               rng.randint(1, 3))
        eps = F(1, rng.choice([2, 3]))
        x = perturb(inst, random_feasible_solution(rng, inst), eps).x_eps
        cases.append((inst, x, generate_dict(inst, x, rng.choice([1, 2]),
                                             F(1, 10), eps), eps))
    for inst, x, D, eps in cases:
        bco, labels = bucket_constant_opt(D)
        assert bco == round_solution(inst, x, eps).value
        assert is_feasible(D.instance, tuple(labels[b] for b, _ in
                                             D.points))
        # the oracle groups by cube index, so its bucket order is D's
        # first-occurrence cube order instead of sorted snapped values
        edges = [(list(e.vertices), [list(m) for m in
                  inst.predicates[e.predicate].minimal])
                 for e in inst.edges]
        bucket_of = bucket_map(x)[2]
        want, want_labels = oracles.round_by_enumeration(
            D.q, list(inst.weights), list(bucket_of), edges)
        assert bco == want
        assert tuple(labels[b] for b in bucket_of) == want_labels


def test_dict_opt_between_lp_and_dictator_cost():
    inst, x, D = _vc_dict(r=2)
    opt, witness = brute_force_opt(D.instance)
    assert opt <= dictator_weight(D)
    assert is_feasible(D.instance, witness)


def test_extract_tj_bound_on_random_selections():
    rng = random.Random(211)
    inst, x, D = _vc_dict(r=3)
    n = len(D.instance.vertex_ids)
    for _ in range(200):
        labels = random_subset_labels(rng, n)
        report = extract_TJ(D, labels)
        assert report["weight_TJ"] <= report["weight_S"] + D.delta
        if not report["feasible"]:
            assert report["violated_edge"] is not None


def test_extract_tj_collects_almost_covered_cubes():
    inst, x, D = _vc_dict(r=3)
    n = len(D.instance.vertex_ids)
    full = extract_TJ(D, (1,) * n)
    assert full["J"] == tuple(range(D.m))
    assert full["feasible"]
    assert full["weight_TJ"] == full["weight_S"] == 1
    # a dictator covers just over half of each cube, far from delta-full
    sparse = extract_TJ(D, dictator_assignment(D, 1))
    assert sparse["J"] == ()
    assert not sparse["feasible"]
    assert sparse["violated_edge"] is not None


def test_pseudo_random_check_flags_dictators():
    inst, x, D = _vc_dict(r=3)
    labels = dictator_assignment(D, 0)
    tilde = D.tilde_values[0]
    report = pseudo_random_check(D, labels, F(0), 3)
    assert report["max_influence"] == tilde * (1 - tilde)
    assert not report["pseudo_random"]
    assert report["argmax"][1] == 0


def test_pseudo_random_check_passes_constants():
    inst, x, D = _vc_dict(r=3)
    labels = (1,) * len(D.instance.vertex_ids)
    report = pseudo_random_check(D, labels, F(0), 3)
    assert report["max_influence"] == 0
    assert report["pseudo_random"]


_TINY = F(1, 10**400)  # below the smallest float: 0.0 once converted
_TILTS = (st.fractions(0, 1, max_denominator=30)
          | st.sampled_from([F(0), F(1), _TINY, 1 - _TINY]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_cube_influence_rows_match_the_old_reader(data):
    """One reader and ``fourier.influences`` give the rows that the old
    per-cube tables and wrapper gave at their two call sites: the exact
    tilt under ``analyze influences``, its float under ``decode``.
    Values and types are compared."""
    r = data.draw(st.integers(1, 6), label="r")
    exact = data.draw(st.booleans(), label="exact")
    D = _two_cube_dict(r)
    D = dataclasses.replace(D, tilde_values=tuple(
        data.draw(st.lists(_TILTS, min_size=D.m, max_size=D.m),
                  label="tilts")))
    entry = (st.integers(0, 1) | st.fractions(-2, 2, max_denominator=6)
             if exact else st.floats(-2, 2))
    values = data.draw(st.lists(entry, min_size=len(D.points),
                                max_size=len(D.points)), label="values")
    d = data.draw(st.integers(0, r + 1), label="d")
    got = cube_influence_rows(D, values, d)
    want = [oracles.cube_influences(table, tilt if exact else float(tilt), d)
            for table, tilt in zip(oracles.cube_tables(D, values),
                                   D.tilde_values)]
    assert got == want
    assert ([[type(v) for v in row] for row in got]
            == [[type(v) for v in row] for row in want])


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_dict_view_recovers_structure():
    inst, x, D = _vc_dict(r=2)
    text = io.serialize_instance(D.instance)
    view = dict_view(io.parse_instance(text))
    assert view.r == D.r
    assert view.m == D.m
    assert view.bucket_weights == D.bucket_weights
    assert view.tilde_values == D.tilde_values
    assert view.points == D.points
    assert view.instance == D.instance


@st.composite
def generated_dicts(draw):
    """A blowup of a random instance at a snapped hull-feasible point."""
    inst, x, eps = draw(snapped_sources(covers=False))
    delta = draw(st.sampled_from([F(1, 10), F(1, 3)]))
    return inst, x, generate_dict(inst, x, draw(st.integers(1, 2)), delta,
                                  eps)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(generated_dicts())
def test_written_blowup_reads_back_as_generated(case):
    inst, x, D = case
    view = dict_view(io.parse_instance(io.serialize_instance(D.instance)))
    for field in ("r", "m", "tilde_values", "bucket_weights", "points"):
        assert getattr(view, field) == getattr(D, field)
    # what the file records is the tilt and weight of each source bucket
    m, values, bucket_of = bucket_map(x)
    assert D.tilde_values == tuple(tilted_value(D.q, p, D.delta)
                                   for p in values)
    assert D.bucket_weights == tuple(
        sum((w for w, b in zip(inst.weights, bucket_of) if b == c), F(0))
        for c in range(m))


def test_views_have_no_generation_parameters():
    D = _vc_dict(r=2)[2]
    view = dict_view(D.instance)
    game = UgInstance(2, ("L",), ("R",), ((0, 0, F(1), (0, 1)),))
    no_params = "a hypercube view has no delta, eps or source value"
    with pytest.raises(ValueError, match=no_params):
        extract_TJ(view, dictator_assignment(view, 0))
    with pytest.raises(ValueError, match=no_params):
        completeness_check(view)
    with pytest.raises(ValueError, match=no_params):
        completeness_solution(game, {"L": 0, "R": 0}, view, lp_value=F(1, 2))


def test_dict_view_rejects_non_blowup_instances():
    with pytest.raises(ValueError):
        dict_view(hvc(3))
    # an id that parses to the canonical (b, y) but is not spelled so
    D = _vc_dict()[2].instance
    ids = [vid.replace("b0:", "b00:") for vid in D.vertex_ids]
    inst = make_instance(D.q, D.weights, D.predicates, D.edges, ids)
    with pytest.raises(ValueError, match="in canonical order"):
        dict_view(inst)
    # a cube or label part that is not plain digits
    for bad in ("b+0:y00", "b0:y+0"):
        inst = make_instance(D.q, D.weights, D.predicates, D.edges,
                             (bad,) + D.vertex_ids[1:])
        with pytest.raises(ValueError, match=re.escape(
                f"not a hypercube vertex id: {bad!r}")):
            dict_view(inst)
    # too few ids for the largest cube index, rejected before enumerating
    inst = make_instance(2, [F(1, 2)] * 2, [], [], ["b0:y0", "b3:y0"])
    with pytest.raises(ValueError, match="in canonical order"):
        dict_view(inst)
