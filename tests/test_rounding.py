"""Grid snapping and bucket rounding.

The snapping rule for q > 2 processes coordinates from the top label
down, so probability mass only ever moves up.  The regression tests pin
a concrete instance where rounding the low labels up instead (zeroing
the top) pushes a feasible solution out of the hull.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smcsp.caps import CapExceeded
from smcsp.lp import check_feasible_fractional, lp_value, solve_lp, val
from smcsp.model import (Predicate, brute_force_opt, collapse, label_point,
                         make_instance, mix_points, point_in_domain,
                         point_value, tilted_value)
from smcsp.randgen import (hvc, random_cover_instance,
                           random_feasible_solution, random_instance,
                           ternary_chain, vc_edge)
from smcsp.rounding import (check_grid_fraction, grid_points, grid_size,
                            integrality_report, perturb, perturb_point,
                            round_solution, verify_perturbation)


# ---------------------------------------------------------------------------
# grid fractions
# ---------------------------------------------------------------------------

def test_grid_fraction_must_be_unit_fraction():
    assert check_grid_fraction(F(1, 6)) == F(1, 6)
    for bad in (F(2, 5), F(0), F(3, 2), -F(1, 4)):
        with pytest.raises(ValueError):
            check_grid_fraction(bad)
        # the snap of one point reads eps as 1/steps, so it checks too
        with pytest.raises(ValueError, match="1/eps integral"):
            perturb_point(2, F(1, 3), bad)


# ---------------------------------------------------------------------------
# scalar snapping (q = 2)
# ---------------------------------------------------------------------------

def test_binary_snap_is_ceil_except_zero():
    eps = F(1, 4)
    assert perturb_point(2, F(0), eps) == 0
    assert perturb_point(2, F(2, 5), eps) == F(1, 2)
    assert perturb_point(2, F(1, 4), eps) == F(1, 4)
    assert perturb_point(2, F(1, 100), eps) == F(1, 4)
    assert perturb_point(2, F(1), eps) == 1


def test_binary_snap_increase_is_below_eps():
    rng = random.Random(13)
    eps = F(1, 5)
    for _ in range(100):
        a = F(rng.randint(0, 60), 60)
        snapped = perturb_point(2, a, eps)
        assert 0 <= snapped - a < eps or (a == 0 and snapped == 0)


# ---------------------------------------------------------------------------
# vector snapping (q > 2)
# ---------------------------------------------------------------------------

def test_ternary_snap_worked_example():
    got = perturb_point(3, (F(3, 10), F(3, 10), F(2, 5)), F(1, 2))
    assert got == (0, F(1, 2), F(1, 2))


def test_snap_restricted_to_two_labels_matches_scalar_rule():
    rng = random.Random(29)
    for _ in range(200):
        eps = F(1, rng.randint(2, 6))
        a = F(rng.randint(0, 24), 24)
        vec = perturb_point(3, (1 - a, F(0), a), eps)
        scalar = perturb_point(2, a, eps)
        assert vec == (1 - scalar, 0, scalar)


def _upper_tails(q, pt):
    return [sum(pt[i:], F(0)) for i in range(q)]


def test_snap_moves_mass_only_upward():
    rng = random.Random(31)
    for _ in range(300):
        q = rng.choice([3, 4])
        eps = F(1, rng.randint(2, 6))
        cuts = sorted(F(rng.randint(0, 24), 24) for _ in range(q - 1))
        pt = tuple(b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)]))
        snapped = perturb_point(q, pt, eps)
        assert sum(snapped, F(0)) == 1
        assert all(a >= 0 for a in snapped)
        assert snapped in set(grid_points(q, eps))
        for before, after in zip(_upper_tails(q, pt),
                                 _upper_tails(q, snapped)):
            assert after >= before


def test_snap_is_idempotent():
    rng = random.Random(37)
    for _ in range(100):
        q = rng.choice([2, 3, 4])
        eps = F(1, rng.randint(2, 5))
        cuts = sorted(F(rng.randint(0, 20), 20) for _ in range(q - 1))
        pt = tuple(b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)]))
        if q == 2:
            pt = pt[1]
        once = perturb_point(q, pt, eps)
        assert perturb_point(q, once, eps) == once


def test_grid_point_counts():
    assert grid_points(2, F(1, 4)) == [0, F(1, 4), F(1, 2), F(3, 4), 1]
    assert grid_size(2, F(1, 6)) == 7
    assert grid_size(3, F(1, 2)) == len(grid_points(3, F(1, 2))) == 6
    assert grid_size(3, F(1, 3)) == 10
    assert grid_size(3, F(1, 4)) == 15
    assert grid_size(4, F(1, 2)) == 10
    assert grid_size(4, F(1, 3)) == 20
    assert grid_size(4, F(1, 4)) == 35
    assert grid_size(5, F(1, 2)) == 15
    assert grid_size(5, F(1, 3)) == 35
    for q in (2, 3, 4, 5):
        for k in range(1, 7):
            points = grid_points(q, F(1, k))
            assert grid_size(q, F(1, k)) == len(points) == len(set(points))
            assert points == sorted(points)


def _embed(a):
    """The q = 2 point a as a ternary distribution with no mass on 1."""
    return (1 - a, F(0), a)


_unit = st.fractions(min_value=0, max_value=1, max_denominator=60)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_unit, _unit, _unit, st.integers(1, 8),
       st.fractions(min_value=-2, max_value=3, max_denominator=12))
def test_binary_points_embed_in_the_ternary_simplex(a, b, c, k, any_x):
    # x -> (1 - x, 0, x) commutes with tilt, snap, mix and domain, and
    # doubles the expected label
    eps = F(1, k)
    assert tilted_value(3, _embed(a), c) == _embed(tilted_value(2, a, c))
    assert perturb_point(3, _embed(a), eps) == _embed(
        perturb_point(2, a, eps))
    assert mix_points(3, [_embed(a), _embed(b)], [c, 1 - c]) == _embed(
        mix_points(2, [a, b], [c, 1 - c]))
    assert point_value(3, _embed(a)) == 2 * point_value(2, a)
    assert point_in_domain(3, _embed(any_x)) == point_in_domain(2, any_x)


def test_grid_points_are_snap_fixed_points():
    # the corners, 0 and 1 for q = 2, included; the Fraction rule agrees
    for q in (2, 3, 4):
        for k in range(1, 13):
            eps = F(1, k)
            corners = [label_point(q, a) for a in range(q)]
            for pt in grid_points(q, eps) + corners:
                assert perturb_point(q, pt, eps) == pt
                assert repr(perturb_point(q, pt, eps)) == repr(
                    oracles.snap_by_fractions(q, pt, eps))


@st.composite
def snap_inputs(draw):
    """``(q, eps, points)``: eps = 1/k with k <= 12 and points in the
    domain, each drawn on a random denominator or on the grid itself,
    so grid points and the corners 0 and 1 come up too."""
    q = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, 12))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        den = draw(st.one_of(st.just(k), st.integers(1, 120)))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=q - 1,
                                    max_size=q - 1)))
        dist = [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
        points.append(dist[1] if q == 2 else tuple(dist))
    return q, F(1, k), points


@settings(derandomize=True, max_examples=300, deadline=None)
@given(snap_inputs())
def test_integer_snap_equals_the_fraction_snap(case):
    q, eps, points = case
    want = [oracles.snap_by_fractions(q, pt, eps) for pt in points]
    # repr also tells an int coordinate from a Fraction one
    assert [repr(perturb_point(q, pt, eps)) for pt in points] == \
        [repr(pt) for pt in want]
    inst = make_instance(q, [F(1, len(points))] * len(points), [], [])
    pert = perturb(inst, points, eps)
    assert pert.x_eps == want
    assert pert.bucket_values == sorted(set(want))
    assert [pert.bucket_values[b] for b in pert.bucket_of] == want


# ---------------------------------------------------------------------------
# feasibility preservation (the regression the top-down rule fixes)
# ---------------------------------------------------------------------------

def _pinning_instance():
    pred = Predicate("p0", 3, 3, ((0, 2, 1), (2, 0, 0)))
    return make_instance(3, [F(3, 8), F(9, 16), F(1, 16)], [pred],
                         [((0, 2, 1), 0)])


def test_regression_snapped_solution_stays_in_hull():
    inst = _pinning_instance()
    x = [(F(0), F(5, 22), F(17, 22)),
         (F(0), F(17, 22), F(5, 22)),
         (F(17, 22), F(0), F(5, 22))]
    assert check_feasible_fractional(inst, x)
    report = verify_perturbation(inst, x, F(1, 4))
    assert report["feasible_before"]
    assert report["feasible_after"]
    assert report["increase"] >= 0
    assert report["ok"]


def test_perturbation_report_on_random_feasible_solutions():
    rng = random.Random(43)
    checked = 0
    for _ in range(60):
        q = rng.choice([2, 3])
        inst = random_instance(rng, q, rng.randint(2, 4), rng.randint(1, 3))
        x = random_feasible_solution(rng, inst)
        if not check_feasible_fractional(inst, x):
            continue
        eps = F(1, rng.choice([2, 3, 4, 5]))
        report = verify_perturbation(inst, x, eps)
        assert report["ok"], report
        assert report["increase"] <= eps * q * q
        checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# bucket rounding
# ---------------------------------------------------------------------------

def test_round_matches_enumeration_oracle():
    rng = random.Random(47)
    for _ in range(25):
        q = rng.choice([2, 3])
        inst = random_instance(rng, q, rng.randint(2, 4), rng.randint(1, 3))
        x = solve_lp(inst).x
        eps = F(1, rng.choice([2, 3, 4]))
        result = round_solution(inst, x, eps)
        snapped = perturb(inst, x, eps).x_eps
        edges = [([v for v in e.vertices], [list(m) for m in
                  inst.predicates[e.predicate].minimal])
                 for e in inst.edges]
        want, want_labels = oracles.round_by_enumeration(
            q, list(inst.weights), snapped, edges)
        assert result.value == want
        assert result.labels == want_labels
        assert result.value >= brute_force_opt(inst)[0]


def test_round_equals_opt_of_bucket_collapsed_instance():
    rng = random.Random(53)
    for _ in range(15):
        q = rng.choice([2, 3])
        inst = random_instance(rng, q, rng.randint(2, 4), rng.randint(1, 3))
        x = solve_lp(inst).x
        eps = F(1, 3)
        collapsed = collapse(inst, perturb(inst, x, eps).bucket_of)
        assert round_solution(inst, x, eps).value == \
            brute_force_opt(collapsed)[0]


def test_round_uniform_covering_solution_to_all_top():
    inst = hvc(3)
    result = round_solution(inst, [F(1, 3)] * 3, F(1, 6))
    assert result.value == 1
    assert result.labels == (1, 1, 1)


def test_round_result_is_lexicographically_least():
    inst = vc_edge()
    result = round_solution(inst, [F(1, 2), F(1, 2)], F(1, 2))
    # one bucket; (1,) is the cheapest feasible bucket labeling
    assert result.labels == (1, 1)
    assert result.value == 1


def test_round_cap(monkeypatch):
    monkeypatch.setenv("SMCSP_CAP_ENUM", "1")
    inst = hvc(4)
    with pytest.raises(CapExceeded):
        round_solution(inst, solve_lp(inst).x, F(1, 4))


@st.composite
def lp_instances(draw):
    q = draw(st.sampled_from([2, 3]))
    n, m = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if q == 2 and draw(st.booleans()):
        # covering LPs have fractional optima, which the snap moves; the
        # optima of random monotone instances are nearly always integral
        arity = draw(st.integers(2, min(3, n)))
        return random_cover_instance(rng, n, m, arity)
    return random_instance(rng, q, n, m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lp_instances(), st.integers(2, 6))
def test_lp_opt_round_sandwich_and_snap_increase(inst, k):
    eps = F(1, k)
    sol = solve_lp(inst)
    assert (sol.objective <= brute_force_opt(inst)[0]
            <= round_solution(inst, sol.x, eps).value)
    increase = val(inst, perturb(inst, sol.x, eps).x_eps) - sol.objective
    assert 0 <= increase <= (eps if inst.q == 2 else eps * inst.q ** 2)


def test_integrality_report_fields_are_consistent():
    inst = ternary_chain()
    rep = integrality_report(inst, F(1, 4))
    assert rep["lp"] == lp_value(inst)
    assert rep["opt"] == brute_force_opt(inst)[0]
    assert rep["round"] >= rep["opt"] >= rep["lp"]
    assert rep["round_over_opt"] == rep["round"] / rep["opt"]
    assert val(inst, rep["lp_x"]) == rep["lp"]
