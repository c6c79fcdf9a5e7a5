"""Edge distributions: extraction, smoothing, correlation, expansion."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smcsp.distributions import (cheeger_check, expected_margin,
                                 extract_edge_distribution, joint_matrix,
                                 margin, maximal_correlation,
                                 min_atom, restrict, smooth)
from smcsp.lp import solve_lp
from smcsp.model import upward_closure
from smcsp.randgen import (hvc, random_feasible_solution, random_instance,
                           vc_edge)


def _dist(inst, x, e=0):
    return extract_edge_distribution(inst, x, e)


def test_extracted_atoms_live_on_accepted_tuples():
    rng = random.Random(61)
    for _ in range(20):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 4),
                               rng.randint(1, 3))
        x = solve_lp(inst).x
        for e, edge in enumerate(inst.edges):
            dist = _dist(inst, x, e)
            accepted = set(upward_closure(inst.predicates[edge.predicate]))
            total = F(0)
            for t, p in dist.atoms:
                assert t in accepted
                assert p > 0
                total += p
            assert total == 1


def test_margins_match_the_solution():
    inst = vc_edge()
    x = [F(1, 3), F(2, 3)]
    dist = _dist(inst, x)
    assert margin(dist, 0) == (F(2, 3), F(1, 3))
    assert margin(dist, 1) == (F(1, 3), F(2, 3))


def test_smooth_margins_shift_toward_top():
    rng = random.Random(67)
    for _ in range(15):
        q = rng.choice([2, 3])
        inst = random_instance(rng, q, rng.randint(2, 4), 1)
        x = random_feasible_solution(rng, inst)
        dist = _dist(inst, x)
        delta = F(1, rng.choice([3, 10]))
        sm = smooth(dist, delta)
        for i in range(dist.arity):
            before = margin(dist, i)
            after = margin(sm, i)
            for a in range(q):
                want = (1 - delta) * before[a]
                if a == q - 1:
                    want += delta
                assert after[a] == want
        assert sum((p for _, p in sm.atoms), F(0)) == 1


def test_expected_margin_helper_agrees():
    pt = (F(1, 2), F(1, 4), F(1, 4))
    assert expected_margin(3, pt) == pt
    delta = F(1, 10)
    got = expected_margin(3, pt, delta)
    assert got == (F(9, 20), F(9, 40), F(9, 40) + F(1, 10))


def test_smoothed_min_atom_bound():
    rng = random.Random(71)
    for _ in range(15):
        q = rng.choice([2, 3])
        inst = random_instance(rng, q, rng.randint(2, 4), 1)
        x = random_feasible_solution(rng, inst)
        dist = _dist(inst, x)
        delta = F(1, rng.choice([3, 5, 10]))
        sm = smooth(dist, delta)
        alpha = min_atom(dist)
        assert min_atom(sm) >= delta ** sm.arity * alpha


@st.composite
def solved_instances(draw):
    """A random instance with q in {2, 3} and a hull-feasible solution."""
    q = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    inst = random_instance(rng, q, draw(st.integers(2, 5)),
                           draw(st.integers(1, 3)))
    return inst, random_feasible_solution(rng, inst)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(solved_instances(), st.sampled_from([F(1, 10), F(1, 3)]))
def test_smoothed_margins_and_min_atom(solved, delta):
    inst, x = solved
    for e, edge in enumerate(inst.edges):
        dist = _dist(inst, x, e)
        sm = smooth(dist, delta)
        for i, v in enumerate(edge.vertices):
            assert margin(sm, i) == expected_margin(inst.q, x[v], delta)
        assert min_atom(sm) >= delta ** len(edge.vertices) * min_atom(dist)


def test_smooth_keeps_support_accepted():
    inst = hvc(3)
    dist = _dist(inst, [F(1, 3)] * 3)
    sm = smooth(dist, F(1, 10))
    accepted = set(upward_closure(inst.predicates[0]))
    assert all(t in accepted for t, _ in sm.atoms)


def test_restrict_marginalizes():
    inst = hvc(3)
    dist = _dist(inst, [F(1, 3)] * 3)
    pair = restrict(dist, [0, 2])
    assert sum(pair.values(), F(0)) == 1
    single = restrict(dist, [1])
    assert single == {(a,): p for a, p in enumerate(margin(dist, 1))
                      if p > 0}


def test_joint_matrix_entries_sum_to_one():
    inst = hvc(3)
    dist = smooth(_dist(inst, [F(1, 3)] * 3), F(1, 10))
    rows, cols, M = joint_matrix(dist, [0], [1, 2])
    assert len(M) == len(rows) and len(M[0]) == len(cols)
    assert sum((sum(row, F(0)) for row in M), F(0)) == 1


def test_binary_maximal_correlation_is_pearson():
    rng = random.Random(73)
    for _ in range(20):
        inst = random_instance(rng, 2, 2, 1)
        if inst.predicates[inst.edges[0].predicate].arity != 2:
            continue
        x = random_feasible_solution(rng, inst)
        dist = smooth(_dist(inst, x), F(1, 7))
        rho = maximal_correlation(dist, [0], [1])
        joint = {t: float(p) for t, p in dist.atoms}
        assert abs(rho - oracles.pearson_2x2(joint)) < 1e-9


def test_smoothed_covering_edge_correlation_closed_form():
    dist = smooth(_dist(vc_edge(), [F(1, 2), F(1, 2)]), F(1, 10))
    rho = maximal_correlation(dist, [0], [1])
    assert abs(rho - float(oracles.VC_SMOOTHED_CORRELATION)) < 1e-12


def test_correlation_bounds():
    inst = hvc(3)
    dist = smooth(_dist(inst, [F(1, 3)] * 3), F(1, 10))
    for split in ([0], [1], [2], [0, 1], [0, 2]):
        other = [i for i in range(3) if i not in split]
        rho = maximal_correlation(dist, split, other)
        assert -1e-12 <= rho <= 1 + 1e-12


def test_correlation_of_product_distribution_is_zero():
    # single-vertex constraints make the two coordinates independent
    inst = random_instance(random.Random(79), 2, 2, 0)
    # build a two-coordinate product by hand through a trivial edge
    from smcsp.distributions import EdgeDistribution
    atoms = []
    for a in range(2):
        for b in range(2):
            p = (F(1, 3) if a else F(2, 3)) * (F(1, 4) if b else F(3, 4))
            atoms.append(((a, b), p))
    dist = EdgeDistribution(2, 2, None, tuple(sorted(atoms)))
    assert maximal_correlation(dist, [0], [1]) < 1e-9


def test_cheeger_check_on_smoothed_edge():
    dist = smooth(_dist(vc_edge(), [F(1, 2), F(1, 2)]), F(1, 10))
    report = cheeger_check(dist, [0], [1])
    assert report["connected"]
    assert report["alpha"] == min_atom(dist)
    assert report["rho"] <= report["bound"]
    assert report["ok"]


def test_cheeger_skips_disconnected_support():
    from smcsp.distributions import EdgeDistribution
    atoms = (((0, 0), F(1, 2)), ((1, 1), F(1, 2)))
    dist = EdgeDistribution(2, 2, None, atoms)
    report = cheeger_check(dist, [0], [1])
    assert not report["connected"]
    # the bound is only claimed for connected supports; the report says
    # so instead of failing
    assert report["ok"]
    assert report["rho"] > report["bound"]


def test_unsmoothed_deterministic_edge_hits_correlation_one():
    dist = _dist(vc_edge(), [F(0), F(1)])
    assert abs(maximal_correlation(dist, [0], [1])) < 1e-9
    # a pinned pair: both coordinates equal
    from smcsp.distributions import EdgeDistribution
    atoms = (((0, 1), F(1, 2)), ((1, 0), F(1, 2)))
    dist = EdgeDistribution(2, 2, None, atoms)
    assert abs(maximal_correlation(dist, [0], [1]) - 1.0) < 1e-9


def test_split_validation():
    dist = _dist(hvc(3), [F(1, 3)] * 3)
    with pytest.raises(ValueError):
        maximal_correlation(dist, [0], [0, 1])
    with pytest.raises(ValueError):
        maximal_correlation(dist, [], [0, 1])
    with pytest.raises(ValueError):
        maximal_correlation(dist, [0, 1], [2, 3])


@pytest.mark.parametrize("delta", [0, 1])
def test_smoothing_needs_delta_strictly_inside(delta):
    dist = _dist(vc_edge(), [F(1, 2)] * 2)
    with pytest.raises(ValueError) as exc:
        smooth(dist, delta)
    assert str(exc.value) == f"delta must be in (0, 1), got {delta}"
