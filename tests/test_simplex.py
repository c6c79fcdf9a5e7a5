"""Exact simplex: agreement with scipy, determinism, edge statuses."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog

from smcsp.simplex import (SimplexError, find_feasible_point,
                           solve_standard_form)


def _random_standard_form(rng, m, n):
    """A = [B | I] with random B keeps the system feasible for b >= 0."""
    A = [[F(rng.randint(-3, 3)) for _ in range(n)] + [F(int(i == j))
         for j in range(m)] for i in range(m)]
    b = [F(rng.randint(0, 5)) for _ in range(m)]
    c = [F(rng.randint(-4, 4)) for _ in range(n)] + [F(0)] * m
    return A, b, c


def test_matches_scipy_on_random_programs():
    rng = random.Random(41)
    hits = 0
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A, b, c = _random_standard_form(rng, m, n)
        res = linprog(np.array([float(v) for v in c]),
                      A_eq=np.array([[float(v) for v in row] for row in A]),
                      b_eq=np.array([float(v) for v in b]),
                      bounds=[(0, None)] * len(c), method="highs")
        got = solve_standard_form(A, b, c)
        if res.status == 0:
            assert got.status == "optimal"
            assert abs(float(got.objective) - res.fun) < 1e-7
            hits += 1
        elif res.status == 3:
            assert got.status == "unbounded"
        elif res.status == 2:
            assert got.status == "infeasible"
    assert hits >= 20


def test_solution_is_basic_and_exact():
    A = [[F(1), F(1), F(1)], [F(1), F(2), F(0)]]
    b = [F(1), F(1)]
    c = [F(3), F(1), F(2)]
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    assert res.objective == F(3, 2)
    assert res.values == [F(0), F(1, 2), F(1, 2)]
    assert res.basis == (1, 2)
    # constraints hold exactly
    for row, rhs in zip(A, b):
        assert sum(a * v for a, v in zip(row, res.values)) == rhs
    # no rows and no negative cost: the origin, with an empty basis
    for c in ([F(2), F(0), F(1, 3)], []):
        res = solve_standard_form([], [], c)
        assert res.status == "optimal"
        assert res.objective == 0
        assert res.values == [F(0)] * len(c)
        assert res.basis == ()


def test_deterministic_repeat():
    rng = random.Random(42)
    A, b, c = _random_standard_form(rng, 3, 3)
    first = solve_standard_form(A, b, c)
    second = solve_standard_form(A, b, c)
    assert first == second


def test_infeasible_detected():
    A = [[F(1)], [F(1)]]
    b = [F(1), F(2)]
    res = solve_standard_form(A, b, [F(0)])
    assert res.status == "infeasible"


def test_unbounded_detected():
    A = [[F(1), F(-1)]]
    b = [F(0)]
    res = solve_standard_form(A, b, [F(-1), F(0)])
    assert res.status == "unbounded"
    # no rows: any negative cost is unbounded along its own axis
    res = solve_standard_form([], [], [F(2), F(-1)])
    assert res.status == "unbounded"
    assert res.values is None and res.basis is None


def test_redundant_rows_are_dropped():
    A = [[F(1), F(1)], [F(2), F(2)]]
    b = [F(1), F(2)]
    res = solve_standard_form(A, b, [F(1), F(0)])
    assert res.status == "optimal"
    assert res.objective == 0
    assert len(res.basis) == 1


def test_degenerate_cycling_terminates():
    # Beale's classical cycling example; Bland's rule must terminate.
    A = [
        [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    b = [F(0), F(0), F(1)]
    c = [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)]
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    assert res.objective == F(-1, 20)


def test_find_feasible_point():
    A = [[F(1), F(1), F(-1)]]
    b = [F(2)]
    res = find_feasible_point(A, b)
    assert res.status == "optimal"
    assert sum(a * v for a, v in zip(A[0], res.values)) == b[0]
    assert all(v >= 0 for v in res.values)
    res = find_feasible_point([], [])
    assert res.status == "optimal" and res.values == []


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_standard_form([[F(1), F(2)]], [F(1), F(2)], [F(1), F(1)])


def test_negative_rhs_is_normalized():
    # min x st -x = -3  ->  x = 3
    res = solve_standard_form([[F(-1)]], [F(-3)], [F(1)])
    assert res.status == "optimal"
    assert res.values == [F(3)]


def test_simplex_error_type_exists():
    assert issubclass(SimplexError, RuntimeError)
