"""Exact simplex: agreement with scipy, determinism, edge statuses."""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from smcsp import caps, io, lp, randgen, simplex
from smcsp.caps import CapExceeded
from smcsp.rounding import perturb
from smcsp.simplex import find_feasible_point, solve_standard_form

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


# two phase-1 pivots and one phase-2 pivot
BASIC = ([[F(1), F(1), F(1)], [F(1), F(2), F(0)]], [F(1), F(1)],
         [F(3), F(1), F(2)])


def test_solution_is_basic_and_exact():
    A, b, c = BASIC
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    assert res.objective == F(3, 2)
    assert res.values == [F(0), F(1, 2), F(1, 2)]
    assert res.basis == (1, 2)
    # constraints hold exactly
    for row, rhs in zip(A, b):
        assert sum(a * v for a, v in zip(row, res.values)) == rhs
    # int input gives the same result
    assert solve_standard_form([[int(a) for a in row] for row in A],
                               [int(v) for v in b],
                               [int(v) for v in c]) == res
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


def test_drive_out_updates_every_row():
    # phase 1 ends with row 1's artificial basic at zero; driving it out
    # on column 1 must also update row 0, which phase 2 then reads
    A, b, c = [[2, 1, 1, 2], [1, -1, -1, 0]], [0, 0], [1, 1, -1, 1]
    got = solve_standard_form(A, b, c)
    assert got.basis == (0, 2)
    assert (got.status, got.objective, got.values, got.basis) == \
        oracles.bland_dense(A, b, c)


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


# odd denominators above 2**65: the reduced fraction keeps a
# denominator above 2**64 for every numerator drawn
_HUGE = st.builds(lambda k, s, d: k + F(s, 2**65 + 2 * d + 1),
                  st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2]),
                  st.integers(0, 40))


@st.composite
def standard_forms(draw):
    """``(A, b, c, huge)`` of int and Fraction entries: negative ``b``,
    zero right-hand sides (degenerate ratio ties), copied and all-zero
    rows, empty ``A`` and, when ``huge``, entries whose denominators
    exceed 2**64."""
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 6))
    huge = draw(st.booleans())
    small = st.sampled_from([0, 0, 0, 1, 1, -1, 2, -2, F(1, 2), F(-1, 3)])
    entry = st.one_of(small, _HUGE) if huge else small
    if draw(st.booleans()):  # mostly zero: ties in every ratio test
        rhs = st.sampled_from([0, 0, 0, 0, 0, 1, -1])
    else:
        rhs = st.sampled_from([0, 0, 1, 2, -1, -3, F(1, 2)])
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(rhs) for _ in range(m)]
    for kind in draw(st.lists(st.sampled_from(["copy", "zero", "bad"]),
                              max_size=2)):
        if kind == "copy" and A:
            i = draw(st.integers(0, len(A) - 1))
            k = F(draw(st.sampled_from([1, -1, 2, F(1, 3)])))
            A.append([k * a for a in A[i]])
            b.append(k * b[i])
        else:  # a zero row, consistent unless "bad"
            A.append([0] * n)
            b.append(int(kind == "bad"))
    order = draw(st.permutations(range(len(A))))
    A, b = [A[i] for i in order], [b[i] for i in order]
    c = [draw(st.sampled_from([0, 1, -1, 3, -2, F(1, 4)])) for _ in range(n)]
    return A, b, c, huge


@settings(derandomize=True, max_examples=400, deadline=None)
@given(standard_forms())
def test_matches_dense_bland_oracle(lp_input):
    A, b, c, huge = lp_input
    got = solve_standard_form(A, b, c)
    status, objective, values, basis = oracles.bland_dense(A, b, c)
    assert got.status == status
    assert got.basis == basis
    assert got.values == values
    assert got.objective == objective
    # floats cannot hold the 2**-65 offsets of the huge entries, and
    # linprog needs a column
    if status != "optimal" or huge or not c:
        return
    res = linprog(np.array([float(v) for v in c]),
                  A_eq=np.array([[float(a) for a in row] for row in A])
                  if A else None,
                  b_eq=np.array([float(v) for v in b]) if A else None,
                  bounds=[(0, None)] * len(c), method="highs")
    assert res.status == 0, res.message
    assert abs(res.fun - float(objective)) <= 1e-7 * (1 + abs(res.fun))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(2, 6), st.integers(1, 6),
       st.integers(0, 2**32))
def test_hull_lps_match_dense_bland_oracle(q, n, m, seed):
    # real hull tableaux: integer rows, unit pivots, degenerate ties
    prob = lp.build_lp(randgen.random_instance(random.Random(seed), q, n, m))
    got = solve_standard_form(prob.A, prob.b, prob.c)
    assert (got.status, got.objective, got.values, got.basis) == \
        oracles.bland_dense(prob.A, prob.b, prob.c)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(standard_forms())
# feasible; infeasible; a copied row and a zero row, both redundant
@example(([[1, 1, -1]], [2], [], False))
@example(([[1, 1], [1, 1]], [1, 2], [], False))
@example(([[1, 2, 0], [2, 4, 0], [0, 0, 0]], [1, 2, 0], [], False))
def test_find_feasible_point_is_phase_one_of_the_zero_cost_solve(lp_input):
    A, b = lp_input[:2]
    n = len(A[0]) if A else 0
    got = find_feasible_point(A, b)
    want = solve_standard_form(A, b, [0] * n)
    assert (got.status, got.basis, got.values, got.objective) == \
        (want.status, want.basis, want.values, want.objective)
    # and the dense reference, which runs phase 2 on the zero cost
    assert (got.status, got.objective, got.values, got.basis) == \
        oracles.bland_dense(A, b, [0] * n)


# sha256 of every pinned Bland result below; it changes only if some
# pivot sequence, basis or exact value changes
BLAND_DIGEST = ("cca61c7c378530bd533607762f6000d8"
                "a235ba9816908d4fd201ce39cde5cd51")

RELAX_LADDER = [(2, 8, 12), (2, 10, 15), (2, 12, 18), (3, 6, 6), (3, 8, 8)]


def _result_record(res):
    return [res.status, str(res.objective),
            None if res.values is None else [str(v) for v in res.values],
            None if res.basis is None else list(res.basis)]


def _pinned_records():
    instances = {}
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name.endswith(".solution.json") or path.name.startswith("ug_"):
            continue
        instances[path.stem] = io.parse_instance(path.read_text())
    records = []
    for name, inst in instances.items():
        prob = lp.build_lp(inst)
        res = solve_standard_form(prob.A, prob.b, prob.c)
        records.append([name, _result_record(res), lp.solve_lp(inst).basis])
    for q, n, m in RELAX_LADDER:
        for s in (0, 1):
            inst = randgen.random_instance(random.Random(s), q, n, m, 3)
            prob = lp.build_lp(inst)
            res = solve_standard_form(prob.A, prob.b, prob.c)
            records.append([f"ladder {q} {n} {m} {s}", _result_record(res)])
    # the per-edge mixtures that generate_dict reads, at the eps-snapped
    # LP optimum and at the committed uniform solution of hvc3
    points = []
    for name, inst in instances.items():
        for eps in (F(1, 4), F(1, 6)):
            points.append((f"{name} eps {eps}", inst,
                           perturb(inst, lp.solve_lp(inst).x, eps).x_eps))
    hvc3 = instances["hvc3"]
    points.append(("hvc3 uniform", hvc3, io.parse_solution(
        (FIXTURES / "hvc3_uniform.solution.json").read_text(), hvc3)))
    for name, inst, x in points:
        for e_idx, e in enumerate(inst.edges):
            mix = lp.edge_mixture(inst, x, e)
            records.append([f"{name} edge {e_idx}", None if mix is None else
                            sorted([list(t), str(p)] for t, p in mix.items())])
    return records


def test_bland_results_pinned():
    text = json.dumps(_pinned_records(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BLAND_DIGEST


# sha256 of the (row, column) of every pivot that _pinned_records takes,
# phase 1, the drive-out of artificials and phase 2 alike
PIVOT_PATH_DIGEST = ("48cf00c27210b66f0fd4085174928ba8"
                     "dc955e5a07a5e39cf6f6f1af5d3d2266")


def _record_pivots(monkeypatch) -> list:
    """The list that the ``(row, column)`` of every later pivot goes to."""
    path = []
    pivot = simplex._pivot

    def recording(rows, dens, basis, r, c, *rest):
        path.append([r, c])
        return pivot(rows, dens, basis, r, c, *rest)

    monkeypatch.setattr(simplex, "_pivot", recording)
    return path


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_bland_pivot_path_pinned(monkeypatch):
    path = _record_pivots(monkeypatch)
    _pinned_records()
    assert len(path) == 980
    assert _digest(path) == PIVOT_PATH_DIGEST


def test_covering_lp_pinned(monkeypatch):
    # a 160 x 300 hull LP of the paper's covering family, whose rows
    # carry denominators, unlike most rows of the pins above (50 of its
    # 816 pivot rows keep a denominator other than 1): its Bland optimum
    # and pivot path
    inst = randgen.random_cover_instance(random.Random(0), 20, 40, 3)
    prob = lp.build_lp(inst)
    path = _record_pivots(monkeypatch)
    res = solve_standard_form(prob.A, prob.b, prob.c)
    assert (len(path), res.objective) == (816, F(29, 90))
    assert _digest(_result_record(res)) == (
        "7519cb638f4323bbabd79952e940dcb5dfc955147f2dffc27caf3ccca917765f")
    assert _digest(path) == (
        "786cd53ea4a4c04ca8c7c4e47ed541500adc25ca91ec717bf4d5ab53656bd36f")


@pytest.mark.parametrize("bad", [0.5, True, np.int64(1), np.float64(1)],
                         ids=["float", "bool", "int64", "float64"])
@pytest.mark.parametrize("where", ["A", "b", "c"])
def test_refuses_entries_that_are_not_int_or_fraction(bad, where):
    A, b, c = [[1, F(1, 2), 0]], [1], [1, 0, 0]
    {"A": A[0], "b": b, "c": c}[where][0] = bad
    message = f"must be int or Fraction, got {type(bad).__name__}$"
    with pytest.raises(TypeError, match=message):
        solve_standard_form(A, b, c)
    if where != "c":
        with pytest.raises(TypeError, match=message):
            find_feasible_point(A, b)


def test_refuses_numpy_integers_that_would_wrap():
    # int64 arithmetic wraps on this LP and used to return basis (0, 2)
    # with objective -1099511627785/7
    A = [[2**40, 3, 1, 0], [7, 2**40 + 1, 0, 1]]
    b = [2**41 + 5, 2**40 + 9]
    c = [-1, -1, 0, 0]
    res = solve_standard_form(A, b, c)
    assert res.basis == (0, 1)
    assert res.objective == F(-157685976471425565760465,
                              52561992157205595057997)
    wide = np.array(A, dtype=np.int64)
    for system in ((wide, b), (list(wide), b),
                   (A, np.array(b, dtype=np.int64))):
        with pytest.raises(TypeError, match="got int64$"):
            solve_standard_form(*system, c)
        with pytest.raises(TypeError, match="got int64$"):
            find_feasible_point(*system)
    with pytest.raises(TypeError, match="got int64$"):
        solve_standard_form(A, b, np.array(c, dtype=np.int64))


def test_pivot_cap_bounds_one_solve(monkeypatch):
    taken, reads = [], []
    pivot = simplex._pivot

    def counting(*args):
        taken.append(args[3:5])
        return pivot(*args)

    def reading(name):
        reads.append(name)
        return caps.cap(name)

    monkeypatch.setattr(simplex, "_pivot", counting)
    monkeypatch.setattr(simplex, "cap", reading)
    monkeypatch.setenv("SMCSP_CAP_PIVOT", "1")
    # phase 1 fits in 2**1 pivots ...
    assert find_feasible_point(*BASIC[:2]).status == "optimal"
    assert (len(taken), reads) == (2, ["PIVOT"])
    # ... and the solve's one phase-2 pivot is its third
    with pytest.raises(CapExceeded) as exc:
        solve_standard_form(*BASIC)
    assert str(exc.value) == \
        "exact simplex pivots: 3 exceeds 2^1 (SMCSP_CAP_PIVOT)"
    monkeypatch.setenv("SMCSP_CAP_PIVOT", "2")
    taken.clear()
    reads.clear()
    assert solve_standard_form(*BASIC).objective == F(3, 2)
    assert (len(taken), reads) == (3, ["PIVOT"])
    # a cap of any size builds no number
    monkeypatch.setenv("SMCSP_CAP_PIVOT", str(10**30))
    assert solve_standard_form(*BASIC).objective == F(3, 2)
