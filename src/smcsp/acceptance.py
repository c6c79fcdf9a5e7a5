"""Acceptance suite: the shipped guarantees, checked at desk scale.

Each criterion is a deterministic self-contained check (fixed seeds)
returning ``(passed, details)``; ``CRITERIA`` gives each its title,
``run`` executes a selection into report dicts and ``render`` prints
one pass/fail line per criterion.  The suite asserts exact
identities wherever the arithmetic is rational and uses the stated
float tolerances elsewhere.  A failing criterion is reported, never
silently weakened: criterion 10's lower-bound grid is expected to fail
on large swaths of the grid (see the shipped test suite for the same
check and its discussion).
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import randgen
from .dictators import (bucket_constant_opt, completeness_check,
                        cube_measure, extract_TJ, generate_dict)
from .distributions import (cheeger_check, expected_margin,
                            extract_edge_distribution, margin, min_atom,
                            smooth)
from .fourier import (biased_fourier, conditional_variance_influence,
                      dictator_table, influences)
from .gaussian import check_gamma_inequalities, gamma, gamma_mc
from .lp import lp_value, solve_lp, standard_hvc_lp, val
from .model import (PropertyViolation, assignment_cost, brute_force_opt,
                    check_solution, covering_predicate, is_feasible,
                    make_instance)
from .rounding import perturb, round_solution, verify_perturbation
from .unique_games import UgInstance, compose, completeness_solution, \
    ug_satisfied_weight

F = Fraction


# ---------------------------------------------------------------------------


def criterion_1():
    """Single covering constraint: relaxation 1/k, rounding 1, optimum 1/k."""
    notes = []
    ok = True
    for k in (2, 3, 4):
        inst = randgen.hvc(k)
        lpv = lp_value(inst)
        xstar = [F(1, k)] * k
        uniform = val(inst, xstar)
        if uniform != F(1, k):
            raise PropertyViolation(f"k={k}: val of the uniform point is "
                                    f"{uniform}, not 1/{k}")
        rounded = round_solution(inst, xstar, F(1, 2 * k)).value
        opt, _ = brute_force_opt(inst)
        good = lpv == F(1, k) and rounded == 1 and opt == F(1, k)
        ok = ok and good
        notes.append(f"k={k}: lp={lpv} round={rounded} opt={opt}")
    return ok, "; ".join(notes)


def criterion_2():
    """Hull relaxation vs the classical covering LP."""
    rng = random.Random(101)
    equal_fail = []
    for t in range(20):
        n = rng.randint(2, 8)
        m = rng.randint(1, n * (n - 1) // 2)
        inst = randgen.random_cover_instance(rng, n, m, 2)
        hull, std = lp_value(inst), standard_hvc_lp(inst)
        if hull != std:
            equal_fail.append((t, hull, std))
    ge_fail = []
    for t in range(20):
        n = rng.randint(3, 8)
        m = rng.randint(1, 6)
        inst = randgen.random_cover_instance(rng, n, m, 3)
        hull, std = lp_value(inst), standard_hvc_lp(inst)
        if hull < std:
            ge_fail.append((t, hull, std))
    ok = not equal_fail and not ge_fail
    return ok, (f"graphs equal 20/20 minus {len(equal_fail)}; "
                f"3-uniform dominated 20/20 minus {len(ge_fail)}")


def criterion_3():
    """Grid snapping keeps feasibility; value increase within bound."""
    rng = random.Random(303)
    eps_pool = [F(1, 3), F(1, 4), F(1, 5), F(1, 6)]
    bad = 0
    for t in range(100):
        q = 2 if t % 2 == 0 else 3
        n = rng.randint(2, 6)
        inst = randgen.random_instance(rng, q, n, rng.randint(1, 4), 3)
        x = randgen.random_feasible_solution(rng, inst)
        rep = verify_perturbation(inst, x, rng.choice(eps_pool))
        if not (rep["feasible_before"] and rep["ok"]):
            bad += 1
    return bad == 0, f"100 pairs, {bad} violations"


def criterion_4():
    """Rounding is the cheapest bucket-constant labeling and at least opt."""
    rng = random.Random(404)
    bad = 0
    for t in range(50):
        q = 2 if t % 2 == 0 else 3
        n = rng.randint(2, 5)
        inst = randgen.random_instance(rng, q, n, rng.randint(1, 4), 3)
        x = solve_lp(inst).x
        eps = rng.choice([F(1, 4), F(1, 6)])
        rounded = round_solution(inst, x, eps)
        pert = perturb(inst, x, eps)
        labelings = (tuple([z[b] for b in pert.bucket_of])
                     for z in itertools.product(
                         range(q), repeat=len(pert.bucket_values)))
        best = min(assignment_cost(inst, labels) for labels in labelings
                   if is_feasible(inst, labels))
        opt, _ = brute_force_opt(inst)
        if not (rounded.value == best and rounded.value >= opt):
            bad += 1
    return bad == 0, f"50 instances, {bad} violations"


def _margin_corpus():
    rng = random.Random(505)
    for t in range(50):
        q = 2 if t % 2 == 0 else 3
        n = rng.randint(2, 6)
        inst = randgen.random_instance(rng, q, n, rng.randint(1, 3), 3)
        x = randgen.random_feasible_solution(rng, inst)
        check_solution(inst, x)
        yield inst, x


def criterion_5():
    """Extracted and smoothed distributions have the predicted margins."""
    bad = 0
    edges_checked = 0
    for inst, x in _margin_corpus():
        for e_idx, edge in enumerate(inst.edges):
            dist = extract_edge_distribution(inst, x, e_idx)
            edges_checked += 1
            for i, v in enumerate(edge.vertices):
                if margin(dist, i) != expected_margin(inst.q, x[v]):
                    bad += 1
            for delta in (F(1, 10), F(1, 3)):
                smoothed = smooth(dist, delta)
                for i, v in enumerate(edge.vertices):
                    if margin(smoothed, i) != expected_margin(
                            inst.q, x[v], delta):
                        bad += 1
    return bad == 0, (f"{edges_checked} edges x 3 distributions, "
                      f"{bad} violations")


def criterion_6():
    """Smoothing keeps every atom above delta^k times the old minimum."""
    bad = 0
    checked = 0
    for inst, x in _margin_corpus():
        for e_idx, edge in enumerate(inst.edges):
            dist = extract_edge_distribution(inst, x, e_idx)
            k = len(edge.vertices)
            for delta in (F(1, 10), F(1, 3)):
                checked += 1
                if min_atom(smooth(dist, delta)) < delta ** k * min_atom(dist):
                    bad += 1
    return bad == 0, f"{checked} smoothings, {bad} violations"


def _path3():
    """Two covering edges sharing a middle vertex, non-uniform weights."""
    return make_instance(
        2, [F(1, 4), F(1, 2), F(1, 4)], [covering_predicate(2)],
        [((0, 1), 0), ((1, 2), 0)], ["a", "b", "c"])


def _dict_corpus():
    """Generated hypercube instances: m <= 3, r <= 4, boolean."""
    vc = randgen.vc_edge()
    tri = randgen.triangle_cover()
    hvc3 = randgen.hvc(3)
    path = _path3()
    specs = [
        (vc, [F(1, 2)] * 2, F(1, 2), 1, F(1, 10)),
        (vc, [F(1, 2)] * 2, F(1, 2), 2, F(1, 3)),
        (vc, [F(1, 2)] * 2, F(1, 2), 4, F(1, 10)),
        (tri, [F(1, 2)] * 3, F(1, 2), 2, F(1, 10)),
        (hvc3, [F(1, 3)] * 3, F(1, 6), 3, F(1, 10)),
        (path, [F(1, 4), F(3, 4), F(1, 2)], F(1, 4), 2, F(1, 3)),
        (path, [F(1, 4), F(3, 4), F(1, 2)], F(1, 4), 1, F(1, 10)),
    ]
    for inst, x, eps, r, delta in specs:
        yield inst, x, eps, generate_dict(inst, x, r, delta, eps)


def criterion_7():
    """Every coordinate labeling is feasible with the exact predicted cost."""
    count = 0
    for *_, D in _dict_corpus():
        completeness_check(D)  # raises on any mismatch
        count += 1
    return True, f"{count} generated instances, all coordinates checked"


def criterion_8():
    """Cube-constant optimum matches rounding; snapped subsets stay cheap."""
    rng = random.Random(808)
    bad = 0
    subsets = 0
    for inst, x, eps, D in _dict_corpus():
        bco, _ = bucket_constant_opt(D)
        if bco != round_solution(inst, x, eps).value:
            bad += 1
        n = len(D.instance.vertex_ids)
        for _ in range(1000):
            labels = tuple(rng.randrange(2) for _ in range(n))
            extract_TJ(D, labels)  # checks the weight bound
            subsets += 1
    return bad == 0, (f"{bad} identity violations, "
                      f"{subsets} subsets bound-checked")


def criterion_9():
    """Correlation of smoothed distributions under the min-atom bound."""
    rng = random.Random(909)
    connected = 0
    bad = 0
    attempts = 0
    while connected < 50 and attempts < 500:
        attempts += 1
        q = 2 if attempts % 2 == 0 else 3
        k = rng.randint(2, 4)
        pred = randgen.random_monotone_predicate(rng, q, k, "p0")
        inst = make_instance(q, randgen.random_weights(rng, k), [pred],
                             [(tuple(range(k)), 0)])
        x = randgen.random_feasible_solution(rng, inst)
        check_solution(inst, x)
        dist = smooth(extract_edge_distribution(inst, x, 0),
                      rng.choice([F(1, 10), F(1, 3)]))
        cut = rng.randint(1, k - 1)
        coords = list(range(k))
        rng.shuffle(coords)
        rep = cheeger_check(dist, sorted(coords[:cut]), sorted(coords[cut:]))
        if rep["connected"]:
            connected += 1
            if not rep["ok"]:
                bad += 1
    return (connected == 50 and bad == 0,
            f"{connected} connected cases, {bad} violations")


def criterion_10():
    """Gaussian stability: identities, Monte Carlo cross-check, and the
    grid lower bound (which fails; the reports carry the witnesses)."""
    start = time.perf_counter()
    grid = check_gamma_inequalities(tol=1e-6)
    identity_bad = []
    for mu in (0.0, 0.3, 0.7, 1.0):
        for nu in (0.0, 0.3, 0.7, 1.0):
            if abs(gamma(0.0, mu, nu) - mu * nu) > 1e-8:
                identity_bad.append(("rho0", mu, nu))
    for rho in (0.2, 0.8):
        for nu in (0.0, 0.3, 0.7, 1.0):
            if abs(gamma(rho, 1.0, nu) - nu) > 1e-8:
                identity_bad.append(("mu1", rho, nu))
    est, se = gamma_mc(0.5, 0.5, 0.5, n=10 ** 7, seed=20250814)
    exact = gamma(0.5, 0.5, 0.5)
    mc_ok = abs(est - exact) <= 3 * se
    elapsed = time.perf_counter() - start
    ok = grid["ok"] and not identity_bad and mc_ok and elapsed < 60
    first = grid["violations"][0] if grid["violations"] else None
    details = (f"grid: {len(grid['violations'])}/{grid['checked']} "
               f"violations (first: {first}); identities: "
               f"{len(identity_bad)} bad; mc |{est:.6f}-{exact:.6f}| "
               f"{'<=' if mc_ok else '>'} 3se={3 * se:.6f}")
    return ok, details


def _game_corpus():
    """Five satisfiable games (<= 6 vertices, r <= 3) with labelings."""
    ident2 = (0, 1)
    swap2 = (1, 0)
    games = [
        (UgInstance(1, ("L",), ("R",), ((0, 0, F(1), (0,)),)),
         {"L": 0, "R": 0}),
        (UgInstance(2, ("L0", "L1"), ("R0",),
                    ((0, 0, F(1, 2), ident2), (1, 0, F(1, 2), swap2))),
         {"L0": 0, "L1": 1, "R0": 0}),
        (UgInstance(1, ("L0", "L1", "L2"), ("R",),
                    ((0, 0, F(1, 3), (0,)), (1, 0, F(1, 3), (0,)),
                     (2, 0, F(1, 3), (0,)))),
         {"L0": 0, "L1": 0, "L2": 0, "R": 0}),
        (UgInstance(3, ("L",), ("R",), ((0, 0, F(1), (1, 2, 0)),)),
         {"L": 1, "R": 2}),
        (UgInstance(2, ("L0", "L1"), ("R0", "R1"),
                    ((0, 0, F(1, 4), ident2), (0, 1, F(1, 4), ident2),
                     (1, 0, F(1, 4), ident2), (1, 1, F(1, 4), ident2))),
         {"L0": 1, "L1": 1, "R0": 1, "R1": 1}),
    ]
    return games


def criterion_11():
    """Composed instances: cheap solution feasible, bounded, above opt."""
    vc = randgen.vc_edge()
    x = [F(1, 2)] * 2
    lpv = F(1, 2)
    relaxed = lp_value(vc)
    if relaxed != lpv:
        raise PropertyViolation(f"vc_edge relaxation is {relaxed}, "
                                f"not {lpv}")
    cubes = {r: generate_dict(vc, x, r, F(1, 10), F(1, 2))
             for r in (1, 2, 3)}
    ok = True
    notes = []
    for game, labels in _game_corpus():
        if ug_satisfied_weight(game, labels) != 1:
            raise PropertyViolation(f"planted labeling {labels} does not "
                                    "satisfy its game")
        D = cubes[game.r]
        composed = compose(game, D)
        _, rep = completeness_solution(game, labels, D, composed,
                                       lp_value=lpv)
        opt, _ = brute_force_opt(composed)
        good = rep["feasible"] and rep["bound_ok"] and opt <= rep["weight"]
        ok = ok and good
        notes.append(f"r={game.r}: weight={rep['weight']} opt={opt}")
    return ok, "; ".join(notes)


def criterion_12():
    """Fourier expansion sanity on random functions."""
    rng = random.Random(1212)
    ok = True
    notes = []
    for r in (3, 6, 10):
        p = F(rng.randint(1, 9), 10)
        table = [F(rng.randint(-4, 4), rng.randint(1, 5))
                 for _ in range(2 ** r)]
        exp = biased_fourier(table, p)
        e_f2 = sum((cube_measure(2, p, [mask >> i & 1 for i in range(r)])
                    * t * t for mask, t in enumerate(table)), F(0))
        exact_ok = exp.parseval_sum() == e_f2
        ok = ok and exact_ok
        notes.append(f"r={r} exact Parseval {'ok' if exact_ok else 'BAD'}")
    for r in (2, 4, 6):
        p = F(rng.randint(1, 9), 10)
        for i in range(r):
            row = influences(dictator_table(r, i), p)
            for j in range(r):
                want = p * (1 - p) if j == i else F(0)
                if row[j] != want:
                    ok = False
                    notes.append(f"dictator r={r} i={i} j={j} BAD")
    worst = 0.0
    for r in (3, 5, 6):
        table = [rng.random() for _ in range(2 ** r)]
        p = rng.uniform(0.1, 0.9)
        for i, a in enumerate(influences(table, p)):
            b = conditional_variance_influence(table, i, p)
            worst = max(worst, abs(a - b))
    float_ok = worst <= 1e-9
    ok = ok and float_ok
    notes.append(f"dual-route max gap {worst:.2e}")
    return ok, "; ".join(notes)


# ---------------------------------------------------------------------------

# (criterion, title); a criterion's id is the number in its name
CRITERIA = [
    (criterion_1, "uniform covering gap example"),
    (criterion_2, "relaxation equals/dominates covering LP"),
    (criterion_3, "grid perturbation feasible, increase bounded"),
    (criterion_4, "rounding = collapsed optimum >= true optimum"),
    (criterion_5, "margins match the solution exactly"),
    (criterion_6, "smoothed minimum atom lower bound"),
    (criterion_7, "coordinate labelings: feasible, exact cost"),
    (criterion_8, "cube-constant identity + snapped-subset bound"),
    (criterion_9, "maximal correlation <= 1 - alpha^2/2"),
    (criterion_10, "Gaussian stability bounds on the grid"),
    (criterion_11, "composition completeness bound"),
    (criterion_12, "Fourier sanity: Parseval, dictators, dual routes"),
]


def run(ids=None) -> list:
    """Execute the selected criteria (all by default); returns reports."""
    table = {int(fn.__name__.split("_")[1]): (fn, title)
             for fn, title in CRITERIA}
    wanted = set(table) if ids is None else {int(i) for i in ids}
    unknown = wanted - set(table)
    if unknown:
        raise ValueError(f"unknown criteria: {sorted(unknown)}")
    reports = []
    for cid, (fn, title) in table.items():
        if cid not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, details = fn()
        except AssertionError as exc:
            passed, details = False, f"assertion failed: {exc}"
        reports.append({"id": cid, "title": title, "passed": bool(passed),
                        "details": details,
                        "seconds": round(time.perf_counter() - start, 2)})
    return reports


def render(reports) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep["passed"] else "FAIL"
        lines.append(f"[{status}] criterion {rep['id']:2d} "
                     f"({rep['seconds']:6.2f}s): {rep['title']}")
        lines.append(f"        {rep['details']}")
    total = sum(1 for r in reports if r["passed"])
    lines.append(f"{total}/{len(reports)} criteria passed")
    return "\n".join(lines)
