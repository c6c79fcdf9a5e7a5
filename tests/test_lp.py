"""Hull relaxation: oracle agreement, certificates, exactness."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from smcsp.lp import (build_lp, check_feasible_fractional, lp_value,
                      solve_lp, standard_hvc_lp, val)
from smcsp.model import (Predicate, brute_force_opt, is_covering_predicate,
                         label_point, make_instance, point_value,
                         upward_closure)
from smcsp.randgen import (hvc, random_cover_instance,
                           random_feasible_solution, random_instance,
                           ternary_chain, triangle_cover, vc_edge)


def _oracle_edges(inst):
    return [([v for v in e.vertices],
             [list(m) for m in inst.predicates[e.predicate].minimal])
            for e in inst.edges]


def test_named_values():
    assert lp_value(vc_edge()) == F(1, 2)
    assert lp_value(hvc(3)) == F(1, 3)
    assert lp_value(hvc(4)) == F(1, 4)
    assert lp_value(triangle_cover()) == F(1, 2)
    assert lp_value(ternary_chain()) == F(3, 4)


def test_matches_float_oracle_on_random_instances():
    rng = random.Random(71)
    for _ in range(25):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 5),
                               rng.randint(1, 4))
        got = float(lp_value(inst))
        want = oracles.lp_via_scipy(inst.q, list(inst.weights),
                                    _oracle_edges(inst))
        assert abs(got - want) < 1e-7


def test_objective_never_exceeds_optimum():
    rng = random.Random(73)
    for _ in range(20):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 4),
                               rng.randint(1, 3))
        assert lp_value(inst) <= brute_force_opt(inst)[0]


def test_solution_is_feasible_and_achieves_objective():
    rng = random.Random(79)
    for _ in range(15):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 4),
                               rng.randint(1, 3))
        sol = solve_lp(inst)
        assert check_feasible_fractional(inst, sol.x)
        assert val(inst, sol.x) == sol.objective


def _grid_point(rng, q):
    """A random domain point on the 1/4-grid."""
    if q == 2:
        return F(rng.randint(0, 4), 4)
    cuts = sorted(rng.randint(0, 4) for _ in range(q - 1))
    return tuple(F(b - a, 4) for a, b in zip([0] + cuts, cuts + [4]))


def test_feasibility_matches_scipy_oracle():
    rng = random.Random(89)
    verdicts = {True: 0, False: 0}
    for _ in range(30):
        q = rng.choice([2, 3])
        inst = random_instance(rng, q, rng.randint(2, 5), rng.randint(1, 4))
        inside = random_feasible_solution(rng, inst)
        # every vertex of one edge at label 0
        zeroed = list(inside)
        for v in rng.choice(inst.edges).vertices:
            zeroed[v] = label_point(q, 0)
        grid = [_grid_point(rng, q) for _ in range(inst.n)]
        for x in (inside, zeroed, grid):
            got = check_feasible_fractional(inst, x)
            assert got == oracles.hull_feasible_via_scipy(
                q, list(x), _oracle_edges(inst))
            verdicts[got] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 20


def test_lambda_certificates_reconstruct_the_solution():
    rng = random.Random(83)
    for _ in range(15):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(2, 4),
                               rng.randint(1, 3))
        sol = solve_lp(inst)
        for edge, lam in zip(inst.edges, sol.lambdas):
            pred = inst.predicates[edge.predicate]
            accepted = set(upward_closure(pred))
            assert sum(lam.values(), F(0)) == 1
            assert all(p > 0 for p in lam.values())
            assert set(lam) <= accepted
            for j, u in enumerate(edge.vertices):
                mixed = [F(0)] * inst.q
                for t, p in lam.items():
                    mixed[t[j]] += p
                pt = sol.x[u]
                want = ((mixed[1],) if inst.q == 2 else tuple(mixed))
                got = (pt,) if inst.q == 2 else pt
                assert got == want


def test_solution_is_deterministic():
    inst = ternary_chain()
    assert solve_lp(inst) == solve_lp(inst)


def test_hull_equals_standard_lp_on_graphs():
    rng = random.Random(89)
    for _ in range(15):
        inst = random_cover_instance(rng, rng.randint(2, 6),
                                     rng.randint(1, 6), arity=2)
        hull = float(lp_value(inst))
        std = oracles.standard_cover_lp_via_scipy(
            list(inst.weights), [e.vertices for e in inst.edges])
        assert abs(hull - std) < 1e-7


def test_hull_at_least_standard_lp_on_hypergraphs():
    rng = random.Random(97)
    for _ in range(10):
        inst = random_cover_instance(rng, rng.randint(3, 6),
                                     rng.randint(1, 4), arity=3)
        hull = lp_value(inst)
        std = standard_hvc_lp(inst)
        assert all(is_covering_predicate(p) for p in inst.predicates)
        assert float(hull) >= float(std) - 1e-12
        assert hull >= std


def test_standard_lp_is_exactly_one_over_k_on_single_edge():
    for k in (2, 3, 4):
        assert standard_hvc_lp(hvc(k)) == F(1, k)


@pytest.mark.parametrize("inst, message", [
    (ternary_chain(), "covering LP is defined for q = 2 only"),
    (make_instance(2, [F(1, 2)] * 2, [Predicate("both", 2, 2, ((1, 1),))],
                   [((0, 1), 0)]),
     "edge predicate both is not the covering predicate"),
])
def test_standard_lp_rejects_non_covering_instances(inst, message):
    with pytest.raises(ValueError) as exc:
        standard_hvc_lp(inst)
    assert str(exc.value) == message


def test_val_of_integral_points_is_assignment_cost():
    inst = ternary_chain()
    x = [label_point(3, a) for a in (0, 2, 1)]
    assert val(inst, x) == F(0) * F(1, 2) + F(2) * F(1, 4) + F(1) * F(1, 4)


def test_problem_has_one_lambda_block_per_edge():
    inst = triangle_cover()
    prob = build_lp(inst)
    assert len(prob.edge_atoms) == len(inst.edges)
    lam_cols = [c for c in prob.col_names if c.startswith("lam[")]
    assert len(lam_cols) == sum(len(atoms) for _, atoms in prob.edge_atoms)


def test_point_value_consistency_with_objective():
    inst = ternary_chain()
    sol = solve_lp(inst)
    direct = sum((w * point_value(inst.q, pt)
                  for w, pt in zip(inst.weights, sol.x)), F(0))
    assert direct == sol.objective


_OPTIMIZED_CHECKS = """
import random
import sys
from fractions import Fraction
from smcsp import acceptance, cli, lp, randgen, rounding
from smcsp.distributions import _make_distribution
from smcsp.model import PropertyViolation, covering_predicate

assert not __debug__, "expected python -O"
val = lp.val
lp.val = lambda inst, x: Fraction(-1)
print("lp exit", cli.main(["lp", sys.argv[1]]))
lp.val = val
dict_check = ["dict-check", sys.argv[1], "--eps", "1/2", "--delta", "1/10",
              "--r", "2"]
print("dict-check exit", cli.main(dict_check))
cli.bucket_constant_opt = lambda D: (Fraction(-1), ())
print("broken dict-check exit", cli.main(dict_check))
pred = covering_predicate(2)
for probs in ({(0, 1): Fraction(1, 2)}, {(0, 0): Fraction(1)}):
    try:
        _make_distribution(2, 2, pred, probs)
    except PropertyViolation as exc:
        print("caught", exc)
inst = randgen.vc_edge()
randgen.is_feasible = lambda inst, labels: False
try:
    randgen.random_feasible_assignment(random.Random(0), inst)
except PropertyViolation as exc:
    print("caught", exc)
grid_size = rounding.grid_size
rounding.grid_size = lambda q, eps: 0
try:
    rounding.perturb(inst, [Fraction(1, 2)] * 2, Fraction(1, 2))
except PropertyViolation as exc:
    print("caught", exc)
rounding.grid_size = grid_size
acceptance.val = lambda inst, x: Fraction(-1)
acceptance.lp_value = lambda inst: Fraction(-1)
for criterion in (1, 11):
    print("criterion", criterion, acceptance.run([criterion])[0]["details"])
acceptance.lp_value = lp.lp_value
acceptance.ug_satisfied_weight = lambda game, labels: Fraction(0)
print("criterion 11", acceptance.run([11])[0]["details"])
"""


def test_checks_survive_python_O():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS,
         str(root / "fixtures" / "vc_edge.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines()
             if " exit " in line or line.startswith(("caught", "criterion"))]
    assert lines[0] == "lp exit 1"
    assert "differs from val(x)" in proc.stderr
    # the cube-constant identity of dict-check
    assert lines[1] == "dict-check exit 0"
    assert lines[2] == "broken dict-check exit 1"
    assert "differs from rounding value" in proc.stderr
    assert lines[3] == "caught distribution has total mass 1/2"
    assert lines[4] == "caught support atom (0, 0) rejected by predicate"
    # the generator, perturbation and acceptance-suite checks
    assert lines[5] == ("caught labeling with every violated edge pushed "
                        "to the top label is infeasible")
    assert lines[6] == "caught 1 buckets exceed the 0 grid points"
    assert lines[7] == ("criterion 1 assertion failed: k=2: val of the "
                        "uniform point is -1, not 1/2")
    assert lines[8] == ("criterion 11 assertion failed: vc_edge relaxation "
                        "is -1, not 1/2")
    assert lines[9].startswith("criterion 11 assertion failed: planted "
                               "labeling")
    assert lines[9].endswith("does not satisfy its game")
