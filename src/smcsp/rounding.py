"""Grid perturbation and exhaustive bucket rounding.

``perturb`` snaps a solution in the value domain onto the epsilon grid,
the points whose label distribution has every coordinate a multiple of
epsilon, by one rule for every q: from the top label downward, each
coordinate rounds up while the running mass stays within one, the first
coordinate that would overflow absorbs the remainder, and everything
below it becomes zero.  The snapped distribution stochastically
dominates the original (every upper tail weakly grows), which is what
preserves hull feasibility for upward-closed constraints; rounding the
low labels up instead can push a solution out of the hull.  The
objective increases by at most ``eps`` for ``q == 2`` and at most
``eps * q**2`` otherwise, and never decreases.

``round_solution`` then groups vertices into buckets by their snapped
value and returns the cheapest feasible assignment that is constant on
each bucket.  It collapses every bucket to one vertex
(``collapse(inst, perturb(inst, x, eps).bucket_of)``, with bucket ``b``
named ``v<b>``), solves that instance with the exact search
``model.cheapest_labeling``, which bounds its ``q**m`` labelings by the
ENUM cap, and lifts the bucket labels back to the vertices.  The snap
is also the grid test: a solution is on the eps-grid exactly when
``perturb`` leaves it unchanged, and ``dictators.generate_dict`` checks
its input that way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lp import check_feasible_fractional, solve_lp, val
from .model import (
    Instance,
    Point,
    PropertyViolation,
    ZERO,
    ONE,
    brute_force_opt,
    cheapest_labeling,
    collapse,
    distribution_point,
    point_distribution,
    solution_in_domain,
)


def check_grid_fraction(eps) -> Fraction:
    eps = Fraction(eps)
    if not (0 < eps <= 1) or (1 / eps).denominator != 1:
        raise ValueError(f"eps must satisfy 0 < eps <= 1 with 1/eps integral, "
                         f"got {eps}")
    return eps


def _ceil_to_grid(a: Fraction, eps: Fraction) -> Fraction:
    return eps * -(-a // eps)


def perturb_point(q: int, pt: Point, eps: Fraction) -> Point:
    # rounded[i - 1] is label i; label 0 absorbs the rest, unrounded
    rounded = [_ceil_to_grid(a, eps) for a in point_distribution(q, pt)[1:]]
    kept = ZERO
    i = q - 1
    while i > 0 and kept + rounded[i - 1] <= 1:
        kept += rounded[i - 1]
        i -= 1
    return distribution_point(q, [ZERO] * i + [ONE - kept] + rounded[i:])


@dataclass
class PerturbedSolution:
    x_eps: list         # the snapped image of the input solution
    bucket_values: list  # distinct snapped values, ascending
    bucket_of: list      # vertex -> bucket index


def perturb(inst: Instance, x: Sequence[Point], eps) -> PerturbedSolution:
    """Snap ``x`` (in the value domain, assumed hull-feasible) to the grid."""
    eps = check_grid_fraction(eps)
    if not solution_in_domain(inst, x):
        raise ValueError("solution is not hull-feasible")
    x_eps = [perturb_point(inst.q, pt, eps) for pt in x]
    bucket_values = sorted(set(x_eps))
    index = {v: i for i, v in enumerate(bucket_values)}
    bucket_of = [index[pt] for pt in x_eps]
    points = grid_size(inst.q, eps)
    if len(bucket_values) > points:
        raise PropertyViolation(f"{len(bucket_values)} buckets exceed the "
                                f"{points} grid points")
    return PerturbedSolution(x_eps, bucket_values, bucket_of)


def grid_points(q: int, eps) -> list:
    """All snapped values, ascending: the eps-lattice points of the simplex.

    Each splits the ``1/eps`` grid steps into q parts at ``q - 1`` cuts.
    """
    eps = check_grid_fraction(eps)
    steps = int(1 / eps)
    cuts = itertools.combinations_with_replacement(range(steps + 1), q - 1)
    return sorted(distribution_point(q, [eps * (b - a) for a, b in
                                         zip((0,) + c, c + (steps,))])
                  for c in cuts)


def grid_size(q: int, eps) -> int:
    """``len(grid_points(q, eps))``, counted without building the grid."""
    steps = int(1 / check_grid_fraction(eps))
    return math.comb(steps + q - 1, q - 1)


def verify_perturbation(inst: Instance, x: Sequence[Point], eps) -> dict:
    """Exact report on one perturbation: feasibility and value increase."""
    eps = check_grid_fraction(eps)
    pert = perturb(inst, x, eps)
    before = val(inst, x)
    after = val(inst, pert.x_eps)
    bound = eps if inst.q == 2 else eps * inst.q * inst.q
    feasible_before = check_feasible_fractional(inst, x)
    feasible_after = check_feasible_fractional(inst, pert.x_eps)
    return {
        "eps": eps,
        "feasible_before": feasible_before,
        "feasible_after": feasible_after,
        "value_before": before,
        "value_after": after,
        "increase": after - before,
        "increase_bound": bound,
        "ok": ((not feasible_before or feasible_after)
               and after - before <= bound),
    }


@dataclass
class RoundResult:
    value: Fraction
    labels: tuple           # full assignment on the instance
    bucket_values: list     # ascending snapped values


def round_solution(inst: Instance, x: Sequence[Point], eps) -> RoundResult:
    """Cheapest feasible assignment that is constant on snapped buckets.

    Solves the bucket-collapsed instance exactly (``q**m`` candidates,
    bounded by the ENUM cap) and lifts the optimum back to the
    vertices; ties go to the lexicographically least labeling in bucket
    order.
    """
    pert = perturb(inst, x, eps)
    value, z = cheapest_labeling(collapse(inst, pert.bucket_of))
    labels = tuple(z[b] for b in pert.bucket_of)
    return RoundResult(value, labels, pert.bucket_values)


def integrality_report(inst: Instance, eps,
                       x: Sequence[Point] | None = None) -> dict:
    """Relaxation value, rounded value, and exact optimum side by side.

    ``x`` defaults to the solver's canonical basic optimum; pass an
    explicit optimal solution to study a different rounding seed.
    Ratios are None when their denominator is zero.
    """
    sol = solve_lp(inst)
    if x is None:
        x = sol.x
    rounded = round_solution(inst, x, eps)
    opt, witness = brute_force_opt(inst)
    return {
        "eps": check_grid_fraction(eps),
        "lp": sol.objective,
        "lp_x": list(x),
        "round": rounded.value,
        "round_labels": rounded.labels,
        "opt": opt,
        "opt_labels": witness,
        "round_over_opt": None if opt == 0 else rounded.value / opt,
        "opt_over_lp": None if sol.objective == 0 else opt / sol.objective,
    }
