"""Grid perturbation and exhaustive bucket rounding.

``perturb`` snaps a solution in the value domain onto the epsilon grid,
the points whose label distribution has every coordinate a multiple of
epsilon, by one rule for every q: from the top label downward, each
coordinate rounds up while the running mass stays within one, the first
coordinate that would overflow absorbs the remainder, and everything
below it becomes zero.  The rule runs on integer grid counts: with
``steps = 1/eps``, label i's count is ``ceil(a_i * steps)``, taken on
the numerator and denominator of ``a_i``, and a ``Fraction`` is built
only for each returned coordinate (for ``q == 2`` only the mass on
label 1).  The snapped distribution stochastically dominates the
original (every upper tail weakly grows), which is what preserves hull
feasibility for upward-closed constraints; rounding the low labels up
instead can push a solution out of the hull.  The objective increases
by at most ``eps`` for ``q == 2`` and at most ``eps * q**2`` otherwise,
and never decreases.

``round_solution`` then groups vertices into buckets by their snapped
value and returns the cheapest feasible assignment that is constant on
each bucket.  It is ``round_perturbed`` of the snap: that collapses
every bucket to one vertex (``collapse(inst, pert.bucket_of)``, with
bucket ``b`` named ``v<b>``), solves that instance with the exact
search ``model.cheapest_labeling``, which bounds its ``q**m`` labelings
by the ENUM cap, and lifts the bucket labels back to the vertices.  The
snap is also the grid test: a solution is on the eps-grid exactly when
``perturb`` leaves it unchanged.  ``dictators.generate_dict`` checks its
input that way and keeps the snap, so ``dict-check`` rounds it with
``round_perturbed`` instead of snapping again.
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
    brute_force_opt,
    cheapest_labeling,
    collapse,
    grid_point,
    solution_in_domain,
    upper_masses,
)


def check_grid_fraction(eps) -> Fraction:
    eps = Fraction(eps)
    if not (0 < eps <= 1) or (1 / eps).denominator != 1:
        raise ValueError(f"eps must satisfy 0 < eps <= 1 with 1/eps integral, "
                         f"got {eps}")
    return eps


def perturb_point(q: int, pt: Point, eps: Fraction) -> Point:
    """Snap one point in grid steps: ``c_i = ceil(a_i * steps)`` for
    labels ``i >= 1``, ``steps = 1/eps``, on integer numerators; only
    the returned point is built of ``Fraction``s."""
    if eps.numerator != 1:  # not 1/steps: check_grid_fraction refuses it
        check_grid_fraction(eps)
    steps = eps.denominator
    counts = [-(-a.numerator * steps // a.denominator)
              for a in upper_masses(q, pt)]  # counts[i - 1] is label i
    kept = 0
    i = q - 1
    while i > 0 and kept + counts[i - 1] <= steps:
        kept += counts[i - 1]
        i -= 1
    # labels below i get nothing, label i the rest
    return grid_point(q, [0] * i + [steps - kept] + counts[i:], steps)


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
    steps = int(1 / check_grid_fraction(eps))
    cuts = itertools.combinations_with_replacement(range(steps + 1), q - 1)
    return sorted(grid_point(q, [b - a for a, b in
                                 zip((0,) + c, c + (steps,))], steps)
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
    """Cheapest feasible assignment that is constant on snapped buckets:
    ``round_perturbed`` of ``perturb(inst, x, eps)``."""
    return round_perturbed(inst, perturb(inst, x, eps))


def round_perturbed(inst: Instance, pert: PerturbedSolution) -> RoundResult:
    """Bucket rounding of a snap ``pert`` of a solution of ``inst``.

    Solves the bucket-collapsed instance exactly (``q**m`` candidates,
    bounded by the ENUM cap) and lifts the optimum back to the
    vertices; ties go to the lexicographically least labeling in bucket
    order.
    """
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
