"""Blowing a fractional solution up into a hypercube instance.

Every vertex group with the same solution value becomes an r-dimensional
cube weighted by a tilted product measure; constraints are sampled from
the smoothed edge distributions.  Single-coordinate selections all cost
exactly (1 - delta) * value + delta * (q - 1), while selections constant
on each cube can never beat the grid rounding of the source.
"""

import random
from fractions import Fraction as F

from smcsp import (bucket_constant_opt, completeness_check,
                   dictator_assignment, extract_TJ, generate_dict,
                   random_subset_labels, round_solution, vc_edge)

inst = vc_edge()
x = [F(1, 2), F(1, 2)]
r, delta, eps = 3, F(1, 10), F(1, 2)
D = generate_dict(inst, x, r, delta, eps)

print(f"source: one covering edge at x = (1/2, 1/2), value {D.source_value}")
print(f"blowup: {D.m} cube(s) of dimension {r}, "
      f"{len(D.instance.vertex_ids)} vertices, "
      f"{len(D.instance.edges)} constraints")

report = completeness_check(D)
print(f"\nevery dictator costs exactly {report['dictator_cost']} "
      f"(= (1-{delta}) * {D.source_value} + {delta})")
print(f"upper bound value + delta(q-1) = {report['bound']}")

bco, labels = bucket_constant_opt(D)
print(f"\ncube-constant optimum {bco} "
      f"== rounding value {round_solution(inst, x, eps).value}")

# Snapping an arbitrary selection to its almost-covered cubes costs at
# most delta extra; whether the result is feasible is a different story.
rng = random.Random(0)
sel = random_subset_labels(rng, len(D.instance.vertex_ids))
tj = extract_TJ(D, sel)
print(f"\nrandom selection: weight {tj['weight_S']}, snapped to "
      f"J = {tj['J']} at weight {tj['weight_TJ']} "
      f"(feasible: {tj['feasible']})")

dict_sel = dictator_assignment(D, 1)
tj = extract_TJ(D, dict_sel)
print(f"dictator selection covers only ~55% of each cube, so J = "
      f"{tj['J']} and the snap loses feasibility "
      f"(witness {tj['violated_edge']})")
