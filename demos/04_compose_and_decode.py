"""Composing a bijection game with a hypercube instance, then decoding.

A labeling satisfying every game edge yields a cheap solution of the
composed instance (copies of a dictator, twisted by each edge's
bijection).  Decoding inverts this: influence analysis of the selection
on each right vertex's averaged cubes recovers the labeling.
"""

import random
from fractions import Fraction as F

from smcsp import (compose, completeness_solution, decode_labeling,
                   dictator_weight, generate_dict, random_game,
                   ug_satisfied_weight, vc_edge)

rng = random.Random(4)
r = 3
game, planted = random_game(rng, r, n_left=3, n_right=2, extra_edges=1)
print(f"game: r = {r}, {game.n_left} left / {game.n_right} right, "
      f"{len(game.edges)} edges, planted labeling {planted}")

D = generate_dict(vc_edge(), [F(1, 2), F(1, 2)], r, F(1, 10), F(1, 2))
F_inst = compose(game, D)
print(f"composed: {len(F_inst.vertex_ids)} vertices, "
      f"{len(F_inst.edges)} constraints")

selection, report = completeness_solution(game, planted, D, F_inst,
                                          lp_value=F(1, 2))
print(f"\nplanted labeling -> selection of weight {report['weight']} "
      f"(= dictator weight {dictator_weight(D)})")
print(f"bound from lp + eps + delta(q-1): {report['bound']}")

decoded, influence_table = decode_labeling(game, D, selection)
print(f"\ndecoded labeling: {decoded}")
print(f"matches planted: {decoded == planted}")
print(f"satisfied weight: {ug_satisfied_weight(game, decoded)}")

for vid in game.right:
    rows = influence_table[vid]
    flat = [f"{v:.4f}" for row in rows for v in row]
    print(f"  influences at {vid}: {flat}")
