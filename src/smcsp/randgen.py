"""Deterministic builders for test corpora.

Everything here is a pure function of its seed (via ``random.Random``),
so test suites and demos can regenerate the exact same instances.  The
named builders at the bottom are the small hand-picked examples used
throughout the documentation.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .model import (Instance, Predicate, PropertyViolation,
                    covering_predicate, is_feasible, make_instance,
                    solution_from_assignments)
from .unique_games import UgInstance


def random_weights(rng: random.Random, n: int) -> list:
    """n positive rationals summing to exactly 1."""
    parts = [rng.randint(1, 9) for _ in range(n)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def minimal_antichain(tuples) -> tuple:
    """Minimal elements of a tuple set under the coordinatewise order."""
    out = []
    for t in sorted(set(tuples), key=lambda t: (sum(t), t)):
        if not any(all(a >= b for a, b in zip(t, s)) for s in out):
            out.append(t)
    return tuple(sorted(out))


def random_monotone_predicate(rng: random.Random, q: int, arity: int,
                              name: str) -> Predicate:
    """Upward-closed predicate from a few random nonzero generators."""
    count = rng.randint(1, 3)
    gens = set()
    while len(gens) < count:
        t = tuple(rng.randrange(q) for _ in range(arity))
        if any(t):
            gens.add(t)
    return Predicate(name, arity, q, minimal_antichain(gens))


def random_instance(rng: random.Random, q: int, n: int, n_edges: int,
                    max_arity: int = 3) -> Instance:
    """Random instance with fresh predicates, one per constraint."""
    predicates = []
    edges = []
    for i in range(n_edges):
        arity = rng.randint(2, min(max_arity, n))
        verts = tuple(rng.sample(range(n), arity))
        predicates.append(random_monotone_predicate(rng, q, arity, f"p{i}"))
        edges.append((verts, i))
    return make_instance(q, random_weights(rng, n), predicates, edges)


def random_cover_instance(rng: random.Random, n: int, n_edges: int,
                          arity: int = 2) -> Instance:
    """Random covering instance (a weighted graph when arity is 2)."""
    pred = covering_predicate(arity)
    pool = list(itertools.combinations(range(n), arity))
    rng.shuffle(pool)
    chosen = sorted(pool[:min(n_edges, len(pool))])
    edges = [(verts, 0) for verts in chosen]
    return make_instance(2, random_weights(rng, n), [pred], edges)


def random_feasible_assignment(rng: random.Random, inst: Instance) -> tuple:
    """A feasible labeling: random start, violated edges pushed to top."""
    labels = [rng.randrange(inst.q) for _ in range(inst.n)]
    for e in inst.edges:
        pred = inst.predicates[e.predicate]
        if not pred.accepts(tuple(labels[v] for v in e.vertices)):
            for v in e.vertices:
                labels[v] = inst.q - 1
    if not is_feasible(inst, labels):
        raise PropertyViolation("labeling with every violated edge pushed "
                                "to the top label is infeasible")
    return tuple(labels)


def random_feasible_solution(rng: random.Random, inst: Instance) -> list:
    """Hull-feasible point: convex mix of three feasible labelings."""
    assignments = [random_feasible_assignment(rng, inst) for _ in range(3)]
    coeffs = random_weights(rng, 3)
    return solution_from_assignments(inst, assignments, coeffs)


def random_subset_labels(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randrange(2) for _ in range(n))


def random_game(rng: random.Random, r: int, n_left: int, n_right: int,
                extra_edges: int = 0):
    """Projection game consistent with a hidden labeling.

    Every left vertex gets at least one edge.  Returns (game, hidden)
    where hidden is the planted labeling, satisfying every edge, over
    both sides.
    """
    left = [f"u{i}" for i in range(n_left)]
    right = [f"v{i}" for i in range(n_right)]
    hidden = {vid: rng.randrange(r) for vid in left + right}
    edges = []
    pairs = [(u, rng.randrange(n_right)) for u in range(n_left)]
    pairs += [(rng.randrange(n_left), rng.randrange(n_right))
              for _ in range(extra_edges)]
    for u, v in pairs:
        perm = list(range(r))
        rng.shuffle(perm)
        a, b = hidden[left[u]], hidden[right[v]]
        # swap so the bijection sends the planted left label to the
        # planted right label
        j = perm.index(b)
        perm[j], perm[a] = perm[a], b
        edges.append((u, v, perm))
    weights = random_weights(rng, len(edges))
    game = UgInstance(
        r, tuple(left), tuple(right),
        tuple((u, v, wt, tuple(perm))
              for (u, v, perm), wt in zip(edges, weights)))
    return game, hidden


# ---------------------------------------------------------------------------
# named examples
# ---------------------------------------------------------------------------

def vc_edge() -> Instance:
    """Single covering constraint on two vertices of weight 1/2."""
    return make_instance(2, [Fraction(1, 2)] * 2, [covering_predicate(2)],
                         [((0, 1), 0)], ["u", "v"])


def hvc(k: int) -> Instance:
    """One covering constraint over k uniformly weighted vertices."""
    return make_instance(2, [Fraction(1, k)] * k, [covering_predicate(k)],
                         [(tuple(range(k)), 0)],
                         [f"v{i}" for i in range(k)])


def triangle_cover() -> Instance:
    """Vertex cover on the triangle, uniform weights."""
    return make_instance(2, [Fraction(1, 3)] * 3, [covering_predicate(2)],
                         [((0, 1), 0), ((1, 2), 0), ((0, 2), 0)],
                         ["a", "b", "c"])


def ternary_chain() -> Instance:
    """Three-label example: two constraints sharing a middle vertex.

    The first constraint wants label sums of its pair to reach 2, the
    second accepts once its pair dominates (1, 1).
    """
    sum2 = Predicate("sum2", 2, 3, ((0, 2), (1, 1), (2, 0)))
    both1 = Predicate("both1", 2, 3, ((1, 1),))
    return make_instance(3, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                         [sum2, both1], [((0, 1), 0), ((1, 2), 1)],
                         ["a", "b", "c"])


def twisted_cycle():
    """Four-cycle game with one twisted bijection; optimum is 3/4."""
    swap = (1, 0)
    ident = (0, 1)
    game = UgInstance(
        2, ("u0", "u1"), ("v0", "v1"),
        ((0, 0, Fraction(1, 4), ident),
         (0, 1, Fraction(1, 4), ident),
         (1, 0, Fraction(1, 4), ident),
         (1, 1, Fraction(1, 4), swap)))
    return game
