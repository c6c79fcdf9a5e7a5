"""Distributions over an edge's accepted tuples.

A hull-feasible solution restricted to an edge is a mixture of accepted
tuples; ``lp.edge_mixture`` recovers one such mixture exactly by
phase-1 simplex, and because the basis is deterministic the recovered
distribution is a canonical function of the input.  ``smooth`` pushes a
distribution through independent per-coordinate resampling toward the
top label, which keeps the support inside the (upward-closed) accepting
set while giving every atom probability bounded away from zero.

``maximal_correlation`` is the one floating-point surface here: it is
the second singular value of the normalized joint-probability matrix of
two coordinate groups (tolerance around 1e-9 from the LAPACK SVD).  The
Cheeger-style check compares it against ``1 - alpha**2 / 2`` where
``alpha`` is the smallest positive atom of the restricted joint
distribution, valid whenever the bipartite support graph is connected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lp import edge_mixture
from .model import (
    Instance,
    Point,
    Predicate,
    PropertyViolation,
    ZERO,
    point_distribution,
    tilted_value,
)


@dataclass(frozen=True)
class EdgeDistribution:
    """Finitely supported distribution over accepted label tuples.

    ``extract_edge_distribution`` and ``smooth`` build it through one
    constructor that checks the atoms are accepted and sum to one.
    """

    q: int
    arity: int
    predicate: Predicate
    atoms: tuple  # ((labels tuple, positive Fraction), ...) sorted by tuple

    def total(self) -> Fraction:
        return sum((p for _, p in self.atoms), ZERO)


def _make_distribution(q, arity, predicate, prob_map) -> EdgeDistribution:
    atoms = tuple(sorted((t, p) for t, p in prob_map.items() if p != 0))
    dist = EdgeDistribution(q, arity, predicate, atoms)
    if dist.total() != 1:
        raise PropertyViolation(f"distribution has total mass {dist.total()}")
    for t, _ in atoms:
        if not predicate.accepts(t):
            raise PropertyViolation(
                f"support atom {t} rejected by predicate")
    return dist


def extract_edge_distribution(inst: Instance, x: Sequence[Point],
                              edge_index: int) -> EdgeDistribution:
    """Canonical mixture of accepted tuples matching x on one edge.

    The atoms are ``lp.edge_mixture`` of the edge: the basic solution of
    its decomposition system by exact phase-1 simplex.  Raises
    ``ValueError`` when x is not hull-feasible on the edge.  ``x`` must
    already have passed ``check_solution``, once for all its edges.
    """
    e = inst.edges[edge_index]
    mixture = edge_mixture(inst, x, e)
    if mixture is None:
        raise ValueError(f"edge {edge_index}: solution is not hull-feasible")
    return _make_distribution(inst.q, len(e.vertices), inst.predicate_of(e),
                              mixture)


def min_atom(dist: EdgeDistribution) -> Fraction:
    """Smallest positive atom probability."""
    return min(p for _, p in dist.atoms)


def smooth(dist: EdgeDistribution, delta) -> EdgeDistribution:
    """Independently resample each coordinate to the top label w.p. delta.

    The exact pushforward: an atom t moves mass
    ``delta**|T| * (1-delta)**(non-top coords outside T)`` to the tuple
    with the coordinates in T raised to ``q-1``.  Support only ever
    moves up, so acceptance is preserved.
    """
    delta = Fraction(delta)
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    top = dist.q - 1
    out: dict = {}
    for t, p in dist.atoms:
        free = [j for j, a in enumerate(t) if a != top]
        for pattern in itertools.product((0, 1), repeat=len(free)):
            raised = list(t)
            mass = p
            for j, bit in zip(free, pattern):
                if bit:
                    raised[j] = top
                    mass *= delta
                else:
                    mass *= 1 - delta
            key = tuple(raised)
            out[key] = out.get(key, ZERO) + mass
    return _make_distribution(dist.q, dist.arity, dist.predicate, out)


def margin(dist: EdgeDistribution, i: int) -> tuple:
    """Marginal label distribution of coordinate i (length-q tuple)."""
    out = [ZERO] * dist.q
    for t, p in dist.atoms:
        out[t[i]] += p
    return tuple(out)


def expected_margin(q: int, pt: Point, delta=None) -> tuple:
    """Margin predicted from the vertex value, optionally smoothed.

    Without smoothing the coordinate margin of a decomposition equals
    the vertex's own label distribution; smoothing mixes it with the
    point mass on the top label at rate delta.
    """
    if delta is not None:
        pt = tilted_value(q, pt, Fraction(delta))
    return point_distribution(q, pt)


def restrict(dist: EdgeDistribution, coords: Sequence[int]) -> dict:
    """Marginal joint distribution on a coordinate subset."""
    coords = tuple(coords)
    out: dict = {}
    for t, p in dist.atoms:
        key = tuple(t[j] for j in coords)
        out[key] = out.get(key, ZERO) + p
    return out


def joint_matrix(dist: EdgeDistribution, side1: Sequence[int],
                 side2: Sequence[int]):
    """Joint over two disjoint coordinate groups as (rows, cols, matrix)."""
    side1, side2 = tuple(side1), tuple(side2)
    if not side1 or not side2:
        raise ValueError("both coordinate groups must be nonempty")
    if set(side1) & set(side2):
        raise ValueError("coordinate groups must be disjoint")
    if not all(0 <= j < dist.arity for j in side1 + side2):
        raise ValueError("coordinate index out of range")
    joint = restrict(dist, side1 + side2)
    rows = sorted({key[: len(side1)] for key in joint})
    cols = sorted({key[len(side1):] for key in joint})
    matrix = [[joint.get(a + b, ZERO) for b in cols] for a in rows]
    return rows, cols, matrix


def maximal_correlation(dist: EdgeDistribution, side1: Sequence[int],
                        side2: Sequence[int]) -> float:
    """Maximal correlation between two coordinate groups.

    Computed as the second singular value of
    ``Q[a, b] = P[a, b] / sqrt(P1[a] * P2[b])``; a side with a single
    support point has correlation 0 by convention.  Accuracy is limited
    only by the double-precision SVD (~1e-9 in practice).
    """
    return _maximal_correlation(joint_matrix(dist, side1, side2)[2])


def _maximal_correlation(matrix) -> float:
    """Second singular value of the normalized joint matrix."""
    if len(matrix) == 1 or len(matrix[0]) == 1:
        return 0.0
    p1 = [sum(row, ZERO) for row in matrix]
    p2 = [sum(col, ZERO) for col in zip(*matrix)]
    # each entry is formed exactly before it becomes a float: the float
    # product of two tiny marginals underflows to 0
    Q = np.array([[math.sqrt(float(a * a / (s1 * s2)))
                   for a, s2 in zip(row, p2)]
                  for row, s1 in zip(matrix, p1)])
    sv = np.linalg.svd(Q, compute_uv=False)
    return float(min(max(sv[1], 0.0), 1.0))


def cheeger_check(dist: EdgeDistribution, side1: Sequence[int],
                  side2: Sequence[int]) -> dict:
    """Correlation bound from the smallest atom of the restricted joint.

    For a connected bipartite support graph the maximal correlation is
    at most ``1 - alpha**2 / 2`` with ``alpha`` the smallest positive
    joint probability, checked up to a slack of 1e-6 for the SVD's float
    error.  Disconnected supports are reported and skipped.
    """
    rows, cols, matrix = joint_matrix(dist, side1, side2)
    edges = [
        (i, j)
        for i in range(len(rows))
        for j in range(len(cols))
        if matrix[i][j] > 0
    ]
    adjacency: dict = {}
    for i, j in edges:
        adjacency.setdefault(("r", i), set()).add(("c", j))
        adjacency.setdefault(("c", j), set()).add(("r", i))
    nodes = set(adjacency)
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency[node] - seen)
    connected = seen == nodes
    alpha = min(matrix[i][j] for i, j in edges)
    rho = _maximal_correlation(matrix)
    bound = 1 - float(alpha) ** 2 / 2
    return {
        "connected": connected,
        "alpha": alpha,
        "rho": rho,
        "bound": bound,
        "ok": (not connected) or rho <= bound + 1e-6,
    }
