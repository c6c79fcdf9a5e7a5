"""Hypercube-blowup instances whose cheap solutions are coordinates.

``generate_dict`` turns an instance plus a fractional solution into a
new instance on vertices (b, y): one hypercube [q]^r per distinct
solution value, weighted by a product measure tilted toward the top
label.  It is the blowup of I' = ``collapse(inst, bucket_of)``, one
vertex per distinct value in first-occurrence order, so it depends only
on I' and those values.  Every r-tuple of support atoms of an edge's
smoothed distribution contributes one hyperedge, so the construction is
a deterministic enumeration rather than a sampler.  One phase-1 solve
per edge of I' yields its distribution and decides hull feasibility.

The key identities, checked where cheap (a failure raises
``PropertyViolation``, also under ``python -O``) and tested everywhere:

- every coordinate function y -> y_i is feasible and costs exactly
  (1 - delta) * val(I, x) + delta * (q - 1);
- assignments constant on each hypercube correspond one-to-one to
  bucket labelings of the source instance, so their optimum equals the
  snap-and-enumerate rounding value.  ``bucket_constant_opt`` computes
  it by collapsing each hypercube of the blowup to one vertex and
  running the same exact search as the rounding, on the blowup alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .caps import cap, check_bits, refuse
from .distributions import extract_edge_distribution, smooth
from .fourier import influences, mask_of
from .lp import val
from .model import (Instance, Point, PropertyViolation, point_distribution,
                    point_value, make_instance, assignment_cost, is_feasible,
                    cheapest_labeling, collapse, distribution_point,
                    exact_sum, tilted_value, violated_edge)
from .rounding import check_grid_fraction, perturb

ZERO = Fraction(0)
ONE = Fraction(1)


def bucket_map(x: Sequence[Point]):
    """Distinct solution values in first-occurrence order.

    Returns (m, values, bucket_of) where bucket_of[u] indexes values.
    """
    values = []
    index = {}
    bucket_of = []
    for pt in x:
        if pt not in index:
            index[pt] = len(values)
            values.append(pt)
        bucket_of.append(index[pt])
    return len(values), tuple(values), tuple(bucket_of)


def cube_measure(q: int, tilde: Point, y: Sequence[int]) -> Fraction:
    """Product probability of the string y under the tilted value."""
    dist = point_distribution(q, tilde)
    prob = ONE
    for a in y:
        prob *= dist[a]
    return prob


def _cube_points(m: int, q: int, r: int) -> list:
    """The (b, y) vertices of m hypercubes [q]^r: cube by cube, y in
    lexicographic order."""
    return [(b, y) for b in range(m)
            for y in itertools.product(range(q), repeat=r)]


def dict_vertex_id(b: int, y: Sequence[int]) -> str:
    return f"b{b}:y" + "".join(str(a) for a in y)


def parse_dict_vertex_id(vid: str):
    """Inverse of dict_vertex_id; raises ValueError on foreign ids."""
    match = re.fullmatch(r"b([0-9]+):y([0-9]+)", vid)
    if match is None:
        raise ValueError(f"not a hypercube vertex id: {vid!r}")
    return int(match[1]), tuple(int(c) for c in match[2])


@dataclass(frozen=True)
class DictInstance:
    """A blowup's hypercube structure; ``dict_view`` builds every one."""
    instance: Instance
    r: int
    tilde_values: tuple      # tilted value per cube, in bucket order
    bucket_weights: tuple    # total source weight per bucket
    points: tuple            # vertex index -> (b, y)
    delta: Fraction | None = None
    eps: Fraction | None = None
    source_value: Fraction | None = None  # val of the generating pair

    @property
    def m(self) -> int:
        return len(self.tilde_values)

    @property
    def q(self) -> int:
        return self.instance.q


def generate_dict(inst: Instance, x: Sequence[Point], r: int, delta,
                  eps) -> DictInstance:
    """Materialize the hypercube instance for (inst, x, r, delta).

    ``x`` must be hull-feasible and every entry must already sit on the
    eps-grid (the caller snaps first).  Its shape and value domain are
    checked before the grid, and an infeasible ``x`` raises
    ``ValueError`` naming the first edge of ``inst`` that fails, before
    any DICT cap is checked.  The blowup is built from I' alone.  Returns
    ``dict_view`` of the built instance with the generation parameters
    set, so a zero-weight bucket raises there.
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly between 0 and 1, "
                         f"got {delta}")
    if r < 1:
        raise ValueError("r must be a positive integer")
    eps = check_grid_fraction(eps)
    snapped = perturb(inst, x, eps).x_eps
    off = [vid for vid, pt, snap in zip(inst.vertex_ids, x, snapped)
           if snap != pt]
    if off:
        raise ValueError(f"solution entries off the eps-grid: {off}")

    q = inst.q
    m, values, bucket_of = bucket_map(x)
    first = {}  # edge of I' -> its first source edge, which errors name
    for e_idx, e in enumerate(inst.edges):
        first.setdefault((tuple(bucket_of[v] for v in e.vertices),
                          e.predicate), e_idx)
    dists = {edge: extract_edge_distribution(inst, x, e_idx)
             for edge, e_idx in first.items()}
    if r > cap("DICT"):  # m * q**r >= 2**r: refuse before building it
        refuse("DICT", "hypercube vertex count", f"at least 2^{r}")
    check_bits("DICT", m * q ** r, "hypercube vertex count")
    supports = {}
    for edge, e_idx in first.items():
        supports[edge] = [atom for atom, _ in smooth(dists[edge], delta).atoms]
        check_bits("DICT", len(supports[edge]) ** r,
                   f"support tuples of edge #{e_idx}")
    quotient = collapse(inst, bucket_of)
    tilde = tuple(tilted_value(q, p, delta) for p in values)

    points = _cube_points(m, q, r)
    weights = [cube_measure(q, tilde[b], y) * quotient.weights[b]
               for b, y in points]
    ids = [dict_vertex_id(b, y) for b, y in points]
    index = {pt: i for i, pt in enumerate(points)}

    edges = []  # distinct edges of I' give distinct hyperedges
    for edge in quotient.edges:
        for draws in itertools.product(supports[edge], repeat=r):
            verts = tuple(index[(b, tuple(draw[j] for draw in draws))]
                          for j, b in enumerate(edge.vertices))
            edges.append((verts, edge.predicate))

    out = make_instance(q, weights, inst.predicates, sorted(edges), ids)
    return replace(dict_view(out), delta=delta, eps=eps,
                   source_value=val(quotient, values))


def require_generated(D: DictInstance) -> None:
    """Raise ``ValueError`` unless D comes from ``generate_dict``: a
    ``dict_view`` result has no generation parameters."""
    if D.source_value is None:
        raise ValueError("a hypercube view has no delta, eps or source "
                         "value")


def dictator_assignment(D: DictInstance, i: int) -> tuple:
    """The labeling (b, y) -> y_i."""
    if not 0 <= i < D.r:
        raise ValueError(f"coordinate {i} out of range for r={D.r}")
    return tuple(y[i] for _, y in D.points)


def dictator_weight(D: DictInstance) -> Fraction:
    """Exact cost shared by all r coordinate labelings."""
    return sum((w * point_value(D.q, t)
                for w, t in zip(D.bucket_weights, D.tilde_values)), ZERO)


def completeness_check(D: DictInstance) -> dict:
    """Verify that every coordinate labeling is feasible and has the
    predicted exact cost; returns the per-coordinate report."""
    require_generated(D)
    value = D.source_value
    expected = (1 - D.delta) * value + D.delta * (D.q - 1)
    if dictator_weight(D) != expected:
        raise PropertyViolation(f"dictator weight {dictator_weight(D)} "
                                f"differs from {expected}")
    costs = []
    for i in range(D.r):
        labels = dictator_assignment(D, i)
        if not is_feasible(D.instance, labels):
            raise PropertyViolation(
                f"coordinate labeling {i} violates a constraint")
        cost = assignment_cost(D.instance, labels)
        if cost != expected:
            raise PropertyViolation(f"coordinate labeling {i} costs {cost}, "
                                    f"expected {expected}")
        costs.append(cost)
    bound = value + D.delta * (D.q - 1)
    if expected > bound:
        raise PropertyViolation(f"dictator cost {expected} exceeds the "
                                f"bound {bound}")
    return {"r": D.r, "delta": D.delta, "value": value,
            "dictator_cost": expected, "costs": costs, "bound": bound,
            "feasible": True}


# ---------------------------------------------------------------------------
# q = 2 subset machinery
# ---------------------------------------------------------------------------

def _require_boolean(D: DictInstance) -> None:
    if D.q != 2:
        raise ValueError("subset analysis is defined for q = 2 only")


def cube_tables(D: DictInstance, values: Sequence) -> list:
    """The m mask-indexed truth tables of a function on D's vertices,
    given as ``values`` in vertex order, one table per hypercube."""
    _require_boolean(D)
    cube = 2 ** D.r
    offset_of = [0] * cube  # mask -> position of its string in a cube
    for offset, (_, y) in enumerate(D.points[:cube]):
        offset_of[mask_of(y)] = offset
    return [[values[base + o] for o in offset_of]
            for base in range(0, len(D.points), cube)]


def cube_influences(table: Sequence, tilt, d: int) -> list:
    """Degree-d influences of a cube function under the tilt's measure.

    A tilt of 0 or 1 makes the cube measure a point mass, under which
    every influence vanishes: zeros, as floats for a float tilt.  A
    negative d, or a tilt outside [0, 1], which is no measure, raises
    ``ValueError``.
    """
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    if 0 < tilt < 1:
        return influences(table, tilt, d=d)
    if tilt not in (0, 1):
        raise ValueError(f"tilt {tilt} is outside [0, 1]")
    zero = 0.0 if isinstance(tilt, float) else ZERO
    return [zero] * (len(table).bit_length() - 1)


def extract_TJ(D: DictInstance, labels: Sequence[int]) -> dict:
    """Snap a selection to the union of its almost-covered hypercubes.

    A hypercube joins J when the tilted measure of its unselected part
    is at most delta.  The weight bound w(T_J) <= w(S) + delta holds for
    every selection and is checked (``PropertyViolation``); feasibility
    of T_J is only reported, with a violated edge as witness when it
    fails.
    """
    _require_boolean(D)
    require_generated(D)
    delta = D.delta
    cube = 2 ** D.r
    J = []
    outside = []
    for b in range(D.m):
        block = slice(b * cube, (b + 1) * cube)
        mass = sum((cube_measure(2, D.tilde_values[b], y)
                    for (_, y), a in zip(D.points[block], labels[block])
                    if not a), ZERO)
        outside.append(mass)
        if mass <= delta:
            J.append(b)
    selected = set(J)
    tj_labels = tuple(1 if b in selected else 0 for b, _ in D.points)
    w_s = assignment_cost(D.instance, labels)
    w_tj = assignment_cost(D.instance, tj_labels)
    if w_tj > w_s + delta:
        raise PropertyViolation(f"w(T_J) = {w_tj} exceeds w(S) + delta = "
                                f"{w_s + delta}")
    e = violated_edge(D.instance, tj_labels)
    violated = None if e is None else tuple(
        D.instance.vertex_ids[v] for v in D.instance.edges[e].vertices)
    return {"J": tuple(J), "labels": tj_labels, "outside_mass": outside,
            "weight_S": w_s, "weight_TJ": w_tj,
            "bound_ok": True, "feasible": violated is None,
            "violated_edge": violated}


def bucket_constant_opt(D: DictInstance):
    """Cheapest feasible labeling that is constant on every hypercube.

    Solves ``D.instance`` collapsed to one vertex per hypercube, so it
    needs no source instance and works on ``dict_view`` results too;
    returns (value, per-bucket labels) in D's bucket order.  The
    ``q**m`` labelings are bounded by the ENUM cap.
    """
    return cheapest_labeling(collapse(D.instance, [b for b, _ in D.points]))


def pseudo_random_check(D: DictInstance, labels: Sequence[int], tau,
                        d: int) -> dict:
    """Largest degree-d influence over all hypercubes and coordinates.

    The verdict is True when every influence is at most tau; all
    influences are exact rationals.
    """
    tables = cube_tables(D, [1 - a for a in labels])
    tau = Fraction(tau)
    worst = ZERO
    argmax = None
    table_out = []
    for b, (table, tilt) in enumerate(zip(tables, D.tilde_values)):
        row = cube_influences(table, tilt, d)
        for i, inf in enumerate(row):
            if inf > worst:
                worst, argmax = inf, (b, i)
        table_out.append(row)
    return {"tau": tau, "d": d, "max_influence": worst, "argmax": argmax,
            "pseudo_random": worst <= tau, "influences": table_out}


# ---------------------------------------------------------------------------
# reconstruction from a serialized instance
# ---------------------------------------------------------------------------

def dict_view(inst: Instance) -> DictInstance:
    """Rebuild the hypercube structure of a generated instance; the one
    constructor of ``DictInstance``, ``generate_dict`` included.

    Vertex ids carry (b, y), r is read off the first; per-cube measures
    are recovered from the weights (a zero-weight cube raises), so the
    result supports decoding and subset analysis but has no generation
    parameters (delta, eps, source value).
    """
    if not inst.vertex_ids:
        raise ValueError("instance has no vertices")
    r = len(parse_dict_vertex_id(inst.vertex_ids[0])[1])
    cube = inst.q ** r
    m = len(inst.vertex_ids) // cube
    points = _cube_points(m, inst.q, r)
    if list(inst.vertex_ids) != [dict_vertex_id(b, y) for b, y in points]:
        raise ValueError("vertex ids do not enumerate full hypercubes "
                         "in canonical order")
    bucket_weights = []
    tilde = []
    for b in range(m):
        block = inst.weights[b * cube: (b + 1) * cube]
        w_b = exact_sum(block)
        bucket_weights.append(w_b)
        if w_b == 0:
            raise ValueError(f"hypercube {b} has zero weight; its "
                             "measure cannot be recovered")
        # the mass of each first label, summed once and divided once
        by_first = [[] for _ in range(inst.q)]
        for (_, y), w in zip(points[b * cube: (b + 1) * cube], block):
            by_first[y[0]].append(w)
        tilde.append(distribution_point(
            inst.q, [exact_sum(ws) / w_b for ws in by_first]))
    return DictInstance(inst, r, tuple(tilde), tuple(bucket_weights),
                        tuple(points))
