"""Core object model: weighted monotone constraint instances.

An instance consists of weighted vertices (weights are exact rationals
summing to one), an ordered alphabet ``{0, ..., q-1}``, and hyperedges.
Each hyperedge carries a predicate whose accepting set is upward closed
in the coordinatewise order and is stored by its minimal elements.  An
assignment maps every vertex to a label; it is feasible when every edge
tuple is accepted, and its cost is the weight-average of its labels.

Fractional relaxations assign each vertex a *point*, a rational label
distribution, written for ``q == 2`` as its mass on label 1; the point
is in the value domain when the distribution lies in the simplex.  Only
``point_distribution`` and its inverse know the ``q == 2`` convention.

Every exhaustive minimization in the package goes through one exact
search, ``cheapest_labeling``: the cheapest feasible labeling,
lexicographically least on ties.  It checks its own ``q**n`` budget
against the ENUM cap.  ``brute_force_opt`` runs it on the instance
itself.  Bucket rounding and the hypercube-constant optimum run it on a
quotient built by ``collapse``, which merges each group of vertices
into one, so labelings of the quotient are exactly the labelings
constant on the groups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .caps import check_bits

Point = Union[Fraction, tuple]  # mass on label 1 if q == 2, else distribution

ZERO = Fraction(0)
ONE = Fraction(1)


class PropertyViolation(AssertionError):
    """A checked property of a computed result failed.

    Raised explicitly, so ``python -O`` cannot strip the check; it
    subclasses ``AssertionError``, so the CLI still exits 1.
    """


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Predicate:
    """Upward-closed accepting set over tuples in ``{0..q-1}**arity``.

    ``minimal`` holds the minimal accepted tuples (a nonempty antichain);
    a tuple is accepted iff it dominates one of them coordinatewise.
    """

    name: str
    arity: int
    q: int
    minimal: tuple

    def accepts(self, labels: Sequence[int]) -> bool:
        if len(labels) != self.arity:
            raise ValueError(
                f"predicate {self.name}: tuple of length {len(labels)}, "
                f"arity is {self.arity}"
            )
        return any(
            all(labels[j] >= m[j] for j in range(self.arity)) for m in self.minimal
        )

    def validate(self) -> list:
        problems = []
        if not self.name:
            problems.append("predicate with empty name")
        if self.arity < 1:
            problems.append(f"predicate {self.name}: arity must be >= 1")
        if not self.minimal:
            problems.append(f"predicate {self.name}: empty minimal set")
        for m in self.minimal:
            if len(m) != self.arity:
                problems.append(
                    f"predicate {self.name}: minimal element {m} has wrong length"
                )
            elif not all(isinstance(a, int) and 0 <= a < self.q for a in m):
                problems.append(
                    f"predicate {self.name}: minimal element {m} outside alphabet"
                )
        for m1, m2 in itertools.combinations(self.minimal, 2):
            if len(m1) == len(m2) == self.arity:
                if all(a <= b for a, b in zip(m1, m2)) or all(
                    a >= b for a, b in zip(m1, m2)
                ):
                    problems.append(
                        f"predicate {self.name}: {m1} and {m2} are comparable "
                        "(minimal set must be an antichain)"
                    )
        return problems


_CLOSURE_CACHE: dict = {}


def upward_closure(pred: Predicate) -> tuple:
    """Materialize the full accepting set of ``pred``, sorted.

    Enumerates all ``q**arity`` tuples, so every call checks the EXPAND cap.
    """
    check_bits("EXPAND", pred.q ** pred.arity, f"accepting set of {pred.name}")
    key = (pred.q, pred.arity, pred.minimal)
    hit = _CLOSURE_CACHE.get(key)
    if hit is not None:
        return hit
    accepted = tuple(
        t
        for t in itertools.product(range(pred.q), repeat=pred.arity)
        if pred.accepts(t)
    )
    _CLOSURE_CACHE[key] = accepted
    return accepted


def covering_predicate(arity: int) -> Predicate:
    """The boolean 'at least one 1' predicate (minimal set = unit tuples)."""
    minimal = tuple(sorted(
        tuple(1 if j == i else 0 for j in range(arity)) for i in range(arity)
    ))
    return Predicate(f"cover{arity}", arity, 2, minimal)


def is_covering_predicate(pred: Predicate) -> bool:
    return pred.q == 2 and (set(pred.minimal)
                            == set(covering_predicate(pred.arity).minimal))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class Edge(NamedTuple):
    """A hyperedge *is* its ``(vertices, predicate)`` pair.

    It equals, hashes and sorts as that plain tuple and unpacks as
    ``vs, p = e``; the names are a view on the two fields.
    """

    vertices: tuple  # vertex indices; repeats are allowed
    predicate: int   # index into Instance.predicates


@dataclass(frozen=True)
class Instance:
    q: int
    vertex_ids: tuple
    weights: tuple       # Fractions, nonnegative, summing to exactly 1
    predicates: tuple    # Predicate objects
    edges: tuple         # Edge pairs

    @property
    def n(self) -> int:
        return len(self.vertex_ids)

    def predicate_of(self, edge: Edge) -> Predicate:
        return self.predicates[edge.predicate]


def make_instance(
    q: int,
    weights: Sequence,
    predicates: Sequence[Predicate],
    edges: Sequence,
    vertex_ids: Sequence | None = None,
) -> Instance:
    """Build an Instance from loose data and validate it.

    Each edge may be any ``(vertices, predicate)`` pair; it is stored as
    an ``Edge`` with tuple vertices, and an ``Edge`` passes through as is.
    """
    weights = tuple([w if type(w) is Fraction else Fraction(w)
                     for w in weights])
    if vertex_ids is None:
        vertex_ids = tuple(f"v{i}" for i in range(len(weights)))
    else:
        vertex_ids = tuple(vertex_ids)
    edges = tuple([e if type(e) is Edge else Edge(tuple(e[0]), e[1])
                   for e in edges])
    inst = Instance(q, vertex_ids, weights, tuple(predicates), edges)
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    return inst


def validate_instance(inst: Instance) -> list:
    """Return a list of violated structural invariants (empty when valid)."""
    problems = []
    if inst.q < 2:
        problems.append(f"alphabet size q={inst.q}, must be >= 2")
    if len(inst.vertex_ids) != len(inst.weights):
        problems.append("vertex id list and weight list differ in length")
    if len(inst.vertex_ids) == 0:
        problems.append("instance has no vertices")
    if len(set(inst.vertex_ids)) != len(inst.vertex_ids):
        problems.append("duplicate vertex ids (ids are not unique)")
    if any(not vid for vid in inst.vertex_ids):
        problems.append("empty vertex id")
    for vid, w in zip(inst.vertex_ids, inst.weights):
        if not isinstance(w, Fraction):
            problems.append(f"weight of {vid} is not an exact rational")
        elif w < 0:
            problems.append(f"weight of {vid} is negative")
    total = sum(inst.weights, ZERO)
    if total != 1:
        problems.append(f"weights sum to {total}, expected exactly 1")
    names = [p.name for p in inst.predicates]
    if len(set(names)) != len(names):
        problems.append("duplicate predicate names (names are not unique)")
    for p in inst.predicates:
        problems.extend(p.validate())
        if p.q != inst.q:
            problems.append(
                f"predicate {p.name} has alphabet {p.q}, instance has {inst.q}"
            )
    n = len(inst.vertex_ids)
    arities = [p.arity for p in inst.predicates]
    for i, e in enumerate(inst.edges):
        p, vs = e.predicate, e.vertices
        if not (0 <= p < len(arities)):
            problems.append(f"edge {i}: predicate index {p} out of range")
            continue
        if len(vs) != arities[p]:
            problems.append(
                f"edge {i}: {len(vs)} vertices but predicate "
                f"{inst.predicates[p].name} has arity {arities[p]}"
            )
        if vs and (min(vs) < 0 or max(vs) >= n):
            problems.extend(f"edge {i}: vertex index {v} out of range"
                            for v in vs if not (0 <= v < n))
    return problems


# ---------------------------------------------------------------------------
# assignments
# ---------------------------------------------------------------------------

def validate_assignment(inst: Instance, labels: Sequence[int]) -> None:
    if len(labels) != inst.n:
        raise ValueError(f"assignment length {len(labels)} != n = {inst.n}")
    for vid, a in zip(inst.vertex_ids, labels):
        if not (0 <= a < inst.q):
            raise ValueError(f"label {a} of vertex {vid} outside alphabet "
                             f"[0, {inst.q})")


def assignment_cost(inst: Instance, labels: Sequence[int]) -> Fraction:
    """Weighted average label: sum_v w_v * labels[v]."""
    validate_assignment(inst, labels)
    return sum(
        (w * a for w, a in zip(inst.weights, labels) if a), ZERO
    )


def violated_edge(inst: Instance, labels: Sequence[int]) -> int | None:
    """Index of the first edge whose tuple is rejected, None if none is."""
    validate_assignment(inst, labels)
    for i, e in enumerate(inst.edges):
        pred = inst.predicate_of(e)
        if not pred.accepts(tuple(labels[v] for v in e.vertices)):
            return i
    return None


def is_feasible(inst: Instance, labels: Sequence[int]) -> bool:
    return violated_edge(inst, labels) is None


def collapse(inst: Instance, part_of: Sequence[int]) -> Instance:
    """Quotient of ``inst`` that merges each part into one vertex.

    Vertex ``v`` goes to part ``part_of[v]``; parts are numbered
    ``0..max(part_of)``, and part ``p`` becomes vertex ``v<p>``, which
    weighs the sum of its members.  Edges become their images under the
    map, sorted, with duplicates dropped.  Labelings of the quotient are
    the labelings of ``inst`` that are constant on every part, at the
    same cost and with the same feasibility.
    """
    weights = [ZERO] * (max(part_of) + 1)
    for w, p in zip(inst.weights, part_of):
        weights[p] += w
    edges = sorted({(tuple(part_of[v] for v in e.vertices), e.predicate)
                    for e in inst.edges})
    return make_instance(inst.q, weights, inst.predicates, edges)


# one vectorized pass covers at most this many labelings
_BLOCK = 1 << 16


def cheapest_labeling(inst: Instance):
    """Exact search: ``(min cost, lexicographically least optimal labeling)``.

    Labelings are read in mixed radix with vertex 0 most significant.
    The last ``k`` vertices form a block of ``q**k <= 2**16`` labelings
    that numpy checks at once, through one lookup table per edge on its
    local tuple; the leading vertices are iterated in lexicographic
    order.  Costs are exact integers, the weights times the lcm of their
    denominators, held as int64 when ``(q-1) * lcm < 2**62`` and as
    Python ints otherwise.  The first argmin within a block and a strict
    ``<`` across blocks keep the lexicographically least optimum.  The
    ``q**n`` labelings are bounded by the ENUM cap (log2 budget).
    """
    n, q = inst.n, inst.q
    check_bits("ENUM", q ** n, "labeling search space")
    scale = math.lcm(*(w.denominator for w in inst.weights))
    int_w = [w.numerator * (scale // w.denominator) for w in inst.weights]
    dtype = np.int64 if (q - 1) * scale < 1 << 62 else object
    k = n
    while q ** k > _BLOCK:
        k -= 1
    h = n - k  # vertices h..n-1 form the vectorized block
    block = np.arange(q ** k)
    # digits[v - h]: the label of vertex v >= h across the block
    digits = [block // q ** (n - 1 - v) % q for v in range(h, n)]

    low_cost = np.zeros(len(block), dtype=dtype)
    for v in range(h, n):
        low_cost += digits[v - h].astype(dtype) * int_w[v]
    ok_low = np.ones(len(block), dtype=bool)  # edges inside the block
    prefix_edges = []  # (table, block part of the index, prefix part)
    for e in inst.edges:
        pred = inst.predicate_of(e)
        radix = [q ** (pred.arity - 1 - j) for j in range(pred.arity)]
        table = np.zeros(q ** pred.arity, dtype=bool)
        for t in upward_closure(pred):
            table[sum(a * r for a, r in zip(t, radix))] = True
        low = sum(digits[v - h] * r for v, r in zip(e.vertices, radix)
                  if v >= h)
        high = [(v, r) for v, r in zip(e.vertices, radix) if v < h]
        if high:
            prefix_edges.append((table, low, high))
        else:
            ok_low &= table[low]

    best = best_labels = None
    for prefix in itertools.product(range(q), repeat=h):
        ok = ok_low.copy()
        for table, low, high in prefix_edges:
            # shift the small table rather than add to the block-long
            # index: that would allocate a block-long array per edge
            ok &= table[sum(prefix[v] * r for v, r in high):][low]
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            continue
        i = int(hits[np.argmin(low_cost[hits])])
        cost = sum(a * w for a, w in zip(prefix, int_w)) + int(low_cost[i])
        if best is None or cost < best:
            best = cost
            best_labels = prefix + tuple(i // q ** (k - 1 - j) % q
                                         for j in range(k))
    if best is None:
        raise PropertyViolation("no feasible assignment (upward-closed "
                                "predicates should always accept the "
                                "all-top assignment)")
    return Fraction(best, scale), best_labels


def brute_force_opt(inst: Instance):
    """Exhaustive optimum: returns ``(opt value, optimal assignment)``.

    Ties are broken by the lexicographically smallest assignment.
    """
    return cheapest_labeling(inst)


# ---------------------------------------------------------------------------
# fractional points
# ---------------------------------------------------------------------------

def check_point(q: int, pt: Point) -> None:
    """Validate the shape of one vertex value of a fractional solution."""
    if q == 2:
        if not isinstance(pt, Fraction):
            raise ValueError(f"q=2 expects scalar rationals, got {pt!r}")
    else:
        if not isinstance(pt, tuple) or len(pt) != q:
            raise ValueError(f"q={q} expects length-{q} tuples, got {pt!r}")
        if any(not isinstance(a, Fraction) for a in pt):
            raise ValueError(f"distribution {pt} has non-rational entries")


def point_distribution(q: int, pt: Point) -> tuple:
    """The point as a label distribution (scalar x becomes (1-x, x))."""
    return (ONE - pt, pt) if q == 2 else pt


def distribution_point(q: int, dist: Sequence[Fraction]) -> Point:
    """Inverse of ``point_distribution``: the mass on label 1 for q == 2."""
    return dist[1] if q == 2 else tuple(dist)


def point_in_domain(q: int, pt: Point) -> bool:
    """The point's label distribution lies in the simplex."""
    dist = point_distribution(q, pt)
    return all(a >= 0 for a in dist) and sum(dist, ZERO) == 1


def check_solution(inst: Instance, x: Sequence[Point]) -> None:
    if len(x) != inst.n:
        raise ValueError(f"solution length {len(x)} != n = {inst.n}")
    for vid, pt in zip(inst.vertex_ids, x):
        try:
            check_point(inst.q, pt)
        except ValueError as exc:
            raise ValueError(f"x[{vid}]: {exc}") from None


def solution_in_domain(inst: Instance, x: Sequence[Point]) -> bool:
    """Check the shape of ``x``, then whether every point is in domain."""
    check_solution(inst, x)
    return all(point_in_domain(inst.q, pt) for pt in x)


def point_value(q: int, pt: Point) -> Fraction:
    """Expected label of a point: the sum of i times the mass on i."""
    dist = point_distribution(q, pt)
    return sum((i * dist[i] for i in range(2, q)), dist[1])


def tilted_value(q: int, pt: Point, delta: Fraction) -> Point:
    """(1 - delta) * p + delta * (top label point)."""
    out = [(1 - delta) * a for a in point_distribution(q, pt)]
    out[q - 1] += delta
    return distribution_point(q, out)


def label_point(q: int, a: int) -> Point:
    """The integral point concentrated on label ``a``."""
    return distribution_point(q, [ONE if i == a else ZERO for i in range(q)])


def mix_points(q: int, points: Sequence[Point], coeffs: Sequence[Fraction]) -> Point:
    """Convex combination of points (exact)."""
    dists = [point_distribution(q, p) for p in points]
    mixed = [sum((c * d[i] for c, d in zip(coeffs, dists)), ZERO)
             for i in range(q)]
    return distribution_point(q, mixed)


def solution_from_assignments(
    inst: Instance, assignments: Sequence[Sequence[int]], coeffs: Sequence[Fraction]
) -> list:
    """Fractional solution given by a convex mix of integral assignments.

    Always feasible for the hull relaxation: per edge, the mix of the
    accepted integral tuples is its own decomposition certificate.
    """
    if sum(coeffs, ZERO) != 1 or any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be a convex combination")
    return [mix_points(inst.q, [label_point(inst.q, labels[v])
                                for labels in assignments], coeffs)
            for v in range(inst.n)]
