"""Core object model: weighted monotone constraint instances.

An instance consists of weighted vertices (weights are exact rationals
summing to one), an ordered alphabet ``{0, ..., q-1}``, and hyperedges.
Each hyperedge carries a predicate whose accepting set is upward closed
in the coordinatewise order and is stored by its minimal elements.  The
hyperedges are stored as the rows of one integer array (``EdgeRows``);
an ``Edge`` pair is the view that readers walking them get.  An
assignment maps every vertex to a label; it is feasible when every edge
tuple is accepted, and its cost is the weight-average of its labels.

Fractional relaxations assign each vertex a *point*, a rational label
distribution, written for ``q == 2`` as its mass on label 1; the point
is in the value domain when the distribution lies in the simplex.  Only
``point_distribution`` and its inverse know the ``q == 2`` convention.

Every exact minimization in the package goes through one search,
``cheapest_labeling``: the cheapest feasible labeling, lexicographically
least on ties.  It is a depth-first branch-and-bound over the leading
vertices, cut where upward closure shows no feasible completion or
where the partial cost reaches the best found, with the last vertices
checked as one numpy block at each leaf.  It checks its own ``q**n``
search space against the ENUM cap.  ``brute_force_opt`` runs it on the
instance itself.  Bucket rounding and the hypercube-constant optimum
run it on a quotient built by ``collapse``, which merges each group of
vertices into one, so labelings of the quotient are exactly the
labelings constant on the groups.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .caps import check_bits

Point = Union[Fraction, tuple]  # mass on label 1 if q == 2, else distribution

ZERO = Fraction(0)
ONE = Fraction(1)


def exact_sum(values: Sequence) -> Fraction:
    """``sum(values, ZERO)``.  When every value is a ``Fraction`` or an
    ``int`` (a bool is neither), it adds the integer numerators over the
    lcm of the denominators and divides once, instead of reducing a
    ``Fraction`` at every addition."""
    if set(map(type, values)) - {Fraction, int}:
        return sum(values, ZERO)
    scale = math.lcm(*[v.denominator for v in values])
    return Fraction(sum([v.numerator * (scale // v.denominator)
                         for v in values]), scale)


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
    ``vs, p = e``; the names are a view on the two fields.  An
    instance stores its edges as ``EdgeRows``, and ``Edge`` is the view
    that readers walking the edges get.
    """

    vertices: tuple  # vertex indices; repeats are allowed
    predicate: int   # index into Instance.predicates


def _indices(values) -> np.ndarray:
    """``values`` as a 1-d ``int64`` array; anything but integers that
    fit in ``int64`` raises ``ValueError``, so no float or bool becomes
    an index."""
    a = np.array(values) if len(values) else np.zeros(0, dtype=np.int64)
    if a.ndim != 1 or a.dtype.kind != "i":
        raise ValueError("edge vertex and predicate indices must be "
                         "integers within int64")
    return a.astype(np.int64, copy=False)


def _rows_of(vertices, sizes, predicates) -> tuple:
    """``(rows, sizes)`` of edges given by their vertex indices end to
    end, their vertex counts and their predicate indices."""
    sizes = _indices(sizes)
    width = int(sizes.max()) if len(sizes) else 0
    rows = np.full((len(sizes), width + 1), -1, dtype=np.int64)
    rows[:, -1] = _indices(predicates)
    rows[:, :-1][np.arange(width) < sizes[:, None]] = _indices(vertices)
    return rows, sizes


# fewer edges than this stay Python pairs until their rows are asked for:
# below it numpy's cost per call outweighs a Python pass over the edges
_ROWS_FROM = 256


class EdgeRows(Sequence):
    """An instance's edges as the rows of one ``int64`` array.

    Row ``i`` of ``rows`` is edge ``i``'s vertex indices, padded with -1
    to the widest edge, then its predicate index.  ``sizes[i]`` is the
    edge's vertex count, kept apart from the padding because a hand-built
    invalid edge may hold -1 itself.  On edges with indices >= 0 the
    lexicographic order of the rows is the order of the
    ``(vertices, predicate)`` tuples: -1 sorts a vertex tuple before every
    longer one it prefixes.  So ``distinct`` sorts and dedupes edges of
    mixed arity with one row sort.

    Only this class knows that layout.  Other modules read ``slots``,
    ``predicate_indices`` and ``sizes``, and hand ``distinct`` unpadded
    blocks of one arity each.

    As a sequence it is the ``Edge`` pairs.  Edges held as rows build
    that view on first use.  Edges held as pairs (from ``of``, or fewer
    than ``_ROWS_FROM`` from ``from_flat``) build their rows on first
    use, so building, checking and searching a small instance makes no
    numpy call per edge list.  Equality reads the rows.
    """

    __slots__ = ("_rows", "_sizes", "_edges")

    def __init__(self, rows: np.ndarray | None = None,
                 sizes: np.ndarray | None = None,
                 edges: tuple | None = None):
        self._rows, self._sizes, self._edges = rows, sizes, edges

    @classmethod
    def of(cls, pairs) -> EdgeRows:
        """``(vertices, predicate)`` pairs, kept as ``Edge`` values with
        tuple vertices; an ``Edge`` is kept as is."""
        return cls(edges=tuple([e if type(e) is Edge
                                else Edge(tuple(e[0]), e[1])
                                for e in pairs]))

    @classmethod
    def from_flat(cls, vertices: list, sizes: list,
                  predicates: list) -> EdgeRows:
        """Edges given by their vertex indices end to end, their vertex
        counts and their predicate indices, all Python ints."""
        if len(sizes) >= _ROWS_FROM:
            return cls(*_rows_of(vertices, sizes, predicates))
        it = iter(vertices)
        return cls(edges=tuple([Edge(tuple(itertools.islice(it, k)), p)
                                for k, p in zip(sizes, predicates)]))

    @classmethod
    def distinct(cls, blocks) -> EdgeRows:
        """The distinct edges of ``blocks`` in lexicographic row order,
        which on indices >= 0 is the sorted order of their
        ``(vertices, predicate)`` tuples.

        Each block is ``(vertices, predicates)``: an ``(N, k)`` ``int64``
        array of the vertex indices of N edges of arity k, and their
        predicate indices.  The blocks are written straight into one
        padded array, so no padded copy of a block is made.
        """
        width = max((vs.shape[1] for vs, _ in blocks), default=0)
        rows = np.full((sum(len(ps) for _, ps in blocks), width + 1), -1,
                       dtype=np.int64)
        sizes = np.empty(len(rows), dtype=np.int64)
        end = 0
        for vs, ps in blocks:
            start, end = end, end + len(ps)
            rows[start:end, :vs.shape[1]] = vs
            rows[start:end, -1] = ps
            sizes[start:end] = vs.shape[1]
        order = np.lexsort(rows.T[::-1])
        rows, sizes = rows[order], sizes[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return cls(rows[first], sizes[first])

    @property
    def held_as_rows(self) -> bool:
        """Whether the rows exist: built from rows, or built since."""
        return self._rows is not None

    def _arrays(self) -> tuple:
        if self._rows is None:
            edges = self._edges
            self._rows, self._sizes = _rows_of(
                [v for e in edges for v in e.vertices],
                [len(e.vertices) for e in edges],
                [e.predicate for e in edges])
        return self._rows, self._sizes

    @property
    def rows(self) -> np.ndarray:
        return self._arrays()[0]

    @property
    def sizes(self) -> np.ndarray:
        return self._arrays()[1]

    def slots(self, fill: int) -> np.ndarray:
        """Row ``i`` is edge ``i``'s vertex indices, then ``fill`` past its
        size.  At least one column wide, so slot 0 of an edge with no
        vertices reads ``fill`` (taken from the masked predicate column
        when no edge has vertices)."""
        width = max(self.rows.shape[1] - 1, 1)
        return np.where(np.arange(width) < self.sizes[:, None],
                        self.rows[:, :width], fill)

    @property
    def predicate_indices(self) -> np.ndarray:
        """Each edge's predicate index."""
        return self.rows[:, -1]

    def _view(self) -> tuple:
        if self._edges is None:
            self._edges = tuple([
                Edge(tuple(row[:size]), row[-1])
                for row, size in zip(self._rows.tolist(),
                                     self._sizes.tolist())])
        return self._edges

    def __len__(self) -> int:
        return len(self._view() if self._rows is None else self._sizes)

    def __getitem__(self, i):
        return self._view()[i]

    def __iter__(self):
        return iter(self._view())

    def __eq__(self, other) -> bool:
        if type(other) is not EdgeRows:
            return NotImplemented
        return (np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        return hash((self.rows.shape, self.rows.tobytes(),
                     self.sizes.tobytes()))

    def __repr__(self) -> str:
        return f"EdgeRows({list(self)!r})"


@dataclass(frozen=True)
class Instance:
    """A weighted instance over the alphabet ``{0, ..., q-1}``.

    ``edges`` is an ``EdgeRows``: the edges as rows of one integer array,
    which ``compose``, ``validate_instance`` and the file reader and
    writer work on directly, with the ``Edge`` pairs as its view.  Given
    any other sequence of ``(vertices, predicate)`` pairs, the instance
    stores ``EdgeRows.of`` them.
    """

    q: int
    vertex_ids: tuple
    weights: tuple       # Fractions, nonnegative, summing to exactly 1
    predicates: tuple    # Predicate objects
    edges: EdgeRows

    def __post_init__(self):
        if type(self.edges) is not EdgeRows:
            object.__setattr__(self, "edges", EdgeRows.of(self.edges))

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

    ``edges`` is an ``EdgeRows``, kept as is, or any sequence of
    ``(vertices, predicate)`` pairs (see ``Instance``).
    """
    weights = tuple([w if type(w) is Fraction else Fraction(w)
                     for w in weights])
    if vertex_ids is None:
        vertex_ids = tuple(f"v{i}" for i in range(len(weights)))
    else:
        vertex_ids = tuple(vertex_ids)
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
        elif w.numerator < 0:
            problems.append(f"weight of {vid} is negative")
    total = exact_sum(inst.weights)
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
    # rows are checked as arrays; pairs, objects already, one at a time
    if inst.edges.held_as_rows and _edges_fit(inst.edges, arities, n):
        return problems
    for i, e in enumerate(inst.edges):
        p, vs = e.predicate, e.vertices
        if not _is_index(p):
            problems.append(f"edge {i}: predicate index {p!r} is not an "
                            "integer")
            continue
        odd = [f"edge {i}: vertex index {v!r} is not an integer"
               for v in vs if not _is_index(v)]
        if odd:
            problems.extend(odd)
            continue
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


def _is_index(a) -> bool:
    """Whether ``a`` is a Python or numpy integer; a bool is not one."""
    return type(a) is int or isinstance(a, np.integer)


def _edges_fit(edges: EdgeRows, arities: list, n: int) -> bool:
    """Whether every predicate index, vertex count and vertex index of
    the edges is in place, checked with array operations; the per-edge
    loop of ``validate_instance`` runs only to word what is not, so a
    false ``False`` (the fill 0 when ``n == 0``) costs only that loop."""
    sizes, preds = edges.sizes, edges.predicate_indices
    if not len(sizes):
        return True
    if preds.min() < 0 or preds.max() >= len(arities):
        return False
    if (np.array(arities)[preds] != sizes).any():
        return False
    slots = edges.slots(0)
    return slots.min() >= 0 and slots.max() < n


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
_BLOCK = 1 << 12


def cheapest_labeling(inst: Instance):
    """Exact search: ``(min cost, lexicographically least optimal labeling)``.

    Labelings are read in mixed radix with vertex 0 most significant.
    The last ``k`` vertices form a block of ``q**k <= _BLOCK`` labelings
    that numpy checks at once, through one lookup table per edge on its
    local tuple.  The leading ``h = n - k`` vertices are searched depth
    first with an explicit stack, labels ascending, and a branch is cut
    in two ways.  Feasibility: when vertex ``v`` takes a label, every
    edge that touches it and reaches before the block is checked with
    each later vertex at the top label ``q-1``; predicates are upward
    closed, so this rejects exactly the prefixes with no feasible
    completion.  Cost: weights are nonnegative, so ``v``'s label loop
    stops at the first label whose partial cost reaches the best cost
    found.  Leaves come in lexicographic order, and the first argmin
    within a block with a strict ``<`` across blocks keeps the
    lexicographically least optimum.  When ``q**n <= _BLOCK`` the search
    is that one block.  Costs are exact integers, the weights times the
    lcm of their denominators, held as int64 when
    ``(q-1) * lcm < 2**62`` and as Python ints otherwise.  The ``q**n``
    search space is bounded by the ENUM cap (log2 budget); the nodes
    visited are fewer.
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
    # checks[v]: (table, labeled part, the rest at q-1) per edge at v
    checks = [[] for _ in range(h)]
    for e in inst.edges:
        pred = inst.predicate_of(e)
        radix = [q ** (pred.arity - 1 - j) for j in range(pred.arity)]
        table = np.zeros(q ** pred.arity, dtype=bool)
        for t in upward_closure(pred):
            table[sum(a * r for a, r in zip(t, radix))] = True
        low = sum(digits[v - h] * r for v, r in zip(e.vertices, radix)
                  if v >= h)
        high = [(v, r) for v, r in zip(e.vertices, radix) if v < h]
        if not high:
            ok_low &= table[low]
            continue
        prefix_edges.append((table, low, high))
        flat = table.tolist()
        for v in {u for u, _ in high}:
            checks[v].append((
                flat,
                [(u, r) for u, r in high if u <= v],
                sum((q - 1) * r for u, r in zip(e.vertices, radix)
                    if u > v)))

    best = best_labels = None
    labels = [-1] * h  # labels[u] for u < v; -1: none tried yet
    cost = [0] * (h + 1)  # cost[u]: the cost of labels[:u]
    v = 0  # the vertex taking its next label, h at a leaf
    while v >= 0:
        if v == h:
            ok = ok_low.copy()
            for table, low, high in prefix_edges:
                # shift the small table rather than add to the block-long
                # index: that would allocate a block-long array per edge
                ok &= table[sum(labels[u] * r for u, r in high):][low]
            hits = np.flatnonzero(ok)
            if hits.size:
                i = int(hits[np.argmin(low_cost[hits])])
                total = cost[h] + int(low_cost[i])
                if best is None or total < best:
                    best = total
                    best_labels = tuple(labels) + tuple(
                        i // q ** (k - 1 - j) % q for j in range(k))
            v -= 1
            continue
        a = labels[v] + 1
        if a == q or best is not None and cost[v] + a * int_w[v] >= best:
            labels[v] = -1
            v -= 1
            continue
        labels[v] = a
        for table, fixed, top in checks[v]:
            if not table[top + sum(labels[u] * r for u, r in fixed)]:
                break
        else:
            cost[v + 1] = cost[v] + a * int_w[v]
            v += 1
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
