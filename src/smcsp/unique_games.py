"""Two-prover projection games and their hypercube composition.

A game has left and right vertex sets, a label range [r], and weighted
edges each carrying a bijection pi on labels; an edge is satisfied when
the right label equals pi applied to the left label.  ``compose`` blows
a hypercube instance up along a game: each left vertex gets its own copy
of the hypercube instance, and every k-ary constraint is re-wired
through the label bijections of k (not necessarily distinct) game edges
meeting at a common right vertex.

``decode_labeling`` inverts the construction for q = 2: it pulls a
labeling of the composed instance back through each edge's bijection,
averages the copies at a right vertex into one cube function per
hypercube, and labels each side by the most influential coordinate.
Both read the one composed layout: ``composed_vertex_ids`` names the
vertices, ``composed_weights`` weighs them and ``_twist_tables`` wires
copy u through pi; ``composed_cubes`` reads a composed instance back
against it.  Every per-vertex quantity (the edges at a left or a right
vertex, a left vertex's edge mass) reads the game's one grouping pass,
``UgInstance.by_vertex``, held on the game, so neither a step nor a
command groups a game twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .caps import check_bits
from .dictators import (DictInstance, cube_influences, cube_tables, dict_view,
                        dictator_assignment, dictator_weight,
                        require_generated)
from .model import (EdgeRows, Instance, PropertyViolation, assignment_cost,
                    is_feasible, make_instance)

ZERO = Fraction(0)


@dataclass(frozen=True)
class UgInstance:
    """Projection game; edges are (left, right, weight, bijection)."""

    r: int
    left: tuple   # left vertex ids
    right: tuple  # right vertex ids
    edges: tuple  # ((u_idx, v_idx, Fraction weight, perm tuple), ...)

    @property
    def n_left(self) -> int:
        return len(self.left)

    @property
    def n_right(self) -> int:
        return len(self.right)

    @cached_property
    def problems(self) -> tuple:
        """``validate_ug(self)``, run once per game: a game is immutable,
        so the file reader's check also serves ``compose`` and
        ``decode_labeling``."""
        return tuple(validate_ug(self))

    @cached_property
    def by_vertex(self) -> tuple:
        """``(at_left, at_right, masses)``: each left and each right
        vertex's edges, in edge order, and each left vertex's edge mass
        (a probability mass).  The one pass over ``edges``, run once per
        game, so no step rescans the game per vertex."""
        at_left = [[] for _ in self.left]
        at_right = [[] for _ in self.right]
        for e in self.edges:
            at_left[e[0]].append(e)
            at_right[e[1]].append(e)
        masses = [sum((e[2] for e in edges), ZERO) for edges in at_left]
        return at_left, at_right, masses


def validate_ug(ug: UgInstance) -> list:
    """All structural problems, as strings; empty means well formed."""
    problems = []
    if not isinstance(ug.r, int) or ug.r < 1:
        problems.append(f"label range must be a positive integer, got {ug.r}")
        return problems
    if not ug.left or not ug.right:
        problems.append("both vertex sides must be nonempty")
    if len(set(ug.left)) != len(ug.left) or len(set(ug.right)) != len(ug.right):
        problems.append("duplicate vertex ids")
    if set(ug.left) & set(ug.right):
        problems.append("left and right ids overlap")
    if not all(isinstance(vid, str) and vid
               for vid in itertools.chain(ug.left, ug.right)):
        problems.append("vertex ids must be nonempty strings")
    total = ZERO
    for i, (u, v, wt, perm) in enumerate(ug.edges):
        if not 0 <= u < len(ug.left):
            problems.append(f"edge #{i}: left index {u} out of range")
        if not 0 <= v < len(ug.right):
            problems.append(f"edge #{i}: right index {v} out of range")
        if not isinstance(wt, Fraction) or wt < 0:
            problems.append(f"edge #{i}: weight must be a nonnegative "
                            f"rational, got {wt!r}")
        else:
            total += wt
        if len(perm) != ug.r or sorted(perm) != list(range(ug.r)):
            problems.append(f"edge #{i}: pi is not a bijection (a "
                            f"permutation of the {ug.r} labels)")
    if not ug.edges:
        problems.append("game has no edges")
    elif total != 1:
        problems.append(f"edge weights sum to {total}, expected 1")
    return problems


def edge_satisfied(ug: UgInstance, edge, labels: Mapping[str, int]) -> bool:
    u, v, _, perm = edge
    return labels[ug.right[v]] == perm[labels[ug.left[u]]]


def check_game_labeling(ug: UgInstance, labels: Mapping[str, int]) -> None:
    """Raise ValueError unless every vertex has a label in 0..r-1."""
    for vid in itertools.chain(ug.left, ug.right):
        a = labels.get(vid)
        if not isinstance(a, int) or not 0 <= a < ug.r:
            raise ValueError(f"vertex {vid!r}: label must be in "
                             f"0..{ug.r - 1}, got {a!r}")


def ug_satisfied_weight(ug: UgInstance, labels: Mapping[str, int]) -> Fraction:
    """Total weight of edges whose bijection maps left label to right."""
    check_game_labeling(ug, labels)
    return sum((e[2] for e in ug.edges if edge_satisfied(ug, e, labels)),
               ZERO)


def ug_brute_force(ug: UgInstance):
    """Maximum satisfied weight and its lexicographically least labeling."""
    ids = list(ug.left) + list(ug.right)
    check_bits("UG", ug.r ** len(ids), "game labeling space")
    best = None
    best_labels = None
    for combo in itertools.product(range(ug.r), repeat=len(ids)):
        labels = dict(zip(ids, combo))
        value = ug_satisfied_weight(ug, labels)
        if best is None or value > best:
            best, best_labels = value, labels
    return best, best_labels


def composed_vertex_ids(ug: UgInstance, D: DictInstance) -> tuple:
    """Vertex ids of ``compose(ug, D)``: ``<left-id>/<cube-vertex-id>``,
    one hypercube copy per left vertex, in left order."""
    return tuple([f"{uid}/{dvid}" for uid in ug.left
                  for dvid in D.instance.vertex_ids])


def composed_weights(ug: UgInstance, D: DictInstance) -> list:
    """Vertex weights of ``compose(ug, D)``: vertex (u, b, y) weighs
    p_u * w_D(b, y), where p_u is the edge mass at u."""
    return [mass * w for mass in ug.by_vertex[2]
            for w in D.instance.weights]


def composed_cubes(ug: UgInstance, F: Instance,
                   D: DictInstance | None = None) -> DictInstance:
    """The hypercubes that ``F`` composes ``ug`` with.

    Without ``D`` they are recovered from the first left copy with edge
    mass: its ids past ``<left-id>/`` and its weights over that mass.
    Raises ``ValueError`` unless F's vertex ids and weights are those of
    ``compose(ug, D)``.
    """
    if D is None:
        # a valid game's edge masses sum to 1, so some left vertex has mass
        mass, u = next((mass, u) for u, mass in enumerate(ug.by_vertex[2])
                       if mass > 0)
        prefix = ug.left[u] + "/"
        copy = [(vid[len(prefix):], w / mass)
                for vid, w in zip(F.vertex_ids, F.weights)
                if vid.startswith(prefix)]
        if not copy:
            raise ValueError(f"cannot recover cube structure: no composed "
                             f"vertex belongs to left vertex {ug.left[u]!r} "
                             f"(pass --dict)")
        ids, weights = zip(*copy)
        D = dict_view(make_instance(F.q, weights, [], [], ids))
    want = composed_vertex_ids(ug, D)
    if list(F.vertex_ids) != list(want):
        i, a, b = next((i, a, b) for i, (a, b) in enumerate(
            itertools.zip_longest(F.vertex_ids, want)) if a != b)
        raise _not_composed(i, "is", repr(a), repr(b))
    # the ids match, so each weight pairs with one (mass, w); it is compared
    # with mass * w by integer cross-multiplication, and a Fraction is
    # built only to word the first that differs
    pairs = itertools.product(ug.by_vertex[2], D.instance.weights)
    for i, (fw, (m, w)) in enumerate(zip(F.weights, pairs, strict=True)):
        if (fw.numerator * m.denominator * w.denominator
                != m.numerator * w.numerator * fw.denominator):
            raise _not_composed(i, "weighs", str(fw), str(m * w))
    return D


def _not_composed(i: int, what: str, found: str, want: str) -> ValueError:
    return ValueError(f"the composed instance is not the game composed "
                      f"with these hypercubes: vertex #{i} {what} {found}, "
                      f"expected {want}")


def _twist_tables(ug: UgInstance, D: DictInstance) -> tuple:
    """Copy u wired through pi, for each distinct (u, pi) of the edges.

    Returns ``(row_of, tables)``.  Row ``row_of[u, pi]`` of the ``int64``
    array ``tables`` maps the dict-vertex index of (b, y) to the composed
    index of (u, b, y o pi), where (y o pi)_t = y_{pi(t)}.
    """
    if D.r != ug.r:
        raise ValueError(f"label ranges differ: game has r={ug.r}, "
                         f"hypercubes have r={D.r}")
    if ug.problems:
        raise ValueError("invalid game: " + "; ".join(ug.problems))
    cube = len(D.points)
    index_of = {pt: i for i, pt in enumerate(D.points)}
    row_of = {}
    for u, _, _, perm in ug.edges:
        row_of.setdefault((u, perm), len(row_of))
    tables = np.array([[u * cube + index_of[b, tuple([y[t] for t in perm])]
                        for b, y in D.points] for u, perm in row_of],
                      dtype=np.int64).reshape(len(row_of), cube)
    return row_of, tables


def compose(ug: UgInstance, D: DictInstance) -> Instance:
    """Product instance: one hypercube copy per left vertex, constraints
    transported through k-tuples of game edges sharing a right vertex.

    Vertex (u, b, y) weighs p_u * w_D(b, y) where p_u is the edge mass
    at u, so total weight stays 1.  For a source constraint on points
    (b_j, y_j) and game edges e_1..e_k at a common right vertex, the
    composed constraint joins (u_{e_j}, b_j, y_j o pi_{e_j}) where
    (y o pi)_t = y_{pi(t)}.  Per arity k and right vertex, one broadcast
    gather through the twist tables makes the vertex indices of every
    source constraint with every k-tuple of incident edges, an
    ``(N, k)`` block; ``EdgeRows.distinct`` pads, sorts and dedupes the
    blocks with one row sort, in ``(vertices, predicate)`` tuple order.
    No ``Edge`` is built.
    """
    row_of, tables = _twist_tables(ug, D)
    base = D.instance.edges
    cube = len(D.instance.vertex_ids)
    check_bits("UG", ug.n_left * cube, "composed vertex count")
    incident = [[row_of[u, perm] for u, _, _, perm in edges]
                for edges in ug.by_vertex[1]]
    check_bits("UG", sum(len(at_v) ** size for size in base.sizes.tolist()
                         for at_v in incident),
               "composed constraint tuples")

    slots, preds = base.slots(0), base.predicate_indices
    blocks = []
    for k in np.unique(base.sizes).tolist():
        of_k = base.sizes == k
        source, source_preds = slots[of_k, :k], preds[of_k]
        for at_v in incident:
            # picks[t, j]: the table of the j-th game edge of k-tuple t
            picks = np.array(list(itertools.product(at_v, repeat=k)),
                             dtype=np.int64).reshape(-1, k)
            blocks.append((tables[picks[None, :, :], source[:, None, :]]
                           .reshape(-1, k),
                           np.repeat(source_preds, len(picks))))
    edges = EdgeRows.distinct(blocks)
    return make_instance(D.q, composed_weights(ug, D),
                         D.instance.predicates, edges,
                         composed_vertex_ids(ug, D))


def completeness_solution(ug: UgInstance, labels: Mapping[str, int],
                          D: DictInstance, F: Instance | None = None, *,
                          lp_value: Fraction | None = None):
    """Cheap feasible point of the composed instance from a game labeling.

    A left vertex is satisfied when the labeling satisfies its every
    positive-mass edge.  Its copy takes the dictator of coordinate
    ``labels[u]``; every other copy takes the top label.  The resulting
    cost obeys the exact identity

        dictator_weight(D) * mass(satisfied) + (q-1) * mass(rest)

    and, when the generating relaxation value is supplied, the bound
    (lp + eps + (q-1) * delta) * mass(satisfied) + (q-1) * mass(rest).
    Both are checked, raising ``PropertyViolation`` when they fail.
    A labeling that misses a vertex or leaves 0..r-1 raises
    ``ValueError``.  Returns (assignment, report).
    """
    check_game_labeling(ug, labels)
    if F is None:
        F = compose(ug, D)
    at_left, _, masses = ug.by_vertex
    missed = [any(e[2] > 0 and not edge_satisfied(ug, e, labels)
                  for e in edges) for edges in at_left]
    q = D.q
    cube = len(D.points)
    assignment = []
    for uid, miss in zip(ug.left, missed):
        if miss:
            assignment.extend([q - 1] * cube)
        else:
            assignment.extend(dictator_assignment(D, labels[uid]))
    assignment = tuple(assignment)
    if not is_feasible(F, assignment):
        raise PropertyViolation("completeness assignment violates a "
                                "constraint")
    weight = assignment_cost(F, assignment)
    mass_sat = sum((mass for mass, miss in zip(masses, missed) if not miss),
                   ZERO)
    mass_rest = 1 - mass_sat
    dw = dictator_weight(D)
    identity = dw * mass_sat + (q - 1) * mass_rest
    if weight != identity:
        raise PropertyViolation(f"completeness weight {weight} differs from "
                                f"the identity value {identity}")
    report = {"weight": weight, "dictator_weight": dw,
              "mass_satisfied": mass_sat, "mass_rest": mass_rest,
              "feasible": True}
    if lp_value is not None:
        require_generated(D)
        bound = ((lp_value + D.eps + (q - 1) * D.delta) * mass_sat
                 + (q - 1) * mass_rest)
        if weight > bound:
            raise PropertyViolation(f"completeness weight {weight} exceeds "
                                    f"the bound {bound}")
        report["bound"] = bound
        report["bound_ok"] = True
    return assignment, report


def decode_labeling(ug: UgInstance, D: DictInstance, labels: Sequence[int],
                    *, tau=ZERO, d: int | None = None):
    """Game labeling read off a labeling of ``compose(ug, D)`` (q = 2).

    ``labels`` is in composed vertex order.  Each copy is pulled back
    through its edge's bijection; per right vertex, the complements of
    the incident copies are averaged (weighted by edge mass) into one
    function per hypercube.  The right label is the coordinate of
    largest degree-d influence over all hypercubes, 0 if no influence
    clears tau (floats compare exactly with a rational tau).  Each left
    vertex pulls the label of its heaviest edge back through that edge's
    bijection.  Returns (labels by vertex id, influence table).
    """
    if D.q != 2:
        raise ValueError("decoding is defined for q = 2 only")
    row_of, tables = _twist_tables(ug, D)
    n = ug.n_left * len(D.points)
    if len(labels) != n:
        raise ValueError(f"labeling has {len(labels)} entries, the composed "
                         f"instance has {n} vertices")
    pulled = [[labels[i] for i in table] for table in tables.tolist()]
    at_left, at_right, _ = ug.by_vertex
    r = D.r
    if d is None:
        d = r
    decoded = {}
    influence_table = {}
    for vid, incident in zip(ug.right, at_right):
        mass = sum((wt for _, _, wt, _ in incident), ZERO)
        average = [0.0] * len(D.points)
        for u, _, wt, perm in incident:
            if wt == 0:
                continue
            coeff = float(wt / mass)
            for i, a in enumerate(pulled[row_of[u, perm]]):
                average[i] += coeff * (1 - a)
        per_i = [0.0] * r
        rows = [cube_influences(table, float(tilt), d)
                for table, tilt in zip(cube_tables(D, average),
                                       D.tilde_values)]
        for row in rows:
            for i, inf in enumerate(row):
                per_i[i] = max(per_i[i], inf)
        influence_table[vid] = rows
        candidates = [i for i in range(r) if per_i[i] >= tau]
        decoded[vid] = (min(candidates, key=lambda i: (-per_i[i], i))
                        if candidates else 0)
    for uid, incident in zip(ug.left, at_left):
        if not incident:
            decoded[uid] = 0
            continue
        _, v, _, perm = max(incident, key=lambda e: e[2])
        decoded[uid] = perm.index(decoded[ug.right[v]])
    return decoded, influence_table
