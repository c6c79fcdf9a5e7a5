"""Hull relaxation of a monotone constraint instance.

The relaxation has one value variable per vertex (``q == 2``) or one
simplex block of q coordinates per vertex (``q > 2``), plus one
nonnegative lambda variable per accepted tuple of each edge.  Rows force
each edge's vertex values to equal the lambda-mixture of its accepted
tuples and each edge's lambdas to sum to one, so the vertex values of
any feasible point lie in the convex hull of the edge's accepting set.
The objective is the weighted expected label.

Everything is exact; the solver returns a deterministic basic optimum
(see :mod:`smcsp.simplex`).  ``edge_mixture`` solves one edge's rows
for a given x; hull feasibility and the edge distributions of
:mod:`smcsp.distributions` are both read off it.  ``standard_hvc_lp``
provides the classical covering relaxation for boolean covering
instances as an independent reference point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import simplex
from .model import (
    Edge,
    Instance,
    Point,
    PropertyViolation,
    ZERO,
    ONE,
    check_solution,
    is_covering_predicate,
    point_distribution,
    point_value,
    solution_in_domain,
    upward_closure,
)


@dataclass
class LpProblem:
    """Equality-form LP: min c.z with A z = b, z >= 0."""

    instance: Instance
    col_names: list
    c: list
    A: list
    b: list
    x_cols: list      # per vertex: column index (q=2) or list of q indices
    edge_atoms: list  # per edge: (first lambda column, accepted tuples)

    @property
    def num_rows(self) -> int:
        return len(self.A)

    @property
    def num_cols(self) -> int:
        return len(self.c)


@dataclass
class LpSolution:
    objective: Fraction
    x: list                # per-vertex points
    lambdas: list          # per edge: {accepted tuple -> positive Fraction}
    basis: tuple           # sorted tuple of basic column names


def _hull_rows(q: int, e: Edge, atoms: Sequence[tuple]) -> list:
    """Label-indicator rows of edge e's hull constraints, as (v, i, row).

    Each says that vertex v's mass on label i equals the lambda-mass of
    the accepted tuples with label i at v's position in e; ``row`` is
    that 0/1 int indicator over ``atoms``.  For q == 2 only label 1 has
    a row: the point is the scalar mass on label 1.
    """
    labels = (1,) if q == 2 else range(q)
    return [(v, i, [1 if t[j] == i else 0 for t in atoms])
            for j, v in enumerate(e.vertices) for i in labels]


def build_lp(inst: Instance) -> LpProblem:
    q = inst.q
    col_names: list = []
    c: list = []
    x_cols: list = []
    for vid, w in zip(inst.vertex_ids, inst.weights):
        if q == 2:
            x_cols.append(len(col_names))
            col_names.append(f"x[{vid}]")
            c.append(w)
        else:
            block = []
            for i in range(q):
                block.append(len(col_names))
                col_names.append(f"x[{vid}]:{i}")
                c.append(w * i)
            x_cols.append(block)

    edge_atoms: list = []
    for eidx, e in enumerate(inst.edges):
        atoms = upward_closure(inst.predicate_of(e))
        start = len(col_names)
        for t in atoms:
            col_names.append(f"lam[e{eidx}]:" + "".join(map(str, t)))
            c.append(ZERO)
        edge_atoms.append((start, atoms))

    ncols = len(col_names)
    A: list = []
    b: list = []

    def new_row(rhs):
        A.append([0] * ncols)
        b.append(rhs)
        return A[-1]

    if q > 2:
        for v in range(inst.n):
            row = new_row(ONE)
            for col in x_cols[v]:
                row[col] = 1

    for e, (start, atoms) in zip(inst.edges, edge_atoms):
        for v, i, indicator in _hull_rows(q, e, atoms):
            row = new_row(ZERO)
            row[x_cols[v] if q == 2 else x_cols[v][i]] = 1
            row[start:start + len(atoms)] = [-a for a in indicator]
        row = new_row(ONE)
        row[start:start + len(atoms)] = [1] * len(atoms)

    return LpProblem(inst, col_names, c, A, b, x_cols, edge_atoms)


def simplex_solve(problem: LpProblem) -> LpSolution:
    """Solve a built relaxation to a deterministic basic optimum."""
    res = simplex.solve_standard_form(problem.A, problem.b, problem.c)
    if res.status != simplex.OPTIMAL:
        raise PropertyViolation(
            f"hull relaxation did not solve to optimality: {res.status}"
        )
    inst = problem.instance
    x: list[Point] = []
    for v in range(inst.n):
        if inst.q == 2:
            x.append(res.values[problem.x_cols[v]])
        else:
            x.append(tuple(res.values[col] for col in problem.x_cols[v]))
    lambdas = []
    for start, atoms in problem.edge_atoms:
        lambdas.append(
            {t: res.values[start + a] for a, t in enumerate(atoms)
             if res.values[start + a] != 0}
        )
    basis = tuple(sorted(problem.col_names[j] for j in res.basis))
    value = val(inst, x)
    if res.objective != value:
        raise PropertyViolation(f"simplex objective {res.objective} "
                                f"differs from val(x) = {value}")
    return LpSolution(res.objective, x, lambdas, basis)


def solve_lp(inst: Instance) -> LpSolution:
    return simplex_solve(build_lp(inst))


def lp_value(inst: Instance) -> Fraction:
    return solve_lp(inst).objective


def val(inst: Instance, x: Sequence[Point]) -> Fraction:
    """Objective of a fractional solution: weighted expected label."""
    check_solution(inst, x)
    return sum(
        (w * point_value(inst.q, pt) for w, pt in zip(inst.weights, x)), ZERO
    )


def edge_mixture(inst: Instance, x: Sequence[Point], e: Edge):
    """Canonical mixture of accepted tuples matching x on edge e.

    The system has one nonnegative variable per accepted tuple of the
    edge's predicate, one row per vertex coordinate of the edge and one
    row summing the variables to one.  Its deterministic basic solution
    (exact phase-1 simplex) is returned as ``{accepted tuple: positive
    Fraction}``, or ``None`` when x restricted to e is outside the hull.
    ``x`` must already have passed ``check_solution``.
    """
    q = inst.q
    atoms = upward_closure(inst.predicate_of(e))
    rows = _hull_rows(q, e, atoms)
    A = [indicator for _, _, indicator in rows] + [[1] * len(atoms)]
    b = [point_distribution(q, x[v])[i] for v, i, _ in rows] + [ONE]
    res = simplex.find_feasible_point(A, b)
    if res.status != simplex.OPTIMAL:
        return None
    return {t: p for t, p in zip(atoms, res.values) if p != 0}


def check_feasible_fractional(inst: Instance, x: Sequence[Point]) -> bool:
    """True iff x satisfies every constraint of the hull relaxation.

    Each vertex value must lie in its domain and each edge restriction
    must admit a nonnegative mixture of accepted tuples (``edge_mixture``).
    """
    if not solution_in_domain(inst, x):
        return False
    return all(edge_mixture(inst, x, e) is not None for e in inst.edges)


def standard_hvc_lp(inst: Instance) -> Fraction:
    """Classical covering LP: min w.x s.t. sum over each edge >= 1, x >= 0.

    Only defined for boolean instances whose edges all use the
    'at least one 1' covering predicate.
    """
    if inst.q != 2:
        raise ValueError("covering LP is defined for q = 2 only")
    for e in inst.edges:
        if not is_covering_predicate(inst.predicate_of(e)):
            raise ValueError(
                f"edge predicate {inst.predicate_of(e).name} is not the "
                "covering predicate"
            )
    n, m = inst.n, len(inst.edges)
    ncols = n + m  # x variables plus one surplus variable per edge
    A: list = []
    b: list = []
    for eidx, e in enumerate(inst.edges):
        row = [0] * ncols
        for v in e.vertices:
            row[v] += 1
        row[n + eidx] = -1
        A.append(row)
        b.append(ONE)
    c = list(inst.weights) + [ZERO] * m
    res = simplex.solve_standard_form(A, b, c)
    if res.status != simplex.OPTIMAL:
        raise PropertyViolation(f"covering LP: {res.status}")
    return res.objective
