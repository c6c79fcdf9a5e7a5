"""Exact two-phase primal simplex over rationals.

Solves ``min c.z  s.t.  A z = b, z >= 0`` for rational (``Fraction`` or
``int``) input.  Pivoting uses Bland's rule (smallest eligible column;
ties in the ratio test broken by the smallest basic variable index),
which guarantees termination and makes the returned basic optimal
solution a deterministic function of the input matrices.

The tableau is fraction-free: each row, the objective row included, is
a list of Python ints ``N`` with one positive denominator ``D``, and
stands for ``N / D`` (Edmonds 1967; Bareiss 1968).  Every sign test and
ratio comparison is made on the integers, a pivot updates only the rows
with a nonzero pivot-column entry and only on the pivot row's nonzero
columns, and each updated row is divided by ``gcd(D, *N)``.  Results
are exact, so the pivot sequence is the one Bland's rule takes over the
rationals; ``Fraction`` appears only at the boundary, in the values and
objective of the result.

Phase 1 starts from one artificial variable per row and drives their
sum to zero.  Artificials never re-enter, so their columns are not
stored.  Rows whose artificial cannot be pivoted out are redundant and
are dropped, so the final basis has one column per independent row.
``find_feasible_point`` stops there, with the basis phase 2 would start
from, which on an all-zero cost is also the one it ends with.  An empty ``A`` takes the same path: no rows, so the optimum is the
origin unless some cost is negative, in which case the LP is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .model import PropertyViolation

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class SimplexResult:
    status: str
    objective: Fraction | None
    values: list | None        # all decision variables, zeros included
    basis: tuple | None        # sorted column indices of the final basis


def _int_row(vals):
    """Integers ``N`` and a denominator ``D > 0`` with ``N / D == vals``
    (``int`` or ``Fraction`` entries)."""
    d = lcm(*[v.denominator for v in vals])
    if d == 1:
        return [v.numerator for v in vals], 1
    return [v.numerator * (d // v.denominator) for v in vals], d


def _reduce(row, d):
    """Divide ``row`` (in place) and ``d`` by ``gcd(d, *row)``."""
    if d != 1:
        g = gcd(d, *row)
        if g != 1:
            row[:] = [a // g for a in row]
            d //= g
    return d


def _eliminate(row, d, prow, pd, nz, c):
    """``row / d`` minus ``row[c] / d`` times ``prow / pd``, in place.

    ``prow[c] == pd``, so column c is cleared; ``nz`` lists the nonzero
    columns of ``prow``.  Returns the new denominator.
    """
    f = row[c]
    g = gcd(f, pd)
    scale, f = pd // g, f // g
    if scale != 1:
        row[:] = [a * scale for a in row]
        d *= scale
    for j in nz:
        row[j] -= f * prow[j]
    return _reduce(row, d)


def _pivot(rows, dens, basis, obj, r, c):
    """Pivot on ``rows[r][c]``; ``obj`` is ``[N, D]`` or None."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow[:] = [-a for a in prow]
        p = -p
    pd = dens[r] = _reduce(prow, p)
    nz = [j for j, a in enumerate(prow) if a]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            dens[i] = _eliminate(row, dens[i], prow, pd, nz, c)
    if obj is not None and obj[0][c]:
        obj[1] = _eliminate(obj[0], obj[1], prow, pd, nz, c)
    basis[r] = c


def _bland_loop(rows, dens, basis, obj, ncols) -> bool:
    """Minimize ``obj`` (reduced costs, minus the objective last).

    Returns True at an optimum and False when the entering column has
    no positive entry, i.e. the objective is unbounded below.
    """
    costs = obj[0]  # updated in place by _pivot
    while True:
        enter = next((j for j in range(ncols) if costs[j] < 0), -1)
        if enter < 0:
            return True
        # ratio rhs / a, compared by cross-multiplication (a > 0)
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_rhs, best_a = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            return False
        _pivot(rows, dens, basis, obj, leave, enter)


def _phase1(A: Sequence, b: Sequence, n: int):
    """Phase 1 on ``A z = b, z >= 0`` with ``n`` columns, artificials
    driven out and redundant rows dropped: the integer rows, their
    denominators and the basis of a basic feasible point, or None when
    the system is infeasible."""
    m = len(A)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")

    # rows [A_i | b_i] with nonnegative right-hand side; row i starts
    # with its artificial n + i basic
    rows, dens = [], []
    for i in range(m):
        row, d = _int_row(list(A[i]) + [b[i]])
        if row[-1] < 0:
            row = [-a for a in row]
        rows.append(row)
        dens.append(d)
    basis = [n + i for i in range(m)]

    # minimize the sum of artificials
    d = lcm(*dens)
    cost = [0] * (n + 1)
    for row, di in zip(rows, dens):
        k = d // di
        for j, a in enumerate(row):
            if a:
                cost[j] -= a * k
    obj = [cost, _reduce(cost, d)]
    if not _bland_loop(rows, dens, basis, obj, n):  # the sum is bounded below
        raise PropertyViolation("phase 1 unbounded")
    if obj[0][-1] != 0:
        return None

    # pivot artificials out of the basis (the phase-1 objective is done
    # with); drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j]), None)
            if enter is None:
                continue  # redundant row
            _pivot(rows, dens, basis, None, i, enter)
        keep.append(i)
    return ([rows[i] for i in keep], [dens[i] for i in keep],
            [basis[i] for i in keep])


def _optimal(rows, dens, basis, n, objective) -> SimplexResult:
    """The basic point of a final tableau, all ``n`` decision variables
    with zeros included, as the optimal result."""
    values = [ZERO] * n
    for row, di, bi in zip(rows, dens, basis):
        values[bi] = Fraction(row[-1], di)
    return SimplexResult(OPTIMAL, objective, values, tuple(sorted(basis)))


def solve_standard_form(A: Sequence, b: Sequence, c: Sequence) -> SimplexResult:
    """Solve ``min c.z : A z = b, z >= 0`` exactly.

    Returns a basic optimal solution; the same input always yields the
    same basis and values.
    """
    n = len(c)
    start = _phase1(A, b, n)
    if start is None:
        return SimplexResult(INFEASIBLE, None, None, None)
    rows, dens, basis = start

    # phase 2: reduced costs of the original objective
    obj = list(_int_row(list(c) + [0]))
    for i, bi in enumerate(basis):
        if obj[0][bi]:
            nz = [j for j, a in enumerate(rows[i]) if a]
            obj[1] = _eliminate(obj[0], obj[1], rows[i], dens[i], nz, bi)
    if not _bland_loop(rows, dens, basis, obj, n):
        return SimplexResult(UNBOUNDED, None, None, None)
    return _optimal(rows, dens, basis, n, Fraction(-obj[0][-1], obj[1]))


def find_feasible_point(A: Sequence, b: Sequence) -> SimplexResult:
    """Phase 1 only: a deterministic basic feasible point of ``Az=b, z>=0``.

    The point, basis and status are those of ``solve_standard_form`` with
    an all-zero cost, whose phase 2 never pivots; the objective is 0.
    """
    n = len(A[0]) if A else 0
    start = _phase1(A, b, n)
    if start is None:
        return SimplexResult(INFEASIBLE, None, None, None)
    return _optimal(*start, n, ZERO)
