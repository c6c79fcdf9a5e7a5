"""Exact two-phase primal simplex over rationals.

Solves ``min c.z  s.t.  A z = b, z >= 0`` with every entry a Fraction.
Pivoting uses Bland's rule (smallest eligible column; ties in the ratio
test broken by the smallest basic variable index), which guarantees
termination and makes the returned basic optimal solution a
deterministic function of the input matrices.

Phase 1 introduces one artificial variable per row and drives their sum
to zero; rows whose artificial cannot be pivoted out are redundant and
are dropped, so the final basis has one column per independent row.
An empty ``A`` takes the same path: no rows, so the optimum is the
origin unless some cost is negative, in which case the LP is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexError(RuntimeError):
    pass


@dataclass
class SimplexResult:
    status: str
    objective: Fraction | None
    values: list | None        # all decision variables, zeros included
    basis: tuple | None        # sorted column indices of the final basis


def _eliminate(row, c, prow):
    """``row`` minus ``row[c]`` times ``prow``; clears column c when
    ``prow[c] == 1``."""
    f = row[c]
    return [a - f * p for a, p in zip(row, prow)]


def _pivot(rows, basis, obj, r, c):
    inv = ONE / rows[r][c]
    prow = rows[r] = [a * inv for a in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            rows[i] = _eliminate(row, c, prow)
    if obj[c] != 0:
        obj[:] = _eliminate(obj, c, prow)
    basis[r] = c


def _bland_loop(rows, basis, obj, allowed_cols) -> bool:
    """Minimize obj (a reduced-cost row with objective in the last slot).

    Returns True at an optimum and False when the entering column has
    no positive entry, i.e. the objective is unbounded below.
    """
    while True:
        enter = -1
        for j in allowed_cols:
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best_ratio = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return False
        _pivot(rows, basis, obj, leave, enter)


def solve_standard_form(A: Sequence, b: Sequence, c: Sequence) -> SimplexResult:
    """Solve ``min c.z : A z = b, z >= 0`` exactly.

    Returns a basic optimal solution; the same input always yields the
    same basis and values.
    """
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    A = [[Fraction(a) for a in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]

    # rows with nonnegative right-hand side, one artificial per row
    rows = []
    for i in range(m):
        row = list(A[i]) if b[i] >= 0 else [-a for a in A[i]]
        rhs = b[i] if b[i] >= 0 else -b[i]
        art = [ZERO] * m
        art[i] = ONE
        rows.append(row + art + [rhs])
    basis = [n + i for i in range(m)]

    # phase 1: minimize the sum of artificials
    obj = [ZERO] * (n + m + 1)
    for row in rows:
        for j in range(n):
            obj[j] -= row[j]
        obj[-1] -= row[-1]
    if not _bland_loop(rows, basis, obj, range(n)):
        raise SimplexError("phase 1 unbounded")  # the sum is bounded below
    if -obj[-1] != 0:
        return SimplexResult(INFEASIBLE, None, None, None)

    # pivot artificials out of the basis; drop redundant rows
    keep = []
    for i in range(len(rows)):
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j] != 0), None)
            if enter is None:
                continue  # redundant row
            _pivot(rows, basis, obj, i, enter)
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: reduced costs of the original objective
    obj = list(c) + [ZERO]
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            obj = _eliminate(obj, bi, rows[i])
    if not _bland_loop(rows, basis, obj, range(n)):
        return SimplexResult(UNBOUNDED, None, None, None)

    values = [ZERO] * n
    for i, bi in enumerate(basis):
        values[bi] = rows[i][-1]
    objective = sum((cj * v for cj, v in zip(c, values) if v), ZERO)
    return SimplexResult(OPTIMAL, objective, values, tuple(sorted(basis)))


def find_feasible_point(A: Sequence, b: Sequence) -> SimplexResult:
    """Phase-1 only: a deterministic basic feasible point of ``Az=b, z>=0``."""
    n = len(A[0]) if A else 0
    return solve_standard_form(A, b, [ZERO] * n)
