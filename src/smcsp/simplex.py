"""Exact two-phase primal simplex over rationals.

Solves ``min c.z  s.t.  A z = b, z >= 0`` for rational input: every
entry must be exactly an ``int`` or a ``Fraction``, and any other type
(``float``, ``bool``, a numpy scalar) is refused with ``TypeError``
before a pivot is taken.  Pivoting uses Bland's rule (smallest eligible
column; ties in the ratio test broken by the smallest basic variable
index), which guarantees termination and makes the returned basic
optimal solution a deterministic function of the input matrices.

The tableau is fraction-free: each row is a list of Python ints ``N``
with one positive denominator ``D``, and stands for ``N / D`` (Edmonds
1967; Bareiss 1968); the objective is its last row, reduced costs with
minus the objective value last.  Every sign test and ratio comparison
is made on the integers.  Each pivot gathers once the rows with a
nonzero entry in the entering column, the objective row among them
(negative there, so it never leaves), and ``_clear`` updates only those
rows, on the pivot row's nonzero columns: a row is scaled only when the
pivot row's ``D`` is not 1, and divided by ``gcd(D, *N)`` only when its
own ``D`` is not 1.  Results are exact, so the pivot sequence is the
one Bland's rule takes over the rationals; ``Fraction`` appears only at
the boundary, in the values and objective of the result.

Phase 1 starts from one artificial variable per row and drives their
sum to zero.  Artificials never re-enter, so their columns are not
stored.  Its cost row is dropped before the drive-out; rows whose
artificial cannot be pivoted out are redundant and are dropped too, so
the final basis has one column per independent row.  Phase 2 appends
its own cost row.  ``find_feasible_point`` stops before it, with the
basis phase 2 would start from, which on an all-zero cost is also the
one it ends with.  An empty ``A`` takes the same path: no rows, so the
optimum is the origin unless some cost is negative, in which case the
LP is unbounded.

One solve, phase 1, the drive-out of artificials and phase 2 together,
takes at most ``2**cap("PIVOT")`` pivots; the next one raises
``CapExceeded`` (``SMCSP_CAP_PIVOT`` overrides the budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import attrgetter, itemgetter, neg
from typing import Sequence

from .caps import cap, refuse
from .model import PropertyViolation

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_INT = {int}
_EXACT = {int, Fraction}
_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


@dataclass
class SimplexResult:
    status: str
    objective: Fraction | None
    values: list | None        # all decision variables, zeros included
    basis: tuple | None        # sorted column indices of the final basis


class _Pivots:
    """The pivots one solve has taken, against the PIVOT cap read once."""

    __slots__ = ("taken", "limit")

    def __init__(self):
        self.taken = 0
        # no solve reaches 2**63 pivots, and a huge cap builds no number
        self.limit = 1 << min(cap("PIVOT"), 63)

    def take(self):
        self.taken += 1
        if self.taken > self.limit:
            refuse("PIVOT", "exact simplex pivots", str(self.taken))


def _int_row(vals: list):
    """Integers ``N`` and a denominator ``D > 0`` with ``N / D == vals``.

    Raises ``TypeError`` for an entry whose type is not exactly ``int``
    or ``Fraction``.  ``vals`` itself is returned when it holds only ints.
    """
    kinds = set(map(type, vals))
    if kinds <= _INT:
        return vals, 1
    if not kinds <= _EXACT:
        bad = next(type(v) for v in vals if type(v) not in _EXACT)
        raise TypeError("exact simplex entries must be int or Fraction, "
                        f"got {bad.__name__}")
    d = lcm(*set(map(_DENOMINATOR, vals)))
    if d == 1:
        return list(map(_NUMERATOR, vals)), 1
    return [v.numerator * (d // v.denominator) for v in vals], d


def _reduce(row, d):
    """Divide ``row`` (in place) and ``d`` by ``gcd(d, *row)``."""
    if d != 1:
        g = gcd(d, *row)
        if g != 1:
            row[:] = [a // g for a in row]
            d //= g
    return d


def _clear(rows, dens, col, r, c):
    """Clear column c, in place, from each row listed in ``col`` but r
    by subtracting a multiple of row r, whose entry there is ``dens[r]``;
    only row r's nonzero columns are touched."""
    prow, pd = rows[r], dens[r]
    pairs = list(zip(compress(range(len(prow)), prow), compress(prow, prow)))
    for i in col:
        if i != r:
            row, d = rows[i], dens[i]
            f = row[c]
            if pd != 1:
                g = gcd(f, pd)
                scale, f = pd // g, f // g
                if scale != 1:
                    row[:] = [a * scale for a in row]
                    d *= scale
            for j, a in pairs:
                row[j] -= f * a
            if d != 1:
                dens[i] = _reduce(row, d)


def _pivot(rows, dens, basis, r, c, col):
    """Pivot on ``rows[r][c]``; ``col`` lists the rows with a nonzero
    entry in column c, the objective row included when it has one."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow[:] = map(neg, prow)
        p = -p
    dens[r] = _reduce(prow, p)
    _clear(rows, dens, col, r, c)
    basis[r] = c


def _bland_loop(rows, dens, basis, ncols, pivots) -> bool:
    """Minimize the last row (reduced costs, minus the objective last).

    Returns True at an optimum and False when the entering column has
    no positive entry, i.e. the objective is unbounded below.
    """
    costs = rows[-1]  # updated in place by _pivot
    index = range(len(rows))
    while True:
        for enter in range(ncols):
            if costs[enter] < 0:
                break
        else:
            return True
        col = list(compress(index, map(itemgetter(enter), rows)))
        # ratio rhs / a, compared by cross-multiplication (a > 0); the
        # objective row is negative in the entering column, so it is
        # never a candidate
        leave = -1
        for i in col:
            row = rows[i]
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
        pivots.take()
        _pivot(rows, dens, basis, leave, enter, col)


def _phase1(A: Sequence, b: Sequence, n: int, pivots: _Pivots):
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
    for a_row, rhs in zip(A, b):
        if type(rhs) is Fraction and rhs.denominator == 1:
            rhs = rhs.numerator  # keeps an int A row on the fast path
        row, d = _int_row([*a_row, rhs])
        if row[-1] < 0:
            row = list(map(neg, row))
        rows.append(row)
        dens.append(d)
    basis = [n + i for i in range(m)]

    # minimize the sum of artificials: minus the column sums of the rows
    d = lcm(*dens)
    scaled = [row if di == d else [a * (d // di) for a in row]
              for row, di in zip(rows, dens)]
    cost = list(map(neg, map(sum, zip(*scaled)))) if m else [0] * (n + 1)
    dens.append(_reduce(cost, d))
    rows.append(cost)
    if not _bland_loop(rows, dens, basis, n, pivots):
        raise PropertyViolation("phase 1 unbounded")  # the sum is >= 0
    dens.pop()
    if rows.pop()[-1] != 0:
        return None

    # pivot artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next(compress(range(n), rows[i]), None)
            if enter is None:
                continue  # redundant row
            pivots.take()
            col = [k for k, row in enumerate(rows) if row[enter]]
            _pivot(rows, dens, basis, i, enter, col)
        keep.append(i)
    return ([rows[i] for i in keep], [dens[i] for i in keep],
            [basis[i] for i in keep])


def _optimal(rows, dens, basis, n, objective) -> SimplexResult:
    """The basic point of a final tableau, all ``n`` decision variables
    with zeros included, as the optimal result."""
    values = [ZERO] * n
    for row, di, bi in zip(rows, dens, basis):
        if row[-1]:
            values[bi] = Fraction(row[-1], di)
    return SimplexResult(OPTIMAL, objective, values, tuple(sorted(basis)))


def solve_standard_form(A: Sequence, b: Sequence, c: Sequence) -> SimplexResult:
    """Solve ``min c.z : A z = b, z >= 0`` exactly.

    Returns a basic optimal solution; the same input always yields the
    same basis and values.
    """
    n = len(c)
    cost, d = _int_row([*c, 0])
    pivots = _Pivots()
    start = _phase1(A, b, n, pivots)
    if start is None:
        return SimplexResult(INFEASIBLE, None, None, None)
    rows, dens, basis = start

    # phase 2: the objective row, reduced against the basis (in place)
    m = len(rows)
    rows.append(cost)
    dens.append(d)
    for i, bi in enumerate(basis):
        if cost[bi]:
            _clear(rows, dens, (m,), i, bi)
    if not _bland_loop(rows, dens, basis, n, pivots):
        return SimplexResult(UNBOUNDED, None, None, None)
    objective = Fraction(-rows.pop()[-1], dens.pop())
    return _optimal(rows, dens, basis, n, objective)


def find_feasible_point(A: Sequence, b: Sequence) -> SimplexResult:
    """Phase 1 only: a deterministic basic feasible point of ``Az=b, z>=0``.

    The point, basis and status are those of ``solve_standard_form`` with
    an all-zero cost, whose phase 2 never pivots; the objective is 0.
    """
    n = len(A[0]) if len(A) else 0
    start = _phase1(A, b, n, _Pivots())
    if start is None:
        return SimplexResult(INFEASIBLE, None, None, None)
    return _optimal(*start, n, ZERO)
