"""Fourier expansion of functions on the p-biased boolean cube.

A function on {0,1}^r is given as a table of 2^r values where the entry
at ``mask`` is the value at the point whose i-th coordinate is bit i of
``mask``.  Coefficients are taken against the orthonormal character
basis chi_S(y) = prod_{i in S} (y_i - p) / sqrt(p(1-p)) under the
product measure with per-coordinate mean p.

Internally the expansion stores the raw moments
``c_S = E[f * prod_{i in S} (y_i - p)]``, which are rational whenever p
and the table are.  Squared coefficients come out exactly as
``c_S^2 / (p(1-p))^|S|``, so squared quantities (Parseval sums,
influences) are exact Fractions in rational mode and floats otherwise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .caps import CapExceeded, check_bits

EXACT_MAX_R = 16
_TINY = sys.float_info.min


def _is_rational(value) -> bool:
    return isinstance(value, (int, Fraction))


def _table_mode(table: Sequence, p) -> tuple:
    """``(r, exact)`` for a table of length 2^r under bias p: exact when
    p and every entry are rational."""
    size = len(table)
    if size == 0 or size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    exact = _is_rational(p) and all(_is_rational(v) for v in table)
    return size.bit_length() - 1, exact


@dataclass(frozen=True)
class BiasedFourierExpansion:
    r: int
    p: Fraction | float
    exact: bool
    moments: tuple  # c_S indexed by the bitmask of S

    @property
    def variance_unit(self):
        """p(1-p), the squared norm of a single unsigned character."""
        return self.p * (1 - self.p)

    def coefficient_sq(self, mask: int):
        """The squared coefficient of chi_S, exact in rational mode; in
        float mode rounded once from the exact quotient when a float
        square would lose bits below the smallest normal float."""
        c = self.moments[mask]
        size = mask.bit_count()
        num, den = c * c, self.variance_unit ** size
        if not self.exact and (den < _TINY or c and num < _TINY):
            return float(Fraction(c) ** 2
                         / Fraction(self.variance_unit) ** size)
        return num / den

    def parseval_sum(self):
        return sum(self.coefficient_sq(m) for m in range(1 << self.r))


def biased_fourier(table: Sequence, p) -> BiasedFourierExpansion:
    """Expand a value table of length 2^r against the p-biased basis.

    The expansion is exact (Fractions) when p and every table entry are
    rational, and in floats otherwise.  The table length is bounded by
    the FOURIER cap, and rational mode by ``r <= EXACT_MAX_R``; both
    raise ``CapExceeded``.
    """
    r, exact = _table_mode(table, p)
    size = 1 << r
    check_bits("FOURIER", size, "Fourier table length")
    if exact:
        if r > EXACT_MAX_R:
            raise CapExceeded(f"rational mode supports r <= {EXACT_MAX_R}, "
                              f"got r = {r}")
        p = Fraction(p)
        work = [Fraction(v) for v in table]
    else:
        p = float(p)
        work = [float(v) for v in table]
    if not 0 < p < 1:
        raise ValueError(f"bias must lie strictly between 0 and 1, got {p}")

    # Butterfly over coordinates: the slot without bit i takes the mean
    # over y_i, the slot with bit i takes E[(y_i - p) f].
    pq = p * (1 - p)
    for i in range(r):
        bit = 1 << i
        for mask in range(size):
            if mask & bit:
                continue
            lo = work[mask]
            hi = work[mask | bit]
            work[mask] = (1 - p) * lo + p * hi
            work[mask | bit] = pq * (hi - lo)
    return BiasedFourierExpansion(r, p, exact, tuple(work))


def influences(table: Sequence, p, *, d: int | None = None) -> list:
    """Degree-d influence of every coordinate i (all degrees when d is
    None): the sum, in mask order, of the squared coefficients of the
    masks of at most d coordinates that contain i.

    The bias is first put in the table's mode (a float unless p and the
    table are rational).  A bias of 0 or 1 then makes the measure a
    point mass, under which every influence vanishes: zeros of that
    mode.  A negative d, or a bias outside [0, 1], which is no measure,
    raises ``ValueError``.
    """
    r, exact = _table_mode(table, p)
    if d is None:
        d = r
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    p = Fraction(p) if exact else float(p)
    if p in (0, 1):
        return [Fraction(0) if exact else 0.0] * r
    if not 0 < p < 1:
        raise ValueError(f"tilt {p} is outside [0, 1]")
    expansion = biased_fourier(table, p)
    low = [(m, expansion.coefficient_sq(m)) for m in range(1 << r)
           if m.bit_count() <= d]
    return [sum(sq for m, sq in low if m >> i & 1) for i in range(r)]


def conditional_variance_influence(table: Sequence, i: int, p):
    """Inf_i computed without Fourier: p(1-p) E[(f_{i->1} - f_{i->0})^2].

    Restricting f at coordinate i splits it into functions f_{i->0} and
    f_{i->1} of the remaining coordinates; the per-point variance over
    y_i is p(1-p) times their squared difference.  Serves as an
    independent cross-check of the coefficient route.
    """
    r, exact = _table_mode(table, p)
    if not 0 <= i < r:
        raise ValueError(f"coordinate {i} out of range for r={r}")
    p = Fraction(p) if exact else float(p)
    bit = 1 << i
    total = Fraction(0) if exact else 0.0
    for mask in range(1 << r):
        if mask & bit:
            continue
        ones = (mask & ~bit).bit_count()
        weight = p ** ones * (1 - p) ** (r - 1 - ones)
        diff = table[mask | bit] - table[mask]
        total += weight * diff * diff
    return p * (1 - p) * total


def dictator_table(r: int, i: int) -> list:
    """Truth table of y -> y_i."""
    if not 0 <= i < r:
        raise ValueError(f"coordinate {i} out of range for r={r}")
    return [(mask >> i) & 1 for mask in range(1 << r)]


def mask_of(y: Sequence[int]) -> int:
    """Bitmask of a 0/1 string, coordinate i in bit i."""
    mask = 0
    for i, a in enumerate(y):
        if a not in (0, 1):
            raise ValueError(f"not a boolean string: {tuple(y)}")
        mask |= a << i
    return mask
