"""Resource caps for the exhaustive-search surfaces.

Every enumeration in this package (accepting-set expansion, the one
exact labeling search behind the oracle, bucket rounding and the
cube-constant optimum, long-code tuple expansion, Fourier tables, game
brute force and game composition) is bounded by an explicit cap so that
a malformed or oversized input fails fast instead of hanging.  Every cap
is a log2 budget: an enumeration of ``count`` items is allowed when
``count <= 2**cap``.  Each cap can be overridden through
an environment variable ``SMCSP_CAP_<NAME>``.
"""

from __future__ import annotations

import os

# name -> default log2 budget
_DEFAULTS = {
    "EXPAND": 12,    # materialized accepting set: q**k <= 2**EXPAND
    "ENUM": 24,      # exact labeling search: q**n <= 2**ENUM
    "DICT": 20,      # per-edge tuple budget: |support|**r <= 2**DICT
    "FOURIER": 20,   # Fourier table length: 2**r <= 2**FOURIER
    "UG": 20,        # game brute force r**|U|, composed vertices and
                     # composed constraint tuples: each <= 2**UG
    "PIVOT": 16,     # pivots of one exact simplex solve <= 2**PIVOT
}


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured cap."""


def cap(name: str) -> int:
    """Return the active value of a cap, honoring SMCSP_CAP_* overrides."""
    default = _DEFAULTS[name]
    raw = os.environ.get(f"SMCSP_CAP_{name}")
    if raw is None:
        return default
    if raw.isascii() and raw.isdigit():
        return _decimal(raw)
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"SMCSP_CAP_{name} must be an integer, "
                         f"got {clip(raw)!r}") from exc
    if value < 0:
        raise ValueError(f"SMCSP_CAP_{name} must be nonnegative, got {value}")
    return value


def clip(text: str) -> str:
    """``text`` as a message echoes it: the first 20 characters, and
    ``...`` after them if there are more."""
    return text if len(text) <= 20 else text[:20] + "..."


def _decimal(digits: str) -> int:
    """The value of a string of ASCII digits, whatever its length.

    Read in pieces short enough for ``int``'s digit limit, so an
    override past that limit needs no change of interpreter settings.
    """
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def check_bits(name: str, count: int, what: str) -> None:
    """Raise CapExceeded if ``count`` exceeds ``2**cap(name)``.

    Compares bit lengths, so a cap of any size builds no number, and
    names a count too long to print by its size in bits.
    """
    limit = cap(name)
    if count > 1 and (count - 1).bit_length() > limit:
        try:
            shown = str(count)
        except ValueError:  # past the int -> str digit limit
            shown = f"a {count.bit_length()}-bit number"
        refuse(name, what, shown)


def refuse(name: str, what: str, shown: str) -> None:
    """Raise CapExceeded for a count, written ``shown``, over cap ``name``."""
    raise CapExceeded(f"{what}: {shown} exceeds 2^{cap(name)} "
                      f"(SMCSP_CAP_{name})")
