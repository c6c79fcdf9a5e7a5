"""Resource caps for the exhaustive-search surfaces.

Every enumeration in this package (accepting-set expansion, brute-force
oracles, bucket rounding, long-code tuple expansion, Fourier tables) is
bounded by an explicit cap so that a malformed or oversized input fails
fast instead of hanging.  Each cap can be overridden through an
environment variable ``SMCSP_CAP_<NAME>``; values are interpreted the
same way as the defaults below (most are log2 budgets).
"""

from __future__ import annotations

import os

# name -> (env suffix, default, meaning)
_DEFAULTS = {
    "EXPAND": 4096,  # max size q**k of a materialized accepting set
    "ENUM": 24,      # brute-force assignment budget: q**n <= 2**ENUM
    "ROUND": 24,     # bucket rounding budget: q**m <= 2**ROUND
    "DICT": 20,      # per-edge tuple budget: |support|**r <= 2**DICT
    "FOURIER": 20,   # max cube dimension r for Fourier tables
    "UG": 20,        # unique-games brute force: r**|U| <= 2**UG
}


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured cap."""


def cap(name: str) -> int:
    """Return the active value of a cap, honoring SMCSP_CAP_* overrides."""
    default = _DEFAULTS[name]
    raw = os.environ.get(f"SMCSP_CAP_{name}")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"SMCSP_CAP_{name} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"SMCSP_CAP_{name} must be nonnegative, got {value}")
    return value


def check_count(name: str, count: int, what: str) -> None:
    """Raise CapExceeded if ``count`` exceeds the plain-count cap ``name``."""
    limit = cap(name)
    if count > limit:
        raise CapExceeded(f"{what}: {count} exceeds cap {limit} (SMCSP_CAP_{name})")


def check_bits(name: str, count: int, what: str) -> None:
    """Raise CapExceeded if ``count`` exceeds 2**cap for a log2 budget."""
    limit = cap(name)
    if count > (1 << limit):
        raise CapExceeded(
            f"{what}: {count} exceeds 2^{limit} (SMCSP_CAP_{name})"
        )
