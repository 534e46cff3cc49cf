"""Exact partition-count table p(0..maxN).

The table is built once per process with Euler's pentagonal-number
recurrence and shared read-only afterwards; every count is an exact
Python integer (p(50000) has a couple hundred digits).  The pentagonal
offsets are listed once, split by sign, for this recurrence and census's
c_t(n) series; each p(m) then needs no per-term index arithmetic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ResourceLimit, SnZerosError

DEFAULT_PTABLE_CAP = 100_000


def env_cap(name: str, default: int) -> int:
    """A size cap from environment variable `name`, or `default` when it is unset."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        cap = int(text)
    except ValueError:
        raise SnZerosError(f"{name}={text!r} is not an integer") from None
    if cap < 0:
        raise SnZerosError(f"{name}={cap} is negative")
    return cap


def ptable_cap() -> int:
    """Configured maxN cap; override with the SNZ_PTABLE_CAP environment variable."""
    return env_cap("SNZ_PTABLE_CAP", DEFAULT_PTABLE_CAP)


@dataclass(frozen=True)
class PartitionCountTable:
    """counts[m] = number of partitions of m, for 0 <= m <= max_n."""

    max_n: int
    counts: tuple[int, ...]


def pentagonal_offsets(max_deg: int) -> tuple[list[int], list[int]]:
    """Generalized pentagonal numbers k(3k-1)/2 and k(3k+1)/2 up to max_deg.

    Returns (odd, even): the ascending offsets of odd k and of even k.  Euler's
    product E(x) = prod_{i>=1} (1 - x^i) is 1 - sum x^odd + sum x^even.
    """
    odd: list[int] = []
    even: list[int] = []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= max_deg:
        (odd if k & 1 else even).extend([g, g + k] if g + k <= max_deg else [g])
        k += 1
    return odd, even


def build_p_table(max_n: int, cap: int | None = None) -> PartitionCountTable:
    """Exact p(0..max_n) via the pentagonal-number recurrence.

    p(m) = sum_{g in odd} p(m - g) - sum_{g in even} p(m - g), with the
    offsets of pentagonal_offsets.
    """
    if max_n < 0:
        raise SnZerosError(f"partition counts need n >= 0, got n={max_n}")
    if cap is None:
        cap = ptable_cap()
    if max_n > cap:
        raise ResourceLimit(f"max_n={max_n} exceeds partition-table cap {cap}")
    odd, even = pentagonal_offsets(max_n)
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for m in range(1, max_n + 1):
        total = 0
        for g in odd:
            if g > m:
                break
            total += counts[m - g]
        for g in even:
            if g > m:
                break
            total -= counts[m - g]
        counts[m] = total
    return PartitionCountTable(max_n, tuple(counts))
