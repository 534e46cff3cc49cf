"""Exact partition-count table p(0..maxN).

The table is built once per process with Euler's pentagonal-number
recurrence and shared read-only afterwards; every count is an exact
Python integer (p(50000) has a couple hundred digits).
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


def build_p_table(max_n: int, cap: int | None = None) -> PartitionCountTable:
    """Exact p(0..max_n) via the pentagonal-number recurrence.

    p(m) = sum_{k>=1} (-1)^(k+1) [ p(m - k(3k-1)/2) + p(m - k(3k+1)/2) ].
    """
    if max_n < 0:
        raise SnZerosError(f"partition counts need n >= 0, got n={max_n}")
    if cap is None:
        cap = ptable_cap()
    if max_n > cap:
        raise ResourceLimit(f"max_n={max_n} exceeds partition-table cap {cap}")
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for m in range(1, max_n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            term = counts[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                term += counts[m - g2]
            total += term if k & 1 else -term
            k += 1
        counts[m] = total
    return PartitionCountTable(max_n, tuple(counts))
