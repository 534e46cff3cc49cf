"""Exact partition-count table: the plain tuple (p(0), ..., p(max_n)).

Every count is an exact Python integer (p(50000) has a couple hundred
digits); each p(m) is two C-level gathers at fixed negative indices, one
per sign of Euler's pentagonal-number recurrence, whose offsets are listed
once, split by sign, for this recurrence and census's c_t(n) series.

The size caps live here too: CAPS gives each cap's environment variable
and default, size_cap reads the variable on every call, and check_cap is
the one check through which table builds, censuses and CLI ranges pass
each n.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from operator import itemgetter

from .errors import ResourceLimit, SnZerosError

# what -> (environment variable, default) of each size cap
CAPS = {
    "scan": ("SNZ_SCAN_CAP", 20),
    "partition-table": ("SNZ_PTABLE_CAP", 100_000),
    "bag": ("SNZ_BAG_CAP", 1_000_000),  # words in one Murnaghan-Nakayama bag
}


def size_cap(what: str) -> int:
    """The `what` cap: its variable's value, or its default when the variable is unset."""
    name, default = CAPS[what]
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


def check_cap(what: str, ns: Iterable[int]) -> None:
    """SnZerosError for the first n of ns below 0, ResourceLimit for the first over the `what` cap."""
    cap = size_cap(what)
    for n in ns:
        if n < 0:
            raise SnZerosError(f"{what} needs n >= 0, got n={n}")
        if n > cap:
            raise ResourceLimit(f"n={n} exceeds {what} cap {cap}")


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


def build_p_table(max_n: int) -> tuple[int, ...]:
    """(p(0), ..., p(max_n)) by the pentagonal-number recurrence, under the partition-table cap.

    p(m) = sum_{g in odd} p(m - g) - sum_{g in even} p(m - g) over the offsets
    g <= m of pentagonal_offsets.  Between two pentagonal numbers that set is
    fixed and p(m - g) is counts[-g], so one itemgetter per sign reads them;
    index 0 twice (p(0) = 1, cancelling) makes each return a tuple.
    """
    check_cap("partition-table", (max_n,))
    odd, even = pentagonal_offsets(max_n)
    starts = sorted(odd + even)
    counts = [1]
    for start, stop in zip(starts, starts[1:] + [max_n + 1]):
        plus = itemgetter(0, 0, *[-g for g in odd if g <= start])
        minus = itemgetter(0, 0, *[-g for g in even if g <= start])
        for _ in range(start, stop):
            counts.append(sum(plus(counts)) - sum(minus(counts)))
    return tuple(counts)
