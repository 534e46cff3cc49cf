"""Exactly uniform random partitions of n with a per-sample randomness contract.

The generator is the classical count-driven one: from remaining weight m,
select a (part d, multiplicity j) pair with probability d*p(m-dj) / (m*p(m)),
append j copies of d, and recurse on m-dj.  Every partition of n is produced
with probability exactly 1/p(n).  For speed the pairs are grouped by the
removed weight s = d*j, whose total weight is sigma(s)*p(m-s) (sigma = sum of
divisors); the divisor d is then picked inside the group with weight d.

All probability draws are big-integer exact: a uniform integer below the
total weight is drawn by rejection from raw bits, never through floats.

Randomness contract: the bits consumed by sample #index are a pure function
of (master_seed, index).  Each stream seeds an independent MT19937 generator
from SHA-256(master_seed || index), so any partitioning of the index range
across workers reproduces the same samples.
"""

from __future__ import annotations

import hashlib
import random
from collections import namedtuple
from functools import lru_cache

from .errors import ResourceLimit, SnZerosError
from .partitions import Partition

RNG_NAME = "mt19937-sha256stream"


class SampleStream(namedtuple("SampleStream", "master_seed index")):
    """Identifies one deterministic randomness stream: sample #index under master_seed."""

    __slots__ = ()

    def __new__(cls, master_seed: int, index: int) -> SampleStream:
        check_u64("master seed", master_seed)
        check_u64("stream index", index)
        return tuple.__new__(cls, (master_seed, index))


def check_u64(name: str, value: int) -> None:
    """Reject a seed or stream index that a stream could not use exactly as given."""
    if not 0 <= value < 1 << 64:
        raise SnZerosError(f"{name} must be in [0, 2^64), got {value}")


def stream_rng(stream: SampleStream) -> random.Random:
    """Fresh generator for a stream; identical streams always yield identical bits."""
    seed = hashlib.sha256(
        stream.master_seed.to_bytes(8, "big") + stream.index.to_bytes(8, "big")
    ).digest()
    return random.Random(seed)


def derive_seed(master_seed: int, n: int) -> int:
    """Per-n 64-bit seed for sweeps from (master_seed, n), both checked by check_u64."""
    digest = hashlib.sha256(
        b"sweep" + master_seed.to_bytes(8, "big") + n.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def uniform_below(rng: random.Random, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection from getrandbits."""
    k = bound.bit_length()
    while True:
        r = rng.getrandbits(k)
        if r < bound:
            return r


@lru_cache(maxsize=4)
def _divisor_sums(max_n: int) -> tuple[int, ...]:
    """sigma(1..max_n) by sieve."""
    sig = [0] * (max_n + 1)
    for d in range(1, max_n + 1):
        for m in range(d, max_n + 1, d):
            sig[m] += d
    return tuple(sig)


def _divisors(s: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= s:
        if s % d == 0:
            small.append(d)
            if d * d != s:
                large.append(s // d)
        d += 1
    return small + large[::-1]


def random_partition(n: int, stream: SampleStream, p: tuple[int, ...]) -> Partition:
    """One partition of n, uniform with probability exactly 1/p(n); p = build_p_table(max_n)."""
    max_n = len(p) - 1
    if n < 0:
        raise SnZerosError(f"n must be >= 0, got {n}")
    if n > max_n:
        raise ResourceLimit(f"n={n} exceeds table max_n={max_n}")
    rng = stream_rng(stream)
    sigma = _divisor_sums(max_n)
    parts: list[int] = []
    m = n
    while m > 0:
        target = uniform_below(rng, m * p[m])
        s = 0
        while True:  # subtract whole groups until target falls inside one
            s += 1
            group = sigma[s] * p[m - s]
            if target < group:
                break
            target -= group
        # inside group s: divisor d with weight d * p(m-s)
        u = target // p[m - s]
        cum = 0
        for d in _divisors(s):
            cum += d
            if u < cum:
                break
        parts.extend([d] * (s // d))
        m -= s
    parts.sort(reverse=True)
    return Partition(tuple(parts))
