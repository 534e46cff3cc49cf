"""Exactly uniform random partitions of n with a per-sample randomness contract.

The generator is the classical count-driven one: from remaining weight m,
select a (part d, multiplicity j) pair with probability d*p(m-dj) / (m*p(m)),
append j copies of d, and recurse on m-dj.  Every partition of n is produced
with probability exactly 1/p(n).  For speed the pairs are grouped by the
removed weight s = d*j, whose total weight is sigma(s)*p(m-s) (sigma = sum of
divisors); the divisor d is then picked inside the group with weight d.

Draws are exact: a float scan places each target (drawn below the total weight by rejection from
raw bits) where a rounding bound certifies it (_pick); p(m) is read where floats cannot decide
(_draw, _exact_pick), below K0 = 1000 from a small exact table, from K0 on from the caller's table.

Float table: fp[k] ~ p(k) / 2^shift, the shift set by max_n so that max_n*p(max_n) is below 2^1000
units; p(k) correctly rounded below K0, then the first Hardy-Ramanujan-Rademacher term e^(C*lam -
shift*ln 2) * (C - 1/lam) / (4*pi*sqrt(2)*lam^2), lam = sqrt(k - 1/24), C = pi*sqrt(2/3), within
EPS = 2^-40 relative: the omitted terms shrink like e^(-C*lam/2), below 2e-18 from K0 on; to first
order in u = 2^-53, lam is within 1.5u, C and LN2 are correctly rounded, the exponent is off by
u*(4.5*C*lam + 3*shift*ln 2) at most, libm's exp is assumed within 1 ulp, the prefactor adds 12.1u:
0.49 EPS at lam(FLOAT_MAX_N = 100000), measured 0.15 EPS; past it fp is p scaled, correctly rounded.

Randomness contract: the bits consumed by sample #index are a pure function
of (master_seed, index).  Each stream seeds an independent MT19937 generator
from SHA-256(master_seed || index), so any partitioning of the index range
across workers reproduces the same samples.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import count, repeat
from math import exp, frexp, isqrt, log, pi, sqrt
from operator import add, mul, sub

from .errors import ResourceLimit, SnZerosError
from .partitions import Partition
from .ptable import build_p_table, check_cap

try:  # CPython's built-in SHA-256, as random takes its sha512: hashlib would load OpenSSL
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

RNG_NAME = "mt19937-sha256stream"
K0, EPS, FLOAT_MAX_N = 1000, 2.0**-40, 100_000  # the float table's bounds: see above
C, D, LN2 = pi * sqrt(2 / 3), 4 * pi * sqrt(2), log(2)
_float_memo: tuple = (None, 0, (), (), ())  # (max_n, shift, fp, sigma, small)


class OnDemandTable:
    """p(0..max_n), checked against the partition-table cap when made, built on its first read."""

    def __init__(self, max_n: int, build=build_p_table) -> None:
        check_cap("partition-table", (max_n,))
        self.max_n, self.build, self.values = max_n, build, None

    def __len__(self) -> int:
        return self.max_n + 1

    def __getitem__(self, k):
        if self.values is None:
            self.values = self.build(self.max_n)
        return self.values[k]


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
    seed = sha256(
        stream.master_seed.to_bytes(8, "big") + stream.index.to_bytes(8, "big")
    ).digest()
    return random.Random(seed)


def derive_seed(master_seed: int, n: int) -> int:
    """Per-n 64-bit seed for sweeps from (master_seed, n), both checked by check_u64."""
    digest = sha256(
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


def _draw(rng: random.Random, m: int, fm: float, shift: int, p) -> int:
    """uniform_below(rng, m * p[m]), m >= K0, reading p[m] only where fm = m * fp[m] cannot decide.

    fm = f * 2^e, within 2*EPS of M / 2^shift (M = m*p(m)) once fm >= 2^-960 (fp[m] normal), puts
    M / 2^(k - 60), k = e + shift, in (c - d, c + d): k is M's bit length if 2^59 <= c - d,
    c + d <= 2^60; draws read M only there, or where fm < 2^-960 (fp[m] maybe subnormal).
    """
    f, e = frexp(fm)
    c, d = int(f * 2.0**60), int(EPS * 2.0**62) + 2
    if fm < 2.0**-960 or c - d < 1 << 59 or c + d > 1 << 60:
        return uniform_below(rng, m * p[m])
    k = e + shift
    while True:
        r = rng.getrandbits(k)
        if r >> k - 60 < c - d or r >> k - 60 < c + d and r < m * p[m]:
            return r


def _in_group(s: int, r: float, w: float, total: float) -> tuple[int, int, int]:
    """(lo, hi, d): d the least divisor of s with r < hi*w; lo, hi sum the divisors < d, <= d.

    total = sigma(s).  The walk starts at the largest divisor, the likeliest (weight d), and
    returns the first d with lo*w <= r.  x*w rounds monotonically in x and each lo is the next
    smaller divisor's hi, so the largest d with lo*w <= r is the least d with r < hi*w.
    """
    small, lo = [], total
    for e in range(1, isqrt(s) + 1):  # d = s // e descends from s
        if s % e == 0:
            small.append(e)
            hi, lo = lo, lo - s // e
            if r >= lo * w:
                return lo, hi, s // e
    for d in reversed(small):  # then the divisors below sqrt(s), lo reaching 0 at d = 1
        if d * d != s:
            hi, lo = lo, lo - d
            if r >= lo * w:
                return lo, hi, d


def _scaled(p: tuple[int, ...], shift: int) -> tuple[float, ...]:
    """p(k) / 2^shift for every k, each correctly rounded to a float."""
    return tuple(x / (1 << shift) for x in p)


def _float_table(p) -> tuple[int, tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
    """(shift, fp, sigma(0..max_n), small = p(0..min(max_n, K0 - 1))) for p = p(0..max_n).

    Memoised on max_n; p is read, and scaled, only past FLOAT_MAX_N.  sigma is sieved in floats
    (exact: each sum is far below 2^53) over divisor pairs a*k, a <= k: a slice pass per a, side.
    """
    global _float_memo
    if (memo := _float_memo)[0] != (max_n := len(p) - 1):
        small = build_p_table(min(max_n, K0 - 1))
        lam = sqrt((top := max(max_n, K0)) - 1 / 24)  # the bits of top * p(top), by the term
        shift = max(0, int((C * lam + log(top * (C - 1 / lam) / (D * lam * lam))) / LN2) - 999)
        fp = _scaled(small, shift) + (_scaled(p[K0:], shift) if max_n > FLOAT_MAX_N else tuple(
            exp(C * lam - shift * LN2) * (C - 1 / lam) / (D * lam * lam)
            for lam in map(sqrt, map(sub, range(K0, max_n + 1), repeat(1 / 24)))))
        sigma = [0.0] * (max_n + 1)
        for a in range(1, isqrt(max_n) + 1):  # the divisor a of a*k, k >= a; then k of a*k, k > a
            sigma[a * a::a] = map(add, sigma[a * a::a], repeat(a))
            sigma[a * a + a::a] = map(add, sigma[a * a + a::a], count(a + 1))
        _float_memo = memo = (max_n, shift, fp, tuple(sigma), small)
    return memo[1:]


def _exact_pick(m: int, target: int, p: tuple[int, ...], sigma: tuple[float, ...]) -> tuple[int, int]:
    """(s, d) that target, in [0, m*p(m)), selects: group s by the integer scan, then divisor d."""
    for s in range(1, m + 1):  # subtract whole groups until target falls inside one
        if target < (group := int(sigma[s]) * p[m - s]):
            break
        target -= group
    return s, _in_group(s, target, p[m - s], int(sigma[s]))[2]  # d has weight d * p(m-s)


def _pick(m: int, target: int, p: tuple[int, ...], fp: tuple[float, ...],
          sigma: tuple[float, ...], shift: int) -> tuple[int, int]:
    """_exact_pick(m, target, p, sigma), proposed by a float scan of fp ~ p / 2^shift.

    (s, d) is right iff target is in [W + lo*p(m-s), W + hi*p(m-s)), W the weight of groups
    1..s-1.  In units of 2^shift each float distance to an edge is within (s + 5 + O(s/2^53))
    * M/2^53 of the exact one, M = m*p(m), plus (s^2 + 3s + 20) / 2^1075 from subnormals and
    EPS*M from fp's own error (the groups scanned and the edge sum to M at most), doubled.
    The scan multiplies sigma read forwards from sigma[1] by fp read backwards from fp[m - 1]
    (reversed, placed by __setstate__, so no copy): the products and subtractions of
    sigma[s] * fp[m - s], in the same order, without indexing; s is read back from sig's length.
    """
    t = target / (1 << shift)
    sig = iter(sigma)
    next(sig)  # at sigma[1]
    rev = reversed(fp)
    rev.__setstate__(m - 1)  # at fp[m - 1]
    for g in map(mul, sig, rev):  # g = sigma[s] * fp[m - s] for s = 1, 2, ...
        if t < g:
            break
        t -= g
    else:
        return _exact_pick(m, target, p, sigma)
    s = len(sigma) - 1 - sig.__length_hint__()  # sig has yielded sigma[1..s]
    lo, hi, d = _in_group(s, t, ps := fp[m - s], sigma[s])
    ulp = m * fp[m] * 2.0**-53
    if not shift and ulp < 1.0:  # every value is an exact float: shift = 0 and M < 2^53
        return s, d
    slack = (s + 8 + EPS * 2.0**54) * ulp + (s * s + 8) * 2.0**-1070
    certified = slack <= t - lo * ps and slack < hi * ps - t
    return (s, d) if certified else _exact_pick(m, target, p, sigma)


def random_partition(n: int, stream: SampleStream, p) -> Partition:
    """One partition of n, uniform with probability exactly 1/p(n); p = p(0..max_n), max_n >= n."""
    max_n = len(p) - 1
    if n < 0:
        raise SnZerosError(f"n must be >= 0, got {n}")
    if n > max_n:
        raise ResourceLimit(f"n={n} exceeds table max_n={max_n}")
    rng = stream_rng(stream)
    shift, fp, sigma, small = _float_table(p)
    parts: list[int] = []
    m = n
    while m > 0:
        target = uniform_below(rng, m * small[m]) if m < K0 else _draw(rng, m, m * fp[m], shift, p)
        s, d = _pick(m, target, small if m < K0 else p, fp, sigma, shift)
        parts.extend([d] * (s // d))
        m -= s
    parts.sort(reverse=True)
    return Partition(tuple(parts))
