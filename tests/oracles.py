"""Independent brute-force oracles used only by the test suite.

Everything here works on plain part tuples and Young-diagram cell sets,
deliberately avoiding the boundary-word machinery under test.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, isqrt
from operator import add

from snzeros.ptable import pentagonal_offsets


def partitions_tuples(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_tuples(n - first, first):
            yield (first,) + rest


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def cells(parts: tuple[int, ...]) -> set[tuple[int, int]]:
    return {(i, j) for i, p in enumerate(parts) for j in range(p)}


def hooks_arm_leg(parts: tuple[int, ...]) -> list[int]:
    """Hook lengths as arm + leg + 1, via the conjugate shape."""
    conj = conjugate(parts)
    out = []
    for i, p in enumerate(parts):
        for j in range(p):
            out.append((p - j - 1) + (conj[j] - i - 1) + 1)
    return sorted(out)


def dimension_hook_formula(parts: tuple[int, ...]) -> int:
    prod = 1
    for h in hooks_arm_leg(parts):
        prod *= h
    return factorial(sum(parts)) // prod


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def _is_border_strip(skew: set[tuple[int, int]]) -> bool:
    """Connected under edge adjacency and containing no 2x2 block."""
    if not skew:
        return False
    for (i, j) in skew:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew:
            return False
    seen = set()
    stack = [next(iter(skew))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in skew and nb not in seen:
                stack.append(nb)
    return seen == skew


def border_strip_removals(parts: tuple[int, ...], t: int):
    """All (smaller shape, height) with parts minus the shape a border strip of size t."""
    n = sum(parts)
    lam_cells = cells(parts)
    out = []
    for kappa in partitions_tuples(n - t):
        if not contains(parts, kappa):
            continue
        skew = lam_cells - cells(kappa)
        if _is_border_strip(skew):
            rows = {i for i, _ in skew}
            out.append((kappa, len(rows) - 1))
    return out


@lru_cache(maxsize=None)
def naive_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Rim-hook recursion on raw part tuples; no bit encoding anywhere."""
    assert sum(lam) == sum(mu)
    if not mu:
        return 1
    t = mu[0]
    nu = mu[1:]
    total = 0
    for kappa, height in border_strip_removals(lam, t):
        total += (-1) ** height * naive_character(kappa, nu)
    return total


def bounded_part_count(n: int, k: int) -> int:
    """Number of partitions of n with all parts <= k, by direct DP."""
    dp = [1] + [0] * n
    for part in range(1, k + 1):
        for m in range(part, n + 1):
            dp[m] += dp[m - part]
    return dp[n]


def rolling_max_part_counts(n: int) -> list[int]:
    """q[t] = number of partitions of n with largest part exactly t, by an O(n^2) DP.

    q(n,t) counts partitions of n-t into parts <= t, read off a rolling
    bounded-part array; step t updates only the indices m <= n - t still read,
    in blocks of t indices that each read only indices below the block.
    """
    bounded = [0] * (n + 1)  # partitions with parts <= t, updated in place
    bounded[0] = 1
    q = [0] * (n + 1)
    for t in range(1, n + 1):
        end = n - t + 1
        for lo in range(t, end, t):
            hi = min(lo + t, end)
            bounded[lo:hi] = map(add, bounded[lo:hi], bounded[lo - t:hi - t])
        q[t] = bounded[n - t]
    return q


def centralizer_size(mu: tuple[int, ...]) -> int:
    size = 1
    for d in set(mu):
        m = mu.count(d)
        size *= d**m * factorial(m)
    return size


def dense_core_count(n: int, t: int) -> int:
    """Number of partitions of n with no hook length divisible by t.

    Coefficient of x^n in prod_k (1 - x^{tk})^t / (1 - x^k), by dense exact
    series arithmetic: build the partition series, then apply each factor
    (1 - x^{tk}) t times.
    """
    series = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            series[m] += series[m - part]
    for k in range(1, n // t + 1):
        step = t * k
        for _ in range(t):
            for m in range(n, step - 1, -1):
                series[m] -= series[m - step]
    return series[n]


def log_derivative_core_count(n: int, t: int, pcounts: tuple[int, ...]) -> int:
    """c_t(n) via the log-derivative recurrence for g = E(y)^t.

    With E sparse, m*g_m = sum_j ((t+1)*j - m) E_j g_{m-j}; the division is
    exact.  Then c_t(n) = sum_j g_j * p(n - t*j), p = pcounts.
    """
    deg = n // t
    odd, even = pentagonal_offsets(deg)  # E_j = -1 at odd offsets, +1 at even
    t1 = t + 1
    g = [0] * (deg + 1)
    g[0] = 1
    for m in range(1, deg + 1):
        acc = 0
        for j in even:
            if j > m:
                break
            acc += (t1 * j - m) * g[m - j]
        for j in odd:
            if j > m:
                break
            acc -= (t1 * j - m) * g[m - j]
        q, r = divmod(acc, m)
        assert not r, f"inexact division in E^{t} coefficient {m}"
        g[m] = q
    return sum(g[j] * pcounts[n - t * j] for j in range(deg + 1))


def t_weight_core_count(n: int, t: int, pcounts: tuple[int, ...]) -> int:
    """c_t(n) from the t-weight recursion, with no power of E(y) = prod (1 - y^i).

    A partition is its t-core and its t-quotient, a t-tuple of partitions of
    total size w, the t-weight (James & Kerber 2.7), so p(m) = sum_w k_t(w) *
    c_t(m - t*w) with k_t(w) = [x^w] P(x)^t.  k_t comes from the log-derivative
    w k_t(w) = t sum_i sigma(i) k_t(w - i), sigma the divisor sum, and c_t(m) is
    solved for m = n mod t, n mod t + t, ..., n; p = pcounts.
    """
    top = n // t
    sigma = [0] + [sum(brute_divisors(i)) for i in range(1, top + 1)]
    k = [1]
    for w in range(1, top + 1):
        q, r = divmod(t * sum(sigma[i] * k[w - i] for i in range(1, w + 1)), w)
        assert not r, f"inexact division in P^{t} coefficient {w}"
        k.append(q)
    c: list[int] = []  # c[a] = c_t(n - t*top + t*a)
    for m in range(n - t * top, n + 1, t):
        c.append(pcounts[m] - sum(k[w] * c[-w] for w in range(1, len(c) + 1)))
    return c[-1]


def divisor_counts(n: int) -> list[int]:
    """d[k] = number of divisors of k for k <= n (d[0] = 0), by a sieve."""
    d = [0] * (n + 1)
    for i in range(1, n + 1):
        for m in range(i, n + 1, i):
            d[m] += 1
    return d


@lru_cache(maxsize=None)
def brute_divisors(s: int) -> tuple[int, ...]:
    """The divisors of s, ascending, by trial division up to sqrt(s)."""
    small = [d for d in range(1, isqrt(s) + 1) if s % d == 0]
    return tuple(small + [s // d for d in reversed(small) if d * d != s])


def pick_intervals(m: int, p: tuple[int, ...], groups):
    """(s, d, lo, hi) for each s in groups and each divisor d of s, s ascending.

    The count-driven sampler at weight m lays the (part d, removed weight s)
    pairs end to end, s ascending and then d ascending, each d * p(m - s)
    wide: a target in [lo, hi) removes s by parts d.
    """
    start, k = 0, 0  # start: width of the pairs of removed weight < s
    for s in sorted(groups):
        while k < s - 1:
            k += 1
            start += sum(brute_divisors(k)) * p[m - k]
        lo = start
        for d in brute_divisors(s):
            yield s, d, lo, lo + d * p[m - s]
            lo += d * p[m - s]
