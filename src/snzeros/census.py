"""Exact zero statistics: full-table scans and generating-function counts.

Small n: build the p(n) x p(n) character table column by column and tally
zeros by type.  The column of mu (rows partitions_of(|mu|)) comes from the
column of mu[1:]: remove every mu_1-rim hook of each row, with its sign, and
read the smaller shape's value.  Only columns with |mu| + mu_1 <= n are read
again and kept.  Large n: the number of type-1 zeros decomposes as
sum_t q(n,t) * c_t(n), where q(n,t) counts column shapes with largest part t
and c_t(n) counts row shapes with no hook divisible by t.  q(n, .) comes from
Euler's distinct-parts identity, c_t(n) from P(x) E(x^t)^t (E = prod (1 - x^i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, or_, sub

from .errors import ResourceLimit, SnZerosError
from .mn import classify  # noqa: F401  module attribute the benchmark tracer patches
from .partitions import Partition, encode, is_t_core, partitions_of, remove_rim_hooks
from .ptable import build_p_table, env_cap, pentagonal_offsets

DEFAULT_SCAN_CAP = 20
DEFAULT_TYPE1_CAP = 20000


def ratio_decimal(num: int, den: int, digits: int = 6) -> str:
    """num/den as a fixed-point decimal string, round half to even."""
    scaled = num * 10**digits
    q, r = divmod(scaled, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    s = str(q).rjust(digits + 1, "0")
    return s[:-digits] + "." + s[-digits:] if digits else s


@dataclass(frozen=True)
class ScanResult:
    """Exact tallies over every entry of one character table."""

    n: int
    total_entries: int
    zero_count: int
    type1_count: int
    type2_count: int

    def z(self, digits: int = 6) -> str:
        return ratio_decimal(self.zero_count, self.total_entries, digits)

    def z1(self, digits: int = 6) -> str:
        return ratio_decimal(self.type1_count, self.total_entries, digits)

    def z2(self, digits: int = 6) -> str:
        return ratio_decimal(self.type2_count, self.total_entries, digits)

    def type1_over_zero(self, digits: int = 3) -> str:
        """The exact-census headline ratio (type-1 zeros) / (all zeros)."""
        return ratio_decimal(self.type1_count, self.zero_count, digits)


def full_table_scan(n: int, cap: int | None = None) -> ScanResult:
    """Tally zeros, type-1 and type-2 zeros over all (lam, mu) pairs of weight n."""
    if cap is None:
        cap = env_cap("SNZ_SCAN_CAP", DEFAULT_SCAN_CAP)
    if n > cap:
        raise ResourceLimit(f"n={n} exceeds scan cap {cap}")
    if n < 0:
        raise SnZerosError(f"scan needs n >= 0, got n={n}")
    words = [[encode(Partition(p)) for p in partitions_of(m)] for m in range(n + 1)]
    index = [{w: i for i, w in enumerate(row)} for row in words]
    # core[t] has bit i set iff row i of weight n has no hook divisible by t
    core = [0] + [sum(1 << i for i, w in enumerate(words[n]) if is_t_core(w, t))
                  for t in range(1, n + 1)]
    columns: dict[tuple[int, ...], list[int]] = {(): [1]}
    zero = type1 = type2 = 0
    for m in range(1, n + 1):
        # below weight n, only columns with |mu| + mu_1 <= n are read again
        for t in range(1, min(m, n - m) + 1 if m < n else n + 1):
            # hooks[i]: (row index at weight m - t, sign) for each t-rim hook of row i
            hooks = [[(index[m - t][v], s) for v, s in remove_rim_hooks({w: 1}, t).items()]
                     for w in words[m]]
            for rest in partitions_of(m - t, t):
                below = columns[rest]
                col = [sum(s * below[j] for j, s in h) for h in hooks]
                if m < n:
                    columns[(t,) + rest] = col
                    continue
                zero += col.count(0)
                type1 += core[t].bit_count()
                type2 += reduce(or_, [core[part] for part in {t, *rest}]).bit_count()
    return ScanResult(n, len(words[n]) ** 2, zero, type1, type2)


def count_t_cores(n: int, t: int, pcounts: tuple[int, ...] | None = None) -> int:
    """c_t(n), partitions of n with no hook divisible by t, via E(y)^t.

    With g = E^t and E sparse, m*g_m = sum_j ((t+1)*j - m) E_j g_{m-j}; the
    division is exact.  Then c_t(n) = sum_j g_j * p(n - t*j), p = pcounts,
    built here under the partition-table cap when not given.
    """
    if n < 0 or t < 1:
        raise SnZerosError(f"c_t(n) needs n >= 0 and t >= 1, got n={n}, t={t}")
    if pcounts is None:
        pcounts = build_p_table(n).counts
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
        if r:
            raise SnZerosError(f"inexact division in E^{t} coefficient {m}")
        g[m] = q
    return sum(g[j] * pcounts[n - t * j] for j in range(deg + 1))


def count_max_part(n: int, pcounts: tuple[int, ...] | None = None) -> list[int]:
    """q[t] = number of partitions of n with largest part exactly t, 1 <= t <= n.

    Euler's prod_{i>t} (1 - x^i) = sum_r (-1)^r x^(rt + r(r+1)/2) / prod_{i<=r} (1 - x^i)
    gives q(n,t) = sum_r (-1)^r F_r[n - t - rt - r(r+1)/2] with F_r = P / prod_{i<=r} (1 - x^i),
    r < sqrt(2n) and P from pcounts (built under the partition-table cap when not given).
    """
    if pcounts is None:
        pcounts = build_p_table(n).counts
    f = list(pcounts[:n])  # F_0 = P
    q = [0, *reversed(f)]  # the r = 0 term, p(n - t)
    r = 1
    while (top := n - 1 - r - r * (r + 1) // 2) >= 0:  # F_r is read up to top only
        for lo in range(r, top + 1, r):  # each block of r reads only the block below
            f[lo:lo + r] = map(add, f[lo:lo + r], f[lo - r:lo])
        terms = f[top::-(r + 1)]  # F_r at top, top - (r + 1), ... for t = 1, 2, ...
        q[1:len(terms) + 1] = map(sub if r & 1 else add, q[1:len(terms) + 1], terms)
        r += 1
    return q


def count_type1(n: int, cap: int | None = None) -> int:
    """Exact number of type-1 zeros in the character table of weight n."""
    if cap is None:
        cap = env_cap("SNZ_TYPE1_CAP", DEFAULT_TYPE1_CAP)
    if n > cap:
        raise ResourceLimit(f"n={n} exceeds type-1 count cap {cap}")
    pcounts = build_p_table(n, cap=n + 1).counts
    q = count_max_part(n, pcounts)
    # t = 1 adds nothing: for n >= 1 no partition is a 1-core, so c_1(n) = 0
    return sum(q[t] * count_t_cores(n, t, pcounts) for t in range(2, n + 1))
