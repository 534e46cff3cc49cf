"""Exact zero statistics: full-table scans and generating-function counts.

Small n: build the p(n) x p(n) character table bottom-up and tally zeros by
type.  Row lam on column mu is the signed sum, over every mu_1-rim hook of
lam, of the row left by its removal on column mu[1:].  One recursion lists
the shapes of each weight in ascending lexicographic order with their
boundary words.  rows[m][w] holds word w's values on the columns mu of
weight m read again (|mu| + mu_1 <= n), in the order in which the (weight,
first part t) loop appends them, so the columns (t,) + rest read a prefix of
every row of weight |rest| and one map(add/sub) over whole rows stops there.
One row per conjugate pair {lam, lam'} is kept, the smaller word:
chi^lam'(mu) = sgn(mu) chi^lam(mu), so a dropped word reads its twin's prefix
with the odd-sign columns negated, and at weight n each kept row's zeros
count twice (once if lam = lam') and no row is stored.  Large n: the type-1
zeros number sum_t q(n,t) * c_t(n).  q(n,t) counts column shapes with largest
part t, by running sums along residue classes (Euler's identity); c_t(n)
counts row shapes with no hook divisible by t, read off P(x) E(x^t)^t
(E = prod (1 - x^i)) by core_counts alone: closed forms to E^3, steps
E^t = E^(t-1) * E, and past t = n // 16 polynomials in t from one table of
(E - 1)^k.  Scans obey the scan cap, type-1 counts the partition-table cap
of their p(0..n) build.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import reduce
from itertools import accumulate, repeat
from math import comb, isqrt
from operator import add, mul, or_, sub

from .errors import SnZerosError
from .mn import classify  # noqa: F401  module attribute the benchmark tracer patches
from .partitions import conjugate, is_t_core, remove_rim_hooks
from .ptable import build_p_table, check_cap, pentagonal_offsets


def ratio_decimal(num: int, den: int, digits: int = 6) -> str:
    """num/den as a fixed-point decimal string, round half to even."""
    scaled = num * 10**digits
    q, r = divmod(scaled, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    s = str(q).rjust(digits + 1, "0")
    return s[:-digits] + "." + s[-digits:] if digits else s


class ScanResult(namedtuple("ScanResult", "n total_entries zero_count type1_count type2_count")):
    """Exact tallies over every entry of one character table."""

    __slots__ = ()

    def type1_over_zero(self) -> str:
        """The exact-census headline ratio (type-1 zeros) / (all zeros), to 3 decimals.

        "undefined" when the table has no zeros, as for every n <= 2.
        """
        return ratio_decimal(self.type1_count, self.zero_count, 3) if self.zero_count else "undefined"


def full_table_scan(n: int) -> ScanResult:
    """Tally zeros, type-1 and type-2 zeros over all (lam, mu) pairs of weight n."""
    check_cap("scan", (n,))
    shapes, words = [[()]], [[0]]  # the partitions of m, ascending lexicographic, and their words
    for m in range(1, n + 1):  # (t, *r), r_1 <= t: r's word w, then t - r_1 1-bits and a 0-bit
        shapes.append([(t, *r) for t in range(1, m + 1) for r in shapes[m - t] if r[:1] <= (t,)])
        words.append([((w + 1) << (t + 1 - w.bit_count())) - 2  # r_1 = popcount(w)
                      for t in range(1, m + 1) for w in words[m - t] if w.bit_count() <= t])
    # twin[m]: dropped word -> kept word; rows[m][w]: kept word w's read-again values
    twin = [{c: w for w, c in zip(row, map(conjugate, row)) if w < c} for row in words]
    rows = [{w: [] for w in row if w not in tw} for row, tw in zip(words, twin)]
    rows[0][0].append(1)  # chi^() on the empty cycle type
    pair_size = dict.fromkeys(rows[n], 1) | dict.fromkeys(twin[n].values(), 2)  # twin: same zeros
    # core[t] has bit i set iff row i of weight n has no hook divisible by t
    core = [0] + [sum(1 << i for i, w in enumerate(words[n]) if is_t_core(w, t))
                  for t in range(1, n + 1)]
    zero = type1 = type2 = 0
    for m in range(1, n + 1):
        # below weight n, only columns with |mu| + mu_1 <= n are read again
        for t in range(1, min(m, n - m) + 1 if m < n else n + 1):
            rests = [r for r in shapes[m - t] if r[:1] <= (t,)]  # a prefix of every row of m - t
            # chi^lam'(mu) = sgn(mu) chi^lam(mu), sgn(mu) = (-1)^(|mu| - len(mu)): a dropped
            # word reads its twin's row with the odd-sign columns negated (even ones shared)
            odd = [(m - t - len(r)) & 1 for r in rests]
            below = {v: [-x if o else x for x, o in zip(rows[m - t][u], odd)]
                     for v, u in twin[m - t].items()}
            below.update(rows[m - t])
            for w, row in rows[m].items():  # the signed sum of the rows of w's t-rim hook removals
                new = [0] * len(rests)
                for v, s in remove_rim_hooks({w: 1}, t).items():
                    new = map(add if s > 0 else sub, new, below[v])  # stops at len(rests)
                if m < n:
                    row += new  # the columns (t,) + rests follow those of smaller first part
                else:
                    zero += list(new).count(0) * pair_size[w]  # weight n: keep zero counts only
            if m == n:
                type1 += core[t].bit_count() * len(rests)
                type2 += sum(reduce(or_, [core[p] for p in {t, *rest}]).bit_count() for rest in rests)
    return ScanResult(n, len(words[n]) ** 2, zero, type1, type2)


TAIL_J = 16  # core_counts' tail; 10..24 time alike at n = 5000, 8 and 32 are slower at 50000
TAIL_BLOCK = 4096  # values of t core_counts' tail holds at once


def times_e(g: list[int], deg: int, odd: list[int], even: list[int]) -> list[int]:
    """g * E up to degree deg < len(g), (odd, even) = pentagonal_offsets(D >= deg), no products."""
    h = g[:deg + 1]
    for offsets, op in ((odd, sub), (even, add)):
        for j in offsets:
            if j > deg:
                break
            h[j:] = map(op, h[j:], g)  # E = 1 - sum x^odd + sum x^even; map stops at h[j:]'s end
    return h


def core_counts(n: int, pcounts: tuple[int, ...], first: int) -> Iterator[int]:
    """c_t(n) for t = first, first + 1, ...: sum_j [y^j]E(y)^t * p(n - t*j), pcounts covering p(0..n).

    c_1(n) = [n = 0]; 2-cores are staircases, c_2(n) = [n is triangular].  Below the tail's
    start t0 = max(first, 3, n // TAIL_J + 1) the walk steps E^t = E^(t-1) * E at degree
    n // max(t, first) from Jacobi's E^3 = sum_k (-1)^k (2k+1) y^(k(k+1)/2).  From t0 on each
    [y^j]E^t read, j <= n // t0 < TAIL_J, is a degree-j polynomial in t, as E^t = sum_k C(t, k)
    (E - 1)^k: one table of (E - 1)^k gives its forward differences at t0, and one map pass
    per j adds its terms to each block of TAIL_BLOCK values of t.
    """
    yield from (int(n == 0 if t == 1 else isqrt(8 * n + 1) ** 2 == 8 * n + 1) for t in range(first, 3))
    t0 = max(first, 3, n // TAIL_J + 1)
    top = n // t0  # the largest j read from t0 on
    deg = n // max(first, 3)
    odd, even = pentagonal_offsets(deg)  # deg >= top
    jacobi = {k * (k + 1) // 2: (-1) ** k * (2 * k + 1) for k in range(isqrt(2 * deg) + 1)}
    g = [jacobi.get(i, 0) for i in range(deg + 1)]  # E^3
    for t in range(3, t0) if first < t0 else ():  # the walk runs only below the tail
        if t >= first:
            yield sum(map(mul, g, pcounts[n::-t]))
        g = times_e(g, n // max(t + 1, first), odd, even)
    b = [[1] + [0] * top]  # b[k][j] = [y^j](E - 1)^k, 0 for j < k
    for _ in range(top):
        b.append(list(map(sub, times_e(b[-1], top, odd, even), b[-1])))
    chains = []  # per j: p(n - t*j) for t = t0..n // j, and [y^j]E^t for t = t0, t0 + 1, ...
    for j in range(1, top + 1):  # the i-th forward difference of C(t, k) is C(t, k - i)
        diffs = [sum(comb(t0, k - i) * b[k][j] for k in range(i, j + 1)) for i in range(j + 1)]
        seq = repeat(diffs[j])  # the j-th difference is constant; each accumulate undoes one
        for d in reversed(diffs[:j]):
            seq = accumulate(seq, initial=d)
        chains.append((map(pcounts.__getitem__, range(n - j * t0, -1, -j)), seq))
    for a in range(t0, n + 1, TAIL_BLOCK):  # c_t(n) for t = a..a + TAIL_BLOCK - 1, at most n
        cs = [pcounts[n]] * min(TAIL_BLOCK, n + 1 - a)  # from the j = 0 term on
        for j, (ps, seq) in enumerate(chains, 1):
            if (k := min(len(cs), n // j + 1 - a)) > 0:  # t = a..n // j read p(n - t*j)
                cs[:k] = map(add, cs, map(mul, ps, seq))
        yield from cs
    yield from repeat(pcounts[n])  # t > n: every partition of n is a t-core


def count_t_cores(n: int, t: int) -> int:
    """c_t(n), partitions of n with no hook divisible by t; p(0..n) obeys the table cap."""
    if n < 0 or t < 1:
        raise SnZerosError(f"c_t(n) needs n >= 0 and t >= 1, got n={n}, t={t}")
    return next(core_counts(n, build_p_table(n), t))


def count_max_part(n: int, pcounts: tuple[int, ...]) -> list[int]:
    """q[t] = number of partitions of n with largest part exactly t, 1 <= t <= n.

    Euler's prod_{i>t} (1 - x^i) = sum_r (-1)^r x^(rt + r(r+1)/2) / prod_{i<=r} (1 - x^i)
    gives q(n,t) = sum_r (-1)^r F_r[n - t - rt - r(r+1)/2] with F_r = P / prod_{i<=r} (1 - x^i),
    r < sqrt(2n), P = pcounts covering p(0..n - 1); F_r is F_(r-1) summed along each class mod r.
    """
    f = list(pcounts[:n])  # F_0 = P
    q = [0, *reversed(f)]  # the r = 0 term, p(n - t)
    r = 1
    while (top := n - 1 - r - r * (r + 1) // 2) >= 0:  # F_r is read up to top only
        for res in range(min(r, top + 1)):  # F_r = F_(r-1) / (1 - x^r), one class at a time
            f[res:top + 1:r] = accumulate(f[res:top + 1:r])
        terms = f[top::-(r + 1)]  # F_r at top, top - (r + 1), ... for t = 1, 2, ...
        q[1:len(terms) + 1] = map(sub if r & 1 else add, q[1:len(terms) + 1], terms)
        r += 1
    return q


def count_type1(n: int) -> int:
    """Exact number of type-1 zeros of the weight-n table; n obeys the partition-table cap."""
    pcounts = build_p_table(n)
    # sum_t q(n,t) c_t(n) from t = 2: c_1(n) = 0 for n >= 1
    return sum(map(mul, count_max_part(n, pcounts)[2:], core_counts(n, pcounts, 2)))
