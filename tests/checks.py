"""Property-suite checks shared by the unit tests and the acceptance gate.

Each function raises AssertionError with a specific message on failure and
returns quietly on success.
"""

from __future__ import annotations

from collections import Counter

from scipy.stats import chi2

from snzeros import (
    Partition,
    build_p_table,
    character,
    classify,
    decode,
    dimension,
    encode,
    is_t_core,
    random_partition,
    SampleStream,
)
from snzeros.census import count_max_part
from snzeros.montecarlo import estimate
from snzeros.partitions import remove_rim_hooks

from oracles import border_strip_removals, hooks_arm_leg, naive_character, partitions_tuples


def check_round_trip(max_n: int = 20) -> None:
    for n in range(max_n + 1):
        for parts in partitions_tuples(n):
            lam = Partition(parts)
            assert decode(encode(lam)) == lam, f"round trip failed for {parts}"


def bitpair_gaps(word: int) -> list[int]:
    """Sorted walk-index gaps b - a over (1-bit at a, 0-bit at b > a) pairs."""
    bits = bin(word)[2:]
    return sorted(
        b - a
        for a in range(len(bits))
        if bits[a] == "1"
        for b in range(a + 1, len(bits))
        if bits[b] == "0"
    )


def check_hook_bitpair_identity(max_n: int = 15) -> None:
    """Hook multiset equals the gaps over (1-bit, later 0-bit) pairs."""
    for n in range(max_n + 1):
        for parts in partitions_tuples(n):
            gaps = bitpair_gaps(encode(Partition(parts)))
            assert gaps == hooks_arm_leg(parts), f"hook identity failed for {parts}"


def check_core_equivalence(max_n: int = 15, oracle_max_n: int = 12) -> None:
    """t-core test == no hook divisible by t == no t-rim-hook removable.

    Up to oracle_max_n, each removal's shape and sign must also match the
    cell-set oracle, with sign (-1)^height.
    """
    for n in range(max_n + 1):
        for parts in partitions_tuples(n):
            word = encode(Partition(parts))
            hooks = hooks_arm_leg(parts)
            for t in range(1, n + 2):
                core = is_t_core(word, t)
                no_div = not any(h % t == 0 for h in hooks)
                removals = remove_rim_hooks({word: 1}, t)
                assert core == no_div == (not removals), f"core mismatch {parts} t={t}"
                for out_word, sign in removals.items():
                    assert sign in (1, -1)
                    assert decode(out_word).n == n - t, f"weight not conserved {parts} t={t}"
                if n <= oracle_max_n:
                    got = sorted((decode(w).parts, s) for w, s in removals.items())
                    want = sorted((k, (-1) ** h) for k, h in border_strip_removals(parts, t))
                    assert got == want, f"removals of {parts} t={t}: {got} != oracle {want}"


def check_dimension_base_case(max_n: int = 12) -> None:
    for n in range(max_n + 1):
        ones = Partition((1,) * n)
        for parts in partitions_tuples(n):
            lam = Partition(parts)
            assert character(lam, ones) == dimension(encode(lam)), f"base case failed for {parts}"


def check_column_orthogonality(max_n: int = 12) -> None:
    """Sum of squared column entries equals the centralizer size of the class."""
    from oracles import centralizer_size

    for n in range(1, max_n + 1):
        rows = [Partition(t) for t in partitions_tuples(n)]
        for mu_parts in partitions_tuples(n):
            mu = Partition(mu_parts)
            total = sum(character(lam, mu) ** 2 for lam in rows)
            assert total == centralizer_size(mu_parts), f"orthogonality failed for mu={mu_parts}"


def check_naive_mn_agreement(max_n: int = 9) -> None:
    for n in range(max_n + 1):
        all_parts = list(partitions_tuples(n))
        for lp in all_parts:
            lam = Partition(lp)
            for mp in all_parts:
                got = character(lam, Partition(mp))
                want = naive_character(lp, mp)
                assert got == want, f"chi_{lp}({mp}) = {got}, oracle says {want}"


def check_type_soundness(max_n: int = 12) -> None:
    """Whenever a core test fires, the exact value really is 0."""
    for n in range(1, max_n + 1):
        all_parts = list(partitions_tuples(n))
        for lp in all_parts:
            lam = Partition(lp)
            for mp in all_parts:
                zc = classify(lam, Partition(mp), evaluate=True)
                if zc.is_type1:
                    assert zc.is_type2
                if zc.is_type2:
                    assert zc.is_zero, f"type-2 witness but nonzero value at {lp},{mp}"


def check_sampler_chi_square(
    ns: tuple[int, ...] = (5, 6, 10),
    samples: int = 100_000,
    master_seed: int = 20240817,
    significance: float = 1e-3,
) -> list[tuple[int, float, float]]:
    """Chi-square goodness of fit of the sampler against exact uniformity."""
    results = []
    for n in ns:
        table = build_p_table(n)
        tallies: Counter = Counter()
        for i in range(samples):
            tallies[random_partition(n, SampleStream(master_seed + n, i), table).parts] += 1
        p_n = table[n]
        expected = samples / p_n
        stat = sum((tallies[parts] - expected) ** 2 / expected for parts in partitions_tuples(n))
        critical = chi2.ppf(1 - significance, df=p_n - 1)
        assert stat < critical, f"chi-square {stat:.1f} >= {critical:.1f} at n={n}"
        results.append((n, stat, critical))
    return results


def _merged_chi_square(tallies: Counter, law: list[int], draws: int) -> tuple[float, int]:
    """Chi-square statistic and degrees of freedom of tallies[k] against draws * law[k] / sum(law).

    Adjacent categories are merged until each expects at least 20 draws; a short
    remainder joins the last merged category.
    """
    total = sum(law)
    bins = []  # (observed, summed law weight) per merged category
    observed = weight = 0
    for k, w in enumerate(law):
        observed += tallies[k]
        weight += w
        if draws * weight >= 20 * total:
            bins.append((observed, weight))
            observed = weight = 0
    assert len(bins) >= 2, f"{draws} draws fill fewer than 2 categories"
    bins[-1] = (bins[-1][0] + observed, bins[-1][1] + weight)
    assert sum(o for o, _ in bins) == draws, "a tally lies outside the law's support"
    stat = sum((o - draws * w / total) ** 2 / (draws * w / total) for o, w in bins)
    return stat, len(bins) - 1


def check_sampler_marginals(n: int, draws: int, seed: int,
                            table: tuple[int, ...] | None = None) -> list[tuple[str, float, float]]:
    """Chi-square fit, at significance 1e-4, of three marginals of draws at n to their exact laws.

    Largest part: P(lam_1 = t) = q(n, t)/p(n), q from count_max_part.  Number of
    parts: the same law, by conjugation.  Number of 1s: P(m_1 = j) =
    (p(n - j) - p(n - j - 1))/p(n).  Draw i reads stream (seed, i); table is a
    p-table covering n, built here when None.
    """
    if table is None:
        table = build_p_table(n)
    largest: Counter = Counter()
    length: Counter = Counter()
    ones: Counter = Counter()
    for i in range(draws):
        parts = random_partition(n, SampleStream(seed, i), table).parts
        largest[parts[0]] += 1
        length[len(parts)] += 1
        ones[parts.count(1)] += 1
    q = count_max_part(n, table)
    ones_law = [table[n - j] - (table[n - j - 1] if j < n else 0) for j in range(n + 1)]
    results = []
    for name, tallies, law in [("largest part", largest, q), ("number of parts", length, q),
                               ("number of 1s", ones, ones_law)]:
        assert sum(law) == table[n], f"{name} law does not sum to p({n})"
        stat, df = _merged_chi_square(tallies, law, draws)
        critical = chi2.ppf(1 - 1e-4, df=df)
        assert stat < critical, f"{name}: chi-square {stat:.1f} >= {critical:.1f} at n={n}"
        results.append((name, stat, critical))
    return results


def check_worker_invariance(n: int = 20, samples: int = 300, master_seed: int = 99,
                            mode: str = "full-eval") -> None:
    """Count fields must be bit-identical under 1, 2 and 8 workers."""
    baseline = None
    for workers in (1, 2, 8):
        est = estimate(n, samples, master_seed, mode=mode, workers=workers)
        key = (est.count_zero, est.count_type1, est.count_type2)
        if baseline is None:
            baseline = key
        assert key == baseline, f"worker count {workers} changed counts: {key} != {baseline}"
