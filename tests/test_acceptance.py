"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The whole module is exact or seeded, so results are stable
across runs and worker counts.  Expect a few minutes of wall clock.
"""

import time

import pytest

from snzeros import Partition, SampleStream, build_p_table, character, random_partition
from snzeros.census import count_type1, full_table_scan, ratio_decimal
from snzeros.montecarlo import estimate

import checks

# Reference values frozen from the published exact census and experiments.
EXPECTED_TYPE1_OVER_ZERO = {
    3: "1.000", 4: "0.750", 5: "0.700", 6: "0.897", 7: "0.655",
    8: "0.621", 9: "0.567", 10: "0.617", 11: "0.538", 12: "0.574",
    13: "0.522", 14: "0.534", 15: "0.529", 16: "0.519",
}

TYPE1_COUNT_N5000 = int(
    "40164656004154251347871263531659364239379674458821022141239620206598"
    "19531452833771632491981137100313453324105600648017184182872275873569"
    "544245365379"
)


@pytest.fixture(scope="module")
def scans():
    return {n: full_table_scan(n) for n in range(3, 17)}


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def test_criterion_1_exact_ratios(scans):
    failures = []
    for n, want in EXPECTED_TYPE1_OVER_ZERO.items():
        got = scans[n].type1_over_zero()
        if got != want:
            failures.append((n, got, want))
    ok = report(1, not failures, f"exact type1/zero ratios for n=3..16 {failures or ''}")
    assert ok


def test_criterion_2_full_eval_estimates():
    samples = 100_000
    est50 = estimate(50, samples, master_seed=1001, mode="full-eval")
    est10 = estimate(10, samples, master_seed=1002, mode="full-eval")
    z50 = est50.count_zero / samples
    z1_50 = est50.count_type1 / samples
    z2_50 = est50.count_type2 / samples
    z10 = est10.count_zero / samples
    ok = (
        abs(z50 - 0.338) <= 0.01
        and abs(z1_50 - 0.184) <= 0.005
        and abs(z2_50 - 0.197) <= 0.005
        and abs(z10 - 0.334) <= 0.005
    )
    ok = report(
        2,
        ok,
        f"n=50: z={z50:.4f} z1={z1_50:.4f} z2={z2_50:.4f}; n=10: z={z10:.4f} "
        f"(targets 0.338/0.184/0.197 and 0.334)",
    )
    assert ok


def test_criterion_3_types_only_estimates():
    samples = 20_000
    est1000 = estimate(1000, samples, master_seed=1003, mode="types-only")
    est5000 = estimate(5000, samples, master_seed=1004, mode="types-only")
    z1_1000 = est1000.count_type1 / samples
    z2_1000 = est1000.count_type2 / samples
    z1_5000 = est5000.count_type1 / samples
    ok = (
        abs(z1_1000 - 0.150) <= 0.01
        and abs(z2_1000 - 0.160) <= 0.01
        and abs(z1_5000 - 0.138) <= 0.01
    )
    ok = report(
        3,
        ok,
        f"n=1000: z1={z1_1000:.4f} z2={z2_1000:.4f}; n=5000: z1={z1_5000:.4f} "
        f"(targets 0.150/0.160 and 0.138)",
    )
    assert ok


def test_criterion_4_evaluation_speed():
    n, budget = 47, 5.0
    table = build_p_table(n)
    pairs = [
        (
            random_partition(n, SampleStream(1005, 2 * i), table),
            random_partition(n, SampleStream(1005, 2 * i + 1), table),
        )
        for i in range(1000)
    ]
    t0 = time.monotonic()
    values = [character(lam, mu) for lam, mu in pairs]
    elapsed = time.monotonic() - t0
    assert len(values) == 1000
    ok = report(4, elapsed <= budget, f"1000 evaluations at n=47 in {elapsed:.3f}s (budget {budget}s)")
    assert ok


def test_criterion_5_type1_oracle_equivalence(scans):
    failures = [
        n for n in range(3, 17) if count_type1(n) != scans[n].type1_count
    ]
    ok = report(5, not failures, f"count_type1 == scan type1 count for n=3..16 {failures or ''}")
    assert ok


def test_criterion_6_exact_type1_count_n5000():
    got = count_type1(5000)
    ok = report(6, got == TYPE1_COUNT_N5000, "exact 148-digit type-1 count at n=5000")
    assert ok


def test_criterion_7_property_suites():
    checks.check_round_trip(max_n=20)
    checks.check_hook_bitpair_identity(max_n=15)
    checks.check_core_equivalence(max_n=15)
    checks.check_dimension_base_case(max_n=12)
    checks.check_column_orthogonality(max_n=12)
    checks.check_naive_mn_agreement(max_n=9)
    chi = checks.check_sampler_chi_square(ns=(5, 6, 10), samples=100_000)
    checks.check_worker_invariance(n=20, samples=300)
    detail = "; ".join(f"chi2(n={n})={s:.1f}<{c:.1f}" for n, s, c in chi)
    assert report(7, True, f"all property suites green ({detail})")


def test_criterion_8_type1_density_monotonicity_probe():
    # Reported as a check result, not asserted: the claim is conjectural.
    lo, hi = 82, 300
    table = build_p_table(hi + 1)
    counts = {n: count_type1(n) for n in range(lo, hi + 2)}
    violations = [
        n
        for n in range(lo, hi + 1)
        # z1(n) >= z1(n+1) compared exactly by cross-multiplication
        if counts[n] * table[n + 1] ** 2 < counts[n + 1] * table[n] ** 2
    ]
    sample = ratio_decimal(counts[lo], table[lo] ** 2, 6)
    report(
        8,
        not violations,
        f"z1 non-increasing on {lo}..{hi}: {not violations} "
        f"(z1({lo})={sample}; violations={violations or 'none'})",
    )
