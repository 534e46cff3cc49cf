import hashlib
from itertools import islice
from operator import mul

import pytest

import snzeros.census
from snzeros import (
    Partition,
    ResourceLimit,
    SnZerosError,
    build_p_table,
    classify,
    encode,
    is_t_core,
)
from snzeros.census import (
    TAIL_J,
    core_counts,
    count_max_part,
    count_t_cores,
    count_type1,
    full_table_scan,
    ratio_decimal,
    times_e,
)

from oracles import (
    bounded_part_count,
    dense_core_count,
    divisor_counts,
    log_derivative_core_count,
    naive_character,
    partitions_tuples,
    rolling_max_part_counts,
    t_weight_core_count,
)

# n: (p(n)^2, zero, type1, type2) past the default scan cap, recorded with the scan that built
# every row; test_montecarlo checks its n = 30 full-eval estimate against them
SCAN_PINS = {
    26: (5934096, 2323476, 1149780, 1227162),
    30: (31404816, 11963861, 6010561, 6430956),
}


class TestRatioDecimal:
    def test_basic(self):
        assert ratio_decimal(1, 3, 6) == "0.333333"
        assert ratio_decimal(3, 4, 3) == "0.750"
        assert ratio_decimal(7, 7, 3) == "1.000"

    def test_round_half_even(self):
        assert ratio_decimal(1, 8, 2) == "0.12"  # 0.125 rounds to even
        assert ratio_decimal(3, 8, 2) == "0.38"  # 0.375 rounds to even
        assert ratio_decimal(1, 2, 0) == "0"

    def test_greater_than_one(self):
        assert ratio_decimal(5, 2, 3) == "2.500"


class TestFullTableScan:
    def test_n1(self):
        res = full_table_scan(1)
        assert (res.total_entries, res.zero_count) == (1, 0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_ratio_without_zeros(self, n):
        # the tables with n <= 2 have no zeros, so the ratio has no value
        res = full_table_scan(n)
        assert res.zero_count == 0
        assert res.type1_over_zero() == "undefined"

    def test_n3(self):
        res = full_table_scan(3)
        assert (res.zero_count, res.type1_count, res.total_entries) == (1, 1, 9)
        assert res.type1_over_zero() == "1.000"

    def test_n4(self):
        res = full_table_scan(4)
        assert (res.zero_count, res.type1_count, res.type2_count) == (4, 3, 3)
        assert res.type1_over_zero() == "0.750"

    def test_chain(self):
        for n in range(1, 9):
            res = full_table_scan(n)
            assert res.type1_count <= res.type2_count <= res.zero_count <= res.total_entries

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            full_table_scan(21)

    def test_negative_n(self):
        with pytest.raises(SnZerosError):
            full_table_scan(-1)

    def test_n0_is_one_nonzero_entry(self):
        res = full_table_scan(0)
        assert (res.total_entries, res.zero_count, res.type1_count, res.type2_count) == (1, 0, 0, 0)

    def test_matches_naive_oracle_tally(self):
        for n in range(1, 9):
            zero = type1 = type2 = 0
            for mu in partitions_tuples(n):
                for lam in partitions_tuples(n):
                    code = encode(Partition(lam))
                    zero += naive_character(lam, mu) == 0
                    type1 += is_t_core(code, mu[0])
                    type2 += any(is_t_core(code, t) for t in set(mu))
            res = full_table_scan(n)
            assert (res.zero_count, res.type1_count, res.type2_count) == (zero, type1, type2), n

    def test_matches_classify_tally(self):
        for n in range(1, 13):
            shapes = [Partition(p) for p in partitions_tuples(n)]
            tally = [0, 0, 0]
            for mu in shapes:
                for lam in shapes:
                    zc = classify(lam, mu)
                    tally[0] += zc.is_zero
                    tally[1] += zc.is_type1
                    tally[2] += zc.is_type2
            res = full_table_scan(n)
            assert [res.zero_count, res.type1_count, res.type2_count] == tally, n

    @pytest.mark.parametrize("n, counts", [
        (17, (33355, 16362, 17197)),
        (20, (155176, 77133, 81573)),
    ])
    def test_frozen_counts(self, n, counts):
        res = full_table_scan(n)
        assert res.total_entries == len(list(partitions_tuples(n))) ** 2
        assert (res.zero_count, res.type1_count, res.type2_count) == counts

    @pytest.mark.parametrize("n, values", SCAN_PINS.items())
    def test_frozen_counts_past_default_cap(self, monkeypatch, n, values):
        monkeypatch.setenv("SNZ_SCAN_CAP", "30")
        res = full_table_scan(n)
        assert (res.total_entries, res.zero_count, res.type1_count, res.type2_count) == values
        assert count_type1(n) == res.type1_count


def brute_core_count(n, t):
    return sum(1 for parts in partitions_tuples(n) if is_t_core(encode(Partition(parts)), t))


def max_part_counts(n):
    return count_max_part(n, build_p_table(n))


class TestCoreCounts:
    def test_invalid_arguments(self):
        for n, t in [(5, 0), (5, -2), (-1, 2)]:
            with pytest.raises(SnZerosError):
                count_t_cores(n, t)

    def test_t_larger_than_n_counts_everything(self):
        table = build_p_table(12)
        for n in range(13):
            for t in (n + 1, 2**64):  # any t > n reads p(n) at once, with no step
                assert count_t_cores(n, t) == table[n]

    def test_two_cores_are_staircases(self):
        triangular = {k * (k + 1) // 2 for k in range(10)}
        for n in range(16):
            assert count_t_cores(n, 2) == (1 if n in triangular else 0)

    def test_c3_of_5(self):
        assert count_t_cores(5, 3) == 1

    def test_against_brute_force(self):
        for n in range(13):
            for t in range(1, n + 2):
                assert count_t_cores(n, t) == brute_core_count(n, t), (n, t)

    def test_series_and_single_coefficient_paths_agree(self):
        for n in (0, 1, 7, 23, 60):
            for t in (1, 2, 3, 5, 11, 31):
                assert count_t_cores(n, t) == dense_core_count(n, t), (n, t)

    def test_matches_log_derivative_oracle(self):
        pcounts = build_p_table(120)
        for n in range(120):
            for t in range(1, n + 3):  # t > n counts every partition of n
                assert count_t_cores(n, t) == log_derivative_core_count(n, t, pcounts), (n, t)

    @pytest.mark.parametrize("first", [1, 2, 3, 4, 17, 94, 1501])
    def test_stream_matches_log_derivative_oracle(self, first):
        # every value core_counts yields, across each drop of n // t and on past t = n: the walk
        # steps E^t below t = n // 16 + 1, where the (E - 1)^k table takes over (t = 18 at n =
        # 287, 19 at 300, 94 at 1500); first = 94 and 1501 start the table at first, no step
        for n in (n for n in (287, 300, 1500) if first <= n + 2):
            pcounts = build_p_table(n)
            got = list(islice(core_counts(n, pcounts, first), n + 3 - first))
            assert got == [log_derivative_core_count(n, t, pcounts) for t in range(first, n + 3)], n

    @pytest.mark.parametrize("t", [2, 3, 7, 50, 1000, 1501, 2999, 3000])
    def test_matches_log_derivative_oracle_at_3000(self, t):
        pcounts = build_p_table(3000)
        assert count_t_cores(3000, t) == log_derivative_core_count(3000, t, pcounts)

    @pytest.mark.parametrize("first", [313, 5001])
    def test_tail_start_takes_no_step(self, monkeypatch, first):
        # 313 = 5000 // 16 + 1 starts the tail, 5001 > n: only the (E - 1)^k table is built
        n, calls = 5000, []
        pcounts = build_p_table(n)

        def counted(*args):
            calls.append(args)
            return times_e(*args)

        monkeypatch.setattr(snzeros.census, "times_e", counted)
        got = list(islice(core_counts(n, pcounts, first), n + 3 - first))
        assert len(calls) <= TAIL_J
        assert got == list(islice(core_counts(n, pcounts, 2), first - 2, n + 1))

    def test_tail_matches_t_weight_oracle(self):
        # every t the (E - 1)^k table gives at n = 5000, against p(m) = sum_w k_t(w) c_t(m - tw)
        n = 5000
        pcounts = build_p_table(n)
        start = n // TAIL_J + 1
        got = list(islice(core_counts(n, pcounts, 2), start - 2, n + 1))
        assert got == [t_weight_core_count(n, t, pcounts) for t in range(start, n + 3)]


@pytest.fixture(scope="module")
def p50000():
    return build_p_table(50000)


@pytest.mark.parametrize("n", [20001, 50000])
class TestIdentitiesAtLargeN:
    def test_first_two_orders_of_core_counts(self, p50000, n):
        # c_t(n) = p(n) - t p(n - t) for n/2 < t <= n, and + t(t - 3)/2 p(n - 2t) for n/3 < t <= n/2:
        # [y]E^t = -t and [y^2]E^t = C(t, 2) - t
        p, lo = p50000, n // 3 + 1
        want = [p[n] - t * p[n - t] + (t * (t - 3) // 2 * p[n - 2 * t] if 2 * t <= n else 0)
                for t in range(lo, n + 1)]
        assert list(islice(core_counts(n, p, lo), n + 1 - lo)) == want

    def test_max_part_counts_count_partitions_and_parts(self, p50000, n):
        # sum_t t q(n, t) counts the parts of all partitions of n (by conjugation), as does
        # sum_k d(k) p(n - k): a part i repeated at least m times, i*m = k, leaves p(n - k)
        p, q = p50000, count_max_part(n, p50000)
        assert sum(q) == p[n]
        d = divisor_counts(n)
        assert sum(map(mul, q, range(n + 1))) == sum(d[k] * p[n - k] for k in range(1, n + 1))


class TestMaxPartCounts:
    def test_small(self):
        q = max_part_counts(4)
        assert q[4] == 1
        assert q[2] == 2  # (2,2) and (2,1,1)
        assert q[1] == 1

    def test_total_is_partition_count(self):
        table = build_p_table(30)
        for n in range(1, 31):
            assert sum(max_part_counts(n)) == table[n]

    def test_matches_bounded_part_oracle(self):
        for n in range(1, 60):
            q = max_part_counts(n)
            assert q[1:] == [bounded_part_count(n - t, t) for t in range(1, n + 1)], n

    @pytest.mark.parametrize("ns", [range(400), [1000, 5000]], ids=["n<400", "n=1000,5000"])
    def test_matches_rolling_dp_oracle(self, ns):
        for n in ns:
            assert max_part_counts(n) == rolling_max_part_counts(n), n

    def test_given_pcounts(self):
        pcounts = build_p_table(50)  # one table longer than n serves every n
        for n in range(51):
            assert count_max_part(n, pcounts) == rolling_max_part_counts(n), n

    def test_matches_enumeration(self):
        for n in range(1, 13):
            q = max_part_counts(n)
            for t in range(1, n + 1):
                want = sum(1 for parts in partitions_tuples(n) if parts[0] == t)
                assert q[t] == want, (n, t)


def test_exact_counts_at_20000_match_recorded_digests():
    # SHA-256 of the decimal strings, recorded with the block-by-block count_max_part; past the
    # oracles' range, so every residue class of every r is checked on 20000 bigints
    def digest(x):
        return hashlib.sha256(str(x).encode()).hexdigest()

    assert digest(count_max_part(20000, build_p_table(20000))) == (
        "863e6dfb1e5782915d9730434eb481f33d38742c1ab345943a4d67b3d3c50998")
    assert digest(count_type1(20000)) == (
        "604cfeddcf4f67197fe2a6398bc462d35c816227a2eb25cb9f3b5d67ab16edd2")


class TestCountType1:
    def test_n1_has_no_type1_zeros(self):
        assert count_type1(1) == 0
        assert count_type1(0) == 0

    def test_negative_n(self):
        with pytest.raises(SnZerosError):
            count_type1(-1)

    def test_skipping_t1_keeps_the_full_sum(self):
        # count_type1 sums from t = 2 because c_1(n) = 0 for n >= 1
        for n in range(1, 200):
            pcounts = build_p_table(n)
            q = count_max_part(n, pcounts)
            full = sum(q[t] * count_t_cores(n, t) for t in range(1, n + 1))
            assert count_t_cores(n, 1) == 0
            assert count_type1(n) == full, n

    def test_matches_log_derivative_oracle(self):
        for n in [*range(200), 287, 288]:  # the (E - 1)^k table starts at t = 18, then at 19
            pcounts = build_p_table(n)
            q = count_max_part(n, pcounts)
            want = sum(q[t] * log_derivative_core_count(n, t, pcounts) for t in range(1, n + 1))
            assert count_type1(n) == want, n

    def test_small_values_match_scan(self, monkeypatch):
        monkeypatch.setenv("SNZ_SCAN_CAP", "22")
        for n in range(3, 23):
            assert count_type1(n) == full_table_scan(n).type1_count, n

    def test_cap(self, monkeypatch):
        # the p(0..n) build is the one bound on n
        monkeypatch.setenv("SNZ_PTABLE_CAP", "9")
        with pytest.raises(ResourceLimit, match="n=10 exceeds partition-table cap 9"):
            count_type1(10)
        assert count_type1(9) == full_table_scan(9).type1_count

    def test_n20001_under_the_default_caps(self, monkeypatch):
        # the default partition-table cap (100000) is the only bound on n; about 1 s.  The
        # SHA-256 of the decimal count was recorded while core_counts stepped E^t to every t
        monkeypatch.delenv("SNZ_PTABLE_CAP", raising=False)
        digest = hashlib.sha256(str(count_type1(20001)).encode()).hexdigest()
        assert digest == "2f354e738253a90ea36f19351a879ccced7405eea59beb28e5834c15d838beb4"
