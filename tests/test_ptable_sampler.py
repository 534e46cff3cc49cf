import hashlib
import random
import re
import subprocess
import sys
from collections import Counter
from math import nextafter
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from snzeros import (
    Partition,
    ResourceLimit,
    SampleStream,
    SnZerosError,
    build_p_table,
    character,
    random_partition,
)
from snzeros.census import count_type1, full_table_scan
from snzeros.ptable import CAPS, pentagonal_offsets
from snzeros import sampler
from snzeros.sampler import (
    EPS,
    K0,
    OnDemandTable,
    _draw,
    _exact_pick,
    _float_table,
    _in_group,
    _pick,
    _scaled,
    derive_seed,
    stream_rng,
    uniform_below,
)

import checks
from oracles import bounded_part_count, brute_divisors, partitions_tuples, pick_intervals


def _sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def table_50000():
    return build_p_table(50000)


def _unread(max_n):
    """p(0..max_n) that fails on any read: the sampler may take its length alone."""
    def build(n):
        raise AssertionError(f"built p(0..{n})")

    return OnDemandTable(max_n, build)


# draws of streams 0..19 under master seed 7, recorded with the integer scan (n = 1000 and
# 20000 before the subtraction scan, n = 50000 before the float scan) on p(0..50000)
FROZEN_STREAMS = [
    (1000, "cbe04f077f6d1f93636ac26302009484cff1c4155bb46102b76b42dc58af8fc5"),
    (20000, "c046dc6c1b708db380d2763b0ac4a00b22ca415844c4a57de2d933ba116fc16b"),
    (50000, "9942370f1a8898778336a7efc7470e94dcd92a4023e6fde308e0e744422a0ce7"),
]


def _stream_digest(n, table):
    return _sha256_lines(",".join(map(str, random_partition(n, SampleStream(7, i), table).parts))
                         for i in range(20))


class TestPartitionCountTable:
    def test_p0(self):
        assert build_p_table(0) == (1,)

    def test_small_values(self):
        table = build_p_table(50)
        assert table[5] == 7
        assert table[50] == 204226

    def test_p1000(self):
        assert build_p_table(1000)[1000] == 24061467864032622473692149727991

    def test_frozen_digest_n50000(self, table_50000):
        # recorded with the per-term k*(3k+-1)/2 recurrence
        assert _sha256_lines(map(str, table_50000)) == (
            "272530b0ef33e0d9e7afc5dedaa04f2b902913fd33d1c8c7ef78e8cbf6ce356d"
        )

    def test_table_end_meets_the_divisor_sum_identity(self):
        # m p(m) = sum_{s=1..m} sigma(s) p(m - s) does not use the pentagonal recurrence; check
        # it at the end of p(0..20000) and within 1 of the last three offsets of each sign
        n = 20000
        p = build_p_table(n)
        sigma = [sum(brute_divisors(s)) for s in range(1, n + 1)]
        odd, even = pentagonal_offsets(n)
        ms = {n} | {g + e for g in odd[-3:] + even[-3:] for e in (-1, 0, 1) if g + e <= n}
        assert len(ms) == 19
        for m in sorted(ms):
            assert m * p[m] == sum(map(mul, sigma[:m], reversed(p[:m]))), m

    def test_every_table_end_is_a_prefix(self):
        # the last block of the build may stop at, just before or just after a pentagonal number
        full = build_p_table(300)
        for n in range(301):
            assert build_p_table(n) == full[:n + 1], n

    def test_pentagonal_offsets(self):
        # k = 1, 2, 3, 4: k(3k-1)/2 = 1, 5, 12, 22 and k(3k+1)/2 = 2, 7, 15, 26
        assert pentagonal_offsets(22) == ([1, 2, 12, 15], [5, 7, 22])
        assert pentagonal_offsets(0) == ([], [])
        assert pentagonal_offsets(1) == ([1], [])

    def test_matches_bounded_part_oracle(self):
        table = build_p_table(200)
        for m in range(201):
            assert table[m] == bounded_part_count(m, m if m else 1)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("SNZ_PTABLE_CAP", "100")
        assert len(build_p_table(100)) == 101
        with pytest.raises(ResourceLimit, match="n=101 exceeds partition-table cap 100"):
            build_p_table(101)

    def test_negative_n(self):
        with pytest.raises(SnZerosError):
            build_p_table(-1)

    @pytest.mark.parametrize("var, call", [
        ("SNZ_PTABLE_CAP", lambda: build_p_table(5)),
        ("SNZ_SCAN_CAP", lambda: full_table_scan(5)),
        ("SNZ_BAG_CAP", lambda: character(Partition((2,)), Partition((2,)))),
    ])
    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    def test_bad_cap_variable(self, monkeypatch, var, call, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(SnZerosError, match=var):
            call()

    @pytest.mark.parametrize("var, default", CAPS.values())
    def test_readme_names_each_cap_default(self, var, default):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        # the variable, then its parenthesised note, which gives the default
        assert re.search(rf"`{var}`\s*\([^)]*\bdefault {default}\b", readme), var


class TestStreams:
    def test_streams_are_deterministic(self):
        a = stream_rng(SampleStream(123, 7)).getrandbits(256)
        b = stream_rng(SampleStream(123, 7)).getrandbits(256)
        assert a == b

    def test_streams_differ_by_index_and_seed(self):
        base = stream_rng(SampleStream(123, 7)).getrandbits(64)
        assert stream_rng(SampleStream(123, 8)).getrandbits(64) != base
        assert stream_rng(SampleStream(124, 7)).getrandbits(64) != base

    def test_derive_seed_is_stable(self):
        assert derive_seed(42, 10) == derive_seed(42, 10)
        assert derive_seed(42, 10) != derive_seed(42, 11)
        # the leading 8 bytes of SHA-256(b"sweep" || seed || n), whichever module computes it
        assert derive_seed(42, 10) == 9702537759894667063
        assert derive_seed(0, 0) == 8234951299154486585
        assert derive_seed(2**64 - 1, 2**64 - 1) == 2786944065805605461

    def test_hashlib_fallback_gives_the_same_seeds(self):
        # without the interpreter's built-in SHA-256 modules the sampler takes hashlib's
        code = """if True:
            import sys
            sys.path.insert(0, sys.argv[1])
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            from snzeros.sampler import SampleStream, derive_seed, sha256, stream_rng
            assert sha256 is sys.modules["hashlib"].sha256, sha256
            assert derive_seed(42, 10) == 9702537759894667063
            assert derive_seed(0, 0) == 8234951299154486585
            assert derive_seed(2**64 - 1, 2**64 - 1) == 2786944065805605461
            assert stream_rng(SampleStream(123, 7)).getrandbits(64) == 9982197194321701127
        """
        src = Path(sampler.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("seed, index, field", [
        (-1, 0, "master seed"),
        (2**64, 0, "master seed"),
        (0, -1, "stream index"),
        (0, 2**64, "stream index"),
    ])
    def test_stream_rejects_values_outside_u64(self, seed, index, field):
        # a stream uses its seed and index exactly as given, or rejects them
        with pytest.raises(SnZerosError, match=field):
            SampleStream(seed, index)

    def test_stream_accepts_u64_extremes(self):
        top = 2**64 - 1
        assert stream_rng(SampleStream(top, top)).getrandbits(64) != stream_rng(
            SampleStream(0, 0)
        ).getrandbits(64)

    @given(st.integers(min_value=1, max_value=10**12), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_uniform_below_in_range(self, bound, seed):
        rng = stream_rng(SampleStream(seed, 0))
        assert 0 <= uniform_below(rng, bound) < bound


class TestRandomPartition:
    def test_n1_is_forced(self):
        table = build_p_table(1)
        for i in range(10):
            assert random_partition(1, SampleStream(0, i), table) == Partition((1,))

    def test_determinism_contract(self):
        table = build_p_table(30)
        for i in range(20):
            a = random_partition(30, SampleStream(5, i), table)
            b = random_partition(30, SampleStream(5, i), table)
            assert a == b

    @pytest.mark.parametrize("n, digest", FROZEN_STREAMS)
    def test_frozen_stream_digest(self, table_50000, n, digest):
        # any change to a draw changes the digest
        assert _stream_digest(n, table_50000) == digest

    @pytest.mark.parametrize("n, digest", FROZEN_STREAMS)
    def test_frozen_streams_never_read_the_exact_table(self, n, digest):
        # floats decide every step of these streams: a table that fails on any read draws them
        assert _stream_digest(n, _unread(50000)) == digest

    def test_steps_floats_cannot_decide_build_the_exact_table_once(self, table_50000,
                                                                    monkeypatch):
        # a wide EPS sends steps at m >= K0 to the exact table, which gives the same draws
        monkeypatch.setattr(sampler, "EPS", 2.0**-20)
        built = []
        table = OnDemandTable(50000, lambda max_n: built.append(max_n) or table_50000)
        assert len(table) == 50001 and built == []
        for n, digest in FROZEN_STREAMS:
            assert _stream_digest(n, table) == digest
        assert built == [50000]

    def test_on_demand_table_checks_the_cap_when_made(self, monkeypatch):
        monkeypatch.setenv("SNZ_PTABLE_CAP", "100")
        with pytest.raises(ResourceLimit, match="n=101 exceeds partition-table cap 100"):
            OnDemandTable(101, build=None)
        assert OnDemandTable(100)[100] == 190569292

    def test_rejects_negative_n(self):
        with pytest.raises(SnZerosError, match="n must be >= 0, got -3"):
            random_partition(-3, SampleStream(0, 0), build_p_table(5))

    def test_n0_is_empty(self):
        assert random_partition(0, SampleStream(0, 0), build_p_table(0)) == Partition(())

    def test_table_must_cover_n(self):
        with pytest.raises(ResourceLimit):
            random_partition(10, SampleStream(0, 0), build_p_table(5))

    @given(st.integers(1, 40), st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_output_is_valid_partition(self, n, index):
        table = build_p_table(40)
        lam = random_partition(n, SampleStream(1, index), table)
        assert lam.n == n
        assert all(a >= b >= 1 for a, b in zip(lam.parts, lam.parts[1:] + (1,)))

    def test_empirical_uniformity_n5(self):
        # every partition of 5 within 4 standard errors of 1/7
        n, samples = 5, 70_000
        table = build_p_table(n)
        tallies = Counter()
        for i in range(samples):
            tallies[random_partition(n, SampleStream(777, i), table).parts] += 1
        p = 1 / 7
        se = (samples * p * (1 - p)) ** 0.5
        for parts in partitions_tuples(n):
            assert abs(tallies[parts] - samples * p) < 4 * se, parts

    @pytest.mark.parametrize("n, draws", [(1000, 4000), (20000, 400)])
    def test_marginals_follow_their_exact_laws(self, table_50000, n, draws):
        # the chi-square suite stops at n = 10; these reach the certified float scan (m > 227)
        checks.check_sampler_marginals(n, draws, 1, table_50000)


class TestFloatPick:
    """_pick places each step's target with floats; it must pick what the integer scan picks."""

    @staticmethod
    def _edge_cases(m, p, groups):
        """(target, oracle pick or None) for targets C - 1, C, C + 1 at each edge C of the groups'
        (s, d) pairs inside [0, m*p(m)); the pick is None where the target is in no listed pair."""
        pairs = list(pick_intervals(m, p, groups))
        targets = sorted({t for *_, lo, hi in pairs for c in (lo, hi) for t in (c - 1, c, c + 1)
                          if 0 <= t < m * p[m]})
        picks = {}
        for s, d, lo, hi in pairs:
            picks.update({t: (s, d) for t in (lo, lo + 1, hi - 1) if lo <= t < hi})
        return [(t, picks.get(t)) for t in targets]

    @staticmethod
    def _fallbacks(monkeypatch):
        """The (m, target) of each step _pick hands to the integer scan."""
        calls, exact = [], sampler._exact_pick
        monkeypatch.setattr(sampler, "_exact_pick", lambda *a: calls.append(a[:2]) or exact(*a))
        return calls

    def test_matches_integer_scan_at_every_edge(self, table_50000, monkeypatch):
        # m = 1..300 with their first 12 groups and last 3, and the first 100 groups
        # at m = 5000 and 50000.  Every value is an exact float while m*p(m) < 2^53
        # (m <= 227); past that, targets next to an edge fall back to the integer scan
        p = table_50000
        shift, fp, sigma, _ = _float_table(p)
        assert shift == 0
        fallbacks = self._fallbacks(monkeypatch)
        checked = 0
        cases = [(m, {*range(1, min(m, 12) + 1), *range(max(m - 2, 1), m + 1)}) for m in range(1, 301)]
        for m, groups in cases + [(5000, range(1, 101)), (50000, range(1, 101))]:
            for target, oracle in self._edge_cases(m, p, groups):
                exact = _exact_pick(m, target, p, sigma)
                assert oracle in (None, exact), (m, target)
                assert _pick(m, target, p, fp, sigma, shift) == exact, (m, target)
                checked += 1
        assert 0 < len(fallbacks) < checked

    def test_matches_integer_scan_at_every_target_to_m_20(self):
        # every group's index arithmetic: each target in [0, m*p(m)), m <= 20, picks the pair
        # whose interval holds it, as the integer scan does
        p = build_p_table(20)
        shift, fp, sigma, _ = _float_table(p)
        for m in range(1, 21):
            picks = [(s, d) for s, d, lo, hi in pick_intervals(m, p, range(1, m + 1))
                     for _ in range(lo, hi)]
            assert len(picks) == m * p[m]
            for target, oracle in enumerate(picks):
                assert _pick(m, target, p, fp, sigma, shift) == oracle, (m, target)
                assert _exact_pick(m, target, p, sigma) == oracle, (m, target)

    @pytest.mark.parametrize("w", [1, 3, 0.1, 1 / 3])
    def test_in_group_matches_an_ascending_walk(self, w):
        # the walk from the largest divisor returns what the ascending walk returns, for every
        # integer r below sigma(s)*w and, in floats, at each rounded edge c*w and just below it
        def ascending(s, r):
            hi = 0
            for d in brute_divisors(s):
                lo, hi = hi, hi + d
                if r < hi * w:
                    return lo, hi, d

        for s in range(1, 121):
            total = sum(brute_divisors(s))
            edges = [c * w for c in range(total + 1)]
            rs = {*range(int(total * w) + 1), *edges, *(nextafter(e, 0) for e in edges)}
            for r in sorted(r for r in rs if r < total * w):
                assert _in_group(s, r, w, total) == ascending(s, r), (s, r)

    @pytest.mark.parametrize("m, shift", [(1000, 60), (5000, 200), (1000, 1080), (300, 1100)])
    def test_matches_integer_scan_in_units_of_2_to_the_shift(self, table_50000, monkeypatch, m,
                                                              shift):
        # tables from max_n = 73429 on scan p in units of 2^shift; a forced shift puts a
        # small table there, and shifts past 1022 make the small p(k), or all, subnormal
        p = table_50000
        sigma = _float_table(p)[2]
        fp = _scaled(p, shift)
        fallbacks = self._fallbacks(monkeypatch)
        rng = random.Random(m)
        targets = [t for t, _ in self._edge_cases(m, p, {*range(1, 101), *range(m - 2, m + 1)})]
        targets += [rng.randrange(m * p[m]) for _ in range(300)]
        for target in targets:
            assert _pick(m, target, p, fp, sigma, shift) == _exact_pick(m, target, p, sigma), target
        assert 0 < len(fallbacks) < len(targets)

    def test_float_table(self):
        # max_n alone sets the shift, which keeps max_n * p(max_n) below 2^1000 units; it is 0
        # to 73428 and 1 from 73429, as the exact bit lengths give
        table = build_p_table(30)
        sigma = tuple(float(sum(d for d in range(1, k + 1) if k % d == 0)) for k in range(31))
        assert _float_table(_unread(30)) == (0, tuple(map(float, table)), sigma, table)
        assert [_float_table(_unread(n))[0] for n in (73428, 73429, 100000)] == [0, 1, 168]

    @pytest.mark.parametrize("float_max_n", [sampler.FLOAT_MAX_N, 1199])
    def test_float_memo_does_not_hold_the_table(self, monkeypatch, float_max_n):
        # past FLOAT_MAX_N the float table scales the values it reads from p, and keeps no p
        monkeypatch.setattr(sampler, "FLOAT_MAX_N", float_max_n)
        monkeypatch.setattr(sampler, "_float_memo", (None, 0, (), (), ()))
        table = build_p_table(1200)
        refs = sys.getrefcount(table)
        fp = _float_table(table)[1]
        assert sampler._float_memo[0] == 1200
        assert (fp[K0:] == _scaled(table[K0:], 0)) == (float_max_n < 1200)
        assert sys.getrefcount(table) == refs  # the memo does not hold the table

    def test_float_table_is_within_eps_of_p(self, table_50000):
        # exact correctly rounded values below K0, the analytic term from K0 on
        shift, fp, _, small = _float_table(table_50000)
        assert small == table_50000[:K0]
        assert fp[:K0] == tuple(map(float, small))
        assert max(abs(f / x - 1) for f, x in zip(fp, table_50000)) <= EPS / 4

    def test_tables_past_float_max_n_scale_the_exact_values(self, table_50000, monkeypatch):
        # past the reach of the EPS derivation the float table is p scaled, and draws hold
        monkeypatch.setattr(sampler, "FLOAT_MAX_N", 49999)
        monkeypatch.setattr(sampler, "_float_memo", (None, 0, (), (), ()))
        assert _float_table(table_50000)[1] == _scaled(table_50000, 0)
        n, digest = FROZEN_STREAMS[1]
        assert _stream_digest(n, table_50000) == digest

    @pytest.mark.parametrize("shift", [0, 200, 1338])
    def test_draw_takes_the_bits_uniform_below_takes(self, table_50000, monkeypatch, shift):
        # any fm within 2*EPS of m*p(m)/2^shift draws the same target from the same bits.  Wider
        # EPS send more bounds near a power of two, and more draws, to m*p(m): at 2^-5 an fm just
        # below a power of two stands for some m*p(m) at or above it, at 2^-3 every bound is exact.
        # Shift 1338 is a scaled table's at max_n ~ 400000: fp[m] is subnormal for m < ~8000, a
        # few bits wide at m ~ 5750..6500 (fm off by 20% at 5750), so such fm must read m*p(m)
        p = table_50000
        for eps in (EPS, 2.0**-8, 2.0**-5, 2.0**-3):
            monkeypatch.setattr(sampler, "EPS", eps)
            for m in (*range(K0, 50001, 499), *range(5750, 6500, 50)):
                fm = m * (p[m] / (1 << shift))  # m * fp[m], as random_partition forms it
                for fm, seed in ((fm, m), (fm * (1 - 1.9 * eps), m + 1),
                                 (fm * (1 + 1.9 * eps), m + 2)):
                    a, b = random.Random(seed), random.Random(seed)
                    assert [_draw(a, m, fm, shift, p) for _ in range(3)] == \
                        [uniform_below(b, m * p[m]) for _ in range(3)], (m, seed)
