import csv
import io
import multiprocessing
import os

import pytest

from snzeros import ResourceLimit, SnZerosError, build_p_table, montecarlo, sampler
from snzeros.census import count_type1, full_table_scan, ratio_decimal
from snzeros.montecarlo import (
    CSV_HEADER,
    DensityEstimate,
    EstimateRequest,
    estimate,
    request_metadata,
    sweep,
    write_csv,
)

import checks
from test_census import SCAN_PINS


class TestEstimate:
    def test_n1_never_zero(self):
        est = estimate(1, 50, 0, mode="full-eval")
        assert est.count_zero == 0
        assert est.csv_row().split(",")[6] == "0.000000"

    def test_types_only_has_no_zero_count(self):
        est = estimate(12, 100, 0, mode="types-only")
        assert est.count_zero is None
        row = est.csv_row()
        assert row.split(",")[6] == ""
        assert row.startswith("12,100,types-only,,")

    def test_invalid_mode(self):
        with pytest.raises(SnZerosError, match="mode must be one of"):
            estimate(5, 10, 0, mode="exactly")

    def test_invalid_request_mode_fails_at_construction(self):
        with pytest.raises(SnZerosError, match="mode must be one of"):
            EstimateRequest(n_values=(5,), samples_per_n=3, master_seed=0, mode="bogus")
        with pytest.raises(SnZerosError, match="mode must be one of"):
            EstimateRequest(n_values=(5,), samples_per_n=3, master_seed=0, mode="auto")
        assert EstimateRequest((5,), 3, 0, "types-only").mode == "types-only"

    def test_request_mode_has_no_default(self):
        with pytest.raises(TypeError):
            EstimateRequest(n_values=(5,), samples_per_n=3, master_seed=0)

    @pytest.mark.parametrize("n, samples, seed", [
        (-1, 10, 0), (5, 0, 0), (5, 10, -1), (5, 10, 2**64), (2**64, 10, 0),
        (5, 2**63 + 1, 0),  # its last stream index, 2 * samples - 1, is 2^64 + 1
    ])
    def test_invalid_inputs(self, n, samples, seed):
        with pytest.raises(SnZerosError):
            estimate(n, samples, seed, mode="types-only")
        with pytest.raises(SnZerosError):
            EstimateRequest(n_values=(3, n), samples_per_n=samples, master_seed=seed,
                            mode="types-only")

    def test_largest_sample_count_is_accepted(self):
        # 2^63 samples end at stream 2^64 - 1, the last one a stream can take
        request = EstimateRequest(n_values=(5,), samples_per_n=2**63, master_seed=0,
                                  mode="types-only")
        assert request.samples_per_n == 2**63

    @pytest.mark.parametrize("workers", [0, -2])
    def test_invalid_worker_count(self, workers):
        with pytest.raises(SnZerosError, match="worker"):
            estimate(5, 10, 0, mode="types-only", workers=workers)
        with pytest.raises(SnZerosError, match="worker"):
            EstimateRequest(n_values=(5,), samples_per_n=10, master_seed=0, mode="types-only",
                            workers=workers)

    def test_error_row_quotes_its_message(self):
        est = DensityEstimate(n=7, samples=10, mode="types-only", count_zero=None,
                              count_type1=None, count_type2=None, master_seed=3,
                              error='cap 5, see "SNZ_PTABLE_CAP"')
        (fields,) = csv.reader([est.csv_row()])
        assert len(fields) == len(CSV_HEADER.split(",")) == 12
        assert fields[10] == 'error:cap 5, see "SNZ_PTABLE_CAP"'
        plain = DensityEstimate(n=7, samples=10, mode="types-only", count_zero=None,
                                count_type1=None, count_type2=None, master_seed=3, error="too big")
        assert plain.csv_row() == "7,10,types-only,,,,,,,3,error:too big,"

    def test_chain_in_full_eval(self):
        est = estimate(15, 2000, 31, mode="full-eval")
        assert est.count_type1 <= est.count_type2 <= est.count_zero <= est.samples

    def test_reproducible_counts(self):
        a = estimate(18, 500, 4, mode="full-eval")
        b = estimate(18, 500, 4, mode="full-eval")
        assert (a.count_zero, a.count_type1, a.count_type2) == (
            b.count_zero,
            b.count_type1,
            b.count_type2,
        )

    def test_worker_count_invariance(self):
        checks.check_worker_invariance(n=20, samples=300)
        # steps from m > 227 on go through the certified float scan, whose values are rounded there
        checks.check_worker_invariance(n=5000, samples=40, mode="types-only")

    def test_forked_workers_inherit_the_parents_float_tables(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real 2-process pool on any host
        monkeypatch.setattr(sampler, "_float_memo", (None, 0, (), ()))
        table = build_p_table(400)
        est = estimate(300, 40, 5, mode="types-only", workers=2, table=table)
        assert sampler._float_memo[0] == (len(table), table[-1])  # built once, before the fork
        assert montecarlo._POOL_TABLE is None
        serial = estimate(300, 40, 5, mode="types-only", table=table)
        assert (est.count_type1, est.count_type2) == (serial.count_type1, serial.count_type2)

    def test_failing_pool_leaves_no_table_behind(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(ResourceLimit, match="exceeds table max_n=10"):
            estimate(12, 4, 5, mode="types-only", workers=2, table=build_p_table(10))
        assert montecarlo._POOL_TABLE is None

    @pytest.mark.parametrize("samples, workers, processes", [(3, 64, 3), (40, 2, 2), (5, 4, 3)])
    def test_pool_starts_one_process_per_block(self, monkeypatch, samples, workers, processes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # blocks, not CPUs, bound these pools
        self.check_pool_size(monkeypatch, samples, workers, processes, blocks=processes)

    @pytest.mark.parametrize("samples, workers, cpus, processes, blocks", [
        (100, 10**6, 4, 4, 100),  # one-sample blocks, still split workers ways
        (5, 4, None, 1, 3),  # an unknown CPU count gives one process: no pool, blocks run here
    ])
    def test_pool_starts_no_more_processes_than_cpus(self, monkeypatch, samples, workers, cpus,
                                                     processes, blocks):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        self.check_pool_size(monkeypatch, samples, workers, processes, blocks)

    @staticmethod
    def check_pool_size(monkeypatch, samples, workers, processes, blocks):
        started, ran = [], []

        class InProcessPool:  # records the process count and runs the blocks here, forking none
            def __init__(self, count):
                started.append(count)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, jobs):
                return list(map(func, jobs))

        block = montecarlo._tally_block

        def tally_block(*args):  # counts the blocks run, in a pool or in this process
            ran.append(args[0])
            return block(*args)

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", InProcessPool)
        monkeypatch.setattr(montecarlo, "_tally_block", tally_block)
        est = estimate(12, samples, 9, mode="types-only", workers=workers)
        assert (started, len(ran)) == ([processes] if processes > 1 else [], blocks)
        serial = estimate(12, samples, 9, mode="types-only")
        assert (est.count_type1, est.count_type2) == (serial.count_type1, serial.count_type2)

    def test_converges_to_exact_density(self):
        # n = 6 against the scan; n = 30, past the scan's default cap, against its frozen pins
        scan = full_table_scan(6)
        for n, samples, workers, (total, *exact_counts) in [
            (6, 20_000, 1, (scan.total_entries, scan.zero_count, scan.type1_count,
                            scan.type2_count)),
            (30, 10_000, 2, SCAN_PINS[30]),
        ]:
            est = estimate(n, samples, 2718, mode="full-eval", workers=workers)
            for count, exact_count in zip((est.count_zero, est.count_type1, est.count_type2),
                                          exact_counts):
                p = exact_count / total
                se = (p * (1 - p) / samples) ** 0.5
                assert abs(count / samples - p) <= 4 * se, (n, count, exact_count)


class TestSweep:
    def test_empty_is_empty(self):
        req = EstimateRequest(n_values=(), samples_per_n=10, master_seed=0, mode="types-only")
        assert list(sweep(req)) == []

    def test_rows_and_csv(self):
        req = EstimateRequest(
            n_values=(5, 10), samples_per_n=200, master_seed=17, mode="full-eval"
        )
        rows = list(sweep(req))
        assert [r.n for r in rows] == [5, 10]
        buf = io.StringIO()
        write_csv(iter(rows), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "5"

    def test_error_marker_row(self, monkeypatch, capsys):
        monkeypatch.setenv("SNZ_PTABLE_CAP", "20")
        req = EstimateRequest(n_values=(10, 30), samples_per_n=20, master_seed=1, mode="types-only")
        rows = list(sweep(req))
        assert rows[0].error is None
        assert rows[1].error == "n=30 exceeds partition-table cap 20"
        assert (rows[1].count_zero, rows[1].count_type1, rows[1].count_type2) == (None, None, None)
        (fields,) = csv.reader([rows[1].csv_row()])
        assert fields[10] == "error:n=30 exceeds partition-table cap 20"
        want = f"30,20,types-only,,,,,,,{rows[1].master_seed},error:{rows[1].error},"
        assert rows[1].csv_row() == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pairs_over_the_bag_cap_are_cut(self, monkeypatch, workers):
        # under a 1-word bag cap n=5 evaluates all 20 pairs, and 11 pairs of n=18 pass it
        small, full = sweep(EstimateRequest((5, 18), 20, 0, "full-eval"))
        monkeypatch.setenv("SNZ_BAG_CAP", "1")
        rows = list(sweep(EstimateRequest((5, 18), 20, 0, "full-eval", workers)))
        assert rows[0]._replace(elapsed_seconds=0.0) == small._replace(elapsed_seconds=0.0)
        # n=18 keeps its other pairs' tallies: the type counts are whole, and
        # count_zero, which leaves the cut pairs out, is a lower bound
        cut = rows[1]
        assert cut.error == "11 of 20 pairs passed bag cap 1"
        assert (cut.count_type1, cut.count_type2) == (full.count_type1, full.count_type2)
        assert cut.count_zero == 7 and full.count_zero == 9 <= cut.count_zero + 11
        # the row keeps its time, which a capped n does not have
        assert cut._replace(elapsed_seconds=1.5).csv_row() == (
            f"18,20,full-eval,7,4,5,0.350000,0.200000,0.250000,"
            f"{cut.master_seed},error:11 of 20 pairs passed bag cap 1,1.500")

    def test_types_only_reads_no_bag_cap(self, monkeypatch):
        monkeypatch.setenv("SNZ_BAG_CAP", "abc")
        with pytest.raises(SnZerosError, match="SNZ_BAG_CAP"):
            EstimateRequest((5,), 10, 0, "full-eval")
        # types-only evaluates nothing, so the same variable is never read
        (row,) = sweep(EstimateRequest((5,), 10, 0, "types-only"))
        assert row.error is None

    def test_table_stops_at_the_largest_n_within_the_cap(self, monkeypatch):
        monkeypatch.setenv("SNZ_PTABLE_CAP", "30")
        built = []

        def build(max_n):
            built.append(max_n)
            return build_p_table(max_n)

        monkeypatch.setattr(montecarlo, "build_p_table", build)
        rows = list(sweep(EstimateRequest((10, 31), 2, 0, "types-only")))
        assert built == [10]  # n=31 is an error row, so it does not size the table
        # the counts a table up to the cap gives
        want = estimate(10, 2, sampler.derive_seed(0, 10), "types-only", table=build_p_table(30))
        assert rows[0]._replace(elapsed_seconds=0.0) == want._replace(elapsed_seconds=0.0)
        seed = sampler.derive_seed(0, 31)
        assert rows[1].csv_row() == \
            f"31,2,types-only,,,,,,,{seed},error:n=31 exceeds partition-table cap 30,"

    def test_per_n_seeds_differ(self):
        req = EstimateRequest(n_values=(8, 9), samples_per_n=10, master_seed=5, mode="full-eval")
        rows = list(sweep(req))
        assert rows[0].master_seed != rows[1].master_seed

    def test_sub_range_reproduces_the_whole_sweep_rows(self):
        # resuming an interrupted sweep needs no code: each n's seed is derive_seed(master, n)
        def rows(n_values):
            req = EstimateRequest(n_values, samples_per_n=40, master_seed=11, mode="full-eval")
            return [r._replace(elapsed_seconds=None) for r in sweep(req)]

        whole = rows((4, 9, 13, 17, 22))
        assert rows((13, 17, 22)) == whole[2:]
        assert rows((9,)) == whole[1:2]

    def test_metadata_sidecar(self):
        req = EstimateRequest(n_values=(3,), samples_per_n=7, master_seed=2, mode="types-only")
        meta = request_metadata(req)
        assert '"samples_per_n": 7' in meta
        assert '"rng_name"' in meta


def test_difference_statistic_available():
    # the type2-minus-type1 gap is derivable from any emitted row
    est = estimate(30, 2000, 12, mode="types-only")
    gap = (est.count_type2 - est.count_type1) / est.samples
    assert 0 <= gap < 0.1
    # and printable at fixed precision
    assert ratio_decimal(est.count_type2 - est.count_type1, est.samples, 6).startswith("0.0")


def test_exact_and_estimated_type1_density_agree_at_n30():
    table = build_p_table(30)
    exact = count_type1(30) / table[30] ** 2
    est = estimate(30, 20_000, 9, mode="types-only")
    se = (exact * (1 - exact) / est.samples) ** 0.5
    assert abs(est.count_type1 / est.samples - exact) <= 4 * se


def test_exact_and_estimated_type1_density_agree_at_n20000():
    # every step from m > 227 on is placed by the certified float scan, which the
    # chi-square suite (n <= 10) never reaches; z1 = 0.128767 at n = 20000
    table = build_p_table(20000)
    exact = count_type1(20000) / table[20000] ** 2
    assert round(exact, 6) == 0.128767
    est = estimate(20000, 400, 11, mode="types-only", table=table)
    se = (exact * (1 - exact) / est.samples) ** 0.5
    assert abs(est.count_type1 / est.samples - exact) <= 4 * se
