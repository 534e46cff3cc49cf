"""Seeded, reproducible Monte Carlo estimation of zero densities.

Each sample pair draws its row shape from randomness stream 2i and its
column shape from stream 2i+1, so the i-th sample is a pure function of
(master_seed, i) and splitting the index range across workers cannot change
the draws.  Counts merge by plain addition, which makes results independent
of the worker count by construction.

Modes: "full-eval" evaluates every character exactly and estimates all three
densities; "types-only" runs just the cheap core tests (no zero count is
fabricated).

EstimateRequest is the one check of sweep inputs; format_row is the one
formatter of the CSV schema that sweep, error and exact scan rows share.
"""

from __future__ import annotations

import os
import sys
import time
from collections import namedtuple
from collections.abc import Iterable, Iterator
from io import TextIOBase

from . import __version__
from .census import ratio_decimal
from .errors import ResourceLimit, SnZerosError
from .mn import classify
from .ptable import build_p_table, check_cap, size_cap
from .sampler import (RNG_NAME, OnDemandTable, SampleStream, _float_table, check_u64,
                      derive_seed, random_partition)

MODES = ("full-eval", "types-only")

CSV_HEADER = (
    "n,samples,mode,count_zero,count_type1,count_type2,"
    "z_hat,z1_hat,z2_hat,master_seed,rng_name,elapsed_seconds"
)


def format_row(n: int, samples: int, mode: str, counts: tuple, tail: tuple) -> str:
    """One CSV_HEADER row from n, samples, mode, counts (zero, type1, type2) and tail.

    A None count leaves its count and density fields empty.  tail is master_seed,
    rng_name and elapsed_seconds as written, None for empty.  Fields are quoted as
    csv.writer would.
    """
    densities = [None if c is None else ratio_decimal(c, samples) for c in counts]
    fields = []
    for x in (n, samples, mode, *counts, *densities, *tail):
        x = "" if x is None else str(x)
        if any(ch in x for ch in ',"\r\n'):
            x = '"' + x.replace('"', '""') + '"'
        fields.append(x)
    return ",".join(fields)


class EstimateRequest(namedtuple("EstimateRequest",
                                  "n_values samples_per_n master_seed mode workers")):
    """One sweep: the same sample budget and mode over a list of n values, checked here."""

    __slots__ = ()

    def __new__(cls, n_values: tuple[int, ...], samples_per_n: int, master_seed: int, mode: str,
                workers: int = 1) -> EstimateRequest:
        if mode not in MODES:
            raise SnZerosError(f"mode must be one of {MODES}, got {mode!r}")
        if samples_per_n < 1:
            raise SnZerosError(f"need at least 1 sample per n, got {samples_per_n}")
        if workers < 1:
            raise SnZerosError(f"need at least 1 worker, got {workers}")
        for n in n_values:  # n is hashed into the per-n seed
            check_u64("n", n)
        check_u64("master seed", master_seed)
        check_u64("last stream index", 2 * samples_per_n - 1)  # sample i reads 2i and 2i + 1
        if mode == "full-eval":  # a malformed SNZ_BAG_CAP fails here, before any row
            size_cap("bag")
        return tuple.__new__(cls, (n_values, samples_per_n, master_seed, mode, workers))


class DensityEstimate(namedtuple(
        "DensityEstimate", "n samples mode count_zero count_type1 count_type2 master_seed "
        "rng_name elapsed_seconds error", defaults=(RNG_NAME, 0.0, None))):
    """Per-n tallies; count_zero is None in types-only mode, every count for a capped n."""

    __slots__ = ()

    def csv_row(self) -> str:
        counts = (self.count_zero, self.count_type1, self.count_type2)
        tail = (self.master_seed, self.rng_name, f"{self.elapsed_seconds:.3f}")
        if self.error is not None:  # rng_name carries the message; a capped n has no time
            tail = (self.master_seed, f"error:{self.error}", tail[2] if counts[1] is not None else None)
        return format_row(self.n, self.samples, self.mode, counts, tail)


_POOL_TABLE = None  # the table forked workers read; set only while a pool runs


def _tally_block(job: tuple[int, int, int, int, bool], table=None) -> tuple[int, int, int, int]:
    """(zero, type1, type2, cut) counts of samples start..start+count-1; table defaults to _POOL_TABLE."""
    n, master_seed, start, count, full_eval = job
    if table is None:
        table = _POOL_TABLE
    zero = type1 = type2 = cut = 0
    for i in range(start, start + count):
        lam = random_partition(n, SampleStream(master_seed, 2 * i), table)
        mu = random_partition(n, SampleStream(master_seed, 2 * i + 1), table)
        try:
            zc = classify(lam, mu, evaluate=full_eval)
        except ResourceLimit:  # a bag passed the bag cap: not type 2, and 0 or not is unknown
            cut += 1
            continue
        if full_eval:
            zero += zc.is_zero
        type1 += zc.is_type1
        type2 += zc.is_type2
    return zero, type1, type2, cut


def estimate(
    n: int,
    samples: int,
    master_seed: int,
    mode: str,
    workers: int = 1,
    table=None,
) -> DensityEstimate:
    """Estimate densities at one n from `samples` independent uniform pairs.

    table is p(0..m), m >= n, as random_partition takes it; None is OnDemandTable(n).  Pairs over
    the bag cap are cut: count_zero (then a lower bound) leaves them out, error counts them.
    """
    global _POOL_TABLE
    EstimateRequest((n,), samples, master_seed, mode, workers)  # checks every input
    table = OnDemandTable(n, build_p_table) if table is None else table
    full_eval = mode == "full-eval"
    t0 = time.monotonic()
    block = -(-samples // workers)
    jobs = [(n, master_seed, start, min(block, samples - start), full_eval)
            for start in range(0, samples, block)]
    # one process per block, and no more processes than CPUs
    processes = min(len(jobs), os.cpu_count() or 1)
    if processes == 1:  # in this process: no fork, and no multiprocessing import
        parts = [_tally_block(job, table) for job in jobs]
    else:
        import multiprocessing  # only a pool needs it, and it is slow to import

        # fork hands the workers the sampler's float tables, built here once, and the table
        _float_table(table)
        _POOL_TABLE = table
        try:
            with multiprocessing.get_context("fork").Pool(processes) as pool:
                parts = pool.map(_tally_block, jobs)
        finally:
            _POOL_TABLE = None
    zero, type1, type2, cut = map(sum, zip(*parts))
    elapsed = time.monotonic() - t0
    return DensityEstimate(
        n=n,
        samples=samples,
        mode=mode,
        count_zero=zero if full_eval else None,
        count_type1=type1,
        count_type2=type2,
        master_seed=master_seed,
        elapsed_seconds=elapsed,
        error=f"{cut} of {samples} pairs passed bag cap {size_cap('bag')}" if cut else None,
    )


def sweep(request: EstimateRequest) -> Iterator[DensityEstimate]:
    """Yield one estimate per n, streamed so long sweeps emit partial output.

    Each n runs under its own derived seed; an n over the partition-table cap
    yields an error-marker estimate instead of aborting the rest of the sweep.
    """
    # cover every n within the cap; capped-out n values become error rows
    cap = size_cap("partition-table")
    table = OnDemandTable(max((n for n in request.n_values if n <= cap), default=0), build_p_table)
    for n in request.n_values:
        seed_n = derive_seed(request.master_seed, n)
        try:
            check_cap("partition-table", (n,))  # the table stops at this cap
            yield estimate(n, request.samples_per_n, seed_n, request.mode, request.workers, table)
        except ResourceLimit as exc:
            yield DensityEstimate(n, request.samples_per_n, request.mode, None, None, None, seed_n,
                                  error=str(exc))


def write_csv(rows: Iterable[DensityEstimate], out: TextIOBase) -> None:
    """Emit the sweep CSV (header plus one row per n), flushing per row."""
    out.write(CSV_HEADER + "\n")
    for row in rows:
        if row.error is not None:
            print(f"estimate at n={row.n}: {row.error}", file=sys.stderr)
        out.write(row.csv_row() + "\n")
        out.flush()


def request_metadata(request: EstimateRequest) -> str:
    """JSON sidecar describing a sweep run."""
    import json  # only --out writes a sidecar

    return json.dumps(
        {
            "tool": "snzeros",
            "version": __version__,
            "rng_name": RNG_NAME,
            "request": request._asdict(),
        },
        indent=2,
    )
