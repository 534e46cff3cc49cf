"""Seeded, reproducible Monte Carlo estimation of zero densities.

Each sample pair draws its row shape from randomness stream 2i and its
column shape from stream 2i+1, so the i-th sample is a pure function of
(master_seed, i) and splitting the index range across workers cannot change
the draws.  Counts merge by plain addition, which makes results independent
of the worker count by construction.

Modes: "full-eval" evaluates every character exactly and estimates all three
densities; "types-only" runs just the cheap core tests (no zero count is
fabricated).
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, TextIO

from .census import ratio_decimal
from .errors import InvalidMode, ResourceLimit, SnZerosError
from .mn import classify
from .ptable import PartitionCountTable, build_p_table, size_cap
from .sampler import RNG_NAME, SampleStream, check_u64, derive_seed, random_partition

MODES = ("full-eval", "types-only")

CSV_HEADER = (
    "n,samples,mode,count_zero,count_type1,count_type2,"
    "z_hat,z1_hat,z2_hat,master_seed,rng_name,elapsed_seconds"
)


def _check_inputs(n_values: Iterable[int], samples: int, master_seed: int, workers: int) -> None:
    if samples < 1:
        raise SnZerosError(f"need at least 1 sample per n, got {samples}")
    if workers < 1:
        raise SnZerosError(f"need at least 1 worker, got {workers}")
    for n in n_values:  # n is hashed into the per-n seed
        check_u64("n", n)
    check_u64("master seed", master_seed)


@dataclass(frozen=True)
class EstimateRequest:
    """One sweep: the same sample budget and mode over a list of n values."""

    n_values: tuple[int, ...]
    samples_per_n: int
    master_seed: int
    mode: str
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidMode(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_inputs(self.n_values, self.samples_per_n, self.master_seed, self.workers)


@dataclass
class DensityEstimate:
    """Per-n tallies; count_zero is None in types-only mode, never faked."""

    n: int
    samples: int
    mode: str
    count_zero: int | None
    count_type1: int
    count_type2: int
    master_seed: int
    rng_name: str = RNG_NAME
    elapsed_seconds: float = 0.0
    error: str | None = None

    def z_hat(self) -> str:
        return "" if self.count_zero is None else ratio_decimal(self.count_zero, self.samples)

    def z1_hat(self) -> str:
        return ratio_decimal(self.count_type1, self.samples)

    def z2_hat(self) -> str:
        return ratio_decimal(self.count_type2, self.samples)

    def csv_row(self) -> str:
        if self.error is not None:
            msg = f"error:{self.error}"
            if any(c in msg for c in ',"\r\n'):  # quote as csv.writer would
                msg = '"' + msg.replace('"', '""') + '"'
            return f"{self.n},{self.samples},{self.mode},,,,,,,{self.master_seed},{msg},"
        cz = "" if self.count_zero is None else str(self.count_zero)
        return (
            f"{self.n},{self.samples},{self.mode},{cz},{self.count_type1},"
            f"{self.count_type2},{self.z_hat()},{self.z1_hat()},{self.z2_hat()},"
            f"{self.master_seed},{self.rng_name},{self.elapsed_seconds:.3f}"
        )


def _tally_block(
    table: PartitionCountTable,
    n: int,
    master_seed: int,
    start: int,
    count: int,
    full_eval: bool,
) -> tuple[int, int, int]:
    zero = type1 = type2 = 0
    for i in range(start, start + count):
        lam = random_partition(n, SampleStream(master_seed, 2 * i), table)
        mu = random_partition(n, SampleStream(master_seed, 2 * i + 1), table)
        zc = classify(lam, mu, evaluate=full_eval)
        if full_eval:
            zero += zc.is_zero
        type1 += zc.is_type1
        type2 += zc.is_type2
    return zero, type1, type2


_POOL_TABLE: PartitionCountTable | None = None


def _pool_init(table: PartitionCountTable) -> None:
    global _POOL_TABLE
    _POOL_TABLE = table


def _pool_tally(args: tuple[int, int, int, int, bool]) -> tuple[int, int, int]:
    assert _POOL_TABLE is not None
    return _tally_block(_POOL_TABLE, *args)


def estimate(
    n: int,
    samples: int,
    master_seed: int,
    mode: str,
    workers: int = 1,
    table: PartitionCountTable | None = None,
) -> DensityEstimate:
    """Estimate densities at one n from `samples` independent uniform pairs."""
    if mode not in MODES:
        raise InvalidMode(f"mode must be one of {MODES}, got {mode!r}")
    _check_inputs((n,), samples, master_seed, workers)
    if table is None:
        table = build_p_table(n)
    elif table.max_n < n:
        raise ResourceLimit(f"table covers max_n={table.max_n} < n={n}")
    full_eval = mode == "full-eval"
    t0 = time.monotonic()
    if workers == 1:
        zero, type1, type2 = _tally_block(table, n, master_seed, 0, samples, full_eval)
    else:
        block = -(-samples // workers)
        jobs = [
            (n, master_seed, start, min(block, samples - start), full_eval)
            for start in range(0, samples, block)
        ]
        # fork hands the table to the workers without pickling or rebuilding it
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_pool_init, initargs=(table,)) as pool:
            parts = pool.map(_pool_tally, jobs)
        zero, type1, type2 = map(sum, zip(*parts))
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
    )


def sweep(request: EstimateRequest) -> Iterator[DensityEstimate]:
    """Yield one estimate per n, streamed so long sweeps emit partial output.

    Each n runs under its own derived seed; a failing n yields an error-marker
    estimate instead of aborting the rest of the sweep.
    """
    # cover as much as the cap allows; capped-out n values become error rows
    table = build_p_table(min(max(request.n_values, default=0), size_cap("partition-table")))
    for n in request.n_values:
        seed_n = derive_seed(request.master_seed, n)
        try:
            yield estimate(
                n,
                request.samples_per_n,
                seed_n,
                mode=request.mode,
                workers=request.workers,
                table=table,
            )
        except ResourceLimit as exc:
            yield DensityEstimate(
                n=n,
                samples=request.samples_per_n,
                mode=request.mode,
                count_zero=None,
                count_type1=0,
                count_type2=0,
                master_seed=seed_n,
                error=str(exc),
            )


def write_csv(rows: Iterable[DensityEstimate], out: TextIO) -> None:
    """Emit the sweep CSV (header plus one row per n), flushing per row."""
    out.write(CSV_HEADER + "\n")
    for row in rows:
        if row.error is not None:
            print(f"estimate failed at n={row.n}: {row.error}", file=sys.stderr)
        out.write(row.csv_row() + "\n")
        out.flush()


def request_metadata(request: EstimateRequest, version: str) -> str:
    """JSON sidecar describing a sweep run."""
    return json.dumps(
        {
            "tool": "snzeros",
            "version": version,
            "rng_name": RNG_NAME,
            "request": asdict(request),
        },
        indent=2,
    )
