#!/usr/bin/env python3
"""Seeded benchmark of the snzeros library: four workloads, one closed-loop caller.

    python3 bench/run.py --workload full-eval --seed 0 --seconds 32 --trace 0

Paths are taken from this file, so it runs from any directory.  The library
is imported from ../src relative to this file, never from an installed copy.
One process makes every call, one at a time, and waits for each to return;
the only other processes are the library's own pool workers (in the
2-worker pass of a traced types-only run) and short-lived `import` timing
children.

A run repeats passes of its workload until --seconds have elapsed, checks
every output, writes a run record to bench/out/, and prints one JSON object
as its last stdout line.  Untraced passes run under the host-speed probe of
bench/hostspeed.py, and their times are reported in its reference seconds.
With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of bench/layers.py.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the library cannot be loaded or the
arguments are invalid.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

from hostspeed import Probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
MAX_SEED = 1 << 64
IMPORT_SAMPLES = 21
PROBES_PER_IMPORT = 9


@dataclass(frozen=True)
class SweepWorkload:
    """Passes of `sweep(EstimateRequest(n_values, samples_per_n, seed, mode, 1))`.

    fixed_seed is the sweep master seed of every pass when the inputs do not
    depend on --seed; None derives pass i's master seed from (--seed, i).
    reference names the entry of reference.json the counts are compared to.
    pool_workers > 0 adds, in traced runs, a pass of the same inputs on the
    library's pool with that many workers.
    """

    name: str
    n_values: tuple[int, ...]
    samples_per_n: int
    mode: str
    fixed_seed: int | None
    reference: str | None
    pool_workers: int = 0


@dataclass(frozen=True)
class CensusWorkload:
    """Passes of `full_table_scan(scan_n)` then `count_type1(count_n)`; inputs are fixed."""

    name: str
    scan_n: int
    count_n: int


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("full-eval", (50, 75, 100, 120), 100, "full-eval", 0, "full-eval"),
        SweepWorkload("types-only", (1000, 20000, 50000), 40, "types-only", None, "types-only",
                      pool_workers=2),
        CensusWorkload("census", 17, 5000),
    )
}


class SetupError(Exception):
    """The library cannot be loaded from this checkout."""


def load_library():
    """Import snzeros from this checkout's src/ and return the package."""
    if not (SRC / "snzeros" / "__init__.py").is_file():
        raise SetupError(f"no snzeros package under {SRC}")
    sys.path.insert(0, str(SRC))
    import snzeros

    if Path(snzeros.__file__).resolve().parent != (SRC / "snzeros").resolve():
        raise SetupError(f"imported snzeros from {snzeros.__file__}, not from {SRC}")
    return snzeros


def pass_seed(seed: int, index: int) -> int:
    """64-bit sweep master seed of pass `index` under benchmark seed `seed`."""
    digest = hashlib.sha256(b"snzeros-bench" + seed.to_bytes(8, "big") + index.to_bytes(8, "big")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    """One timed call of the workload; `output` holds what the checks compare.

    wall_s, setup_s and work_s are wall-clock seconds without the time spent
    in probes; the ref_ fields are the same stretches in reference seconds
    (hostspeed.Probe.seconds), equal to the raw ones in unprobed passes.
    """

    index: int
    kind: str
    workers: int
    traced: bool
    master_seed: int | None
    wall_s: float
    setup_s: float
    work_s: float
    pairs: int
    output: list | dict = field(default_factory=list)
    ref_wall_s: float = 0.0
    ref_setup_s: float = 0.0
    ref_work_s: float = 0.0
    probes: int = 0
    probe_median_s: float = 0.0


def raw_s(probe: Probe | None, a: float, b: float) -> float:
    """Wall-clock seconds in [a, b] without the time spent in probes."""
    return b - a - (probe.probe_time(a, b) if probe is not None else 0.0)


def ref_s(probe: Probe | None, a: float, b: float) -> float:
    """Reference seconds of the work done in [a, b]; raw seconds when unprobed."""
    return probe.seconds(a, b) if probe is not None else b - a


def probe_summary(probe: Probe | None) -> tuple[int, float]:
    """Number of probes in a pass and their median duration."""
    if probe is None or not probe.starts:
        return 0, 0.0
    return len(probe.starts), statistics.median(probe.durations())


def run_sweep_pass(w: SweepWorkload, seed: int, index: int, kind: str, tracer=None) -> Pass:
    from snzeros.montecarlo import EstimateRequest, sweep

    workers = w.pool_workers if kind == "pool" else 1
    master = w.fixed_seed if w.fixed_seed is not None else pass_seed(seed, index)
    request = EstimateRequest(w.n_values, w.samples_per_n, master, w.mode, workers)
    span = tracer.span if tracer is not None else (lambda name, n=0: nullcontext())
    probe = Probe() if tracer is None else None
    rows, marks = [], []
    with probe or nullcontext(), span("montecarlo.sweep"):
        t0 = time.perf_counter()
        for r in sweep(request):
            marks.append(time.perf_counter())
            rows.append(r)
        t1 = time.perf_counter()
    output = [
        {"n": r.n, "samples": r.samples, "mode": r.mode, "count_zero": r.count_zero,
         "count_type1": r.count_type1, "count_type2": r.count_type2,
         "master_seed": r.master_seed, "rng_name": r.rng_name, "error": r.error,
         "elapsed_s": r.elapsed_seconds}
        for r in rows
    ]
    # the sweep's own p-table build is what runs outside the per-n estimates;
    # estimate() times itself on the same monotonic clock as perf_counter
    work = [(m - r.elapsed_seconds, m) for m, r in zip(marks, rows)]
    wall, ref_wall = raw_s(probe, t0, t1), ref_s(probe, t0, t1)
    work_s = sum(raw_s(probe, a, b) for a, b in work)
    ref_work = sum(ref_s(probe, a, b) for a, b in work)
    return Pass(index, kind, workers, tracer is not None, master, wall, wall - work_s, work_s,
                sum(r.samples for r in rows), output, ref_wall, ref_wall - ref_work, ref_work,
                *probe_summary(probe))


def run_census_pass(w: CensusWorkload, index: int, tracer=None) -> Pass:
    from snzeros.census import count_type1, full_table_scan

    span = tracer.span if tracer is not None else (lambda name, n=0: nullcontext())
    probe = Probe() if tracer is None else None
    with probe or nullcontext():
        t0 = time.perf_counter()
        with span("census.full_table_scan", w.scan_n):
            scan = full_table_scan(w.scan_n)
        t1 = time.perf_counter()
        with span("census.count_type1", w.count_n):
            count = count_type1(w.count_n)
        t2 = time.perf_counter()
    output = {"scan": {"n": scan.n, "total_entries": scan.total_entries, "zero": scan.zero_count,
                       "type1": scan.type1_count, "type2": scan.type2_count},
              "count_type1": {"n": w.count_n, "value": str(count)},
              "scan_s": t1 - t0, "count_type1_s": t2 - t1}
    # pairs_per_s on census is table entries classified per second of scan;
    # the whole pass is work, so setup is 0 and setup_s is import time alone
    return Pass(index, "main", 1, tracer is not None, None, raw_s(probe, t0, t2), 0.0,
                raw_s(probe, t0, t1), scan.total_entries, output, ref_s(probe, t0, t2), 0.0,
                ref_s(probe, t0, t1), *probe_summary(probe))


def run_pass(w, seed: int, index: int, kind: str = "main", tracer=None) -> Pass:
    if isinstance(w, CensusWorkload):
        return run_census_pass(w, index, tracer)
    return run_sweep_pass(w, seed, index, kind, tracer)


def ops_per_pass(w) -> int:
    """Operations a pass attempts: one per sweep row (one per n), two per census pass."""
    return 2 if isinstance(w, CensusWorkload) else len(w.n_values)


# ---------------------------------------------------------------- checks
# A check returns (key, message) problems.  The key names the operation (a
# row's n, or a census call), so several problems with one operation count
# as one failed operation.


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def counts(rows: list[dict]) -> list[list]:
    return [[r["n"], r["count_zero"], r["count_type1"], r["count_type2"]] for r in rows]


def check_sweep_rows(w: SweepWorkload, rows: list[dict], rng_name: str) -> list[tuple]:
    """Invariants every sweep row must satisfy."""
    if [r["n"] for r in rows] != list(w.n_values):
        return [(n, f"rows cover n={[r['n'] for r in rows]}") for n in w.n_values]
    bad = []
    for r in rows:
        c = counts([r])[0][1:]
        if r["error"] is not None:
            bad.append((r["n"], f"error row: {r['error']}"))
        elif r["rng_name"] != rng_name or r["mode"] != w.mode or r["samples"] != w.samples_per_n:
            bad.append((r["n"], f"row header {r['rng_name']}/{r['mode']}/{r['samples']}"))
        elif w.mode == "full-eval" and not (
                0 <= r["count_type1"] <= r["count_type2"] <= r["count_zero"] <= r["samples"]):
            bad.append((r["n"], f"want type1 <= type2 <= zero <= samples, got {c}"))
        elif w.mode == "types-only" and not (
                r["count_zero"] is None and 0 <= r["count_type1"] <= r["count_type2"] <= r["samples"]):
            bad.append((r["n"], f"want no zero count and type1 <= type2 <= samples, got {c}"))
    return bad


def compare_rows(got: list[dict], expected: list[list], what: str) -> list[tuple]:
    return [(g[0], f"counts {g} differ from {what} {e}")
            for g, e in zip(counts(got), expected) if g != e]


def expected_from_reference(w: SweepWorkload, seed: int, index: int, reference: dict) -> list | None:
    """Reference counts for this pass's inputs, when reference.json covers them."""
    if w.reference is None:
        return None
    ref = reference[w.reference]
    if w.fixed_seed is not None:
        return ref["rows"]
    if seed == reference["default_seed"] and index < len(ref["passes"]):
        return ref["passes"][index]
    return None


def check_census(w: CensusWorkload, p: Pass, reference: dict) -> list[tuple]:
    ref = reference["census"]
    scan, bad = p.output["scan"], []
    if not 0 <= scan["type1"] <= scan["type2"] <= scan["zero"] <= scan["total_entries"]:
        bad.append(("scan", f"scan({w.scan_n}) violates type1 <= type2 <= zero <= entries: {scan}"))
    want_scan = ref["scan"].get(str(w.scan_n))
    if want_scan is not None and scan != want_scan:
        bad.append(("scan", f"scan({w.scan_n}) {scan} differs from reference {want_scan}"))
    want_count = ref["count_type1"].get(str(w.count_n))
    if want_count is not None and p.output["count_type1"]["value"] != want_count:
        bad.append(("count_type1", f"count_type1({w.count_n}) differs from the frozen value"))
    return bad


class Checker:
    """Counts attempted and failed operations and keeps every problem message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ops: int, problems: list[tuple], where: str) -> None:
        self.attempted += ops
        self.failed += min(ops, len({key for key, _ in problems}))
        self.failures += [f"{where}: {msg}" for _, msg in problems]


def check_passes(w, seed: int, passes: list[Pass], checker: Checker, rng_name: str) -> None:
    reference = load_reference()
    if isinstance(w, CensusWorkload):
        from snzeros.census import count_type1

        for p in passes:
            checker.record(ops_per_pass(w), check_census(w, p, reference), f"pass {p.index}")
        if passes:  # the scan's type-1 count must equal the generating-function count
            scan_type1 = passes[0].output["scan"]["type1"]
            got = count_type1(w.scan_n)
            checker.record(1, [] if got == scan_type1 else [
                ("cross", f"count_type1({w.scan_n})={got} but scan({w.scan_n}) counted {scan_type1}")],
                "cross-check")
        return
    one_worker = {p.index: counts(p.output) for p in passes if p.workers == 1}
    for p in passes:
        problems = check_sweep_rows(w, p.output, rng_name)
        expected = expected_from_reference(w, seed, p.index, reference)
        if not problems and expected is not None:
            problems = compare_rows(p.output, expected, "reference")
        if not problems and p.workers > 1:  # bit-identical to one worker on the same inputs
            problems = compare_rows(p.output, one_worker[p.index], "one worker")
        checker.record(ops_per_pass(w), problems, f"pass {p.index} ({p.kind}, workers={p.workers})")


# ---------------------------------------------------------------- metrics


def import_times(samples: int = IMPORT_SAMPLES) -> list[tuple[float, float]]:
    """(seconds, reference seconds) to import the library in a fresh interpreter.

    Each child times the import, then times hostspeed.kernel() PROBES_PER_IMPORT
    times; the import is converted to reference seconds by their median.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import snzeros, snzeros.census, snzeros.montecarlo; t = time.perf_counter() - t0; "
            "sys.path.insert(0, sys.argv[2]); import hostspeed; "
            "print(t, t * hostspeed.REFERENCE_S / hostspeed.kernel_median(int(sys.argv[3])))")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH_DIR),
                              str(PROBES_PER_IMPORT)],
                             capture_output=True, text=True, check=True, timeout=60)
        raw, ref = out.stdout.split()
        times.append((float(raw), float(ref)))
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process, which makes every call of an untraced run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("pairs_per_s", "1/s"), ("peak_rss_mb", "MB"))


def end_to_end(passes: list[Pass], import_s: float, rss_mb: float) -> dict:
    """End-to-end metrics in reference seconds: medians over the untraced passes,
    plus the median import time."""
    return {
        "wall_s": import_s + statistics.median(p.ref_wall_s for p in passes),
        "setup_s": import_s + statistics.median(p.ref_setup_s for p in passes),
        "pairs_per_s": statistics.median(p.pairs / p.ref_work_s for p in passes),
        "peak_rss_mb": rss_mb,
    }


def raw_end_to_end(passes: list[Pass], import_s: float) -> dict:
    """The same times in wall-clock seconds, for the run record."""
    return {
        "wall_s": import_s + statistics.median(p.wall_s for p in passes),
        "setup_s": import_s + statistics.median(p.setup_s for p in passes),
        "pairs_per_s": statistics.median(p.pairs / p.work_s for p in passes),
    }


# ---------------------------------------------------------------- run


def git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the library's source files, so a record names its code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "snzeros").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(lib) -> dict:
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "snzeros_version": lib.__version__,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "rng_name": lib.RNG_NAME,
    }


def run(w, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return its run record, metrics included."""
    import snzeros

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    passes: list[Pass] = []
    errors: list[str] = []
    start = time.perf_counter()
    index = 0
    last_round = 0.0
    # a round starts only if it should end less than half a round past
    # --seconds, so long passes do not stretch a run by a whole pass
    while index == 0 or time.perf_counter() - start + last_round / 2 < seconds:
        round_start = time.perf_counter()
        # traced runs follow each untraced pass with traced ones on the same inputs
        plan = [("main", False)]
        if tracer is not None:
            plan.append(("main", True))
            if isinstance(w, SweepWorkload) and w.pool_workers:
                plan.append(("pool", True))
        try:
            for kind, traced in plan:
                with tracer.traced_pass(kind) if traced else nullcontext():
                    passes.append(run_pass(w, seed, index, kind, tracer if traced else None))
        except Exception:
            errors.append(traceback.format_exc())
            break
        last_round = time.perf_counter() - round_start
        index += 1
    measured_s = time.perf_counter() - start
    rss = peak_rss_mb()

    checker = Checker()
    for e in errors:
        checker.record(ops_per_pass(w), [(k, f"exception: {e.strip().splitlines()[-1]}")
                                         for k in range(ops_per_pass(w))], f"pass {index}")
    try:
        check_passes(w, seed, passes, checker, snzeros.RNG_NAME)
    except Exception:
        errors.append(traceback.format_exc())
        checker.record(1, [("checks", "exception while checking")], "checks")

    record = {
        "workload": {"kind": type(w).__name__, **asdict(w)},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(snzeros),
        "measured_s": measured_s,
        "passes": [asdict(p) for p in passes],
        "errors": errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
    }
    untraced = [p for p in passes if not p.traced]
    out_dir.mkdir(parents=True, exist_ok=True)
    if not trace:
        imports = import_times()
        raw_import = statistics.median(raw for raw, _ in imports)
        ref_import = statistics.median(ref for _, ref in imports)
        record.update(import_s=imports, units=dict(END_TO_END),
                      metrics=end_to_end(untraced, ref_import, rss) if untraced else {},
                      raw_metrics=raw_end_to_end(untraced, raw_import) if untraced else {})
    else:
        from layers import UNITS, layer_metrics

        def walls(traced):
            return [p.wall_s for p in passes if p.traced == traced and p.kind == "main"]

        rounds = list(zip(walls(False), walls(True)))
        metrics, detail, predictions = layer_metrics(tracer, w.name, rounds)
        record.update(metrics=metrics, units=UNITS, layers=detail, predictions=predictions)
        trace_path = out_dir / f"{w.name}-seed{seed}.trace.gz"
        tracer.write(trace_path, {"workload": w.name, "seed": seed})
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    return record


def result_line(record: dict) -> str:
    units = record["units"]
    return json.dumps({
        "correct": record["failed"] == 0 and not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    })


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed, 0 <= seed < 2**64")
    ap.add_argument("--seconds", type=float, default=32.0, help="how long to repeat passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        ap.error(f"--seed must be in [0, 2**64), got {args.seed}")
    if not args.seconds >= 0:
        ap.error(f"--seconds must be >= 0, got {args.seconds}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_library()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    record = run(w, args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, value in record["metrics"].items():
        print(f"{name:36s} {value:14.6g} {record['units'][name]}")
    if args.trace:
        print(f"trace overhead (diagnostic): {record['layers']['trace_overhead_frac']:+.4f} "
              f"median over {len(record['layers']['trace_overhead_by_round'])} rounds")
    for pr in record.get("predictions", ()):
        print(f"prediction {'holds' if pr['holds'] else 'FAILS'}: {pr['claim']} "
              f"({pr['metric']} = {pr['value']:.4g}, want {pr['threshold']})")
    for f in record["failures"]:
        print(f"check failed: {f}")
    failed_frac = record["failed"] / max(1, record["attempted"])
    print(f"failed_frac {failed_frac:.6g} ({record['failed']} of {record['attempted']} operations); "
          f"record: {path.relative_to(ROOT)}")
    print(result_line(record))
    return 0 if record["failed"] == 0 and not record["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
