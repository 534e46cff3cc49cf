"""Per-layer metrics derived from the spans of a traced run.

Every metric named in `PER_LAYER` is reported on every workload; a layer the
workload never calls reads 0.  Times are medians over the traced passes that
called the layer ("per pass"); `calls` counts spans over the whole run and is
the sample count behind that layer's quantiles.  `tail_*` is the highest
percentile in `TAIL_LADDER` with at least ten samples beyond it, and
`tail_pct` records which one it was.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import Tracer

SAMPLER_NS = (50, 75, 100, 120, 1000, 20000, 50000)
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _per_layer_spec() -> list[tuple[str, str]]:
    spec = [("ptable.build_s", "s")]
    for n in SAMPLER_NS:
        spec += [
            (f"sampler.n{n}.calls", "count"),
            (f"sampler.n{n}.total_s", "s"),
            (f"sampler.n{n}.p50_us", "us"),
            (f"sampler.n{n}.tail_us", "us"),
            (f"sampler.n{n}.tail_pct", "pct"),
        ]
    spec += [
        ("mn.types.calls", "count"),
        ("mn.types.total_s", "s"),
        ("mn.types.p50_us", "us"),
        ("mn.types.tail_us", "us"),
        ("mn.types.tail_pct", "pct"),
        ("mn.character.calls", "count"),
        ("mn.character.total_s", "s"),
        ("mn.character.p50_ms", "ms"),
        ("mn.character.tail_ms", "ms"),
        ("mn.character.tail_pct", "pct"),
        ("mn.character.max_ms", "ms"),
        ("mn.character.top5_share", "frac"),
        ("census.full_table_scan_s", "s"),
        ("census.count_type1_s", "s"),
        ("census.count_max_part_s", "s"),
        ("montecarlo.self_s", "s"),
        ("montecarlo.pool_overhead_s", "s"),
        ("share.sampler_ptable", "frac"),
        ("share.character_post_setup", "frac"),
    ]
    return spec


PER_LAYER = _per_layer_spec()
UNITS = dict(PER_LAYER)

# Layer-map predictions checked on every traced run of the named workload.
PREDICTIONS = {
    "types-only": [("share.sampler_ptable", ">=", 0.90,
                    "sampler + ptable take >= 90% of pass wall time"),
                   ("montecarlo.pool_overhead_s", ">", 0.0,
                    "the 2-worker pool costs more than half the 1-worker work")],
    "full-eval": [("share.character_post_setup", ">=", 0.90,
                   "mn.character takes >= 90% of post-setup time")],
}


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    Uses the nearest-rank percentile; with fewer than 20 samples it falls back to 50.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    count = len(ordered)

    def rank(q: float) -> int:
        return max(1, math.ceil(round(q * count / 100, 9)))

    pct = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if count - rank(q) >= MIN_BEYOND:
            pct = q
    return pct, ordered[rank(pct) - 1]


def top_share(values: list[float], frac: float = 0.05) -> float:
    """Share of the total taken by the slowest `frac` of the samples."""
    if not values:
        return 0.0
    ordered = sorted(values, reverse=True)
    k = max(1, math.ceil(frac * len(ordered)))
    total = sum(ordered)
    return sum(ordered[:k]) / total if total else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class _Pass:
    """Per-pass sums (seconds) and per-call durations (seconds) by layer."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.sums: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list[tuple[int, float]]] = defaultdict(list)  # (n, seconds)
        self.estimate_children = 0.0


def _summarise_pass(tracer: Tracer, kind: str, first: int, end: int) -> _Pass:
    rows = list(tracer.rows(first, end))
    names = tracer.names
    child_ns: dict[int, int] = defaultdict(int)
    for sid, _nid, parent, t0, t1, _n in rows:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    p = _Pass(kind)
    for sid, nid, _parent, t0, t1, n in rows:
        name = names[nid]
        dur = (t1 - t0) / 1e9
        if name == "sampler":
            name = f"sampler.n{n}"
        elif name == "mn.classify":  # self time: encode plus the core tests
            name, dur = "mn.types", dur - child_ns[sid] / 1e9
        elif name == "montecarlo.estimate":
            p.sums["montecarlo.estimate"] += dur
            p.estimate_children += child_ns[sid] / 1e9
            name, dur = "montecarlo.self", dur - child_ns[sid] / 1e9
        p.sums[name] += dur
        p.calls[name].append((n, dur))
    return p


def _median_sum(passes: list[_Pass], name: str) -> float:
    return _median([p.sums[name] for p in passes if p.calls.get(name)])


def _durations(passes: list[_Pass], name: str) -> list[float]:
    return [d for p in passes for _n, d in p.calls.get(name, ())]


def _distribution(passes: list[_Pass], name: str, unit: str, scale: float) -> dict[str, float]:
    """calls, per-pass total, median and tail of one layer's span durations."""
    durs = _durations(passes, name)
    pct, value = tail(durs)
    return {f"{name}.calls": len(durs), f"{name}.total_s": _median_sum(passes, name),
            f"{name}.p50_{unit}": _median(durs) * scale, f"{name}.tail_{unit}": value * scale,
            f"{name}.tail_pct": pct}


def _by_n(passes: list[_Pass], prefix: str, scale: float) -> dict[str, dict[str, float]]:
    """Run-record detail: calls, mean, median and max per problem size."""
    groups: dict[int, list[float]] = defaultdict(list)
    for p in passes:
        for name, calls in p.calls.items():
            if name == prefix or name.startswith(prefix + ".n"):
                for n, d in calls:
                    groups[n].append(d * scale)
    return {
        str(n): {"calls": len(v), "mean": statistics.fmean(v), "p50": statistics.median(v), "max": max(v)}
        for n, v in sorted(groups.items())
    }


def layer_metrics(tracer: Tracer, workload: str,
                  rounds: list[tuple[float, float]]) -> tuple[dict, dict, list[dict]]:
    """(metrics, run-record detail, prediction outcomes) for one traced run.

    `rounds` holds each round's (untraced, traced) main-pass wall times on the
    same inputs, for the trace-overhead diagnostic; everything else comes from
    the spans.
    """
    passes = [_summarise_pass(tracer, kind, first, end) for kind, first, end in tracer.passes]
    main = [p for p in passes if p.kind == "main"]
    m: dict[str, float] = {"ptable.build_s": _median_sum(passes, "ptable.build")}

    for n in SAMPLER_NS:
        m.update(_distribution(passes, f"sampler.n{n}", "us", 1e6))
    m.update(_distribution(passes, "mn.types", "us", 1e6))
    m.update(_distribution(passes, "mn.character", "ms", 1e3))
    durs = _durations(passes, "mn.character")
    m["mn.character.max_ms"] = max(durs, default=0.0) * 1e3
    m["mn.character.top5_share"] = top_share(durs)

    m["census.full_table_scan_s"] = _median_sum(passes, "census.full_table_scan")
    m["census.count_type1_s"] = _median_sum(passes, "census.count_type1")
    m["census.count_max_part_s"] = _median_sum(passes, "census.count_max_part")
    m["montecarlo.self_s"] = _median_sum(main, "montecarlo.self")

    # 2-worker estimate time minus half the work the same inputs take in one
    # worker; each round has one main (1-worker) pass and one pool pass.
    pool = [p for p in passes if p.kind == "pool"]
    m["montecarlo.pool_overhead_s"] = _median([
        two.sums["montecarlo.estimate"] - one.estimate_children / 2
        for one, two in zip(main, pool)
    ])

    wall = sum(p.sums["pass"] for p in main)
    setup = sum(p.sums["ptable.build"] for p in main)
    sampler = sum(v for p in main for k, v in p.sums.items() if k.startswith("sampler."))
    m["share.sampler_ptable"] = (sampler + setup) / wall if wall else 0.0
    post_setup = wall - setup
    m["share.character_post_setup"] = (
        sum(p.sums["mn.character"] for p in main) / post_setup if post_setup > 0 else 0.0)

    # a diagnostic, not a metric: host noise between two passes is of its size
    overhead = [traced / untraced - 1 for untraced, traced in rounds]
    detail = {
        "trace_overhead_frac": _median(overhead),
        "trace_overhead_by_round": overhead,
        "traced_passes": {kind: sum(p.kind == kind for p in passes) for kind in ("main", "pool")},
        "pool_estimate_s": _median([p.sums["montecarlo.estimate"] for p in pool]),
        "one_worker_estimate_s": _median([p.sums["montecarlo.estimate"] for p in main]),
        "sampler_us_by_n": _by_n(passes, "sampler", 1e6),
        "mn_types_us_by_n": _by_n(passes, "mn.types", 1e6),
        "mn_character_ms_by_n": _by_n(passes, "mn.character", 1e3),
        "ptable_build_s_by_n": _by_n(passes, "ptable.build", 1.0),
    }

    predictions = []
    for name, op, threshold, claim in PREDICTIONS.get(workload, ()):
        value = m[name]
        holds = value >= threshold if op == ">=" else value > threshold
        predictions.append({"claim": claim, "metric": name, "value": value,
                            "threshold": f"{op} {threshold}", "holds": holds})
    return m, detail, predictions
