"""Tiny-size self-check of the benchmark; asserts no timings.

    python -m pytest bench/test_bench.py -q

Runs every workload at a few samples, traced and untraced, runs the output
checks on good and corrupted outputs, and parses the trace file.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

run.load_library()

TINY = {
    "full-eval": replace(run.WORKLOADS["full-eval"], n_values=(8, 12), samples_per_n=3, reference=None),
    "types-only": replace(run.WORKLOADS["types-only"], n_values=(30, 60), samples_per_n=3, reference=None),
    "census": replace(run.WORKLOADS["census"], scan_n=6, count_n=40),
}


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(TINY)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert spec["paths"] == [BENCH.name]


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_checks_outputs_and_reports_every_metric(name, tmp_path):
    w = TINY[name]
    record = run.run(w, seed=3, seconds=0, trace=False, out_dir=tmp_path)
    assert record["errors"] == [] and record["failures"] == []
    assert record["failed"] == 0
    assert record["attempted"] >= run.ops_per_pass(w)
    result = json.loads(run.result_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_and_writes_a_parsable_trace(name, tmp_path):
    w = TINY[name]
    record = run.run(w, seed=3, seconds=0, trace=True, out_dir=tmp_path)
    assert record["failed"] == 0 and record["errors"] == []
    assert list(record["metrics"]) == [n for n, _ in layers.PER_LAYER]
    assert len(record["predictions"]) == len(layers.PREDICTIONS.get(name, ()))
    assert len(record["layers"]["trace_overhead_by_round"]) >= 1

    header, rows = tracing.read_trace(run.ROOT / record["trace_file"])
    assert header["workload"] == name and tuple(header["fields"]) == tracing.FIELDS
    ids = {row[0] for row in rows}
    assert all(parent == -1 or parent in ids for _sid, _nid, parent, *_ in rows)
    assert all(start <= end for _sid, _nid, _parent, start, end, _n in rows)
    kinds = [kind for kind, _first, _end in header["passes"]]
    assert kinds == (["main", "pool"] if getattr(w, "pool_workers", 0) else ["main"])
    used = {header["names"][nid] for _sid, nid, *_ in rows}
    expected = {"pass", "mn.classify", "mn.character" if name in ("full-eval", "census") else "sampler"}
    assert expected <= used
    if name == "census":
        assert record["metrics"]["mn.character.calls"] == 11 ** 2  # p(6)^2 table entries
    else:
        # only the 1-worker traced pass records classify calls; pool ones run in the workers
        assert record["metrics"]["mn.types.calls"] == len(w.n_values) * w.samples_per_n
    if name == "types-only":
        assert record["layers"]["pool_estimate_s"] > 0


def sweep_pass(w, seed=5):
    return run.run_pass(w, seed, 0)


def test_sweep_checks_flag_bad_rows():
    w = TINY["full-eval"]
    p = sweep_pass(w)
    assert run.check_sweep_rows(w, p.output, run.load_library().RNG_NAME) == []
    broken = [dict(r) for r in p.output]
    broken[1]["count_type1"] = broken[1]["count_type2"] + 1
    problems = run.check_sweep_rows(w, broken, run.load_library().RNG_NAME)
    assert [key for key, _ in problems] == [w.n_values[1]]
    broken[0]["error"] = "boom"
    assert len(run.check_sweep_rows(w, broken, run.load_library().RNG_NAME)) == 2
    assert run.compare_rows(p.output, [[8, -1, 0, 0], run.counts(p.output)[1]], "reference")[0][0] == 8


def test_reference_check_covers_the_real_full_eval_pass():
    w = run.WORKLOADS["full-eval"]
    reference = run.load_reference()
    expected = run.expected_from_reference(w, seed=123, index=7, reference=reference)
    assert expected == reference["full-eval"]["rows"]  # fixed inputs: checked at every seed


def test_checker_counts_each_operation_once():
    checker = run.Checker()
    checker.record(3, [(50, "a"), (50, "b"), (75, "c")], "pass 0")
    checker.record(1, [], "cross-check")
    assert (checker.attempted, checker.failed, len(checker.failures)) == (4, 2, 3)


def test_worker_invariance_mismatch_counts_as_failure():
    w = TINY["types-only"]
    one = sweep_pass(w)
    two = run.run_pass(w, 5, 0, "pool")
    assert (two.workers, one.workers) == (2, 1)
    checker = run.Checker()
    run.check_passes(w, 5, [two, one], checker, run.load_library().RNG_NAME)
    assert checker.failed == 0
    one.output[0]["count_type1"] += 1
    one.output[0]["count_type2"] += 1
    checker = run.Checker()
    run.check_passes(w, 5, [two, one], checker, run.load_library().RNG_NAME)
    assert checker.failed == 1


def test_census_checks_flag_wrong_counts():
    w = run.WORKLOADS["census"]
    reference = run.load_reference()
    scan = dict(reference["census"]["scan"]["17"])
    good = run.Pass(0, "main", 1, False, None, 1.0, 0.0, 1.0, scan["total_entries"],
                    {"scan": scan, "count_type1": {"n": 5000, "value": reference["census"]["count_type1"]["5000"]}})
    assert run.check_census(w, good, reference) == []
    bad = run.Pass(**{**good.__dict__, "output": {
        "scan": {**scan, "zero": scan["zero"] - 1},
        "count_type1": {"n": 5000, "value": "1"}}})
    assert sorted({key for key, _ in run.check_census(w, bad, reference)}) == ["count_type1", "scan"]


def test_reference_count_is_the_frozen_acceptance_value():
    acceptance = run.ROOT / "tests" / "test_acceptance.py"
    if not acceptance.is_file():
        pytest.skip("acceptance tests not present")
    block = re.search(r"TYPE1_COUNT_N5000 = int\((.*?)\)", acceptance.read_text(), re.S).group(1)
    frozen = "".join(re.findall(r'"(\d+)"', block))
    assert len(frozen) == 148
    assert run.load_reference()["census"]["count_type1"]["5000"] == frozen


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    assert layers.tail(values) == (99.0, 990.0)
    assert layers.tail(values[:100]) == (90.0, 90.0)
    assert layers.tail(values[:19])[0] == 50.0
    assert layers.tail([]) == (0.0, 0.0)
    assert layers.top_share([1.0] * 19 + [81.0]) == pytest.approx(0.81)


def test_probe_converts_wall_time_at_the_probed_speed():
    r = hostspeed.REFERENCE_S
    probe = hostspeed.Probe()
    assert probe.seconds(0.5, 3.5) == 3.0  # no probes: wall-clock seconds
    # three probes, each twice as slow as the reference: the host ran at half speed
    probe.starts = [1.0, 2.0, 3.0]
    probe.ends = [t + 2 * r for t in probe.starts]
    assert probe.probe_time(0.5, 3.5) == pytest.approx(6 * r)
    assert probe.seconds(0.5, 3.5) == pytest.approx((3.0 - 6 * r) / 2)
    assert probe.seconds(1.0 + r, 1.5) == pytest.approx((1.5 - 1.0 - 2 * r) / 2)  # starts inside a probe
    assert probe.seconds(3.2, 3.4) == pytest.approx(0.1)  # after the last probe: its speed


def test_probe_fires_inside_a_running_call():
    with hostspeed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * hostspeed.INTERVAL_S:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(probe.starts) >= 3
    assert 0 < probe.probe_time(t0, t1) < t1 - t0
    assert probe.seconds(t0, t1) > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no snzeros package" in proc.stderr


def test_command_line_prints_the_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "census", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
