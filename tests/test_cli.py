import csv
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import snzeros
from snzeros.cli import main, parse_partition, parse_range, run


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr().out
    return status, out.strip()


class TestParsing:
    def test_partition(self):
        assert parse_partition("6,5,3,2,1,1").parts == (6, 5, 3, 2, 1, 1)
        assert parse_partition("").parts == ()

    def test_partition_rejects_bad_order(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_partition("1,3")

    def test_range(self):
        assert parse_range("1:5") == [1, 2, 3, 4, 5]
        assert parse_range("100:400:100") == [100, 200, 300, 400]
        assert parse_range("10,20,50") == [10, 20, 50]

    def test_range_rejects_empty(self):
        import argparse

        assert parse_range("3:3") == [3]
        for text in ["3:1", "5:2:2"]:
            with pytest.raises(argparse.ArgumentTypeError, match="empty range"):
                parse_range(text)

    def test_range_rejects_more_values_than_the_table_cap(self, monkeypatch):
        import argparse

        monkeypatch.setenv("SNZ_PTABLE_CAP", "10")
        assert parse_range("0:10") == list(range(11))
        assert parse_range("-20:30:5") == list(range(-20, 31, 5))
        for text in ["0:11", "-1:10", "0:10000000000", f"0:{10**30}"]:
            with pytest.raises(argparse.ArgumentTypeError, match="has over 11 values"):
                parse_range(text)


class TestCommands:
    def test_eval(self, capsys):
        assert invoke(capsys, "eval", "--lambda", "3,1", "--mu", "2,2") == (0, "-1")

    def test_encode(self, capsys):
        assert invoke(capsys, "encode", "--lambda", "6,5,3,2,1,1") == (0, "0b100101011010")

    def test_decode(self, capsys):
        assert invoke(capsys, "decode", "--code", "0b100101011010") == (0, "(6,5,3,2,1,1)")

    def test_pn(self, capsys):
        assert invoke(capsys, "pn", "--n", "50") == (0, "204226")

    def test_cores(self, capsys):
        assert invoke(capsys, "cores", "--n", "5", "--t", "3") == (0, "1")
        # any t > n reads p(5) at once, with no step, not 2^64 of them
        assert invoke(capsys, "cores", "--n", "5", "--t", "18446744073709551616") == (0, "7")

    def test_count_type1(self, capsys):
        assert invoke(capsys, "count-type1", "--n", "4") == (0, "3")

    def test_classify(self, capsys):
        status, out = invoke(capsys, "classify", "--lambda", "2,2", "--mu", "4")
        assert status == 0
        assert out == "zero=1 type1=1 type2=1 evaluated=1"

    def test_scan(self, capsys):
        status, out = invoke(capsys, "scan", "--n", "4")
        assert status == 0
        header, row = out.splitlines()
        (fields,) = csv.reader([row])
        assert fields == ["4", "25", "exact", "4", "3", "3",
                          "0.160000", "0.120000", "0.120000", "", "", ""]

    def test_scan_range_matches_single_n(self, capsys):
        _, out = invoke(capsys, "scan", "--n", "3:5")
        header, *rows = out.splitlines()
        singles = [invoke(capsys, "scan", "--n", str(n))[1].splitlines() for n in (3, 4, 5)]
        assert [header] * 3 == [s[0] for s in singles]
        assert rows == [s[1] for s in singles]

    def test_count_type1_range_matches_single_n(self, capsys):
        _, out = invoke(capsys, "count-type1", "--n", "3:5")
        singles = [invoke(capsys, "count-type1", "--n", str(n))[1] for n in (3, 4, 5)]
        assert out.splitlines() == singles

    def test_sample_is_seed_stable(self, capsys):
        _, first = invoke(capsys, "sample", "--n", "20", "--count", "3", "--seed", "9")
        _, second = invoke(capsys, "sample", "--n", "20", "--count", "3", "--seed", "9")
        assert first == second

    def test_sweep_stdout(self, capsys):
        status, out = invoke(
            capsys,
            "sweep", "--n", "5,6", "--samples", "50", "--seed", "3", "--mode", "full-eval",
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,samples,mode")
        assert len(lines) == 3

    def test_sweep_out_file_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        status, _ = invoke(
            capsys,
            "sweep", "--n", "5", "--samples", "20", "--seed", "1", "--mode", "full-eval",
            "--out", str(out),
        )
        assert status == 0
        assert out.read_text().count("\n") == 2
        assert (tmp_path / "sweep.csv.meta.json").exists()

    def test_identical_sweeps_byte_identical(self, capsys):
        args = ["sweep", "--n", "8,9", "--samples", "100", "--seed", "11", "--mode", "full-eval"]
        _, a = invoke(capsys, *args)
        _, b = invoke(capsys, *args)
        # wall-clock column may differ; counts must not
        strip = lambda text: [",".join(l.split(",")[:-1]) for l in text.splitlines()]
        assert strip(a) == strip(b)


class TestReadme:
    def test_command_line_examples_print_their_comment(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        checked = {"eval", "classify", "encode", "decode", "pn"}
        seen = set()
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            argv = command.split()[1:]  # drop the program name
            if argv[0] in checked:
                status, out = invoke(capsys, *argv)
                assert status == 0 and out and comment.strip().endswith(out), (line, out)
                seen.add(argv[0])
        assert seen == checked


def test_single_process_paths_load_no_pool_json_or_dataclasses():
    # a fresh interpreter, without site, lists the modules that the library and these calls add
    code = """if True:
        import io, sys
        sys.path.insert(0, sys.argv[1])
        before = set(sys.modules)
        import snzeros, snzeros.census, snzeros.montecarlo, snzeros.cli
        out, sys.stdout = sys.stdout, io.StringIO()
        snzeros.cli.run(["sweep", "--n", "8,12", "--samples", "5", "--mode", "full-eval"])
        sweep_csv, sys.stdout = sys.stdout.getvalue(), out
        assert sweep_csv.count(",full-eval,") == 2, sweep_csv
        sys.stdout = io.StringIO()  # one sample is one block, so --threads 4 runs here, unforked
        snzeros.cli.run(["sweep", "--n", "8", "--samples", "1", "--threads", "4",
                         "--mode", "types-only"])
        sweep_csv, sys.stdout = sys.stdout.getvalue(), out
        assert sweep_csv.count(",types-only,") == 1, sweep_csv
        assert snzeros.census.full_table_scan(6).zero_count == 29
        assert snzeros.census.count_type1(40) == 260745719
        print(" ".join(sorted(set(sys.modules) - before)))
    """
    src = Path(snzeros.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "snzeros.montecarlo" in added
    # the sweeps seed streams, so SHA-256 comes from the interpreter's built-in module, not OpenSSL
    assert added & {"dataclasses", "inspect", "multiprocessing", "json", "typing",
                    "hashlib", "_hashlib"} == set()


class TestExitCodes:
    def test_usage_error_is_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", "eval", "--lambda", "3,1"],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_resource_limit_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", "scan", "--n", "25"],
            capture_output=True,
        )
        assert proc.returncode == 2
        assert b"resource limit" in proc.stderr

    def test_cores_table_is_capped(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", "cores", "--n", str(2**64), "--t", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("snzeros: resource limit: ")

    @pytest.mark.parametrize("argv", [
        ["scan", "--n", "-1"],
        ["cores", "--n", "5", "--t", "0"],
        ["cores", "--n", "-1", "--t", "2"],
        ["sample", "--n", "5", "--index-start", "-1"],
        ["sweep", "--n", "5", "--samples", "0", "--mode", "full-eval"],
        ["sweep", "--n", "5", "--samples", "0", "--threads", "2", "--mode", "full-eval"],
        ["sweep", "--n", "-3", "--samples", "5", "--mode", "full-eval"],
        ["pn", "--n", "-1"],
        ["sample", "--n", "-2"],
        ["count-type1", "--n", "-1"],
        ["sample", "--n", "5", "--seed", "18446744073709551616"],
        ["sample", "--n", "5", "--seed", "-1"],
        ["sample", "--n", "5", "--count", "-3"],
        ["sample", "--n", "5", "--count", "0"],
        ["sweep", "--n", "5", "--samples", "5", "--threads", "-2", "--mode", "full-eval"],
        ["sweep", "--n", "5", "--samples", "5", "--threads", "0", "--mode", "full-eval"],
        ["sweep", "--n", "18446744073709551616", "--samples", "1", "--mode", "full-eval"],
        ["decode", "--code", "0b12"],
        ["decode", "--code", ""],
        ["scan", "--n", "3,-1"],  # a negative n anywhere fails before the first row
        ["count-type1", "--n", "4,-1"],
        ["sweep", "--n", "5", "--samples", "3", "--mode", "types-only", "--out", "/nonexistent/x.csv"],
        ["sweep", "--n", "5", "--samples", "3", "--mode", "types-only", "--out", "/"],
        # stream 2 * samples - 1 = 2^64 + 1: rejected, not sampled for ever
        ["sweep", "--n", "5", "--samples", "9223372036854775809", "--mode", "types-only"],
    ])
    def test_invalid_census_input_is_one_line_error(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", *argv], capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("snzeros: error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["count-type1", "--n", "82:3000"],  # flushes each line
        ["sample", "--n", "30", "--count", "100000"],  # more than a pipe buffer holds
    ])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        with subprocess.Popen([sys.executable, "-m", "snzeros.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()  # the reader goes away, as with `| head -1`
                status = proc.wait(timeout=60)
            finally:
                proc.kill()
            err = proc.stderr.read()
        assert first and status == 1
        assert err == b""

    @pytest.mark.parametrize("argv", [
        ["scan", "--n", "3:1"],
        ["count-type1", "--n", "5:2"],
        ["sweep", "--n", "3:1", "--samples", "5"],
    ])
    def test_empty_range_is_usage_error(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "empty range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["scan", "--n", "0:10000000000"],
        ["count-type1", "--n", "0:10000000000"],
        ["sweep", "--n", "0:10000000000", "--samples", "1"],
        ["scan", "--n", f"0:{10**30}"],
    ])
    def test_huge_range_is_rejected_before_it_is_built(self, argv):
        import resource

        def limit_memory():  # a built 10^10-entry list would not fit in 400 MB
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", *argv],
            capture_output=True, text=True, preexec_fn=limit_memory,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "has over 100001 values" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, env", [
        (["scan", "--n", "19:21"], {}),
        (["count-type1", "--n", "28:32"], {"SNZ_PTABLE_CAP": "30"}),
        (["count-type1", "--n", "50,500"], {"SNZ_PTABLE_CAP": "100"}),
        (["sample", "--n", "200000"], {}),
    ])
    def test_range_over_cap_fails_before_any_work(self, argv, env):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", *argv],
            capture_output=True, text=True, env={**os.environ, **env},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("snzeros: resource limit: n=")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, n", [
        (["eval", "--lambda", "10", "--mu", "10"], 10),
        (["classify", "--lambda", "10", "--mu", "10", "--no-eval"], 10),
        (["encode", "--lambda", "10"], 10),
        (["encode", "--lambda", "9,1"], 10),
        (["eval", "--lambda", "9", "--mu", "5,5"], 10),
        (["eval", "--lambda", "100000000000", "--mu", "100000000000"], 100000000000),
    ])
    def test_shape_over_the_table_cap_is_a_resource_limit(self, argv, n):
        import resource

        def limit_memory():  # a 10^11-bit boundary word would not fit in 400 MB
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "SNZ_PTABLE_CAP": "9"}, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"snzeros: resource limit: n={n} exceeds partition-table cap 9\n"

    def test_bag_over_the_cap_is_a_resource_limit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", "eval", "--lambda", "6,5,4,3,2,1",
             "--mu", "3,3,3,3,3,3,3"], capture_output=True, text=True,
            env={**os.environ, "SNZ_BAG_CAP": "11"},  # its bag peaks at 12 words
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == \
            "snzeros: resource limit: a Murnaghan-Nakayama bag exceeds bag cap 11\n"

    def test_pairs_over_the_bag_cap_leave_a_marked_row(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", "sweep", "--n", "5,18", "--samples", "20",
             "--seed", "0", "--mode", "full-eval"], capture_output=True, text=True,
            env={**os.environ, "SNZ_BAG_CAP": "1"},
        )
        assert proc.returncode == 0
        rows = proc.stdout.splitlines()
        assert len(rows) == 3 and "error" not in rows[1]
        assert rows[2].startswith("18,20,full-eval,7,4,5,")
        assert re.search(r",error:11 of 20 pairs passed bag cap 1,\d+\.\d{3}$", rows[2])
        assert proc.stderr == "estimate at n=18: 11 of 20 pairs passed bag cap 1\n"

    def test_malformed_bag_cap_fails_before_the_header(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", "sweep", "--n", "5", "--samples", "2",
             "--mode", "full-eval"], capture_output=True, text=True,
            env={**os.environ, "SNZ_BAG_CAP": "abc"},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "snzeros: error: SNZ_BAG_CAP='abc' is not an integer\n"

    def test_shape_at_the_table_cap_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("SNZ_PTABLE_CAP", "9")
        assert invoke(capsys, "encode", "--lambda", "9") == (0, "0b" + "1" * 9 + "0")

    @pytest.mark.parametrize("mode", [None, "auto"])
    def test_sweep_mode_is_required(self, mode):
        argv = ["sweep", "--n", "5", "--samples", "5"] + ([] if mode is None else ["--mode", mode])
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "--mode" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_scan_ratio_without_zeros(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snzeros.cli", "scan", "--n", "2", "--ratio"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == "n=2 type1/zero = undefined\n"

    def test_help_exits_0(self):
        for sub in ["eval", "sweep", "scan", "sample"]:
            proc = subprocess.run(
                [sys.executable, "-m", "snzeros.cli", sub, "--help"], capture_output=True
            )
            assert proc.returncode == 0
            assert b"--" in proc.stdout


# a sample count or a range length has no cap, so those values stay small
_SMALL = st.integers(-3, 12).map(str)
_INT = st.one_of(_SMALL, st.sampled_from(["18446744073709551616", "-18446744073709551616", "x", ""]))
_RANGE = st.one_of(
    _SMALL,
    st.builds("{}:{}".format, _SMALL, _SMALL),
    st.builds("{}:{}:{}".format, _SMALL, _SMALL, _SMALL),
    st.lists(_SMALL, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["1:2:3:4", "a:b", ""]),
    st.just("18446744073709551616"),  # one value, so no uncapped work
    st.just(f"0:{10**30}"),  # too long to build, rejected before it is
)
_PARTS = st.lists(st.integers(-1, 5), max_size=4).map(lambda ps: ",".join(map(str, ps)))
# command -> (required flags, optional flags); flag -> value strategy, or None for a switch
_OPTIONS = {
    "eval": ({"--lambda": _PARTS, "--mu": _PARTS}, {}),
    "classify": ({"--lambda": _PARTS, "--mu": _PARTS}, {"--no-eval": None}),
    "sample": ({"--n": _INT}, {"--count": _SMALL, "--seed": _INT, "--index-start": _INT}),
    "sweep": ({"--n": _RANGE, "--samples": _SMALL,
               "--mode": st.sampled_from(["full-eval", "types-only", "auto", "exact"])},
              {"--seed": _INT, "--threads": st.sampled_from(["-2", "0", "1", "2", "two"])}),
    "scan": ({"--n": _RANGE}, {"--ratio": None}),
    "count-type1": ({"--n": _RANGE}, {}),
    "cores": ({"--n": _INT, "--t": _INT}, {}),
    "pn": ({"--n": _INT}, {}),
    "encode": ({"--lambda": _PARTS}, {}),
    "decode": ({"--code": st.text("01b", max_size=8)}, {}),
    "bogus": ({}, {"--n": _INT}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional = _OPTIONS[command]
    # a required flag is sometimes left out, an optional one sometimes repeated
    flags = [f for f in required if draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(sorted(optional)), max_size=3)) if optional else []
    argv = [command]
    for flag in flags:
        value = {**required, **optional}[flag]
        argv += [flag] if value is None else [flag, draw(value)]
    return argv


class TestFuzz:
    @given(argv=_argv())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_argv_exits_cleanly(self, monkeypatch, argv):
        # caps keep every table, scan and series small
        monkeypatch.setenv("SNZ_PTABLE_CAP", "200")
        monkeypatch.setenv("SNZ_SCAN_CAP", "6")
        monkeypatch.setattr(sys, "argv", ["snzeros", *argv])
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), \
                pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
