"""Command-line behavior: subcommands, exit codes, manifests, determinism."""

import copy
import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FIXTURE_COUNTERS, planted_metric_vectors, write_binary_trace
from wcr.cachesim import AccessTrace, TraceSegment
from wcr.cli import RunConfig, main
from wcr.model import default_schema

COUNTER_HEADER = "workload,node,event,count,wall_time_s\n"
TELEMETRY_HEADER = "workload,t_s,cpu_util,io_wait,weighted_io_time_ms,disk_bw,net_bw\n"
BEHAVIOR_HEADER = (
    "workload,cpu_util,io_wait,weighted_io_ratio,"
    "input_bytes,output_bytes,intermediate_bytes,category\n"
)


def counters_csv(workloads: dict[str, dict[str, float]]) -> str:
    rows = [COUNTER_HEADER]
    for workload, counters in workloads.items():
        for event, count in counters.items():
            rows.append(f"{workload},n1,{event},{count},100\n")
    return "".join(rows)


def two_workload_counters() -> str:
    w2 = dict(FIXTURE_COUNTERS)
    w2["l1i_misses"] = 7_680_000   # MPKI 3 instead of 15
    w2["mispredicted_branches"] = 4_864_000
    w2["frontend_stall_cycles"] = 200_000_000
    return counters_csv({"w1": FIXTURE_COUNTERS, "w2": w2})


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "counters.csv").write_text(two_workload_counters())
    (tmp_path / "telemetry.csv").write_text(
        TELEMETRY_HEADER
        + "".join(f"w1,{t},0.9,0.02,{t * 100},1e6,1e6\n" for t in range(0, 120, 10))
        + "".join(f"w2,{t},0.5,0.25,{t * 12000},1e7,1e6\n" for t in range(0, 120, 10))
    )
    (tmp_path / "behavior.csv").write_text(
        BEHAVIOR_HEADER
        + "w1,0.9,0.02,1,1000000,500,100,data_analysis\n"
        + "w2,0.5,0.25,12,1000,1000,0,service\n"
    )
    (tmp_path / "trace.txt").write_text(
        "".join(f"I {64 * (i % 4):#x}\n" for i in range(64))
    )
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


STACK_TABLE = (
    "algorithm,stack,metric,value\n"
    "wordcount,mpi,l1i_mpki,2\n"
    "wordcount,hadoop,l1i_mpki,7\n"
    "wordcount,spark,l1i_mpki,17\n"
)


def full_report(workdir: Path) -> int:
    """ingest, classify, simulate, then report on all three plus a stack table."""
    assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
    assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
    assert run(
        "simulate", workdir / "trace.txt", "--kinds", "ifetch",
        "--sizes", "16K,32K", "--workload", "w1", "--out", workdir / "sim",
    ) == 0
    (workdir / "stack.csv").write_text(STACK_TABLE)
    return run(
        "report", "--vectors", workdir / "ingest" / "vectors.json",
        "--labels", workdir / "classify" / "labels.csv",
        "--stack-table", workdir / "stack.csv",
        "--curves", workdir / "sim",
        "--metrics", "ipc,l1i_mpki,branch_ratio",
        "--out", workdir / "report",
    )


class TestIngest:
    def test_writes_profiles_and_vectors(self, workdir):
        out = workdir / "ingest"
        code = run(
            "ingest", workdir / "counters.csv",
            "--telemetry", workdir / "telemetry.csv", "--out", out,
        )
        assert code == 0
        vectors = json.loads((out / "vectors.json").read_text())
        assert len(vectors["vectors"]) == 2
        names = [m["name"] for m in vectors["schema"]["metrics"]]
        w1 = next(v for v in vectors["vectors"] if v["workload_id"] == "w1")
        assert w1["values"][names.index("ipc")] == 1.28
        metrics = json.loads((out / "system_metrics.json").read_text())["system_metrics"]
        assert metrics["w1"]["cpu_util"] == pytest.approx(0.9)
        # weighted_io delta over steady state: (11000 - 3000) / (100 * 1000)
        assert metrics["w1"]["weighted_io_ratio"] == pytest.approx(0.08)

    def test_malformed_counters_exit_2(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text(COUNTER_HEADER + "w1,n1,cycles,abc,1\n")
        assert run("ingest", bad, "--out", workdir / "o") == 2

    def test_counts_summing_beyond_float_range_exit_2(self, workdir, capsys):
        # each count is finite; their sum is not, and JSON has no Infinity
        counters = workdir / "huge.csv"
        counters.write_text(
            counters_csv({"w1": FIXTURE_COUNTERS})
            + "w1,n1,foo,1e308,100\nw1,n2,foo,1e308,100\n"
        )
        out = workdir / "o"
        assert run("ingest", counters, "--out", out) == 2
        err = capsys.readouterr().err
        assert "'w1'" in err and "'foo'" in err
        assert not (out / "profiles.json").exists()

    def test_missing_file_exit_3(self, workdir):
        assert run("ingest", workdir / "nope.csv", "--out", workdir / "o") == 3

    def test_series_pegged_at_full_cpu_ingests(self, workdir):
        # its time-weighted mean once rounded to 1.0000000000000002 and exited 2
        telemetry = workdir / "pegged.csv"
        telemetry.write_text(TELEMETRY_HEADER + "".join(
            f"w1,{t},1.0,0.0,0,0,0\n"
            for t in (7.4, 23.166, 23.25, 59.124, 70.95, 79.158, 93.4)))
        out = workdir / "ingest"
        assert run("ingest", workdir / "counters.csv", "--telemetry", telemetry,
                   "--warmup", "0", "--out", out) == 0
        metrics = json.loads((out / "system_metrics.json").read_text())["system_metrics"]
        assert metrics["w1"]["cpu_util"] == 1.0

    @pytest.mark.parametrize("telemetry", [
        "workload,t_s\nw1,0\n",
        # each bandwidth is finite; their mean is not, and JSON has no Infinity
        TELEMETRY_HEADER + "w1,40,0.5,0.1,0,1e308,0\nw1,50,0.5,0.1,0,1e308,0\n",
    ], ids=["bad-header", "mean-beyond-float"])
    def test_failed_telemetry_leaves_earlier_outputs(self, workdir, telemetry):
        out = workdir / "ingest"
        assert run("ingest", workdir / "counters.csv", "--out", out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # other counters, so outputs written before the telemetry failed would show
        counters = workdir / "one.csv"
        counters.write_text(counters_csv({"w1": FIXTURE_COUNTERS}))
        bad = workdir / "bad.csv"
        bad.write_text(telemetry)
        assert run("ingest", counters, "--telemetry", bad, "--out", out) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert set(before) == {"profiles.json", "vectors.json", "manifest.json"}


class TestReduce:
    def test_planted_vectors_fixed_k(self, workdir):
        schema, vectors, _, _ = planted_metric_vectors(seed=42)
        payload = {
            "schema": schema.to_dict(),
            "vectors": [v.to_dict() for v in vectors],
        }
        vectors_path = workdir / "vectors.json"
        vectors_path.write_text(json.dumps(payload))
        out = workdir / "reduce"
        code = run("reduce", vectors_path, "--k", "17", "--seed", "42", "--out", out)
        assert code == 0
        result = json.loads((out / "reduction.json").read_text())
        assert len(result["representatives"]) == 17
        assert result["clustering"]["k"] == 17
        assert (out / "normalized.csv").exists()

    def test_profiles_input_accepted(self, workdir):
        out1 = workdir / "ingest"
        assert run("ingest", workdir / "counters.csv", "--out", out1) == 0
        out2 = workdir / "reduce"
        code = run("reduce", out1 / "profiles.json", "--k", "2", "--out", out2)
        assert code == 0
        result = json.loads((out2 / "reduction.json").read_text())
        assert sorted(result["representatives"]) == ["w1", "w2"]

    def test_auto_k_range(self, workdir):
        schema, vectors, _, _ = planted_metric_vectors(seed=1)
        vectors_path = workdir / "vectors.json"
        vectors_path.write_text(json.dumps({
            "schema": schema.to_dict(), "vectors": [v.to_dict() for v in vectors],
        }))
        out = workdir / "auto"
        code = run("reduce", vectors_path, "--k-range", "15,19", "--out", out)
        assert code == 0
        result = json.loads((out / "reduction.json").read_text())
        assert result["clustering"]["k"] == 17

    @pytest.mark.parametrize("name, mutate, field", [
        ("profiles.json", lambda d: d["profiles"][0].pop("counters"), "RawProfile.counters"),
        ("profiles.json", lambda d: d["profiles"][0].update(bogus=1), "RawProfile.bogus"),
        ("profiles.json", lambda d: d["profiles"][0]["counters"].update(cycles="abc"),
         "RawProfile.counters"),
        ("vectors.json", lambda d: d["vectors"][0].pop("workload_id"),
         "MetricVector.workload_id"),
        ("vectors.json", lambda d: d["schema"]["metrics"][0].update(bogus=1),
         "MetricDescriptor.bogus"),
        ("vectors.json", lambda d: d["vectors"][0]["values"].__setitem__(0, "0.5"),
         "MetricVector.values"),
    ])
    def test_malformed_input_exit_2_names_field(self, workdir, capsys, name, mutate, field):
        ingest_out = workdir / "ingest"
        assert run("ingest", workdir / "counters.csv", "--out", ingest_out) == 0
        payload = json.loads((ingest_out / name).read_text())
        mutate(payload)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run("reduce", bad, "--k", "2", "--out", workdir / "o") == 2
        assert field in capsys.readouterr().err

    def test_invalid_json_exit_2(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text('{"vectors": [')
        assert run("reduce", bad, "--k", "2", "--out", workdir / "o") == 2
        assert run("report", "--vectors", bad, "--labels", workdir / "behavior.csv",
                   "--out", workdir / "r") == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exit_2(self, workdir, capsys, source):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"seed": -1}))
        seed = ["--seed", "-1"] if source == "flag" else ["--config", config_path]
        out = workdir / "o"
        assert run(*seed, "reduce", workdir / "ingest" / "vectors.json", "--k", "2",
                   "--out", out) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_restarts_beyond_bound_in_config_exit_2(self, workdir, capsys):
        # without a bound, 2**64 k-means restarts would never end
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"restarts": 2 ** 64}))
        out = workdir / "o"
        assert run("--config", config_path, "reduce", workdir / "ingest" / "vectors.json",
                   "--k", "2", "--out", out) == 2
        assert "restarts" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_k_exit_2(self, workdir, capsys):
        assert run("reduce", workdir / "counters.csv", "--k", "abc",
                   "--out", workdir / "o") == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1", "3"])
    def test_k_outside_one_to_n_names_k(self, workdir, capsys, k):
        # the two workloads allow k = 1 or 2; the user gave --k, so the message
        # names k, not the k_min and k_max of a search
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        capsys.readouterr()
        out = workdir / "o"
        assert run("reduce", workdir / "ingest" / "vectors.json", "--k", k, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"need 1 <= k <= n, got k={k} with n=2" in err
        assert "k_min" not in err
        assert not out.exists()

    # sha256 of reduction.json for six workloads with equal counters: every metric
    # column is dropped, so PCA keeps 0 components and k-means runs on 0 columns
    CONSTANT_DIGESTS = {
        ("--k", "3"):
            "aaf9d9c2ec315d9ae6ab4d94dc17af1da0dd353fb98828c6f6ef17ade639fe8e",
        ("--k", "auto"):
            "e915f57ce9cb0b3f3a4be48ea34e8c6a7fa4cf75576a3182e722568949d7a9d2",
    }

    @pytest.mark.parametrize("flags", list(CONSTANT_DIGESTS))
    def test_all_constant_reduction_bytes_are_pinned(self, workdir, flags):
        (workdir / "same.csv").write_text(
            counters_csv({f"w{i}": FIXTURE_COUNTERS for i in range(6)}))
        assert run("ingest", workdir / "same.csv", "--out", workdir / "ingest") == 0
        out = workdir / "o"
        assert run("reduce", workdir / "ingest" / "profiles.json", *flags, "--out", out) == 0
        digest = hashlib.sha256((out / "reduction.json").read_bytes()).hexdigest()
        assert digest == self.CONSTANT_DIGESTS[flags]

    def test_k_range_without_a_comma_exit_2(self, workdir, capsys):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        out = workdir / "o"
        assert run("reduce", workdir / "ingest" / "vectors.json", "--k-range", "5",
                   "--out", out) == 2
        assert "bad --k-range '5'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--k", "5", "--k-range", "1,3"],
                                       ["--k-range", "1,3", "--k", "5"]])
    def test_k_with_k_range_is_usage_error(self, workdir, capsys, flags):
        # --k-range sets k to auto, so a --k given with it was once dropped without a word
        out = workdir / "o"
        assert run("reduce", workdir / "counters.csv", *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"argument {flags[2]}: not allowed with argument {flags[0]}" in err
        assert not out.exists()

    def test_vector_of_another_schema_version_exit_2(self, workdir, capsys):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        payload = json.loads((workdir / "ingest" / "vectors.json").read_text())
        payload["vectors"][1]["schema_version"] = "old-1"
        stale = workdir / "stale.json"
        stale.write_text(json.dumps(payload))
        assert run("reduce", stale, "--k", "2", "--out", workdir / "o") == 2
        assert "vector schema_version 'old-1' does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reduce", "report"])
    @pytest.mark.parametrize("mutate, message", [
        (lambda values: values.pop(), "workload 'w2': 44 values for a 45-metric schema"),
        (lambda values: values.__setitem__(0, 1.5),
         "metric 'branch_ratio': ratio value 1.5 outside [0, 1]"),
    ], ids=["wrong-length", "ratio-above-one"])
    def test_stored_vector_outside_its_schema_exit_2(self, workdir, capsys, command, mutate,
                                                     message):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
        payload = json.loads((workdir / "ingest" / "vectors.json").read_text())
        mutate(payload["vectors"][1]["values"])
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(payload))
        argv = {"reduce": [bad, "--k", "1"],
                "report": ["--vectors", bad, "--labels", workdir / "classify" / "labels.csv"]}
        out = workdir / "o"
        assert run(command, *argv[command], "--out", out) == 2
        assert f"wcr: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_json_without_vectors_or_profiles_exit_2(self, workdir, capsys):
        other = workdir / "other.json"
        other.write_text('{"rows": []}')
        assert run("reduce", other, "--k", "2", "--out", workdir / "o") == 2
        assert "neither 'vectors' nor 'profiles'" in capsys.readouterr().err

    def test_metric_spread_beyond_float_range_exit_2_names_it(self, workdir, capsys):
        # the spread once overflowed with a numpy warning, and the error named only
        # reduction.json, whose JSON cannot hold the resulting inf
        counters = {f"w{i}": {**FIXTURE_COUNTERS, "fp_operations": 10.0 ** (100 * i)}
                    for i in range(4)}
        (workdir / "spread.csv").write_text(counters_csv(counters))
        assert run("ingest", workdir / "spread.csv", "--out", workdir / "ingest") == 0
        out = workdir / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("reduce", workdir / "ingest" / "profiles.json", "--k", "2",
                       "--out", out) == 2
        assert "metric 'operation_intensity': mean or standard deviation" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestClassify:
    def test_labels_written(self, workdir):
        out = workdir / "classify"
        assert run("classify", workdir / "behavior.csv", "--out", out) == 0
        text = (out / "labels.csv").read_text()
        assert "w1" in text and "cpu_intensive" in text and "io_intensive" in text

    def test_bad_row_exit_2(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text(BEHAVIOR_HEADER + "w,2.0,0,0,1,1,1,service\n")
        assert run("classify", bad, "--out", workdir / "o") == 2

    def test_failed_run_leaves_earlier_outputs(self, workdir):
        out = workdir / "classify"
        assert run("classify", workdir / "behavior.csv", "--out", out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        bad = workdir / "bad.csv"
        bad.write_text(BEHAVIOR_HEADER + "w,2.0,0,0,1,1,1,service\n")
        assert run("classify", bad, "--out", out) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert set(before) == {"labels.csv", "manifest.json"}

    @pytest.mark.parametrize("row", [
        "w,0.5,0.3,nan,1000,10,0,service",
        "w,0.5,0.3,inf,1000,10,0,service",
        pytest.param("w,0.5,0.3,1,1,1" + "0" * 400 + ",0,service", id="ratio-beyond-float"),
    ])
    def test_non_finite_row_exit_2_names_line(self, workdir, capsys, row):
        bad = workdir / "bad.csv"
        bad.write_text(BEHAVIOR_HEADER + row + "\n")
        assert run("classify", bad, "--out", workdir / "o") == 2
        assert "line 2" in capsys.readouterr().err


class TestSimulateFootprint:
    def test_curve_and_footprint(self, workdir, capsys):
        out = workdir / "sim"
        code = run(
            "simulate", workdir / "trace.txt", "--kinds", "ifetch",
            "--sizes", "16K,32K", "--workload", "wc", "--out", out,
        )
        assert code == 0
        curve_path = out / "wc_instruction.csv"
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "capacity_bytes,miss_ratio"
        assert len(lines) == 3

        fp_out = workdir / "fp"
        assert run("footprint", curve_path, "--knee", "0.5", "--out", fp_out) == 0
        captured = capsys.readouterr().out.splitlines()
        assert captured[-1] == "16384"
        payload = json.loads((fp_out / "footprint.json").read_text())
        assert payload["capacity_bytes"] == 16384

    def test_binary_trace_with_segments(self, workdir):
        trace = AccessTrace(segments=(
            TraceSegment(0.5, np.arange(8, dtype=np.uint64) * 64,
                         np.zeros(8, dtype=np.uint8)),
            TraceSegment(0.5, np.arange(4, dtype=np.uint64) * 64,
                         np.ones(4, dtype=np.uint8)),
        ))
        bin_path = workdir / "trace.bin"
        sidecar = workdir / "trace.segments.json"
        write_binary_trace(trace, bin_path, sidecar)
        out = workdir / "simbin"
        code = run(
            "simulate", bin_path, "--segments", sidecar,
            "--sizes", "16K", "--out", out,
        )
        assert code == 0
        assert (out / "curve.csv").exists()

    @pytest.mark.parametrize("sidecar, field", [
        ({"segments": [{"begin": 0, "end": 8}]}, "SegmentSpan.weight"),
        ({"segments": [{"begin": 0, "end": 8, "weight": "x"}]}, "SegmentSpan.weight"),
        ({}, "SegmentsFile.segments"),
        ([{"begin": 0, "end": 8, "weight": 1.0}], "SegmentsFile"),
    ])
    def test_malformed_segments_exit_2_names_field(self, workdir, capsys, sidecar, field):
        trace = AccessTrace.single(np.arange(8, dtype=np.uint64) * 64, np.zeros(8, dtype=np.uint8))
        write_binary_trace(trace, workdir / "trace.bin")
        (workdir / "segments.json").write_text(json.dumps(sidecar))
        assert run("simulate", workdir / "trace.bin", "--segments", workdir / "segments.json",
                   "--sizes", "16K", "--out", workdir / "o") == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", ""])
    def test_workload_must_be_a_plain_file_name(self, workdir, capsys, name):
        out = workdir / "sub" / "sim"
        assert run("simulate", workdir / "trace.txt", "--sizes", "16K",
                   "--workload", name, "--out", out) == 2
        assert "--workload" in capsys.readouterr().err
        assert not list(workdir.rglob("*_unified.csv"))

    def test_empty_sizes_in_config_exit_2(self, workdir, capsys):
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"sizes": []}))
        out = workdir / "o"
        assert run("--config", config_path, "simulate", workdir / "trace.txt",
                   "--out", out) == 2
        assert "sizes" in capsys.readouterr().err
        assert not out.exists()

    def test_indivisible_size_exit_2_names_it(self, workdir, capsys):
        assert run("simulate", workdir / "trace.txt", "--sizes", "16K,1000",
                   "--out", workdir / "o") == 2
        assert "capacity_bytes 1000 is not divisible by line_bytes 64" in capsys.readouterr().err

    def test_capacity_past_the_trace_exit_0(self, workdir):
        # 2**62 bytes is 2**53 sets of 8 ways: each of the trace's 4 lines
        # misses once, and memory follows the trace, not the sets
        out = workdir / "o"
        assert run("simulate", workdir / "trace.txt", "--sizes", "16K,4611686018427387904",
                   "--out", out) == 0
        assert (out / "curve.csv").read_text().splitlines()[1:] == [
            "16384,0.062500", "4611686018427387904,0.062500"]

    def test_set_count_past_64_bits_exit_2_names_it(self, workdir, capsys):
        out = workdir / "o"
        assert run("simulate", workdir / "trace.txt", "--sizes", f"16K,{10**30}",
                   "--out", out) == 2
        assert f"capacity_bytes {10**30} gives" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_assoc_exit_2(self, workdir, capsys):
        assert run("simulate", workdir / "trace.txt", "--assoc", "abc",
                   "--out", workdir / "o") == 2
        assert "--assoc" in capsys.readouterr().err

    def test_segments_with_text_trace_is_usage_error(self, workdir, capsys):
        # a text trace is one segment; the sidecar was once dropped without a word
        out = workdir / "o"
        assert run("simulate", workdir / "trace.txt", "--segments", workdir / "missing.json",
                   "--sizes", "16K", "--out", out) == 1
        assert "--segments" in capsys.readouterr().err
        assert not out.exists()

    def test_skip_flag(self, workdir):
        out = workdir / "simskip"
        code = run(
            "simulate", workdir / "trace.txt", "--sizes", "16K",
            "--skip", "60", "--out", out,
        )
        assert code == 0


    def test_size_suffix_and_line_size_reach_the_manifest(self, workdir):
        out = workdir / "sim"
        assert run("simulate", workdir / "trace.txt", "--sizes", "64K,1M", "--line", "128",
                   "--out", out) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["sizes"] == [65536, 1048576]
        assert config["line_bytes"] == 128

    @pytest.mark.parametrize("flag, value, message", [
        ("--sizes", "16K,12Q", "bad size '12Q'"),
        # the token as typed, not as left after its suffix was stripped
        ("--sizes", "1.5K", "bad size '1.5K'"),
        ("--kinds", "bogus", "unknown access kind 'bogus'"),
        ("--kinds", "", "--kinds '' has an empty item"),
        ("--kinds", ",", "--kinds ',' has an empty item"),
        ("--kinds", "ifetch,,load", "--kinds 'ifetch,,load' has an empty item"),
    ])
    def test_bad_sizes_or_kinds_exit_2(self, workdir, capsys, flag, value, message):
        out = workdir / "o"
        assert run("simulate", workdir / "trace.txt", flag, value, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_full_report(self, workdir):
        assert full_report(workdir) == 0
        out = workdir / "report"
        assert (out / "summary_application_category.csv").exists()
        assert (out / "summary_system_behavior.csv").exists()
        assert (out / "stack_impact.csv").exists()
        assert (out / "curves" / "w1_instruction.csv").exists()
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["stack_impact"]["rows"][0]["flag"] == "near_order_of_magnitude"

    # sha256 of every CSV `full_report` writes; a changed digest is a changed output format
    CSV_DIGESTS = {
        "classify/labels.csv":
            "f9baafd8b828f4c60dd68b788e2659f2bcf73c048ae6b85828fa26981c7db6c3",
        "sim/w1_instruction.csv":
            "a31ec30aa64dc9d44985db939bde596402bc37aa3dff6afc80e9bc10ef05fe2d",
        "report/curves/w1_instruction.csv":
            "a31ec30aa64dc9d44985db939bde596402bc37aa3dff6afc80e9bc10ef05fe2d",
        "report/summary_application_category.csv":
            "3a7552bb4f49d5b4b381722d086130936b3b049e52c5bab820a8cd4d22d74de4",
        "report/summary_system_behavior.csv":
            "db7fbe3e0ce4ac947f7805f99252b567600b4b425a0bc5b755611f6bfaf36682",
        "report/stack_impact.csv":
            "19fbc58c82d9564bfc6b6b347f8908a7fc0de515d915464ebf754b0229479b27",
    }

    def test_csv_output_bytes_are_pinned(self, workdir):
        assert full_report(workdir) == 0
        digests = {
            name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in self.CSV_DIGESTS
        }
        assert digests == self.CSV_DIGESTS

    # sha256 of the JSON index `full_report` writes: summaries, stack impact and curve
    BUNDLE_DIGEST = "17c0afd9eae9326c62da8ffcf688ea8470b3e58bc5c4f2d42b886b033c52b72c"

    def test_bundle_json_bytes_are_pinned(self, workdir):
        assert full_report(workdir) == 0
        bundle = (workdir / "report" / "bundle.json").read_bytes()
        assert hashlib.sha256(bundle).hexdigest() == self.BUNDLE_DIGEST

    def test_non_numeric_stack_value_exit_2(self, workdir, capsys):
        stack_csv = workdir / "stack.csv"
        stack_csv.write_text(
            "algorithm,stack,metric,value\n"
            "wordcount,mpi,l1i_mpki,2\n"
            "wordcount,hadoop,l1i_mpki,lots\n"
        )
        assert run("report", "--stack-table", stack_csv, "--out", workdir / "r") == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_stack_value_exit_2_names_line(self, workdir, capsys, value):
        stack_csv = workdir / "stack.csv"
        stack_csv.write_text(
            "algorithm,stack,metric,value\n"
            "wordcount,mpi,l1i_mpki,2\n"
            f"wordcount,hadoop,l1i_mpki,{value}\n"
        )
        assert run("report", "--stack-table", stack_csv, "--out", workdir / "r") == 2
        assert f"{stack_csv}: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        "w2,service,bogus,equal,none",
        "w2,service,io_intensive,bogus,none",
        "w2,service,io_intensive,equal,bogus",
        "w2,service,io_intensive",
    ])
    def test_bad_labels_row_exit_2_names_file_and_line(self, workdir, capsys, row):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        labels = workdir / "labels.csv"
        labels.write_text(
            "workload,category,system,data_out,data_intermediate\n"
            "w1,data_analysis,cpu_intensive,much_less,less\n" + row + "\n"
        )
        assert run("report", "--vectors", workdir / "ingest" / "vectors.json",
                   "--labels", labels, "--out", workdir / "r") == 2
        assert f"{labels}: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("curves", ["missing", "counters.csv"])
    def test_curves_that_is_not_a_directory_exit_2(self, workdir, capsys, curves):
        # globbing a missing directory finds nothing, which once gave an empty report
        out = workdir / "r"
        assert run("report", "--curves", workdir / curves, "--out", out) == 2
        assert "--curves" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--vectors", "--labels", "--metrics"])
    def test_vectors_or_labels_alone_is_usage_error(self, workdir, capsys, flag):
        # the summaries need both, and --metrics selects what they summarize;
        # each alone was once dropped without a word
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
        given = {"--vectors": workdir / "ingest" / "vectors.json",
                 "--labels": workdir / "classify" / "labels.csv",
                 "--metrics": "bogus"}[flag]
        out = workdir / "r"
        assert run("report", flag, given, "--out", out) == 1
        err = capsys.readouterr().err
        assert flag in err and "--vectors" in err and "--labels" in err
        assert not out.exists()

    def test_empty_report_succeeds(self, workdir):
        out = workdir / "empty"
        assert run("report", "--out", out) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["notes"] == ["no inputs supplied; empty report"]


    def test_curve_without_a_kind_suffix_is_read_as_unified(self, workdir):
        sim = workdir / "sim"
        assert run("simulate", workdir / "trace.txt", "--sizes", "16K,32K", "--out", sim) == 0
        out = workdir / "r"
        assert run("report", "--curves", sim, "--out", out) == 0
        assert list(json.loads((out / "bundle.json").read_text())["curves"]) == ["curve_unified"]
        assert (out / "curves" / "curve_unified.csv").read_bytes() == (
            sim / "curve.csv").read_bytes()

    def test_instruction_curve_without_workload_keeps_its_kind(self, workdir):
        # it was once written to curve.csv, which report reads as a unified curve
        sim = workdir / "sim"
        assert run("simulate", workdir / "trace.txt", "--kinds", "ifetch",
                   "--sizes", "16K,32K", "--out", sim) == 0
        assert sorted(p.name for p in sim.iterdir()) == ["curve_instruction.csv", "manifest.json"]
        out = workdir / "r"
        assert run("report", "--curves", sim, "--out", out) == 0
        curves = json.loads((out / "bundle.json").read_text())["curves"]
        assert list(curves) == ["curve_instruction"]

    def test_two_files_of_one_curve_name_exit_2_names_both(self, workdir, capsys):
        # the later file once replaced the earlier in the report without a word
        sim = workdir / "sim"
        assert run("simulate", workdir / "trace.txt", "--sizes", "16K,32K", "--out", sim) == 0
        (sim / "curve_unified.csv").write_text("capacity_bytes,miss_ratio\n16384,0.5\n")
        out = workdir / "r"
        assert run("report", "--curves", sim, "--out", out) == 2
        assert (f"{sim / 'curve.csv'} and {sim / 'curve_unified.csv'} both name the curve "
                "'curve_unified'") in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_stack_row_exit_2_names_line(self, workdir, capsys):
        # the last of two rows once replaced the first without a word
        stack_csv = workdir / "stack.csv"
        stack_csv.write_text(
            "algorithm,stack,metric,value\n"
            "sort,hadoop,ipc,1.0\n"
            "sort,spark,ipc,2.0\n"
            "sort,hadoop,ipc,50.0\n"
        )
        out = workdir / "r"
        assert run("report", "--stack-table", stack_csv, "--out", out) == 2
        assert (f"{stack_csv}: line 4: duplicate row for algorithm 'sort', stack 'hadoop', "
                "metric 'ipc'") in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_labels_workload_exit_2_names_line(self, workdir, capsys):
        # the last row once replaced the first, so w1 counted only as I/O-intensive
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        labels = workdir / "labels.csv"
        labels.write_text(
            "workload,category,system,data_out,data_intermediate\n"
            "w1,data_analysis,cpu_intensive,much_less,less\n"
            "w2,service,io_intensive,equal,none\n"
            "w1,data_analysis,io_intensive,much_less,less\n"
        )
        out = workdir / "r"
        assert run("report", "--vectors", workdir / "ingest" / "vectors.json",
                   "--labels", labels, "--out", out) == 2
        assert f"{labels}: line 4: duplicate row for workload 'w1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("metrics", ["", "ipc,", ",", "ipc,,l1i_mpki"])
    def test_empty_metric_item_exits_2(self, workdir, capsys, metrics):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
        out = workdir / "r"
        assert run("report", "--vectors", workdir / "ingest" / "vectors.json",
                   "--labels", workdir / "classify" / "labels.csv", "--metrics", metrics,
                   "--out", out) == 2
        assert f"--metrics {metrics!r} has an empty item" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_and_stack_columns_add_their_summaries(self, workdir):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
        header, w1, w2 = (workdir / "classify" / "labels.csv").read_text().splitlines()
        labels = workdir / "labels.csv"
        labels.write_text(f"{header},suite,stack\n{w1},bdb,hadoop\n{w2},hibench,spark\n")
        out = workdir / "r"
        assert run("report", "--vectors", workdir / "ingest" / "vectors.json",
                   "--labels", labels, "--metrics", "ipc", "--out", out) == 0
        for grouping, groups in (("suite", ["bdb", "hibench"]), ("stack", ["hadoop", "spark"])):
            rows = (out / f"summary_{grouping}.csv").read_text().splitlines()
            assert rows[0] == "group,count,ipc"
            assert [row.split(",")[0] for row in rows[1:]] == groups


class TestCliContract:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run() == 1

    def test_manifest_references_every_output(self, workdir):
        out = workdir / "ingest"
        run("ingest", workdir / "counters.csv", "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == on_disk
        assert manifest["seed"] == 42
        assert all(d.startswith("sha256:") for d in manifest["outputs"].values())

    def test_config_file_with_flag_override(self, workdir):
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"seed": 7, "warmup_s": 0}))
        out = workdir / "cfg"
        code = run(
            "--config", config_path, "--seed", "9",
            "ingest", workdir / "counters.csv", "--out", out,
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config"]["warmup_s"] == 0

    def test_unknown_config_key_exit_2(self, workdir):
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        assert run("--config", config_path, "classify",
                   workdir / "behavior.csv", "--out", workdir / "o") == 2

    @pytest.mark.parametrize("config", ["", "{dir}"])
    def test_config_that_is_not_a_file_exit_2(self, workdir, capsys, config):
        # `--config ''` once ran on the built-in defaults (exit 0), and a
        # directory ended in `Is a directory` (exit 3)
        config = config.format(dir=workdir)
        out = workdir / "o"
        behavior = workdir / "behavior.csv"
        for argv in (["--config", config, "classify", behavior],
                     ["classify", behavior, "--config", config]):
            assert run(*argv, "--out", out) == 2
            assert f"--config {config!r} is not a file" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constant_in_config_exit_2(self, workdir, capsys, constant):
        # the value would reach the manifest, which JSON cannot hold
        config_path = workdir / "config.json"
        config_path.write_text('{"warmup_s": %s}' % constant)
        out = workdir / "o"
        assert run("--config", config_path, "classify", workdir / "behavior.csv",
                   "--out", out) == 2
        assert f"{constant} is not a JSON value" in capsys.readouterr().err
        assert not out.exists()

    def test_number_beyond_float_range_in_config_exit_2(self, workdir, capsys):
        # json reads 1e400 as inf, which would reach the manifest after the outputs
        config_path = workdir / "config.json"
        config_path.write_text('{"warmup_s": 1e400}')
        out = workdir / "o"
        assert run("--config", config_path, "classify", workdir / "behavior.csv",
                   "--out", out) == 2
        assert "1e400 is beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schema", ["", "{dir}"])
    @pytest.mark.parametrize("command", [
        ["ingest", "{dir}/counters.csv"],
        ["report", "--vectors", "{dir}/ingest/profiles.json",
         "--labels", "{dir}/classify/labels.csv"],
    ])
    def test_schema_path_that_is_not_a_file_exit_2(self, workdir, capsys, schema, command):
        # Path("").exists() is true, so "" and a directory once passed the
        # check and the command ended in `wcr: .: Is a directory` (exit 3)
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
        argv = [a.format(dir=workdir) for a in command]
        assert run(*argv, "--out", workdir / "ok") == 0
        schema = schema.format(dir=workdir)
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"schema_path": schema}))
        for prefix, name in ((["--config", config_path], "schema_path"),
                             (["--schema", schema], "--schema")):
            out = workdir / "o"
            assert run(*prefix, *argv, "--out", out) == 2
            assert f"{name} {schema!r} is not a file" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ingest", "{bad}"],
        ["ingest", "{dir}/counters.csv", "--telemetry", "{bad}"],
        ["classify", "{bad}"],
        ["footprint", "{bad}"],
        ["simulate", "{bad}"],
        ["report", "--stack-table", "{bad}"],
        ["report", "--vectors", "{dir}/ingest/vectors.json", "--labels", "{bad}"],
    ])
    def test_undecodable_input_exit_2_names_file(self, workdir, capsys, argv):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        bad = workdir / "bad.txt"
        bad.write_bytes(b"workload,\xff\n")
        argv = [a.format(bad=bad, dir=workdir) for a in argv]
        assert run(*argv, "--out", workdir / "o") == 2
        assert f"{bad}: not valid UTF-8" in capsys.readouterr().err

    def test_bad_text_trace_line_exit_2_names_file(self, workdir, capsys):
        bad = workdir / "bad.txt"
        bad.write_text("I 0x0\nL zz\n")
        assert run("simulate", bad, "--out", workdir / "o") == 2
        assert f"wcr: {bad}: line 2: address 'zz' is not hexadecimal" in capsys.readouterr().err

    # per command: the arguments that read the malformed input, and its text
    MALFORMED = {
        "ingest": (["{bad}"], COUNTER_HEADER + "w1,n1,cycles,abc,1\n"),
        "reduce": (["{bad}"], '{"vectors": ['),
        "classify": (["{bad}"], BEHAVIOR_HEADER + "w,2.0,0,0,1,1,1,service\n"),
        "simulate": (["{bad}"], "I 0x0\nQ 0x40\n"),
        "footprint": (["{bad}"], "capacity_bytes,miss_ratio\n16384,abc\n"),
        "report": (["--stack-table", "{bad}"], "algorithm,stack,metric,value\nwc,mpi,ipc,x\n"),
    }

    @pytest.mark.parametrize("command", sorted(MALFORMED))
    def test_malformed_input_exit_2_leaves_out_absent(self, workdir, command):
        args, text = self.MALFORMED[command]
        bad = workdir / "bad.txt"
        bad.write_text(text)
        out = workdir / "new" / "out"
        assert run(command, *[a.format(bad=bad) for a in args], "--out", out) == 2
        assert not (workdir / "new").exists()

    def test_non_finite_flag_leaves_out_absent(self, workdir, capsys):
        # inf once reached the manifest, whose JSON cannot hold it, and the error
        # named manifest.json rather than the flag
        out = workdir / "o"
        assert run("ingest", workdir / "counters.csv", "--warmup", "inf", "--out", out) == 2
        assert "--warmup" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("ingest", "--warmup"), ("reduce", "--variance-target"), ("footprint", "--knee"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_exit_2_names_it(self, workdir, capsys, command, flag, value):
        out = workdir / "o"
        assert run(command, workdir / "counters.csv", f"{flag}={value}", "--out", out) == 2
        assert f"bad {flag} {value}, expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, read", [
        (["ingest", "{dir}/counters.csv"], ["counters.csv", "s.json"]),
        (["reduce", "{dir}/ingest/profiles.json", "--k", "2"], ["profiles.json", "s.json"]),
        (["report", "--vectors", "{dir}/ingest/profiles.json",
          "--labels", "{dir}/classify/labels.csv"], ["labels.csv", "profiles.json", "s.json"]),
        # a vectors.json carries its own schema, so the schema file is not read
        (["reduce", "{dir}/ingest/vectors.json", "--k", "2"], ["vectors.json"]),
        (["report", "--vectors", "{dir}/ingest/vectors.json",
          "--labels", "{dir}/classify/labels.csv"], ["labels.csv", "vectors.json"]),
    ])
    def test_schema_file_read_is_a_manifest_input(self, workdir, command, read):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
        schema = workdir / "s.json"
        schema.write_text(json.dumps(default_schema().to_dict()))
        digest = "sha256:" + hashlib.sha256(schema.read_bytes()).hexdigest()
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"schema_path": str(schema)}))
        argv = [a.format(dir=workdir) for a in command]
        for i, prefix in enumerate((["--schema", schema], ["--config", config_path])):
            out = workdir / f"o{i}"
            assert run(*prefix, *argv, "--out", out) == 0
            inputs = json.loads((out / "manifest.json").read_text())["inputs"]
            assert [entry["file"] for entry in inputs] == read
            assert all(e["sha256"] == digest for e in inputs if e["file"] == "s.json")

    @pytest.mark.parametrize("where, command", [
        ("--schema", ["ingest", "{dir}/counters.csv"]),
        ("schema_path", ["reduce", "{dir}/ingest/profiles.json", "--k", "2"]),
        ("vectors.json", ["reduce", "{bad}", "--k", "2"]),
        ("vectors.json", ["report", "--vectors", "{bad}",
                          "--labels", "{dir}/classify/labels.csv"]),
    ])
    @pytest.mark.parametrize("change, message", [
        ({"formula_id": "nope"}, "metric 'l1i_mpki': unknown formula 'nope'"),
        ({"unit": "ratio"},
         "metric 'l1i_mpki': unit ratio does not match formula 'l1i_mpki' (per_kilo_instr)"),
    ])
    def test_bad_formula_reference_exit_2_names_metric(self, workdir, capsys, where, command,
                                                       change, message):
        # a schema from a --schema file, a config schema_path or a vectors.json
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("classify", workdir / "behavior.csv", "--out", workdir / "classify") == 0
        schema = default_schema().to_dict()
        next(m for m in schema["metrics"] if m["name"] == "l1i_mpki").update(change)
        bad = workdir / "bad.json"
        if where == "vectors.json":
            payload = json.loads((workdir / "ingest" / "vectors.json").read_text())
            bad.write_text(json.dumps({**payload, "schema": schema}))
            prefix = []
        elif where == "--schema":
            bad.write_text(json.dumps(schema))
            prefix = ["--schema", bad]
        else:
            bad.write_text(json.dumps(schema))
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps({"schema_path": str(bad)}))
            prefix = ["--config", config_path]
        out = workdir / "o"
        argv = [a.format(dir=workdir, bad=bad) for a in command]
        assert run(*prefix, *argv, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, workdir):
        out_a, out_b = workdir / "a", workdir / "b"
        for out in (out_a, out_b):
            assert run(
                "ingest", workdir / "counters.csv",
                "--telemetry", workdir / "telemetry.csv", "--out", out,
            ) == 0
        for name in ("profiles.json", "vectors.json", "system_metrics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # manifests differ only in the recorded --out paths' contents, which
        # are equal here apart from the directory names embedded in inputs
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        assert manifest_a["outputs"] == manifest_b["outputs"]



class TestSettingsFlags:
    """Each settings flag sets its own fields of the manifest's `config` and no other."""

    DEFAULTS = json.loads(json.dumps(RunConfig().to_dict()))
    # a command that takes the flag, with the inputs it reads
    COMMANDS = {
        "ingest": ["ingest", "{dir}/counters.csv"],
        "reduce": ["reduce", "{dir}/ingest/vectors.json"],
        "simulate": ["simulate", "{dir}/trace.txt"],
        "footprint": ["footprint", "{dir}/sim/curve.csv"],
    }

    @pytest.fixture
    def inputs(self, workdir):
        assert run("ingest", workdir / "counters.csv", "--out", workdir / "ingest") == 0
        assert run("simulate", workdir / "trace.txt", "--out", workdir / "sim") == 0
        (workdir / "s.json").write_text(json.dumps(default_schema().to_dict()))
        (workdir / "config.json").write_text(json.dumps({"warmup_s": 5.0, "restarts": 3}))
        return workdir

    def config_of(self, workdir, *argv) -> dict:
        out = workdir / "o"
        assert run(*[str(a).format(dir=workdir) for a in argv], "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["seed"]
        return manifest["config"]

    @pytest.mark.parametrize("command, flag, fields", [
        ("ingest", ["--warmup", "10"], {"warmup_s": 10.0}),
        ("reduce", ["--variance-target", "0.5"], {"variance_target": 0.5}),
        ("reduce", ["--k", "2"], {"k": 2}),
        ("reduce", ["--k", "auto"], {"k": "auto"}),
        ("reduce", ["--k-range", "2,2"], {"k": "auto", "k_min": 2, "k_max": 2}),
        ("simulate", ["--sizes", "16K,32K"], {"sizes": [16384, 32768]}),
        ("simulate", ["--line", "128"], {"line_bytes": 128}),
        ("simulate", ["--assoc", "4"], {"associativity": 4}),
        ("simulate", ["--assoc", "full"], {"associativity": None}),
        ("footprint", ["--knee", "0.5"], {"knee_ratio": 0.5}),
    ])
    def test_flag_sets_only_its_fields(self, inputs, command, flag, fields):
        assert self.config_of(inputs, *self.COMMANDS[command], *flag) == {
            **self.DEFAULTS, **fields}

    @pytest.mark.parametrize("flag, fields", [
        (["--seed", "7"], {"seed": 7}),
        (["--schema", "{dir}/s.json"], {"schema_path": "{dir}/s.json"}),
        (["--config", "{dir}/config.json"], {"warmup_s": 5.0, "restarts": 3}),
    ])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_common_flag_works_on_either_side_of_the_subcommand(self, inputs, command, flag,
                                                                fields):
        expected = {**self.DEFAULTS, **{k: v.format(dir=inputs) if isinstance(v, str) else v
                                        for k, v in fields.items()}}
        argv = self.COMMANDS[command]
        assert self.config_of(inputs, *flag, *argv) == expected
        assert self.config_of(inputs, *argv, *flag) == expected

    @pytest.mark.parametrize("command, texts", [
        ("ingest", ["random seed (default 42)", "warm-up seconds to trim (default 30)"]),
        ("reduce", ["(default auto)", "(default: 1 to half the workloads)",
                    "PCA variance retention (default 0.85)"]),
        ("simulate", ["line size in bytes (default 64)", "or 'full' (default 8)"]),
        ("footprint", ["knee miss-ratio threshold (default 0.01)"]),
    ])
    def test_help_shows_the_defaults(self, capsys, command, texts):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shown = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert [t for t in texts if t not in shown] == []

    def test_defaults_reach_the_manifest(self, inputs):
        for argv in self.COMMANDS.values():
            assert self.config_of(inputs, *argv) == self.DEFAULTS

    @pytest.mark.parametrize("first, code, then", [
        (["reduce", "{dir}/ingest/vectors.json", "--k", "2"], 0, "reduce"),
        (["--config", "{dir}/config.json", "ingest", "{dir}/counters.csv"], 0, "ingest"),
        (["ingest", "{dir}/counters.csv", "--warmup", "10", "--bogus"], 1, "ingest"),
    ], ids=["fixed-k", "config-file", "usage-error"])
    def test_no_setting_carries_over_to_the_next_run(self, inputs, first, code, then):
        # one parser serves every `main` call of a process
        out = inputs / "first"
        assert run(*[a.format(dir=inputs) for a in first], "--out", out) == code
        assert self.config_of(inputs, *self.COMMANDS[then]) == self.DEFAULTS


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestPublish:
    """A failed write leaves `--out` as it was: absent, or an earlier run's files."""

    @staticmethod
    def fail_second_write(monkeypatch):
        write_bytes, calls = Path.write_bytes, []

        def write_or_fail(path, data):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(28, "No space left on device", str(path))
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_or_fail)
        return calls

    def test_new_out_is_not_created(self, workdir, monkeypatch, capsys):
        assert full_report(workdir) == 0
        calls = self.fail_second_write(monkeypatch)
        out = workdir / "new" / "out"
        assert run("report", "--curves", workdir / "sim", "--out", out) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert len(calls) == 2 and calls[0].parent == out / "curves"
        assert not (workdir / "new").exists()

    def test_earlier_run_is_kept(self, workdir, monkeypatch):
        assert full_report(workdir) == 0
        out = workdir / "r"
        assert run("report", "--out", out) == 0
        before = _tree(out)
        self.fail_second_write(monkeypatch)
        # this run would add curves/ and replace bundle.json and the manifest
        assert run("report", "--curves", workdir / "sim", "--out", out) == 3
        assert _tree(out) == before


# fields that reach the numeric, enum and address parsers, and the characters that
# break a naive CSV split
_TOKENS = [
    "", " ", "w1", "w2", "n1", "cycles", "instructions", "0", "1", "-1", "0.5", "40", "1e400",
    "1" + "0" * 400, "nan", "-inf", "service", "data_analysis", "cpu_intensive", "io_intensive",
    "much_less", "equal", "none", "I", "L", "0x40", "f" * 20, "#", '"', "ipc",
]


def _file_bytes(header: str):
    row = st.tuples(st.sampled_from([",", " "]), st.lists(st.sampled_from(_TOKENS), max_size=8))
    text = st.lists(row.map(lambda r: r[0].join(r[1])), max_size=6).map("\n".join)
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(text, st.binary(max_size=4)).map(lambda t: (header + t[0]).encode() + t[1]),
    )


_HEADERS = {
    "counters": COUNTER_HEADER,
    "telemetry": TELEMETRY_HEADER,
    "behavior": BEHAVIOR_HEADER,
    "curve": "capacity_bytes,miss_ratio\n",
    "labels": "workload,category,system,data_out,data_intermediate,suite,stack\n",
    "stack": "algorithm,stack,metric,value\n",
    "trace": "",
}


# JSON inputs: a valid document of each codec type with one place in it changed to
# any of `_JSON_VALUES`, removed, or joined by an unknown key
_HUGE = object()  # written as the literal 1e400, which Python's json reads as inf
_REMOVED = object()
_JSON_VALUES = [
    None, True, False, 0, 1, -1, 0.5, -0.5, 2 ** 64, 1e300, _HUGE, "", "x", "auto",
    [], {}, [1], {"x": 1}, _REMOVED,
]
_SCHEMA_DOC = {"metrics": [
    {"name": "ipc", "group": "pipeline", "unit": "per_cycle", "formula_id": "ipc"},
    {"name": "l1i_mpki", "group": "cache", "unit": "per_kilo_instr", "formula_id": "l1i_mpki"},
], "version": "v"}
_BASE_DOCS = {
    "schema": _SCHEMA_DOC,
    "vectors": {"schema": _SCHEMA_DOC, "vectors": [
        {"workload_id": w, "values": values, "schema_version": "v"}
        for w, values in (("w1", [1.28, 15]), ("w2", [0.5, 3]), ("w3", [1.0, 7]))
    ]},
    "profiles": {"profiles": [
        {"workload_id": w, "counters": {**FIXTURE_COUNTERS, "cycles": cycles},
         "wall_time_s": 100, "node_count": 1, "stack": ""}
        for w, cycles in (("w1", 2e9), ("w2", 4e9), ("w3", 3e9))
    ]},
    "segments": {"segments": [{"begin": 0, "end": 4, "weight": 0.5},
                              {"begin": 4, "end": 8, "weight": 0.5}]},
}


def _places(doc, path=()) -> list[tuple]:
    """The path of every object member and list item in `doc`, and of an unknown
    member of every object."""
    if isinstance(doc, dict):
        places, items = [path + ("bogus",)], doc.items()
    elif isinstance(doc, list):
        places, items = [], enumerate(doc)
    else:
        return []
    for key, value in items:
        places += [path + (key,)] + _places(value, path + (key,))
    return places


def _changed(doc, path: tuple, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is not _REMOVED:
        node[path[-1]] = value
    elif isinstance(node, list) or path[-1] in node:
        del node[path[-1]]
    return doc


def _documents(base):
    return st.builds(_changed, st.just(base), st.sampled_from(_places(base)),
                     st.sampled_from(_JSON_VALUES))


def _json_text(value) -> str:
    if value is _HUGE:
        return "1e400"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    return json.dumps(value)


# a run config is mostly defaults: one key is set, to one of these
_CONFIG_VALUES = {
    "schema_path": [None, "", "nope.json"],
    "warmup_s": [0, -1, _HUGE],
    "variance_target": [0.5, 0, 2, _HUGE],
    "k": ["auto", 1, 3, 0, -1, "x"],
    "k_min": [1, 3, 0, -1],
    "k_max": [None, 1, 3, 0],
    "seed": [0, -1, 2 ** 64],
    "restarts": [1, 0, -1],  # each restart costs a k-means run
    "sizes": [[16384], [], [0], [-64], [1000], [16384, 16384]],
    "knee_ratio": [0.5, 0, -1, _HUGE],
    "line_bytes": [64, 0, -1, 48, 2 ** 64],
    "associativity": [None, 1, 0, -1, 2 ** 64],
}
# per command: its arguments, and the --config keys it reads
_CONFIG_COMMANDS = {
    "ingest": (["ingest", "{tmp}/counters.csv"], ("schema_path", "warmup_s")),
    "reduce": (["reduce", "{tmp}/ingest/vectors.json"],
               ("variance_target", "k", "k_min", "k_max", "seed", "restarts")),
    "simulate": (["simulate", "{tmp}/trace.txt"], ("sizes", "line_bytes", "associativity")),
    "footprint": (["footprint", "{tmp}/curve.csv"], ("knee_ratio",)),
    "report": (["report", "--vectors", "{tmp}/ingest/profiles.json",
                "--labels", "{tmp}/labels.csv"], ("schema_path",)),
}
_JSON_DOCS = {
    "profiles-reduce": _documents(_BASE_DOCS["profiles"]),
    "profiles-report": _documents(_BASE_DOCS["profiles"]),
    "schema": _documents(_BASE_DOCS["schema"]),
    "segments": _documents(_BASE_DOCS["segments"]),
    "vectors-reduce": _documents(_BASE_DOCS["vectors"]),
    "vectors-report": _documents(_BASE_DOCS["vectors"]),
    **{f"config-{command}": st.sampled_from(
        [{key: value} for key in keys for value in _CONFIG_VALUES[key]]
    ) for command, (_, keys) in _CONFIG_COMMANDS.items()},
}
LABELS_CSV = (
    "workload,category,system,data_out,data_intermediate\n"
    "w1,data_analysis,cpu_intensive,much_less,less\n"
    "w2,service,io_intensive,equal,none\n"
    "w3,service,io_intensive,equal,none\n"
)


def _argv(target: str, tmp: Path, blob: Path) -> list:
    (tmp / "counters.csv").write_text(two_workload_counters())
    (tmp / "labels.csv").write_text(LABELS_CSV)
    if target == "labels" or target.startswith("config-"):
        assert run("ingest", tmp / "counters.csv", "--out", tmp / "ingest") == 0
    if target.startswith("config-"):
        (tmp / "trace.txt").write_text("".join(f"I {64 * (i % 4):#x}\n" for i in range(16)))
        (tmp / "curve.csv").write_text("capacity_bytes,miss_ratio\n16384,0.5\n32768,0.001\n")
        command, _ = _CONFIG_COMMANDS[target.removeprefix("config-")]
        return ["--config", blob] + [a.format(tmp=tmp) for a in command] + ["--out", tmp / "out"]
    if target == "segments":
        write_binary_trace(AccessTrace.single(np.arange(8, dtype=np.uint64) * 64,
                                              np.zeros(8, dtype=np.uint8)), tmp / "trace.bin")
    return {
        "counters": ["ingest", blob],
        "telemetry": ["ingest", tmp / "counters.csv", "--telemetry", blob],
        "behavior": ["classify", blob],
        "curve": ["footprint", blob],
        "labels": ["report", "--vectors", tmp / "ingest" / "vectors.json", "--labels", blob],
        "stack": ["report", "--stack-table", blob],
        "trace": ["simulate", blob, "--sizes", "16K,32K"],
        "profiles-reduce": ["reduce", blob],
        "profiles-report": ["report", "--vectors", blob, "--labels", tmp / "labels.csv"],
        "schema": ["--schema", blob, "ingest", tmp / "counters.csv"],
        "segments": ["simulate", tmp / "trace.bin", "--segments", blob, "--sizes", "16K"],
        "vectors-reduce": ["reduce", blob],
        "vectors-report": ["report", "--vectors", blob, "--labels", tmp / "labels.csv"],
    }[target] + ["--out", tmp / "out"]


class TestArbitraryInputBytes:
    @pytest.mark.parametrize("target", sorted(_HEADERS))
    @settings(max_examples=30)
    @given(data=st.data())
    def test_exit_code_is_0_2_or_3(self, target, data):
        """Whatever the bytes of an input file, a command returns an exit code and
        never raises."""
        blob = data.draw(_file_bytes(_HEADERS[target]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_bytes(blob)
            assert run(*_argv(target, Path(tmp), path)) in (0, 2, 3)

    @pytest.mark.parametrize("target", sorted(_JSON_DOCS))
    @settings(max_examples=30)
    @given(data=st.data())
    def test_json_input_exit_code_is_0_2_or_3(self, target, data):
        """Whatever a JSON input holds under the keys its type expects, a command
        returns an exit code and never raises."""
        text = _json_text(data.draw(_JSON_DOCS[target]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(text)
            assert run(*_argv(target, Path(tmp), path)) in (0, 2, 3)
