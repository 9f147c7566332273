"""The manifest records each input as it is read: once, by the bytes parsed."""

import builtins
import collections
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from helpers import FIXTURE_COUNTERS, write_binary_trace, write_text_trace
from wcr import cachesim, classification, cli, ingest, report
from wcr.cachesim import AccessTrace, TraceSegment
from wcr.model import RawProfile, default_schema, read_json, validate_profile

COUNTER_HEADER = "workload,node,event,count,wall_time_s\n"
TELEMETRY_HEADER = "workload,t_s,cpu_util,io_wait,weighted_io_time_ms,disk_bw,net_bw\n"
BEHAVIOR_HEADER = ("workload,cpu_util,io_wait,weighted_io_ratio,"
                   "input_bytes,output_bytes,intermediate_bytes,category\n")
SIZES = ["--sizes", "1K,2K,4K", "--assoc", "2"]

# per case: the command's arguments, `{d}` the inputs' directory, and the files it reads
COMMANDS = {
    "ingest": (["--schema", "{d}/schema.json", "ingest", "{d}/counters.csv",
                "--telemetry", "{d}/telemetry.csv"],
               ["counters.csv", "schema.json", "telemetry.csv"]),
    "reduce": (["reduce", "{d}/vectors.json", "--k", "2"], ["vectors.json"]),
    "classify": (["classify", "{d}/behavior.csv"], ["behavior.csv"]),
    "simulate-text": (["simulate", "{d}/trace.txt", *SIZES], ["trace.txt"]),
    "simulate-bin": (["simulate", "{d}/trace.bin", "--segments", "{d}/segments.json", *SIZES],
                     ["segments.json", "trace.bin"]),
    "footprint": (["footprint", "{d}/curve.csv"], ["curve.csv"]),
    "report": (["--schema", "{d}/schema.json", "report", "--vectors", "{d}/profiles.json",
                "--labels", "{d}/labels.csv", "--stack-table", "{d}/stack.csv",
                "--curves", "{d}/curves"],
               ["curves/a_instruction.csv", "curves/b.csv", "labels.csv", "profiles.json",
                "schema.json", "stack.csv"]),
}


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def small_trace(seed: int, lengths=(300, 200)) -> AccessTrace:
    rng = np.random.default_rng(seed)
    return AccessTrace(segments=tuple(
        TraceSegment(weight, rng.integers(0, 96, n).astype(np.uint64) * 64,
                     rng.integers(0, 3, n).astype(np.uint8))
        for weight, n in zip((0.25, 0.75), lengths)))


@pytest.fixture
def inputs(tmp_path) -> Path:
    """One valid input of every kind, in a directory of its own."""
    d = tmp_path / "in"
    d.mkdir()
    (d / "counters.csv").write_text(COUNTER_HEADER + "".join(
        f"{w},n1,{event},{count * scale:g},100\n"
        for w, scale in (("w1", 1.0), ("w2", 1.5)) for event, count in FIXTURE_COUNTERS.items()))
    (d / "telemetry.csv").write_text(TELEMETRY_HEADER + "".join(
        f"{w},{t},0.5,0.1,{t * 10},1e6,1e6\n" for w in ("w1", "w2") for t in range(0, 60, 10)))
    (d / "behavior.csv").write_text(BEHAVIOR_HEADER + "w1,0.9,0.02,1,1000000,500,100,service\n")
    (d / "schema.json").write_text(json.dumps(default_schema().to_dict()))
    (d / "labels.csv").write_text("workload,category,system,data_out,data_intermediate\n"
                                  "w1,service,hybrid,equal,none\nw2,service,hybrid,less,none\n")
    (d / "stack.csv").write_text("algorithm,stack,metric,value\nwc,mpi,ipc,2\nwc,spark,ipc,3\n")
    (d / "curve.csv").write_text("capacity_bytes,miss_ratio\n1024,0.5\n2048,0.001\n")
    (d / "curves").mkdir()
    (d / "curves" / "a_instruction.csv").write_text("capacity_bytes,miss_ratio\n1024,0.25\n")
    (d / "curves" / "b.csv").write_text("capacity_bytes,miss_ratio\n1024,0.75\n")
    write_text_trace(small_trace(1), d / "trace.txt")
    write_binary_trace(small_trace(2), d / "trace.bin", d / "segments.json")
    assert run("ingest", d / "counters.csv", "--out", tmp_path / "ingest") == 0
    for name in ("vectors.json", "profiles.json"):
        shutil.copy(tmp_path / "ingest" / name, d / name)
    return d


def argv_and_paths(inputs: Path, case: str) -> tuple[list[str], list[Path]]:
    argv, files = COMMANDS[case]
    return [a.format(d=inputs) for a in argv], [inputs / f for f in files]


def manifest_inputs(out: Path) -> list[dict]:
    return json.loads((out / "manifest.json").read_text())["inputs"]


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_manifest_digest_is_of_the_bytes_parsed(inputs, tmp_path, monkeypatch, case):
    argv, paths = argv_and_paths(inputs, case)
    parsed = [{"file": p.name, "sha256": sha256(p.read_bytes())} for p in paths]
    publish = cli._publish

    def rewrite_inputs_then_publish(*args):
        for path in paths:
            path.write_bytes(b"rewritten after the command read it\n")
        return publish(*args)

    monkeypatch.setattr(cli, "_publish", rewrite_inputs_then_publish)
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 0
    assert manifest_inputs(out) == sorted(parsed, key=lambda e: (e["file"], e["sha256"]))


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_each_input_is_opened_once(inputs, tmp_path, monkeypatch, case):
    argv, paths = argv_and_paths(inputs, case)
    opened, real_open = collections.Counter(), builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            opened[Path(file).resolve()] += 1
        return real_open(file, *args, **kwargs)

    # `io.open` is what `pathlib` calls
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert run(*argv, "--out", tmp_path / "out") == 0
    assert {p.name: opened[p.resolve()] for p in paths} == {p.name: 1 for p in paths}


def test_binary_trace_through_the_cli(inputs, tmp_path):
    """`simulate` on a .bin trace with --segments writes the curve of
    `read_binary_trace`, whether the reader is given paths or the recorder's
    streams, and its manifest lists both files by digest."""
    trace, sidecar = inputs / "trace.bin", inputs / "segments.json"
    out = tmp_path / "out"
    assert run("simulate", trace, "--segments", sidecar, *SIZES, "--out", out) == 0

    recorded = cli._Inputs()
    with recorded.open(trace) as trace_stream, recorded.open(sidecar) as sidecar_stream:
        from_streams = cachesim.read_binary_trace(trace_stream, sidecar_stream)
    template = cachesim.CacheConfig(capacity_bytes=1024, associativity=2)
    for read in (cachesim.read_binary_trace(trace, sidecar), from_streams):
        text = io.StringIO()
        cachesim.write_curve_csv(
            cachesim.sweep_capacities(read, (1024, 2048, 4096), template), text)
        assert (out / "curve.csv").read_text() == text.getvalue()

    listed = [{"file": p.name, "sha256": sha256(p.read_bytes())} for p in (sidecar, trace)]
    assert manifest_inputs(out) == listed
    assert sorted(recorded) == [(e["file"], e["sha256"]) for e in listed]


def labeled(source) -> str:
    out = io.StringIO()
    classification.label_csv(source, out)
    return out.getvalue()


@pytest.mark.parametrize("read, name", [
    (read_json, "schema.json"),
    (ingest.parse_counter_csv, "counters.csv"),
    (ingest.parse_telemetry_csv, "telemetry.csv"),
    (labeled, "behavior.csv"),
    (classification.read_labels_csv, "labels.csv"),
    (report.read_stack_table, "stack.csv"),
    (cachesim.read_curve_csv, "curve.csv"),
    (cachesim.read_text_trace, "trace.txt"),
    (cachesim.read_binary_trace, "trace.bin"),
])
def test_reader_takes_a_path_or_an_open_binary_file(inputs, read, name):
    """Every reader of a file takes a path, as a `str` or a `Path`, or an open binary
    file, a `BytesIO` among them."""
    def plain(value):
        if isinstance(value, AccessTrace):
            return [(s.weight, s.addresses.tolist(), s.kinds.tolist()) for s in value.segments]
        return value

    by_path = plain(read(str(inputs / name)))
    assert plain(read(inputs / name)) == by_path
    with open(inputs / name, "rb") as fh:
        by_stream = read(fh)
        assert not fh.closed  # the caller's file is left to the caller
    assert plain(by_stream) == by_path
    assert plain(read(io.BytesIO((inputs / name).read_bytes()))) == by_path  # no file behind it


NOT_JSON = ("./{}: not valid JSON "
            "(Expecting property name enclosed in double quotes: line 1 column 2 (char 1))")


def vectors_json(values: int, version: str) -> str:
    """A vectors.json of the default schema holding one vector, of workload 'a'."""
    return json.dumps({"schema": default_schema().to_dict(), "vectors": [
        {"workload_id": "a", "values": [0.5] * values, "schema_version": version}]})


# a profile of workload 'a' with one counter, which no schema metric can be derived from
ONE_COUNTER = {"workload_id": "a", "counters": {"cycles": 1}, "wall_time_s": 1}
CANNOT_DERIVE = "workload 'a' cannot be derived: " + "; ".join(
    validate_profile(RawProfile.from_dict(ONE_COUNTER), default_schema()))


# per input kind: the command's arguments, each input given as `./name`; the
# input made bad, and its text; and the message after `wcr: `
BAD_INPUTS = {
    # derivation runs while the counters or profiles are open, so its error names them
    "counters-derive": (["ingest", "./counters.csv"], "counters.csv",
                        COUNTER_HEADER + "a,n1,cycles,1,1\n", f"./counters.csv: {CANNOT_DERIVE}"),
    "profiles-derive": (["reduce", "./profiles.json"], "profiles.json",
                        json.dumps({"profiles": [ONE_COUNTER]}), f"./profiles.json: {CANNOT_DERIVE}"),
    "profiles-derive-report": (["report", "--vectors", "./profiles.json", "--labels",
                                "./labels.csv"], "profiles.json",
                               json.dumps({"profiles": [ONE_COUNTER]}),
                               f"./profiles.json: {CANNOT_DERIVE}"),
    # the schema, read while the profiles are open, names itself
    "profiles-schema": (["--schema", "./schema.json", "reduce", "./profiles.json"],
                        "schema.json", "{", NOT_JSON.format("schema.json")),
    "counters": (["ingest", "./counters.csv"], "counters.csv",
                 COUNTER_HEADER + "w1,n1,instructions_retired,abc,1\n",
                 "./counters.csv: line 2: count 'abc' is not a number"),
    "telemetry": (["ingest", "./counters.csv", "--telemetry", "./telemetry.csv"],
                  "telemetry.csv", TELEMETRY_HEADER + "w1,0,abc,0,0,0,0\n",
                  "./telemetry.csv: line 2: cpu_util 'abc' is not a number"),
    "telemetry-series": (["ingest", "./counters.csv", "--telemetry", "./telemetry.csv"],
                         "telemetry.csv", TELEMETRY_HEADER + "w,0,0.5,0.1,0,0,0\n" * 2,
                         "./telemetry.csv: workload 'w': sample times not strictly increasing "
                         "(0.0 then 0.0)"),
    "behavior": (["classify", "./behavior.csv"], "behavior.csv",
                 BEHAVIOR_HEADER + "w1,2.0,0,0,1,1,1,service\n",
                 "./behavior.csv: line 2: cpu_util 2.0 outside [0, 1]"),
    "labels": (["report", "--vectors", "./vectors.json", "--labels", "./labels.csv"],
               "labels.csv", "workload,category,system,data_out,data_intermediate\n"
               "w1,service,bogus,equal,none\n",
               "./labels.csv: line 2: BehaviorLabels.system: expected SystemBehavior, "
               "got 'bogus'"),
    "labels-workload": (["report", "--vectors", "./vectors.json", "--labels", "./labels.csv"],
                        "labels.csv", "workload,category,system,data_out,data_intermediate\n"
                        "w1,service,hybrid,equal,none\n",
                        "./labels.csv: workload 'w2' has no row"),
    "stack": (["report", "--stack-table", "./stack.csv"], "stack.csv",
              "algorithm,stack,metric,value\nwc,mpi,ipc,abc\n",
              "./stack.csv: line 2: value 'abc' is not a number"),
    "vectors": (["reduce", "./vectors.json"], "vectors.json", "{", NOT_JSON.format("vectors.json")),
    "vectors-decode": (["reduce", "./vectors.json"], "vectors.json", '{"vectors": []}',
                       "./vectors.json: VectorsFile.schema: missing key"),
    "vectors-values": (["reduce", "./vectors.json"], "vectors.json",
                       vectors_json(44, "wcr-default-1"),
                       "./vectors.json: workload 'a': 44 values for a 45-metric schema"),
    "vectors-stale": (["reduce", "./vectors.json"], "vectors.json", vectors_json(45, "old"),
                      "./vectors.json: vector schema_version 'old' does not match schema "
                      "'wcr-default-1'"),
    "vectors-neither": (["reduce", "./vectors.json"], "vectors.json", '{"rows": []}',
                        "./vectors.json: holds neither 'vectors' nor 'profiles'"),
    "profiles": (["reduce", "./profiles.json"], "profiles.json", "{",
                 NOT_JSON.format("profiles.json")),
    "profiles-decode": (["reduce", "./profiles.json"], "profiles.json",
                        '{"profiles": [{"workload_id": "a", "wall_time_s": 1}]}',
                        "./profiles.json: RawProfile.counters: missing key"),
    "schema": (["--schema", "./schema.json", "ingest", "./counters.csv"], "schema.json", "{",
               NOT_JSON.format("schema.json")),
    "schema-check": (["--schema", "./schema.json", "ingest", "./counters.csv"], "schema.json",
                     '{"metrics": [], "version": ""}',
                     "./schema.json: schema version must be non-empty"),
    "curve": (["footprint", "./curve.csv"], "curve.csv", "capacity_bytes,miss_ratio\n1024,abc\n",
              "./curve.csv: line 2: miss_ratio 'abc' is not a number"),
    "curves": (["report", "--curves", "./curves"], "curves/b.csv",
               "capacity_bytes,miss_ratio\nabc,0.5\n",
               "./curves/b.csv: line 2: capacity_bytes 'abc' is not an integer"),
    "text-trace": (["simulate", "./trace.txt"], "trace.txt", "I 0x0\nQ 0x40\n",
                   "./trace.txt: line 2: unknown access kind 'Q'"),
    "text-trace-segments": (["simulate", "./trace.txt", "--segments", "./segments.json"],
                            "trace.txt", "I 0x0\n",
                            "--segments applies only to a .bin trace, not ./trace.txt"),
    "text-trace-empty": (["simulate", "./trace.txt"], "trace.txt", "# no accesses\n",
                         "./trace.txt: trace has no accesses"),
    "bin-trace": (["simulate", "./trace.bin"], "trace.bin", "12345",
                  "./trace.bin: 5 bytes is not a whole number of records"),
    # a bad kind is the trace's fault, though the sidecar is open too
    "bin-trace-kind": (["simulate", "./trace.bin", "--segments", "./segments.json"], "trace.bin",
                       "\0" * 8 + "\7", "./trace.bin: kinds contain values outside the "
                       "access-kind codes"),
    "sidecar": (["simulate", "./trace.bin", "--segments", "./segments.json"], "segments.json",
                "{", NOT_JSON.format("segments.json")),
    "sidecar-decode": (["simulate", "./trace.bin", "--segments", "./segments.json"],
                       "segments.json", '{"segments": [{"begin": 0, "end": 1}]}',
                       "./segments.json: SegmentSpan.weight: missing key"),
    "sidecar-range": (["simulate", "./trace.bin", "--segments", "./segments.json"],
                      "segments.json", '{"segments": [{"begin": 0, "end": 501, "weight": 1}]}',
                      "./segments.json: sidecar segment [0, 501) is out of order or out of range"),
    "config": (["ingest", "./counters.csv", "--config", "./config.json"], "config.json", "{",
               NOT_JSON.format("config.json")),
    "config-decode": (["ingest", "./counters.csv", "--config", "./config.json"], "config.json",
                      '{"restarts": "x"}', "./config.json: RunConfig.restarts: expected int, "
                      "got 'x'"),
    "config-schema-path": (["ingest", "./counters.csv", "--config", "./config.json"],
                           "config.json", '{"schema_path": "nowhere.json"}',
                           "./config.json: schema_path 'nowhere.json' is not a file"),
}
# the cases that are usage errors, not data errors: the input does not suit the flags
USAGE_ERRORS = {"text-trace-segments"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_row_names_its_file(inputs, tmp_path, monkeypatch, capsys, case):
    """A bad input of every kind is named as the user typed it, and the file and
    the workload only once."""
    argv, bad, text, message = BAD_INPUTS[case]
    (inputs / bad).write_text(text)
    monkeypatch.chdir(inputs)
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == (cli.EXIT_USAGE if case in USAGE_ERRORS else cli.EXIT_DATA)
    assert capsys.readouterr().err == f"wcr: {message}\n"
    assert not out.exists()
