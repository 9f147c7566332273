"""A seeded mutation fuzz gate over every file the CLI reads.

Small valid inputs of each kind are mutated with a fixed seed, a fixed
number of cases per input: a line deleted, repeated or extended, the file
cut, a token or a byte replaced, a special token inserted, or the line
endings turned to CRLF. Each case runs the command that reads the input
in-process and must meet three checks:

- the exit code is 0, 1, 2 or 3, and nothing escapes `cli.main`;
- on a non-zero exit, `--out` is left as it was;
- on exit 0, a rerun writes the same bytes.
"""

import contextlib
import io
import json
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from helpers import FIXTURE_COUNTERS, write_binary_trace
from wcr.cachesim import AccessTrace, TraceSegment
from wcr.cli import main
from wcr.model import default_schema

SEED = 20240
CASES_PER_INPUT = 80

COUNTERS = "workload,node,event,count,wall_time_s\n" + "".join(
    f"{w},n{node},{event},{count * scale / 2:g},100\n"
    for w, scale in (("w1", 1.0), ("w2", 1.5), ("w3", 0.7)) for node in (1, 2)
    for event, count in FIXTURE_COUNTERS.items())
TEXT_INPUTS = {
    "counters.csv": COUNTERS,
    "telemetry.csv": "workload,t_s,cpu_util,io_wait,weighted_io_time_ms,disk_bw,net_bw\n"
    + "".join(f"{w},{t},0.5,0.1,{t * 10},1e6,1e6\n" for w in ("w1", "w2") for t in range(0, 60, 10)),
    "behavior.csv": "workload,cpu_util,io_wait,weighted_io_ratio,input_bytes,output_bytes,"
    "intermediate_bytes,category\n"
    "w1,0.9,0.02,1,1000000,500,100,data_analysis\nw2,0.5,0.25,12,1000,1000,0,service\n",
    "labels.csv": "workload,category,system,data_out,data_intermediate,suite,stack\n"
    "w1,data_analysis,cpu_intensive,much_less,less,a,mpi\n"
    "w2,service,io_intensive,equal,none,b,spark\nw3,service,hybrid,greater,equal,b,mpi\n",
    "curve.csv": "capacity_bytes,miss_ratio\n1024,0.5\n2048,0.25\n4096,0.001\n",
    "stack.csv": "algorithm,stack,metric,value\nwc,mpi,ipc,2\nwc,hadoop,ipc,7\nsort,mpi,ipc,3\n",
    "trace.txt": "# kind address\n" + "".join(
        f"{'ILS'[i % 3]} {64 * (i * 7 % 40):#x}\n" for i in range(120)),
    "segments.json": json.dumps({"segments": [{"begin": 0, "end": 40, "weight": 0.25},
                                              {"begin": 40, "end": 96, "weight": 0.75}]}),
    "schema.json": json.dumps(default_schema().to_dict()),
    "config.json": json.dumps({"k": 2, "seed": 3, "restarts": 2, "variance_target": 0.9,
                               "sizes": [1024, 2048]}),
}
SIZES = ["--sizes", "1K,2K,4K", "--assoc", "2"]
# each fuzzed input and the command that reads it; `{input}` is the mutated file,
# `{base}` the directory of the valid inputs
COMMANDS = {
    "counters.csv": ["ingest", "{input}"],
    "telemetry.csv": ["ingest", "{base}/counters.csv", "--telemetry", "{input}"],
    "behavior.csv": ["classify", "{input}"],
    "labels.csv": ["report", "--vectors", "{base}/ingest/vectors.json", "--labels", "{input}"],
    "curve.csv": ["footprint", "{input}"],
    "stack.csv": ["report", "--stack-table", "{input}"],
    "trace.txt": ["simulate", "{input}", *SIZES],
    "trace.bin": ["simulate", "{input}", "--segments", "{base}/segments.json", *SIZES],
    "segments.json": ["simulate", "{base}/trace.bin", "--segments", "{input}", *SIZES],
    "vectors.json": ["reduce", "{input}", "--k", "2"],
    "profiles.json": ["report", "--vectors", "{input}", "--labels", "{base}/labels.csv"],
    "schema.json": ["--schema", "{input}", "ingest", "{base}/counters.csv"],
    "config.json": ["--config", "{input}", "reduce", "{base}/ingest/vectors.json"],
}

SPECIAL_TOKENS = [
    b"", b"nan", b"inf", b"-inf", b"1e400", b"-0", b"1" + b"0" * 400, b"\0", "\u0661".encode(),
    "\ufeff".encode(), b"-1", b"0", b"0.5", b"18446744073709551616", b'"x"', b"null", b"true",
    b"[]", b"{}", b"\xff", b",", b'"',
]
# a CSV field, a JSON leaf or key, or a trace token
TOKEN = re.compile(rb'"[^"\n]*"|[^,\s:{}\[\]"]+')


def mutate(data: bytes, rng: random.Random) -> bytes:
    """`data` with one mutation drawn from `rng`."""
    lines = data.splitlines(keepends=True) or [b""]
    i = rng.randrange(len(lines))
    kind = rng.randrange(9)
    if kind == 0:  # delete a line
        del lines[i]
    elif kind == 1:  # repeat a line
        lines.insert(i, lines[i])
    elif kind == 2:  # extend a line
        lines[i] = lines[i].rstrip(b"\r\n") + b"," + rng.choice(SPECIAL_TOKENS) + b"\n"
    elif kind == 3:  # cut the file
        return data[:rng.randrange(len(data) + 1)]
    elif kind == 4:  # CRLF line endings
        return data.replace(b"\n", b"\r\n")
    elif kind == 5:  # replace a byte
        at = rng.randrange(max(len(data), 1))
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
    elif kind == 6:  # insert a special token
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice(SPECIAL_TOKENS) + data[at:]
    else:  # replace a token (twice as likely as the others)
        tokens = list(TOKEN.finditer(data))
        if not tokens:
            return data + rng.choice(SPECIAL_TOKENS)
        token = rng.choice(tokens)
        return data[:token.start()] + rng.choice(SPECIAL_TOKENS) + data[token.end():]
    return b"".join(lines)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("fuzz-base")
    for name, text in TEXT_INPUTS.items():
        (base / name).write_text(text)
    rng = np.random.default_rng(0)
    write_binary_trace(AccessTrace(segments=(
        TraceSegment(0.25, rng.integers(0, 1 << 14, 40).astype(np.uint64) * 64,
                     rng.integers(0, 3, 40).astype(np.uint8)),
        TraceSegment(0.75, rng.integers(0, 1 << 14, 56).astype(np.uint64) * 64,
                     rng.integers(0, 3, 56).astype(np.uint8)),
    )), base / "trace.bin")
    assert _run(["ingest", base / "counters.csv", "--out", base / "ingest"]) == 0
    shutil.copy(base / "ingest" / "vectors.json", base / "vectors.json")
    shutil.copy(base / "ingest" / "profiles.json", base / "profiles.json")
    return base


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_input_exits_cleanly(base, tmp_path, name):
    original = (base / name).read_bytes()
    def argv(path: Path) -> list[str]:
        return [a.format(base=base, input=path) for a in COMMANDS[name]]

    # the unmutated input runs, so the mutations start from a working command
    assert _run(argv(base / name) + ["--out", tmp_path / "valid"]) == 0
    rng = random.Random(f"{SEED}:{name}")
    codes = []
    for case in range(CASES_PER_INPUT):
        data = mutate(original, rng)
        if rng.random() < 0.25:
            data = mutate(data, rng)
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        (case_dir / name).write_bytes(data)
        out = case_dir / "out"
        out.mkdir()
        (out / "earlier.txt").write_text("an earlier run's file\n")
        case_argv = argv(case_dir / name)
        where = f"case {case} of {name}: {data[:200]!r}"
        try:
            code = _run(case_argv + ["--out", out])
        except BaseException as exc:  # noqa: BLE001 - the check is that nothing escapes
            pytest.fail(f"{where} raised {exc!r}")
        assert code in (0, 1, 2, 3), where
        codes.append(code)
        if code != 0:
            assert _tree(out) == {"earlier.txt": b"an earlier run's file\n"}, where
            continue
        rerun = case_dir / "rerun"
        assert _run(case_argv + ["--out", rerun]) == 0, where
        assert _tree(out) == {**_tree(rerun), "earlier.txt": b"an earlier run's file\n"}, where
    # the gate is not blind: some mutations are rejected
    assert 2 in codes, codes
