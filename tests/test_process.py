"""`wcr` run as a process, through `python -m wcr.cli`, the way a user runs it.

Only a process reaches `cli.entry` and Python's own start-up and exit: the
environment read before any argument, and the flush of stdout at exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcr
from helpers import FIXTURE_COUNTERS

SRC = Path(wcr.__file__).parent.parent
BEHAVIOR = ("workload,cpu_util,io_wait,weighted_io_ratio,input_bytes,output_bytes,"
            "intermediate_bytes,category\nw1,0.9,0.02,1,1000000,500,100,service\n")


def wcr_process(cwd: Path, *argv: str, stdout=subprocess.PIPE, **env: str
                ) -> subprocess.CompletedProcess:
    """Run `wcr` in `cwd` with the environment of this process, less `WCR_LOG`, plus `env`."""
    environ = {k: v for k, v in os.environ.items() if k != "WCR_LOG"}
    environ.update(PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, "-m", "wcr.cli", *argv], cwd=cwd, env=environ,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def test_bad_log_level_is_a_usage_error(tmp_path):
    (tmp_path / "b.csv").write_text(BEHAVIOR)
    run = wcr_process(tmp_path, "classify", "b.csv", "--out", "o", WCR_LOG="bogus")
    assert (run.returncode, run.stderr) == (1, "wcr: WCR_LOG 'bogus' is not a logging level\n")
    assert not (tmp_path / "o").exists()


# with PYTHONUNBUFFERED the write fails in `print`; without it, in the flush
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_broken_stdout_names_stdout(tmp_path, unbuffered):
    (tmp_path / "b.csv").write_text(BEHAVIOR)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        run = wcr_process(tmp_path, "classify", "b.csv", "--out", "o", stdout=write_end,
                          PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    # the outputs were published before the closing line failed
    assert (run.returncode, run.stderr) == (3, "wcr: stdout: Broken pipe\n")
    assert (tmp_path / "o" / "labels.csv").is_file()


def test_input_error_names_the_input_as_typed(tmp_path):
    (tmp_path / "b.csv").write_text(BEHAVIOR.replace("w1,0.9,", "w1,2.0,"))
    run = wcr_process(tmp_path, "classify", "./b.csv", "--out", "o")
    assert (run.returncode, run.stderr) == (
        2, "wcr: ./b.csv: line 2: cpu_util 2.0 outside [0, 1]\n")
    assert not (tmp_path / "o").exists()


def test_identical_runs_write_identical_trees(tmp_path):
    (tmp_path / "counters.csv").write_text("workload,node,event,count,wall_time_s\n" + "".join(
        f"{w},n1,{event},{count * scale:g},100\n"
        for w, scale in (("w1", 1.0), ("w2", 1.5)) for event, count in FIXTURE_COUNTERS.items()))
    trees = []
    for out in ("./a/", "./b/"):
        run = wcr_process(tmp_path, "ingest", "./counters.csv", "--out", out)
        # the closing line prints `--out` as typed
        assert (run.returncode, run.stdout, run.stderr) == (
            0, f"ingested 2 workloads -> {out}\n", "")
        root = tmp_path / out
        trees.append({p.relative_to(root): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert sorted(map(str, trees[0])) == ["manifest.json", "profiles.json", "vectors.json"]
    assert trees[0] == trees[1]
