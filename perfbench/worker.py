"""The timed process of one benchmark run.

`run.py` writes the inputs, then starts this process once per run. It
imports `wcr` from the checkout's `src/`, warms every layer up on tiny
inputs, runs whole rounds of the workload's operations until `--seconds`
have passed, checks every output against `checks.py`, and writes one JSON
result file. Between rounds it starts itself with `--setup-only` a few
times, one process at a time, to sample set-up time across the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

KIB = 1024
# The sweep grid: 16 KiB doubling to 8 MiB, the program's default grid,
# written out here so the benchmark's work does not move with that default.
GRID = tuple(kb * KIB for kb in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192))
WAYS = 8
PLANTED_K = inputs.PLANTED_K


@dataclass
class Op:
    """One timed operation: `run` is timed, `prepare` and `judge` are not.

    `judge(output)` returns (succeeded, problems). An operation fails when it
    raises or does not succeed; problems are wrong outputs of operations
    that did not fail.
    """

    name: str
    run: Callable[[], Any]
    judge: Callable[[Any], tuple[bool, list[str]]]
    prepare: Callable[[], None] | None = None


# --- workloads -----------------------------------------------------------------------


class Reduce77:
    """REDUCE_SETS seeded planted sets with auto-k over [1, 30], plus one
    default-config reduction of a fixed planted set."""

    def __init__(self, work: Path, data: Path, seed: int) -> None:
        from wcr import reduction
        from wcr.model import MetricVector, default_schema

        planted = np.load(data / "planted.npz")
        schema = default_schema()

        def vectors(points):
            return [MetricVector.from_values(f"wl{i:02d}", row, schema)
                    for i, row in enumerate(points)]

        def reduce_op(name, points, config, judge):
            batch = vectors(points)
            return Op(name, lambda: reduction.reduce_vectors(batch, schema, config), judge)

        auto_k = reduction.ReductionConfig(k_min=1, k_max=30)
        self.ops = [
            reduce_op(f"planted{j}", planted[f"points{j}"], auto_k,
                      self._judge_planted(planted[f"labels{j}"]))
            for j in range(inputs.REDUCE_SETS)
        ]
        self.ops.append(reduce_op("default_config", planted["default_points"],
                                  reduction.ReductionConfig(),
                                  self._judge_default(planted["default_labels"])))
        self.k_not_planted = 0

    @staticmethod
    def _problems(result, planted_labels) -> list[str]:
        return checks.check_reduction(
            result.clustering.k, result.normalized.ids, result.clustering.labels,
            result.projected, result.clustering.inertia, result.representatives,
            planted_labels,
        )

    def _judge_planted(self, planted_labels):
        def judge(result):
            if result.clustering.k != PLANTED_K:
                self.k_not_planted += 1
            return True, self._problems(result, planted_labels)
        return judge

    def _judge_default(self, planted_labels):
        # The default ReductionConfig must reduce the fixed planted set to its 17
        # groups; anything else is a failed operation, not a wrong output.
        def judge(result):
            if result.clustering.k != PLANTED_K:
                return False, []
            return True, self._problems(result, planted_labels)
        return judge

    def final_problems(self, full: bool) -> list[str]:
        if self.k_not_planted:
            print(f"note: {self.k_not_planted} planted reductions chose k != {PLANTED_K}",
                  file=sys.stderr)
        return []


class Sweep1m:
    """Read the 1M-access binary trace and sweep it over GRID at 8 ways."""

    def __init__(self, work: Path, data: Path, seed: int) -> None:
        from wcr import cachesim

        self.data, self.seed = data, seed
        template = cachesim.CacheConfig(capacity_bytes=GRID[0], line_bytes=inputs.LINE_BYTES,
                                        associativity=WAYS)

        def run():
            trace = cachesim.read_binary_trace(data / "trace.bin", data / "trace.json")
            return cachesim.sweep_capacities(trace, GRID, template)

        self.ops = [Op("sweep", run, self._judge)]
        self.first: list[tuple[int, float]] | None = None

    def _judge(self, curve):
        points = [(p.capacity_bytes, p.miss_ratio) for p in curve.points]
        if self.first is None:
            self.first = points
        problems = []
        if [c for c, _ in points] != list(GRID):
            problems.append(f"curve capacities {[c for c, _ in points]}, expected {list(GRID)}")
        if points != self.first:
            problems.append("the curve differs from the first round's")
        return True, problems + checks.check_monotone(points)

    def reference_capacities(self, full: bool) -> list[int]:
        """The smallest capacity and one more chosen by the seed; all with `full`."""
        if full:
            return list(GRID)
        return [GRID[0], GRID[1 + self.seed % (len(GRID) - 1)]]

    def final_problems(self, full: bool) -> list[str]:
        if self.first is None:
            return []
        spec = json.loads((self.data / "trace.json").read_text())["segments"]
        records = np.fromfile(self.data / "trace.bin", dtype=[("address", "<u8"), ("kind", "u1")])
        weights = [s["weight"] for s in spec]
        lines = [checks.segment_lines(records["address"][s["begin"]:s["end"]], inputs.LINE_BYTES)
                 for s in spec]
        lengths = [len(seg) for seg in lines]
        misses = {}
        for capacity in self.reference_capacities(full):
            set_count = capacity // (inputs.LINE_BYTES * WAYS)
            misses[capacity] = [checks.lru_misses(seg, set_count, WAYS) for seg in lines]
        problems = checks.check_curve_points(self.first, weights, misses, lengths)
        problems += checks.check_no_overflow_point(self.first, weights, lines, lengths,
                                                   inputs.LINE_BYTES, WAYS)
        if full:
            for index in range(len(weights)):
                column = [misses[c][index] for c in GRID]
                if any(b > a for a, b in zip(column, column[1:])):
                    problems.append(f"segment {index} reference misses rise with capacity: {column}")
        return problems


def pipeline_commands(data: Path, out: Path) -> list[list[str]]:
    """The six CLI commands of one pipeline run, inputs under `data`, outputs under `out`."""
    d, o = str(data), str(out)
    return [
        ["ingest", f"{d}/counters.csv", "--telemetry", f"{d}/telemetry.csv", "--out", f"{o}/ingest"],
        ["reduce", f"{o}/ingest/vectors.json", "--k", "17", "--out", f"{o}/reduce"],
        ["classify", f"{d}/behavior.csv", "--out", f"{o}/classify"],
        ["simulate", f"{d}/trace.txt", "--kinds", "ifetch", "--assoc", "full",
         "--workload", "loop", "--out", f"{o}/sim"],
        ["footprint", f"{o}/sim/loop_instruction.csv", "--out", f"{o}/footprint"],
        ["report", "--vectors", f"{o}/ingest/vectors.json", "--labels",
         f"{o}/classify/labels.csv", "--stack-table", f"{d}/stack.csv", "--curves", f"{o}/sim",
         "--out", f"{o}/report"],
    ]


def run_commands(commands: list[list[str]]) -> list[int]:
    """Run CLI commands in-process through `wcr.cli.main`, stopping at the first failure."""
    from wcr import cli

    codes = []
    for argv in commands:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    return codes


class Pipeline:
    """ingest, reduce --k 17, classify, simulate, footprint, report on paper-size
    inputs, one operation per command, so each command's median round is
    taken on its own."""

    def __init__(self, work: Path, data: Path, seed: int) -> None:
        from wcr import cli

        out = work / "pipeline"
        truth = json.loads((data / "truth.json").read_text())
        commands = pipeline_commands(data, out)

        def command_op(argv, last):
            def judge(code):
                if code != 0:
                    return False, []
                return True, checks.check_pipeline(out, truth, inputs.LINE_BYTES) if last else []
            return Op(argv[0], lambda: cli.main(argv), judge)

        self.ops = [command_op(argv, argv is commands[-1]) for argv in commands]
        self.ops[0].prepare = lambda: shutil.rmtree(out, ignore_errors=True)

    def final_problems(self, full: bool) -> list[str]:
        return []


WORKLOADS = {"reduce77": Reduce77, "sweep1m": Sweep1m, "pipeline": Pipeline}


def warm_up(data: Path, out: Path) -> None:
    """Touch every layer once on tiny inputs, so lazy set-up finishes before timing."""
    from wcr import reduction
    from wcr.model import MetricVector, default_schema

    d, o = str(data), str(out)
    codes = run_commands([
        ["ingest", f"{d}/counters.csv", "--telemetry", f"{d}/telemetry.csv", "--out", f"{o}/ingest"],
        ["reduce", f"{o}/ingest/vectors.json", "--k", "2", "--out", f"{o}/reduce"],
        ["classify", f"{d}/behavior.csv", "--out", f"{o}/classify"],
        ["simulate", f"{d}/trace.txt", "--kinds", "ifetch", "--assoc", "full",
         "--workload", "w", "--out", f"{o}/sim"],
        ["simulate", f"{d}/trace.bin", "--out", f"{o}/simbin"],
        ["footprint", f"{o}/sim/w_instruction.csv", "--out", f"{o}/footprint"],
        ["report", "--vectors", f"{o}/ingest/vectors.json", "--labels",
         f"{o}/classify/labels.csv", "--curves", f"{o}/sim", "--out", f"{o}/report"],
    ])
    if codes != [0] * 7:
        raise RuntimeError(f"warm-up commands exited {codes}")
    schema = default_schema()
    points = np.load(data / "points.npy")
    vectors = [MetricVector.from_values(f"w{i}", row, schema) for i, row in enumerate(points)]
    reduction.reduce_vectors(vectors, schema, reduction.ReductionConfig(k_max=4))


# --- the run ---------------------------------------------------------------------------


def batch_time(op_times: list[list[float]]) -> float:
    """Time of the round's batch with every operation at its median round.

    The host runs the same code in speed modes up to 1.9 times apart, set by
    other tenants: slow modes last up to minutes and fast bursts seconds. A
    per-operation median follows the mode that covers most of the run and
    ignores bursts; the fastest repeat follows the bursts (see README.md).
    """
    return sum(statistics.median(times) for times in op_times)


def per_layer(tracer: tracing.Tracer, import_s: float, op_times: list[list[float]],
              round_counts: list[Counter]) -> dict[str, float]:
    """Layer metrics of a traced run.

    Busy times cover every span of the process, the warm-up's included, and
    are divided by the number of rounds; counts are medians over rounds.
    """
    n = len(round_counts)
    busy = tracer.self_times()
    metrics = {"setup.import_s": import_s}
    for span in tracing.SPAN_NAMES:
        metrics[f"{span}_s"] = busy[span] / n
    for name in ("reduction.kmeans_best_of_calls", "reduction.kmeans_calls",
                 "reduction.lloyd_iterations", "cachesim.simulate_calls"):
        metrics[name] = statistics.median(c[name] for c in round_counts)
    sweep_s = tracer.inclusive_time("cachesim.sweep")
    metrics["cachesim.sweep_maccesses_per_s"] = (
        tracer.counts["cachesim.simulated_accesses"] / sweep_s / 1e6 if sweep_s else 0.0)
    metrics["traced.wall_s"] = batch_time(op_times)
    return metrics


def probe_setup(result: Path, work: Path) -> float:
    """Set-up time of a fresh `--setup-only` copy of this process."""
    argv = sys.argv[1:]
    argv[argv.index("--result") + 1] = str(result)
    argv[argv.index("--work") + 1] = str(work)
    t0 = time.monotonic()
    subprocess.run([sys.executable, __file__, *argv, "--setup-only", "--t0", repr(t0)],
                   check=True, stdout=subprocess.DEVNULL)
    return json.loads(result.read_text())["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="directory run.py wrote the inputs to")
    parser.add_argument("--work", required=True, help="scratch directory for program outputs")
    parser.add_argument("--result", required=True, help="JSON file to write the result to")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probes", type=int, default=0,
                        help="set-up probes to spread over the run, between rounds")
    parser.add_argument("--full-check", action="store_true",
                        help="check the sweep against the LRU reference at every capacity")
    args = parser.parse_args()

    started = time.perf_counter()
    import wcr.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - started
    if not Path(wcr.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported wcr from {wcr.__file__}, not from {SRC}")

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    data, work = Path(args.inputs), Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, data, args.seed)
    warm_up(data / "warmup", work / "warmup")
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    setup_samples = [setup_s]
    probe_path = Path(args.result).with_suffix(".setup.json")
    rounds: list[float] = []
    op_times: list[list[float]] = [[] for _ in workload.ops]
    round_counts: list[Counter] = []
    attempted = failed = 0
    problems: list[str] = []
    begin = time.perf_counter()
    while True:
        counts_before = Counter(tracer.counts) if tracer else Counter()
        for op, times in zip(workload.ops, op_times):
            if op.prepare is not None:
                op.prepare()
            attempted += 1
            started = time.perf_counter()
            try:
                output = op.run()
            except Exception:
                times.append(time.perf_counter() - started)
                failed += 1
                print(f"{op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - started)
            succeeded, found = op.judge(output)
            failed += not succeeded
            problems += [f"{op.name}: {p}" for p in found]
        rounds.append(sum(times[-1] for times in op_times))
        if tracer is not None:
            round_counts.append(tracer.counts - counts_before)
        elapsed = time.perf_counter() - begin
        probes_done = len(setup_samples) - 1
        if probes_done < args.probes and elapsed >= probes_done * args.seconds / args.probes:
            setup_samples.append(probe_setup(probe_path, work / "probe"))
        if elapsed >= args.seconds:
            break
    while len(setup_samples) <= args.probes:
        setup_samples.append(probe_setup(probe_path, work / "probe"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.final_problems(args.full_check)

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "rounds": rounds,
        "op_times": {op.name: times for op, times in zip(workload.ops, op_times)},
        "setup_s": setup_samples,
        "wall_s": batch_time(op_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, import_s, op_times, round_counts)
        tracer.write(Path(args.result).with_suffix(".spans.jsonl"))
    Path(args.result).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
