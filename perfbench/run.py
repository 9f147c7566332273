"""Benchmark launcher: one run of one workload.

    python3 perfbench/run.py --workload {reduce77,sweep1m,pipeline} --seed N \
        --seconds S --trace {0,1} [--full-check]

Writes the seeded inputs under perfbench/out/, then starts perfbench/worker.py
(single-threaded BLAS/OpenMP, no pools) for the timed run; between rounds the
worker starts SETUP_PROBES set-up-only copies of itself, one at a time.
Prints each metric by name with its unit and, as the last line, one JSON
object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from a traced run.
Exits 1 when a check fails and 2 when the checkout holds no `src/wcr`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6
# The timed process gets this long beyond --seconds before it is killed; the
# whole run must end within 180 s.
WORKER_SLACK_S = 130.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("reduce77", "sweep1m", "pipeline")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "reduction.kmeans_best_of_calls": "count",
    "reduction.kmeans_calls": "count",
    "reduction.lloyd_iterations": "count",
    "cachesim.simulate_calls": "count",
    "cachesim.sweep_maccesses_per_s": "M/s",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: argparse.Namespace, inputs: Path, work: Path, result: Path) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--inputs", str(inputs), "--work", str(work),
        "--result", str(result), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--probes", str(0 if args.trace else SETUP_PROBES),
    ]
    if args.full_check:
        command.append("--full-check")
    result.unlink(missing_ok=True)
    t0 = time.monotonic()
    subprocess.run(command + ["--t0", repr(t0)], env=worker_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=args.seconds + WORKER_SLACK_S)
    return json.loads(result.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-check", action="store_true",
                        help="sweep1m: check every capacity against the LRU reference")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "wcr" / "__init__.py").is_file():
        print(f"perfbench: no src/wcr under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import inputs as make

    name = f"{args.workload}-{args.seed}-trace{args.trace}"
    data, work = OUT / "inputs" / name, OUT / "work" / name
    result_path = OUT / "results" / f"{name}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(data, ignore_errors=True)
    try:
        make.make_inputs(args.workload, args.seed, data)
        result = run_worker(args, data, work, result_path)
    except subprocess.SubprocessError as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS.get(name, "s")}
                   for name, value in result["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median(result["setup_s"]),
                  "wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(result['rounds'])} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
