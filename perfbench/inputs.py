"""Seeded input generation for the three benchmark workloads.

Everything here is plain numpy and the standard library; nothing imports
`wcr`, so the inputs cannot drift with the program under test. The same
`(workload, seed)` always writes the same bytes.

Regenerate the inputs of one run without timing anything:

    python3 perfbench/inputs.py --workload sweep1m --seed 7 --out perfbench/out/inputs/sweep1m-7
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# --- planted clusters (reduce77) ----------------------------------------------

PLANTED_N, PLANTED_K, PLANTED_DIM = 77, 17, 45
# Sets per reduce77 round; set j of seed s is planted from seed s * 1000 + j.
REDUCE_SETS = 6
# The default-config reduction always runs on this one fixed set, whatever
# the run's seed, so its failure is the same in every run.
DEFAULT_CONFIG_SEED = 42


def plant_clusters(n_points: int, n_clusters: int, dim: int, seed: int, sigma: float = 0.01,
                   low: float = 0.2, high: float = 0.8):
    """Gaussian clusters with inter-centroid separation >= 5 * sigma * sqrt(dim).

    The same construction and random stream as `tests/helpers.plant_clusters`,
    kept here so the benchmark's inputs do not move when the test helpers do.
    Returns (points, labels).
    """
    rng = np.random.default_rng(seed)
    min_separation = 5.0 * sigma * np.sqrt(dim)
    for _ in range(100):
        centers = rng.uniform(low, high, size=(n_clusters, dim))
        gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(axis=2))
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= min_separation:
            break
    else:
        raise RuntimeError("could not place separated centers")
    base, extra = divmod(n_points, n_clusters)
    counts = [base + (1 if i < extra else 0) for i in range(n_clusters)]
    labels = np.repeat(np.arange(n_clusters), counts)
    points = centers[labels] + rng.normal(0.0, sigma, size=(n_points, dim))
    if not (points.min() > 0.01 and points.max() < 0.99):
        raise RuntimeError("planted points left (0.01, 0.99)")
    return points, labels


def make_reduce77(seed: int, out: Path) -> None:
    arrays = {}
    for j in range(REDUCE_SETS):
        points, labels = plant_clusters(PLANTED_N, PLANTED_K, PLANTED_DIM, seed * 1000 + j)
        arrays[f"points{j}"], arrays[f"labels{j}"] = points, labels
    points, labels = plant_clusters(PLANTED_N, PLANTED_K, PLANTED_DIM, DEFAULT_CONFIG_SEED)
    arrays["default_points"], arrays["default_labels"] = points, labels
    np.savez(out / "planted.npz", **arrays)


# --- 1M-access trace (sweep1m) -------------------------------------------------

LINE_BYTES = 64
# (weight, accesses, distinct-line range, Zipf exponent) per segment. Every
# range fits in the largest grid capacity (8 MiB = 131072 lines), and the
# ranges start at multiples of its 16384 sets, so at 8 MiB no set holds more
# than 8 of a segment's lines.
SWEEP_SEGMENTS = (
    (0.5, 400_000, 3_000, 1.0),     # ~188 KiB of lines
    (0.3, 350_000, 24_000, 0.9),    # ~1.5 MiB
    (0.2, 250_000, 100_000, 0.8),   # ~6.1 MiB
)
KIND_P = (0.35, 0.45, 0.20)         # I, L, S
_RECORD = np.dtype([("address", "<u8"), ("kind", "u1")])


def zipf_lines(rng: np.random.Generator, n: int, distinct: int, exponent: float) -> np.ndarray:
    """`n` draws over `distinct` ranks with P(r) ~ r**-exponent, ranks shuffled to line ids."""
    p = 1.0 / np.arange(1, distinct + 1, dtype=float) ** exponent
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    return rng.permutation(distinct)[ranks].astype(np.uint64)


def make_sweep1m(seed: int, out: Path) -> None:
    rng = np.random.default_rng(seed)
    records, segments, begin = [], [], 0
    for index, (weight, n, distinct, exponent) in enumerate(SWEEP_SEGMENTS):
        base_line = np.uint64((index + 1) << 20)            # a multiple of 16384
        lines = base_line + zipf_lines(rng, n, distinct, exponent)
        seg = np.empty(n, dtype=_RECORD)
        seg["address"] = lines * np.uint64(LINE_BYTES) + rng.integers(0, LINE_BYTES, n).astype(np.uint64)
        seg["kind"] = rng.choice(3, size=n, p=KIND_P).astype(np.uint8)
        records.append(seg)
        segments.append({"begin": begin, "end": begin + n, "weight": weight})
        begin += n
    np.concatenate(records).tofile(out / "trace.bin")
    (out / "trace.json").write_text(json.dumps({"segments": segments}, indent=2) + "\n")


# --- paper-size CLI pipeline ------------------------------------------------------

# Counter totals of one plausible five-node run (the test suite's fixture values).
BASE_COUNTERS: dict[str, float] = {
    "instructions_retired": 2_560_000_000, "cycles": 2_000_000_000,
    "branch_instructions": 486_400_000, "integer_instructions": 972_800_000,
    "fp_instructions": 76_800_000, "load_instructions": 665_600_000,
    "store_instructions": 307_200_000, "l1i_misses": 38_400_000,
    "l1i_accesses": 512_000_000, "l1d_misses": 25_600_000, "l1d_accesses": 972_800_000,
    "l2_misses": 28_160_000, "l2_accesses": 64_000_000, "l3_misses": 3_072_000,
    "l3_accesses": 28_160_000, "itlb_misses": 128_000, "itlb_accesses": 2_560_000_000,
    "dtlb_misses": 2_304_000, "dtlb_accesses": 972_800_000, "itlb_walk_cycles": 10_000_000,
    "dtlb_walk_cycles": 40_000_000, "mispredicted_branches": 13_619_200,
    "taken_branches": 291_840_000, "indirect_branches": 48_640_000,
    "frontend_stall_cycles": 700_000_000, "backend_stall_cycles": 500_000_000,
    "resource_stall_cycles": 300_000_000, "store_buffer_stall_cycles": 100_000_000,
    "divider_busy_cycles": 20_000_000, "machine_clears": 256_000,
    "uops_issued": 3_200_000_000, "uops_retired": 3_000_000_000,
    "offcore_requests": 40_000_000, "offcore_demand_data_reads": 25_000_000,
    "offcore_rfo_requests": 8_000_000, "offcore_writebacks": 7_000_000,
    "offcore_read_occupancy_cycles": 600_000_000, "l1d_miss_occupancy_cycles": 400_000_000,
    "snoop_responses": 10_000_000, "snoop_hits": 4_000_000, "snoop_hitm": 1_000_000,
    "snoop_misses": 5_000_000, "fp_operations": 256_000_000, "offcore_bytes": 2_560_000_000,
}
# Counters that only ever divide in a ratio metric are scaled up, all others
# down, so every ratio metric of every workload stays inside [0, 1].
DENOMINATORS = frozenset({
    "instructions_retired", "cycles", "l1i_accesses", "l1d_accesses", "l2_accesses",
    "l3_accesses", "itlb_accesses", "dtlb_accesses", "uops_issued", "snoop_responses",
    "offcore_bytes",
})
PIPELINE_WORKLOADS, PIPELINE_GROUPS, NODES = 77, 17, 5
NOISE_SIGMA = 0.002                 # per-workload multiplicative counter noise
LOOP_LINES = 512                    # looped instruction working set: 32 KiB
FETCHES_PER_VISIT = 4               # ifetches per visit to a loop line
TRACE_LINES = 200_000
IFETCH_SHARE = 0.6
CATEGORIES = ("data_analysis", "service", "interactive_analysis")
SUITES = ("suite_a", "suite_b", "suite_c", "suite_d")
STACKS = ("hadoop", "spark", "mpi")

# Bands that keep behavior rows away from every rule boundary
# (classification thresholds 0.60 / 0.85 cpu, 0.20 io_wait, 10 weighted I/O,
# 0.01 / 0.9 / 1.1 size ratios).
CPU_BANDS = ((0.30, 0.55), (0.65, 0.80), (0.90, 0.98))
IO_WAIT_BANDS = ((0.01, 0.15), (0.25, 0.50))
WEIGHTED_IO_BANDS = ((0.5, 8.0), (12.0, 40.0))
RATIO_BANDS = ((0.001, 0.008), (0.05, 0.8), (0.95, 1.05), (1.2, 5.0))


def _band(rng: np.random.Generator, bands) -> float:
    low, high = bands[int(rng.integers(len(bands)))]
    return float(rng.uniform(low, high))


def planted_counters(rng: np.random.Generator):
    """Per-workload counter totals in PIPELINE_GROUPS planted groups.

    Each group scales every counter by its own factor, drawn from
    U(1.0, 1.25) for a denominator and U(0.75, 1.0) otherwise; each
    workload then adds N(0, NOISE_SIGMA) multiplicative noise per counter.
    Returns (ids, labels, totals) with totals[i][event].
    """
    events = list(BASE_COUNTERS)
    base = np.array([BASE_COUNTERS[e] for e in events])
    is_denominator = np.array([e in DENOMINATORS for e in events])
    factors = np.where(
        is_denominator,
        rng.uniform(1.0, 1.25, size=(PIPELINE_GROUPS, len(events))),
        rng.uniform(0.75, 1.0, size=(PIPELINE_GROUPS, len(events))),
    )
    base_count, extra = divmod(PIPELINE_WORKLOADS, PIPELINE_GROUPS)
    labels = np.repeat(np.arange(PIPELINE_GROUPS),
                       [base_count + (1 if g < extra else 0) for g in range(PIPELINE_GROUPS)])
    labels = labels[rng.permutation(PIPELINE_WORKLOADS)]
    noise = 1.0 + np.clip(rng.normal(0.0, NOISE_SIGMA, size=(PIPELINE_WORKLOADS, len(events))),
                          -4 * NOISE_SIGMA, 4 * NOISE_SIGMA)
    totals = base * factors[labels] * noise
    ids = [f"wl{i:02d}" for i in range(PIPELINE_WORKLOADS)]
    return ids, labels, [dict(zip(events, row)) for row in totals]


def loop_trace_lines(rng: np.random.Generator):
    """Text-trace lines: ifetches loop over LOOP_LINES lines, loads/stores scatter.

    Returns (lines, ifetch_count, loop_visits).
    """
    order = rng.permutation(LOOP_LINES)
    code_base = 0x400000
    data_base = 0x10000000
    is_fetch = rng.random(TRACE_LINES) < IFETCH_SHARE
    data_kinds = rng.choice(["L", "S"], size=TRACE_LINES, p=(0.7, 0.3))
    data_addrs = data_base + rng.integers(0, 1 << 24, TRACE_LINES)
    out, fetches = [], 0
    for i in range(TRACE_LINES):
        if is_fetch[i]:
            line = int(order[(fetches // FETCHES_PER_VISIT) % LOOP_LINES])
            offset = 16 * (fetches % FETCHES_PER_VISIT)
            out.append(f"I {code_base + line * LINE_BYTES + offset:#x}\n")
            fetches += 1
        else:
            out.append(f"{data_kinds[i]} {int(data_addrs[i]):#x}\n")
    visits = -(-fetches // FETCHES_PER_VISIT)
    return out, fetches, visits


def make_pipeline(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    ids, labels, totals = planted_counters(rng)

    rows = ["workload,node,event,count,wall_time_s\n"]
    for workload, counters in zip(ids, totals):
        wall = float(rng.uniform(100.0, 300.0))
        shares = rng.dirichlet(np.full(NODES, 20.0), size=len(counters))
        for node in range(NODES):
            node_wall = wall * (1.0 - 0.05 * node / NODES)
            for (event, total), share in zip(counters.items(), shares):
                rows.append(f"{workload},n{node},{event},{round(total * share[node])},{node_wall:.3f}\n")
    (out / "counters.csv").write_text("".join(rows))

    rows = ["workload,t_s,cpu_util,io_wait,weighted_io_time_ms,disk_bw,net_bw\n"]
    for workload in ids:
        cpu, iow = rng.uniform(0.2, 0.95), rng.uniform(0.0, 0.4)
        io_rate = rng.uniform(0.0, 20000.0)
        for t in range(0, 130, 10):
            rows.append(
                f"{workload},{t},{cpu:.4f},{iow:.4f},{t * io_rate:.1f},"
                f"{rng.uniform(1e5, 1e8):.1f},{rng.uniform(1e5, 1e8):.1f}\n"
            )
    (out / "telemetry.csv").write_text("".join(rows))

    rows = ["workload,cpu_util,io_wait,weighted_io_ratio,input_bytes,output_bytes,"
            "intermediate_bytes,category,suite,stack\n"]
    for i, workload in enumerate(ids):
        input_bytes = int(rng.integers(10**8, 10**11))
        output_bytes = int(input_bytes * _band(rng, RATIO_BANDS))
        intermediate = 0 if rng.random() < 0.25 else int(input_bytes * _band(rng, RATIO_BANDS))
        rows.append(
            f"{workload},{_band(rng, CPU_BANDS):.4f},{_band(rng, IO_WAIT_BANDS):.4f},"
            f"{_band(rng, WEIGHTED_IO_BANDS):.4f},{input_bytes},{output_bytes},{intermediate},"
            f"{CATEGORIES[int(rng.integers(3))]},{SUITES[i % len(SUITES)]},"
            f"{STACKS[int(rng.integers(3))]}\n"
        )
    (out / "behavior.csv").write_text("".join(rows))

    rows = ["algorithm,stack,metric,value\n"]
    for algorithm in ("wordcount", "sort", "grep", "kmeans", "pagerank"):
        for metric in ("l1i_mpki", "ipc", "l3_mpki"):
            for stack in STACKS:
                rows.append(f"{algorithm},{stack},{metric},{rng.uniform(0.5, 20.0):.4f}\n")
    (out / "stack.csv").write_text("".join(rows))

    lines, fetches, visits = loop_trace_lines(rng)
    (out / "trace.txt").write_text("".join(lines))
    truth = {"labels": dict(zip(ids, labels.tolist())), "ifetches": fetches,
             "loop_visits": visits, "loop_bytes": LOOP_LINES * LINE_BYTES}
    (out / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return truth


# --- warm-up inputs (every workload) -------------------------------------------------


def make_warmup(out: Path) -> None:
    """A tiny input for each layer, so the warm-up touches every module once."""
    rng = np.random.default_rng(0)
    rows = ["workload,node,event,count,wall_time_s\n"]
    for w in range(6):
        for event, total in BASE_COUNTERS.items():
            scale = rng.uniform(1.0, 1.25) if event in DENOMINATORS else rng.uniform(0.75, 1.0)
            rows.append(f"w{w},n0,{event},{round(total * scale)},100\n")
    (out / "counters.csv").write_text("".join(rows))
    (out / "telemetry.csv").write_text(
        "workload,t_s,cpu_util,io_wait,weighted_io_time_ms,disk_bw,net_bw\n"
        + "".join(f"w{w},{t},0.5,0.1,{t * 10},1e6,1e6\n" for w in range(6) for t in range(0, 60, 10))
    )
    (out / "behavior.csv").write_text(
        "workload,cpu_util,io_wait,weighted_io_ratio,input_bytes,output_bytes,"
        "intermediate_bytes,category\n"
        + "".join(f"w{w},0.5,0.1,1,1000,500,0,service\n" for w in range(6))
    )
    (out / "trace.txt").write_text("".join(f"I {64 * (i % 8):#x}\n" for i in range(256)))
    seg = np.empty(4096, dtype=_RECORD)
    seg["address"] = rng.integers(0, 1 << 16, 4096).astype(np.uint64)
    seg["kind"] = rng.integers(0, 3, 4096).astype(np.uint8)
    seg.tofile(out / "trace.bin")
    points, _ = plant_clusters(24, 3, PLANTED_DIM, 0)
    np.save(out / "points.npy", points)


MAKERS = {"reduce77": make_reduce77, "sweep1m": make_sweep1m, "pipeline": make_pipeline}


def make_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the warm-up inputs and the workload's seeded inputs under `out`."""
    (out / "warmup").mkdir(parents=True, exist_ok=True)
    make_warmup(out / "warmup")
    MAKERS[workload](seed, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    make_inputs(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
