"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    FIXTURE_COUNTERS,
    adjusted_rand_index,
    brute_force_kmeans,
    make_profile,
    partition_of,
    planted_metric_vectors,
    reuse_distances,
    simulate_segment,
    stack_distance_oracle,
)
from wcr.cachesim import (
    DEFAULT_SIZE_GRID,
    AccessTrace,
    CacheConfig,
    TraceSegment,
    estimate_footprint,
    sweep_capacities,
)
from wcr.classification import classify_ratio, classify_system_behavior
from wcr.cli import main
from wcr.ingest import derive_microarch_metrics
from wcr.model import (
    DataSizeClass,
    SystemBehavior,
    SystemBehaviorMetrics,
    default_schema,
)
from wcr.reduction import ReductionConfig, fit_pca, kmeans_best_of, project, reduce_vectors
from wcr.report import Grouping, StackMetricRecord, WorkloadRecord, group_summary, stack_impact_table

KIB = 1024


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_reduction_recovery():
    started = time.perf_counter()
    schema, vectors, _, planted = planted_metric_vectors(seed=42)
    result = reduce_vectors(vectors, schema, ReductionConfig(k=17, seed=42))
    elapsed = time.perf_counter() - started

    found = [result.clustering.assignments[v.workload_id] for v in vectors]
    ari = adjusted_rand_index(found, planted.tolist())

    index_of = {v.workload_id: i for i, v in enumerate(vectors)}
    rep_planted_clusters = {planted[index_of[r]] for r in result.representatives}
    one_per_cluster = (
        len(result.representatives) == 17
        and len(set(result.representatives)) == 17
        and len(rep_planted_clusters) == 17
    )
    _verdict(
        "criterion 1: 77->17 planted-cluster recovery",
        ari >= 0.95 and one_per_cluster and elapsed < 10.0,
        f"ARI={ari:.3f}, reps={len(set(result.representatives))}, {elapsed:.2f}s",
    )


def test_criterion_2_kmeans_optimality_oracle():
    failures = 0
    checked = 0
    for instance in range(20):
        rng = np.random.default_rng(1000 + instance)
        points = rng.uniform(size=(8, 2))
        for k in (2, 3):
            best_inertia, best_labels = brute_force_kmeans(points, k)
            clustering = kmeans_best_of(points, k, seed=0, restarts=32)
            checked += 1
            if (
                partition_of(clustering.labels, k) != partition_of(best_labels, k)
                or clustering.inertia != best_inertia
            ):
                failures += 1
    _verdict(
        "criterion 2: best-of-32 k-means equals exhaustive optimum",
        failures == 0,
        f"{checked - failures}/{checked} instances optimal",
    )


def test_criterion_3_pca_properties():
    worst_ortho = 0.0
    worst_variance = 0.0
    worst_reconstruction = 0.0
    for instance in range(100):
        rng = np.random.default_rng(2000 + instance)
        n = int(rng.integers(10, 40))
        d = int(rng.integers(2, 9))
        data = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
        model = fit_pca(data, variance_target=1.0)

        gram = model.components @ model.components.T
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(d)).max()))

        projected = project(data, model)
        variances = projected.var(axis=0, ddof=1)
        worst_variance = max(
            worst_variance, float(np.abs(variances - np.array(model.eigenvalues)).max())
        )

        reconstructed = projected @ model.components
        worst_reconstruction = max(
            worst_reconstruction, float(np.abs(reconstructed - data).max())
        )
    _verdict(
        "criterion 3: PCA orthonormality/variance/reconstruction on 100 matrices",
        worst_ortho <= 1e-9 and worst_variance <= 1e-9 and worst_reconstruction <= 1e-9,
        f"ortho={worst_ortho:.1e}, var={worst_variance:.1e}, rec={worst_reconstruction:.1e}",
    )


SYSTEM_BOUNDARY_TABLE = [
    ((0.84, 0.19, 9), SystemBehavior.HYBRID),
    ((0.85, 0.19, 9), SystemBehavior.HYBRID),
    ((0.86, 0.19, 9), SystemBehavior.CPU_INTENSIVE),
    ((0.84, 0.21, 11), SystemBehavior.HYBRID),
    ((0.50, 0.19, 9), SystemBehavior.HYBRID),
    ((0.50, 0.19, 10), SystemBehavior.HYBRID),
    ((0.50, 0.19, 11), SystemBehavior.IO_INTENSIVE),
    ((0.50, 0.20, 9), SystemBehavior.HYBRID),
    ((0.50, 0.21, 9), SystemBehavior.IO_INTENSIVE),
    ((0.59, 0.19, 11), SystemBehavior.IO_INTENSIVE),
    ((0.60, 0.19, 11), SystemBehavior.HYBRID),
    ((0.86, 0.21, 11), SystemBehavior.CPU_INTENSIVE),
]

BAND_TABLE = [
    (0.009, DataSizeClass.MUCH_LESS),
    (0.01, DataSizeClass.LESS),
    (0.89, DataSizeClass.LESS),
    (0.9, DataSizeClass.EQUAL),
    (1.09, DataSizeClass.EQUAL),
    (1.1, DataSizeClass.GREATER),
]


def test_criterion_4_classification_fixtures():
    system_hits = 0
    for (cpu, iow, wio), expected in SYSTEM_BOUNDARY_TABLE:
        metrics = SystemBehaviorMetrics(cpu_util=cpu, io_wait=iow, weighted_io_ratio=wio)
        if classify_system_behavior(metrics) is expected:
            system_hits += 1
    band_hits = sum(1 for ratio, expected in BAND_TABLE if classify_ratio(ratio) is expected)
    _verdict(
        "criterion 4: strict-boundary classification fixtures",
        system_hits == 12 and band_hits == 6,
        f"system {system_hits}/12, bands {band_hits}/6",
    )


def test_criterion_5_derived_metric_fixtures():
    schema = default_schema()
    vector = derive_microarch_metrics(make_profile(), schema)
    ipc = vector.values[schema.names.index("ipc")]
    l1i_mpki = vector.values[schema.names.index("l1i_mpki")]
    mix_sum = sum(
        vector.values[schema.names.index(name)]
        for name in ("branch_ratio", "integer_ratio", "fp_ratio",
                     "load_ratio", "store_ratio", "other_ratio")
    )
    _verdict(
        "criterion 5: counter fixtures derive IPC 1.28, L1I MPKI 15, mix sums to 1",
        ipc == 1.28 and l1i_mpki == 15.0 and abs(mix_sum - 1.0) <= 1e-9,
        f"ipc={ipc}, l1i_mpki={l1i_mpki}, mix_sum={mix_sum!r}",
    )


def test_criterion_6_cache_oracle_equivalence():
    capacities = (16 * KIB, 64 * KIB, 256 * KIB, 1024 * KIB)
    mismatches = 0
    comparisons = 0
    monotonic = True
    for trace_index in range(50):
        rng = np.random.default_rng(3000 + trace_index)
        lines = rng.integers(0, 2048, size=10_000)
        kinds = rng.integers(0, 3, size=10_000).astype(np.uint8)
        segment = TraceSegment(1.0, lines * np.uint64(64), kinds)

        # fully associative: one set, so one reuse-distance pass serves every capacity
        distances = reuse_distances(segment, set_count=1)
        for associativity in (None, 8):
            for capacity in capacities:
                config = CacheConfig(capacity_bytes=capacity, associativity=associativity)
                simulated = simulate_segment(segment, config).misses
                if associativity is None:
                    oracle = int((distances >= config.ways).sum())
                else:
                    oracle = stack_distance_oracle(
                        segment, config.capacity_lines, config.set_count,
                        line_bytes=config.line_bytes,
                    )
                comparisons += 1
                if simulated != oracle:
                    mismatches += 1

        grid_misses = [
            simulate_segment(segment, CacheConfig(capacity_bytes=s, associativity=None)).misses
            for s in DEFAULT_SIZE_GRID
        ]
        if any(b > a for a, b in zip(grid_misses, grid_misses[1:])):
            monotonic = False
    _verdict(
        "criterion 6: simulator equals reuse-distance oracle; misses monotone in capacity",
        mismatches == 0 and monotonic,
        f"{comparisons - mismatches}/{comparisons} equal, monotone={monotonic}",
    )


def _looped_working_set_trace(ws_bytes: int, line_bytes: int, passes: int) -> AccessTrace:
    lines = np.tile(np.arange(ws_bytes // line_bytes, dtype=np.uint64), passes)
    kinds = np.zeros(lines.shape, dtype=np.uint8)
    return AccessTrace.single(lines * np.uint64(line_bytes), kinds)


def test_criterion_7_footprint_estimation():
    line_bytes = 1024
    template = CacheConfig(
        capacity_bytes=DEFAULT_SIZE_GRID[0], line_bytes=line_bytes, associativity=8
    )
    results = {}
    for ws_kib in (1024, 128):
        trace = _looped_working_set_trace(ws_kib * KIB, line_bytes, passes=101)
        curve = sweep_capacities(trace, DEFAULT_SIZE_GRID, template)
        results[ws_kib] = estimate_footprint(curve, knee_ratio=0.01)
    _verdict(
        "criterion 7: looped working sets read off the capacity grid",
        results[1024] == 1024 * KIB and results[128] == 128 * KIB,
        f"1024KiB set -> {results[1024]}, 128KiB set -> {results[128]}",
    )


STACK_L1I_MPKI = {
    # six algorithms, three stacks; wordcount values fixed by the
    # reference comparison, the rest chosen to hit the group means
    "mpi": {
        "wordcount": 2.0, "grep": 3.0, "sort": 3.4,
        "bayes": 4.0, "kmeans": 4.0, "pagerank": 4.0,
    },
    "hadoop": {
        "wordcount": 7.0, "grep": 10.0, "sort": 12.0,
        "bayes": 13.0, "kmeans": 11.0, "pagerank": 14.0,
    },
    "spark": {
        "wordcount": 17.0, "grep": 16.0, "sort": 13.2,
        "bayes": 12.0, "kmeans": 11.0, "pagerank": 15.0,
    },
}


def test_criterion_8_stack_impact_report():
    records = [
        WorkloadRecord(
            workload_id=f"{stack}-{algorithm}",
            metrics={"l1i_mpki": value},
            stack=stack,
        )
        for stack, per_algorithm in STACK_L1I_MPKI.items()
        for algorithm, value in per_algorithm.items()
    ]
    summary = group_summary(records, Grouping.STACK, ["l1i_mpki"])
    mpi_mean = summary.rows["mpi"].means["l1i_mpki"]
    hadoop = summary.rows["hadoop"]
    spark = summary.rows["spark"]
    combined = (
        hadoop.means["l1i_mpki"] * hadoop.count + spark.means["l1i_mpki"] * spark.count
    ) / (hadoop.count + spark.count)

    table = stack_impact_table([
        StackMetricRecord(algorithm, stack, {"l1i_mpki": value})
        for stack, per_algorithm in STACK_L1I_MPKI.items()
        for algorithm, value in per_algorithm.items()
    ])
    wordcount_row = next(r for r in table.rows if r.algorithm == "wordcount")
    _verdict(
        "criterion 8: stack-impact means and order-of-magnitude flag",
        abs(mpi_mean - 3.4) <= 0.1
        and abs(combined - 12.6) <= 0.1
        and wordcount_row.max_min_ratio == pytest.approx(8.5)
        and wordcount_row.flag == "near_order_of_magnitude",
        f"mpi={mpi_mean:.2f}, hadoop/spark={combined:.2f}, "
        f"wordcount ratio={wordcount_row.max_min_ratio:.2f} flag={wordcount_row.flag}",
    )


def _run_full_pipeline(root: Path, out: Path) -> None:
    def run(*argv):
        code = main([str(a) for a in argv])
        assert code == 0, f"command failed: {argv}"

    run("ingest", root / "counters.csv", "--telemetry", root / "telemetry.csv",
        "--out", out / "ingest")
    run("reduce", out / "ingest" / "vectors.json", "--k", "2", "--seed", "42",
        "--out", out / "reduce")
    run("classify", root / "behavior.csv", "--out", out / "classify")
    run("simulate", root / "trace.txt", "--kinds", "ifetch",
        "--sizes", "16K,32K,64K", "--workload", "w1", "--out", out / "sim")
    run("footprint", out / "sim" / "w1_instruction.csv", "--knee", "0.5",
        "--out", out / "footprint")
    run("report", "--vectors", out / "ingest" / "vectors.json",
        "--labels", out / "classify" / "labels.csv",
        "--curves", out / "sim",
        "--metrics", "ipc,l1i_mpki",
        "--out", out / "report")


def test_criterion_9_end_to_end_determinism(tmp_path):
    from test_cli import BEHAVIOR_HEADER, TELEMETRY_HEADER, two_workload_counters

    root = tmp_path / "inputs"
    root.mkdir()
    (root / "counters.csv").write_text(two_workload_counters())
    (root / "telemetry.csv").write_text(
        TELEMETRY_HEADER
        + "".join(f"w1,{t},0.9,0.02,{t * 100},1e6,1e6\n" for t in range(0, 120, 10))
        + "".join(f"w2,{t},0.5,0.25,{t * 12000},1e7,1e6\n" for t in range(0, 120, 10))
    )
    (root / "behavior.csv").write_text(
        BEHAVIOR_HEADER
        + "w1,0.9,0.02,1,1000000,500,100,data_analysis\n"
        + "w2,0.5,0.25,12,1000,1000,0,service\n"
    )
    (root / "trace.txt").write_text(
        "".join(f"I {64 * (i % 4):#x}\n" for i in range(64))
    )

    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    _run_full_pipeline(root, out_a)
    _run_full_pipeline(root, out_b)

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    identical = files_a == files_b
    differing = []
    if identical:
        for rel in files_a:
            if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
                differing.append(str(rel))
    identical = identical and not differing
    _verdict(
        "criterion 9: two full pipeline runs are byte-identical",
        identical,
        f"{len(files_a)} files compared" + (f"; differ: {differing}" if differing else ""),
    )
