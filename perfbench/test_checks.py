"""Each benchmark check accepts the program's real output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from wcr import cachesim, reduction  # noqa: E402
from wcr.model import MetricVector, default_schema  # noqa: E402


# --- reduce77 ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_reduction():
    points, labels = inputs.plant_clusters(77, 17, 45, seed=5)
    schema = default_schema()
    vectors = [MetricVector.from_values(f"wl{i:02d}", row, schema) for i, row in enumerate(points)]
    result = reduction.reduce_vectors(vectors, schema, reduction.ReductionConfig(k=17))
    return result, labels


def reduction_problems(result, planted, labels=None, inertia=None, representatives=None):
    return checks.check_reduction(
        result.clustering.k, result.normalized.ids,
        result.clustering.labels if labels is None else labels, result.projected,
        result.clustering.inertia if inertia is None else inertia,
        result.representatives if representatives is None else representatives, planted,
    )


def test_reduction_check_accepts_real_output(planted_reduction):
    result, planted = planted_reduction
    assert reduction_problems(result, planted) == []


def test_reduction_check_rejects_swapped_labels(planted_reduction):
    result, planted = planted_reduction
    labels = np.array(result.clustering.labels)
    a = 0
    b = int(np.where(labels != labels[a])[0][0])
    labels[a], labels[b] = labels[b], labels[a]
    problems = reduction_problems(result, planted, labels=labels)
    assert any("adjusted Rand index" in p for p in problems)
    assert any("inertia" in p for p in problems)


def test_reduction_check_rejects_wrong_inertia(planted_reduction):
    result, planted = planted_reduction
    problems = reduction_problems(result, planted, inertia=result.clustering.inertia * 1.001)
    assert any("inertia" in p for p in problems)


def test_reduction_check_rejects_a_representative_that_is_not_nearest(planted_reduction):
    result, planted = planted_reduction
    labels = np.array(result.clustering.labels)
    reps = list(result.representatives)
    members = [result.normalized.ids[i] for i in np.where(labels == 0)[0]]
    reps[0] = next(m for m in members if m != reps[0])
    problems = reduction_problems(result, planted, representatives=reps)
    assert any("nearer its mean" in p for p in problems)


def test_reduction_check_rejects_a_merge_with_lower_bic(planted_reduction):
    result, planted = planted_reduction
    labels = np.array(result.clustering.labels)
    merged = np.where(labels == 16, 0, labels)
    centroids = np.array([result.projected[merged == j].mean(axis=0) for j in range(16)])
    inertia = float(((result.projected - centroids[merged]) ** 2).sum())
    problems = checks.check_reduction(16, result.normalized.ids, merged, result.projected,
                                      inertia, [], planted)
    assert any("below the planted" in p for p in problems)


def test_reduction_check_accepts_a_split_and_rejects_a_mix(planted_reduction):
    result, planted = planted_reduction
    labels = np.array(result.clustering.labels)
    first_of = [int(np.where(labels == j)[0][0]) for j in range(2)]

    def problems_with_new_cluster(rows):
        relabeled = labels.copy()
        relabeled[rows] = 17
        centroids = np.array([result.projected[relabeled == j].mean(axis=0) for j in range(18)])
        inertia = float(((result.projected - centroids[relabeled]) ** 2).sum())
        return checks.check_reduction(18, result.normalized.ids, relabeled, result.projected,
                                      inertia, [], planted)

    assert not any("mix" in p for p in problems_with_new_cluster(first_of[:1]))
    assert any("mix" in p for p in problems_with_new_cluster(first_of))


def test_benchmark_plants_the_same_sets_as_the_test_helpers():
    sys.path.insert(0, str(HERE.parent / "tests"))
    try:
        from helpers import plant_clusters
    finally:
        sys.path.remove(str(HERE.parent / "tests"))
    for seed in (0, 1001, 42):
        points, labels, _ = plant_clusters(77, 17, 45, seed=seed)
        ours, our_labels = inputs.plant_clusters(77, 17, 45, seed)
        assert np.array_equal(points, ours) and np.array_equal(labels, our_labels)


# --- sweep1m ------------------------------------------------------------------------

SMALL_GRID = (1024, 2048, 4096, 8192)


@pytest.fixture(scope="module")
def small_sweep():
    rng = np.random.default_rng(3)
    segments, lines = [], []
    for weight, n, distinct in ((0.6, 3000, 100), (0.4, 2000, 120)):
        seg_lines = (np.uint64(1 << 20) + inputs.zipf_lines(rng, n, distinct, 0.9))
        addresses = seg_lines * np.uint64(64) + rng.integers(0, 64, n).astype(np.uint64)
        kinds = rng.integers(0, 3, n)
        segments.append(cachesim.TraceSegment(weight, addresses, kinds))
        lines.append(checks.segment_lines(addresses, 64))
    trace = cachesim.AccessTrace(tuple(segments))
    curve = cachesim.sweep_capacities(trace, SMALL_GRID, cachesim.CacheConfig(1024))
    points = [(p.capacity_bytes, p.miss_ratio) for p in curve.points]
    weights = [s.weight for s in segments]
    misses = {c: [checks.lru_misses(seg, c // (64 * 8), 8) for seg in lines] for c in SMALL_GRID}
    return points, weights, lines, misses


def test_lru_reference_matches_the_simulator(small_sweep):
    points, weights, lines, misses = small_sweep
    lengths = [len(seg) for seg in lines]
    assert checks.check_curve_points(points, weights, misses, lengths) == []
    assert checks.check_monotone(points) == []
    assert checks.check_no_overflow_point(points, weights, lines, lengths, 64, 8) == []


def test_curve_check_rejects_an_off_by_one_miss_count(small_sweep):
    points, weights, lines, misses = small_sweep
    lengths = [len(seg) for seg in lines]
    capacity = SMALL_GRID[1]
    off_by_one = list(misses[capacity])
    off_by_one[1] += 1
    corrupted = [(c, checks.weighted_ratio(weights, off_by_one, lengths) if c == capacity else r)
                 for c, r in points]
    problems = checks.check_curve_points(corrupted, weights, misses, lengths)
    assert len(problems) == 1 and f"at {capacity} B" in problems[0]


def test_monotone_check_rejects_a_rising_curve(small_sweep):
    points = list(small_sweep[0])
    points[2] = (points[2][0], points[1][1] + 1e-6)
    assert checks.check_monotone(points)


def test_no_overflow_check_rejects_a_wrong_last_point(small_sweep):
    points, weights, lines, _ = small_sweep
    lengths = [len(seg) for seg in lines]
    distinct = [len(set(seg)) for seg in lines]
    distinct[0] -= 1
    corrupted = points[:-1] + [(points[-1][0], checks.weighted_ratio(weights, distinct, lengths))]
    assert checks.check_no_overflow_point(corrupted, weights, lines, lengths, 64, 8)


def test_sweep_trace_fits_the_largest_capacity_without_overflow(tmp_path):
    inputs.make_sweep1m(0, tmp_path)
    records = np.fromfile(tmp_path / "trace.bin", dtype=[("address", "<u8"), ("kind", "u1")])
    assert records.size == sum(n for _, n, _, _ in inputs.SWEEP_SEGMENTS) == 1_000_000
    lines = np.unique(records["address"] // np.uint64(64))
    per_set = np.bincount((lines % np.uint64(16384)).astype(np.int64))
    assert per_set.max() <= 3 * 8   # three segments, each at most 8 lines per set


# --- pipeline ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    data, out = base / "in", base / "out"
    data.mkdir()
    truth = inputs.make_pipeline(11, data)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = worker.run_commands(worker.pipeline_commands(data, out))
    assert codes == [0] * 6
    return out, truth


def test_pipeline_check_accepts_real_output(pipeline_run):
    out, truth = pipeline_run
    assert checks.check_pipeline(out, truth) == []


def test_pipeline_check_rejects_a_wrong_footprint(pipeline_run):
    out, truth = pipeline_run
    wrong = dict(truth, loop_bytes=2 * truth["loop_bytes"])
    problems = checks.check_pipeline(out, wrong)
    assert any(p.startswith("footprint") for p in problems)


def test_pipeline_check_rejects_swapped_reduction_labels(pipeline_run):
    out, truth = pipeline_run
    labels = dict(truth["labels"])
    a = next(iter(labels))
    b = next(w for w in labels if labels[w] != labels[a])
    labels[a], labels[b] = labels[b], labels[a]
    problems = checks.check_pipeline(out, dict(truth, labels=labels))
    assert any("adjusted Rand index" in p for p in problems)


def test_label_check_rejects_swapped_classes(pipeline_run):
    out, _ = pipeline_run
    with open(out / "classify" / "labels.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert checks.check_labels(rows) == []
    a = rows[0]
    b = next(r for r in rows if r["system"] != a["system"])
    a["system"], b["system"] = b["system"], a["system"]
    assert len(checks.check_labels(rows)) == 2


def test_manifest_check_rejects_an_edited_output(pipeline_run, tmp_path):
    out, _ = pipeline_run
    copy = tmp_path / "footprint"
    copy.mkdir()
    for name in ("manifest.json", "footprint.json"):
        (copy / name).write_bytes((out / "footprint" / name).read_bytes())
    assert checks.check_manifest(copy) == []
    payload = json.loads((copy / "footprint.json").read_text())
    payload["capacity_bytes"] *= 2
    (copy / "footprint.json").write_text(json.dumps(payload))
    assert checks.check_manifest(copy)


# --- tracing ------------------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap(child, "child")

    def parent():
        time.sleep(0.01)
        traced_child()

    tracer.wrap(parent, "parent")()
    busy = tracer.self_times()
    assert 0.02 <= busy["child"] < 0.2
    assert 0.01 <= busy["parent"] < busy["child"]
    assert tracer.inclusive_time("parent") >= busy["parent"] + busy["child"] - 1e-9
