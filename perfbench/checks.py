"""Correctness checks computed apart from `wcr`.

Each check takes the program's output and returns a list of problems; an
empty list means the output passed. Nothing here calls into `wcr`: the
references are plain numpy or plain Python.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

# --- reduction -------------------------------------------------------------------


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        raise ValueError("labelings differ in length")

    def pairs(x: int) -> int:
        return x * (x - 1) // 2

    together = sum(pairs(c) for c in Counter(zip(a, b)).values())
    in_a = sum(pairs(c) for c in Counter(a).values())
    in_b = sum(pairs(c) for c in Counter(b).values())
    expected = in_a * in_b / pairs(len(a))
    best = (in_a + in_b) / 2.0
    if best == expected:
        return 1.0
    return (together - expected) / (best - expected)


def bic(points: np.ndarray, labels: np.ndarray, k: int) -> float:
    """BIC of a hard partition as `wcr.reduction.bic_score` documents it: spherical
    Gaussians sharing the pooled within-cluster variance, (k-1) + k*d + 1
    parameters, higher is better, +inf at zero variance."""
    n, d = points.shape
    centroids = np.array([points[labels == j].mean(axis=0) for j in range(k)])
    sigma2 = float(((points - centroids[labels]) ** 2).sum()) / (n * d)
    if sigma2 <= 0.0:
        return math.inf
    counts = np.bincount(labels, minlength=k).astype(float)
    log_likelihood = float((counts * np.log(counts / n)).sum()
                           - 0.5 * n * d * (math.log(2.0 * math.pi * sigma2) + 1.0))
    return log_likelihood - 0.5 * ((k - 1) + k * d + 1) * math.log(n)


def check_reduction(found_k: int, ids, labels, projected, inertia, representatives,
                    planted) -> list[str]:
    """Problems with one reduction of a planted set.

    `found_k` is the cluster count the program reports; `ids`, `labels` and
    `projected` are row-aligned; `planted` holds the planted group of each
    row. The chosen partition must score a BIC no lower than the planted
    one's; when it has the planted number of clusters it must be the planted
    partition (adjusted Rand index 1), and otherwise it must split or merge
    planted groups without mixing any two of them.
    """
    problems = []
    labels = np.asarray(labels)
    planted = np.asarray(planted)
    projected = np.asarray(projected, dtype=float)
    planted_k = len(set(planted.tolist()))
    if sorted(set(labels.tolist())) != list(range(found_k)):
        return [f"labels do not name clusters 0..{found_k - 1} each at least once"]
    if found_k == planted_k:
        ari = adjusted_rand_index(labels.tolist(), planted.tolist())
        if ari != 1.0:
            problems.append(f"adjusted Rand index {ari:.6f} against the planted groups, expected 1")
    else:
        # Otherwise the finer of the two partitions must split the coarser
        # one's groups, never mix them.
        fine, coarse = (labels, planted) if found_k > planted_k else (planted, labels)
        if len(set(zip(fine.tolist(), coarse.tolist()))) != len(set(fine.tolist())):
            problems.append(f"k = {found_k} clusters mix the {planted_k} planted groups "
                            f"rather than split or merge them")
    chosen, truth = bic(projected, labels, found_k), bic(projected, planted, planted_k)
    if chosen < truth - 1e-9 * abs(truth):
        problems.append(f"k = {found_k} scores BIC {chosen!r}, below the planted "
                        f"{planted_k} groups' {truth!r}")

    centroids = np.array([projected[labels == j].mean(axis=0) for j in range(found_k)])
    recomputed = float(((projected - centroids[labels]) ** 2).sum())
    if abs(recomputed - inertia) > 1e-9 * max(1.0, abs(recomputed)):
        problems.append(f"inertia {inertia!r} differs from the recomputed {recomputed!r}")

    row_of = {workload: row for row, workload in enumerate(ids)}
    if len(representatives) != found_k:
        problems.append(f"{len(representatives)} representatives for {found_k} clusters")
    for cluster, workload in enumerate(representatives):
        row = row_of.get(workload)
        if row is None or labels[row] != cluster:
            problems.append(f"representative {workload!r} is not a member of cluster {cluster}")
            continue
        members = np.where(labels == cluster)[0]
        d2 = ((projected[members] - centroids[cluster]) ** 2).sum(axis=1)
        own = float(((projected[row] - centroids[cluster]) ** 2).sum())
        if (d2 < own - 1e-12 * max(1.0, own)).any():
            problems.append(f"a member of cluster {cluster} is nearer its mean than {workload!r}")
    return problems


# --- cache sweep -----------------------------------------------------------------


def lru_misses(lines: list[int], set_count: int, ways: int) -> int:
    """Misses of a cold set-associative LRU cache; set = line % set_count."""
    stacks = [[] for _ in range(set_count)]     # most recent last
    misses = 0
    for line in lines:
        stack = stacks[line % set_count]
        if line in stack:
            stack.remove(line)
        else:
            misses += 1
            if len(stack) == ways:
                del stack[0]
        stack.append(line)
    return misses


def weighted_ratio(weights, misses, lengths) -> float:
    """Curve point from per-segment integer misses, summed in segment order."""
    return sum(w * (m / n) for w, m, n in zip(weights, misses, lengths))


def segment_lines(addresses: np.ndarray, line_bytes: int) -> list[int]:
    return (np.asarray(addresses, dtype=np.uint64) // np.uint64(line_bytes)).tolist()


def check_curve_points(points, weights, per_segment_misses, lengths) -> list[str]:
    """Each (capacity, ratio) point against per-segment reference miss counts.

    `per_segment_misses` maps a capacity to its list of per-segment misses.
    The ratio must equal the reference's exactly: an off-by-one miss count
    in a segment of n accesses moves it by weight / n.
    """
    problems = []
    ratios = dict(points)
    for capacity, misses in sorted(per_segment_misses.items()):
        expected = weighted_ratio(weights, misses, lengths)
        if ratios.get(capacity) != expected:
            problems.append(
                f"miss ratio at {capacity} B is {ratios.get(capacity)!r}; per-segment "
                f"reference misses {misses} give {expected!r}"
            )
    return problems


def check_monotone(points) -> list[str]:
    """Misses never rise with capacity (LRU inclusion under set refinement)."""
    problems = []
    for (c0, r0), (c1, r1) in zip(points, points[1:]):
        if r1 > r0:
            problems.append(f"miss ratio rises from {r0!r} at {c0} B to {r1!r} at {c1} B")
    return problems


def check_no_overflow_point(points, weights, lines_per_segment, lengths, line_bytes: int,
                            ways: int) -> list[str]:
    """At the largest capacity, if no set ever holds more than `ways` distinct
    lines, every distinct line misses exactly once."""
    capacity, ratio = points[-1]
    set_count = capacity // (line_bytes * ways)
    distinct = []
    for lines in lines_per_segment:
        unique = np.unique(np.asarray(lines, dtype=np.uint64))
        per_set = np.bincount((unique % np.uint64(set_count)).astype(np.int64),
                              minlength=set_count)
        if per_set.max() > ways:
            return [f"a set overflows at {capacity} B, so the no-overflow premise fails"]
        distinct.append(int(unique.size))
    expected = weighted_ratio(weights, distinct, lengths)
    if ratio != expected:
        return [f"miss ratio at {capacity} B is {ratio!r}; one miss per distinct line "
                f"({distinct}) gives {expected!r}"]
    return []


# --- CLI pipeline ------------------------------------------------------------------


def expected_system(cpu_util: float, io_wait: float, weighted_io_ratio: float) -> str:
    """The documented ordered rules: cpu > 0.85; (wio > 10 or io_wait > 0.2) and cpu < 0.6."""
    if cpu_util > 0.85:
        return "cpu_intensive"
    if (weighted_io_ratio > 10.0 or io_wait > 0.20) and cpu_util < 0.60:
        return "io_intensive"
    return "hybrid"


def expected_band(ratio: float) -> str:
    """The documented bands: <0.01, [0.01, 0.9), [0.9, 1.1), >=1.1."""
    if ratio < 0.01:
        return "much_less"
    if ratio < 0.9:
        return "less"
    if ratio < 1.1:
        return "equal"
    return "greater"


def check_labels(rows: list[dict]) -> list[str]:
    """Labeled behavior rows against the thresholds the classifier documents."""
    problems = []
    for row in rows:
        inp = int(row["input_bytes"])
        intermediate = int(row["intermediate_bytes"])
        want = (
            expected_system(float(row["cpu_util"]), float(row["io_wait"]),
                            float(row["weighted_io_ratio"])),
            expected_band(int(row["output_bytes"]) / inp),
            "none" if intermediate == 0 else expected_band(intermediate / inp),
        )
        got = (row.get("system"), row.get("data_out"), row.get("data_intermediate"))
        if got != want:
            problems.append(f"{row['workload']}: labeled {got}, thresholds give {want}")
    return problems


def expected_loop_curve(capacities, ifetches: int, visits: int, loop_bytes: int,
                        line_bytes: int) -> list[str]:
    """Fully associative LRU on a loop: below the loop size every visit misses,
    at or above it only the first touch of each line does. Six decimals, as
    the curve CSV prints them."""
    loop_lines = loop_bytes // line_bytes
    return [f"{(visits if c < loop_bytes else loop_lines) / ifetches:.6f}" for c in capacities]


def check_manifest(out_dir: Path) -> list[str]:
    """Every output a manifest lists exists and has the recorded sha256."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    for name, digest in manifest["outputs"].items():
        path = out_dir / name
        actual = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        if actual != digest:
            problems.append(f"{path}: manifest digest {digest}, file {actual}")
    return problems


def check_pipeline(out: Path, truth: dict, line_bytes: int = 64) -> list[str]:
    """Problems with the outputs of one CLI pipeline run under `out`."""
    problems = []
    for step in ("ingest", "reduce", "classify", "sim", "footprint", "report"):
        problems += check_manifest(out / step)

    reduction = json.loads((out / "reduce" / "reduction.json").read_text(encoding="utf-8"))
    assignments = reduction["clustering"]["assignments"]
    planted = truth["labels"]
    if set(assignments) != set(planted):
        problems.append("reduction does not cover the planted workloads")
    else:
        ids = sorted(planted)
        ari = adjusted_rand_index([assignments[w] for w in ids], [planted[w] for w in ids])
        if ari != 1.0:
            problems.append(f"reduction's adjusted Rand index {ari:.6f}, expected 1")
        reps = reduction["representatives"]
        if sorted(planted[w] for w in reps) != sorted(set(planted.values())):
            problems.append("representatives do not cover each planted group once")

    with open(out / "classify" / "labels.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(planted):
        problems.append(f"{len(rows)} labeled rows, expected {len(planted)}")
    problems += check_labels(rows)

    with open(out / "sim" / "loop_instruction.csv", encoding="utf-8", newline="") as fh:
        curve = list(csv.DictReader(fh))
    capacities = [int(r["capacity_bytes"]) for r in curve]
    want = expected_loop_curve(capacities, truth["ifetches"], truth["loop_visits"],
                               truth["loop_bytes"], line_bytes)
    if [r["miss_ratio"] for r in curve] != want:
        problems.append(f"loop curve {[r['miss_ratio'] for r in curve]}, expected {want}")

    footprint = json.loads((out / "footprint" / "footprint.json").read_text(encoding="utf-8"))
    if footprint["capacity_bytes"] != truth["loop_bytes"]:
        problems.append(f"footprint {footprint['capacity_bytes']}, looped working set is "
                        f"{truth['loop_bytes']} B")

    bundle = json.loads((out / "report" / "bundle.json").read_text(encoding="utf-8"))
    groupings = sorted(s["grouping"] for s in bundle["summaries"])
    if groupings != ["application_category", "stack", "suite", "system_behavior"]:
        problems.append(f"report groupings {groupings}")
    for summary in bundle["summaries"]:
        counted = sum(row["count"] for row in summary["rows"].values())
        if summary["total_workloads"] != len(planted) or counted != len(planted):
            problems.append(f"report {summary['grouping']} counts {counted} workloads")
    return problems
