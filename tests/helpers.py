"""Shared fixtures, trace writers and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np

from wcr.cachesim import (
    _KIND_TOKENS,
    _RECORD_DTYPE,
    ALL_KINDS,
    AccessKind,
    AccessTrace,
    CacheConfig,
    SegmentsFile,
    SegmentSpan,
    SimResult,
    TraceSegment,
    _segment_lines,
    previous_accesses,
    simulate,
)
from wcr.errors import DataError, ParseError
from wcr.ingest import COUNTER_ALIASES, COUNTER_CSV_HEADER
from wcr.model import (
    MetricDescriptor,
    MetricGroup,
    MetricSchema,
    MetricUnit,
    MetricVector,
    RawProfile,
    default_schema,
    finite_number,
    read_csv,
    write_json,
)
from wcr.reduction import Clustering

# Counter totals for one plausible five-node run. Instruction and cycle
# totals are chosen so the headline derivations come out to round numbers
# (instructions/cycles = 1.28, 1000*l1i_misses/instructions = 15) and the
# five mix categories cover 98% of retired instructions.
FIXTURE_COUNTERS: dict[str, float] = {
    "instructions_retired": 2_560_000_000,
    "cycles": 2_000_000_000,
    "branch_instructions": 486_400_000,     # 0.19
    "integer_instructions": 972_800_000,    # 0.38
    "fp_instructions": 76_800_000,          # 0.03
    "load_instructions": 665_600_000,       # 0.26
    "store_instructions": 307_200_000,      # 0.12
    "l1i_misses": 38_400_000,               # MPKI 15
    "l1i_accesses": 512_000_000,
    "l1d_misses": 25_600_000,               # MPKI 10
    "l1d_accesses": 972_800_000,
    "l2_misses": 28_160_000,                # MPKI 11
    "l2_accesses": 64_000_000,
    "l3_misses": 3_072_000,                 # MPKI 1.2
    "l3_accesses": 28_160_000,
    "itlb_misses": 128_000,                 # MPKI 0.05
    "itlb_accesses": 2_560_000_000,
    "dtlb_misses": 2_304_000,               # MPKI 0.9
    "dtlb_accesses": 972_800_000,
    "itlb_walk_cycles": 10_000_000,
    "dtlb_walk_cycles": 40_000_000,
    "mispredicted_branches": 13_619_200,    # 2.8% of branches
    "taken_branches": 291_840_000,
    "indirect_branches": 48_640_000,
    "frontend_stall_cycles": 700_000_000,
    "backend_stall_cycles": 500_000_000,
    "resource_stall_cycles": 300_000_000,
    "store_buffer_stall_cycles": 100_000_000,
    "divider_busy_cycles": 20_000_000,
    "machine_clears": 256_000,
    "uops_issued": 3_200_000_000,
    "uops_retired": 3_000_000_000,
    "offcore_requests": 40_000_000,
    "offcore_demand_data_reads": 25_000_000,
    "offcore_rfo_requests": 8_000_000,
    "offcore_writebacks": 7_000_000,
    "offcore_read_occupancy_cycles": 600_000_000,
    "l1d_miss_occupancy_cycles": 400_000_000,
    "snoop_responses": 10_000_000,
    "snoop_hits": 4_000_000,
    "snoop_hitm": 1_000_000,
    "snoop_misses": 5_000_000,
    "fp_operations": 256_000_000,
    "offcore_bytes": 2_560_000_000,
}


def make_profile(workload_id: str = "w1", **overrides) -> RawProfile:
    counters = dict(FIXTURE_COUNTERS)
    counters.update(overrides.pop("counters", {}))
    return RawProfile(
        workload_id=workload_id,
        counters=counters,
        wall_time_s=overrides.pop("wall_time_s", 120.0),
        node_count=overrides.pop("node_count", 5),
        **overrides,
    )


def make_plain_schema(names) -> MetricSchema:
    """A schema for synthetic per-kilo-instruction vectors. Every metric names the
    registered `l1i_mpki` formula, since a schema must reference real formulas;
    the vectors are never derived, so the formula is never applied."""
    return MetricSchema(
        metrics=tuple(
            MetricDescriptor(name=n, group=MetricGroup.CACHE, unit=MetricUnit.PER_KILO_INSTR,
                             formula_id="l1i_mpki")
            for n in names
        ),
        version="test-1",
    )


def reference_parse_counter_csv(text: str) -> list[RawProfile]:
    """`wcr.ingest.parse_counter_csv` written from its docstring's rules,
    one check at a time in the order listed there; the reference for the
    parser's single pass.

    The rows come from `model.read_csv`, the reader every table shares.
    Every field is stripped first, each count goes through `finite_number`,
    and each workload's wall times are kept in a list whose `max` is taken
    at the end.
    """
    _, rows = read_csv(text, COUNTER_CSV_HEADER)
    per_workload: dict[str, tuple[dict[str, float], list[float], set[str]]] = {}
    seen: set[tuple[str, str, str]] = set()
    for lineno, row in rows:
        workload, node, event, count_s, wall_s = [field.strip() for field in row]
        if not (workload and node and event):
            raise ParseError("workload, node and event must be non-empty", line=lineno)
        count = finite_number("count", count_s, lineno)
        if count < 0:
            raise ParseError(f"count {count} is negative", line=lineno)
        wall = finite_number("wall_time_s", wall_s, lineno)
        event = COUNTER_ALIASES.get(event, event)
        if (workload, node, event) in seen:
            raise ParseError(f"duplicate row for workload {workload!r}, node {node!r}, "
                             f"event {event!r}", line=lineno)
        seen.add((workload, node, event))
        totals, walls, nodes = per_workload.setdefault(workload, ({}, [], set()))
        total = totals.get(event, 0.0) + count
        if not math.isfinite(total):
            raise ParseError(f"counts for workload {workload!r}, event {event!r} "
                             "sum beyond the float range", line=lineno)
        totals[event] = total
        walls.append(wall)
        nodes.add(node)
    return [
        RawProfile(workload_id=workload, counters=totals, wall_time_s=max(walls),
                   node_count=len(nodes))
        for workload, (totals, walls, nodes) in per_workload.items()
    ]


def plant_clusters(
    n_points: int,
    n_clusters: int,
    dim: int,
    seed: int,
    sigma: float = 0.01,
    low: float = 0.2,
    high: float = 0.8,
):
    """Gaussian clusters with inter-centroid separation >= 5 * sigma * sqrt(dim).

    Returns (points, labels, centers). Values stay well inside (0, 1) so the
    points can double as metric vectors under ratio-unit constraints.
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
        raise AssertionError("could not place separated centers")

    base, extra = divmod(n_points, n_clusters)
    counts = [base + (1 if i < extra else 0) for i in range(n_clusters)]
    labels = np.repeat(np.arange(n_clusters), counts)
    points = centers[labels] + rng.normal(0.0, sigma, size=(n_points, dim))
    assert points.min() > 0.01 and points.max() < 0.99
    return points, labels, centers


def planted_metric_vectors(seed: int = 42):
    """77 vectors under the default 45-metric schema, planted in 17 clusters."""
    schema = default_schema()
    points, labels, _ = plant_clusters(77, 17, len(schema), seed=seed)
    vectors = [
        MetricVector.from_values(f"wl{i:02d}", points[i], schema) for i in range(len(points))
    ]
    return schema, vectors, points, labels


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    a = list(a)
    b = list(b)
    assert len(a) == len(b)

    def comb2(x: int) -> int:
        return x * (x - 1) // 2

    cells = Counter(zip(a, b))
    sum_cells = sum(comb2(c) for c in cells.values())
    sum_a = sum(comb2(c) for c in Counter(a).values())
    sum_b = sum(comb2(c) for c in Counter(b).values())
    total = comb2(len(a))
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def brute_force_kmeans(points: np.ndarray, k: int):
    """Exhaustive minimum-inertia partition; the k-means optimality oracle.

    Enumerates every assignment of n points to k non-empty clusters and
    computes inertia with the same numpy expression the implementation
    uses, so equal partitions give bit-equal inertia.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    best_inertia = np.inf
    best_labels = None
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) < k:
            continue
        labels = np.array(assignment)
        centroids = np.array([points[labels == j].mean(axis=0) for j in range(k)])
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_inertia, best_labels


def partition_of(labels, k: int) -> frozenset:
    labels = np.asarray(labels)
    return frozenset(
        frozenset(np.where(labels == j)[0].tolist()) for j in range(k)
    )


def reference_relocation_polish(
    points: np.ndarray, labels: np.ndarray, k: int, max_sweeps: int
) -> np.ndarray:
    """Point-by-point single-point relocation; the reference for the screened polish.

    The move rule, visiting order and tie-break are those `wcr.reduction.kmeans`
    documents. Every point is tested on its own, against centroids updated
    in place after each move; every sweep starts from centroids recomputed
    from the members.
    """
    labels = labels.copy()
    for _ in range(max_sweeps):
        counts = np.bincount(labels, minlength=k).astype(float)
        centroids = np.array([points[labels == j].mean(axis=0) for j in range(k)])
        moved = False
        for i, x in enumerate(points):
            a = labels[i]
            if counts[a] < 2:
                continue
            d2 = ((centroids - x) ** 2).sum(axis=1)
            add_cost = counts / (counts + 1.0) * d2
            add_cost[a] = np.inf
            b = int(np.argmin(add_cost))
            if add_cost[b] < counts[a] / (counts[a] - 1.0) * d2[a]:
                centroids[a] = (counts[a] * centroids[a] - x) / (counts[a] - 1.0)
                centroids[b] = (counts[b] * centroids[b] + x) / (counts[b] + 1.0)
                counts[a] -= 1.0
                counts[b] += 1.0
                labels[i] = b
                moved = True
        if not moved:
            break
    return labels


def reference_kmeans(points: np.ndarray, k: int, seed: int, ids=None) -> Clustering:
    """`wcr.reduction.kmeans` computed the plain way; the byte-for-byte reference.

    Seeding, Lloyd, empty-cluster re-seeding, stopping rule, polish and
    history follow what `kmeans` documents, with nothing reused: every Lloyd
    step computes the full n x k x d distance array, each centroid is the
    masked `mean(axis=0)` of its members, and the polish is the
    point-by-point `reference_relocation_polish`. Takes valid arguments only.
    """
    points = np.ascontiguousarray(points, dtype=float)
    n = points.shape[0]
    ids = tuple(str(i) for i in range(n)) if ids is None else tuple(ids)

    def means(labels):
        return np.array([points[labels == j].mean(axis=0) for j in range(k)])

    rng = np.random.default_rng(seed)
    centroids = points[reference_plus_plus_init(points, k, rng)]
    history = []
    iterations = 0
    for _ in range(300):
        iterations += 1
        labels = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        for empty in np.flatnonzero(counts == 0).tolist():
            # the farthest point from its own centroid, among clusters of two or more
            dist_to_own = ((points - centroids[labels]) ** 2).sum(axis=1)
            donor = int(np.argmax(np.where(counts[labels] >= 2, dist_to_own, -np.inf)))
            counts[labels[donor]] -= 1
            counts[empty] += 1
            labels[donor] = empty
            centroids[empty] = points[donor]
        new = means(labels)
        movement = float(np.sqrt(((new - centroids) ** 2).sum(axis=1)).max()) \
            if centroids.size else 0.0
        centroids = new
        history.append(float(((points - centroids[labels]) ** 2).sum()))
        if movement < 1e-6:
            break

    polished = reference_relocation_polish(points, labels, k, max_sweeps=300)
    if np.array_equal(polished, labels):
        inertia = history[-1]
    else:
        labels, centroids = polished, means(polished)
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if inertia < history[-1]:
            history.append(inertia)
    return Clustering(
        k=k,
        assignments={ids[i]: int(labels[i]) for i in range(n)},
        centroids=centroids,
        inertia=inertia,
        iterations=iterations,
        seed=seed,
        labels=tuple(int(v) for v in labels),
        inertia_history=tuple(history),
    )


def reference_plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """k-means++ seeding that draws each center with `Generator.choice`."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    dists = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(dists.sum())
        if total > 0:
            idx = int(rng.choice(n, p=dists / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        dists = np.minimum(dists, ((points - points[idx]) ** 2).sum(axis=1))
    return chosen


# --- trace writers and the reuse-distance oracle ---------------------------------


def simulate_segment(
    segment: TraceSegment, config: CacheConfig, kinds: frozenset[AccessKind] = ALL_KINDS
) -> SimResult:
    """`cachesim.simulate` on one segment, mapped to lines as `sweep_capacities` maps it."""
    lines = _segment_lines(segment, kinds, config.line_bytes)
    return simulate(lines, previous_accesses(lines), config)


_KIND_LETTER = {AccessKind.IFETCH: "I", AccessKind.LOAD: "L", AccessKind.STORE: "S"}


def write_text_trace(trace: AccessTrace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for segment in trace.segments:
            for address, kind in zip(segment.addresses.tolist(), segment.kinds.tolist()):
                fh.write(f"{_KIND_LETTER[AccessKind(kind)]} {address:#x}\n")


def reference_read_text_trace(path: str | Path) -> AccessTrace:
    """Line-by-line text-trace reader; the reference for `read_text_trace`'s blocks.

    Every line, in file order, is split, looked up and converted with
    `int(token, 16)` on its own.
    """
    addresses: list[int] = []
    kinds: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError(f"expected 'kind address', got {raw.strip()!r}",
                                     lineno, path)
                kind = _KIND_TOKENS.get(parts[0].lower())
                if kind is None:
                    raise ParseError(f"unknown access kind {parts[0]!r}", lineno, path)
                try:
                    address = int(parts[1], 16)
                except ValueError:
                    raise ParseError(f"address {parts[1]!r} is not hexadecimal", lineno, path)
                if not 0 <= address < 1 << 64:
                    raise ParseError(f"address {parts[1]!r} is not a 64-bit address",
                                     lineno, path)
                addresses.append(address)
                kinds.append(kind.value)
        except UnicodeDecodeError:
            raise ParseError("not valid UTF-8 text", source=path)
    if not addresses:
        raise ParseError(f"trace {path} has no accesses")
    return AccessTrace.single(addresses, kinds)


def write_binary_trace(
    trace: AccessTrace, path: str | Path, sidecar: str | Path | None = None
) -> None:
    total = sum(len(s) for s in trace.segments)
    records = np.empty(total, dtype=_RECORD_DTYPE)
    offset = 0
    spans = []
    for segment in trace.segments:
        end = offset + len(segment)
        records["address"][offset:end] = segment.addresses
        records["kind"][offset:end] = segment.kinds
        spans.append(SegmentSpan(begin=offset, end=end, weight=segment.weight))
        offset = end
    records.tofile(path)
    if sidecar is not None:
        with open(sidecar, "w", encoding="utf-8") as fh:
            write_json(fh, SegmentsFile(tuple(spans)).to_dict())


class _Fenwick:
    """Prefix-sum tree over 1-based positions."""

    __slots__ = ("tree",)

    def __init__(self, size: int):
        self.tree = [0] * (size + 1)

    def add(self, i: int, delta: int) -> None:
        tree = self.tree
        while i < len(tree):
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def stack_distance_oracle(
    segment: TraceSegment,
    capacity_lines: int,
    set_count: int,
    line_bytes: int = 64,
    kinds: frozenset[AccessKind] = ALL_KINDS,
) -> int:
    """LRU miss count via per-set reuse distances; independent of `simulate`.

    An access misses when it is a first touch of its line, or when the
    number of distinct lines touched in its set since the previous access
    to the same line reaches the set's way count. Assumes every access
    allocates, as the simulator does.
    """
    if capacity_lines <= 0 or set_count <= 0:
        raise DataError("capacity_lines and set_count must be positive")
    if capacity_lines % set_count:
        raise DataError("capacity_lines must be divisible by set_count")
    ways = capacity_lines // set_count
    return int((reuse_distances(segment, set_count, line_bytes, kinds) >= ways).sum())


def reuse_distances(
    segment: TraceSegment,
    set_count: int,
    line_bytes: int = 64,
    kinds: frozenset[AccessKind] = ALL_KINDS,
) -> np.ndarray:
    """The reuse distance of each access, grouped by set: the number of
    distinct lines touched in its set since the previous access to its
    line, or +inf for a first touch.

    The distances do not depend on the way count, so at one `set_count` a
    single pass gives the LRU misses of every capacity: an access misses at
    `ways` ways when its distance is `ways` or more (Mattson et al. 1970).
    """
    addresses = segment.addresses[np.isin(segment.kinds, [k.value for k in kinds])]
    if addresses.size == 0:
        raise DataError("no accesses of the requested kinds in this segment")
    lines = (addresses // np.uint64(line_bytes)).tolist()

    streams: dict[int, list[int]] = {}
    for line in lines:
        streams.setdefault(line % set_count, []).append(line)

    distances: list[float] = []
    for stream in streams.values():
        fenwick = _Fenwick(len(stream))
        last_pos: dict[int, int] = {}
        for pos, line in enumerate(stream, start=1):
            prev = last_pos.get(line)
            if prev is None:
                distances.append(np.inf)
            else:
                # markers sit at each line's most recent position;
                # the count strictly between prev and pos is the reuse distance
                distances.append(fenwick.prefix(pos - 1) - fenwick.prefix(prev))
                fenwick.add(prev, -1)
            fenwick.add(pos, +1)
            last_pos[line] = pos
    return np.array(distances)
