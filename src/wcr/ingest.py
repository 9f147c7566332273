"""Counter and telemetry ingestion, and derivation of metric vectors.

Counter dumps arrive as CSV (`workload,node,event,count,wall_time_s`),
telemetry as CSV (`workload,t_s,cpu_util,io_wait,weighted_io_time_ms,
disk_bw,net_bw`). Event names are mapped onto a canonical vocabulary via
an alias table, multi-node counts are summed (wall time takes the max),
and each schema descriptor's formula turns counter totals into one metric
value. The default metric table, the formula registry (`FORMULAS`) and the
check of a schema's formula references live in `model`, so every schema
this module receives names registered formulas of matching units; this
module applies them.
"""

from __future__ import annotations

import math
from typing import Sequence, TextIO

from .errors import DataError, ParseError
from .model import (
    FORMULAS,
    MetricSchema,
    MetricVector,
    RawProfile,
    SystemBehaviorMetrics,
    SystemTelemetry,
    TelemetrySample,
    finite_number,
    read_csv,
    validate_profile,
)

COUNTER_CSV_HEADER = ("workload", "node", "event", "count", "wall_time_s")
TELEMETRY_CSV_HEADER = (
    "workload", "t_s", "cpu_util", "io_wait", "weighted_io_time_ms", "disk_bw", "net_bw",
)

DEFAULT_WARMUP_S = 30.0

# Vendor/profiler spellings accepted for canonical counter names.
COUNTER_ALIASES: dict[str, str] = {
    "instructions": "instructions_retired",
    "inst_retired.any": "instructions_retired",
    "cpu-cycles": "cycles",
    "cpu_clk_unhalted.thread": "cycles",
    "branches": "branch_instructions",
    "branch-instructions": "branch_instructions",
    "br_inst_retired.all_branches": "branch_instructions",
    "branch-misses": "mispredicted_branches",
    "br_misp_retired.all_branches": "mispredicted_branches",
    "L1-icache-loads": "l1i_accesses",
    "L1-icache-load-misses": "l1i_misses",
    "L1-dcache-loads": "l1d_accesses",
    "L1-dcache-load-misses": "l1d_misses",
    "LLC-loads": "l3_accesses",
    "LLC-load-misses": "l3_misses",
    "iTLB-loads": "itlb_accesses",
    "iTLB-load-misses": "itlb_misses",
    "dTLB-loads": "dtlb_accesses",
    "dTLB-load-misses": "dtlb_misses",
    "mem-loads": "load_instructions",
    "mem-stores": "store_instructions",
    "stalled-cycles-frontend": "frontend_stall_cycles",
    "stalled-cycles-backend": "backend_stall_cycles",
    "uops_issued.any": "uops_issued",
    "uops_retired.all": "uops_retired",
    "machine_clears.count": "machine_clears",
}


def canonical_counter_name(event: str) -> str:
    return COUNTER_ALIASES.get(event, event)


# --- counter CSV ----------------------------------------------------------


def parse_counter_csv(stream: TextIO | str) -> list[RawProfile]:
    """Parse a counter dump into one profile per workload.

    Counts for the same (workload, event) are summed across nodes; the
    wall time is the maximum across nodes. Duplicate (workload, node,
    event) rows, malformed rows and a sum beyond the float range are
    errors naming the line.
    """
    _, rows = read_csv(stream, COUNTER_CSV_HEADER)
    counters: dict[str, dict[str, float]] = {}  # in order of first appearance
    wall_times: dict[str, float] = {}
    nodes: dict[str, set[str]] = {}
    seen: set[tuple[str, str, str]] = set()
    for lineno, row in rows:
        workload, node, event, count_s, wall_s = (field.strip() for field in row)
        if not workload or not node or not event:
            raise ParseError("workload, node and event must be non-empty", line=lineno)
        count = finite_number("count", count_s, lineno)
        if count < 0:
            raise ParseError(f"count {count} is negative", line=lineno)
        wall = finite_number("wall_time_s", wall_s, lineno)

        event = canonical_counter_name(event)
        key = (workload, node, event)
        if key in seen:
            raise ParseError(
                f"duplicate row for workload {workload!r}, node {node!r}, "
                f"event {event!r}", line=lineno,
            )
        seen.add(key)
        if workload not in counters:
            counters[workload] = {}
            wall_times[workload] = wall
            nodes[workload] = set()
        total = counters[workload].get(event, 0.0) + count
        if not math.isfinite(total):
            raise ParseError(
                f"counts for workload {workload!r}, event {event!r} sum beyond the float range",
                line=lineno,
            )
        counters[workload][event] = total
        wall_times[workload] = max(wall_times[workload], wall)
        nodes[workload].add(node)

    return [
        RawProfile(
            workload_id=w,
            counters=counters[w],
            wall_time_s=wall_times[w],
            node_count=len(nodes[w]),
        )
        for w in counters
    ]


# --- telemetry CSV ----------------------------------------------------------


def parse_telemetry_csv(stream: TextIO | str) -> dict[str, SystemTelemetry]:
    """Parse per-sample OS telemetry, grouped by workload and ordered by time."""
    _, records = read_csv(stream, TELEMETRY_CSV_HEADER)
    rows: dict[str, list[TelemetrySample]] = {}
    for lineno, row in records:
        workload = row[0].strip()
        if not workload:
            raise ParseError("workload must be non-empty", line=lineno)
        values = [
            finite_number(name, v, lineno) for name, v in zip(TELEMETRY_CSV_HEADER[1:], row[1:])
        ]
        try:
            sample = TelemetrySample(*values)  # fields in the column order
        except DataError as exc:
            raise ParseError(str(exc), line=lineno)
        rows.setdefault(workload, []).append(sample)

    result: dict[str, SystemTelemetry] = {}
    for workload, samples in rows.items():
        samples.sort(key=lambda s: s.t_s)
        try:
            result[workload] = SystemTelemetry(workload_id=workload, samples=tuple(samples))
        except DataError as exc:
            raise ParseError(f"workload {workload!r}: {exc}")
    return result


def trim_ramp_up(telemetry: SystemTelemetry, warmup_s: float = DEFAULT_WARMUP_S) -> SystemTelemetry:
    """Drop samples taken before `warmup_s`, keeping only steady state."""
    if warmup_s < 0:
        raise DataError(f"warmup_s {warmup_s} is negative")
    kept = tuple(s for s in telemetry.samples if s.t_s >= warmup_s)
    if not kept:
        raise DataError(
            f"workload '{telemetry.workload_id}': no steady-state samples "
            f"after {warmup_s} s warm-up"
        )
    return SystemTelemetry(workload_id=telemetry.workload_id, samples=kept)


def aggregate_telemetry(telemetry: SystemTelemetry, runtime_s: float) -> SystemBehaviorMetrics:
    """Collapse a telemetry series into one SystemBehaviorMetrics.

    Utilization fractions are averaged with trapezoidal time weighting, and
    bandwidths are plain means, over the samples given. The weighted I/O
    counter is differenced between the first and the last sample given,
    which for `wcr ingest` is the steady window `trim_ramp_up` leaves, and
    the difference is divided by `runtime_s`, which `wcr ingest` passes as
    the profile's full-run wall time (the last sample's time when the
    counter CSV has no such workload).
    """
    if runtime_s <= 0:
        raise DataError(f"runtime_s {runtime_s} is not positive")
    samples = telemetry.samples
    cpu = _time_weighted_mean([s.t_s for s in samples], [s.cpu_util for s in samples])
    iow = _time_weighted_mean([s.t_s for s in samples], [s.io_wait for s in samples])
    delta_ms = samples[-1].weighted_io_time_ms - samples[0].weighted_io_time_ms
    if delta_ms < 0:
        raise DataError(
            f"workload '{telemetry.workload_id}': weighted_io_time_ms decreases over the run"
        )
    return SystemBehaviorMetrics(
        cpu_util=cpu,
        io_wait=iow,
        weighted_io_ratio=delta_ms / (runtime_s * 1000.0),
        disk_bw_Bps=sum(s.disk_bw_Bps for s in samples) / len(samples),
        net_bw_Bps=sum(s.net_bw_Bps for s in samples) / len(samples),
    )


def _time_weighted_mean(times: Sequence[float], values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0]
    span = times[-1] - times[0]
    area = sum(
        (values[i] + values[i + 1]) / 2.0 * (times[i + 1] - times[i])
        for i in range(len(values) - 1)
    )
    return area / span


# --- metric derivation ------------------------------------------------------


def derive_microarch_metrics(profile: RawProfile, schema: MetricSchema) -> MetricVector:
    """Apply each schema formula to the profile's counters."""
    violations = validate_profile(profile, schema)
    if violations:
        raise DataError(
            f"workload '{profile.workload_id}' cannot be derived: " + "; ".join(violations)
        )
    values = []
    for desc in schema.metrics:
        formula = FORMULAS[desc.formula_id]
        try:
            values.append(formula.compute(profile.counters))
        except DataError as exc:
            raise DataError(f"metric '{desc.name}': {exc}")
    try:
        return MetricVector.from_values(profile.workload_id, values, schema)
    except DataError as exc:
        raise DataError(f"workload '{profile.workload_id}': {exc}")

