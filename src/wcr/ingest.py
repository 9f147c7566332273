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
from pathlib import Path
from typing import BinaryIO, Sequence

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
    open_text,
    read_csv,
    validate_profile,
)

COUNTER_CSV_HEADER = ("workload", "node", "event", "count", "wall_time_s")
TELEMETRY_CSV_HEADER = (
    "workload", "t_s", "cpu_util", "io_wait", "weighted_io_time_ms", "disk_bw", "net_bw",
)

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


def parse_counter_csv(source: str | Path | BinaryIO) -> list[RawProfile]:
    """Parse a counter dump into one profile per workload.

    Counts for the same (workload, event) are summed across nodes; the
    wall time is the maximum across nodes. Duplicate (workload, node,
    event) rows, malformed rows and a sum beyond the float range are
    errors naming the line.

    Each field is stripped of surrounding whitespace, and each row is
    checked in this order, the first failing check giving the error:
    workload, node and event non-empty; count a finite number, then not
    negative; wall_time_s a finite number; the (workload, node, event)
    not seen before, once the event is mapped through `COUNTER_ALIASES`;
    the workload's total for the event still finite after the count is
    added. Totals are added up in row order, starting from 0.0.
    """
    with open_text(source, newline="") as fh:
        _, rows = read_csv(fh, COUNTER_CSV_HEADER)
        # workload -> [counter totals, max wall time, nodes], in order of first appearance
        totals: dict[str, list] = {}
        seen: set[tuple[str, str, str]] = set()
        inf = math.inf
        for lineno, (workload, node, event, count_s, wall_s) in rows:
            workload = workload.strip()
            node = node.strip()
            event = event.strip()
            if not workload or not node or not event:
                raise ParseError("workload, node and event must be non-empty", line=lineno)
            # float() ignores the whitespace strip() removes; finite_number runs
            # only on a failure, to raise its message
            try:
                count = float(count_s)
            except ValueError:
                count = finite_number("count", count_s.strip(), lineno)  # raises
            if not 0.0 <= count < inf:  # NaN, an infinity or negative
                finite_number("count", count_s.strip(), lineno)
                raise ParseError(f"count {count} is negative", line=lineno)
            try:
                wall = float(wall_s)
            except ValueError:
                wall = finite_number("wall_time_s", wall_s.strip(), lineno)  # raises
            if not -inf < wall < inf:
                finite_number("wall_time_s", wall_s.strip(), lineno)

            event = canonical_counter_name(event)
            key = (workload, node, event)
            if key in seen:
                raise ParseError(
                    f"duplicate row for workload {workload!r}, node {node!r}, "
                    f"event {event!r}", line=lineno,
                )
            seen.add(key)
            entry = totals.get(workload)
            if entry is None:
                entry = totals[workload] = [{}, wall, set()]
            counters = entry[0]
            total = counters.get(event, 0.0) + count
            if total == inf:  # a sum of finite non-negative counts overflows to +inf only
                raise ParseError(
                    f"counts for workload {workload!r}, event {event!r} sum beyond the float range",
                    line=lineno,
                )
            counters[event] = total
            if wall > entry[1]:
                entry[1] = wall
            entry[2].add(node)

    return [
        RawProfile(workload_id=w, counters=counters, wall_time_s=wall, node_count=len(nodes))
        for w, (counters, wall, nodes) in totals.items()
    ]


# --- telemetry CSV ----------------------------------------------------------


def parse_telemetry_csv(source: str | Path | BinaryIO) -> dict[str, SystemTelemetry]:
    """Parse per-sample OS telemetry, grouped by workload and ordered by time."""
    with open_text(source, newline="") as fh:
        _, records = read_csv(fh, TELEMETRY_CSV_HEADER)
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
            result[workload] = SystemTelemetry(workload_id=workload, samples=tuple(samples))
    return result


def trim_ramp_up(telemetry: SystemTelemetry, warmup_s: float) -> SystemTelemetry:
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
    # rounding can carry the quotient a few ulps past the values averaged, so
    # a series pegged at 1.0 would leave [0, 1]; the clamp also keeps a
    # constant series at exactly its value
    return min(max(area / span, min(values)), max(values))


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

