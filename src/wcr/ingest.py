"""Counter and telemetry ingestion, and derivation of metric vectors.

Counter dumps arrive as CSV (`workload,node,event,count,wall_time_s`),
telemetry as CSV (`workload,t_s,cpu_util,io_wait,weighted_io_time_ms,
disk_bw,net_bw`). Event names are mapped onto a canonical vocabulary via
an alias table, multi-node counts are summed (wall time takes the max),
and each schema descriptor's formula turns counter totals into one metric
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TextIO

from .errors import DataError, ParseError
from .model import (
    MetricSchema,
    MetricUnit,
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


# --- derivation rules -----------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """One derivation rule: counters in, a single metric value out."""

    unit: MetricUnit
    required: tuple[str, ...]
    compute: Callable[[Mapping[str, float]], float]


def _quotient(numer: str, denom: str, unit: MetricUnit, scale: float = 1.0) -> Formula:
    def compute(counters: Mapping[str, float]) -> float:
        d = counters[denom]
        if d == 0:
            raise DataError(f"denominator counter '{denom}' is zero")
        return scale * counters[numer] / d

    return Formula(unit=unit, required=(numer, denom), compute=compute)


_MIX_CATEGORIES = (
    "branch_instructions",
    "integer_instructions",
    "fp_instructions",
    "load_instructions",
    "store_instructions",
)


def _mix_other() -> Formula:
    # Residual share: whatever the categorized counters do not cover.
    def compute(counters: Mapping[str, float]) -> float:
        total = counters["instructions_retired"]
        if total == 0:
            raise DataError("denominator counter 'instructions_retired' is zero")
        covered = sum(counters[c] for c in _MIX_CATEGORIES)
        return (total - covered) / total

    return Formula(
        unit=MetricUnit.RATIO,
        required=("instructions_retired",) + _MIX_CATEGORIES,
        compute=compute,
    )


def _build_formulas() -> dict[str, Formula]:
    r, pki, pc, fpb = (
        MetricUnit.RATIO, MetricUnit.PER_KILO_INSTR, MetricUnit.PER_CYCLE,
        MetricUnit.FLOPS_PER_BYTE,
    )
    instr = "instructions_retired"
    f: dict[str, Formula] = {}

    f["mix_branch"] = _quotient("branch_instructions", instr, r)
    f["mix_integer"] = _quotient("integer_instructions", instr, r)
    f["mix_fp"] = _quotient("fp_instructions", instr, r)
    f["mix_load"] = _quotient("load_instructions", instr, r)
    f["mix_store"] = _quotient("store_instructions", instr, r)
    f["mix_other"] = _mix_other()
    # the default schema names mix metrics *_ratio; register both ids
    f["branch_ratio"] = f["mix_branch"]
    f["integer_ratio"] = f["mix_integer"]
    f["fp_ratio"] = f["mix_fp"]
    f["load_ratio"] = f["mix_load"]
    f["store_ratio"] = f["mix_store"]
    f["other_ratio"] = f["mix_other"]

    for level in ("l1i", "l1d", "l2", "l3"):
        f[f"{level}_mpki"] = _quotient(f"{level}_misses", instr, pki, scale=1000.0)
        f[f"{level}_miss_ratio"] = _quotient(f"{level}_misses", f"{level}_accesses", r)
    for tlb in ("itlb", "dtlb"):
        f[f"{tlb}_mpki"] = _quotient(f"{tlb}_misses", instr, pki, scale=1000.0)
        f[f"{tlb}_miss_ratio"] = _quotient(f"{tlb}_misses", f"{tlb}_accesses", r)
        f[f"{tlb}_walk_cycle_ratio"] = _quotient(f"{tlb}_walk_cycles", "cycles", r)

    f["branch_misprediction_ratio"] = _quotient(
        "mispredicted_branches", "branch_instructions", r)
    f["branch_misprediction_mpki"] = _quotient(
        "mispredicted_branches", instr, pki, scale=1000.0)
    f["branch_taken_ratio"] = _quotient("taken_branches", "branch_instructions", r)
    f["indirect_branch_ratio"] = _quotient("indirect_branches", "branch_instructions", r)

    f["frontend_stall_ratio"] = _quotient("frontend_stall_cycles", "cycles", r)
    f["backend_stall_ratio"] = _quotient("backend_stall_cycles", "cycles", r)
    f["resource_stall_ratio"] = _quotient("resource_stall_cycles", "cycles", r)
    f["store_buffer_stall_ratio"] = _quotient("store_buffer_stall_cycles", "cycles", r)
    f["divider_busy_ratio"] = _quotient("divider_busy_cycles", "cycles", r)
    f["machine_clears_pki"] = _quotient("machine_clears", instr, pki, scale=1000.0)
    f["uops_issued_per_cycle"] = _quotient("uops_issued", "cycles", pc)
    f["retired_uop_fraction"] = _quotient("uops_retired", "uops_issued", r)

    f["offcore_requests_pki"] = _quotient("offcore_requests", instr, pki, scale=1000.0)
    f["offcore_data_read_pki"] = _quotient(
        "offcore_demand_data_reads", instr, pki, scale=1000.0)
    f["offcore_rfo_pki"] = _quotient("offcore_rfo_requests", instr, pki, scale=1000.0)
    f["offcore_writeback_pki"] = _quotient("offcore_writebacks", instr, pki, scale=1000.0)
    f["snoop_hit_ratio"] = _quotient("snoop_hits", "snoop_responses", r)
    f["snoop_hitm_ratio"] = _quotient("snoop_hitm", "snoop_responses", r)
    f["snoop_miss_ratio"] = _quotient("snoop_misses", "snoop_responses", r)

    f["ipc"] = _quotient(instr, "cycles", pc)
    f["uops_retired_per_cycle"] = _quotient("uops_retired", "cycles", pc)
    f["offcore_read_mlp"] = _quotient("offcore_read_occupancy_cycles", "cycles", pc)
    f["l1d_miss_mlp"] = _quotient("l1d_miss_occupancy_cycles", "cycles", pc)

    # flops per byte of off-core traffic (roofline-style intensity)
    f["operation_intensity"] = _quotient("fp_operations", "offcore_bytes", fpb)
    f["flops_per_cycle"] = _quotient("fp_operations", "cycles", pc)
    return f


FORMULAS: dict[str, Formula] = _build_formulas()


def schema_violations(schema: MetricSchema) -> list[str]:
    """Descriptors that reference a missing or unit-mismatched formula, one message each."""
    violations = []
    for desc in schema.metrics:
        formula = FORMULAS.get(desc.formula_id)
        if formula is None:
            violations.append(f"metric '{desc.name}': unknown formula '{desc.formula_id}'")
        elif formula.unit is not desc.unit:
            violations.append(
                f"metric '{desc.name}': unit {desc.unit.value} does not match "
                f"formula '{desc.formula_id}' ({formula.unit.value})"
            )
    return violations


def check_schema(schema: MetricSchema) -> None:
    """Raise on the first descriptor that references a missing or unit-mismatched formula."""
    violations = schema_violations(schema)
    if violations:
        raise DataError(violations[0])


def load_schema(path) -> MetricSchema:
    """Load a schema file and verify every formula reference."""
    schema = MetricSchema.load(path)
    check_schema(schema)
    return schema


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

