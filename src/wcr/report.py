"""Aggregation of characterized workloads into tables and plot data.

Summaries average metrics per group (application category, system
behavior, suite, or software stack); the stack-impact table compares the
same algorithm across software stacks and flags order-of-magnitude gaps;
`emit` formats everything as byte-stable CSV files plus a JSON bundle.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Sequence, TextIO

from .cachesim import MissRatioCurve, write_curve_csv
from .errors import DataError, ParseError
from .model import (BehaviorLabels, Category, Codec, SystemBehavior, finite_number, open_text,
                    read_csv, write_csv, write_json)

log = logging.getLogger("wcr.report")

# a max/min gap of at least 0.9 decades counts as an order-of-magnitude finding
GAP_FLAG_DECADES = 0.9
ORDER_OF_MAGNITUDE = "order_of_magnitude"
NEAR_ORDER_OF_MAGNITUDE = "near_order_of_magnitude"

FLOAT_FORMAT = "{:.4f}"


class Grouping(str, enum.Enum):
    APPLICATION_CATEGORY = "application_category"
    SYSTEM_BEHAVIOR = "system_behavior"
    SUITE = "suite"
    STACK = "stack"


@dataclass(frozen=True)
class WorkloadRecord:
    """One characterized workload: metric values plus grouping metadata."""

    workload_id: str
    metrics: dict[str, float]
    labels: BehaviorLabels | None = None
    suite: str | None = None
    stack: str | None = None


@dataclass(frozen=True)
class GroupRow:
    means: dict[str, float]
    count: int


@dataclass(frozen=True)
class GroupSummary(Codec):
    """Per-group unweighted metric means for one grouping dimension."""

    grouping: Grouping
    rows: dict[str, GroupRow]
    total_workloads: int
    omitted_groups: tuple[str, ...] = ()


def _group_key(record: WorkloadRecord, grouping: Grouping) -> str:
    if grouping is Grouping.APPLICATION_CATEGORY:
        if record.labels is None:
            raise DataError(f"workload '{record.workload_id}' is not labeled")
        return record.labels.category.value
    if grouping is Grouping.SYSTEM_BEHAVIOR:
        if record.labels is None:
            raise DataError(f"workload '{record.workload_id}' is not labeled")
        return record.labels.system.value
    if grouping is Grouping.SUITE:
        if record.suite is None:
            raise DataError(f"workload '{record.workload_id}' has no suite")
        return record.suite
    if record.stack is None:
        raise DataError(f"workload '{record.workload_id}' has no stack")
    return record.stack


def group_summary(
    records: Sequence[WorkloadRecord], grouping: Grouping, metrics: Sequence[str]
) -> GroupSummary:
    """Unweighted arithmetic mean of each metric within each group."""
    if not records:
        raise DataError("no workloads to summarize")
    buckets: dict[str, list[WorkloadRecord]] = {}
    for record in records:
        buckets.setdefault(_group_key(record, grouping), []).append(record)

    rows: dict[str, GroupRow] = {}
    for name, members in buckets.items():
        means: dict[str, float] = {}
        for metric in metrics:
            values = []
            for member in members:
                if metric not in member.metrics:
                    raise DataError(
                        f"workload '{member.workload_id}' has no metric '{metric}'"
                    )
                values.append(member.metrics[metric])
            mean = math.fsum(values) / len(values)  # exactly permutation-invariant
            if not math.isfinite(mean):
                raise DataError(f"group '{name}': mean of '{metric}' is not finite")
            means[metric] = mean
        rows[name] = GroupRow(means=means, count=len(members))

    omitted: tuple[str, ...] = ()
    if grouping is Grouping.APPLICATION_CATEGORY:
        omitted = tuple(sorted({c.value for c in Category} - set(rows)))
    elif grouping is Grouping.SYSTEM_BEHAVIOR:
        omitted = tuple(sorted({b.value for b in SystemBehavior} - set(rows)))
    if omitted:
        log.info("grouping %s: no members for %s", grouping.value, ", ".join(omitted))
    return GroupSummary(
        grouping=grouping, rows=rows, total_workloads=len(records), omitted_groups=omitted
    )


# --- stack impact -------------------------------------------------------------


@dataclass(frozen=True)
class StackMetricRecord:
    """One (algorithm, stack) implementation with its metric values."""

    algorithm: str
    stack: str
    metrics: dict[str, float]


def read_stack_table(source: str | Path | BinaryIO) -> list[StackMetricRecord]:
    """The records of a stack-table CSV in long format, `algorithm,stack,metric,value`
    (other columns are ignored), one per (algorithm, stack), in sorted order."""
    grouped: dict[tuple[str, str], dict[str, float]] = {}
    with open_text(source, newline="") as fh:
        header, rows = read_csv(fh, ("algorithm", "stack", "metric", "value"), extra=True)
        for lineno, row in rows:
            cells = dict(zip(header, row))
            metrics = grouped.setdefault((cells["algorithm"], cells["stack"]), {})
            if cells["metric"] in metrics:
                raise ParseError(f"duplicate row for algorithm {cells['algorithm']!r}, stack "
                                 f"{cells['stack']!r}, metric {cells['metric']!r}", lineno)
            metrics[cells["metric"]] = finite_number("value", cells["value"], lineno)
    return [
        StackMetricRecord(algorithm=a, stack=s, metrics=m)
        for (a, s), m in sorted(grouped.items())
    ]


@dataclass(frozen=True)
class StackImpactRow(Codec):
    algorithm: str
    metric: str
    values: dict[str, float]
    max_min_ratio: float
    flag: str | None


@dataclass(frozen=True)
class StackImpactTable(Codec):
    rows: tuple[StackImpactRow, ...]


def _gap_flag(ratio: float) -> str | None:
    decades = math.log10(ratio)
    if decades >= 1.0:
        return ORDER_OF_MAGNITUDE
    if decades >= GAP_FLAG_DECADES:
        return NEAR_ORDER_OF_MAGNITUDE
    return None


def stack_impact_table(records: Sequence[StackMetricRecord]) -> StackImpactTable:
    """Compare each algorithm's metrics across software stacks.

    Algorithms implemented on fewer than two stacks are omitted. Each row
    reports the per-stack values, the max/min ratio, and a flag when the
    gap reaches (or nearly reaches) an order of magnitude.
    """
    by_algorithm: dict[str, list[StackMetricRecord]] = {}
    for record in records:
        by_algorithm.setdefault(record.algorithm, []).append(record)

    rows: list[StackImpactRow] = []
    for algorithm in sorted(by_algorithm):
        implementations = by_algorithm[algorithm]
        stacks = {r.stack for r in implementations}
        if len(stacks) < 2:
            log.info("algorithm '%s' has a single stack; omitted", algorithm)
            continue
        metric_names = sorted({m for r in implementations for m in r.metrics})
        for metric in metric_names:
            values = {
                r.stack: r.metrics[metric] for r in implementations if metric in r.metrics
            }
            if len(values) < 2:
                continue
            low, high = min(values.values()), max(values.values())
            if low < 0:
                raise DataError(
                    f"algorithm '{algorithm}', metric '{metric}': negative value"
                )
            ratio = high / low if low > 0 else (math.inf if high > 0 else 1.0)
            rows.append(
                StackImpactRow(
                    algorithm=algorithm,
                    metric=metric,
                    values=values,
                    max_min_ratio=ratio,
                    flag=_gap_flag(ratio),
                )
            )
    return StackImpactTable(rows=tuple(rows))


# --- emission -------------------------------------------------------------------


@dataclass(frozen=True)
class ReportBundle(Codec):
    """Everything one report run produces, ready for `emit`.

    `curves` maps each curve's file name, without `.csv`, to the curve.
    """

    summaries: tuple[GroupSummary, ...] = ()
    stack_impact: StackImpactTable | None = None
    curves: dict[str, MissRatioCurve] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


def _fmt(value: float) -> str:
    return FLOAT_FORMAT.format(value)


def emit(bundle: ReportBundle, open_output: Callable[[str], TextIO]) -> None:
    """Write the bundle as CSV tables, curve files, and a JSON index.

    Each file goes to the text stream that `open_output` returns for its
    name relative to the report directory, such as `curves/wc_instruction.csv`.
    Output is byte-stable for identical inputs: keys are sorted, floats in
    the summary and stack-impact tables and in the JSON index are fixed at
    four decimals, and curve files are written by `write_curve_csv`, the
    same six-decimal format `simulate` produces.
    """
    for summary in bundle.summaries:
        metrics = sorted({m for row in summary.rows.values() for m in row.means})
        write_csv(open_output(f"summary_{summary.grouping.value}.csv"),
                  ["group", "count"] + metrics, (
            [name, row.count] + [_fmt(row.means[m]) for m in metrics]
            for name, row in sorted(summary.rows.items())
        ))

    if bundle.stack_impact is not None:
        write_csv(open_output("stack_impact.csv"),
                  ("algorithm", "metric", "stack", "value", "max_min_ratio", "flag"), (
            [row.algorithm, row.metric, stack, _fmt(row.values[stack]),
             "inf" if math.isinf(row.max_min_ratio) else _fmt(row.max_min_ratio),
             row.flag or ""]
            for row in bundle.stack_impact.rows for stack in sorted(row.values)
        ))

    for name, curve in bundle.curves.items():
        write_curve_csv(curve, open_output(f"curves/{name}.csv"))

    write_json(open_output("bundle.json"), _round_floats(bundle.to_dict()))


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return round(obj, 4) if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj
