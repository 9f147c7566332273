"""Rule-based workload classification.

System behavior is decided by three ordered rules over CPU utilization,
weighted disk I/O time ratio, and I/O wait; data-processing behavior bands
the output/input and intermediate/input byte ratios. All comparisons are
strict, so boundary values fall through to the weaker class.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, TextIO

from .errors import DataError, ParseError
from .model import (
    BehaviorLabels,
    Category,
    DataSizeClass,
    DataVolumes,
    SystemBehavior,
    SystemBehaviorMetrics,
    finite_number,
    open_text,
    read_csv,
    write_csv,
)

CPU_INTENSIVE_UTIL = 0.85
IO_INTENSIVE_WEIGHTED_IO = 10.0
IO_INTENSIVE_IO_WAIT = 0.20
IO_INTENSIVE_CPU_CEILING = 0.60

MUCH_LESS_BOUND = 0.01
EQUAL_LOWER = 0.9
EQUAL_UPPER = 1.1

BEHAVIOR_CSV_HEADER = (
    "workload", "cpu_util", "io_wait", "weighted_io_ratio",
    "input_bytes", "output_bytes", "intermediate_bytes", "category",
)
# the label columns that `label_csv` appends and `read_labels_csv` reads back
LABEL_COLUMNS = ("system", "data_out", "data_intermediate")


def classify_system_behavior(m: SystemBehaviorMetrics) -> SystemBehavior:
    """Apply the ordered system-behavior rules.

    1. cpu_util > 0.85               -> CPU-intensive
    2. (weighted_io_ratio > 10 or io_wait > 0.20) and cpu_util < 0.60
                                     -> I/O-intensive
    3. otherwise                     -> hybrid
    """
    if m.cpu_util > CPU_INTENSIVE_UTIL:
        return SystemBehavior.CPU_INTENSIVE
    heavy_io = m.weighted_io_ratio > IO_INTENSIVE_WEIGHTED_IO or m.io_wait > IO_INTENSIVE_IO_WAIT
    if heavy_io and m.cpu_util < IO_INTENSIVE_CPU_CEILING:
        return SystemBehavior.IO_INTENSIVE
    return SystemBehavior.HYBRID


def classify_ratio(ratio: float) -> DataSizeClass:
    """Band a non-negative size ratio: <0.01, [0.01, 0.9), [0.9, 1.1), >=1.1."""
    if ratio < 0:
        raise DataError(f"size ratio {ratio} is negative")
    if ratio < MUCH_LESS_BOUND:
        return DataSizeClass.MUCH_LESS
    if ratio < EQUAL_LOWER:
        return DataSizeClass.LESS
    if ratio < EQUAL_UPPER:
        return DataSizeClass.EQUAL
    return DataSizeClass.GREATER


def classify_data_behavior(v: DataVolumes) -> tuple[DataSizeClass, DataSizeClass]:
    """Classify output and intermediate volumes relative to the input.

    A workload with zero intermediate bytes gets the distinguished
    no-intermediate label rather than the much-less band.
    """
    if v.input_bytes == 0:
        raise DataError("input_bytes must be > 0 to classify data behavior")
    out_class = classify_ratio(v.output_bytes / v.input_bytes)
    if v.intermediate_bytes == 0:
        intermediate_class = DataSizeClass.NONE
    else:
        intermediate_class = classify_ratio(v.intermediate_bytes / v.input_bytes)
    return out_class, intermediate_class


def label_workload(
    m: SystemBehaviorMetrics, v: DataVolumes, category: Category
) -> BehaviorLabels:
    """Compose the two classifiers with the declared application category."""
    out_class, intermediate_class = classify_data_behavior(v)
    return BehaviorLabels(
        system=classify_system_behavior(m),
        data_out=out_class,
        data_intermediate=intermediate_class,
        category=category,
    )


def parse_category(token: str) -> Category:
    normalized = token.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
    for category in Category:
        if category.value.replace("_", "") == normalized:
            return category
    raise DataError(f"unknown category {token!r}")


def label_csv(source: str | Path | BinaryIO, out: TextIO) -> int:
    """Label a behavior CSV, appending system/data columns to each row.

    Extra input columns are passed through untouched. Returns the number of
    labeled rows; nothing is written when a row is malformed.
    """
    with open_text(source, newline="") as fh:
        header, rows = read_csv(fh, BEHAVIOR_CSV_HEADER, extra=True)
        index = {col: header.index(col) for col in BEHAVIOR_CSV_HEADER}
        labeled = []
        for lineno, row in rows:
            # columns 1-3 and 4-6 are the fields of SystemBehaviorMetrics and DataVolumes, in order
            rates = [finite_number(c, row[index[c]], lineno) for c in BEHAVIOR_CSV_HEADER[1:4]]
            try:
                metrics = SystemBehaviorMetrics(*rates)
                volumes = DataVolumes(*(int(row[index[col]]) for col in BEHAVIOR_CSV_HEADER[4:7]))
                labels = label_workload(metrics, volumes, parse_category(row[index["category"]]))
            except (DataError, ValueError, OverflowError) as exc:  # Overflow: a huge byte ratio
                raise ParseError(str(exc), line=lineno)
            labeled.append(row + [getattr(labels, column).value for column in LABEL_COLUMNS])
    write_csv(out, header + list(LABEL_COLUMNS), labeled)
    return len(labeled)


def read_labels_csv(source: str | Path | BinaryIO
                    ) -> dict[str, tuple[BehaviorLabels, str | None, str | None]]:
    """workload -> (labels, suite, stack) of a labels CSV, as `label_csv` writes
    it; suite and stack are optional columns."""
    labels = {}
    with open_text(source, newline="") as fh:
        header, rows = read_csv(fh, ("workload", "category", *LABEL_COLUMNS), extra=True)
        for lineno, row in rows:
            cells = dict(zip(header, row))
            if cells["workload"] in labels:
                raise ParseError(f"duplicate row for workload {cells['workload']!r}", lineno)
            fields = {column: cells[column] for column in LABEL_COLUMNS}
            try:
                fields["category"] = parse_category(cells["category"])
                labels[cells["workload"]] = (BehaviorLabels.from_dict(fields),
                                             cells.get("suite") or None, cells.get("stack") or None)
            except DataError as exc:
                raise ParseError(str(exc), lineno)
    return labels
