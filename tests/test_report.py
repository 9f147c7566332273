"""Group summaries, stack impact, and emission."""

import csv
import io
import math

import pytest
from hypothesis import given, strategies as st

from wcr.cachesim import CurveKind, CurvePoint, MissRatioCurve
from wcr.errors import DataError
from wcr.model import (
    BehaviorLabels,
    Category,
    DataSizeClass,
    SystemBehavior,
)
from wcr.report import (
    GroupSummary,
    Grouping,
    ReportBundle,
    StackMetricRecord,
    WorkloadRecord,
    emit,
    group_summary,
    stack_impact_table,
)


def _labels(category=Category.DATA_ANALYSIS, system=SystemBehavior.HYBRID):
    return BehaviorLabels(
        system=system, data_out=DataSizeClass.EQUAL,
        data_intermediate=DataSizeClass.NONE, category=category,
    )


def _record(workload, branch_ratio, category, **kwargs):
    return WorkloadRecord(
        workload_id=workload,
        metrics={"branch_ratio": branch_ratio},
        labels=_labels(category=category),
        **kwargs,
    )


class TestGroupSummary:
    def test_per_category_means(self):
        records = [
            _record("svc", 0.18, Category.SERVICE),
            _record("da", 0.19, Category.DATA_ANALYSIS),
            _record("ia", 0.19, Category.INTERACTIVE_ANALYSIS),
        ]
        summary = group_summary(records, Grouping.APPLICATION_CATEGORY, ["branch_ratio"])
        assert summary.rows["service"].means["branch_ratio"] == 0.18
        assert summary.rows["data_analysis"].means["branch_ratio"] == 0.19
        assert summary.rows["interactive_analysis"].means["branch_ratio"] == 0.19
        assert summary.total_workloads == 3
        assert sum(r.count for r in summary.rows.values()) == 3

    def test_single_group_takes_global_mean(self):
        records = [
            _record(f"w{i}", v, Category.SERVICE) for i, v in enumerate([0.1, 0.2, 0.3])
        ]
        summary = group_summary(records, Grouping.APPLICATION_CATEGORY, ["branch_ratio"])
        assert summary.rows["service"].means["branch_ratio"] == pytest.approx(0.2)

    def test_identical_values_mean_is_that_value(self):
        records = [_record(f"w{i}", 0.25, Category.SERVICE) for i in range(4)]
        summary = group_summary(records, Grouping.APPLICATION_CATEGORY, ["branch_ratio"])
        assert summary.rows["service"].means["branch_ratio"] == 0.25

    def test_empty_groups_are_omitted_and_noted(self):
        records = [_record("w", 0.1, Category.SERVICE)]
        summary = group_summary(records, Grouping.APPLICATION_CATEGORY, ["branch_ratio"])
        assert set(summary.rows) == {"service"}
        assert set(summary.omitted_groups) == {"data_analysis", "interactive_analysis"}

    def test_means_permutation_invariant(self):
        records = [
            _record(f"w{i}", v, Category.SERVICE)
            for i, v in enumerate([0.1, 0.7, 0.2, 0.4])
        ]
        forward = group_summary(records, Grouping.APPLICATION_CATEGORY, ["branch_ratio"])
        backward = group_summary(records[::-1], Grouping.APPLICATION_CATEGORY, ["branch_ratio"])
        assert forward.rows == backward.rows

    def test_unlabeled_workload_rejected(self):
        record = WorkloadRecord("w", {"m": 1.0})
        with pytest.raises(DataError, match="not labeled"):
            group_summary([record], Grouping.SYSTEM_BEHAVIOR, ["m"])

    def test_stack_grouping_requires_stack(self):
        record = WorkloadRecord("w", {"m": 1.0}, labels=_labels())
        with pytest.raises(DataError, match="stack"):
            group_summary([record], Grouping.STACK, ["m"])

    def test_missing_metric_rejected(self):
        records = [_record("w", 0.1, Category.SERVICE)]
        with pytest.raises(DataError, match="no metric"):
            group_summary(records, Grouping.APPLICATION_CATEGORY, ["nope"])


class TestStackImpact:
    def test_near_order_of_magnitude_flagged(self):
        records = [
            StackMetricRecord("wordcount", "mpi", {"l1i_mpki": 2.0}),
            StackMetricRecord("wordcount", "hadoop", {"l1i_mpki": 7.0}),
            StackMetricRecord("wordcount", "spark", {"l1i_mpki": 17.0}),
        ]
        table = stack_impact_table(records)
        (row,) = table.rows
        assert row.max_min_ratio == pytest.approx(8.5)
        assert row.flag == "near_order_of_magnitude"

    def test_full_order_of_magnitude_flagged(self):
        records = [
            StackMetricRecord("sort", "mpi", {"l2_mpki": 0.8}),
            StackMetricRecord("sort", "spark", {"l2_mpki": 16.0}),
        ]
        (row,) = stack_impact_table(records).rows
        assert row.max_min_ratio == pytest.approx(20.0)
        assert row.flag == "order_of_magnitude"

    def test_identical_values_unflagged(self):
        records = [
            StackMetricRecord("grep", "mpi", {"ipc": 1.4}),
            StackMetricRecord("grep", "hadoop", {"ipc": 1.4}),
        ]
        (row,) = stack_impact_table(records).rows
        assert row.max_min_ratio == 1.0
        assert row.flag is None

    def test_modest_gap_unflagged(self):
        records = [
            StackMetricRecord("grep", "mpi", {"ipc": 1.0}),
            StackMetricRecord("grep", "hadoop", {"ipc": 5.0}),
        ]
        (row,) = stack_impact_table(records).rows
        assert row.flag is None

    def test_single_stack_algorithm_omitted(self):
        records = [
            StackMetricRecord("bayes", "hadoop", {"ipc": 1.0}),
            StackMetricRecord("grep", "mpi", {"ipc": 1.0}),
            StackMetricRecord("grep", "hadoop", {"ipc": 1.2}),
        ]
        table = stack_impact_table(records)
        assert {row.algorithm for row in table.rows} == {"grep"}

    def test_zero_min_gives_infinite_ratio(self):
        records = [
            StackMetricRecord("a", "x", {"m": 0.0}),
            StackMetricRecord("a", "y", {"m": 3.0}),
        ]
        (row,) = stack_impact_table(records).rows
        assert math.isinf(row.max_min_ratio)
        assert row.flag == "order_of_magnitude"


def _emit(bundle: ReportBundle) -> dict[str, str]:
    """The text of each file `emit` writes, by its name in the report directory."""
    files: dict[str, io.StringIO] = {}

    def open_output(name: str) -> io.StringIO:
        files[name] = io.StringIO()
        return files[name]

    emit(bundle, open_output)
    return {name: stream.getvalue() for name, stream in files.items()}


class TestEmit:
    def _bundle(self):
        records = [
            _record("svc", 0.18, Category.SERVICE),
            _record("da", 0.19, Category.DATA_ANALYSIS),
        ]
        summaries = (
            group_summary(records, Grouping.APPLICATION_CATEGORY, ["branch_ratio"]),
            group_summary(records, Grouping.SYSTEM_BEHAVIOR, ["branch_ratio"]),
        )
        curve = MissRatioCurve(
            points=(CurvePoint(16384, 0.5), CurvePoint(32768, 0.25)),
            kind=CurveKind.INSTRUCTION,
        )
        return ReportBundle(summaries=summaries, curves={"wc_instruction": curve})

    def test_two_groupings_two_csvs_one_bundle(self):
        assert sorted(_emit(self._bundle())) == [
            "bundle.json",
            "curves/wc_instruction.csv",
            "summary_application_category.csv",
            "summary_system_behavior.csv",
        ]

    def test_empty_bundle_succeeds_with_bundle_file(self):
        assert list(_emit(ReportBundle(notes=("empty input",)))) == ["bundle.json"]

    def test_rerun_is_byte_identical(self):
        assert _emit(self._bundle()) == _emit(self._bundle())

    def test_names_with_commas_and_quotes_read_back(self):
        records = [
            WorkloadRecord("a", {"ipc": 1.0}, suite="Big,Data"),
            WorkloadRecord("b", {"ipc": 2.0}, suite='say "hi"'),
        ]
        table = stack_impact_table([
            StackMetricRecord("word,count", "mpi", {"l1i,mpki": 2.0}),
            StackMetricRecord("word,count", "spark, 2", {"l1i,mpki": 17.0}),
        ])
        bundle = ReportBundle(
            summaries=(group_summary(records, Grouping.SUITE, ["ipc"]),), stack_impact=table,
        )
        files = _emit(bundle)
        assert list(csv.reader(io.StringIO(files["summary_suite.csv"]))) == [
            ["group", "count", "ipc"], ["Big,Data", "1", "1.0000"], ['say "hi"', "1", "2.0000"],
        ]
        assert list(csv.reader(io.StringIO(files["stack_impact.csv"])))[1:] == [
            ["word,count", "l1i,mpki", stack, value, "8.5000", "near_order_of_magnitude"]
            for stack, value in (("mpi", "2.0000"), ("spark, 2", "17.0000"))
        ]

    def test_floats_are_fixed_at_four_decimals(self):
        text = _emit(self._bundle())["summary_application_category.csv"]
        assert "0.1800" in text and "0.1900" in text
