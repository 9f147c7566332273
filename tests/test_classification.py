"""System-behavior rules and data-processing-behavior bands."""

import io

import pytest
from hypothesis import given, strategies as st

from helpers import text_file
from wcr.classification import (
    classify_data_behavior,
    classify_ratio,
    classify_system_behavior,
    label_csv,
    label_workload,
    parse_category,
)
from wcr.errors import DataError, ParseError
from wcr.model import (
    Category,
    DataSizeClass,
    DataVolumes,
    SystemBehavior,
    SystemBehaviorMetrics,
)


def _metrics(cpu=0.5, iow=0.0, wio=0.0):
    return SystemBehaviorMetrics(cpu_util=cpu, io_wait=iow, weighted_io_ratio=wio)


class TestSystemBehavior:
    def test_high_cpu_is_cpu_intensive(self):
        assert classify_system_behavior(_metrics(cpu=0.90)) is SystemBehavior.CPU_INTENSIVE

    def test_low_cpu_heavy_io_is_io_intensive(self):
        assert classify_system_behavior(_metrics(cpu=0.50, wio=12)) is SystemBehavior.IO_INTENSIVE

    def test_middle_ground_is_hybrid(self):
        assert classify_system_behavior(
            _metrics(cpu=0.70, iow=0.05, wio=5)
        ) is SystemBehavior.HYBRID

    def test_cpu_boundary_is_strict(self):
        assert classify_system_behavior(_metrics(cpu=0.85)) is SystemBehavior.HYBRID
        assert classify_system_behavior(_metrics(cpu=0.86)) is SystemBehavior.CPU_INTENSIVE

    def test_io_wait_alone_can_trigger_io_intensive(self):
        assert classify_system_behavior(
            _metrics(cpu=0.30, iow=0.25)
        ) is SystemBehavior.IO_INTENSIVE

    # every stated boundary value, strict comparisons throughout
    BOUNDARY_TABLE = [
        ((0.84, 0.19, 9), SystemBehavior.HYBRID),
        ((0.85, 0.19, 9), SystemBehavior.HYBRID),
        ((0.86, 0.19, 9), SystemBehavior.CPU_INTENSIVE),
        ((0.84, 0.21, 11), SystemBehavior.HYBRID),  # cpu too high for the I/O rule
        ((0.50, 0.19, 9), SystemBehavior.HYBRID),
        ((0.50, 0.19, 10), SystemBehavior.HYBRID),
        ((0.50, 0.19, 11), SystemBehavior.IO_INTENSIVE),
        ((0.50, 0.20, 9), SystemBehavior.HYBRID),
        ((0.50, 0.21, 9), SystemBehavior.IO_INTENSIVE),
        ((0.59, 0.19, 11), SystemBehavior.IO_INTENSIVE),
        ((0.60, 0.19, 11), SystemBehavior.HYBRID),
        ((0.86, 0.21, 11), SystemBehavior.CPU_INTENSIVE),
    ]

    @pytest.mark.parametrize("inputs,expected", BOUNDARY_TABLE)
    def test_boundary_table(self, inputs, expected):
        cpu, iow, wio = inputs
        assert classify_system_behavior(_metrics(cpu=cpu, iow=iow, wio=wio)) is expected

    @given(
        cpu1=st.floats(0, 1), cpu2=st.floats(0, 1),
        iow=st.floats(0, 1), wio=st.floats(0, 100),
    )
    def test_raising_cpu_never_moves_cpu_to_io(self, cpu1, cpu2, iow, wio):
        low, high = sorted((cpu1, cpu2))
        before = classify_system_behavior(_metrics(cpu=low, iow=iow, wio=wio))
        after = classify_system_behavior(_metrics(cpu=high, iow=iow, wio=wio))
        assert not (
            before is SystemBehavior.CPU_INTENSIVE and after is SystemBehavior.IO_INTENSIVE
        )

    @given(cpu=st.floats(0, 1), iow=st.floats(0, 1), wio=st.floats(0, 1000))
    def test_classes_exhaustive(self, cpu, iow, wio):
        assert classify_system_behavior(_metrics(cpu=cpu, iow=iow, wio=wio)) in SystemBehavior


class TestDataBehavior:
    BAND_TABLE = [
        (0.009, DataSizeClass.MUCH_LESS),
        (0.01, DataSizeClass.LESS),
        (0.89, DataSizeClass.LESS),
        (0.9, DataSizeClass.EQUAL),
        (1.09, DataSizeClass.EQUAL),
        (1.1, DataSizeClass.GREATER),
    ]

    @pytest.mark.parametrize("ratio,expected", BAND_TABLE)
    def test_band_boundaries(self, ratio, expected):
        assert classify_ratio(ratio) is expected

    def test_equal_output(self):
        out, _ = classify_data_behavior(DataVolumes(1000, 1000, 500))
        assert out is DataSizeClass.EQUAL

    def test_much_less_output(self):
        out, _ = classify_data_behavior(DataVolumes(1000, 5, 500))
        assert out is DataSizeClass.MUCH_LESS

    def test_greater_output(self):
        out, _ = classify_data_behavior(DataVolumes(1000, 1500, 500))
        assert out is DataSizeClass.GREATER

    def test_zero_intermediate_is_distinguished(self):
        _, intermediate = classify_data_behavior(DataVolumes(1000, 1000, 0))
        assert intermediate is DataSizeClass.NONE

    def test_zero_input_rejected(self):
        with pytest.raises(DataError, match="input_bytes"):
            classify_data_behavior(DataVolumes(0, 10, 10))

    @given(st.floats(0, 1e9, allow_nan=False))
    def test_bands_partition_nonnegative_ratios(self, ratio):
        bands = [
            ratio < 0.01,
            0.01 <= ratio < 0.9,
            0.9 <= ratio < 1.1,
            ratio >= 1.1,
        ]
        assert sum(bands) == 1
        expected = [
            DataSizeClass.MUCH_LESS, DataSizeClass.LESS,
            DataSizeClass.EQUAL, DataSizeClass.GREATER,
        ][bands.index(True)]
        assert classify_ratio(ratio) is expected


class TestLabelWorkload:
    def test_cpu_intensive_reducer_shape(self):
        labels = label_workload(
            _metrics(cpu=0.9),
            DataVolumes(1_000_000, 500, 200),
            Category.DATA_ANALYSIS,
        )
        assert labels.system is SystemBehavior.CPU_INTENSIVE
        assert labels.data_out is DataSizeClass.MUCH_LESS
        assert labels.category is Category.DATA_ANALYSIS

    def test_io_intensive_passthrough_shape(self):
        labels = label_workload(
            _metrics(cpu=0.5, wio=12),
            DataVolumes(1000, 1000, 0),
            Category.SERVICE,
        )
        assert labels.system is SystemBehavior.IO_INTENSIVE
        assert labels.data_out is DataSizeClass.EQUAL
        assert labels.data_intermediate is DataSizeClass.NONE

    def test_hybrid_shuffle_shape(self):
        labels = label_workload(
            _metrics(cpu=0.7, iow=0.05, wio=5),
            DataVolumes(1000, 1000, 1000),
            Category.DATA_ANALYSIS,
        )
        assert labels.system is SystemBehavior.HYBRID
        assert labels.data_out is DataSizeClass.EQUAL
        assert labels.data_intermediate is DataSizeClass.EQUAL


class TestCategoryParsing:
    @pytest.mark.parametrize("token,expected", [
        ("data_analysis", Category.DATA_ANALYSIS),
        ("DataAnalysis", Category.DATA_ANALYSIS),
        ("data analysis", Category.DATA_ANALYSIS),
        ("Service", Category.SERVICE),
        ("interactive-analysis", Category.INTERACTIVE_ANALYSIS),
    ])
    def test_accepted_spellings(self, token, expected):
        assert parse_category(token) is expected

    def test_unknown_rejected(self):
        with pytest.raises(DataError):
            parse_category("batch")


CSV_HEADER = (
    "workload,cpu_util,io_wait,weighted_io_ratio,"
    "input_bytes,output_bytes,intermediate_bytes,category\n"
)


class TestLabelCsv:
    def test_labels_appended(self):
        text = CSV_HEADER + (
            "wc,0.9,0.02,1,1000000,500,100000,data_analysis\n"
            "read,0.5,0.25,12,1000,1000,0,service\n"
        )
        out = io.StringIO()
        assert label_csv(text_file(text), out) == 2
        lines = out.getvalue().splitlines()
        assert lines[0].endswith("category,system,data_out,data_intermediate")
        assert lines[1].endswith("cpu_intensive,much_less,less")
        assert lines[2].endswith("io_intensive,equal,none")

    def test_extra_columns_pass_through(self):
        header = CSV_HEADER.rstrip() + ",stack\n"
        text = header + "wc,0.9,0.02,1,1000,500,200,data_analysis,hadoop\n"
        out = io.StringIO()
        label_csv(text_file(text), out)
        assert "hadoop" in out.getvalue().splitlines()[1]

    def test_missing_column_rejected(self):
        with pytest.raises(ParseError, match="missing columns"):
            label_csv(text_file("workload,cpu_util\n"), io.StringIO())

    def test_bad_row_names_line(self):
        text = CSV_HEADER + "wc,0.9,0.02,1,0,500,200,data_analysis\n"
        with pytest.raises(ParseError, match="line 2"):
            label_csv(text_file(text), io.StringIO())
