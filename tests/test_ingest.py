"""Parsing, warm-up trimming, and metric derivation."""

import math

import pytest
from hypothesis import given, strategies as st

from helpers import FIXTURE_COUNTERS, make_profile
from wcr.errors import DataError, ParseError
from wcr.ingest import (
    FORMULAS,
    aggregate_telemetry,
    derive_microarch_metrics,
    parse_counter_csv,
    parse_telemetry_csv,
    trim_ramp_up,
)
from wcr.model import (
    MetricDescriptor,
    MetricGroup,
    MetricSchema,
    MetricUnit,
    SystemTelemetry,
    TelemetrySample,
    default_schema,
)

COUNTER_HEADER = "workload,node,event,count,wall_time_s\n"


class TestParseCounterCsv:
    def test_sums_across_nodes_and_takes_max_wall_time(self):
        text = COUNTER_HEADER + (
            "w1,n1,instructions_retired,1000,10\n"
            "w1,n2,instructions_retired,2000,12\n"
        )
        (profile,) = parse_counter_csv(text)
        assert profile.workload_id == "w1"
        assert profile.counters["instructions_retired"] == 3000
        assert profile.wall_time_s == 12
        assert profile.node_count == 2

    def test_empty_body_gives_empty_list(self):
        assert parse_counter_csv(COUNTER_HEADER) == []

    def test_bad_count_names_line(self):
        text = COUNTER_HEADER + "w1,n1,cycles,abc,10\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_counter_csv(text)

    @pytest.mark.parametrize("row", ["w1,n1,cycles,nan,10", "w1,n1,cycles,10,inf"])
    def test_non_finite_number_names_line(self, row):
        with pytest.raises(ParseError, match="line 2: .* is not finite"):
            parse_counter_csv(COUNTER_HEADER + row + "\n")

    def test_duplicate_row_rejected(self):
        text = COUNTER_HEADER + (
            "w1,n1,cycles,10,10\n"
            "w1,n1,cycles,20,10\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_counter_csv(text)

    def test_negative_count_rejected(self):
        text = COUNTER_HEADER + "w1,n1,cycles,-5,10\n"
        with pytest.raises(ParseError, match="negative"):
            parse_counter_csv(text)

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_counter_csv("a,b,c\n")

    def test_aliases_map_to_canonical_names(self):
        text = COUNTER_HEADER + (
            "w1,n1,instructions,100,10\n"
            "w1,n1,cpu-cycles,50,10\n"
            "w1,n1,branch-misses,5,10\n"
        )
        (profile,) = parse_counter_csv(text)
        assert profile.counters == {
            "instructions_retired": 100, "cycles": 50, "mispredicted_branches": 5,
        }

    def test_multiple_workloads_keep_input_order(self):
        text = COUNTER_HEADER + (
            "w2,n1,cycles,1,1\n"
            "w1,n1,cycles,2,1\n"
        )
        profiles = parse_counter_csv(text)
        assert [p.workload_id for p in profiles] == ["w2", "w1"]


def _telemetry(times, cpu=0.5, iow=0.1, wio=None):
    samples = tuple(
        TelemetrySample(
            t_s=float(t), cpu_util=cpu, io_wait=iow,
            weighted_io_time_ms=wio[i] if wio else 0.0,
            disk_bw_Bps=1e6, net_bw_Bps=2e6,
        )
        for i, t in enumerate(times)
    )
    return SystemTelemetry("w", samples)


class TestTrimRampUp:
    def test_default_warmup_drops_first_30s(self):
        trimmed = trim_ramp_up(_telemetry(range(0, 70, 10)))
        assert [s.t_s for s in trimmed.samples] == [30, 40, 50, 60]
        assert trimmed.workload_id == "w"

    def test_zero_warmup_is_identity(self):
        telemetry = _telemetry(range(0, 70, 10))
        assert trim_ramp_up(telemetry, 0.0) == telemetry

    def test_everything_trimmed_is_an_error(self):
        with pytest.raises(DataError, match="no steady-state samples"):
            trim_ramp_up(_telemetry([0, 10, 20]), 30.0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(DataError):
            trim_ramp_up(_telemetry([0, 10]), -1.0)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=30, unique=True))
    def test_idempotent(self, times):
        telemetry = _telemetry(sorted(times))
        try:
            once = trim_ramp_up(telemetry, 30.0)
        except DataError:
            return
        assert trim_ramp_up(once, 30.0) == once


class TestAggregateTelemetry:
    def test_constant_series_returns_constants(self):
        telemetry = _telemetry(range(0, 50, 10), cpu=0.9, iow=0.2)
        m = aggregate_telemetry(telemetry, 100.0)
        assert m.cpu_util == 0.9
        assert m.io_wait == 0.2
        assert m.disk_bw_Bps == 1e6
        assert m.net_bw_Bps == 2e6

    def test_weighted_io_ratio_from_counter_delta(self):
        telemetry = _telemetry([0, 50, 100], wio=[0.0, 6e5, 1.2e6])
        m = aggregate_telemetry(telemetry, 100.0)
        assert m.weighted_io_ratio == pytest.approx(12.0)

    def test_single_sample_returns_that_sample(self):
        telemetry = _telemetry([42], cpu=0.77, iow=0.03)
        m = aggregate_telemetry(telemetry, 10.0)
        assert m.cpu_util == 0.77
        assert m.io_wait == 0.03

    def test_time_weighting_uses_trapezoids(self):
        # cpu 0.0 for a long stretch, then 1.0 briefly: mean is time-weighted
        samples = (
            TelemetrySample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            TelemetrySample(90.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            TelemetrySample(100.0, 1.0, 0.0, 0.0, 0.0, 0.0),
        )
        m = aggregate_telemetry(SystemTelemetry("w", samples), 100.0)
        assert m.cpu_util == pytest.approx(0.05)

    def test_non_positive_runtime_rejected(self):
        with pytest.raises(DataError):
            aggregate_telemetry(_telemetry([0, 10]), 0.0)


class TestDeriveMetrics:
    def test_ipc_fixture(self):
        vector = derive_microarch_metrics(make_profile(), default_schema())
        assert vector.values[default_schema().index_of("ipc")] == 1.28

    def test_l1i_mpki_fixture(self):
        vector = derive_microarch_metrics(make_profile(), default_schema())
        assert vector.values[default_schema().index_of("l1i_mpki")] == 15.0

    def test_mix_ratios_sum_to_one(self):
        schema = default_schema()
        vector = derive_microarch_metrics(make_profile(), schema)
        mix = sum(
            vector.values[schema.index_of(name)]
            for name in ("branch_ratio", "integer_ratio", "fp_ratio",
                         "load_ratio", "store_ratio", "other_ratio")
        )
        assert abs(mix - 1.0) <= 1e-9

    # each default metric on the fixture, in schema order, worked out by hand from
    # FIXTURE_COUNTERS (instructions_retired 2.56e9, cycles 2e9)
    FIXTURE_VALUES = {
        "branch_ratio": 0.19, "integer_ratio": 0.38, "fp_ratio": 0.03,
        "load_ratio": 0.26, "store_ratio": 0.12, "other_ratio": 0.02,
        "l1i_mpki": 15.0, "l1d_mpki": 10.0, "l2_mpki": 11.0, "l3_mpki": 1.2,
        "l1i_miss_ratio": 0.075, "l1d_miss_ratio": 1 / 38, "l2_miss_ratio": 0.44,
        "l3_miss_ratio": 6 / 55,
        "itlb_mpki": 0.05, "dtlb_mpki": 0.9, "itlb_miss_ratio": 5e-5,
        "dtlb_miss_ratio": 9 / 3800, "itlb_walk_cycle_ratio": 0.005,
        "dtlb_walk_cycle_ratio": 0.02,
        "branch_misprediction_ratio": 0.028, "branch_misprediction_mpki": 5.32,
        "branch_taken_ratio": 0.6, "indirect_branch_ratio": 0.1,
        "frontend_stall_ratio": 0.35, "backend_stall_ratio": 0.25,
        "resource_stall_ratio": 0.15, "store_buffer_stall_ratio": 0.05,
        "divider_busy_ratio": 0.01, "machine_clears_pki": 0.1,
        "uops_issued_per_cycle": 1.6, "retired_uop_fraction": 0.9375,
        "offcore_requests_pki": 15.625, "offcore_data_read_pki": 9.765625,
        "offcore_rfo_pki": 3.125, "offcore_writeback_pki": 2.734375,
        "snoop_hit_ratio": 0.4, "snoop_hitm_ratio": 0.1, "snoop_miss_ratio": 0.5,
        "ipc": 1.28, "uops_retired_per_cycle": 1.5, "offcore_read_mlp": 0.3,
        "l1d_miss_mlp": 0.2,
        "operation_intensity": 0.1, "flops_per_cycle": 0.128,
    }

    def test_every_default_metric_on_the_fixture(self):
        schema = default_schema()
        vector = derive_microarch_metrics(make_profile(), schema)
        assert list(schema.names) == list(self.FIXTURE_VALUES)
        assert dict(zip(schema.names, vector.values)) == pytest.approx(
            self.FIXTURE_VALUES, rel=1e-12)
        # the mix_<kind> ids name the same rules as the default *_ratio ids
        for kind in ("branch", "integer", "fp", "load", "store", "other"):
            assert FORMULAS[f"mix_{kind}"] is FORMULAS[f"{kind}_ratio"]

    def test_zero_branch_instructions_errors_on_misprediction_ratio(self):
        profile = make_profile(counters={"branch_instructions": 0})
        with pytest.raises(DataError, match="branch_misprediction_ratio|branch_ratio"):
            derive_microarch_metrics(profile, default_schema())

    def test_invalid_profile_rejected_up_front(self):
        counters = dict(FIXTURE_COUNTERS)
        del counters["cycles"]
        from wcr.model import RawProfile

        with pytest.raises(DataError, match="cycles"):
            derive_microarch_metrics(
                RawProfile("w1", counters, wall_time_s=10.0), default_schema()
            )

    @given(st.integers(1, 1000))
    def test_rates_invariant_under_counter_scaling(self, scale):
        schema = default_schema()
        base = derive_microarch_metrics(make_profile(), schema)
        scaled_counters = {k: v * scale for k, v in FIXTURE_COUNTERS.items()}
        scaled = derive_microarch_metrics(
            make_profile(counters=scaled_counters), schema
        )
        assert scaled.values == base.values


class TestCheckSchema:
    def test_unknown_formula_rejected(self):
        with pytest.raises(DataError, match="metric 'x': unknown formula 'nope'"):
            MetricSchema(
                metrics=(MetricDescriptor("x", MetricGroup.CACHE, MetricUnit.RATIO, "nope"),),
                version="v",
            )

    def test_unit_mismatch_rejected(self):
        with pytest.raises(DataError, match=r"metric 'x': unit ratio does not match "
                                            r"formula 'ipc' \(per_cycle\)"):
            MetricSchema(
                metrics=(MetricDescriptor("x", MetricGroup.CACHE, MetricUnit.RATIO, "ipc"),),
                version="v",
            )


class TestParseTelemetryCsv:
    HEADER = "workload,t_s,cpu_util,io_wait,weighted_io_time_ms,disk_bw,net_bw\n"

    def test_groups_by_workload(self):
        text = self.HEADER + (
            "w1,0,0.5,0.1,0,1e6,2e6\n"
            "w2,0,0.9,0.0,0,0,0\n"
            "w1,10,0.6,0.1,100,1e6,2e6\n"
        )
        parsed = parse_telemetry_csv(text)
        assert set(parsed) == {"w1", "w2"}
        assert [s.t_s for s in parsed["w1"].samples] == [0, 10]

    def test_bad_fraction_names_line(self):
        text = self.HEADER + "w1,0,1.5,0.1,0,0,0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_telemetry_csv(text)

    def test_non_finite_value_names_line(self):
        text = self.HEADER + "w1,0,0.5,0.1,nan,0,0\n"
        with pytest.raises(ParseError, match="line 2: weighted_io_time_ms 'nan' is not finite"):
            parse_telemetry_csv(text)

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_telemetry_csv("workload,t\n")
