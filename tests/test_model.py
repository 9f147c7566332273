"""Data-model invariants: schemas, vectors, telemetry, JSON round-trips."""

import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import FIXTURE_COUNTERS, make_profile
from wcr.cachesim import AccessKind, CurveKind
from wcr.errors import DataError
from wcr.ingest import FORMULAS
from wcr.model import (
    BehaviorLabels,
    Category,
    DataSizeClass,
    DataVolumes,
    MetricDescriptor,
    MetricGroup,
    MetricSchema,
    MetricUnit,
    MetricVector,
    RawProfile,
    SystemBehavior,
    SystemBehaviorMetrics,
    SystemTelemetry,
    TelemetrySample,
    default_schema,
    read_json,
    validate_profile,
    write_json,
)


class TestDefaultSchema:
    def test_has_45_metrics(self):
        assert len(default_schema()) == 45

    def test_every_group_appears(self):
        groups = {m.group for m in default_schema().metrics}
        assert groups == set(MetricGroup)

    def test_names_unique(self):
        names = default_schema().names
        assert len(set(names)) == len(names)

    def test_mandated_metrics_present(self):
        names = set(default_schema().names)
        assert {
            "branch_ratio", "integer_ratio", "fp_ratio", "load_ratio", "store_ratio",
            "other_ratio", "ipc", "branch_misprediction_ratio",
            "l1i_mpki", "l1d_mpki", "l2_mpki", "l3_mpki",
            "itlb_mpki", "dtlb_mpki", "operation_intensity",
        } <= names

    def test_formulas_registered_and_units_match(self):
        schema = default_schema()
        for desc in schema.metrics:
            assert FORMULAS[desc.formula_id].unit is desc.unit

    def test_duplicate_names_rejected(self):
        d = MetricDescriptor("x", MetricGroup.CACHE, MetricUnit.RATIO, "ipc")
        with pytest.raises(DataError, match="duplicate"):
            MetricSchema(metrics=(d, d), version="v")

    def test_save_load_roundtrip(self, tmp_path):
        schema = default_schema()
        path = tmp_path / "schema.json"
        with open(path, "w", encoding="utf-8") as fh:
            write_json(fh, schema.to_dict())
        loaded = MetricSchema.from_dict(read_json(path))
        assert loaded == schema
        raw = json.loads(path.read_text())
        assert set(raw) == {"version", "metrics"}


class TestValidateProfile:
    def test_clean_profile_has_empty_report(self):
        assert validate_profile(make_profile(), default_schema()) == []

    def test_missing_cycles_is_named(self):
        counters = dict(FIXTURE_COUNTERS)
        del counters["cycles"]
        profile = RawProfile("w1", counters, wall_time_s=10.0)
        report = validate_profile(profile, default_schema())
        assert any("'cycles' is absent" in v for v in report)

    def test_negative_counter_is_flagged(self):
        profile = make_profile(counters={"l2_misses": -5})
        report = validate_profile(profile, default_schema())
        assert any("'l2_misses' is negative" in v for v in report)

    def test_missing_formula_counter_is_named(self):
        counters = dict(FIXTURE_COUNTERS)
        del counters["snoop_hits"]
        profile = RawProfile("w1", counters, wall_time_s=10.0)
        report = validate_profile(profile, default_schema())
        assert any("'snoop_hits' is absent" in v for v in report)

    @pytest.mark.parametrize("wall_time_s", [float("nan"), float("inf")])
    def test_non_finite_wall_time_is_flagged(self, wall_time_s):
        profile = make_profile(wall_time_s=wall_time_s)
        report = validate_profile(profile, default_schema())
        assert any("wall_time_s" in v for v in report)

    def test_violations_are_data_not_exceptions(self):
        profile = RawProfile("w1", {}, wall_time_s=-1.0, node_count=0)
        report = validate_profile(profile, default_schema())
        assert len(report) > 3


class TestMetricVector:
    def test_misaligned_construction_rejected(self):
        with pytest.raises(DataError, match="45-metric"):
            MetricVector.from_values("w", [0.1, 0.2], default_schema())

    def test_ratio_out_of_bounds_rejected(self):
        schema = default_schema()
        values = [0.5] * len(schema)
        values[schema.names.index("branch_ratio")] = 1.5
        with pytest.raises(DataError, match="branch_ratio"):
            MetricVector.from_values("w", values, schema)

    def test_non_finite_rejected(self):
        schema = default_schema()
        values = [0.5] * len(schema)
        values[schema.names.index("l1i_mpki")] = float("nan")
        with pytest.raises(DataError):
            MetricVector.from_values("w", values, schema)

    def test_roundtrip(self):
        schema = default_schema()
        vector = MetricVector.from_values("w", [0.5] * len(schema), schema)
        assert MetricVector.from_dict(vector.to_dict()) == vector


class TestTelemetry:
    def test_times_must_increase(self):
        s = TelemetrySample(1.0, 0.5, 0.1, 0.0, 0.0, 0.0)
        with pytest.raises(DataError, match="strictly increasing"):
            SystemTelemetry("w", (s, s))

    def test_fractions_bounded(self):
        with pytest.raises(DataError, match="cpu_util"):
            TelemetrySample(0.0, 1.5, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DataError, match="io_wait"):
            TelemetrySample(0.0, 0.5, -0.1, 0.0, 0.0, 0.0)

    def test_roundtrip(self):
        telemetry = SystemTelemetry(
            "w",
            tuple(
                TelemetrySample(float(t), 0.5, 0.1, 10.0 * t, 1e6, 2e6)
                for t in range(5)
            ),
        )
        assert SystemTelemetry.from_dict(telemetry.to_dict()) == telemetry


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JSON_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "é€", "\U0001F600 \ud800", "</\u2028>"]),
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    _FINITE_FLOATS,
    st.sampled_from([-0.0, 5e-324, 1e-7, 1e16, sys.float_info.max, -sys.float_info.max]),
    _FINITE_FLOATS.map(np.float64),
    st.sampled_from([*AccessKind, *CurveKind]),
)
# nested dicts (string keys), lists and tuples, empty ones and flat float lists among them
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES | st.lists(_FINITE_FLOATS),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
    ),
    max_leaves=40,
)


class TestOtherTypes:
    def test_profile_roundtrip(self):
        profile = make_profile(stack="hadoop")
        assert RawProfile.from_dict(profile.to_dict()) == profile

    @pytest.mark.parametrize("place", [
        lambda v: v,
        lambda v: {"a": [1.0, v, 2.0]},
        lambda v: [1, "b", v],
        lambda v: {"a": {"b": v}},
    ], ids=["top-level", "flat-float-list", "mixed-list", "dict-value"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_write_json_rejects_non_finite(self, value, place):
        out = io.StringIO()
        out.name = "out.json"
        with pytest.raises(DataError, match="out.json: Out of range float values"):
            write_json(out, place(value))
        assert out.getvalue() == ""

    @given(_JSON_PAYLOADS)
    def test_write_json_writes_the_text_of_json_dumps(self, payload):
        out = io.StringIO()
        write_json(out, payload)
        assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True,
                                            allow_nan=False) + "\n"

    def test_volumes_negative_rejected(self):
        with pytest.raises(DataError):
            DataVolumes(10, -1, 0)

    def test_volumes_roundtrip(self):
        v = DataVolumes(100, 5, 0)
        assert DataVolumes.from_dict(v.to_dict()) == v

    def test_behavior_metrics_roundtrip(self):
        m = SystemBehaviorMetrics(0.7, 0.05, 3.0, 1e6, 5e5)
        assert SystemBehaviorMetrics.from_dict(m.to_dict()) == m

    def test_labels_roundtrip(self):
        labels = BehaviorLabels(
            SystemBehavior.HYBRID, DataSizeClass.EQUAL, DataSizeClass.NONE,
            Category.DATA_ANALYSIS,
        )
        assert BehaviorLabels.from_dict(labels.to_dict()) == labels

    def test_labels_reject_none_output(self):
        with pytest.raises(DataError):
            BehaviorLabels(
                SystemBehavior.HYBRID, DataSizeClass.NONE, DataSizeClass.NONE,
                Category.SERVICE,
            )


@given(
    cpu=st.floats(0, 1), iow=st.floats(0, 1), wio=st.floats(0, 1e6),
    disk=st.floats(-1e9, 1e9), net=st.floats(-1e9, 1e9),
)
def test_behavior_metrics_roundtrip_property(cpu, iow, wio, disk, net):
    m = SystemBehaviorMetrics(cpu, iow, wio, disk, net)
    assert SystemBehaviorMetrics.from_dict(m.to_dict()) == m


@given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(0, 10**15), max_size=8))
def test_profile_roundtrip_property(counters):
    counters.update({"instructions_retired": 100, "cycles": 50})
    profile = RawProfile("w", {k: float(v) for k, v in counters.items()}, wall_time_s=1.0)
    assert RawProfile.from_dict(profile.to_dict()) == profile
