"""Canonical data model shared by every stage of the toolkit.

Metric schemas describe an ordered vector of derived micro-architectural
metrics; raw profiles carry the counter totals those metrics are derived
from; telemetry carries the OS-level time series used for system-behavior
classification. All types are immutable after construction.

This module owns the one table of the 45 default metrics, `_DEFAULT_METRICS`,
and the formula registry `FORMULAS` built from its rows, which `ingest`
applies to counter totals. It also holds the one check of a schema's
formula references: a `MetricSchema` whose descriptor names an unknown
formula, or a unit other than its formula's, cannot be built.

`Codec` is the only mapping between these dataclasses and JSON: every type
that is written to or read from a JSON file inherits its `to_dict` and
`from_dict`, which follow the dataclass fields and their annotations.
`read_json` is the only JSON reader and `write_json` the only JSON
serializer; likewise `read_csv` and `write_csv` are the only CSV reader and
writer, and `finite_number` parses every real-valued CSV field. The writers
fill a text stream: they never open a file, so `cli` alone decides when a
run's outputs reach disk.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import io
import json
import math
import types
from dataclasses import dataclass
from pathlib import Path
from typing import (Annotated, Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO,
                    Union, get_args, get_origin, get_type_hints)

import numpy as np

from .errors import DataError, ParseError

# Float array fields of a fixed dimension; an empty Matrix decodes to shape (0, 0).
Vector = Annotated[np.ndarray, 1]
Matrix = Annotated[np.ndarray, 2]

_SCALARS = frozenset({int, float, str, bool, type(None)})
# the value types a scalar annotation accepts; ints widen to float, bools are rejected
_ACCEPTS = {float: frozenset({int, float}), int: frozenset({int}), str: frozenset({str})}


class Codec:
    """JSON-ready dicts from dataclass fields, and dataclasses back from them.

    Encoding turns enums into their values, tuples and arrays into lists,
    and nested dataclasses and dicts into dicts. Decoding follows the field
    annotations: ints are accepted where floats belong, defaults fill absent
    keys, and a missing key, an unknown key or a value of the wrong type
    raises `DataError` naming `Class.field`.
    """

    def to_dict(self) -> dict[str, Any]:
        return _encode(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> Any:
        try:
            return _decode(cls, d, cls.__name__)
        except OverflowError:  # an integer too large for a float field
            raise DataError(f"{cls.__name__}: a number is outside the float range")


def _encode(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        if _SCALARS.issuperset(map(type, value)):  # a flat tuple of scalars in one pass
            return list(value)
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {name: _encode(getattr(value, name)) for name, _, _ in _field_specs(type(value))}
    return value


@functools.cache
def _field_specs(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, annotation, required) for each field of a dataclass."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple(
        (f.name, hints[f.name],
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


def _decode(tp: Any, value: Any, where: str) -> Any:
    origin, args = get_origin(tp), get_args(tp)
    if tp in _ACCEPTS:
        if type(value) in _ACCEPTS[tp]:
            return tp(value)
    elif dataclasses.is_dataclass(tp):
        if not isinstance(value, Mapping):
            raise DataError(f"{where}: expected an object, got {value!r}")
        specs = _field_specs(tp)
        unknown = set(value).difference(name for name, _, _ in specs)
        if unknown:
            raise DataError(f"{tp.__name__}.{min(unknown, key=str)}: unknown key")
        kwargs = {}
        for name, hint, required in specs:
            if name in value:
                kwargs[name] = _decode(hint, value[name], f"{tp.__name__}.{name}")
            elif required:
                raise DataError(f"{tp.__name__}.{name}: missing key")
        return tp(**kwargs)
    elif origin is tuple and args[1:] == (...,):
        if not isinstance(value, list):
            raise DataError(f"{where}: expected a list, got {value!r}")
        if args[0] in _ACCEPTS and _ACCEPTS[args[0]].issuperset(map(type, value)):
            return tuple(map(args[0], value))  # a flat list of scalars in one pass
        return tuple(_decode(args[0], v, where) for v in value)
    elif origin is dict:
        if not isinstance(value, Mapping):
            raise DataError(f"{where}: expected an object, got {value!r}")
        keys = _decode(tuple[args[0], ...], list(value), where)
        return dict(zip(keys, _decode(tuple[args[1], ...], list(value.values()), where)))
    elif origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        for member in args:
            try:
                return _decode(member, value, where)
            except DataError:
                pass
    elif origin is Annotated:  # Vector or Matrix
        try:
            array = np.asarray(value)
        except ValueError:  # ragged nesting
            array = np.array(None)
        if array.size == 0 and array.ndim < args[1]:
            array = array.reshape((0,) * args[1])
        if array.dtype.kind not in "fiu" or array.ndim != args[1]:
            raise DataError(f"{where}: expected a {args[1]}-D array of numbers")
        return array.astype(float)
    elif issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except (TypeError, ValueError):
            pass
    name = " or ".join(getattr(t, "__name__", str(t)) for t in (args or (tp,)))
    raise DataError(f"{where}: expected {name}, got {value!r}")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; malformed text is a `DataError`, not a crash.

    `NaN`, `Infinity` and `-Infinity` are not JSON and are rejected too, as
    is a number such as `1e400` that only a float infinity could hold.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_no_constant, parse_float=_finite_float)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: not valid JSON ({exc})")


def _no_constant(token: str) -> Any:
    raise ValueError(f"{token} is not a JSON value")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is beyond the float range")
    return value


def write_json(out: TextIO, payload: Any) -> None:
    """Write `payload` to `out` as byte-stable JSON: sorted keys, two-space indent,
    final newline.

    NaN and infinities have no JSON form; a payload holding one is a
    `DataError` naming the stream, and nothing is written.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{getattr(out, 'name', 'JSON output')}: {exc}")
    out.write(text + "\n")


def read_csv(stream: TextIO | str, columns: Sequence[str], *, extra: bool = False
             ) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Check a CSV header; return it with an iterator of (line number, row).

    The header must be exactly `columns`, or with `extra` hold at least
    them, other columns being passed through; its cells are stripped, row
    fields are not. Blank lines are skipped and every row must have as many
    fields as the header. Malformed text is a `ParseError` naming the line
    and, when `stream` is a file, the file.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows = _csv_rows(stream, list(columns), extra, getattr(stream, "name", None))
    return next(rows), rows


def _csv_rows(stream: TextIO, columns: list[str], extra: bool, source: str | None) -> Iterator:
    # yields the checked header, then (line number, row) for each non-blank row
    reader = csv.reader(stream)
    header = None
    try:
        for row in reader:
            if not (len(row) > 1 or row and row[0].strip()):
                continue
            line = reader.line_num
            if header is None:
                header = [h.strip() for h in row]
                missing = [c for c in columns if c not in header]
                if extra and missing:
                    raise ParseError(f"missing columns: {', '.join(missing)}", line, source)
                if not extra and header != columns:
                    raise ParseError(f"expected header {','.join(columns)!r}, "
                                     f"got {','.join(header)!r}", line, source)
                yield header
            elif len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line, source)
            else:
                yield line, row
    except UnicodeDecodeError:
        raise ParseError("not valid UTF-8 text", source=source)
    except csv.Error as exc:  # e.g. a field over the size limit
        raise ParseError(str(exc), reader.line_num, source)
    if header is None:
        raise ParseError("missing header row", source=source)


def finite_number(name: str, token: str, line: int, source: str | Path | None = None) -> float:
    """A CSV field as a float; NaN, infinities and non-numbers are a `ParseError`."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{name} {token!r} is not a number", line, source)
    if not math.isfinite(value):
        raise ParseError(f"{name} {token!r} is not finite", line, source)
    return value


def write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header` and `rows` to a text stream, lines ending in "\\n"; a field is
    quoted only when it must be, so a name with a comma reads back whole."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


class MetricGroup(str, enum.Enum):
    """The eight families a derived metric can belong to."""

    INSTRUCTION_MIX = "instruction_mix"
    CACHE = "cache"
    TLB = "tlb"
    BRANCH = "branch"
    PIPELINE = "pipeline"
    OFFCORE_SNOOP = "offcore_snoop"
    PARALLELISM = "parallelism"
    OPERATION_INTENSITY = "operation_intensity"


class MetricUnit(str, enum.Enum):
    RATIO = "ratio"
    PER_KILO_INSTR = "per_kilo_instr"
    PER_CYCLE = "per_cycle"
    FLOPS_PER_BYTE = "flops_per_byte"
    COUNT = "count"


class SystemBehavior(str, enum.Enum):
    CPU_INTENSIVE = "cpu_intensive"
    IO_INTENSIVE = "io_intensive"
    HYBRID = "hybrid"


class DataSizeClass(str, enum.Enum):
    """Band of an output/input or intermediate/input byte ratio.

    NONE is the distinguished label for workloads that produce no
    intermediate data at all; it never applies to the output ratio.
    """

    MUCH_LESS = "much_less"
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    NONE = "none"


class Category(str, enum.Enum):
    DATA_ANALYSIS = "data_analysis"
    SERVICE = "service"
    INTERACTIVE_ANALYSIS = "interactive_analysis"


@dataclass(frozen=True)
class MetricDescriptor(Codec):
    """One entry of a metric schema: a named, unit-typed derivation rule."""

    name: str
    group: MetricGroup
    unit: MetricUnit
    formula_id: str

    def __post_init__(self) -> None:
        if not self.name:
            raise DataError("metric name must be non-empty")
        if not self.formula_id:
            raise DataError(f"metric '{self.name}': formula_id must be non-empty")


@dataclass(frozen=True)
class MetricSchema(Codec):
    """Ordered list of metric descriptors; vector indices follow this order.

    Construction, decoding included, rejects duplicate names, an empty
    version, and a descriptor whose formula is not in `FORMULAS` or whose
    unit differs from its formula's, so every schema names registered formulas.
    """

    metrics: tuple[MetricDescriptor, ...]
    version: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        names = [m.name for m in self.metrics]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate metric names in schema: {dupes}")
        if not self.version:
            raise DataError("schema version must be non-empty")
        for desc in self.metrics:
            formula = FORMULAS.get(desc.formula_id)
            if formula is None:
                raise DataError(f"metric '{desc.name}': unknown formula '{desc.formula_id}'")
            if formula.unit is not desc.unit:
                raise DataError(f"metric '{desc.name}': unit {desc.unit.value} does not match "
                                f"formula '{desc.formula_id}' ({formula.unit.value})")

    def __len__(self) -> int:
        return len(self.metrics)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.metrics)

    def index_of(self, name: str) -> int:
        for i, m in enumerate(self.metrics):
            if m.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class RawProfile(Codec):
    """Per-workload counter totals from one measured run.

    Construction is deliberately lenient so that broken inputs can be
    represented and reported; use `validate_profile` to check invariants.
    """

    workload_id: str
    counters: dict[str, float]
    wall_time_s: float
    node_count: int = 1
    stack: str = ""


@dataclass(frozen=True)
class MetricVector(Codec):
    """Derived metric values aligned to a schema, one row of the analysis matrix."""

    workload_id: str
    values: tuple[float, ...]
    schema_version: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not math.isfinite(v):
                raise DataError(f"workload '{self.workload_id}': non-finite metric value {v!r}")

    @classmethod
    def from_values(
        cls, workload_id: str, values: Sequence[float], schema: MetricSchema
    ) -> "MetricVector":
        """Build a vector checked against `schema`: length, finiteness, ratio bounds."""
        values = tuple(float(v) for v in values)
        if len(values) != len(schema):
            raise DataError(
                f"workload '{workload_id}': {len(values)} values for a "
                f"{len(schema)}-metric schema"
            )
        for desc, v in zip(schema.metrics, values):
            if not math.isfinite(v):
                raise DataError(f"metric '{desc.name}': non-finite value {v!r}")
            if desc.unit is MetricUnit.RATIO and not 0.0 <= v <= 1.0:
                raise DataError(f"metric '{desc.name}': ratio value {v} outside [0, 1]")
        return cls(workload_id=workload_id, values=values, schema_version=schema.version)


@dataclass(frozen=True)
class TelemetrySample(Codec):
    """One OS-level sample: utilization fractions and I/O throughput at time t_s."""

    t_s: float
    cpu_util: float
    io_wait: float
    weighted_io_time_ms: float
    disk_bw_Bps: float
    net_bw_Bps: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_util <= 1.0:
            raise DataError(f"cpu_util {self.cpu_util} outside [0, 1]")
        if not 0.0 <= self.io_wait <= 1.0:
            raise DataError(f"io_wait {self.io_wait} outside [0, 1]")
        if self.weighted_io_time_ms < 0:
            raise DataError(f"weighted_io_time_ms {self.weighted_io_time_ms} is negative")


@dataclass(frozen=True)
class SystemTelemetry(Codec):
    """Time-ordered OS telemetry for one workload run."""

    workload_id: str
    samples: tuple[TelemetrySample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise DataError(f"workload '{self.workload_id}': telemetry has no samples")
        for prev, cur in zip(self.samples, self.samples[1:]):
            if cur.t_s <= prev.t_s:
                raise DataError(
                    f"workload '{self.workload_id}': sample times not strictly "
                    f"increasing ({prev.t_s} then {cur.t_s})"
                )


@dataclass(frozen=True)
class SystemBehaviorMetrics(Codec):
    """Aggregated system-level behavior of one workload over its steady state."""

    cpu_util: float
    io_wait: float
    weighted_io_ratio: float
    disk_bw_Bps: float = 0.0
    net_bw_Bps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_util <= 1.0:
            raise DataError(f"cpu_util {self.cpu_util} outside [0, 1]")
        if not 0.0 <= self.io_wait <= 1.0:
            raise DataError(f"io_wait {self.io_wait} outside [0, 1]")
        if self.weighted_io_ratio < 0:
            raise DataError(f"weighted_io_ratio {self.weighted_io_ratio} is negative")


@dataclass(frozen=True)
class DataVolumes(Codec):
    """Bytes moved by one workload: consumed, produced, and materialized in between."""

    input_bytes: int
    output_bytes: int
    intermediate_bytes: int

    def __post_init__(self) -> None:
        for name in ("input_bytes", "output_bytes", "intermediate_bytes"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} is negative")


@dataclass(frozen=True)
class BehaviorLabels(Codec):
    """Classification outcome for one workload."""

    system: SystemBehavior
    data_out: DataSizeClass
    data_intermediate: DataSizeClass
    category: Category

    def __post_init__(self) -> None:
        if self.data_out is DataSizeClass.NONE:
            raise DataError("data_out cannot be the no-intermediate label")


# --- the default metrics and their derivation rules ---------------------

DEFAULT_SCHEMA_VERSION = "wcr-default-1"

_MIX = MetricGroup.INSTRUCTION_MIX
_CACHE = MetricGroup.CACHE
_TLB = MetricGroup.TLB
_BR = MetricGroup.BRANCH
_PIPE = MetricGroup.PIPELINE
_OFF = MetricGroup.OFFCORE_SNOOP
_PAR = MetricGroup.PARALLELISM
_OPI = MetricGroup.OPERATION_INTENSITY

_RATIO = MetricUnit.RATIO
_PKI = MetricUnit.PER_KILO_INSTR
_PC = MetricUnit.PER_CYCLE
_FPB = MetricUnit.FLOPS_PER_BYTE

_INSTR = "instructions_retired"

# The 45 default metrics over eight groups, in vector order, as
# (name, group, unit, numerator, denominator, scale): each metric is
# scale * numerator / denominator over the canonical counter vocabulary, and
# its formula id is its name. `other_ratio`, whose numerator is None, is the
# share of the denominator that the other mix numerators leave uncovered.
_DEFAULT_METRICS: tuple[tuple[str, MetricGroup, MetricUnit, str | None, str, float], ...] = (
    # instruction mix: fractions of retired instructions (6)
    ("branch_ratio", _MIX, _RATIO, "branch_instructions", _INSTR, 1.0),
    ("integer_ratio", _MIX, _RATIO, "integer_instructions", _INSTR, 1.0),
    ("fp_ratio", _MIX, _RATIO, "fp_instructions", _INSTR, 1.0),
    ("load_ratio", _MIX, _RATIO, "load_instructions", _INSTR, 1.0),
    ("store_ratio", _MIX, _RATIO, "store_instructions", _INSTR, 1.0),
    ("other_ratio", _MIX, _RATIO, None, _INSTR, 1.0),
    # cache behavior (8)
    ("l1i_mpki", _CACHE, _PKI, "l1i_misses", _INSTR, 1000.0),
    ("l1d_mpki", _CACHE, _PKI, "l1d_misses", _INSTR, 1000.0),
    ("l2_mpki", _CACHE, _PKI, "l2_misses", _INSTR, 1000.0),
    ("l3_mpki", _CACHE, _PKI, "l3_misses", _INSTR, 1000.0),
    ("l1i_miss_ratio", _CACHE, _RATIO, "l1i_misses", "l1i_accesses", 1.0),
    ("l1d_miss_ratio", _CACHE, _RATIO, "l1d_misses", "l1d_accesses", 1.0),
    ("l2_miss_ratio", _CACHE, _RATIO, "l2_misses", "l2_accesses", 1.0),
    ("l3_miss_ratio", _CACHE, _RATIO, "l3_misses", "l3_accesses", 1.0),
    # TLB behavior (6)
    ("itlb_mpki", _TLB, _PKI, "itlb_misses", _INSTR, 1000.0),
    ("dtlb_mpki", _TLB, _PKI, "dtlb_misses", _INSTR, 1000.0),
    ("itlb_miss_ratio", _TLB, _RATIO, "itlb_misses", "itlb_accesses", 1.0),
    ("dtlb_miss_ratio", _TLB, _RATIO, "dtlb_misses", "dtlb_accesses", 1.0),
    ("itlb_walk_cycle_ratio", _TLB, _RATIO, "itlb_walk_cycles", "cycles", 1.0),
    ("dtlb_walk_cycle_ratio", _TLB, _RATIO, "dtlb_walk_cycles", "cycles", 1.0),
    # branch execution (4)
    ("branch_misprediction_ratio", _BR, _RATIO, "mispredicted_branches",
     "branch_instructions", 1.0),
    ("branch_misprediction_mpki", _BR, _PKI, "mispredicted_branches", _INSTR, 1000.0),
    ("branch_taken_ratio", _BR, _RATIO, "taken_branches", "branch_instructions", 1.0),
    ("indirect_branch_ratio", _BR, _RATIO, "indirect_branches", "branch_instructions", 1.0),
    # pipeline behavior (8)
    ("frontend_stall_ratio", _PIPE, _RATIO, "frontend_stall_cycles", "cycles", 1.0),
    ("backend_stall_ratio", _PIPE, _RATIO, "backend_stall_cycles", "cycles", 1.0),
    ("resource_stall_ratio", _PIPE, _RATIO, "resource_stall_cycles", "cycles", 1.0),
    ("store_buffer_stall_ratio", _PIPE, _RATIO, "store_buffer_stall_cycles", "cycles", 1.0),
    ("divider_busy_ratio", _PIPE, _RATIO, "divider_busy_cycles", "cycles", 1.0),
    ("machine_clears_pki", _PIPE, _PKI, "machine_clears", _INSTR, 1000.0),
    ("uops_issued_per_cycle", _PIPE, _PC, "uops_issued", "cycles", 1.0),
    ("retired_uop_fraction", _PIPE, _RATIO, "uops_retired", "uops_issued", 1.0),
    # off-core requests and snoop responses (7)
    ("offcore_requests_pki", _OFF, _PKI, "offcore_requests", _INSTR, 1000.0),
    ("offcore_data_read_pki", _OFF, _PKI, "offcore_demand_data_reads", _INSTR, 1000.0),
    ("offcore_rfo_pki", _OFF, _PKI, "offcore_rfo_requests", _INSTR, 1000.0),
    ("offcore_writeback_pki", _OFF, _PKI, "offcore_writebacks", _INSTR, 1000.0),
    ("snoop_hit_ratio", _OFF, _RATIO, "snoop_hits", "snoop_responses", 1.0),
    ("snoop_hitm_ratio", _OFF, _RATIO, "snoop_hitm", "snoop_responses", 1.0),
    ("snoop_miss_ratio", _OFF, _RATIO, "snoop_misses", "snoop_responses", 1.0),
    # realized parallelism (4)
    ("ipc", _PAR, _PC, _INSTR, "cycles", 1.0),
    ("uops_retired_per_cycle", _PAR, _PC, "uops_retired", "cycles", 1.0),
    ("offcore_read_mlp", _PAR, _PC, "offcore_read_occupancy_cycles", "cycles", 1.0),
    ("l1d_miss_mlp", _PAR, _PC, "l1d_miss_occupancy_cycles", "cycles", 1.0),
    # operation intensity (2): flops per byte of off-core traffic, roofline-style
    ("operation_intensity", _OPI, _FPB, "fp_operations", "offcore_bytes", 1.0),
    ("flops_per_cycle", _OPI, _PC, "fp_operations", "cycles", 1.0),
)


def default_schema() -> MetricSchema:
    """The toolkit's 45-metric default schema.

    Covers all eight metric groups with derivations over the canonical
    counter vocabulary (see `FORMULAS`). Custom schemas of any dimension may
    be supplied instead; each descriptor's formula reference is checked
    when the schema is built.
    """
    return MetricSchema(
        metrics=tuple(
            MetricDescriptor(name=n, group=g, unit=u, formula_id=n)
            for n, g, u, *_ in _DEFAULT_METRICS
        ),
        version=DEFAULT_SCHEMA_VERSION,
    )


@dataclass(frozen=True)
class Formula:
    """One derivation rule: counters in, a single metric value out."""

    unit: MetricUnit
    required: tuple[str, ...]
    compute: Callable[[Mapping[str, float]], float]


def _quotient(numer: str, denom: str, unit: MetricUnit, scale: float) -> Formula:
    def compute(counters: Mapping[str, float]) -> float:
        d = counters[denom]
        if d == 0:
            raise DataError(f"denominator counter '{denom}' is zero")
        return scale * counters[numer] / d

    return Formula(unit=unit, required=(numer, denom), compute=compute)


# the counters the residual mix share subtracts: every other mix numerator
_MIX_CATEGORIES = tuple(numer for _, group, _, numer, _, _ in _DEFAULT_METRICS
                        if group is _MIX and numer is not None)


def _mix_other(total: str, unit: MetricUnit) -> Formula:
    # Residual share: whatever the categorized counters do not cover.
    def compute(counters: Mapping[str, float]) -> float:
        t = counters[total]
        if t == 0:
            raise DataError(f"denominator counter '{total}' is zero")
        covered = sum(counters[c] for c in _MIX_CATEGORIES)
        return (t - covered) / t

    return Formula(unit=unit, required=(total,) + _MIX_CATEGORIES, compute=compute)


# Formula id -> rule, each default metric's under its name. Each mix rule also
# answers to mix_<kind>, an id a custom schema may reference.
FORMULAS: dict[str, Formula] = {
    name: _mix_other(denom, unit) if numer is None else _quotient(numer, denom, unit, scale)
    for name, _, unit, numer, denom, scale in _DEFAULT_METRICS
}
FORMULAS.update({f"mix_{name.removesuffix('_ratio')}": FORMULAS[name]
                 for name, group, *_ in _DEFAULT_METRICS if group is _MIX})


def validate_profile(profile: RawProfile, schema: MetricSchema) -> list[str]:
    """Check a raw profile against its own invariants and a schema's needs.

    Returns a list of human-readable violations; an empty list means the
    profile can be derived under `schema`. Violations are data, not faults.
    """
    violations: list[str] = []
    if not profile.workload_id:
        violations.append("workload_id is empty")
    if not 0 < profile.wall_time_s < math.inf:
        violations.append(f"wall_time_s {profile.wall_time_s} is not positive and finite")
    if profile.node_count < 1:
        violations.append(f"node_count {profile.node_count} is not positive")
    for name, value in sorted(profile.counters.items()):
        if value < 0:
            violations.append(f"counter '{name}' is negative ({value})")
    for name in ("instructions_retired", "cycles"):
        if name in profile.counters and profile.counters[name] <= 0:
            violations.append(f"counter '{name}' must be > 0 (got {profile.counters[name]})")

    needed = {"instructions_retired", "cycles"}
    for desc in schema.metrics:
        needed.update(FORMULAS[desc.formula_id].required)
    violations += [f"counter '{c}' is absent" for c in sorted(needed - profile.counters.keys())]
    return violations
