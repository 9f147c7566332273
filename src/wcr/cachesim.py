"""Trace-driven set-associative LRU cache simulation.

A trace is a weighted list of access segments; sweeping one cache
configuration across a capacity grid yields a miss-ratio-versus-capacity
curve whose knee estimates the workload's instruction or data footprint.
Every access allocates its line on a miss, stores included.
`sweep_capacities` maps each segment's accesses to lines once and runs
`simulate`, the LRU pass, over them at each capacity.

A set that receives at most `ways` distinct lines never evicts, so each of
its lines misses exactly once, on its first touch. The simulation counts
those sets' misses from the distinct lines alone and runs the LRU loop only
over accesses to the other sets. This is exact: LRU sets are independent of
one another, and since every access allocates, a set's contents depend only
on the accesses mapped to it. When no set evicts, the miss count is the
number of distinct lines and no access is looked at.

The loop also skips each access whose line is that of the access just
before it in the trace. The earlier access left that line most recently
used in its set, and nothing has touched the set since, so the repeat is a
hit that changes nothing (the stack property of Mattson et al., 1970). The
miss count stays exact; the skipped accesses still count as accesses.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import DataError, ParseError
from .model import Codec, finite_number, read_csv, read_json, write_csv

KIB = 1024
# default sweep: 16 KB doubling up to 8192 KB
DEFAULT_SIZE_GRID: tuple[int, ...] = tuple(kb * KIB for kb in (
    16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192))

_WEIGHT_SUM_TOL = 1e-9
# the LRU loop converts this many lines at a time to Python ints, so its
# list stays small beside the numpy lines it reads
_CHUNK = 1 << 16
# the text reader converts this many characters at a time
_TEXT_BLOCK = 1 << 18


class AccessKind(enum.IntEnum):
    IFETCH = 0
    LOAD = 1
    STORE = 2


ALL_KINDS = frozenset(AccessKind)

_KIND_TOKENS = {
    "i": AccessKind.IFETCH, "ifetch": AccessKind.IFETCH, "instr": AccessKind.IFETCH,
    "l": AccessKind.LOAD, "load": AccessKind.LOAD, "read": AccessKind.LOAD,
    "s": AccessKind.STORE, "store": AccessKind.STORE, "write": AccessKind.STORE,
}


class CurveKind(str, enum.Enum):
    INSTRUCTION = "instruction"
    DATA = "data"
    UNIFIED = "unified"


def curve_kind_for(kinds: frozenset[AccessKind]) -> CurveKind:
    if kinds == frozenset({AccessKind.IFETCH}):
        return CurveKind.INSTRUCTION
    if kinds <= frozenset({AccessKind.LOAD, AccessKind.STORE}):
        return CurveKind.DATA
    return CurveKind.UNIFIED


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one simulated cache. `associativity=None` means fully associative."""

    capacity_bytes: int
    line_bytes: int = 64
    associativity: int | None = 8

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise DataError(f"capacity_bytes {self.capacity_bytes} is not positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise DataError(f"line_bytes {self.line_bytes} is not a positive power of two")
        if self.associativity is not None and self.associativity <= 0:
            raise DataError(f"associativity {self.associativity} is not positive")
        if self.capacity_bytes % self.line_bytes:
            raise DataError("capacity_bytes must be divisible by line_bytes")
        if self.associativity is not None and self.capacity_bytes % (
            self.line_bytes * self.associativity
        ):
            raise DataError(
                "capacity_bytes must be divisible by line_bytes * associativity"
            )

    @property
    def capacity_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def set_count(self) -> int:
        if self.associativity is None:
            return 1
        return self.capacity_bytes // (self.line_bytes * self.associativity)

    @property
    def ways(self) -> int:
        if self.associativity is None:
            return self.capacity_lines
        return self.associativity


@dataclass(frozen=True)
class TraceSegment:
    """A weighted slice of a memory-access trace."""

    weight: float
    addresses: np.ndarray
    kinds: np.ndarray

    def __post_init__(self) -> None:
        addresses = np.asarray(self.addresses, dtype=np.uint64)
        kinds = np.asarray(self.kinds, dtype=np.uint8)
        if addresses.size == 0:
            raise DataError("trace segment is empty")
        if addresses.shape != kinds.shape:
            raise DataError("addresses and kinds differ in length")
        if self.weight <= 0:
            raise DataError(f"segment weight {self.weight} is not positive")
        if int(kinds.max()) > max(AccessKind):
            raise DataError("kinds contain values outside the access-kind codes")
        addresses.setflags(write=False)
        kinds.setflags(write=False)
        object.__setattr__(self, "addresses", addresses)
        object.__setattr__(self, "kinds", kinds)

    def __len__(self) -> int:
        return int(self.addresses.size)


@dataclass(frozen=True)
class AccessTrace:
    """All segments of one workload's trace; weights sum to 1."""

    segments: tuple[TraceSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise DataError("trace has no segments")
        total = sum(s.weight for s in self.segments)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise DataError(f"segment weights sum to {total}, expected 1")

    @classmethod
    def single(cls, addresses, kinds) -> "AccessTrace":
        return cls(segments=(TraceSegment(1.0, addresses, kinds),))


@dataclass(frozen=True)
class SimResult:
    accesses: int
    misses: int
    miss_ratio: float


@dataclass(frozen=True)
class CurvePoint:
    capacity_bytes: int
    miss_ratio: float


@dataclass(frozen=True)
class MissRatioCurve(Codec):
    """Miss ratio as a function of cache capacity, for one access-kind filter."""

    points: tuple[CurvePoint, ...]
    kind: CurveKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise DataError("curve has no points")
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.capacity_bytes <= prev.capacity_bytes:
                raise DataError("curve capacities must be strictly increasing")
        for p in self.points:
            if not 0.0 <= p.miss_ratio <= 1.0:
                raise DataError(f"miss ratio {p.miss_ratio} outside [0, 1]")


# --- simulation ---------------------------------------------------------------


def _segment_lines(
    segment: TraceSegment, kinds: frozenset[AccessKind], line_bytes: int
) -> np.ndarray:
    """The line of each access whose kind is in `kinds`."""
    addresses = segment.addresses
    if kinds != ALL_KINDS:
        addresses = addresses[np.isin(segment.kinds, [k.value for k in kinds])]
    if addresses.size == 0:
        raise DataError("no accesses of the requested kinds in this segment")
    return addresses // np.uint64(line_bytes)


def simulate(lines: np.ndarray, distinct: np.ndarray, config: CacheConfig) -> SimResult:
    """Run one segment's lines through a cold cache and count misses.

    `lines` holds the line (`address // config.line_bytes`) of each access
    that reaches the cache, in trace order, and `distinct` each of those
    lines once. Line `x` maps to set `x % set_count`, with LRU replacement
    inside each set. The sets that never evict are counted from `distinct`
    alone (see the module docstring), and when no set evicts the result
    comes from that count with no pass over `lines`. Otherwise only the
    accesses to the evicting sets run through the LRU loop, less each one
    whose line is that of the access just before it: such an access hits
    and leaves its set as it was. `accesses` counts every access.
    """
    set_count = config.set_count
    ways = config.ways
    total = int(lines.size)
    per_set = np.bincount(distinct % set_count, minlength=set_count)
    overflow = per_set > ways
    misses = int(per_set[~overflow].sum())
    if not overflow.any():
        return SimResult(accesses=total, misses=misses, miss_ratio=misses / total)
    keep = overflow[lines % set_count]
    keep[1:] &= lines[1:] != lines[:-1]
    evicting = lines[keep]
    del keep

    sets: dict[int, OrderedDict] = {}
    for start in range(0, evicting.size, _CHUNK):
        for line in evicting[start:start + _CHUNK].tolist():
            s = line % set_count
            lru = sets.get(s)
            if lru is None:
                lru = sets[s] = OrderedDict()
            if line in lru:
                lru.move_to_end(line)
            else:
                misses += 1
                lru[line] = None
                if len(lru) > ways:
                    lru.popitem(last=False)

    return SimResult(accesses=total, misses=misses, miss_ratio=misses / total)


def sweep_capacities(
    trace: AccessTrace,
    sizes: Sequence[int],
    template: CacheConfig,
    kinds: frozenset[AccessKind] = ALL_KINDS,
) -> MissRatioCurve:
    """Simulate every segment at every capacity; combine per-segment miss
    ratios as the weighted mean given by the segment weights.

    Each segment's lines and distinct lines are computed once, and
    `simulate` runs them through a cold cache of each capacity: one call per
    (segment, capacity), looked up as a module global, so a wrapper set on
    `cachesim.simulate` sees every pass. Segments are done one at a time,
    so only one segment's lines are held in memory.
    """
    if not sizes:
        raise DataError("sizes must be non-empty")
    ordered = sorted(int(s) for s in sizes)
    if len(set(ordered)) != len(ordered):
        raise DataError("sizes contain duplicates")
    configs = [replace(template, capacity_bytes=size) for size in ordered]
    ratios = [0] * len(configs)  # weight * miss ratio, added up in segment order
    for seg in trace.segments:
        lines = _segment_lines(seg, kinds, template.line_bytes)
        distinct = np.unique(lines)
        for i, config in enumerate(configs):
            ratios[i] += seg.weight * simulate(lines, distinct, config).miss_ratio
        del lines, distinct  # before the next segment's lines are built
    points = tuple(
        CurvePoint(capacity_bytes=size, miss_ratio=ratio) for size, ratio in zip(ordered, ratios)
    )
    return MissRatioCurve(points=points, kind=curve_kind_for(kinds))


def estimate_footprint(curve: MissRatioCurve, knee_ratio: float) -> int | None:
    """Smallest listed capacity whose miss ratio drops below the knee.

    Returns None when no point on the curve reaches the knee.
    """
    if not 0.0 < knee_ratio <= 1.0:
        raise DataError(f"knee_ratio {knee_ratio} outside (0, 1]")
    for point in curve.points:
        if point.miss_ratio < knee_ratio:
            return point.capacity_bytes
    return None


# --- trace files ----------------------------------------------------------------

_RECORD_DTYPE = np.dtype([("address", "<u8"), ("kind", "u1")])


@dataclass(frozen=True)
class SegmentSpan(Codec):
    """Records [begin, end) of a binary trace, one segment of the given weight."""

    begin: int
    end: int
    weight: float


@dataclass(frozen=True)
class SegmentsFile(Codec):
    """The `--segments` sidecar of a binary trace."""

    segments: tuple[SegmentSpan, ...]


# byte -> access-kind code of a kind letter, and byte -> value of a hex digit;
# every other byte maps to _NOT_MAPPED
_NOT_MAPPED = 255
_KIND_OF_BYTE = np.full(256, _NOT_MAPPED, dtype=np.uint8)
_KIND_OF_BYTE[np.frombuffer(b"iIlLsS", dtype=np.uint8)] = [
    AccessKind.IFETCH, AccessKind.IFETCH, AccessKind.LOAD, AccessKind.LOAD,
    AccessKind.STORE, AccessKind.STORE]
_DIGIT_OF_BYTE = np.full(256, _NOT_MAPPED, dtype=np.uint8)
_DIGIT_OF_BYTE[np.frombuffer(b"0123456789abcdefABCDEF", dtype=np.uint8)] = [
    *range(16), *range(10, 16)]


def read_text_trace(path: str | Path) -> AccessTrace:
    """Read a `kind address` text trace as a single full-weight segment.

    Each line holds a kind and a hexadecimal address separated by
    whitespace. The kind is `i`/`ifetch`/`instr`, `l`/`load`/`read` or
    `s`/`store`/`write`, in any case. The address is 0 to 2**64 - 1 with or
    without a `0x` prefix. A `#` starts a comment that runs to the end of
    the line, and blank lines are skipped. Newlines are `\n`, `\r\n` or
    `\r`. A bad line raises a `ParseError` that names its line number.

    The file is read `_TEXT_BLOCK` characters at a time, each block cut
    after its last newline. The lines of a block that are a kind letter,
    one space, `0x` and 1 to 16 hex digits (the form the tests' and
    perfbench's writers use) are converted with numpy in one pass; any
    other line, such as a comment, is parsed on its own by `_line_access`.
    """
    blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (addresses, kinds) of each block
    lineno = 1  # the number of the next block's first line
    tail = ""  # the text after the last newline read so far
    with open(path, "r", encoding="utf-8") as fh:
        try:
            while chunk := fh.read(_TEXT_BLOCK):
                text = tail + chunk
                cut = text.rfind("\n") + 1
                block, tail = text[:cut], text[cut:]
                if block:
                    blocks.append(_block_accesses(block, lineno))
                    lineno += block.count("\n")
        except UnicodeDecodeError:
            raise ParseError("not valid UTF-8 text", source=path)
    if tail:
        blocks.append(_block_accesses(tail + "\n", lineno))  # a last line without a newline
    if not any(addresses.size for addresses, _ in blocks):
        raise ParseError(f"trace {path} has no accesses")
    addresses, kinds = map(np.concatenate, zip(*blocks))
    return AccessTrace.single(addresses, kinds)


def _block_accesses(block: str, first_lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """(addresses, kinds) of `block`, newline-ended lines the first of which
    is numbered `first_lineno`, in line order; raises on a bad line.

    Lines of the form `K 0xH` (see `read_text_trace`) are converted with
    numpy. Each is one the line-by-line reader accepts with the same
    result: 16 hex digits are always below 2**64. Every other line goes
    through `_line_access`, so the first bad line in the block raises.
    """
    # three bytes past the last line let every line's first four be read
    padded = np.frombuffer(block.encode("utf-8") + b"\0\0\0", dtype=np.uint8)
    data = padded[:-3]
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    digits = ends - starts - 4  # after the kind, the space and the 0x
    kinds = _KIND_OF_BYTE[data[starts]]
    form = ((digits >= 1) & (digits <= 16) & (kinds != _NOT_MAPPED)
            & (padded[starts + 1] == ord(" ")) & (padded[starts + 2] == ord("0"))
            & ((padded[starts + 3] | 0x20) == ord("x")))
    values = _DIGIT_OF_BYTE.take(data)  # `take` is faster than indexing here
    # a line of the form has exactly four bytes that are not hex digits: its
    # kind letter, space, x and newline, all checked above (a byte of UTF-8
    # beyond ASCII is no hex digit); counted per line only when the count
    # over the block does not show every line to be of the form
    unmapped = values == _NOT_MAPPED
    if not (form.all() and np.count_nonzero(unmapped) == 4 * ends.size):
        form &= np.add.reduceat(unmapped, starts, dtype=np.intp) == 4
    every = bool(form.all())
    at, width, kinds = (ends, digits, kinds) if every else (ends[form], digits[form], kinds[form])
    addresses = np.zeros(at.size, dtype=np.uint64)
    shortest = int(width.min(initial=16))
    for place in range(int(width.max(initial=0)), 0, -1):
        # the digit `place` bytes before each newline; lines with fewer
        # digits take a leading zero (the index may point before the line)
        digit = values.take(at - place)
        if place > shortest:
            digit = np.where(width >= place, digit, 0)
        addresses <<= np.uint64(4)
        addresses |= digit
    if every:
        return addresses, kinds

    # parse the other lines and merge all accesses in line order
    found = form.copy()
    all_addresses = np.zeros(form.size, dtype=np.uint64)
    all_kinds = np.zeros(form.size, dtype=np.uint8)
    all_addresses[form] = addresses
    all_kinds[form] = kinds
    for i in np.flatnonzero(~form).tolist():
        raw = data[starts[i]:ends[i]].tobytes().decode("utf-8")
        access = _line_access(raw, first_lineno + i)
        if access is not None:
            all_addresses[i], all_kinds[i] = access
            found[i] = True
    return all_addresses[found], all_kinds[found]


def _line_access(raw: str, lineno: int) -> tuple[int, int] | None:
    """(address, kind code) of one trace line, numbered `lineno`, or None
    for a blank or comment line; raises on a bad line."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"expected 'kind address', got {raw.strip()!r}", line=lineno)
    kind = _KIND_TOKENS.get(parts[0].lower())
    if kind is None:
        raise ParseError(f"unknown access kind {parts[0]!r}", line=lineno)
    try:
        address = int(parts[1], 16)
    except ValueError:
        raise ParseError(f"address {parts[1]!r} is not hexadecimal", line=lineno)
    if not 0 <= address < 1 << 64:
        raise ParseError(f"address {parts[1]!r} is not a 64-bit address", line=lineno)
    return address, kind.value


def read_binary_trace(path: str | Path, sidecar: str | Path | None = None) -> AccessTrace:
    """Read packed (u64 address, u8 kind) records.

    The optional JSON sidecar assigns record ranges to weighted segments:
    `{"segments": [{"begin": 0, "end": N, "weight": 1.0}, ...]}`. Without a
    sidecar the whole file is one segment of weight 1.
    """
    size = Path(path).stat().st_size
    if size % _RECORD_DTYPE.itemsize:
        raise DataError(f"trace {path}: {size} bytes is not a whole number of records")
    records = np.fromfile(path, dtype=_RECORD_DTYPE)
    if records.size == 0:
        raise DataError(f"trace {path} has no records")
    if sidecar is None:
        return AccessTrace.single(records["address"], records["kind"])
    spec = SegmentsFile.from_dict(read_json(sidecar))
    segments = []
    previous_end = 0
    for span in spec.segments:
        begin, end = span.begin, span.end
        if begin < previous_end or end <= begin or end > records.size:
            raise DataError(
                f"sidecar segment [{begin}, {end}) is out of order or out of range"
            )
        previous_end = end
        segments.append(
            TraceSegment(
                weight=span.weight,
                addresses=records["address"][begin:end],
                kinds=records["kind"][begin:end],
            )
        )
    return AccessTrace(segments=tuple(segments))


def skip_accesses(trace: AccessTrace, n: int) -> AccessTrace:
    """Drop the first `n` records across segments (fast-forward past a prefix).

    Segments emptied by the skip are removed and the remaining weights are
    renormalized to sum to 1.
    """
    if n < 0:
        raise DataError(f"skip count {n} is negative")
    if n == 0:
        return trace
    remaining = n
    kept: list[TraceSegment] = []
    for segment in trace.segments:
        if remaining >= len(segment):
            remaining -= len(segment)
            continue
        if remaining > 0:
            segment = TraceSegment(
                weight=segment.weight,
                addresses=segment.addresses[remaining:],
                kinds=segment.kinds[remaining:],
            )
            remaining = 0
        kept.append(segment)
    if not kept:
        raise DataError(f"skip of {n} accesses consumes the whole trace")
    total_weight = sum(s.weight for s in kept)
    return AccessTrace(
        segments=tuple(
            TraceSegment(s.weight / total_weight, s.addresses, s.kinds) for s in kept
        )
    )


CURVE_CSV_HEADER = ("capacity_bytes", "miss_ratio")


def write_curve_csv(curve: MissRatioCurve, out: TextIO) -> None:
    write_csv(out, CURVE_CSV_HEADER,
              ((p.capacity_bytes, format(p.miss_ratio, ".6f")) for p in curve.points))


def read_curve_csv(path: str | Path, kind: CurveKind = CurveKind.UNIFIED) -> MissRatioCurve:
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _, rows = read_csv(fh, CURVE_CSV_HEADER)
        for lineno, (capacity_s, ratio_s) in rows:
            try:
                capacity = int(capacity_s)
            except ValueError:
                raise ParseError(f"capacity_bytes {capacity_s!r} is not an integer", lineno, path)
            points.append(CurvePoint(capacity, finite_number("miss_ratio", ratio_s, lineno, path)))
    return MissRatioCurve(points=tuple(points), kind=kind)
