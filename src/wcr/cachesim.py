"""Trace-driven set-associative LRU cache simulation.

A trace is a weighted list of access segments; sweeping one cache
configuration across a capacity grid yields a miss-ratio-versus-capacity
curve whose knee estimates the workload's instruction or data footprint.
Every access allocates its line on a miss, stores included.
`sweep_capacities` maps each segment's accesses to lines and finds each
access's previous access to its line once, then runs `simulate`, the LRU
pass, over them at each capacity, from the largest down.

A set that receives at most `ways` distinct lines never evicts, so each of
its lines misses exactly once, on its first touch. The simulation counts
those sets' misses from the distinct lines alone and looks only at the
accesses to the other sets. This is exact: LRU sets are independent of one
another, and since every access allocates, a set's contents depend only on
the accesses mapped to it. Only the sets that some line maps to are
counted, so memory follows the trace, not the capacity. When no set
evicts, the miss count is the number of distinct lines and no access is
looked at.

An access whose line is that of the access just before it in its set hits
and changes nothing: that access left the line most recently used, and
nothing has touched the set since. The window count below drops every such
repeat, the `OrderedDict` loop those that directly follow their line in
the trace; they still count as accesses.

The evicting sets are counted by reuse windows up to `_WINDOW_WAYS` (64)
ways. An LRU access misses when it touches its line for the first time, or
when `ways` or more distinct lines of its set were touched since the
previous access to its line: its reuse distance (Mattson et al., 1970).
Take one set's accesses in trace order, and an access at position p whose
line was last touched at q. Each distinct line touched strictly between q
and p has exactly one position in that window whose next access to its
line lies beyond p: its last use before p. So the reuse distance is the
number of window positions whose next use lies beyond p, and the rule is:

- a first touch misses;
- an access known to miss (below) misses;
- a window of fewer than `ways` positions hits, as it cannot hold `ways`
  lines;
- any other access counts its window from p backwards, a block at a time,
  and stops when the count reaches `ways` (a miss) or the window ends (a
  hit). The first block is `ways` positions wide and each next one twice
  as wide, but no wider than the longest window still being counted, and
  no wider than `_SET_CHUNK * ways` entries spread over the accesses still
  counting (though never under `ways`). So a miss stops after a few narrow
  blocks, and the numpy temporaries stay small.

This is exact, not an estimate: it gives the misses of replaying each
set's LRU order. numpy counts all accesses of a chunk of whole sets at
once, and each access stops as soon as its outcome is known, so most
accesses never count at all.

Misses carry down the sweep. Take a cache C with S sets and W ways, and a
cache C' whose S' sets are a multiple of S, with W' >= W ways. Line x's
set in C', x % S', lies inside its set in C, x % S, so the reuse window of
an access in C' holds a subset of the distinct lines of its window in C.
An access that misses in C' (W' or more lines in its window) therefore
misses in C as well: LRU inclusion across set counts under bit selection
(Hill and Smith, 1989). Running the capacities from the largest down, each
pass of the window count marks the misses it finds, other than first
touches, in one bool per access of the segment, and the next pass takes
the marked accesses as misses without counting their windows. The marks
are cleared before a pass whose cache the pass just before does not
relate to in this way: a set count that is not a multiple of this one's,
or fewer ways. A pass that the window count does not run (no set evicts,
or more than 64 ways) neither reads nor writes the marks. They stay exact:
every mark is a miss of some earlier pass in an unbroken line of such
caches, so by inclusion it is a miss of every later one.

Above 64 ways, fully associative caches included, the count would read
ever wider blocks, so each evicting set is replayed as an `OrderedDict`
in least-recent-first order instead. On the three segments of the
`sweep1m` benchmark trace (seed 0, every grid capacity that the way count
divides; two runs, best of three each), the window count took 0.22-0.29
of the `OrderedDict` loop's time at 4 and 8 ways, 0.34-0.35 at 16,
0.47-0.52 at 32, 0.65-0.72 at 64 and 1.12-1.17 at 128, so the cut sits
at 64. (Measured before the carry and the doubling blocks.)
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParseError
from .model import Codec, finite_number, read_csv, read_json, write_csv

KIB = 1024
# default sweep: 16 KB doubling up to 8192 KB
DEFAULT_SIZE_GRID: tuple[int, ...] = tuple(kb * KIB for kb in (
    16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192))

_WEIGHT_SUM_TOL = 1e-9
# numpy temporaries over a whole segment, and the OrderedDict loop's Python
# ints, are made this many accesses at a time, so they stay small beside
# the segment's own arrays
_CHUNK = 1 << 16
# up to this many ways the evicting sets are counted by reuse windows,
# above it by an OrderedDict loop (see the module docstring)
_WINDOW_WAYS = 64
# the window count takes this many accesses at a time, rounded up to whole
# sets, and each of its blocks reads at most this many times `ways` entries
# (or `ways` per counting access, when more accesses count). 1 << 16 ran
# about 5% faster on `sweep1m` but raised its peak RSS by up to 3 MB
_SET_CHUNK = 1 << 15
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
        assoc = "full" if self.associativity is None else self.associativity
        if self.capacity_bytes % self.line_bytes:
            raise DataError(
                f"capacity_bytes {self.capacity_bytes} is not divisible by line_bytes "
                f"{self.line_bytes} (associativity {assoc})")
        if self.associativity is not None and self.capacity_bytes % (
            self.line_bytes * self.associativity
        ):
            raise DataError(
                f"capacity_bytes {self.capacity_bytes} is not divisible by line_bytes "
                f"{self.line_bytes} * associativity {assoc}")
        if self.set_count >> 64:
            raise DataError(
                f"capacity_bytes {self.capacity_bytes} gives {self.set_count} sets, more than "
                f"a 64-bit set number holds (line_bytes {self.line_bytes}, associativity {assoc})")

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
        names = ", ".join(k.name.lower() for k in sorted(kinds))
        raise DataError(f"no accesses of the requested kinds ({names}) in this segment")
    return addresses // np.uint64(line_bytes)


def previous_accesses(lines: np.ndarray) -> np.ndarray:
    """For each access, the index of the last earlier access to the same
    line, or -1 for a first touch.

    The accesses are sorted by line, trace order kept. When the lines span
    few enough values, each (line - lowest line, index) pair is packed in
    one uint64 and the packed values are sorted: 3.5 ms against 40 ms for
    the stable argsort used otherwise, on 400,000 accesses to 3,000 lines.
    The indices are int32 when they fit, int64 otherwise.
    """
    n = lines.size
    index = np.int32 if n < 1 << 31 else np.int64
    shift = _index_bits(n)
    low = lines.min()
    if int(lines.max() - low) >> (64 - shift):
        order = np.argsort(lines, kind="stable").astype(index)
        ordered = lines[order]
    else:
        ordered = _sorted_packed(n, shift, lambda start, stop: lines[start:stop] - low)
        order = _take_indices(ordered, shift, out=np.empty(n, dtype=index))
        ordered >>= np.uint64(shift)
    repeat = ordered[1:] == ordered[:-1]
    del ordered
    previous = np.empty(n, dtype=index)
    previous[order[0]] = -1
    previous[order[1:]] = np.where(repeat, order[:-1], -1)
    return previous


def _index_bits(n: int) -> int:
    """Bits that hold every index of `n` accesses."""
    return max(n - 1, 1).bit_length()


def _sorted_packed(n: int, shift: int, high) -> np.ndarray:
    """Each index i < n packed below its high part, `high << shift | i`,
    sorted. `high(start, stop)` returns the uint64 high parts of indices
    start to stop - 1; they are asked for `_CHUNK` at a time, so that no
    temporary spans the segment."""
    packed = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        block = high(start, stop) << np.uint64(shift)
        block |= np.arange(start, stop, dtype=np.uint64)
        packed[start:stop] = block
    packed.sort()
    return packed


def _take_indices(packed: np.ndarray, shift: int, out: np.ndarray) -> np.ndarray:
    """The low `shift` bits of each packed value, as `out`'s dtype."""
    mask = np.uint64((1 << shift) - 1)
    for start in range(0, packed.size, _CHUNK):
        out[start:start + _CHUNK] = packed[start:start + _CHUNK] & mask
    return out


def simulate(
    lines: np.ndarray, previous: np.ndarray, config: CacheConfig,
    missed: np.ndarray | None = None,
) -> SimResult:
    """Run one segment's lines through a cold cache and count misses.

    `lines` holds the line (`address // config.line_bytes`) of each access
    that reaches the cache, in trace order, and `previous` the index of the
    last earlier access to each one's line, or -1 (`previous_accesses`).
    Line `x` maps to set `x % set_count`, with LRU replacement inside each
    set. Only the sets that some line maps to are counted, so memory
    follows the trace and not the capacity. The sets that never evict are
    counted from their distinct lines alone (see the module docstring), and
    when no set evicts no access is looked at. `accesses` counts every
    access.

    At most `_WINDOW_WAYS` ways the evicting sets are counted by
    `_window_misses`: an access misses when it is a first touch, when
    `missed` marks it, or when at least `ways` of the positions in its set
    since the previous access to its line hold a line's last use before
    it. That count is the access's reuse distance, so the rule is LRU's,
    exactly. It is taken from the access backwards, `ways` positions
    first, then in blocks twice as wide each step, capped by the longest
    window still counting and by `_SET_CHUNK * ways` entries a step. Above
    `_WINDOW_WAYS` ways, each evicting set is an `OrderedDict`, made on
    first touch, run over its accesses in trace order less each one whose
    line is that of the access just before it. Both give the same misses
    (see the module docstring for the rules and the cut).

    `missed`, one bool per access, marks accesses known to miss in this
    cache that are not first touches. `sweep_capacities` runs a segment's
    capacities from the largest down and hands each pass the marks of the
    passes before it, cleared where the line of inclusion breaks: a miss
    in a cache whose sets split these sets, with at least as many ways, is
    a miss here, as each of its reuse windows holds a subset of the lines
    of the same window here (see the module docstring). The window count
    takes each marked access as a miss without counting its window, and
    marks every miss it finds, so that afterwards `missed` holds this
    cache's misses less its first touches. When no set evicts, or above
    `_WINDOW_WAYS` ways, `missed` is neither read nor written. Without it,
    nothing is known to miss.
    """
    set_count = config.set_count
    ways = config.ways
    total = int(lines.size)
    occupied, per_set = np.unique(_set_numbers(lines[previous < 0], set_count),
                                  return_counts=True)
    overflow = per_set > ways
    misses = int(per_set[~overflow].sum())
    if not overflow.any():
        return SimResult(accesses=total, misses=misses, miss_ratio=misses / total)

    if ways <= _WINDOW_WAYS:
        if missed is None:
            missed = np.zeros(total, dtype=bool)
        misses += _window_misses(lines, previous, missed, occupied, overflow, set_count, ways)
        return SimResult(accesses=total, misses=misses, miss_ratio=misses / total)

    keep = np.isin(_set_numbers(lines, set_count), occupied[overflow])
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


def _set_numbers(lines: np.ndarray, set_count: int) -> np.ndarray:
    """Each line's set, `lines % set_count`; a bit mask when `set_count`
    is a power of two, which numpy does about five times as fast (0.38 ms
    against 1.95 ms on 400,000 lines)."""
    if set_count & (set_count - 1):
        return lines % np.uint64(set_count)
    return lines & np.uint64(set_count - 1)


def _window_misses(
    lines: np.ndarray, previous: np.ndarray, missed: np.ndarray, occupied: np.ndarray,
    overflow: np.ndarray, set_count: int, ways: int,
) -> int:
    """LRU misses of the accesses to the sets `occupied[overflow]`; the
    accesses that `missed` marks are misses, and the misses found are
    marked in it.

    Every access is packed with its index into one uint64, set number
    above, and the packed values are sorted: each set's accesses then lie
    together, in trace order, and sets in the order of `occupied`. (When a
    set number does not fit beside an index, the set's place in `occupied`
    stands in for it.) The evicting sets are counted by `_chunk_misses`
    about `_SET_CHUNK` accesses at a time, whole sets per chunk, so that
    only `previous`, `missed`, the packed values (then the evicting sets'
    indices, `order`) and the trace-to-position map `rank` span the
    segment.
    """
    n = lines.size
    shift = _index_bits(n)
    numbered = set_count >> (64 - shift) != 0
    keys = np.arange(occupied.size, dtype=np.uint64) if numbered else occupied

    def key(start: int, stop: int) -> np.ndarray:
        sets = _set_numbers(lines[start:stop], set_count)
        return np.searchsorted(occupied, sets).astype(np.uint64) if numbered else sets

    packed = _sorted_packed(n, shift, key)
    # occupied set i's accesses are packed[bounds[i]:bounds[i + 1]]
    bounds = np.append(np.searchsorted(packed, keys << np.uint64(shift)), n)
    sizes = np.diff(bounds)
    # chunk i takes the evicting sets among occupied[cuts[i]:cuts[i + 1]],
    # about `_SET_CHUNK` accesses; `order` gets those accesses' indices,
    # chunk by chunk, and `ends` where each chunk ends in it
    evicting = np.cumsum(np.where(overflow, sizes, 0))
    cuts = [0, *(np.searchsorted(evicting, np.arange(_SET_CHUNK, evicting[-1], _SET_CHUNK))
                 + 1).tolist(), occupied.size]
    order = np.empty(int(evicting[-1]), dtype=previous.dtype)
    ends = evicting[np.subtract(cuts[1:], 1)].tolist()
    for first, last, end in zip(cuts, cuts[1:], ends):
        mine = np.repeat(overflow[first:last], sizes[first:last])
        chunk = packed[bounds[first]:bounds[last]][mine]
        _take_indices(chunk, shift, out=order[end - chunk.size:end])
    del packed, bounds, sizes, evicting
    rank = np.empty(n + 1, dtype=previous.dtype)
    return sum(_chunk_misses(previous, missed, rank, order[begin:end], ways)
               for begin, end in zip([0, *ends], ends) if end > begin)


def _chunk_misses(
    previous: np.ndarray, missed: np.ndarray, rank: np.ndarray, taken: np.ndarray, ways: int
) -> int:
    """LRU misses of `taken`, the trace indices of the accesses to whole
    sets, set by set and each set in trace order. An access that `missed`
    marks is a miss whose window is not counted; every miss found by
    counting is marked in `missed`. `rank` is a work array one longer than
    the segment."""
    index = taken.dtype.type
    taken = taken.astype(np.intp)  # numpy gathers and scatters faster by intp
    before = previous.take(taken)
    new = np.empty(taken.size, dtype=bool)
    new[0] = True
    np.not_equal(before[1:], taken[:-1], out=new[1:])
    # a repeat of the line just before it in its set hits and changes
    # nothing; it takes the position of the access it repeats
    positions = np.cumsum(new, dtype=index)
    positions -= 1
    count = int(positions[-1]) + 1
    rank[taken] = positions
    rank[-1] = count  # previous -1: a first touch "reuses" position `count`
    prev = rank.take(before[new])
    at = taken[new]  # the trace index of each position
    del before, new, positions
    known = missed.take(at)
    misses = int(np.count_nonzero(prev == count)) + int(np.count_nonzero(known))
    position = np.arange(count, dtype=index)
    # the position of the next access to each position's line, or `count`;
    # `count` more entries let every block below read `width` entries
    next_use = np.full(2 * count + 1, count, dtype=index)
    next_use[prev] = position
    # fewer than `ways` accesses between `prev` and the access: a hit
    window = position - prev > ways
    window &= ~known
    p = np.flatnonzero(window).astype(index)
    del window, known
    if p.size == 0:
        return misses
    # each access of `p` misses when at least `ways` positions strictly
    # between its `prev` and itself hold a line's last use before it (an
    # access whose next use lies beyond it). The positions are counted a
    # block at a time, from the access backwards: first `ways` of them,
    # then blocks twice as wide each step, but no wider than the longest
    # window left or than `_SET_CHUNK * ways` entries over the accesses
    # still counting (and at least `ways`)
    low = prev[p] + 1
    top = p - ways
    seen = np.count_nonzero(sliding_window_view(next_use, ways)[top] > p[:, None], axis=1)
    width = ways
    while True:
        found = seen >= ways
        missed[at[p[found]]] = True
        misses += int(np.count_nonzero(found))
        going = ~found & (top > low)
        if not going.any():
            return misses
        p, low, top, seen = p[going], low[going], top[going], seen[going]
        width = min(2 * width, int((top - low).max()), max(ways, _SET_CHUNK * ways // p.size))
        start = np.maximum(top - width, low)
        # the block is positions start to top - 1, the first top - start
        # columns of the row read from `start`
        block = sliding_window_view(next_use, width)[start] > p[:, None]
        block &= np.arange(width, dtype=index) < (top - start)[:, None]
        seen += np.count_nonzero(block, axis=1)
        top = start


def sweep_capacities(
    trace: AccessTrace,
    sizes: Sequence[int],
    template: CacheConfig,
    kinds: frozenset[AccessKind] = ALL_KINDS,
) -> MissRatioCurve:
    """Simulate every segment at every capacity; combine per-segment miss
    ratios as the weighted mean given by the segment weights.

    Each segment's lines and their previous accesses are computed once, and
    `simulate` runs them through a cold cache of each capacity, from the
    largest down: one call per (segment, capacity), looked up as a module
    global, so a wrapper set on `cachesim.simulate` sees every pass. Each
    segment has one `missed` mask that the passes hand down (see the
    module docstring); it is cleared before a pass whose sets the pass
    just before it does not split, with at least as many ways. Segments
    are done one at a time, so only one segment's lines are held in memory.
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
        previous = previous_accesses(lines)
        missed = np.zeros(lines.size, dtype=bool)
        above = None  # the cache of the pass just before
        for i in reversed(range(len(configs))):
            config = configs[i]
            if above is not None and (above.set_count % config.set_count
                                      or above.ways < config.ways):
                missed[:] = False
            ratios[i] += seg.weight * simulate(lines, previous, config, missed).miss_ratio
            above = config
        del lines, previous, missed  # before the next segment's lines are built
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
    `\r`. A bad line raises a `ParseError` that names the file and the
    line number.

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
                    blocks.append(_block_accesses(block, lineno, path))
                    lineno += block.count("\n")
        except UnicodeDecodeError:
            raise ParseError("not valid UTF-8 text", source=path)
    if tail:
        blocks.append(_block_accesses(tail + "\n", lineno, path))  # a last line without a newline
    if not any(addresses.size for addresses, _ in blocks):
        raise ParseError(f"trace {path} has no accesses")
    addresses, kinds = map(np.concatenate, zip(*blocks))
    return AccessTrace.single(addresses, kinds)


def _block_accesses(
    block: str, first_lineno: int, source: str | Path
) -> tuple[np.ndarray, np.ndarray]:
    """(addresses, kinds) of `block`, newline-ended lines of the file
    `source` the first of which is numbered `first_lineno`, in line order;
    raises on a bad line.

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
        access = _line_access(raw, first_lineno + i, source)
        if access is not None:
            all_addresses[i], all_kinds[i] = access
            found[i] = True
    return all_addresses[found], all_kinds[found]


def _line_access(raw: str, lineno: int, source: str | Path) -> tuple[int, int] | None:
    """(address, kind code) of one trace line of the file `source`, numbered
    `lineno`, or None for a blank or comment line; raises on a bad line."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"expected 'kind address', got {raw.strip()!r}", lineno, source)
    kind = _KIND_TOKENS.get(parts[0].lower())
    if kind is None:
        raise ParseError(f"unknown access kind {parts[0]!r}", lineno, source)
    try:
        address = int(parts[1], 16)
    except ValueError:
        raise ParseError(f"address {parts[1]!r} is not hexadecimal", lineno, source)
    if not 0 <= address < 1 << 64:
        raise ParseError(f"address {parts[1]!r} is not a 64-bit address", lineno, source)
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
