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

What a pass learns carries down the sweep. Take a cache C with S sets and
W ways, and a cache C' whose S' sets are a multiple of S. Line x's set in
C', x % S', lies inside its set in C, x % S: each set of C is the union of
the sets of C' whose numbers are equal modulo S. So the reuse window of an
access in C' holds a subset of the distinct lines of its window in C, and
when W' >= W an access that misses in C' misses in C as well: LRU
inclusion across set counts under bit selection (Hill and Smith, 1989).
The capacities run from the largest down, and each segment has one
`SweepState` that every pass reads and leaves its own results in. One
rule carries each part: it holds for a pass when the set count of the
pass that left it is a multiple of this pass's.

- The marks. The window count marks the misses it finds, other than first
  touches, in one bool per access, and a later window count takes the
  marked accesses as misses without counting their windows. The marks
  hold when the pass that last wrote them also had at least as many ways;
  otherwise they are cleared before the window count. A pass that the
  window count does not run (no set evicts, or more than 64 ways) neither
  reads nor writes them. They stay exact: after a pass they are that
  pass's misses less its first touches, and by inclusion each is a miss
  of every later pass the rule lets read them.
- The set layout. The distinct lines of each set are the sum of those of
  the carried sets that merge into it, so `np.unique` over the segment's
  first touches runs again only when the rule breaks. The accesses sorted
  by set give this pass's order when every set number is taken modulo S:
  that leaves S'/S sorted runs, two on a doubling grid, and a stable sort
  merges them. Each access is one uint64 word, its set number above its
  index and its previous index plus one below (`set << 2b | index << b |
  previous + 1`, where b bits hold every index), so the window count reads
  both indices from the sorted words; as the indices are unique, the low
  field never changes the order. Only the first pass of a segment, a pass
  the rule does not hold for, and a set count too wide to pack beside the
  two indices build them afresh. A set count that wide is not carried: its
  pass numbers the occupied sets, packs each number above the index alone,
  and gathers the previous indices from the segment's previous-access
  array.

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
import os
import stat
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParseError
from .model import (Codec, finite_number, open_binary, open_text, read_csv, read_json,
                    write_csv)

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
        wanted = np.zeros(len(AccessKind), dtype=bool)  # kind code -> kept
        wanted[[k.value for k in kinds]] = True
        addresses = addresses[wanted[segment.kinds]]
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


def _sorted_packed(n: int, shift: int, high, previous: np.ndarray | None = None) -> np.ndarray:
    """Each index i < n packed below its high part, `high << shift | i`,
    sorted. Given `previous`, each index has `previous[i] + 1` packed below
    it, `high << 2 * shift | i << shift | previous[i] + 1`; the indices
    being unique, the order is still that of (high, i).
    `high(start, stop)` returns the uint64 high parts of indices start to
    stop - 1; they are asked for `_CHUNK` at a time, so that no temporary
    spans the segment."""
    packed = np.empty(n, dtype=np.uint64)
    fields = shift if previous is None else 2 * shift
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        block = high(start, stop) << np.uint64(fields)
        index = np.arange(start, stop, dtype=np.uint64)
        if previous is not None:
            index <<= np.uint64(shift)
            index |= (previous[start:stop] + 1).astype(np.uint64)
        block |= index
        packed[start:stop] = block
    packed.sort()
    return packed


def _take_indices(packed: np.ndarray, shift: int, out: np.ndarray) -> np.ndarray:
    """The low `shift` bits of each packed value, as `out`'s dtype."""
    mask = np.uint64((1 << shift) - 1)
    for start in range(0, packed.size, _CHUNK):
        out[start:start + _CHUNK] = packed[start:start + _CHUNK] & mask
    return out


class SweepState:
    """One segment's accesses, and what each LRU pass of a sweep over them
    leaves for the next (see the module docstring). `simulate` reads and
    fills it.

    - `lines`, `previous`: the line of each access that reaches the cache,
      in trace order, and the index of the last earlier access to each
      one's line, or -1 (`previous_accesses`); built once.
    - `missed`, `marked_sets`, `marked_ways`: one bool per access, marking
      accesses known to miss that are not first touches, and the set count
      and ways of the window-count pass that last wrote them.
    - `histogram_sets`, `occupied`, `per_set`: a set count, the sets of it
      that some line maps to, in ascending order, and the distinct lines of
      each; set by every pass.
    - `packed_sets`, `packed`: a set count, and every access packed below
      its set number, `set << 2 * b | index << b | previous + 1` with
      b = `_index_bits(n)` for n accesses, sorted; set by each pass of the
      window count whose set numbers fit beside the two indices. A pass
      whose set numbers do not fit packs the sets' places in `occupied`
      above the index alone, gathers the previous indices, and leaves these
      as they were.

    The set counts are None until a pass sets them.
    """

    def __init__(self, lines: np.ndarray) -> None:
        self.lines = lines
        self.previous = previous_accesses(lines)
        self.missed = np.zeros(lines.size, dtype=bool)
        self.marked_sets: int | None = None
        self.marked_ways: int | None = None
        self.histogram_sets: int | None = None
        self.occupied: np.ndarray | None = None
        self.per_set: np.ndarray | None = None
        self.packed_sets: int | None = None
        self.packed: np.ndarray | None = None


def _divides(set_count: int, carried: int | None) -> bool:
    """Whether what a pass of `carried` sets left holds for `set_count` sets."""
    return carried is not None and carried % set_count == 0


def simulate(state: SweepState, config: CacheConfig) -> SimResult:
    """Run one segment's accesses through a cold cache and count misses.

    `state` holds the line (`address // config.line_bytes`) of each access
    that reaches the cache, in trace order, and what earlier passes over
    them left (`SweepState`). Line `x` maps to set `x % set_count`, with LRU
    replacement inside each set. Only the sets that some line maps to are
    counted, so memory follows the trace and not the capacity. The sets
    that never evict are counted from their distinct lines alone (see the
    module docstring), and when no set evicts no access is looked at.
    `accesses` counts every access.

    At most `_WINDOW_WAYS` ways the evicting sets are counted by
    `_window_misses`: an access misses when it is a first touch, when
    `state.missed` marks it, or when at least `ways` of the positions in
    its set since the previous access to its line hold a line's last use
    before it. That count is the access's reuse distance, so the rule is
    LRU's, exactly. It is taken from the access backwards, `ways` positions
    first, then in blocks twice as wide each step, capped by the longest
    window still counting and by `_SET_CHUNK * ways` entries a step. Above
    `_WINDOW_WAYS` ways, each evicting set is an `OrderedDict`, made on
    first touch, run over its accesses in trace order less each one whose
    line is that of the access just before it. Both give the same misses
    (see the module docstring for the rules and the cut).

    Whatever an earlier pass left in `state` is used here when that pass's
    set count is a multiple of this cache's: the distinct lines per set and
    the accesses sorted by set are derived from it, not built afresh, and
    the marks are taken as misses when the pass that wrote them also had at
    least as many ways. A miss in a cache whose sets split these sets, with
    at least as many ways, is a miss here, as each of its reuse windows
    holds a subset of the lines of the same window here (see the module
    docstring). The window count clears marks that do not hold before it
    counts, and marks every miss it finds, so that afterwards `missed`
    holds this cache's misses less its first touches. Every pass leaves its
    own layout in `state` for the next.
    """
    set_count = config.set_count
    ways = config.ways
    lines = state.lines
    total = int(lines.size)
    occupied, per_set = _distinct_per_set(state, set_count)
    overflow = per_set > ways
    misses = int(per_set[~overflow].sum())
    if not overflow.any():
        return SimResult(accesses=total, misses=misses, miss_ratio=misses / total)

    if ways <= _WINDOW_WAYS:
        # nothing is marked before the first window count; not clearing
        # then leaves the marks' zeroed pages untouched until a miss is marked
        if state.marked_sets is not None and not (
                _divides(set_count, state.marked_sets) and state.marked_ways >= ways):
            state.missed[:] = False
        state.marked_sets, state.marked_ways = set_count, ways
        misses += _window_misses(state, occupied, overflow, set_count, ways)
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


def _distinct_per_set(state: SweepState, set_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The sets that some line maps to, in ascending order, and the number
    of distinct lines of each: from `np.unique` over the sets of the first
    touches, or from the histogram `state` holds of a multiple of
    `set_count` sets, whose counts are summed over the sets that share a
    set here. Either way the result is left in `state`."""
    if _divides(set_count, state.histogram_sets):
        occupied, per_set = state.occupied, state.per_set
        if state.histogram_sets != set_count:
            sets = _set_numbers(occupied, set_count)
            order = np.argsort(sets, kind="stable")
            sets = sets[order]
            first = np.flatnonzero(np.concatenate(([True], sets[1:] != sets[:-1])))
            occupied, per_set = sets[first], np.add.reduceat(per_set[order], first)
    else:
        occupied, per_set = np.unique(
            _set_numbers(state.lines[state.previous < 0], set_count), return_counts=True)
    state.histogram_sets, state.occupied, state.per_set = set_count, occupied, per_set
    return occupied, per_set


def _window_misses(
    state: SweepState, occupied: np.ndarray, overflow: np.ndarray, set_count: int, ways: int,
) -> int:
    """LRU misses of the accesses to the sets `occupied[overflow]`; the
    accesses that `state.missed` marks are misses, and the misses found are
    marked in it.

    Every access is packed into one uint64, its set number above its index
    and its previous index plus one below, and the packed values are
    sorted: each set's accesses then lie together, in trace order, and sets
    in the order of `occupied`. The packed values are derived from those
    `state` holds when their set count is a multiple of this one: each set
    number is replaced by its own modulo `set_count`, which leaves one
    sorted run for each of the sets that now share a set, and a stable sort
    (a merge of those runs) puts them in order. When a set number does not
    fit beside the two indices, the set's place in `occupied` is packed
    above the index alone, the previous index is gathered from
    `state.previous` chunk by chunk, and nothing is carried. The evicting
    sets are counted by `_chunk_misses` about `_SET_CHUNK` accesses at a
    time, whole sets per chunk, each chunk reading its indices from its
    slice of the packed values, so that only `previous`, `missed`, the
    packed values and the trace-to-position map `rank` span the segment.
    """
    lines, previous = state.lines, state.previous
    n = lines.size
    bits = _index_bits(n)  # holds an index, or a previous index plus one
    shift = 2 * bits  # the two indices below a set's key
    keys, gathered = occupied, None  # the words hold each previous index plus one
    if _divides(set_count, state.packed_sets):
        packed = state.packed
        if state.packed_sets != set_count:
            _renumber_sets(packed, shift, set_count)
            packed.sort(kind="stable")
        state.packed_sets = set_count
    elif set_count.bit_length() <= 64 - shift:
        packed = _sorted_packed(
            n, bits, lambda start, stop: _set_numbers(lines[start:stop], set_count), previous)
        state.packed_sets, state.packed = set_count, packed
    else:
        # number the occupied sets above the index alone, gather the
        # previous indices, and leave `state`'s layout as it is
        keys, shift, gathered = np.arange(occupied.size, dtype=np.uint64), bits, previous
        packed = _sorted_packed(n, bits, lambda start, stop: np.searchsorted(
            occupied, _set_numbers(lines[start:stop], set_count)).astype(np.uint64))
    # occupied set i's accesses are packed[bounds[i]:bounds[i + 1]]
    bounds = np.append(np.searchsorted(packed, keys << np.uint64(shift)), n)
    sizes = np.diff(bounds)
    # chunk i takes the evicting sets among occupied[cuts[i]:cuts[i + 1]],
    # about `_SET_CHUNK` accesses
    evicting = np.cumsum(np.where(overflow, sizes, 0))
    cuts = [0, *(np.searchsorted(evicting, np.arange(_SET_CHUNK, evicting[-1], _SET_CHUNK))
                 + 1).tolist(), occupied.size]
    del evicting
    rank = np.empty(n + 1, dtype=previous.dtype)
    misses = 0
    for first, last in zip(cuts, cuts[1:]):
        words = packed[bounds[first]:bounds[last]]
        mine = overflow[first:last]
        if not mine.all():
            words = words[np.repeat(mine, sizes[first:last])]
        if words.size:
            misses += _chunk_misses(words, bits, gathered, state.missed, rank, ways)
    return misses


def _renumber_sets(packed: np.ndarray, shift: int, set_count: int) -> None:
    """Replace the set number above each packed index by that number modulo
    `set_count`, in place."""
    low = (1 << shift) - 1
    if not set_count & (set_count - 1):  # a power of two: clear the top bits
        packed &= np.uint64((set_count - 1) << shift | low)
        return
    for start in range(0, packed.size, _CHUNK):
        block = packed[start:start + _CHUNK]
        index = block & np.uint64(low)
        block >>= np.uint64(shift)
        block %= np.uint64(set_count)
        block <<= np.uint64(shift)
        block |= index


# adds up the four 16-bit lanes of a uint64 into its top 16 bits
_LANES_16 = np.uint64(0x0001_0001_0001_0001)
_EVEN_BYTES = np.uint64(0x00FF_00FF_00FF_00FF)


def _row_counts(block: np.ndarray) -> np.ndarray:
    """The true entries of each row of `block`, a C-ordered bool array whose
    rows are whole 8-byte words, as int64.

    The rows' words are added up as uint64, which adds each of the eight
    byte lanes on its own, exactly while a row has fewer than 256 words;
    then the sum's bytes are added together. Wider rows are counted by
    `np.count_nonzero`, which is slower by a cast of every entry.
    (`np.bitwise_count` would need numpy 2.0.)
    """
    words = block.shape[1] // 8
    if words >= 256:
        return np.count_nonzero(block, axis=1).astype(np.int64)
    sums = block.view(np.uint64).sum(axis=1, dtype=np.uint64)
    sums = (sums & _EVEN_BYTES) + ((sums >> np.uint64(8)) & _EVEN_BYTES)
    sums *= _LANES_16
    sums >>= np.uint64(48)
    return sums.view(np.int64)


def _chunk_misses(
    words: np.ndarray, bits: int, previous: np.ndarray | None, missed: np.ndarray,
    rank: np.ndarray, ways: int,
) -> int:
    """LRU misses of the accesses `words` holds, whole sets, set by set and
    each set in trace order. Each word holds its access's trace index in
    the `bits` bits above its previous index plus one (0 for a first
    touch); where `previous` is given, the index is in the low `bits` bits
    instead, and the previous index is gathered from `previous`. An access
    that `missed` marks is a miss whose window is not counted; every miss
    found by counting is marked in `missed`. `rank` is a work array one
    longer than the segment."""
    index = rank.dtype.type
    mask = np.uint64((1 << bits) - 1)
    if previous is None:
        taken = words >> np.uint64(bits)
        taken &= mask
        before = words & mask
        before -= np.uint64(1)  # a first touch wraps to -1 as int64
        before = before.view(np.int64)
    else:
        taken = words & mask
        before = previous.take(taken.view(np.int64))
    taken = taken.view(np.int64)
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
    kept = np.flatnonzero(new)
    prev = rank.take(before.take(kept))
    at = taken.take(kept)  # the trace index of each position
    del before, new, positions, kept
    known = missed.take(at)
    misses = int(np.count_nonzero(prev == count)) + int(np.count_nonzero(known))
    position = np.arange(count, dtype=index)
    # the position of the next access to each position's line, or `count`;
    # `count` + 8 more entries let `rows` below (row r is next_use[r:], as
    # wide as any block) start at every position. A block reads the first
    # `width` entries of its rows, rounded up to whole 8-byte words
    next_use = np.full(2 * count + 8, count, dtype=index)
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
    # still counting (and at least `ways`). Each block is read in whole
    # words, the columns past its width masked
    rows = sliding_window_view(next_use, count + 8)
    low = prev[p] + 1
    top = p - ways
    columns = -(-ways // 8) * 8
    block = rows[top, :columns] > p[:, None]
    if columns > ways:
        block &= np.arange(columns) < ways
    seen = _row_counts(block)
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
        columns = -(-width // 8) * 8
        block = rows[start, :columns] > p[:, None]
        block &= np.arange(columns, dtype=index) < (top - start)[:, None]
        seen += _row_counts(block)
        top = start


def sweep_capacities(
    trace: AccessTrace,
    sizes: Sequence[int],
    template: CacheConfig,
    kinds: frozenset[AccessKind] = ALL_KINDS,
) -> MissRatioCurve:
    """Simulate every segment at every capacity; combine per-segment miss
    ratios as the weighted mean given by the segment weights.

    Each segment's lines and their previous accesses are computed once, in
    one `SweepState`, and `simulate` runs them through a cold cache of each
    capacity, from the largest down: one call per (segment, capacity),
    looked up as a module global, so a wrapper set on `cachesim.simulate`
    sees every pass. What each pass leaves in the state, and which of it
    the next pass may take, `simulate` decides (see the module docstring).
    Segments are done one at a time, so only one segment's lines are held
    in memory.
    """
    if not sizes:
        raise DataError("sizes must be non-empty")
    ordered = sorted(int(s) for s in sizes)
    if len(set(ordered)) != len(ordered):
        raise DataError("sizes contain duplicates")
    configs = [replace(template, capacity_bytes=size) for size in ordered]
    ratios = [0] * len(configs)  # weight * miss ratio, added up in segment order
    for seg in trace.segments:
        state = SweepState(_segment_lines(seg, kinds, template.line_bytes))
        for i in reversed(range(len(configs))):
            ratios[i] += seg.weight * simulate(state, configs[i]).miss_ratio
        del state  # before the next segment's lines are built
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


def read_text_trace(source: str | Path | BinaryIO) -> AccessTrace:
    """Read a `kind address` text trace, given as a path or an open binary
    file, as a single full-weight segment.

    Each line holds a kind and a hexadecimal address separated by
    whitespace. The kind is `i`/`ifetch`/`instr`, `l`/`load`/`read` or
    `s`/`store`/`write`, in any case. The address is 0 to 2**64 - 1 with or
    without a `0x` prefix. A `#` starts a comment that runs to the end of
    the line, and blank lines are skipped. Newlines are `\n`, `\r\n` or
    `\r`. A bad line raises a `ParseError` that names the line number, and a
    trace with no accesses raises one that names no line; `open_binary`
    names the file.

    The file is read `_TEXT_BLOCK` characters at a time, each block cut
    after its last newline. The lines of a block that are a kind letter,
    one space, `0x` and 1 to 16 hex digits (the form the tests' and
    perfbench's writers use) are converted with numpy in one pass; any
    other line, such as a comment, is parsed on its own by `_line_access`.
    """
    blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (addresses, kinds) of each block
    lineno = 1  # the number of the next block's first line
    tail = ""  # the text after the last newline read so far
    with open_text(source) as fh:
        try:
            while chunk := fh.read(_TEXT_BLOCK):
                text = tail + chunk
                cut = text.rfind("\n") + 1
                block, tail = text[:cut], text[cut:]
                if block:
                    blocks.append(_block_accesses(block, lineno))
                    lineno += block.count("\n")
        except UnicodeDecodeError:
            raise ParseError("not valid UTF-8 text")
        if tail:
            blocks.append(_block_accesses(tail + "\n", lineno))  # a last line without a newline
        if not any(addresses.size for addresses, _ in blocks):
            raise ParseError("trace has no accesses")
    addresses, kinds = map(np.concatenate, zip(*blocks))
    return AccessTrace.single(addresses, kinds)


def _block_accesses(block: str, first_lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """(addresses, kinds) of `block`, newline-ended trace lines the first of
    which is numbered `first_lineno`, in line order; raises on a bad line.

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
    """(address, kind code) of one trace line, numbered `lineno`, or None for
    a blank or comment line; raises on a bad line."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"expected 'kind address', got {raw.strip()!r}", lineno)
    kind = _KIND_TOKENS.get(parts[0].lower())
    if kind is None:
        raise ParseError(f"unknown access kind {parts[0]!r}", lineno)
    try:
        address = int(parts[1], 16)
    except ValueError:
        raise ParseError(f"address {parts[1]!r} is not hexadecimal", lineno)
    if not 0 <= address < 1 << 64:
        raise ParseError(f"address {parts[1]!r} is not a 64-bit address", lineno)
    return address, kind.value


def _read_records(fh: BinaryIO) -> np.ndarray:
    """The packed records of `fh`. A regular file's are read straight into
    their array, sized from the file's length, so they are held once; any
    other stream, such as a `BytesIO` or a pipe, is read whole and its bytes
    are viewed as records."""
    try:
        info = os.fstat(fh.fileno())
    except (AttributeError, OSError):  # no file descriptor (`io.UnsupportedOperation`)
        info = None
    if info is None or not stat.S_ISREG(info.st_mode):
        data = bytearray(fh.read())
        _check_whole_records(len(data))
        return np.frombuffer(data, dtype=_RECORD_DTYPE)
    size = info.st_size
    _check_whole_records(size)
    records = np.empty(size // _RECORD_DTYPE.itemsize, dtype=_RECORD_DTYPE)
    buffer = memoryview(records.view(np.uint8))
    filled = 0
    while filled < size and (count := fh.readinto(buffer[filled:])):
        filled += count
    if filled < size:
        raise DataError(f"ended after {filled} of {size} bytes")
    return records


def _check_whole_records(size: int) -> None:
    if size % _RECORD_DTYPE.itemsize:
        raise DataError(f"{size} bytes is not a whole number of records")


def read_binary_trace(trace: str | Path | BinaryIO,
                      sidecar: str | Path | BinaryIO | None = None) -> AccessTrace:
    """Read packed (u64 address, u8 kind) records.

    The optional JSON sidecar assigns record ranges to weighted segments:
    `{"segments": [{"begin": 0, "end": N, "weight": 1.0}, ...]}`. Without a
    sidecar the whole file is one segment of weight 1. Each file is given as
    a path or an open binary file, and each is checked while it is open, so
    an error names the file at fault.
    """
    with open_binary(trace) as fh:
        records = _read_records(fh)
        if records.size == 0:
            raise DataError("trace has no records")
        whole = AccessTrace.single(records["address"], records["kind"])
    if sidecar is None:
        return whole
    with open_binary(sidecar) as fh:
        spec = SegmentsFile.from_dict(read_json(fh))
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


def read_curve_csv(source: str | Path | BinaryIO,
                   kind: CurveKind = CurveKind.UNIFIED) -> MissRatioCurve:
    """Read a curve CSV, given as a path or an open binary file."""
    points = []
    with open_text(source, newline="") as fh:
        _, rows = read_csv(fh, CURVE_CSV_HEADER)
        for lineno, (capacity_s, ratio_s) in rows:
            try:
                capacity = int(capacity_s)
            except ValueError:
                raise ParseError(f"capacity_bytes {capacity_s!r} is not an integer", lineno)
            points.append(CurvePoint(capacity, finite_number("miss_ratio", ratio_s, lineno)))
        return MissRatioCurve(points=tuple(points), kind=kind)
