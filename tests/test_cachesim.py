"""LRU simulation, the reuse-distance oracle, capacity sweeps, footprints."""

import json
import tempfile
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from helpers import (
    reference_read_text_trace,
    reuse_distances,
    simulate_segment,
    stack_distance_oracle,
    write_binary_trace,
    write_text_trace,
)
from wcr import cachesim
from wcr.cachesim import (
    _CHUNK,
    _WINDOW_WAYS,
    _block_accesses,
    ALL_KINDS,
    DEFAULT_SIZE_GRID,
    AccessKind,
    AccessTrace,
    CacheConfig,
    CurveKind,
    CurvePoint,
    MissRatioCurve,
    SimResult,
    TraceSegment,
    estimate_footprint,
    previous_accesses,
    read_binary_trace,
    read_curve_csv,
    read_text_trace,
    simulate,
    skip_accesses,
    sweep_capacities,
    write_curve_csv,
)
from wcr.errors import DataError, ParseError

KIB = 1024


def segment(lines, kinds=None, weight=1.0, line_bytes=64):
    lines = np.asarray(lines, dtype=np.uint64)
    addresses = lines * np.uint64(line_bytes)
    if kinds is None:
        kinds = np.full(lines.shape, AccessKind.LOAD.value, dtype=np.uint8)
    return TraceSegment(weight=weight, addresses=addresses, kinds=kinds)


def random_segment(rng, n=2000, line_space=1024, line_bytes=64):
    lines = rng.integers(0, line_space, size=n)
    kinds = rng.integers(0, 3, size=n).astype(np.uint8)
    return segment(lines, kinds=kinds, line_bytes=line_bytes)


class TestCacheConfig:
    def test_defaults(self):
        config = CacheConfig(capacity_bytes=16 * KIB)
        assert config.line_bytes == 64
        assert config.ways == 8
        assert config.set_count == 32

    def test_fully_associative(self):
        config = CacheConfig(capacity_bytes=16 * KIB, associativity=None)
        assert config.set_count == 1
        assert config.ways == 256

    def test_line_must_be_power_of_two(self):
        with pytest.raises(DataError, match="power of two"):
            CacheConfig(capacity_bytes=16 * KIB, line_bytes=48)

    def test_capacity_divisibility(self):
        with pytest.raises(DataError, match="divisible"):
            CacheConfig(capacity_bytes=100, line_bytes=64, associativity=None)
        with pytest.raises(DataError, match="divisible"):
            CacheConfig(capacity_bytes=64 * 12, line_bytes=64, associativity=8)

    def test_set_count_past_64_bits_rejected(self):
        with pytest.raises(DataError, match=r"capacity_bytes 10{30} gives \d+ sets, more than "
                                            r"a 64-bit set number holds"):
            CacheConfig(capacity_bytes=10**30)
        with pytest.raises(DataError, match="18446744073709551616 sets"):
            CacheConfig(capacity_bytes=(1 << 64) * 64 * 8)
        assert CacheConfig(capacity_bytes=((1 << 64) - 1) * 64 * 8).set_count == (1 << 64) - 1
        assert CacheConfig(capacity_bytes=10**30, associativity=None).set_count == 1

    @pytest.mark.parametrize("capacity, associativity, values", [
        (1000, 8, ("capacity_bytes 1000", "line_bytes 64", "associativity 8")),
        (100, None, ("capacity_bytes 100", "line_bytes 64", "associativity full")),
        (64 * 12, 8, ("capacity_bytes 768", "line_bytes 64", "associativity 8")),
    ])
    def test_divisibility_errors_name_the_geometry(self, capacity, associativity, values):
        with pytest.raises(DataError, match="divisible") as raised:
            CacheConfig(capacity_bytes=capacity, line_bytes=64, associativity=associativity)
        for value in values:
            assert value in str(raised.value)


class TestSimulate:
    def test_single_line_all_hits_after_cold_miss(self):
        seg = segment([7] * 100)
        for config in (
            CacheConfig(capacity_bytes=16 * KIB),
            CacheConfig(capacity_bytes=16 * KIB, associativity=None),
        ):
            result = simulate_segment(seg, config)
            assert result.misses == 1
            assert result.miss_ratio == 0.01

    def test_cyclic_scan_thrashes_lru(self):
        # two passes over twice the capacity in distinct lines: every access misses
        config = CacheConfig(capacity_bytes=16 * KIB, associativity=None)
        lines = list(range(2 * config.capacity_lines)) * 2
        result = simulate_segment(segment(lines), config)
        assert result.miss_ratio == 1.0

    def test_kind_filter_restricts_accesses(self):
        seg = segment([1, 2, 3, 4], kinds=np.array([0, 1, 2, 1], dtype=np.uint8))
        config = CacheConfig(capacity_bytes=16 * KIB)
        result = simulate_segment(seg, config, kinds=frozenset({AccessKind.LOAD}))
        assert result.accesses == 2

    def test_no_matching_kinds_rejected(self):
        seg = segment([1, 2], kinds=np.array([1, 1], dtype=np.uint8))
        config = CacheConfig(capacity_bytes=16 * KIB)
        with pytest.raises(DataError, match=r"no accesses of the requested kinds \(ifetch\)"):
            simulate_segment(seg, config, kinds=frozenset({AccessKind.IFETCH}))
        with pytest.raises(DataError, match=r"requested kinds \(ifetch, store\)"):
            simulate_segment(seg, config, kinds=frozenset({AccessKind.STORE, AccessKind.IFETCH}))

    def test_miss_count_exact_cold_when_working_set_fits(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 128, size=5000)
        config = CacheConfig(capacity_bytes=64 * KIB, associativity=None)  # 1024 lines
        result = simulate_segment(segment(lines), config)
        assert result.misses == len(np.unique(lines))


def assert_sweep_matches_oracle(segments, sizes, template):
    """Each sweep point is the weighted sum of the oracle's per-segment miss
    ratios, and one-capacity `simulate` gives the oracle's misses."""
    trace = AccessTrace(segments=tuple(segments))
    curve = sweep_capacities(trace, sizes, template)
    for point, size in zip(curve.points, sorted(sizes)):
        config = replace(template, capacity_bytes=size)
        oracle = [stack_distance_oracle(seg, config.capacity_lines, config.set_count)
                  for seg in trace.segments]
        assert [simulate_segment(seg, config).misses for seg in trace.segments] == oracle
        assert point.miss_ratio == sum(
            seg.weight * (misses / len(seg)) for seg, misses in zip(trace.segments, oracle))


class TestOracleEquivalence:
    # up to 64 ways the window pass counts the evicting sets, 128 ways and
    # full run the OrderedDict loop
    @pytest.mark.parametrize("associativity", [None, 8, 16, 32, 128])
    @pytest.mark.parametrize("capacity_kib", [16, 64, 256])
    def test_simulate_matches_oracle_on_random_traces(self, associativity, capacity_kib):
        rng = np.random.default_rng(17)
        config = CacheConfig(capacity_bytes=capacity_kib * KIB, associativity=associativity)
        for _ in range(3):
            seg = random_segment(rng)
            expected = stack_distance_oracle(
                seg, config.capacity_lines, config.set_count, line_bytes=config.line_bytes
            )
            assert simulate_segment(seg, config).misses == expected

    @staticmethod
    def assert_sweep_and_simulate_match_oracle(seg, sizes, associativity):
        template = CacheConfig(capacity_bytes=sizes[0], associativity=associativity)
        assert_sweep_matches_oracle([seg], sizes, template)

    def test_set_at_way_count_beside_set_over_it(self):
        # 2 sets of 4 ways: set 0 cycles exactly 4 lines and never evicts,
        # set 1 cycles 5 lines and misses on every access; the two interleave
        ways = 4
        fits = [2 * i for i in range(ways)]
        over = [2 * i + 1 for i in range(ways + 1)]
        lines = [line for pair in zip(fits * 15, over * 12) for line in pair]
        config = CacheConfig(capacity_bytes=2 * ways * 64, associativity=ways)
        assert simulate_segment(segment(lines), config).misses == ways + 60
        # 1 set (all 9 lines overflow it), 2 sets, 4 sets (no set overflows)
        self.assert_sweep_and_simulate_match_oracle(segment(lines), [256, 512, 1024], ways)

    def test_fully_associative_at_and_below_distinct_lines(self):
        rng = np.random.default_rng(29)
        seg = random_segment(rng, n=3000, line_space=200)
        distinct = len(np.unique(seg.addresses // np.uint64(64)))
        at = CacheConfig(capacity_bytes=distinct * 64, associativity=None)
        below = CacheConfig(capacity_bytes=(distinct - 1) * 64, associativity=None)
        assert simulate_segment(seg, at).misses == distinct
        assert simulate_segment(seg, below).misses > distinct
        self.assert_sweep_and_simulate_match_oracle(
            seg, [distinct * 64, (distinct - 1) * 64], None)

    def test_evicting_accesses_span_chunks(self):
        # set 1 of 2 has 4 ways and draws mostly from 3 hot lines, now and
        # then from 3 others, so it evicts, and its hits right after a chunk
        # boundary depend on the LRU state carried across it; set 0 draws
        # from 4 lines and never evicts
        rng = np.random.default_rng(31)
        ways, n = 4, _CHUNK + 1000
        over = rng.choice([1, 3, 5, 7, 9, 11], size=n, p=[0.3, 0.3, 0.3, 0.04, 0.03, 0.03])
        fits = 2 * rng.integers(0, ways, size=n)
        seg = segment(np.column_stack([fits, over]).ravel())
        self.assert_sweep_and_simulate_match_oracle(seg, [512], ways)

    @pytest.mark.parametrize("ways", [2, 32, 128])
    def test_few_evicting_sets_among_many(self, ways):
        # 2**16 sets: three of them draw from ways + 3 lines each and evict,
        # the rest each get at most one line and are counted from their
        # first touches alone
        set_count = 1 << 16
        rng = np.random.default_rng(47)
        hot = np.array([5, 777, 60000])
        over = hot[rng.integers(0, 3, size=6000)] + set_count * rng.integers(
            0, ways + 3, size=6000)
        spread = rng.choice(np.setdiff1d(np.arange(set_count), hot), size=3000, replace=False)
        lines = np.concatenate([over, spread])[rng.permutation(9000)]
        seg = segment(lines)
        config = CacheConfig(capacity_bytes=set_count * ways * 64, associativity=ways)
        expected = stack_distance_oracle(seg, config.capacity_lines, set_count)
        assert expected > 3 * (ways + 3) + 3000  # the hot sets miss after their first touches
        assert simulate_segment(seg, config).misses == expected

    def test_all_distinct_lines_all_miss(self):
        seg = segment(range(500))
        assert stack_distance_oracle(seg, 256, 1) == 500

    def test_immediate_rereference_hits(self):
        seg = segment([1, 1, 2, 2, 3, 3])
        assert stack_distance_oracle(seg, 8, 8) == 3

    def test_reuse_distance_at_way_count_misses(self):
        # line 0, then `ways` distinct other lines, then line 0 again: evicted
        ways = 4
        seg = segment([0, 1, 2, 3, 4, 0])
        config = CacheConfig(capacity_bytes=ways * 64, line_bytes=64, associativity=None)
        assert simulate_segment(seg, config).misses == 6
        assert stack_distance_oracle(seg, ways, 1) == 6

    def test_fully_associative_inclusion_property(self):
        rng = np.random.default_rng(23)
        seg = random_segment(rng, n=4000, line_space=4096)
        misses = [
            simulate_segment(seg, CacheConfig(capacity_bytes=size, associativity=None)).misses
            for size in DEFAULT_SIZE_GRID
        ]
        assert all(b <= a for a, b in zip(misses, misses[1:]))

    @pytest.mark.parametrize("set_count", [1, 2, 8, 32])
    def test_same_line_runs_match_reuse_distances(self, set_count):
        # every access repeated 1-4 times in a row: the repeats the LRU loop
        # skips are hits, and they still count as accesses
        rng = np.random.default_rng(41 + set_count)
        base = rng.integers(0, 64, size=2000)
        lines = np.repeat(base, rng.integers(1, 5, size=base.size))
        seg = segment(lines)
        distances = reuse_distances(seg, set_count)
        for ways in (1, 2, 4, 8, 16):
            config = CacheConfig(capacity_bytes=set_count * ways * 64, associativity=ways)
            result = simulate_segment(seg, config)
            assert result.accesses == lines.size
            assert result.misses == int((distances >= ways).sum())

    def test_no_evicting_set_gives_the_distinct_line_count(self):
        # 64 sets of 4 ways, each receiving exactly 4 distinct lines
        rng = np.random.default_rng(43)
        lines = rng.integers(0, 256, size=5000).astype(np.uint64)
        distinct = np.unique(lines)
        assert distinct.size == 256 and np.bincount(distinct % 64).max() == 4
        result = simulate(lines, previous_accesses(lines),
                          CacheConfig(capacity_bytes=256 * 64, associativity=4))
        assert result == SimResult(accesses=5000, misses=256, miss_ratio=256 / 5000)


def reference_previous(lines) -> list[int]:
    """`previous_accesses` from a dict of each line's last index."""
    last: dict[int, int] = {}
    previous = []
    for i, line in enumerate(np.asarray(lines).tolist()):
        previous.append(last.get(line, -1))
        last[line] = i
    return previous


class TestWindowPass:
    """The reuse-window count that `simulate` runs up to `_WINDOW_WAYS` ways,
    against the reuse-distance oracle."""

    @staticmethod
    def assert_matches_oracle(lines, set_count, ways, line_bytes=64):
        seg = segment(lines, line_bytes=line_bytes)
        config = CacheConfig(capacity_bytes=set_count * ways * line_bytes,
                             line_bytes=line_bytes, associativity=ways)
        expected = stack_distance_oracle(seg, set_count * ways, set_count, line_bytes)
        result = simulate_segment(seg, config)
        assert result.misses == expected
        assert result.accesses == len(seg)
        return expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           ways=st.one_of(st.integers(1, 16), st.sampled_from([31, 32, _WINDOW_WAYS])),
           set_count=st.sampled_from([1, 2, 3, 4, 7, 8, 12, 64]),
           chunk=st.sampled_from([1, 7, 1 << 14]))
    def test_matches_oracle(self, data, ways, set_count, chunk):
        # runs of one line, any set count, and chunks of one set up to all of them
        space = data.draw(st.integers(1, 3 * set_count * (ways + 1)))
        lines = data.draw(st.lists(st.integers(0, space), min_size=1, max_size=300))
        runs = data.draw(st.lists(st.integers(1, 3), min_size=len(lines), max_size=len(lines)))
        with mock.patch.object(cachesim, "_SET_CHUNK", chunk):
            self.assert_matches_oracle(np.repeat(lines, runs), set_count, ways)

    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 8, 15, 16, 32, _WINDOW_WAYS])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_reuse_across_ways_minus_one_ways_and_ways_plus_one_lines(self, ways, extra):
        # line 0, then `ways + extra` other lines of set 0, then line 0 again,
        # which misses only when `ways` or more lines came between; line 1
        # of set 1 interleaves, so set 0's order is not the trace order
        between = ways + extra  # no line between for 1 way and extra -1
        own = [0, *(2 * (i + 1) for i in range(between)), 0]
        lines = [line for pair in zip(own, [1] * len(own)) for line in pair]
        misses = self.assert_matches_oracle(lines, 2, ways)
        assert misses == (between + 1) + (between >= ways) + 1
        # each line between touched twice in a row, then the lines between
        # cycled a second time: the window is longer than its distinct lines
        own = [0, *(2 * (i + 1) for i in range(between) for _ in (0, 1)),
               *(2 * (i + 1) for i in range(between)), 0]
        self.assert_matches_oracle(own, 2, ways)

    @pytest.mark.parametrize("set_count", [1, 4, 6, 64])
    @pytest.mark.parametrize("evicting", [True, False])
    def test_every_set_or_no_set_evicts(self, set_count, evicting):
        ways = 4
        rng = np.random.default_rng(53 + set_count)
        per_set = ways + 3 if evicting else ways
        lines = rng.integers(0, set_count * per_set, size=4000)
        counts = np.bincount(np.unique(lines) % set_count, minlength=set_count)
        assert (counts > ways).all() if evicting else (counts <= ways).all()
        with mock.patch.object(cachesim, "_SET_CHUNK", 300):
            misses = self.assert_matches_oracle(lines, set_count, ways)
        assert (misses > counts.sum()) == evicting

    def test_long_window_of_few_lines(self):
        # one set cycles 3 lines for 60000 accesses; 8 other lines come back
        # after long gaps with fewer than `ways` lines between, and hit
        rng = np.random.default_rng(59)
        lines = np.tile([0, 4, 8], 20000)
        rare = 4 * np.arange(3, 11)
        lines[rng.choice(lines.size, 40, replace=False)] = rare[np.arange(40) % 8]
        self.assert_matches_oracle(lines, 4, 16)
        self.assert_matches_oracle(lines, 4, 8)

    def test_set_numbers_too_wide_to_pack(self):
        # 2**60 sets: a set number does not fit beside a 12-bit access
        # index in one uint64, so the pass numbers the occupied sets instead
        set_count = 1 << 60
        rng = np.random.default_rng(61)
        hot = np.array([5, 1 << 40, (1 << 59) + 3], dtype=np.uint64)
        lines = hot[rng.integers(0, 3, size=3000)] + np.uint64(set_count) * rng.integers(
            0, 6, size=3000).astype(np.uint64)
        lines = np.concatenate([lines, rng.integers(0, 1 << 62, size=1000).astype(np.uint64)])
        misses = self.assert_matches_oracle(lines[rng.permutation(lines.size)], set_count, 4,
                                            line_bytes=1)
        assert misses > 3 * 6 + 1000

    @pytest.mark.parametrize("scale", [1, 1 << 40, 1 << 54])
    def test_previous_accesses_match_a_dict(self, scale):
        # scales 1 and 2**40 pack (line, index) pairs, 2**54 spans too many
        # lines for that and sorts with a stable argsort
        rng = np.random.default_rng(67)
        lines = rng.integers(0, 500, size=5000).astype(np.uint64) * np.uint64(scale)
        previous = previous_accesses(lines)
        assert previous.dtype == np.int32
        assert previous.tolist() == reference_previous(lines)
        extremes = np.array([2**64 - 1, 0, 2**64 - 1, 7, 0], dtype=np.uint64)
        assert previous_accesses(extremes).tolist() == [-1, -1, 0, -1, 1]
        assert previous_accesses(np.array([9], dtype=np.uint64)).tolist() == [-1]

    def test_capacity_past_the_trace_counts_distinct_lines(self):
        # 2**53 sets: memory follows the accesses, not the sets
        rng = np.random.default_rng(71)
        seg = random_segment(rng, n=500, line_space=300)
        result = simulate_segment(seg, CacheConfig(capacity_bytes=1 << 62))
        assert result.misses == np.unique(seg.addresses // np.uint64(64)).size


class TestTraceTypes:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum"):
            AccessTrace(segments=(segment([1], weight=0.5),))

    def test_empty_segment_rejected(self):
        with pytest.raises(DataError, match="empty"):
            TraceSegment(1.0, np.array([], dtype=np.uint64), np.array([], dtype=np.uint8))

    def test_bad_kind_code_rejected(self):
        with pytest.raises(DataError, match="kind"):
            TraceSegment(1.0, np.array([1], dtype=np.uint64), np.array([9], dtype=np.uint8))

    def test_arrays_are_read_only(self):
        seg = segment([1, 2, 3])
        with pytest.raises(ValueError):
            seg.addresses[0] = 0


class TestSweep:
    def test_single_segment_matches_simulate(self):
        rng = np.random.default_rng(5)
        seg = random_segment(rng, n=1000, line_space=512)
        trace = AccessTrace(segments=(seg,))
        sizes = [16 * KIB, 64 * KIB]
        template = CacheConfig(capacity_bytes=sizes[0])
        curve = sweep_capacities(trace, sizes, template)
        for point, size in zip(curve.points, sizes):
            expected = simulate_segment(seg, CacheConfig(capacity_bytes=size)).miss_ratio
            assert point.miss_ratio == expected

    @pytest.mark.parametrize("kinds", [ALL_KINDS, frozenset({AccessKind.LOAD, AccessKind.STORE})])
    def test_segments_match_simulate_per_capacity(self, kinds):
        # the sweep maps each segment's lines once; its points must stay the
        # weighted sums of one `simulate` call per capacity and segment
        rng = np.random.default_rng(6)
        segments = tuple(
            replace(random_segment(rng, n=n, line_space=space), weight=w)
            for n, space, w in ((700, 300, 0.2), (1200, 900, 0.3), (400, 2000, 0.5))
        )
        trace = AccessTrace(segments=segments)
        sizes = [16 * KIB, 4 * KIB, 64 * KIB]
        template = CacheConfig(capacity_bytes=4 * KIB)
        curve = sweep_capacities(trace, sizes, template, kinds)
        for point, size in zip(curve.points, sorted(sizes)):
            config = replace(template, capacity_bytes=size)
            expected = sum(
                seg.weight * simulate_segment(seg, config, kinds).miss_ratio for seg in segments
            )
            assert point.miss_ratio == expected

    def test_sweep_calls_simulate_once_per_segment_and_capacity(self):
        # a counting wrapper on the module global, as a tracer would install it,
        # sees every LRU pass of the sweep
        segments = (
            segment([1, 2, 3, 1] * 50, kinds=np.array([0, 1, 2, 1] * 50, dtype=np.uint8),
                    weight=0.25),
            segment(np.arange(300), weight=0.75),
        )
        trace = AccessTrace(segments=segments)
        sizes = [16 * KIB, 4 * KIB, 64 * KIB]
        kinds = frozenset({AccessKind.LOAD, AccessKind.STORE})
        calls = []

        def counting(lines, previous, config, missed):
            calls.append((lines.size, config.capacity_bytes, missed.size))
            return simulate(lines, previous, config, missed)

        with mock.patch.object(cachesim, "simulate", counting):
            sweep_capacities(trace, sizes, CacheConfig(capacity_bytes=4 * KIB), kinds)
        # segment 0 keeps its 150 loads and stores, segment 1 all 300 loads;
        # each segment's capacities run from the largest down, with one mask
        # per access of the segment
        assert calls == [(n, size, n) for n in (150, 300)
                         for size in sorted(sizes, reverse=True)]

    def test_weighted_mean_of_segments(self):
        # segment A: 1 miss / 10 accesses = 0.1; segment B: 3 misses / 10 = 0.3
        seg_a = segment([1] * 10, weight=0.5)
        seg_b = segment([1, 2, 3] + [3] * 7, weight=0.5)
        trace = AccessTrace(segments=(seg_a, seg_b))
        template = CacheConfig(capacity_bytes=16 * KIB)
        curve = sweep_capacities(trace, [16 * KIB], template)
        assert curve.points[0].miss_ratio == pytest.approx(0.2)

    def test_default_grid_has_ten_doubling_points(self):
        assert len(DEFAULT_SIZE_GRID) == 10
        assert DEFAULT_SIZE_GRID[0] == 16 * KIB
        assert DEFAULT_SIZE_GRID[-1] == 8192 * KIB
        for a, b in zip(DEFAULT_SIZE_GRID, DEFAULT_SIZE_GRID[1:]):
            assert b == 2 * a

    def test_duplicate_sizes_rejected(self):
        trace = AccessTrace(segments=(segment([1]),))
        template = CacheConfig(capacity_bytes=16 * KIB)
        with pytest.raises(DataError, match="duplicates"):
            sweep_capacities(trace, [16 * KIB, 16 * KIB], template)

    def test_curve_kind_follows_filter(self):
        seg = segment([1, 2], kinds=np.array([0, 1], dtype=np.uint8))
        trace = AccessTrace(segments=(seg,))
        template = CacheConfig(capacity_bytes=16 * KIB)
        curve = sweep_capacities(
            trace, [16 * KIB], template, kinds=frozenset({AccessKind.IFETCH})
        )
        assert curve.kind is CurveKind.INSTRUCTION

    @given(st.floats(0.1, 10.0))
    def test_uniform_weight_scaling_preserves_curve(self, scale):
        seg_a = segment([1] * 10)
        seg_b = segment([1, 2, 3] + [3] * 7)
        raw = np.array([0.3, 0.7])
        rescaled = raw * scale
        rescaled = rescaled / rescaled.sum()
        template = CacheConfig(capacity_bytes=16 * KIB)
        curves = []
        for w in (raw, rescaled):
            trace = AccessTrace(segments=(
                TraceSegment(w[0], seg_a.addresses, seg_a.kinds),
                TraceSegment(w[1], seg_b.addresses, seg_b.kinds),
            ))
            curves.append(sweep_capacities(trace, [16 * KIB], template))
        assert curves[0].points[0].miss_ratio == pytest.approx(
            curves[1].points[0].miss_ratio, abs=1e-12
        )


def lru_miss_flags(lines, set_count: int, ways: int) -> np.ndarray:
    """Whether each access misses, in trace order, from one OrderedDict per set."""
    sets: dict[int, OrderedDict] = {}
    flags = []
    for line in np.asarray(lines).tolist():
        lru = sets.setdefault(line % set_count, OrderedDict())
        flags.append(line not in lru)
        lru[line] = None
        lru.move_to_end(line)
        if len(lru) > ways:
            lru.popitem(last=False)
    return np.array(flags)


def segment_lines(seg: TraceSegment) -> np.ndarray:
    return seg.addresses // np.uint64(64)


class TestSweepCarry:
    """`sweep_capacities` runs each segment's capacities from the largest
    down and hands the misses of one pass to the next; every point must
    still be the one-capacity `simulate` result and the oracle's."""

    def test_simulate_marks_its_misses_other_than_first_touches(self):
        rng = np.random.default_rng(97)
        lines = segment_lines(random_segment(rng, n=3000, line_space=700))
        previous = previous_accesses(lines)
        missed = np.zeros(lines.size, dtype=bool)
        result = simulate(lines, previous, CacheConfig(capacity_bytes=16 * KIB), missed)
        flags = lru_miss_flags(lines, 32, 8)
        assert result.misses == int(flags.sum())
        assert np.array_equal(missed, flags & (previous >= 0))

    def test_set_counts_that_break_the_chain(self):
        # 16K, 48K and 64K at 8 ways: 32, 96 and 128 sets. 128 is no multiple
        # of 96, so the 48K pass must not take the 64K pass's misses (some of
        # them hit at 48K); 96 is a multiple of 32, so the 16K pass may
        rng = np.random.default_rng(73)
        seg = random_segment(rng, n=6000, line_space=2000)
        lines = segment_lines(seg)
        first = previous_accesses(lines) < 0
        at_128, at_96 = lru_miss_flags(lines, 128, 8), lru_miss_flags(lines, 96, 8)
        assert (at_128 & ~at_96 & ~first).any()
        assert not (at_96 & ~lru_miss_flags(lines, 32, 8)).any()
        assert_sweep_matches_oracle([seg], [16 * KIB, 48 * KIB, 64 * KIB],
                                    CacheConfig(capacity_bytes=16 * KIB))

    @pytest.mark.parametrize("lines_per_size, space", [
        ((16, 32, 64), 150),  # every pass on the window count
        ((32, 64, 128, 256), 400),  # the OrderedDict loop above 64 lines, then windows
    ])
    def test_fully_associative(self, lines_per_size, space):
        rng = np.random.default_rng(79)
        seg = random_segment(rng, n=4000, line_space=space)
        sizes = [64 * lines for lines in lines_per_size]
        assert_sweep_matches_oracle([seg], sizes,
                                    CacheConfig(capacity_bytes=sizes[0], associativity=None))

    def test_a_segment_starts_with_no_known_misses(self):
        # segment 0 misses often, segment 1 (as long) mostly hits a few hot
        # lines; segment 0's last mask, the misses at 16K, marks accesses that
        # hit in segment 1's first pass, at 32K, which evicts
        rng = np.random.default_rng(83)
        n = 3000
        seg0 = replace(random_segment(rng, n=n, line_space=1200), weight=0.4)
        hot = rng.integers(0, 40, size=n)
        cold = rng.integers(40, 1200, size=n)
        seg1 = segment(np.where(rng.random(n) < 0.8, hot, cold), weight=0.6)
        lines0, lines1 = segment_lines(seg0), segment_lines(seg1)
        assert np.bincount(np.unique(lines1) % 64).max() > 8  # 32K evicts
        stale = lru_miss_flags(lines0, 32, 8) & (previous_accesses(lines0) >= 0)
        assert (stale & ~lru_miss_flags(lines1, 64, 8)).any()
        assert_sweep_matches_oracle([seg0, seg1], [16 * KIB, 32 * KIB],
                                    CacheConfig(capacity_bytes=16 * KIB))

    def test_reuse_windows_much_longer_than_a_chunk(self):
        # one set cycles lines 1, 2 and 3; each rare line comes back after
        # 50 to 2,000 accesses, with no other line between (a hit at 4 ways)
        # or with one other rare line (a miss at 4 ways, a hit at 8). The
        # blocks double as the counting accesses settle, up to the cap
        rng = np.random.default_rng(89)
        lines = []
        for k, gap in enumerate(rng.integers(50, 2000, size=24).tolist()):
            rare = [100 + 2 * k] if k % 2 else [100 + 2 * k, 101 + 2 * k]
            lines += rare + [1 + i % 3 for i in range(gap)] + rare[:1]
        seg = segment(lines)
        widths = []

        def recording(array, window_shape):
            widths.append(window_shape)
            return sliding_window_view(array, window_shape)

        template = CacheConfig(capacity_bytes=256, associativity=None)
        with mock.patch.object(cachesim, "_SET_CHUNK", 64):
            with mock.patch.object(cachesim, "sliding_window_view", recording):
                sweep_capacities(AccessTrace(segments=(seg,)), [256, 512], template)
            assert_sweep_matches_oracle([seg], [256, 512], template)
        assert any(b == 2 * a for a, b in zip(widths, widths[1:]))
        # without the cap, doubling from 4 ways, each of the two passes would
        # cover any window here (about 2,000 positions at most) in 11 blocks
        assert len(widths) > 2 * 11

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           ways=st.one_of(st.integers(1, 8), st.none()),
           chunk=st.sampled_from([1, 16, 1 << 16]))
    def test_random_grids_match_oracle(self, data, ways, chunk):
        # grids whose set counts do or do not divide one another; fully
        # associative grids crossing the 64-line cut
        if ways is None:
            counts = data.draw(st.lists(st.sampled_from([1, 3, 8, 20, 63, 64, 65, 70, 100]),
                                        min_size=1, max_size=5, unique=True))
            template = CacheConfig(capacity_bytes=64, associativity=None)
            sizes = [64 * lines for lines in counts]
        else:
            counts = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16]),
                                        min_size=1, max_size=5, unique=True))
            template = CacheConfig(capacity_bytes=64 * ways, associativity=ways)
            sizes = [64 * ways * sets for sets in counts]
        space = data.draw(st.integers(1, 200))
        segments = []
        for weight in data.draw(st.sampled_from([(1.0,), (0.5, 0.5), (0.25, 0.25, 0.5)])):
            lines = data.draw(st.lists(st.integers(0, space), min_size=1, max_size=200))
            segments.append(segment(lines, weight=weight))
        with mock.patch.object(cachesim, "_SET_CHUNK", chunk):
            assert_sweep_matches_oracle(segments, sizes, template)


class TestFootprint:
    def test_first_point_below_knee(self):
        curve = MissRatioCurve(
            points=(
                CurvePoint(16 * KIB, 0.20),
                CurvePoint(32 * KIB, 0.02),
                CurvePoint(64 * KIB, 0.001),
            ),
            kind=CurveKind.INSTRUCTION,
        )
        assert estimate_footprint(curve, 0.01) == 64 * KIB

    def test_not_reached(self):
        curve = MissRatioCurve(
            points=(CurvePoint(16 * KIB, 0.5), CurvePoint(32 * KIB, 0.4)),
            kind=CurveKind.DATA,
        )
        assert estimate_footprint(curve, 0.01) is None

    def test_constructed_working_set_reads_off_the_grid(self):
        # 64 KiB of 1 KiB lines looped often enough that only cold misses remain
        line_bytes = 1024
        ws_lines = 64
        lines = list(range(ws_lines)) * 101
        trace = AccessTrace(segments=(segment(lines, line_bytes=line_bytes),))
        template = CacheConfig(capacity_bytes=16 * KIB, line_bytes=line_bytes)
        curve = sweep_capacities(trace, DEFAULT_SIZE_GRID, template)
        assert estimate_footprint(curve, 0.01) == 64 * KIB

    def test_curve_capacities_must_increase(self):
        with pytest.raises(DataError, match="increasing"):
            MissRatioCurve(
                points=(CurvePoint(32 * KIB, 0.5), CurvePoint(16 * KIB, 0.4)),
                kind=CurveKind.UNIFIED,
            )


class TestTraceIo:
    def test_text_roundtrip(self, tmp_path):
        trace = AccessTrace.single([64, 128, 192], [0, 1, 2])
        path = tmp_path / "trace.txt"
        write_text_trace(trace, path)
        loaded = read_text_trace(path)
        assert np.array_equal(loaded.segments[0].addresses, trace.segments[0].addresses)
        assert np.array_equal(loaded.segments[0].kinds, trace.segments[0].kinds)

    def test_text_accepts_kind_words_and_comments(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# fixture\nload 0x40\nSTORE 80\nifetch 0xc0\n")
        trace = read_text_trace(path)
        assert trace.segments[0].kinds.tolist() == [1, 2, 0]

    def test_text_bad_line_is_named(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("load 0x40\nbogus\n")
        with pytest.raises(ParseError, match="line 2") as raised:
            read_text_trace(path)
        assert str(raised.value) == f"{path}: line 2: expected 'kind address', got 'bogus'"

    def test_text_address_beyond_64_bits_is_named(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("load 0x40\nload 0x10000000000000000\n")
        with pytest.raises(ParseError, match="line 2"):
            read_text_trace(path)

    def test_text_bad_line_past_the_first_block_is_named(self, tmp_path):
        path = tmp_path / "trace.txt"
        lines = [f"I {64 * i:#x}\n" for i in range(30_000)]
        path.write_text("".join(lines) + "bogus\n" + "".join(lines[:100]))
        assert path.stat().st_size > cachesim._TEXT_BLOCK
        with pytest.raises(ParseError, match="line 30001: ") as raised:
            read_text_trace(path)
        with pytest.raises(ParseError) as reference:
            reference_read_text_trace(path)
        assert str(raised.value) == str(reference.value)

    @pytest.mark.parametrize("text", ["", "# only\n\n  # comments\n", "\n\n"])
    def test_text_without_accesses_rejected(self, tmp_path, text):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match="has no accesses"):
            read_text_trace(path)

    def test_written_trace_takes_the_block_path(self, tmp_path):
        addresses = [0, 1, 0xABC, 2**63, 2**64 - 1, 0x10661A89]
        trace = AccessTrace.single(addresses, [0, 1, 2, 0, 1, 2])
        path = tmp_path / "trace.txt"
        write_text_trace(trace, path)
        with mock.patch.object(cachesim, "_line_access", side_effect=AssertionError):
            block = _block_accesses(path.read_text(), 1, path)
        assert block[0].tolist() == addresses
        assert block[1].tolist() == [0, 1, 2, 0, 1, 2]

    @pytest.mark.parametrize("bad", [None, "L 0xzz"])
    def test_comment_in_every_block_parses_only_the_comments(self, tmp_path, bad):
        # a header, then a comment about every 300 lines: every 4096-character
        # block of the reader holds one or two lines not of the form
        rng = np.random.default_rng(37)
        lines = [f"{'ILS'[k]} {a:#x}\n" for k, a in zip(
            rng.integers(0, 3, size=3000).tolist(), rng.integers(0, 2**40, size=3000).tolist())]
        for at in range(2900, 0, -300):
            lines.insert(at, f"# comment {at}\n")
        lines.insert(0, "# header\n")
        if bad is not None:
            lines.insert(2000, bad + "\n")
        path = tmp_path / "trace.txt"
        path.write_text("".join(lines))
        with mock.patch.object(cachesim, "_TEXT_BLOCK", 4096), \
                mock.patch.object(cachesim, "_line_access",
                                  wraps=cachesim._line_access) as parsed:
            result = _read_or_error(read_text_trace, path)
        assert result == _read_or_error(reference_read_text_trace, path)
        others = [line for line in lines if not line.startswith(("I 0x", "L 0x", "S 0x"))]
        if bad is None:
            assert len(result[0]) == 3000
            assert parsed.call_count == len(others) == 11
        else:
            assert result.startswith(f"{path}: line 2001: ")
            assert parsed.call_count <= len(others)

    def test_binary_roundtrip_with_sidecar(self, tmp_path):
        trace = AccessTrace(segments=(
            segment([1, 2, 3], weight=0.25),
            segment([4, 5], weight=0.75),
        ))
        bin_path = tmp_path / "trace.bin"
        sidecar = tmp_path / "trace.json"
        write_binary_trace(trace, bin_path, sidecar)
        loaded = read_binary_trace(bin_path, sidecar)
        assert len(loaded.segments) == 2
        assert loaded.segments[0].weight == 0.25
        assert np.array_equal(loaded.segments[1].addresses, trace.segments[1].addresses)

    def test_binary_without_sidecar_is_single_segment(self, tmp_path):
        trace = AccessTrace(segments=(segment([1, 2], weight=0.5), segment([3], weight=0.5)))
        bin_path = tmp_path / "trace.bin"
        write_binary_trace(trace, bin_path)
        loaded = read_binary_trace(bin_path)
        assert len(loaded.segments) == 1
        assert loaded.segments[0].weight == 1.0
        assert len(loaded.segments[0]) == 3

    def test_partial_record_rejected(self, tmp_path):
        bin_path = tmp_path / "trace.bin"
        write_binary_trace(AccessTrace.single([1], [1]), bin_path)
        with open(bin_path, "ab") as fh:
            fh.write(b"\0\0\0")  # 12 bytes: one 9-byte record and 3 stray bytes
        with pytest.raises(DataError, match="whole number of records"):
            read_binary_trace(bin_path)

    def test_bad_sidecar_rejected(self, tmp_path):
        trace = AccessTrace.single([1, 2, 3], [1, 1, 1])
        bin_path = tmp_path / "trace.bin"
        write_binary_trace(trace, bin_path)
        sidecar = tmp_path / "bad.json"
        sidecar.write_text(json.dumps({"segments": [{"begin": 0, "end": 9, "weight": 1.0}]}))
        with pytest.raises(DataError, match="out of"):
            read_binary_trace(bin_path, sidecar)

    def test_skip_drops_prefix_and_renormalizes(self):
        trace = AccessTrace(segments=(
            segment([1, 2], weight=0.5), segment([3, 4], weight=0.5),
        ))
        skipped = skip_accesses(trace, 3)
        assert len(skipped.segments) == 1
        assert skipped.segments[0].weight == 1.0
        assert skipped.segments[0].addresses.tolist() == [4 * 64]

    def test_skip_everything_rejected(self):
        trace = AccessTrace.single([1], [1])
        with pytest.raises(DataError, match="whole trace"):
            skip_accesses(trace, 5)

    def test_curve_csv_roundtrip(self, tmp_path):
        curve = MissRatioCurve(
            points=(CurvePoint(16 * KIB, 0.5), CurvePoint(32 * KIB, 0.25)),
            kind=CurveKind.UNIFIED,
        )
        path = tmp_path / "curve.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_curve_csv(curve, fh)
        loaded = read_curve_csv(path)
        assert [p.capacity_bytes for p in loaded.points] == [16 * KIB, 32 * KIB]
        assert loaded.points[0].miss_ratio == 0.5


# --- the block reader against the line-by-line reference ----------------------------

_HEX_DIGITS = "0123456789abcdefABCDEF"
# lines of the form the block reader converts with numpy
_FORM_LINES = st.builds(
    lambda kind, x, digits: f"{kind} 0{x}{digits}",
    st.sampled_from("iIlLsS"), st.sampled_from("xX"),
    st.text(_HEX_DIGITS, min_size=1, max_size=16),
)
# lines of other shapes, which only the line loop reads, and the largest addresses
_OTHER_LINES = st.sampled_from([
    "# a comment", "I 0x40  # a trailing comment", "", "   ", "\tL\t0x80\t",
    "load 0x40", "STORE 0XfF", "ifetch 1234", "Instr 0x1", "read abc", "Write 0x0",
    "L 40", "s deadbeef", "I 0x0000000000000000040", "L 0x00000000000000000ffffffffffffffff",
    "S 0xffffffffffffffff", "S 0XFFFFFFFFFFFFFFFF", "L 0x4_0", "I 0x\u0664\u0660",
    "L 0x40\u2028", "S\x0b0x40", "I 0x40\x85", "I\t0x40",
])
_BAD_LINES = st.sampled_from([
    "bogus", "Q 0x40", "I 0xzz", "I 0x10000000000000000", "L 0x40 0x80", "S -0x40",
    "\ufeffI 0x40", "I 0x", "i0x40", "I 0z40", "I 1x40", "L;0x40", "S 0x4g",
])


def _edited(line: str, at: int, char: str, removed: int) -> str:
    at %= len(line)
    return line[:at] + char + line[at + removed:]


# lines one step from the form, which either reader may accept or reject: a
# form line with one character inserted, deleted or replaced, or one with 17
# to 20 digits
_NEAR_FORM_LINES = st.one_of(
    st.builds(_edited, _FORM_LINES, st.integers(0, 19),
              st.sampled_from(["", *"Qq#;zgX \t0x_-+1aF\u00e9\r"]), st.integers(0, 1)),
    st.builds(lambda kind, digits: f"{kind} 0x{digits}",
              st.sampled_from("iIlLsS"), st.text(_HEX_DIGITS, min_size=17, max_size=20)),
)
_NEWLINES = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def _trace_texts(draw):
    lines = draw(st.lists(
        st.one_of(_FORM_LINES, _FORM_LINES, _FORM_LINES, _OTHER_LINES, _NEAR_FORM_LINES),
        max_size=40))
    bad = draw(st.none() | _BAD_LINES)
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad)
    text = "".join(line + draw(_NEWLINES) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # a last line without a newline
    return text


def _read_or_error(reader, path):
    try:
        segment = reader(path).segments[0]
    except ParseError as exc:
        return str(exc)
    return segment.addresses.tolist(), segment.kinds.tolist()


class TestTextBlocksMatchReference:
    @settings(max_examples=500, deadline=None)
    @given(text=_trace_texts(), block=st.integers(1, 48))
    def test_same_accesses_or_same_error(self, text, block):
        """Blocks of a few dozen characters split lines across block boundaries;
        the reader must give the reference's arrays or its error message."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.txt"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(cachesim, "_TEXT_BLOCK", block):
                result = _read_or_error(read_text_trace, path)
            assert result == _read_or_error(reference_read_text_trace, path)
