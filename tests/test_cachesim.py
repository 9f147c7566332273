"""LRU simulation, the reuse-distance oracle, capacity sweeps, footprints."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        with pytest.raises(DataError, match="no accesses"):
            simulate_segment(seg, config, kinds=frozenset({AccessKind.IFETCH}))

    def test_miss_count_exact_cold_when_working_set_fits(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 128, size=5000)
        config = CacheConfig(capacity_bytes=64 * KIB, associativity=None)  # 1024 lines
        result = simulate_segment(segment(lines), config)
        assert result.misses == len(np.unique(lines))


class TestOracleEquivalence:
    @pytest.mark.parametrize("associativity", [None, 8])
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
        curve = sweep_capacities(AccessTrace(segments=(seg,)), sizes, template)
        for point, size in zip(curve.points, sorted(sizes)):
            config = replace(template, capacity_bytes=size)
            expected = stack_distance_oracle(seg, config.capacity_lines, config.set_count)
            assert simulate_segment(seg, config).misses == expected
            assert point.miss_ratio == expected / len(seg)

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
        result = simulate(lines, distinct, CacheConfig(capacity_bytes=256 * 64, associativity=4))
        assert result == SimResult(accesses=5000, misses=256, miss_ratio=256 / 5000)


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

        def counting(lines, distinct, config):
            calls.append((lines.size, config.capacity_bytes))
            return simulate(lines, distinct, config)

        with mock.patch.object(cachesim, "simulate", counting):
            sweep_capacities(trace, sizes, CacheConfig(capacity_bytes=4 * KIB), kinds)
        # segment 0 keeps its 150 loads and stores, segment 1 all 300 loads
        assert calls == [(n, size) for n in (150, 300) for size in sorted(sizes)]

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
        with pytest.raises(ParseError, match="line 2"):
            read_text_trace(path)

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
            block = _block_accesses(path.read_text(), 1)
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
            assert result.startswith("line 2001: ")
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
