"""Property-based tests: batch Hilbert paths and schedule equivalence.

Hypothesis drives two families of invariants the PR 3 refactor leans on:

* the vectorised Hilbert batch APIs (``encode_many`` / ``decode_many`` /
  ``values_of``) agree with the classical per-level reference loop across
  random bit-depths (curve orders) and random inputs;
* an N=1 :class:`BroadcastSchedule` reproduces the legacy single-channel
  cycle packet for packet, both through the identity ``view()`` and through
  a forced :class:`ScheduleView`, and striped schedules preserve the bucket
  multiset exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.broadcast import (
    BroadcastProgram,
    BroadcastSchedule,
    Bucket,
    BucketKind,
    ScheduleView,
)
from repro.spatial.geometry import Point
from repro.spatial.hilbert import HilbertCurve

_SETTINGS = dict(max_examples=40, deadline=None)

# curves are module-level so hypothesis examples share them (construction
# builds chunk schedules; the tables themselves are global)
_CURVES = {}


def curve_of(order: int) -> HilbertCurve:
    if order not in _CURVES:
        _CURVES[order] = HilbertCurve(order)
    return _CURVES[order]


class TestHilbertBatchProperties:
    @given(
        order=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    @settings(**_SETTINGS)
    def test_encode_many_matches_classical_loop(self, order, data):
        curve = curve_of(order)
        n = data.draw(st.integers(min_value=0, max_value=64))
        cells = st.integers(min_value=0, max_value=curve.side - 1)
        xs = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.int64)
        ys = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.int64)
        batch = curve.encode_many(xs, ys)
        reference = [curve.encode_classical(int(x), int(y)) for x, y in zip(xs, ys)]
        assert batch.tolist() == reference

    @given(
        order=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    @settings(**_SETTINGS)
    def test_decode_many_roundtrips_classical(self, order, data):
        curve = curve_of(order)
        n = data.draw(st.integers(min_value=0, max_value=64))
        ds = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=curve.max_value - 1),
                    min_size=n, max_size=n,
                )
            ),
            dtype=np.int64,
        )
        xs, ys = curve.decode_many(ds)
        reference = [curve.decode_classical(int(d)) for d in ds]
        assert list(zip(xs.tolist(), ys.tolist())) == reference
        # and the batch inverse closes the loop
        assert curve.encode_many(xs, ys).tolist() == ds.tolist()

    @given(
        order=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(**_SETTINGS)
    def test_values_of_matches_scalar_value_of(self, order, data):
        curve = curve_of(order)
        n = data.draw(st.integers(min_value=0, max_value=32))
        unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=False,
                         allow_nan=False, allow_infinity=False)
        points = [
            Point(data.draw(unit), data.draw(unit)) for _ in range(n)
        ]
        batch = curve.values_of(points)
        assert batch.tolist() == [curve.value_of(p) for p in points]


def programs(draw) -> BroadcastProgram:
    """A random broadcast program with at least one navigation bucket."""
    kinds = st.sampled_from(
        [
            BucketKind.DSI_TABLE,
            BucketKind.DSI_DIRECTORY,
            BucketKind.DATA,
            BucketKind.TREE_NODE,
            BucketKind.CONTROL,
        ]
    )
    n = draw(st.integers(min_value=1, max_value=40))
    buckets = [
        Bucket(draw(kinds), draw(st.integers(min_value=1, max_value=9)), payload=i)
        for i in range(n)
    ]
    return BroadcastProgram(buckets, name="prop")


class TestScheduleProperties:
    @given(data=st.data())
    @settings(**_SETTINGS)
    def test_single_schedule_is_packet_identical(self, data):
        program = programs(data.draw)
        schedule = BroadcastSchedule.single(program)
        assert schedule.view() is program  # the identity fast path

        view = ScheduleView(schedule)  # and the generic machinery agrees
        cycle = program.cycle_packets
        positions = data.draw(
            st.lists(st.integers(min_value=0, max_value=3 * cycle), min_size=1, max_size=8)
        )
        for position in positions:
            assert view.next_bucket_after(position) == program.next_bucket_after(position)
            for kind in Counter(b.kind for b in program.buckets):
                assert view.next_occurrence_of_kind(kind, position) == \
                    program.next_occurrence_of_kind(kind, position)
            bucket = data.draw(st.integers(min_value=0, max_value=len(program) - 1))
            assert view.next_occurrence(bucket, position) == \
                program.next_occurrence(bucket, position)

    @given(data=st.data())
    @settings(**_SETTINGS)
    def test_striped_schedule_preserves_bucket_multiset(self, data):
        program = programs(data.draw)
        has_nav = any(b.kind.is_navigation for b in program)
        n_data = sum(1 for b in program if not b.kind.is_navigation)
        if not has_nav or n_data == 0:
            return  # striping is defined only for mixed programs
        k = data.draw(st.integers(min_value=1, max_value=min(4, n_data)))
        schedule = BroadcastSchedule.striped(program, data_channels=k)
        seen = sorted(g for ch in schedule.channels for g in ch.global_ids)
        assert seen == list(range(len(program)))
        # per-kind packet totals survive the split
        merged = Counter()
        for ch in schedule.channels:
            for b in ch.program.buckets:
                merged[b.kind] += b.n_packets
        whole = Counter()
        for b in program.buckets:
            whole[b.kind] += b.n_packets
        assert merged == whole
        # every channel airs something and cycles are consistent
        assert all(ch.cycle_packets > 0 for ch in schedule.channels)
        assert schedule.cycle_packets == max(ch.cycle_packets for ch in schedule.channels)
