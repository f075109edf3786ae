"""Unit and property tests for the Hilbert curve utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.geometry import Point, Rect
from repro.spatial.hilbert import (
    HilbertCurve,
    coalesce_to_limit,
    merge_ranges,
    order_for_points,
    ranges_contain,
    subtract_range,
    total_length,
)

from cover_reference import classical_cover


class TestEncodeDecode:
    def test_paper_running_example_value(self):
        # Figure 2 of the paper: on an order-3 curve, point (1, 1) has HC value 2.
        curve = HilbertCurve(3)
        assert curve.encode(1, 1) == 2

    def test_order_one_curve(self):
        curve = HilbertCurve(1)
        values = {curve.encode(x, y) for x in range(2) for y in range(2)}
        assert values == {0, 1, 2, 3}

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            HilbertCurve(0)
        with pytest.raises(ValueError):
            HilbertCurve(32)

    def test_encode_out_of_range(self):
        curve = HilbertCurve(2)
        with pytest.raises(ValueError):
            curve.encode(4, 0)

    def test_decode_out_of_range(self):
        curve = HilbertCurve(2)
        with pytest.raises(ValueError):
            curve.decode(16)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_bijection_exhaustive_small_orders(self, order):
        curve = HilbertCurve(order)
        seen = set()
        for x in range(curve.side):
            for y in range(curve.side):
                d = curve.encode(x, y)
                assert curve.decode(d) == (x, y)
                seen.add(d)
        assert seen == set(range(curve.max_value))

    @pytest.mark.parametrize("order", [3, 6])
    def test_curve_adjacency(self, order):
        """Consecutive HC values map to grid cells that are 4-neighbours."""
        curve = HilbertCurve(order)
        prev = curve.decode(0)
        for d in range(1, curve.max_value):
            cur = curve.decode(d)
            assert abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]) == 1
            prev = cur

    @given(st.integers(min_value=6, max_value=16), st.data())
    @settings(max_examples=60)
    def test_bijection_random_large_orders(self, order, data):
        curve = HilbertCurve(order)
        x = data.draw(st.integers(min_value=0, max_value=curve.side - 1))
        y = data.draw(st.integers(min_value=0, max_value=curve.side - 1))
        assert curve.decode(curve.encode(x, y)) == (x, y)


class TestCoordinateMapping:
    def test_value_of_clamps_border(self):
        curve = HilbertCurve(4)
        assert 0 <= curve.value_of(Point(1.0, 1.0)) < curve.max_value

    def test_representative_point_round_trip(self):
        curve = HilbertCurve(6)
        for d in (0, 17, 1000, curve.max_value - 1):
            p = curve.representative_point(d)
            assert curve.value_of(p) == d

    def test_cell_rect_contains_representative(self):
        curve = HilbertCurve(5)
        x, y = curve.decode(123)
        assert curve.cell_rect(x, y).contains_point(curve.representative_point(123))

    def test_cell_diagonal(self):
        curve = HilbertCurve(3)
        assert curve.cell_diagonal() == pytest.approx((2 ** 0.5) / 8)


class TestWindowCover:
    def test_full_space_cover(self):
        curve = HilbertCurve(4)
        ranges = curve.ranges_for_rect(Rect.unit())
        assert total_length(ranges) == curve.max_value

    def test_cover_is_superset_of_window_cells(self):
        curve = HilbertCurve(5)
        window = Rect(0.3, 0.2, 0.61, 0.55)
        ranges = curve.ranges_for_rect(window, max_depth=5)
        for x in range(curve.side):
            for y in range(curve.side):
                if window.intersects(curve.cell_rect(x, y)):
                    assert ranges_contain(ranges, curve.encode(x, y))

    def test_max_ranges_respected(self):
        curve = HilbertCurve(8)
        ranges = curve.ranges_for_rect(Rect(0.1, 0.1, 0.9, 0.12), max_ranges=10)
        assert 1 <= len(ranges) <= 10

    def test_degenerate_window(self):
        curve = HilbertCurve(6)
        ranges = curve.ranges_for_rect(Rect(0.5, 0.5, 0.5, 0.5))
        assert len(ranges) >= 1
        assert ranges_contain(ranges, curve.value_of(Point(0.5, 0.5)))

    def test_circle_cover_contains_center(self):
        curve = HilbertCurve(7)
        center = Point(0.42, 0.77)
        ranges = curve.ranges_for_circle(center, 0.05)
        assert ranges_contain(ranges, curve.value_of(center))

    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.01, max_value=0.3),
    )
    @settings(max_examples=40)
    def test_cover_contains_every_point_value(self, x, y, size):
        curve = HilbertCurve(6)
        window = Rect(x, y, min(1.0, x + size), min(1.0, y + size))
        ranges = curve.ranges_for_rect(window)
        # Any point inside the window must have its HC value covered.
        probe = Point(
            (window.min_x + window.max_x) / 2, (window.min_y + window.max_y) / 2
        )
        assert ranges_contain(ranges, curve.value_of(probe))


class TestRangeHelpers:
    def test_merge_ranges(self):
        assert merge_ranges([(5, 9), (0, 3), (4, 6)]) == [(0, 9)]
        assert merge_ranges([(0, 1), (3, 4)]) == [(0, 1), (3, 4)]
        assert merge_ranges([]) == []

    def test_coalesce_to_limit(self):
        ranges = [(0, 1), (10, 11), (12, 13), (100, 101)]
        out = coalesce_to_limit(merge_ranges(ranges), 2)
        assert len(out) == 2
        for lo, hi in ranges:
            assert ranges_contain(out, lo) and ranges_contain(out, hi)

    def test_coalesce_invalid_limit(self):
        with pytest.raises(ValueError):
            coalesce_to_limit([(0, 1)], 0)

    def test_subtract_range_middle(self):
        assert subtract_range([(0, 10)], 3, 5) == [(0, 2), (6, 10)]

    def test_subtract_range_disjoint(self):
        assert subtract_range([(0, 10)], 20, 30) == [(0, 10)]

    def test_subtract_range_everything(self):
        assert subtract_range([(3, 7), (9, 12)], 0, 100) == []

    def test_subtract_empty_interval(self):
        assert subtract_range([(0, 5)], 7, 6) == [(0, 5)]

    def test_total_length(self):
        assert total_length([(0, 4), (10, 10)]) == 6

    def test_ranges_contain(self):
        assert ranges_contain([(2, 4)], 3)
        assert not ranges_contain([(2, 4)], 5)

    def test_order_for_points(self):
        assert order_for_points(1) >= 1
        assert order_for_points(10_000) <= 31
        with pytest.raises(ValueError):
            order_for_points(0)

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=20))
    def test_merge_preserves_membership(self, raw):
        ranges = [(min(a, b), max(a, b)) for a, b in raw]
        merged = merge_ranges(ranges)
        for lo, hi in ranges:
            assert ranges_contain(merged, lo) and ranges_contain(merged, hi)
        # Merged ranges are sorted and disjoint.
        for (l1, h1), (l2, h2) in zip(merged, merged[1:]):
            assert h1 + 1 < l2


class TestBatchedCovers:
    """The one cover sweep, batched or one rect at a time, equals the
    classical recursive cover."""

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 10])
    def test_flat_matches_scalar_per_rect(self, order):
        """The batched call and the scalar entry, rect by rect, both equal
        the classical cover."""
        rng = np.random.default_rng(order)
        n = 60
        x0 = rng.uniform(0.0, 1.0, n)
        y0 = rng.uniform(0.0, 1.0, n)
        # Widths may push past the unit square; clipping keeps the border
        # paths hot.
        w = rng.uniform(0.0, 0.4, n)
        h = rng.uniform(0.0, 0.4, n)
        rects = [
            Rect(x0[i], y0[i], x0[i] + w[i], y0[i] + h[i]).clipped_to_unit()
            for i in range(n)
        ]
        for max_ranges, max_depth in ((64, None), (6, None), (64, 2)):
            curve = HilbertCurve(order)
            expected = [
                classical_cover(curve, r, max_ranges=max_ranges, max_depth=max_depth)
                for r in rects
            ]
            counts, los, his = curve.covers_for_rects_flat(
                np.array([r.min_x for r in rects]),
                np.array([r.min_y for r in rects]),
                np.array([r.max_x for r in rects]),
                np.array([r.max_y for r in rects]),
                max_ranges=max_ranges, max_depth=max_depth,
            )
            cuts = np.concatenate(([0], np.cumsum(counts)))
            flat = [
                list(zip(los[cuts[i]: cuts[i + 1]].tolist(),
                         his[cuts[i]: cuts[i + 1]].tolist()))
                for i in range(n)
            ]
            assert flat == expected
            # The flat sweep does not touch the memo, so every rect below
            # is a miss swept on its own.
            assert curve._cover_cache == {}
            one_by_one = [
                curve.ranges_for_rect(r, max_ranges=max_ranges, max_depth=max_depth)
                for r in rects
            ]
            assert one_by_one == expected

    def test_memo_hit_equals_miss(self, monkeypatch):
        curve = HilbertCurve(6)
        rect = Rect(0.21, 0.33, 0.58, 0.71)
        miss = curve.ranges_for_rect(rect)
        assert miss == classical_cover(curve, rect)

        def no_sweep(*args, **kwargs):
            raise AssertionError("a memo hit must not sweep")

        monkeypatch.setattr(curve, "covers_for_rects_flat", no_sweep)
        hit = curve.ranges_for_rect(rect)
        assert hit == miss
        # Callers own the lists they get: mutating one changes neither the
        # memo nor the next result.
        hit.append((0, 0))
        miss.clear()
        assert curve.ranges_for_rect(rect) == classical_cover(curve, rect)

    def test_degenerate_rows_stay_empty(self):
        curve = HilbertCurve(5)
        # Negative-extent rows (a rect clipped away entirely) emit nothing
        # and do not disturb their neighbours.
        counts, los, his = curve.covers_for_rects_flat(
            np.array([0.2, 0.9, 0.4]), np.array([0.2, 0.9, 0.4]),
            np.array([0.3, 0.1, 0.5]), np.array([0.3, 0.1, 0.5]),
        )
        assert counts[1] == 0
        assert counts[0] > 0 and counts[2] > 0

    @pytest.mark.parametrize(
        "rect",
        [
            Rect(1.2, 1.2, 1.5, 1.5),
            Rect(-0.5, 0.2, -0.1, 0.4),
            Rect(0.2, -0.5, 0.4, -1e-9),
            Rect(0.3, 1.0 + 1e-9, 0.6, 2.0),
        ],
    )
    def test_window_outside_the_space_covers_nothing(self, rect):
        assert HilbertCurve(6).ranges_for_rect(rect) == []

    def test_window_touching_the_border_covers_its_cells(self):
        curve = HilbertCurve(4)
        rect = Rect(1.0, 0.5, 1.5, 0.75)
        got = curve.ranges_for_rect(rect)
        assert got == classical_cover(curve, rect.clipped_to_unit())
        assert ranges_contain(got, curve.value_of(Point(1.0, 0.6)))

    @pytest.mark.parametrize("max_ranges", [0, -1])
    def test_max_ranges_below_one_rejected(self, max_ranges):
        curve = HilbertCurve(5)
        with pytest.raises(ValueError, match="max_ranges"):
            curve.ranges_for_rect(Rect(0.1, 0.1, 0.6, 0.6), max_ranges=max_ranges)
        with pytest.raises(ValueError, match="max_ranges"):
            curve.covers_for_rects_flat(
                np.array([0.1]), np.array([0.1]), np.array([0.6]),
                np.array([0.6]), max_ranges=max_ranges,
            )
