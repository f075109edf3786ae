"""Classical recursive window cover: the oracle for the Hilbert cover sweep.

Each quadrant is tested against the window in unit-square coordinates and
each emitted quadrant's HC range comes from a classical per-level encode of
its corner cell, so nothing here shares code with
:meth:`HilbertCurve.covers_for_rects_flat` -- no threaded curve state, no
composed descendant tables, no leaf run tables, no batched coalescing.
"""

from __future__ import annotations

from repro.spatial.hilbert import coalesce_to_limit, merge_ranges


def classical_cover(curve, rect, max_ranges=64, max_depth=None):
    """Cover of a clipped ``rect`` by recursive quadrant decomposition.

    A quadrant that misses the window is dropped, one inside it (or at the
    depth budget, or a single cell) contributes its whole HC range, and any
    other quadrant recurses into its four children.  ``max_depth`` has
    :meth:`HilbertCurve.ranges_for_rect`'s meaning: ``min(order, 8)`` when
    omitted, otherwise clamped to ``[1, order]``.
    """
    if max_depth is None:
        max_depth = min(curve.order, 8)
    max_depth = max(1, min(max_depth, curve.order))
    reference = []

    def visit(cx, cy, level):
        size = 1 << (curve.order - level)
        quad = curve.cell_rect(cx, cy).expanded(
            curve.cell_rect(cx + size - 1, cy + size - 1)
        )
        if not quad.intersects(rect):
            return
        cells = size * size
        if rect.contains_rect(quad) or level >= max_depth or size == 1:
            hc = curve.encode_classical(cx, cy)
            start = (hc // cells) * cells
            reference.append((start, start + cells - 1))
            return
        half = size // 2
        visit(cx, cy, level + 1)
        visit(cx + half, cy, level + 1)
        visit(cx, cy + half, level + 1)
        visit(cx + half, cy + half, level + 1)

    visit(0, 0, 0)
    return coalesce_to_limit(merge_ranges(reference), max_ranges)
