"""Hilbert space-filling curve utilities.

DSI and HCI both broadcast data objects in the order of their Hilbert curve
(HC) values (paper Section 2.1 and 3.1).  This module provides:

* :class:`HilbertCurve` -- integer encode/decode of arbitrary order plus the
  mapping from unit-square coordinates to curve values;
* :func:`HilbertCurve.ranges_for_rect` -- a conservative cover of a query
  window by contiguous HC ranges ("target segments" in paper Algorithm 1),
  memoised per curve; it is the one-rect case of
  :meth:`HilbertCurve.covers_for_rects_flat`, the one quadtree sweep that
  computes every cover, batched over many rects at once;
* :func:`HilbertCurve.representative_point` -- the cell centre of an HC
  value, used by the kNN algorithms when an index table only reveals an HC
  value (``o'_i`` in paper Algorithm 2).

Two implementations of the encode/decode pair coexist:

* :meth:`HilbertCurve.encode_classical` / :meth:`decode_classical` -- the
  classical iterative algorithm (rotate/reflect per level), kept as the
  reference implementation;
* :meth:`HilbertCurve.encode` / :meth:`decode` -- a table-driven fast path
  that consumes up to four levels (one byte of interleaved coordinate bits)
  per step through precomputed state-transition tables, plus the vectorised
  batch APIs :meth:`encode_many` / :meth:`decode_many` / :meth:`values_of`
  built on the same tables.

The fast path exploits the fact that the classical per-level rotations form
a four-element group: every reachable transform of a sub-square is one of
*identity*, *transpose* (swap x/y), *anti-transpose* (swap and complement)
or *point reflection* (complement both), and composition of transforms is
XOR on the state number.  Tests cross-check the table-driven path against
the classical loop exhaustively for small orders and randomly for large
ones.  No third-party dependency is used.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..purity import pure_mode
from .geometry import Point, Rect

# A target segment: a half-open range [lo, hi] of HC values, inclusive on
# both ends (matching the paper's segment notation [H_{2i-1}, H_{2i}]).
HCRange = Tuple[int, int]


def _rotate(n: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip a quadrant appropriately (helper of the classical pair)."""
    if ry == 0:
        if rx == 1:
            x = n - 1 - x
            y = n - 1 - y
        x, y = y, x
    return x, y


# ---------------------------------------------------------------------------
# Table-driven fast path
# ---------------------------------------------------------------------------
#
# State numbering: 0 = identity, 1 = transpose, 2 = anti-transpose,
# 3 = point reflection.  A state maps the *raw* top bits (a, b) of the
# remaining (x, y) suffix to the transformed bits (rx, ry) the classical
# algorithm would extract:
#
#   0: (a, b)      1: (b, a)      2: (1-b, 1-a)      3: (1-a, 1-b)
#
# The per-level transform chosen by the classical algorithm is ``identity``
# for ry = 1, ``transpose`` for (rx, ry) = (0, 0) and ``anti-transpose`` for
# (rx, ry) = (1, 0); composing it onto the current state is XOR of the state
# numbers (the group is isomorphic to the Klein four-group).

_MAX_CHUNK = 4  # levels consumed per table step (one byte of key bits)


def _step_bits(t: int, a: int, b: int) -> Tuple[int, int]:
    """Transformed bit pair for raw bits (a, b) under state ``t``."""
    if t == 0:
        return a, b
    if t == 1:
        return b, a
    if t == 2:
        return 1 - b, 1 - a
    return 1 - a, 1 - b


def _level_transform(rx: int, ry: int) -> int:
    """State of the transform the classical algorithm applies at one level."""
    if ry == 1:
        return 0
    return 2 if rx == 1 else 1


def _build_tables() -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Precompute chunked encode/decode transition tables.

    ``enc[k][(t << 2k) | (xbits << k) | ybits]`` packs ``(digits << 2) |
    next_state`` for a ``k``-level chunk consumed in state ``t``; ``dec`` is
    the inverse direction, keyed by the digit chunk.
    """
    enc: List[np.ndarray] = [np.empty(0, dtype=np.int64)]  # index 0 unused
    dec: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for k in range(1, _MAX_CHUNK + 1):
        n_keys = 1 << (2 * k)
        enc_k = np.empty(4 * n_keys, dtype=np.int64)
        dec_k = np.empty(4 * n_keys, dtype=np.int64)
        for t0 in range(4):
            for key in range(n_keys):
                xbits, ybits = key >> k, key & ((1 << k) - 1)
                t, d = t0, 0
                for i in range(k - 1, -1, -1):
                    rx, ry = _step_bits(t, (xbits >> i) & 1, (ybits >> i) & 1)
                    d = (d << 2) | (rx << 1) | (rx ^ ry)
                    t ^= _level_transform(rx, ry)
                enc_k[(t0 << (2 * k)) | key] = (d << 2) | t
            for chunk in range(n_keys):
                t, xbits, ybits = t0, 0, 0
                for i in range(k - 1, -1, -1):
                    digit = (chunk >> (2 * i)) & 3
                    rx = digit >> 1
                    ry = rx ^ (digit & 1)
                    # States are involutions, so the inverse transform is the
                    # transform itself.
                    a, b = _step_bits(t, rx, ry)
                    xbits = (xbits << 1) | a
                    ybits = (ybits << 1) | b
                    t ^= _level_transform(rx, ry)
                dec_k[(t0 << (2 * k)) | chunk] = (((xbits << k) | ybits) << 2) | t
        enc.append(enc_k)
        dec.append(dec_k)
    return enc, dec


_ENC_TABLES, _DEC_TABLES = _build_tables()
# Plain-list copies: scalar indexing of a Python list is much faster than
# scalar indexing of a numpy array.
_ENC_LISTS = [t.tolist() for t in _ENC_TABLES]
_DEC_LISTS = [t.tolist() for t in _DEC_TABLES]

# Per-state child schedule of the quadtree cover recursion: for each curve
# state the four child quadrants in Hilbert-digit order, as
# ``(digit, x_offset_bit, y_offset_bit, child_state)``.
_CHILD_STEPS: Tuple[Tuple[Tuple[int, int, int, int], ...], ...] = tuple(
    tuple(
        (digit, *_step_bits(t, digit >> 1, (digit >> 1) ^ (digit & 1)),
         t ^ _level_transform(digit >> 1, (digit >> 1) ^ (digit & 1)))
        for digit in range(4)
    )
    for t in range(4)
)

#: Entries kept per curve in the window-cover memo before it is reset.
_COVER_CACHE_MAX = 8192

#: The window cover setting, shared by the DSI and HCI window planners, the
#: fleet kernel and HCI kNN's search box: at most this many ranges, from a
#: quadtree at most this deep (clamped to the curve order).  kNN circle
#: covers take the sweep's defaults.
WINDOW_MAX_RANGES = 96
WINDOW_MAX_DEPTH = 10

# Array form of the child schedule for the level-wise cover sweep: offsets
# and child states indexed by parent state, children in Hilbert-digit order
# (the digits themselves are always 0..3 ascending).
_CHILD_A = np.array([[c[1] for c in state] for state in _CHILD_STEPS], dtype=np.int64)
_CHILD_B = np.array([[c[2] for c in state] for state in _CHILD_STEPS], dtype=np.int64)
_CHILD_T = np.array([[c[3] for c in state] for state in _CHILD_STEPS], dtype=np.int64)

#: Deepest multi-level step the cover sweep takes at once (64 descendants).
_MAX_STEP = 3


def _compose_step_tables():
    """Descendant tables for multi-level cover steps.

    ``A[k][t]`` / ``B[k][t]`` are the cell offsets (in units of the
    descendant quadrant side) and ``T[k][t]`` the curve states of the
    ``4**k`` level-``k`` descendants of a quadrant in state ``t``, in
    Hilbert-digit order.  Composed from the one-level schedule, so a
    ``k``-level step expands exactly the quadrants ``k`` single steps
    would.
    """
    A = {1: _CHILD_A}
    B = {1: _CHILD_B}
    T = {1: _CHILD_T}
    for k in range(2, _MAX_STEP + 1):
        ak = np.empty((4, 4 ** k), dtype=np.int64)
        bk = np.empty((4, 4 ** k), dtype=np.int64)
        tk = np.empty((4, 4 ** k), dtype=np.int64)
        block = 4 ** (k - 1)
        for t in range(4):
            for d in range(4):
                child_t = int(_CHILD_T[t, d])
                sl = slice(d * block, (d + 1) * block)
                ak[t, sl] = (int(_CHILD_A[t, d]) << (k - 1)) + A[k - 1][child_t]
                bk[t, sl] = (int(_CHILD_B[t, d]) << (k - 1)) + B[k - 1][child_t]
                tk[t, sl] = T[k - 1][child_t]
        A[k], B[k], T[k] = ak, bk, tk
    return A, B, T


_STEP_A, _STEP_B, _STEP_T = _compose_step_tables()
_STEP_DIGITS = {k: np.arange(4 ** k, dtype=np.int64) for k in range(1, _MAX_STEP + 1)}

#: Lazily built digit-run tables for the batched sweep's leaf stage.
_LEAF_RUNS = {}


def _leaf_run_tables(nlev):
    """Digit runs of rectangular cell masks over a ``2**nlev``-side block.

    For every curve state ``t`` and every quantised overlap pattern
    ``(ax0, ax1, ay0, ay1)`` -- the block-local interval of cell columns
    and rows a rect intersects -- the table lists the maximal runs of
    intersecting Hilbert digits.  The batched sweep emits these runs
    directly instead of expanding the last ``nlev`` levels to individual
    cells: the covered cell set is identical, so the adjacency merge
    produces the identical cover, at a fraction of the frontier traffic.

    Returns ``(counts, run_lo, run_hi)`` indexed by
    ``(((t * w + ax0) * w + ax1) * w + ay0) * w + ay1`` with
    ``w = 2**nlev``; runs of row ``i`` are ``run_lo[i, :counts[i]]`` ..
    ``run_hi[i, :counts[i]]`` in ascending digit order.
    """
    tables = _LEAF_RUNS.get(nlev)
    if tables is None:
        A, B = _STEP_A[nlev], _STEP_B[nlev]  # (4, 4**nlev) cell offsets
        w = 1 << nlev
        p = np.arange(w ** 4, dtype=np.int64)
        ax0 = p // w ** 3
        ax1 = (p // w ** 2) % w
        ay0 = (p // w) % w
        ay1 = p % w
        pa = (A[:, None, :] >= ax0[None, :, None]) & (
            A[:, None, :] <= ax1[None, :, None]
        )
        pb = (B[:, None, :] >= ay0[None, :, None]) & (
            B[:, None, :] <= ay1[None, :, None]
        )
        passes = (pa & pb).reshape(4 * w ** 4, 4 ** nlev)
        starts = passes.copy()
        starts[:, 1:] &= ~passes[:, :-1]
        ends = passes.copy()
        ends[:, :-1] &= ~passes[:, 1:]
        counts = starts.sum(axis=1).astype(np.int64)
        offs = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=offs[1:])
        row_s, dig_s = np.nonzero(starts)
        row_e, dig_e = np.nonzero(ends)
        max_runs = int(counts.max())
        run_lo = np.zeros((len(counts), max_runs), dtype=np.int64)
        run_hi = np.zeros((len(counts), max_runs), dtype=np.int64)
        cols = np.arange(len(row_s), dtype=np.int64) - offs[row_s]
        run_lo[row_s, cols] = dig_s
        run_hi[row_e, cols] = dig_e
        tables = (counts, run_lo, run_hi)
        _LEAF_RUNS[nlev] = tables
    return tables


class HilbertCurve:
    """A 2-D Hilbert curve of a given *order*.

    The grid has ``2**order`` cells per side and curve values range over
    ``[0, 4**order)``.  Order 3 reproduces the paper's running example
    (Figure 2), where point ``(1, 1)`` has HC value 2.
    """

    def __init__(self, order: int) -> None:
        if order < 1:
            raise ValueError("Hilbert curve order must be >= 1")
        if order > 31:
            raise ValueError("Hilbert curve order > 31 is not supported")
        self.order = order
        self.side = 1 << order
        self.max_value = self.side * self.side  # exclusive upper bound
        # Chunk schedule for the table-driven path: the top ``order % 4``
        # levels first (if any), then four levels per step.  Each entry is
        # ``(chunk_levels, bit_shift)`` with shifts decreasing to 0.
        chunks: List[Tuple[int, int]] = []
        remaining = order
        first = order % _MAX_CHUNK
        if first:
            remaining -= first
            chunks.append((first, remaining))
        while remaining:
            remaining -= _MAX_CHUNK
            chunks.append((_MAX_CHUNK, remaining))
        self._chunks: Tuple[Tuple[int, int], ...] = tuple(chunks)
        self._rep_points: Dict[int, Point] = {}
        self._cover_cache: Dict[Tuple[Rect, int, int], List[HCRange]] = {}

    # -- integer grid <-> curve value (classical reference) ------------------

    def encode_classical(self, x: int, y: int) -> int:
        """HC value of grid cell ``(x, y)`` -- classical per-level loop."""
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise ValueError(f"cell ({x}, {y}) outside a {self.side}x{self.side} grid")
        rx = ry = 0
        d = 0
        s = self.side // 2
        while s > 0:
            rx = 1 if (x & s) > 0 else 0
            ry = 1 if (y & s) > 0 else 0
            d += s * s * ((3 * rx) ^ ry)
            x, y = _rotate(s, x, y, rx, ry)
            s //= 2
        return d

    def decode_classical(self, d: int) -> Tuple[int, int]:
        """Grid cell of HC value ``d`` -- classical per-level loop."""
        if not (0 <= d < self.max_value):
            raise ValueError(f"HC value {d} outside [0, {self.max_value})")
        t = d
        x = y = 0
        s = 1
        while s < self.side:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            x, y = _rotate(s, x, y, rx, ry)
            x += s * rx
            y += s * ry
            t //= 4
            s *= 2
        return x, y

    # -- integer grid <-> curve value (table-driven fast path) ----------------

    def encode(self, x: int, y: int) -> int:
        """HC value of integer grid cell ``(x, y)``."""
        if pure_mode():
            return self.encode_classical(x, y)
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise ValueError(f"cell ({x}, {y}) outside a {self.side}x{self.side} grid")
        d = 0
        t = 0
        for k, shift in self._chunks:
            mask = (1 << k) - 1
            table = _ENC_LISTS[k]
            v = table[(t << (2 * k)) | (((x >> shift) & mask) << k) | ((y >> shift) & mask)]
            d = (d << (2 * k)) | (v >> 2)
            t = v & 3
        return d

    def decode(self, d: int) -> Tuple[int, int]:
        """Grid cell of HC value ``d`` (inverse of :meth:`encode`)."""
        if pure_mode():
            return self.decode_classical(d)
        if not (0 <= d < self.max_value):
            raise ValueError(f"HC value {d} outside [0, {self.max_value})")
        x = 0
        y = 0
        t = 0
        for k, shift in self._chunks:
            mask = (1 << (2 * k)) - 1
            table = _DEC_LISTS[k]
            v = table[(t << (2 * k)) | ((d >> (2 * shift)) & mask)]
            cells = v >> 2
            x = (x << k) | (cells >> k)
            y = (y << k) | (cells & ((1 << k) - 1))
            t = v & 3
        return x, y

    # -- batch APIs -----------------------------------------------------------

    def encode_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """HC values of many integer grid cells at once (vectorised).

        ``xs``/``ys`` are equal-length integer array-likes; the result is an
        ``int64`` array matching :meth:`encode` element by element.
        """
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same shape")
        if xs.size and (
            int(xs.min()) < 0
            or int(ys.min()) < 0
            or int(xs.max()) >= self.side
            or int(ys.max()) >= self.side
        ):
            raise ValueError(f"cells outside a {self.side}x{self.side} grid")
        if pure_mode():
            # REPRO_PURE: the classical per-cell loop, element by element.
            return np.fromiter(
                (
                    self.encode_classical(x, y)
                    for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())
                ),
                dtype=np.int64,
                count=xs.size,
            ).reshape(xs.shape)
        d = np.zeros(xs.shape, dtype=np.int64)
        t = np.zeros(xs.shape, dtype=np.int64)
        for k, shift in self._chunks:
            mask = (1 << k) - 1
            v = _ENC_TABLES[k][
                (t << (2 * k)) | (((xs >> shift) & mask) << k) | ((ys >> shift) & mask)
            ]
            d = (d << (2 * k)) | (v >> 2)
            t = v & 3
        return d

    def decode_many(self, ds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grid cells of many HC values at once (inverse of :meth:`encode_many`)."""
        ds = np.asarray(ds, dtype=np.int64)
        if ds.size and (int(ds.min()) < 0 or int(ds.max()) >= self.max_value):
            raise ValueError(f"HC values outside [0, {self.max_value})")
        if pure_mode():
            # REPRO_PURE: the classical per-value loop, element by element.
            cells = [self.decode_classical(d) for d in ds.ravel().tolist()]
            xs = np.fromiter((c[0] for c in cells), dtype=np.int64, count=ds.size)
            ys = np.fromiter((c[1] for c in cells), dtype=np.int64, count=ds.size)
            return xs.reshape(ds.shape), ys.reshape(ds.shape)
        x = np.zeros(ds.shape, dtype=np.int64)
        y = np.zeros(ds.shape, dtype=np.int64)
        t = np.zeros(ds.shape, dtype=np.int64)
        for k, shift in self._chunks:
            mask = (1 << (2 * k)) - 1
            v = _DEC_TABLES[k][(t << (2 * k)) | ((ds >> (2 * shift)) & mask)]
            cells = v >> 2
            x = (x << k) | (cells >> k)
            y = (y << k) | (cells & ((1 << k) - 1))
            t = v & 3
        return x, y

    def cells_of_coords(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grid cells of an ``(N, 2)`` array of unit-square coordinates."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must be an (N, 2) array")
        # Same truncate-and-clamp rule as :meth:`cell_of`.
        cx = np.clip((coords[:, 0] * self.side).astype(np.int64), 0, self.side - 1)
        cy = np.clip((coords[:, 1] * self.side).astype(np.int64), 0, self.side - 1)
        return cx, cy

    def values_of(self, points) -> np.ndarray:
        """HC values of many unit-square points (batch :meth:`value_of`).

        ``points`` is either an ``(N, 2)`` coordinate array or a sequence of
        :class:`Point`.
        """
        if isinstance(points, np.ndarray):
            coords = points
        else:
            coords = np.array([(p.x, p.y) for p in points], dtype=np.float64)
            if coords.size == 0:
                coords = coords.reshape(0, 2)
        cx, cy = self.cells_of_coords(coords)
        return self.encode_many(cx, cy)

    # -- unit-square coordinates <-> curve value -----------------------------

    def cell_of(self, p: Point) -> Tuple[int, int]:
        """Grid cell containing a unit-square point (border points clamp)."""
        cx = min(int(p.x * self.side), self.side - 1)
        cy = min(int(p.y * self.side), self.side - 1)
        return max(cx, 0), max(cy, 0)

    def value_of(self, p: Point) -> int:
        """HC value of a unit-square point."""
        cx, cy = self.cell_of(p)
        return self.encode(cx, cy)

    def cell_rect(self, x: int, y: int) -> Rect:
        """Unit-square rectangle covered by grid cell ``(x, y)``."""
        w = 1.0 / self.side
        return Rect(x * w, y * w, (x + 1) * w, (y + 1) * w)

    def representative_point(self, d: int) -> Point:
        """Centre of the cell with HC value ``d``.

        When a DSI index table only reveals an HC value ``HC'_i``, the kNN
        algorithms treat the object as located at this point (the error is
        at most half a cell diagonal, which is also the guarantee the paper
        implicitly relies on).  Results are memoised per curve: the kNN
        search asks for the same handful of HC values over and over.
        """
        p = self._rep_points.get(d)
        if p is None:
            x, y = self.decode(d)
            w = 1.0 / self.side
            p = Point((x + 0.5) * w, (y + 0.5) * w)
            self._rep_points[d] = p
        return p

    def warm_representative_points(self, ds) -> None:
        """Batch-populate the :meth:`representative_point` memo.

        ``ds`` is an iterable of HC values; the uncached ones are decoded in
        one :meth:`decode_many` batch.  The memoised points are the exact
        objects the scalar path would build (same floats, same identity
        semantics), so callers that loop ``representative_point`` afterwards
        get pure dictionary hits.
        """
        rep = self._rep_points
        missing = [d for d in dict.fromkeys(ds) if d not in rep]
        if not missing:
            return
        xs, ys = self.decode_many(np.asarray(missing, dtype=np.int64))
        w = 1.0 / self.side
        for d, x, y in zip(missing, xs.tolist(), ys.tolist()):
            rep[d] = Point((x + 0.5) * w, (y + 0.5) * w)

    def cell_diagonal(self) -> float:
        """Diagonal length of one grid cell (max representation error)."""
        return math.sqrt(2.0) / self.side

    # -- window -> target segments ------------------------------------------

    def ranges_for_rect(
        self,
        rect: Rect,
        max_ranges: int = 64,
        max_depth: int = None,
    ) -> List[HCRange]:
        """Conservative cover of ``rect`` by contiguous HC ranges.

        The cover is produced by recursive quadrant decomposition: a
        quadrant fully inside the window contributes its whole (contiguous)
        HC range; a partially overlapping quadrant is subdivided until the
        depth budget is exhausted, at which point it is included whole.
        The result is therefore a *superset* of the window's exact target
        segments -- query algorithms always re-check retrieved objects
        against the exact window, so a coarse cover costs tuning time but
        never correctness.

        Ranges are returned sorted, merged and inclusive on both ends.  At
        most ``max_ranges`` ranges are returned (closest gaps are merged
        first when the limit is exceeded).  A window that misses the unit
        square covers nothing; any other window is clipped to it and swept
        as the one-rect case of :meth:`covers_for_rects_flat`.

        Every geometry test of the sweep compares an integer cell
        coordinate against the scaled window bounds, so the cover is a pure
        function of their ceil/floor cell quantisation.  Results are
        memoised per curve on that integer key: paired trials replay the
        same query windows against every index variant, and near-identical
        windows (e.g. the kNN search's slowly shrinking circles) hit the
        same cached cover exactly.
        """
        if (
            rect.min_x > 1.0
            or rect.max_x < 0.0
            or rect.min_y > 1.0
            or rect.max_y < 0.0
        ):
            return []
        rect = rect.clipped_to_unit()
        if max_depth is None:
            max_depth = min(self.order, 8)
        max_depth = max(1, min(max_depth, self.order))
        side = self.side
        cache_key = (
            math.ceil(rect.min_x * side),
            math.floor(rect.max_x * side),
            math.ceil(rect.min_y * side),
            math.floor(rect.max_y * side),
            max_ranges,
            max_depth,
        )
        cached = self._cover_cache.get(cache_key)
        if cached is not None:
            return list(cached)
        _counts, los, his = self.covers_for_rects_flat(
            np.array([rect.min_x]),
            np.array([rect.min_y]),
            np.array([rect.max_x]),
            np.array([rect.max_y]),
            max_ranges=max_ranges,
            max_depth=max_depth,
        )
        result = list(zip(los.tolist(), his.tolist()))
        if len(self._cover_cache) >= _COVER_CACHE_MAX:
            self._cover_cache.clear()
        self._cover_cache[cache_key] = result
        return list(result)

    def ranges_for_circle(
        self, center: Point, radius: float, max_ranges: int = 64
    ) -> List[HCRange]:
        """Conservative HC-range cover of a disc (used by kNN termination)."""
        from .geometry import circle_bounding_rect

        return self.ranges_for_rect(circle_bounding_rect(center, radius), max_ranges)

    def covers_for_rects_flat(
        self,
        min_x: np.ndarray,
        min_y: np.ndarray,
        max_x: np.ndarray,
        max_y: np.ndarray,
        max_ranges: int = 64,
        max_depth: int = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cover sweep: :meth:`ranges_for_rect` over clipped rect arrays.

        One level-wise quadtree sweep carries every rect's frontier in flat
        arrays with a rect-id lane: pruning, containment tests and child
        expansion are numpy operations over every surviving quadrant at
        once, threading the curve state and HC prefix downwards so each
        emitted quadrant's range is pure integer arithmetic (no
        per-quadrant encode).  ``M`` covers cost a handful of numpy passes
        instead of ``M`` python calls -- the kNN fleet kernel resolves
        thousands of distinct prune-radius circles this way, and
        :meth:`ranges_for_rect` is its one-rect case.  All geometry tests
        are exact integer/scaled-float comparisons (scaling by the
        power-of-two grid side is lossless), so per rect the emitted
        quadrant set is exactly the classical recursive decomposition's;
        a rect-segmented sort-and-merge normalises the level-order
        emission and the gap coalescing is :func:`coalesce_to_limit`'s.

        Returns ``(counts, los, his)``: flat sorted inclusive ranges,
        ``counts[i]`` of them per rect.  The cover memo is not consulted
        or written.
        """
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        min_x = np.asarray(min_x, dtype=np.float64)
        min_y = np.asarray(min_y, dtype=np.float64)
        max_x = np.asarray(max_x, dtype=np.float64)
        max_y = np.asarray(max_y, dtype=np.float64)
        if max_depth is None:
            max_depth = min(self.order, 8)
        max_depth = max(1, min(max_depth, self.order))
        order = self.order
        side = self.side
        m = len(min_x)
        xlo = min_x * side
        xhi = max_x * side
        ylo = min_y * side
        yhi = max_y * side
        # Degenerate (negative-extent) rects never enter the sweep; their
        # counts stay 0.
        alive = (max_x >= min_x) & (max_y >= min_y)
        rid = np.flatnonzero(alive)
        cx = np.zeros(len(rid), dtype=np.int64)
        cy = np.zeros(len(rid), dtype=np.int64)
        t = np.zeros(len(rid), dtype=np.int64)
        pf = np.zeros(len(rid), dtype=np.int64)
        # Per-rect cell-column/row intervals at ``max_depth`` resolution
        # (cell unit ``u = 2**u_shift`` sides): cell index ``a`` intersects
        # iff ``a*u <= xhi`` and ``(a+1)*u >= xlo``, i.e. ``a`` in
        # ``[ceil(xlo/u) - 1, floor(xhi/u)]`` -- exact in float64 because
        # dividing by a power of two is.  The leaf run tables consume these
        # clipped block-locally.
        u_shift = order - max_depth
        inv_u = 1.0 / (1 << u_shift)
        exlo = np.ceil(xlo * inv_u).astype(np.int64)
        fxhi = np.floor(xhi * inv_u).astype(np.int64)
        eylo = np.ceil(ylo * inv_u).astype(np.int64)
        fyhi = np.floor(yhi * inv_u).astype(np.int64)
        emit_rid: List[np.ndarray] = []
        emit_lo: List[np.ndarray] = []
        emit_hi: List[np.ndarray] = []
        level = 0
        while len(rid):
            size = 1 << (order - level)
            cxe, cye = cx + size, cy + size
            keep = (
                (cx <= xhi[rid]) & (cxe >= xlo[rid])
                & (cy <= yhi[rid]) & (cye >= ylo[rid])
            )
            shift = 2 * (order - level)
            if level >= max_depth or size == 1:
                starts = pf[keep] << shift
                if starts.size:
                    emit_rid.append(rid[keep])
                    emit_lo.append(starts)
                    emit_hi.append(starts + ((1 << shift) - 1))
                break
            remaining = max_depth - level
            at_leaf = remaining <= _MAX_STEP
            if not at_leaf:
                # A fully-inside quadrant emits here and stops descending.
                # The leaf stage skips this test: a fully-inside block's
                # overlap pattern is the full mask, whose single table run
                # is the same emission.
                inside = (
                    keep & (xlo[rid] <= cx) & (ylo[rid] <= cy)
                    & (cxe <= xhi[rid]) & (cye <= yhi[rid])
                )
                if inside.any():
                    starts = pf[inside] << shift
                    emit_rid.append(rid[inside])
                    emit_lo.append(starts)
                    emit_hi.append(starts + ((1 << shift) - 1))
                    keep &= ~inside
            rid, cx, cy, t, pf = (
                rid[keep], cx[keep], cy[keep], t[keep], pf[keep]
            )
            if not len(rid):
                break
            if at_leaf:
                # Leaf stage: every survivor intersects its rect, so its
                # block-local overlap is a non-empty rectangular cell
                # mask; emit that mask's digit runs from the tables
                # instead of expanding ``4**remaining`` children.
                counts_t, run_lo_t, run_hi_t = _leaf_run_tables(remaining)
                w = 1 << remaining
                cxu = cx >> u_shift
                cyu = cy >> u_shift
                ax0 = np.maximum(exlo[rid] - cxu - 1, 0)
                ax1 = np.minimum(fxhi[rid] - cxu, w - 1)
                ay0 = np.maximum(eylo[rid] - cyu - 1, 0)
                ay1 = np.minimum(fyhi[rid] - cyu, w - 1)
                idx = (((t * w + ax0) * w + ax1) * w + ay0) * w + ay1
                nr = counts_t[idx]
                offs = np.zeros(len(idx), dtype=np.int64)
                np.cumsum(nr[:-1], out=offs[1:])
                rows = np.repeat(np.arange(len(idx), dtype=np.int64), nr)
                cols = np.arange(len(rows), dtype=np.int64) - offs[rows]
                sel = idx[rows]
                base = pf[rows] << (2 * remaining)
                sl = 2 * u_shift
                emit_rid.append(rid[rows])
                emit_lo.append((base + run_lo_t[sel, cols]) << sl)
                emit_hi.append(
                    ((base + run_hi_t[sel, cols]) << sl) + ((1 << sl) - 1)
                )
                break
            # Land exactly on ``remaining == _MAX_STEP`` so the leaf stage
            # always replaces the widest expansions.
            step = (
                _MAX_STEP if remaining >= 2 * _MAX_STEP
                else remaining - _MAX_STEP
            )
            sub = size >> step
            nch = 4 ** step
            ncx = (cx[:, None] + _STEP_A[step][t] * sub).reshape(-1)
            ncy = (cy[:, None] + _STEP_B[step][t] * sub).reshape(-1)
            nt = _STEP_T[step][t].reshape(-1)
            npf = ((pf << (2 * step))[:, None] | _STEP_DIGITS[step]).reshape(-1)
            rid = np.repeat(rid, nch)
            cx, cy, t, pf = ncx, ncy, nt, npf
            level += step
        if not emit_rid:
            return (
                np.zeros(m, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        # Rect-segmented sort-and-merge: quadrant ranges are disjoint
        # within a rect, so ordering by (rect, start) then collapsing
        # adjacency merges each rect's cover on its own.
        rids = np.concatenate(emit_rid)
        los = np.concatenate(emit_lo)
        his = np.concatenate(emit_hi)
        # (rid, lo) pairs are unique (ranges are disjoint within a rect),
        # so one composite-key argsort replaces a two-pass lexsort when
        # the packed key fits 63 bits.
        if m <= 1 << (62 - 2 * order):
            order_ix = np.argsort((rids << (2 * order)) | los)
        else:
            order_ix = np.lexsort((los, rids))
        rids, los, his = rids[order_ix], los[order_ix], his[order_ix]
        starts_group = np.empty(los.size, dtype=bool)
        starts_group[0] = True
        np.not_equal(los[1:], his[:-1] + 1, out=starts_group[1:])
        starts_group[1:] |= rids[1:] != rids[:-1]
        g_lo = los[starts_group]
        ends_ix = np.flatnonzero(starts_group)
        g_hi = his[np.append(ends_ix[1:] - 1, los.size - 1)]
        g_rid = rids[starts_group]
        counts = np.bincount(g_rid, minlength=m)
        quota = counts - max_ranges
        if quota.max(initial=0) <= 0:
            return counts, g_lo, g_hi
        # Batched ``coalesce_to_limit``: each rect absorbs its smallest
        # gaps first (leftmost among equals -- the lexsort is stable, like
        # its stable argsort), until ``max_ranges`` remain.
        n = len(g_lo)
        same = g_rid[1:] == g_rid[:-1]
        gap_pos = np.flatnonzero(same)
        gap_rid = g_rid[:-1][gap_pos]
        gap_val = g_lo[1:][gap_pos] - g_hi[:-1][gap_pos]
        order_g = np.lexsort((gap_val, gap_rid))
        sorted_rid = gap_rid[order_g]
        seg_start = np.searchsorted(sorted_rid, np.arange(m, dtype=np.int64))
        rank = np.arange(len(order_g)) - seg_start[sorted_rid]
        absorb = rank < quota[sorted_rid]
        sep = np.ones(n - 1, dtype=bool)
        sep[gap_pos[order_g[absorb]]] = False
        start_mask = np.empty(n, dtype=bool)
        start_mask[0] = True
        start_mask[1:] = sep
        out_lo = g_lo[start_mask]
        out_ix = np.flatnonzero(start_mask)
        out_hi = g_hi[np.append(out_ix[1:] - 1, n - 1)]
        out_counts = np.bincount(g_rid[start_mask], minlength=m)
        return out_counts, out_lo, out_hi


def merge_ranges(ranges: Sequence[HCRange]) -> List[HCRange]:
    """Sort and merge overlapping or adjacent inclusive ranges."""
    if not ranges:
        return []
    ordered = sorted(ranges)
    merged = [ordered[0]]
    for lo, hi in ordered[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def coalesce_to_limit(ranges: List[HCRange], max_ranges: int) -> List[HCRange]:
    """Reduce a sorted, disjoint range list to at most ``max_ranges`` entries.

    Gaps between consecutive ranges are absorbed smallest-first (leftmost
    first among equal gaps), which keeps the cover conservative (it only
    grows).  One stable argsort of the gaps makes this O(n log n) instead
    of the quadratic recompute-all-gaps loop.
    """
    if max_ranges < 1:
        raise ValueError("max_ranges must be >= 1")
    n = len(ranges)
    if n <= max_ranges:
        return list(ranges)
    # Gap values never change as ranges merge (each gap is a fixed pair of
    # endpoint coordinates), so "absorb smallest-first, leftmost first among
    # equals" selects exactly the n - max_ranges smallest gaps under a
    # stable ascending sort -- no heap needed.  The surviving gaps separate
    # the output ranges.
    lo = np.fromiter((r[0] for r in ranges), dtype=np.int64, count=n)
    hi = np.fromiter((r[1] for r in ranges), dtype=np.int64, count=n)
    gaps = lo[1:] - hi[:-1]
    absorb_order = np.argsort(gaps, kind="stable")
    separators = np.ones(n - 1, dtype=bool)
    separators[absorb_order[: n - max_ranges]] = False
    heads = np.empty(n, dtype=bool)
    heads[0] = True
    heads[1:] = separators
    head_ix = np.flatnonzero(heads)
    out_lo = lo[head_ix]
    out_hi = hi[np.append(head_ix[1:] - 1, n - 1)]
    return list(zip(out_lo.tolist(), out_hi.tolist()))


def ranges_contain(ranges: Sequence[HCRange], value: int) -> bool:
    """True when ``value`` falls inside any of the inclusive ranges.

    ``ranges`` must be sorted by lower bound and disjoint (as produced by
    :func:`merge_ranges` / :func:`subtract_range`); membership is then a
    single binary search.
    """
    i = bisect.bisect_right(ranges, (value, math.inf))
    return i > 0 and ranges[i - 1][1] >= value


def subtract_range(ranges: Sequence[HCRange], lo: int, hi: int) -> List[HCRange]:
    """Remove the inclusive interval ``[lo, hi]`` from a range list."""
    if lo > hi:
        return list(ranges)
    out: List[HCRange] = []
    for rlo, rhi in ranges:
        if rhi < lo or rlo > hi:
            out.append((rlo, rhi))
            continue
        if rlo < lo:
            out.append((rlo, lo - 1))
        if rhi > hi:
            out.append((hi + 1, rhi))
    return out


def total_length(ranges: Sequence[HCRange]) -> int:
    """Number of HC values covered by a disjoint inclusive range list."""
    return sum(hi - lo + 1 for lo, hi in ranges)


def order_for_points(n_points: int, extra_levels: int = 3) -> int:
    """A curve order dense enough that ``n_points`` rarely collide.

    The paper notes the order "is decided by the object distribution ...
    the curve has to pass through all the objects"; we pick
    ``ceil(log4(n)) + extra_levels`` which gives at least ``64 * n`` cells.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    base = max(1, math.ceil(math.log(n_points, 4)))
    return min(31, base + extra_levels)
