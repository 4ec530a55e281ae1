"""Rectilinear regions: exact unions of axis-aligned rectangles.

Every verified region in the system is an MBR, so the *merged verified
region* (``MVR`` in the paper, built with a MapOverlay in the authors'
implementation) is a union of rectangles.  :class:`RectUnion` computes
that union exactly with a slab decomposition:

* the x axis is cut at every rectangle edge, producing vertical slabs;
* within each slab the covered y extent is a set of merged intervals;
* the union's area, containment tests, boundary (including the edges of
  interior holes — the paper's "unverified regions inside the merged
  verified region"), window coverage, and window subtraction all follow
  from the slab structure with no floating-point construction error
  beyond the input coordinates themselves.

The slab structure itself — a sorted boundary list ``xs`` plus one
merged interval tuple per slab — is shared with the query path's
:class:`~repro.geometry.slabunion.SlabUnion`: every read-side
operation lives here as a module-level function over ``(xs, slabs)``,
so the eager referee and the union the queries read are pinned to one
set of kernels and cannot drift.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

import numpy as np

from ..errors import GeometryError
from .circle import Circle, circle_rect_intersection_area
from .point import Point
from .rect import Rect

Interval = tuple[float, float]
SlabList = Sequence[Sequence[Interval]]


# ----------------------------------------------------------------------
# Interval algebra (closed intervals on a line)
# ----------------------------------------------------------------------
def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Union of closed intervals, returned sorted and disjoint.

    Touching intervals (shared endpoint) are merged; empty and inverted
    inputs are dropped.
    """
    cleaned = sorted([(lo, hi) for lo, hi in intervals if hi > lo])
    merged: list[Interval] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def intervals_cover(intervals: Sequence[Interval], lo: float, hi: float) -> bool:
    """True when ``[lo, hi]`` lies inside the (merged, sorted) intervals.

    Disjoint sorted intervals admit at most one candidate: the last
    interval starting at or before ``lo``, found by bisection.
    """
    if hi < lo:
        raise GeometryError("inverted interval in coverage test")
    idx = bisect_right(intervals, (lo, math.inf)) - 1
    if idx < 0:
        return False
    a, b = intervals[idx]
    return a <= lo and hi <= b


def intervals_complement_within(
    intervals: Sequence[Interval], lo: float, hi: float
) -> list[Interval]:
    """Gaps of the (merged, sorted) intervals inside the window ``[lo, hi]``."""
    gaps: list[Interval] = []
    cursor = lo
    for a, b in intervals:
        if b <= cursor:
            continue
        if a >= hi:
            break
        if a > cursor:
            gaps.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return [(a, b) for a, b in gaps if b > a]


def intervals_difference(
    minuend: Sequence[Interval], subtrahend: Sequence[Interval]
) -> list[Interval]:
    """Measure-theoretic difference ``minuend - subtrahend`` (both merged)."""
    result: list[Interval] = []
    for lo, hi in minuend:
        result.extend(intervals_complement_within(subtrahend, lo, hi))
    return merge_intervals(result)


def intervals_total_length(intervals: Sequence[Interval]) -> float:
    """Total length of disjoint intervals."""
    return sum(hi - lo for lo, hi in intervals)


# ----------------------------------------------------------------------
# Slab-structure kernels, shared by RectUnion and SlabUnion
# ----------------------------------------------------------------------
# A slab structure is a pair ``(xs, slabs)``: ``xs`` is the sorted list
# of x cuts and ``slabs[i]`` holds the merged y intervals covering the
# slab ``xs[i]..xs[i+1]`` as an immutable tuple.  The canonical
# structure for a rectangle set — cuts at exactly the member edges,
# intervals in merged canonical form — is *unique*, so the grid build
# and the sweep of the same set agree bit-for-bit.


# Unions of at least this many rectangles are built on the coverage
# grid, smaller ones by the pure-Python sweep.  The grid's fixed numpy
# dispatch cost (~0.15 ms) equals the sweep's at 10-12 rectangles when
# the boundary is what gets read and at ~20 when the slabs are.
GRID_MIN_RECTS = 16

# Cells per coverage block: the difference array (8 B/cell) and the
# masks derived from a block stay under ~16 MB however large the union.
GRID_BLOCK_CELLS = 1 << 20


def build_slabs(
    rects: Sequence[Rect],
) -> tuple[list[float], list[tuple[Interval, ...]]]:
    """Bulk-build the canonical slab structure of a rectangle set.

    Degenerate rectangles must already be dropped by the caller.
    """
    if len(rects) >= GRID_MIN_RECTS:
        return grid_slabs(rects)
    return sweep_slabs(rects)


def x_cuts(rects: Sequence[Rect]) -> list[float]:
    """The canonical x cuts: every distinct member edge, sorted."""
    return sorted({x for r in rects for x in (r.x1, r.x2)})


def sweep_slabs(
    rects: Sequence[Rect],
) -> tuple[list[float], list[tuple[Interval, ...]]]:
    """The slab structure by a pure-Python sweep over the x cuts.

    The small-union build, and the reference the grid kernel is tested
    against at every size.
    """
    xs = x_cuts(rects)
    slabs: list[tuple[Interval, ...]] = []
    for xa, xb in zip(xs, xs[1:]):
        covering = [(r.y1, r.y2) for r in rects if r.x1 <= xa and r.x2 >= xb]
        slabs.append(tuple(merge_intervals(covering)))
    return xs, slabs


def window_slabs(
    cuts: Sequence[float], rects: Sequence[Rect], window: Rect
) -> tuple[Sequence[float], list[tuple[Interval, ...]]]:
    """The part of the canonical slab structure a window read can see.

    ``cuts`` is :func:`x_cuts` of ``rects`` and ``window`` is not
    degenerate.  :func:`slabs_covers_rect` and
    :func:`slabs_subtract_from_rect` over the result return what they
    return over ``build_slabs(rects)`` — same floats, same order:

    * the cuts kept run from the last one at or left of ``window.x1``
      to the first one at or right of ``window.x2``.  *Every* member's
      edges in that range stay, whether or not the member reaches the
      window in y: each cut splits the remainder rectangles, so
      clipping the members to the window first gives the same region
      in different pieces;
    * the intervals of a kept slab are merged over the members that
      meet the window (x open, y closed) only.  A member covering a
      slab that overlaps the window meets it in x; one that misses it
      in y lies in an interval, or a part of one, that neither read
      looks at — they take the intervals' ends only inside
      ``window.y1..window.y2``.
    """
    first = max(bisect_right(cuts, window.x1) - 1, 0)
    last = min(bisect_left(cuts, window.x2), len(cuts) - 1)
    xs = cuts[first : last + 1]
    meeting = [
        r
        for r in rects
        if r.x1 < window.x2
        and r.x2 > window.x1
        and r.y1 <= window.y2
        and r.y2 >= window.y1
    ]
    slabs = [
        tuple(
            merge_intervals(
                [(r.y1, r.y2) for r in meeting if r.x1 <= xa and r.x2 >= xb]
            )
        )
        for xa, xb in zip(xs, xs[1:])
    ]
    return xs, slabs


# ----------------------------------------------------------------------
# Coverage grid: the union as a boolean cell matrix
# ----------------------------------------------------------------------
# Cutting both axes at every member edge turns the union into a matrix
# of cells, each wholly inside or wholly outside.  One difference-array
# pass fills it, and maximal runs of covered cells along y *are* the
# merged closed intervals of the slab structure, so the canonical
# ``(xs, slabs)`` and the boundary segments both fall out of run-length
# extraction with no per-slab Python work.


def _grid_cuts(rects: Sequence[Rect]):
    """``(xs, ys, (ix1, iy1, ix2, iy2))``: the sorted distinct cuts of
    both axes, and each rectangle's edges as indices into them."""
    n = len(rects)
    xs, ix = np.unique(
        np.array(
            [r.x1 for r in rects] + [r.x2 for r in rects], dtype=np.float64
        ),
        return_inverse=True,
    )
    ys, iy = np.unique(
        np.array(
            [r.y1 for r in rects] + [r.y2 for r in rects], dtype=np.float64
        ),
        return_inverse=True,
    )
    return xs, ys, (ix[:n], iy[:n], ix[n:], iy[n:])


def _grid_blocks(cuts):
    """``(lo, cover)`` per block: the covered cells of x-slabs ``lo``
    onwards, over ``cuts = _grid_cuts(rects)``.

    Blocks of whole x-slabs bound the transient memory by
    ``GRID_BLOCK_CELLS``; the typical MVR (a few hundred cuts per
    axis) is one block.  Clamping a rectangle's rows to the block makes
    one that lies outside cancel itself in the difference array.
    """
    xs, ys, (ix1, iy1, ix2, iy2) = cuts
    n_x, n_y = max(len(xs) - 1, 0), max(len(ys) - 1, 0)
    width = n_y + 1
    rows = max(1, GRID_BLOCK_CELLS // width)
    for lo in range(0, n_x, rows):
        m = min(rows, n_x - lo)
        a = np.clip(ix1 - lo, 0, m) * width
        b = np.clip(ix2 - lo, 0, m) * width
        size = (m + 1) * width
        diff = np.bincount(np.concatenate((a + iy1, b + iy2)), minlength=size)
        diff -= np.bincount(np.concatenate((a + iy2, b + iy1)), minlength=size)
        diff = diff.reshape(m + 1, width)
        np.cumsum(diff, axis=0, out=diff)
        np.cumsum(diff, axis=1, out=diff)
        yield lo, diff[:m, :n_y] > 0


def padded_coverage_grid(
    rects: Sequence[Rect],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(xs, ys, padded)``: the union as a cell matrix in one ring of
    False cells.  Cell ``(i, j)``, ``xs[i]..xs[i+1]`` x
    ``ys[j]..ys[j+1]``, is ``padded[i + 1, j + 1]`` and is True when
    some rectangle covers it; every ``searchsorted`` result over the
    cuts indexes ``padded``.  Degenerate rectangles must already be
    dropped by the caller.

    The difference array is laid out over the padded matrix itself:
    every rectangle closes by the last row and column, so the ring
    falls out of the two prefix sums and nothing is copied.  Its
    counts are int32; a grid over ``GRID_BLOCK_CELLS`` cells is filled
    block by block instead.
    """
    cuts = _grid_cuts(rects)
    xs, ys, (ix1, iy1, ix2, iy2) = cuts
    rows, cols = max(len(xs), 1) + 1, max(len(ys), 1) + 1
    size = rows * cols
    if size > GRID_BLOCK_CELLS:
        padded = np.zeros((rows, cols), dtype=bool)
        for lo, cover in _grid_blocks(cuts):
            padded[lo + 1 : lo + 1 + len(cover), 1:-1] = cover
        return xs, ys, padded
    a = (ix1 + 1) * cols + 1
    b = (ix2 + 1) * cols + 1
    diff = np.bincount(
        np.concatenate((a + iy1, b + iy2)), minlength=size
    ).astype(np.int32)
    diff -= np.bincount(np.concatenate((a + iy2, b + iy1)), minlength=size)
    diff = diff.reshape(rows, cols)
    np.cumsum(diff, axis=0, out=diff)
    np.cumsum(diff, axis=1, out=diff)
    return xs, ys, diff > 0


def _row_blocks(cover: np.ndarray):
    """A whole cover matrix as the ``(lo, rows)`` blocks that
    :func:`_grid_blocks` would have yielded it in."""
    step = max(1, GRID_BLOCK_CELLS // (cover.shape[1] + 1))
    for lo in range(0, len(cover), step):
        yield lo, cover[lo : lo + step]


def _row_runs(mask: np.ndarray):
    """Maximal runs of True along each row, in row-major order.

    Returns ``(row, first, stop)`` index arrays: the run covers cells
    ``first..stop-1`` of ``row``, i.e. the cut range ``first..stop``.
    """
    width = mask.shape[1] + 1
    padded = np.zeros((mask.shape[0], width + 1), dtype=bool)
    padded[:, 1:-1] = mask
    rows, cuts = np.divmod(
        np.flatnonzero(padded[:, 1:] != padded[:, :-1]), width
    )
    return rows[0::2], cuts[0::2], cuts[1::2]


def grid_slabs(
    rects: Sequence[Rect],
) -> tuple[list[float], list[tuple[Interval, ...]]]:
    """The canonical slab structure, read off the coverage grid.

    The cuts are taken from the rectangles themselves (the sweep's own
    expression), not from the index arrays: the structure then shares
    its float objects with its members, as the sweep's does, instead
    of holding two fresh ones per interval.
    """
    blocks = _grid_blocks(_grid_cuts(rects))
    xs = x_cuts(rects)
    ys = sorted({y for r in rects for y in (r.y1, r.y2)})
    slabs: list[tuple[Interval, ...]] = []
    for _, cover in blocks:
        rows, first, stop = _row_runs(cover)
        runs = list(
            zip(map(ys.__getitem__, first.tolist()),
                map(ys.__getitem__, stop.tolist()))
        )
        ends = np.cumsum(np.bincount(rows, minlength=len(cover))).tolist()
        slabs.extend(tuple(runs[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return xs, slabs


def grid_boundary_coord_arrays(
    rects: Sequence[Rect],
    padded_grid: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, ...]:
    """The boundary coordinate arrays, read off the coverage grid.

    Same segment multiset as ``slabs_boundary_coord_arrays(*build_slabs(
    rects))`` — two horizontals per (x-slab, covered y-run), verticals
    as the maximal y-runs covered on the left only, and on the right
    only, of each cut — so :func:`boundary_min_distance` over either is
    bit-identical.  Runs, not cells: the projection parameter is a
    float, and a collinear edge split differently rounds differently
    at subnormal scale.

    ``padded_grid`` is ``padded_coverage_grid(rects)`` when the caller
    already holds it (a lazy union answers containment from the same
    one); the segments, and their order, are those of the
    block-by-block build.
    """
    if padded_grid is None:
        cuts = _grid_cuts(rects)
        xs, ys, _ = cuts
        blocks = _grid_blocks(cuts)
    else:
        xs, ys, padded = padded_grid
        blocks = _row_blocks(padded[1:-1, 1:-1])
    ax, ay, bx, by = [], [], [], []
    outside = np.zeros((1, max(len(ys) - 1, 0)), dtype=bool)
    before = outside
    for lo, cover in blocks:
        m = len(cover)
        # Cut lo+j lies between rows j-1 and j of this block: the row
        # before the block is the previous block's last, and the cut
        # closing the last slab has nothing on its right.
        last = lo + m == len(xs) - 1
        stack = np.concatenate(
            (before, cover, outside) if last else (before, cover)
        )
        left, right = stack[:-1], stack[1:]
        rows, first, stop = _row_runs(
            np.concatenate((cover, left & ~right, right & ~left))
        )
        h = int(np.searchsorted(rows, m))  # runs of `cover` come first
        y1, y2 = ys[first], ys[stop]
        xa, xb = xs[lo + rows[:h]], xs[lo + rows[:h] + 1]
        xc = xs[lo + (rows[h:] - m) % len(left)]
        ax += (xa, xa, xc)
        ay += (y1[:h], y2[:h], y1[h:])
        bx += (xb, xb, xc)
        by += (y1[:h], y2[:h], y2[h:])
        before = cover[-1:]
    if not ax:
        return _segment_coord_arrays([], [], [], [])
    return _segment_coord_arrays(
        np.concatenate(ax), np.concatenate(ay),
        np.concatenate(bx), np.concatenate(by),
    )


def grid_contains_points(
    padded_grid: tuple[np.ndarray, np.ndarray, np.ndarray],
    pxs: np.ndarray,
    pys: np.ndarray,
) -> np.ndarray:
    """Closed containment of points in the union, by cell lookup.

    ``padded_grid`` is :func:`padded_coverage_grid` of the members, so
    an insertion point among the cuts is a row (column) of the matrix:
    0, left of every cut, and ``len(xs)``, right of every cut, are the
    False ring.  The closed union of the members is the closed union
    of the covered cells.  A point strictly between two cuts has one
    cell per axis; a point on a cut belongs to the closed cells on
    both sides, which the left and the right insertion point name.
    Comparisons only — the mask equals :func:`rects_contain_points`
    over the members on every point.
    """
    xs, ys, padded = padded_grid
    lx = xs.searchsorted(pxs, "left")
    rx = xs.searchsorted(pxs, "right")
    ly = ys.searchsorted(pys, "left")
    ry = ys.searchsorted(pys, "right")
    return padded[lx, ly] | padded[lx, ry] | padded[rx, ly] | padded[rx, ry]


def slabs_area(xs: Sequence[float], slabs: SlabList) -> float:
    """Exact union area: per-slab width times merged interval length."""
    return sum(
        (xb - xa) * intervals_total_length(iv)
        for (xa, xb), iv in zip(zip(xs, xs[1:]), slabs)
    )


def iter_slabs(xs: Sequence[float], slabs: SlabList):
    return zip(zip(xs, xs[1:]), slabs)


def slabs_contains_point(
    xs: Sequence[float], slabs: SlabList, px: float, py: float
) -> bool:
    """Closed containment (points on the boundary are inside)."""
    if not xs or px < xs[0] or px > xs[-1]:
        return False
    idx = bisect_right(xs, px) - 1
    candidates = []
    if 0 <= idx < len(slabs):
        candidates.append(idx)
    if px == xs[idx] and idx - 1 >= 0:
        candidates.append(idx - 1)
    for i in candidates:
        for y1, y2 in slabs[i]:
            if y1 <= py <= y2:
                return True
    return False


def rects_contain_points(
    coord_arrays: tuple[np.ndarray, ...], pxs: np.ndarray, pys: np.ndarray
) -> np.ndarray:
    """Broadcast closed containment of points in a set of rectangles.

    Works for any rectangle decomposition whose closed union equals the
    region (member rectangles or disjoint slab pieces) — exact
    agreement with the scalar slab predicate on every point,
    boundaries included.
    """
    rx1, ry1, rx2, ry2 = coord_arrays
    if rx1.size * pxs.size <= 200_000:
        return (
            (pxs >= rx1[:, None])
            & (pxs <= rx2[:, None])
            & (pys >= ry1[:, None])
            & (pys <= ry2[:, None])
        ).any(axis=0)
    out = np.zeros(pxs.shape, dtype=bool)
    for x1, y1, x2, y2 in zip(rx1, ry1, rx2, ry2):
        out |= (pxs >= x1) & (pxs <= x2) & (pys >= y1) & (pys <= y2)
    return out


def slabs_covers_rect(
    xs: Sequence[float], slabs: SlabList, window: Rect
) -> bool:
    """True when the window lies entirely inside the union.

    Degenerate windows (segments, points) are checked against the
    slab structure too — endpoint/midpoint sampling is unsound when
    the union has two or more holes along the segment.
    """
    if window.is_degenerate():
        return slabs_covers_degenerate(xs, slabs, window)
    if not xs or window.x1 < xs[0] or window.x2 > xs[-1]:
        return False
    for (xa, xb), intervals in iter_slabs(xs, slabs):
        if xb <= window.x1 or xa >= window.x2:
            continue
        if not intervals_cover(intervals, window.y1, window.y2):
            return False
    return True


def slabs_covers_degenerate(
    xs: Sequence[float], slabs: SlabList, window: Rect
) -> bool:
    """Closed coverage of a zero-area window (point or segment)."""
    if not xs:
        return False
    if window.x1 == window.x2 and window.y1 == window.y2:
        return slabs_contains_point(xs, slabs, window.x1, window.y1)
    if window.x1 == window.x2:
        # Vertical segment on x = c: both slabs touching c (two
        # when c is a slab boundary) contribute closed coverage.
        x = window.x1
        if x < xs[0] or x > xs[-1]:
            return False
        spans: list[Interval] = []
        for (xa, xb), intervals in iter_slabs(xs, slabs):
            if xa <= x <= xb:
                spans.extend(intervals)
        return intervals_cover(merge_intervals(spans), window.y1, window.y2)
    # Horizontal segment on y = c: every slab sharing positive
    # length with it must have an interval containing c (slab
    # rects are closed, so that covers the closed slab piece too).
    y = window.y1
    if window.x1 < xs[0] or window.x2 > xs[-1]:
        return False
    for (xa, xb), intervals in iter_slabs(xs, slabs):
        if xb <= window.x1 or xa >= window.x2:
            continue
        if not any(y1 <= y <= y2 for y1, y2 in intervals):
            return False
    return True


def slabs_disjoint_rects(xs: Sequence[float], slabs: SlabList) -> list[Rect]:
    """The union as a list of disjoint rectangles (slab pieces)."""
    pieces: list[Rect] = []
    for (xa, xb), intervals in iter_slabs(xs, slabs):
        for y1, y2 in intervals:
            pieces.append(Rect(xa, y1, xb, y2))
    return pieces


def slabs_disc_intersection_area(
    xs: Sequence[float], slabs: SlabList, circle: Circle
) -> float:
    """Exact area of ``disc ∩ union``, one piece and one disc at a time.

    The brute form of the disc read — :class:`RectUnion`'s, and the
    reference :class:`DiscPieces` is compared against.
    """
    total = 0.0
    for piece in slabs_disjoint_rects(xs, slabs):
        if circle.intersects_rect(piece):
            total += circle_rect_intersection_area(circle, piece)
    return min(total, circle.area)


# A piece table is :func:`slabs_disjoint_rects` as four coordinate
# arrays ``(x1, y1, x2, y2)`` — same pieces, same order, same floats.
PieceTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def slabs_piece_table(xs: Sequence[float], slabs: SlabList) -> PieceTable:
    """The piece table of a built slab structure."""
    pieces = [r.as_tuple() for r in slabs_disjoint_rects(xs, slabs)]
    table = np.array(pieces, dtype=np.float64).reshape(len(pieces), 4)
    return tuple(np.ascontiguousarray(table.T))


def grid_piece_table(
    padded_grid: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> PieceTable:
    """The piece table, read off the coverage grid: a maximal run of
    covered cells in an x-slab is one merged interval of that slab
    (:func:`grid_slabs`), so the runs in row-major order are the
    pieces in slab order, with no slab tuples and no ``Rect`` built."""
    xs, ys, padded = padded_grid
    x1, y1, x2, y2 = [], [], [], []
    for lo, cover in _row_blocks(padded[1:-1, 1:-1]):
        rows, first, stop = _row_runs(cover)
        x1.append(xs[lo + rows])
        y1.append(ys[first])
        x2.append(xs[lo + rows + 1])
        y2.append(ys[stop])
    return tuple(np.concatenate(c) for c in (x1, y1, x2, y2))


class DiscPieces:
    """The pieces of a union that concentric discs ``C(center, r)``,
    ``r <= reach``, can meet — the batched disc read of Lemma 3.2.

    The discs of one heap share a centre, so a piece's distance to it
    is computed once: ``dx`` / ``dy`` as array expressions, a
    comparisons-only Chebyshev prefilter ``max(dx, dy) <= reach``, then
    ``math.hypot`` per survivor, kept for every radius as the exact
    ``Circle.intersects_rect`` test.  The prefilter drops no piece the
    exact test keeps: ``max(dx, dy) <= math.hypot(dx, dy)`` holds in
    floats (rounding is monotone and the larger leg is representable).
    The area itself stays the scalar closed form summed in piece order
    — ``np.arcsin`` and a vectorised sum are not ``math.asin`` and the
    loop to the last bit — so every area equals
    :func:`slabs_disc_intersection_area`'s.
    """

    __slots__ = ("center", "reach", "near")

    def __init__(self, table: PieceTable, center: Point, reach: float):
        x1, y1, x2, y2 = table
        qx, qy = center.x, center.y
        dx = np.maximum(np.maximum(x1 - qx, 0.0), qx - x2)
        dy = np.maximum(np.maximum(y1 - qy, 0.0), qy - y2)
        kept = np.flatnonzero(np.maximum(dx, dy) <= reach)
        self.center = center
        self.reach = reach
        # ``(distance, piece)`` of the pieces within reach, in piece order.
        self.near = [
            (d, Rect(*piece))
            for d, piece in zip(
                map(math.hypot, dx[kept].tolist(), dy[kept].tolist()),
                zip(*(c[kept].tolist() for c in table)),
            )
            if d <= reach
        ]

    def _covered(self, circle: Circle) -> float:
        radius = circle.radius
        if radius > self.reach:
            raise GeometryError(
                f"disc radius {radius} beyond the prepared reach {self.reach}"
            )
        total = 0.0
        for distance, piece in self.near:
            if distance <= radius:
                total += circle_rect_intersection_area(circle, piece)
        return min(total, circle.area)

    def intersection_area(self, radius: float) -> float:
        """Exact area of ``C(center, radius) ∩ union``."""
        return self._covered(Circle(self.center, radius))

    def uncovered_area(self, radius: float) -> float:
        """Exact area of ``C(center, radius) - union`` — the
        *unverified region* size ``u``."""
        circle = Circle(self.center, radius)
        return max(0.0, circle.area - self._covered(circle))


def slabs_subtract_from_rect(
    xs: Sequence[float], slabs: SlabList, window: Rect
) -> list[Rect]:
    """The uncovered remainder ``window - union`` as disjoint rectangles.

    This is the reduced query window ``w'`` of Section 3.4.2 (SBWQ
    broadcast-channel data filtering).
    """
    if window.is_degenerate():
        covered = slabs_covers_rect(xs, slabs, window)
        return [] if covered else [window]
    remainder: list[Rect] = []
    if not xs:
        return [window]
    left_edge = min(max(xs[0], window.x1), window.x2)
    right_edge = max(min(xs[-1], window.x2), window.x1)
    if window.x1 < left_edge:
        remainder.append(Rect(window.x1, window.y1, left_edge, window.y2))
    if right_edge < window.x2 and right_edge >= left_edge:
        remainder.append(Rect(right_edge, window.y1, window.x2, window.y2))
    if left_edge >= right_edge:
        return [r for r in remainder if not r.is_degenerate()]
    for (xa, xb), intervals in iter_slabs(xs, slabs):
        lo_x = max(xa, window.x1)
        hi_x = min(xb, window.x2)
        if lo_x >= hi_x:
            continue
        for g1, g2 in intervals_complement_within(
            intervals, window.y1, window.y2
        ):
            remainder.append(Rect(lo_x, g1, hi_x, g2))
    return [r for r in remainder if not r.is_degenerate()]


def slabs_boundary_coord_arrays(
    xs: Sequence[float], slabs: SlabList
) -> tuple[np.ndarray, ...]:
    """Boundary segments as flat coordinate arrays ``(ax, ay, dx, dy, len_sq)``.

    The boundary includes the edges of interior holes — the paper's
    "unverified regions inside the merged verified region".  Horizontal
    edges come directly from the slab intervals; vertical edges are the
    parts of each slab border covered on exactly one side (symmetric
    difference of the adjacent slabs' intervals, skipped outright when
    the two interval tuples are equal).
    """
    ax: list[float] = []
    ay: list[float] = []
    bx: list[float] = []
    by: list[float] = []
    for (xa, xb), intervals in iter_slabs(xs, slabs):
        for y1, y2 in intervals:
            ax.append(xa)
            ay.append(y1)
            bx.append(xb)
            by.append(y1)
            ax.append(xa)
            ay.append(y2)
            bx.append(xb)
            by.append(y2)
    n_slabs = len(slabs)
    for i, x in enumerate(xs):
        left = slabs[i - 1] if i > 0 else ()
        right = slabs[i] if i < n_slabs else ()
        if left == right:
            continue
        exposed = intervals_difference(left, right) + intervals_difference(
            right, left
        )
        for y1, y2 in exposed:
            ax.append(x)
            ay.append(y1)
            bx.append(x)
            by.append(y2)
    return _segment_coord_arrays(ax, ay, bx, by)


def _segment_coord_arrays(ax, ay, bx, by) -> tuple[np.ndarray, ...]:
    """Segments ``(ax, ay)-(bx, by)`` as ``(ax, ay, dx, dy, len_sq)``."""
    axa = np.asarray(ax, dtype=np.float64)
    aya = np.asarray(ay, dtype=np.float64)
    dx = np.asarray(bx, dtype=np.float64) - axa
    dy = np.asarray(by, dtype=np.float64) - aya
    len_sq = dx * dx + dy * dy
    # Segment lengths are positive by construction, but a
    # subnormal slab width can square-underflow to 0.0; the
    # guard keeps the projection finite (any t in [0, 1] is
    # correct for a segment that short).
    return axa, aya, dx, dy, np.where(len_sq > 0.0, len_sq, 1.0)


def boundary_min_distance(
    arrays: tuple[np.ndarray, ...], px: float, py: float
) -> float:
    """Min distance from a point to the boundary coordinate arrays.

    Clamped projection onto every boundary segment at once; the
    segments all have positive length (slab intervals and exposed
    vertical gaps are non-degenerate by construction).
    """
    ax, ay, dx, dy, len_sq = arrays
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / len_sq, 0.0, 1.0)
    return float(np.min(np.hypot(px - (ax + t * dx), py - (ay + t * dy))))


# ----------------------------------------------------------------------
# Rectangle union
# ----------------------------------------------------------------------
class RectUnion:
    """The union of a set of axis-aligned rectangles, as a closed region.

    The eager referee: it builds the slab structure up front and answers
    every read from it, so the tests and :mod:`repro.check` compare the
    query path's :class:`~repro.geometry.slabunion.SlabUnion` against
    it.  The union is immutable once built.  Degenerate (zero-area)
    input rectangles contribute nothing and are dropped.
    """

    __slots__ = (
        "_rects", "_xs", "_slabs", "_area", "_boundary_arrays", "_rect_arrays"
    )

    def __init__(self, rects: Iterable[Rect] = ()) -> None:
        self._rects: tuple[Rect, ...] = tuple(
            [r for r in rects if r.x2 != r.x1 and r.y2 != r.y1]
        )
        xs, slabs = build_slabs(self._rects)
        self._xs: list[float] = xs
        self._slabs: list[tuple[Interval, ...]] = slabs
        self._area = slabs_area(xs, slabs)
        self._boundary_arrays: tuple[np.ndarray, ...] | None = None
        self._rect_arrays: tuple[np.ndarray, ...] | None = None

    @property
    def rects(self) -> tuple[Rect, ...]:
        """The input rectangles (overlapping, as provided)."""
        return self._rects

    # ------------------------------------------------------------------
    # Measures and predicates
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self._rects

    @property
    def area(self) -> float:
        """Exact area of the union."""
        return self._area

    def mbr(self) -> Rect:
        """Bounding rectangle of the whole union."""
        if not self._rects:
            raise GeometryError("MBR of an empty region")
        return Rect.bounding(self._rects)

    def contains_point(self, p: Point) -> bool:
        """Closed containment (points on the boundary are inside)."""
        return slabs_contains_point(self._xs, self._slabs, p.x, p.y)

    def _rect_coord_arrays(self) -> tuple[np.ndarray, ...]:
        if self._rect_arrays is None:
            self._rect_arrays = (
                np.array([r.x1 for r in self._rects]),
                np.array([r.y1 for r in self._rects]),
                np.array([r.x2 for r in self._rects]),
                np.array([r.y2 for r in self._rects]),
            )
        return self._rect_arrays

    def contains_points(self, pxs: np.ndarray, pys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains_point` over coordinate arrays.

        The closed union equals the set-union of the closed input
        rectangles, so the batch test is one broadcast comparison
        against the rectangle coordinate arrays — exact agreement with
        the scalar slab-based predicate on every point, boundaries
        included.
        """
        pxs = np.asarray(pxs, dtype=np.float64)
        pys = np.asarray(pys, dtype=np.float64)
        if not self._rects:
            return np.zeros(pxs.shape, dtype=bool)
        return rects_contain_points(self._rect_coord_arrays(), pxs, pys)

    def covers_rect(self, window: Rect) -> bool:
        """True when the window lies entirely inside the union."""
        return slabs_covers_rect(self._xs, self._slabs, window)

    # ------------------------------------------------------------------
    # Decompositions
    # ------------------------------------------------------------------
    def disjoint_rects(self) -> list[Rect]:
        """The union as a list of disjoint rectangles (slab pieces)."""
        return slabs_disjoint_rects(self._xs, self._slabs)

    def subtract_from_rect(self, window: Rect) -> list[Rect]:
        """The uncovered remainder ``window - union`` as disjoint rectangles.

        This is the reduced query window ``w'`` of Section 3.4.2 (SBWQ
        broadcast-channel data filtering).
        """
        return slabs_subtract_from_rect(self._xs, self._slabs, window)

    # ------------------------------------------------------------------
    # Boundary
    # ------------------------------------------------------------------
    def distance_to_boundary(self, p: Point) -> float:
        """Distance from ``p`` to the union's boundary (``||q, e_s||``).

        The boundary includes the edges of interior holes.  For a query
        point inside the region this is the radius of the largest disc
        around ``p`` contained in the region — exactly the verification
        bound of Lemma 3.1.
        """
        if self.is_empty:
            raise GeometryError("distance to the boundary of an empty region")
        if self._boundary_arrays is None:
            self._boundary_arrays = slabs_boundary_coord_arrays(
                self._xs, self._slabs
            )
        return boundary_min_distance(self._boundary_arrays, p.x, p.y)

    # ------------------------------------------------------------------
    # Disc interactions (Lemma 3.2 support)
    # ------------------------------------------------------------------
    def disc_intersection_area(self, circle: Circle) -> float:
        """Exact area of ``disc ∩ union``."""
        return slabs_disc_intersection_area(self._xs, self._slabs, circle)

    def disc_uncovered_area(self, circle: Circle) -> float:
        """Exact area of ``disc - union`` — the *unverified region* size."""
        return max(0.0, circle.area - self.disc_intersection_area(circle))

    def contains_circle(self, circle: Circle) -> bool:
        """True when the whole disc lies inside the union."""
        if self.is_empty:
            return False
        if not self.contains_point(circle.center):
            return False
        return circle.radius <= self.distance_to_boundary(circle.center)
