"""Density-peaks clustering of velocity profiles, with a 2-D embedding.

Centers are items that combine high local density (Gaussian kernel of
pairwise distance over d_c) with high separation (distance to the
nearest denser item).  Everything else inherits the cluster of its
nearest denser neighbour, walking items in decreasing density.  Cluster
membership then splits into core and halo by comparing each member's
density against the average density of the cluster's border region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DC_PERCENTILE = 2.0

FLAG_DEGENERATE_GAMMA = "degenerate-gamma"
FLAG_DEGENERATE_DC = "degenerate-dc"
FLAG_DEGENERATE_EMBEDDING = "degenerate-embedding"
FLAG_NO_EMBEDDING = "embedding-skipped"

_BLOCK_BYTES = 1 << 22  # temporary-array size per row block of an (n, n) or (n, n, d) pass


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got {d.shape}")
        if not np.isfinite(d).all():
            raise ValueError("non-finite distance")
        if (d < 0).any():
            raise ValueError("negative distance")
        if (np.diag(d) != 0).any():
            raise ValueError("diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @classmethod
    def _built(cls, d: np.ndarray) -> "DistanceMatrix":
        """A float (n, n) matrix built by this module: square, symmetric,
        zero on the diagonal and nonnegative by construction, so only its
        finiteness is checked (a NaN propagates into the maximum)."""
        if not np.isfinite(d.max()):
            raise ValueError("non-finite distance")
        d.setflags(write=False)
        dm = object.__new__(cls)
        object.__setattr__(dm, "d", d)
        return dm

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True, eq=False)
class ClusterResult:
    rho: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    centers: np.ndarray
    assignment: np.ndarray
    is_core: np.ndarray
    border_density: np.ndarray
    embedding: np.ndarray
    d_c: float
    flags: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.centers)


def _dmat(d) -> np.ndarray:
    return d.d if isinstance(d, DistanceMatrix) else np.asarray(d, dtype=float)


def _row_blocks(n: int, row_bytes: int):
    """Row slices of an n-row pass whose temporaries take row_bytes a row."""
    rows = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


def _column_distances(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(g, m) l2 distances between the vectors of a (g, d) stack and the m
    vectors held column-wise in a (d, m) array, for d below 8.

    Squares are summed column by column, left to right; below width 8
    that is the order in which numpy reduces a row, so each entry equals
    ``sqrt(((x_i - x_j) ** 2).sum())`` bit for bit.  It takes two (g, m)
    temporaries, one of which it returns.
    """
    total = np.subtract(rows[:, :1], columns[0])
    np.square(total, out=total)
    step = np.empty_like(total)
    for col in range(1, rows.shape[1]):
        np.subtract(rows[:, col, None], columns[col], out=step)
        total += np.square(step, out=step)
    return np.sqrt(total, out=total)


def _pair_distances(columns: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """l2 distances between the vectors i and j, pair by pair, of the m
    vectors held column-wise in a (d, m) array: :func:`_column_distances`'
    entries bit for bit, from the same squares in the same order."""
    total = np.square(columns[0, i] - columns[0, j])
    for col in columns[1:]:
        total += np.square(col[i] - col[j])
    return np.sqrt(total, out=total)


def _day_pairs(n_days: int) -> list:
    """The day pairs (a, b), a <= b, of ``_day_pair_distances``, in order."""
    return [(a, b) for a in range(n_days) for b in range(a, n_days)]


def _day_pair_index(a: int, b: int, n_days: int) -> int:
    """The position of the day pair (a, b), a <= b, in ``_day_pairs(n_days)``."""
    return a * n_days - a * (a - 1) // 2 + b - a


def _day_pair_distances(days, n_windows: int, width: int, out=None, pairs=None) -> np.ndarray:
    """Distances between the windows ``days[a, s : s + width]``, s below
    n_windows, of a (D, slices) stack of days, as the upper day-pair
    blocks of their day-major distance matrix: a (P, n_windows, n_windows)
    array, P = D (D + 1) / 2, whose block p holds the rows of day a and
    the columns of day b for the pair (a, b) = ``_day_pairs(D)[p]``.  The
    block of days (b, a), the transpose of (a, b), is not kept
    (:func:`_day_pair_rows` assembles whole rows).  Each entry is that of
    ``pairwise_distances`` of the windows, bit for bit, for width below 8.

    The windows of two days share their slices, so each day pair a <= b
    squares its (n_windows + width - 1)-square slice differences once and
    adds the width diagonal shifts into its block in slice order: the
    squares, and the order, of :func:`_column_distances`.  As in
    ``pairwise_distances`` only finiteness is checked, block by block, so
    squares that overflow raise ValueError with no overflow warning.  By
    default every pair of ``_day_pairs`` is written to a new array,
    returned read-only; given ``out`` and a list of ``pairs``, only those
    pairs' blocks of ``out`` are written, so that disjoint lists can fill
    one array at once.
    """
    x = np.asarray(days, dtype=float)
    n_days = len(x)
    span = n_windows + width - 1
    d = np.empty((n_days * (n_days + 1) // 2, n_windows, n_windows)) if out is None else out
    sq = np.empty((span, span))
    for a, b in _day_pairs(n_days) if pairs is None else pairs:
        total = d[_day_pair_index(a, b, n_days)]
        with np.errstate(over="ignore"):  # an overflow is the ValueError below
            np.square(np.subtract(x[a, :span, None], x[b, :span], out=sq), out=sq)
            total[...] = sq[:n_windows, :n_windows]
            for k in range(1, width):
                total += sq[k : k + n_windows, k : k + n_windows]
        np.sqrt(total, out=total)
        if not np.isfinite(total.max()):
            raise ValueError("non-finite distance")
    if out is None:
        d.setflags(write=False)
    return d


def _block_days(blocks: np.ndarray) -> int:
    """The day count D of P = D (D + 1) / 2 day-pair blocks."""
    return (math.isqrt(8 * len(blocks) + 1) - 1) // 2


def _day_pair_rows(blocks: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Rows lo..hi of the distance matrix whose upper day-pair blocks
    (:func:`_day_pair_distances`) are ``blocks``, written into ``out``, a
    (hi - lo, D w) array, and returned: for the rows of day a, block
    (a, b) as stored where b >= a, and the transpose of block (b, a) where
    b < a.  The rows may span several days."""
    w, n_days = blocks.shape[1], _block_days(blocks)
    for a in range(lo // w, -(-hi // w)):  # the days the rows belong to
        first, last = max(lo, a * w), min(hi, a * w + w)
        day_rows, rows = slice(first - a * w, last - a * w), out[first - lo : last - lo]
        for b in range(n_days):
            if b >= a:
                rows[:, b * w : b * w + w] = blocks[_day_pair_index(a, b, n_days), day_rows]
            else:
                rows[:, b * w : b * w + w] = blocks[_day_pair_index(b, a, n_days), :, day_rows].T
    return out


def _row_range(rows: slice, n: int) -> tuple:
    """(lo, hi) of a slice of n rows; a step other than 1 raises ValueError."""
    if rows.step not in (None, 1):
        raise ValueError(f"row slices take no step, got {rows.step!r}")
    return rows.indices(n)[:2]


def _row_source(d, rows: slice, entry_bytes: int, fill=None):
    """(at, block) for each row block of the given rows of a distance
    matrix: ``at`` the block's slice of rows, ``block`` a scratch array
    that every block reuses and the caller may overwrite, holding those
    rows, each the same contiguous row of the matrix, or what
    ``fill(rows, block)`` writes from them.  d is a whole matrix (an array
    or a DistanceMatrix), whose rows are copied or read by ``fill`` in
    place, or the (P, w, w) upper day-pair blocks of
    :func:`_day_pair_distances`, whose rows are assembled
    (:func:`_day_pair_rows`) into the block, where ``fill`` reads them.  A
    block takes as many rows as keep entry_bytes an entry within
    ``_BLOCK_BYTES``; the scratch stays resident, for a thread's malloc
    arena keeps what its largest block took."""
    if isinstance(d, np.ndarray) and d.ndim == 3:
        n = d.shape[1] * _block_days(d)

        def read(lo, hi, out):
            _day_pair_rows(d, lo, hi, out)
            if fill is not None:
                fill(out, out)
    else:
        dm = _dmat(d)
        n = len(dm)

        def read(lo, hi, out):
            if fill is None:
                np.copyto(out, dm[lo:hi])
            else:
                fill(dm[lo:hi], out)
    lo, hi = _row_range(rows, n)
    scratch = None
    for block in _row_blocks(max(hi - lo, 0), entry_bytes * n):
        at = slice(lo + block.start, min(lo + block.stop, hi))
        if scratch is None:  # the first block is the largest
            scratch = np.empty((at.stop - at.start, n))
        read(at.start, at.stop, scratch[: at.stop - at.start])
        yield at, scratch[: at.stop - at.start]


def pairwise_distances(vectors) -> DistanceMatrix:
    """Symmetric l2 distance matrix between equal-length vectors.

    Rows lo..hi are built from column lo on and mirrored below the
    diagonal, which is exact since (a - b) ** 2 == (b - a) ** 2; each
    entry is the same ``sqrt(((x_i - x_j) ** 2).sum())`` reduction as a
    one-shot (n, n, d) difference array would give.  Vectors narrower
    than 8 are summed column by column (:func:`_column_distances`), the
    order in which numpy reduces such a row; from width 8 numpy sums a
    row in another order, so wider vectors take the (rows, n - lo, d)
    difference array, square it in place and reduce it into the matrix,
    one temporary a block.  A block takes as many rows as
    keep its temporaries within ``_BLOCK_BYTES``, or within a quarter of
    it for narrow vectors, whose few flops per byte make the pass wait
    on memory unless a block stays in cache.  Blocks lengthen as rows
    shorten; temporaries that shrank block by block would be served from
    the malloc heap and stay resident (with glibc).  The matrix is square,
    symmetric, zero on the diagonal and nonnegative by construction;
    only its finiteness is checked, so NaN input or squares that
    overflow raise ValueError, with no overflow warning.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least 2 equal-length vectors")
    n, width = x.shape
    narrow = width < 8
    # bytes of temporaries per block and per entry of a block's rows
    block_bytes, entry_bytes = (_BLOCK_BYTES // 4, 16) if narrow else (_BLOCK_BYTES, 8 * width)
    columns = np.ascontiguousarray(x.T)
    d = np.empty((n, n))
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, block_bytes // (entry_bytes * (n - lo))))
        with np.errstate(over="ignore"):  # an overflow is the ValueError below
            if narrow:
                d[lo:hi, lo:] = _column_distances(x[lo:hi], columns[:, lo:])
            else:
                diff = np.subtract(x[lo:hi, None, :], x[None, lo:, :])
                block = np.square(diff, out=diff).sum(axis=-1, out=d[lo:hi, lo:])
                np.sqrt(block, out=block)
        d[lo:, lo:hi] = d[lo:hi, lo:].T
        lo = hi
    return DistanceMatrix._built(d)


def _kernel(d: np.ndarray, d_c: float, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(-((d / d_c) ** 2))``, bit for bit, each step written in
    place (into out, a new array by default)."""
    w = np.divide(d, d_c, out=out)
    np.square(w, out=w)
    np.negative(w, out=w)
    return np.exp(w, out=w)


def local_density(d, d_c: float, rows: slice = slice(None)) -> np.ndarray:
    """rho_i = sum_{j != i} exp(-(d_ij / d_c)^2), of the items in ``rows``
    (every item by default), in row blocks; each row sums as it would in
    one (n, n) pass.  d is a whole matrix or the upper day-pair blocks of
    ``_day_pair_distances``, read a row block at a time
    (:func:`_row_source`)."""
    if not (d_c > 0):
        raise ValueError("d_c must be positive")
    # the kernel runs on each block, 8 bytes an entry, within a quarter of
    # _BLOCK_BYTES: a matcher build runs this on both threads; its first
    # step reads a whole matrix's rows, with no copy
    parts = [block.sum(axis=1) for _, block in _row_source(
        d, rows, 32, lambda source, out: _kernel(source, d_c, out))]
    return np.concatenate(parts or [np.empty(0)]) - 1.0


def _denser(rho_j, rho_i, j_lower):
    """Where item j is denser than item i: rho_j > rho_i, or the densities
    are equal and j has the lower index (``j_lower``)."""
    return (rho_j > rho_i) | ((rho_j == rho_i) & j_lower)


def delta_neighbors(d, rho: np.ndarray, rows: slice = slice(None)):
    """Separation of each item and the neighbour that realizes it.

    Returns (delta, nn): delta_i is the distance to the nearest item
    denser than i, nn_i that item's index, the lowest one on a distance
    tie.  Density ties treat the lower index as the denser one.  The
    densest item, the first maximum of rho, gets delta = max distance
    and itself as neighbour.  Rows are searched in blocks, each row over
    the items ahead of it in a stable sort of -rho.  Given a slice of
    ``rows``, only those items are searched and returned; each row
    reads only its own row of d.  d is a whole matrix or the upper
    day-pair blocks of ``_day_pair_distances``, read a row block at a
    time (:func:`_row_source`).
    """
    n = rho.size
    lo, hi = _row_range(rows, n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-rho, kind="stable")] = np.arange(n)
    delta, nn = np.empty(max(hi - lo, 0)), np.empty(max(hi - lo, 0), dtype=np.int64)
    # a block's rows, masked in place, and its mask within a quarter of
    # _BLOCK_BYTES, as in local_density
    for at, block in _row_source(d, rows, 64):
        np.putmask(block, rank >= rank[at, None], np.inf)
        out = slice(at.start - lo, at.stop - lo)
        nn[out] = block.argmin(axis=1)
        delta[out] = block[np.arange(len(block)), nn[out]]
    top = np.argmax(rho)
    if lo <= top < hi:
        delta[top - lo] = next(_row_source(d, slice(top, top + 1), 0))[1].max()
        nn[top - lo] = top
    return delta, nn


class HistoryPeaks:
    """Nearest-denser searches over a fixed item set plus one added item,
    for a stack of added items at once, corrected from the fixed items'
    own density peaks: rho and ``(delta, nn) = delta_neighbors(d, rho)``.

    An added item raises each density by a kernel weight w in [0, 1], so
    item j can turn denser than item i only where rho_j + 1, rounded,
    reaches rho_i.  The build keeps the flip candidates, pairs (i, j) with
    j ahead of nn_i in (distance, index) order, not denser than i and in
    reach of it, found along a band of the density order rather than in an
    (n, n) pass; and the fragile items, whose nn is in their reach.

    Row r of a stack gives the distances ``d_new[r]`` of one added item
    (index n) to the fixed items and ``rho[r]``, the densities rho + w
    with the added item's last.  For each row :meth:`delta_neighbors`
    gives what :func:`delta_neighbors` gives on the bordered (n+1)-square
    matrix, bit for bit: each fixed item keeps its (delta, nn) unless the
    first of its candidates to turn denser takes over; a fragile item whose
    nn is no longer denser, and the densest fixed item once another item is
    densest, search their whole row; the added item takes over only at a
    strictly smaller distance, since its index loses ties.  The row maxima
    of the items in reach of the densest fixed item, the only fixed items
    that can be densest, are kept from the build: a densest fixed item
    takes its row maximum as delta.

    No distance matrix is read or kept.  The fixed items' vectors are
    held column-wise in ``columns`` (width below 8), and every distance the
    build and the searches read, band pairs, row maxima, whole rows and
    the entries of :meth:`bordered`, is computed from them with
    :func:`_column_distances` or :func:`_pair_distances`: the entries of
    their ``pairwise_distances`` bit for bit.
    """

    def __init__(self, columns: np.ndarray, rho: np.ndarray, delta: np.ndarray, nn: np.ndarray):
        self.columns, self.delta, self.nn = columns, delta, nn
        self.top = int(np.argmax(rho))
        n = rho.size
        reach = rho + 1.0  # the largest density a weight of at most 1 can give
        self.row_max = np.full(n, np.nan)
        can_top = np.flatnonzero(reach >= rho[self.top])
        for block in _row_blocks(can_top.size, 16 * n):  # every item, in a flat history
            self.row_max[can_top[block]] = self.rows(can_top[block]).max(axis=1)
        # items by increasing denseness (rho, then the higher index first);
        # item i's band is the run below it whose reach is at least rho_i
        order = np.lexsort((-np.arange(n), rho))
        lo = np.searchsorted(reach[order], rho)
        count = np.maximum(np.argsort(order) - lo, 0)
        count[self.top] = 0
        ends = np.cumsum(count)
        # band pairs in chunks of some 80 bytes a pair within a quarter of
        # _BLOCK_BYTES, or of one whole band
        per = max(n, _BLOCK_BYTES // 320)
        kept = []
        for items in np.split(np.arange(n), np.searchsorted(ends, np.arange(per, ends[-1], per))):
            c = count[items]
            i = np.repeat(items, c)
            j = order[np.repeat(lo[items] - (np.cumsum(c) - c), c) + np.arange(c.sum())]
            dist = _pair_distances(columns, i, j)
            ahead = (dist < delta[i]) | ((dist == delta[i]) & (j < nn[i]))
            kept.append((i[ahead], j[ahead], dist[ahead]))
        i, j, dist = (np.concatenate(part) for part in zip(*kept))
        by_row = np.lexsort((j, dist, i))  # each item's candidates in (distance, index) order
        self.cand_i, self.cand_j, self.cand_d = i[by_row], j[by_row], dist[by_row]
        self.cand_lower = self.cand_j < self.cand_i
        self.fragile = np.flatnonzero((reach >= rho[nn]) & (np.arange(n) != self.top))

    def rows(self, items: np.ndarray) -> np.ndarray:
        """The fixed items' distances to the items, one row per item."""
        return _column_distances(self.columns[:, items].T, self.columns)

    def delta_neighbors(self, d_new: np.ndarray, rho: np.ndarray):
        """(delta, nn), each (g, n + 1), of a (g, n) stack of added items;
        row r of rho (g, n + 1) holds rho + w, w in [0, 1], and the added
        item's density last."""
        g, n = d_new.shape
        fixed, added = rho[:, :n], rho[:, n:]
        nn, delta = np.empty((g, n + 1), dtype=np.int64), np.empty((g, n + 1))
        nn[:, :n], delta[:, :n] = self.nn, self.delta
        # hits come row by row, each row's in candidate order: an item
        # takes its first one
        hit_g, hit = np.nonzero(_denser(fixed[:, self.cand_j], fixed[:, self.cand_i],
                                        self.cand_lower))
        first = np.unique(hit_g * n + self.cand_i[hit], return_index=True)[1]
        hit_g, hit = hit_g[first], hit[first]
        nn[hit_g, self.cand_i[hit]] = self.cand_j[hit]
        delta[hit_g, self.cand_i[hit]] = self.cand_d[hit]
        # whole rows, recomputed: the first minimum over the denser fixed
        # items, inf where there is none (the densest fixed item under a
        # denser goal)
        near = self.nn[self.fragile]
        lost_g, lost = np.nonzero(~_denser(fixed[:, near], fixed[:, self.fragile],
                                           near < self.fragile))
        top = rho.argmax(axis=1)
        moved = np.flatnonzero(top != self.top)
        lost_g = np.concatenate([lost_g, moved])
        lost_i = np.concatenate([self.fragile[lost], np.full(moved.size, self.top)])
        for block in _row_blocks(lost_g.size, 40 * n):
            bg, bi = lost_g[block], lost_i[block]
            # an item lost under several goals has its row computed once
            items, at = np.unique(bi, return_inverse=True)
            masked = self.rows(items)[at]
            masked[~_denser(fixed[bg], fixed[bg, bi][:, None], np.arange(n) < bi[:, None])] = np.inf
            nn[bg, bi] = masked.argmin(axis=1)
            delta[bg, bi] = masked.min(axis=1)
        take = (added > fixed) & (d_new < delta[:, :n])
        delta[:, :n][take] = d_new[take]
        nn[:, :n][take] = n
        # the added item's nearest denser fixed item; an added item that
        # is densest of all takes its largest distance and itself
        rows = np.arange(g)
        above = np.where(fixed >= added, d_new, np.inf)
        nn[:, n] = above.argmin(axis=1)
        delta[:, n] = above[rows, nn[:, n]]
        top_added = top == n
        delta[top_added, n] = d_new[top_added].max(axis=1)
        nn[top_added, n] = n
        rows, top = rows[~top_added], top[~top_added]
        delta[rows, top] = np.maximum(self.row_max[top], d_new[rows, top])
        nn[rows, top] = top
        return delta, nn

    def bordered(self, d_new: np.ndarray, items, cols) -> np.ndarray:
        """Entries (items x cols) of the bordered (n+1)-square matrix."""
        items, cols = np.asarray(items), np.asarray(cols)
        n = self.columns.shape[1]
        added = np.append(d_new, 0.0)  # the added item's row and column
        out = np.empty((items.size, cols.size))
        out[:, cols == n] = added[items, None]
        out[items == n] = added[cols]
        fixed_i, fixed_j = items < n, cols < n
        out[np.ix_(fixed_i, fixed_j)] = _column_distances(self.columns[:, items[fixed_i]].T,
                                                          self.columns[:, cols[fixed_j]])
        return out


def auto_select_k(gamma: np.ndarray):
    """Cluster count at the largest relative gap of sorted gamma, per row.

    Over each row of gamma (one row, or a (g, n) stack) scans positions
    1..min(n-1, 10) of the descending gamma sequence, read from a
    partition rather than a full sort, and puts the cut where
    (gamma_p-1 - gamma_p) / gamma_p peaks, the first such position on a
    tie; a gap onto an exactly zero gamma counts as infinite, as does one
    whose ratio overflows (onto a subnormal gamma).  Returns (k,
    degenerate), one entry per row; degenerate means no usable gap
    existed (all gamma equal) and k is 1.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[-1]
    p = min(n - 1, 10)
    if p < 1:
        rows = gamma.shape[:-1]
        return np.ones(rows, dtype=np.int64)[()], np.ones(rows, dtype=bool)[()]
    top = np.sort(np.partition(gamma, n - p - 1, axis=-1)[..., n - p - 1 :], axis=-1)[..., ::-1]
    prev, cur = top[..., :-1], top[..., 1:]
    # over a subnormal gamma the gap can be inf; a gap onto 0 is set
    # apart by np.where, and a gap from 0 onto 0 is skipped (-inf)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.where(cur > 0.0, (prev - cur) / cur, np.where(prev > 0.0, np.inf, -np.inf))
    return ratio.argmax(axis=-1) + 1, ratio.max(axis=-1) <= 0.0


def select_centers(rho: np.ndarray, delta: np.ndarray, k=None):
    """Indices of the k largest gamma = rho * delta (auto k by gamma gap).

    The centers come in (-gamma, index) order, without a full sort: the
    items at or above the k-th largest gamma, from a partition, are
    sorted stably by gamma.  One row of rho and delta gives one index
    array; a (g, n) stack gives a list of g, with k per row.
    """
    gamma = np.asarray(rho, dtype=float) * np.asarray(delta, dtype=float)
    stack = np.atleast_2d(gamma)
    g, n = stack.shape
    ks = np.broadcast_to(auto_select_k(stack)[0] if k is None else k, (g,))
    if not ((1 <= ks) & (ks <= n)).all():
        raise ValueError(f"k must lie in 1..{n}")
    kth = np.partition(stack, np.unique(n - ks), axis=1)[np.arange(g), n - ks]
    rows, cols = np.nonzero(stack >= kth[:, None])
    order = np.lexsort((-stack[rows, cols], rows))  # stable: tied gammas stay in index order
    cols = cols[order]
    starts = np.searchsorted(rows[order], np.arange(g))
    centers = [cols[lo : lo + kr] for lo, kr in zip(starts, ks)]
    return centers[0] if gamma.ndim == 1 else centers


def follow_neighbors(nn: np.ndarray, centers, center_distances) -> np.ndarray:
    """Cluster ids 1..k from nearest-denser neighbours (nn of delta_neighbors).

    ``nn`` is one row with ``centers`` an index array, or a (g, n) stack
    with ``centers`` a list of g index arrays.  Each item takes the id of
    the first center on its chain i -> nn[i] -> ..., found by pointer
    jumping over the whole stack with the centers as fixed points.  The
    other fixed point is the densest item, its own neighbour; when it is
    not a center, it and every item whose chain ends at it take the id
    of their own nearest center (the first one on a distance tie).
    ``center_distances(row, items)`` gives those items' distances to the
    row's centers, one row per item.
    """
    stack = np.array(nn, dtype=np.int64, ndmin=2)
    per_row = [np.asarray(c, dtype=np.int64) for c in ([centers] if np.ndim(nn) == 1 else centers)]
    g, n = stack.shape
    # item i of row r is entry r * n + i of the flattened stack
    at = n * np.repeat(np.arange(g), [c.size for c in per_row]) + np.concatenate(per_row)
    ids = np.zeros(g * n, dtype=np.int64)
    ids[at] = np.concatenate([np.arange(1, c.size + 1) for c in per_row])
    root = (stack + n * np.arange(g)[:, None]).ravel()
    root[at] = at
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    label = ids[root].reshape(g, n)
    for row in np.flatnonzero((label == 0).any(axis=1)):
        lost = np.flatnonzero(label[row] == 0)
        label[row, lost] = 1 + np.argmin(center_distances(row, lost), axis=1)
    return label[0] if np.ndim(nn) == 1 else label


def halo_split(d, rho: np.ndarray, assignment: np.ndarray, d_c: float):
    """Core/halo flags and per-cluster border densities.

    A member is border when some member of another cluster sits within
    d_c; the border density is the average rho over that region (0 when
    empty) and a member is core when its rho reaches it.  A single
    cluster is all core.
    """
    dm = _dmat(d)
    assignment = np.asarray(assignment, dtype=np.int64)
    k = int(assignment.max())
    is_core = np.ones(rho.size, dtype=bool)
    border_density = np.zeros(k)
    if k == 1:
        return is_core, border_density
    for c in range(1, k + 1):
        members = np.flatnonzero(assignment == c)
        others = np.flatnonzero(assignment != c)
        near_other = (dm[np.ix_(members, others)] <= d_c).any(axis=1)
        border = members[near_other]
        bd = float(rho[border].mean()) if border.size else 0.0
        border_density[c - 1] = bd
        is_core[members] = rho[members] >= bd
    return is_core, border_density


def embed_2d(d):
    """Classical 2-D scaling of a distance matrix.

    Double-centers the squared distances and keeps the top two spectral
    axes, ordered by decreasing eigenvalue, each scaled by the root of
    its eigenvalue.  Signs follow a fixed convention (first nonzero
    coordinate of each axis positive).  An axis whose eigenvalue is
    nonpositive or negligible against the leading one (non-Euclidean or
    rank-deficient input) is returned as zeros rather than as rounding
    noise.
    """
    dm = _dmat(d)
    n = dm.shape[0]
    if n < 3:
        raise ValueError("need at least 3 items to embed")
    j = np.eye(n) - 1.0 / n
    b = -0.5 * j @ (dm ** 2) @ j
    w, vecs = np.linalg.eigh(b)
    coords = np.zeros((n, 2))
    top = [n - 1, n - 2]
    tol = max(float(w[-1]), 0.0) * 1e-9
    for axis, i in enumerate(top):
        if w[i] > tol:
            col = vecs[:, i] * np.sqrt(w[i])
            nz = np.flatnonzero(col != 0)
            if nz.size and col[nz[0]] < 0:
                col = -col
            coords[:, axis] = col
    return coords


def _upper_at_most(pieces, t: float) -> np.ndarray:
    """The entries at or below t of a strict upper triangle given as
    pieces (:func:`_percentile_cutoff`), in no order: one pass over each
    diagonal piece's row tails in row blocks, each block the rectangle
    d[lo:hi, lo + 1:] with the entries left of the diagonal masked off,
    and over each whole piece at once."""
    kept = []
    for d, diagonal in pieces:
        if not diagonal:
            kept.append(d[d <= t])
            continue
        n = len(d)
        # a block's mask, a byte an entry, within a sixteenth of
        # _BLOCK_BYTES (about 130 rows of 1974 windows): a mask small
        # enough to stay in cache while the block is read, in blocks few
        # enough to keep the per-block numpy calls cheap
        for rows in _row_blocks(n - 1, 16 * n):
            lo, hi = rows.start, min(rows.stop, n - 1)
            block = d[lo:hi, lo + 1:]
            keep = block <= t
            # column lo + 1 + c > row lo + r
            keep[:, :hi - lo] &= ~np.tri(hi - lo, k=-1, dtype=bool)
            kept.append(block[keep])
    return np.concatenate(kept)


def _percentile_cutoff(pieces, percentile: float) -> tuple[float, list]:
    """(d_c, flags): the percentile of the distances between distinct
    items, ``np.percentile`` of the strict upper triangle bit for bit, or
    1.0 flagged FLAG_DEGENERATE_DC when that is not positive.

    The triangle comes as a list of pieces (d, diagonal): a diagonal piece
    is a square array whose strict upper triangle d[i, i+1:] counts, a
    whole piece counts every entry.  A full matrix is one diagonal piece;
    the upper day-pair blocks of ``_day_pair_distances`` are a diagonal
    piece for each day and a whole piece for each pair of days.

    As in ``np.percentile`` (linear method), the N triangle entries have
    the virtual index v = (N - 1) q, q = percentile / 100: d_c is the
    largest entry when v >= N - 1, and otherwise lies between the sorted
    entries a and b at k = floor(v) and k + 1, a + (b - a) g for the
    fraction g = v - k below 0.5 and b - (b - a)(1 - g) from 0.5 on.
    Only those two order statistics are needed, so they are taken by
    selection.  A strided sample of the triangle gives a threshold t:
    every c-th entry of the pieces' flattened entries laid end to end,
    c the first integer from max(1, (their count) // 8192) on that is
    prime to each piece's row length, of which a diagonal piece keeps its
    strict upper ones.  t is the sample entry at the share of entries the
    statistics need, plus four binomial standard deviations and 8
    entries.  One pass (:func:`_upper_at_most`) keeps the triangle
    entries at or below t, and a partition of those gives a and b.  When
    too few survive (a sample that misled), the pass is redone with
    t = inf, over every entry.
    """
    q = np.true_divide(percentile, 100)
    if not 0.0 <= q <= 1.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    count = sum(len(d) * (len(d) - 1) // 2 if diagonal else d.size for d, diagonal in pieces)
    v = (count - 1) * q
    k = int(v) if v < count - 1 else count - 1
    need = min(k + 2, count)  # entries up to the order statistic k + 1, or the largest
    stride = max(1, sum(d.size for d, _ in pieces) // 8192)
    # so that the picks visit every column
    while any(math.gcd(stride, d.shape[1]) > 1 for d, _ in pieces):
        stride += 1
    sample, offset = [], 0
    for d, diagonal in pieces:
        picks = np.arange(-offset % stride, d.size, stride)
        if diagonal:
            picks = picks[picks // len(d) < picks % len(d)]
        sample.append(d.reshape(-1)[picks])
        offset += d.size
    sample = np.concatenate(sample)
    share = need / count * sample.size
    rank = int(share + 4.0 * np.sqrt(share) + 8.0)
    t = np.partition(sample, rank)[rank] if rank < sample.size else np.inf
    kept = _upper_at_most(pieces, t)
    if kept.size < need:
        kept = _upper_at_most(pieces, np.inf)
    a, b = np.partition(kept, [k, need - 1])[[k, need - 1]]
    if v >= count - 1:
        d_c = float(b)
    else:
        g = v - k
        diff = b - a
        d_c = float(b - diff * (1 - g) if g >= 0.5 else a + diff * g)
    if not d_c > 0:
        return 1.0, [FLAG_DEGENERATE_DC]
    return d_c, []


def cluster(
    vectors,
    d_c: float | None = None,
    dc_percentile: float = DEFAULT_DC_PERCENTILE,
    k: int | None = None,
) -> ClusterResult:
    """Full pipeline: distances, densities, centers, halos, embedding.

    d_c defaults to the given percentile of the pairwise distances (2nd
    percentile unless told otherwise), the usual density-peaks rule of
    thumb.
    """
    dm = pairwise_distances(vectors)
    flags = []
    if d_c is None:
        d_c, flags = _percentile_cutoff([(dm.d, True)], dc_percentile)
    rho = local_density(dm, d_c)
    delta, nn = delta_neighbors(dm, rho)
    gamma = rho * delta
    if k is None:
        k, degenerate = auto_select_k(gamma)
        if degenerate:
            flags.append(FLAG_DEGENERATE_GAMMA)
    centers = select_centers(rho, delta, k)
    assignment = follow_neighbors(nn, centers, lambda _, items: dm.d[np.ix_(items, centers)])
    is_core, border_density = halo_split(dm, rho, assignment, d_c)
    if dm.n >= 3:
        embedding = embed_2d(dm)
        if (embedding == 0.0).all(axis=0).any():
            flags.append(FLAG_DEGENERATE_EMBEDDING)
    else:
        embedding = np.zeros((dm.n, 2))
        flags.append(FLAG_NO_EMBEDDING)
    return ClusterResult(
        rho=rho,
        delta=delta,
        gamma=gamma,
        centers=centers,
        assignment=assignment,
        is_core=is_core,
        border_density=border_density,
        embedding=embedding,
        d_c=float(d_c),
        flags=tuple(flags),
    )
