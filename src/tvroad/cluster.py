"""Density-peaks clustering of velocity profiles, with a 2-D embedding.

Centers are items that combine high local density (Gaussian kernel of
pairwise distance over d_c) with high separation (distance to the
nearest denser item).  Everything else inherits the cluster of its
nearest denser neighbour, walking items in decreasing density.  Cluster
membership then splits into core and halo by comparing each member's
density against the average density of the cluster's border region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DC_PERCENTILE = 2.0

FLAG_DEGENERATE_GAMMA = "degenerate-gamma"
FLAG_DEGENERATE_DC = "degenerate-dc"
FLAG_DEGENERATE_EMBEDDING = "degenerate-embedding"
FLAG_NO_EMBEDDING = "embedding-skipped"

_BLOCK_BYTES = 1 << 22  # temporary-array size per row block of an (n, n) or (n, n, d) pass
_NEIGHBORS = 32  # columns kept of each row's (distance, index) order in SortedNeighbors


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


def pairwise_distances(vectors) -> DistanceMatrix:
    """Symmetric l2 distance matrix between equal-length vectors.

    Rows lo..hi are built from column lo on and mirrored below the
    diagonal, which is exact since (a - b) ** 2 == (b - a) ** 2; each
    entry is the same ``sqrt(((x_i - x_j) ** 2).sum())`` reduction as a
    one-shot (n, n, d) difference array would give.  A block takes as
    many rows as keep its temporaries within ``_BLOCK_BYTES``, so blocks
    lengthen as rows shorten; temporaries that shrank block by block
    would be served from the malloc heap and stay resident (with glibc,
    +6 MB peak RSS when clustering 180 profiles of 288 slices).
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least 2 equal-length vectors")
    n = x.shape[0]
    d = np.empty((n, n))
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _BLOCK_BYTES // (8 * (n - lo) * x.shape[1])))
        diff = x[lo:hi, None, :] - x[None, lo:, :]
        d[lo:hi, lo:] = np.sqrt((diff ** 2).sum(axis=-1))
        d[lo:, lo:hi] = d[lo:hi, lo:].T
        lo = hi
    return DistanceMatrix(d)


def local_density(d, d_c: float) -> np.ndarray:
    """rho_i = sum_{j != i} exp(-(d_ij / d_c)^2), in row blocks; each row
    sums as it would in one (n, n) pass."""
    if not (d_c > 0):
        raise ValueError("d_c must be positive")
    dm = _dmat(d)
    rho = np.empty(len(dm))
    for rows in _row_blocks(len(dm), 8 * dm.shape[1]):
        rho[rows] = np.exp(-((dm[rows] / d_c) ** 2)).sum(axis=1)
    return rho - 1.0


def delta_neighbors(d, rho: np.ndarray):
    """Separation of each item and the neighbour that realizes it.

    Returns (delta, nn, order): delta_i is the distance to the nearest
    item denser than i, nn_i that item's index, order the item indices
    in decreasing density.  Density ties treat the lower index as the
    denser one.  The globally densest item gets delta = max distance and
    itself as neighbour.
    """
    dm = _dmat(d)
    n = rho.size
    order = np.argsort(-rho, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    masked = np.where(rank[None, :] < rank[:, None], dm, np.inf)
    delta = masked.min(axis=1)
    nn = masked.argmin(axis=1)
    top = order[0]
    delta[top] = dm[top].max()
    nn[top] = top
    return delta, nn, order


class SortedNeighbors:
    """Nearest-denser searches over a fixed item set plus one added item.

    Stores each fixed item's first ``_NEIGHBORS`` neighbours in
    (distance, index) order, the head of a stable argsort of its row,
    and its row maximum.  For an added item n with distances ``d_new``
    to the n fixed items, :meth:`delta_neighbors` returns what
    :func:`delta_neighbors` gives on the bordered (n+1)-square matrix,
    bit for bit, without building that matrix: each fixed item's
    nearest denser fixed item is the first denser entry of its sorted
    row, found in the stored head or else by a scan of the whole row,
    and the added item takes over only at a strictly smaller distance,
    since its index loses ties.
    """

    def __init__(self, d):
        self.d = _dmat(d)
        n = len(self.d)
        k = min(_NEIGHBORS, n)
        # per row block: the k nearest columns, put in (distance, index)
        # order; of the columns tied at a row's k-th distance argpartition
        # keeps an arbitrary subset, so rows that had more such columns
        # than room take the lowest-index ones instead
        self.nearest = np.empty((n, k), dtype=np.int32)
        for rows in _row_blocks(n, 8 * n):
            block = self.d[rows]
            part = np.argpartition(block, k - 1, axis=1)[:, :k]
            dist = np.take_along_axis(block, part, axis=1)
            part = np.take_along_axis(part, np.lexsort((part, dist), axis=1), axis=1)
            kth = dist.max(axis=1, keepdims=True)
            cut = np.flatnonzero((block <= kth).sum(axis=1) > k)
            if cut.size:
                below = (block[cut] < kth[cut]).sum(axis=1, keepdims=True)
                tied = np.argsort(block[cut] != kth[cut], axis=1, kind="stable")
                fill = np.take_along_axis(tied, np.maximum(np.arange(k) - below, 0), axis=1)
                part[cut] = np.where(np.arange(k) < below, part[cut], fill)
            self.nearest[rows] = part
        self.row_max = self.d.max(axis=1)

    def delta_neighbors(self, d_new: np.ndarray, rho: np.ndarray):
        """(delta, nn) of the n + 1 items; rho[n] is the added item's density."""
        n = len(self.d)
        order = np.argsort(-rho, kind="stable")
        rank = np.empty(n + 1, dtype=np.int64)
        rank[order] = np.arange(n + 1)
        delta = np.full(n + 1, np.inf)
        nn = np.full(n + 1, n, dtype=np.int64)
        # every fixed item but the densest one has a denser fixed item;
        # scan the sorted heads in doubling column blocks until it shows
        densest_fixed = order[0] if order[0] < n else order[1]
        rows = np.delete(np.arange(n), densest_fixed)
        lo, hi = 0, 8
        while rows.size and lo < self.nearest.shape[1]:
            cols = self.nearest[rows, lo:hi]
            denser = rank[cols] < rank[rows, None]
            hit = denser.any(axis=1)
            nn[rows[hit]] = cols[hit, denser[hit].argmax(axis=1)]
            rows = rows[~hit]
            lo, hi = hi, 2 * hi
        # the rest: the first minimum over the denser items of the whole
        # row, the lowest index on a distance tie as in the sorted order
        for block in _row_blocks(rows.size, 8 * n):
            left = rows[block]
            masked = np.where(rank[None, :n] < rank[left, None], self.d[left], np.inf)
            nn[left] = masked.argmin(axis=1)
        found = np.flatnonzero(nn[:n] < n)
        delta[found] = self.d[found, nn[found]]
        take = (rank[n] < rank[:n]) & (d_new < delta[:n])
        delta[:n][take] = d_new[take]
        nn[:n][take] = n
        top = order[0]
        if top == n:
            delta[n] = d_new.max()
        else:
            row = np.where(rank[:n] < rank[n], d_new, np.inf)
            nn[n] = np.argmin(row)
            delta[n] = row[nn[n]]
            delta[top] = max(self.row_max[top], d_new[top])
        nn[top] = top
        return delta, nn

    def bordered(self, d_new: np.ndarray, items, cols) -> np.ndarray:
        """Entries (items x cols) of the bordered (n+1)-square matrix."""
        n = len(self.d)
        return np.array([
            (np.append(self.d[i], d_new[i]) if i < n else np.append(d_new, 0.0))[cols]
            for i in items
        ])


def auto_select_k(gamma: np.ndarray) -> tuple[int, bool]:
    """Cluster count at the largest relative gap of sorted gamma.

    Scans positions 1..min(n-1, 10) of the descending gamma sequence and
    puts the cut where (gamma_p-1 - gamma_p) / gamma_p peaks; a gap onto
    an exactly zero gamma counts as infinite, as does one whose ratio
    overflows (onto a subnormal gamma).  Returns (k, degenerate);
    degenerate means no usable gap existed (all gamma equal) and k is 1.
    """
    gs = np.sort(np.asarray(gamma, dtype=float))[::-1]
    n = gs.size
    best = -1.0
    k = 1
    for p in range(1, min(n - 1, 10) + 1):
        if gs[p] > 0.0:
            with np.errstate(over="ignore"):  # over a subnormal gamma the gap can be inf
                ratio = (gs[p - 1] - gs[p]) / gs[p]
        elif gs[p - 1] > 0.0:
            ratio = np.inf
        else:
            continue
        if ratio > best:
            best = ratio
            k = p
    return k, best <= 0.0


def select_centers(rho: np.ndarray, delta: np.ndarray, k: int | None = None) -> np.ndarray:
    """Indices of the k largest gamma = rho * delta (auto k by gamma gap)."""
    gamma = np.asarray(rho, dtype=float) * np.asarray(delta, dtype=float)
    if k is None:
        k, _ = auto_select_k(gamma)
    if not (1 <= k <= gamma.size):
        raise ValueError(f"k must lie in 1..{gamma.size}")
    return np.argsort(-gamma, kind="stable")[:k]


def follow_neighbors(nn: np.ndarray, centers, center_distances) -> np.ndarray:
    """Cluster ids 1..k from nearest-denser neighbours (nn of delta_neighbors).

    Each item takes the id of the first center on its chain i -> nn[i]
    -> ..., found by pointer jumping with the centers as fixed points.
    The other fixed point is the densest item, its own neighbour; when
    it is not a center, it and every item whose chain ends at it take
    the id of their own nearest center (the first one on a distance
    tie).  ``center_distances(items)`` gives those items' distances to
    the centers, one row per item.
    """
    centers = np.asarray(centers, dtype=np.int64)
    ids = np.zeros(nn.size, dtype=np.int64)
    ids[centers] = np.arange(1, centers.size + 1)
    root = np.array(nn, dtype=np.int64)
    root[centers] = centers
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    label = ids[root]
    lost = np.flatnonzero(label == 0)
    if lost.size:
        label[lost] = 1 + np.argmin(center_distances(lost), axis=1)
    return label


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


def _percentile_cutoff(d: np.ndarray, percentile: float) -> tuple[float, list]:
    """(d_c, flags): the percentile of the distances between distinct
    items, or 1.0 flagged FLAG_DEGENERATE_DC when that is not positive."""
    d_c = float(np.percentile(d[np.triu(np.ones(d.shape, dtype=bool), 1)], percentile))
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
        d_c, flags = _percentile_cutoff(dm.d, dc_percentile)
    rho = local_density(dm, d_c)
    delta, nn, _ = delta_neighbors(dm, rho)
    gamma = rho * delta
    if k is None:
        k, degenerate = auto_select_k(gamma)
        if degenerate:
            flags.append(FLAG_DEGENERATE_GAMMA)
    centers = select_centers(rho, delta, k)
    assignment = follow_neighbors(nn, centers, lambda items: dm.d[np.ix_(items, centers)])
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
