import dataclasses
import importlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvroad.cluster import (
    FLAG_DEGENERATE_DC,
    FLAG_DEGENERATE_EMBEDDING,
    FLAG_DEGENERATE_GAMMA,
    FLAG_NO_EMBEDDING,
    DistanceMatrix,
    HistoryPeaks,
    auto_select_k,
    cluster,
    delta_neighbors,
    embed_2d,
    follow_neighbors,
    halo_split,
    local_density,
    pairwise_distances,
    select_centers,
)
from tvroad.forecast import build_history
from tvroad.noise import SWEEP_SOLVER, estimate_sigma
from tvroad.solver import denoise_values
from tvroad.synth import two_regime_corpus

# the package's ``cluster`` attribute is the function, not the module
cluster_module = importlib.import_module("tvroad.cluster")

LINE = np.array([[0.0], [1.0], [3.0]])


def _unpacked(blocks):
    """The full day-major matrix of the upper day-pair blocks of
    ``_day_pair_distances``: block (a, b) and its transpose at (b, a)."""
    w = blocks.shape[1]
    n_days = cluster_module._block_days(blocks)
    d = np.empty((n_days * w,) * 2)
    for block, (a, b) in zip(blocks, cluster_module._day_pairs(n_days)):
        d[a * w : a * w + w, b * w : b * w + w] = block
        d[b * w : b * w + w, a * w : a * w + w] = block.T
    return d


def _reference_delta_neighbors(d, rho):
    """Full-matrix nearest-denser search by the stable argsort of -rho:
    the rank oracle for delta_neighbors.  Returns (delta, nn, order),
    order the item indices in decreasing density."""
    dm = np.asarray(d.d if isinstance(d, DistanceMatrix) else d, dtype=float)
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


def _walk(dm, rho, centers):
    """Labels from follow_neighbors on the neighbours of delta_neighbors."""
    centers = np.asarray(centers)
    return follow_neighbors(delta_neighbors(dm, rho)[1], centers,
                            lambda _, items: dm[np.ix_(items, centers)])


def _reference_assign(dm, rho, centers):
    """The sequential labelling walk that follow_neighbors replaced."""
    centers = np.asarray(centers, dtype=np.int64)
    label = np.zeros(rho.size, dtype=np.int64)
    for cid, c in enumerate(centers, start=1):
        label[c] = cid
    _, nn, order = _reference_delta_neighbors(dm, rho)
    for i in order:
        if label[i] == 0:
            label[i] = label[nn[i]]
    for i in np.flatnonzero(label == 0):
        label[i] = 1 + int(np.argmin(dm[i, centers]))
    return label


@st.composite
def tied_points(draw, min_n=2, max_n=30):
    """Small-integer points with tied densities: many exact distance and rho ties."""
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, 3))
    pts = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)), dtype=float)
    rho = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5]), min_size=n, max_size=n)))
    return pts, rho


def three_blobs(n_per=20, seed=0, spread=0.25):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    return np.concatenate([c + rng.normal(0.0, spread, (n_per, 2)) for c in centers])


class TestDistances:
    def test_right_triangle(self):
        dm = pairwise_distances([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        assert dm.d[0, 1] == 3.0 and dm.d[0, 2] == 4.0 and dm.d[1, 2] == 5.0
        assert dm.n == 3

    def test_matrix_validation(self):
        # a caller's matrix keeps every check, also a copy of a built one
        built = pairwise_distances(three_blobs(n_per=3)).d.copy()
        built[1, 4] += 1e-12
        for d, message in [(np.ones((2, 3)), "square"), (built, "symmetric"),
                           (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
                           (np.array([[0.0, -1.0], [-1.0, 0.0]]), "negative"),
                           (np.array([[1.0, 1.0], [1.0, 1.0]]), "diagonal"),
                           (np.array([[0.0, np.nan], [np.nan, 0.0]]), "non-finite"),
                           (np.array([[0.0, np.inf], [np.inf, 0.0]]), "non-finite")]:
            with pytest.raises(ValueError, match=message):
                DistanceMatrix(d)

    @pytest.mark.parametrize("dim", [4, 288])
    def test_non_finite_distances_raise(self, dim):
        x = np.random.default_rng(0).normal(30.0, 8.0, (6, dim))
        x[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite distance"):
            pairwise_distances(x)
        x[3, 1] = 1e200  # its squared differences overflow to inf
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite distance"):
            pairwise_distances(x)

    def test_matrix_read_only(self):
        dm = pairwise_distances(LINE)
        with pytest.raises(ValueError):
            dm.d[0, 1] = 9.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_row_blocks_equal_one_shot_formula(self, data):
        # widths below 8 are summed column by column, wider ones reduced
        dim = data.draw(st.sampled_from([1, 2, 3, 4, 7, 8, 288]), label="dim")
        # the one-shot reference holds two (n, n, dim) arrays
        n = data.draw(st.integers(2, 150 if dim == 288 else 400), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        # one-row blocks, and blocks that start at 3 or 7 rows and lengthen
        # down the triangle; each block's diagonal square is built whole
        # before the block is mirrored
        block = data.draw(st.sampled_from([1, 8 * dim * n, 3 * 8 * dim * n, 7 * 8 * dim * n, 1 << 22]),
                          label="block")
        rng = np.random.default_rng(seed)
        x = rng.normal(30.0, 8.0, (n, dim))
        x[rng.integers(0, n, n // 3)] = x[0]  # repeated rows: exact zero distances
        diff = x[:, None, :] - x[None, :, :]
        expected = np.sqrt((diff ** 2).sum(axis=-1))
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            got = pairwise_distances(x).d
        assert np.array_equal(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_day_pairs_equal_pairwise_of_the_windows(self, data):
        # small integers give distance ties, signed zeros and constant days
        # give exact zeros; every entry must match in all 64 bits
        kinds = data.draw(st.lists(st.sampled_from(["ints", "zeros", "constant", "normal"]),
                                   min_size=1, max_size=4), label="kinds")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        days = []
        for kind in kinds:
            if kind == "ints":
                day = rng.integers(0, 4, 288).astype(float)
            elif kind == "zeros":
                day = rng.choice([0.0, -0.0, 1.0], 288)
            elif kind == "constant":
                day = np.full(288, float(rng.integers(-2, 40)))
            else:
                day = rng.normal(30.0, 8.0, 288)
            days.append(day)
        blocks = cluster_module._day_pair_distances(np.array(days), 282, 4)
        got = _unpacked(blocks)
        want = pairwise_distances(build_history(days).windows).d
        assert got.shape == want.shape and not blocks.flags.writeable
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_day_pair_lists_fill_one_matrix_in_place(self):
        # two disjoint pair lists, as two threads fill them, write one
        # matrix, which they leave writable, over whatever it held
        days = np.random.default_rng(3).normal(30.0, 8.0, (4, 288))
        want = cluster_module._day_pair_distances(days, 282, 4)
        pairs = cluster_module._day_pairs(len(days))
        assert pairs == [(a, b) for a in range(4) for b in range(a, 4)]
        out = np.full(want.shape, np.nan)
        for part in (pairs[::2], pairs[1::2]):
            assert cluster_module._day_pair_distances(days, 282, 4, out=out, pairs=part) is out
        assert out.flags.writeable
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))

    def test_pair_distances_equal_the_matrix_entries(self):
        pts = np.round(np.random.default_rng(4).normal(30.0, 3.0, (60, 4)))  # many ties
        d = pairwise_distances(pts).d
        i, j = np.divmod(np.arange(60 * 60), 60)
        got = cluster_module._pair_distances(np.ascontiguousarray(pts.T), i, j)
        assert np.array_equal(got.view(np.uint64), d.reshape(-1).view(np.uint64))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("at", [0, 150, 284])
    def test_day_pairs_raise_on_a_non_finite_slice(self, value, at):
        days = np.random.default_rng(1).normal(30.0, 8.0, (3, 288))
        days[1, at] = value  # 1e200: its squared differences overflow to inf
        windows = build_history(list(days)).windows
        with np.errstate(over="ignore", invalid="ignore"):
            for build in (lambda: pairwise_distances(windows),
                          lambda: cluster_module._day_pair_distances(days, 282, 4)):
                with pytest.raises(ValueError, match="^non-finite distance$"):
                    build()

    def test_day_pairs_overflow_raises_without_warning(self):
        days = np.random.default_rng(1).normal(30.0, 8.0, (3, 288))
        days[1] *= 1e200  # its squared differences overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^non-finite distance$"):
                cluster_module._day_pair_distances(days, 282, 4)

    def test_day_pairs_read_only_the_window_slices(self):
        # slices past the last window's end (here 286..288) are labels only
        days = np.random.default_rng(2).normal(30.0, 8.0, (2, 288))
        days[:, 285:] = np.nan
        got = _unpacked(cluster_module._day_pair_distances(days, 282, 4))
        assert np.array_equal(got, pairwise_distances(build_history(list(days)).windows).d)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_assembled_rows_equal_pairwise_rows(self, data):
        # any row range, one that spans day boundaries too, in row blocks
        # of one row, a few rows or all; small integers tie heavily
        n_days = data.draw(st.integers(1, 4), label="n_days")
        n_windows = data.draw(st.integers(2, 12), label="n_windows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        days = rng.integers(0, 4, (n_days, n_windows + 3)).astype(float)
        m = n_days * n_windows
        lo = data.draw(st.integers(0, m - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, m), label="hi")
        block = data.draw(st.sampled_from([1, 8 * m, 3 * 8 * m, 1 << 22]), label="block")
        windows = np.lib.stride_tricks.sliding_window_view(days, 4, axis=1)[:, :n_windows]
        want = pairwise_distances(windows.reshape(-1, 4)).d[lo:hi]
        blocks = cluster_module._day_pair_distances(days, n_windows, 4)
        got = cluster_module._day_pair_rows(blocks, lo, hi, np.full((hi - lo, m), np.nan))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            parts = [(at, rows.copy()) for at, rows in
                     cluster_module._row_source(blocks, slice(lo, hi), 8)]
        assert [at.start for at, _ in parts] == [lo] + [at.stop for at, _ in parts[:-1]]
        assert parts[-1][0].stop == hi
        got = np.concatenate([rows for _, rows in parts])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_pipeline_row_halves_equal_pairwise_rows(self):
        # 7 days of 282 windows, split at m // 2 = 987, inside day 3
        days = np.random.default_rng(6).normal(30.0, 8.0, (7, 288))
        blocks = cluster_module._day_pair_distances(days, 282, 4)
        want = pairwise_distances(build_history(list(days)).windows).d
        for lo, hi in ((0, 987), (987, 1974), (840, 850)):
            got = cluster_module._day_pair_rows(blocks, lo, hi, np.empty((hi - lo, 1974)))
            assert np.array_equal(got.view(np.uint64), want[lo:hi].view(np.uint64))


class TestLocalDensity:
    def test_exponential_kernel(self):
        rho = local_density(pairwise_distances([[0.0], [1.0], [2.0]]), d_c=1.0)
        edge = np.exp(-1.0) + np.exp(-4.0)
        np.testing.assert_allclose(rho, [edge, 2.0 * np.exp(-1.0), edge], rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from([1, 8 * 7, 1 << 22]))
    def test_row_blocks_equal_one_shot_formula(self, n, seed, block):
        d = pairwise_distances(np.random.default_rng(seed).normal(30.0, 8.0, (n, 4))).d
        expected = np.exp(-((d / 3.0) ** 2)).sum(axis=1) - 1.0
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            assert np.array_equal(local_density(d, 3.0), expected)

    def test_requires_positive_dc(self):
        with pytest.raises(ValueError):
            local_density(pairwise_distances(LINE), d_c=0.0)

    @pytest.mark.parametrize("d_c", [np.inf, np.nan])
    def test_rejects_a_non_finite_dc(self, d_c):
        # an infinite d_c gives every pair the weight 1, and so a density
        # that reads nothing of the distances
        with pytest.raises(ValueError, match="d_c must be positive"):
            local_density(pairwise_distances(LINE), d_c=d_c)
        with pytest.raises(ValueError, match="d_c must be positive"):
            cluster(three_blobs(), d_c=d_c)

    def test_whole_matrix_rows_equal_the_formula(self):
        # a whole matrix is read as one day's block, its rows copied into
        # the scratch where the kernel runs: every density, of a full call
        # and of row halves, bit for bit, and the matrix is left as it was
        d = pairwise_distances(np.random.default_rng(8).normal(30.0, 8.0, (1974, 4))).d
        before = d.copy()
        want = np.exp(-((d / 3.0) ** 2)).sum(axis=1) - 1.0
        halves = np.concatenate([local_density(d, 3.0, slice(0, 987)),
                                 local_density(d, 3.0, slice(987, 1974))])
        for got in (local_density(d, 3.0), halves):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(d.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("step", [2, -1, 0])
    def test_stepped_row_slice_raises(self, step):
        # slice(0, 10, 2) would name rows 0, 2, ..., 8, not ten rows
        dm = pairwise_distances(np.arange(12.0)[:, None])
        with pytest.raises(ValueError, match="row slices take no step"):
            local_density(dm, 1.0, slice(0, 10, step))


class TestDeltaNeighbors:
    def test_chain(self):
        dm = pairwise_distances(LINE)
        delta, nn = delta_neighbors(dm, np.array([3.0, 2.0, 1.0]))
        # densest item reaches across its whole row; the others look up
        np.testing.assert_array_equal(delta, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(nn, [0, 0, 1])

    def test_density_tie_breaks_by_index(self):
        dm = pairwise_distances(LINE)
        delta, nn = delta_neighbors(dm, np.array([2.0, 2.0, 1.0]))
        assert nn[1] == 0 and delta[1] == 1.0
        assert nn[0] == 0 and delta[0] == 3.0

    @settings(max_examples=200, deadline=None)
    @given(case=tied_points())
    def test_matches_stable_rank_oracle(self, case):
        pts, rho = case
        dm = pairwise_distances(pts).d
        delta, nn = delta_neighbors(dm, rho)
        want_delta, want_nn, _ = _reference_delta_neighbors(dm, rho)
        np.testing.assert_array_equal(delta, want_delta)
        np.testing.assert_array_equal(nn, want_nn)

    @pytest.mark.parametrize("step", [2, -1, 0])
    def test_stepped_row_slice_raises(self, step):
        dm = pairwise_distances(np.arange(12.0)[:, None])
        with pytest.raises(ValueError, match="row slices take no step"):
            delta_neighbors(dm, np.arange(12.0), slice(0, 10, step))

    @settings(max_examples=100, deadline=None)
    @given(case=tied_points(), data=st.data())
    def test_row_slices_equal_the_whole_pass(self, case, data):
        # a slice of rows, the densest item's among them or not, as
        # compare_pipelines splits the pass across its two threads
        pts, rho = case
        dm = pairwise_distances(pts).d
        lo = data.draw(st.integers(0, rho.size), label="lo")
        hi = data.draw(st.integers(lo, rho.size), label="hi")
        block = data.draw(st.sampled_from([1, 2000, 1 << 22]), label="block")
        want_delta, want_nn = delta_neighbors(dm, rho)
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            delta, nn = delta_neighbors(dm, rho, slice(lo, hi))
        np.testing.assert_array_equal(delta, want_delta[lo:hi])
        np.testing.assert_array_equal(nn, want_nn[lo:hi])

    @settings(max_examples=100, deadline=None)
    @given(case=tied_points(), block=st.sampled_from([1, 2000, 6000, 1 << 22]))
    def test_row_blocks_match_stable_rank_oracle(self, case, block):
        # blocks of one row, of a few rows and one block for all rows
        pts, rho = case
        dm = pairwise_distances(pts).d
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            delta, nn = delta_neighbors(dm, rho)
        want_delta, want_nn, _ = _reference_delta_neighbors(dm, rho)
        np.testing.assert_array_equal(delta, want_delta)
        np.testing.assert_array_equal(nn, want_nn)


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_day_pair_blocks_match_stable_rank_oracle(self, data):
        # the upper day-pair blocks as compare_pipelines passes them: any
        # row slice, across day boundaries, the densest item's among them
        # or not; tied windows and tied densities
        n_days = data.draw(st.integers(1, 3), label="n_days")
        n_windows = data.draw(st.integers(2, 10), label="n_windows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        days = rng.integers(0, 3, (n_days, n_windows + 3)).astype(float)
        blocks = cluster_module._day_pair_distances(days, n_windows, 4)
        m = n_days * n_windows
        rho = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5]), min_size=m,
                                          max_size=m), label="rho"))
        lo = data.draw(st.integers(0, m), label="lo")
        hi = data.draw(st.integers(lo, m), label="hi")
        block = data.draw(st.sampled_from([1, 2000, 1 << 22]), label="block")
        want_delta, want_nn, _ = _reference_delta_neighbors(_unpacked(blocks), rho)
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            delta, nn = delta_neighbors(blocks, rho, slice(lo, hi))
        np.testing.assert_array_equal(delta, want_delta[lo:hi])
        np.testing.assert_array_equal(nn, want_nn[lo:hi])


class TestOneLayout:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matrix_one_day_and_day_pair_blocks_read_alike(self, data):
        # the density, separation and d_c passes read upper day-pair
        # blocks: the whole matrix, as a DistanceMatrix or an array, its
        # one-day form d[None] and the day-pair blocks of the same windows
        # give the same bits, on any row slice and in any row blocks
        n_days = data.draw(st.integers(1, 4), label="n_days")
        n_windows = data.draw(st.integers(2, 10), label="n_windows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        days = rng.integers(0, 3, (n_days, n_windows + 3)).astype(float)
        windows = np.lib.stride_tricks.sliding_window_view(days, 4, axis=1)[:, :n_windows]
        dm = pairwise_distances(windows.reshape(-1, 4))
        m = n_days * n_windows
        lo = data.draw(st.integers(0, m), label="lo")
        hi = data.draw(st.integers(lo, m), label="hi")
        rows = slice(lo, hi)
        block = data.draw(st.sampled_from([1, 2000, 1 << 22]), label="block")
        percentile = data.draw(PERCENTILES, label="percentile")
        d_c = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="d_c")
        rho = local_density(dm, d_c)
        got = []
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            for d in (dm, dm.d, dm.d[None], cluster_module._day_pair_distances(days, n_windows, 4)):
                cutoff, flags = cluster_module._percentile_cutoff(d, percentile)
                delta, nn = delta_neighbors(d, rho, rows)
                got.append((local_density(d, d_c, rows).tobytes(), delta.tobytes(), nn.tobytes(),
                            np.float64(cutoff).tobytes(), flags))
        assert got[1:] == got[:1] * 3
        assert got[0][0] == rho[rows].tobytes()


# History densities for HistoryPeaks: a base plus whole steps, each exact
# or one rounding step either side, so gaps fall at 1 and just past it;
# 1 + 3 * 2**-52 plus 1 rounds up, past the gap of the exact sum.
_BASES = [0.0, 0.75, 1.0 + 3 * 2.0 ** -52, 7.0]
# kernel weights: 0 (underflow from a far goal), the smallest subnormal,
# 0.5, 1 - 2**-53 and 1 (a goal equal to a window)
_WEIGHTS = [0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0]


def _bordered(d, d_new_row):
    """The (n+1)-square matrix of d with one added item's distances."""
    n = len(d)
    full = np.zeros((n + 1, n + 1))
    full[:n, :n] = d
    full[n, :n] = full[:n, n] = d_new_row
    return full


@st.composite
def history_goals(draw, max_n=14, max_rows=6):
    """(pts, rho0, d_new, rho): small-integer history points and their
    densities rho0 with gaps at and around 1, and a stack of added
    points: row r of rho holds rho0 + w_r, 0 <= w_r <= 1 (1 where the added
    point is a history point), then the added item's density, which is
    sometimes the largest of all."""
    pts, _ = draw(tied_points(min_n=2, max_n=max_n))
    n, dim = pts.shape
    base = draw(st.sampled_from(_BASES), label="base")
    steps = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1, 0, 1])),
                          min_size=n, max_size=n), label="steps")
    rho0 = np.array([np.nextafter(base + k, side * np.inf) if side else base + k
                     for k, side in steps])
    added = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                                   min_size=1, max_size=max_rows), label="added"), dtype=float)
    d_new = np.sqrt(((added[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    w = np.array(draw(st.lists(st.sampled_from(_WEIGHTS), min_size=d_new.size,
                               max_size=d_new.size), label="w")).reshape(d_new.shape)
    w[d_new == 0.0] = 1.0
    rho = np.empty((len(added), n + 1))
    rho[:, :n] = rho0 + w
    rho[:, n] = [draw(st.sampled_from([0.0, float(row.sum()), base + 1.0, 1e3]), label="added rho")
                 for row in w]
    return pts, rho0, d_new, rho


def _peaks(pts, rho0):
    """HistoryPeaks of the points pts, which it holds column-wise."""
    d = pairwise_distances(pts).d
    return HistoryPeaks(np.ascontiguousarray(pts.T), rho0, *delta_neighbors(d, rho0))


class TestHistoryPeaks:
    @settings(max_examples=300, deadline=None)
    @given(case=history_goals(), block=st.sampled_from([1, 700, 1 << 22]))
    def test_rows_match_bordered_search(self, case, block):
        # a tiny block budget splits the history pass, the band of flip
        # candidates and the whole-row searches into many blocks
        pts, rho0, d_new, rho = case
        d = pairwise_distances(pts).d
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            delta, nn = _peaks(pts, rho0).delta_neighbors(d_new, rho)
        assert delta.shape == nn.shape == rho.shape
        for r in range(len(rho)):
            want_delta, want_nn, _ = _reference_delta_neighbors(_bordered(d, d_new[r]), rho[r])
            np.testing.assert_array_equal(delta[r], want_delta)
            np.testing.assert_array_equal(nn[r], want_nn)

    @settings(max_examples=100, deadline=None)
    @given(case=history_goals(max_rows=1), block=st.sampled_from([1, 700, 1 << 22]))
    def test_build_keeps_every_pair_and_item_a_weight_can_flip(self, case, block):
        # the band search finds what a test of every (i, j) pair would:
        # j ahead of nn_i in (distance, index) order, not denser than i,
        # and rho0_j + 1, rounded, at least rho0_i; and the row maxima of
        # the items that can be densest, those within reach of the densest
        pts, rho0 = case[:2]
        d = pairwise_distances(pts).d
        n = rho0.size
        delta, nn = delta_neighbors(d, rho0)
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            peaks = HistoryPeaks(np.ascontiguousarray(pts.T), rho0, delta, nn)
        top = int(np.argmax(rho0))
        want = sorted(
            (i, d[i, j], j) for i in range(n) for j in range(n)
            if i not in (j, top) and (d[i, j], j) < (delta[i], nn[i])
            and not (rho0[j] > rho0[i] or (rho0[j] == rho0[i] and j < i))
            and rho0[j] + 1.0 >= rho0[i])
        assert list(zip(peaks.cand_i.tolist(), peaks.cand_d.tolist(), peaks.cand_j.tolist())) == want
        assert peaks.fragile.tolist() == [i for i in range(n)
                                          if i != top and rho0[i] + 1.0 >= rho0[nn[i]]]
        can_top = rho0 + 1.0 >= rho0[top]
        np.testing.assert_array_equal(peaks.row_max[can_top], d[can_top].max(axis=1))
        assert np.isnan(peaks.row_max[~can_top]).all()

    def test_gap_one_rounding_step_past_1(self):
        # 1 + 3 * 2**-52 and 2 + 2**-50 lie 1 + 2**-52 apart, so a plain
        # `gap <= 1` test drops the pair; yet the lower one plus a weight
        # of 1 rounds up to the higher one and wins the tie on its lower
        # index: item 1 takes item 0 as nearest denser (a flip candidate),
        # and item 0 loses its nearest denser item 1 (a fragile item)
        low, high = 1.0 + 3 * 2.0 ** -52, 2.0 + 2.0 ** -50
        assert low + 1.0 == high and high - low > 1.0
        pts = np.array([[0.0], [1.0], [9.0]])
        d = pairwise_distances(pts).d
        rho0 = np.array([low, high, 10.0])
        d_new = np.array([[5.0, 4.0, 4.0]])
        rho = np.array([[high, high, 10.0, 0.0]])
        delta, nn = _peaks(pts, rho0).delta_neighbors(d_new, rho)
        want_delta, want_nn, _ = _reference_delta_neighbors(_bordered(d, d_new[0]), rho[0])
        np.testing.assert_array_equal(delta[0], want_delta)
        np.testing.assert_array_equal(nn[0], want_nn)
        assert nn[0].tolist() == [2, 0, 2, 1]

    @pytest.mark.parametrize("tied", [0, 3])
    def test_distance_tie_at_delta0_goes_to_the_lower_index(self, tied):
        # item 1 at 0 has nn 2 at distance 1; the item at -1, tied at that
        # distance, turns denser and takes over only when its index is lower
        far = 3 - tied
        pts = np.zeros((4, 1))
        pts[[1, 2, tied, far], 0] = [0.0, 1.0, -1.0, 10.0]
        rho0 = np.zeros(4)
        rho0[[1, 2, tied, far]] = [5.0, 6.0, 4.5, 20.0]
        d = pairwise_distances(pts).d
        w = np.zeros(4)
        w[tied] = 1.0
        d_new = np.abs(pts[:, 0] - 30.0)[None]
        rho = np.append(rho0 + w, 0.0)[None]
        delta, nn = _peaks(pts, rho0).delta_neighbors(d_new, rho)
        want_delta, want_nn, _ = _reference_delta_neighbors(_bordered(d, d_new[0]), rho[0])
        np.testing.assert_array_equal(delta[0], want_delta)
        np.testing.assert_array_equal(nn[0], want_nn)
        assert nn[0, 1] == (tied if tied < 2 else 2)

    @pytest.mark.parametrize("by", ["window", "added item"])
    def test_densest_window_displaced(self, by):
        # item 0 is densest; a weight of 1 lifts item 1 above it, or the
        # added item is densest of all: item 0 then needs its nearest denser
        pts = np.array([[0.0], [1.0], [2.0], [4.0]])
        d = pairwise_distances(pts).d
        rho0 = np.array([3.0, 2.5, 1.0, 0.0])
        d_new = np.array([[0.5, 0.5, 1.5, 3.5]])
        rho = np.append(rho0 + [0.0, 1.0, 0.0, 0.0], 0.0)[None] if by == "window" else \
            np.append(rho0, 10.0)[None]
        delta, nn = _peaks(pts, rho0).delta_neighbors(d_new, rho)
        want_delta, want_nn, _ = _reference_delta_neighbors(_bordered(d, d_new[0]), rho[0])
        np.testing.assert_array_equal(delta[0], want_delta)
        np.testing.assert_array_equal(nn[0], want_nn)
        assert nn[0, 0] == (1 if by == "window" else 4)

    @pytest.mark.parametrize("densest", [0, 2, 3])
    def test_added_item_loses_distance_ties(self, densest):
        # item 3 is added; 0 and 3 both sit at distance 1 from item 1,
        # and when 3 is denser than 1 it still loses that tie to 0
        pts = np.array([[0.0], [1.0], [5.0], [2.0]])
        rho = np.ones(4)
        rho[densest] = 2.0
        full = pairwise_distances(pts).d
        delta, nn = _peaks(pts[:3], rho[:3]).delta_neighbors(full[None, 3, :3], rho[None])
        delta, nn = delta[0], nn[0]
        want_delta, want_nn, _ = _reference_delta_neighbors(full, rho)
        np.testing.assert_array_equal(delta, want_delta)
        np.testing.assert_array_equal(nn, want_nn)
        assert nn[1] == 0
        if densest == 3:
            assert nn[0] == 3 and nn[3] == 3 and delta[3] == 3.0

    @pytest.mark.parametrize("history", ["flat", "tie-heavy denoised"])
    def test_recomputed_distances_equal_the_matrix_bit_for_bit(self, history):
        # every distance the peaks read after their build (whole rows,
        # bordered entries), and those their build took (band pairs, row
        # maxima), against the pipeline's day-pair matrix: a flat history,
        # where every item but the densest is fragile and can be densest,
        # and a denoised one, whose runs of equal slices tie many windows
        if history == "flat":
            days = np.full((2, 288), 30.0)
        else:
            road = two_regime_corpus(n_roads=1, n_days=3, seed=5)[0]
            config = dataclasses.replace(SWEEP_SOLVER, sigma=25.0)
            days = np.array([denoise_values(n.values, config, h=n.h).denoised for _, n in road])
        blocks = cluster_module._day_pair_distances(days, 282, 4)
        d = _unpacked(blocks)
        columns = np.ascontiguousarray(build_history(days).windows.T)
        rho = local_density(d, 1.0)
        peaks = HistoryPeaks(columns, rho, *delta_neighbors(blocks, rho))
        n = len(d)
        top = int(np.argmax(rho))
        if history == "flat":
            assert peaks.fragile.size == n - 1 and not np.isnan(peaks.row_max).any()
        else:
            assert len(np.unique(columns.T, axis=0)) < 0.7 * n and peaks.cand_i.size > 0
        assert np.array_equal(peaks.rows(np.arange(n)).view(np.uint64), d.view(np.uint64))
        assert np.array_equal(peaks.cand_d, d[peaks.cand_i, peaks.cand_j])
        can_top = rho + 1.0 >= rho[top]
        assert np.array_equal(peaks.row_max[can_top], d[can_top].max(axis=1))
        items = np.array([n, 0, top, n - 1])
        d_new = d[5]  # an added item on window 5
        bordered = peaks.bordered(d_new, items, items)
        full = np.zeros((n + 1, n + 1))
        full[:n, :n], full[n, :n], full[:n, n] = d, d_new, d_new
        assert np.array_equal(bordered.view(np.uint64), full[np.ix_(items, items)].view(np.uint64))
        assert not any(isinstance(v, np.ndarray) and v.size >= n * n for v in vars(peaks).values())

    def test_bordered_entries(self):
        pts = np.array([[0.0], [1.0], [3.0], [7.0]])
        full = pairwise_distances(pts).d
        peaks = _peaks(pts[:3], np.zeros(3))
        items, cols = np.array([3, 0, 2]), np.array([3, 1, 0])
        np.testing.assert_array_equal(peaks.bordered(full[3, :3], items, cols), full[np.ix_(items, cols)])


def _kernel_rows(d, d_new, d_c):
    """rho0 of the fixed items and the (g, n + 1) stack of densities with
    each added item, built as a forecast matcher builds them."""
    rho0 = local_density(d, d_c)
    w = np.exp(-((d_new / d_c) ** 2))
    return rho0, np.column_stack([rho0 + w, w.sum(axis=1)])


class TestSortedNeighbors:
    """Nearest-denser searches with added items on kernel densities,
    against the bordered matrix (the searches sorted neighbour lists
    once served, now made by HistoryPeaks)."""

    @settings(max_examples=200, deadline=None)
    @given(case=tied_points(min_n=3), d_c=st.sampled_from([0.5, 1.0, 2.0]))
    def test_matches_full_matrix_with_last_item_added(self, case, d_c):
        full = pairwise_distances(case[0]).d
        n = len(full) - 1
        rho0, rho = _kernel_rows(full[:n, :n], full[None, n, :n], d_c)
        delta, nn = _peaks(case[0][:n], rho0).delta_neighbors(full[None, n, :n], rho)
        want_delta, want_nn, _ = _reference_delta_neighbors(full, rho[0])
        np.testing.assert_array_equal(delta, [want_delta])
        np.testing.assert_array_equal(nn, [want_nn])

    @settings(max_examples=100, deadline=None)
    @given(case=tied_points(min_n=2, max_n=12), data=st.data())
    def test_stack_rows_match_full_matrix(self, case, data):
        # several added items at once, some on a fixed point; small blocks
        # split the stack's searches
        pts = case[0]
        added = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=pts.shape[1], max_size=pts.shape[1]),
            min_size=1, max_size=6), label="added"), dtype=float)
        d_c = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="d_c")
        block = data.draw(st.sampled_from([1, 700, 1 << 22]), label="block")
        d = pairwise_distances(pts).d
        d_new = np.sqrt(((added[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        rho0, rho = _kernel_rows(d, d_new, d_c)
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            delta, nn = _peaks(pts, rho0).delta_neighbors(d_new, rho)
        for r, point in enumerate(added):
            full = pairwise_distances(np.vstack([pts, point])).d
            want_delta, want_nn, _ = _reference_delta_neighbors(full, rho[r])
            np.testing.assert_array_equal(delta[r], want_delta)
            np.testing.assert_array_equal(nn[r], want_nn)

    @settings(max_examples=200, deadline=None)
    @given(case=tied_points(min_n=3), d_c=st.sampled_from([0.5, 1.0, 2.0]),
           block=st.sampled_from([1, 700, 1 << 22]))
    def test_short_heads_fall_back_to_whole_rows(self, case, d_c, block):
        # the added item is densest of all, so the densest fixed item loses
        # its own peak and searches its whole row, in row blocks
        full = pairwise_distances(case[0]).d
        n = len(full) - 1
        rho0, rho = _kernel_rows(full[:n, :n], full[None, n, :n], d_c)
        rho[0, n] = rho.max() + 1.0
        top = int(np.argmax(rho0))
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", block):
            delta, nn = _peaks(case[0][:n], rho0).delta_neighbors(full[None, n, :n], rho)
        want_delta, want_nn, _ = _reference_delta_neighbors(full, rho[0])
        np.testing.assert_array_equal(delta, [want_delta])
        np.testing.assert_array_equal(nn, [want_nn])
        assert nn[0, n] == n and nn[0, top] != top and np.isfinite(delta[0, top])


class TestAutoK:
    def test_clear_gap(self):
        assert auto_select_k(np.array([9.0, 8.0, 1.0, 0.5])) == (2, False)

    def test_gap_onto_zero_is_infinite(self):
        assert auto_select_k(np.array([5.0, 5.0, 0.0, 0.0])) == (2, False)

    def test_gap_onto_subnormal_gamma_is_infinite_without_warning(self):
        # (0.5 - 5e-324) / 5e-324 overflows; the gap counts as infinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert auto_select_k(np.array([1.0, 0.5, 5e-324])) == (2, False)

    def test_all_equal_is_degenerate(self):
        assert auto_select_k(np.array([3.0, 3.0, 3.0])) == (1, True)

    def test_scan_stops_at_ten(self):
        gamma = np.array([float(g) for g in range(100, 89, -1)] + [1.0])
        k, degenerate = auto_select_k(gamma)
        assert (k, degenerate) == (10, False)


def _reference_auto_k(gamma):
    """The sequential gap scan over the fully sorted gamma."""
    gs = np.sort(gamma)[::-1]
    best, k = -1.0, 1
    for p in range(1, min(gs.size - 1, 10) + 1):
        if gs[p] > 0.0:
            with np.errstate(over="ignore"):
                ratio = (gs[p - 1] - gs[p]) / gs[p]
        elif gs[p - 1] > 0.0:
            ratio = np.inf
        else:
            continue
        if ratio > best:
            best, k = ratio, p
    return k, best <= 0.0


class TestCenters:
    @settings(max_examples=200, deadline=None)
    @given(gamma=st.lists(st.lists(st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, 7.5]),
                                   min_size=13, max_size=13), min_size=1, max_size=5),
           width=st.integers(1, 13), k=st.one_of(st.none(), st.integers(1, 13)))
    def test_stack_matches_stable_argsort(self, gamma, width, k):
        # rho * delta with rho = gamma and delta = 1; many tied gammas
        gamma = np.array(gamma)[:, :width]
        k = None if k is None else min(k, width)
        got_k, got_degenerate = auto_select_k(gamma)
        stack = select_centers(gamma, np.ones_like(gamma), k)
        assert len(stack) == len(gamma)
        for row, centers, row_k, degenerate in zip(gamma, stack, got_k, got_degenerate):
            want_k, want_degenerate = _reference_auto_k(row)
            assert (row_k, degenerate) == (want_k, want_degenerate)
            assert auto_select_k(row) == (want_k, want_degenerate)
            want = np.argsort(-row, kind="stable")[: want_k if k is None else k]
            np.testing.assert_array_equal(centers, want)
            np.testing.assert_array_equal(select_centers(row, np.ones_like(row), k), want)

    def test_stable_top_k(self):
        centers = select_centers(np.array([1.0, 3.0, 1.0]), np.array([5.0, 3.0, 5.0]), k=2)
        np.testing.assert_array_equal(centers, [1, 0])

    def test_auto_k(self):
        centers = select_centers(np.array([9.0, 8.0, 1.0]), np.ones(3))
        np.testing.assert_array_equal(centers, [0, 1])

    def test_k_bounds(self):
        rho, delta = np.ones(3), np.ones(3)
        with pytest.raises(ValueError):
            select_centers(rho, delta, k=0)
        with pytest.raises(ValueError):
            select_centers(rho, delta, k=4)


class TestAssign:
    def test_two_groups_on_a_line(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        dm = pairwise_distances(pts).d
        rho = np.array([2.0, 3.0, 2.0, 2.0, 3.0, 2.0])
        labels = _walk(dm, rho, centers=[1, 4])
        np.testing.assert_array_equal(labels, [1, 1, 1, 2, 2, 2])
        np.testing.assert_array_equal(labels, _reference_assign(dm, rho, [1, 4]))

    def test_densest_item_outside_centers_still_labelled(self):
        # its nearest-denser neighbour is itself, so the walk leaves it
        # at zero and the fallback snaps it to the closest center
        dm = pairwise_distances(LINE).d
        rho = np.array([3.0, 2.0, 1.0])
        labels = _walk(dm, rho, centers=[2])
        np.testing.assert_array_equal(labels, [1, 1, 1])
        np.testing.assert_array_equal(labels, _reference_assign(dm, rho, [2]))

    def test_chain_of_the_densest_non_center_snaps_item_by_item(self):
        # 0 is densest and no center; 1 and 2 follow it, so each takes
        # its own nearest center instead of a shared id
        pts = np.array([[0.0], [-1.0], [1.0], [-3.0], [3.0]])
        dm = pairwise_distances(pts).d
        rho = np.array([5.0, 4.0, 4.0, 1.0, 1.0])
        labels = _walk(dm, rho, centers=[3, 4])
        np.testing.assert_array_equal(labels, [1, 1, 2, 1, 2])
        np.testing.assert_array_equal(labels, _reference_assign(dm, rho, [3, 4]))

    @settings(max_examples=200, deadline=None)
    @given(case=tied_points(), data=st.data())
    def test_matches_sequential_walk(self, case, data):
        pts, rho = case
        dm = pairwise_distances(pts).d
        centers = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=4, unique=True))
        np.testing.assert_array_equal(_walk(dm, rho, centers), _reference_assign(dm, rho, centers))

    @settings(max_examples=200, deadline=None)
    @given(case=tied_points(), data=st.data())
    def test_cluster_labels_match_sequential_walk(self, case, data):
        # cluster() labels from the neighbours of its one delta_neighbors call
        pts = case[0]
        d_c = data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="d_c")
        k = data.draw(st.one_of(st.none(), st.integers(1, len(pts))), label="k")
        result = cluster(pts, d_c=d_c, k=k)
        dm = pairwise_distances(pts).d
        np.testing.assert_array_equal(result.assignment,
                                      _reference_assign(dm, result.rho, result.centers))

    def test_follow_neighbors_asks_distances_only_when_needed(self):
        nn = np.array([0, 0, 1, 2])
        def no_distances(row, items):
            raise AssertionError("every chain ends at a center")
        np.testing.assert_array_equal(follow_neighbors(nn, [0, 2], no_distances), [1, 1, 2, 2])


class TestHalo:
    def test_single_cluster_is_all_core(self):
        dm = pairwise_distances(LINE)
        is_core, bd = halo_split(dm, np.array([3.0, 2.0, 1.0]), np.ones(3, dtype=int), 1.0)
        assert is_core.all()
        np.testing.assert_array_equal(bd, [0.0])

    def test_distant_clusters_have_empty_borders(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        dm = pairwise_distances(pts)
        rho = local_density(dm, 2.0)
        is_core, bd = halo_split(dm, rho, np.array([1, 1, 2, 2]), 2.0)
        assert is_core.all()
        np.testing.assert_array_equal(bd, [0.0, 0.0])

    def test_touching_clusters_shed_low_density_members(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.5], [4.5], [5.5]])
        d_c = 1.6
        dm = pairwise_distances(pts)
        rho = local_density(dm, d_c)
        labels = np.array([1, 1, 1, 2, 2, 2])
        is_core, bd = halo_split(dm, rho, labels, d_c)
        # only the facing members sit within d_c of the other cluster
        assert bd[0] == rho[2] and bd[1] == rho[3]
        expected = np.concatenate([rho[:3] >= bd[0], rho[3:] >= bd[1]])
        np.testing.assert_array_equal(is_core, expected)
        assert not is_core[0] and is_core[2]


class TestEmbedding:
    def test_planar_points_recovered(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        dm = pairwise_distances(pts)
        coords = embed_2d(dm)
        np.testing.assert_allclose(pairwise_distances(coords).d, dm.d, atol=1e-9)

    def test_sign_convention(self):
        coords = embed_2d(pairwise_distances(three_blobs()))
        for axis in range(2):
            col = coords[:, axis]
            nz = np.flatnonzero(col != 0)
            assert col[nz[0]] > 0

    def test_metric_violation_collapses_to_one_axis(self):
        # 3 > 1 + 1, so no plane holds these; only the leading axis has
        # real signal and the other is dropped instead of kept as noise
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        coords = embed_2d(d)
        assert (coords[:, 0] != 0).any()
        assert (coords[:, 1] == 0).all()

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            embed_2d(np.zeros((2, 2)))


class TestClusterPipeline:
    def test_three_blobs(self):
        pts = three_blobs()
        res = cluster(pts)
        assert res.k == 3
        assert res.flags == ()
        # one center in each injected group, groups kept intact
        truth = np.repeat([0, 1, 2], 20)
        assert len({truth[c] for c in res.centers}) == 3
        for g in range(3):
            assert len(set(res.assignment[truth == g])) == 1
        assert res.is_core.all()
        assert res.embedding.shape == (60, 2)
        assert res.d_c > 0

    def test_deterministic(self):
        pts = three_blobs()
        a, b = cluster(pts), cluster(pts)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        assert a.d_c == b.d_c

    def test_relabelling_follows_permutation(self):
        pts = three_blobs()
        perm = np.random.default_rng(8).permutation(len(pts))
        base = cluster(pts)
        shuffled = cluster(pts[perm])
        # permuted input must describe the same partition
        np.testing.assert_array_equal(np.sort(perm[shuffled.centers]), np.sort(base.centers))
        for c in np.unique(base.assignment):
            members = np.flatnonzero(base.assignment == c)
            mapped = shuffled.assignment[np.argsort(perm)][members]
            assert len(set(mapped)) == 1
        np.testing.assert_array_equal(shuffled.is_core, base.is_core[perm])

    def test_explicit_overrides(self):
        pts = three_blobs()
        res = cluster(pts, d_c=1.5, k=2)
        assert res.d_c == 1.5 and res.k == 2

    def test_collinear_points_flag_degenerate_axis(self):
        pts = np.arange(5.0)[:, None] * np.array([[1.0, 1.0]])
        res = cluster(pts)
        assert FLAG_DEGENERATE_EMBEDDING in res.flags
        assert (res.embedding[:, 1] == 0).all()
        recovered = pairwise_distances(res.embedding).d
        np.testing.assert_allclose(recovered, pairwise_distances(pts).d, atol=1e-8)

    def test_identical_points_degenerate(self):
        res = cluster(np.zeros((4, 2)))
        assert FLAG_DEGENERATE_DC in res.flags
        assert FLAG_DEGENERATE_GAMMA in res.flags
        assert FLAG_DEGENERATE_EMBEDDING in res.flags
        assert res.d_c == 1.0
        np.testing.assert_array_equal(res.assignment, [1, 1, 1, 1])

    def test_two_items_skip_embedding(self):
        res = cluster(np.array([[0.0], [5.0]]))
        assert FLAG_NO_EMBEDDING in res.flags
        np.testing.assert_array_equal(res.embedding, np.zeros((2, 2)))

    @pytest.mark.parametrize("dim", [4, 288], ids=["narrow", "wide"])
    def test_overflowing_vector_raises_without_warning(self, dim):
        # the squared differences of the scaled row overflow to inf: the
        # ValueError is the only signal, with no numpy warning before it
        x = np.random.default_rng(3).normal(30.0, 8.0, (3, dim))
        x[1] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^non-finite distance$"):
                cluster(x)


def _reference_cutoff(d, percentile):
    """(d_c, flags) from ``np.percentile`` of the row-tail triangle, 1.0
    flagged when that is not positive."""
    upper = np.concatenate([row[i + 1:] for i, row in enumerate(d)])
    d_c = float(np.percentile(upper, percentile))
    return (d_c, []) if d_c > 0 else (1.0, [FLAG_DEGENERATE_DC])


def assert_same_cutoff(d, percentile):
    got = cluster_module._percentile_cutoff(d, percentile)
    want = _reference_cutoff(d, percentile)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), (got, want)
    assert got[1] == want[1]


PERCENTILES = st.one_of(st.floats(0.0, 100.0), st.sampled_from([100.0, 1e-9, 2.0, 50.0, 99.99]))


class TestPercentileCutoff:
    """d_c by selection: ``np.percentile`` of the distances between
    distinct items, in all 64 bits."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tied_points(2, 60).map(lambda t: t[0]),
                     st.integers(2, 60).flatmap(lambda n: st.lists(
                         st.lists(st.floats(0.0, 60.0), min_size=3, max_size=3),
                         min_size=n, max_size=n)).map(np.array)),
           PERCENTILES)
    def test_equals_np_percentile(self, points, percentile):
        assert_same_cutoff(pairwise_distances(points).d, percentile)

    @pytest.mark.parametrize("percentile", [100.0, 1e-9, 0.0, 2.0, 25.0, 37.5, 50.0, 75.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_two_and_three_items(self, n, percentile):
        # with three items, percentiles 25 and 75 fall halfway between two
        # distances, where the two interpolation formulas round apart in
        # about a third of draws
        rng = np.random.default_rng(n)
        for _ in range(20):
            for points in (rng.normal(size=(n, 2)), rng.integers(0, 2, (n, 1)).astype(float)):
                assert_same_cutoff(pairwise_distances(points).d, percentile)

    @pytest.mark.parametrize("percentile", [2.0, 100.0, 1e-9])
    def test_all_zero_matrix_is_degenerate(self, percentile):
        assert cluster_module._percentile_cutoff(np.zeros((5, 5)), percentile) == (
            1.0, [FLAG_DEGENERATE_DC])
        assert_same_cutoff(np.zeros((300, 300)), percentile)

    @pytest.mark.parametrize("percentile", [100.0, 1e-9, 2.0, 63.0])
    def test_many_row_blocks_with_ties(self, percentile):
        # 1300 items take several row blocks; small integers tie heavily
        rng = np.random.default_rng(5)
        for points in (rng.normal(size=(1300, 4)), rng.integers(0, 3, (1300, 2)).astype(float)):
            assert_same_cutoff(pairwise_distances(points).d, percentile)

    def test_misleading_sample_widens_the_pass(self, monkeypatch):
        # the sampled entries (every c-th of the flattened matrix, c the
        # first integer from n^2 // 8192 prime to n) and their mirrors
        # are the smallest, so the first threshold keeps too few of the
        # entries that the median needs
        n = 200
        stride = 7  # 40000 // 8192 = 4, and 4, 5 and 6 share a factor with 200
        rng = np.random.default_rng(8)
        d = np.triu(rng.uniform(10.0, 20.0, (n, n)), 1)
        picks = np.arange(0, n * n, stride)
        rows, cols = np.divmod(picks, n)
        d[np.minimum(rows, cols), np.maximum(rows, cols)] = 0.5
        d = np.triu(d, 1) + np.triu(d, 1).T
        passes = []
        real = cluster_module._upper_at_most
        monkeypatch.setattr(cluster_module, "_upper_at_most",
                            lambda d, t: passes.append(t) or real(d, t))
        assert_same_cutoff(d, 50.0)
        assert len(passes) == 2 and passes[0] == 0.5 and passes[1] == np.inf

    @pytest.mark.parametrize("percentile", [100.0, 1e-9, 0.0, 2.0, 50.0])
    @pytest.mark.parametrize("history", ["random", "tie-heavy", "flat"])
    def test_day_pair_pieces_equal_np_percentile(self, history, percentile):
        # the upper day-pair blocks as compare_pipelines passes them: a
        # day's own block counts its strict upper triangle, a block of two
        # days every entry
        rng = np.random.default_rng(9)
        if history == "random":
            days = rng.normal(30.0, 8.0, (4, 288))
        elif history == "tie-heavy":
            days = rng.integers(0, 3, (4, 288)).astype(float)
        else:
            days = np.full((3, 288), 30.0)
        blocks = cluster_module._day_pair_distances(days, 282, 4)
        got = cluster_module._percentile_cutoff(blocks, percentile)
        want = _reference_cutoff(_unpacked(blocks), percentile)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), (got, want)
        assert got[1] == want[1]
        if history == "flat":
            assert got == (1.0, [FLAG_DEGENERATE_DC])

    def test_misleading_sample_of_pieces_widens_the_pass(self, monkeypatch):
        # the sampled entries of three days of 100 items, every c-th entry
        # of the six flattened blocks (c = 60000 // 8192 = 7, prime to 100),
        # and their mirrors in each day's own block, are the smallest
        w, stride = 100, 7
        rng = np.random.default_rng(10)
        pairs = cluster_module._day_pairs(3)
        blocks = rng.uniform(10.0, 20.0, (len(pairs), w, w))
        for p, (a, b) in enumerate(pairs):
            flat = blocks[p].reshape(-1)
            flat[np.arange(-p * w * w % stride, w * w, stride)] = 0.5
            if a == b:
                blocks[p] = np.triu(np.minimum(blocks[p], blocks[p].T), 1)
                blocks[p] += blocks[p].T
        passes = []
        real = cluster_module._upper_at_most
        monkeypatch.setattr(cluster_module, "_upper_at_most",
                            lambda d, t: passes.append(t) or real(d, t))
        got = cluster_module._percentile_cutoff(blocks, 50.0)
        want = _reference_cutoff(_unpacked(blocks), 50.0)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert passes == [0.5, np.inf]

    def test_rejects_a_percentile_outside_0_to_100(self):
        for percentile in (-1.0, 100.5, np.nan):
            with pytest.raises(ValueError, match=r"Percentiles must be in the range \[0, 100\]"):
                cluster_module._percentile_cutoff(np.zeros((3, 3)), percentile)


def adjusted_rand_index(truth, labels) -> float:
    """The Rand index of two labelings corrected for chance (Hubert and
    Arabie 1985): 1 for identical partitions, about 0 for random ones."""
    _, a = np.unique(truth, return_inverse=True)
    _, b = np.unique(labels, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    index, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([a.size]))
    return (index - expected) / ((rows + cols) / 2 - expected)


class TestDenoisingClaim:
    """The paper's claim that denoised road-days cluster much better than
    raw ones, scored against road identity at k = number of roads."""

    def test_adjusted_rand_index(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 3, 3]) == 1.0
        # 2 of 6 pairs agree against 2 * 2 / 6 expected by chance
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    # seeds 12-19 are held out from the seeds the sigma rule was tuned on
    @pytest.mark.parametrize("seed", [*range(4), *range(12, 20)])
    def test_denoised_profiles_match_roads_better_than_raw(self, seed):
        days = [noisy for road in two_regime_corpus(6, 10, seed) for _, noisy in road]
        roads = [day.road_id for day in days]
        denoised = []
        for day in days:
            sigma = estimate_sigma(day.values, h=day.h).sigma_best
            config = dataclasses.replace(SWEEP_SOLVER, sigma=sigma)
            denoised.append(denoise_values(day.values, config, h=day.h).denoised)
        raw = adjusted_rand_index(roads, cluster([day.values for day in days], k=6).assignment)
        smooth = adjusted_rand_index(roads, cluster(denoised, k=6).assignment)
        assert smooth > raw
