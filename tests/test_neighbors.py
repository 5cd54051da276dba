"""The neighbour module: dense distances and k-nearest queries."""

import numpy as np
import pytest

from dockinv import neighbors


def _reference(a, b):
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


@pytest.mark.parametrize("n, m", [(60, 60), (40, 7), (7, 3), (1, 5)])
def test_distances_bitwise_equal_to_broadcast_norm(n, m):
    rng = np.random.default_rng(n * 100 + m)
    random = (rng.standard_normal((n, 3)) * 10.0, rng.standard_normal((m, 3)) * 10.0)
    grid = (rng.integers(-8, 9, (n, 3)) / 2.0, rng.integers(-8, 9, (m, 3)) / 2.0)
    for a, b in (random, grid):
        got = neighbors.distances(a, b)
        assert got.shape == (n, m)
        np.testing.assert_array_equal(got.view(np.int64), _reference(a, b).view(np.int64))


def test_knn_ties_to_lowest_index():
    # four points at distance 1 from the origin, listed out of axis order
    pts = np.array([[0.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [1.0, 0, 0], [0, -1.0, 0]])
    idx, dist = neighbors.knn(pts[[0]], pts, 3)
    np.testing.assert_array_equal(idx, [[0, 1, 2]])
    np.testing.assert_array_equal(dist, [[0.0, 1.0, 1.0]])

    idx, dist = neighbors.knn(pts, pts, 2, exclude_self=True)
    np.testing.assert_array_equal(idx[0], [1, 2])
    assert not np.any(idx == np.arange(len(pts))[:, None])
    np.testing.assert_array_equal(dist, np.take_along_axis(_reference(pts, pts), idx, axis=1))


def test_knn_k_equals_point_count():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((6, 3))
    queries = rng.standard_normal((2, 3))
    idx, dist = neighbors.knn(queries, pts, len(pts))
    assert idx.shape == dist.shape == (2, 6)
    for row in idx:
        np.testing.assert_array_equal(np.sort(row), np.arange(6))
    assert np.all(np.diff(dist, axis=1) >= 0.0)

    idx, _ = neighbors.knn(pts, pts, len(pts) - 1, exclude_self=True)
    for i, row in enumerate(idx):
        np.testing.assert_array_equal(np.sort(row), np.delete(np.arange(6), i))


def _sorted_reference(a, b, k, exclude_self=False):
    d = _reference(a, b)
    if exclude_self:
        np.fill_diagonal(d, np.inf)
    idx = np.array([sorted(range(len(b)), key=lambda j: (row[j], j))[:k] for row in d])
    return idx, np.take_along_axis(d, idx, axis=1)


@pytest.mark.parametrize("exclude_self", [False, True])
def test_knn_many_ties_at_the_kth_distance_go_to_lowest_index(exclude_self):
    # a half-integer lattice: every lattice query has 6 neighbours at 0.5,
    # 12 at 0.707 and 8 at 0.866, so k = 10 cuts through a 12-way tie;
    # the shuffled order makes the lowest index differ from lattice order
    axis = np.arange(5) / 2.0
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = grid[np.random.default_rng(5).permutation(len(grid))]
    idx, dist = neighbors.knn(pts, pts, 10, exclude_self=exclude_self)
    ref_idx, ref_dist = _sorted_reference(pts, pts, 10, exclude_self)
    np.testing.assert_array_equal(idx, ref_idx)
    assert dist.tobytes() == ref_dist.tobytes()
