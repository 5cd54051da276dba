"""Neighbour search: every distance matrix and k-nearest table in dockinv.

Both functions are dense, which is fast at the few thousand points a cloud
holds here. Distances are ``sqrt((dx*dx + dy*dy) + dz*dz)``, built one axis
at a time with no ``(N, M, 3)`` temporary and bitwise equal to
``np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)``. Neighbours are
ordered by distance, ties to the lowest index.
"""

from __future__ import annotations

import numpy as np

__all__ = ["distances", "knn"]


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) Euclidean distances between the rows of ``a`` (N, 3) and ``b`` (M, 3)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    delta = np.empty_like(out)
    for axis in (1, 2):
        np.subtract.outer(a[:, axis], b[:, axis], out=delta)
        delta *= delta
        out += delta
    return np.sqrt(out, out=out)


def knn(queries: np.ndarray, points: np.ndarray, k: int, exclude_self: bool = False):
    """The ``k`` nearest ``points`` to each query: ``(idx, dist)``, both (N, k).

    With ``exclude_self`` the queries are the points themselves, no point is
    its own neighbour, and ``k`` is at most N - 1.

    The result is the first k columns of a stable argsort of each row. On a
    large table only the columns within each row's k-th smallest distance
    (ties at it included) are sorted; below 64 columns or 4,096 entries the
    whole-row sort is faster (measured on a 2-core VM).
    """
    dist = distances(queries, points)
    if exclude_self:
        np.fill_diagonal(dist, np.inf)
    n, m = dist.shape
    if 0 < k < m and m >= 64 and dist.size >= 4096:
        bound = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        within = dist <= bound
        counts = within.sum(axis=1)
        if counts.min() >= k:   # a NaN bound leaves a row short: sort whole rows
            rows, cols = np.nonzero(within)             # row-major: index order in a row
            slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
            cand = np.zeros((n, counts.max()), dtype=np.intp)
            cand_dist = np.full(cand.shape, np.inf)     # padding sorts after every candidate
            cand[rows, slot] = cols
            cand_dist[rows, slot] = dist[rows, cols]
            order = np.argsort(cand_dist, axis=1, kind="stable")[:, :k]
            idx = np.take_along_axis(cand, order, axis=1)
            return idx, np.take_along_axis(dist, idx, axis=1)
    idx = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(dist, idx, axis=1)
