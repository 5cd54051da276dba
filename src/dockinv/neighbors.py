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
    """
    dist = distances(queries, points)
    if exclude_self:
        np.fill_diagonal(dist, np.inf)
    idx = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(dist, idx, axis=1)
