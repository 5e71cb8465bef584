"""Brute-force references for tests and verification.

Everything here is deliberately dumb and independent of the production
routes: distances by dense grids, a point's foot on a carrier by one plain
vector projection, integrals by fixed-panel Simpson, point clustering by a
textbook scan.  Only plain array arithmetic is shared with the rest of the
package.  Performance is not a goal.
"""

from __future__ import annotations

import numpy as np

from .geometry import SegmentLike


def grid_min_distance(l1: SegmentLike, l2: SegmentLike, step: float = 1e-3) -> float:
    """Minimum pairwise distance over the (t1, t2) parameter grid.

    Segments only.  The result upper-bounds the true minimum and lies within
    the Lipschitz bound (|d1| + |d2|) * step of it.
    """
    if l1.is_line or l2.is_line:
        raise ValueError("grid oracle supports segments only")
    if step <= 0:
        raise ValueError("step must be positive")
    t = np.arange(0.0, 1.0 + 0.5 * step, step)
    A = l1.x + t[:, None] * l1.direction
    B = l2.x + t[:, None] * l2.direction
    na = np.einsum("ij,ij->i", A, A)
    nb = np.einsum("ij,ij->i", B, B)
    # |a-b|^2 = |a|^2 + |b|^2 - 2 a.b, in blocks small enough to stay in
    # cache, accumulating in place to avoid per-block temporaries
    best = np.inf
    block = 64
    for s in range(0, len(t), block):
        G = A[s:s + block] @ B.T
        G *= -2.0
        G += na[s:s + block, None]
        G += nb[None, :]
        m = float(G.min())
        if m < best:
            best = m
    return float(np.sqrt(max(best, 0.0)))


def reference_foot(p, l: SegmentLike) -> tuple[float, float]:
    """(t, squared distance) of the point of l closest to the point p.

    The reference foot: one vector projection of p onto l's carrier with
    numpy's 1-d dot, clamped to [0, 1] for a segment, t = 0 on a degenerate
    one.  It shares no code with the distance kernels of `geometry`.
    """
    p = np.asarray(p, dtype=np.float64)
    if l.sq_length == 0.0:
        d = p - l.x
        return 0.0, float(d @ d)
    t = float((p - l.x) @ l.direction) / l.sq_length
    if not l.is_line:
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    d = p - (l.x + l.direction * t)
    return t, float(d @ d)


def simpson_integral(fn, lo: float, hi: float, panels: int = 4096) -> float:
    """Composite Simpson rule with a fixed even panel count."""
    if panels % 2:
        panels += 1
    x = np.linspace(lo, hi, panels + 1)
    y = np.asarray(fn(x), dtype=np.float64)
    h = (hi - lo) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def reference_dbscan(points, eps: float, minpts: int):
    """Textbook DBSCAN over points with strict `< eps` neighbourhoods.

    Returns (labels, core): labels holds cluster ids 1..k or -1 for noise,
    scanning points in index order; core flags points whose neighbourhood
    (self included) reaches minpts.
    """
    P = np.asarray(points, dtype=np.float64)
    n = len(P)
    diff = P[:, None, :] - P[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    neighbours = [np.flatnonzero(dist[i] < eps) for i in range(n)]
    core = np.array([len(nb) >= minpts for nb in neighbours])

    labels = np.full(n, -1, dtype=int)
    cid = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        cid += 1
        labels[i] = cid
        queue = list(neighbours[i])
        pos = 0
        while pos < len(queue):
            j = queue[pos]
            pos += 1
            if labels[j] == -1:
                labels[j] = cid
                if core[j]:
                    queue.extend(neighbours[j])
    return labels, core


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings (any hashable labels)."""
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b):
        raise ValueError("labelings must have equal length")
    n = len(a)
    if n == 0:
        return 1.0

    def comb2(x):
        return x * (x - 1) / 2.0

    from collections import Counter

    table = Counter(zip(a, b))
    rows = Counter(a)
    cols = Counter(b)
    sum_cells = sum(comb2(v) for v in table.values())
    sum_rows = sum(comb2(v) for v in rows.values())
    sum_cols = sum(comb2(v) for v in cols.values())
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)
