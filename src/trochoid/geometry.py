"""Planar geometry on sampled closed curves.

Region membership uses the nonzero winding rule so that self-intersecting
loops (which the boundary laws develop past their cusp threshold) still
bound a sensible region.
"""

from __future__ import annotations

import numpy as np

# cap on (point, edge) pairs per block: winding numbers test O(points x
# crossings) pairs, distances O(points x edges)
_CHUNK = 262144


def inflate(polygon: np.ndarray, inflation: float) -> np.ndarray:
    """Scale a closed polygon by (1 + inflation) about its vertex centroid."""
    center = polygon[:-1].mean() if polygon[0] == polygon[-1] else polygon.mean()
    return center + (polygon - center) * (1.0 + inflation)


def winding_numbers(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Winding number of a closed polygon around each query point.

    ``polygon`` is complex vertices with the first repeated at the end.  An
    edge can only count for points whose height lies in its half-open range
    [min(y0, y1), max(y0, y1)), so each edge is tested against that slice of
    the points sorted by height: the cost is O(points x crossings), where
    crossings is the number of edges a horizontal line meets, not
    O(points x edges).
    """
    points = np.asarray(points, dtype=complex).ravel()
    x0, y0 = polygon[:-1].real, polygon[:-1].imag
    x1, y1 = polygon[1:].real, polygon[1:].imag
    order = np.argsort(points.imag)
    px, py = points.real[order], points.imag[order]
    first = np.searchsorted(py, np.minimum(y0, y1))
    counts = np.searchsorted(py, np.maximum(y0, y1)) - first
    ends = np.cumsum(counts)
    total = int(counts.sum())
    wn = np.zeros(points.shape[0], dtype=int)
    for lo in range(0, total, _CHUNK):
        # pairs are numbered edge by edge; pair -> edge e, sorted point j
        pair = np.arange(lo, min(lo + _CHUNK, total))
        e = np.searchsorted(ends, pair, side="right")
        j = first[e] + pair - (ends[e] - counts[e])
        ex0, ey0, ex1, ey1, qx, qy = x0[e], y0[e], x1[e], y1[e], px[j], py[j]
        cross = (ex1 - ex0) * (qy - ey0) - (qx - ex0) * (ey1 - ey0)
        up = (ey0 <= qy) & (ey1 > qy) & (cross > 0)
        down = (ey0 > qy) & (ey1 <= qy) & (cross < 0)
        wn += np.bincount(j[up], minlength=wn.size) - np.bincount(j[down], minlength=wn.size)
    out = np.empty_like(wn)
    out[order] = wn
    return out


def contains(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Boolean mask: nonzero winding number."""
    return winding_numbers(points, polygon) != 0


def distance_to_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the nearest polygon segment."""
    points = np.asarray(points, dtype=complex).ravel()
    a = polygon[:-1]
    seg = polygon[1:] - a
    seg_len2 = np.maximum(np.abs(seg) ** 2, 1e-300)
    out = np.empty(points.shape[0])
    block = max(1, _CHUNK // max(1, len(a)))
    for lo in range(0, len(points), block):
        p = points[lo : lo + block][:, None]
        rel = p - a[None, :]
        frac = np.clip((rel * np.conj(seg)).real / seg_len2, 0.0, 1.0)
        d = np.abs(rel - frac * seg[None, :])
        out[lo : lo + block] = d.min(axis=1)
    return out
