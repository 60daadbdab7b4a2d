"""Cell volumes and neighbour counts computed apart from vorsim.

Each space gets its own construction, none of which shares code with the
package under test:

* torus: ``scipy.spatial.Voronoi`` of the points replicated 3x3 (5x5 when
  a central cell is not bounded by the 3x3 copies); a cell is the region
  of the central copy, and a neighbour is any generator whose copy shares
  a ridge with it;
* square: the points mirrored across the four sides, so that every cell
  of an original point is its cell clipped to the square;
* circle: gaps between sorted positions.

``drift_bins`` recounts the drift table of a trajectory from its events.

Neighbours are counted over ridges longer than ``EDGE_EPS_REL * L``, the
same contact rule the package documents, and a cell touching another
across two periods counts it once.
"""

import numpy as np
from scipy.spatial import Voronoi

EDGE_EPS_REL = 1e-12


def cells(points, kind, L):
    """Return ``(volumes, degrees)`` in the order of ``points``."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if kind in ("circle", "interval"):
        return _cells_1d(pts.reshape(-1), kind == "circle", L)
    pts = pts.reshape(-1, 2)
    if n == 1:
        return np.array([L * L]), np.zeros(1, dtype=np.int64)
    if kind == "torus":
        for reps in (1, 2):
            out = _cells_torus(pts, L, reps)
            if out is not None:
                return out
        raise RuntimeError("torus cells not bounded by the 5x5 replication")
    return _cells_square(pts, L)


def _cells_1d(xs, periodic, L):
    n = len(xs)
    order = np.argsort(xs, kind="stable")
    s = xs[order]
    if n == 1:
        return np.array([L]), np.zeros(1, dtype=np.int64)
    gaps = np.diff(s)
    if periodic:
        wrap = L - s[-1] + s[0]
        left = np.concatenate(([wrap], gaps))
        right = np.concatenate((gaps, [wrap]))
        vol_sorted = 0.5 * (left + right)
        deg_sorted = np.full(n, 2 if n >= 3 else 1, dtype=np.int64)
    else:
        left = np.concatenate(([2.0 * s[0]], gaps))
        right = np.concatenate((gaps, [2.0 * (L - s[-1])]))
        vol_sorted = 0.5 * (left + right)
        deg_sorted = np.full(n, 2, dtype=np.int64)
        deg_sorted[0] = deg_sorted[-1] = 1
    vol = np.empty(n)
    deg = np.empty(n, dtype=np.int64)
    vol[order] = vol_sorted
    deg[order] = deg_sorted
    return vol, deg


def _region_area(vor, site, region):
    verts = vor.vertices[region]
    c = vor.points[site]
    ang = np.arctan2(verts[:, 1] - c[1], verts[:, 0] - c[0])
    v = verts[np.argsort(ang)]
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _areas(vor, n):
    out = np.empty(n)
    for i in range(n):
        region = vor.regions[vor.point_region[i]]
        if not region or -1 in region:
            return None
        out[i] = _region_area(vor, i, region)
    return out


def _long_ridges(vor, L):
    rp = vor.ridge_points
    rv = np.asarray(vor.ridge_vertices)
    finite = (rv >= 0).all(axis=1)
    length = np.full(len(rp), np.inf)
    a = vor.vertices[rv[finite, 0]]
    b = vor.vertices[rv[finite, 1]]
    length[finite] = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    return rp[length > EDGE_EPS_REL * L]


def _degrees(pairs, n):
    if len(pairs) == 0:
        return np.zeros(n, dtype=np.int64)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    uniq = np.unique(pairs[:, 0] * n + pairs[:, 1])
    return np.bincount(uniq // n, minlength=n).astype(np.int64)


def _cells_torus(pts, L, reps):
    n = len(pts)
    offs = [(0, 0)] + [(ox, oy) for oy in range(-reps, reps + 1)
                       for ox in range(-reps, reps + 1) if (ox, oy) != (0, 0)]
    stacked = np.vstack([pts + [ox * L, oy * L] for ox, oy in offs])
    vor = Voronoi(stacked)
    vol = _areas(vor, n)
    if vol is None:
        return None
    rp = _long_ridges(vor, L)
    central_a = rp[:, 0] < n
    central_b = rp[:, 1] < n
    pairs = np.concatenate([
        np.column_stack([rp[central_a, 0], rp[central_a, 1] % n]),
        np.column_stack([rp[central_b, 1], rp[central_b, 0] % n]),
    ])
    return vol, _degrees(pairs, n)


def _cells_square(pts, L):
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    stacked = np.vstack([
        pts,
        np.column_stack([-x, y]),
        np.column_stack([2.0 * L - x, y]),
        np.column_stack([x, -y]),
        np.column_stack([x, 2.0 * L - y]),
    ])
    vor = Voronoi(stacked)
    vol = _areas(vor, n)
    if vol is None:
        raise RuntimeError("square cell not bounded by its mirror images")
    rp = _long_ridges(vor, L)
    both = (rp[:, 0] < n) & (rp[:, 1] < n)
    rp = rp[both]
    pairs = np.concatenate([rp, rp[:, ::-1]])
    return vol, _degrees(pairs, n)


def drift_bins(initial, removed, inserted, lo, hi, min_count):
    """Rows ``(N_A, mean dN_A, count)`` of the drift table of a 1D chain.

    N_A counts points in the closed region [lo, hi] before each event; an
    event moves it by (inserted point in A) - (removed point in A).  Only
    N_A values met by at least ``min_count`` events are kept.
    """
    def inside(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return ((lo <= x) & (x <= hi)).astype(np.int64)

    dn = inside(inserted) - inside(removed)
    before = int(inside(initial).sum()) + np.cumsum(dn) - dn
    rows = []
    for na in np.unique(before):
        steps = dn[before == na]
        if len(steps) >= min_count:
            rows.append((int(na), float(steps.mean()), len(steps)))
    return rows
