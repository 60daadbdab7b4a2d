"""Shared construction helpers for the test suite."""

import math

import numpy as np
import yaml

from vorsim.geom2d import clip_polygon_halfplane, polygon_area
from vorsim.space import Space
from vorsim.tessellation import EDGE_EPS_REL

ALL_KINDS = ("circle", "interval", "square", "torus")


def random_points(rng, space, n):
    """Draw ``n`` distinct canonical points of ``space`` as a list."""
    L = space.size
    while True:
        if space.dim == 1:
            pts = [float(x) for x in rng.random(n) * L]
        else:
            pts = [(float(x), float(y)) for x, y in rng.random((n, 2)) * L]
        if len(set(pts)) == n:
            return pts


def all_spaces(size=1.0):
    """One plain (uniform-density) space per supported kind."""
    return [Space(k, size) for k in ALL_KINDS]


def neighbor_pairs(tess):
    """Adjacency of a tessellation as a set of index pairs (i < j)."""
    out = set()
    for i, nbrs in enumerate(tess.neighbor_sets()):
        for j in nbrs:
            out.add((i, j) if i < j else (j, i))
    return out


def clipped_torus_cells(points, L=1.0):
    """Volumes and neighbour sets of the Voronoi cells of a uniform torus
    configuration by direct half-plane clipping, with no triangulation:
    each cell starts as the period square centred on its generator and is
    cut by the bisector towards every image of every generator within
    ``sqrt(2)*L``.  A neighbour shares an edge longer than the
    tessellation's contact tolerance."""
    n = len(points)
    eps2 = (EDGE_EPS_REL * L) ** 2
    half = 0.5 * L
    vols = []
    nbrs = []
    for i, (px, py) in enumerate(points):
        poly = [(px - half, py - half), (px + half, py - half),
                (px + half, py + half), (px - half, py + half)]
        labels = [i] * 4
        for j, (qx, qy) in enumerate(points):
            for ox in (-2, -1, 0, 1, 2):
                for oy in (-2, -1, 0, 1, 2):
                    mx = qx + ox * L
                    my = qy + oy * L
                    nx, ny = mx - px, my - py
                    if (nx == 0.0 and ny == 0.0) \
                            or nx * nx + ny * ny > 2.0 * L * L * (1 + 1e-9):
                        continue
                    c = nx * (0.5 * (px + mx)) + ny * (0.5 * (py + my))
                    poly, labels = clip_polygon_halfplane(poly, labels,
                                                          nx, ny, c, j)
        vols.append(abs(polygon_area(poly)))
        m = len(poly)
        nbrs.append(frozenset(
            labels[k] for k in range(m) if labels[k] != i
            and (poly[(k + 1) % m][0] - poly[k][0]) ** 2
            + (poly[(k + 1) % m][1] - poly[k][1]) ** 2 > eps2))
    return np.array(vols), nbrs


def serial_iid_mu(space, N, rng):
    """``iid_mu`` initial draws one ``sample_mu`` call at a time: the
    reference the vectorised draw must equal bit for bit."""
    pts = []
    seen = set()
    while len(pts) < N:
        p = space.canonicalize(space.sample_mu(rng))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def snapshot_rows_reference(trajectory, dim):
    """The snapshots table formatted one row and one value at a time."""
    head = "step,index,x,y,cell_volume,degree" if dim == 2 \
        else "step,index,x,cell_volume,degree"
    lines = [head]
    for snap in trajectory.snapshots:
        vols = np.asarray(snap.volumes, dtype=float)
        degs = np.asarray(snap.degrees)
        for i, p in enumerate(snap.points):
            if dim == 2:
                lines.append(f"{snap.step},{i},{float(p[0])!r},"
                             f"{float(p[1])!r},{float(vols[i])!r},"
                             f"{int(degs[i])}")
            else:
                lines.append(f"{snap.step},{i},{float(p)!r},"
                             f"{float(vols[i])!r},{int(degs[i])}")
    return lines


def f_grid(space, f_resolution):
    """The test points of ``j_function``'s F, as an (m, dim) array: R
    points in one dimension, the whole ``meshgrid`` of a G x G grid in
    two."""
    L = space.size
    if space.dim == 1:
        R = max(int(f_resolution), 2)
        return ((np.arange(R) + 0.5) * (L / R)).reshape(-1, 1)
    G = max(int(round(math.sqrt(f_resolution))), 2)
    xs = (np.arange(G) + 0.5) * (L / G)
    XX, YY = np.meshgrid(xs, xs)
    return np.column_stack([XX.ravel(), YY.ravel()])


def ckdtree_nearest_distances(config, space, f_resolution):
    """Nearest-neighbour distances of the generators and of every F-grid
    test point, from a ``cKDTree`` queried at the whole grid: the
    reference for the J-function's sorted-order (1D) and windowed (2D)
    distances."""
    from scipy.spatial import cKDTree

    L = space.size
    pts = np.asarray(config, dtype=float).reshape(-1, space.dim)
    tree = cKDTree(pts, boxsize=L if space.periodic else None)
    d_g = tree.query(pts, k=2)[0][:, 1]
    return d_g, tree.query(f_grid(space, f_resolution))[0]


def j_function_reference(config, space, r_grid, f_resolution):
    """The rows of ``j_function``, computed from ``cKDTree`` distances of
    every generator and every F-grid test point."""
    d_g, d_f = ckdtree_nearest_distances(config, space, f_resolution)
    L = space.size
    pts = np.asarray(config, dtype=float).reshape(-1, space.dim)
    grid = f_grid(space, f_resolution)
    if r_grid is None:
        r_grid = np.linspace(0.0, float(np.percentile(d_g, 90.0)), 21)[1:]
    bd_g = np.minimum(pts, L - pts).min(axis=1)
    bd_f = np.minimum(grid, L - grid).min(axis=1)
    rows = []
    for r in np.asarray(r_grid, dtype=float):
        if space.periodic:
            g = float((d_g <= r).mean())
            f = float((d_f <= r).mean())
        else:
            use_g = bd_g >= r
            use_f = bd_f >= r
            if not use_g.any() or not use_f.any():
                continue
            g = float((d_g[use_g] <= r).mean())
            f = float((d_f[use_f] <= r).mean())
        if f >= 1.0:
            continue
        rows.append((float(r), (1.0 - g) / (1.0 - f)))
    return np.array(rows, dtype=float).reshape(-1, 2)


def dump_config(cfg):
    """Serialize a configuration deterministically (sorted keys)."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def snapshot_lines(tess):
    """CSV description of every cell of a tessellation, a fingerprint that
    is deterministic across reruns."""
    nbrs = [sorted(s) for s in tess.neighbor_sets()]
    vols = tess.cell_volumes().tolist()
    two = tess.space.dim == 2
    lines = ["index,x,y,cell_volume,degree,neighbor_list" if two
             else "index,x,cell_volume,degree,neighbor_list"]
    for k, p in enumerate(tess.points):
        nb = ";".join(map(str, nbrs[k]))
        if two:
            lines.append(f"{k},{p[0]!r},{p[1]!r},{vols[k]!r},"
                         f"{len(nbrs[k])},{nb}")
        else:
            lines.append(f"{k},{p!r},{vols[k]!r},{len(nbrs[k])},{nb}")
    return lines
