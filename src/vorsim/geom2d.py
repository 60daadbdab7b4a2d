"""Planar polygon helpers for Voronoi cell extraction.

Cells are convex polygons of triangle circumcenters.  Bounded spaces need
them clipped to the square; the clipper keeps track of which neighbouring
generator contributed each polygon edge so that adjacency can be read off
the clipped geometry (an edge wholly outside the square must not create a
neighbour pair).
"""

import math

BOUNDARY = -1  # edge label for pieces lying on the clipping rectangle


def circumcenter(ax, ay, bx, by, cx, cy):
    """Circumcenter of a non-degenerate triangle, computed relative to a."""
    bax = bx - ax
    bay = by - ay
    cax = cx - ax
    cay = cy - ay
    d = 2.0 * (bax * cay - bay * cax)
    if d == 0.0:
        raise ZeroDivisionError("degenerate triangle has no circumcenter")
    b2 = bax * bax + bay * bay
    c2 = cax * cax + cay * cay
    ux = (cay * b2 - bay * c2) / d
    uy = (bax * c2 - cax * b2) / d
    return (ax + ux, ay + uy)


def polygon_area(pts):
    """Signed area of a polygon given as a vertex list (CCW positive)."""
    total = 0.0
    n = len(pts)
    x1, y1 = pts[-1]
    for i in range(n):
        x2, y2 = pts[i]
        total += x1 * y2 - x2 * y1
        x1, y1 = x2, y2
    return 0.5 * total


def halfplane_area(pts, nx, ny, c):
    """Area of ``polygon  ∩  {nx*x + ny*y <= c}`` without building it.

    Emits the clipped vertex sequence implicitly and accumulates the
    shoelace sum on the fly; gives the area of every square cell that
    crosses exactly one side of the square.
    """
    n = len(pts)
    area2 = 0.0
    fx = fy = None
    px = py = 0.0
    ax, ay = pts[n - 1]
    fa = nx * ax + ny * ay - c
    for i in range(n):
        bx, by = pts[i]
        fb = nx * bx + ny * by - c
        if fa <= 0.0:
            if fx is None:
                fx, fy = ax, ay
            else:
                area2 += px * ay - ax * py
            px, py = ax, ay
            if fb > 0.0:
                t = fa / (fa - fb)
                qx = ax + t * (bx - ax)
                qy = ay + t * (by - ay)
                area2 += px * qy - qx * py
                px, py = qx, qy
        elif fb <= 0.0:
            t = fa / (fa - fb)
            qx = ax + t * (bx - ax)
            qy = ay + t * (by - ay)
            if fx is None:
                fx, fy = qx, qy
            else:
                area2 += px * qy - qx * py
            px, py = qx, qy
        ax, ay, fa = bx, by, fb
    if fx is None:
        return 0.0
    area2 += px * fy - fx * py
    return 0.5 * abs(area2)


def clip_polygon_halfplane(pts, labels, nx, ny, c, new_label):
    """Clip a labelled polygon to the half-plane nx*x + ny*y <= c.

    Edges created along the clipping line receive ``new_label``.
    """
    if not pts:
        return [], []
    out_p = []
    out_l = []
    n = len(pts)
    fv = [nx * p[0] + ny * p[1] - c for p in pts]
    for i in range(n):
        a = pts[i]
        b = pts[(i + 1) % n]
        fa = fv[i]
        fb = fv[(i + 1) % n]
        la = labels[i]
        if fa <= 0.0:
            out_p.append(a)
            out_l.append(la)
            if fb > 0.0:
                t = fa / (fa - fb)
                out_p.append((a[0] + t * (b[0] - a[0]),
                              a[1] + t * (b[1] - a[1])))
                out_l.append(new_label)
        elif fb <= 0.0:
            t = fa / (fa - fb)
            out_p.append((a[0] + t * (b[0] - a[0]),
                          a[1] + t * (b[1] - a[1])))
            out_l.append(la)
    return out_p, out_l


def _clip_box(pts, x0, x1, y0, y1):
    """Clip a polygon to the box [x0, x1] x [y0, y1], one side at a time."""
    labels = [BOUNDARY] * len(pts)
    for nx, ny, c in ((-1.0, 0.0, -x0), (1.0, 0.0, x1),
                      (0.0, -1.0, -y0), (0.0, 1.0, y1)):
        pts, labels = clip_polygon_halfplane(pts, labels, nx, ny, c, BOUNDARY)
    return pts


def _grid_cell_overlap(pts, grid, L):
    """Integral of a piecewise-constant grid over a polygon within [0, L]^2."""
    if not pts:
        return 0.0
    nrows, ncols = grid.shape
    wx = L / ncols
    wy = L / nrows
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    c0 = max(int(math.floor(min(xs) / wx)), 0)
    c1 = min(int(math.ceil(max(xs) / wx)), ncols)
    r0 = max(int(math.floor(min(ys) / wy)), 0)
    r1 = min(int(math.ceil(max(ys) / wy)), nrows)
    total = 0.0
    for c in range(c0, c1):
        strip = _clip_box(pts, c * wx, (c + 1) * wx, 0.0, L)
        if not strip:
            continue
        for r in range(r0, r1):
            piece = _clip_box(strip, c * wx, (c + 1) * wx,
                              r * wy, (r + 1) * wy)
            if piece:
                total += grid[r, c] * abs(polygon_area(piece))
    return total


def polygon_grid_measure(pts, grid, L, periodic):
    """Density-weighted area of a cell polygon.

    On the torus the polygon may extend outside the chart; it is split over
    the nine surrounding translates and each piece integrated against the
    grid after shifting back.
    """
    if not periodic:
        return _grid_cell_overlap(pts, grid, L)
    total = 0.0
    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            piece = _clip_box(pts, ox * L, (ox + 1) * L,
                              oy * L, (oy + 1) * L)
            if piece:
                shifted = [(p[0] - ox * L, p[1] - oy * L) for p in piece]
                total += _grid_cell_overlap(shifted, grid, L)
    return total
