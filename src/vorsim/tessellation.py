"""Voronoi tessellations with incremental point replacement.

A tessellation is backed by a sorted-order arc structure in one dimension
and by an incremental Delaunay engine in two, down to a single point.
Both answer the same questions: cell volumes under the reference density,
neighbour sets over shared positive-length cell boundaries, and which
cells changed after replacing or removing a point.  An engine update that
raises ``Abort2D`` rebuilds the engine from scratch, a last resort no
known chain reaches; a build that raises it fails.

In one dimension the build sorts the points once; that sort serves the
duplicate check, the engine's blocks of sorted coordinates and one
vectorised pass that fills every volume, so a fresh tessellation has no
stale cell.  Later updates recompute only the volumes they change, one at
a time, with the same float operations, so a cell reads the same bits
whichever path computed it.  A 1D cell's neighbours are its neighbours in
sorted order: they are read from the engine and never cached.
Each shape of clipped square cell has one area formula, so a volume has
the same bits whichever read computed it.

A cell changed by an update is recomputed when it is next read, and
every read goes through ``_refresh``: ``volumes_at``/``degrees_at`` for
the cells a step changed, ``cell_volumes``/``degrees`` and the other
whole views for all stale cells.  Volumes and 2D neighbour sets go stale
separately, so a volume-only read can skip the adjacency work.

Cells are addressed by their index in the configuration.  ``replace_point``
keeps indices stable; ``remove_point`` shifts the indices above the removed
one down by one, as list deletion does.  Internally a cell is keyed by the
id of its generator in the backend, and ``_eid`` lists the ids in index
order.  Every (re)build assigns the ids 0..n-1 in index order, replacement
keeps each id and removal only pops one, so ``_eid`` is always strictly
increasing and an id's index is found by bisection, with no map to rebuild
after each removal.
"""

import math
from bisect import bisect_left

import numpy as np

from .engine1d import Engine1D
from .engine2d import build_engine
from .errors import Abort2D, ConfigError, DuplicatePoints
from .geom2d import (BOUNDARY, clip_polygon_halfplane, halfplane_area,
                     polygon_area, polygon_grid_measure)
from .space import _canonical_array

# Dual edges shorter than this fraction of the space size are treated as
# degenerate contact (four cells meeting in a point) rather than adjacency.
EDGE_EPS_REL = 1e-12

# The sides of the square by ``Engine2D.cell_scan`` flag bit, as the
# half-plane nx*x + ny*y <= c*L that keeps the square, in clipping order.
_SIDES = {1: (-1.0, 0.0, 0.0), 2: (1.0, 0.0, 1.0),
          4: (0.0, -1.0, 0.0), 8: (0.0, 1.0, 1.0)}


def _canonical_points(points, space):
    """Canonical copies of the points, checked for coincident pairs.

    Returns the points and, in one dimension, the stable argsort of their
    coordinates with the sorted coordinates, which the sorted1d backend is
    built from (None in 2D).
    """
    if space.dim == 1:
        xs = np.asarray(points, dtype=float).reshape(len(points))
        xs = _canonical_array(space, xs)
        if not xs.size:
            raise ConfigError("a configuration needs at least one point")
        pts = xs.tolist()
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        same = np.flatnonzero(xs[1:] == xs[:-1])
        if same.size:
            k = int(same[0])
            raise DuplicatePoints(f"points {int(order[k])} and "
                                  f"{int(order[k + 1])} coincide")
        return pts, (order, xs)
    pts = [space.canonicalize(p) for p in points]
    if not pts:
        raise ConfigError("a configuration needs at least one point")
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    for a, b in zip(order, order[1:]):
        if pts[a] == pts[b]:
            raise DuplicatePoints(f"points {a} and {b} coincide")
    return pts, None


class Tessellation:
    """Voronoi cells of a point configuration on a supported space."""

    @classmethod
    def build(cls, points, space):
        self = cls.__new__(cls)
        self.space = space
        self.points, srt = _canonical_points(points, space)
        self._eps2 = (EDGE_EPS_REL * space.size) ** 2
        self._vol = {}
        self._nbr = {}
        self._install_backend(srt)
        return self

    @property
    def n(self):
        return len(self.points)

    @property
    def backend(self):
        return self._backend

    def _install_backend(self, srt=None):
        """(Re)build the backing structure from the current points.

        ``srt`` is the argsort and the sorted coordinates from
        ``_canonical_points``; only the 1D backend, which is built once and
        never rebuilt, needs them.
        """
        pts = self.points
        n = len(pts)
        self._eid = eid = list(range(n))
        self._vol.clear()
        self._nbr.clear()
        space = self.space
        self._collect2 = not space.periodic or space.density is not None
        self._ghosts = frozenset()
        # volumes and neighbour sets age independently: volume-only reads
        # (the common case along a chain) skip the adjacency bookkeeping
        self._dirty_vol = set()
        self._dirty_nbr = set()
        if space.dim == 1:
            order, xs = srt
            # ids are 0..n-1, so the id -> coordinate map is a list
            self._eng = Engine1D(space.size, space.periodic, list(pts), xs,
                                 order)
            self._backend = "sorted1d"
            self._fill_1d(order, xs)
            return
        self._eng = eng = build_engine(pts, space.size, space.periodic)
        self._backend = "delaunay2d"
        self._ghosts = eng.ghosts
        self._dirty_vol = set(range(n))
        self._dirty_nbr = set(range(n))

    # ------------------------------------------------------------------
    # mutation

    def _check_duplicate(self, p):
        if self._backend == "sorted1d":
            dup = self._eng.has_exact(p)
        else:
            dup = self._eng.has_exact(p[0], p[1])
        if dup:
            raise DuplicatePoints(f"point {p!r} is already a generator")

    def _changed(self, aff):
        """Mark the cells of engine ids ``aff`` stale; returns their indices."""
        aff -= self._ghosts
        self._dirty_vol |= aff
        if self._backend != "sorted1d":
            self._dirty_nbr |= aff
        eid = self._eid
        return tuple(bisect_left(eid, e) for e in sorted(aff))

    def _rebuild(self):
        """Rebuild the backend; every cell counts as changed."""
        self._install_backend()
        return tuple(range(len(self.points)))

    def replace_point(self, j, new_point):
        """Move point j; returns the indices whose cells changed."""
        n = len(self.points)
        if not (0 <= j < n):
            raise ConfigError(f"index {j} outside the configuration")
        p = self.space.canonicalize(new_point)
        if p == self.points[j]:
            return (j,)
        self._check_duplicate(p)
        self.points[j] = p
        e = self._eid[j]
        eng = self._eng
        if self._backend == "sorted1d":
            aff = eng.delete(e)
            aff |= eng.insert(e, p)
        elif n == 1:
            # the torus engine cannot delete its only vertex, and a
            # one-point rebuild costs no more than an update
            return self._rebuild()
        else:
            try:
                aff = eng.delete(e)
                eng.X[e] = p[0]
                eng.Y[e] = p[1]
                aff |= eng.insert(e)
            except Abort2D:
                return self._rebuild()
        aff.add(e)
        return self._changed(aff)

    def remove_point(self, j):
        """Delete point j from the configuration (thinning step)."""
        n = len(self.points)
        if not (0 <= j < n):
            raise ConfigError(f"index {j} outside the configuration")
        if n == 1:
            raise ConfigError("cannot remove the last point")
        e = self._eid[j]
        self.points.pop(j)
        self._eid.pop(j)
        self._vol.pop(e, None)
        self._nbr.pop(e, None)
        self._dirty_vol.discard(e)
        self._dirty_nbr.discard(e)
        if self._backend == "sorted1d":
            return self._changed(self._eng.delete(e))
        try:
            aff = self._eng.delete(e)
        except Abort2D:
            return self._rebuild()
        aff.discard(e)
        return self._changed(aff)

    # ------------------------------------------------------------------
    # cell statistics

    def _refresh(self, es, want_nbrs):
        """Recompute the stale cells among engine ids ``es``.

        A cell is stale for volume reads while in ``_dirty_vol``.  A 2D
        cell is stale for neighbour reads while in ``_dirty_nbr`` (which
        then holds every id of ``_dirty_vol``); recomputing it always
        stores its volume, and it leaves ``_dirty_nbr`` when ``_cell_2d``
        says its neighbours were stored too.  1D cells cache no
        neighbours, so there ``want_nbrs`` asks for nothing more.
        """
        dirty_vol = self._dirty_vol
        if self._backend == "sorted1d":
            for e in es:
                if e in dirty_vol:
                    self._cell_1d(e)
                    dirty_vol.discard(e)
            return
        dirty_nbr = self._dirty_nbr
        dirty = dirty_nbr if want_nbrs else dirty_vol
        for e in es:
            if e in dirty:
                stored = self._cell_2d(e, want_nbrs)
                dirty_vol.discard(e)
                if stored:
                    dirty_nbr.discard(e)

    def _fill_1d(self, order, xs):
        """Every volume of a fresh sorted1d backend in one vectorised pass.

        ``order`` sorts the points into ``xs``.  Bounds and volumes use the
        float operations of ``_cell_1d`` (numpy's float ``mod`` rounds as
        Python's ``%`` does), and the cache is filled in id order, as
        ``cell_volumes`` reads it.
        """
        space = self.space
        eid = self._eid
        n = len(eid)
        if n == 1:
            self._vol[eid[0]] = space.total_measure("lambda")
            return
        L = space.size
        if space.periodic:
            # the far end of each cell is the near end of the next one
            mid = xs + np.mod(np.roll(xs, -1) - xs, L) / 2.0
            a = np.mod(np.roll(mid, 1), L)
            b = np.mod(mid, L)
        else:
            mid = (xs[:-1] + xs[1:]) / 2.0
            a = np.concatenate(([0.0], mid))
            b = np.concatenate((mid, [L]))
        if space.density is None:
            vol = np.mod(b - a, L) if space.periodic else b - a
        else:
            measure = space.region_measure
            vol = np.array([measure(ab, "lambda")
                            for ab in zip(a.tolist(), b.tolist())])
        by_id = np.empty(n)
        by_id[order] = vol
        self._vol.update(zip(eid, by_id.tolist()))

    def _cell_1d(self, v):
        """Recompute the volume of the cell of engine id v."""
        eng = self._eng
        space = self.space
        if eng.n == 1:
            self._vol[v] = space.total_measure("lambda")
            return
        a, b = eng.cell_bounds(v)
        if space.density is None:
            L = space.size
            self._vol[v] = (b - a) % L if space.periodic else b - a
        else:
            self._vol[v] = space.region_measure((a, b), "lambda")

    def _neighbor_indices(self):
        """Sorted neighbour indices of every cell, in configuration order."""
        eid = self._eid
        if self._backend != "sorted1d":
            self._refresh(list(self._dirty_nbr), True)
            cfg = {e: k for k, e in enumerate(eid)}
            nbr = self._nbr
            return [sorted(cfg[u] for u in nbr[e]) for e in eid]
        eng = self._eng
        n = eng.n
        if n == 1:
            return [[]]
        # the index of each cell in sorted order; its neighbours are the
        # entries before and after it there
        at = np.searchsorted(np.array(eid), np.array(eng.order()))
        left = np.roll(at, 1)
        right = np.roll(at, -1)
        lo = np.empty_like(at)
        hi = np.empty_like(at)
        lo[at] = np.minimum(left, right)
        hi[at] = np.maximum(left, right)
        if n == 2:
            return [[k] for k in lo.tolist()]
        out = [list(pair) for pair in zip(lo.tolist(), hi.tolist())]
        if not eng.periodic:
            out[at[0]] = [int(at[1])]
            out[at[-1]] = [int(at[-2])]
        return out

    def _cell_2d(self, v, want_nbrs=True):
        """Recompute the cell of engine vertex v.

        Returns True when the neighbour set was stored alongside the
        volume, False when only the volume was.
        """
        eng = self._eng
        space = self.space
        L = space.size
        eps2 = self._eps2
        vol, nbrs, ring, ccs, flags = eng.cell_scan(v, eps2, want_nbrs,
                                                    self._collect2)
        if not flags:
            if space.density is not None:
                vol = polygon_grid_measure(ccs, space.density, L,
                                           space.periodic) \
                    if len(ccs) >= 3 else 0.0
            self._vol[v] = vol
            if want_nbrs:
                self._nbr[v] = tuple(sorted(set(nbrs)))
                return True
            return False
        # a cell crossing one side takes its area from the fused clip on
        # every read, any other clipped cell from its clipped polygon
        side = _SIDES.get(flags) if space.density is None else None
        if side is not None:
            nx, ny, c = side
            self._vol[v] = halfplane_area(ccs, nx, ny, c * L)
            if not want_nbrs:
                return False
        # cell protrudes from the chart or touches a ghost: clip against the
        # crossed sides only (cells are convex), and keep the neighbour set
        # since the clip pays for it anyway
        d = len(ring)
        poly = ccs
        clabels = [ring[(k + 1) % d] for k in range(d)]
        if flags & 16:
            flags = 15
        for bit, (nx, ny, c) in _SIDES.items():
            if flags & bit:
                poly, clabels = clip_polygon_halfplane(poly, clabels,
                                                       nx, ny, c * L, BOUNDARY)
        vol, self._nbr[v] = self._polygon_cell(poly, clabels)
        if side is None:
            self._vol[v] = vol
        return True

    def _polygon_cell(self, poly, labels):
        """Volume and sorted neighbour tuple of a clipped square cell.

        ``labels[k]`` names the generator across the edge from ``poly[k]``
        to ``poly[k+1]``; edges on the boundary or towards a ghost, or no
        longer than the contact tolerance, make no neighbour.
        """
        space = self.space
        eps2 = self._eps2
        ghosts = self._ghosts
        nbrs = set()
        m = len(poly)
        for k in range(m):
            lab = labels[k]
            if lab == BOUNDARY or lab in ghosts:
                continue
            x1, y1 = poly[k]
            x2, y2 = poly[(k + 1) % m]
            if (x2 - x1) ** 2 + (y2 - y1) ** 2 > eps2:
                nbrs.add(lab)
        if m < 3:
            vol = 0.0
        elif space.density is None:
            vol = abs(polygon_area(poly))
        else:
            vol = polygon_grid_measure(poly, space.density, space.size, False)
        return vol, tuple(sorted(nbrs))

    # ------------------------------------------------------------------
    # views

    def cell_volumes(self):
        """Reference-measure volume of every cell, in configuration order."""
        self._refresh(list(self._dirty_vol), False)
        vol = self._vol
        return np.array([vol[e] for e in self._eid], dtype=float)

    def degrees(self):
        """Number of neighbours of every cell, in configuration order."""
        if self._backend == "sorted1d":
            # two neighbours each, or one at either end of the interval
            n = len(self._eid)
            degs = np.full(n, min(n - 1, 2), dtype=np.int64)
            if n > 2 and not self.space.periodic:
                degs[[bisect_left(self._eid, e)
                      for e in self._eng.ends()]] = 1
            return degs
        self._refresh(list(self._dirty_nbr), True)
        nbr = self._nbr
        return np.array([len(nbr[e]) for e in self._eid], dtype=np.int64)

    def neighbor_sets(self):
        """Neighbour indices of every cell, in configuration order."""
        return [frozenset(ks) for ks in self._neighbor_indices()]

    def volumes_at(self, indices):
        """Volumes of the given cells (the chain's hot path)."""
        eid = self._eid
        es = [eid[j] for j in indices]
        self._refresh(es, False)
        vol = self._vol
        return [vol[e] for e in es]

    def degrees_at(self, indices):
        """Degrees of the given cells (the chain's hot path)."""
        eid = self._eid
        es = [eid[j] for j in indices]
        if self._backend == "sorted1d":
            return list(map(self._eng.degree, es))
        self._refresh(es, True)
        nbr = self._nbr
        return [len(nbr[e]) for e in es]


def build(points, space):
    """Build the Voronoi tessellation of a configuration."""
    return Tessellation.build(points, space)


def replace_point(tess, j, new_point):
    """Replace point j of a tessellation in place; returns changed indices."""
    return tess.replace_point(j, new_point)


# ----------------------------------------------------------------------
# independent reference statistics from a stratified sample grid


def _wrap_abs(delta, L):
    d = np.abs(delta)
    return np.minimum(d, L - d)


def oracle_cell_stats(points, space, resolution=1_000_000):
    """Approximate cell volumes and adjacency from a dense sample grid.

    Every sample point of a stratified grid (about ``resolution`` of them)
    is assigned to its nearest generator under the space metric; volumes
    are integrated from the label field and adjacency counted over sample
    edges whose endpoints belong to different cells.

    Returns
    -------
    volumes : ndarray
        Approximate reference-measure volume per cell.
    neighbor_sets : list of frozenset
        Cells sharing at least one sample edge.
    boundary_counts : dict
        ``(i, j) -> number of straddling sample edges`` with ``i < j``.
    """
    space_pts = [space.canonicalize(p) for p in points]
    n = len(space_pts)
    L = space.size
    counts = {}

    def tally(a, b):
        m = a != b
        if not m.any():
            return
        lo = np.minimum(a[m], b[m]).astype(np.int64)
        hi = np.maximum(a[m], b[m]).astype(np.int64)
        keys, reps = np.unique(lo * n + hi, return_counts=True)
        for key, rep in zip(keys.tolist(), reps.tolist()):
            pair = divmod(key, n)
            counts[pair] = counts.get(pair, 0) + rep

    if space.dim == 1:
        R = max(int(resolution), n + 1)
        xs = (np.arange(R) + 0.5) * (L / R)
        best = np.full(R, np.inf)
        owner = np.zeros(R, dtype=np.int64)
        for i, p in enumerate(space_pts):
            d = np.abs(xs - p)
            if space.periodic:
                np.minimum(d, L - d, out=d)
            closer = d < best
            owner[closer] = i
            best[closer] = d[closer]
        if space.density is None:
            w = None
        else:
            g = space.density
            idx = np.minimum((xs / L * g.shape[0]).astype(np.int64),
                             g.shape[0] - 1)
            w = g[idx]
        vols = np.bincount(owner, weights=w, minlength=n) * (L / R)
        tally(owner[:-1], owner[1:])
        if space.periodic:
            tally(owner[-1:], owner[:1])
    else:
        G = max(int(round(math.sqrt(resolution))), 2)
        xs = (np.arange(G) + 0.5) * (L / G)
        XX, YY = np.meshgrid(xs, xs)
        best = np.full((G, G), np.inf)
        owner = np.zeros((G, G), dtype=np.int64)
        for i, (px, py) in enumerate(space_pts):
            if space.periodic:
                dx = _wrap_abs(XX - px, L)
                dy = _wrap_abs(YY - py, L)
            else:
                dx = XX - px
                dy = YY - py
            d2 = dx * dx + dy * dy
            closer = d2 < best
            owner[closer] = i
            best[closer] = d2[closer]
        if space.density is None:
            w = None
        else:
            g = space.density
            nrows, ncols = g.shape
            ci = np.minimum((XX / L * ncols).astype(np.int64), ncols - 1)
            ri = np.minimum((YY / L * nrows).astype(np.int64), nrows - 1)
            w = g[ri, ci].ravel()
        vols = np.bincount(owner.ravel(), weights=w,
                           minlength=n) * (L / G) ** 2
        tally(owner[:, :-1].ravel(), owner[:, 1:].ravel())
        tally(owner[:-1, :].ravel(), owner[1:, :].ravel())
        if space.periodic:
            tally(owner[:, -1].ravel(), owner[:, 0].ravel())
            tally(owner[-1, :].ravel(), owner[0, :].ravel())

    nbrs = [set() for _ in range(n)]
    for (i, j) in counts:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return vols, [frozenset(s) for s in nbrs], counts
