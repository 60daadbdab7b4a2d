"""Sorted-order cell maintenance on the circle and the interval.

Cells in one dimension are arcs (or segments) bounded by midpoints to the
adjacent generators in sorted order, so the whole structure is a sorted list
of (position, id) keys plus an id -> position map.  The tessellation sorts
the points once when it builds the structure, and fills every cell from that
sort in one vectorised pass; afterwards each update is a bisect plus a
memmove, and only the cells it reports are recomputed, one at a time from
``neighbors_at`` and ``cell_bounds``.  No fallback paths are needed.
"""

from bisect import bisect_left, insort


class Engine1D:
    def __init__(self, L, periodic, positions, keys):
        """positions: dict id -> coordinate in the canonical chart;
        keys: the (coordinate, id) pairs of ``positions`` in sorted order."""
        self.L = L
        self.periodic = periodic
        self.pos = positions
        self.keys = keys

    def index_of(self, v):
        k = (self.pos[v], v)
        i = bisect_left(self.keys, k)
        if i >= len(self.keys) or self.keys[i] != k:
            raise KeyError(v)
        return i

    def has_exact(self, x):
        i = bisect_left(self.keys, (x,))
        return i < len(self.keys) and self.keys[i][0] == x

    def neighbors_at(self, i):
        """Ids adjacent in sorted order to the key at index i (wrap-aware)."""
        keys = self.keys
        k = len(keys)
        if k == 1:
            return ()
        if self.periodic:
            left = keys[i - 1][1]
            right = keys[(i + 1) % k][1]
            if k == 2:
                return (left,)
            return (left, right)
        out = []
        if i > 0:
            out.append(keys[i - 1][1])
        if i < k - 1:
            out.append(keys[i + 1][1])
        return tuple(out)

    def delete(self, v):
        """Remove v; returns the ids whose cells changed."""
        i = self.index_of(v)
        affected = set(self.neighbors_at(i))
        self.keys.pop(i)
        del self.pos[v]
        return affected

    def insert(self, v, x):
        """Insert v at coordinate x; returns the ids whose cells changed."""
        self.pos[v] = x
        insort(self.keys, (x, v))
        i = self.index_of(v)
        return set(self.neighbors_at(i))

    def cell_bounds(self, v):
        """Endpoints (a, b) of the cell of v; the cell is the span a -> b.

        On the circle the span is traversed in increasing direction mod L
        (a may exceed b, meaning the cell wraps); on the interval a <= b.
        """
        L = self.L
        keys = self.keys
        k = len(keys)
        i = self.index_of(v)
        x = keys[i][0]
        if k == 1:
            return (0.0, L) if not self.periodic else (x, x + L)
        if self.periodic:
            xl = keys[i - 1][0]
            xr = keys[(i + 1) % k][0]
            a = xl + ((x - xl) % L) / 2.0
            b = x + ((xr - x) % L) / 2.0
            return (a % L, b % L)
        a = 0.0 if i == 0 else (keys[i - 1][0] + x) / 2.0
        b = L if i == k - 1 else (x + keys[i + 1][0]) / 2.0
        return (a, b)
