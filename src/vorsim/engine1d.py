"""Sorted-order cell maintenance on the circle and the interval.

Cells in one dimension are arcs (or segments) bounded by midpoints to the
adjacent generators in sorted order, so the whole structure is the sorted
coordinates plus an id -> coordinate map.  The coordinates are plain
floats, packed in ``array('d')`` blocks of fewer than ``2 * BLOCK``
entries with the ids in a parallel ``array('q')`` block each, and a list
of block maxima finds a coordinate's block by bisection.  Generators are distinct,
so a coordinate names its point and locating an id is two float bisects:
no (position, id) pair and no per-point object is made.  The tessellation
sorts the points once when it builds the structure and fills every volume
from that sort in one vectorised pass; afterwards an update moves the
entries of one block, and only the cells it reports are recomputed, one
at a time from ``cell_bounds``.  A cell's neighbours are its neighbours
in sorted order, read here on demand.
"""

from array import array
from bisect import bisect_left
from itertools import chain

# Entries per block at build; a block that grows to twice this splits.
BLOCK = 1024


class Engine1D:
    def __init__(self, L, periodic, positions, xs, ids):
        """positions: list id -> coordinate in the canonical chart (None
        for an id not in the structure); xs, ids: numpy float64 and int64
        arrays of the coordinates of ``positions`` in sorted order and of
        their ids."""
        self.L = L
        self.periodic = periodic
        self.pos = positions
        self.n = n = len(xs)
        self.blocks = [_packed("d", xs[k:k + BLOCK])
                       for k in range(0, n, BLOCK)]
        self.ids = [_packed("q", ids[k:k + BLOCK])
                    for k in range(0, n, BLOCK)]
        self.maxes = [blk[-1] for blk in self.blocks]

    def _locate(self, x):
        """(block, offset) of the first coordinate >= x, or of the end of
        the last block when every coordinate is below x."""
        maxes = self.maxes
        b = bisect_left(maxes, x)
        if b == len(maxes):
            b -= 1
            return b, len(self.blocks[b])
        return b, bisect_left(self.blocks[b], x)

    def has_exact(self, x):
        if not self.n:
            return False
        b, i = self._locate(x)
        blk = self.blocks[b]
        return i < len(blk) and blk[i] == x

    def order(self):
        """The ids in sorted order of their coordinates."""
        return list(chain.from_iterable(self.ids))

    def ends(self):
        """Ids of the least and the greatest coordinate."""
        return self.ids[0][0], self.ids[-1][-1]

    def _neighbors(self, b, i):
        """Ids adjacent in sorted order to the entry at (b, i), wrap-aware."""
        k = self.n
        if k == 1:
            return ()
        ids = self.ids
        row = ids[b]
        if i:
            left = row[i - 1]
        elif b or self.periodic:
            left = ids[b - 1][-1]
        else:
            left = None
        if i + 1 < len(row):
            right = row[i + 1]
        elif b + 1 < len(ids):
            right = ids[b + 1][0]
        elif self.periodic:
            right = ids[0][0]
        else:
            right = None
        if self.periodic:
            return (left,) if k == 2 else (left, right)
        return tuple(u for u in (left, right) if u is not None)

    def degree(self, v):
        """Number of neighbours of the cell of v."""
        k = self.n
        if k == 1:
            return 0
        if self.periodic:
            return 1 if k == 2 else 2
        return 1 if v in self.ends() else 2

    def delete(self, v):
        """Remove v; returns the ids whose cells changed."""
        x = self.pos[v]
        b, i = self._locate(x)
        affected = set(self._neighbors(b, i))
        self.pos[v] = None
        self.n -= 1
        blk = self.blocks[b]
        del blk[i]
        del self.ids[b][i]
        if not blk:
            del self.blocks[b]
            del self.ids[b]
            del self.maxes[b]
        elif i == len(blk):
            self.maxes[b] = blk[-1]
        return affected

    def insert(self, v, x):
        """Insert v at coordinate x; returns the ids whose cells changed."""
        self.pos[v] = x
        self.n += 1
        if self.n == 1:
            self.blocks = [array("d", (x,))]
            self.ids = [array("q", (v,))]
            self.maxes = [x]
            return set()
        b, i = self._locate(x)
        blk = self.blocks[b]
        row = self.ids[b]
        blk.insert(i, x)
        row.insert(i, v)
        if i == len(blk) - 1:
            self.maxes[b] = x
        affected = set(self._neighbors(b, i))
        if len(blk) == 2 * BLOCK:
            self.blocks[b + 1:b + 1] = [blk[BLOCK:]]
            self.ids[b + 1:b + 1] = [row[BLOCK:]]
            del blk[BLOCK:]
            del row[BLOCK:]
            self.maxes.insert(b, blk[-1])
        return affected

    def cell_bounds(self, v):
        """Endpoints (a, b) of the cell of v; the cell is the span a -> b.

        On the circle the span is traversed in increasing direction mod L
        (a may exceed b, meaning the cell wraps); on the interval a <= b.
        """
        L = self.L
        x = self.pos[v]
        if self.n == 1:
            return (0.0, L) if not self.periodic else (x, x + L)
        b, i = self._locate(x)
        blocks = self.blocks
        blk = blocks[b]
        last = i + 1 == len(blk)
        if self.periodic:
            xl = blk[i - 1] if i else blocks[b - 1][-1]
            xr = blk[i + 1] if not last else \
                blocks[(b + 1) % len(blocks)][0]
            a = xl + ((x - xl) % L) / 2.0
            c = x + ((xr - x) % L) / 2.0
            return (a % L, c % L)
        if i:
            a = (blk[i - 1] + x) / 2.0
        else:
            a = (blocks[b - 1][-1] + x) / 2.0 if b else 0.0
        if not last:
            c = (x + blk[i + 1]) / 2.0
        else:
            c = (x + blocks[b + 1][0]) / 2.0 if b + 1 < len(blocks) else L
        return (a, c)


def _packed(code, values):
    """An ``array`` of ``code`` holding the numpy array ``values``."""
    out = array(code)
    out.frombytes(values.tobytes())
    return out
