"""Incremental Delaunay maintenance for the two-dimensional spaces.

The torus is represented on a one-cover quotient: a triangle stores three
canonical generator ids plus an integer lift per corner and axis, so corner
coordinates are ``x + a*L``.  Valid torus Delaunay triangles have edges no
longer than ``sqrt(2)*L`` (the largest empty-disk diameter), hence lifts fit
in {0, 1, 2} after per-triangle normalization.  Adjacency records carry the
translation that maps the neighbour's stored lifts into the triangle's own
frame.  A triangle may carry one generator at two corners (a Delta-complex),
as the Delaunay triangulation of a collapsed torus configuration does.  The
square uses the same structure with all lifts zero plus four distant ghost
generators whose hull contains the square, so every real cell is bounded;
ghost bisectors pass nowhere near the square, leaving clipped cells exact.

Point insertion is cavity-based (conflict search by the in-circle predicate,
fan retriangulation of the cavity ring); deletion collects the star of the
vertex and retriangulates the link polygon by ear cutting with empty-circle
validation.  Both fast paths need a hole shaped like a disk around one lift
of the vertex.  On the torus a hole can touch another period of itself: a
star visits a triangle twice or its link touches another period of the
vertex, a cavity meets itself around the torus or its ring touches its own
period.  Such a hole is retriangulated in the universal cover instead
(``_fill_hole``): every quotient triangle of the hole goes, and the Delaunay
triangles of its corners' lifts are wrapped outwards from the rim, one per
directed edge, deduplicated with ``_rotate_min`` and paired by quotient
edge keys (``_pair_edges``).  Two facts shorten an insert there.  Every
triangle an insertion creates has the new vertex at a corner (Watson,
1981), so the triangle beyond a rim side, whose two corners are old, takes
its apex among the new vertex's lifts.  And the Delaunay triangulation of
a periodic point set is unique under the symbolic perturbation (Caroli and
Teillaud, 2016), so deleting the vertex just inserted brings back exactly
the triangles its insert removed: the insert keeps what it overwrote, and
a ``delete`` of the same vertex restores it.  ``insert`` and ``delete``
clear that record when they start, so it never outlives the next
mutation.

Corner coordinates are rounded floats, and the rounding of ``x + a*L``
changes with the lift, so one configuration seen in two frames is two
slightly different point sets.  Every in-circle test therefore passes the
engine's ``Lifts``, which make it exact for the true images: ties between
periods (seeds a third of a period apart, points sharing a coordinate)
resolve the same way in every frame, as the refill needs.

The delete's ear cut, the refill and the seeded build make their
triangles alike.  ``_triangle`` takes three lifted corners in one frame,
computes the circumcenter in that frame, normalises the lifts and shifts
the circumcenter with them.  ``_commit`` frees the hole's slots, writes
the new records, circumcenters and links, and points each corner's
incidence at the last new triangle it is in.  The ear cut links each ear
as it cuts it; the refill and the build link by ``_pair_edges``.  The
insert fan, which every chain step and every build runs, keeps its
records, adjacency and incidence inline.  Routed through ``_triangle``
alone, builds of a 4,096-point torus and an 8,192-point square ran about
5% slower (12 alternating pairs, CPython 3.11 on a 2-vCPU VM), and
``_commit``'s incidence rule would move the corner each cell walk starts
from, which changes the rounding of cell volumes summed from there.

Any situation neither path can represent (an oversized cavity, an
inconsistent ring, a refill of the wrong size) raises ``Abort2D`` before
any mutation, and the caller rebuilds from scratch.

Static builds insert the points, in a biased randomized insertion order,
into an exactly resolved seed complex: the ghost frame (square) or a 3x3
lattice whose seeds are deleted afterwards (torus); there is no library
triangulation.  The torus builds this way down to a single point.  A
build that aborts raises ``Abort2D``.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import Abort2D
from .geom2d import circumcenter
from .predicates import Lifts, incircle, orient2d

_LIFT_MAX = 2  # max normalized lift: edges never exceed sqrt(2)*L
_APEX_REACH = 0.75  # bounds a Delaunay disk's radius L/sqrt(2), with slack

# cyclic corner successors, cheaper than (c + 1) % 3 in the hot walks
_NXT = (1, 2, 0)
_NX2 = (2, 0, 1)


class Engine2D:
    """Triangulation of the current generators of a 2D space."""

    def __init__(self, L, periodic, X, Y, ghosts=()):
        self.L = L
        self.periodic = periodic
        self.X = X
        self.Y = Y
        self.ghosts = frozenset(ghosts)
        self.lifts = Lifts(X, Y, L) if periodic else None
        self.TRI = []   # (i0, i1, i2, a0, b0, a1, b1, a2, b2) or None
        self.NBR = []   # per slot e: (t2, e2, dx, dy) or None; slot e is the
                        # edge opposite corner e, i.e. corners e+1, e+2
        self.CC = []    # circumcenter in the triangle's stored frame
        self.free = []
        self.incident = {}   # vertex -> (t, corner_slot)
        self.live = 0
        self.nbuckets = 1
        self.bucket_w = L
        self.buckets = {}
        self._undo = None    # what the last general-path insert overwrote

    # ------------------------------------------------------------------
    # bucket grid (locate acceleration and exact-duplicate detection)

    def rebucket(self, expected_n):
        n = max(1, int(math.sqrt(max(expected_n, 1))))
        self.nbuckets = n
        self.bucket_w = self.L / n
        self.buckets = {}

    def _bucket_xy(self, x, y):
        n = self.nbuckets
        bx = int(x / self.bucket_w)
        by = int(y / self.bucket_w)
        if bx < 0:
            bx = 0
        elif bx >= n:
            bx = n - 1
        if by < 0:
            by = 0
        elif by >= n:
            by = n - 1
        return (bx, by)

    def bucket_add(self, v):
        self.buckets.setdefault(self._bucket_xy(self.X[v], self.Y[v]),
                                set()).add(v)

    def bucket_remove(self, v):
        key = self._bucket_xy(self.X[v], self.Y[v])
        s = self.buckets.get(key)
        if s is not None:
            s.discard(v)
            if not s:
                del self.buckets[key]

    def has_exact(self, x, y):
        s = self.buckets.get(self._bucket_xy(x, y))
        if not s:
            return False
        X, Y = self.X, self.Y
        return any(X[v] == x and Y[v] == y for v in s)

    def _near_vertex(self, x, y):
        n = self.nbuckets
        bx, by = self._bucket_xy(x, y)
        per = self.periodic
        X, Y, L = self.X, self.Y, self.L
        for r in range(n + 1):
            found = []
            for dx, dy in _ring_offsets(r):
                cx, cy = bx + dx, by + dy
                if per:
                    cx %= n
                    cy %= n
                elif not (0 <= cx < n and 0 <= cy < n):
                    continue
                s = self.buckets.get((cx, cy))
                if s:
                    found.extend(s)
            if found:
                best = None
                bestkey = None
                for v in found:
                    ddx = abs(X[v] - x)
                    ddy = abs(Y[v] - y)
                    if per:
                        if ddx > L - ddx:
                            ddx = L - ddx
                        if ddy > L - ddy:
                            ddy = L - ddy
                    key = (ddx * ddx + ddy * ddy, v)
                    if bestkey is None or key < bestkey:
                        bestkey = key
                        best = v
                return best
        if self.incident:
            return min(self.incident)
        raise Abort2D("no live vertices to start a walk from")

    def _local_cap(self):
        # structural bound: a cavity or star can never exceed the live
        # triangle count, so anything larger means the walk is cycling
        return 2 * max(self.live, 1) + 16

    # ------------------------------------------------------------------
    # point location

    def locate(self, x, y, start=None):
        """Triangle node (t, sx, sy) whose lifted corners contain (x, y),
        walking from vertex ``start`` or else from the nearest bucketed one."""
        u = self._near_vertex(x, y) if start is None else start
        t, c = self.incident[u]
        tri = self.TRI[t]
        if tri is None or tri[c] != u:
            raise Abort2D("stale incidence pointer")
        L = self.L
        if self.periodic:
            sux = math.floor((x - self.X[u]) / L + 0.5)
            suy = math.floor((y - self.Y[u]) / L + 0.5)
        else:
            sux = suy = 0
        sx = sux - tri[3 + 2 * c]
        sy = suy - tri[4 + 2 * c]
        X, Y = self.X, self.Y
        TRI, NBR = self.TRI, self.NBR
        cap = 4 * (self.live + 4) + 16
        steps = 0
        while True:
            steps += 1
            if steps > cap:
                raise Abort2D("point location walk did not terminate")
            tri = TRI[t]
            i0, i1, i2 = tri[0], tri[1], tri[2]
            p0x = X[i0] + (tri[3] + sx) * L
            p0y = Y[i0] + (tri[4] + sy) * L
            p1x = X[i1] + (tri[5] + sx) * L
            p1y = Y[i1] + (tri[6] + sy) * L
            p2x = X[i2] + (tri[7] + sx) * L
            p2y = Y[i2] + (tri[8] + sy) * L
            if orient2d(p1x, p1y, p2x, p2y, x, y) < 0:
                e = 0
            elif orient2d(p2x, p2y, p0x, p0y, x, y) < 0:
                e = 1
            elif orient2d(p0x, p0y, p1x, p1y, x, y) < 0:
                e = 2
            else:
                return t, sx, sy
            rec = NBR[t][e]
            if rec is None:
                raise Abort2D("walk exited the triangulation")
            t, _, dx, dy = rec
            sx += dx
            sy += dy

    # ------------------------------------------------------------------
    # new triangles (delete, refill and build; the insert fan is inline)

    def _triangle(self, a, b, c):
        """``(record, circumcenter, shift)`` of the triangle with lifted
        corners a, b, c ``(id, lift_x, lift_y)``, counterclockwise in one
        frame.  The circumcenter is computed in that frame; the record
        keeps each axis's lifts less their least, the shift, and the
        circumcenter moves with them."""
        X, Y, L = self.X, self.Y, self.L
        mx = min(a[1], b[1], c[1])
        my = min(a[2], b[2], c[2])
        if (max(a[1], b[1], c[1]) - mx > _LIFT_MAX
                or max(a[2], b[2], c[2]) - my > _LIFT_MAX):
            raise Abort2D("new triangle spans too many periods")
        try:
            ccx, ccy = circumcenter(
                X[a[0]] + a[1] * L, Y[a[0]] + a[2] * L,
                X[b[0]] + b[1] * L, Y[b[0]] + b[2] * L,
                X[c[0]] + c[1] * L, Y[c[0]] + c[2] * L)
        except ZeroDivisionError:
            raise Abort2D("degenerate new triangle") from None
        return ((a[0], b[0], c[0], a[1] - mx, a[2] - my, b[1] - mx,
                 b[2] - my, c[1] - mx, c[2] - my),
                (ccx - mx * L, ccy - my * L), (mx, my))

    def _commit(self, hole, plan, links):
        """Replace the triangles ``hole`` by the ``_triangle`` results
        ``plan``; returns the new triangles' slots.

        The hole's slots are freed and the new triangles take free slots
        last-freed first, then fresh ones.  A link ``(p, e, q, f, dx, dy)``
        joins side e of new triangle p to side f of new triangle q, or of
        the surviving triangle ``-1 - q``, whose frame the translation
        (dx, dy) maps into p's; the far side points back.  Sides without a
        link have no neighbour.  Each corner's incidence pointer goes to
        the last new triangle it is in.
        """
        TRI, NBR, CC, free, incident = (self.TRI, self.NBR, self.CC,
                                        self.free, self.incident)
        for t in hole:
            TRI[t] = NBR[t] = CC[t] = None
            free.append(t)
        tids = []
        for rec, cc, _ in plan:
            if free:
                tid = free.pop()
            else:
                tid = len(TRI)
                TRI.append(None)
                NBR.append(None)
                CC.append(None)
            TRI[tid] = rec
            NBR[tid] = [None, None, None]
            CC[tid] = cc
            tids.append(tid)
            for k in range(3):
                incident[rec[k]] = (tid, k)
        for p, e, q, f, dx, dy in links:
            tp = tids[p]
            tq = tids[q] if q >= 0 else -1 - q
            NBR[tp][e] = (tq, f, dx, dy)
            NBR[tq][f] = (tp, e, -dx, -dy)
        return tids

    # ------------------------------------------------------------------
    # insertion

    def insert(self, v, start=None):
        """Insert vertex v (coords already stored); returns affected ids.
        ``start`` is the vertex ``locate`` walks from."""
        self._undo = None
        x = self.X[v]
        y = self.Y[v]
        t0, sx0, sy0 = self.locate(x, y, start)
        L = self.L
        X, Y = self.X, self.Y
        TRI, NBR = self.TRI, self.NBR
        cap = self._local_cap()
        NXT, NX2, ic, lifts = _NXT, _NX2, incircle, self.lifts

        # conflict search over (triangle, lift) nodes
        seen = {}
        confl = {}   # t -> its first conflicting lift
        wrapped = False
        stack = [(t0, sx0, sy0)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            t, sx, sy = node
            tri = TRI[t]
            i0, i1, i2 = tri[0], tri[1], tri[2]
            c = ic(X[i0] + (tri[3] + sx) * L, Y[i0] + (tri[4] + sy) * L,
                   X[i1] + (tri[5] + sx) * L, Y[i1] + (tri[6] + sy) * L,
                   X[i2] + (tri[7] + sx) * L, Y[i2] + (tri[8] + sy) * L,
                   x, y, i0, i1, i2, v, lifts) > 0
            seen[node] = c
            if not c:
                continue
            if t in confl:
                # the cavity meets itself around the torus
                wrapped = True
            else:
                confl[t] = (sx, sy)
                if len(confl) > cap:
                    raise Abort2D("cavity too large")
            for rec in NBR[t]:
                if rec is not None:
                    stack.append((rec[0], sx + rec[2], sy + rec[3]))
        if not confl:
            raise Abort2D("insertion point conflicts with no triangle")
        if wrapped:
            return self._fill_hole(confl, new=v)

        # boundary ring: directed edges of conflicting triangles whose
        # neighbour (across that edge) is not in conflict
        ring_map = {}
        first_key = None
        for t, (sx, sy) in confl.items():
            tri = TRI[t]
            nbr = NBR[t]
            for e in range(3):
                rec = nbr[e]
                if rec is not None:
                    t2 = rec[0]
                    s2 = (sx + rec[2], sy + rec[3])
                    if confl.get(t2) == s2:
                        continue
                    if t2 in confl:
                        # the ring neighbour is another period of a cavity
                        # triangle: the cavity touches its own period
                        return self._fill_hole(confl, new=v)
                    outer = (t2, rec[1], s2[0], s2[1])
                else:
                    outer = None
                k1 = NXT[e]
                k2 = NX2[e]
                key_a = (tri[k1], tri[3 + 2 * k1] + sx, tri[4 + 2 * k1] + sy)
                key_b = (tri[k2], tri[3 + 2 * k2] + sx, tri[4 + 2 * k2] + sy)
                if key_a in ring_map:
                    raise Abort2D("pinched cavity ring")
                ring_map[key_a] = (key_b, outer)
                if first_key is None:
                    first_key = key_a

        m = len(ring_map)
        if m != len(confl) + 2:
            raise Abort2D("cavity is not a disk")
        ring = []
        key = first_key
        for _ in range(m):
            nxt, outer = ring_map[key]
            ring.append((key, outer))
            key = nxt
        if key != first_key:
            raise Abort2D("cavity ring does not close")

        # plan the fan of new triangles (v, A, B) per ring edge
        plan = []
        for idx in range(m):
            (ia, lax, lay), outer = ring[idx]
            ib, lbx, lby = ring[(idx + 1) % m][0]
            axc = X[ia] + lax * L
            ayc = Y[ia] + lay * L
            bxc = X[ib] + lbx * L
            byc = Y[ib] + lby * L
            if orient2d(axc, ayc, bxc, byc, x, y) <= 0:
                raise Abort2D("cavity ring edge not visible from the point")
            mx = min(0, lax, lbx)
            my = min(0, lay, lby)
            if max(0, lax, lbx) - mx > _LIFT_MAX or max(0, lay, lby) - my > _LIFT_MAX:
                raise Abort2D("new triangle spans too many periods")
            tri = (v, ia, ib, -mx, -my, lax - mx, lay - my, lbx - mx, lby - my)
            try:
                ccx, ccy = circumcenter(x, y, axc, ayc, bxc, byc)
            except ZeroDivisionError:
                raise Abort2D("degenerate new triangle") from None
            plan.append((tri, (ccx - mx * L, ccy - my * L), outer, mx, my))

        # ---- commit ----
        for t in confl:
            TRI[t] = None
            NBR[t] = None
            self.CC[t] = None
            self.free.append(t)
        tids = []
        for _ in range(m):
            if self.free:
                tid = self.free.pop()
            else:
                tid = len(TRI)
                TRI.append(None)
                NBR.append(None)
                self.CC.append(None)
            tids.append(tid)
        for idx in range(m):
            tri, cc, outer, mx, my = plan[idx]
            tid = tids[idx]
            TRI[tid] = tri
            self.CC[tid] = cc
            nxt_idx = (idx + 1) % m
            prv_idx = (idx - 1) % m
            if outer is None:
                rec0 = None
            else:
                t2, e2, s2x, s2y = outer
                rec0 = (t2, e2, s2x - mx, s2y - my)
                NBR[t2][e2] = (tid, 0, mx - s2x, my - s2y)
            NBR[tid] = [
                rec0,
                (tids[nxt_idx], 2, plan[nxt_idx][3] - mx, plan[nxt_idx][4] - my),
                (tids[prv_idx], 1, plan[prv_idx][3] - mx, plan[prv_idx][4] - my),
            ]
            self.incident[tri[1]] = (tid, 1)
        self.incident[v] = (tids[0], 0)
        self.bucket_add(v)
        self.live += 2
        affected = {r[0][0] for r in ring}
        affected.discard(v)
        return affected

    # ------------------------------------------------------------------
    # deletion

    def delete(self, v):
        """Remove vertex v, retriangulating its link; returns affected ids."""
        undo, self._undo = self._undo, None
        if undo is not None and undo[0] == v:
            return self._undo_insert(undo)
        TRI, NBR = self.TRI, self.NBR
        X, Y, L = self.X, self.Y, self.L
        NXT = _NXT
        t0, c0 = self.incident.get(v, (None, None))
        if t0 is None:
            raise Abort2D("vertex has no incidence pointer")
        tri = TRI[t0]
        if tri is None or tri[c0] != v:
            raise Abort2D("stale incidence pointer")
        cap = self._local_cap()

        # walk the star once, collecting the link ring and its outer
        # adjacency in the walk frame
        star_t = []  # triangle ids in CCW order
        ring = []    # (id, lift_x, lift_y) in the walk frame
        across = []  # link to the outer side across ring edge (k, k+1)
        seen_outer = set()
        touched = False
        t, c, sx, sy = t0, c0, 0, 0
        while True:
            tri = TRI[t]
            star_t.append(t)
            k1 = NXT[c]
            ring.append((tri[k1], tri[3 + 2 * k1] + sx, tri[4 + 2 * k1] + sy))
            rec = NBR[t][c]
            if rec is None:
                across.append(None)
            else:
                if TRI[rec[0]][rec[1]] == v:
                    # the neighbour across the link is another period of a
                    # triangle that also vanishes with v: the link touches
                    # another period of the vertex
                    touched = True
                key = (rec[0], rec[1])
                if key in seen_outer:
                    raise Abort2D("link uses an outer edge twice")
                seen_outer.add(key)
                across.append((-1 - rec[0], rec[1], sx + rec[2],
                               sy + rec[3]))
            if len(star_t) > cap:
                raise Abort2D("star too large")
            rec = NBR[t][k1]
            if rec is None:
                raise Abort2D("star touches the outer boundary")
            t2, e2, dx, dy = rec
            c2 = NXT[e2]
            sx2, sy2 = sx + dx, sy + dy
            tri2 = TRI[t2]
            if tri2 is None or tri2[c2] != v:
                raise Abort2D("adjacency walk lost the vertex")
            if t2 == t0 and c2 == c0:
                if sx2 or sy2:
                    raise Abort2D("star wraps around the torus")
                break
            t, c, sx, sy = t2, c2, sx2, sy2
        m = len(star_t)
        if m < 3:
            raise Abort2D("degenerate star")
        if touched or len(set(star_t)) != m:
            # the star visits a triangle twice (it carries v at two
            # corners), or touches another period of v: the hole in the
            # quotient complex is not the disk around this lift of v
            return self._fill_hole(star_t, gone=v)

        ids = [r[0] for r in ring]
        coords = [(X[i] + lx * L, Y[i] + ly * L) for (i, lx, ly) in ring]

        # ear-cut the link polygon into a Delaunay retriangulation
        nxt = list(range(1, m)) + [0]
        prv = [m - 1] + list(range(m - 1))
        active = m
        ears = []
        cur = 0
        stale = 0
        while active > 3:
            a, b, c = prv[cur], cur, nxt[cur]
            pa, pb, pc = coords[a], coords[b], coords[c]
            good = orient2d(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1]) > 0
            if good:
                u = nxt[c]
                while u != a:
                    pu = coords[u]
                    if incircle(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1],
                                pu[0], pu[1],
                                ids[a], ids[b], ids[c], ids[u],
                                self.lifts) > 0:
                        good = False
                        break
                    u = nxt[u]
            if good:
                ears.append((a, b, c))
                nxt[a] = c
                prv[c] = a
                active -= 1
                cur = a
                stale = 0
            else:
                cur = nxt[cur]
                stale += 1
                if stale > active + 1:
                    raise Abort2D("no valid ear in link polygon")
        a, b, c = cur, nxt[cur], nxt[nxt[cur]]
        pa, pb, pc = coords[a], coords[b], coords[c]
        if orient2d(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1]) <= 0:
            raise Abort2D("final link triangle is degenerate")
        ears.append((a, b, c))

        # each ear links its sides on the polygon to what ``across`` holds
        # beyond them, and leaves its cut side 1 there for the ear that
        # takes that edge next; the last triangle has no cut side
        plan = []
        links = []
        for pi, (a, b, c) in enumerate(ears):
            tri = self._triangle(ring[a], ring[b], ring[c])
            mx, my = tri[2]
            for slot, k in (((0, b), (2, a)) if pi < m - 3
                            else ((0, b), (1, c), (2, a))):
                o = across[k]
                if o is not None:
                    links.append((pi, slot, o[0], o[1], o[2] - mx,
                                  o[3] - my))
            across[a] = (pi, 1, mx, my)
            plan.append(tri)
        self._commit(star_t, plan, links)
        del self.incident[v]
        self.bucket_remove(v)
        self.live -= 2
        return set(ids)

    # ------------------------------------------------------------------
    # holes that touch another period of themselves (torus only)

    def _fill_hole(self, hole, gone=None, new=None):
        """Replace the triangles ``hole`` by the Delaunay triangles of its
        corners, built in the universal cover; returns the corner ids.

        The general case of ``delete`` (vertex ``gone``: ``hole`` holds
        every triangle with it at a corner) and ``insert`` (vertex ``new``:
        every triangle in conflict at any lift).  Starting from each rim
        side, the triangle beyond is found by ``_apex``, normalised with
        ``_rotate_min`` and keyed by its directed edges, so each quotient
        triangle is found once whatever lift reaches it.  A torus
        triangulation has 2n triangles, so the hole must refill with two
        fewer (delete) or two more (insert); anything else raises
        ``Abort2D`` before any mutation.  A hole that is the whole
        triangulation has no rim; its refill starts from a nearest pair.

        An insert wraps every rim side first, taking the apex among the
        lifts of ``new`` alone: every triangle an insertion creates has
        the new vertex at a corner (Watson, 1981), and a rim side's two
        corners are old.  The sides left over are wrapped over the lifts
        of all corners.  An insert's commit also keeps what it overwrote
        in ``_undo``.  The Delaunay triangulation of a periodic point set
        is unique under the symbolic perturbation, so deleting ``new``
        again brings back exactly the triangles its insert removed:
        ``delete`` restores the record instead of refilling.  ``insert``
        and ``delete`` clear the record when they start.
        """
        TRI, NBR = self.TRI, self.NBR
        inside = set(hole)
        hole = sorted(inside)
        ids = {TRI[t][k] for t in hole for k in range(3)}
        if new is None:
            ids.discard(gone)
            want = len(hole) - 2
        else:
            ids.add(new)
            want = len(hole) + 2
        ids = sorted(ids)
        # the rim: sides of surviving triangles that face the hole, each
        # directed so the hole lies on its left
        rim = [(rec[0], rec[1]) for t in hole for rec in NBR[t]
               if rec[0] not in inside]
        done = set()
        rim_sides = []
        for t2, e2 in rim:
            a, b = _arc_ends(TRI[t2], e2)
            done.add(_arc(a, b))
            rim_sides.append((b, a))
        plan = []
        front = []

        def wrap(a, b, cands):
            # the triangle beyond the lifted side a -> b, its apex a lift
            # of one of ``cands``; its other two sides go on the front
            if _arc(a, b) in done:
                return
            c = self._apex(a, b, cands)
            if c is None or len(plan) == want:
                raise Abort2D("hole retriangulation does not close")
            # normalised here, so the front stays in small frames
            mx = min(a[1], b[1], c[1])
            my = min(a[2], b[2], c[2])
            a, b, c = [(u, lx - mx, ly - my) for u, lx, ly in (a, b, c)]
            arcs = (_arc(a, b), _arc(b, c), _arc(c, a))
            if not done.isdisjoint(arcs):
                raise Abort2D("hole retriangulation overlaps itself")
            done.update(arcs)
            plan.append(self._triangle(*_rotate_min(a, b, c)))
            front.append((c, b))
            front.append((a, c))

        if new is None:
            front.extend(rim_sides)
        else:
            for a, b in rim_sides:
                wrap(a, b, (new,))
        if not rim_sides:
            a, b = self._nearest_pair(ids)
            front.extend(((a, b), (b, a)))
        while front:
            a, b = front.pop()
            wrap(a, b, ids)
        if len(plan) != want or {r[0][k] for r in plan for k in range(3)} \
                != set(ids):
            raise Abort2D("hole retriangulation has the wrong size")
        links = _pair_edges(self, [r[0] for r in plan], rim)
        if 2 * len(links) != 3 * len(plan) + len(rim):
            raise Abort2D("hole retriangulation left unmatched edges")

        # ---- commit ----
        if new is not None:
            undo = (new, [(t, TRI[t], NBR[t], self.CC[t]) for t in hole],
                    [(t2, e2, NBR[t2][e2]) for t2, e2 in rim],
                    {u: self.incident[u] for u in ids if u != new},
                    self.free[:], len(TRI))
        tids = self._commit(hole, plan, links)
        if new is None:
            del self.incident[gone]
            self.bucket_remove(gone)
            self.live -= 2
        else:
            self.bucket_add(new)
            self.live += 2
            ids.remove(new)
            self._undo = undo + (tids, ids)
        return set(ids)

    def _undo_insert(self, undo):
        """Delete the vertex of the general-path insert that was the last
        mutation, by putting back what that insert overwrote; returns the
        ids the insert returned."""
        v, hole, rim, incident, free, n_slots, tids, ids = undo
        TRI, NBR, CC = self.TRI, self.NBR, self.CC
        for t in tids:
            TRI[t] = NBR[t] = CC[t] = None
        for t, tri, nbr, cc in hole:
            TRI[t] = tri
            NBR[t] = nbr
            CC[t] = cc
        for t2, e2, rec in rim:
            NBR[t2][e2] = rec
        del TRI[n_slots:], NBR[n_slots:], CC[n_slots:]
        self.free = free
        del self.incident[v]
        self.incident.update(incident)
        self.bucket_remove(v)
        self.live -= 2
        return set(ids)

    def _apex(self, a, b, ids):
        """The lift of a generator in ``ids`` that makes a Delaunay triangle
        with the lifted edge a -> b on its left, or None.

        A Delaunay disk of a torus point set has radius at most L/sqrt(2),
        so the apex lies in the disk of radius ``_APEX_REACH * L`` through a
        and b centred to their left.  One pass over the lifts in that disk
        keeps the one whose circle through a and b holds no other: those
        circles nest on the left of the edge.
        """
        X, Y, L, lifts = self.X, self.Y, self.L, self.lifts
        ax = X[a[0]] + a[1] * L
        ay = Y[a[0]] + a[2] * L
        bx = X[b[0]] + b[1] * L
        by = Y[b[0]] + b[2] * L
        dx = bx - ax
        dy = by - ay
        r = _APEX_REACH * L
        h2 = r * r / (dx * dx + dy * dy) - 0.25
        s = math.sqrt(h2) if h2 > 0.0 else 0.0
        ox = 0.5 * (ax + bx) - s * dy
        oy = 0.5 * (ay + by) + s * dx
        r2 = r * r
        best = None
        qx = qy = 0.0
        for u in ids:
            xu = X[u]
            yu = Y[u]
            for lx in range(math.ceil((ox - r - xu) / L),
                            math.floor((ox + r - xu) / L) + 1):
                px = xu + lx * L
                for ly in range(math.ceil((oy - r - yu) / L),
                                math.floor((oy + r - yu) / L) + 1):
                    py = yu + ly * L
                    if (px - ox) ** 2 + (py - oy) ** 2 > r2:
                        continue
                    if orient2d(ax, ay, bx, by, px, py) <= 0:
                        continue
                    if best is None or incircle(ax, ay, bx, by, qx, qy,
                                                px, py, a[0], b[0], best[0],
                                                u, lifts) > 0:
                        best = (u, lx, ly)
                        qx, qy = px, py
        return best

    def _nearest_pair(self, ids):
        """A lifted edge from the first of ``ids`` to its exactly nearest
        other lift: its diametral disk is empty, so it is Delaunay."""
        X, Y, L = self.X, self.Y, Fraction(self.L)
        a = ids[0]
        ax, ay = Fraction(X[a]), Fraction(Y[a])
        best = None
        for u in ids:
            for lx in (-1, 0, 1):
                for ly in (-1, 0, 1):
                    if u == a and lx == 0 and ly == 0:
                        continue
                    d2 = ((Fraction(X[u]) + lx * L - ax) ** 2
                          + (Fraction(Y[u]) + ly * L - ay) ** 2)
                    if best is None or d2 < best[0]:
                        best = (d2, (u, lx, ly))
        return (a, 0, 0), best[1]

    # ------------------------------------------------------------------
    # cell extraction

    def cell_scan(self, v, eps2, want_nbrs=True, collect=True):
        """Star walk fused with cell extraction (the per-step hot path).

        Accumulates the shoelace area of the circumcenter polygon and, when
        ``want_nbrs``, the ring ids whose dual edge is longer than
        ``sqrt(eps2)``, in a single pass.  ``collect=False`` skips building
        the ring/polygon lists for callers that only need numbers.  Returns
        ``(vol, nbrs, ring_ids, ccs, flags)``.  ``flags`` is 0 for a clean
        cell; otherwise it collects the chart sides the polygon crosses
        (1: x<0, 2: x>L, 4: y<0, 8: y>L) and 16 when the ring contains a
        ghost generator, in which case the caller must clip the polygon
        itself and ignore ``vol``/``nbrs``.  Only the square sets flags.
        """
        TRI, NBR, CC, L = self.TRI, self.NBR, self.CC, self.L
        ghosts = self.ghosts
        bounded = not self.periodic
        t0, c0 = self.incident.get(v, (None, None))
        if t0 is None:
            raise Abort2D("vertex has no incidence pointer")
        tri = TRI[t0]
        if tri is None or tri[c0] != v:
            raise Abort2D("stale incidence pointer")
        cap = self._local_cap()
        NXT = _NXT
        ring = [] if collect else None
        ccs = [] if collect else None
        nbrs = [] if want_nbrs else None
        t, c, sx, sy = t0, c0, 0, 0
        flags = 0
        area2 = 0.0
        px = py = x0 = y0 = 0.0
        first_u = v
        count = 0
        while True:
            tri = TRI[t]
            k = NXT[c]
            u = tri[k]
            cc = CC[t]
            qx = cc[0] + sx * L
            qy = cc[1] + sy * L
            if count:
                area2 += px * qy - qx * py
                if want_nbrs and u != v:
                    dx = qx - px
                    dy = qy - py
                    if dx * dx + dy * dy > eps2:
                        nbrs.append(u)
            else:
                first_u = u
                x0, y0 = qx, qy
            if bounded:
                if qx < 0.0:
                    flags |= 1
                elif qx > L:
                    flags |= 2
                if qy < 0.0:
                    flags |= 4
                elif qy > L:
                    flags |= 8
                if u in ghosts:
                    flags |= 16
            if collect:
                ring.append(u)
                ccs.append((qx, qy))
            px, py = qx, qy
            count += 1
            if count > cap:
                raise Abort2D("star too large")
            rec = NBR[t][k]
            if rec is None:
                raise Abort2D("star touches the outer boundary")
            t2, e2, dx, dy = rec
            c2 = NXT[e2]
            sx2, sy2 = sx + dx, sy + dy
            tri2 = TRI[t2]
            if tri2 is None or tri2[c2] != v:
                raise Abort2D("adjacency walk lost the vertex")
            if t2 == t0 and c2 == c0:
                if sx2 or sy2:
                    raise Abort2D("star wraps around the torus")
                break
            t, c, sx, sy = t2, c2, sx2, sy2
        area2 += px * y0 - x0 * py
        if want_nbrs and first_u != v:
            dx = x0 - px
            dy = y0 - py
            if dx * dx + dy * dy > eps2:
                nbrs.append(first_u)
        return 0.5 * abs(area2), nbrs, ring, ccs, flags

    # ------------------------------------------------------------------
    # whole-structure views (rebuild path, tests)

    def live_triangles(self):
        return [t for t, tri in enumerate(self.TRI) if tri is not None]

    def validate(self):
        """Exhaustive structural and Delaunay checks (test helper)."""
        TRI, NBR = self.TRI, self.NBR
        L = self.L
        for t in self.live_triangles():
            tri = TRI[t]
            if min(tri[3::2]) or min(tri[4::2]) or max(tri[3:]) > _LIFT_MAX:
                return f"triangle {t} has unnormalised lifts"
            pts = [(self.X[tri[k]] + tri[3 + 2 * k] * L,
                    self.Y[tri[k]] + tri[4 + 2 * k] * L) for k in range(3)]
            if orient2d(pts[0][0], pts[0][1], pts[1][0], pts[1][1],
                        pts[2][0], pts[2][1]) <= 0:
                return f"triangle {t} not CCW"
            for e in range(3):
                rec = NBR[t][e]
                if rec is None:
                    continue
                t2, e2, dx, dy = rec
                tri2 = TRI[t2]
                if tri2 is None:
                    return f"triangle {t} points at dead neighbour"
                back = NBR[t2][e2]
                if back is None or back[0] != t or back[1] != e \
                        or back[2] != -dx or back[3] != -dy:
                    return f"adjacency of {t}/{t2} is not mutual"
                # shared corners must agree once shifted
                mine = {(tri[k], tri[3 + 2 * k], tri[4 + 2 * k])
                        for k in ((e + 1) % 3, (e + 2) % 3)}
                theirs = {(tri2[k], tri2[3 + 2 * k] + dx, tri2[4 + 2 * k] + dy)
                          for k in ((e2 + 1) % 3, (e2 + 2) % 3)}
                if mine != theirs:
                    return f"edge mismatch between {t} and {t2}"
                # local Delaunay: opposite vertex outside circumcircle
                k = e2
                ox = self.X[tri2[k]] + (tri2[3 + 2 * k] + dx) * L
                oy = self.Y[tri2[k]] + (tri2[4 + 2 * k] + dy) * L
                if incircle(pts[0][0], pts[0][1], pts[1][0], pts[1][1],
                            pts[2][0], pts[2][1], ox, oy,
                            tri[0], tri[1], tri[2], tri2[k],
                            self.lifts) > 0:
                    return f"edge {t}/{t2} is not locally Delaunay"
        for v, (t, c) in self.incident.items():
            tri = TRI[t]
            if tri is None or tri[c] != v:
                return f"incidence pointer of vertex {v} is stale"
        return None


# ----------------------------------------------------------------------
# static construction


def build_engine(points, L, periodic):
    """Build an engine for the given canonical points.

    The square inserts the points into an exactly resolved ghost frame,
    the torus into an exactly resolved seed lattice whose seeds it then
    deletes.  Raises ``Abort2D`` when the build cannot complete.
    """
    if periodic:
        return _seeded_torus_engine(points, L)
    return _seeded_square_engine(points, L)


def _ring_offsets(r):
    """The 8r bucket offsets (dx, dy) with max(|dx|, |dy|) == r (one for
    r = 0)."""
    if r == 0:
        return ((0, 0),)
    side = range(-r, r + 1)
    inner = range(1 - r, r)
    return ([(d, -r) for d in side] + [(d, r) for d in side]
            + [(-r, d) for d in inner] + [(r, d) for d in inner])


def _rotate_min(a, b, c):
    """Rotate the corners a, b, c (preserving orientation) to the least
    record: ids first, then lifts."""
    return min((a, b, c), (b, c, a), (c, a, b),
               key=lambda r: (r[0][0], r[1][0], r[2][0], r))


def _arc_ends(tri, e):
    """Lifted corners (id, lift_x, lift_y) at the ends of side e of a
    triangle record, in counterclockwise order."""
    k1 = _NXT[e]
    k2 = _NX2[e]
    return ((tri[k1], tri[3 + 2 * k1], tri[4 + 2 * k1]),
            (tri[k2], tri[3 + 2 * k2], tri[4 + 2 * k2]))


def _arc(a, b):
    """Key of the directed quotient edge between two lifted corners."""
    return (a[0], b[0], b[1] - a[1], b[2] - a[2])


def _edge_key(tri, e):
    """Key ``(i, j, dx, dy)`` of the undirected quotient edge on side e of a
    triangle record, and the lift of its anchor corner in the record's
    frame: the edge runs from generator i at the anchor to the lift
    (dx, dy) of generator j, from the lesser lifted corner to the greater.
    Both triangles on an edge give it the same key."""
    a, b = _arc_ends(tri, e)
    if b < a:
        a, b = b, a
    return _arc(a, b), a[1:]


def _pair_edges(eng, records, rim):
    """``Engine2D._commit`` links joining the two sides of every quotient
    edge among the sides of the new triangle ``records`` and the surviving
    sides ``rim`` ``(t, e)``.  A side left alone (a hull edge between the
    square's ghosts) gets no link; an edge with more than two sides, or
    whose two sides both survive, raises ``Abort2D``."""
    sides = {}
    for p, rec in enumerate(records):
        for e in range(3):
            key, anchor = _edge_key(rec, e)
            sides.setdefault(key, []).append((p, e, anchor))
    for t, e in rim:
        key, anchor = _edge_key(eng.TRI[t], e)
        sides.setdefault(key, []).append((-1 - t, e, anchor))
    links = []
    for refs in sides.values():
        if len(refs) == 2 and refs[0][0] >= 0:
            (p, e, a1), (q, f, a2) = refs
            links.append((p, e, q, f, a1[0] - a2[0], a1[1] - a2[1]))
        elif len(refs) != 1:
            raise Abort2D("edge sides do not pair")
    return links


# ----------------------------------------------------------------------
# seeded incremental construction


_GHOST_CORNERS = ((-8.0, -8.0), (9.0, -8.0), (9.0, 9.0), (-8.0, 9.0))


def _quad_triangles(eng, ids, lifts):
    """Split a counterclockwise cocircular-or-convex quad of seeds into the
    two ``Engine2D._triangle`` results of its exactly resolved Delaunay
    diagonal, each rotated to its least record.

    ``ids`` and ``lifts`` list the four corners in CCW order.
    """
    X, Y, L = eng.X, eng.Y, eng.L
    corners = [(i, lx, ly) for i, (lx, ly) in zip(ids, lifts)]
    coords = [(X[i] + lx * L, Y[i] + ly * L) for i, lx, ly in corners]
    c = incircle(*coords[0], *coords[1], *coords[2], *coords[3], *ids,
                 eng.lifts)
    if c >= 0:
        corners = corners[1:] + corners[:1]
    p, q, r, s = corners
    return [eng._triangle(*_rotate_min(p, q, r)),
            eng._triangle(*_rotate_min(p, r, s))]


def _seeded_torus_engine(points, L):
    """Insert all points into an exactly resolved 3x3 lattice complex,
    then remove the nine lattice seeds.

    A 3x3 lattice keeps the largest empty disk below L/4 for the whole
    insertion phase, so every insert takes the disk-shaped fast path: two
    periods of the same triangle can never both meet a cavity.  Deleting a
    seed far from clustered points leaves a hole that touches its own
    period, which ``delete`` refills in the universal cover.
    """
    n = len(points)
    h = L / 3.0
    taken = set(points)
    for k in range(16):
        dx = ((k * 0.3819660112501051 + 0.06180339887) % 1.0) * h
        dy = ((k * 0.6180339887498949 + 0.23606797749) % 1.0) * h
        seeds = [(dx + a * h, dy + b * h) for b in range(3) for a in range(3)]
        if not any(s in taken for s in seeds):
            break
    else:
        raise Abort2D("every candidate seed lattice meets a point")
    quads = []
    for a in range(3):
        for b in range(3):
            quad = ((a, b), (a + 1, b), (a + 1, b + 1), (a, b + 1))
            quads.append(([n + 3 * (qb % 3) + qa % 3 for qa, qb in quad],
                          [(qa // 3, qb // 3) for qa, qb in quad]))
    return _insert_into_seeds(points, L, True, seeds, quads)


def _seeded_square_engine(points, L):
    """Insert all points into a ghost frame whose diagonal is exactly
    resolved; the ghosts stay."""
    n = len(points)
    ghosts = [(gx * L, gy * L) for gx, gy in _GHOST_CORNERS]
    quads = [(range(n, n + 4), [(0, 0)] * 4)]
    return _insert_into_seeds(points, L, False, ghosts, quads)


def _insert_into_seeds(points, L, periodic, seeds, quads):
    """Insert the points into the Delaunay triangles of the seed quads
    (corner ids n, n+1, ... with their lifts) and return the engine.

    The points go in a biased randomized insertion order, each walk
    starting at the point inserted before.  The torus's seeds are deleted
    afterwards; the square's stay as its ghosts.
    """
    n = len(points)
    sid = range(n, n + len(seeds))
    X = [p[0] for p in points] + [s[0] for s in seeds]
    Y = [p[1] for p in points] + [s[1] for s in seeds]
    eng = Engine2D(L, periodic, X, Y, ghosts=() if periodic else sid)
    plan = sorted({tri[0]: tri for ids, lifts in quads
                   for tri in _quad_triangles(eng, list(ids), lifts)}.values())
    eng._commit((), plan, _pair_edges(eng, [tri[0] for tri in plan], ()))
    eng.live = len(plan)
    eng.rebucket(n)
    start = n
    for v in _brio_order(points, L):
        eng.insert(v, start)
        start = v
    if periodic:
        for s in sid:
            eng.delete(s)
    return eng


_BRIO_SEED = 20030608  # fixed: a build draws nothing from the chain's RNG


def _brio_order(points, L):
    """Ids 0..n-1 in a biased randomized insertion order (Amenta, Choi and
    Rote, SoCG 2003).

    A fixed-seed permutation is cut into rounds of doubling size (the last
    round is the second half), and each round is sorted along a Hilbert
    curve, so consecutive points lie close together while every round
    still refines a random sample of the ones before.
    """
    n = len(points)
    perm = np.random.default_rng(_BRIO_SEED).permutation(n)
    key = _hilbert_keys(points, L)
    order = []
    lo = 0
    for k in range(n.bit_length() - 1, -1, -1):
        hi = n >> k
        rnd = perm[lo:hi]
        order.extend(rnd[np.argsort(key[rnd], kind="stable")].tolist())
        lo = hi
    return order


def _hilbert_keys(points, L):
    """Position of each point along a Hilbert curve through a 2^16 x 2^16
    grid on [0, L]^2."""
    side = 1 << 16
    g = np.clip((np.asarray(points) * (side / L)).astype(np.int64), 0, side - 1)
    x, y = g[:, 0], g[:, 1]
    d = np.zeros_like(x)
    s = side >> 1
    while s:
        rx = (x & s) > 0
        ry = (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        # turn the quadrant so the finer levels continue the curve
        flip = rx & ~ry
        x = np.where(flip, side - 1 - x, x)
        y = np.where(flip, side - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return d
