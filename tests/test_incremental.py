"""Incremental replacement against from-scratch rebuilds."""

import numpy as np
import pytest

from helpers import (all_spaces, neighbor_pairs, random_points,
                     snapshot_lines)
from vorsim import engine1d, engine2d, tessellation
from vorsim.errors import DuplicatePoints
from vorsim.process import (InitSpec, ProcessParams, SelectionSpec,
                            initial_configuration, run)
from vorsim.space import Space
from vorsim.tessellation import Tessellation, build, replace_point


def _drive(space, n, steps, seed):
    rng = np.random.default_rng(seed)
    t = build(random_points(rng, space, n), space)
    for k in range(steps):
        j = int(rng.integers(t.n))
        p = random_points(rng, space, 1)[0]
        try:
            t.replace_point(j, p)
        except DuplicatePoints:
            continue
        fresh = build(list(t.points), space)
        assert t.cell_volumes() == pytest.approx(fresh.cell_volumes(),
                                                 rel=1e-9, abs=1e-12)
        assert neighbor_pairs(t) == neighbor_pairs(fresh)
    return t


def test_replacements_match_rebuild_small():
    for space in all_spaces():
        _drive(space, 10, 40, seed=21)


def test_replacements_match_rebuild_medium(torus, square):
    _drive(torus, 60, 25, seed=22)
    _drive(square, 60, 25, seed=23)


@pytest.mark.parametrize("kind", ["circle", "interval"])
@pytest.mark.parametrize("grid", [None, [1.0, 3.0, 0.5, 2.0]])
def test_incremental_1d_caches_equal_a_fresh_build(kind, grid):
    space = Space(kind, 1.0, density=grid)
    rng = np.random.default_rng(29)
    t = build(random_points(rng, space, 80), space)
    for _ in range(200):
        j = int(rng.integers(t.n))
        if t.n > 2 and rng.random() < 0.2:
            t.remove_point(j)
        else:
            try:
                t.replace_point(j, random_points(rng, space, 1)[0])
            except DuplicatePoints:
                continue
        # read some cells between updates, as a chain does
        t.volumes_at(range(0, t.n, 7))
    t.cell_volumes()
    assert not t._dirty_vol and not t._dirty_nbr
    fresh = build(list(t.points), space)
    assert {j: t._vol[e] for j, e in enumerate(t._eid)} == fresh._vol
    assert t.neighbor_sets() == fresh.neighbor_sets()


def _checked_update(t, space, rebuilds, j, p=None):
    """Remove point j (p None) or move it to p, on a tessellation with no
    stale cell, and check the indices the call returns."""
    before = build(list(t.points), space)
    n_rebuilds = len(rebuilds)
    changed = t.remove_point(j) if p is None else t.replace_point(j, p)
    eid = t._eid
    assert all(a < b for a, b in zip(eid, eid[1:]))
    if len(rebuilds) > n_rebuilds:
        assert changed == tuple(range(t.n))
    else:
        # the positions of the ids marked stale, by a scan, not bisection
        assert changed == tuple(k for k, e in enumerate(eid)
                                if e in t._dirty_vol)
    after = build(list(t.points), space)
    nbrs = t.neighbor_sets()
    # 1D neighbours are read from the engine, so only a volume read
    # leaves no stale cell for the next update
    t.cell_volumes()
    assert nbrs == after.neighbor_sets()
    # a cell left out of ``changed`` kept its volume and its neighbours
    def old(k):
        return k + (k >= j) if p is None else k
    vol_before, vol_after = before.cell_volumes(), after.cell_volumes()
    nbrs_before = before.neighbor_sets()
    for k in set(range(t.n)) - set(changed):
        assert vol_after[k] == pytest.approx(vol_before[old(k)],
                                             rel=1e-9, abs=1e-12)
        assert {old(u) for u in nbrs[k]} == nbrs_before[old(k)]


def _thin_to_one(space, pts, seed, p_remove, monkeypatch):
    """Random removals and replacements down to one point, each checked;
    returns the number of points left after each rebuild."""
    rebuilds = []
    rebuild = Tessellation._rebuild
    monkeypatch.setattr(Tessellation, "_rebuild",
                        lambda self: rebuilds.append(self.n) or rebuild(self))
    rng = np.random.default_rng(seed)
    t = build(pts, space)
    t.neighbor_sets()
    t.cell_volumes()
    while t.n > 1:
        j = int(rng.integers(t.n))
        p = None
        if rng.random() >= p_remove:
            p = random_points(rng, space, 1)[0]
        try:
            _checked_update(t, space, rebuilds, j, p)
        except DuplicatePoints:
            continue
    return rebuilds


@pytest.mark.parametrize("space", [
    Space("circle", 1.0), Space("interval", 1.0),
    Space("square", 1.0, density=[[1.0, 3.0], [2.0, 0.5]]),
    Space("torus", 1.0)], ids=("circle", "interval", "square-grid", "torus"))
def test_updates_return_the_indices_of_the_changed_cells(space, monkeypatch):
    rng = np.random.default_rng(30)
    rebuilds = _thin_to_one(space, random_points(rng, space, 40), 31, 0.5,
                            monkeypatch)
    # every update down to one point is in place
    assert rebuilds == []


def test_collapsed_torus_removals_update_in_place_and_keep_indices(monkeypatch):
    torus = Space("torus", 1.0)
    pts = initial_configuration(torus, 32, InitSpec("single_cluster"),
                                np.random.default_rng(32))
    rebuilds = _thin_to_one(torus, pts, 33, 1.0, monkeypatch)
    # removals that touch another period of the vertex update in place,
    # down to one point
    assert rebuilds == []


@pytest.mark.parametrize("mode,T", [("replacement", 300),
                                    ("thinning", 255)])
def test_collapsed_torus_chain_updates_in_place(mode, T, monkeypatch):
    # at alpha = 3 the chain removes the cluster's outer points, whose
    # stars and cavities touch other periods of themselves
    calls = []
    real = tessellation.build_engine
    monkeypatch.setattr(tessellation, "build_engine",
                        lambda pts, L, periodic: calls.append(len(pts))
                        or real(pts, L, periodic))

    checked = []

    def check(t, event, tess):
        if (t + 1) % 50:
            return
        checked.append(t)
        n_calls = len(calls)
        fresh = build(list(tess.points), tess.space)
        del calls[n_calls:]
        if tess.backend == "delaunay2d":
            assert tess._eng.validate() is None
        assert tess.cell_volumes() == pytest.approx(fresh.cell_volumes(),
                                                    rel=1e-9, abs=1e-12)
        assert tess.neighbor_sets() == fresh.neighbor_sets()

    params = ProcessParams(N=256, T=T, mode=mode,
                           selection=SelectionSpec("volume_power", alpha=3.0),
                           space=Space("torus", 1.0),
                           init={"kind": "single_cluster", "radius": 0.05},
                           seed=8, snapshot_every=1024)
    tr = run(params, observers=[check])
    assert len(checked) == T // 50
    assert len(tr.final_points) == (256 if mode == "replacement" else 1)
    # set-up builds the engine; no update rebuilds it, down to one point
    assert calls == [256]


def test_collapsed_torus_refills_find_rim_apexes_and_undo_inserts(
        monkeypatch):
    # at alpha = 3 most steps remove the newest point, far from the
    # cluster, and draw another: its insert refills a hole that touches
    # another period of itself, and its delete undoes that insert
    Engine2D = engine2d.Engine2D
    corners = []
    rim_calls = []
    last = [None]      # vertex of a general-path insert that came last
    deletes = []       # per delete: (undoable, refilled)
    real_fill, real_apex = Engine2D._fill_hole, Engine2D._apex
    real_insert, real_delete = Engine2D.insert, Engine2D.delete

    def fill_hole(self, hole, gone=None, new=None):
        ids = {self.TRI[t][k] for t in hole for k in range(3)}
        corners.append(sorted((ids | {new}) - {gone, None}))
        if gone is None:
            last[0] = new
        else:
            deletes[-1][1] = True
        return real_fill(self, hole, gone=gone, new=new)

    def apex(self, a, b, ids):
        got = real_apex(self, a, b, ids)
        if len(ids) == 1:
            # a rim side: its apex among the new vertex's lifts is the one
            # among the lifts of every corner of the hole
            rim_calls.append(got == real_apex(self, a, b, corners[-1]))
        return got

    def insert(self, v, start=None):
        last[0] = None
        return real_insert(self, v, start)

    def delete(self, v):
        deletes.append([last[0] == v, False])
        last[0] = None
        return real_delete(self, v)

    for name, fn in (("_fill_hole", fill_hole), ("_apex", apex),
                     ("insert", insert), ("delete", delete)):
        monkeypatch.setattr(Engine2D, name, fn)
    builds = []
    real_build = tessellation.build_engine
    monkeypatch.setattr(tessellation, "build_engine",
                        lambda pts, L, periodic: builds.append(len(pts))
                        or real_build(pts, L, periodic))
    params = ProcessParams(N=256, T=300, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=3.0),
                           space=Space("torus", 1.0),
                           init={"kind": "single_cluster", "radius": 0.05},
                           seed=9, snapshot_every=1024)
    run(params)
    assert builds == [256]
    assert len(rim_calls) > 1000 and all(rim_calls)
    # the set-up build deletes its nine seeds; the chain deletes once a step
    chain = deletes[9:]
    assert len(chain) == 300
    undone = [refilled for undoable, refilled in chain if undoable]
    assert len(undone) > 100 and not any(undone)
    # the rest refill when the point removed is not the newest one
    assert sum(refilled for _, refilled in chain) < 0.15 * len(chain)


@pytest.mark.parametrize("kind", ["square", "torus"])
def test_replacing_the_only_point(kind):
    space = Space(kind, 1.0)
    t = build([(0.3, 0.4)], space)
    for p in [(0.7, 0.1), (0.05, 0.95), (0.5, 0.5)]:
        assert t.replace_point(0, p) == (0,)
        assert t.points == [p]
        assert t.backend == "delaunay2d"
        assert t._eng.validate() is None
        assert t.cell_volumes() == pytest.approx([1.0], abs=1e-15)
        assert t.neighbor_sets() == [frozenset()]


def test_module_level_replace_reports_affected_cells(circle):
    rng = np.random.default_rng(24)
    t = build(random_points(rng, circle, 8), circle)
    affected = replace_point(t, 2, 0.123456)
    assert 2 in affected
    assert all(0 <= i < t.n for i in affected)
    assert 0.123456 in list(t.points)


def test_replacement_sequence_is_deterministic(torus):
    rng_pts = np.random.default_rng(25)
    pts = random_points(rng_pts, torus, 30)
    moves = [(int(i), p) for i, p in
             zip(np.random.default_rng(26).integers(0, 30, 50),
                 random_points(np.random.default_rng(27), torus, 50))]

    def play():
        t = build(pts, torus)
        for j, p in moves:
            try:
                t.replace_point(j, p)
            except DuplicatePoints:
                continue
        return snapshot_lines(t)

    assert play() == play()


def test_replacing_with_same_point_is_a_no_op_or_rejected(circle):
    rng = np.random.default_rng(28)
    t = build(random_points(rng, circle, 6), circle)
    before = snapshot_lines(t)
    try:
        t.replace_point(2, list(t.points)[2])
    except DuplicatePoints:
        pass
    assert snapshot_lines(build(list(t.points), circle)) == before


def _check_blocks(eng):
    """The 1D engine's block invariants: no empty or overfull block, the
    maxima list, sorted coordinates, and ids that match the positions."""
    assert eng.blocks and len(eng.blocks) == len(eng.ids) == len(eng.maxes)
    for blk, row, top in zip(eng.blocks, eng.ids, eng.maxes):
        assert 0 < len(blk) == len(row) < 2 * engine1d.BLOCK
        assert blk[-1] == top
        assert all(eng.pos[v] == x for v, x in zip(row, blk))
    xs = [x for blk in eng.blocks for x in blk]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert len(xs) == eng.n


@pytest.mark.parametrize("mode", ["replacement", "thinning"])
@pytest.mark.parametrize("grid", [None, [1.0, 3.0, 0.5, 2.0]])
@pytest.mark.parametrize("kind", ["circle", "interval"])
def test_1d_chains_through_block_splits_and_emptied_blocks(kind, grid, mode,
                                                          monkeypatch):
    # blocks of 4 split at 8 entries: a short chain splits and empties many
    monkeypatch.setattr(engine1d, "BLOCK", 4)
    changes = []
    for name in ("insert", "delete"):
        raw = getattr(engine1d.Engine1D, name)

        def counted(self, *args, raw=raw):
            before = len(self.blocks)
            out = raw(self, *args)
            changes.append(len(self.blocks) - before)
            return out

        monkeypatch.setattr(engine1d.Engine1D, name, counted)
    checked = []

    def check(t, event, tess):
        _check_blocks(tess._eng)
        fresh = build(list(tess.points), tess.space)
        assert tess.cell_volumes().tobytes() == fresh.cell_volumes().tobytes()
        assert tess.neighbor_sets() == fresh.neighbor_sets()
        assert list(tess.degrees()) == list(fresh.degrees())
        assert tess.degrees_at(range(tess.n)) == list(fresh.degrees())
        checked.append(t)

    space = Space(kind, 1.0, density=grid)
    N, T = (40, 300) if mode == "replacement" else (64, 63)
    params = ProcessParams(N=N, T=T, mode=mode,
                           selection=SelectionSpec("volume_power", alpha=1.0),
                           space=space, seed=12, snapshot_every=32)
    tr = run(params, observers=[check])
    assert len(checked) == T
    assert len(tr.final_points) == (N if mode == "replacement" else 1)
    # blocks were emptied, and in replacement split
    assert changes.count(-1) > 3
    if mode == "replacement":
        assert changes.count(1) > 3


@pytest.mark.parametrize("kind", ["circle", "interval"])
def test_1d_duplicate_at_a_block_edge_is_rejected(kind, monkeypatch):
    monkeypatch.setattr(engine1d, "BLOCK", 4)
    space = Space(kind, 1.0)
    pts = [k / 16 for k in range(16)]
    t = build(pts, space)
    eng = t._eng
    assert [len(blk) for blk in eng.blocks] == [4, 4, 4, 4]
    before = snapshot_lines(t)
    edges = [x for blk in eng.blocks for x in (blk[0], blk[-1])]
    for x in edges:
        j = (pts.index(x) + 1) % len(pts)
        with pytest.raises(DuplicatePoints):
            t.replace_point(j, x)
    if kind == "circle":
        # 1.0 wraps onto 0.0, the first entry of the first block
        with pytest.raises(DuplicatePoints):
            t.replace_point(5, 1.0)
    _check_blocks(eng)
    assert snapshot_lines(t) == before
    # the build rejects a pair that coincides at a block edge too
    with pytest.raises(DuplicatePoints, match="points 3 and 16 coincide"):
        build(pts + [pts[3]], space)
