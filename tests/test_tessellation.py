"""Voronoi partitions: frozen small cases, invariants and the sampling oracle."""

from array import array

import numpy as np
import pytest

from helpers import (all_spaces, neighbor_pairs, random_points,
                     snapshot_lines)
from vorsim.errors import ConfigError, DuplicatePoints
from vorsim.space import Space
from vorsim.tessellation import Tessellation, build, oracle_cell_stats


def test_circle_three_point_frozen_volumes(circle):
    t = build([0.0, 0.1, 0.5], circle)
    assert t.cell_volumes() == pytest.approx([0.30, 0.25, 0.45], abs=1e-12)
    assert neighbor_pairs(t) == {(0, 1), (0, 2), (1, 2)}
    assert list(t.degrees()) == [2, 2, 2]


def test_circle_two_point_frozen_volumes(circle):
    t = build([0.2, 0.7], circle)
    assert t.cell_volumes() == pytest.approx([0.5, 0.5], abs=1e-15)
    assert neighbor_pairs(t) == {(0, 1)}


def test_interval_two_point_frozen_volumes(interval):
    t = build([0.2, 0.6], interval)
    assert t.cell_volumes() == pytest.approx([0.4, 0.6], abs=1e-15)
    assert neighbor_pairs(t) == {(0, 1)}
    assert list(t.degrees()) == [1, 1]


def test_single_point_owns_whole_space(interval, torus):
    t = build([0.3], interval)
    assert t.volumes_at([0]) == pytest.approx([1.0], abs=1e-15)
    assert t.degrees_at([0]) == [0]
    t = build([(0.3, 0.8)], torus)
    assert t.volumes_at([0]) == pytest.approx([1.0], abs=1e-12)
    assert t.degrees_at([0]) == [0]


def test_square_two_points_split_by_bisector(square):
    t = build([(0.25, 0.5), (0.75, 0.5)], square)
    assert t.cell_volumes() == pytest.approx([0.5, 0.5], abs=1e-12)
    assert neighbor_pairs(t) == {(0, 1)}


def test_torus_two_points(torus):
    t = build([(0.1, 0.1), (0.6, 0.1)], torus)
    assert sum(t.cell_volumes()) == pytest.approx(1.0, abs=1e-12)
    assert neighbor_pairs(t) == {(0, 1)}


def test_torus_partition_and_euler_identity(torus):
    rng = np.random.default_rng(5)
    base = np.linspace(0.125, 0.875, 4)
    pts = [(float(x + rng.normal(0, 0.01)) % 1.0,
            float(y + rng.normal(0, 0.01)) % 1.0)
           for x in base for y in base]
    t = build(pts, torus)
    assert sum(t.cell_volumes()) == pytest.approx(1.0, abs=1e-12)
    # on the torus every Delaunay triangulation satisfies sum(deg) = 6n
    assert int(sum(t.degrees())) == 6 * len(pts)


def test_bounded_partition_of_unity(square):
    rng = np.random.default_rng(6)
    t = build(random_points(rng, square, 40), square)
    assert sum(t.cell_volumes()) == pytest.approx(1.0, abs=1e-10)
    degs = t.degrees()
    assert all(d >= 1 for d in degs)


def test_adjacency_is_symmetric_everywhere():
    rng = np.random.default_rng(7)
    for space in all_spaces():
        t = build(random_points(rng, space, 24), space)
        nbrs = t.neighbor_sets()
        for i, ns in enumerate(nbrs):
            assert i not in ns
            for j in ns:
                assert i in nbrs[j]


def test_duplicate_points_rejected(circle, square):
    with pytest.raises(DuplicatePoints):
        build([0.1, 0.1], circle)
    # 1.0 wraps onto 0.0 on the circle
    with pytest.raises(DuplicatePoints, match="points 0 and 1 coincide"):
        build([0.0, 1.0], circle)
    # the first coinciding pair in sorted order, lower index first
    with pytest.raises(DuplicatePoints, match="points 2 and 4 coincide"):
        build([0.5, 0.3, 0.1, 0.3, 0.1], circle)
    with pytest.raises(DuplicatePoints):
        build([(0.2, 0.2), (0.2, 0.2)], square)


def _spaces_1d():
    return [Space(kind, 1.0, density=grid)
            for kind in ("circle", "interval")
            for grid in (None, [1.0, 3.0, 0.5, 2.0])]


def _sorted_order_neighbors(points, periodic):
    """A 1D cell's neighbours: the points before and after it in sorted
    order, around the circle when periodic."""
    order = sorted(range(len(points)), key=points.__getitem__)
    n = len(order)
    out = [set() for _ in range(n)]
    for k in range(n if periodic else n - 1):
        a, b = order[k], order[(k + 1) % n]
        if a != b:
            out[a].add(b)
            out[b].add(a)
    return [frozenset(s) for s in out]


@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_build_fills_1d_cells_as_the_per_cell_refresh(n):
    rng = np.random.default_rng(40 + n)
    for space in _spaces_1d():
        t = build(random_points(rng, space, n), space)
        assert not t._dirty_vol and not t._dirty_nbr
        # the build caches volumes only; neighbours come from the engine
        assert not t._nbr
        vol = dict(t._vol)
        # id order, the order cell_volumes reads the cache in
        assert list(vol) == t._eid
        for e in t._eid:
            t._cell_1d(e)
        assert t._vol == vol
        assert np.array(list(t._vol.values())).tobytes() == \
            np.array(list(vol.values())).tobytes()
        nbrs = _sorted_order_neighbors(t.points, space.periodic)
        assert t.neighbor_sets() == nbrs
        assert list(t.degrees()) == [len(s) for s in nbrs]
        assert t.degrees_at(range(n)) == [len(s) for s in nbrs]


def test_volumes_then_degrees_refresh_each_changed_cell_once(circle,
                                                            monkeypatch):
    rng = np.random.default_rng(41)
    t = build(random_points(rng, circle, 50), circle)
    calls = []
    cell = Tessellation._cell_1d

    def counted(self, v):
        calls.append(v)
        return cell(self, v)

    monkeypatch.setattr(Tessellation, "_cell_1d", counted)
    changed = t.replace_point(7, 0.123456)
    t.cell_volumes()
    assert sorted(calls) == sorted(t._eid[j] for j in changed)
    calls.clear()
    t.degrees()
    assert calls == []


def test_1d_build_rejects_invalid_points_by_name(circle, interval):
    cases = [
        (circle, [0.2, float("nan"), float("inf")], "point nan is not finite"),
        (circle, [0.2, -float("inf")], "point -inf is not finite"),
        (interval, [0.2, 1.5, -3.0], "point 1.5 outside interval [0, 1.0]"),
        (interval, [-0.1], "point -0.1 outside interval [0, 1.0]"),
        (interval, [0.5, float("nan")],
         "point nan outside interval [0, 1.0]"),
    ]
    for space, pts, message in cases:
        for points in (pts, np.array(pts)):
            with pytest.raises(ConfigError) as err:
                build(points, space)
            assert str(err.value) == message


def test_1d_build_shares_point_and_id_objects(circle):
    t = build(random_points(np.random.default_rng(42), circle, 600), circle)
    # the engine makes no per-point object of its own: its id -> position
    # map holds the float objects of ``points``, and its blocks pack the
    # sorted coordinates and their ids as machine numbers
    eng = t._eng
    assert t._eid == list(range(t.n))
    assert len(eng.pos) == t.n
    for e, x in enumerate(eng.pos):
        assert x is t.points[e]
    assert all(isinstance(b, array) and b.typecode == "d"
               for b in eng.blocks)
    assert all(isinstance(r, array) and r.typecode == "q" for r in eng.ids)
    xs = [x for b in eng.blocks for x in b]
    assert xs == sorted(t.points)
    assert [t.points[e] for e in eng.order()] == xs
    assert not t._nbr


def test_empty_configuration_rejected(circle):
    with pytest.raises(ConfigError):
        build([], circle)


def test_density_weighted_volumes_frozen():
    sp = Space("interval", 1.0, density=[2.0, 1.0])
    t = build([0.25, 0.75], sp)
    assert t.cell_volumes() == pytest.approx([1.0, 0.5], abs=1e-12)


def test_density_weighted_volumes_partition_2d():
    sp = Space("torus", 1.0, density=[[1.0, 3.0], [2.0, 4.0]])
    rng = np.random.default_rng(8)
    t = build(random_points(rng, sp, 6), sp)
    assert sum(t.cell_volumes()) == pytest.approx(2.5, rel=1e-9)


def test_snapshot_lines_header_and_determinism(torus):
    rng = np.random.default_rng(9)
    pts = random_points(rng, torus, 12)
    lines_a = snapshot_lines(build(pts, torus))
    lines_b = snapshot_lines(build(pts, torus))
    assert lines_a == lines_b
    assert lines_a[0] == "index,x,y,cell_volume,degree,neighbor_list"
    assert len(lines_a) == 13


def test_volume_and_degree_accessors_match_batch(square):
    rng = np.random.default_rng(10)
    pts = random_points(rng, square, 15)
    t = build(pts, square)
    fresh = build(pts, square)
    vols = fresh.cell_volumes()
    degs = fresh.degrees()
    for i in range(t.n):
        assert t.volumes_at([i]) == [vols[i]]
        assert t.degrees_at([i]) == [degs[i]]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("grid", [None, [[1.0, 3.0], [2.0, 4.0]]])
@pytest.mark.parametrize("kind", ["torus", "square"])
def test_2d_refresh_computes_each_changed_cell_at_most_twice(kind, grid,
                                                            monkeypatch):
    space = Space(kind, 1.0, density=grid)
    rng = np.random.default_rng(43)
    t = build(random_points(rng, space, 40), space)
    t.degrees()
    cell = Tessellation._cell_2d
    calls = []

    def counted(self, v, want_nbrs=True):
        stored = cell(self, v, want_nbrs)
        calls.append((v, want_nbrs, stored))
        return stored

    def recomputed(e, want_nbrs):
        # one cell computed afresh, with the caches left as they were
        saved = t._vol[e], t._nbr[e]
        cell(t, e, want_nbrs)
        out = t._vol[e], t._nbr[e]
        t._vol[e], t._nbr[e] = saved
        return out

    monkeypatch.setattr(Tessellation, "_cell_2d", counted)
    for k in range(24):
        j = int(rng.integers(t.n))
        if k % 3 == 2:
            changed = t.remove_point(j)
        else:
            changed = t.replace_point(j, random_points(rng, space, 1)[0])
        es = [t._eid[i] for i in changed]
        del calls[:]
        vols = t.volumes_at(changed)
        vol_calls = list(calls)
        del calls[:]
        degs = t.degrees_at(changed)
        nbr_calls = list(calls)
        del calls[:]
        assert list(t.cell_volumes()) == [t._vol[e] for e in t._eid]
        t.degrees()
        assert calls == []
        assert all(not want for _, want, _ in vol_calls)
        assert sorted(v for v, _, _ in vol_calls) == \
            sorted(set(v for v, _, _ in vol_calls))
        assert set(v for v, _, _ in vol_calls) == set(es)
        # neighbours are computed only where the volume pass left them out
        left_out = {v for v, _, stored in vol_calls if not stored}
        assert all(want for _, want, _ in nbr_calls)
        assert sorted(v for v, _, _ in nbr_calls) == sorted(left_out)
        assert _bits(vols) == _bits([recomputed(e, False)[0] for e in es])
        assert degs == [len(recomputed(e, True)[1]) for e in es]
        again = [recomputed(e, True) for e in t._eid]
        assert _bits([t._vol[e] for e in t._eid]) == \
            _bits([vol for vol, _ in again])
        assert [t._nbr[e] for e in t._eid] == [nbr for _, nbr in again]


def test_oracle_exact_lattice_volumes(torus):
    pts = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
    vols, nbrs, counts = oracle_cell_stats(pts, torus, resolution=90_000)
    assert vols == pytest.approx([0.25] * 4, abs=1e-9)
    for pair in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert counts.get(pair, 0) > 2
        assert pair[1] in nbrs[pair[0]]


def test_oracle_agrees_with_engine_on_random_configurations():
    rng = np.random.default_rng(11)
    for space in all_spaces():
        for n in (5, 9):
            pts = random_points(rng, space, n)
            t = build(pts, space)
            vols, _, counts = oracle_cell_stats(pts, space,
                                                resolution=160_000)
            got = t.cell_volumes()
            total = space.total_measure()
            assert np.max(np.abs(np.asarray(got) - vols)) < 6e-3 * total
            pairs = neighbor_pairs(t)
            strong = {p for p, c in counts.items() if c > 2}
            assert strong <= pairs


def test_replace_point_keeps_partition(circle, torus):
    rng = np.random.default_rng(12)
    for space in (circle, torus):
        t = build(random_points(rng, space, 10), space)
        for _ in range(20):
            j = int(rng.integers(t.n))
            p = random_points(rng, space, 1)[0]
            try:
                t.replace_point(j, p)
            except DuplicatePoints:
                continue
            assert sum(t.cell_volumes()) == \
                pytest.approx(space.total_measure(), rel=1e-9)


def test_remove_point_matches_rebuild_of_survivors(interval, square):
    rng = np.random.default_rng(13)
    for space in (interval, square):
        t = build(random_points(rng, space, 9), space)
        t.remove_point(3)
        fresh = build(list(t.points), space)
        assert t.cell_volumes() == pytest.approx(fresh.cell_volumes(),
                                                 rel=1e-9)
        assert neighbor_pairs(t) == neighbor_pairs(fresh)


@pytest.mark.parametrize("grid", [None, [[1.0, 3.0], [2.0, 4.0]]])
@pytest.mark.parametrize("kind", ["square", "torus"])
def test_volumes_do_not_depend_on_read_order(kind, grid):
    space = Space(kind, 1.0, density=grid)
    rng = np.random.default_rng(0)
    pts = random_points(rng, space, 400)
    moves = [(int(j), p) for j, p in zip(rng.integers(0, 400, 20),
                                         random_points(rng, space, 20))]
    first = build(pts, space)
    later = build(pts, space)
    vols = first.cell_volumes()
    later.degrees()
    assert _bits(later.cell_volumes()) == _bits(vols)
    for j, p in moves:
        changed = first.replace_point(j, p)
        later.replace_point(j, p)
        vols = first.volumes_at(changed)
        first.degrees_at(changed)
        later.degrees_at(changed)
        assert _bits(later.volumes_at(changed)) == _bits(vols)
    assert _bits(first.cell_volumes()) == _bits(later.cell_volumes())
