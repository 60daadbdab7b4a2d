"""Incremental replacement against from-scratch rebuilds."""

import numpy as np
import pytest

from helpers import all_spaces, neighbor_pairs, random_points
from vorsim.errors import DuplicatePoints
from vorsim.space import Space
from vorsim.tessellation import build, replace_point


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
    t.degrees()
    assert not t._dirty_vol and not t._dirty_nbr
    fresh = build(list(t.points), space)
    cfg = t._cfg
    assert {j: t._vol[e] for j, e in enumerate(t._eid)} == fresh._vol
    assert {j: tuple(sorted(cfg[u] for u in t._nbr[e]))
            for j, e in enumerate(t._eid)} == fresh._nbr


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
        return t.snapshot_lines()

    assert play() == play()


def test_replacing_with_same_point_is_a_no_op_or_rejected(circle):
    rng = np.random.default_rng(28)
    t = build(random_points(rng, circle, 6), circle)
    before = t.snapshot_lines()
    try:
        t.replace_point(2, list(t.points)[2])
    except DuplicatePoints:
        pass
    assert build(list(t.points), circle).snapshot_lines() == before
