"""Static 2D builds: exact lattices, collapsed starts and the Delaunay check;
the engine's undo of the general-path insert."""

import copy

import numpy as np
import pytest
from scipy.spatial import Delaunay

from helpers import clipped_torus_cells, neighbor_pairs, random_points
from vorsim import engine2d
from vorsim.errors import Abort2D, VorsimError
from vorsim.process import initial_configuration
from vorsim.tessellation import build, oracle_cell_stats


def _lattice(g):
    return [((i + 0.5) / g, (j + 0.5) / g) for j in range(g) for i in range(g)]


@pytest.mark.parametrize("g", [3, 4, 8])
def test_seeded_torus_builder_on_exact_lattices(torus, g):
    pts = _lattice(g)
    t = build(pts, torus)
    assert t.backend == "delaunay2d"
    assert t._eng.validate() is None
    assert np.max(np.abs(t.cell_volumes() - 1.0 / g ** 2)) <= 1e-15
    assert set(t.degrees().tolist()) == {4}


def test_torus_2x2_lattice_builds_on_the_triangulation(torus):
    # each generator's images tie with the others' on every lattice
    # square; the position-ordered perturbation breaks those ties
    t = build(_lattice(2), torus)
    assert t.backend == "delaunay2d"
    assert t._eng.validate() is None
    assert list(t.cell_volumes()) == [0.25] * 4
    # a cell's left and right neighbours are one generator, as are the
    # cells above and below it
    assert t.neighbor_sets() == [{1, 2}, {0, 3}, {0, 3}, {1, 2}]


@pytest.mark.parametrize("g", [2, 3, 4, 8])
def test_square_builder_on_exact_lattices(square, g):
    t = build(_lattice(g), square)
    assert t.backend == "delaunay2d"
    assert t._eng.validate() is None
    assert np.max(np.abs(t.cell_volumes() - 1.0 / g ** 2)) <= 1e-15
    # a lattice cell borders the cells above, below, left and right of it
    want = [(i > 0) + (i < g - 1) + (j > 0) + (j < g - 1)
            for j in range(g) for i in range(g)]
    assert t.degrees().tolist() == want


@pytest.mark.parametrize("n", [4, 16, 256])
def test_collapsed_torus_starts_build_and_match_the_oracle(torus, n):
    pts = initial_configuration(torus, n, {"kind": "single_cluster",
                                           "radius": 0.05},
                                np.random.default_rng(n))
    t = build(pts, torus)
    assert t.backend == "delaunay2d"
    assert t._eng.validate() is None
    vols, _, counts = oracle_cell_stats(pts, torus, resolution=250_000)
    assert np.max(np.abs(t.cell_volumes() - vols)) < 1e-3
    if n <= 16:
        # 256 cells in the disk are a few samples wide, too few to read
        # their adjacency off the sample grid
        assert {p for p, c in counts.items() if c > 2} <= neighbor_pairs(t)


def _torus_start(torus, kind, n, seed):
    if kind == "cluster":
        return initial_configuration(torus, n, {"kind": "single_cluster",
                                                "radius": 0.05},
                                     np.random.default_rng(seed))
    return random_points(np.random.default_rng(seed), torus, n)


def _uniform_start(torus, n, k):
    """Start k of the uniform n-point starts drawn from default_rng(n)."""
    rng = np.random.default_rng(n)
    for _ in range(k + 1):
        pts = random_points(rng, torus, n)
    return pts


def _assert_matches_clipping(t, pts):
    assert t.backend == "delaunay2d"
    assert t._eng.validate() is None
    vols, nbrs = clipped_torus_cells(pts)
    assert np.max(np.abs(t.cell_volumes() - vols)) <= 1e-12
    assert t.neighbor_sets() == nbrs


@pytest.mark.parametrize("kind,n", [("cluster", 3), ("cluster", 4),
                                    ("cluster", 16), ("cluster", 256),
                                    ("uniform", 1), ("uniform", 2),
                                    ("uniform", 3), ("uniform", 4),
                                    ("uniform", 6), ("uniform", 10)])
def test_torus_starts_build_on_the_triangulation(torus, kind, n):
    # deleting the seed lattice from these starts meets stars that touch
    # another period of their own vertex
    for seed in range(3):
        pts = _torus_start(torus, kind, n, seed)
        _assert_matches_clipping(build(pts, torus), pts)


@pytest.mark.parametrize("n,k", [(1, 12), (1, 95), (1, 101), (2, 91),
                                 (2, 302), (2, 423), (3, 749), (3, 796),
                                 (3, 1663)])
def test_tied_seed_deletions_build_on_the_triangulation(torus, n, k):
    # these starts leave seeds whose lifted images are nearly cocircular
    # and round differently from one period to the next
    pts = _uniform_start(torus, n, k)
    _assert_matches_clipping(build(pts, torus), pts)


def test_small_torus_census_builds_and_validates(torus):
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(n)
        for _ in range(200):
            eng = engine2d.build_engine(random_points(rng, torus, n), 1.0,
                                        True)
            assert eng.validate() is None


def test_aborts_are_named_errors_and_builds_do_not_fall_back(torus,
                                                            monkeypatch):
    pts = random_points(np.random.default_rng(7), torus, 12)
    t = build(pts, torus)
    real_insert = engine2d.Engine2D.insert
    aborts = []

    def abort(self, v, start=None):
        raise Abort2D("injected")

    def abort_first(self, v, start=None):
        if aborts:
            return real_insert(self, v, start)
        aborts.append(v)
        abort(self, v)

    # a chain update that aborts rebuilds, as a last resort
    monkeypatch.setattr(engine2d.Engine2D, "insert", abort_first)
    assert t.replace_point(3, (0.123, 0.456)) == tuple(range(12))
    assert aborts == [3] and t._eng.validate() is None
    # a build, or the rebuild after an update aborts, raises
    monkeypatch.setattr(engine2d.Engine2D, "insert", abort)
    with pytest.raises(VorsimError, match="injected"):
        build(pts, torus)
    with pytest.raises(VorsimError, match="injected"):
        t.replace_point(5, (0.5, 0.5))


def test_a_torus_build_with_no_free_seed_lattice_raises(torus):
    # each build's first seed becomes a point, which takes its lattice
    pts = [(0.5, 0.5)]
    for _ in range(16):
        eng = engine2d.build_engine(pts, 1.0, True)
        pts.append((eng.X[len(pts)], eng.Y[len(pts)]))
    with pytest.raises(VorsimError, match="seed lattice"):
        build(pts, torus)


# five points with exact coordinate ties: three share y, two share x, and
# the x steps are a third of the period up to rounding
_TIED = [(0.6872677996233333, 0.7453559924966666),
         (0.6872677996233333, 0.4120226591633333),
         (0.020601132956666664, 0.7453559924966666),
         (0.35393446628999997, 0.7453559924966666),
         (0.9616571936637868, 0.7247899407735336)]


def test_tied_points_build_and_survive_deletions(torus):
    _assert_matches_clipping(build(_TIED, torus), _TIED)
    for seed in range(100):
        extra = random_points(np.random.default_rng(seed), torus, 3)
        eng = engine2d.build_engine(_TIED + extra, 1.0, True)
        for v in (5, 6, 7):
            eng.delete(v)
            assert eng.validate() is None


@pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
def test_square_build_is_the_delaunay_triangulation(square, n, monkeypatch):
    def no_validate(self):
        raise AssertionError("the square build needs no validate()")

    monkeypatch.setattr(engine2d.Engine2D, "validate", no_validate)
    rng = np.random.default_rng(60 + n)
    pts = random_points(rng, square, n)
    eng = engine2d.build_engine(pts, 1.0, False)
    got = {frozenset(eng.TRI[t][:3]) for t in eng.live_triangles()}
    # scipy is the reference only: the points plus the four ghost corners
    ref = Delaunay(np.vstack([pts, engine2d._GHOST_CORNERS]))
    assert got == {frozenset(s.tolist()) for s in ref.simplices}

    t = build(pts, square)
    perm = rng.permutation(n)
    u = build([pts[k] for k in perm], square)
    assert np.max(np.abs(u.cell_volumes() - t.cell_volumes()[perm]),
                  initial=0.0) <= 1e-15
    back = {int(k): i for i, k in enumerate(perm)}
    assert neighbor_pairs(u) == {tuple(sorted((back[a], back[b])))
                                 for a, b in neighbor_pairs(t)}


def _collapsed_engine(torus, seed):
    """Engine of 256 points in a disk of radius 0.05 around the centre of
    the torus; the build's nine seed ids 256..264 are free for new
    vertices."""
    pts = initial_configuration(torus, 256, {"kind": "single_cluster",
                                             "radius": 0.05},
                                np.random.default_rng(seed))
    return pts, engine2d.build_engine(pts, 1.0, True)


def _state(eng):
    return copy.deepcopy((eng.TRI, eng.NBR, eng.CC, eng.incident, eng.free,
                          eng.live, eng.buckets))


def _spy(monkeypatch, name):
    calls = []
    real = getattr(engine2d.Engine2D, name)

    def spy(self, *args, **kwargs):
        calls.append(kwargs)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(engine2d.Engine2D, name, spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deleting_the_vertex_just_inserted_restores_the_engine(torus, seed,
                                                               monkeypatch):
    _, eng = _collapsed_engine(torus, seed)
    fills = _spy(monkeypatch, "_fill_hole")
    v = 256
    # the corner of the torus is as far from the cluster as can be: the
    # cavity of a point there meets itself around the torus
    eng.X[v], eng.Y[v] = 0.013, 0.021
    before = _state(eng)
    aff = eng.insert(v)
    assert fills == [{"new": v}]
    assert eng.delete(v) == aff
    assert len(fills) == 1
    assert _state(eng) == before
    assert eng.validate() is None


def test_a_mutation_after_the_insert_drops_its_undo_record(torus,
                                                          monkeypatch):
    pts, eng = _collapsed_engine(torus, 0)
    fills = _spy(monkeypatch, "_fill_hole")
    undos = _spy(monkeypatch, "_undo_insert")
    v, w = 256, 257
    eng.X[v], eng.Y[v] = 0.013, 0.021
    eng.X[w], eng.Y[w] = 0.5012, 0.4987
    eng.insert(v)
    eng.insert(w)
    # v went through the universal cover, w (inside the cluster) did not
    assert fills == [{"new": v}]
    eng.delete(v)
    assert undos == []
    assert eng.validate() is None
    fresh = engine2d.build_engine(pts + [(eng.X[w], eng.Y[w])], 1.0, True)
    ids = list(range(256)) + [w]
    for k, u in enumerate(ids):
        vol, nbrs, _, _, _ = eng.cell_scan(u, 0.0)
        vol_f, nbrs_f, _, _, _ = fresh.cell_scan(k, 0.0)
        assert vol == pytest.approx(vol_f, rel=1e-9, abs=1e-15)
        assert {ids.index(x) for x in nbrs} == set(nbrs_f)


def test_ring_offsets_are_the_square_ring():
    for r in range(6):
        want = {(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                if max(abs(dx), abs(dy)) == r}
        got = engine2d._ring_offsets(r)
        assert len(got) == len(want) == max(8 * r, 1)
        assert set(got) == want
