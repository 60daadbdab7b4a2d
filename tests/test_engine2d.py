"""Static 2D builds: exact lattices, collapsed starts and the Delaunay check."""

import numpy as np
import pytest
from scipy.spatial import Delaunay

from helpers import neighbor_pairs, random_points
from vorsim import engine2d
from vorsim.process import initial_configuration
from vorsim.space import Space
from vorsim.tessellation import build, oracle_cell_stats


def _lattice(g):
    return [((i + 0.5) / g, (j + 0.5) / g) for j in range(g) for i in range(g)]


@pytest.mark.parametrize("g", [3, 4, 8])
def test_seeded_torus_builder_on_exact_lattices(torus, g, monkeypatch):
    pts = _lattice(g)
    assert engine2d._seeded_torus_engine(pts, 1.0).validate() is None
    # take the library builder out, so the tessellation runs on the seeded one
    monkeypatch.setattr(engine2d, "_torus_engine", lambda points, L: None)
    t = build(pts, torus)
    assert t.backend == "delaunay2d"
    assert t._eng.validate() is None
    assert np.max(np.abs(t.cell_volumes() - 1.0 / g ** 2)) <= 1e-15
    assert set(t.degrees().tolist()) == {4}


def test_torus_2x2_lattice_falls_back_to_clipping(torus):
    pts = _lattice(2)
    assert engine2d._seeded_torus_engine(pts, 1.0) is None
    t = build(pts, torus)
    assert t.backend == "clip2d"
    assert list(t.cell_volumes()) == [0.25] * 4


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
