"""Pinned bits of the 2D engine: volumes and neighbour sets along fixed
update sequences must not change unless a change means them to.

The points come from Python's own ``random.Random``, not from numpy, so
every platform feeds the engine the same floats.  Each sequence folds the
``float.hex`` of every volume and every sorted neighbour set into one
sha256 at a few checkpoints.  A change that moves a volume by one bit or
an edge anywhere changes the digest; one that means to (a canonical cell
order, say) records the new digests here.
"""

import hashlib
import random

import pytest

from vorsim import tessellation
from vorsim.engine2d import Engine2D
from vorsim.space import Space
from vorsim.tessellation import build

PINNED = {
    "uniform_torus":
        "97c99f842c900122bb53eecbdbc063ae9ffb5754a2c12d4cf5eef1bd18b9c228",
    "collapsed_torus":
        "065838de395ae27685536de42a2e7fd9cdeb617bd65752d2cf0e50c3f8d24cef",
    "square_density_thinning":
        "3c721c755bb398ecf10d0b192ffc54476b26632651c3d0321b8de22da3beb580",
}


def _fold(h, tess):
    for v in tess.cell_volumes():
        h.update(float(v).hex().encode())
    for s in tess.neighbor_sets():
        h.update(repr(sorted(s)).encode())


def _distinct(rng, n, draw):
    pts = []
    seen = set()
    while len(pts) < n:
        p = draw(rng)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _uniform(rng):
    return (rng.random(), rng.random())


def _cluster(rng, cx=0.3, cy=0.6, r=0.05):
    while True:
        x, y = rng.uniform(-r, r), rng.uniform(-r, r)
        if x * x + y * y <= r * r:
            return (cx + x, cy + y)


def _count_calls(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def uniform_torus():
    rng = random.Random(11)
    t = build(_distinct(rng, 200, _uniform), Space("torus", 1.0))
    h = hashlib.sha256()
    _fold(h, t)
    for k in range(1, 301):
        t.replace_point(rng.randrange(t.n), _uniform(rng))
        if k % 50 == 0:
            _fold(h, t)
    return h.hexdigest()


def collapsed_torus():
    # a cluster in a mostly empty torus: far inserts and deletes touch
    # their own period, and replacing the point just moved again undoes
    # its insert
    rng = random.Random(12)
    t = build(_distinct(rng, 48, _cluster), Space("torus", 1.0))
    h = hashlib.sha256()
    _fold(h, t)
    j = 0
    for k in range(1, 161):
        if rng.random() >= 0.4:
            j = rng.randrange(t.n)
        p = _uniform(rng) if rng.random() < 0.2 else _cluster(rng)
        t.replace_point(j, p)
        if k % 20 == 0:
            _fold(h, t)
    return h.hexdigest()


def square_density_thinning():
    # cells near the sides are clipped and the last few reach the ghosts
    rng = random.Random(13)
    space = Space("square", 1.0, density=[[1.0, 3.0], [2.0, 4.0]])
    t = build(_distinct(rng, 120, _uniform), space)
    h = hashlib.sha256()
    _fold(h, t)
    while t.n > 3:
        t.remove_point(rng.randrange(t.n))
        if t.n % 10 == 0 or t.n <= 5:
            _fold(h, t)
    return h.hexdigest()


@pytest.mark.parametrize(
    "case", [uniform_torus, collapsed_torus, square_density_thinning],
    ids=lambda case: case.__name__)
def test_2d_engine_bits_are_pinned(case, monkeypatch):
    counts = {}
    for name in ("_fill_hole", "_undo_insert"):
        _count_calls(monkeypatch, Engine2D, name, counts)
    _count_calls(monkeypatch, tessellation, "clip_polygon_halfplane", counts)
    digest = case()
    # each sequence runs the paths it is meant to pin
    if case is collapsed_torus:
        assert counts.get("_fill_hole", 0) > 10
        assert counts.get("_undo_insert", 0) > 5
    if case is square_density_thinning:
        assert counts.get("clip_polygon_halfplane", 0) > 0
    assert digest == PINNED[case.__name__]
