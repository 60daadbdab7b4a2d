"""Polygon clipping, areas and grid-weighted measures."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vorsim.geom2d import (BOUNDARY, circumcenter, clip_polygon_halfplane,
                           halfplane_area, polygon_area,
                           polygon_grid_measure)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _convex_polygon(rng, n):
    """Random convex polygon: points on an ellipse at sorted angles."""
    angles = np.sort(rng.random(n) * 2.0 * np.pi)
    cx, cy = rng.random(2) * 2.0 - 1.0
    rx, ry = 0.2 + rng.random(2)
    return [(cx + rx * math.cos(a), cy + ry * math.sin(a)) for a in angles]


def test_polygon_area_frozen_values():
    assert polygon_area(UNIT_SQUARE) == 1.0
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert polygon_area(tri) == 0.5
    assert abs(polygon_area(list(reversed(UNIT_SQUARE)))) == 1.0


def test_clip_halfplane_keeps_le_side_and_labels():
    pts, labels = clip_polygon_halfplane(UNIT_SQUARE, [0, 1, 2, 3],
                                         1.0, 0.0, 0.3, -1)
    assert abs(abs(polygon_area(pts)) - 0.3) < 1e-12
    assert all(x <= 0.3 + 1e-12 for x, _ in pts)
    # vertices created on the cut get the new label, kept ones keep theirs
    assert -1 in labels
    assert set(labels) <= {-1, 0, 1, 2, 3}


def test_clip_halfplane_empty_and_full():
    pts, labels = clip_polygon_halfplane(UNIT_SQUARE, [0, 1, 2, 3],
                                         1.0, 0.0, -0.5, -1)
    assert pts == []
    pts, labels = clip_polygon_halfplane(UNIT_SQUARE, [0, 1, 2, 3],
                                         1.0, 0.0, 2.0, -1)
    assert abs(abs(polygon_area(pts)) - 1.0) < 1e-12
    assert labels == [0, 1, 2, 3]


def test_clip_rect_frozen_area():
    # a box is four half-planes: 0.1 <= x <= 0.4, 0.2 <= y <= 0.9
    pts, labels = UNIT_SQUARE, [0, 1, 2, 3]
    for nx, ny, c in ((-1.0, 0.0, -0.1), (1.0, 0.0, 0.4),
                      (0.0, -1.0, -0.2), (0.0, 1.0, 0.9)):
        pts, labels = clip_polygon_halfplane(pts, labels, nx, ny, c, BOUNDARY)
    assert abs(abs(polygon_area(pts)) - 0.3 * 0.7) < 1e-12
    assert labels == [BOUNDARY] * 4


def test_halfplane_area_equals_clip_then_area():
    rng = np.random.default_rng(7)
    for _ in range(500):
        poly = _convex_polygon(rng, int(rng.integers(3, 9)))
        theta = rng.random() * 2.0 * np.pi
        nx, ny = math.cos(theta), math.sin(theta)
        c = rng.random() * 2.0 - 1.0
        pts, _ = clip_polygon_halfplane(poly, [0] * len(poly), nx, ny, c, -1)
        want = abs(polygon_area(pts)) if len(pts) >= 3 else 0.0
        got = halfplane_area(poly, nx, ny, c)
        assert got == pytest.approx(want, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_halfplane_area_never_exceeds_polygon_area(poly_seed, c):
    rng = np.random.default_rng(poly_seed)
    poly = _convex_polygon(rng, 6)
    area = halfplane_area(poly, 1.0, 0.0, c)
    assert 0.0 <= area <= abs(polygon_area(poly)) + 1e-12


def test_grid_measure_uniform_grid_equals_area():
    grid = np.full((3, 3), 2.0)
    got = polygon_grid_measure(UNIT_SQUARE, grid, 1.0, False)
    assert got == pytest.approx(2.0, rel=1e-12)


def test_grid_measure_frozen_two_by_two():
    # quadrant weights 1, 3 (top), 2, 4 -> unit square integrates their mean
    grid = np.array([[1.0, 3.0], [2.0, 4.0]])
    got = polygon_grid_measure(UNIT_SQUARE, grid, 1.0, False)
    assert got == pytest.approx(2.5, rel=1e-12)
    half = [(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0)]
    # left half covers cells (0,0) and (1,0): (1/4 + 2/4) / (area weights)
    got = polygon_grid_measure(half, grid, 1.0, False)
    assert got == pytest.approx(0.25 * 1.0 + 0.25 * 2.0, rel=1e-12)


def test_circumcenter_frozen_values():
    assert circumcenter(0.0, 0.0, 1.0, 0.0, 0.0, 1.0) == (0.5, 0.5)
    # equilateral triangle centred circumcenter
    cx, cy = circumcenter(0.0, 0.0, 1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0)
    assert cx == pytest.approx(0.5, abs=1e-15)
    assert cy == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-15)
