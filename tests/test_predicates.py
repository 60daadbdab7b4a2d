"""Exact orientation and incircle predicates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vorsim.predicates import Lifts, incircle, orient2d, orient2d_exact


def _orient_oracle(ax, ay, bx, by, cx, cy):
    det = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) \
        - (Fraction(by) - Fraction(ay)) * (Fraction(cx) - Fraction(ax))
    return (det > 0) - (det < 0)


def _incircle_oracle(ax, ay, bx, by, cx, cy, dx, dy):
    rows = []
    for (px, py) in ((ax, ay), (bx, by), (cx, cy), (dx, dy)):
        px, py = Fraction(px), Fraction(py)
        rows.append((px - Fraction(dx), py - Fraction(dy)))
    (a0, a1), (b0, b1), (c0, c1) = rows[0], rows[1], rows[2]
    a2 = a0 * a0 + a1 * a1
    b2 = b0 * b0 + b1 * b1
    c2 = c0 * c0 + c1 * c1
    det = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) \
        + a2 * (b0 * c1 - b1 * c0)
    return (det > 0) - (det < 0)


def test_orientation_basic_signs():
    assert orient2d(0.0, 0.0, 1.0, 0.0, 0.0, 1.0) > 0
    assert orient2d(0.0, 0.0, 0.0, 1.0, 1.0, 0.0) < 0
    assert orient2d(0.0, 0.0, 1.0, 0.0, 2.0, 0.0) == 0


def test_orientation_agrees_with_rational_arithmetic_near_degeneracy():
    rng = np.random.default_rng(4)
    for _ in range(300):
        ax, ay, bx, by = rng.random(4)
        # c close to the line through a and b, where naive floating point
        # evaluation may return the wrong sign
        t = rng.random() * 2.0 - 0.5
        cx = ax + t * (bx - ax) + rng.choice([-1, 0, 1]) * 1e-17
        cy = ay + t * (by - ay) + rng.choice([-1, 0, 1]) * 1e-17
        want = _orient_oracle(ax, ay, bx, by, cx, cy)
        assert orient2d(ax, ay, bx, by, cx, cy) == want
        assert orient2d_exact(ax, ay, bx, by, cx, cy) == want


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=6, max_size=6))
def test_orientation_matches_oracle_on_random_points(coords):
    ax, ay, bx, by, cx, cy = coords
    assert orient2d(ax, ay, bx, by, cx, cy) == \
        _orient_oracle(ax, ay, bx, by, cx, cy)


def test_incircle_basic_signs():
    # circle through (0,0), (1,0), (0,1) passes through (1,1)
    assert incircle(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.9, 0.9, 0, 1, 2, 3) > 0
    assert incircle(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.1, 1.1, 0, 1, 2, 3) < 0


def test_incircle_matches_oracle_when_not_cocircular():
    rng = np.random.default_rng(11)
    n_checked = 0
    while n_checked < 200:
        ax, ay, bx, by, cx, cy, dx, dy = rng.random(8)
        if _orient_oracle(ax, ay, bx, by, cx, cy) <= 0:
            continue
        want = _incircle_oracle(ax, ay, bx, by, cx, cy, dx, dy)
        if want == 0:
            continue
        got = incircle(ax, ay, bx, by, cx, cy, dx, dy, 0, 1, 2, 3)
        assert got == want
        n_checked += 1


def test_incircle_breaks_cocircular_ties_deterministically():
    # four cocircular points: the result must be a reproducible nonzero sign
    args = (0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    first = incircle(*args, 0, 1, 2, 3)
    assert first != 0
    for _ in range(5):
        assert incircle(*args, 0, 1, 2, 3) == first


def test_incircle_tie_break_depends_on_indices_not_call_order():
    # the symbolic perturbation is attached to the point indices, so the
    # same geometric configuration with the same indices gives the same sign
    args = (0.25, 0.25, 0.75, 0.25, 0.75, 0.75, 0.25, 0.75)
    s1 = incircle(*args, 3, 7, 12, 20)
    s2 = incircle(*args, 3, 7, 12, 20)
    assert s1 != 0 and s1 == s2


@pytest.mark.parametrize("quad,ids", [
    ([(0.25, 0.5), (1.25, 0.5), (1.25, 1.5), (0.25, 1.5)], (5, 5, 5, 5)),
    ([(0.25, 0.5), (1.25, 0.5), (1.25, 0.75), (0.25, 0.75)], (0, 0, 1, 1)),
    ([(0.5, 0.25), (0.75, 0.25), (0.75, 1.25), (0.5, 1.25)], (0, 1, 1, 0))])
def test_incircle_breaks_ties_between_periodic_images(quad, ids):
    # a rectangle whose corners are unit-period images of at most two
    # generators stays tied under the id perturbation; the position-ordered
    # one must still act as one lifting: turning the quadruple by one
    # corner is an odd permutation of the lifted determinant, by two an
    # even one
    signs = []
    for k in range(4):
        q = quad[k:] + quad[:k]
        i = ids[k:] + ids[:k]
        signs.append(incircle(*q[0], *q[1], *q[2], *q[3], *i))
    assert signs[1] == -signs[0] and signs[2] == signs[0]
    assert signs[3] == -signs[0]


def test_incircle_with_lifts_answers_for_the_exact_images():
    # three generators a third of a period apart: 2, a period below it, 1
    # and 3 are cocircular up to rounding, and the float images of the
    # four round differently from one period to the next
    X = [0.6872677996233333, 0.6872677996233333, 0.020601132956666664,
         0.35393446628999997]
    Y = [0.7453559924966666, 0.4120226591633333, 0.7453559924966666,
         0.7453559924966666]
    lifts = Lifts(X, Y, 1.0)
    quad = ((2, 0, 0), (2, 0, -1), (1, 0, 0), (3, 0, 0))
    plain, lifted = set(), set()
    for sx in (-1, 0, 1, 2):
        for sy in (-1, 0, 1, 2):
            pts = [(X[i] + (lx + sx), Y[i] + (ly + sy)) for i, lx, ly in quad]
            args = [z for p in pts for z in p] + [i for i, _, _ in quad]
            plain.add(incircle(*args))
            lifted.add(incircle(*args, lifts))
            exact = [(Fraction(X[i]) + lx + sx, Fraction(Y[i]) + ly + sy)
                     for i, lx, ly in quad]
            assert incircle(*args, lifts) == \
                _incircle_oracle(*[z for p in exact for z in p])
    assert plain == {-1, 1}
    assert lifted == {-1}
