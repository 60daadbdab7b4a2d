"""Robust planar orientation and in-circle tests.

Both predicates evaluate a floating-point determinant first and accept its
sign whenever a static forward-error bound certifies it.  Otherwise the
determinant is recomputed in exact rational arithmetic.  An exactly zero
in-circle determinant (cocircular points) is resolved by symbolically
perturbing the paraboloid lifting of each point downward by an amount that
decreases with the point's id, so ties always break the same way for the
same generators and the resulting triangulation stays globally consistent.
Periodic images of one generator share its id, so four images of at most
two generators (a rectangle of images) can stay tied; a second, smaller
perturbation that decreases with the point's position in lexicographic
order breaks those ties.  A lattice translation keeps that order, so every
period of a tie breaks the same way.

A torus engine passes periodic images as rounded floats ``X[i] + k*L``.
Rounding differs from one period to the next, so two tests of one
configuration in different frames could see different points and
disagree where the configuration is nearly degenerate.  ``incircle``
therefore takes the engine's ``Lifts``: its error bound covers the input
rounding, and its exact fallback evaluates the images exactly, so every
period of a test gets the same answer.
"""

from fractions import Fraction

from .errors import VorsimError

_EPS = 2.0 ** -53
# Static error-bound coefficients for the naive determinant evaluations,
# per the classical adaptive-precision analysis for IEEE doubles.
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS


class PerturbationFailure(VorsimError):
    """The symbolic perturbation could not resolve a degenerate in-circle test.

    Only reachable when all four points are collinear, which no caller
    passes: ``incircle`` needs a counterclockwise triangle (a, b, c).
    """


class Lifts:
    """Exact positions of the images ``X[i] + k*L`` of a periodic point set.

    ``X`` and ``Y`` are the engine's coordinate lists (mutated in place by
    the caller).  The bounds assume what the torus engine guarantees: the
    four points of a test lie within ``8*L`` of each other, and no lifted
    coordinate exceeds ``32*L`` in magnitude, so each rounded input is off
    by at most ``eta = 2**-46 * L``.  Moving the differences by up to
    ``3*eta`` moves the in-circle determinant by less than
    ``slack * R**2 + slack0``, with ``R`` the largest distance to d.
    """

    def __init__(self, X, Y, L):
        self.X = X
        self.Y = Y
        self.L = L
        eps = 3.0 * 2.0 ** -46 * L
        self.slack = 40.0 * (8.0 * L + 2.0 * eps) * eps
        self.slack0 = 150.0 * (8.0 * L + 2.0 * eps) * eps ** 3

    def exact(self, x, y, i):
        """The image of generator i that the float point (x, y) rounds,
        as exact rationals."""
        L = self.L
        X, Y = self.X[i], self.Y[i]
        return (Fraction(X) + round((x - X) / L) * Fraction(L),
                Fraction(Y) + round((y - Y) / L) * Fraction(L))


def orient2d(ax, ay, bx, by, cx, cy):
    """Sign of twice the signed area of (a, b, c): 1 if CCW, -1 if CW, 0 if collinear."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    if detleft > 0.0:
        if detright <= 0.0:
            return 1 if det > 0.0 else (-1 if det < 0.0 else 0)
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return 1 if det > 0.0 else (-1 if det < 0.0 else 0)
        detsum = -detleft - detright
    else:
        return 1 if det > 0.0 else (-1 if det < 0.0 else 0)
    errbound = _CCW_BOUND * detsum
    if det >= errbound:
        return 1
    if -det >= errbound:
        return -1
    return orient2d_exact(ax, ay, bx, by, cx, cy)


def orient2d_exact(ax, ay, bx, by, cx, cy):
    """Exact sign of the orientation determinant via rational arithmetic."""
    acx = Fraction(ax) - Fraction(cx)
    acy = Fraction(ay) - Fraction(cy)
    bcx = Fraction(bx) - Fraction(cx)
    bcy = Fraction(by) - Fraction(cy)
    det = acx * bcy - acy * bcx
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def incircle(ax, ay, bx, by, cx, cy, dx, dy, ia, ib, ic, id_, lifts=None):
    """Return 1 if d lies strictly inside the circumcircle of CCW (a, b, c), else -1.

    Never returns 0: exact cocircularity is broken by the id-indexed
    perturbation, with smaller ids acting as if lifted slightly lower on the
    paraboloid.  ``ia .. id_`` are the generator ids of the four points;
    periodic images share the id of their canonical generator.  With
    ``lifts``, the points are rounded images of those generators, and the
    answer is the one for the exact images.
    """
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (alift * (bdxcdy - cdxbdy)
           + blift * (cdxady - adxcdy)
           + clift * (adxbdy - bdxady))

    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                 + (abs(cdxady) + abs(adxcdy)) * blift
                 + (abs(adxbdy) + abs(bdxady)) * clift)
    errbound = _ICC_BOUND * permanent
    if lifts is not None:
        errbound += lifts.slack * (alift + blift + clift) + lifts.slack0
    if det > errbound:
        return 1
    if -det > errbound:
        return -1
    if lifts is not None:
        ax, ay = lifts.exact(ax, ay, ia)
        bx, by = lifts.exact(bx, by, ib)
        cx, cy = lifts.exact(cx, cy, ic)
        dx, dy = lifts.exact(dx, dy, id_)
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy, ia, ib, ic, id_)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy, ia, ib, ic, id_):
    fax, fay = Fraction(ax), Fraction(ay)
    fbx, fby = Fraction(bx), Fraction(by)
    fcx, fcy = Fraction(cx), Fraction(cy)
    fdx, fdy = Fraction(dx), Fraction(dy)

    adx = fax - fdx
    ady = fay - fdy
    bdx = fbx - fdx
    bdy = fby - fdy
    cdx = fcx - fdx
    cdy = fcy - fdy

    det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
           + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
           + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
    if det > 0:
        return 1
    if det < 0:
        return -1

    # Exactly cocircular.  Expand the 4x4 lifted determinant in the
    # perturbations eps_r = eps^(id_r + 1): rows in order (a, b, c, d), the
    # z-column cofactor of row r is (-1)^r times the orientation determinant
    # of the other three rows kept in row order.  The smallest id carries the
    # largest perturbation and dominates; equal ids (periodic images of one
    # generator) share an epsilon, so their cofactors are summed.
    rows = ((fax, fay), (fbx, fby), (fcx, fcy), (fdx, fdy))
    ids = (ia, ib, ic, id_)
    for wanted in sorted(set(ids)):
        coeff = Fraction(0)
        for r in range(4):
            if ids[r] != wanted:
                continue
            (px, py), (qx, qy), (sx, sy) = [rows[k] for k in range(4) if k != r]
            minor = (qx - px) * (sy - py) - (qy - py) * (sx - px)
            coeff += minor if r % 2 == 0 else -minor
        if coeff > 0:
            return -1
        if coeff < 0:
            return 1
    # Still tied: at most two generators, e.g. a rectangle of periodic
    # images.  Every point now carries its own, smaller epsilon, largest for
    # the lexicographically least point.
    for r in sorted(range(4), key=rows.__getitem__):
        (px, py), (qx, qy), (sx, sy) = [rows[k] for k in range(4) if k != r]
        minor = (qx - px) * (sy - py) - (qy - py) * (sx - px)
        if minor:
            return -1 if (minor > 0) == (r % 2 == 0) else 1
    raise PerturbationFailure("in-circle test on four collinear points")
