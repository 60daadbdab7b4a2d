"""State spaces: canonical charts, reference and sampling measures.

Four space kinds are supported: ``circle`` and ``interval`` (one
coordinate), ``square`` and ``torus`` (two coordinates).  Periodic axes use
the half-open chart [0, L); bounded axes use the closed chart [0, L].  An
optional piecewise-constant density grid reweights the reference measure
(lambda) and, by default, the sampling measure (mu); a separate mu grid may
be supplied, in which case zero cells are allowed there (they are simply
never sampled), while the lambda grid must stay strictly positive.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

KINDS_1D = ("circle", "interval")
KINDS_2D = ("square", "torus")
ALL_KINDS = KINDS_1D + KINDS_2D


def region_bounds(dim, size, bounds):
    """The bounds of an axis-aligned region as floats, checked.

    ``(a, b)`` in one dimension, ``(x0, x1, y0, y1)`` in two; each span
    must be ascending and lie inside the chart [0, size].
    """
    vals = tuple(float(v) for v in bounds)
    if dim == 1:
        if len(vals) != 2:
            raise ConfigError("a 1D region needs bounds (a, b)")
        spans = (vals,)
    else:
        if len(vals) != 4:
            raise ConfigError("a 2D region needs bounds (x0, x1, y0, y1)")
        spans = (vals[:2], vals[2:])
    for lo, hi in spans:
        if not (0.0 <= lo < hi <= size):
            raise ConfigError(
                f"region span ({lo}, {hi}) must be ascending inside "
                f"the chart [0, {size}]")
    return vals


def _canonical_array(space, xy):
    """``space.canonicalize`` of every point in one numpy pass.

    ``xy`` is a float array of shape (n,) in one dimension or (n, 2) in
    two, and the result has the same shape and the bits that
    ``canonicalize`` gives each point (numpy's float ``mod`` rounds as
    Python's ``%`` does).  An invalid point raises the error that
    ``canonicalize`` raises for the first one.
    """
    L = space.size
    ok = np.isfinite(xy) if space.periodic else (0.0 <= xy) & (xy <= L)
    if xy.ndim == 2:
        ok = ok.all(axis=1)
    if not ok.all():
        space.canonicalize(xy[int(np.argmin(ok))])
    if space.periodic:
        xy = np.mod(xy, L)
        xy[xy == L] = 0.0
    return xy


class Space:
    """A compact state space with metric, measures and a sampler.

    Parameters
    ----------
    kind : str
        One of ``circle``, ``interval``, ``square``, ``torus``.
    size : float
        Circumference (circle), length (interval) or side (square/torus).
    density : array_like, optional
        Piecewise-constant density for the reference measure: shape ``(n,)``
        in 1D or ``(nrows, ncols)`` in 2D, strictly positive.  Cell ``(r, c)``
        covers ``x in [c*L/ncols, (c+1)*L/ncols)`` and the analogous y range.
    mu_density : array_like, optional
        Separate density for the sampling measure.  Defaults to ``density``.
        May contain zeros as long as the total mass is positive.
    """

    def __init__(self, kind, size, density=None, mu_density=None):
        if kind not in ALL_KINDS:
            raise ConfigError(f"unknown space kind {kind!r}")
        size = float(size)
        if not (size > 0.0) or not math.isfinite(size):
            raise ConfigError("space size must be a positive finite number")
        self.kind = kind
        self.size = size
        self.dim = 1 if kind in KINDS_1D else 2
        self.periodic = kind in ("circle", "torus")
        self.density = self._check_grid(density, "density", allow_zero=False)
        if mu_density is None:
            self.mu_density = self.density
        else:
            self.mu_density = self._check_grid(mu_density, "mu_density",
                                               allow_zero=True)
        self._mu_max = None if self.mu_density is None else float(self.mu_density.max())

    def _check_grid(self, grid, name, allow_zero):
        if grid is None:
            return None
        arr = np.asarray(grid, dtype=float)
        if arr.ndim != self.dim:
            raise ConfigError(f"{name} grid must be {self.dim}-dimensional "
                              f"for kind {self.kind!r}")
        if arr.size == 0:
            raise ConfigError(f"{name} grid is empty")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name} grid contains non-finite values")
        if allow_zero:
            if np.any(arr < 0.0) or not np.any(arr > 0.0):
                raise ConfigError(f"{name} grid needs nonnegative values with "
                                  "positive total mass")
        else:
            if np.any(arr <= 0.0):
                raise ConfigError(f"{name} grid values must be strictly positive")
        return arr

    # -- chart handling ----------------------------------------------------

    def canonicalize(self, point):
        """Map a point into the canonical chart, validating bounded axes."""
        L = self.size
        if self.dim == 1:
            x = float(point)
            if self.periodic:
                # nan and inf would wrap to nan and pass as a coordinate
                if not math.isfinite(x):
                    raise ConfigError(f"point {x!r} is not finite")
                x = x % L
                return 0.0 if x == L else x
            if not (0.0 <= x <= L):
                raise ConfigError(f"point {x!r} outside interval [0, {L}]")
            return x
        x, y = float(point[0]), float(point[1])
        if self.periodic:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ConfigError(f"point {(x, y)!r} is not finite")
            x %= L
            y %= L
            return (0.0 if x == L else x, 0.0 if y == L else y)
        if not (0.0 <= x <= L and 0.0 <= y <= L):
            raise ConfigError(f"point {(x, y)!r} outside square [0, {L}]^2")
        return (x, y)

    # -- measure -----------------------------------------------------------

    def density_at(self, point, grid):
        """Grid value at a canonical point (lower-closed cell convention)."""
        L = self.size
        if self.dim == 1:
            n = grid.shape[0]
            i = min(int(float(point) / L * n), n - 1)
            return float(grid[i])
        nrows, ncols = grid.shape
        c = min(int(point[0] / L * ncols), ncols - 1)
        r = min(int(point[1] / L * nrows), nrows - 1)
        return float(grid[r, c])

    def _axis_overlap(self, n, lo, hi):
        """Overlap lengths of [lo, hi] with the n equal cells of [0, L]."""
        edges = np.linspace(0.0, self.size, n + 1)
        left = np.maximum(edges[:-1], lo)
        right = np.minimum(edges[1:], hi)
        return np.maximum(right - left, 0.0)

    def _span_pieces(self, a, b):
        """Split an axis span into non-wrapping pieces within [0, L]."""
        L = self.size
        if a <= b:
            return [(a, b)]
        if not self.periodic:
            raise ConfigError("descending span on a bounded axis")
        return [(a, L), (0.0, b)]

    def region_measure(self, bounds, which="lambda"):
        """Measure of an axis-aligned region.

        ``bounds`` is ``(a, b)`` in 1D or ``(x0, x1, y0, y1)`` in 2D; on
        periodic axes a descending span wraps through L.  ``which`` selects
        the lambda or mu density.
        """
        grid = self.density if which == "lambda" else self.mu_density
        if self.dim == 1:
            a, b = bounds
            pieces = self._span_pieces(float(a), float(b))
            if grid is None:
                total = sum(hi - lo for lo, hi in pieces)
            else:
                n = grid.shape[0]
                total = sum(float(np.dot(grid, self._axis_overlap(n, lo, hi)))
                            for lo, hi in pieces)
        else:
            x0, x1, y0, y1 = (float(v) for v in bounds)
            xp = self._span_pieces(x0, x1)
            yp = self._span_pieces(y0, y1)
            total = 0.0
            for ylo, yhi in yp:
                for xlo, xhi in xp:
                    if grid is None:
                        total += (xhi - xlo) * (yhi - ylo)
                    else:
                        nrows, ncols = grid.shape
                        ox = self._axis_overlap(ncols, xlo, xhi)
                        oy = self._axis_overlap(nrows, ylo, yhi)
                        total += float(oy @ grid @ ox)
        if which == "mu":
            return total / self.total_measure("mu_raw")
        return total

    def total_measure(self, which="lambda"):
        """Total lambda-measure of the space (mu always normalizes to 1)."""
        if which in ("lambda", "mu_raw"):
            grid = self.density if which == "lambda" else self.mu_density
        else:
            raise ValueError(f"unknown measure {which!r}")
        base = self.size if self.dim == 1 else self.size * self.size
        if grid is None:
            return base
        cell = base / grid.size
        return float(grid.sum()) * cell

    # -- sampling ----------------------------------------------------------

    def sample_mu(self, rng):
        """One draw from mu (uniform, or rejection against the mu grid)."""
        L = self.size
        grid = self.mu_density
        if grid is None:
            if self.dim == 1:
                return rng.random() * L
            return (rng.random() * L, rng.random() * L)
        dmax = self._mu_max
        while True:
            if self.dim == 1:
                p = rng.random() * L
            else:
                p = (rng.random() * L, rng.random() * L)
            if rng.random() * dmax < self.density_at(p, grid):
                return p
