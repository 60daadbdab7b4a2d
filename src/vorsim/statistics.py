"""Pattern statistics and one-step drift estimation.

Summaries of a single configuration (volume and degree histograms, Thiel
redundancy of the cell partition, empirical J-function, quadrat dispersion)
and estimators over whole trajectories: the conditional one-step drift
E(dN_A | N_A) of the point count of a test region A, fitted against the
power-law form mu(A) - K * N_A**(1 - alpha).

The drift bins use the pre-step count, so each event contributes exactly
once to exactly one bin.  For alpha > 1 only the portion of the trajectory
before cluster collapse is used, since the scaling assumptions behind the
power-law form stop holding once one cell swallows most of the space.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InsufficientData
from .space import region_bounds

# Collapse detector default for the 2D quadrat index, whose uniform
# baseline is 1; the 1D gap index has baseline log n, so its threshold is
# chosen relative to n (see collapse_threshold_default).
COLLAPSE_INDEX = 8.0


def collapse_threshold_default(space, n):
    """Clustering-index level that separates collapse from fluctuation.

    Quadrat index in 2D (uniform baseline 1, collapse near n): 8.  Gap
    index in 1D (uniform baseline log n with a heavy tail, collapse near
    n): n/4 floored at 12.
    """
    if space.dim == 2:
        return COLLAPSE_INDEX
    return max(n / 4.0, 12.0)


class TestRegion:
    """An axis-aligned test region A of a space.

    Parameters
    ----------
    space : Space
        The ambient space.
    bounds : tuple
        ``(a, b)`` for an arc or subinterval in one dimension,
        ``(x0, x1, y0, y1)`` for a rectangle in two.  Bounds must be
        ascending and lie inside the chart; membership is closed on both
        ends.

    Attributes
    ----------
    mu_measure : float
        mu(A), normalized so the whole space has mass one.
    lambda_measure : float
        lambda(A) under the reference density.
    """

    def __init__(self, space, bounds):
        vals = region_bounds(space.dim, space.size, bounds)
        self.space = space
        self.bounds = vals
        self.mu_measure = space.region_measure(vals, "mu")
        self.lambda_measure = space.region_measure(vals, "lambda")
        if not (self.mu_measure > 0.0):
            raise ConfigError("region has zero sampling mass")

    def contains(self, point):
        """Whether a canonical point lies in the region (closed bounds)."""
        b = self.bounds
        if self.space.dim == 1:
            x = float(point)
            return b[0] <= x <= b[1]
        x, y = point
        return b[0] <= x <= b[1] and b[2] <= y <= b[3]

    def contains_array(self, points):
        """Vectorized membership over an (n,) or (n, dim) coordinate array."""
        b = self.bounds
        arr = np.asarray(points, dtype=float)
        if self.space.dim == 1:
            x = arr.reshape(-1)
            return (b[0] <= x) & (x <= b[1])
        return ((b[0] <= arr[:, 0]) & (arr[:, 0] <= b[1])
                & (b[2] <= arr[:, 1]) & (arr[:, 1] <= b[3]))


def count_in_region(config, region):
    """Number of configuration points inside the region."""
    if len(config) == 0:
        return 0
    return int(region.contains_array(np.asarray(config, dtype=float)).sum())


def selection_mass(tess, sel, region=None):
    """Total selection weight carried by the points of a region.

    With ``region=None`` this is the normalizer of the selection
    probabilities; restricted to a region B it is the sum of S over the
    cells whose generators lie in B, so that (mass of B) / (total mass)
    is the one-step probability of removing a point from B.
    """
    w = np.asarray(sel.weights(tess), dtype=float)
    if region is None:
        return float(w.sum())
    mask = region.contains_array(np.asarray(tess.points, dtype=float))
    return float(w[mask].sum())


def thiel_of_volumes(volumes):
    """Thiel redundancy of an explicit cell-volume vector."""
    v = np.asarray(volumes, dtype=float)
    k = v.size
    if k < 2:
        raise ConfigError("Thiel redundancy needs at least two cells")
    total = float(v.sum())
    if not (total > 0.0):
        raise ConfigError("cell volumes sum to zero")
    q = v / total
    pos = q[q > 0.0]
    h = float(-(pos * np.log(pos)).sum())
    r = 1.0 - h / math.log(k)
    return min(max(r, 0.0), 1.0)


def thiel_redundancy(tess):
    """Evenness defect of the cell-volume partition, in [0, 1].

    R = 1 - H / log k where H is the entropy of the volume fractions
    q_j = lambda(C_j) / lambda(M).  Equal cells give 0; one dominant cell
    drives R toward 1.  Invariant under relabeling and under scaling the
    reference density by a constant.
    """
    return thiel_of_volumes(tess.cell_volumes())


def _points_matrix(config, dim):
    arr = np.asarray(config, dtype=float)
    if dim == 1:
        return arr.reshape(-1, 1)
    return arr.reshape(-1, 2)


def _boundary_distance(pts, L):
    # distance to the chart boundary, all axes
    d = np.minimum(pts, L - pts)
    return d.min(axis=1)


def _axis_distance(u, v, L, periodic):
    """|u - v| along one axis, with cKDTree's arithmetic: the difference,
    wrapped by L when it exceeds L/2 on a periodic axis, then sqrt(d*d).
    Distances thus have the bits cKDTree's ``query`` reports."""
    d = u - v
    if periodic:
        half = 0.5 * L
        d = np.where(d < -half, d + L, np.where(d > half, d - L, d))
    return np.sqrt(d * d)


def _nearest_distances_1d(xs, grid, L, periodic):
    """Nearest-neighbour distances in one dimension from sorted order.

    ``xs`` holds the sorted generators and ``grid`` the sorted test
    points.  A generator's nearest other generator is one of its two
    neighbours in sorted order (wrapping around on the circle), and a
    test point's nearest generator is one of the two that enclose it.
    Returns (generator distances in the order of ``xs``, test point
    distances).
    """
    n = xs.size
    gap = _axis_distance(np.roll(xs, -1), xs, L, periodic)
    if not periodic:
        gap[-1] = np.inf  # the last point has no right neighbour
    d_g = np.minimum(gap, np.roll(gap, 1))
    idx = np.searchsorted(xs, grid)
    if periodic:
        lo, hi = xs[idx - 1], xs[idx % n]
    else:
        lo, hi = xs[np.maximum(idx - 1, 0)], xs[np.minimum(idx, n - 1)]
    d_f = np.minimum(_axis_distance(grid, lo, L, periodic),
                     _axis_distance(grid, hi, L, periodic))
    return d_g, d_f


def _reachable_grid(pts, G, L, r_max):
    """Flat indices ``row * G + col`` of the F-grid points that may lie
    within ``r_max`` of a generator, in increasing order.

    The cells of a G x G grid that hold a generator are marked and the
    mark is dilated by k = ceil(r_max G / L) + 1 cells along each axis,
    wrapped around the chart (on the square a superset of the clamped
    dilation, which does no harm).  A test point of cell (i, j) within
    ``r_max`` of a generator in cell (a, b) has |i - a| and |j - b| at
    most r_max G / L + 1.5, so it is marked.  Every point is marked when
    the box covers the grid or ``r_max`` is not finite.
    """
    if not np.isfinite(r_max):
        return np.arange(G * G)
    k = max(math.ceil(r_max * G / L), 0) + 1
    if 2 * k + 1 >= G:
        return np.arange(G * G)
    from scipy.ndimage import maximum_filter
    cells = np.minimum((pts * (G / L)).astype(np.int64), G - 1)
    mask = np.zeros((G, G), dtype=bool)
    mask[cells[:, 1], cells[:, 0]] = True
    return np.flatnonzero(maximum_filter(mask, size=2 * k + 1, mode="wrap"))


def j_function(config, space, r_grid=None, f_resolution=100_000):
    """Empirical J-function (1 - G) / (1 - F) of a configuration.

    G is the nearest-neighbour distance distribution over the generators
    and F the empty-space function over a stratified grid of about
    ``f_resolution`` test points.  Periodic spaces are exact (no edge
    effects); bounded spaces use minus sampling, so J(r) at radius r only
    uses generators and test points at least r away from the boundary.
    Radii where the estimate is undefined (no interior sample left, or
    F = 1) are omitted.

    In two dimensions the distances come from SciPy's ``cKDTree``, which
    is imported on the first 2D call (with ``scipy.ndimage`` for the
    grid below), so a 1D run never loads SciPy.  The test points form a
    G x G grid, G = round(sqrt(f_resolution)).  F counts only test
    points within the largest radius r_max of ``r_grid``, so the F pass
    queries only the grid points a generator can reach: those at most
    ceil(r_max G / L) + 1 cells from a cell holding a generator along
    each axis, with a ``distance_upper_bound`` just above r_max.
    This keeps the bits of a query of the whole grid: the tree and the
    coordinates of each queried point are the same, so each reported
    distance is too, and a point left out or reported beyond the bound
    is one the whole query puts beyond r_max, which no F(r) counts.
    F(r) then divides the count within r by the number of test points
    in use, G**2 on the torus and m(r)**2 under minus sampling on the
    square, where m(r) counts the grid coordinates at least r from both
    ends of an axis; ``mean`` over the whole grid divides the same two
    integers.  On a collapsed pattern few grid points lie near a
    generator, and the F pass skips nearly all of the grid.

    In one dimension the distances come from sorted order: each
    generator's two neighbours and, found by ``searchsorted``, the two
    generators around each test point, with the tree's distance
    arithmetic, so the rows have the bits the tree would give.

    Returns
    -------
    ndarray, shape (m, 2)
        Rows ``(r, J(r))`` for the retained radii.
    """
    n = len(config)
    if n < 2:
        raise ConfigError("the J-function needs at least two points")
    L = space.size
    periodic = space.periodic
    if space.dim == 1:
        # G and F are fractions of distances, so the generators may be
        # taken in sorted order
        xs = np.sort(np.asarray(config, dtype=float).reshape(-1))
        R = max(int(f_resolution), 2)
        axis = (np.arange(R) + 0.5) * (L / R)
        d_g, d_f = _nearest_distances_1d(xs, axis, L, periodic)
        pts = xs.reshape(-1, 1)
    else:
        # SciPy loads here, on the first 2D call, not on import
        from scipy.spatial import cKDTree
        pts = _points_matrix(config, space.dim)
        tree = cKDTree(pts, boxsize=L if periodic else None)
        # nearest neighbour of each generator (k=1 is the point itself)
        d_g = tree.query(pts, k=2)[0][:, 1]
    if r_grid is None:
        hi = float(np.percentile(d_g, 90.0))
        r_grid = np.linspace(0.0, hi, 21)[1:]
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0:
        return np.zeros((0, 2))
    if space.dim == 2:
        G = max(int(round(math.sqrt(f_resolution))), 2)
        axis = (np.arange(G) + 0.5) * (L / G)
        r_max = float(r_grid.max())
        flat = _reachable_grid(pts, G, L, r_max)
        # the test point of row i, column j is (axis[j], axis[i]), the
        # coordinates a meshgrid of the axis would give it
        q = np.empty((flat.size, 2))
        q[:, 0] = axis[flat % G]
        q[:, 1] = axis[flat // G]
        # the tree compares squared distances: a bound a little above
        # r_max whose square neither underflows nor rounds below that of
        # a distance the tree reports as <= r_max
        bound = max(r_max, 0.0) * (1.0 + 2.0 ** -40) + 1e-100 \
            if np.isfinite(r_max) else np.inf
        d_f = tree.query(q, distance_upper_bound=bound)[0]
        del q
    rows = []
    if not periodic:
        bd_g = _boundary_distance(pts, L)
        # minus sampling keeps m(r) coordinates per axis, so m(r)**dim
        # test points, at radius r
        edge = np.minimum(axis, L - axis)
        bd_f = edge if space.dim == 1 else \
            np.minimum(edge[flat % G], edge[flat // G])
    for r in r_grid:
        if periodic:
            g = float((d_g <= r).mean())
            f = np.count_nonzero(d_f <= r) / axis.size ** space.dim
        else:
            use_g = bd_g >= r
            m = np.count_nonzero(edge >= r)
            if not use_g.any() or m == 0:
                continue
            g = float((d_g[use_g] <= r).mean())
            f = np.count_nonzero((d_f <= r) & (bd_f >= r)) / m ** space.dim
        if f >= 1.0:
            continue
        rows.append((float(r), (1.0 - g) / (1.0 - f)))
    return np.array(rows, dtype=float).reshape(-1, 2)


def quadrat_variance(config, space, grid_n=10):
    """Index of dispersion of quadrat counts (variance over mean).

    The chart is split into ``grid_n**2`` congruent squares (``grid_n``
    subintervals in one dimension) and the population variance of the
    counts is divided by their mean; the uniform expectation is
    1 - 1/quadrats, extreme clustering approaches the point count.
    """
    if int(grid_n) < 2:
        raise ConfigError("quadrat grid needs at least two cells per axis")
    grid_n = int(grid_n)
    n = len(config)
    if n == 0:
        raise ConfigError("quadrat index of an empty configuration")
    L = space.size
    pts = _points_matrix(config, space.dim)
    idx = np.minimum((pts / L * grid_n).astype(np.int64), grid_n - 1)
    if space.dim == 1:
        counts = np.bincount(idx[:, 0], minlength=grid_n)
    else:
        counts = np.bincount(idx[:, 1] * grid_n + idx[:, 0],
                             minlength=grid_n * grid_n)
    mean = counts.mean()
    return float(counts.var() / mean)


def clustering_index(config, space, grid_n=10):
    """Scalar clustering index used by sweeps and collapse detection.

    Two dimensions: the quadrat dispersion index.  One dimension: the
    largest empty spacing normalized by the mean spacing L/n (wrap gap on
    the circle, boundary gaps included on the interval); uniform patterns
    sit near log n, clustered ones near n.
    """
    if space.dim == 2:
        return quadrat_variance(config, space, grid_n)
    xs = np.sort(np.asarray(config, dtype=float).reshape(-1))
    n = xs.size
    if n == 0:
        raise ConfigError("clustering index of an empty configuration")
    L = space.size
    if n == 1:
        return 1.0
    gaps = np.diff(xs)
    if space.periodic:
        wrap = L - xs[-1] + xs[0]
        top = max(float(gaps.max()) if gaps.size else 0.0, float(wrap))
    else:
        top = max(float(gaps.max()) if gaps.size else 0.0,
                  float(xs[0]), float(L - xs[-1]))
    return top * n / L


@dataclass
class PatternSummary:
    """One-configuration statistics bundle.

    ``volume_histogram`` and ``degree_histogram`` are ``(edges, counts)``
    and ``(values, counts)`` pairs whose counts sum to the point count.
    """

    volume_histogram: tuple
    degree_histogram: tuple
    thiel_R: float
    j_function: np.ndarray
    quadrat_variance: float

    def table_lines(self):
        """Deterministic delimited-text rendering, one table per block."""
        lines = ["table,key,value"]
        lines.append(f"scalar,thiel_R,{float(self.thiel_R)!r}")
        lines.append(
            f"scalar,quadrat_variance,{float(self.quadrat_variance)!r}")
        edges, counts = self.volume_histogram
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            lines.append(f"volume_bin,{float(lo)!r}..{float(hi)!r},{int(c)}")
        values, counts = self.degree_histogram
        for v, c in zip(values, counts):
            if c:
                lines.append(f"degree_bin,{int(v)},{int(c)}")
        for r, j in self.j_function:
            lines.append(f"j_function,{float(r)!r},{float(j)!r}")
        return lines


def pattern_summary(tess, r_grid=None, f_resolution=100_000, grid_n=10,
                    volume_bins=16):
    """Compute the standard summary bundle for one tessellated pattern."""
    # degrees first: a neighbour read stores each stale cell's volume too,
    # so no 2D cell of a fresh tessellation is scanned twice
    degs = np.asarray(tess.degrees(), dtype=np.int64)
    vols = np.asarray(tess.cell_volumes(), dtype=float)
    lo, hi = float(vols.min()), float(vols.max())
    edges = np.linspace(lo, hi, volume_bins + 1)
    span = None
    if np.any(edges[:-1] >= edges[1:]):
        # a range too narrow for volume_bins finite bins (two equal cells
        # up to the last bits) gets numpy's widening of a zero-width
        # range by 0.5, or by enough ulps where 0.5 is below them
        w = max(0.5, volume_bins * float(np.spacing(hi)))
        span = (lo - w, hi + w)
    v_counts, v_edges = np.histogram(vols, bins=volume_bins, range=span)
    d_counts = np.bincount(degs)
    d_values = np.arange(d_counts.size)
    return PatternSummary(
        volume_histogram=(v_edges, v_counts),
        degree_histogram=(d_values, d_counts),
        thiel_R=thiel_of_volumes(vols),
        j_function=j_function(tess.points, tess.space, r_grid, f_resolution),
        quadrat_variance=quadrat_variance(tess.points, tess.space, grid_n),
    )


@dataclass
class DriftEstimate:
    """Binned one-step drift of a region count and its power-law fit.

    ``bins`` rows are ``(N_A, mean dN_A, count)`` for every pre-step count
    reaching the minimum bin occupancy.  ``fitted_K`` solves the weighted
    least-squares fit of ``mu(A) - K * N_A**(1-alpha)`` with alpha fixed
    from the run; ``fitted_alpha_check`` re-estimates alpha from the bin
    decay as a consistency check (NaN when not identifiable, e.g. the
    constant-drift case alpha = 1).  ``comparator_K`` is the closed-form
    stationarity value mu(A)**alpha * N**(alpha-1), meaningful for
    alpha <= 1.  ``beta`` reports the measured overlap factor
    N_A * (mean cell volume in A) / lambda(A), never asserted.
    """

    bins: np.ndarray
    fitted_K: float
    fitted_alpha_check: float
    comparator_K: float
    beta: float
    constant_drift: bool
    collapse_step: Optional[int]

    def table_lines(self):
        lines = ["N_A,mean_dN_A,count"]
        for na, d, c in self.bins:
            lines.append(f"{int(na)},{float(d)!r},{int(c)}")
        return lines


def _collapse_step(trajectory, threshold):
    """First snapshot step whose clustering index crosses the threshold."""
    space = trajectory.params.space
    for snap in trajectory.snapshots:
        if len(snap.points) >= 2 and \
                clustering_index(snap.points, space) > threshold:
            return snap.step
    return None


def estimate_drift(trajectory, region, min_bin_count=50,
                   collapse_threshold="auto"):
    """Estimate E(dN_A | N_A) from a trajectory and fit its decay.

    Every event contributes one increment dN_A in {-1, 0, +1} binned by
    the pre-step count N_A.  For alpha > 1 the fit uses only events before
    the collapse step (first snapshot whose clustering index exceeds
    ``collapse_threshold``, resolved per space dimension when left at
    ``"auto"``; pass None to disable); the post-collapse regime does not
    follow the power-law form.

    Raises
    ------
    InsufficientData
        If no N_A > 0 value accumulates ``min_bin_count`` events; after a
        collapse cut the message names the collapse step and the number
        of events kept.
    ConfigError
        If the trajectory does not come from a volume-power selection, or
        the region fills the whole sampling measure.
    """
    params = trajectory.params
    sel = params.selection
    if sel.kind != "volume_power":
        raise ConfigError("drift fitting needs a volume-power selection")
    alpha = float(sel.alpha)
    mu_a = float(region.mu_measure)
    if not (mu_a < 1.0):
        raise ConfigError("drift model needs a region with mu(A) < 1")
    if params.mode != "replacement":
        mu_a = 0.0  # pure thinning never inserts into A
    if trajectory.n_events == 0:
        raise InsufficientData("trajectory has no events")

    init_pts = trajectory.snapshots[0].points
    n_a0 = count_in_region(init_pts, region)
    out = region.contains_array(trajectory.removed).astype(np.int64)
    if trajectory.inserted is None:
        dn = -out
    else:
        dn = region.contains_array(trajectory.inserted).astype(np.int64) - out
    pre = n_a0 + np.concatenate(([0], np.cumsum(dn)[:-1]))

    if collapse_threshold == "auto":
        collapse_threshold = collapse_threshold_default(params.space,
                                                        params.N)
    collapse = None
    if alpha > 1.0 and collapse_threshold is not None:
        collapse = _collapse_step(trajectory, collapse_threshold)
        if collapse is not None:
            keep = trajectory.steps <= collapse
            dn = dn[keep]
            pre = pre[keep]
            if dn.size == 0:
                raise InsufficientData("no events before collapse")

    top = int(pre.max())
    counts = np.bincount(pre, minlength=top + 1)
    sums = np.bincount(pre, weights=dn.astype(float), minlength=top + 1)
    ok = counts >= int(min_bin_count)
    if not ok[1:].any():
        # the N_A = 0 bin alone carries no information on K
        which = "N_A > 0" if ok[0] else "N_A"
        cut = "" if collapse is None else \
            f" ({dn.size} events kept up to the collapse at step {collapse})"
        raise InsufficientData(
            f"no {which} bin reaches {min_bin_count} events{cut}")
    na = np.nonzero(ok)[0].astype(float)
    means = sums[ok] / counts[ok]
    w = counts[ok].astype(float)
    bins = np.column_stack([na, means, w])

    # weighted LS for K with the exponent fixed by the run's alpha
    expo = 1.0 - alpha
    if expo == 0.0:
        z = np.ones_like(na)
    else:
        z = np.full_like(na, 0.0 if expo > 0.0 else np.inf)
        posna = na > 0.0
        z[posna] = na[posna] ** expo
    usable = np.isfinite(z)
    z, mz, wz = z[usable], means[usable], w[usable]
    constant = alpha == 1.0
    denom = float((wz * z * z).sum())
    fitted_k = float((wz * z * (mu_a - mz)).sum() / denom) if denom > 0.0 \
        else float("nan")

    # exponent cross-check: log(mu(A) - drift) regressed on log N_A
    y = mu_a - means
    good = (na > 0.0) & (y > 0.0)
    if constant or np.unique(na[good]).size < 2:
        alpha_check = float("nan")
    else:
        lx = np.log(na[good])
        ly = np.log(y[good])
        ww = w[good]
        xm = (ww * lx).sum() / ww.sum()
        ym = (ww * ly).sum() / ww.sum()
        sxx = (ww * (lx - xm) ** 2).sum()
        slope = float((ww * (lx - xm) * (ly - ym)).sum() / sxx) \
            if sxx > 0.0 else float("nan")
        alpha_check = 1.0 - slope

    comparator = mu_a ** alpha * params.N ** (alpha - 1.0) if mu_a > 0.0 \
        else float("nan")

    lam_a = region.lambda_measure
    betas = []
    for snap in trajectory.snapshots:
        if collapse is not None and snap.step > collapse:
            break
        mask = region.contains_array(np.asarray(snap.points, dtype=float))
        k = int(mask.sum())
        if k >= 1:
            betas.append(k * float(np.asarray(snap.volumes)[mask].mean())
                         / lam_a)
    beta = float(np.mean(betas)) if betas else float("nan")

    return DriftEstimate(bins=bins, fitted_K=fitted_k,
                         fitted_alpha_check=alpha_check,
                         comparator_K=comparator, beta=beta,
                         constant_drift=constant, collapse_step=collapse)
