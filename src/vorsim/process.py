"""Thinning and thinning-replacement chains driven by cell statistics.

Each step selects a point with probability proportional to a positive
selection function S of its cell: S of the cell volume for v-processes, S
of the neighbour count for n-processes.  The selected point is removed
and, in replacement mode, a fresh draw from the sampling measure mu takes
its place; in thinning mode the configuration simply shrinks.

That transition is one kernel, ``_transition``: it removes the selected
point, or moves it to a draw from mu and redraws when the draw coincides
with another point.  ``step()`` and ``run()`` both call it; they differ
only in how they keep the selection weights.

Selection draws go through ``_RowSumSampler``, which keeps the weights in
rows of about sqrt(N) entries with one sum per row, so a draw costs
O(sqrt N) rather than a cumulative sum over all N weights.  ``step()``
builds one from ``SelectionSpec.weights`` on each call; ``run()`` keeps
one up to date, setting only the weights of the cells a step changed and,
when thinning removes a point, shifting the later weights down in place and
re-summing the rows from the removed one on.  The sampler's state is a
function of the weight vector alone, so ``run()`` chooses exactly the
indices that the same seed gives a sequence of ``step()`` calls.

Randomness discipline: the run seed feeds a ``numpy`` ``SeedSequence``
that is split into one stream for the initial configuration and one for
the chain, so runs are reproducible and sweeps can re-seed per cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DuplicatePoints, SelectionOutOfDomain
from .space import Space, _canonical_array
from .tessellation import Tessellation

_VOLUME_FLOOR = 1e-300   # guards pow underflow for extreme alpha
_MAX_REDRAWS = 64

INIT_KINDS = ("iid_mu", "grid_jittered", "single_cluster")
MODES = ("replacement", "thinning")


class SelectionSpec:
    """A positive selection function over cells.

    Parameters
    ----------
    kind : str
        ``volume_power``: S(v) = v**alpha of the cell volume.
        ``volume_table``: piecewise-constant positive values over volume
        intervals ``[breakpoints[i], breakpoints[i+1])``; volumes outside
        the table's range are a domain error.
        ``neighbor_table``: positive values indexed by neighbour count
        ``1..len(values)``; degrees outside that range are a domain error.
    alpha : float, optional
        Exponent for ``volume_power``.
    breakpoints, values : array_like, optional
        Table description for the table kinds.
    """

    def __init__(self, kind, alpha=None, breakpoints=None, values=None):
        if kind not in ("volume_power", "volume_table", "neighbor_table"):
            raise ConfigError(f"unknown selection kind {kind!r}")
        self.kind = kind
        self.alpha = None
        self.breakpoints = None
        self.values = None
        if kind == "volume_power":
            if alpha is None or not math.isfinite(float(alpha)):
                raise ConfigError("volume_power needs a finite alpha")
            self.alpha = float(alpha)
        elif kind == "volume_table":
            if breakpoints is None or values is None:
                raise ConfigError("volume_table needs breakpoints and values")
            bp = np.asarray(breakpoints, dtype=float)
            va = np.asarray(values, dtype=float)
            if bp.ndim != 1 or len(bp) < 2 or np.any(np.diff(bp) <= 0):
                raise ConfigError("volume_table breakpoints must be strictly "
                                  "increasing with at least two entries")
            if len(va) != len(bp) - 1:
                raise ConfigError("volume_table needs one value per interval")
            if not np.all(np.isfinite(va)) or np.any(va <= 0):
                raise ConfigError("volume_table values must be positive")
            self.breakpoints = bp
            self.values = va
        else:
            if values is None:
                raise ConfigError("neighbor_table needs values")
            va = np.asarray(values, dtype=float)
            if va.ndim != 1 or len(va) == 0:
                raise ConfigError("neighbor_table needs a non-empty value list")
            if not np.all(np.isfinite(va)) or np.any(va <= 0):
                raise ConfigError("neighbor_table values must be positive")
            self.values = va

    @property
    def uses_volumes(self):
        return self.kind != "neighbor_table"

    def evaluate(self, stats):
        """Selection weights for a vector of cell volumes or degrees."""
        if self.kind == "volume_power":
            v = np.maximum(np.asarray(stats, dtype=float), _VOLUME_FLOOR)
            if self.alpha == 0.0:
                return np.ones_like(v)
            return v ** self.alpha
        if self.kind == "volume_table":
            v = np.asarray(stats, dtype=float)
            idx = np.searchsorted(self.breakpoints, v, side="right") - 1
            bad = (idx < 0) | (idx >= len(self.values))
            if np.any(bad):
                j = int(np.argmax(bad))
                raise SelectionOutOfDomain(
                    f"cell volume {float(v[j])!r} outside the table range "
                    f"[{float(self.breakpoints[0])!r}, "
                    f"{float(self.breakpoints[-1])!r})")
            return self.values[idx]
        d = np.asarray(stats, dtype=np.int64)
        if d.size and (int(d.min()) < 1 or int(d.max()) > len(self.values)):
            bad = (d < 1) | (d > len(self.values))
            j = int(np.argmax(bad))
            raise SelectionOutOfDomain(
                f"neighbour count {int(d[j])} outside the table range "
                f"1..{len(self.values)}")
        return self.values[d - 1]

    def weights(self, tess):
        """Selection weights of every cell of a tessellation."""
        if self.uses_volumes:
            return self.evaluate(tess.cell_volumes())
        return self.evaluate(tess.degrees())


def selection_probabilities(tess, sel):
    """Probability of each point being selected for removal."""
    w = sel.weights(tess)
    tot = float(w.sum())
    if not (tot > 0.0) or not math.isfinite(tot):
        raise SelectionOutOfDomain(
            "selection weights sum to a non-positive or non-finite value")
    return w / tot


def minorization_bound(sel, N):
    """Uniform lower bound min S / (N max S) on n-process selection
    probabilities, valid for every state with N points."""
    if sel.kind != "neighbor_table":
        raise ConfigError("minorization bound applies to neighbor tables")
    vals = sel.values
    return float(vals.min()) / (int(N) * float(vals.max()))


@dataclass(frozen=True)
class InitSpec:
    """How to draw the initial configuration."""
    kind: str
    center: object = None
    radius: object = None

    @staticmethod
    def parse(spec):
        if isinstance(spec, InitSpec):
            init = spec
        elif isinstance(spec, str):
            init = InitSpec(spec)
        elif isinstance(spec, dict):
            extra = set(spec) - {"kind", "center", "radius"}
            if extra:
                raise ConfigError(f"unknown init key {sorted(extra)[0]!r}")
            init = InitSpec(spec.get("kind"), spec.get("center"),
                            spec.get("radius"))
        else:
            raise ConfigError(f"cannot parse init spec {spec!r}")
        if init.kind not in INIT_KINDS:
            raise ConfigError(f"unknown init kind {init.kind!r}")
        return init


@dataclass
class ProcessParams:
    """Everything a chain run depends on."""
    N: int
    T: int
    mode: str
    selection: SelectionSpec
    space: object
    init: object = "iid_mu"
    seed: int = 0
    snapshot_every: int = 1024

    def __post_init__(self):
        self.N = int(self.N)
        self.T = int(self.T)
        self.seed = int(self.seed)
        self.snapshot_every = int(self.snapshot_every)
        if self.N < 2:
            raise ConfigError("N must be at least 2")
        if self.T < 1:
            raise ConfigError("T must be at least 1")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be at least 1")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not isinstance(self.selection, SelectionSpec):
            raise ConfigError("selection must be a SelectionSpec")
        self.init = InitSpec.parse(self.init)


@dataclass(frozen=True)
class StepEvent:
    step: int
    chosen_j: int
    removed: object
    inserted: object = None


@dataclass(frozen=True)
class Snapshot:
    step: int
    points: np.ndarray
    volumes: np.ndarray
    degrees: np.ndarray


@dataclass
class Trajectory:
    params: ProcessParams
    steps: np.ndarray
    chosen: np.ndarray
    removed: np.ndarray
    inserted: object          # ndarray in replacement mode, None in thinning
    snapshots: list
    final_points: np.ndarray
    stopped_at: object = None  # step of an early stop, if any

    @property
    def n_events(self):
        return len(self.steps)


class _RowSumSampler:
    """Inverse-CDF draws over nonnegative weights kept in rows with sums.

    The weights sit in rows of B = 2**ceil(bit_length(n) / 2) entries (at
    least 8), padded with zeros, and each row keeps its sum.  A draw takes
    one ``rng.random()``, finds the row with a cumulative sum over the row
    sums and the entry with a cumulative sum inside that row: O(sqrt n)
    instead of O(n).  ``set`` and ``delete`` recompute the sums of the
    touched rows from their entries with the reduction the constructor
    uses, never by adding deltas, so the state is a function of the weight
    vector alone and a maintained sampler draws exactly what a fresh one
    would.
    """

    def __init__(self, w):
        self._load(np.asarray(w, dtype=float))

    @staticmethod
    def _width(n):
        return max(8, 1 << ((n.bit_length() + 1) // 2))

    def _load(self, w):
        n = len(w)
        B = self._width(n)
        self.n = n
        self.B = B
        self.rows = np.zeros((-(-n // B), B))
        self.flat = self.rows.reshape(-1)
        self.flat[:n] = w
        self.sums = self.rows.sum(axis=1)

    @property
    def weights(self):
        return self.flat[:self.n]

    def set(self, idx, values):
        """Replace the weights at indices ``idx``."""
        idx = np.asarray(idx)
        self.flat[idx] = values
        rows = idx // self.B  # a row touched twice gets the same sum twice
        self.sums[rows] = self.rows[rows].sum(axis=1)

    def delete(self, j):
        """Drop entry j; later indices shift down as list deletion does.

        The later entries move down one slot in place and the rows from
        the one that held j on are summed again; only when the shorter
        vector needs another row width or row count is the sampler loaded
        afresh.
        """
        n = self.n - 1
        flat = self.flat
        flat[j:n] = flat[j + 1:n + 1]
        flat[n] = 0.0
        B = self.B
        if self._width(n) != B or -(-n // B) != len(self.sums):
            self._load(flat[:n])
            return
        self.n = n
        r = j // B
        self.sums[r:] = self.rows[r:].sum(axis=1)

    def draw(self, rng):
        # array methods rather than np.cumsum/np.searchsorted: this runs
        # once per step, where their dispatch overhead doubles the cost
        c = self.sums.cumsum()
        tot = float(c[-1])
        if not (tot > 0.0) or not math.isfinite(tot):
            raise SelectionOutOfDomain(
                "selection weights sum to a non-positive or non-finite value")
        u = rng.random() * tot
        r = int(c.searchsorted(u, side="right"))
        if r == len(c):  # u rounds onto a subnormal total
            r = int(np.flatnonzero(self.sums)[-1])
        row = self.rows[r]
        k = int(row.cumsum().searchsorted(u - (c[r - 1] if r else 0.0),
                                          side="right"))
        if k == self.B:  # past the row's own running total by rounding
            k = int(np.flatnonzero(row)[-1])
        return r * self.B + k


def _transition(tess, j, thinning, rng):
    """Remove point j when thinning; otherwise move it to a fresh draw from
    mu, redrawing a draw that coincides with another point.

    Returns the indices whose cells changed.  ``step()`` and ``run()``
    both make their transitions here.
    """
    if thinning:
        return tess.remove_point(j)
    sample = tess.space.sample_mu
    for _ in range(_MAX_REDRAWS):
        z = sample(rng)
        try:
            return tess.replace_point(j, z)
        except DuplicatePoints:
            continue
    raise ConfigError("could not draw a replacement point distinct from "
                      "the configuration")


def step(tess, sel, mode, rng, step_index=0):
    """One transition: select, remove, and (in replacement mode) re-insert.

    Returns the ``StepEvent``; the tessellation is updated in place.
    """
    thinning = mode == "thinning"
    if thinning and tess.n < 2:
        raise ConfigError("thinning needs at least two points")
    j = _RowSumSampler(sel.weights(tess)).draw(rng)
    removed = tess.points[j]
    _transition(tess, j, thinning, rng)
    return StepEvent(step_index, j, removed,
                     None if thinning else tess.points[j])


def initial_configuration(space, N, init, rng):
    """Draw N distinct points according to an init spec."""
    init = InitSpec.parse(init)
    L = space.size
    pts = []
    seen = set()

    def push(p):
        p = space.canonicalize(p)
        if p in seen:
            return False
        seen.add(p)
        pts.append(p)
        return True

    if init.kind == "iid_mu":
        if space.mu_density is None and \
                type(space).sample_mu is Space.sample_mu:
            # a numpy Generator's random(n) yields the doubles of n
            # random() calls, so one batch holds sample_mu's first N draws;
            # a batch with a duplicate goes through push, which keeps first
            # occurrences as the loop below would, and the loop draws on
            shape = N if space.dim == 1 else (N, 2)
            xy = _canonical_array(space, rng.random(shape) * L)
            if len(np.unique(xy, axis=0)) == N:
                return xy.tolist() if space.dim == 1 \
                    else list(zip(*xy.T.tolist()))
            for p in xy.tolist():
                push(p)
        while len(pts) < N:
            push(space.sample_mu(rng))
        return pts

    if init.kind == "grid_jittered":
        jitter = 1e-9 * L
        if space.dim == 1:
            h = L / N
            k = 0
            while len(pts) < N:
                x = (k % N + 0.5) * h + (2.0 * rng.random() - 1.0) * jitter
                push(x if space.periodic else min(max(x, 0.0), L))
                k += 1
        else:
            g = int(math.ceil(math.sqrt(N)))
            h = L / g
            k = 0
            while len(pts) < N:
                r, c = divmod(k % (g * g), g)
                x = (c + 0.5) * h + (2.0 * rng.random() - 1.0) * jitter
                y = (r + 0.5) * h + (2.0 * rng.random() - 1.0) * jitter
                if not space.periodic:
                    x = min(max(x, 0.0), L)
                    y = min(max(y, 0.0), L)
                push((x, y))
                k += 1
        return pts

    # single cluster
    radius = float(init.radius) if init.radius is not None else 0.05 * L
    if radius <= 0:
        raise ConfigError("cluster radius must be positive")
    if space.dim == 1:
        center = float(init.center) if init.center is not None else 0.5 * L
        while len(pts) < N:
            x = center + (2.0 * rng.random() - 1.0) * radius
            if space.periodic:
                push(x)
            elif 0.0 <= x <= L:
                push(x)
    else:
        if init.center is not None:
            center = (float(init.center[0]), float(init.center[1]))
        else:
            center = (0.5 * L, 0.5 * L)
        while len(pts) < N:
            dx = (2.0 * rng.random() - 1.0) * radius
            dy = (2.0 * rng.random() - 1.0) * radius
            if dx * dx + dy * dy > radius * radius:
                continue
            x, y = center[0] + dx, center[1] + dy
            if space.periodic:
                push((x, y))
            elif 0.0 <= x <= L and 0.0 <= y <= L:
                push((x, y))
    return pts


def run(params, observers=(), stop_when=None):
    """Run a chain for T steps (thinning stops at a single survivor).

    ``observers`` are called as ``observer(t, event, tess)`` after every
    step.  ``stop_when(t, tess)``, if given, is evaluated at snapshot
    steps and ends the run early when it returns true (the snapshot at
    that step is still recorded).  Fully deterministic given the seed.
    """
    root = np.random.SeedSequence(params.seed)
    init_ss, chain_ss = root.spawn(2)
    init_rng = np.random.Generator(np.random.PCG64(init_ss))
    rng = np.random.Generator(np.random.PCG64(chain_ss))

    space = params.space
    pts = initial_configuration(space, params.N, params.init, init_rng)
    tess = Tessellation.build(pts, space)
    sel = params.selection
    mode = params.mode
    dim = space.dim
    T = params.T

    steps = np.zeros(T, dtype=np.int64)
    chosen = np.zeros(T, dtype=np.int64)
    removed = np.zeros((T, dim), dtype=float)
    inserted = np.zeros((T, dim), dtype=float) if mode == "replacement" \
        else None
    snapshots = []

    def snap(t):
        # degrees first: a neighbour read stores each stale cell's volume
        # too, so no 2D cell is scanned twice
        degs = tess.degrees()
        snapshots.append(Snapshot(t, np.asarray(tess.points, dtype=float),
                                  tess.cell_volumes(), degs))

    snap(0)
    stopped_at = None
    # the sampler holds the weights a full reevaluation would produce and
    # its state depends on those weights alone, so run() draws exactly the
    # indices a sequence of step() calls draws; snapshot 0 holds the cells
    first = snapshots[0]
    sampler = _RowSumSampler(sel.evaluate(
        first.volumes if sel.uses_volumes else first.degrees))
    pts = tess.points
    values_at = tess.volumes_at if sel.uses_volumes else tess.degrees_at
    thinning = mode == "thinning"
    every = params.snapshot_every
    n_ev = 0
    for t in range(1, T + 1):
        j = sampler.draw(rng)
        rm = pts[j]
        aff = _transition(tess, j, thinning, rng)
        ins = None if thinning else pts[j]
        # a lone survivor has no neighbours and is never selected again
        done = thinning and tess.n == 1
        if not done:
            if thinning:
                sampler.delete(j)
            if aff:
                sampler.set(aff, sel.evaluate(values_at(aff)))
        steps[n_ev] = t - 1
        chosen[n_ev] = j
        # a 1D point is a float, which fills its (1,)-row
        removed[n_ev] = rm
        if not thinning:
            inserted[n_ev] = ins
        n_ev += 1
        if observers:
            ev = StepEvent(t - 1, j, rm, ins)
            for obs in observers:
                obs(t, ev, tess)
        if t % every == 0 or t == T or done:
            snap(t)
            if stop_when is not None and stop_when(t, tess):
                stopped_at = t
                break
        if done:
            break
    steps = steps[:n_ev]
    chosen = chosen[:n_ev]
    removed = removed[:n_ev]
    if inserted is not None:
        inserted = inserted[:n_ev]
    return Trajectory(params, steps, chosen, removed, inserted, snapshots,
                      np.asarray(tess.points, dtype=float), stopped_at)
