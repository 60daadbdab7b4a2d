"""Empirical ergodicity checks and phase sweeps over the feedback exponent.

Two kinds of experiment: (i) convergence checks that run one chain from
each of two different initial configurations under the same random numbers
and compare the cell-volume distributions they visit, and (ii) sweeps over
the volume exponent alpha that track a scalar clustering index along each
chain, locating the qualitative change of regime around alpha = 1.

All reports are plain data, computed deterministically from the seeds in
the supplied parameters: rerunning with the same configuration produces
bit-identical tables.
"""

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ConfigError
from .process import SelectionSpec, minorization_bound, run
from .statistics import (clustering_index, collapse_threshold_default,
                         thiel_of_volumes)

KS_THRESHOLD = 0.05


def default_burn_in(T):
    """Steps discarded before distribution comparisons (one quarter)."""
    return int(T) // 4


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|, exactly.

    Each pool's empirical CDF is counted at every pooled value with
    ``searchsorted(side="right")``; the largest |c_a n_b - c_b n_a| is
    taken in int64 and divided once by n_a n_b, so the distance is the
    exact fraction, correctly rounded (``ConvergenceReport`` says where
    that equals SciPy's value).  No p-value is computed.
    """
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate((a, b))
    n_a, n_b = a.size, b.size
    c_a = np.searchsorted(a, pooled, side="right")
    c_b = np.searchsorted(b, pooled, side="right")
    d = np.abs(c_a * np.int64(n_b) - c_b * np.int64(n_a)).max()
    # Python integers divide with one correct rounding
    return int(d) / (n_a * n_b)


def _power_of_two_checkpoints(snap_steps, burn_in, T):
    cps = [s for s in snap_steps
           if s > burn_in and s & (s - 1) == 0]
    if T > burn_in and T not in cps:
        cps.append(T)
    return cps


@dataclass
class ConvergenceReport:
    """Two-chain comparison along a run.

    ``ks_series`` holds ``(checkpoint_step, ks_distance)`` pairs, the
    distance being the two-sample Kolmogorov-Smirnov statistic between the
    pooled post-burn-in cell-volume samples of the two chains up to that
    checkpoint.  It is the exact fraction of integer CDF counts, correctly
    rounded: ``scipy.stats.ks_2samp(a, b).statistic`` bit for bit on pools
    of at most 10,000 values, where SciPy's exact mode runs; above that,
    SciPy's asymptotic mode subtracts two rounded CDFs, and its value may
    differ from this one in the last bits.
    """

    ks_series: list
    burn_in: int
    verdict_threshold: float

    @property
    def final_ks(self):
        return self.ks_series[-1][1]

    @property
    def converged(self):
        return self.final_ks < self.verdict_threshold

    def table_lines(self):
        lines = ["checkpoint,ks_distance"]
        for step, ks in self.ks_series:
            lines.append(f"{int(step)},{float(ks)!r}")
        return lines


def two_chain_convergence(params, init_a, init_b, checkpoints=None,
                          burn_in=None, verdict_threshold=KS_THRESHOLD):
    """Compare the volume distributions of two differently started chains.

    Both chains use the seed of ``params`` (so identical initial
    configurations reproduce each other exactly and report zero distance);
    only the initial configuration differs.  At every checkpoint the cell
    volumes of all snapshots after burn-in are pooled per chain and the
    two pools compared by the KS statistic, computed without SciPy from
    integer CDF counts (see ``ConvergenceReport``).

    Parameters
    ----------
    params : ProcessParams
        Common chain parameters; the ``init`` field is overridden.
    init_a, init_b : str, dict or InitSpec
        The two initial-configuration recipes.
    checkpoints : sequence of int, optional
        Steps at which to evaluate the distance; defaults to the
        power-of-two snapshot steps after burn-in, plus the final step.
    burn_in : int, optional
        Defaults to a quarter of the run length.
    """
    if burn_in is None:
        burn_in = default_burn_in(params.T)
    tr_a = run(replace(params, init=init_a))
    tr_b = run(replace(params, init=init_b))
    steps_a = [s.step for s in tr_a.snapshots]
    if checkpoints is None:
        checkpoints = _power_of_two_checkpoints(steps_a, burn_in, params.T)
    else:
        checkpoints = sorted(int(c) for c in checkpoints)
    series = []
    for c in checkpoints:
        pool_a = [s.volumes for s in tr_a.snapshots if burn_in < s.step <= c]
        pool_b = [s.volumes for s in tr_b.snapshots if burn_in < s.step <= c]
        if not pool_a or not pool_b:
            continue
        a = np.concatenate(pool_a)
        b = np.concatenate(pool_b)
        series.append((c, _ks_distance(a, b)))
    if not series:
        raise ConfigError("no checkpoints fall after the burn-in period")
    return ConvergenceReport(ks_series=series, burn_in=burn_in,
                             verdict_threshold=verdict_threshold)


@dataclass
class MinorizationReport:
    """Outcome of the exact uniform-selection lower-bound check."""

    checked_states: int
    bound: float
    min_probability: float
    holds: bool


def minorization_check(degree_samples, sel, N):
    """Verify min_j p_j >= min S / (N max S) on every sampled state.

    The inequality behind the Doeblin-type argument for neighbour-count
    selections is checked in exact rational arithmetic: no tolerance, any
    violation is reported as such.

    Parameters
    ----------
    degree_samples : iterable of int sequences
        Sampled neighbour-count states (each of length <= N).
    sel : SelectionSpec
        A ``neighbor_table`` selection.
    N : int
        The state size entering the bound.
    """
    bound_f = minorization_bound(sel, N)
    table = [Fraction(float(v)) for v in sel.values]
    bound = min(table) / (Fraction(int(N)) * max(table))
    holds = True
    min_p = None
    checked = 0
    for degs in degree_samples:
        ws = [table[int(d) - 1] for d in degs]
        tot = sum(ws)
        p = min(ws) / tot
        if min_p is None or p < min_p:
            min_p = p
        if p < bound:
            holds = False
        checked += 1
    if checked == 0:
        raise ConfigError("no sampled states to check")
    return MinorizationReport(checked_states=checked, bound=bound_f,
                              min_probability=float(min_p), holds=holds)


@dataclass
class PhaseRow:
    """One sweep cell: clustering behaviour of a single exponent.

    ``final_points`` carries the last configuration for snapshot export;
    it does not appear in the tabular rendering.
    """

    alpha: float
    final_index: float
    avg_index: float
    thiel_R: float
    collapse_time: Optional[int]
    final_points: list = None


@dataclass
class PhaseSweepReport:
    """Clustering indices across an alpha grid, ascending in alpha."""

    rows: list
    grid_n: int
    burn_in: int
    collapse_threshold: float

    def table_lines(self):
        lines = ["alpha,final_index,avg_index,thiel_R,collapse_time"]
        for r in self.rows:
            ct = "" if r.collapse_time is None else int(r.collapse_time)
            lines.append(f"{float(r.alpha)!r},{float(r.final_index)!r},"
                         f"{float(r.avg_index)!r},{float(r.thiel_R)!r},{ct}")
        return lines


def phase_sweep(alphas, base_params, grid_n=10, burn_in=None,
                collapse_threshold="auto"):
    """Run one chain per exponent and report clustering indices.

    Every chain shares the parameters (and seed) of ``base_params`` except
    for the exponent of its volume-power selection.  Per chain the report
    carries the clustering index of the final state, its time average over
    post-burn-in snapshots, the Thiel redundancy of the final cell
    volumes, and the first snapshot step at which the index crossed the
    collapse threshold (blank if never).  Duplicate exponents are run
    once, with a warning; rows are sorted by alpha.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ConfigError("the sweep needs at least one exponent")
    uniq = sorted(set(alphas))
    if len(uniq) != len(alphas):
        warnings.warn("duplicate exponents in sweep grid; running each once",
                      stacklevel=2)
    if burn_in is None:
        burn_in = default_burn_in(base_params.T)
    if collapse_threshold == "auto":
        collapse_threshold = collapse_threshold_default(base_params.space,
                                                        base_params.N)
    space = base_params.space
    rows = []
    for a in uniq:
        params = replace(base_params,
                         selection=SelectionSpec("volume_power", alpha=a))
        tr = run(params)
        idx = [(s.step, clustering_index(s.points, space, grid_n))
               for s in tr.snapshots if len(s.points) >= 2]
        if not idx:
            raise ConfigError("run too short to index")
        final_index = idx[-1][1]
        tail = [v for step, v in idx if step > burn_in]
        avg_index = float(np.mean(tail if tail else [final_index]))
        collapse = next((step for step, v in idx if v > collapse_threshold),
                        None)
        rows.append(PhaseRow(alpha=a, final_index=final_index,
                             avg_index=avg_index,
                             thiel_R=thiel_of_volumes(
                                 tr.snapshots[-1].volumes),
                             collapse_time=collapse,
                             final_points=tr.final_points))
    return PhaseSweepReport(rows=rows, grid_n=grid_n, burn_in=burn_in,
                            collapse_threshold=collapse_threshold)
