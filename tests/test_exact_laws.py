"""The chain against laws known exactly, at fixed seeds.

With alpha = 0 the selection ignores the cells, so once every initial
point has been replaced the configuration is exactly iid mu, conditioned
on distinct points.  On the circle the N spacings are then
Dirichlet(1, ..., 1), and a cell, half the sum of two adjacent spacings,
has twice its length distributed as Beta(2, N - 2).

Thinning a fixed start of a few points down to one survivor has a law
that a sum over the removal orders gives exactly: each removal picks a
point with probability proportional to S of its cell in the points left.
"""

import numpy as np
import pytest
from scipy.stats import chisquare, kstest

from vorsim.process import ProcessParams, SelectionSpec, run, step
from vorsim.space import Space
from vorsim.tessellation import build


def test_alpha_zero_circle_cells_follow_the_beta_law():
    N, every = 32, 200
    tr = run(ProcessParams(N=N, T=40_000, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=0.0),
                           space=Space("circle", 1.0), seed=0,
                           snapshot_every=every))
    # replacement keeps the index, so every initial point is gone once
    # every index has been chosen
    seen = np.zeros(N, dtype=bool)
    for t, j in zip(tr.steps, tr.chosen):
        seen[j] = True
        if seen.all():
            break
    assert seen.all()
    # 200 steps apart, each index is replaced again with probability
    # 1 - (31/32)**200 > 0.998.  Per snapshot, every other cell in circle
    # order from point 0 on: these 16 cells share no spacing, and each
    # has the law of point 0's cell, as the spacings from a point picked
    # without regard to position are exchangeable.  Counting from the
    # lowest coordinate instead would take the cell across 0, whose
    # spacing is size-biased.
    sample = []
    for snap in tr.snapshots:
        if snap.step > t:
            order = np.argsort(snap.points.reshape(-1))
            k0 = int(np.flatnonzero(order == 0)[0])
            cells = order[(k0 + np.arange(0, N, 2)) % N]
            sample.extend(2.0 * snap.volumes[cells])
    assert len(sample) == 200 * 16
    # seeds 0-11 give p from 0.32 to 0.98; alpha = 0.5 or -0.3 in place
    # of 0 gives p below 3e-4 on seeds 0-2
    assert kstest(sample, "beta", args=(2, N - 2)).pvalue > 1e-3


def _cells_1d(xs, periodic, L=1.0):
    """Cell lengths of 1D points (any order), from their sorted gaps."""
    order = sorted(range(len(xs)), key=xs.__getitem__)
    s = [xs[i] for i in order]
    n = len(s)
    out = [0.0] * n
    for k, i in enumerate(order):
        if periodic:
            out[i] = ((s[k] - s[k - 1]) % L + (s[(k + 1) % n] - s[k]) % L) / 2
        else:
            lo = 0.0 if k == 0 else (s[k - 1] + s[k]) / 2
            hi = L if k == n - 1 else (s[k] + s[k + 1]) / 2
            out[i] = hi - lo
    return out


def _survivor_law(xs, periodic, alpha):
    """Exact law of the survivor's index, over every removal order."""
    law = [0.0] * len(xs)

    def visit(alive, p):
        if len(alive) == 1:
            law[alive[0]] += p
            return
        w = [v ** alpha for v in _cells_1d([xs[i] for i in alive], periodic)]
        tot = sum(w)
        for k, i in enumerate(alive):
            visit(alive[:k] + alive[k + 1:], p * w[k] / tot)

    visit(list(range(len(xs))), 1.0)
    return np.array(law)


@pytest.mark.parametrize("alpha", [-1.0, 3.0])
@pytest.mark.parametrize("kind", ["circle", "interval"])
def test_thinning_survivor_follows_the_exact_law(kind, alpha):
    xs = [0.1, 0.3, 0.35, 0.8]
    space = Space(kind, 1.0)
    sel = SelectionSpec("volume_power", alpha=alpha)
    law = _survivor_law(xs, space.periodic, alpha)
    seeds = 2000
    counts = np.zeros(len(xs))
    for seed in range(seeds):
        t = build(xs, space)
        rng = np.random.default_rng(seed)
        while t.n > 1:
            step(t, sel, "thinning", rng)
        counts[xs.index(t.points[0])] += 1
    expected = seeds * law
    # every survivor is expected often enough for the chi-square law
    assert expected.min() > 25
    # the six blocks of 2000 seeds from 0 to 11999 give p from 0.14 to
    # 0.96; with alpha off by 0.5 the first block gives p below 1e-3
    # in three of the four cases
    assert chisquare(counts, expected).pvalue > 1e-3
