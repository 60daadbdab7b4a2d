"""The chain against laws known exactly, at fixed seeds.

With alpha = 0 the selection ignores the cells, so once every initial
point has been replaced the configuration is exactly iid mu, conditioned
on distinct points.  On the circle the N spacings are then
Dirichlet(1, ..., 1), and a cell, half the sum of two adjacent spacings,
has twice its length distributed as Beta(2, N - 2).
"""

import numpy as np
from scipy.stats import kstest

from vorsim.process import ProcessParams, SelectionSpec, run
from vorsim.space import Space


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
    # one cell per snapshot; 200 steps apart, each index is replaced
    # again with probability 1 - (31/32)**200 > 0.998
    sample = [2.0 * snap.volumes[0] for snap in tr.snapshots
              if snap.step > t]
    assert len(sample) == 200
    # seeds 0-11 give p from 0.24 to 0.88
    assert kstest(sample, "beta", args=(2, N - 2)).pvalue > 1e-3
