"""Pattern statistics, test regions and drift estimation."""

import numpy as np
import pytest
import scipy.spatial

from helpers import (ckdtree_nearest_distances, j_function_reference,
                     random_points)
from vorsim.errors import ConfigError, InsufficientData
from vorsim.process import ProcessParams, SelectionSpec, run
from vorsim.space import Space
from vorsim.statistics import (TestRegion, clustering_index,
                               collapse_threshold_default, count_in_region,
                               estimate_drift, j_function, pattern_summary,
                               quadrat_variance, selection_mass,
                               thiel_of_volumes, thiel_redundancy)
from vorsim.statistics import _nearest_distances_1d
from vorsim.tessellation import Tessellation, build


# -- regions and counting ---------------------------------------------------

def test_region_measures_and_containment(square, circle):
    r = TestRegion(square, (0.0, 0.5, 0.25, 0.75))
    assert r.lambda_measure == pytest.approx(0.25, abs=1e-15)
    assert r.mu_measure == pytest.approx(0.25, abs=1e-15)
    assert r.contains((0.5, 0.75))          # closed bounds
    assert not r.contains((0.51, 0.5))
    got = r.contains_array(np.array([[0.1, 0.3], [0.9, 0.3]]))
    assert list(got) == [True, False]

    r1 = TestRegion(circle, (0.2, 0.7))
    assert r1.mu_measure == pytest.approx(0.5, abs=1e-15)
    assert r1.contains(0.2) and r1.contains(0.7) and not r1.contains(0.71)


def test_region_rejects_bad_bounds(square, interval):
    for bounds in ((-0.1, 0.5, 0.0, 1.0), (0.0, 1.2, 0.0, 1.0),
                   (0.5, 0.5, 0.0, 1.0)):
        with pytest.raises(ConfigError):
            TestRegion(square, bounds)
    with pytest.raises(ConfigError):
        TestRegion(interval, (0.8, 0.2))


def test_count_in_region(interval):
    r = TestRegion(interval, (0.25, 0.75))
    assert count_in_region([0.1, 0.25, 0.5, 0.75, 0.9], r) == 3


def test_selection_mass_is_additive(torus):
    rng = np.random.default_rng(41)
    t = build(random_points(rng, torus, 30), torus)
    sel = SelectionSpec("volume_power", alpha=1.3)
    left = TestRegion(torus, (0.0, 0.5, 0.0, 1.0))
    right = TestRegion(torus, (0.5, 1.0, 0.0, 1.0))
    total = selection_mass(t, sel)
    split = selection_mass(t, sel, left) + selection_mass(t, sel, right)
    assert split == pytest.approx(total, rel=1e-9)


def test_selection_mass_matches_removal_frequency(circle):
    # the mass of a region under the selection rule is the probability
    # that the removed point falls inside it
    from vorsim.process import step
    sel = SelectionSpec("volume_power", alpha=1.0)
    pts = [0.05, 0.3, 0.45, 0.8]
    region = TestRegion(circle, (0.2, 0.6))
    t = build(pts, circle)
    want = selection_mass(t, sel, region) / selection_mass(t, sel)
    rng = np.random.default_rng(42)
    trials, hits = 20_000, 0
    for _ in range(trials):
        tt = build(pts, circle)
        ev = step(tt, sel, "thinning", rng)
        hits += region.contains(ev.removed)
    freq = hits / trials
    sigma = np.sqrt(want * (1.0 - want) / trials)
    assert abs(freq - want) < 4.0 * sigma


# -- inequality of the volume distribution ----------------------------------

def test_thiel_zero_for_equal_volumes():
    assert thiel_of_volumes([0.25] * 4) == pytest.approx(0.0, abs=1e-12)


def test_thiel_approaches_one_for_concentration(interval):
    t = build([0.999, 0.9995, 1.0], interval)
    assert thiel_redundancy(t) > 0.99


def test_thiel_invariances():
    rng = np.random.default_rng(43)
    v = rng.random(20) + 0.05
    base = thiel_of_volumes(v)
    assert thiel_of_volumes(v[::-1]) == pytest.approx(base, abs=1e-12)
    assert thiel_of_volumes(7.0 * v) == pytest.approx(base, abs=1e-12)
    assert 0.0 <= base <= 1.0


def test_thiel_rejects_degenerate_input():
    with pytest.raises(ConfigError):
        thiel_of_volumes([1.0])
    with pytest.raises(ConfigError):
        thiel_of_volumes([0.0, 0.0])


# -- summary statistics ------------------------------------------------------

def test_j_function_near_one_for_iid(torus):
    rng = np.random.default_rng(44)
    pts = random_points(rng, torus, 400)
    jf = j_function(pts, torus, f_resolution=90_000)
    assert jf.shape[1] == 2
    small = jf[jf[:, 0] <= np.quantile(jf[:, 0], 0.5)]
    assert np.all(small[:, 1] > 0.75)
    assert np.all(small[:, 1] < 1.25)


def test_j_function_flags_clustering_and_regularity(torus):
    rng = np.random.default_rng(45)
    centers = [(0.3, 0.3), (0.7, 0.6)]
    cluster = [((cx + 0.01 * rng.standard_normal()) % 1.0,
                (cy + 0.01 * rng.standard_normal()) % 1.0)
               for cx, cy in centers for _ in range(60)]
    jc = j_function(cluster, torus, f_resolution=90_000)
    assert np.min(jc[:, 1]) < 0.5     # clustered: J below 1

    k = np.arange(10) / 10.0 + 0.05
    grid = [(float(x), float(y)) for x in k for y in k]
    jg = j_function(grid, torus, f_resolution=90_000)
    assert np.max(jg[:, 1]) > 1.5     # regular: J above 1


def test_j_function_translation_invariant_on_torus(torus):
    rng = np.random.default_rng(46)
    pts = np.array(random_points(rng, torus, 120))
    r_grid = np.linspace(0.01, 0.06, 6)
    a = j_function([tuple(p) for p in pts], torus, r_grid=r_grid,
                   f_resolution=62_500)
    shifted = (pts + np.array([0.37, 0.81])) % 1.0
    b = j_function([tuple(p) for p in shifted], torus, r_grid=r_grid,
                   f_resolution=62_500)
    assert a[:, 0] == pytest.approx(b[:, 0], abs=0.0)
    # G is exactly translation invariant; F is estimated on a fixed
    # stratified grid, so J moves by at most the grid discretization
    assert a[:, 1] == pytest.approx(b[:, 1], rel=1e-2)


def _configs_1d(L, R):
    """1D configurations that stress sorted-order nearest neighbours:
    two points, a point at 0, points on F-grid positions, clusters (one
    across the wrap point) and a uniform sample."""
    rng = np.random.default_rng(47)
    on_grid = (np.array([3, 4, 10, R // 2, R - 1]) + 0.5) * (L / R)
    cluster = 0.3 * L + 0.01 * L * rng.random(60)
    wrap = np.concatenate([0.004 * L * rng.random(20),
                           L - 0.004 * L * rng.random(20)])
    return {
        "two": rng.random(2) * L,
        "zero": np.concatenate([[0.0], rng.random(9) * L]),
        "on_grid": on_grid,
        "on_grid_and_zero": np.concatenate([[0.0], on_grid]),
        "cluster": np.concatenate([cluster, [0.9 * L]]),
        "wrap": wrap,
        "uniform": rng.random(500) * L,
    }


@pytest.mark.parametrize("kind", ["circle", "interval"])
@pytest.mark.parametrize("L", [1.0, 2.5])
def test_1d_j_function_equals_the_kd_tree_bit_for_bit(kind, L):
    space = Space(kind, L)
    R = 1000
    grid = (np.arange(R) + 0.5) * (L / R)
    for name, xs in _configs_1d(L, R).items():
        xs = np.sort(xs)
        ref_g, ref_f = ckdtree_nearest_distances(xs, space, R)
        d_g, d_f = _nearest_distances_1d(xs, grid, L, space.periodic)
        assert d_g.tobytes() == ref_g.tobytes(), name
        assert d_f.tobytes() == ref_f.tobytes(), name
        # radii at the distances themselves put every tie on the grid
        ties = np.unique(np.concatenate([ref_g, ref_f[::7]]))
        for r_grid in (None, ties):
            config = list(np.random.default_rng(1).permutation(xs))
            got = j_function(config, space, r_grid, R)
            want = j_function_reference(config, space, r_grid, R)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def _configs_2d(L, G):
    """2D configurations for the windowed F pass: a uniform sample, one
    cluster of radius 0.05 L, a cluster across the wrap corner (four
    corner clusters on the square), points on F-grid positions and two
    points."""
    rng = np.random.default_rng(49)
    axis = (np.arange(G) + 0.5) * (L / G)
    on_grid = np.unique(axis[rng.choice(G, (8, 2))], axis=0)
    return {
        "uniform": rng.random((300, 2)) * L,
        "cluster": 0.5 * L + 0.05 * L * (2.0 * rng.random((256, 2)) - 1.0),
        "corner": (0.05 * L * (2.0 * rng.random((256, 2)) - 1.0)) % L,
        "on_grid": on_grid,
        "two": rng.random((2, 2)) * L,
    }


@pytest.mark.parametrize("kind", ["torus", "square"])
@pytest.mark.parametrize("f_resolution", [4, 1000, 40_000])
def test_2d_j_function_equals_the_whole_grid_query_bit_for_bit(
        kind, f_resolution):
    L = 1.0
    space = Space(kind, L)
    G = max(int(round(np.sqrt(f_resolution))), 2)
    for name, pts in _configs_2d(L, G).items():
        config = [tuple(p) for p in pts]
        ref_g, ref_f = ckdtree_nearest_distances(config, space, f_resolution)
        # radii at the distances themselves put ties on the grid; keep
        # them below the default r_max, so the window stays narrow
        near = np.concatenate([ref_g, ref_f[::101]])
        ties = np.unique(near[near <= np.percentile(ref_g, 90.0)])
        # radii from L/2 on mark the whole grid; at r_max = 0 only the
        # points on grid positions count
        for r_grid in (None, [], ties, [0.01 * L, 0.5 * L, 0.75 * L],
                       [0.0]):
            got = j_function(config, space, r_grid, f_resolution)
            want = j_function_reference(config, space, r_grid, f_resolution)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def test_collapsed_j_function_queries_few_grid_points(torus, monkeypatch):
    rows = []

    class CountingTree(scipy.spatial.cKDTree):
        def query(self, x, *args, **kwargs):
            rows.append(len(x))
            return super().query(x, *args, **kwargs)

    # j_function imports the tree when it is called, so patch it at the
    # source
    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    rng = np.random.default_rng(50)
    pts = 0.5 + 0.05 * (2.0 * rng.random((256, 2)) - 1.0)
    j_function([tuple(p) for p in pts], torus)
    # the generators' own query, then the F pass over a 316 x 316 grid
    assert rows[0] == 256
    assert len(rows) == 2 and rows[1] < 0.05 * 316 ** 2


def test_quadrat_variance_frozen_extreme(square):
    # all mass in one quadrat: index N (q^2 - 1) / q^2
    pts = [(0.01 + 0.001 * k, 0.01) for k in range(50)]
    got = quadrat_variance(pts, square, grid_n=5)
    assert got == pytest.approx(50.0 * 24.0 / 25.0, rel=1e-12)


def test_quadrat_variance_zero_for_one_point_per_cell(square):
    k = (np.arange(4) + 0.5) / 4.0
    pts = [(float(x), float(y)) for x in k for y in k]
    assert quadrat_variance(pts, square, grid_n=4) == 0.0


def test_quadrat_variance_near_one_for_iid(torus):
    rng = np.random.default_rng(47)
    vals = [quadrat_variance(random_points(rng, torus, 500), torus, 10)
            for _ in range(20)]
    assert abs(float(np.mean(vals)) - 1.0) < 0.1


def test_clustering_index_1d_gap_statistic(circle, interval):
    evenly = [k / 8.0 for k in range(8)]
    assert clustering_index(evenly, circle) == pytest.approx(1.0, abs=1e-12)
    bunched = [0.5 + k * 1e-4 for k in range(8)]
    assert clustering_index(bunched, circle) > 6.0
    assert clustering_index([0.4], interval) == 1.0


def test_collapse_threshold_defaults(square, circle):
    assert collapse_threshold_default(square, 200) == 8.0
    assert collapse_threshold_default(circle, 16) == 12.0
    assert collapse_threshold_default(circle, 128) == 32.0


@pytest.mark.parametrize("kind", ["torus", "square"])
def test_pattern_summary_scans_each_2d_cell_once(kind, monkeypatch):
    space = Space(kind, 1.0)
    t = build(random_points(np.random.default_rng(49), space, 80), space)
    calls = []
    cell = Tessellation._cell_2d

    def counted(self, v, want_nbrs=True):
        calls.append(v)
        return cell(self, v, want_nbrs)

    monkeypatch.setattr(Tessellation, "_cell_2d", counted)
    pattern_summary(t, f_resolution=20_000)
    assert sorted(calls) == list(range(80))


def test_pattern_summary_table_is_well_formed(torus):
    rng = np.random.default_rng(48)
    t = build(random_points(rng, torus, 60), torus)
    summary = pattern_summary(t, f_resolution=40_000)
    lines = summary.table_lines()
    assert lines[0] == "table,key,value"
    assert all(len(line.split(",")) == 3 for line in lines)
    vol_rows = [l for l in lines if l.startswith("volume_bin,")]
    counts = sum(float(l.split(",")[2]) for l in vol_rows)
    assert counts == 60.0
    assert 0.0 <= summary.thiel_R <= 1.0


# -- drift of the region occupancy ------------------------------------------

def _drift_run(alpha, N, T, seed, region_side=0.45):
    sq = Space("square", 1.0)
    region = TestRegion(sq, (0.0, region_side, 0.0, region_side))
    params = ProcessParams(N=N, T=T, mode="replacement",
                           selection=SelectionSpec("volume_power",
                                                   alpha=alpha),
                           space=sq, init="iid_mu", seed=seed,
                           snapshot_every=512)
    return run(params), region


def test_drift_estimate_subcritical_sign_and_scale():
    tr, region = _drift_run(alpha=0.5, N=128, T=40_000, seed=51)
    est = estimate_drift(tr, region, min_bin_count=40)
    assert est.collapse_step is None
    assert est.fitted_K > 0.0
    # equilibrium occupancy where the fitted drift vanishes should sit
    # inside the observed occupancy range
    root = (region.mu_measure / est.fitted_K) ** (1.0 / 0.5)
    na = est.bins[:, 0]
    assert na.min() <= root <= na.max()
    assert np.isfinite(est.comparator_K) and est.comparator_K > 0.0
    assert est.fitted_K / est.comparator_K == pytest.approx(1.0, abs=0.8)


def test_drift_estimate_constant_for_alpha_one():
    tr, region = _drift_run(alpha=1.0, N=96, T=20_000, seed=52)
    est = estimate_drift(tr, region, min_bin_count=40)
    assert est.constant_drift is not None
    assert np.isnan(est.fitted_alpha_check)
    # selection mass of a region equals its volume share at alpha one, so
    # the drift is mu(A) - lambda-share and the fit reduces to a constant
    assert est.comparator_K == pytest.approx(region.mu_measure, abs=1e-12)


def test_drift_estimate_supercritical_truncates_and_grows():
    ks = []
    for seed in (53, 54, 55):
        tr, region = _drift_run(alpha=1.5, N=128, T=6_000, seed=seed)
        est = estimate_drift(tr, region, min_bin_count=30)
        assert est.collapse_step is not None
        ks.append(est.fitted_K)
    assert sum(k > 0.0 for k in ks) >= 2


def test_drift_estimate_requires_power_selection_and_proper_region(circle,
                                                                   interval):
    params = ProcessParams(N=16, T=200, mode="replacement",
                           selection=SelectionSpec("neighbor_table",
                                                   values=[1.0] * 12),
                           space=circle, init="iid_mu", seed=5,
                           snapshot_every=64)
    tr = run(params)
    with pytest.raises(ConfigError):
        estimate_drift(tr, TestRegion(circle, (0.0, 0.5)))

    params2 = ProcessParams(N=16, T=200, mode="replacement",
                            selection=SelectionSpec("volume_power",
                                                    alpha=0.5),
                            space=interval, init="iid_mu", seed=5,
                            snapshot_every=64)
    tr2 = run(params2)
    whole = TestRegion(interval, (0.0, 1.0))
    with pytest.raises(ConfigError):
        estimate_drift(tr2, whole)


def test_drift_estimate_needs_enough_data(circle):
    params = ProcessParams(N=8, T=60, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=0.5),
                           space=circle, init="iid_mu", seed=6,
                           snapshot_every=16)
    tr = run(params)
    region = TestRegion(circle, (0.0, 0.3))
    with pytest.raises(InsufficientData):
        estimate_drift(tr, region, min_bin_count=10_000)


def test_drift_estimate_needs_a_bin_with_points_in_the_region():
    interval = Space("interval", 1.0, density=[1.0, 3.0, 0.5, 2.0])
    params = ProcessParams(N=500, T=499, mode="thinning",
                           selection=SelectionSpec("volume_power", alpha=1.5),
                           space=interval, init="iid_mu", seed=4,
                           snapshot_every=1024)
    tr = run(params)
    region = TestRegion(interval, (0.0, 0.5))
    with pytest.raises(InsufficientData,
                       match="no N_A > 0 bin reaches 50 events"):
        estimate_drift(tr, region)
    # with smaller bins the occupied counts are fitted as before
    assert np.isfinite(estimate_drift(tr, region, min_bin_count=5).fitted_K)


def test_drift_estimate_thinning_has_no_insertion_mass(circle):
    params = ProcessParams(N=256, T=200, mode="thinning",
                           selection=SelectionSpec("volume_power", alpha=0.5),
                           space=circle, init="iid_mu", seed=7,
                           snapshot_every=32)
    tr = run(params)
    # a single thinning pass visits each occupancy level only briefly
    est = estimate_drift(tr, TestRegion(circle, (0.0, 0.5)),
                         min_bin_count=1)
    # pure thinning only ever loses points from the region
    assert np.all(est.bins[:, 1] <= 0.0)
    assert np.isnan(est.comparator_K)


def test_drift_message_names_the_collapse_cut(torus):
    # a cluster is collapsed from snapshot 0, so only the step-0 event stays
    params = ProcessParams(N=64, T=12, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=3.0),
                           space=torus,
                           init={"kind": "single_cluster", "radius": 0.05},
                           seed=0, snapshot_every=1024)
    tr = run(params)
    with pytest.raises(InsufficientData) as err:
        estimate_drift(tr, TestRegion(torus, (0.0, 0.5, 0.0, 0.5)))
    msg = str(err.value)
    assert "no N_A bin reaches 50 events" in msg
    assert "1 events kept up to the collapse at step 0" in msg
