"""Convergence checks, minorization verification and exponent sweeps."""

from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from vorsim.diagnostics import (KS_THRESHOLD, _ks_distance, default_burn_in,
                                minorization_check, phase_sweep,
                                two_chain_convergence)
from vorsim.errors import ConfigError
from vorsim.process import ProcessParams, SelectionSpec


def _params(space, *, N=24, T=2000, alpha=0.5, seed=0, every=250):
    return ProcessParams(N=N, T=T, mode="replacement",
                         selection=SelectionSpec("volume_power", alpha=alpha),
                         space=space, init="iid_mu", seed=seed,
                         snapshot_every=every)


def test_threshold_and_burn_in_defaults():
    assert KS_THRESHOLD == 0.05
    assert default_burn_in(200_000) == 50_000


def test_identical_chains_have_zero_distance(circle):
    report = two_chain_convergence(_params(circle), "iid_mu", "iid_mu")
    series = np.asarray(report.ks_series)
    assert series.shape[1] == 2
    assert np.all(series[:, 1] == 0.0)
    assert report.final_ks == 0.0
    assert report.converged


def test_distinct_starts_shrink_toward_threshold(torus):
    report = two_chain_convergence(_params(torus, T=4000, every=200),
                                   "grid_jittered", "single_cluster",
                                   checkpoints=[1200, 2000, 4000],
                                   burn_in=1000)
    ks = np.asarray(report.ks_series)[:, 1]
    assert np.all((ks >= 0.0) & (ks <= 1.0))
    # late-window distance is below the early-window distance
    assert ks[-1] < ks[0]
    assert report.final_ks == ks[-1]
    lines = report.table_lines()
    assert lines[0] == "checkpoint,ks_distance"
    assert len(lines) == len(ks) + 1


def test_convergence_report_is_deterministic(circle):
    a = two_chain_convergence(_params(circle, T=1500),
                              "grid_jittered", "single_cluster")
    b = two_chain_convergence(_params(circle, T=1500),
                              "grid_jittered", "single_cluster")
    assert a.table_lines() == b.table_lines()


def _random_pool(rng, n):
    # about half the pools round their values onto a coarse grid, so pools
    # hold ties within and between them
    x = rng.random(n)
    if rng.random() < 0.5:
        k = int(rng.integers(2, 50))
        x = np.round(x * k) / k
    return x


def test_ks_distance_equals_scipy_exact_mode_bit_for_bit():
    from scipy.stats import ks_2samp
    rng = np.random.default_rng(90)
    sizes = [(1, 1), (1, 10_000), (10_000, 10_000), (9_999, 10_000)]
    sizes += [tuple(int(v) for v in np.exp(rng.random(2) * np.log(10_000)))
              for _ in range(400)]
    for n_a, n_b in sizes:
        a, b = _random_pool(rng, n_a), _random_pool(rng, n_b)
        want = float(ks_2samp(a, b).statistic)
        got = _ks_distance(a, b)
        assert type(got) is float
        assert got.hex() == want.hex(), (n_a, n_b)


def test_ks_distance_is_the_correctly_rounded_fraction_above_10000():
    rng = np.random.default_rng(91)
    for n_a, n_b in [(10_001, 10_001), (12_345, 30_001), (1, 25_000),
                     (20_000, 7)]:
        a, b = _random_pool(rng, n_a), _random_pool(rng, n_b)
        sa, sb = sorted(a.tolist()), sorted(b.tolist())
        d = max(abs(bisect_right(sa, x) * n_b - bisect_right(sb, x) * n_a)
                for x in sa + sb)
        want = float(Fraction(d, n_a * n_b))
        assert _ks_distance(a, b).hex() == want.hex(), (n_a, n_b)


def test_checkpoints_must_leave_room_after_burn_in(circle):
    with pytest.raises(ConfigError):
        two_chain_convergence(_params(circle, T=1000), "iid_mu",
                              "single_cluster", checkpoints=[100],
                              burn_in=500)


def test_minorization_holds_exactly_on_random_tables():
    rng = np.random.default_rng(61)
    for _ in range(50):
        m = int(rng.integers(3, 14))
        values = (rng.random(m) * 9.0 + 0.5).round(3)
        sel = SelectionSpec("neighbor_table", values=list(values))
        n = int(rng.integers(3, 40))
        states = rng.integers(1, m + 1, size=(20, n))
        report = minorization_check(states, sel, n)
        assert report.holds
        assert report.checked_states == 20
        assert report.min_probability >= report.bound


def test_minorization_bound_attained_for_constant_tables():
    sel = SelectionSpec("neighbor_table", values=[2.5] * 8)
    states = np.full((5, 4), 3)
    report = minorization_check(states, sel, 4)
    # constant rates make every state uniform, meeting the bound exactly
    assert report.holds
    assert report.min_probability == report.bound == 0.25


def test_minorization_matches_rational_arithmetic():
    values = [3.0, 1.0, 2.0]
    sel = SelectionSpec("neighbor_table", values=values)
    states = np.array([[1, 1, 3, 2], [2, 2, 2, 1]])
    report = minorization_check(states, sel, 4)
    table = [Fraction(v) for v in values]
    bound = min(table) / (4 * max(table))
    worst = min(min(Fraction(values[k - 1]) for k in s)
                / sum(Fraction(values[k - 1]) for k in s) for s in states)
    # the verification is exact; the reported fields are float renderings
    assert report.bound == float(bound)
    assert report.min_probability == float(worst)
    assert report.holds


def test_phase_sweep_orders_rows_and_reports(square):
    base = _params(square, N=48, T=1200, every=200)
    report = phase_sweep([1.2, -2.0, 0.5], base)
    alphas = [row.alpha for row in report.rows]
    assert alphas == [-2.0, 0.5, 1.2]
    for row in report.rows:
        assert row.final_index >= 0.0
        assert 0.0 <= row.thiel_R <= 1.0
    # stronger volume preference clusters harder on average
    assert report.rows[0].avg_index < report.rows[2].avg_index
    lines = report.table_lines()
    assert lines[0] == "alpha,final_index,avg_index,thiel_R,collapse_time"
    assert len(lines) == 4


def test_phase_sweep_warns_on_duplicate_exponents(circle):
    base = _params(circle, N=16, T=300, every=100)
    with pytest.warns(UserWarning):
        report = phase_sweep([0.5, 0.5], base)
    assert len(report.rows) == 1


def test_phase_sweep_deterministic_tables(circle):
    base = _params(circle, N=16, T=400, every=100)
    a = phase_sweep([0.2, 1.1], base)
    b = phase_sweep([0.2, 1.1], base)
    assert a.table_lines() == b.table_lines()


def test_phase_sweep_flags_collapse_for_large_exponents(square):
    base = _params(square, N=128, T=6000, every=500)
    report = phase_sweep([0.5, 1.5], base)
    sub, sup = report.rows
    assert sub.collapse_time is None
    assert sup.collapse_time is not None
    assert sup.final_index > sub.final_index
