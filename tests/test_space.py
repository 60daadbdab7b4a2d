"""State-space charts, measures and samplers."""

import numpy as np
import pytest

from vorsim.errors import ConfigError
from vorsim.space import Space


def test_rejects_bad_kind_and_size():
    with pytest.raises(ConfigError):
        Space("disc", 1.0)
    with pytest.raises(ConfigError):
        Space("circle", 0.0)
    with pytest.raises(ConfigError):
        Space("square", float("inf"))


def test_canonicalize_periodic_wrap(circle, torus):
    assert circle.canonicalize(1.25) == pytest.approx(0.25)
    assert circle.canonicalize(-0.25) == pytest.approx(0.75)
    assert circle.canonicalize(1.0) == 0.0
    x, y = torus.canonicalize((1.5, -0.5))
    assert (x, y) == pytest.approx((0.5, 0.5))


def test_canonicalize_rejects_non_finite_points(circle, interval, square,
                                                torus):
    for bad in (float("nan"), float("inf"), -float("inf")):
        for space, p in ((circle, bad), (interval, bad),
                         (square, (0.5, bad)), (torus, (bad, 0.5))):
            with pytest.raises(ConfigError):
                space.canonicalize(p)


def test_canonicalize_bounded_rejects_outside(interval, square):
    assert interval.canonicalize(1.0) == 1.0
    with pytest.raises(ConfigError):
        interval.canonicalize(1.0000001)
    with pytest.raises(ConfigError):
        square.canonicalize((0.5, -0.1))


def test_region_measure_frozen_values(interval, circle, square, torus):
    assert interval.region_measure((0.2, 0.5)) == pytest.approx(0.3, abs=1e-15)
    # descending span wraps through L on periodic axes
    assert circle.region_measure((0.8, 0.1)) == pytest.approx(0.3, abs=1e-15)
    assert square.region_measure((0.0, 0.5, 0.0, 0.5)) == \
        pytest.approx(0.25, abs=1e-15)
    assert torus.region_measure((0.9, 0.1, 0.25, 0.75)) == \
        pytest.approx(0.1, abs=1e-15)


def test_region_measure_rejects_descending_span_on_bounded_axis(interval):
    with pytest.raises(ConfigError):
        interval.region_measure((0.5, 0.2))


def test_density_grid_reweights_lambda_and_normalizes_mu():
    sp = Space("interval", 1.0, density=[2.0, 1.0])
    assert sp.total_measure() == pytest.approx(1.5, abs=1e-15)
    assert sp.region_measure((0.0, 0.5)) == pytest.approx(1.0, abs=1e-15)
    # mu is the normalized version of the same grid by default
    assert sp.region_measure((0.0, 0.5), "mu") == \
        pytest.approx(1.0 / 1.5, abs=1e-15)
    assert sp.region_measure((0.0, 1.0), "mu") == pytest.approx(1.0, abs=1e-15)


def test_density_grid_2d_total(torus):
    sp = Space("torus", 2.0, density=[[1.0, 3.0], [2.0, 4.0]])
    assert sp.total_measure() == pytest.approx(10.0, abs=1e-12)
    assert torus.total_measure() == 1.0


def test_lambda_grid_must_be_positive_mu_grid_may_have_zeros():
    with pytest.raises(ConfigError):
        Space("interval", 1.0, density=[1.0, 0.0])
    sp = Space("interval", 1.0, mu_density=[0.0, 1.0])
    assert sp.region_measure((0.0, 0.5), "mu") == 0.0
    with pytest.raises(ConfigError):
        Space("interval", 1.0, mu_density=[0.0, 0.0])


def test_sampler_respects_zero_mass_cells():
    sp = Space("interval", 1.0, mu_density=[0.0, 1.0])
    rng = np.random.default_rng(0)
    xs = [sp.sample_mu(rng) for _ in range(500)]
    assert all(x >= 0.5 for x in xs)


def test_sampler_uniform_empirical_cdf(square):
    rng = np.random.default_rng(1)
    pts = np.array([square.sample_mu(rng) for _ in range(4000)])
    for axis in (0, 1):
        xs = np.sort(pts[:, axis])
        grid = (np.arange(1, len(xs) + 1)) / len(xs)
        assert np.max(np.abs(xs - grid)) < 0.05


def test_sampler_tracks_weighted_cells():
    sp = Space("interval", 1.0, density=[3.0, 1.0])
    rng = np.random.default_rng(2)
    xs = np.array([sp.sample_mu(rng) for _ in range(4000)])
    frac_left = float(np.mean(xs < 0.5))
    assert abs(frac_left - 0.75) < 0.03
