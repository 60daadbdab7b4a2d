"""Selection distributions and the thinning/replacement chain driver."""

from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from helpers import all_spaces, random_points, serial_iid_mu
from vorsim import process
from vorsim.engine2d import Engine2D
from vorsim.errors import ConfigError, SelectionOutOfDomain
from vorsim.process import (InitSpec, ProcessParams, SelectionSpec,
                            _RowSumSampler, initial_configuration,
                            minorization_bound, run, selection_probabilities,
                            step)
from vorsim.space import Space
from vorsim.tessellation import Tessellation, build

THREE_ON_CIRCLE = [0.0, 0.1, 0.5]  # cell volumes 0.30, 0.25, 0.45


def _probs(points, space, sel):
    return selection_probabilities(build(points, space), sel)


def test_volume_power_frozen_probabilities(circle):
    sel = SelectionSpec("volume_power", alpha=1.0)
    assert _probs(THREE_ON_CIRCLE, circle, sel) == \
        pytest.approx([0.30, 0.25, 0.45], abs=1e-12)
    sel = SelectionSpec("volume_power", alpha=-1.0)
    assert _probs(THREE_ON_CIRCLE, circle, sel) == \
        pytest.approx([15 / 43, 18 / 43, 10 / 43], abs=1e-12)
    sel = SelectionSpec("volume_power", alpha=0.0)
    assert _probs(THREE_ON_CIRCLE, circle, sel) == \
        pytest.approx([1 / 3] * 3, abs=1e-15)


def test_probabilities_normalize_everywhere():
    rng = np.random.default_rng(31)
    for space in all_spaces():
        for alpha in (-1.5, 0.0, 0.7, 2.0):
            sel = SelectionSpec("volume_power", alpha=alpha)
            p = _probs(random_points(rng, space, 12), space, sel)
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12
            assert np.all(p >= 0.0)


def test_probabilities_follow_point_permutation(circle):
    sel = SelectionSpec("volume_power", alpha=1.4)
    base = _probs(THREE_ON_CIRCLE, circle, sel)
    perm = _probs([0.1, 0.5, 0.0], circle, sel)
    assert perm == pytest.approx([base[1], base[2], base[0]], abs=1e-13)


def test_probabilities_invariant_under_density_scaling():
    # multiplying the reference density by a constant rescales every cell
    # volume by the same factor, which cancels in the normalization
    pts1 = THREE_ON_CIRCLE
    rng = np.random.default_rng(32)
    pts2 = random_points(rng, Space("torus", 1.0), 9)
    for alpha in (-1.3, 0.7, 2.0):
        sel = SelectionSpec("volume_power", alpha=alpha)
        a = _probs(pts1, Space("circle", 1.0, density=[1.0, 1.0]), sel)
        b = _probs(pts1, Space("circle", 1.0, density=[3.0, 3.0]), sel)
        assert a == pytest.approx(b, abs=1e-12)
        a = _probs(pts2, Space("torus", 1.0, density=[[1.0]]), sel)
        b = _probs(pts2, Space("torus", 1.0, density=[[7.5]]), sel)
        assert a == pytest.approx(b, abs=1e-12)


def test_volume_table_frozen_probabilities(circle):
    sel = SelectionSpec("volume_table", breakpoints=[0.0, 0.35, 1.0],
                        values=[2.0, 1.0])
    assert _probs(THREE_ON_CIRCLE, circle, sel) == \
        pytest.approx([0.4, 0.4, 0.2], abs=1e-14)


def test_volume_table_domain_violation_names_the_volume(circle):
    sel = SelectionSpec("volume_table", breakpoints=[0.0, 0.35],
                        values=[1.0])
    with pytest.raises(SelectionOutOfDomain) as err:
        _probs(THREE_ON_CIRCLE, circle, sel)
    msg = str(err.value)
    assert "0.449" in msg and "0.35" in msg  # offending volume and table edge


def test_neighbor_table_rates_indexed_by_neighbor_count(interval):
    # interval chain 0.2, 0.5, 0.8 has neighbor counts 1, 2, 1, and a
    # table entry values[k] is the rate for cells with k+1 neighbors
    sel = SelectionSpec("neighbor_table", values=[4.0, 2.0])
    assert _probs([0.2, 0.5, 0.8], interval, sel) == \
        pytest.approx([0.4, 0.2, 0.4], abs=1e-15)
    short = SelectionSpec("neighbor_table", values=[1.0])
    with pytest.raises(SelectionOutOfDomain) as err:
        _probs([0.2, 0.5, 0.8], interval, short)
    assert "2" in str(err.value)


def test_selection_spec_validation():
    with pytest.raises(ConfigError):
        SelectionSpec("nearest_fit")
    with pytest.raises(ConfigError):
        SelectionSpec("volume_power")
    with pytest.raises(ConfigError):
        SelectionSpec("volume_table", breakpoints=[0.0, 1.0], values=[-1.0])
    with pytest.raises(ConfigError):
        SelectionSpec("volume_table", breakpoints=[0.5, 0.5], values=[1.0])
    with pytest.raises(ConfigError):
        SelectionSpec("neighbor_table", values=[])


def test_minorization_bound_frozen_value():
    sel = SelectionSpec("neighbor_table", values=[3.0, 1.0, 2.0])
    assert minorization_bound(sel, 5) == pytest.approx(1.0 / 15.0, abs=1e-15)
    with pytest.raises(ConfigError):
        minorization_bound(SelectionSpec("volume_power", alpha=1.0), 5)


def test_step_replacement_swaps_one_point(circle):
    t = build(THREE_ON_CIRCLE, circle)
    ev = step(t, SelectionSpec("volume_power", alpha=1.0), "replacement",
              np.random.default_rng(1), step_index=5)
    assert ev.step == 5
    assert 0 <= ev.chosen_j < 3
    assert ev.removed in THREE_ON_CIRCLE
    assert t.n == 3
    assert ev.inserted in list(t.points)


def test_step_thinning_removes_one_point(circle):
    t = build(THREE_ON_CIRCLE, circle)
    ev = step(t, SelectionSpec("volume_power", alpha=1.0), "thinning",
              np.random.default_rng(1))
    assert ev.inserted is None
    assert t.n == 2
    assert ev.removed not in list(t.points)


def test_run_snapshot_grid_and_shapes(circle):
    params = ProcessParams(N=8, T=20, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=1.0),
                           space=circle, init="iid_mu", seed=3,
                           snapshot_every=8)
    tr = run(params)
    assert list(tr.steps) == list(range(20))
    assert [s.step for s in tr.snapshots] == [0, 8, 16, 20]
    assert len(tr.final_points) == 8
    assert tr.removed.shape == (20, 1)
    assert tr.inserted.shape == (20, 1)
    assert tr.chosen.shape == (20,)
    assert tr.stopped_at is None
    for s in tr.snapshots:
        assert sum(s.volumes) == pytest.approx(1.0, rel=1e-9)


def test_run_thinning_exhausts_to_one_point(circle):
    params = ProcessParams(N=8, T=20, mode="thinning",
                           selection=SelectionSpec("volume_power", alpha=1.0),
                           space=circle, init="iid_mu", seed=3,
                           snapshot_every=8)
    tr = run(params)
    assert len(tr.steps) == 7
    assert len(tr.final_points) == 1
    assert tr.inserted is None


def test_run_is_deterministic(torus):
    params = ProcessParams(N=16, T=64, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=0.5),
                           space=torus, init="grid_jittered", seed=9,
                           snapshot_every=16)
    a, b = run(params), run(params)
    assert np.array_equal(a.removed, b.removed)
    assert np.array_equal(a.inserted, b.inserted)
    assert np.array_equal(a.chosen, b.chosen)
    assert np.array_equal(a.final_points, b.final_points)


def test_different_seeds_differ(torus):
    base = dict(N=16, T=64, mode="replacement",
                selection=SelectionSpec("volume_power", alpha=0.5),
                space=torus, init="iid_mu", snapshot_every=16)
    a = run(ProcessParams(seed=1, **base))
    b = run(ProcessParams(seed=2, **base))
    assert not np.array_equal(a.removed, b.removed)


def test_initial_configuration_kinds(circle, square):
    rng = np.random.default_rng(0)
    cl = initial_configuration(circle, 6,
                               InitSpec("single_cluster", center=0.5,
                                        radius=0.05), rng)
    assert len(set(cl)) == 6
    assert all(abs(x - 0.5) <= 0.05 for x in cl)
    gr = initial_configuration(circle, 6, "grid_jittered", rng)
    assert len(set(gr)) == 6
    assert max(gr) - min(gr) > 0.5  # spread over the space
    sq = initial_configuration(square, 5, "single_cluster", rng)
    assert len(set(sq)) == 5
    with pytest.raises(ConfigError):
        initial_configuration(circle, 3, [0.0, 0.1, 0.5], rng)
    with pytest.raises(ConfigError):
        initial_configuration(circle, 3, "ring", rng)


class _ReplayRng:
    """Hands out a fixed sequence of doubles in order, one per
    ``random()`` call and n per ``random(n)`` call, as a numpy Generator
    does; a sequence with repeats makes coinciding initial draws."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.k = 0

    def random(self, size=None):
        m = 1 if size is None else int(np.prod(size))
        out = self.values[self.k:self.k + m]
        self.k += m
        return float(out[0]) if size is None else out.reshape(size)


def _same_draws(a, b):
    assert len(a) == len(b)
    assert [type(p) for p in a] == [type(p) for p in b]
    assert np.asarray(a, dtype=float).tobytes() == \
        np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("N", [1, 2, 1000])
def test_iid_mu_draws_equal_the_serial_loop(N):
    for space in all_spaces():
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            got = initial_configuration(space, N, "iid_mu", rng)
            _same_draws(got, serial_iid_mu(space, N, ref_rng))
            # the stream was consumed as the serial loop consumed it
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_iid_mu_draws_redraw_coinciding_points_as_the_serial_loop():
    fresh = np.random.default_rng(5).random(200)
    for space in all_spaces():
        # ten equal doubles: five equal 2D points, ten equal 1D points
        values = np.concatenate([np.full(10, 0.25), fresh])
        for N in (6, 12):
            rng, ref_rng = _ReplayRng(values), _ReplayRng(values)
            got = initial_configuration(space, N, "iid_mu", rng)
            _same_draws(got, serial_iid_mu(space, N, ref_rng))
            assert rng.k == ref_rng.k
            assert len(set(got)) == N


def test_iid_mu_draws_with_a_mu_grid_or_own_sampler_use_sample_mu():
    class Coarse(Space):
        def sample_mu(self, rng):
            return float(np.floor(super().sample_mu(rng) * 64.0)) / 64.0

    spaces = [Space("circle", 1.0, mu_density=[0.0, 1.0, 3.0]),
              Space("square", 1.0, density=[[1.0, 2.0], [0.5, 1.0]]),
              Coarse("circle", 1.0)]
    for space in spaces:
        calls = []
        own = space.sample_mu
        space.sample_mu = lambda rng: calls.append(1) or own(rng)
        got = initial_configuration(space, 40, "iid_mu",
                                    np.random.default_rng(3))
        del space.sample_mu
        assert len(calls) >= 40
        _same_draws(got, serial_iid_mu(space, 40, np.random.default_rng(3)))


@pytest.mark.parametrize("kind", ["square", "torus"])
def test_first_snapshot_scans_each_2d_cell_once(kind, monkeypatch):
    scans = Counter()
    at_snapshot = []
    scan = Engine2D.cell_scan

    def counting_scan(self, v, *args):
        scans[v] += 1
        return scan(self, v, *args)

    def snapshot(*args):
        at_snapshot.append(Counter(scans))
        return Snapshot(*args)

    Snapshot = process.Snapshot
    monkeypatch.setattr(Engine2D, "cell_scan", counting_scan)
    monkeypatch.setattr(process, "Snapshot", snapshot)
    params = ProcessParams(N=300, T=3, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=1.0),
                           space=Space(kind, 1.0), seed=4)
    run(params)
    assert at_snapshot[0] == Counter(range(300))


def test_initial_configuration_respects_mu_zeros():
    sp = Space("interval", 1.0, mu_density=[0.0, 1.0])
    rng = np.random.default_rng(4)
    pts = initial_configuration(sp, 12, "iid_mu", rng)
    assert all(x >= 0.5 for x in pts)


def test_observers_and_early_stop(circle):
    params = ProcessParams(N=8, T=50, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=1.0),
                           space=circle, init="iid_mu", seed=5,
                           snapshot_every=10)
    seen = []
    tr = run(params, observers=(lambda t, ev, tess: seen.append(ev.step),))
    assert seen == list(tr.steps)

    # early stopping is evaluated on the snapshot grid
    tr = run(params, stop_when=lambda t, tess: t >= 12)
    assert tr.stopped_at == 20
    assert len(tr.steps) == 20
    assert [s.step for s in tr.snapshots] == [0, 10, 20]


def test_empirical_selection_frequencies_match_probabilities(circle):
    sel = SelectionSpec("volume_power", alpha=1.0)
    want = np.array([0.30, 0.25, 0.45])
    rng = np.random.default_rng(6)
    counts = np.zeros(3)
    trials = 20_000
    for _ in range(trials):
        t = build(THREE_ON_CIRCLE, circle)
        ev = step(t, sel, "thinning", rng)
        counts[ev.chosen_j] += 1
    freq = counts / trials
    sigma = np.sqrt(want * (1 - want) / trials)
    assert np.all(np.abs(freq - want) < 4.0 * sigma)


# -- the row-sum sampler shared by step() and run() -------------------------

def _same_state(a, b):
    return (a.n == b.n and a.B == b.B
            and np.array_equal(a.rows, b.rows)
            and a.sums.tobytes() == b.sums.tobytes())


def test_sampler_maintained_equals_fresh_build():
    rng = np.random.default_rng(40)
    w = rng.random(300) ** 3
    s = _RowSumSampler(w)
    assert s.B == 32 and s.rows.shape == (10, 32)
    for _ in range(200):
        if rng.random() < 0.1 and s.n > 2:
            s.delete(int(rng.integers(s.n)))
        else:
            idx = rng.choice(s.n, size=int(rng.integers(1, 8)),
                             replace=False)
            s.set(idx, rng.random(len(idx)) * 10.0 ** rng.integers(-8, 8))
        assert _same_state(s, _RowSumSampler(s.weights.copy()))
    assert s.n < 300
    # deletes alone, from 300 entries to 1: every drop of the row count
    # and both changes of the row width (32 -> 16 -> 8)
    s = _RowSumSampler(w)
    widths = {s.B}
    while s.n > 1:
        s.delete(int(rng.integers(s.n)))
        widths.add(s.B)
        assert _same_state(s, _RowSumSampler(s.weights.copy()))
    assert widths == {32, 16, 8}


class _FixedRandom:
    """Stands in for a generator whose random() always returns u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sampler_never_draws_zero_weights_or_padding():
    rng = np.random.default_rng(41)
    w = rng.random(77)
    w[rng.random(77) < 0.6] = 0.0
    w[-3:] = 0.0  # the last row ends in zeros and padding
    s = _RowSumSampler(w)
    assert s.rows.size > s.n
    got = {s.draw(rng) for _ in range(5000)}
    assert got == set(np.flatnonzero(w).tolist())
    top = _FixedRandom(1.0 - 2.0 ** -53)
    assert s.draw(top) == int(np.flatnonzero(w)[-1])
    assert s.draw(_FixedRandom(0.0)) == int(np.flatnonzero(w)[0])
    # a subnormal total: the top of [0, 1) times it rounds onto the total
    one = _RowSumSampler([0.0, 0.0, 1e-310, 0.0])
    assert one.draw(top) == one.draw(_FixedRandom(0.0)) == 2
    # a row sum above the row's running total, as rounding can leave it:
    # a target past the running total takes the row's last positive entry
    two = _RowSumSampler([1.0, 2.0, 0.0] + [0.0] * 5 + [4.0])
    two.sums[0] = 3.5
    assert two.draw(_FixedRandom(3.25 / 7.5)) == 1
    assert two.draw(_FixedRandom(3.75 / 7.5)) == 8


def test_sampler_rejects_zero_or_nonfinite_totals():
    rng = np.random.default_rng(42)
    for w in ([0.0, 0.0, 0.0], [1.0, np.inf, 2.0], [1.0, np.nan],
              np.full(40, 1e308)):
        with pytest.raises(SelectionOutOfDomain) as err, \
                np.errstate(over="ignore"):
            _RowSumSampler(w).draw(rng)
        assert "non-positive or non-finite" in str(err.value)


def test_sampler_draws_follow_weights_chi_square():
    rng = np.random.default_rng(43)
    n, draws = 10_000, 200_000
    w = 0.5 + rng.random(n)
    s = _RowSumSampler(w)
    counts = np.bincount([s.draw(rng) for _ in range(draws)], minlength=n)
    assert counts.sum() == draws
    _, p = chisquare(counts, draws * w / w.sum())
    assert p > 1e-3


def _events_by_steps(params):
    # the seeding of run(): split the seed, draw the start, step by hand
    init_ss, chain_ss = np.random.SeedSequence(params.seed).spawn(2)
    init_rng = np.random.Generator(np.random.PCG64(init_ss))
    rng = np.random.Generator(np.random.PCG64(chain_ss))
    pts = initial_configuration(params.space, params.N, params.init,
                                init_rng)
    tess = Tessellation.build(pts, params.space)
    events = []
    for t in range(params.T):
        if params.mode == "thinning" and tess.n < 2:
            break
        events.append(step(tess, params.selection, params.mode, rng, t))
    return events


def _assert_run_equals_steps(params):
    tr = run(params)
    events = _events_by_steps(params)
    dim = params.space.dim
    assert tr.chosen.tolist() == [ev.chosen_j for ev in events]
    removed = np.array([ev.removed for ev in events], dtype=float)
    assert tr.removed.tobytes() == removed.reshape(-1, dim).tobytes()
    if params.mode == "thinning":
        assert tr.inserted is None
    else:
        inserted = np.array([ev.inserted for ev in events], dtype=float)
        assert tr.inserted.tobytes() == inserted.reshape(-1, dim).tobytes()
    return tr


SELECTIONS = (
    SelectionSpec("volume_power", alpha=0.5),
    SelectionSpec("volume_power", alpha=3.0),
    SelectionSpec("volume_table", breakpoints=[0.0, 0.02, 0.06, 1.01],
                  values=[1.0, 2.5, 4.0]),
    SelectionSpec("neighbor_table", values=[float(d) for d in range(1, 33)]),
)


@pytest.mark.parametrize("mode", ("replacement", "thinning"))
@pytest.mark.parametrize("sel", SELECTIONS,
                         ids=("power0.5", "power3", "table", "neighbors"))
def test_run_chooses_what_a_step_sequence_chooses(sel, mode):
    for kind in ("circle", "interval", "square", "torus"):
        params = ProcessParams(N=30, T=45, mode=mode, selection=sel,
                               space=Space(kind, 1.0), seed=11,
                               snapshot_every=16)
        _assert_run_equals_steps(params)


def test_run_thinning_to_one_survivor_chooses_what_steps_choose():
    # from 300 points the sampler's row width shrinks 32 -> 16 -> 8
    params = ProcessParams(N=300, T=299, mode="thinning",
                           selection=SelectionSpec("volume_power", alpha=3.0),
                           space=Space("square", 1.0), seed=12,
                           snapshot_every=100)
    tr = _assert_run_equals_steps(params)
    assert tr.n_events == 299 and len(tr.final_points) == 1


class _CoarseCircle(Space):
    """A circle whose draws from mu fall on 16 slots, so they often
    coincide with a point of the configuration."""

    def __init__(self):
        super().__init__("circle", 1.0)

    def sample_mu(self, rng):
        return float(np.floor(super().sample_mu(rng) * 16.0)) / 16.0


def test_run_redraws_coinciding_draws_as_a_step_sequence(monkeypatch):
    tries = []
    replace = Tessellation.replace_point
    monkeypatch.setattr(Tessellation, "replace_point",
                        lambda self, j, p: tries.append(j) or
                        replace(self, j, p))
    params = ProcessParams(N=8, T=40, mode="replacement",
                           selection=SelectionSpec("volume_power", alpha=1.0),
                           space=_CoarseCircle(), seed=3, snapshot_every=16)
    _assert_run_equals_steps(params)
    # more tries than the two sides' steps: some draws were redrawn
    assert len(tries) > 2 * params.T


def test_replacement_gives_up_after_too_many_coinciding_draws():
    class Stuck(Space):
        def sample_mu(self, rng):
            return 0.1

    space = Stuck("circle", 1.0)
    # alpha = -200 selects the smallest cell, the one at 0.2, and every
    # draw lands on the point at 0.1
    sel = SelectionSpec("volume_power", alpha=-200.0)
    with pytest.raises(ConfigError, match="could not draw a replacement"):
        step(build([0.1, 0.2, 0.6], space), sel, "replacement",
             np.random.default_rng(0))


def test_neighbor_table_thinning_reaches_one_survivor():
    sel = SelectionSpec("neighbor_table",
                        values=[float(d) for d in range(1, 33)])
    for space in all_spaces():
        params = ProcessParams(N=20, T=100, mode="thinning", selection=sel,
                               space=space, seed=0, snapshot_every=8)
        tr = run(params)
        assert tr.n_events == 19, space.kind
        assert len(tr.final_points) == 1
        assert tr.snapshots[-1].step == 19


def test_step_thinning_refuses_a_lone_point(circle):
    t = build([0.3], circle)
    sel = SelectionSpec("neighbor_table", values=[1.0])
    with pytest.raises(ConfigError):
        step(t, sel, "thinning", np.random.default_rng(0))
