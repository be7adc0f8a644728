"""Suspension semiflow tests: exact flow, correlations, decay fits, distances."""

import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mixlab.errors import BoundaryPoint, BracketUndefined, CrossingBudgetExceeded, WindowTooShort
from mixlab.markov_maps import (
    ExpandingMarkovMap,
    doubling_map,
    expanding_circle_map,
    three_branch_map,
)
from mixlab.roof import constant_roof, per_branch_polynomial_roof, perturb_bump, polynomial_roof
from mixlab.solenoid import build as build_solenoid
from mixlab.suspension import (
    MAX_THREADS,
    CorrelationSeries,
    correlation,
    default_observables,
    fit_rate,
    _sample_arrays,
    flow_to,
    suspend,
    svg_log_plot,
    temporal_distance,
)


def _xsq_susp():
    base = doubling_map()
    roof = polynomial_roof(base, (Fraction(1), Fraction(0), Fraction(1)))
    return suspend(base, roof)


def _const_susp():
    base = doubling_map()
    return suspend(base, constant_roof(base, Fraction(1)))


def _solenoid_susp():
    skew = build_solenoid(2, 20.0, 0.25).skew
    return suspend(skew, constant_roof(skew.base, Fraction(1)))


# -- flow --------------------------------------------------------------------


def test_flow_semigroup_exact():
    susp = _xsq_susp()
    p = (Fraction(1, 5), Fraction(1, 2))
    s, t = Fraction(3, 4), Fraction(5, 7)
    one_step = flow_to(susp, p, s + t)
    two_step = flow_to(susp, flow_to(susp, p, s), t)
    assert one_step == two_step
    assert isinstance(one_step[0], Fraction) and isinstance(one_step[1], Fraction)
    assert flow_to(susp, p, Fraction(0)) == p


def test_flow_crossing_lands_on_image_floor():
    susp = _xsq_susp()
    # flowing exactly one roof height crosses once and returns to u = 0
    x = Fraction(1, 5)
    r = Fraction(1) + x * x
    assert flow_to(susp, (x, Fraction(0)), r) == (Fraction(2, 5), Fraction(0))


def test_flow_float_path_tracks_exact_path():
    susp = _xsq_susp()
    exact = flow_to(susp, (Fraction(1, 5), Fraction(1, 2)), Fraction(13, 4))
    approx = flow_to(susp, (0.2, 0.5), 3.25)
    assert approx[0] == pytest.approx(float(exact[0]), abs=1e-12)
    assert approx[1] == pytest.approx(float(exact[1]), abs=1e-12)


def test_flow_rejects_bad_phase_points():
    susp = _xsq_susp()
    with pytest.raises(ValueError):
        flow_to(susp, (Fraction(1, 5), Fraction(3, 2)), Fraction(1))  # u >= r(x)
    with pytest.raises(ValueError):
        flow_to(susp, (Fraction(1, 5), Fraction(0)), Fraction(-1))


def test_flow_boundary_orbit_raises():
    susp = _xsq_susp()
    # 1/4 doubles onto the partition edge 1/2
    with pytest.raises(BoundaryPoint):
        flow_to(susp, (Fraction(1, 4), Fraction(0)), Fraction(4))


def test_float_flow_survives_an_image_rounded_onto_domain_hi():
    # 6 * 0.8333333333333333 - 4 rounds to 1.0, which lies outside [0, 1)
    base = expanding_circle_map(6)
    susp = suspend(base, polynomial_roof(base, (1, 0, 1)))
    # two crossings: the clamped image 0.9999999999999999, then 6x - 5 below it
    x, u = flow_to(susp, (0.8333333333333333, 0.0), 5.0)
    assert 1.0 - 1e-14 < x < 1.0
    assert u == pytest.approx(5.0 - (1 + 0.8333333333333333**2) - 2.0, abs=1e-14)


def test_flow_over_skew_base_carries_fiber():
    susp = _solenoid_susp()
    start = ((0.2, np.zeros(2)), 0.0)
    (x, z), u = flow_to(susp, start, 2.0)
    assert x == pytest.approx(0.8)  # two doublings of the angle
    assert u == pytest.approx(0.0, abs=1e-12)
    assert z.shape == (2,)
    assert np.linalg.norm(z) <= 0.3 + 1e-12  # image radius of the model


# -- sampling and correlation -------------------------------------------------


def test_sample_invariant_respects_roof():
    susp = _xsq_susp()
    xs, zs, us = _sample_arrays(susp, np.random.default_rng(2), 500)
    assert len(xs) == len(us) == 500 and zs is None
    assert np.all(us >= 0.0)
    assert np.all(us < susp.roof.value_many(xs))


def test_sampler_pushes_only_accepted_fibers(monkeypatch):
    # the constant roof accepts every proposal of the first batch, so exactly
    # n fiber points are pushed fiber_depth steps each; the base orbit of the
    # whole batch still decides acceptance
    from mixlab.skew_product import AffineFiberFamily

    pushed = []
    plain = AffineFiberFamily.__call__

    def counted(self, x, z):
        pushed.append(np.size(x))
        return plain(self, x, z)

    monkeypatch.setattr(AffineFiberFamily, "__call__", counted)
    susp = _solenoid_susp()
    xs, zs, us = _sample_arrays(susp, np.random.default_rng(4), 10_000, fiber_depth=30)
    assert sum(pushed) == 30 * 10_000
    monkeypatch.undo()
    # each fiber point is the disk center pushed along its own base orbit
    y = np.random.default_rng(4).random(15_000)[:10_000]
    z = np.zeros((10_000, 2))
    for _ in range(30):
        z = susp.skew.fiber_map(y, z)
        y = susp.base_map.evaluate_many(y)
    assert xs.tobytes() == y.tobytes()
    assert zs.tobytes() == z.tobytes()


def test_sampling_envelope_covers_a_narrow_bump():
    # a bump of height 1/2 and width 1/1000 on the roof 1: an envelope below
    # 3/2 would accept under the bump with probability 1, not r/roof_sup
    base = doubling_map()
    roof = perturb_bump(
        constant_roof(base, 1), Fraction(103, 1000), Fraction(1, 2000), Fraction(1, 2)
    )
    assert suspend(base, roof).roof_sup >= 1.5


def test_default_times_grid():
    susp = _const_susp()
    times = susp.default_times(0.5, 4.0)
    assert len(times) == 9
    assert times[0] == 0.0 and times[-1] == pytest.approx(4.0)
    assert np.allclose(np.diff(times), 0.5)


def test_correlation_at_zero_is_variance():
    susp = _xsq_susp()

    def phi(x, u):
        return np.cos(2.0 * np.pi * u)

    series = correlation(susp, phi, phi, times=[0.0], samples=4000, seed=1)
    assert series.values[0] >= -1e-12
    assert series.sample_count >= 4000
    assert series.std_errors[0] > 0.0


def test_correlation_thread_count_never_changes_bytes():
    susp = _xsq_susp()

    def phi(x, u):
        return np.sin(2.0 * np.pi * x) + 0.1 * u

    kw = dict(times=[0.0, 0.5, 1.0], samples=6000, seed=9, batch_size=1000)
    one = correlation(susp, phi, phi, threads=1, **kw)
    three = correlation(susp, phi, phi, threads=3, **kw)
    assert np.array_equal(one.values, three.values)
    assert np.array_equal(one.std_errors, three.std_errors)
    assert one.to_csv() == three.to_csv()


@pytest.mark.parametrize("samples", [2000, 5000])
def test_forked_batches_keep_solenoid_bytes(samples):
    # the closures of default_observables reach the children by fork; with
    # 2 batches, threads=3 is capped at one worker per batch
    susp = _solenoid_susp()
    kw = dict(times=np.linspace(0.0, 2.0, 9), samples=samples, seed=4, batch_size=1000)
    for _, phi, psi in default_observables(susp):
        csvs = {correlation(susp, phi, psi, threads=n, **kw).to_csv() for n in (1, 2, 3)}
        assert len(csvs) == 1
    assert multiprocessing.active_children() == []


def _fails_in_children(error):
    parent = os.getpid()

    def phi(x, u):
        if os.getpid() != parent:
            error()
        return x

    return phi


def _crossing_error():
    raise CrossingBudgetExceeded("raised in a worker process")


def test_child_error_reaches_the_caller_with_its_type():
    phi = _fails_in_children(_crossing_error)
    kw = dict(times=[0.0, 0.5], samples=3000, seed=1, batch_size=1000, threads=2)
    with pytest.raises(CrossingBudgetExceeded, match="raised in a worker process"):
        correlation(_const_susp(), phi, phi, **kw)
    assert multiprocessing.active_children() == []


def test_dead_child_raises_instead_of_hanging():
    phi = _fails_in_children(lambda: os._exit(3))
    kw = dict(times=[0.0, 0.5], samples=2000, seed=1, batch_size=1000, threads=2)
    with pytest.raises(BrokenProcessPool):
        correlation(_const_susp(), phi, phi, **kw)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [0, MAX_THREADS + 1])
def test_correlation_rejects_worker_counts_out_of_range(threads):
    # rejected before any batch runs, so no process is started
    susp = _const_susp()
    with pytest.raises(ValueError, match="threads must be"):
        correlation(susp, lambda x, u: x, lambda x, u: x, samples=100, threads=threads)


def test_correlation_reads_the_roof_once_per_sample_and_crossing(monkeypatch):
    # the batch state carries r(x): after sampling, the roof is read once per
    # sample and once per crossing, not once per sample at every grid step
    base = doubling_map()
    roof = polynomial_roof(base, (1, 0, 1))
    roof_points, crossings = [], []

    def counted_roof(xs):
        roof_points.append(np.size(xs))
        return roof.value_many(xs)

    susp = suspend(base, replace(roof, value_many=counted_roof))
    samples, batch, seed = 4000, 1000, 3
    roof_points.clear()
    # batch b draws from default_rng([seed, b]); replay the sampler to count its reads
    for b in range(samples // batch):
        _sample_arrays(susp, np.random.default_rng([seed, b]), batch)
    sampler_points = sum(roof_points)
    roof_points.clear()

    evaluate_many = ExpandingMarkovMap.evaluate_many

    def counted_step(self, xs):
        crossings.append(np.size(xs))
        return evaluate_many(self, xs)

    monkeypatch.setattr(ExpandingMarkovMap, "evaluate_many", counted_step)
    _, phi, psi = default_observables(susp)[0]
    series = correlation(susp, phi, psi, samples=samples, seed=seed, batch_size=batch)
    steps = len(series.times) - 1
    assert series.sample_count == samples
    assert sum(roof_points) - sampler_points <= samples + sum(crossings)
    assert samples + sum(crossings) < samples * steps / 4


def test_head_is_the_run_over_the_first_batches():
    # batch b draws from [seed, b], so the first batches of a longer run are a shorter run
    susp = _xsq_susp()
    _, phi, psi = default_observables(susp)[0]
    kw = dict(times=np.linspace(0.0, 6.0, 25), seed=7, batch_size=2500)
    long = correlation(susp, phi, psi, samples=12_500, **kw)
    for n in (2, 3, 5):
        short = correlation(susp, phi, psi, samples=2500 * n, **kw)
        head = long.head(n)
        assert head.sample_count == short.sample_count == 2500 * n
        assert head.to_csv() == short.to_csv()
    for n in (1, 6):
        with pytest.raises(ValueError, match="batches"):
            long.head(n)


def test_correlation_keeps_psi_at_time_zero():
    # an observable that returns the state array itself must give the series
    # of one that returns a copy: psi(0) may not follow the advanced state
    susp = _const_susp()
    kw = dict(times=[0.0, 0.5, 1.5, 2.5], samples=4000, seed=0)
    view = correlation(susp, lambda x, u: x, lambda x, u: x, **kw)
    copy = correlation(susp, lambda x, u: x.copy(), lambda x, u: x.copy(), **kw)
    assert view.to_csv() == copy.to_csv()


def test_correlation_validates_grid_and_samples():
    susp = _const_susp()
    phi = lambda x, u: x  # noqa: E731
    with pytest.raises(ValueError):
        correlation(susp, phi, phi, times=[0.5, 0.5], samples=100)
    with pytest.raises(ValueError):
        correlation(susp, phi, phi, times=[-1.0, 0.5], samples=100)
    with pytest.raises(ValueError):
        correlation(susp, phi, phi, times=[0.0, 0.5], samples=1)


def test_correlation_csv_uses_crlf_rows():
    susp = _const_susp()
    phi = lambda x, u: x  # noqa: E731
    series = correlation(susp, phi, phi, times=[0.0, 0.5], samples=200, seed=0)
    text = series.to_csv()
    assert text.startswith("t,rho,stderr\r\n")
    assert text.endswith("\r\n")
    assert len(text.strip().splitlines()) == 3


# -- decay fits ----------------------------------------------------------------


def _series(times, values, err):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    errs = np.full(len(times), err)
    return CorrelationSeries(times, values, errs, 1000)


def test_fit_rate_recovers_synthetic_exponential():
    times = np.arange(0.0, 15.5, 0.5)
    fit = fit_rate(_series(times, 0.8 * np.exp(-0.3 * times), 1e-9))
    assert fit.decay_rate == pytest.approx(0.3, abs=1e-9)
    assert fit.prefactor == pytest.approx(0.8, rel=1e-9)
    assert fit.r_squared > 0.999999
    assert fit.verdict == "ExponentialDecay"
    assert fit.points_used == len(times)
    assert fit.window == (0.0, 15.0)


def test_fit_rate_flat_series_is_no_decay():
    times = np.arange(0.0, 10.5, 0.5)
    fit = fit_rate(_series(times, np.full(len(times), 0.5), 1e-3))
    assert fit.verdict == "NoDecay"


def test_fit_rate_window_too_short():
    times = np.arange(0.0, 20.5, 0.5)
    with pytest.raises(WindowTooShort):
        fit_rate(_series(times, np.exp(-5.0 * times), 0.01))


def test_fit_summary_fields():
    times = np.arange(0.0, 15.5, 0.5)
    text = fit_rate(_series(times, 0.8 * np.exp(-0.3 * times), 1e-9)).summary()
    for key in ("gamma=", "gamma_stderr=", "C=", "r2=", "window_lo=",
                "window_hi=", "noise_floor=", "points_used=", "verdict="):
        assert key in text


# -- temporal distance ---------------------------------------------------------


def test_temporal_distance_closed_form_exact():
    susp = _xsq_susp()
    x, y, depth = Fraction(1, 5), Fraction(2, 5), 6
    td = temporal_distance(susp, x, y, depth)
    expected = (y * y - x * x) * (1 - Fraction(1, 4) ** depth) / 3
    assert td.value == expected
    assert isinstance(td.value, Fraction)
    assert td.past == (0,) * depth
    # certified truncation: branch Lipschitz 1, contraction 1/2
    assert td.truncation_bound == pytest.approx(float(y - x) * 0.5**depth / 0.5)
    # the bound dominates the dropped tail of the infinite sum
    tail = float((y * y - x * x) * Fraction(1, 4) ** depth / 3)
    assert tail <= td.truncation_bound


def test_temporal_distance_antisymmetric():
    susp = _xsq_susp()
    a = temporal_distance(susp, Fraction(1, 5), Fraction(2, 5), 5)
    b = temporal_distance(susp, Fraction(2, 5), Fraction(1, 5), 5)
    assert a.value == -b.value


def test_temporal_distance_constant_roof_vanishes():
    susp = _const_susp()
    td = temporal_distance(susp, Fraction(1, 5), Fraction(2, 5), 8)
    assert td.value == 0


def test_temporal_distance_inadmissible_past_raises():
    base = three_branch_map()
    susp = suspend(base, polynomial_roof(base, (Fraction(1), Fraction(0), Fraction(1))))
    # the first branch's image misses its own cell, so symbol 0 cannot
    # precede points sitting in cell 0
    with pytest.raises(BracketUndefined):
        temporal_distance(susp, Fraction(1, 10), Fraction(1, 5), 1, past=(0,))


def test_temporal_distance_validates_arguments():
    susp = _xsq_susp()
    with pytest.raises(ValueError):
        temporal_distance(susp, Fraction(1, 5), Fraction(2, 5), 0)
    with pytest.raises(ValueError):
        temporal_distance(susp, Fraction(1, 5), Fraction(2, 5), 3, past=(0, 1))
    with pytest.raises(ValueError):
        temporal_distance(susp, Fraction(1, 5), Fraction(2, 5), 1, past=(7,))


def _pairwise_td(susp, x, y, depth, past=None):
    """Step-by-step oracle: pull both points back together, summing differences."""
    bm, roof = susp.base_map, susp.roof
    chain = tuple(past[:depth]) if past is not None else (0,) * depth
    exact = roof.exact and isinstance(x, Fraction) and isinstance(y, Fraction)
    px, py = (Fraction(x), Fraction(y)) if exact else (float(x), float(y))
    total = Fraction(0) if exact else 0.0
    for k in chain:
        for p in (px, py):
            try:
                cell = bm.cell_index(p)
            except BoundaryPoint as exc:
                raise BracketUndefined("boundary") from exc
            if not bm.admissible(k, cell):
                raise BracketUndefined("inadmissible")
        px, py = bm.branches[k].inverse(px), bm.branches[k].inverse(py)
        total += roof.value(py) - roof.value(px)
    return total


def _grid(g):
    return [Fraction(2 * i + 1, 2 * g) for i in range(g)]


@pytest.mark.parametrize(
    "roof",
    [
        polynomial_roof(doubling_map(), (1, 0, 1)),
        per_branch_polynomial_roof(doubling_map(), [(1,), (Fraction(3, 2),)]),
    ],
    ids=["one_plus_x_squared", "per_branch"],
)
def test_temporal_distance_matches_pairwise_oracle_on_grid(roof):
    susp = suspend(roof.base, roof)
    for x in _grid(16):
        for y in _grid(16):
            td = temporal_distance(susp, x, y, 30)
            assert isinstance(td.value, Fraction)
            assert td.value == _pairwise_td(susp, x, y, 30)


def test_temporal_distance_matches_pairwise_oracle_on_mixed_past():
    # symbol 0's image misses cell 0, so points in cell 0 cannot take it first
    base = three_branch_map()
    susp = suspend(base, polynomial_roof(base, (1, Fraction(1, 2), 1)))
    past = (0, 1, 2, 0, 2, 1, 1, 0, 1, 2, 0, 2)
    answered = refused = 0
    for x in _grid(12):
        for y in _grid(12):
            try:
                want = _pairwise_td(susp, x, y, 12, past)
            except BracketUndefined:
                with pytest.raises(BracketUndefined):
                    temporal_distance(susp, x, y, 12, past=past)
                refused += 1
            else:
                assert temporal_distance(susp, x, y, 12, past=past).value == want
                answered += 1
    assert answered > 0 and refused > 0


def _counting(roof):
    seen = []

    def value(x):
        seen.append(type(x))
        return roof.value(x)

    return replace(roof, value=value), seen


def test_temporal_distance_pulls_back_each_grid_point_once():
    roof, seen = _counting(polynomial_roof(doubling_map(), (1, 0, 1)))
    susp = suspend(roof.base, roof)
    g, depth = 6, 7
    for x in _grid(g):
        for y in _grid(g):
            temporal_distance(susp, x, y, depth)
    assert len(seen) == g * depth


def test_temporal_distance_keeps_float_points_off_exact_sums():
    roof, seen = _counting(polynomial_roof(doubling_map(), (1, 0, 1)))
    susp = suspend(roof.base, roof)
    exact = temporal_distance(susp, Fraction(1, 32), Fraction(3, 32), 10)
    assert isinstance(exact.value, Fraction) and set(seen) == {Fraction}
    del seen[:]
    # 0.03125 == Fraction(1, 32) and hashes alike, yet it is pulled back again
    floats = temporal_distance(susp, 0.03125, 0.09375, 10)
    assert isinstance(floats.value, float)
    assert len(seen) == 20 and set(seen) == {float}
    assert floats.value == pytest.approx(float(_pairwise_td(susp, 0.03125, 0.09375, 10)), abs=1e-14)
    assert floats.value == pytest.approx(float(exact.value), abs=1e-14)


def test_temporal_distance_inadmissible_chain_stores_nothing():
    base = three_branch_map()
    susp = suspend(base, polynomial_roof(base, (1, 0, 1)))
    x, y = Fraction(1, 10), Fraction(1, 5)  # both in cell 0, which symbol 0 cannot precede
    for _ in range(2):
        with pytest.raises(BracketUndefined):
            temporal_distance(susp, x, y, 1, past=(0,))
    assert susp._backward_sums == {}
    # an admissible first point keeps its sum; the refused one leaves none
    with pytest.raises(BracketUndefined):
        temporal_distance(susp, Fraction(1, 2), y, 1, past=(0,))
    assert [key[1] for key in susp._backward_sums] == [Fraction(1, 2)]


# -- observables and plots -------------------------------------------------------


def test_default_observables_names():
    assert [name for name, _, _ in default_observables(_xsq_susp())] == ["height_mix"]
    assert [name for name, _, _ in default_observables(_solenoid_susp())] == [
        "height_mix",
        "fiber_first",
        "fiber_last",
    ]


def test_svg_log_plot_smoke():
    times = np.arange(0.0, 15.5, 0.5)
    series = _series(times, 0.8 * np.exp(-0.3 * times), 1e-6)
    fit = fit_rate(series)
    text = svg_log_plot(series, fit)
    assert text.startswith("<svg") or "<svg" in text
    assert "</svg>" in text
