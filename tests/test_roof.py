"""Cohomology searches, coboundary certificates, and roof perturbations."""

import itertools
from dataclasses import replace
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab import roof as roof_module
from mixlab.errors import InadmissibleItinerary, InvalidRoof
from mixlab.markov_maps import (
    AffineBranch,
    ExpandingMarkovMap,
    doubling_map,
    expanding_circle_map,
    three_branch_map,
)
from mixlab.roof import (
    ENCLOSURE_RTOL,
    _horner,
    WITNESS_THRESHOLD,
    CohomologyReport,
    Witness,
    certify_coboundary,
    constant_roof,
    cosine_roof,
    enumerate_cyclic_classes,
    per_branch_polynomial_roof,
    perturb_bump,
    polynomial_roof,
    witness_search,
)
from mixlab.suspension import suspend

GAP = Fraction(4, 45)  # 26/5 - 46/9, the period-4 obstruction for 1 + x^2


def xsq_roof():
    return polynomial_roof(doubling_map(), (Fraction(1), Fraction(0), Fraction(1)))


def birkhoff_sum(roof, x, n):
    """Oracle: the sum of r along x, f x, ..., f^(n-1) x by forward iteration.

    Exact for a Rational x on an exact roof, float otherwise.
    """
    exact = roof.exact and isinstance(x, Rational)
    total = Fraction(0) if exact else 0.0
    y = Fraction(x) if exact else float(x)
    m = roof.base
    for _ in range(n):
        total += roof.value(y)
        y = m.branches[m.cell_index(y)].forward(y) if exact else float(m.evaluate_many(y))
    return total


# ---------------------------------------------------------------------------
# witness search, exact route


def test_witness_for_one_plus_x_squared_is_exact():
    report = witness_search(xsq_roof(), max_period=4)
    assert report.verdict == "WitnessFound"
    w = report.witness
    assert w.period == 4
    assert {w.sum1, w.sum2} == {Fraction(26, 5), Fraction(46, 9)}
    assert w.gap == GAP
    assert isinstance(w.gap, Fraction)


def test_witness_orbit_segments_share_visit_counts():
    w = witness_search(xsq_roof(), max_period=4).witness
    assert sorted(w.itinerary1) == sorted(w.itinerary2)
    assert w.itinerary1 != w.itinerary2


def test_witness_sums_confirmed_by_forward_iteration():
    # independent route: Birkhoff sums from the stored periodic points
    roof = xsq_roof()
    w = witness_search(roof, max_period=4).witness
    assert birkhoff_sum(roof, w.x1, w.period) == w.sum1
    assert birkhoff_sum(roof, w.x2, w.period) == w.sum2


def test_float_birkhoff_sum_survives_an_image_rounded_onto_domain_hi():
    # 6 * 0.8333333333333333 - 4 rounds to 1.0, which lies outside [0, 1)
    roof = polynomial_roof(expanding_circle_map(6), (1, 0, 1))
    total = birkhoff_sum(roof, 0.8333333333333333, 3)
    assert total == pytest.approx(1 + 0.8333333333333333**2 + 2 + 2, abs=1e-14)


def test_witness_float_route_close_to_exact():
    roof = polynomial_roof(doubling_map(), (1.0, 0.0, 1.0))
    report = witness_search(roof, max_period=4)
    assert report.verdict == "WitnessFound"
    assert abs(report.witness.gap - float(GAP)) <= 1e-12


def _rotation_set_classes(m, period):
    """The rotation-set enumeration: every word, one canonical rotation per class."""
    seen = set()
    for word in itertools.product(range(m.n_cells), repeat=period):
        if word in seen:
            continue
        rotations = {word[i:] + word[:i] for i in range(period)}
        seen |= rotations
        canon = min(rotations)
        if any(
            period % q == 0 and canon == canon[:q] * (period // q) for q in range(1, period)
        ):
            continue
        try:
            m.check_itinerary(canon)
        except InadmissibleItinerary:
            continue
        yield canon


@pytest.mark.parametrize(
    "m, max_period",
    [(doubling_map(), 10), (three_branch_map(), 8), (expanding_circle_map(3), 8),
     (expanding_circle_map(4), 6)],
)
def test_lyndon_generator_matches_rotation_sets(m, max_period):
    for p in range(1, max_period + 1):
        assert list(enumerate_cyclic_classes(m, p)) == list(_rotation_set_classes(m, p))


def test_witness_csv_carries_tolerance_column():
    csv_text = witness_search(xsq_roof(), max_period=4).to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "itinerary1,itinerary2,sum1,sum2,gap,tolerance"
    assert lines[1].endswith(",0")  # exact rational sums
    assert "4/45" in lines[1]


def _all_pairs_witness(roof, max_period, threshold=WITNESS_THRESHOLD):
    """All-pairs oracle: every two closed orbits of period p with equal visit
    counts are compared; the largest gap wins, ties to the smallest words."""
    m = roof.base
    laps = {}
    for q in range(1, max_period + 1):
        laps[q] = []
        for word in _rotation_set_classes(m, q):
            walk = m.orbit_walk(word)
            if walk is not None:
                orbit = [Fraction(num, den) for _, num, den in walk]
                laps[q].append((word, orbit[0], sum(roof.value(x) for x in orbit)))
    for p in range(2, max_period + 1):
        orbits = sorted(
            (word * (p // q), x0, lap * (p // q))
            for q in range(1, p + 1) if p % q == 0 for word, x0, lap in laps[q]
        )
        cands = [
            (abs(s1 - s2), w1, w2, x1, x2, s1, s2)
            for (w1, x1, s1), (w2, x2, s2) in itertools.combinations(orbits, 2)
            if all(w1.count(c) == w2.count(c) for c in range(m.n_cells))
            and abs(s1 - s2) > threshold
        ]
        if cands:
            _, w1, w2, x1, x2, s1, s2 = min(cands, key=lambda c: (-c[0], c[1], c[2]))
            return CohomologyReport(Witness(w1, w2, x1, x2, s1, s2), p, "WitnessFound")
    return CohomologyReport(None, max_period, "NoWitnessUpToPeriod")


def _bumped_xsq(center):
    # 1 + x^2 plus a bump of height 1/2 and radius 1/60; the period-4 witness
    # orbits are 0011 through 1/5 and 0101 through 1/3
    return perturb_bump(xsq_roof(), center, Fraction(1, 60), Fraction(1, 2))


@pytest.mark.parametrize(
    "roof, max_period, gap",
    [
        (xsq_roof(), 4, GAP),
        (polynomial_roof(doubling_map(), (1.0, 0.0, 1.0)), 4, GAP),
        (polynomial_roof(doubling_map(), (Fraction(1), Fraction(1))), 12, None),
        (constant_roof(three_branch_map(), Fraction(3, 2)), 6, None),
        # on the 0001 orbit through 1/15 only: the witness keeps its gap
        (_bumped_xsq(Fraction(1, 15)), 4, GAP),
        # on 0011's point 1/5: its lap gains the bump's peak
        (_bumped_xsq(Fraction(1, 5)), 4, GAP + Fraction(1, 2)),
    ],
    ids=[
        "one_plus_x_squared", "float_one_plus_x_squared", "one_plus_x", "constant_three_branch",
        "bump_off_witness", "bump_on_witness",
    ],
)
def test_witness_search_matches_all_pairs_oracle(roof, max_period, gap):
    report = witness_search(roof, max_period)
    assert report == _all_pairs_witness(roof, max_period)
    assert report.found == (gap is not None)
    if report.found and roof.exact:
        assert report.witness.gap == gap


@given(
    st.lists(
        st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=16), min_size=1, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=15, deadline=None)
def test_witness_search_matches_all_pairs_oracle_on_random_roofs(tails):
    roof = per_branch_polynomial_roof(three_branch_map(), [[Fraction(4)] + t for t in tails])
    assert witness_search(roof, 4) == _all_pairs_witness(roof, 4)


def test_group_spread_equal_to_threshold_gives_no_witness(monkeypatch):
    # at period 4 the only same-visit group of 1 + x^2 is {0011, 0101}, spread 4/45
    roof = xsq_roof()
    monkeypatch.setattr(roof_module, "WITNESS_THRESHOLD", GAP)
    assert witness_search(roof, 4).verdict == "NoWitnessUpToPeriod"
    assert _all_pairs_witness(roof, 4, threshold=GAP).verdict == "NoWitnessUpToPeriod"
    below = GAP - Fraction(1, 10**30)
    monkeypatch.setattr(roof_module, "WITNESS_THRESHOLD", below)
    assert witness_search(roof, 4) == _all_pairs_witness(roof, 4, threshold=below)
    assert witness_search(roof, 4).witness.gap == GAP


# ---------------------------------------------------------------------------
# coboundary certificates


def test_one_plus_x_is_coboundary_of_identity():
    roof = polynomial_roof(doubling_map(), (Fraction(1), Fraction(1)))
    residual = certify_coboundary(roof, lambda x: x)
    assert residual <= 1e-12
    assert witness_search(roof, max_period=8).verdict == "NoWitnessUpToPeriod"


def test_constant_roof_needs_no_transfer_term():
    roof = constant_roof(doubling_map(), Fraction(3, 2))
    assert certify_coboundary(roof, lambda x: 0 * x) == 0
    assert witness_search(roof, max_period=6).verdict == "NoWitnessUpToPeriod"


def _coboundary_roof(base, a: Fraction, b: Fraction):
    """r = c + gamma o f - gamma for gamma(x) = a x + b x^2, c large enough."""
    c = 1 + 2 * (abs(a) + 3 * abs(b))
    table = []
    for br in base.branches:
        s, t = br.slope, br.intercept
        c0 = c + a * t + b * t * t
        c1 = a * s + 2 * b * s * t - a
        c2 = b * s * s - b
        table.append((c0, c1, c2))
    gamma = lambda x: a * x + b * x * x
    return per_branch_polynomial_roof(base, table), gamma


@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
)
@settings(max_examples=15, deadline=None)
def test_coboundaries_never_produce_witnesses(a, b):
    roof, gamma = _coboundary_roof(doubling_map(), a, b)
    assert certify_coboundary(roof, gamma) <= 1e-10
    assert WITNESS_THRESHOLD == 1e-10
    report = witness_search(roof, max_period=5)
    assert report.verdict == "NoWitnessUpToPeriod"
    assert report == _all_pairs_witness(roof, 5, threshold=1e-10)


def test_certificate_rejects_wrong_transfer_term():
    roof = xsq_roof()
    residual = certify_coboundary(roof, lambda x: x)
    assert residual > 1e-3  # 1 + x^2 is not cohomologous via gamma(x) = x


# ---------------------------------------------------------------------------
# certified constants against a probe oracle


GRID = 2**16


def _probe(roof, extra=()):
    """Grid minimum and maximum of the roof, and the largest slope of r o h.

    The grid has GRID points across the domain, plus `extra`.  A slope of
    r o h over an inverse branch h is |r(x') - r(x)| / (|slope| (x' - x)) for
    neighbouring grid points x < x' in one cell, which the mean value
    theorem bounds by the roof's `branch_lipschitz`.
    """
    m = roof.base
    grid = np.linspace(float(m.domain_lo), float(m.domain_hi), GRID + 1)[:-1]
    xs = np.unique(np.concatenate([grid, np.asarray(extra, dtype=float)]))
    vals = roof.value_many(xs)
    cells = np.searchsorted(m.edges_f[1:-1], xs, side="right")
    same = cells[1:] == cells[:-1]
    rises = np.abs(np.diff(vals)) / (np.diff(xs) * np.abs(m.slopes_f[cells[:-1]]))
    return float(vals.min()), float(vals.max()), float(rises[same].max(initial=0.0))


def _oracle_accepts(roof):
    lo, hi, rise = _probe(roof)
    return (
        float(roof.lower_bound) <= lo + 1e-12
        and float(roof.upper_bound) >= hi - 1e-12
        # float rounding of neighbouring values, divided by the grid step
        and rise <= float(roof.branch_lipschitz) * (1 + 1e-6) + 1e-8
    )


def _assert_tight(roof, slope_sup):
    # the grid misses an extreme between its points, or at domain_hi, by at
    # most one step times sup |r'|
    lo, hi, _ = _probe(roof)
    slack = float(ENCLOSURE_RTOL) * max(abs(lo), abs(hi)) + slope_sup / GRID
    assert float(roof.lower_bound) >= lo - slack
    assert float(roof.upper_bound) <= hi + slack


def test_validate_accepts_builtin_roofs():
    assert _oracle_accepts(xsq_roof())
    assert _oracle_accepts(cosine_roof(doubling_map(), 2, Fraction(1, 2)))
    assert _oracle_accepts(
        per_branch_polynomial_roof(three_branch_map(), [(1,), (2,), (Fraction(3, 2),)])
    )


def test_roof_must_be_positive():
    with pytest.raises(InvalidRoof):
        polynomial_roof(doubling_map(), (Fraction(0), Fraction(1)))  # r(0) = 0
    with pytest.raises(InvalidRoof, match=r"need mean > \|amplitude\|"):
        cosine_roof(doubling_map(), 1, 2)


def test_per_branch_roof_needs_one_list_per_cell():
    with pytest.raises(InvalidRoof, match="got 1 for 2 cells"):
        per_branch_polynomial_roof(doubling_map(), [(1,)])


def test_roof_bounds_span_the_whole_domain():
    # three_branch stretched onto [0, 3): 1 + x^2 climbs to 10 there
    stretched = ExpandingMarkovMap(
        [
            AffineBranch(Fraction(0), Fraction(1), Fraction(2), Fraction(1)),
            AffineBranch(Fraction(1), Fraction(2), Fraction(3), Fraction(-3)),
            AffineBranch(Fraction(2), Fraction(3), Fraction(3), Fraction(-6)),
        ],
        [[0, 1, 1], [1, 1, 1], [1, 1, 1]],
        expansion_bound=1 / 2,
    )
    roof = polynomial_roof(stretched, (1, 0, 1))
    assert (roof.lower_bound, roof.upper_bound) == (1, 10)
    # doubling on [2, 4) under a roof of 1 on the left cell and 2 on the right
    shifted = ExpandingMarkovMap(
        [
            AffineBranch(Fraction(2), Fraction(3), Fraction(2), Fraction(-2)),
            AffineBranch(Fraction(3), Fraction(4), Fraction(2), Fraction(-4)),
        ],
        [[1, 1], [1, 1]],
        expansion_bound=1 / 2,
    )
    roof = per_branch_polynomial_roof(shifted, [(1,), (2,)])
    assert (roof.lower_bound, roof.upper_bound) == (1, 2)
    assert _oracle_accepts(roof)


def test_validate_flags_false_lipschitz_claim():
    roof = replace(xsq_roof(), branch_lipschitz=Fraction(1, 100))
    assert not _oracle_accepts(roof)


def test_committed_roof_constants_are_unchanged():
    # the configs' roofs 1 + x^2 and 1; the constant roof's Lipschitz constant is exactly 0
    for roof, constants in ((xsq_roof(), (1, 2, 1)), (constant_roof(doubling_map(), 1), (1, 1, 0))):
        assert (roof.lower_bound, roof.upper_bound, roof.branch_lipschitz) == constants


def test_mixed_sign_roof_keeps_its_exact_lower_bound():
    # 1 + x - x^2 >= 1 on [0, 1], with equality at both ends
    roof = polynomial_roof(doubling_map(), (1, 1, -1))
    assert roof.lower_bound == 1
    assert roof.upper_bound == Fraction(5, 4)
    assert _oracle_accepts(roof)


@pytest.mark.parametrize(
    "coeffs, inf, sup",
    [
        ((2, 1, -1), 2, Fraction(9, 4)),  # maximum at the midpoint 1/2
        ((2, 1, Fraction(-3, 2)), Fraction(3, 2), Fraction(13, 6)),  # maximum at 1/3
    ],
)
def test_mixed_sign_roof_bounds_are_tight(coeffs, inf, sup):
    roof = polynomial_roof(doubling_map(), coeffs)
    assert inf * 0.99 <= roof.lower_bound <= inf
    assert sup <= roof.upper_bound <= sup * 1.01
    assert _oracle_accepts(roof)


def test_tight_envelope_raises_sampler_acceptance():
    # 2 + x - x^2 has mean 13/6 and supremum 9/4, so 26/27 of proposals pass
    roof = polynomial_roof(doubling_map(), (2, 1, -1))
    susp = suspend(roof.base, roof)
    assert susp.mean_roof / susp.roof_sup >= 0.95


# ---------------------------------------------------------------------------
# perturbations


def test_bump_is_local_and_exact_outside_support():
    roof = xsq_roof()
    bumped = perturb_bump(roof, Fraction(1, 8), Fraction(1, 16), Fraction(1, 2))
    inside = Fraction(1, 8)
    outside = [Fraction(1, 3), Fraction(3, 4), Fraction(1, 16), Fraction(9, 10)]
    assert bumped.value(inside) == roof.value(inside) + Fraction(1, 2)
    for x in outside:
        assert bumped.value(x) == roof.value(x)  # exact rational equality


def test_bump_peak_value_is_amplitude():
    roof = constant_roof(doubling_map(), 2)
    bumped = perturb_bump(roof, Fraction(1, 4), Fraction(1, 8), Fraction(1, 3))
    assert bumped.value(Fraction(1, 4)) - roof.value(Fraction(1, 4)) == Fraction(1, 3)


def test_bump_amplitude_capped_by_lower_bound():
    roof = constant_roof(doubling_map(), 1)
    with pytest.raises(InvalidRoof):
        perturb_bump(roof, Fraction(1, 2), Fraction(1, 8), Fraction(3, 2))
    with pytest.raises(InvalidRoof, match="radius must be positive"):
        perturb_bump(roof, Fraction(1, 2), Fraction(0), Fraction(1, 2))


def test_witness_survives_disjoint_bump():
    # supports avoiding both orbits leave all period-4 sums untouched
    roof = xsq_roof()
    w = witness_search(roof, max_period=4).witness
    bumped = perturb_bump(roof, Fraction(1, 100), Fraction(1, 200), Fraction(1, 2))
    after = witness_search(bumped, max_period=4).witness
    assert after.gap == w.gap


# ---------------------------------------------------------------------------
# certified constants on random data


_COEFF = st.fractions(min_value=-1, max_value=1, max_denominator=16)
_COEFF_OR_ZERO = st.one_of(st.just(Fraction(0)), _COEFF)


@given(st.lists(_COEFF, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_polynomial_upper_bound_covers_values(tail):
    roof = polynomial_roof(doubling_map(), [Fraction(5)] + tail)
    assert _oracle_accepts(roof)
    _assert_tight(roof, slope_sup=10)  # |p'| <= 1 + 2 + 3 + 4 on [0, 1]


@given(st.lists(st.lists(_COEFF, min_size=1, max_size=3), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_per_branch_upper_bound_covers_values(tails):
    roof = per_branch_polynomial_roof(three_branch_map(), [[Fraction(4)] + t for t in tails])
    assert _oracle_accepts(roof)
    _assert_tight(roof, slope_sup=6)  # |p'| <= 1 + 2 + 3 on [0, 1]


@given(
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=-0.9, max_value=0.9),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_cosine_upper_bound_covers_values(mean, amplitude, frequency):
    roof = cosine_roof(doubling_map(), mean, amplitude, frequency)
    assert roof.upper_bound >= _probe(roof)[1] - 1e-12


@given(
    st.lists(_COEFF, min_size=1, max_size=3),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=4096),
    st.fractions(min_value=Fraction(1, 10**5), max_value=Fraction(1, 10), max_denominator=10**5),
    st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=64),
)
@settings(max_examples=25, deadline=None)
def test_bumped_upper_bound_covers_values(tail, center, radius, amplitude):
    # the grid includes the bump's center, where it peaks, however narrow it is
    roof = polynomial_roof(doubling_map(), [Fraction(4)] + tail)
    bumped = perturb_bump(roof, center, radius, amplitude)
    assert float(bumped.upper_bound) >= _probe(bumped, [center])[1] - 1e-12


# ---------------------------------------------------------------------------
# the integer Horner evaluator against _horner


def _value_probes(m):
    """Rational points of every cell, float points, and a numpy float."""
    points = [Fraction(0), 0, Fraction(1, 3) + Fraction(1, 2**80), Fraction(99999, 100000)]
    points += [Fraction(k, 97) for k in range(97)] + [Fraction(2 * k + 1, 2**40) for k in range(9)]
    # the temporal-distance grid and deep pull-backs along 2- and 3-adic branches
    points += [Fraction(2 * k + 1, 32) for k in range(16)]
    points += [Fraction(1, 2**61), Fraction(2**61 - 1, 2**61), Fraction(7, 6 * 2**50)]
    points += [Fraction(3**25 - 1, 3**26), Fraction(2 * 3**25 + 1, 3**26)]
    points += [0.0, 0.1, 1 / 3, 0.75, np.float64(0.7)]
    return [x for x in points if m.domain_lo <= x < m.domain_hi]


def _assert_same_value(got, want):
    assert got == want and type(got) is type(want), (got, want)


@pytest.mark.parametrize(
    "coeffs",
    [
        (Fraction(3, 2),),
        (5,),
        (1, 0, 1),
        (2, 1, -1),
        (Fraction(7, 3), Fraction(-1, 6), 0, Fraction(5, 4)),
        (4, Fraction(1, 3), 0),  # a zero leading coefficient
        (Fraction(9, 2), 0, 0, 0, Fraction(-1, 10**12)),
    ],
)
def test_polynomial_roof_value_is_horner_exactly(coeffs):
    roof = polynomial_roof(three_branch_map(), coeffs)
    cs = tuple(Fraction(c) for c in coeffs)
    for x in _value_probes(roof.base):
        _assert_same_value(roof.value(x), _horner(cs, x))
    # the float path is numpy's polyval, bit for bit
    xs = np.array([float(x) for x in _value_probes(roof.base)])
    want = np.polynomial.polynomial.polyval(xs, [float(c) for c in cs])
    assert roof.value_many(xs).tobytes() == want.tobytes()


@given(st.lists(st.lists(_COEFF_OR_ZERO, min_size=1, max_size=4), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_per_branch_roof_value_is_horner_exactly(tails):
    table = [[Fraction(5)] + t for t in tails]
    roof = per_branch_polynomial_roof(three_branch_map(), table)
    m = roof.base
    for x in _value_probes(m):
        _assert_same_value(roof.value(x), _horner(table[m.cell_index(x)], x))
    # the float path is numpy's polyval, bit for bit, on each float's exact
    # cell (float(1/3) lies below 1/3, in cell 0)
    xs = np.array([float(x) for x in _value_probes(m)])
    cells = [sum(Fraction(x) >= e for e in m.edges[1:-1]) for x in xs]
    want = [np.polynomial.polynomial.polyval(x, [float(c) for c in table[k]]) for x, k in zip(xs, cells)]
    assert roof.value_many(xs).tobytes() == np.array(want).tobytes()


def test_float_coefficients_keep_the_float_horner():
    roof = polynomial_roof(doubling_map(), (1.0, 0.0, 1.0))
    for x in _value_probes(roof.base):
        _assert_same_value(roof.value(x), _horner((1.0, 0.0, 1.0), x))
