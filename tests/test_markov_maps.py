"""Exact-path and property tests for the interval map layer."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab.errors import (
    BoundaryPoint,
    DepthOverflow,
    InadmissibleItinerary,
    InexactBranch,
    InsufficientDepth,
    NoReturn,
)
from mixlab.markov_maps import (
    RETURN_PATH_BUDGET,
    AffineBranch,
    ExpandingMarkovMap,
    _excursion_paths,
    doubling_map,
    expanding_circle_map,
    low_discrepancy,
    tail_statistics,
    three_branch_map,
)
from mixlab.roof import per_branch_polynomial_roof

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# evaluation and boundary policy


def _step(m, x):
    """(f(x), cell of x) by the scalar route: cell_index, then that branch."""
    k = m.cell_index(x)
    return m.branches[k].forward(x), k


def test_doubling_evaluates_exactly_on_rationals():
    m = doubling_map()
    y, k = _step(m, Fraction(1, 3))
    assert (y, k) == (Fraction(2, 3), 0)
    y, k = _step(m, Fraction(2, 3))
    assert (y, k) == (Fraction(1, 3), 1)
    assert isinstance(y, Fraction)


def test_inner_partition_edge_is_strict_by_default():
    m = doubling_map()
    with pytest.raises(BoundaryPoint):
        _step(m, HALF)
    # the float path takes cells half-open: 1/2 opens cell 1
    assert m.evaluate_many([0.5])[0] == 0.0


def test_domain_endpoints():
    m = doubling_map()
    assert m.cell_index(Fraction(0)) == 0
    with pytest.raises(BoundaryPoint):
        m.cell_index(Fraction(1))
    with pytest.raises(BoundaryPoint):
        m.cell_index(Fraction(-1, 10))


def test_evaluate_many_matches_scalar_route():
    m = three_branch_map()
    xs = np.array([0.1, 0.25, 0.4, 0.55, 0.7, 0.95])
    ys = m.evaluate_many(xs)
    for x, y in zip(xs, ys):
        assert y == pytest.approx(float(_step(m, Fraction(x).limit_denominator(10**6))[0]), abs=1e-12)


def test_evaluate_many_stays_below_domain_hi():
    # 0.8333333333333333 lies below 5/6, and 6x - 4 on that cell rounds to
    # exactly 1.0: outside [0, 1) and a float fixed point of every later step
    m = expanding_circle_map(6)
    y = m.evaluate_many([0.8333333333333333])
    assert y[0] == math.nextafter(1.0, 0.0)  # clamped to the float just below 1
    assert m.evaluate_many(y)[0] < 1.0


@pytest.mark.parametrize(
    "m", [doubling_map(), three_branch_map(), expanding_circle_map(3), expanding_circle_map(5)]
)
def test_evaluate_many_cell_search_matches_clipped_edge_search(m):
    # the inner-edge search against the clip of a search over all edges, each
    # edge raised to the smallest float at or above it (1/3 to just above 1/3)
    edges = np.array([math.nextafter(float(e), math.inf) if float(e) < e else float(e) for e in m.edges])
    probes = [m.edges_f, np.nextafter(m.edges_f, np.inf), np.nextafter(m.edges_f, -np.inf),
              np.random.default_rng(3).uniform(-0.2, 1.2, 100_000),
              np.array([np.inf, -np.inf, np.nan, -0.0])]
    x = np.concatenate(probes)
    old_k = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, m.n_cells - 1)
    assert np.array_equal(np.searchsorted(m._inner_edges_f, x, side="right"), old_k)
    top = math.nextafter(float(m.domain_hi), -math.inf)
    old = m.slopes_f[old_k] * x + m.intercepts_f[old_k]
    old = np.where(old == np.inf, old, np.minimum(old, top))  # only finite images are clamped
    assert m.evaluate_many(x).tobytes() == old.tobytes()


@pytest.mark.parametrize(
    "m",
    [doubling_map(), three_branch_map(), expanding_circle_map(5), expanding_circle_map(20)],
    ids=["doubling", "three_branch", "circle_5", "circle_20"],
)
def test_cells_many_counts_what_the_threshold_search_finds(m):
    # every threshold, edge and neighbour of either, signed zeros and infinities
    t, e = m._inner_edges_f, m.edges_f
    x = np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf), e,
                        np.nextafter(e, np.inf), np.nextafter(e, -np.inf),
                        np.random.default_rng(5).uniform(-0.2, 1.2, 10_000),
                        np.array([0.0, -0.0, np.inf, -np.inf])])
    k = m.cells_many(x)
    assert k.dtype == np.min_scalar_type(m.n_cells) and k.shape == x.shape
    assert np.array_equal(k, np.searchsorted(t, x, side="right"))
    # NaN reaches no threshold; its image is NaN from any cell
    x = np.append(x, np.nan)
    k = np.searchsorted(t, x, side="right")
    top = math.nextafter(float(m.domain_hi), -math.inf)
    want = m.slopes_f[k] * x + m.intercepts_f[k]
    want = np.where(want == np.inf, want, np.minimum(want, top))  # only finite images are clamped
    assert m.cells_many(np.nan) == 0 and np.isnan(m.evaluate_many(np.nan))
    assert m.evaluate_many(x).tobytes() == want.tobytes()
    # a 0-d input gives a 0-d cell and the image a one-point array gets
    for p in (0.3, t[0], np.inf, -np.inf):
        assert m.cells_many(p).shape == () and m.cells_many(p) == m.cells_many([p])[0]
        assert np.asarray(m.evaluate_many(p)).tobytes() == m.evaluate_many(np.array([p])).tobytes()


@pytest.mark.parametrize(
    "m", [doubling_map(), three_branch_map(), expanding_circle_map(5)],
    ids=["doubling", "three_branch", "circle_5"],
)
def test_evaluate_many_keeps_non_finite_points_non_finite(m):
    # +inf is not clamped onto the float below domain_hi: no non-finite
    # point becomes an ordinary in-domain point, on either side
    y = m.evaluate_many(np.array([np.inf, -np.inf, np.nan, 0.3]))
    assert y[0] == np.inf and y[1] == -np.inf and np.isnan(y[2])
    assert y[3] == m.evaluate_many(np.array([0.3]))[0] and 0.0 <= y[3] < 1.0
    for p in (np.inf, -np.inf):
        assert m.evaluate_many(p) == p
    assert np.isnan(m.evaluate_many(np.nan))


def _exact_cell(m, x):
    """Half-open cell of x by exact comparison with m.edges; None outside the domain."""
    q = Fraction(x)
    if not m.edges[0] <= q < m.edges[-1]:
        return None
    return max(i for i in range(m.n_cells) if m.edges[i] <= q)


def _on_inner_edge(m, x, k):
    return k > 0 and Fraction(x) == m.edges[k]


@pytest.mark.parametrize("m", [doubling_map(), three_branch_map(), expanding_circle_map(5)])
def test_cell_index_float_search_matches_exact_edges(m, edge_probes):
    for x in edge_probes(m):
        want = _exact_cell(m, x)
        if want is None or _on_inner_edge(m, x, want):
            with pytest.raises(BoundaryPoint):
                m.cell_index(x)
        else:
            assert m.cell_index(x) == want, x


@pytest.mark.parametrize("m", [doubling_map(), three_branch_map(), expanding_circle_map(5)])
def test_float_routes_put_each_float_in_the_cell_of_cell_index(m, edge_probes):
    # evaluate_many and a per-branch roof's value_many agree with cell_index
    # beside every edge, float(1/3) included; on an edge a float represents,
    # where cell_index refuses, they take the half-open cell
    xs = np.array([float(x) for x in edge_probes(m)])
    xs = xs[(float(m.domain_lo) <= xs) & (xs < float(m.domain_hi))]
    cells = np.array([_exact_cell(m, x) for x in xs])
    for x, k in zip(xs, cells):
        if not _on_inner_edge(m, x, k):
            assert m.cell_index(x) == k, x
    top = math.nextafter(float(m.domain_hi), -math.inf)
    want = np.minimum(m.slopes_f[cells] * xs + m.intercepts_f[cells], top)
    assert m.evaluate_many(xs).tobytes() == want.tobytes()
    roof = per_branch_polynomial_roof(m, [(k + 1,) for k in range(m.n_cells)])
    assert np.array_equal(roof.value_many(xs), cells + 1.0)


def test_cell_index_ties_fall_back_to_exact_edges():
    # float(1/3) lies below 1/3 and rounds onto its float edge
    assert three_branch_map().cell_index(1 / 3) == 0
    assert three_branch_map().cell_index(Fraction(1, 3) + Fraction(1, 2**80)) == 1
    with pytest.raises(BoundaryPoint, match="partition boundary"):
        doubling_map().cell_index(0.5)
    # the float path agrees: float(1/3) is mapped by cell 0's branch 2x + 1/3
    assert three_branch_map().evaluate_many([1 / 3])[0] > 0.99
    for x in (math.nan, math.inf, Fraction(10**400, 3), -1e-300):
        with pytest.raises(BoundaryPoint):
            doubling_map().cell_index(x)


@given(st.integers(1, 2**20 - 1))
def test_doubling_orbit_stays_in_domain(num):
    # dyadic-free rationals never hit a partition edge under doubling
    m = doubling_map()
    x = Fraction(num, 2**20 + 1)
    for _ in range(30):
        x, _ = _step(m, x)
        assert 0 <= x < 1


def test_transition_matrix_of_builtins():
    assert doubling_map().transition == ((1, 1), (1, 1))
    assert three_branch_map().transition == ((0, 1, 1), (1, 1, 1), (1, 1, 1))
    assert expanding_circle_map(3).transition == ((1, 1, 1),) * 3


def test_admissibility_checks():
    m = three_branch_map()
    m.check_itinerary((0, 1, 2))  # cyclic word: 0->1, 1->2, 2->0 all allowed
    with pytest.raises(InadmissibleItinerary):
        m.check_itinerary((0, 0))
    with pytest.raises(InadmissibleItinerary):
        m.check_itinerary((0, 1, 2, 0))  # wraps 0->0


# ---------------------------------------------------------------------------
# axioms


def _row(report, axiom):
    return next(c for c in report.checks if c.axiom == axiom)


@pytest.mark.parametrize("m", [doubling_map(), three_branch_map(), expanding_circle_map(4)])
def test_builtin_maps_pass_axioms(m):
    report = m.validate_axioms()
    assert report.passed, report.to_csv()


def test_axioms_read_the_exact_branch_data():
    # x -> 3x mod 3*2^20 on three cells of width 2^20: a float round trip
    # through forward(inverse(y)) errs by ~1e-9 here, the exact data by 0
    w = Fraction(2**20)
    m = ExpandingMarkovMap(
        [AffineBranch(k * w, (k + 1) * w, Fraction(3), -3 * k * w) for k in range(3)],
        [[1, 1, 1]] * 3,
        expansion_bound=1 / 3,
    )
    report = m.validate_axioms()
    assert report.to_csv() == (
        "axiom,status,worst_probe,location,tolerance\n"
        "markov_images,pass,0,0,0\n"
        "expansion,pass,0.33333333333333331,0,0.33333333333433329\n"
    )
    # a claimed bound below the inverse slopes fails on the same exact data
    tight = ExpandingMarkovMap(m.branches, m.transition, expansion_bound=1 / 4)
    check = _row(tight.validate_axioms(), "expansion")
    assert (check.status, check.worst_probe, check.location) == ("fail", 1 / 3, 0.0)


def test_axioms_report_the_worst_branch_cell_start():
    m = three_branch_map()  # 1/|slope| is 1/2 on the first cell, 1/3 on the others
    report = m.validate_axioms()
    assert (_row(report, "expansion").worst_probe, _row(report, "expansion").location) == (0.5, 0.0)
    tight = ExpandingMarkovMap(m.branches, m.transition, expansion_bound=0.4)
    assert not _row(tight.validate_axioms(), "expansion").passed
    # flagging cell 0 for the first branch breaks its Markov image [1/3, 1)
    loose = ExpandingMarkovMap(m.branches, ((1, 1, 1), (1, 1, 1), (1, 1, 1)), 0.5)
    check = _row(loose.validate_axioms(), "markov_images")
    assert (check.status, check.worst_probe, check.location) == ("fail", 1 / 3, 0.0)


def test_axiom_report_rows_carry_tolerances():
    report = doubling_map().validate_axioms()
    header = report.to_csv().splitlines()[0]
    assert header == "axiom,status,worst_probe,location,tolerance"
    assert all(c.tolerance >= 0 for c in report.checks)


def test_expansion_bound_is_contraction_of_inverse():
    # doubling: |1/f'| = 1/2 everywhere, so the certified bound is 1/2
    assert doubling_map().expansion_bound == pytest.approx(0.5)
    assert expanding_circle_map(5).expansion_bound == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# periodic points


def test_periodic_points_of_doubling_words():
    m = doubling_map()
    # word 01: x in cell 0, 2x in cell 1, 4x - 1 = x, so x = 1/3
    assert m.orbit_walk((0, 1)) == [(0, 1, 3), (1, 2, 3)]


def test_periodic_orbit_cells_match_itinerary():
    m = three_branch_map()
    word = (0, 1, 2)
    for k, p, q in m.orbit_walk(word):
        assert m.cell_index(Fraction(p, q)) == k


# ---------------------------------------------------------------------------
# integer-triple kernels against the former Fraction definitions


def _tent_map():
    # 2x on [0, 1/2) and the orientation-reversing 2 - 2x on [1/2, 1)
    half = Fraction(1, 2)
    return ExpandingMarkovMap(
        (
            AffineBranch(Fraction(0), half, Fraction(2), Fraction(0)),
            AffineBranch(half, Fraction(1), Fraction(-2), Fraction(2)),
        ),
        ((1, 1), (1, 1)),
        expansion_bound=0.5,
        name="tent",
    )


def _three_halves_map():
    # (3/2) x on [0, 2/3) and 3x - 2 on [2/3, 1): forward triples with gamma = 2
    cut = Fraction(2, 3)
    return ExpandingMarkovMap(
        (
            AffineBranch(Fraction(0), cut, Fraction(3, 2), Fraction(0)),
            AffineBranch(cut, Fraction(1), Fraction(3), Fraction(-2)),
        ),
        ((1, 1), (1, 1)),
        expansion_bound=2 / 3,
        name="three_halves",
    )


KERNEL_MAPS = [
    doubling_map(), three_branch_map(), expanding_circle_map(5), _tent_map(), _three_halves_map()
]
KERNEL_IDS = ["doubling", "three_branch", "circle_5", "tent", "three_halves"]


def _fraction_periodic_point(m, itinerary):
    """The former definition: compose the inverses as Fractions a, c."""
    m.check_itinerary(itinerary)
    a, c = Fraction(1), Fraction(0)
    for k in reversed(itinerary):
        b = m.branches[k]
        a, c = a / b.slope, (c - b.intercept) / b.slope
    return c / (1 - a)


def _fraction_periodic_orbit(m, itinerary):
    """The former definition: forward iteration and comparisons in Fraction."""
    y = _fraction_periodic_point(m, itinerary)
    orbit = []
    for k in itinerary:
        b = m.branches[k]
        if not (b.lo < y < b.hi) and not (y == b.lo == m.domain_lo):
            return None
        orbit.append(y)
        y = b.forward(y)
    return orbit


def _fraction_first_return(m, base_cell, depth_cap):
    """The former DFS: the composed inverse y -> a*y + c carried as Fractions."""
    base = m.branches[base_cell]
    out = []
    stack = [((base_cell,), 1 / base.slope, -base.intercept / base.slope)]
    while stack:
        path, a, c = stack.pop()
        if m.admissible(path[-1], base_cell):
            lo, hi = sorted((a * base.lo + c, a * base.hi + c))
            out.append((path, len(path), lo, hi, 1 / a, -c / a))
        if len(path) < depth_cap:
            for j in reversed(range(m.n_cells)):
                if j != base_cell and m.admissible(path[-1], j):
                    b = m.branches[j]
                    stack.append((path + (j,), a / b.slope, c - a * b.intercept / b.slope))
    out.sort(key=lambda t: (t[1], t[2]))
    cell = base.hi - base.lo
    return out, (cell - sum(t[3] - t[2] for t in out)) / cell


def _words(m, max_period):
    """Every admissible cyclic word of period 1..max_period, rotations included."""
    for p in range(1, max_period + 1):
        for word in itertools.product(range(m.n_cells), repeat=p):
            try:
                m.check_itinerary(word)
            except InadmissibleItinerary:
                continue
            yield word


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=KERNEL_IDS)
def test_periodic_points_and_orbits_match_fraction_definitions(m):
    # circle_5 has 5^p words of period p, so it stops at period 5
    max_period = 5 if m.n_cells == 5 else 8
    for word in _words(m, max_period):
        p, q = m._fixed_point(word)
        assert q > 0 and math.gcd(p, q) == 1, word
        assert Fraction(p, q) == _fraction_periodic_point(m, word), word
        walk = m.orbit_walk(word)
        orbit = None if walk is None else [Fraction(num, den) for _, num, den in walk]
        assert orbit == _fraction_periodic_orbit(m, word), word
        assert walk is None or [k for k, _, _ in walk] == list(word), word


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=KERNEL_IDS)
def test_first_return_branches_match_fraction_definition(m):
    cells = [0, 2] if m.n_cells == 5 else range(m.n_cells)
    for cell in cells:
        for cap in range(1, 9 if m.n_cells < 5 else 6):
            want, residual = _fraction_first_return(m, cell, cap)
            if not want:  # three_branch's cell 0 cannot return in one step
                with pytest.raises(NoReturn):
                    m.induce_first_return(cell, depth_cap=cap)
                continue
            induced = m.induce_first_return(cell, depth_cap=cap)
            got = [
                (b.itinerary, b.return_time, b.lo, b.hi, b.slope, b.intercept)
                for b in induced.branches
            ]
            assert got == want, (cell, cap)
            assert induced.residual_mass == residual
            fields = [v for b in induced.branches for v in (b.lo, b.hi, b.slope, b.intercept)]
            assert all(type(v) is Fraction for v in fields + [induced.residual_mass])


def test_tent_first_return_reverses_orientation():
    # paths with an odd number of visits to the reversing branch have negative slope
    induced = _tent_map().induce_first_return(0, depth_cap=6)
    assert {b.slope < 0 for b in induced.branches} == {True, False}
    assert all(b.lo < b.hi for b in induced.branches)


@pytest.mark.parametrize(
    "data",
    [
        (0.0, 0.5, 2.0, 0.0),
        (Fraction(0), Fraction(1, 2), 2.0, Fraction(0)),
        (Fraction(1, 2), Fraction(1), Fraction(2), np.float64(-1.0)),
    ],
)
def test_float_branch_data_is_a_typed_error(data):
    with pytest.raises(InexactBranch, match="must be rational"):
        AffineBranch(*data)


def test_branch_triples_are_the_branch_and_its_inverse():
    for m in KERNEL_MAPS:
        for b in m.branches:
            for triple, f in ((b.forward_triple, b.forward), (b.inverse_triple, b.inverse)):
                alpha, beta, gamma = triple
                assert gamma > 0 and all(type(v) is int for v in triple)
                for y in (Fraction(0), Fraction(1, 7), Fraction(-5, 3)):
                    assert (alpha * y + beta) / gamma == f(y)


# ---------------------------------------------------------------------------
# inducing and tails


def test_first_return_tail_masses_are_exact_geometric():
    # left cell of the 3-branch map: excursions leave through B or C and
    # return with probability 2/3 per step, so m(R >= n) = (2/3)^(n-2)
    m = three_branch_map()
    induced = m.induce_first_return(0, depth_cap=12)
    tails = induced.tail_masses()
    assert tails[0] == 1
    for n in range(2, 13):
        assert tails[n - 1] == Fraction(2, 3) ** (n - 2)


def test_tail_masses_monotone_nonincreasing():
    induced = three_branch_map().induce_first_return(1, depth_cap=10)
    tails = induced.tail_masses()
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert all(0 <= t <= 1 for t in tails)


def test_tail_alpha_matches_log_three_halves():
    induced = three_branch_map().induce_first_return(0, depth_cap=12)
    stats = tail_statistics(induced)
    assert stats.alpha == pytest.approx(np.log(1.5), rel=0.10)
    assert stats.alpha_stderr < stats.alpha
    assert stats.sigma0 == pytest.approx(stats.alpha / 2)


def test_doubling_first_return_tails_are_dyadic():
    # from [0,1/2): half the cell returns at once, the rest waits in the
    # right cell with escape probability 1/2 per step
    induced = doubling_map().induce_first_return(0, depth_cap=10)
    tails = induced.tail_masses()
    for n in range(1, 11):
        assert tails[n - 1] == HALF ** (n - 1)
    stats = tail_statistics(induced)
    assert stats.alpha == pytest.approx(np.log(2.0), rel=0.05)


def _resummed_tails(induced):
    """Per-level oracle: m(R >= n) re-summed over every branch at each level."""
    cell = induced.base.branches[induced.base_cell]
    total = cell.hi - cell.lo
    return [
        sum((b.measure for b in induced.branches if b.return_time >= n), Fraction(0)) / total
        + induced.residual_mass
        for n in range(1, induced.depth_cap + 2)
    ]


@pytest.mark.parametrize(
    "m, cell, cap",
    [
        (three_branch_map(), 0, 12),
        (three_branch_map(), 1, 8),
        (doubling_map(), 0, 10),
        (_tent_map(), 0, 6),
    ],
)
def test_tail_masses_match_per_level_resumming(m, cell, cap):
    induced = m.induce_first_return(cell, depth_cap=cap)
    want = _resummed_tails(induced)
    assert induced.tail_masses() == want[:cap]
    assert induced.excursion_mass == want[1] == induced.tail_masses()[1]
    assert all(isinstance(t, Fraction) for t in induced.tail_masses())


def test_first_return_branches_compose_the_path():
    # the composed inverse carried on the DFS stack against the forward maps
    # composed along each itinerary, in exact arithmetic
    m = three_branch_map()
    base = m.branches[0]
    for br in m.induce_first_return(0, depth_cap=7).branches:
        slope, intercept = Fraction(1), Fraction(0)
        for k in br.itinerary:
            b = m.branches[k]
            slope, intercept = b.slope * slope, b.slope * intercept + b.intercept
        assert (br.slope, br.intercept) == (slope, intercept)
        assert sorted((br.forward(br.lo), br.forward(br.hi))) == [base.lo, base.hi]
        x = (br.lo + br.hi) / 2
        for k in br.itinerary:
            x, cell = _step(m, x)
            assert cell == k
        assert x == br.forward((br.lo + br.hi) / 2)


@pytest.mark.parametrize("m", KERNEL_MAPS, ids=KERNEL_IDS)
def test_excursion_path_count_matches_enumeration(m):
    # every path (k, c_1, .., c_{d-1}) with c_i != k along allowed transitions
    for k in range(m.n_cells):
        others = [j for j in range(m.n_cells) if j != k]
        for cap in range(1, 6):
            walked = sum(
                all(m.admissible(a, b) for a, b in zip((k, *tail), tail))
                for d in range(cap)
                for tail in itertools.product(others, repeat=d)
            )
            assert _excursion_paths(m.transition, k, cap, RETURN_PATH_BUDGET) == walked


def test_first_return_past_the_path_budget_is_refused_before_enumerating():
    # three_branch's cell 0 walks 2^cap - 1 paths: cap 17 fits the budget, 18 does not
    m = three_branch_map()
    assert _excursion_paths(m.transition, 0, 17, RETURN_PATH_BUDGET) == 2**17 - 1
    assert 2**17 - 1 <= RETURN_PATH_BUDGET < 2**18 - 1
    with pytest.raises(DepthOverflow, match="excursion paths"):
        m.induce_first_return(0, depth_cap=18)
    with pytest.raises(DepthOverflow):
        m.induce_first_return(0, depth_cap=10**6)


@pytest.mark.parametrize("cap", [18, 40, 10**6])
def test_path_budget_refusal_names_the_largest_cap_that_fits(cap):
    # three_branch's cell 0: cap 17 walks 2^17 - 1 paths, the most the budget admits
    m = three_branch_map()
    with pytest.raises(DepthOverflow, match=r"lower depth_cap to at most 17$"):
        m.induce_first_return(0, depth_cap=cap)


def test_insufficient_depth_raised_on_shallow_cap():
    induced = three_branch_map().induce_first_return(0, depth_cap=3)
    with pytest.raises(InsufficientDepth):
        tail_statistics(induced)


# ---------------------------------------------------------------------------
# construction guards


def test_branch_cells_must_tile():
    good = AffineBranch(Fraction(0), HALF, Fraction(2), Fraction(0))
    bad = AffineBranch(Fraction(1, 4), Fraction(1), Fraction(2), Fraction(0))
    with pytest.raises(ValueError):
        ExpandingMarkovMap([good, bad], ((1, 1), (1, 1)), 0.5)


def test_branch_needs_a_cell_and_a_nonzero_slope():
    with pytest.raises(ValueError, match="slope must be nonzero"):
        AffineBranch(Fraction(0), HALF, Fraction(0), Fraction(0))
    with pytest.raises(ValueError, match="cell is empty"):
        AffineBranch(HALF, Fraction(1, 4), Fraction(2), Fraction(0))


def test_transition_shape_must_match():
    b0 = AffineBranch(Fraction(0), HALF, Fraction(2), Fraction(0))
    b1 = AffineBranch(HALF, Fraction(1), Fraction(2), Fraction(-1))
    with pytest.raises(ValueError):
        ExpandingMarkovMap([b0, b1], ((1, 1),), 0.5)


@given(st.integers(2, 64))
@settings(max_examples=20)
def test_low_discrepancy_stays_inside(n):
    pts = low_discrepancy(n, 0.0, 1.0, phase=0.37)
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert len(np.unique(np.floor(pts * n))) >= n // 2  # spread over cells
