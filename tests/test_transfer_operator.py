"""Transfer operator tests: exact branch sums, Ulam and polynomial
discretizations, spectra, resonances, duality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab.errors import (
    BinMisalignment,
    BoundaryPoint,
    MixlabError,
    NoConvergence,
    NotAffineMarkov,
)
from mixlab.markov_maps import (
    AffineBranch,
    ExpandingMarkovMap,
    doubling_map,
    expanding_circle_map,
    three_branch_map,
)
from mixlab import transfer_operator
from mixlab.transfer_operator import (
    apply_exact,
    build_ulam,
    cell_density,
    duality_check,
    integrate,
    invariant_density,
    polynomial_operator,
    resonance,
    resonances,
    spectral_gap,
)
from mixlab.roof import constant_roof, per_branch_polynomial_roof, polynomial_roof


# -- pointwise operator ------------------------------------------------------


def test_apply_exact_doubling_constant_is_fixed():
    m = doubling_map()
    for x in (Fraction(1, 10), Fraction(3, 7), Fraction(9, 10)):
        out = apply_exact(m, lambda y: Fraction(1), x)
        assert out == Fraction(1)
        assert isinstance(out, Fraction)


def test_apply_exact_doubling_identity():
    m = doubling_map()
    for x in (Fraction(1, 5), Fraction(2, 3), Fraction(7, 9)):
        assert apply_exact(m, lambda y: y, x) == x / 2 + Fraction(1, 4)


def test_apply_exact_three_branch_counts_covering_branches():
    m = three_branch_map()
    # x in the image of all three branches: weights 1/2 + 1/3 + 1/3
    assert apply_exact(m, lambda y: Fraction(1), Fraction(9, 10)) == Fraction(7, 6)
    # x below 1/3 is missed by the first branch: 1/3 + 1/3
    assert apply_exact(m, lambda y: Fraction(1), Fraction(1, 10)) == Fraction(2, 3)


def test_apply_exact_boundary_raises():
    with pytest.raises(BoundaryPoint):
        apply_exact(doubling_map(), lambda y: 1.0, Fraction(1, 2))


def _images_above_a_third():
    # three cells, every branch image [1/3, 1): no branch covers [0, 1/3)
    third = Fraction(1, 3)
    return ExpandingMarkovMap(
        branches=(
            AffineBranch(Fraction(0), third, Fraction(2), third),
            AffineBranch(third, 2 * third, Fraction(2), -third),
            AffineBranch(2 * third, Fraction(1), Fraction(2), Fraction(-1)),
        ),
        transition_matrix=((0, 1, 1),) * 3,
        expansion_bound=0.5,
    )


def test_apply_exact_uncovered_point_keeps_the_number_type():
    m = _images_above_a_third()
    out = apply_exact(m, lambda y: Fraction(1), Fraction(1, 10))
    assert out == 0 and isinstance(out, Fraction)
    out = apply_exact(m, lambda y: 1.0, 0.1)
    assert out == 0 and isinstance(out, float)


def _branch_loop(m, v, x):
    """Reference: the exact branch-data loop, fed a float x."""
    m.cell_index(x)
    total = None
    for b in m.branches:
        if not b.image_lo <= x < b.image_hi:
            continue
        term = 1 / abs(b.slope) * v(b.inverse(x))
        total = term if total is None else total + term
    return 0.0 if total is None else total


@pytest.mark.parametrize(
    "m", [doubling_map(), three_branch_map(), expanding_circle_map(5), _images_above_a_third()]
)
def test_apply_exact_float_table_matches_the_branch_loop(m, edge_probes):
    v = lambda y: math.cos(7.0 * y) - 0.25 * y  # noqa: E731
    for x in edge_probes(m):
        if not isinstance(x, float):
            continue
        try:
            want = _branch_loop(m, v, x)
        except BoundaryPoint:
            with pytest.raises(BoundaryPoint):
                apply_exact(m, v, x)
            continue
        got = apply_exact(m, v, x)
        assert got == want and repr(got) == repr(want), x


def test_duality_check_converts_no_float_to_fraction(monkeypatch):
    # away from cell edges the float path compares floats only; every
    # float/Fraction comparison calls from_float
    def refuse(*args):
        raise AssertionError("float converted to Fraction")

    monkeypatch.setattr(Fraction, "from_float", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 3) < 0.5
    g = lambda x: float(np.polynomial.polynomial.polyval(x, (0.3, -0.2, 0.5, 0.7)))  # noqa: E731
    v = lambda x: float(np.polynomial.polynomial.polyval(x, (-0.4, 0.1, 0.9, -0.6)))  # noqa: E731
    assert duality_check(three_branch_map(), g, v) <= 1e-6


# -- Ulam assembly -----------------------------------------------------------


def test_ulam_doubling_two_bins_exact():
    op = build_ulam(doubling_map(), 2)
    assert np.array_equal(op.matrix, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_ulam_doubling_four_bins_exact():
    op = build_ulam(doubling_map(), 4)
    expected = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    assert np.array_equal(op.matrix, expected)


def test_ulam_misaligned_bins_rejected():
    with pytest.raises(BinMisalignment):
        build_ulam(doubling_map(), 3)
    with pytest.raises(BinMisalignment):
        build_ulam(three_branch_map(), 4)
    with pytest.raises(BinMisalignment):
        build_ulam(three_branch_map(), 2)


@pytest.mark.parametrize(
    "map_, bins",
    [
        (doubling_map(), 16),
        (three_branch_map(), 9),
        (expanding_circle_map(3), 9),
    ],
)
def test_ulam_rows_stochastic(map_, bins):
    op = build_ulam(map_, bins)
    assert np.all(op.matrix >= 0.0)
    assert np.max(np.abs(op.matrix.sum(axis=1) - 1.0)) <= 1e-12


def _fraction_ulam(map_, bins):
    """Oracle: every overlap pulled back through the branch inverses in
    Fraction arithmetic and rounded to float once, entry by entry."""
    lo, width = map_.domain_lo, map_.domain_hi - map_.domain_lo
    edge = [lo + width * Fraction(i, bins) for i in range(bins + 1)]
    binw = width / bins
    entries = {}
    for b in map_.branches:
        img_lo, img_hi = b.image_lo, b.image_hi
        for j in range(int((Fraction(img_lo) - lo) / binw), bins):
            seg_lo, seg_hi = max(img_lo, edge[j]), min(img_hi, edge[j + 1])
            if seg_lo >= seg_hi:
                if edge[j] >= img_hi:
                    break
                continue
            a, c = sorted((b.inverse(seg_lo), b.inverse(seg_hi)))
            i = int((a - lo) / binw)
            while i < bins and edge[i] < c:
                ov = min(c, edge[i + 1]) - max(a, edge[i])
                if ov > 0:
                    entries[i, j] = entries.get((i, j), 0) + ov / binw
                i += 1
    matrix = np.zeros((bins, bins))
    for (i, j), val in entries.items():
        matrix[i, j] = float(val)
    return matrix


def _map(cells, slopes, intercepts, transition):
    """Affine map with branch x -> slope x + intercept on each [cells[k], cells[k+1])."""
    branches = [
        AffineBranch(Fraction(a), Fraction(c), Fraction(s), Fraction(t))
        for a, c, s, t in zip(cells, cells[1:], slopes, intercepts)
    ]
    return ExpandingMarkovMap(branches, transition, expansion_bound=1.0)


def _three_halves():
    # slope 3/2 onto [0, 1) from [0, 2/3), then 3x - 2: the grid needs den = 2
    return _map((0, Fraction(2, 3), 1), (Fraction(3, 2), 3), (0, -2), [[1, 1], [1, 1]])


def _tent():
    # the second branch 2 - 2x reverses orientation
    return _map((0, Fraction(1, 2), 1), (2, -2), (0, 2), [[1, 1], [1, 1]])


@pytest.mark.parametrize(
    "map_, bins",
    [
        (doubling_map(), 2),
        (doubling_map(), 4),
        (doubling_map(), 64),
        (doubling_map(), 1024),
        (three_branch_map(), 9),
        (three_branch_map(), 1023),
        (expanding_circle_map(5), 1025),
        (_three_halves(), 300),
        (_tent(), 256),
        # doubling on [2, 4) and three_branch stretched onto [0, 3)
        (_map((2, 3, 4), (2, 2), (-2, -4), [[1, 1], [1, 1]]), 64),
        (_map((0, 1, 2, 3), (2, 3, 3), (1, -3, -6), [[0, 1, 1], [1, 1, 1], [1, 1, 1]]), 63),
    ],
)
def test_ulam_matches_fraction_oracle_bit_for_bit(map_, bins):
    matrix = build_ulam(map_, bins).matrix
    assert np.array_equal(matrix.view(np.int64), _fraction_ulam(map_, bins).view(np.int64))


def test_ulam_grid_past_2_53_is_a_model_error():
    # raised before the matrix is allocated
    with pytest.raises(MixlabError, match="2\\^53"):
        build_ulam(doubling_map(), 2**51)


# -- invariant densities -----------------------------------------------------


def test_invariant_density_doubling_uniform():
    d = invariant_density(build_ulam(doubling_map(), 64))
    assert np.max(np.abs(d.values - 1.0)) <= 1e-10
    assert abs(np.sum(d.values * np.diff(d.bin_edges)) - 1.0) <= 1e-12
    assert d.residual <= 1e-10
    assert d.iterations <= 3  # uniform start is already the fixed point
    assert abs(d.values[19] - 1.0) <= 1e-10  # the bin [19/64, 20/64) holds 0.3


def test_invariant_density_three_branch_matches_exact_solve():
    # route 1: exact fixed point of the 3-cell transition matrix
    m3 = [
        [Fraction(0), Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
    ]
    masses = (Fraction(1, 4), Fraction(3, 8), Fraction(3, 8))
    for j in range(3):
        assert sum(masses[i] * m3[i][j] for i in range(3)) == masses[j]
    oracle = [m * 3 for m in masses]  # densities on width-1/3 cells
    assert oracle == [Fraction(3, 4), Fraction(9, 8), Fraction(9, 8)]

    # route 2: Ulam discretization at fine, aligned bins
    d = invariant_density(build_ulam(three_branch_map(), 1023))
    cell = np.repeat(np.asarray([float(v) for v in oracle]), 341)
    assert np.max(np.abs(d.values - cell)) <= 1e-6
    assert abs(np.sum(d.values * np.diff(d.bin_edges)) - 1.0) <= 1e-12
    assert abs(d.values[102] - 0.75) <= 1e-6  # the bins holding 0.1 and 0.9
    assert abs(d.values[920] - 1.125) <= 1e-6

    # route 3: leading eigenvector of the piecewise-polynomial operator,
    # scaled to unit integral; the density is constant on each cell
    op = polynomial_operator(three_branch_map(), 4)
    lam, vecs = np.linalg.eig(op.matrix)
    lead = np.argmax(np.abs(lam))
    assert abs(lam[lead] - 1.0) <= 1e-12
    rho = np.real(vecs[:, lead] / (op.weights @ vecs[:, lead]))
    cell = np.repeat(np.asarray([float(v) for v in oracle]), 5)
    assert np.max(np.abs(rho - cell)) <= 1e-12


def test_invariant_density_csv_shape():
    d = invariant_density(build_ulam(doubling_map(), 4))
    text = d.to_csv()
    assert text.startswith("bin_left,bin_right,value,residual\n")
    assert len(text.strip().splitlines()) == 5


def test_invariant_density_iteration_cap(monkeypatch):
    monkeypatch.setattr(transfer_operator, "POWER_CAP", 1)
    with pytest.raises(NoConvergence, match="after 1 steps"):
        invariant_density(build_ulam(three_branch_map(), 9))


@pytest.mark.parametrize(
    "map_, density",
    [
        (doubling_map(), (1, 1)),
        (three_branch_map(), (Fraction(3, 4), Fraction(9, 8), Fraction(9, 8))),
        (expanding_circle_map(5), (1,) * 5),
        (expanding_circle_map(20), (1,) * 20),
        # full branches with inverse slopes 2/3 and 1/3, which sum to 1: Lebesgue is invariant
        (_three_halves(), (1, 1)),
    ],
)
def test_cell_density_is_exact(map_, density):
    h = cell_density(map_)
    assert h == density and all(type(v) is Fraction for v in h)
    # a fixed point of L with unit integral, read pointwise by apply_exact
    edges = [Fraction(e) for e in map_.edges]
    for lo, hi, v in zip(edges, edges[1:], h):
        assert apply_exact(map_, lambda y: h[map_.cell_index(y)], (lo + hi) / 2) == v
    assert sum(v * (hi - lo) for lo, hi, v in zip(edges, edges[1:], h)) == 1


def test_cell_density_rejects_a_non_markov_or_reducible_map():
    with pytest.raises(NotAffineMarkov, match="not the union"):
        cell_density(_skewed_doubling())
    # two identity branches: every density constant on cells is invariant
    identity = _map((0, Fraction(1, 2), 1), (1, 1), (0, 0), [[1, 0], [0, 1]])
    with pytest.raises(NotAffineMarkov, match="not unique"):
        cell_density(identity)


# -- second eigenvalue -------------------------------------------------------


def test_spectral_gap_rank_one_matrix_is_zero():
    # two-bin doubling matrix is rank one: nothing survives deflation
    assert spectral_gap(build_ulam(doubling_map(), 2)) == 0.0


def test_spectral_gap_doubling_dichotomy():
    # bin counts with an odd factor see the true second modulus 1/2;
    # power-of-two counts make the chain exactly uniform after log2(N)
    # steps, so every sub-leading mode is transient and the estimate is 0
    assert abs(spectral_gap(build_ulam(doubling_map(), 96)) - 0.5) <= 1e-6
    assert spectral_gap(build_ulam(doubling_map(), 64)) == 0.0
    assert spectral_gap(build_ulam(doubling_map(), 1024)) == 0.0


def test_dense_eigenvalues_confirm_dichotomy():
    # dense eigensolve as the independent route for both regimes
    for bins, target, tol in ((96, 0.5, 1e-6), (64, 0.0, 0.01)):
        lam = np.linalg.eigvals(build_ulam(doubling_map(), bins).matrix)
        lam = lam[np.argsort(-np.abs(lam))]
        assert abs(lam[0] - 1.0) <= 1e-8
        assert abs(np.abs(lam[1]) - target) <= tol


def test_second_modulus_of_stochastic_matrices_at_most_one():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8, 13):
        for _ in range(10):
            m = rng.dirichlet(np.ones(n), size=n)
            lam = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
            assert lam[1] <= 1.0 + 1e-9


def test_spectral_gap_flags_nonstabilizing_estimate(monkeypatch):
    # 22 bins put many equal-modulus rotating eigenvalues in play; the
    # windowed growth estimate beats forever instead of settling
    monkeypatch.setattr(transfer_operator, "POWER_CAP", 3000)
    with pytest.raises(NoConvergence):
        spectral_gap(build_ulam(doubling_map(), 22))


# -- piecewise-polynomial operator --------------------------------------------


@pytest.mark.parametrize("degree", [8, 16])
def test_polynomial_operator_doubling_moduli_exact(degree):
    # L maps polynomials of degree n to themselves with eigenvalue 2^-n,
    # and the space is invariant, so the moduli hold at every degree
    op = polynomial_operator(doubling_map(), degree)
    moduli = np.sort(np.abs(np.linalg.eigvals(op.matrix)))[::-1]
    assert np.max(np.abs(moduli[:4] - [1.0, 0.5, 0.25, 0.125])) <= 1e-12
    assert abs(spectral_gap(op) - 0.5) <= 1e-8


def test_polynomial_operator_preserves_integral():
    op = polynomial_operator(three_branch_map(), 6)
    v = np.cos(3.0 * op.nodes) + op.nodes**6
    assert abs(op.weights @ (op.matrix @ v) - op.weights @ v) <= 1e-14
    assert abs(op.weights @ np.ones(len(v)) - 1.0) <= 1e-15


@pytest.mark.parametrize(
    "map_", [doubling_map(), three_branch_map(), expanding_circle_map(5)],
    ids=["doubling", "three_branch", "circle_5"],
)
def test_polynomial_leading_pair_is_the_cell_density(map_):
    # the right eigenvector is the exact cell density, read at every node of
    # its cell; the left one is the integral
    op = polynomial_operator(map_, 16)
    left, right = op.leading_pair()
    density = [float(h) for h in cell_density(map_)]
    assert right.tobytes() == np.repeat(density, op.degree + 1).tobytes()
    assert left.tobytes() == op.weights.tobytes()
    assert np.max(np.abs(op.matrix @ right - right)) <= 1e-13
    assert abs(op.weights @ right - 1.0) <= 4 * np.finfo(float).eps


def _skewed_doubling():
    # the first branch's image [0, 3/4) is not a union of cells
    half = Fraction(1, 2)
    return ExpandingMarkovMap(
        (
            AffineBranch(Fraction(0), half, Fraction(3, 2), Fraction(0)),
            AffineBranch(half, Fraction(1), Fraction(2), Fraction(-1)),
        ),
        [[1, 1], [1, 1]],
        expansion_bound=2.0 / 3.0,
    )


def test_polynomial_operator_rejects_non_affine_markov_maps():
    with pytest.raises(NotAffineMarkov):
        polynomial_operator(_skewed_doubling(), 8)


@pytest.mark.parametrize(
    "m, markov",
    [
        (doubling_map(), True),
        (three_branch_map(), True),
        (expanding_circle_map(5), True),
        (_skewed_doubling(), False),
        # [1/2, 1) -> 3x - 2 has image [-1/2, 1), below the domain
        (_map((0, Fraction(1, 2), 1), (2, 3), (0, -2), [[1, 1], [1, 1]]), False),
        # [1/2, 1) -> 3x - 1 has image [1/2, 2), above the domain
        (_map((0, Fraction(1, 2), 1), (2, 3), (0, -1), [[1, 1], [1, 1]]), False),
    ],
)
def test_markov_images_verdict_matches_polynomial_operator(m, markov):
    try:
        polynomial_operator(m, 2)
    except NotAffineMarkov:
        accepted = False
    else:
        accepted = True
    markov_row = m.validate_axioms().checks[0]  # markov_images, then expansion
    assert accepted == markov_row.passed == markov
    # build_ulam shares the check: 60 bins refine every partition here
    try:
        build_ulam(m, 60)
    except NotAffineMarkov:
        assert not markov
    else:
        assert markov


def test_resonances_of_constant_roof_on_the_lattice():
    # r = 1 gives L_s = e^-s L, whose eigenvalue 2^-n e^-s equals 1 at
    # s = -n ln 2 + 2 pi i k: the unit roof never mixes (criterion 4)
    m = doubling_map()
    op = polynomial_operator(m, 8)
    roof = constant_roof(m, 1)
    for k in (1, 2):
        assert abs(resonance(op, roof, 0.2 + (2 * math.pi * k + 0.3) * 1j) - 2j * math.pi * k) <= 1e-12
        want = -math.log(2.0) + 2j * math.pi * k
        assert abs(resonance(op, roof, -0.6 + (2 * math.pi * k - 0.3) * 1j) - want) <= 1e-12
    found = resonances(op, roof, [0.1j, 6.0j, 6.5j, -0.6 + 6.0j])
    assert len(found) == 2  # s = 0 is dropped, repeats merge
    assert abs(found[0] - 2j * math.pi) <= 1e-12
    assert abs(found[1] - (-math.log(2.0) + 2j * math.pi)) <= 1e-12


def test_locally_constant_roof_keeps_a_resonance_on_the_axis():
    # r = 1 on [0,1/2), 3/2 on [1/2,1): constants pick up (e^-s + e^-3s/2)/2,
    # which is 1 at s = 4 pi i, so the flow does not mix (criterion 10)
    m = doubling_map()
    roof = per_branch_polynomial_roof(m, [(1,), (Fraction(3, 2),)])
    s = resonance(polynomial_operator(m, 8), roof, 0.1 + 12.3j)
    assert abs(s - 4j * math.pi) <= 1e-12


def test_rightmost_resonance_of_square_roof_stable_in_degree():
    m = doubling_map()
    roof = polynomial_roof(m, (1, 0, 1))
    coarse = resonance(polynomial_operator(m, 19), roof, 7j)
    fine = resonance(polynomial_operator(m, 39), roof, 7j)
    assert abs(coarse - fine) <= 1e-6
    assert -0.2 < fine.real < 0.0  # strictly left of the axis: the flow mixes


def test_resonance_requires_roof_over_the_same_map():
    op = polynomial_operator(doubling_map(), 4)
    with pytest.raises(ValueError):
        resonance(op, constant_roof(doubling_map(), 1), 6j)


# -- duality -----------------------------------------------------------------


def test_duality_value_frozen_by_two_exact_routes():
    # route 1: piecewise antiderivative of x f(x) over the two branches
    lhs = (
        Fraction(2, 3) * Fraction(1, 2) ** 3
        + Fraction(2, 3) * (1 - Fraction(1, 8))
        - Fraction(1, 2) * (1 - Fraction(1, 4))
    )
    # route 2: x (L x)(x) = x (x/2 + 1/4) integrated over [0, 1]
    rhs = Fraction(1, 3) * Fraction(1, 2) + Fraction(1, 2) * Fraction(1, 4)
    assert lhs == rhs == Fraction(7, 24)

    m = doubling_map()
    ident = lambda x: x  # noqa: E731
    num_lhs = integrate(m, lambda xs: m.evaluate_many(xs) * xs, 2000, None)
    num_rhs = integrate(
        m, lambda xs: xs * np.array([float(apply_exact(m, ident, x)) for x in xs.tolist()]), 2000, None
    )
    assert abs(num_lhs - 7.0 / 24.0) <= 1e-13
    assert abs(num_rhs - 7.0 / 24.0) <= 1e-13
    assert duality_check(m, ident, ident) <= 1e-13


# -- conservation and consistency --------------------------------------------


def test_mass_conserved_for_random_piecewise_polynomials():
    rng = np.random.default_rng(1)
    for map_, bins in ((doubling_map(), 64), (three_branch_map(), 63)):
        op = build_ulam(map_, bins)
        mids = 0.5 * (op.bin_edges[:-1] + op.bin_edges[1:])
        for _ in range(50):
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            vals = np.abs(np.polynomial.polynomial.polyval(mids, coeffs)) + 0.1
            masses = vals * np.diff(op.bin_edges)
            pushed = masses @ op.matrix
            assert abs(pushed.sum() - masses.sum()) <= 1e-8
            assert np.all(pushed >= 0.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=8, max_size=8)
)
@settings(max_examples=50, deadline=None)
def test_mass_and_positivity_preserved(masses):
    op = build_ulam(doubling_map(), 8)
    p = np.asarray(masses)
    q = p @ op.matrix
    assert np.all(q >= 0.0)
    assert abs(q.sum() - p.sum()) <= 1e-10 * max(1.0, p.sum())

