"""Transfer operator of an expanding Markov map.

Pointwise application sums over inverse branches with Jacobian weights.
`cell_density` solves exactly for the invariant density of an affine Markov
map, which is constant on cells.  Two discretizations are provided:

- The Ulam scheme works on equal-width bins that refine the Markov
  partition of an affine Markov map.  Each branch sends a bin onto an
  interval whose ends are integer ratios on the bin grid, so the matrix is
  assembled from integer overlaps with one float division per entry.
  Power iteration on the discretized adjoint produces the absolutely
  continuous invariant density.
- The polynomial scheme works on piecewise polynomials of a fixed degree
  on each Markov cell, collocated at Chebyshev points.  For affine Markov
  maps that space is invariant, so the matrix is the operator itself
  restricted to it; its twisted form L_s v = L(e^{-s r} v) locates the
  Pollicott-Ruelle resonances of the suspension under a roof r.

Deflated power iteration on either matrix estimates the modulus of the
second eigenvalue.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import BinMisalignment, MixlabError, NoConvergence, NotAffineMarkov
from .markov_maps import ExpandingMarkovMap

POWER_TOL = 1e-10  # invariant_density's L1 residual target
POWER_CAP = 100_000  # most power-iteration steps either iteration takes
# spectral_gap: relative change between windowed estimates, and the window length
_GAP_TOL = 1e-8
_GAP_WINDOW = 8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def apply_exact(map_: ExpandingMarkovMap, v: Callable, x) -> Fraction | float:
    """(L v)(x) = sum over inverse branches h of J(h(x)) v(h(x)).

    The Jacobian weight J = 1/|f'| makes L the transfer operator of
    normalized Lebesgue measure.  Rational x, branch data and v keep the
    result an exact Fraction, Fraction(0) where no branch covers x.

    A float x reads the map's float branch table: each term is
    w * v((x - c) / s) in floats, the very operations Python's mixed
    float/Fraction arithmetic makes of the exact formula, and the result
    is 0.0 where no branch covers x.  Rounding is monotone, so x strictly
    between a branch's float image bounds lies in its exact image and x
    strictly outside them lies outside; only x equal to a float image
    bound is decided by the exact branch_covers.  Any other number type
    takes the exact loop.
    """
    map_.cell_index(x)  # raises BoundaryPoint on partition edges
    total = None
    if isinstance(x, float):
        x = float(x)  # np.float64 included: the result is a Python float
        for k, (lo, hi, c, s, w) in enumerate(map_.branches_f):
            if not (lo < x < hi or (x == lo or x == hi) and map_.branch_covers(k, x)):
                continue
            term = w * v((x - c) / s)
            total = term if total is None else total + term
        return 0.0 if total is None else total
    for k, b in enumerate(map_.branches):
        if not map_.branch_covers(k, x):
            continue
        term = 1 / abs(b.slope) * v(b.inverse(x))
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


@dataclass(frozen=True)
class UlamOperator:
    """Row-stochastic bin-transition matrix M_ij = m(bin_i n f^-1 bin_j)/m(bin_i)."""

    map: ExpandingMarkovMap
    bins: int
    matrix: np.ndarray

    @property
    def bin_edges(self) -> np.ndarray:
        lo, hi = float(self.map.domain_lo), float(self.map.domain_hi)
        return np.linspace(lo, hi, self.bins + 1)

    def leading_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Left and right eigenvectors of eigenvalue 1: invariant masses and ones."""
        return invariant_density(self).values * np.diff(self.bin_edges), np.ones(self.bins)


def build_ulam(map_: ExpandingMarkovMap, bins: int) -> UlamOperator:
    """Discretize the transfer operator on `bins` equal-width cells.

    The map must be affine Markov (NotAffineMarkov otherwise), and bin
    edges must refine the Markov partition so that every branch is affine
    on every bin (BinMisalignment otherwise).  Entry (i, j) is the length
    of bin i's image inside bin j over |slope|, computed in integers on
    the bin grid and rounded to float once by a single division.
    """
    _require_affine_markov(map_)
    if bins < map_.n_cells:
        raise BinMisalignment(f"{bins} bins cannot refine {map_.n_cells} partition cells")
    for e in map_.edges:
        pos = (Fraction(e) - Fraction(map_.domain_lo)) / Fraction(map_.domain_hi - map_.domain_lo)
        if (pos * bins).denominator != 1:
            raise BinMisalignment(f"partition edge {e} is not a bin edge at N={bins}")
    return UlamOperator(map=map_, bins=bins, matrix=_assemble_pullback(map_, bins))


def _require_affine_markov(map_: ExpandingMarkovMap) -> None:
    for k in range(map_.n_cells):
        if map_.markov_defect(k):
            raise NotAffineMarkov(f"image of branch {k} is not the union of its flagged cells")


def cell_density(map_: ExpandingMarkovMap) -> tuple[Fraction, ...]:
    """Exact invariant density of an affine Markov map, one value per cell.

    L keeps functions constant on cells (Boyarsky-Gora, *Laws of Chaos*,
    1997), so h_j = sum_k T[k][j] h_k / |slope_k| with sum_j h_j |cell_j| = 1,
    solved by Gauss-Jordan elimination in Fraction.  NotAffineMarkov when
    the map is not affine Markov or the solution is not unique (reducible).
    """
    _require_affine_markov(map_)
    n, edges = map_.n_cells, [Fraction(e) for e in map_.edges]
    weights = [1 / abs(Fraction(b.slope)) for b in map_.branches]
    # a row (I - M) h = 0 per cell, then the normalisation, right sides last; L
    # preserves integrals, so a unique solution leaves the last row 0 = 0
    rows = [
        [(j == k) - t[j] * w for k, (t, w) in enumerate(zip(map_.transition, weights))] + [0]
        for j in range(n)
    ]
    rows.append([hi - lo for lo, hi in zip(edges, edges[1:])] + [1])
    for col in range(n):
        pivot = next((r for r in range(col, n + 1) if rows[r][col]), None)
        if pivot is None:
            raise NotAffineMarkov(f"the invariant density of {map_.name or 'the map'} is not unique")
        lead = rows.pop(pivot)
        lead = [v / lead[col] for v in lead]
        rows = [[a - r[col] * b for a, b in zip(r, lead)] for r in rows]
        rows.insert(col, lead)
    return tuple(row[n] for row in rows[:n])


def _assemble_pullback(map_: ExpandingMarkovMap, bins: int) -> np.ndarray:
    """Ulam matrix of an affine Markov map whose cells are unions of bins.

    Positions are measured in bin units, P(y) = bins (y - lo) / width.  On
    branch k, bin i maps onto [P_i, P_{i+1}] with P_i = (a i + c) / den for
    integers a, c, den.  Its overlap with bin j, times den, is the integer
    ov = min(hi, (j+1) den) - max(lo, j den), and the entry is ov / |a|: the
    overlap in x over the bin width.  Markov images keep every operand of
    order bins^2; below 2^53 both are exact in float64 and the one division
    rounds correctly, as float() of the same rational would.  Past 2^53,
    MixlabError.
    """
    lo, width = Fraction(map_.domain_lo), Fraction(map_.domain_hi - map_.domain_lo)
    grids = []
    for b in map_.branches:
        slope = Fraction(b.slope)
        # P(f(x)) = slope * i + shift at the left edge x of bin i
        shift = bins * (slope * lo + Fraction(b.intercept) - lo) / width
        den = math.lcm(slope.denominator, shift.denominator)
        i0, i1 = (int(bins * (Fraction(e) - lo) / width) for e in (b.lo, b.hi))
        grids.append((i0, i1, int(slope * den), int(shift * den), den))
    if max(abs(a) * bins + abs(c) + den * (bins + 1) for _, _, a, c, den in grids) >= 2**53:
        raise MixlabError(f"{bins} bins take the Ulam grid numerators past 2^53")

    # a private mapping of its own, unmapped when the matrix is freed: taken
    # from glibc's heap instead, dense matrices built over and over fragment
    # it, and peak RSS grows by a whole matrix after a few rebuilds
    buffer = mmap.mmap(-1, 8 * bins * bins, access=mmap.ACCESS_COPY)
    matrix = np.frombuffer(buffer, dtype=np.float64).reshape(bins, bins)
    for i0, i1, a, c, den in grids:
        i = np.arange(i0, i1, dtype=np.int64)
        p = a * i + c
        p_lo, p_hi = np.minimum(p, p + a), np.maximum(p, p + a)
        j_lo = p_lo // den
        counts = -(-p_hi // den) - j_lo  # image bins j_lo .. ceil(p_hi / den) - 1
        rows = np.repeat(i, counts)
        starts = np.cumsum(counts) - counts
        j = np.repeat(j_lo - starts, counts) + np.arange(rows.size, dtype=np.int64)
        ov = np.minimum(np.repeat(p_hi, counts), (j + 1) * den) - np.maximum(
            np.repeat(p_lo, counts), j * den
        )
        matrix[rows, j] = ov / abs(a)
    return matrix


@dataclass(frozen=True)
class InvariantDensity:
    """Piecewise-constant density of the absolutely continuous invariant measure."""

    bin_edges: np.ndarray
    values: np.ndarray
    residual: float
    iterations: int

    def to_csv(self) -> str:
        lines = ["bin_left,bin_right,value,residual"]
        for a, c, v in zip(self.bin_edges, self.bin_edges[1:], self.values):
            lines.append(f"{a:.17g},{c:.17g},{v:.17g},{self.residual:.17g}")
        return "\n".join(lines) + "\n"


def invariant_density(op: UlamOperator) -> InvariantDensity:
    """Power-iterate the adjoint of the bin matrix to its fixed mass vector.

    Deterministic uniform start; residual is the L1 distance between
    successive mass vectors, equal to the L1 defect of the density.  The
    iteration stops once the residual is at most POWER_TOL and raises
    NoConvergence after POWER_CAP steps.
    """
    m = op.matrix
    n = op.bins
    p = np.full(n, 1.0 / n)
    residual = math.inf
    for it in range(1, POWER_CAP + 1):
        q = p @ m
        q_sum = q.sum()
        if q_sum <= 0:
            raise NoConvergence("mass vector lost positivity")
        q /= q_sum
        residual = float(np.abs(q - p).sum())
        p = q
        if residual <= POWER_TOL:
            break
    else:
        raise NoConvergence(f"power iteration residual {residual:.3e} after {POWER_CAP} steps")
    edges = op.bin_edges
    widths = np.diff(edges)
    values = p / widths
    return InvariantDensity(bin_edges=edges, values=values, residual=residual, iterations=it)


def spectral_gap(op: UlamOperator | PolynomialOperator) -> float:
    """Modulus of the second eigenvalue via deflated power iteration.

    The leading pair from ``op.leading_pair()`` is projected out (for
    Ulam: right eigenvector 1, left eigenvector the invariant masses; for
    the polynomial operator: right eigenvector the invariant density, left
    eigenvector the integral); the growth rate of the deflated matrix
    power is averaged over windows of _GAP_WINDOW steps to tolerate
    complex or negative eigenvalues.  Two successive window averages
    within relative _GAP_TOL end the iteration; none within POWER_CAP
    steps raises NoConvergence.
    """
    m = op.matrix
    n = len(m)
    left, right = op.leading_pair()
    # deflation: B = M - right left^T kills the leading eigenvalue exactly
    def apply_deflated(v: np.ndarray) -> np.ndarray:
        return m @ v - np.dot(left, v) * right

    v = np.cos(2.0 * np.pi * np.arange(n) / n)
    v -= v.mean()
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    v /= nv

    estimate = None
    log_acc = 0.0
    steps = 0
    for _ in range(POWER_CAP):
        w = apply_deflated(v)
        nw = np.linalg.norm(w)
        if nw <= 1e-300:
            return 0.0
        log_acc += math.log(nw)
        steps += 1
        v = w / nw
        if steps == _GAP_WINDOW:
            current = math.exp(log_acc / _GAP_WINDOW)
            log_acc, steps = 0.0, 0
            if estimate is not None and abs(current - estimate) <= _GAP_TOL * max(current, 1.0):
                return current
            estimate = current
    raise NoConvergence("second-eigenvalue estimate did not stabilize")


@dataclass(frozen=True)
class PolynomialOperator:
    """L on functions that are polynomials of degree <= `degree` on each cell.

    A function is stored by its values at the ``degree + 1`` first-kind
    Chebyshev points of every Markov cell, cell after cell (`nodes`);
    ``matrix @ v`` holds the values of L v at the same points.
    ``weights @ v`` is the integral of v (Fejer's first rule, exact on the
    space).  ``preimages[a, b]`` is the point at which column b's basis
    function is read for row a: h_k(nodes[a]) with k the cell of column b,
    or nodes[a] itself where branch k does not cover that point (the matrix
    entry is zero there).
    """

    map: ExpandingMarkovMap
    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    preimages: np.ndarray

    def leading_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Left and right eigenvectors of eigenvalue 1: the integral and the invariant density.

        The density is the exact `cell_density`: constant on each cell, so
        the space holds it exactly, as its value at every node of the cell.
        Its integral ``weights @ rho`` is 1 to rounding.
        """
        rho = np.repeat([float(h) for h in cell_density(self.map)], self.degree + 1)
        return self.weights, rho


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-kind Chebyshev points on [-1, 1], ascending, with their
    barycentric and Fejer quadrature weights."""
    theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    bary = (-1.0) ** np.arange(n) * np.sin(theta)
    j = np.arange(1, n // 2 + 1)
    fejer = 2.0 / n * (1.0 - 2.0 * np.cos(2.0 * np.outer(theta, j)) @ (1.0 / (4.0 * j**2 - 1.0)))
    return np.cos(theta)[::-1], bary[::-1], fejer[::-1]


def _interpolation_matrix(y: np.ndarray, nodes: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Rows of barycentric Lagrange weights: (row @ v(nodes)) = p(y)."""
    d = y[:, None] - nodes[None, :]
    hit = d == 0.0
    d[hit] = 1.0
    c = bary / d
    out = c / c.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    out[on_node] = hit[on_node]
    return out


def polynomial_operator(map_: ExpandingMarkovMap, degree: int) -> PolynomialOperator:
    """Discretize L on piecewise polynomials of `degree` by Chebyshev collocation.

    Row i of cell j evaluates (L v)(x) at that cell's i-th node x as the
    sum, over branches k whose image covers cell j, of v(h_k x) / |f'|,
    with v(h_k x) read from cell k's nodal values by barycentric
    interpolation.  For an affine Markov map h_k sends cell j affinely
    into cell k, so L maps the space into itself and the matrix is L
    restricted to it, with no projection error: for doubling its spectrum
    is 1, 1/2, ..., 2^-degree and zeros at every degree.  A branch image
    that is not a union of cells raises NotAffineMarkov.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    _require_affine_markov(map_)
    n = degree + 1
    t, bary, fejer = _chebyshev(n)
    edges = map_.edges_f
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * t  # (cells, n)
    size = map_.n_cells * n
    matrix = np.zeros((size, size))
    preimages = np.repeat(nodes.reshape(size, 1), size, axis=1)
    for k, b in enumerate(map_.branches):
        slope, intercept = float(b.slope), float(b.intercept)
        for j in map_.image_cells(k):
            rows, cols = slice(j * n, (j + 1) * n), slice(k * n, (k + 1) * n)
            y = (nodes[j] - intercept) / slope
            matrix[rows, cols] = _interpolation_matrix(y, nodes[k], bary) / abs(slope)
            preimages[rows, cols] = y[:, None]
    weights = (half[:, None] * fejer).ravel()
    return PolynomialOperator(map_, degree, nodes.ravel(), weights, matrix, preimages)


_NEWTON_STEP = 1e-7  # finite-difference step for d lambda / ds
_NEWTON_TOL = 1e-12  # relative step size at which the iteration stops
_NEWTON_CAP = 50


def resonance(op: PolynomialOperator, roof, s0: complex) -> complex:
    """Pollicott-Ruelle resonance of the suspension under `roof` near s0.

    Newton's method on lambda(s) = 1, where lambda(s) is the eigenvalue of
    the twisted matrix nearest 1 and its derivative is a forward
    difference.  Resonances are the s where L_s has eigenvalue 1; the
    correlations of smooth observables decay at rate -Re s of the
    rightmost nontrivial one.  On the twisted weight e^{-s r(h x)} the
    space is no longer invariant, so the reading converges with degree
    rather than being exact.  NoConvergence if the step never drops below
    _NEWTON_TOL * max(1, |s|) within _NEWTON_CAP steps.
    """
    if roof.base is not op.map:
        raise ValueError("roof must be defined over the operator's map")
    r = roof.value_many(op.preimages)

    def lam(s: complex) -> complex:
        with np.errstate(over="ignore", invalid="ignore"):
            twisted = op.matrix * np.exp(-s * r)  # L_s v = L(e^{-s r} v)
        if not np.all(np.isfinite(twisted)):
            raise NoConvergence(f"resonance Newton iteration from {s0} left the range of e^(-s r)")
        ev = np.linalg.eigvals(twisted)
        return ev[np.argmin(np.abs(ev - 1.0))]

    s = complex(s0)
    for _ in range(_NEWTON_CAP):
        value = lam(s)
        slope = (lam(s + _NEWTON_STEP) - value) / _NEWTON_STEP
        if slope == 0:
            raise NoConvergence(f"resonance Newton iteration from {s0} hit a flat eigenvalue")
        step = (value - 1.0) / slope
        s -= step
        if abs(step) <= _NEWTON_TOL * max(1.0, abs(s)):
            return s
    raise NoConvergence(f"resonance Newton iteration from {s0} did not settle")


def resonances(op: PolynomialOperator, roof, starts) -> list[complex]:
    """Distinct nonzero resonances Newton reaches from `starts`, rightmost first.

    Starts that do not converge are dropped; s = 0 (eigenvalue 1 of L
    itself) is left out, and roots closer than 1e-6 count as one.
    """
    found: list[complex] = []
    for s0 in starts:
        try:
            s = resonance(op, roof, s0)
        except NoConvergence:
            continue
        if abs(s) > 1e-6 and all(abs(s - q) > 1e-6 for q in found):
            found.append(s)
    return sorted(found, key=lambda s: (-s.real, s.imag))


def duality_check(
    map_: ExpandingMarkovMap,
    g: Callable,
    v: Callable,
    samples: int = 2_000,
) -> float:
    """|int g(f x) v(x) dx - int g(x) (L v)(x) dx| by panel quadrature.

    Both integrals are against Lebesgue measure, the reference measure of
    apply_exact.  Panels never straddle partition edges, so the integrands
    are smooth per panel and 8-point Gauss-Legendre converges at full rate.
    `g` and `v` are called on one float at a time.  The right side calls
    apply_exact once per node.  Nodes lie inside their panels, off the
    float cell edges, so each takes apply_exact's float branch table and
    cell_index's float search, and no float is converted to Fraction.
    """

    def lhs(xs):
        ys = map_.evaluate_many(xs)
        return np.array([float(g(y)) * float(v(x)) for x, y in zip(xs.tolist(), ys.tolist())])

    def rhs(xs):
        return np.array([float(g(x)) * apply_exact(map_, v, x) for x in xs.tolist()])

    return abs(integrate(map_, lhs, samples, None) - integrate(map_, rhs, samples, None))


def integrate(
    map_: ExpandingMarkovMap, fn: Callable, samples: int, cell_weights: Sequence[float] | None
) -> float:
    """Composite Gauss-Legendre integral of fn times a step function over the domain.

    `cell_weights` holds the step's value on each cell (None: 1, Lebesgue
    measure).  `fn` takes the array of all nodes at once.
    """
    span = float(map_.domain_hi) - float(map_.domain_lo)
    nodes, weights = [], []
    for a, c, w in zip(map_.edges_f[:-1], map_.edges_f[1:], cell_weights or [1.0] * map_.n_cells):
        panels = max(1, round(samples * (c - a) / span / len(_GL_NODES)))
        sub = np.linspace(a, c, panels + 1)
        half = 0.5 * (sub[1:] - sub[:-1])
        nodes.append((0.5 * (sub[:-1] + sub[1:]))[:, None] + half[:, None] * _GL_NODES)
        weights.append(w * half[:, None] * _GL_WEIGHTS)
    xs = np.concatenate(nodes, axis=None)
    vals = fn(xs)
    # a running sum in node order; np.sum's pairwise order would move the last bits
    return float(np.cumsum(np.concatenate(weights, axis=None) * vals)[-1])

