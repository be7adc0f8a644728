"""Uniformly expanding Markov maps of the interval.

A map is a finite ordered list of affine branches, one per partition cell;
each branch sends its half-open cell onto a contiguous union of cells
recorded in a 0/1 transition matrix.  Branch data must be rational.  They
give an exact arithmetic path, which the cohomology and inducing machinery
rely on, and a vectorised float path (`evaluate_many`) for statistics.  A
single point x is sent by `branches[cell_index(x)].forward(x)`, Fraction in,
Fraction out; both paths put a float in its exact cell, even beside an
edge no float represents (1/3 on three_branch).  On the exact path
periodic orbits and first-return branches compose the branches as integer
triples (alpha, beta, gamma), y -> (alpha*y + beta)/gamma, and build a
Fraction only for what they return.  `orbit_walk` hands a periodic orbit over as integer numerator and
denominator pairs, so a caller can sum along it without a Fraction per
point.  First-return inducing sums each return time's mass |A|/C in
integers while it enumerates, so the tail masses cost one Fraction per
return time, not one per branch, and each `InducedBranch` builds its
Fractions only when they are read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from numbers import Rational
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryPoint,
    DepthOverflow,
    InadmissibleItinerary,
    InexactBranch,
    InsufficientDepth,
    NoReturn,
)

GEOM_TOL = 1e-12
# most excursion paths a first-return enumeration may walk.  three_branch's
# cell 0 walks 2^cap - 1 of them, so the budget admits its cap 17: 131,070
# branches in about 0.9 s and 110 MB on a 2-core Xeon, each level doubling both
RETURN_PATH_BUDGET = 1 << 17
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def low_discrepancy(n: int, lo: float = 0.0, hi: float = 1.0, phase: float = 0.0):
    """Deterministic golden-ratio (Kronecker) sequence in (lo, hi).

    Offset by half a step so no probe ever lands on an endpoint.  Column
    arrays of lo, hi and phase give one sequence per row.
    """
    u = (phase + (np.arange(n) + 0.5) * _GOLDEN) % 1.0
    return lo + (hi - lo) * u


def _triple(slope: Fraction, intercept: Fraction) -> tuple[int, int, int]:
    """(alpha, beta, gamma) with y -> (alpha*y + beta)/gamma = slope*y + intercept, gamma > 0."""
    gamma = math.lcm(slope.denominator, intercept.denominator)
    return (
        slope.numerator * (gamma // slope.denominator),
        intercept.numerator * (gamma // intercept.denominator),
        gamma,
    )


@dataclass(frozen=True)
class AffineBranch:
    """One full branch x -> slope*x + intercept on the cell [lo, hi).

    The data must be rational (InexactBranch otherwise).  The forward map
    and its inverse are also kept as integer triples (alpha, beta, gamma),
    meaning y -> (alpha*y + beta)/gamma with gamma > 0, which the exact
    path composes without building intermediate Fractions.
    """

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction
    # image of the cell and the integer triples, computed once from the fields above
    image_lo: Fraction = field(init=False, repr=False, compare=False)
    image_hi: Fraction = field(init=False, repr=False, compare=False)
    forward_triple: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    inverse_triple: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = (self.lo, self.hi, self.slope, self.intercept)
        if not all(isinstance(v, Rational) for v in data):
            raise InexactBranch(f"branch data must be rational, got {data!r}")
        if self.hi <= self.lo:
            raise ValueError("branch cell is empty")
        if self.slope == 0:
            raise ValueError("branch slope must be nonzero")
        a, b = self.forward(self.lo), self.forward(self.hi)
        object.__setattr__(self, "image_lo", min(a, b))
        object.__setattr__(self, "image_hi", max(a, b))
        s, c = Fraction(self.slope), Fraction(self.intercept)
        object.__setattr__(self, "forward_triple", _triple(s, c))
        object.__setattr__(self, "inverse_triple", _triple(1 / s, -c / s))

    def forward(self, x):
        return self.slope * x + self.intercept

    def inverse(self, y):
        return (y - self.intercept) / self.slope


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    status: str  # "pass" | "fail"
    worst_probe: float
    location: float
    tolerance: float = 0.0  # threshold the worst probe was held against

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self) -> str:
        lines = ["axiom,status,worst_probe,location,tolerance"]
        for c in self.checks:
            lines.append(
                f"{c.axiom},{c.status},{c.worst_probe:.17g},{c.location:.17g},{c.tolerance:.17g}"
            )
        return "\n".join(lines) + "\n"


class ExpandingMarkovMap:
    """Piecewise expanding interval map with Markov partition.

    Cells are half-open `[lo, hi)`; evaluation exactly on an interior
    breakpoint raises BoundaryPoint so measure-zero ambiguity never leaks
    into estimators.  Immutable after construction.
    """

    def __init__(
        self,
        branches: Sequence[AffineBranch],
        transition_matrix: Sequence[Sequence[int]],
        expansion_bound: float,
        name: str = "",
    ):
        self.branches = tuple(branches)
        self.transition = tuple(tuple(int(v) for v in row) for row in transition_matrix)
        self.expansion_bound = expansion_bound
        self.name = name

        k = len(self.branches)
        if len(self.transition) != k or any(len(r) != k for r in self.transition):
            raise ValueError("transition matrix shape must match branch count")
        for a, b in zip(self.branches, self.branches[1:]):
            if a.hi != b.lo:
                raise ValueError("branch cells must tile the domain in order")
        self.domain_lo = self.branches[0].lo
        self.domain_hi = self.branches[-1].hi
        # cell edges, exact where branch data is exact
        self.edges = tuple([b.lo for b in self.branches] + [self.domain_hi])
        # float copies of the edges and branch coefficients for array callers
        self.edges_f = np.array([float(e) for e in self.edges])
        self.slopes_f = np.array([float(b.slope) for b in self.branches])
        self.intercepts_f = np.array([float(b.intercept) for b in self.branches])
        # the same edges as a list, bisected by scalar queries without numpy
        self._edge_list = self.edges_f.tolist()
        # inner edge thresholds for array queries, the smallest float >= each exact
        # edge: a float reaches an edge exactly when it reaches its threshold
        inner = [(float(e), e) for e in self.edges[1:-1]]
        self._inner_edges_f = np.array([math.nextafter(f, math.inf) if Fraction(f) < e else f for f, e in inner])
        # per-branch (image_lo, image_hi, intercept, slope, 1/|slope|) for float points
        self.branches_f = tuple(
            (float(b.image_lo), float(b.image_hi), float(b.intercept), float(b.slope),
             float(1 / abs(b.slope)))
            for b in self.branches
        )
        # largest float inside [domain_lo, domain_hi)
        self._top_f = math.nextafter(float(self.domain_hi), -math.inf)
        # per-cell (lo numerator, lo denominator, hi numerator, hi denominator)
        self._cells_q = tuple(
            (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
            for lo, hi in ((Fraction(b.lo), Fraction(b.hi)) for b in self.branches)
        )

    # -- basic queries ---------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.branches)

    def cell_index(self, x) -> int:
        """Index k with x in [edge_k, edge_{k+1}).

        x exactly on an inner partition edge, or outside the domain, raises
        BoundaryPoint, so the caller decides.

        Every number type takes one float search first: float(x) is
        bisected into the float edges, and rounding is monotone, so
        float(x) strictly between two float edges puts x strictly inside
        that exact cell.  Only a tie with a float edge (x = 1/2 on
        doubling, float(1/3) on three_branch, a Fraction that rounds onto
        an edge), or an x that float() cannot represent, is decided by
        exact comparisons with the edges.
        """
        try:
            xf = float(x)
        except OverflowError:
            xf = math.nan
        edges = self._edge_list
        k = bisect_right(edges, xf) - 1
        if 0 <= k < len(self.branches) and edges[k] < xf < edges[k + 1]:
            return k
        if x < self.domain_lo or x >= self.domain_hi:
            raise BoundaryPoint(f"{x} outside domain [{self.domain_lo}, {self.domain_hi})")
        for k, b in enumerate(self.branches):
            if x == b.lo and k > 0:
                raise BoundaryPoint(f"{x} lies on a partition boundary")
            if b.lo <= x < b.hi:
                return k
        raise BoundaryPoint(f"{x} lies on a partition boundary")

    def cells_many(self, x) -> np.ndarray:
        """Each float's exact cell (as in `cell_index`): the inner edge thresholds it reaches."""
        x = np.asarray(x, dtype=float)
        k = np.zeros(x.shape, dtype=np.min_scalar_type(self.n_cells))
        for e in self._inner_edges_f:
            k += x >= e
        return k

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorised forward map; cells taken half-open (right-continuous).

        Each point takes its exact cell from `cells_many`, and its slope and
        intercept by `np.take`.  A finite image that rounds up onto domain_hi is clamped to the
        float just below it: domain_hi is outside the half-open domain and, on a map like
        x -> 6x mod 1, a float fixed point that every later step keeps.  Inf and NaN stay.
        """
        x = np.asarray(x, dtype=float)
        k = self.cells_many(x)
        y = np.asarray(np.take(self.slopes_f, k) * x)
        y += np.take(self.intercepts_f, k)
        np.copyto(y, self._top_f, where=(y > self._top_f) & (y < np.inf))
        return y

    def image_cells(self, k: int) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.transition[k]) if v)

    def admissible(self, i: int, j: int) -> bool:
        return bool(self.transition[i][j])

    def branch_covers(self, k: int, y) -> bool:
        """Whether y lies in the (half-open) image of branch k."""
        return self.branches[k].image_lo <= y < self.branches[k].image_hi

    def markov_defect(self, k: int) -> Fraction | float:
        """How far branch k's image is from the union of its flagged cells.

        Exact: 0 when the image is that union, so the branch is Markov;
        infinite when no cell is flagged or the flagged cells have a gap.
        """
        cells = self.image_cells(k)
        if not cells or cells != tuple(range(cells[0], cells[-1] + 1)):
            return math.inf
        b = self.branches[k]
        return max(
            abs(b.image_lo - self.edges[cells[0]]), abs(b.image_hi - self.edges[cells[-1] + 1])
        )

    # -- axiom validation --------------------------------------------------

    def validate_axioms(self) -> ValidationReport:
        """Check the Markov property and expansion on the exact branch data.

        Each row reports the worst branch's value and its cell start.
        Failures are report rows, never exceptions.  Bijectivity needs no
        row (AffineBranch rejects a zero slope), and neither does
        distortion: every branch is affine, so |D((log J) o h)| is 0.
        """
        cells = range(self.n_cells)
        defect = [self.markov_defect(k) for k in cells]
        k = max(cells, key=defect.__getitem__)
        markov = AxiomCheck(
            "markov_images",
            "pass" if defect[k] == 0 else "fail",
            float(defect[k]),
            float(self.branches[k].lo),
        )
        # |f'| >= 1/lambda, reported as the worst 1/|f'|
        inverse_slope = [1 / abs(b.slope) for b in self.branches]
        k = max(cells, key=inverse_slope.__getitem__)
        tol = self.expansion_bound + GEOM_TOL
        expansion = AxiomCheck(
            "expansion",
            "pass" if inverse_slope[k] <= tol else "fail",
            float(inverse_slope[k]),
            float(self.branches[k].lo),
            tol,
        )
        return ValidationReport((markov, expansion))

    # -- periodic orbits ---------------------------------------------------

    def check_itinerary(self, itinerary: Sequence[int]) -> None:
        """Raise InadmissibleItinerary unless the cyclic word is admissible."""
        if len(itinerary) == 0:
            raise InadmissibleItinerary("empty itinerary")
        n_cells = len(self.branches)
        for idx in itinerary:
            if not 0 <= idx < n_cells:
                raise InadmissibleItinerary(f"cell index {idx} out of range")
        transition = self.transition
        for a, b in zip(itinerary, [*itinerary[1:], itinerary[0]]):
            if not transition[a][b]:
                raise InadmissibleItinerary(f"transition {a}->{b} forbidden")

    def _fixed_point(self, itinerary: Sequence[int]) -> tuple[int, int]:
        """Lowest-terms (p, q), q > 0, of the point realising the itinerary.

        The inverse branches compose, innermost first, as one integer
        triple y -> (A*y + B)/C, and the fixed point of that contraction is
        B / (C - A).
        """
        # h = h_{k_0} o ... o h_{k_{n-1}}: prepend each inverse (a, b, c)
        # as h -> (a*h + b)/c
        A, B, C = 1, 0, 1
        for k in reversed(itinerary):
            a, b, c = self.branches[k].inverse_triple
            A, B, C = a * A, a * B + b * C, c * C
        g = math.gcd(B, C - A)
        return B // g, (C - A) // g

    def orbit_walk(self, itinerary: Sequence[int]):
        """The periodic orbit of an admissible itinerary as integer pairs.

        Returns [(k_0, p_0, q_0), ..., (k_{n-1}, p_{n-1}, q_{n-1})], where
        p_i/q_i = f^i(x) lies in cell k_i, with every q_i > 0 and q_i
        dividing q_{i+1}; or None if the orbit touches a cell boundary (the
        coding is then not realised by an interior point).  Cell bounds are
        compared by cross-multiplication.  The itinerary is not checked:
        `enumerate_cyclic_classes` yields only admissible words, and
        `check_itinerary` checks any other.
        """
        p, q = self._fixed_point(itinerary)
        walk = []
        for k in itinerary:
            lo_n, lo_d, hi_n, hi_d = self._cells_q[k]
            inside = lo_n * q < p * lo_d and p * hi_d < hi_n * q
            # only cell 0 starts at domain_lo, which belongs to the domain
            if not inside and not (k == 0 and p * lo_d == lo_n * q):
                return None
            walk.append((k, p, q))
            a, b, c = self.branches[k].forward_triple
            p, q = a * p + b * q, c * q
        return walk

    # -- first-return inducing ----------------------------------------------

    def induce_first_return(self, base_cell: int, depth_cap: int) -> "InducedMap":
        """First-return map to a partition cell, enumerated to R <= depth_cap.

        The countable branch family is materialised only up to the cap; the
        dropped mass m({R > depth_cap}) is reported on the result.  Each
        excursion path composes its inverse branches as an integer triple,
        and each return time's mass is summed in integers as the paths
        return.  Before any branch is built the number of excursion paths is
        counted from the transition matrix, and DepthOverflow is raised when
        it exceeds RETURN_PATH_BUDGET, naming the largest depth_cap within it.
        """
        if not 0 <= base_cell < self.n_cells:
            raise ValueError("base_cell out of range")
        if depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")
        if not _recurrent(self.transition, base_cell):
            raise NoReturn(f"cell {base_cell} is not recurrent under the transition matrix")
        def paths(cap: int) -> int:
            return _excursion_paths(self.transition, base_cell, cap, RETURN_PATH_BUDGET)

        if paths(depth_cap) > RETURN_PATH_BUDGET:
            # the count grows with the cap, and cap 1 walks the single path (base_cell,)
            fits = 1
            while paths(fits + 1) <= RETURN_PATH_BUDGET:
                fits += 1
            raise DepthOverflow(
                f"first return to cell {base_cell} walks more than {RETURN_PATH_BUDGET} "
                f"excursion paths by depth {depth_cap}; lower depth_cap to at most {fits}"
            )

        cell = self._cells_q[base_cell]
        lo_n, lo_d, hi_n, hi_d = cell
        inverses = [b.inverse_triple for b in self.branches]
        cells = range(self.n_cells)
        returns = [self.admissible(k, base_cell) for k in cells]
        # excursion steps out of each cell, reversed so pops see them in order
        steps = [
            [j for j in reversed(cells) if j != base_cell and self.admissible(k, j)] for k in cells
        ]
        # (return time, float(lo), path, (A, B, C)) per returning path
        found = []
        # per return time, its mass over the cell's length, the sum of |A|/C, as (num, den)
        bins = [(0, 1)] * (depth_cap + 1)

        # DFS over admissible excursion paths (c_0=base, c_1, .., c_{R-1}),
        # each carrying its composed inverse H = h_{c_0} o ... o h_{c_{R-1}}
        # as the integer triple y -> (A*y + B)/C, C > 0.  H maps the base
        # cell onto the path's cylinder, and f^R on that cylinder is H's
        # inverse x -> (C*x - B)/A.  |H(hi) - H(lo)| = |A|/C times the cell's length.
        stack = [((base_cell,), *inverses[base_cell])]
        while stack:
            path, A, B, C = stack.pop()
            last = path[-1]
            depth = len(path)
            if returns[last]:
                # the cylinder's left end is H(lo) when H preserves orientation;
                # integer true division rounds it as float(Fraction) would
                if A > 0:
                    lo = (A * lo_n + B * lo_d) / (C * lo_d)
                else:
                    lo = (A * hi_n + B * hi_d) / (C * hi_d)
                found.append((depth, lo, path, (A, B, C)))
                num, den = bins[depth]
                lcm = math.lcm(den, C)
                bins[depth] = (num * (lcm // den) + abs(A) * (lcm // C), lcm)
            if depth < depth_cap:
                for j in steps[last]:
                    # compose inside: H o h_j
                    a, b, c = inverses[j]
                    stack.append((path + (j,), A * a, A * b + B * c, C * c))

        if not found:
            raise NoReturn(f"no return path to cell {base_cell} within depth {depth_cap}")
        found.sort(key=itemgetter(0, 1))
        branches = [InducedBranch(path, triple, cell) for _, _, path, triple in found]
        # rounding is monotone, so the float key orders as lo does; the
        # cylinders are disjoint, so only a float tie needs lo itself
        if len({lo for _, lo, _, _ in found}) < len(found):
            branches.sort(key=lambda br: (br.return_time, br.lo))
        masses = [Fraction(num, den) for num, den in bins[: found[-1][0] + 1]]
        return InducedMap(
            base=self,
            base_cell=base_cell,
            branches=tuple(branches),
            depth_cap=depth_cap,
            residual_mass=1 - sum(masses),
            return_masses=tuple(masses),
        )


def _excursion_paths(transition, k: int, depth_cap: int, budget: int) -> int:
    """Number of paths (k, c_1, .., c_{d-1}), d <= depth_cap, c_i != k: those
    the first-return DFS walks, every return branch among them.

    The count multiplies the indicator row of k by the transition matrix
    with k's column removed, once per depth, in integers.  It stops once
    the running total passes the budget.
    """
    n = len(transition)
    ends = [int(j == k) for j in range(n)]  # paths of the current depth, by last cell
    total = 1
    for _ in range(depth_cap - 1):
        if total > budget or not any(ends):
            break
        ends = [
            0 if j == k else sum(ends[i] for i in range(n) if transition[i][j]) for j in range(n)
        ]
        total += sum(ends)
    return total


def _recurrent(transition, k: int) -> bool:
    """Whether cell k can reach itself under the 0/1 transition matrix."""
    n = len(transition)
    seen = set()
    frontier = [j for j in range(n) if transition[k][j]]
    while frontier:
        j = frontier.pop()
        if j == k:
            return True
        if j in seen:
            continue
        seen.add(j)
        frontier.extend(i for i in range(n) if transition[j][i])
    return False


@dataclass(frozen=True)
class InducedBranch:
    """One first-return branch F = f^R on a cylinder inside the base cell.

    Held as its itinerary, the composed inverse H as the integer triple
    (A, B, C), y -> (A*y + B)/C with C > 0, and the base cell's bounds as
    (lo num, lo den, hi num, hi den).  `lo`, `hi`, `slope` and `intercept`
    are exact Fractions built from them on first access.
    """

    itinerary: tuple[int, ...]
    triple: tuple[int, int, int]
    cell: tuple[int, int, int, int]

    @property
    def return_time(self) -> int:
        return len(self.itinerary)

    def _end(self, upper: bool) -> Fraction:
        """H at the base cell's upper or lower bound."""
        A, B, C = self.triple
        n, d = self.cell[2:] if upper else self.cell[:2]
        return Fraction(A * n + B * d, C * d)

    @cached_property
    def lo(self) -> Fraction:
        return self._end(self.triple[0] < 0)

    @cached_property
    def hi(self) -> Fraction:
        return self._end(self.triple[0] > 0)

    @cached_property
    def slope(self) -> Fraction:
        A, _, C = self.triple
        return Fraction(C, A)

    @cached_property
    def intercept(self) -> Fraction:
        A, B, _ = self.triple
        return Fraction(-B, A)

    def forward(self, x):
        return self.slope * x + self.intercept

    @property
    def measure(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class InducedMap:
    """First-return system F = f^R to one partition cell, depth-capped.

    `return_masses[n]` is m(R = n) over the base cell's length, for
    n = 0..max_return_time, summed in integers during the enumeration.
    """

    base: ExpandingMarkovMap
    base_cell: int
    branches: tuple[InducedBranch, ...]
    depth_cap: int
    residual_mass: Fraction
    return_masses: tuple[Fraction, ...]

    @property
    def max_return_time(self) -> int:
        return len(self.return_masses) - 1

    @cached_property
    def _tail_sums(self) -> list[Fraction]:
        """m(R >= n) over the cell's length for n = 0..max_return_time.

        Summed from the deepest of the per-return-time masses up, one
        Fraction addition per return time; no branch is read.
        """
        sums = list(self.return_masses)
        for n in range(len(sums) - 2, -1, -1):
            sums[n] += sums[n + 1]
        return sums

    def _tail(self, n: int) -> Fraction:
        """m(R >= n) normalised to the base cell, residual mass included."""
        sums = self._tail_sums
        mass = sums[n] if n < len(sums) else Fraction(0)
        return mass + self.residual_mass

    @property
    def excursion_mass(self) -> Fraction:
        """Exact m(R >= 2): enumerated deep-branch mass plus the residual."""
        return self._tail(2)

    def tail_masses(self):
        """m(R >= n) for n = 1..depth_cap, normalised to the base cell.

        Exact Fractions; the residual mass beyond the cap sits in every
        level's tail, so m(R >= n) = residual + sum of deeper cell masses.
        """
        return [self._tail(n) for n in range(1, self.depth_cap + 1)]


@dataclass(frozen=True)
class TailStatistics:
    tail: tuple  # m(R >= n), n = 1..depth
    alpha: float
    sigma0: float
    alpha_stderr: float = 0.0


def tail_statistics(induced: InducedMap, roof_upper_bound: float = 1.0) -> TailStatistics:
    """Exponential tail fit: least squares on log m(R >= n) against n.

    sigma0 is reported as half the critical exponent alpha / roof_upper_bound,
    checked empirically: the reweighted masses m(R = n) * exp(sigma0 n taubar)
    must decay over the enumerated depths.
    """
    tail = induced.tail_masses()
    if induced.excursion_mass == 0:
        # immediate full return: no excursions at all
        return TailStatistics(tuple(tail), math.inf, math.inf)
    positive = [(n + 1, float(t)) for n, t in enumerate(tail) if t > 0]
    if len(positive) < 4:
        raise InsufficientDepth(f"only {len(positive)} positive tail points")
    ns = np.array([p[0] for p in positive], dtype=float)
    logs = np.log([p[1] for p in positive])
    slope, intercept = np.polyfit(ns, logs, 1)
    alpha = -float(slope)
    sigma0 = alpha / (2.0 * roof_upper_bound)
    resid = logs - (slope * ns + intercept)
    denom = float(np.sum((ns - ns.mean()) ** 2))
    if len(ns) > 2 and denom > 0:
        alpha_stderr = math.sqrt(float(np.sum(resid**2)) / (len(ns) - 2) / denom)
    else:
        alpha_stderr = math.inf
    # empirical convergence check of sum m(R=n) e^{sigma0 n taubar}
    masses = [float(tail[n] - tail[n + 1]) for n in range(len(tail) - 1)]
    terms = [m * math.exp(sigma0 * (n + 1) * roof_upper_bound) for n, m in enumerate(masses)]
    nonzero = [t for t in terms if t > 0]
    if len(nonzero) >= 4 and not nonzero[-1] < nonzero[1]:
        raise InsufficientDepth("reweighted tail terms do not decay; deepen the enumeration")
    return TailStatistics(tuple(tail), alpha, sigma0, alpha_stderr)


# -- built-in model zoo ------------------------------------------------------


def doubling_map() -> ExpandingMarkovMap:
    """x -> 2x mod 1 with partition [0,1/2), [1/2,1); full branch."""
    half = Fraction(1, 2)
    return ExpandingMarkovMap(
        branches=(
            AffineBranch(Fraction(0), half, Fraction(2), Fraction(0)),
            AffineBranch(half, Fraction(1), Fraction(2), Fraction(-1)),
        ),
        transition_matrix=((1, 1), (1, 1)),
        expansion_bound=0.5,
        name="doubling",
    )


def three_branch_map() -> ExpandingMarkovMap:
    """Transitive, not full-branch: 2x+1/3 | 3x-1 | 3x-2 on thirds.

    Cell A never maps to itself, which makes the first-return tails
    genuinely exponential with rate ln(3/2).
    """
    third = Fraction(1, 3)
    return ExpandingMarkovMap(
        branches=(
            AffineBranch(Fraction(0), third, Fraction(2), third),
            AffineBranch(third, 2 * third, Fraction(3), Fraction(-1)),
            AffineBranch(2 * third, Fraction(1), Fraction(3), Fraction(-2)),
        ),
        transition_matrix=((0, 1, 1), (1, 1, 1), (1, 1, 1)),
        expansion_bound=0.5,
        name="three_branch",
    )


def expanding_circle_map(degree: int) -> ExpandingMarkovMap:
    """x -> degree*x mod 1 with the natural full-branch partition."""
    if degree < 2:
        raise ValueError("degree must be >= 2")
    d = Fraction(degree)
    branches = tuple(
        AffineBranch(Fraction(k, degree), Fraction(k + 1, degree), d, Fraction(-k))
        for k in range(degree)
    )
    ones = tuple(tuple(1 for _ in range(degree)) for _ in range(degree))
    return ExpandingMarkovMap(branches, ones, expansion_bound=1.0 / degree, name=f"circle_{degree}")

