"""Roof functions over expanding Markov maps.

A roof assigns a positive flow time to each base point.  The module
provides a periodic-orbit witness search that detects when the roof is not
cohomologous to any function constant on partition cells, certification of
explicit coboundary representations, and a compactly supported bump
perturbation used to force a witness.

Roofs built from rational polynomial data evaluate exactly on Fraction
inputs, by Horner's rule in integers, and the witness search then reports
exact rational gaps.  Verdicts never hinge on float roundoff for such roofs.
Such a roof also keeps its coefficient table, and the witness search sums a
closed orbit's roof values from it in integers, one Fraction per orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InadmissibleItinerary, InvalidRoof
from .markov_maps import ExpandingMarkovMap, low_discrepancy

WITNESS_THRESHOLD = 1e-10
# a polynomial enclosure stops subdividing once no piece reaches beyond the
# attained values by more than this fraction of their largest magnitude
ENCLOSURE_RTOL = Fraction(1, 1000)
_COBOUNDARY_PROBES = 10_000  # certify_coboundary's probe points per branch

# sup of |d/du (1-u^2)^3| on [-1,1] is 96/(25*sqrt(5)), attained at u=1/sqrt(5)
_BUMP_SLOPE_SUP = 96.0 / (25.0 * math.sqrt(5.0))


@dataclass(frozen=True)
class RoofFunction:
    """Positive return-time function r over a Markov map.

    `value` is polymorphic: Fraction in, Fraction out whenever `exact` is
    set, float otherwise.  `value_many` evaluates a float array at once for
    the flow machinery.  `lower_bound`, `upper_bound` and `branch_lipschitz`
    (a bound on |D(r o h)| over every inverse branch h) are certified by
    the builder from the roof's own data, by an exact Bernstein enclosure
    or a closed form, and are never taken from a caller.

    `cell_coefficients` is the exact table (c0, c1, ...) of the polynomial
    on each partition cell, set by the polynomial builders only when every
    coefficient is rational, and None for any other roof.  `value` must
    agree with it wherever it is set: a wrapper that records the calls
    keeps it, and a change of the function (`perturb_bump`) drops it.
    """

    base: ExpandingMarkovMap
    value: Callable
    value_many: Callable
    lower_bound: float
    upper_bound: float
    branch_lipschitz: float
    exact: bool = False
    cell_coefficients: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        if not self.lower_bound > 0:
            raise InvalidRoof(f"roof must stay positive, but its infimum is {self.lower_bound}")


def _is_rational(v) -> bool:
    return isinstance(v, Rational)


def _horner(coeffs: Sequence, x):
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return acc


def _integer_table(table: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """Fraction coefficient lists (c0, c1, ..) as integers over one denominator.

    Returns the common denominator D and, per list, D c_n, .., D c_0,
    highest degree first, padded with zeros to one degree n for all lists.
    No coefficients at all is the zero polynomial [0], which the enclosure
    then rejects.
    """
    den = math.lcm(*(c.denominator for cs in table for c in cs))
    width = max(1, *map(len, table))
    rows = [
        [0] * (width - len(cs)) + [c.numerator * (den // c.denominator) for c in reversed(cs)]
        for cs in table
    ]
    return den, rows


def _polynomial_value(table: Sequence[Sequence], exact: bool, cell_of: Callable) -> Callable:
    """A roof's `value`: c0 + c1 x + ... from the row `cell_of(x)` of `table`.

    With exact (Fraction) coefficients a Rational point p/q is the one-point
    walk [(cell, p, q)] of `_lap_sum`, Horner's rule in integers.  Any other
    point, and float coefficients, take `_horner`.
    """
    lap = _lap_sum(table) if exact else None

    def value(x):
        k = cell_of(x)
        if lap is not None and isinstance(x, Rational):
            return lap([(k, x.numerator, x.denominator)])
        return _horner(table[k], x)

    return value


def _lap_sum(table: Sequence[Sequence[Fraction]]) -> Callable:
    """Exact sum of an exact per-cell polynomial roof along an `orbit_walk`.

    Each point p/q in cell k adds D q^n r_k(p/q) = sum of D c_j p^j q^(n-j),
    by Horner's rule in integers, with one common denominator D and
    degree n for every cell.  The walk's denominators divide one another,
    so the running sum is rescaled by (q'/q)^n whenever q grows, and the
    lap is one Fraction S / (D q^n) at the end.
    """
    den, rows = _integer_table(table)
    degree = len(rows[0]) - 1
    rows = [(row[0], row[1:]) for row in rows]

    def lap(walk) -> Fraction:
        total, q_lap = 0, walk[0][2]
        powers = [q_lap**j for j in range(1, degree + 1)]
        for k, p, q in walk:
            if q != q_lap:
                total *= (q // q_lap) ** degree
                q_lap, powers = q, [q**j for j in range(1, degree + 1)]
            top, rest = rows[k]
            acc = top
            for c, qk in zip(rest, powers):
                acc = acc * p + c * qk
            total += acc
        return Fraction(total, den * q_lap**degree)

    return lap


def _bernstein(coeffs: Sequence, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Bernstein coefficients on [lo, hi] of c0 + c1 x + ..., exact in Fraction.

    No coefficients at all is the zero polynomial.
    """
    q = [Fraction(c) for c in coeffs] or [Fraction(0)]
    n = len(q) - 1
    for i in range(n):  # Taylor shift to p(lo + t)
        for k in range(n - 1, i - 1, -1):
            q[k] += lo * q[k + 1]
    q = [c * (hi - lo) ** k for k, c in enumerate(q)]  # then t -> (hi - lo) t
    return [
        sum(Fraction(math.comb(i, k), math.comb(n, k)) * q[k] for k in range(i + 1))
        for i in range(n + 1)
    ]


def _halves(b: list[Fraction]):
    """de Casteljau split of a Bernstein piece at its midpoint."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(u + v) / 2 for u, v in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def _enclose(pieces: list[list[Fraction]]):
    """Certified [inf, sup] of a piecewise polynomial in Bernstein form.

    A piece's range lies between its least and greatest coefficient, and
    its end coefficients are attained values.  Pieces that reach beyond the
    attained range by more than ENCLOSURE_RTOL of its largest magnitude are
    split at their midpoints until none does, so the enclosure is within
    that tolerance of the true range (Cargo-Shisha 1966).
    """
    while True:
        ends = [v for b in pieces for v in (b[0], b[-1])]
        lo, hi = min(ends), max(ends)
        slack = ENCLOSURE_RTOL * max(-lo, hi)
        loose = [min(b) < lo - slack or max(b) > hi + slack for b in pieces]
        if not any(loose):
            return min(min(b) for b in pieces), max(max(b) for b in pieces)
        pieces = [h for b, split in zip(pieces, loose) for h in (_halves(b) if split else (b,))]


def _polynomial_roof(base: ExpandingMarkovMap, table, value, value_many, exact) -> RoofFunction:
    """Roof with one polynomial per cell and every constant certified.

    The bounds are the enclosure of the values, and `branch_lipschitz` is
    sup |p'| from the enclosure of the derivatives times the map's
    `expansion_bound`.
    """
    cells = list(zip(base.edges, base.edges[1:]))
    inf, sup = _enclose([_bernstein(cs, lo, hi) for cs, (lo, hi) in zip(table, cells)])
    derivs = [[k * c for k, c in enumerate(cs)][1:] for cs in table]
    d_inf, d_sup = _enclose([_bernstein(ds, lo, hi) for ds, (lo, hi) in zip(derivs, cells)])
    lipschitz = max(-d_inf, d_sup) * base.expansion_bound
    return RoofFunction(
        base, value, value_many, inf, sup, lipschitz, exact, tuple(table) if exact else None
    )


def polynomial_roof(base: ExpandingMarkovMap, coeffs: Sequence) -> RoofFunction:
    """Roof r(x) = c0 + c1 x + ... with one global coefficient list.

    Rational coefficients keep the exact evaluation path available.  The
    bounds and the Lipschitz constant are certified from the coefficients
    on each cell, exactly even for float coefficients.
    """
    exact = all(_is_rational(c) for c in coeffs)
    cs = tuple(Fraction(c) for c in coeffs) if exact else tuple(float(c) for c in coeffs)
    value = _polynomial_value([cs], exact, lambda x: 0)
    fcs = tuple(float(c) for c in cs)

    def value_many(xs):
        return _horner_many(np.asarray(xs, dtype=float), fcs)

    return _polynomial_roof(base, [cs] * base.n_cells, value, value_many, exact)


def _horner_many(xs: np.ndarray, fcs) -> np.ndarray:
    """numpy.polynomial.polynomial.polyval(xs, fcs) for a float array xs and a
    flat coefficient list: its Horner steps, from its c[-1] + x*0 start, run
    in place without its argument handling."""
    out = fcs[-1] + xs * 0
    for c in fcs[-2::-1]:
        out *= xs
        out += c
    return out


def per_branch_polynomial_roof(
    base: ExpandingMarkovMap, coeffs_per_branch: Sequence[Sequence]
) -> RoofFunction:
    """Roof given by one polynomial per partition cell; cells half-open.

    The constants are certified cell by cell, as in `polynomial_roof`.
    """
    if len(coeffs_per_branch) != base.n_cells:
        raise InvalidRoof(
            f"need one coefficient list per partition cell: got {len(coeffs_per_branch)} "
            f"for {base.n_cells} cells"
        )
    exact = all(_is_rational(c) for cs in coeffs_per_branch for c in cs)
    table = tuple(
        tuple(Fraction(c) if exact else float(c) for c in cs) for cs in coeffs_per_branch
    )

    value = _polynomial_value(table, exact, base.cell_index)
    ftable = [tuple(float(c) for c in cs) for cs in table]

    def value_many(xs):
        xs = np.asarray(xs, dtype=float)
        cells = base.cells_many(xs)  # each float in its exact cell, as in value
        out = np.empty_like(xs)
        for k, fcs in enumerate(ftable):
            mask = cells == k
            if mask.any():
                out[mask] = _horner_many(xs[mask], fcs)
        return out

    return _polynomial_roof(base, table, value, value_many, exact)


def constant_roof(base: ExpandingMarkovMap, c) -> RoofFunction:
    return polynomial_roof(base, (c,))


def cosine_roof(
    base: ExpandingMarkovMap, mean: float, amplitude: float, frequency: int = 1
) -> RoofFunction:
    """r(x) = mean + amplitude*cos(2 pi frequency x); requires mean > |amplitude|.

    The constants are closed forms: mean -+ |amplitude| and
    2 pi frequency |amplitude| times the map's `expansion_bound`.
    """
    if not mean > abs(amplitude):
        raise InvalidRoof("cosine roof must stay positive: need mean > |amplitude|")

    def value(x):
        return mean + amplitude * math.cos(2.0 * math.pi * frequency * float(x))

    def value_many(xs):
        return mean + amplitude * np.cos(2.0 * np.pi * frequency * np.asarray(xs, dtype=float))

    k = 2.0 * math.pi * frequency * abs(amplitude) * base.expansion_bound
    return RoofFunction(
        base, value, value_many, mean - abs(amplitude), mean + abs(amplitude),
        k * (1.0 + 1e-6), False,
    )


# -- periodic-orbit witness search -------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Pair of closed orbit segments of equal length and visit counts."""

    itinerary1: tuple[int, ...]
    itinerary2: tuple[int, ...]
    x1: object
    x2: object
    sum1: object
    sum2: object

    @property
    def gap(self):
        return abs(self.sum1 - self.sum2)

    @property
    def period(self) -> int:
        return len(self.itinerary1)


@dataclass(frozen=True)
class CohomologyReport:
    """Outcome of the periodic-orbit obstruction search.

    NoWitnessUpToPeriod is a bounded-search statement only, never a
    certificate that the roof is cohomologous to a locally constant one.
    """

    witness: Witness | None
    searched_periods: int
    verdict: str  # "WitnessFound" | "NoWitnessUpToPeriod"

    @property
    def found(self) -> bool:
        return self.witness is not None

    def to_csv(self) -> str:
        # tolerance 0 marks exact rational sums; float sums carry roundoff
        header = "itinerary1,itinerary2,sum1,sum2,gap,tolerance"
        if self.witness is None:
            return header + "\n"
        w = self.witness
        exact = isinstance(w.sum1, Fraction) and isinstance(w.sum2, Fraction)
        row = ",".join(
            [
                _word_str(w.itinerary1),
                _word_str(w.itinerary2),
                _num_str(w.sum1),
                _num_str(w.sum2),
                _num_str(w.gap),
                "0" if exact else "1e-12",
            ]
        )
        return header + "\n" + row + "\n"


def _word_str(word: Iterable[int]) -> str:
    return "".join(str(k) for k in word)


def _num_str(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return f"{float(v):.17g}"


def enumerate_cyclic_classes(m: ExpandingMarkovMap, period: int):
    """Admissible cyclic words of exact minimal period, one per rotation class.

    Yields the lexicographically smallest rotation of each class, in
    lexicographic order.  These are the Lyndon words of length `period`,
    generated by Duval's algorithm (Fredricksen-Kessler-Maiorana order):
    increment the last letter, extend the word periodically to full
    length, then strip trailing maximal letters.  Memory is O(period).
    """
    top = m.n_cells - 1
    word = [-1]
    while word:
        word[-1] += 1
        lap = len(word)
        if lap == period:
            canon = tuple(word)
            try:
                m.check_itinerary(canon)
            except InadmissibleItinerary:
                pass
            else:
                yield canon
        while len(word) < period:
            word.append(word[-lap])
        while word and word[-1] == top:
            word.pop()


def _divisors(p: int):
    return [q for q in range(1, p + 1) if p % q == 0]


def witness_search(roof: RoofFunction, max_period: int) -> CohomologyReport:
    """Search closed orbits for unequal Birkhoff sums at equal visit counts.

    For each total period p up to max_period, every admissible orbit of
    minimal period q dividing p is traversed p/q times; orbits whose
    period-p visit-count vectors agree would have equal sums if the roof
    were cohomologous to a function constant on partition cells, so any
    gap above WITNESS_THRESHOLD is a witness against that.  The first
    period with a gap wins; within it the largest gap, ties broken by
    smallest itinerary pair.  Groups whose sums span no more than the
    threshold are skipped before any pair is compared.

    Each orbit is walked once, on integer numerators (`orbit_walk`).  A
    roof with `cell_coefficients` sums the lap from that table in integers
    over one common denominator and builds one Fraction for it; any other
    roof (bumped, cosine, float coefficients) sums `roof.value` over the
    orbit points.
    """
    if max_period < 2:
        raise ValueError("max_period must be >= 2")
    threshold = WITNESS_THRESHOLD
    m = roof.base
    lap_sum = _lap_sum(roof.cell_coefficients) if roof.cell_coefficients else None

    # (word, first point, one-lap sum, one-lap visit counts) per minimal period
    classes: dict[int, list] = {}
    for q in range(1, max_period + 1):
        rows = []
        for word in enumerate_cyclic_classes(m, q):
            walk = m.orbit_walk(word)
            if walk is None:
                continue  # coding touches a cell boundary
            if lap_sum is None:
                lap = sum(roof.value(Fraction(p, d)) for _, p, d in walk)
            else:
                lap = lap_sum(walk)
            _, p0, d0 = walk[0]
            visits = tuple(word.count(c) for c in range(m.n_cells))
            rows.append((word, Fraction(p0, d0), lap, visits))
        classes[q] = rows

    for p in range(2, max_period + 1):
        groups: dict[tuple, list] = {}
        for q in _divisors(p):
            reps = p // q
            for word, x0, lap, visits in classes[q]:
                if reps > 1:  # one lap is used as it stands, with no copy
                    word, lap, visits = word * reps, lap * reps, tuple(v * reps for v in visits)
                groups.setdefault(visits, []).append((word, x0, lap))
        best = None
        for members in groups.values():
            if len(members) < 2:
                continue
            # a group whose sums span no more than the threshold has no pair
            # above it; rounding is monotone, so this holds for floats too
            sums = [s for _, _, s in members]
            if max(sums) - min(sums) <= threshold:
                continue
            members.sort(key=lambda t: t[0])
            for (w1, x1, s1), (w2, x2, s2) in itertools.combinations(members, 2):
                gap = abs(s1 - s2)
                if gap <= threshold:
                    continue
                cand = (gap, w1, w2, x1, x2, s1, s2)
                if best is None or gap > best[0] or (gap == best[0] and (w1, w2) < (best[1], best[2])):
                    best = cand
        if best is not None:
            gap, w1, w2, x1, x2, s1, s2 = best
            return CohomologyReport(
                witness=Witness(w1, w2, x1, x2, s1, s2),
                searched_periods=p,
                verdict="WitnessFound",
            )
    return CohomologyReport(witness=None, searched_periods=max_period, verdict="NoWitnessUpToPeriod")


# -- coboundary certification -------------------------------------------------


def certify_coboundary(roof: RoofFunction, gamma_coboundary: Callable) -> float:
    """Worst per-branch range of r - gamma o f + gamma over probe points.

    Zero (up to roundoff) certifies that the supplied transfer term makes
    the roof constant on every partition cell.  The returned deviation is
    sup - inf within the worst branch, over _COBOUNDARY_PROBES
    low-discrepancy points per branch.  `gamma_coboundary` takes an array.
    """
    base = roof.base
    k = np.arange(base.n_cells)[:, None]
    xs = low_discrepancy(_COBOUNDARY_PROBES, base.edges_f[:-1, None], base.edges_f[1:, None], 0.29 * k)
    fx = base.slopes_f[:, None] * xs + base.intercepts_f[:, None]
    vals = (
        roof.value_many(xs)
        - np.asarray(gamma_coboundary(fx), dtype=float)
        + np.asarray(gamma_coboundary(xs), dtype=float)
    )
    return float(np.max(vals.max(axis=1) - vals.min(axis=1)))


# -- bump perturbation ---------------------------------------------------------


def perturb_bump(roof: RoofFunction, center, radius, amplitude) -> RoofFunction:
    """Add a compactly supported bump a*(1 - u^2)^3, u = (x-center)/radius.

    The bump is C^2 with support [center-radius, center+radius] and peaks
    at `amplitude` on the center, so the certified bounds move by closed
    forms: a positive amplitude raises the upper bound by exactly that
    much, a negative one lowers the lower bound by |amplitude|, and the
    Lipschitz constant grows by the bump's slope bound.  Positivity
    requires |amplitude| < the roof's lower bound.  The bump may touch any
    periodic orbit; witness_search on the result says whether a witness
    survives it.
    """
    if not radius > 0:
        raise InvalidRoof("bump radius must be positive")
    if abs(amplitude) >= float(roof.lower_bound):
        raise InvalidRoof("bump |amplitude| must stay below the roof lower bound")
    if amplitude == 0:
        return roof

    exact = roof.exact and all(_is_rational(v) for v in (center, radius, amplitude))
    if exact:
        c, rad, amp = Fraction(center), Fraction(radius), Fraction(amplitude)
    else:
        c, rad, amp = float(center), float(radius), float(amplitude)
    old_value = roof.value

    def value(x):
        base_val = old_value(x)
        u = (x - c) / rad
        if not -1 < u < 1:
            return base_val
        w = 1 - u * u
        return base_val + amp * w * w * w

    old_many = roof.value_many
    fc, frad, famp = float(center), float(radius), float(amplitude)

    def value_many(xs):
        vals = np.asarray(old_many(xs), dtype=float).copy()
        u = (np.asarray(xs, dtype=float) - fc) / frad
        mask = np.abs(u) < 1.0
        w = 1.0 - u[mask] * u[mask]
        vals[mask] += famp * w * w * w
        return vals

    new_lower = float(roof.lower_bound) + min(0.0, float(amplitude))
    new_lip = float(roof.branch_lipschitz) + (
        _BUMP_SLOPE_SUP * abs(float(amplitude)) / float(radius)
    ) * roof.base.expansion_bound * (1.0 + 1e-6)
    return replace(
        roof,
        value=value,
        lower_bound=new_lower,
        upper_bound=roof.upper_bound + max(0, amplitude),
        branch_lipschitz=new_lip,
        exact=exact,
        value_many=value_many,
        cell_coefficients=None,
    )
