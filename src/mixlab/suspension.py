"""Suspension semiflows over Markov maps and hyperbolic skew products.

A suspension places a point (w, u) under a roof r and flows it upward at
unit speed; hitting the roof applies the base dynamics and resets u.  The
module provides exact and vectorized flow advancement, a seeded sampler
for the normalized invariant measure, Monte Carlo correlation series with
batch-means error bars, a log-linear decay-rate fit with an explicit noise
floor, and the temporal-distance functional whose vanishing characterizes
roofs cohomologous to locally constant ones.

All randomness is generated per batch from ``default_rng([seed, batch])``
and batches are merged in index order, so results are byte-identical for
any worker count.  `correlation` spreads its batches over worker processes
forked from the caller (POSIX ``fork`` only); the caller runs every
``workers``-th batch itself, and the children inherit the observables by
fork, so observables need not be picklable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryPoint, BracketUndefined, CrossingBudgetExceeded, WindowTooShort
from .markov_maps import ExpandingMarkovMap
from .roof import RoofFunction
from .skew_product import HyperbolicSkewProduct
from .transfer_operator import InvariantDensity, integrate

DEFAULT_DT = 0.1
DEFAULT_SPAN_MULT = 30.0
DEFAULT_BATCH = 50_000
# most worker processes `correlation` takes, and so the bound on [run] threads and --threads
MAX_THREADS = 256
# Gauss-Legendre nodes for the roof average over the base
_QUAD_SAMPLES = 4096


@dataclass(frozen=True)
class SuspensionSemiflow:
    """Semiflow on {(w, u): 0 <= u < r(w)} with base map or skew product.

    The roof lives over the base interval map and is constant along fibers
    when the base is a skew product.  ``mean_roof`` is the roof average
    against the base invariant measure and sets the default time scale;
    ``roof_sup`` is the roof's certified ``upper_bound``, the envelope of
    the rejection sampler; because r <= roof_sup everywhere, accepting
    with probability r(x)/roof_sup draws exactly from the length-biased
    measure.
    """

    base: object
    roof: RoofFunction
    mean_roof: float
    roof_sup: float
    base_density: InvariantDensity | None = None
    # temporal_distance's backward roof sums, keyed by (exact, point, past)
    _backward_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def skew(self) -> HyperbolicSkewProduct | None:
        return self.base if isinstance(self.base, HyperbolicSkewProduct) else None

    @property
    def base_map(self) -> ExpandingMarkovMap:
        sk = self.skew
        return sk.base if sk is not None else self.base

    def default_times(self, dt: float = DEFAULT_DT, t_max: float | None = None) -> np.ndarray:
        if t_max is None:
            t_max = DEFAULT_SPAN_MULT * self.mean_roof
        steps = int(round(t_max / dt))
        return np.linspace(0.0, steps * dt, steps + 1)


def suspend(base, roof: RoofFunction, base_density: InvariantDensity | None = None) -> SuspensionSemiflow:
    """Build a suspension and precompute its roof average and envelope.

    `base_density` is None (normalized Lebesgue) or an InvariantDensity;
    it is the base invariant density used for the roof average and for
    sampling.  The sampling envelope is the roof's certified upper bound.
    """
    base_map = base.base if isinstance(base, HyperbolicSkewProduct) else base
    if roof.base is not base_map:
        raise ValueError("roof must be defined over the suspension's base map")
    dens = None if base_density is None else base_density.at
    mass = integrate(base_map, np.ones_like, _QUAD_SAMPLES, dens)
    mean = integrate(base_map, roof.value_many, _QUAD_SAMPLES, dens) / mass
    return SuspensionSemiflow(base, roof, mean, float(roof.upper_bound), base_density)


# ---------------------------------------------------------------------------
# flow advancement

def flow_to(susp: SuspensionSemiflow, point, t):
    """Advance one phase point by time t >= 0.

    `point` is (x, u) over a map base and ((x, z), u) over a skew base.
    Rational data over an exact roof flow exactly; orbits that land on a
    partition boundary raise BoundaryPoint.
    """
    w, u = point
    sk = susp.skew
    if sk is not None:
        x, z = w
    else:
        x, z = w, None
    bm = susp.base_map

    exact = (
        susp.roof.exact
        and isinstance(x, Rational)
        and isinstance(u, Rational)
        and isinstance(t, Rational)
    )
    if exact:
        x, u, t = Fraction(x), Fraction(u), Fraction(t)
    else:
        x, u, t = float(x), float(u), float(t)
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    r = susp.roof.value(x)
    if not 0 <= u < r:
        raise ValueError("phase point must satisfy 0 <= u < r(x)")

    u = u + t
    guard = int(float(t) / float(susp.roof.lower_bound)) + 2
    while u >= r:
        guard -= 1
        if guard < 0:
            raise CrossingBudgetExceeded("crossing count exceeded the roof lower-bound budget")
        u = u - r
        if sk is not None:
            z = sk.fiber_map(x, z)
        x = bm.evaluate(x)[0]
        r = susp.roof.value(x)
    if sk is not None:
        return ((x, z), u)
    return (x, u)


def _advance_arrays(susp: SuspensionSemiflow, x, z, u, r, live, dt: float, roof_many: Callable):
    """In-place vectorized advance of a state batch by dt.

    The state is (x, z, u, r) with r equal to roof_many(x) elementwise; a
    point's roof changes only when it crosses, so r is refreshed at the
    crossed indices alone and the invariant holds again on return.  `live`
    is a boolean buffer of the batch's length that the step overwrites.
    """
    bm = susp.base_map
    sk = susp.skew
    u += dt
    np.greater_equal(u, r, out=live)
    guard = int(dt / float(susp.roof.lower_bound)) + 2
    while live.any():
        guard -= 1
        if guard < 0:
            raise CrossingBudgetExceeded("crossing count exceeded the roof lower-bound budget")
        idx = np.nonzero(live)[0]
        u[idx] -= r[idx]
        if sk is not None:
            z[idx] = sk.fiber_map(x[idx], z[idx])
        moved = bm.evaluate_many(x[idx])
        x[idx] = moved
        r[idx] = roof_many(moved)
        live[idx] = u[idx] >= r[idx]
    return x, z, u


# ---------------------------------------------------------------------------
# invariant sampling

def _draw_base(susp: SuspensionSemiflow, rng, m: int) -> np.ndarray:
    """Draw m base points from the configured invariant density."""
    bm = susp.base_map
    lo, hi = float(bm.domain_lo), float(bm.domain_hi)
    dens = susp.base_density
    if dens is None:
        return lo + (hi - lo) * rng.random(m)
    edges = np.asarray(dens.bin_edges, dtype=float)
    masses = np.asarray(dens.values, dtype=float) * np.diff(edges)
    cum = np.cumsum(masses)
    v = rng.random(m) * cum[-1]
    k = np.searchsorted(cum, v, side="right")
    k = np.minimum(k, len(masses) - 1)
    prev = np.where(k > 0, cum[k - 1], 0.0)
    frac = (v - prev) / masses[k]
    return edges[k] + frac * (edges[k + 1] - edges[k])


def _sample_arrays(susp: SuspensionSemiflow, rng, n: int, fiber_depth: int = 30):
    """Length-biased sampler for the normalized suspension measure.

    Proposes base points from the invariant density, pushed `fiber_depth`
    base steps on skew bases, accepts with probability r(x)/roof_sup, and
    draws the height uniformly on [0, r(x)).  Only accepted proposals carry
    a fiber point, pushed from the disk center along their own base orbit.
    """
    bm = susp.base_map
    sk = susp.skew
    roof_many = susp.roof.value_many
    env = susp.roof_sup
    dim = sk.fiber_space.dimension if sk is not None else 0

    xs = np.empty(n)
    us = np.empty(n)
    zs = np.empty((n, dim)) if sk is not None else None
    filled = 0
    while filled < n:
        m = max(1024, int(1.5 * (n - filled)))
        cand0 = cand = _draw_base(susp, rng, m)
        if sk is not None:
            for _ in range(fiber_depth):
                cand = bm.evaluate_many(cand)
        r = roof_many(cand)
        u01 = rng.random(m)
        accept = rng.random(m) * env < r
        take = min(n - filled, int(accept.sum()))
        sel = np.nonzero(accept)[0][:take]
        xs[filled : filled + take] = cand[sel]
        us[filled : filled + take] = u01[sel] * r[sel]
        if sk is not None:
            y = cand0[sel]
            z = np.tile(np.asarray(sk.fiber_space.center, dtype=float), (take, 1))
            for _ in range(fiber_depth):
                z = sk.fiber_map(y, z)
                y = bm.evaluate_many(y)
            zs[filled : filled + take] = z
        filled += take
    return xs, zs, us


# ---------------------------------------------------------------------------
# correlation series

@dataclass(frozen=True)
class CorrelationSeries:
    """Mean-subtracted correlation estimates on a time grid.

    A series from `correlation` keeps its per-batch means, one row per
    batch of E[phi o X^t . psi] and E[phi o X^t], and one E[psi] each.
    """

    times: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    sample_count: int
    batch_means: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_batches(cls, times, prod, phim, psim, per_batch: int) -> "CorrelationSeries":
        """The estimate and its batch-means standard error over the given batches."""
        n_batches = len(psim)
        rho = prod.mean(axis=0) - phim.mean(axis=0) * psim.mean()
        batch_rho = prod - phim * psim[:, None]
        stderr = batch_rho.std(axis=0, ddof=1) / math.sqrt(n_batches)
        return cls(times, rho, stderr, n_batches * per_batch, (prod, phim, psim))

    def head(self, n_batches: int) -> "CorrelationSeries":
        """The series over this run's first n_batches batches.

        Batch b draws from its own stream ([seed, b]), so this is the
        series that `correlation` gives for n_batches * per_batch samples
        with the same seed, whenever that call lays out batches of the same
        size (as every call with samples a multiple of batch_size does).
        """
        prod, phim, psim = self.batch_means
        if not 2 <= n_batches <= len(psim):
            raise ValueError(f"need 2 to {len(psim)} batches, got {n_batches}")
        per_batch = self.sample_count // len(psim)
        return CorrelationSeries.from_batches(
            self.times, prod[:n_batches], phim[:n_batches], psim[:n_batches], per_batch
        )

    def to_csv(self) -> str:
        lines = ["t,rho,stderr"]
        for t, v, e in zip(self.times, self.values, self.std_errors):
            lines.append(f"{float(t)!r},{float(v)!r},{float(e)!r}")
        return "\r\n".join(lines) + "\r\n"


def _eval_obs(f: Callable, x, u, z):
    return f(x, u) if z is None else f(x, u, z)


def correlation(
    susp: SuspensionSemiflow,
    phi: Callable,
    psi: Callable,
    times: Sequence | None = None,
    samples: int = 200_000,
    seed: int = 0,
    threads: int = 1,
    batch_size: int = DEFAULT_BATCH,
    fiber_depth: int = 30,
) -> CorrelationSeries:
    """Monte Carlo correlation rho(t) = E[phi o X^t . psi] - E[phi] E[psi].

    Observables take (x, u) over a map base and (x, u, z) over a skew base
    and must accept numpy arrays.  Means are subtracted in control-variate
    form using the same sample; standard errors come from batch means.
    The batch layout depends only on (samples, batch_size, seed), so the
    thread count never changes the output.

    `threads` (1 to MAX_THREADS) is the number of worker processes, capped
    at the batch count.  The caller runs batches 0, workers, 2 workers, ...
    itself and workers - 1 children forked from it run the rest (POSIX
    ``fork`` only), so the observables reach them by fork and need not be
    picklable.  An error raised in a child reaches the caller with its
    type, and no child outlives the call.
    """
    if times is None:
        times = susp.default_times()
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("need a one-dimensional, nonempty time grid")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing and start at t >= 0")
    if samples < 2:
        raise ValueError("need at least two samples")
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be 1 to {MAX_THREADS}, got {threads}")

    n_batches = max(2, math.ceil(samples / batch_size))
    per_batch = math.ceil(samples / n_batches)
    roof_many = susp.roof.value_many

    def run_batch(b: int):
        rng = np.random.default_rng([int(seed), int(b)])
        x, z, u = _sample_arrays(susp, rng, per_batch, fiber_depth)
        r = roof_many(x)
        live = np.empty(per_batch, dtype=bool)
        prod = np.empty(per_batch)
        # a copy: psi may return a view of the state, which the advance overwrites
        psi0 = np.array(_eval_obs(psi, x, u, z), dtype=float)
        prod_means = np.empty(len(times))
        phi_means = np.empty(len(times))
        prev = 0.0
        for j, t in enumerate(times):
            if t > prev:
                x, z, u = _advance_arrays(susp, x, z, u, r, live, t - prev, roof_many)
                prev = t
            ph = np.asarray(_eval_obs(phi, x, u, z), dtype=float)
            prod_means[j] = float(np.mean(np.multiply(ph, psi0, out=prod)))
            phi_means[j] = float(np.mean(ph))
        return prod_means, phi_means, float(np.mean(psi0))

    results = _map_batches(run_batch, n_batches, min(threads, n_batches))
    prod = np.stack([r[0] for r in results])
    phim = np.stack([r[1] for r in results])
    psim = np.asarray([r[2] for r in results])
    return CorrelationSeries.from_batches(times, prod, phim, psim, per_batch)


# the batch function of the `correlation` call that forked this worker process
_forked_batch = None


def _adopt_batch(run_batch: Callable) -> None:
    global _forked_batch
    _forked_batch = run_batch


def _run_forked_batch(b: int):
    return _forked_batch(b)


def _map_batches(run_batch: Callable, n_batches: int, workers: int) -> list:
    """[run_batch(b) for b in range(n_batches)], spread over `workers` processes.

    run_batch reaches the children through the pool initializer, which fork
    hands over without pickling, so only batch indices and results cross
    the pipes.  A child that dies raises BrokenProcessPool instead of
    leaving the call waiting.
    """
    own = range(0, n_batches, workers)
    if workers == 1:
        return [run_batch(b) for b in own]
    # imported here: one-worker runs, and every run's set-up, skip the import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    theirs = [b for b in range(n_batches) if b % workers]
    with ProcessPoolExecutor(
        workers - 1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_batch,
        initargs=(run_batch,),
    ) as pool:
        pending = [pool.submit(_run_forked_batch, b) for b in theirs]
        try:
            mine = [run_batch(b) for b in own]
            forked = [f.result() for f in pending]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    results = [None] * n_batches
    results[::workers] = mine
    for b, res in zip(theirs, forked):
        results[b] = res
    return results


def default_observables(susp: SuspensionSemiflow) -> list[tuple[str, Callable, Callable]]:
    """Named observable pairs used by the correlation experiments.

    The leading pair mixes the flow height with the base coordinate; skew
    bases add two fiber-dependent pairs.
    """
    rbar = susp.mean_roof

    def height_mix(x, u, z=None):
        # cos(2 pi u / rbar) * (1 + x), the same operations on one buffer
        out = np.multiply(2.0 * np.pi, u, out=np.empty(np.shape(u)))
        np.divide(out, rbar, out=out)
        np.cos(out, out=out)
        np.multiply(out, 1.0 + x, out=out)
        return out

    pairs = [("height_mix", height_mix, height_mix)]
    if susp.skew is not None:

        def fiber_first(x, u, z):
            return z[..., 0] * np.cos(2.0 * np.pi * u / rbar)

        def fiber_last(x, u, z):
            return (1.0 + z[..., -1]) * (x - 0.5)

        pairs.append(("fiber_first", fiber_first, fiber_first))
        pairs.append(("fiber_last", fiber_last, fiber_last))
    return pairs


# ---------------------------------------------------------------------------
# decay-rate fit

@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of |rho(t)| over the window above the noise floor."""

    decay_rate: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    verdict: str
    slope_stderr: float
    noise_floor: float
    points_used: int

    def summary(self) -> str:
        lines = [
            f"gamma={self.decay_rate!r}",
            f"gamma_stderr={self.slope_stderr!r}",
            f"C={self.prefactor!r}",
            f"r2={self.r_squared!r}",
            f"window_lo={self.window[0]!r}",
            f"window_hi={self.window[1]!r}",
            f"noise_floor={self.noise_floor!r}",
            f"points_used={self.points_used}",
            f"verdict={self.verdict}",
        ]
        return "\n".join(lines) + "\n"


def fit_rate(series: CorrelationSeries, noise_floor_mult: float = 3.0) -> DecayFit:
    """Fit log |rho| = log C - gamma t on points above the noise floor.

    The floor is noise_floor_mult times the largest standard error; fewer
    than eight points above it raises WindowTooShort.  The verdict is
    NoDecay whenever the 95 percent slope interval reaches zero, and
    ExponentialDecay otherwise.
    """
    vals = np.asarray(series.values, dtype=float)
    errs = np.asarray(series.std_errors, dtype=float)
    times = np.asarray(series.times, dtype=float)
    floor = float(noise_floor_mult) * float(errs.max(initial=0.0))
    idx = np.nonzero(np.abs(vals) > floor)[0]
    if len(idx) < 8:
        raise WindowTooShort(
            f"{len(idx)} points above noise floor {floor:.3g}, need at least 8"
        )
    t = times[idx]
    y = np.log(np.abs(vals[idx]))

    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * tbar)
    resid = y - (intercept + slope * t)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    dof = len(idx) - 2
    slope_se = math.sqrt(ss_res / dof / sxx) if dof > 0 else math.inf

    no_decay = slope >= 0.0 or abs(slope) <= 1.96 * slope_se
    verdict = "NoDecay" if no_decay else "ExponentialDecay"
    return DecayFit(
        decay_rate=-slope,
        prefactor=math.exp(intercept),
        r_squared=r2,
        window=(float(t[0]), float(t[-1])),
        verdict=verdict,
        slope_stderr=slope_se,
        noise_floor=floor,
        points_used=len(idx),
    )


# ---------------------------------------------------------------------------
# temporal distance

@dataclass(frozen=True)
class TemporalDistance:
    """Truncated two-sided roof-difference sum along a shared past coding."""

    value: float
    truncation_bound: float
    depth: int
    past: tuple[int, ...]


def temporal_distance(
    susp: SuspensionSemiflow, x, y, depth: int, past: Sequence[int] | None = None
) -> TemporalDistance:
    """Temporal-distance functional of two base points to the given depth.

    Both points are pulled back along the same inverse-branch chain
    (`past`, most recent branch first, defaulting to branch 0 throughout)
    and the roof differences are accumulated:

        sum_{k=1}^{depth} [ r(H_k y) - r(H_k x) ] = B(y) - B(x),

    with H_k the k-step pull and B(p) = sum_{k=1}^{depth} r(H_k p) one
    point's backward roof sum along the chain.  The regrouping is exact
    in Fraction arithmetic; on the float path (an inexact roof or a float
    point) the difference of the two sums may round differently in its
    last bits from the sum of differences.  B is memoised on the
    suspension under the key (exact, point, past), so an n x n grid pulls
    back n points; the memo lives and dies with the suspension, and a
    float point never reads an exact entry.

    Forward-orbit terms cancel exactly because the bracket point shares
    the future coding whose roof values it is compared against, so only
    the backward sums carry content.  The functional vanishes identically
    when the roof is constant on partition cells.  Inadmissible pulls
    raise BracketUndefined (x's chain is checked first) and store
    nothing.  The truncation bound uses the roof branch constant and the
    expansion bound.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    bm = susp.base_map
    chain = tuple(int(k) for k in past) if past is not None else (0,) * depth
    if len(chain) < depth:
        raise ValueError("past coding must supply at least `depth` symbols")
    chain = chain[:depth]
    for k in chain:
        if not 0 <= k < bm.n_cells:
            raise ValueError("past coding symbol out of range")

    exact = (
        susp.roof.exact
        and isinstance(x, Rational)
        and isinstance(y, Rational)
    )
    px = Fraction(x) if exact else float(x)
    py = Fraction(y) if exact else float(y)
    bx = _backward_sum(susp, exact, px, chain)
    total = _backward_sum(susp, exact, py, chain) - bx

    # |r(H_k y) - r(H_k x)| <= K lam^(k-1) |y - x| with lam the inverse-branch
    # contraction bound, so the dropped tail is K |y-x| lam^depth / (1 - lam)
    lam = float(bm.expansion_bound)
    bound = (
        float(susp.roof.branch_lipschitz) * abs(float(y) - float(x)) * lam**depth / (1.0 - lam)
    )
    return TemporalDistance(total if exact else float(total), bound, depth, chain)


def _backward_sum(susp: SuspensionSemiflow, exact: bool, p, chain: tuple[int, ...]):
    """B(p) = sum of r(H_k p) over the chain's pulls, memoised on the suspension."""
    key = (exact, p, chain)
    hit = susp._backward_sums.get(key)
    if hit is not None:
        return hit
    bm = susp.base_map
    value = susp.roof.value
    total = Fraction(0) if exact else 0.0
    for k in chain:
        try:
            cell = bm.cell_index(p)
        except BoundaryPoint as exc:
            raise BracketUndefined(f"pullback hit a partition boundary at {float(p)!r}") from exc
        if not bm.admissible(k, cell):
            raise BracketUndefined(
                f"past symbol {k} cannot precede cell {cell}; no inverse branch applies"
            )
        p = bm.branches[k].inverse(p)
        total += value(p)
    susp._backward_sums[key] = total
    return total


# ---------------------------------------------------------------------------
# plotting

def svg_log_plot(series: CorrelationSeries, fit: DecayFit | None = None, width: int = 640, height: int = 420) -> str:
    """Hand-rolled SVG of log10 |rho(t)| with the fitted decay line."""
    vals = np.asarray(series.values, dtype=float)
    times = np.asarray(series.times, dtype=float)
    mask = np.abs(vals) > 0
    if not mask.any():
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            '<text x="20" y="30">empty series</text></svg>'
        )
    t = times[mask]
    logv = np.log10(np.abs(vals[mask]))
    pad = 48
    t0, t1 = float(times[0]), float(times[-1])
    y0, y1 = float(logv.min()), float(logv.max())
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0

    def sx(tv):
        return pad + (tv - t0) / (t1 - t0) * (width - 2 * pad)

    def sy(yv):
        return height - pad - (yv - y0) / (y1 - y0) * (height - 2 * pad)

    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(t, logv))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle">t</text>',
        f'<text x="14" y="{height // 2}" transform="rotate(-90 14 {height // 2})" '
        'text-anchor="middle">log10 |rho|</text>',
    ]
    if fit is not None and fit.noise_floor > 0:
        fy = sy(math.log10(fit.noise_floor))
        if pad <= fy <= height - pad:
            parts.append(
                f'<line x1="{pad}" y1="{fy:.2f}" x2="{width - pad}" y2="{fy:.2f}" '
                'stroke="gray" stroke-dasharray="4 3"/>'
            )
    if fit is not None and fit.verdict == "ExponentialDecay":
        a, b = fit.window
        ya = math.log10(fit.prefactor) - fit.decay_rate * a / math.log(10.0)
        yb = math.log10(fit.prefactor) - fit.decay_rate * b / math.log(10.0)
        parts.append(
            f'<line x1="{sx(a):.2f}" y1="{sy(ya):.2f}" x2="{sx(b):.2f}" y2="{sy(yb):.2f}" '
            'stroke="crimson" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
